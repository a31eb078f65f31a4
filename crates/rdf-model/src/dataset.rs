//! Named-graph dataset: one term dictionary, one id-only index per graph.
//!
//! The paper's queries address graphs by URI (`FROM <http://dbpedia.org>`,
//! cross-graph joins between DBpedia and YAGO). A [`Dataset`] maps graph URIs
//! to [`TripleIndex`]es that all index ids of **one** [`Interner`] — the
//! dataset's. Ids are therefore canonical across the whole dataset: two ids
//! are equal iff the terms are equal, no matter which graphs they were
//! scanned from, which lets joins, DISTINCT, and GROUP BY hash plain
//! integers instead of strings; every term is stored once; a scan emits
//! exactly the ids the query operators consume; and every graph's slabs are
//! sorted by the same id order, so a scan of *any* graph yields columns in
//! ascending dataset id — the property the optimizer's interesting-order
//! tracking (merge joins, sorted DISTINCT) builds on.
//!
//! A graph enters as a stand-alone [`Graph`] builder with its own
//! dictionary: [`Dataset::insert_graph`] interns the builder's terms here,
//! re-keys its triples through the resulting translation, builds the
//! graph's three slabs from them and drops the builder's dictionary. That
//! is the one install path — live inserts and WAL replay both take it.
//! [`Dataset::append_triples`] interns straight into the dataset and merges
//! each batch into fresh slabs, so every graph has the one layout whatever
//! built it.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::graph::{resolve_triples, Graph, GraphStats, Key, TripleIndex};
use crate::interner::{Interner, TermId};
use crate::term::{Term, Triple};

/// A cached statistics snapshot plus the graph length it was taken at.
/// The snapshot ([`TripleIndex::stats`]) is a function of the contents, so
/// a graph built live, replayed from the WAL or loaded from a snapshot plans
/// alike. The length is the staleness witness, and it needs no state of its
/// own: an index only ever grows, so every append that adds a triple
/// changes it, and a graph replacement installs a new index and refreshes
/// its entry at once.
#[derive(Debug, Clone)]
struct StatsEntry {
    len: usize,
    stats: Arc<GraphStats>,
}

impl StatsEntry {
    fn of(index: &TripleIndex) -> Self {
        StatsEntry {
            len: index.len(),
            stats: Arc::new(index.stats()),
        }
    }
}

/// Dictionary-rank permutation over a dataset interner snapshot: maps each
/// global [`TermId`] to its rank in SPARQL `ORDER BY` term order
/// ([`Term::order_cmp`]). Terms that compare equal under `order_cmp` (e.g.
/// numerically-equal literals with different lexical forms) share a rank, so
/// comparing two ranks gives *exactly* the ordering `order_cmp` would —
/// `ORDER BY ?var` on plain variables can sort raw `u32` ranks without
/// materializing a single sort-key term.
#[derive(Debug)]
pub struct TermRanks {
    ranks: Vec<u32>,
}

impl TermRanks {
    /// Number of ids covered (the interner length at snapshot time). Ids at
    /// or past this index (e.g. query-local overflow terms) have no rank.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when the snapshot covers no terms.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Rank of a global id, `None` when the id is outside the snapshot.
    #[inline]
    pub fn rank(&self, id: TermId) -> Option<u32> {
        self.ranks.get(id.index()).copied()
    }
}

/// A collection of named graphs indexing one shared term dictionary.
#[derive(Debug, Default)]
pub struct Dataset {
    graphs: BTreeMap<String, Arc<TripleIndex>>,
    interner: Interner,
    /// Optimizer statistics, snapshotted at graph insert. Reads go through
    /// [`Dataset::graph_stats`], which compares the cached length against
    /// the graph's and lazily rebuilds after any append that added a triple.
    stats: RwLock<BTreeMap<String, StatsEntry>>,
    /// Lazily built dictionary-rank permutation over the interner (see
    /// [`Dataset::term_ranks`]); invalidated by interner growth.
    ranks: RwLock<Option<Arc<TermRanks>>>,
    /// Count of graph mutations (inserts, replacements, append batches) —
    /// the staleness witness behind [`Dataset::stats_generation`].
    mutations: u64,
}

// `stats` and `ranks` are caches that rebuild on demand and are only ever
// replaced whole, so a guard recovered from a poisoned lock (a reader thread
// panicked while holding it) is as good as a clean one.
impl Clone for Dataset {
    fn clone(&self) -> Self {
        let stats = self.stats.read().unwrap_or_else(PoisonError::into_inner);
        let ranks = self.ranks.read().unwrap_or_else(PoisonError::into_inner);
        Dataset {
            graphs: self.graphs.clone(),
            interner: self.interner.clone(),
            stats: RwLock::new(stats.clone()),
            ranks: RwLock::new(ranks.clone()),
            mutations: self.mutations,
        }
    }
}

impl Dataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable dataset rooted at `dir`: the persistent
    /// counterpart of [`Dataset::new`]. An absent or empty directory yields
    /// a fresh, fully usable store; an existing one is recovered from its
    /// snapshot and write-ahead log (see [`crate::persist`] for the on-disk
    /// contract). Mutations go through the returned
    /// [`Store`](crate::persist::Store) so they are logged durably.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
    ) -> std::result::Result<crate::persist::Store, crate::persist::StorageError> {
        crate::persist::Store::open_path(dir)
    }

    /// A dataset over a restored dictionary (snapshot recovery only); the
    /// decoder then [installs](Dataset::install) each graph's index, built
    /// from its persisted SPO slab, which already holds this dictionary's
    /// ids.
    pub(crate) fn with_interner(interner: Interner) -> Self {
        Dataset {
            interner,
            ..Self::default()
        }
    }

    /// Overwrite the mutation counter (snapshot/WAL recovery only): a
    /// restored dataset must report the same [`Dataset::stats_generation`]
    /// the persisted one did, or plan caches stamped before a restart would
    /// wrongly validate (or wrongly discard) their entries after it.
    pub(crate) fn set_stats_generation(&mut self, generation: u64) {
        self.mutations = generation;
    }

    /// Insert (or replace) a named graph.
    ///
    /// Every term of the builder's dictionary is interned here in the
    /// builder's id order, a new one as a copy that shares nothing with the
    /// builder; the triples are re-keyed through the resulting translation,
    /// sorted, and built into the graph's index by its one constructor; the
    /// builder's dictionary is dropped. Sharing the builder's
    /// strings (`Term::clone`) would save the copy, but leave the dataset's
    /// strings scattered through the builder's otherwise freed region:
    /// thousands of free fragments between live strings, which every later
    /// small allocation of the process is then carved from (measured on the
    /// paged wire path: +10 % on decoding identical bytes). Copied, the
    /// dataset is compact and the builder's memory comes back whole.
    pub fn insert_graph(&mut self, uri: impl Into<String>, graph: Graph) {
        let (terms, triples) = graph.into_parts();
        self.interner.reserve(terms.len());
        let map: Vec<TermId> = terms
            .iter()
            .map(|(_, term)| self.interner.intern_unshared(term))
            .collect();
        drop(terms);
        self.interner.shrink_to_fit();
        let mut spo: Vec<Key> = triples
            .into_iter()
            .map(|(s, p, o)| (map[s.index()], map[p.index()], map[o.index()]))
            .collect();
        spo.sort_unstable();
        self.install(uri.into(), TripleIndex::from_spo(spo));
    }

    /// Install an index that already holds this dataset's ids.
    pub(crate) fn install(&mut self, uri: String, index: TripleIndex) {
        self.mutations += 1;
        let entry = StatsEntry::of(&index);
        self.graphs.insert(uri.clone(), Arc::new(index));
        self.stats
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(uri, entry);
    }

    /// Append triples to a graph already in the dataset: terms are interned
    /// straight into the dataset's dictionary, in batch order, and the
    /// batch's new triples, sorted and de-duplicated, are merged into fresh
    /// slabs that replace the graph's index. Statistics are *not*
    /// recomputed eagerly here —
    /// [`Dataset::graph_stats`] sees the graph's new length and rebuilds
    /// lazily on the next optimizer read, so a bulk-load of many batches
    /// pays for one stats pass per query-after-append instead of one per
    /// batch.
    ///
    /// The old index is never edited, so whoever else holds it (a cloned
    /// dataset, a handle from [`Dataset::graph`]) keeps it unchanged.
    ///
    /// Returns the number of *new* triples, or `None` for an unknown graph.
    pub fn append_triples<I>(&mut self, uri: &str, triples: I) -> Option<usize>
    where
        I: IntoIterator<Item = Triple>,
    {
        let index = self.graphs.get_mut(uri)?;
        self.mutations += 1;
        let mut add: Vec<Key> = Vec::new();
        for t in triples {
            let s = self.interner.intern(t.subject);
            let p = self.interner.intern(t.predicate);
            let o = self.interner.intern(t.object);
            add.push((s, p, o));
        }
        add.sort_unstable();
        add.dedup();
        add.retain(|&key| !index.contains(key));
        let added = add.len();
        if added > 0 {
            *index = Arc::new(index.merged(add));
        }
        Some(added)
    }

    /// Fetch a graph's index by URI. Its ids are this dataset's:
    /// [`Dataset::resolve`] / [`Dataset::lookup`] translate them.
    pub fn graph(&self, uri: &str) -> Option<&Arc<TripleIndex>> {
        self.graphs.get(uri)
    }

    /// A graph's triples as concrete terms, in SPO (dataset id) order
    /// (allocates per triple; intended for serialization, not evaluation).
    pub fn graph_triples(&self, uri: &str) -> Option<impl Iterator<Item = Triple> + '_> {
        let index = self.graphs.get(uri)?;
        Some(resolve_triples(&self.interner, index.iter_ids()))
    }

    /// Cached optimizer statistics for a graph's contents, keyed by dataset
    /// id. Self-healing: the cached snapshot carries the graph length it was
    /// taken at, and a read that observes another length — something was
    /// appended since — rebuilds the snapshot before returning. Callers
    /// therefore never see stale stats, without having to track appends.
    pub fn graph_stats(&self, uri: &str) -> Option<Arc<GraphStats>> {
        let index = self.graphs.get(uri)?;
        {
            let stats = self.stats.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = stats.get(uri) {
                if entry.len == index.len() {
                    return Some(Arc::clone(&entry.stats));
                }
            }
        }
        // Stale (or missing) snapshot: rebuild outside the read lock. A
        // racing reader may rebuild too; the write is idempotent.
        let entry = StatsEntry::of(index);
        let stats = Arc::clone(&entry.stats);
        self.stats
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(uri.to_string(), entry);
        Some(stats)
    }

    /// Monotonic witness of every dataset state a statistics-driven query
    /// plan depends on: bumped by each [`Dataset::insert_graph`] (including
    /// replacements) and each [`Dataset::append_triples`] batch — the only
    /// paths that can mutate a dataset's graphs, since indexes are frozen
    /// behind `Arc`s.
    /// Two equal generations therefore guarantee the optimizer would
    /// produce the same plan; plan caches stamp their entries with this
    /// and re-optimize on mismatch. A bump by a batch that added nothing
    /// new costs one harmless few-microsecond re-prepare, never a wrong
    /// plan.
    pub fn stats_generation(&self) -> u64 {
        self.mutations
    }

    /// The cached dictionary-rank permutation, only if it is already built
    /// and still fresh (interner unchanged). Lets callers use a warm cache
    /// without committing to the full rebuild [`Dataset::term_ranks`]
    /// performs — e.g. a 10-row `ORDER BY` is cheaper to sort on terms than
    /// to amortize a million-term rank build against.
    pub fn cached_term_ranks(&self) -> Option<Arc<TermRanks>> {
        let cached = self.ranks.read().unwrap_or_else(PoisonError::into_inner);
        cached
            .as_ref()
            .filter(|r| r.len() == self.interner.len())
            .map(Arc::clone)
    }

    /// The dictionary-rank permutation over the shared interner, built
    /// lazily on first use and cached until the interner grows (the
    /// interner is append-only, so a length comparison is a complete
    /// staleness check). One `O(n log n)` sort buys every subsequent
    /// `ORDER BY ?var` an id-native `u32` comparison per row.
    pub fn term_ranks(&self) -> Arc<TermRanks> {
        let len = self.interner.len();
        {
            let cached = self.ranks.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(r) = cached.as_ref() {
                if r.len() == len {
                    return Arc::clone(r);
                }
            }
        }
        let mut ids: Vec<TermId> = (0..len as u32).map(TermId).collect();
        ids.sort_unstable_by(|a, b| {
            self.interner
                .resolve(*a)
                .order_cmp(self.interner.resolve(*b))
        });
        let mut ranks = vec![0u32; len];
        let mut rank = 0u32;
        for (i, id) in ids.iter().enumerate() {
            // Terms comparing equal share the rank of their group head, so
            // rank comparison reproduces order_cmp ties exactly.
            if i > 0
                && self
                    .interner
                    .resolve(ids[i - 1])
                    .order_cmp(self.interner.resolve(*id))
                    != std::cmp::Ordering::Equal
            {
                rank = i as u32;
            }
            ranks[id.index()] = rank;
        }
        let built = Arc::new(TermRanks { ranks });
        *self.ranks.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&built));
        built
    }

    /// The dataset-wide interner (global id space).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Resolve a global id to its term.
    ///
    /// # Panics
    /// Panics if the id is not a global id of this dataset.
    #[inline]
    pub fn resolve(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Look up a term's global id without interning.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// All graph URIs, sorted.
    pub fn graph_uris(&self) -> impl Iterator<Item = &str> {
        self.graphs.keys().map(String::as_str)
    }

    /// Every graph with its URI, sorted by URI (the snapshot encoder's
    /// canonical order).
    pub(crate) fn graphs(&self) -> impl Iterator<Item = (&str, &TripleIndex)> {
        self.graphs
            .iter()
            .map(|(uri, index)| (uri.as_str(), &**index))
    }

    /// Number of named graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the dataset has no graphs.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Total triples across all graphs.
    pub fn total_triples(&self) -> usize {
        self.graphs.values().map(|g| g.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Term, Triple};

    #[test]
    fn graphs_are_independent() {
        let mut a = Graph::new();
        a.insert(&Triple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::iri("http://x/o"),
        ));
        let b = Graph::new();
        let mut ds = Dataset::new();
        ds.insert_graph("http://dbpedia.org", a);
        ds.insert_graph("http://yago-knowledge.org", b);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.graph("http://dbpedia.org").unwrap().len(), 1);
        assert_eq!(ds.graph("http://yago-knowledge.org").unwrap().len(), 0);
        assert!(ds.graph("http://missing").is_none());
        assert_eq!(ds.total_triples(), 1);
    }

    #[test]
    fn uris_sorted() {
        let mut ds = Dataset::new();
        ds.insert_graph("http://b", Graph::new());
        ds.insert_graph("http://a", Graph::new());
        let uris: Vec<_> = ds.graph_uris().collect();
        assert_eq!(uris, vec!["http://a", "http://b"]);
    }

    #[test]
    fn shared_interner_unifies_ids_across_graphs() {
        let shared = Term::iri("http://x/both");
        let only_a = Term::iri("http://x/a");
        let only_b = Term::iri("http://x/b");
        let p = Term::iri("http://x/p");

        let mut a = Graph::new();
        a.insert(&Triple::new(only_a.clone(), p.clone(), shared.clone()));
        let mut b = Graph::new();
        b.insert(&Triple::new(shared.clone(), p.clone(), only_b.clone()));

        let mut ds = Dataset::new();
        ds.insert_graph("http://ga", a);
        ds.insert_graph("http://gb", b);

        // Four distinct terms, each stored once; the shared term has one id
        // and both graphs' indexes hold exactly that id.
        assert_eq!(ds.interner().len(), 4);
        let id = ds.lookup(&shared).expect("shared term interned");
        let (ga, gb) = (
            ds.graph("http://ga").unwrap(),
            ds.graph("http://gb").unwrap(),
        );
        assert_eq!(ga.count_pattern(None, None, Some(id)), 1);
        assert_eq!(gb.count_pattern(Some(id), None, None), 1);

        // A term a graph never mentions is an empty range in every position.
        let only_b_id = ds.lookup(&only_b).unwrap();
        assert_eq!(ds.resolve(only_b_id), &only_b);
        for mask in 1..8u8 {
            let pick = |bit: u8| (mask & bit != 0).then_some(only_b_id);
            assert_eq!(ga.count_pattern(pick(4), pick(2), pick(1)), 0);
        }
        let back: Vec<Triple> = ds.graph_triples("http://gb").unwrap().collect();
        assert_eq!(back, vec![Triple::new(shared, p, only_b)]);
    }

    fn t(s: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri("http://x/p"), Term::iri(o))
    }

    /// The one term ↔ id map left is the dataset's interner: an append
    /// extends it by exactly the terms it has not seen.
    #[test]
    fn append_triples_extends_id_map_incrementally() {
        let mut g = Graph::new();
        g.insert(&t("http://x/s0", "http://x/o0"));
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        let before = ds.interner().len();

        let added = ds
            .append_triples(
                "http://g",
                vec![
                    t("http://x/s1", "http://x/o1"),
                    t("http://x/s0", "http://x/o0"), // duplicate
                ],
            )
            .unwrap();
        assert_eq!(added, 1);
        assert_eq!(ds.graph("http://g").unwrap().len(), 2);
        assert_eq!(ds.interner().len(), before + 2);

        // The new term has an id the graph's index holds.
        let id = ds.lookup(&Term::iri("http://x/s1")).expect("interned");
        assert_eq!(id.index(), before);
        let index = ds.graph("http://g").unwrap();
        assert_eq!(index.count_pattern(Some(id), None, None), 1);
        assert!(ds.append_triples("http://missing", vec![]).is_none());
    }

    /// `n` distinct triples `s{from+i} p o{from+i}`.
    fn batch(from: usize, n: usize) -> Vec<Triple> {
        (from..from + n)
            .map(|i| t(&format!("http://x/s{i}"), &format!("http://x/o{i}")))
            .collect()
    }

    #[test]
    fn stats_refresh_when_delta_merges() {
        // Each append merges its batch into the slabs; the next stats read
        // sees the graph's new length and rebuilds, without any caller-side
        // bookkeeping.
        let mut g = Graph::new();
        g.insert(&t("http://x/s0", "http://x/o0"));
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        assert_eq!(ds.graph_stats("http://g").unwrap().triples, 1);
        let p = ds.lookup(&Term::iri("http://x/p")).unwrap();

        ds.append_triples("http://g", batch(1, 2)).unwrap();
        let stats = ds.graph_stats("http://g").unwrap();
        assert_eq!(stats.triples, 3, "the append counts");
        assert_eq!(stats.predicates[&p].count, 3);

        // A batch of nothing new keeps the snapshot, and the index.
        let index = Arc::clone(ds.graph("http://g").unwrap());
        ds.append_triples("http://g", batch(1, 2)).unwrap();
        assert!(Arc::ptr_eq(&stats, &ds.graph_stats("http://g").unwrap()));
        assert!(Arc::ptr_eq(&index, ds.graph("http://g").unwrap()));

        // A large batch: the stats are those of its merged contents.
        ds.append_triples("http://g", batch(3, 5000)).unwrap();
        let stats = ds.graph_stats("http://g").unwrap();
        assert_eq!(stats.triples, 5003);
        assert_eq!(stats.predicates[&p].count, 5003);
        assert_eq!(*stats, ds.graph("http://g").unwrap().stats());
    }

    /// Every ordering of a graph strictly ascending in dataset ids: the
    /// graph's index is what the one constructor builds from its SPO
    /// triples, which it sorts into each ordering.
    fn assert_sorted_by_dataset_id(ds: &Dataset, uri: &str) {
        let g = ds.graph(uri).unwrap();
        let all: Vec<_> = g.iter_ids().collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]), "{uri}: {all:?}");
        assert_eq!(**g, TripleIndex::from_spo(all), "{uri}");
    }

    #[test]
    fn later_graphs_are_rekeyed_into_dataset_id_order() {
        let mut g1 = Graph::new();
        g1.insert(&t("http://x/s0", "http://x/o0"));
        g1.insert(&t("http://x/s1", "http://x/o1"));
        let mut ds = Dataset::new();
        ds.insert_graph("http://a", g1);

        // The second builder meets its terms in an order that disagrees
        // with the ids the dataset already gave them: builder order is
        // (z-first-local, p, o0, s0, o9), dataset order puts s0, p, o0 first.
        let mut g2 = Graph::new();
        g2.insert(&t("http://x/z-first-local", "http://x/o0"));
        g2.insert(&t("http://x/s0", "http://x/o9"));
        let builder_order: Vec<Triple> = g2.iter_triples().collect();
        ds.insert_graph("http://b", g2);

        assert_sorted_by_dataset_id(&ds, "http://a");
        assert_sorted_by_dataset_id(&ds, "http://b");
        // Same triples, now led by the low (earlier-interned) subject.
        let rekeyed: Vec<Triple> = ds.graph_triples("http://b").unwrap().collect();
        assert_eq!(rekeyed.len(), 2);
        assert_eq!(rekeyed[0], builder_order[1]);
        assert_eq!(rekeyed[1], builder_order[0]);
        // Every access path sees the triples under their dataset ids.
        let g = ds.graph("http://b").unwrap();
        let (s0, o0, o9) = (
            ds.lookup(&Term::iri("http://x/s0")).unwrap(),
            ds.lookup(&Term::iri("http://x/o0")).unwrap(),
            ds.lookup(&Term::iri("http://x/o9")).unwrap(),
        );
        assert_eq!(g.count_pattern(Some(s0), None, Some(o9)), 1);
        assert_eq!(g.count_pattern(None, None, Some(o0)), 1);
        assert_eq!(g.count_pattern(Some(s0), None, None), 1);
    }

    #[test]
    fn stats_generation_witnesses_every_mutation_path() {
        let mut ds = Dataset::new();
        let g0 = ds.stats_generation();

        let mut g = Graph::new();
        g.insert(&t("http://x/s0", "http://x/o0"));
        ds.insert_graph("http://g", g);
        let g1 = ds.stats_generation();
        assert_ne!(g0, g1, "insert bumps");

        ds.append_triples("http://g", vec![t("http://x/s1", "http://x/o1")])
            .unwrap();
        let g2 = ds.stats_generation();
        assert_ne!(
            g1, g2,
            "append batch bumps (even below the merge threshold)"
        );

        // Replacing a graph under the same URI — even with the same triple
        // count and only already-interned terms — must bump: cached plans
        // were optimized for the *old* graph's statistics.
        let mut replacement = Graph::new();
        replacement.insert(&t("http://x/s1", "http://x/o0"));
        replacement.insert(&t("http://x/s0", "http://x/o1"));
        ds.insert_graph("http://g", replacement);
        assert_ne!(g2, ds.stats_generation(), "same-URI replacement bumps");

        // Pure reads don't.
        let before = ds.stats_generation();
        let _ = ds.graph_stats("http://g");
        let _ = ds.term_ranks();
        assert_eq!(before, ds.stats_generation());
        // Clones carry the witness.
        assert_eq!(ds.clone().stats_generation(), before);
    }

    #[test]
    fn append_of_an_already_interned_low_id_keeps_every_ordering_sorted() {
        // Graph A's ids are all below graph B's; an append to B that
        // mentions one of A's terms merges a *low* id into B's slabs. Scans
        // of B must still come out in ascending dataset id.
        let mut a = Graph::new();
        a.insert(&t("http://x/a0", "http://x/oa0"));
        a.insert(&t("http://x/a1", "http://x/oa1"));
        let mut ds = Dataset::new();
        ds.insert_graph("http://a", a);
        let mut b = Graph::new();
        b.insert(&t("http://x/b0", "http://x/ob0"));
        ds.insert_graph("http://b", b);

        ds.append_triples(
            "http://b",
            vec![
                t("http://x/b1", "http://x/a0"),
                t("http://x/a1", "http://x/b0"),
            ],
        )
        .unwrap();
        let low = ds.lookup(&Term::iri("http://x/a0")).unwrap();
        let high = ds.lookup(&Term::iri("http://x/b1")).unwrap();
        assert!(low < high);
        assert_eq!(ds.graph("http://b").unwrap().len(), 3);
        assert_sorted_by_dataset_id(&ds, "http://b");
        // No term was interned twice on the way: a0, a1, oa0, oa1, p, b0,
        // ob0 and b1.
        assert_eq!(ds.interner().len(), 8);
    }

    #[test]
    fn term_ranks_follow_order_cmp_and_share_ties() {
        let mut g = Graph::new();
        // Deliberately intern out of dictionary order.
        g.insert(&Triple::new(
            Term::iri("http://x/zzz"),
            Term::iri("http://x/p"),
            Term::integer(2),
        ));
        g.insert(&Triple::new(
            Term::iri("http://x/aaa"),
            Term::iri("http://x/p"),
            Term::integer(1),
        ));
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);

        let ranks = ds.term_ranks();
        assert_eq!(ranks.len(), ds.interner().len());
        // Rank comparison must reproduce order_cmp on every pair.
        for (a, ta) in ds.interner().iter() {
            for (b, tb) in ds.interner().iter() {
                assert_eq!(
                    ranks.rank(a).unwrap().cmp(&ranks.rank(b).unwrap()),
                    ta.order_cmp(tb),
                    "ranks diverge from order_cmp for {ta} vs {tb}"
                );
            }
        }
        // The cache invalidates when the interner grows.
        ds.append_triples("http://g", vec![t("http://x/new", "http://x/onew")])
            .unwrap();
        let fresh = ds.term_ranks();
        assert_eq!(fresh.len(), ds.interner().len());
        assert!(fresh.len() > ranks.len());
    }

    #[test]
    fn append_is_copy_on_write_for_shared_graphs() {
        let mut g = Graph::new();
        g.insert(&t("http://x/s0", "http://x/o0"));
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        let shared = Arc::clone(ds.graph("http://g").unwrap());
        let epoch = ds.clone();
        ds.append_triples("http://g", vec![t("http://x/s1", "http://x/o1")])
            .unwrap();
        // The dataset's copy grew; the handle and the older clone did not.
        assert_eq!(ds.graph("http://g").unwrap().len(), 2);
        assert_eq!(shared.len(), 1);
        assert_eq!(epoch.graph("http://g").unwrap().len(), 1);
        assert!(epoch.lookup(&Term::iri("http://x/s1")).is_none());
    }

    #[test]
    fn poisoned_cache_locks_are_recovered_not_propagated() {
        let mut g = Graph::new();
        g.insert(&t("http://x/s0", "http://x/o0"));
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        ds.term_ranks();

        // A thread dies holding each cache's write guard.
        let poison = |ds: &Dataset| {
            std::thread::scope(|scope| {
                let stats = scope.spawn(|| {
                    let _guard = ds.stats.write().unwrap();
                    panic!("poison stats");
                });
                let ranks = scope.spawn(|| {
                    let _guard = ds.ranks.write().unwrap();
                    panic!("poison ranks");
                });
                assert!(stats.join().is_err() && ranks.join().is_err());
            });
            assert!(ds.stats.is_poisoned() && ds.ranks.is_poisoned());
        };
        poison(&ds);

        // Read.
        assert_eq!(ds.graph_stats("http://g").unwrap().triples, 1);
        assert_eq!(ds.cached_term_ranks().unwrap().len(), ds.interner().len());
        assert_eq!(ds.term_ranks().len(), ds.interner().len());
        // Clone (the clone's locks are fresh).
        let copy = ds.clone();
        assert!(!copy.stats.is_poisoned() && !copy.ranks.is_poisoned());
        assert_eq!(copy.graph_stats("http://g").unwrap().triples, 1);
        // Append: both caches go stale and rebuild through the
        // still-poisoned locks.
        ds.append_triples("http://g", batch(1, 2)).unwrap();
        assert!(ds.cached_term_ranks().is_none());
        assert_eq!(ds.graph_stats("http://g").unwrap().triples, 3);
        assert_eq!(ds.term_ranks().len(), ds.interner().len());
        // Replace the graph.
        ds.insert_graph("http://g", Graph::new());
        assert_eq!(ds.graph_stats("http://g").unwrap().triples, 0);
    }

    #[test]
    fn replacing_a_graph_keeps_ids_stable() {
        let mut g1 = Graph::new();
        g1.insert(&Triple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::integer(1),
        ));
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g1);
        let old = ds.lookup(&Term::iri("http://x/s")).unwrap();

        let mut g2 = Graph::new();
        g2.insert(&Triple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::integer(2),
        ));
        ds.insert_graph("http://g", g2);
        // The interner is append-only: ids survive replacement, and the
        // replacement's index holds them.
        assert_eq!(ds.lookup(&Term::iri("http://x/s")), Some(old));
        let index = ds.graph("http://g").unwrap();
        assert_eq!(index.count_pattern(Some(old), None, None), 1);
        let two = ds.lookup(&Term::integer(2)).unwrap();
        assert!(index.iter_ids().all(|(s, _, o)| s == old && o == two));
    }
}
