//! Indexed triple store: three sorted, exact-size slabs.
//!
//! Two types share this module:
//!
//! - [`TripleIndex`] — the id-only store: triples of [`TermId`]s in three
//!   orderings. It knows nothing about terms; whoever owns the dictionary
//!   the ids come from gives them meaning. A [`crate::Dataset`] keeps one
//!   per named graph, keyed by the dataset's own ids, so every graph's scans
//!   emit ascending *dataset* ids.
//! - [`Graph`] — a stand-alone builder: its own [`Interner`] plus the set of
//!   its triples over that dictionary's ids, in SPO order. Generators, the
//!   N-Triples parser and tests fill one with [`Graph::insert`];
//!   [`crate::Dataset::insert_graph`] then re-keys the triples into the
//!   dataset's id space, indexes them and drops the builder's dictionary. A
//!   builder has no scans: install it to query it.
//!
//! Triples are stored in three orderings (SPO, POS, OSP) so that every
//! triple-pattern shape has a contiguous range scan:
//!
//! | bound            | index | prefix        |
//! |------------------|-------|---------------|
//! | s, p, o          | SPO   | exact lookup  |
//! | s, p             | SPO   | (s, p, *)     |
//! | s                | SPO   | (s, *, *)     |
//! | p, o             | POS   | (p, o, *)     |
//! | p                | POS   | (p, *, *)     |
//! | o (and o, s)     | OSP   | (o, *, *)     |
//! | none             | SPO   | full scan     |
//!
//! # Layout
//!
//! Each ordering is one strictly ascending `Vec<(TermId, TermId, TermId)>`
//! whose capacity is its length. A range lookup locates its start, gallops
//! to its end and walks contiguous memory — no pointer chasing, no tree
//! nodes, and the prefetcher sees a plain array.
//!
//! An index is never edited in place. Every one is built by one merge
//! (`TripleIndex::merged`): the new triples, strictly ascending in SPO
//! order, are permuted and sorted into each ordering and merged with that
//! ordering's slab in one linear pass into a fresh slab. An install and a
//! snapshot load merge into the empty index (`TripleIndex::from_spo`), an
//! append into the graph's current one, so whoever still holds the old
//! index — an earlier epoch, a running scan — keeps it unchanged. The
//! three slabs are therefore a function of the contents: a graph installed
//! in one piece and the same ids appended batch by batch hold equal slabs
//! (property-tested in `tests/proptest_model.rs`).
//!
//! # Seeking scans
//!
//! An index nested loop probes one pattern once per input row, and its
//! input usually arrives sorted on the probed column, so consecutive probes
//! ask for the same range or one a little further on. A probe that passes a
//! [`SeekHint`] to [`TripleIndex::for_each_match_from`] therefore *seeks*:
//! when its range starts at or above the previous one, the start is found by
//! galloping forward from the previous start (doubling steps, then a binary
//! search of the last bracket — `O(log d)` for a range `d` entries on, one
//! compare for a repeated key); otherwise, and for hint-less calls, it is
//! one binary search over the slab. The end of a range always gallops from
//! its start, since a range holds a few entries. Every scan — visitor,
//! iterator, count — locates its range through this one routine. The hint
//! changes how a range is found, never what a scan visits.
//!
//! The index also derives per-predicate statistics used by the SPARQL
//! optimizer for join reordering.

use std::collections::{BTreeSet, HashMap};

use crate::hash::FxHashMap;
use crate::interner::{Interner, TermId};
use crate::term::{Term, Triple};

const MIN: TermId = TermId(0);
const MAX: TermId = TermId(u32::MAX);

/// A triple of interned ids, in whatever ordering its index uses.
pub(crate) type Key = (TermId, TermId, TermId);

/// Opaque suspension point of a [`TripleIndex::for_each_match_from`] scan: the raw
/// index key (in the chosen index's own ordering, *not* (s, p, o)) the scan
/// stopped at. Only meaningful when passed back to the same index with the
/// same pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPos(Key);

/// Opaque memory of where a [`TripleIndex::for_each_match_from`] scan last
/// located its slab range, so the next probe can seek forward from there
/// instead of searching the whole slab (see the module docs). A caller
/// probing one index with ascending keys keeps one hint per index and passes
/// it to every call; `SeekHint::default()` means "no memory" and costs a
/// plain binary search.
///
/// A hint never changes what a scan returns, only how the range is found:
/// it is used only when the slab entry just before the remembered position
/// is below the new range (one compare certifies it), so a hint from a
/// descending probe, another ordering, another index or an index mutated
/// since falls back to the full search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeekHint(Option<usize>);

/// Strict successor of a key in lexicographic order (`None` past the end).
#[inline]
fn key_successor((a, b, c): Key) -> Option<Key> {
    if c < MAX {
        Some((a, b, TermId(c.0 + 1)))
    } else if b < MAX {
        Some((a, TermId(b.0 + 1), MIN))
    } else if a < MAX {
        Some((TermId(a.0 + 1), MIN, MIN))
    } else {
        None
    }
}

/// Per-predicate statistics for cardinality estimation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredicateStats {
    /// Total triples with this predicate.
    pub count: usize,
    /// Distinct subjects appearing with this predicate.
    pub distinct_subjects: usize,
    /// Distinct objects appearing with this predicate.
    pub distinct_objects: usize,
}

/// Snapshot of graph-level statistics (exposed to the query optimizer).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphStats {
    /// Total triple count.
    pub triples: usize,
    /// Per-predicate statistics.
    pub predicates: HashMap<TermId, PredicateStats>,
}

impl GraphStats {
    /// Estimated number of matches for a triple pattern where each position
    /// is either bound (`Some`) or a variable (`None`).
    ///
    /// Uses uniformity assumptions standard in RDF cost models: a bound
    /// subject with predicate `p` selects `count(p)/distinct_subjects(p)`
    /// triples, etc.
    pub fn estimate(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> f64 {
        match predicate {
            Some(p) => {
                let st = match self.predicates.get(&p) {
                    Some(st) => st,
                    None => return 0.0,
                };
                let base = st.count as f64;
                let s_sel = if subject.is_some() {
                    1.0 / st.distinct_subjects.max(1) as f64
                } else {
                    1.0
                };
                let o_sel = if object.is_some() {
                    1.0 / st.distinct_objects.max(1) as f64
                } else {
                    1.0
                };
                (base * s_sel * o_sel).max(if subject.is_some() || object.is_some() {
                    0.0
                } else {
                    base
                })
            }
            None => {
                let total = self.triples as f64;
                match (subject.is_some(), object.is_some()) {
                    (true, true) => total.sqrt().max(1.0),
                    (true, false) | (false, true) => (total / 100.0).max(1.0),
                    (false, false) => total,
                }
            }
        }
    }
}

/// `from + slab[from..].partition_point(pred)` for a `pred` that holds on a
/// prefix of the slab, found by galloping: probe `from`, `from + 1`,
/// `from + 3`, `from + 7`, … until `pred` fails or the slab ends, then
/// binary-search the last bracket. A boundary `d` entries past `from` costs
/// `O(log d)` compares whatever the slab's length, so a short forward seek
/// is a handful of compares and a boundary at `from` exactly one.
#[inline]
fn gallop(slab: &[Key], from: usize, pred: impl Fn(&Key) -> bool) -> usize {
    // `pred` holds on `slab[from..base]`; the next probe is `base + step - 1`.
    let mut base = from;
    let mut step = 1;
    while base + step <= slab.len() && pred(&slab[base + step - 1]) {
        base += step;
        step *= 2;
    }
    let bracket_end = (base + step - 1).min(slab.len());
    base + slab[base..bracket_end].partition_point(pred)
}

/// The contiguous slab range whose entries fall in `[lo, hi]`, and the one
/// range-location routine every scan shares. The start seeks forward from
/// `hint` when the entry before the hinted position is below `lo` (so
/// nothing at or above `lo` lies before it), and is one binary search
/// otherwise; the end always gallops from the start, as a range holds a few
/// entries. `hint` is left at the range's start.
#[inline]
fn slab_range<'a>(slab: &'a [Key], lo: Key, hi: Key, hint: &mut SeekHint) -> &'a [Key] {
    let start = match hint.0 {
        Some(at) if at <= slab.len() && at.checked_sub(1).is_none_or(|b| slab[b] < lo) => {
            gallop(slab, at, |&t| t < lo)
        }
        _ => slab.partition_point(|&t| t < lo),
    };
    *hint = SeekHint(Some(start));
    &slab[start..gallop(slab, start, |&t| t <= hi)]
}

/// `slab` and `add` — both strictly ascending, no key in both — as one
/// strictly ascending slab whose capacity is its length, in one pass: each
/// key of `add` binary-searches the rest of `slab`, and the run below it is
/// copied whole.
fn merge(slab: &[Key], mut add: Vec<Key>) -> Vec<Key> {
    if slab.is_empty() {
        add.shrink_to_fit();
        return add;
    }
    let mut out = Vec::with_capacity(slab.len() + add.len());
    let mut rest = slab;
    for key in add {
        let below = rest.partition_point(|&k| k < key);
        out.extend_from_slice(&rest[..below]);
        out.push(key);
        rest = &rest[below..];
    }
    out.extend_from_slice(rest);
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "merged keys overlap");
    out
}

/// The slab a pattern shape scans, the bounds of its range there, and the
/// projection of a slab key back to (s, p, o).
type AccessPath<'a> = (&'a [Key], Key, Key, fn(Key) -> Key);

fn spo_to_pos((s, p, o): Key) -> Key {
    (p, o, s)
}

fn spo_to_osp((s, p, o): Key) -> Key {
    (o, s, p)
}

/// The id-only triple store: three sorted, exact-size slabs over
/// [`TermId`]s from a dictionary it does not own. See the module docs for
/// the layout and how an index is built. Two indexes are `==` when their
/// three slabs are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleIndex {
    spo: Vec<Key>,
    pos: Vec<Key>,
    osp: Vec<Key>,
}

impl TripleIndex {
    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the index holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// The SPO slab — the exact sorted array the snapshot stores
    /// block by block.
    pub(crate) fn spo_slab(&self) -> &[Key] {
        &self.spo
    }

    /// The one constructor: an index over `spo`, which must be strictly
    /// ascending; POS and OSP are derived from it by permuting and sorting.
    pub(crate) fn from_spo(spo: Vec<Key>) -> TripleIndex {
        TripleIndex::default().merged(spo)
    }

    /// The one merge: this index plus `add` — strictly ascending SPO keys,
    /// none of them already here — as a fresh index. `add` is permuted and
    /// sorted into each ordering and merged with that ordering's slab in
    /// one linear pass; `self` is left as it was.
    pub(crate) fn merged(&self, add: Vec<Key>) -> TripleIndex {
        debug_assert!(add.windows(2).all(|w| w[0] < w[1]), "unsorted keys");
        let sorted = |permute: fn(Key) -> Key| {
            let mut keys: Vec<Key> = add.iter().map(|&k| permute(k)).collect();
            keys.sort_unstable();
            keys
        };
        let (pos, osp) = (sorted(spo_to_pos), sorted(spo_to_osp));
        TripleIndex {
            spo: merge(&self.spo, add),
            pos: merge(&self.pos, pos),
            osp: merge(&self.osp, osp),
        }
    }

    /// True when the index holds the triple.
    pub(crate) fn contains(&self, key: Key) -> bool {
        self.spo.binary_search(&key).is_ok()
    }

    /// Slab, bounds, and match→(s,p,o) projection for a pattern shape.
    #[inline]
    fn access_path(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> AccessPath<'_> {
        fn id_spo(k: Key) -> Key {
            k
        }
        fn from_pos((p, o, s): Key) -> Key {
            (s, p, o)
        }
        fn from_osp((o, s, p): Key) -> Key {
            (s, p, o)
        }
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => (&self.spo, (s, p, o), (s, p, o), id_spo),
            (Some(s), Some(p), None) => (&self.spo, (s, p, MIN), (s, p, MAX), id_spo),
            (Some(s), None, None) => (&self.spo, (s, MIN, MIN), (s, MAX, MAX), id_spo),
            (Some(s), None, Some(o)) => (&self.osp, (o, s, MIN), (o, s, MAX), from_osp),
            (None, Some(p), Some(o)) => (&self.pos, (p, o, MIN), (p, o, MAX), from_pos),
            (None, Some(p), None) => (&self.pos, (p, MIN, MIN), (p, MAX, MAX), from_pos),
            (None, None, Some(o)) => (&self.osp, (o, MIN, MIN), (o, MAX, MAX), from_osp),
            (None, None, None) => (&self.spo, (MIN, MIN, MIN), (MAX, MAX, MAX), id_spo),
        }
    }

    /// The order in which a scan emits its *free* positions (0 = subject,
    /// 1 = predicate, 2 = object) for a given bound-ness shape — the suffix
    /// of the chosen index's ordering after the bound prefix. Kept adjacent
    /// to [`TripleIndex::access_path`] (one row per arm, property-tested in this
    /// module) so the two tables cannot drift: the query optimizer's
    /// interesting-order tracking uses this to know which variable sequence
    /// a slab scan yields sorted.
    pub fn scan_free_order(s_bound: bool, p_bound: bool, o_bound: bool) -> &'static [usize] {
        match (s_bound, p_bound, o_bound) {
            (true, true, true) => &[],
            (true, true, false) => &[2],         // SPO, (s, p) fixed → o
            (true, false, false) => &[1, 2],     // SPO, s fixed → (p, o)
            (true, false, true) => &[1],         // OSP, (o, s) fixed → p
            (false, true, true) => &[0],         // POS, (p, o) fixed → s
            (false, true, false) => &[2, 0],     // POS, p fixed → (o, s)
            (false, false, true) => &[0, 1],     // OSP, o fixed → (s, p)
            (false, false, false) => &[0, 1, 2], // SPO full scan
        }
    }

    /// Match a triple pattern; unbound positions are `None`. Yields matches
    /// as `(s, p, o)` id triples in index order.
    pub fn match_pattern<'a>(
        &'a self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Box<dyn Iterator<Item = (TermId, TermId, TermId)> + 'a> {
        let (slab, lo, hi, project) = self.access_path(s, p, o);
        let range = slab_range(slab, lo, hi, &mut SeekHint::default());
        Box::new(range.iter().map(move |&k| project(k)))
    }
    /// Visit every match of a triple pattern without allocating an iterator
    /// (the boxed [`TripleIndex::match_pattern`] costs one heap allocation per
    /// call, which adds up in index-nested-loop evaluation where a pattern
    /// is matched once per intermediate row). Returns the number of index
    /// entries visited.
    pub fn for_each_match<F: FnMut(TermId, TermId, TermId)>(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: F,
    ) -> u64 {
        let hint = &mut SeekHint::default();
        self.for_each_match_from(s, p, o, None, hint, |s, p, o| {
            f(s, p, o);
            true
        })
        .0
    }

    /// Resumable, seeking form of [`TripleIndex::for_each_match`]: visit
    /// matches in index order starting *after* `resume` (a [`ScanPos`]
    /// returned by a previous suspension; `None` starts from the beginning),
    /// stopping early when the visitor returns `false`.
    ///
    /// `hint` remembers where the previous call located its slab range:
    /// a probe whose range starts at or above the previous one (the next
    /// key of a sorted input, the same key again, or a resumed scan) gallops
    /// forward from there instead of searching the whole slab. Pass one hint
    /// per index across a sequence of probes, or `&mut SeekHint::default()`
    /// for a one-off scan; results never depend on it.
    ///
    /// Returns `(visited, pos)`: `visited` counts index entries handed to
    /// the visitor in this call, and `pos` is `Some` when the visitor
    /// stopped the scan (pass it back to continue) or `None` when the
    /// pattern's range is exhausted. The sum of `visited` across a chain of
    /// suspended calls equals the count one uninterrupted
    /// [`TripleIndex::for_each_match`] reports — streaming executors rely on this
    /// for scan-work parity with materializing ones.
    pub fn for_each_match_from<F: FnMut(TermId, TermId, TermId) -> bool>(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        resume: Option<ScanPos>,
        hint: &mut SeekHint,
        mut f: F,
    ) -> (u64, Option<ScanPos>) {
        let (slab, lo, hi, project) = self.access_path(s, p, o);
        let lo = match resume {
            // Ranges are inclusive, so resuming means the strict successor
            // of the suspension key; `None` when that overflows past the
            // whole key space (the previous visit was (MAX, MAX, MAX)).
            Some(ScanPos(k)) => match key_successor(k) {
                Some(next) if next <= hi => next,
                _ => return (0, None),
            },
            None => lo,
        };
        let range = slab_range(slab, lo, hi, hint);
        for (i, &k) in range.iter().enumerate() {
            let (s, p, o) = project(k);
            if !f(s, p, o) {
                return (i as u64 + 1, Some(ScanPos(k)));
            }
        }
        (range.len() as u64, None)
    }

    /// Exact (not estimated) number of matches for a pattern.
    pub fn count_pattern(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        let (slab, lo, hi, _) = self.access_path(s, p, o);
        slab_range(slab, lo, hi, &mut SeekHint::default()).len()
    }

    /// Iterate all triples as id tuples in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.spo.iter().copied()
    }

    /// Build a statistics snapshot for the optimizer in two sequential
    /// passes that never collect a set: POS order delivers each distinct
    /// (predicate, object) pair as one run, SPO order each distinct
    /// (subject, predicate) pair.
    pub fn stats(&self) -> GraphStats {
        let mut predicates: FxHashMap<TermId, PredicateStats> = FxHashMap::default();
        let mut run = None;
        for &(p, o, _) in &self.pos {
            let st = predicates.entry(p).or_default();
            st.count += 1;
            if run != Some((p, o)) {
                run = Some((p, o));
                st.distinct_objects += 1;
            }
        }
        let mut run = None;
        for &(s, p, _) in &self.spo {
            if run != Some((s, p)) {
                run = Some((s, p));
                predicates.entry(p).or_default().distinct_subjects += 1;
            }
        }
        GraphStats {
            triples: self.len(),
            predicates: predicates.into_iter().collect(),
        }
    }

    /// Distinct predicates in the index, ascending.
    pub fn predicates(&self) -> impl Iterator<Item = TermId> + '_ {
        let mut last: Option<TermId> = None;
        self.pos.iter().filter_map(move |&(p, _, _)| {
            if last == Some(p) {
                None
            } else {
                last = Some(p);
                Some(p)
            }
        })
    }
}

/// A stand-alone RDF graph: a term dictionary plus the set of its triples
/// over that dictionary's ids, in SPO order — the builder generators,
/// parsers and tests fill before handing it to a [`crate::Dataset`], which
/// indexes it. A builder has no scans: install it to query it.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    interner: Interner,
    triples: BTreeSet<Key>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Split into dictionary and triples (the dataset re-keys the triples
    /// and drops the dictionary).
    pub(crate) fn into_parts(self) -> (Interner, BTreeSet<Key>) {
        (self.interner, self.triples)
    }

    /// Look up a term's id without interning.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolve an id to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Insert a triple of concrete terms. Returns `true` if newly inserted.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.interner.intern(triple.subject.clone());
        let p = self.interner.intern(triple.predicate.clone());
        let o = self.interner.intern(triple.object.clone());
        self.triples.insert((s, p, o))
    }

    /// Iterate all triples as concrete [`Triple`]s, in SPO order of the
    /// builder's ids (allocates per triple; intended for serialization, not
    /// evaluation).
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        resolve_triples(&self.interner, self.triples.iter().copied())
    }
}

/// Id triples as concrete terms of `interner` — one body for the builder's
/// own dictionary and the dataset's.
pub(crate) fn resolve_triples<'a>(
    interner: &'a Interner,
    keys: impl Iterator<Item = Key> + 'a,
) -> impl Iterator<Item = Triple> + 'a {
    keys.map(move |(s, p, o)| {
        Triple::new(
            interner.resolve(s).clone(),
            interner.resolve(p).clone(),
            interner.resolve(o).clone(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use std::sync::Arc;

    const G: &str = "http://x/g";

    fn t(s: &str, p: &str, o: &str) -> Triple {
        let x = |n: &str| Term::iri(format!("http://x/{n}"));
        Triple::new(x(s), x(p), x(o))
    }

    fn sample() -> Vec<Triple> {
        vec![
            t("s1", "p1", "o1"),
            t("s2", "p1", "o1"),
            t("s1", "p1", "o2"),
            t("s2", "p2", "o3"),
        ]
    }

    /// The sample in both layouts a dataset graph can be built in:
    /// installed in one piece, and installed empty then appended in two
    /// batches (the second merging between the first's entries).
    fn layouts() -> [Dataset; 2] {
        let mut builder = Graph::new();
        for triple in sample() {
            builder.insert(&triple);
        }
        let mut installed = Dataset::new();
        installed.insert_graph(G, builder);
        let mut appended = Dataset::new();
        appended.insert_graph(G, Graph::new());
        let mut triples = sample();
        let second = triples.split_off(2);
        appended.append_triples(G, triples).unwrap();
        appended.append_triples(G, second).unwrap();
        [installed, appended]
    }

    /// The graph's index and a lookup of `http://x/{name}`.
    fn parts(ds: &Dataset) -> (&TripleIndex, impl Fn(&str) -> Option<TermId> + '_) {
        let lookup = |name: &str| ds.lookup(&Term::iri(format!("http://x/{name}")));
        (ds.graph(G).unwrap(), lookup)
    }

    #[test]
    fn resumable_scan_matches_uninterrupted_scan() {
        // Every boundness shape × both layouts × several suspension
        // strides: chaining suspended scans must visit the same triples in
        // the same order, with the same total visited count, as one
        // uninterrupted `for_each_match` pass.
        for ds in layouts() {
            let (g, id) = parts(&ds);
            for s in [None, id("s1")] {
                for p in [None, id("p1")] {
                    for o in [None, id("o1")] {
                        let mut full = Vec::new();
                        let full_n = g.for_each_match(s, p, o, |ms, mp, mo| {
                            full.push((ms, mp, mo));
                        });
                        for stride in [1usize, 2, 3, 100] {
                            let mut seen = Vec::new();
                            let mut total = 0u64;
                            let mut pos = None;
                            loop {
                                let mut left = stride;
                                let hint = &mut SeekHint::default();
                                let (n, next) =
                                    g.for_each_match_from(s, p, o, pos, hint, |a, b, c| {
                                        seen.push((a, b, c));
                                        left -= 1;
                                        left > 0
                                    });
                                total += n;
                                match next {
                                    Some(_) => pos = next,
                                    None => break,
                                }
                            }
                            assert_eq!(seen, full, "stride {stride} changed the visit order");
                            assert_eq!(total, full_n, "stride {stride} changed the work count");
                        }
                    }
                }
            }
        }
    }

    fn key(a: u32) -> Key {
        (TermId(a), MIN, MIN)
    }

    #[test]
    fn gallop_agrees_with_partition_point_at_the_edges() {
        let reference = |slab: &[Key], from: usize, pred: &dyn Fn(&Key) -> bool| {
            from + slab[from..].partition_point(pred)
        };
        let empty: Vec<Key> = Vec::new();
        assert_eq!(gallop(&empty, 0, |_| true), 0, "empty slab");
        assert_eq!(gallop(&empty, 0, |_| false), 0, "empty slab");
        let single = vec![key(5)];
        for pivot in [4, 5, 6] {
            let below = |k: &Key| *k < key(pivot);
            assert_eq!(gallop(&single, 0, below), reference(&single, 0, &below));
            assert_eq!(gallop(&single, 1, below), 1, "from == len");
        }
        for len in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let slab: Vec<Key> = (0..len as u32).map(|i| key(2 * i)).collect();
            for from in 0..=len {
                assert_eq!(gallop(&slab, from, |_| true), len, "true everywhere");
                assert_eq!(gallop(&slab, from, |_| false), from, "true nowhere");
                for pivot in 0..=2 * len as u32 + 1 {
                    let below = |k: &Key| *k < key(pivot);
                    assert_eq!(
                        gallop(&slab, from, below),
                        reference(&slab, from, &below),
                        "len {len}, from {from}, pivot {pivot}"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_or_foreign_hints_never_change_a_scan() {
        // A hint left by a later range, another ordering or another index
        // must fall back to the full search, never skip entries.
        for ds in layouts() {
            let (g, id) = parts(&ds);
            let ids: Vec<Option<TermId>> = ["s1", "s2", "p1", "p2", "o1", "o2", "o3"]
                .iter()
                .map(|n| id(n))
                .collect();
            let mut hint = SeekHint(Some(usize::MAX));
            for &s in ids.iter().rev().chain([&None]) {
                for &o in ids.iter().chain([&None]) {
                    let mut fresh = Vec::new();
                    let fresh_n = g.for_each_match(s, None, o, |a, b, c| fresh.push((a, b, c)));
                    let mut seen = Vec::new();
                    let (n, _) = g.for_each_match_from(s, None, o, None, &mut hint, |a, b, c| {
                        seen.push((a, b, c));
                        true
                    });
                    assert_eq!((seen, n), (fresh, fresh_n));
                }
            }
        }
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = Graph::new();
        assert!(g.insert(&t("a", "p", "b")));
        assert!(!g.insert(&t("a", "p", "b")));
        assert_eq!(g.len(), 1);
        let mut ds = Dataset::new();
        ds.insert_graph(G, g);
        let again = vec![t("a", "p", "b"), t("a", "p", "c"), t("a", "p", "c")];
        assert_eq!(ds.append_triples(G, again), Some(1));
        assert_eq!(ds.graph(G).unwrap().len(), 2);
    }

    #[test]
    fn all_eight_access_paths_agree() {
        for ds in layouts() {
            let (g, id) = parts(&ds);
            let (s1, p1, o1) = (id("s1"), id("p1"), id("o1"));
            assert_eq!(g.count_pattern(s1, p1, o1), 1);
            assert_eq!(g.count_pattern(s1, p1, None), 2);
            assert_eq!(g.count_pattern(s1, None, None), 2);
            assert_eq!(g.count_pattern(s1, None, o1), 1);
            assert_eq!(g.count_pattern(None, p1, o1), 2);
            assert_eq!(g.count_pattern(None, p1, None), 3);
            assert_eq!(g.count_pattern(None, None, o1), 2);
            assert_eq!(g.count_pattern(None, None, None), 4);
        }
    }

    #[test]
    fn for_each_match_agrees_with_match_pattern() {
        for ds in layouts() {
            let (g, id) = parts(&ds);
            for s in [None, id("s1")] {
                for p in [None, id("p1")] {
                    for o in [None, id("o1")] {
                        let via_iter: Vec<_> = g.match_pattern(s, p, o).collect();
                        let mut via_visit = Vec::new();
                        let n = g.for_each_match(s, p, o, |ms, mp, mo| {
                            via_visit.push((ms, mp, mo));
                        });
                        assert_eq!(via_iter, via_visit);
                        assert_eq!(n as usize, via_visit.len());
                        assert_eq!(g.count_pattern(s, p, o), via_visit.len());
                    }
                }
            }
        }
    }

    /// Half the graph installed whole (once called compacted), half
    /// appended: the append merges into every ordering in order.
    #[test]
    fn half_compacted_scans_merge_in_order() {
        let mut builder = Graph::new();
        builder.insert(&t("s1", "p1", "o1"));
        builder.insert(&t("s2", "p1", "o1"));
        let mut ds = Dataset::new();
        ds.insert_graph(G, builder);
        let before = Arc::clone(ds.graph(G).unwrap());
        // Lands before, between and after the installed entries of every
        // ordering, and repeats one of them.
        let batch = vec![
            t("s3", "p1", "o1"),
            t("s1", "p1", "o0"),
            t("s1", "p2", "o9"),
            t("s2", "p1", "o1"),
        ];
        assert_eq!(ds.append_triples(G, batch), Some(3));
        let g = ds.graph(G).unwrap();
        assert_eq!(g.len(), 5);
        for slab in [&g.spo, &g.pos, &g.osp] {
            assert!(slab.windows(2).all(|w| w[0] < w[1]), "{slab:?}");
            assert_eq!(slab.capacity(), slab.len(), "exact size");
        }
        // The merge builds what the one constructor builds over the same
        // ids, and leaves the index it started from as it was.
        assert_eq!(**g, TripleIndex::from_spo(g.iter_ids().collect()));
        assert_eq!(before.len(), 2);
    }

    #[test]
    fn scan_free_order_matches_actual_scan_order() {
        // For every bound-ness shape, the matches projected onto the
        // claimed free-position sequence must come out lexicographically
        // non-decreasing — pinning `scan_free_order` to `access_path`.
        for ds in layouts() {
            let (g, id) = parts(&ds);
            for s in [None, id("s1")] {
                for p in [None, id("p1")] {
                    for o in [None, id("o1")] {
                        let order =
                            TripleIndex::scan_free_order(s.is_some(), p.is_some(), o.is_some());
                        let keys: Vec<Vec<TermId>> = g
                            .match_pattern(s, p, o)
                            .map(|(ms, mp, mo)| {
                                let m = [ms, mp, mo];
                                order.iter().map(|&pos| m[pos]).collect()
                            })
                            .collect();
                        assert!(
                            keys.windows(2).all(|w| w[0] <= w[1]),
                            "scan order claim broken for shape ({}, {}, {})",
                            s.is_some(),
                            p.is_some(),
                            o.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_results_are_real_triples() {
        for ds in layouts() {
            let (g, id) = parts(&ds);
            let p1 = id("p1").unwrap();
            for (s, p, o) in g.match_pattern(None, Some(p1), None) {
                assert_eq!(p, p1);
                assert_eq!(g.count_pattern(Some(s), Some(p), Some(o)), 1);
            }
        }
    }

    #[test]
    fn stats_counts() {
        for ds in layouts() {
            let (g, id) = parts(&ds);
            let stats = g.stats();
            assert_eq!(stats.triples, 4);
            let st = &stats.predicates[&id("p1").unwrap()];
            assert_eq!(st.count, 3);
            assert_eq!(st.distinct_subjects, 2);
            assert_eq!(st.distinct_objects, 2);
        }
    }

    #[test]
    fn estimate_orders_selectivity() {
        let [ds, _] = layouts();
        let (g, id) = parts(&ds);
        let stats = g.stats();
        let unbound = stats.estimate(None, id("p1"), None);
        let bound_s = stats.estimate(id("s1"), id("p1"), None);
        assert!(bound_s < unbound);
        assert_eq!(stats.estimate(None, None, None), 4.0);
    }

    #[test]
    fn missing_predicate_estimates_zero() {
        let [ds, _] = layouts();
        let stats = parts(&ds).0.stats();
        assert_eq!(stats.estimate(None, Some(TermId(9999)), None), 0.0);
    }

    #[test]
    fn predicates_are_distinct_and_sorted() {
        for ds in layouts() {
            let preds: Vec<_> = parts(&ds).0.predicates().collect();
            assert_eq!(preds.len(), 2);
            let mut sorted = preds.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(preds, sorted);
        }
    }
}
