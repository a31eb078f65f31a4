//! Indexed triple store: frozen sorted slabs + a small mutable delta.
//!
//! Two types share this module:
//!
//! - [`TripleIndex`] — the id-only store: triples of [`TermId`]s in three
//!   orderings. It knows nothing about terms; whoever owns the dictionary
//!   the ids come from gives them meaning. A [`crate::Dataset`] keeps one
//!   per named graph, keyed by the dataset's own ids, so every graph's scans
//!   emit ascending *dataset* ids.
//! - [`Graph`] — a stand-alone builder: its own [`Interner`] plus a
//!   [`TripleIndex`] over that dictionary's ids (it derefs to the index, so
//!   every id-level method is written once). Generators, the N-Triples
//!   parser and tests fill one with [`Graph::insert`];
//!   [`crate::Dataset::insert_graph`] then re-keys the index into the
//!   dataset's id space and drops the builder's dictionary.
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
//! # Slab + delta layout
//!
//! Each ordering is split into two parts:
//!
//! - a **frozen slab**: a sorted `Vec<(TermId, TermId, TermId)>`. A range
//!   lookup locates its start, gallops to its end and walks contiguous
//!   memory — no pointer chasing, no tree nodes, and the prefetcher sees a
//!   plain array.
//! - a **delta buffer**: a `BTreeSet` in the same ordering holding triples
//!   inserted since the last compaction. Scans merge the slab slice with the
//!   delta range on the fly (both are sorted, so the merge is linear and
//!   preserves global index order).
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
//! iterator, count — locates its slab range through this one routine, and a
//! delta-resident ordering seeks its slab part the same way while its delta
//! part is a `BTreeSet` range. The hint changes how a range is found, never
//! what a scan visits.
//!
//! # Compaction contract
//!
//! The delta is only where appends wait for the next merge.
//! [`TripleIndex::compact`] drains it into the slabs (an `O(n)` two-way
//! merge per ordering), and an insert triggers that automatically once the
//! delta reaches [`TripleIndex::DELTA_THRESHOLD`] entries, so bulk loads
//! stay `O(n · n/threshold)` instead of `O(n²)`.
//! [`crate::Dataset::insert_graph`] compacts every builder it takes, so a
//! dataset graph's delta holds exactly the triples appended since its last
//! merge — fewer than the threshold. Compaction never
//! changes observable contents or scan order — `match_pattern`,
//! `for_each_match`, `iter_ids`, `len`, and `stats` return identical
//! results before and after (property-tested in `tests/proptest_model.rs`).
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
type Key = (TermId, TermId, TermId);

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

/// One index ordering: frozen sorted slab + sorted delta overlay.
#[derive(Debug, Default, Clone)]
struct Index {
    slab: Vec<Key>,
    delta: BTreeSet<Key>,
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

impl Index {
    /// The contiguous slab range whose entries fall in `[lo, hi]`, and the
    /// one range-location routine every scan shares. The start seeks
    /// forward from `hint` when the entry before the hinted position is
    /// below `lo` (so nothing at or above `lo` lies before it), and is one
    /// binary search otherwise; the end always gallops from the start, as
    /// a range holds a few entries. `hint` is left at the range's start.
    #[inline]
    fn slab_range(&self, lo: Key, hi: Key, hint: &mut SeekHint) -> &[Key] {
        let slab = &self.slab[..];
        let start = match hint.0 {
            Some(at) if at <= slab.len() && at.checked_sub(1).is_none_or(|b| slab[b] < lo) => {
                gallop(slab, at, |&t| t < lo)
            }
            _ => slab.partition_point(|&t| t < lo),
        };
        *hint = SeekHint(Some(start));
        &slab[start..gallop(slab, start, |&t| t <= hi)]
    }

    fn contains(&self, key: Key) -> bool {
        self.slab.binary_search(&key).is_ok() || self.delta.contains(&key)
    }

    /// Visit the entries in `[lo, hi]` in index order, merging the slab
    /// slice with the delta range (both sorted; entries are disjoint), until
    /// the visitor returns `false`. Returns the number of entries visited
    /// (the stopping entry counts — it was handed to `f`) plus the key the
    /// scan stopped *at*, or `None` when the range was exhausted. Resuming
    /// from the successor of the returned key visits every remaining entry
    /// exactly once, so the total visited across suspensions equals one
    /// uninterrupted pass.
    #[inline]
    fn for_each_in<F: FnMut(Key) -> bool>(
        &self,
        lo: Key,
        hi: Key,
        hint: &mut SeekHint,
        mut f: F,
    ) -> (u64, Option<Key>) {
        if self.delta.is_empty() {
            // Fast path: pure contiguous scan.
            let slab = self.slab_range(lo, hi, hint);
            for (i, &k) in slab.iter().enumerate() {
                if !f(k) {
                    return (i as u64 + 1, Some(k));
                }
            }
            return (slab.len() as u64, None);
        }
        // One canonical merge: the visitor path drives the same iterator
        // `match_pattern` exposes, so the tie-break can never diverge.
        let mut n = 0;
        for k in self.range_iter(lo, hi, hint) {
            n += 1;
            if !f(k) {
                return (n, Some(k));
            }
        }
        (n, None)
    }

    /// Iterator form of [`Index::for_each_in`] (allocation is confined to
    /// the boxed iterator the caller already pays for).
    fn range_iter(&self, lo: Key, hi: Key, hint: &mut SeekHint) -> MergeIter<'_> {
        MergeIter {
            slab: self.slab_range(lo, hi, hint).iter(),
            slab_peek: None,
            delta: self.delta.range(lo..=hi),
            delta_peek: None,
        }
    }

    /// Merge the delta into the slab (two-way merge from the back, in
    /// place). Afterwards the delta is empty.
    fn compact(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let add: Vec<Key> = std::mem::take(&mut self.delta).into_iter().collect();
        if self.slab.last().is_none_or(|&last| last < add[0]) {
            // Append-only pattern (monotone ids during bulk load).
            self.slab.extend(add);
            return;
        }
        let old_len = self.slab.len();
        self.slab.resize(old_len + add.len(), (MIN, MIN, MIN));
        let mut write = self.slab.len();
        let mut read = old_len;
        let mut extra = add.len();
        // Entries are disjoint (inserts check contains first), so a strict
        // comparison is enough.
        while extra > 0 {
            write -= 1;
            if read > 0 && self.slab[read - 1] > add[extra - 1] {
                read -= 1;
                self.slab[write] = self.slab[read];
            } else {
                extra -= 1;
                self.slab[write] = add[extra];
            }
        }
    }

    fn len(&self) -> usize {
        self.slab.len() + self.delta.len()
    }
}

/// Sorted two-way merge over a slab slice and a delta range.
struct MergeIter<'a> {
    slab: std::slice::Iter<'a, Key>,
    slab_peek: Option<Key>,
    delta: std::collections::btree_set::Range<'a, Key>,
    delta_peek: Option<Key>,
}

impl Iterator for MergeIter<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        if self.slab_peek.is_none() {
            self.slab_peek = self.slab.next().copied();
        }
        if self.delta_peek.is_none() {
            self.delta_peek = self.delta.next().copied();
        }
        match (self.slab_peek, self.delta_peek) {
            (Some(a), Some(b)) => {
                if a <= b {
                    self.slab_peek = None;
                    Some(a)
                } else {
                    self.delta_peek = None;
                    Some(b)
                }
            }
            (Some(a), None) => {
                self.slab_peek = None;
                Some(a)
            }
            (None, Some(b)) => {
                self.delta_peek = None;
                Some(b)
            }
            (None, None) => None,
        }
    }
}

/// The id-only triple store: three slab + delta orderings over [`TermId`]s
/// from a dictionary it does not own. See the module docs for the storage
/// design and the compaction contract.
#[derive(Debug, Clone, Default)]
pub struct TripleIndex {
    spo: Index,
    pos: Index,
    osp: Index,
}

impl TripleIndex {
    /// Delta size at which an insert triggers automatic compaction.
    pub const DELTA_THRESHOLD: usize = 8192;

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the index holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.len() == 0
    }

    /// Number of triples currently in the mutable delta (0 right after
    /// [`TripleIndex::compact`]).
    pub fn delta_len(&self) -> usize {
        self.spo.delta.len()
    }

    /// Read-only view of the frozen SPO slab — the exact sorted array the
    /// persistence layer serializes block-by-block (and a future pager maps).
    pub fn spo_slab(&self) -> &[(TermId, TermId, TermId)] {
        &self.spo.slab
    }

    /// Iterate the delta-resident triples in SPO order (disjoint from
    /// [`TripleIndex::spo_slab`]; slab ∪ delta is the full index).
    pub fn delta_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.spo.delta.iter().copied()
    }

    /// The frozen POS slab (persistence internals and layout checks).
    pub fn pos_slab(&self) -> &[(TermId, TermId, TermId)] {
        &self.pos.slab
    }

    /// The frozen OSP slab (persistence internals and layout checks).
    pub fn osp_slab(&self) -> &[(TermId, TermId, TermId)] {
        &self.osp.slab
    }

    /// Reassemble an index from persisted parts without triggering any
    /// compaction: the three slabs are installed as-is and the SPO-order
    /// delta is replicated into POS/OSP order by permutation. The caller
    /// (the snapshot decoder) is responsible for slab sortedness and
    /// slab/delta disjointness — both are verified during decode before
    /// this runs.
    pub(crate) fn from_parts(
        spo_slab: Vec<Key>,
        pos_slab: Vec<Key>,
        osp_slab: Vec<Key>,
        spo_delta: Vec<Key>,
    ) -> TripleIndex {
        let pos_delta: BTreeSet<Key> = spo_delta.iter().map(|&(s, p, o)| (p, o, s)).collect();
        let osp_delta: BTreeSet<Key> = spo_delta.iter().map(|&(s, p, o)| (o, s, p)).collect();
        TripleIndex {
            spo: Index {
                slab: spo_slab,
                delta: spo_delta.into_iter().collect(),
            },
            pos: Index {
                slab: pos_slab,
                delta: pos_delta,
            },
            osp: Index {
                slab: osp_slab,
                delta: osp_delta,
            },
        }
    }

    /// Move a compacted index into another id space: every id `i` becomes
    /// `map[i.index()]` and the slabs are re-sorted in place. `map` must be
    /// injective and cover every id the index holds.
    pub(crate) fn rekey(&mut self, map: &[TermId]) {
        debug_assert_eq!(self.delta_len(), 0, "rekey runs on a compacted index");
        for index in [&mut self.spo, &mut self.pos, &mut self.osp] {
            for (a, b, c) in &mut index.slab {
                (*a, *b, *c) = (map[a.index()], map[b.index()], map[c.index()]);
            }
            index.slab.sort_unstable();
        }
    }

    /// Insert a triple of already-interned ids. Returns `true` if new.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if self.spo.contains((s, p, o)) {
            return false;
        }
        self.spo.delta.insert((s, p, o));
        self.pos.delta.insert((p, o, s));
        self.osp.delta.insert((o, s, p));
        if self.spo.delta.len() >= Self::DELTA_THRESHOLD {
            self.compact();
        }
        true
    }

    /// Merge the delta buffers into the frozen slabs. Idempotent; see the
    /// module docs for the full contract.
    pub fn compact(&mut self) {
        if self.spo.delta.is_empty() {
            // The three deltas mirror each other; nothing to merge.
            return;
        }
        self.spo.compact();
        self.pos.compact();
        self.osp.compact();
    }

    /// Index, bounds, and match→(s,p,o) projection for a pattern shape.
    #[inline]
    fn access_path(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> (&Index, Key, Key, fn(Key) -> Key) {
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
        let (index, lo, hi, project) = self.access_path(s, p, o);
        Box::new(
            index
                .range_iter(lo, hi, &mut SeekHint::default())
                .map(project),
        )
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
        let (index, lo, hi, project) = self.access_path(s, p, o);
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
        let (visited, stopped) = index.for_each_in(lo, hi, hint, |k| {
            let (s, p, o) = project(k);
            f(s, p, o)
        });
        (visited, stopped.map(ScanPos))
    }

    /// Exact (not estimated) number of matches for a pattern.
    pub fn count_pattern(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        let (index, lo, hi, _) = self.access_path(s, p, o);
        let slab = index.slab_range(lo, hi, &mut SeekHint::default()).len();
        if index.delta.is_empty() {
            slab
        } else {
            slab + index.delta.range(lo..=hi).count()
        }
    }

    /// Iterate all triples as id tuples in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.spo
            .range_iter((MIN, MIN, MIN), (MAX, MAX, MAX), &mut SeekHint::default())
    }

    /// Build a statistics snapshot for the optimizer in two sequential
    /// passes that never collect a set: POS order delivers each distinct
    /// (predicate, object) pair as one run, SPO order each distinct
    /// (subject, predicate) pair.
    pub fn stats(&self) -> GraphStats {
        let all = |index: &Index, f: &mut dyn FnMut(Key)| {
            index.for_each_in(
                (MIN, MIN, MIN),
                (MAX, MAX, MAX),
                &mut SeekHint::default(),
                |k| {
                    f(k);
                    true
                },
            );
        };
        let mut predicates: FxHashMap<TermId, PredicateStats> = FxHashMap::default();
        let mut run = None;
        all(&self.pos, &mut |(p, o, _)| {
            let st = predicates.entry(p).or_default();
            st.count += 1;
            if run != Some((p, o)) {
                run = Some((p, o));
                st.distinct_objects += 1;
            }
        });
        let mut run = None;
        all(&self.spo, &mut |(s, p, _)| {
            if run != Some((s, p)) {
                run = Some((s, p));
                predicates.entry(p).or_default().distinct_subjects += 1;
            }
        });
        GraphStats {
            triples: self.len(),
            predicates: predicates.into_iter().collect(),
        }
    }

    /// Distinct predicates in the index, ascending.
    pub fn predicates(&self) -> impl Iterator<Item = TermId> + '_ {
        let mut last: Option<TermId> = None;
        self.pos
            .range_iter((MIN, MIN, MIN), (MAX, MAX, MAX), &mut SeekHint::default())
            .filter_map(move |(p, _, _)| {
                if last == Some(p) {
                    None
                } else {
                    last = Some(p);
                    Some(p)
                }
            })
    }
}

/// A stand-alone RDF graph: a term dictionary plus a [`TripleIndex`] over
/// its ids — the builder generators, parsers and tests fill before handing
/// it to a [`crate::Dataset`]. Derefs to the index for every id-level
/// method (`len`, `compact`, `match_pattern`, …).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    interner: Interner,
    index: TripleIndex,
}

impl std::ops::Deref for Graph {
    type Target = TripleIndex;

    fn deref(&self) -> &TripleIndex {
        &self.index
    }
}

impl std::ops::DerefMut for Graph {
    fn deref_mut(&mut self) -> &mut TripleIndex {
        &mut self.index
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split into dictionary and index (the dataset re-keys the index and
    /// drops the dictionary).
    pub(crate) fn into_parts(self) -> (Interner, TripleIndex) {
        (self.interner, self.index)
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
        self.index.insert_ids(s, p, o)
    }

    /// Iterate all triples as concrete [`Triple`]s (allocates per triple;
    /// intended for serialization, not evaluation).
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        resolve_triples(&self.interner, &self.index)
    }
}

/// Every triple of `index` as concrete terms of `interner`, in SPO order —
/// one body for the builder's own dictionary and the dataset's.
pub(crate) fn resolve_triples<'a>(
    interner: &'a Interner,
    index: &'a TripleIndex,
) -> impl Iterator<Item = Triple> + 'a {
    index.iter_ids().map(move |(s, p, o)| {
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

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(&t("http://x/s1", "http://x/p1", "http://x/o1"));
        g.insert(&t("http://x/s1", "http://x/p1", "http://x/o2"));
        g.insert(&t("http://x/s2", "http://x/p1", "http://x/o1"));
        g.insert(&t("http://x/s2", "http://x/p2", "http://x/o3"));
        g
    }

    /// Same contents as [`sample`] but compacted midway, so half the
    /// triples live in the slab and half in the delta (scans must merge).
    fn sample_half_compacted() -> Graph {
        let mut g = Graph::new();
        g.insert(&t("http://x/s1", "http://x/p1", "http://x/o1"));
        g.insert(&t("http://x/s2", "http://x/p1", "http://x/o1"));
        g.compact();
        g.insert(&t("http://x/s1", "http://x/p1", "http://x/o2"));
        g.insert(&t("http://x/s2", "http://x/p2", "http://x/o3"));
        assert_eq!(g.delta_len(), 2);
        g
    }

    /// Same contents as [`sample`] but fully compacted (pure slab scans).
    fn sample_compacted() -> Graph {
        let mut g = sample();
        g.compact();
        g
    }

    #[test]
    fn resumable_scan_matches_uninterrupted_scan() {
        // Every boundness shape × every storage layout × several suspension
        // strides: chaining suspended scans must visit the same triples in
        // the same order, with the same total visited count, as one
        // uninterrupted `for_each_match` pass.
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let s1 = g.term_id(&Term::iri("http://x/s1"));
            let p1 = g.term_id(&Term::iri("http://x/p1"));
            let o1 = g.term_id(&Term::iri("http://x/o1"));
            for s in [None, s1] {
                for p in [None, p1] {
                    for o in [None, o1] {
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
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let ids: Vec<Option<TermId>> = ["s1", "s2", "p1", "p2", "o1", "o2", "o3"]
                .iter()
                .map(|n| g.term_id(&Term::iri(format!("http://x/{n}"))))
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
        assert!(g.insert(&t("http://x/a", "http://x/p", "http://x/b")));
        assert!(!g.insert(&t("http://x/a", "http://x/p", "http://x/b")));
        assert_eq!(g.len(), 1);
        g.compact();
        assert!(!g.insert(&t("http://x/a", "http://x/p", "http://x/b")));
        assert_eq!(g.len(), 1);
        assert_eq!(g.delta_len(), 0);
    }

    #[test]
    fn all_eight_access_paths_agree() {
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let s1 = g.term_id(&Term::iri("http://x/s1")).unwrap();
            let p1 = g.term_id(&Term::iri("http://x/p1")).unwrap();
            let o1 = g.term_id(&Term::iri("http://x/o1")).unwrap();
            assert_eq!(g.count_pattern(Some(s1), Some(p1), Some(o1)), 1);
            assert_eq!(g.count_pattern(Some(s1), Some(p1), None), 2);
            assert_eq!(g.count_pattern(Some(s1), None, None), 2);
            assert_eq!(g.count_pattern(Some(s1), None, Some(o1)), 1);
            assert_eq!(g.count_pattern(None, Some(p1), Some(o1)), 2);
            assert_eq!(g.count_pattern(None, Some(p1), None), 3);
            assert_eq!(g.count_pattern(None, None, Some(o1)), 2);
            assert_eq!(g.count_pattern(None, None, None), 4);
        }
    }

    #[test]
    fn for_each_match_agrees_with_match_pattern() {
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let s1 = g.term_id(&Term::iri("http://x/s1"));
            let p1 = g.term_id(&Term::iri("http://x/p1"));
            let o1 = g.term_id(&Term::iri("http://x/o1"));
            for s in [None, s1] {
                for p in [None, p1] {
                    for o in [None, o1] {
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

    #[test]
    fn half_compacted_scans_merge_in_order() {
        let mut g = Graph::new();
        g.insert(&t("http://x/s1", "http://x/p1", "http://x/o1"));
        g.insert(&t("http://x/s2", "http://x/p1", "http://x/o1"));
        g.compact();
        // Interleaves before, between, and after the slab entries.
        g.insert(&t("http://x/s1", "http://x/p1", "http://x/o0"));
        g.insert(&t("http://x/s1", "http://x/p2", "http://x/o9"));
        g.insert(&t("http://x/s3", "http://x/p1", "http://x/o1"));
        assert_eq!(g.delta_len(), 3);
        let all: Vec<_> = g.iter_ids().collect();
        assert_eq!(all.len(), 5);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted, "merged scan must be in SPO order");
        let mut compacted = g.clone();
        compacted.compact();
        assert_eq!(compacted.delta_len(), 0);
        let after: Vec<_> = compacted.iter_ids().collect();
        assert_eq!(all, after, "compaction must not change contents");
    }

    #[test]
    fn auto_compaction_at_threshold() {
        let n = TripleIndex::DELTA_THRESHOLD + 10;
        let mut g = Graph::new();
        for i in 0..n {
            g.insert(&t(&format!("http://x/s{i}"), "http://x/p", "http://x/o"));
            if i + 1 == TripleIndex::DELTA_THRESHOLD {
                assert_eq!(g.delta_len(), 0, "the insert reaching the threshold merges");
            }
        }
        assert_eq!(g.len(), n);
        assert_eq!(g.delta_len(), 10, "only the inserts since the merge wait");
        assert_eq!(g.spo_slab().len(), TripleIndex::DELTA_THRESHOLD);
        assert_eq!(g.count_pattern(None, None, None), n);
    }

    #[test]
    fn scan_free_order_matches_actual_scan_order() {
        // For every bound-ness shape, the matches projected onto the
        // claimed free-position sequence must come out lexicographically
        // non-decreasing — pinning `scan_free_order` to `access_path`.
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let s1 = g.term_id(&Term::iri("http://x/s1"));
            let p1 = g.term_id(&Term::iri("http://x/p1"));
            let o1 = g.term_id(&Term::iri("http://x/o1"));
            for s in [None, s1] {
                for p in [None, p1] {
                    for o in [None, o1] {
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
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let p1 = g.term_id(&Term::iri("http://x/p1")).unwrap();
            for (s, p, o) in g.match_pattern(None, Some(p1), None) {
                assert_eq!(p, p1);
                assert_eq!(g.count_pattern(Some(s), Some(p), Some(o)), 1);
            }
        }
    }

    #[test]
    fn stats_counts() {
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let stats = g.stats();
            assert_eq!(stats.triples, 4);
            let p1 = g.term_id(&Term::iri("http://x/p1")).unwrap();
            let st = &stats.predicates[&p1];
            assert_eq!(st.count, 3);
            assert_eq!(st.distinct_subjects, 2);
            assert_eq!(st.distinct_objects, 2);
        }
    }

    #[test]
    fn estimate_orders_selectivity() {
        let g = sample();
        let stats = g.stats();
        let p1 = g.term_id(&Term::iri("http://x/p1")).unwrap();
        let s1 = g.term_id(&Term::iri("http://x/s1")).unwrap();
        let unbound = stats.estimate(None, Some(p1), None);
        let bound_s = stats.estimate(Some(s1), Some(p1), None);
        assert!(bound_s < unbound);
        assert_eq!(stats.estimate(None, None, None), 4.0);
    }

    #[test]
    fn missing_predicate_estimates_zero() {
        let g = sample();
        let stats = g.stats();
        assert_eq!(stats.estimate(None, Some(TermId(9999)), None), 0.0);
    }

    #[test]
    fn predicates_are_distinct_and_sorted() {
        for g in [sample(), sample_compacted(), sample_half_compacted()] {
            let preds: Vec<_> = g.predicates().collect();
            assert_eq!(preds.len(), 2);
            let mut sorted = preds.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(preds, sorted);
        }
    }
}
