//! Presence-aware hash-join index, and the one probe loop behind every join
//! the [`super::pipeline`] join operator runs — by hash or by merge, one
//! window of output at a time or its whole input at once.
//!
//! SPARQL joins on *compatibility*: a shared variable constrains a pair only
//! when both rows bind it. So the hash key of a pair is not a property of the
//! join but of the two rows — the shared variables bound on *both* sides.
//! The index groups the build rows by their presence mask `R` over the
//! shared variables; a probe row with mask `L` looks each group up in a
//! table keyed on the variables in `L ∩ R` (built lazily, once per
//! `(group, key set)` actually probed) — the whole group, one chain, only
//! when `L ∩ R` is empty and every one of its rows is compatible anyway.
//! Per probe row the groups' candidates are merged into ascending build-row
//! order, so the pair list is exactly the one a nested loop over
//! [`JoinShape::compatible`] emits.
//!
//! When every shared column is fully bound on both sides there is one group,
//! one table over all shared variables, no per-row mask work and no merge:
//! a plain multi-key hash join.

use std::hash::Hasher;
use std::ops::Range;

use rdf_model::hash::{FxHashMap, FxHasher};
use rdf_model::TermId;

use super::{JoinKind, JoinShape, NO_MATCH};
use crate::budget::BudgetMeter;
use crate::error::Result;
use crate::results::IdTable;

/// Presence masks are one `u64`: a join sharing more variables than this
/// keys on the first 64 and leaves the rest to [`JoinShape::compatible`].
const MAX_KEY_VARS: usize = 64;

/// Chain terminator in [`Table::next`].
const END: u32 = u32::MAX;

/// Per-row presence masks over the (first 64) shared variables of one join
/// input. Fully-bound columns cost one bitmap popcount for the whole input;
/// only the others are read per row.
pub(super) struct RowMasks {
    fixed: u64,
    /// `(mask bit, column)` of every shared column with an unbound slot.
    varying: Vec<(u64, usize)>,
}

impl RowMasks {
    fn of(t: &IdTable, shared_cols: &[usize]) -> Self {
        let mut masks = RowMasks {
            fixed: 0,
            varying: Vec::new(),
        };
        for (k, &c) in shared_cols.iter().take(MAX_KEY_VARS).enumerate() {
            if t.col(c).all_present() {
                masks.fixed |= 1 << k;
            } else {
                masks.varying.push((1 << k, c));
            }
        }
        masks
    }

    #[inline]
    fn mask(&self, t: &IdTable, row: usize) -> u64 {
        self.varying.iter().fold(self.fixed, |m, &(bit, c)| {
            m | if t.col(c).is_present(row) { bit } else { 0 }
        })
    }
}

/// Hash key of `row` over the shared-variable positions `key`: the id
/// itself, two ids packed, or a 64-bit mix of three and more (a mix can
/// collide; `compatible()` runs on every candidate regardless).
#[inline]
fn hash_key(t: &IdTable, shared_cols: &[usize], key: &[usize], row: usize) -> u64 {
    let ids = key.iter().map(|&k| t.col(shared_cols[k]).ids()[row].0);
    if key.len() <= 2 {
        ids.fold(0, |h, id| h << 32 | id as u64)
    } else {
        let mut h = FxHasher::default();
        ids.for_each(|id| h.write_u32(id));
        h.finish()
    }
}

/// The build rows sharing one presence mask, in ascending row order.
struct Group {
    mask: u64,
    rows: Vec<u32>,
}

/// One group hashed on one key set, as chains through `next`: no per-key
/// allocation, and a chain walks its rows in ascending order.
struct Table {
    group: usize,
    key_mask: u64,
    /// The set bits of `key_mask`: positions within the shared variables.
    key: Vec<usize>,
    /// Key hash → first position in the group's `rows` carrying it.
    heads: FxHashMap<u64, u32>,
    /// Position → next position with the same key hash, or [`END`].
    next: Vec<u32>,
}

/// The index over a join's build (right) side. Built once, extended only by
/// [`JoinIndex::prepare`]; probing is read-only.
pub(super) struct JoinIndex {
    groups: Vec<Group>,
    tables: Vec<Table>,
    /// Probe-row presence mask → the table to look each group up in.
    plans: FxHashMap<u64, Vec<usize>>,
}

impl JoinIndex {
    /// Group the build rows by presence mask (one group, no per-row work,
    /// when every shared column is fully bound).
    pub(super) fn new(right: &IdTable, shape: &JoinShape) -> Self {
        let masks = RowMasks::of(right, &shape.r_idx);
        let mut groups: Vec<Group> = Vec::new();
        let mut by_mask: FxHashMap<u64, usize> = FxHashMap::default();
        let mut cur = usize::MAX;
        for ri in 0..right.len() {
            let mask = masks.mask(right, ri);
            if groups.get(cur).is_none_or(|g| g.mask != mask) {
                cur = *by_mask.entry(mask).or_insert_with(|| {
                    groups.push(Group {
                        mask,
                        rows: Vec::new(),
                    });
                    groups.len() - 1
                });
            }
            groups[cur].rows.push(ri as u32);
        }
        JoinIndex {
            groups,
            tables: Vec::new(),
            plans: FxHashMap::default(),
        }
    }

    /// Make the index answer every row of `left` (a whole probe input or
    /// one batch of it): build the tables its presence masks need and do
    /// not have yet. Returns the masks for [`JoinIndex::candidates`].
    pub(super) fn prepare(
        &mut self,
        left: &IdTable,
        right: &IdTable,
        shape: &JoinShape,
    ) -> RowMasks {
        let masks = RowMasks::of(left, &shape.l_idx);
        // Without a varying column every row has the one fixed mask.
        let rows = if masks.varying.is_empty() {
            left.len().min(1)
        } else {
            left.len()
        };
        let mut last = None;
        for li in 0..rows {
            let mask = masks.mask(left, li);
            if last != Some(mask) && !self.plans.contains_key(&mask) {
                let plan = (0..self.groups.len())
                    .map(|g| self.table_for(g, mask, right, &shape.r_idx))
                    .collect();
                self.plans.insert(mask, plan);
            }
            last = Some(mask);
        }
        masks
    }

    /// The table over group `g` keyed on what it shares with probe rows of
    /// `mask`, built on first use. An empty key chains the whole group.
    fn table_for(&mut self, g: usize, mask: u64, right: &IdTable, r_idx: &[usize]) -> usize {
        let key_mask = mask & self.groups[g].mask;
        let built = |t: &Table| t.group == g && t.key_mask == key_mask;
        if let Some(t) = self.tables.iter().position(built) {
            return t;
        }
        let rows = &self.groups[g].rows;
        let key: Vec<usize> = (0..MAX_KEY_VARS)
            .filter(|k| key_mask >> k & 1 == 1)
            .collect();
        let mut heads = FxHashMap::default();
        let mut next = vec![END; rows.len()];
        // Back to front, so each chain ends up ascending from its head.
        for pos in (0..rows.len()).rev() {
            let h = hash_key(right, r_idx, &key, rows[pos] as usize);
            if let Some(later) = heads.insert(h, pos as u32) {
                next[pos] = later;
            }
        }
        self.tables.push(Table {
            group: g,
            key_mask,
            key,
            heads,
            next,
        });
        self.tables.len() - 1
    }

    /// Estimated heap bytes: group row lists, chain vectors and hash-table
    /// slots (key + head + control byte). What the memory budget is charged
    /// and `JoinOp::live_size` reports.
    pub(super) fn estimated_bytes(&self) -> u64 {
        let groups: u64 = self.groups.iter().map(|g| g.rows.len() as u64 * 4).sum();
        let tables: u64 = self
            .tables
            .iter()
            .map(|t| t.next.len() as u64 * 4 + t.heads.capacity() as u64 * 17)
            .sum();
        groups.saturating_add(tables)
    }

    /// The candidate source for probing `left` (whose `masks` came from
    /// [`JoinIndex::prepare`]): per probe row, every group's candidates
    /// merged into ascending build-row order.
    pub(super) fn candidates<'a>(
        &'a self,
        masks: &'a RowMasks,
        left: &'a IdTable,
        l_idx: &'a [usize],
    ) -> impl FnMut(usize, &mut Vec<u32>) + 'a {
        let mut plan: (Option<u64>, &[usize]) = (None, &[]);
        move |li, found| {
            let mask = masks.mask(left, li);
            if plan.0 != Some(mask) {
                let tables = self.plans.get(&mask).expect("prepare() saw this row");
                plan = (Some(mask), tables);
            }
            for &t in plan.1 {
                let t = &self.tables[t];
                let rows = &self.groups[t.group].rows;
                let h = hash_key(left, l_idx, &t.key, li);
                let mut pos = t.heads.get(&h).copied().unwrap_or(END);
                while pos != END {
                    found.push(rows[pos as usize]);
                    pos = t.next[pos as usize];
                }
            }
            if plan.1.len() > 1 {
                // Groups partition the build rows: merging their ascending
                // candidate lists is a sort without duplicates.
                found.sort_unstable();
            }
        }
    }
}

/// The candidate source of a merge join: the run of the right key column
/// (sorted, fully bound — verified by the caller, as for the left one) equal
/// to the left row's key. `run` marks where that run starts; both sides
/// ascend, so it only ever moves forward, across rows and batches alike.
pub(super) fn merge_candidates<'a>(
    lk: &'a [TermId],
    rk: &'a [TermId],
    run: &'a mut usize,
) -> impl FnMut(usize, &mut Vec<u32>) + 'a {
    move |li, found| {
        let key = lk[li];
        while *run < rk.len() && rk[*run] < key {
            *run += 1;
        }
        found.extend(
            (*run..rk.len())
                .take_while(|&ri| rk[ri] == key)
                .map(|ri| ri as u32),
        );
    }
}

/// The two inputs of one join (or one left batch of it and the build side).
pub(super) struct Sides<'a> {
    pub(super) shape: &'a JoinShape,
    pub(super) left: &'a IdTable,
    pub(super) right: &'a IdTable,
    pub(super) kind: JoinKind,
}

impl Sides<'_> {
    /// The one probe loop behind every join. Probes left rows from
    /// `rows.start` until `target` pairs are pending or `rows` is
    /// exhausted; `candidates(li, found)` offers left row `li` its build
    /// rows in ascending order and [`JoinShape::compatible`] decides.
    /// Appends to `pairs` in join order — left rows in input order, each
    /// one's compatible build rows ascending, a [`NO_MATCH`] marker for an
    /// unmatched row of a left join — and checks the pair list against the
    /// budget between left rows (overshoot bounded by one left row's
    /// candidates). Returns the next unprobed left row and the number of
    /// candidates tested.
    pub(super) fn probe(
        &self,
        rows: Range<usize>,
        target: usize,
        pairs: &mut Vec<(u32, u32)>,
        meter: &mut BudgetMeter,
        mut candidates: impl FnMut(usize, &mut Vec<u32>),
    ) -> Result<(usize, u64)> {
        let (shape, left, right) = (self.shape, self.left, self.right);
        let mut li = rows.start;
        let mut tested = 0u64;
        let mut found: Vec<u32> = Vec::new();
        while li < rows.end && pairs.len() < target {
            found.clear();
            candidates(li, &mut found);
            tested += found.len() as u64;
            let before = pairs.len();
            for &ri in &found {
                if shape.compatible(left, right, li, ri as usize) {
                    pairs.push((li as u32, ri));
                }
            }
            if pairs.len() == before && self.kind == JoinKind::Left {
                pairs.push((li as u32, NO_MATCH));
            }
            meter.charge_intermediate(pairs.len() as u64, pairs.len() as u64 * 8)?;
            li += 1;
        }
        Ok((li, tested))
    }
}

#[cfg(test)]
pub(super) mod tests {
    use proptest::prelude::*;

    use super::*;

    /// One join input: the first `shared` cells of each row become the
    /// columns `s0..` (named alike on both sides; cell 0 = unbound, `v` =
    /// `TermId(v)`), plus a side-private column numbering the rows.
    pub(in crate::eval) fn table(side: char, shared: usize, rows: &[Vec<u8>]) -> IdTable {
        let mut vars: Vec<String> = (0..shared).map(|k| format!("s{k}")).collect();
        vars.push(format!("{side}_row"));
        let mut t = IdTable::with_vars(vars);
        for (i, row) in rows.iter().enumerate() {
            let mut cells: Vec<Option<TermId>> = row[..shared]
                .iter()
                .map(|&v| (v != 0).then_some(TermId(v as u32)))
                .collect();
            cells.push(Some(TermId(1000 + i as u32)));
            t.push_row(&cells);
        }
        t
    }

    /// Rows of five cells over a tiny id domain: about a fifth unbound, and
    /// duplicates and matches everywhere.
    pub(in crate::eval) fn rows_strategy(
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(0u8..5, 5), len)
    }

    /// The definition of the join: every pair, in order, through
    /// `compatible()`.
    pub(in crate::eval) fn nested_loop_pairs(
        left: &IdTable,
        right: &IdTable,
        kind: JoinKind,
    ) -> Vec<(u32, u32)> {
        let shape = JoinShape::new(&left.vars, &right.vars);
        let mut pairs = Vec::new();
        for li in 0..left.len() {
            let before = pairs.len();
            for ri in 0..right.len() {
                if shape.compatible(left, right, li, ri) {
                    pairs.push((li as u32, ri as u32));
                }
            }
            if pairs.len() == before && kind == JoinKind::Left {
                pairs.push((li as u32, NO_MATCH));
            }
        }
        pairs
    }

    /// Probe all of `left` in windows of `target` pending pairs; returns the
    /// pair list and the candidates tested.
    fn index_pairs(
        left: &IdTable,
        right: &IdTable,
        kind: JoinKind,
        target: usize,
    ) -> (Vec<(u32, u32)>, u64) {
        let shape = JoinShape::new(&left.vars, &right.vars);
        let mut index = JoinIndex::new(right, &shape);
        let masks = index.prepare(left, right, &shape);
        let sides = Sides {
            shape: &shape,
            left,
            right,
            kind,
        };
        let (mut all, mut tested, mut next) = (Vec::new(), 0, 0);
        while next < left.len() {
            let mut window = Vec::new();
            let (n, t) = sides
                .probe(
                    next..left.len(),
                    target,
                    &mut window,
                    &mut BudgetMeter::unlimited(),
                    index.candidates(&masks, left, &shape.l_idx),
                )
                .unwrap();
            all.append(&mut window);
            (next, tested) = (n, tested + t);
        }
        (all, tested)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn pair_list_is_the_nested_loop_pair_list(
            shared in 1usize..6,
            left_rows in rows_strategy(0..40),
            right_rows in rows_strategy(0..40),
            target in 1usize..20,
        ) {
            let left = table('l', shared, &left_rows);
            let right = table('r', shared, &right_rows);
            for kind in [JoinKind::Inner, JoinKind::Left] {
                let expected = nested_loop_pairs(&left, &right, kind);
                let (whole, tested) = index_pairs(&left, &right, kind, usize::MAX);
                prop_assert_eq!(&whole, &expected, "{:?}", kind);
                // Windowed probing (the streaming operator's use) cuts the
                // same list and tests the same candidates.
                let (windowed, tested_w) = index_pairs(&left, &right, kind, target);
                prop_assert_eq!(&windowed, &expected, "{:?} target {}", kind, target);
                prop_assert_eq!(tested, tested_w);
                // Every match was a candidate; an unbound-free input tests
                // nothing but matches (ids pack exactly up to two keys).
                let matches = expected.iter().filter(|p| p.1 != NO_MATCH).count() as u64;
                prop_assert!(tested >= matches);
            }
        }
    }

    #[test]
    fn fully_bound_two_key_join_tests_only_matches() {
        let rows: Vec<Vec<u8>> = (0..30u8)
            .map(|i| vec![1 + i % 3, 1 + i % 4, 0, 0, 0])
            .collect();
        let (left, right) = (table('l', 2, &rows), table('r', 2, &rows));
        let (pairs, tested) = index_pairs(&left, &right, JoinKind::Inner, usize::MAX);
        assert_eq!(pairs, nested_loop_pairs(&left, &right, JoinKind::Inner));
        assert_eq!(tested, pairs.len() as u64);
    }

    #[test]
    fn partially_bound_build_rows_are_keyed_on_all_they_bind() {
        // s0 is bound everywhere and always 1; s1 is what tells rows apart
        // and is unbound in every third build row. Keying on s0 alone would
        // test all 60 × 60 pairs.
        let left_rows: Vec<Vec<u8>> = (0..60u8).map(|i| vec![1, 1 + i % 4, 0, 0, 0]).collect();
        let right_rows: Vec<Vec<u8>> = (0..60u8)
            .map(|i| vec![1, if i % 3 == 0 { 0 } else { 1 + i % 4 }, 0, 0, 0])
            .collect();
        let (left, right) = (table('l', 2, &left_rows), table('r', 2, &right_rows));
        let (pairs, tested) = index_pairs(&left, &right, JoinKind::Inner, usize::MAX);
        assert_eq!(pairs, nested_loop_pairs(&left, &right, JoinKind::Inner));
        assert_eq!(tested, pairs.len() as u64, "every candidate is a match");
        assert_eq!(
            tested,
            60 * (10 + 20),
            "10 same-(s0, s1) rows + the 20 unbound"
        );
    }

    #[test]
    fn more_than_64_shared_variables_key_on_the_first_64() {
        // 70 shared columns. Rows agree on the first 64 and differ (or are
        // unbound) only beyond them: no mask overflow, the hash offers the
        // pair, and `compatible()` has the last word.
        let vars: Vec<String> = (0..70).map(|k| format!("s{k}")).collect();
        let row = |tail: Option<u32>| -> Vec<Option<TermId>> {
            let mut r = vec![Some(TermId(1)); 64];
            r.extend([tail.map(TermId); 6]);
            r
        };
        let mut left = IdTable::with_vars(vars.clone());
        let mut right = IdTable::with_vars(vars);
        for tail in [Some(7), Some(8), None] {
            left.push_row(&row(tail));
        }
        for tail in [Some(7), None] {
            right.push_row(&row(tail));
        }
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let (pairs, tested) = index_pairs(&left, &right, kind, usize::MAX);
            assert_eq!(pairs, nested_loop_pairs(&left, &right, kind));
            assert_eq!(tested, 6, "one group, one key: all 3 × 2 pairs offered");
        }
    }

    #[test]
    fn estimated_bytes_grows_with_the_tables_built() {
        let rows: Vec<Vec<u8>> = (0..50u8).map(|i| vec![1 + i % 4, i % 3, 0, 0, 0]).collect();
        let (left, right) = (table('l', 2, &rows), table('r', 2, &rows));
        let shape = JoinShape::new(&left.vars, &right.vars);
        let mut index = JoinIndex::new(&right, &shape);
        let grouped = index.estimated_bytes();
        assert_eq!(
            grouped,
            50 * 4,
            "row lists only until a probe side shows up"
        );
        index.prepare(&left, &right, &shape);
        assert!(index.estimated_bytes() >= grouped + 50 * 4);
    }
}
