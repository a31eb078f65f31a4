//! Columnar (vectorized) id-native plan evaluation — the default engine.
//!
//! Implements the SPARQL multiset semantics of the paper's Section 5.2 over
//! the struct-of-arrays [`IdTable`]: one dense `Vec<TermId>` per variable
//! column plus a presence bitmap, instead of a `Vec<Option<TermId>>` per
//! row. There is one executor: `pipeline` compiles a plan into pull-based
//! operators, and every entry point of [`crate::engine::Engine`] drains that
//! pipeline — `execute*` with one unbounded pull, a cursor batch by batch.
//! This module holds what the operators share: the execution context
//! ([`Evaluator`]: term pool, expression caches, budget meter, work
//! counters) and the batch kernels they call.
//!
//! - **BGP extension** (the pipeline's `BgpOp`) walks the store's
//!   sorted-slab access paths ([`rdf_model::TripleIndex`]) and appends match
//!   results into *column buffers* (a gather-index vector plus one value
//!   vector per newly-bound variable). No per-row `Vec` is ever allocated;
//!   previously-bound columns are carried forward with a single contiguous
//!   gather.
//! - **Joins** key every build row on all the shared variables it binds
//!   (`join_index`: presence groups found by bitmap popcount, keys hashed
//!   off raw `&[TermId]` column slices) or walk a sorted key run, and emit
//!   output columns by gathering over the matched pair list
//!   (`JoinShape`, `assemble_join`).
//! - **Filter / extend / project** (`Evaluator::filter_table`,
//!   `Evaluator::extend_table`, `project_table`) are row-independent
//!   bodies applied per batch; **ORDER BY**, full or top-k
//!   (`Evaluator::sort`), sorts by the dataset's term-rank permutation when
//!   every key is a plain variable.
//! - **Aggregates**: `COUNT[DISTINCT]` over a column counts ids; every other
//!   aggregate feeds the oracle's own [`AggState`] one computed term per
//!   row.
//!
//! Terms are materialized only at expression/sort boundaries (through a
//! reused scratch row) and when a result is decoded. The seed
//! term-materialized evaluator ([`crate::eval_reference`]) is the one
//! differential-testing oracle: identical bags, and the same scan work once
//! the subplans this executor evaluates once are counted per occurrence.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use rdf_model::{Dataset, Term, TermId, TripleIndex};

use crate::algebra::{AggSpec, GraphRef, Plan, PushedFilter};
use crate::ast::{AggOp, Expr, OrderKey, PatternTerm, TriplePattern};
use crate::budget::{BudgetMeter, QueryBudget};
use crate::error::{EngineError, Result};
use crate::expr::{ebv, eval_expr, id_equality_shape, AggState, EvalCaches, IdRowCtx, PushedEval};
use crate::pool::TermPool;
use crate::results::{Column, IdTable, NO_MATCH};

mod join_index;
pub(crate) mod pipeline;
pub(crate) mod share;

use join_index::{merge_candidates, JoinIndex, RowMasks, Sides};
use share::{Replay, Shared};

/// Execution context of one query over one dataset: what every operator of
/// the `pipeline` reads and updates while the plan runs.
pub struct Evaluator<'a> {
    dataset: &'a Dataset,
    default_graphs: Vec<String>,
    caches: EvalCaches,
    pool: TermPool<'a>,
    rows_scanned: u64,
    /// Index entries replayed results stood in for ([`share`]).
    shared_scans: u64,
    /// Budget enforcement state ([`crate::budget`]); inactive by default.
    meter: BudgetMeter,
    merge_joins: u64,
    merge_left_joins: u64,
    join_candidates: u64,
    /// Reused row buffer for expression contexts (the only place the
    /// columnar layout is transposed back to a row).
    scratch: Vec<Option<TermId>>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator. `default_graphs` resolves [`GraphRef::Default`].
    pub fn new(dataset: &'a Dataset, default_graphs: Vec<String>) -> Self {
        Evaluator {
            dataset,
            default_graphs,
            caches: EvalCaches::new(),
            pool: TermPool::new(dataset.interner()),
            rows_scanned: 0,
            shared_scans: 0,
            meter: BudgetMeter::unlimited(),
            merge_joins: 0,
            merge_left_joins: 0,
            join_candidates: 0,
            scratch: Vec::new(),
        }
    }

    /// Total index entries scanned so far (a deterministic work metric used
    /// by benchmarks alongside wall-clock time). Entries actually read: a
    /// shared subplan's replays add nothing here.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Index entries that replays of shared subplans stood in for — what
    /// evaluating every occurrence would have read on top of
    /// [`Evaluator::rows_scanned`].
    pub fn shared_scans(&self) -> u64 {
        self.shared_scans
    }

    /// Number of [`Plan::Join`] nodes with a merge key (`merge_on`) that
    /// ran as merge joins from their first left row to their last (the
    /// run-time sortedness check never failed; 0 means every join hashed at
    /// least part of its input).
    pub fn merge_joins(&self) -> u64 {
        self.merge_joins
    }

    /// Number of [`Plan::LeftJoin`] nodes with a merge key that ran as merge
    /// left joins throughout (same rule as [`Evaluator::merge_joins`]).
    pub fn merge_left_joins(&self) -> u64 {
        self.merge_left_joins
    }

    /// Candidate pairs the joins tested with `JoinShape::compatible` so
    /// far — index lookups and merge runs alike (an exact work count: what a
    /// join costs beyond reading its inputs and writing its output).
    pub fn join_candidates(&self) -> u64 {
        self.join_candidates
    }

    /// Install a resource budget. The meter (and its deadline clock) is
    /// created here, so call this right before evaluation starts.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.meter = BudgetMeter::new(budget);
    }

    /// Borrow the evaluator's term pool (the embedded cursor resolves
    /// result ids through it while handing batches out).
    pub(crate) fn pool(&self) -> &TermPool<'a> {
        &self.pool
    }

    /// Body of [`Plan::Filter`] over an owned table. Row-independent, so
    /// the pipeline applies it batch-at-a-time with identical
    /// results.
    fn filter_table(&mut self, expr: &Expr, mut t: IdTable) -> IdTable {
        let mut keep = Vec::with_capacity(t.len());
        if let Some((col, const_id, negate)) = self.id_equality_filter(expr, &t) {
            // Vectorized id comparison: `?v = <iri>` over a column
            // is a single scan of raw ids — no term is resolved,
            // cloned, or compared per row. (Sound only for
            // non-literal constants, where SPARQL `=` is identity;
            // the shared interner makes id equality coincide with
            // term equality.)
            let column = t.col(col);
            for i in 0..t.len() {
                keep.push(match (column.get(i), const_id) {
                    (Some(id), Some(c)) => (id == c) != negate,
                    // Constant interned nowhere: can equal nothing.
                    (Some(_), None) => negate,
                    // Unbound input: error → filtered out.
                    (None, _) => false,
                });
            }
        } else {
            let pool = &self.pool;
            let caches = &mut self.caches;
            let buf = &mut self.scratch;
            for i in 0..t.len() {
                t.read_row(i, buf);
                let ctx = IdRowCtx {
                    vars: &t.vars,
                    row: buf,
                    pool,
                };
                keep.push(
                    eval_expr(expr, ctx, caches)
                        .as_ref()
                        .and_then(ebv)
                        .unwrap_or(false),
                );
            }
        }
        t.filter_mask(&keep);
        t
    }

    /// Body of [`Plan::Extend`] over an owned table. Rows are evaluated in
    /// input order (intern order is row order), so batch-at-a-time
    /// application produces the identical column.
    fn extend_table(&mut self, var: &str, expr: &Expr, mut t: IdTable) -> IdTable {
        let existing = t.column_index(var);
        // `BIND(?x AS ?y)` is a column copy — no resolve/intern
        // cycle, no per-row work at all.
        let new_col: Column = if let Expr::Var(src) = expr {
            match t.column_index(src) {
                Some(idx) => t.col(idx).clone(),
                None => Column::absent(t.len()),
            }
        } else {
            let mut col = Column::with_capacity(t.len());
            for i in 0..t.len() {
                let value = {
                    let buf = &mut self.scratch;
                    t.read_row(i, buf);
                    let ctx = IdRowCtx {
                        vars: &t.vars,
                        row: buf,
                        pool: &self.pool,
                    };
                    eval_expr(expr, ctx, &mut self.caches)
                };
                col.push(value.map(|term| self.pool.intern(term)));
            }
            col
        };
        match existing {
            Some(idx) => t.replace_column(idx, new_col),
            None => t.add_column(var.to_string(), new_col),
        }
        t
    }

    /// Recognize `FILTER ( ?v = <iri> )` / `FILTER ( ?v != <iri> )` shapes
    /// ([`id_equality_shape`]) over a column of the table, so the filter
    /// can compare raw ids. Returns `(column, constant id if interned
    /// anywhere, negated?)`.
    fn id_equality_filter(
        &self,
        expr: &Expr,
        t: &IdTable,
    ) -> Option<(usize, Option<TermId>, bool)> {
        let (var, konst, negate) = id_equality_shape(expr)?;
        let col = t.column_index(var)?;
        Some((col, self.pool.lookup(konst), negate))
    }

    /// Compute the ORDER BY key terms for every row (the materialization
    /// boundary for sorting). Returns `(keys, original row index)` pairs;
    /// the row index doubles as the stability tie-break.
    fn keyed_rows(&mut self, table: &IdTable, keys: &[OrderKey]) -> Vec<KeyedRow> {
        let mut out = Vec::with_capacity(table.len());
        let pool = &self.pool;
        let caches = &mut self.caches;
        let buf = &mut self.scratch;
        for i in 0..table.len() {
            table.read_row(i, buf);
            let ctx = IdRowCtx {
                vars: &table.vars,
                row: buf,
                pool,
            };
            let computed: Vec<Option<Term>> = keys
                .iter()
                .map(|k| eval_expr(&k.expr, ctx, caches))
                .collect();
            out.push((computed, i));
        }
        out
    }

    /// ORDER BY: a stable sort of `table` on `keys`, or with `top: Some(k)`
    /// its first `k` rows, selected without fully sorting the input
    /// (`Slice ∘ OrderBy` fusion) — exactly the rows a stable full sort
    /// followed by `truncate(k)` would give.
    fn sort(&mut self, table: &mut IdTable, keys: &[OrderKey], top: Option<usize>) {
        if top == Some(0) {
            // Before either kernel: both select around row `k - 1`.
            *table = table.gather_rows(&[]);
            return;
        }
        if let Some(perm) = self.rank_sort_perm(table, keys, top) {
            *table = table.gather_rows(&perm);
            return;
        }
        let mut keyed = self.keyed_rows(table, keys);
        if let Some(k) = top.filter(|&k| keyed.len() > k) {
            // O(n) partition around the k-th row, then sort only the prefix.
            keyed.select_nth_unstable_by(k - 1, |a, b| compare_keyed(keys, a, b));
            keyed.truncate(k);
        }
        // (key, seq) is a total order equal to a stable sort on key alone.
        keyed.sort_unstable_by(|a, b| compare_keyed(keys, a, b));
        let perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i as u32).collect();
        *table = table.gather_rows(&perm);
    }

    /// `ORDER BY` over plain variables via the dataset's dictionary-rank
    /// permutation ([`rdf_model::TermRanks`]): every key becomes a column
    /// of `u32` ranks whose comparison reproduces [`Term::order_cmp`]
    /// exactly (equal-comparing terms share a rank), so the sort never
    /// materializes a key term. Returns the row permutation (bounded to the
    /// top `k` when given), or `None` when any key is a computed
    /// expression, any value lies outside the rank snapshot (query-local
    /// overflow terms), or the rank cache is cold and the input too small
    /// to pay for building it — callers then fall back to the term-keyed
    /// sort, which produces the identical order.
    fn rank_sort_perm(
        &self,
        table: &IdTable,
        keys: &[OrderKey],
        k: Option<usize>,
    ) -> Option<Vec<u32>> {
        if keys.is_empty() {
            return None;
        }
        // Every key must be a plain variable (absent variables sort as
        // all-unbound, like the term path).
        let cols: Vec<Option<usize>> = keys
            .iter()
            .map(|key| match &key.expr {
                Expr::Var(v) => Some(table.column_index(v)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        // A cold rank cache costs a full O(dict · log dict) build; only pay
        // it when the result is big enough to plausibly amortize (the cache
        // then serves every later sort until the interner grows). Small
        // sorts on a cold cache stay on the term path.
        let ranks = match self.dataset.cached_term_ranks() {
            Some(ranks) => ranks,
            None if table.len() >= self.dataset.interner().len() / 16 => self.dataset.term_ranks(),
            None => return None,
        };
        // One rank column per key; bail on ids past the snapshot.
        let mut rank_cols: Vec<Option<Vec<Option<u32>>>> = Vec::with_capacity(keys.len());
        for col in cols {
            match col {
                None => rank_cols.push(None),
                Some(c) => {
                    let column = table.col(c);
                    let mut out = Vec::with_capacity(table.len());
                    for i in 0..table.len() {
                        match column.get(i) {
                            None => out.push(None),
                            Some(id) => out.push(Some(ranks.rank(id)?)),
                        }
                    }
                    rank_cols.push(Some(out));
                }
            }
        }
        let cmp = |a: u32, b: u32| -> Ordering {
            let (a, b) = (a as usize, b as usize);
            for (key, rc) in keys.iter().zip(&rank_cols) {
                let (x, y) = match rc {
                    Some(v) => (v[a], v[b]),
                    None => (None, None),
                };
                // Option's order (None first) matches the term path's
                // unbound-sorts-first; descending reverses both, exactly
                // like `compare_keyed`.
                let mut ord = x.cmp(&y);
                if !key.ascending {
                    ord = ord.reverse();
                }
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            // Original position: the stability tie-break.
            a.cmp(&b)
        };
        let mut perm: Vec<u32> = (0..table.len() as u32).collect();
        if let Some(k) = k {
            if perm.len() > k {
                perm.select_nth_unstable_by(k - 1, |&a, &b| cmp(a, b));
                perm.truncate(k);
            }
        }
        perm.sort_unstable_by(|&a, &b| cmp(a, b));
        Some(perm)
    }
}

/// A sort candidate: computed key terms and original row index (stability
/// tie-break).
type KeyedRow = (Vec<Option<Term>>, usize);

fn compare_keyed(keys: &[OrderKey], a: &KeyedRow, b: &KeyedRow) -> Ordering {
    for (key_spec, (x, y)) in keys.iter().zip(a.0.iter().zip(b.0.iter())) {
        let ord = match (x, y) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => x.order_cmp(y),
        };
        let ord = if key_spec.ascending {
            ord
        } else {
            ord.reverse()
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.1.cmp(&b.1)
}

/// Pattern-level binding of one triple position.
#[derive(Clone, Copy)]
enum Slot {
    /// Constant, resolved to its dataset id.
    Bound(TermId),
    /// Variable at this column index (bound-ness is uniform per pattern).
    Var(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Inner,
    Left,
}

/// Join-shape setup shared by the hash and merge join implementations —
/// the shared-variable column indexes, the output schema, and the per-pair
/// compatibility check — so the two paths cannot drift apart (the merge
/// rewrite's whole contract is producing row-for-row what the hash join
/// would).
struct JoinShape {
    /// Output schema: left vars, then right-only vars.
    out_vars: Vec<String>,
    /// Shared vars' column indexes in the left input.
    l_idx: Vec<usize>,
    /// Shared vars' column indexes in the right input (parallel to `l_idx`).
    r_idx: Vec<usize>,
}

impl JoinShape {
    /// From the two inputs' schemas (stable across the batches of a
    /// join, so its operator builds the shape once).
    fn new(left: &[String], right: &[String]) -> Self {
        let position = |vars: &[String], v: &String| vars.iter().position(|x| x == v);
        let mut out_vars = left.to_vec();
        for v in right {
            if !out_vars.contains(v) {
                out_vars.push(v.clone());
            }
        }
        let shared = left
            .iter()
            .filter_map(|v| Some((position(left, v)?, position(right, v)?)));
        let (l_idx, r_idx) = shared.unzip();
        JoinShape {
            out_vars,
            l_idx,
            r_idx,
        }
    }

    /// SPARQL compatibility: every shared variable bound on both sides must
    /// agree; unbound is compatible with anything.
    fn compatible(&self, left: &IdTable, right: &IdTable, li: usize, ri: usize) -> bool {
        for (&lc, &rc) in self.l_idx.iter().zip(&self.r_idx) {
            if let (Some(a), Some(b)) = (left.get(li, lc), right.get(ri, rc)) {
                if a != b {
                    return false;
                }
            }
        }
        true
    }
}

/// The run-time half of every merge claim: the key column fully bound and
/// non-decreasing.
fn sorted_key(col: &Column) -> bool {
    col.all_present() && col.ids().windows(2).all(|w| w[0] <= w[1])
}

/// Body of [`Plan::Project`] over an owned table: move projected columns
/// out instead of cloning id vectors and bitmaps. Pure column shuffling —
/// the pipeline applies it per batch.
fn project_table(vars: &[String], t: IdTable) -> IdTable {
    let rows = t.len();
    let (t_vars, t_cols, _) = t.into_parts();
    let mut pool: Vec<Option<Column>> = t_cols.into_iter().map(Some).collect();
    let mut out_cols: Vec<Column> = Vec::with_capacity(vars.len());
    for (k, v) in vars.iter().enumerate() {
        let col = if let Some(prev) = vars[..k].iter().position(|x| x == v) {
            // `SELECT ?x ?x`: second occurrence clones the
            // already-projected column.
            out_cols[prev].clone()
        } else if let Some(i) = t_vars.iter().position(|x| x == v) {
            pool[i].take().expect("first projection of this var")
        } else {
            Column::absent(rows)
        };
        out_cols.push(col);
    }
    IdTable::from_columns(vars.to_vec(), out_cols, rows)
}

/// Emit join output columns by gathering over a `(left row, right row)`
/// pair list (`NO_MATCH` right = unmatched left row of a left join). A
/// shared column takes the left value when present, else the right side's:
/// a bulk gather from the left when the left column is fully bound, cell by
/// cell only when it is not.
fn assemble_join(
    left: &IdTable,
    right: &IdTable,
    out_vars: Vec<String>,
    pairs: &[(u32, u32)],
) -> IdTable {
    let lefts = pairs.iter().map(|p| p.0);
    let rights = pairs.iter().map(|p| p.1);
    let cols = out_vars
        .iter()
        .map(|v| match (left.column_index(v), right.column_index(v)) {
            (Some(lc), Some(rc)) if !left.col(lc).all_present() => {
                let mut col = Column::with_capacity(pairs.len());
                for &(li, ri) in pairs {
                    col.push(match left.get(li as usize, lc) {
                        None if ri != NO_MATCH => right.get(ri as usize, rc),
                        value => value,
                    });
                }
                col
            }
            (Some(lc), _) => left.col(lc).gather(lefts.clone()),
            (None, Some(rc)) => right.col(rc).gather(rights.clone()),
            (None, None) => unreachable!("out var comes from one side"),
        })
        .collect();
    IdTable::from_columns(out_vars, cols, pairs.len())
}

#[cfg(test)]
mod tests {
    //! The operators' semantics on hand-built tables, at every pull size
    //! (`pipeline::tests::BATCHES`): joins against the nested-loop
    //! definition, union, DISTINCT's order claim, grouping's aggregates
    //! against [`AggState`], and the bulk column kernels against one `push`
    //! per cell.

    use proptest::prelude::*;

    use super::join_index::tests::nested_loop_pairs;
    use super::pipeline::tests::{drain, source, BATCHES};
    use super::pipeline::{DistinctOp, GroupOp, JoinOp, UnionOp};
    use super::*;
    use rdf_model::term::Literal;

    fn tbl(vars: &[&str], rows: Vec<Vec<Option<TermId>>>) -> IdTable {
        let mut t = IdTable::with_vars(vars.iter().map(|s| s.to_string()).collect());
        for row in rows {
            t.push_row(&row);
        }
        t
    }

    fn i(v: u32) -> Option<TermId> {
        Some(TermId(v))
    }

    /// `JoinOp` over the two tables (a merge join on `merge_key` when
    /// given): the nested-loop join at every pull size, or the test fails.
    /// Returns the joined table, the candidates tested and the merge joins
    /// counted.
    fn join_op(
        a: &IdTable,
        b: &IdTable,
        kind: JoinKind,
        merge_key: Option<&'static str>,
    ) -> (IdTable, u64, u64) {
        let ds = Dataset::new();
        let pairs = nested_loop_pairs(a, b, kind);
        let out_vars = JoinShape::new(&a.vars, &b.vars).out_vars;
        let expected = assemble_join(a, b, out_vars, &pairs);
        let mut counters = Vec::new();
        for batch in BATCHES {
            let mut ev = Evaluator::new(&ds, Vec::new());
            let mut op = JoinOp::new(source(a), source(b), kind, merge_key);
            assert_eq!(drain(&mut op, &mut ev, batch), expected, "batch {batch}");
            counters.push((ev.join_candidates, ev.merge_joins + ev.merge_left_joins));
        }
        assert!(counters.iter().all(|c| *c == counters[0]), "{counters:?}");
        (expected, counters[0].0, counters[0].1)
    }

    fn hash_join(a: IdTable, b: IdTable, kind: JoinKind) -> IdTable {
        join_op(&a, &b, kind, None).0
    }

    fn rows_of(t: &IdTable) -> Vec<Vec<Option<TermId>>> {
        (0..t.len())
            .map(|r| (0..t.vars.len()).map(|c| t.get(r, c)).collect())
            .collect()
    }

    #[test]
    fn inner_join_on_shared() {
        let a = tbl(&["x", "y"], vec![vec![i(1), i(10)], vec![i(2), i(20)]]);
        let b = tbl(&["x", "z"], vec![vec![i(1), i(100)], vec![i(3), i(300)]]);
        let j = hash_join(a, b, JoinKind::Inner);
        assert_eq!(j.vars, vec!["x", "y", "z"]);
        assert_eq!(rows_of(&j), vec![vec![i(1), i(10), i(100)]]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
        let b = tbl(&["x", "z"], vec![vec![i(1), i(100)]]);
        let j = hash_join(a, b, JoinKind::Left);
        assert_eq!(j.len(), 2);
        assert_eq!(rows_of(&j)[1], vec![i(2), None]);
    }

    #[test]
    fn join_with_partially_unbound_shared_var() {
        // 'g' is shared but sometimes unbound on the left (e.g. OPTIONAL
        // output): unbound is compatible with anything.
        let a = tbl(&["x", "g"], vec![vec![i(1), None], vec![i(2), i(9)]]);
        let b = tbl(&["x", "g"], vec![vec![i(1), i(7)], vec![i(2), i(8)]]);
        let j = hash_join(a, b, JoinKind::Inner);
        // Row (1, None) joins (1, 7) → (1, 7); row (2, 9) vs (2, 8) clash.
        assert_eq!(rows_of(&j), vec![vec![i(1), i(7)]]);
    }

    #[test]
    fn cross_product_when_no_shared() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
        let b = tbl(&["y"], vec![vec![i(3)]]);
        let j = hash_join(a, b, JoinKind::Inner);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn union_aligns_schemas() {
        let a = tbl(&["x", "y"], vec![vec![i(1), i(2)]]);
        let b = tbl(&["y", "z"], vec![vec![i(5), i(6)]]);
        let ds = Dataset::new();
        for batch in BATCHES {
            let mut ev = Evaluator::new(&ds, Vec::new());
            let u = drain(&mut UnionOp::new(source(&a), source(&b)), &mut ev, batch);
            assert_eq!(u.vars, vec!["x", "y", "z"]);
            assert_eq!(rows_of(&u)[0], vec![i(1), i(2), None]);
            assert_eq!(rows_of(&u)[1], vec![None, i(5), i(6)]);
        }
    }

    #[test]
    fn bag_semantics_preserved() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(1)]]);
        let b = tbl(&["x"], vec![vec![i(1)], vec![i(1)]]);
        let j = hash_join(a, b, JoinKind::Inner);
        // 2 × 2 duplicates → 4 rows.
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn unit_table_is_join_identity() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
        let j = hash_join(IdTable::unit(), a, JoinKind::Inner);
        assert_eq!(j.vars, vec!["x"]);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn merge_left_join_matches_hash_left_join() {
        // Sorted key columns; left rows 1..4, right matches for 1 (two,
        // one incompatible on the extra shared var), none for 2, one for 4.
        let left = tbl(
            &["x", "g"],
            vec![vec![i(1), i(7)], vec![i(2), i(7)], vec![i(4), None]],
        );
        let right = tbl(
            &["x", "g", "z"],
            vec![
                vec![i(1), i(7), i(100)],
                vec![i(1), i(8), i(101)], // clashes on ?g → incompatible
                vec![i(4), i(9), i(102)], // joins the unbound-?g left row
            ],
        );
        let (via_hash, hash_tested, hash_merges) = join_op(&left, &right, JoinKind::Left, None);
        let (via_merge, merge_tested, merges) = join_op(&left, &right, JoinKind::Left, Some("x"));
        // The merge run tests every same-?x row; the hash index keys the
        // (x, g) rows on both and tested one pair fewer.
        assert_eq!((merge_tested, merges), (3, 1));
        assert_eq!((hash_tested, hash_merges), (2, 0));
        assert_eq!(rows_of(&via_hash), rows_of(&via_merge));
        assert_eq!(via_hash.vars, via_merge.vars);
        // Row 2 (x=2) must appear unmatched, in place.
        assert_eq!(rows_of(&via_merge)[1], vec![i(2), i(7), None]);
        // A left side out of key order refutes the claim: same rows as the
        // hash join, and no merge join counted.
        let unsorted = left.gather_rows(&[2, 0, 1]);
        assert_eq!(join_op(&unsorted, &right, JoinKind::Left, Some("x")).2, 0);
    }

    /// `DistinctOp` over `t`: the output, which must not depend on the
    /// pull size.
    fn distinct(t: &IdTable) -> Vec<Vec<Option<TermId>>> {
        let ds = Dataset::new();
        let mut outcomes = Vec::new();
        for batch in BATCHES {
            let mut ev = Evaluator::new(&ds, Vec::new());
            let mut op = DistinctOp::new(source(t));
            outcomes.push(rows_of(&drain(&mut op, &mut ev, batch)));
        }
        assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{outcomes:?}");
        outcomes.swap_remove(0)
    }

    #[test]
    fn distinct_keeps_first_occurrences_at_every_pull_size() {
        // Sorted with duplicates.
        let t = tbl(
            &["a", "b"],
            vec![
                vec![i(1), i(5)],
                vec![i(1), i(5)],
                vec![i(1), i(6)],
                vec![i(2), i(3)],
                vec![i(2), i(3)],
            ],
        );
        let kept = vec![vec![i(1), i(5)], vec![i(1), i(6)], vec![i(2), i(3)]];
        assert_eq!(distinct(&t), kept);
        // Out of order, a duplicate arriving batches after its first
        // occurrence: still dropped, and the first occurrences keep their
        // input order.
        let late = tbl(
            &["a", "b"],
            vec![
                vec![i(1), i(5)],
                vec![i(1), i(6)],
                vec![i(2), i(3)],
                vec![i(1), i(6)],
                vec![i(0), i(9)],
                vec![i(2), i(3)],
                vec![i(0), i(9)],
            ],
        );
        let mut late_kept = kept.clone();
        late_kept.push(vec![i(0), i(9)]);
        assert_eq!(distinct(&late), late_kept);
        // One column: rows equal on it are duplicates.
        let one = tbl(&["a"], vec![vec![i(2)], vec![i(1)], vec![i(2)]]);
        assert_eq!(distinct(&one), vec![vec![i(2)], vec![i(1)]]);
        // An unbound slot equals another unbound slot, and differs from
        // every bound one.
        let unbound = tbl(
            &["a", "b"],
            vec![vec![i(1), None], vec![i(1), None], vec![i(1), i(0)]],
        );
        assert_eq!(distinct(&unbound), vec![vec![i(1), None], vec![i(1), i(0)]]);
        let empty = tbl(&["a", "b"], vec![]);
        assert_eq!(distinct(&empty), Vec::<Vec<Option<TermId>>>::new());
    }

    #[test]
    fn group_op_aggregates_match_agg_state_at_every_pull_size() {
        // Every aggregate over mixed int/double values, with and without
        // DISTINCT, must agree with AggState fed row by row — also when the
        // column stops being numeric at the first, a middle or the last row
        // of a group, grouped and ungrouped, whatever the pull size.
        let numbers = [
            Term::integer(5),
            Term::integer(5),
            Term::from(Literal::double(2.5)),
            Term::integer(-3),
            Term::from(Literal::double(5.0)),
        ];
        let intruders = [
            Some(Term::iri("http://x/not-a-number")),
            Some(Term::string("abc")),
            Some(Term::from(Literal::double(f64::NAN))),
            None, // unbound: contributes nothing
        ];
        let ops = [
            AggOp::Sum,
            AggOp::Avg,
            AggOp::Min,
            AggOp::Max,
            AggOp::Sample,
            AggOp::Count,
        ];
        let aggs: Vec<AggSpec> = ops
            .iter()
            .flat_map(|&op| [false, true].map(|distinct| (op, distinct)))
            .map(|(op, distinct)| AggSpec {
                op,
                distinct,
                expr: Some(Expr::Var("v".into())),
                output: format!("{op:?}{distinct}"),
            })
            .collect();
        let keys = ["g".to_string()];
        let ds = Dataset::new();

        let mut cases: Vec<Vec<Option<Term>>> = vec![numbers.iter().cloned().map(Some).collect()];
        for intruder in &intruders {
            for at in [0, 2, numbers.len()] {
                let mut column = cases[0].clone();
                column.insert(at, intruder.clone());
                cases.push(column);
            }
        }
        for column in &cases {
            // Group 1 gets `column`, group 2 the plain numbers, interleaved.
            let mut rows: Vec<(u32, Option<Term>)> = Vec::new();
            for (k, v) in column.iter().enumerate() {
                rows.push((1, v.clone()));
                rows.extend(numbers.get(k).map(|n| (2, Some(n.clone()))));
            }
            for keys in [&keys[..], &[]] {
                for batch in BATCHES {
                    let mut ev = Evaluator::new(&ds, Vec::new());
                    let mut input = IdTable::with_vars(vec!["g".into(), "v".into()]);
                    for (g, v) in &rows {
                        let v = v.clone().map(|t| ev.pool.intern(t));
                        input.push_row(&[i(*g), v]);
                    }
                    let mut op = GroupOp::new(source(&input), keys, &aggs);
                    let out = drain(&mut op, &mut ev, batch);
                    let groups: &[u32] = if keys.is_empty() { &[0] } else { &[1, 2] };
                    assert_eq!(out.len(), groups.len());
                    for (r, g) in groups.iter().enumerate() {
                        for (a, spec) in aggs.iter().enumerate() {
                            let mut slow = AggState::new(spec.op, spec.distinct);
                            for (_, v) in rows.iter().filter(|(rg, _)| *g == 0 || rg == g) {
                                slow.push(v.clone());
                            }
                            let fast = out.get(r, keys.len() + a);
                            assert_eq!(
                                fast.map(|id| ev.pool.resolve(id).clone()),
                                slow.finish(),
                                "{} of {column:?}, group {g}, batch {batch}",
                                spec.output
                            );
                        }
                    }
                }
            }
        }
    }

    /// Column lengths around the bitmap's word edges.
    const EDGE_LENS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

    /// An edge length for `pick < 8`, else `random`.
    fn pick_len(pick: usize, random: usize) -> usize {
        EDGE_LENS.get(pick).copied().unwrap_or(random)
    }

    /// The per-cell definition every column kernel is held to: one `push`
    /// per slot.
    fn pushed(cells: impl IntoIterator<Item = Option<TermId>>) -> Column {
        let mut c = Column::default();
        for v in cells {
            c.push(v);
        }
        c
    }

    /// `len` slots with ids `cells[i] >> 1` (so `TermId(0)` is a real id)
    /// bound by `mode`: all, none, by `cells[i]`'s low bit, or only in the
    /// last bitmap word.
    fn column(len: usize, mode: u8, cells: &[u32]) -> Column {
        let tail = len.saturating_sub(1) / 64 * 64;
        pushed((0..len).map(|i| {
            let v = cells[i % cells.len()];
            let bound = match mode {
                0 => true,
                1 => false,
                2 => v & 1 == 0,
                _ => i >= tail,
            };
            bound.then_some(TermId(v >> 1))
        }))
    }

    /// `len` gather indices into `rows` rows, duplicates everywhere, about a
    /// tenth `NO_MATCH` when `unmatched` (all of them when `rows` is 0).
    fn indices(len: usize, rows: usize, unmatched: bool, picks: &[u32]) -> Vec<u32> {
        (0..len)
            .map(|k| match picks[k % picks.len()] {
                p if rows == 0 || (unmatched && p % 10 == 0) => NO_MATCH,
                p => p % rows as u32,
            })
            .collect()
    }

    /// The bitmap layout the kernels keep: one word per started 64 slots,
    /// no bit set past `len`, and — for a freshly built column — no spare
    /// words allocated.
    fn well_formed(c: &Column, fresh: bool) -> std::result::Result<(), String> {
        let words = c.len().div_ceil(64);
        prop_assert_eq!(c.bitmap().len(), words);
        if !c.len().is_multiple_of(64) {
            prop_assert_eq!(c.bitmap()[words - 1] >> (c.len() % 64), 0, "bits past len");
        }
        if fresh {
            prop_assert_eq!(c.bitmap().capacity(), words, "spare bitmap capacity");
        }
        Ok(())
    }

    /// `kernel == model`, byte estimates included, and a well-formed bitmap.
    fn same(kernel: &Column, model: &Column, fresh: bool) -> std::result::Result<(), String> {
        prop_assert_eq!(kernel, model);
        prop_assert_eq!(kernel.estimated_bytes(), model.estimated_bytes());
        well_formed(kernel, fresh)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `from_ids`, `gather`, `filter_mask` and `assemble_join` build the
        /// column one `push` per cell would, at every length around a word
        /// edge and every presence shape.
        #[test]
        fn column_kernels_match_their_per_cell_definitions(
            lens in (0usize..12, 0usize..300, 0usize..12, 0usize..300),
            modes in (0u8..4, 0u8..4, 0u8..4, 0u8..3),
            cells in proptest::collection::vec(0u32..16, 1..300),
            picks in proptest::collection::vec(0u32..1000, 1..300),
        ) {
            let (len, idx_len) = (pick_len(lens.0, lens.1), pick_len(lens.2, lens.3));
            let src = column(len, modes.0, &cells);
            prop_assert_eq!(&pushed((0..len).map(|i| src.get(i))), &src);

            let ids: Vec<TermId> = src.ids().to_vec();
            same(&Column::from_ids(ids.clone()), &pushed(ids.into_iter().map(Some)), true)?;

            for unmatched in [false, true] {
                let idx = indices(idx_len, len, unmatched, &picks);
                let model = pushed(idx.iter().map(|&i| match i {
                    NO_MATCH => None,
                    i => src.get(i as usize),
                }));
                same(&src.gather(idx.iter().copied()), &model, true)?;
            }

            let keep: Vec<bool> = (0..len)
                .map(|i| match modes.3 {
                    0 => true,
                    1 => false,
                    _ => picks[i % picks.len()] % 3 != 0,
                })
                .collect();
            let mut filtered = src.clone();
            filtered.filter_mask(&keep);
            let kept = (0..len).filter(|&i| keep[i]).map(|i| src.get(i));
            same(&filtered, &pushed(kept), false)?;
            prop_assert!(filtered.bitmap().capacity() <= src.bitmap().capacity());

            // Join output: `s` shared (its left side bound by `modes.1`,
            // right by `modes.2`), `l` left-only, `r` right-only; the pair
            // list has duplicates on both sides and, for a left join,
            // unmatched left rows.
            let right_len = pick_len(lens.2, lens.3);
            let left = IdTable::from_columns(
                vec!["s".into(), "l".into()],
                vec![column(len, modes.1, &cells), src.clone()],
                len,
            );
            let right = IdTable::from_columns(
                vec!["r".into(), "s".into()],
                vec![column(right_len, modes.0, &picks), column(right_len, modes.2, &picks)],
                right_len,
            );
            let out_vars: Vec<String> = ["s", "l", "r"].map(String::from).to_vec();
            for unmatched in [false, true] {
                let lefts = indices(if len == 0 { 0 } else { idx_len }, len, false, &cells);
                let rights = indices(lefts.len(), right_len, unmatched, &picks);
                let pairs: Vec<(u32, u32)> = lefts.into_iter().zip(rights).collect();
                let mut model = IdTable::with_vars(out_vars.clone());
                for &(li, ri) in &pairs {
                    let row = out_vars.iter().map(|v| {
                        let l = left.column_index(v).and_then(|c| left.get(li as usize, c));
                        let r = right.column_index(v).filter(|_| ri != NO_MATCH);
                        l.or_else(|| r.and_then(|c| right.get(ri as usize, c)))
                    });
                    model.push_row(&row.collect::<Vec<_>>());
                }
                let got = assemble_join(&left, &right, out_vars.clone(), &pairs);
                prop_assert_eq!(got.len(), model.len());
                for c in 0..out_vars.len() {
                    same(got.col(c), model.col(c), true)?;
                }
            }
        }
    }
}
