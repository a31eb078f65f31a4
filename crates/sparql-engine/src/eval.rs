//! Columnar (vectorized) id-native plan evaluation — the default engine.
//!
//! Implements the SPARQL multiset semantics of the paper's Section 5.2 over
//! the struct-of-arrays [`IdTable`]: one dense `Vec<TermId>` per variable
//! column plus a presence bitmap, instead of a `Vec<Option<TermId>>` per
//! row. The operators are batch-oriented:
//!
//! - **BGP extension** walks the store's sorted-slab access paths
//!   ([`rdf_model::Graph`]) and appends match results into *column buffers*
//!   (a gather-index vector plus one value vector per newly-bound
//!   variable). No per-row `Vec` is ever allocated; previously-bound
//!   columns are carried forward with a single contiguous gather.
//! - **Hash joins** key every build row on all the shared variables it
//!   binds (`join_index`: presence groups found by bitmap popcount, keys
//!   hashed off raw `&[TermId]` column slices), and emit output columns by
//!   gathering over the matched pair list.
//! - **DISTINCT** and **GROUP BY** key directly off column slices,
//!   hashing `u64`-encoded cells (id + presence), never terms.
//! - **Aggregates** run id-native where the shape allows: `COUNT[DISTINCT]`
//!   over a column counts ids; `MIN`/`MAX`/`SUM`/`AVG` over a
//!   numeric-literal column accumulate parsed `i64`/`f64` values without
//!   materializing a single [`Term`] per row (mixed-type columns fall back
//!   to term-based [`AggState`]); DISTINCT inputs of general expressions
//!   intern through the [`TermPool`] and dedup on ids.
//!
//! Terms are materialized only at expression/sort boundaries (through a
//! reused scratch row) and at the final projection. The two earlier
//! evaluators — PR 1's row-at-a-time id-native pipeline
//! ([`crate::eval_rows`]) and the seed term-materialized one
//! ([`crate::eval_reference`]) — are kept as differential-testing oracles:
//! all three produce identical bags and identical `rows_scanned` counts.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use rdf_model::term::{Literal, TypedValue};
use rdf_model::{Dataset, Graph, GraphIdMap, Term, TermId};

use crate::algebra::{AggSpec, GraphRef, Plan, PushedFilter};
use crate::ast::{AggOp, Expr, OrderKey, PatternTerm, TriplePattern};
use crate::budget::{BudgetMeter, OpMeter, QueryBudget, SharedMeter};
use crate::error::{EngineError, Result};
use crate::expr::{ebv, eval_expr, id_equality_shape, AggState, EvalCaches, IdRowCtx, PushedEval};
use crate::pool::TermPool;
use crate::results::{Column, IdTable, SolutionTable};

mod join_index;
pub(crate) mod pipeline;
pub(crate) mod share;

use join_index::{merge_candidates, JoinIndex, RowMasks, Sides};
use share::{Replay, Shared};

/// Inputs below this row count run sequentially even with parallelism on:
/// the fan-out overhead (task queueing, per-chunk state) dwarfs the work.
const PAR_MIN_ROWS: usize = 256;

/// Chunk size for a parallel operator: aim for ~4 chunks per worker (so
/// work stealing can rebalance skew) but never chunks so small the
/// per-chunk setup dominates.
fn par_chunk_size(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * 4).max(128)
}

/// Parallel execution context: a shared work-stealing pool plus the
/// configured degree. Cloning shares the pool.
#[derive(Clone)]
struct ParCtx {
    pool: Arc<rayon::ThreadPool>,
    threads: usize,
}

/// Observability counters for parallel operator runs (exposed through
/// [`crate::engine::ExecStats`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct ParStats {
    /// Chunks executed across all parallel operator runs.
    pub chunks: u64,
    /// Chunk tasks a worker stole from another worker's queue.
    pub steals: u64,
    /// Nanoseconds spent in the single-threaded merge phases that fold
    /// chunk results back together in chunk order.
    pub merge_nanos: u64,
}

/// Columnar id-native plan evaluator bound to a dataset.
pub struct Evaluator<'a> {
    dataset: &'a Dataset,
    default_graphs: Vec<String>,
    caches: EvalCaches,
    pool: TermPool<'a>,
    rows_scanned: u64,
    /// Index entries replayed results stood in for ([`share`]).
    shared_scans: u64,
    /// Sharing classes of the plan under materializing evaluation, and each
    /// class's memoized table once its first occurrence has been evaluated.
    shared: Shared,
    memo: Vec<Option<Replay<IdTable>>>,
    /// Budget enforcement state ([`crate::budget`]); inactive by default.
    meter: BudgetMeter,
    merge_joins: u64,
    merge_left_joins: u64,
    join_candidates: u64,
    sorted_distincts: u64,
    sorted_groups: u64,
    /// `ORDER BY ?var` via the dataset's cached term-rank permutation
    /// (disable to measure the term-materializing sort it replaces).
    rank_sort: bool,
    /// Reused row buffer for expression contexts (the only place the
    /// columnar layout is transposed back to a row).
    scratch: Vec<Option<TermId>>,
    /// Parallel execution context (`None` = sequential, the default).
    par: Option<ParCtx>,
    /// Counters from parallel operator runs.
    par_stats: ParStats,
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
            shared: Shared::default(),
            memo: Vec::new(),
            meter: BudgetMeter::unlimited(),
            merge_joins: 0,
            merge_left_joins: 0,
            join_candidates: 0,
            sorted_distincts: 0,
            sorted_groups: 0,
            rank_sort: true,
            scratch: Vec::new(),
            par: None,
            par_stats: ParStats::default(),
        }
    }

    /// Enable `n`-way parallel execution of the hot operators (BGP
    /// extension, hash-join probe, mergeable GROUP BY). `n <= 1`
    /// disables it. Output is byte-identical to sequential execution —
    /// chunk results are folded back in chunk order, which reproduces row
    /// order exactly — and `rows_scanned` parity is exact.
    pub fn set_threads(&mut self, n: usize) {
        self.par = (n > 1).then(|| ParCtx {
            pool: rayon::ThreadPool::global(n),
            threads: n,
        });
    }

    /// Configured parallelism degree (1 = sequential).
    pub fn threads(&self) -> usize {
        self.par.as_ref().map_or(1, |p| p.threads)
    }

    /// Counters from parallel operator runs so far.
    pub fn par_stats(&self) -> ParStats {
        self.par_stats
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

    /// Number of [`Plan::MergeJoin`] nodes that actually ran as merge joins
    /// (the run-time sortedness check passed; 0 means every join hashed).
    pub fn merge_joins(&self) -> u64 {
        self.merge_joins
    }

    /// Number of [`Plan::MergeLeftJoin`] nodes that actually ran as merge
    /// left joins (run-time sortedness check passed).
    pub fn merge_left_joins(&self) -> u64 {
        self.merge_left_joins
    }

    /// Candidate pairs the joins tested with [`JoinShape::compatible`] so
    /// far — index lookups and merge runs alike (an exact work count: what a
    /// join costs beyond reading its inputs and writing its output).
    pub fn join_candidates(&self) -> u64 {
        self.join_candidates
    }

    /// Number of [`Plan::SortedDistinct`] nodes that deduplicated by run
    /// detection instead of hashing.
    pub fn sorted_distincts(&self) -> u64 {
        self.sorted_distincts
    }

    /// Number of [`Plan::Group`] nodes that grouped by run detection
    /// instead of hashing.
    pub fn sorted_groups(&self) -> u64 {
        self.sorted_groups
    }

    /// Toggle the term-rank `ORDER BY` fast path (on by default; the bench
    /// turns it off to measure the PR 4 baseline behavior).
    pub fn set_rank_sort(&mut self, on: bool) {
        self.rank_sort = on;
    }

    /// Install a resource budget. The meter (and its deadline clock) is
    /// created here, so call this right before evaluation starts.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.meter = BudgetMeter::new(budget);
    }

    /// Evaluate a plan to a materialized solution table.
    pub fn eval(&mut self, plan: &Plan) -> Result<SolutionTable> {
        let table = self.eval_to_ids(plan)?;
        Ok(self.materialize(table))
    }

    /// Evaluate a plan and materialize only rows `[offset, offset+limit)`.
    ///
    /// Pagination endpoints re-execute per chunk; slicing *before* term
    /// materialization means only the shipped page allocates terms.
    pub fn eval_page(&mut self, plan: &Plan, offset: usize, limit: usize) -> Result<SolutionTable> {
        let mut table = self.eval_to_ids(plan)?;
        table.slice(offset, Some(limit));
        Ok(self.materialize(table))
    }

    /// Evaluate a plan to the raw columnar id table *without* materializing
    /// terms — the embedded execution path ([`crate::engine::QueryCursor`])
    /// hands these columns straight to the client together with the pool.
    ///
    /// Every evaluation enters here: the plan's sharing classes are found
    /// once, and each is then evaluated once (`eval_ids`).
    pub fn eval_to_ids(&mut self, plan: &Plan) -> Result<IdTable> {
        self.shared = Shared::of(plan);
        self.memo = (0..self.shared.len()).map(|_| None).collect();
        self.eval_ids(plan)
    }

    /// Consume the evaluator, keeping its term pool alive so ids from an
    /// [`Evaluator::eval_to_ids`] table (including computed overflow terms)
    /// stay resolvable after evaluation ends.
    pub fn into_pool(self) -> TermPool<'a> {
        self.pool
    }

    /// Resolve ids to owned terms (the single materialization point).
    fn materialize(&self, table: IdTable) -> SolutionTable {
        let width = table.vars.len();
        let mut rows = Vec::with_capacity(table.len());
        for i in 0..table.len() {
            rows.push(
                (0..width)
                    .map(|c| table.get(i, c).map(|id| self.pool.resolve(id).clone()))
                    .collect(),
            );
        }
        SolutionTable {
            vars: table.vars,
            rows,
        }
    }

    /// Evaluate a plan to a columnar id table (the internal hot path).
    ///
    /// Every operator's output passes through this chokepoint, where its
    /// row count and estimated footprint are checked against the budget —
    /// operators whose hot loops can balloon *before* producing output
    /// (BGP extension, join pair emission, group accumulation) carry
    /// additional in-loop checks of their own.
    ///
    /// It is also where a shared subplan ([`share`]) is evaluated once: the
    /// first occurrence memoizes its table together with the scans producing
    /// it took, every later occurrence is handed the table (the last one by
    /// move) and reports those scans as `shared_scans`.
    fn eval_ids(&mut self, plan: &Plan) -> Result<IdTable> {
        let class = self.shared.class(plan);
        if let Some(memo) = class.and_then(|k| self.memo[k].as_mut()) {
            let (t, scans) = memo.replay(0);
            self.shared_scans += scans;
            return Ok(t);
        }
        let before = self.rows_scanned + self.shared_scans;
        let t = self.eval_ids_node(plan)?;
        self.meter
            .charge_intermediate(t.len() as u64, t.estimated_bytes())?;
        Ok(match class {
            Some(k) => {
                debug_assert!(self.shared.is_first(k, plan));
                let scans = self.rows_scanned + self.shared_scans - before;
                let size = (t.len() as u64, t.estimated_bytes());
                let memo = self.memo[k].insert(Replay::new(self.shared.readers(k)));
                memo.push(t, scans, size)
            }
            None => t,
        })
    }

    fn eval_ids_node(&mut self, plan: &Plan) -> Result<IdTable> {
        match plan {
            Plan::Unit => Ok(IdTable::unit()),
            Plan::Bgp {
                patterns,
                graph,
                filters,
            } => self.eval_bgp(patterns, graph, filters),
            Plan::Join(a, b) => {
                let left = self.eval_ids(a)?;
                let right = self.eval_ids(b)?;
                self.join(left, right, JoinKind::Inner, None)
            }
            Plan::MergeJoin { left, right, key } => {
                let left = self.eval_ids(left)?;
                let right = self.eval_ids(right)?;
                self.join_sorted(left, right, key, JoinKind::Inner)
            }
            Plan::MergeLeftJoin { left, right, key } => {
                let left = self.eval_ids(left)?;
                let right = self.eval_ids(right)?;
                self.join_sorted(left, right, key, JoinKind::Left)
            }
            Plan::LeftJoin(a, b) => {
                let left = self.eval_ids(a)?;
                let right = self.eval_ids(b)?;
                self.join(left, right, JoinKind::Left, None)
            }
            Plan::Union(a, b) => {
                let left = self.eval_ids(a)?;
                let right = self.eval_ids(b)?;
                Ok(union(left, right))
            }
            Plan::Filter(expr, p) => {
                let t = self.eval_ids(p)?;
                Ok(self.filter_table(expr, t))
            }
            Plan::Extend(var, expr, p) => {
                let t = self.eval_ids(p)?;
                Ok(self.extend_table(var, expr, t))
            }
            Plan::Group {
                keys,
                aggs,
                input,
                sorted_on,
            } => {
                let t = self.eval_ids(input)?;
                self.eval_group(keys, aggs, sorted_on, t)
            }
            Plan::Project(vars, p) => {
                let t = self.eval_ids(p)?;
                Ok(project_table(vars, t))
            }
            Plan::Distinct(p) => {
                let t = self.eval_ids(p)?;
                Ok(hash_distinct(t))
            }
            Plan::SortedDistinct { order, input } => {
                let mut t = self.eval_ids(input)?;
                match sorted_distinct_mask(&t, order) {
                    Some(keep) => {
                        self.sorted_distincts += 1;
                        t.filter_mask(&keep);
                        Ok(t)
                    }
                    // Coverage or sortedness claim failed at run time: the
                    // hash path produces the identical keep-first bag.
                    None => Ok(hash_distinct(t)),
                }
            }
            Plan::OrderBy(keys, p) => {
                let mut t = self.eval_ids(p)?;
                self.sort_rows(&mut t, keys);
                Ok(t)
            }
            Plan::TopK { keys, k, input } => {
                let mut t = self.eval_ids(input)?;
                self.top_k(&mut t, keys, *k);
                Ok(t)
            }
            Plan::Slice {
                limit,
                offset,
                input,
            } => {
                let mut t = self.eval_ids(input)?;
                t.slice(*offset, *limit);
                Ok(t)
            }
        }
    }

    fn resolve_graphs(&self, graph: &GraphRef) -> Result<Vec<(Arc<Graph>, Arc<GraphIdMap>)>> {
        let uris: Vec<&str> = match graph {
            GraphRef::Default => {
                if self.default_graphs.is_empty() {
                    // No FROM clause: the default graph is the union of all
                    // graphs in the dataset.
                    self.dataset.graph_uris().collect()
                } else {
                    self.default_graphs.iter().map(String::as_str).collect()
                }
            }
            GraphRef::Named(uri) => vec![uri.as_str()],
        };
        let mut graphs = Vec::with_capacity(uris.len());
        for uri in uris {
            let g = self
                .dataset
                .graph(uri)
                .ok_or_else(|| EngineError::UnknownGraph(uri.to_string()))?;
            let map = self
                .dataset
                .id_map(uri)
                .ok_or_else(|| EngineError::UnknownGraph(uri.to_string()))?;
            graphs.push((Arc::clone(g), Arc::clone(map)));
        }
        Ok(graphs)
    }

    /// Vectorized index-nested-loop evaluation of a BGP in pattern order.
    ///
    /// Per pattern, matches are recorded as a gather-index vector (`src`,
    /// which input row produced the match) plus one dense value vector per
    /// variable the pattern newly binds. The next table is then assembled
    /// column-at-a-time: carried columns gather contiguously, new columns
    /// take the value vectors verbatim. Scan results stream straight into
    /// these buffers — no row objects exist at any point.
    ///
    /// Pushed filters ([`PushedFilter`]) are tested inside the match
    /// callback of the pattern that binds their variable: a failing
    /// candidate returns before anything is appended, so it neither
    /// occupies the gather/value buffers nor feeds later patterns' scans.
    fn eval_bgp(
        &mut self,
        patterns: &[TriplePattern],
        graph: &GraphRef,
        filters: &[PushedFilter],
    ) -> Result<IdTable> {
        let graphs = self.resolve_graphs(graph)?;

        // Variable schema in first-mention order.
        let mut vars: Vec<String> = Vec::new();
        for p in patterns {
            for v in p.variables() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        }
        let width = vars.len();
        let var_idx: HashMap<&str, usize> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();

        // Borrow the fields the scan callback needs up front so it never
        // re-borrows `self` (the work counter accumulates locally).
        let dataset = self.dataset;
        let pool = &self.pool;
        let mut scanned = 0u64;

        // Compile each pushed filter at its shared attachment pattern
        // ([`crate::algebra::attach_filters`]).
        let mut pattern_filters: Vec<Vec<(usize, PushedEval)>> =
            crate::algebra::attach_filters(patterns, filters, |v| var_idx[v])
                .into_iter()
                .map(|routed| {
                    routed
                        .into_iter()
                        .map(|(col, f)| (col, PushedEval::compile(&f.var, &f.expr, pool)))
                        .collect()
                })
                .collect();

        // One all-absent row: the BGP extension identity.
        let mut cur: Vec<Column> = (0..width).map(|_| Column::absent(1)).collect();
        let mut cur_len = 1usize;
        // A variable is bound in *all* rows once any earlier pattern
        // mentioned it (every surviving row passed through that pattern).
        let mut bound = vec![false; width];

        for (pi, pattern) in patterns.iter().enumerate() {
            if cur_len == 0 {
                break;
            }
            // Resolve constants once per (pattern, graph) — local ids via
            // the dataset-wide interner, no per-row string hashing. A graph
            // where some constant does not occur contributes no matches.
            let pats: Vec<(&Graph, &GraphIdMap, [Slot; 3])> = graphs
                .iter()
                .filter_map(|(g, map)| {
                    let s = Self::pattern_slot(dataset, &pattern.subject, map, &var_idx)?;
                    let p = Self::pattern_slot(dataset, &pattern.predicate, map, &var_idx)?;
                    let o = Self::pattern_slot(dataset, &pattern.object, map, &var_idx)?;
                    Some((g.as_ref(), map.as_ref(), [s, p, o]))
                })
                .collect();

            // Classify the pattern's positions (graph-independent): which
            // columns the pattern newly binds (one value vector each), and
            // which positions repeat a newly-bound variable (`?x ?p ?x`)
            // and therefore need an equality check per match.
            let terms = [&pattern.subject, &pattern.predicate, &pattern.object];
            let mut free_cols: Vec<usize> = Vec::new(); // col per value slot
            let mut primaries: Vec<(usize, usize)> = Vec::new(); // (slot, position)
            let mut dup_checks: Vec<(usize, usize)> = Vec::new(); // (position, position)
            for (pos, term) in terms.iter().enumerate() {
                if let PatternTerm::Var(v) = term {
                    let col = var_idx[v.as_str()];
                    if bound[col] {
                        continue;
                    }
                    match free_cols.iter().position(|&c| c == col) {
                        Some(slot) => dup_checks.push((primaries[slot].1, pos)),
                        None => {
                            let slot = free_cols.len();
                            free_cols.push(col);
                            primaries.push((slot, pos));
                        }
                    }
                }
            }

            // Filters firing at this pattern, routed to the value slot
            // their variable binds into. Owned (not borrowed from
            // `pattern_filters`): the parallel path clones them per chunk,
            // and each compiled filter serves exactly this one pattern, so
            // its memo's lifetime is unchanged.
            let mut checks: Vec<(usize, PushedEval)> = std::mem::take(&mut pattern_filters[pi])
                .into_iter()
                .map(|(col, pe)| {
                    let slot = free_cols
                        .iter()
                        .position(|c| *c == col)
                        .expect("filter var is newly bound at its attachment pattern");
                    (slot, pe)
                })
                .collect();

            let n_slots = free_cols.len();
            let (pat_src, mut pat_vals, pat_scanned) = self.extend_rows(
                0..cur_len,
                &pats,
                &cur,
                &bound,
                &primaries,
                &dup_checks,
                &mut checks,
                n_slots,
            )?;
            scanned += pat_scanned;

            // Assemble the next table column-at-a-time.
            let total = pat_src.len();
            let mut next: Vec<Column> = Vec::with_capacity(width);
            for (col, cur_col) in cur.iter().enumerate() {
                if bound[col] {
                    let mut out = Column::with_capacity(total);
                    out.gather_from(cur_col, &pat_src);
                    next.push(out);
                } else if let Some(slot) = free_cols.iter().position(|&c| c == col) {
                    next.push(Column::from_ids(std::mem::take(&mut pat_vals[slot])));
                } else {
                    next.push(Column::absent(total));
                }
            }
            cur = next;
            cur_len = total;
            // Per-pattern intermediates never reach the operator-output
            // chokepoint, so check each assembled table here.
            if self.meter.is_active() {
                let bytes = cur
                    .iter()
                    .fold(0u64, |a, c| a.saturating_add(c.estimated_bytes()));
                self.meter.charge_intermediate(cur_len as u64, bytes)?;
            }
            for &col in &free_cols {
                bound[col] = true;
            }
        }
        self.rows_scanned += scanned;
        drop(var_idx);
        Ok(IdTable::from_columns(vars, cur, cur_len))
    }

    /// Extend the input rows `rows` (drawn from `cur`/`bound`) through one
    /// pattern's resolved graph scans, choosing between the sequential loop
    /// and the chunked parallel fan-out. Factored out of [`Self::eval_bgp`]
    /// so the streaming pipeline's BGP operator reuses the identical
    /// decision and loop bodies — result, `rows_scanned`, and parallel
    /// chunk-accounting parity is inherited rather than re-implemented.
    ///
    /// Parallel path: the rows fan out over chunks; each chunk runs the
    /// identical loop body with its own buffers, filter clones, caches, and
    /// a worker handle on the shared budget. Concatenating results in chunk
    /// order reproduces the sequential output byte for byte.
    #[allow(clippy::too_many_arguments)]
    fn extend_rows(
        &mut self,
        rows: Range<usize>,
        pats: &[(&Graph, &GraphIdMap, [Slot; 3])],
        cur: &[Column],
        bound: &[bool],
        primaries: &[(usize, usize)],
        dup_checks: &[(usize, usize)],
        checks: &mut Vec<(usize, PushedEval)>,
        n_slots: usize,
    ) -> Result<(Vec<u32>, Vec<Vec<TermId>>, u64)> {
        let len = rows.len();
        let pool = &self.pool;
        match &self.par {
            Some(p) if len >= PAR_MIN_ROWS => {
                let chunk = par_chunk_size(len, p.threads);
                let n_chunks = len.div_ceil(chunk);
                let shared = SharedMeter::new(&self.meter, n_chunks);
                let start = rows.start;
                let checks_ref = &*checks;
                let run = p.pool.run_chunks(len, chunk, |ci, range| {
                    let range = range.start + start..range.end + start;
                    let mut chunk_checks = checks_ref.clone();
                    let mut chunk_caches = EvalCaches::new();
                    let mut wm = shared.worker(ci);
                    bgp_scan_rows(
                        range,
                        pats,
                        cur,
                        bound,
                        primaries,
                        dup_checks,
                        &mut chunk_checks,
                        n_slots,
                        pool,
                        &mut chunk_caches,
                        &mut wm,
                    )
                });
                self.par_stats.chunks += run.chunks;
                self.par_stats.steals += run.steals;
                let merge_start = Instant::now();
                let mut src: Vec<u32> = Vec::new();
                let mut vals: Vec<Vec<TermId>> = (0..n_slots).map(|_| Vec::new()).collect();
                let mut pat_scanned = 0u64;
                let mut chunk_err: Option<EngineError> = None;
                for r in run.results {
                    match r {
                        Ok((s, v, n)) => {
                            pat_scanned += n;
                            src.extend_from_slice(&s);
                            for (dst, sv) in vals.iter_mut().zip(v) {
                                dst.extend(sv);
                            }
                        }
                        Err(e) => {
                            chunk_err.get_or_insert(e);
                        }
                    }
                }
                self.par_stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
                // Fold worker scan charges back and surface the first
                // recorded trip (sequential behavior: a tripped pattern
                // does not update `rows_scanned`).
                shared.finish(&mut self.meter)?;
                if let Some(e) = chunk_err {
                    return Err(e);
                }
                Ok((src, vals, pat_scanned))
            }
            _ => bgp_scan_rows(
                rows,
                pats,
                cur,
                bound,
                primaries,
                dup_checks,
                checks,
                n_slots,
                pool,
                &mut self.caches,
                &mut self.meter,
            ),
        }
    }

    /// Borrow the evaluator's term pool (the embedded cursor resolves
    /// result ids through it while streaming batches out).
    pub(crate) fn pool(&self) -> &TermPool<'a> {
        &self.pool
    }

    /// Body of [`Plan::Filter`] over an owned table. Row-independent, so
    /// the streaming pipeline applies it batch-at-a-time with identical
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

    /// Join (inner or left) of two inputs the optimizer proved sorted on
    /// `key`. Verifies the claim at run time (both key columns fully bound
    /// and non-decreasing — one linear pass, far cheaper than a hash build)
    /// and falls back to the hash join if storage reality disagrees with
    /// the static analysis.
    fn join_sorted(
        &mut self,
        left: IdTable,
        right: IdTable,
        key: &str,
        kind: JoinKind,
    ) -> Result<IdTable> {
        let keys = left.column_index(key).zip(right.column_index(key));
        let merge = keys.filter(|&(lc, rc)| sorted_key(left.col(lc)) && sorted_key(right.col(rc)));
        match (merge, kind) {
            (None, _) => {}
            (Some(_), JoinKind::Inner) => self.merge_joins += 1,
            (Some(_), JoinKind::Left) => self.merge_left_joins += 1,
        }
        self.join(left, right, kind, merge)
    }

    /// Columnar join (inner or left) with SPARQL compatibility semantics: a
    /// pair list from the one probe loop ([`Sides::probe`], which fixes the
    /// pair order and checks the list against the budget between left
    /// rows), then output columns gathered over it — shared columns take
    /// the left value when present and fall back to the right side.
    ///
    /// Candidates come from a [`JoinIndex`] over the right input (every
    /// build row keyed on all the shared variables it binds; charged to the
    /// budget once, when built) or, with `merge_keys` — the inputs' key
    /// columns, verified sorted and fully bound by the caller — from the
    /// right side's key run, a linear two-pointer merge. Same loop, same
    /// pair order: the merge rewrite is invisible downstream, differential
    /// oracles included.
    ///
    /// With a parallel context, left chunks probe the one shared index and
    /// their pair lists are concatenated in chunk order — the sequential
    /// pair list byte for byte, since a left row's candidates do not depend
    /// on which chunk it fell into.
    fn join(
        &mut self,
        left: IdTable,
        right: IdTable,
        kind: JoinKind,
        merge_keys: Option<(usize, usize)>,
    ) -> Result<IdTable> {
        let shape = JoinShape::new(&left.vars, &right.vars);
        let sides = Sides {
            shape: &shape,
            left: &left,
            right: &right,
            kind,
        };
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let (rows, all) = (0..left.len(), usize::MAX);
        if let Some((lc, rc)) = merge_keys {
            let mut run = 0usize;
            let key_run = merge_candidates(left.col(lc).ids(), right.col(rc).ids(), &mut run);
            let (_, tested) = sides.probe(rows, all, &mut pairs, &mut self.meter, key_run)?;
            self.join_candidates += tested;
            return Ok(assemble_join(&left, &right, shape.out_vars, &pairs));
        }
        let mut index = JoinIndex::new(&right, &shape);
        let masks = index.prepare(&left, &right, &shape);
        self.meter.charge_intermediate(0, index.estimated_bytes())?;
        let lookups = || index.candidates(&masks, &left, &shape.l_idx);
        if let Some(p) = self.par.as_ref().filter(|_| left.len() >= PAR_MIN_ROWS) {
            let chunk = par_chunk_size(left.len(), p.threads);
            let shared = SharedMeter::new(&self.meter, left.len().div_ceil(chunk));
            let run = p.pool.run_chunks(left.len(), chunk, |ci, range| {
                let (mut out, mut wm) = (Vec::new(), shared.worker(ci));
                let (_, tested) = sides.probe(range, all, &mut out, &mut wm, lookups())?;
                Ok::<_, EngineError>((out, tested))
            });
            self.par_stats.chunks += run.chunks;
            self.par_stats.steals += run.steals;
            let merge_start = Instant::now();
            let chunks: Result<Vec<_>> = run.results.into_iter().collect();
            shared.finish(&mut self.meter)?;
            for (mut out, tested) in chunks? {
                pairs.append(&mut out);
                self.join_candidates += tested;
            }
            self.par_stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
        } else {
            let (_, tested) = sides.probe(rows, all, &mut pairs, &mut self.meter, lookups())?;
            self.join_candidates += tested;
        }
        Ok(assemble_join(&left, &right, shape.out_vars, &pairs))
    }

    /// Pattern-level slot for one position: a constant bound to its local id
    /// (`None` when the constant is absent from the graph) or a variable's
    /// column index.
    fn pattern_slot(
        dataset: &Dataset,
        term: &PatternTerm,
        map: &GraphIdMap,
        var_idx: &HashMap<&str, usize>,
    ) -> Option<Slot> {
        match term {
            PatternTerm::Var(v) => Some(Slot::Var(var_idx[v.as_str()])),
            PatternTerm::Const(term) => {
                let global = dataset.lookup(term)?;
                let local = map.to_local(global)?;
                Some(Slot::Bound(local))
            }
        }
    }

    fn eval_group(
        &mut self,
        keys: &[String],
        aggs: &[AggSpec],
        sorted_on: &[String],
        input: IdTable,
    ) -> Result<IdTable> {
        let key_indices: Vec<Option<usize>> = keys.iter().map(|k| input.column_index(k)).collect();

        // Per-aggregate execution plan, id-native where the shape allows:
        //
        // - `COUNT[ DISTINCT](?v)` counts ids straight off the column.
        // - `SUM/AVG/MIN/MAX(?v)` over a column whose bound values are all
        //   numeric literals (no NaN) accumulates parsed `i64`/`f64`
        //   without materializing a term per row; mixed-type columns fall
        //   back to the general term path.
        // - `SAMPLE(?v)` takes the first bound id.
        // - Everything else evaluates the expression per row (the
        //   materialization boundary for aggregates).
        enum AggPlan<'e> {
            Star,
            CountCol { idx: usize, distinct: bool },
            NumericCol { idx: usize, distinct: bool },
            SampleCol { idx: usize },
            General(&'e Expr),
        }
        // The numeric precheck is O(rows); memoize per column so repeated
        // aggregates over one column (MIN+MAX+SUM+AVG of ?v) scan it once.
        let mut numeric_memo: HashMap<usize, bool> = HashMap::new();
        let plans: Vec<AggPlan> = aggs
            .iter()
            .map(|spec| match &spec.expr {
                None => AggPlan::Star,
                Some(Expr::Var(v)) => match input.column_index(v) {
                    Some(idx) => match spec.op {
                        AggOp::Count => AggPlan::CountCol {
                            idx,
                            distinct: spec.distinct,
                        },
                        AggOp::Sample => AggPlan::SampleCol { idx },
                        AggOp::Sum | AggOp::Avg | AggOp::Min | AggOp::Max => {
                            let numeric = *numeric_memo
                                .entry(idx)
                                .or_insert_with(|| self.numeric_column(input.col(idx)));
                            if numeric {
                                AggPlan::NumericCol {
                                    idx,
                                    distinct: spec.distinct,
                                }
                            } else {
                                AggPlan::General(spec.expr.as_ref().unwrap())
                            }
                        }
                    },
                    // Variable absent from the input: the general path
                    // produces the op's empty/unbound result.
                    None => AggPlan::General(spec.expr.as_ref().unwrap()),
                },
                Some(e) => AggPlan::General(e),
            })
            .collect();

        enum AggAccum {
            Terms(AggState),
            CountIds {
                seen: Option<HashSet<TermId>>,
                count: usize,
            },
            Numeric(NumericAccum),
            First(Option<TermId>),
        }
        let fresh_accums = |aggs: &[AggSpec], plans: &[AggPlan]| -> Vec<AggAccum> {
            aggs.iter()
                .zip(plans)
                .map(|(a, plan)| match plan {
                    AggPlan::CountCol { distinct, .. } => AggAccum::CountIds {
                        seen: distinct.then(HashSet::new),
                        count: 0,
                    },
                    AggPlan::NumericCol { distinct, .. } => {
                        AggAccum::Numeric(NumericAccum::new(*distinct))
                    }
                    AggPlan::SampleCol { .. } => AggAccum::First(None),
                    // General exprs: DISTINCT dedups on pool ids.
                    _ => AggAccum::Terms(AggState::new_id_distinct(a.op, a.distinct)),
                })
                .collect()
        };

        // Group index: encoded id-tuple key → position in `groups`. Hashing
        // u64-encoded cells (bijective), never terms. The common single-key
        // case hashes one u64 with no per-row allocation. Over an input the
        // optimizer proved sorted with the keys as an order prefix, hashing
        // disappears entirely: equal keys are adjacent, so a strict
        // increase on the prefix columns *is* a group boundary
        // (`GroupIndex::Sorted`). Both strategies emit groups in
        // first-occurrence order, so they are interchangeable row for row.
        enum GroupIndex {
            One(HashMap<u64, usize>),
            Many(HashMap<Vec<u64>, usize>),
            /// Run detection over these (fully bound, presorted — verified
            /// below) key-prefix columns.
            Sorted(Vec<usize>),
        }
        let sorted_cols = self.sorted_group_columns(sorted_on, keys, &input);

        // Rough per-group footprint (key ids + accumulator state) for the
        // memory axis: grouping state is the one allocation that grows
        // without a corresponding operator output until the loop ends.
        let group_bytes =
            (keys.len() as u64).saturating_mul(16) + (aggs.len() as u64).saturating_mul(64);

        // Parallel grouping: eligible when the input is large, grouping is
        // by hash (run detection is already one cheap sequential pass), and
        // every aggregate merges across chunks without order sensitivity —
        // COUNT/COUNT(*) (count sums / seen-set unions), SAMPLE (first
        // non-empty in chunk order), and id-native MIN/MAX (strict-
        // improvement merge in chunk order preserves first-wins ties).
        // `f64` SUM/AVG stay sequential: float addition is non-associative
        // and byte-identical output is the contract.
        let par_eligible = sorted_cols.is_none()
            && input.len() >= PAR_MIN_ROWS
            && plans.iter().zip(aggs).all(|(plan, spec)| match plan {
                AggPlan::Star | AggPlan::CountCol { .. } | AggPlan::SampleCol { .. } => true,
                AggPlan::NumericCol { .. } => matches!(spec.op, AggOp::Min | AggOp::Max),
                AggPlan::General(_) => false,
            });
        if par_eligible {
            if let Some(p) = self.par.clone() {
                // Chunk-local accumulator restricted to the mergeable
                // shapes (mirrors the sequential accumulators exactly).
                enum ParAccum {
                    Count {
                        seen: Option<HashSet<TermId>>,
                        count: usize,
                    },
                    MinMax(Option<(TermId, NumVal)>),
                    First(Option<TermId>),
                }
                // Encoded group key: bijective cell codes, so code equality
                // is cell equality (same contract as the sequential index).
                #[derive(Clone, PartialEq, Eq, Hash)]
                enum KeyEnc {
                    One(u64),
                    Many(Vec<u64>),
                }
                let fresh_par = |plans: &[AggPlan]| -> Vec<ParAccum> {
                    plans
                        .iter()
                        .map(|plan| match plan {
                            AggPlan::Star => ParAccum::Count {
                                seen: None,
                                count: 0,
                            },
                            AggPlan::CountCol { distinct, .. } => ParAccum::Count {
                                seen: distinct.then(HashSet::new),
                                count: 0,
                            },
                            AggPlan::NumericCol { .. } => ParAccum::MinMax(None),
                            AggPlan::SampleCol { .. } => ParAccum::First(None),
                            AggPlan::General(_) => unreachable!("gated out of the parallel path"),
                        })
                        .collect()
                };

                let chunk = par_chunk_size(input.len(), p.threads);
                let n_chunks = input.len().div_ceil(chunk);
                let shared = SharedMeter::new(&self.meter, n_chunks);
                let pool = &self.pool;
                let input_ref = &input;
                let plans_ref = &plans;
                let key_idx_ref = &key_indices;
                let single_key = key_indices.len() == 1;
                let run = p.pool.run_chunks(input.len(), chunk, |ci, range| {
                    let mut wm = shared.worker(ci);
                    let mut map: HashMap<KeyEnc, usize> = HashMap::new();
                    let mut groups: Vec<(KeyEnc, Vec<Option<TermId>>, Vec<ParAccum>)> = Vec::new();
                    for i in range {
                        // Same per-row budget shape as the sequential loop;
                        // the shared meter sums live group state across
                        // chunks (that memory really is held concurrently).
                        wm.charge_intermediate(
                            groups.len() as u64,
                            (groups.len() as u64).saturating_mul(group_bytes),
                        )?;
                        let enc = if single_key {
                            KeyEnc::One(match key_idx_ref[0] {
                                Some(c) => input_ref.col(c).hash_code(i),
                                None => 0,
                            })
                        } else {
                            KeyEnc::Many(
                                key_idx_ref
                                    .iter()
                                    .map(|ki| match ki {
                                        Some(c) => input_ref.col(*c).hash_code(i),
                                        None => 0,
                                    })
                                    .collect(),
                            )
                        };
                        let slot = map.entry(enc.clone()).or_insert(usize::MAX);
                        let gi = if *slot == usize::MAX {
                            *slot = groups.len();
                            let key: Vec<Option<TermId>> = key_idx_ref
                                .iter()
                                .map(|ki| ki.and_then(|c| input_ref.get(i, c)))
                                .collect();
                            groups.push((enc, key, fresh_par(plans_ref)));
                            groups.len() - 1
                        } else {
                            *slot
                        };
                        for ((accum, plan), spec) in
                            groups[gi].2.iter_mut().zip(plans_ref.iter()).zip(aggs)
                        {
                            match (accum, plan) {
                                (ParAccum::Count { count, .. }, AggPlan::Star) => *count += 1,
                                (
                                    ParAccum::Count { seen, count },
                                    AggPlan::CountCol { idx, .. },
                                ) => {
                                    if let Some(id) = input_ref.get(i, *idx) {
                                        match seen {
                                            Some(set) => {
                                                if set.insert(id) {
                                                    *count += 1;
                                                }
                                            }
                                            None => *count += 1,
                                        }
                                    }
                                }
                                (ParAccum::MinMax(best), AggPlan::NumericCol { idx, .. }) => {
                                    if let Some(id) = input_ref.get(i, *idx) {
                                        let v = match pool.resolve(id) {
                                            Term::Literal(l) => match l.parsed {
                                                TypedValue::Integer(x) => NumVal::I(x),
                                                TypedValue::Double(d) => NumVal::D(d),
                                                _ => unreachable!("numeric_column checked"),
                                            },
                                            _ => unreachable!("numeric_column checked"),
                                        };
                                        let better = match spec.op {
                                            AggOp::Min => Ordering::Less,
                                            _ => Ordering::Greater,
                                        };
                                        if best.is_none_or(|(_, m)| v.cmp_sparql(m) == better) {
                                            *best = Some((id, v));
                                        }
                                    }
                                }
                                (ParAccum::First(first), AggPlan::SampleCol { idx }) => {
                                    if first.is_none() {
                                        *first = input_ref.get(i, *idx);
                                    }
                                }
                                _ => unreachable!("accumulator/plan shape mismatch"),
                            }
                        }
                    }
                    Ok::<_, EngineError>(groups)
                });
                self.par_stats.chunks += run.chunks;
                self.par_stats.steals += run.steals;

                // Merge chunk groups in chunk order: chunk concatenation
                // order is row order, so the first chunk (and within it the
                // first row) to produce a key is the global first
                // occurrence — the sequential group order exactly.
                let merge_start = Instant::now();
                let mut global: HashMap<KeyEnc, usize> = HashMap::new();
                let mut merged: Vec<(Vec<Option<TermId>>, Vec<ParAccum>)> = Vec::new();
                let mut chunk_err: Option<EngineError> = None;
                for r in run.results {
                    let chunk_groups = match r {
                        Ok(g) => g,
                        Err(e) => {
                            chunk_err.get_or_insert(e);
                            continue;
                        }
                    };
                    for (enc, key, accums) in chunk_groups {
                        let slot = global.entry(enc).or_insert(usize::MAX);
                        if *slot == usize::MAX {
                            *slot = merged.len();
                            merged.push((key, accums));
                            continue;
                        }
                        let dst = &mut merged[*slot].1;
                        for ((d, s), spec) in dst.iter_mut().zip(accums).zip(aggs) {
                            match (d, s) {
                                (
                                    ParAccum::Count { seen: None, count },
                                    ParAccum::Count {
                                        seen: None,
                                        count: c2,
                                    },
                                ) => *count += c2,
                                (
                                    ParAccum::Count {
                                        seen: Some(set),
                                        count,
                                    },
                                    ParAccum::Count {
                                        seen: Some(other), ..
                                    },
                                ) => {
                                    // Distinct count = size of the union.
                                    for id in other {
                                        if set.insert(id) {
                                            *count += 1;
                                        }
                                    }
                                }
                                (ParAccum::MinMax(best), ParAccum::MinMax(theirs)) => {
                                    if let Some((id, v)) = theirs {
                                        let better = match spec.op {
                                            AggOp::Min => Ordering::Less,
                                            _ => Ordering::Greater,
                                        };
                                        // Strict improvement only: a tie
                                        // keeps the earlier chunk's id
                                        // (first-wins, like row order).
                                        if best.is_none_or(|(_, m)| v.cmp_sparql(m) == better) {
                                            *best = Some((id, v));
                                        }
                                    }
                                }
                                (ParAccum::First(first), ParAccum::First(theirs)) => {
                                    if first.is_none() {
                                        *first = theirs;
                                    }
                                }
                                _ => unreachable!("accumulator shape mismatch across chunks"),
                            }
                        }
                    }
                }
                self.par_stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;
                shared.finish(&mut self.meter)?;
                if let Some(e) = chunk_err {
                    return Err(e);
                }
                self.meter.charge_intermediate(
                    merged.len() as u64,
                    (merged.len() as u64).saturating_mul(group_bytes),
                )?;

                // Finish on the main thread in merged (= sequential) order:
                // every interned term and its order match the sequential
                // path, keeping the pool state identical too.
                let mut out_vars: Vec<String> = keys.to_vec();
                out_vars.extend(aggs.iter().map(|a| a.output.clone()));
                let mut key_cols: Vec<Column> = (0..keys.len())
                    .map(|_| Column::with_capacity(merged.len()))
                    .collect();
                let mut agg_cols: Vec<Column> = (0..aggs.len())
                    .map(|_| Column::with_capacity(merged.len()))
                    .collect();
                let n_groups = merged.len();
                for (key, accums) in merged {
                    for (col, v) in key_cols.iter_mut().zip(key) {
                        col.push(v);
                    }
                    for (col, accum) in agg_cols.iter_mut().zip(accums) {
                        let value: Option<TermId> = match accum {
                            ParAccum::Count { count, .. } => {
                                Some(self.pool.intern(Term::integer(count as i64)))
                            }
                            ParAccum::MinMax(best) => best.map(|(id, _)| id),
                            ParAccum::First(id) => id,
                        };
                        col.push(value);
                    }
                }
                key_cols.extend(agg_cols);
                return Ok(IdTable::from_columns(out_vars, key_cols, n_groups));
            }
        }

        let mut index = match sorted_cols {
            Some(cols) => {
                self.sorted_groups += 1;
                GroupIndex::Sorted(cols)
            }
            None if key_indices.len() == 1 => GroupIndex::One(HashMap::new()),
            None => GroupIndex::Many(HashMap::new()),
        };
        let mut groups: Vec<(Vec<Option<TermId>>, Vec<AggAccum>)> = Vec::new();

        let implicit_single_group = keys.is_empty();
        if implicit_single_group {
            if let GroupIndex::Many(m) = &mut index {
                m.insert(Vec::new(), 0);
            }
            groups.push((Vec::new(), fresh_accums(aggs, &plans)));
        }

        for i in 0..input.len() {
            self.meter.charge_intermediate(
                groups.len() as u64,
                (groups.len() as u64).saturating_mul(group_bytes),
            )?;
            // `None` = this row starts a new group; `Some(gi)` = it joins
            // group `gi` (any earlier one for the hash strategies, always
            // the most recent for run detection).
            let existing: Option<usize> = match &mut index {
                GroupIndex::One(m) => {
                    let enc = match key_indices[0] {
                        Some(c) => input.col(c).hash_code(i),
                        None => 0,
                    };
                    let slot = m.entry(enc).or_insert(usize::MAX);
                    if *slot == usize::MAX {
                        *slot = groups.len();
                        None
                    } else {
                        Some(*slot)
                    }
                }
                GroupIndex::Many(m) => {
                    let key_enc: Vec<u64> = key_indices
                        .iter()
                        .map(|ki| match ki {
                            Some(c) => input.col(*c).hash_code(i),
                            None => 0,
                        })
                        .collect();
                    let slot = m.entry(key_enc).or_insert(usize::MAX);
                    if *slot == usize::MAX {
                        *slot = groups.len();
                        None
                    } else {
                        Some(*slot)
                    }
                }
                GroupIndex::Sorted(cols) => {
                    // Presorted input: a neighbor differing on any prefix
                    // column starts a new group; equal neighbors extend the
                    // last one. (Non-adjacency of equal keys is impossible
                    // — sortedness was verified.)
                    if i == 0 || lex_cmp_prev(&input, cols, i) != Ordering::Equal {
                        None
                    } else {
                        Some(groups.len() - 1)
                    }
                }
            };
            let gi = match existing {
                Some(gi) => gi,
                None => {
                    let gi = groups.len();
                    let key: Vec<Option<TermId>> = key_indices
                        .iter()
                        .map(|ki| ki.and_then(|c| input.get(i, c)))
                        .collect();
                    groups.push((key, fresh_accums(aggs, &plans)));
                    gi
                }
            };
            for (accum, plan) in groups[gi].1.iter_mut().zip(&plans) {
                match (accum, plan) {
                    (AggAccum::Terms(state), AggPlan::Star) => state.push_star(),
                    (AggAccum::Terms(state), AggPlan::General(e)) => {
                        let value = {
                            let buf = &mut self.scratch;
                            input.read_row(i, buf);
                            let ctx = IdRowCtx {
                                vars: &input.vars,
                                row: buf,
                                pool: &self.pool,
                            };
                            eval_expr(e, ctx, &mut self.caches)
                        };
                        state.push_pooled(value, &mut self.pool);
                    }
                    (AggAccum::CountIds { seen, count }, AggPlan::CountCol { idx, .. }) => {
                        if let Some(id) = input.get(i, *idx) {
                            match seen {
                                Some(set) => {
                                    if set.insert(id) {
                                        *count += 1;
                                    }
                                }
                                None => *count += 1,
                            }
                        }
                    }
                    (AggAccum::Numeric(acc), AggPlan::NumericCol { idx, .. }) => {
                        if let Some(id) = input.get(i, *idx) {
                            let v = match self.pool.resolve(id) {
                                Term::Literal(l) => match l.parsed {
                                    TypedValue::Integer(x) => NumVal::I(x),
                                    TypedValue::Double(d) => NumVal::D(d),
                                    _ => unreachable!("numeric_column checked"),
                                },
                                _ => unreachable!("numeric_column checked"),
                            };
                            acc.push(id, v);
                        }
                    }
                    (AggAccum::First(first), AggPlan::SampleCol { idx }) => {
                        if first.is_none() {
                            *first = input.get(i, *idx);
                        }
                    }
                    _ => unreachable!("accumulator/plan shape mismatch"),
                }
            }
        }

        let mut out_vars: Vec<String> = keys.to_vec();
        out_vars.extend(aggs.iter().map(|a| a.output.clone()));
        let mut key_cols: Vec<Column> = (0..keys.len())
            .map(|_| Column::with_capacity(groups.len()))
            .collect();
        let mut agg_cols: Vec<Column> = (0..aggs.len())
            .map(|_| Column::with_capacity(groups.len()))
            .collect();
        let n_groups = groups.len();
        for (key, accums) in groups {
            for (col, v) in key_cols.iter_mut().zip(key) {
                col.push(v);
            }
            for ((col, accum), spec) in agg_cols.iter_mut().zip(accums).zip(aggs) {
                // Aggregate results are computed terms; intern them so the
                // column stays id-native for downstream operators.
                let value: Option<TermId> = match accum {
                    AggAccum::Terms(state) => state.finish().map(|t| self.pool.intern(t)),
                    AggAccum::CountIds { count, .. } => {
                        Some(self.pool.intern(Term::integer(count as i64)))
                    }
                    AggAccum::Numeric(acc) => acc.finish(spec.op, &mut self.pool),
                    AggAccum::First(id) => id,
                };
                col.push(value);
            }
        }
        key_cols.extend(agg_cols);
        Ok(IdTable::from_columns(out_vars, key_cols, n_groups))
    }

    /// Validate a [`Plan::Group`]'s `sorted_on` claim against the actual
    /// input, returning the prefix column indexes to run-detect on, or
    /// `None` for the hash fallback. Checks (all linear or cheaper): the
    /// annotation is present, its variables and the grouping keys name the
    /// same column set, every prefix column exists and is fully bound, and
    /// the rows really are lexicographically non-decreasing on the prefix
    /// sequence — the same trust-but-verify contract as the merge joins.
    fn sorted_group_columns(
        &self,
        sorted_on: &[String],
        keys: &[String],
        input: &IdTable,
    ) -> Option<Vec<usize>> {
        if sorted_on.is_empty() {
            return None;
        }
        // Set equality with the keys (the optimizer guarantees it; a stale
        // or hand-built plan must not silently misgroup).
        if !keys.iter().all(|k| sorted_on.contains(k))
            || !sorted_on.iter().all(|v| keys.contains(v))
        {
            return None;
        }
        let cols: Vec<usize> = sorted_on
            .iter()
            .map(|v| input.column_index(v))
            .collect::<Option<Vec<_>>>()?;
        if cols.iter().any(|&c| !input.col(c).all_present()) {
            return None;
        }
        let sorted = (1..input.len()).all(|i| lex_cmp_prev(input, &cols, i) != Ordering::Greater);
        sorted.then_some(cols)
    }

    /// Is every bound value in the column a numeric literal (and no NaN,
    /// whose SPARQL ordering falls back to lexical comparison)? One linear
    /// id scan; terms are inspected by reference, never cloned.
    fn numeric_column(&self, col: &Column) -> bool {
        for i in 0..col.len() {
            if let Some(id) = col.get(i) {
                match self.pool.resolve(id) {
                    Term::Literal(l) => match l.parsed {
                        TypedValue::Integer(_) => {}
                        TypedValue::Double(d) if !d.is_nan() => {}
                        _ => return false,
                    },
                    _ => return false,
                }
            }
        }
        true
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

    fn sort_rows(&mut self, table: &mut IdTable, keys: &[OrderKey]) {
        if let Some(perm) = self.rank_sort_perm(table, keys, None) {
            *table = table.gather_rows(&perm);
            return;
        }
        let mut keyed = self.keyed_rows(table, keys);
        // (key, seq) is a total order equal to a stable sort on key alone.
        keyed.sort_unstable_by(|a, b| compare_keyed(keys, a, b));
        let perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i as u32).collect();
        *table = table.gather_rows(&perm);
    }

    /// Bounded ORDER BY: select the first `k` rows of the sorted order
    /// without fully sorting the input (`Slice ∘ OrderBy` fusion). Produces
    /// exactly the rows a stable full sort followed by `truncate(k)` would.
    fn top_k(&mut self, table: &mut IdTable, keys: &[OrderKey], k: usize) {
        if k == 0 {
            *table = table.gather_rows(&[]);
            return;
        }
        if let Some(perm) = self.rank_sort_perm(table, keys, Some(k)) {
            *table = table.gather_rows(&perm);
            return;
        }
        let mut keyed = self.keyed_rows(table, keys);
        if keyed.len() > k {
            // O(n) partition around the k-th row, then sort only the prefix.
            keyed.select_nth_unstable_by(k - 1, |a, b| compare_keyed(keys, a, b));
            keyed.truncate(k);
        }
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
    /// overflow terms), or the fast path is disabled — callers then fall
    /// back to the term-keyed sort, which produces the identical order.
    fn rank_sort_perm(
        &self,
        table: &IdTable,
        keys: &[OrderKey],
        k: Option<usize>,
    ) -> Option<Vec<u32>> {
        if !self.rank_sort || keys.is_empty() {
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

/// One BGP extension pass over the input rows in `rows` for a single
/// pattern: refine the pattern's slots against each row, scan every graph's
/// access path, apply duplicate-variable and pushed-filter checks, and
/// append matches as a gather index (the *global* input row number) plus
/// one value per newly-bound slot.
///
/// Factored out of [`Evaluator::eval_bgp`] so the sequential path (whole
/// range, the evaluator's [`BudgetMeter`]) and each parallel chunk
/// (sub-range, a [`crate::budget::WorkerMeter`]) run the identical loop
/// body: concatenating chunk results in chunk order reproduces the
/// sequential match order exactly (gather indexes ascend within and across
/// chunks), and summing the returned scan counts reproduces `rows_scanned`
/// exactly (per-row scan work is independent of the partitioning).
#[allow(clippy::too_many_arguments)]
fn bgp_scan_rows<M: OpMeter>(
    rows: Range<usize>,
    pats: &[(&Graph, &GraphIdMap, [Slot; 3])],
    cur: &[Column],
    bound: &[bool],
    primaries: &[(usize, usize)],
    dup_checks: &[(usize, usize)],
    checks: &mut [(usize, PushedEval)],
    n_slots: usize,
    pool: &TermPool,
    caches: &mut EvalCaches,
    meter: &mut M,
) -> Result<(Vec<u32>, Vec<Vec<TermId>>, u64)> {
    let mut src: Vec<u32> = Vec::new();
    let mut vals: Vec<Vec<TermId>> = (0..n_slots).map(|_| Vec::new()).collect();
    let mut scanned = 0u64;
    for i in rows {
        let row_start = scanned;
        for (g, map, slots) in pats {
            // Refine slots against row `i`: an already-bound variable whose
            // global id has no local id in this graph can match nothing
            // here.
            let mut refined = [None; 3];
            let mut ok = true;
            for (pos, slot) in slots.iter().enumerate() {
                refined[pos] = match slot {
                    Slot::Bound(local) => Some(*local),
                    Slot::Var(col) if bound[*col] => match map.to_local(cur[*col].ids()[i]) {
                        Some(local) => Some(local),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    Slot::Var(_) => None,
                };
            }
            if !ok {
                continue;
            }
            let row = i as u32;
            scanned += g.for_each_match(refined[0], refined[1], refined[2], |ms, mp, mo| {
                let m = [ms, mp, mo];
                if dup_checks.iter().any(|&(a, b)| m[a] != m[b]) {
                    return;
                }
                // Translate newly-bound values first: pushed filters test
                // global ids, and a rejected candidate must touch no
                // buffer at all.
                let mut globals = [TermId(0); 3];
                for &(slot, pos) in primaries {
                    globals[slot] = map.to_global(m[pos]);
                }
                for (slot, pe) in checks.iter_mut() {
                    if !pe.test(globals[*slot], pool, caches) {
                        return;
                    }
                }
                src.push(row);
                for &(slot, _) in primaries {
                    vals[slot].push(globals[slot]);
                }
            });
        }
        // Budget checkpoint between rows: the scan work this row added,
        // plus (when the periodic poll fires) the match buffers' current
        // size. `for_each_match` has no early exit, so overshoot is
        // bounded by one row's matches per executing worker.
        if meter.charge_scan(scanned - row_start)? {
            let bytes = (src.len() as u64).saturating_mul(4).saturating_add(
                vals.iter()
                    .fold(0u64, |a, v| a.saturating_add(v.len() as u64 * 4)),
            );
            meter.charge_intermediate(src.len() as u64, bytes)?;
        }
    }
    Ok((src, vals, scanned))
}

/// Pattern-level binding of one triple position.
#[derive(Clone, Copy)]
enum Slot {
    /// Constant, resolved to the graph's local id.
    Bound(TermId),
    /// Variable at this column index (bound-ness is uniform per pattern).
    Var(usize),
}

/// A numeric value as SPARQL compares it: `i64` when both sides are
/// integers, `f64` otherwise. The column precheck guarantees no NaN.
#[derive(Debug, Clone, Copy)]
enum NumVal {
    I(i64),
    D(f64),
}

impl NumVal {
    fn as_f64(self) -> f64 {
        match self {
            NumVal::I(i) => i as f64,
            NumVal::D(d) => d,
        }
    }

    /// SPARQL numeric comparison (mirrors `Term::value_cmp` on two numeric
    /// literals, which `order_cmp` delegates to).
    fn cmp_sparql(self, other: NumVal) -> Ordering {
        match (self, other) {
            (NumVal::I(a), NumVal::I(b)) => a.cmp(&b),
            _ => self
                .as_f64()
                .partial_cmp(&other.as_f64())
                .expect("NaN excluded by numeric_column"),
        }
    }
}

/// Id-native accumulator for `SUM`/`AVG`/`MIN`/`MAX` over a numeric-literal
/// column. Mirrors [`AggState`]'s arithmetic exactly (wrapping integer sum,
/// `f64` shadow sum in row order, first-wins ties for MIN/MAX) but never
/// materializes a term: MIN/MAX track the winning *id*, which downstream
/// operators and the final projection resolve like any other binding.
struct NumericAccum {
    seen: Option<HashSet<TermId>>,
    count: usize,
    int_sum: i64,
    f_sum: f64,
    integral: bool,
    min: Option<(TermId, NumVal)>,
    max: Option<(TermId, NumVal)>,
}

impl NumericAccum {
    fn new(distinct: bool) -> Self {
        NumericAccum {
            seen: distinct.then(HashSet::new),
            count: 0,
            int_sum: 0,
            f_sum: 0.0,
            integral: true,
            min: None,
            max: None,
        }
    }

    fn push(&mut self, id: TermId, v: NumVal) {
        if let Some(seen) = &mut self.seen {
            if !seen.insert(id) {
                return;
            }
        }
        self.count += 1;
        match v {
            NumVal::I(i) => {
                self.int_sum = self.int_sum.wrapping_add(i);
                self.f_sum += i as f64;
            }
            NumVal::D(d) => {
                self.integral = false;
                self.f_sum += d;
            }
        }
        if self
            .min
            .is_none_or(|(_, m)| v.cmp_sparql(m) == Ordering::Less)
        {
            self.min = Some((id, v));
        }
        if self
            .max
            .is_none_or(|(_, m)| v.cmp_sparql(m) == Ordering::Greater)
        {
            self.max = Some((id, v));
        }
    }

    fn finish(self, op: AggOp, pool: &mut TermPool) -> Option<TermId> {
        match op {
            AggOp::Sum => Some(if self.integral {
                pool.intern(Term::integer(self.int_sum))
            } else {
                pool.intern(Term::Literal(Literal::double(self.f_sum)))
            }),
            AggOp::Avg => Some(if self.count == 0 {
                pool.intern(Term::integer(0))
            } else {
                pool.intern(Term::Literal(Literal::double(
                    self.f_sum / self.count as f64,
                )))
            }),
            AggOp::Min => self.min.map(|(id, _)| id),
            AggOp::Max => self.max.map(|(id, _)| id),
            _ => unreachable!("NumericCol only plans SUM/AVG/MIN/MAX"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Inner,
    Left,
}

/// Marker for "left row had no match" in the pair list of a left join.
const NO_MATCH: u32 = u32::MAX;

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
    /// streaming join, so its operator builds the shape once).
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
/// the streaming pipeline applies it per batch.
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

/// Hash-based DISTINCT (keeps first occurrences): the general path, and the
/// fallback when a [`Plan::SortedDistinct`] claim fails at run time.
fn hash_distinct(mut t: IdTable) -> IdTable {
    let width = t.vars.len();
    let mut keep = Vec::with_capacity(t.len());
    if width == 1 {
        // Single column: dedup on bare u64 codes, no row keys.
        let mut seen: HashSet<u64> = HashSet::with_capacity(t.len());
        let col = t.col(0);
        for i in 0..t.len() {
            keep.push(seen.insert(col.hash_code(i)));
        }
    } else {
        let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(t.len());
        for i in 0..t.len() {
            let key: Vec<u64> = (0..width).map(|c| t.col(c).hash_code(i)).collect();
            keep.push(seen.insert(key));
        }
    }
    t.filter_mask(&keep);
    t
}

/// Linear run-detection DISTINCT over a table claimed sorted on `order`.
///
/// Eligibility is re-verified here, not trusted: every order variable must
/// be a column, every column must appear in the order (otherwise rows equal
/// on the order columns could still differ and run detection would
/// over-delete), every order column must be fully bound, and the rows must
/// actually be lexicographically non-decreasing on the order sequence. The
/// sortedness check and the dedup are one fused pass: a strictly greater
/// neighbor starts a new run (keep), an equal neighbor is a duplicate
/// (drop — order covers all columns, so order-equal means row-equal), and
/// an out-of-order neighbor aborts to `None` (hash fallback).
fn sorted_distinct_mask(t: &IdTable, order: &[String]) -> Option<Vec<bool>> {
    let cols: Vec<usize> = order
        .iter()
        .map(|v| t.column_index(v))
        .collect::<Option<Vec<_>>>()?;
    // Coverage: duplicate-named columns are clones by construction
    // (projection copies the first occurrence), so name coverage is column
    // coverage.
    if !t.vars.iter().all(|v| order.contains(v)) {
        return None;
    }
    if cols.iter().any(|&c| !t.col(c).all_present()) {
        return None;
    }
    let mut keep = Vec::with_capacity(t.len());
    if !t.is_empty() {
        keep.push(true);
    }
    for i in 1..t.len() {
        match lex_cmp_prev(t, &cols, i) {
            Ordering::Greater => return None, // claim was wrong: fall back
            Ordering::Less => keep.push(true),
            Ordering::Equal => keep.push(false),
        }
    }
    Some(keep)
}

/// Compare rows `i-1` and `i` lexicographically on `cols` by raw id (the
/// one comparator behind every run-time sortedness check and run
/// detection — callers must have verified the columns fully bound).
#[inline]
fn lex_cmp_prev(t: &IdTable, cols: &[usize], i: usize) -> Ordering {
    for &c in cols {
        let ids = t.col(c).ids();
        let ord = ids[i - 1].cmp(&ids[i]);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Emit join output columns by gathering over a `(left row, right row)`
/// pair list (`NO_MATCH` right = unmatched left row of a left join).
fn assemble_join(
    left: &IdTable,
    right: &IdTable,
    out_vars: Vec<String>,
    pairs: &[(u32, u32)],
) -> IdTable {
    let mut cols: Vec<Column> = Vec::with_capacity(out_vars.len());
    for v in &out_vars {
        let mut col = Column::with_capacity(pairs.len());
        match (left.column_index(v), right.column_index(v)) {
            (Some(lc), Some(rc)) => {
                // Shared: left value when present, else the right side's.
                for &(li, ri) in pairs {
                    let value = match left.get(li as usize, lc) {
                        Some(x) => Some(x),
                        None if ri != NO_MATCH => right.get(ri as usize, rc),
                        None => None,
                    };
                    col.push(value);
                }
            }
            (Some(lc), None) => {
                for &(li, _) in pairs {
                    col.push(left.get(li as usize, lc));
                }
            }
            (None, Some(rc)) => {
                for &(_, ri) in pairs {
                    col.push(if ri == NO_MATCH {
                        None
                    } else {
                        right.get(ri as usize, rc)
                    });
                }
            }
            (None, None) => unreachable!("out var comes from one side"),
        }
        cols.push(col);
    }
    let rows = pairs.len();
    IdTable::from_columns(out_vars, cols, rows)
}

/// Bag union with schema alignment (column-at-a-time concatenation).
fn union(left: IdTable, right: IdTable) -> IdTable {
    let mut vars = left.vars.clone();
    for v in &right.vars {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    let total = left.len() + right.len();
    let mut cols = Vec::with_capacity(vars.len());
    for v in &vars {
        let mut col = Column::with_capacity(total);
        match left.column_index(v) {
            Some(lc) => {
                for i in 0..left.len() {
                    col.push(left.get(i, lc));
                }
            }
            None => {
                for _ in 0..left.len() {
                    col.push(None);
                }
            }
        }
        match right.column_index(v) {
            Some(rc) => {
                for i in 0..right.len() {
                    col.push(right.get(i, rc));
                }
            }
            None => {
                for _ in 0..right.len() {
                    col.push(None);
                }
            }
        }
        cols.push(col);
    }
    IdTable::from_columns(vars, cols, total)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn hash_join(a: IdTable, b: IdTable, kind: JoinKind) -> IdTable {
        let ds = Dataset::new();
        Evaluator::new(&ds, Vec::new())
            .join(a, b, kind, None)
            .unwrap()
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
        let u = union(a, b);
        assert_eq!(u.vars, vec!["x", "y", "z"]);
        assert_eq!(rows_of(&u)[0], vec![i(1), i(2), None]);
        assert_eq!(rows_of(&u)[1], vec![None, i(5), i(6)]);
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
        let via_hash = hash_join(left.clone(), right.clone(), JoinKind::Left);
        let ds = Dataset::new();
        let mut ev = Evaluator::new(&ds, Vec::new());
        let via_merge = ev.join(left, right, JoinKind::Left, Some((0, 0))).unwrap();
        // The merge run tests every same-?x row; the hash index keys the
        // (x, g) rows on both and tested one pair fewer.
        assert_eq!(ev.join_candidates(), 3);
        assert_eq!(rows_of(&via_hash), rows_of(&via_merge));
        assert_eq!(via_hash.vars, via_merge.vars);
        // Row 2 (x=2) must appear unmatched, in place.
        assert_eq!(rows_of(&via_merge)[1], vec![i(2), i(7), None]);
    }

    #[test]
    fn sorted_distinct_mask_checks_its_claims() {
        let order: Vec<String> = vec!["a".into(), "b".into()];
        // Sorted with duplicates: run detection keeps first occurrences.
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
        assert_eq!(
            sorted_distinct_mask(&t, &order),
            Some(vec![true, false, true, true, false])
        );
        // Out-of-order rows: the claim is rejected (hash fallback).
        let unsorted = tbl(&["a", "b"], vec![vec![i(2), i(1)], vec![i(1), i(1)]]);
        assert_eq!(sorted_distinct_mask(&unsorted, &order), None);
        // A column the order does not cover: rejected.
        let extra = tbl(&["a", "c"], vec![vec![i(1), i(1)]]);
        assert_eq!(sorted_distinct_mask(&extra, &order), None);
        // An unbound slot in an order column: rejected.
        let unbound = tbl(&["a", "b"], vec![vec![i(1), None]]);
        assert_eq!(sorted_distinct_mask(&unbound, &order), None);
        // Empty input is trivially sorted.
        let empty = tbl(&["a", "b"], vec![]);
        assert_eq!(sorted_distinct_mask(&empty, &order), Some(vec![]));
    }

    #[test]
    fn numeric_accum_matches_agg_state() {
        use crate::ast::AggOp;
        use rdf_model::Interner;

        // SUM/AVG/MIN/MAX over mixed int/double values, with and without
        // DISTINCT, must agree with the term-based AggState.
        let mut interner = Interner::new();
        let values = [
            Term::integer(5),
            Term::integer(5),
            Term::Literal(Literal::double(2.5)),
            Term::integer(-3),
            Term::Literal(Literal::double(5.0)),
        ];
        let ids: Vec<TermId> = values.iter().map(|t| interner.intern(t.clone())).collect();
        for op in [AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max] {
            for distinct in [false, true] {
                let mut pool = TermPool::new(&interner);
                let mut fast = NumericAccum::new(distinct);
                let mut slow = AggState::new(op, distinct);
                for (t, &id) in values.iter().zip(&ids) {
                    let v = match t {
                        Term::Literal(l) => match l.parsed {
                            TypedValue::Integer(x) => NumVal::I(x),
                            TypedValue::Double(d) => NumVal::D(d),
                            _ => unreachable!(),
                        },
                        _ => unreachable!(),
                    };
                    fast.push(id, v);
                    slow.push(Some(t.clone()));
                }
                let fast_term = fast
                    .finish(op, &mut pool)
                    .map(|id| pool.resolve(id).clone());
                assert_eq!(fast_term, slow.finish(), "{op:?} distinct={distinct}");
            }
        }
    }
}
