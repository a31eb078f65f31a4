//! Public engine API.
//!
//! [`Engine`] holds a dataset and a configuration and turns SPARQL text into
//! a [`SolutionTable`]: parse → algebra → (optional) optimize → evaluate.
//!
//! Two execution surfaces exist on top of that pipeline:
//!
//! - **Pages**: [`Engine::execute`] / [`Engine::execute_page`] parse and
//!   plan per call — the HTTP-faithful contract the paper's endpoint
//!   simulation needs. [`Engine::prepare`] factors the parse + translate +
//!   optimize front half into a reusable [`PreparedQuery`] so a paginating
//!   endpoint stops re-planning the same text per chunk (re-*evaluation*
//!   per chunk remains, as a cursor-less HTTP server requires — but a page
//!   stops evaluating once it is full).
//! - **Cursors**: [`Engine::cursor`] evaluates a prepared query *once* and
//!   yields the result as columnar [`TermId`] batches ([`QueryCursor`] /
//!   [`ColumnBatch`]) instead of a fully `Term`-materialized table — the
//!   in-process fast path for clients that consume columns.
//!
//! Both run the same executor: a [`QueryCursor`] over the pull-based
//! operator pipeline ([`crate::eval`]), which works on `u32`
//! [`rdf_model::TermId`]s in struct-of-arrays batches. `execute*` is that
//! cursor drained in one unbounded pull (a page: pulled `limit` rows at a
//! time behind a slice), its ids mapped to dictionary codes by
//! [`CodeRemap`] — one term per distinct id. The seed
//! term-materialized evaluator is not an engine mode: it is the
//! differential-testing oracle, called directly as
//! [`crate::eval_reference::execute`] on an engine and a prepared query. It
//! produces identical bags and, counting every occurrence of a subplan the
//! executor evaluates once, identical `rows_scanned` work counts.

use std::sync::Arc;

use dataframe::Coded;
use rdf_model::hash::FxHashMap;
use rdf_model::{Dataset, Term, TermId};

use crate::algebra::{translate_query, Plan};
use crate::budget::{BudgetMeter, QueryBudget};
use crate::error::{EngineError, Result};
use crate::eval::pipeline::{self, BoxOp};
use crate::eval::Evaluator;
use crate::optimizer::Optimizer;
use crate::parser::parse_query;
use crate::pool::TermPool;
use crate::results::{IdTable, SolutionTable};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Enable the optimizer: BGP reordering and join-shape planning, TopK
    /// fusion, FILTER pushdown and the order-aware rewrites (merge joins,
    /// merge left joins, sorted DISTINCT, the GROUP BY order annotation).
    /// All are pure physical rewrites — the result bag is the same either
    /// way — and each order-aware operator re-checks its sortedness claim
    /// at run time, demoting itself to the hash path when it fails, so this
    /// is the one ablation handle: disabling it models an engine that takes
    /// queries literally (the ablation experiments' baseline and the tests'
    /// plan oracle).
    pub optimize: bool,
    /// Resource limits enforced cooperatively during evaluation (all axes
    /// optional; the default is unlimited, which keeps the meter to a single
    /// branch per check). Violations surface as
    /// [`crate::error::EngineError::ResourceExhausted`] — never a panic.
    ///
    /// The deadline clock starts when an evaluator is created for a query,
    /// so each `execute_*`/`cursor` call gets the full allowance.
    pub budget: QueryBudget,
}

impl EngineConfig {
    /// The default configuration: optimizer on (all rewrites), no budget.
    pub fn new() -> Self {
        EngineConfig {
            optimize: true,
            budget: QueryBudget::unlimited(),
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

/// Execution statistics for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Index entries actually read during evaluation — what
    /// [`QueryBudget::max_rows_scanned`] charges. The columnar evaluator
    /// evaluates a repeated subplan once, so its replays add nothing here.
    pub rows_scanned: u64,
    /// Index entries that replays of shared subplans stood in for (columnar
    /// evaluator only; zero for a plan without a repeated subtree). Exact:
    /// identical at every batch size, and
    /// `rows_scanned + shared_scans` is what the oracle, which evaluates
    /// every occurrence, reports as `rows_scanned` (the early exit of a
    /// satisfied `LIMIT` or page aside).
    pub shared_scans: u64,
    /// Inner joins that executed as order-preserving merge joins instead of
    /// hash joins (columnar evaluator only; the oracle always hashes).
    /// Counts executions: a join inside a shared subplan runs, and counts,
    /// once however many parents read it.
    pub merge_joins: u64,
    /// Left (OPTIONAL) joins that executed as order-preserving merge joins
    /// (columnar evaluator only; counts executions, like `merge_joins`).
    pub merge_left_joins: u64,
    /// Candidate pairs the joins handed to the per-pair compatibility check
    /// — from index lookups and merge runs alike (columnar evaluator only).
    /// An exact, repeatable work count, identical at every batch size: a
    /// join whose count far exceeds its input plus output rows is keying on
    /// too little. Counts executions, so a join inside a shared subplan
    /// contributes its candidates once.
    pub join_candidates: u64,
    /// DISTINCT operators that deduplicated by linear run detection over
    /// sorted input instead of hashing (columnar evaluator only; counts
    /// executions, like `merge_joins`).
    pub sorted_distincts: u64,
    /// GROUP BY operators whose input did arrive sorted with the grouping
    /// keys as an order prefix, as the optimizer claimed (columnar evaluator
    /// only; counts executions, like `merge_joins`). Informational: grouping
    /// hashes either way.
    pub sorted_groups: u64,
    /// Peak rows simultaneously live across the operator pipeline (operator
    /// state plus the batch being emitted), sampled after every batch:
    /// O(batch size + breaker state) for a cursor, the whole result for
    /// `execute*`'s one unbounded pull. Zero for the oracle.
    pub peak_live_rows: u64,
    /// Peak estimated heap bytes simultaneously live (same sampling as
    /// [`ExecStats::peak_live_rows`]).
    pub peak_live_bytes: u64,
    /// Batches the pipeline handed out (one for an unpaged `execute*` with
    /// a non-empty result; zero for the oracle).
    pub batches_emitted: u64,
}

impl ExecStats {
    /// `rows_scanned + shared_scans`: the index entries an evaluator that
    /// evaluates every occurrence of a repeated subplan reads — the number
    /// to compare across evaluators.
    pub fn unshared_scans(&self) -> u64 {
        self.rows_scanned + self.shared_scans
    }
}

/// A query that has been parsed, translated, and optimized once and can be
/// executed any number of times (the plan is immutable; evaluation state
/// lives in per-call evaluators).
///
/// Produced by [`Engine::prepare`] (from SPARQL text) or
/// [`Engine::prepare_plan`] (from an already-translated [`Plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedQuery {
    plan: Plan,
    from: Vec<String>,
}

impl PreparedQuery {
    /// The (optimized) logical plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Graphs resolving [`crate::algebra::GraphRef::Default`] BGPs (the
    /// query's `FROM` list; empty = whole dataset).
    pub fn from_graphs(&self) -> &[String] {
        &self.from
    }

    /// The plan as it will execute, as an indented S-expression
    /// ([`Plan::to_sse`]): a subplan the columnar executor evaluates once is
    /// printed at its first occurrence as `(shared #k …)` and as `(ref #k)`
    /// wherever else it is read.
    pub fn explain(&self) -> String {
        self.plan.to_sse()
    }
}

/// A SPARQL engine over an in-memory dataset.
#[derive(Debug, Clone)]
pub struct Engine {
    dataset: Arc<Dataset>,
    config: EngineConfig,
}

impl Engine {
    /// Engine with the default configuration (optimizer on, no budget).
    pub fn new(dataset: Arc<Dataset>) -> Self {
        Engine {
            dataset,
            config: EngineConfig::new(),
        }
    }

    /// Engine with an explicit configuration.
    pub fn with_config(dataset: Arc<Dataset>, config: EngineConfig) -> Self {
        Engine { dataset, config }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Mutable access to the dataset when this engine is its sole owner
    /// (`None` if the `Arc` is shared — clone-free ingestion only works on
    /// an exclusively-held engine). This is the supported way to
    /// [`Dataset::append_triples`] behind a live engine; plan caches detect
    /// the mutation through [`Dataset::stats_generation`].
    pub fn dataset_mut(&mut self) -> Option<&mut Dataset> {
        Arc::get_mut(&mut self.dataset)
    }

    /// The engine's configuration (read-only; construct a new engine to
    /// change it).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Parse, translate, and (per configuration) optimize a SELECT query
    /// into a reusable [`PreparedQuery`].
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery> {
        let parsed = parse_query(query)?;
        let plan = translate_query(&parsed)?;
        Ok(self.prepare_plan(plan, parsed.from))
    }

    /// The optimizer half of [`Engine::prepare`], for a plan already
    /// translated (or built by hand, as tests and the benchmark's per-layer
    /// replay do).
    pub fn prepare_plan(&self, mut plan: Plan, from: Vec<String>) -> PreparedQuery {
        if self.config.optimize {
            Optimizer::new(&self.dataset, &from).optimize(&mut plan);
        }
        PreparedQuery { plan, from }
    }

    /// Parse, plan, and evaluate a SELECT query.
    pub fn execute(&self, query: &str) -> Result<SolutionTable> {
        self.execute_with_stats(query).map(|(t, _)| t)
    }

    /// Like [`Engine::execute`], also returning work statistics.
    pub fn execute_with_stats(&self, query: &str) -> Result<(SolutionTable, ExecStats)> {
        let prepared = self.prepare(query)?;
        self.execute_prepared(&prepared, None)
    }

    /// Execute and return only rows `[offset, offset+limit)` of the result.
    ///
    /// The page is a slice on the pipeline's root: evaluation stops once
    /// the page is full and only its rows are decoded to terms, so a
    /// paginating endpoint pays for what it ships (plus the rows it skips).
    pub fn execute_page(
        &self,
        query: &str,
        offset: usize,
        limit: usize,
    ) -> Result<(SolutionTable, ExecStats)> {
        let prepared = self.prepare(query)?;
        self.execute_prepared(&prepared, Some((offset, limit)))
    }

    /// Evaluate a prepared query, optionally only the page
    /// `[offset, offset+limit)`. Each call evaluates from scratch (the HTTP
    /// pagination model); the saving over [`Engine::execute_page`] is the
    /// parse + translate + optimize front half.
    ///
    /// This is [`Engine::cursor`]'s pipeline, drained: in one unbounded
    /// pull without a page — every operator then makes a single pass over
    /// its whole input — and `limit` rows at a time with one, so that a
    /// full page ends the evaluation early.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        page: Option<(usize, usize)>,
    ) -> Result<(SolutionTable, ExecStats)> {
        let pull = page.map_or(usize::MAX, |(_, limit)| limit);
        let mut cursor = self.open(prepared, page, pull)?;
        let table = SolutionTable(cursor.drain(Term::clone)?);
        Ok((table, cursor.stats()))
    }

    /// Open a [`QueryCursor`] over a prepared query, yielding the result as
    /// columnar id batches of at most `batch_rows` rows. No [`Term`] is
    /// materialized by the engine; the consumer decodes ids through the
    /// cursor's pool (typically once per *distinct* id).
    ///
    /// The plan compiles into a pull-based operator pipeline and each
    /// `next_batch` call does just enough work to produce one batch: live
    /// memory stays bounded by the batch size plus any pipeline breaker's
    /// own state, and a `LIMIT` stops pulling (and therefore scanning) as
    /// soon as it is satisfied. Batches concatenate to the same bytes in the
    /// same order whatever `batch_rows` is.
    pub fn cursor<'a>(
        &'a self,
        prepared: &'a PreparedQuery,
        batch_rows: usize,
    ) -> Result<QueryCursor<'a>> {
        self.open(prepared, None, batch_rows)
    }

    /// The cursor behind every columnar entry point: the pipeline of
    /// `prepared`, restricted to `page` when given.
    fn open<'a>(
        &'a self,
        prepared: &'a PreparedQuery,
        page: Option<(usize, usize)>,
        batch_rows: usize,
    ) -> Result<QueryCursor<'a>> {
        // The cursor keeps its own meter (sharing the evaluation's deadline
        // clock, started here) so a consumer that drains batches slowly
        // still trips the deadline in `next_batch` even when the pipeline
        // itself has no work left to charge.
        let meter = BudgetMeter::new(&self.config.budget);
        let mut evaluator = Evaluator::new(&self.dataset, prepared.from.clone());
        evaluator.set_budget(&self.config.budget);
        let mut source = pipeline::build(&evaluator, &prepared.plan)?;
        if let Some((offset, limit)) = page {
            source = pipeline::paged(source, offset, limit);
        }
        Ok(QueryCursor {
            evaluator,
            vars: source.vars().to_vec(),
            source,
            batch_rows: batch_rows.max(1),
            meter,
            emitted: 0,
            batches_emitted: 0,
            peak_live_rows: 0,
            peak_live_bytes: 0,
        })
    }
}

/// Streaming columnar view over one query's result.
///
/// Owns the evaluator (and therefore the term pool that can resolve every
/// id the query produces — dataset-global ids and query-local overflow ids
/// from computed expressions alike) plus the operator pipeline the batches
/// are pulled from, released as soon as it is exhausted.
/// [`QueryCursor::next_batch`] yields the result in `batch_rows`-bounded
/// [`ColumnBatch`]es; consumers build typed columns without ever seeing a
/// row-materialized [`Term`] table.
pub struct QueryCursor<'a> {
    evaluator: Evaluator<'a>,
    source: BoxOp<'a>,
    vars: Vec<String>,
    batch_rows: usize,
    meter: BudgetMeter,
    emitted: usize,
    batches_emitted: u64,
    peak_live_rows: u64,
    peak_live_bytes: u64,
}

impl QueryCursor<'_> {
    /// Result column (variable) names.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Index entries scanned so far (same metric as
    /// [`ExecStats::rows_scanned`]). Grows as batches are pulled; read it
    /// after draining for the whole-query number `execute*` reports.
    pub fn rows_scanned(&self) -> u64 {
        self.evaluator.rows_scanned()
    }

    /// Execution statistics so far (work metric, rewrite counters, peak
    /// live-memory high-water marks), final only once the cursor is
    /// drained.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            rows_scanned: self.evaluator.rows_scanned(),
            shared_scans: self.evaluator.shared_scans(),
            merge_joins: self.evaluator.merge_joins(),
            merge_left_joins: self.evaluator.merge_left_joins(),
            join_candidates: self.evaluator.join_candidates(),
            sorted_distincts: self.evaluator.sorted_distincts(),
            sorted_groups: self.evaluator.sorted_groups(),
            peak_live_rows: self.peak_live_rows,
            peak_live_bytes: self.peak_live_bytes,
            batches_emitted: self.batches_emitted,
        }
    }

    /// Drain the rest of the result into a coded table — the one loop
    /// behind a page ([`Engine::execute_prepared`], `entry` a [`Term`]
    /// clone) and the embedded DataFrame (a cell). [`CodeRemap`] writes
    /// each batch's codes into a block of its own, every column grown once
    /// to the batch's length, while `entry` makes each distinct id's
    /// dictionary entry once, straight into the table. The blocks are
    /// joined by [`Coded::append_blocks`] after the last batch, when the
    /// exhausted pipeline's state is already freed: every code column ends
    /// with capacity equal to its length.
    pub fn drain<T>(&mut self, mut entry: impl FnMut(&Term) -> T) -> Result<Coded<T>> {
        let width = self.vars.len();
        let mut table = Coded::new(self.vars.clone());
        let mut remap = CodeRemap::new(width);
        let mut blocks = Vec::new();
        while let Some(batch) = self.next_batch()? {
            let mut block = vec![Vec::new(); width];
            remap.extend(&batch, &mut block, |term| table.intern(entry(term)));
            blocks.push((batch.len, block));
        }
        (table.append_blocks(blocks)).map_err(|e| EngineError::Semantic(e.to_string()))?;
        Ok(table)
    }

    /// Resolve any id appearing in this cursor's columns.
    pub fn resolve(&self, id: TermId) -> &Term {
        self.evaluator.pool().resolve(id)
    }

    /// The next window of rows, or `Ok(None)` when the result is exhausted.
    ///
    /// This is where evaluation happens: the root operator is pulled for up
    /// to `batch_rows` rows and every budget axis (scan, memory, deadline)
    /// is enforced inside the pull. The deadline is additionally checked
    /// here even when no work remains, so a consumer that drains a large
    /// result slowly is still cancelled.
    pub fn next_batch(&mut self) -> Result<Option<ColumnBatch<'_>>> {
        self.meter.check_deadline()?;
        let out = self
            .source
            .next_batch(&mut self.evaluator, self.batch_rows)?;
        let (live_rows, live_bytes) = self.source.live_size();
        let (out_rows, out_bytes) = match &out {
            Some(t) => (t.len() as u64, t.estimated_bytes()),
            None => (0, 0),
        };
        self.peak_live_rows = self.peak_live_rows.max(live_rows.saturating_add(out_rows));
        self.peak_live_bytes = self
            .peak_live_bytes
            .max(live_bytes.saturating_add(out_bytes));
        let Some(table) = out else {
            // Exhausted: free the operators' state (join build sides,
            // spools, breaker tables) now rather than with the cursor. The
            // counters live on the evaluator and here, not in the tree.
            self.source = pipeline::exhausted();
            return Ok(None);
        };
        let start = self.emitted;
        let len = table.len();
        self.emitted += len;
        self.batches_emitted += 1;
        Ok(Some(ColumnBatch {
            table,
            pool: self.evaluator.pool(),
            start,
            len,
        }))
    }
}

/// One batch of a [`QueryCursor`]: an owned columnar window over rows
/// `[start, start+len)` of the result, plus id resolution.
pub struct ColumnBatch<'c> {
    table: IdTable,
    pool: &'c TermPool<'c>,
    /// First row (in the whole result) this batch covers.
    pub start: usize,
    /// Rows in this batch.
    pub len: usize,
}

impl<'c> ColumnBatch<'c> {
    /// Column names (parallel to column indexes).
    pub fn vars(&self) -> &[String] {
        &self.table.vars
    }

    /// The raw id slice of column `col` for this batch's rows. Absent slots
    /// hold a zero filler — pair with [`ColumnBatch::is_present`].
    pub fn column_ids(&self, col: usize) -> &[TermId] {
        self.table.col(col).ids()
    }

    /// Is `row` (batch-relative) bound in column `col`?
    pub fn is_present(&self, col: usize, row: usize) -> bool {
        debug_assert!(row < self.len);
        self.table.col(col).is_present(row)
    }

    /// True when every row of column `col` is bound (one pass over the
    /// bitmap's words): the caller may then skip [`ColumnBatch::is_present`].
    pub fn all_present(&self, col: usize) -> bool {
        self.table.col(col).all_present()
    }

    /// Resolve an id from any of this batch's columns.
    pub fn resolve(&self, id: TermId) -> &'c Term {
        self.pool.resolve(id)
    }
}

/// The one id → code kernel, driven by [`QueryCursor::drain`] for a page's
/// [`SolutionTable`] (a new entry is a [`Term`] clone) and the embedded
/// DataFrame (a cell). An id gets one code for the whole result, so a term
/// is materialized once per *distinct* id; code 0 is unbound.
///
/// In front of the `TermId → code` memo each column keeps a run cache, its
/// last `(id, code)` pair across batches: sorted and grouped columns repeat
/// an id row after row (≈ 77 % of q9's present cells), and a repeat costs a
/// compare instead of a hash. Presence is tested once per column and batch
/// when the column is fully bound, and the cache answers for present cells
/// only: an absent slot holds `TermId(0)`, also the dataset's first term. A
/// dense `Vec<u32>` indexed by `TermId` measured slower (its lookups
/// scatter over the interner) and costs 4 bytes per interned term.
pub struct CodeRemap {
    memo: FxHashMap<TermId, u32>,
    last: Vec<Option<(TermId, u32)>>,
}

impl CodeRemap {
    /// A remap for a result of `width` columns.
    pub fn new(width: usize) -> Self {
        CodeRemap {
            memo: FxHashMap::default(),
            last: vec![None; width],
        }
    }

    /// Append column `c` of `batch` to `columns[c]` as codes. `entry` is
    /// called once per id not seen before, with the term it resolves to, and
    /// returns the code that id is given (never 0).
    pub fn extend<'c>(
        &mut self,
        batch: &ColumnBatch<'c>,
        columns: &mut [Vec<u32>],
        mut entry: impl FnMut(&'c Term) -> u32,
    ) {
        let memo = &mut self.memo;
        for (c, (codes, last)) in columns.iter_mut().zip(&mut self.last).enumerate() {
            let mut code_of = |id: TermId| match *last {
                Some((prev, code)) if prev == id => code,
                _ => {
                    let code = *memo.entry(id).or_insert_with(|| entry(batch.resolve(id)));
                    *last = Some((id, code));
                    code
                }
            };
            let ids = batch.column_ids(c).iter();
            if batch.all_present(c) {
                codes.extend(ids.map(|&id| code_of(id)));
            } else {
                codes.extend(ids.enumerate().map(|(i, &id)| {
                    if batch.is_present(c, i) {
                        code_of(id)
                    } else {
                        0
                    }
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Graph, Triple};

    fn dataset() -> Arc<Dataset> {
        let mut g = Graph::new();
        for i in 0..10 {
            g.insert(&Triple::new(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::integer(i),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        Arc::new(ds)
    }

    #[test]
    fn prepared_query_reuses_plan_across_pages() {
        let engine = Engine::new(dataset());
        let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
        let prepared = engine.prepare(q).unwrap();
        let (all, _) = engine.execute_prepared(&prepared, None).unwrap();
        let (p1, _) = engine.execute_prepared(&prepared, Some((0, 4))).unwrap();
        let (p2, _) = engine.execute_prepared(&prepared, Some((4, 4))).unwrap();
        let (p3, _) = engine.execute_prepared(&prepared, Some((8, 4))).unwrap();
        assert_eq!(all.len(), 10);
        let stitched = [&p1, &p2, &p3].into_iter().flat_map(|p| p.rows());
        assert!(all.rows().eq(stitched));
        // Same rows as the one-shot string path.
        let direct = engine.execute(q).unwrap();
        assert_eq!(direct, all);
    }

    #[test]
    fn out_of_range_pages_come_back_empty_on_every_evaluator() {
        // `offset > len` (and saturating offset+limit arithmetic) must
        // yield an empty table — never a panic or a debug overflow — on
        // both evaluators, through both the page API and query text.
        type Page = fn(&Engine, &str, usize, usize) -> Result<(SolutionTable, ExecStats)>;
        let evaluators: [(&str, Page); 2] = [
            ("executor", |e, q, offset, limit| {
                e.execute_page(q, offset, limit)
            }),
            ("oracle", |e, q, offset, limit| {
                crate::eval_reference::execute(e, &e.prepare(q)?, Some((offset, limit)))
            }),
        ];
        let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
        let engine = Engine::new(dataset());
        for (name, page_of) in evaluators {
            for (offset, limit) in [(10, 4), (11, 4), (usize::MAX, 4), (usize::MAX, usize::MAX)] {
                let (page, _) = page_of(&engine, q, offset, limit).unwrap();
                assert_eq!(page.vars(), ["s", "o"], "{name}");
                assert!(page.is_empty(), "{name} offset={offset}");
            }
            // Boundary page ending exactly at the result edge.
            let (page, _) = page_of(&engine, q, 8, usize::MAX).unwrap();
            assert_eq!(page.len(), 2, "{name}");
        }
        // Adversarial Slice built programmatically (the embedded compile
        // path accepts arbitrary usize limits — query text cannot express
        // them, the parser caps literals at i64). Regression: the reference
        // evaluator used to compute offset+limit unclamped, overflowing in
        // debug builds.
        let prepared = engine.prepare(q).unwrap();
        let sliced = engine.prepare_plan(
            Plan::Slice {
                limit: Some(usize::MAX),
                offset: 1,
                input: Box::new(prepared.plan().clone()),
            },
            prepared.from_graphs().to_vec(),
        );
        let (t, _) = engine.execute_prepared(&sliced, None).unwrap();
        assert_eq!(t.len(), 9, "executor");
        let (t, _) = crate::eval_reference::execute(&engine, &sliced, None).unwrap();
        assert_eq!(t.len(), 9, "oracle");
    }

    #[test]
    fn cursor_batches_cover_result_in_order() {
        let engine = Engine::new(dataset());
        let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
        let prepared = engine.prepare(q).unwrap();
        let (expected, stats) = engine.execute_with_stats(q).unwrap();
        // `execute` is the unbounded pull: one batch holding the result.
        assert_eq!(stats.batches_emitted, 1);
        assert!(stats.peak_live_rows >= 10, "{}", stats.peak_live_rows);

        for (batch_rows, sizes) in [(4, vec![4, 4, 2]), (1, vec![1; 10]), (usize::MAX, vec![10])] {
            let mut cursor = engine.cursor(&prepared, batch_rows).unwrap();
            assert_eq!(cursor.vars(), expected.vars());
            let mut rebuilt: Vec<Vec<Option<Term>>> = Vec::new();
            let mut batch_sizes = Vec::new();
            while let Some(batch) = cursor.next_batch().unwrap() {
                assert_eq!(batch.start, rebuilt.len());
                batch_sizes.push(batch.len);
                for row in 0..batch.len {
                    rebuilt.push(
                        (0..batch.vars().len())
                            .map(|c| {
                                batch
                                    .is_present(c, row)
                                    .then(|| batch.resolve(batch.column_ids(c)[row]).clone())
                            })
                            .collect(),
                    );
                }
            }
            assert_eq!(batch_sizes, sizes, "batch_rows={batch_rows}");
            assert!(
                expected.rows().map(|r| r.to_vec()).eq(rebuilt),
                "batch_rows={batch_rows}"
            );
            // Work metric matches the string path (read after draining:
            // the cursor scans as batches are pulled).
            assert_eq!(cursor.rows_scanned(), stats.rows_scanned);
            assert_eq!(cursor.stats().batches_emitted, sizes.len() as u64);
        }
    }

    #[test]
    fn drained_tables_are_exact_whatever_the_batch_size() {
        let engine = Engine::new(dataset());
        // A join (a build side to release), an OPTIONAL (unbound cells)
        // and 45 rows.
        let q = "SELECT ?s ?o ?t ?u FROM <http://g> WHERE { ?s <http://x/p> ?o . \
                 ?t <http://x/p> ?u FILTER(?o < ?u) OPTIONAL { ?s <http://x/q> ?none } }";
        let prepared = engine.prepare(q).unwrap();
        let (expected, _) = engine.execute_prepared(&prepared, None).unwrap();
        assert_eq!(expected.len(), 45);
        for batch_rows in [1, 3, 7, 64, usize::MAX] {
            let mut cursor = engine.cursor(&prepared, batch_rows).unwrap();
            let table = cursor.drain(Term::clone).unwrap();
            assert_eq!(table, *expected, "batch_rows={batch_rows}");
            let exact = |c: &Vec<u32>| c.capacity() == c.len();
            assert!(
                table.code_columns().iter().all(exact),
                "batch_rows={batch_rows}"
            );
            // Exhausted: the released pipeline stays dry, and the release
            // changed no counter.
            let stats = cursor.stats();
            assert!(cursor.next_batch().unwrap().is_none());
            assert!(cursor.next_batch().unwrap().is_none());
            assert_eq!(cursor.stats(), stats, "batch_rows={batch_rows}");
            assert!(stats.peak_live_bytes > 0);
        }
    }

    #[test]
    fn cursor_resolves_computed_overflow_terms() {
        let engine = Engine::new(dataset());
        // AVG produces a computed double that lives only in the query pool.
        let q = "SELECT (AVG(?o) AS ?m) FROM <http://g> WHERE { ?s <http://x/p> ?o }";
        let prepared = engine.prepare(q).unwrap();
        let mut cursor = engine.cursor(&prepared, 16).unwrap();
        let batch = cursor.next_batch().unwrap().unwrap();
        assert!(batch.is_present(0, 0), "aggregate value bound");
        let id = batch.column_ids(0)[0];
        let term = batch.resolve(id).clone();
        let table = engine.execute(q).unwrap();
        assert!(table.column("m").unwrap().eq([Some(&term)]));
    }
}
