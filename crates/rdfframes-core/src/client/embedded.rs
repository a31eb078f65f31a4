//! The embedded execution endpoint: frame → plan → DataFrame with no
//! string round trip.
//!
//! [`EmbeddedEndpoint`] is the in-process alternative to
//! [`InProcessEndpoint`](crate::client::InProcessEndpoint)'s HTTP-faithful
//! contract. Where the wire path renders the query model to SPARQL text,
//! re-parses and re-evaluates it per page, and round-trips every result
//! chunk through the XML results encoding, the embedded path:
//!
//! 1. compiles the [`QueryModel`] straight into the engine's plan algebra
//!    ([`crate::model::compile`]),
//! 2. runs the shared optimizer pass and evaluates **once**
//!    ([`sparql_engine::Engine::cursor`]),
//! 3. maps the columnar `TermId` result batches straight to the dataframe's
//!    dictionary codes, decoding each distinct term a single time
//!    ([`crate::client::convert::cursor_to_dataframe`]).
//!
//! The [`Executor`](crate::exec::Executor) picks this path automatically
//! through [`Endpoint::execute_model`]; raw-SPARQL callers still get the
//! plain (cached-plan, no-wire-format) [`Endpoint::query_chunk`] contract,
//! so an `EmbeddedEndpoint` is a drop-in `Endpoint` everywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dataframe::DataFrame;
use rdf_model::Dataset;
use sparql_engine::{Engine, EngineConfig, ExecStats, PreparedQuery, SolutionTable};

use crate::client::convert::cursor_to_dataframe;
use crate::client::{engine_error, prepare_cached, Endpoint, EndpointStats, PlanCache};
use crate::error::Result;
use crate::model::compile::compile;
use crate::model::{render, QueryModel};

/// Rows per cursor batch handed from the engine to the column builders.
const DEFAULT_BATCH_ROWS: usize = 16_384;

/// The default batch size, overridable through `RDFFRAMES_BATCH_ROWS` (so
/// whole test suites can re-run under a pathological batch size without
/// code changes). Explicit [`EmbeddedEndpoint::with_batch_rows`] calls always
/// win over the env.
fn default_batch_rows() -> usize {
    std::env::var("RDFFRAMES_BATCH_ROWS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_BATCH_ROWS)
        .max(1)
}

/// Cumulative scan work of an endpoint's executions: index entries read, and
/// index entries that replays of shared subplans stood in for.
#[derive(Default)]
struct ScanCounters {
    rows_scanned: AtomicU64,
    shared_scans: AtomicU64,
}

/// An endpoint that executes query models inside the engine process,
/// columnar end to end.
#[derive(Clone)]
pub struct EmbeddedEndpoint {
    engine: Engine,
    batch_rows: usize,
    stats: Arc<EndpointStats>,
    scans: Arc<ScanCounters>,
    plans: Arc<PlanCache>,
    model_plans: Arc<PlanCache>,
}

impl EmbeddedEndpoint {
    /// Embedded endpoint over a dataset (optimizer on, columnar engine).
    pub fn new(dataset: Arc<Dataset>) -> Self {
        Self::with_engine_config(dataset, EngineConfig::new())
    }

    /// Embedded endpoint with an explicit engine configuration (its
    /// `optimize` and `budget` govern the cursor and the raw-SPARQL
    /// [`Endpoint::query_chunk`] surface alike).
    pub fn with_engine_config(dataset: Arc<Dataset>, config: EngineConfig) -> Self {
        EmbeddedEndpoint {
            engine: Engine::with_config(dataset, config),
            batch_rows: default_batch_rows(),
            stats: Arc::new(EndpointStats::default()),
            scans: Arc::new(ScanCounters::default()),
            plans: Arc::new(PlanCache::default()),
            model_plans: Arc::new(PlanCache::default()),
        }
    }

    /// Override the cursor batch size (mainly for tests).
    pub fn with_batch_rows(mut self, batch_rows: usize) -> Self {
        self.batch_rows = batch_rows.max(1);
        self
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A new endpoint over `dataset` that keeps this endpoint's engine
    /// configuration and batch size and **shares** its statistics, scan
    /// counters, and both plan caches (Arc-cloned).
    /// [`DurableSnapshotServer`](crate::client::DurableSnapshotServer) uses
    /// this to publish dataset epochs: every cached plan is stamped with the
    /// stats generation it was optimized under, so queries against the new
    /// snapshot re-optimize exactly when the statistics moved and reuse the
    /// plan otherwise.
    pub fn with_dataset(&self, dataset: Arc<Dataset>) -> Self {
        EmbeddedEndpoint {
            engine: Engine::with_config(dataset, self.engine.config().clone()),
            batch_rows: self.batch_rows,
            stats: Arc::clone(&self.stats),
            scans: Arc::clone(&self.scans),
            plans: Arc::clone(&self.plans),
            model_plans: Arc::clone(&self.model_plans),
        }
    }

    /// Mutable engine access — the ingestion path for a live endpoint
    /// (`engine_mut().dataset_mut()` to append triples). Cached plans on
    /// both surfaces (raw-SPARQL and model) notice the resulting
    /// [`rdf_model::Dataset::stats_generation`] change and re-optimize on
    /// their next use.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Request statistics (each `execute_model` counts as one request).
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// Cumulative index entries scanned by embedded executions (the same
    /// work metric the engine reports for string queries, for
    /// embedded-vs-wire parity checks).
    pub fn rows_scanned(&self) -> u64 {
        self.scans.rows_scanned.load(Ordering::Relaxed)
    }

    /// Cumulative index entries that replays of shared subplans stood in
    /// for ([`ExecStats::shared_scans`]): `rows_scanned() + shared_scans()`
    /// is what evaluating every occurrence would have read.
    pub fn shared_scans(&self) -> u64 {
        self.scans.shared_scans.load(Ordering::Relaxed)
    }

    fn count_scans(&self, stats: &ExecStats) {
        let scans = &self.scans;
        scans
            .rows_scanned
            .fetch_add(stats.rows_scanned, Ordering::Relaxed);
        scans
            .shared_scans
            .fetch_add(stats.shared_scans, Ordering::Relaxed);
    }

    /// Compile, optimize, evaluate, and decode a query model.
    pub fn execute_model_direct(&self, model: &QueryModel) -> Result<DataFrame> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.execute_model_inner(model);
        if result.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The raw-SPARQL request body ([`Endpoint::query_chunk`] charges the
    /// request/error counters around it, mirroring the wire endpoint).
    fn serve_chunk(&self, sparql: &str, offset: usize, limit: usize) -> Result<SolutionTable> {
        let prepared = prepare_cached(&self.plans, &self.engine, sparql)?;
        let (table, stats) = self
            .engine
            .execute_prepared(&prepared, Some((offset, limit)))
            .map_err(engine_error)?;
        self.count_scans(&stats);
        self.stats
            .rows_returned
            .fetch_add(table.len() as u64, Ordering::Relaxed);
        Ok(table)
    }

    fn execute_model_inner(&self, model: &QueryModel) -> Result<DataFrame> {
        let prepared = self.model_plan(model)?;
        let mut cursor = self
            .engine
            .cursor(&prepared, self.batch_rows)
            .map_err(engine_error)?;
        let df = cursor_to_dataframe(&mut cursor)?;
        // Harvest statistics only after the drain: the cursor evaluates
        // (and counts) as batches are pulled.
        let stats = cursor.stats();
        self.count_scans(&stats);
        self.stats
            .batches_emitted
            .fetch_add(stats.batches_emitted, Ordering::Relaxed);
        self.stats
            .peak_live_rows
            .fetch_max(stats.peak_live_rows, Ordering::Relaxed);
        self.stats
            .rows_returned
            .fetch_add(df.len() as u64, Ordering::Relaxed);
        Ok(df)
    }

    /// The prepared (compiled + optimized) plan for `model`, cached by
    /// rendered query text and re-optimized when the dataset's statistics
    /// generation moves. Repeated executions of the same model — the
    /// benchmark loop, a dashboard refresh — skip compile *and* optimize.
    fn model_plan(&self, model: &QueryModel) -> Result<Arc<PreparedQuery>> {
        // The rendered text is purely an identity key — it is never parsed.
        let key = render::render(model);
        let generation = self.engine.dataset().stats_generation();
        self.model_plans.get_or_prepare(&key, generation, || {
            let compiled = compile(model)?;
            Ok(self.engine.prepare_plan(compiled.plan, compiled.from))
        })
    }

    /// Model plans currently cached (observability for tests/benches).
    pub fn cached_model_plans(&self) -> usize {
        self.model_plans.len()
    }

    /// The cached prepared plan for a model, if present (observability for
    /// tests — e.g. asserting that an append re-optimized the plan).
    pub fn cached_model_plan(&self, model: &QueryModel) -> Option<Arc<PreparedQuery>> {
        self.model_plans.get(&render::render(model))
    }
}

impl Endpoint for EmbeddedEndpoint {
    /// Raw SPARQL still works (baselines, expert queries): plan once per
    /// query text (cached), evaluate the requested page, no wire-format
    /// round trip.
    fn query_chunk(&self, sparql: &str, offset: usize, limit: usize) -> Result<SolutionTable> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.serve_chunk(sparql, offset, limit);
        if result.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// No server-side page cap: the whole point is that results never cross
    /// a row-limited wire.
    fn max_rows_per_request(&self) -> usize {
        usize::MAX
    }

    fn execute_model(&self, model: &QueryModel) -> Option<Result<DataFrame>> {
        Some(self.execute_model_direct(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Graph, Term, Triple};

    fn dataset() -> Arc<Dataset> {
        let mut g = Graph::new();
        for i in 0..25 {
            g.insert(&Triple::new(
                Term::iri(format!("http://x/movie{i}")),
                Term::iri("http://x/starring"),
                Term::iri(format!("http://x/actor{}", i % 5)),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        Arc::new(ds)
    }

    fn frame() -> crate::api::RDFFrame {
        crate::api::KnowledgeGraph::new("http://g")
            .with_prefix("x", "http://x/")
            .feature_domain_range("x:starring", "movie", "actor")
    }

    #[test]
    fn embedded_execute_matches_wire() {
        let ds = dataset();
        let embedded = EmbeddedEndpoint::new(Arc::clone(&ds)).with_batch_rows(7);
        let wire = crate::client::InProcessEndpoint::new(ds);
        let f = frame();
        let via_embedded = f.execute(&embedded).unwrap();
        let via_wire = f.execute(&wire).unwrap();
        assert_eq!(via_embedded, via_wire);
        // One embedded request, no pagination.
        assert_eq!(embedded.stats().requests(), 1);
        assert_eq!(embedded.stats().rows_returned(), 25);
        assert!(embedded.rows_scanned() > 0);
    }

    #[test]
    fn embedded_grouped_query() {
        let embedded = EmbeddedEndpoint::new(dataset());
        let df = frame()
            .group_by(&["actor"])
            .count("movie", "n", true)
            .execute(&embedded)
            .unwrap();
        assert_eq!(df.len(), 5);
        for row in df.rows() {
            assert_eq!(row[1], dataframe::Cell::Int(5));
        }
    }

    #[test]
    fn raw_sparql_chunks_still_work() {
        let embedded = EmbeddedEndpoint::new(dataset());
        let q = "SELECT ?m FROM <http://g> WHERE { ?m <http://x/starring> ?a } LIMIT 30";
        let t = embedded.query_chunk(q, 0, 10).unwrap();
        assert_eq!(t.len(), 10);
        // A second chunk of the same text reuses the cached prepared plan.
        let t2 = embedded.query_chunk(q, 10, 10).unwrap();
        assert_eq!(t2.len(), 10);
        assert_ne!(t, t2);
    }

    #[test]
    fn zero_column_results_keep_their_rows() {
        // Every pattern position constant: the result is one empty row
        // ("the triple exists"), which the embedded path must preserve
        // exactly like the wire path does.
        let ds = dataset();
        let g = crate::api::KnowledgeGraph::new("http://g").with_prefix("x", "http://x/");
        let hit = g.seed("<http://x/movie0>", "x:starring", "<http://x/actor0>");
        let miss = g.seed("<http://x/movie0>", "x:starring", "<http://x/actor1>");
        let embedded = EmbeddedEndpoint::new(Arc::clone(&ds));
        let wire = crate::client::InProcessEndpoint::new(ds);
        for (frame, rows) in [(&hit, 1), (&miss, 0)] {
            let via_embedded = frame.execute(&embedded).unwrap();
            let via_wire = frame.execute(&wire).unwrap();
            assert_eq!(via_embedded, via_wire);
            assert_eq!(via_embedded.len(), rows);
            assert!(via_embedded.columns().is_empty());
        }
    }

    #[test]
    fn shared_uri_cells_are_interned() {
        let embedded = EmbeddedEndpoint::new(dataset());
        let df = frame().execute(&embedded).unwrap();
        // actor0 appears 5 times; all five cells must share one Arc<str>.
        let cells: Vec<&dataframe::Cell> = df
            .column("actor")
            .unwrap()
            .filter(|c| c.as_str() == Some("http://x/actor0"))
            .collect();
        assert_eq!(cells.len(), 5);
        let first = match cells[0] {
            dataframe::Cell::Uri(s) => s.clone(),
            other => panic!("expected Uri, got {other:?}"),
        };
        for c in &cells[1..] {
            match c {
                dataframe::Cell::Uri(s) => assert!(std::sync::Arc::ptr_eq(&first, s)),
                other => panic!("expected Uri, got {other:?}"),
            }
        }
    }
}
