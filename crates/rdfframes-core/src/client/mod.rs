//! Endpoint abstraction and the in-process engine client.
//!
//! The paper's RDFFrames talks to Virtuoso through SPARQL-over-HTTP, where
//! the server caps each response at a configured number of rows and the
//! client must paginate. [`Endpoint`] models exactly that contract:
//! `query_chunk(sparql, offset, limit)` returns at most `limit` rows
//! starting at `offset`, *re-executing the query per request* like a
//! cursor-less HTTP endpoint does. [`InProcessEndpoint`] implements it over
//! the [`sparql_engine`] crate (our Virtuoso stand-in), round-tripping
//! every chunk through the SPARQL XML results format ([`xml`]) and
//! optionally charging a simulated per-request overhead.

pub mod convert;
pub mod embedded;
pub mod faulty;
pub mod serving;
pub mod xml;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dataframe::DataFrame;
use rdf_model::Dataset;
use sparql_engine::{Engine, EngineConfig, EngineError, PreparedQuery, SolutionTable};

use crate::error::{FrameError, Result};
use crate::model::QueryModel;

pub use embedded::EmbeddedEndpoint;
pub use faulty::{Fault, FaultyEndpoint};
pub use serving::{
    AdmissionGovernor, AdmissionPermit, DurableSnapshotServer, EpochEndpoints, QueryClass,
    ServerStats, ServingConfig,
};

/// Map an engine-side failure onto the client error taxonomy: budget trips
/// keep their typed identity (fatal, not worth retrying, but distinguishable
/// from a rejected query), everything else is an endpoint rejection.
pub(crate) fn engine_error(e: EngineError) -> FrameError {
    match e {
        EngineError::ResourceExhausted { .. } => {
            // The engine's Display already leads with "resource exhausted:",
            // as does FrameError's — keep only the axis/limit detail.
            let msg = e.to_string();
            let detail = msg.strip_prefix("resource exhausted: ").unwrap_or(&msg);
            FrameError::ResourceExhausted(detail.to_string())
        }
        other => FrameError::Endpoint(other.to_string()),
    }
}

/// Server-side configuration of the simulated endpoint.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Maximum rows returned per request (Virtuoso's `ResultSetMaxRows`).
    pub max_rows_per_request: usize,
    /// Simulated per-request overhead (HTTP + serialization). Zero by
    /// default so unit tests are instant; benchmarks set a realistic value.
    pub request_overhead: Duration,
    /// Result-format round trip performed on every chunk (models the
    /// SPARQL-over-HTTP result encoding the paper's setup pays for).
    pub wire: WireFormat,
    /// The server's engine: whether it optimizes, and the resource limits
    /// enforced during evaluation (Virtuoso's query timeout / result cap
    /// family; unlimited by default, violations come back as
    /// [`FrameError::ResourceExhausted`]).
    pub engine: EngineConfig,
}

/// Result serialization performed by the simulated endpoint. There is one
/// codec; the enum (and [`EndpointConfig::wire`]) remain only because
/// callers still name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// SPARQL Query Results XML Format — what SPARQLWrapper, the client
    /// library the paper uses, receives by default.
    Xml,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            max_rows_per_request: 100_000,
            request_overhead: Duration::ZERO,
            wire: WireFormat::Xml,
            engine: EngineConfig::new(),
        }
    }
}

/// Cumulative endpoint-side statistics (for the experiments).
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests served (successful or not — a failed request still consumed
    /// a server round trip).
    pub requests: AtomicU64,
    /// Total rows shipped to clients.
    pub rows_returned: AtomicU64,
    /// Requests that ended in an error (rejection, budget trip, or wire
    /// encoding failure). Always ≤ `requests`.
    pub errors: AtomicU64,
    /// Cursor batches the embedded path streamed into dataframes (sum of
    /// [`sparql_engine::ExecStats::batches_emitted`] across requests).
    /// Zero on wire-only endpoints.
    pub batches_emitted: AtomicU64,
    /// High-water mark of rows simultaneously live in any one embedded
    /// execution's pipeline (max of
    /// [`sparql_engine::ExecStats::peak_live_rows`] across requests):
    /// O(batch size + breaker state).
    pub peak_live_rows: AtomicU64,
}

impl EndpointStats {
    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Rows shipped so far.
    pub fn rows_returned(&self) -> u64 {
        self.rows_returned.load(Ordering::Relaxed)
    }

    /// Requests that ended in an error so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Cursor batches streamed so far by embedded executions.
    pub fn batches_emitted(&self) -> u64 {
        self.batches_emitted.load(Ordering::Relaxed)
    }

    /// Peak rows simultaneously live in any one embedded execution.
    pub fn peak_live_rows(&self) -> u64 {
        self.peak_live_rows.load(Ordering::Relaxed)
    }
}

/// Anything that can answer SPARQL queries in pages.
pub trait Endpoint {
    /// Execute `sparql`, returning rows `[offset, offset+limit)` of the
    /// result. Implementations re-execute per call (no server cursors over
    /// HTTP, as the paper discusses in Section 4.3).
    fn query_chunk(&self, sparql: &str, offset: usize, limit: usize) -> Result<SolutionTable>;

    /// The server's page-size cap.
    fn max_rows_per_request(&self) -> usize;

    /// Embedded fast path: execute a query model in process, bypassing
    /// result pagination and wire decoding. `None` (the
    /// default) means "this endpoint only speaks SPARQL text" and the
    /// [`Executor`](crate::exec::Executor) falls back to the wire path;
    /// [`EmbeddedEndpoint`] overrides it.
    fn execute_model(&self, _model: &QueryModel) -> Option<Result<DataFrame>> {
        None
    }
}

/// Cached prepared plans by query text, shared across endpoint clones and
/// epochs. Every entry is the plan [`Engine::prepare`] made of its key: the
/// text a raw-SPARQL request sent, or — on [`EmbeddedEndpoint`]'s model
/// surface — the model's rendered text, so a model and its rendered text
/// share one entry.
///
/// The wire contract forces re-*evaluation* per chunk (a cursor-less HTTP
/// server cannot resume), but nothing about HTTP forces re-*planning*: a
/// real server caches compiled plans keyed by query text, so the simulated
/// one does too. Bounded so a workload of many distinct queries cannot grow
/// it without limit.
///
/// Every entry is stamped with the [`Dataset::stats_generation`] observed
/// when it was prepared. Query text alone is *not* a valid cache key: a
/// plan optimized before [`Dataset::append_triples`] bakes in a
/// statistics-driven BGP order that appended data can invert, and a
/// text-keyed cache would re-serve that stale order forever. A generation
/// mismatch re-optimizes against the current statistics and replaces the
/// entry.
#[derive(Default)]
struct PlanCache {
    plans: Mutex<PlanMap>,
}

/// Query text → (stats generation it was optimized under, plan).
type PlanMap = HashMap<String, (u64, Arc<PreparedQuery>)>;

/// Entries kept in the plan cache before it is cleared wholesale (pagination
/// workloads reuse a handful of texts; precision eviction isn't worth it).
const PLAN_CACHE_CAP: usize = 256;

impl PlanCache {
    /// The map, recovering poison: entries are inserted whole and nothing
    /// runs under the lock but map operations, so a poisoned map is intact.
    fn lock(&self) -> MutexGuard<'_, PlanMap> {
        self.plans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The plan cached for `key` under `generation`, or the one `prepare`
    /// builds. `prepare` (parse, translate, optimize) runs outside the lock,
    /// so readers re-preparing after a publish do not queue behind one
    /// another; a concurrent duplicate preparation is harmless (last insert
    /// wins, the plans are equivalent).
    fn get_or_prepare(
        &self,
        key: &str,
        generation: u64,
        prepare: impl FnOnce() -> Result<PreparedQuery>,
    ) -> Result<Arc<PreparedQuery>> {
        if let Some((stamped, prepared)) = self.lock().get(key) {
            if *stamped == generation {
                return Ok(Arc::clone(prepared));
            }
            // Stale: the dataset's statistics-relevant state moved since
            // this plan was optimized. Fall through and re-prepare.
        }
        let prepared = Arc::new(prepare()?);
        let mut plans = self.lock();
        if plans.len() >= PLAN_CACHE_CAP {
            plans.clear();
        }
        plans.insert(key.to_string(), (generation, Arc::clone(&prepared)));
        Ok(prepared)
    }

    /// The cached plan for a query text, if any (observability for tests).
    fn get(&self, key: &str) -> Option<Arc<PreparedQuery>> {
        self.lock().get(key).map(|(_, p)| Arc::clone(p))
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// The prepared plan for SPARQL text `engine` parses, through `plans`;
/// `error` types a rejection (an endpoint error for text a client sent, a
/// compile error for a model's rendered text).
fn prepare_cached(
    plans: &PlanCache,
    engine: &Engine,
    sparql: &str,
    error: fn(String) -> FrameError,
) -> Result<Arc<PreparedQuery>> {
    plans.get_or_prepare(sparql, engine.dataset().stats_generation(), || {
        engine.prepare(sparql).map_err(|e| error(e.to_string()))
    })
}

/// An endpoint backed by the in-process SPARQL engine.
#[derive(Clone)]
pub struct InProcessEndpoint {
    engine: Engine,
    config: EndpointConfig,
    stats: Arc<EndpointStats>,
    plans: Arc<PlanCache>,
}

impl InProcessEndpoint {
    /// Endpoint over a dataset with default configuration.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        Self::with_config(dataset, EndpointConfig::default())
    }

    /// Endpoint with explicit configuration.
    pub fn with_config(dataset: Arc<Dataset>, config: EndpointConfig) -> Self {
        InProcessEndpoint {
            engine: Engine::with_config(dataset, config.engine.clone()),
            config,
            stats: Arc::new(EndpointStats::default()),
            plans: Arc::new(PlanCache::default()),
        }
    }

    /// The underlying engine (e.g. for baselines that bypass RDFFrames).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A new endpoint over `dataset` that keeps this endpoint's
    /// configuration and **shares** its statistics and plan cache
    /// (Arc-cloned). [`DurableSnapshotServer`] uses this to publish dataset
    /// epochs: cached plans carry the stats-generation stamp they were
    /// optimized under, so queries against the new snapshot re-optimize
    /// exactly when the statistics moved.
    pub fn with_dataset(&self, dataset: Arc<Dataset>) -> Self {
        InProcessEndpoint {
            engine: Engine::with_config(dataset, self.engine.config().clone()),
            config: self.config.clone(),
            stats: Arc::clone(&self.stats),
            plans: Arc::clone(&self.plans),
        }
    }

    /// Mutable engine access — the ingestion path for a live endpoint
    /// (`engine_mut().dataset_mut()` to append triples). Cached plans
    /// notice the resulting [`rdf_model::Dataset::stats_generation`] change
    /// and re-optimize on their next use.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Request statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// Prepared plans currently cached (observability for tests/benches).
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// The cached prepared plan for a query text, if present (observability
    /// for tests/benches — e.g. asserting that a post-append re-preparation
    /// actually changed the plan).
    pub fn cached_plan(&self, sparql: &str) -> Option<Arc<PreparedQuery>> {
        self.plans.get(sparql)
    }
}

impl InProcessEndpoint {
    /// The request body, separated so [`Endpoint::query_chunk`] can account
    /// uniformly: overhead and the request counter are charged before this
    /// runs (a failed request still consumed a round trip), and any error
    /// it returns bumps the error counter exactly once.
    fn serve_chunk(&self, sparql: &str, offset: usize, limit: usize) -> Result<SolutionTable> {
        let limit = limit.min(self.config.max_rows_per_request);
        // Plan once per query text; evaluate per chunk (the HTTP model).
        // Paging inside the engine means evaluation stops when the chunk is
        // full and only shipped rows materialize terms.
        let prepared = prepare_cached(&self.plans, &self.engine, sparql, FrameError::Endpoint)?;
        let (table, _) = self
            .engine
            .execute_prepared(&prepared, Some((offset, limit)))
            .map_err(engine_error)?;
        self.stats
            .rows_returned
            .fetch_add(table.len() as u64, Ordering::Relaxed);
        // The server's table is dropped once encoded: only the bytes cross
        // to the client side, which decodes them into a table of its own.
        let encoded = xml::encode(&table);
        drop(table);
        xml::decode(&encoded).ok_or_else(|| FrameError::Transport("XML round trip failed".into()))
    }
}

impl Endpoint for InProcessEndpoint {
    fn query_chunk(&self, sparql: &str, offset: usize, limit: usize) -> Result<SolutionTable> {
        if !self.config.request_overhead.is_zero() {
            std::thread::sleep(self.config.request_overhead);
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.serve_chunk(sparql, offset, limit);
        if result.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn max_rows_per_request(&self) -> usize {
        self.config.max_rows_per_request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Graph, Term, Triple};

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
    fn chunked_reads() {
        let ep = InProcessEndpoint::with_config(
            dataset(),
            EndpointConfig {
                max_rows_per_request: 4,
                ..Default::default()
            },
        );
        let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
        let c1 = ep.query_chunk(q, 0, 4).unwrap();
        let c2 = ep.query_chunk(q, 4, 4).unwrap();
        let c3 = ep.query_chunk(q, 8, 4).unwrap();
        assert_eq!(c1.len(), 4);
        assert_eq!(c2.len(), 4);
        assert_eq!(c3.len(), 2);
        assert_eq!(ep.stats().requests(), 3);
        assert_eq!(ep.stats().rows_returned(), 10);
    }

    #[test]
    fn server_cap_beats_client_limit() {
        let ep = InProcessEndpoint::with_config(
            dataset(),
            EndpointConfig {
                max_rows_per_request: 3,
                ..Default::default()
            },
        );
        let q = "SELECT ?s FROM <http://g> WHERE { ?s <http://x/p> ?o }";
        let c = ep.query_chunk(q, 0, 1000).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn out_of_range_chunks_are_empty_on_wire_and_embedded_paths() {
        // `offset > len` through prepared-plan pagination must agree
        // between the wire endpoint (XML round trip included) and the
        // embedded endpoint: an empty table with the schema intact, no
        // panic, no error — so a paginating client that overshoots the last
        // page terminates cleanly on either path.
        let ds = dataset();
        let wire = InProcessEndpoint::new(Arc::clone(&ds));
        let embedded = crate::client::EmbeddedEndpoint::new(ds);
        let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
        for offset in [10, 11, 1000, usize::MAX] {
            let via_wire = wire.query_chunk(q, offset, 4).unwrap();
            let via_embedded = embedded.query_chunk(q, offset, 4).unwrap();
            assert!(via_wire.is_empty(), "offset {offset}");
            assert_eq!(via_wire.vars(), ["s", "o"]);
            assert_eq!(via_wire, via_embedded, "paths disagree at offset {offset}");
        }
        // The page straddling the end is the same partial chunk on both.
        let via_wire = wire.query_chunk(q, 8, usize::MAX).unwrap();
        let via_embedded = embedded.query_chunk(q, 8, usize::MAX).unwrap();
        assert_eq!(via_wire.len(), 2);
        assert_eq!(via_wire, via_embedded);
    }

    #[test]
    fn bad_query_is_endpoint_error() {
        let ep = InProcessEndpoint::new(dataset());
        assert!(matches!(
            ep.query_chunk("NOT SPARQL", 0, 10),
            Err(FrameError::Endpoint(_))
        ));
    }

    /// The predicate of the first pattern of a prepared `Project(Bgp)`.
    fn first_predicate(prepared: &sparql_engine::PreparedQuery) -> Term {
        use sparql_engine::algebra::Plan;
        let mut plan = prepared.plan();
        loop {
            match plan {
                Plan::Bgp { patterns, .. } => {
                    let sparql_engine::ast::PatternTerm::Const(t) = &patterns[0].predicate else {
                        panic!("constant predicate expected")
                    };
                    return t.clone();
                }
                Plan::Project(_, p) => plan = p.as_ref(),
                other => panic!("unexpected plan shape: {other:?}"),
            }
        }
    }

    #[test]
    fn plan_cache_reoptimizes_after_append_inverts_selectivities() {
        use rdf_model::Triple as T;

        let common = |i: usize| Term::iri(format!("http://x/c{i}"));
        let rare = |i: usize| Term::iri(format!("http://x/r{i}"));
        let p_common = Term::iri("http://x/common");
        let p_rare = Term::iri("http://x/rare");

        // Skewed small graph: <common> has 40 triples, <rare> has 2.
        let mut g = Graph::new();
        for i in 0..40 {
            g.insert(&T::new(
                common(i),
                p_common.clone(),
                Term::integer(i as i64),
            ));
        }
        for i in 0..2 {
            g.insert(&T::new(rare(i), p_rare.clone(), Term::integer(i as i64)));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        let mut ep = InProcessEndpoint::new(Arc::new(ds));

        let q = "SELECT ?s ?a ?b FROM <http://g> WHERE { \
                 ?s <http://x/common> ?a . ?s <http://x/rare> ?b }";

        // Cache the plan on the skewed graph: <rare> is selective → first.
        ep.query_chunk(q, 0, 100).unwrap();
        let stale = ep.cached_plan(q).expect("plan cached");
        assert_eq!(first_predicate(&stale), p_rare);

        // Append enough <rare> triples (fresh subjects) to invert the
        // selectivities; the stats count them.
        let appended: Vec<T> = (100..400)
            .map(|i| T::new(rare(i), p_rare.clone(), Term::integer(i as i64)))
            .collect();
        let added = ep
            .engine_mut()
            .dataset_mut()
            .expect("endpoint holds the sole dataset reference")
            .append_triples("http://g", appended)
            .unwrap();
        assert_eq!(added, 300);

        // The next chunk must NOT be served from the stale plan: the cache
        // detects the stats-generation change and re-optimizes.
        ep.query_chunk(q, 0, 100).unwrap();
        assert_eq!(ep.cached_plans(), 1, "entry replaced, not duplicated");
        let fresh = ep.cached_plan(q).expect("plan re-cached");
        assert_eq!(
            first_predicate(&fresh),
            p_common,
            "re-served plan must reorder the BGP for the new statistics"
        );

        // And the re-optimized order scans strictly less than the stale one
        // would on the post-append data.
        let (_, stale_stats) = ep.engine().execute_prepared(&stale, None).unwrap();
        let (_, fresh_stats) = ep.engine().execute_prepared(&fresh, None).unwrap();
        assert!(
            fresh_stats.rows_scanned < stale_stats.rows_scanned,
            "re-optimization must cut scan work: fresh {} vs stale {}",
            fresh_stats.rows_scanned,
            stale_stats.rows_scanned
        );
    }

    #[test]
    fn plan_cache_reorders_when_an_append_makes_the_in_constant_common() {
        use rdf_model::Triple as T;

        let p_country = Term::iri("http://x/country");
        let p_genre = Term::iri("http://x/genre");
        let (usa, fiji) = (Term::iri("http://x/usa"), Term::iri("http://x/fiji"));
        let entity = |i: usize| Term::iri(format!("http://x/e{i}"));

        // 40 `usa` and 2 `fiji` countries, 20 genres: `?c IN (fiji)` keeps
        // 2 of 42 country rows, so the country pattern leads.
        let mut g = Graph::new();
        for i in 0..42 {
            let c = if i < 40 { &usa } else { &fiji };
            g.insert(&T::new(entity(i), p_country.clone(), c.clone()));
        }
        for i in 0..20 {
            g.insert(&T::new(entity(i), p_genre.clone(), Term::integer(i as i64)));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        let mut ep = InProcessEndpoint::new(Arc::new(ds));

        let q = "SELECT ?s ?c ?g FROM <http://g> WHERE { \
                 ?s <http://x/genre> ?g . ?s <http://x/country> ?c \
                 FILTER ( ?c IN (<http://x/fiji>) ) }";
        ep.query_chunk(q, 0, 100).unwrap();
        let stale = ep.cached_plan(q).expect("plan cached");
        assert_eq!(first_predicate(&stale), p_country);

        // 300 more `fiji` entities: the filter now keeps 302 of 342 rows,
        // more than the 20 genre rows, so the genre pattern should lead.
        let appended: Vec<T> = (100..400)
            .map(|i| T::new(entity(i), p_country.clone(), fiji.clone()))
            .collect();
        let dataset = ep
            .engine_mut()
            .dataset_mut()
            .expect("sole dataset reference");
        assert_eq!(dataset.append_triples("http://g", appended).unwrap(), 300);

        // The stats-generation stamp moved, so the cached plan is replaced,
        // and the exact counts the new plan is charged are the new data's.
        ep.query_chunk(q, 0, 100).unwrap();
        assert_eq!(ep.cached_plans(), 1, "entry replaced, not duplicated");
        let fresh = ep.cached_plan(q).expect("plan re-cached");
        assert_eq!(first_predicate(&fresh), p_genre);
        let (_, stale_stats) = ep.engine().execute_prepared(&stale, None).unwrap();
        let (_, fresh_stats) = ep.engine().execute_prepared(&fresh, None).unwrap();
        assert!(
            fresh_stats.rows_scanned < stale_stats.rows_scanned,
            "fresh {} vs stale {}",
            fresh_stats.rows_scanned,
            stale_stats.rows_scanned
        );
    }

    #[test]
    fn plan_cache_survives_a_panicking_prepare_and_a_poisoned_lock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let engine = Engine::new(dataset());
        let cache = PlanCache::default();
        let text = "SELECT * WHERE { ?s <http://x/p> ?o }";
        let generation = engine.dataset().stats_generation();
        let prepare = || {
            engine
                .prepare(text)
                .map_err(|e| FrameError::Endpoint(e.to_string()))
        };

        // A panic inside `prepare` happens outside the lock: nothing is
        // inserted, nothing is poisoned, and the same key prepares next time.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_prepare(text, generation, || panic!("prepare blew up"))
        }));
        assert!(panicked.is_err());
        assert!(!cache.plans.is_poisoned());
        assert_eq!(cache.len(), 0);
        let first = cache.get_or_prepare(text, generation, prepare).unwrap();
        assert_eq!(cache.len(), 1);

        // Even a poisoned mutex (a panic while the guard is held) is
        // recovered by every accessor, and the entry is still served.
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.lock();
            panic!("panic under the plan-cache lock");
        }));
        assert!(poisoned.is_err());
        assert!(cache.plans.is_poisoned());
        let again = cache
            .get_or_prepare(text, generation, || panic!("cached: must not re-prepare"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert!(cache.get(text).is_some());
        assert_eq!(cache.len(), 1);
        // A generation move re-prepares through the recovered lock.
        let fresh = cache.get_or_prepare(text, generation + 1, prepare).unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(cache.len(), 1, "entry replaced, not duplicated");
    }

    #[test]
    fn plan_cache_reuses_prepared_queries_across_chunks() {
        let ep = InProcessEndpoint::with_config(
            dataset(),
            EndpointConfig {
                max_rows_per_request: 4,
                ..Default::default()
            },
        );
        let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
        assert_eq!(ep.cached_plans(), 0);
        let c1 = ep.query_chunk(q, 0, 4).unwrap();
        assert_eq!(ep.cached_plans(), 1);
        let c2 = ep.query_chunk(q, 4, 4).unwrap();
        let c3 = ep.query_chunk(q, 8, 4).unwrap();
        // Still one cached plan after three chunks of the same text …
        assert_eq!(ep.cached_plans(), 1);
        // … and another text adds a second entry.
        ep.query_chunk(
            "SELECT ?s FROM <http://g> WHERE { ?s <http://x/p> ?o }",
            0,
            4,
        )
        .unwrap();
        assert_eq!(ep.cached_plans(), 2);
        // The cached plan still pages correctly.
        assert_eq!(c1.len() + c2.len() + c3.len(), 10);
        assert!(c1.rows().ne(c2.rows()));
    }
}
