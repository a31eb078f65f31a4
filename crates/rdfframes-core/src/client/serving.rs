//! Durable, overload-resilient serving: the one front door that answers
//! queries over immutable dataset epochs while WAL-backed writers publish
//! the next one.
//!
//! The paper's deployment story is a live endpoint (Virtuoso) that keeps
//! answering exploratory RDFFrames queries while the knowledge graph is
//! being updated. [`DurableSnapshotServer`] reproduces that contract
//! in-process: an epoch scheme for readers, [`rdf_model::persist::Store`]
//! for crash-consistent writes, and a governor in front.
//!
//! # Epochs
//!
//! * A **snapshot** ([`EpochEndpoints`]) bundles one immutable
//!   `Arc<Dataset>` with an [`EmbeddedEndpoint`] and an
//!   [`InProcessEndpoint`] built over it. Everything a reader touches hangs
//!   off that one `Arc`, so a query admitted against epoch *N* runs against
//!   epoch *N*'s data from first scan to last decode — it can never observe
//!   half of an update ("torn" reads are structurally impossible, not just
//!   avoided).
//! * [`DurableSnapshotServer::snapshot`] is the **read path**: a
//!   shared-lock acquire and an `Arc` clone, nothing else. Readers never
//!   contend with each other and only overlap a writer for the instant of
//!   the pointer swap.
//! * The **write path** runs under the store mutex, the one writer lock:
//!   commit, rebuild both endpoints over the store's new dataset *outside*
//!   any lock readers hold, then publish the finished epoch with a single
//!   pointer swap. In-flight queries keep their old snapshot alive through
//!   their own `Arc` and drain naturally. A publish copies the interner's
//!   index (O(distinct terms)) and the touched graph's slabs; untouched
//!   graphs stay shared.
//!
//! Plan caches carry across epochs: the rebuilt endpoints share the
//! previous epoch's caches (see [`EmbeddedEndpoint::with_dataset`]), and
//! every cached plan is stamped with the [`Dataset::stats_generation`] it
//! was optimized under. A published mutation bumps the generation, so the
//! first execution of each query on the new epoch re-optimizes against
//! fresh statistics while untouched epochs keep serving cached plans.
//!
//! # Durability before publish
//!
//! Every mutation ([`DurableSnapshotServer::insert_graph`] /
//! [`DurableSnapshotServer::append_triples`]) commits through the store's
//! write-ahead log **before** the epoch pointer swap. The published dataset
//! is the *store's* canonical state (`Store::shared_dataset`), not a
//! privately mutated clone — the store logs mutations in canonical order
//! and applies the logged record, so the state readers serve is physically
//! identical to the state recovery rebuilds, down to slab layout and scan
//! counters. A failed commit publishes nothing: readers keep the last
//! epoch, the caller gets a typed [`FrameError::Mutation`], and restart
//! recovery lands on exactly the committed prefix.
//!
//! Checkpointing is threshold-triggered
//! ([`ServingConfig::checkpoint_wal_bytes`]) and runs *after* the publish,
//! while readers serve the new epoch: a checkpoint failure after a
//! successful commit loses nothing (old snapshot + full WAL still cover
//! every committed mutation) and is only counted, not surfaced.
//!
//! # Admission control and the degradation ladder
//!
//! [`AdmissionGovernor`] caps concurrently executing queries at
//! [`ServingConfig::max_in_flight`]. Excess load walks a ladder instead of
//! queueing unboundedly:
//!
//! 1. **Shed wire before embedded.** Wire-class queries (paginated,
//!    re-executing per chunk — the expensive surface) never wait: at
//!    saturation they are shed immediately with a retryable
//!    [`FrameError::Overloaded`].
//! 2. **Bounded queueing for embedded.** Embedded-class queries may wait
//!    for a slot, but only [`ServingConfig::max_waiters`] of them and only
//!    for [`ServingConfig::max_wait`]; past either bound they are shed
//!    with the same typed error — never a hang, never a panic.
//! 3. **Degrade completeness under deadline pressure.** A per-query
//!    deadline ([`ServingConfig::query_deadline`]) is injected into the
//!    engine's [`QueryBudget`], so an admitted query that overruns is cut
//!    off with a typed budget error; the wire path goes through
//!    [`Executor::run_partial`], so a deadline trip mid-pagination returns
//!    the intact prefix with [`Completeness::Partial`] instead of
//!    discarding everything.
//!
//! Shedding happens before a query touches any snapshot, so shed queries
//! cannot corrupt accepted ones; accepted queries run against one
//! immutable epoch end to end and return results identical to an unloaded
//! run. Everything is observable through [`ServerStats`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use dataframe::DataFrame;
use rdf_model::persist::{RecoveryReport, Store, StoreStats, Vfs};
use rdf_model::{Dataset, Graph, Triple};
use sparql_engine::{EngineConfig, QueryBudget};

use crate::api::RDFFrame;
use crate::client::{EmbeddedEndpoint, EndpointConfig, InProcessEndpoint};
use crate::error::{FrameError, Result};
use crate::exec::{Completeness, Executor, PartialFrame};
use crate::model::{generator, render};

/// Map a storage failure onto the client taxonomy: the mutation was not
/// published and the server keeps serving, which is exactly what
/// [`FrameError::Mutation`] says.
fn storage_error(e: rdf_model::persist::StorageError) -> FrameError {
    FrameError::Mutation(e.to_string())
}

/// Which front-door surface a query arrives on — the shedding ladder
/// treats them differently (wire sheds first, embedded may briefly queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Compiled-model columnar execution (cheap, latency-sensitive).
    Embedded,
    /// Paginated SPARQL-over-wire execution (re-evaluates per chunk).
    Wire,
}

/// Tuning for [`DurableSnapshotServer`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Queries allowed to execute concurrently; the governor's hard cap.
    pub max_in_flight: usize,
    /// Embedded-class queries allowed to wait for a slot at once. Wire
    /// never waits. Zero disables queueing entirely.
    pub max_waiters: usize,
    /// Longest an embedded-class query waits for a slot before it is shed.
    pub max_wait: Duration,
    /// Per-query execution deadline injected into the engine budget
    /// (`None` = no deadline). Applies on top of any limits already in the
    /// engine/endpoint configs' budgets; the wire path additionally
    /// enforces it cumulatively across pagination chunks, degrading to an
    /// intact prefix ([`crate::Completeness::Partial`]) when it expires
    /// between chunks.
    pub query_deadline: Option<Duration>,
    /// Degraded wire service: stop paginating once this many rows are
    /// assembled and return the intact prefix as
    /// [`crate::Completeness::Partial`] (`None` = assemble everything).
    /// Bounds per-query work under overload without shedding the query.
    pub max_wire_result_rows: Option<u64>,
    /// Engine configuration for the embedded endpoint of every epoch.
    pub engine_config: EngineConfig,
    /// Configuration for the wire endpoint of every epoch.
    pub endpoint_config: EndpointConfig,
    /// Checkpoint (snapshot + WAL reset) after a mutation leaves the WAL
    /// larger than this many bytes. `None` = only explicit checkpoints.
    pub checkpoint_wal_bytes: Option<u64>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_in_flight: 64,
            max_waiters: 64,
            max_wait: Duration::from_millis(100),
            query_deadline: None,
            max_wire_result_rows: None,
            engine_config: EngineConfig::new(),
            endpoint_config: EndpointConfig::default(),
            checkpoint_wal_bytes: Some(4 << 20),
        }
    }
}

/// The server's observability counters, as read by
/// [`DurableSnapshotServer::stats`].
///
/// Every submission is decided exactly once and only an admitted query can
/// trip its deadline, so `admitted + shed == submitted` and
/// `timed_out <= admitted` hold whenever no admission is in progress. The
/// counters are loaded one by one and `submitted` is bumped before the
/// decision, so a read that races an admission may see `submitted` ahead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries that reached the front door.
    pub submitted: u64,
    /// Queries granted an execution slot.
    pub admitted: u64,
    /// Queries rejected with [`FrameError::Overloaded`].
    pub shed: u64,
    /// Admitted queries cut off by the injected per-query deadline.
    pub timed_out: u64,
    /// Mutations durably WAL-committed ([`StoreStats::commits`]).
    pub wal_commits: u64,
    /// Checkpoints completed ([`StoreStats::checkpoints`]).
    pub checkpoints: u64,
    /// Threshold-triggered checkpoints that failed (nothing lost — the old
    /// snapshot plus the full WAL still cover every commit).
    pub checkpoint_failures: u64,
    /// Epochs published, counting the one recovery served first — always
    /// `snapshot().epoch() + 1`.
    pub epochs_published: u64,
}

/// Waiting-room bookkeeping behind the governor's mutex.
struct GovernorState {
    in_flight: usize,
    waiting: usize,
}

/// Front-door concurrency governor: a counting semaphore with a bounded,
/// deadline-capped wait queue and per-class shedding policy.
///
/// Exposed (via [`DurableSnapshotServer::governor`]) so tests can pin the
/// server at saturation deterministically: acquire `max_in_flight` permits
/// directly, then every further submission sheds with no timing involved.
pub struct AdmissionGovernor {
    state: Mutex<GovernorState>,
    slots_free: Condvar,
    max_in_flight: usize,
    max_waiters: usize,
    max_wait: Duration,
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl AdmissionGovernor {
    fn new(config: &ServingConfig) -> Self {
        AdmissionGovernor {
            state: Mutex::new(GovernorState {
                in_flight: 0,
                waiting: 0,
            }),
            slots_free: Condvar::new(),
            max_in_flight: config.max_in_flight.max(1),
            max_waiters: config.max_waiters,
            max_wait: config.max_wait,
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The state mutex, recovering poison: the two counters are only ever
    /// adjusted under the lock and never observed mid-adjustment, so a
    /// panicked holder leaves them consistent.
    fn lock_state(&self) -> MutexGuard<'_, GovernorState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Ask for an execution slot. Returns a permit that releases the slot
    /// on drop, or a retryable [`FrameError::Overloaded`] when the ladder
    /// says to shed this class right now. Never blocks longer than
    /// `max_wait`, never panics.
    pub fn admit(&self, class: QueryClass) -> Result<AdmissionPermit<'_>> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let mut st = self.lock_state();
        if st.in_flight < self.max_in_flight {
            st.in_flight += 1;
            drop(st);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit { governor: self });
        }
        // Saturated. Rung 1: wire sheds immediately; embedded may queue,
        // but only within the waiting-room bound.
        if class == QueryClass::Wire || st.waiting >= self.max_waiters || self.max_wait.is_zero() {
            let msg = format!(
                "all {} slots busy, {} waiting ({:?} class sheds)",
                self.max_in_flight, st.waiting, class
            );
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(FrameError::Overloaded(msg));
        }
        st.waiting += 1;
        let give_up = Instant::now() + self.max_wait;
        loop {
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                st.waiting -= 1;
                drop(st);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(FrameError::Overloaded(format!(
                    "no slot freed within {:?} (all {} busy)",
                    self.max_wait, self.max_in_flight
                )));
            }
            let (guard, _timeout) = self
                .slots_free
                .wait_timeout(st, remaining)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
            if st.in_flight < self.max_in_flight {
                st.waiting -= 1;
                st.in_flight += 1;
                drop(st);
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(AdmissionPermit { governor: self });
            }
            // Spurious wakeup or someone else took the slot: loop, and let
            // the deadline check at the top decide whether to shed.
        }
    }

    /// Queries that reached this governor so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Queries granted a slot so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Queries shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// A granted execution slot; dropping it frees the slot and wakes waiters.
pub struct AdmissionPermit<'g> {
    governor: &'g AdmissionGovernor,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.governor.lock_state();
        st.in_flight -= 1;
        drop(st);
        // notify_all, not notify_one: several waiters may be racing the
        // same freed slot and a lost wakeup would stall one until its
        // timeout even though a slot was free.
        self.governor.slots_free.notify_all();
    }
}

/// One published epoch: an immutable dataset snapshot plus the two endpoint
/// flavors serving it. Cloned `Arc`s of this struct are what readers hold;
/// an epoch stays fully usable for as long as any reader keeps it alive,
/// even after newer epochs are published.
pub struct EpochEndpoints {
    epoch: u64,
    generation: u64,
    dataset: Arc<Dataset>,
    embedded: EmbeddedEndpoint,
    wire: InProcessEndpoint,
}

impl std::fmt::Debug for EpochEndpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochEndpoints")
            .field("epoch", &self.epoch)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl EpochEndpoints {
    /// Monotone publish counter (the state recovery served first is
    /// epoch 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dataset's [`Dataset::stats_generation`] at publish time — the
    /// same stamp the plan caches validate against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The immutable dataset this epoch serves.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The embedded (columnar, no-wire) endpoint over this epoch.
    pub fn embedded(&self) -> &EmbeddedEndpoint {
        &self.embedded
    }

    /// The wire-faithful (paginated, XML round-trip) endpoint over this
    /// epoch.
    pub fn wire(&self) -> &InProcessEndpoint {
        &self.wire
    }
}

/// Serves immutable dataset epochs to concurrent readers; mutations are
/// durable before they are visible and the query front door is governed.
/// See the module docs for the protocol and the degradation ladder.
pub struct DurableSnapshotServer {
    /// The durable source of truth and the one writer lock: every mutation
    /// commits and publishes while holding it. The read path never touches
    /// it (readers hold epoch snapshots).
    store: Mutex<Store>,
    /// The currently published epoch. Readers take the lock shared for one
    /// `Arc` clone; a publish takes it exclusively for one pointer swap.
    current: RwLock<Arc<EpochEndpoints>>,
    governor: AdmissionGovernor,
    checkpoint_wal_bytes: Option<u64>,
    /// Cross-chunk wire degradation knobs (see [`ServingConfig`]).
    query_deadline: Option<Duration>,
    max_wire_result_rows: Option<u64>,
    checkpoint_failures: AtomicU64,
    timed_out: AtomicU64,
}

impl DurableSnapshotServer {
    /// Open (or create) a durable server over `vfs`: run store recovery
    /// (snapshot load + WAL replay + torn-tail truncation) and publish the
    /// recovered state as the first served epoch. A reopened server
    /// therefore resumes at exactly the committed epoch.
    pub fn open(vfs: Arc<dyn Vfs>, config: ServingConfig) -> Result<Self> {
        let store = Store::open(vfs).map_err(storage_error)?;
        Ok(Self::from_store(store, config))
    }

    /// Open (or create) a durable server in directory `dir` on the real
    /// file system.
    pub fn open_path(dir: impl AsRef<std::path::Path>, config: ServingConfig) -> Result<Self> {
        let store = Store::open_path(dir).map_err(storage_error)?;
        Ok(Self::from_store(store, config))
    }

    fn from_store(store: Store, config: ServingConfig) -> Self {
        let mut engine_config = config.engine_config.clone();
        let mut endpoint_config = config.endpoint_config.clone();
        if let Some(deadline) = config.query_deadline {
            engine_config.budget = with_deadline(engine_config.budget, deadline);
            endpoint_config.budget = with_deadline(endpoint_config.budget, deadline);
        }
        let dataset = store.shared_dataset();
        let first = EpochEndpoints {
            epoch: 0,
            generation: dataset.stats_generation(),
            embedded: EmbeddedEndpoint::with_engine_config(Arc::clone(&dataset), engine_config),
            wire: InProcessEndpoint::with_config(Arc::clone(&dataset), endpoint_config),
            dataset,
        };
        DurableSnapshotServer {
            governor: AdmissionGovernor::new(&config),
            checkpoint_wal_bytes: config.checkpoint_wal_bytes,
            query_deadline: config.query_deadline,
            max_wire_result_rows: config.max_wire_result_rows,
            checkpoint_failures: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            store: Mutex::new(store),
            current: RwLock::new(Arc::new(first)),
        }
    }

    /// The store mutex, recovering poison: the store keeps its own
    /// consistency (a failed commit rolls back or self-poisons with a
    /// typed error), so lock poison adds nothing.
    fn lock_store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Durably insert (or replace) a named graph, then publish the new
    /// epoch. The WAL commit happens strictly before the pointer swap: on
    /// any storage failure nothing is published, readers keep the last
    /// epoch, and the error comes back as [`FrameError::Mutation`].
    pub fn insert_graph(&self, uri: &str, graph: &Graph) -> Result<Arc<EpochEndpoints>> {
        let mut store = self.lock_store();
        store.insert_graph(uri, graph).map_err(storage_error)?;
        Ok(self.publish_and_maybe_checkpoint(&mut store))
    }

    /// Durably append triples to an existing graph, then publish the new
    /// epoch. Same durability-before-publish contract as
    /// [`DurableSnapshotServer::insert_graph`].
    pub fn append_triples(&self, uri: &str, triples: Vec<Triple>) -> Result<Arc<EpochEndpoints>> {
        let mut store = self.lock_store();
        store.append_triples(uri, triples).map_err(storage_error)?;
        Ok(self.publish_and_maybe_checkpoint(&mut store))
    }

    /// Publish the store's canonical post-commit dataset, then apply the
    /// WAL-size checkpoint policy while readers already serve the new
    /// epoch. A checkpoint failure is deliberately not surfaced: the
    /// commit is durable either way (old snapshot + full WAL), so the
    /// mutation succeeded; the failure is counted and the store's own
    /// poisoning (if any) surfaces on the next mutation.
    fn publish_and_maybe_checkpoint(&self, store: &mut Store) -> Arc<EpochEndpoints> {
        let published = self.publish(store);
        if let Some(threshold) = self.checkpoint_wal_bytes {
            if store.wal_len() > threshold && store.checkpoint().is_err() {
                self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        published
    }

    /// Publish `store`'s dataset as the next epoch: rebuild both endpoints
    /// over it (sharing the previous epoch's plan caches), then swap the
    /// epoch pointer. Taking the `&Store` means the caller holds the store
    /// mutex, which is what serializes publishes.
    fn publish(&self, store: &Store) -> Arc<EpochEndpoints> {
        let next = store.shared_dataset();
        let base = self.snapshot();
        let published = Arc::new(EpochEndpoints {
            epoch: base.epoch + 1,
            generation: next.stats_generation(),
            embedded: base.embedded.with_dataset(Arc::clone(&next)),
            wire: base.wire.with_dataset(Arc::clone(&next)),
            dataset: next,
        });
        *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&published);
        published
    }

    /// Checkpoint now regardless of WAL size (snapshot + WAL reset).
    pub fn checkpoint(&self) -> Result<()> {
        self.lock_store().checkpoint().map_err(storage_error)
    }

    /// The currently published epoch. Ungoverned: handing out a snapshot
    /// is an `Arc` clone, and queries run through it directly bypass
    /// admission — the governed surface is
    /// [`DurableSnapshotServer::execute`] /
    /// [`DurableSnapshotServer::execute_wire`].
    ///
    /// Poison-proof: the protected state is a plain `Arc`, swapped
    /// atomically under the lock — a panic elsewhere can never leave it
    /// half-written, so a poisoned lock is recovered rather than propagated
    /// and the last published epoch keeps serving.
    pub fn snapshot(&self) -> Arc<EpochEndpoints> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Execute a frame on the embedded path under admission control.
    /// Sheds with retryable [`FrameError::Overloaded`] at saturation
    /// (after bounded queueing); an injected deadline trip comes back as
    /// [`FrameError::ResourceExhausted`] and counts as timed out.
    pub fn execute(&self, frame: &RDFFrame) -> Result<DataFrame> {
        let _permit = self.governor.admit(QueryClass::Embedded)?;
        let snap = self.snapshot();
        let result = Executor::new().execute(frame, snap.embedded());
        if let Err(e) = &result {
            self.count_timeout(e);
        }
        result
    }

    /// Execute a frame on the paginated wire path under admission control.
    /// Wire never queues: at saturation it sheds immediately (the first
    /// rung of the degradation ladder). Under pressure the result degrades
    /// instead of vanishing: a budget trip after the first chunk — or a
    /// cumulative cross-chunk limit (`query_deadline`,
    /// `max_wire_result_rows`) expiring between chunks — returns the
    /// intact prefix with [`Completeness::Partial`].
    pub fn execute_wire(&self, frame: &RDFFrame) -> Result<PartialFrame> {
        let _permit = self.governor.admit(QueryClass::Wire)?;
        let snap = self.snapshot();
        let model = generator::build_query_model(frame)?;
        let sparql = render::render(&model);
        let mut executor = Executor::new();
        executor.wire_deadline = self.query_deadline;
        executor.wire_row_cap = self.max_wire_result_rows;
        let result = executor.run_partial(&sparql, snap.wire());
        if let Ok(PartialFrame {
            completeness: Completeness::Partial { error },
            ..
        })
        | Err(error) = &result
        {
            self.count_timeout(error);
        }
        result
    }

    /// Count `e` as timed out when it came from the deadline axis of the
    /// engine budget (the engine's `ResourceKind::Deadline` displays as
    /// "deadline (ms)", preserved through [`FrameError::ResourceExhausted`]'s
    /// detail).
    fn count_timeout(&self, e: &FrameError) {
        if matches!(e, FrameError::ResourceExhausted(detail) if detail.contains("deadline")) {
            self.timed_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The admission governor — exposed so load tests can saturate the
    /// server deterministically (hold `max_in_flight` permits, then every
    /// submission sheds) instead of racing real queries against a clock.
    pub fn governor(&self) -> &AdmissionGovernor {
        &self.governor
    }

    /// What store recovery found when this server was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock_store().recovery().clone()
    }

    /// Raw storage telemetry since open.
    pub fn store_stats(&self) -> StoreStats {
        self.lock_store().stats()
    }

    /// Length of the valid WAL prefix on disk (observability for the
    /// checkpoint-policy tests).
    pub fn wal_len(&self) -> u64 {
        self.lock_store().wal_len()
    }

    /// The serving counters, each loaded on its own: the admission triple
    /// reconciles only when no admission is in progress (see
    /// [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        let store = self.lock_store().stats();
        ServerStats {
            submitted: self.governor.submitted(),
            admitted: self.governor.admitted(),
            shed: self.governor.shed(),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            wal_commits: store.commits,
            checkpoints: store.checkpoints,
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            epochs_published: self.snapshot().epoch() + 1,
        }
    }
}

/// `budget` with `deadline` as its deadline axis (keeping the tighter of
/// the two when one is already set).
fn with_deadline(budget: QueryBudget, deadline: Duration) -> QueryBudget {
    let effective = match budget.deadline {
        Some(existing) => existing.min(deadline),
        None => deadline,
    };
    budget.with_deadline(effective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::persist::MemVfs;
    use rdf_model::Term;

    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DurableSnapshotServer>();
        assert_send_sync::<AdmissionGovernor>();
        assert_send_sync::<EpochEndpoints>();
    };

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://x/movie{i}")),
            Term::iri("http://x/starring"),
            Term::iri(format!("http://x/actor{}", i % 5)),
        )
    }

    fn graph(n: usize) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert(&triple(i));
        }
        g
    }

    fn frame() -> RDFFrame {
        crate::api::KnowledgeGraph::new("http://g")
            .with_prefix("x", "http://x/")
            .feature_domain_range("x:starring", "movie", "actor")
    }

    #[test]
    fn update_is_durable_before_visible_and_restart_resumes_committed_epoch() {
        let vfs = Arc::new(MemVfs::new());
        let server = DurableSnapshotServer::open(vfs.clone(), ServingConfig::default()).unwrap();
        server.insert_graph("http://g", &graph(10)).unwrap();
        server
            .append_triples("http://g", vec![triple(100)])
            .unwrap();
        assert_eq!(server.execute(&frame()).unwrap().len(), 11);
        assert_eq!(server.stats().wal_commits, 2);
        let committed_gen = server.snapshot().generation();

        // Reopen from the same "disk": recovery replays the WAL and the
        // first served epoch is exactly the committed state.
        let reopened = DurableSnapshotServer::open(
            Arc::new(MemVfs::reopen_from(&vfs)),
            ServingConfig::default(),
        )
        .unwrap();
        assert_eq!(reopened.recovery().replayed, 2);
        assert_eq!(reopened.snapshot().generation(), committed_gen);
        assert_eq!(reopened.execute(&frame()).unwrap().len(), 11);
        assert_eq!(reopened.store_stats().recoveries, 1);
    }

    fn seeded(n: usize) -> DurableSnapshotServer {
        let server =
            DurableSnapshotServer::open(Arc::new(MemVfs::new()), ServingConfig::default()).unwrap();
        server.insert_graph("http://g", &graph(n)).unwrap();
        server
    }

    #[test]
    fn update_publishes_new_epoch_old_snapshot_stays_usable() {
        let server = seeded(10);
        let before = server.snapshot();
        assert_eq!(frame().execute(before.embedded()).unwrap().len(), 10);

        let after = server
            .append_triples("http://g", vec![triple(100)])
            .unwrap();
        assert_eq!(after.epoch(), before.epoch() + 1);
        assert!(after.generation() > before.generation());
        assert_eq!(server.stats().epochs_published, after.epoch() + 1);

        // The old handle still serves the old data; the new one sees the
        // appended triple; both agree with a fresh snapshot().
        assert_eq!(frame().execute(before.embedded()).unwrap().len(), 10);
        assert_eq!(frame().execute(after.embedded()).unwrap().len(), 11);
        assert_eq!(server.snapshot().epoch(), after.epoch());
    }

    #[test]
    fn plan_cache_reoptimizes_on_generation_change_only() {
        let server = seeded(25);
        let f = frame();
        let snap0 = server.snapshot();
        f.execute(snap0.embedded()).unwrap();
        let model = crate::model::generator::build_query_model(&f).unwrap();
        let plan0 = snap0.embedded().cached_model_plan(&model).unwrap();

        // Same epoch, second execution: cache hit, same Arc.
        f.execute(snap0.embedded()).unwrap();
        let plan0_again = snap0.embedded().cached_model_plan(&model).unwrap();
        assert!(Arc::ptr_eq(&plan0, &plan0_again));

        // A published append bumps the generation: the shared cache entry
        // goes stale and the next execution on the new epoch re-optimizes.
        let snap1 = server
            .append_triples("http://g", vec![triple(300)])
            .unwrap();
        f.execute(snap1.embedded()).unwrap();
        let plan1 = snap1.embedded().cached_model_plan(&model).unwrap();
        assert!(!Arc::ptr_eq(&plan0, &plan1));
    }

    #[test]
    fn wire_and_embedded_agree_within_an_epoch() {
        let server = seeded(25);
        server
            .append_triples("http://g", vec![triple(200), triple(201)])
            .unwrap();
        let snap = server.snapshot();
        let via_embedded = frame().execute(snap.embedded()).unwrap();
        let via_wire = frame().execute(snap.wire()).unwrap();
        assert_eq!(via_embedded, via_wire);
        assert_eq!(via_embedded.len(), 27);
    }

    #[test]
    fn failed_commit_publishes_nothing_and_is_typed() {
        let vfs = Arc::new(MemVfs::new());
        let server =
            DurableSnapshotServer::open(Arc::clone(&vfs) as Arc<dyn Vfs>, ServingConfig::default())
                .unwrap();
        server.insert_graph("http://g", &graph(5)).unwrap();

        // Arm the disk *after* the good commit: the next append tears.
        vfs.set_fault_plan(rdf_model::persist::FaultPlan {
            enospc_after_bytes: Some(10),
            ..rdf_model::persist::FaultPlan::none()
        });
        let epoch_before = server.snapshot().epoch();
        let err = server.append_triples("http://g", vec![triple(99)]);
        assert!(matches!(err, Err(FrameError::Mutation(_))), "{err:?}");
        // Nothing published; readers still serve the committed state.
        assert_eq!(server.snapshot().epoch(), epoch_before);
        assert_eq!(server.execute(&frame()).unwrap().len(), 5);
        assert_eq!(server.stats().epochs_published, 2, "initial + 1 commit");
        assert_eq!(server.stats().wal_commits, 1);
    }

    #[test]
    fn wal_threshold_triggers_checkpoint_after_publish() {
        let vfs = Arc::new(MemVfs::new());
        let server = DurableSnapshotServer::open(
            vfs,
            ServingConfig {
                checkpoint_wal_bytes: Some(64),
                ..ServingConfig::default()
            },
        )
        .unwrap();
        server.insert_graph("http://g", &graph(50)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.wal_commits, 1);
        assert_eq!(stats.checkpoints, 1, "50-triple record clears 64 bytes");
        assert!(server.wal_len() <= 64, "WAL was reset by the checkpoint");
        // The epoch published is the committed one regardless.
        assert_eq!(server.execute(&frame()).unwrap().len(), 50);
    }

    #[test]
    fn saturation_sheds_with_typed_retryable_error_and_counters_reconcile() {
        let vfs = Arc::new(MemVfs::new());
        let server = DurableSnapshotServer::open(
            vfs,
            ServingConfig {
                max_in_flight: 2,
                max_waiters: 0,
                max_wait: Duration::ZERO,
                ..ServingConfig::default()
            },
        )
        .unwrap();
        server.insert_graph("http://g", &graph(10)).unwrap();

        // Deterministic saturation: hold both slots, no racing threads.
        let p1 = server.governor().admit(QueryClass::Embedded).unwrap();
        let p2 = server.governor().admit(QueryClass::Embedded).unwrap();
        let err = server.execute(&frame()).expect_err("must shed");
        assert!(matches!(err, FrameError::Overloaded(_)), "{err:?}");
        assert!(err.is_retryable());
        let err = server.execute_wire(&frame()).expect_err("must shed");
        assert!(matches!(err, FrameError::Overloaded(_)), "{err:?}");

        // Freeing a slot re-admits.
        drop(p1);
        assert_eq!(server.execute(&frame()).unwrap().len(), 10);
        drop(p2);

        let stats = server.stats();
        assert_eq!(stats.submitted, 5, "2 direct permits + 3 queries");
        assert_eq!(stats.admitted + stats.shed, stats.submitted);
        assert_eq!(stats.shed, 2);
        assert!(stats.timed_out <= stats.admitted);
    }

    #[test]
    fn zero_deadline_times_out_admitted_queries_typed() {
        let vfs = Arc::new(MemVfs::new());
        let server = DurableSnapshotServer::open(
            vfs,
            ServingConfig {
                query_deadline: Some(Duration::ZERO),
                ..ServingConfig::default()
            },
        )
        .unwrap();
        server.insert_graph("http://g", &graph(10)).unwrap();
        let err = server.execute(&frame()).expect_err("deadline must trip");
        assert!(matches!(err, FrameError::ResourceExhausted(_)), "{err:?}");
        let stats = server.stats();
        assert_eq!(stats.timed_out, 1);
        assert!(stats.timed_out <= stats.admitted);
    }
}
