//! Epoch-snapshot concurrent serving: many readers over an immutable
//! dataset snapshot while one writer prepares the next.
//!
//! The paper's deployment story is a live endpoint (Virtuoso) that keeps
//! answering exploratory RDFFrames queries while the knowledge graph is
//! being updated. This module reproduces that contract in-process with an
//! epoch scheme instead of fine-grained locking:
//!
//! * A **snapshot** ([`EpochEndpoints`]) bundles one immutable
//!   `Arc<Dataset>` with an [`EmbeddedEndpoint`] and an
//!   [`InProcessEndpoint`] built over it. Everything a reader touches hangs
//!   off that one `Arc`, so a query admitted against epoch *N* runs against
//!   epoch *N*'s data from first scan to last decode — it can never observe
//!   half of an update ("torn" reads are structurally impossible, not just
//!   avoided).
//! * [`SnapshotServer::snapshot`] is the **read path**: a shared-lock
//!   acquire and an `Arc` clone, nothing else. Readers on different threads
//!   never contend with each other and only overlap a writer for the
//!   instant of the pointer swap.
//! * [`SnapshotServer::update`] is the **write path**: serialized by a
//!   writer mutex, it clones the current dataset, applies the mutation,
//!   rebuilds both endpoints over the new dataset *outside* any lock
//!   readers hold, and publishes the finished epoch with a single pointer
//!   swap. In-flight queries keep their old snapshot alive through their
//!   own `Arc` and drain naturally. What a publish copies: the clone takes the one
//!   interner whole (its `Vec<Arc<Term>>` and hash map — O(distinct terms),
//!   the terms themselves shared) and an `Arc` per graph; the first append
//!   then copies the touched graph's index (three slabs + delta) because
//!   the previous epoch still holds it. Untouched graphs stay shared, and
//!   there is no per-graph dictionary or id translation to copy.
//!
//! Plan caches carry across epochs: the rebuilt endpoints share the
//! previous epoch's caches (see [`EmbeddedEndpoint::with_dataset`]), and
//! every cached plan is stamped with the
//! [`Dataset::stats_generation`] it was optimized under. A published
//! mutation bumps the generation, so the first execution of each query on
//! the new epoch re-optimizes against fresh statistics while untouched
//! epochs keep serving cached plans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use rdf_model::Dataset;
use sparql_engine::EngineConfig;

use crate::client::{EmbeddedEndpoint, EndpointConfig, InProcessEndpoint};
use crate::error::{FrameError, Result};

/// Describe a caught panic payload (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
    /// Monotone publish counter (the initial snapshot is epoch 0).
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

/// Serves immutable dataset epochs to concurrent readers while one writer
/// at a time builds the next epoch. See the module docs for the protocol.
pub struct SnapshotServer {
    /// The currently published epoch. Readers take the lock shared for the
    /// duration of one `Arc` clone; [`SnapshotServer::update`] takes it
    /// exclusively for one pointer swap.
    current: RwLock<Arc<EpochEndpoints>>,
    /// Serializes writers: the next epoch is built from the latest
    /// published one, so two concurrent updates must not interleave.
    writer: Mutex<()>,
    /// Epochs published so far, including the initial one.
    epochs_published: AtomicU64,
}

impl SnapshotServer {
    /// A server over `dataset` with default engine and endpoint
    /// configuration.
    pub fn new(dataset: Arc<Dataset>) -> Self {
        Self::with_configs(dataset, EngineConfig::new(), EndpointConfig::default())
    }

    /// A server with explicit configuration for the embedded engine and the
    /// wire endpoint. Both carry over unchanged to every future epoch.
    pub fn with_configs(
        dataset: Arc<Dataset>,
        engine_config: EngineConfig,
        endpoint_config: EndpointConfig,
    ) -> Self {
        let embedded = EmbeddedEndpoint::with_engine_config(Arc::clone(&dataset), engine_config);
        let wire = InProcessEndpoint::with_config(Arc::clone(&dataset), endpoint_config);
        let first = EpochEndpoints {
            epoch: 0,
            generation: dataset.stats_generation(),
            dataset,
            embedded,
            wire,
        };
        SnapshotServer {
            current: RwLock::new(Arc::new(first)),
            writer: Mutex::new(()),
            epochs_published: AtomicU64::new(1),
        }
    }

    /// The currently published epoch. This is the entire read path: queries
    /// executed through the returned handle see exactly one dataset version
    /// regardless of what writers publish meanwhile.
    ///
    /// Poison-proof: the protected state is a plain `Arc`, which is swapped
    /// atomically under the lock — a panic elsewhere can never leave it
    /// half-written, so a poisoned lock is recovered rather than propagated
    /// and the last published epoch keeps serving.
    pub fn snapshot(&self) -> Arc<EpochEndpoints> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Build and publish the next epoch by applying `mutate` to a copy of
    /// the current dataset. Serialized against other writers; readers stay
    /// unblocked the whole time except for the final pointer swap. Returns
    /// the newly published epoch.
    ///
    /// A panicking `mutate` closure does **not** wedge the server: the
    /// panic is caught, the half-mutated dataset copy is discarded, nothing
    /// is published, and the panic surfaces as a typed
    /// [`FrameError::Mutation`] while readers keep serving the last
    /// published epoch.
    pub fn update(&self, mutate: impl FnOnce(&mut Dataset)) -> Result<Arc<EpochEndpoints>> {
        let _writer = self.writer_lock();
        // Snapshot → clone → mutate → rebuild, all outside the read lock:
        // readers keep serving the old epoch while this runs.
        let base = self.snapshot();
        let mut next = (*base.dataset).clone();
        // The mutation runs on a private copy: if it panics, the copy is
        // dropped and the published state was never touched — catching the
        // unwind is safe by construction, not by audit.
        catch_unwind(AssertUnwindSafe(|| mutate(&mut next))).map_err(|p| {
            FrameError::Mutation(format!("mutation panicked: {}", panic_message(&*p)))
        })?;
        Ok(self.publish(Arc::new(next)))
    }

    /// Publish `dataset` as the next epoch, rebuilding both endpoints over
    /// it (sharing the previous epoch's plan caches) and swapping the epoch
    /// pointer. Serialized against [`SnapshotServer::update`] writers.
    ///
    /// This is the publication half of the write path, split out so a
    /// durable front door (see [`crate::client::DurableSnapshotServer`])
    /// can commit the mutation to stable storage first and publish the
    /// *store's* canonical dataset rather than a privately mutated clone.
    pub fn publish_dataset(&self, dataset: Arc<Dataset>) -> Arc<EpochEndpoints> {
        let _writer = self.writer_lock();
        self.publish(dataset)
    }

    /// Swap the epoch pointer to a fully built next epoch. Caller must hold
    /// the writer lock.
    fn publish(&self, next: Arc<Dataset>) -> Arc<EpochEndpoints> {
        let base = self.snapshot();
        let published = Arc::new(EpochEndpoints {
            epoch: base.epoch + 1,
            generation: next.stats_generation(),
            embedded: base.embedded.with_dataset(Arc::clone(&next)),
            wire: base.wire.with_dataset(Arc::clone(&next)),
            dataset: next,
        });
        *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&published);
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
        published
    }

    /// The writer mutex, recovering poison: it guards no data (the epoch
    /// swap is atomic under `current`), only writer ordering, so a panicked
    /// previous writer leaves nothing inconsistent behind.
    fn writer_lock(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Epochs published so far, counting the initial snapshot.
    pub fn epochs_published(&self) -> u64 {
        self.epochs_published.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Graph, Term, Triple};

    // The whole point is cross-thread sharing; lock it in at compile time.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotServer>();
        assert_send_sync::<EpochEndpoints>();
    };

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://x/movie{i}")),
            Term::iri("http://x/starring"),
            Term::iri(format!("http://x/actor{}", i % 5)),
        )
    }

    fn dataset(n: usize) -> Arc<Dataset> {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert(&triple(i));
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
    fn update_publishes_new_epoch_old_snapshot_stays_usable() {
        let server = SnapshotServer::new(dataset(10));
        let before = server.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(frame().execute(before.embedded()).unwrap().len(), 10);

        let after = server
            .update(|ds| {
                ds.append_triples("http://g", [triple(100)]);
            })
            .unwrap();
        assert_eq!(after.epoch(), 1);
        assert!(after.generation() > before.generation());
        assert_eq!(server.epochs_published(), 2);

        // The old handle still serves the old data; the new one sees the
        // appended triple; both agree with a fresh snapshot().
        assert_eq!(frame().execute(before.embedded()).unwrap().len(), 10);
        assert_eq!(frame().execute(after.embedded()).unwrap().len(), 11);
        assert_eq!(server.snapshot().epoch(), 1);
    }

    #[test]
    fn wire_and_embedded_agree_within_an_epoch() {
        let server = SnapshotServer::new(dataset(25));
        server
            .update(|ds| {
                ds.append_triples("http://g", [triple(200), triple(201)]);
            })
            .unwrap();
        let snap = server.snapshot();
        let via_embedded = frame().execute(snap.embedded()).unwrap();
        let via_wire = frame().execute(snap.wire()).unwrap();
        assert_eq!(via_embedded, via_wire);
        assert_eq!(via_embedded.len(), 27);
    }

    #[test]
    fn plan_cache_reoptimizes_on_generation_change_only() {
        let server = SnapshotServer::new(dataset(25));
        let f = frame();
        let snap0 = server.snapshot();
        f.execute(snap0.embedded()).unwrap();
        let model = crate::model::generator::build_query_model(&f).unwrap();
        let plan0 = snap0.embedded().cached_model_plan(&model).unwrap();

        // Same epoch, second execution: cache hit, same Arc.
        f.execute(snap0.embedded()).unwrap();
        let plan0_again = snap0.embedded().cached_model_plan(&model).unwrap();
        assert!(Arc::ptr_eq(&plan0, &plan0_again));

        // Published mutation bumps the generation: the shared cache entry
        // goes stale and the next execution on the new epoch re-optimizes.
        let snap1 = server
            .update(|ds| {
                ds.append_triples("http://g", [triple(300)]);
            })
            .unwrap();
        f.execute(snap1.embedded()).unwrap();
        let plan1 = snap1.embedded().cached_model_plan(&model).unwrap();
        assert!(!Arc::ptr_eq(&plan0, &plan1));
    }

    #[test]
    fn panicking_mutator_is_caught_and_server_keeps_serving() {
        let server = SnapshotServer::new(dataset(10));
        let before = server.snapshot();

        let err = server
            .update(|_ds| panic!("boom in mutator"))
            .expect_err("panicking mutation must surface as an error");
        match &err {
            FrameError::Mutation(m) => assert!(m.contains("boom in mutator"), "got: {m}"),
            other => panic!("expected Mutation error, got {other:?}"),
        }
        assert!(!err.is_retryable());

        // Nothing was published and the server is not wedged: the last
        // epoch keeps serving and a subsequent good update succeeds.
        assert_eq!(server.snapshot().epoch(), before.epoch());
        assert_eq!(server.epochs_published(), 1);
        assert_eq!(
            frame().execute(server.snapshot().embedded()).unwrap().len(),
            10
        );

        let after = server
            .update(|ds| {
                ds.append_triples("http://g", [triple(500)]);
            })
            .unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(frame().execute(after.embedded()).unwrap().len(), 11);
    }
}
