//! Fault-injected acceptance suite for the durable serving layer.
//!
//! Three contracts over [`DurableSnapshotServer`]:
//!
//! 1. **Durability before publish.** For any `MemVfs` crash point during a
//!    serving run — mid-commit, mid-publish, mid-checkpoint, with readers
//!    racing the writer — the surviving image reopens to *exactly* the
//!    committed epoch prefix: the state after the last mutation that
//!    returned `Ok`. The recovered dataset is physically identical to an
//!    in-memory oracle at that prefix, and the workload queries (Q1–Q19)
//!    produce cell-identical frames with identical `rows_scanned` and
//!    `shared_scans`. No reader ever observes a torn or uncommitted epoch.
//! 2. **Overload shedding.** With admission limit `k` and more than `k`
//!    concurrent queries, the excess get a typed, retryable
//!    [`FrameError::Overloaded`] — they never hang and never panic —
//!    while accepted queries return byte-identical results to an unloaded
//!    run, and the `ServerStats` counters reconcile
//!    (`admitted + shed == submitted`, `timed_out <= admitted`).
//! 3. **Graceful degradation.** The ladder sheds wire before embedded
//!    (wire never queues), and budget pressure on the wire path degrades
//!    to an intact result prefix with `Completeness::Partial` instead of
//!    vanishing.
//!
//! Crash points are enumerated from fault-free dry runs, saturation is
//! pinned by holding governor permits directly, and degradation uses the
//! deterministic `max_rows_scanned` budget axis — nothing here races a
//! wall clock.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use bench::{data, queries};
use proptest::proptest;
use proptest::test_runner::ProptestConfig;
use rdf_model::persist::{FaultPlan, MemVfs, Store, Vfs};
use rdf_model::{Dataset, Graph, Term, Triple};
use rdfframes_core::{
    Completeness, DurableSnapshotServer, EmbeddedEndpoint, Executor, FrameError, KnowledgeGraph,
    QueryClass, RDFFrame, ServingConfig,
};

/// One step of the workload's mutation history, driven through the server.
enum Op {
    Insert {
        uri: &'static str,
        graph: Graph,
    },
    Append {
        uri: &'static str,
        triples: Vec<Triple>,
    },
    Checkpoint,
}

impl Op {
    /// Apply through the serving front door. Returns the generation of the
    /// epoch this op published (checkpoints publish nothing and return the
    /// previous generation).
    fn apply(&self, server: &DurableSnapshotServer) -> Result<u64, FrameError> {
        match self {
            Op::Insert { uri, graph } => server.insert_graph(uri, graph).map(|e| e.generation()),
            Op::Append { uri, triples } => server
                .append_triples(uri, triples.clone())
                .map(|e| e.generation()),
            Op::Checkpoint => server.checkpoint().map(|()| server.snapshot().generation()),
        }
    }
}

/// Split one generated graph into an initial insert (`installed_tenths`
/// of its triples; none: the graph is installed empty) plus two append
/// batches merged into its slabs — same shape as the storage-layer crash
/// suite, so recovery has to rebuild slabs that appends shaped through the
/// serving stack too.
fn split_graph(uri: &'static str, full: &Graph, installed_tenths: usize) -> (Op, Op, Op) {
    let triples: Vec<Triple> = full.iter_triples().collect();
    let a = triples.len() * installed_tenths / 10;
    let b = a + (triples.len() - a) / 2;
    let mut base = Graph::new();
    for t in &triples[..a] {
        base.insert(t);
    }
    (
        Op::Insert { uri, graph: base },
        Op::Append {
            uri,
            triples: triples[a..b].to_vec(),
        },
        Op::Append {
            uri,
            triples: triples[b..].to_vec(),
        },
    )
}

fn workload_ops(scale: usize) -> Vec<Op> {
    let [(_, dbpedia), (_, dblp), (_, yago)] = data::build_graphs(scale);
    // Mostly installed, half and half, installed empty then appended.
    let (i1, a1, b1) = split_graph(data::uris::DBPEDIA, &dbpedia, 8);
    let (i2, a2, b2) = split_graph(data::uris::DBLP, &dblp, 4);
    let (i3, a3, b3) = split_graph(data::uris::YAGO, &yago, 0);
    vec![
        i1,
        a1,
        Op::Checkpoint,
        i2,
        a2,
        b1,
        Op::Checkpoint,
        i3,
        a3,
        b2,
        b3,
        Op::Checkpoint,
    ]
}

/// A serving config with no background checkpoint policy, so the explicit
/// `Op::Checkpoint` steps fully control the byte timeline.
fn explicit_checkpoint_config() -> ServingConfig {
    ServingConfig {
        checkpoint_wal_bytes: None,
        ..ServingConfig::default()
    }
}

/// Drive the ops through a durable server on `vfs` until the first storage
/// failure. Returns the server (if it opened at all) and the generation of
/// the last committed-and-published epoch.
fn serve_until_failure(
    vfs: Arc<MemVfs>,
    config: ServingConfig,
    ops: &[Op],
) -> (Option<DurableSnapshotServer>, u64) {
    let server = match DurableSnapshotServer::open(vfs as Arc<dyn Vfs>, config) {
        Ok(s) => s,
        // Crashed while creating the WAL: nothing was ever served.
        Err(_) => return (None, 0),
    };
    let mut last_ok_gen = server.snapshot().generation();
    for op in ops {
        match op.apply(&server) {
            Ok(gen) => last_ok_gen = gen,
            Err(_) => break,
        }
    }
    (Some(server), last_ok_gen)
}

/// The in-memory oracle: a clean store advanced to exactly generation
/// `gen` of the same op list (checkpoints don't touch the dataset).
fn oracle_at(ops: &[Op], gen: u64) -> Store {
    let mut store = Store::open(Arc::new(MemVfs::new())).expect("clean open");
    for op in ops {
        if store.dataset().stats_generation() >= gen {
            break;
        }
        match op {
            Op::Checkpoint => continue,
            Op::Insert { uri, graph } => store.insert_graph(uri, graph).expect("oracle op"),
            Op::Append { uri, triples } => store
                .append_triples(uri, triples.clone())
                .expect("oracle op"),
        }
    }
    assert_eq!(
        store.dataset().stats_generation(),
        gen,
        "oracle could not reach generation {gen}"
    );
    store
}

/// Physical equality: same three slabs per graph, same interner, same
/// generation counters — what makes scan-cost parity possible.
fn assert_physically_identical(a: &Dataset, b: &Dataset) -> Result<(), String> {
    if a.stats_generation() != b.stats_generation() {
        return Err(format!(
            "stats_generation {} != {}",
            a.stats_generation(),
            b.stats_generation()
        ));
    }
    let uris: Vec<&str> = a.graph_uris().collect();
    if uris != b.graph_uris().collect::<Vec<_>>() {
        return Err("graph sets differ".into());
    }
    for uri in uris {
        let (ga, gb) = (a.graph(uri).unwrap(), b.graph(uri).unwrap());
        if ga != gb {
            return Err(format!("{uri}: slabs differ"));
        }
        if a.graph_stats(uri) != b.graph_stats(uri) {
            return Err(format!("{uri}: statistics differ"));
        }
    }
    // The slabs above hold ids of this one dictionary: same terms under
    // the same ids, or equal slabs would mean different triples.
    if !a.interner().iter().eq(b.interner().iter()) {
        return Err("interners differ".into());
    }
    Ok(())
}

/// Q1–Q19 parity: cell-identical frames and identical `rows_scanned` on
/// both datasets; errors (if any) match by message.
fn assert_query_parity(a: &Dataset, b: &Dataset) -> Result<(), String> {
    let exec = Executor::new();
    for q in queries::all_queries() {
        let ea = EmbeddedEndpoint::new(Arc::new(a.clone()));
        let eb = EmbeddedEndpoint::new(Arc::new(b.clone()));
        match (exec.execute(&q.frame, &ea), exec.execute(&q.frame, &eb)) {
            (Ok(fa), Ok(fb)) => {
                if fa != fb {
                    return Err(format!("{}: frames diverge", q.id));
                }
            }
            (Err(x), Err(y)) => {
                if x.to_string() != y.to_string() {
                    return Err(format!("{}: errors diverge: {x} vs {y}", q.id));
                }
            }
            (ra, rb) => {
                return Err(format!(
                    "{}: one side failed: {:?} vs {:?}",
                    q.id,
                    ra.map(|f| f.len()),
                    rb.map(|f| f.len())
                ))
            }
        }
        let (sa, sb) = (
            (ea.rows_scanned(), ea.shared_scans()),
            (eb.rows_scanned(), eb.shared_scans()),
        );
        if sa != sb {
            return Err(format!(
                "{}: (rows_scanned, shared_scans) {sa:?} != {sb:?}",
                q.id
            ));
        }
    }
    Ok(())
}

/// Crash at `crash_point` written bytes during a (single-threaded) serving
/// run, then check the full contract: the still-live server keeps serving
/// the committed epoch, and a reopened server recovers exactly that epoch.
fn check_crash_point(ops: &[Op], crash_point: u64, queries: bool) -> Result<(), String> {
    let vfs = Arc::new(MemVfs::faulty(FaultPlan {
        crash_after_bytes: Some(crash_point),
        ..FaultPlan::none()
    }));
    let (live, last_ok_gen) =
        serve_until_failure(Arc::clone(&vfs), explicit_checkpoint_config(), ops);
    let oracle = oracle_at(ops, last_ok_gen);

    // The crash never un-publishes: the live server still serves the last
    // committed epoch (a failed mutation publishes nothing).
    if let Some(server) = &live {
        let snap = server.snapshot();
        if snap.generation() != last_ok_gen {
            return Err(format!(
                "crash@{crash_point}: live server serves generation {} != committed {}",
                snap.generation(),
                last_ok_gen
            ));
        }
        assert_physically_identical(oracle.dataset(), snap.dataset())
            .map_err(|e| format!("crash@{crash_point}: live epoch: {e}"))?;
    }

    // Restart path: open → recover → serve, landing on the committed epoch.
    let reopened = DurableSnapshotServer::open(
        Arc::new(MemVfs::reopen_from(&vfs)),
        explicit_checkpoint_config(),
    )
    .map_err(|e| format!("crash@{crash_point}: recovery failed: {e}"))?;
    let snap = reopened.snapshot();
    if snap.generation() != last_ok_gen {
        return Err(format!(
            "crash@{crash_point}: recovered generation {} != last committed {}",
            snap.generation(),
            last_ok_gen
        ));
    }
    assert_physically_identical(oracle.dataset(), snap.dataset())
        .map_err(|e| format!("crash@{crash_point}: {e}"))?;
    if queries {
        assert_query_parity(oracle.dataset(), snap.dataset())
            .map_err(|e| format!("crash@{crash_point}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Sampled crash points across the whole serving byte timeline, with
    /// physical prefix-equality checks on both the live and the reopened
    /// server (cheap, so many cases).
    #[test]
    fn any_crash_point_during_serving_recovers_the_committed_epoch(point in 0u64..=1u64 << 32) {
        let ops = workload_ops(6);
        let dry = Arc::new(MemVfs::new());
        let (_, dry_gen) = serve_until_failure(Arc::clone(&dry), explicit_checkpoint_config(), &ops);
        assert_eq!(dry_gen, 9, "fault-free run must commit the whole history");
        let total = dry.bytes_written();
        check_crash_point(&ops, point % (total + 1), false)?;
    }
}

/// The check.sh smoke configuration: scale 64, fixed crash points swept
/// across the byte timeline, full Q1–Q19 + `rows_scanned` parity against
/// the in-memory oracle.
#[test]
fn scale_64_crash_while_serving_smoke_with_query_parity() {
    let ops = workload_ops(64);
    let dry = Arc::new(MemVfs::new());
    let (_, dry_gen) = serve_until_failure(Arc::clone(&dry), explicit_checkpoint_config(), &ops);
    assert_eq!(dry_gen, 9);
    let total = dry.bytes_written();
    for point in [total / 5, total / 2, total - 1] {
        check_crash_point(&ops, point, true).unwrap();
    }
    // And the fault-free end state: recovered == oracle at full history.
    check_crash_point(&ops, total + 1, true).unwrap();
}

/// Crash under racing readers, with the WAL-size checkpoint policy armed
/// so the crash can land inside a threshold-triggered checkpoint that runs
/// while readers serve. Readers assert they only ever observe committed
/// epochs, in monotonic order; recovery lands on the last committed
/// generation.
#[test]
fn crash_under_racing_readers_lands_on_a_committed_epoch() {
    let ops = workload_ops(6);
    let config = || ServingConfig {
        // Small threshold: mutations routinely trigger checkpoints, so
        // crash points land mid-checkpoint too.
        checkpoint_wal_bytes: Some(1 << 12),
        ..ServingConfig::default()
    };
    let dry = Arc::new(MemVfs::new());
    let (_, dry_gen) = serve_until_failure(Arc::clone(&dry), config(), &ops);
    assert_eq!(dry_gen, 9);
    let total = dry.bytes_written();

    let probe = queries::all_queries().remove(0).frame;
    for point in [
        total / 6,
        total / 3,
        total / 2,
        2 * total / 3,
        5 * total / 6,
        total - 1,
    ] {
        let vfs = Arc::new(MemVfs::faulty(FaultPlan {
            crash_after_bytes: Some(point),
            ..FaultPlan::none()
        }));
        let server = DurableSnapshotServer::open(Arc::clone(&vfs) as Arc<dyn Vfs>, config())
            .expect("open fits in every swept budget");

        // Generations a reader is allowed to observe. A mutation's target
        // generation is registered *before* the call (publish makes it
        // visible before the caller returns); a failed mutation publishes
        // nothing, so deregistering afterwards cannot race a reader.
        let committed: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::from([0]));
        let stop = AtomicBool::new(false);
        // The three readers and the writer start together, and each reader
        // reads once before it first looks at `stop`: the race happens by
        // construction, however the threads are scheduled.
        let start = Barrier::new(4);
        let mut last_ok_gen = 0;

        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(|| {
                    let mut last_epoch = 0u64;
                    let mut reads = 0u64;
                    start.wait();
                    loop {
                        let snap = server.snapshot();
                        assert!(snap.epoch() >= last_epoch, "epochs went backwards");
                        last_epoch = snap.epoch();
                        assert!(
                            committed.lock().unwrap().contains(&snap.generation()),
                            "reader observed uncommitted generation {}",
                            snap.generation()
                        );
                        // A real query through the snapshot must complete
                        // or fail typed — never panic, never see torn data.
                        let _ = Executor::new().execute(&probe, snap.embedded());
                        reads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break reads;
                        }
                    }
                }));
            }

            let mut expected = server.snapshot().generation();
            start.wait();
            for op in &ops {
                if !matches!(op, Op::Checkpoint) {
                    expected += 1;
                    committed.lock().unwrap().insert(expected);
                }
                match op.apply(&server) {
                    Ok(gen) => last_ok_gen = gen,
                    Err(_) => {
                        if !matches!(op, Op::Checkpoint) {
                            committed.lock().unwrap().remove(&expected);
                        }
                        break;
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            let total_reads: u64 = readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .sum();
            assert!(total_reads > 0, "readers never ran");
        });

        // The crash happened mid-run (budgets are all below the fault-free
        // total), the live server still serves the committed epoch, and a
        // reopen recovers exactly it.
        // A late crash point can land inside the final explicit checkpoint
        // with every mutation already committed, so `last_ok_gen` may equal
        // the full history — but the disk must actually have crashed.
        assert!(vfs.crashed(), "budget {point} never tripped");
        assert_eq!(server.snapshot().generation(), last_ok_gen);
        let oracle = oracle_at(&ops, last_ok_gen);
        let reopened = DurableSnapshotServer::open(Arc::new(MemVfs::reopen_from(&vfs)), config())
            .expect("recovery");
        assert_eq!(reopened.snapshot().generation(), last_ok_gen);
        assert_physically_identical(oracle.dataset(), reopened.snapshot().dataset())
            .unwrap_or_else(|e| panic!("crash@{point}: {e}"));
        assert!(reopened.store_stats().recoveries <= 1);
        if point == total / 2 {
            assert_query_parity(oracle.dataset(), reopened.snapshot().dataset())
                .unwrap_or_else(|e| panic!("crash@{point}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Overload & degradation
// ---------------------------------------------------------------------------

fn load_triple(i: usize) -> Triple {
    Triple::new(
        Term::iri(format!("http://g/s{i}")),
        Term::iri("http://x/p"),
        Term::iri(format!("http://g/o{}", i % 53)),
    )
}

fn load_frame() -> RDFFrame {
    KnowledgeGraph::new("http://g").feature_domain_range("<http://x/p>", "s", "o")
}

fn load_server(config: ServingConfig, rows: usize) -> DurableSnapshotServer {
    let server =
        DurableSnapshotServer::open(Arc::new(MemVfs::new()) as Arc<dyn Vfs>, config).unwrap();
    let mut g = Graph::new();
    for i in 0..rows {
        g.insert(&load_triple(i));
    }
    server.insert_graph("http://g", &g).unwrap();
    server
}

/// The check.sh overload smoke: admission limit `k`, more than `k`
/// concurrent queries, deterministic shed-vs-accepted counts.
#[test]
fn overload_sheds_typed_retryable_and_accepted_results_are_unaffected() {
    let server = load_server(
        ServingConfig {
            max_in_flight: 2,
            max_waiters: 0,
            max_wait: Duration::ZERO,
            ..ServingConfig::default()
        },
        300,
    );
    let frame = load_frame();

    // Unloaded baselines on both surfaces.
    let unloaded_embedded = server.execute(&frame).unwrap();
    let unloaded_wire = server.execute_wire(&frame).unwrap();
    assert!(matches!(unloaded_wire.completeness, Completeness::Complete));

    // Pin the server at saturation: hold every slot directly.
    let p1 = server.governor().admit(QueryClass::Embedded).unwrap();
    let p2 = server.governor().admit(QueryClass::Embedded).unwrap();

    // >k concurrent queries from real threads: every one must come back
    // (never hang) with a typed, retryable Overloaded — and nothing else.
    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let frame = &frame;
            let server = &server;
            handles.push(scope.spawn(move || {
                if t % 2 == 0 {
                    server.execute(frame).expect_err("saturated")
                } else {
                    server.execute_wire(frame).expect_err("saturated")
                }
            }));
        }
        for h in handles {
            let err = h.join().expect("sheded query panicked");
            assert!(
                matches!(err, FrameError::Overloaded(_)),
                "wrong error: {err}"
            );
            assert!(err.is_retryable(), "Overloaded must be retryable");
        }
    });

    // Release the slots: the same queries are admitted again and return
    // byte-identical results to the unloaded run — shed load corrupted
    // nothing.
    drop(p1);
    drop(p2);
    assert_eq!(server.execute(&frame).unwrap(), unloaded_embedded);
    let after_wire = server.execute_wire(&frame).unwrap();
    assert!(matches!(after_wire.completeness, Completeness::Complete));
    assert_eq!(after_wire.frame, unloaded_wire.frame);

    // Counters reconcile exactly: 2 unloaded + 2 permits + 6 shed + 2 after.
    let stats = server.stats();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.shed, THREADS as u64);
    assert_eq!(stats.admitted + stats.shed, stats.submitted);
    assert!(stats.timed_out <= stats.admitted);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.wal_commits, 1);
}

/// Degradation ladder rung 1 vs rung 2: at saturation, wire sheds
/// immediately even though the waiting room has space, while embedded
/// queues and completes once a slot frees.
#[test]
fn wire_sheds_before_embedded_queues() {
    let server = load_server(
        ServingConfig {
            max_in_flight: 1,
            max_waiters: 4,
            max_wait: Duration::from_secs(30),
            ..ServingConfig::default()
        },
        100,
    );
    let frame = load_frame();
    let unloaded = server.execute(&frame).unwrap();

    let permit = server.governor().admit(QueryClass::Embedded).unwrap();
    // Wire: sheds instantly while the slot is held — no queueing.
    let err = server.execute_wire(&frame).expect_err("wire must shed");
    assert!(matches!(err, FrameError::Overloaded(_)));
    // Embedded: queues (bounded) and completes after the release.
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| server.execute(&frame));
        std::thread::sleep(Duration::from_millis(20));
        drop(permit);
        let df = waiter.join().expect("queued query panicked").unwrap();
        assert_eq!(df, unloaded);
    });

    let stats = server.stats();
    assert_eq!(stats.shed, 1, "only the wire query sheds");
    assert_eq!(stats.admitted + stats.shed, stats.submitted);
}

/// Degradation ladder rung 3: pressure on the paginated wire path returns
/// an intact result prefix (`Completeness::Partial`) rather than nothing.
/// Three axes:
///
/// - `max_wire_result_rows` (deterministic): pagination stops at the cap,
///   cut at a chunk boundary, prefix cell-identical to the full result.
/// - the cross-chunk deadline: a zero deadline lets the first chunk
///   through (per-chunk engine evaluation has no deadline) and then stops
///   between chunks with exactly one page assembled.
/// - the engine scan budget: a budget the first chunk cannot meet fails
///   the whole query with a typed error — degraded never means corrupted.
#[test]
fn wire_pressure_degrades_to_an_intact_prefix() {
    const ROWS: usize = 240;
    const PAGE: usize = 16;
    let paged_endpoint = || rdfframes_core::EndpointConfig {
        max_rows_per_request: PAGE,
        ..rdfframes_core::EndpointConfig::default()
    };
    let full = {
        let server = load_server(
            ServingConfig {
                endpoint_config: paged_endpoint(),
                ..ServingConfig::default()
            },
            ROWS,
        );
        let partial = server.execute_wire(&load_frame()).unwrap();
        assert!(matches!(partial.completeness, Completeness::Complete));
        assert_eq!(partial.frame.len(), ROWS);
        partial.frame
    };

    // Row-cap axis: the served prefix is the first ceil(cap/page) chunks of
    // the full result, bit-for-bit.
    for cap in [1u64, 16, 64, 100, 224] {
        let server = load_server(
            ServingConfig {
                endpoint_config: paged_endpoint(),
                max_wire_result_rows: Some(cap),
                ..ServingConfig::default()
            },
            ROWS,
        );
        let partial = server.execute_wire(&load_frame()).unwrap();
        let Completeness::Partial { error } = partial.completeness else {
            panic!("cap {cap} must degrade to a prefix");
        };
        assert!(matches!(error, FrameError::ResourceExhausted(_)), "{error}");
        let n = partial.frame.len();
        let expected = (cap as usize).div_ceil(PAGE) * PAGE;
        assert_eq!(n, expected, "cap {cap}: prefix cut at the wrong chunk");
        assert_eq!(
            partial.frame,
            full.head(n, 0),
            "cap {cap}: prefix not intact"
        );
        // Degradation is not a timeout: the counters must not conflate them.
        assert_eq!(server.stats().timed_out, 0);
    }
    // A cap the full result never reaches changes nothing.
    let server = load_server(
        ServingConfig {
            endpoint_config: paged_endpoint(),
            max_wire_result_rows: Some(1000),
            ..ServingConfig::default()
        },
        ROWS,
    );
    let uncapped = server.execute_wire(&load_frame()).unwrap();
    assert!(matches!(uncapped.completeness, Completeness::Complete));
    assert_eq!(uncapped.frame, full);

    // Cross-chunk deadline axis, pinned at zero so it is deterministic:
    // chunk one evaluates (no per-chunk deadline), then pagination stops.
    let model = rdfframes_core::model::generator::build_query_model(&load_frame()).unwrap();
    let sparql = rdfframes_core::model::render::render(&model);
    let exec = Executor::new().with_wire_deadline(Duration::ZERO);
    let degraded = exec.run_partial(&sparql, server.snapshot().wire()).unwrap();
    let Completeness::Partial { error } = degraded.completeness else {
        panic!("zero cross-chunk deadline must degrade");
    };
    assert!(error.to_string().contains("deadline"), "{error}");
    assert_eq!(
        degraded.frame.len(),
        PAGE,
        "exactly the first chunk survives"
    );
    assert_eq!(degraded.frame, full.head(PAGE, 0));

    // Engine scan-budget axis: per-chunk evaluation cost is constant (the
    // engine evaluates fully and slices), so a budget below it fails the
    // very first chunk — typed, with nothing fabricated.
    let mut strangled = paged_endpoint();
    strangled.engine.budget.max_rows_scanned = Some(1);
    let server = load_server(
        ServingConfig {
            endpoint_config: strangled,
            ..ServingConfig::default()
        },
        ROWS,
    );
    let err = server.execute_wire(&load_frame()).expect_err("over budget");
    assert!(matches!(err, FrameError::ResourceExhausted(_)), "{err}");
}
