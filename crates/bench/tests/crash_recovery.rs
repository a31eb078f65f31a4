//! Fault-injected crash-recovery acceptance suite over the paper workload.
//!
//! The property under test is the storage layer's crash-consistency
//! contract: **for any crash point during any interleaving of graph
//! inserts, append batches, and checkpoints, reopening the store recovers
//! exactly the committed prefix of the mutation history** — the state
//! after the last operation that returned `Ok` — and the recovered
//! dataset is indistinguishable from an in-memory oracle at that prefix:
//! every workload query (Q1–Q19) produces cell-identical frames *and*
//! identical `rows_scanned` and `shared_scans` work counters. Corruption
//! at rest (bit flips) must surface as typed errors or recover a valid
//! prefix — never panic, never produce a silently wrong dataset.
//!
//! Everything is deterministic: crash points are enumerated from a
//! fault-free dry run's byte count, queries run embedded, and the proptest
//! shim derives its cases from the test name.

use std::sync::Arc;

use bench::{data, queries};
use proptest::proptest;
use proptest::test_runner::ProptestConfig;
use rdf_model::persist::{FaultPlan, MemVfs, StorageError, Store};
use rdf_model::{Dataset, Graph, Triple};
use rdfframes_core::{EmbeddedEndpoint, Executor};

/// One step of the workload's mutation history.
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
    fn apply(&self, store: &mut Store) -> Result<(), StorageError> {
        match self {
            Op::Insert { uri, graph } => store.insert_graph(uri, graph),
            Op::Append { uri, triples } => store.append_triples(uri, triples.clone()),
            Op::Checkpoint => store.checkpoint(),
        }
    }
}

/// Split one generated graph into an initial insert (`installed_tenths`
/// of its triples; none: the graph is installed empty) plus two append
/// batches merged into its slabs, so recovery has to rebuild slabs that
/// appends shaped, in the ids the appends interned.
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

/// The canonical mutation history at a scale: three graph lifecycles with
/// checkpoints interleaved at awkward places (right after a WAL-heavy
/// stretch, right before more appends land on top of a fresh snapshot).
fn workload_ops(scale: usize) -> Vec<Op> {
    let [(_, dbpedia), (_, dblp), (_, yago)] = data::build_graphs(scale);
    // Different splits per graph: mostly installed, half and half, and
    // installed empty then appended.
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

/// Run the ops against a store on `vfs` until the first failure, returning
/// the stats generation of the last operation that committed.
fn run_until_failure(vfs: Arc<MemVfs>, ops: &[Op]) -> u64 {
    let mut store = match Store::open(vfs) {
        Ok(s) => s,
        // Crashed while creating the WAL: nothing ever committed.
        Err(_) => return 0,
    };
    let mut last_ok_gen = 0;
    for op in ops {
        match op.apply(&mut store) {
            Ok(()) => last_ok_gen = store.dataset().stats_generation(),
            Err(_) => break,
        }
    }
    // Telemetry invariant: in this workload every checkpoint follows at
    // least one commit, and both counters only count completed operations,
    // so no crash point may leave more checkpoints than commits recorded.
    let stats = store.stats();
    assert!(
        stats.checkpoints <= stats.commits,
        "checkpoints {} exceed commits {}",
        stats.checkpoints,
        stats.commits
    );
    last_ok_gen
}

/// The in-memory oracle: a clean store advanced to exactly generation
/// `gen` of the same op list.
fn oracle_at(ops: &[Op], gen: u64) -> Store {
    let mut store = Store::open(Arc::new(MemVfs::new())).expect("clean open");
    for op in ops {
        if store.dataset().stats_generation() >= gen {
            break;
        }
        if matches!(op, Op::Checkpoint) {
            continue;
        }
        op.apply(&mut store).expect("oracle op");
    }
    assert_eq!(
        store.dataset().stats_generation(),
        gen,
        "oracle could not reach generation {gen}"
    );
    store
}

/// Physical equality: recovered state must be *identical* to the oracle —
/// same three slabs per graph, same interner, same generation counters —
/// not merely set-equal. This is what makes scan-cost parity possible.
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

/// Full workload parity: every query produces cell-identical frames and
/// identical scan-work counters on both datasets; errors (if any) match
/// by message.
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

/// Crash at `crash_point` written bytes, reopen, and check the full
/// contract against the oracle. `queries` gates the (expensive) Q1–Q19
/// parity pass.
fn check_crash_point(ops: &[Op], crash_point: u64, queries: bool) -> Result<(), String> {
    let vfs = Arc::new(MemVfs::faulty(FaultPlan {
        crash_after_bytes: Some(crash_point),
        ..FaultPlan::none()
    }));
    let last_ok_gen = run_until_failure(Arc::clone(&vfs), ops);
    let recovered = Store::open(Arc::new(MemVfs::reopen_from(&vfs)))
        .map_err(|e| format!("crash@{crash_point}: recovery failed: {e}"))?;
    if recovered.dataset().stats_generation() != last_ok_gen {
        return Err(format!(
            "crash@{crash_point}: recovered generation {} != last committed {}",
            recovered.dataset().stats_generation(),
            last_ok_gen
        ));
    }
    let oracle = oracle_at(ops, last_ok_gen);
    assert_physically_identical(oracle.dataset(), recovered.dataset())
        .map_err(|e| format!("crash@{crash_point}: {e}"))?;
    if queries {
        assert_query_parity(oracle.dataset(), recovered.dataset())
            .map_err(|e| format!("crash@{crash_point}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Sampled crash points across the whole byte timeline, with physical
    /// prefix-equality checks (cheap, so many cases).
    #[test]
    fn any_crash_point_recovers_a_committed_prefix(point in 0u64..=1u64 << 32) {
        let ops = workload_ops(6);
        let dry = Arc::new(MemVfs::new());
        assert_eq!(run_until_failure(Arc::clone(&dry), &ops), 9);
        let total = dry.bytes_written();
        check_crash_point(&ops, point % (total + 1), false)?;
    }

    /// Sampled crash points with the full Q1–Q19 cell + rows_scanned
    /// parity (heavier, fewer implicit cases since each runs 19 queries
    /// twice).
    #[test]
    fn queries_over_recovered_prefix_match_the_oracle(point in 0u64..=1u64 << 32) {
        let ops = workload_ops(6);
        let dry = Arc::new(MemVfs::new());
        run_until_failure(Arc::clone(&dry), &ops);
        let total = dry.bytes_written();
        check_crash_point(&ops, point % (total + 1), true)?;
    }
}

/// Boundary crash points that random sampling can miss: before anything,
/// inside the WAL magic, exactly at the dry-run total, and one byte short
/// of every checkpoint's rename becoming durable.
#[test]
fn boundary_crash_points() {
    let ops = workload_ops(6);
    let dry = Arc::new(MemVfs::new());
    run_until_failure(Arc::clone(&dry), &ops);
    let total = dry.bytes_written();
    // `total - 1` is inside the last checkpoint: recovery replays YAGO's
    // install and the three appends after it from the WAL over the
    // snapshot that holds the earlier appends.
    for point in [0, 1, 7, 8, 9, total / 2, total - 1, total, total + 1000] {
        check_crash_point(&ops, point, false).unwrap();
    }
}

/// The check.sh smoke configuration: scale 64, fixed crash points, full
/// Q1–Q19 parity including `rows_scanned`.
#[test]
fn scale_64_smoke_with_full_query_parity() {
    let ops = workload_ops(64);
    let dry = Arc::new(MemVfs::new());
    assert_eq!(run_until_failure(Arc::clone(&dry), &ops), 9);
    let total = dry.bytes_written();
    for point in [total / 5, total / 2, total - 1] {
        check_crash_point(&ops, point, true).unwrap();
    }
    // And the fault-free end state: recovered == oracle at full history.
    check_crash_point(&ops, total + 1, true).unwrap();
}

/// ENOSPC mid-history: the process survives, the store stays consistent at
/// the committed prefix, and a reopen from the surviving image agrees.
#[test]
fn enospc_keeps_the_committed_prefix_live_and_durable() {
    let ops = workload_ops(6);
    let dry = Arc::new(MemVfs::new());
    run_until_failure(Arc::clone(&dry), &ops);
    let total = dry.bytes_written();
    for point in [total / 4, total / 2, 3 * total / 4] {
        let vfs = Arc::new(MemVfs::faulty(FaultPlan {
            enospc_after_bytes: Some(point),
            ..FaultPlan::none()
        }));
        let mut store = Store::open(Arc::clone(&vfs) as Arc<dyn rdf_model::persist::Vfs>)
            .expect("open fits in budget");
        let mut last_ok_gen = 0;
        let mut saw_enospc = false;
        for op in &ops {
            match op.apply(&mut store) {
                Ok(()) => last_ok_gen = store.dataset().stats_generation(),
                Err(StorageError::NoSpace) => saw_enospc = true,
                // Cascades of an earlier failure: a failed checkpoint
                // poisons, a failed insert leaves later appends targeting
                // a graph that never came to exist.
                Err(StorageError::Poisoned) | Err(StorageError::UnknownGraph(_)) => {}
                Err(e) => panic!("enospc@{point}: unexpected error {e}"),
            }
        }
        assert!(saw_enospc, "budget {point} never tripped");
        // Live state is the committed prefix...
        let oracle = oracle_at(&ops, last_ok_gen);
        assert_physically_identical(oracle.dataset(), store.dataset()).unwrap();
        // ...and unless a failed checkpoint poisoned the store (documented:
        // reopen to recover), the durable state agrees too.
        let reopened = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
        assert_physically_identical(oracle.dataset(), reopened.dataset()).unwrap();
    }
}

/// Corruption at rest: flip bits across the snapshot and the WAL. A
/// snapshot flip must be a typed error; a WAL flip either truncates to a
/// valid prefix or errors typed. Nothing panics, nothing silently lies.
#[test]
fn bit_flips_never_panic_and_never_corrupt() {
    let ops = workload_ops(6);
    // Build a disk image holding both a snapshot and live WAL records:
    // stop after op 9 of 12 (one checkpoint behind, two appends in WAL).
    let vfs = Arc::new(MemVfs::new());
    let mut store = Store::open(Arc::clone(&vfs) as Arc<dyn rdf_model::persist::Vfs>).unwrap();
    let mut full_gen = 0;
    for op in ops.iter().take(10) {
        op.apply(&mut store).unwrap();
        full_gen = store.dataset().stats_generation();
    }
    drop(store);
    let image = vfs.disk_image();
    let snap_len = image.get("snapshot.rds").expect("snapshot present").len();
    let wal_len = image.get("wal.log").expect("wal present").len();
    assert!(wal_len > 8, "need live WAL records for the sweep");

    // Snapshot flips: the whole-body CRC must catch every single one.
    for byte in (0..snap_len).step_by(snap_len / 97 + 1) {
        let flipped = Arc::new(MemVfs::reopen_from(&vfs));
        assert!(flipped.flip_bit("snapshot.rds", byte, (byte % 8) as u8));
        match Store::open(Arc::clone(&flipped) as Arc<dyn rdf_model::persist::Vfs>) {
            Err(StorageError::Corrupt { .. }) | Err(StorageError::UnsupportedVersion(_)) => {}
            Ok(_) => panic!("snapshot flip at byte {byte} went undetected"),
            Err(e) => panic!("snapshot flip at byte {byte}: wrong error {e}"),
        }
    }

    // WAL flips: recovery keeps a valid prefix (flip lands in a frame →
    // the scan cuts there) or reports typed corruption (flip in the
    // magic). Whatever gen survives must equal the oracle at that gen.
    for byte in 0..wal_len {
        let flipped = Arc::new(MemVfs::reopen_from(&vfs));
        assert!(flipped.flip_bit("wal.log", byte, (byte % 8) as u8));
        match Store::open(Arc::new(MemVfs::reopen_from(&flipped))) {
            Ok(store) => {
                let gen = store.dataset().stats_generation();
                assert!(gen <= full_gen, "wal flip at {byte} invented history");
                let oracle = oracle_at(&ops, gen);
                assert_physically_identical(oracle.dataset(), store.dataset())
                    .unwrap_or_else(|e| panic!("wal flip at {byte}: {e}"));
            }
            Err(StorageError::Corrupt { .. }) => {}
            Err(e) => panic!("wal flip at byte {byte}: wrong error {e}"),
        }
    }
}
