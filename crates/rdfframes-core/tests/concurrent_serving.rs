//! Stress test for epoch-snapshot serving: concurrent readers must never
//! observe a torn dataset, no matter how aggressively a writer publishes.
//!
//! The torn-read detector works by construction: every writer update
//! appends **one batch** to one graph holding a matched pair,
//! `(s_i p_a o_i)` and `(s_i p_b o_i)`, and publishes it as one epoch. A
//! reader counts both predicates through one snapshot handle and checks
//! two things: the counts are equal (no half-applied batch), and they equal
//! `SEED_ROWS + (epoch − first_epoch)` (the data is exactly the epoch the
//! handle claims, not a neighbour's). Both on every read, across thousands
//! of reads racing hundreds of durable publications, is the invariant.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rdf_model::persist::MemVfs;
use rdf_model::{Graph, Term, Triple};
use rdfframes_core::{DurableSnapshotServer, EpochEndpoints, KnowledgeGraph, ServingConfig};

const GRAPH: &str = "http://g";
const P_A: &str = "http://x/pa";
const P_B: &str = "http://x/pb";
const SEED_ROWS: usize = 300;

/// The matched pair appended for row `i`.
fn pair(i: usize) -> Vec<Triple> {
    [P_A, P_B]
        .into_iter()
        .map(|p| {
            Triple::new(
                Term::iri(format!("{GRAPH}/s{i}")),
                Term::iri(p),
                Term::iri(format!("{GRAPH}/o{i}")),
            )
        })
        .collect()
}

/// A durable server over an in-memory disk, seeded with `SEED_ROWS` pairs.
fn seeded_server() -> DurableSnapshotServer {
    let server = DurableSnapshotServer::open(Arc::new(MemVfs::new()), ServingConfig::default())
        .expect("open server");
    let mut g = Graph::new();
    for t in (0..SEED_ROWS).flat_map(pair) {
        g.insert(&t);
    }
    server.insert_graph(GRAPH, &g).expect("seed graph");
    server
}

fn scan_frame(predicate: &str) -> rdfframes_core::RDFFrame {
    KnowledgeGraph::new(GRAPH).feature_domain_range(&format!("<{predicate}>"), "s", "o")
}

/// Triples with `predicate` visible through `snap`, via a real query.
fn visible_rows(snap: &EpochEndpoints, predicate: &str) -> usize {
    scan_frame(predicate)
        .execute(snap.embedded())
        .expect("scan query failed")
        .len()
}

#[test]
fn readers_never_observe_torn_epochs() {
    let server = seeded_server();
    let first_epoch = server.snapshot().epoch();
    let stop = AtomicBool::new(false);
    const UPDATES: usize = 200;
    const READERS: usize = 4;

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(scope.spawn(|| {
                let mut reads = 0u64;
                let mut last_epoch = first_epoch;
                while !stop.load(Ordering::Relaxed) {
                    let snap = server.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "published epochs went backwards"
                    );
                    last_epoch = snap.epoch();
                    let a = visible_rows(&snap, P_A);
                    let b = visible_rows(&snap, P_B);
                    // Both halves of a batch land in one epoch; a mismatch
                    // means this snapshot saw half an update.
                    assert_eq!(a, b, "torn read at epoch {}", snap.epoch());
                    // One batch per epoch: the rows must be exactly the
                    // epoch's, not a neighbour epoch's.
                    let expected = SEED_ROWS + (snap.epoch() - first_epoch) as usize;
                    assert_eq!(a, expected, "epoch {} serves other data", snap.epoch());
                    reads += 1;
                }
                reads
            }));
        }

        // The writer commits and publishes one pair per update, as fast as
        // it can, UPDATES times.
        for u in 0..UPDATES {
            let published = server
                .append_triples(GRAPH, pair(SEED_ROWS + u))
                .expect("publish failed");
            assert_eq!(published.epoch(), first_epoch + (u + 1) as u64);
        }
        stop.store(true, Ordering::Relaxed);

        let total_reads: u64 = readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .sum();
        assert!(total_reads > 0, "readers never ran");
    });

    // All epochs drained: the final snapshot sees every appended pair.
    let stats = server.stats();
    assert_eq!(stats.epochs_published, first_epoch + UPDATES as u64 + 1);
    assert_eq!(
        stats.wal_commits,
        UPDATES as u64 + 1,
        "seed + one per update"
    );
    let last = server.snapshot();
    assert_eq!(last.epoch(), first_epoch + UPDATES as u64);
    assert_eq!(visible_rows(&last, P_A), SEED_ROWS + UPDATES);
    assert_eq!(visible_rows(&last, P_B), SEED_ROWS + UPDATES);
}

#[test]
fn plan_cache_survives_epochs_and_reoptimizes_per_generation() {
    let server = seeded_server();
    let frame = scan_frame(P_A);
    let model = rdfframes_core::model::generator::build_query_model(&frame).unwrap();

    let snap0 = server.snapshot();
    frame.execute(snap0.embedded()).unwrap();
    let plan_epoch0 = snap0.embedded().cached_model_plan(&model).unwrap();

    // Re-running on the same epoch reuses the exact cached plan object.
    frame.execute(snap0.embedded()).unwrap();
    assert!(Arc::ptr_eq(
        &plan_epoch0,
        &snap0.embedded().cached_model_plan(&model).unwrap()
    ));

    // The published epoch shares the cache but carries a new statistics
    // generation: first use re-optimizes (new plan object), then sticks.
    let snap1 = server.append_triples(GRAPH, pair(SEED_ROWS)).unwrap();
    assert!(snap1.generation() > snap0.generation());
    frame.execute(snap1.embedded()).unwrap();
    let plan_epoch1 = snap1.embedded().cached_model_plan(&model).unwrap();
    assert!(
        !Arc::ptr_eq(&plan_epoch0, &plan_epoch1),
        "stale plan served across a generation change"
    );
    frame.execute(snap1.embedded()).unwrap();
    assert!(Arc::ptr_eq(
        &plan_epoch1,
        &snap1.embedded().cached_model_plan(&model).unwrap()
    ));
}

#[test]
fn old_snapshots_serve_unchanged_while_new_ones_advance() {
    let server = seeded_server();
    let old = server.snapshot();
    let before = visible_rows(&old, P_A);
    for u in 0..10 {
        let published = server.append_triples(GRAPH, pair(SEED_ROWS + u)).unwrap();
        assert_eq!(published.epoch(), old.epoch() + u as u64 + 1);
        assert!(published.generation() > old.generation());
        assert_eq!(server.stats().epochs_published, published.epoch() + 1);
        // The retained handle is frozen at its epoch's contents.
        assert_eq!(visible_rows(&old, P_A), before);
    }
    assert_eq!(visible_rows(&server.snapshot(), P_A), before + 10);
}
