//! Restart semantics: a dataset recovered from durable storage must be a
//! perfect stand-in for the one that was live before the restart — same
//! query results, same scan work, same `stats_generation` — so prepared
//! plans stamped before a restart stay exactly as valid (or invalid) as
//! they would have been without one.

use std::sync::Arc;

use rdf_model::persist::{MemVfs, Store};
use rdf_model::{Graph, Term, Triple};
use rdfframes_core::{
    DurableSnapshotServer, EmbeddedEndpoint, Endpoint, Executor, InProcessEndpoint, KnowledgeGraph,
    ServingConfig,
};

fn movie_triple(i: usize) -> Triple {
    Triple::new(
        Term::iri(format!("http://x/movie{i}")),
        Term::iri("http://x/starring"),
        Term::iri(format!("http://x/actor{}", i % 7)),
    )
}

/// Build a store with a mixed insert+append history (no checkpoint unless
/// the test says so), returning it with its backing VFS.
fn seeded_store() -> (Arc<MemVfs>, Store) {
    let vfs = Arc::new(MemVfs::new());
    let mut store = Store::open(Arc::clone(&vfs) as Arc<dyn rdf_model::persist::Vfs>).unwrap();
    let mut g = Graph::new();
    for i in 0..30 {
        g.insert(&movie_triple(i));
    }
    store.insert_graph("http://g", &g).unwrap();
    store
        .append_triples("http://g", (30..45).map(movie_triple).collect())
        .unwrap();
    (vfs, store)
}

fn frame() -> rdfframes_core::RDFFrame {
    KnowledgeGraph::new("http://g")
        .with_prefix("x", "http://x/")
        .feature_domain_range("x:starring", "movie", "actor")
}

#[test]
fn recovered_dataset_serves_identical_results_and_scan_work() {
    let (vfs, mut store) = seeded_store();
    store.checkpoint().unwrap();

    let reopened = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
    assert_eq!(
        reopened.dataset().stats_generation(),
        store.dataset().stats_generation(),
        "restart must preserve the generation counter"
    );

    // Embedded path: frames and rows_scanned both identical.
    let exec = Executor::new();
    let before = EmbeddedEndpoint::new(store.shared_dataset());
    let after = EmbeddedEndpoint::new(reopened.shared_dataset());
    let df_before = exec
        .execute(
            &frame().group_by(&["actor"]).count("movie", "n", true),
            &before,
        )
        .unwrap();
    let df_after = exec
        .execute(
            &frame().group_by(&["actor"]).count("movie", "n", true),
            &after,
        )
        .unwrap();
    assert_eq!(df_before, df_after);
    assert_eq!(before.rows_scanned(), after.rows_scanned());

    // Wire path: raw SPARQL chunks identical too.
    let q = "SELECT ?m ?a FROM <http://g> WHERE { ?m <http://x/starring> ?a }";
    let ep_before = InProcessEndpoint::new(store.shared_dataset());
    let ep_after = InProcessEndpoint::new(reopened.shared_dataset());
    assert_eq!(
        exec.run(q, &ep_before).unwrap(),
        exec.run(q, &ep_after).unwrap()
    );
}

#[test]
fn wal_only_restart_matches_checkpointed_restart() {
    // The same history recovered two ways — pure WAL replay vs snapshot —
    // must land on the same dataset.
    let (wal_vfs, wal_store) = seeded_store();
    drop(wal_store);
    let (snap_vfs, mut snap_store) = seeded_store();
    snap_store.checkpoint().unwrap();
    drop(snap_store);

    let from_wal = Store::open(Arc::new(MemVfs::reopen_from(&wal_vfs))).unwrap();
    let from_snap = Store::open(Arc::new(MemVfs::reopen_from(&snap_vfs))).unwrap();
    assert!(from_wal.recovery().replayed > 0);
    assert!(from_snap.recovery().snapshot_loaded);
    assert_eq!(
        from_wal.dataset().stats_generation(),
        from_snap.dataset().stats_generation()
    );
    assert_eq!(
        from_wal.dataset().graph("http://g"),
        from_snap.dataset().graph("http://g"),
        "all three slabs"
    );
    // Equal slabs mean equal triples only under one dictionary: the same
    // terms under the same ids on both sides.
    let (ia, ib) = (
        from_wal.dataset().interner(),
        from_snap.dataset().interner(),
    );
    assert!(ia.iter().eq(ib.iter()));
}

#[test]
fn plan_cache_stays_valid_across_restart_at_equal_generation() {
    let (vfs, mut store) = seeded_store();
    store.checkpoint().unwrap();
    let q = "SELECT ?m ?a FROM <http://g> WHERE { ?m <http://x/starring> ?a }";

    // A long-lived endpoint process with a warm plan cache...
    let mut ep = InProcessEndpoint::new(store.shared_dataset());
    ep.query_chunk(q, 0, 100).unwrap();
    let warm = ep.cached_plan(q).expect("plan cached");

    // ...whose dataset is swapped for the recovered one ("the storage node
    // restarted underneath the query layer"). Same generation ⇒ the warm
    // plan must be re-served, not re-prepared.
    let reopened = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
    *ep.engine_mut().dataset_mut().expect("sole reference") = reopened.dataset().clone();
    ep.query_chunk(q, 0, 100).unwrap();
    let served = ep.cached_plan(q).expect("plan still cached");
    assert!(
        Arc::ptr_eq(&warm, &served),
        "equal generations must re-serve the cached plan"
    );
    assert_eq!(ep.cached_plans(), 1);
}

#[test]
fn plan_cache_reoptimizes_after_post_restart_appends_invert_selectivities() {
    use sparql_engine::algebra::Plan;

    let common = |i: usize| Term::iri(format!("http://x/c{i}"));
    let rare = |i: usize| Term::iri(format!("http://x/r{i}"));
    let p_common = Term::iri("http://x/common");
    let p_rare = Term::iri("http://x/rare");

    // Skewed graph persisted through the durable store, then recovered:
    // the optimizer statistics the recovered dataset yields must drive the
    // same plan the live one would have.
    let vfs = Arc::new(MemVfs::new());
    let mut store = Store::open(Arc::clone(&vfs) as Arc<dyn rdf_model::persist::Vfs>).unwrap();
    let mut g = Graph::new();
    for i in 0..40 {
        g.insert(&Triple::new(
            common(i),
            p_common.clone(),
            Term::integer(i as i64),
        ));
    }
    for i in 0..2 {
        g.insert(&Triple::new(
            rare(i),
            p_rare.clone(),
            Term::integer(i as i64),
        ));
    }
    store.insert_graph("http://g", &g).unwrap();
    store.checkpoint().unwrap();
    drop(store);

    let recovered = Store::open(Arc::new(MemVfs::reopen_from(&vfs))).unwrap();
    let mut ep = InProcessEndpoint::new(recovered.shared_dataset());
    let q = "SELECT ?s ?a ?b FROM <http://g> WHERE { \
             ?s <http://x/common> ?a . ?s <http://x/rare> ?b }";
    let first_predicate = |prepared: &sparql_engine::PreparedQuery| -> Term {
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
    };

    // Plan cached on recovered statistics: <rare> is selective → first.
    ep.query_chunk(q, 0, 100).unwrap();
    let stale = ep.cached_plan(q).expect("plan cached");
    assert_eq!(first_predicate(&stale), p_rare);

    // Post-restart appends invert the skew.
    let appended: Vec<Triple> = (100..400)
        .map(|i| Triple::new(rare(i), p_rare.clone(), Term::integer(i as i64)))
        .collect();
    ep.engine_mut()
        .dataset_mut()
        .expect("sole reference")
        .append_triples("http://g", appended)
        .unwrap();

    // The generation moved: the cache must re-optimize, not re-serve.
    ep.query_chunk(q, 0, 100).unwrap();
    let fresh = ep.cached_plan(q).expect("plan re-cached");
    assert!(!Arc::ptr_eq(&stale, &fresh), "stale plan must be replaced");
    assert_eq!(first_predicate(&fresh), p_common);
}

#[test]
fn durable_server_restart_recovers_committed_epoch_and_revalidates_plans() {
    // A durable server with a mixed insert+append history, still serving.
    let vfs = Arc::new(MemVfs::new());
    let server = DurableSnapshotServer::open(
        Arc::clone(&vfs) as Arc<dyn rdf_model::persist::Vfs>,
        ServingConfig::default(),
    )
    .unwrap();
    let mut g = Graph::new();
    for i in 0..30 {
        g.insert(&movie_triple(i));
    }
    server.insert_graph("http://g", &g).unwrap();
    server
        .append_triples("http://g", (30..45).map(movie_triple).collect())
        .unwrap();

    let f = frame();
    let model = rdfframes_core::model::generator::build_query_model(&f).unwrap();
    let before = server.execute(&f).unwrap();
    let retained = server.snapshot();
    let warm = retained
        .embedded()
        .cached_model_plan(&model)
        .expect("execute warmed the model-plan cache");
    let committed_gen = retained.generation();

    // Restart while serving: a new process opens the surviving image while
    // the old process's reader still holds its epoch. Recovery must land
    // on exactly the committed epoch.
    let reopened = DurableSnapshotServer::open(
        Arc::new(MemVfs::reopen_from(&vfs)),
        ServingConfig::default(),
    )
    .unwrap();
    assert_eq!(reopened.recovery().replayed, 2);
    assert_eq!(reopened.snapshot().generation(), committed_gen);
    assert_eq!(reopened.execute(&f).unwrap(), before);
    // The pre-restart reader drains unaffected on its frozen epoch.
    assert_eq!(
        Executor::new().execute(&f, retained.embedded()).unwrap(),
        before
    );

    // Equal generation ⇒ a warm plan cache revalidates against the
    // recovered dataset instead of re-preparing.
    let swapped = retained
        .embedded()
        .with_dataset(Arc::clone(reopened.snapshot().dataset()));
    Executor::new().execute(&f, &swapped).unwrap();
    assert!(
        Arc::ptr_eq(&warm, &swapped.cached_model_plan(&model).unwrap()),
        "restart at equal stats_generation must re-serve the warm plan"
    );

    // A post-restart append moves the generation: the reopened server's
    // cache re-optimizes exactly once, then sticks.
    let plan_recovered = reopened
        .snapshot()
        .embedded()
        .cached_model_plan(&model)
        .unwrap();
    let snap1 = reopened
        .append_triples("http://g", vec![movie_triple(100)])
        .unwrap();
    assert!(snap1.generation() > committed_gen);
    reopened.execute(&f).unwrap();
    let plan_fresh = snap1.embedded().cached_model_plan(&model).unwrap();
    assert!(
        !Arc::ptr_eq(&plan_recovered, &plan_fresh),
        "generation change must re-optimize"
    );
    reopened.execute(&f).unwrap();
    assert!(
        Arc::ptr_eq(
            &plan_fresh,
            &snap1.embedded().cached_model_plan(&model).unwrap()
        ),
        "re-optimized exactly once, then re-served"
    );
}

/// A durable server writing through `vfs`, with no automatic checkpoints.
fn open_server(vfs: &Arc<MemVfs>) -> DurableSnapshotServer {
    DurableSnapshotServer::open(
        Arc::clone(vfs) as Arc<dyn rdf_model::persist::Vfs>,
        ServingConfig {
            checkpoint_wal_bytes: None,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A server recovered from the image `vfs` holds ("the machine
/// rebooted").
fn reopen(vfs: &MemVfs) -> DurableSnapshotServer {
    open_server(&Arc::new(MemVfs::reopen_from(vfs)))
}

/// Graphs of 30, 2 050 (three snapshot blocks) and 1 triples, inserted
/// through a durable server.
const SIZES: [(&str, usize); 3] = [("http://a", 30), ("http://b", 2_050), ("http://c", 1)];

fn installed_server(vfs: &Arc<MemVfs>) -> DurableSnapshotServer {
    let server = open_server(vfs);
    for (uri, n) in SIZES {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert(&movie_triple(i));
        }
        server.insert_graph(uri, &g).unwrap();
    }
    server
}

/// Every graph of `a` and `b` holds the same three slabs, and plans alike.
fn assert_same_slabs(a: &DurableSnapshotServer, b: &DurableSnapshotServer, when: &str) {
    let (a, b) = (a.snapshot(), b.snapshot());
    for (uri, _) in SIZES {
        let (ga, gb) = (a.dataset().graph(uri), b.dataset().graph(uri));
        assert_eq!(ga, gb, "{uri} {when}");
        let (sa, sb) = (a.dataset().graph_stats(uri), b.dataset().graph_stats(uri));
        assert_eq!(sa, sb, "{uri} {when}");
    }
    assert!(a
        .dataset()
        .interner()
        .iter()
        .eq(b.dataset().interner().iter()));
}

#[test]
fn installed_graphs_are_all_slab_live_replayed_and_recovered() {
    let vfs = Arc::new(MemVfs::new());
    let server = installed_server(&vfs);
    for (uri, n) in SIZES {
        assert_eq!(server.snapshot().dataset().graph(uri).unwrap().len(), n);
    }
    let replayed = reopen(&vfs);
    assert_eq!(replayed.recovery().replayed, SIZES.len());
    assert_same_slabs(&server, &replayed, "after WAL replay");
    server.checkpoint().unwrap();
    let recovered = reopen(&vfs);
    assert!(recovered.recovery().snapshot_loaded);
    assert_eq!(recovered.recovery().replayed, 0);
    assert_same_slabs(&server, &recovered, "after checkpoint and reopen");
}

#[test]
fn appended_batches_recover_slab_for_slab_from_snapshot_and_wal() {
    // Batches appended before a checkpoint, so the snapshot holds them, and
    // one after, so only the WAL does. The second gives movies `b` already
    // holds a new actor, so it merges between `b`'s installed entries; the
    // last repeats ten of them.
    let vfs = Arc::new(MemVfs::new());
    let server = installed_server(&vfs);
    let recast = |i: usize| {
        Triple::new(
            Term::iri(format!("http://x/movie{i}")),
            Term::iri("http://x/starring"),
            Term::iri(format!("http://x/extra{}", i % 3)),
        )
    };
    server
        .append_triples("http://a", (100..110).map(movie_triple).collect())
        .unwrap();
    server
        .append_triples("http://b", (20..40).map(recast).collect())
        .unwrap();
    server.checkpoint().unwrap();
    let recovered = reopen(&vfs);
    assert!(recovered.recovery().snapshot_loaded);
    assert_eq!(recovered.recovery().replayed, 0);
    assert_same_slabs(&server, &recovered, "after checkpoint and reopen");

    let epoch = server
        .append_triples("http://b", (2_040..2_100).rev().map(movie_triple).collect())
        .unwrap();
    assert_eq!(epoch.dataset().graph("http://b").unwrap().len(), 2_120);
    let replayed = reopen(&vfs);
    assert_eq!(replayed.recovery().replayed, 1);
    assert_same_slabs(&server, &replayed, "after snapshot load and WAL replay");
}
