//! Resource-governor enforcement: a runaway query must terminate with a
//! typed [`EngineError::ResourceExhausted`] on **every** budget axis and
//! **every** evaluator — never a panic, never an unbounded allocation.
//!
//! The runaway workload is an unconstrained cross join (two patterns
//! sharing no variable): N triples → N² intermediate rows, the canonical
//! query-gone-wrong every axis must be able to stop early.

use std::sync::Arc;
use std::time::Duration;

use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::{
    eval_reference, Engine, EngineConfig, EngineError, ExecStats, QueryBudget, ResourceKind,
    SolutionTable,
};

const GRAPH: &str = "http://g";

fn dataset(n: usize) -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..n {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::integer(i as i64),
        ));
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

/// N triples × N triples with no shared variable: N² results.
const CROSS_JOIN: &str = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
     ?a <http://x/p> ?b . ?c <http://x/p> ?d }";

fn engine(ds: &Arc<Dataset>, budget: QueryBudget) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            budget,
            ..EngineConfig::new()
        },
    )
}

/// One evaluator's way of running query text on an engine, under the
/// engine's budget.
type Run = fn(&Engine, &str) -> sparql_engine::Result<(SolutionTable, ExecStats)>;

/// The oracle on the engine's prepared plan.
fn oracle(engine: &Engine, q: &str) -> sparql_engine::Result<(SolutionTable, ExecStats)> {
    eval_reference::execute(engine, &engine.prepare(q)?, None)
}

const ALL_MODES: [(&str, Run); 2] = [("executor", Engine::execute_with_stats), ("oracle", oracle)];

#[test]
fn runaway_cross_join_trips_every_axis_on_every_evaluator() {
    // Scale 4000: 16M result rows if left unchecked — far beyond every
    // limit below, so each axis must stop the query long before the result
    // materializes.
    let ds = dataset(4000);
    let axes: [(QueryBudget, ResourceKind); 4] = [
        (
            QueryBudget::unlimited().with_max_rows_scanned(10_000),
            ResourceKind::RowsScanned,
        ),
        (
            QueryBudget::unlimited().with_max_intermediate_rows(50_000),
            ResourceKind::IntermediateRows,
        ),
        (
            QueryBudget::unlimited().with_max_memory_bytes(1 << 20),
            ResourceKind::MemoryBytes,
        ),
        (
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
            ResourceKind::Deadline,
        ),
    ];
    for (mode, run) in ALL_MODES {
        for (budget, expected) in &axes {
            let engine = engine(&ds, budget.clone());
            let err = run(&engine, CROSS_JOIN).expect_err("runaway query must not complete");
            match err {
                EngineError::ResourceExhausted {
                    resource,
                    limit,
                    observed,
                } => {
                    assert_eq!(resource, *expected, "{mode}");
                    // Bounded overshoot: observed exceeds the limit by at
                    // most the work between two cooperative check points,
                    // never by the whole N² result.
                    assert!(observed >= limit, "{mode} {resource}");
                }
                other => panic!("{mode}: expected ResourceExhausted, got {other:?}"),
            }
        }
    }
}

#[test]
fn overshoot_is_bounded_not_result_sized() {
    // The scan meter may overshoot by one hot-loop iteration (one input
    // row's matches), but must never run to completion: at scale 1000 a
    // full evaluation scans >1M entries, while the limit of 10k plus one
    // row's worth (≤ ~2k) stays far below that.
    let ds = dataset(1000);
    for (mode, run) in ALL_MODES {
        let engine = engine(&ds, QueryBudget::unlimited().with_max_rows_scanned(10_000));
        let err = run(&engine, CROSS_JOIN).unwrap_err();
        let EngineError::ResourceExhausted { observed, .. } = err else {
            panic!("{mode}: expected ResourceExhausted")
        };
        assert!(
            observed < 20_000,
            "{mode}: overshoot {observed} is not bounded"
        );
    }
}

#[test]
fn budgets_present_but_not_hit_change_nothing() {
    // Generous limits must be invisible: identical rows and identical
    // rows_scanned as the unlimited run, on every evaluator.
    let ds = dataset(64);
    let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";
    for (mode, run) in ALL_MODES {
        let unlimited = engine(&ds, QueryBudget::unlimited());
        let generous = engine(
            &ds,
            QueryBudget::unlimited()
                .with_max_rows_scanned(u64::MAX / 2)
                .with_max_intermediate_rows(u64::MAX / 2)
                .with_max_memory_bytes(u64::MAX / 2)
                .with_deadline(Duration::from_secs(3600)),
        );
        let (t_off, s_off) = run(&unlimited, q).unwrap();
        let (t_on, s_on) = run(&generous, q).unwrap();
        assert_eq!(t_off, t_on, "{mode}");
        assert_eq!(s_off.rows_scanned, s_on.rows_scanned, "{mode}");
    }
}

#[test]
fn error_is_value_not_panic_and_engine_stays_usable() {
    // After a budget trip the engine must serve the next (cheap) query
    // normally — cancellation is cooperative cleanup, not poisoned state.
    let ds = dataset(2000);
    let engine = engine(
        &ds,
        QueryBudget::unlimited().with_max_intermediate_rows(10_000),
    );
    assert!(engine.execute(CROSS_JOIN).is_err());
    let cheap = "SELECT ?s FROM <http://g> WHERE { ?s <http://x/p> ?o } LIMIT 5";
    assert_eq!(engine.execute(cheap).unwrap().len(), 5);
}

#[test]
fn cursor_path_enforces_budgets() {
    let ds = dataset(4000);
    let budget = QueryBudget::unlimited().with_max_intermediate_rows(50_000);
    // `execute` pulls the whole result in one piece: it trips with the
    // typed error.
    let streaming = engine(&ds, budget);
    assert!(matches!(
        streaming.execute(CROSS_JOIN),
        Err(EngineError::ResourceExhausted {
            resource: ResourceKind::IntermediateRows,
            ..
        })
    ));

    // Cursor creation only compiles the pipeline, so budget violations
    // surface while draining instead. The bare cross join streams with
    // bounded live state and would complete; an ORDER BY on top is a
    // pipeline breaker that must accumulate its input — the same typed
    // trip, raised from inside `next_batch`.
    let ordered = format!("{CROSS_JOIN} ORDER BY ?a");
    let prepared = streaming.prepare(&ordered).unwrap();
    let mut cursor = streaming
        .cursor(&prepared, 1024)
        .expect("cursor creation does no evaluation");
    let err = loop {
        match cursor.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("runaway query must not complete"),
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        EngineError::ResourceExhausted {
            resource: ResourceKind::IntermediateRows,
            ..
        }
    ));

    // A small result evaluates fine under a zero deadline (cooperative
    // checks may not fire during cheap evaluation), but the cursor itself
    // must cancel the consumer on its next poll.
    let small = dataset(10);
    let deadline = engine(
        &small,
        QueryBudget::unlimited().with_deadline(Duration::ZERO),
    );
    let q = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o }";
    let prepared = deadline.prepare(q).unwrap();
    let poll = deadline.cursor(&prepared, 4).and_then(|mut c| {
        c.next_batch()?;
        Ok(())
    });
    assert!(matches!(
        poll,
        Err(EngineError::ResourceExhausted {
            resource: ResourceKind::Deadline,
            ..
        })
    ));
}

#[test]
fn grouping_and_ordinary_joins_are_metered_too() {
    // The governor covers aggregation and key joins, not just BGP
    // cross products: a GROUP BY over the runaway join must trip on
    // intermediate rows before the group table forms.
    let ds = dataset(2000);
    let q = "SELECT ?b (COUNT(?d) AS ?n) FROM <http://g> WHERE { \
             ?a <http://x/p> ?b . ?c <http://x/p> ?d } GROUP BY ?b";
    for (mode, run) in ALL_MODES {
        let engine = engine(
            &ds,
            QueryBudget::unlimited().with_max_intermediate_rows(20_000),
        );
        assert!(
            matches!(run(&engine, q), Err(EngineError::ResourceExhausted { .. })),
            "{mode}"
        );
    }
}

// ---------------------------------------------------------------------------
// Shared subplans: what a replay costs on each budget axis
// ---------------------------------------------------------------------------

/// `n` subjects with a `p` value each, every other one also with a `q`
/// value.
fn outer_join_dataset(n: usize) -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..n {
        let s = Term::iri(format!("http://x/s{i}"));
        g.insert(&Triple::new(
            s.clone(),
            Term::iri("http://x/p"),
            Term::integer(i as i64),
        ));
        if i % 2 == 0 {
            g.insert(&Triple::new(
                s,
                Term::iri("http://x/q"),
                Term::integer(-(i as i64)),
            ));
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

/// The shape of the paper's case study 1: a frame (`?s p ?v`) joined to the
/// full outer join — `(A OPTIONAL B) UNION (B OPTIONAL A)` — of two frames
/// derived from it. `A` is read three times and `B` twice.
const OUTER_JOIN: &str = "SELECT * FROM <http://g> WHERE { \
     { { ?s <http://x/p> ?v } OPTIONAL { ?s <http://x/q> ?w } } UNION \
     { { ?s <http://x/q> ?w } OPTIONAL { ?s <http://x/p> ?v } } \
     { ?s <http://x/p> ?v } }";

/// Drain `q` through a cursor, polling once more after the first error.
fn drain_cursor(
    engine: &Engine,
    q: &str,
    batch_rows: usize,
) -> Result<(usize, sparql_engine::ExecStats), (EngineError, EngineError)> {
    let prepared = engine.prepare(q).unwrap();
    let mut cursor = engine.cursor(&prepared, batch_rows).unwrap();
    let mut rows = 0;
    loop {
        match cursor.next_batch() {
            Ok(Some(batch)) => rows += batch.len,
            Ok(None) => return Ok((rows, cursor.stats())),
            Err(first) => {
                let again = cursor
                    .next_batch()
                    .map(|b| b.map(|b| b.len))
                    .expect_err("a failed shared source must not turn into a short stream");
                return Err((first, again));
            }
        }
    }
}

#[test]
fn a_replay_is_free_on_the_scan_axis() {
    let ds = outer_join_dataset(600);
    let free = engine(&ds, QueryBudget::unlimited());
    let prepared = free.prepare(OUTER_JOIN).unwrap();
    let explain = prepared.explain();
    assert_eq!(explain.matches("(shared #").count(), 2, "{explain}");
    assert_eq!(explain.matches("(ref #").count(), 3, "{explain}");
    let (table, stats) = free.execute_with_stats(OUTER_JOIN).unwrap();
    assert_eq!(table.len(), 900);
    // One scan of `p` (600) and one of `q` (300); the three replays stood
    // in for a second and third scan of `p` and a second of `q`.
    assert_eq!((stats.rows_scanned, stats.shared_scans), (900, 1500));

    // The budget charges what is read: the shared plan completes under a
    // cap of exactly its own `rows_scanned`, in one pull and batch by batch …
    let exact = QueryBudget::unlimited().with_max_rows_scanned(stats.rows_scanned);
    let capped = engine(&ds, exact.clone());
    assert_eq!(capped.execute(OUTER_JOIN).unwrap().len(), 900);
    let (rows, streamed) = drain_cursor(&capped, OUTER_JOIN, 64).unwrap();
    assert_eq!(
        (rows, streamed.rows_scanned, streamed.shared_scans),
        (900, 900, 1500)
    );
    // … which evaluating every occurrence does not fit under …
    let (_, unshared) = oracle(&engine(&ds, QueryBudget::unlimited()), OUTER_JOIN).unwrap();
    assert_eq!(unshared.rows_scanned, stats.unshared_scans());
    assert!(matches!(
        oracle(&engine(&ds, exact.clone()), OUTER_JOIN),
        Err(EngineError::ResourceExhausted {
            resource: ResourceKind::RowsScanned,
            ..
        })
    ));
    // … and one entry less still stops the shared plan, typed.
    let short = QueryBudget::unlimited().with_max_rows_scanned(stats.rows_scanned - 1);
    let starved = engine(&ds, short);
    let expected = EngineError::ResourceExhausted {
        resource: ResourceKind::RowsScanned,
        limit: stats.rows_scanned - 1,
        observed: stats.rows_scanned,
    };
    assert_eq!(starved.execute(OUTER_JOIN).unwrap_err(), expected);
    // The trip happens inside a shared source: every later poll — whichever
    // reader it reaches — reports the same error, never a short stream.
    let (first, again) = drain_cursor(&starved, OUTER_JOIN, 64).unwrap_err();
    assert_eq!((first, again), (expected.clone(), expected));
}

#[test]
fn a_spool_s_retention_is_charged_to_the_memory_axis() {
    // `{A} UNION {A}`: the union drains its left reader before it touches
    // the right one, so the spool ends up retaining all of `A` — 2000 rows
    // of two columns — while every operator around it holds one batch.
    let ds = outer_join_dataset(2000);
    let q = "SELECT * FROM <http://g> WHERE { \
             { ?s <http://x/p> ?v } UNION { ?s <http://x/p> ?v } }";
    let free = engine(&ds, QueryBudget::unlimited());
    let (rows, stats) = drain_cursor(&free, q, 64).unwrap();
    assert_eq!(
        (rows, stats.rows_scanned, stats.shared_scans),
        (4000, 2000, 2000)
    );
    assert!(stats.peak_live_rows >= 2000, "{}", stats.peak_live_rows);
    assert!(
        stats.peak_live_bytes >= 2000 * 2 * 4,
        "{}",
        stats.peak_live_bytes
    );

    // A cap a batch fits under many times over and the retention does not.
    let budget = QueryBudget::unlimited().with_max_memory_bytes(2000 * 2 * 4 / 2);
    let capped = engine(&ds, budget);
    let (first, again) = drain_cursor(&capped, q, 64).unwrap_err();
    assert!(
        matches!(
            first,
            EngineError::ResourceExhausted {
                resource: ResourceKind::MemoryBytes,
                ..
            }
        ),
        "{first:?}"
    );
    assert_eq!(first, again);
    assert!(matches!(
        capped.execute(q),
        Err(EngineError::ResourceExhausted {
            resource: ResourceKind::MemoryBytes,
            ..
        })
    ));
}

#[test]
fn a_reader_parked_under_a_limit_does_not_starve_its_sibling() {
    // The left reader of `?s p ?v` stops after three rows; the right one
    // still receives all 500 — and the spool keeps them for the reader that
    // will never come back, until the cursor is dropped.
    let ds = outer_join_dataset(500);
    let q = "SELECT * FROM <http://g> WHERE { \
             { SELECT ?s ?v WHERE { ?s <http://x/p> ?v } LIMIT 3 } UNION \
             { ?s <http://x/p> ?v } }";
    let engine = engine(&ds, QueryBudget::unlimited());
    let explain = engine.prepare(q).unwrap().explain();
    assert_eq!(explain.matches("(ref #0)").count(), 1, "{explain}");
    let expected = engine.execute(q).unwrap();
    assert_eq!(expected.len(), 503);
    let (rows, stats) = drain_cursor(&engine, q, 2).unwrap();
    assert_eq!(rows, 503);
    // Read once; only the two batches the left reader took were replayed.
    assert_eq!(stats.rows_scanned, 500);
    assert!(stats.shared_scans < 500, "{}", stats.shared_scans);
    assert!(stats.peak_live_rows >= 496, "{}", stats.peak_live_rows);
}
