//! The parallel evaluator's determinism contract: running the columnar
//! engine with a work-stealing pool must be **observationally identical**
//! to the single-threaded run — same rows in the same order, same plan,
//! same `rows_scanned` work count, same typed budget failures — with the
//! only permitted difference being wall-clock time and the `par_*`
//! telemetry counters.
//!
//! The partitioning schemes earn this by construction (chunk results are
//! folded in chunk order, so global row order is preserved; per-chunk scan
//! counts sum to the sequential total), and this suite is the executable
//! statement of that contract.

use std::sync::Arc;
use std::time::Duration;

use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::{Engine, EngineConfig, EngineError, QueryBudget, ResourceKind};

const GRAPH: &str = "http://g";

/// Enough rows that BGP extension — the one operator that fans out —
/// crosses the `PAR_MIN_ROWS` gate and gets split into several chunks per
/// worker.
const N: usize = 3000;

fn dataset() -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..N {
        let s = Term::iri(format!("http://x/s{i}"));
        g.insert(&Triple::new(
            s.clone(),
            Term::iri("http://x/p"),
            Term::integer((i % 97) as i64),
        ));
        g.insert(&Triple::new(
            s.clone(),
            Term::iri("http://x/q"),
            Term::iri(format!("http://x/cat{}", i % 13)),
        ));
        if i % 3 == 0 {
            g.insert(&Triple::new(
                s,
                Term::iri("http://x/r"),
                Term::string(format!("label {i}")),
            ));
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

fn engine(ds: &Arc<Dataset>, threads: usize) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            threads,
            ..EngineConfig::new()
        },
    )
}

/// Queries putting every kind of operator downstream of a parallel BGP
/// extension (with pushed filters): hash join via shared variables, GROUP
/// BY aggregates (COUNT / COUNT DISTINCT / MIN / MAX / SAMPLE), plus ORDER
/// BY so row order is part of the contract.
const QUERIES: &[&str] = &[
    // Pure BGP extension over two patterns + a pushed numeric filter.
    "SELECT ?s ?v ?c FROM <http://g> WHERE { \
       ?s <http://x/p> ?v . ?s <http://x/q> ?c . FILTER(?v > 40) }",
    // Three-pattern BGP where the optional-density r predicate shrinks it.
    "SELECT ?s ?v ?l FROM <http://g> WHERE { \
       ?s <http://x/p> ?v . ?s <http://x/q> ?c . ?s <http://x/r> ?l }",
    // GROUP BY over a fanned-out BGP, one aggregate of every kind.
    "SELECT ?c (COUNT(?s) AS ?n) (COUNT(DISTINCT ?v) AS ?dv) \
            (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SAMPLE(?s) AS ?any) \
     FROM <http://g> WHERE { ?s <http://x/p> ?v . ?s <http://x/q> ?c } \
     GROUP BY ?c ORDER BY ?c",
    // Aggregation over everything (implicit single group).
    "SELECT (COUNT(?s) AS ?n) (MAX(?v) AS ?hi) FROM <http://g> \
     WHERE { ?s <http://x/p> ?v }",
    // DISTINCT + ORDER BY exercises order sensitivity downstream of the
    // parallel operators.
    "SELECT DISTINCT ?c FROM <http://g> WHERE { ?s <http://x/q> ?c } ORDER BY ?c",
    // A repeated subplan: the `?s p ?v` scan feeds the join and, again, the
    // aggregate below it — evaluated once, replayed once.
    SHARED_SCAN,
];

const SHARED_SCAN: &str = "SELECT ?s ?v ?n FROM <http://g> WHERE { ?s <http://x/p> ?v . \
     { SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s <http://x/p> ?v } GROUP BY ?s } }";

#[test]
fn parallel_results_are_byte_identical_to_sequential() {
    let ds = dataset();
    let seq = engine(&ds, 1);
    let par = engine(&ds, 4);
    for q in QUERIES {
        let (t1, s1) = seq.execute_with_stats(q).unwrap();
        let (t4, s4) = par.execute_with_stats(q).unwrap();
        assert_eq!(t1, t4, "threads changed the result of {q}");
        assert_eq!(
            (s1.rows_scanned, s1.shared_scans),
            (s4.rows_scanned, s4.shared_scans),
            "threads changed the scan work counts of {q}"
        );
        assert_eq!(s1.shared_scans > 0, *q == SHARED_SCAN, "{q}");
    }
}

#[test]
fn parallel_execution_actually_ran_and_reported_telemetry() {
    let ds = dataset();
    let par = engine(&ds, 4);
    // The two-pattern BGP over 3000 rows must split into chunks.
    let (_, stats) = par.execute_with_stats(QUERIES[0]).unwrap();
    assert_eq!(stats.par_workers, 4, "pool size not reported");
    assert!(
        stats.par_chunks > 1,
        "expected chunked parallel execution, got {} chunks",
        stats.par_chunks
    );
    // Sequential runs report no parallel work at all.
    let seq = engine(&ds, 1);
    let (_, stats) = seq.execute_with_stats(QUERIES[0]).unwrap();
    assert_eq!(stats.par_workers, 1);
    assert_eq!(stats.par_chunks, 0);
}

#[test]
fn prepared_plans_are_identical_across_thread_counts() {
    // Thread count is an execution-time knob: it must never leak into
    // planning or optimization.
    let ds = dataset();
    let seq = engine(&ds, 1);
    let par = engine(&ds, 4);
    for q in QUERIES {
        assert_eq!(
            seq.prepare(q).unwrap(),
            par.prepare(q).unwrap(),
            "thread count changed the plan of {q}"
        );
    }
}

/// N triples × N triples with no shared variable: a runaway cross join the
/// budget must stop on every thread count.
const CROSS_JOIN: &str = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
     ?a <http://x/p> ?b . ?c <http://x/p> ?d }";

#[test]
fn parallel_budget_trips_are_typed_with_bounded_overshoot() {
    let ds = dataset();
    let axes: [(QueryBudget, ResourceKind); 3] = [
        (
            QueryBudget::unlimited().with_max_rows_scanned(10_000),
            ResourceKind::RowsScanned,
        ),
        (
            QueryBudget::unlimited().with_max_intermediate_rows(50_000),
            ResourceKind::IntermediateRows,
        ),
        (
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
            ResourceKind::Deadline,
        ),
    ];
    for (budget, expected) in axes {
        let engine = Engine::with_config(
            Arc::clone(&ds),
            EngineConfig {
                threads: 4,
                budget,
                ..EngineConfig::new()
            },
        );
        let err = engine
            .execute(CROSS_JOIN)
            .expect_err("runaway query must trip the budget under parallelism");
        match err {
            EngineError::ResourceExhausted {
                resource,
                limit,
                observed,
            } => {
                assert_eq!(resource, expected);
                assert!(observed >= limit);
                if resource == ResourceKind::RowsScanned {
                    // Each worker may overshoot by at most one hot-loop
                    // iteration past the shared atomic's trip point —
                    // nowhere near the full N² scan.
                    assert!(
                        observed < 4 * limit,
                        "parallel overshoot {observed} is unbounded (limit {limit})"
                    );
                }
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }
}

#[test]
fn generous_budgets_are_invisible_under_parallelism() {
    let ds = dataset();
    let unlimited = engine(&ds, 4);
    let budgeted = Engine::with_config(
        Arc::clone(&ds),
        EngineConfig {
            threads: 4,
            budget: QueryBudget::unlimited()
                .with_max_rows_scanned(u64::MAX / 2)
                .with_max_intermediate_rows(u64::MAX / 2),
            ..EngineConfig::new()
        },
    );
    for q in QUERIES {
        let (t_free, s_free) = unlimited.execute_with_stats(q).unwrap();
        let (t_cap, s_cap) = budgeted.execute_with_stats(q).unwrap();
        assert_eq!(t_free, t_cap, "unhit budget changed the result of {q}");
        assert_eq!(s_free.rows_scanned, s_cap.rows_scanned);
        assert_eq!(s_free.shared_scans, s_cap.shared_scans);
    }
}
