//! Chaos tests: fault-injected pagination, retry parity, partial results,
//! and budget propagation through both execution paths.
//!
//! The central property: any fault plan whose per-chunk fault runs are
//! shorter than the retry budget is **invisible** — the retried wire result
//! is cell-identical to the fault-free run. Past the budget, the client
//! gets a typed error, and [`Executor::run_partial`] keeps the intact
//! prefix.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rdf_model::{Dataset, Graph, Term, Triple};
use rdfframes_core::api::KnowledgeGraph;
use rdfframes_core::client::{
    EmbeddedEndpoint, Endpoint, EndpointConfig, Fault, FaultyEndpoint, InProcessEndpoint,
};
use rdfframes_core::exec::{Completeness, Executor, RetryPolicy};
use rdfframes_core::FrameError;
use sparql_engine::{eval_reference, EngineConfig, EngineError, QueryBudget, ResourceKind};

fn dataset(n: usize) -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..n {
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

fn endpoint(n: usize, max_rows: usize) -> InProcessEndpoint {
    InProcessEndpoint::with_config(
        dataset(n),
        EndpointConfig {
            max_rows_per_request: max_rows,
            ..Default::default()
        },
    )
}

const QUERY: &str = "SELECT ?m ?a FROM <http://g> WHERE { ?m <http://x/starring> ?a } ORDER BY ?m";

/// A retryable fault to inject, drawn per request slot.
fn fault_strategy() -> impl Strategy<Value = Option<Fault>> {
    prop_oneof![
        Just(None),
        Just(None), // bias toward clean requests
        Just(Some(Fault::Transient)),
        Just(Some(Fault::TruncatedChunk)),
        Just(Some(Fault::SchemaDrift)),
    ]
}

/// Faults for the FIRST chunk: schema drift is excluded because with no
/// accumulated header yet it is undetectable by construction (the drifted
/// header would silently become the frame's schema) — the protocol's
/// inherent blind spot, not a retry-logic gap.
fn first_chunk_fault_strategy() -> impl Strategy<Value = Option<Fault>> {
    prop_oneof![
        Just(None),
        Just(Some(Fault::Transient)),
        Just(Some(Fault::TruncatedChunk)),
    ]
}

/// Expand a per-chunk fault plan into a per-request script: each chunk slot
/// optionally fails `runs` times before succeeding, so the script stays
/// under a retry budget of `runs + 1` attempts.
fn script_from_runs(runs: &[(Option<Fault>, u8)]) -> Vec<Option<Fault>> {
    let mut script = Vec::new();
    for (fault, times) in runs {
        if let Some(f) = fault {
            for _ in 0..*times {
                script.push(Some(*f));
            }
        }
        script.push(None); // the attempt that succeeds
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Faults under the retry limit are invisible: cell-identical frames.
    #[test]
    fn retried_wire_result_is_cell_identical_to_fault_free_run(
        first in (first_chunk_fault_strategy(), 1u8..3),
        rest in proptest::collection::vec((fault_strategy(), 1u8..3), 0..9),
    ) {
        let clean = endpoint(25, 7);
        let expected = Executor::new().run(QUERY, &clean).unwrap();

        let mut runs = vec![first];
        runs.extend(rest);
        let max_faults = runs.iter().map(|(_, t)| *t as u32).max().unwrap_or(0);
        let faulty = FaultyEndpoint::scripted(endpoint(25, 7), script_from_runs(&runs));
        let exec = Executor::new().with_retry(RetryPolicy::fast(max_faults + 1));
        let df = exec.run(QUERY, &faulty).unwrap();
        prop_assert_eq!(df, expected);
    }

    /// Seeded chaos at a rate the retry budget absorbs with near certainty:
    /// if the run succeeds it must be cell-identical; if a fault burst
    /// exceeds the budget the error must be the typed transport fault, and
    /// a replay with the same seed behaves identically.
    #[test]
    fn seeded_chaos_is_deterministic_and_never_corrupts(seed in 0u64..1000) {
        let clean = endpoint(25, 5);
        let expected = Executor::new().run(QUERY, &clean).unwrap();
        let run = || {
            let faulty = FaultyEndpoint::seeded(endpoint(25, 5), seed, 0.3);
            Executor::new()
                .with_retry(RetryPolicy::fast(4))
                .run(QUERY, &faulty)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &expected);
                prop_assert_eq!(&a, &b);
            }
            (Err(a), Err(b)) => {
                prop_assert!(a.is_retryable(), "burst past budget must be transport-typed: {a:?}");
                prop_assert_eq!(a, b);
            }
            (a, b) => prop_assert!(false, "same seed diverged: {a:?} vs {b:?}"),
        }
    }

    /// rows_scanned parity: the wire path (re-evaluating per chunk) and the
    /// embedded path agree per request on the engine's work metric.
    #[test]
    fn rows_scanned_parity_wire_vs_embedded(n in 5usize..40) {
        let ds = dataset(n);
        let wire = InProcessEndpoint::with_config(Arc::clone(&ds), EndpointConfig {
            // One chunk covers everything: a single evaluation each side.
            max_rows_per_request: 10_000,
            ..Default::default()
        });
        let embedded = EmbeddedEndpoint::new(ds);
        let frame = KnowledgeGraph::new("http://g")
            .with_prefix("x", "http://x/")
            .feature_domain_range("x:starring", "movie", "actor");
        let via_wire = frame.execute(&wire).unwrap();
        let via_embedded = frame.execute(&embedded).unwrap();
        prop_assert_eq!(via_wire, via_embedded);
        prop_assert!(embedded.rows_scanned() > 0);
        // The embedded cursor reports the same scan work the wire engine
        // does for the rendered text of the same model.
        let (_, stats) = wire.engine().execute_with_stats(&frame.to_sparql().unwrap()).unwrap();
        prop_assert_eq!(embedded.rows_scanned(), stats.rows_scanned);
    }
}

#[test]
fn fault_past_retry_budget_surfaces_typed_error() {
    // Three transient faults on the same chunk, two attempts: the executor
    // gives up with the transport error, not a panic or silent truncation.
    let faulty = FaultyEndpoint::scripted(
        endpoint(25, 7),
        vec![
            Some(Fault::Transient),
            Some(Fault::Transient),
            Some(Fault::Transient),
        ],
    );
    let exec = Executor::new().with_retry(RetryPolicy::fast(2));
    let err = exec.run(QUERY, &faulty).unwrap_err();
    assert!(matches!(err, FrameError::Transport(_)), "{err:?}");
    assert_eq!(faulty.faults_injected(), 2, "gave up after max_attempts");
}

#[test]
fn fatal_fault_is_not_retried() {
    let faulty = FaultyEndpoint::scripted(endpoint(25, 7), vec![Some(Fault::Fatal)]);
    let exec = Executor::new().with_retry(RetryPolicy::fast(5));
    let err = exec.run(QUERY, &faulty).unwrap_err();
    assert!(matches!(err, FrameError::Endpoint(_)), "{err:?}");
    assert_eq!(faulty.faults_injected(), 1);
    // Exactly one request reached the decorator: no retry burned on a
    // deterministic failure.
    assert_eq!(faulty.inner().stats().requests(), 0);
}

#[test]
fn run_partial_keeps_intact_prefix_with_completeness_marker() {
    // 25 rows in pages of 7: chunk 0 ok, chunk 1 ok, then an unrecoverable
    // fault on chunk 2 → the partial frame holds exactly the first 14 rows.
    let script = vec![None, None, Some(Fault::Transient), Some(Fault::Transient)];
    let faulty = FaultyEndpoint::scripted(endpoint(25, 7), script);
    let exec = Executor::new().with_retry(RetryPolicy::fast(2));
    let partial = exec.run_partial(QUERY, &faulty).unwrap();
    assert_eq!(partial.frame.len(), 14);
    match &partial.completeness {
        Completeness::Partial { error } => {
            assert!(matches!(error, FrameError::Transport(_)), "{error:?}")
        }
        Completeness::Complete => panic!("must be partial"),
    }
    assert!(!partial.completeness.is_complete());

    // Fault-free pagination reports Complete with all rows.
    let clean = endpoint(25, 7);
    let complete = Executor::new().run_partial(QUERY, &clean).unwrap();
    assert_eq!(complete.frame.len(), 25);
    assert!(complete.completeness.is_complete());
}

#[test]
fn run_partial_with_no_assembled_rows_is_an_error() {
    // The very first chunk fails unrecoverably: there is no prefix to
    // keep, so the failure is a plain error.
    let faulty = FaultyEndpoint::scripted(endpoint(25, 7), vec![Some(Fault::Fatal)]);
    assert!(Executor::new().run_partial(QUERY, &faulty).is_err());
}

#[test]
fn budget_trips_propagate_through_wire_path_on_every_evaluator() {
    let cross = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
                 ?a <http://x/starring> ?b . ?c <http://x/starring> ?d }";
    let ep = InProcessEndpoint::with_config(
        dataset(4000),
        EndpointConfig {
            engine: EngineConfig {
                budget: QueryBudget::unlimited().with_max_intermediate_rows(50_000),
                ..EngineConfig::new()
            },
            ..Default::default()
        },
    );
    let err = Executor::new().run(cross, &ep).unwrap_err();
    let FrameError::ResourceExhausted(detail) = &err else {
        panic!("{err:?}")
    };
    assert!(
        detail.starts_with("intermediate rows limit 50000 "),
        "{detail}"
    );
    // Budget exhaustion is deterministic — the policy must not retry it.
    assert!(!err.is_retryable());
    // The failed request was still accounted, on both counters.
    assert_eq!(ep.stats().requests(), 1);
    assert_eq!(ep.stats().errors(), 1);
    // The oracle on the endpoint's engine, under the same budget, trips the
    // same axis at the same limit.
    let engine = ep.engine();
    let oracle = eval_reference::execute(engine, &engine.prepare(cross).unwrap(), None);
    assert!(
        matches!(
            oracle,
            Err(EngineError::ResourceExhausted {
                resource: ResourceKind::IntermediateRows,
                limit: 50_000,
                ..
            })
        ),
        "{oracle:?}"
    );
}

#[test]
fn budget_trips_propagate_through_embedded_path() {
    let ep = EmbeddedEndpoint::with_engine_config(
        dataset(4000),
        EngineConfig {
            budget: QueryBudget::unlimited().with_max_intermediate_rows(50_000),
            ..EngineConfig::new()
        },
    );
    // Drive the budget through the raw-SPARQL chunk surface — the same
    // engine and the same meter the model path uses.
    let cross = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
                 ?a <http://x/starring> ?b . ?c <http://x/starring> ?d }";
    let err = ep.query_chunk(cross, 0, 1_000_000).unwrap_err();
    assert!(matches!(err, FrameError::ResourceExhausted(_)), "{err:?}");
    assert_eq!(ep.stats().errors(), 1);

    // And a deadline of zero also cancels the embedded model path itself
    // (cursor creation) on a large enough evaluation.
    let ep = EmbeddedEndpoint::with_engine_config(
        dataset(4000),
        EngineConfig {
            budget: QueryBudget::unlimited().with_deadline(Duration::ZERO),
            ..EngineConfig::new()
        },
    );
    let err = ep.query_chunk(cross, 0, 1_000_000).unwrap_err();
    assert!(matches!(err, FrameError::ResourceExhausted(_)), "{err:?}");
}

#[test]
fn slow_fault_delays_but_does_not_corrupt() {
    let clean = endpoint(25, 7);
    let expected = Executor::new().run(QUERY, &clean).unwrap();
    let faulty = FaultyEndpoint::scripted(
        endpoint(25, 7),
        vec![Some(Fault::Slow(Duration::from_millis(5)))],
    );
    let df = Executor::new().run(QUERY, &faulty).unwrap();
    assert_eq!(df, expected);
}

#[test]
fn error_counter_stays_at_zero_on_clean_runs() {
    let ep = endpoint(25, 7);
    Executor::new().run(QUERY, &ep).unwrap();
    assert!(ep.stats().requests() >= 4);
    assert_eq!(ep.stats().errors(), 0);
}
