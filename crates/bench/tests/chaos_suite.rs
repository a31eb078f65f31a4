//! Fixed-seed chaos acceptance suite over the paper workload.
//!
//! The rdfframes-core chaos tests exercise the retry machinery on toy
//! graphs; this suite drives the **real experiment workload** — the
//! paper's Q1–Q15 plus the perf cases Q16–Q19 — through a
//! [`FaultyEndpoint`] with a small page size (so every query paginates)
//! and asserts the resilience contract end to end:
//!
//! - faults under the retry limit → the assembled dataframe is
//!   **byte-identical** to the fault-free run;
//! - faults past the retry limit → [`Executor::run`] surfaces a typed
//!   retryable error, and [`Executor::run_partial`] keeps the intact
//!   prefix tagged [`Completeness::Partial`];
//! - a fixed-seed random chaos run replays identically and never
//!   corrupts a result it manages to assemble.
//!
//! Everything here is deterministic: scripted fault plans or one fixed
//! seed, never wall-clock randomness.

use std::sync::Arc;

use bench::data;
use bench::queries;
use rdf_model::Dataset;
use rdfframes_core::{
    Completeness, EndpointConfig, Executor, Fault, FaultyEndpoint, InProcessEndpoint, RetryPolicy,
};

const SCALE: usize = 60;
/// Small enough that every workload query needs several chunks.
const PAGE: usize = 16;
const CHAOS_SEED: u64 = 0xC0FFEE;

fn endpoint(ds: &Arc<Dataset>) -> InProcessEndpoint {
    InProcessEndpoint::with_config(
        Arc::clone(ds),
        EndpointConfig {
            max_rows_per_request: PAGE,
            ..Default::default()
        },
    )
}

/// One retryable fault before every chunk: requests alternate
/// fault/clean, so `max_attempts = 2` is exactly enough. Schema drift is
/// kept off the first chunk, where it is undetectable by construction
/// (no reference header exists yet).
fn alternating_script(requests: usize) -> Vec<Option<Fault>> {
    let mut script = Vec::with_capacity(requests * 2);
    for i in 0..requests {
        script.push(Some(match i % 3 {
            0 => Fault::Transient,
            1 => Fault::TruncatedChunk,
            _ => Fault::SchemaDrift,
        }));
        script.push(None);
    }
    script
}

#[test]
fn every_workload_query_survives_scripted_faults_byte_identically() {
    let ds = data::build_dataset(SCALE);
    let clean = endpoint(&ds);
    for q in queries::all_queries() {
        let expected = q
            .frame
            .execute(&clean)
            .unwrap_or_else(|e| panic!("{}: clean run failed: {e}", q.id));
        // Enough faulted slots to cover every chunk of the largest result.
        let faulty = FaultyEndpoint::scripted(endpoint(&ds), alternating_script(256));
        // Per-query executor so its stats isolate this query's retries.
        let executor = Executor::new().with_retry(RetryPolicy::fast(2));
        let got = executor
            .execute(&q.frame, &faulty)
            .unwrap_or_else(|e| panic!("{}: faulted run failed: {e}", q.id));
        assert_eq!(got, expected, "{}: retried result diverged", q.id);
        assert!(
            faulty.faults_injected() > 0,
            "{}: script injected nothing — page too large?",
            q.id
        );
        // Observability: every injected fault was answered by exactly one
        // re-request (the alternating script never needs a second), and
        // fast() policies sleep zero time.
        assert_eq!(
            executor.stats().retries(),
            faulty.faults_injected(),
            "{}: retry counter out of step with injected faults",
            q.id
        );
        assert_eq!(
            executor.stats().backoff_total(),
            std::time::Duration::ZERO,
            "{}: fast() policy must not sleep",
            q.id
        );
    }
}

#[test]
fn fixed_seed_chaos_replays_identically_and_never_corrupts() {
    let ds = data::build_dataset(SCALE);
    let clean = endpoint(&ds);
    let executor = Executor::new().with_retry(RetryPolicy::fast(4));
    let run_all = || {
        queries::all_queries()
            .into_iter()
            .map(|q| {
                let faulty = FaultyEndpoint::seeded(endpoint(&ds), CHAOS_SEED, 0.3);
                (q.id, executor.execute(&q.frame, &faulty))
            })
            .collect::<Vec<_>>()
    };
    let first = run_all();
    let second = run_all();
    for ((id, a), (_, b)) in first.iter().zip(&second) {
        assert_eq!(a.is_ok(), b.is_ok(), "{id}: chaos run did not replay");
    }
    for (id, result) in &first {
        match result {
            // Whatever survives the chaos must match the fault-free run.
            Ok(df) => {
                let q = queries::all_queries()
                    .into_iter()
                    .find(|q| &q.id == id)
                    .unwrap();
                let expected = q.frame.execute(&clean).unwrap();
                assert_eq!(*df, expected, "{id}: chaos corrupted the result");
            }
            // A give-up must be a typed retryable transport error.
            Err(e) => assert!(e.is_retryable(), "{id}: non-transport chaos error {e}"),
        }
    }
}

#[test]
fn faults_past_the_retry_limit_keep_the_intact_prefix() {
    let ds = data::build_dataset(SCALE);
    let q = queries::all_queries()
        .into_iter()
        .find(|q| q.id == "Q16")
        .expect("sort-heavy Q16 in workload");
    let sparql = q.frame.to_sparql().unwrap();
    let clean = endpoint(&ds);
    let executor = Executor::new().with_retry(RetryPolicy::fast(2));
    let expected = executor.run(&sparql, &clean).unwrap();
    assert!(expected.len() > 2 * PAGE, "Q16 must paginate");

    // Chunks 0 and 1 arrive (chunk 1 after one retry); chunk 2 fails twice
    // — past the budget of 2 attempts.
    let script = vec![
        None,
        Some(Fault::Transient),
        None,
        Some(Fault::TruncatedChunk),
        Some(Fault::Transient),
    ];
    let faulty = FaultyEndpoint::scripted(endpoint(&ds), script);
    let partial = executor.run_partial(&sparql, &faulty).unwrap();
    match &partial.completeness {
        Completeness::Partial { error } => {
            assert!(error.is_retryable(), "wrong give-up error: {error}")
        }
        Completeness::Complete => panic!("expected a partial result"),
    }
    // Attempt accounting: 3 faults injected, but only 2 earned a
    // re-request — the third fault exhausted the 2-attempt budget, so the
    // executor gave up instead of retrying again.
    assert_eq!(faulty.faults_injected(), 3);
    assert_eq!(executor.stats().retries(), 2);
    assert_eq!(partial.frame.len(), 2 * PAGE, "prefix must be whole chunks");
    assert_eq!(
        partial.frame,
        expected.head(2 * PAGE, 0),
        "prefix diverged from the fault-free rows"
    );

    // The all-or-nothing surface reports the same failure as an error.
    let faulty = FaultyEndpoint::scripted(
        endpoint(&ds),
        vec![
            None,
            Some(Fault::Transient),
            None,
            Some(Fault::TruncatedChunk),
            Some(Fault::Transient),
        ],
    );
    let err = executor.run(&sparql, &faulty).unwrap_err();
    assert!(err.is_retryable(), "run() must surface the transport error");
}
