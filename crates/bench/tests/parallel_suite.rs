//! Thread-count differential suite over the full example workload.
//!
//! The unit-level determinism contract lives in
//! `sparql-engine/tests/parallel_determinism.rs`; this suite asserts the
//! same property end to end through the RDFFrames stack: every synthetic
//! Table 2 query and all three case studies must produce **identical
//! DataFrames** (schema, row order, cell values) whether the embedded
//! engine evaluates with one thread or a four-worker stealing pool, and
//! must report identical `rows_scanned` work counts. The scale is chosen
//! so the bigger workloads genuinely cross the parallel row threshold —
//! the suite checks that at least some of them did.

use std::sync::Arc;

use bench::casestudies::{self, CaseParams};
use bench::data;
use bench::queries;
use rdf_model::Dataset;
use rdfframes_core::{EmbeddedEndpoint, RDFFrame};
use sparql_engine::EngineConfig;

/// Big enough that multi-pattern workloads exceed the engine's 256-row
/// parallel gate (the DBpedia graph alone has tens of thousands of rows).
const SCALE: usize = 400;

fn endpoint(ds: &Arc<Dataset>, threads: usize) -> EmbeddedEndpoint {
    // Pin a large cursor batch size: this suite asserts that parallel
    // chunking actually engaged, and the streaming pipeline only fans out
    // batches that reach the 256-row parallel gate. A small ambient
    // `RDFFRAMES_BATCH_ROWS` (the CI batch-size re-run) would starve the
    // gate and make the par_chunks assertions vacuous.
    EmbeddedEndpoint::with_engine_config(
        Arc::clone(ds),
        EngineConfig {
            threads,
            ..EngineConfig::new()
        },
    )
    .with_batch_rows(65_536)
}

/// Execute `frame` on both endpoints, assert identical frames and work
/// counts, and return whether the parallel run actually chunked anything.
fn assert_same(id: &str, frame: &RDFFrame, seq: &EmbeddedEndpoint, par: &EmbeddedEndpoint) -> bool {
    let scans = |ep: &EmbeddedEndpoint| (ep.rows_scanned(), ep.shared_scans());
    let (seq_before, par_before) = (scans(seq), scans(par));
    let chunks_before = par.stats().par_chunks();
    let df_seq = frame
        .execute(seq)
        .unwrap_or_else(|e| panic!("{id}: sequential execution failed: {e}"));
    let df_par = frame
        .execute(par)
        .unwrap_or_else(|e| panic!("{id}: parallel execution failed: {e}"));
    assert_eq!(df_seq, df_par, "{id}: thread count changed the DataFrame");
    assert!(
        !df_seq.is_empty(),
        "{id}: empty result at test scale proves nothing"
    );
    let (seq_after, par_after) = (scans(seq), scans(par));
    assert_eq!(
        (seq_after.0 - seq_before.0, seq_after.1 - seq_before.1),
        (par_after.0 - par_before.0, par_after.1 - par_before.1),
        "{id}: thread count changed the scan work counts (rows_scanned, shared_scans)"
    );
    par.stats().par_chunks() > chunks_before
}

#[test]
fn synthetic_workload_is_thread_count_invariant() {
    let ds = data::build_dataset(SCALE);
    let seq = endpoint(&ds, 1);
    let par = endpoint(&ds, 4);
    let mut any_parallel = false;
    for def in queries::all_queries() {
        any_parallel |= assert_same(def.id, &def.frame, &seq, &par);
    }
    assert_eq!(
        seq.stats().par_chunks(),
        0,
        "single-threaded endpoint must never report parallel chunks"
    );
    assert!(
        any_parallel,
        "no synthetic query crossed the parallel gate — the suite is vacuous"
    );
}

#[test]
fn case_studies_are_thread_count_invariant() {
    let ds = data::build_dataset(SCALE);
    let seq = endpoint(&ds, 1);
    let par = endpoint(&ds, 4);
    let p = CaseParams::for_scale(SCALE);
    let cases: Vec<(&str, RDFFrame)> = vec![
        (
            "cs1_movie_genre",
            casestudies::movie_genre_classification(p.prolific),
        ),
        (
            "cs2_topic_modeling",
            casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
        ),
        ("cs3_kg_embedding", casestudies::kg_embedding()),
    ];
    let mut any_parallel = false;
    for (id, frame) in &cases {
        any_parallel |= assert_same(id, frame, &seq, &par);
    }
    assert!(
        any_parallel,
        "no case study crossed the parallel gate — the suite is vacuous"
    );
}
