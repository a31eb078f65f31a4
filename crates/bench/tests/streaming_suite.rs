//! Streaming differential suite over the full example workload.
//!
//! The operator-level contract lives in
//! `sparql-engine/tests/streaming_pipeline.rs`; this suite asserts the
//! same property end to end through the RDFFrames stack: every synthetic
//! Table 2 query and all three case studies must produce **identical
//! DataFrames** (schema, row order, cell values) and identical
//! `rows_scanned` and `shared_scans` work counts (index entries read, and
//! index entries a shared subplan's replays stood in for) whether the
//! embedded engine is drained in one unbounded pull — materializing, what
//! `execute` does — or batch by batch, at every batch size in the sweep
//! (1, 7, 256, 16384, 65536) and over graphs built both ways (installed
//! whole, and an overlay of appends on an empty install, which interns the
//! terms in another order).
//!
//! Scan parity is exact here because nothing in this corpus carries a
//! `LIMIT`: the slice's early exit (the one sanctioned scan divergence —
//! see `streaming_pipeline.rs`) never engages.

use std::sync::Arc;

use bench::casestudies::{self, CaseParams};
use bench::data;
use bench::queries;
use rdf_model::{Dataset, Graph};
use rdfframes_core::{EmbeddedEndpoint, RDFFrame};

/// Big enough for multi-thousand-row intermediates (so batching is
/// genuinely exercised), small enough to keep the 5-batch × 2-build
/// sweep fast.
const SCALE: usize = 100;

const BATCH_SWEEP: [usize; 5] = [1, 7, 256, 16_384, 65_536];

fn endpoint(ds: &Arc<Dataset>, batch_rows: usize) -> EmbeddedEndpoint {
    EmbeddedEndpoint::new(Arc::clone(ds)).with_batch_rows(batch_rows)
}

/// Rebuild every graph as an empty install plus one append of all its
/// triples, so the appends intern the terms in their SPO scan order —
/// resumable scans must behave identically over both id orders.
fn appended_copy(ds: &Arc<Dataset>) -> Arc<Dataset> {
    let uris: Vec<String> = ds.graph_uris().map(str::to_owned).collect();
    let mut out = Dataset::new();
    for uri in uris {
        let triples = ds.graph_triples(&uri).expect("graph listed but missing");
        out.insert_graph(&uri, Graph::new());
        let added = out.append_triples(&uri, triples).unwrap();
        assert_eq!(added, ds.graph(&uri).unwrap().len(), "{uri}");
    }
    Arc::new(out)
}

fn workload() -> Vec<(String, RDFFrame)> {
    let p = CaseParams::for_scale(SCALE);
    let mut all: Vec<(String, RDFFrame)> = queries::all_queries()
        .into_iter()
        .map(|def| (def.id.to_string(), def.frame))
        .collect();
    all.push((
        "cs1_movie_genre".into(),
        casestudies::movie_genre_classification(p.prolific),
    ));
    all.push((
        "cs2_topic_modeling".into(),
        casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
    ));
    all.push(("cs3_kg_embedding".into(), casestudies::kg_embedding()));
    all
}

/// One workload execution, returning the DataFrame and the
/// `(rows_scanned, shared_scans)` it added.
fn run(frame: &RDFFrame, ep: &EmbeddedEndpoint, id: &str) -> (dataframe::DataFrame, (u64, u64)) {
    let before = (ep.rows_scanned(), ep.shared_scans());
    let df = frame
        .execute(ep)
        .unwrap_or_else(|e| panic!("{id}: execution failed: {e}"));
    let scans = (ep.rows_scanned() - before.0, ep.shared_scans() - before.1);
    (df, scans)
}

fn sweep_layout(ds: &Arc<Dataset>, layout: &str) {
    // The materializing baseline is the unbounded pull; compute it once
    // per frame and hold every bounded batch size to it.
    let baseline = endpoint(ds, usize::MAX);
    for (id, frame) in workload() {
        let (df_base, scanned_base) = run(&frame, &baseline, &id);
        assert!(
            !df_base.is_empty(),
            "{id}: empty result at test scale proves nothing"
        );
        for batch_rows in BATCH_SWEEP {
            let streaming = endpoint(ds, batch_rows);
            let (df_stream, scanned_stream) = run(&frame, &streaming, &id);
            assert_eq!(
                df_base, df_stream,
                "{id} @ batch {batch_rows} ({layout}): streaming changed the DataFrame"
            );
            assert_eq!(
                scanned_base, scanned_stream,
                "{id} @ batch {batch_rows} ({layout}): streaming changed the scan work counts"
            );
        }
    }
}

#[test]
fn workload_streams_identically_over_compacted_slabs() {
    let ds = data::build_dataset(SCALE);
    sweep_layout(&ds, "installed");
}

#[test]
fn workload_streams_identically_over_delta_overlay() {
    let ds = appended_copy(&data::build_dataset(SCALE));
    sweep_layout(&ds, "appended");
}
