//! Embedded-vs-wire differential suite.
//!
//! The embedded execution path (query model → rendered SPARQL → cached
//! prepared plan → columnar cursor → typed DataFrame, evaluated once) must
//! be perfectly interchangeable with the paper-faithful wire path (render →
//! parse → evaluate per page → XML round trip → per-cell decode). This suite
//! drives every example workload — the 15 synthetic queries of Table 2 and
//! the three case studies — through both and asserts:
//!
//! 1. **One plan**: the prepared plan the `EmbeddedEndpoint` caches for the
//!    model equals `Engine::prepare(render(model))` on an engine with the
//!    same configuration — optimized plan and `FROM` list alike.
//! 2. **DataFrame identity**: both paths produce the *same* DataFrame —
//!    schema, row order, cell types and values.
//! 3. **Work parity**: `rows_scanned` and `shared_scans` on the embedded
//!    cursor — at its default batch size and drained in one unbounded pull
//!    alike — equal the engine's counts for the rendered text (pagination
//!    permitting — the wire side is checked to have served a single chunk),
//!    and their sum equals the `rows_scanned` of the oracle
//!    (`eval_reference::execute`), which evaluates every occurrence of a
//!    repeated subplan.

use std::sync::Arc;

use bench::casestudies::{self, CaseParams};
use bench::data;
use bench::queries;
use rdf_model::Dataset;
use rdfframes_core::model::{generator, render};
use rdfframes_core::{EmbeddedEndpoint, EndpointConfig, InProcessEndpoint, RDFFrame};
use sparql_engine::{eval_reference, Engine};

const SCALE: usize = 150;

/// Assert all three equivalence layers for one frame.
fn assert_equivalent(id: &str, frame: &RDFFrame, ds: &Arc<Dataset>) {
    let model = generator::build_query_model(frame)
        .unwrap_or_else(|e| panic!("{id}: model generation failed: {e}"));
    let sparql = render::render(&model);
    let embedded = EmbeddedEndpoint::new(Arc::clone(ds));
    let wire_ep = InProcessEndpoint::new(Arc::clone(ds));
    let scanned_before = (embedded.rows_scanned(), embedded.shared_scans());
    let df_embedded = frame
        .execute(&embedded)
        .unwrap_or_else(|e| panic!("{id}: embedded execution failed: {e}"));

    // 1. One plan: what the endpoint cached is what the engine prepares
    // from the rendered text.
    let cached = embedded
        .cached_model_plan(&model)
        .unwrap_or_else(|| panic!("{id}: the embedded execution cached no plan"));
    let via_text = Engine::with_config(Arc::clone(ds), embedded.engine().config().clone())
        .prepare(&sparql)
        .unwrap_or_else(|e| panic!("{id}: render produced unparseable SPARQL: {e}\n{sparql}"));
    assert_eq!(
        *cached, via_text,
        "{id}: cached plan diverges from Engine::prepare(render(model))\n{sparql}"
    );

    // 2. Identical DataFrames end to end.
    let df_wire = frame
        .execute(&wire_ep)
        .unwrap_or_else(|e| panic!("{id}: wire execution failed: {e}"));
    assert_eq!(
        df_embedded, df_wire,
        "{id}: embedded and wire dataframes differ"
    );
    assert!(
        !df_embedded.is_empty(),
        "{id}: empty result at test scale proves nothing"
    );
    let scanned = (
        embedded.rows_scanned() - scanned_before.0,
        embedded.shared_scans() - scanned_before.1,
    );
    // The same cursor drained in one unbounded pull, as `execute` does.
    let one_pull = EmbeddedEndpoint::new(Arc::clone(ds)).with_batch_rows(usize::MAX);
    let df_one_pull = frame
        .execute(&one_pull)
        .unwrap_or_else(|e| panic!("{id}: unbounded embedded execution failed: {e}"));
    assert_eq!(
        df_embedded, df_one_pull,
        "{id}: batch size changed the frame"
    );
    assert_eq!(
        scanned,
        (one_pull.rows_scanned(), one_pull.shared_scans()),
        "{id}: batch size changed the scan work"
    );

    // 3. Scan parity (single-chunk wire executions only — the paper's HTTP
    // model re-evaluates per page, which multiplies the wire side's work by
    // the page count).
    if wire_ep.stats().requests() == 1 {
        let engine = wire_ep.engine();
        let (_, stats) = engine
            .execute_with_stats(&sparql)
            .unwrap_or_else(|e| panic!("{id}: direct engine execution failed: {e}"));
        assert_eq!(
            scanned.0, stats.rows_scanned,
            "{id}: embedded cursor scanned a different number of index entries"
        );
        assert_eq!(
            scanned.1, stats.shared_scans,
            "{id}: embedded cursor replayed a different number of index entries"
        );
        let (_, unshared) = engine
            .prepare(&sparql)
            .and_then(|prepared| eval_reference::execute(engine, &prepared, None))
            .unwrap_or_else(|e| panic!("{id}: oracle execution failed: {e}"));
        assert_eq!(
            stats.unshared_scans(),
            unshared.rows_scanned,
            "{id}: scans read + scans replayed differ from evaluating every occurrence"
        );
    }
}

#[test]
fn synthetic_workload_embedded_matches_xml_wire() {
    let ds = data::build_dataset(SCALE);
    for def in queries::all_queries() {
        assert_equivalent(def.id, &def.frame, &ds);
    }
}

/// The case studies, embedded against the XML wire path.
#[test]
fn case_studies_embedded_matches_both_wire_formats() {
    let ds = data::build_dataset(SCALE);
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
    for (id, frame) in &cases {
        assert_equivalent(id, frame, &ds);
    }
}

/// Paginated wire executions must still agree with the embedded result
/// (modulo the work-parity check, which pagination legitimately breaks).
#[test]
fn pagination_does_not_break_equivalence() {
    let ds = data::build_dataset(SCALE);
    let frame = casestudies::kg_embedding();
    let embedded = EmbeddedEndpoint::new(Arc::clone(&ds));
    let wire_ep = InProcessEndpoint::with_config(
        Arc::clone(&ds),
        EndpointConfig {
            max_rows_per_request: 500,
            ..Default::default()
        },
    );
    let df_embedded = frame.execute(&embedded).unwrap();
    let df_wire = frame.execute(&wire_ep).unwrap();
    assert!(
        wire_ep.stats().requests() > 1,
        "test should actually paginate"
    );
    assert_eq!(df_embedded, df_wire);
    // The wire path re-planned nothing after the first chunk.
    assert_eq!(wire_ep.cached_plans(), 1);
}

/// Float cells produced by the embedded typed-column path must round-trip
/// through display/CSV exactly like the wire path's (no `1` vs `1.0`
/// drift) — the regression the columnar decode could have introduced.
#[test]
fn float_columns_round_trip_identically() {
    let ds = data::build_dataset(SCALE);
    let frame = data::dbpedia_graph()
        .feature_domain_range("dbpp:starring", "movie", "actor")
        .expand("movie", "dbpp:runtime", "runtime")
        .group_by(&["actor"])
        .avg("runtime", "mean_runtime");

    let embedded = EmbeddedEndpoint::new(Arc::clone(&ds));
    let wire_ep = InProcessEndpoint::new(Arc::clone(&ds));
    let df_embedded = frame.execute(&embedded).unwrap();
    let df_wire = frame.execute(&wire_ep).unwrap();
    assert_eq!(df_embedded, df_wire);

    // AVG over integers yields doubles; find one with an integral value so
    // the formatting distinction actually bites, and check the text forms.
    let csv_embedded = dataframe::csv::to_csv(&df_embedded);
    let csv_wire = dataframe::csv::to_csv(&df_wire);
    assert_eq!(csv_embedded, csv_wire);
    let back = dataframe::csv::from_csv(&csv_embedded).unwrap();
    assert_eq!(back, df_embedded, "CSV round trip must preserve cell types");
    let has_integral_float = df_embedded
        .column("mean_runtime")
        .unwrap()
        .any(|c| matches!(c, dataframe::Cell::Float(f) if f.fract() == 0.0));
    if has_integral_float {
        assert!(
            csv_embedded.contains(".0"),
            "integral floats must keep their decimal point in CSV:\n{csv_embedded}"
        );
    }
}
