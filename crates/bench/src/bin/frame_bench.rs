//! End-to-end frame-execution benchmark: embedded vs wire.
//!
//! Runs the example workloads (the three case studies plus three of the
//! heavier Table 2 synthetic queries) through `RDFFrame::execute` on four
//! endpoints over one dataset:
//!
//! - **embedded** — `EmbeddedEndpoint`: model → plan compiler → one
//!   columnar cursor evaluation → typed cells decoded once per distinct
//!   term. No SPARQL text, no pagination, no wire format.
//! - **wire_none** — `InProcessEndpoint` with `WireFormat::None`: the
//!   render/parse/per-page-evaluate/per-cell-decode pipeline without result
//!   serialization (isolates the string-query overhead).
//! - **wire_tsv** / **wire_xml** — the same plus a real TSV / XML encode +
//!   parse round trip per chunk; XML is what the paper's SPARQLWrapper
//!   stack pays for.
//!
//! Every path must return the same number of rows. Results go to
//! `BENCH_frames.json`.
//!
//! Usage: `cargo run --release -p bench --bin frame_bench [--scale N] [N]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::casestudies::{self, CaseParams};
use bench::data;
use bench::queries;
use rdf_model::Dataset;
use rdfframes_core::model::{compile, generator};
use rdfframes_core::{
    EmbeddedEndpoint, Endpoint, EndpointConfig, InProcessEndpoint, RDFFrame, WireFormat,
};
use sparql_engine::{Engine, ExecStats};

const RUNS: usize = 5;

struct Workload {
    id: &'static str,
    kind: String,
    frame: RDFFrame,
}

fn workloads(scale: usize) -> Vec<Workload> {
    let p = CaseParams::for_scale(scale);
    let mut out = vec![
        Workload {
            id: "cs1_movie_genre",
            kind: format!(
                "case study 1: movie-genre features (prolific ≥ {})",
                p.prolific
            ),
            frame: casestudies::movie_genre_classification(p.prolific),
        },
        Workload {
            id: "cs2_topic_modeling",
            kind: format!(
                "case study 2: recent titles by authors with ≥ {} VLDB/SIGMOD papers",
                p.threshold
            ),
            frame: casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
        },
        Workload {
            id: "cs3_kg_embedding",
            kind: "case study 3: all entity-to-entity triples".into(),
            frame: casestudies::kg_embedding(),
        },
    ];
    for def in queries::all_queries() {
        let id = match def.id {
            "Q1" => "q1_players",
            "Q8" => "q8_films",
            // The one value join of the paper workload (and its largest
            // result): the optimizer's join-shape choice decides it.
            "Q9" => "q9_film_pairs",
            _ => continue,
        };
        out.push(Workload {
            id,
            kind: format!("synthetic {}: {}", def.id, def.description),
            frame: def.frame,
        });
    }
    out
}

struct Outcome {
    median: Duration,
    rows: usize,
}

fn run<E: Endpoint>(frame: &RDFFrame, endpoint: &E) -> Outcome {
    let warm = frame
        .execute(endpoint)
        .unwrap_or_else(|e| panic!("execution failed: {e}"));
    let rows = warm.len();
    let mut samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        let df = frame.execute(endpoint).unwrap();
        samples.push(start.elapsed());
        assert_eq!(df.len(), rows, "non-deterministic result size");
    }
    samples.sort();
    Outcome {
        median: samples[samples.len() / 2],
        rows,
    }
}

/// The engine's exact work counts for one frame (index entries scanned and
/// replayed, join candidate pairs tested) and the number of shared subplans
/// its plan has (one spool each): what the timings above are
/// made of, and — unlike them — identical on every run.
fn work_counts(frame: &RDFFrame, dataset: &Arc<Dataset>) -> (ExecStats, usize) {
    let model = generator::build_query_model(frame).expect("query model");
    let compiled = compile::compile(&model).expect("plan compilation");
    let engine = Engine::new(Arc::clone(dataset));
    let prepared = engine.prepare_plan(compiled.plan, compiled.from);
    let (_, stats) = engine
        .execute_prepared(&prepared, None)
        .expect("engine execution");
    (stats, prepared.explain().matches("(shared #").count())
}

fn parse_args() -> usize {
    let mut scale = 4000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--scale requires a number"));
            }
            other => {
                if let Ok(n) = other.parse() {
                    scale = n;
                } else {
                    panic!("unknown argument {other} (usage: frame_bench [--scale N] [N])");
                }
            }
        }
    }
    scale
}

fn wire(dataset: &Arc<Dataset>, format: WireFormat) -> InProcessEndpoint {
    InProcessEndpoint::with_config(
        Arc::clone(dataset),
        EndpointConfig {
            wire: format,
            ..Default::default()
        },
    )
}

fn main() {
    let scale = parse_args();
    eprintln!("building dataset at scale {scale}...");
    let dataset = data::build_dataset(scale);
    eprintln!(
        "dataset: {} triples across {} graphs",
        dataset.total_triples(),
        dataset.len()
    );

    let embedded = EmbeddedEndpoint::new(Arc::clone(&dataset));
    let wire_none = wire(&dataset, WireFormat::None);
    let wire_tsv = wire(&dataset, WireFormat::Tsv);
    let wire_xml = wire(&dataset, WireFormat::Xml);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"frame_bench\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"triples\": {},", dataset.total_triples());
    let _ = writeln!(json, "  \"runs\": {RUNS},");
    let _ = writeln!(
        json,
        "  \"paths\": [\"embedded\", \"wire_none\", \"wire_tsv\", \"wire_xml\"],"
    );
    let _ = writeln!(json, "  \"workloads\": [");

    println!(
        "\n{:<18} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "workload",
        "embed (ms)",
        "none (ms)",
        "tsv (ms)",
        "xml (ms)",
        "vs none",
        "vs tsv",
        "vs xml"
    );
    let specs = workloads(scale);
    let n = specs.len();
    for (i, w) in specs.iter().enumerate() {
        let out_embedded = run(&w.frame, &embedded);
        let out_none = run(&w.frame, &wire_none);
        let out_tsv = run(&w.frame, &wire_tsv);
        let out_xml = run(&w.frame, &wire_xml);
        for (name, out) in [
            ("wire_none", &out_none),
            ("wire_tsv", &out_tsv),
            ("wire_xml", &out_xml),
        ] {
            assert_eq!(
                out_embedded.rows, out.rows,
                "{}: {name} disagrees on result size",
                w.id
            );
        }
        let embed_s = out_embedded.median.as_secs_f64().max(1e-12);
        let vs_none = out_none.median.as_secs_f64() / embed_s;
        let vs_tsv = out_tsv.median.as_secs_f64() / embed_s;
        let vs_xml = out_xml.median.as_secs_f64() / embed_s;
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>7.2}x {:>7.2}x {:>7.2}x  ({} rows)",
            w.id,
            out_embedded.median.as_secs_f64() * 1e3,
            out_none.median.as_secs_f64() * 1e3,
            out_tsv.median.as_secs_f64() * 1e3,
            out_xml.median.as_secs_f64() * 1e3,
            vs_none,
            vs_tsv,
            vs_xml,
            out_embedded.rows
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"id\": \"{}\",", w.id);
        let _ = writeln!(json, "      \"kind\": \"{}\",", w.kind);
        let _ = writeln!(json, "      \"rows\": {},", out_embedded.rows);
        let (work, spools) = work_counts(&w.frame, &dataset);
        let _ = writeln!(json, "      \"rows_scanned\": {},", work.rows_scanned);
        let _ = writeln!(json, "      \"shared_scans\": {},", work.shared_scans);
        let _ = writeln!(json, "      \"spools\": {spools},");
        let _ = writeln!(json, "      \"join_candidates\": {},", work.join_candidates);
        let _ = writeln!(
            json,
            "      \"embedded_ms\": {:.3},",
            out_embedded.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"wire_none_ms\": {:.3},",
            out_none.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"wire_tsv_ms\": {:.3},",
            out_tsv.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"wire_xml_ms\": {:.3},",
            out_xml.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"speedup_vs_wire_none\": {vs_none:.3},");
        let _ = writeln!(json, "      \"speedup_vs_wire_tsv\": {vs_tsv:.3},");
        let _ = writeln!(json, "      \"speedup_vs_wire_xml\": {vs_xml:.3}");
        let _ = writeln!(json, "    }}{}", if i + 1 < n { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_frames.json", &json).expect("write BENCH_frames.json");
    eprintln!("\nwrote BENCH_frames.json");
}
