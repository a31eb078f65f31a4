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
//! A second section measures the streaming pull-based pipeline against
//! full materialization on the embedded path: same workloads, same
//! endpoint type, `EngineConfig::streaming` toggled — reporting median
//! wall time and **peak live heap** per run via a counting global
//! allocator. The result `DataFrame` is O(result) on both sides; the
//! difference is the intermediate state (the materialized `IdTable`,
//! sort scratch, …) that streaming never holds.
//!
//! Usage: `cargo run --release -p bench --bin frame_bench [--scale N] [N]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
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
use sparql_engine::{Engine, EngineConfig, ExecStats};

const RUNS: usize = 5;

/// Global allocator wrapper keeping a live-bytes counter and a
/// high-water mark, so a benchmark run can report its true peak heap
/// (every allocation in the process, not just tracked tables).
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    fn grow(&self, by: usize) {
        let live = self.live.fetch_add(by, Ordering::Relaxed) + by;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, by: usize) {
        self.live.fetch_sub(by, Ordering::Relaxed);
    }

    /// Current live bytes.
    fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Drop the high-water mark back to the current live level; the next
    /// [`Self::peak_bytes`] read covers only allocations made after this.
    fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

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
/// its plan has (spools, on the streaming path): what the timings above are
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

struct MemOutcome {
    median: Duration,
    peak_bytes: usize,
    rows: usize,
}

/// Like [`run`], but also report the median per-run peak of *newly live*
/// heap (high-water mark minus the live bytes at run start, so the
/// resident dataset and endpoint caches don't drown the signal).
fn run_measuring_heap<E: Endpoint>(frame: &RDFFrame, endpoint: &E) -> MemOutcome {
    let warm = frame
        .execute(endpoint)
        .unwrap_or_else(|e| panic!("execution failed: {e}"));
    let rows = warm.len();
    drop(warm);
    let mut times = Vec::with_capacity(RUNS);
    let mut peaks = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let base = ALLOC.live_bytes();
        ALLOC.reset_peak();
        let start = Instant::now();
        let df = frame.execute(endpoint).unwrap();
        times.push(start.elapsed());
        peaks.push(ALLOC.peak_bytes().saturating_sub(base));
        assert_eq!(df.len(), rows, "non-deterministic result size");
    }
    times.sort();
    peaks.sort();
    MemOutcome {
        median: times[times.len() / 2],
        peak_bytes: peaks[peaks.len() / 2],
        rows,
    }
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
    let _ = writeln!(json, "  ],");

    // Streaming pipeline vs full materialization, embedded path only:
    // identical results by construction (the differential suites pin
    // that); here the question is wall time and peak live heap.
    let streaming_ep = EmbeddedEndpoint::new(Arc::clone(&dataset));
    let materializing_ep = EmbeddedEndpoint::with_engine_config(
        Arc::clone(&dataset),
        EngineConfig {
            streaming: false,
            ..EngineConfig::new()
        },
    );
    println!(
        "\n{:<18} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "workload", "stream (ms)", "mat (ms)", "stream MB", "mat MB", "strm/mat"
    );
    let _ = writeln!(json, "  \"streaming_vs_materializing\": [");
    for (i, w) in specs.iter().enumerate() {
        let out_stream = run_measuring_heap(&w.frame, &streaming_ep);
        let out_mat = run_measuring_heap(&w.frame, &materializing_ep);
        assert_eq!(
            out_stream.rows, out_mat.rows,
            "{}: streaming disagrees on result size",
            w.id
        );
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        // > 1 means streaming holds *more* heap than materializing.
        let ratio = mb(out_stream.peak_bytes) / mb(out_mat.peak_bytes).max(1e-9);
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.2} {:>12.2} {:>8.2}x  ({} rows)",
            w.id,
            out_stream.median.as_secs_f64() * 1e3,
            out_mat.median.as_secs_f64() * 1e3,
            mb(out_stream.peak_bytes),
            mb(out_mat.peak_bytes),
            ratio,
            out_stream.rows
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"id\": \"{}\",", w.id);
        let _ = writeln!(json, "      \"rows\": {},", out_stream.rows);
        let _ = writeln!(
            json,
            "      \"streaming_ms\": {:.3},",
            out_stream.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"materializing_ms\": {:.3},",
            out_mat.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"streaming_peak_mb\": {:.3},",
            mb(out_stream.peak_bytes)
        );
        let _ = writeln!(
            json,
            "      \"materializing_peak_mb\": {:.3},",
            mb(out_mat.peak_bytes)
        );
        let _ = writeln!(
            json,
            "      \"streaming_over_materializing_peak_heap\": {ratio:.3}"
        );
        let _ = writeln!(json, "    }}{}", if i + 1 < n { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_frames.json", &json).expect("write BENCH_frames.json");
    eprintln!("\nwrote BENCH_frames.json");
}
