//! Micro-benchmark for the evaluator refactors.
//!
//! Runs a BGP-heavy query, a GROUP BY-heavy query, and an aggregate-heavy
//! numeric query (MIN/MAX/SUM/AVG over `dbpp:runtime`) on the synthetic
//! DBpedia-style dataset against both evaluators — the seed term-
//! materialized reference ([`sparql_engine::eval_reference`]) and the
//! columnar default ([`sparql_engine::eval`], through `execute`: the
//! operator pipeline drained in one pull) — reporting median wall-clock
//! time, the deterministic `rows_scanned` work metric, and the number of
//! heap allocations per execution (via a counting global allocator). A
//! fourth, textually misordered BGP is run with the optimizer on and off to
//! record how much statistics-driven pattern ordering matters, and
//! `bgp_heavy` is re-run with resource budgets armed on every axis (but
//! never hit) to keep the governor's overhead honest (<2%). Results are
//! written to `BENCH_eval.json` so the perf trajectory is tracked in-repo.
//!
//! Usage: `cargo run --release -p bench --bin eval_bench [--scale N] [N]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::data;
use rdf_model::persist::{format, MemVfs, Store, Vfs};
use rdf_model::{ntriples, Dataset, Graph, Term, Triple};
use sparql_engine::{Engine, EngineConfig, EvalMode, QueryBudget};

/// Counts every heap allocation so the bench can report per-query
/// allocation totals (the columnar evaluator's headline claim is "no
/// per-row `Vec`"; this makes it measurable).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, only adding a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const RUNS: usize = 9;
/// Runs for the persistence cold-start timings (each run rebuilds a whole
/// dataset, so fewer samples than the query loop).
const PERSIST_RUNS: usize = 5;

/// Median wall-clock of `runs` invocations of `f` (the result is consumed
/// by the caller-supplied asserts inside `f`, so nothing is optimized out).
fn median_of<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let out = f();
        samples.push(start.elapsed());
        drop(out);
    }
    samples.sort();
    samples[samples.len() / 2]
}

struct QuerySpec {
    id: &'static str,
    kind: &'static str,
    sparql: String,
}

fn queries() -> Vec<QuerySpec> {
    let prefixes = "PREFIX dbpp: <http://dbpedia.org/property/>\n\
                    PREFIX dbpo: <http://dbpedia.org/ontology/>\n\
                    PREFIX dbpr: <http://dbpedia.org/resource/>\n";
    vec![
        QuerySpec {
            id: "bgp_heavy",
            kind: "4-pattern BGP join over movies/actors, US-born filter",
            sparql: format!(
                "{prefixes}SELECT ?movie ?actor ?country ?genre \
                 FROM <http://dbpedia.org> WHERE {{ \
                   ?movie dbpp:starring ?actor . \
                   ?actor dbpp:birthPlace ?country . \
                   ?movie dbpo:genre ?genre . \
                   ?movie dbpo:director ?director \
                   FILTER ( ?country = dbpr:United_States ) }}"
            ),
        },
        QuerySpec {
            id: "group_by_heavy",
            kind: "scan + GROUP BY actor with two aggregates",
            sparql: format!(
                "{prefixes}SELECT ?actor (COUNT(DISTINCT ?movie) AS ?movies) \
                 (COUNT(?genre) AS ?genres) \
                 FROM <http://dbpedia.org> WHERE {{ \
                   ?movie dbpp:starring ?actor . \
                   ?movie dbpo:genre ?genre }} \
                 GROUP BY ?actor"
            ),
        },
        QuerySpec {
            id: "agg_numeric",
            kind: "MIN/MAX/SUM/AVG over integer runtimes, GROUP BY genre",
            sparql: format!(
                "{prefixes}SELECT ?genre (MIN(?rt) AS ?shortest) (MAX(?rt) AS ?longest) \
                 (SUM(?rt) AS ?total) (AVG(?rt) AS ?mean) (COUNT(?rt) AS ?n) \
                 FROM <http://dbpedia.org> WHERE {{ \
                   ?movie dbpo:genre ?genre . \
                   ?movie dbpp:runtime ?rt }} \
                 GROUP BY ?genre"
            ),
        },
        QuerySpec {
            id: "sort_heavy",
            kind: "full ORDER BY over every starring pair (term-rank sort)",
            sparql: format!(
                "{prefixes}SELECT ?movie ?actor \
                 FROM <http://dbpedia.org> WHERE {{ \
                   ?movie dbpp:starring ?actor }} \
                 ORDER BY ?actor ?movie"
            ),
        },
        QuerySpec {
            id: "star_merge_join",
            kind: "3-way star join on ?film; all sides sorted → merge joins",
            sparql: format!(
                "{prefixes}PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
                 SELECT ?film FROM <http://dbpedia.org> WHERE {{ \
                   {{ ?film rdf:type dbpr:Film }} \
                   {{ ?film dbpp:country dbpr:United_States }} \
                   {{ ?film dbpo:genre dbpr:Film_score }} }}"
            ),
        },
        QuerySpec {
            id: "optional_heavy",
            kind: "all films OPTIONAL-extended twice; sorted sides → merge left joins",
            sparql: format!(
                "{prefixes}PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
                 SELECT ?film ?rt ?la FROM <http://dbpedia.org> WHERE {{ \
                   {{ ?film rdf:type dbpr:Film }} \
                   OPTIONAL {{ ?film dbpo:genre dbpr:Film_score . ?film dbpp:runtime ?rt }} \
                   OPTIONAL {{ ?film dbpp:country dbpr:United_States . ?film dbpp:language ?la }} }}"
            ),
        },
        QuerySpec {
            id: "sorted_agg",
            kind: "GROUP BY the leading sort var of the POS starring scan (claim counted, hash grouping)",
            sparql: format!(
                "{prefixes}SELECT ?actor (COUNT(?movie) AS ?movies) \
                 (COUNT(DISTINCT ?movie) AS ?distinct_movies) \
                 FROM <http://dbpedia.org> WHERE {{ \
                   ?movie dbpp:starring ?actor }} \
                 GROUP BY ?actor"
            ),
        },
        QuerySpec {
            id: "sorted_distinct",
            kind: "DISTINCT over the full sort sequence of the starring scan → run detection",
            sparql: format!(
                "{prefixes}SELECT DISTINCT ?actor ?movie \
                 FROM <http://dbpedia.org> WHERE {{ \
                   ?movie dbpp:starring ?actor }}"
            ),
        },
    ]
}

/// BGP written worst-first: the selective award-like pattern comes last in
/// the text, so evaluating in textual order scans the big indexes first.
/// Run with the optimizer on and off to measure what selectivity-ordered
/// evaluation buys.
fn misordered_query() -> QuerySpec {
    let prefixes = "PREFIX dbpp: <http://dbpedia.org/property/>\n\
                    PREFIX dbpo: <http://dbpedia.org/ontology/>\n\
                    PREFIX dbpr: <http://dbpedia.org/resource/>\n";
    QuerySpec {
        id: "bgp_misordered",
        kind: "worst-first textual order; optimizer reorders by PredicateStats",
        sparql: format!(
            "{prefixes}SELECT ?movie ?actor ?genre \
             FROM <http://dbpedia.org> WHERE {{ \
               ?movie dbpp:starring ?actor . \
               ?movie dbpo:genre ?genre . \
               ?actor dbpp:academyAward ?aw }}"
        ),
    }
}

struct Outcome {
    /// Median of the timed runs (robust to scheduler noise).
    median: Duration,
    rows: usize,
    rows_scanned: u64,
    /// Merge joins that actually fired (columnar evaluator only).
    merge_joins: u64,
    /// Merge *left* joins that actually fired (columnar evaluator only).
    merge_left_joins: u64,
    /// DISTINCTs that deduplicated by run detection (columnar only).
    sorted_distincts: u64,
    /// GROUP BYs whose sorted-input claim held (columnar only).
    sorted_groups: u64,
    /// Heap allocations for one (post-warmup) execution.
    allocs: u64,
}

fn run(engine: &Engine, sparql: &str) -> Outcome {
    // Warmup (also surfaces errors before timing, and lets lazily-built
    // dataset caches — term ranks, refreshed stats — settle).
    let (warm, stats) = engine
        .execute_with_stats(sparql)
        .unwrap_or_else(|e| panic!("query failed: {e}\n{sparql}"));
    let rows = warm.len();
    let allocs_before = allocations();
    let (t, _) = engine.execute_with_stats(sparql).unwrap();
    let allocs = allocations() - allocs_before;
    assert_eq!(t.len(), rows, "non-deterministic result size");
    let mut samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        let (t, _) = engine.execute_with_stats(sparql).unwrap();
        samples.push(start.elapsed());
        assert_eq!(t.len(), rows, "non-deterministic result size");
    }
    samples.sort();
    Outcome {
        median: samples[samples.len() / 2],
        rows,
        // Comparable across evaluators: what the columnar one read plus
        // what its shared subplans' replays stood in for.
        rows_scanned: stats.unshared_scans(),
        merge_joins: stats.merge_joins,
        merge_left_joins: stats.merge_left_joins,
        sorted_distincts: stats.sorted_distincts,
        sorted_groups: stats.sorted_groups,
        allocs,
    }
}

struct Args {
    scale: usize,
    /// Diff the fresh results against the previous `BENCH_eval.json`.
    compare: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        scale: 4000,
        compare: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                parsed.scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--scale requires a number"));
            }
            "--compare" => parsed.compare = true,
            other => {
                // Positional scale, kept for backward compatibility.
                if let Ok(n) = other.parse() {
                    parsed.scale = n;
                } else {
                    panic!(
                        "unknown argument {other} (usage: eval_bench [--scale N] [--compare] [N])"
                    );
                }
            }
        }
    }
    parsed
}

/// Pull `(query id, columnar ms)` pairs out of a previous `BENCH_eval.json`
/// (hand-rolled scan — the file is written by this binary, so the shape is
/// known; no JSON dependency needed).
fn parse_previous(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut current_id: Option<String> = None;
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"id\": \"") {
            current_id = rest.strip_suffix("\",").map(str::to_string);
        }
        for key in ["\"columnar_ms\": ", "\"selectivity_ordered_ms\": "] {
            if let Some(rest) = line.strip_prefix(key) {
                if let Ok(ms) = rest.trim_end_matches(',').parse::<f64>() {
                    if let Some(id) = current_id.take() {
                        out.push((id, ms));
                    }
                }
            }
        }
    }
    out
}

/// Print per-query deltas against the previous results file, so a PR body
/// can quote regressions/speedups without manual diffing.
fn print_comparison(previous: &[(String, f64)], fresh: &[(String, f64)]) {
    println!("\ncomparison vs previous BENCH_eval.json (columnar path):");
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "query", "prev (ms)", "now (ms)", "speedup"
    );
    for (id, now_ms) in fresh {
        match previous.iter().find(|(pid, _)| pid == id) {
            Some((_, prev_ms)) => {
                let speedup = prev_ms / now_ms.max(1e-12);
                let marker = if speedup < 0.9 {
                    "  <-- regression"
                } else {
                    ""
                };
                println!("{id:<18} {prev_ms:>12.3} {now_ms:>12.3} {speedup:>8.2}x{marker}");
            }
            None => println!("{id:<18} {:>12} {now_ms:>12.3} {:>9}", "-", "new"),
        }
    }
}

fn main() {
    let args = parse_args();
    let scale = args.scale;
    let previous = args
        .compare
        .then(|| std::fs::read_to_string("BENCH_eval.json").ok())
        .flatten()
        .map(|json| parse_previous(&json))
        .unwrap_or_default();
    let mut fresh: Vec<(String, f64)> = Vec::new();
    eprintln!("building dataset at scale {scale}...");
    let dataset: Arc<Dataset> = data::build_dataset(scale);
    eprintln!(
        "dataset: {} triples across {} graphs",
        dataset.total_triples(),
        dataset.len()
    );

    let mode_engine = |eval_mode| {
        Engine::with_config(
            Arc::clone(&dataset),
            EngineConfig {
                optimize: true,
                eval_mode,
                ..EngineConfig::new()
            },
        )
    };
    let reference = mode_engine(EvalMode::TermReference);
    let columnar = mode_engine(EvalMode::Columnar);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"eval_bench\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"triples\": {},", dataset.total_triples());
    let _ = writeln!(json, "  \"runs\": {RUNS},");
    let _ = writeln!(json, "  \"evaluators\": [\"reference\", \"columnar\"],");
    let _ = writeln!(json, "  \"queries\": [");

    println!(
        "\n{:<16} {:>13} {:>13} {:>8} {:>12} {:>8}",
        "query", "ref (ms)", "col (ms)", "vs ref", "rows_scanned", "rows"
    );
    let specs = queries();
    for spec in &specs {
        let ref_out = run(&reference, &spec.sparql);
        let col_out = run(&columnar, &spec.sparql);
        assert_eq!(
            ref_out.rows, col_out.rows,
            "{}: the evaluators disagree on result size",
            spec.id
        );
        assert_eq!(
            ref_out.rows_scanned, col_out.rows_scanned,
            "{}: the evaluators disagree on the work metric",
            spec.id
        );
        let vs_ref = ref_out.median.as_secs_f64() / col_out.median.as_secs_f64().max(1e-12);
        println!(
            "{:<16} {:>13.3} {:>13.3} {:>7.2}x {:>12} {:>8}",
            spec.id,
            ref_out.median.as_secs_f64() * 1e3,
            col_out.median.as_secs_f64() * 1e3,
            vs_ref,
            ref_out.rows_scanned,
            ref_out.rows
        );
        println!(
            "{:<16} allocs: ref {} | columnar {}",
            "", ref_out.allocs, col_out.allocs
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"id\": \"{}\",", spec.id);
        let _ = writeln!(json, "      \"kind\": \"{}\",", spec.kind);
        let _ = writeln!(
            json,
            "      \"reference_ms\": {:.3},",
            ref_out.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"columnar_ms\": {:.3},",
            col_out.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"speedup_vs_reference\": {vs_ref:.3},");
        let _ = writeln!(
            json,
            "      \"allocations\": {{ \"reference\": {}, \"columnar\": {} }},",
            ref_out.allocs, col_out.allocs
        );
        let _ = writeln!(json, "      \"rows_scanned\": {},", ref_out.rows_scanned);
        let _ = writeln!(json, "      \"merge_joins\": {},", col_out.merge_joins);
        let _ = writeln!(
            json,
            "      \"merge_left_joins\": {},",
            col_out.merge_left_joins
        );
        let _ = writeln!(
            json,
            "      \"sorted_distincts\": {},",
            col_out.sorted_distincts
        );
        let _ = writeln!(json, "      \"sorted_groups\": {},", col_out.sorted_groups);
        let _ = writeln!(json, "      \"rows\": {}", ref_out.rows);
        // The queries array always continues with the ordering case below,
        // so every entry here takes a trailing comma.
        let _ = writeln!(json, "    }},");
        fresh.push((spec.id.to_string(), col_out.median.as_secs_f64() * 1e3));
    }

    // Rewrite ablation: the columnar evaluator with this PR's physical
    // rewrites (merge joins, FILTER pushdown, term-rank ORDER BY) against
    // the same evaluator with them disabled — i.e. the PR 4 baseline.
    let pr4_baseline = Engine::with_config(
        Arc::clone(&dataset),
        EngineConfig {
            filter_pushdown: false,
            merge_joins: false,
            rank_order_by: false,
            ..EngineConfig::new()
        },
    );
    println!(
        "\n{:<18} {:>13} {:>13} {:>9} {:>12} {:>7}  (columnar: PR4 baseline vs rewrites)",
        "ablation", "pr4 (ms)", "rewrite (ms)", "speedup", "merge_joins", "rows"
    );
    for spec in specs
        .iter()
        .filter(|s| s.id == "sort_heavy" || s.id == "star_merge_join")
    {
        let base_out = run(&pr4_baseline, &spec.sparql);
        let new_out = run(&columnar, &spec.sparql);
        assert_eq!(
            base_out.rows, new_out.rows,
            "{}: ablation result drift",
            spec.id
        );
        let speedup = base_out.median.as_secs_f64() / new_out.median.as_secs_f64().max(1e-12);
        println!(
            "{:<18} {:>13.3} {:>13.3} {:>8.2}x {:>12} {:>7}",
            spec.id,
            base_out.median.as_secs_f64() * 1e3,
            new_out.median.as_secs_f64() * 1e3,
            speedup,
            new_out.merge_joins,
            new_out.rows
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"id\": \"{}_vs_pr4\",", spec.id);
        let _ = writeln!(
            json,
            "      \"kind\": \"rewrite ablation: {} with merge joins/pushdown/rank sort off vs on\",",
            spec.id
        );
        let _ = writeln!(
            json,
            "      \"pr4_baseline_ms\": {:.3},",
            base_out.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"columnar_ms\": {:.3},",
            new_out.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"speedup_vs_pr4_baseline\": {speedup:.3},");
        let _ = writeln!(json, "      \"merge_joins\": {},", new_out.merge_joins);
        let _ = writeln!(
            json,
            "      \"allocations\": {{ \"pr4_baseline\": {}, \"columnar\": {} }},",
            base_out.allocs, new_out.allocs
        );
        let _ = writeln!(json, "      \"rows\": {}", new_out.rows);
        let _ = writeln!(json, "    }},");
    }

    // Second ablation: this PR's order-aware rewrites (merge left joins,
    // sorted DISTINCT, sorted GROUP BY) against the same columnar engine
    // with only them disabled — i.e. the PR 6 baseline, which already has
    // inner merge joins, FILTER pushdown, and rank ORDER BY.
    let pr6_baseline = Engine::with_config(
        Arc::clone(&dataset),
        EngineConfig {
            merge_left_joins: false,
            sorted_distinct: false,
            sorted_group_by: false,
            ..EngineConfig::new()
        },
    );
    println!(
        "\n{:<18} {:>13} {:>13} {:>9} {:>9} {:>8} {:>8} {:>9}  (columnar: PR6 baseline vs order-aware aggregation)",
        "ablation", "pr6 (ms)", "rewrite (ms)", "speedup", "mljoins", "sdist", "sgroup", "rows"
    );
    for spec in specs
        .iter()
        .filter(|s| s.id == "optional_heavy" || s.id == "sorted_agg" || s.id == "sorted_distinct")
    {
        let base_out = run(&pr6_baseline, &spec.sparql);
        let new_out = run(&columnar, &spec.sparql);
        assert_eq!(
            base_out.rows, new_out.rows,
            "{}: ablation result drift",
            spec.id
        );
        assert_eq!(
            base_out.rows_scanned, new_out.rows_scanned,
            "{}: order-aware rewrites must not change scan work",
            spec.id
        );
        let speedup = base_out.median.as_secs_f64() / new_out.median.as_secs_f64().max(1e-12);
        println!(
            "{:<18} {:>13.3} {:>13.3} {:>8.2}x {:>9} {:>8} {:>8} {:>9}",
            spec.id,
            base_out.median.as_secs_f64() * 1e3,
            new_out.median.as_secs_f64() * 1e3,
            speedup,
            new_out.merge_left_joins,
            new_out.sorted_distincts,
            new_out.sorted_groups,
            new_out.rows
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"id\": \"{}_vs_pr6\",", spec.id);
        let _ = writeln!(
            json,
            "      \"kind\": \"rewrite ablation: {} with merge left joins/sorted distinct/sorted group-by off vs on\",",
            spec.id
        );
        let _ = writeln!(
            json,
            "      \"pr6_baseline_ms\": {:.3},",
            base_out.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"columnar_ms\": {:.3},",
            new_out.median.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"speedup_vs_pr6_baseline\": {speedup:.3},");
        let _ = writeln!(
            json,
            "      \"merge_left_joins\": {},",
            new_out.merge_left_joins
        );
        let _ = writeln!(
            json,
            "      \"sorted_distincts\": {},",
            new_out.sorted_distincts
        );
        let _ = writeln!(json, "      \"sorted_groups\": {},", new_out.sorted_groups);
        let _ = writeln!(
            json,
            "      \"allocations\": {{ \"pr6_baseline\": {}, \"columnar\": {} }},",
            base_out.allocs, new_out.allocs
        );
        let _ = writeln!(json, "      \"rows\": {}", new_out.rows);
        let _ = writeln!(json, "    }},");
    }

    // Ordering case: same engine (columnar), optimizer on vs off.
    let unoptimized = Engine::with_config(
        Arc::clone(&dataset),
        EngineConfig {
            optimize: false,
            eval_mode: EvalMode::Columnar,
            ..EngineConfig::new()
        },
    );
    let mis = misordered_query();
    let ordered_out = run(&columnar, &mis.sparql);
    let textual_out = run(&unoptimized, &mis.sparql);
    assert_eq!(ordered_out.rows, textual_out.rows);
    let speedup = textual_out.median.as_secs_f64() / ordered_out.median.as_secs_f64().max(1e-12);
    println!(
        "{:<16} {:>13.3} {:>13.3} {:>7.2}x {:>12} {:>8}  (optimizer off vs on, columnar)",
        mis.id,
        textual_out.median.as_secs_f64() * 1e3,
        ordered_out.median.as_secs_f64() * 1e3,
        speedup,
        ordered_out.rows_scanned,
        ordered_out.rows
    );
    let _ = writeln!(json, "    {{");
    let _ = writeln!(json, "      \"id\": \"{}\",", mis.id);
    let _ = writeln!(json, "      \"kind\": \"{}\",", mis.kind);
    let _ = writeln!(
        json,
        "      \"textual_order_ms\": {:.3},",
        textual_out.median.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "      \"selectivity_ordered_ms\": {:.3},",
        ordered_out.median.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "      \"speedup_from_ordering\": {speedup:.3},");
    let _ = writeln!(
        json,
        "      \"rows_scanned_ordered\": {},",
        ordered_out.rows_scanned
    );
    let _ = writeln!(
        json,
        "      \"rows_scanned_textual\": {},",
        textual_out.rows_scanned
    );
    let _ = writeln!(json, "      \"rows\": {}", ordered_out.rows);
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  ],");
    fresh.push((mis.id.to_string(), ordered_out.median.as_secs_f64() * 1e3));

    // Budget-governor overhead: `bgp_heavy` with generous limits armed on
    // every axis (so the meter runs but never trips) against the plain
    // engine. The governor's contract is that an armed-but-unhit budget is
    // invisible: same rows, same `rows_scanned`, and a median wall-clock
    // regression under 2%.
    let budgeted = Engine::with_config(
        Arc::clone(&dataset),
        EngineConfig {
            optimize: true,
            eval_mode: EvalMode::Columnar,
            budget: QueryBudget::unlimited()
                .with_max_rows_scanned(u64::MAX / 2)
                .with_max_intermediate_rows(u64::MAX / 2)
                .with_max_memory_bytes(u64::MAX / 2)
                .with_deadline(Duration::from_secs(3600)),
            ..EngineConfig::new()
        },
    );
    let heavy = specs
        .iter()
        .find(|s| s.id == "bgp_heavy")
        .expect("bgp_heavy spec");
    let off_out = run(&columnar, &heavy.sparql);
    let on_out = run(&budgeted, &heavy.sparql);
    assert_eq!(off_out.rows, on_out.rows, "budget meter changed the result");
    assert_eq!(
        off_out.rows_scanned, on_out.rows_scanned,
        "budget meter changed the work metric"
    );
    let overhead_pct =
        (on_out.median.as_secs_f64() / off_out.median.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    println!(
        "\n{:<18} {:>13} {:>13} {:>9}  (columnar bgp_heavy: budgets off vs armed-but-unhit)",
        "budget_overhead", "off (ms)", "armed (ms)", "overhead"
    );
    println!(
        "{:<18} {:>13.3} {:>13.3} {:>8.2}%",
        "bgp_heavy",
        off_out.median.as_secs_f64() * 1e3,
        on_out.median.as_secs_f64() * 1e3,
        overhead_pct
    );
    let _ = writeln!(json, "  \"budget_overhead\": {{");
    let _ = writeln!(json, "    \"id\": \"budget_overhead\",");
    let _ = writeln!(
        json,
        "    \"kind\": \"bgp_heavy on columnar: budgets off vs armed on all four axes but never hit\","
    );
    let _ = writeln!(
        json,
        "    \"budgets_off_ms\": {:.3},",
        off_out.median.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"budgets_armed_ms\": {:.3},",
        on_out.median.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "    \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(
        json,
        "    \"allocations\": {{ \"off\": {}, \"armed\": {} }},",
        off_out.allocs, on_out.allocs
    );
    let _ = writeln!(json, "    \"rows\": {}", on_out.rows);
    let _ = writeln!(json, "  }},");

    // Durability: cold-start cost of the three ways to get this dataset
    // back into memory — binary snapshot decode, N-Triples re-parse +
    // rebuild, and full Store recovery (snapshot load + WAL replay) — plus
    // encode cost and at-rest sizes. The acceptance bar is the snapshot
    // beating the N-Triples re-parse by ≥5× at the paper scale.
    let snapshot_encode = median_of(PERSIST_RUNS, || format::encode_dataset(&dataset));
    let snapshot = format::encode_dataset(&dataset);
    let nt_docs: Vec<(String, String)> = dataset
        .graph_uris()
        .map(|uri| {
            let g = dataset.graph(uri).expect("graph");
            (uri.to_string(), ntriples::write_document(g.iter_triples()))
        })
        .collect();
    let nt_bytes: usize = nt_docs.iter().map(|(_, d)| d.len()).sum();

    let snapshot_load = median_of(PERSIST_RUNS, || {
        let ds = format::decode_dataset(&snapshot).expect("snapshot decode");
        assert_eq!(ds.total_triples(), dataset.total_triples());
        ds
    });
    let ntriples_reload = median_of(PERSIST_RUNS, || {
        let mut ds = Dataset::new();
        for (uri, doc) in &nt_docs {
            let triples = ntriples::parse_document(doc).expect("re-parse");
            let mut g = Graph::new();
            for t in &triples {
                g.insert(t);
            }
            ds.insert_graph(uri.clone(), g);
        }
        assert_eq!(ds.total_triples(), dataset.total_triples());
        ds
    });

    // A realistic crash image: checkpointed snapshot plus a WAL tail of
    // append batches that recovery has to replay on top of it.
    let wal_batches = 8usize;
    let batch = 512usize;
    let vfs = Arc::new(MemVfs::new());
    let mut store = Store::open(Arc::clone(&vfs) as Arc<dyn Vfs>).expect("store open");
    for uri in dataset.graph_uris() {
        store
            .insert_graph(uri, dataset.graph(uri).expect("graph"))
            .expect("insert_graph");
    }
    store.checkpoint().expect("checkpoint");
    let wal_uri = dataset.graph_uris().next().expect("graph uri").to_string();
    let mut fresh_id = 0usize;
    for _ in 0..wal_batches {
        let triples: Vec<Triple> = (0..batch)
            .map(|_| {
                fresh_id += 1;
                Triple::new(
                    Term::iri(format!("http://persist.bench/s{fresh_id}")),
                    Term::iri("http://persist.bench/p"),
                    Term::integer(fresh_id as i64),
                )
            })
            .collect();
        store.append_triples(&wal_uri, triples).expect("append");
    }
    let image_gen = store.dataset().stats_generation();
    let wal_bytes = store.wal_len();
    let images: Vec<Arc<MemVfs>> = (0..PERSIST_RUNS)
        .map(|_| Arc::new(MemVfs::reopen_from(&vfs)))
        .collect();
    let mut image_idx = 0usize;
    let recovery = median_of(PERSIST_RUNS, || {
        let image = Arc::clone(&images[image_idx]);
        image_idx += 1;
        let recovered = Store::open(image as Arc<dyn Vfs>).expect("recovery");
        assert_eq!(recovered.dataset().stats_generation(), image_gen);
        assert_eq!(recovered.recovery().replayed, wal_batches);
        recovered
    });

    let snapshot_speedup = ntriples_reload.as_secs_f64() / snapshot_load.as_secs_f64().max(1e-12);
    println!(
        "\n{:<18} {:>13} {:>13} {:>13} {:>9}  (cold start at scale {scale})",
        "persistence", "snapshot (ms)", "ntriples (ms)", "recovery (ms)", "speedup"
    );
    println!(
        "{:<18} {:>13.3} {:>13.3} {:>13.3} {:>8.2}x",
        "cold_start",
        snapshot_load.as_secs_f64() * 1e3,
        ntriples_reload.as_secs_f64() * 1e3,
        recovery.as_secs_f64() * 1e3,
        snapshot_speedup
    );
    println!(
        "{:<18} snapshot {} B | ntriples {} B | wal {} B | encode {:.3} ms",
        "",
        snapshot.len(),
        nt_bytes,
        wal_bytes,
        snapshot_encode.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "  \"persistence\": {{");
    let _ = writeln!(json, "    \"id\": \"persistence_cold_start\",");
    let _ = writeln!(
        json,
        "    \"kind\": \"cold start: binary snapshot decode vs N-Triples re-parse vs Store recovery (snapshot + {wal_batches} WAL batches of {batch})\","
    );
    let _ = writeln!(json, "    \"snapshot_bytes\": {},", snapshot.len());
    let _ = writeln!(json, "    \"ntriples_bytes\": {nt_bytes},");
    let _ = writeln!(json, "    \"wal_bytes\": {wal_bytes},");
    let _ = writeln!(
        json,
        "    \"snapshot_encode_ms\": {:.3},",
        snapshot_encode.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"snapshot_load_ms\": {:.3},",
        snapshot_load.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"ntriples_reload_ms\": {:.3},",
        ntriples_reload.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"recovery_ms\": {:.3},",
        recovery.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "    \"wal_records_replayed\": {wal_batches},");
    let _ = writeln!(
        json,
        "    \"snapshot_speedup_vs_ntriples\": {snapshot_speedup:.3}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if args.compare {
        if previous.is_empty() {
            eprintln!("\n--compare: no previous BENCH_eval.json to diff against");
        } else {
            print_comparison(&previous, &fresh);
        }
    }

    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    eprintln!("\nwrote BENCH_eval.json");
}
