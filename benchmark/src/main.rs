//! The repo's one benchmark: six workloads over the paper's frames, frame →
//! DataFrame time and peak heap end to end, every layer timed from outside.
//! See README.md beside this package for the glossary and how to run it.

mod alloc;
mod check;
mod frames;
mod inputs;
mod metrics;
mod replay;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rdf_model::Dataset;

use alloc::{mib, ALLOC};
use check::{gate, PINNED_TRIPLES};
use inputs::DEFAULT_SCALE;
use metrics::{Report, Values, END_TO_END, PER_LAYER};
use replay::Counters;
use serve::{Mixed, Persist, Served};
use stats::{median, median_of_round_medians, median_or_zero, min, percentile, round_spread_pct};
use trace::{self_ns_per_op, self_times_ns, Trace};
use workloads::{
    closed_loop, heap_pass, run_op, timed_op, verify, Kind, Samples, Workload, WORKLOADS,
};

/// Timed set-ups per run (setup_s is their median); one more, untimed and
/// with the allocator counting, builds the inputs the run then uses.
const SETUP_REPEATS: usize = 3;
/// Ops in the heap pass (fewer if they outlast a third of `--seconds`).
const HEAP_OPS: usize = 3;

struct Opts {
    workloads: Vec<&'static Workload>,
    scale: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

impl Opts {
    /// Wall time of the timed phase and, if it runs, of the traced pass.
    /// A traced run splits `--seconds` between the two; `--selfcheck`
    /// needs both the full timed phase and the traced pass's counts.
    fn phases(&self) -> (f64, Option<f64>) {
        if self.selfcheck {
            (self.seconds, Some(self.seconds / 2.0))
        } else if self.trace {
            (self.seconds / 2.0, Some(self.seconds / 2.0))
        } else {
            (self.seconds, None)
        }
    }
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--scale N] [--selfcheck]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: WORKLOADS.iter().collect(),
        scale: DEFAULT_SCALE,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        if flag == "--selfcheck" {
            opts.selfcheck = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?;
                opts.workloads = vec![w];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--scale" => opts.scale = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// The inputs a run works on.
enum Env {
    Data(Arc<Dataset>),
    Served(Box<Served>),
}

/// What one set-up measured about its own stages.
#[derive(Clone, Copy)]
struct Timings {
    generate_s: f64,
    insert_graph_s: f64,
    persist: Persist,
}

struct SetUp {
    env: Env,
    timings: Timings,
    /// Bytes the loaded dataset (or recovered server) holds live.
    dataset_heap: Option<isize>,
}

/// One complete set-up: generate the graphs from the seed, load them, build
/// the endpoint or server, run the first op.
fn set_up(w: &Workload, opts: &Opts, measure_heap: bool) -> Result<SetUp, String> {
    if w.kind == Kind::Serve {
        let graphs = inputs::generate(opts.scale, opts.seed);
        let generate_s = graphs.generate_s;
        let (served, dataset_heap) = serve::open(graphs, opts.seed, measure_heap)?;
        serve::read_op(&served.server, w.frames)?;
        return Ok(SetUp {
            timings: Timings {
                generate_s,
                insert_graph_s: 0.0,
                persist: served.persist,
            },
            env: Env::Served(Box::new(served)),
            dataset_heap,
        });
    }
    if measure_heap {
        ALLOC.arm();
    }
    let graphs = inputs::generate(opts.scale, opts.seed);
    let generate_s = graphs.generate_s;
    let (dataset, insert_graph_s) = inputs::load(graphs);
    let dataset = Arc::new(dataset);
    // The first op also fills what the dataset caches lazily (term ranks),
    // which is then part of its live heap.
    let first = run_op(w.kind, &dataset, w.frames).map_err(|e| e.to_string());
    drop(first?);
    let dataset_heap = measure_heap.then(|| {
        let live = ALLOC.live();
        ALLOC.disarm();
        live
    });
    Ok(SetUp {
        env: Env::Data(dataset),
        timings: Timings {
            generate_s,
            insert_graph_s,
            persist: Persist::default(),
        },
        dataset_heap,
    })
}

fn env_dataset(env: &Env) -> Arc<Dataset> {
    match env {
        Env::Data(dataset) => Arc::clone(dataset),
        Env::Served(served) => Arc::clone(served.server.snapshot().dataset()),
    }
}

/// Run one workload: set-ups, correctness gate, timed phase, heap pass and
/// — in a traced run or `--selfcheck` — the traced pass. `Err` means the run never got to
/// measure (set-up or the gate failed).
fn run_workload(w: &'static Workload, opts: &Opts) -> Result<Report, Vec<String>> {
    let mut values = Values::default();
    let mut setup_s = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let done = set_up(w, opts, false).map_err(|e| vec![e])?;
        setup_s.push(start.elapsed().as_secs_f64());
        // Only the measurements are kept; the inputs are dropped here,
        // outside the timed span.
        setups.push(done.timings);
    }
    let SetUp {
        mut env,
        dataset_heap,
        ..
    } = set_up(w, opts, true).map_err(|e| vec![e])?;
    let dataset = env_dataset(&env);
    let triples: usize = [frames::DBPEDIA, frames::DBLP, frames::YAGO]
        .iter()
        .filter_map(|uri| dataset.graph(uri))
        .map(|g| g.len())
        .sum();
    let dataset_heap = dataset_heap.expect("measured");
    values.set("setup_s", median(&setup_s));
    values.set("dataset_heap_mb", mib(dataset_heap));

    let expected = gate(
        w.frames,
        &dataset,
        opts.scale,
        opts.seed,
        |def| match &env {
            Env::Data(dataset) => run_op(w.kind, dataset, std::slice::from_ref(def))
                .map(|mut r| r.remove(0))
                .map_err(|e| e.to_string()),
            Env::Served(served) => served
                .server
                .execute(&(def.build)())
                .map_err(|e| e.to_string()),
        },
    )?;
    if opts.scale == DEFAULT_SCALE && triples != PINNED_TRIPLES {
        return Err(vec![format!(
            "dataset has {triples} triples, pinned {PINNED_TRIPLES}: the inputs changed"
        )]);
    }
    drop(dataset);

    // Timed phase: allocator counters and spans off.
    let (timed_seconds, traced_seconds) = opts.phases();
    let mut mixed = None;
    let before = served_stats(&env);
    let timed = match &mut env {
        Env::Data(dataset) => closed_loop(timed_seconds, 3, || {
            timed_op(w.kind, dataset, &expected, w.frames)
        }),
        Env::Served(served) => {
            let mut out = served.mixed(timed_seconds, &expected, None);
            let mut reads = std::mem::take(&mut out.reads);
            reads.failures.append(&mut out.failures);
            mixed = Some(out);
            reads
        }
    };
    let after = served_stats(&env);
    let op_ms = timed.all();
    if op_ms.is_empty() {
        let mut failures = timed.failures;
        failures.push("no op of the timed phase succeeded".into());
        return Err(failures);
    }
    let op_ms_min = min(&op_ms);
    values.set("op_ms_min", op_ms_min);

    // Heap pass: the same op with the allocator counting.
    let (heap, heap_counts) = heap_pass(HEAP_OPS, opts.seconds / 3.0, || match &env {
        Env::Data(dataset) => {
            let results = run_op(w.kind, dataset, w.frames).map_err(|e| e.to_string())?;
            verify(&results, &expected)?;
            Ok(results)
        }
        Env::Served(served) => {
            let results = serve::read_op(&served.server, w.frames)?;
            served.verify_quiescent(&results, &expected)?;
            Ok(results)
        }
    });
    if heap.peak_mb.is_empty() {
        let mut failures = heap_counts.failures;
        failures.push("no op of the heap pass succeeded".into());
        return Err(failures);
    }
    values.set("peak_heap_mb", median(&heap.peak_mb));

    let mut traced = Samples::default();
    if let Some(traced_seconds) = traced_seconds {
        values.set("client.op_ms_p50", median_of_round_medians(&timed.rounds));
        values.set("client.op_ms_p25", percentile(&op_ms, 25.0));
        values.set("client.op_ms_p75", percentile(&op_ms, 75.0));
        values.set("client.op_ms_p90", percentile(&op_ms, 90.0));
        values.set("client.round_spread_pct", round_spread_pct(&timed.rounds));
        values.set("dataframe.result_mb", median(&heap.result_mb));
        values.set("dataset.triples", triples as f64);
        values.set(
            "dataset.heap_bytes_per_triple",
            dataset_heap as f64 / triples as f64,
        );
        let column =
            |f: fn(&Timings) -> f64| -> f64 { median(&setups.iter().map(f).collect::<Vec<_>>()) };
        values.set("datagen.generate_s", column(|s| s.generate_s));
        values.set("dataset.insert_graph_s", column(|s| s.insert_graph_s));
        if let (Some(mixed), Some((before, after))) = (&mixed, before.zip(after)) {
            values.set(
                "persist.initial_commit_s",
                column(|s| s.persist.initial_commit_s),
            );
            values.set(
                "persist.checkpoint_ms_p50",
                column(|s| s.persist.checkpoint_ms),
            );
            values.set("persist.open_s", column(|s| s.persist.open_s));
            let snapshot_bytes = column(|s| s.persist.snapshot_bytes);
            values.set("persist.snapshot_bytes", snapshot_bytes);
            values.set("persist.bytes_per_triple", snapshot_bytes / triples as f64);
            values.set(
                "persist.wal_bytes_per_update",
                column(|s| s.persist.wal_bytes_per_update),
            );
            serving_values(&mut values, mixed, &before, &after);
        }

        let mut trace = Trace::new();
        let mut counters = Counters::new();
        traced = match &mut env {
            Env::Data(dataset) => closed_loop(traced_seconds, 3, || {
                let replay = match w.kind {
                    Kind::Embedded => replay::embedded_op,
                    _ => replay::wire_op,
                };
                replay(&mut trace, &mut counters, dataset, &expected).map(|()| 0.0)
            }),
            Env::Served(served) => {
                let mut out = served.mixed(traced_seconds, &expected, Some(&mut trace));
                out.reads.failures.append(&mut out.failures);
                out.reads
            }
        };
        layer_values(&mut values, w.kind, &trace, &counters, op_ms_min);
        if let Err(e) = write_trace(w.name, &trace) {
            eprintln!("warning: trace for {} not written: {e}", w.name);
        }
    }

    let mut counts = Samples::default();
    counts.absorb_counts(timed);
    counts.absorb_counts(heap_counts);
    counts.absorb_counts(traced);
    let failed = counts.failures.len() as u64;
    if traced_seconds.is_some() {
        values.set(
            "client.failed_share",
            failed as f64 / counts.attempted as f64,
        );
    }
    Ok(Report {
        workload: w.name,
        attempted: counts.attempted,
        failed,
        failures: counts.failures,
        values,
        traced: traced_seconds.is_some(),
    })
}

fn served_stats(env: &Env) -> Option<rdfframes_core::ServerStats> {
    match env {
        Env::Data(_) => None,
        Env::Served(served) => Some(served.server.stats()),
    }
}

/// The serving and persistence counters of `serve_mixed`'s timed phase.
fn serving_values(
    values: &mut Values,
    mixed: &Mixed,
    before: &rdfframes_core::ServerStats,
    after: &rdfframes_core::ServerStats,
) {
    let latency: Vec<f64> = mixed.publishes.iter().map(|p| p.latency_ms()).collect();
    let checkpointing: Vec<f64> = mixed
        .publishes
        .iter()
        .filter(|p| p.checkpointed)
        .map(|p| p.latency_ms())
        .collect();
    let late: Vec<f64> = mixed.publishes.iter().map(|p| p.late_ms()).collect();
    values.set("serving.publish_ms_p50", median_or_zero(&latency));
    values.set("serving.publish_ms_p90", percentile(&latency, 90.0));
    values.set(
        "serving.ckpt_publish_ms_p50",
        median_or_zero(&checkpointing),
    );
    values.set("serving.publish_late_ms_p50", median_or_zero(&late));
    values.set(
        "serving.read_steady_ms_p50",
        median_or_zero(&mixed.steady_ms),
    );
    values.set(
        "serving.read_after_publish_ms_p50",
        median_or_zero(&mixed.after_publish_ms),
    );
    let delta = |f: fn(&rdfframes_core::ServerStats) -> u64| (f(after) - f(before)) as f64;
    values.set("serving.epochs_published", delta(|s| s.epochs_published));
    values.set("serving.admitted", delta(|s| s.admitted));
    values.set("serving.shed", delta(|s| s.shed));
    values.set("persist.wal_commits", delta(|s| s.wal_commits));
    values.set("persist.checkpoints", delta(|s| s.checkpoints));
}

/// Span name → metric name and the factor from nanoseconds to its unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("api.record", "api.record_us", 1e-3),
    ("generator.build", "generator.build_us", 1e-3),
    ("render.render", "render.render_us", 1e-3),
    ("compile.compile", "compile.compile_us", 1e-3),
    ("parser.parse", "parser.parse_us", 1e-3),
    ("algebra.translate", "algebra.translate_us", 1e-3),
    ("optimizer.prepare", "optimizer.prepare_us", 1e-3),
    ("pipeline.build", "pipeline.build_us", 1e-3),
    ("pipeline.drain", "pipeline.drain_ms", 1e-6),
    ("eval.execute_page", "eval.execute_page_ms", 1e-6),
    ("xml.encode", "xml.encode_ms", 1e-6),
    ("xml.decode", "xml.decode_ms", 1e-6),
    ("convert.to_dataframe", "convert.to_dataframe_ms", 1e-6),
    ("convert.append_table", "convert.append_table_ms", 1e-6),
    ("dataframe.scan", "dataframe.scan_ms", 1e-6),
    ("serving.snapshot", "serving.snapshot_us", 1e-3),
];

/// Counters reported under their own name, as measured.
const COUNTER_METRICS: &[&str] = &[
    "render.sparql_bytes",
    "pipeline.rows_scanned",
    "pipeline.rows_out",
    "pipeline.batches",
    "pipeline.merge_joins",
    "pipeline.merge_left_joins",
    "pipeline.sorted_distincts",
    "pipeline.sorted_groups",
    "eval.pages",
    "eval.rows_scanned",
    "xml.bytes",
];

/// Turn the traced pass's spans and counters into per-layer metrics: each
/// span metric is the minimum over ops of the layer's summed self time in
/// an op, the estimator `op_ms_min` uses; counts are medians over ops.
fn layer_values(
    values: &mut Values,
    kind: Kind,
    trace: &Trace,
    counters: &Counters,
    op_ms_min: f64,
) {
    let spans = trace.spans();
    let own_ns = self_times_ns(spans);
    for &(span, metric, scale) in SPAN_METRICS {
        let per_op = self_ns_per_op(spans, &own_ns, span);
        if !per_op.is_empty() {
            values.set(metric, min(&per_op) * scale);
        }
    }
    let counter = |name: &str| counters.get(name).map(|v| median(v));
    for &name in COUNTER_METRICS {
        if let Some(v) = counter(name) {
            values.set(name, v);
        }
    }
    if let Some(bytes) = counter("pipeline.peak_live_bytes") {
        values.set("pipeline.peak_live_mb", mib(bytes as isize));
    }
    let ratio = |values: &mut Values, metric, top: Option<f64>, bottom: Option<f64>| {
        if let (Some(top), Some(bottom)) = (top, bottom) {
            if bottom > 0.0 {
                values.set(metric, top / bottom);
            }
        }
    };
    ratio(
        values,
        "pipeline.scans_per_row",
        counter("pipeline.rows_scanned"),
        counter("pipeline.rows_out"),
    );
    ratio(
        values,
        "eval.rescan_ratio",
        counter("eval.rows_scanned"),
        counter("eval.unpaged_rows_scanned"),
    );
    ratio(
        values,
        "xml.bytes_per_row",
        counter("xml.bytes"),
        counter("xml.rows"),
    );
    if let (Some(to_df), Some(drain)) = (
        values.get("convert.to_dataframe_ms"),
        values.get("pipeline.drain_ms"),
    ) {
        let decode = to_df - drain;
        values.set("convert.decode_assemble_ms", decode);
        ratio(
            values,
            "convert.ns_per_cell",
            Some(decode * 1e6),
            counter("convert.cells"),
        );
    }

    // The replayed op against the real one.
    let totals: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect();
    let own = self_ns_per_op(spans, &own_ns, "op");
    if totals.is_empty() {
        return;
    }
    let traced_op_ms = min(&totals);
    let stages_ms = traced_op_ms - min(&own) * 1e-6;
    // What a real op spends outside the stages the replay names: endpoint
    // construction, plan-cache locks, statistics, the pagination loop.
    let outside_ms = op_ms_min - stages_ms;
    match kind {
        Kind::Wire => values.set("exec.overhead_ms", outside_ms),
        Kind::Embedded | Kind::Serve => values.set("client.overhead_us", outside_ms * 1e3),
    }
    values.set(
        "client.trace_overhead_pct",
        (traced_op_ms - op_ms_min) / op_ms_min * 100.0,
    );
}

/// Write the span log next to the executable (inside the build directory).
fn write_trace(workload: &str, trace: &Trace) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().expect("executable has a directory");
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace.to_json())?;
    eprintln!("trace: {} ({} ops)", path.display(), trace.ops());
    Ok(())
}

/// `--selfcheck`: two complete, independent sets of runs of the same code
/// on the same seed, compared metric by metric against the bounds.
fn selfcheck(opts: &Opts) -> bool {
    let mut all_pass = true;
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in &opts.workloads {
        let runs: Vec<Report> = (0..2)
            .filter_map(|_| match run_workload(w, opts) {
                Ok(r) => Some(r),
                Err(failures) => {
                    report_failures(w.name, &failures);
                    None
                }
            })
            .collect();
        let [a, b] = runs.as_slice() else {
            all_pass = false;
            continue;
        };
        for r in [a, b] {
            if r.failed > 0 {
                report_failures(w.name, &r.failures);
                all_pass = false;
            }
        }
        for def in END_TO_END
            .iter()
            .chain(PER_LAYER.iter().filter(|d| d.exact))
        {
            let (x, y) = (
                a.values.get(def.name).unwrap_or(0.0),
                b.values.get(def.name).unwrap_or(0.0),
            );
            let gap = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().min(y.abs())
            };
            let bound = if def.exact { 0.0 } else { bound_of(def.name) };
            let pass = gap <= bound;
            all_pass &= pass;
            println!(
                "{:<16} {:<36} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}%  {}",
                w.name,
                def.name,
                x,
                y,
                gap * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    all_pass
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(name: &str) -> f64 {
    match name {
        "setup_s" => 0.25,
        "op_ms_min" => 0.25,
        "peak_heap_mb" => 0.02,
        "dataset_heap_mb" => 0.01,
        _ => unreachable!("{name} is not an end-to-end metric"),
    }
}

fn report_failures(workload: &str, failures: &[String]) {
    for f in failures.iter().take(20) {
        eprintln!("FAILED {workload}: {f}");
    }
    if failures.len() > 20 {
        eprintln!("FAILED {workload}: … and {} more", failures.len() - 20);
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The engine and endpoints run on their defaults; these variables would
    // silently change what is measured.
    for var in ["RDFFRAMES_THREADS", "RDFFRAMES_BATCH_ROWS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("{var} is set: unset it, the benchmark measures the default configuration");
            return ExitCode::from(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "benchmark: scale {} seed {} seconds {} trace {} nproc {nproc}",
        opts.scale, opts.seed, opts.seconds, opts.trace
    );
    if opts.selfcheck {
        return if selfcheck(&opts) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut ok = true;
    for w in &opts.workloads {
        match run_workload(w, &opts) {
            Ok(report) => {
                report_failures(w.name, &report.failures);
                ok &= report.failed == 0;
                print!("{}", report.table());
                println!("{}", report.json_line());
            }
            Err(failures) => {
                report_failures(w.name, &failures);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: &'static Workload, seed: u64) -> Report {
        let opts = Opts {
            workloads: vec![w],
            scale: 64,
            seed,
            seconds: 0.3,
            trace: true,
            // Both the end-to-end and the per-layer values in one run.
            selfcheck: true,
        };
        run_workload(w, &opts).unwrap_or_else(|f| panic!("{}: {f:?}", w.name))
    }

    fn exact_counts(r: &Report) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .map(|d| (d.name, r.values.get(d.name).unwrap_or(0.0)))
            .collect()
    }

    /// All six workloads at scale 64: every metric is reported once with a
    /// unit, nothing fails on either seed, and the exact counts repeat.
    #[test]
    fn smoke_reports_every_metric_and_counts_repeat_for_a_seed() {
        for w in WORKLOADS {
            let first = smoke(w, 1);
            let again = smoke(w, 1);
            let other = smoke(w, 2);
            for r in [&first, &again, &other] {
                assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.failures);
                assert!(r.attempted >= 3 + 1 + 3, "{}", w.name);
                assert_eq!(r.values.get("client.failed_share"), Some(0.0));
                for def in END_TO_END {
                    let v = r.values.get(def.name);
                    assert!(
                        v.is_some_and(|v| v > 0.0),
                        "{} {} = {v:?}",
                        w.name,
                        def.name
                    );
                }
            }
            assert_eq!(exact_counts(&first), exact_counts(&again), "{}", w.name);

            let line = first.json_line();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n') && !line.contains("NaN") && !line.contains("inf"));
            for def in PER_LAYER {
                let key = format!("\"{}\": {{\"value\": ", def.name);
                assert_eq!(line.matches(&key).count(), 1, "{} {}", w.name, def.name);
                assert!(!def.unit.is_empty());
            }
            let table = first.table();
            assert_eq!(table.lines().count(), PER_LAYER.len());
        }
    }

    /// The values of `key` in `section` of BENCHMARK.json, in order. The
    /// file is flat enough that scanning for `"key": ` is exact.
    fn fields(section: &str, key: &str) -> Vec<String> {
        let pattern = format!("\"{key}\": ");
        section
            .match_indices(&pattern)
            .map(|(at, _)| {
                let rest = &section[at + pattern.len()..];
                let end = rest.find([',', '}', '\n']).expect("value ends");
                rest[..end].trim().trim_matches('"').to_string()
            })
            .collect()
    }

    /// BENCHMARK.json and the catalogue in this package name the same
    /// workloads, metrics, units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let at = |key: &str| text.find(&format!("\"{key}\": [")).expect(key);
        let (w, e, l) = (at("workloads"), at("end_to_end"), at("per_layer"));
        assert!(w < e && e < l, "sections in the order this test scans them");
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(fields(&text[w..e], "name"), names);
        assert!(fields(&text[w..e], "why").iter().all(|why| !why.is_empty()));
        for (section, defs) in [(&text[e..l], END_TO_END), (&text[l..], PER_LAYER)] {
            let names: Vec<_> = defs.iter().map(|d| d.name).collect();
            let units: Vec<_> = defs.iter().map(|d| d.unit).collect();
            let better: Vec<_> = defs
                .iter()
                .map(|d| if d.lower { "lower" } else { "higher" })
                .collect();
            assert_eq!(fields(section, "name"), names);
            assert_eq!(fields(section, "unit"), units);
            assert_eq!(fields(section, "better"), better);
        }
        let bounds: Vec<f64> = END_TO_END.iter().map(|d| bound_of(d.name)).collect();
        let listed: Vec<f64> = fields(&text[e..l], "bound")
            .iter()
            .map(|b| b.parse().expect("bound is a number"))
            .collect();
        assert_eq!(listed, bounds);
        assert!(
            fields(&text[l..], "bound").is_empty(),
            "per-layer metrics have no bound"
        );
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let args = "--workload q9_embedded --seed 7 --seconds 10 --trace 1";
        let opts = parse_args(args.split(' ').map(String::from)).unwrap();
        assert_eq!(opts.workloads.len(), 1);
        assert_eq!(opts.workloads[0].name, "q9_embedded");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 10.0, true));
        assert_eq!(opts.phases(), (5.0, Some(5.0)));
        let all = parse_args(std::iter::empty()).unwrap();
        assert_eq!(all.workloads.len(), WORKLOADS.len());
        assert_eq!(all.phases(), (10.0, None));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--what 1",
        ] {
            assert!(
                parse_args(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }
}
