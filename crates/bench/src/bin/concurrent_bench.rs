//! Concurrent-serving benchmark.
//!
//! Two experiments over one synthetic dataset:
//!
//! 1. **Concurrent serving** — a [`SnapshotServer`] serves 1/2/4/8 reader
//!    threads executing a one-hop RDFFrames query while a writer loops
//!    `update()` (append one triple → publish a new epoch). Reported:
//!    aggregate queries/s, per-query p50/p99 latency, and epochs published
//!    during the window — readers never block on the writer beyond the
//!    epoch pointer swap.
//!
//! 2. **Durability tax** — the same readers-vs-writer race, with the
//!    writer's publications running durability off (plain
//!    [`SnapshotServer`]), WAL-commit-per-update, and WAL-per-update with
//!    threshold-coalesced checkpoints ([`DurableSnapshotServer`] over a
//!    `MemVfs`). Reported per mode: publish p50/p99, epochs, reader
//!    qps/p99, and the store's commit/checkpoint counters. The backing
//!    store is in-memory, so the tax measured is WAL serialization and
//!    checkpoint copying — real `fsync` cost comes on top of this floor.
//!
//! Results go to `BENCH_concurrent.json`.
//!
//! Usage: `cargo run --release -p bench --bin concurrent_bench [--scale N]`

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::data;
use rdf_model::persist::{MemVfs, Vfs};
use rdf_model::{Term, Triple};
use rdfframes_core::{DurableSnapshotServer, ServingConfig, SnapshotServer};

/// Reader thread counts swept in the concurrent-serving experiment.
const READERS: [usize; 4] = [1, 2, 4, 8];
/// Measurement window per reader count.
const SERVE_WINDOW: Duration = Duration::from_millis(600);

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
                    panic!("unknown argument {other} (usage: concurrent_bench [--scale N] [N])");
                }
            }
        }
    }
    scale
}

/// Percentile (nearest-rank) of a sorted latency sample.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

struct ServeOutcome {
    queries: u64,
    qps: f64,
    p50: Duration,
    p99: Duration,
    epochs: u64,
    final_rows: usize,
}

/// Run `n_readers` query loops against a fresh [`SnapshotServer`] while one
/// writer publishes append epochs as fast as it can.
fn serve(scale: usize, n_readers: usize) -> ServeOutcome {
    let server = Arc::new(SnapshotServer::new(data::build_dataset(scale)));
    // One-hop feature extraction: enough work to be a real query, cheap
    // enough that the window collects a meaningful latency sample.
    let frame = data::dbpedia_graph().feature_domain_range("dbpp:starring", "movie", "actor");
    let epochs_before = server.epochs_published();
    let stop = AtomicBool::new(false);
    let (latencies, writer_updates) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..n_readers {
            readers.push(scope.spawn(|| {
                let mut lat = Vec::new();
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = server.snapshot();
                    // Epochs observed by one reader never go backwards.
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch();
                    let start = Instant::now();
                    let df = frame.execute(snap.embedded()).expect("reader query failed");
                    lat.push(start.elapsed());
                    assert!(!df.is_empty(), "reader saw an empty result");
                }
                lat
            }));
        }
        let writer = scope.spawn(|| {
            let mut published = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let n = published;
                server
                    .update(|ds| {
                        ds.append_triples(
                            data::uris::DBPEDIA,
                            [Triple::new(
                                Term::iri(format!("http://dbpedia.org/resource/NewMovie{n}")),
                                Term::iri("http://dbpedia.org/property/starring"),
                                Term::iri(format!("http://dbpedia.org/resource/NewActor{n}")),
                            )],
                        );
                    })
                    .expect("publish failed");
                published += 1;
            }
            published
        });
        std::thread::sleep(SERVE_WINDOW);
        stop.store(true, Ordering::Relaxed);
        let mut lat: Vec<Duration> = Vec::new();
        for r in readers {
            lat.extend(r.join().expect("reader panicked"));
        }
        (lat, writer.join().expect("writer panicked"))
    });
    let mut sorted = latencies;
    sorted.sort();
    let queries = sorted.len() as u64;
    // Every published append added exactly one row to the reader query.
    let final_snap = server.snapshot();
    let final_rows = frame
        .execute(final_snap.embedded())
        .expect("final query failed")
        .len();
    let out = ServeOutcome {
        queries,
        qps: queries as f64 / SERVE_WINDOW.as_secs_f64(),
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
        epochs: server.epochs_published() - epochs_before,
        final_rows,
    };
    // Sanity: one epoch per writer update call, no drift.
    assert_eq!(out.epochs, writer_updates, "epoch counter drifted");
    out
}

/// The triple the writer appends on publication `n`.
fn write_triple(n: u64) -> Triple {
    Triple::new(
        Term::iri(format!("http://dbpedia.org/resource/NewMovie{n}")),
        Term::iri("http://dbpedia.org/property/starring"),
        Term::iri(format!("http://dbpedia.org/resource/NewActor{n}")),
    )
}

/// Writer-side durability swept by the durability-tax experiment.
#[derive(Clone, Copy, PartialEq)]
enum Durability {
    /// Plain [`SnapshotServer`]: publish is a pointer swap, nothing survives
    /// a crash.
    Off,
    /// [`DurableSnapshotServer`], WAL commit before every publish, no
    /// checkpoints during the window.
    WalEachUpdate,
    /// WAL commit per publish plus threshold-coalesced checkpoints.
    WalCheckpoint,
}

impl Durability {
    fn label(self) -> &'static str {
        match self {
            Durability::Off => "off",
            Durability::WalEachUpdate => "wal_per_update",
            Durability::WalCheckpoint => "wal_checkpoint_coalesced",
        }
    }
}

/// Checkpoint-coalescing threshold for [`Durability::WalCheckpoint`]. Low
/// enough that single-triple appends actually reach it within the window
/// even at full scale (where publishes are slow and only a few dozen
/// epochs fit), so the sweep shows real checkpoint spikes, not an idle
/// policy.
const COALESCE_WAL_BYTES: u64 = 1 << 10;
/// Reader threads held constant across the durability sweep.
const TAX_READERS: usize = 2;

/// A durable server over `MemVfs`, seeded with the benchmark dataset and
/// checkpointed so the measurement window starts from an empty WAL.
fn seed_durable(scale: usize, config: ServingConfig) -> DurableSnapshotServer {
    let server = DurableSnapshotServer::open(Arc::new(MemVfs::new()) as Arc<dyn Vfs>, config)
        .expect("open durable server");
    for (uri, graph) in data::build_graphs(scale) {
        server.insert_graph(uri, &graph).expect("seed graph");
    }
    server.checkpoint().expect("seed checkpoint");
    server
}

/// One serving surface for the durability sweep: same read path, different
/// writer-side durability.
enum TaxServer {
    Plain(SnapshotServer),
    Durable(Box<DurableSnapshotServer>),
}

impl TaxServer {
    fn build(scale: usize, mode: Durability) -> TaxServer {
        match mode {
            Durability::Off => TaxServer::Plain(SnapshotServer::new(data::build_dataset(scale))),
            Durability::WalEachUpdate => TaxServer::Durable(Box::new(seed_durable(
                scale,
                ServingConfig {
                    checkpoint_wal_bytes: None,
                    ..ServingConfig::default()
                },
            ))),
            Durability::WalCheckpoint => TaxServer::Durable(Box::new(seed_durable(
                scale,
                ServingConfig {
                    checkpoint_wal_bytes: Some(COALESCE_WAL_BYTES),
                    ..ServingConfig::default()
                },
            ))),
        }
    }

    fn snapshot(&self) -> Arc<rdfframes_core::EpochEndpoints> {
        match self {
            TaxServer::Plain(s) => s.snapshot(),
            TaxServer::Durable(s) => s.snapshot(),
        }
    }

    fn publish(&self, n: u64) {
        match self {
            TaxServer::Plain(s) => {
                s.update(|ds| {
                    ds.append_triples(data::uris::DBPEDIA, [write_triple(n)]);
                })
                .expect("publish failed");
            }
            TaxServer::Durable(s) => {
                s.append_triples(data::uris::DBPEDIA, vec![write_triple(n)])
                    .expect("publish failed");
            }
        }
    }

    fn epochs_published(&self) -> u64 {
        match self {
            TaxServer::Plain(s) => s.epochs_published(),
            TaxServer::Durable(s) => s.stats().epochs_published,
        }
    }

    /// `(wal_commits, checkpoints)` so far; zeros for the in-memory server.
    fn store_counters(&self) -> (u64, u64) {
        match self {
            TaxServer::Plain(_) => (0, 0),
            TaxServer::Durable(s) => {
                let st = s.store_stats();
                (st.commits, st.checkpoints)
            }
        }
    }
}

struct TaxOutcome {
    publish_p50: Duration,
    publish_p99: Duration,
    epochs: u64,
    reader_qps: f64,
    reader_p99: Duration,
    wal_commits: u64,
    checkpoints: u64,
}

/// Durability-tax cell: readers race a writer whose publications run at the
/// given durability level; both sides' latencies are sampled.
fn serve_tax(scale: usize, mode: Durability) -> TaxOutcome {
    let server = TaxServer::build(scale, mode);
    let frame = data::dbpedia_graph().feature_domain_range("dbpp:starring", "movie", "actor");
    let epochs_before = server.epochs_published();
    let (commits_before, checkpoints_before) = server.store_counters();
    let stop = AtomicBool::new(false);
    let (reader_lat, publish_lat) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..TAX_READERS {
            readers.push(scope.spawn(|| {
                let mut lat = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let snap = server.snapshot();
                    let start = Instant::now();
                    let df = frame.execute(snap.embedded()).expect("reader query failed");
                    lat.push(start.elapsed());
                    assert!(!df.is_empty(), "reader saw an empty result");
                }
                lat
            }));
        }
        let writer = scope.spawn(|| {
            let mut lat = Vec::new();
            let mut published = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                server.publish(published);
                lat.push(start.elapsed());
                published += 1;
            }
            lat
        });
        std::thread::sleep(SERVE_WINDOW);
        stop.store(true, Ordering::Relaxed);
        let mut lat: Vec<Duration> = Vec::new();
        for r in readers {
            lat.extend(r.join().expect("reader panicked"));
        }
        (lat, writer.join().expect("writer panicked"))
    });
    let mut reader_sorted = reader_lat;
    reader_sorted.sort();
    let mut publish_sorted = publish_lat;
    publish_sorted.sort();
    let (commits_after, checkpoints_after) = server.store_counters();
    let epochs = server.epochs_published() - epochs_before;
    assert_eq!(epochs, publish_sorted.len() as u64, "epoch counter drifted");
    TaxOutcome {
        publish_p50: percentile(&publish_sorted, 50.0),
        publish_p99: percentile(&publish_sorted, 99.0),
        epochs,
        reader_qps: reader_sorted.len() as f64 / SERVE_WINDOW.as_secs_f64(),
        reader_p99: percentile(&reader_sorted, 99.0),
        wal_commits: commits_after - commits_before,
        checkpoints: checkpoints_after - checkpoints_before,
    }
}

fn main() {
    let scale = parse_args();
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("building dataset at scale {scale} ({hardware} hardware threads)...");
    let dataset = data::build_dataset(scale);
    eprintln!(
        "dataset: {} triples across {} graphs",
        dataset.total_triples(),
        dataset.len()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"concurrent_bench\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"triples\": {},", dataset.total_triples());
    let _ = writeln!(json, "  \"hardware_threads\": {hardware},");

    // ── Experiment 1: concurrent serving ──────────────────────────────
    println!(
        "\n{:<8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "readers", "queries", "qps", "p50 (ms)", "p99 (ms)", "epochs", "final rows"
    );
    let _ = writeln!(json, "  \"concurrent_serving\": [");
    for (ri, &readers) in READERS.iter().enumerate() {
        let out = serve(scale, readers);
        println!(
            "{:<8} {:>10} {:>10.1} {:>10.3} {:>10.3} {:>8} {:>10}",
            readers,
            out.queries,
            out.qps,
            out.p50.as_secs_f64() * 1e3,
            out.p99.as_secs_f64() * 1e3,
            out.epochs,
            out.final_rows
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"readers\": {readers},");
        let _ = writeln!(json, "      \"window_ms\": {},", SERVE_WINDOW.as_millis());
        let _ = writeln!(json, "      \"queries\": {},", out.queries);
        let _ = writeln!(json, "      \"qps\": {:.1},", out.qps);
        let _ = writeln!(
            json,
            "      \"p50_ms\": {:.3},",
            out.p50.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"p99_ms\": {:.3},",
            out.p99.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"epochs_published\": {}", out.epochs);
        let _ = writeln!(
            json,
            "    }}{}",
            if ri + 1 < READERS.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // ── Experiment 2: durability tax ──────────────────────────────────
    println!(
        "\n{:<26} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8} {:>6}",
        "durability",
        "pub p50 (ms)",
        "pub p99 (ms)",
        "epochs",
        "rd qps",
        "rd p99",
        "commits",
        "ckpts"
    );
    let modes = [
        Durability::Off,
        Durability::WalEachUpdate,
        Durability::WalCheckpoint,
    ];
    let _ = writeln!(json, "  \"durability_tax\": [");
    for (mi, &mode) in modes.iter().enumerate() {
        let out = serve_tax(scale, mode);
        println!(
            "{:<26} {:>12.4} {:>12.4} {:>8} {:>10.1} {:>10.3} {:>8} {:>6}",
            mode.label(),
            out.publish_p50.as_secs_f64() * 1e3,
            out.publish_p99.as_secs_f64() * 1e3,
            out.epochs,
            out.reader_qps,
            out.reader_p99.as_secs_f64() * 1e3,
            out.wal_commits,
            out.checkpoints
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"mode\": \"{}\",", mode.label());
        let _ = writeln!(json, "      \"readers\": {TAX_READERS},");
        let _ = writeln!(json, "      \"window_ms\": {},", SERVE_WINDOW.as_millis());
        let _ = writeln!(
            json,
            "      \"publish_p50_ms\": {:.4},",
            out.publish_p50.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            json,
            "      \"publish_p99_ms\": {:.4},",
            out.publish_p99.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"epochs_published\": {},", out.epochs);
        let _ = writeln!(json, "      \"reader_qps\": {:.1},", out.reader_qps);
        let _ = writeln!(
            json,
            "      \"reader_p99_ms\": {:.3},",
            out.reader_p99.as_secs_f64() * 1e3
        );
        let _ = writeln!(json, "      \"wal_commits\": {},", out.wal_commits);
        let _ = writeln!(json, "      \"checkpoints\": {}", out.checkpoints);
        let _ = writeln!(
            json,
            "    }}{}",
            if mi + 1 < modes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_concurrent.json", &json).expect("write BENCH_concurrent.json");
    eprintln!("\nwrote BENCH_concurrent.json");
}
