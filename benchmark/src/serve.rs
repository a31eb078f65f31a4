//! `serve_mixed`: reads through `DurableSnapshotServer::execute` beside an
//! open-loop writer that publishes seeded update batches through the WAL.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataframe::DataFrame;
use rdf_model::persist::{MemVfs, Vfs, SNAPSHOT_FILE};
use rdf_model::{Graph, Triple};
use rdfframes_core::client::convert::term_to_cell;
use rdfframes_core::{DurableSnapshotServer, ServingConfig};

use crate::alloc::ALLOC;
use crate::check::{fingerprint, row_hash, Expected, Fingerprint};
use crate::frames::{FrameDef, DBLP};
use crate::inputs::{update_batch, Graphs};
use crate::trace::Trace;
use crate::workloads::{closed_loop, ms, Samples};

/// The writer's schedule: one publish every 100 ms.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);

/// The policy checkpoint fires when the WAL exceeds this many update
/// records, so every 5th publish pays the foreground stall.
const CHECKPOINT_AFTER_UPDATES: f64 = 4.5;

const SCRATCH: &str = "http://dblp.l3s.de/bench/scratch";

/// What set-up measured on the storage side.
#[derive(Clone, Copy, Default)]
pub struct Persist {
    pub initial_commit_s: f64,
    pub checkpoint_ms: f64,
    pub open_s: f64,
    pub snapshot_bytes: f64,
    pub wal_bytes_per_update: f64,
}

pub struct Served {
    pub server: DurableSnapshotServer,
    seed: u64,
    /// Index of the next update batch; set-up used batch 0 as its probe.
    published: u64,
    /// What the batches published since the gate add to cs3's fingerprint.
    grown: Fingerprint,
    pub persist: Persist,
}

fn open_server(vfs: &Arc<MemVfs>, config: ServingConfig) -> Result<DurableSnapshotServer, String> {
    DurableSnapshotServer::open(Arc::clone(vfs) as Arc<dyn Vfs>, config).map_err(|e| e.to_string())
}

/// Commit the graphs, checkpoint, drop the server and
/// recover a new one from the snapshot, as a restarted service would. With
/// `measure_heap`, also returns the bytes the recovered server holds live.
pub fn open(
    graphs: Graphs,
    seed: u64,
    measure_heap: bool,
) -> Result<(Served, Option<isize>), String> {
    let vfs = Arc::new(MemVfs::new());
    let mut persist = Persist::default();
    {
        let loader = open_server(
            &vfs,
            ServingConfig {
                checkpoint_wal_bytes: None,
                ..Default::default()
            },
        )?;
        let start = Instant::now();
        for (uri, graph) in &graphs.named {
            loader.insert_graph(uri, graph).map_err(|e| e.to_string())?;
        }
        persist.initial_commit_s = start.elapsed().as_secs_f64();
        // Size one update's WAL record on a scratch graph, so the graphs
        // the frames read stay exactly the generated ones.
        loader
            .insert_graph(SCRATCH, &Graph::new())
            .map_err(|e| e.to_string())?;
        let before = loader.wal_len();
        loader
            .append_triples(SCRATCH, update_batch(seed, 0))
            .map_err(|e| e.to_string())?;
        persist.wal_bytes_per_update = (loader.wal_len() - before) as f64;
        let start = Instant::now();
        loader.checkpoint().map_err(|e| e.to_string())?;
        persist.checkpoint_ms = ms(start.elapsed());
    }
    drop(graphs);
    persist.snapshot_bytes = vfs.disk_image().get(SNAPSHOT_FILE).map_or(0, Vec::len) as f64;
    if measure_heap {
        ALLOC.arm();
    }
    let start = Instant::now();
    let server = open_server(
        &vfs,
        ServingConfig {
            checkpoint_wal_bytes: Some(
                (persist.wal_bytes_per_update * CHECKPOINT_AFTER_UPDATES) as u64,
            ),
            ..Default::default()
        },
    )?;
    persist.open_s = start.elapsed().as_secs_f64();
    let heap = measure_heap.then(|| {
        let live = ALLOC.live();
        ALLOC.disarm();
        live
    });
    Ok((
        Served {
            server,
            seed,
            published: 1,
            grown: Fingerprint {
                rows: 0,
                checksum: 0,
            },
            persist,
        },
        heap,
    ))
}

/// One read op: the frame rotation through the governed front door.
pub fn read_op(
    server: &DurableSnapshotServer,
    frames: &[FrameDef],
) -> Result<Vec<DataFrame>, String> {
    frames
        .iter()
        .map(|f| server.execute(&(f.build)()).map_err(|e| e.to_string()))
        .collect()
}

/// One publish as the writer timed it.
pub struct Publish {
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    /// `store_stats().checkpoints` advanced across this publish.
    pub checkpointed: bool,
}

impl Publish {
    /// Latency from the time the publish was due, so a stall charges the
    /// publishes queued behind it.
    pub fn latency_ms(&self) -> f64 {
        ms(self.end.saturating_duration_since(self.due))
    }

    pub fn late_ms(&self) -> f64 {
        ms(self.start.saturating_duration_since(self.due))
    }
}

pub struct Mixed {
    pub reads: Samples,
    /// Read ops that began on the epoch of the op before them …
    pub steady_ms: Vec<f64>,
    /// … and those that were the first on a new epoch, when every cached
    /// plan re-optimises against the moved statistics.
    pub after_publish_ms: Vec<f64>,
    pub publishes: Vec<Publish>,
    pub failures: Vec<String>,
}

/// Run `f` under a span when the pass is traced.
fn spanned<T>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The fingerprint one update batch adds to cs3's (columns o, p, s).
fn batch_fingerprint(batch: &[Triple]) -> u64 {
    batch
        .iter()
        .map(|t| {
            let cells = [&t.object, &t.predicate, &t.subject].map(term_to_cell);
            row_hash(cells.iter())
        })
        .fold(0, u64::wrapping_add)
}

impl Served {
    /// Check a read made while no writer runs.
    pub fn verify_quiescent(
        &self,
        results: &[DataFrame],
        expected: &[Expected],
    ) -> Result<(), String> {
        results.iter().zip(expected).try_for_each(|(df, want)| {
            let now = if want.frame.id == "cs3" {
                self.cs3_now(want)
            } else {
                want.fingerprint
            };
            want.check_against(df, now)
        })
    }

    /// cs3's fingerprint now: the gate's plus every batch published since.
    fn cs3_now(&self, gate: &Expected) -> Fingerprint {
        Fingerprint {
            rows: gate.fingerprint.rows + self.grown.rows,
            checksum: gate.fingerprint.checksum.wrapping_add(self.grown.checksum),
        }
    }

    /// Run reader and writer side by side for `seconds`. The reader is a
    /// closed loop on this thread; the writer publishes on its schedule
    /// from a second thread, exactly `seconds / 100 ms` times however late
    /// it runs. Every read is checked: frames the updates do not touch must
    /// match the gate's fingerprint, and cs3 must be the base result plus
    /// whole update batches for an epoch current during the read.
    pub fn mixed(
        &mut self,
        seconds: f64,
        expected: &[Expected],
        mut trace: Option<&mut Trace>,
    ) -> Mixed {
        let server = &self.server;
        let publishes = (seconds / PUBLISH_EVERY.as_secs_f64()) as u64;
        let batches: Vec<Vec<Triple>> = (0..publishes)
            .map(|k| update_batch(self.seed, self.published + k))
            .collect();
        let base_epoch = server.snapshot().epoch();
        let grows = expected
            .iter()
            .position(|e| e.frame.id == "cs3")
            .expect("cs3 is in the rotation");
        // cs3's fingerprint after 0, 1, 2, … of this run's publishes.
        let mut by_epoch = vec![self.cs3_now(&expected[grows])];
        for batch in &batches {
            let last = by_epoch[by_epoch.len() - 1];
            by_epoch.push(Fingerprint {
                rows: last.rows + batch.len(),
                checksum: last.checksum.wrapping_add(batch_fingerprint(batch)),
            });
        }
        let frames: Vec<FrameDef> = expected.iter().map(|e| e.frame).collect();

        let mut steady_ms = Vec::new();
        let mut after_publish_ms = Vec::new();
        let mut last_epoch = base_epoch;
        let (reads, log) = std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                let begin = Instant::now();
                let mut log = Vec::with_capacity(batches.len());
                let mut failures = Vec::new();
                for (k, batch) in batches.into_iter().enumerate() {
                    let due = begin + PUBLISH_EVERY * k as u32;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    let checkpoints = server.store_stats().checkpoints;
                    let start = Instant::now();
                    let outcome = server.append_triples(DBLP, batch);
                    let end = Instant::now();
                    if let Err(e) = outcome {
                        failures.push(format!("publish {k}: {e}"));
                    }
                    log.push(Publish {
                        due,
                        start,
                        end,
                        checkpointed: server.store_stats().checkpoints > checkpoints,
                    });
                }
                (log, failures)
            });
            let reads = closed_loop(seconds, 3, || {
                if let Some(t) = trace.as_deref_mut() {
                    t.begin_op("op");
                }
                let epoch_before =
                    spanned(&mut trace, "serving.snapshot", || server.snapshot().epoch());
                let start = Instant::now();
                let results = spanned(&mut trace, "serving.execute", || read_op(server, &frames));
                let elapsed = ms(start.elapsed());
                if let Some(t) = trace.as_deref_mut() {
                    t.end_op();
                }
                let epoch_after = server.snapshot().epoch();
                let results = results?;
                let span =
                    (epoch_before - base_epoch) as usize..=(epoch_after - base_epoch) as usize;
                let got = fingerprint(&results[grows]);
                if !by_epoch[span.clone()].contains(&got) {
                    return Err(format!(
                        "cs3 read {got:?} matches no epoch in {span:?} (torn or stale)"
                    ));
                }
                for (i, (df, want)) in results.iter().zip(expected).enumerate() {
                    if i != grows {
                        want.check(df)?;
                    }
                }
                if epoch_before == last_epoch {
                    steady_ms.push(elapsed);
                } else {
                    after_publish_ms.push(elapsed);
                }
                last_epoch = epoch_before;
                Ok(elapsed)
            });
            (reads, writer.join().expect("writer thread panicked"))
        });
        let (publishes_done, failures) = log;
        if let Some(t) = trace {
            for (k, p) in publishes_done.iter().enumerate() {
                t.push_root("serving.publish", k as u32 + 1, p.start, p.end);
            }
        }
        self.published += publishes;
        let gate = expected[grows].fingerprint;
        let now = by_epoch[by_epoch.len() - 1];
        self.grown = Fingerprint {
            rows: now.rows - gate.rows,
            checksum: now.checksum.wrapping_sub(gate.checksum),
        };
        Mixed {
            reads,
            steady_ms,
            after_publish_ms,
            publishes: publishes_done,
            failures,
        }
    }
}
