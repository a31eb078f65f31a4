//! The six workloads, and the passes the dataset-backed ones share: the
//! timed phase (counters and spans off) and the heap pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataframe::DataFrame;
use rdf_model::Dataset;
use rdfframes_core::{
    EmbeddedEndpoint, Endpoint, EndpointConfig, FrameError, InProcessEndpoint, WireFormat,
};

use crate::alloc::{mib, ALLOC};
use crate::check::Expected;
use crate::frames::{self, FrameDef};

/// Which path a workload drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `RDFFrame::execute` on a fresh `EmbeddedEndpoint` per op.
    Embedded,
    /// `RDFFrame::execute` on a fresh XML-wire `InProcessEndpoint` per op.
    Wire,
    /// Reads through `DurableSnapshotServer::execute` beside a writer.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One op is one pass over these frames.
    pub frames: &'static [FrameDef],
}

/// The workloads, in the order `BENCHMARK.json` lists them (which also
/// records why each was chosen).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cs1_embedded",
        kind: Kind::Embedded,
        frames: &[frames::CS1],
    },
    Workload {
        name: "cs3_embedded",
        kind: Kind::Embedded,
        frames: &[frames::CS3],
    },
    Workload {
        name: "q9_embedded",
        kind: Kind::Embedded,
        frames: &[frames::Q9],
    },
    Workload {
        name: "qmix_embedded",
        kind: Kind::Embedded,
        frames: &frames::QMIX,
    },
    Workload {
        name: "paper_wire_xml",
        kind: Kind::Wire,
        frames: &[frames::CS2, frames::CS3, frames::Q1],
    },
    Workload {
        name: "serve_mixed",
        kind: Kind::Serve,
        frames: &[frames::Q1, frames::Q5, frames::CS2, frames::CS3],
    },
];

/// Rows per request on the wire workload: small enough that cs3 needs four
/// pages, each re-evaluating the query as a cursor-less HTTP endpoint does.
pub const WIRE_PAGE_ROWS: usize = 10_000;

/// The timed phase is cut into this many equal time slices.
pub const ROUNDS: usize = 5;

fn wire_endpoint(dataset: &Arc<Dataset>) -> InProcessEndpoint {
    InProcessEndpoint::with_config(
        Arc::clone(dataset),
        EndpointConfig {
            wire: WireFormat::Xml,
            max_rows_per_request: WIRE_PAGE_ROWS,
            ..Default::default()
        },
    )
}

/// One op of a dataset-backed workload: a fresh endpoint, then every frame
/// recorded and executed, so planning is paid as a notebook user pays it.
pub fn run_op(
    kind: Kind,
    dataset: &Arc<Dataset>,
    frames: &[FrameDef],
) -> Result<Vec<DataFrame>, FrameError> {
    fn all<E: Endpoint>(frames: &[FrameDef], endpoint: &E) -> Result<Vec<DataFrame>, FrameError> {
        frames
            .iter()
            .map(|f| (f.build)().execute(endpoint))
            .collect()
    }
    match kind {
        Kind::Embedded => all(frames, &EmbeddedEndpoint::new(Arc::clone(dataset))),
        Kind::Wire => all(frames, &wire_endpoint(dataset)),
        Kind::Serve => unreachable!("serve_mixed reads through its server"),
    }
}

/// Check one op's results against the gate's fingerprints.
pub fn verify(results: &[DataFrame], expected: &[Expected]) -> Result<(), String> {
    results
        .iter()
        .zip(expected)
        .try_for_each(|(df, want)| want.check(df))
}

/// Samples of a closed loop run for a fixed wall time.
#[derive(Default)]
pub struct Samples {
    /// Op wall times in ms, by the time slice the op started in.
    pub rounds: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Samples {
    pub fn all(&self) -> Vec<f64> {
        self.rounds.iter().flatten().copied().collect()
    }

    pub fn absorb_counts(&mut self, other: Samples) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Closed loop, one client: run `op` back to back until `seconds` of wall
/// time have passed (at least `min_ops` ops). `op` returns its own timed
/// span in ms — verification happens inside `op` but outside that span.
pub fn closed_loop(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Samples {
    let mut out = Samples {
        rounds: vec![Vec::new(); ROUNDS],
        ..Default::default()
    };
    let start = Instant::now();
    let slice = seconds / ROUNDS as f64;
    loop {
        let at = start.elapsed().as_secs_f64();
        if at >= seconds && out.attempted >= min_ops {
            return out;
        }
        let round = ((at / slice) as usize).min(ROUNDS - 1);
        out.attempted += 1;
        match op() {
            Ok(ms) => out.rounds[round].push(ms),
            Err(e) => out.failures.push(e),
        }
    }
}

/// Time one op of a dataset-backed workload and verify it afterwards.
pub fn timed_op(
    kind: Kind,
    dataset: &Arc<Dataset>,
    expected: &[Expected],
    frames: &[FrameDef],
) -> Result<f64, String> {
    let start = Instant::now();
    let results = run_op(kind, dataset, frames);
    let elapsed = start.elapsed();
    let results = results.map_err(|e| e.to_string())?;
    verify(&results, expected)?;
    Ok(ms(elapsed))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the heap pass measured, in MiB per op.
pub struct HeapSamples {
    /// High-water mark above the live level at op start.
    pub peak_mb: Vec<f64>,
    /// Still live when the op has returned: the result itself.
    pub result_mb: Vec<f64>,
}

/// Run up to `ops` ops with the allocator counting, stopping early once
/// `budget_s` of wall time is spent. `op` returns the results it wants held
/// while the live level is read.
pub fn heap_pass<T>(
    ops: usize,
    budget_s: f64,
    mut op: impl FnMut() -> Result<T, String>,
) -> (HeapSamples, Samples) {
    let mut heap = HeapSamples {
        peak_mb: Vec::with_capacity(ops),
        result_mb: Vec::with_capacity(ops),
    };
    let mut counts = Samples::default();
    let start = Instant::now();
    ALLOC.arm();
    for i in 0..ops {
        if i > 0 && start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let base = ALLOC.reset_peak();
        counts.attempted += 1;
        match op() {
            Ok(held) => {
                heap.peak_mb.push(mib(ALLOC.peak() - base));
                heap.result_mb.push(mib(ALLOC.live() - base));
                drop(held);
            }
            Err(e) => counts.failures.push(e),
        }
    }
    ALLOC.disarm();
    (heap, counts)
}
