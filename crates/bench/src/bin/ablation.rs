//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Engine optimizer on/off** — why flat queries beat naive nesting:
//!    the optimizer can reorder a flat BGP but not across subquery fences.
//! 2. **Pagination chunk size** — the Executor's transparent paging.
//! 3. **Round trips** — one compact query vs per-operator engine calls
//!    (the "generate one SPARQL query, never more" guideline), with a
//!    simulated per-request HTTP overhead.
//! 4. **Budget governor** — all four budget axes armed but never hit vs
//!    unlimited, on the embedded path: the meter must be invisible (same
//!    rows, same `rows_scanned`) and its wall-clock overhead is printed.
//!
//! Usage: `ablation [scale] [runs]` (defaults: scale 2000, 3 runs).

use std::sync::Arc;
use std::time::Duration;

use bench::casestudies::{self, CaseParams};
use bench::{baselines, data, harness};
use rdfframes_core::{EmbeddedEndpoint, EndpointConfig, Executor, InProcessEndpoint};
use sparql_engine::{EngineConfig, QueryBudget};

fn main() {
    let (scale, runs) = harness::scale_and_runs("ablation");
    let params = CaseParams::for_scale(scale);
    println!("Ablations — scale {scale}, {runs} runs");
    let ds = data::build_dataset(scale);

    // --- 1. Optimizer on/off -------------------------------------------
    let frame =
        casestudies::topic_modeling(params.since_year, params.threshold, params.recent_year);
    let on = data::build_endpoint(Arc::clone(&ds));
    let off = InProcessEndpoint::with_config(
        Arc::clone(&ds),
        EndpointConfig {
            engine: EngineConfig {
                optimize: false,
                ..EngineConfig::new()
            },
            ..Default::default()
        },
    );
    let measurements = vec![
        harness::measure("optimizer ON  (RDFFrames)", runs, || {
            baselines::rdfframes(&frame, &on)
        }),
        harness::measure("optimizer OFF (RDFFrames)", runs, || {
            baselines::rdfframes(&frame, &off)
        }),
        harness::measure("optimizer ON  (naive gen)", runs, || {
            baselines::naive(&frame, &on)
        }),
        harness::measure("optimizer OFF (naive gen)", runs, || {
            baselines::naive(&frame, &off)
        }),
    ];
    harness::print_panel(
        "Ablation 1: engine optimizer (topic modeling)",
        &measurements,
    );

    // --- 2. Pagination chunk size ---------------------------------------
    let kg_frame = casestudies::kg_embedding();
    let mut measurements = Vec::new();
    for chunk in [1_000usize, 10_000, 100_000, 1_000_000] {
        let ep = InProcessEndpoint::with_config(
            Arc::clone(&ds),
            EndpointConfig {
                max_rows_per_request: chunk,
                ..Default::default()
            },
        );
        measurements.push(harness::measure(&format!("chunk = {chunk}"), runs, || {
            baselines::rdfframes(&kg_frame, &ep)
        }));
    }
    harness::print_panel(
        "Ablation 2: pagination chunk size (KG embedding result transfer)",
        &measurements,
    );

    // --- 3. Round trips under simulated HTTP overhead --------------------
    // One compact query vs navigational-prefix + client-side processing,
    // with 2ms of per-request overhead (network + serialization).
    let overhead = Duration::from_millis(2);
    let slow = InProcessEndpoint::with_config(
        Arc::clone(&ds),
        EndpointConfig {
            request_overhead: overhead,
            ..Default::default()
        },
    );
    let cs1 = casestudies::movie_genre_classification(params.prolific);
    let measurements = vec![
        harness::measure("single query (RDFFrames)", runs, || {
            baselines::rdfframes(&cs1, &slow)
        }),
        harness::measure("per-part round trips (nav + df)", runs, || {
            baselines::navigation_plus_df(&cs1, &slow)
        }),
        harness::measure("expert (single query)", runs, || {
            Executor::new().run(&casestudies::movie_genre_expert(params.prolific), &slow)
        }),
    ];
    harness::print_panel(
        "Ablation 3: round trips with 2ms simulated request overhead (CS1)",
        &measurements,
    );
    println!(
        "\nendpoint served {} requests, {} rows total",
        slow.stats().requests(),
        slow.stats().rows_returned()
    );

    // --- 4. Budgets armed on all four axes but never hit ------------------
    // The governor's contract is that an armed-but-unhit budget is
    // invisible: same rows, same scan work, wall clock within noise (the
    // bar has been < 2 %).
    let unlimited = EmbeddedEndpoint::new(Arc::clone(&ds));
    let armed = EmbeddedEndpoint::with_engine_config(
        Arc::clone(&ds),
        EngineConfig {
            budget: QueryBudget::unlimited()
                .with_max_rows_scanned(u64::MAX / 2)
                .with_max_intermediate_rows(u64::MAX / 2)
                .with_max_memory_bytes(u64::MAX / 2)
                .with_deadline(Duration::from_secs(3600)),
            ..EngineConfig::new()
        },
    );
    let measurements = vec![
        harness::measure("budgets unlimited", runs, || cs1.execute(&unlimited)),
        harness::measure("budgets armed, never hit", runs, || cs1.execute(&armed)),
    ];
    harness::print_panel(
        "Ablation 4: budgets armed on all four axes but never hit vs unlimited (CS1, embedded)",
        &measurements,
    );
    let (off, on) = (&measurements[0], &measurements[1]);
    assert!(
        off.error.is_none() && on.error.is_none(),
        "budget ablation failed: {off:?} / {on:?}"
    );
    assert_eq!(off.rows, on.rows, "budget meter changed the result");
    assert_eq!(
        unlimited.rows_scanned(),
        armed.rows_scanned(),
        "budget meter changed the work metric"
    );
    println!(
        "armed-budget overhead: {:+.2}% ({} index entries scanned per run either way)",
        (on.secs() / off.secs().max(1e-12) - 1.0) * 100.0,
        armed.rows_scanned() / (runs as u64 + 1)
    );
}
