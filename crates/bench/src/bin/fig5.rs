//! Figure 5 — the synthetic workload (Q1–Q15).
//!
//! For every query, reports the expert-SPARQL time and the ratios
//! naive/expert and RDFFrames/expert, sorted ascending by naive ratio
//! (matching the paper's presentation).
//!
//! Usage: `fig5 [scale] [runs]` (defaults: scale 2000, 3 runs).

use bench::{baselines, data, harness, queries};

fn main() {
    let (scale, runs) = harness::scale_and_runs("fig5");
    println!("Figure 5 reproduction — scale {scale}, {runs} runs");

    let ds = data::build_dataset(scale);
    let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));

    let mut rows: Vec<(String, f64, Option<f64>, Option<f64>)> = Vec::new();
    for def in queries::all_queries() {
        eprintln!("running {} — {}", def.id, def.description);
        let expert = harness::measure("expert", runs, || {
            baselines::expert_sparql(&def.expert, &endpoint)
        });
        let naive = harness::measure("naive", runs, || baselines::naive(&def.frame, &endpoint));
        let ours = harness::measure("rdfframes", runs, || {
            baselines::rdfframes(&def.frame, &endpoint)
        });
        let expert_secs = expert.secs().max(1e-9);
        rows.push((
            def.id.to_string(),
            expert_secs * 1e3,
            naive.error.is_none().then(|| naive.secs() / expert_secs),
            ours.error.is_none().then(|| ours.secs() / expert_secs),
        ));
    }
    // Sort by naive/expert ratio ascending, like the paper's x-axis.
    rows.sort_by(|a, b| {
        let ka = a.2.unwrap_or(f64::INFINITY);
        let kb = b.2.unwrap_or(f64::INFINITY);
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    harness::print_ratios("Synthetic workload: ratio to Expert SPARQL", &rows);
}
