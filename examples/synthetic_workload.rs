//! Runs the full Q1–Q15 synthetic workload (paper Table 2) against the
//! synthetic dataset, printing each query's description, generated SPARQL
//! size, and result dimensions.
//!
//! Run with: `cargo run --release --example synthetic_workload [scale]`

use bench::{baselines, data, queries};

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    println!("building dataset at scale {scale}...");
    let ds = data::build_dataset(scale);
    let endpoint = data::build_endpoint(ds);

    for def in queries::all_queries() {
        let sparql = def.frame.to_sparql().expect("query generation failed");
        let df = baselines::rdfframes(&def.frame, &endpoint).expect("query failed");
        println!(
            "{:<4} {:<62} | {:>4} SPARQL lines | {:>7} rows x {:>2} cols",
            def.id,
            def.description,
            sparql.lines().count(),
            df.len(),
            df.columns().len()
        );
    }
}
