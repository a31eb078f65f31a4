//! Figure 3 — evaluating the design decisions of RDFFrames.
//!
//! For each case study, compares:
//! - **Naive Query Generation** (per-operator subqueries in the engine),
//! - **Navigation + dataframe** (client-side relational processing),
//! - **RDFFrames** (optimized single query in the engine).
//!
//! Usage: `fig3 [scale] [runs]` (defaults: scale 2000, 3 runs).

use bench::casestudies::{self, CaseParams};
use bench::{baselines, data, harness};

fn main() {
    let (scale, runs) = harness::scale_and_runs("fig3");
    let params = CaseParams::for_scale(scale);
    println!("Figure 3 reproduction — scale {scale}, {runs} runs, params {params:?}");

    let ds = data::build_dataset(scale);
    println!(
        "dataset: dbpedia {} triples, dblp {} triples, yago {} triples",
        ds.graph(data::uris::DBPEDIA).unwrap().len(),
        ds.graph(data::uris::DBLP).unwrap().len(),
        ds.graph(data::uris::YAGO).unwrap().len(),
    );
    let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));

    let studies = [
        (
            "(a) Movie Genre Classification on DBpedia",
            casestudies::movie_genre_classification(params.prolific),
        ),
        (
            "(b) Topic Modeling on DBLP",
            casestudies::topic_modeling(params.since_year, params.threshold, params.recent_year),
        ),
        ("(c) KG Embedding on DBLP", casestudies::kg_embedding()),
    ];

    for (title, frame) in studies {
        let measurements = vec![
            harness::measure("Naive Query Generation", runs, || {
                baselines::naive(&frame, &endpoint)
            }),
            harness::measure("Navigation + dataframe", runs, || {
                baselines::navigation_plus_df(&frame, &endpoint)
            }),
            harness::measure("RDFFrames", runs, || {
                baselines::rdfframes(&frame, &endpoint)
            }),
        ];
        harness::print_panel(title, &measurements);
    }
}
