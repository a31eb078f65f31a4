//! Figure 4 — comparing RDFFrames to alternative baselines.
//!
//! For each case study, compares:
//! - **rdflib + dataframe** (parse an N-Triples dump, no engine),
//! - **SPARQL + dataframe** (trivial dump query, client-side processing),
//! - **Expert SPARQL** (hand-written query),
//! - **RDFFrames**.
//!
//! Usage: `fig4 [scale] [runs]` (defaults: scale 2000, 3 runs).

use bench::casestudies::{self, CaseParams};
use bench::{baselines, data, harness};
use rdf_model::ntriples;

fn main() {
    let (scale, runs) = harness::scale_and_runs("fig4");
    let params = CaseParams::for_scale(scale);
    println!("Figure 4 reproduction — scale {scale}, {runs} runs, params {params:?}");

    let ds = data::build_dataset(scale);
    let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));

    // Serialize the graphs once (the paper's baselines read a pre-dumped
    // .nt file; producing it is setup, parsing it is measured).
    let dbpedia_nt = ntriples::write_document(ds.graph_triples(data::uris::DBPEDIA).unwrap());
    let dblp_nt = ntriples::write_document(ds.graph_triples(data::uris::DBLP).unwrap());

    let studies = [
        (
            "(a) Movie Genre Classification on DBpedia",
            casestudies::movie_genre_classification(params.prolific),
            casestudies::movie_genre_expert(params.prolific),
            &dbpedia_nt,
        ),
        (
            "(b) Topic Modeling on DBLP",
            casestudies::topic_modeling(params.since_year, params.threshold, params.recent_year),
            casestudies::topic_modeling_expert(
                params.since_year,
                params.threshold,
                params.recent_year,
            ),
            &dblp_nt,
        ),
        (
            "(c) KG Embedding on DBLP",
            casestudies::kg_embedding(),
            casestudies::kg_embedding_expert(),
            &dblp_nt,
        ),
    ];

    for (title, frame, expert, nt) in studies {
        let measurements = vec![
            harness::measure("rdflib + dataframe", runs, || {
                baselines::rdflib_plus_df(&frame, nt)
            }),
            harness::measure("SPARQL + dataframe", runs, || {
                baselines::sparql_plus_df(&frame, &endpoint)
            }),
            harness::measure("Expert SPARQL", runs, || {
                baselines::expert_sparql(&expert, &endpoint)
            }),
            harness::measure("RDFFrames", runs, || {
                baselines::rdfframes(&frame, &endpoint)
            }),
        ];
        harness::print_panel(title, &measurements);
    }
}
