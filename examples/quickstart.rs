//! Quickstart: the paper's motivating example (Listing 1) end to end.
//!
//! Builds a synthetic DBpedia-like knowledge graph, stands up an in-process
//! SPARQL endpoint over it, lazily describes the "prolific American actors
//! and their academy awards" dataframe, shows the generated SPARQL, and
//! executes it.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use rdfframes::api::Direction;
use rdfframes::datagen::{generate_dbpedia, DbpediaConfig};
use rdfframes::rdf::Dataset;
use rdfframes::{InProcessEndpoint, KnowledgeGraph};

fn main() {
    // 1. A knowledge graph in an "RDF engine" (in-process here).
    let mut dataset = Dataset::new();
    dataset.insert_graph(
        "http://dbpedia.org",
        generate_dbpedia(&DbpediaConfig::with_scale(2_000)),
    );
    println!(
        "graph: {} triples",
        dataset.graph("http://dbpedia.org").unwrap().len()
    );
    let endpoint = InProcessEndpoint::new(Arc::new(dataset));

    // 2. A handle naming the graph + prefixes (no data is touched).
    let graph = KnowledgeGraph::new("http://dbpedia.org")
        .with_prefix("dbpp", "http://dbpedia.org/property/")
        .with_prefix("dbpr", "http://dbpedia.org/resource/");

    // 3. The paper's Listing 1, recorded lazily. The threshold is scaled
    //    down for the synthetic graph.
    let movies = graph.feature_domain_range("dbpp:starring", "movie", "actor");
    let american = movies
        .expand("actor", "dbpp:birthPlace", "country")
        .filter("country", &["=dbpr:United_States"]);
    let prolific = american
        .group_by(&["actor"])
        .count("movie", "movie_count", true)
        .filter("movie_count", &[">=8"]);
    let result = prolific
        .expand_dir("actor", "dbpp:starring", "movie", Direction::In, false)
        .expand_dir("actor", "dbpp:academyAward", "award", Direction::Out, true);

    // 4. Inspect the single compact SPARQL query RDFFrames generated.
    println!(
        "\n--- generated SPARQL ---\n{}",
        result.to_sparql().unwrap()
    );

    // 5. Execute: one query, paginated transparently, returned as a dataframe.
    let df = result.execute(&endpoint).expect("query failed");
    println!(
        "--- result: {} rows x {} columns {:?}",
        df.len(),
        df.columns().len(),
        df.columns()
    );
    for row in df.rows().iter().take(5) {
        println!(
            "  actor={} movies={} award={}",
            row[df.column_index("actor").unwrap()],
            row[df.column_index("movie_count").unwrap()],
            row[df.column_index("award").unwrap()],
        );
    }
}
