//! Case study 3 (paper Section 6.1.3): knowledge-graph embedding input.
//!
//! The embedding models the paper cites (TransE/ComplEx) train on
//! entity-to-entity triples. The one-line RDFFrames pipeline (Listing 7)
//! filters literals out in the engine and streams the result into a
//! dataframe, paginated. A miniature margin-based embedding sampler then
//! consumes it, standing in for the paper's ampligraph training run.
//!
//! Run with: `cargo run --release --example kg_embedding`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rdfframes::datagen::{generate_dblp, DblpConfig};
use rdfframes::rdf::Dataset;
use rdfframes::{EmbeddedEndpoint, EndpointConfig, Executor, InProcessEndpoint, KnowledgeGraph};

fn main() {
    let mut dataset = Dataset::new();
    dataset.insert_graph(
        "http://dblp.l3s.de",
        generate_dblp(&DblpConfig::with_papers(10_000)),
    );
    let dataset = Arc::new(dataset);
    // A small page size to show transparent pagination on a bulky result.
    let endpoint = InProcessEndpoint::with_config(
        Arc::clone(&dataset),
        EndpointConfig {
            max_rows_per_request: 10_000,
            ..Default::default()
        },
    );

    let graph = KnowledgeGraph::new("http://dblp.l3s.de");

    // ---- the one-line data preparation (Listing 7) ---------------------
    let triples = graph.seed("?s", "?p", "?o").filter("o", &["isURI"]);
    println!("--- generated SPARQL ---\n{}", triples.to_sparql().unwrap());

    let wire_start = Instant::now();
    let df = Executor::with_page_size(10_000)
        .execute(&triples, &endpoint)
        .expect("query failed");
    let wire_time = wire_start.elapsed();
    println!(
        "entity-to-entity triples: {} (fetched in {} requests, {:.1} ms over the XML wire)",
        df.len(),
        endpoint.stats().requests(),
        wire_time.as_secs_f64() * 1e3
    );

    // The same frame on the embedded path: no pagination, no XML — one
    // columnar evaluation decoded once per distinct term.
    let embedded = EmbeddedEndpoint::new(Arc::clone(&dataset));
    let embedded_start = Instant::now();
    let df_embedded = triples.execute(&embedded).expect("embedded query failed");
    let embedded_time = embedded_start.elapsed();
    assert_eq!(df, df_embedded, "both paths must agree exactly");
    println!(
        "same frame, embedded path: {} rows in {:.1} ms ({:.1}x)",
        df_embedded.len(),
        embedded_time.as_secs_f64() * 1e3,
        wire_time.as_secs_f64() / embedded_time.as_secs_f64().max(1e-9)
    );

    // ---- miniature embedding pass --------------------------------------
    // Assign each entity an id and count co-occurrences per relation — the
    // statistics a negative-sampling embedding trainer consumes first.
    let mut entity_ids: HashMap<String, usize> = HashMap::new();
    let mut relation_freq: HashMap<String, usize> = HashMap::new();
    let (si, pi, oi) = (
        df.column_index("s").unwrap(),
        df.column_index("p").unwrap(),
        df.column_index("o").unwrap(),
    );
    for row in df.rows() {
        for cell in [&row[si], &row[oi]] {
            let next_id = entity_ids.len();
            entity_ids.entry(cell.to_string()).or_insert(next_id);
        }
        *relation_freq.entry(row[pi].to_string()).or_insert(0) += 1;
    }
    println!(
        "embedding vocabulary: {} entities, {} relations",
        entity_ids.len(),
        relation_freq.len()
    );
    let mut relations: Vec<(String, usize)> = relation_freq.into_iter().collect();
    relations.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("relation frequencies:");
    for (rel, n) in relations {
        println!("  {rel:<60} {n}");
    }

    // A train/test split in the style of ampligraph's
    // train_test_split_no_unseen: hold out rows whose entities remain
    // covered by the training set.
    let test_size = (df.len() / 10).max(1);
    let test = df.head(test_size, 0);
    let train = df.head(df.len() - test_size, test_size);
    println!("split: {} train / {} test triples", train.len(), test.len());
}
