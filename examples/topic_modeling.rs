//! Case study 2 (paper Section 6.1.2): active database research topics.
//!
//! Data preparation per the paper's Listing 5: titles of recent papers by
//! authors with many VLDB/SIGMOD papers. Then a small TF-based keyword
//! extraction stands in for the paper's scikit-learn SVD topic model (the
//! paper measures only the preparation step).
//!
//! Run with: `cargo run --release --example topic_modeling`

use std::collections::HashMap;
use std::sync::Arc;

use rdfframes::datagen::{generate_dblp, DblpConfig};
use rdfframes::rdf::Dataset;
use rdfframes::{InProcessEndpoint, JoinType, KnowledgeGraph};

fn main() {
    let mut dataset = Dataset::new();
    dataset.insert_graph(
        "http://dblp.l3s.de",
        generate_dblp(&DblpConfig::with_papers(20_000)),
    );
    let endpoint = InProcessEndpoint::new(Arc::new(dataset));

    let graph = KnowledgeGraph::new("http://dblp.l3s.de")
        .with_prefix("swrc", "http://swrc.ontoware.org/ontology#")
        .with_prefix("dc", "http://purl.org/dc/elements/1.1/")
        .with_prefix("dcterm", "http://purl.org/dc/terms/")
        .with_prefix("dblprc", "http://dblp.l3s.de/d2r/resource/conferences/");

    // ---- data preparation (Listing 5) ---------------------------------
    let papers = graph
        .entities("swrc:InProceedings", "paper")
        .expand("paper", "dc:creator", "author")
        .expand("paper", "dcterm:issued", "date")
        .expand("paper", "swrc:series", "conference")
        .expand("paper", "dc:title", "title")
        .cache();
    let thought_leaders = papers
        .clone()
        .filter("date", &["year>=2000"])
        .filter("conference", &["In(dblprc:vldb, dblprc:sigmod)"])
        .group_by(&["author"])
        .count("paper", "n_papers", false)
        .filter("n_papers", &[">=15"]);
    let titles = papers
        .filter("date", &["year>=2010"])
        .join(&thought_leaders, "author", JoinType::Inner)
        .select_cols(&["title"]);

    println!("--- generated SPARQL ---\n{}", titles.to_sparql().unwrap());
    let df = titles.execute(&endpoint).expect("query failed");
    println!("prepared dataframe: {} titles", df.len());

    // ---- stand-in topic extraction: top TF keywords --------------------
    const STOPWORDS: &[&str] = &["a", "an", "and", "for", "of", "on", "the", "with"];
    let mut tf: HashMap<&str, usize> = HashMap::new();
    let title_idx = df.column_index("title").unwrap();
    for row in df.rows() {
        if let Some(title) = row.cell(title_idx).as_str() {
            for word in title.split_whitespace() {
                if word.len() > 3 && !STOPWORDS.contains(&word) {
                    *tf.entry(word).or_insert(0) += 1;
                }
            }
        }
    }
    let mut ranked: Vec<(&str, usize)> = tf.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("top active-research keywords:");
    for (word, count) in ranked.iter().take(10) {
        println!("  {word:<16} {count}");
    }
}
