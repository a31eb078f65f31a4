//! Synthetic knowledge-graph generators.
//!
//! The paper evaluates on DBpedia (1B triples), DBLP (88M), and YAGO3
//! (1.6B) — datasets we substitute with structurally faithful synthetic
//! graphs at configurable scale (see DESIGN.md). The generators reproduce
//! the properties the experiments exercise:
//!
//! - **Heterogeneity** ([`dbpedia`]): one graph with several mixed topics —
//!   films, basketball players/teams, athletes, books — so topic-focused
//!   extraction is non-trivial.
//! - **Skew**: actor/author productivity follows a Zipf distribution
//!   ([`zipf`]), so "prolific actor" thresholds select a small head.
//! - **Sparsity / optional predicates**: genre, awards, publishers, etc.
//!   exist only for a fraction of entities, exercising `OPTIONAL`.
//! - **Dense structured bibliography** ([`dblp`]): papers, authors,
//!   conferences, years.
//! - **Cross-graph overlap** ([`yago`]): a second graph sharing a subset of
//!   DBpedia's actors by URI, for the cross-graph join queries.
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]

pub mod dblp;
pub mod dbpedia;
pub mod names;
pub mod vocab;
pub mod yago;
pub mod zipf;

pub use dblp::{generate_dblp, DblpConfig};
pub use dbpedia::{generate_dbpedia, DbpediaConfig};
pub use yago::{generate_yago, YagoConfig};

#[cfg(test)]
/// A generated graph installed alone in a dataset, so a test can scan it:
/// the graph's index, and the dataset that resolves its ids.
fn installed(
    graph: rdf_model::Graph,
) -> (std::sync::Arc<rdf_model::TripleIndex>, rdf_model::Dataset) {
    let mut ds = rdf_model::Dataset::new();
    ds.insert_graph("http://test", graph);
    (std::sync::Arc::clone(ds.graph("http://test").unwrap()), ds)
}
