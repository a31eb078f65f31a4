//! Dataset construction for the experiments.

use std::sync::Arc;

use kg_datagen::{
    generate_dblp, generate_dbpedia, generate_yago, DblpConfig, DbpediaConfig, YagoConfig,
};
use rdf_model::{Dataset, Graph};
use rdfframes_core::{EndpointConfig, InProcessEndpoint, KnowledgeGraph};

/// Graph URIs used throughout the experiments.
pub mod uris {
    /// DBpedia-like graph.
    pub const DBPEDIA: &str = "http://dbpedia.org";
    /// DBLP-like graph.
    pub const DBLP: &str = "http://dblp.l3s.de";
    /// YAGO-like graph.
    pub const YAGO: &str = "http://yago-knowledge.org";
}

/// Generate the three experiment graphs as stand-alone builders, in the
/// order [`build_dataset`] inserts them, at a given DBpedia scale (DBLP
/// papers = 2× scale to mirror the paper's relative sizes).
pub fn build_graphs(scale: usize) -> [(&'static str, Graph); 3] {
    [
        (
            uris::DBPEDIA,
            generate_dbpedia(&DbpediaConfig::with_scale(scale)),
        ),
        (
            uris::DBLP,
            generate_dblp(&DblpConfig::with_papers(scale * 2)),
        ),
        (
            uris::YAGO,
            generate_yago(&YagoConfig::for_dbpedia_scale(scale)),
        ),
    ]
}

/// Build the full experiment dataset (all three graphs) at a given scale.
pub fn build_dataset(scale: usize) -> Arc<Dataset> {
    let mut ds = Dataset::new();
    for (uri, graph) in build_graphs(scale) {
        ds.insert_graph(uri, graph);
    }
    Arc::new(ds)
}

/// Endpoint over the dataset with the experiment's default page size.
pub fn build_endpoint(dataset: Arc<Dataset>) -> InProcessEndpoint {
    InProcessEndpoint::with_config(
        dataset,
        EndpointConfig {
            max_rows_per_request: 100_000,
            ..Default::default()
        },
    )
}

/// The DBpedia knowledge-graph handle with the paper's prefixes.
pub fn dbpedia_graph() -> KnowledgeGraph {
    KnowledgeGraph::new(uris::DBPEDIA)
        .with_prefix("dbpp", "http://dbpedia.org/property/")
        .with_prefix("dbpo", "http://dbpedia.org/ontology/")
        .with_prefix("dbpr", "http://dbpedia.org/resource/")
        .with_prefix("dcterms", "http://purl.org/dc/terms/")
}

/// The DBLP knowledge-graph handle with the paper's prefixes.
pub fn dblp_graph() -> KnowledgeGraph {
    KnowledgeGraph::new(uris::DBLP)
        .with_prefix("swrc", "http://swrc.ontoware.org/ontology#")
        .with_prefix("dc", "http://purl.org/dc/elements/1.1/")
        .with_prefix("dcterm", "http://purl.org/dc/terms/")
        .with_prefix("dblprc", "http://dblp.l3s.de/d2r/resource/conferences/")
}

/// The YAGO knowledge-graph handle.
pub fn yago_graph() -> KnowledgeGraph {
    KnowledgeGraph::new(uris::YAGO).with_prefix("yago", "http://yago-knowledge.org/resource/")
}

/// SPARQL prefix block shared by the expert queries.
pub fn expert_prefixes() -> &'static str {
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
     PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
     PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
     PREFIX dbpp: <http://dbpedia.org/property/>\n\
     PREFIX dbpo: <http://dbpedia.org/ontology/>\n\
     PREFIX dbpr: <http://dbpedia.org/resource/>\n\
     PREFIX dcterms: <http://purl.org/dc/terms/>\n\
     PREFIX swrc: <http://swrc.ontoware.org/ontology#>\n\
     PREFIX dc: <http://purl.org/dc/elements/1.1/>\n\
     PREFIX dcterm: <http://purl.org/dc/terms/>\n\
     PREFIX dblprc: <http://dblp.l3s.de/d2r/resource/conferences/>\n\
     PREFIX yago: <http://yago-knowledge.org/resource/>\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_three_graphs() {
        let ds = build_dataset(200);
        assert_eq!(ds.len(), 3);
        assert!(ds.graph(uris::DBPEDIA).unwrap().len() > 1000);
        assert!(ds.graph(uris::DBLP).unwrap().len() > 1000);
        assert!(ds.graph(uris::YAGO).unwrap().len() > 100);
    }
}
