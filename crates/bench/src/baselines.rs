//! The alternatives RDFFrames is compared against (Section 6.3.3).
//!
//! | name | what it models |
//! |---|---|
//! | [`rdfframes`] | optimized query generation, all work in the engine |
//! | [`naive`] | one subquery per operator, all work in the engine |
//! | [`navigation_plus_df`] | seed/expand via the engine, relational ops client-side |
//! | [`rdflib_plus_df`] | no engine at all: parse an N-Triples dump, everything client-side |
//! | [`sparql_plus_df`] | dump the graph with one trivial SPARQL query, everything client-side |
//! | [`expert_sparql`] | a hand-written query (the gold standard) |

use dataframe::DataFrame;
use rdf_model::{ntriples, Dataset};
use rdfframes_core::api::operators::{Node, Operator};
use rdfframes_core::reference::{apply_operators, DatasetResolver, FrameResolver};
use rdfframes_core::Result;
use rdfframes_core::{Executor, FrameError, InProcessEndpoint, RDFFrame};

/// RDFFrames proper: optimized single query, pushed to the engine.
pub fn rdfframes(frame: &RDFFrame, endpoint: &InProcessEndpoint) -> Result<DataFrame> {
    frame.execute(endpoint)
}

/// Naive query generation: per-operator subqueries, pushed to the engine.
pub fn naive(frame: &RDFFrame, endpoint: &InProcessEndpoint) -> Result<DataFrame> {
    frame.execute_naive(endpoint)
}

/// Expert-written SPARQL executed directly (with pagination).
pub fn expert_sparql(query: &str, endpoint: &InProcessEndpoint) -> Result<DataFrame> {
    Executor::new().run(query, endpoint)
}

/// Resolver that answers patterns and joined frames by querying the engine
/// for the *navigational* parts and doing relational work client-side.
struct EndpointResolver<'a> {
    endpoint: &'a InProcessEndpoint,
}

impl FrameResolver for EndpointResolver<'_> {
    fn resolve_frame(&self, frame: &RDFFrame) -> Result<DataFrame> {
        navigation_plus_df(frame, self.endpoint)
    }

    fn resolve_pattern(
        &self,
        frame: &RDFFrame,
        subject: &Node,
        predicate: &Node,
        object: &Node,
    ) -> Result<DataFrame> {
        let text = |n: &Node| match n {
            Node::Var(v) => format!("?{v}"),
            Node::Term(t) => t.clone(),
        };
        let pattern = frame
            .graph()
            .seed(&text(subject), &text(predicate), &text(object));
        pattern.execute(self.endpoint)
    }
}

/// "Navigation + pandas": only the navigational prefix (seed + expands up to
/// the first relational operator) runs as one SPARQL query; every remaining
/// operator executes client-side on dataframes. Joined frames are resolved
/// the same way, recursively.
pub fn navigation_plus_df(frame: &RDFFrame, endpoint: &InProcessEndpoint) -> Result<DataFrame> {
    let ops = frame.operators();
    let split = ops
        .iter()
        .position(|op| {
            !matches!(
                op,
                Operator::Seed { .. } | Operator::Expand { .. } | Operator::Cache
            )
        })
        .unwrap_or(ops.len());
    let resolver = EndpointResolver { endpoint };
    if split == 0 {
        return apply_operators(frame, ops, DataFrame::default(), &resolver);
    }
    let nav = RDFFrame::from_operators(frame.graph().clone(), ops[..split].to_vec());
    let df = nav.execute(endpoint)?;
    apply_operators(frame, &ops[split..], df, &resolver)
}

/// "rdflib + pandas": parse the graph from its N-Triples serialization and
/// evaluate every operator client-side. `nt_document` is the pre-serialized
/// dump (producing it is part of this baseline's setup, not its runtime,
/// matching the paper's use of an on-disk `.nt` file).
pub fn rdflib_plus_df(frame: &RDFFrame, nt_document: &str) -> Result<DataFrame> {
    let graph =
        ntriples::parse_into_graph(nt_document).map_err(|e| FrameError::Endpoint(e.to_string()))?;
    let mut ds = Dataset::new();
    ds.insert_graph(frame.graph().uri(), graph);
    let resolver = DatasetResolver::new(&ds);
    resolver.resolve_frame(frame)
}

/// "SPARQL + pandas": fetch the whole graph through the endpoint with one
/// trivial `SELECT ?s ?p ?o` query, rebuild it client-side, and evaluate all
/// operators there.
pub fn sparql_plus_df(frame: &RDFFrame, endpoint: &InProcessEndpoint) -> Result<DataFrame> {
    let dump = Executor::new().run(
        &format!(
            "SELECT ?s ?p ?o FROM <{}> WHERE {{ ?s ?p ?o }}",
            frame.graph().uri()
        ),
        endpoint,
    )?;
    // Rebuild a client-side graph from the dump.
    let mut graph = rdf_model::Graph::new();
    let (si, pi, oi) = (0usize, 1usize, 2usize);
    for row in dump.rows() {
        let term = |c: &dataframe::Cell| -> rdf_model::Term {
            match c {
                dataframe::Cell::Uri(u) => rdf_model::Term::iri(u.clone()),
                dataframe::Cell::Int(i) => rdf_model::Term::integer(*i),
                dataframe::Cell::Float(f) => rdf_model::Term::from(rdf_model::Literal::double(*f)),
                dataframe::Cell::Bool(b) => rdf_model::Term::from(rdf_model::Literal::boolean(*b)),
                dataframe::Cell::Str(s) => rdf_model::Term::string(s.clone()),
                dataframe::Cell::Null => rdf_model::Term::string(""),
            }
        };
        graph.insert(&rdf_model::Triple::new(
            term(&row[si]),
            term(&row[pi]),
            term(&row[oi]),
        ));
    }
    let mut ds = Dataset::new();
    ds.insert_graph(frame.graph().uri(), graph);
    let resolver = DatasetResolver::new(&ds);
    resolver.resolve_frame(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use rdfframes_core::reference::compare_unordered;

    fn frame() -> RDFFrame {
        data::dbpedia_graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country")
            .filter("country", &["=dbpr:United_States"])
            .group_by(&["actor"])
            .count("movie", "n", true)
            .filter("n", &[">=3"])
    }

    #[test]
    fn all_engine_baselines_agree() {
        let ds = data::build_dataset(150);
        let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));
        let f = frame();
        let a = rdfframes(&f, &endpoint).unwrap();
        assert!(!a.is_empty(), "threshold too strict for test scale");
        let b = naive(&f, &endpoint).unwrap();
        compare_unordered(&a, &b).unwrap();
        let c = navigation_plus_df(&f, &endpoint).unwrap();
        compare_unordered(&a, &c).unwrap();
        let d = sparql_plus_df(&f, &endpoint).unwrap();
        compare_unordered(&a, &d).unwrap();
    }

    #[test]
    fn rdflib_baseline_agrees() {
        let ds = data::build_dataset(150);
        let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));
        let f = frame();
        let a = rdfframes(&f, &endpoint).unwrap();
        let nt =
            rdf_model::ntriples::write_document(ds.graph_triples(data::uris::DBPEDIA).unwrap());
        let e = rdflib_plus_df(&f, &nt).unwrap();
        compare_unordered(&a, &e).unwrap();
    }

    #[test]
    fn navigation_split_handles_relational_only_suffix() {
        // A frame that is purely navigational: the split consumes all ops.
        let ds = data::build_dataset(100);
        let endpoint = data::build_endpoint(std::sync::Arc::clone(&ds));
        let f = data::dbpedia_graph().feature_domain_range("dbpp:starring", "movie", "actor");
        let a = rdfframes(&f, &endpoint).unwrap();
        let b = navigation_plus_df(&f, &endpoint).unwrap();
        compare_unordered(&a, &b).unwrap();
    }
}
