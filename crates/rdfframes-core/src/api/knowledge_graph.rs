//! Knowledge-graph handles and RDFFrame initializers.

use std::sync::Arc;

use rdf_model::PrefixMap;

use super::operators::{Node, Operator};
use super::rdfframe::RDFFrame;

/// A reference to a knowledge graph stored in an RDF engine, identified by
/// its graph URI, plus the prefix declarations used by API calls.
///
/// This is a lightweight handle (paper Definition 1): no data is loaded; it
/// only names the graph that generated queries will address.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    inner: Arc<GraphInfo>,
}

#[derive(Debug)]
pub(crate) struct GraphInfo {
    pub(crate) uri: String,
    pub(crate) prefixes: PrefixMap,
}

impl KnowledgeGraph {
    /// Handle for the graph at `uri`, with the standard `rdf:`, `rdfs:`,
    /// `xsd:` prefixes pre-declared.
    pub fn new(uri: impl Into<String>) -> Self {
        KnowledgeGraph {
            inner: Arc::new(GraphInfo {
                uri: uri.into(),
                prefixes: PrefixMap::with_defaults(),
            }),
        }
    }

    /// Declare a prefix (builder style).
    pub fn with_prefix(self, prefix: &str, namespace: &str) -> Self {
        let mut info = GraphInfo {
            uri: self.inner.uri.clone(),
            prefixes: self.inner.prefixes.clone(),
        };
        info.prefixes.declare(prefix, namespace);
        KnowledgeGraph {
            inner: Arc::new(info),
        }
    }

    /// The graph URI.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// The declared prefixes.
    pub fn prefixes(&self) -> &PrefixMap {
        &self.inner.prefixes
    }

    /// The fundamental initializer (paper: `G.seed(col1, col2, col3)`):
    /// evaluates one triple pattern. Positions starting with `?` are
    /// columns; anything else is a constant (CURIE or IRI).
    ///
    /// ```
    /// # use rdfframes_core::api::KnowledgeGraph;
    /// let g = KnowledgeGraph::new("http://dbpedia.org");
    /// let instances = g.seed("?instance", "rdf:type", "dbpo:Film");
    /// ```
    pub fn seed(&self, subject: &str, predicate: &str, object: &str) -> RDFFrame {
        let node = |s: &str| match s.strip_prefix('?') {
            Some(v) => Node::Var(v.to_string()),
            None => Node::Term(s.to_string()),
        };
        RDFFrame::start(
            self.clone(),
            Operator::Seed {
                subject: node(subject),
                predicate: node(predicate),
                object: node(object),
            },
        )
    }

    /// All `(domain, range)` pairs connected by `predicate` — the
    /// `feature_domain_range` initializer from the paper's listings.
    pub fn feature_domain_range(&self, predicate: &str, domain: &str, range: &str) -> RDFFrame {
        self.seed(&format!("?{domain}"), predicate, &format!("?{range}"))
    }

    /// All instances of an RDF class: `entities('swrc:InProceedings',
    /// 'paper')`.
    pub fn entities(&self, class: &str, column: &str) -> RDFFrame {
        self.seed(&format!("?{column}"), "rdf:type", class)
    }

    /// Exploration operator: every class in the graph with its instance
    /// count, largest first. Returns a frame with columns `[class, frequency]`.
    pub fn classes_and_frequencies(&self) -> RDFFrame {
        self.seed("?instance", "rdf:type", "?class")
            .group_by(&["class"])
            .count("instance", "frequency", false)
            .sort(&[("frequency", super::SortOrder::Desc)])
    }

    /// Exploration operator: every predicate with its triple count, largest
    /// first. Returns a frame with columns `[predicate, frequency]`.
    pub fn predicates_and_frequencies(&self) -> RDFFrame {
        self.seed("?subject", "?predicate", "?object")
            .group_by(&["predicate"])
            .count("subject", "frequency", false)
            .sort(&[("frequency", super::SortOrder::Desc)])
    }

    /// Keyword-search exploration (the paper's stated future work,
    /// Section 7): entities whose `rdfs:label` matches `keyword`
    /// case-insensitively. Returns columns `[entity, label]`.
    pub fn search_by_label(&self, keyword: &str) -> RDFFrame {
        self.seed("?entity", "rdfs:label", "?label").filter(
            "label",
            &[&format!("regex(\"{}\", \"i\")", keyword.replace('"', ""))],
        )
    }

    /// Exploration operator: the predicates used by instances of a class,
    /// with usage counts — the "compute the data distributions of these
    /// classes" helper from Section 3.2. Columns `[predicate, frequency]`.
    pub fn class_predicates(&self, class: &str) -> RDFFrame {
        self.seed("?instance", "rdf:type", class)
            .expand_dir(
                "instance",
                "?predicate",
                "value",
                super::Direction::Out,
                false,
            )
            .group_by(&["predicate"])
            .count("instance", "frequency", false)
            .sort(&[("frequency", super::SortOrder::Desc)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parses_vars_and_terms() {
        let g = KnowledgeGraph::new("http://dbpedia.org");
        let f = g.seed("?movie", "dbpp:starring", "?actor");
        assert_eq!(f.columns(), vec!["movie", "actor"]);
    }

    #[test]
    fn entities_uses_rdf_type() {
        let g = KnowledgeGraph::new("http://dblp.l3s.de");
        let f = g.entities("swrc:InProceedings", "paper");
        assert_eq!(f.columns(), vec!["paper"]);
        let sparql = f.to_sparql().unwrap();
        assert!(sparql.contains("rdf:type"), "{sparql}");
    }

    #[test]
    fn prefixes_accumulate() {
        let g = KnowledgeGraph::new("http://x")
            .with_prefix("a", "http://a/")
            .with_prefix("b", "http://b/");
        assert_eq!(g.prefixes().namespace("a"), Some("http://a/"));
        assert_eq!(g.prefixes().namespace("b"), Some("http://b/"));
        assert_eq!(
            g.prefixes().namespace("rdf"),
            Some(rdf_model::vocab::rdf::NS)
        );
    }

    #[test]
    fn exploration_operators_generate_grouping() {
        let g = KnowledgeGraph::new("http://x");
        let classes = g.classes_and_frequencies();
        let q = classes.to_sparql().unwrap();
        assert!(q.contains("GROUP BY ?class"), "{q}");
        assert!(q.contains("COUNT"), "{q}");
        assert!(q.contains("ORDER BY"), "{q}");
    }
}
