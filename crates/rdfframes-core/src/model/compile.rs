//! Query model → engine plan: the embedded path's view of the Translator.
//!
//! There is one translator. [`compile`] renders the [`QueryModel`] to
//! SPARQL text ([`render`]) and reads that text with the engine's own
//! `parse_query → translate_query`, so the plan the embedded path runs is
//! the plan the wire path runs by construction, and every input check
//! (literal positions, the `a` keyword, unknown prefixes, raw filter text)
//! lives once, in the parser. The embedded endpoint itself goes through
//! [`sparql_engine::Engine::prepare`] on the same rendered text, which is
//! also its plan-cache key.

use sparql_engine::algebra::{translate_query, Plan};
use sparql_engine::parser::parse_query;

use crate::error::{FrameError, Result};

use super::{render::render, QueryModel};

/// A query model translated to an (unoptimized) engine plan plus the `FROM`
/// graph list that resolves [`GraphRef::Default`](sparql_engine::algebra::GraphRef::Default)
/// BGPs. Feed it to [`sparql_engine::Engine::prepare_plan`] for the
/// optimizer pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    /// The translated logical plan (pre-optimizer).
    pub plan: Plan,
    /// Graphs the default graph resolves to (empty for cross-graph models,
    /// whose BGPs are all explicitly graph-qualified).
    pub from: Vec<String>,
}

/// Translate a query model to the engine algebra: render, parse, translate.
/// A model the parser or translator rejects is a [`FrameError::Compile`].
pub fn compile(model: &QueryModel) -> Result<CompiledQuery> {
    let sparql = render(model);
    let compile_error = |e: sparql_engine::EngineError| FrameError::Compile(e.to_string());
    let parsed = parse_query(&sparql).map_err(compile_error)?;
    let plan = translate_query(&parsed).map_err(compile_error)?;
    Ok(CompiledQuery {
        plan,
        from: parsed.from,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rdf_model::term::Literal;
    use rdf_model::{vocab, Dataset, Graph, Term};
    use sparql_engine::ast::PatternTerm;

    use super::*;
    use crate::api::{JoinType, KnowledgeGraph, RDFFrame, SortOrder};
    use crate::model::generator;
    use crate::EmbeddedEndpoint;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::new("http://dbpedia.org")
            .with_prefix("dbpp", "http://dbpedia.org/property/")
            .with_prefix("dbpo", "http://dbpedia.org/ontology/")
            .with_prefix("dbpr", "http://dbpedia.org/resource/")
    }

    /// `compile`'s contract: its plan, once optimized with
    /// [`sparql_engine::Engine::prepare_plan`], is the plan the embedded
    /// endpoint prepared from the rendered text and runs for the model.
    fn assert_mirrors(frame: &RDFFrame) {
        let model = generator::build_query_model(frame).unwrap();
        let compiled = compile(&model).unwrap();
        let mut ds = Dataset::new();
        ds.insert_graph("http://dbpedia.org", Graph::new());
        ds.insert_graph("http://yago-knowledge.org", Graph::new());
        let endpoint = EmbeddedEndpoint::new(Arc::new(ds));
        endpoint.execute_model_direct(&model).unwrap();
        let cached = endpoint
            .cached_model_plan(&model)
            .expect("the embedded execution cached no plan");
        assert_eq!(
            *cached,
            endpoint.engine().prepare_plan(compiled.plan, compiled.from),
            "compile diverges from the embedded text path for:\n{}",
            render(&model)
        );
    }

    #[test]
    fn flat_expand_filter_mirrors_text_path() {
        assert_mirrors(
            &graph()
                .feature_domain_range("dbpp:starring", "movie", "actor")
                .expand("actor", "dbpp:birthPlace", "country")
                .filter("country", &["=dbpr:United_States"]),
        );
    }

    #[test]
    fn grouped_having_mirrors_text_path() {
        assert_mirrors(
            &graph()
                .feature_domain_range("dbpp:starring", "movie", "actor")
                .group_by(&["actor"])
                .count("movie", "movie_count", true)
                .filter("movie_count", &[">=50"]),
        );
    }

    #[test]
    fn nested_subquery_after_group_mirrors_text_path() {
        assert_mirrors(
            &graph()
                .feature_domain_range("dbpp:starring", "movie", "actor")
                .group_by(&["actor"])
                .count("movie", "n", true)
                .expand("actor", "dbpp:birthPlace", "c"),
        );
    }

    #[test]
    fn optional_union_sort_head_mirror_text_path() {
        let movies = graph().feature_domain_range("dbpp:starring", "movie", "actor");
        assert_mirrors(
            &movies
                .clone()
                .expand_optional("movie", "dbpo:genre", "genre"),
        );
        assert_mirrors(&movies.clone().join(
            &graph().feature_domain_range("dbpp:academyAward", "actor", "award"),
            "actor",
            JoinType::Outer,
        ));
        assert_mirrors(&movies.clone().sort(&[("movie", SortOrder::Desc)]).head(10));
        assert_mirrors(&movies.select_cols(&["actor"]));
    }

    #[test]
    fn cross_graph_join_mirrors_text_path() {
        let yago = KnowledgeGraph::new("http://yago-knowledge.org")
            .with_prefix("y", "http://yago-knowledge.org/resource/");
        let a = graph().feature_domain_range("dbpp:starring", "movie", "actor");
        let b = yago.seed("?actor", "rdf:type", "y:Actor");
        assert_mirrors(&a.join(&b, "actor", JoinType::Inner));
    }

    #[test]
    fn condition_vocabulary_mirrors_text_path() {
        let movies = graph().feature_domain_range("dbpp:starring", "movie", "actor");
        assert_mirrors(&movies.clone().filter("actor", &["isURI"]));
        assert_mirrors(&movies.clone().filter("actor", &["regex(\"Smith\", \"i\")"]));
        assert_mirrors(
            &movies
                .clone()
                .filter("actor", &["In(dbpr:A, dbpr:B)", "NotIn(dbpr:C)"]),
        );
        assert_mirrors(&movies.clone().filter("movie", &["!=dbpr:Some_Movie"]));
        assert_mirrors(
            &movies
                .clone()
                .expand("movie", "dbpp:runtime", "rt")
                .filter("rt", &[">=100", "<250"]),
        );
        assert_mirrors(
            &movies
                .clone()
                .expand("movie", "dbpp:released", "date")
                .filter("date", &["year>=2005"]),
        );
        assert_mirrors(&movies.filter_raw("year(xsd:dateTime(?movie)) >= 2005 || isIRI(?actor)"));
    }

    #[test]
    fn negative_and_float_condition_values() {
        let movies = graph()
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("movie", "dbpp:runtime", "rt");
        assert_mirrors(&movies.clone().filter("rt", &[">=-10"]));
        assert_mirrors(&movies.filter("rt", &["<99.5"]));
    }

    #[test]
    fn unknown_prefix_is_a_compile_error() {
        let f = KnowledgeGraph::new("http://g").seed("?s", "nope:pred", "?o");
        let model = generator::build_query_model(&f).unwrap();
        assert!(matches!(
            compile(&model),
            Err(FrameError::Compile(msg)) if msg.contains("nope")
        ));
    }

    /// SPARQL's term positions, enforced once — by the parser reading the
    /// rendered text — for `compile` and the embedded endpoint alike.
    #[test]
    fn literal_positions_enforced() {
        let g = KnowledgeGraph::new("http://g").with_prefix("x", "http://x/");
        let endpoint = EmbeddedEndpoint::new(Arc::new(Dataset::new()));
        let rejected = [
            ("\"lit\"", "x:p", "?o"),
            ("42", "x:p", "?o"),
            ("true", "x:p", "?o"),
            ("?s", "\"lit\"", "?o"),
            ("a", "x:p", "?o"),
            ("?s", "x:p", "a"),
            ("?s", "x:p", "-5"),
        ];
        for (s, p, o) in rejected {
            let model = generator::build_query_model(&g.seed(s, p, o)).unwrap();
            assert!(
                matches!(compile(&model), Err(FrameError::Compile(_))),
                "{s} {p} {o}: {:?}",
                compile(&model)
            );
            assert!(
                matches!(
                    endpoint.execute_model_direct(&model),
                    Err(FrameError::Compile(_))
                ),
                "{s} {p} {o}: the embedded endpoint must refuse it too"
            );
        }

        let accepted = [
            (
                "?s",
                "x:p",
                "\"hi\"@en",
                Term::from(Literal::lang_string("hi", "en")),
            ),
            (
                "?s",
                "x:p",
                "\"5\"^^xsd:integer",
                Term::from(Literal::typed("5", vocab::xsd::INTEGER)),
            ),
            ("?s", "x:p", "42", Term::integer(42)),
            ("?s", "x:p", "true", Term::from(Literal::boolean(true))),
            ("?s", "a", "x:T", Term::iri("http://x/T")),
        ];
        for (s, p, o, want) in accepted {
            let model = generator::build_query_model(&g.seed(s, p, o)).unwrap();
            let Plan::Project(_, input) = compile(&model).unwrap().plan else {
                panic!("{s} {p} {o}: expected a projection");
            };
            let Plan::Bgp { patterns, .. } = *input else {
                panic!("{s} {p} {o}: expected one BGP");
            };
            assert_eq!(patterns[0].object, PatternTerm::Const(want), "{s} {p} {o}");
            if p == "a" {
                let rdf_type = PatternTerm::Const(Term::iri(vocab::rdf::TYPE));
                assert_eq!(patterns[0].predicate, rdf_type);
            }
        }
    }
}
