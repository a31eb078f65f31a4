//! The paper's motivating example (Listings 1 & 2): the RDFFrames code for
//! "prolific American actors and their academy awards" must produce the
//! same dataframe as the expert-written SPARQL query.

use std::sync::Arc;

use rdfframes::api::Direction;
use rdfframes::datagen::{generate_dbpedia, DbpediaConfig};
use rdfframes::rdf::Dataset;
use rdfframes::reference::compare_unordered;
use rdfframes::{Executor, InProcessEndpoint, KnowledgeGraph, RDFFrame};

fn setup() -> (InProcessEndpoint, KnowledgeGraph) {
    let mut ds = Dataset::new();
    ds.insert_graph(
        "http://dbpedia.org",
        generate_dbpedia(&DbpediaConfig::tiny()),
    );
    let endpoint = InProcessEndpoint::new(Arc::new(ds));
    let graph = KnowledgeGraph::new("http://dbpedia.org")
        .with_prefix("dbpp", "http://dbpedia.org/property/")
        .with_prefix("dbpr", "http://dbpedia.org/resource/");
    (endpoint, graph)
}

/// Listing 1, with the prolific threshold lowered to fit the tiny graph.
fn listing1(graph: &KnowledgeGraph, threshold: usize) -> RDFFrame {
    let movies = graph.feature_domain_range("dbpp:starring", "movie", "actor");
    let american = movies
        .expand("actor", "dbpp:birthPlace", "country")
        .filter("country", &["=dbpr:United_States"]);
    let prolific = american
        .group_by(&["actor"])
        .count("movie", "movie_count", true)
        .filter("movie_count", &[&format!(">={threshold}")]);
    prolific
        .expand_dir("actor", "dbpp:starring", "movie", Direction::In, false)
        .expand_dir("actor", "dbpp:academyAward", "award", Direction::Out, true)
}

/// Listing 2: the expert-written query (threshold parameterized).
fn listing2(threshold: usize) -> String {
    format!(
        "PREFIX dbpp: <http://dbpedia.org/property/>\n\
         PREFIX dbpr: <http://dbpedia.org/resource/>\n\
         SELECT *\n\
         FROM <http://dbpedia.org>\n\
         WHERE\n\
         {{ ?movie dbpp:starring ?actor\n\
            {{ SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count)\n\
               WHERE\n\
               {{ ?movie dbpp:starring ?actor .\n\
                  ?actor dbpp:birthPlace ?actor_country\n\
                  FILTER ( ?actor_country = dbpr:United_States )\n\
               }}\n\
               GROUP BY ?actor\n\
               HAVING ( COUNT(DISTINCT ?movie) >= {threshold} )\n\
            }}\n\
            OPTIONAL\n\
            {{ ?actor dbpp:academyAward ?award }}\n\
         }}"
    )
}

#[test]
fn generated_sparql_has_the_expert_shape() {
    let (_, graph) = setup();
    let q = listing1(&graph, 50).to_sparql().unwrap();
    assert!(q.contains("GROUP BY ?actor"), "{q}");
    assert!(q.contains("HAVING ( COUNT(DISTINCT ?movie) >= 50 )"), "{q}");
    assert!(q.contains("OPTIONAL"), "{q}");
    // One nested subquery for the grouped frame, none deeper.
    let nesting = q.matches("SELECT DISTINCT").count();
    assert_eq!(nesting, 1, "{q}");
}

#[test]
fn rdfframes_equals_expert_sparql() {
    let (endpoint, graph) = setup();
    let threshold = 4;
    let frame = listing1(&graph, threshold);
    let ours = frame.execute(&endpoint).unwrap();
    assert!(!ours.is_empty(), "threshold too high for the tiny graph");

    let expert = Executor::new()
        .run(&listing2(threshold), &endpoint)
        .unwrap();
    // The expert query binds ?actor_country inside the subquery only, so
    // the column sets match after projecting ours onto the expert's.
    let ours_proj = ours.select(
        &expert
            .columns()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    compare_unordered(&ours_proj, &expert).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn prolific_actors_actually_prolific() {
    let (endpoint, graph) = setup();
    let threshold = 4;
    let df = listing1(&graph, threshold).execute(&endpoint).unwrap();
    let count_idx = df.column_index("movie_count").unwrap();
    for row in df.rows() {
        let n = row[count_idx].as_i64().unwrap();
        assert!(n >= threshold as i64);
    }
    // Every returned actor is American by construction of the filter; the
    // award column is optional so some rows may be null there.
    let award_idx = df.column_index("award").unwrap();
    let with_award = df.rows().iter().filter(|r| !r[award_idx].is_null()).count();
    let without = df.len() - with_award;
    assert!(without > 0 || with_award > 0);
}
