//! Golden tests: the SPARQL shapes RDFFrames generates for the paper's
//! listings and for every operator of Table 1.

use rdfframes_core::api::{Direction, JoinType, KnowledgeGraph};

fn graph() -> KnowledgeGraph {
    KnowledgeGraph::new("http://dbpedia.org")
        .with_prefix("dbpp", "http://dbpedia.org/property/")
        .with_prefix("dbpo", "http://dbpedia.org/ontology/")
        .with_prefix("dbpr", "http://dbpedia.org/resource/")
}

/// Normalize whitespace for shape comparisons.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

// ---- Table 1: operator → pattern mappings ------------------------------

#[test]
fn table1_seed_projects_pattern_vars() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .to_sparql()
        .unwrap();
    assert!(q.contains("?movie dbpp:starring ?actor ."), "{q}");
    assert!(q.contains("SELECT *"), "{q}");
}

#[test]
fn table1_expand_out_joins_triple() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .expand_dir("actor", "dbpp:birthPlace", "country", Direction::Out, false)
        .to_sparql()
        .unwrap();
    assert!(q.contains("?actor dbpp:birthPlace ?country ."), "{q}");
    assert!(!q.contains("OPTIONAL"), "{q}");
}

#[test]
fn table1_expand_in_flips_subject_object() {
    let q = graph()
        .seed("?actor", "dbpp:birthPlace", "?c")
        .expand_dir("actor", "dbpp:starring", "movie", Direction::In, false)
        .to_sparql()
        .unwrap();
    assert!(q.contains("?movie dbpp:starring ?actor ."), "{q}");
}

#[test]
fn table1_expand_optional_left_joins() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .expand_dir("actor", "dbpp:academyAward", "award", Direction::Out, true)
        .to_sparql()
        .unwrap();
    let sq = squash(&q);
    assert!(
        sq.contains("OPTIONAL { ?actor dbpp:academyAward ?award . }"),
        "{q}"
    );
}

#[test]
fn table1_filter_renders_conditions() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .filter("actor", &["isURI"])
        .to_sparql()
        .unwrap();
    assert!(q.contains("FILTER ( isIRI(?actor) )"), "{q}");
}

#[test]
fn table1_select_cols_projects() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .select_cols(&["movie"])
        .to_sparql()
        .unwrap();
    assert!(q.contains("SELECT ?movie\n"), "{q}");
}

#[test]
fn table1_inner_join_merges_patterns() {
    let g = graph();
    let a = g.seed("?movie", "dbpp:starring", "?actor");
    let b = g.seed("?actor", "dbpp:birthPlace", "?c");
    let q = a.join(&b, "actor", JoinType::Inner).to_sparql().unwrap();
    // Flat merge: both triples at the same level, no subquery.
    assert!(q.contains("?movie dbpp:starring ?actor ."), "{q}");
    assert!(q.contains("?actor dbpp:birthPlace ?c ."), "{q}");
    assert!(
        !q.contains("SELECT *\n    WHERE"),
        "no nesting expected:\n{q}"
    );
}

#[test]
fn table1_left_join_wraps_right_in_optional() {
    let g = graph();
    let a = g.seed("?movie", "dbpp:starring", "?actor");
    let b = g.seed("?actor", "dbpp:academyAward", "?aw");
    let q = a.join(&b, "actor", JoinType::Left).to_sparql().unwrap();
    let sq = squash(&q);
    assert!(
        sq.contains("OPTIONAL { ?actor dbpp:academyAward ?aw . }"),
        "{q}"
    );
}

#[test]
fn table1_right_join_swaps_operands() {
    let g = graph();
    let a = g.seed("?movie", "dbpp:starring", "?actor");
    let b = g.seed("?actor", "dbpp:academyAward", "?aw");
    let q = a.join(&b, "actor", JoinType::Right).to_sparql().unwrap();
    let sq = squash(&q);
    // The left operand's pattern lands in the OPTIONAL block.
    assert!(
        sq.contains("OPTIONAL { ?movie dbpp:starring ?actor . }"),
        "{q}"
    );
}

#[test]
fn table1_full_outer_join_is_union_of_two_leftjoins() {
    let g = graph();
    let a = g.seed("?movie", "dbpp:starring", "?actor");
    let b = g.seed("?actor", "dbpp:academyAward", "?aw");
    let q = a.join(&b, "actor", JoinType::Outer).to_sparql().unwrap();
    assert_eq!(q.matches("UNION").count(), 1, "{q}");
    assert_eq!(q.matches("OPTIONAL").count(), 2, "{q}");
}

#[test]
fn table1_groupby_aggregation_projects_keys_and_aggregate() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .group_by(&["actor"])
        .count("movie", "n", true)
        .to_sparql()
        .unwrap();
    assert!(
        q.contains("SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?n)"),
        "{q}"
    );
    assert!(q.contains("GROUP BY ?actor"), "{q}");
}

#[test]
fn table1_whole_frame_aggregate() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .aggregate(rdfframes_core::AggFunc::Count, "movie", "total")
        .to_sparql()
        .unwrap();
    assert!(q.contains("(COUNT(?movie) AS ?total)"), "{q}");
    assert!(!q.contains("GROUP BY"), "{q}");
}

#[test]
fn sort_and_head_render_modifiers() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .sort(&[
            ("actor", rdfframes_core::SortOrder::Asc),
            ("movie", rdfframes_core::SortOrder::Desc),
        ])
        .head_offset(10, 5)
        .to_sparql()
        .unwrap();
    assert!(q.contains("ORDER BY ASC(?actor) DESC(?movie)"), "{q}");
    assert!(q.contains("LIMIT 10"), "{q}");
    assert!(q.contains("OFFSET 5"), "{q}");
}

// ---- Listing-level golden shapes ----------------------------------------

#[test]
fn listing2_shape_single_nested_subquery() {
    // The motivating example compiles to exactly the expert query's shape:
    // one grouped subquery, one OPTIONAL, everything else flat.
    let movies = graph().feature_domain_range("dbpp:starring", "movie", "actor");
    let q = movies
        .clone()
        .expand("actor", "dbpp:birthPlace", "country")
        .filter("country", &["=dbpr:United_States"])
        .group_by(&["actor"])
        .count("movie", "movie_count", true)
        .filter("movie_count", &[">=50"])
        .expand_dir("actor", "dbpp:starring", "movie", Direction::In, false)
        .expand_dir("actor", "dbpp:academyAward", "award", Direction::Out, true)
        .to_sparql()
        .unwrap();
    assert_eq!(q.matches("SELECT").count(), 2, "exactly one subquery:\n{q}");
    assert_eq!(q.matches("OPTIONAL").count(), 1, "{q}");
    assert!(q.contains("HAVING ( COUNT(DISTINCT ?movie) >= 50 )"), "{q}");
    assert!(
        q.contains("FILTER ( ?country = dbpr:United_States )"),
        "{q}"
    );
}

#[test]
fn naive_translation_wraps_every_pattern() {
    let q = graph()
        .feature_domain_range("dbpp:starring", "movie", "actor")
        .expand("actor", "dbpp:birthPlace", "country")
        .filter("country", &["=dbpr:United_States"])
        .to_naive_sparql()
        .unwrap();
    // Three subqueries: seed, expand, filter-with-repeated-pattern.
    assert_eq!(q.matches("SELECT").count(), 4, "{q}");
}

#[test]
fn generated_queries_declare_used_prefixes() {
    let q = graph()
        .seed("?movie", "dbpp:starring", "?actor")
        .filter("actor", &["=dbpr:X"])
        .to_sparql()
        .unwrap();
    assert!(
        q.contains("PREFIX dbpp: <http://dbpedia.org/property/>"),
        "{q}"
    );
    assert!(
        q.contains("PREFIX dbpr: <http://dbpedia.org/resource/>"),
        "{q}"
    );
}

#[test]
fn from_clause_names_the_graph() {
    let q = graph().seed("?s", "?p", "?o").to_sparql().unwrap();
    assert!(q.contains("FROM <http://dbpedia.org>"), "{q}");
}

#[test]
fn cross_graph_join_uses_graph_blocks_not_from() {
    let yago = KnowledgeGraph::new("http://yago-knowledge.org");
    let a = graph().seed("?actor", "dbpp:birthPlace", "dbpr:United_States");
    let b = yago.seed("?actor", "rdf:type", "<http://yago/Actor>");
    let q = a.join(&b, "actor", JoinType::Inner).to_sparql().unwrap();
    assert!(!q.contains("FROM"), "{q}");
    assert!(q.contains("GRAPH <http://dbpedia.org>"), "{q}");
    assert!(q.contains("GRAPH <http://yago-knowledge.org>"), "{q}");
}
