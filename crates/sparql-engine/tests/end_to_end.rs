//! End-to-end engine tests: SPARQL text in, solution tables out.

use std::sync::Arc;

use rdf_model::{Dataset, Graph, Literal, Term, Triple};
use sparql_engine::{Engine, EngineConfig};

fn iri(s: &str) -> Term {
    Term::iri(s.to_string())
}

/// A small movie graph mirroring the paper's running example.
fn movie_graph() -> Graph {
    let mut g = Graph::new();
    let starring = iri("http://dbpedia.org/property/starring");
    let birth_place = iri("http://dbpedia.org/property/birthPlace");
    let award = iri("http://dbpedia.org/property/academyAward");
    let usa = iri("http://dbpedia.org/resource/United_States");
    let uk = iri("http://dbpedia.org/resource/United_Kingdom");

    // actor1 (US): 3 movies, has award. actor2 (US): 1 movie.
    // actor3 (UK): 2 movies.
    let actors = [
        ("actor1", &usa, 3, true),
        ("actor2", &usa, 1, false),
        ("actor3", &uk, 2, false),
    ];
    for (name, place, movies, has_award) in actors {
        let a = iri(&format!("http://dbpedia.org/resource/{name}"));
        g.insert(&Triple::new(
            a.clone(),
            birth_place.clone(),
            (*place).clone(),
        ));
        for m in 0..movies {
            let movie = iri(&format!("http://dbpedia.org/resource/{name}_movie{m}"));
            g.insert(&Triple::new(movie, starring.clone(), a.clone()));
        }
        if has_award {
            g.insert(&Triple::new(
                a.clone(),
                award.clone(),
                iri("http://dbpedia.org/resource/Oscar"),
            ));
        }
    }
    g
}

fn engine() -> Engine {
    let mut ds = Dataset::new();
    ds.insert_graph("http://dbpedia.org", movie_graph());
    Engine::new(Arc::new(ds))
}

const PREFIXES: &str = "PREFIX dbpp: <http://dbpedia.org/property/>\n\
                        PREFIX dbpr: <http://dbpedia.org/resource/>\n";

#[test]
fn basic_bgp() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?movie ?actor FROM <http://dbpedia.org> \
         WHERE {{ ?movie dbpp:starring ?actor }}"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.vars(), ["movie", "actor"]);
    assert_eq!(t.len(), 6);
}

#[test]
fn filter_on_equality() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?actor FROM <http://dbpedia.org> WHERE {{ \
            ?movie dbpp:starring ?actor . \
            ?actor dbpp:birthPlace ?c \
            FILTER ( ?c = dbpr:United_States ) }}"
    );
    let t = e.execute(&q).unwrap();
    // actor1 appears 3 times (3 movies), actor2 once: bag semantics.
    assert_eq!(t.len(), 4);
}

#[test]
fn group_by_having() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?n) \
         FROM <http://dbpedia.org> \
         WHERE {{ ?movie dbpp:starring ?actor }} \
         GROUP BY ?actor HAVING ( COUNT(DISTINCT ?movie) >= 2 )"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 2); // actor1 (3), actor3 (2)
    for n in t.column("n").unwrap() {
        let n = n.unwrap();
        assert!(matches!(n, Term::Literal(l) if l.as_f64().unwrap() >= 2.0));
    }
}

#[test]
fn optional_keeps_unmatched() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?actor ?aw FROM <http://dbpedia.org> WHERE {{ \
            ?actor dbpp:birthPlace ?c \
            OPTIONAL {{ ?actor dbpp:academyAward ?aw }} }}"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 3);
    let bound = t.column("aw").unwrap().filter(Option::is_some).count();
    assert_eq!(bound, 1);
}

#[test]
fn union_merges_branches() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?x FROM <http://dbpedia.org> WHERE {{ \
            {{ ?x dbpp:academyAward ?a }} UNION {{ ?x dbpp:birthPlace dbpr:United_Kingdom }} }}"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 2); // actor1 via award, actor3 via UK birthplace
}

#[test]
fn subquery_with_aggregation() {
    // The paper's prolific-actors shape (Listing 2, threshold 2).
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT * FROM <http://dbpedia.org> WHERE {{ \
            ?movie dbpp:starring ?actor \
            {{ SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count) WHERE {{ \
                ?movie dbpp:starring ?actor . \
                ?actor dbpp:birthPlace ?actor_country \
                FILTER ( ?actor_country = dbpr:United_States ) }} \
               GROUP BY ?actor HAVING ( COUNT(DISTINCT ?movie) >= 2 ) }} \
            OPTIONAL {{ ?actor dbpp:academyAward ?award }} }}"
    );
    let t = e.execute(&q).unwrap();
    // Only actor1 is prolific-American: 3 movies × 1 award = 3 rows.
    assert_eq!(t.len(), 3);
    for actor in t.column("actor").unwrap() {
        assert_eq!(actor.unwrap(), &iri("http://dbpedia.org/resource/actor1"));
    }
    assert!(t.column("award").unwrap().all(|a| a.is_some()));
}

#[test]
fn order_limit_offset() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?movie FROM <http://dbpedia.org> \
         WHERE {{ ?movie dbpp:starring ?actor }} ORDER BY ?movie LIMIT 2 OFFSET 1"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 2);
    let movies: Vec<_> = t
        .column("movie")
        .unwrap()
        .map(|m| m.unwrap().str_value())
        .collect();
    assert!(movies[0] < movies[1]);
}

#[test]
fn distinct_deduplicates() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT DISTINCT ?actor FROM <http://dbpedia.org> \
         WHERE {{ ?movie dbpp:starring ?actor }}"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 3);
}

#[test]
fn regex_filter() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?actor ?c FROM <http://dbpedia.org> WHERE {{ \
            ?actor dbpp:birthPlace ?c FILTER regex(str(?c), \"United_States\") }}"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 2);
}

#[test]
fn is_iri_filter() {
    let mut g = movie_graph();
    g.insert(&Triple::new(
        iri("http://dbpedia.org/resource/actor1"),
        iri("http://www.w3.org/2000/01/rdf-schema#label"),
        Term::from(Literal::lang_string("Actor One", "en")),
    ));
    let mut ds = Dataset::new();
    ds.insert_graph("http://dbpedia.org", g);
    let e = Engine::new(Arc::new(ds));
    let q = "SELECT * FROM <http://dbpedia.org> WHERE { ?s ?p ?o . FILTER ( isIRI(?o) ) }";
    let t = e.execute(q).unwrap();
    assert!(t.column("o").unwrap().all(|o| o.unwrap().is_iri()));
    assert_eq!(t.len(), 10); // all but the one literal label triple
}

#[test]
fn cross_graph_join_with_graph_clause() {
    let mut db = Graph::new();
    db.insert(&Triple::new(
        iri("http://dbpedia.org/resource/actorX"),
        iri("http://dbpedia.org/property/birthPlace"),
        iri("http://dbpedia.org/resource/United_States"),
    ));
    let mut yago = Graph::new();
    yago.insert(&Triple::new(
        iri("http://dbpedia.org/resource/actorX"),
        iri("http://yago/actedIn"),
        iri("http://yago/movieY"),
    ));
    let mut ds = Dataset::new();
    ds.insert_graph("http://dbpedia.org", db);
    ds.insert_graph("http://yago-knowledge.org", yago);
    let e = Engine::new(Arc::new(ds));
    let q = "SELECT ?a ?m WHERE { \
        GRAPH <http://dbpedia.org> { ?a <http://dbpedia.org/property/birthPlace> ?c } \
        GRAPH <http://yago-knowledge.org> { ?a <http://yago/actedIn> ?m } }";
    let t = e.execute(q).unwrap();
    assert_eq!(t.len(), 1);
}

#[test]
fn unknown_graph_errors() {
    let e = engine();
    let q = "SELECT * FROM <http://nope.example> WHERE { ?s ?p ?o }";
    assert!(matches!(
        e.execute(q),
        Err(sparql_engine::EngineError::UnknownGraph(_))
    ));
}

#[test]
fn optimizer_and_naive_agree() {
    let ds = {
        let mut ds = Dataset::new();
        ds.insert_graph("http://dbpedia.org", movie_graph());
        Arc::new(ds)
    };
    let opt = Engine::new(Arc::clone(&ds));
    let noopt = Engine::with_config(
        ds,
        EngineConfig {
            optimize: false,
            ..EngineConfig::new()
        },
    );
    let q = format!(
        "{PREFIXES} SELECT ?movie ?actor ?c FROM <http://dbpedia.org> WHERE {{ \
            ?movie dbpp:starring ?actor . \
            ?actor dbpp:birthPlace ?c . \
            ?actor dbpp:academyAward ?aw }}"
    );
    let mut a = opt.execute(&q).unwrap();
    let mut b = noopt.execute(&q).unwrap();
    a.canonicalize();
    b.canonicalize();
    assert_eq!(a, b);
}

#[test]
fn aggregate_without_group_by() {
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT (COUNT(*) AS ?n) FROM <http://dbpedia.org> \
         WHERE {{ ?movie dbpp:starring ?actor }}"
    );
    let t = e.execute(&q).unwrap();
    assert_eq!(t.len(), 1);
    assert!(t.column("n").unwrap().eq([Some(&Term::integer(6))]));
}

#[test]
fn count_star_on_empty_is_zero() {
    let e = engine();
    let q = "SELECT (COUNT(*) AS ?n) FROM <http://dbpedia.org> \
             WHERE { ?x <http://nothing/here> ?y }";
    let t = e.execute(q).unwrap();
    assert_eq!(t.len(), 1);
    assert!(t.column("n").unwrap().eq([Some(&Term::integer(0))]));
}

#[test]
fn full_outer_join_shape() {
    // The UNION-of-two-OPTIONALs encoding RDFFrames uses for ⟗.
    let e = engine();
    let q = format!(
        "{PREFIXES} SELECT ?actor ?aw ?c FROM <http://dbpedia.org> WHERE {{ \
           {{ {{ ?actor dbpp:academyAward ?aw }} OPTIONAL {{ ?actor dbpp:birthPlace ?c }} }} \
           UNION \
           {{ {{ ?actor dbpp:birthPlace ?c }} OPTIONAL {{ ?actor dbpp:academyAward ?aw }} }} }}"
    );
    let t = e.execute(&q).unwrap();
    // Branch 1: actor1 (award+birth). Branch 2: all three actors.
    assert_eq!(t.len(), 4);
}
