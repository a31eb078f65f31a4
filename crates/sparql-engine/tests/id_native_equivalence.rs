//! Differential tests: the columnar id-native executor against the seed
//! term-materialized reference evaluator.
//!
//! Every query from the end-to-end suite (plus aggregate-heavy shapes) runs
//! three ways ([`legs`]) — the executor drained by `execute`'s one unbounded
//! pull, the executor drained by a cursor seven rows at a time, and the
//! oracle; results must be identical after `canonicalize()` and the
//! deterministic work metric (`rows_scanned`) must match exactly — the
//! executor changes the row representation and when work happens, not the
//! access-path order. The whole matrix additionally runs against both ways
//! a graph is built (installed whole via `Dataset::insert_graph`, and
//! installed empty, then every triple appended, which interns its terms in
//! another order and merges them into the slabs), so both id orders feed
//! every leg. A proptest
//! further checks that terms projected out of id-native joins round-trip
//! through the dataset's interner.

use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::{Dataset, Graph, Literal, Term, Triple};
use sparql_engine::algebra::Plan;
use sparql_engine::{eval_reference, Engine, EngineConfig, ExecStats, SolutionTable};

fn iri(s: &str) -> Term {
    Term::iri(s.to_string())
}

/// The movie graph of the end-to-end suite, extended with numeric literal
/// properties (integer ratings, double scores, and a mixed-typed `note`
/// column of integers and strings).
fn movie_graph() -> Graph {
    let mut g = Graph::new();
    let starring = iri("http://dbpedia.org/property/starring");
    let birth_place = iri("http://dbpedia.org/property/birthPlace");
    let award = iri("http://dbpedia.org/property/academyAward");
    let rating = iri("http://dbpedia.org/property/rating");
    let score = iri("http://dbpedia.org/property/score");
    let note = iri("http://dbpedia.org/property/note");
    let usa = iri("http://dbpedia.org/resource/United_States");
    let uk = iri("http://dbpedia.org/resource/United_Kingdom");

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
            g.insert(&Triple::new(movie.clone(), starring.clone(), a.clone()));
            // Integer rating (numeric aggregation), double score
            // (mixed int/double comparisons), duplicated values across
            // movies so DISTINCT aggregation differs from plain.
            g.insert(&Triple::new(
                movie.clone(),
                rating.clone(),
                Term::integer(60 + (m % 2) * 30),
            ));
            g.insert(&Triple::new(
                movie.clone(),
                score.clone(),
                Term::from(Literal::double(7.5 + m as f64)),
            ));
            // Mixed types: integers for even movies, strings for odd ones.
            let note_val = if m % 2 == 0 {
                Term::integer(m)
            } else {
                Term::string(format!("note{m}"))
            };
            g.insert(&Triple::new(movie, note.clone(), note_val));
        }
        if has_award {
            g.insert(&Triple::new(
                a.clone(),
                award.clone(),
                iri("http://dbpedia.org/resource/Oscar"),
            ));
        }
        g.insert(&Triple::new(
            a.clone(),
            iri("http://www.w3.org/2000/01/rdf-schema#label"),
            Term::from(Literal::lang_string(format!("Actor {name}"), "en")),
        ));
    }
    g
}

fn yago_graph() -> Graph {
    let mut yago = Graph::new();
    yago.insert(&Triple::new(
        iri("http://dbpedia.org/resource/actor1"),
        iri("http://yago/actedIn"),
        iri("http://yago/movieY"),
    ));
    yago.insert(&Triple::new(
        iri("http://dbpedia.org/resource/actor3"),
        iri("http://yago/actedIn"),
        iri("http://yago/movieZ"),
    ));
    yago
}

/// 60 films over 3 genres × 2 countries, two actors each, a director on
/// every fourth: large enough that joining two film stars on the *value*
/// variables `?g`/`?c` is estimated (and is) far cheaper as a hash join of
/// two scans than as one nested loop, so the optimizer splits those BGPs.
fn film_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..60 {
        let film = iri(&format!("http://films.org/film{i}"));
        let mut add = |p: &str, o: String| {
            g.insert(&Triple::new(
                film.clone(),
                iri(&format!("http://films.org/{p}")),
                iri(&format!("http://films.org/{o}")),
            ));
        };
        add("type", "Film".into());
        add("genre", format!("genre{}", i % 3));
        add("country", format!("country{}", (i / 3) % 2));
        add("starring", format!("actor{}", i % 25));
        add("starring", format!("actor{}", 25 + i % 17));
        if i % 4 == 0 {
            add("director", format!("director{}", i % 5));
        }
    }
    g
}

/// Build the three-graph dataset either way: `installed` uses
/// `insert_graph`, otherwise [`install_by_appends`] installs each graph
/// empty and appends its triples.
fn dataset(installed: bool) -> Arc<Dataset> {
    Arc::new(dataset_in_order(installed, false))
}

/// [`dataset`] with a choice of where DBpedia is inserted: first (its
/// builder's id order *is* the dataset's), or last, after the YAGO graph
/// that shares two of its actors — so the DBpedia index is re-keyed out of
/// builder order and its queried terms get ids on both sides of the others'.
fn dataset_in_order(installed: bool, dbpedia_last: bool) -> Dataset {
    let mut named = vec![
        ("http://dbpedia.org", movie_graph()),
        ("http://yago-knowledge.org", yago_graph()),
        ("http://films.org", film_graph()),
    ];
    if dbpedia_last {
        named.rotate_left(1);
    }
    let mut ds = Dataset::new();
    for (uri, graph) in named {
        if installed {
            ds.insert_graph(uri, graph);
        } else {
            install_by_appends(&mut ds, uri, &graph);
        }
    }
    if dbpedia_last {
        let id = |t: &str| ds.lookup(&iri(t)).unwrap();
        assert!(
            id("http://dbpedia.org/resource/actor3") < id("http://dbpedia.org/property/birthPlace"),
            "layout setup: builder order and dataset order must disagree"
        );
    }
    ds
}

/// Install `graph` as live appends arrive: the graph goes in empty and its
/// triples are appended, so its terms are interned in the builder's SPO
/// order rather than the builder's id order.
fn install_by_appends(ds: &mut Dataset, uri: &str, graph: &Graph) {
    ds.insert_graph(uri, Graph::new());
    ds.append_triples(uri, graph.iter_triples()).unwrap();
}

const PREFIXES: &str = "PREFIX dbpp: <http://dbpedia.org/property/>\n\
                        PREFIX dbpr: <http://dbpedia.org/resource/>\n";

/// Value joins over the film graph: subject stars that touch only through
/// object variables. The optimizer turns each flattened BGP into hash-joined
/// per-star BGPs (asserted by `value_join_bgps_split_and_cut_scans`), and
/// every evaluator must run the resulting join tree with the same scans.
fn value_join_queries() -> Vec<String> {
    let star = |n: u8| {
        format!(
            "?f{n} f:type f:Film . ?f{n} f:genre ?g . ?f{n} f:country ?c . \
             ?f{n} f:starring ?a{n} ."
        )
    };
    let q = |body: String| {
        format!(
            "PREFIX f: <http://films.org/>\nSELECT * FROM <http://films.org> WHERE {{ {body} }}"
        )
    };
    vec![
        // Two stars sharing ?g and ?c: the two-key hash join.
        q(format!("{} {}", star(1), star(2))),
        // Three stars: ?f1 shares ?g with ?f2 and ?c with the directed ?f3.
        q("?f1 f:type f:Film . ?f1 f:genre ?g . ?f1 f:country ?c . \
           ?f2 f:type f:Film . ?f2 f:genre ?g . \
           ?f3 f:director f:director0 . ?f3 f:country ?c . ?f3 f:starring ?a3 ."
            .into()),
        // A single-variable FILTER on a join key, pushed into one star.
        q(format!("{} {} FILTER ( ?g = f:genre1 )", star(1), star(2))),
        // The Q9 shape as the frame API flattens it — both stars in one
        // BGP, the OPTIONALs after it — each sunk below the join.
        q(format!(
            "{} {} OPTIONAL {{ ?f1 f:director ?d1 }} OPTIONAL {{ ?f2 f:director ?d2 }}",
            star(1),
            star(2)
        )),
    ]
}

/// Outer-join-then-join shapes over the film graph: the frame API's full
/// outer join is `(A OPTIONAL B) UNION (B OPTIONAL A)`, so what it hands the
/// next join shares variables that are bound in some rows only — here `?f`
/// in every row, `?c` in the genre-0 rows of the first branch and all of the
/// second, `?d` in all of the first and every fourth row of the second. The
/// hash join keys each build row on what it binds; the oracle nested-loops.
fn outer_join_queries() -> Vec<String> {
    let outer = "{ { ?f f:director ?d } OPTIONAL { ?f f:country ?c . ?f f:genre f:genre0 } } \
                 UNION \
                 { { ?f f:country ?c } OPTIONAL { ?f f:director ?d } }";
    let bgp = "?f f:type f:Film . ?f f:country ?c . ?f f:starring ?a";
    let directed = "?f f:director ?d . ?f f:country ?c . ?f f:genre ?g";
    let q = |body: String| {
        format!(
            "PREFIX f: <http://films.org/>\nSELECT * FROM <http://films.org> WHERE {{ {body} }}"
        )
    };
    vec![
        // The outer join on the build side, two shared variables.
        q(format!("{{ {bgp} }} {{ {outer} }}")),
        // The same with the outer join probing.
        q(format!("{{ {outer} }} {{ {bgp} }}")),
        // Three shared variables, two of them partially bound.
        q(format!("{{ {directed} }} {{ {outer} }}")),
        // Under a LeftJoin: unmatched BGP rows survive with ?d unbound.
        q(format!("{{ {bgp} }} OPTIONAL {{ {outer} }}")),
        // Partially bound on both sides at once.
        q(format!("{{ {outer} }} {{ {outer} }}")),
        // A value join with *no* shared variable bound in every row: ?c is
        // unbound in the second branch's unstarred rows, ?g in the first's.
        q("{ ?f1 f:country ?c . ?f1 f:genre ?g . ?f1 f:starring ?a } \
           { { { ?f2 f:director ?d . ?f2 f:country ?c } \
               OPTIONAL { ?f2 f:genre ?g . ?f2 f:starring f:actor0 } } \
             UNION \
             { { ?f2 f:director ?d . ?f2 f:genre ?g } \
               OPTIONAL { ?f2 f:country ?c . ?f2 f:starring f:actor0 } } }"
            .into()),
    ]
}

/// Every query shape exercised by the end-to-end suite, plus cross-graph,
/// expression-heavy, aggregate-heavy, value-join and outer-join variants.
fn queries() -> Vec<String> {
    let mut all = dbpedia_queries();
    all.extend(value_join_queries());
    all.extend(outer_join_queries());
    all
}

fn dbpedia_queries() -> Vec<String> {
    let q = |body: &str| format!("{PREFIXES}{body}");
    vec![
        q("SELECT ?movie ?actor FROM <http://dbpedia.org> WHERE { ?movie dbpp:starring ?actor }"),
        q("SELECT ?actor FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?actor dbpp:birthPlace ?c \
             FILTER ( ?c = dbpr:United_States ) }"),
        q("SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?n) \
           FROM <http://dbpedia.org> WHERE { ?movie dbpp:starring ?actor } \
           GROUP BY ?actor HAVING ( COUNT(DISTINCT ?movie) >= 2 )"),
        q("SELECT ?actor ?aw FROM <http://dbpedia.org> WHERE { \
             ?actor dbpp:birthPlace ?c OPTIONAL { ?actor dbpp:academyAward ?aw } }"),
        q("SELECT ?x FROM <http://dbpedia.org> WHERE { \
             { ?x dbpp:academyAward ?a } UNION { ?x dbpp:birthPlace dbpr:United_Kingdom } }"),
        q("SELECT * FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor \
             { SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count) WHERE { \
                 ?movie dbpp:starring ?actor . ?actor dbpp:birthPlace ?actor_country \
                 FILTER ( ?actor_country = dbpr:United_States ) } \
               GROUP BY ?actor HAVING ( COUNT(DISTINCT ?movie) >= 2 ) } \
             OPTIONAL { ?actor dbpp:academyAward ?award } }"),
        q("SELECT ?movie FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:starring ?actor } ORDER BY ?movie LIMIT 2 OFFSET 1"),
        q("SELECT DISTINCT ?actor FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:starring ?actor }"),
        q("SELECT ?actor ?c FROM <http://dbpedia.org> WHERE { \
             ?actor dbpp:birthPlace ?c FILTER regex(str(?c), \"United_States\") }"),
        "SELECT * FROM <http://dbpedia.org> WHERE { ?s ?p ?o . FILTER ( isIRI(?o) ) }".into(),
        "SELECT ?a ?m WHERE { \
           GRAPH <http://dbpedia.org> { ?a <http://dbpedia.org/property/birthPlace> ?c } \
           GRAPH <http://yago-knowledge.org> { ?a <http://yago/actedIn> ?m } }"
            .into(),
        q("SELECT (COUNT(*) AS ?n) FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:starring ?actor }"),
        "SELECT (COUNT(*) AS ?n) FROM <http://dbpedia.org> \
         WHERE { ?x <http://nothing/here> ?y }"
            .into(),
        q("SELECT ?actor ?aw ?c FROM <http://dbpedia.org> WHERE { \
             { { ?actor dbpp:academyAward ?aw } OPTIONAL { ?actor dbpp:birthPlace ?c } } \
             UNION \
             { { ?actor dbpp:birthPlace ?c } OPTIONAL { ?actor dbpp:academyAward ?aw } } }"),
        // BIND + arithmetic: computed terms must intern into the overflow
        // pool and stay joinable/groupable downstream.
        q("SELECT ?actor ?n2 FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor } \
           GROUP BY ?actor HAVING ( COUNT(?movie) >= 1 ) \
           ORDER BY ?actor"),
        q(
            "SELECT ?movie (1 AS ?one) FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . BIND ( 1 AS ?one ) }",
        ),
        // ORDER BY + LIMIT exercises the bounded sort on the id-native paths
        // (and plain sort+truncate on the reference path).
        q("SELECT ?movie ?actor FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:starring ?actor } ORDER BY ?actor ?movie LIMIT 3"),
        q("SELECT ?movie FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:starring ?actor } ORDER BY ?movie LIMIT 100"),
        // --- aggregate-heavy shapes -------------------------------------
        // Integer column: COUNT counts ids, the rest run AggState.
        q("SELECT ?actor (SUM(?r) AS ?total) (AVG(?r) AS ?avg) \
           (MIN(?r) AS ?lo) (MAX(?r) AS ?hi) (COUNT(?r) AS ?n) \
           FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?movie dbpp:rating ?r } \
           GROUP BY ?actor ORDER BY ?actor"),
        // DISTINCT over duplicated numeric values (SUM/AVG change, MIN/MAX
        // don't).
        q(
            "SELECT ?actor (SUM(DISTINCT ?r) AS ?total) (AVG(DISTINCT ?r) AS ?avg) \
           FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?movie dbpp:rating ?r } \
           GROUP BY ?actor ORDER BY ?actor",
        ),
        // Mixed int/double column: still numeric, exercises f64 compare.
        q("SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SUM(?v) AS ?s) \
           FROM <http://dbpedia.org> WHERE { \
             { ?movie dbpp:rating ?v } UNION { ?movie dbpp:score ?v } }"),
        // Mixed numeric/string column: MIN/MAX compare across types
        // identically on every path.
        q(
            "SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(DISTINCT ?v) AS ?n) \
           FROM <http://dbpedia.org> WHERE { ?movie dbpp:note ?v }",
        ),
        // COUNT DISTINCT of a *computed* expression: the executor dedups the
        // computed terms, as the oracle does.
        q("SELECT ?actor (COUNT(DISTINCT str(?movie)) AS ?n) \
           FROM <http://dbpedia.org> WHERE { ?movie dbpp:starring ?actor } \
           GROUP BY ?actor ORDER BY ?actor"),
        // SUM over a computed expression with DISTINCT.
        q(
            "SELECT (SUM(DISTINCT ?r + 1) AS ?s) FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:rating ?r }",
        ),
        // Implicit single group over an empty input: aggregates over no rows.
        q(
            "SELECT (SUM(?r) AS ?s) (MIN(?r) AS ?lo) FROM <http://dbpedia.org> \
           WHERE { ?x <http://nothing/here> ?r }",
        ),
        // SAMPLE over a column, grouped and ungrouped: the first bound value
        // in row order, on every path.
        q(
            "SELECT ?actor (SAMPLE(?r) AS ?any) FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?movie dbpp:rating ?r } \
           GROUP BY ?actor ORDER BY ?actor",
        ),
        q(
            "SELECT (SAMPLE(?r) AS ?any) (COUNT(?r) AS ?n) FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:rating ?r }",
        ),
        // SAMPLE DISTINCT over the mixed numeric/string column.
        q(
            "SELECT (SAMPLE(DISTINCT ?v) AS ?any) FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:note ?v }",
        ),
        // Aggregates over a variable the group input never binds: every
        // group sums nothing and counts nothing.
        q(
            "SELECT ?actor (SUM(?nowhere) AS ?s) (COUNT(?nowhere) AS ?n) \
           FROM <http://dbpedia.org> WHERE { ?movie dbpp:starring ?actor } \
           GROUP BY ?actor ORDER BY ?actor",
        ),
        // MIN DISTINCT over a column of duplicated values.
        q(
            "SELECT ?actor (MIN(DISTINCT ?r) AS ?lo) FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?movie dbpp:rating ?r } \
           GROUP BY ?actor ORDER BY ?actor",
        ),
        // --- merge joins & FILTER pushdown ------------------------------
        // Star join of two (?x <p> <o>) groups: both sides scan POS with a
        // bound (p, o) prefix, so both arrive sorted on ?x and the
        // optimizer rewrites the hash join into a merge join.
        q("SELECT ?x FROM <http://dbpedia.org> WHERE { \
             { ?x dbpp:birthPlace dbpr:United_States } \
             { ?x dbpp:academyAward dbpr:Oscar } }"),
        // Conjunctive FILTER whose two single-variable conjuncts sink into
        // *different* patterns of one BGP (id-equality and numeric shapes).
        q("SELECT ?movie ?actor FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?actor dbpp:birthPlace ?c . \
             ?movie dbpp:rating ?r \
             FILTER ( ?c = dbpr:United_States && ?r >= 70 ) }"),
        // Mixed conjunction: one conjunct sinks, the two-variable one must
        // stay behind as a residual filter.
        q("SELECT ?movie ?r FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:rating ?r . ?movie dbpp:score ?s \
             FILTER ( ?r >= 60 && ?r < ?s ) }"),
        // Pushdown through the *left* side of an OPTIONAL.
        q("SELECT ?actor ?aw FROM <http://dbpedia.org> WHERE { \
             ?actor dbpp:birthPlace ?c OPTIONAL { ?actor dbpp:academyAward ?aw } \
             FILTER ( ?c != dbpr:United_Kingdom ) }"),
        // General (regex) single-variable conjunct: pushed with per-id
        // memoized evaluation.
        q("SELECT ?actor FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor . ?actor dbpp:birthPlace ?c \
             FILTER ( regex(str(?c), \"United\") && isIRI(?c) ) }"),
        // --- order-aware OPTIONAL / DISTINCT / GROUP BY ------------------
        // OPTIONAL whose two sides both scan POS with a bound (p, o)
        // prefix: both sorted on ?actor, so the left join merges.
        q("SELECT ?actor ?l FROM <http://dbpedia.org> WHERE { \
             ?actor dbpp:birthPlace dbpr:United_States \
             OPTIONAL { ?actor dbpp:academyAward dbpr:Oscar . \
                        ?actor <http://www.w3.org/2000/01/rdf-schema#label> ?l } }"),
        // DISTINCT whose projected columns are exactly the BGP's sort
        // sequence ([?actor, ?movie] off the POS starring scan).
        q(
            "SELECT DISTINCT ?actor ?movie FROM <http://dbpedia.org> WHERE { \
             ?movie dbpp:starring ?actor }",
        ),
        // GROUP BY on the leading order variable (keys are an order
        // prefix).
        q(
            "SELECT ?actor (COUNT(?movie) AS ?n) (MIN(?movie) AS ?first) \
           FROM <http://dbpedia.org> WHERE { ?movie dbpp:starring ?actor } \
           GROUP BY ?actor",
        ),
        // GROUP BY on a non-prefix variable (?movie is the *secondary*
        // order).
        q(
            "SELECT ?movie (COUNT(?actor) AS ?n) FROM <http://dbpedia.org> \
           WHERE { ?movie dbpp:starring ?actor } GROUP BY ?movie",
        ),
        // DISTINCT over a projection that drops the secondary order column
        // (?actor): the surviving [?c] prefix still covers the schema.
        q("SELECT DISTINCT ?c FROM <http://dbpedia.org> WHERE { \
             ?actor dbpp:birthPlace ?c . ?movie dbpp:starring ?actor }"),
    ]
}

/// One way of running a query: an engine and how it evaluates.
struct Leg {
    name: &'static str,
    engine: Engine,
    how: How,
}

/// How a leg evaluates a query.
#[derive(Clone, Copy)]
enum How {
    /// `execute`: the executor in one unbounded pull.
    OnePull,
    /// The executor's cursor, pulled this many rows at a time.
    Batches(usize),
    /// The oracle, `eval_reference::execute`.
    Oracle,
}

impl Leg {
    fn run(&self, q: &str) -> sparql_engine::Result<(SolutionTable, ExecStats)> {
        let batch = match self.how {
            How::OnePull => return self.engine.execute_with_stats(q),
            How::Oracle => {
                return eval_reference::execute(&self.engine, &self.engine.prepare(q)?, None)
            }
            How::Batches(batch) => batch,
        };
        let prepared = self.engine.prepare(q)?;
        let mut cursor = self.engine.cursor(&prepared, batch)?;
        let mut table = SolutionTable::with_vars(cursor.vars().to_vec());
        while let Some(b) = cursor.next_batch()? {
            for row in 0..b.len {
                let cell = |c| {
                    b.is_present(c, row)
                        .then(|| b.resolve(b.column_ids(c)[row]).clone())
                };
                table
                    .push_row((0..b.vars().len()).map(cell).collect())
                    .unwrap();
            }
        }
        Ok((table, cursor.stats()))
    }
}

/// The three legs of the suite, same optimizer setting: the executor drained
/// in one unbounded pull, the executor drained in batches of 7, the oracle.
fn legs(ds: Arc<Dataset>, optimize: bool) -> Vec<Leg> {
    [
        ("columnar, one pull", How::OnePull),
        ("columnar, batches of 7", How::Batches(7)),
        ("reference", How::Oracle),
    ]
    .into_iter()
    .map(|(name, how)| Leg {
        name,
        engine: Engine::with_config(
            Arc::clone(&ds),
            EngineConfig {
                optimize,
                ..EngineConfig::new()
            },
        ),
        how,
    })
    .collect()
}

/// Run `q` on every leg: canonical table and unshared scan work of each —
/// the executor's `rows_scanned + shared_scans` (it evaluates a repeated
/// subplan once), the oracle's `rows_scanned` (it evaluates every
/// occurrence; its `shared_scans` is 0).
fn run_all(legs: &[Leg], q: &str, label: &str) -> Vec<(&'static str, SolutionTable, u64)> {
    legs.iter()
        .map(|leg| {
            let (mut t, stats) = leg
                .run(q)
                .unwrap_or_else(|e| panic!("{} failed ({label}): {e}\n{q}", leg.name));
            t.canonicalize();
            (leg.name, t, stats.unshared_scans())
        })
        .collect()
}

/// Run every query on every leg and demand identical bags and identical
/// scan work.
fn assert_all_paths_agree(ds: Arc<Dataset>, optimize: bool, label: &str) {
    let legs = legs(ds, optimize);
    for q in queries() {
        let results = run_all(&legs, &q, label);
        let (base_name, base_table, base_scanned) = &results[0];
        for (name, table, scanned) in &results[1..] {
            assert_eq!(
                base_table, table,
                "results diverge between {base_name} and {name} ({label}) for:\n{q}"
            );
            assert_eq!(
                base_scanned, scanned,
                "work metric diverges between {base_name} and {name} ({label}) for:\n{q}"
            );
        }
    }
}

/// Run `q` on the default legs (`optimize: true`: every rewrite) and on the
/// literal legs (`optimize: false`: no rewrite, hash operators only) and
/// demand one bag on all six, plus — per plan — exact scan parity between
/// the executor at both pull sizes and the oracle, which hash-joins the
/// rewritten nodes. Returns the unshared scan work of the (default, literal)
/// plan; the two differ — that is the point of the rewrites.
fn assert_rewrites_preserve_results(ds: &Arc<Dataset>, q: &str, label: &str) -> (u64, u64) {
    let on = run_all(&legs(Arc::clone(ds), true), q, label);
    let off = run_all(&legs(Arc::clone(ds), false), q, label);
    for (plan, group) in [("default", &on), ("literal", &off)] {
        for (name, table, scanned) in group.iter() {
            assert_eq!(
                &on[0].1, table,
                "rewrites changed results on {name}, {plan} plan ({label}) for:\n{q}"
            );
            assert_eq!(
                group[0].2, *scanned,
                "work metric diverges on {name}, {plan} plan ({label}) for:\n{q}"
            );
        }
    }
    (on[0].2, off[0].2)
}

// In these three names a "compacted" graph is one installed whole, an
// "uncompacted" one a graph installed empty and built by appends.
#[test]
fn all_three_evaluators_agree_on_compacted_graphs() {
    assert_all_paths_agree(dataset(true), true, "installed");
}

#[test]
fn all_three_evaluators_agree_on_uncompacted_graphs() {
    assert_all_paths_agree(dataset(false), true, "appended");
}

#[test]
fn unoptimized_paths_also_agree() {
    assert_all_paths_agree(dataset(true), false, "installed, no optimizer");
    assert_all_paths_agree(dataset(false), false, "appended, no optimizer");
}

#[test]
fn compacted_and_uncompacted_storage_agree() {
    // Same data, different physical layout: results and scan counts must be
    // layout-independent.
    let installed = Engine::new(dataset(true));
    let appended = Engine::new(dataset(false));
    for q in queries() {
        let (mut a, stats_a) = installed.execute_with_stats(&q).unwrap();
        let (mut b, stats_b) = appended.execute_with_stats(&q).unwrap();
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b, "storage layouts diverge for:\n{q}");
        assert_eq!(stats_a.rows_scanned, stats_b.rows_scanned, "{q}");
        assert_eq!(stats_a.shared_scans, stats_b.shared_scans, "{q}");
    }
}

#[test]
fn outer_join_shapes_are_keyed_on_every_bound_variable() {
    // Candidates a join tests beyond its matches are wasted work. Keyed on
    // the shared variables bound in *every* row, the last shape has no key
    // at all (120 × 30 pairs nested-loop); keyed per row on what the row
    // binds, each shape tests fewer than two candidates per result row — on
    // both layouts, and whatever the pull size.
    for installed in [true, false] {
        let engine = Engine::new(dataset(installed));
        for q in outer_join_queries() {
            let (t, stats) = engine.execute_with_stats(&q).unwrap();
            assert!(!t.is_empty(), "{q}");
            assert!(
                stats.join_candidates <= 2 * t.len() as u64,
                "{} candidates for {} rows (installed={installed}):\n{q}",
                stats.join_candidates,
                t.len()
            );
            let prepared = engine.prepare(&q).unwrap();
            let mut cursor = engine.cursor(&prepared, 7).unwrap();
            while cursor.next_batch().unwrap().is_some() {}
            assert_eq!(cursor.stats().join_candidates, stats.join_candidates, "{q}");
        }
    }
}

#[test]
fn pushdown_and_merge_rewrites_preserve_results() {
    // Every rewrite on (the default engine) vs none (`optimize: false`),
    // across both storage layouts, both pull sizes and the oracle:
    // identical bags everywhere (scan counts differ between the two plans
    // — that is the point of the rewrites — never between evaluators).
    for installed in [true, false] {
        let ds = dataset(installed);
        let label = format!("installed={installed}");
        for q in queries() {
            assert_rewrites_preserve_results(&ds, &q, &label);
        }
    }
}

/// Two single-pattern groups that both scan sorted on `?x`: the shape the
/// merge-join rewrite exists for.
fn star_join_query() -> String {
    format!(
        "{PREFIXES}SELECT ?x FROM <http://dbpedia.org> WHERE {{ \
           {{ ?x dbpp:birthPlace dbpr:United_States }} \
           {{ ?x dbpp:academyAward dbpr:Oscar }} }}"
    )
}

/// Whether some BGP of `plan` carries a pushed-down filter.
fn has_pushed_filter(plan: &Plan) -> bool {
    match plan {
        Plan::Bgp { filters, .. } => !filters.is_empty(),
        Plan::Project(_, p) | Plan::Filter(_, p) => has_pushed_filter(p),
        Plan::Join {
            left: a, right: b, ..
        } => has_pushed_filter(a) || has_pushed_filter(b),
        _ => false,
    }
}

#[test]
fn merge_join_fires_and_pushdown_cuts_scans() {
    for installed in [true, false] {
        let ds = dataset(installed);
        let engine = Engine::new(Arc::clone(&ds));
        let label = format!("installed={installed}");

        // The star join runs as a real merge join (counter, not just plan
        // shape) on installed *and* appended graphs.
        let star = star_join_query();
        let (t, stats) = engine.execute_with_stats(&star).unwrap();
        assert_eq!(t.len(), 1, "only actor1 is US-born with an award");
        assert!(
            stats.merge_joins > 0,
            "merge join must fire ({label}): {stats:?}"
        );
        assert_rewrites_preserve_results(&ds, &star, &label);

        // The filter sinks into the BGP, and the plan scans strictly less
        // than the literal one: the birthPlace pattern binds ?c first, so
        // UK-born rows die before the starring scan.
        let filtered = format!(
            "{PREFIXES}SELECT ?actor FROM <http://dbpedia.org> WHERE {{ \
               ?movie dbpp:starring ?actor . ?actor dbpp:birthPlace ?c \
               FILTER ( ?c = dbpr:United_States ) }}"
        );
        let prepared = engine.prepare(&filtered).unwrap();
        assert!(
            has_pushed_filter(prepared.plan()),
            "filter must sink into its BGP ({label}):\n{}",
            prepared.explain()
        );
        let (pushed, literal) = assert_rewrites_preserve_results(&ds, &filtered, &label);
        assert!(
            pushed < literal,
            "pushdown must scan strictly less than the literal plan: {pushed} vs {literal}"
        );
    }
}

/// Whether `plan` joins two BGP-rooted inputs (a split value join,
/// possibly with OPTIONALs sunk onto the stars; a merge join when both
/// stars happen to scan in join-key order).
fn joins_bgp_stars(plan: &Plan) -> bool {
    fn star(p: &Plan) -> bool {
        match p {
            Plan::Bgp { .. } => true,
            Plan::LeftJoin {
                left: host,
                merge_on: None,
                ..
            } => star(host),
            Plan::Join {
                left: a, right: b, ..
            } => star(a) && star(b),
            _ => false,
        }
    }
    match plan {
        Plan::Join {
            left: a, right: b, ..
        } => star(a) && star(b),
        Plan::Project(_, p) | Plan::Filter(_, p) => joins_bgp_stars(p),
        _ => false,
    }
}

#[test]
fn value_join_bgps_split_and_cut_scans() {
    // The plan shape is the point of these queries: each one must actually
    // run as a join of per-star BGPs, scanning strictly less than the
    // literal (optimizer-off) nested loop over the same patterns.
    for installed in [true, false] {
        let ds = dataset(installed);
        let on = Engine::new(Arc::clone(&ds));
        let literal = Engine::with_config(
            Arc::clone(&ds),
            EngineConfig {
                optimize: false,
                ..EngineConfig::new()
            },
        );
        for q in value_join_queries() {
            let prepared = on.prepare(&q).unwrap();
            assert!(
                joins_bgp_stars(prepared.plan()),
                "value join must split (installed={installed}):\n{q}\n{:#?}",
                prepared.plan()
            );
            let (mut a, s_on) = on.execute_with_stats(&q).unwrap();
            let (mut b, s_off) = literal.execute_with_stats(&q).unwrap();
            // Multisets: a split BGP emits hash-join pair order, the
            // nested loop emits extension order; SPARQL leaves the order
            // of an un-ORDERed result unspecified.
            a.canonicalize();
            b.canonicalize();
            assert_eq!(a, b, "split changed the result bag for:\n{q}");
            assert!(!a.is_empty(), "vacuous value join:\n{q}");
            assert!(
                s_on.rows_scanned < s_off.rows_scanned,
                "split must cut scans ({} vs {}) for:\n{q}",
                s_on.rows_scanned,
                s_off.rows_scanned
            );
        }
    }
}

#[test]
fn order_aware_rewrites_fire_and_agree_per_toggle() {
    // For each of the two order-aware rewrites: the counter fires (>0) on
    // a query shaped for it, on installed *and* appended graphs,
    // at both pull sizes; the literal plan (`optimize: false`, the one
    // off-switch) fires none of them; and default ≡ literal ≡ oracle as
    // bags, the default plan never scanning more (these rewrites change
    // join strategy, never scan work).
    let star_q = star_join_query();
    let optional_q = format!(
        "{PREFIXES}SELECT ?actor ?l FROM <http://dbpedia.org> WHERE {{ \
           ?actor dbpp:birthPlace dbpr:United_States \
           OPTIONAL {{ ?actor dbpp:academyAward dbpr:Oscar . \
                       ?actor <http://www.w3.org/2000/01/rdf-schema#label> ?l }} }}"
    );
    type Counter = fn(&ExecStats) -> u64;
    let cases: [(&str, &str, Counter); 2] = [
        ("merge_joins", &star_q, |s| s.merge_joins),
        ("merge_left_joins", &optional_q, |s| s.merge_left_joins),
    ];
    // Storage layouts × where the queried graph sits in the dataset's id
    // space: inserted first; inserted last (re-keyed out of builder order);
    // and inserted last, then appended to with triples whose subject is a
    // term only YAGO had mentioned — an id below every DBpedia term but
    // `actor1`, now merged into every scan the merge operators consume.
    // Every graph is
    // sorted by dataset id, so the same counters must fire in all of them.
    let low_id_append = |installed| {
        let mut ds = dataset_in_order(installed, true);
        let low = iri("http://yago/movieY");
        assert!(ds.lookup(&low) < ds.lookup(&iri("http://dbpedia.org/resource/actor3")));
        let dbp = |local: &str| iri(&format!("http://dbpedia.org/{local}"));
        let added = ds.append_triples(
            "http://dbpedia.org",
            vec![
                Triple::new(
                    low.clone(),
                    dbp("property/birthPlace"),
                    dbp("resource/United_States"),
                ),
                Triple::new(
                    low.clone(),
                    dbp("property/academyAward"),
                    dbp("resource/Oscar"),
                ),
                Triple::new(dbp("resource/low_movie"), dbp("property/starring"), low),
            ],
        );
        assert_eq!(added, Some(3));
        ds
    };
    let layouts = [true, false].into_iter().flat_map(|installed| {
        [
            (format!("installed={installed}"), dataset(installed)),
            (
                format!("installed={installed}, dbpedia last"),
                Arc::new(dataset_in_order(installed, true)),
            ),
            (
                format!("installed={installed}, dbpedia last + low-id append"),
                Arc::new(low_id_append(installed)),
            ),
        ]
    });
    for (label, ds) in layouts {
        let on = legs(Arc::clone(&ds), true);
        let literal = legs(Arc::clone(&ds), false);
        for (name, query, counter) in cases {
            for (rewriting, plain) in on[..2].iter().zip(&literal[..2]) {
                let (_, s_on) = rewriting.run(query).unwrap();
                assert!(
                    counter(&s_on) > 0,
                    "{name} must fire on {} ({label}): {s_on:?}\n{query}",
                    rewriting.name
                );
                let (_, s_off) = plain.run(query).unwrap();
                assert_eq!(
                    counter(&s_off),
                    0,
                    "{name} must not fire on the literal plan ({label})"
                );
            }
            let (scanned, literal_scanned) = assert_rewrites_preserve_results(&ds, query, &label);
            assert!(
                scanned <= literal_scanned,
                "{name} added scan work ({label}): {scanned} vs {literal_scanned}\n{query}"
            );
        }
    }
}

#[test]
fn a_term_only_another_graph_mentions_is_an_empty_range_not_a_lookup_miss() {
    // `http://yago/movieY` and `http://yago/actedIn` have dataset ids but
    // the DBpedia index never mentions them. Used over DBpedia — as a
    // constant in each position, and as a variable bound by a YAGO scan —
    // they must read zero index entries there and match nothing, on every
    // leg, both plans, both layouts and either insertion order.
    let constant = [
        "<http://yago/movieY> ?p ?o",
        "?s <http://yago/actedIn> ?o",
        "?s ?p <http://yago/movieY>",
        "<http://yago/movieY> <http://dbpedia.org/property/starring> ?o",
        "?s <http://dbpedia.org/property/starring> <http://yago/movieY>",
    ];
    let bound = "SELECT * FROM <http://yago-knowledge.org> FROM <http://dbpedia.org> \
                 WHERE { ?a <http://yago/actedIn> ?m . ?m ?p ?o }";
    for (installed, dbpedia_last) in [(true, false), (false, false), (true, true), (false, true)] {
        let ds = Arc::new(dataset_in_order(installed, dbpedia_last));
        let label = format!("installed={installed}, dbpedia_last={dbpedia_last}");
        for optimize in [true, false] {
            let legs = legs(Arc::clone(&ds), optimize);
            for pattern in constant {
                let q = format!("SELECT * FROM <http://dbpedia.org> WHERE {{ {pattern} }}");
                for (name, table, scanned) in run_all(&legs, &q, &label) {
                    assert_eq!(table.len(), 0, "{name} ({label}): {q}");
                    assert_eq!(scanned, 0, "{name} ({label}) read index entries for: {q}");
                }
            }
            // One BGP over both graphs: the first pattern reads YAGO's two
            // triples and an empty DBpedia range; extending each ?m (a
            // subject of neither graph) reads nothing in either.
            for (name, table, scanned) in run_all(&legs, bound, &label) {
                assert_eq!(table.len(), 0, "{name} ({label})");
                assert_eq!(scanned, 2, "{name} ({label})");
            }
        }
    }
}

#[test]
fn paged_execution_matches_full_execution() {
    let ds = dataset(true);
    let legs = legs(ds, true);
    let q = format!(
        "{PREFIXES} SELECT ?movie ?actor FROM <http://dbpedia.org> \
         WHERE {{ ?movie dbpp:starring ?actor }} ORDER BY ?movie ?actor"
    );
    let (full, full_stats) = legs[0].engine.execute_with_stats(&q).unwrap();
    for offset in 0..=full.len() + 1 {
        let (page, stats) = legs[0].engine.execute_page(&q, offset, 2).unwrap();
        // A page is a LIMIT: it may stop early, it never reads more.
        assert!(stats.rows_scanned <= full_stats.rows_scanned);
        for leg in &legs[1..] {
            let (other, _) = leg.engine.execute_page(&q, offset, 2).unwrap();
            let name = leg.name;
            assert_eq!(page, other, "page at offset {offset} diverges on {name}");
        }
        let lo = offset.min(full.len());
        let hi = (offset + 2).min(full.len());
        assert_eq!(page.len(), hi - lo);
        assert!(page.rows().eq(full.rows().skip(lo).take(hi - lo)));
    }
}

// ---- property-based differential + interner round-trip -------------------

/// A pattern position: variable index (0..4) or constant.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Var(u8),
    Const(u8),
}

fn pos_strategy(consts: u8) -> impl Strategy<Value = Pos> {
    prop_oneof![
        (0u8..4).prop_map(Pos::Var),
        (0u8..consts).prop_map(Pos::Const),
    ]
}

fn pattern_strategy() -> impl Strategy<Value = (Pos, Pos, Pos)> {
    (pos_strategy(6), pos_strategy(3), pos_strategy(6))
}

fn triple_strategy() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..6, 0u8..3, 0u8..6)
}

/// Two overlapping graphs: triples split between them, shared terms appear
/// in both, so joins routinely cross the graph boundary. Graph `a` is
/// installed whole; graph `b` is installed empty and appended.
fn build_two_graph_dataset(triples: &[(u8, u8, u8)]) -> Arc<Dataset> {
    let mut g1 = Graph::new();
    let mut g2 = Graph::new();
    for (i, (s, p, o)) in triples.iter().enumerate() {
        let t = Triple::new(
            Term::iri(format!("http://test/s{s}")),
            Term::iri(format!("http://test/p{p}")),
            Term::iri(format!("http://test/o{o}")),
        );
        if i % 2 == 0 {
            g1.insert(&t);
        } else {
            g2.insert(&t);
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph("http://test/a", g1);
    install_by_appends(&mut ds, "http://test/b", &g2);
    Arc::new(ds)
}

fn render_query(patterns: &[(Pos, Pos, Pos)]) -> String {
    render_query_with_filters(patterns, &[])
}

fn render_query_with_filters(patterns: &[(Pos, Pos, Pos)], conds: &[Cond]) -> String {
    // No FROM clause: the default graph is the union of both graphs, so BGP
    // extension hops between graphs and joins on global ids.
    let mut q = "SELECT * WHERE {\n".to_string();
    for (s, p, o) in patterns {
        let term = |pos: &Pos, kind: char| match pos {
            Pos::Var(v) => format!("?v{v}"),
            Pos::Const(c) => format!("<http://test/{kind}{c}>"),
        };
        q.push_str(&format!(
            "  {} {} {} .\n",
            term(s, 's'),
            term(p, 'p'),
            term(o, 'o')
        ));
    }
    if !conds.is_empty() {
        let rendered: Vec<String> = conds.iter().map(Cond::render).collect();
        q.push_str(&format!("  FILTER ( {} )\n", rendered.join(" && ")));
    }
    q.push('}');
    q
}

/// One conjunct of a random FILTER: the pushable single-variable equality
/// and membership shapes (sometimes over a variable the BGP does not bind,
/// sometimes over constants that exist nowhere) — the shapes the optimizer
/// counts exactly to order the BGP — or a two-variable comparison that must
/// stay above the BGP.
#[derive(Debug, Clone)]
enum Cond {
    /// `?v{var} =/!= <http://test/{kind}{c}>`.
    EqConst {
        var: u8,
        kind: char,
        c: u8,
        negate: bool,
    },
    /// `?v{var} [NOT] IN (<http://test/{kind}{c}>, …)`.
    In {
        var: u8,
        kind: char,
        cs: Vec<u8>,
        negate: bool,
    },
    /// `?v{a} = ?v{b}` — not single-variable, never pushed.
    VarVar(u8, u8),
}

impl Cond {
    fn render(&self) -> String {
        match self {
            Cond::EqConst {
                var,
                kind,
                c,
                negate,
            } => format!(
                "?v{var} {} <http://test/{kind}{c}>",
                if *negate { "!=" } else { "=" }
            ),
            Cond::In {
                var,
                kind,
                cs,
                negate,
            } => {
                let list: Vec<String> = cs
                    .iter()
                    .map(|c| format!("<http://test/{kind}{c}>"))
                    .collect();
                let op = if *negate { "NOT IN" } else { "IN" };
                format!("?v{var} {op} ({})", list.join(", "))
            }
            Cond::VarVar(a, b) => format!("?v{a} = ?v{b}"),
        }
    }
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    prop_oneof![
        (0u8..4, 0u8..3, 0u8..8, 0u8..2).prop_map(|(var, kind, c, neg)| Cond::EqConst {
            var,
            kind: ['s', 'p', 'o'][kind as usize],
            c,
            negate: neg == 1,
        }),
        (
            0u8..4,
            0u8..3,
            proptest::collection::vec(0u8..8, 1..4),
            0u8..2
        )
            .prop_map(|(var, kind, cs, neg)| Cond::In {
                var,
                kind: ['s', 'p', 'o'][kind as usize],
                cs,
                negate: neg == 1,
            }),
        (0u8..4, 0u8..4).prop_map(|(a, b)| Cond::VarVar(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_evaluators_match_on_random_multi_graph_queries(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
    ) {
        let ds = build_two_graph_dataset(&triples);
        let q = render_query(&patterns);
        let results = run_all(&legs(ds, true), &q, "random");
        for pair in results.windows(2) {
            prop_assert_eq!(&pair[0].1, &pair[1].1, "{} vs {}: {}", pair[0].0, pair[1].0, q);
            prop_assert_eq!(pair[0].2, pair[1].2, "{} vs {}: {}", pair[0].0, pair[1].0, q);
        }
    }

    #[test]
    fn pushdown_agrees_with_no_pushdown_on_random_filtered_bgps(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
        conds in proptest::collection::vec(cond_strategy(), 1..4),
    ) {
        let ds = build_two_graph_dataset(&triples);
        let q = render_query_with_filters(&patterns, &conds);
        // Default (filters pushed, joins merged) ≡ literal plan ≡ oracle
        // as bags, with exact cross-evaluator scan parity on each plan.
        assert_rewrites_preserve_results(&ds, &q, "random filtered BGP");
    }

    #[test]
    fn sorted_dedup_and_grouping_agree_with_hash_paths_on_random_bgps(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
        group_var in 0u8..4,
    ) {
        // Mirrors `pushdown_agrees_with_no_pushdown_on_random_filtered_bgps`
        // for DISTINCT and GROUP BY over inputs the default plan orders:
        // random BGPs (graph `a` installed, graph `b` appended) wrapped in
        // DISTINCT and in GROUP BY, executed on the default plan (greedy
        // pattern order, so often sorted input) and the literal one —
        // identical bags — with exact result + scan parity across all three
        // legs on each plan. SUM and MIN ride along over a neighbouring
        // variable, whose values are IRIs.
        let ds = build_two_graph_dataset(&triples);
        let body = render_query(&patterns);
        let pattern_block = body.strip_prefix("SELECT * ").unwrap();
        let distinct_q = format!("SELECT DISTINCT * {pattern_block}");
        let agg_var = (group_var + 1) % 4;
        let group_q = format!(
            "SELECT ?v{group_var} (COUNT(*) AS ?n) (SUM(?v{agg_var}) AS ?sum) \
             (MIN(?v{agg_var}) AS ?min) {pattern_block} GROUP BY ?v{group_var}"
        );
        for q in [&distinct_q, &group_q] {
            assert_rewrites_preserve_results(&ds, q, "random DISTINCT / GROUP BY");
        }
    }

    #[test]
    fn value_join_stars_agree_with_literal_plan_and_reference(
        triples in proptest::collection::vec((0u8..30, 0u8..3, 0u8..3), 40..120),
        stars in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..4), 1..4),
            2..4,
        ),
        layout in any::<bool>(),
    ) {
        // Random two-/three-star BGPs: star `i` has subject ?e{i} and 1–3
        // patterns whose objects are one of the two shared value variables
        // (?x0/?x1), a private variable, or a constant. 30 subjects over 3
        // objects make the value-variable fan-out large, so the cost guard
        // splits a good share of these — and whichever way it decides, optimizer
        // on ≡ optimizer off ≡ the term reference as bags (a split BGP
        // emits hash-join order, the nested loop extension order), with
        // exact scan parity between the evaluators running the same plan.
        let mut g = Graph::new();
        for (s, p, o) in &triples {
            g.insert(&Triple::new(
                Term::iri(format!("http://test/s{s}")),
                Term::iri(format!("http://test/p{p}")),
                Term::iri(format!("http://test/o{o}")),
            ));
        }
        let mut ds = Dataset::new();
        if layout {
            ds.insert_graph("http://test/g", g);
        } else {
            install_by_appends(&mut ds, "http://test/g", &g);
        }
        let ds = Arc::new(ds);

        let mut q = "SELECT * FROM <http://test/g> WHERE {\n".to_string();
        for (i, star) in stars.iter().enumerate() {
            for (n, (p, object)) in star.iter().enumerate() {
                let object = match object {
                    // Every star's first pattern binds ?x0, so the stars
                    // always connect through at least one value variable.
                    _ if n == 0 => "?x0".to_string(),
                    0 => "?x0".to_string(),
                    1 => "?x1".to_string(),
                    2 => format!("?w{i}_{n}"),
                    _ => format!("<http://test/o{}>", (i + n) % 3),
                };
                q.push_str(&format!("  ?e{i} <http://test/p{p}> {object} .\n"));
            }
        }
        q.push('}');

        let literal = Engine::with_config(
            Arc::clone(&ds),
            EngineConfig { optimize: false, ..EngineConfig::new() },
        );
        let mut expected = literal.execute(&q).unwrap();
        expected.canonicalize();
        let mut scans = Vec::new();
        for (name, t, scanned) in run_all(&legs(ds, true), &q, "optimizer on") {
            prop_assert_eq!(&t, &expected, "{} vs literal plan: {}", name, q);
            scans.push(scanned);
        }
        prop_assert!(scans.windows(2).all(|w| w[0] == w[1]), "scan parity {:?}: {}", scans, q);
    }

    #[test]
    fn projection_round_trips_through_shared_interner(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        patterns in proptest::collection::vec(pattern_strategy(), 1..3),
    ) {
        let ds = build_two_graph_dataset(&triples);
        let engine = Engine::new(Arc::clone(&ds));
        let q = render_query(&patterns);
        let table = engine.execute(&q).unwrap();
        // Every bound term in an id-native result was materialized from a
        // global id; looking it up again must yield an id that resolves to
        // an equal term (terms of stored triples round-trip exactly).
        for row in table.rows() {
            for cell in row.iter().flatten() {
                let id = ds.lookup(cell);
                prop_assert!(id.is_some(), "term {cell} not in shared interner");
                prop_assert_eq!(ds.resolve(id.unwrap()), cell);
            }
        }
    }
}
