//! Property-based tests for the SPARQL engine.
//!
//! Strategy: generate small random graphs and random conjunctive queries,
//! then check engine invariants —
//! - plan independence: optimizer ON ≡ optimizer OFF (any join order is
//!   semantics-preserving);
//! - BGP results against a brute-force nested-loop oracle;
//! - DISTINCT is the support of the bag; LIMIT/OFFSET slice consistently.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::vocab::xsd;
use rdf_model::{Dataset, Graph, Interner, Literal, Term, TermId, Triple};
use sparql_engine::pool::TermPool;
use sparql_engine::{Engine, EngineConfig, SolutionTable};

const GRAPH_URI: &str = "http://test";

/// A triple as small integers (subjects 0..S, predicates 0..P, objects 0..O).
fn triple_strategy() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..6, 0u8..3, 0u8..6)
}

/// Where the queried graph sits in the dataset: inserted before, between or
/// after two decoy graphs (so its builder's id order agrees with the
/// dataset's, or not), and installed whole or installed empty and appended
/// (so its terms are interned in the rows' order instead).
#[derive(Debug, Clone, Copy)]
struct Layout {
    position: usize,
    appended: bool,
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    (0usize..3, any::<bool>()).prop_map(|(position, appended)| Layout { position, appended })
}

/// The queried graph among two decoys that share some of its terms — in the
/// same position and in others — and add a few of their own. No query names
/// the decoys, so none of their triples may ever show up in a result.
fn build_graph(triples: &[(u8, u8, u8)], layout: Layout) -> Arc<Dataset> {
    let row = |s: &str, p: &str, o: &str| {
        let term = |name: &str| Term::iri(format!("http://test/{name}"));
        Triple::new(term(s), term(p), term(o))
    };
    let queried = triples
        .iter()
        .map(|(s, p, o)| row(&format!("s{s}"), &format!("p{p}"), &format!("o{o}")))
        .collect();
    let mut named: Vec<(&str, Vec<Triple>)> = vec![
        (
            "http://decoy/0",
            vec![
                row("s5", "p2", "o5"),
                row("o3", "p0", "s1"),
                row("d0", "p1", "o0"),
            ],
        ),
        (
            "http://decoy/1",
            vec![
                row("s0", "p1", "o0"),
                row("s3", "d1", "d2"),
                row("p2", "o4", "s2"),
            ],
        ),
    ];
    named.insert(layout.position, (GRAPH_URI, queried));
    let mut ds = Dataset::new();
    for (uri, rows) in named {
        if layout.appended {
            ds.insert_graph(uri, Graph::new());
            ds.append_triples(uri, rows).unwrap();
        } else {
            let mut g = Graph::new();
            for t in &rows {
                g.insert(t);
            }
            ds.insert_graph(uri, g);
        }
    }
    Arc::new(ds)
}

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

fn render_query(patterns: &[(Pos, Pos, Pos)]) -> String {
    let mut q = format!("SELECT * FROM <{GRAPH_URI}> WHERE {{\n");
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
    q.push('}');
    q
}

/// Brute-force BGP evaluation: nested loops over the raw triple list with
/// a binding environment.
fn brute_force(triples: &[(u8, u8, u8)], patterns: &[(Pos, Pos, Pos)]) -> Vec<HashMap<u8, String>> {
    // Deduplicate the triple list (the graph is a set).
    let mut set: Vec<(u8, u8, u8)> = Vec::new();
    for t in triples {
        if !set.contains(t) {
            set.push(*t);
        }
    }
    let mut solutions: Vec<HashMap<u8, String>> = vec![HashMap::new()];
    for (ps, pp, po) in patterns {
        let mut next = Vec::new();
        for env in &solutions {
            for (s, p, o) in &set {
                let mut candidate = env.clone();
                let mut ok = true;
                for (pos, val, kind) in [(ps, s, 's'), (pp, p, 'p'), (po, o, 'o')] {
                    let term = format!("http://test/{kind}{val}");
                    match pos {
                        Pos::Const(c) => {
                            ok &= format!("http://test/{kind}{c}") == term;
                        }
                        Pos::Var(v) => match candidate.get(v) {
                            Some(bound) => ok &= *bound == term,
                            None => {
                                candidate.insert(*v, term);
                            }
                        },
                    }
                    if !ok {
                        break;
                    }
                }
                if ok {
                    next.push(candidate);
                }
            }
        }
        solutions = next;
    }
    solutions
}

fn canonical_rows(table: &SolutionTable) -> Vec<Vec<String>> {
    let mut order: Vec<usize> = (0..table.vars().len()).collect();
    order.sort_by(|&a, &b| table.vars()[a].cmp(&table.vars()[b]));
    let mut rows: Vec<Vec<String>> = table
        .rows()
        .map(|r| {
            let r = r.to_vec();
            order
                .iter()
                .map(|&i| r[i].as_ref().map(|t| t.to_string()).unwrap_or_default())
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Term `n` of a small universe in which `"k"^^xsd:integer` and
/// `"0k"^^xsd:integer` (equal values, distinct terms) are neighbours.
fn pool_term(n: u32) -> Term {
    let k = n / 3;
    match n % 3 {
        0 => Term::iri(format!("http://x/{k}")),
        1 => Term::integer(i64::from(k)),
        _ => Term::from(Literal::typed(format!("0{k}"), xsd::INTEGER)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn bgp_matches_brute_force(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        layout in layout_strategy(),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
    ) {
        let ds = build_graph(&triples, layout);
        let engine = Engine::new(ds);
        let q = render_query(&patterns);
        let table = engine.execute(&q).unwrap();

        let expected = brute_force(&triples, &patterns);
        // Compare multisets: canonicalize both to sorted var-name order.
        let mut expected_rows: Vec<Vec<String>> = expected
            .iter()
            .map(|env| {
                let mut vars: Vec<&u8> = env.keys().collect();
                vars.sort();
                vars.iter().map(|v| format!("<{}>", env[v])).collect()
            })
            .collect();
        expected_rows.sort();
        // Engine var order: v0..v3 sorted lexically matches numeric here.
        let got = canonical_rows(&table);
        prop_assert_eq!(got.len(), expected_rows.len(), "row counts differ for {}", q);
        prop_assert_eq!(got, expected_rows, "{}", q);
    }

    #[test]
    fn optimizer_is_semantics_preserving(
        triples in proptest::collection::vec(triple_strategy(), 1..30),
        layout in layout_strategy(),
        patterns in proptest::collection::vec(pattern_strategy(), 1..5),
    ) {
        let ds = build_graph(&triples, layout);
        let q = render_query(&patterns);
        let on = Engine::new(Arc::clone(&ds)).execute(&q).unwrap();
        let off = Engine::with_config(ds, EngineConfig { optimize: false, ..EngineConfig::new() })
            .execute(&q)
            .unwrap();
        prop_assert_eq!(canonical_rows(&on), canonical_rows(&off), "{}", q);
    }

    #[test]
    fn distinct_is_support_of_bag(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        layout in layout_strategy(),
        patterns in proptest::collection::vec(pattern_strategy(), 1..3),
    ) {
        let ds = build_graph(&triples, layout);
        let engine = Engine::new(ds);
        let q = render_query(&patterns);
        let bag = engine.execute(&q).unwrap();
        let distinct_q = q.replacen("SELECT *", "SELECT DISTINCT *", 1);
        let set = engine.execute(&distinct_q).unwrap();
        let mut bag_rows = canonical_rows(&bag);
        bag_rows.dedup();
        prop_assert_eq!(bag_rows, canonical_rows(&set), "{}", q);
    }

    #[test]
    fn limit_offset_slice_consistently(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        layout in layout_strategy(),
        limit in 1usize..10,
        offset in 0usize..10,
    ) {
        let ds = build_graph(&triples, layout);
        let engine = Engine::new(ds);
        // ORDER BY makes the slice deterministic.
        let all = engine
            .execute(&format!(
                "SELECT * FROM <{GRAPH_URI}> WHERE {{ ?s ?p ?o }} ORDER BY ?s ?p ?o"
            ))
            .unwrap();
        let sliced = engine
            .execute(&format!(
                "SELECT * FROM <{GRAPH_URI}> WHERE {{ ?s ?p ?o }} ORDER BY ?s ?p ?o \
                 LIMIT {limit} OFFSET {offset}"
            ))
            .unwrap();
        let lo = offset.min(all.len());
        let hi = (offset + limit).min(all.len());
        prop_assert_eq!(sliced.len(), hi - lo);
        prop_assert!(sliced.rows().eq(all.rows().skip(lo).take(hi - lo)));
    }

    #[test]
    fn count_star_equals_row_count(
        triples in proptest::collection::vec(triple_strategy(), 1..25),
        layout in layout_strategy(),
        patterns in proptest::collection::vec(pattern_strategy(), 1..3),
    ) {
        let ds = build_graph(&triples, layout);
        let engine = Engine::new(ds);
        let q = render_query(&patterns);
        let rows = engine.execute(&q).unwrap().len() as i64;
        let count_q = q.replacen("SELECT *", "SELECT (COUNT(*) AS ?n)", 1);
        let counted = engine.execute(&count_q).unwrap();
        prop_assert!(counted.column("n").unwrap().eq([Some(&Term::integer(rows))]));
    }

    /// A `TermPool` over a stored dictionary, fed computed terms: a term
    /// equal to a stored one gets the stored id; any other gets an overflow
    /// id at or past the dictionary's length, dense in first-seen order and
    /// the same on every sighting — so the two id ranges never meet, and
    /// every id resolves to its term.
    #[test]
    fn term_pool_overflow_ids_never_meet_base_ids(
        stored in proptest::collection::vec(0u32..300, 0..120),
        computed in proptest::collection::vec(0u32..300, 1..200),
    ) {
        let mut base = Interner::new();
        for n in stored {
            base.intern(pool_term(n));
        }
        let mut pool = TermPool::new(&base);
        let mut overflow: HashMap<Term, TermId> = HashMap::new();
        for n in computed {
            let term = pool_term(n);
            let id = pool.intern(term.clone());
            match base.get(&term) {
                Some(stored) => prop_assert_eq!(id, stored),
                None => {
                    let fresh = TermId((base.len() + overflow.len()) as u32);
                    let want = *overflow.entry(term.clone()).or_insert(fresh);
                    prop_assert_eq!(id, want);
                    prop_assert!(id.index() >= base.len());
                }
            }
            prop_assert_eq!(pool.resolve(id), &term);
            prop_assert_eq!(pool.lookup(&term), Some(id));
        }
    }
}
