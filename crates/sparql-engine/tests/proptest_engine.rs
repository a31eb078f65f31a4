//! Property-based tests for the SPARQL engine.
//!
//! Strategy: generate small random graphs and random conjunctive queries,
//! then check engine invariants —
//! - plan independence: optimizer ON ≡ optimizer OFF (any join order is
//!   semantics-preserving);
//! - BGP results against a brute-force nested-loop oracle;
//! - DISTINCT is the support of the bag; LIMIT/OFFSET slice consistently;
//! - an OPTIONAL run as a bind left join gives its hash join's rows in its
//!   hash join's order, and the executor the oracle's rows and scans.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::vocab::xsd;
use rdf_model::{Dataset, Graph, Interner, Literal, Term, TermId, Triple};
use sparql_engine::algebra::Plan;
use sparql_engine::pool::TermPool;
use sparql_engine::{eval_reference, Engine, EngineConfig, PreparedQuery, SolutionTable};

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

/// The dataset of the OPTIONAL property: the queried graph over nodes
/// `n0..n5` that occur as subjects and objects alike (so a key bound on
/// either side can match on either side), plus two graphs that repeat part
/// of its triples and add their own. A query without `FROM` reads all three.
fn build_node_graphs(triples: &[(u8, u8, u8)], layout: Layout) -> Arc<Dataset> {
    let row = |&(s, p, o): &(u8, u8, u8)| {
        let node = |n: u8| Term::iri(format!("http://test/n{n}"));
        Triple::new(node(s), Term::iri(format!("http://test/p{p}")), node(o))
    };
    let mut named: Vec<(&str, Vec<Triple>)> = vec![
        (
            "http://decoy/0",
            triples
                .iter()
                .step_by(2)
                .chain(&[(5, 2, 5), (0, 0, 4)])
                .map(row)
                .collect(),
        ),
        (
            "http://decoy/1",
            triples
                .iter()
                .skip(1)
                .step_by(3)
                .chain(&[(1, 1, 0)])
                .map(row)
                .collect(),
        ),
    ];
    named.insert(
        layout.position,
        (GRAPH_URI, triples.iter().map(row).collect()),
    );
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

/// The required part of an OPTIONAL query, binding the key `?k`.
#[derive(Debug, Clone, Copy)]
enum LeftSide {
    /// `?k p n`: selective, sorted on the key.
    Selective(u8, u8),
    /// `?k p ?x`: sorted on `?x` first, so keys repeat out of order.
    Unsorted(u8),
    /// `?x p ?k`: the key bound object-side, sorted, with duplicates.
    ObjectKey(u8),
    /// `?k p ?x . ?x q ?y`: two patterns.
    Chain(u8, u8),
}

fn left_strategy() -> impl Strategy<Value = LeftSide> {
    prop_oneof![
        (0u8..3, 0u8..6).prop_map(|(p, n)| LeftSide::Selective(p, n)),
        (0u8..3).prop_map(LeftSide::Unsorted),
        (0u8..3).prop_map(LeftSide::ObjectKey),
        (0u8..3, 0u8..3).prop_map(|(p, q)| LeftSide::Chain(p, q)),
    ]
}

/// One OPTIONAL on `?k`: predicate, key subject-side (`?k p ?vI`) or
/// object-side (`?vI p ?k`), and an optional `FILTER(?vI != nF)`.
type Optional = (u8, bool, Option<u8>);

fn optional_strategy() -> impl Strategy<Value = Optional> {
    // A filter one time in two.
    (0u8..3, any::<bool>(), 0u8..12).prop_map(|(p, side, f)| (p, side, (f < 6).then_some(f)))
}

fn render_optional_query(left: LeftSide, optionals: &[Optional], one_graph: bool) -> String {
    let from = if one_graph {
        format!("FROM <{GRAPH_URI}> ")
    } else {
        String::new()
    };
    let t = |kind: &str, n: u8| format!("<http://test/{kind}{n}>");
    let required = match left {
        LeftSide::Selective(p, n) => format!("?k {} {}", t("p", p), t("n", n)),
        LeftSide::Unsorted(p) => format!("?k {} ?x", t("p", p)),
        LeftSide::ObjectKey(p) => format!("?x {} ?k", t("p", p)),
        LeftSide::Chain(p, q) => format!("?k {} ?x . ?x {} ?y", t("p", p), t("p", q)),
    };
    let mut q = format!("SELECT * {from}WHERE {{ {required} .");
    for (i, &(p, subject_key, filter)) in optionals.iter().enumerate() {
        let pattern = match subject_key {
            true => format!("?k {} ?v{i}", t("p", p)),
            false => format!("?v{i} {} ?k", t("p", p)),
        };
        let filter = filter.map_or(String::new(), |n| {
            format!(" FILTER(?v{i} != {})", t("n", n))
        });
        q.push_str(&format!(" OPTIONAL {{ {pattern}{filter} }}"));
    }
    q.push_str(" }");
    q
}

/// `plan` with every bind left join turned back into the hash left join
/// it was rewritten from (the shapes `render_optional_query` plans to).
fn unbind(plan: &Plan) -> Plan {
    let un = |p: &Plan| Box::new(unbind(p));
    match plan {
        Plan::BindLeftJoin {
            left,
            pattern,
            graph,
            filters,
        } => Plan::LeftJoin(
            un(left),
            Box::new(Plan::Bgp {
                patterns: vec![(**pattern).clone()],
                graph: graph.clone(),
                filters: filters.clone(),
            }),
        ),
        Plan::LeftJoin(a, b) => Plan::LeftJoin(un(a), un(b)),
        Plan::MergeLeftJoin { left, right, key } => Plan::MergeLeftJoin {
            left: un(left),
            right: un(right),
            key: key.clone(),
        },
        Plan::Join(a, b) => Plan::Join(un(a), un(b)),
        Plan::Filter(e, p) => Plan::Filter(e.clone(), un(p)),
        Plan::Project(vars, p) => Plan::Project(vars.clone(), un(p)),
        other => other.clone(),
    }
}

type Rows = Vec<Vec<Option<String>>>;

fn ordered_rows(table: &SolutionTable) -> Rows {
    (table.rows())
        .map(|r| {
            r.to_vec()
                .iter()
                .map(|c| c.as_ref().map(|t| t.to_string()))
                .collect()
        })
        .collect()
}

/// Drain a cursor pulling `batch` rows at a time: its rows in order and the
/// index entries it read.
fn drain(engine: &Engine, prepared: &PreparedQuery, batch: usize) -> (Rows, u64) {
    let mut cursor = engine.cursor(prepared, batch).unwrap();
    let mut rows = Vec::new();
    while let Some(b) = cursor.next_batch().unwrap() {
        for row in 0..b.len {
            rows.push(
                (0..b.vars().len())
                    .map(|c| {
                        b.is_present(c, row)
                            .then(|| b.resolve(b.column_ids(c)[row]).to_string())
                    })
                    .collect(),
            );
        }
    }
    (rows, cursor.stats().rows_scanned)
}

proptest! {
    // A case binds when its left side has fewer rows than the optional
    // predicate has subjects (about one case in seven): run enough of them.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// OPTIONALs over selective and unselective left sides, sorted and
    /// unsorted keys with duplicates, the key subject- or object-side, one
    /// graph or three, installed whole or appended. Whatever the optimizer
    /// binds gives the row sequence of the same plan with every bind node a
    /// hash left join again, reading no more index entries; and the
    /// executor gives the oracle's rows and `rows_scanned` at every pull
    /// size.
    #[test]
    fn bind_left_joins_keep_the_hash_join_rows_and_the_oracle_scans(
        triples in proptest::collection::vec(triple_strategy(), 1..40),
        layout in layout_strategy(),
        left in left_strategy(),
        optionals in proptest::collection::vec(optional_strategy(), 1..4),
        one_graph in any::<bool>(),
    ) {
        let ds = build_node_graphs(&triples, layout);
        let engine = Engine::new(Arc::clone(&ds));
        let literal = Engine::with_config(ds, EngineConfig { optimize: false, ..EngineConfig::new() });
        let q = render_optional_query(left, &optionals, one_graph);
        let prepared = engine.prepare(&q).unwrap();
        let (table, stats) = engine.execute_prepared(&prepared, None).unwrap();
        let rows = ordered_rows(&table);

        let hashed = literal.prepare_plan(unbind(prepared.plan()), prepared.from_graphs().to_vec());
        prop_assert!(!hashed.explain().contains("bindleftjoin"), "{}", q);
        let (hashed_table, hashed_stats) = literal.execute_prepared(&hashed, None).unwrap();
        prop_assert_eq!(&rows, &ordered_rows(&hashed_table), "{}\n{}", q, prepared.explain());
        prop_assert!(
            stats.rows_scanned <= hashed_stats.rows_scanned,
            "{} bound {} > hashed {}\n{}", q, stats.rows_scanned, hashed_stats.rows_scanned,
            prepared.explain()
        );

        let (oracle, oracle_stats) = eval_reference::execute(&engine, &prepared, None).unwrap();
        prop_assert_eq!(&rows, &ordered_rows(&oracle), "{}", q);
        prop_assert_eq!(stats.rows_scanned, oracle_stats.rows_scanned, "{}", q);
        for batch in [1, 7, 16_384] {
            let (streamed, scanned) = drain(&engine, &prepared, batch);
            prop_assert_eq!(&streamed, &rows, "{} at batch {}", q, batch);
            prop_assert_eq!(scanned, stats.rows_scanned, "{} at batch {}", q, batch);
        }
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
