//! Pipeline satellites: LIMIT early exit, bounded live memory, budget
//! semantics, telemetry, the two kernels that live in the operators
//! (run-detection DISTINCT, id-native numeric aggregates) — plus a property
//! test that random BGP/OPTIONAL/GROUP BY shapes come out byte-identical at
//! random batch sizes.
//!
//! "Materializing" in this suite *is* the unbounded pull: a cursor drained
//! with `batch_rows = usize::MAX`, which is what `execute` does.
//!
//! **The LIMIT carve-out.** The parity oracle everywhere else in this
//! repository is *exact* scan equality: `rows_scanned` (entries read) and
//! `shared_scans` (entries a shared subplan's replays stood in for) each
//! match at every batch size, and their sum is the oracle evaluator's
//! `rows_scanned`. `LIMIT` (and a page, which is one) is the one deliberate
//! exception: the slice stops pulling its upstream once the limit is
//! satisfied, so upstream scans never run — small pulls legitimately scan
//! *fewer* index entries than the unbounded one. Results (rows, order,
//! bytes) remain identical; only the work count drops.

use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::algebra::{GraphRef, Plan};
use sparql_engine::ast::{PatternTerm, TriplePattern};
use sparql_engine::{
    eval_reference, Engine, EngineConfig, EngineError, ExecStats, PreparedQuery, QueryBudget,
    ResourceKind, SolutionTable,
};

const GRAPH: &str = "http://g";

/// `n` triples `s{i} p o{i%7}`, either installed whole or installed empty
/// and appended — scans and resume positions must behave identically over
/// both.
fn dataset(n: usize, appended: bool) -> Arc<Dataset> {
    let triples = (0..n).map(|i| {
        Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::iri(format!("http://x/o{}", i % 7)),
        )
    });
    Arc::new(install(triples, appended))
}

/// A one-graph dataset holding `triples`: installed whole, or installed
/// empty and appended to, so its terms are interned in the triples' order
/// instead of the builder's SPO order.
fn install(triples: impl IntoIterator<Item = Triple>, appended: bool) -> Dataset {
    let mut ds = Dataset::new();
    if appended {
        ds.insert_graph(GRAPH, Graph::new());
        ds.append_triples(GRAPH, triples).unwrap();
    } else {
        let mut g = Graph::new();
        for t in triples {
            g.insert(&t);
        }
        ds.insert_graph(GRAPH, g);
    }
    ds
}

fn engine(ds: &Arc<Dataset>, budget: QueryBudget) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            budget,
            ..EngineConfig::new()
        },
    )
}

/// The pull sizes the batch sweeps cover, the unbounded one included.
const BATCHES: [usize; 5] = [1, 7, 256, 16_384, usize::MAX];

/// Drain a cursor completely, returning term-materialized rows (in cursor
/// order) and the post-drain statistics.
fn drain(engine: &Engine, q: &str, batch_rows: usize) -> (Vec<Vec<Option<Term>>>, ExecStats) {
    drain_prepared(engine, &engine.prepare(q).unwrap(), batch_rows)
}

fn drain_prepared(
    engine: &Engine,
    prepared: &PreparedQuery,
    batch_rows: usize,
) -> (Vec<Vec<Option<Term>>>, ExecStats) {
    let mut cursor = engine.cursor(prepared, batch_rows).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = cursor.next_batch().unwrap() {
        for row in 0..batch.len {
            rows.push(
                (0..batch.vars().len())
                    .map(|c| {
                        batch
                            .is_present(c, row)
                            .then(|| batch.resolve(batch.column_ids(c)[row]).clone())
                    })
                    .collect(),
            );
        }
    }
    (rows, cursor.stats())
}

/// The two scan counters that must match at every batch size for a fully
/// drained plan.
fn scans(stats: &ExecStats) -> (u64, u64) {
    (stats.rows_scanned, stats.shared_scans)
}

#[test]
fn limit_early_exit_reduces_scan_work_on_both_layouts() {
    const N: usize = 5000;
    let q = format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }} LIMIT 10");
    for appended in [false, true] {
        let ds = dataset(N, appended);
        let engine = engine(&ds, QueryBudget::unlimited());
        let (rows_s, stats_s) = drain(&engine, &q, 16);
        let (rows_m, stats_m) = drain(&engine, &q, usize::MAX);
        // Same ten rows, same order — the carve-out never changes results.
        assert_eq!(rows_s, rows_m, "appended={appended}");
        assert_eq!(rows_s.len(), 10);
        // `execute` is the unbounded pull, to the entry.
        let (_, stats_e) = engine.execute_with_stats(&q).unwrap();
        assert_eq!(scans(&stats_e), scans(&stats_m));
        // The unbounded pull scans the whole index range; pulled 16 rows at
        // a time, the slice stops pulling after one batch.
        assert!(
            stats_m.rows_scanned >= N as u64,
            "appended={appended}: materializing scanned {}",
            stats_m.rows_scanned
        );
        assert!(
            stats_s.rows_scanned < stats_m.rows_scanned,
            "appended={appended}: streaming must scan strictly less \
             ({} vs {})",
            stats_s.rows_scanned,
            stats_m.rows_scanned
        );
        assert!(
            stats_s.rows_scanned < 1000,
            "appended={appended}: early exit barely helped: {}",
            stats_s.rows_scanned
        );
    }
}

/// N triples × N triples with no shared variable: N² results.
const CROSS_JOIN: &str = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
     ?a <http://x/p> ?b . ?c <http://x/p> ?d }";

#[test]
fn streaming_completes_under_budget_that_trips_materialization() {
    // Scale 300 → 90 000 result rows: far over the 10 000-row intermediate
    // budget when pulled in one piece, comfortably under it per 1 000-row
    // batch — every BGP level honours the pull target, however many input
    // rows it holds.
    let ds = dataset(300, false);
    let budget = QueryBudget::unlimited().with_max_intermediate_rows(10_000);
    let streaming = engine(&ds, budget);

    let tripped = |r: Result<(), EngineError>| {
        matches!(
            r,
            Err(EngineError::ResourceExhausted {
                resource: ResourceKind::IntermediateRows,
                ..
            })
        )
    };
    // The unbounded pull holds the whole result: `execute` and a cursor
    // asked for everything at once trip alike.
    assert!(tripped(streaming.execute(CROSS_JOIN).map(drop)));
    let prepared = streaming.prepare(CROSS_JOIN).unwrap();
    let mut unbounded = streaming.cursor(&prepared, usize::MAX).unwrap();
    assert!(tripped(unbounded.next_batch().map(drop)));

    let (rows, stats) = drain(&streaming, CROSS_JOIN, 1_000);
    assert_eq!(rows.len(), 300 * 300, "streaming must produce every row");
    assert!(
        stats.peak_live_rows < 10_000,
        "live state exceeded the budget it claims to respect: {}",
        stats.peak_live_rows
    );

    // A pipeline breaker on top genuinely needs its whole input live, so
    // the *same* streaming engine must still trip — typed, with bounded
    // overshoot (one batch past the limit, never the whole N² result).
    let ordered = format!("{CROSS_JOIN} ORDER BY ?a");
    let prepared = streaming.prepare(&ordered).unwrap();
    let mut cursor = streaming.cursor(&prepared, 1_000).unwrap();
    let err = loop {
        match cursor.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("breaker query must not complete under budget"),
            Err(e) => break e,
        }
    };
    match err {
        EngineError::ResourceExhausted {
            resource, observed, ..
        } => {
            assert_eq!(resource, ResourceKind::IntermediateRows);
            assert!(observed < 20_000, "overshoot {observed} is not bounded");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

#[test]
fn peak_live_rows_tracks_batch_size_not_result_size() {
    const N: usize = 20_000;
    const BATCH: usize = 256;
    let ds = dataset(N, false);
    let q = format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }}");

    let engine = engine(&ds, QueryBudget::unlimited());
    let (rows, stats) = drain(&engine, &q, BATCH);
    assert_eq!(rows.len(), N);
    assert!(
        stats.batches_emitted >= (N / BATCH) as u64,
        "expected ~{} batches, saw {}",
        N / BATCH,
        stats.batches_emitted
    );
    // O(batch), not O(result): scan state + staged output + the emitted
    // batch are each bounded by the batch size (with small constants).
    assert!(
        stats.peak_live_rows < 16 * BATCH as u64,
        "streaming peak {} rows is not O(batch_rows)",
        stats.peak_live_rows
    );

    let (_, stats_m) = drain(&engine, &q, usize::MAX);
    assert_eq!(stats_m.batches_emitted, 1);
    assert!(
        stats_m.peak_live_rows >= N as u64,
        "the unbounded pull's peak {} should cover the whole result",
        stats_m.peak_live_rows
    );
    assert_eq!(scans(&stats), scans(&stats_m), "no LIMIT: parity");
}

/// 300 films over 2 genres × 2 countries with two actors each: every film
/// star row (600) pairs with the 150 rows of the 75 films sharing its genre
/// and country, so the flattened film-pair query fans out ×150. Every
/// fourth film also has a director (the outer-join test's optional part).
fn film_dataset() -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..300 {
        let film = Term::iri(format!("http://x/film{i}"));
        let mut add = |p: &str, o: String| {
            g.insert(&Triple::new(
                film.clone(),
                Term::iri(format!("http://x/{p}")),
                Term::iri(format!("http://x/{o}")),
            ));
        };
        add("type", "Film".into());
        add("genre", format!("genre{}", i % 2));
        add("country", format!("country{}", (i / 2) % 2));
        add("starring", format!("actor{}", i % 40));
        add("starring", format!("actor{}", 40 + i % 55));
        if i % 4 == 0 {
            add("director", format!("director{}", i % 5));
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

#[test]
fn fan_out_join_stages_one_window_not_one_left_batch() {
    const STAR: u64 = 600;
    const FAN_OUT: u64 = 150;
    let ds = film_dataset();
    let star = |n: u8| {
        format!(
            "?film{n} <http://x/type> <http://x/Film> . ?film{n} <http://x/genre> ?genre . \
             ?film{n} <http://x/country> ?country . ?film{n} <http://x/starring> ?actor{n} ."
        )
    };
    let q = format!(
        "SELECT * FROM <{GRAPH}> WHERE {{ {} {} }}",
        star(1),
        star(2)
    );
    let streaming = engine(&ds, QueryBudget::unlimited());
    let (expected, stats_m) = drain(&streaming, &q, usize::MAX);
    assert_eq!(expected.len() as u64, STAR * FAN_OUT);
    // The optimizer split the value join: one scan set per star (the
    // nested loop would re-probe the second star per first-star row).
    assert_eq!(stats_m.rows_scanned, 2 * 1500);

    for batch in [1usize, 7, 64, 256, 4096, 16_384] {
        let (rows, stats) = drain(&streaming, &q, batch);
        // Same rows in the same order as assembling everything at once.
        assert_eq!(rows, expected, "batch {batch}");
        assert_eq!(scans(&stats), scans(&stats_m), "batch {batch}");
        // Both key columns are bound in every row: the two-key hash offers
        // exactly the matches, however the probe side is cut into batches.
        assert_eq!(stats.join_candidates, STAR * FAN_OUT, "batch {batch}");
        assert_eq!(stats_m.join_candidates, STAR * FAN_OUT);
        if batch == 7 || batch == 256 {
            // The build side, one left row's matches beyond the window
            // being filled, and O(batch) everywhere else (scan levels, the
            // probed batch, pending pairs, the emitted batch) — never a
            // whole left batch's ×150 output.
            let bound = STAR + FAN_OUT + 16 * batch as u64;
            assert!(
                stats.peak_live_rows <= bound,
                "batch {batch}: peak {} rows exceeds {bound}",
                stats.peak_live_rows
            );
        }
    }
}

#[test]
fn join_candidates_do_not_depend_on_batching() {
    // A full outer join — (A OPTIONAL B) UNION (B OPTIONAL A), as the frame
    // API spells it — joined to a BGP on ?film (bound everywhere), ?country
    // and ?d (each bound in some rows only), on either side of the join and
    // under an OPTIONAL. Whatever way the probe side is batched, the rows
    // are keyed on what they bind: same pairs tested, same rows out.
    let ds = film_dataset();
    let outer = "{ { ?film <http://x/director> ?d } \
                   OPTIONAL { ?film <http://x/country> ?country . \
                              ?film <http://x/genre> <http://x/genre0> } } \
                 UNION \
                 { { ?film <http://x/country> ?country } \
                   OPTIONAL { ?film <http://x/director> ?d } }";
    let bgp = "?film <http://x/genre> ?genre . ?film <http://x/country> ?country . \
               ?film <http://x/starring> ?actor";
    let streaming = engine(&ds, QueryBudget::unlimited());
    for body in [
        format!("{{ {bgp} }} {{ {outer} }}"),
        format!("{{ {outer} }} {{ {bgp} }}"),
        format!("{{ {bgp} }} OPTIONAL {{ {outer} }}"),
    ] {
        let q = format!("SELECT * FROM <{GRAPH}> WHERE {{ {body} }}");
        let (expected, stats_m) = drain(&streaming, &q, usize::MAX);
        assert!(!expected.is_empty());
        assert!(stats_m.join_candidates > 0);
        let (_, stats_e) = streaming.execute_with_stats(&q).unwrap();
        assert_eq!(stats_e.join_candidates, stats_m.join_candidates, "{q}");
        for batch in [1usize, 7, 256, 16_384] {
            let (rows, stats) = drain(&streaming, &q, batch);
            assert_eq!(rows, expected, "batch {batch}: {q}");
            assert_eq!(scans(&stats), scans(&stats_m), "batch {batch}: {q}");
            assert_eq!(
                stats.join_candidates, stats_m.join_candidates,
                "batch {batch}: {q}"
            );
        }
    }
}

#[test]
fn seeking_probes_keep_one_hint_per_graph_and_survive_descents() {
    // A two-graph default graph — `a` installed whole, `b` installed in
    // part and then appended to — and a literal BGP whose second
    // level probes `?x q ?z` once per row of `?x p ?y`. Those rows arrive in
    // POS order (by ?y, then ?x; graph `a`'s, then `b`'s), so the probed ?x
    // climbs within a ?y run and drops at every run and graph boundary, and
    // every probe visits both graphs in turn. At any pull size the bag and
    // the scan count must be the oracle's: a hint carried from one graph to
    // the other, or trusted after a descent, would skip entries.
    let build = |subjects: std::ops::Range<usize>, ys: usize| {
        let iri = |name: String| Term::iri(format!("http://x/{name}"));
        let mut g = Graph::new();
        for i in subjects {
            let s = iri(format!("s{i}"));
            g.insert(&Triple::new(
                s.clone(),
                iri("p".into()),
                iri(format!("y{}", i % ys)),
            ));
            if i % 2 == 0 {
                g.insert(&Triple::new(s, iri("q".into()), iri(format!("z{}", i % 3))));
            }
        }
        g
    };
    let mut ds = Dataset::new();
    ds.insert_graph("http://a", build(0..60, 7));
    ds.insert_graph("http://b", build(30..60, 5));
    ds.append_triples("http://b", build(60..90, 5).iter_triples())
        .unwrap();
    assert_eq!(ds.graph("http://b").unwrap().len(), 90, "layout setup");
    let ds = Arc::new(ds);

    let q = "SELECT * FROM <http://a> FROM <http://b> \
             WHERE { ?x <http://x/p> ?y . ?x <http://x/q> ?z }";
    let engine = Engine::with_config(
        Arc::clone(&ds),
        EngineConfig {
            optimize: false,
            ..EngineConfig::new()
        },
    );
    let bag = |rows: Vec<Vec<Option<Term>>>| {
        let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    let (oracle, oracle_stats) =
        eval_reference::execute(&engine, &engine.prepare(q).unwrap(), None).unwrap();
    let expected = bag(rows_of(&oracle));
    assert!(expected.len() > 30, "the probes must find matches");
    for batch in [1, 7, usize::MAX] {
        let (rows, stats) = drain(&engine, q, batch);
        assert_eq!(bag(rows), expected, "batch {batch}");
        assert_eq!(
            stats.rows_scanned + stats.shared_scans,
            oracle_stats.rows_scanned,
            "batch {batch}"
        );
    }
}

// ---------------------------------------------------------------------------
// The two kernels that live in the operators
// ---------------------------------------------------------------------------

fn var(v: &str) -> PatternTerm {
    PatternTerm::Var(v.into())
}

fn scan(s: PatternTerm, p: &str, o: PatternTerm) -> Plan {
    Plan::Bgp {
        patterns: vec![TriplePattern::new(
            s,
            PatternTerm::Const(Term::iri(format!("http://x/{p}"))),
            o,
        )],
        graph: GraphRef::Named(GRAPH.into()),
        filters: Vec::new(),
    }
}

/// Drain a hand-built plan, taken literally, through a columnar cursor.
fn drain_plan(
    ds: &Arc<Dataset>,
    plan: &Plan,
    batch_rows: usize,
) -> (Vec<Vec<Option<Term>>>, ExecStats) {
    let literal = Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            optimize: false,
            ..EngineConfig::new()
        },
    );
    let prepared = literal.prepare_plan(plan.clone(), Vec::new());
    drain_prepared(&literal, &prepared, batch_rows)
}

fn reference_rows(ds: &Arc<Dataset>, plan: &Plan) -> Vec<Vec<Option<Term>>> {
    let literal = Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            optimize: false,
            ..EngineConfig::new()
        },
    );
    let prepared = literal.prepare_plan(plan.clone(), Vec::new());
    let (table, _) = eval_reference::execute(&literal, &prepared, None).unwrap();
    rows_of(&table)
}

fn rows_of(table: &SolutionTable) -> Vec<Vec<Option<Term>>> {
    table.rows().map(|r| r.to_vec()).collect()
}

#[test]
fn a_false_sorted_distinct_claim_still_yields_the_keep_first_bag() {
    // `?s p ?o` twice over: the POS scan hands out (o, s) in id order, the
    // union repeats it — sorted on [o, s] for the first 500 rows, out of
    // order (and all duplicates) from row 501 on. A plan that claims the
    // union sorted is wrong only after run detection has let 500 rows
    // through; the hash set that takes over must know every one of them.
    let ds = dataset(500, false);
    let one = || scan(var("s"), "p", var("o"));
    let order = vec!["o".to_string(), "s".to_string()];
    let lying = Plan::SortedDistinct {
        order: order.clone(),
        input: Box::new(Plan::Union(Box::new(one()), Box::new(one()))),
    };
    let expected = reference_rows(&ds, &lying);
    assert_eq!(expected.len(), 500);
    for batch in BATCHES {
        let (rows, stats) = drain_plan(&ds, &lying, batch);
        assert_eq!(rows, expected, "batch {batch}");
        assert_eq!(stats.sorted_distincts, 0, "batch {batch}");
    }

    // The same claim over one scan is true: counted, same rows, and the
    // state kept is id columns — below the hash set's u64-per-cell keys.
    let honest = Plan::SortedDistinct {
        order,
        input: Box::new(one()),
    };
    let hashing = Plan::Distinct(Box::new(one()));
    for batch in BATCHES {
        let (rows, stats) = drain_plan(&ds, &honest, batch);
        let (hashed_rows, hashed) = drain_plan(&ds, &hashing, batch);
        assert_eq!(rows, expected, "batch {batch}");
        assert_eq!(hashed_rows, expected, "batch {batch}");
        assert_eq!((stats.sorted_distincts, hashed.sorted_distincts), (1, 0));
        assert!(
            stats.peak_live_bytes < hashed.peak_live_bytes,
            "batch {batch}: {} vs {}",
            stats.peak_live_bytes,
            hashed.peak_live_bytes
        );
    }
}

#[test]
fn numeric_aggregates_survive_a_column_that_stops_being_numeric() {
    // Five groups of five values each. `clean` is numeric throughout (ints
    // and doubles); the others meet something that is not a number — an
    // IRI, a plain string, NaN, nothing at all — at the first, a middle or
    // the last row of the group (scan order within a group is value-id
    // order, i.e. insertion order of first appearance).
    let numbers = || {
        vec![
            Some(Term::integer(5)),
            Some(Term::from(rdf_model::Literal::double(2.5))),
            Some(Term::integer(-3)),
            Some(Term::from(rdf_model::Literal::double(5.0))),
        ]
    };
    let intruders = [
        ("iri", Some(Term::iri("http://x/not-a-number"))),
        ("string", Some(Term::string("abc"))),
        (
            "nan",
            Some(Term::from(rdf_model::Literal::double(f64::NAN))),
        ),
        ("unbound", None),
    ];
    let mut g = Graph::new();
    let mut add = |group: String, values: Vec<Option<Term>>| {
        for (k, v) in values.into_iter().enumerate() {
            let row = Term::iri(format!("http://x/{group}/row{k}"));
            let group = Term::iri(format!("http://x/{group}"));
            g.insert(&Triple::new(row.clone(), Term::iri("http://x/in"), group));
            if let Some(v) = v {
                g.insert(&Triple::new(row, Term::iri("http://x/v"), v));
            }
        }
    };
    add("clean".into(), numbers());
    for (name, intruder) in &intruders {
        for at in [0, 2, 4] {
            let mut values = numbers();
            values.insert(at, intruder.clone());
            add(format!("{name}{at}"), values);
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    let ds = Arc::new(ds);

    let aggs = "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) \
                (MIN(DISTINCT ?v) AS ?dlo) (MAX(DISTINCT ?v) AS ?dhi) \
                (SUM(DISTINCT ?v) AS ?dsum) (AVG(DISTINCT ?v) AS ?davg)";
    let body = "?row <http://x/in> ?g OPTIONAL { ?row <http://x/v> ?v }";
    for q in [
        format!("SELECT ?g {aggs} FROM <{GRAPH}> WHERE {{ {body} }} GROUP BY ?g"),
        format!("SELECT {aggs} FROM <{GRAPH}> WHERE {{ {body} }}"),
        // All-numeric, ungrouped: no group is ever demoted.
        format!(
            "SELECT {aggs} FROM <{GRAPH}> WHERE {{ \
             ?row <http://x/in> <http://x/clean> . ?row <http://x/v> ?v }}"
        ),
    ] {
        let oracle = Engine::new(Arc::clone(&ds));
        let prepared = oracle.prepare(&q).unwrap();
        let expected = rows_of(&eval_reference::execute(&oracle, &prepared, None).unwrap().0);
        assert!(!expected.is_empty());
        let engine = engine(&ds, QueryBudget::unlimited());
        assert_eq!(rows_of(&engine.execute(&q).unwrap()), expected, "{q}");
        for batch in BATCHES {
            let (rows, _) = drain(&engine, &q, batch);
            assert_eq!(rows, expected, "batch {batch}: {q}");
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: random shapes × random batch sizes
// ---------------------------------------------------------------------------

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

fn term_text(pos: &Pos, kind: char) -> String {
    match pos {
        Pos::Var(v) => format!("?v{v}"),
        Pos::Const(c) => format!("<http://x/{kind}{c}>"),
    }
}

fn pattern_text(p: &(Pos, Pos, Pos)) -> String {
    format!(
        "{} {} {} .",
        term_text(&p.0, 's'),
        term_text(&p.1, 'p'),
        term_text(&p.2, 'o')
    )
}

fn build_graph(triples: &[(u8, u8, u8)], appended: bool) -> Arc<Dataset> {
    let triples = triples.iter().map(|(s, p, o)| {
        Triple::new(
            Term::iri(format!("http://x/s{s}")),
            Term::iri(format!("http://x/p{p}")),
            Term::iri(format!("http://x/o{o}")),
        )
    });
    Arc::new(install(triples, appended))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random BGP (+ optional OPTIONAL tail, + optional GROUP BY head)
    /// over a random graph, installed or appended: a cursor at any
    /// batch size must produce byte-identical rows in identical order with
    /// identical `rows_scanned` and `shared_scans` as the unbounded pull
    /// (none of these shapes has a LIMIT, so the carve-out is moot).
    #[test]
    fn random_shapes_stream_identically(
        triples in proptest::collection::vec((0u8..6, 0u8..3, 0u8..6), 1..40),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
        tail in pattern_strategy(),
        with_optional in any::<bool>(),
        with_group in any::<bool>(),
        appended in any::<bool>(),
        batch_rows in 1usize..70,
    ) {
        let ds = build_graph(&triples, appended);
        let mut body = String::new();
        for p in &patterns {
            body.push_str(&pattern_text(p));
            body.push('\n');
        }
        if with_optional {
            body.push_str(&format!("OPTIONAL {{ {} }}\n", pattern_text(&tail)));
        }
        let q = if with_group {
            format!(
                "SELECT ?v0 (COUNT(*) AS ?n) FROM <{GRAPH}> WHERE {{\n{body}}} GROUP BY ?v0"
            )
        } else {
            format!("SELECT * FROM <{GRAPH}> WHERE {{\n{body}}}")
        };
        let engine = engine(&ds, QueryBudget::unlimited());
        let (rows_s, stats_s) = drain(&engine, &q, batch_rows);
        let (rows_m, stats_m) = drain(&engine, &q, usize::MAX);
        prop_assert_eq!(rows_s, rows_m, "rows diverge for {} @ batch {}", &q, batch_rows);
        prop_assert_eq!(
            scans(&stats_s),
            scans(&stats_m),
            "scan work diverges for {} @ batch {}",
            &q,
            batch_rows
        );
        prop_assert_eq!(
            stats_s.join_candidates,
            stats_m.join_candidates,
            "join work diverges for {} @ batch {}",
            &q,
            batch_rows
        );
    }
}
