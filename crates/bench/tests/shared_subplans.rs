//! Shared subplans: work bound, plan snapshots and a differential property.
//!
//! The columnar executor evaluates a subplan that occurs more than once in
//! the optimized plan a single time and replays its output to every other
//! occurrence (`sparql_engine::eval::share`). Three things are pinned here,
//! none with a clock:
//!
//! 1. **Work bound.** Every index entry is read by some `Plan::Bgp` or
//!    `Plan::BindLeftJoin`, and such a node's scans do not depend on where
//!    it sits (a bind node's are what it adds to its left input's). So for
//!    every frame of the paper's workload `rows_scanned` must equal the sum
//!    over the *distinct* scanning nodes of the plan of the scans each takes
//!    on its own, and `rows_scanned + shared_scans` the sum over *all*
//!    their occurrences —
//!    which is also what the oracle (`eval_reference::execute`), evaluating
//!    every occurrence, reports. cs1 reads at most 0.4 × of what it used to; a
//!    frame without a repeated subtree reads exactly what it used to.
//! 2. **Plan snapshots.** `PreparedQuery::explain()` shows the DAG: cs1 has
//!    four shared nodes read nine times, Q1 none. Every paper frame's
//!    optimized plan at scale 64 is pinned, one file per frame.
//! 3. **Differential property.** Random plans over the DBpedia vocabulary
//!    with a random subtree repeated two to four times — under joins,
//!    OPTIONALs, UNIONs, GROUP BY, DISTINCT, ORDER BY and LIMIT, nested in
//!    another repeated subtree, on both sides of one join — produce the
//!    oracle's rows in the oracle's order, satisfy the scan identity, and do
//!    so at every batch size.

use std::collections::HashSet;
use std::sync::Arc;

use bench::casestudies::{self, CaseParams};
use bench::{data, queries};
use proptest::prelude::*;
use rdf_model::{Dataset, Term};
use rdfframes_core::model::{compile, generator};
use rdfframes_core::RDFFrame;
use sparql_engine::algebra::{AggSpec, GraphRef, Plan};
use sparql_engine::ast::{AggOp, CmpOp, Expr, OrderKey, PatternTerm, TriplePattern};
use sparql_engine::{
    eval_reference, Engine, EngineConfig, ExecStats, PreparedQuery, SolutionTable,
};

fn engine(ds: &Arc<Dataset>, config: EngineConfig) -> Engine {
    Engine::with_config(Arc::clone(ds), config)
}

/// The oracle: evaluates every occurrence of every subplan.
fn reference(engine: &Engine, prepared: &PreparedQuery) -> (SolutionTable, ExecStats) {
    eval_reference::execute(engine, prepared, None).unwrap()
}

fn prepare(engine: &Engine, frame: &RDFFrame) -> PreparedQuery {
    let model = generator::build_query_model(frame).unwrap();
    let compiled = compile::compile(&model).unwrap();
    engine.prepare_plan(compiled.plan, compiled.from)
}

/// Drain a cursor, returning its rows and final statistics.
fn drain(
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

fn shared_and_refs(explain: &str) -> (usize, usize) {
    (
        explain.matches("(shared #").count(),
        explain.matches("(ref #").count(),
    )
}

// ---------------------------------------------------------------------------
// 1. Work bound
// ---------------------------------------------------------------------------

/// Every occurrence of a node that scans the store — a `Plan::Bgp` or a
/// `Plan::BindLeftJoin` — in pre-order (a bind node before its left input's).
fn scanning_nodes(plan: &Plan) -> Vec<&Plan> {
    match plan {
        Plan::Bgp { .. } => vec![plan],
        Plan::BindLeftJoin { left, .. } => {
            let mut nodes = vec![plan];
            nodes.extend(scanning_nodes(left));
            nodes
        }
        other => other.children().flat_map(scanning_nodes).collect(),
    }
}

/// Check the scan identities for every frame; returns the ids of the frames
/// whose plan has a shared subplan.
fn assert_scan_identities(ds: &Arc<Dataset>, frames: Vec<(String, RDFFrame)>) -> Vec<String> {
    let columnar = engine(ds, EngineConfig::new());
    // Runs a subplan of the optimized plan exactly as it stands.
    let literal = engine(
        ds,
        EngineConfig {
            optimize: false,
            ..EngineConfig::new()
        },
    );
    let mut sharing = Vec::new();
    for (id, frame) in &frames {
        let prepared = prepare(&columnar, frame);
        let scans = |plan: &Plan| -> u64 {
            let alone = literal.prepare_plan(plan.clone(), prepared.from_graphs().to_vec());
            literal
                .execute_prepared(&alone, None)
                .unwrap()
                .1
                .rows_scanned
        };
        let own_scans = |node: &Plan| -> u64 {
            match node {
                Plan::BindLeftJoin { left, .. } => scans(node) - scans(left),
                bgp => scans(bgp),
            }
        };
        let occurrences = scanning_nodes(prepared.plan());
        let distinct: HashSet<&Plan> = occurrences.iter().copied().collect();
        let distinct_scans: u64 = distinct.into_iter().map(own_scans).sum();
        let unshared_scans: u64 = occurrences.into_iter().map(own_scans).sum();

        let (table, stats) = columnar.execute_prepared(&prepared, None).unwrap();
        assert_eq!(
            stats.rows_scanned, distinct_scans,
            "{id}: some distinct scanning node was not read exactly once"
        );
        assert_eq!(
            stats.unshared_scans(),
            unshared_scans,
            "{id}: scans read + scans replayed"
        );
        let (_, unshared) = reference(&columnar, &prepared);
        assert_eq!(unshared.rows_scanned, unshared_scans, "{id}: oracle");
        for batch in [7, 256, usize::MAX] {
            let (_, streamed) = drain(&columnar, &prepared, batch);
            assert_eq!(
                (streamed.rows_scanned, streamed.shared_scans),
                (stats.rows_scanned, stats.shared_scans),
                "{id}: batch {batch} vs `execute`"
            );
        }

        let (shared, refs) = shared_and_refs(&prepared.explain());
        if shared == 0 {
            assert_eq!(refs, 0, "{id}");
            assert_eq!(stats.shared_scans, 0, "{id}: nothing is shared");
            assert_eq!(stats.rows_scanned, unshared_scans, "{id}: unchanged");
        } else {
            assert!(refs >= shared, "{id}: a shared node is read at least twice");
            assert!(!table.is_empty(), "{id}: an empty result proves nothing");
            assert!(stats.shared_scans > 0, "{id}: replays stand in for scans");
            sharing.push(id.clone());
        }
        if id == "cs1" {
            assert!(
                stats.rows_scanned * 10 <= unshared_scans * 4,
                "cs1: {} entries read, {unshared_scans} without sharing",
                stats.rows_scanned
            );
        }
    }
    sharing
}

#[test]
fn cs1_reads_every_distinct_subplan_once() {
    const SCALE: usize = 1024;
    let ds = data::build_dataset(SCALE);
    let prolific = CaseParams::for_scale(SCALE).prolific;
    let cs1 = casestudies::movie_genre_classification(prolific);
    assert_eq!(
        assert_scan_identities(&ds, vec![("cs1".into(), cs1)]),
        ["cs1"]
    );
}

#[test]
fn table_2_and_case_studies_read_every_distinct_subplan_once() {
    const SCALE: usize = 64;
    let ds = data::build_dataset(SCALE);
    let p = CaseParams::for_scale(SCALE);
    let mut frames: Vec<(String, RDFFrame)> = vec![
        (
            "cs2".into(),
            casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
        ),
        ("cs3".into(), casestudies::kg_embedding()),
    ];
    frames.extend(
        queries::all_queries()
            .into_iter()
            .map(|def| (def.id.to_string(), def.frame)),
    );
    // 18 of the 22 paper frames have no repeated subtree (cs1 is the fourth
    // that does).
    assert_eq!(assert_scan_identities(&ds, frames), ["Q7", "Q10", "Q11"]);
}

// ---------------------------------------------------------------------------
// 2. Plan snapshots
// ---------------------------------------------------------------------------

const CS1_SSE: &str = include_str!("snapshots/cs1_scale64.sse");
const Q1_SSE: &str = include_str!("snapshots/q1_scale64.sse");

#[test]
fn explain_shows_the_dag() {
    const SCALE: usize = 64;
    let ds = data::build_dataset(SCALE);
    let engine = engine(&ds, EngineConfig::new());

    let prolific = CaseParams::for_scale(SCALE).prolific;
    let cs1 = prepare(&engine, &casestudies::movie_genre_classification(prolific)).explain();
    assert_eq!(cs1, CS1_SSE.trim_end(), "cs1:\n{cs1}");
    // movies ×3, american ×2, genre ×3 (once inside `american`, which is
    // itself printed once), prolific ×2: four sources, nine readers.
    assert_eq!(shared_and_refs(&cs1), (4, 5));

    let q1 = queries::all_queries().swap_remove(0);
    assert_eq!(q1.id, "Q1");
    let q1 = prepare(&engine, &q1.frame).explain();
    assert_eq!(q1, Q1_SSE.trim_end(), "Q1:\n{q1}");
    assert_eq!(shared_and_refs(&q1), (0, 0));
}

/// The optimized plan of every paper frame at scale 64, one file each
/// (`snapshots/<id>_scale64.sse`, the id lower-cased): a change to any
/// optimizer pass that moves a node, a join form or an annotation shows
/// here as a diff of the frame's file.
const PAPER_SSE: [(&str, &str); 22] = [
    ("cs1", CS1_SSE),
    ("cs2", include_str!("snapshots/cs2_scale64.sse")),
    ("cs3", include_str!("snapshots/cs3_scale64.sse")),
    ("Q1", Q1_SSE),
    ("Q2", include_str!("snapshots/q2_scale64.sse")),
    ("Q3", include_str!("snapshots/q3_scale64.sse")),
    ("Q4", include_str!("snapshots/q4_scale64.sse")),
    ("Q5", include_str!("snapshots/q5_scale64.sse")),
    ("Q6", include_str!("snapshots/q6_scale64.sse")),
    ("Q7", include_str!("snapshots/q7_scale64.sse")),
    ("Q8", include_str!("snapshots/q8_scale64.sse")),
    ("Q9", include_str!("snapshots/q9_scale64.sse")),
    ("Q10", include_str!("snapshots/q10_scale64.sse")),
    ("Q11", include_str!("snapshots/q11_scale64.sse")),
    ("Q12", include_str!("snapshots/q12_scale64.sse")),
    ("Q13", include_str!("snapshots/q13_scale64.sse")),
    ("Q14", include_str!("snapshots/q14_scale64.sse")),
    ("Q15", include_str!("snapshots/q15_scale64.sse")),
    ("Q16", include_str!("snapshots/q16_scale64.sse")),
    ("Q17", include_str!("snapshots/q17_scale64.sse")),
    ("Q18", include_str!("snapshots/q18_scale64.sse")),
    ("Q19", include_str!("snapshots/q19_scale64.sse")),
];

#[test]
fn every_paper_frame_plans_as_its_snapshot() {
    const SCALE: usize = 64;
    let ds = data::build_dataset(SCALE);
    let engine = engine(&ds, EngineConfig::new());
    let p = CaseParams::for_scale(SCALE);
    let mut frames: Vec<(String, RDFFrame)> = vec![
        (
            "cs1".into(),
            casestudies::movie_genre_classification(p.prolific),
        ),
        (
            "cs2".into(),
            casestudies::topic_modeling(p.since_year, p.threshold, p.recent_year),
        ),
        ("cs3".into(), casestudies::kg_embedding()),
    ];
    frames.extend(
        queries::all_queries()
            .into_iter()
            .map(|def| (def.id.to_string(), def.frame)),
    );
    let ids: Vec<&str> = frames.iter().map(|(id, _)| id.as_str()).collect();
    let pinned: Vec<&str> = PAPER_SSE.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, pinned, "one snapshot per paper frame");
    for ((id, frame), (_, expected)) in frames.iter().zip(PAPER_SSE) {
        let explain = prepare(&engine, frame).explain();
        assert_eq!(explain, expected.trim_end(), "{id}:\n{explain}");
    }
}

// ---------------------------------------------------------------------------
// 3. Differential property
// ---------------------------------------------------------------------------

/// Draws decisions from a proptest-generated byte tape (zeros once it runs
/// out, so every tape is a valid plan and shrinking stays meaningful). The
/// first draw picks the graph every leaf of the plan reads.
struct Tape<'a> {
    bytes: std::slice::Iter<'a, u8>,
    vocab: &'static Vocab,
}

impl<'a> Tape<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut tape = Tape {
            bytes: bytes.iter(),
            vocab: &VOCABS[0],
        };
        tape.vocab = &VOCABS[tape.pick(VOCABS.len())];
        tape
    }

    fn pick(&mut self, n: usize) -> usize {
        *self.bytes.next().unwrap_or(&0) as usize % n
    }
}

/// The five predicates the leaves draw from, per graph: four on the entity
/// every leaf binds as `?movie` (films in DBpedia, papers in DBLP, actors in
/// YAGO) and one on the first one's objects. DBpedia is inserted first,
/// DBLP and YAGO after it, so two of the three run on a re-keyed index.
struct Vocab {
    from: &'static str,
    /// `?movie P ?actor`, `?movie P ?genre`, `?movie P ?country`,
    /// `?movie P ?language`, `?actor P ?place` (the last has no match in
    /// DBLP or YAGO, whose objects are never subjects: an empty leaf).
    predicates: [&'static str; 5],
}

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

static VOCABS: [Vocab; 3] = [
    Vocab {
        from: data::uris::DBPEDIA,
        predicates: [
            "http://dbpedia.org/property/starring",
            "http://dbpedia.org/ontology/genre",
            "http://dbpedia.org/property/country",
            "http://dbpedia.org/property/language",
            "http://dbpedia.org/property/birthPlace",
        ],
    },
    Vocab {
        from: data::uris::DBLP,
        predicates: [
            "http://purl.org/dc/elements/1.1/creator",
            "http://swrc.ontoware.org/ontology#series",
            "http://purl.org/dc/terms/issued",
            "http://purl.org/dc/elements/1.1/title",
            RDF_TYPE,
        ],
    },
    Vocab {
        from: data::uris::YAGO,
        predicates: [
            "http://yago-knowledge.org/resource/actedIn",
            RDF_TYPE,
            "http://yago-knowledge.org/resource/isCitizenOf",
            RDF_TYPE,
            "http://yago-knowledge.org/resource/actedIn",
        ],
    },
];

fn var(v: &str) -> PatternTerm {
    PatternTerm::Var(v.into())
}

fn triple(s: &str, predicate: &str, o: &str) -> TriplePattern {
    TriplePattern::new(var(s), PatternTerm::Const(Term::iri(predicate)), var(o))
}

fn bgp(patterns: Vec<TriplePattern>) -> Plan {
    Plan::Bgp {
        patterns,
        graph: GraphRef::Default,
        filters: Vec::new(),
    }
}

/// A leaf over the drawn graph's vocabulary; all of them bind `?movie`.
fn leaf(tape: &mut Tape) -> Plan {
    let [starring, genre, country, language, born] = tape.vocab.predicates;
    let starring = triple("movie", starring, "actor");
    let genre = triple("movie", genre, "genre");
    let country = triple("movie", country, "country");
    let language = triple("movie", language, "language");
    let born = triple("actor", born, "place");
    match tape.pick(6) {
        0 => bgp(vec![starring]),
        1 => bgp(vec![genre]),
        2 => bgp(vec![country, language]),
        3 => bgp(vec![starring, born]),
        4 => bgp(vec![genre, country]),
        _ => bgp(vec![language]),
    }
}

fn count_movies(input: Plan, key: &str) -> Plan {
    Plan::Group {
        keys: vec![key.into()],
        aggs: vec![AggSpec {
            op: AggOp::Count,
            distinct: true,
            expr: Some(Expr::Var("movie".into())),
            output: "n".into(),
        }],
        input: Box::new(input),
    }
}

fn order_by_movie(input: Plan) -> Plan {
    let key = |v: &str| OrderKey {
        expr: Expr::Var(v.into()),
        ascending: true,
    };
    Plan::OrderBy {
        keys: vec![key("movie"), key("n")],
        top: None,
        input: Box::new(input),
    }
}

/// An inner join, or a left join when `optional`.
fn join(left: Plan, right: Plan, optional: bool) -> Plan {
    let (left, right, merge_on) = (Box::new(left), Box::new(right), None);
    match optional {
        false => Plan::Join {
            left,
            right,
            merge_on,
        },
        true => Plan::LeftJoin {
            left,
            right,
            merge_on,
        },
    }
}

/// A small subtree that still binds `?movie` (the one variable every
/// combinator below joins on).
fn subtree(tape: &mut Tape, depth: usize) -> Plan {
    if depth == 0 {
        return leaf(tape);
    }
    let a = subtree(tape, depth - 1);
    match tape.pick(6) {
        0 => join(a, leaf(tape), false),
        1 => join(a, leaf(tape), true),
        2 => Plan::Distinct(Box::new(Plan::Project(vec!["movie".into()], Box::new(a)))),
        3 => count_movies(a, "movie"),
        4 => Plan::Filter(
            Expr::Cmp(
                CmpOp::Neq,
                Box::new(Expr::Var("movie".into())),
                Box::new(Expr::Var("genre".into())),
            ),
            Box::new(a),
        ),
        _ => a,
    }
}

/// One more reader of `repeated`: as it is, or under an operator of its own.
fn reader(tape: &mut Tape, repeated: &Plan) -> Plan {
    let copy = Box::new(repeated.clone());
    match tape.pick(6) {
        0 => Plan::Distinct(copy),
        1 => count_movies(*copy, "movie"),
        2 => Plan::Slice {
            limit: Some(1 + tape.pick(40)),
            offset: tape.pick(3),
            input: copy,
        },
        3 => Plan::Project(vec!["movie".into()], copy),
        _ => *copy,
    }
}

/// A plan in which `repeated` occurs 2–4 times.
fn plan_with_repeats(tape: &mut Tape) -> Plan {
    let depth = tape.pick(3);
    let inner = subtree(tape, depth);
    // Half of the time the repeated subtree itself contains a subtree that
    // is read once more from outside it: a class nested in a class.
    let nested = tape.pick(2) == 1;
    let repeated = match nested {
        true => join(leaf(tape), inner.clone(), true),
        false => inner.clone(),
    };
    let mut plan = match tape.pick(3) {
        // The only two consumers are the two sides of one join.
        0 => join(repeated.clone(), repeated.clone(), false),
        _ => repeated.clone(),
    };
    for _ in 0..1 + tape.pick(3) {
        let other = reader(tape, &repeated);
        plan = match tape.pick(4) {
            0 => join(plan, other, false),
            1 => join(plan, other, true),
            2 => Plan::Union(Box::new(other), Box::new(plan)),
            _ => Plan::Union(Box::new(plan), Box::new(other)),
        };
    }
    if nested {
        plan = join(plan, inner, false);
    }
    match tape.pick(5) {
        0 => Plan::Distinct(Box::new(plan)),
        1 => order_by_movie(plan),
        2 => Plan::Slice {
            limit: Some(5 + tape.pick(60)),
            offset: tape.pick(4),
            input: Box::new(order_by_movie(plan)),
        },
        3 => count_movies(plan, "movie"),
        _ => plan,
    }
}

fn has_limit(plan: &Plan) -> bool {
    let bounded = matches!(plan, Plan::OrderBy { top: Some(_), .. });
    bounded || matches!(plan, Plan::Slice { .. }) || plan.children().any(has_limit)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn shared_evaluation_agrees_with_the_unshared_oracle(
        tape in proptest::collection::vec(any::<u8>(), 48),
    ) {
        // One dataset for all cases (the shim runs them on one thread).
        thread_local! {
            static DATASET: Arc<Dataset> = data::build_dataset(24);
        }
        let ds = DATASET.with(Arc::clone);
        let mut tape = Tape::new(&tape);
        let from = vec![tape.vocab.from.to_string()];
        let plan = plan_with_repeats(&mut tape);

        let columnar = engine(&ds, EngineConfig::new());
        let prepared = columnar.prepare_plan(plan, from);
        let explain = prepared.explain();
        let (shared, refs) = shared_and_refs(&explain);
        prop_assert!(shared >= 1 && refs >= shared, "nothing repeats in\n{}", explain);

        // Rows and order against the oracle, and the scan identity — which
        // a satisfied LIMIT relaxes to "never more work, often less": even
        // `execute`'s one unbounded pull leaves an input unread that the
        // slice above it never asks for.
        let early_exit = has_limit(prepared.plan());
        let (expected, unshared) = reference(&columnar, &prepared);
        let (table, stats) = columnar.execute_prepared(&prepared, None).unwrap();
        prop_assert_eq!(&table, &expected, "rows or order differ for\n{}", &explain);
        if early_exit {
            prop_assert!(stats.unshared_scans() <= unshared.rows_scanned, "{}", &explain);
        } else {
            prop_assert_eq!(stats.unshared_scans(), unshared.rows_scanned, "{}", &explain);
            prop_assert!(stats.shared_scans > 0 || unshared.rows_scanned == 0, "{}", &explain);
        }

        // Batch sizes (the unbounded pull of `execute` included).
        let expected_rows: Vec<_> = expected.rows().map(|r| r.to_vec()).collect();
        for batch in [1usize, 7, 256, 16_384, usize::MAX] {
            let (rows, s) = drain(&columnar, &prepared, batch);
            let at = format!("batch {batch}");
            prop_assert_eq!(&rows, &expected_rows, "{}\n{}", &at, &explain);
            if early_exit && batch != usize::MAX {
                // The LIMIT carve-out: the smaller the pulls, the
                // earlier the exit.
                prop_assert!(s.rows_scanned <= stats.rows_scanned, "{}\n{}", &at, &explain);
                prop_assert!(s.unshared_scans() <= stats.unshared_scans(), "{}\n{}", &at, &explain);
            } else {
                prop_assert_eq!(
                    (s.rows_scanned, s.shared_scans),
                    (stats.rows_scanned, stats.shared_scans),
                    "{}\n{}", &at, &explain
                );
            }
        }
    }
}
