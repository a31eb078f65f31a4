//! Streaming-pipeline satellites: LIMIT early exit, bounded live memory,
//! budget semantics, and telemetry — plus a property test that random
//! BGP/OPTIONAL/GROUP BY shapes stream byte-identically at random batch
//! sizes.
//!
//! **The LIMIT carve-out.** The parity oracle everywhere else in this
//! repository is *exact* scan equality: `rows_scanned` (entries read) and
//! `shared_scans` (entries a shared subplan's replays stood in for) each
//! match between streaming and materializing execution, and their sum is
//! the oracle evaluators' `rows_scanned`. `LIMIT` is the one
//! deliberate exception: the streaming slice stops pulling its upstream
//! once the limit is satisfied, so upstream scans never run — streaming
//! legitimately scans *fewer* index entries. Results (rows, order, bytes)
//! remain identical; only the work count drops.

use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::{Engine, EngineConfig, EngineError, ExecStats, QueryBudget, ResourceKind};

const GRAPH: &str = "http://g";

/// `n` triples `s{i} p o{i%7}`, either compacted into frozen slabs (the
/// steady-state layout) or left entirely in the mutable delta overlay
/// (the post-append layout) — scans and resume positions must behave
/// identically over both.
fn dataset(n: usize, delta_resident: bool) -> Arc<Dataset> {
    let mut g = if delta_resident {
        Graph::with_delta_threshold(usize::MAX)
    } else {
        Graph::new()
    };
    for i in 0..n {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::iri(format!("http://x/o{}", i % 7)),
        ));
    }
    if delta_resident {
        assert_eq!(g.delta_len(), n, "layout setup: delta must hold all rows");
    } else {
        g.compact();
        assert_eq!(g.delta_len(), 0, "layout setup: slabs must hold all rows");
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

fn engine(ds: &Arc<Dataset>, streaming: bool, budget: QueryBudget) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            streaming,
            budget,
            ..EngineConfig::new()
        },
    )
}

/// Drain a cursor completely, returning term-materialized rows (in cursor
/// order) and the post-drain statistics.
fn drain(engine: &Engine, q: &str, batch_rows: usize) -> (Vec<Vec<Option<Term>>>, ExecStats) {
    let prepared = engine.prepare(q).unwrap();
    let mut cursor = engine.cursor(&prepared, batch_rows).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = cursor.next_batch().unwrap() {
        for row in 0..batch.len {
            rows.push(
                (0..batch.vars().len())
                    .map(|c| batch.get(c, row).map(|id| batch.resolve(id).clone()))
                    .collect(),
            );
        }
    }
    (rows, cursor.stats())
}

/// The two scan counters that must match between streaming and
/// materializing execution of a fully drained plan.
fn scans(stats: &ExecStats) -> (u64, u64) {
    (stats.rows_scanned, stats.shared_scans)
}

#[test]
fn limit_early_exit_reduces_scan_work_on_both_layouts() {
    const N: usize = 5000;
    let q = format!("SELECT ?s ?o FROM <{GRAPH}> WHERE {{ ?s <http://x/p> ?o }} LIMIT 10");
    for delta_resident in [false, true] {
        let ds = dataset(N, delta_resident);
        let streaming = engine(&ds, true, QueryBudget::unlimited());
        let materializing = engine(&ds, false, QueryBudget::unlimited());
        let (rows_s, stats_s) = drain(&streaming, &q, 16);
        let (rows_m, stats_m) = drain(&materializing, &q, 16);
        // Same ten rows, same order — the carve-out never changes results.
        assert_eq!(rows_s, rows_m, "delta_resident={delta_resident}");
        assert_eq!(rows_s.len(), 10);
        // The materializing path scans the whole index range; the
        // streaming slice stops pulling after one 16-row batch.
        assert!(
            stats_m.rows_scanned >= N as u64,
            "delta_resident={delta_resident}: materializing scanned {}",
            stats_m.rows_scanned
        );
        assert!(
            stats_s.rows_scanned < stats_m.rows_scanned,
            "delta_resident={delta_resident}: streaming must scan strictly less \
             ({} vs {})",
            stats_s.rows_scanned,
            stats_m.rows_scanned
        );
        assert!(
            stats_s.rows_scanned < 1000,
            "delta_resident={delta_resident}: early exit barely helped: {}",
            stats_s.rows_scanned
        );
    }
}

/// N triples × N triples with no shared variable: N² results.
const CROSS_JOIN: &str = "SELECT ?a ?b ?c ?d FROM <http://g> WHERE { \
     ?a <http://x/p> ?b . ?c <http://x/p> ?d }";

#[test]
fn streaming_completes_under_budget_that_trips_materialization() {
    // Scale 250 → 62 500 result rows: far over the 10 000-row intermediate
    // budget when materialized, comfortably under it per 200-row streaming
    // batch. (Batches stay below the 256-row parallel gate so the outcome
    // is identical at any RDFFRAMES_THREADS setting.)
    let ds = dataset(250, false);
    let budget = QueryBudget::unlimited().with_max_intermediate_rows(10_000);

    let materializing = engine(&ds, false, budget.clone());
    let err = materializing
        .execute(CROSS_JOIN)
        .expect_err("full materialization must trip the budget");
    assert!(matches!(
        err,
        EngineError::ResourceExhausted {
            resource: ResourceKind::IntermediateRows,
            ..
        }
    ));

    let streaming = engine(&ds, true, budget.clone());
    let (rows, stats) = drain(&streaming, CROSS_JOIN, 200);
    assert_eq!(rows.len(), 250 * 250, "streaming must produce every row");
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
    let mut cursor = streaming.cursor(&prepared, 200).unwrap();
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

    let streaming = engine(&ds, true, QueryBudget::unlimited());
    let (rows, stats) = drain(&streaming, &q, BATCH);
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

    let materializing = engine(&ds, false, QueryBudget::unlimited());
    let (_, stats_m) = drain(&materializing, &q, BATCH);
    assert!(
        stats_m.peak_live_rows >= N as u64,
        "materializing peak {} should cover the whole result",
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
    g.compact();
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
    let streaming = engine(&ds, true, QueryBudget::unlimited());
    let materializing = engine(&ds, false, QueryBudget::unlimited());
    let (expected, stats_m) = drain(&materializing, &q, 4096);
    assert_eq!(expected.len() as u64, STAR * FAN_OUT);
    // The optimizer split the value join: one scan set per star (the
    // nested loop would re-probe the second star per first-star row).
    assert_eq!(stats_m.rows_scanned, 2 * 1500);

    for batch in [1usize, 7, 64, 256, 4096] {
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
    let streaming = engine(&ds, true, QueryBudget::unlimited());
    let materializing = engine(&ds, false, QueryBudget::unlimited());
    for body in [
        format!("{{ {bgp} }} {{ {outer} }}"),
        format!("{{ {outer} }} {{ {bgp} }}"),
        format!("{{ {bgp} }} OPTIONAL {{ {outer} }}"),
    ] {
        let q = format!("SELECT * FROM <{GRAPH}> WHERE {{ {body} }}");
        let (expected, stats_m) = drain(&materializing, &q, 4096);
        assert!(!expected.is_empty());
        assert!(stats_m.join_candidates > 0);
        let (_, stats_e) = materializing.execute_with_stats(&q).unwrap();
        assert_eq!(stats_e.join_candidates, stats_m.join_candidates, "{q}");
        for batch in [1usize, 7, 256] {
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

fn build_graph(triples: &[(u8, u8, u8)], delta_resident: bool) -> Arc<Dataset> {
    let mut g = if delta_resident {
        Graph::with_delta_threshold(usize::MAX)
    } else {
        Graph::new()
    };
    for (s, p, o) in triples {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{s}")),
            Term::iri(format!("http://x/p{p}")),
            Term::iri(format!("http://x/o{o}")),
        ));
    }
    if !delta_resident {
        g.compact();
    }
    let mut ds = Dataset::new();
    ds.insert_graph(GRAPH, g);
    Arc::new(ds)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random BGP (+ optional OPTIONAL tail, + optional GROUP BY head)
    /// over a random graph in a random storage layout: the streaming
    /// cursor must produce byte-identical rows in identical order with
    /// identical `rows_scanned` and `shared_scans` as the materializing
    /// cursor, at any batch size (none of these shapes has a LIMIT, so the
    /// carve-out is moot).
    #[test]
    fn random_shapes_stream_identically(
        triples in proptest::collection::vec((0u8..6, 0u8..3, 0u8..6), 1..40),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
        tail in pattern_strategy(),
        with_optional in any::<bool>(),
        with_group in any::<bool>(),
        delta_resident in any::<bool>(),
        batch_rows in 1usize..70,
    ) {
        let ds = build_graph(&triples, delta_resident);
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
        let streaming = engine(&ds, true, QueryBudget::unlimited());
        let materializing = engine(&ds, false, QueryBudget::unlimited());
        let (rows_s, stats_s) = drain(&streaming, &q, batch_rows);
        let (rows_m, stats_m) = drain(&materializing, &q, batch_rows);
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
