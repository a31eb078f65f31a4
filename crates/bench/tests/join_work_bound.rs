//! Work-bound regression test for the engine's joins.
//!
//! A single join can be done in time linear in its input plus its output
//! (the yardstick of *Aggregations over Generalized Hypertree
//! Decompositions*). `ExecStats::join_candidates` counts the pairs the joins
//! actually tested, so for every frame of the paper's workload
//!
//! ```text
//! join_candidates ≤ 4 × Σ over join nodes (left rows + right rows + output rows)
//! ```
//!
//! must hold — an exact count against exact row counts, no clock involved.
//! No frame is exempt today; one that legitimately exceeds the bound is to be
//! skipped by name in `assert_within_bound`, with the reason beside it.
//! A join keyed on fewer variables than its rows bind breaks it by orders of
//! magnitude: cs1 joins the `movies` BGP to a full outer join (a UNION of two
//! OPTIONALs) that shares seven variables with it, only `?actor` bound in
//! every row, and hashing on `?actor` alone tested 7.8 M same-actor pairs
//! against 47 k input + output rows at scale 4000. The fan-out needs actors with many
//! movies, so cs1 runs at scale 1024 (the `?actor`-only key tested 706 170
//! pairs there against a bound of 241 740; at scale 64 it stayed within the
//! bound, 7 361 against 15 196); the other frames run at scale 64.

use std::sync::Arc;

use bench::casestudies::{self, CaseParams};
use bench::{data, queries};
use rdf_model::Dataset;
use rdfframes_core::model::{compile, generator};
use rdfframes_core::RDFFrame;
use sparql_engine::algebra::Plan;
use sparql_engine::{Engine, EngineConfig};

/// Σ over the join nodes of `plan` of left + right + output rows, each
/// counted by evaluating the subplan as it stands.
fn join_rows(literal: &Engine, from: &[String], plan: &Plan) -> u64 {
    let rows = |p: &Plan| -> u64 {
        let prepared = literal.prepare_plan(p.clone(), from.to_vec());
        literal.execute_prepared(&prepared, None).unwrap().0.len() as u64
    };
    let below: u64 = plan.children().map(|c| join_rows(literal, from, c)).sum();
    match plan {
        Plan::Join {
            left: l, right: r, ..
        }
        | Plan::LeftJoin {
            left: l, right: r, ..
        } => rows(l) + rows(r) + rows(plan) + below,
        _ => below,
    }
}

/// Check the bound for every frame; returns how many of them join at all.
fn assert_within_bound(ds: &Arc<Dataset>, frames: Vec<(String, RDFFrame)>) -> usize {
    let engine = Engine::new(Arc::clone(ds));
    // Runs the optimized plan's subplans exactly as they stand.
    let literal = Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            optimize: false,
            ..EngineConfig::new()
        },
    );
    let mut joined_frames = 0;
    for (id, frame) in &frames {
        let model = generator::build_query_model(frame).unwrap();
        let compiled = compile::compile(&model).unwrap();
        let prepared = engine.prepare_plan(compiled.plan, compiled.from);
        let (table, stats) = engine.execute_prepared(&prepared, None).unwrap();
        let bound = 4 * join_rows(&literal, prepared.from_graphs(), prepared.plan());
        if bound == 0 {
            assert_eq!(stats.join_candidates, 0, "{id}: no join, no candidates");
            continue;
        }
        joined_frames += 1;
        assert!(!table.is_empty(), "{id}: an empty result proves nothing");
        assert!(
            stats.join_candidates <= bound,
            "{id}: {} candidate pairs tested, 4 × (join inputs + outputs) = {bound}",
            stats.join_candidates
        );
    }
    joined_frames
}

#[test]
fn cs1_joins_stay_within_input_plus_output() {
    const SCALE: usize = 1024;
    let ds = data::build_dataset(SCALE);
    let prolific = CaseParams::for_scale(SCALE).prolific;
    let cs1 = casestudies::movie_genre_classification(prolific);
    assert_eq!(assert_within_bound(&ds, vec![("cs1".into(), cs1)]), 1);
}

#[test]
fn table_2_and_case_study_joins_stay_within_input_plus_output() {
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
    assert!(assert_within_bound(&ds, frames) >= 10);
}
