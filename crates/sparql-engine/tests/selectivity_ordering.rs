//! Selectivity-ordered BGP evaluation: the optimizer reorders triple
//! patterns by the dataset's cached `PredicateStats` before evaluation.
//!
//! These tests pin down both halves of the contract on a dataset where
//! textual order is adversarially bad (the huge scan is written first, the
//! needle last):
//!
//! - **Equality**: optimized and unoptimized plans produce identical bags on
//!   every evaluator (reordering is a pure physical rewrite).
//! - **Effectiveness**: the reordered plan scans strictly fewer index
//!   entries (`rows_scanned`), and both evaluators agree on the
//!   reordered count exactly.

use std::sync::Arc;

use rdf_model::{Dataset, Graph, Term, Triple};
use sparql_engine::{eval_reference, Engine, EngineConfig, ExecStats, Result, SolutionTable};

fn iri(s: &str) -> Term {
    Term::iri(s.to_string())
}

/// 2000 `label` triples, 500 `inCountry`, 3 `award` — a steep selectivity
/// gradient for the optimizer to exploit.
fn skewed_dataset() -> Arc<Dataset> {
    let mut g = Graph::new();
    for i in 0..1000 {
        let e = iri(&format!("http://x/e{i}"));
        g.insert(&Triple::new(
            e.clone(),
            iri("http://x/label"),
            Term::string(format!("entity {i}")),
        ));
        g.insert(&Triple::new(
            e.clone(),
            iri("http://x/alias"),
            Term::string(format!("alias {i}")),
        ));
        if i % 2 == 0 {
            g.insert(&Triple::new(
                e.clone(),
                iri("http://x/inCountry"),
                iri(&format!("http://x/country{}", i % 5)),
            ));
        }
        if i < 3 {
            g.insert(&Triple::new(
                e,
                iri("http://x/award"),
                iri("http://x/oscar"),
            ));
        }
    }
    let mut ds = Dataset::new();
    ds.insert_graph("http://g", g);
    Arc::new(ds)
}

/// Worst-first textual order: big scans before the selective award pattern.
const MISORDERED: &str = "SELECT ?e ?l ?c FROM <http://g> WHERE { \
     ?e <http://x/label> ?l . \
     ?e <http://x/alias> ?al . \
     ?e <http://x/inCountry> ?c . \
     ?e <http://x/award> <http://x/oscar> }";

fn engine(ds: &Arc<Dataset>, optimize: bool) -> Engine {
    Engine::with_config(
        Arc::clone(ds),
        EngineConfig {
            optimize,
            ..EngineConfig::new()
        },
    )
}

/// One evaluator's way of running query text on an engine.
type Run = fn(&Engine, &str) -> Result<(SolutionTable, ExecStats)>;

/// The oracle on the engine's prepared plan.
fn oracle(engine: &Engine, q: &str) -> Result<(SolutionTable, ExecStats)> {
    eval_reference::execute(engine, &engine.prepare(q)?, None)
}

const MODES: [(&str, Run); 2] = [("executor", Engine::execute_with_stats), ("oracle", oracle)];

#[test]
fn reordering_preserves_results_on_all_evaluators() {
    let ds = skewed_dataset();
    let mut canonical: Option<sparql_engine::SolutionTable> = None;
    for (mode, run) in MODES {
        for optimize in [true, false] {
            let (mut t, _) = run(&engine(&ds, optimize), MISORDERED).unwrap();
            t.canonicalize();
            // e0..e2 hold awards but only even entities have inCountry.
            assert_eq!(t.len(), 2, "two awarded in-country entities expected");
            match &canonical {
                Some(c) => assert_eq!(c, &t, "{mode} optimize={optimize}"),
                None => canonical = Some(t),
            }
        }
    }
}

#[test]
fn reordering_scans_fewer_index_entries() {
    let ds = skewed_dataset();
    for (mode, run) in MODES {
        let (_, with_opt) = run(&engine(&ds, true), MISORDERED).unwrap();
        let (_, without) = run(&engine(&ds, false), MISORDERED).unwrap();
        // Textual order scans the 2000-entry label index up front; the
        // stats-driven order starts from the 3 award triples.
        assert!(
            with_opt.rows_scanned * 10 <= without.rows_scanned,
            "{mode}: expected ≥10× fewer scans, got {} vs {}",
            with_opt.rows_scanned,
            without.rows_scanned
        );
    }

    // All evaluators agree on the reordered work metric exactly.
    let counts: Vec<u64> = MODES
        .iter()
        .map(|(_, run)| run(&engine(&ds, true), MISORDERED).unwrap().1.rows_scanned)
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}
