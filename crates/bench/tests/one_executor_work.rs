//! Work test for the one executor — exact counts, no clock.
//!
//! `execute_prepared` is a drained cursor, so for every frame of the paper's
//! workload its work counters must be the ones a cursor reports at any batch
//! size: what a pull asks for changes when work happens, never how much.
//! And a page is a `LIMIT`: paging cs3 — the pure scan the wire benchmark
//! pages through — each page must read strictly less than the next one and
//! none more than the unpaged run, while the stitched pages are the unpaged
//! table. (Evaluating the whole result per page, as the engine did before
//! paging moved onto the pipeline, reads the same for every page.)

use bench::casestudies::{self, CaseParams};
use bench::{data, queries};
use rdfframes_core::model::{compile, generator};
use rdfframes_core::RDFFrame;
use sparql_engine::{Engine, ExecStats, PreparedQuery};

const SCALE: usize = 64;

fn prepare(engine: &Engine, frame: &RDFFrame) -> PreparedQuery {
    let model = generator::build_query_model(frame).unwrap();
    let compiled = compile::compile(&model).unwrap();
    engine.prepare_plan(compiled.plan, compiled.from)
}

/// The counters that measure work done (the `peak_live_*` and
/// `batches_emitted` fields describe how it was scheduled).
fn work(stats: &ExecStats) -> [u64; 7] {
    [
        stats.rows_scanned,
        stats.shared_scans,
        stats.join_candidates,
        stats.merge_joins,
        stats.merge_left_joins,
        stats.sorted_distincts,
        stats.sorted_groups,
    ]
}

#[test]
fn execute_does_the_work_of_a_drained_cursor_at_any_batch_size() {
    let engine = Engine::new(data::build_dataset(SCALE));
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
    let mut totals = [0u64; 7];
    for (id, frame) in &frames {
        let prepared = prepare(&engine, frame);
        let (table, stats) = engine.execute_prepared(&prepared, None).unwrap();
        for batch in [7, 16_384] {
            let mut cursor = engine.cursor(&prepared, batch).unwrap();
            let mut rows = 0;
            while let Some(b) = cursor.next_batch().unwrap() {
                rows += b.len;
            }
            assert_eq!(rows, table.len(), "{id}: batch {batch}");
            assert_eq!(
                work(&cursor.stats()),
                work(&stats),
                "{id}: batch {batch} vs execute_prepared"
            );
        }
        for (total, n) in totals.iter_mut().zip(work(&stats)) {
            *total += n;
        }
    }
    // The workload exercises every counter compared above but one: no paper
    // frame ends in a DISTINCT over a sorted scan.
    let [.., sorted_distincts, _] = totals;
    assert_eq!(sorted_distincts, 0);
    assert_eq!(totals.iter().filter(|&&n| n > 0).count(), 6, "{totals:?}");
}

#[test]
fn a_page_reads_no_further_than_it_ships() {
    let engine = Engine::new(data::build_dataset(SCALE));
    let prepared = prepare(&engine, &casestudies::kg_embedding());
    let (whole, unpaged) = engine.execute_prepared(&prepared, None).unwrap();
    let limit = whole.len().div_ceil(4);
    assert!(limit > 100, "cs3 too small to page: {} rows", whole.len());

    let mut stitched = Vec::new();
    let mut scanned = Vec::new();
    for k in 0..4 {
        let page = Some((k * limit, limit));
        let (table, stats) = engine.execute_prepared(&prepared, page).unwrap();
        assert_eq!(table.vars(), whole.vars());
        stitched.extend(table.rows().map(|r| r.to_vec()));
        scanned.push(stats.rows_scanned);
    }
    assert!(
        whole.rows().map(|r| r.to_vec()).eq(stitched),
        "stitched pages ≡ the unpaged table"
    );
    assert!(
        scanned.windows(2).all(|w| w[0] < w[1]),
        "page k must read strictly less than page k + 1: {scanned:?}"
    );
    assert!(
        scanned[3] <= unpaged.rows_scanned,
        "{scanned:?} vs {} unpaged",
        unpaged.rows_scanned
    );
    // One page past the end: empty, and no more work than the whole.
    let (past, stats) = engine
        .execute_prepared(&prepared, Some((4 * limit, limit)))
        .unwrap();
    assert!(past.is_empty());
    assert!(stats.rows_scanned <= unpaged.rows_scanned);
}
