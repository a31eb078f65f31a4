//! What an embedded result costs in allocations and bytes, counted, not timed.
//!
//! `cursor_to_dataframe` drains a dictionary-coded frame: one dictionary
//! entry per *distinct* term and a `u32` code per cell, held as a list of
//! row blocks, one per drained batch. So around
//! `EmbeddedEndpoint::execute_model_direct` nothing may allocate per row or
//! per cell — beyond what draining the same cursor allocates on its own, only
//! each batch's exact-size block of code columns (moved into the frame, never
//! copied), the frame's list of blocks, the dictionary and id memo, and a
//! decoded term that is not already an `Arc` of the dataset's (see
//! [`drain_allowance`], which counts them) — and the frame it returns holds
//! four bytes per cell (every block's code columns are exact, and the
//! blocks' rows add up to the frame's) plus its dictionary. A row-major
//! frame (one `Vec` per row, a 24-byte `Cell` per cell) fails both bounds,
//! and so do code columns grown by doubling or copied into fresh ones after
//! the drain; the counts repeat exactly from run to run. The wire path's
//! frame is held to a count of its own: fewer dictionary entries than rows.
//!
//! This binary installs its own counting allocator, which is why it is one
//! `#[test]`: nothing else may allocate while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bench::{casestudies, data, queries};
use dataframe::Cell;
use rdfframes_core::exec::Executor;
use rdfframes_core::model::{generator, render};
use rdfframes_core::{EmbeddedEndpoint, InProcessEndpoint, RDFFrame};

const SCALE: usize = 64;
/// Small enough that every frame here takes several batches.
const BATCH_ROWS: usize = 64;

/// Allocations a container growing by doubling makes to reach `n` entries
/// (at most: it starts at a capacity of one or more).
fn doublings(n: usize) -> usize {
    n.max(1).ilog2() as usize + 1
}

/// What `QueryCursor::drain` may allocate on top of draining the same
/// cursor, for a frame of `columns` columns drained in `batches` batches,
/// `short` of them under four rows, with `entries` dictionary entries of which `decoded` allocate a cell of
/// their own (a blank node's label; every other term's cell shares the
/// dataset's `Arc` or is a number):
///
/// - per batch, its block: one list of columns, then one exact-size code
///   column per column — the frame keeps the block as it is; a short
///   batch's columns are each shrunk once more to fit, since no allocation
///   holds fewer than four codes;
/// - growth by doubling of the dictionary, of the id → code memo and of
///   the frame's list of blocks (one entry per batch);
/// - once, the frame's column names (the list and one string per column)
///   and the memo's last-code-per-column list.
///
/// Nothing in it grows with the rows or cells but the batches.
fn drain_allowance(
    columns: usize,
    batches: usize,
    short: usize,
    entries: usize,
    decoded: usize,
) -> usize {
    let blocks = batches * (1 + columns) + short * columns;
    let growth = 2 * doublings(entries) + doublings(batches);
    let fixed = (1 + columns) + 1;
    blocks + growth + fixed + decoded
}

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; return its result, the allocations it made, and the bytes it
/// left live (its result included, while the caller holds it).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocations, live) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(live),
    )
}

fn check(id: &str, frame: &RDFFrame, endpoint: &EmbeddedEndpoint) {
    let model = generator::build_query_model(frame).unwrap();
    // Warm the plan cache: compile and optimize are not what is counted.
    let warm = endpoint.execute_model_direct(&model).unwrap();
    let prepared = endpoint.cached_model_plan(&model).expect("plan cached");

    // What an execution allocates without building a frame: the cache key
    // and the pipeline's own state and batches.
    let ((drained, batches, short), pipeline, _) = counted(|| {
        let _key = render::render(&model);
        let mut cursor = endpoint.engine().cursor(&prepared, BATCH_ROWS).unwrap();
        let (mut rows, mut batches, mut short) = (0, 0, 0);
        while let Some(batch) = cursor.next_batch().unwrap() {
            rows += batch.len;
            batches += 1;
            short += usize::from(batch.len < 4);
        }
        (rows, batches, short)
    });

    let (df, allocations, live) = counted(|| endpoint.execute_model_direct(&model).unwrap());
    assert_eq!(df, warm);
    assert_eq!(df.len(), drained);
    let (rows, columns) = (df.len(), df.columns().len());
    assert!(
        rows > 4 * BATCH_ROWS,
        "{id}: {rows} rows is too few to tell"
    );

    // Distinct terms of the result, counted from its cells.
    let exact: HashSet<String> = (df.rows().iter())
        .flat_map(|r| r.to_vec())
        .filter(|c| !c.is_null())
        .map(|c| format!("{c:?}"))
        .collect();
    assert_eq!(
        df.dictionary().len(),
        exact.len(),
        "{id}: one entry per term"
    );

    let decoded = (df.dictionary().iter())
        .filter(|c| matches!(c, Cell::Uri(s) if s.starts_with("_:")))
        .count();
    let allowed = pipeline + drain_allowance(columns, batches, short, exact.len(), decoded);
    println!(
        "{id}: {allocations} allocations, {allowed} allowed ({rows} x {columns} cells, \
         {batches} batches, {} terms)",
        exact.len()
    );
    assert!(
        allocations <= allowed,
        "{id}: {allocations} allocations for {rows} x {columns} cells of {} terms in \
         {batches} batches (drain alone {pipeline}, allowed {allowed})",
        exact.len()
    );
    // The allowance has less slack than a row count: an allocation per row
    // (let alone per cell) cannot hide in it.
    assert!(allowed - allocations < rows, "{id}: allowance too loose");

    // The drained batches are the frame: one exact block each.
    assert_eq!(df.blocks().len(), batches, "{id}: one block per batch");
    for (b, block) in df.blocks().iter().enumerate() {
        for (c, codes) in block.codes().iter().enumerate() {
            assert_eq!(
                (codes.capacity(), codes.len()),
                (block.rows(), block.rows()),
                "{id}: slack in code column {c} of block {b}"
            );
        }
    }
    let summed: usize = df.blocks().iter().map(|b| b.rows()).sum();
    assert_eq!(summed, rows, "{id}: the blocks' rows");

    let strings: usize = (df.dictionary().iter())
        .map(|c| match c {
            Cell::Uri(s) | Cell::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    let allowed = 4 * rows * columns + 64 * df.dictionary().len() + strings;
    assert!(
        live <= allowed,
        "{id}: the frame holds {live} bytes for {rows} x {columns} cells and {} entries \
         (allowed {allowed})",
        df.dictionary().len()
    );

    // Exact counts: a second execution reads the same.
    let (again, allocations_again, live_again) =
        counted(|| endpoint.execute_model_direct(&model).unwrap());
    assert_eq!(
        (allocations_again, live_again, &again),
        (allocations, live, &df),
        "{id}"
    );
}

#[test]
fn embedded_frames_allocate_per_distinct_term_not_per_cell() {
    let ds = data::build_dataset(SCALE);
    let endpoint = EmbeddedEndpoint::new(Arc::clone(&ds)).with_batch_rows(BATCH_ROWS);
    let q9 = queries::all_queries()
        .into_iter()
        .find(|q| q.id == "Q9")
        .expect("Q9 in the catalogue");
    check("Q9", &q9.frame, &endpoint);
    let cs3 = casestudies::kg_embedding();
    check("cs3", &cs3, &endpoint);

    // The wire path has no ids to memoize on, but a decoded page shares one
    // string per distinct value and the append dedups on that: fewer
    // dictionary entries than rows, where an entry per cell is 3 x rows.
    let embedded = Executor::new().execute(&cs3, &endpoint).unwrap();
    for page in [100, usize::MAX] {
        let wire = Executor::with_page_size(page)
            .execute(&cs3, &InProcessEndpoint::new(Arc::clone(&ds)))
            .unwrap();
        assert_eq!(wire, embedded);
        assert!(
            wire.dictionary().len() < wire.len(),
            "cs3 over the wire, pages of {page}: {} entries for {} rows",
            wire.dictionary().len(),
            wire.len()
        );
    }
}
