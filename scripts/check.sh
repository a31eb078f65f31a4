#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, lints, doc links, a
# build of the out-of-workspace benchmark package, the full test suite, and
# a small-scale smoke run of two workspace bench binaries:
# `ablation` (dataset generation, the wire and embedded execution paths, the
# naive generator and the budget meter end to end) and `concurrent_bench`
# (the serving layer and its JSON writer).
#
# Usage: scripts/check.sh [--no-bench]
#
# The bench smoke runs at scale 64 (seconds, not minutes). concurrent_bench
# overwrites BENCH_concurrent.json with small-scale numbers, so the script
# snapshots the working-tree version first and restores it afterwards —
# uncommitted full-scale results survive the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
if [[ "${1:-}" == "--no-bench" ]]; then
    run_bench=0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

# Intra-doc links must resolve, so a renamed or deleted public item cannot
# leave a dangling [`link`] behind; and a public doc may not link to a
# private item, which a reader of the docs cannot open.
echo "==> cargo doc (broken and private intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps --offline

# The benchmark package sits outside the workspace (BENCHMARK.json runs it
# from its own manifest) and is frozen, so nothing above compiles it. Build
# it before the long suites: an API break in a crate it depends on then
# fails here in seconds, not after two full test runs.
#
# Cargo prunes an orphaned entry from benchmark/Cargo.lock on every run
# there; the file is frozen too, so put it back after each such step (also
# when the step fails).
in_benchmark() {
    local status=0
    cargo "$@" --offline --manifest-path benchmark/Cargo.toml || status=$?
    git checkout -q -- benchmark/Cargo.lock
    return "$status"
}

# `cargo test <filter>` passes when the filter matches nothing, so a step
# that selects tests by name would go on passing, running nothing, after a
# rename. Run such steps through this, which also fails when no test ran.
test_named() {
    local out status=0
    out=$(cargo test -q "$@" 2>&1) || status=$?
    printf '%s\n' "$out"
    if [[ "$status" != 0 ]]; then
        return "$status"
    fi
    if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
        echo "error: 'cargo test $*' selected no test" >&2
        return 1
    fi
}

echo "==> cargo build (benchmark package)"
in_benchmark build --release

echo "==> cargo test"
cargo test -q

# Batch-size invariance: the whole suite again with a tiny ambient cursor
# batch (7 rows), so every embedded execution streams hundreds of batches
# through the pull-based pipeline instead of a handful. Any test whose
# result or work count depends on the batch size fails here. (Suites that
# must control batching pin their own batch size and are unaffected.)
echo "==> cargo test (RDFFRAMES_BATCH_ROWS=7)"
RDFFRAMES_BATCH_ROWS=7 cargo test -q

# The root `cargo test` never reaches the benchmark package's own tests:
# argument parsing, the metric tables, and a scale-64 smoke of all six
# workloads checked against `evaluate_reference`.
echo "==> cargo test (benchmark package)"
in_benchmark test -q

# Budget-meter arithmetic is saturating by contract; run the enforcement
# suite under the dev profile (debug assertions ON, so any overflow in
# meter arithmetic aborts instead of wrapping). `cargo test -q` above
# already covers this — the explicit step keeps the overflow coverage
# from silently vanishing if the main run ever moves to --release.
echo "==> budget enforcement (debug assertions on)"
cargo test -q -p sparql-engine --test budget_enforcement

# Fixed-seed chaos smoke: the paper workload through a fault-injecting
# endpoint — retried runs must be byte-identical, give-ups typed, partial
# results whole-chunk prefixes — and the one XML wire codec over generated
# tables and damaged documents (round trip, no panic, no ragged table).
echo "==> chaos smoke (fixed seed)"
cargo test -q -p bench --test chaos_suite
cargo test -q -p rdfframes-core --test chaos_retry --test corrupt_wire --test wire_codec

# Fixed-seed parser robustness: the parser is the one gate between a query
# model and a plan (the embedded path plans the rendered text too). The 22
# paper frames' SPARQL, cut at every character and damaged by seeded
# one-byte edits, must parse and translate to `Ok` or a typed `Err`, never
# a panic.
echo "==> parser robustness (fixed seed)"
cargo test -q -p bench --test parser_robustness

# Fixed-seed seek property: one `SeekHint` reused across ascending,
# repeated, descending and out-of-range probes of every bound-ness shape,
# with suspend/resume chains, over graphs installed whole, installed empty
# and appended in batches, or part of each — each call equal to a
# hint-less scan and to the model — plus the engine-level hazard (one hint
# per graph of a two-graph default graph, descending probes) against the
# oracle.
echo "==> seeking scans (fixed seed)"
test_named -p rdf-model --test proptest_model seeking_scans_match_fresh_scans_and_the_model
test_named -p sparql-engine --test streaming_pipeline seeking_probes_keep_one_hint_per_graph

# Dictionary byte budget: the three experiment graphs at scale 512,
# installed, must hold a dictionary within the bytes its layout accounts
# for term by term (a 24-byte term slot, each string's `Arc<str>` block,
# each literal's `Arc<Literal>` block, the `u32` id table's share), and the
# same bytes after a snapshot round trip; plus the interner against a map
# model through several table growths, and the term pool's overflow ids
# against the dictionary's.
echo "==> dictionary byte budget (fixed seed)"
test_named -p bench --test dataset_footprint dictionary_bytes_stay_within_the_layout_budget
test_named -p rdf-model --test proptest_model interner_matches_a_map_model_through_table_growths
test_named -p sparql-engine --test proptest_engine term_pool_overflow_ids_never_meet_base_ids

# Bind left joins: generated OPTIONAL queries (selective and unselective
# left sides, sorted and repeated keys, the key subject- or object-side, one
# graph or three, installed whole or appended) — every plan the optimizer
# binds gives its hash-join twin's row sequence with no more scans, and the
# executor the oracle's rows and `rows_scanned` at batch 1 / 7 / 16 384;
# the optimizer's rewrite on a Q13-shaped plan and its refusals; and the
# operator tables' hasher spreading packed id keys over the low bits.
echo "==> bind left joins and the operator hasher (fixed seed)"
test_named -p sparql-engine --test proptest_engine bind_left_joins_keep_the_hash_join_rows_and_the_oracle_scans
test_named -p sparql-engine --lib optionals_on_a_selective_star_bind
test_named -p sparql-engine --lib bind_left_join_is_refused_where_it_could_change_the_rows_or_the_work
test_named -p rdf-model --lib packed_id_keys_spread_over_the_low_bits

# One plan node per operator: a merge key (`merge_on`) and a sort bound
# (`top`) are fields of `Join` / `LeftJoin` / `OrderBy`, not node kinds of
# their own. The 22 paper frames must plan as their snapshots (a set field
# prints as `mergejoin ?k`, `mergeleftjoin ?k` or `top k`); a merge join
# and its hash twin, or a top-k and a full sort, must be different sharing
# classes; a slice must bound the sort under it; and the bounded sort must
# keep its compacted state under a row cap a full sort of the same rows
# trips.
echo "==> one node per operator"
test_named -p bench --test shared_subplans every_paper_frame_plans_as_its_snapshot
test_named -p sparql-engine --lib a_merge_key_or_a_sort_bound_makes_another_class
test_named -p sparql-engine --lib slice_over_order_by_fuses_to_top_k
test_named -p sparql-engine --test budget_enforcement a_top_k_sort_holds_bounded_state_where_a_full_sort_trips

# Fixed-seed bulk-column property:`from_ids`, `gather`, `filter_mask` and
# join assembly against one `push` per cell, at lengths around the bitmap's
# word edges, every presence shape, duplicate and `NO_MATCH` indices — plus
# the converter's run-cache hazard (the dataset's `TermId(0)` next to
# unbound cells, runs across batch edges) at four batch sizes.
echo "==> bulk column kernels (fixed seed)"
test_named -p sparql-engine --lib column_kernels_match_their_per_cell_definitions
test_named -p rdfframes-core --lib the_run_cache_never_answers_for_an_absent_slot

# Fixed-seed solution-table property: one row model as a table pushed row
# by row, drained from id batches through the shared remap kernel (batch 1,
# 3, unbounded, and `execute_prepared`), and built by hand over a permuted
# dictionary with duplicate and unreferenced entries — equal exactly when
# the models are, read back and sorted as the model, a wrong-width row
# refused with the table untouched. The table is `dataframe::Coded`, so the
# dataframe crate's tests run here too: the shared shape check's unit test
# (every refusal typed, the table left as it was) and `proptest_frame`.
# Then the XML encoder's bytes for all 22 paper frames, whole and paged,
# against hashes pinned before the dictionary-coded table.
echo "==> solution table layout (fixed seed)"
cargo test -q -p sparql-engine --test solution_table
cargo test -q -p dataframe
cargo test -q -p bench --test pinned_encodings

# Block-coded tables: a frame cut into row blocks of random sizes (one
# row each, ragged) reads and operates exactly as the same rows in one
# block; `push_block` refuses every bad shape with the table unchanged, and
# every pushed block keeps its buffers; an embedded frame is its drained
# batches' exact blocks, with no allocation beyond the drain's counted
# allowance.
echo "==> block-coded tables (fixed seed)"
test_named -p dataframe --test proptest_frame a_frame_cut_into_blocks_reads_and_operates_as_one_block
test_named -p dataframe --lib coded::tests::
test_named -p bench --test frame_footprint embedded_frames_allocate_per_distinct_term_not_per_cell

# Crash-recovery smoke: the paper workload (scale 64) committed through
# the durable store, crashed at fixed fault points, recovered, and
# checked for full Q1–Q19 result/row-scan parity against an in-memory
# oracle, every graph's three slabs identical to the oracle's — plus the
# snapshot codec's round-trip proptests (fixed seeds), the refusal of
# every older format revision by magic (snapshots `RDFSNAP1`–`RDFSNAP3`,
# WAL `RDFWAL01`: the current `RDFSNAP4` stores each graph's SPO slab
# alone, `RDFWAL02` triples alone), and the restart contract: every graph
# holds the same three slabs live, after WAL replay and after checkpoint
# + reopen, with appended batches inside the snapshot and only in the WAL.
echo "==> crash-recovery smoke (fixed seed, scale 64)"
test_named -p bench --test crash_recovery scale_64_smoke_with_full_query_parity
cargo test -q -p rdf-model --test persist_roundtrip
cargo test -q -p rdfframes-core --test restart_semantics

# Serving-resilience smoke: the same workload (scale 64) through the
# durable serving layer — crash points swept across the byte timeline
# while epochs publish, recovery landing on the committed epoch with full
# Q1–Q19 parity; plus the overload contract with deterministic
# shed-vs-accepted counts (saturation pinned via governor permits, no
# timing involved).
echo "==> serving-resilience smoke (crash-while-serving, scale 64 + overload)"
test_named -p bench --test serving_resilience scale_64_crash_while_serving_smoke_with_query_parity
test_named -p bench --test serving_resilience overload_sheds_typed_retryable_and_accepted_results_are_unaffected

# Thread-racing suites under the release profile: interleavings that the
# debug build's timing hides (a racing-readers test once failed 15 of 16
# `--release` runs while passing in debug). Seconds once built.
echo "==> thread-racing suites (--release)"
cargo test --release -q -p bench --test serving_resilience
cargo test --release -q -p rdfframes-core --test concurrent_serving

# The paper's comparison at the scale the benchmark runs at: generated,
# naive and expert SPARQL for all 22 frames at scale 4000, `rows_scanned`
# and `peak_live_bytes` pinned, generated ≤ naive and ≤ expert outside the
# named exceptions. The suite above runs scales 64 and 512; this one is
# `#[ignore]`d there and takes seconds under --release.
echo "==> paper work counters (scale 4000, --release)"
cargo test --release -q -p bench --test paper_work -- --ignored

if [[ "$run_bench" == 1 ]]; then
    snapshot=$(mktemp -d)
    trap 'rm -rf "$snapshot"' EXIT
    cp BENCH_concurrent.json "$snapshot"/ 2>/dev/null || true
    echo "==> ablation smoke (scale 64, 1 run)"
    cargo run --release -p bench --bin ablation -- 64 1
    echo "==> concurrent_bench smoke (--scale 64)"
    cargo run --release -p bench --bin concurrent_bench -- --scale 64
    # Restore the pre-run results file (working tree, not HEAD — do not
    # clobber uncommitted full-scale measurements).
    cp "$snapshot"/BENCH_concurrent.json . 2>/dev/null || true
fi

echo "==> all checks passed"
