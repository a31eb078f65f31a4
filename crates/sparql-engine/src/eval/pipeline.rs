//! The executor: a pull-based operator pipeline over the columnar kernels.
//!
//! Each plan node becomes an [`Operator`] that produces its output a batch
//! at a time by pulling batches from its inputs, holding only per-operator
//! staging state between calls. How much a pull asks for is the caller's
//! choice and changes nothing but *when* work happens: `Engine::execute*`
//! drains the root with one unbounded pull — every operator then makes
//! exactly one pass over its whole input, BGP levels breadth-first, one
//! probe batch per join, one table per breaker — while a cursor pulls
//! `batch_rows` at a time and a page pulls its `limit`. The concatenation of
//! the emitted batches is byte-identical for every pull size, and so are the
//! work counters of a fully drained plan: `rows_scanned` and `shared_scans`
//! (a subplan that occurs more than once runs once, behind a [`Spool`]),
//! `join_candidates`, and the merge counters (`merge_joins`,
//! `merge_left_joins`), because every sortedness claim is verified
//! incrementally (batch-local checks plus run boundaries).
//!
//! Streaming operators (BGP extension, join probe, filter/extend/project,
//! union, slice) keep live state bounded by the pull size; pipeline breakers
//! (sort, top-k, group, distinct, the join build side) hold only their own
//! input or their own accumulation state and charge it against the budget
//! as it grows, so `max_intermediate_rows`/`max_memory_bytes` bound *peak
//! live state* per operator — which under an unbounded pull is the whole
//! intermediate result.
//!
//! The one pull-size-dependent count: [`SliceOp`] stops pulling upstream
//! once its limit is satisfied, so a `LIMIT` — or a page, which is a slice
//! on the root ([`paged`]) — scans *fewer* index entries the smaller the
//! pulls are (the early-exit carve-out in the differential oracle).

use std::cell::RefCell;
use std::rc::Rc;

use rdf_model::hash::{FxHashMap, FxHashSet};
use rdf_model::{ScanPos, SeekHint};

use super::*;

/// One streaming operator: a node of the pull-based pipeline.
///
/// `next_batch` returns `Some(batch)` with at least one row, or `None`
/// when exhausted (and keeps returning `None`). Operators never emit empty
/// batches; they loop internally until they have output or their input is
/// dry. Batches may be *smaller* than `batch_rows` (operators flush at
/// input-batch boundaries rather than buffer across them), never larger.
pub(crate) trait Operator<'e> {
    /// Output schema (stable across all batches).
    fn vars(&self) -> &[String];

    /// Produce the next non-empty output batch, or `None` when exhausted.
    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>>;

    /// Current live state of this operator *and its inputs*, as
    /// `(rows, bytes)` — staging buffers, accumulated build/breaker state,
    /// and undrained staged output. Feeds `ExecStats::peak_live_rows`.
    fn live_size(&self) -> (u64, u64);
}

/// A boxed operator (the pipeline is built as a tree of these).
pub(crate) type BoxOp<'e> = Box<dyn Operator<'e> + 'e>;

/// Build the operator pipeline for a plan.
///
/// Graph resolution happens eagerly here, so [`EngineError::UnknownGraph`]
/// surfaces before any scan.
///
/// The plan's sharing classes ([`share`]) each become one source operator
/// behind a [`Spool`] with a [`SpoolReader`] per occurrence; a plan without a
/// repeated subtree builds one operator per node and no spool.
pub(crate) fn build<'e>(ev: &Evaluator<'e>, plan: &'e Plan) -> Result<BoxOp<'e>> {
    let shared = Shared::of(plan);
    let spools = (0..shared.len()).map(|_| None).collect();
    let mut builder = Builder { ev, shared, spools };
    builder.node(plan)
}

/// Restrict a pipeline to rows `[offset, offset + limit)` of its output: the
/// page of a paginating endpoint is a [`SliceOp`] on the root, early exit
/// included.
pub(crate) fn paged<'e>(input: BoxOp<'e>, offset: usize, limit: usize) -> BoxOp<'e> {
    Box::new(SliceOp::new(input, offset, Some(limit)))
}

/// A pipeline that is already exhausted: what a drained cursor keeps in
/// place of the operator tree it has released.
pub(crate) fn exhausted<'e>() -> BoxOp<'e> {
    Box::new(UnitOp { done: true })
}

struct Builder<'a, 'e> {
    ev: &'a Evaluator<'e>,
    shared: Shared,
    /// Per sharing class: its spool, once the first occurrence is built.
    spools: Vec<Option<Rc<RefCell<Spool<'e>>>>>,
}

impl<'e> Builder<'_, 'e> {
    /// The operator for one occurrence: a reader on its class's spool
    /// (building the spool's source from the first occurrence), or the
    /// node's own operator.
    fn node(&mut self, plan: &'e Plan) -> Result<BoxOp<'e>> {
        let Some(k) = self.shared.class(plan) else {
            return self.operator(plan);
        };
        let (spool, first) = match self.spools[k].clone() {
            Some(spool) => (spool, false),
            None => {
                debug_assert!(self.shared.is_first(k, plan));
                let source = self.operator(plan)?;
                let spool = Spool::new(source, self.shared.readers(k));
                let spool = Rc::new(RefCell::new(spool));
                self.spools[k] = Some(Rc::clone(&spool));
                (spool, true)
            }
        };
        Ok(Box::new(SpoolReader::new(spool, first)))
    }

    fn operator(&mut self, plan: &'e Plan) -> Result<BoxOp<'e>> {
        Ok(match plan {
            Plan::Unit => Box::new(UnitOp { done: false }),
            Plan::Bgp {
                patterns,
                graph,
                filters,
            } => Box::new(BgpOp::new(self.ev, None, patterns, graph, filters)?),
            Plan::Join {
                left,
                right,
                merge_on,
            } => Box::new(JoinOp::new(
                self.node(left)?,
                self.node(right)?,
                JoinKind::Inner,
                merge_on.as_deref(),
            )),
            Plan::LeftJoin {
                left,
                right,
                merge_on,
            } => Box::new(JoinOp::new(
                self.node(left)?,
                self.node(right)?,
                JoinKind::Left,
                merge_on.as_deref(),
            )),
            Plan::BindLeftJoin {
                left,
                pattern,
                graph,
                filters,
            } => {
                let left = self.node(left)?;
                let pattern = std::slice::from_ref(&**pattern);
                Box::new(BgpOp::new(self.ev, Some(left), pattern, graph, filters)?)
            }
            Plan::Union(a, b) => Box::new(UnionOp::new(self.node(a)?, self.node(b)?)),
            Plan::Filter(expr, p) => Box::new(FilterOp {
                input: self.node(p)?,
                expr,
            }),
            Plan::Extend(var, expr, p) => Box::new(ExtendOp::new(self.node(p)?, var, expr)),
            Plan::Group { keys, aggs, input } => {
                Box::new(GroupOp::new(self.node(input)?, keys, aggs))
            }
            Plan::Project(vars, p) => Box::new(ProjectOp {
                input: self.node(p)?,
                vars: vars.clone(),
            }),
            Plan::Distinct(p) => Box::new(DistinctOp::new(self.node(p)?)),
            Plan::OrderBy { keys, top, input } => {
                Box::new(SortOp::new(self.node(input)?, keys, *top))
            }
            Plan::Slice {
                limit,
                offset,
                input,
            } => Box::new(SliceOp::new(self.node(input)?, *offset, *limit)),
        })
    }
}

// ---------------------------------------------------------------------------
// Shared subplans
// ---------------------------------------------------------------------------

/// One sharing class of the plan, evaluated once: the single source
/// operator plus the pulls its readers have not all consumed yet.
///
/// The first reader to need pull *i* takes it from the source; the others
/// replay it ([`Replay`]: cloned for all but the last, released once the
/// slowest has passed it). Concatenated, every reader sees exactly the
/// batches a private copy of the source would have produced, so everything
/// downstream — results, order, sortedness claims — is unchanged.
///
/// The retained pulls are this operator's live state. They are charged to
/// the budget's intermediate-rows and memory axes as they stand after each
/// source pull (peak, like a join's build table) and reported once, by the
/// spool's first reader, in `live_size`. A reader that stops pulling before
/// the source is exhausted — the one case is a reader under a satisfied
/// [`SliceOp`] — pins everything its siblings pull from then on until the
/// pipeline is dropped; the siblings still receive the full stream.
struct Spool<'e> {
    vars: Vec<String>,
    source: Source<'e>,
    /// A pull is `None` for the exhausting one, so the scans it took are
    /// replayed like any other's.
    pulls: Replay<Option<IdTable>>,
}

/// A spool's source operator, dropped as soon as it is exhausted or has
/// failed.
enum Source<'e> {
    Live(BoxOp<'e>),
    Dry,
    /// The source's error, latched: every reader's next pull returns it, so
    /// none mistakes a failed stream for a short one.
    Failed(EngineError),
}

impl<'e> Spool<'e> {
    fn new(source: BoxOp<'e>, readers: usize) -> Self {
        Spool {
            vars: source.vars().to_vec(),
            source: Source::Live(source),
            pulls: Replay::new(readers),
        }
    }

    /// Pull `i` for one reader: replayed if some reader already took it
    /// from the source, pulled from the source otherwise.
    fn pull(&mut self, i: usize, ev: &mut Evaluator<'e>, n: usize) -> Result<Option<IdTable>> {
        if let Source::Failed(e) = &self.source {
            return Err(e.clone());
        }
        if i < self.pulls.len() {
            let (batch, scans) = self.pulls.replay(i);
            ev.shared_scans += scans;
            return Ok(batch);
        }
        // Only a reader past the exhausting pull finds the source dry, and
        // its stream has ended.
        let Source::Live(source) = &mut self.source else {
            return Ok(None);
        };
        let pulled = Self::pull_source(source, &mut self.pulls, ev, n);
        match &pulled {
            Ok(Some(_)) => {}
            Ok(None) => self.source = Source::Dry,
            Err(e) => self.source = Source::Failed(e.clone()),
        }
        pulled
    }

    fn pull_source(
        source: &mut BoxOp<'e>,
        pulls: &mut Replay<Option<IdTable>>,
        ev: &mut Evaluator<'e>,
        n: usize,
    ) -> Result<Option<IdTable>> {
        let before = ev.rows_scanned + ev.shared_scans;
        let batch = source.next_batch(ev, n)?;
        let scans = ev.rows_scanned + ev.shared_scans - before;
        let size = batch
            .as_ref()
            .map_or((0, 0), |t| (t.len() as u64, t.estimated_bytes()));
        let own = pulls.push(batch, scans, size);
        let (rows, bytes) = pulls.retained();
        ev.meter.charge_intermediate(rows, bytes)?;
        Ok(own)
    }

    fn live_size(&self) -> (u64, u64) {
        let source = match &self.source {
            Source::Live(s) => s.live_size(),
            Source::Dry | Source::Failed(_) => (0, 0),
        };
        add2(source, self.pulls.retained())
    }
}

/// One occurrence of a sharing class: a cursor over its [`Spool`].
struct SpoolReader<'e> {
    spool: Rc<RefCell<Spool<'e>>>,
    vars: Vec<String>,
    /// The next pull this reader consumes.
    next: usize,
    /// The spool's first reader reports the spool's live state.
    first: bool,
    done: bool,
}

impl<'e> SpoolReader<'e> {
    fn new(spool: Rc<RefCell<Spool<'e>>>, first: bool) -> Self {
        let vars = spool.borrow().vars.clone();
        SpoolReader {
            spool,
            vars,
            next: 0,
            first,
            done: false,
        }
    }
}

impl<'e> Operator<'e> for SpoolReader<'e> {
    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        if self.done {
            return Ok(None);
        }
        // The source pulls its own inputs while this spool is borrowed;
        // they are other spools (the plan DAG is acyclic), never this one.
        let batch = self.spool.borrow_mut().pull(self.next, ev, batch_rows)?;
        self.next += 1;
        self.done = batch.is_none();
        Ok(batch)
    }

    fn live_size(&self) -> (u64, u64) {
        if self.first {
            self.spool.borrow().live_size()
        } else {
            (0, 0)
        }
    }
}

// ---------------------------------------------------------------------------
// Shared staging helpers
// ---------------------------------------------------------------------------

/// Staged output: a table an operator produced in one gulp (a flush, a
/// sorted result, a join's assembled batch) being handed out in windows.
struct Staged {
    table: IdTable,
    off: usize,
}

impl Staged {
    fn remaining(&self) -> usize {
        self.table.len().saturating_sub(self.off)
    }
}

/// Cut the next window of up to `n` rows off a staged table, clearing it
/// when exhausted. Whole-table staging hands the table out without a copy.
fn take_window(staged: &mut Option<Staged>, n: usize) -> Option<IdTable> {
    let s = staged.as_mut()?;
    let len = s.table.len();
    if s.off >= len {
        *staged = None;
        return None;
    }
    let out = if s.off == 0 && len <= n {
        let t = std::mem::take(&mut s.table);
        *staged = None;
        t
    } else {
        let end = s.off.saturating_add(n).min(len);
        let idx: Vec<u32> = (s.off as u32..end as u32).collect();
        let w = s.table.gather_rows(&idx);
        s.off = end;
        if s.off >= len {
            *staged = None;
        }
        w
    };
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn staged_live(staged: &Option<Staged>) -> (u64, u64) {
    match staged {
        Some(s) => (s.remaining() as u64, s.table.estimated_bytes()),
        None => (0, 0),
    }
}

fn add2(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (a.0.saturating_add(b.0), a.1.saturating_add(b.1))
}

// ---------------------------------------------------------------------------
// Unit
// ---------------------------------------------------------------------------

/// [`Plan::Unit`]: the single empty solution, emitted once.
struct UnitOp {
    done: bool,
}

impl<'e> Operator<'e> for UnitOp {
    fn vars(&self) -> &[String] {
        &[]
    }

    fn next_batch(&mut self, _ev: &mut Evaluator<'e>, _n: usize) -> Result<Option<IdTable>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(IdTable::unit()))
    }

    fn live_size(&self) -> (u64, u64) {
        (0, 0)
    }
}

// ---------------------------------------------------------------------------
// BGP
// ---------------------------------------------------------------------------

/// Suspension point of a level's scan: which graph, and where inside its
/// index range (`None` = restart the graph from the range's beginning — only
/// produced transiently by [`BgpOp::extend_level`]).
struct Scan {
    graph: usize,
    at: Option<ScanPos>,
}

/// One BGP pattern's streaming extension state.
struct Level<'e> {
    /// The pattern's resolved slots, the same for every graph (ids are the
    /// dataset's); `None` when a constant is interned nowhere, so the
    /// pattern matches nothing.
    slots: Option<[Slot; 3]>,
    /// Columns this pattern newly binds, one per value slot.
    free_cols: Vec<usize>,
    /// `(slot, position)` — which triple position binds each slot.
    primaries: Vec<(usize, usize)>,
    /// Repeated-new-variable positions needing per-match equality.
    dup_checks: Vec<(usize, usize)>,
    /// Pushed filters firing at this pattern, routed to value slots.
    checks: Vec<(usize, PushedEval<'e>)>,
    /// Input-side bound-ness (vars bound by earlier levels).
    bound: Vec<bool>,
    /// Current input batch from the previous level (full-width schema) or,
    /// for a bind level, from the upstream operator (its schema).
    input: IdTable,
    /// Next input row to extend.
    pos: usize,
    /// In-flight suspended scan within row `pos`.
    scan: Option<Scan>,
    /// Where this level's previous probe found its range, one per graph: a
    /// level's input is usually sorted on the probed column, so the next
    /// probe seeks forward from there.
    hints: Vec<SeekHint>,
    /// Match gather indexes (global row numbers into `input`).
    src: Vec<u32>,
    /// New-binding value vectors, one per slot.
    vals: Vec<Vec<TermId>>,
    /// `Some` on the one level of a [`Plan::BindLeftJoin`] (boxed: a BGP's
    /// levels pay one pointer for it).
    bind: Option<Box<Bind<'e>>>,
    /// Assembled output being windowed out.
    staged: Option<Staged>,
    /// Previous level exhausted.
    upstream_done: bool,
}

/// What makes a [`Level`] a bind left join's: its input comes from the left
/// operator, rows without a match are kept, and a row with the previous
/// row's key reuses that row's matches.
///
/// **Why the rows come out in the hash left join's order.** Per left row,
/// [`JoinOp`] emits the compatible build rows in build order: the order in
/// which the right side's one-pattern BGP scanned them, graph by graph, each
/// graph's matches in the order of the slab its constants select. For one
/// key value that is the key's matches, graph by graph, each in the
/// build slab's order restricted to the key. The level emits, graph by
/// graph, the matches of the slab its constants *and the key* select. Every
/// slab is sorted lexicographically by dataset id, and within the matches of
/// one key both slabs order the pattern's remaining free positions the same
/// way: each is [`rdf_model::TripleIndex::scan_free_order`] of its
/// bound-ness, and the optimizer binds only where the refined order is the
/// build order with the key positions struck out (with a constant
/// predicate, always: at most one position is left free, or the key is the
/// subject and `(p, o)` or the object and `(s, p)` remain). Pushed filters
/// test the new variables only, so both sides drop the same matches.
/// Hence each left row gets the same matches in the same order, and an
/// unmatched one the same single row with the new columns absent.
struct Bind<'e> {
    /// The left input, feeding the level.
    upstream: BoxOp<'e>,
    /// The refined slots of the last row whose scan finished; `None` while
    /// a row's scan is in flight (or before the first).
    last: Option<[Option<TermId>; 3]>,
    /// How many matches that row accepted.
    hits: usize,
    /// Their values, one vector per slot (a pattern with no new variable
    /// has none).
    matches: Vec<Vec<TermId>>,
    /// Positions in the level's `src` of rows emitted without a match.
    misses: Vec<usize>,
}

impl Bind<'_> {
    /// Emit input row `row` once, without a match: its new columns get the
    /// absent filler, and `flush_level` clears their presence.
    fn miss(&mut self, row: u32, src: &mut Vec<u32>, vals: &mut [Vec<TermId>]) {
        self.misses.push(src.len());
        src.push(row);
        for v in vals.iter_mut() {
            v.push(TermId(0));
        }
    }

    fn live_bytes(&self) -> u64 {
        let matches = self.matches.iter().map(|v| v.len() as u64 * 4).sum::<u64>();
        matches.saturating_add(self.misses.len() as u64 * 8)
    }
}

/// BGP: a cascade of [`Level`]s, one per pattern, each extending input
/// batches depth-first — which an unbounded pull turns into one
/// breadth-first pass per level. Either way rows come out in lexicographic
/// per-level match-index order and every input row's scans are fully
/// drained, so the concatenated output and the scan totals are identical at
/// any batch size.
///
/// A [`Plan::BindLeftJoin`] is the same operator with one level, fed by the
/// left input's operator instead of the identity row, and a [`Bind`]: its
/// scan is this scan body, seeking with one [`SeekHint`] per graph. The key
/// memo lives in the level, so it holds across batch boundaries and the
/// scans do not depend on the batch size. A replayed key is pushed whole,
/// so a batch of matches can overshoot the pull size by one key's matches
/// (like the join's probe); the staged output is windowed to size.
struct BgpOp<'e> {
    vars: Vec<String>,
    graphs: Vec<Arc<TripleIndex>>,
    levels: Vec<Level<'e>>,
    /// Empty-pattern BGP: the identity row, emitted once.
    identity_emitted: bool,
}

impl<'e> BgpOp<'e> {
    /// The BGP of `patterns` or, given an `upstream` operator, the bind left
    /// join of its rows with the one pattern in `patterns`.
    fn new(
        ev: &Evaluator<'e>,
        mut upstream: Option<BoxOp<'e>>,
        patterns: &'e [TriplePattern],
        graph: &GraphRef,
        filters: &'e [PushedFilter],
    ) -> Result<Self> {
        let graphs = graph.resolve(ev.dataset, &ev.default_graphs)?;

        // Variable schema: the upstream's, then the patterns' in
        // first-mention order.
        let mut vars: Vec<String> = upstream.as_ref().map_or(Vec::new(), |u| u.vars().to_vec());
        let carried = vars.len();
        for p in patterns {
            for v in p.variables() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        }
        let width = vars.len();
        let var_idx: HashMap<&str, usize> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();

        let pool = ev.pool();
        let mut pattern_filters: Vec<Vec<(usize, PushedEval<'e>)>> =
            crate::algebra::attach_filters(patterns, filters, |v| var_idx[v])
                .into_iter()
                .map(|routed| {
                    routed
                        .into_iter()
                        .map(|(col, f)| (col, PushedEval::compile(&f.var, &f.expr, pool)))
                        .collect()
                })
                .collect();

        let mut bound: Vec<bool> = (0..width).map(|col| col < carried).collect();
        let mut levels: Vec<Level<'e>> = Vec::with_capacity(patterns.len());
        for (pi, pattern) in patterns.iter().enumerate() {
            // A constant resolves once, to its dataset id (`None`: interned
            // nowhere); a variable to its column.
            let slot = |term: &PatternTerm| match term {
                PatternTerm::Var(v) => Some(Slot::Var(var_idx[v.as_str()])),
                PatternTerm::Const(c) => ev.dataset.lookup(c).map(Slot::Bound),
            };
            let slots = (|| {
                Some([
                    slot(&pattern.subject)?,
                    slot(&pattern.predicate)?,
                    slot(&pattern.object)?,
                ])
            })();

            let terms = [&pattern.subject, &pattern.predicate, &pattern.object];
            let input_bound = bound.clone();
            let mut routed = std::mem::take(&mut pattern_filters[pi]);
            let mut free_cols: Vec<usize> = Vec::new();
            let mut primaries: Vec<(usize, usize)> = Vec::new();
            let mut dup_checks: Vec<(usize, usize)> = Vec::new();
            let mut checks: Vec<(usize, PushedEval<'e>)> = Vec::new();
            for (pos, term) in terms.iter().enumerate() {
                if let PatternTerm::Var(v) = term {
                    let col = var_idx[v.as_str()];
                    if input_bound[col] {
                        continue;
                    }
                    match free_cols.iter().position(|&c| c == col) {
                        Some(slot) => dup_checks.push((primaries[slot].1, pos)),
                        None => {
                            // A filter is attached to the first pattern
                            // mentioning its variable, which is where the
                            // variable becomes bound: give it this slot.
                            let slot = free_cols.len();
                            free_cols.push(col);
                            primaries.push((slot, pos));
                            bound[col] = true;
                            checks.extend(
                                routed
                                    .extract_if(.., |(c, _)| *c == col)
                                    .map(|(_, pe)| (slot, pe)),
                            );
                        }
                    }
                }
            }
            // Only a bind level could leave one behind: the optimizer binds
            // no pattern with a filter on a key variable.
            debug_assert!(routed.is_empty(), "a pushed filter found no slot");

            let n_slots = free_cols.len();
            levels.push(Level {
                slots,
                free_cols,
                primaries,
                dup_checks,
                checks,
                bound: input_bound,
                input: IdTable::with_vars(vars.clone()),
                pos: 0,
                scan: None,
                hints: vec![SeekHint::default(); graphs.len()],
                src: Vec::new(),
                vals: (0..n_slots).map(|_| Vec::new()).collect(),
                bind: upstream.take().map(|upstream| {
                    Box::new(Bind {
                        upstream,
                        last: None,
                        hits: 0,
                        matches: (0..n_slots).map(|_| Vec::new()).collect(),
                        misses: Vec::new(),
                    })
                }),
                staged: None,
                upstream_done: false,
            });
        }
        drop(var_idx);

        // Without an upstream, seed the first level with the BGP extension
        // identity: one all-absent row.
        if let Some(first) = levels.first_mut().filter(|l| l.bind.is_none()) {
            first.input = IdTable::from_columns(
                vars.clone(),
                (0..width).map(|_| Column::absent(1)).collect(),
                1,
            );
            first.upstream_done = true;
        }

        Ok(BgpOp {
            vars,
            graphs,
            levels,
            identity_emitted: false,
        })
    }

    /// Extend pending input rows of level `k`: refine the pattern's slots
    /// against each row, scan every graph's access path, apply
    /// duplicate-variable and pushed-filter checks, and append matches as a
    /// gather index plus one value per newly-bound slot, charging the budget
    /// per scan segment. Resumable — the match visitor stops the index scan
    /// once `target` matches are buffered and records a [`ScanPos`] to resume
    /// from, so a batch never overshoots its size while every visited index
    /// entry is still processed exactly once. A bind level also keeps each
    /// row without a match (its new columns absent) and replays the previous
    /// row's matches, scanning nothing, for a row with the same key.
    fn extend_level(&mut self, ev: &mut Evaluator<'e>, k: usize, target: usize) -> Result<()> {
        let BgpOp { graphs, levels, .. } = self;
        let Level {
            slots,
            dup_checks,
            primaries,
            checks,
            src,
            vals,
            input,
            bound,
            pos,
            scan,
            hints,
            bind,
            ..
        } = &mut levels[k];
        let cur = input.columns();
        let len = input.len();
        let pool = &ev.pool;
        let caches = &mut ev.caches;
        let meter = &mut ev.meter;
        if slots.is_none() && bind.is_none() {
            *pos = len;
            return Ok(());
        }
        while *pos < len {
            let i = *pos;
            let resumed = scan.take();
            if resumed.is_none() && src.len() >= target {
                return Ok(());
            }
            // Refine slots against row `i`. A value a graph never mentions
            // (another graph's term, a query-local one) is an empty range
            // there: nothing visited, nothing matched.
            let refined = slots.map(|slots| {
                slots.map(|slot| match slot {
                    Slot::Bound(id) => Some(id),
                    Slot::Var(col) if bound[col] => {
                        debug_assert!(cur[col].is_present(i), "a probed key is bound");
                        Some(cur[col].ids()[i])
                    }
                    Slot::Var(_) => None,
                })
            });
            let row = i as u32;
            if let (None, Some(b)) = (&resumed, bind.as_mut()) {
                if refined.is_some() && b.last == refined {
                    for j in 0..b.hits {
                        src.push(row);
                        for (v, m) in vals.iter_mut().zip(&b.matches) {
                            v.push(m[j]);
                        }
                    }
                    if b.hits == 0 {
                        b.miss(row, src, vals);
                    }
                    *pos += 1;
                    continue;
                }
                b.last = None;
                b.hits = 0;
                b.matches.iter_mut().for_each(Vec::clear);
            }
            if let Some(refined) = refined {
                let (start_graph, mut resume_at) = resumed.map_or((0, None), |s| (s.graph, s.at));
                for ((graph, g), hint) in graphs
                    .iter()
                    .enumerate()
                    .zip(hints.iter_mut())
                    .skip(start_graph)
                {
                    let at = resume_at.take();
                    let [s, p, o] = refined;
                    let (visited, stopped) =
                        g.for_each_match_from(s, p, o, at, hint, |ms, mp, mo| {
                            let m = [ms, mp, mo];
                            if dup_checks.iter().any(|&(a, b)| m[a] != m[b]) {
                                return src.len() < target;
                            }
                            for (slot, pe) in checks.iter_mut() {
                                if !pe.test(m[primaries[*slot].1], pool, caches) {
                                    return src.len() < target;
                                }
                            }
                            src.push(row);
                            for &(slot, ppos) in primaries.iter() {
                                vals[slot].push(m[ppos]);
                            }
                            if let Some(b) = bind.as_mut() {
                                b.hits += 1;
                                for &(slot, ppos) in primaries.iter() {
                                    b.matches[slot].push(m[ppos]);
                                }
                            }
                            src.len() < target
                        });
                    ev.rows_scanned += visited;
                    if meter.charge_scan(visited)? {
                        let bytes = (src.len() as u64).saturating_mul(4).saturating_add(
                            vals.iter()
                                .fold(0u64, |a, v| a.saturating_add(v.len() as u64 * 4)),
                        );
                        meter.charge_intermediate(src.len() as u64, bytes)?;
                    }
                    if let Some(p) = stopped {
                        *scan = Some(Scan { graph, at: Some(p) });
                        return Ok(());
                    }
                }
            }
            if let Some(b) = bind.as_mut() {
                if b.hits == 0 {
                    b.miss(row, src, vals);
                }
                b.last = refined;
            }
            *pos += 1;
        }
        Ok(())
    }

    /// Assemble the level's match buffers into a staged output table:
    /// carried columns gather contiguously, new columns take the value
    /// vectors verbatim (a bind level's unmatched rows absent there).
    fn flush_level(&mut self, ev: &mut Evaluator<'e>, k: usize) -> Result<()> {
        let BgpOp { vars, levels, .. } = self;
        let Level {
            input,
            bound,
            free_cols,
            src,
            vals,
            bind,
            staged,
            ..
        } = &mut levels[k];
        let total = src.len();
        if total == 0 {
            return Ok(());
        }
        let misses: &[usize] = bind.as_ref().map_or(&[], |b| &b.misses);
        let mut cols: Vec<Column> = Vec::with_capacity(vars.len());
        for (col, &carried) in bound.iter().enumerate() {
            if carried {
                cols.push(input.col(col).gather(src.iter().copied()));
            } else if let Some(slot) = free_cols.iter().position(|&c| c == col) {
                let mut new = Column::from_ids(std::mem::take(&mut vals[slot]));
                new.clear_slots(misses);
                cols.push(new);
            } else {
                cols.push(Column::absent(total));
            }
        }
        src.clear();
        if let Some(b) = bind {
            b.misses.clear();
        }
        let t = IdTable::from_columns(vars.clone(), cols, total);
        if ev.meter.is_active() {
            ev.meter
                .charge_intermediate(t.len() as u64, t.estimated_bytes())?;
        }
        *staged = Some(Staged { table: t, off: 0 });
        Ok(())
    }

    /// Produce the next output window of level `k` (depth-first pull).
    fn produce(
        &mut self,
        ev: &mut Evaluator<'e>,
        k: usize,
        target: usize,
    ) -> Result<Option<IdTable>> {
        loop {
            if let Some(w) = take_window(&mut self.levels[k].staged, target) {
                return Ok(Some(w));
            }
            let pending = {
                let lvl = &self.levels[k];
                lvl.pos < lvl.input.len() || lvl.scan.is_some()
            };
            if pending {
                self.extend_level(ev, k, target)?;
                let consumed = {
                    let lvl = &self.levels[k];
                    lvl.pos >= lvl.input.len() && lvl.scan.is_none()
                };
                if consumed || self.levels[k].src.len() >= target {
                    self.flush_level(ev, k)?;
                }
                if consumed {
                    // Like a join's probe batch, a level's input batch goes
                    // as soon as it is extended and flushed.
                    self.levels[k].input = IdTable::default();
                }
                continue;
            }
            if self.levels[k].upstream_done {
                return Ok(None);
            }
            // Level 0 pulls only from a bind's upstream: otherwise it was
            // seeded with the identity row and is already done.
            let next = match (k, self.levels[0].bind.as_mut()) {
                (0, Some(b)) => b.upstream.next_batch(ev, target)?,
                (0, None) => None,
                _ => self.produce(ev, k - 1, target)?,
            };
            match next {
                Some(t) => {
                    let lvl = &mut self.levels[k];
                    lvl.input = t;
                    lvl.pos = 0;
                }
                None => self.levels[k].upstream_done = true,
            }
        }
    }
}

impl<'e> Operator<'e> for BgpOp<'e> {
    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        let target = batch_rows.max(1);
        if self.levels.is_empty() {
            // No patterns: the identity.
            if self.identity_emitted {
                return Ok(None);
            }
            self.identity_emitted = true;
            return Ok(Some(IdTable::unit()));
        }
        let last = self.levels.len() - 1;
        self.produce(ev, last, target)
    }

    fn live_size(&self) -> (u64, u64) {
        let mut acc = (0, 0);
        for lvl in &self.levels {
            acc = add2(acc, (lvl.input.len() as u64, lvl.input.estimated_bytes()));
            let buf_rows = lvl.src.len() as u64;
            let buf_bytes = (lvl.src.len() as u64).saturating_mul(4).saturating_add(
                lvl.vals
                    .iter()
                    .fold(0u64, |a, v| a.saturating_add(v.len() as u64 * 4)),
            );
            acc = add2(acc, (buf_rows, buf_bytes));
            if let Some(b) = &lvl.bind {
                acc = add2(acc, b.upstream.live_size());
                acc = add2(acc, (0, b.live_bytes()));
            }
            acc = add2(acc, staged_live(&lvl.staged));
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Persistent merge-probe state: the right-side run pointer (forward-only
/// across batches) and the previous batch's last left key (the boundary
/// half of the incremental sortedness check).
struct MergeState {
    l_key: usize,
    r_key: usize,
    run: usize,
    prev: Option<TermId>,
}

/// The left batch being probed: rows `..next_left` have been matched, and
/// `pairs[emitted..]` are matches not yet handed downstream.
struct Probing {
    batch: IdTable,
    /// The batch's presence masks for the join index; `None` while the
    /// merge claim holds and the batch probes by key run.
    masks: Option<RowMasks>,
    next_left: usize,
    pairs: Vec<(u32, u32)>,
    emitted: usize,
}

/// Join (inner or left) with SPARQL compatibility semantics: the right
/// input is materialized as the build side (charged against the budget as
/// it accumulates — joins are half pipeline-breaker), the left streams
/// through as the probe side. Output columns are gathered over the pair
/// list — shared columns take the left value when present and fall back to
/// the right side's.
///
/// Both probe strategies — a merge run over inputs the optimizer proved
/// sorted on the key (verified here, batch by batch), or the [`JoinIndex`] —
/// go through the one probe loop ([`Sides::probe`]) and emit the identical
/// pair list (per left row in input order, compatible right rows in
/// ascending right-index order, an unmatched marker for left joins), so the
/// per-batch strategy choice and any mid-stream merge→hash demotion are
/// invisible downstream, differential oracle included.
///
/// Probe-side state stays O(batch) whatever the fan-out: a left batch is
/// matched only as far as the next output window needs (plus the rest of
/// the left row that filled it), and each window is assembled on its own
/// pull. Windows are cut exactly where assembling the whole batch at once
/// would cut them — full `batch_rows` windows, then the batch's remainder.
pub(super) struct JoinOp<'e> {
    left: BoxOp<'e>,
    right: BoxOp<'e>,
    kind: JoinKind,
    merge_key: Option<&'e str>,
    shape: JoinShape,
    /// The build side, once materialized (on the first pull).
    build: Option<Build>,
    done: bool,
}

/// A join's materialized build side, the probe strategy it is in, and the
/// left batch probing it.
struct Build {
    table: IdTable,
    /// `Some` while the merge-join claim survives; demoted to `None` (hash
    /// probing) the moment a left batch refutes it.
    merge: Option<MergeState>,
    /// Hash index over the build side: created by the first batch that
    /// probes by hash, extended when a later batch brings a new presence
    /// mask.
    index: Option<JoinIndex>,
    probing: Option<Probing>,
}

impl<'e> JoinOp<'e> {
    pub(super) fn new(
        left: BoxOp<'e>,
        right: BoxOp<'e>,
        kind: JoinKind,
        merge_key: Option<&'e str>,
    ) -> Self {
        let shape = JoinShape::new(left.vars(), right.vars());
        JoinOp {
            left,
            right,
            kind,
            merge_key,
            shape,
            build: None,
            done: false,
        }
    }

    /// Drain and materialize the build (right) side, then check the
    /// merge-join claim's right half (key column fully bound and
    /// non-decreasing — one linear pass, far cheaper than a hash build).
    fn build_side(&mut self, ev: &mut Evaluator<'e>, target: usize) -> Result<Build> {
        let mut acc = IdTable::with_vars(self.right.vars().to_vec());
        while let Some(b) = self.right.next_batch(ev, target)? {
            acc.append(&b);
            ev.meter
                .charge_intermediate(acc.len() as u64, acc.estimated_bytes())?;
        }
        let keys = self.merge_key.and_then(|key| {
            let l_key = self.left.vars().iter().position(|v| v == key)?;
            Some((l_key, acc.column_index(key)?))
        });
        let merge = keys
            .filter(|&(_, rc)| sorted_key(acc.col(rc)))
            .map(|(l_key, r_key)| MergeState {
                l_key,
                r_key,
                run: 0,
                prev: None,
            });
        Ok(Build {
            table: acc,
            merge,
            index: None,
            probing: None,
        })
    }
}

impl Build {
    /// Start probing a fresh left batch: check the left half of the merge
    /// claim batch-incrementally (demoting to hash probing for good when it
    /// fails) and make sure the hash index covers the batch's presence
    /// masks, charging the index's size to the budget.
    fn start_probing(
        &mut self,
        batch: IdTable,
        shape: &JoinShape,
        meter: &mut BudgetMeter,
    ) -> Result<()> {
        let claim_holds = self.merge.as_mut().is_some_and(|ms| {
            let col = batch.col(ms.l_key);
            let sorted = sorted_key(col) && ms.prev.is_none_or(|p| p <= col.ids()[0]);
            ms.prev = col.ids().last().copied();
            sorted
        });
        let mut masks = None;
        if !claim_holds {
            self.merge = None;
            let index = (self.index).get_or_insert_with(|| JoinIndex::new(&self.table, shape));
            masks = Some(index.prepare(&batch, &self.table, shape));
            meter.charge_intermediate(0, index.estimated_bytes())?;
        }
        self.probing = Some(Probing {
            batch,
            masks,
            next_left: 0,
            pairs: Vec::new(),
            emitted: 0,
        });
        Ok(())
    }

    /// The next output window of the left batch being probed, matching it
    /// only as far as the window needs; `None` (and the batch released)
    /// once it is used up, or when no batch is probing.
    fn next_window(
        &mut self,
        shape: &JoinShape,
        kind: JoinKind,
        target: usize,
        ev: &mut Evaluator<'_>,
    ) -> Result<Option<IdTable>> {
        let Some(p) = &mut self.probing else {
            return Ok(None);
        };
        let right = &self.table;
        if p.pairs.len() - p.emitted < target && p.next_left < p.batch.len() {
            p.pairs.drain(..p.emitted);
            p.emitted = 0;
            let sides = Sides {
                shape,
                left: &p.batch,
                right,
                kind,
            };
            let (rest, meter) = (p.next_left..p.batch.len(), &mut ev.meter);
            let (next, tested) = match (&p.masks, &self.index, &mut self.merge) {
                (Some(masks), Some(index), _) => {
                    let lookups = index.candidates(masks, &p.batch, &shape.l_idx);
                    sides.probe(rest, target, &mut p.pairs, meter, lookups)?
                }
                (None, _, Some(ms)) => {
                    let lk = p.batch.col(ms.l_key).ids();
                    let key_run = merge_candidates(lk, right.col(ms.r_key).ids(), &mut ms.run);
                    sides.probe(rest, target, &mut p.pairs, meter, key_run)?
                }
                // `start_probing` gives a batch masks exactly when it drops
                // the merge claim, and builds the index first.
                _ => unreachable!("a batch probes by hash with masks or by merge run"),
            };
            p.next_left = next;
            ev.join_candidates += tested;
        }
        if p.emitted == p.pairs.len() {
            self.probing = None;
            return Ok(None);
        }
        let end = p.emitted.saturating_add(target).min(p.pairs.len());
        let window = &p.pairs[p.emitted..end];
        p.emitted = end;
        let out = assemble_join(&p.batch, right, shape.out_vars.clone(), window);
        if end == p.pairs.len() && p.next_left == p.batch.len() {
            self.probing = None; // batch finished: release it now
        }
        Ok(Some(out))
    }
}

impl<'e> Operator<'e> for JoinOp<'e> {
    fn vars(&self) -> &[String] {
        &self.shape.out_vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        let target = batch_rows.max(1);
        loop {
            if let Some(b) = &mut self.build {
                if let Some(out) = b.next_window(&self.shape, self.kind, target, ev)? {
                    return Ok(Some(out));
                }
            }
            if self.done {
                return Ok(None);
            }
            let build = match self.build.take() {
                Some(build) => build,
                None => self.build_side(ev, target)?,
            };
            let build = self.build.insert(build);
            match self.left.next_batch(ev, target)? {
                Some(batch) => build.start_probing(batch, &self.shape, &mut ev.meter)?,
                None => {
                    self.done = true;
                    // The rewrite counter records a merge join that held its
                    // claim over the *entire* left input, whatever the pull
                    // size cut it into.
                    if build.merge.is_some() {
                        match self.kind {
                            JoinKind::Inner => ev.merge_joins += 1,
                            JoinKind::Left => ev.merge_left_joins += 1,
                        }
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn live_size(&self) -> (u64, u64) {
        let mut acc = add2(self.left.live_size(), self.right.live_size());
        let Some(b) = &self.build else { return acc };
        acc = add2(acc, (b.table.len() as u64, b.table.estimated_bytes()));
        if let Some(index) = &b.index {
            acc = add2(acc, (0, index.estimated_bytes()));
        }
        if let Some(p) = &b.probing {
            let pending = (p.pairs.len() - p.emitted) as u64;
            acc = add2(acc, (p.batch.len() as u64, p.batch.estimated_bytes()));
            acc = add2(acc, (pending, p.pairs.len() as u64 * 8));
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

/// Bag union: stream the left input, then the right, moving each batch's
/// columns into the combined schema (a projection: whole columns move, a
/// variable the branch lacks becomes an absent column).
pub(super) struct UnionOp<'e> {
    left: BoxOp<'e>,
    right: BoxOp<'e>,
    vars: Vec<String>,
    left_done: bool,
}

impl<'e> UnionOp<'e> {
    pub(super) fn new(left: BoxOp<'e>, right: BoxOp<'e>) -> Self {
        let mut vars = left.vars().to_vec();
        for v in right.vars() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        UnionOp {
            left,
            right,
            vars,
            left_done: false,
        }
    }
}

impl<'e> Operator<'e> for UnionOp<'e> {
    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        if !self.left_done {
            if let Some(t) = self.left.next_batch(ev, batch_rows)? {
                return Ok(Some(project_table(&self.vars, t)));
            }
            self.left_done = true;
        }
        let batch = self.right.next_batch(ev, batch_rows)?;
        Ok(batch.map(|t| project_table(&self.vars, t)))
    }

    fn live_size(&self) -> (u64, u64) {
        add2(self.left.live_size(), self.right.live_size())
    }
}

// ---------------------------------------------------------------------------
// Row-independent per-batch wrappers
// ---------------------------------------------------------------------------

/// [`Plan::Filter`]: per-batch application of the identical filter body.
struct FilterOp<'e> {
    input: BoxOp<'e>,
    expr: &'e Expr,
}

impl<'e> Operator<'e> for FilterOp<'e> {
    fn vars(&self) -> &[String] {
        self.input.vars()
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        loop {
            match self.input.next_batch(ev, batch_rows)? {
                Some(t) => {
                    let out = ev.filter_table(self.expr, t);
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
                None => return Ok(None),
            }
        }
    }

    fn live_size(&self) -> (u64, u64) {
        self.input.live_size()
    }
}

/// [`Plan::Extend`]: rows are evaluated in input order (intern order is
/// row order), so per-batch application produces the identical column.
struct ExtendOp<'e> {
    input: BoxOp<'e>,
    var: &'e str,
    expr: &'e Expr,
    vars: Vec<String>,
}

impl<'e> ExtendOp<'e> {
    fn new(input: BoxOp<'e>, var: &'e str, expr: &'e Expr) -> Self {
        let mut vars = input.vars().to_vec();
        if !vars.iter().any(|v| v == var) {
            vars.push(var.to_string());
        }
        ExtendOp {
            input,
            var,
            expr,
            vars,
        }
    }
}

impl<'e> Operator<'e> for ExtendOp<'e> {
    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        match self.input.next_batch(ev, batch_rows)? {
            Some(t) => Ok(Some(ev.extend_table(self.var, self.expr, t))),
            None => Ok(None),
        }
    }

    fn live_size(&self) -> (u64, u64) {
        self.input.live_size()
    }
}

/// [`Plan::Project`]: pure column shuffling, applied per batch.
struct ProjectOp<'e> {
    input: BoxOp<'e>,
    vars: Vec<String>,
}

impl<'e> Operator<'e> for ProjectOp<'e> {
    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        match self.input.next_batch(ev, batch_rows)? {
            Some(t) => Ok(Some(project_table(&self.vars, t))),
            None => Ok(None),
        }
    }

    fn live_size(&self) -> (u64, u64) {
        self.input.live_size()
    }
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// Per-aggregate plan: `COUNT[ DISTINCT](?v)` over a column counts ids
/// straight off it; every other aggregate evaluates its expression per row
/// (the materialization boundary for aggregates) into the oracle's own
/// [`AggState`].
enum AggPlan<'e> {
    Star,
    CountCol { idx: usize, distinct: bool },
    General(&'e Expr),
}

enum Accum {
    Terms(Box<AggState>),
    CountIds {
        seen: Option<FxHashSet<TermId>>,
        count: usize,
    },
}

enum GroupIndex {
    One(FxHashMap<u64, usize>),
    Many(FxHashMap<Vec<u64>, usize>),
}

/// GROUP BY: a pipeline breaker whose live state is the group table, not
/// the input — rows accumulate into per-group accumulators batch by batch
/// and the output is emitted only at input exhaustion, in first-occurrence
/// order. The group index hashes `u64`-encoded cells (bijective), never
/// terms; the common single-key case hashes one `u64` with no per-row
/// allocation.
pub(super) struct GroupOp<'e> {
    input: BoxOp<'e>,
    keys: &'e [String],
    aggs: &'e [AggSpec],
    vars: Vec<String>,
    key_indices: Vec<Option<usize>>,
    plans: Vec<AggPlan<'e>>,
    index: GroupIndex,
    groups: Vec<(Vec<Option<TermId>>, Vec<Accum>)>,
    group_bytes: u64,
    staged: Option<Staged>,
    drained: bool,
}

impl<'e> GroupOp<'e> {
    pub(super) fn new(input: BoxOp<'e>, keys: &'e [String], aggs: &'e [AggSpec]) -> Self {
        let child = input.vars();
        let key_indices: Vec<Option<usize>> = keys
            .iter()
            .map(|k| child.iter().position(|v| v == k))
            .collect();
        let plans: Vec<AggPlan<'e>> = aggs
            .iter()
            .map(|spec| {
                let Some(expr) = &spec.expr else {
                    return AggPlan::Star;
                };
                let col = match expr {
                    Expr::Var(v) if matches!(spec.op, AggOp::Count) => {
                        child.iter().position(|c| c == v)
                    }
                    _ => None,
                };
                match col {
                    Some(idx) => AggPlan::CountCol {
                        idx,
                        distinct: spec.distinct,
                    },
                    // Another op, a computed expression, or a variable absent
                    // from the input (which the general path never sees bound).
                    None => AggPlan::General(expr),
                }
            })
            .collect();

        let mut index = if key_indices.len() == 1 {
            GroupIndex::One(FxHashMap::default())
        } else {
            GroupIndex::Many(FxHashMap::default())
        };
        let mut groups: Vec<(Vec<Option<TermId>>, Vec<Accum>)> = Vec::new();
        if keys.is_empty() {
            // Implicit single group (aggregation without GROUP BY).
            if let GroupIndex::Many(m) = &mut index {
                m.insert(Vec::new(), 0);
            }
            groups.push((Vec::new(), fresh_accums(aggs, &plans)));
        }

        let mut vars: Vec<String> = keys.to_vec();
        vars.extend(aggs.iter().map(|a| a.output.clone()));
        // Rough per-group footprint (key ids + accumulator state) for the
        // memory axis: grouping state is the one allocation that grows
        // without a corresponding operator output until the input ends.
        let group_bytes =
            (keys.len() as u64).saturating_mul(16) + (aggs.len() as u64).saturating_mul(64);
        GroupOp {
            input,
            keys,
            aggs,
            vars,
            key_indices,
            plans,
            index,
            groups,
            group_bytes,
            staged: None,
            drained: false,
        }
    }

    /// Fold one input batch into the group table.
    fn accumulate(&mut self, ev: &mut Evaluator<'e>, batch: &IdTable) -> Result<()> {
        let GroupOp {
            aggs,
            key_indices,
            plans,
            index,
            groups,
            group_bytes,
            ..
        } = self;
        for i in 0..batch.len() {
            ev.meter.charge_intermediate(
                groups.len() as u64,
                (groups.len() as u64).saturating_mul(*group_bytes),
            )?;
            let existing: Option<usize> = match index {
                GroupIndex::One(m) => {
                    let enc = match key_indices[0] {
                        Some(c) => batch.col(c).hash_code(i),
                        None => 0,
                    };
                    let slot = m.entry(enc).or_insert(usize::MAX);
                    if *slot == usize::MAX {
                        *slot = groups.len();
                        None
                    } else {
                        Some(*slot)
                    }
                }
                GroupIndex::Many(m) => {
                    let key_enc: Vec<u64> = key_indices
                        .iter()
                        .map(|ki| match ki {
                            Some(c) => batch.col(*c).hash_code(i),
                            None => 0,
                        })
                        .collect();
                    let slot = m.entry(key_enc).or_insert(usize::MAX);
                    if *slot == usize::MAX {
                        *slot = groups.len();
                        None
                    } else {
                        Some(*slot)
                    }
                }
            };
            let gi = match existing {
                Some(gi) => gi,
                None => {
                    let gi = groups.len();
                    let key: Vec<Option<TermId>> = key_indices
                        .iter()
                        .map(|ki| ki.and_then(|c| batch.get(i, c)))
                        .collect();
                    groups.push((key, fresh_accums(aggs, plans)));
                    gi
                }
            };
            for (accum, plan) in groups[gi].1.iter_mut().zip(plans.iter()) {
                match (accum, plan) {
                    (Accum::Terms(state), AggPlan::Star) => state.push_star(),
                    (Accum::Terms(state), AggPlan::General(e)) => {
                        let value = {
                            let buf = &mut ev.scratch;
                            batch.read_row(i, buf);
                            let ctx = IdRowCtx {
                                vars: &batch.vars,
                                row: buf,
                                pool: &ev.pool,
                            };
                            eval_expr(e, ctx, &mut ev.caches)
                        };
                        state.push(value);
                    }
                    (Accum::CountIds { seen, count }, AggPlan::CountCol { idx, .. }) => {
                        if let Some(id) = batch.get(i, *idx) {
                            match seen {
                                Some(set) => {
                                    if set.insert(id) {
                                        *count += 1;
                                    }
                                }
                                None => *count += 1,
                            }
                        }
                    }
                    // `fresh_accums` pairs each plan with exactly these
                    // accumulators.
                    _ => unreachable!("accumulator/plan shape mismatch"),
                }
            }
        }
        Ok(())
    }

    /// Emit the group table in first-occurrence order. Aggregate results
    /// are computed terms; interning them keeps the columns id-native for
    /// downstream operators.
    fn finish(&mut self, ev: &mut Evaluator<'e>) -> Result<()> {
        let groups = std::mem::take(&mut self.groups);
        let n_groups = groups.len();
        let mut key_cols: Vec<Column> = (0..self.keys.len())
            .map(|_| Column::with_capacity(n_groups))
            .collect();
        let mut agg_cols: Vec<Column> = (0..self.aggs.len())
            .map(|_| Column::with_capacity(n_groups))
            .collect();
        for (key, accums) in groups {
            for (col, v) in key_cols.iter_mut().zip(key) {
                col.push(v);
            }
            for (col, accum) in agg_cols.iter_mut().zip(accums) {
                let value: Option<TermId> = match accum {
                    Accum::Terms(state) => state.finish().map(|t| ev.pool.intern(t)),
                    Accum::CountIds { count, .. } => {
                        Some(ev.pool.intern(Term::integer(count as i64)))
                    }
                };
                col.push(value);
            }
        }
        key_cols.extend(agg_cols);
        let t = IdTable::from_columns(self.vars.clone(), key_cols, n_groups);
        self.staged = Some(Staged { table: t, off: 0 });
        Ok(())
    }
}

fn fresh_accums(aggs: &[AggSpec], plans: &[AggPlan]) -> Vec<Accum> {
    aggs.iter()
        .zip(plans)
        .map(|(a, plan)| match plan {
            AggPlan::CountCol { distinct, .. } => Accum::CountIds {
                seen: distinct.then(FxHashSet::default),
                count: 0,
            },
            _ => Accum::Terms(Box::new(AggState::new(a.op, a.distinct))),
        })
        .collect()
}

impl<'e> Operator<'e> for GroupOp<'e> {
    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        let target = batch_rows.max(1);
        if !self.drained {
            while let Some(b) = self.input.next_batch(ev, target)? {
                self.accumulate(ev, &b)?;
            }
            self.drained = true;
            self.finish(ev)?;
        }
        Ok(take_window(&mut self.staged, target))
    }

    fn live_size(&self) -> (u64, u64) {
        let own = (
            self.groups.len() as u64,
            (self.groups.len() as u64).saturating_mul(self.group_bytes),
        );
        add2(add2(self.input.live_size(), own), staged_live(&self.staged))
    }
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

/// What a [`DistinctOp`] has let through so far — its accumulating state:
/// the `u64` cell codes of every row kept.
enum Seen {
    /// Single column: bare `u64` cell codes, no row keys.
    One(FxHashSet<u64>),
    Many(FxHashSet<Vec<u64>>),
}

impl Seen {
    /// `(rows, estimated bytes)` of the state — the one figure both the
    /// budget is charged and `peak_live_bytes` reports.
    fn size(&self, width: usize) -> (u64, u64) {
        match self {
            Seen::One(seen) => (seen.len() as u64, seen.len() as u64 * 8),
            Seen::Many(seen) => {
                let rows = seen.len() as u64;
                (rows, rows.saturating_mul(8 * width.max(1) as u64))
            }
        }
    }

    /// Keep-first mask of `t` against everything seen before it.
    fn mask(&mut self, t: &IdTable) -> Vec<bool> {
        match self {
            Seen::One(seen) => {
                let col = t.col(0);
                (0..t.len())
                    .map(|i| seen.insert(col.hash_code(i)))
                    .collect()
            }
            Seen::Many(seen) => (0..t.len())
                .map(|i| seen.insert(t.columns().iter().map(|c| c.hash_code(i)).collect()))
                .collect(),
        }
    }
}

/// DISTINCT: keeps first occurrences across batches through a persistent
/// seen-set, so each batch leaves with the rows no earlier batch let
/// through, in input order.
pub(super) struct DistinctOp<'e> {
    input: BoxOp<'e>,
    seen: Seen,
    done: bool,
}

impl<'e> DistinctOp<'e> {
    pub(super) fn new(input: BoxOp<'e>) -> Self {
        let seen = if input.vars().len() == 1 {
            Seen::One(FxHashSet::default())
        } else {
            Seen::Many(FxHashSet::default())
        };
        DistinctOp {
            input,
            seen,
            done: false,
        }
    }
}

impl<'e> Operator<'e> for DistinctOp<'e> {
    fn vars(&self) -> &[String] {
        self.input.vars()
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        loop {
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch(ev, batch_rows)? {
                None => {
                    self.done = true;
                    return Ok(None);
                }
                Some(mut t) => {
                    let keep = self.seen.mask(&t);
                    t.filter_mask(&keep);
                    let (rows, bytes) = self.seen.size(t.vars.len());
                    ev.meter.charge_intermediate(rows, bytes)?;
                    if !t.is_empty() {
                        return Ok(Some(t));
                    }
                }
            }
        }
    }

    fn live_size(&self) -> (u64, u64) {
        add2(
            self.input.live_size(),
            self.seen.size(self.input.vars().len()),
        )
    }
}

// ---------------------------------------------------------------------------
// Sort (a pipeline breaker)
// ---------------------------------------------------------------------------

/// One [`Plan::OrderBy`]: a full sort, or with `top: Some(k)` a bounded
/// one. Either materializes only its own input, charging the accumulation
/// against the budget as it grows. A bounded sort also compacts whenever
/// the accumulation reaches `compact_at(k)` rows — the top `k` of a prefix
/// keeps exactly the rows that can still reach the final top `k` and
/// preserves arrival order among key-equal survivors, so compaction is
/// invisible in the final result — and so never holds more than
/// `compact_at(k)` rows plus one input batch.
struct SortOp<'e> {
    input: BoxOp<'e>,
    keys: &'e [OrderKey],
    k: Option<usize>,
    acc: IdTable,
    staged: Option<Staged>,
    drained: bool,
}

impl<'e> SortOp<'e> {
    fn new(input: BoxOp<'e>, keys: &'e [OrderKey], k: Option<usize>) -> Self {
        let acc = IdTable::with_vars(input.vars().to_vec());
        SortOp {
            input,
            keys,
            k,
            acc,
            staged: None,
            drained: false,
        }
    }

    /// Compaction threshold: enough headroom that compaction is rare
    /// (amortized O(1) per row) while the accumulator stays O(k + const).
    fn compact_at(k: usize) -> usize {
        k.saturating_add(k.max(8192))
    }
}

impl<'e> Operator<'e> for SortOp<'e> {
    fn vars(&self) -> &[String] {
        self.input.vars()
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        let target = batch_rows.max(1);
        if !self.drained {
            while let Some(b) = self.input.next_batch(ev, target)? {
                self.acc.append(&b);
                ev.meter
                    .charge_intermediate(self.acc.len() as u64, self.acc.estimated_bytes())?;
                if let Some(k) = self.k {
                    if self.acc.len() >= Self::compact_at(k) {
                        ev.sort(&mut self.acc, self.keys, Some(k));
                    }
                }
            }
            self.drained = true;
            let mut acc = std::mem::take(&mut self.acc);
            ev.sort(&mut acc, self.keys, self.k);
            self.staged = Some(Staged { table: acc, off: 0 });
        }
        Ok(take_window(&mut self.staged, target))
    }

    fn live_size(&self) -> (u64, u64) {
        let own = (self.acc.len() as u64, self.acc.estimated_bytes());
        add2(add2(self.input.live_size(), own), staged_live(&self.staged))
    }
}

// ---------------------------------------------------------------------------
// Slice (early exit)
// ---------------------------------------------------------------------------

/// OFFSET/LIMIT with genuine early termination: once `limit` rows have
/// been emitted the operator stops pulling upstream entirely, so upstream
/// scans never run — the one place small pulls legitimately do *less* scan
/// work than an unbounded one (the documented parity carve-out).
struct SliceOp<'e> {
    input: BoxOp<'e>,
    offset: usize,
    limit: Option<usize>,
    skipped: usize,
    emitted: usize,
    done: bool,
}

impl<'e> SliceOp<'e> {
    fn new(input: BoxOp<'e>, offset: usize, limit: Option<usize>) -> Self {
        SliceOp {
            input,
            offset,
            limit,
            skipped: 0,
            emitted: 0,
            done: false,
        }
    }
}

impl<'e> Operator<'e> for SliceOp<'e> {
    fn vars(&self) -> &[String] {
        self.input.vars()
    }

    fn next_batch(&mut self, ev: &mut Evaluator<'e>, batch_rows: usize) -> Result<Option<IdTable>> {
        loop {
            if self.done {
                return Ok(None);
            }
            if let Some(lim) = self.limit {
                if self.emitted >= lim {
                    self.done = true;
                    return Ok(None);
                }
            }
            match self.input.next_batch(ev, batch_rows)? {
                None => {
                    self.done = true;
                    return Ok(None);
                }
                Some(mut t) => {
                    if self.skipped < self.offset {
                        let skip = (self.offset - self.skipped).min(t.len());
                        self.skipped += skip;
                        if skip == t.len() {
                            continue;
                        }
                        t.slice(skip, None);
                    }
                    if let Some(lim) = self.limit {
                        let rem = lim - self.emitted;
                        if t.len() > rem {
                            t.slice(0, Some(rem));
                        }
                    }
                    if t.is_empty() {
                        continue;
                    }
                    self.emitted += t.len();
                    return Ok(Some(t));
                }
            }
        }
    }

    fn live_size(&self) -> (u64, u64) {
        self.input.live_size()
    }
}

#[cfg(test)]
pub(super) mod tests {
    use proptest::prelude::*;

    use super::super::join_index::tests::{nested_loop_pairs, rows_strategy, table};
    use super::*;

    /// The pull sizes every operator test sweeps: one row, an odd handful, a
    /// typical batch, and the unbounded pull `execute` makes.
    pub(in crate::eval) const BATCHES: [usize; 4] = [1, 7, 256, usize::MAX];

    /// Test source: hands a table out in `batch_rows` windows.
    struct TableOp {
        vars: Vec<String>,
        staged: Option<Staged>,
    }

    impl<'e> Operator<'e> for TableOp {
        fn vars(&self) -> &[String] {
            &self.vars
        }

        fn next_batch(&mut self, _ev: &mut Evaluator<'e>, n: usize) -> Result<Option<IdTable>> {
            Ok(take_window(&mut self.staged, n))
        }

        fn live_size(&self) -> (u64, u64) {
            staged_live(&self.staged)
        }
    }

    pub(in crate::eval) fn source<'e>(t: &IdTable) -> BoxOp<'e> {
        Box::new(TableOp {
            vars: t.vars.clone(),
            staged: Some(Staged {
                table: t.clone(),
                off: 0,
            }),
        })
    }

    /// Drain `op` in pulls of `batch` rows, holding every batch to the
    /// operator contract (never empty, never over-long).
    pub(in crate::eval) fn drain<'e>(
        op: &mut dyn Operator<'e>,
        ev: &mut Evaluator<'e>,
        batch: usize,
    ) -> IdTable {
        let mut all = IdTable::with_vars(op.vars().to_vec());
        while let Some(b) = op.next_batch(ev, batch).unwrap() {
            assert!(!b.is_empty() && b.len() <= batch, "batch {batch}");
            all.append(&b);
        }
        assert!(op.next_batch(ev, batch).unwrap().is_none(), "stays dry");
        all
    }

    #[test]
    fn join_index_is_live_state_and_charged_to_the_memory_budget() {
        let rows = |n: u32| -> Vec<Vec<u8>> {
            (0..n)
                .map(|i| vec![1 + (i % 200) as u8, 1 + (i % 7) as u8, 0, 0, 0])
                .collect()
        };
        let (left, right) = (table('l', 2, &rows(10)), table('r', 2, &rows(1000)));
        let ds = Dataset::new();

        let mut ev = Evaluator::new(&ds, Vec::new());
        let mut op = JoinOp::new(source(&left), source(&right), JoinKind::Inner, None);
        op.next_batch(&mut ev, 4).unwrap().expect("rows join");
        let index = op.build.as_ref().and_then(|b| b.index.as_ref());
        let index_bytes = index.expect("hash probing").estimated_bytes();
        let table_bytes = right.estimated_bytes();
        assert!(op.live_size().1 >= table_bytes + index_bytes);

        // A cap the build table fits under and its index does not: every
        // pull size refuses with the typed error instead of building on.
        assert!(table_bytes < index_bytes);
        let budget = QueryBudget::unlimited().with_max_memory_bytes(index_bytes - 1);
        let exhausted = |r: Result<Option<IdTable>>| {
            matches!(
                r,
                Err(EngineError::ResourceExhausted {
                    resource: crate::budget::ResourceKind::MemoryBytes,
                    ..
                })
            )
        };
        let mut ev = Evaluator::new(&ds, Vec::new());
        ev.set_budget(&budget);
        let mut op = JoinOp::new(source(&left), source(&right), JoinKind::Inner, None);
        assert!(exhausted(op.next_batch(&mut ev, 4)));
        let mut op = JoinOp::new(source(&left), source(&right), JoinKind::Inner, None);
        assert!(exhausted(op.next_batch(&mut ev, usize::MAX)));
        // One byte more and the same join runs to completion.
        ev.set_budget(&QueryBudget::unlimited().with_max_memory_bytes(index_bytes));
        let mut op = JoinOp::new(source(&left), source(&right), JoinKind::Inner, None);
        assert!(matches!(op.next_batch(&mut ev, 4), Ok(Some(_))));
    }

    #[test]
    fn distinct_state_has_one_size_for_live_bytes_and_the_memory_budget() {
        // 400 distinct rows, 1 / 3 / 5 columns wide, fed unsorted and
        // sorted: what `live_size` reports is what the budget is charged, to
        // the byte.
        let ds = Dataset::new();
        for width in [1usize, 3, 5] {
            let vars: Vec<String> = (0..width).map(|c| format!("v{c}")).collect();
            let mut sorted = IdTable::with_vars(vars.clone());
            for r in 0..400u32 {
                sorted.push_row(&vec![Some(TermId(r)); width]);
            }
            let reversed: Vec<u32> = (0..400).rev().collect();
            for input in [sorted.gather_rows(&reversed), sorted] {
                let mut ev = Evaluator::new(&ds, Vec::new());
                let mut op = DistinctOp::new(source(&input));
                assert_eq!(drain(&mut op, &mut ev, 64), input);
                let (rows, bytes) = op.live_size();
                assert_eq!(
                    (rows, bytes),
                    (400, 400 * 8 * width as u64),
                    "width {width}"
                );

                // One byte short of that trips the memory axis on the last
                // batch; the exact figure lets the operator finish.
                for (cap, fits) in [(bytes - 1, false), (bytes, true)] {
                    let mut ev = Evaluator::new(&ds, Vec::new());
                    ev.set_budget(&QueryBudget::unlimited().with_max_memory_bytes(cap));
                    let mut op = DistinctOp::new(source(&input));
                    let mut outcome = Ok(());
                    while outcome.is_ok() {
                        match op.next_batch(&mut ev, 64) {
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(e) => outcome = Err(e),
                        }
                    }
                    assert_eq!(
                        outcome.is_ok(),
                        fits,
                        "width {width}, cap {cap}: {outcome:?}"
                    );
                }
            }
        }
    }

    /// Test source: `batches` one-row batches, then the error (or the end).
    struct FlakyOp {
        vars: Vec<String>,
        batches: u32,
        then: Option<EngineError>,
    }

    impl<'e> Operator<'e> for FlakyOp {
        fn vars(&self) -> &[String] {
            &self.vars
        }

        fn next_batch(&mut self, ev: &mut Evaluator<'e>, _n: usize) -> Result<Option<IdTable>> {
            if self.batches == 0 {
                return self.then.clone().map_or(Ok(None), Err);
            }
            self.batches -= 1;
            ev.rows_scanned += 10;
            Ok(Some(table('s', 1, &[vec![1, 0, 0, 0]])))
        }

        fn live_size(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    fn spool_readers<'e>(source: FlakyOp, readers: usize) -> Vec<SpoolReader<'e>> {
        let spool = Rc::new(RefCell::new(Spool::new(Box::new(source), readers)));
        (0..readers)
            .map(|r| SpoolReader::new(Rc::clone(&spool), r == 0))
            .collect()
    }

    #[test]
    fn a_spool_is_read_once_replayed_exactly_and_counted_once() {
        let ds = Dataset::new();
        let mut ev = Evaluator::new(&ds, Vec::new());
        let source = FlakyOp {
            vars: vec!["s0".into(), "s_row".into()],
            batches: 3,
            then: None,
        };
        let mut readers = spool_readers(source, 3);
        let batch_bytes = table('s', 1, &[vec![1, 0, 0, 0]]).estimated_bytes();
        // Reader 0 drains the source: three batches and the exhausting pull.
        while readers[0].next_batch(&mut ev, 8).unwrap().is_some() {}
        assert_eq!((ev.rows_scanned, ev.shared_scans), (30, 0));
        // Everything is retained for the two readers still at the start —
        // and reported by the spool's first reader alone.
        assert_eq!(readers[0].live_size(), (3, 3 * batch_bytes));
        assert_eq!(readers[1].live_size(), (0, 0));
        assert_eq!(readers[2].live_size(), (0, 0));
        // Each replay stands in for the scans of the pull it repeats.
        assert!(readers[1].next_batch(&mut ev, 8).unwrap().is_some());
        assert_eq!((ev.rows_scanned, ev.shared_scans), (30, 10));
        while readers[2].next_batch(&mut ev, 8).unwrap().is_some() {}
        assert_eq!((ev.rows_scanned, ev.shared_scans), (30, 40));
        // The slowest reader now stands after the first batch.
        assert_eq!(readers[0].live_size(), (2, 2 * batch_bytes));
        while readers[1].next_batch(&mut ev, 8).unwrap().is_some() {}
        assert_eq!((ev.rows_scanned, ev.shared_scans), (30, 60));
        assert_eq!(readers[0].live_size(), (0, 0));
        // Exhausted readers stay exhausted, at no further cost.
        for r in &mut readers {
            assert!(r.next_batch(&mut ev, 8).unwrap().is_none());
        }
        assert_eq!((ev.rows_scanned, ev.shared_scans), (30, 60));
    }

    #[test]
    fn a_failed_shared_source_fails_every_reader() {
        let ds = Dataset::new();
        let mut ev = Evaluator::new(&ds, Vec::new());
        let boom = EngineError::UnknownGraph("http://gone".into());
        let source = FlakyOp {
            vars: vec!["s0".into(), "s_row".into()],
            batches: 1,
            then: Some(boom.clone()),
        };
        let mut readers = spool_readers(source, 3);
        assert!(readers[0].next_batch(&mut ev, 8).unwrap().is_some());
        assert!(readers[1].next_batch(&mut ev, 8).unwrap().is_some());
        assert_eq!(readers[0].next_batch(&mut ev, 8), Err(boom.clone()));
        // Reader 1 is past the retained batch, reader 2 still before it:
        // neither is told the stream simply ended, now or on a later poll.
        for r in &mut readers {
            assert_eq!(r.next_batch(&mut ev, 8), Err(boom.clone()));
            assert_eq!(r.next_batch(&mut ev, 8), Err(boom.clone()));
        }
        assert!(matches!(
            readers[0].spool.borrow().source,
            Source::Failed(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random partially-bound inputs: `JoinOp` at every pull size —
        /// one row to unbounded — produces the nested-loop join, row for
        /// row, and tests the same number of candidates doing it.
        #[test]
        fn join_op_and_join_agree_with_the_nested_loop(
            shared in 1usize..6,
            left_rows in rows_strategy(0..330),
            right_rows in rows_strategy(0..60),
        ) {
            let left = table('l', shared, &left_rows);
            let right = table('r', shared, &right_rows);
            let ds = Dataset::new();
            for kind in [JoinKind::Inner, JoinKind::Left] {
                let pairs = nested_loop_pairs(&left, &right, kind);
                let out_vars = JoinShape::new(&left.vars, &right.vars).out_vars;
                let expected = assemble_join(&left, &right, out_vars, &pairs);

                let mut tested = Vec::new();
                for batch in BATCHES {
                    let mut ev = Evaluator::new(&ds, Vec::new());
                    let mut op = JoinOp::new(source(&left), source(&right), kind, None);
                    let got = drain(&mut op, &mut ev, batch);
                    prop_assert_eq!(&got, &expected, "{:?}, batch {}", kind, batch);
                    tested.push(ev.join_candidates);
                }
                prop_assert!(tested.iter().all(|&t| t == tested[0]), "{:?}", tested);
            }
        }
    }
}
