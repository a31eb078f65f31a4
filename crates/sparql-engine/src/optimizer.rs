//! Statistics-driven plan optimization.
//!
//! Three passes run over the translated plan, in order:
//!
//! 1. **FILTER pushdown** splits conjunctive filters and sinks
//!    single-variable conjuncts into the BGP that binds their variable
//!    ([`crate::algebra::PushedFilter`]), through joins, the *left* side of
//!    left joins, other filters, and non-shadowing extends. Rows failing a
//!    pushed predicate die inside the BGP extension loop, before later
//!    patterns scan for them.
//! 2. **BGP planning** permutes the triple patterns inside each basic
//!    graph pattern greedily by estimated cardinality, propagating which
//!    variables are bound by earlier patterns (index-nested-loop order),
//!    and bounds an `OrderBy` under a `Slice` to the rows the slice can
//!    show (its `top`). It reads the filters pass 1 pushed: the pattern
//!    that first binds a filtered variable is charged the conjunct's
//!    selectivity (`Optimizer::filter_selectivity`), so a selective `IN`
//!    leads the order instead of being tested wherever its variable happens
//!    to get bound. This mirrors what production RDF engines do with flat
//!    queries — and what they *cannot* do across subquery boundaries,
//!    which is why the paper's naive one-subquery-per-operator generation
//!    is slow. It also picks the join *shape*: a BGP whose subject stars
//!    touch only through value variables is split into hash-joined
//!    per-star BGPs when the statistics say so (`Optimizer::plan_bgp`),
//!    and an OPTIONAL sitting on an inner join sinks onto the one input it
//!    extends (`sink_optional`). Both keep the result *bag*; row order of
//!    an un-ORDERed result may differ from the literal plan's.
//! 3. **Order and estimate tracking** is one bottom-up walk
//!    (`Optimizer::plan_order_rewrites`). It computes the *full* variable
//!    sequence each node's output is sorted by (ascending global id order —
//!    see `Optimizer::bgp_order` for where order originates; DISTINCT
//!    passes its input's order up, a GROUP BY whose keys are set-wise a
//!    prefix of its input's order emits that prefix) and, along the left
//!    side an OPTIONAL asks about, the estimated rows. It spends them on
//!    two rewrites:
//!
//!    - a merge key (`merge_on`) on a [`Plan::Join`] or [`Plan::LeftJoin`]
//!      whose inputs both arrive sorted on the same leading shared variable
//!      (the merge emits unmatched left rows in place, exactly like the
//!      hash left join);
//!    - an OPTIONAL whose right side is one triple pattern →
//!      [`Plan::BindLeftJoin`], when the left side's estimated rows, each
//!      probing the pattern for its key, are estimated to visit fewer index
//!      entries than the pattern's extent, which the hash left join reads
//!      whole (`Optimizer::bind_key`; it reads the left side's order
//!      too).
//!
//! Passes 1 and 3 are pure physical rewrites: results are identical to
//! the unoptimized plan's (property-tested against `optimize: false` and
//! the oracle), only the work done changes. Every order claim is
//! re-verified at run time by the merge (one linear pass), which demotes
//! the join to its hash path when the claim fails — the only off-switch a
//! rewrite has — so this analysis only has to be precise, not paranoid.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rdf_model::{Dataset, GraphStats, Term, TermId};

use crate::algebra::{GraphRef, Plan, PushedFilter};
use crate::ast::{Expr, PatternTerm, TriplePattern};
use crate::eval::share::Shared;
use crate::expr::{id_equality_shape, single_filter_var};

/// Placeholder id used to mark "this position will be bound at runtime" for
/// cardinality estimation (the estimator only checks bound-ness).
const BOUND_MARK: TermId = TermId(0);

/// Reorders BGPs in `plan` using statistics from `dataset`. `default_graphs`
/// names the graphs a [`GraphRef::Default`] BGP matches.
pub struct Optimizer<'a> {
    dataset: &'a Dataset,
    default_graphs: &'a [String],
    /// Per-query cache of graph statistics handles (the dataset's accessor
    /// is generation-checked and lock-guarded; fetch each graph's snapshot
    /// once per optimization).
    stats_cache: HashMap<String, Option<Arc<GraphStats>>>,
    /// The BGPs that are sharing classes of the plan pass 3 rewrites, as
    /// pass 2 left it ([`shared_bgps`]): such an OPTIONAL side stays a hash
    /// join's one build.
    shared_bgps: Vec<Plan>,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer for a dataset.
    pub fn new(dataset: &'a Dataset, default_graphs: &'a [String]) -> Self {
        Optimizer {
            dataset,
            default_graphs,
            stats_cache: HashMap::new(),
            shared_bgps: Vec::new(),
        }
    }

    /// Optimize a plan in place (all three passes).
    pub fn optimize(&mut self, plan: &mut Plan) {
        push_filters(plan);
        self.reorder(plan);
        self.shared_bgps.clear();
        shared_bgps(plan, &Shared::of(plan), &mut self.shared_bgps);
        self.plan_order_rewrites(plan, false);
    }

    /// Pass 2: statistics-driven BGP reordering, join shapes and sort
    /// bounds, inputs before the node itself (but a sort's bound first).
    fn reorder(&mut self, plan: &mut Plan) {
        match plan {
            Plan::Bgp {
                patterns,
                graph,
                filters,
            } => {
                if let Some(split) = self.plan_bgp(patterns, graph, filters) {
                    *plan = split;
                }
                return;
            }
            Plan::Slice {
                limit: Some(limit),
                offset,
                input,
            } => fuse_order_by_limit(input, limit.saturating_add(*offset)),
            _ => {}
        }
        for child in plan.children_mut() {
            self.reorder(child);
        }
        sink_optional(plan);
    }

    /// The graphs a BGP will actually scan ([`GraphRef::uris`]).
    fn effective_graphs(&self, graph: &GraphRef) -> Vec<String> {
        let uris = graph.uris(self.dataset, self.default_graphs);
        uris.into_iter().map(str::to_string).collect()
    }

    fn stats_for(&mut self, uri: &str) -> Option<Arc<GraphStats>> {
        if !self.stats_cache.contains_key(uri) {
            let stats = self.dataset.graph_stats(uri);
            self.stats_cache.insert(uri.to_string(), stats);
        }
        self.stats_cache[uri].clone()
    }

    /// Estimate the matches of one pattern over the graphs `uris` (the
    /// BGP's [`Optimizer::effective_graphs`]: what the evaluators will
    /// actually scan), treating variables in `bound` as bound positions.
    fn estimate_pattern(
        &mut self,
        pattern: &TriplePattern,
        bound: &HashSet<String>,
        uris: &[String],
    ) -> f64 {
        let dataset = self.dataset;
        let mut total = 0.0;
        for uri in uris {
            let Some(index) = dataset.graph(uri) else {
                continue;
            };
            // Outer None = the graph has no triple with this constant in
            // this position (an empty slab range: the pattern matches
            // nothing here); inner None = unbound position. A predicate
            // needs no probe — the statistics are keyed by predicate and
            // answer 0 for one they never saw.
            let resolve = |pos: usize, t: &PatternTerm| -> Option<Option<TermId>> {
                match t {
                    PatternTerm::Var(v) if bound.contains(v) => Some(Some(BOUND_MARK)),
                    PatternTerm::Var(_) => Some(None),
                    PatternTerm::Const(term) => {
                        let mut probe = [None; 3];
                        probe[pos] = Some(dataset.lookup(term)?);
                        (pos == 1 || index.count_pattern(probe[0], probe[1], probe[2]) > 0)
                            .then_some(probe[pos])
                    }
                }
            };
            let (Some(s), Some(p), Some(o)) = (
                resolve(0, &pattern.subject),
                resolve(1, &pattern.predicate),
                resolve(2, &pattern.object),
            ) else {
                continue; // constant absent from this graph: contributes 0
            };
            if let Some(stats) = self.stats_for(uri) {
                total += stats.estimate(s, p, o);
            }
        }
        total
    }

    /// The share of `pattern`'s matches over `uris` (its own constants
    /// only; other variables free) that pass `filter`, a conjunct on one of
    /// its variables. Exact for `?v = c`, `?v != c`, `?v IN (c₁ … cₖ)` and
    /// `?v NOT IN (…)` over non-literal constants, where `=` is term
    /// identity: each `cᵢ` is substituted for `?v` and the store counts the
    /// matches. Anything else is charged [`DEFAULT_FILTER_SELECTIVITY`].
    fn filter_selectivity(
        &self,
        pattern: &TriplePattern,
        filter: &PushedFilter,
        uris: &[String],
    ) -> f64 {
        let Some((constants, negated)) = id_membership(&filter.expr) else {
            return DEFAULT_FILTER_SELECTIVITY;
        };
        let dataset = self.dataset;
        // Exact matches of `pattern` with `value` (when given) in place of
        // the filtered variable; a constant interned nowhere matches nothing.
        let count = |value: Option<&Term>| -> usize {
            let id = |term: &Term| dataset.lookup(term).ok_or(());
            let resolve = |t: &PatternTerm| match t {
                PatternTerm::Var(v) if *v == filter.var => value.map(id).transpose(),
                PatternTerm::Var(_) => Ok(None),
                PatternTerm::Const(term) => id(term).map(Some),
            };
            let (Ok(s), Ok(p), Ok(o)) = (
                resolve(&pattern.subject),
                resolve(&pattern.predicate),
                resolve(&pattern.object),
            ) else {
                return 0;
            };
            let graphs = uris.iter().filter_map(|uri| dataset.graph(uri));
            graphs.map(|index| index.count_pattern(s, p, o)).sum()
        };
        let all = count(None);
        let share = if all == 0 {
            0.0
        } else {
            let hits: usize = constants.into_iter().map(|c| count(Some(c))).sum();
            (hits as f64 / all as f64).min(1.0)
        };
        if negated {
            1.0 - share
        } else {
            share
        }
    }

    /// Pass 3: one bottom-up walk that rewrites joins by what it learns of
    /// each node's output. Returns two facts about `plan`:
    ///
    /// - the variable sequence its output is sorted by (ascending global
    ///   id; `[]` = unknown/unsorted), spent on merge joins, inner and left.
    ///   Every propagated order variable is always-bound in its node's
    ///   output (orders originate from BGP-bound columns and only flow
    ///   through operators that carry those columns unchanged), and the
    ///   evaluator re-verifies boundness and sortedness at run time before
    ///   committing to a merge;
    /// - when `want_rows`, its estimated rows ([`Optimizer::bind_key`]
    ///   reads them of an OPTIONAL's left side): a BGP's greedy-order
    ///   cardinality, an OPTIONAL of one pattern as its left side's rows
    ///   times the matches per key (at least one), and what filters, binds,
    ///   projections, DISTINCT and ORDER BY keep of their input (at most all
    ///   of it). `None` for anything else, and whenever not asked for. Only
    ///   a left spine an OPTIONAL asks about is estimated, so each BGP is
    ///   costed at most once.
    fn plan_order_rewrites(
        &mut self,
        plan: &mut Plan,
        want_rows: bool,
    ) -> (Vec<String>, Option<f64>) {
        match plan {
            Plan::Unit => (Vec::new(), want_rows.then_some(1.0)),
            Plan::Bgp {
                patterns,
                graph,
                filters,
            } => {
                let order = self.bgp_order(patterns, graph);
                let rows = want_rows.then(|| {
                    let uris = self.effective_graphs(graph);
                    self.greedy_order(&mut patterns.clone(), &uris, filters)
                        .card
                });
                (order, rows)
            }
            Plan::Join {
                left,
                right,
                merge_on,
            } => {
                let (left_order, _) = self.plan_order_rewrites(left, false);
                let (right_order, _) = self.plan_order_rewrites(right, false);
                *merge_on = merge_key(&left_order, &right_order);
                // Both join flavors emit pairs left-major (each left row in
                // input order, its matches in right-row order), so the
                // left input's order survives.
                (left_order, None)
            }
            // Each left row in input order, extended in place.
            Plan::BindLeftJoin {
                left,
                pattern,
                graph,
                ..
            } => {
                let (left_order, left_rows) = self.plan_order_rewrites(left, want_rows);
                let rows = left_rows.map(|rows| rows * self.fan_out(left, pattern, graph));
                (left_order, rows)
            }
            Plan::LeftJoin {
                left,
                right,
                merge_on,
            } => {
                // A one-pattern side may bind, which needs the left rows.
                let want_left = one_pattern(right).is_some();
                let (left_order, left_rows) = self.plan_order_rewrites(left, want_left);
                let (right_order, _) = self.plan_order_rewrites(right, false);
                let rows = if want_rows {
                    self.optional_rows(left, left_rows, right)
                } else {
                    None
                };
                if self.bind_key(left, right, &left_order, left_rows) {
                    if let Plan::Bgp {
                        patterns,
                        graph,
                        filters,
                    } = right.as_mut()
                    {
                        *plan = Plan::BindLeftJoin {
                            left: std::mem::replace(left, Box::new(Plan::Unit)),
                            pattern: Box::new(patterns.swap_remove(0)),
                            graph: std::mem::replace(graph, GraphRef::Default),
                            filters: std::mem::take(filters),
                        };
                        return (left_order, rows);
                    }
                }
                // Left-major emission; unmatched left rows stay in place —
                // which is exactly why a merge preserves OPTIONAL semantics:
                // it walks left rows in order and emits the no-match row at
                // the same position the hash join would.
                *merge_on = merge_key(&left_order, &right_order);
                (left_order, rows)
            }
            Plan::Union(a, b) => {
                self.plan_order_rewrites(a, false);
                self.plan_order_rewrites(b, false);
                // The boundary between the halves breaks sortedness.
                (Vec::new(), None)
            }
            // Dedup keeps first occurrences in input order, so the order
            // survives.
            Plan::Filter(_, p) | Plan::Distinct(p) => self.plan_order_rewrites(p, want_rows),
            Plan::Extend(var, _, p) => {
                let (mut order, rows) = self.plan_order_rewrites(p, want_rows);
                // Rebinding an order variable overwrites the sorted column.
                if let Some(i) = order.iter().position(|v| v == var) {
                    order.truncate(i);
                }
                (order, rows)
            }
            Plan::Project(vars, p) => {
                let (mut order, rows) = self.plan_order_rewrites(p, want_rows);
                // Only the prefix that survives projection stays meaningful.
                if let Some(i) = order.iter().position(|v| !vars.contains(v)) {
                    order.truncate(i);
                }
                (order, rows)
            }
            Plan::Slice { input, .. } => (self.plan_order_rewrites(input, false).0, None),
            Plan::Group { keys, input, .. } => {
                let (input_order, _) = self.plan_order_rewrites(input, false);
                // Groups are emitted in first-occurrence order. When the
                // keys are exactly a prefix of the input order, set-wise
                // (key order within the prefix is irrelevant, a repeated
                // key collapses), rows equal on the prefix are adjacent, and
                // first-occurrence order is ascending prefix order.
                let mut distinct: Vec<&String> = Vec::new();
                for k in keys.iter() {
                    if !distinct.contains(&k) {
                        distinct.push(k);
                    }
                }
                let n = distinct.len();
                let prefix = n > 0
                    && n <= input_order.len()
                    && distinct.iter().all(|k| input_order[..n].contains(k));
                let order = if prefix {
                    input_order[..n].to_vec()
                } else {
                    Vec::new()
                };
                (order, None)
            }
            // ORDER BY sorts by *term* order, which is not global-id order;
            // a bounded sort keeps `top` rows, which nothing estimates.
            Plan::OrderBy { top, input, .. } => {
                let rows = self.plan_order_rewrites(input, want_rows && top.is_none());
                (Vec::new(), rows.1)
            }
        }
    }

    /// Whether `LeftJoin(left, right)` may run as a bind left join, and
    /// is estimated cheaper so:
    ///
    /// - `right` is a one-pattern BGP that is no sharing class of the plan
    ///   (`share.rs`): a shared side is computed once and replayed, which a
    ///   per-row probe would undo.
    /// - The pattern's *key* — its variables `left` can bind — is non-empty
    ///   and bound in every left row ([`always_bound_vars`]). Its other
    ///   variables are then new: compatibility is key equality, which the
    ///   seek decides.
    /// - No pushed filter tests a key variable.
    /// - Binding keeps the hash join's row order: the order the probe's
    ///   slab yields the free positions in is the build slab's with the key
    ///   positions struck out (see the executor's bind level).
    /// - The estimated left rows times the pattern's matches per key
    ///   ([`GraphStats::estimate`]: `count / distinct_subjects` for a
    ///   subject key) is below the pattern's extent. When `left_order`, the
    ///   left side's order (pass 3), leads with a key variable, each key's
    ///   matches are read once however many rows carry it, so binding never
    ///   reads more than the extent. Otherwise a key can come back after
    ///   other keys and be read again, and the estimate must clear the
    ///   extent by [`BIND_MARGIN`].
    fn bind_key(
        &mut self,
        left: &Plan,
        right: &Plan,
        left_order: &[String],
        left_rows: Option<f64>,
    ) -> bool {
        let Plan::Bgp {
            patterns,
            graph,
            filters,
        } = right
        else {
            return false;
        };
        let [pattern] = patterns.as_slice() else {
            return false;
        };
        if self.shared_bgps.contains(right) {
            return false;
        }
        let keys = pattern_keys(left, pattern);
        let mut always = HashSet::new();
        always_bound_vars(left, &mut always);
        if keys.is_empty()
            || !keys.iter().all(|v| always.contains(v.as_str()))
            || filters.iter().any(|f| keys.contains(&f.var))
        {
            return false;
        }
        let terms = [&pattern.subject, &pattern.predicate, &pattern.object];
        let is_const = |t: &PatternTerm| matches!(t, PatternTerm::Const(_));
        let is_key = |t: &PatternTerm| t.as_var().is_some_and(|v| keys.contains(v));
        let build = rdf_model::TripleIndex::scan_free_order(
            is_const(terms[0]),
            is_const(terms[1]),
            is_const(terms[2]),
        );
        let probe = rdf_model::TripleIndex::scan_free_order(
            is_const(terms[0]) || is_key(terms[0]),
            is_const(terms[1]) || is_key(terms[1]),
            is_const(terms[2]) || is_key(terms[2]),
        );
        if !build.iter().filter(|&&pos| !is_key(terms[pos])).eq(probe) {
            return false;
        }
        let Some(rows) = left_rows else {
            return false;
        };
        let uris = self.effective_graphs(graph);
        let per_key = self.estimate_pattern(pattern, &keys, &uris);
        let extent = self.estimate_pattern(pattern, &HashSet::new(), &uris);
        let sorted = left_order.first().is_some_and(|v| keys.contains(v));
        let margin = if sorted { 1.0 } else { BIND_MARGIN };
        rows * per_key * margin < extent
    }

    /// The estimated rows of `LeftJoin(left, right)`, given `left_rows`:
    /// when `right` is one pattern, each left row times its
    /// [`Optimizer::fan_out`]; `None` otherwise.
    fn optional_rows(&mut self, left: &Plan, left_rows: Option<f64>, right: &Plan) -> Option<f64> {
        let (pattern, graph) = one_pattern(right)?;
        Some(left_rows? * self.fan_out(left, pattern, graph))
    }

    /// The rows an OPTIONAL of `pattern` makes of each row of `left`: the
    /// estimated matches per key, and at least the row itself.
    fn fan_out(&mut self, left: &Plan, pattern: &TriplePattern, graph: &GraphRef) -> f64 {
        let keys = pattern_keys(left, pattern);
        let uris = self.effective_graphs(graph);
        self.estimate_pattern(pattern, &keys, &uris).max(1.0)
    }

    /// The variable sequence a BGP's output is sorted by: the free-variable
    /// order of its *first* pattern's index scan. Subsequent patterns
    /// extend rows in ascending input-row order, so the first scan's order
    /// survives as the output's primary (prefix) order.
    ///
    /// Valid when the BGP scans a single graph: every graph's slabs are
    /// sorted by dataset id, the very ids stored in the output columns, so
    /// how the graph was built and its insertion order are irrelevant. The
    /// evaluator re-verifies sortedness at run time before committing to a
    /// merge, so this analysis only has to be precise, not paranoid.
    fn bgp_order(&mut self, patterns: &[TriplePattern], graph: &GraphRef) -> Vec<String> {
        if self.effective_graphs(graph).len() != 1 {
            return Vec::new(); // multi-graph scans interleave per row
        }
        let Some(first) = patterns.first() else {
            return Vec::new();
        };
        // A repeated variable (`?x ?p ?x`) filters the scan; the order
        // claim would still hold but the slot bookkeeping wouldn't, so bail.
        {
            let mut seen: Vec<&str> = Vec::new();
            for v in first.variables() {
                if seen.contains(&v) {
                    return Vec::new();
                }
                seen.push(v);
            }
        }
        // The store itself says which position order its chosen index
        // emits for this bound-ness shape (kept adjacent to
        // `TripleIndex::access_path` and property-tested there, so this
        // cannot silently drift from scan reality).
        let terms = [&first.subject, &first.predicate, &first.object];
        let bound = |t: &PatternTerm| matches!(t, PatternTerm::Const(_));
        rdf_model::TripleIndex::scan_free_order(bound(terms[0]), bound(terms[1]), bound(terms[2]))
            .iter()
            .filter_map(|&pos| terms[pos].as_var().map(str::to_string))
            .collect()
    }

    /// Plan one BGP: permute its patterns into the greedy left-deep order
    /// and, when the BGP is a *value join* of several subject stars that
    /// hash-joining would run at least [`BUSHY_MARGIN`]× cheaper, return
    /// the `Join(Bgp(c₁), Bgp(c₂), …)` that replaces it.
    ///
    /// The components come from [`value_join_components`]; each is ordered
    /// greedily on its own. The two shapes are compared in estimated index
    /// entries visited: the left-deep nested loop pays the running
    /// cardinality after every pattern (each intermediate row probes the
    /// next pattern), the bushy plan pays that per component plus each
    /// component's output once for the hash build/probe. The join's own
    /// output is the same either way and is left out. Both shapes are
    /// charged the BGP's pushed `filters` ([`Optimizer::greedy_order`]).
    fn plan_bgp(
        &mut self,
        patterns: &mut Vec<TriplePattern>,
        graph: &GraphRef,
        filters: &mut Vec<PushedFilter>,
    ) -> Option<Plan> {
        if patterns.len() <= 1 {
            return None;
        }
        let uris = self.effective_graphs(graph);
        let components = value_join_components(patterns);
        if components.len() < 2 {
            self.greedy_order(patterns, &uris, filters);
            return None;
        }
        let mut stars: Vec<Vec<TriplePattern>> = components
            .into_iter()
            .map(|members| members.into_iter().map(|i| patterns[i].clone()).collect())
            .collect();
        let left_deep = self.greedy_order(patterns, &uris, filters);
        let sized: Vec<BgpEstimate> = stars
            .iter_mut()
            .map(|star| self.greedy_order(star, &uris, filters))
            .collect();
        let bushy: f64 = sized.iter().map(|e| e.cost + e.card).sum();
        if left_deep.cost <= BUSHY_MARGIN * bushy {
            return None;
        }

        // Join order: the largest star leads — it streams through as the
        // probe side and is never materialized — then always the smallest
        // star sharing a variable with what is already joined, as the
        // build (right) side. A star that connects to nothing would be a
        // Cartesian product; that stays with the nested loop.
        let mut remaining: Vec<(Vec<TriplePattern>, f64)> = stars
            .into_iter()
            .zip(sized.iter().map(|e| e.card))
            .collect();
        let mut lead = 0;
        for (i, (_, card)) in remaining.iter().enumerate() {
            if *card > remaining[lead].1 {
                lead = i;
            }
        }
        let mut order = vec![remaining.remove(lead).0];
        while !remaining.is_empty() {
            let mut next: Option<usize> = None;
            for (i, (star, card)) in remaining.iter().enumerate() {
                let connected = star.iter().flat_map(|p| p.variables()).any(|v| {
                    let mut joined = order.iter().flatten().flat_map(|p| p.variables());
                    joined.any(|w| w == v)
                });
                if connected && next.is_none_or(|n| *card < remaining[n].1) {
                    next = Some(i);
                }
            }
            order.push(remaining.remove(next?).0);
        }

        // Each pushed filter follows the first star that binds its
        // variable, so it still fires at the first pattern binding it.
        let mut pending = std::mem::take(filters);
        let mut plan: Option<Plan> = None;
        for star in order {
            let (mine, rest) = pending
                .into_iter()
                .partition(|f| star.iter().any(|p| p.variables().any(|v| v == f.var)));
            pending = rest;
            let bgp = Plan::Bgp {
                patterns: star,
                graph: graph.clone(),
                filters: mine,
            };
            plan = Some(match plan {
                None => bgp,
                Some(left) => Plan::Join {
                    left: Box::new(left),
                    right: Box::new(bgp),
                    merge_on: None,
                },
            });
        }
        plan
    }

    /// Greedy reorder in place: repeatedly pick the cheapest pattern given
    /// variables bound so far, heavily penalizing Cartesian products.
    /// Returns what the order is estimated to cost.
    ///
    /// A candidate that *first* binds the variable of one of `filters` has
    /// its matches scaled by that conjunct's selectivity: the evaluators
    /// test a pushed filter at exactly that pattern
    /// ([`crate::algebra::attach_filters`]), so the rows it rejects never
    /// reach the patterns after it.
    fn greedy_order(
        &mut self,
        patterns: &mut Vec<TriplePattern>,
        uris: &[String],
        filters: &[PushedFilter],
    ) -> BgpEstimate {
        let mut remaining: Vec<TriplePattern> = std::mem::take(patterns);
        // Per pattern, the selectivity of each filter on a variable it
        // mentions, charged while that variable is still unbound.
        let mut charges: Vec<Vec<(&str, f64)>> = (remaining.iter())
            .map(|pat| {
                (filters.iter())
                    .filter(|f| pat.variables().any(|v| v == f.var))
                    .map(|f| (f.var.as_str(), self.filter_selectivity(pat, f, uris)))
                    .collect()
            })
            .collect();
        let mut bound: HashSet<String> = HashSet::new();
        let mut estimate = BgpEstimate {
            cost: 0.0,
            card: 1.0,
        };
        while !remaining.is_empty() {
            let mut best_idx = 0;
            let mut best_cost = f64::INFINITY;
            let mut best_matches = 0.0;
            for (i, pat) in remaining.iter().enumerate() {
                let unbound = charges[i].iter().filter(|(v, _)| !bound.contains(*v));
                let selectivity: f64 = unbound.map(|(_, s)| s).product();
                let matches = self.estimate_pattern(pat, &bound, uris) * selectivity;
                let mut cost = matches;
                let connected = bound.is_empty() || pat.variables().any(|v| bound.contains(v));
                if !connected {
                    // Disconnected pattern → Cartesian product. Defer.
                    cost = cost * 1e6 + 1e6;
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_idx = i;
                    best_matches = matches;
                }
            }
            let chosen = remaining.swap_remove(best_idx);
            charges.swap_remove(best_idx);
            for v in chosen.variables() {
                bound.insert(v.to_string());
            }
            patterns.push(chosen);
            estimate.card *= best_matches;
            estimate.cost += estimate.card;
        }
        estimate
    }
}

/// How many times cheaper (in estimated index entries visited) the bushy
/// plan must be before [`Optimizer::plan_bgp`] splits a BGP. A constant on
/// purpose, not a knob: the estimates rest on uniformity assumptions that
/// are easily off by a small factor, and a wrongly split selective BGP
/// scans a whole star where the nested loop would have probed a few rows,
/// so near-ties stay left-deep.
const BUSHY_MARGIN: f64 = 2.0;

/// How many times below the extent [`Optimizer::bind_key`] wants the
/// estimated probes of an OPTIONAL whose left side is not sorted on the key.
/// There a key can recur after other keys and be read again, and a star's
/// estimated rows are a product of per-pattern selectivities that can fall
/// well short: Q1's basketball-player star at scale 64 is estimated at 1.5
/// rows and has 10, over a handful of teams, so binding its team attributes
/// would read each team's entries several times where the hash join reads
/// the 2–3 entry extents once. A constant on purpose, like [`BUSHY_MARGIN`].
const BIND_MARGIN: f64 = 4.0;

/// The share of rows [`Optimizer::greedy_order`] assumes a pushed filter
/// keeps when the store cannot count it exactly: a literal constant (SPARQL
/// `=` on literals is value equality, which no id probe answers), a range,
/// `regex`, a `str` test. A constant on purpose, not a knob, like
/// [`BUSHY_MARGIN`]: it only has to rank a filtered pattern below an equally
/// large unfiltered one. A factor of 0.1 charged to every filter, exact
/// shapes included, made Q15 read 159 → 209 index entries at scale 64.
const DEFAULT_FILTER_SELECTIVITY: f64 = 0.5;

/// The constants of an `=` / `!=` / `IN` / `NOT IN` test of one variable
/// against non-literal constants only — the shapes whose filtered matches
/// the store counts exactly, since `=` on them is term identity — each
/// once, with `true` for the negated forms.
fn id_membership(expr: &Expr) -> Option<(Vec<&Term>, bool)> {
    if let Some((_, constant, negated)) = id_equality_shape(expr) {
        return Some((vec![constant], negated));
    }
    let Expr::In {
        expr,
        list,
        negated,
    } = expr
    else {
        return None;
    };
    if !matches!(**expr, Expr::Var(_)) {
        return None;
    }
    let mut constants: Vec<&Term> = Vec::new();
    for item in list {
        match item {
            Expr::Const(c) if !c.is_literal() => {
                if !constants.contains(&c) {
                    constants.push(c);
                }
            }
            _ => return None,
        }
    }
    Some((constants, *negated))
}

/// Estimated work of one BGP in a fixed pattern order.
struct BgpEstimate {
    /// Index entries visited: the running cardinality summed over patterns.
    cost: f64,
    /// Output rows.
    card: f64,
}

/// Partition a BGP's patterns (by index, each part ascending, parts in
/// first-pattern order) into the components connected through *entity
/// variables* — variables in subject position somewhere in the BGP. What is
/// left connecting two components is a *value variable* (object- or
/// predicate-only, like a shared `?genre`): no index leads from one
/// component's entities to the other's, only equality of values does.
fn value_join_components(patterns: &[TriplePattern]) -> Vec<Vec<usize>> {
    let entities: HashSet<&str> = patterns.iter().filter_map(|p| p.subject.as_var()).collect();
    // component[i] = smallest pattern index in i's component.
    let mut component: Vec<usize> = (0..patterns.len()).collect();
    for i in 0..patterns.len() {
        for j in 0..i {
            let linked = patterns[i]
                .variables()
                .any(|v| entities.contains(v) && patterns[j].variables().any(|w| w == v));
            if linked && component[i] != component[j] {
                let keep = component[i].min(component[j]);
                let merge = component[i].max(component[j]);
                for c in component.iter_mut().filter(|c| **c == merge) {
                    *c = keep;
                }
            }
        }
    }
    let mut parts: Vec<Vec<usize>> = Vec::new();
    let mut part_of = vec![0; patterns.len()];
    for (i, &first) in component.iter().enumerate() {
        if first == i {
            part_of[i] = parts.len();
            parts.push(vec![i]);
        } else {
            parts[part_of[first]].push(i);
        }
    }
    parts
}

/// Second half of pass 1: sink an OPTIONAL below the inner join it sits on,
/// `LeftJoin(Join(A, B), C)` → `Join(LeftJoin(A, C), B)` (or the mirror
/// image onto `B`), so the optional side is probed once per row of the
/// input it extends rather than once per row of the join's fan-out.
///
/// Legal when `C` touches only one join input: none of `C`'s variables
/// occurs in the other input, and every variable it shares with its host is
/// bound in every host row (it comes from a BGP on the host's required
/// spine, not from an OPTIONAL or UNION). Then the rows of `C` compatible
/// with a joined row are exactly those compatible with its host half, and
/// both shapes produce the same bag.
fn sink_optional(plan: &mut Plan) {
    let Plan::LeftJoin {
        left: join,
        right: optional,
        ..
    } = plan
    else {
        return;
    };
    let Plan::Join {
        left: a, right: b, ..
    } = join.as_mut()
    else {
        return;
    };
    let mut vars = HashSet::new();
    output_vars(optional, &mut vars);
    let host = if optional_attaches(&vars, a, b) {
        a
    } else if optional_attaches(&vars, b, a) {
        b
    } else {
        return;
    };
    // The host's slot in the join becomes `LeftJoin(host, C)`, and the
    // join takes the left join's place.
    let optional = std::mem::replace(optional, Box::new(Plan::Unit));
    let extended = std::mem::replace(host, Box::new(Plan::Unit));
    **host = Plan::LeftJoin {
        left: extended,
        right: optional,
        merge_on: None,
    };
    // The host may itself be a join (three stars): keep sinking.
    sink_optional(host);
    let join = std::mem::replace(join.as_mut(), Plan::Unit);
    *plan = join;
}

/// The legality rule of [`sink_optional`] for moving an OPTIONAL with
/// output schema `vars` onto `host`.
fn optional_attaches(vars: &HashSet<&str>, host: &Plan, other: &Plan) -> bool {
    let mut other_vars = HashSet::new();
    output_vars(other, &mut other_vars);
    if !vars.is_disjoint(&other_vars) {
        return false;
    }
    let (mut host_vars, mut host_bound) = (HashSet::new(), HashSet::new());
    output_vars(host, &mut host_vars);
    always_bound_vars(host, &mut host_bound);
    let mut shared = vars.intersection(&host_vars).peekable();
    shared.peek().is_some() && shared.all(|v| host_bound.contains(v))
}

/// Collect, by value, each BGP of `plan` that `shared` makes a sharing
/// class. By value because `shared` names only the occurrences it visits: one
/// inside a repeat of a larger class is not among them, yet it must be
/// planned as the occurrence it equals, or the two copies of the larger
/// class would differ and stop being shared.
fn shared_bgps(plan: &Plan, shared: &Shared, out: &mut Vec<Plan>) {
    if matches!(plan, Plan::Bgp { .. }) && shared.class(plan).is_some() && !out.contains(plan) {
        out.push(plan.clone());
    }
    for child in plan.children() {
        shared_bgps(child, shared, out);
    }
}

/// The pattern and graph of `plan` when it is a BGP of one pattern: an
/// OPTIONAL side that may bind, and whose fan-out pass 3 estimates.
fn one_pattern(plan: &Plan) -> Option<(&TriplePattern, &GraphRef)> {
    match plan {
        Plan::Bgp {
            patterns, graph, ..
        } => match patterns.as_slice() {
            [pattern] => Some((pattern, graph)),
            _ => None,
        },
        _ => None,
    }
}

/// The key a merge join of inputs sorted on `left` and `right` runs on:
/// their shared leading variable.
fn merge_key(left: &[String], right: &[String]) -> Option<String> {
    match (left.first(), right.first()) {
        (Some(l), Some(r)) if l == r => Some(l.clone()),
        _ => None,
    }
}

/// The key of an OPTIONAL of `pattern` on `left`: the pattern's variables
/// that `left` can bind.
fn pattern_keys(left: &Plan, pattern: &TriplePattern) -> HashSet<String> {
    let mut left_vars = HashSet::new();
    output_vars(left, &mut left_vars);
    (pattern.variables())
        .filter(|v| left_vars.contains(v))
        .map(str::to_string)
        .collect()
}

/// The output schema of `plan`, as a set: what its inputs output, plus
/// what the node binds itself — except that a GROUP BY or a projection
/// outputs its own columns alone.
fn output_vars<'p>(plan: &'p Plan, out: &mut HashSet<&'p str>) {
    match plan {
        Plan::Bgp { patterns, .. } => out.extend(patterns.iter().flat_map(|p| p.variables())),
        Plan::BindLeftJoin { pattern, .. } => out.extend(pattern.variables()),
        Plan::Extend(var, ..) => {
            out.insert(var);
        }
        Plan::Group { keys, aggs, .. } => {
            out.extend(keys.iter().map(String::as_str));
            return out.extend(aggs.iter().map(|a| a.output.as_str()));
        }
        Plan::Project(vars, _) => return out.extend(vars.iter().map(String::as_str)),
        _ => {}
    }
    for child in plan.children() {
        output_vars(child, out);
    }
}

/// Variables bound in every output row of `plan` because a BGP pattern on
/// its required spine binds them. Deliberately shallow: anything but BGPs,
/// inner joins, the preserved side of left joins and filters claims nothing.
fn always_bound_vars<'p>(plan: &'p Plan, out: &mut HashSet<&'p str>) {
    match plan {
        Plan::Bgp { patterns, .. } => out.extend(patterns.iter().flat_map(|p| p.variables())),
        Plan::Join { left, right, .. } => {
            always_bound_vars(left, out);
            always_bound_vars(right, out);
        }
        Plan::LeftJoin { left: a, .. }
        | Plan::BindLeftJoin { left: a, .. }
        | Plan::Filter(_, a) => always_bound_vars(a, out),
        _ => {}
    }
}

/// Pass 1: split conjunctive FILTERs and sink single-variable conjuncts
/// into the BGP that binds their variable. Conjuncts that find no home (or
/// reference several variables, or contain aggregates) stay in a residual
/// `Filter`; a fully-absorbed filter node disappears.
fn push_filters(plan: &mut Plan) {
    for child in plan.children_mut() {
        push_filters(child);
    }
    let Plan::Filter(expr, input) = plan else {
        return;
    };
    let mut conjuncts = Vec::new();
    split_and(expr, &mut conjuncts);
    let total = conjuncts.len();
    let mut residual: Vec<Expr> = Vec::new();
    for conjunct in conjuncts {
        let pushed =
            single_filter_var(&conjunct).is_some_and(|var| try_push(input, &var, &conjunct));
        if !pushed {
            residual.push(conjunct);
        }
    }
    if residual.is_empty() {
        // Every conjunct was absorbed: the filter node dissolves.
        let input = std::mem::replace(input.as_mut(), Plan::Unit);
        *plan = input;
    } else if residual.len() < total {
        *expr = rejoin_and(residual);
    }
    // else: nothing moved, leave the expression tree untouched.
}

/// Flatten an `&&` tree into its conjuncts (source order preserved).
fn split_and(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::And(a, b) => {
            split_and(a, out);
            split_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Rebuild a conjunction from its parts (left-leaning, like the parser).
fn rejoin_and(mut parts: Vec<Expr>) -> Expr {
    let first = parts.remove(0);
    parts
        .into_iter()
        .fold(first, |acc, e| Expr::And(Box::new(acc), Box::new(e)))
}

/// Sink one single-variable conjunct towards a BGP that binds `var`.
///
/// Descent is restricted to positions where "filter above" and "filter
/// inside" provably coincide: both sides of an inner join (a BGP that
/// mentions `var` binds it in every row, so filtering that side filters the
/// join), the *left* input of a left join (filtering the right side would
/// resurrect rows the filter should have killed as unbound), other filters,
/// and extends that do not rebind `var`. Everything else — unions, slices,
/// grouping, sorting — blocks the descent.
fn try_push(plan: &mut Plan, var: &str, conjunct: &Expr) -> bool {
    match plan {
        Plan::Bgp {
            patterns, filters, ..
        } if patterns.iter().any(|p| p.variables().any(|v| v == var)) => {
            filters.push(PushedFilter {
                var: var.to_string(),
                expr: conjunct.clone(),
            });
            true
        }
        Plan::Bgp { .. } => false,
        Plan::Join { left, right, .. } => {
            try_push(left, var, conjunct) || try_push(right, var, conjunct)
        }
        // Left joins (merge, hash or bind): *left* side only — an absorbed
        // filter on the optional side would resurrect rows it should kill.
        Plan::LeftJoin { left: a, .. } | Plan::BindLeftJoin { left: a, .. } => {
            try_push(a, var, conjunct)
        }
        Plan::Filter(_, p) => try_push(p, var, conjunct),
        Plan::Extend(bound, _, p) if bound != var => try_push(p, var, conjunct),
        _ => false,
    }
}

/// Bound the `OrderBy` under `Slice { limit } ∘ [Project…]` to its first
/// `top = limit + offset` rows: only those are ever observable through the
/// slice, so the evaluator can select top-k instead of fully sorting. The
/// rewrite looks through `Project` (order- and cardinality-preserving) but
/// deliberately **not** through `Distinct`, which must deduplicate *before*
/// the cut.
fn fuse_order_by_limit(node: &mut Plan, k: usize) {
    match node {
        Plan::Project(_, inner) => fuse_order_by_limit(inner, k),
        Plan::OrderBy { top, .. } => *top = Some(k),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use rdf_model::{Graph, Term, Triple};

    fn iri(s: &str) -> Term {
        Term::iri(s.to_string())
    }

    fn build_dataset() -> Dataset {
        let mut g = Graph::new();
        // Common predicate: 1000 label triples; rare predicate: 2 award triples.
        for i in 0..1000 {
            g.insert(&Triple::new(
                iri(&format!("http://x/e{i}")),
                iri("http://x/label"),
                Term::string(format!("entity {i}")),
            ));
        }
        for i in 0..2 {
            g.insert(&Triple::new(
                iri(&format!("http://x/e{i}")),
                iri("http://x/award"),
                iri("http://x/oscar"),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        ds
    }

    fn var(v: &str) -> PatternTerm {
        PatternTerm::Var(v.to_string())
    }

    fn join(left: Plan, right: Plan) -> Plan {
        Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            merge_on: None,
        }
    }

    fn left_join(left: Plan, right: Plan) -> Plan {
        Plan::LeftJoin {
            left: Box::new(left),
            right: Box::new(right),
            merge_on: None,
        }
    }

    fn order_by(keys: Vec<crate::ast::OrderKey>, input: Plan) -> Plan {
        Plan::OrderBy {
            keys,
            top: None,
            input: Box::new(input),
        }
    }

    fn konst(s: &str) -> PatternTerm {
        PatternTerm::Const(iri(s))
    }

    #[test]
    fn selective_pattern_moves_first() {
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let mut patterns = vec![
            TriplePattern::new(var("e"), konst("http://x/label"), var("l")),
            TriplePattern::new(var("e"), konst("http://x/award"), var("a")),
        ];
        let split = opt.plan_bgp(&mut patterns, &GraphRef::Default, &mut Vec::new());
        assert!(split.is_none());
        // The rare award pattern should be evaluated first.
        assert_eq!(patterns[0].predicate, konst("http://x/award"));
    }

    #[test]
    fn disconnected_patterns_deferred() {
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let mut patterns = vec![
            TriplePattern::new(var("x"), konst("http://x/label"), var("l")),
            // Unrelated to ?x/?l; even though award is rarer, keeping the
            // join connected matters more once the first pick is made.
            TriplePattern::new(var("y"), konst("http://x/award"), var("a")),
            TriplePattern::new(var("x"), konst("http://x/award"), var("a2")),
        ];
        let split = opt.plan_bgp(&mut patterns, &GraphRef::Default, &mut Vec::new());
        assert!(split.is_none());
        // The two rare award patterns come first; the big label scan is
        // deferred to last, where it joins on an already-bound ?x.
        assert_eq!(
            patterns[2].predicate,
            konst("http://x/label"),
            "order was {patterns:?}"
        );
    }

    #[test]
    fn slice_over_order_by_fuses_to_top_k() {
        use crate::ast::{Expr, OrderKey};
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let bgp = Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst("http://x/label"),
                var("l"),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let keys = vec![OrderKey {
            expr: Expr::Var("l".into()),
            ascending: true,
        }];
        // Slice(limit 2, offset 1) ∘ Project ∘ OrderBy → OrderBy with
        // top = 3.
        let mut plan = Plan::Slice {
            limit: Some(2),
            offset: 1,
            input: Box::new(Plan::Project(
                vec!["l".into()],
                Box::new(order_by(keys.clone(), bgp.clone())),
            )),
        };
        opt.optimize(&mut plan);
        let Plan::Slice { input, .. } = &plan else {
            panic!("slice survives: {plan:?}")
        };
        let Plan::Project(_, inner) = &**input else {
            panic!("project survives: {input:?}")
        };
        assert!(
            matches!(&**inner, Plan::OrderBy { top: Some(3), .. }),
            "expected a top-3 sort, got {inner:?}"
        );

        // Distinct between Slice and OrderBy blocks the fusion: the cut
        // must apply to deduplicated rows.
        let mut plan = Plan::Slice {
            limit: Some(2),
            offset: 0,
            input: Box::new(Plan::Distinct(Box::new(order_by(keys, bgp)))),
        };
        opt.optimize(&mut plan);
        let Plan::Slice { input, .. } = &plan else {
            panic!("slice survives: {plan:?}")
        };
        assert!(
            matches!(&**input, Plan::Distinct(inner) if matches!(&**inner, Plan::OrderBy { top: None, .. })),
            "distinct must not fuse: {input:?}"
        );
    }

    #[test]
    fn conjunctive_filter_splits_and_sinks_into_binding_bgp() {
        use crate::ast::{CmpOp, Expr};
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let bgp = Plan::Bgp {
            patterns: vec![
                TriplePattern::new(var("e"), konst("http://x/label"), var("l")),
                TriplePattern::new(var("e"), konst("http://x/award"), var("a")),
            ],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        // ( ?a = <oscar> && ?l < ?a ): first conjunct is single-var and
        // sinks; the second references two vars and must stay behind.
        let pushable = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Const(iri("http://x/oscar"))),
        );
        let residual_expr = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Var("l".into())),
            Box::new(Expr::Var("a".into())),
        );
        let mut plan = Plan::Filter(
            Expr::And(Box::new(pushable.clone()), Box::new(residual_expr.clone())),
            Box::new(bgp),
        );
        opt.optimize(&mut plan);
        let Plan::Filter(expr, input) = &plan else {
            panic!("residual filter survives: {plan:?}")
        };
        assert_eq!(expr, &residual_expr);
        let Plan::Bgp { filters, .. } = &**input else {
            panic!("bgp survives: {input:?}")
        };
        assert_eq!(filters.len(), 1);
        assert_eq!(filters[0].var, "a");
        assert_eq!(filters[0].expr, pushable);

        // A fully-absorbed filter node dissolves.
        let mut plan = Plan::Filter(
            pushable.clone(),
            Box::new(Plan::Bgp {
                patterns: vec![TriplePattern::new(
                    var("e"),
                    konst("http://x/award"),
                    var("a"),
                )],
                graph: GraphRef::Default,
                filters: Vec::new(),
            }),
        );
        opt.optimize(&mut plan);
        assert!(
            matches!(&plan, Plan::Bgp { filters, .. } if filters.len() == 1),
            "filter node should dissolve into the BGP: {plan:?}"
        );
    }

    #[test]
    fn filter_does_not_sink_into_left_join_right_side() {
        use crate::ast::{CmpOp, Expr};
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let left = Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst("http://x/label"),
                var("l"),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let right = Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst("http://x/award"),
                var("a"),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        // ?a is bound only by the OPTIONAL side: pushing would let
        // unmatched left rows (unbound ?a) survive a filter that must
        // reject them. The conjunct has to stay above the left join.
        let cond = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Const(iri("http://x/oscar"))),
        );
        let mut plan = Plan::Filter(cond.clone(), Box::new(left_join(left, right)));
        opt.optimize(&mut plan);
        let Plan::Filter(expr, input) = &plan else {
            panic!("filter must stay above the left join: {plan:?}")
        };
        assert_eq!(expr, &cond);
        assert!(matches!(&**input, Plan::LeftJoin { merge_on: None, .. }));
    }

    #[test]
    fn sorted_star_join_rewrites_to_merge_join() {
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        // Both sides: (?e <p> <o>) shapes — POS with (p, o) bound scans in
        // subject order — by dataset id, the ids the outputs carry — so both
        // outputs are sorted on ?e.
        let side = |p: &str, o: &str, v: &str| Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst(p),
                PatternTerm::Const(iri(o)),
            )]
            .into_iter()
            .chain(std::iter::once(TriplePattern::new(
                var("e"),
                konst("http://x/label"),
                var(v),
            )))
            .collect(),
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = join(
            side("http://x/award", "http://x/oscar", "l1"),
            side("http://x/inCountry", "http://x/usa", "l2"),
        );
        let before = plan.clone();
        opt.optimize(&mut plan);
        match &plan {
            Plan::Join {
                merge_on: Some(key),
                ..
            } => assert_eq!(key, "e"),
            other => panic!("expected merge join, got {other:?}\nfrom {before:?}"),
        }

        // Leading order vars differ (object-bound vs subject-bound shape):
        // no rewrite.
        let unsorted_side = Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst("http://x/label"),
                var("l3"),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = join(
            side("http://x/award", "http://x/oscar", "l1"),
            unsorted_side,
        );
        opt.optimize(&mut plan);
        assert!(
            matches!(&plan, Plan::Join { merge_on: None, .. }),
            "object-leading order must not merge on ?e: {plan:?}"
        );
    }

    /// 200 films, each typed, with one of 4 genres, one of 3 countries and
    /// two actors; every other film has a director, and film 7 alone
    /// carries the label "X".
    fn film_dataset() -> Dataset {
        let mut g = Graph::new();
        for i in 0..200 {
            let film = iri(&format!("http://x/film{i}"));
            let mut add = |p: &str, o: Term| {
                g.insert(&Triple::new(film.clone(), iri(&format!("http://x/{p}")), o));
            };
            add("type", iri("http://x/Film"));
            add("genre", iri(&format!("http://x/genre{}", i % 4)));
            add("country", iri(&format!("http://x/country{}", i % 3)));
            add("starring", iri(&format!("http://x/actor{}", i % 50)));
            add("starring", iri(&format!("http://x/actor{}", 50 + i % 70)));
            if i % 2 == 0 {
                add("director", iri(&format!("http://x/director{}", i % 20)));
            }
            if i == 7 {
                add("label", Term::string("X"));
            }
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        ds
    }

    fn tp(s: &str, p: &str, o: PatternTerm) -> TriplePattern {
        TriplePattern::new(var(s), konst(&format!("http://x/{p}")), o)
    }

    fn bgp(patterns: Vec<TriplePattern>) -> Plan {
        Plan::Bgp {
            patterns,
            graph: GraphRef::Default,
            filters: Vec::new(),
        }
    }

    /// One side of the Q9 shape: a film star binding the value variables
    /// `?genre` and `?country`.
    fn film_star(film: &str, actor: &str) -> Vec<TriplePattern> {
        vec![
            tp(film, "type", konst("http://x/Film")),
            tp(film, "genre", var("genre")),
            tp(film, "country", var("country")),
            tp(film, "starring", var(actor)),
        ]
    }

    fn bgp_vars(plan: &Plan) -> HashSet<&str> {
        let Plan::Bgp { patterns, .. } = plan else {
            panic!("expected a BGP, got {plan:?}")
        };
        patterns.iter().flat_map(|p| p.variables()).collect()
    }

    #[test]
    fn value_join_of_two_stars_splits_into_hash_joined_bgps() {
        let ds = film_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut patterns = film_star("film1", "actor1");
        patterns.extend(film_star("film2", "actor2"));
        let mut plan = bgp(patterns);
        Optimizer::new(&ds, &graphs).optimize(&mut plan);
        let Plan::Join { left, right, .. } = &plan else {
            panic!("expected a join of two stars, got {plan:?}")
        };
        // Each child holds exactly one film's patterns; the stars touch
        // only through the value variables, which become the hash key.
        let (l, r) = (bgp_vars(left), bgp_vars(right));
        assert_eq!(l, HashSet::from(["film1", "genre", "country", "actor1"]));
        assert_eq!(r, HashSet::from(["film2", "genre", "country", "actor2"]));
        let keys: HashSet<&str> = l.intersection(&r).copied().collect();
        assert_eq!(keys, HashSet::from(["genre", "country"]));
        for side in [left, right] {
            assert!(matches!(&**side, Plan::Bgp { patterns, .. } if patterns.len() == 4));
        }
    }

    #[test]
    fn stars_chains_and_selective_value_joins_stay_left_deep() {
        let ds = film_dataset();
        let graphs = vec!["http://g".to_string()];
        let stays_one_bgp = |patterns: Vec<TriplePattern>, why: &str| {
            let n = patterns.len();
            let mut plan = bgp(patterns);
            Optimizer::new(&ds, &graphs).optimize(&mut plan);
            assert!(
                matches!(&plan, Plan::Bgp { patterns, .. } if patterns.len() == n),
                "{why}: {plan:?}"
            );
        };
        stays_one_bgp(film_star("film", "actor"), "a star is one component");
        stays_one_bgp(
            vec![tp("film", "genre", var("genre"))],
            "a single pattern has nothing to split",
        );
        // cs1's `movies` shape: ?actor links the two patterns as an entity
        // (it is somebody's subject), so the nested loop follows an index.
        stays_one_bgp(
            vec![
                tp("film", "starring", var("actor")),
                tp("actor", "birthPlace", var("place")),
                tp("film", "type", konst("http://x/Film")),
            ],
            "a chain through an entity variable is one component",
        );
        // Two stars sharing ?g, but one of them is a single labelled film:
        // the nested loop probes ~50 films of its genre, the bushy plan
        // would scan every film. The cost guard must refuse.
        stays_one_bgp(
            vec![
                tp("b", "label", PatternTerm::Const(Term::string("X"))),
                tp("b", "genre", var("g")),
                tp("a", "genre", var("g")),
                tp("a", "type", konst("http://x/Film")),
            ],
            "a selective value join is cheaper left-deep",
        );
        // Stars sharing no variable at all are a Cartesian product, not a
        // value join: nothing to hash on.
        let mut cross = film_star("film1", "actor1");
        cross.push(tp("other", "label", var("l")));
        stays_one_bgp(cross, "disconnected components stay a nested loop");
    }

    #[test]
    fn optionals_sink_below_the_value_join_onto_their_star() {
        let ds = film_dataset();
        let graphs = vec!["http://g".to_string()];
        let director = |film: &str, d: &str| bgp(vec![tp(film, "director", var(d))]);
        let mut patterns = film_star("film1", "actor1");
        patterns.extend(film_star("film2", "actor2"));
        // The Q9 plan: both OPTIONALs on top of the flattened BGP.
        let mut plan = left_join(
            left_join(bgp(patterns), director("film1", "director1")),
            director("film2", "director2"),
        );
        Optimizer::new(&ds, &graphs).optimize(&mut plan);
        let Plan::Join { left, right, .. } = &plan else {
            panic!("expected the join on top, got {plan:?}")
        };
        for (side, film, d) in [(left, "film1", "director1"), (right, "film2", "director2")] {
            let Plan::LeftJoin {
                left: star,
                right: optional,
                ..
            } = &**side
            else {
                panic!("expected an OPTIONAL per star, got {side:?}")
            };
            assert!(bgp_vars(star).contains(film), "{side:?}");
            assert_eq!(bgp_vars(optional), HashSet::from([film, d]));
        }
    }

    /// Q13's shape over the film dataset: a selective film star sorted on
    /// `?m` (34 rows) and three OPTIONALs on `?m`, each over an extent of
    /// 100 to 400 entries.
    fn selective_star() -> Plan {
        bgp(vec![
            tp("m", "type", konst("http://x/Film")),
            tp("m", "genre", konst("http://x/genre0")),
            tp("m", "country", konst("http://x/country0")),
            tp("m", "starring", var("a")),
        ])
    }

    fn optimized(plan: Plan) -> Plan {
        let ds = film_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut plan = plan;
        Optimizer::new(&ds, &graphs).optimize(&mut plan);
        plan
    }

    #[test]
    fn optionals_on_a_selective_star_bind() {
        let mut plan = selective_star();
        for (p, v) in [("director", "d"), ("genre", "g"), ("starring", "s")] {
            plan = left_join(plan, bgp(vec![tp("m", p, var(v))]));
        }
        let plan = optimized(plan);
        let sse = plan.to_sse();
        assert!(sse.starts_with("(bindleftjoin"), "{sse}");
        assert!(sse.contains("(triple ?m <http://x/director> ?d)"), "{sse}");
        let mut node = &plan;
        for p in ["starring", "genre", "director"] {
            let Plan::BindLeftJoin { left, pattern, .. } = node else {
                panic!("expected a bind left join on {p}, got {node:?}");
            };
            assert_eq!(pattern.predicate, konst(&format!("http://x/{p}")));
            node = left;
        }
        assert!(matches!(node, Plan::Bgp { .. }), "{node:?}");
    }

    #[test]
    fn bind_left_join_is_refused_where_it_could_change_the_rows_or_the_work() {
        let bound = |plan: &Plan| matches!(plan, Plan::BindLeftJoin { .. });
        let director = || bgp(vec![tp("m", "director", var("d"))]);
        let with_director = || left_join(selective_star(), director());

        // The key `?d` is bound only where the director OPTIONAL matched.
        let plan = optimized(left_join(
            with_director(),
            bgp(vec![tp("d", "label", var("l"))]),
        ));
        assert!(!bound(&plan), "maybe-unbound key: {plan:?}");

        // `?m` is always bound, but the left side may bind `?d` too.
        let country = |v: &str| bgp(vec![tp("m", "country", var(v))]);
        let plan = optimized(left_join(with_director(), country("c")));
        assert!(bound(&plan), "fresh variable: {plan:?}");
        let plan = optimized(left_join(with_director(), country("d")));
        assert!(!bound(&plan), "variable bound on the left: {plan:?}");

        // The optional side is also read elsewhere in the plan: it stays
        // one shared evaluation.
        let plan = optimized(Plan::Union(Box::new(with_director()), Box::new(director())));
        let Plan::Union(left, _) = &plan else {
            panic!("{plan:?}");
        };
        assert!(!bound(left), "shared side: {plan:?}");
        assert!(bound(&optimized(with_director())), "unshared side");
        // Twice more, inside a repeated subtree, whose second copy the
        // sharing classes do not visit: both copies stay alike.
        let twice = Plan::Union(Box::new(with_director()), Box::new(with_director()));
        let plan = optimized(Plan::Union(Box::new(twice), Box::new(director())));
        let Plan::Union(twice, _) = &plan else {
            panic!("{plan:?}");
        };
        let Plan::Union(first, second) = twice.as_ref() else {
            panic!("{plan:?}");
        };
        assert!(
            !bound(first) && !bound(second),
            "repeated shared side: {plan:?}"
        );

        // Two patterns on the optional side.
        let plan = optimized(left_join(
            selective_star(),
            bgp(vec![
                tp("m", "director", var("d")),
                tp("m", "genre", var("g")),
            ]),
        ));
        assert!(!bound(&plan), "two-pattern side: {plan:?}");
    }

    #[test]
    fn optional_sinking_is_refused_when_it_could_change_the_result() {
        let a = || bgp(film_star("film1", "actor1"));
        let b = || bgp(film_star("film2", "actor2"));
        let refused = |mut plan: Plan, why: &str| {
            let before = plan.clone();
            sink_optional(&mut plan);
            assert_eq!(plan, before, "{why}");
        };
        // C mentions variables of both join inputs.
        refused(
            left_join(
                join(a(), b()),
                bgp(vec![tp("film1", "remakeOf", var("film2"))]),
            ),
            "an OPTIONAL spanning both sides must stay above the join",
        );
        // C introduces ?actor2, which B also binds: below the join it
        // would be matched against A alone.
        refused(
            left_join(
                join(a(), b()),
                bgp(vec![tp("film1", "starring", var("actor2"))]),
            ),
            "a variable shared with the other side blocks the sink",
        );
        // The variable C shares with its host comes from an OPTIONAL
        // (possibly unbound in A's rows).
        let host_with_optional =
            left_join(a(), bgp(vec![tp("film1", "director", var("director1"))]));
        refused(
            left_join(
                join(host_with_optional, b()),
                bgp(vec![tp("director1", "birthPlace", var("place"))]),
            ),
            "a possibly-unbound shared variable blocks the sink",
        );
        // … or from a UNION.
        let host_union = Plan::Union(Box::new(a()), Box::new(a()));
        refused(
            left_join(
                join(host_union, b()),
                bgp(vec![tp("film1", "director", var("director1"))]),
            ),
            "a UNION host proves nothing bound",
        );
        // The legal case, for contrast — onto the right input this time.
        let mut plan = left_join(
            join(a(), b()),
            bgp(vec![tp("film2", "director", var("director2"))]),
        );
        sink_optional(&mut plan);
        assert!(
            matches!(&plan, Plan::Join { left, right, .. }
                if matches!(&**left, Plan::Bgp { .. }) && matches!(&**right, Plan::LeftJoin { .. })),
            "{plan:?}"
        );
    }

    #[test]
    fn estimates_resolve_the_whole_dataset_without_from() {
        // Regression: `estimate_pattern` used the raw FROM list, so a query
        // without FROM estimated every pattern at 0 and kept written order.
        let ds = build_dataset();
        let written = || {
            vec![
                TriplePattern::new(var("e"), konst("http://x/label"), var("l")),
                TriplePattern::new(var("e"), konst("http://x/award"), var("a")),
            ]
        };
        let with_from = vec!["http://g".to_string()];
        let (mut a, mut b) = (written(), written());
        Optimizer::new(&ds, &with_from).plan_bgp(&mut a, &GraphRef::Default, &mut Vec::new());
        Optimizer::new(&ds, &[]).plan_bgp(&mut b, &GraphRef::Default, &mut Vec::new());
        assert_eq!(a, b, "same single-graph dataset, same order");
        assert_eq!(a[0].predicate, konst("http://x/award"));

        let engine = crate::Engine::new(Arc::new(ds));
        let body = "{ ?e <http://x/label> ?l . ?e <http://x/award> ?a }";
        let scanned = |q: String| engine.execute_with_stats(&q).unwrap().1.rows_scanned;
        let from = scanned(format!("SELECT * FROM <http://g> WHERE {body}"));
        assert_eq!(from, scanned(format!("SELECT * WHERE {body}")));
        assert_eq!(from, 4, "2 award triples, one label probe each");
    }

    #[test]
    fn sorted_left_join_rewrites_to_merge_left_join() {
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let side = |p: &str, o: &str| Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst(p),
                PatternTerm::Const(iri(o)),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = left_join(
            side("http://x/award", "http://x/oscar"),
            side("http://x/inCountry", "http://x/usa"),
        );
        opt.optimize(&mut plan);
        match &plan {
            Plan::LeftJoin {
                merge_on: Some(key),
                ..
            } => assert_eq!(key, "e"),
            other => panic!("expected merge left join, got {other:?}"),
        }

        // Unsorted right side (subject-bound shape leads with the object
        // variable): no merge. Two award rows probing the 1 000 labels
        // bind instead.
        let labels = || Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst("http://x/label"),
                var("l"),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = left_join(side("http://x/award", "http://x/oscar"), labels());
        opt.optimize(&mut plan);
        assert!(
            matches!(&plan, Plan::BindLeftJoin { .. }),
            "unsorted side: {plan:?}"
        );
        // The other way round neither input is sorted on ?e, and 1 000 label
        // rows probing the two awards would not pay: no rewrite.
        let awards = Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("e"),
                konst("http://x/award"),
                var("a"),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = left_join(labels(), awards);
        opt.optimize(&mut plan);
        assert!(
            matches!(&plan, Plan::LeftJoin { merge_on: None, .. }),
            "unsorted sides: {plan:?}"
        );
    }

    #[test]
    fn group_by_and_distinct_pass_their_order_to_a_merge_join() {
        use crate::algebra::AggSpec;
        use crate::ast::AggOp;
        let ds = Arc::new(film_dataset());
        let graphs = vec!["http://g".to_string()];
        // (?m <p> <o>): a POS scan with (p, o) bound, sorted on ?m.
        let films = |p: &str, o: &str| bgp(vec![tp("m", p, konst(&format!("http://x/{o}")))]);
        // GROUP BY ?m over a scan sorted on ?m (the genre leads the greedy
        // order): the groups come out in ?m order.
        let group = Plan::Group {
            keys: vec!["m".into()],
            aggs: vec![AggSpec {
                op: AggOp::Count,
                distinct: false,
                expr: Some(Expr::Var("a".into())),
                output: "n".into(),
            }],
            input: Box::new(bgp(vec![
                tp("m", "starring", var("a")),
                tp("m", "genre", konst("http://x/genre0")),
            ])),
        };
        // DISTINCT ?m over a scan sorted on ?m keeps first occurrences, in
        // ?m order.
        let distinct = Plan::Distinct(Box::new(Plan::Project(
            vec!["m".into()],
            Box::new(films("genre", "genre1")),
        )));
        let literal = crate::Engine::with_config(
            Arc::clone(&ds),
            crate::EngineConfig {
                optimize: false,
                ..crate::EngineConfig::new()
            },
        );
        let engine = crate::Engine::new(Arc::clone(&ds));
        for (name, side) in [("group", group), ("distinct", distinct)] {
            let written = join(side, films("country", "country0"));
            let mut plan = written.clone();
            Optimizer::new(&ds, &graphs).optimize(&mut plan);
            assert!(
                matches!(&plan, Plan::Join { merge_on: Some(key), .. } if key == "m"),
                "{name}: {plan:?}"
            );
            let prepared = engine.prepare_plan(written.clone(), graphs.clone());
            let (mut rows, stats) = engine.execute_prepared(&prepared, None).unwrap();
            assert_eq!(stats.merge_joins, 1, "{name}: the merge ran throughout");
            assert!(!rows.is_empty(), "{name}: an empty join proves nothing");
            // The literal plan keeps the written pattern order, so its groups
            // come in another order: compare bags.
            let hashed = literal.prepare_plan(written, graphs.clone());
            let (mut expected, hashed) = literal.execute_prepared(&hashed, None).unwrap();
            assert_eq!(hashed.merge_joins, 0, "{name}");
            rows.canonicalize();
            expected.canonicalize();
            assert_eq!(rows, expected, "{name}: the hash join's rows");
        }
    }

    #[test]
    fn filter_does_not_sink_into_merge_left_join_right_side() {
        use crate::ast::{CmpOp, Expr};
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let side = |p: &str, o: &str, extra: Option<(&str, &str)>| {
            let mut patterns = vec![TriplePattern::new(
                var("e"),
                konst(p),
                PatternTerm::Const(iri(o)),
            )];
            if let Some((p2, v)) = extra {
                patterns.push(TriplePattern::new(var("e"), konst(p2), var(v)));
            }
            Plan::Bgp {
                patterns,
                graph: GraphRef::Default,
                filters: Vec::new(),
            }
        };
        // ?a is bound only on the OPTIONAL (right) side; the filter must
        // stay above even once the left join is merge-rewritten.
        let cond = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Const(iri("http://x/oscar"))),
        );
        let mut plan = Plan::Filter(
            cond.clone(),
            Box::new(Plan::LeftJoin {
                left: Box::new(side("http://x/award", "http://x/oscar", None)),
                right: Box::new(side(
                    "http://x/inCountry",
                    "http://x/usa",
                    Some(("http://x/award", "a")),
                )),
                merge_on: Some("e".into()),
            }),
        );
        Optimizer::new(&ds, &graphs).optimize(&mut plan);
        let Plan::Filter(expr, input) = &plan else {
            panic!("filter must stay above the merge left join: {plan:?}")
        };
        assert_eq!(expr, &cond);
        assert!(matches!(
            &**input,
            Plan::LeftJoin {
                merge_on: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn merge_join_is_planned_over_the_second_inserted_graph() {
        // Two graphs sharing terms. The second builder met v2 before e1/e2,
        // the dataset had interned them the other way round; its index was
        // re-keyed into dataset id order, so its scans are as sorted as the
        // first graph's and the rewrite fires for BGPs over it.
        let mut g1 = Graph::new();
        g1.insert(&Triple::new(
            iri("http://x/e1"),
            iri("http://x/p"),
            iri("http://x/v1"),
        ));
        g1.insert(&Triple::new(
            iri("http://x/e2"),
            iri("http://x/p"),
            iri("http://x/v2"),
        ));
        let mut g2 = Graph::new();
        g2.insert(&Triple::new(
            iri("http://x/v2"),
            iri("http://x/q"),
            iri("http://x/e1"),
        ));
        g2.insert(&Triple::new(
            iri("http://x/e1"),
            iri("http://x/q"),
            iri("http://x/e2"),
        ));
        let mut ds = Dataset::new();
        ds.insert_graph("http://a", g1);
        ds.insert_graph("http://b", g2);

        let graphs = vec!["http://b".to_string()];
        let side = |o: &str| Plan::Bgp {
            patterns: vec![TriplePattern::new(
                var("s"),
                konst("http://x/q"),
                PatternTerm::Const(iri(o)),
            )],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = join(side("http://x/e1"), side("http://x/e2"));
        Optimizer::new(&ds, &graphs).optimize(&mut plan);
        assert!(
            matches!(&plan, Plan::Join { merge_on: Some(key), .. } if key == "s"),
            "second graph is sorted by dataset id like the first: {plan:?}"
        );
        // Two patterns on the optional side, so that it is not bound: the
        // more selective one leads its BGP, which is sorted on ?s.
        let optional = Plan::Bgp {
            patterns: vec![
                TriplePattern::new(var("s"), konst("http://x/q"), var("o")),
                TriplePattern::new(
                    var("s"),
                    konst("http://x/q"),
                    PatternTerm::Const(iri("http://x/e2")),
                ),
            ],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let mut plan = left_join(side("http://x/e1"), optional);
        Optimizer::new(&ds, &graphs).optimize(&mut plan);
        assert!(
            matches!(
                &plan,
                Plan::LeftJoin {
                    merge_on: Some(_),
                    ..
                }
            ),
            "{plan:?}"
        );
    }

    #[test]
    fn append_of_a_low_id_keeps_merge_join_planning() {
        // Graph B's ids all lie above graph A's. An append to B that pulls
        // in one of A's terms merges a low id into B's slabs; B's scans stay
        // sorted by dataset id, so merge joins over B are planned before
        // and after (there used to be a per-graph flag this flipped).
        let mut a = Graph::new();
        a.insert(&Triple::new(
            iri("http://y/s"),
            iri("http://y/q"),
            iri("http://y/o"),
        ));
        let mut ds = Dataset::new();
        ds.insert_graph("http://a", a);
        let mut g = Graph::new();
        for i in 0..3 {
            g.insert(&Triple::new(
                iri(&format!("http://x/e{i}")),
                iri("http://x/p"),
                iri(&format!("http://x/v{i}")),
            ));
        }
        ds.insert_graph("http://b", g);

        let graphs = vec!["http://b".to_string()];
        let bgp = |o: &str| Plan::Bgp {
            patterns: vec![TriplePattern::new(var("s"), konst("http://x/p"), konst(o))],
            graph: GraphRef::Default,
            filters: Vec::new(),
        };
        let planned = |ds: &Dataset, o: &str| {
            let mut plan = join(bgp(o), bgp("http://x/v1"));
            Optimizer::new(ds, &graphs).optimize(&mut plan);
            plan
        };
        assert!(matches!(
            planned(&ds, "http://x/v0"),
            Plan::Join {
                merge_on: Some(_),
                ..
            }
        ));

        ds.append_triples(
            "http://b",
            vec![Triple::new(
                iri("http://x/e9"),
                iri("http://x/p"),
                iri("http://y/o"),
            )],
        )
        .unwrap();
        assert!(ds.lookup(&iri("http://y/o")) < ds.lookup(&iri("http://x/e0")));
        for o in ["http://x/v0", "http://y/o"] {
            let plan = planned(&ds, o);
            assert!(
                matches!(
                    &plan,
                    Plan::Join {
                        merge_on: Some(_),
                        ..
                    }
                ),
                "{o}: {plan:?}"
            );
        }
    }

    #[test]
    fn a_constant_only_another_graph_mentions_estimates_zero_in_every_position() {
        // `http://y/only-a` has a dataset id, but graph B's slabs never
        // mention it: each position's probe is an empty range, so the
        // pattern contributes exactly 0 — as a constant the dataset never
        // interned does.
        let mut a = Graph::new();
        a.insert(&Triple::new(
            iri("http://y/only-a"),
            iri("http://y/only-a"),
            iri("http://y/only-a"),
        ));
        let mut b = Graph::new();
        b.insert(&Triple::new(
            iri("http://x/s"),
            iri("http://x/p"),
            iri("http://x/o"),
        ));
        let mut ds = Dataset::new();
        ds.insert_graph("http://a", a);
        ds.insert_graph("http://b", b);
        assert!(ds.lookup(&iri("http://y/only-a")).is_some());

        let uris = vec!["http://b".to_string()];
        let none = HashSet::new();
        let mut opt = Optimizer::new(&ds, &uris);
        for absent in ["http://y/only-a", "http://y/interned-nowhere"] {
            let here = [
                konst("http://x/s"),
                konst("http://x/p"),
                konst("http://x/o"),
            ];
            for pos in 0..3 {
                for fill_vars in [false, true] {
                    let mut terms: Vec<PatternTerm> = if fill_vars {
                        vec![var("a"), var("b"), var("c")]
                    } else {
                        here.to_vec()
                    };
                    terms[pos] = konst(absent);
                    let [s, p, o]: [PatternTerm; 3] = terms.try_into().unwrap();
                    let pattern = TriplePattern::new(s, p, o);
                    assert_eq!(
                        opt.estimate_pattern(&pattern, &none, &uris),
                        0.0,
                        "{absent} at position {pos}: {pattern:?}"
                    );
                }
            }
        }
        // Over both graphs only A contributes.
        let both = vec!["http://a".to_string(), "http://b".to_string()];
        let pattern = TriplePattern::new(konst("http://y/only-a"), var("p"), var("o"));
        assert!(Optimizer::new(&ds, &both).estimate_pattern(&pattern, &none, &both) > 0.0);
    }

    #[test]
    fn absent_constant_estimates_zero_and_goes_first() {
        let ds = build_dataset();
        let graphs = vec!["http://g".to_string()];
        let mut opt = Optimizer::new(&ds, &graphs);
        let mut patterns = vec![
            TriplePattern::new(var("e"), konst("http://x/label"), var("l")),
            TriplePattern::new(var("e"), konst("http://x/missing"), var("m")),
        ];
        let split = opt.plan_bgp(&mut patterns, &GraphRef::Default, &mut Vec::new());
        assert!(split.is_none());
        assert_eq!(patterns[0].predicate, konst("http://x/missing"));
    }

    /// Countries skewed on purpose (`usa` 400, `india` 100, `nepal` 10,
    /// `fiji` 2 of 512 `country` triples, 128 each if uniform) beside 300
    /// `genre` and 2 `award` triples.
    fn country_dataset() -> Dataset {
        let mut g = Graph::new();
        let country = |i: usize| match i {
            0..400 => "usa",
            400..500 => "india",
            500..510 => "nepal",
            _ => "fiji",
        };
        for i in 0..512 {
            let e = iri(&format!("http://x/e{i}"));
            let c = iri(&format!("http://x/{}", country(i)));
            g.insert(&Triple::new(e.clone(), iri("http://x/country"), c));
            if i < 300 {
                let genre = iri(&format!("http://x/g{}", i % 50));
                g.insert(&Triple::new(e.clone(), iri("http://x/genre"), genre));
            }
            if i < 2 {
                g.insert(&Triple::new(
                    e,
                    iri("http://x/award"),
                    iri("http://x/oscar"),
                ));
            }
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        ds
    }

    /// `FILTER(filter)` over `{ ?e <country> ?c . ?e <p> ?o }`, optimized:
    /// returns the selectivity charged to the country pattern and the
    /// predicate of the pattern that leads the planned order.
    fn plan_filtered(filter: Expr, other: &str) -> (f64, PatternTerm) {
        let ds = country_dataset();
        let graphs = vec!["http://g".to_string()];
        let country = TriplePattern::new(var("e"), konst("http://x/country"), var("c"));
        let mut plan = Plan::Filter(
            filter.clone(),
            Box::new(Plan::Bgp {
                patterns: vec![
                    TriplePattern::new(var("e"), konst(other), var("o")),
                    country.clone(),
                ],
                graph: GraphRef::Default,
                filters: Vec::new(),
            }),
        );
        let mut opt = Optimizer::new(&ds, &graphs);
        opt.optimize(&mut plan);
        let Plan::Bgp {
            patterns, filters, ..
        } = &plan
        else {
            panic!("the filter dissolves into the BGP: {plan:?}")
        };
        assert_eq!(filters.len(), 1);
        let pushed = PushedFilter {
            var: "c".into(),
            expr: filter,
        };
        let selectivity = opt.filter_selectivity(&country, &pushed, &graphs);
        (selectivity, patterns[0].predicate.clone())
    }

    fn country_in(names: &[&str], negated: bool) -> Expr {
        Expr::In {
            expr: Box::new(Expr::Var("c".into())),
            list: (names.iter())
                .map(|n| Expr::Const(iri(&format!("http://x/{n}"))))
                .collect(),
            negated,
        }
    }

    #[test]
    fn in_over_constants_orders_its_pattern_by_the_exact_summed_count() {
        // 12 of 512 rows: the country pattern (≈ 12) leads genre (300).
        let (sel, first) = plan_filtered(country_in(&["nepal", "fiji"], false), "http://x/genre");
        assert_eq!(sel, 12.0 / 512.0);
        assert_eq!(first, konst("http://x/country"));
        // 500 of 512 rows (a uniform guess would say 256): genre leads.
        let (sel, first) = plan_filtered(country_in(&["usa", "india"], false), "http://x/genre");
        assert_eq!(sel, 500.0 / 512.0);
        assert_eq!(first, konst("http://x/genre"));
        // A repeated constant counts once; `=` is the one-constant case.
        let (sel, _) = plan_filtered(country_in(&["nepal", "nepal"], false), "http://x/genre");
        assert_eq!(sel, 10.0 / 512.0);
        let eq = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Const(iri("http://x/india"))),
            Box::new(Expr::Var("c".into())),
        );
        assert_eq!(plan_filtered(eq, "http://x/genre").0, 100.0 / 512.0);
    }

    #[test]
    fn negated_membership_takes_the_complement() {
        let (sel, first) = plan_filtered(country_in(&["usa", "india"], true), "http://x/genre");
        assert_eq!(sel, 1.0 - 500.0 / 512.0);
        assert_eq!(first, konst("http://x/country"));
        let neq = Expr::Cmp(
            CmpOp::Neq,
            Box::new(Expr::Var("c".into())),
            Box::new(Expr::Const(iri("http://x/fiji"))),
        );
        let (sel, first) = plan_filtered(neq, "http://x/genre");
        assert_eq!(sel, 1.0 - 2.0 / 512.0);
        assert_eq!(first, konst("http://x/genre"));
    }

    #[test]
    fn an_absent_constant_has_selectivity_zero_and_leads() {
        // Even the 2-triple award pattern follows a pattern nothing passes.
        for filter in [
            country_in(&["atlantis"], false),
            Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Var("c".into())),
                Box::new(Expr::Const(iri("http://x/atlantis"))),
            ),
        ] {
            let (sel, first) = plan_filtered(filter, "http://x/award");
            assert_eq!(sel, 0.0);
            assert_eq!(first, konst("http://x/country"));
        }
    }

    #[test]
    fn ranges_and_literal_constants_fall_back_to_the_default_selectivity() {
        let cmp = |op, konst: Term| {
            Expr::Cmp(
                op,
                Box::new(Expr::Var("c".into())),
                Box::new(Expr::Const(konst)),
            )
        };
        let literal_in = Expr::In {
            expr: Box::new(Expr::Var("c".into())),
            list: vec![
                Expr::Const(iri("http://x/usa")),
                Expr::Const(Term::integer(1)),
            ],
            negated: false,
        };
        for filter in [
            cmp(CmpOp::Lt, iri("http://x/m")),
            cmp(CmpOp::Eq, Term::string("usa")),
            literal_in,
        ] {
            let (sel, first) = plan_filtered(filter, "http://x/genre");
            assert_eq!(sel, DEFAULT_FILTER_SELECTIVITY);
            // 512 × 0.5 = 256 < 300: the filtered pattern still leads.
            assert_eq!(first, konst("http://x/country"));
        }
    }
}
