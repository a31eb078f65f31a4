//! Term-materialized reference evaluation (the pre-id-native evaluator).
//!
//! This is the seed implementation of bag-semantics plan evaluation kept
//! verbatim as a *differential-testing oracle* and benchmarking baseline for
//! the id-native evaluator in [`crate::eval`]: every intermediate row holds
//! owned [`Term`] values, and every BGP extension step resolves ids back to
//! terms (and re-looks terms up per row). It implements the same SPARQL
//! multiset semantics of the paper's Section 5.2: BGPs evaluate by
//! index-nested-loop over the store's access paths (in the order chosen by
//! the optimizer), joins are hash joins on the shared variables that are
//! bound on both sides (with compatibility checks on the rest), `OPTIONAL`
//! is a left outer join, `UNION` is bag union with schema alignment, and
//! grouping hashes on key tuples.
//!
//! It is not an engine mode: a differential test calls [`execute`] on the
//! engine and prepared query it holds the executor to.
//!
//! # The contract
//!
//! What the executor is held to, one rule per [`Plan`] node. The judgment
//! `Γ ⊢ P ⇓ (V, R)` reads "under `Γ`, plan `P` evaluates to the columns `V`
//! and the rows `R`": `Γ` is the dataset, the query's `FROM` graphs and the
//! budget; `R` is a bag *in an order*, and the order is part of the
//! contract (the differential suites compare rows position by position).
//! A row `μ` maps some of `V` to terms; `μ₀` binds nothing; `μ ~ ν` when
//! the two agree on every variable both bind, and `μ ∪ ν` is then their
//! merge. `[… | μ ∈ R, ν ∈ S]` lists in `R`'s order and, per `μ`, in `S`'s
//! (left-major); `++` concatenates; `V ⊕ W` is `V` then the names of `W`
//! not in `V`. `scan(G, t, μ)` lists the matches of pattern `t` with `μ`
//! substituted in each graph of `G` (`GraphRef::uris`) in turn, in index
//! order; each entry it visits counts once in `rows_scanned`.
//!
//! ```text
//! Unit       Γ ⊢ Unit ⇓ ([], [μ₀])
//! Bgp        R₀ = [μ₀],  Rᵢ = [μ ∪ ν | μ ∈ Rᵢ₋₁, ν ∈ scan(G, tᵢ, μ), F at i pass]
//!            ⟹  Γ ⊢ Bgp{t₁…tₙ, G, F} ⇓ (vars(t₁…tₙ), Rₙ)
//!            (variables in first-mention order; a pushed filter fires at
//!            the first pattern binding its variable: `attach_filters`)
//! Join       Γ ⊢ A ⇓ (V, R)   Γ ⊢ B ⇓ (W, S)
//!            ⟹  Γ ⊢ Join{A, B, m} ⇓ (V ⊕ W, [μ ∪ ν | μ ∈ R, ν ∈ S, μ ~ ν])
//! LeftJoin   as Join, each μ with no compatible ν kept once, in place:
//!            ⟹  Γ ⊢ LeftJoin{A, B, m} ⇓ (V ⊕ W, [ext(μ) | μ ∈ R]),
//!            ext(μ) = [μ ∪ ν | ν ∈ S, μ ~ ν], or [μ] when that is empty
//! BindLeft   Γ ⊢ A ⇓ (V, R)  ⟹  Γ ⊢ BindLeftJoin{A, t, G, F} ⇓ the rows of
//!            LeftJoin{A, Bgp{t, G, F}}; S per μ is scan(G, t, μ) under F,
//!            not scanned again when μ's key equals the previous row's
//! Union      Γ ⊢ A ⇓ (V, R)   Γ ⊢ B ⇓ (W, S)  ⟹  Union(A, B) ⇓ (V ⊕ W, R ++ S)
//! Filter     Γ ⊢ P ⇓ (V, R)  ⟹  (V, [μ ∈ R | ebv(⟦e⟧μ) = true])   (error: false)
//! Extend     Γ ⊢ P ⇓ (V, R)  ⟹  (V ⊕ [x], [μ[x ↦ ⟦e⟧μ] | μ ∈ R])
//!            (an error leaves x unbound; a bound x is overwritten)
//! Group      Γ ⊢ P ⇓ (V, R)  ⟹  (K ++ outputs, one row per distinct K-tuple
//!            of R in first-occurrence order, each aggregate folded over its
//!            rows in R's order; no keys: exactly one row, even for R = [])
//! Project    Γ ⊢ P ⇓ (V, R)  ⟹  (X, [μ|X | μ ∈ R])
//! Distinct   Γ ⊢ P ⇓ (V, R)  ⟹  (V, R with each row kept at its first occurrence)
//! OrderBy    Γ ⊢ P ⇓ (V, R)  ⟹  Γ ⊢ OrderBy{K, None, P} ⇓ (V, sort_K(R)),
//!                               Γ ⊢ OrderBy{K, Some(k), P} ⇓ (V, take_k(sort_K(R)))
//! Slice      Γ ⊢ P ⇓ (V, R)  ⟹  (V, take_l(drop_o(R)))   (no limit: drop_o(R))
//! ```
//!
//! `sort_K` is stable: it compares the keys in turn, each by term order
//! with unbound first, reversed when descending, and keeps input order
//! among ties. Two annotations the optimizer sets appear in no premise:
//! a join's `merge_on` changes neither the bag nor the row order (the merge
//! emits the hash join's rows in the hash join's order), and a sort's
//! `top: Some(k)` gives exactly the first `k` rows of the full sort. So a
//! plan and its literal twin — every `merge_on` and `top` cleared, the
//! slice above each bounded sort kept — evaluate to the same `(V, R)`.
//! Every node's output is charged to the budget here; the BGP, join, bind
//! and group rules also charge as they go.

use std::collections::{HashMap, HashSet};

use rdf_model::{Dataset, Term, TermId, TripleIndex};

use crate::algebra::{AggSpec, GraphRef, Plan, PushedFilter};
use crate::ast::{OrderKey, PatternTerm, TriplePattern};
use crate::budget::BudgetMeter;
use crate::engine::{Engine, ExecStats, PreparedQuery};
use crate::error::{EngineError, Result};
use crate::expr::{ebv, eval_expr, eval_single_var_filter, AggState, EvalCaches, RowCtx};
use crate::results::SolutionTable;
use crate::WidthError;

/// Evaluate `prepared` — only rows `[offset, offset+limit)` of it when
/// `page` is given — on `engine`'s dataset under `engine`'s budget, whose
/// deadline clock starts here. The stats hold `rows_scanned` alone: the
/// oracle evaluates every occurrence of a repeated subplan, so that is the
/// executor's [`ExecStats::unshared_scans`], and nothing else it counts
/// exists here.
pub fn execute(
    engine: &Engine,
    prepared: &PreparedQuery,
    page: Option<(usize, usize)>,
) -> Result<(SolutionTable, ExecStats)> {
    let mut evaluator = ReferenceEvaluator {
        dataset: engine.dataset(),
        default_graphs: prepared.from_graphs().to_vec(),
        caches: EvalCaches::new(),
        rows_scanned: 0,
        meter: BudgetMeter::new(&engine.config().budget),
    };
    let table = evaluator.eval(prepared.plan(), page)?;
    let stats = ExecStats {
        rows_scanned: evaluator.rows_scanned,
        ..ExecStats::default()
    };
    Ok((table, stats))
}

/// Term-materialized plan evaluator bound to a dataset.
struct ReferenceEvaluator<'a> {
    dataset: &'a Dataset,
    default_graphs: Vec<String>,
    caches: EvalCaches,
    rows_scanned: u64,
    /// Budget enforcement state ([`crate::budget`]); inactive by default.
    meter: BudgetMeter,
}

/// Estimated heap bytes of `rows` term-materialized rows of `width` columns.
/// Owned [`Term`]s vary wildly in size; 64 bytes/cell is a deliberately
/// rough stand-in (enum + small string) — the budget needs an order of
/// magnitude, not an audit.
#[inline]
fn term_table_bytes(rows: usize, width: usize) -> u64 {
    (rows as u64).saturating_mul((width as u64).saturating_mul(64).saturating_add(24))
}

/// The oracle's working set: rows of owned terms parallel to `vars`.
#[derive(Debug, Default)]
struct RowTable {
    vars: Vec<String>,
    rows: Vec<Vec<Option<Term>>>,
}

impl RowTable {
    fn with_vars(vars: Vec<String>) -> Self {
        RowTable {
            vars,
            rows: Vec::new(),
        }
    }

    fn column_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }
}

/// Keep rows `[offset, offset+limit)` in place (`None` limit = to the end),
/// clamping both bounds to the table.
fn slice_rows<T>(rows: &mut Vec<T>, offset: usize, limit: Option<usize>) {
    let start = offset.min(rows.len());
    let end = match limit {
        Some(l) => start.saturating_add(l).min(rows.len()),
        None => rows.len(),
    };
    rows.drain(..start);
    rows.truncate(end - start);
}

impl ReferenceEvaluator<'_> {
    /// Evaluate a plan to a solution table, only rows
    /// `[offset, offset+limit)` of it when `page` is given.
    fn eval(&mut self, plan: &Plan, page: Option<(usize, usize)>) -> Result<SolutionTable> {
        let mut t = self.eval_rows(plan)?;
        if let Some((offset, limit)) = page {
            slice_rows(&mut t.rows, offset, Some(limit));
        }
        let mut table = SolutionTable::with_vars(t.vars);
        let width = |e: WidthError| EngineError::Semantic(e.to_string());
        for row in t.rows {
            table.push_row(row).map_err(width)?;
        }
        Ok(table)
    }

    /// The recursion, and the budget chokepoint: every operator's output
    /// has its row count and estimated footprint checked here; BGP
    /// extension, joins, and grouping carry in-loop checks of their own.
    fn eval_rows(&mut self, plan: &Plan) -> Result<RowTable> {
        let t = self.eval_node(plan)?;
        self.meter.charge_intermediate(
            t.rows.len() as u64,
            term_table_bytes(t.rows.len(), t.vars.len()),
        )?;
        Ok(t)
    }

    fn eval_node(&mut self, plan: &Plan) -> Result<RowTable> {
        match plan {
            Plan::Unit => Ok(RowTable {
                vars: Vec::new(),
                rows: vec![Vec::new()],
            }),
            Plan::Bgp {
                patterns,
                graph,
                filters,
            } => self.eval_bgp(patterns, graph, filters),
            // A merge key is a columnar-executor annotation; the oracle
            // hash-joins either way (identical rows in identical order).
            Plan::Join { left, right, .. } => {
                let left = self.eval_rows(left)?;
                let right = self.eval_rows(right)?;
                join(left, right, JoinKind::Inner, &mut self.meter)
            }
            Plan::LeftJoin { left, right, .. } => {
                let left = self.eval_rows(left)?;
                let right = self.eval_rows(right)?;
                join(left, right, JoinKind::Left, &mut self.meter)
            }
            Plan::BindLeftJoin {
                left,
                pattern,
                graph,
                filters,
            } => {
                let left = self.eval_rows(left)?;
                self.eval_bind_left_join(left, pattern, graph, filters)
            }
            Plan::Union(a, b) => {
                let left = self.eval_rows(a)?;
                let right = self.eval_rows(b)?;
                Ok(union(left, right))
            }
            Plan::Filter(expr, p) => {
                let mut t = self.eval_rows(p)?;
                let vars = t.vars.clone();
                let caches = &mut self.caches;
                t.rows.retain(|row| {
                    let ctx = RowCtx { vars: &vars, row };
                    eval_expr(expr, ctx, caches)
                        .as_ref()
                        .and_then(ebv)
                        .unwrap_or(false)
                });
                Ok(t)
            }
            Plan::Extend(var, expr, p) => {
                let mut t = self.eval_rows(p)?;
                let existing = t.column_index(var);
                let vars_snapshot = t.vars.clone();
                let mut new_column = Vec::with_capacity(t.rows.len());
                for row in &t.rows {
                    let ctx = RowCtx {
                        vars: &vars_snapshot,
                        row,
                    };
                    new_column.push(eval_expr(expr, ctx, &mut self.caches));
                }
                match existing {
                    Some(idx) => {
                        for (row, v) in t.rows.iter_mut().zip(new_column) {
                            row[idx] = v;
                        }
                    }
                    None => {
                        t.vars.push(var.clone());
                        for (row, v) in t.rows.iter_mut().zip(new_column) {
                            row.push(v);
                        }
                    }
                }
                Ok(t)
            }
            Plan::Group { keys, aggs, input } => {
                let t = self.eval_rows(input)?;
                self.eval_group(keys, aggs, t)
            }
            Plan::Project(vars, p) => {
                let t = self.eval_rows(p)?;
                let indices: Vec<Option<usize>> = vars.iter().map(|v| t.column_index(v)).collect();
                let mut out = RowTable::with_vars(vars.clone());
                out.rows = t
                    .rows
                    .into_iter()
                    .map(|row| {
                        indices
                            .iter()
                            .map(|i| i.and_then(|i| row[i].clone()))
                            .collect()
                    })
                    .collect();
                Ok(out)
            }
            Plan::Distinct(p) => {
                let mut t = self.eval_rows(p)?;
                let mut seen: HashSet<Vec<Option<Term>>> = HashSet::with_capacity(t.rows.len());
                t.rows.retain(|row| seen.insert(row.clone()));
                Ok(t)
            }
            // A bounded sort is the full sort, then the cut.
            Plan::OrderBy { keys, top, input } => {
                let mut t = self.eval_rows(input)?;
                self.sort_rows(&mut t, keys);
                if let Some(k) = top {
                    t.rows.truncate(*k);
                }
                Ok(t)
            }
            Plan::Slice {
                limit,
                offset,
                input,
            } => {
                let mut t = self.eval_rows(input)?;
                // Shared clamped slice: `offset > len` yields an empty
                // table, and `offset + limit` saturates instead of
                // overflowing on adversarial LIMIT/OFFSET values.
                slice_rows(&mut t.rows, *offset, *limit);
                Ok(t)
            }
        }
    }

    /// Index-nested-loop evaluation of a BGP in pattern order. Pushed
    /// filters cull the row set right after the pattern that binds their
    /// variable (same attachment rule as the id-native evaluators, so the
    /// `rows_scanned` work metric stays in exact agreement); being the
    /// term-materialized oracle, candidates are tested directly on terms.
    fn eval_bgp(
        &mut self,
        patterns: &[TriplePattern],
        graph: &GraphRef,
        filters: &[PushedFilter],
    ) -> Result<RowTable> {
        let graphs = graph.resolve(self.dataset, &self.default_graphs)?;

        // Variable schema in first-mention order.
        let mut vars: Vec<String> = Vec::new();
        for p in patterns {
            for v in p.variables() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        }
        let var_idx: HashMap<&str, usize> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();

        // Shared attachment rule ([`crate::algebra::attach_filters`]).
        let pattern_filters = crate::algebra::attach_filters(patterns, filters, |v| var_idx[v]);

        let mut rows: Vec<Vec<Option<Term>>> = vec![vec![None; vars.len()]];
        for (pi, pattern) in patterns.iter().enumerate() {
            if rows.is_empty() {
                break;
            }
            let mut next: Vec<Vec<Option<Term>>> = Vec::new();
            for row in &rows {
                let mut scanned = 0u64;
                for g in &graphs {
                    scanned += self.extend_row_with_pattern(g, pattern, row, &var_idx, &mut next);
                }
                // Budget checkpoint between rows: the scan work this row
                // added, plus (when the periodic poll fires) the output
                // buffer's current size. `for_each_match` has no early
                // exit, so overshoot is bounded by one row's matches.
                if self.meter.charge_scan(scanned)? {
                    self.meter.charge_intermediate(
                        next.len() as u64,
                        term_table_bytes(next.len(), vars.len()),
                    )?;
                }
            }
            rows = next;
            // Per-pattern intermediates never reach the operator-output
            // chokepoint, so check each one here.
            self.meter
                .charge_intermediate(rows.len() as u64, term_table_bytes(rows.len(), vars.len()))?;
            if !pattern_filters[pi].is_empty() {
                let caches = &mut self.caches;
                let checks = &pattern_filters[pi];
                rows.retain(|row| {
                    checks.iter().all(|(col, f)| match &row[*col] {
                        Some(term) => eval_single_var_filter(&f.expr, &f.var, term, caches),
                        None => false,
                    })
                });
            }
        }
        Ok(RowTable { vars, rows })
    }

    /// [`Plan::BindLeftJoin`] by its definition: each left row extended by
    /// the pattern's matches under the row's key values — every graph
    /// scanned by the BGP's one-row extension step, pushed filters applied
    /// as the BGP applies them — or kept once, unextended, when none
    /// survive. A row whose key equals the previous row's takes that row's
    /// matches without scanning, as the executor's bind level does, so the
    /// two count the same `rows_scanned`.
    fn eval_bind_left_join(
        &mut self,
        left: RowTable,
        pattern: &TriplePattern,
        graph: &GraphRef,
        filters: &[PushedFilter],
    ) -> Result<RowTable> {
        let graphs = graph.resolve(self.dataset, &self.default_graphs)?;
        let mut vars = left.vars.clone();
        for v in pattern.variables() {
            if !vars.iter().any(|x| x == v) {
                vars.push(v.to_string());
            }
        }
        let var_idx: HashMap<&str, usize> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i))
            .collect();
        let new_cols = left.vars.len()..vars.len();
        let key_cols: Vec<usize> = (pattern.variables())
            .filter_map(|v| left.column_index(v))
            .collect();
        let patterns = std::slice::from_ref(pattern);
        let checks = crate::algebra::attach_filters(patterns, filters, |v| var_idx[v]);

        let mut out = RowTable::with_vars(vars.clone());
        let mut last_key: Option<Vec<Option<Term>>> = None;
        // The new columns of each of the last key's matches.
        let mut last_matches: Vec<Vec<Option<Term>>> = Vec::new();
        for mut row in left.rows {
            let key: Vec<Option<Term>> = key_cols.iter().map(|&c| row[c].clone()).collect();
            if last_key.as_ref() != Some(&key) {
                let mut wide = row.clone();
                wide.resize(vars.len(), None);
                let mut found = Vec::new();
                let mut scanned = 0u64;
                for g in &graphs {
                    scanned +=
                        self.extend_row_with_pattern(g, pattern, &wide, &var_idx, &mut found);
                }
                self.meter.charge_scan(scanned)?;
                let caches = &mut self.caches;
                found.retain(|r| {
                    checks[0].iter().all(|(col, f)| match &r[*col] {
                        Some(term) => eval_single_var_filter(&f.expr, &f.var, term, caches),
                        None => false,
                    })
                });
                last_matches = (found.into_iter())
                    .map(|mut r| r.drain(new_cols.clone()).collect())
                    .collect();
                last_key = Some(key);
            }
            if last_matches.is_empty() {
                row.resize(vars.len(), None);
                out.rows.push(row);
            } else {
                for m in &last_matches {
                    let mut extended = row.clone();
                    extended.extend(m.iter().cloned());
                    out.rows.push(extended);
                }
            }
            self.meter.charge_intermediate(
                out.rows.len() as u64,
                term_table_bytes(out.rows.len(), vars.len()),
            )?;
        }
        Ok(out)
    }

    /// Returns the number of index entries this pattern's scans visited
    /// (also accumulated into `rows_scanned`), so the caller can charge the
    /// budget meter per input row.
    fn extend_row_with_pattern(
        &mut self,
        graph: &TripleIndex,
        pattern: &TriplePattern,
        row: &[Option<Term>],
        var_idx: &HashMap<&str, usize>,
        out: &mut Vec<Vec<Option<Term>>>,
    ) -> u64 {
        // Resolve each position: bound (dataset TermId), free (column index),
        // or a term the dataset never interned (matches nothing anywhere).
        let dataset = self.dataset;
        enum Slot {
            Bound(TermId),
            Free(usize),
            Absent,
        }
        let resolve = |t: &PatternTerm| -> Slot {
            match t {
                PatternTerm::Var(v) => {
                    let idx = var_idx[v.as_str()];
                    match &row[idx] {
                        Some(term) => dataset.lookup(term).map_or(Slot::Absent, Slot::Bound),
                        None => Slot::Free(idx),
                    }
                }
                PatternTerm::Const(term) => dataset.lookup(term).map_or(Slot::Absent, Slot::Bound),
            }
        };
        let s = resolve(&pattern.subject);
        let p = resolve(&pattern.predicate);
        let o = resolve(&pattern.object);
        if matches!(s, Slot::Absent) || matches!(p, Slot::Absent) || matches!(o, Slot::Absent) {
            return 0;
        }
        let pick = |slot: &Slot| match slot {
            Slot::Bound(id) => Some(*id),
            _ => None,
        };
        let (sb, pb, ob) = (pick(&s), pick(&p), pick(&o));
        let assign = |slot: &Slot, id: TermId, new_row: &mut Vec<Option<Term>>| {
            if let Slot::Free(idx) = slot {
                let term = dataset.resolve(id).clone();
                match &new_row[*idx] {
                    // Same variable twice in one pattern (?x ?p ?x):
                    // later occurrences must agree.
                    Some(existing) => {
                        if *existing != term {
                            return false;
                        }
                    }
                    None => new_row[*idx] = Some(term),
                }
            }
            true
        };
        // Same allocation-free access path the id-native evaluator uses, so
        // wall-clock comparisons isolate the row-representation difference.
        let scanned = graph.for_each_match(sb, pb, ob, |ms, mp, mo| {
            let mut new_row = row.to_vec();
            let mut ok = true;
            ok &= assign(&s, ms, &mut new_row);
            ok &= assign(&p, mp, &mut new_row);
            ok &= assign(&o, mo, &mut new_row);
            if ok {
                out.push(new_row);
            }
        });
        self.rows_scanned += scanned;
        scanned
    }

    fn eval_group(
        &mut self,
        keys: &[String],
        aggs: &[AggSpec],
        input: RowTable,
    ) -> Result<RowTable> {
        let key_indices: Vec<Option<usize>> = keys.iter().map(|k| input.column_index(k)).collect();
        let vars_snapshot = input.vars.clone();

        // Group index: key tuple → position in `groups`.
        let mut index: HashMap<Vec<Option<Term>>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Option<Term>>, Vec<AggState>)> = Vec::new();

        let implicit_single_group = keys.is_empty();
        if implicit_single_group {
            index.insert(Vec::new(), 0);
            groups.push((
                Vec::new(),
                aggs.iter()
                    .map(|a| AggState::new(a.op, a.distinct))
                    .collect(),
            ));
        }

        // Rough per-group footprint (key terms + accumulator state) for the
        // memory axis: grouping state is the one allocation that grows
        // without a corresponding operator output until the loop ends.
        let group_bytes =
            (keys.len() as u64).saturating_mul(64) + (aggs.len() as u64).saturating_mul(64);
        for row in &input.rows {
            self.meter.charge_intermediate(
                groups.len() as u64,
                (groups.len() as u64).saturating_mul(group_bytes),
            )?;
            let key: Vec<Option<Term>> = key_indices
                .iter()
                .map(|i| i.and_then(|i| row[i].clone()))
                .collect();
            let gi = match index.get(&key) {
                Some(&gi) => gi,
                None => {
                    let gi = groups.len();
                    index.insert(key.clone(), gi);
                    groups.push((
                        key,
                        aggs.iter()
                            .map(|a| AggState::new(a.op, a.distinct))
                            .collect(),
                    ));
                    gi
                }
            };
            let ctx = RowCtx {
                vars: &vars_snapshot,
                row,
            };
            for (state, spec) in groups[gi].1.iter_mut().zip(aggs) {
                match &spec.expr {
                    Some(e) => state.push(eval_expr(e, ctx, &mut self.caches)),
                    None => state.push_star(),
                }
            }
        }

        let mut out_vars: Vec<String> = keys.to_vec();
        out_vars.extend(aggs.iter().map(|a| a.output.clone()));
        let mut out = RowTable::with_vars(out_vars);
        for (key, states) in groups {
            let mut row = key;
            for state in states {
                row.push(state.finish());
            }
            out.rows.push(row);
        }
        Ok(out)
    }

    fn sort_rows(&mut self, table: &mut RowTable, keys: &[OrderKey]) {
        type KeyedRow = (Vec<Option<Term>>, Vec<Option<Term>>);
        let vars = table.vars.clone();
        // Precompute sort keys (expressions may be non-trivial).
        let mut keyed: Vec<KeyedRow> = table
            .rows
            .drain(..)
            .map(|row| {
                let computed: Vec<Option<Term>> = keys
                    .iter()
                    .map(|k| {
                        let ctx = RowCtx {
                            vars: &vars,
                            row: &row,
                        };
                        eval_expr(&k.expr, ctx, &mut self.caches)
                    })
                    .collect();
                (computed, row)
            })
            .collect();
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (key_spec, (a, b)) in keys.iter().zip(ka.iter().zip(kb.iter())) {
                let ord = match (a, b) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(a), Some(b)) => a.order_cmp(b),
                };
                let ord = if key_spec.ascending {
                    ord
                } else {
                    ord.reverse()
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        table.rows = keyed.into_iter().map(|(_, row)| row).collect();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Inner,
    Left,
}

/// Hash join with SPARQL compatibility semantics.
///
/// Key selection: the shared variables bound in *every* row of both inputs
/// form the hash key; remaining shared variables are checked per candidate
/// pair with unbound-is-compatible semantics. Falls back to nested loop when
/// no always-bound shared variable exists.
///
/// The output rows are the allocation a cross-product-shaped join balloons
/// through, so both probe strategies check them against the budget between
/// left rows (overshoot bounded by one left row's candidates).
fn join(
    left: RowTable,
    right: RowTable,
    kind: JoinKind,
    meter: &mut BudgetMeter,
) -> Result<RowTable> {
    // (left column, right column) of each shared variable.
    let shared: Vec<(usize, usize)> = (left.vars.iter())
        .filter_map(|v| Some((left.column_index(v)?, right.column_index(v)?)))
        .collect();
    let (out_vars, right_targets) = merged_vars(&left.vars, &right.vars);
    let width = out_vars.len();

    let always_bound =
        |table: &RowTable, idx: usize| -> bool { table.rows.iter().all(|r| r[idx].is_some()) };
    // The shared columns usable as hash key: bound on every row of both
    // sides, so a key never holds an unbound cell.
    let keys: Vec<(usize, usize)> = (shared.iter().copied())
        .filter(|&(l, r)| always_bound(&left, l) && always_bound(&right, r))
        .collect();
    let mut out = RowTable::with_vars(out_vars);

    let merge = |l_row: &[Option<Term>], r_row: &[Option<Term>]| -> Vec<Option<Term>> {
        let mut row = l_row.to_vec();
        row.resize(width, None);
        for (ri, &target) in right_targets.iter().enumerate() {
            if row[target].is_none() {
                row[target] = r_row[ri].clone();
            }
        }
        row
    };
    let compatible = |l_row: &[Option<Term>], r_row: &[Option<Term>]| -> bool {
        for &(l, r) in &shared {
            if let (Some(a), Some(b)) = (&l_row[l], &r_row[r]) {
                if a != b {
                    return false;
                }
            }
        }
        true
    };

    if !keys.is_empty() || shared.is_empty() {
        // Build hash index on the right side.
        let mut table: HashMap<Vec<&Option<Term>>, Vec<usize>> = HashMap::new();
        for (ri, r_row) in right.rows.iter().enumerate() {
            let key = keys.iter().map(|&(_, r)| &r_row[r]).collect();
            table.entry(key).or_default().push(ri);
        }
        for l_row in &left.rows {
            let key: Vec<&Option<Term>> = keys.iter().map(|&(l, _)| &l_row[l]).collect();
            let mut matched = false;
            if let Some(candidates) = table.get(&key) {
                for &ri in candidates {
                    let r_row = &right.rows[ri];
                    if compatible(l_row, r_row) {
                        out.rows.push(merge(l_row, r_row));
                        matched = true;
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut row = l_row.clone();
                row.resize(width, None);
                out.rows.push(row);
            }
            meter.charge_intermediate(
                out.rows.len() as u64,
                term_table_bytes(out.rows.len(), width),
            )?;
        }
    } else {
        // Nested loop with compatibility semantics.
        for l_row in &left.rows {
            let mut matched = false;
            for r_row in &right.rows {
                if compatible(l_row, r_row) {
                    out.rows.push(merge(l_row, r_row));
                    matched = true;
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut row = l_row.clone();
                row.resize(width, None);
                out.rows.push(row);
            }
            meter.charge_intermediate(
                out.rows.len() as u64,
                term_table_bytes(out.rows.len(), width),
            )?;
        }
    }
    Ok(out)
}

/// `left`'s variables followed by those of `right` it lacks, and where each
/// of `right`'s columns lands among them.
fn merged_vars(left: &[String], right: &[String]) -> (Vec<String>, Vec<usize>) {
    let mut vars = left.to_vec();
    let targets = (right.iter())
        .map(|v| {
            vars.iter().position(|x| x == v).unwrap_or_else(|| {
                vars.push(v.clone());
                vars.len() - 1
            })
        })
        .collect();
    (vars, targets)
}

/// Bag union with schema alignment.
fn union(left: RowTable, right: RowTable) -> RowTable {
    let (vars, map_right) = merged_vars(&left.vars, &right.vars);
    let width = vars.len();
    let mut out = RowTable::with_vars(vars);
    for mut row in left.rows {
        row.resize(width, None);
        out.rows.push(row);
    }
    for row in right.rows {
        let mut new_row = vec![None; out.vars.len()];
        for (ri, v) in row.into_iter().enumerate() {
            new_row[map_right[ri]] = v;
        }
        out.rows.push(new_row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tbl(vars: &[&str], rows: Vec<Vec<Option<Term>>>) -> RowTable {
        RowTable {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    fn i(v: i64) -> Option<Term> {
        Some(Term::integer(v))
    }

    #[test]
    fn inner_join_on_shared() {
        let a = tbl(&["x", "y"], vec![vec![i(1), i(10)], vec![i(2), i(20)]]);
        let b = tbl(&["x", "z"], vec![vec![i(1), i(100)], vec![i(3), i(300)]]);
        let j = join(a, b, JoinKind::Inner, &mut BudgetMeter::unlimited()).unwrap();
        assert_eq!(j.vars, vec!["x", "y", "z"]);
        assert_eq!(j.rows, vec![vec![i(1), i(10), i(100)]]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
        let b = tbl(&["x", "z"], vec![vec![i(1), i(100)]]);
        let j = join(a, b, JoinKind::Left, &mut BudgetMeter::unlimited()).unwrap();
        assert_eq!(j.rows.len(), 2);
        assert_eq!(j.rows[1], vec![i(2), None]);
    }

    #[test]
    fn join_with_partially_unbound_shared_var() {
        // 'g' is shared but sometimes unbound on the left (e.g. OPTIONAL
        // output): unbound is compatible with anything.
        let a = tbl(&["x", "g"], vec![vec![i(1), None], vec![i(2), i(9)]]);
        let b = tbl(&["x", "g"], vec![vec![i(1), i(7)], vec![i(2), i(8)]]);
        let j = join(a, b, JoinKind::Inner, &mut BudgetMeter::unlimited()).unwrap();
        // Row (1, None) joins (1, 7) → (1, 7); row (2, 9) vs (2, 8) clash.
        assert_eq!(j.rows, vec![vec![i(1), i(7)]]);
    }

    #[test]
    fn cross_product_when_no_shared() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(2)]]);
        let b = tbl(&["y"], vec![vec![i(3)]]);
        let j = join(a, b, JoinKind::Inner, &mut BudgetMeter::unlimited()).unwrap();
        assert_eq!(j.rows.len(), 2);
    }

    #[test]
    fn union_aligns_schemas() {
        let a = tbl(&["x", "y"], vec![vec![i(1), i(2)]]);
        let b = tbl(&["y", "z"], vec![vec![i(5), i(6)]]);
        let u = union(a, b);
        assert_eq!(u.vars, vec!["x", "y", "z"]);
        assert_eq!(u.rows[0], vec![i(1), i(2), None]);
        assert_eq!(u.rows[1], vec![None, i(5), i(6)]);
    }

    #[test]
    fn bag_semantics_preserved() {
        let a = tbl(&["x"], vec![vec![i(1)], vec![i(1)]]);
        let b = tbl(&["x"], vec![vec![i(1)], vec![i(1)]]);
        let j = join(a, b, JoinKind::Inner, &mut BudgetMeter::unlimited()).unwrap();
        // 2 × 2 duplicates → 4 rows.
        assert_eq!(j.rows.len(), 4);
    }

    #[test]
    fn out_of_range_slices_clamp_to_empty() {
        let mut rows = vec![1, 2, 3];
        slice_rows(&mut rows, 7, Some(usize::MAX));
        assert!(rows.is_empty());
        let mut rows = vec![1, 2, 3];
        slice_rows(&mut rows, 1, Some(usize::MAX));
        assert_eq!(rows, vec![2, 3]);
    }
}
