//! Translation from the parsed AST to the SPARQL algebra.
//!
//! The algebra follows the SPARQL 1.1 spec structure (Section 18): group
//! graph patterns become joins of BGPs / `LeftJoin`s / `Union`s, group-level
//! `FILTER`s apply to the whole group, aggregation inserts a `Group` node
//! whose aggregate expressions are pulled out of `SELECT` and `HAVING`, and
//! solution modifiers wrap the plan in the spec-mandated order
//! (Extend → OrderBy → Project → Distinct → Slice).

use crate::ast::{
    AggOp, Expr, GroupGraphPattern, OrderKey, PatternElem, Projection, SelectItem, SelectQuery,
    TriplePattern,
};
use crate::error::{EngineError, Result};
use rdf_model::{Dataset, TripleIndex};
use std::sync::Arc;

/// Which graph a BGP is matched against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GraphRef {
    /// The query's default graph(s) (`FROM`, or the whole dataset).
    Default,
    /// An explicit `GRAPH <uri>` context.
    Named(String),
}

impl GraphRef {
    /// The graphs a BGP over this reference scans, in scan order — one rule
    /// for the optimizer, the executor and the oracle: a named graph is
    /// itself; the default graph is the query's `FROM` list or, without one,
    /// the union of every graph in the dataset.
    pub(crate) fn uris<'a>(&'a self, dataset: &'a Dataset, from: &'a [String]) -> Vec<&'a str> {
        match self {
            GraphRef::Named(uri) => vec![uri],
            GraphRef::Default if from.is_empty() => dataset.graph_uris().collect(),
            GraphRef::Default => from.iter().map(String::as_str).collect(),
        }
    }

    /// The indexes behind [`GraphRef::uris`]; an unknown graph is an error.
    pub(crate) fn resolve(
        &self,
        dataset: &Dataset,
        from: &[String],
    ) -> Result<Vec<Arc<TripleIndex>>> {
        let index = |uri: &str| {
            let found = dataset.graph(uri).cloned();
            found.ok_or_else(|| EngineError::UnknownGraph(uri.to_string()))
        };
        self.uris(dataset, from).into_iter().map(index).collect()
    }
}

/// One aggregate computed by a [`Plan::Group`] node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Aggregate operation.
    pub op: AggOp,
    /// `DISTINCT` modifier.
    pub distinct: bool,
    /// Aggregated expression (`None` = `COUNT(*)`).
    pub expr: Option<Expr>,
    /// Output column name.
    pub output: String,
}

/// A single-variable `FILTER` conjunct the optimizer has sunk into a BGP.
///
/// Invariant: `expr` references exactly the one variable `var`, and `var`
/// is bound by some pattern of the BGP carrying the filter. Evaluators test
/// candidates against `expr` at the first pattern (in evaluation order)
/// that binds `var`, *before* the row is extended — rejected rows never
/// reach later patterns, so downstream index scans (and the `rows_scanned`
/// work metric) shrink identically on every evaluator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PushedFilter {
    /// The one variable the expression references.
    pub var: String,
    /// The predicate over `var` (error/unbound counts as rejected, exactly
    /// like a `FILTER` above the BGP).
    pub expr: Expr,
}

/// Route each pushed filter to the pattern it fires at — the first pattern
/// (in evaluation order) mentioning, and therefore newly binding, its
/// variable — paired with the variable's column index per `column_index`.
///
/// This attachment rule is load-bearing: every evaluator must reject the
/// same candidates at the same pattern for the differential suites' exact
/// `rows_scanned` parity to hold, so it lives here, once.
pub fn attach_filters<'f>(
    patterns: &[TriplePattern],
    filters: &'f [PushedFilter],
    column_index: impl Fn(&str) -> usize,
) -> Vec<Vec<(usize, &'f PushedFilter)>> {
    let mut per_pattern: Vec<Vec<(usize, &PushedFilter)>> =
        (0..patterns.len()).map(|_| Vec::new()).collect();
    for f in filters {
        // Unreachable panic: pushdown (the optimizer's first pass) places a
        // filter only in a BGP with a pattern mentioning its variable, and
        // when planning later splits that BGP it hands the filter to a star
        // that binds the variable. Nothing else in the workspace fills
        // `filters`.
        let at = patterns
            .iter()
            .position(|p| p.variables().any(|v| v == f.var))
            .expect("pushed filter var is bound by some pattern");
        per_pattern[at].push((column_index(&f.var), f));
    }
    per_pattern
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Plan {
    /// The unit table: one empty solution.
    Unit,
    /// A basic graph pattern evaluated against `graph`.
    Bgp {
        /// Triple patterns, in evaluation order (the optimizer may permute).
        patterns: Vec<TriplePattern>,
        /// Target graph.
        graph: GraphRef,
        /// Filters sunk into the extension loop by the optimizer. Always
        /// empty straight out of translation.
        filters: Vec<PushedFilter>,
    },
    /// Inner join.
    Join(Box<Plan>, Box<Plan>),
    /// Inner join whose inputs are both known to arrive sorted on `key`
    /// (ascending global [`rdf_model::TermId`] order, always bound). Never
    /// produced by translation; the optimizer rewrites [`Plan::Join`] into
    /// this when interesting-order tracking proves both sides sorted, and
    /// the columnar evaluator runs a linear merge over the key column
    /// slices instead of building a hash table (with a defensive run-time
    /// sortedness check that falls back to the hash join). The reference
    /// evaluator treats it exactly as [`Plan::Join`]; the merge emits pairs
    /// in the same left-major order the hash join does, so the evaluators
    /// stay row-for-row identical.
    MergeJoin {
        /// Left input (sorted on `key`).
        left: Box<Plan>,
        /// Right input (sorted on `key`).
        right: Box<Plan>,
        /// The shared join variable both inputs are sorted by.
        key: String,
    },
    /// Left outer join (`OPTIONAL`) whose inputs are both known to arrive
    /// sorted on `key` (same contract as [`Plan::MergeJoin`]). Never
    /// produced by translation; the optimizer rewrites [`Plan::LeftJoin`]
    /// into this, and the columnar evaluator runs a linear merge that emits
    /// unmatched left rows in place — exactly the hash left join's pair
    /// order — with the same run-time sortedness check + hash fallback.
    /// The reference evaluator treats it exactly as [`Plan::LeftJoin`].
    MergeLeftJoin {
        /// Left (preserved) input, sorted on `key`.
        left: Box<Plan>,
        /// Right (optional) input, sorted on `key`.
        right: Box<Plan>,
        /// The shared join variable both inputs are sorted by.
        key: String,
    },
    /// Left outer join (`OPTIONAL`).
    LeftJoin(Box<Plan>, Box<Plan>),
    /// Left outer join (`OPTIONAL`) whose right side is the one triple
    /// `pattern`, run by *binding*: each left row's values of the pattern's
    /// key variables (those the left side binds) are substituted into it
    /// and the store seeks just their matches, where a [`Plan::LeftJoin`]
    /// builds a hash table over the pattern's whole extent. A left row with
    /// the previous row's key reuses that row's matches. Never produced by
    /// translation; the optimizer rewrites a `LeftJoin` whose right side is
    /// a one-pattern BGP into this when binding is legal and estimated
    /// cheaper. Rows and their order are the left join's; the executor's
    /// bind level documents why.
    BindLeftJoin {
        /// Left (preserved) input; binds every key variable in every row.
        left: Box<Plan>,
        /// The right side's one triple pattern (boxed, so that the variant
        /// is no larger than the others).
        pattern: Box<TriplePattern>,
        /// The graph the pattern is matched against.
        graph: GraphRef,
        /// The right side's pushed filters, each on a variable the left
        /// side does not bind.
        filters: Vec<PushedFilter>,
    },
    /// Bag union.
    Union(Box<Plan>, Box<Plan>),
    /// Filter by effective boolean value.
    Filter(Expr, Box<Plan>),
    /// Bind `var := expr`.
    Extend(String, Expr, Box<Plan>),
    /// Grouping and aggregation.
    Group {
        /// Grouping variables.
        keys: Vec<String>,
        /// Aggregates to compute per group.
        aggs: Vec<AggSpec>,
        /// Input plan.
        input: Box<Plan>,
        /// Sort-order prefix of the input that covers exactly the grouping
        /// keys (ascending global [`rdf_model::TermId`] order). Empty
        /// straight out of translation; the optimizer fills it when
        /// interesting-order tracking proves the input sorted with the keys
        /// as a prefix. Purely informational today: the columnar evaluator
        /// verifies the claim at run time and counts it
        /// (`ExecStats::sorted_groups`) but groups by hashing either way —
        /// run detection measured no faster.
        sorted_on: Vec<String>,
    },
    /// Projection to the named columns.
    Project(Vec<String>, Box<Plan>),
    /// Duplicate elimination (keeps first occurrence).
    Distinct(Box<Plan>),
    /// Duplicate elimination over an input the optimizer proved sorted on
    /// `order` (the input's full interesting-order sequence). Never produced
    /// by translation. The columnar evaluator deduplicates by linear run
    /// detection over raw id column slices when `order` covers every output
    /// column (verified at run time together with sortedness, batch by
    /// batch; it switches to hashing, for good, the moment either fails).
    /// Keeps first occurrences in input order, exactly like
    /// [`Plan::Distinct`], which the reference evaluator runs it as.
    SortedDistinct {
        /// The variable sequence the input is sorted by.
        order: Vec<String>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Sorting.
    OrderBy(Vec<OrderKey>, Box<Plan>),
    /// Bounded sorting: the first `k` rows of the ORDER BY order. Never
    /// produced by translation; the optimizer fuses `Slice { limit }` over
    /// `OrderBy` into this so the evaluator can select top-k instead of
    /// fully sorting.
    TopK {
        /// Sort keys.
        keys: Vec<OrderKey>,
        /// Number of rows to keep (`limit + offset` of the enclosing slice).
        k: usize,
        /// Input plan.
        input: Box<Plan>,
    },
    /// LIMIT / OFFSET.
    Slice {
        /// Max rows (`None` = unlimited).
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
        /// Input plan.
        input: Box<Plan>,
    },
}

// Every plan node is a `Box<Plan>` held for the whole execution, so a
// variant that grows the enum grows every plan.
const _: () = assert!(std::mem::size_of::<Plan>() <= 88);

impl Plan {
    fn join(self, other: Plan) -> Plan {
        match (self, other) {
            (Plan::Unit, p) | (p, Plan::Unit) => p,
            (a, b) => Plan::Join(Box::new(a), Box::new(b)),
        }
    }

    /// The node's inputs, left before right — the order every evaluator
    /// visits them in.
    pub fn children(&self) -> impl Iterator<Item = &Plan> {
        let (a, b): (Option<&Plan>, Option<&Plan>) = match self {
            Plan::Unit | Plan::Bgp { .. } => (None, None),
            Plan::Join(a, b) | Plan::LeftJoin(a, b) | Plan::Union(a, b) => (Some(a), Some(b)),
            Plan::MergeJoin { left, right, .. } | Plan::MergeLeftJoin { left, right, .. } => {
                (Some(left), Some(right))
            }
            Plan::Filter(_, p)
            | Plan::Extend(_, _, p)
            | Plan::Project(_, p)
            | Plan::Distinct(p)
            | Plan::OrderBy(_, p)
            | Plan::BindLeftJoin { left: p, .. }
            | Plan::Group { input: p, .. }
            | Plan::SortedDistinct { input: p, .. }
            | Plan::TopK { input: p, .. }
            | Plan::Slice { input: p, .. } => (Some(p), None),
        };
        a.into_iter().chain(b)
    }
}

/// Translate a full SELECT query to a plan. `FROM` clauses are *not* encoded
/// in the plan; the engine resolves [`GraphRef::Default`] using the
/// query-level `FROM` list.
pub fn translate_query(query: &SelectQuery) -> Result<Plan> {
    let mut plan = translate_ggp(&query.pattern, &GraphRef::Default)?;

    let mut extends: Vec<(String, Expr)> = Vec::new();
    let mut having = query.having.clone();

    if query.is_aggregated() {
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut counter = 0usize;
        // Pull aggregates out of SELECT items.
        if let Projection::Items(items) = &query.projection {
            for item in items {
                if let SelectItem::Expr { expr, alias } = item {
                    if let Expr::Aggregate {
                        op,
                        distinct,
                        expr: inner,
                    } = expr
                    {
                        // Direct `(AGG(..) AS ?alias)`: name the aggregate
                        // output after the alias, no Extend needed.
                        aggs.push(AggSpec {
                            op: *op,
                            distinct: *distinct,
                            expr: inner.as_deref().cloned(),
                            output: alias.clone(),
                        });
                    } else {
                        let rewritten = extract_aggregates(expr, &mut aggs, &mut counter);
                        extends.push((alias.clone(), rewritten));
                    }
                }
            }
        }
        // Pull aggregates out of HAVING.
        having = having
            .iter()
            .map(|h| extract_aggregates(h, &mut aggs, &mut counter))
            .collect();
        plan = Plan::Group {
            keys: query.group_by.clone(),
            aggs,
            input: Box::new(plan),
            sorted_on: Vec::new(),
        };
    } else {
        if !query.having.is_empty() {
            return Err(EngineError::Semantic(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        if let Projection::Items(items) = &query.projection {
            for item in items {
                if let SelectItem::Expr { expr, alias } = item {
                    extends.push((alias.clone(), expr.clone()));
                }
            }
        }
    }

    for h in having {
        plan = Plan::Filter(h, Box::new(plan));
    }
    for (alias, expr) in extends {
        plan = Plan::Extend(alias, expr, Box::new(plan));
    }
    if !query.order_by.is_empty() {
        plan = Plan::OrderBy(query.order_by.clone(), Box::new(plan));
    }
    let projected = query.projected_vars();
    plan = Plan::Project(projected, Box::new(plan));
    if query.distinct {
        plan = Plan::Distinct(Box::new(plan));
    }
    if query.limit.is_some() || query.offset.is_some() {
        plan = Plan::Slice {
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

/// Replace every `Expr::Aggregate` inside `expr` with a fresh variable and
/// record the corresponding [`AggSpec`]. Identical aggregates are shared.
fn extract_aggregates(expr: &Expr, aggs: &mut Vec<AggSpec>, counter: &mut usize) -> Expr {
    match expr {
        Expr::Aggregate {
            op,
            distinct,
            expr: inner,
        } => {
            let inner = inner.as_deref().cloned();
            // Reuse an existing identical aggregate if present.
            if let Some(existing) = aggs
                .iter()
                .find(|a| a.op == *op && a.distinct == *distinct && a.expr == inner)
            {
                return Expr::Var(existing.output.clone());
            }
            let name = format!("__agg{counter}");
            *counter += 1;
            aggs.push(AggSpec {
                op: *op,
                distinct: *distinct,
                expr: inner,
                output: name.clone(),
            });
            Expr::Var(name)
        }
        Expr::Var(_) | Expr::Const(_) => expr.clone(),
        Expr::And(a, b) => Expr::And(
            Box::new(extract_aggregates(a, aggs, counter)),
            Box::new(extract_aggregates(b, aggs, counter)),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(extract_aggregates(a, aggs, counter)),
            Box::new(extract_aggregates(b, aggs, counter)),
        ),
        Expr::Not(a) => Expr::Not(Box::new(extract_aggregates(a, aggs, counter))),
        Expr::Neg(a) => Expr::Neg(Box::new(extract_aggregates(a, aggs, counter))),
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(extract_aggregates(a, aggs, counter)),
            Box::new(extract_aggregates(b, aggs, counter)),
        ),
        Expr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(extract_aggregates(a, aggs, counter)),
            Box::new(extract_aggregates(b, aggs, counter)),
        ),
        Expr::In {
            expr: e,
            list,
            negated,
        } => Expr::In {
            expr: Box::new(extract_aggregates(e, aggs, counter)),
            list: list
                .iter()
                .map(|i| extract_aggregates(i, aggs, counter))
                .collect(),
            negated: *negated,
        },
        Expr::Call(f, args) => Expr::Call(
            f.clone(),
            args.iter()
                .map(|a| extract_aggregates(a, aggs, counter))
                .collect(),
        ),
    }
}

/// Translate a group graph pattern under a graph context.
pub fn translate_ggp(group: &GroupGraphPattern, graph: &GraphRef) -> Result<Plan> {
    let mut plan = Plan::Unit;
    let mut filters: Vec<Expr> = Vec::new();
    let mut bgp: Vec<TriplePattern> = Vec::new();

    fn flush(plan: Plan, bgp: &mut Vec<TriplePattern>, graph: &GraphRef) -> Plan {
        if bgp.is_empty() {
            return plan;
        }
        let patterns = std::mem::take(bgp);
        plan.join(Plan::Bgp {
            patterns,
            graph: graph.clone(),
            filters: Vec::new(),
        })
    }

    for elem in &group.elems {
        match elem {
            PatternElem::Triple(t) => bgp.push(t.clone()),
            PatternElem::Filter(e) => filters.push(e.clone()),
            PatternElem::Optional(inner) => {
                plan = flush(plan, &mut bgp, graph);
                let right = translate_ggp(inner, graph)?;
                plan = Plan::LeftJoin(Box::new(plan), Box::new(right));
            }
            PatternElem::Union(branches) => {
                plan = flush(plan, &mut bgp, graph);
                let mut it = branches.iter();
                let first = it
                    .next()
                    .ok_or_else(|| EngineError::Semantic("empty UNION".into()))?;
                let mut u = translate_ggp(first, graph)?;
                for branch in it {
                    let b = translate_ggp(branch, graph)?;
                    u = Plan::Union(Box::new(u), Box::new(b));
                }
                plan = plan.join(u);
            }
            PatternElem::Group(inner) => {
                plan = flush(plan, &mut bgp, graph);
                plan = plan.join(translate_ggp(inner, graph)?);
            }
            PatternElem::SubSelect(q) => {
                plan = flush(plan, &mut bgp, graph);
                // Subqueries inherit the enclosing graph context: rebuild
                // their pattern under `graph` when it is a named graph.
                let sub = if *graph == GraphRef::Default {
                    translate_query(q)?
                } else {
                    translate_subquery_in_graph(q, graph)?
                };
                plan = plan.join(sub);
            }
            PatternElem::Graph(uri, inner) => {
                plan = flush(plan, &mut bgp, graph);
                let g = GraphRef::Named(uri.clone());
                plan = plan.join(translate_ggp(inner, &g)?);
            }
            PatternElem::Bind(e, v) => {
                plan = flush(plan, &mut bgp, graph);
                plan = Plan::Extend(v.clone(), e.clone(), Box::new(plan));
            }
        }
    }
    plan = flush(plan, &mut bgp, graph);
    for f in filters {
        plan = Plan::Filter(f, Box::new(plan));
    }
    Ok(plan)
}

/// Translate a subquery whose BGPs should match a specific named graph.
fn translate_subquery_in_graph(q: &SelectQuery, graph: &GraphRef) -> Result<Plan> {
    let plan = translate_query(q)?;
    Ok(rebind_graph(plan, graph))
}

fn rebind_graph(plan: Plan, graph: &GraphRef) -> Plan {
    match plan {
        Plan::Bgp {
            patterns,
            graph: GraphRef::Default,
            filters,
        } => Plan::Bgp {
            patterns,
            graph: graph.clone(),
            filters,
        },
        Plan::Bgp {
            patterns,
            graph,
            filters,
        } => Plan::Bgp {
            patterns,
            graph,
            filters,
        },
        Plan::Unit => Plan::Unit,
        Plan::Join(a, b) => Plan::Join(
            Box::new(rebind_graph(*a, graph)),
            Box::new(rebind_graph(*b, graph)),
        ),
        Plan::MergeJoin { left, right, key } => Plan::MergeJoin {
            left: Box::new(rebind_graph(*left, graph)),
            right: Box::new(rebind_graph(*right, graph)),
            key,
        },
        Plan::MergeLeftJoin { left, right, key } => Plan::MergeLeftJoin {
            left: Box::new(rebind_graph(*left, graph)),
            right: Box::new(rebind_graph(*right, graph)),
            key,
        },
        Plan::LeftJoin(a, b) => Plan::LeftJoin(
            Box::new(rebind_graph(*a, graph)),
            Box::new(rebind_graph(*b, graph)),
        ),
        Plan::BindLeftJoin {
            left,
            pattern,
            graph: own,
            filters,
        } => Plan::BindLeftJoin {
            left: Box::new(rebind_graph(*left, graph)),
            pattern,
            graph: match own {
                GraphRef::Default => graph.clone(),
                named => named,
            },
            filters,
        },
        Plan::Union(a, b) => Plan::Union(
            Box::new(rebind_graph(*a, graph)),
            Box::new(rebind_graph(*b, graph)),
        ),
        Plan::Filter(e, p) => Plan::Filter(e, Box::new(rebind_graph(*p, graph))),
        Plan::Extend(v, e, p) => Plan::Extend(v, e, Box::new(rebind_graph(*p, graph))),
        Plan::Group {
            keys,
            aggs,
            input,
            sorted_on,
        } => Plan::Group {
            keys,
            aggs,
            input: Box::new(rebind_graph(*input, graph)),
            sorted_on,
        },
        Plan::Project(vars, p) => Plan::Project(vars, Box::new(rebind_graph(*p, graph))),
        Plan::Distinct(p) => Plan::Distinct(Box::new(rebind_graph(*p, graph))),
        Plan::SortedDistinct { order, input } => Plan::SortedDistinct {
            order,
            input: Box::new(rebind_graph(*input, graph)),
        },
        Plan::OrderBy(keys, p) => Plan::OrderBy(keys, Box::new(rebind_graph(*p, graph))),
        Plan::TopK { keys, k, input } => Plan::TopK {
            keys,
            k,
            input: Box::new(rebind_graph(*input, graph)),
        },
        Plan::Slice {
            limit,
            offset,
            input,
        } => Plan::Slice {
            limit,
            offset,
            input: Box::new(rebind_graph(*input, graph)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PatternTerm;
    use rdf_model::Term;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let conv = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                PatternTerm::Var(v.to_string())
            } else {
                PatternTerm::Const(Term::iri(x.to_string()))
            }
        };
        TriplePattern::new(conv(s), conv(p), conv(o))
    }

    #[test]
    fn adjacent_triples_merge_into_one_bgp() {
        let g = GroupGraphPattern {
            elems: vec![
                PatternElem::Triple(tp("?a", "http://p", "?b")),
                PatternElem::Triple(tp("?b", "http://q", "?c")),
            ],
        };
        let plan = translate_ggp(&g, &GraphRef::Default).unwrap();
        match plan {
            Plan::Bgp { patterns, .. } => assert_eq!(patterns.len(), 2),
            other => panic!("expected single BGP, got {other:?}"),
        }
    }

    #[test]
    fn optional_becomes_leftjoin() {
        let g = GroupGraphPattern {
            elems: vec![
                PatternElem::Triple(tp("?a", "http://p", "?b")),
                PatternElem::Optional(GroupGraphPattern {
                    elems: vec![PatternElem::Triple(tp("?a", "http://q", "?c"))],
                }),
            ],
        };
        let plan = translate_ggp(&g, &GraphRef::Default).unwrap();
        assert!(matches!(plan, Plan::LeftJoin(..)));
    }

    #[test]
    fn filter_applies_to_whole_group() {
        let g = GroupGraphPattern {
            elems: vec![
                PatternElem::Filter(Expr::Const(Term::integer(1))),
                PatternElem::Triple(tp("?a", "http://p", "?b")),
            ],
        };
        let plan = translate_ggp(&g, &GraphRef::Default).unwrap();
        // Filter wraps the BGP even though it appears first in source order.
        assert!(matches!(plan, Plan::Filter(_, inner) if matches!(*inner, Plan::Bgp { .. })));
    }

    #[test]
    fn graph_context_propagates() {
        let g = GroupGraphPattern {
            elems: vec![PatternElem::Graph(
                "http://yago".into(),
                GroupGraphPattern {
                    elems: vec![PatternElem::Triple(tp("?a", "http://p", "?b"))],
                },
            )],
        };
        let plan = translate_ggp(&g, &GraphRef::Default).unwrap();
        match plan {
            Plan::Bgp { graph, .. } => assert_eq!(graph, GraphRef::Named("http://yago".into())),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_aggregates_are_deduplicated() {
        let count_movie = Expr::Aggregate {
            op: AggOp::Count,
            distinct: true,
            expr: Some(Box::new(Expr::Var("movie".into()))),
        };
        let mut aggs = Vec::new();
        let mut counter = 0;
        let a = extract_aggregates(&count_movie, &mut aggs, &mut counter);
        let b = extract_aggregates(&count_movie, &mut aggs, &mut counter);
        assert_eq!(a, b);
        assert_eq!(aggs.len(), 1);
    }
}
