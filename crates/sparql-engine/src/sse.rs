//! Plans as indented S-expressions — what a query executes, DAG included.
//!
//! The notation follows the SPARQL S-expression idiom (`(project (?s)
//! (bgp (triple ?s ?p ?o)))`), one plan node per line. A subplan the
//! columnar executor evaluates once ([`crate::eval::share`]) is printed in
//! full at its first occurrence as `(shared #k …)` and as `(ref #k)` at every
//! other one, so the text shows the DAG that runs rather than the tree that
//! was written.

use std::fmt::{self, Display, Write};

use crate::algebra::{GraphRef, Plan, PushedFilter};
use crate::ast::{AggOp, ArithOp, CmpOp, Expr, Func, OrderKey, PatternTerm, TriplePattern};
use crate::eval::share::Shared;

impl Plan {
    /// Render the plan as an indented S-expression, shared subplans marked.
    pub fn to_sse(&self) -> String {
        let shared = Shared::of(self);
        let mut printed = vec![false; shared.len()];
        let mut out = String::new();
        write_node(&mut out, self, 0, &shared, &mut printed);
        out
    }
}

fn write_node(out: &mut String, plan: &Plan, depth: usize, shared: &Shared, printed: &mut [bool]) {
    let indent = "  ".repeat(depth);
    let Some(k) = shared.class(plan) else {
        return write_operator(out, plan, depth, shared, printed);
    };
    if std::mem::replace(&mut printed[k], true) {
        let _ = write!(out, "{indent}(ref #{k})");
        return;
    }
    let _ = writeln!(out, "{indent}(shared #{k}");
    write_operator(out, plan, depth + 1, shared, printed);
    out.push(')');
}

fn write_operator(
    out: &mut String,
    plan: &Plan,
    depth: usize,
    shared: &Shared,
    printed: &mut [bool],
) {
    let indent = "  ".repeat(depth);
    let _ = write!(out, "{indent}(");
    // `write!` into a `String` cannot fail.
    let _ = match plan {
        Plan::Unit => write!(out, "table unit"),
        Plan::Bgp {
            patterns,
            graph,
            filters,
        } => {
            out.push_str("bgp");
            write_graph(out, graph);
            write_triples(out, &indent, patterns, filters);
            Ok(())
        }
        Plan::Join(..) => write!(out, "join"),
        Plan::LeftJoin(..) => write!(out, "leftjoin"),
        // The bound pattern follows the left input: read top to bottom, the
        // node is "each row of this, extended by matches of that".
        Plan::BindLeftJoin { graph, .. } => {
            out.push_str("bindleftjoin");
            write_graph(out, graph);
            Ok(())
        }
        Plan::MergeJoin { key, .. } => write!(out, "mergejoin ?{key}"),
        Plan::MergeLeftJoin { key, .. } => write!(out, "mergeleftjoin ?{key}"),
        Plan::Union(..) => write!(out, "union"),
        Plan::Filter(expr, _) => write!(out, "filter {}", Sse(expr)),
        Plan::Extend(var, expr, _) => write!(out, "extend ?{var} {}", Sse(expr)),
        Plan::Group {
            keys,
            aggs,
            sorted_on,
            ..
        } => {
            let _ = write!(out, "group {} (", Vars(keys));
            for (i, a) in aggs.iter().enumerate() {
                let sep = if i == 0 { "" } else { " " };
                let _ = write!(out, "{sep}(?{} ", a.output);
                let _ = write_aggregate(out, a.op, a.distinct, a.expr.as_ref());
                out.push(')');
            }
            out.push(')');
            match sorted_on.is_empty() {
                true => Ok(()),
                false => write!(out, " :sorted-on {}", Vars(sorted_on)),
            }
        }
        Plan::Project(vars, _) => write!(out, "project {}", Vars(vars)),
        Plan::Distinct(_) => write!(out, "distinct"),
        Plan::SortedDistinct { order, .. } => write!(out, "distinct :sorted-on {}", Vars(order)),
        Plan::OrderBy(keys, _) => write!(out, "order {}", Keys(keys)),
        Plan::TopK { keys, k, .. } => write!(out, "top {k} {}", Keys(keys)),
        Plan::Slice { limit, offset, .. } => match limit {
            Some(limit) => write!(out, "slice {offset} {limit}"),
            None => write!(out, "slice {offset} _"),
        },
    };
    for child in plan.children() {
        out.push('\n');
        write_node(out, child, depth + 1, shared, printed);
    }
    if let Plan::BindLeftJoin {
        pattern, filters, ..
    } = plan
    {
        write_triples(out, &indent, std::slice::from_ref(pattern), filters);
    }
    out.push(')');
}

fn write_graph(out: &mut String, graph: &GraphRef) {
    if let GraphRef::Named(uri) = graph {
        let _ = write!(out, " :graph <{uri}>");
    }
}

/// A BGP's patterns and pushed filters, one per line below a node header.
fn write_triples(
    out: &mut String,
    indent: &str,
    patterns: &[TriplePattern],
    filters: &[PushedFilter],
) {
    for p in patterns {
        let [s, p, o] = [&p.subject, &p.predicate, &p.object].map(Sse);
        let _ = write!(out, "\n{indent}  (triple {s} {p} {o})");
    }
    for f in filters {
        let _ = write!(out, "\n{indent}  (filter {})", Sse(&f.expr));
    }
}

fn write_aggregate(
    out: &mut impl Write,
    op: AggOp,
    distinct: bool,
    expr: Option<&Expr>,
) -> fmt::Result {
    let name = match op {
        AggOp::Count => "count",
        AggOp::Sum => "sum",
        AggOp::Avg => "avg",
        AggOp::Min => "min",
        AggOp::Max => "max",
        AggOp::Sample => "sample",
    };
    write!(out, "({name}")?;
    if distinct {
        write!(out, " distinct")?;
    }
    if let Some(e) = expr {
        write!(out, " {}", Sse(e))?;
    }
    write!(out, ")")
}

/// `Display` in S-expression notation.
struct Sse<T>(T);

impl Display for Sse<&PatternTerm> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            PatternTerm::Var(v) => write!(f, "?{v}"),
            PatternTerm::Const(t) => write!(f, "{t}"),
        }
    }
}

impl Display for Sse<&Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nary = |f: &mut fmt::Formatter<'_>, op: &dyn Display, args: &[&Expr]| {
            write!(f, "({op}")?;
            for a in args {
                write!(f, " {}", Sse(*a))?;
            }
            write!(f, ")")
        };
        match self.0 {
            Expr::Var(v) => write!(f, "?{v}"),
            Expr::Const(t) => write!(f, "{t}"),
            Expr::And(a, b) => nary(f, &"&&", &[a, b]),
            Expr::Or(a, b) => nary(f, &"||", &[a, b]),
            Expr::Not(a) => nary(f, &"!", &[a]),
            Expr::Neg(a) => nary(f, &"-", &[a]),
            Expr::Cmp(op, a, b) => {
                let op = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Neq => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                nary(f, &op, &[a, b])
            }
            Expr::Arith(op, a, b) => {
                let op = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                nary(f, &op, &[a, b])
            }
            Expr::In {
                expr,
                list,
                negated,
            } => {
                let args: Vec<&Expr> = std::iter::once(&**expr).chain(list).collect();
                nary(f, if *negated { &"notin" } else { &"in" }, &args)
            }
            Expr::Call(func, args) => {
                let args: Vec<&Expr> = args.iter().collect();
                let name = match func {
                    Func::Str => "str",
                    Func::Lang => "lang",
                    Func::Datatype => "datatype",
                    Func::Bound => "bound",
                    Func::IsIri => "isiri",
                    Func::IsLiteral => "isliteral",
                    Func::IsBlank => "isblank",
                    Func::Regex => "regex",
                    Func::Year => "year",
                    Func::Month => "month",
                    Func::Day => "day",
                    Func::Cast(iri) => return nary(f, &format_args!("<{iri}>"), &args),
                };
                nary(f, &name, &args)
            }
            Expr::Aggregate { op, distinct, expr } => {
                write_aggregate(f, *op, *distinct, expr.as_deref())
            }
        }
    }
}

/// `(?a ?b …)`.
struct Vars<'a>(&'a [String]);

impl Display for Vars<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            write!(f, "{}?{v}", if i == 0 { "" } else { " " })?;
        }
        write!(f, ")")
    }
}

/// `((asc ?a) (desc ?b) …)`.
struct Keys<'a>(&'a [OrderKey]);

impl Display for Keys<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, k) in self.0.iter().enumerate() {
            let (sep, dir) = (
                if i == 0 { "" } else { " " },
                if k.ascending { "asc" } else { "desc" },
            );
            write!(f, "{sep}({dir} {})", Sse(&k.expr))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use rdf_model::Dataset;
    use std::sync::Arc;

    fn explain(query: &str) -> String {
        let engine = Engine::new(Arc::new(Dataset::new()));
        engine.prepare(query).unwrap().explain()
    }

    #[test]
    fn a_plain_select_reads_like_the_sparql_algebra() {
        assert_eq!(
            explain("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER(?o > 3) } LIMIT 5"),
            "(slice 0 5\n  \
               (project (?s)\n    \
                 (bgp\n      \
                   (triple ?s <http://x/p> ?o)\n      \
                   (filter (> ?o \"3\"^^<http://www.w3.org/2001/XMLSchema#integer>)))))"
        );
    }

    #[test]
    fn a_repeated_subplan_is_printed_once_and_referenced() {
        let sse = explain(
            "SELECT ?s ?n WHERE { \
               { ?s <http://x/p> ?o } UNION { ?s <http://x/q> ?o } \
               { SELECT ?s (COUNT(?o) AS ?n) WHERE { \
                   { ?s <http://x/p> ?o } UNION { ?s <http://x/q> ?o } } GROUP BY ?s } }",
        );
        assert_eq!(sse.matches("(shared #0").count(), 1, "{sse}");
        assert_eq!(sse.matches("(ref #0)").count(), 1, "{sse}");
        assert_eq!(sse.matches("(union").count(), 1, "{sse}");
    }
}
