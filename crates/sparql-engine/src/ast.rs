//! Abstract syntax tree for parsed SPARQL SELECT queries.
//!
//! Prefixed names are expanded to full IRIs during parsing, so the AST only
//! carries absolute IRIs. Expressions and aggregates are shared with the
//! algebra layer (the translation is mostly structural).

use rdf_model::Term;

/// A term position in a triple pattern: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternTerm {
    /// `?name` variable.
    Var(String),
    /// Concrete RDF term (IRI, literal, blank node).
    Const(Term),
}

impl PatternTerm {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            PatternTerm::Var(v) => Some(v),
            PatternTerm::Const(_) => None,
        }
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: PatternTerm,
    /// Predicate position.
    pub predicate: PatternTerm,
    /// Object position.
    pub object: PatternTerm,
}

impl TriplePattern {
    /// Construct a pattern.
    pub fn new(subject: PatternTerm, predicate: PatternTerm, object: PatternTerm) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// Variables mentioned by this pattern, in S-P-O order.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(|t| t.as_var())
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Built-in functions supported by the engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Func {
    /// `STR(x)` — lexical form.
    Str,
    /// `LANG(x)` — language tag or "".
    Lang,
    /// `DATATYPE(x)`.
    Datatype,
    /// `BOUND(?x)`.
    Bound,
    /// `isIRI`/`isURI`.
    IsIri,
    /// `isLiteral`.
    IsLiteral,
    /// `isBlank`.
    IsBlank,
    /// `REGEX(text, pattern [, flags])`.
    Regex,
    /// `YEAR(dateTime)`.
    Year,
    /// `MONTH(dateTime)`.
    Month,
    /// `DAY(dateTime)`.
    Day,
    /// Datatype cast written as a function call on a datatype IRI, e.g.
    /// `xsd:dateTime(?date)`. Payload is the datatype IRI.
    Cast(String),
}

/// Aggregate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `SAMPLE`
    Sample,
}

/// A SPARQL expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Variable reference.
    Var(String),
    /// Constant term.
    Const(Term),
    /// `a && b`
    And(Box<Expr>, Box<Expr>),
    /// `a || b`
    Or(Box<Expr>, Box<Expr>),
    /// `!a`
    Not(Box<Expr>),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `expr IN (e1, e2, ...)`; `negated` for `NOT IN`.
    In {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// Built-in function call.
    Call(Func, Vec<Expr>),
    /// Aggregate expression (valid in SELECT/HAVING/ORDER BY of a grouped
    /// query). `expr` is `None` for `COUNT(*)`.
    Aggregate {
        /// Aggregate operation.
        op: AggOp,
        /// `DISTINCT` modifier.
        distinct: bool,
        /// Aggregated expression; `None` means `*`.
        expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Collect non-aggregate variables referenced by the expression.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(a) | Expr::Neg(a) => a.collect_vars(out),
            Expr::In { expr, list, .. } => {
                expr.collect_vars(out);
                for e in list {
                    e.collect_vars(out);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::Aggregate { expr, .. } => {
                if let Some(e) = expr {
                    e.collect_vars(out);
                }
            }
        }
    }

    /// Does the expression contain an aggregate anywhere?
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Var(_) | Expr::Const(_) => false,
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.has_aggregate() || b.has_aggregate()
            }
            Expr::Not(a) | Expr::Neg(a) => a.has_aggregate(),
            Expr::In { expr, list, .. } => {
                expr.has_aggregate() || list.iter().any(Expr::has_aggregate)
            }
            Expr::Call(_, args) => args.iter().any(Expr::has_aggregate),
        }
    }
}

/// One item of the SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// Plain variable.
    Var(String),
    /// `(expr AS ?var)` — possibly containing aggregates.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Target variable name.
        alias: String,
    },
}

/// The SELECT projection: `*` or an explicit item list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// Explicit items.
    Items(Vec<SelectItem>),
}

/// One element of a group graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElem {
    /// A triple pattern.
    Triple(TriplePattern),
    /// `FILTER expr` (applies to the whole group).
    Filter(Expr),
    /// `OPTIONAL { ... }`.
    Optional(GroupGraphPattern),
    /// `{A} UNION {B} (UNION {C})*`.
    Union(Vec<GroupGraphPattern>),
    /// A plain nested group `{ ... }`.
    Group(GroupGraphPattern),
    /// A nested `SELECT` subquery.
    SubSelect(Box<SelectQuery>),
    /// `GRAPH <uri> { ... }`.
    Graph(String, GroupGraphPattern),
    /// `BIND(expr AS ?var)`.
    Bind(Expr, String),
}

/// A `{ ... }` group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupGraphPattern {
    /// Elements in source order.
    pub elems: Vec<PatternElem>,
}

impl GroupGraphPattern {
    /// Variables visible (in scope) outside this group, per the SPARQL
    /// variable-scope rules (filters don't bind; subselects expose only
    /// their projection).
    pub fn in_scope_vars(&self, out: &mut Vec<String>) {
        fn push(out: &mut Vec<String>, v: &str) {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        }
        for elem in &self.elems {
            match elem {
                PatternElem::Triple(t) => {
                    for v in t.variables() {
                        push(out, v);
                    }
                }
                PatternElem::Filter(_) => {}
                PatternElem::Optional(g) | PatternElem::Group(g) | PatternElem::Graph(_, g) => {
                    g.in_scope_vars(out)
                }
                PatternElem::Union(branches) => {
                    for b in branches {
                        b.in_scope_vars(out);
                    }
                }
                PatternElem::SubSelect(q) => {
                    for v in q.projected_vars() {
                        push(out, &v);
                    }
                }
                PatternElem::Bind(_, v) => push(out, v),
            }
        }
    }
}

/// Sort direction plus key expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderKey {
    /// Key expression (usually a variable).
    pub expr: Expr,
    /// Ascending?
    pub ascending: bool,
}

/// A parsed SELECT query (top-level or subquery).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection.
    pub projection: Projection,
    /// `FROM` graph IRIs (empty in subqueries; they inherit).
    pub from: Vec<String>,
    /// The WHERE pattern.
    pub pattern: GroupGraphPattern,
    /// `GROUP BY` variables (we support variable keys, which is all
    /// RDFFrames generates).
    pub group_by: Vec<String>,
    /// `HAVING` constraints (may contain aggregates).
    pub having: Vec<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// `OFFSET`.
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// Does this query aggregate (explicit GROUP BY or aggregates in the
    /// projection/HAVING)?
    pub fn is_aggregated(&self) -> bool {
        if !self.group_by.is_empty() || !self.having.is_empty() {
            return true;
        }
        match &self.projection {
            Projection::Star => false,
            Projection::Items(items) => items.iter().any(|i| match i {
                SelectItem::Var(_) => false,
                SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            }),
        }
    }

    /// Names of the variables this query projects (resolving `*` against the
    /// pattern's in-scope variables).
    pub fn projected_vars(&self) -> Vec<String> {
        match &self.projection {
            Projection::Star => {
                let mut vars = Vec::new();
                self.pattern.in_scope_vars(&mut vars);
                vars
            }
            Projection::Items(items) => items
                .iter()
                .map(|i| match i {
                    SelectItem::Var(v) => v.clone(),
                    SelectItem::Expr { alias, .. } => alias.clone(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: &str) -> PatternTerm {
        PatternTerm::Var(v.into())
    }

    #[test]
    fn triple_vars() {
        let t = TriplePattern::new(
            var("s"),
            PatternTerm::Const(Term::iri("http://p")),
            var("o"),
        );
        let vs: Vec<_> = t.variables().collect();
        assert_eq!(vs, vec!["s", "o"]);
    }

    #[test]
    fn in_scope_vars_through_union_and_optional() {
        let g = GroupGraphPattern {
            elems: vec![
                PatternElem::Triple(TriplePattern::new(var("a"), var("p"), var("b"))),
                PatternElem::Optional(GroupGraphPattern {
                    elems: vec![PatternElem::Triple(TriplePattern::new(
                        var("a"),
                        var("q"),
                        var("c"),
                    ))],
                }),
                PatternElem::Union(vec![
                    GroupGraphPattern {
                        elems: vec![PatternElem::Triple(TriplePattern::new(
                            var("a"),
                            var("r"),
                            var("d"),
                        ))],
                    },
                    GroupGraphPattern {
                        elems: vec![PatternElem::Triple(TriplePattern::new(
                            var("a"),
                            var("r"),
                            var("e"),
                        ))],
                    },
                ]),
            ],
        };
        let mut vars = Vec::new();
        g.in_scope_vars(&mut vars);
        assert_eq!(vars, vec!["a", "p", "b", "q", "c", "r", "d", "e"]);
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Aggregate {
                op: AggOp::Count,
                distinct: true,
                expr: Some(Box::new(Expr::Var("movie".into()))),
            }),
            Box::new(Expr::Const(Term::integer(50))),
        );
        assert!(e.has_aggregate());
        let q = SelectQuery {
            distinct: false,
            projection: Projection::Items(vec![SelectItem::Expr {
                expr: e,
                alias: "c".into(),
            }]),
            from: vec![],
            pattern: GroupGraphPattern::default(),
            group_by: vec![],
            having: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert!(q.is_aggregated());
    }
}
