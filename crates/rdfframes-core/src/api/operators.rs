//! The operator vocabulary recorded by the Recorder.
//!
//! Each RDFFrame holds a FIFO queue of these; nothing touches the knowledge
//! graph until `execute` (lazy evaluation, Section 4.2 of the paper).

use super::conditions::Condition;
use super::rdfframe::RDFFrame;

/// A position in a seed triple pattern: a fresh column (variable) or a
/// constant (CURIE or absolute IRI, unexpanded — expansion happens at
/// translation when the prefix map is in scope).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Variable / column name.
    Var(String),
    /// Constant term written as in the API call (`dbpp:starring`,
    /// `<http://...>`, `"literal"`, `42`).
    Term(String),
}

impl Node {
    /// Variable name, if a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Node::Var(v) => Some(v),
            Node::Term(_) => None,
        }
    }
}

/// Navigation direction for `expand` (paper: `dir ∈ {in, out}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow the predicate from subject (source column) to object.
    Out,
    /// Follow the predicate from object (source column) to subject —
    /// `INCOMING` in the paper's listings.
    In,
}

/// Join types (paper: `jtype ∈ {⋈, ⟕, ⟖, ⟗}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Right outer join.
    Right,
    /// Full outer join (compiled to UNION of two OPTIONALs).
    Outer,
}

/// Aggregation functions (paper Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `SAMPLE`.
    Sample,
}

impl AggFunc {
    /// SPARQL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Sample => "SAMPLE",
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One recorded operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// `G.seed(s, p, o)` — the mandatory first operator.
    Seed {
        /// Subject position.
        subject: Node,
        /// Predicate position.
        predicate: Node,
        /// Object position.
        object: Node,
    },
    /// `expand(src, pred, dst, dir, optional)`.
    Expand {
        /// Column navigated from.
        src: String,
        /// Predicate (CURIE or IRI).
        predicate: String,
        /// New column navigated to.
        dst: String,
        /// Direction.
        direction: Direction,
        /// OPTIONAL navigation (keeps rows without the edge).
        optional: bool,
    },
    /// `filter({col: [conds]})` for one column.
    Filter {
        /// Filtered column.
        column: String,
        /// Parsed conditions (conjunctive).
        conditions: Vec<Condition>,
    },
    /// A raw SPARQL filter expression (escape hatch, e.g.
    /// `year(xsd:dateTime(?date)) >= 2005`).
    FilterRaw(String),
    /// `select_cols(cols)`.
    SelectCols(Vec<String>),
    /// `group_by(cols)` — must be followed by an aggregation.
    GroupBy(Vec<String>),
    /// An aggregation attached to the preceding `group_by` (or standing
    /// alone for whole-frame `aggregate`).
    Aggregation {
        /// Aggregate function.
        func: AggFunc,
        /// Source column.
        src: String,
        /// Output column name.
        alias: String,
        /// `DISTINCT` within the aggregate.
        distinct: bool,
    },
    /// `join(other, col, col2, jtype, new_col)`.
    Join {
        /// The other frame (with its own recorded queue).
        other: RDFFrame,
        /// Join column in `self`.
        col: String,
        /// Join column in `other`.
        col2: String,
        /// Join type.
        jtype: JoinType,
        /// Name for the joined column (defaults to `col`).
        new_col: Option<String>,
    },
    /// `sort([(col, order)])`.
    Sort(Vec<(String, SortOrder)>),
    /// `head(k, offset)`.
    Head {
        /// Row count.
        k: usize,
        /// Starting row.
        offset: usize,
    },
    /// `cache()` — a logical marker with no effect on the generated query;
    /// in the paper's Python it shares the recorded prefix between frames,
    /// which Rust clones give us for free. Reuse of the *result* is the
    /// engine's job: it detects repeated subplans structurally.
    Cache,
}

impl Operator {
    /// Columns introduced by this operator (used for validation).
    pub fn introduces(&self) -> Vec<&str> {
        match self {
            Operator::Seed {
                subject,
                predicate,
                object,
            } => [subject, predicate, object]
                .into_iter()
                .filter_map(Node::as_var)
                .collect(),
            Operator::Expand { dst, predicate, .. } => {
                let mut cols = vec![dst.as_str()];
                // A variable predicate (`?p`) binds a column too.
                if let Some(v) = predicate.strip_prefix('?') {
                    cols.push(v);
                }
                cols
            }
            Operator::Aggregation { alias, .. } => vec![alias],
            _ => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_introduces_vars_only() {
        let op = Operator::Seed {
            subject: Node::Var("movie".into()),
            predicate: Node::Term("dbpp:starring".into()),
            object: Node::Var("actor".into()),
        };
        assert_eq!(op.introduces(), vec!["movie", "actor"]);
    }

    #[test]
    fn agg_keywords() {
        assert_eq!(AggFunc::Count.keyword(), "COUNT");
        assert_eq!(AggFunc::Sample.keyword(), "SAMPLE");
    }
}
