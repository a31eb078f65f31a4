//! The [`RDFFrame`]: a lazy logical description of a table extracted from a
//! knowledge graph.
//!
//! Every method call appends an operator to the frame's FIFO queue (the
//! paper's *Recorder*); nothing executes until [`RDFFrame::execute`], which
//! triggers query-model generation, SPARQL translation, and endpoint
//! execution.

use dataframe::DataFrame;

use crate::client::Endpoint;
use crate::error::Result;
use crate::exec::Executor;
use crate::model::{generator, render};

use super::conditions::Condition;
use super::grouped::GroupedRDFFrame;
use super::knowledge_graph::KnowledgeGraph;
use super::operators::{AggFunc, Direction, JoinType, Operator, SortOrder};

/// A logical table described by a sequence of recorded operators
/// (paper Definition 2 + Section 4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct RDFFrame {
    graph: KnowledgeGraph,
    ops: Vec<Operator>,
}

impl PartialEq for KnowledgeGraph {
    fn eq(&self, other: &Self) -> bool {
        self.uri() == other.uri()
    }
}

impl RDFFrame {
    pub(crate) fn start(graph: KnowledgeGraph, seed: Operator) -> Self {
        RDFFrame {
            graph,
            ops: vec![seed],
        }
    }

    /// Reconstruct a frame from an explicit operator queue (advanced; used
    /// by evaluation baselines that split a pipeline into a navigational
    /// prefix and a client-side relational suffix).
    pub fn from_operators(graph: KnowledgeGraph, ops: Vec<Operator>) -> Self {
        RDFFrame { graph, ops }
    }

    /// The knowledge graph this frame reads from.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// The recorded operator queue (read-only).
    pub fn operators(&self) -> &[Operator] {
        &self.ops
    }

    fn push(mut self, op: Operator) -> Self {
        self.ops.push(op);
        self
    }

    /// Column names this frame would produce.
    pub fn columns(&self) -> Vec<String> {
        columns_of(&self.ops)
    }

    fn assert_column(&self, col: &str) {
        let cols = self.columns();
        assert!(
            cols.iter().any(|c| c == col),
            "unknown column '{col}' (frame has {cols:?})"
        );
    }

    // ---- navigational operators -------------------------------------

    /// Navigate out along `predicate` from `src` into a new column `dst`
    /// (required edge: rows without it are dropped).
    pub fn expand(self, src: &str, predicate: &str, dst: &str) -> Self {
        self.expand_dir(src, predicate, dst, Direction::Out, false)
    }

    /// Navigate with explicit direction and optionality (paper:
    /// `expand(col, pred, new_col, dir, is_opt)`).
    pub fn expand_dir(
        self,
        src: &str,
        predicate: &str,
        dst: &str,
        direction: Direction,
        optional: bool,
    ) -> Self {
        self.assert_column(src);
        self.push(Operator::Expand {
            src: src.to_string(),
            predicate: predicate.to_string(),
            dst: dst.to_string(),
            direction,
            optional,
        })
    }

    /// Optional outgoing navigation (keeps rows lacking the edge, with a
    /// null in `dst`).
    pub fn expand_optional(self, src: &str, predicate: &str, dst: &str) -> Self {
        self.expand_dir(src, predicate, dst, Direction::Out, true)
    }

    /// Incoming navigation (`INCOMING` in the paper's listings): `dst` is
    /// the *subject* of the matched triples.
    pub fn expand_in(self, src: &str, predicate: &str, dst: &str) -> Self {
        self.expand_dir(src, predicate, dst, Direction::In, false)
    }

    // ---- relational operators ----------------------------------------

    /// Filter rows by conditions on one column (conditions are conjunctive).
    ///
    /// # Panics
    /// Panics on an unparsable condition string; use [`RDFFrame::try_filter`]
    /// for a fallible variant.
    pub fn filter(self, column: &str, conditions: &[&str]) -> Self {
        self.try_filter(column, conditions)
            .expect("invalid filter condition")
    }

    /// Fallible [`RDFFrame::filter`].
    pub fn try_filter(self, column: &str, conditions: &[&str]) -> Result<Self> {
        self.assert_column(column);
        let parsed: Result<Vec<Condition>> =
            conditions.iter().map(|c| Condition::parse(c)).collect();
        Ok(self.push(Operator::Filter {
            column: column.to_string(),
            conditions: parsed?,
        }))
    }

    /// Attach a raw SPARQL filter expression (escape hatch for expressions
    /// the condition mini-language can't say, e.g.
    /// `year(xsd:dateTime(?date)) >= 2005`).
    pub fn filter_raw(self, expression: &str) -> Self {
        self.push(Operator::FilterRaw(expression.to_string()))
    }

    /// Keep only the given columns (paper: `select_cols`).
    pub fn select_cols(self, cols: &[&str]) -> Self {
        for c in cols {
            self.assert_column(c);
        }
        self.push(Operator::SelectCols(
            cols.iter().map(|s| s.to_string()).collect(),
        ))
    }

    /// Group by columns; returns a [`GroupedRDFFrame`] whose aggregation
    /// methods (`count`, `sum`, ...) produce the grouped frame.
    pub fn group_by(self, cols: &[&str]) -> GroupedRDFFrame {
        for c in cols {
            self.assert_column(c);
        }
        GroupedRDFFrame::new(self.push(Operator::GroupBy(
            cols.iter().map(|s| s.to_string()).collect(),
        )))
    }

    /// Whole-frame aggregate (paper: `aggregate(fn, col, new_col)`): one row,
    /// one column. No further operators may follow.
    pub fn aggregate(self, func: AggFunc, src: &str, alias: &str) -> Self {
        self.assert_column(src);
        self.push(Operator::Aggregation {
            func,
            src: src.to_string(),
            alias: alias.to_string(),
            distinct: false,
        })
    }

    /// Append an additional aggregation to a grouped frame (allows multiple
    /// aggregates over one `group_by`).
    pub fn agg(self, func: AggFunc, src: &str, alias: &str, distinct: bool) -> Self {
        self.push(Operator::Aggregation {
            func,
            src: src.to_string(),
            alias: alias.to_string(),
            distinct,
        })
    }

    /// Join with another frame on a same-named column.
    pub fn join(self, other: &RDFFrame, col: &str, jtype: JoinType) -> Self {
        self.join_on(other, col, col, None, jtype)
    }

    /// Join with full control (paper: `join(D2, col, col2, jtype,
    /// new_col)`).
    pub fn join_on(
        self,
        other: &RDFFrame,
        col: &str,
        col2: &str,
        new_col: Option<&str>,
        jtype: JoinType,
    ) -> Self {
        self.assert_column(col);
        self.push(Operator::Join {
            other: other.clone(),
            col: col.to_string(),
            col2: col2.to_string(),
            jtype,
            new_col: new_col.map(|s| s.to_string()),
        })
    }

    /// Sort by columns.
    pub fn sort(self, keys: &[(&str, SortOrder)]) -> Self {
        self.push(Operator::Sort(
            keys.iter().map(|(c, o)| (c.to_string(), *o)).collect(),
        ))
    }

    /// First `k` rows.
    pub fn head(self, k: usize) -> Self {
        self.push(Operator::Head { k, offset: 0 })
    }

    /// `k` rows starting at `offset` (paper: `head(k, i)`).
    pub fn head_offset(self, k: usize, offset: usize) -> Self {
        self.push(Operator::Head { k, offset })
    }

    /// The paper's `.cache()`: marks a frame that later frames are derived
    /// from more than once. It changes nothing in the generated query, and
    /// nothing needs it: a frame that is used several times is inlined once
    /// per use, the engine recognises the structurally equal subplans and
    /// evaluates each once, replaying the result to every use — with or
    /// without this marker (see "Shared subplans" in `ARCHITECTURE.md`).
    pub fn cache(self) -> Self {
        self.push(Operator::Cache)
    }

    // ---- query generation & execution ---------------------------------

    /// Generate the optimized SPARQL query for this frame (the paper's
    /// Generator + Translator pipeline). A frame the generator cannot
    /// translate is a typed error, never a panic.
    pub fn to_sparql(&self) -> Result<String> {
        let model = generator::build_query_model(self)?;
        Ok(render::render(&model))
    }

    /// Generate the *naive* SPARQL query (one subquery per operator) — the
    /// "Naive Query Generation" baseline of Section 6.3.
    pub fn to_naive_sparql(&self) -> Result<String> {
        let model = crate::model::naive::build_naive_model(self)?;
        Ok(render::render(&model))
    }

    /// Execute on an endpoint and return the result dataframe. This is the
    /// paper's special `execute` call that ends the lazy pipeline.
    pub fn execute<E: Endpoint + ?Sized>(&self, endpoint: &E) -> Result<DataFrame> {
        Executor::new().execute(self, endpoint)
    }

    /// Execute the naive translation (baseline measurement).
    pub fn execute_naive<E: Endpoint + ?Sized>(&self, endpoint: &E) -> Result<DataFrame> {
        Executor::new().execute_naive(self, endpoint)
    }
}

/// Compute the visible columns after a sequence of operators.
pub(crate) fn columns_of(ops: &[Operator]) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    let push = |cols: &mut Vec<String>, c: &str| {
        if !cols.iter().any(|x| x == c) {
            cols.push(c.to_string());
        }
    };
    for op in ops {
        match op {
            Operator::Seed { .. } | Operator::Expand { .. } => {
                for c in op.introduces() {
                    push(&mut cols, c);
                }
            }
            Operator::SelectCols(keep) => {
                cols.retain(|c| keep.contains(c));
            }
            Operator::GroupBy(keys) => {
                cols = keys.clone();
            }
            Operator::Aggregation { alias, .. } => push(&mut cols, alias),
            Operator::Join {
                other,
                col,
                col2,
                new_col,
                ..
            } => {
                let join_name = new_col.clone().unwrap_or_else(|| col.clone());
                // Rename self's join column.
                for c in cols.iter_mut() {
                    if c == col {
                        *c = join_name.clone();
                    }
                }
                for oc in columns_of(&other.ops) {
                    let name = if oc == *col2 { join_name.clone() } else { oc };
                    push(&mut cols, &name);
                }
            }
            Operator::Filter { .. }
            | Operator::FilterRaw(_)
            | Operator::Sort(_)
            | Operator::Head { .. }
            | Operator::Cache => {}
        }
    }
    cols
}

/// Is a frame (by its operator queue) *grouped* — i.e. its top-level query
/// model carries aggregates that haven't been wrapped by later operators?
pub fn ends_grouped(ops: &[Operator]) -> bool {
    let mut grouped = false;
    for op in ops {
        match op {
            Operator::GroupBy(_) | Operator::Aggregation { .. } => grouped = true,
            // Operators the generator handles inside the grouped model keep
            // it grouped; ones that force wrapping clear the flag.
            Operator::Filter { column, .. } if grouped && !is_agg_alias(ops, column) => {
                grouped = false; // wrapped (case 1)
            }
            Operator::Expand { .. } | Operator::Join { .. } if grouped => {
                grouped = false;
            }
            _ => {}
        }
    }
    grouped
}

/// Does any recorded aggregation name this column as its alias?
pub fn is_agg_alias(ops: &[Operator], column: &str) -> bool {
    ops.iter()
        .any(|op| matches!(op, Operator::Aggregation { alias, .. } if alias == column))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::new("http://dbpedia.org")
            .with_prefix("dbpp", "http://dbpedia.org/property/")
            .with_prefix("dbpr", "http://dbpedia.org/resource/")
    }

    #[test]
    fn columns_track_operators() {
        let g = graph();
        let f = g
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country");
        assert_eq!(f.columns(), vec!["movie", "actor", "country"]);
        let g2 = f.clone().group_by(&["actor"]).count("movie", "n", true);
        assert_eq!(g2.columns(), vec!["actor", "n"]);
        let sel = f.select_cols(&["movie"]);
        assert_eq!(sel.columns(), vec!["movie"]);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn expand_from_missing_column_panics() {
        let g = graph();
        let _ = g
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("nope", "dbpp:birthPlace", "c");
    }

    #[test]
    fn join_renames_columns() {
        let g = graph();
        let a = g.feature_domain_range("dbpp:starring", "movie", "actor");
        let b = g.feature_domain_range("dbpp:birthPlace", "person", "place");
        let j = a.join_on(&b, "actor", "person", Some("who"), JoinType::Inner);
        let cols = j.columns();
        assert!(cols.contains(&"who".to_string()), "{cols:?}");
        assert!(!cols.contains(&"person".to_string()));
        assert!(cols.contains(&"place".to_string()));
    }

    #[test]
    fn grouped_state_tracking() {
        let g = graph();
        let f = g.feature_domain_range("dbpp:starring", "movie", "actor");
        let grouped = f.clone().group_by(&["actor"]).count("movie", "n", false);
        assert!(ends_grouped(grouped.operators()));
        // Filter on the aggregate keeps it grouped (HAVING).
        let havinged = grouped.clone().filter("n", &[">=5"]);
        assert!(ends_grouped(havinged.operators()));
        // Expanding after grouping wraps (no longer grouped at top).
        let expanded = grouped.expand("actor", "dbpp:birthPlace", "c");
        assert!(!ends_grouped(expanded.operators()));
    }

    #[test]
    fn operators_recorded_in_fifo_order() {
        let g = graph();
        let f = g
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .filter("actor", &["isURI"])
            .head(10);
        let kinds: Vec<&str> = f
            .operators()
            .iter()
            .map(|op| match op {
                Operator::Seed { .. } => "seed",
                Operator::Filter { .. } => "filter",
                Operator::Head { .. } => "head",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["seed", "filter", "head"]);
    }
}
