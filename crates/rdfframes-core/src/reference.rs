//! Reference interpreter: direct evaluation of an RDFFrame's operator queue
//! over an in-memory graph, following the operator semantics of the paper's
//! Section 3 (with SPARQL-compatible mapping semantics for joins — unbound
//! is compatible with anything, per Section 5.2).
//!
//! This is the *oracle* for the semantic-correctness tests (Theorem 1): the
//! dataframe RDFFrames produces by compiling to SPARQL and executing on the
//! engine must equal the dataframe this interpreter produces by executing
//! the operators one by one.

use dataframe::{Cell, DataFrame, RowView};
use rdf_model::{Dataset, Term};
use sparql_engine::regex_lite::Regex;

use crate::api::conditions::{CmpOp, Condition, Value};
use crate::api::operators::{AggFunc, Direction, JoinType, Node, Operator};
use crate::api::rdfframe::RDFFrame;
use crate::client::convert::term_to_cell;
use crate::error::{FrameError, Result};

/// Evaluate a frame directly (no SPARQL) against a dataset.
pub fn evaluate_reference(frame: &RDFFrame, dataset: &Dataset) -> Result<DataFrame> {
    let resolver = DatasetResolver::new(dataset);
    resolver.resolve_frame(frame)
}

fn resolve_term(frame: &RDFFrame, written: &str) -> Result<Term> {
    let s = written.trim();
    if let Some(body) = s.strip_prefix('"').and_then(|x| x.strip_suffix('"')) {
        return Ok(Term::string(body.to_string()));
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Term::integer(i));
    }
    let iri = frame
        .graph()
        .prefixes()
        .expand(s)
        .map_err(|e| FrameError::Prefix(e.to_string()))?;
    Ok(Term::iri(iri))
}

/// Evaluate one triple pattern over the frame's graph in `dataset` into a
/// dataframe of its variable columns.
pub fn pattern_frame(
    frame: &RDFFrame,
    dataset: &Dataset,
    subject: &Node,
    predicate: &Node,
    object: &Node,
) -> Result<DataFrame> {
    let mut columns: Vec<String> = Vec::new();
    for n in [subject, predicate, object] {
        if let Node::Var(v) = n {
            if !columns.contains(v) {
                columns.push(v.clone());
            }
        }
    }
    let resolve = |n: &Node| -> Result<Option<Term>> {
        match n {
            Node::Var(_) => Ok(None),
            Node::Term(t) => Ok(Some(resolve_term(frame, t)?)),
        }
    };
    let uri = frame.graph().uri();
    let graph = dataset
        .graph(uri)
        .ok_or_else(|| FrameError::Endpoint(format!("no graph {uri}")))?;
    let (cs, cp, co) = (resolve(subject)?, resolve(predicate)?, resolve(object)?);
    let ids = |t: &Option<Term>| t.as_ref().map(|t| dataset.lookup(t));
    // A constant the dataset never interned matches nothing.
    let (is_, ip, io) = (ids(&cs), ids(&cp), ids(&co));
    let mut df = DataFrame::new(columns.clone());
    if matches!(is_, Some(None)) || matches!(ip, Some(None)) || matches!(io, Some(None)) {
        return Ok(df);
    }
    for (s, p, o) in graph.match_pattern(is_.flatten(), ip.flatten(), io.flatten()) {
        let mut row: Vec<Option<Cell>> = vec![None; columns.len()];
        let mut ok = true;
        for (n, id) in [(subject, s), (predicate, p), (object, o)] {
            if let Node::Var(v) = n {
                let idx = columns.iter().position(|c| c == v).expect("column");
                let cell = term_to_cell(dataset.resolve(id));
                match &row[idx] {
                    Some(existing) => ok &= *existing == cell,
                    None => row[idx] = Some(cell),
                }
            }
        }
        if ok {
            df.push_row(row.into_iter().map(|c| c.expect("var bound")).collect())?;
        }
    }
    Ok(df)
}

/// SPARQL-compatible join (unbound/null compatible with anything), joining
/// on *all* shared columns — the dataframe-side equivalent of merging graph
/// patterns. Used by the client-side baselines in the evaluation.
///
/// `Outer` follows the *paper's* definition (Section 4.2): D1 ⟗ D2 is the
/// bag union of (D1 ⟕ D2) and (D2 ⟕ D1), which is what the generated
/// UNION-of-two-OPTIONALs SPARQL computes. Under bag semantics this yields
/// matched rows twice (once per branch) — a deliberate fidelity choice so
/// the oracle matches the system being reproduced.
pub fn compat_join(left: &DataFrame, right: &DataFrame, how: JoinType) -> Result<DataFrame> {
    if matches!(how, JoinType::Outer) {
        let b1 = compat_join(left, right, JoinType::Left)?;
        let b2 = compat_join(right, left, JoinType::Left)?;
        return Ok(b1.concat(&b2));
    }
    if matches!(how, JoinType::Right) {
        // D1 ⟖ D2 = D2 ⟕ D1 (the generator swaps operands the same way).
        return compat_join(right, left, JoinType::Left);
    }
    let shared: Vec<String> = left
        .columns()
        .iter()
        .filter(|c| right.columns().contains(c))
        .cloned()
        .collect();
    let mut columns = left.columns().to_vec();
    for c in right.columns() {
        if !columns.contains(c) {
            columns.push(c.clone());
        }
    }
    let width = columns.len();
    let l_idx: Vec<usize> = shared
        .iter()
        .map(|c| left.column_index(c).expect("shared"))
        .collect();
    let r_idx: Vec<usize> = shared
        .iter()
        .map(|c| right.column_index(c).expect("shared"))
        .collect();
    let r_targets: Vec<usize> = right
        .columns()
        .iter()
        .map(|c| columns.iter().position(|x| x == c).expect("target"))
        .collect();
    let mut out = DataFrame::new(columns);

    let compatible = |l: RowView<'_>, r: RowView<'_>| -> bool {
        l_idx
            .iter()
            .zip(&r_idx)
            .all(|(&li, &ri)| l[li].is_null() || r[ri].is_null() || l[li] == r[ri])
    };
    let merge = |l: RowView<'_>, r: RowView<'_>| -> Vec<Cell> {
        let mut row = l.to_vec();
        row.resize(width, Cell::Null);
        for (i, &t) in r_targets.iter().enumerate() {
            if row[t].is_null() {
                row[t] = r[i].clone();
            }
        }
        row
    };

    // Shared columns that are non-null in *every* row of both sides form
    // the hash key (pandas merges hash the same way; with none, every right
    // row shares the empty key); the other shared columns are checked per
    // candidate with null-compatible semantics.
    let all_bound = |df: &DataFrame, idx: usize| df.rows().iter().all(|r| !r[idx].is_null());
    let key_positions: Vec<usize> = (0..shared.len())
        .filter(|&k| all_bound(left, l_idx[k]) && all_bound(right, r_idx[k]))
        .collect();

    let mut index: std::collections::HashMap<Vec<&Cell>, Vec<usize>> =
        std::collections::HashMap::with_capacity(right.len());
    for (ri, r) in right.rows().iter().enumerate() {
        let key: Vec<&Cell> = key_positions.iter().map(|&k| r.cell(r_idx[k])).collect();
        index.entry(key).or_default().push(ri);
    }
    for l in left.rows() {
        let key: Vec<&Cell> = key_positions.iter().map(|&k| l.cell(l_idx[k])).collect();
        let mut matched = false;
        for &ri in index.get(&key).into_iter().flatten() {
            let r = right.row(ri);
            if compatible(l, r) {
                out.push_row(merge(l, r))?;
                matched = true;
            }
        }
        if !matched && matches!(how, JoinType::Left) {
            let mut row = l.to_vec();
            row.resize(width, Cell::Null);
            out.push_row(row)?;
        }
    }
    Ok(out)
}

fn value_to_cell(frame: &RDFFrame, v: &Value) -> Result<Cell> {
    Ok(match v {
        Value::Number(n) => {
            if let Ok(i) = n.parse::<i64>() {
                Cell::Int(i)
            } else {
                Cell::Float(
                    n.parse::<f64>()
                        .map_err(|_| FrameError::BadCondition(format!("bad number {n}")))?,
                )
            }
        }
        Value::String(s) => Cell::str(s.clone()),
        Value::Iri(i) => {
            let iri = frame
                .graph()
                .prefixes()
                .expand(i)
                .map_err(|e| FrameError::Prefix(e.to_string()))?;
            Cell::uri(iri)
        }
    })
}

/// Does `cell` satisfy `cond`? (Public for the client-side baselines.)
pub fn condition_holds(frame: &RDFFrame, cond: &Condition, cell: &Cell) -> Result<bool> {
    Ok(match cond {
        Condition::Cmp(op, v) => {
            if cell.is_null() {
                return Ok(false);
            }
            let rhs = value_to_cell(frame, v)?;
            match op {
                CmpOp::Eq => *cell == rhs,
                CmpOp::Neq => {
                    // SPARQL != between incomparable kinds is an error →
                    // false for literal-vs-IRI mixtures of different kinds.
                    if comparable(cell, &rhs) {
                        *cell != rhs
                    } else {
                        false
                    }
                }
                _ => {
                    let ord = match (cell.as_f64(), rhs.as_f64()) {
                        (Some(a), Some(b)) => a.partial_cmp(&b),
                        _ => match (cell.as_str(), rhs.as_str()) {
                            (Some(a), Some(b)) if cell.is_uri() == rhs.is_uri() => Some(a.cmp(b)),
                            _ => None,
                        },
                    };
                    match (ord, op) {
                        (Some(o), CmpOp::Lt) => o == std::cmp::Ordering::Less,
                        (Some(o), CmpOp::Le) => o != std::cmp::Ordering::Greater,
                        (Some(o), CmpOp::Gt) => o == std::cmp::Ordering::Greater,
                        (Some(o), CmpOp::Ge) => o != std::cmp::Ordering::Less,
                        _ => false,
                    }
                }
            }
        }
        Condition::IsUri => cell.is_uri(),
        Condition::IsLiteral => !cell.is_uri() && !cell.is_null(),
        Condition::IsBlank => matches!(cell.as_str(), Some(s) if s.starts_with("_:")),
        Condition::Bound => !cell.is_null(),
        Condition::NotBound => cell.is_null(),
        Condition::Regex { pattern, flags } => {
            let re =
                Regex::new(pattern, flags).map_err(|e| FrameError::BadCondition(e.to_string()))?;
            match cell {
                Cell::Null => false,
                Cell::Uri(s) | Cell::Str(s) => re.is_match(s),
                other => re.is_match(&other.to_string()),
            }
        }
        Condition::In(values) => {
            let mut found = false;
            for v in values {
                if *cell == value_to_cell(frame, v)? {
                    found = true;
                    break;
                }
            }
            found
        }
        Condition::NotIn(values) => {
            if cell.is_null() {
                return Ok(false);
            }
            let mut found = false;
            for v in values {
                if *cell == value_to_cell(frame, v)? {
                    found = true;
                    break;
                }
            }
            !found
        }
        Condition::YearCmp(op, year) => {
            // Dates reach dataframes as their lexical form; the year is the
            // leading (possibly negative) integer.
            let Some(text) = cell.as_str() else {
                return Ok(false);
            };
            let (negative, rest) = match text.strip_prefix('-') {
                Some(r) => (true, r),
                None => (false, text),
            };
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            let Ok(value) = digits.parse::<i64>() else {
                return Ok(false);
            };
            let value = if negative { -value } else { value };
            match op {
                CmpOp::Eq => value == *year,
                CmpOp::Neq => value != *year,
                CmpOp::Lt => value < *year,
                CmpOp::Le => value <= *year,
                CmpOp::Gt => value > *year,
                CmpOp::Ge => value >= *year,
            }
        }
    })
}

fn comparable(a: &Cell, b: &Cell) -> bool {
    a.is_uri() == b.is_uri() && !a.is_null() && !b.is_null()
}

fn agg_fn(func: AggFunc, distinct: bool) -> dataframe::AggFn {
    match (func, distinct) {
        (AggFunc::Count, true) => dataframe::AggFn::CountDistinct,
        (AggFunc::Count, false) => dataframe::AggFn::Count,
        (AggFunc::Sum, _) => dataframe::AggFn::Sum,
        (AggFunc::Avg, _) => dataframe::AggFn::Avg,
        (AggFunc::Min, _) => dataframe::AggFn::Min,
        (AggFunc::Max, _) => dataframe::AggFn::Max,
        (AggFunc::Sample, _) => dataframe::AggFn::Sample,
    }
}

/// Source of pattern matches and joined frames for [`apply_operators`].
///
/// The reference interpreter resolves against an in-memory [`Dataset`];
/// the evaluation's client-side baselines resolve by querying an endpoint.
pub trait FrameResolver {
    /// Fully evaluate another frame (the right side of a join).
    fn resolve_frame(&self, frame: &RDFFrame) -> Result<DataFrame>;
    /// Evaluate one triple pattern of `frame`'s graph into a dataframe.
    fn resolve_pattern(
        &self,
        frame: &RDFFrame,
        subject: &Node,
        predicate: &Node,
        object: &Node,
    ) -> Result<DataFrame>;
}

/// Resolver over an in-memory dataset (the reference oracle).
pub struct DatasetResolver<'a> {
    dataset: &'a Dataset,
}

impl<'a> DatasetResolver<'a> {
    /// Resolver for a dataset.
    pub fn new(dataset: &'a Dataset) -> Self {
        DatasetResolver { dataset }
    }
}

impl FrameResolver for DatasetResolver<'_> {
    fn resolve_frame(&self, frame: &RDFFrame) -> Result<DataFrame> {
        apply_operators(frame, frame.operators(), DataFrame::new(vec![]), self)
    }

    fn resolve_pattern(
        &self,
        frame: &RDFFrame,
        subject: &Node,
        predicate: &Node,
        object: &Node,
    ) -> Result<DataFrame> {
        pattern_frame(frame, self.dataset, subject, predicate, object)
    }
}

/// Apply a sequence of operators to `start`, resolving patterns and joined
/// frames through `resolver`. This is the shared engine behind the
/// reference oracle and the "Navigation + dataframe" baseline.
pub fn apply_operators<R: FrameResolver + ?Sized>(
    frame: &RDFFrame,
    ops: &[Operator],
    start: DataFrame,
    resolver: &R,
) -> Result<DataFrame> {
    let mut df = start;
    let mut pending_group: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < ops.len() {
        match &ops[i] {
            Operator::Seed {
                subject,
                predicate,
                object,
            } => {
                df = resolver.resolve_pattern(frame, subject, predicate, object)?;
            }
            Operator::Expand {
                src,
                predicate,
                dst,
                direction,
                optional,
            } => {
                let (s, o) = match direction {
                    Direction::Out => (src, dst),
                    Direction::In => (dst, src),
                };
                let pred_node = match predicate.strip_prefix('?') {
                    Some(v) => Node::Var(v.to_string()),
                    None => Node::Term(predicate.clone()),
                };
                let pat = resolver.resolve_pattern(
                    frame,
                    &Node::Var(s.clone()),
                    &pred_node,
                    &Node::Var(o.clone()),
                )?;
                let how = if *optional {
                    JoinType::Left
                } else {
                    JoinType::Inner
                };
                df = compat_join(&df, &pat, how)?;
            }
            Operator::Filter { column, conditions } => {
                let idx = df
                    .column_index(column)
                    .ok_or_else(|| FrameError::UnknownColumn(column.clone()))?;
                let mut keep = Vec::with_capacity(df.len());
                for row in df.rows() {
                    let mut ok = true;
                    for c in conditions {
                        ok &= condition_holds(frame, c, &row[idx])?;
                    }
                    keep.push(ok);
                }
                let mut keep = keep.into_iter();
                df = df.filter(|_| keep.next().unwrap_or(false));
            }
            Operator::FilterRaw(_) => {
                return Err(FrameError::InvalidSequence(
                    "raw filters are not interpretable by the reference evaluator".into(),
                ))
            }
            Operator::SelectCols(cols) => {
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                df = df.select(&refs);
            }
            Operator::GroupBy(keys) => {
                pending_group = keys.clone();
            }
            Operator::Aggregation { .. } => {
                // Gather all consecutive aggregations over this group.
                let mut specs: Vec<(dataframe::AggFn, String, String)> = Vec::new();
                while let Some(Operator::Aggregation {
                    func,
                    src,
                    alias,
                    distinct,
                }) = ops.get(i)
                {
                    specs.push((agg_fn(*func, *distinct), src.clone(), alias.clone()));
                    i += 1;
                }
                i -= 1; // outer loop will advance
                let keys = std::mem::take(&mut pending_group);
                let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let spec_refs: Vec<(dataframe::AggFn, &str, &str)> = specs
                    .iter()
                    .map(|(f, s, a)| (*f, s.as_str(), a.as_str()))
                    .collect();
                df = df.group_by(&key_refs).agg(&spec_refs);
                if keys.is_empty() && df.is_empty() {
                    // SPARQL's implicit single group over zero rows.
                    df.push_row(vec![Cell::Int(0); df.columns().len()])?;
                }
            }
            Operator::Join {
                other,
                col,
                col2,
                jtype,
                new_col,
            } => {
                let mut right = resolver.resolve_frame(other)?;
                let join_name = new_col.clone().unwrap_or_else(|| col.clone());
                df.rename(col, &join_name);
                right.rename(col2, &join_name);
                df = compat_join(&df, &right, *jtype)?;
            }
            Operator::Sort(keys) => {
                let refs: Vec<(&str, bool)> = keys
                    .iter()
                    .map(|(c, o)| (c.as_str(), matches!(o, crate::api::SortOrder::Asc)))
                    .collect();
                df = df.sort_by(&refs);
            }
            Operator::Head { k, offset } => {
                df = df.head(*k, *offset);
            }
            Operator::Cache => {}
        }
        i += 1;
    }
    Ok(df)
}

/// Order-insensitive dataframe comparison with column alignment: both
/// frames are projected onto sorted column names, rows sorted, then
/// compared. Returns a human-readable mismatch description.
pub fn compare_unordered(a: &DataFrame, b: &DataFrame) -> std::result::Result<(), String> {
    let mut cols_a: Vec<&str> = a.columns().iter().map(String::as_str).collect();
    let mut cols_b: Vec<&str> = b.columns().iter().map(String::as_str).collect();
    cols_a.sort_unstable();
    cols_b.sort_unstable();
    if cols_a != cols_b {
        return Err(format!("column sets differ: {cols_a:?} vs {cols_b:?}"));
    }
    let pa = a.select(&cols_a);
    let pb = b.select(&cols_b);
    let key = |df: &DataFrame| {
        let mut rows: Vec<String> = df
            .rows()
            .iter()
            .map(|r| {
                r.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}")
            })
            .collect();
        rows.sort();
        rows
    };
    let ra = key(&pa);
    let rb = key(&pb);
    if ra != rb {
        let only_a: Vec<&String> = ra.iter().filter(|r| !rb.contains(r)).take(3).collect();
        let only_b: Vec<&String> = rb.iter().filter(|r| !ra.contains(r)).take(3).collect();
        return Err(format!(
            "rows differ: {} vs {} rows; only-left sample {only_a:?}; only-right sample {only_b:?}",
            ra.len(),
            rb.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::KnowledgeGraph;
    use rdf_model::{Graph, Triple};
    use std::sync::Arc;

    fn dataset() -> (Arc<Dataset>, KnowledgeGraph) {
        let mut g = Graph::new();
        let starring = Term::iri("http://dbpedia.org/property/starring");
        let birth = Term::iri("http://dbpedia.org/property/birthPlace");
        let usa = Term::iri("http://dbpedia.org/resource/United_States");
        let uk = Term::iri("http://dbpedia.org/resource/United_Kingdom");
        for (a, n, place) in [(0, 3, &usa), (1, 1, &usa), (2, 2, &uk)] {
            let actor = Term::iri(format!("http://dbpedia.org/resource/Actor_{a}"));
            g.insert(&Triple::new(actor.clone(), birth.clone(), (*place).clone()));
            for m in 0..n {
                g.insert(&Triple::new(
                    Term::iri(format!("http://dbpedia.org/resource/M{a}_{m}")),
                    starring.clone(),
                    actor.clone(),
                ));
            }
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://dbpedia.org", g);
        let kg = KnowledgeGraph::new("http://dbpedia.org")
            .with_prefix("dbpp", "http://dbpedia.org/property/")
            .with_prefix("dbpr", "http://dbpedia.org/resource/");
        (Arc::new(ds), kg)
    }

    #[test]
    fn seed_filter_group_reference() {
        let (ds, kg) = dataset();
        let f = kg
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country")
            .filter("country", &["=dbpr:United_States"])
            .group_by(&["actor"])
            .count("movie", "n", true);
        let df = evaluate_reference(&f, &ds).unwrap();
        assert_eq!(df.len(), 2);
        let mut counts: Vec<i64> = df
            .column("n")
            .unwrap()
            .map(|c| c.as_i64().unwrap())
            .collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 3]);
    }

    #[test]
    fn reference_matches_sparql_path() {
        let (ds, kg) = dataset();
        let endpoint = crate::client::InProcessEndpoint::new(Arc::clone(&ds));
        let f = kg
            .feature_domain_range("dbpp:starring", "movie", "actor")
            .expand("actor", "dbpp:birthPlace", "country")
            .filter("country", &["=dbpr:United_States"]);
        let via_sparql = f.execute(&endpoint).unwrap();
        let via_reference = evaluate_reference(&f, &ds).unwrap();
        compare_unordered(&via_sparql, &via_reference).unwrap();
    }

    #[test]
    fn compare_detects_differences() {
        let mut a = DataFrame::new(vec!["x".into()]);
        a.push_row(vec![Cell::Int(1)]).unwrap();
        let mut b = DataFrame::new(vec!["x".into()]);
        b.push_row(vec![Cell::Int(2)]).unwrap();
        assert!(compare_unordered(&a, &b).is_err());
        let mut c = DataFrame::new(vec!["y".into()]);
        c.push_row(vec![Cell::Int(1)]).unwrap();
        assert!(compare_unordered(&a, &c).is_err());
        assert!(compare_unordered(&a, &a).is_ok());
    }
}
