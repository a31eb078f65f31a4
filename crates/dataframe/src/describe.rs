//! Column summaries: the `df.describe()` data-exploration helper the
//! machine-learning workflow expects after data preparation.

use std::cmp::Ordering;
use std::collections::HashSet;

use crate::cell::Cell;
use crate::frame::DataFrame;

/// Summary statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// Non-null cells.
    pub count: usize,
    /// Null cells.
    pub nulls: usize,
    /// Distinct non-null values.
    pub distinct: usize,
    /// Minimum (by total order), if any non-null value exists.
    pub min: Option<Cell>,
    /// Maximum (by total order).
    pub max: Option<Cell>,
    /// Mean of numeric cells, if any.
    pub mean: Option<f64>,
}

/// Summarize every column of a dataframe.
pub fn describe(df: &DataFrame) -> Vec<ColumnSummary> {
    df.columns()
        .iter()
        .map(|name| {
            let mut count = 0usize;
            let mut nulls = 0usize;
            let mut distinct = HashSet::new();
            let mut min: Option<&Cell> = None;
            let mut max: Option<&Cell> = None;
            let mut numeric_sum = 0.0f64;
            let mut numeric_count = 0usize;
            for cell in df.column(name).expect("column exists") {
                if cell.is_null() {
                    nulls += 1;
                    continue;
                }
                count += 1;
                distinct.insert(cell);
                if min.is_none_or(|m| cell.total_cmp(m) == Ordering::Less) {
                    min = Some(cell);
                }
                if max.is_none_or(|m| cell.total_cmp(m) == Ordering::Greater) {
                    max = Some(cell);
                }
                if let Some(v) = cell.as_f64() {
                    numeric_sum += v;
                    numeric_count += 1;
                }
            }
            ColumnSummary {
                name: name.clone(),
                count,
                nulls,
                distinct: distinct.len(),
                min: min.cloned(),
                max: max.cloned(),
                mean: (numeric_count > 0).then(|| numeric_sum / numeric_count as f64),
            }
        })
        .collect()
}

/// Render the summaries as an aligned text table.
pub fn describe_table(df: &DataFrame) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>7} {:>9} {:>12} {:>12} {:>10}",
        "column", "count", "nulls", "distinct", "min", "max", "mean"
    );
    for s in describe(df) {
        let fmt_cell = |c: &Option<Cell>| {
            c.as_ref()
                .map(|c| {
                    let text = c.to_string();
                    if text.len() > 12 {
                        format!("{}…", &text[..11])
                    } else {
                        text
                    }
                })
                .unwrap_or_else(|| "-".into())
        };
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>7} {:>9} {:>12} {:>12} {:>10}",
            s.name,
            s.count,
            s.nulls,
            s.distinct,
            fmt_cell(&s.min),
            fmt_cell(&s.max),
            s.mean
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new(vec!["id".into(), "n".into(), "tag".into()]);
        df.push_row(vec![Cell::uri("a"), Cell::Int(10), Cell::str("x")])
            .unwrap();
        df.push_row(vec![Cell::uri("b"), Cell::Int(20), Cell::Null])
            .unwrap();
        df.push_row(vec![Cell::uri("a"), Cell::Float(30.0), Cell::str("y")])
            .unwrap();
        df
    }

    #[test]
    fn summaries() {
        let s = describe(&sample());
        assert_eq!(s[0].count, 3);
        assert_eq!(s[0].distinct, 2);
        assert_eq!(s[1].mean, Some(20.0));
        assert_eq!(s[1].min, Some(Cell::Int(10)));
        assert_eq!(s[1].max, Some(Cell::Float(30.0)));
        assert_eq!(s[2].nulls, 1);
        assert_eq!(s[2].distinct, 2);
    }

    #[test]
    fn empty_frame() {
        let df = DataFrame::new(vec!["x".into()]);
        let s = describe(&df);
        assert_eq!(s[0].count, 0);
        assert_eq!(s[0].min, None);
        assert_eq!(s[0].mean, None);
    }

    #[test]
    fn table_renders() {
        let text = describe_table(&sample());
        assert!(text.contains("column"));
        assert!(text.lines().count() == 4);
    }
}
