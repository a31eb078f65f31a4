//! Group-by with aggregation.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crate::cell::Cell;
use crate::coded::{canonical, Row};
use crate::frame::DataFrame;

/// Aggregation functions (mirrors the RDFFrames aggregate set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row/value count (nulls excluded).
    Count,
    /// Count of distinct non-null values.
    CountDistinct,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum by total order.
    Min,
    /// Maximum by total order.
    Max,
    /// First value seen.
    Sample,
}

/// A pending group-by: call [`GroupBy::agg`] to materialize.
pub struct GroupBy<'a> {
    frame: &'a DataFrame,
    keys: Vec<String>,
}

/// One aggregate's running state over one group. Values are borrowed from
/// the frame's dictionary; distinct values are counted by canonical id.
#[derive(Default)]
struct State<'a> {
    count: usize,
    distinct: HashSet<u32>,
    sum: f64,
    int_sum: i64,
    /// A value other than an `Int` was seen: the sum is the float one.
    inexact: bool,
    min: Option<&'a Cell>,
    max: Option<&'a Cell>,
    sample: Option<&'a Cell>,
}

impl<'a> State<'a> {
    fn push(&mut self, cell: Option<&'a Cell>, id: u32, wants_distinct: bool) {
        let Some(cell) = cell else { return };
        self.count += 1;
        if wants_distinct {
            self.distinct.insert(id);
        }
        match cell {
            Cell::Int(i) => {
                self.int_sum = self.int_sum.wrapping_add(*i);
                self.sum += *i as f64;
            }
            Cell::Float(f) => {
                self.inexact = true;
                self.sum += f;
            }
            _ => self.inexact = true,
        }
        if self.min.is_none_or(|m| cell.total_cmp(m) == Ordering::Less) {
            self.min = Some(cell);
        }
        if self
            .max
            .is_none_or(|m| cell.total_cmp(m) == Ordering::Greater)
        {
            self.max = Some(cell);
        }
        self.sample.get_or_insert(cell);
    }

    fn finish(self, f: AggFn) -> Cell {
        match f {
            AggFn::Count => Cell::Int(self.count as i64),
            AggFn::CountDistinct => Cell::Int(self.distinct.len() as i64),
            AggFn::Sum => {
                if self.inexact {
                    Cell::Float(self.sum)
                } else {
                    Cell::Int(self.int_sum)
                }
            }
            AggFn::Avg => {
                if self.count == 0 {
                    Cell::Null
                } else {
                    Cell::Float(self.sum / self.count as f64)
                }
            }
            AggFn::Min => self.min.cloned().unwrap_or(Cell::Null),
            AggFn::Max => self.max.cloned().unwrap_or(Cell::Null),
            AggFn::Sample => self.sample.cloned().unwrap_or(Cell::Null),
        }
    }
}

impl<'a> GroupBy<'a> {
    pub(crate) fn new(frame: &'a DataFrame, keys: &[&str]) -> Self {
        GroupBy {
            frame,
            keys: keys.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Aggregate: each `(function, source column, output name)` produces one
    /// output column after the key columns. Groups come out in order of
    /// first appearance, keyed by the first row's cells.
    pub fn agg(&self, specs: &[(AggFn, &str, &str)]) -> DataFrame {
        let frame = self.frame;
        let key_idx: Vec<Option<usize>> = self.keys.iter().map(|k| frame.column_index(k)).collect();
        let src_idx: Vec<Option<usize>> = specs
            .iter()
            .map(|(_, src, _)| frame.column_index(src))
            .collect();

        // Rows group by the canonical ids of their key cells (a missing key
        // column reads as null, id 0); `groups` holds each group's first
        // row and one state per spec, in order of first appearance.
        let canon = &canonical(&[&frame.dict])[0];
        let mut group_of: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut groups: Vec<(Row<'a, Cell>, Vec<State<'a>>)> = Vec::new();
        for row in frame.0.rows() {
            let key: Vec<u32> = key_idx
                .iter()
                .map(|i| i.map_or(0, |i| canon[row.code(i) as usize]))
                .collect();
            let g = *group_of.entry(key).or_insert_with(|| {
                groups.push((row, specs.iter().map(|_| State::default()).collect()));
                groups.len() - 1
            });
            for (si, (f, _, _)) in specs.iter().enumerate() {
                if let Some(idx) = src_idx[si] {
                    let code = row.code(idx);
                    let wants_distinct = matches!(f, AggFn::CountDistinct);
                    groups[g].1[si].push(frame.value(code), canon[code as usize], wants_distinct);
                }
            }
        }

        // Key columns: each group's first row; then one column per spec.
        let firsts: Vec<Row<'a, Cell>> = groups.iter().map(|(first, _)| *first).collect();
        let mut out = frame.gather(self.keys.clone(), &key_idx, firsts.into_iter());
        let mut states: Vec<_> = groups.into_iter().map(|(_, s)| s.into_iter()).collect();
        for (f, _, name) in specs {
            let finished = states
                .iter_mut()
                .map(|s| s.next().map_or(Cell::Null, |s| s.finish(*f)));
            out.push_column(name, finished);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new(vec!["actor".into(), "movie".into(), "gross".into()]);
        for (a, m, g) in [
            ("a1", "m1", 10),
            ("a1", "m2", 30),
            ("a1", "m2", 30), // duplicate row (bag semantics)
            ("a2", "m3", 5),
        ] {
            df.push_row(vec![Cell::uri(a), Cell::uri(m), Cell::Int(g)])
                .unwrap();
        }
        df
    }

    #[test]
    fn count_and_count_distinct() {
        let df = sample();
        let g = df.group_by(&["actor"]).agg(&[
            (AggFn::Count, "movie", "n"),
            (AggFn::CountDistinct, "movie", "nd"),
        ]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(0, "n"), Some(&Cell::Int(3)));
        assert_eq!(g.get(0, "nd"), Some(&Cell::Int(2)));
        assert_eq!(g.get(1, "n"), Some(&Cell::Int(1)));
    }

    #[test]
    fn sum_avg_min_max() {
        let df = sample();
        let g = df.group_by(&["actor"]).agg(&[
            (AggFn::Sum, "gross", "total"),
            (AggFn::Avg, "gross", "mean"),
            (AggFn::Min, "gross", "lo"),
            (AggFn::Max, "gross", "hi"),
        ]);
        assert_eq!(g.get(0, "total"), Some(&Cell::Int(70)));
        assert_eq!(g.get(0, "mean"), Some(&Cell::Float(70.0 / 3.0)));
        assert_eq!(g.get(0, "lo"), Some(&Cell::Int(10)));
        assert_eq!(g.get(0, "hi"), Some(&Cell::Int(30)));
    }

    #[test]
    fn nulls_ignored() {
        let mut df = DataFrame::new(vec!["k".into(), "v".into()]);
        df.push_row(vec![Cell::Int(1), Cell::Null]).unwrap();
        df.push_row(vec![Cell::Int(1), Cell::Int(5)]).unwrap();
        let g = df
            .group_by(&["k"])
            .agg(&[(AggFn::Count, "v", "n"), (AggFn::Sum, "v", "s")]);
        assert_eq!(g.get(0, "n"), Some(&Cell::Int(1)));
        assert_eq!(g.get(0, "s"), Some(&Cell::Int(5)));
    }

    #[test]
    fn multi_key_grouping() {
        let mut df = DataFrame::new(vec!["a".into(), "b".into(), "v".into()]);
        df.push_row(vec![Cell::Int(1), Cell::Int(1), Cell::Int(10)])
            .unwrap();
        df.push_row(vec![Cell::Int(1), Cell::Int(2), Cell::Int(20)])
            .unwrap();
        df.push_row(vec![Cell::Int(1), Cell::Int(1), Cell::Int(30)])
            .unwrap();
        let g = df.group_by(&["a", "b"]).agg(&[(AggFn::Sum, "v", "s")]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(0, "s"), Some(&Cell::Int(40)));
    }

    #[test]
    fn group_order_is_first_appearance() {
        let df = sample();
        let g = df.group_by(&["actor"]).agg(&[(AggFn::Count, "movie", "n")]);
        assert_eq!(g.get(0, "actor"), Some(&Cell::uri("a1")));
        assert_eq!(g.get(1, "actor"), Some(&Cell::uri("a2")));
    }

    #[test]
    fn sample_takes_first() {
        let df = sample();
        let g = df
            .group_by(&["actor"])
            .agg(&[(AggFn::Sample, "movie", "m")]);
        assert_eq!(g.get(0, "m"), Some(&Cell::uri("m1")));
    }
}
