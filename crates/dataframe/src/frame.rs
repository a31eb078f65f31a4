//! The [`DataFrame`] type: a [`Coded`] table of [`Cell`]s, the `&Cell` row
//! views over it, and the row-level operators.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::{Deref, DerefMut, Index, Range};

use crate::cell::Cell;
use crate::coded::{canonical, Coded, WidthError};
use crate::groupby::GroupBy;
use crate::join::{join_frames, JoinError, JoinType};

/// What an empty cell reads as.
static NULL: Cell = Cell::Null;

fn or_null(cell: Option<&Cell>) -> &Cell {
    cell.unwrap_or(&NULL)
}

/// A named-column table of [`Cell`]s.
///
/// Storage is a [`Coded`] table: each column is a `Vec<u32>` of codes into
/// one frame-wide dictionary of cells, so a value that repeats costs four
/// bytes per occurrence and no `Arc` traffic. Code 0 is `Cell::Null` and
/// has no entry; no entry is `Cell::Null` ([`DataFrame::intern`] and
/// [`DataFrame::push_row`] send every null to code 0). The coded table's
/// read side (`len`, `dictionary`, `code_columns`, …) and its
/// [`Coded::append_blocks`] / [`Coded::fill`] are reached through `Deref`.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct DataFrame(pub(crate) Coded<Cell>);

impl Deref for DataFrame {
    type Target = Coded<Cell>;

    fn deref(&self) -> &Coded<Cell> {
        &self.0
    }
}

impl DerefMut for DataFrame {
    fn deref_mut(&mut self) -> &mut Coded<Cell> {
        &mut self.0
    }
}

/// A frame over a coded table none of whose entries is `Cell::Null`.
impl From<Coded<Cell>> for DataFrame {
    fn from(table: Coded<Cell>) -> Self {
        DataFrame(table)
    }
}

/// A borrowed view of one row: cells by position (`row[i]`) or by name.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    frame: &'a DataFrame,
    row: usize,
}

impl<'a> RowView<'a> {
    /// Cell by column name.
    pub fn get(&self, name: &str) -> Option<&'a Cell> {
        Some(self.cell(self.frame.column_index(name)?))
    }

    /// Cell by column position, borrowed from the frame (`row[i]` borrows
    /// from the view).
    ///
    /// # Panics
    /// Panics if `col` is not a column position.
    pub fn cell(&self, col: usize) -> &'a Cell {
        or_null(self.frame.value(self.frame.codes[col][self.row]))
    }

    /// The row's cells in column order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Cell> + 'a {
        let RowView { frame, row } = *self;
        (frame.codes.iter()).map(move |c| or_null(frame.value(c[row])))
    }

    /// The row's cells, cloned.
    pub fn to_vec(&self) -> Vec<Cell> {
        self.iter().cloned().collect()
    }
}

impl Index<usize> for RowView<'_> {
    type Output = Cell;

    fn index(&self, col: usize) -> &Cell {
        self.cell(col)
    }
}

impl PartialEq for RowView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The rows of a frame, in order: an iterator of [`RowView`]s that borrows
/// the frame and allocates nothing. `rows().len()` and `rows().iter()` read
/// as they would on a slice of rows.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    frame: &'a DataFrame,
    rows: Range<usize>,
}

impl<'a> Rows<'a> {
    /// The rows not yet taken, again.
    pub fn iter(&self) -> Rows<'a> {
        self.clone()
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowView<'a>;

    fn next(&mut self) -> Option<RowView<'a>> {
        let frame = self.frame;
        self.rows.next().map(|row| RowView { frame, row })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl DataFrame {
    /// Empty frame with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        DataFrame(Coded::new(columns))
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        self.names()
    }

    /// Rows (read-only).
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            frame: self,
            rows: 0..self.len,
        }
    }

    /// One row.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    pub fn row(&self, row: usize) -> RowView<'_> {
        assert!(row < self.len, "row {row} of a {}-row frame", self.len);
        RowView { frame: self, row }
    }

    /// [`Coded::intern`], except that a null is always code 0.
    pub fn intern(&mut self, cell: Cell) -> u32 {
        if cell.is_null() {
            return 0;
        }
        self.0.intern(cell)
    }

    /// Append a row, interning every non-null cell as a new entry.
    pub fn push_row(&mut self, row: Vec<Cell>) -> Result<(), WidthError> {
        (self.0).push_row(
            row.into_iter()
                .map(|c| (!c.is_null()).then_some(c))
                .collect(),
        )
    }

    /// A cell by row/column name.
    pub fn get(&self, row: usize, column: &str) -> Option<&Cell> {
        (row < self.len)
            .then(|| self.row(row).get(column))
            .flatten()
    }

    /// Iterate one column's cells.
    pub fn column(&self, name: &str) -> Option<impl Iterator<Item = &Cell>> {
        Some(self.0.column(name)?.map(or_null))
    }

    /// Rows `rows` of columns `cols` (`None`: a column of nulls) under the
    /// names `columns` — the gather every subsetting operator is. Only the
    /// dictionary entries still referenced are carried over.
    pub(crate) fn gather(
        &self,
        columns: Vec<String>,
        cols: &[Option<usize>],
        rows: impl Iterator<Item = usize> + Clone,
    ) -> DataFrame {
        let len = rows.clone().count();
        let mut out = Coded::new(columns);
        // New code per old code; 0 = not carried over yet (or null).
        let mut remap = vec![0u32; self.dict.len() + 1];
        out.codes = (cols.iter())
            .map(|src| {
                let Some(src) = src else {
                    return vec![0; len];
                };
                let col = &self.codes[*src];
                rows.clone()
                    .map(|r| {
                        let old = col[r] as usize;
                        if old != 0 && remap[old] == 0 {
                            remap[old] = out.intern(self.dict[old - 1].clone());
                        }
                        remap[old]
                    })
                    .collect()
            })
            .collect();
        out.len = len;
        DataFrame(out)
    }

    /// All columns of the given rows.
    fn take(&self, rows: impl Iterator<Item = usize> + Clone) -> DataFrame {
        let all: Vec<Option<usize>> = (0..self.names.len()).map(Some).collect();
        self.gather(self.names.clone(), &all, rows)
    }

    /// Add a column holding `cells`, one per row.
    pub(crate) fn push_column(&mut self, name: &str, cells: impl Iterator<Item = Cell>) {
        let codes = cells.map(|cell| self.intern(cell)).collect();
        self.0.names.push(name.to_string());
        self.0.codes.push(codes);
    }

    /// Keep rows satisfying `predicate`.
    pub fn filter<F>(&self, mut predicate: F) -> DataFrame
    where
        F: FnMut(RowView<'_>) -> bool,
    {
        let keep: Vec<usize> = (0..self.len).filter(|&r| predicate(self.row(r))).collect();
        self.take(keep.iter().copied())
    }

    /// Keep rows where `column`'s cell satisfies `predicate` (none, if there
    /// is no such column).
    pub fn filter_col<F>(&self, column: &str, mut predicate: F) -> DataFrame
    where
        F: FnMut(&Cell) -> bool,
    {
        let idx = self.column_index(column);
        self.filter(|row| idx.is_some_and(|i| predicate(row.cell(i))))
    }

    /// Projection: keep only `keep` (in that order). Unknown names produce a
    /// column of nulls, mirroring pandas' permissive reindexing.
    pub fn select(&self, keep: &[&str]) -> DataFrame {
        let indices: Vec<Option<usize>> = keep.iter().map(|c| self.column_index(c)).collect();
        let names = keep.iter().map(|s| s.to_string()).collect();
        self.gather(names, &indices, 0..self.len)
    }

    /// Rename a column in place. No-op if absent.
    pub fn rename(&mut self, from: &str, to: &str) {
        if let Some(i) = self.column_index(from) {
            self.names_mut()[i] = to.to_string();
        }
    }

    /// Add a column computed from each row.
    pub fn with_column<F>(&self, name: &str, mut f: F) -> DataFrame
    where
        F: FnMut(RowView<'_>) -> Cell,
    {
        let mut out = self.clone();
        out.push_column(name, (0..self.len).map(|r| f(self.row(r))));
        out
    }

    /// Hash join with another frame on one column from each side; a key
    /// name either frame lacks is a [`JoinError`].
    pub fn join(
        &self,
        other: &DataFrame,
        left_on: &str,
        right_on: &str,
        how: JoinType,
    ) -> Result<DataFrame, JoinError> {
        join_frames(self, other, left_on, right_on, how)
    }

    /// Begin a group-by on the given key columns.
    pub fn group_by(&self, keys: &[&str]) -> GroupBy<'_> {
        GroupBy::new(self, keys)
    }

    /// Sort by columns (`(name, ascending)`), stable, nulls first.
    pub fn sort_by(&self, keys: &[(&str, bool)]) -> DataFrame {
        let indices: Vec<(usize, bool)> = keys
            .iter()
            .filter_map(|(name, asc)| self.column_index(name).map(|i| (i, *asc)))
            .collect();
        let mut out = self.clone();
        out.sort_rows(|a, b| {
            let ord = |&(idx, asc): &(usize, bool)| {
                let ord = or_null(a.get(idx)).total_cmp(or_null(b.get(idx)));
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            };
            indices
                .iter()
                .map(ord)
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        out
    }

    /// First `k` rows starting at `offset`.
    pub fn head(&self, k: usize, offset: usize) -> DataFrame {
        self.take(offset.min(self.len)..offset.saturating_add(k).min(self.len))
    }

    /// Drop duplicate rows (keep first occurrence).
    pub fn distinct(&self) -> DataFrame {
        let canon = &canonical(&[&self.dict])[0];
        let mut seen = HashSet::with_capacity(self.len);
        let keep: Vec<usize> = (0..self.len)
            .filter(|&r| {
                let key: Vec<u32> = self.codes.iter().map(|c| canon[c[r] as usize]).collect();
                seen.insert(key)
            })
            .collect();
        self.take(keep.iter().copied())
    }

    /// Drop rows containing a null in the given column.
    pub fn drop_nulls(&self, column: &str) -> DataFrame {
        self.filter_col(column, |c| !c.is_null())
    }

    /// Vertically concatenate, aligning columns by name (missing → null).
    pub fn concat(&self, other: &DataFrame) -> DataFrame {
        let mut columns = self.names.clone();
        for c in &other.names {
            if !columns.contains(c) {
                columns.push(c.clone());
            }
        }
        let (mut out, shifted) = merged(columns, self, other);
        out.len = self.len + other.len;
        out.codes = (out.names.iter())
            .map(|name| {
                let mut col = Vec::with_capacity(out.len);
                if let Some(i) = self.column_index(name) {
                    col.extend_from_slice(&self.codes[i]);
                }
                col.resize(self.len, 0);
                if let Some(i) = other.column_index(name) {
                    col.extend(other.codes[i].iter().map(|&c| shifted(c)));
                }
                col.resize(out.len, 0);
                col
            })
            .collect();
        DataFrame(out)
    }
}

/// A table named `names` (its code columns still to fill) whose dictionary
/// is `left`'s followed by `right`'s, and the map from `right`'s codes to
/// their place in it.
pub(crate) fn merged(
    names: Vec<String>,
    left: &DataFrame,
    right: &DataFrame,
) -> (Coded<Cell>, impl Fn(u32) -> u32) {
    let mut dict = Vec::with_capacity(left.dict.len() + right.dict.len());
    dict.extend_from_slice(&left.dict);
    let mut out = Coded::parts(names, dict, Vec::new(), 0);
    right.dict.iter().for_each(|cell| {
        out.intern(cell.clone());
    });
    let offset = left.dict.len() as u32;
    (out, move |code| if code == 0 { 0 } else { code + offset })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coded::AppendError;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new(vec!["actor".into(), "movies".into(), "country".into()]);
        df.push_row(vec![Cell::uri("a1"), Cell::Int(30), Cell::str("US")])
            .unwrap();
        df.push_row(vec![Cell::uri("a2"), Cell::Int(5), Cell::str("US")])
            .unwrap();
        df.push_row(vec![Cell::uri("a3"), Cell::Int(12), Cell::str("UK")])
            .unwrap();
        df
    }

    #[test]
    fn filter_col() {
        let df = sample();
        let us = df.filter_col("country", |c| c.as_str() == Some("US"));
        assert_eq!(us.len(), 2);
        let prolific = df.filter_col("movies", |c| c.as_f64().unwrap_or(0.0) >= 10.0);
        assert_eq!(prolific.len(), 2);
    }

    #[test]
    fn filter_multi_column() {
        let df = sample();
        let r = df.filter(|row| {
            row.get("country").and_then(|c| c.as_str()) == Some("US")
                && row.get("movies").and_then(|c| c.as_f64()).unwrap_or(0.0) > 10.0
        });
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0, "actor"), Some(&Cell::uri("a1")));
    }

    #[test]
    fn select_and_rename() {
        let df = sample();
        let mut s = df.select(&["movies", "actor"]);
        assert_eq!(s.columns(), &["movies", "actor"]);
        s.rename("movies", "n");
        assert_eq!(s.columns(), &["n", "actor"]);
        // Unknown column becomes nulls.
        let s2 = df.select(&["nope"]);
        assert!(s2.rows().iter().all(|r| r[0].is_null()));
    }

    #[test]
    fn sort_and_head() {
        let df = sample();
        let sorted = df.sort_by(&[("movies", false)]);
        assert_eq!(sorted.get(0, "actor"), Some(&Cell::uri("a1")));
        let top = sorted.head(1, 0);
        assert_eq!(top.len(), 1);
        let second = sorted.head(1, 1);
        assert_eq!(second.get(0, "actor"), Some(&Cell::uri("a3")));
    }

    #[test]
    fn distinct_and_concat() {
        let df = sample();
        let doubled = df.concat(&df);
        assert_eq!(doubled.len(), 6);
        assert_eq!(doubled.distinct().len(), 3);
    }

    #[test]
    fn concat_aligns_columns() {
        let mut a = DataFrame::new(vec!["x".into()]);
        a.push_row(vec![Cell::Int(1)]).unwrap();
        let mut b = DataFrame::new(vec!["y".into()]);
        b.push_row(vec![Cell::Int(2)]).unwrap();
        let c = a.concat(&b);
        assert_eq!(c.columns(), &["x", "y"]);
        assert_eq!(c.row(0).to_vec(), vec![Cell::Int(1), Cell::Null]);
        assert_eq!(c.row(1).to_vec(), vec![Cell::Null, Cell::Int(2)]);
    }

    #[test]
    fn with_column() {
        let df = sample();
        let df2 = df.with_column("prolific", |row| {
            Cell::Bool(row.get("movies").and_then(|c| c.as_f64()).unwrap_or(0.0) >= 10.0)
        });
        assert_eq!(df2.get(0, "prolific"), Some(&Cell::Bool(true)));
        assert_eq!(df2.get(1, "prolific"), Some(&Cell::Bool(false)));
    }

    #[test]
    fn append_checks_the_block_before_writing() {
        let mut df = DataFrame::new(vec!["a".into(), "b".into()]);
        let (one, x) = (df.intern(Cell::Int(1)), df.intern(Cell::str("x")));
        assert_eq!(df.intern(Cell::Null), 0);
        df.append_blocks(vec![(2, vec![vec![one, one], vec![x, 0]])])
            .unwrap();
        assert_eq!(df.row(0).to_vec(), vec![Cell::Int(1), Cell::str("x")]);
        assert_eq!(df.row(1).to_vec(), vec![Cell::Int(1), Cell::Null]);
        assert_eq!(df.dictionary().len(), 2);
        assert_eq!(
            df.append_blocks(vec![(1, vec![vec![one]])]),
            Err(AppendError::ColumnCount { got: 1, want: 2 })
        );
        assert_eq!(
            df.append_blocks(vec![(2, vec![vec![one, one], vec![x]])]),
            Err(AppendError::ColumnLength {
                column: 1,
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            df.append_blocks(vec![(1, vec![vec![one], vec![7]])]),
            Err(AppendError::UnknownCode { column: 1, code: 7 })
        );
        assert_eq!(df.len(), 2);
        // A zero-column frame carries its row count.
        let mut unit = DataFrame::new(vec![]);
        unit.append_blocks(vec![(3, vec![])]).unwrap();
        assert_eq!((unit.len(), unit.rows().iter().count()), (3, 3));
    }

    #[test]
    fn drop_nulls() {
        let mut df = DataFrame::new(vec!["g".into()]);
        df.push_row(vec![Cell::Null]).unwrap();
        df.push_row(vec![Cell::str("x")]).unwrap();
        assert_eq!(df.drop_nulls("g").len(), 1);
    }
}
