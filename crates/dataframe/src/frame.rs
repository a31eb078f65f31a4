//! The [`DataFrame`] type: column-major dictionary-coded storage, the append
//! interface that fills it, and the row-level operators over it.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::{Index, Range};

use crate::cell::Cell;
use crate::groupby::GroupBy;
use crate::join::{join_frames, JoinError, JoinType};

/// A named-column table of [`Cell`]s.
///
/// Storage is column-major and dictionary-coded: each column is a `Vec<u32>`
/// of codes into one frame-wide dictionary of cells, so a value that repeats
/// costs four bytes per occurrence and no `Arc` traffic. Code 0 is
/// `Cell::Null` and nothing else is ([`DataFrame::intern`] sends every null
/// there). Apart from that the dictionary is *not* duplicate-free —
/// [`DataFrame::push_row`] interns without looking, and a producer's memo may
/// hold two codes for equal cells (`Int(3)` / `Float(3.0)`) — so whatever
/// compares values compares **cells**, once per dictionary entry (see
/// [`canonical`]), and only then works on `u32`s.
#[derive(Clone)]
pub struct DataFrame {
    pub(crate) columns: Vec<String>,
    pub(crate) dict: Vec<Cell>,
    pub(crate) codes: Vec<Vec<u32>>,
    /// Row count; explicit because a zero-column frame still has one.
    pub(crate) len: usize,
}

/// Why [`DataFrame::append`] refused a block. The block was checked before
/// anything was written, so the frame's rows are as they were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// The block has `got` columns, the frame `want`.
    ColumnCount { got: usize, want: usize },
    /// Column `column` of the block holds `got` codes for `want` rows.
    ColumnLength {
        column: usize,
        got: usize,
        want: usize,
    },
    /// Column `column` of the block holds a code the dictionary lacks.
    UnknownCode { column: usize, code: u32 },
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendError::ColumnCount { got, want } => {
                write!(f, "block of {got} columns for a frame of {want}")
            }
            AppendError::ColumnLength { column, got, want } => {
                write!(f, "column {column} holds {got} codes for {want} rows")
            }
            AppendError::UnknownCode { column, code } => {
                write!(f, "column {column}: code {code} is not in the dictionary")
            }
        }
    }
}

impl std::error::Error for AppendError {}

/// One id per *distinct* cell over all of `dicts`: `canonical(..)[d][code]`
/// agree for two entries — of one dictionary or of two — exactly when their
/// cells are equal, and are 0 exactly for null. This is the one place
/// equality, `distinct`, joins and group-by hash a cell; rows are then
/// compared as integers.
pub(crate) fn canonical(dicts: &[&[Cell]]) -> Vec<Vec<u32>> {
    let mut ids: HashMap<&Cell, u32> = HashMap::from([(&Cell::Null, 0)]);
    dicts
        .iter()
        .map(|dict| {
            dict.iter()
                .map(|cell| {
                    let next = ids.len() as u32;
                    *ids.entry(cell).or_insert(next)
                })
                .collect()
        })
        .collect()
}

/// `left`'s dictionary followed by `right`'s (minus its null), and the map
/// from `right`'s codes to their place in it.
pub(crate) fn merged_dict(left: &DataFrame, right: &DataFrame) -> (Vec<Cell>, impl Fn(u32) -> u32) {
    let mut dict = Vec::with_capacity(left.dict.len() + right.dict.len() - 1);
    dict.extend_from_slice(&left.dict);
    dict.extend_from_slice(&right.dict[1..]);
    u32::try_from(dict.len()).expect("fewer than 2^32 dictionary entries");
    let offset = (left.dict.len() - 1) as u32;
    (dict, move |code| if code == 0 { 0 } else { code + offset })
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
        self.frame.cell(self.row, col)
    }

    /// The row's cells in column order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Cell> + 'a {
        let RowView { frame, row } = *self;
        frame
            .codes
            .iter()
            .map(move |c| &frame.dict[c[row] as usize])
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

impl fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
        DataFrame {
            codes: vec![Vec::new(); columns.len()],
            columns,
            dict: vec![Cell::Null],
            len: 0,
        }
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
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

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of a column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The cells the columns' codes index. Entry 0 is `Cell::Null`.
    pub fn dictionary(&self) -> &[Cell] {
        &self.dict
    }

    /// Add `cell` to the dictionary and return its code, for a later
    /// [`DataFrame::append`]. Nothing is looked up (except that a null is
    /// always code 0): a producer that wants repeated values to share one
    /// entry remembers the codes it was given, keyed by whatever identifies
    /// a value on its side.
    pub fn intern(&mut self, cell: Cell) -> u32 {
        if cell.is_null() {
            return 0;
        }
        let code = u32::try_from(self.dict.len()).expect("fewer than 2^32 dictionary entries");
        self.dict.push(cell);
        code
    }

    /// Append `rows` rows given as one slice of dictionary codes per column —
    /// the one way rows enter a frame. The block is checked first, so an
    /// error leaves the frame as it was.
    pub fn append(&mut self, rows: usize, block: &[Vec<u32>]) -> Result<(), AppendError> {
        if block.len() != self.codes.len() {
            return Err(AppendError::ColumnCount {
                got: block.len(),
                want: self.codes.len(),
            });
        }
        for (column, codes) in block.iter().enumerate() {
            if codes.len() != rows {
                return Err(AppendError::ColumnLength {
                    column,
                    got: codes.len(),
                    want: rows,
                });
            }
            // Only the largest code matters: one branch-free pass (0 is null).
            let code = codes.iter().copied().max().unwrap_or(0);
            if code as usize >= self.dict.len() {
                return Err(AppendError::UnknownCode { column, code });
            }
        }
        for (col, codes) in self.codes.iter_mut().zip(block) {
            col.extend_from_slice(codes);
        }
        self.len += rows;
        Ok(())
    }

    /// Append a row, interning every cell as a new dictionary entry.
    ///
    /// # Panics
    /// Panics if the row width doesn't match the column count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width != column count");
        for (c, cell) in row.into_iter().enumerate() {
            let code = self.intern(cell);
            self.codes[c].push(code);
        }
        self.len += 1;
    }

    fn cell(&self, row: usize, col: usize) -> &Cell {
        &self.dict[self.codes[col][row] as usize]
    }

    /// A cell by row/column name.
    pub fn get(&self, row: usize, column: &str) -> Option<&Cell> {
        let c = self.column_index(column)?;
        (row < self.len).then(|| self.cell(row, c))
    }

    /// Iterate one column's cells.
    pub fn column(&self, name: &str) -> Option<impl Iterator<Item = &Cell>> {
        let idx = self.column_index(name)?;
        Some(self.codes[idx].iter().map(|&c| &self.dict[c as usize]))
    }

    /// Rows `rows` of columns `cols` (`None`: a column of nulls) under the
    /// names `columns` — the gather every subsetting operator is. Only the
    /// dictionary entries still referenced are carried over.
    fn gather(
        &self,
        columns: Vec<String>,
        cols: &[Option<usize>],
        rows: impl Iterator<Item = usize> + Clone,
    ) -> DataFrame {
        let len = rows.clone().count();
        let mut dict = vec![Cell::Null];
        // New code per old code; 0 = not carried over yet (or null).
        let mut remap = vec![0u32; self.dict.len()];
        let codes = cols
            .iter()
            .map(|src| {
                let Some(src) = src else {
                    return vec![0; len];
                };
                let col = &self.codes[*src];
                rows.clone()
                    .map(|r| {
                        let old = col[r] as usize;
                        if old != 0 && remap[old] == 0 {
                            remap[old] = dict.len() as u32;
                            dict.push(self.dict[old].clone());
                        }
                        remap[old]
                    })
                    .collect()
            })
            .collect();
        DataFrame {
            columns,
            dict,
            codes,
            len,
        }
    }

    /// All columns of the given rows.
    fn take(&self, rows: impl Iterator<Item = usize> + Clone) -> DataFrame {
        let all: Vec<Option<usize>> = (0..self.columns.len()).map(Some).collect();
        self.gather(self.columns.clone(), &all, rows)
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
            self.columns[i] = to.to_string();
        }
    }

    /// Add a column computed from each row.
    pub fn with_column<F>(&self, name: &str, mut f: F) -> DataFrame
    where
        F: FnMut(RowView<'_>) -> Cell,
    {
        let mut out = self.clone();
        out.columns.push(name.to_string());
        let column = (0..self.len).map(|r| out.intern(f(self.row(r)))).collect();
        out.codes.push(column);
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
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_by(|&a, &b| {
            for &(idx, asc) in &indices {
                let ord = self.cell(a, idx).total_cmp(self.cell(b, idx));
                let ord = if asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.take(order.iter().copied())
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
        let mut columns = self.columns.clone();
        for c in &other.columns {
            if !columns.contains(c) {
                columns.push(c.clone());
            }
        }
        let (dict, shifted) = merged_dict(self, other);
        let len = self.len + other.len;
        let codes = columns
            .iter()
            .map(|name| {
                let mut col = Vec::with_capacity(len);
                if let Some(i) = self.column_index(name) {
                    col.extend_from_slice(&self.codes[i]);
                }
                col.resize(self.len, 0);
                if let Some(i) = other.column_index(name) {
                    col.extend(other.codes[i].iter().map(|&c| shifted(c)));
                }
                col.resize(len, 0);
                col
            })
            .collect();
        DataFrame {
            columns,
            dict,
            codes,
            len,
        }
    }
}

impl Default for DataFrame {
    fn default() -> Self {
        DataFrame::new(Vec::new())
    }
}

/// Same column names and, position by position, equal cells — whatever codes
/// the two frames hold them under.
impl PartialEq for DataFrame {
    fn eq(&self, other: &Self) -> bool {
        if self.columns != other.columns || self.len != other.len {
            return false;
        }
        let canon = canonical(&[&self.dict, &other.dict]);
        self.codes.iter().zip(&other.codes).all(|(a, b)| {
            a.iter()
                .zip(b)
                .all(|(&x, &y)| canon[0][x as usize] == canon[1][y as usize])
        })
    }
}

/// Prints rows of cells, not codes: this is what a failed `assert_eq!` of two
/// frames shows.
impl fmt::Debug for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataFrame")
            .field("columns", &self.columns)
            .field("rows", &self.rows().iter().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new(vec!["actor".into(), "movies".into(), "country".into()]);
        df.push_row(vec![Cell::uri("a1"), Cell::Int(30), Cell::str("US")]);
        df.push_row(vec![Cell::uri("a2"), Cell::Int(5), Cell::str("US")]);
        df.push_row(vec![Cell::uri("a3"), Cell::Int(12), Cell::str("UK")]);
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
        a.push_row(vec![Cell::Int(1)]);
        let mut b = DataFrame::new(vec!["y".into()]);
        b.push_row(vec![Cell::Int(2)]);
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
        df.append(2, &[vec![one, one], vec![x, 0]]).unwrap();
        assert_eq!(df.row(0).to_vec(), vec![Cell::Int(1), Cell::str("x")]);
        assert_eq!(df.row(1).to_vec(), vec![Cell::Int(1), Cell::Null]);
        assert_eq!(df.dictionary().len(), 3);
        assert_eq!(
            df.append(1, &[vec![one]]),
            Err(AppendError::ColumnCount { got: 1, want: 2 })
        );
        assert_eq!(
            df.append(2, &[vec![one, one], vec![x]]),
            Err(AppendError::ColumnLength {
                column: 1,
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            df.append(1, &[vec![one], vec![7]]),
            Err(AppendError::UnknownCode { column: 1, code: 7 })
        );
        assert_eq!(df.len(), 2);
        // A zero-column frame carries its row count.
        let mut unit = DataFrame::new(vec![]);
        unit.append(3, &[]).unwrap();
        assert_eq!((unit.len(), unit.rows().iter().count()), (3, 3));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_row_width_checked() {
        let mut df = DataFrame::new(vec!["a".into()]);
        df.push_row(vec![Cell::Int(1), Cell::Int(2)]);
    }

    #[test]
    fn drop_nulls() {
        let mut df = DataFrame::new(vec!["g".into()]);
        df.push_row(vec![Cell::Null]);
        df.push_row(vec![Cell::str("x")]);
        assert_eq!(df.drop_nulls("g").len(), 1);
    }
}
