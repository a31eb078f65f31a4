//! [`Coded`]: the one dictionary-coded table, for any entry type — the
//! [`crate::DataFrame`] is a `Coded<Cell>`, the engine's result page
//! (`sparql_engine::SolutionTable`) a `Coded<Term>`.
//!
//! A table is its column names, a dictionary, one `u32` code column per
//! name and an explicit row count (a zero-column table still has rows).
//! Code 0 is the empty cell and has no entry; code `c` is entry `c - 1`.
//! Entries may repeat or go unreferenced, so whatever compares values
//! compares entries, once each ([`canonical`]), and then `u32`s. Every way
//! rows enter checks the shape, or re-checks what it wrote
//! ([`Coded::fill`]): a table is rectangular and its codes resolve.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A row of `got` cells refused by a table of `want` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthError {
    pub got: usize,
    pub want: usize,
}

impl fmt::Display for WidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a row of {} cells for {} columns", self.got, self.want)
    }
}

impl std::error::Error for WidthError {}

/// Why a block of code columns was refused; the table is as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// The block has `got` columns, the table `want`.
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
                write!(f, "block of {got} columns for a table of {want}")
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

/// One id per *distinct* entry over all of `dicts`, indexed by code: equal
/// for two codes, of one dictionary or of two, exactly when their entries
/// are equal, and 0 exactly for the empty code. The one place equality,
/// `distinct`, joins and group-by hash an entry.
pub(crate) fn canonical<T: Eq + Hash>(dicts: &[&[T]]) -> Vec<Vec<u32>> {
    let mut ids: HashMap<&T, u32> = HashMap::new();
    let mut id = |value| {
        let next = ids.len() as u32 + 1;
        *ids.entry(value).or_insert(next)
    };
    (dicts.iter())
        .map(|dict| std::iter::once(0).chain(dict.iter().map(&mut id)).collect())
        .collect()
}

/// A dictionary-coded table of `T` entries (see the module doc).
#[derive(Clone)]
pub struct Coded<T> {
    pub(crate) names: Vec<String>,
    pub(crate) dict: Vec<T>,
    pub(crate) codes: Vec<Vec<u32>>,
    pub(crate) len: usize,
}

impl<T> Default for Coded<T> {
    fn default() -> Self {
        Coded::new(Vec::new())
    }
}

impl<T> Coded<T> {
    /// A table of `len` rows from its parts, unchecked.
    pub(crate) fn parts(
        names: Vec<String>,
        dict: Vec<T>,
        codes: Vec<Vec<u32>>,
        len: usize,
    ) -> Self {
        Coded {
            names,
            dict,
            codes,
            len,
        }
    }

    /// Empty table with the given column names.
    pub fn new(names: Vec<String>) -> Self {
        let codes = vec![Vec::new(); names.len()];
        Coded::parts(names, Vec::new(), codes, 0)
    }

    /// No columns and one empty row (a join's identity).
    pub fn unit() -> Self {
        Coded::parts(Vec::new(), Vec::new(), Vec::new(), 1)
    }

    /// A table of `len` rows from a dictionary and one code column per
    /// name, refused unless every column holds `len` codes that resolve.
    pub fn from_columns(
        names: Vec<String>,
        dict: Vec<T>,
        codes: Vec<Vec<u32>>,
        len: usize,
    ) -> Result<Self, AppendError> {
        let table = Coded::parts(names, dict, codes, len);
        table.check(len, table.codes.iter().map(Vec::as_slice))?;
        Ok(table)
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The names, to rename in place.
    pub fn names_mut(&mut self) -> &mut [String] {
        &mut self.names
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The entries the codes index: code `c` is entry `c - 1`.
    pub fn dictionary(&self) -> &[T] {
        &self.dict
    }

    /// One code column per name, each [`Coded::len`] long.
    pub fn code_columns(&self) -> &[Vec<u32>] {
        &self.codes
    }

    /// The entry a code stands for (`None` for the empty code 0).
    pub fn value(&self, code: u32) -> Option<&T> {
        code.checked_sub(1).map(|i| &self.dict[i as usize])
    }

    /// Iterate the values of one column.
    pub fn column(&self, name: &str) -> Option<impl Iterator<Item = Option<&T>>> {
        let idx = self.column_index(name)?;
        Some(self.codes[idx].iter().map(|&c| self.value(c)))
    }

    /// The rows, in order, as borrowed views.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_, T>> + Clone {
        (0..self.len).map(move |row| Row { table: self, row })
    }

    /// Add `value` to the dictionary and return its code. Nothing is looked
    /// up: a producer that wants repeats to share an entry remembers codes.
    pub fn intern(&mut self, value: T) -> u32 {
        self.dict.push(value);
        // Code `c` is entry `c - 1`, so `u32` codes address 2^32 - 1 entries.
        u32::try_from(self.dict.len()).expect("fewer than 2^32 dictionary entries")
    }

    /// The one shape check: `block` holds one column per name, each of
    /// `rows` codes the dictionary resolves.
    fn check<'b>(
        &self,
        rows: usize,
        block: impl ExactSizeIterator<Item = &'b [u32]>,
    ) -> Result<(), AppendError> {
        let (got, want) = (block.len(), self.names.len());
        if got != want {
            return Err(AppendError::ColumnCount { got, want });
        }
        for (column, codes) in block.enumerate() {
            let (got, want) = (codes.len(), rows);
            if got != want {
                return Err(AppendError::ColumnLength { column, got, want });
            }
            // Only the largest code matters: one branch-free pass.
            let code = codes.iter().copied().max().unwrap_or(0);
            if code as usize > self.dict.len() {
                return Err(AppendError::UnknownCode { column, code });
            }
        }
        Ok(())
    }

    /// Append whole blocks, each `(rows, one code column per name)`, every
    /// block checked before anything is written. A lone block lands in an
    /// empty table by move; otherwise each column is reserved exactly once
    /// and filled block by block, each block's column freed as soon as it is
    /// copied, so the peak is the result plus one column. Into an empty
    /// table, each column ends with capacity equal to its length (a moved
    /// block's columns keep theirs).
    pub fn append_blocks(
        &mut self,
        mut blocks: Vec<(usize, Vec<Vec<u32>>)>,
    ) -> Result<(), AppendError> {
        for (rows, block) in &blocks {
            self.check(*rows, block.iter().map(Vec::as_slice))?;
        }
        let rows: usize = blocks.iter().map(|(rows, _)| rows).sum();
        match blocks.as_mut_slice() {
            [(_, block)] if self.len == 0 => self.codes = std::mem::take(block),
            _ => {
                for (c, col) in self.codes.iter_mut().enumerate() {
                    col.reserve_exact(rows);
                    for (_, block) in &mut blocks {
                        col.extend_from_slice(&std::mem::take(&mut block[c]));
                    }
                }
            }
        }
        self.len += rows;
        Ok(())
    }

    /// Append `rows` rows in place: `fill` pushes onto the code columns and
    /// interns entries as it goes. What it added is then checked like an
    /// [`Coded::append_blocks`] block, and a refused fill is truncated away with
    /// its entries.
    pub fn fill(
        &mut self,
        rows: usize,
        fill: impl FnOnce(&mut [Vec<u32>], &mut dyn FnMut(T) -> u32),
    ) -> Result<(), AppendError> {
        let (len, entries) = (self.len, self.dict.len());
        let mut codes = std::mem::take(&mut self.codes);
        fill(&mut codes, &mut |value| self.intern(value));
        self.codes = codes;
        let added = self.codes.iter().map(|c| c.get(len..).unwrap_or_default());
        if let Err(e) = self.check(rows, added) {
            self.codes.iter_mut().for_each(|c| c.truncate(len));
            self.dict.truncate(entries);
            return Err(e);
        }
        self.len += rows;
        Ok(())
    }

    /// Append one row, each present cell a new entry.
    pub fn push_row(&mut self, row: Vec<Option<T>>) -> Result<(), WidthError> {
        let (got, want) = (row.len(), self.codes.len());
        if got != want {
            return Err(WidthError { got, want });
        }
        for (c, cell) in row.into_iter().enumerate() {
            let code = cell.map_or(0, |value| self.intern(value));
            self.codes[c].push(code);
        }
        self.len += 1;
        Ok(())
    }

    /// Reorder the rows, stably, by `cmp`: a permutation of the code
    /// columns; the dictionary is untouched.
    pub fn sort_rows(&mut self, mut cmp: impl FnMut(&Row<'_, T>, &Row<'_, T>) -> Ordering) {
        let row = |row| Row { table: self, row };
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_by(|&a, &b| cmp(&row(a), &row(b)));
        for col in &mut self.codes {
            *col = order.iter().map(|&r| col[r]).collect();
        }
    }
}

/// Same names and, position by position, equal values — whatever codes the
/// two tables hold them under.
impl<T: Eq + Hash> PartialEq for Coded<T> {
    fn eq(&self, other: &Self) -> bool {
        let canon = canonical(&[&self.dict, &other.dict]);
        let same = |(a, b): (&Vec<u32>, &Vec<u32>)| {
            (a.iter().zip(b)).all(|(&x, &y)| canon[0][x as usize] == canon[1][y as usize])
        };
        self.names == other.names
            && self.len == other.len
            && self.codes.iter().zip(&other.codes).all(same)
    }
}

/// Rows of values, not codes: what a failed `assert_eq!` of two tables shows.
impl<T: fmt::Debug> fmt::Debug for Coded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<Option<&T>>> = self.rows().map(|r| r.iter().collect()).collect();
        let names = &self.names;
        f.debug_struct("Coded")
            .field("names", names)
            .field("rows", &rows)
            .finish()
    }
}

/// A borrowed view of one row of a [`Coded`] table.
pub struct Row<'a, T> {
    table: &'a Coded<T>,
    row: usize,
}

impl<'a, T> Row<'a, T> {
    /// The cell of column position `col` (`None` = empty); panics past the
    /// last column.
    pub fn get(&self, col: usize) -> Option<&'a T> {
        self.table.value(self.table.codes[col][self.row])
    }

    /// The row's cells in column order (`None` = empty).
    pub fn iter(&self) -> impl Iterator<Item = Option<&'a T>> + 'a {
        let (table, row) = (self.table, self.row);
        table.codes.iter().map(move |col| table.value(col[row]))
    }

    /// The row's cells, cloned.
    pub fn to_vec(&self) -> Vec<Option<T>>
    where
        T: Clone,
    {
        self.iter().map(|v| v.cloned()).collect()
    }
}

impl<T: PartialEq> PartialEq for Row<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a refusal must leave as it was.
    fn state(t: &Coded<String>) -> (usize, Vec<Vec<u32>>, usize) {
        (t.len(), t.code_columns().to_vec(), t.dictionary().len())
    }

    fn table() -> Coded<String> {
        let mut t = Coded::new(vec!["a".into(), "b".into()]);
        t.push_row(vec![Some("x".into()), None]).unwrap();
        let y = t.intern("y".into());
        t.append_blocks(vec![(2, vec![vec![y, 1], vec![0, y]])])
            .unwrap();
        t
    }

    #[test]
    fn every_fill_path_checks_the_shape_and_a_refusal_changes_nothing() {
        let t = table();
        assert_eq!(t.len(), 3);
        let rows: Vec<_> = t.rows().map(|r| r.to_vec()).collect();
        let (x, y) = (Some("x".to_string()), Some("y".to_string()));
        assert_eq!(rows, [[x.clone(), None], [y.clone(), None], [x, y]]);
        let before = state(&t);

        let mut u = t.clone();
        assert_eq!(
            u.push_row(vec![Some("z".into())]),
            Err(WidthError { got: 1, want: 2 })
        );
        // Each refused block follows a good one, which must not land
        // either: every block is checked before anything is written.
        let blocks = |bad| vec![(1, vec![vec![1], vec![2]]), bad];
        assert_eq!(
            u.append_blocks(blocks((1, vec![vec![1]]))),
            Err(AppendError::ColumnCount { got: 1, want: 2 })
        );
        assert_eq!(
            u.append_blocks(blocks((2, vec![vec![1, 1], vec![1]]))),
            Err(AppendError::ColumnLength {
                column: 1,
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            u.append_blocks(blocks((1, vec![vec![1], vec![3]]))),
            Err(AppendError::UnknownCode { column: 1, code: 3 })
        );
        // An in-place fill that interns an entry and leaves one column short
        // is truncated away, entry and all.
        let short = u.fill(1, |codes, intern| {
            let z = intern("z".into());
            codes[0].push(z);
        });
        assert_eq!(
            short,
            Err(AppendError::ColumnLength {
                column: 1,
                got: 0,
                want: 1
            })
        );
        assert_eq!(state(&u), before);
        assert_eq!(u, t);

        // A well-formed fill lands.
        u.fill(1, |codes, intern| {
            let z = intern("z".into());
            codes.iter_mut().for_each(|c| c.push(z));
        })
        .unwrap();
        assert_eq!(u.len(), 4);
        assert_eq!(u.dictionary().len(), before.2 + 1);

        assert_eq!(
            Coded::from_columns(vec!["a".into()], vec!["x".to_string()], vec![vec![1]], 2).err(),
            Some(AppendError::ColumnLength {
                column: 0,
                got: 1,
                want: 2
            })
        );
        assert!(Coded::<String>::from_columns(vec!["a".into()], vec![], vec![], 0).is_err());
    }

    #[test]
    fn a_lone_block_moves_and_many_blocks_equal_as_many_fills() {
        let names = vec!["a".to_string(), "b".to_string()];
        let blocks = vec![
            (3, vec![vec![1, 2, 0], vec![2, 2, 1]]),
            (0, vec![vec![], vec![]]),
            (2, vec![vec![0, 1], vec![3, 0]]),
        ];
        let dict = ["x", "y", "z"].map(String::from).to_vec();

        let mut filled = Coded::new(names.clone());
        dict.iter().for_each(|v| _ = filled.intern(v.clone()));
        for (rows, block) in &blocks {
            filled
                .fill(*rows, |codes, _| {
                    for (col, src) in codes.iter_mut().zip(block) {
                        col.extend_from_slice(src);
                    }
                })
                .unwrap();
        }

        let mut joined = Coded::new(names.clone());
        dict.iter().for_each(|v| _ = joined.intern(v.clone()));
        joined.append_blocks(blocks.clone()).unwrap();
        assert_eq!(joined, filled);
        assert_eq!(joined.code_columns(), filled.code_columns());
        assert!(joined
            .code_columns()
            .iter()
            .all(|c| c.capacity() == c.len()));

        // Onto rows already there: the same as filling them after.
        joined.append_blocks(blocks.clone()).unwrap();
        assert_eq!(joined.len(), 10);
        assert!(joined.rows().skip(5).eq(filled.rows()));

        // A lone block into an empty table keeps its buffers.
        let mut moved = Coded::new(names);
        dict.iter().for_each(|v| _ = moved.intern(v.clone()));
        let block = blocks[0].1.clone();
        let buffers: Vec<*const u32> = block.iter().map(|c| c.as_ptr()).collect();
        moved.append_blocks(vec![(3, block)]).unwrap();
        let kept: Vec<*const u32> = moved.code_columns().iter().map(|c| c.as_ptr()).collect();
        assert_eq!(kept, buffers);
        assert_eq!(moved.len(), 3);
        assert!(moved.rows().eq(filled.rows().take(3)));
    }

    #[test]
    fn a_zero_column_table_keeps_its_row_count() {
        let mut t: Coded<String> = Coded::new(Vec::new());
        t.append_blocks(vec![(3, vec![])]).unwrap();
        t.push_row(Vec::new()).unwrap();
        t.fill(2, |_, _| {}).unwrap();
        assert_eq!((t.len(), t.rows().count()), (6, 6));
        assert_ne!(t, Coded::new(Vec::new()));
        assert_eq!(Coded::<String>::unit().len(), 1);
    }

    #[test]
    fn equality_and_sorting_see_values_not_codes() {
        // The same rows over a dictionary with a duplicate and an
        // unreferenced entry.
        let t = table();
        let names = t.names().to_vec();
        let dict = ["w", "y", "x", "y"].map(String::from).to_vec();
        let other = Coded::from_columns(names, dict, vec![vec![3, 2, 3], vec![0, 0, 4]], 3);
        assert_eq!(other.as_ref(), Ok(&t));

        let mut sorted = t.clone();
        sorted.sort_rows(|a, b| a.get(0).cmp(&b.get(0)));
        let column: Vec<_> = sorted.column("a").unwrap().collect();
        assert_eq!(
            column,
            [Some(&"x".into()), Some(&"x".into()), Some(&"y".into())]
        );
        assert_eq!(sorted.dictionary(), t.dictionary());
        assert_ne!(sorted, t);
    }
}
