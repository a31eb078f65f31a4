//! [`Coded`]: the one dictionary-coded table, for any entry type — the
//! [`crate::DataFrame`] is a `Coded<Cell>`, the engine's result page
//! (`sparql_engine::SolutionTable`) a `Coded<Term>`.
//!
//! A table is its column names, a dictionary and a list of row [`Block`]s,
//! with an explicit row count (a zero-column table still has rows). A block
//! is a run of rows: one `u32` code column per name, each as long as the
//! block, and never empty. Code 0 is the empty cell and has no entry; code
//! `c` is entry `c - 1`. Rows arrive as whole blocks — a drained batch
//! ([`Coded::push_block`]) or a wire page ([`Coded::fill`]) becomes one by
//! move, with no second copy — or one at a time onto the last block
//! ([`Coded::push_row`]); every kernel that builds a new table builds it as
//! one block. Readers walk the blocks: [`Coded::rows`] steps into each
//! block once, and [`Coded::row`] is one binary search over the block ends.
//!
//! Entries may repeat or go unreferenced, so whatever compares values
//! compares entries, once each (the crate's `canonical` ids), and then
//! `u32`s. Every way rows enter checks the shape: a table is rectangular
//! and its codes resolve.

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

/// A run of a table's rows: one code column per name, each
/// [`Block::rows`] long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The table's rows before this block.
    start: usize,
    rows: usize,
    codes: Vec<Vec<u32>>,
}

impl Block {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// One code column per name.
    pub fn codes(&self) -> &[Vec<u32>] {
        &self.codes
    }
}

/// A dictionary-coded table of `T` entries (see the module doc).
#[derive(Clone)]
pub struct Coded<T> {
    pub(crate) names: Vec<String>,
    pub(crate) dict: Vec<T>,
    blocks: Vec<Block>,
    pub(crate) len: usize,
}

impl<T> Default for Coded<T> {
    fn default() -> Self {
        Coded::new(Vec::new())
    }
}

impl<T> Coded<T> {
    /// An empty table over a dictionary.
    pub(crate) fn parts(names: Vec<String>, dict: Vec<T>) -> Self {
        Coded {
            names,
            dict,
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Empty table with the given column names.
    pub fn new(names: Vec<String>) -> Self {
        Coded::parts(names, Vec::new())
    }

    /// No columns and one empty row (a join's identity).
    pub fn unit() -> Self {
        let mut unit = Coded::new(Vec::new());
        unit.put_block(1, Vec::new());
        unit
    }

    /// A table of `len` rows from a dictionary and one code column per
    /// name, refused unless every column holds `len` codes that resolve.
    pub fn from_columns(
        names: Vec<String>,
        dict: Vec<T>,
        codes: Vec<Vec<u32>>,
        len: usize,
    ) -> Result<Self, AppendError> {
        let mut table = Coded::parts(names, dict);
        table.push_block(len, codes)?;
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

    /// The row blocks in order; their rows add up to [`Coded::len`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Column position `col`'s codes, block by block.
    pub fn column_codes(&self, col: usize) -> impl Iterator<Item = u32> + Clone + '_ {
        (self.blocks.iter()).flat_map(move |b| b.codes[col].iter().copied())
    }

    /// The entry a code stands for (`None` for the empty code 0).
    pub fn value(&self, code: u32) -> Option<&T> {
        code.checked_sub(1).map(|i| &self.dict[i as usize])
    }

    /// Iterate the values of one column.
    pub fn column(&self, name: &str) -> Option<impl Iterator<Item = Option<&T>>> {
        let idx = self.column_index(name)?;
        Some(self.column_codes(idx).map(|c| self.value(c)))
    }

    /// The rows, in order, as borrowed views.
    pub fn rows(&self) -> Rows<'_, T> {
        Rows {
            table: self,
            codes: &[],
            rows: 0,
            row: 0,
            rest: self.blocks.iter(),
            left: self.len,
        }
    }

    /// One row.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    pub fn row(&self, row: usize) -> Row<'_, T> {
        assert!(row < self.len, "row {row} of a {}-row table", self.len);
        let (block, row) = self.locate(row);
        let codes = &self.blocks[block].codes;
        Row {
            table: self,
            codes,
            row,
        }
    }

    /// The block holding row `row` (< `len`) and the row's place in it.
    fn locate(&self, row: usize) -> (usize, usize) {
        let block = self.blocks.partition_point(|b| b.start + b.rows <= row);
        (block, row - self.blocks[block].start)
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

    /// Append `rows` rows as one block, `(rows, one code column per name)`.
    /// The block is checked while it is still in cache and then moved in:
    /// its buffers become the table's. A refused block leaves the table as
    /// it was.
    pub fn push_block(&mut self, rows: usize, codes: Vec<Vec<u32>>) -> Result<(), AppendError> {
        self.check(rows, codes.iter().map(Vec::as_slice))?;
        self.put_block(rows, codes);
        Ok(())
    }

    /// Append a block that fits (a kernel's output); an empty one is
    /// dropped, so no block is.
    pub(crate) fn put_block(&mut self, rows: usize, codes: Vec<Vec<u32>>) {
        debug_assert_eq!(self.check(rows, codes.iter().map(Vec::as_slice)), Ok(()));
        if rows > 0 {
            let start = self.len;
            self.add_block(Block { start, rows, codes });
            self.len += rows;
        }
    }

    /// Most tables are one block: the list's first allocation holds one,
    /// and it grows by doubling from the second.
    fn add_block(&mut self, block: Block) {
        if self.blocks.capacity() == 0 {
            self.blocks.reserve_exact(1);
        }
        self.blocks.push(block);
    }

    /// Append `rows` rows as one fresh block written in place: `fill` gets
    /// one empty code column per name, each with room for exactly `rows`
    /// codes, and interns entries as it goes. The block is then checked
    /// like a [`Coded::push_block`] block, and a refused fill takes its
    /// entries back with it.
    pub fn fill(
        &mut self,
        rows: usize,
        fill: impl FnOnce(&mut [Vec<u32>], &mut dyn FnMut(T) -> u32),
    ) -> Result<(), AppendError> {
        let entries = self.dict.len();
        let mut codes: Vec<Vec<u32>> = (self.names.iter())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        fill(&mut codes, &mut |value| self.intern(value));
        self.push_block(rows, codes)
            .inspect_err(|_| self.dict.truncate(entries))
    }

    /// Append one row to the last block, each present cell a new entry.
    pub fn push_row(&mut self, row: Vec<Option<T>>) -> Result<(), WidthError> {
        let (got, want) = (row.len(), self.names.len());
        if got != want {
            return Err(WidthError { got, want });
        }
        if self.blocks.is_empty() {
            let (start, rows, codes) = (0, 0, vec![Vec::new(); want]);
            self.add_block(Block { start, rows, codes });
        }
        let last = self.blocks.len() - 1;
        for (c, cell) in row.into_iter().enumerate() {
            let code = cell.map_or(0, |value| self.intern(value));
            self.blocks[last].codes[c].push(code);
        }
        self.blocks[last].rows += 1;
        self.len += 1;
        Ok(())
    }

    /// Add a column named `name` of `codes`, one per row, split along the
    /// blocks.
    pub(crate) fn push_column(&mut self, name: String, codes: Vec<u32>) {
        debug_assert_eq!(codes.len(), self.len);
        let mut codes = codes.into_iter();
        for block in &mut self.blocks {
            block.codes.push(codes.by_ref().take(block.rows).collect());
        }
        self.names.push(name);
    }

    /// Reorder the rows, stably, by `cmp` into one block: a permutation of
    /// the codes; the dictionary is untouched.
    pub fn sort_rows(&mut self, mut cmp: impl FnMut(&Row<'_, T>, &Row<'_, T>) -> Ordering) {
        let mut order: Vec<Row<'_, T>> = self.rows().collect();
        order.sort_by(|a, b| cmp(a, b));
        let codes = (0..self.names.len())
            .map(|c| order.iter().map(|r| r.code(c)).collect())
            .collect();
        let len = std::mem::take(&mut self.len);
        self.blocks.clear();
        self.put_block(len, codes);
    }
}

/// Same names and, position by position, equal values — whatever codes and
/// blocks the two tables hold them under.
impl<T: Eq + Hash> PartialEq for Coded<T> {
    fn eq(&self, other: &Self) -> bool {
        let canon = canonical(&[&self.dict, &other.dict]);
        let same = |c| {
            (self.column_codes(c).zip(other.column_codes(c)))
                .all(|(x, y)| canon[0][x as usize] == canon[1][y as usize])
        };
        self.names == other.names && self.len == other.len && (0..self.names.len()).all(same)
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

/// The rows of a [`Coded`] table, in order: the walk steps into each
/// block once and hands every row of it the block's columns.
#[derive(Clone, Debug)]
pub struct Rows<'a, T> {
    table: &'a Coded<T>,
    /// The current block's columns and rows, and the next row's place in it.
    codes: &'a [Vec<u32>],
    rows: usize,
    row: usize,
    /// The blocks after the current one.
    rest: std::slice::Iter<'a, Block>,
    left: usize,
}

impl<'a, T> Rows<'a, T> {
    fn enter(&mut self, block: &'a Block, row: usize) {
        (self.codes, self.rows, self.row) = (&block.codes, block.rows, row);
    }
}

impl<'a, T> Iterator for Rows<'a, T> {
    type Item = Row<'a, T>;

    fn next(&mut self) -> Option<Row<'a, T>> {
        if self.left == 0 {
            return None;
        }
        if self.row == self.rows {
            // No block is empty: the next one holds the row.
            let block = self.rest.next()?;
            self.enter(block, 0);
        }
        self.row += 1;
        self.left -= 1;
        let (table, codes, row) = (self.table, self.codes, self.row - 1);
        Some(Row { table, codes, row })
    }

    fn nth(&mut self, n: usize) -> Option<Row<'a, T>> {
        if n >= self.left {
            self.left = 0;
            return None;
        }
        self.left -= n;
        let (block, row) = self.table.locate(self.table.len - self.left);
        self.rest = self.table.blocks[block + 1..].iter();
        self.enter(&self.table.blocks[block], row);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// A loop per block, so a consumer's loop over one block's rows is a
    /// plain counted loop (the rows always run to the table's end).
    fn fold<B, F: FnMut(B, Row<'a, T>) -> B>(self, init: B, mut f: F) -> B {
        let table = self.table;
        let blocks = self.rest.map(|b| (&b.codes[..], 0..b.rows));
        let first = (self.codes, self.row..self.rows);
        (std::iter::once(first).chain(blocks)).fold(init, |acc, (codes, range)| {
            range.fold(acc, |acc, row| f(acc, Row { table, codes, row }))
        })
    }
}

impl<T> ExactSizeIterator for Rows<'_, T> {}

/// A borrowed view of one row of a [`Coded`] table: its block's columns
/// and its place in them.
pub struct Row<'a, T> {
    pub(crate) table: &'a Coded<T>,
    codes: &'a [Vec<u32>],
    row: usize,
}

impl<T> Clone for Row<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Row<'_, T> {}

impl<'a, T> Row<'a, T> {
    /// The code of column position `col`.
    pub(crate) fn code(&self, col: usize) -> u32 {
        self.codes[col][self.row]
    }

    /// The cell of column position `col` (`None` = empty); panics past the
    /// last column.
    pub fn get(&self, col: usize) -> Option<&'a T> {
        self.table.value(self.code(col))
    }

    /// The row's cells in column order (`None` = empty).
    pub fn iter(&self) -> impl Iterator<Item = Option<&'a T>> + 'a {
        let Row { table, codes, row } = *self;
        codes.iter().map(move |col| table.value(col[row]))
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
    fn state(t: &Coded<String>) -> (usize, Vec<Block>, usize) {
        (t.len(), t.blocks().to_vec(), t.dictionary().len())
    }

    fn table() -> Coded<String> {
        let mut t = Coded::new(vec!["a".into(), "b".into()]);
        t.push_row(vec![Some("x".into()), None]).unwrap();
        let y = t.intern("y".into());
        t.push_block(2, vec![vec![y, 1], vec![0, y]]).unwrap();
        t
    }

    #[test]
    fn every_fill_path_checks_the_shape_and_a_refusal_changes_nothing() {
        let t = table();
        assert_eq!((t.len(), t.blocks().len()), (3, 2));
        let rows: Vec<_> = t.rows().map(|r| r.to_vec()).collect();
        let (x, y) = (Some("x".to_string()), Some("y".to_string()));
        assert_eq!(rows, [[x.clone(), None], [y.clone(), None], [x, y]]);
        let before = state(&t);

        let mut u = t.clone();
        assert_eq!(
            u.push_row(vec![Some("z".into())]),
            Err(WidthError { got: 1, want: 2 })
        );
        assert_eq!(
            u.push_block(1, vec![vec![1]]),
            Err(AppendError::ColumnCount { got: 1, want: 2 })
        );
        assert_eq!(
            u.push_block(2, vec![vec![1, 1], vec![1]]),
            Err(AppendError::ColumnLength {
                column: 1,
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            u.push_block(1, vec![vec![1], vec![3]]),
            Err(AppendError::UnknownCode { column: 1, code: 3 })
        );
        assert_eq!(state(&u), before);
        // An in-place fill that interns an entry and leaves one column short
        // is refused, entry and all.
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

        // A well-formed fill lands as a block of its own, exact.
        u.fill(1, |codes, intern| {
            let z = intern("z".into());
            codes.iter_mut().for_each(|c| c.push(z));
        })
        .unwrap();
        assert_eq!((u.len(), u.blocks().len()), (4, 3));
        assert_eq!(u.dictionary().len(), before.2 + 1);
        let filled = &u.blocks()[2];
        assert!(filled.codes().iter().all(|c| c.capacity() == 1));

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
    fn every_pushed_block_keeps_its_buffers_and_reads_as_filled_rows() {
        let names = vec!["a".to_string(), "b".to_string()];
        let blocks = vec![
            (3, vec![vec![1, 2, 0], vec![2, 2, 1]]),
            (0, vec![vec![], vec![]]),
            (1, vec![vec![3], vec![0]]),
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

        // Each block moves in, buffers and all; the empty one is dropped.
        let mut pushed = Coded::new(names.clone());
        dict.iter().for_each(|v| _ = pushed.intern(v.clone()));
        let mut buffers = Vec::new();
        for (rows, block) in blocks.clone() {
            if rows > 0 {
                buffers.push(block.iter().map(|c| c.as_ptr()).collect::<Vec<_>>());
            }
            pushed.push_block(rows, block).unwrap();
        }
        let kept: Vec<Vec<*const u32>> = (pushed.blocks().iter())
            .map(|b| b.codes().iter().map(|c| c.as_ptr()).collect())
            .collect();
        assert_eq!(kept, buffers);
        assert_eq!((pushed.len(), pushed.blocks().len()), (6, 3));
        assert_eq!(pushed, filled);
        assert_eq!(pushed.blocks(), filled.blocks());
        let all: Vec<u32> = pushed.column_codes(1).collect();
        assert_eq!(all, [2, 2, 1, 0, 3, 0]);

        // Random access and skipping land in the right block.
        let rows: Vec<_> = filled.rows().map(|r| r.to_vec()).collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&pushed.row(i).to_vec(), row);
            assert_eq!(pushed.rows().nth(i).map(|r| r.to_vec()).as_ref(), Some(row));
            assert!(pushed
                .rows()
                .skip(i)
                .map(|r| r.to_vec())
                .eq(rows[i..].to_vec()));
        }
        assert!(pushed.rows().nth(6).is_none());

        // A pushed row extends the last block.
        pushed.push_row(vec![None, Some("w".into())]).unwrap();
        assert_eq!(pushed.blocks().last().map(Block::rows), Some(3));
        assert_eq!(pushed.row(6).to_vec(), [None, Some("w".to_string())]);
    }

    #[test]
    fn a_zero_column_table_keeps_its_row_count() {
        let mut t: Coded<String> = Coded::new(Vec::new());
        t.push_block(3, vec![]).unwrap();
        t.push_row(Vec::new()).unwrap();
        t.fill(2, |_, _| {}).unwrap();
        assert_eq!((t.len(), t.rows().count()), (6, 6));
        assert_eq!(t.row(5).iter().count(), 0);
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
        assert_eq!(sorted.blocks().len(), 1);
        let column: Vec<_> = sorted.column("a").unwrap().collect();
        assert_eq!(
            column,
            [Some(&"x".into()), Some(&"x".into()), Some(&"y".into())]
        );
        assert_eq!(sorted.dictionary(), t.dictionary());
        assert_ne!(sorted, t);
    }
}
