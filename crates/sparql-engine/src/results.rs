//! Query result representations:
//!
//! - [`IdTable`] is the executor's *internal* representation: a
//!   struct-of-arrays table with one dense `Vec<TermId>` per variable column
//!   plus a presence bitmap (`None`/unbound is a cleared bit, the slot holds
//!   a zero filler). Joins, DISTINCT, and grouping read column slices
//!   sequentially and hash integers; BGP extension appends into column
//!   buffers instead of allocating a `Vec` per row. Every batch an operator
//!   hands on is one; it leaves the engine only wrapped in a
//!   [`crate::engine::ColumnBatch`].
//! - [`SolutionTable`] is the *public* boundary type: the client's coded
//!   table, [`dataframe::Coded`], over [`Term`]s — the DataFrame is the same
//!   type over cells. [`crate::QueryCursor::drain`] fills either through
//!   [`crate::engine::CodeRemap`], so a page holds one term per *distinct*
//!   id and the wire codecs work once per entry. Rows are views; equality is
//!   by value, whatever the dictionary's order or duplicates.
//!
//! Columns move in bulk: [`Column::from_ids`] takes a value vector whole,
//! [`Column::gather`] copies an index list's ids in one pass (join output,
//! a BGP level's carried columns, row permutations) and
//! [`Column::filter_mask`] compacts in place. Ids are copied blind — an
//! absent slot already holds the `TermId(0)` filler — and a source that is
//! [`Column::all_present`] (one pass over its words) yields all-ones bitmap
//! words; only a partly bound one moves bit by bit. A bitmap holds
//! `len.div_ceil(64)` words and no bit past `len`, which `Eq` relies on.

use std::cmp::Ordering;
use std::ops::{Deref, DerefMut};

use dataframe::{Coded, Row};
use rdf_model::{Term, TermId};

/// Filler stored in absent slots so equal tables compare equal bit-for-bit.
const ABSENT: TermId = TermId(0);

/// Gather index meaning "no source row" (a left join's unmatched left row):
/// [`Column::gather`] emits an absent slot for it.
pub(crate) const NO_MATCH: u32 = u32::MAX;

/// One column of optional [`TermId`]s: dense id vector + presence bitmap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Column {
    ids: Vec<TermId>,
    present: Vec<u64>,
}

impl Column {
    /// Empty column with room for `cap` values.
    pub fn with_capacity(cap: usize) -> Self {
        Column {
            ids: Vec::with_capacity(cap),
            present: Vec::with_capacity(cap.div_ceil(64)),
        }
    }

    /// An all-absent column of length `len`.
    pub fn absent(len: usize) -> Self {
        Column {
            ids: vec![ABSENT; len],
            present: vec![0; len.div_ceil(64)],
        }
    }

    /// A fully-present column owning `ids`.
    pub fn from_ids(ids: Vec<TermId>) -> Self {
        let mut c = Column {
            present: Vec::with_capacity(ids.len().div_ceil(64)),
            ids,
        };
        c.mark_all_present();
        c
    }

    /// Fill an empty bitmap with all-ones words for the current length,
    /// tail bits zero.
    fn mark_all_present(&mut self) {
        let len = self.ids.len();
        self.present.resize(len / 64, !0);
        if !len.is_multiple_of(64) {
            self.present.push((1u64 << (len % 64)) - 1);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Append one optional value.
    #[inline]
    pub fn push(&mut self, v: Option<TermId>) {
        let i = self.ids.len();
        if i.is_multiple_of(64) {
            self.present.push(0);
        }
        match v {
            Some(id) => {
                self.ids.push(id);
                self.present[i / 64] |= 1 << (i % 64);
            }
            None => self.ids.push(ABSENT),
        }
    }

    /// Is slot `i` bound?
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        self.present[i / 64] & (1 << (i % 64)) != 0
    }

    /// Read slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TermId> {
        if self.is_present(i) {
            Some(self.ids[i])
        } else {
            None
        }
    }

    /// The raw id slice (absent slots hold a zero filler — consult the
    /// bitmap or [`Column::all_present`] before trusting values).
    pub fn ids(&self) -> &[TermId] {
        &self.ids
    }

    /// True when every slot is bound (one popcount pass over the bitmap —
    /// this is what lets joins pick hash-key columns without a row scan).
    pub fn all_present(&self) -> bool {
        let len = self.ids.len();
        let full = len / 64;
        if self.present[..full].iter().any(|&w| w != !0u64) {
            return false;
        }
        if !len.is_multiple_of(64) {
            let mask = (1u64 << (len % 64)) - 1;
            return self.present[full] & mask == mask;
        }
        true
    }

    /// The column `[self[i] for i in idx]` (duplicates allowed; a `NO_MATCH`
    /// index yields an absent slot): ids copied blind, all-ones bitmap words
    /// from an [`Column::all_present`] source, bit by bit otherwise.
    pub fn gather(&self, idx: impl ExactSizeIterator<Item = u32> + Clone) -> Column {
        let mut out = Column::with_capacity(idx.len());
        let mut unmatched = false;
        out.ids.extend(idx.clone().map(|i| match i {
            NO_MATCH => {
                unmatched = true;
                ABSENT
            }
            i => self.ids[i as usize],
        }));
        if !unmatched && self.all_present() {
            out.mark_all_present();
            return out;
        }
        for (k, i) in idx.enumerate() {
            if k % 64 == 0 {
                out.present.push(0);
            }
            if i != NO_MATCH && self.is_present(i as usize) {
                out.present[k / 64] |= 1 << (k % 64);
            }
        }
        out
    }

    /// Make the slots at `rows` absent (ids reset to the filler).
    pub(crate) fn clear_slots(&mut self, rows: &[usize]) {
        for &i in rows {
            self.ids[i] = ABSENT;
            self.present[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Keep only slots whose mask bit is `true` (in order), compacting in
    /// place: slot `w ≤ r` is written after slot `r` was read. An
    /// all-present bitmap stays all ones and is only truncated.
    pub fn filter_mask(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.ids.len());
        let dense = self.all_present();
        let mut w = 0;
        for r in (0..keep.len()).filter(|&r| keep[r]) {
            self.ids[w] = self.ids[r];
            if !dense {
                let bit = u64::from(self.is_present(r)) << (w % 64);
                let word = &mut self.present[w / 64];
                *word = *word & !(1 << (w % 64)) | bit;
            }
            w += 1;
        }
        self.truncate(w);
    }

    /// Encode slot `i` for hashing: 0 = unbound, otherwise id + 1.
    #[inline]
    pub fn hash_code(&self, i: usize) -> u64 {
        match self.get(i) {
            Some(id) => id.0 as u64 + 1,
            None => 0,
        }
    }

    /// Estimated heap bytes held by this column (id vector + presence
    /// bitmap). Used by budget enforcement; tracks the dominant
    /// allocations, not the allocator's exact footprint.
    pub fn estimated_bytes(&self) -> u64 {
        (self.ids.len() as u64).saturating_mul(std::mem::size_of::<TermId>() as u64)
            + (self.present.len() as u64).saturating_mul(8)
    }

    /// Shorten the column to `len` slots, zeroing bitmap bits past the end
    /// (the invariant `Eq` and [`Column::all_present`] rely on).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.ids.len() {
            return;
        }
        self.ids.truncate(len);
        self.present.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = self.present.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
    }
}

/// Internal columnar id-native solution table (struct-of-arrays).
///
/// Each variable is a [`Column`]; all columns share the table's row count.
/// The unit table (no columns, one row) is representable because the row
/// count is stored explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdTable {
    /// Column (variable) names.
    pub vars: Vec<String>,
    cols: Vec<Column>,
    rows: usize,
}

impl IdTable {
    /// Empty table with a schema.
    pub fn with_vars(vars: Vec<String>) -> Self {
        let cols = vars.iter().map(|_| Column::default()).collect();
        IdTable {
            vars,
            cols,
            rows: 0,
        }
    }

    /// Table assembled from prebuilt columns (all of length `rows`).
    pub fn from_columns(vars: Vec<String>, cols: Vec<Column>, rows: usize) -> Self {
        debug_assert_eq!(vars.len(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        IdTable { vars, cols, rows }
    }

    /// The unit table: no columns, one empty row (join identity).
    pub fn unit() -> Self {
        IdTable {
            vars: Vec::new(),
            cols: Vec::new(),
            rows: 1,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Borrow a column.
    pub fn col(&self, idx: usize) -> &Column {
        &self.cols[idx]
    }

    /// Borrow all columns (the BGP operator hands them to the scan-loop
    /// body, which takes a column slice).
    pub(crate) fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Read one cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<TermId> {
        self.cols[col].get(row)
    }

    /// Append a row given as a slice parallel to `vars` (test/boundary
    /// helper; hot paths build whole columns instead).
    pub fn push_row(&mut self, row: &[Option<TermId>]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(*v);
        }
        self.rows += 1;
    }

    /// Copy row `i` into `buf` (reused scratch for expression contexts).
    pub fn read_row(&self, i: usize, buf: &mut Vec<Option<TermId>>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c.get(i)));
    }

    /// Keep only rows whose mask bit is `true`.
    pub fn filter_mask(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.rows);
        for c in &mut self.cols {
            c.filter_mask(keep);
        }
        self.rows = keep.iter().filter(|&&k| k).count();
    }

    /// New table holding rows `idx` (in `idx` order; duplicates allowed).
    pub fn gather_rows(&self, idx: &[u32]) -> IdTable {
        let cols = self
            .cols
            .iter()
            .map(|c| c.gather(idx.iter().copied()))
            .collect();
        IdTable {
            vars: self.vars.clone(),
            cols,
            rows: idx.len(),
        }
    }

    /// Keep rows `[offset, offset+limit)` (`None` limit = to the end).
    pub fn slice(&mut self, offset: usize, limit: Option<usize>) {
        let start = offset.min(self.rows);
        let end = match limit {
            Some(l) => start.saturating_add(l).min(self.rows),
            None => self.rows,
        };
        if start == 0 {
            // LIMIT without OFFSET: truncate columns in place, no copies.
            for c in &mut self.cols {
                c.truncate(end);
            }
            self.rows = end;
            return;
        }
        let idx: Vec<u32> = (start as u32..end as u32).collect();
        *self = self.gather_rows(&idx);
    }

    /// Concatenate another table's rows onto this one, column-wise. Both
    /// tables must share the same schema (the pipeline's accumulating
    /// operators append same-plan batches).
    ///
    /// Onto an empty table this is one bulk copy per column: under an
    /// unbounded pull a breaker's whole input arrives as a single batch.
    pub(crate) fn append(&mut self, other: &IdTable) {
        debug_assert_eq!(self.vars, other.vars);
        if self.rows == 0 {
            self.cols.clone_from(&other.cols);
            self.rows = other.rows;
            return;
        }
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            for i in 0..other.rows {
                dst.push(src.get(i));
            }
        }
        self.rows += other.rows;
    }

    /// Decompose into `(vars, columns, row count)` so consuming operators
    /// (projection) can move columns out instead of cloning them.
    pub fn into_parts(self) -> (Vec<String>, Vec<Column>, usize) {
        (self.vars, self.cols, self.rows)
    }

    /// Add a column (must match the current row count).
    pub fn add_column(&mut self, name: String, col: Column) {
        debug_assert_eq!(col.len(), self.rows);
        self.vars.push(name);
        self.cols.push(col);
    }

    /// Replace an existing column (must match the current row count).
    pub fn replace_column(&mut self, idx: usize, col: Column) {
        debug_assert_eq!(col.len(), self.rows);
        self.cols[idx] = col;
    }

    /// Estimated heap bytes held by this table's columns (budget
    /// enforcement input; see [`Column::estimated_bytes`]).
    pub fn estimated_bytes(&self) -> u64 {
        self.cols
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.estimated_bytes()))
    }
}

/// A solution table — the engine's public result type: a [`Coded`] table
/// of terms named by the query's variables, code 0 unbound. Every
/// constructor checks the shape, so a table is rectangular and its codes
/// resolve; entries may repeat or go unreferenced, and `==` compares values.
/// The coded table's API is reached through `Deref`.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct SolutionTable(pub(crate) Coded<Term>);

/// A borrowed view of one row of a [`SolutionTable`].
pub type SolutionRow<'a> = Row<'a, Term>;

impl SolutionTable {
    /// Empty table with a schema.
    pub fn with_vars(vars: Vec<String>) -> Self {
        SolutionTable(Coded::new(vars))
    }

    /// The unit table: no columns, one empty row (join identity).
    pub fn unit() -> Self {
        SolutionTable(Coded::unit())
    }

    /// A table of `len` rows from a dictionary and one code column per
    /// variable; `None` unless every column holds `len` codes the
    /// dictionary resolves.
    pub fn from_columns(
        vars: Vec<String>,
        dict: Vec<Term>,
        codes: Vec<Vec<u32>>,
        len: usize,
    ) -> Option<Self> {
        Coded::from_columns(vars, dict, codes, len)
            .ok()
            .map(SolutionTable)
    }

    /// Column (variable) names.
    pub fn vars(&self) -> &[String] {
        self.names()
    }

    /// The names, to rename in place.
    pub fn vars_mut(&mut self) -> &mut [String] {
        self.names_mut()
    }

    /// Sort rows lexicographically by value (order-insensitive comparisons
    /// in tests and result checksums), unbound first.
    pub fn canonicalize(&mut self) {
        self.sort_rows(|a, b| {
            (a.iter().zip(b.iter()))
                .map(|pair| match pair {
                    (Some(x), Some(y)) => x.order_cmp(y),
                    (x, y) => x.is_some().cmp(&y.is_some()),
                })
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }
}

impl Deref for SolutionTable {
    type Target = Coded<Term>;

    fn deref(&self) -> &Coded<Term> {
        &self.0
    }
}

impl DerefMut for SolutionTable {
    fn deref_mut(&mut self) -> &mut Coded<Term> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Column {
        /// The presence bitmap itself, capacity included (the kernel tests
        /// check its layout).
        pub(crate) fn bitmap(&self) -> &Vec<u64> {
            &self.present
        }
    }

    #[test]
    fn unit_and_empty() {
        let u = SolutionTable::unit();
        assert_eq!(u.len(), 1);
        assert!(u.vars().is_empty());
        let e = SolutionTable::with_vars(vec!["x".into()]);
        assert!(e.is_empty());
    }

    #[test]
    fn column_access() {
        let mut t = SolutionTable::with_vars(vec!["a".into(), "b".into()]);
        t.push_row(vec![Some(Term::integer(1)), None]).unwrap();
        t.push_row(vec![Some(Term::integer(2)), Some(Term::string("x"))])
            .unwrap();
        let a: Vec<_> = t.column("a").unwrap().collect();
        assert_eq!(a, [Some(&Term::integer(1)), Some(&Term::integer(2))]);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn canonicalize_sorts() {
        let mut t = SolutionTable::with_vars(vec!["a".into()]);
        for v in [Some(Term::integer(2)), None, Some(Term::integer(1))] {
            t.push_row(vec![v]).unwrap();
        }
        t.canonicalize();
        let rows: Vec<_> = t.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows[0], vec![None]);
        assert_eq!(rows[1], vec![Some(Term::integer(1))]);
    }

    #[test]
    fn from_columns_refuses_a_bad_shape() {
        let table = |codes: Vec<Vec<u32>>, len| {
            SolutionTable::from_columns(vec!["a".into()], vec![Term::integer(1)], codes, len)
        };
        assert!(table(vec![vec![1, 0]], 2).is_some());
        assert!(table(vec![], 0).is_none(), "no column for a variable");
        assert!(table(vec![vec![1]], 2).is_none(), "a short column");
        assert!(
            table(vec![vec![2]], 1).is_none(),
            "a code past the dictionary"
        );
    }

    #[test]
    fn column_bitmap_round_trip() {
        let mut c = Column::default();
        for i in 0..130u32 {
            c.push(if i % 3 == 0 { Some(TermId(i)) } else { None });
        }
        assert_eq!(c.len(), 130);
        assert!(!c.all_present());
        for i in 0..130 {
            assert_eq!(
                c.get(i),
                if i % 3 == 0 {
                    Some(TermId(i as u32))
                } else {
                    None
                }
            );
        }
        let full = Column::from_ids((0..130).map(TermId).collect());
        assert!(full.all_present());
        assert_eq!(full.get(129), Some(TermId(129)));

        // Truncation must zero tail bits so equal contents compare equal.
        let mut trunc = c.clone();
        trunc.truncate(65);
        assert_eq!(trunc.len(), 65);
        let mut rebuilt = Column::default();
        for i in 0..65 {
            rebuilt.push(c.get(i));
        }
        assert_eq!(trunc, rebuilt);
        let mut short = Column::from_ids((0..10).map(TermId).collect());
        short.truncate(3);
        assert!(short.all_present());
        assert_eq!(short.len(), 3);
    }

    #[test]
    fn column_filter_and_gather() {
        let mut c = Column::default();
        c.push(Some(TermId(1)));
        c.push(None);
        c.push(Some(TermId(3)));
        let g = c.gather([2, 0, 1, 2, NO_MATCH].into_iter());
        assert_eq!(g.get(0), Some(TermId(3)));
        assert_eq!(g.get(1), Some(TermId(1)));
        assert_eq!(g.get(2), None);
        assert_eq!(g.get(3), Some(TermId(3)));
        assert_eq!(g.get(4), None);
        c.filter_mask(&[true, false, true]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Some(TermId(3)));
        assert!(c.all_present());
    }

    #[test]
    fn id_table_unit_rows_and_slice() {
        let u = IdTable::unit();
        assert_eq!(u.len(), 1);
        assert!(u.vars.is_empty());

        let mut t = IdTable::with_vars(vec!["a".into(), "b".into()]);
        assert!(t.is_empty());
        t.push_row(&[Some(TermId(3)), None]);
        t.push_row(&[Some(TermId(4)), Some(TermId(5))]);
        t.push_row(&[None, Some(TermId(6))]);
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.get(1, 1), Some(TermId(5)));
        assert_eq!(t.get(2, 0), None);

        let mut buf = Vec::new();
        t.read_row(1, &mut buf);
        assert_eq!(buf, vec![Some(TermId(4)), Some(TermId(5))]);

        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(0, 1), Some(TermId(6)));

        t.slice(1, Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, 0), Some(TermId(4)));

        // Out-of-range slices clamp to empty, with saturating arithmetic.
        let mut oob = g.clone();
        oob.slice(5, Some(3));
        assert_eq!(oob.len(), 0);
        let mut oob = g.clone();
        oob.slice(usize::MAX, Some(usize::MAX));
        assert_eq!(oob.len(), 0);
        assert_eq!(oob.vars, g.vars);

        let mut t2 = IdTable::with_vars(vec!["a".into()]);
        t2.push_row(&[Some(TermId(1))]);
        t2.push_row(&[Some(TermId(2))]);
        t2.filter_mask(&[false, true]);
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.get(0, 0), Some(TermId(2)));
    }
}
