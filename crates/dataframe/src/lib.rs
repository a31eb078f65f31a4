//! A small dataframe library — the pandas stand-in for the RDFFrames
//! reproduction.
//!
//! The paper's client-side baselines ("Navigation + pandas", "rdflib +
//! pandas", "SPARQL + pandas") pull raw data out of the knowledge graph and
//! do the relational work in pandas. This crate provides the operations those
//! baselines need with comparable asymptotics: vectorized filters, hash
//! joins (inner/left/right/full outer), hash group-by with aggregation,
//! sorting, slicing, and CSV I/O.
//!
//! A [`DataFrame`] is a [`Coded`] table of [`Cell`]s: column-major and
//! dictionary-coded, one frame-wide dictionary of cells and one `Vec<u32>`
//! of codes per column, where code 0 is null *with no entry* and code `c`
//! is entry `c - 1`. The engine's result pages are the same [`Coded`] type
//! over terms. Rows enter through one checked interface — `intern` a value,
//! `append_blocks` of code columns or `fill` them in place (`push_row` is
//! the one-row form) — are read back through borrowed [`RowView`]s, and
//! every operator is a gather over codes.

#![forbid(unsafe_code)]

pub mod cell;
pub mod coded;
pub mod csv;
pub mod describe;
pub mod frame;
pub mod groupby;
pub mod join;

pub use cell::Cell;
pub use coded::{AppendError, Coded, Row, WidthError};
pub use describe::{describe, describe_table, ColumnSummary};
pub use frame::{DataFrame, RowView, Rows};
pub use groupby::AggFn;
pub use join::{JoinError, JoinType};
