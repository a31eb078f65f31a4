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
//! A [`DataFrame`] is column-major and dictionary-coded: one frame-wide
//! dictionary of [`Cell`]s (code 0 = null) and one `Vec<u32>` of codes per
//! column, read back through borrowed [`RowView`]s. Rows enter through one
//! interface — [`DataFrame::intern`] a cell, [`DataFrame::append`] a block of
//! code columns ([`DataFrame::push_row`] is its one-row form) — and every
//! operator is a gather over codes; [`DataFrame`] says who shares entries.

#![forbid(unsafe_code)]

pub mod cell;
pub mod csv;
pub mod describe;
pub mod frame;
pub mod groupby;
pub mod join;

pub use cell::Cell;
pub use describe::{describe, describe_table, ColumnSummary};
pub use frame::{AppendError, DataFrame, RowView, Rows};
pub use groupby::AggFn;
pub use join::{JoinError, JoinType};
