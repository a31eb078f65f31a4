//! An in-memory SPARQL 1.1 SELECT engine.
//!
//! This crate is the RDF-engine substrate for the RDFFrames reproduction: it
//! plays the role Virtuoso plays in the paper. It implements the subset of
//! SPARQL 1.1 that RDFFrames-generated queries (and the expert-written
//! baselines) use:
//!
//! - Basic graph patterns, `OPTIONAL`, `UNION`, `FILTER`, `GRAPH`, nested
//!   `SELECT` subqueries, `BIND`/expression projection.
//! - `GROUP BY` / aggregates (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`/`SAMPLE`, with
//!   `DISTINCT`) and `HAVING`.
//! - Solution modifiers: `DISTINCT`, `ORDER BY`, `LIMIT`, `OFFSET`.
//! - Expressions: comparisons with SPARQL value semantics, boolean algebra,
//!   arithmetic, `REGEX`, `STR`, `LANG`, `DATATYPE`, `BOUND`, `isIRI`,
//!   `isLiteral`, `isBlank`, `YEAR`, `IN`/`NOT IN`, and `xsd:dateTime` casts.
//!
//! Pipeline: [`parser`] produces an AST, [`algebra`] translates it to the
//! SPARQL algebra, [`optimizer`] reorders basic graph patterns using graph
//! statistics (this is what a "powerful-enough" engine optimizer does and is
//! the mechanism behind the paper's naive-vs-optimized experiments) and
//! fuses `LIMIT` over `ORDER BY` into bounded top-k selection, and [`eval`]
//! evaluates with bag semantics.
//!
//! Evaluation is **columnar and id-native**: intermediate results are
//! struct-of-arrays tables of dataset-global `u32` term ids (one dense
//! column per variable plus a presence bitmap), scans append into reused
//! column buffers, and joins, `DISTINCT`, and grouping hash integers off
//! column slices. Terms are materialized only at expression/sort boundaries
//! and when a result is decoded — see [`eval`] and [`pool`]. There is one
//! executor, a pull-based operator pipeline that [`engine::Engine::execute`]
//! drains in one pull and [`engine::Engine::cursor`] batch by batch, and one
//! oracle, the seed term-materialized evaluator, kept for differential
//! testing: not an engine mode, but one function,
//! [`eval_reference::execute`], that a test calls on an engine and a
//! prepared query. The two agree on results *and* on scan work:
//! the oracle evaluates every occurrence of a repeated subplan, the executor
//! evaluates it once, and its `rows_scanned + shared_scans` is exactly the
//! oracle's `rows_scanned`.

#![forbid(unsafe_code)]

pub mod algebra;
pub mod ast;
pub mod budget;
pub mod engine;
pub mod error;
pub mod eval;
pub mod eval_reference;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod pool;
pub mod regex_lite;
pub mod results;
mod sse;

pub use budget::{BudgetMeter, QueryBudget, ResourceKind};
pub use dataframe::{AppendError, WidthError};
pub use engine::{
    CodeRemap, ColumnBatch, Engine, EngineConfig, ExecStats, PreparedQuery, QueryCursor,
};
pub use error::{EngineError, Result};
pub use results::{SolutionRow, SolutionTable};
