//! RDFFrames: a dataframe-to-SPARQL compiler for knowledge-graph access.
//!
//! This crate is the Rust reproduction of the system described in
//! *"RDFFrames: Knowledge Graph Access for Machine Learning Tools"* (VLDB
//! 2020). It provides:
//!
//! - **The user API** ([`api`]): a lazy, imperative, navigational interface —
//!   [`KnowledgeGraph`] initializers (`seed`, `entities`,
//!   `feature_domain_range`), navigational [`RDFFrame::expand`], and
//!   relational operators (`filter`, `select_cols`, `join`, `group_by` with
//!   aggregation, `sort`, `head`). Calls are *recorded*, not executed
//!   (the paper's Recorder).
//! - **The query model** ([`model`]): the nested intermediate representation
//!   of Figure 2, generated from the operator queue by the Generator with
//!   the paper's three nesting rules, then rendered to a single compact
//!   SPARQL query by the Translator. A naive per-operator translator is
//!   included as the evaluation baseline.
//! - **The executor** ([`exec`]): sends the SPARQL to an [`Endpoint`]
//!   (an in-process engine standing in for Virtuoso-over-HTTP), handles
//!   pagination transparently, and assembles a [`dataframe::DataFrame`].
//!
//! ```
//! use rdfframes_core::api::KnowledgeGraph;
//!
//! let graph = KnowledgeGraph::new("http://dbpedia.org")
//!     .with_prefix("dbpp", "http://dbpedia.org/property/")
//!     .with_prefix("dbpr", "http://dbpedia.org/resource/");
//! let movies = graph.feature_domain_range("dbpp:starring", "movie", "actor");
//! let prolific = movies
//!     .expand("actor", "dbpp:birthPlace", "country")
//!     .filter("country", &["=dbpr:United_States"])
//!     .group_by(&["actor"])
//!     .count("movie", "movie_count", true)
//!     .filter("movie_count", &[">=50"]);
//! let sparql = prolific.to_sparql().unwrap();
//! assert!(sparql.contains("GROUP BY ?actor"));
//! assert!(sparql.contains("HAVING"));
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod error;
pub mod exec;
pub mod model;
pub mod reference;

pub use api::{AggFunc, Direction, JoinType, KnowledgeGraph, RDFFrame, SortOrder};
pub use client::{
    AdmissionGovernor, AdmissionPermit, DurableSnapshotServer, EmbeddedEndpoint, Endpoint,
    EndpointConfig, EndpointStats, EpochEndpoints, Fault, FaultyEndpoint, InProcessEndpoint,
    QueryClass, ServerStats, ServingConfig, WireFormat,
};
pub use error::{FrameError, Result};
pub use exec::{Completeness, Executor, ExecutorStats, PartialFrame, RetryPolicy};
