//! Experiment harness reproducing the RDFFrames evaluation (Section 6).
//!
//! - [`data`]: dataset builders at configurable scale.
//! - [`baselines`]: every alternative compared in the paper — naive query
//!   generation, Navigation + dataframe, rdflib + dataframe,
//!   SPARQL-dump + dataframe, and expert-written SPARQL.
//! - [`casestudies`]: the three case studies (movie-genre classification,
//!   topic modeling, knowledge-graph embedding) with their RDFFrames code
//!   and expert queries.
//! - [`queries`]: the 15-query synthetic workload of Table 2.
//! - [`harness`]: argument parsing and timing/reporting utilities shared by
//!   the `fig3`, `fig4`, `fig5` and `ablation` binaries.

pub mod baselines;
pub mod casestudies;
pub mod data;
pub mod harness;
pub mod queries;
