//! RDF data model for the RDFFrames reproduction.
//!
//! Provides the substrate every other crate builds on:
//!
//! - [`term`]: RDF terms — IRIs, literals (with XSD value typing), blank nodes.
//! - [`interner`]: bidirectional term ↔ integer-id interning so the store and
//!   the SPARQL engine can work on `u32` ids in hot paths.
//! - [`graph`]: [`TripleIndex`], an id-only triple store with SPO/POS/OSP
//!   orderings supporting all eight triple-pattern access paths, and
//!   [`Graph`], the stand-alone builder (a dictionary plus such an index)
//!   that generators and parsers fill.
//! - [`dataset`]: named-graph container (the paper queries DBpedia, DBLP and
//!   YAGO graphs identified by graph URIs): **one** interner, and one
//!   `TripleIndex` per graph keyed by its ids — every term stored once, and
//!   cross-graph query evaluation joins on the very ids the scans emit.
//! - [`ntriples`]: N-Triples parser and serializer (stands in for rdflib in
//!   the "rdflib + pandas" baseline).
//! - [`persist`]: durable, crash-consistent dataset storage — checksummed
//!   snapshots plus a write-ahead log, recovered via [`Dataset::open`].
//! - [`hash`]: a fast non-cryptographic hasher for interner-style maps.
//! - [`prefix`]: prefix map / CURIE expansion used by the RDFFrames API.
//! - [`vocab`]: well-known vocabulary constants.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod error;
pub mod graph;
pub mod hash;
pub mod interner;
pub mod ntriples;
pub mod persist;
pub mod prefix;
pub mod term;
pub mod vocab;

pub use dataset::{Dataset, TermRanks};
pub use error::{ModelError, Result};
pub use graph::{Graph, GraphStats, ScanPos, SeekHint, TripleIndex};
pub use interner::{Interner, TermId};
pub use persist::{RecoveryReport, StorageError, Store};
pub use prefix::PrefixMap;
pub use term::{Literal, Term, Triple};
