//! Error type for the RDFFrames core.

use std::fmt;

/// Errors raised while recording operators, generating queries, or executing
/// them against an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// An operator referenced a column not present in the frame.
    UnknownColumn(String),
    /// A filter condition string could not be parsed.
    BadCondition(String),
    /// An operator sequence is invalid (e.g. aggregation without group_by
    /// followed by further operators).
    InvalidSequence(String),
    /// The endpoint rejected or failed a query. Fatal: retrying the same
    /// request reproduces the same failure (parse error, unknown graph,
    /// server-side rejection).
    Endpoint(String),
    /// A transport-level fault: the request may not have reached the
    /// server, or the response arrived damaged (connection reset, truncated
    /// or malformed result encoding, schema drift between chunks).
    /// Retryable — a cursor-less SPARQL endpoint re-executes per request,
    /// so repeating the chunk is always safe.
    Transport(String),
    /// The server gave up on the query because it exceeded a configured
    /// resource budget (rows scanned, intermediate size, memory, or
    /// deadline). Fatal: re-sending the identical query hits the identical
    /// limit.
    ResourceExhausted(String),
    /// Prefix expansion failed.
    Prefix(String),
    /// The query model could not be compiled directly to an engine plan
    /// (embedded execution path).
    Compile(String),
    /// The server's admission controller shed this query: every execution
    /// slot was busy and the bounded wait queue was full (or the query
    /// class does not queue). Retryable — nothing about the query itself
    /// failed; the server was momentarily saturated and says so instead of
    /// queueing unboundedly or hanging.
    Overloaded(String),
    /// A server-side mutation failed before it was published: the
    /// write-ahead commit errored (disk fault, poisoned store). The last
    /// published epoch keeps serving; nothing was partially applied.
    Mutation(String),
}

impl FrameError {
    /// Is retrying the same request worthwhile? Transport faults qualify
    /// (the failure was in delivery, not in the query), as does admission
    /// shedding (the server was saturated at that instant; the load may
    /// have drained by the retry). Endpoint rejections, budget exhaustion,
    /// and every client-side error are deterministic — the retry would
    /// fail the same way.
    pub fn is_retryable(&self) -> bool {
        matches!(self, FrameError::Transport(_) | FrameError::Overloaded(_))
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            FrameError::BadCondition(c) => write!(f, "bad filter condition: {c}"),
            FrameError::InvalidSequence(m) => write!(f, "invalid operator sequence: {m}"),
            FrameError::Endpoint(m) => write!(f, "endpoint error: {m}"),
            FrameError::Transport(m) => write!(f, "transport error: {m}"),
            FrameError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            FrameError::Prefix(m) => write!(f, "prefix error: {m}"),
            FrameError::Compile(m) => write!(f, "query compilation error: {m}"),
            FrameError::Overloaded(m) => write!(f, "server overloaded: {m}"),
            FrameError::Mutation(m) => write!(f, "mutation failed: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A row of the wrong width: a bug in whoever built it, reported instead of
/// panicking.
impl From<dataframe::WidthError> for FrameError {
    fn from(e: dataframe::WidthError) -> Self {
        FrameError::InvalidSequence(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, FrameError>;
