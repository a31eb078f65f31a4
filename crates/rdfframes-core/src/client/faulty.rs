//! A fault-injecting [`Endpoint`] decorator for chaos testing.
//!
//! [`FaultyEndpoint`] wraps any endpoint and perturbs its
//! [`Endpoint::query_chunk`] responses according to a deterministic plan:
//! either a **script** (an explicit per-request fault list, so a test can
//! say "request 2 fails transiently, request 5 drifts its schema") or a
//! **seeded** random process (every request draws from an
//! [`rand::rngs::StdRng`], so a whole chaos run replays from one `u64`).
//!
//! Faults model what the paper's SPARQL-over-HTTP setup can actually do to
//! a client mid-pagination:
//!
//! - [`Fault::Transient`] — the request never reaches the server
//!   (connection refused/reset). Retryable; the server does no work.
//! - [`Fault::TruncatedChunk`] — the server answers but the response body
//!   is cut off, so result decoding fails. Retryable; the server *did*
//!   serve the request. Surfacing this as an error (instead of silently
//!   returning the rows that survived) is load-bearing: a paginating
//!   client interprets a short chunk as "pagination done", so a silently
//!   truncated chunk would end the scan early and drop every later row.
//! - [`Fault::SchemaDrift`] — the chunk decodes but its header disagrees
//!   with earlier chunks (a proxy cache serving a stale or foreign
//!   response). The decorator renames the first column; the client notices
//!   on append. Retryable by re-requesting the chunk.
//! - [`Fault::Slow`] — the response is served intact but late.
//! - [`Fault::Fatal`] — the server rejects the query outright. Not
//!   retryable; retry loops must give up immediately.
//!
//! The decorator never fabricates result rows: a request either fails, is
//! delayed, or returns the wrapped endpoint's genuine answer (possibly with
//! a renamed header). [`Endpoint::execute_model`] is deliberately *not*
//! forwarded, so an `Executor` driving a wrapped [`EmbeddedEndpoint`] still
//! exercises the wire path the faults are designed for.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparql_engine::SolutionTable;

use crate::client::Endpoint;
use crate::error::{FrameError, Result};

/// One injected failure mode (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Request fails before reaching the server. Retryable.
    Transient,
    /// Response body cut off mid-transfer; decoding fails. Retryable.
    TruncatedChunk,
    /// Chunk arrives with a drifted header (first column renamed).
    /// Retryable on re-request.
    SchemaDrift,
    /// Response delayed by this much, then served intact.
    Slow(Duration),
    /// Server rejects the query. Not retryable.
    Fatal,
}

/// Deterministic fault source: an explicit script, then (optionally) a
/// seeded random drip.
struct FaultPlan {
    /// Per-request faults, consumed front to back (`None` = serve clean).
    /// Requests past the end of the script fall through to `rng`.
    script: VecDeque<Option<Fault>>,
    /// Seeded generator for open-ended chaos runs (`None` = clean once the
    /// script runs out).
    rng: Option<(StdRng, f64)>,
}

impl FaultPlan {
    /// The fault (if any) to inject for the next request.
    fn next_fault(&mut self) -> Option<Fault> {
        if let Some(entry) = self.script.pop_front() {
            return entry;
        }
        let (rng, rate) = self.rng.as_mut()?;
        if !rng.gen_bool(*rate) {
            return None;
        }
        // Only retryable *delivery* faults are drawn at random: a random
        // `Fatal` would make seeded runs useless for retry-parity testing,
        // `Slow` needs an explicit duration, and `SchemaDrift` is
        // script-only — whether a client can even detect drift depends on
        // the request's position (on the first chunk there is no reference
        // header yet), so dropping it at a random position would test the
        // protocol's blind spot, not the retry logic.
        Some(match rng.gen_range(0..2u32) {
            0 => Fault::Transient,
            _ => Fault::TruncatedChunk,
        })
    }
}

/// An [`Endpoint`] decorator that injects scripted or seeded faults into
/// `query_chunk` responses.
pub struct FaultyEndpoint<E> {
    inner: E,
    plan: Mutex<FaultPlan>,
    injected: AtomicU64,
}

impl<E: Endpoint> FaultyEndpoint<E> {
    /// Inject exactly `script[i]` on the i-th request (`None` = clean);
    /// requests beyond the script are served clean.
    pub fn scripted(inner: E, script: Vec<Option<Fault>>) -> Self {
        FaultyEndpoint {
            inner,
            plan: Mutex::new(FaultPlan {
                script: script.into(),
                rng: None,
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// Inject a random retryable fault on each request with probability
    /// `fault_rate`, deterministically from `seed`.
    pub fn seeded(inner: E, seed: u64, fault_rate: f64) -> Self {
        FaultyEndpoint {
            inner,
            plan: Mutex::new(FaultPlan {
                script: VecDeque::new(),
                rng: Some((StdRng::seed_from_u64(seed), fault_rate)),
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<E: Endpoint> Endpoint for FaultyEndpoint<E> {
    fn query_chunk(&self, sparql: &str, offset: usize, limit: usize) -> Result<SolutionTable> {
        // Decide the fault before touching the inner endpoint and drop the
        // lock: the inner call may sleep (request overhead) and must not
        // serialize concurrent chaos runs.
        let fault = self.plan.lock().expect("fault plan poisoned").next_fault();
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            None => self.inner.query_chunk(sparql, offset, limit),
            Some(Fault::Transient) => Err(FrameError::Transport(
                "injected fault: connection reset before request".into(),
            )),
            Some(Fault::TruncatedChunk) => {
                // The server served the chunk (its stats move) but the body
                // never fully arrived.
                let _ = self.inner.query_chunk(sparql, offset, limit)?;
                Err(FrameError::Transport(
                    "injected fault: response body truncated mid-transfer".into(),
                ))
            }
            Some(Fault::SchemaDrift) => {
                let mut table = self.inner.query_chunk(sparql, offset, limit)?;
                if let Some(first) = table.vars_mut().first_mut() {
                    first.push_str("_drift");
                }
                Ok(table)
            }
            Some(Fault::Slow(delay)) => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                self.inner.query_chunk(sparql, offset, limit)
            }
            Some(Fault::Fatal) => Err(FrameError::Endpoint(
                "injected fault: server rejected the query".into(),
            )),
        }
    }

    fn max_rows_per_request(&self) -> usize {
        self.inner.max_rows_per_request()
    }

    // `execute_model` intentionally not forwarded: faults target the wire
    // path, so the decorator forces the Executor onto it.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::InProcessEndpoint;
    use rdf_model::{Dataset, Graph, Term, Triple};
    use std::sync::Arc;

    fn endpoint() -> InProcessEndpoint {
        let mut g = Graph::new();
        for i in 0..6 {
            g.insert(&Triple::new(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::integer(i),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        InProcessEndpoint::new(Arc::new(ds))
    }

    const Q: &str = "SELECT ?s ?o FROM <http://g> WHERE { ?s <http://x/p> ?o } ORDER BY ?o";

    #[test]
    fn script_drives_faults_per_request() {
        let ep = FaultyEndpoint::scripted(
            endpoint(),
            vec![Some(Fault::Transient), None, Some(Fault::Fatal)],
        );
        assert!(matches!(
            ep.query_chunk(Q, 0, 10),
            Err(FrameError::Transport(_))
        ));
        assert_eq!(ep.query_chunk(Q, 0, 10).unwrap().len(), 6);
        assert!(matches!(
            ep.query_chunk(Q, 0, 10),
            Err(FrameError::Endpoint(_))
        ));
        // Past the script: clean.
        assert_eq!(ep.query_chunk(Q, 0, 10).unwrap().len(), 6);
        assert_eq!(ep.faults_injected(), 2);
    }

    #[test]
    fn schema_drift_renames_header_but_keeps_rows() {
        let ep = FaultyEndpoint::scripted(endpoint(), vec![Some(Fault::SchemaDrift)]);
        let drifted = ep.query_chunk(Q, 0, 10).unwrap();
        assert_eq!(drifted.vars(), ["s_drift", "o"]);
        let clean = ep.query_chunk(Q, 0, 10).unwrap();
        assert_eq!(clean.vars(), ["s", "o"]);
        assert!(drifted.rows().eq(clean.rows()));
    }

    #[test]
    fn truncation_reaches_the_server_then_fails() {
        let ep = FaultyEndpoint::scripted(endpoint(), vec![Some(Fault::TruncatedChunk)]);
        assert!(matches!(
            ep.query_chunk(Q, 0, 10),
            Err(FrameError::Transport(_))
        ));
        // The inner endpoint served (and accounted) the request.
        assert_eq!(ep.inner().stats().requests(), 1);
    }

    #[test]
    fn seeded_faults_replay_identically() {
        let run = |seed| {
            let ep = FaultyEndpoint::seeded(endpoint(), seed, 0.5);
            (0..10)
                .map(|_| ep.query_chunk(Q, 0, 10).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }
}
