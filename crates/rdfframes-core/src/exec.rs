//! The Executor: frame out, dataframe in (paper Figure 1, right side).
//!
//! The executor builds the frame's query model once, then picks one of two
//! execution paths per endpoint:
//!
//! - **embedded** — the endpoint implements
//!   [`Endpoint::execute_model`] (see
//!   [`EmbeddedEndpoint`](crate::client::EmbeddedEndpoint)): the model
//!   plans its rendered SPARQL once (cached) and the result comes back as
//!   typed columns. No pagination, no wire format.
//! - **wire** — everything else: render the model to SPARQL and do the
//!   mechanics the paper lists in Section 4.3 — send the text, paginate
//!   transparently (re-requesting chunk by chunk, since the SPARQL protocol
//!   over HTTP has no cursors), and assemble one dataframe from all chunks.
//!
//! The wire path is where faults live (each chunk is a separate request
//! over an unreliable transport), so the executor owns the client half of
//! the failure story: a [`RetryPolicy`] re-requests chunks that failed
//! *in delivery* (transport faults — the protocol's re-execution-per-chunk
//! contract makes retries idempotent), and [`Executor::run_partial`]
//! reports the rows assembled before an unrecoverable failure instead of
//! discarding them, tagged with a [`Completeness`] marker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dataframe::DataFrame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparql_engine::SolutionTable;

use crate::api::rdfframe::RDFFrame;
use crate::client::convert::{append_table, table_to_dataframe};
use crate::client::Endpoint;
use crate::error::{FrameError, Result};
use crate::model::{generator, render};

/// When (and how hard) the executor retries a failed chunk request.
///
/// Backoff is exponential with deterministic jitter: attempt *k* (1-based)
/// sleeps `base_backoff · backoff_multiplier^(k-1)`, capped at
/// `max_backoff`, scaled by a jitter factor in `[0.5, 1.0)` drawn from a
/// [`StdRng`] seeded with `jitter_seed` — two runs with the same policy
/// sleep identically, so chaos tests replay bit-for-bit.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per chunk, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Sleep before the first retry.
    pub base_backoff: Duration,
    /// Growth factor per further retry.
    pub backoff_multiplier: f64,
    /// Upper bound on any single sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter generator.
    pub jitter_seed: u64,
    /// Which errors are worth retrying. Defaults to
    /// [`FrameError::is_retryable`] (transport faults only); fatal query
    /// errors and budget trips always surface immediately.
    pub retry_on: fn(&FrameError) -> bool,
}

impl RetryPolicy {
    /// Never retry (the default — failures surface immediately, exactly
    /// like the pre-retry executor).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            backoff_multiplier: 2.0,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
            retry_on: FrameError::is_retryable,
        }
    }

    /// A production-shaped policy: 3 attempts, 10 ms base backoff doubling
    /// per retry, capped at 100 ms.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0,
            retry_on: FrameError::is_retryable,
        }
    }

    /// `standard()` with zero sleeps — full retry control flow at unit-test
    /// speed.
    pub fn fast(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::standard()
        }
    }

    /// The sleep before retry number `retry` (1-based), jittered.
    fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.backoff_multiplier.powi(retry.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64().max(0.0));
        let jitter = 0.5 + rng.gen::<f64>() * 0.5;
        Duration::from_secs_f64(capped * jitter)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Did [`Executor::run_partial`] assemble the whole result?
#[derive(Debug, Clone, PartialEq)]
pub enum Completeness {
    /// Every chunk arrived; the frame is the full result.
    Complete,
    /// Pagination failed past the retry budget; the frame holds the intact
    /// prefix assembled before this error. The failed chunk contributed
    /// nothing (chunk appends are atomic).
    Partial {
        /// The unrecoverable error that ended pagination.
        error: FrameError,
    },
}

impl Completeness {
    /// True for [`Completeness::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// A possibly-prefix result: the assembled rows plus how far they got.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFrame {
    /// The rows assembled (all of them, or an intact prefix).
    pub frame: DataFrame,
    /// Whether `frame` is the whole result.
    pub completeness: Completeness,
}

/// Cumulative retry observability counters for an [`Executor`].
///
/// Counters are atomic and shared: cloning an executor clones the `Arc`,
/// so clones report into the same stats — the natural reading when one
/// configured executor is reused across queries.
#[derive(Debug, Default)]
pub struct ExecutorStats {
    retries: AtomicU64,
    backoff_nanos: AtomicU64,
}

impl ExecutorStats {
    /// Total chunk re-requests issued (first attempts are not retries).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total time spent sleeping in backoff between attempts.
    pub fn backoff_total(&self) -> Duration {
        Duration::from_nanos(self.backoff_nanos.load(Ordering::Relaxed))
    }
}

/// Executes frames against endpoints with transparent pagination.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    /// Client-side page size; the effective page is
    /// `min(page_size, endpoint.max_rows_per_request())`.
    pub page_size: Option<usize>,
    /// Chunk-level retry policy (default: no retries).
    pub retry: RetryPolicy,
    /// Cumulative cap on rows assembled across wire chunks: once the
    /// assembled frame reaches this many rows, pagination stops and the
    /// intact prefix comes back as [`Completeness::Partial`] — bounded
    /// work instead of an unbounded result. `None` = assemble everything.
    pub wire_row_cap: Option<u64>,
    /// Cumulative wall-clock deadline across wire chunks, measured from
    /// the start of [`Executor::run_partial`]. Unlike an engine budget
    /// deadline (which restarts at every chunk's evaluation), this spans
    /// the whole paginated query: when it expires between chunks the
    /// intact prefix comes back as [`Completeness::Partial`].
    pub wire_deadline: Option<Duration>,
    /// Retry observability counters (shared across clones).
    stats: Arc<ExecutorStats>,
}

impl Executor {
    /// Executor with default paging.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Executor with an explicit client page size.
    pub fn with_page_size(page_size: usize) -> Self {
        Executor {
            page_size: Some(page_size),
            ..Executor::default()
        }
    }

    /// This executor with a retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// This executor with a cumulative cross-chunk row cap (degraded
    /// service: [`Executor::run_partial`] stops at the cap and returns the
    /// intact prefix as [`Completeness::Partial`]).
    pub fn with_wire_row_cap(mut self, cap: u64) -> Self {
        self.wire_row_cap = Some(cap);
        self
    }

    /// This executor with a cumulative cross-chunk wall-clock deadline
    /// (degraded service: [`Executor::run_partial`] stops paginating when
    /// it expires and returns the intact prefix as
    /// [`Completeness::Partial`]).
    pub fn with_wire_deadline(mut self, deadline: Duration) -> Self {
        self.wire_deadline = Some(deadline);
        self
    }

    /// Retry observability counters: how many chunk re-requests this
    /// executor (and its clones) issued, and how long they backed off.
    pub fn stats(&self) -> &Arc<ExecutorStats> {
        &self.stats
    }

    /// Execute the frame's optimized query, picking the embedded path when
    /// the endpoint offers one and the wire path otherwise.
    pub fn execute<E: Endpoint + ?Sized>(
        &self,
        frame: &RDFFrame,
        endpoint: &E,
    ) -> Result<DataFrame> {
        let model = generator::build_query_model(frame)?;
        if let Some(result) = endpoint.execute_model(&model) {
            return result;
        }
        let sparql = render::render(&model);
        self.run(&sparql, endpoint)
    }

    /// Execute the frame's naive query (baseline).
    pub fn execute_naive<E: Endpoint + ?Sized>(
        &self,
        frame: &RDFFrame,
        endpoint: &E,
    ) -> Result<DataFrame> {
        let sparql = frame.to_naive_sparql()?;
        self.run(&sparql, endpoint)
    }

    /// Run raw SPARQL with pagination and assemble one dataframe.
    ///
    /// All-or-nothing surface over [`Executor::run_partial`]: an
    /// unrecoverable failure discards the assembled prefix and returns the
    /// error.
    pub fn run<E: Endpoint + ?Sized>(&self, sparql: &str, endpoint: &E) -> Result<DataFrame> {
        let partial = self.run_partial(sparql, endpoint)?;
        match partial.completeness {
            Completeness::Complete => Ok(partial.frame),
            Completeness::Partial { error } => Err(error),
        }
    }

    /// Run raw SPARQL with pagination, retrying faulted chunks per the
    /// retry policy, and keep whatever prefix was assembled if a chunk
    /// fails past the retry budget.
    ///
    /// Returns `Err` only for failures that produce *no* rows to keep (the
    /// first chunk never arrived). Once at least one chunk is merged, a
    /// later unrecoverable failure comes back as
    /// [`Completeness::Partial`] with the intact prefix — chunk appends
    /// are atomic, so the prefix never contains part of a damaged chunk.
    pub fn run_partial<E: Endpoint + ?Sized>(
        &self,
        sparql: &str,
        endpoint: &E,
    ) -> Result<PartialFrame> {
        let page = self
            .page_size
            .unwrap_or(usize::MAX)
            .min(endpoint.max_rows_per_request())
            .max(1);
        let start = std::time::Instant::now();
        let mut rng = StdRng::seed_from_u64(self.retry.jitter_seed);

        // First chunk: nothing assembled yet, so an unrecoverable failure
        // here is a plain error.
        let first = self.fetch(endpoint, sparql, 0, page, &mut rng, Ok)?;
        let short = first.len() < page;
        let mut df = table_to_dataframe(&first)?;
        // The page is in the frame; free it before the next one is fetched.
        drop(first);
        if short {
            return Ok(PartialFrame {
                frame: df,
                completeness: Completeness::Complete,
            });
        }

        let mut offset = 0usize;
        loop {
            // Graceful degradation between chunks: the prefix assembled so
            // far is intact and atomic, so a cumulative limit stops here
            // and keeps it rather than discarding work already paid for.
            if let Some(stop) = self.degrade_between_chunks(&df, start) {
                return Ok(PartialFrame {
                    frame: df,
                    completeness: Completeness::Partial { error: stop },
                });
            }
            offset += page;
            // Fetch *and append* under one retry budget: schema drift only
            // shows when the chunk's header meets the accumulated frame's,
            // and re-requesting the chunk is the fix for that too.
            let appended = self.fetch(endpoint, sparql, offset, page, &mut rng, |chunk| {
                append_table(&mut df, &chunk).map(|()| chunk.len())
            });
            let appended = match appended {
                Ok(n) => n,
                Err(error) => {
                    return Ok(PartialFrame {
                        frame: df,
                        completeness: Completeness::Partial { error },
                    })
                }
            };
            if appended < page {
                return Ok(PartialFrame {
                    frame: df,
                    completeness: Completeness::Complete,
                });
            }
        }
    }

    /// The cumulative cross-chunk limit tripped by the pagination state so
    /// far, if any. Checked only between chunks, so a short first chunk
    /// (already a complete result) is never downgraded.
    fn degrade_between_chunks(
        &self,
        df: &DataFrame,
        start: std::time::Instant,
    ) -> Option<FrameError> {
        if let Some(cap) = self.wire_row_cap {
            if df.len() as u64 >= cap {
                return Some(FrameError::ResourceExhausted(format!(
                    "wire row cap: {} rows assembled (cap {cap})",
                    df.len()
                )));
            }
        }
        if let Some(deadline) = self.wire_deadline {
            if start.elapsed() >= deadline {
                return Some(FrameError::ResourceExhausted(format!(
                    "deadline (ms): pagination exceeded {} ms",
                    deadline.as_millis()
                )));
            }
        }
        None
    }

    /// Request rows `[offset, offset+page)` and hand the chunk to `take`,
    /// re-requesting under the retry policy while either step fails
    /// retryably. A chunk longer than the `page` asked for is a transport
    /// fault: keeping it would duplicate its extra rows when the next
    /// request, at `offset + page`, returns them again.
    fn fetch<E: Endpoint + ?Sized, T>(
        &self,
        endpoint: &E,
        sparql: &str,
        offset: usize,
        page: usize,
        rng: &mut StdRng,
        mut take: impl FnMut(SolutionTable) -> Result<T>,
    ) -> Result<T> {
        let mut tries = 0u32;
        loop {
            tries += 1;
            let outcome = endpoint
                .query_chunk(sparql, offset, page)
                .and_then(|chunk| {
                    if chunk.len() > page {
                        return Err(FrameError::Transport(format!(
                            "{} rows returned for a page of {page}",
                            chunk.len()
                        )));
                    }
                    take(chunk)
                });
            match outcome {
                Err(e) if tries < self.retry.max_attempts.max(1) && (self.retry.retry_on)(&e) => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.sleep_backoff(tries, rng)
                }
                outcome => return outcome,
            }
        }
    }

    /// Sleep the jittered backoff before retry number `retry` (1-based).
    fn sleep_backoff(&self, retry: u32, rng: &mut StdRng) {
        let d = self.retry.backoff(retry, rng);
        self.stats
            .backoff_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::KnowledgeGraph;
    use crate::client::{EndpointConfig, InProcessEndpoint};
    use rdf_model::{Dataset, Graph, Term, Triple};
    use std::sync::Arc;

    fn endpoint(max_rows: usize) -> InProcessEndpoint {
        let mut g = Graph::new();
        for i in 0..25 {
            g.insert(&Triple::new(
                Term::iri(format!("http://x/movie{i}")),
                Term::iri("http://x/starring"),
                Term::iri(format!("http://x/actor{}", i % 5)),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://g", g);
        InProcessEndpoint::with_config(
            Arc::new(ds),
            EndpointConfig {
                max_rows_per_request: max_rows,
                ..Default::default()
            },
        )
    }

    fn frame() -> crate::api::RDFFrame {
        KnowledgeGraph::new("http://g")
            .with_prefix("x", "http://x/")
            .feature_domain_range("x:starring", "movie", "actor")
    }

    #[test]
    fn single_page_when_results_fit() {
        let ep = endpoint(1000);
        let df = frame().execute(&ep).unwrap();
        assert_eq!(df.len(), 25);
        assert_eq!(ep.stats().requests(), 1);
    }

    #[test]
    fn pagination_requests_until_short_chunk() {
        let ep = endpoint(10);
        let df = frame().execute(&ep).unwrap();
        assert_eq!(df.len(), 25);
        // 10 + 10 + 5 → three requests.
        assert_eq!(ep.stats().requests(), 3);
        assert_eq!(ep.stats().rows_returned(), 25);
    }

    #[test]
    fn exact_multiple_needs_probe_request() {
        let ep = endpoint(5);
        let df = frame().execute(&ep).unwrap();
        assert_eq!(df.len(), 25);
        // 5 full chunks + 1 empty probe.
        assert_eq!(ep.stats().requests(), 6);
    }

    #[test]
    fn page_size_override() {
        let ep = endpoint(1000);
        let df = Executor::with_page_size(7).execute(&frame(), &ep).unwrap();
        assert_eq!(df.len(), 25);
        assert_eq!(ep.stats().requests(), 4);
    }

    #[test]
    fn stats_count_retries_and_backoff() {
        use crate::client::{Fault, FaultyEndpoint};
        let ep = FaultyEndpoint::scripted(
            endpoint(10),
            vec![Some(Fault::Transient), None, Some(Fault::Transient), None],
        );
        let exec = Executor::new().with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_micros(400),
            ..RetryPolicy::standard()
        });
        let df = exec.execute(&frame(), &ep).unwrap();
        assert_eq!(df.len(), 25);
        assert_eq!(exec.stats().retries(), ep.faults_injected());
        assert_eq!(exec.stats().retries(), 2);
        assert!(exec.stats().backoff_total() > Duration::ZERO);
        // Clones share the counters.
        assert_eq!(exec.clone().stats().retries(), 2);
    }

    #[test]
    fn stats_stay_zero_on_clean_runs() {
        let ep = endpoint(10);
        let exec = Executor::new().with_retry(RetryPolicy::standard());
        exec.execute(&frame(), &ep).unwrap();
        assert_eq!(exec.stats().retries(), 0);
        assert_eq!(exec.stats().backoff_total(), Duration::ZERO);
    }

    #[test]
    fn grouped_query_roundtrip() {
        let ep = endpoint(1000);
        let df = frame()
            .group_by(&["actor"])
            .count("movie", "n", true)
            .execute(&ep)
            .unwrap();
        assert_eq!(df.len(), 5);
        for row in df.rows() {
            assert_eq!(row[1], dataframe::Cell::Int(5));
        }
    }
}
