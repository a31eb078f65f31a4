//! Per-query resource budgets and the meter that enforces them.
//!
//! A server that cannot kill a bad query cannot serve good ones: an
//! unconstrained cross join will happily scan, allocate, and burn wall
//! clock until the machine falls over. [`QueryBudget`] caps the four
//! resources a runaway query consumes — index entries scanned,
//! intermediate result rows, estimated intermediate memory, and elapsed
//! time — and [`BudgetMeter`] is the cheap per-evaluation counter both
//! evaluators poll from their hot loops (BGP extension, join pair
//! emission, group accumulation) and the cursor polls per batch.
//!
//! Violations surface as the typed
//! [`EngineError::ResourceExhausted`] — never a panic, never an OOM. The
//! enforcement contract is *bounded overshoot*, not exactness: checks sit
//! between rows of the hot loops, so allocation past the limit is bounded
//! by one row's matches (BGP) or one probe row's candidates (joins), and
//! the deadline is polled every [`POLL_INTERVAL`] work units so
//! `Instant::now()` stays off the per-row path.
//!
//! All meter arithmetic saturates: an adversarial `usize::MAX`-scale
//! charge must trip the limit, not wrap in a debug build.

use std::fmt;
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};

/// Per-query resource limits. All axes optional; `None` = unlimited (the
/// default, so existing configurations are unaffected).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Cap on index entries scanned (the engine's deterministic work
    /// metric, [`crate::engine::ExecStats::rows_scanned`]).
    pub max_rows_scanned: Option<u64>,
    /// Cap on the row count of any single intermediate result (operator
    /// output, join pair list, or group count).
    pub max_intermediate_rows: Option<u64>,
    /// Cap on the *estimated* bytes of any single intermediate result.
    /// Estimates track the dominant allocations (id vectors, presence
    /// bitmaps, row vectors), not the allocator's exact footprint.
    pub max_memory_bytes: Option<u64>,
    /// Wall-clock evaluation deadline, measured from evaluator creation.
    pub deadline: Option<Duration>,
}

impl QueryBudget {
    /// No limits on any axis.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// True when no axis is limited (the meter then compiles to a single
    /// predictable branch per check).
    pub fn is_unlimited(&self) -> bool {
        self.max_rows_scanned.is_none()
            && self.max_intermediate_rows.is_none()
            && self.max_memory_bytes.is_none()
            && self.deadline.is_none()
    }

    /// Cap scanned index entries.
    pub fn with_max_rows_scanned(mut self, limit: u64) -> Self {
        self.max_rows_scanned = Some(limit);
        self
    }

    /// Cap intermediate result rows.
    pub fn with_max_intermediate_rows(mut self, limit: u64) -> Self {
        self.max_intermediate_rows = Some(limit);
        self
    }

    /// Cap estimated intermediate memory.
    pub fn with_max_memory_bytes(mut self, limit: u64) -> Self {
        self.max_memory_bytes = Some(limit);
        self
    }

    /// Set a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Which budget axis a query exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// [`QueryBudget::max_rows_scanned`].
    RowsScanned,
    /// [`QueryBudget::max_intermediate_rows`].
    IntermediateRows,
    /// [`QueryBudget::max_memory_bytes`].
    MemoryBytes,
    /// [`QueryBudget::deadline`] (limit/observed reported in milliseconds).
    Deadline,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::RowsScanned => "rows scanned",
            ResourceKind::IntermediateRows => "intermediate rows",
            ResourceKind::MemoryBytes => "memory bytes",
            ResourceKind::Deadline => "deadline (ms)",
        };
        f.write_str(s)
    }
}

/// Hot-loop checks run their expensive part (deadline poll, buffer size
/// estimation) once per this many charged work units.
pub const POLL_INTERVAL: u64 = 4096;

/// The per-evaluation enforcement state for one [`QueryBudget`].
///
/// Cheap by construction: an inactive meter (unlimited budget) is one
/// branch per check; an active one is a saturating add and two compares,
/// with `Instant::now()` only every [`POLL_INTERVAL`] units of work.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    active: bool,
    max_rows_scanned: u64,
    max_intermediate_rows: u64,
    max_memory_bytes: u64,
    /// `(deadline instant, configured limit in ms)`; the instant is fixed
    /// at meter creation, so the budget covers the whole evaluation.
    deadline: Option<(Instant, u64)>,
    started: Option<Instant>,
    rows_scanned: u64,
    /// Work units until the next deadline poll.
    until_poll: u64,
}

impl BudgetMeter {
    /// A meter that never trips (every check is one branch).
    pub fn unlimited() -> Self {
        BudgetMeter {
            active: false,
            max_rows_scanned: u64::MAX,
            max_intermediate_rows: u64::MAX,
            max_memory_bytes: u64::MAX,
            deadline: None,
            started: None,
            rows_scanned: 0,
            until_poll: POLL_INTERVAL,
        }
    }

    /// Meter for a budget; the deadline clock starts now.
    pub fn new(budget: &QueryBudget) -> Self {
        if budget.is_unlimited() {
            return BudgetMeter::unlimited();
        }
        let started = Instant::now();
        BudgetMeter {
            active: true,
            max_rows_scanned: budget.max_rows_scanned.unwrap_or(u64::MAX),
            max_intermediate_rows: budget.max_intermediate_rows.unwrap_or(u64::MAX),
            max_memory_bytes: budget.max_memory_bytes.unwrap_or(u64::MAX),
            deadline: budget.deadline.map(|d| {
                let limit_ms = d.as_millis().min(u64::MAX as u128) as u64;
                (started.checked_add(d).unwrap_or(started), limit_ms)
            }),
            started: Some(started),
            rows_scanned: 0,
            until_poll: POLL_INTERVAL,
        }
    }

    /// True when some axis is limited (hot loops may skip estimating
    /// buffer sizes entirely for an inactive meter).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Charge `n` scanned index entries. The scan cap is checked
    /// immediately; every [`POLL_INTERVAL`] entries the deadline is
    /// checked too. Returns `true` when that periodic checkpoint fired —
    /// the caller's cue to run its own expensive checks (current buffer
    /// sizes against the memory/rows caps).
    #[inline]
    pub fn charge_scan(&mut self, n: u64) -> Result<bool> {
        if !self.active {
            return Ok(false);
        }
        self.rows_scanned = self.rows_scanned.saturating_add(n);
        if self.rows_scanned > self.max_rows_scanned {
            return Err(self.exhausted(
                ResourceKind::RowsScanned,
                self.max_rows_scanned,
                self.rows_scanned,
            ));
        }
        if let Some(rest) = self.until_poll.checked_sub(n) {
            if rest > 0 {
                self.until_poll = rest;
                return Ok(false);
            }
        }
        self.until_poll = POLL_INTERVAL;
        self.check_deadline()?;
        Ok(true)
    }

    /// Check one intermediate result's size (rows and estimated bytes)
    /// against the caps, and tick the deadline poll counter by one work
    /// unit. Checks current size, not a running total: operators hand
    /// back their memory when they finish, so the budget bounds *peak*
    /// use.
    #[inline]
    pub fn charge_intermediate(&mut self, rows: u64, bytes: u64) -> Result<()> {
        if !self.active {
            return Ok(());
        }
        if rows > self.max_intermediate_rows {
            return Err(self.exhausted(
                ResourceKind::IntermediateRows,
                self.max_intermediate_rows,
                rows,
            ));
        }
        if bytes > self.max_memory_bytes {
            return Err(self.exhausted(ResourceKind::MemoryBytes, self.max_memory_bytes, bytes));
        }
        self.until_poll = self.until_poll.saturating_sub(1);
        if self.until_poll == 0 {
            self.until_poll = POLL_INTERVAL;
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Forced deadline check (batch boundaries, operator entry points).
    #[inline]
    pub fn check_deadline(&mut self) -> Result<()> {
        let Some((deadline, limit_ms)) = self.deadline else {
            return Ok(());
        };
        let now = Instant::now();
        if now >= deadline {
            let observed = self
                .started
                .map(|s| now.duration_since(s).as_millis().min(u64::MAX as u128) as u64)
                .unwrap_or(limit_ms);
            return Err(self.exhausted(ResourceKind::Deadline, limit_ms, observed));
        }
        Ok(())
    }

    fn exhausted(&self, resource: ResourceKind, limit: u64, observed: u64) -> EngineError {
        EngineError::ResourceExhausted {
            resource,
            limit,
            observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = BudgetMeter::unlimited();
        assert!(!m.is_active());
        assert!(!m.charge_scan(u64::MAX).unwrap());
        m.charge_intermediate(u64::MAX, u64::MAX).unwrap();
        m.check_deadline().unwrap();
    }

    #[test]
    fn scan_cap_trips_with_exact_counts() {
        let budget = QueryBudget::unlimited().with_max_rows_scanned(10);
        let mut m = BudgetMeter::new(&budget);
        m.charge_scan(10).unwrap();
        let err = m.charge_scan(1).unwrap_err();
        assert_eq!(
            err,
            EngineError::ResourceExhausted {
                resource: ResourceKind::RowsScanned,
                limit: 10,
                observed: 11,
            }
        );
    }

    #[test]
    fn meter_arithmetic_saturates_instead_of_overflowing() {
        // Debug builds panic on wrapping arithmetic; adversarial charges
        // must saturate and trip the limit instead.
        let budget = QueryBudget::unlimited().with_max_rows_scanned(u64::MAX - 1);
        let mut m = BudgetMeter::new(&budget);
        m.charge_scan(u64::MAX - 1).unwrap();
        assert!(m.charge_scan(u64::MAX).is_err());

        let budget = QueryBudget::unlimited().with_max_memory_bytes(1);
        let mut m = BudgetMeter::new(&budget);
        assert!(m.charge_intermediate(0, u64::MAX).is_err());
    }

    #[test]
    fn intermediate_checks_current_size_not_total() {
        let budget = QueryBudget::unlimited().with_max_intermediate_rows(100);
        let mut m = BudgetMeter::new(&budget);
        // Many small tables are fine; one big one trips.
        for _ in 0..1000 {
            m.charge_intermediate(100, 0).unwrap();
        }
        assert!(matches!(
            m.charge_intermediate(101, 0),
            Err(EngineError::ResourceExhausted {
                resource: ResourceKind::IntermediateRows,
                limit: 100,
                observed: 101,
            })
        ));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let budget = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        let mut m = BudgetMeter::new(&budget);
        assert!(matches!(
            m.check_deadline(),
            Err(EngineError::ResourceExhausted {
                resource: ResourceKind::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn poll_interval_drives_deadline_checks_from_charges() {
        let budget = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        let mut m = BudgetMeter::new(&budget);
        // Under one poll interval: no deadline check yet.
        assert!(!m.charge_scan(POLL_INTERVAL - 1).unwrap());
        // Crossing the interval runs the check and trips.
        assert!(m.charge_scan(1).is_err());
    }
}
