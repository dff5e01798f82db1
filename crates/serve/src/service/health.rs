//! The degradation state machine: health states, the bounded incident
//! log and the two bounds every [`crate::ServiceHandle`] shares.

use std::collections::VecDeque;

use ampc_obs::{CounterId, TraceKind};

use super::error::ServeError;
#[cfg(doc)]
use super::ServiceHandle;

/// Consecutive failures before the service enters [`HealthState::ReadOnly`].
pub const MAX_CONSECUTIVE_FAILURES: u32 = 5;

/// The incident-log bound: past it the oldest entries are evicted first.
pub const MAX_INCIDENTS: usize = 64;

ampc_obs::catalog! {
    /// The degradation state machine every [`ServiceHandle`] carries.
    ///
    /// ```text
    ///            failure                 5th consecutive failure
    /// Healthy ───────────▶ Degraded ─────────────────────────▶ ReadOnly
    ///    ▲                    │   ▲  │                             │
    ///    │  fold or rebuild   │   └──┘ the next insert's           │
    ///    │  succeeds          │        fold fails                  │
    ///    └────────────────────┘                                    │
    ///    ▲                                                         │
    ///    └─────────────── explicit rebuild succeeds ───────────────┘
    /// ```
    ///
    /// * **Healthy** — serving normally; an insert folds its journal into a
    ///   new base once the journal is over budget.
    /// * **Degraded** — a rebuild, fold or journal build failed. Reads are
    ///   untouched; inserts keep landing as journal-epochs, and every insert
    ///   retries the fold whatever the budget says.
    /// * **ReadOnly** — [`MAX_CONSECUTIVE_FAILURES`] failures in a row.
    ///   Inserts return [`ServeError::ReadOnly`]; reads keep serving the last
    ///   published epoch; only a successful explicit
    ///   [`ServiceHandle::rebuild_blocking`] (new ground truth) restores `Healthy`.
    ///
    /// The discriminant is the state's byte in the wire's Health reply.
    pub enum HealthState: u8 {
        Healthy = 0 => "healthy", "Serving normally.",
        Degraded = 1 => "degraded", "A failure was recorded; every insert retries the fold.",
        ReadOnly = 2 => "read-only",
            "Too many consecutive failures; inserts refused until an explicit rebuild succeeds.",
    }
}

ampc_obs::catalog! {
    /// Which operation an [`Incident`] was recorded against.
    pub enum IncidentOp: u8 {
        Rebuild => "rebuild", "An explicit [`ServiceHandle::rebuild_blocking`].",
        Compaction => "compaction", "The fold an over-budget or Degraded insert runs.",
        JournalBuild => "journal-build", "A journal-epoch freeze on the insert path.",
        Boot => "boot", "A snapshot boot that fell back to a pipeline build.",
    }
}

/// One recorded failure. The log is bounded ([`MAX_INCIDENTS`]): `seq`
/// keeps a global count even after old entries are evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// 1-based global sequence number (total incidents ever recorded).
    pub seq: u64,
    /// Process-monotonic milliseconds ([`ampc_obs::monotonic_ns`]) when the
    /// incident was recorded. The origin is arbitrary: only differences and
    /// the order along `seq` mean anything.
    pub at_ms: u64,
    /// The operation that failed.
    pub op: IncidentOp,
    /// The typed failure.
    pub error: ServeError,
}

/// A point-in-time copy of the service's health, via
/// [`ServiceHandle::health`].
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current state of the degradation state machine.
    pub state: HealthState,
    /// Failures since the last successful rebuild or fold.
    pub consecutive_failures: u32,
    /// Total incidents ever recorded (≥ `incidents.len()`).
    pub total_incidents: u64,
    /// The retained incident log, oldest first.
    pub incidents: Vec<Incident>,
}

/// Mutable half of the state machine, guarded by the stream lock (every
/// transition happens on a path that already holds it).
#[derive(Debug)]
pub(super) struct HealthInner {
    pub(super) state: HealthState,
    consecutive_failures: u32,
    incidents: VecDeque<Incident>,
    total_incidents: u64,
}

impl HealthInner {
    pub(super) fn new() -> Self {
        HealthInner {
            state: HealthState::Healthy,
            consecutive_failures: 0,
            incidents: VecDeque::new(),
            total_incidents: 0,
        }
    }

    /// Appends a typed failure to the bounded incident log without touching
    /// the state machine (boot-fallback incidents land in a Healthy service).
    pub(super) fn record_incident(&mut self, op: IncidentOp, error: ServeError) {
        self.total_incidents += 1;
        let at_ms = ampc_obs::monotonic_ns() / 1_000_000;
        self.incidents.push_back(Incident { seq: self.total_incidents, at_ms, op, error });
        while self.incidents.len() > MAX_INCIDENTS {
            self.incidents.pop_front();
        }
        ampc_obs::counter(CounterId::Incidents).inc();
        ampc_obs::trace(TraceKind::IncidentRecorded, self.total_incidents, op as u64);
    }

    /// Records a failure and advances the state machine: `Degraded` until
    /// [`MAX_CONSECUTIVE_FAILURES`], then `ReadOnly`.
    pub(super) fn record_failure(&mut self, op: IncidentOp, error: ServeError) {
        self.record_incident(op, error);
        let prior = self.state;
        let failures = self.consecutive_failures.saturating_add(1);
        self.consecutive_failures = failures;
        if failures >= MAX_CONSECUTIVE_FAILURES {
            if prior != HealthState::ReadOnly {
                ampc_obs::counter(CounterId::ReadOnlyTransitions).inc();
            }
            self.state = HealthState::ReadOnly;
        } else {
            if prior != HealthState::Degraded {
                ampc_obs::counter(CounterId::DegradedTransitions).inc();
            }
            self.state = HealthState::Degraded;
        }
    }

    /// A fold or rebuild landed: back to `Healthy`, failure streak
    /// cleared. The incident log is retained — it is history, not state.
    pub(super) fn mark_recovered(&mut self) {
        if self.state != HealthState::Healthy {
            ampc_obs::counter(CounterId::Recoveries).inc();
        }
        self.state = HealthState::Healthy;
        self.consecutive_failures = 0;
    }

    /// The point-in-time copy [`crate::ServiceHandle::health`] returns.
    pub(super) fn report(&self) -> HealthReport {
        HealthReport {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            total_incidents: self.total_incidents,
            incidents: self.incidents.iter().cloned().collect(),
        }
    }
}
