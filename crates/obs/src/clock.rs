//! Injectable nanosecond clock.
//!
//! The one time seam of the workspace: latency spans read it in
//! nanoseconds, `ampc_serve`'s incident log in whole milliseconds of it. Production code reads a process-wide monotonic
//! origin, tests drive a [`ManualClock`] so timing assertions never sleep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since an arbitrary process-local origin.
pub trait Clock: Send + Sync + std::fmt::Debug {
    fn now_ns(&self) -> u64;
}

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the first call in this process. Monotonic,
/// origin-arbitrary — only differences are meaningful.
pub fn monotonic_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The production clock: a zero-sized handle over the process-wide
/// monotonic origin.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        monotonic_ns()
    }
}

/// Hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    pub const fn new(start_ns: u64) -> Self {
        Self(AtomicU64::new(start_ns))
    }

    /// Moves time forward by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.0.fetch_add(delta_ns, Ordering::SeqCst);
    }

    pub fn set(&self, now_ns: u64) {
        self.0.store(now_ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Test clock that counts its reads and moves [`CountingClock::STEP_NS`] on
/// each — for asserting how often a loop reads the clock.
#[derive(Debug, Default)]
pub struct CountingClock(AtomicU64);

impl CountingClock {
    /// Nanoseconds between two consecutive reads.
    pub const STEP_NS: u64 = 1_000;

    /// How many times the clock has been read.
    pub fn reads(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clock for CountingClock {
    fn now_ns(&self) -> u64 {
        Self::STEP_NS * self.0.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_without_sleeping() {
        let c = ManualClock::new(5);
        assert_eq!(c.now_ns(), 5);
        c.advance(37);
        assert_eq!(c.now_ns(), 42);
        c.set(7);
        assert_eq!(c.now_ns(), 7);
    }

    #[test]
    fn monotonic_never_goes_backwards() {
        let c = MonotonicClock;
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
