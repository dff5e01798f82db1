//! Injectable nanosecond clock.
//!
//! The one time seam of the workspace: latency spans and `ampc_serve`'s
//! incident log read [`monotonic_ns`], a process-wide monotonic origin. The
//! closed-loop runner's per-frame timing takes a [`Clock`], so its tests
//! substitute a [`CountingClock`] to pin how often a loop reads it.

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
    fn monotonic_never_goes_backwards() {
        let c = MonotonicClock;
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
