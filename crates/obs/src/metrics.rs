//! Lock-free metric primitives: [`Counter`], [`Gauge`], a sharded
//! log2-bucketed [`Histogram`], and [`Timer`] spans.
//!
//! Everything here is const-constructible so the process-wide catalog in
//! [`crate::registry`] lives in `static` arrays — recording a metric is an
//! index into a static plus relaxed atomic ops, never a lock or a hash
//! lookup (the same disarmed-fast-path discipline as [`crate::fault`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use crate::clock::{monotonic_ns, Clock};

/// Monotonically increasing event count. One relaxed `fetch_add` per event.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depths, pending work). Signed so transient
/// add/sub races on shutdown paths can't wrap to 2^64.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]` — 65 buckets cover all of `u64`.
pub const BUCKETS: usize = 65;

/// Write shards. Each recording thread picks one shard (round-robin by
/// thread id) and touches only that shard's cache lines, so concurrent
/// writers don't ping-pong a shared line; readers merge all shards.
const SHARDS: usize = 8;

/// Maps a value to its log2 bucket index.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket — what [`HistSnapshot::quantile`]
/// reports (clamped to the recorded max), giving a within-one-bucket
/// error bound against an exact sorted oracle.
#[inline]
pub fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

#[repr(align(128))]
struct Shard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Lock-free log2-bucketed histogram. [`Histogram::record`] is three
/// relaxed atomic RMWs on a per-thread shard (bucket count, running sum,
/// running max) — no locks, no allocation, no shared-line contention.
/// [`Histogram::record_n`] is the same three RMWs for `n` equal
/// observations. Reads ([`Histogram::snapshot`]) merge the shards.
pub struct Histogram {
    shards: [Shard; SHARDS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_id() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

impl Histogram {
    pub const fn new() -> Self {
        Self { shards: [const { Shard::new() }; SHARDS] }
    }

    /// Records one observation. Hot-path cost: three relaxed RMWs on this
    /// thread's private shard.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v` at the cost of one:
    /// the snapshot afterwards equals the one `n` calls of
    /// [`Histogram::record`] leave. This is how a per-frame measurement
    /// amortised over the frame's queries keeps `count` meaning "queries",
    /// without a clock read or an RMW per query. `n = 0` records nothing.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let shard = &self.shards[shard_id()];
        shard.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        shard.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges all shards into one consistent-enough view. Concurrent
    /// writers may land between bucket reads; every completed `record` is
    /// eventually visible, and a quiescent histogram merges exactly.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot { count: 0, sum: 0, max: 0, buckets: [0; BUCKETS] };
        for shard in &self.shards {
            for (b, slot) in shard.buckets.iter().enumerate() {
                let n = slot.load(Ordering::Relaxed);
                out.buckets[b] += n;
                out.count += n;
            }
            out.sum = out.sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            out.max = out.max.max(shard.max.load(Ordering::Relaxed));
        }
        out
    }
}

/// Point-in-time merged view of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl HistSnapshot {
    /// Estimated `q`-quantile (`0.0 < q ≤ 1.0`): the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` observation, clamped to the
    /// recorded max. Guaranteed ≥ the exact order statistic and in the
    /// same log2 bucket. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Exact mean of recorded values (sum and count are exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An in-flight latency span: captures a start timestamp, records the
/// elapsed nanoseconds into a histogram on [`Timer::stop`]. Dropping a
/// timer without `stop` records nothing (abandoned spans are not latency).
pub struct Timer<'a> {
    clock: &'a dyn Clock,
    hist: &'a Histogram,
    start_ns: u64,
}

static PROD_CLOCK: crate::clock::MonotonicClock = crate::clock::MonotonicClock;

impl<'a> Timer<'a> {
    /// Starts a span on the process monotonic clock.
    pub fn start(hist: &'a Histogram) -> Timer<'a> {
        Timer { clock: &PROD_CLOCK, hist, start_ns: monotonic_ns() }
    }

    /// Starts a span on an injected clock (tests never sleep).
    pub fn start_with(clock: &'a dyn Clock, hist: &'a Histogram) -> Timer<'a> {
        Timer { clock, hist, start_ns: clock.now_ns() }
    }

    /// Ends the span, records it, and returns the elapsed nanoseconds.
    pub fn stop(self) -> u64 {
        let elapsed = self.clock.now_ns().saturating_sub(self.start_ns);
        self.hist.record(elapsed);
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.add(7);
        g.sub(10);
        assert_eq!(g.get(), -3);
        g.set(5);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "v={v} above upper of bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper(b - 1), "v={v} not above bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn timer_records_manual_clock_elapsed() {
        let clock = ManualClock::new(1_000);
        let h = Histogram::new();
        let t = Timer::start_with(&clock, &h);
        clock.advance(250);
        assert_eq!(t.stop(), 250);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 250);
        assert_eq!(s.max, 250);
        assert_eq!(s.buckets[bucket_of(250)], 1);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.999), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_bucket_quantile_is_exact_at_max() {
        // All mass in one bucket, all values equal: every quantile clamps
        // to the recorded max, i.e. is exact.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(777);
        }
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), 777);
        }
    }

    #[test]
    fn overflow_bucket_holds_huge_values() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }
}
