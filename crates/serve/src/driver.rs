//! Multi-threaded workload driver over a [`ServiceHandle`].
//!
//! The driver partitions one deterministic query stream into contiguous
//! per-thread stripes — thread `t` of `T` gets the `t`-th of `T` near-equal
//! chunks, a pure function of `(len, T)` — so the *work* is
//! seed-reproducible at any thread count: every query is answered exactly
//! once, and the aggregate checksum (a wrapping sum, hence
//! partition-order-invariant) is identical for 1 thread and 64. Each
//! thread pins its own [`crate::IndexSnapshot`] (the service read path)
//! and reuses one answer buffer, so the measured loop is exactly the
//! serving hot path: pin, answer, sum.
//!
//! Timing is reported per thread (each thread's own queries/sec) and in
//! aggregate (total queries over the wall-clock of the parallel region) —
//! the aggregate is the scaling number, the per-thread rows expose
//! stragglers. Both the one-call-per-query and the batched engine paths
//! are timed, in separate parallel regions, against the *same* per-thread
//! snapshot pinned at the start of the run — so one run's answers belong
//! to one epoch per thread even when a rebuild publishes mid-run.

use std::time::Instant;

use ampc_query::{throughput, Query};

use crate::service::ServiceHandle;

/// One thread's measurements.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Thread index in `0..threads`.
    pub thread: usize,
    /// Queries this thread answered (its stripe length).
    pub queries: usize,
    /// Epoch the thread's snapshot pinned.
    pub epoch: u64,
    /// Queries/sec of the one-call-per-query pass.
    pub single_qps: f64,
    /// Queries/sec of the batched pass.
    pub batch_qps: f64,
    /// Wrapping sum of this thread's answers (identical across both paths;
    /// verified by the driver).
    pub checksum: u64,
}

/// Aggregate + per-thread results of one driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Thread count the run used.
    pub threads: usize,
    /// Total queries answered (the full stream, once).
    pub total_queries: usize,
    /// Aggregate single-call queries/sec: total queries over the parallel
    /// region's wall clock.
    pub aggregate_single_qps: f64,
    /// Aggregate batched queries/sec.
    pub aggregate_batch_qps: f64,
    /// Wrapping sum of all answers — invariant under the thread count.
    pub checksum: u64,
    /// Per-thread rows, in thread order.
    pub per_thread: Vec<ThreadReport>,
}

/// Per-query latency distribution from one dedicated timed pass (see
/// [`run_latency`]). Quantiles are log2-bucket upper bounds clamped to the
/// observed max — within one bucket of the exact order statistics.
#[derive(Debug, Clone, Copy)]
pub struct LatencyReport {
    /// Thread count the pass used.
    pub threads: usize,
    /// Queries timed (the full stream, once).
    pub queries: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// Slowest observed query in nanoseconds (exact).
    pub max_ns: u64,
    /// Mean latency in nanoseconds (exact).
    pub mean_ns: f64,
    /// Wrapping sum of all answers — comparable to [`DriverReport`]'s.
    pub checksum: u64,
}

/// The contiguous stripe of `len` items that thread `t` of `threads` owns:
/// near-equal chunks, the first `len % threads` threads take one extra.
/// Deterministic, covering, and disjoint — the partition behind the
/// driver's reproducible-totals contract.
pub fn stripe(len: usize, threads: usize, t: usize) -> std::ops::Range<usize> {
    let base = len / threads;
    let extra = len % threads;
    let lo = t * base + t.min(extra);
    let hi = lo + base + usize::from(t < extra);
    lo..hi
}

/// Runs the full `queries` stream against `service` on `threads` threads
/// (batched pass in chunks of `batch`). Each thread pins its own snapshot.
///
/// # Panics
/// Panics if `threads` or `batch` is zero, or if any thread's single and
/// batched checksums diverge (a broken engine, never a usage error).
pub fn run(
    service: &ServiceHandle,
    queries: &[Query],
    threads: usize,
    batch: usize,
) -> DriverReport {
    assert!(threads > 0, "driver needs at least one thread");
    assert!(batch > 0, "batch size must be positive");

    struct ThreadSlot {
        /// Pinned in the first region and reused by the second, so both
        /// passes of one run answer against the same epoch even if a
        /// rebuild publishes mid-run — the checksum cross-check below is
        /// then a genuine engine invariant, never a swap artifact.
        snapshot: Option<crate::service::IndexSnapshot>,
        queries: usize,
        single_qps: f64,
        single_sum: u64,
        batch_qps: f64,
        batch_sum: u64,
    }
    let mut slots: Vec<ThreadSlot> = (0..threads)
        .map(|t| ThreadSlot {
            snapshot: None,
            queries: stripe(queries.len(), threads, t).len(),
            single_qps: 0.0,
            single_sum: 0,
            batch_qps: 0.0,
            batch_sum: 0,
        })
        .collect();

    // Region 1: every thread pins its snapshot and runs the
    // one-call-per-query pass on its stripe.
    let single_wall = parallel_region(&mut slots, |t, slot| {
        let snap = slot.snapshot.insert(service.snapshot());
        let stripe = &queries[stripe(queries.len(), threads, t)];
        let (qps, sum) = throughput::single_pass(&snap.engine(), stripe);
        slot.single_qps = qps;
        slot.single_sum = sum;
    });

    // Region 2: the batched pass against the same pinned snapshots,
    // reused answer buffers.
    let batch_wall = parallel_region(&mut slots, |t, slot| {
        let snap = slot.snapshot.as_ref().expect("pinned in region 1");
        let stripe = &queries[stripe(queries.len(), threads, t)];
        let mut buf = Vec::with_capacity(batch.min(stripe.len()));
        let (qps, sum) = throughput::batched_pass(&snap.engine(), stripe, batch, &mut buf);
        slot.batch_qps = qps;
        slot.batch_sum = sum;
    });

    let mut checksum = 0u64;
    let per_thread: Vec<ThreadReport> = slots
        .iter()
        .enumerate()
        .map(|(t, s)| {
            assert_eq!(
                s.single_sum, s.batch_sum,
                "thread {t}: batched path diverged from the single-call path"
            );
            checksum = checksum.wrapping_add(s.single_sum);
            ThreadReport {
                thread: t,
                queries: s.queries,
                epoch: s.snapshot.as_ref().map(|snap| snap.epoch()).unwrap_or(0),
                single_qps: s.single_qps,
                batch_qps: s.batch_qps,
                checksum: s.single_sum,
            }
        })
        .collect();

    DriverReport {
        threads,
        total_queries: queries.len(),
        aggregate_single_qps: queries.len() as f64 / single_wall.max(1e-9),
        aggregate_batch_qps: queries.len() as f64 / batch_wall.max(1e-9),
        checksum,
        per_thread,
    }
}

/// Times every query of the stream **individually** into a latency
/// histogram, on `threads` threads with the same deterministic striping as
/// [`run`]. A separate pass from the throughput regions by design: the two
/// clock reads around each query would depress q/s if folded into the
/// timed throughput loops, so distributions and throughput come from
/// different passes over the same engine (see
/// `ampc_query::throughput::latency_pass`).
///
/// # Panics
/// Panics if `threads` is zero.
pub fn run_latency(service: &ServiceHandle, queries: &[Query], threads: usize) -> LatencyReport {
    assert!(threads > 0, "driver needs at least one thread");
    let hist = ampc_obs::Histogram::new();
    let mut sums: Vec<u64> = vec![0; threads];
    parallel_region(&mut sums, |t, sum| {
        let snap = service.snapshot();
        let stripe = &queries[stripe(queries.len(), threads, t)];
        *sum = throughput::latency_pass(&snap.engine(), stripe, &hist);
    });
    let snap = hist.snapshot();
    LatencyReport {
        threads,
        queries: snap.count,
        p50_ns: snap.quantile(0.5),
        p90_ns: snap.quantile(0.9),
        p99_ns: snap.quantile(0.99),
        p999_ns: snap.quantile(0.999),
        max_ns: snap.max,
        mean_ns: snap.mean(),
        checksum: sums.iter().fold(0u64, |a, &b| a.wrapping_add(b)),
    }
}

/// Spawns one scoped thread per slot, runs `body(t, slot)` on each, and
/// returns the wall-clock seconds of the whole region.
fn parallel_region<S: Send>(slots: &mut [S], body: impl Fn(usize, &mut S) + Sync) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (t, slot) in slots.iter_mut().enumerate() {
            let body = &body;
            scope.spawn(move || body(t, slot));
        }
    });
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_cc::pipeline::PipelineSpec;
    use ampc_graph::generators::random_forest;
    use ampc_query::workload;

    use crate::service::ServiceBuilder;

    fn service() -> ServiceHandle {
        let g = random_forest(2000, 17, 3);
        ServiceBuilder::new(g)
            .spec(PipelineSpec::default().with_seed(5).with_machines(4))
            .build()
            .expect("service build")
    }

    #[test]
    fn stripes_partition_the_stream() {
        for (len, threads) in [(10, 3), (7, 7), (5, 8), (0, 4), (1000, 16), (13, 1)] {
            let mut covered = Vec::new();
            for t in 0..threads {
                covered.extend(stripe(len, threads, t));
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len={len} threads={threads}");
            // Near-equal: stripe lengths differ by at most one.
            let lens: Vec<usize> = (0..threads).map(|t| stripe(len, threads, t).len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced stripes {lens:?}");
        }
    }

    #[test]
    fn totals_are_invariant_under_thread_count() {
        let service = service();
        let snap = service.snapshot();
        let queries = workload::generate(snap.index(), workload::Mix::Uniform, 20_000, 99);
        let baseline = run(&service, &queries, 1, 256);
        assert_eq!(baseline.total_queries, 20_000);
        for threads in [2, 3, 4, 7] {
            let r = run(&service, &queries, threads, 256);
            assert_eq!(r.checksum, baseline.checksum, "checksum changed at {threads} threads");
            assert_eq!(r.total_queries, baseline.total_queries);
            assert_eq!(r.per_thread.len(), threads);
            assert_eq!(r.per_thread.iter().map(|t| t.queries).sum::<usize>(), 20_000);
            assert!(r.per_thread.iter().all(|t| t.epoch == 0));
        }
    }

    #[test]
    fn run_drives_the_standard_mixes() {
        let service = service();
        for mix in workload::Mix::STANDARD {
            let generate = || workload::generate(service.snapshot().index(), mix, 4000, 7);
            let r = run(&service, &generate(), 2, 128);
            assert_eq!(r.total_queries, 4000);
            assert_eq!(r.threads, 2);
            assert!(r.aggregate_single_qps > 0.0 && r.aggregate_batch_qps > 0.0);
            // Deterministic workload ⇒ deterministic checksum across runs.
            let again = run(&service, &generate(), 4, 32);
            assert_eq!(r.checksum, again.checksum, "mix {} checksum drifted", mix.name());
        }
    }

    #[test]
    fn latency_pass_matches_throughput_checksum_with_ordered_quantiles() {
        let service = service();
        let snap = service.snapshot();
        let queries = workload::generate(snap.index(), workload::Mix::Uniform, 10_000, 21);
        let throughput = run(&service, &queries, 2, 256);
        let lat = run_latency(&service, &queries, 2);
        // Same stream, same engine: the answers (hence checksum) must
        // match the throughput passes, at any thread count.
        assert_eq!(lat.checksum, throughput.checksum);
        assert_eq!(run_latency(&service, &queries, 4).checksum, throughput.checksum);
        assert_eq!(lat.queries, 10_000);
        assert!(lat.p50_ns > 0, "a timed query cannot take zero time");
        assert!(lat.p50_ns <= lat.p90_ns);
        assert!(lat.p90_ns <= lat.p99_ns);
        assert!(lat.p99_ns <= lat.p999_ns);
        assert!(lat.p999_ns <= lat.max_ns);
        assert!(lat.mean_ns > 0.0);
    }

    #[test]
    fn empty_stream_reports_zeros() {
        let service = service();
        let r = run(&service, &[], 4, 64);
        assert_eq!((r.total_queries, r.checksum), (0, 0));
        assert_eq!(r.per_thread.len(), 4);
        assert!(r.per_thread.iter().all(|t| t.queries == 0));
    }
}
