//! The one striped closed-loop workload runner.
//!
//! [`drive`] partitions one deterministic query stream into contiguous
//! stripes — worker `t` of `T` gets the `t`-th of `T` near-equal chunks, a
//! pure function of `(len, T)` — so the *work* is seed-reproducible at any
//! thread count: every query is answered exactly once, and the aggregate
//! checksum (a wrapping sum, hence partition-order-invariant) is identical
//! for 1 thread and 64. One worker runs per **non-empty** stripe; it sends
//! its stripe in frames of `batch` queries, waiting for each frame's
//! answers before it sends the next.
//!
//! The runner is generic over *how a worker answers a frame* ([`Worker`]):
//! in process a pinned `Arc<PublishedIndex>` (the service read path, one epoch
//! per worker even when a rebuild publishes mid-run — that is [`run`]),
//! over TCP a connection with reconnect-and-retry (`ampc_net::run_harness`).
//! Either way a frame is timed by `throughput::timed_frame`: exactly two
//! clock reads per frame, none per query, the frame's mean recorded once
//! with its length as weight. The server's `net_request_service_ns` is the
//! same instrument around its one pass over a `QueryBatch` payload, so it
//! times decode + answer + encode where the in-process figure times the
//! engine over decoded queries; the difference between the two is the
//! wire codec's share.

use std::convert::Infallible;
use std::sync::Arc;

use ampc_obs::{Clock, HistId, HistSnapshot, Histogram, MonotonicClock};
use ampc_query::{throughput, Query};

use crate::service::{PublishedIndex, ServiceHandle};

/// One worker's end of a transport.
pub trait Worker {
    /// What answering a frame can fail with.
    type Error: Send;

    /// Answers one frame and returns the wrapping sum of its answers.
    fn answer(&mut self, frame: &[Query]) -> Result<u64, Self::Error>;

    /// The epoch pinned for the whole stripe; 0 where the far end pins one
    /// per frame.
    fn epoch(&self) -> u64 {
        0
    }

    /// Failed exchanges this worker retried.
    fn retries(&self) -> u64 {
        0
    }
}

impl Worker for Arc<PublishedIndex> {
    type Error = Infallible;

    fn answer(&mut self, frame: &[Query]) -> Result<u64, Infallible> {
        Ok(throughput::answer_frame(&self.engine(), frame, |_| {}))
    }

    fn epoch(&self) -> u64 {
        PublishedIndex::epoch(self)
    }
}

/// One worker's row of a [`Report`].
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Stripe index in `0..threads`.
    pub worker: usize,
    /// Queries this worker answered (its stripe length).
    pub queries: usize,
    /// Its queries over the time its frames took.
    pub queries_per_sec: f64,
    /// Wrapping sum of this worker's answers.
    pub checksum: u64,
    /// [`Worker::epoch`] at the end of the stripe.
    pub epoch: u64,
    /// [`Worker::retries`] at the end of the stripe.
    pub retries: u64,
}

/// What one run measured, whatever the transport.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stripes the stream was cut into (workers asked for).
    pub threads: usize,
    /// Queries per frame.
    pub batch: usize,
    /// Total queries answered (the full stream, once).
    pub queries: usize,
    /// Wrapping sum of all answers — invariant under `threads` and `batch`.
    pub checksum: u64,
    /// Total queries over the wall clock of the parallel region.
    pub queries_per_sec: f64,
    /// Per-query latency, one value per frame (its mean) weighted by the
    /// frame's length: `count` is `queries`. Quantiles are log2-bucket
    /// upper bounds clamped to the observed max.
    pub latency: HistSnapshot,
    /// One row per worker that ran, in stripe order.
    pub per_worker: Vec<WorkerReport>,
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

fn per_sec(queries: usize, ns: u64) -> f64 {
    queries as f64 * 1e9 / ns.max(1) as f64
}

/// Runs `queries` through one [`Worker`] per non-empty stripe of `threads`,
/// `batch` queries per frame. `open` runs on the worker's own thread and
/// only for a stripe that carries something, so an idle worker pins no
/// snapshot and opens no connection. Frame means also go into `global`,
/// the process-wide histogram of the transport. The first worker error, in
/// stripe order, fails the run.
///
/// # Panics
/// Panics if `threads` or `batch` is zero.
pub fn drive<W: Worker>(
    clock: &dyn Clock,
    global: &Histogram,
    queries: &[Query],
    threads: usize,
    batch: usize,
    open: impl Fn() -> Result<W, W::Error> + Sync,
) -> Result<Report, W::Error> {
    assert!(threads > 0, "driver needs at least one thread");
    assert!(batch > 0, "batch size must be positive");
    let latency = Histogram::new();
    let work = |worker: usize, stripe: &[Query]| -> Result<WorkerReport, W::Error> {
        let mut transport = open()?;
        let (mut checksum, mut busy_ns) = (0u64, 0u64);
        for frame in stripe.chunks(batch) {
            let answer = || transport.answer(frame);
            let (sum, ns) = throughput::timed_frame(clock, frame.len(), &latency, global, answer);
            checksum = checksum.wrapping_add(sum?);
            busy_ns += ns;
        }
        Ok(WorkerReport {
            worker,
            queries: stripe.len(),
            queries_per_sec: per_sec(stripe.len(), busy_ns),
            checksum,
            epoch: transport.epoch(),
            retries: transport.retries(),
        })
    };

    let t0 = clock.now_ns();
    let rows: Vec<Result<WorkerReport, W::Error>> = std::thread::scope(|scope| {
        let stripes = (0..threads).map(|t| (t, &queries[stripe(queries.len(), threads, t)]));
        let handles: Vec<_> = stripes
            .filter(|(_, stripe)| !stripe.is_empty())
            .map(|(t, stripe)| scope.spawn(move || work(t, stripe)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver worker panicked")).collect()
    });
    let wall_ns = clock.now_ns().saturating_sub(t0);

    let per_worker = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Report {
        threads,
        batch,
        queries: queries.len(),
        checksum: per_worker.iter().fold(0, |sum, w| sum.wrapping_add(w.checksum)),
        queries_per_sec: per_sec(queries.len(), wall_ns),
        latency: latency.snapshot(),
        per_worker,
    })
}

/// [`drive`] in process: each worker pins its own snapshot of `service`
/// and answers its stripe against that one epoch; frame means also go into
/// the process-wide `query_latency_ns`.
///
/// # Panics
/// Panics if `threads` or `batch` is zero.
pub fn run(service: &ServiceHandle, queries: &[Query], threads: usize, batch: usize) -> Report {
    let global = ampc_obs::hist(HistId::QueryLatencyNs);
    match drive(&MonotonicClock, global, queries, threads, batch, || Ok(service.snapshot())) {
        Ok(report) => report,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_cc::pipeline::PipelineSpec;
    use ampc_graph::generators::random_forest;
    use ampc_obs::CountingClock;
    use ampc_query::workload;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn totals_are_the_engines_at_every_thread_count_and_batch() {
        let service = service();
        let snap = service.snapshot();
        let queries = workload::generate(snap.index(), workload::Mix::Uniform, 20_000, 99);
        let engine = snap.engine();
        let expected = queries.iter().fold(0u64, |sum, &q| sum.wrapping_add(engine.answer(q)));
        for threads in [1, 2, 3, 7] {
            for batch in [1, 7, 256] {
                let r = run(&service, &queries, threads, batch);
                assert_eq!(r.checksum, expected, "threads={threads} batch={batch}");
                assert_eq!((r.threads, r.batch, r.queries), (threads, batch, 20_000));
                assert_eq!(r.per_worker.len(), threads);
                assert_eq!(r.per_worker.iter().map(|w| w.queries).sum::<usize>(), 20_000);
                assert!(r.per_worker.iter().all(|w| w.epoch == 0 && w.retries == 0));
                assert!(r.queries_per_sec > 0.0);
                // Length-weighted: one value per frame, counted once per query.
                assert_eq!(r.latency.count, 20_000, "threads={threads} batch={batch}");
                let q = [0.5, 0.9, 0.99, 0.999].map(|q| r.latency.quantile(q));
                assert!(q.windows(2).all(|w| w[0] <= w[1]) && q[3] <= r.latency.max, "{q:?}");
            }
        }
    }

    #[test]
    fn run_drives_the_standard_mixes() {
        let service = service();
        for mix in workload::Mix::STANDARD {
            let generate = || workload::generate(service.snapshot().index(), mix, 4000, 7);
            let r = run(&service, &generate(), 2, 128);
            assert_eq!((r.queries, r.threads), (4000, 2));
            // Deterministic workload ⇒ deterministic checksum across runs.
            let again = run(&service, &generate(), 4, 32);
            assert_eq!(r.checksum, again.checksum, "mix {} checksum drifted", mix.name());
        }
    }

    #[test]
    fn a_frame_costs_two_clock_reads_and_the_region_two_more() {
        let service = service();
        let snap = service.snapshot();
        let global = Histogram::new();
        for len in [0usize, 1, 513, 4096] {
            let queries = workload::generate(snap.index(), workload::Mix::Uniform, len, 3);
            for (threads, batch) in [(1, 1), (1, 7), (3, 7), (2, 1024), (5, 1024)] {
                let clock = CountingClock::default();
                let open = || Ok::<_, Infallible>(service.snapshot());
                let r = drive(&clock, &global, &queries, threads, batch, open).unwrap();
                let frames: usize =
                    (0..threads).map(|t| stripe(len, threads, t).len().div_ceil(batch)).sum();
                assert_eq!(
                    clock.reads(),
                    2 * frames as u64 + 2,
                    "len={len} threads={threads} batch={batch}"
                );
                assert_eq!(r.latency.count, len as u64);
            }
        }
    }

    /// Answers a frame with its length; fails the frame that holds
    /// `Query::TopKSize(13)`.
    struct Probe;

    impl Worker for Probe {
        type Error = &'static str;

        fn answer(&mut self, frame: &[Query]) -> Result<u64, &'static str> {
            if frame.contains(&Query::TopKSize(13)) {
                return Err("unlucky frame");
            }
            Ok(frame.len() as u64)
        }
    }

    #[test]
    fn an_empty_stripe_opens_no_worker_and_a_failed_frame_fails_the_run() {
        let opened = AtomicUsize::new(0);
        let open = || {
            opened.fetch_add(1, Ordering::SeqCst);
            Ok(Probe)
        };
        let global = Histogram::new();
        let queries = vec![Query::ComponentOf(0); 10];
        // More threads than queries: ten one-query stripes, 54 idle ones.
        let r = drive(&MonotonicClock, &global, &queries, 64, 4, open).expect("no unlucky frame");
        assert_eq!((r.checksum, r.queries, r.threads), (10, 10, 64));
        assert_eq!(
            r.per_worker.iter().map(|w| w.worker).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(opened.swap(0, Ordering::SeqCst), 10, "one worker per non-empty stripe");

        let r = drive(&MonotonicClock, &global, &[], 4, 64, open).expect("nothing to fail");
        assert_eq!((r.queries, r.checksum, r.latency.count, r.per_worker.len()), (0, 0, 0, 0));
        assert_eq!(opened.load(Ordering::SeqCst), 0, "an empty stream opens nothing");

        let mut unlucky = queries.clone();
        unlucky[7] = Query::TopKSize(13);
        assert_eq!(
            drive(&MonotonicClock, &global, &unlucky, 3, 2, open).unwrap_err(),
            "unlucky frame"
        );
    }
}
