//! Shared throughput measurement for the serving layer.
//!
//! The CLI `query` subcommand, the serving driver and the network server
//! time the same engine through the loops that live here, once:
//!
//! - [`single_pass`] / [`batched_pass`] — queries per second, one `answer`
//!   call per query vs. `answer_batch` chunks;
//! - [`latency_pass`] — the per-query latency *distribution*: two clock
//!   reads around every query, for the CLI's quantile report;
//! - [`timed_pass`] — what the network server runs on a `QueryBatch` frame:
//!   the whole frame through `answer_batch` under **one** clock pair, the
//!   amortised ns/query recorded once, weighted by the frame's length.
//!
//! Every loop returns the wrapping answer sum: it guards against dead-code
//! elimination and must agree between all of them (the answers *are* the
//! computation, so a divergent checksum means a broken engine).

use std::time::Instant;

use ampc_obs::{Clock, CounterId, HistId, Histogram, MonotonicClock};

use crate::engine::{Query, QueryEngine};

/// Times one pass of per-call answering over `queries`.
pub fn single_pass(engine: &QueryEngine, queries: &[Query]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for &q in queries {
        checksum = checksum.wrapping_add(engine.answer(q));
    }
    ampc_obs::counter(ampc_obs::CounterId::QueriesServed).add(queries.len() as u64);
    (queries.len() as f64 / t0.elapsed().as_secs_f64(), checksum)
}

/// Times **each query individually** into `hist` (and the process-wide
/// `query_latency_ns` histogram), returning the checksum. This is a
/// separate pass from every other loop here on purpose: two clock reads
/// and six histogram RMWs per query put a floor of about a hundred
/// nanoseconds under an answer that takes under ten, which is the price of
/// a distribution with one sample per query — paid by the CLI's latency
/// report, never by a throughput number or by the serving path
/// ([`timed_pass`]).
pub fn latency_pass(engine: &QueryEngine, queries: &[Query], hist: &Histogram) -> u64 {
    let global = ampc_obs::hist(HistId::QueryLatencyNs);
    let mut checksum = 0u64;
    for &q in queries {
        let t0 = Instant::now();
        let answer = engine.answer(q);
        let ns = t0.elapsed().as_nanos() as u64;
        hist.record(ns);
        global.record(ns);
        checksum = checksum.wrapping_add(answer);
    }
    ampc_obs::counter(CounterId::QueriesServed).add(queries.len() as u64);
    checksum
}

/// Queries [`frame_pass`] answers per `answer_batch` call: 4 KiB of
/// answers on the stack, so a frame of any length needs no buffer.
const FRAME_CHUNK: usize = 512;

/// Answers one frame of queries the way the network server does: the whole
/// frame under one clock pair, each answer fed to `sink` in request order,
/// the wrapping checksum returned. The frame's amortised ns/query goes
/// into `hist` and `global` **once, weighted by the frame's length**
/// ([`Histogram::record_n`]), so both keep counting queries while the
/// per-query loop holds no clock read and no histogram record. An empty
/// frame records nothing.
///
/// The server records into `net_request_service_ns` and keeps the answers
/// to encode a reply frame; wire latency is measured client-side around
/// the round trip, so the two come out as separate histograms.
pub fn timed_pass(
    engine: &QueryEngine,
    queries: &[Query],
    hist: &Histogram,
    global: &Histogram,
    sink: impl FnMut(u64),
) -> u64 {
    frame_pass(&MonotonicClock, engine, queries, hist, global, sink)
}

/// [`timed_pass`] on an injected clock: exactly two `now_ns` reads per
/// call, whatever the frame's length.
fn frame_pass(
    clock: &dyn Clock,
    engine: &QueryEngine,
    queries: &[Query],
    hist: &Histogram,
    global: &Histogram,
    mut sink: impl FnMut(u64),
) -> u64 {
    let mut answers = [0u64; FRAME_CHUNK];
    let mut checksum = 0u64;
    let t0 = clock.now_ns();
    for chunk in queries.chunks(FRAME_CHUNK) {
        let answers = &mut answers[..chunk.len()];
        engine.answer_batch(chunk, answers).expect("the answer slice was cut to the chunk length");
        for &a in answers.iter() {
            checksum = checksum.wrapping_add(a);
            sink(a);
        }
    }
    let elapsed = clock.now_ns().saturating_sub(t0);
    let n = queries.len() as u64;
    // An empty frame has no per-query time to record.
    if let Some(ns_per_query) = elapsed.checked_div(n) {
        hist.record_n(ns_per_query, n);
        global.record_n(ns_per_query, n);
    }
    ampc_obs::counter(CounterId::QueriesServed).add(n);
    checksum
}

/// Times one pass of batched answering over `queries` in chunks of
/// `batch`, reusing `buf` as the answer buffer across chunks.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn batched_pass(
    engine: &QueryEngine,
    queries: &[Query],
    batch: usize,
    buf: &mut Vec<u64>,
) -> (f64, u64) {
    assert!(batch > 0, "batch size must be positive");
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for chunk in queries.chunks(batch) {
        buf.resize(chunk.len(), 0);
        engine.answer_batch(chunk, buf).expect("buf was resized to the chunk length");
        for &a in buf.iter() {
            checksum = checksum.wrapping_add(a);
        }
    }
    ampc_obs::counter(ampc_obs::CounterId::QueriesServed).add(queries.len() as u64);
    (queries.len() as f64 / t0.elapsed().as_secs_f64(), checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ComponentIndex;
    use crate::workload::{self, Mix};
    use ampc_graph::Labeling;

    #[test]
    fn single_and_batched_checksums_agree() {
        let idx = ComponentIndex::build(&Labeling(vec![0, 0, 1, 1, 2, 2, 2, 3]));
        let engine = QueryEngine::new(&idx);
        let queries = workload::generate(&idx, Mix::Uniform, 500, 13);
        let (_, single) = single_pass(&engine, &queries);
        let mut buf = Vec::new();
        // Several batch sizes, incl. one that doesn't divide the count.
        for batch in [1, 7, 64, 1024] {
            let (_, batched) = batched_pass(&engine, &queries, batch, &mut buf);
            assert_eq!(single, batched, "batch={batch}");
        }
    }

    /// A clock that counts its reads and moves 1 000 ns on each.
    #[derive(Debug, Default)]
    struct CountingClock(std::sync::atomic::AtomicU64);

    impl Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            1_000 * self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn frame_pass_reads_the_clock_twice_and_answers_like_single_pass() {
        let idx = ComponentIndex::build(&Labeling(vec![0, 0, 1, 1, 2, 2, 2, 3]));
        let engine = QueryEngine::new(&idx);
        // Both sides of the chunk boundary, and the ledger's large frame.
        for len in [0usize, 1, 511, 512, 513, 4096] {
            let queries = workload::generate(&idx, Mix::Uniform, len, 29);
            let clock = CountingClock::default();
            let (hist, global) = (Histogram::new(), Histogram::new());
            let mut sunk = Vec::new();
            let checksum = frame_pass(&clock, &engine, &queries, &hist, &global, |a| sunk.push(a));

            assert_eq!(clock.0.into_inner(), 2, "len={len}: one clock pair per frame");
            let expected: Vec<u64> = queries.iter().map(|&q| engine.answer(q)).collect();
            assert_eq!(sunk, expected, "len={len}: sink order is request order");
            assert_eq!(checksum, single_pass(&engine, &queries).1, "len={len}");
            for h in [hist.snapshot(), global.snapshot()] {
                // The clock moved 1 000 ns between its two reads.
                assert_eq!(h.count, len as u64, "len={len}: one weighted record per frame");
                assert_eq!(h.sum, (1_000 / len.max(1) * len) as u64, "len={len}");
            }
        }
    }

    #[test]
    fn empty_workload_is_a_zero_checksum() {
        let idx = ComponentIndex::build(&Labeling(vec![1, 2]));
        let engine = QueryEngine::new(&idx);
        let (_, sum) = single_pass(&engine, &[]);
        assert_eq!(sum, 0);
        let (_, sum) = batched_pass(&engine, &[], 16, &mut Vec::new());
        assert_eq!(sum, 0);
    }
}
