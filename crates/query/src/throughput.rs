//! Shared throughput measurement for the serving layer.
//!
//! The CLI `query` subcommand and the serving driver time the
//! same two code paths — one `answer` call per query vs. batched
//! `answer_batch` chunks — so the timed loops live here, once. Both
//! return `(queries/sec, checksum)`: the wrapping answer sum guards
//! against dead-code elimination and must agree between the two paths
//! (the answers *are* the computation, so a divergent checksum means a
//! broken engine).

use std::time::Instant;

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
/// separate pass from the throughput loops above on purpose: two clock
/// reads per query put a floor of tens of nanoseconds under every sample,
/// which would depress the q/s numbers if folded into the timed passes —
/// distributions and throughput are measured by different loops over the
/// same engine.
pub fn latency_pass(engine: &QueryEngine, queries: &[Query], hist: &ampc_obs::Histogram) -> u64 {
    timed_pass(engine, queries, hist, ampc_obs::hist(ampc_obs::HistId::QueryLatencyNs), |_| {})
}

/// The factored core of [`latency_pass`]: answers every query, timing each
/// one into both `hist` and `global`, feeding each answer to `sink`, and
/// returning the wrapping checksum.
///
/// The split exists for the network path: an in-process latency pass
/// records into the process-wide `query_latency_ns` histogram and discards
/// answers, while a network server worker records the same per-query spans
/// into `net_request_service_ns` **and keeps the answers** to encode a
/// reply frame — so wire latency (measured client-side around the round
/// trip) and server-side service latency come out as two separate
/// histograms instead of one conflated number.
pub fn timed_pass(
    engine: &QueryEngine,
    queries: &[Query],
    hist: &ampc_obs::Histogram,
    global: &ampc_obs::Histogram,
    mut sink: impl FnMut(u64),
) -> u64 {
    let mut checksum = 0u64;
    for &q in queries {
        let t0 = Instant::now();
        let answer = engine.answer(q);
        let ns = t0.elapsed().as_nanos() as u64;
        hist.record(ns);
        global.record(ns);
        checksum = checksum.wrapping_add(answer);
        sink(answer);
    }
    ampc_obs::counter(ampc_obs::CounterId::QueriesServed).add(queries.len() as u64);
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
