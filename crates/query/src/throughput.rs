//! The one timed pass of the serving layer.
//!
//! A frame of queries is answered under **one** clock pair and recorded
//! **once**: [`timed_frame`] reads the clock twice around whatever answers
//! the frame and records the amortised ns/query weighted by the frame's
//! length, and [`answer_frame`] is the untimed engine loop over decoded
//! queries. The network server runs its own one-pass loop under
//! [`timed_frame`]: it decodes, answers and encodes each record of a
//! `QueryBatch` payload with no `Query` slice in between. The closed-loop
//! runner (`ampc_serve::driver`) times its frames through the same
//! [`timed_frame`], in process around [`answer_frame`] and over TCP around
//! the round trip, so every latency figure of the workspace is this
//! instrument: a value is a frame's mean, never one query's own time, and
//! nothing inside the per-query loop reads a clock.

use ampc_obs::{Clock, CounterId, Histogram, MonotonicClock};

use crate::engine::{Query, QueryEngine};

/// Queries [`answer_frame`] answers per `answer_batch` call: 4 KiB of
/// answers on the stack, so a frame of any length needs no buffer.
const FRAME_CHUNK: usize = 512;

/// Answers one frame: each answer fed to `sink` in request order, the
/// wrapping checksum returned (the answers *are* the computation, so the
/// sum both defeats dead-code elimination and fingerprints the engine),
/// `query_served_total` advanced by the frame's length.
pub fn answer_frame(engine: &QueryEngine, queries: &[Query], mut sink: impl FnMut(u64)) -> u64 {
    let mut answers = [0u64; FRAME_CHUNK];
    let mut checksum = 0u64;
    for chunk in queries.chunks(FRAME_CHUNK) {
        let answers = &mut answers[..chunk.len()];
        engine.answer_batch(chunk, answers).expect("the answer slice was cut to the chunk length");
        for &a in answers.iter() {
            checksum = checksum.wrapping_add(a);
            sink(a);
        }
    }
    ampc_obs::counter(CounterId::QueriesServed).add(queries.len() as u64);
    checksum
}

/// Runs `answer` — whatever answers one frame of `n` queries — between
/// exactly two reads of `clock` and returns its result with the elapsed
/// nanoseconds. The frame's amortised ns/query goes into `hist` and
/// `global` **once, weighted by `n`** ([`Histogram::record_n`]), so both
/// keep counting queries; an empty frame records nothing.
pub fn timed_frame<R>(
    clock: &dyn Clock,
    n: usize,
    hist: &Histogram,
    global: &Histogram,
    answer: impl FnOnce() -> R,
) -> (R, u64) {
    let t0 = clock.now_ns();
    let out = answer();
    let elapsed = clock.now_ns().saturating_sub(t0);
    if let Some(ns_per_query) = elapsed.checked_div(n as u64) {
        hist.record_n(ns_per_query, n as u64);
        global.record_n(ns_per_query, n as u64);
    }
    (out, elapsed)
}

/// [`answer_frame`] under [`timed_frame`] on the process clock.
///
/// No serving path calls this any more: the server answers a frame in one
/// pass over its payload. It stays only because the ledger's traced wire
/// run replays the server's former stages through it; it goes when the
/// ledger adopts the stable spellings (ROADMAP item 1j).
pub fn timed_pass(
    engine: &QueryEngine,
    queries: &[Query],
    hist: &Histogram,
    global: &Histogram,
    sink: impl FnMut(u64),
) -> u64 {
    let answer = || answer_frame(engine, queries, sink);
    timed_frame(&MonotonicClock, queries.len(), hist, global, answer).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ComponentIndex;
    use crate::workload::{self, Mix};
    use ampc_graph::Labeling;
    use ampc_obs::CountingClock;

    #[test]
    fn a_frame_is_one_clock_pair_one_weighted_record_and_the_engines_answers() {
        let idx = ComponentIndex::build(&Labeling(vec![0, 0, 1, 1, 2, 2, 2, 3]));
        let engine = QueryEngine::new(&idx);
        // Both sides of the chunk boundary, and the ledger's large frame.
        for len in [0usize, 1, 511, 512, 513, 4096] {
            let queries = workload::generate(&idx, Mix::Uniform, len, 29);
            let clock = CountingClock::default();
            let (hist, global) = (Histogram::new(), Histogram::new());
            let mut sunk = Vec::new();
            let (checksum, elapsed) = timed_frame(&clock, len, &hist, &global, || {
                answer_frame(&engine, &queries, |a| sunk.push(a))
            });

            assert_eq!(clock.reads(), 2, "len={len}: one clock pair per frame");
            assert_eq!(elapsed, CountingClock::STEP_NS, "len={len}");
            let expected: Vec<u64> = queries.iter().map(|&q| engine.answer(q)).collect();
            assert_eq!(sunk, expected, "len={len}: sink order is request order");
            assert_eq!(
                checksum,
                expected.iter().fold(0u64, |a, &b| a.wrapping_add(b)),
                "len={len}"
            );
            for h in [hist.snapshot(), global.snapshot()] {
                assert_eq!(h.count, len as u64, "len={len}: one weighted record per frame");
                assert_eq!(h.sum, CountingClock::STEP_NS / len.max(1) as u64 * len as u64);
            }
        }
    }
}
