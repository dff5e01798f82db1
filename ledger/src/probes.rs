//! Per-layer probes of traced runs: direct calls into one crate's public
//! functions, timed after the repetitions are over. Repetition counts are
//! fixed, so a probe does the same work on every run.

use std::hint::black_box;
use std::time::Instant;

use ampc_graph::{Graph, Labeling};
use ampc_net::protocol::{decode_answers, decode_queries, encode_answers, encode_queries};
use ampc_query::workload::{self, Mix};
use ampc_query::{snapshot, ComponentIndex, Query, QueryEngine};
use ampc_serve::ServiceHandle;

use crate::report::Report;
use crate::stats;

/// Nanoseconds one call of `f` takes.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Median over `reps` calls of `f`, in milliseconds.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let ns: Vec<f64> = (0..reps).map(|_| time_ns(|| black_box(f())).1).collect();
    stats::median(&ns) / 1e6
}

/// Best of `reps` passes of `f` over `items` items, in nanoseconds per item.
pub fn best_ns_per_item<T>(reps: usize, items: usize, mut f: impl FnMut() -> T) -> f64 {
    let ns: Vec<f64> = (0..reps).map(|_| time_ns(|| black_box(f())).1).collect();
    stats::quiet(&ns) / items.max(1) as f64
}

/// Wrapping sum of an answer array: what a reply is checked by.
pub fn checksum(answers: &[u64]) -> u64 {
    answers.iter().fold(0u64, |acc, &a| acc.wrapping_add(a))
}

/// The in-process engine's answers to one frame: what a reply must equal.
pub fn answers(engine: &QueryEngine<'_>, queries: &[Query]) -> Vec<u64> {
    let mut out = vec![0u64; queries.len()];
    engine.answer_batch(queries, &mut out).expect("equal lengths");
    out
}

const BATCH: usize = 1024;
const PROBE_QUERIES: usize = 1 << 18;

/// Batched `answer_batch` over `queries` in chunks of 1 024 on one thread.
pub fn batch_ns_per_query(engine: &QueryEngine<'_>, queries: &[Query]) -> f64 {
    let mut buf = vec![0u64; BATCH];
    best_ns_per_item(3, queries.len(), || {
        let mut sum = 0u64;
        for chunk in queries.chunks(BATCH) {
            let out = &mut buf[..chunk.len()];
            engine.answer_batch(chunk, out).expect("equal lengths");
            sum = sum.wrapping_add(checksum(out));
        }
        sum
    })
}

/// The `query.*` rows every workload with an index reports: the read path in
/// process, on the workload's own index.
pub fn query_rows(
    index: &ComponentIndex,
    labeling: &Labeling,
    g: &Graph,
    seed: u64,
    report: &mut Report,
) {
    let engine = QueryEngine::new(index);
    let n = index.num_vertices().max(1) as f64;
    for (mix, name) in Mix::STANDARD.into_iter().zip([
        "query.batch_ns_per_query.uniform",
        "query.batch_ns_per_query.zipf",
        "query.batch_ns_per_query.cross",
    ]) {
        let queries = workload::generate(index, mix, PROBE_QUERIES, seed);
        report.set(name, batch_ns_per_query(&engine, &queries));
        if mix == Mix::Uniform {
            let single = best_ns_per_item(3, queries.len(), || {
                queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)))
            });
            report.set("query.single_ns_per_query", single);
        }
    }
    report.set("query.index_bytes_per_vertex", index.heap_bytes() as f64 / n);
    let encode = || snapshot::encode(index, labeling, g.n() as u64, g.m() as u64, 1);
    let image = encode();
    report.set("query.snapshot_encode_ms", median_ms(3, encode));
    report.set(
        "query.snapshot_decode_ms",
        median_ms(3, || snapshot::decode(&image).expect("own image decodes").file_bytes),
    );
    report.set("query.snapshot_bytes_per_vertex", image.len() as f64 / n);
}

/// `ServiceHandle::snapshot()` pin + drop, on one thread and on two at once.
pub fn pin_rows(svc: &ServiceHandle, report: &mut Report) {
    const PINS: usize = 1 << 20;
    let pins = || (0..PINS).fold(0u64, |acc, _| acc.wrapping_add(svc.snapshot().epoch()));
    report.set("serve.pin_ns", best_ns_per_item(3, PINS, pins));
    let two = best_ns_per_item(3, PINS, || {
        std::thread::scope(|s| {
            let other = s.spawn(pins);
            pins().wrapping_add(other.join().expect("pin thread panicked"))
        })
    });
    report.set("serve.pin_ns_t2", two);
}

/// The public codec in process, per query, over the workload's own frames.
pub fn codec_rows(frames: &[&[Query]], engine: &QueryEngine<'_>, report: &mut Report) {
    let total: usize = frames.iter().map(|f| f.len()).sum();
    let passes = (PROBE_QUERIES / total.max(1)).max(1);
    let items = total * passes;
    let requests: Vec<Vec<u8>> = frames.iter().map(|f| encode_queries(f)).collect();
    let answered: Vec<Vec<u64>> = frames.iter().map(|f| answers(engine, f)).collect();
    let replies: Vec<Vec<u8>> = answered.iter().map(|a| encode_answers(a)).collect();
    let over = |f: &mut dyn FnMut(usize) -> usize| {
        best_ns_per_item(3, items, || {
            (0..passes).fold(0usize, |acc, _| (0..frames.len()).fold(acc, |acc, i| acc + f(i)))
        })
    };
    report.set("net.encode_queries_ns_per_query", over(&mut |i| encode_queries(frames[i]).len()));
    report.set(
        "net.decode_queries_ns_per_query",
        over(&mut |i| decode_queries(&requests[i]).expect("own encoding").len()),
    );
    report
        .set("net.encode_answers_ns_per_query", over(&mut |i| encode_answers(&answered[i]).len()));
    report.set(
        "net.decode_answers_ns_per_query",
        over(&mut |i| decode_answers(&replies[i]).expect("own encoding").len()),
    );
}
