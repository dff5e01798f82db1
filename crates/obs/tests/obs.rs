//! Integration tests for the observability layer: histogram percentiles
//! against an exact sorted oracle, shard-merge determinism under threads,
//! trace-ring behavior under concurrent writers, and a Prometheus
//! exposition-format validator over `render_text`.

use std::collections::HashMap;
use std::thread;

use ampc_obs::{
    bucket_of, render_text, trace, trace_last, CounterId, GaugeId, HistId, Histogram, TraceKind,
    TraceRing,
};

/// SplitMix64 — the repo's standard deterministic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Exact order statistic matching `HistSnapshot::quantile`'s rank rule.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_within_one_bucket(est: u64, exact: u64, what: &str) {
    assert!(est >= exact, "{what}: estimate {est} below exact {exact}");
    assert_eq!(
        bucket_of(est),
        bucket_of(exact),
        "{what}: estimate {est} left the exact value's bucket ({exact})"
    );
}

#[test]
fn histogram_matches_sorted_oracle_within_one_bucket() {
    // Three deterministic distributions: latency-like (narrow range),
    // wide uniform, and heavy-tailed via squaring.
    for (seed, lo, hi, square) in
        [(1u64, 40u64, 4_000u64, false), (2, 0, u64::MAX / 2, false), (3, 1, 1 << 20, true)]
    {
        let mut rng = SplitMix64(seed);
        let h = Histogram::new();
        let mut vals: Vec<u64> = (0..10_000)
            .map(|_| {
                let span = hi - lo + 1;
                let v = lo + rng.next() % span;
                if square {
                    (v & 0xffff).pow(2)
                } else {
                    v
                }
            })
            .collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, vals.len() as u64);
        assert_eq!(snap.sum, vals.iter().copied().reduce(|a, b| a.wrapping_add(b)).unwrap());
        assert_eq!(snap.max, *vals.last().unwrap());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle_quantile(&vals, q);
            let est = snap.quantile(q);
            assert_within_one_bucket(est, exact, &format!("seed {seed} q={q}"));
        }
    }
}

/// Owns the "merged quantiles are thread-count invariant" property of the
/// sharded histogram: a record is relaxed RMWs on commutative counters, so
/// the merged buckets depend on the multiset recorded and on no
/// interleaving — one run per split decides it.
#[test]
fn shard_merge_is_deterministic_across_thread_splits() {
    // The same 80k observations recorded by 1, 2, 4, and 8 threads must
    // merge to identical bucket vectors: shard assignment can never
    // change what a snapshot reports.
    let mut rng = SplitMix64(42);
    let vals: Vec<u64> = (0..80_000).map(|_| rng.next() >> (rng.next() % 50)).collect();

    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 4, 8] {
        let h = Histogram::new();
        thread::scope(|s| {
            for chunk in vals.chunks(vals.len() / threads) {
                let h = &h;
                s.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, vals.len() as u64);
        let buckets = snap.buckets.to_vec();
        match &baseline {
            None => baseline = Some(buckets),
            Some(b) => assert_eq!(*b, buckets, "{threads}-thread merge diverged"),
        }
    }
}

/// `record_n(v, n)` is `n` calls of `record(v)` to a snapshot reader —
/// buckets, count, sum and max — from one thread and from four, whose
/// weighted records land on different shards and merge like any others.
#[test]
fn record_n_leaves_the_snapshot_of_n_records() {
    // Includes 0 (bucket 0), a bucket edge, n = 0 and a sum that wraps.
    let weighted: [(u64, u64); 6] =
        [(0, 3), (7, 4096), (8, 1), (1_000_003, 512), (12_345, 0), (u64::MAX, 2)];

    let assert_same = |a: &Histogram, b: &Histogram, what: &str| {
        let (a, b) = (a.snapshot(), b.snapshot());
        assert_eq!(a.buckets, b.buckets, "{what}: buckets");
        assert_eq!((a.count, a.sum, a.max), (b.count, b.sum, b.max), "{what}: count, sum, max");
    };

    let (by_n, one_by_one) = (Histogram::new(), Histogram::new());
    by_n.record_n(12_345, 0);
    assert_eq!(by_n.snapshot().count, 0, "n = 0 records nothing");
    assert_eq!(by_n.snapshot().max, 0, "n = 0 must not move max either");
    for &(v, n) in &weighted {
        by_n.record_n(v, n);
        (0..n).for_each(|_| one_by_one.record(v));
    }
    assert_same(&by_n, &one_by_one, "one thread");
    assert_eq!(by_n.snapshot().count, weighted.iter().map(|&(_, n)| n).sum::<u64>());

    let (by_n, one_by_one) = (Histogram::new(), Histogram::new());
    thread::scope(|s| {
        for t in 0..4u64 {
            let (by_n, one_by_one) = (&by_n, &one_by_one);
            s.spawn(move || {
                for &(v, n) in &weighted {
                    by_n.record_n(v.wrapping_add(t), n);
                    (0..n).for_each(|_| one_by_one.record(v.wrapping_add(t)));
                }
            });
        }
    });
    assert_same(&by_n, &one_by_one, "four threads");
}

#[test]
fn trace_ring_seqs_are_unique_and_monotone_under_concurrent_writers() {
    let ring = TraceRing::new();
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 400; // 3200 > TRACE_CAP → exercises wraparound
    let seqs: Vec<Vec<u64>> = thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = &ring;
                s.spawn(move || {
                    (0..PER_WRITER)
                        .map(|i| ring.record(i as u64, TraceKind::JournalBuilt, w as u64, i as u64))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Claimed seqs: unique across all writers, monotone within each.
    let mut all: Vec<u64> = seqs.iter().flatten().copied().collect();
    assert_eq!(all.len(), WRITERS * PER_WRITER);
    for per in &seqs {
        for w in per.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), WRITERS * PER_WRITER, "duplicate sequence numbers");
    assert_eq!(ring.recorded(), (WRITERS * PER_WRITER) as u64);

    // Post-quiescence read-back: strictly increasing seqs, payloads
    // self-consistent with their claimed writer/iteration.
    let events = ring.last(usize::MAX);
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
    for e in &events {
        assert!(seqs[e.a as usize].contains(&e.seq), "slot payload from a different event");
        assert_eq!(e.at_ns, e.b, "timestamp and payload written by different events");
    }
}

/// Minimal Prometheus text exposition (0.0.4) validator: every sample is
/// preceded by a `# TYPE` for its family, histogram buckets are
/// cumulative and capped by `+Inf == _count`, and values parse.
fn validate_prometheus(text: &str) {
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut bucket_prev: HashMap<&str, u64> = HashMap::new();
    let mut inf: HashMap<&str, u64> = HashMap::new();
    let mut counts: HashMap<&str, u64> = HashMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap();
            let name = parts.next().unwrap_or_else(|| panic!("bare comment: {line}"));
            assert!(parts.next().is_some(), "missing {keyword} text: {line}");
            if keyword == "TYPE" {
                let ty = rest.splitn(3, ' ').nth(2).unwrap();
                assert!(
                    ["counter", "gauge", "histogram"].contains(&ty),
                    "unknown TYPE {ty}: {line}"
                );
                types.insert(name, ty);
            } else {
                assert_eq!(keyword, "HELP", "unknown comment keyword: {line}");
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        let value: u64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
        let (name, label) = match series.split_once('{') {
            Some((n, l)) => (n, Some(l.strip_suffix('}').expect("unterminated label set"))),
            None => (series, None),
        };
        // Family: histogram samples use name_bucket/_sum/_count.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.get(f) == Some(&"histogram"))
            .unwrap_or(name);
        let ty = types.get(family).unwrap_or_else(|| panic!("sample before TYPE: {line}"));
        match *ty {
            "counter" | "gauge" => assert!(label.is_none(), "unexpected labels: {line}"),
            "histogram" => {
                if let Some(label) = label {
                    assert!(name.ends_with("_bucket"), "labeled non-bucket: {line}");
                    let le = label
                        .strip_prefix("le=\"")
                        .and_then(|l| l.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("bucket without le: {line}"));
                    assert!(le == "+Inf" || le.parse::<u64>().is_ok(), "bad le: {line}");
                    let prev = bucket_prev.entry(family).or_insert(0);
                    assert!(value >= *prev, "non-cumulative buckets: {line}");
                    *prev = value;
                    if le == "+Inf" {
                        inf.insert(family, value);
                    }
                } else if let Some(f) = name.strip_suffix("_count") {
                    counts.insert(f, value);
                } else {
                    assert!(name.ends_with("_sum"), "stray histogram sample: {line}");
                }
            }
            _ => unreachable!(),
        }
    }
    assert!(!types.is_empty(), "no metric families rendered");
    for (family, ty) in &types {
        if *ty == "histogram" {
            let i = inf.get(family).unwrap_or_else(|| panic!("{family}: no +Inf bucket"));
            let c = counts.get(family).unwrap_or_else(|| panic!("{family}: no _count"));
            assert_eq!(i, c, "{family}: +Inf bucket != _count");
        }
    }
}

#[test]
fn render_text_is_valid_prometheus_exposition() {
    // Touch one of each metric class so the render has nonzero content,
    // including a histogram with values spread over several buckets.
    ampc_obs::counter(CounterId::QueriesServed).add(3);
    ampc_obs::gauge(GaugeId::RebuildsInFlight).set(2);
    let h = ampc_obs::hist(HistId::QueryLatencyNs);
    for v in [90u64, 400, 3_000, 65_000, 1 << 33] {
        h.record(v);
    }
    trace(TraceKind::EpochPublished, 1, 0);

    let text = render_text();
    validate_prometheus(&text);
    assert!(text.contains("# TYPE query_served_total counter"));
    assert!(text.contains("# TYPE serve_rebuilds_in_flight gauge"));
    assert!(text.contains("# TYPE query_latency_ns histogram"));
    assert!(text.contains("query_latency_ns_bucket{le=\"+Inf\"}"));

    // The global trace ring saw our event (other tests may add more).
    let events = trace_last(ampc_obs::TRACE_CAP);
    assert!(events.iter().any(|e| e.kind == TraceKind::EpochPublished));
}
