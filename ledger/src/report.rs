//! The metric catalogue (the names every later issue refers to), the value
//! table a run fills in, and the driver's result object. A unit test keeps
//! the catalogue equal to `BENCHMARK.json`.

use std::fmt::Write as _;

/// A workload and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric of the catalogue. `bound` is the share of the parent's median by
/// which an end-to-end metric may get worse; per-layer metrics have none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "lower", bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "higher", bound: None }
}

pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "build_forest",
        why: "graph to published epoch on a 2^18 forest: executor and DHT with scalar u64 values, \
              forest pipeline and Euler tour do over 90% of the work; net does none",
    },
    Workload {
        name: "build_general",
        why: "the same build on G(2^16, 2^18): Vec-valued DHT entries, 40-45 rounds, host-side \
              sampling and contraction; a DHT change that helps scalars and hurts vectors shows",
    },
    Workload {
        name: "wire_small",
        why:
            "8-query frames over loopback: per-frame cost (syscalls, wake-ups, header, allocation, \
              epoch pin, admission queue) dominates; codec and engine are under 10%",
    },
    Workload {
        name: "wire_large",
        why: "4096-query frames: per-byte cost (codec, copies, engine loop) dominates; a change \
              trading per-frame for per-byte cost moves this and wire_small in opposite directions",
    },
    Workload {
        name: "wire_rw",
        why:
            "edge inserts beside reads: journal freeze under the stream mutex, merge-aware engine \
              path, 128 epoch swaps under live readers, a rebuild swapping the base under sockets",
    },
];

/// The one gated timing is the paired ratio: on this kind of host raw wall
/// clock of the same code spreads by 0.2-0.4 between sets of runs (README,
/// "What the host does"), past the largest bound there is, so `op_us` and
/// `work_per_s` are per-layer rows (`run.op_quiet_us`, `run.work_per_s`).
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_x_floor", "ratio", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("space_per_input", "words/word", "lower", 0.05),
];

pub const PER_LAYER: [Metric; 82] = [
    higher("run.repetitions", "count"),
    higher("run.ops", "count"),
    lower("run.op_quiet_us", "us"),
    higher("run.work_per_s", "1/s"),
    lower("run.op_p50_us", "us"),
    lower("run.op_tail_us", "us"),
    higher("run.op_tail_pct", "pct"),
    lower("run.op_max_us", "us"),
    lower("run.floor_us", "us"),
    lower("run.error_rate", "ratio"),
    lower("run.rss_end_mb", "MiB"),
    higher("run.cpu_per_wall", "cores"),
    lower("graph.generate_ms", "ms"),
    lower("graph.oracle_ms", "ms"),
    lower("graph.validate_ms", "ms"),
    lower("graph.euler_ms", "ms"),
    lower("graph.degree3_ms", "ms"),
    lower("ampc.rounds", "count"),
    lower("ampc.rounds_executed", "count"),
    lower("ampc.reads", "count"),
    lower("ampc.writes", "count"),
    lower("ampc.write_words", "words"),
    lower("ampc.bytes_shuffled", "bytes"),
    lower("ampc.peak_space_words", "words"),
    lower("ampc.max_machine_read_words", "words"),
    lower("ampc.round_wall_ms", "ms"),
    lower("ampc.ns_per_op", "ns/op"),
    lower("ampc.kernel_ns_per_item", "ns/item"),
    higher("ampc.flat_x_dense", "ratio"),
    higher("ampc.sharded_x_dense", "ratio"),
    lower("core.pipeline_ms", "ms"),
    lower("core.host_ms", "ms"),
    lower("core.reads.ssc", "count"),
    lower("core.reads.slc", "count"),
    lower("core.reads.compose", "count"),
    lower("core.reads.sg", "count"),
    lower("core.reads.rf", "count"),
    lower("core.shuffle_bytes.ssc", "bytes"),
    lower("core.shuffle_bytes.slc", "bytes"),
    lower("core.shuffle_bytes.compose", "bytes"),
    lower("core.shuffle_bytes.sg", "bytes"),
    lower("core.shuffle_bytes.rf", "bytes"),
    lower("query.index_build_ms", "ms"),
    lower("query.index_bytes_per_vertex", "bytes/vertex"),
    lower("query.snapshot_encode_ms", "ms"),
    lower("query.snapshot_decode_ms", "ms"),
    lower("query.snapshot_bytes_per_vertex", "bytes/vertex"),
    lower("query.batch_ns_per_query.uniform", "ns/query"),
    lower("query.batch_ns_per_query.zipf", "ns/query"),
    lower("query.batch_ns_per_query.cross", "ns/query"),
    lower("query.single_ns_per_query", "ns/query"),
    lower("query.batch_ns_per_query.2p22", "ns/query"),
    lower("query.journal_build_us", "us"),
    lower("query.journal_read_penalty", "ratio"),
    lower("serve.publish_ms", "ms"),
    lower("serve.pin_ns", "ns"),
    lower("serve.pin_ns_t2", "ns"),
    lower("serve.insert_us", "us"),
    lower("serve.rebuild_ms", "ms"),
    higher("serve.read_slowdown_rebuild", "ratio"),
    higher("serve.journal_epochs", "count"),
    lower("serve.persist_ms", "ms"),
    lower("serve.boot_ms", "ms"),
    lower("net.encode_queries_ns_per_query", "ns/query"),
    lower("net.decode_queries_ns_per_query", "ns/query"),
    lower("net.encode_answers_ns_per_query", "ns/query"),
    lower("net.decode_answers_ns_per_query", "ns/query"),
    lower("net.on_wire_us", "us"),
    lower("net.server_us", "us"),
    lower("net.transport_us", "us"),
    lower("net.echo_us", "us"),
    lower("net.health_rtt_us", "us"),
    lower("net.connect_us", "us"),
    lower("net.service_p50_ns", "ns"),
    lower("net.service_p99_ns", "ns"),
    higher("net.frames_per_s", "1/s"),
    higher("net.payload_mb_per_s", "MB/s"),
    higher("net.conns_accepted", "count"),
    lower("net.conns_shed", "count"),
    lower("net.protocol_errors", "count"),
    lower("obs.scrape_ms", "ms"),
    lower("obs.trace_overhead_pct", "pct"),
];

/// Both catalogues, end-to-end first.
pub fn catalogue() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter())
}

/// What the correctness checks of a run found.
#[derive(Default, Clone, Copy)]
pub struct Outcome {
    /// Operations whose output was checked against an oracle.
    pub attempted: u64,
    /// Those that errored or disagreed with it.
    pub failed: u64,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Metric values of one run, by catalogue name.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a value. Panics on a name outside the catalogue, a value set
    /// twice, or a value that is not finite: each is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(catalogue().any(|m| m.name == name), "metric {name} is not in the catalogue");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Prints every metric of `metrics` by name with its unit, then the
    /// driver's result object as the last line. A missing per-layer value is
    /// work the workload does not do and prints 0; a missing or zero
    /// end-to-end value is a bug.
    pub fn print(&self, metrics: &[Metric], outcome: Outcome) {
        let mut json = String::new();
        for m in metrics {
            let value = match (self.get(m.name), m.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric {} was not measured", m.name),
            };
            assert!(m.bound.is_none() || value != 0.0, "end-to-end metric {} is zero", m.name);
            println!("{:<40} {:>18} {}", m.name, format_value(value), m.unit);
            let sep = if json.is_empty() { "" } else { ", " };
            write!(json, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
                .expect("writing to a String");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            outcome.correct(),
            outcome.attempted,
            outcome.failed
        );
    }
}

/// Human-readable value: integers as integers, the rest with 6 significant
/// digits. The result object carries every digit.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        obj.get(key).unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn check_metrics(listed: &Value, ours: &[Metric], keys: usize) {
        let listed = listed.as_array().expect("metric list");
        assert_eq!(listed.len(), ours.len());
        for (entry, m) in listed.iter().zip(ours) {
            assert_eq!(entry.as_object().expect("metric object").len(), keys, "{}", m.name);
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(field(entry, "better").as_str(), Some(m.better), "{}", m.name);
            assert_eq!(entry.get("bound").and_then(Value::as_f64), m.bound, "{}", m.name);
        }
    }

    #[test]
    fn catalogue_equals_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc.as_object().expect("top-level object").len(), 6);
        assert_eq!(field(&doc, "run_seconds").as_f64(), Some(RUN_SECONDS as f64));
        assert_eq!(field(&doc, "paths").as_array().map(Vec::len), Some(1));
        assert_eq!(field(&doc, "paths").as_array().unwrap()[0].as_str(), Some("ledger"));
        let workloads = field(&doc, "workloads").as_array().expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name").as_str(), Some(w.name));
            assert_eq!(field(entry, "why").as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        check_metrics(field(&doc, "end_to_end"), &END_TO_END, 4);
        check_metrics(field(&doc, "per_layer"), &PER_LAYER, 3);
    }

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let legal = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = catalogue().map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for m in catalogue() {
            assert!(legal(m.name, "_.-", 64), "{}", m.name);
            assert!(legal(m.unit, "_/%.-", 16), "{}", m.unit);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn report_and_outcome_keep_their_books() {
        let mut r = Report::default();
        r.set("op_x_floor", 12.345678901234);
        assert_eq!(r.get("op_x_floor"), Some(12.345678901234));
        assert_eq!(r.get("setup_s"), None);
        let mut o = Outcome::default();
        o.check(true);
        o.check(false);
        assert_eq!((o.attempted, o.failed, o.correct()), (2, 1, false));
    }
}
