//! `--quick` smoke runs of the real binary: 1/16 of the time on the full-size
//! inputs. They check the shape and the exact counts of what a run emits,
//! never its timings; `--quick` is not a source of recorded numbers.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use json::Value;

/// Metric names of one list of `BENCHMARK.json`, in order.
fn catalogue(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
    let metrics = doc.get(list).and_then(Value::as_array).expect("a metric list");
    metrics.iter().map(|m| m.get("name").unwrap().as_str().unwrap().to_string()).collect()
}

/// One quick run; asserts exit code 0, `correct`, `failed == 0`, and that the
/// result object carries exactly the metrics of `list`, once each, finite.
fn quick_run(workload: &str, trace: bool, list: &str) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "20", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the ledger binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{workload} exited with {:?}:\n{stdout}", out.status);
    let result = json::parse(stdout.lines().last().expect("a last line")).expect("a result object");
    let keys: Vec<&str> = result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").unwrap().as_bool(), Some(true), "{workload}");
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0), "{workload}");
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    let metrics: Vec<(String, f64)> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert_eq!(m.as_object().unwrap().len(), 2, "{name}: exactly value and unit");
            assert!(m.get("unit").unwrap().as_str().is_some());
            (name.clone(), m.get("value").unwrap().as_f64().expect("a number"))
        })
        .collect();
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, catalogue(list), "{workload}: the catalogue's names, once each, in order");
    assert!(metrics.iter().all(|(_, v)| v.is_finite()), "{workload}: {metrics:?}");
    // Every metric is also printed by name with its unit, above the object.
    for name in &names {
        assert!(stdout.lines().any(|l| l.starts_with(&format!("{name} "))), "{name} not printed");
    }
    metrics
}

fn exact_counts(metrics: &[(String, f64)]) -> Vec<&(String, f64)> {
    let exact = |name: &str| {
        name == "space_per_input"
            || name.starts_with("core.reads.")
            || name.starts_with("core.shuffle_bytes.")
            || (name.starts_with("ampc.")
                && !["_ms", "ns_per_op", "ns_per_item", "_x_dense"]
                    .iter()
                    .any(|t| name.ends_with(t)))
    };
    metrics.iter().filter(|(n, _)| exact(n)).collect()
}

/// Untraced twice (every end-to-end metric nonzero, `space_per_input`
/// repeating exactly) and traced as often as asked (exact counts repeating).
fn smoke(workload: &str, traced_runs: usize) {
    let first = quick_run(workload, false, "end_to_end");
    assert!(first.iter().all(|(_, v)| *v != 0.0), "{workload}: {first:?}");
    let second = quick_run(workload, false, "end_to_end");
    assert_eq!(exact_counts(&first), exact_counts(&second), "{workload}: one seed, one count");
    assert_eq!(exact_counts(&first).len(), 1);

    let traced: Vec<_> = (0..traced_runs).map(|_| quick_run(workload, true, "per_layer")).collect();
    for run in &traced[1..] {
        assert_eq!(exact_counts(&traced[0]), exact_counts(run), "{workload}: one seed, one count");
    }
    assert_eq!(exact_counts(&traced[0]).len(), 18);
    let value = |name: &str| traced[0].iter().find(|(n, _)| n == name).unwrap().1;
    let is_build = workload.starts_with("build_");
    // A workload prints 0 for work it does not do.
    assert_eq!(value("ampc.rounds") != 0.0, is_build);
    assert_eq!(value("core.pipeline_ms") != 0.0, is_build);
    assert_eq!(value("net.on_wire_us") != 0.0, !is_build);
    assert_eq!(value("serve.insert_us") != 0.0, workload == "wire_rw");
    assert_eq!(value("query.batch_ns_per_query.2p22") != 0.0, workload == "wire_large");
}

#[test]
fn build_forest_smoke() {
    smoke("build_forest", 2);
}

#[test]
fn build_general_smoke() {
    smoke("build_general", 2);
}

#[test]
fn wire_small_smoke() {
    smoke("wire_small", 1);
}

#[test]
fn wire_large_smoke() {
    smoke("wire_large", 1);
}

#[test]
fn wire_rw_smoke() {
    smoke("wire_rw", 1);
}

#[test]
fn an_unknown_workload_is_a_usage_error_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the ledger binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
