//! Smoke test of the `ampc-cc` binary: run it on a tiny bundled edge list
//! in every mode and assert a clean exit plus the correct component count.

use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use adaptive_mpc_connectivity::graph::generators::erdos_renyi_gnm;
use adaptive_mpc_connectivity::graph::io as graph_io;

fn run(args: &[&str]) -> std::process::Output {
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt");
    Command::new(exe).arg(data).args(args).output().expect("failed to spawn ampc-cc")
}

/// The bundled graph: path 0-1-2-3, triangle 4-5-6, isolated 7.
const EXPECTED_COMPONENTS: usize = 3;

#[test]
fn cli_modes_exit_cleanly_with_correct_count() {
    // The triangle makes the graph non-forest, so --forest is exercised on
    // the forest subset via --auto dispatch; run it only on the two modes
    // that accept a cyclic input, plus --auto.
    for mode in ["--general", "--auto"] {
        let out = run(&[mode, "--seed", "7"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{mode}: exit {:?}\n{stderr}", out.status.code());
        assert!(
            stderr.contains(&format!("components = {EXPECTED_COMPONENTS}")),
            "{mode}: wrong component count\n{stderr}"
        );
    }
}

#[test]
fn cli_forest_mode_on_forest_input() {
    // --forest requires acyclic input, so this uses the bundled
    // forest-only fixture rather than the triangle-bearing smoke graph.
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke_forest.txt");
    let out = Command::new(exe)
        .arg(&data)
        .args(["--forest", "--seed", "7"])
        .output()
        .expect("failed to spawn ampc-cc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--forest: exit {:?}\n{stderr}", out.status.code());
    assert!(stderr.contains("components = 3"), "--forest: wrong count\n{stderr}");
    assert!(stderr.contains("algorithm: 1"), "--forest must use Algorithm 1\n{stderr}");
}

#[test]
fn cli_forest_mode_refuses_a_cyclic_input() {
    // The smoke graph has a triangle: `--forest` is refused before any round
    // runs, in every subcommand that builds, as one line naming the flag.
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt");
    for sub in [None, Some("serve"), Some("query")] {
        let out = Command::new(exe)
            .args(sub)
            .arg(&data)
            .arg("--forest")
            .output()
            .expect("failed to spawn ampc-cc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sub:?} --forest: {stderr}");
        assert!(!stderr.contains("panicked"), "{sub:?} --forest panicked\n{stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{sub:?}: one error line\n{stderr}");
        assert!(
            errors[0].starts_with("error: --forest: ") && errors[0].contains("cycle"),
            "{stderr}"
        );
    }
}

#[test]
fn cli_auto_dispatches_by_input_shape() {
    let out = run(&["--auto"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The smoke graph has a triangle → not a forest → Algorithm 2.
    assert!(stderr.contains("algorithm: 2"), "auto on cyclic input\n{stderr}");

    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke_forest.txt");
    let out = Command::new(exe).arg(&data).arg("--auto").output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("algorithm: 1"), "auto on forest input\n{stderr}");
}

#[test]
fn cli_labels_output_is_a_valid_labeling() {
    let out = run(&["--general", "--labels"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let labels: Vec<(usize, u64)> = stdout
        .lines()
        .map(|l| {
            let mut it = l.split_whitespace();
            (it.next().unwrap().parse().unwrap(), it.next().unwrap().parse().unwrap())
        })
        .collect();
    assert_eq!(labels.len(), 8);
    // Path component together, triangle together, isolated vertex alone.
    assert_eq!(labels[0].1, labels[3].1);
    assert_eq!(labels[4].1, labels[6].1);
    assert_ne!(labels[0].1, labels[4].1);
    assert_ne!(labels[7].1, labels[0].1);
    assert_ne!(labels[7].1, labels[4].1);
}

#[test]
fn cli_labels_are_byte_identical_across_run_query_and_boot() {
    // Three print paths: the run's labeling, a live epoch's index and a
    // booted one's. Each prints the canonical form of the same partition.
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let snap = std::env::temp_dir().join(format!("ampc_cli_labels_{}.snap", std::process::id()));
    let snap_str = snap.to_str().unwrap();
    let ran = run(&["--seed", "7", "--labels", "--persist", snap_str]);
    assert!(ran.status.success(), "run: {}", String::from_utf8_lossy(&ran.stderr));
    let live = run_query(&["--seed", "7", "--queries", "10", "--labels"]);
    let booted = Command::new(exe)
        .args(["query", "--from-snapshot", snap_str, "--queries", "10", "--labels"])
        .output()
        .expect("spawn");
    std::fs::remove_file(&snap).ok();
    assert_eq!(String::from_utf8_lossy(&ran.stdout).lines().count(), 8);
    for (what, out) in [("query", live), ("query --from-snapshot", booted)] {
        assert!(out.status.success(), "{what}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, ran.stdout, "{what} --labels differs from run --labels");
    }
}

#[test]
fn cli_rejects_bad_usage() {
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let out = Command::new(exe).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "missing file must exit 2");
    let out = Command::new(exe).args(["x.txt", "--bogus"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    // `serve` prints no report and persists nothing: a flag it would parse
    // and never honor is a usage error, not a server that silently ignores it.
    for flag in
        [&["--persist", "x.snap"][..], &["--labels"], &["--json"], &["--trace"], &["--metrics"]]
    {
        let status = Server::spawn(flag).wait_bounded(20);
        assert_eq!(status.and_then(|s| s.code()), Some(2), "serve {flag:?} must exit 2");
    }
    // A flag of another subcommand is a usage error that names it — never
    // the input file, never a silently ignored option.
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt");
    let data = data.to_str().unwrap();
    for args in [&["--shutdown"][..], &["--top", "3", data], &["serve", data, "--queries", "5"]] {
        let out = Command::new(exe).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2\n{stderr}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(stderr.contains(&format!("error: {flag} is a query option")), "{args:?}\n{stderr}");
    }
    // A frame the server would refuse as oversized is a usage error, found
    // before the graph is read (a missing graph file is exit 1, as the
    // largest batch that fits shows).
    for (batch, code) in [("87382", 2), ("87381", 1)] {
        let args =
            ["query", "/definitely/missing.txt", "--connect", "127.0.0.1:1", "--batch", batch];
        let out = Command::new(exe).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "--connect --batch {batch}\n{stderr}");
    }
    // `--machines 0` used to reach `AmpcConfig::with_machines`' assert (exit 101).
    let out = Command::new(exe).args([data, "--machines", "0"]).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--machines 0 must exit 2\n{stderr}");
    assert!(stderr.contains("--machines must be positive"), "{stderr}");
    // `--k 0` would run Theorem 1.2 with `log^(0) n = n`: a space budget
    // quadratic in `n`.
    let out = Command::new(exe).args([data, "--k", "0"]).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--k 0 must exit 2\n{stderr}");
    assert!(stderr.contains("--k must be positive"), "{stderr}");
    // Inside `query` too: a flag that another of its flags makes it skip is
    // a usage error that names both.
    let qfile = std::env::temp_dir().join(format!("ampc_cli_usage_{}.txt", std::process::id()));
    std::fs::write(&qfile, "connected 0 3\nsize 4\n").unwrap();
    let q = qfile.to_str().unwrap();
    for (args, named) in [
        (
            &["--query-file", q, "--mix", "zipf", "--queries", "5"][..],
            &["--mix", "--query-file"][..],
        ),
        (&["--queries", "5", "--query-file", q], &["--queries", "--query-file"]),
        (&["--stream-batch", "9"], &["--stream-batch", "--stream"]),
        (&["--labels", "--json"], &["--labels", "--json"]),
        (&["--labels", "--connect", "127.0.0.1:1"], &["--labels", "--connect"]),
    ] {
        let out = Command::new(exe).args(["query", data]).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "query {args:?} must exit 2\n{stderr}");
        for flag in named {
            assert!(stderr.contains(flag), "query {args:?} must name {flag}\n{stderr}");
        }
    }
    std::fs::remove_file(&qfile).ok();
}

#[test]
fn cli_rejects_a_nodes_header_outside_the_id_space() {
    // The declared count sizes the CSR before any edge is read: this header
    // used to abort on a 32 GiB allocation (exit 134). It is bad input, exit 1.
    let graph = std::env::temp_dir().join(format!("ampc_cli_header_{}.txt", std::process::id()));
    std::fs::write(&graph, "# nodes: 4294967297\n0 1\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ampc-cc")).arg(&graph).output().expect("spawn");
    std::fs::remove_file(&graph).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 1: nodes header 4294967297"), "{stderr}");
}

#[test]
fn cli_backend_grammar() {
    // Every backend spelling must run cleanly and report the same
    // component count (backends never change results); dense:4 forces the
    // overflow path even on the tiny smoke graph.
    for backend in ["flat", "dense", "dense:4"] {
        let out = run(&["--general", "--seed", "7", "--backend", backend]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--backend {backend}: exit {:?}\n{stderr}", out.status);
        let short = backend.split(':').next().unwrap();
        assert!(
            stderr.contains(&format!("dht backend: {short}")),
            "--backend {backend}: wrong backend reported\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("components = {EXPECTED_COMPONENTS}")),
            "--backend {backend}: wrong component count\n{stderr}"
        );
    }
    // Malformed specs are usage errors; so is the in-library sharded store,
    // which no spelling selects any more.
    for backend in ["dense:0", "dense:x", "sharded", "sharded:4", "bogus"] {
        let out = run(&["--backend", backend]);
        assert_eq!(out.status.code(), Some(2), "--backend {backend} must exit 2");
    }
}

/// The unsigned integer at `"key": N`, looked up after the first occurrence
/// of `section` (the file parses its JSON by substring, like every assert
/// here).
fn json_u64(json: &str, section: &str, key: &str) -> u64 {
    let from = json.find(section).unwrap_or_else(|| panic!("no {section} in\n{json}"));
    let field = format!("\"{key}\": ");
    let at = from + json[from..].find(&field).unwrap_or_else(|| panic!("no {key} in\n{json}"));
    let digits: String =
        json[at + field.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} is not an unsigned integer in\n{json}"))
}

fn run_query(args: &[&str]) -> std::process::Output {
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt");
    Command::new(exe).arg("query").arg(data).args(args).output().expect("failed to spawn ampc-cc")
}

#[test]
fn cli_query_mix_grammar_and_validation() {
    // Every mix spelling runs the serving path end to end: pipeline →
    // index → workload → per-answer union-find validation → throughput.
    for mix in ["uniform", "zipf", "zipf:0.9", "cross"] {
        let out = run_query(&["--seed", "7", "--queries", "2000", "--mix", mix, "--top", "2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--mix {mix}: exit {:?}\n{stderr}", out.status.code());
        assert!(
            stderr.contains("validated: 2000/2000 answers match the union-find reference"),
            "--mix {mix}: missing validation line\n{stderr}"
        );
        assert!(stderr.contains("throughput:"), "--mix {mix}: missing throughput\n{stderr}");
        assert!(stderr.contains("top 2 components"), "--mix {mix}: missing top-k\n{stderr}");
    }
    // Malformed query flags are usage errors.
    for bad in
        [&["--mix", "bogus"][..], &["--mix", "zipf:x"], &["--batch", "0"], &["--queries", "x"]]
    {
        let out = run_query(bad);
        assert_eq!(out.status.code(), Some(2), "query {bad:?} must exit 2");
    }
    // Query flags are rejected outside the query subcommand.
    let out = run(&["--mix", "uniform"]);
    assert_eq!(out.status.code(), Some(2), "--mix without the query subcommand must exit 2");
}

#[test]
fn cli_query_honors_pipeline_flags() {
    // --trace/--metrics/--labels are pipeline options and must work under
    // the query subcommand too.
    let out = run_query(&["--seed", "7", "--queries", "100", "--trace", "--metrics", "--labels"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "query with pipeline flags failed\n{stderr}");
    assert!(stderr.contains("metrics: components = 3"), "missing metrics line\n{stderr}");
    assert!(stderr.contains("round"), "missing trace ledger\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 8, "expected one label line per vertex\n{stdout}");
}

#[test]
fn cli_query_threads_reports_per_thread_and_reproducible_totals() {
    // The multi-threaded driver stripes the stream deterministically, so
    // the checksum must be identical at every thread count — and the text
    // report must carry one row per thread plus the aggregate.
    let base = run_query(&["--seed", "7", "--queries", "4000", "--threads", "3"]);
    let stderr = String::from_utf8_lossy(&base.stderr);
    assert!(base.status.success(), "--threads 3: exit {:?}\n{stderr}", base.status.code());
    assert!(stderr.contains("threads = 3"), "missing thread count\n{stderr}");
    for t in 0..3 {
        assert!(stderr.contains(&format!("thread {t}")), "missing per-thread row {t}\n{stderr}");
    }

    let checksum_of = |out: &std::process::Output| -> String {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.contains("\"checksum\""))
            .unwrap_or_else(|| panic!("no checksum in JSON\n{stdout}"))
            .to_string();
        line
    };
    let one = run_query(&["--seed", "7", "--queries", "4000", "--threads", "1", "--json"]);
    assert!(one.status.success());
    let four = run_query(&["--seed", "7", "--queries", "4000", "--threads", "4", "--json"]);
    assert!(four.status.success());
    assert_eq!(checksum_of(&one), checksum_of(&four), "checksum must not depend on --threads");
    let stdout = String::from_utf8_lossy(&four.stdout);
    assert!(stdout.contains("\"threads\": 4"), "missing threads field\n{stdout}");
    assert!(stdout.contains("\"thread\": 3"), "missing per-thread JSON rows\n{stdout}");

    // Zero or malformed thread counts are usage errors; --threads is
    // query-only like the other workload flags.
    for bad in [&["--threads", "0"][..], &["--threads", "x"]] {
        let out = run_query(bad);
        assert_eq!(out.status.code(), Some(2), "query {bad:?} must exit 2");
    }
    let out = run(&["--threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "--threads without the query subcommand must exit 2");
}

#[test]
fn cli_query_file_answers_are_reported() {
    let dir = std::env::temp_dir().join("ampc_cli_query_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, "# smoke queries\nconnected 0 3\nconnected 0 4\nsize 4\ntopk 1\n")
        .unwrap();
    let out = run_query(&["--query-file", qfile.to_str().unwrap(), "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "query file run failed\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"queries\": 4"), "wrong query count\n{stdout}");
    // connected(0,3)=1 + connected(0,4)=0 + size(4)=3 + topk(1)=4 ⇒ checksum 8.
    assert!(stdout.contains("\"checksum\": 8"), "wrong checksum\n{stdout}");
    let out = run_query(&["--query-file", "/definitely/missing.txt"]);
    assert_eq!(out.status.code(), Some(1), "missing query file must fail");
    std::fs::remove_file(&qfile).ok();
}

#[test]
fn cli_query_stream_validates_journal_epochs() {
    // --stream drives the incremental journal-epoch path: insertion batches
    // published without a rebuild, each validated against a from-scratch
    // union-find oracle.
    let out = run_query(&[
        "--seed",
        "7",
        "--queries",
        "500",
        "--stream",
        "3",
        "--stream-batch",
        "8",
        "--json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--stream: exit {:?}\n{stderr}", out.status.code());
    assert!(
        stderr.contains("streaming: 3 batches × 8 edges"),
        "missing streaming summary\n{stderr}"
    );
    assert!(stderr.contains("all answers match the oracle"), "missing oracle validation\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"streaming\": {"), "missing streaming JSON\n{stdout}");
    assert!(stdout.contains("\"final_epoch\": 3"), "3 batches must publish 3 epochs\n{stdout}");

    // Grammar: malformed or misplaced stream flags are usage errors.
    for bad in [&["--stream", "x"][..], &["--stream-batch", "0"], &["--stream-batch", "y"]] {
        let out = run_query(bad);
        assert_eq!(out.status.code(), Some(2), "query {bad:?} must exit 2");
    }
    let out = run(&["--stream", "2"]);
    assert_eq!(out.status.code(), Some(2), "--stream without the query subcommand must exit 2");
}

#[test]
fn cli_persist_then_boot_from_snapshot() {
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt");
    let snap = std::env::temp_dir().join(format!("ampc_cli_smoke_{}.snap", std::process::id()));
    let snap_str = snap.to_str().unwrap();

    // run --persist writes the snapshot after verification.
    let out = run(&["--general", "--seed", "7", "--persist", snap_str]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--persist: exit {:?}\n{stderr}", out.status.code());
    assert!(stderr.contains("persisted:"), "missing persist line\n{stderr}");
    assert!(snap.exists(), "snapshot file must exist");

    // An armed persist failpoint fails the run with a typed error and leaves
    // the file of the previous persist intact (the boots below read it).
    let before = std::fs::read(&snap).unwrap();
    let out =
        run(&["--general", "--seed", "8", "--persist", snap_str, "--fail", "persist.pre-rename"]);
    assert_eq!(out.status.code(), Some(1), "an injected persist fault must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected fault at failpoint"), "untyped failure\n{stderr}");
    assert_eq!(std::fs::read(&snap).unwrap(), before, "a failed persist must not touch the file");

    // A live query run fixes the reference checksum for this seed.
    let live = run_query(&["--seed", "7", "--queries", "500", "--json"]);
    assert!(live.status.success());
    let checksum_line = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.contains("\"checksum\""))
            .expect("checksum line")
            .to_string()
    };
    let live_checksum = checksum_line(&live);

    // Boot without the graph file: no pipeline, checksum-validated only,
    // but byte-identical answers.
    let out = Command::new(exe)
        .args(["query", "--from-snapshot", snap_str, "--seed", "7", "--queries", "500", "--json"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "boot: exit {:?}\n{stderr}", out.status.code());
    assert!(stderr.contains("booted from snapshot"), "missing boot line\n{stderr}");
    assert!(stderr.contains("validation: skipped"), "missing skip notice\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"from_snapshot\": true"), "missing snapshot marker\n{stdout}");
    assert_eq!(checksum_line(&out), live_checksum, "booted answers must equal live answers");

    // Boot *with* the graph file: full per-answer union-find validation.
    let out = Command::new(exe)
        .args(["query"])
        .arg(&data)
        .args(["--from-snapshot", snap_str, "--seed", "7", "--queries", "500", "--json"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "boot+file: exit {:?}\n{stderr}", out.status.code());
    assert!(
        stderr.contains("validated: 500/500 answers match the union-find reference"),
        "boot+file must fully validate\n{stderr}"
    );
    assert_eq!(checksum_line(&out), live_checksum, "boot+file answers must equal live answers");

    // A truncated or corrupted snapshot is a typed load error (exit 1, not a
    // panic), and --stream needs the edge list a snapshot does not carry.
    let mut bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..100]).unwrap();
    let out = Command::new(exe)
        .args(["query", "--from-snapshot", snap_str, "--queries", "10"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "truncated snapshot must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot truncated"), "must say truncated\n{stderr}");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    std::fs::write(&snap, &bytes).unwrap();
    let out = Command::new(exe)
        .args(["query", "--from-snapshot", snap_str, "--queries", "10"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "corrupt snapshot must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum"), "must blame a checksum\n{stderr}");
    let out = Command::new(exe)
        .args(["query", "--from-snapshot", snap_str, "--stream", "2"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "--stream without a graph file must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--stream needs the graph file"), "wrong diagnosis\n{stderr}");
    std::fs::remove_file(&snap).ok();

    // Grammar: the flags are mode-specific.
    let out = run(&["--from-snapshot", "x.snap"]);
    assert_eq!(out.status.code(), Some(2), "--from-snapshot outside query must exit 2");
    let out = run_query(&["--persist", "x.snap"]);
    assert_eq!(out.status.code(), Some(2), "--persist under query must exit 2");
    let out = Command::new(exe)
        .args(["query", "--from-snapshot", "/definitely/missing.snap"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "missing snapshot must exit 1");
}

#[test]
fn cli_query_metrics_json_and_trace_grammar() {
    // The --json metrics object has a stable schema: every catalog entry
    // appears (counters, gauges, histogram summaries), and the pipeline +
    // serving counters are live after a real run.
    let out = run_query(&["--seed", "7", "--queries", "1000", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "query --json: exit {:?}\n{stderr}", out.status.code());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for field in [
        "\"metrics\": {",
        "\"counters\": {",
        "\"gauges\": {",
        "\"histograms\": {",
        "\"ampc_rounds_total\":",
        "\"serve_epochs_published_total\":",
        "\"query_latency_ns\": { \"count\": 1000,",
        "\"latency\": { \"queries\": 1000,",
        "\"p999_ns\":",
    ] {
        assert!(stdout.contains(field), "missing {field}\n{stdout}");
    }
    assert!(!stdout.contains("\"trace\": ["), "trace array needs --trace N\n{stdout}");
    assert!(stderr.contains("latency: p50 = "), "missing latency line\n{stderr}");
    let lat =
        ["p50_ns", "p99_ns", "p999_ns", "max_ns"].map(|k| json_u64(&stdout, "\"latency\"", k));
    assert!(lat[0] > 0 && lat.windows(2).all(|w| w[0] <= w[1]), "quantiles out of order: {lat:?}");

    // The smoke graph is solved without executing a round; on one big
    // enough to execute rounds the pipeline counters must be live too.
    let graph = std::env::temp_dir().join(format!("ampc_cli_obs_{}.txt", std::process::id()));
    graph_io::save(&erdos_renyi_gnm(500, 900, 9), &graph).unwrap();
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let out = Command::new(exe)
        .arg("query")
        .arg(&graph)
        .args(["--seed", "7", "--queries", "1000", "--json"])
        .output()
        .expect("spawn");
    std::fs::remove_file(&graph).ok();
    assert!(out.status.success(), "query on the generated graph failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(json_u64(&stdout, "\"counters\"", "ampc_rounds_total") > 0, "no rounds\n{stdout}");

    // --trace N dumps the last N trace events (JSON array / stderr text);
    // bare --trace keeps the round-ledger behavior.
    let out = run_query(&["--seed", "7", "--queries", "100", "--trace", "4", "--json"]);
    assert!(out.status.success(), "--trace 4 --json failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"trace\": ["), "missing trace array\n{stdout}");
    assert!(stdout.contains("\"kind\": \"epoch_published\""), "missing publish event\n{stdout}");
    let out = run_query(&["--seed", "7", "--queries", "100", "--trace", "3", "--metrics"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--trace 3: exit {:?}\n{stderr}", out.status.code());
    assert!(stderr.contains("trace: last "), "missing trace dump\n{stderr}");
    assert!(stderr.contains("epoch_published"), "missing publish event\n{stderr}");
    assert!(stderr.contains("process metrics:"), "missing metrics table\n{stderr}");
    assert!(stderr.contains("query_latency_ns"), "missing latency row\n{stderr}");
}

#[test]
fn cli_json_run_output_is_machine_readable() {
    let out = run(&["--general", "--seed", "7", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One object carrying the labeling and the RunStats headline numbers.
    for field in [
        "\"n\": 8",
        "\"m\": 6",
        "\"algorithm\": 2",
        "\"components\": 3",
        "\"rounds\":",
        "\"bytes_shuffled\":",
        "\"metrics\": {",
        "\"ampc_bytes_shuffled_total\":",
        "\"labels\": [",
    ] {
        assert!(stdout.contains(field), "missing {field}\n{stdout}");
    }
    // The canonical labels of the smoke graph: path 0-1-2-3, triangle
    // 4-5-6, isolated 7.
    assert!(stdout.contains("[0, 0, 0, 0, 4, 4, 4, 7]"), "wrong labels\n{stdout}");

    // Each `per_round` object carries one count per quantity. The smoke
    // graph fits one machine and runs no round, so take the forest, which does.
    let exe = env!("CARGO_BIN_EXE_ampc-cc");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke_forest.txt");
    let out = Command::new(exe).arg(data).args(["--forest", "--json"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.contains("\"per_round\": ["))
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .collect();
    assert!(!rows.is_empty(), "no per_round rows\n{stdout}");
    for row in rows {
        // Every quoted string is a key except `name`'s value, which follows it.
        let mut keys: Vec<&str> = row.split('"').skip(1).step_by(2).collect();
        let name_at = keys.iter().position(|k| *k == "name").expect("a name");
        keys.remove(name_at + 1);
        assert_eq!(
            keys,
            [
                "index",
                "name",
                "reads",
                "writes",
                "snapshot_entries",
                "total_space_words",
                "bytes_shuffled"
            ],
            "{row}"
        );
    }
}

/// A spawned `ampc-cc serve tests/data/smoke.txt`, killed when dropped so
/// that a failed assertion or a timeout leaves no server behind.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

impl Server {
    fn spawn(args: &[&str]) -> Server {
        let exe = env!("CARGO_BIN_EXE_ampc-cc");
        let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt");
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg(data).args(args).stdout(Stdio::null()).stderr(Stdio::null());
        Server(cmd.spawn().expect("failed to spawn ampc-cc serve"))
    }

    /// Spawns with `--port-file` and blocks until the file appears — it is
    /// renamed into place, whole, only once the listener is live. Returns the
    /// bound address.
    fn spawn_listening(args: &[&str], port_file: &Path) -> (Server, String) {
        let server = Server::spawn(&[args, &["--port-file", port_file.to_str().unwrap()]].concat());
        (server, Server::wait_for_port_file(port_file))
    }

    fn wait_for_port_file(port_file: &Path) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::fs::read_to_string(port_file) {
                Ok(text) => return text.trim().to_string(),
                _ if Instant::now() >= deadline => panic!("serve never wrote its --port-file"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// The exit status, if the server exits within `secs` seconds.
    fn wait_bounded(&mut self, secs: u64) -> Option<ExitStatus> {
        for _ in 0..secs * 50 {
            if let Some(status) = self.0.try_wait().expect("try_wait") {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        None
    }
}

#[test]
fn cli_serve_answers_the_connect_harness_over_loopback() {
    let port_file = std::env::temp_dir().join(format!("ampc_cli_port_{}.txt", std::process::id()));
    let (mut server, addr) = Server::spawn_listening(&["--workers", "2"], &port_file);

    // Closed-loop harness: the wire checksum must equal the local oracle's.
    let out = run_query(&["--connect", &addr, "--threads", "2", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--connect: exit {:?}\n{stderr}", out.status.code());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"checksum_matches_oracle\": true"), "wrong answers\n{stdout}");
    assert!(stdout.contains("\"state\": \"healthy\""), "server not healthy\n{stdout}");
    for section in ["\"latency\"", "\"service\""] {
        let q = ["p50_ns", "p99_ns", "p999_ns"].map(|k| json_u64(&stdout, section, k));
        assert!(q[0] > 0 && q[0] <= q[1] && q[1] <= q[2], "{section} quantiles {q:?}\n{stdout}");
    }

    // More workers than queries: a worker whose stripe is empty opens no
    // connection (28 idle ones would crowd the admission queue the four
    // working ones need), so the server serves those four and the control
    // connection, and the answers sum to what one in-process thread gets.
    let idle_port = port_file.with_extension("idle");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ampc-cc"));
    cmd.arg("serve").arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/smoke.txt"));
    cmd.args(["--port-file", idle_port.to_str().unwrap()]);
    let mut quiet = Server(cmd.stdout(Stdio::null()).stderr(Stdio::piped()).spawn().unwrap());
    let idle_addr = Server::wait_for_port_file(&idle_port);
    let few = ["--seed", "7", "--queries", "4", "--json"];
    let out = run_query(
        &[&few[..], &["--connect", &idle_addr, "--threads", "32", "--shutdown"]].concat(),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "idle workers: exit {:?}\n{stderr}", out.status.code());
    let checksum = |out: &std::process::Output| {
        json_u64(&String::from_utf8_lossy(&out.stdout), "\"per_thread\"", "checksum")
    };
    assert_eq!(checksum(&out), checksum(&run_query(&few)), "four answers, one checksum");
    assert!(quiet.wait_bounded(30).is_some_and(|s| s.success()), "server exit");
    std::fs::remove_file(&idle_port).ok();
    let mut log = String::new();
    std::io::Read::read_to_string(quiet.0.stderr.as_mut().unwrap(), &mut log).unwrap();
    assert!(log.contains("server stopped: 5 connections served"), "idle connections?\n{log}");

    // A client-side wire fault is a typed error and a nonzero exit, and the
    // server keeps serving afterwards.
    let out = run_query(&["--connect", &addr, "--fail", "net.write"]);
    assert_eq!(out.status.code(), Some(1), "an injected wire fault must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected fault at failpoint"), "untyped failure\n{stderr}");

    // Orderly remote shutdown: the server process exits cleanly.
    let out = run_query(&["--connect", &addr, "--queries", "100", "--shutdown"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--shutdown: exit {:?}\n{stderr}", out.status.code());
    let status = server.wait_bounded(30);
    std::fs::remove_file(&port_file).ok();
    assert!(status.is_some_and(|s| s.success()), "server did not exit cleanly: {status:?}");

    // `serve <file> --from-snapshot <truncated>` boots through the fallback
    // chain: it builds from the file, listens, answers correctly, and the
    // failed snapshot boot is the one incident the Health opcode reports.
    let snap = std::env::temp_dir().join(format!("ampc_cli_trunc_{}.snap", std::process::id()));
    std::fs::write(&snap, b"AMPCSNAP").expect("write truncated snapshot");
    let (mut server, addr) =
        Server::spawn_listening(&["--from-snapshot", snap.to_str().unwrap()], &port_file);
    let out = run_query(&["--connect", &addr, "--queries", "100", "--json", "--shutdown"]);
    let status = server.wait_bounded(30);
    std::fs::remove_file(&port_file).ok();
    std::fs::remove_file(&snap).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fallback boot: exit {:?}\n{stdout}", out.status.code());
    assert!(stdout.contains("\"checksum_matches_oracle\": true"), "wrong answers\n{stdout}");
    assert_eq!(json_u64(&stdout, "\"health\"", "total_incidents"), 1, "boot incident\n{stdout}");
    assert!(status.is_some_and(|s| s.success()), "server did not exit cleanly: {status:?}");
}
