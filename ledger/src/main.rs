//! `ledger`: the benchmark of record of this repository. It measures every
//! crate from outside — public functions, public cost accounting, the public
//! obs registry — and adds nothing to the program. See `README.md`.

mod calibrate;
mod floor;
mod host;
mod json;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::{Outcome, RUN_SECONDS, WORKLOADS};
use workloads::build::Build;
use workloads::rw::Rw;
use workloads::wire::{Wire, LARGE, SMALL};
use workloads::Args;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--calibrate K]
  --workload NAME   build_forest | build_general | wire_small | wire_large | wire_rw;
                    without it, all five run, each in a child process
  --seed N          every input derives from it (default 1)
  --seconds S       how long the repetitions run (default 20)
  --trace 0|1       1: alternate traced repetitions and print the per-layer metrics
  --quick           1/16 of the time on the same inputs; for the smoke test only
  --calibrate K     K full sets back to back on seeds N, N+1, .., then the same-code table";

/// The command line: a workload's arguments, and which mode to run in.
struct Cli {
    args: Args,
    all: bool,
    calibrate: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        args: Args {
            workload: String::new(),
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            quick: false,
        },
        all: true,
        calibrate: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                cli.args.workload = value()?;
                cli.all = false;
            }
            "--seed" => cli.args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                cli.args.seconds = v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other.to_string())),
                }
            }
            "--quick" => cli.args.quick = true,
            "--calibrate" => {
                let v = value()?;
                cli.calibrate = Some(v.parse().ok().filter(|k| *k >= 2).ok_or_else(|| bad(v))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !cli.all && !WORKLOADS.iter().any(|w| w.name == cli.args.workload) {
        return Err(format!("unknown workload {:?}", cli.args.workload));
    }
    Ok(cli)
}

/// One workload in a child process of its own, so that every run starts from
/// a fresh allocator and page cache state. Returns its stdout, and its result
/// object if it exited with code 0 and printed one.
fn run_child(args: &Args) -> (String, Option<json::Value>) {
    let exe = std::env::current_exe().expect("the path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            &u8::from(args.trace).to_string(),
        ])
        .args(args.quick.then_some("--quick"))
        .stderr(Stdio::inherit());
    let out = cmd.output().expect("a child process starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let result =
        stdout.lines().last().filter(|_| out.status.success()).and_then(|l| json::parse(l).ok());
    (stdout, result)
}

/// All five workloads, each in a child process; then one result object over
/// all of them, its metrics named `workload/metric`.
fn run_all(args: &Args) -> bool {
    let mut total = Outcome::default();
    let mut metrics = Vec::new();
    let mut all_ran = true;
    for w in &WORKLOADS {
        let (stdout, result) = run_child(&Args { workload: w.name.to_string(), ..args.clone() });
        println!("== {} ==", w.name);
        print!("{stdout}");
        let count = |key| result.as_ref().and_then(|r| r.get(key)?.as_f64()).unwrap_or(0.0) as u64;
        total.absorb(Outcome { attempted: count("attempted"), failed: count("failed") });
        let listed = result.as_ref().and_then(|r| r.get("metrics")?.as_object().cloned());
        all_ran &= listed.is_some();
        for (name, m) in listed.unwrap_or_default() {
            let value = m.get("value").and_then(json::Value::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("").to_string();
            metrics.push(format!(
                "\"{}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                w.name
            ));
        }
    }
    let correct = all_ran && total.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.failed,
        metrics.join(", ")
    );
    correct
}

fn run_one(args: &Args) -> bool {
    match args.workload.as_str() {
        "build_forest" => workloads::run(args, |seed| Build::setup(seed, false)),
        "build_general" => workloads::run(args, |seed| Build::setup(seed, true)),
        "wire_small" => workloads::run(args, |seed| Wire::setup(seed, &SMALL)),
        "wire_large" => workloads::run(args, |seed| Wire::setup(seed, &LARGE)),
        "wire_rw" => workloads::run(args, Rw::setup),
        other => unreachable!("parse() admits only catalogue workloads, not {other}"),
    }
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.calibrate {
        Some(sets) => calibrate::run(sets, &cli.args),
        None if cli.all => run_all(&cli.args),
        None => run_one(&cli.args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(words: &[&str]) -> Result<Cli, String> {
        parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_the_shape_the_driver_calls() {
        let c = cli(&["--workload", "wire_rw", "--seed", "7", "--seconds", "20", "--trace", "1"])
            .unwrap();
        assert_eq!((c.args.workload.as_str(), c.args.seed, c.args.seconds), ("wire_rw", 7, 20.0));
        assert!(c.args.trace && !c.args.quick && !c.all && c.calibrate.is_none());
        let c = cli(&[]).unwrap();
        assert!(c.all && !c.args.trace && c.args.seconds == RUN_SECONDS as f64);
        assert_eq!(cli(&["--calibrate", "20", "--quick"]).unwrap().calibrate, Some(20));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--calibrate", "1"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
