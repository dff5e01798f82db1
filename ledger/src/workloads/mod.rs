//! The harness every workload runs under: set-ups, one discarded warm-up,
//! the memory reading, then fixed-work repetitions (op phase, then floor
//! phase) until the time is spent, and the estimators over them.

pub mod build;
pub mod rw;
pub mod wire;

use std::path::PathBuf;
use std::time::Instant;

use ampc::rng::derive_seed;

use crate::host;
use crate::report::{Outcome, Report};
use crate::spans::Spans;
use crate::stats;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/16 of the time on the same inputs: for the smoke test only, never
    /// a source of recorded numbers.
    pub quick: bool,
}

/// How much of everything a run does. Only `loop_seconds` depends on
/// `--seconds`: it decides how many repetitions run, never what one is.
struct Plan {
    /// Seconds of repetitions; the set-ups between them are not counted.
    loop_seconds: f64,
    /// Inputs drawn from the seed, each given an equal share of the loop.
    inputs: usize,
    /// Times each input is set up; the last state is the one measured, and
    /// the first of the first input is the one the warm-up runs on.
    setups_per_input: usize,
    /// Repetitions every input gets at least.
    min_reps: usize,
}

impl Plan {
    fn of(args: &Args) -> Plan {
        if args.quick {
            return Plan {
                loop_seconds: args.seconds / 16.0,
                inputs: 1,
                setups_per_input: 1,
                min_reps: 2,
            };
        }
        if args.trace {
            // A traced run reports no set-up time and wants its exact counts
            // to be those of one input, so it sets up once; and it leaves 40 %
            // of its time to the per-layer probes that follow the loop, so
            // that it ends about when an untraced run does.
            return Plan {
                loop_seconds: args.seconds * 0.6,
                inputs: 1,
                setups_per_input: 1,
                min_reps: 6,
            };
        }
        Plan { loop_seconds: args.seconds, inputs: 4, setups_per_input: 2, min_reps: 3 }
    }
}

/// The seed of a run's `j`-th input. The first is the run's own seed, so a
/// traced run measures the first input of the untraced run beside it.
fn input_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        derive_seed(&[seed, j as u64])
    }
}

/// What one repetition measured.
pub struct Rep {
    /// The repetition's op value in ns: the build, or the median round trip.
    pub op_ns: f64,
    /// The floor measured right after it, in ns.
    pub floor_ns: f64,
    /// Useful work per second of the op phase.
    pub work_per_s: f64,
}

/// Process CPU time against wall time over the op phases. Reads
/// `/proc/self/stat`, so it is enabled in traced runs only.
pub struct CpuMeter {
    enabled: bool,
    open: Option<(Instant, f64)>,
    cpu_s: f64,
    wall_s: f64,
}

impl CpuMeter {
    fn new(enabled: bool) -> Self {
        CpuMeter { enabled, open: None, cpu_s: 0.0, wall_s: 0.0 }
    }

    pub fn begin(&mut self) {
        if self.enabled {
            self.open = Some((Instant::now(), host::cpu_seconds()));
        }
    }

    pub fn end(&mut self) {
        if let Some((t0, cpu0)) = self.open.take() {
            self.wall_s += t0.elapsed().as_secs_f64();
            self.cpu_s += host::cpu_seconds() - cpu0;
        }
    }
}

/// What a repetition is handed.
pub struct Ctx<'a> {
    /// Whether this repetition records spans (they are switched on already).
    pub traced: bool,
    pub spans: &'a mut Spans,
    pub outcome: &'a mut Outcome,
    /// Receives the duration in ns of every timed op of the repetition.
    pub samples: &'a mut Vec<u64>,
    pub cpu: &'a mut CpuMeter,
}

/// What the per-layer pass of a traced run is handed, after all timing.
pub struct Layers<'a> {
    pub args: &'a Args,
    pub spans: &'a Spans,
    pub report: &'a mut Report,
    /// The untraced quiet op in ns, which a budget must add up to.
    pub quiet_op_ns: f64,
    /// Median floor in ns and best work rate of the untraced repetitions.
    pub floor_ns: f64,
    pub work_per_s: f64,
}

/// The state a set-up leaves: everything before the first timed operation,
/// deterministic CPU work on inputs derived from the seed, and no file I/O.
pub trait Workload: Sized {
    /// One fixed piece of work: op phase, floor phase, then the checks.
    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Rep;

    fn space_per_input(&self) -> f64;

    /// Checks that need the state the last repetition left behind.
    fn finish(&mut self, _outcome: &mut Outcome) {}

    /// The workload's per-layer rows and its budget; consumes the state.
    fn layers(self, layers: &mut Layers<'_>);
}

/// `ledger/target/`, where the span file and the persist/boot scratch go.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))
}

/// Runs the workload `setup` sets up from a seed and prints its metrics and
/// the result object. Returns whether every check passed.
pub fn run<W: Workload>(args: &Args, setup: impl Fn(u64) -> W) -> bool {
    let started = Instant::now();
    let plan = Plan::of(args);
    let mut spans = Spans::new(started);
    let mut outcome = Outcome::default();
    let mut cpu = CpuMeter::new(args.trace);

    let mut setups = Vec::new();
    let mut set_up = |seed: u64| {
        let t = Instant::now();
        let state = setup(seed);
        setups.push(t.elapsed().as_secs_f64());
        state
    };
    let mut state = set_up(args.seed);

    // One discarded warm-up: the first build of a process was measured at
    // 2.6 times the steady state. Its checks count; its timings do not.
    let mut discarded = Vec::new();
    state.rep(&mut Ctx {
        traced: false,
        spans: &mut spans,
        outcome: &mut outcome,
        samples: &mut discarded,
        cpu: &mut CpuMeter::new(false),
    });
    // Read here, after a fixed amount of work: consecutive builds in one
    // process raise the high-water mark, so a reading at exit would depend
    // on how many repetitions the time allowed.
    let peak_rss_mib = host::peak_rss_mib();

    // The time between op and floor differs from seed to seed by about a
    // tenth (the general pipeline takes 40 rounds on one graph and 45 on the
    // next), so a run measures several inputs drawn from its seed, one after
    // the other, and averages over them. Each state is dropped before the
    // next is set up (its server and its threads with it), so every set-up
    // has the process to itself; the smallest set-up is reported.
    let mut samples: Vec<u64> = Vec::with_capacity(1 << 21);
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // Per input, the median of its repetitions' paired ratios.
    let mut input_ratios = Vec::with_capacity(plan.inputs);
    // Seconds spent in repetitions; the set-ups between them are not counted.
    let mut loop_s = 0.0;
    let mut i = 0usize;
    for input in 0..plan.inputs {
        let seed = input_seed(args.seed, input);
        if input > 0 {
            state.finish(&mut outcome);
            drop(state);
            state = set_up(seed);
        }
        // An untraced run sets every input up twice, so that `setup_s` is the
        // smallest of eight set-ups, not of four. (The first state of the
        // first input has run the warm-up by now; the others go unused.)
        for _ in 1..plan.setups_per_input {
            drop(state);
            state = set_up(seed);
        }
        let ends_at = plan.loop_seconds * (input + 1) as f64 / plan.inputs as f64;
        let first = untraced.len();
        let mut on_this_input = 0;
        while on_this_input < plan.min_reps || loop_s < ends_at {
            // Traced runs alternate, so both kinds see the same stretch of host.
            let trace_this = args.trace && i % 2 == 1;
            spans.set(trace_this, i as u32);
            discarded.clear();
            let t = Instant::now();
            let rep = state.rep(&mut Ctx {
                traced: trace_this,
                spans: &mut spans,
                outcome: &mut outcome,
                samples: if trace_this { &mut discarded } else { &mut samples },
                cpu: &mut cpu,
            });
            loop_s += t.elapsed().as_secs_f64();
            if trace_this { &mut traced } else { &mut untraced }.push(rep);
            i += 1;
            on_this_input += 1;
        }
        let ratios: Vec<f64> = untraced[first..].iter().map(|r| r.op_ns / r.floor_ns).collect();
        input_ratios.push(stats::median(&ratios));
    }
    spans.set(false, 0);
    state.finish(&mut outcome);

    let ops: Vec<f64> = untraced.iter().map(|r| r.op_ns).collect();
    let quiet_op_ns = stats::quiet(&ops);
    let rates: Vec<f64> = untraced.iter().map(|r| r.work_per_s).collect();
    let best_work_per_s = stats::best_rate(&rates);
    let mut report = Report::default();
    if args.trace {
        let all = stats::sorted_ns(&samples);
        let (tail_pct, tail_ns) = stats::tail(&all);
        let floors: Vec<f64> = untraced.iter().chain(&traced).map(|r| r.floor_ns).collect();
        report.set("run.repetitions", i as f64);
        report.set("run.ops", all.len() as f64);
        report.set("run.op_quiet_us", quiet_op_ns / 1e3);
        report.set("run.work_per_s", best_work_per_s);
        report.set("run.op_p50_us", stats::percentile(&all, 50.0) / 1e3);
        report.set("run.op_tail_us", tail_ns / 1e3);
        report.set("run.op_tail_pct", tail_pct);
        report.set("run.op_max_us", all.last().copied().unwrap_or(0.0) / 1e3);
        report.set("run.floor_us", stats::median(&floors) / 1e3);
        report.set("run.error_rate", outcome.failed as f64 / outcome.attempted.max(1) as f64);
        report.set("run.rss_end_mb", host::rss_mib());
        report.set("run.cpu_per_wall", if cpu.wall_s > 0.0 { cpu.cpu_s / cpu.wall_s } else { 0.0 });
        let traced_ops: Vec<f64> = traced.iter().map(|r| r.op_ns).collect();
        report
            .set("obs.trace_overhead_pct", (stats::quiet(&traced_ops) / quiet_op_ns - 1.0) * 100.0);
        println!("== per-layer rows and budget of {} (traced run) ==", args.workload);
        state.layers(&mut Layers {
            args,
            spans: &spans,
            report: &mut report,
            quiet_op_ns,
            floor_ns: stats::median(&floors),
            work_per_s: best_work_per_s,
        });
        let path = scratch_dir().join(format!("ledger-spans-{}.jsonl", args.workload));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", spans.spans().len(), path.display()),
            Err(e) => println!("spans: not written to {}: {e}", path.display()),
        }
    } else {
        report.set("setup_s", stats::quiet(&setups));
        // Per input the median, not a lower quartile: on `wire_rw` op and
        // floor each have a fast and a slow scheduler placement, and the
        // pairs of fast op and slow floor make up about a quarter of the
        // repetitions. Over the inputs the mean: their ratios fall into
        // clusters, and a median of four would jump between them.
        report.set("op_x_floor", stats::mean(&input_ratios));
        report.set("peak_rss_mb", peak_rss_mib);
        report.set("space_per_input", state.space_per_input());
        drop(state);
    }

    let why = crate::report::WORKLOADS.iter().find(|w| w.name == args.workload).map(|w| w.why);
    println!("why: {}", why.unwrap_or("not a catalogue workload"));
    println!("{}", host::host_line());
    println!(
        "run: workload={} seed={} seconds={} trace={} quick={}; set-ups={} ({}); \
         repetitions={} untraced + {} traced in {:.2} s; ops={}; quiet op {:.2} us, best \
         work rate {:.1} /s, median floor {:.2} us (wall clock, not gated); total {:.2} s; \
         storage write_bytes={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        setups.len(),
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" "),
        untraced.len(),
        traced.len(),
        loop_s,
        samples.len(),
        quiet_op_ns / 1e3,
        best_work_per_s,
        stats::median(&untraced.iter().map(|r| r.floor_ns).collect::<Vec<_>>()) / 1e3,
        started.elapsed().as_secs_f64(),
        host::storage_write_bytes(),
    );
    let metrics: &[_] =
        if args.trace { &crate::report::PER_LAYER } else { &crate::report::END_TO_END };
    report.print(metrics, outcome);
    outcome.correct()
}
