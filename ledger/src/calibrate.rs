//! `--calibrate K`: the same-code check. K full sets (every workload once,
//! untraced, each in a fresh process) back to back, set `i` on seed
//! `--seed + i`: the driver runs every workload ten times, each time on
//! another seed, and does that twice. Then, per (metric, workload), the
//! spread of the K values and how far the second half's median is from the
//! first half's — the two things the driver holds against a metric's bound
//! before it accepts a benchmark.

use std::collections::BTreeMap;

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats;
use crate::workloads::Args;

/// How much worse `second` is than `first`, as a share of `first`.
fn worse_by(better: &str, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        0.0
    } else if better == "lower" {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// Runs the sets and prints the table as markdown. True iff every run was
/// correct and every pair keeps its half-to-half drift and its spread within
/// its bound: the driver's rule, which leaves the spread of `setup_s` out.
pub fn run(sets: usize, args: &Args) -> bool {
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let seed = args.seed + set as u64;
            let child =
                Args { workload: workload.name.to_string(), trace: false, seed, ..args.clone() };
            let (_, result) = crate::run_child(&child);
            let correct = result.as_ref().and_then(|r| r.get("correct")?.as_bool()) == Some(true);
            all_correct &= correct;
            eprintln!("calibrate: set {}/{sets} {} correct={correct}", set + 1, workload.name);
            for (m, metric) in END_TO_END.iter().enumerate() {
                let value = result
                    .as_ref()
                    .and_then(|r| r.get("metrics")?.get(metric.name)?.get("value")?.as_f64());
                values.entry((w, m)).or_default().extend(value);
            }
        }
    }

    println!(
        "| workload | metric | median | q1 | q3 | iqr/median | first half | second half | \
         second worse by | bound | within |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let (mut all_within, mut widest) = (true, 0.0f64);
    for ((w, m), v) in &values {
        let (metric, bound) = (&END_TO_END[*m], END_TO_END[*m].bound.expect("end-to-end bound"));
        let [q1, q2, q3] = stats::quartiles(v);
        let spread = stats::iqr_over_median(v);
        let (first, second) = v.split_at(v.len() / 2);
        let (first, second) = (stats::median(first), stats::median(second));
        let drift = worse_by(metric.better, first, second);
        let gated_spread = if metric.name == "setup_s" { 0.0 } else { spread };
        let within = v.len() == sets && drift <= bound && gated_spread <= bound;
        all_within &= within;
        widest = widest.max(gated_spread / bound);
        println!(
            "| {} | {} | {q2:.5} | {q1:.5} | {q3:.5} | {spread:.4} | {first:.5} | {second:.5} | \
             {drift:+.4} | {bound} | {} |",
            WORKLOADS[*w].name,
            metric.name,
            if within { "yes" } else { "NO" }
        );
    }
    println!(
        "{sets} sets of {} s runs, seeds {}..={}; every run correct: {all_correct}; every pair \
         within its bound: {all_within}; widest gated spread is {widest:.2} of its bound (aim: \
         under a third)",
        args.seconds,
        args.seed,
        args.seed + sets as u64 - 1
    );
    all_correct && all_within
}

#[cfg(test)]
mod tests {
    use super::worse_by;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("lower", 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by("higher", 0.0, 9.0), 0.0);
    }
}
