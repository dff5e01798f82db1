//! # `ampc-cc` — AMPC connected components in optimal space
//!
//! Implementation of the algorithms of *"Adaptive Massively Parallel
//! Connectivity in Optimal Space"* (Latypov, Łącki, Maus, Uitto — SPAA 2023)
//! on top of the [`ampc`] runtime simulator:
//!
//! * [`forest`] — **Theorem 1.1**: connected components of an `n`-vertex
//!   forest in `O(log* n)` AMPC rounds w.h.p. with optimal total space
//!   (Algorithm 1: Euler-tour reduction to cycles, `ShrinkLargeCycles`,
//!   iterated `ShrinkSmallCycles` with doubling budget `B`, and the
//!   `Standard-Cycle-CC` finisher), including the `O(k)` rounds ↔
//!   `O(n log^(k) n)` space trade-off.
//! * [`general`] — **Theorem 1.2**: connected components of a general graph
//!   in `2^O(k)` rounds with `O(m + n log^(k) n)` total space per round in
//!   expectation (Algorithm 2: KKT edge sampling + `ShrinkGeneral` +
//!   recursion), with the `ShrinkGeneral` CC-shrinker of Lemma 4.2 and, in
//!   [`general::bdeplus`], the BDE+21-style `O(log log_{T/n} n)` solver
//!   (Theorem 4.1: Algorithm 2's base case and a baseline of experiment E8).
//! * [`baselines`] — comparison algorithms: a classic MPC
//!   min-label-propagation round counter.
//! * [`pipeline`] — unified dispatch: a [`PipelineSpec`] (algorithm,
//!   backend, k, seed, machines) whose `run` returns one
//!   [`PipelineRun`] shape for both algorithms, so consumers (CLI, the
//!   serving layer, the ledger) never re-implement the algorithm match.
//!
//! Every public entry point returns both a validated
//! [`ampc_graph::Labeling`] and the run's [`ampc::RunStats`] so experiments
//! can compare measured rounds/queries/space against the paper's bounds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cycles;
pub mod forest;
pub mod general;
pub mod pipeline;

pub use pipeline::{Algorithm, PipelineRun, PipelineSpec, ResolvedAlgorithm};

/// Iterated logarithm `log* n` (base 2): the minimum `k ≥ 0` with
/// `log^(k) n ≤ 1`.
pub fn log_star(n: f64) -> u32 {
    let mut k = 0;
    let mut x = n;
    while x > 1.0 {
        x = x.log2();
        k += 1;
        if k > 16 {
            break; // unreachable for any representable f64
        }
    }
    k
}

/// `k`-th iterate of the paper's `log` (which clamps below 1):
/// `log^(0) n = n`, `log^(k) n = log(log^(k-1) n)`, with `log x = 1` for `x < 1`.
pub fn log_iter(n: f64, k: u32) -> f64 {
    let mut x = n;
    for _ in 0..k {
        x = if x >= 1.0 { x.log2().max(1.0) } else { 1.0 };
    }
    x
}

/// Tower function `2 ↑↑ k`: `2↑↑0 = 1`, `2↑↑k = 2^(2↑↑(k−1))`. Saturates at
/// `u64::MAX` (reached already for `k = 6`).
pub fn tower(k: u32) -> u64 {
    let mut x: u64 = 1;
    for _ in 0..k {
        if x >= 64 {
            return u64::MAX;
        }
        x = 1u64 << x;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_known_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(1e18), 5);
    }

    #[test]
    fn log_iter_matches_definition() {
        assert_eq!(log_iter(256.0, 0), 256.0);
        assert_eq!(log_iter(256.0, 1), 8.0);
        assert_eq!(log_iter(256.0, 2), 3.0);
        // Values below 1 clamp to 1 (the paper's `log x = 1 for x < 1`).
        assert_eq!(log_iter(0.5, 1), 1.0);
    }

    #[test]
    fn tower_known_values() {
        assert_eq!(tower(0), 1);
        assert_eq!(tower(1), 2);
        assert_eq!(tower(2), 4);
        assert_eq!(tower(3), 16);
        assert_eq!(tower(4), 65536);
        assert_eq!(tower(5), u64::MAX); // 2^65536 saturates
    }

    #[test]
    fn tower_inverts_log_star() {
        for k in 0..5 {
            assert_eq!(log_star(tower(k) as f64), k);
        }
    }
}
