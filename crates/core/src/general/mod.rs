//! Theorem 1.2 — general-graph connectivity in `2^O(k)` rounds with
//! `O(m + n·log^(k) n)` total space per round.

pub mod algorithm2;
pub mod bdeplus;
pub mod rooted_forest;
pub mod sampling;
pub mod shrink_general;

use ampc::RunStats;
use ampc_graph::{reference_components, Graph, Labeling};

/// Collects `g` onto one machine and solves it there: the one local finish
/// of Algorithm 2 and the Theorem 4.1 loop. Charged one round that reads
/// and holds the whole input, `n + 2m` words (DESIGN.md, "Charging model").
pub fn solve_locally(stats: &mut RunStats, g: &Graph) -> Labeling {
    let words = g.n() + 2 * g.m();
    stats.charge_external(1, words, words);
    reference_components(g)
}
