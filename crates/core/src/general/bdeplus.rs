//! The Theorem 4.1 subroutine: `O(log log_{T/n} n)`-round connectivity
//! [BDE+21], used by Algorithm 2 as its base case (and by experiment E8 as
//! a baseline).
//!
//! The cited algorithm repeatedly grows per-vertex exploration budgets as
//! the graph contracts: with `T` total space and `n_i` surviving vertices,
//! each vertex can afford `t_i = T/n_i` exploration, and one
//! `ShrinkGeneral(·, t_i)` application reduces the vertex count to
//! `≈ m/t_i`, so the budget multiplies by `≈ T/m` per level — reaching
//! `√S` in `O(log log_{T/n} n)` levels when `T/n = n^Ω(1)`. This module
//! implements exactly that loop (a behavioural substitute for the cited
//! black box — see DESIGN.md), finishing locally once the remainder fits a
//! single machine.

use ampc::{AmpcConfig, AmpcError, AmpcResult, Budget, RunStats};
use ampc_graph::{reference_components, Graph, Labeling};

use crate::general::shrink_general::shrink_general;

/// `ShrinkGeneral` levels before the loop gives up with
/// [`AmpcError::NoConvergence`]; the analysis needs `O(log log n)`.
const MAX_LEVELS: usize = 64;

/// Result of the Theorem 4.1 solver.
#[derive(Debug)]
pub struct BdePlusResult {
    /// CC-labeling of the input graph.
    pub labeling: Labeling,
    /// AMPC accounting (all levels absorbed).
    pub stats: RunStats,
    /// `ShrinkGeneral` levels executed.
    pub levels: usize,
    /// Exploration budgets used per level.
    pub budgets: Vec<usize>,
}

/// Solves connectivity with total space `budget.t` and local space
/// `budget.s` per the Theorem 4.1 recipe.
pub fn theorem41(g: &Graph, budget: Budget, ampc_cfg: &AmpcConfig) -> AmpcResult<BdePlusResult> {
    let mut stats = RunStats::new();
    let mut budgets = Vec::new();

    // Work stack of (graph, mapping to previous level).
    let mut levels: Vec<Vec<u32>> = Vec::new(); // to_h mappings, innermost last
    let mut cur = g.clone();
    let mut seed_bump = 0u64;

    let base_labels: Labeling = loop {
        let n = cur.n().max(1);
        // Base case: remainder fits one machine → collect and solve locally
        // (charged one round and its footprint). Only vertices with an edge
        // count towards fitting it.
        let live = cur.non_isolated();
        if live + cur.m() <= budget.s || live <= 64 {
            stats.charge_external(1, cur.n() + 2 * cur.m(), cur.n() + 2 * cur.m());
            break reference_components(&cur);
        }
        let t = (budget.t / n).clamp(2, budget.sqrt_s());
        budgets.push(t);
        let cfg = ampc_cfg.clone().with_seed(ampc_cfg.seed.wrapping_add(seed_bump));
        seed_bump += 1;
        let out = shrink_general(&cur, t, budget.s, cfg)?;
        stats.absorb(&out.stats);
        if out.h.n() >= cur.n() {
            // No progress (t degenerated): finish locally for correctness.
            stats.charge_external(1, cur.n() + 2 * cur.m(), cur.n() + 2 * cur.m());
            break reference_components(&cur);
        }
        levels.push(out.to_h);
        cur = out.h;
        if levels.len() > MAX_LEVELS {
            return Err(AmpcError::NoConvergence { phase: "Theorem 4.1 loop" });
        }
    };

    // Compose the labelings back out through the mappings.
    let mut labels = base_labels.0;
    for to_h in levels.iter().rev() {
        labels = to_h.iter().map(|&c| labels[c as usize]).collect();
    }
    let level_count = levels.len();

    Ok(BdePlusResult { labeling: Labeling(labels), stats, levels: level_count, budgets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators::{disjoint_cliques, erdos_renyi_gnm, grid2d};

    fn cfg() -> AmpcConfig {
        AmpcConfig::default().with_machines(4).with_seed(99)
    }

    fn check(g: &Graph, t: usize, s: usize) -> BdePlusResult {
        let res = theorem41(g, Budget { s, t }, &cfg()).unwrap();
        assert!(
            res.labeling.same_partition(&reference_components(g)),
            "wrong labeling (T={t}, S={s})"
        );
        res
    }

    #[test]
    fn solves_er_graphs() {
        let g = erdos_renyi_gnm(2000, 6000, 1);
        check(&g, 64_000, 2_000);
    }

    #[test]
    fn solves_disconnected_graphs() {
        let g = disjoint_cliques(20, 15);
        let res = check(&g, 30_000, 1_500);
        assert_eq!(res.labeling.num_components(), 20);
    }

    #[test]
    fn solves_grids() {
        let g = grid2d(50, 50);
        check(&g, 50_000, 2_000);
    }

    #[test]
    fn more_space_means_fewer_levels() {
        // The log log_{T/n} n shape: larger T/n → larger budgets → fewer
        // ShrinkGeneral levels.
        let g = erdos_renyi_gnm(4000, 16_000, 2);
        let tight = check(&g, 3 * 16_000, 4_000);
        let roomy = check(&g, 60 * 16_000, 4_000);
        assert!(
            roomy.levels <= tight.levels,
            "more space used more levels: {} vs {}",
            roomy.levels,
            tight.levels
        );
        assert!(roomy.budgets.first().unwrap_or(&0) >= tight.budgets.first().unwrap_or(&0));
    }

    #[test]
    fn tiny_graph_short_circuits() {
        let g = erdos_renyi_gnm(50, 80, 3);
        let res = check(&g, 10_000, 10_000);
        assert_eq!(res.levels, 0);
    }
}
