//! Rooted-forest connectivity — Claim 4.12.
//!
//! The super-edges produced by `ShrinkGeneral`'s truncated BFS form a
//! forest of rooted trees (each non-root has exactly one parent of lower
//! rank). Claim 4.12 observes that this is *easier* than general forest
//! connectivity: map each tree to its Euler-tour cycle (every cycle then
//! contains exactly one arc set belonging to the marked root), shrink long
//! cycles to `O(n^ε)`, and then **each marked vertex simply traverses its
//! whole cycle** in a single adaptive round, labeling its entire component
//! — `O(1)` rounds, optimal space.
//!
//! Two implementations are provided and cross-checked:
//!
//! * [`resolve_roots_euler`] — the Claim 4.12 construction itself, measured
//!   by experiment E11;
//! * [`resolve_roots_chase`] — `cycles::chase_roots`, adaptive parent-pointer
//!   chasing with path compression: the lighter substitute, and the one
//!   `ShrinkGeneral` runs (ranks strictly decrease along its parents, so
//!   chains are short).
//!
//! `both_variants_agree` checks that they label random forests alike.

use ampc::{AmpcConfig, AmpcResult, AmpcSystem, Key, RunStats};
use ampc_graph::euler::forest_to_cycles;
use ampc_graph::{Graph, VertexId};

use crate::cycles::{chase_roots, link, CycleState, FWD};
use crate::forest::shrink_large::shrink_large_cycles;

/// Output of a rooted-forest resolution: per-vertex root labels plus AMPC
/// accounting.
#[derive(Debug)]
pub struct RootedForestOutcome {
    /// `labels[v]` = root of `v`'s tree.
    pub labels: Vec<u64>,
    /// AMPC accounting for the resolution.
    pub stats: RunStats,
    /// Rounds used by the traversal phase.
    pub traversal_rounds: usize,
}

/// Resolves roots by the Claim 4.12 construction: Euler tour → capped
/// cycles → one whole-cycle traversal per marked (root-carrying) vertex.
///
/// `parents[v] = Some(w)` makes `w` the parent of `v`; `None` marks roots.
pub fn resolve_roots_euler(
    parents: &[Option<VertexId>],
    walk_cap: usize,
    ampc_cfg: AmpcConfig,
) -> AmpcResult<RootedForestOutcome> {
    let n = parents.len();
    let edges: Vec<(VertexId, VertexId)> =
        parents.iter().enumerate().filter_map(|(v, p)| p.map(|p| (v as VertexId, p))).collect();
    let forest = Graph::from_edges(n, &edges);

    // Euler tour (Observation 3.1; cited O(1)-round primitive, charged).
    // (`from_decomposition` hints an unhinted dense backend's slab at the
    // arc count itself.)
    let decomp = forest_to_cycles(&forest);
    let mut state = CycleState::from_decomposition(&decomp, ampc_cfg);
    state.sys.stats_mut().charge_external(1, 2 * forest.m(), 2 * decomp.len().max(1));

    // Cap cycle lengths so the marked traversal fits the machine budget.
    let target = (walk_cap / 4).max(16);
    shrink_large_cycles(&mut state, target, walk_cap)?;

    // Mark phase: the cycle vertices that are copies of a *root* carry the
    // mark. After contraction some copies were absorbed; each contracted
    // group's PARENT chain ends at an alive vertex, so we mark the alive
    // representative of each root copy by composing once (charged as the
    // O(1)-round Compose it is).
    let arc_labels = state.compose_labels(16)?;
    let mut root_rep: Vec<Option<u64>> = vec![None; decomp.len()];
    for (arc, &orig) in decomp.origin.iter().enumerate() {
        if parents[orig as usize].is_none() {
            root_rep[arc_labels[arc] as usize] = Some(orig as u64);
        }
    }

    // Traversal phase (the heart of Claim 4.12): every alive vertex that
    // represents a root arc walks its entire cycle, labeling everything it
    // passes with the root id — one adaptive round.
    let rounds_before = state.sys.stats().rounds();
    let marked: Vec<(u64, u64)> =
        state.alive.iter().filter_map(|&a| root_rep[a as usize].map(|r| (a, r))).collect();
    let sweeps = state.sys.round("rf-traverse", &marked, |ctx, &(start, root)| {
        let mut covered = vec![start];
        let mut cur = link(ctx, FWD, start).0;
        while cur != start {
            covered.push(cur);
            cur = link(ctx, FWD, cur).0;
        }
        Some((root, covered))
    })?;
    let traversal_rounds = state.sys.stats().rounds() - rounds_before;

    // Project: alive cycle vertex → root, then original vertex → root via
    // its (composed) arc representative.
    let mut alive_root: std::collections::HashMap<u64, u64> = Default::default();
    for (root, covered) in sweeps.results {
        for a in covered {
            alive_root.insert(a, root);
        }
    }
    let mut labels = vec![u64::MAX; n];
    for (arc, &orig) in decomp.origin.iter().enumerate() {
        if labels[orig as usize] == u64::MAX {
            labels[orig as usize] = alive_root[&arc_labels[arc]];
        }
    }
    // Isolated vertices of the parent forest are their own roots.
    for (v, label) in labels.iter_mut().enumerate() {
        if *label == u64::MAX {
            *label = v as u64;
        }
    }
    state.sys.stats_mut().charge_external(1, n, n);

    let (_, stats) = state.sys.finish();
    Ok(RootedForestOutcome { labels, stats, traversal_rounds })
}

/// Resolves roots by adaptive pointer chasing with path compression
/// (`cycles::chase_roots`) — the lightweight alternative (see module docs).
pub fn resolve_roots_chase(
    parents: &[Option<VertexId>],
    chase_cap: usize,
    ampc_cfg: AmpcConfig,
) -> AmpcResult<RootedForestOutcome> {
    const SUPER: ampc::Space = 0;
    let n = parents.len();
    // Parent pointers are keyed by vertex ids 0..n — the dense slab hint.
    let backend = ampc_cfg.backend.with_capacity_hint(n.max(1));
    let ampc_cfg = ampc_cfg.with_backend(backend);
    let mut sys: AmpcSystem<u64> = AmpcSystem::new(
        ampc_cfg,
        parents
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|p| (Key::new(SUPER, v as u64), p as u64))),
    );
    let (labels, traversal_rounds) = chase_roots(
        &mut sys,
        "rf-chase",
        SUPER,
        &(0..n as u64).collect::<Vec<_>>(),
        chase_cap.max(2),
        32,
    )?;
    let (_, stats) = sys.finish();
    Ok(RootedForestOutcome { labels, stats, traversal_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::rng::stream;

    fn random_parent_forest(n: usize, roots: usize, seed: u64) -> Vec<Option<VertexId>> {
        // Vertices 0..roots are roots; every other vertex parents a
        // uniformly random earlier vertex.
        let mut rng = stream(seed, 0, 0, 0);
        (0..n)
            .map(|v| if v < roots { None } else { Some(rng.next_below(v as u64) as VertexId) })
            .collect()
    }

    fn reference_roots(parents: &[Option<VertexId>]) -> Vec<u64> {
        (0..parents.len())
            .map(|mut v| {
                while let Some(p) = parents[v] {
                    v = p as usize;
                }
                v as u64
            })
            .collect()
    }

    fn cfg(seed: u64) -> AmpcConfig {
        AmpcConfig::default().with_machines(4).with_seed(seed)
    }

    #[test]
    fn euler_variant_matches_reference() {
        let parents = random_parent_forest(2000, 17, 1);
        let out = resolve_roots_euler(&parents, 1 << 12, cfg(2)).unwrap();
        assert_eq!(out.labels, reference_roots(&parents));
    }

    #[test]
    fn chase_variant_matches_reference() {
        let parents = random_parent_forest(2000, 17, 3);
        let out = resolve_roots_chase(&parents, 1 << 12, cfg(4)).unwrap();
        assert_eq!(out.labels, reference_roots(&parents));
    }

    #[test]
    fn both_variants_agree() {
        for seed in 0..3 {
            let parents = random_parent_forest(800, 9, seed);
            let a = resolve_roots_euler(&parents, 1 << 12, cfg(seed)).unwrap();
            let b = resolve_roots_chase(&parents, 1 << 12, cfg(seed)).unwrap();
            assert_eq!(a.labels, b.labels, "seed {seed}");
        }
    }

    #[test]
    fn traversal_is_single_round() {
        // Claim 4.12's punchline: the marked sweep is ONE adaptive round.
        let parents = random_parent_forest(3000, 25, 7);
        let out = resolve_roots_euler(&parents, 1 << 13, cfg(8)).unwrap();
        assert_eq!(out.traversal_rounds, 1);
    }

    #[test]
    fn deep_chain_forest() {
        // A single path of parents: depth n−1, the worst case for naive
        // chasing (the Euler variant is depth-independent; the chase
        // variant needs multiple capped rounds).
        let n = 3000;
        let parents: Vec<Option<VertexId>> =
            (0..n).map(|v| if v == 0 { None } else { Some(v as VertexId - 1) }).collect();
        let euler = resolve_roots_euler(&parents, 1 << 12, cfg(9)).unwrap();
        assert!(euler.labels.iter().all(|&l| l == 0));
        let chase = resolve_roots_chase(&parents, 64, cfg(9)).unwrap();
        assert!(chase.labels.iter().all(|&l| l == 0));
        assert!(
            chase.traversal_rounds > 1,
            "a capped chase on a deep chain must need multiple rounds"
        );
    }

    #[test]
    fn all_roots_forest() {
        let parents: Vec<Option<VertexId>> = vec![None; 100];
        let out = resolve_roots_euler(&parents, 1 << 10, cfg(10)).unwrap();
        assert_eq!(out.labels, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn star_forest() {
        // Every vertex parents vertex 0 directly.
        let parents: Vec<Option<VertexId>> =
            (0..500).map(|v| if v == 0 { None } else { Some(0) }).collect();
        let out = resolve_roots_euler(&parents, 1 << 12, cfg(11)).unwrap();
        assert!(out.labels.iter().all(|&l| l == 0));
    }
}
