//! Algorithm 1 — `ConnectedComponentsForest` (Theorem 1.1).
//!
//! ```text
//! 1: function ConnectedComponentsForest(G)
//! 2:   Reduce to cycle-connectivity (Observation 3.1, Euler tour)
//! 3:   G' ← ShrinkLargeCycles(G)
//! 4:   B ← B₀
//! 5:   while |V(G')| > n / log n do
//! 6:     G' ← ShrinkSmallCycles(G', B)
//! 7:     B ← min{2B, cap}          (every second iteration)
//! 8:   return Standard-Cycle-CC(G')
//! ```
//!
//! The round/space trade-off of Theorem 1.1 ("O(k) rounds with
//! O(n·log^(k) n) total space") is obtained by initializing
//! `B₀ = 2↑↑(log* n − k)`-style (see [`ForestCcConfig::with_tradeoff_k`]):
//! a larger starting budget costs proportionally more queries (≈ space) in
//! the first iteration but skips the early doubling iterations.
//!
//! ### Constants at laptop scale
//!
//! The paper's constants (`B₀ = 100`, cap `ε·log n/100`, cycle-length cap
//! `n^ε` with `ε = δ/10`) are asymptotic: at any benchmarkable `n` they
//! degenerate (`2^100` dwarfs every feasible input, `ε·log n/100 < 1`).
//! The defaults below keep every *relationship* the analysis uses —
//! `B` doubles every second iteration, is capped at `Θ(log n)`, cycle
//! lengths are capped at `S^Θ(1)`, and the main loop exits at `n/log n` —
//! with constants scaled so the dynamics are observable. Experiments E1–E4
//! verify the resulting shapes against the lemmas.

use ampc::{AmpcConfig, AmpcResult, Budget, DhtBackend, RunStats};
use ampc_graph::{Forest, Labeling};

use crate::cycles::CycleState;
use crate::forest::shrink_large::{shrink_large_cycles, ShrinkLargeOutcome};
use crate::forest::shrink_small::{shrink_small_cycles, IterationOutcome};
use crate::forest::standard_cycle_cc::{standard_cycle_cc, StandardCycleOutcome};
use crate::{log_star, tower};

/// `B` cap as a multiple of `log₂ n` (the paper's `ε·log n/100`).
const B_CAP_LOG_FACTOR: f64 = 0.75;

/// Configuration of the forest-connectivity pipeline.
#[derive(Debug, Clone)]
pub struct ForestCcConfig {
    /// Simulated machine count.
    pub machines: usize,
    /// Run seed.
    pub seed: u64,
    /// Local-space exponent: `S = Budget::local_space(n, delta)` words per
    /// machine.
    pub delta: f64,
    /// Initial rank width `B₀` (Algorithm 1 line 4).
    pub b0: u16,
    /// Double `B` every second iteration (Algorithm 1 line 7). Disabled
    /// only by the E9 ablation.
    pub double_b: bool,
    /// Run the deterministic Step 2. Disabled only by the E9 ablation.
    pub enable_step2: bool,
    /// Skip the `ShrinkLargeCycles` preprocessing. Only valid when every
    /// cycle is known to fit the walk budget (used by experiments that
    /// isolate the main-loop dynamics on medium-sized trees).
    pub skip_shrink_large: bool,
    /// Remainder size below which cycles are collected onto one machine.
    pub collect_threshold: usize,
    /// Safety bound on main-loop iterations.
    pub max_iterations: usize,
    /// DHT storage backend for every system the pipeline constructs.
    pub backend: DhtBackend,
}

impl Default for ForestCcConfig {
    fn default() -> Self {
        ForestCcConfig {
            machines: 8,
            seed: 0xF0_1234,
            delta: 0.6,
            b0: 4,
            double_b: true,
            enable_step2: true,
            skip_shrink_large: false,
            collect_threshold: 256,
            max_iterations: 64,
            backend: DhtBackend::default(),
        }
    }
}

impl ForestCcConfig {
    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the machine count.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Selects the DHT storage backend.
    pub fn with_backend(mut self, backend: DhtBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Configures the Theorem 1.1 trade-off: `O(k)` shrink iterations using
    /// `O(n · log^(k) n)`-ish first-iteration budget. Implemented as
    /// `B₀ = 2↑↑(log* n − k)` clamped to `[4, cap]`, mirroring the proof of
    /// Theorem 1.1 ("initialize B = 2↑↑(c·log* n − k)").
    pub fn with_tradeoff_k(mut self, n: usize, k: u32) -> Self {
        let stars = log_star(n.max(2) as f64);
        let cap = self.b_cap(n);
        let t = tower(stars.saturating_sub(k)).min(cap as u64).max(2);
        self.b0 = t as u16;
        self
    }

    /// The `B` cap for an `n`-vertex input.
    fn b_cap(&self, n: usize) -> u16 {
        let cap = (B_CAP_LOG_FACTOR * (n.max(4) as f64).log2()).floor();
        cap.clamp(4.0, 16.0) as u16
    }
}

/// Full result of a forest-connectivity run.
#[derive(Debug, Clone)]
pub struct ForestCcResult {
    /// The computed CC-labeling of the input forest.
    pub labeling: Labeling,
    /// Aggregated AMPC cost accounting.
    pub stats: RunStats,
    /// `ShrinkLargeCycles` measurements.
    pub shrink_large: ShrinkLargeOutcome,
    /// Per-iteration measurements of the main loop (E3/E4 inputs).
    pub iterations: Vec<IterationOutcome>,
    /// `Standard-Cycle-CC` measurements.
    pub finisher: StandardCycleOutcome,
    /// Number of cycle vertices after the Euler reduction.
    pub cycle_vertices: usize,
}

impl ForestCcResult {
    /// Total AMPC rounds (the paper's headline metric).
    pub fn rounds(&self) -> usize {
        self.stats.rounds()
    }

    /// Peak per-round total space in words.
    pub fn peak_space(&self) -> usize {
        self.stats.peak_total_space()
    }

    /// Total DHT queries.
    pub fn queries(&self) -> usize {
        self.stats.total_queries()
    }
}

/// Computes the connected components of a forest per Algorithm 1.
///
/// ```
/// use ampc_cc::forest::pipeline::{connected_components_forest, ForestCcConfig};
/// use ampc_graph::generators::random_forest;
/// use ampc_graph::reference_components;
///
/// let forest = random_forest(1000, 5, 42);
/// let proof = forest.as_forest().expect("random_forest is acyclic");
/// let result = connected_components_forest(proof, &ForestCcConfig::default())?;
/// assert!(result.labeling.same_partition(&reference_components(&forest)));
/// assert_eq!(result.labeling.num_components(), 5);
/// # Ok::<(), ampc::AmpcError>(())
/// ```
///
/// The input is a [`Forest`], the proof [`ampc_graph::Graph::as_forest`] gives, so a
/// graph with a cycle cannot reach the Euler tour.
pub fn connected_components_forest(
    forest: Forest<'_>,
    cfg: &ForestCcConfig,
) -> AmpcResult<ForestCcResult> {
    let g = forest.graph();
    let n = g.n();
    let local_space = Budget::local_space(n, cfg.delta);

    // Line 2: forest → disjoint cycles (Observation 3.1). The Euler tour is
    // a cited O(1)-round optimal-space primitive [TV85, BDE+21]; executed
    // natively, charged below.
    let decomp = forest.cycles();
    let n0 = decomp.len();

    // All cycle keyspaces (FWD/BWD/STAMP/PARENT) use ids 0..n0, so
    // `CycleState::from_decomposition` hints an unhinted dense backend's
    // slab at the cycle-vertex count (explicit `dense:N` capacities pass
    // through unchanged).
    let ampc_cfg = AmpcConfig::default()
        .with_machines(cfg.machines)
        .with_seed(cfg.seed)
        .with_backend(cfg.backend);
    let mut state = CycleState::from_decomposition(&decomp, ampc_cfg);
    state.sys.stats_mut().charge_external(1, 2 * g.m(), 2 * n0.max(1));

    // Line 3: cap cycle lengths well below the per-machine budget so no
    // traversal can approach S (the paper caps at n^ε with ε = δ/10 ≪ δ).
    // The sampling shrinker needs targets of at least Θ(log n); below that
    // we fall back to S/4, which still keeps walks within budget.
    let preferred = local_space / 16;
    let sampling_floor = (16.0 * (n.max(2) as f64).ln()) as usize;
    let target_len = if preferred >= sampling_floor { preferred } else { local_space / 4 }.max(16);
    let walk_cap = local_space;
    let shrink_large = if cfg.skip_shrink_large {
        shrink_large_cycles(&mut state, n0.max(4), walk_cap)? // degenerate: no-op
    } else {
        shrink_large_cycles(&mut state, target_len, walk_cap)?
    };

    // Lines 4–7: the ShrinkSmallCycles loop with doubling B.
    let b_cap = cfg.b_cap(n.max(2));
    let mut b = cfg.b0.clamp(1, b_cap);
    let stop_at = if n0 > 4 { n0 / (n0 as f64).log2().ceil() as usize } else { 0 };
    let mut iterations = Vec::new();
    while state.alive.len() > stop_at && iterations.len() < cfg.max_iterations {
        let out = shrink_small_cycles(&mut state, b, walk_cap, cfg.enable_step2)?;
        iterations.push(out);
        if cfg.double_b && iterations.len() % 2 == 0 {
            b = (b.saturating_mul(2)).min(b_cap);
        }
    }

    // Line 8: finish with Standard-Cycle-CC.
    let finisher = standard_cycle_cc(&mut state, walk_cap, cfg.collect_threshold)?;

    // Compose: resolve PARENT chains (Definition 2.1) of the arcs the
    // projection reads, the first arc of each forest vertex. Chain depth
    // grows by at most 3 per contraction phase.
    let mut seen = vec![false; n];
    let first_arcs: Vec<u64> = (0..n0 as u64)
        .filter(|&arc| !std::mem::replace(&mut seen[decomp.origin[arc as usize] as usize], true))
        .collect();
    let max_chain = 3 * (iterations.len() + finisher.iterations + shrink_large.repetitions) + 8;
    let arc_labels = state.compose_arcs(&first_arcs, max_chain)?;

    // Project cycle-vertex labels back to forest vertices (each tree is one
    // cycle; isolated vertices get fresh labels). Host-side projection of
    // the Compose output; charged one round at linear cost.
    let mut labels = vec![u64::MAX; n];
    for (&arc, label) in first_arcs.iter().zip(arc_labels) {
        labels[decomp.origin[arc as usize] as usize] = label;
    }
    for &v in &decomp.isolated {
        labels[v as usize] = n0 as u64 + v as u64;
    }
    state.sys.stats_mut().charge_external(1, n, n);

    let (_, stats) = state.sys.finish();
    Ok(ForestCcResult {
        labeling: Labeling(labels),
        stats,
        shrink_large,
        iterations,
        finisher,
        cycle_vertices: n0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators::{random_forest, ForestFamily};
    use ampc_graph::{reference_components, Graph};

    fn check(g: &Graph, cfg: &ForestCcConfig) -> ForestCcResult {
        let res = connected_components_forest(g.as_forest().unwrap(), cfg).unwrap();
        assert!(
            res.labeling.same_partition(&reference_components(g)),
            "wrong components on n={} m={}",
            g.n(),
            g.m()
        );
        res
    }

    #[test]
    fn all_forest_families_correct() {
        for fam in ForestFamily::ALL {
            let g = fam.generate(3000, 21);
            let cfg = ForestCcConfig::default().with_seed(fam as u64 + 1);
            check(&g, &cfg);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        check(&Graph::empty(0), &ForestCcConfig::default());
        check(&Graph::empty(5), &ForestCcConfig::default());
        check(&Graph::from_edges(2, &[(0, 1)]), &ForestCcConfig::default());
        check(&Graph::from_edges(3, &[(0, 2)]), &ForestCcConfig::default());
    }

    #[test]
    fn many_components_preserved() {
        let g = random_forest(20_000, 137, 5);
        let res = check(&g, &ForestCcConfig::default());
        assert_eq!(res.labeling.num_components(), 137);
    }

    #[test]
    fn rounds_stay_near_log_star() {
        // Theorem 1.1 shape: rounds grow like log* n — i.e. between n = 2^10
        // and n = 2^17 the round count should stay within a small constant.
        let r10 = check(&random_forest(1 << 10, 4, 7), &ForestCcConfig::default()).rounds();
        let r17 = check(&random_forest(1 << 17, 4, 7), &ForestCcConfig::default()).rounds();
        assert!(r17 <= r10 + 24, "rounds grew from {r10} to {r17}: not log*-like");
    }

    #[test]
    fn space_stays_linear() {
        // Theorem 1.1: optimal total space. Peak round space ≤ c·n words.
        let n = 1 << 16;
        let g = random_forest(n, 8, 9);
        let res = check(&g, &ForestCcConfig::default());
        let per_vertex = res.peak_space() as f64 / n as f64;
        assert!(per_vertex < 24.0, "peak space {per_vertex} words/vertex not linear");
    }

    #[test]
    fn tradeoff_k_reduces_iterations() {
        let n = 1 << 15;
        let g = random_forest(n, 4, 3);
        let base = ForestCcConfig::default();
        let aggressive = ForestCcConfig::default().with_tradeoff_k(n, 1);
        let r_base = check(&g, &base);
        let r_fast = check(&g, &aggressive);
        assert!(
            r_fast.iterations.len() <= r_base.iterations.len(),
            "k-tradeoff did not reduce iterations: {} vs {}",
            r_fast.iterations.len(),
            r_base.iterations.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = random_forest(5000, 11, 13);
        let cfg = ForestCcConfig::default().with_seed(42);
        let a = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
        let b = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
        assert_eq!(a.labeling.0, b.labeling.0);
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn audit_reports_no_violations_at_scale() {
        // With S = n^0.7, capped cycle lengths, and M = n/4 machines that
        // each hold O(1) vertices, no machine should exceed S.
        let n = 1 << 16;
        let g = random_forest(n, 4, 17);
        let cfg = ForestCcConfig { delta: 0.7, machines: n / 4, ..ForestCcConfig::default() };
        let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
        assert!(res.labeling.same_partition(&reference_components(&g)));
        let over = res.stats.over_budget(Budget::local_space(n, 0.7));
        assert!(over.is_empty(), "machines exceeded the audit budget: {over:?}");
    }

    #[test]
    fn step2_ablation_still_correct() {
        let g = random_forest(4000, 40, 19);
        let cfg = ForestCcConfig { enable_step2: false, ..ForestCcConfig::default() };
        check(&g, &cfg);
    }

    #[test]
    fn fixed_b_ablation_still_correct() {
        let g = random_forest(4000, 10, 23);
        let cfg = ForestCcConfig { double_b: false, ..ForestCcConfig::default() };
        check(&g, &cfg);
    }

    #[test]
    fn single_huge_path() {
        // The adversarial §1.3 shape: one long path.
        let g = ampc_graph::generators::path(60_000);
        let res = check(&g, &ForestCcConfig::default());
        assert_eq!(res.labeling.num_components(), 1);
    }
}
