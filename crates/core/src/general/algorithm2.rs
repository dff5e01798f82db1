//! Algorithm 2 — `ConnectedComponents` for general graphs (Theorem 1.2).
//!
//! ```text
//! 1: function ConnectedComponents(G)
//! 2:   n = |V(G)|, m = |E(G)|, d = √(m/n)
//! 3:   if T/n = n^Ω(1):
//! 4:     solve with the algorithm of Theorem 4.1
//! 5:   H := each edge of G sampled independently with probability 1/d
//! 6:   C := ShrinkRecurse(H, n)
//! 7:   return Compose(ShrinkRecurse(Contract(G, C), n), C)
//!
//! 8: function ShrinkRecurse(G, n)
//! 9:   (G', M) := ShrinkGeneral(G, min(2^√(T/n), √S))
//! 10:  return Compose(ConnectedComponents(G'), M)
//! ```
//!
//! The two recursive calls cannot run in parallel (the second needs the
//! first's output — Lemma 4.9), so the recursion tree size is the round
//! complexity up to the `O(1)` rounds per call. Lemma 4.6 bounds the
//! expected number of `ConnectedComponents` calls by `2^O(k)` when
//! `T = Ω(m + n log^(k) n)`; experiment E5 measures exactly this count.

use ampc::{AmpcConfig, AmpcResult, Budget, DhtBackend, RunStats};
use ampc_graph::contract::{compose_labels, contract};
use ampc_graph::{reference_components, Graph, Labeling};

use crate::general::bdeplus::theorem41;
use crate::general::sampling::{algorithm2_sample_probability, sample_edges};
use crate::general::shrink_general::shrink_general;
use crate::log_iter;

/// Inputs at most this size are solved on one machine.
const SMALL_THRESHOLD: usize = 128;

/// Recursion depth safety bound.
const MAX_DEPTH: usize = 40;

/// Configuration for Algorithm 2.
#[derive(Debug, Clone)]
pub struct GeneralCcConfig {
    /// Simulated machine count.
    pub machines: usize,
    /// Run seed.
    pub seed: u64,
    /// Local-space exponent: `S = Budget::local_space(n + m, delta)`.
    pub delta: f64,
    /// The space parameter `k` of Theorem 1.2: total space
    /// `T = space_const · (m + n · log^(k) n)`.
    pub k: u32,
    /// Constant in front of the total-space bound.
    pub space_const: f64,
    /// Base-case threshold: when `T/n ≥ n^gamma` the Theorem 4.1 solver is
    /// used (the paper's `T/n = n^Ω(1)` test).
    pub gamma: f64,
    /// DHT storage backend for every system the recursion constructs.
    pub backend: DhtBackend,
}

impl Default for GeneralCcConfig {
    fn default() -> Self {
        GeneralCcConfig {
            machines: 8,
            seed: 0x6E_4242,
            delta: 0.6,
            k: 2,
            space_const: 4.0,
            // The paper's test is asymptotic (`T/n = n^Ω(1)`); at
            // benchmarkable sizes gamma must be large enough that modest
            // T/n ratios do NOT count as polynomial, or the recursion never
            // fires. 0.5 makes the k-dependence observable (experiment E5).
            gamma: 0.50,
            backend: DhtBackend::default(),
        }
    }
}

impl GeneralCcConfig {
    /// Sets `k` (larger `k` → less space → more rounds). Theorem 1.2 takes
    /// `k ≥ 1`: at `k = 0`, `log^(0) n = n` and the space budget is
    /// `Θ(m + n²)`.
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the DHT storage backend.
    pub fn with_backend(mut self, backend: DhtBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The budget of an `(n, m)` input: `S` from `δ` and `n + m`, and
    /// `T = space_const · (m + n · log^(k) n)`.
    pub fn budget(&self, n: usize, m: usize) -> Budget {
        let t = self.space_const * (m as f64 + n as f64 * log_iter(n.max(2) as f64, self.k));
        Budget { s: Budget::local_space(n + m, self.delta), t: t.ceil() as usize }
    }
}

/// One `ConnectedComponents` invocation in the recursion tree — the data
/// behind Lemma 4.8's "space per vertex climbs the log ladder" argument.
#[derive(Debug, Clone)]
pub struct CallReport {
    /// Recursion depth of this call.
    pub depth: usize,
    /// Vertices of the call's input graph.
    pub n: usize,
    /// Edges of the call's input graph.
    pub m: usize,
    /// Available space per vertex, `T/n`.
    pub space_per_vertex: f64,
    /// Whether the call bottomed out (base case or small input).
    pub terminal: bool,
}

/// Result of an Algorithm 2 run.
#[derive(Debug)]
pub struct GeneralCcResult {
    /// CC-labeling of the input graph.
    pub labeling: Labeling,
    /// Aggregated AMPC accounting across the whole recursion.
    pub stats: RunStats,
    /// Number of `ConnectedComponents` calls (Lemma 4.6's `2^O(k)`).
    pub cc_calls: usize,
    /// Deepest recursion level reached.
    pub max_depth_reached: usize,
    /// How many calls bottomed out in the Theorem 4.1 solver.
    pub base_case_calls: usize,
    /// The budget `S` and `T` the run was configured with.
    pub budget: Budget,
    /// One record per `ConnectedComponents` call, in call order.
    pub calls: Vec<CallReport>,
}

struct Driver<'a> {
    cfg: &'a GeneralCcConfig,
    budget: Budget,
    stats: RunStats,
    cc_calls: usize,
    base_case_calls: usize,
    max_depth: usize,
    seed_ctr: u64,
    calls: Vec<CallReport>,
}

impl Driver<'_> {
    fn next_seed(&mut self) -> u64 {
        self.seed_ctr = self.seed_ctr.wrapping_add(1);
        self.cfg.seed.wrapping_add(self.seed_ctr.wrapping_mul(0x9E37_79B9))
    }

    fn ampc_cfg(&mut self) -> AmpcConfig {
        AmpcConfig::default()
            .with_machines(self.cfg.machines)
            .with_seed(self.next_seed())
            .with_backend(self.cfg.backend)
    }

    /// Algorithm 2, lines 1–7.
    fn connected_components(&mut self, g: &Graph, depth: usize) -> AmpcResult<Vec<u64>> {
        self.cc_calls += 1;
        self.max_depth = self.max_depth.max(depth);
        let (n, m) = (g.n(), g.m());
        let space_per_vertex = self.budget.t as f64 / n.max(1) as f64;
        let call_idx = self.calls.len();
        self.calls.push(CallReport { depth, n, m, space_per_vertex, terminal: false });

        // Degenerate / small inputs: solve on one machine (charged). Only
        // vertices with an edge count towards fitting it.
        let live = g.non_isolated();
        if live <= SMALL_THRESHOLD || live + 2 * m <= self.budget.s || depth >= MAX_DEPTH {
            self.calls[call_idx].terminal = true;
            self.stats.charge_external(1, n + 2 * m, n + 2 * m);
            return Ok(reference_components(g).0);
        }

        // Line 3: base case when space per vertex is polynomially large.
        if space_per_vertex >= (n as f64).powf(self.cfg.gamma) {
            self.calls[call_idx].terminal = true;
            self.base_case_calls += 1;
            let cfg = self.ampc_cfg();
            let res = theorem41(g, self.budget, &cfg)?;
            self.stats.absorb(&res.stats);
            return Ok(res.labeling.0);
        }

        // Line 5: sample H with probability 1/d, d = √(m/n). Host-side edge
        // filter; charged one round at linear cost.
        let p = algorithm2_sample_probability(n, m);
        let h = sample_edges(g, p, self.next_seed());
        self.stats.charge_external(1, 2 * m, n + 2 * m);

        // Line 6: C := ShrinkRecurse(H, n).
        let c = self.shrink_recurse(&h, depth)?;

        // Line 7: Compose(ShrinkRecurse(Contract(G, C), n), C).
        let contraction = contract(g, &c);
        self.stats.charge_external(1, 2 * m, n + 2 * m);
        let c2 = self.shrink_recurse(&contraction.graph, depth)?;
        let labels = compose_labels(&contraction, &c2);
        self.stats.charge_external(1, n, n);
        Ok(labels)
    }

    /// Algorithm 2, lines 8–10.
    fn shrink_recurse(&mut self, g: &Graph, depth: usize) -> AmpcResult<Vec<u64>> {
        let n = g.n().max(1);
        if g.non_isolated() <= SMALL_THRESHOLD {
            self.stats.charge_external(1, g.n() + 2 * g.m(), g.n() + 2 * g.m());
            return Ok(reference_components(g).0);
        }
        // t = min(2^√(T/n), √S), at least 2 so progress is made.
        let exponent = (self.budget.t as f64 / n as f64).max(1.0).sqrt();
        let t = (exponent.exp2() as usize).min(self.budget.sqrt_s());

        let cfg = self.ampc_cfg();
        let out = shrink_general(g, t, self.budget.s, cfg)?;
        self.stats.absorb(&out.stats);

        let sub = if out.h.n() >= g.n() {
            // No reduction (degenerate t): avoid infinite recursion.
            self.stats.charge_external(1, g.n() + 2 * g.m(), g.n() + 2 * g.m());
            reference_components(&out.h).0
        } else {
            self.connected_components(&out.h, depth + 1)?
        };
        Ok(out.to_h.iter().map(|&cls| sub[cls as usize]).collect())
    }
}

/// Computes the connected components of a general graph per Algorithm 2.
///
/// ```
/// use ampc_cc::general::algorithm2::{connected_components_general, GeneralCcConfig};
/// use ampc_graph::generators::erdos_renyi_gnm;
/// use ampc_graph::reference_components;
///
/// let g = erdos_renyi_gnm(500, 1500, 7);
/// let cfg = GeneralCcConfig::default().with_k(2);
/// let result = connected_components_general(&g, &cfg)?;
/// assert!(result.labeling.same_partition(&reference_components(&g)));
/// # Ok::<(), ampc::AmpcError>(())
/// ```
pub fn connected_components_general(
    g: &Graph,
    cfg: &GeneralCcConfig,
) -> AmpcResult<GeneralCcResult> {
    let mut driver = Driver {
        cfg,
        budget: cfg.budget(g.n(), g.m()),
        stats: RunStats::new(),
        cc_calls: 0,
        base_case_calls: 0,
        max_depth: 0,
        seed_ctr: 0,
        calls: Vec::new(),
    };
    let labels = driver.connected_components(g, 0)?;
    Ok(GeneralCcResult {
        labeling: Labeling(labels),
        stats: driver.stats,
        cc_calls: driver.cc_calls,
        max_depth_reached: driver.max_depth,
        base_case_calls: driver.base_case_calls,
        budget: driver.budget,
        calls: driver.calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators::{
        barbell, disjoint_cliques, erdos_renyi_gnm, grid2d, preferential_attachment, GraphFamily,
    };

    fn check(g: &Graph, cfg: &GeneralCcConfig) -> GeneralCcResult {
        let res = connected_components_general(g, cfg).unwrap();
        assert!(
            res.labeling.same_partition(&reference_components(g)),
            "wrong components (n={}, m={}, k={})",
            g.n(),
            g.m(),
            cfg.k
        );
        res
    }

    #[test]
    fn all_graph_families_correct() {
        for fam in GraphFamily::ALL {
            let g = fam.generate(1500, 31);
            check(&g, &GeneralCcConfig::default().with_seed(fam as u64));
        }
    }

    #[test]
    fn k_sweep_stays_correct() {
        let g = erdos_renyi_gnm(4000, 12_000, 5);
        for k in 1..=5 {
            check(&g, &GeneralCcConfig::default().with_k(k).with_seed(k as u64));
        }
    }

    #[test]
    fn component_counts_preserved() {
        let g = disjoint_cliques(25, 20);
        let res = check(&g, &GeneralCcConfig::default());
        assert_eq!(res.labeling.num_components(), 25);
    }

    #[test]
    fn cc_calls_bounded() {
        // Lemma 4.6 shape: the number of recursive calls is 2^O(k), which
        // for k=2 and these sizes should be a small constant.
        let g = erdos_renyi_gnm(8000, 32_000, 6);
        let res = check(&g, &GeneralCcConfig::default().with_k(2));
        assert!(res.cc_calls <= 64, "cc_calls = {}", res.cc_calls);
    }

    #[test]
    fn more_space_means_fewer_calls() {
        let g = erdos_renyi_gnm(8000, 24_000, 7);
        let roomy = check(&g, &GeneralCcConfig::default().with_k(1));
        let tight = check(&g, &GeneralCcConfig::default().with_k(4));
        assert!(
            roomy.cc_calls <= tight.cc_calls,
            "k=1 used {} calls, k=4 used {}",
            roomy.cc_calls,
            tight.cc_calls
        );
    }

    #[test]
    fn handles_dense_and_sparse_extremes() {
        check(&barbell(40, 10), &GeneralCcConfig::default());
        check(&grid2d(60, 60), &GeneralCcConfig::default());
        check(&preferential_attachment(2000, 4, 8), &GeneralCcConfig::default());
        check(&Graph::empty(500), &GeneralCcConfig::default());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = erdos_renyi_gnm(3000, 9000, 9);
        let cfg = GeneralCcConfig::default().with_seed(1234);
        let a = connected_components_general(&g, &cfg).unwrap();
        let b = connected_components_general(&g, &cfg).unwrap();
        assert_eq!(a.labeling.0, b.labeling.0);
        assert_eq!(a.cc_calls, b.cc_calls);
        assert_eq!(a.stats.rounds(), b.stats.rounds());
    }

    #[test]
    fn space_per_vertex_climbs_with_depth() {
        // Lemma 4.8's mechanism: each recursion level multiplies the
        // available space per vertex. Within every root-to-leaf chain of
        // calls, T/n must be strictly increasing.
        let g = erdos_renyi_gnm(8000, 64_000, 10);
        let mut cfg = GeneralCcConfig::default().with_seed(11).with_k(4);
        cfg.gamma = 0.75;
        cfg.space_const = 1.0;
        let res = check(&g, &cfg);
        assert_eq!(res.calls.len(), res.cc_calls);
        assert!(res.calls.iter().any(|c| c.depth > 0), "recursion never fired");
        for w in res.calls.windows(2) {
            if w[1].depth > w[0].depth {
                assert!(
                    w[1].space_per_vertex > w[0].space_per_vertex,
                    "space/vertex fell on descent: {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        // Every chain ends in a terminal call.
        assert!(res.calls.iter().filter(|c| c.terminal).count() >= 1);
    }

    #[test]
    fn tiny_inputs() {
        check(&Graph::empty(0), &GeneralCcConfig::default());
        check(&Graph::from_edges(2, &[(0, 1)]), &GeneralCcConfig::default());
        check(&Graph::from_edges(5, &[(0, 1), (3, 4)]), &GeneralCcConfig::default());
    }
}
