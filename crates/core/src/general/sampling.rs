//! Uniform edge sampling and the KKT bound (Theorem 4.3 / Corollary 4.4).
//!
//! Theorem 4.3 (KKT95): if `H` is obtained from `G` by keeping each edge
//! independently with probability `p`, the expected number of edges of `G`
//! connecting distinct components of `H` is at most `n/p`.
//!
//! Corollary 4.4: with `p = √(n/m)` (so that `|E(H)| ≈ mp = √(mn)` too),
//! both `H` and `Contract(G, C_H)` have `O(√(mn))` edges in expectation —
//! the balance Algorithm 2 exploits to halve the exponent of the average
//! degree at each level of recursion.

use ampc::rng::Draws;
use ampc_graph::{reference_components, Graph, VertexId};

/// Keeps each edge of `g` independently with probability `p`
/// (deterministically, from `seed`): edge `{u, v}`, `u < v`, is kept on
/// the Bernoulli draw of `stream(seed, 0, u, v)`. The vertex set is
/// unchanged.
pub fn sample_edges(g: &Graph, p: f64, seed: u64) -> Graph {
    // `filter_edges` asks row by row, so the family of row `u` is folded
    // once per row, not once per edge.
    let mut row = (VertexId::MAX, Draws::new(seed, 0, VertexId::MAX as u64));
    g.filter_edges(|u, v| {
        if row.0 != u {
            row = (u, Draws::new(seed, 0, u as u64));
        }
        row.1.at(v as u64).bernoulli(p)
    })
}

/// Number of edges of `g` whose endpoints lie in different components of
/// the subgraph `h` (the quantity Theorem 4.3 bounds by `n/p`).
pub fn crossing_edges(g: &Graph, h: &Graph) -> usize {
    assert_eq!(g.n(), h.n());
    let labels = reference_components(h);
    g.edges().filter(|&(u, v)| labels.get(u) != labels.get(v)).count()
}

/// The sampling probability Algorithm 2 uses: `p = 1/d` with `d = √(m/n)`,
/// clamped to `(0, 1]`.
pub fn algorithm2_sample_probability(n: usize, m: usize) -> f64 {
    if m == 0 {
        return 1.0;
    }
    let d = (m as f64 / n.max(1) as f64).sqrt().max(1.0);
    (1.0 / d).clamp(f64::MIN_POSITIVE, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::rng::stream;
    use ampc_graph::generators::erdos_renyi_gnm;

    #[test]
    fn sampling_keeps_roughly_pm_edges() {
        let g = erdos_renyi_gnm(2000, 20_000, 1);
        let h = sample_edges(&g, 0.25, 7);
        let kept = h.m() as f64;
        assert!((kept - 5000.0).abs() < 600.0, "kept {kept} of 20000 at p=0.25");
        assert_eq!(h.n(), g.n());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = erdos_renyi_gnm(500, 3000, 2);
        assert_eq!(sample_edges(&g, 0.5, 9), sample_edges(&g, 0.5, 9));
        assert_ne!(sample_edges(&g, 0.5, 9), sample_edges(&g, 0.5, 10));
    }

    #[test]
    fn kkt_bound_holds_on_random_graphs() {
        // Theorem 4.3: E[crossing] ≤ n/p. Check the empirical value with
        // slack over a few seeds.
        let n = 3000;
        let g = erdos_renyi_gnm(n, 30_000, 3);
        let p = 0.2;
        for seed in 0..3 {
            let h = sample_edges(&g, p, seed);
            let crossing = crossing_edges(&g, &h);
            let bound = (n as f64 / p) * 2.0; // 2× slack over expectation
            assert!((crossing as f64) < bound, "crossing {crossing} vs bound {bound}");
        }
    }

    #[test]
    fn corollary_44_balance() {
        // With p = √(n/m): both |E(H)| and crossing edges are O(√(mn)).
        let n = 2000;
        let m = 32_000;
        let g = erdos_renyi_gnm(n, m, 4);
        let p = algorithm2_sample_probability(n, m);
        let h = sample_edges(&g, p, 11);
        let sqrt_mn = ((m as f64) * (n as f64)).sqrt();
        assert!((h.m() as f64) < 3.0 * sqrt_mn, "|E(H)| = {} vs √(mn) = {sqrt_mn}", h.m());
        let crossing = crossing_edges(&g, &h) as f64;
        assert!(crossing < 6.0 * sqrt_mn, "crossing {crossing} vs √(mn) = {sqrt_mn}");
    }

    #[test]
    fn probability_clamps() {
        assert_eq!(algorithm2_sample_probability(100, 0), 1.0);
        assert_eq!(algorithm2_sample_probability(100, 50), 1.0); // m < n → d = 1
        let p = algorithm2_sample_probability(100, 10_000);
        assert!((p - 0.1).abs() < 1e-9);
    }

    /// The sample `sample_edges` drew before it filtered the CSR: the kept
    /// edges collected into a list and built by `from_edges`.
    fn sample_by_edge_list(g: &Graph, p: f64, seed: u64) -> Graph {
        let edges: Vec<_> =
            g.edges().filter(|&(u, v)| stream(seed, 0, u as u64, v as u64).bernoulli(p)).collect();
        Graph::from_edges(g.n(), &edges)
    }

    #[test]
    fn sample_equals_edge_list_reference() {
        for family in ampc_graph::generators::GraphFamily::ALL {
            let g = family.generate(300, 3);
            for seed in 0..5 {
                for p in [0.0, 1e-3, 0.5, 1.0, algorithm2_sample_probability(g.n(), g.m())] {
                    assert_eq!(
                        sample_edges(&g, p, seed),
                        sample_by_edge_list(&g, p, seed),
                        "{} seed {seed} p={p}",
                        family.name()
                    );
                }
            }
        }
    }

    #[test]
    fn p_one_is_identity() {
        let g = erdos_renyi_gnm(300, 1000, 5);
        assert_eq!(sample_edges(&g, 1.0, 1), g);
        assert_eq!(crossing_edges(&g, &g), 0);
    }
}
