//! General-graph generators for Theorem 1.2 workloads.

use std::collections::HashSet;

use ampc::rng::SplitMix64;

use crate::csr::{Graph, VertexId};

/// Erdős–Rényi `G(n, m)`: `m` distinct uniformly random edges.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0, "G(n,m) needs two vertices to draw an edge from");
    let max_m = n * n.saturating_sub(1) / 2;
    assert!(m <= max_m, "G(n,m) requested more edges than possible");
    let mut rng = SplitMix64::new(seed);
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.next_below(n as u64) as VertexId;
        let v = rng.next_below(n as u64) as VertexId;
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if seen.insert(e) {
            edges.push(e);
        }
    }
    Graph::from_edges(n, &edges)
}

/// A `rows × cols` grid graph: bounded degree, large diameter — the shape
/// where MPC algorithms pay `Θ(log D)` rounds and AMPC does not.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A barbell: two `k`-cliques joined by a path of `bridge` vertices. Dense
/// ends with a sparse cut — stresses the KKT sampling bound.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    let n = 2 * k + bridge;
    let mut edges = Vec::new();
    for u in 0..k as VertexId {
        for v in (u + 1)..k as VertexId {
            edges.push((u, v));
            edges.push((u + (k + bridge) as VertexId, v + (k + bridge) as VertexId));
        }
    }
    // Path from clique 1 through the bridge into clique 2.
    let mut prev = (k - 1) as VertexId;
    for b in 0..bridge as VertexId {
        edges.push((prev, k as VertexId + b));
        prev = k as VertexId + b;
    }
    edges.push((prev, (k + bridge) as VertexId));
    Graph::from_edges(n, &edges)
}

/// Preferential attachment (Barabási–Albert style): each new vertex adds
/// `edges_per` edges to endpoints sampled proportionally to degree.
/// Produces the heavy-tailed degree distributions of web/social graphs.
pub fn preferential_attachment(n: usize, edges_per: usize, seed: u64) -> Graph {
    assert!(n >= 2 && edges_per >= 1);
    let mut rng = SplitMix64::new(seed);
    // `targets` holds one entry per edge endpoint; sampling uniformly from
    // it is degree-proportional sampling.
    let mut targets: Vec<VertexId> = vec![0, 1];
    let mut edges: Vec<(VertexId, VertexId)> = vec![(0, 1)];
    for v in 2..n as VertexId {
        let k = edges_per.min(v as usize);
        // Kept in draw order (k is tiny): iterating a `HashSet` here made the
        // edge order, hence `targets` and the graph, differ from run to run.
        let mut chosen: Vec<VertexId> = Vec::with_capacity(k);
        while chosen.len() < k {
            let t = targets[rng.next_below(targets.len() as u64) as usize];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            edges.push((v, t));
            targets.push(v);
            targets.push(t);
        }
    }
    Graph::from_edges(n, &edges)
}

/// `count` disjoint cliques of `size` vertices each: many dense components.
pub fn disjoint_cliques(count: usize, size: usize) -> Graph {
    let n = count * size;
    let mut edges = Vec::new();
    for c in 0..count {
        let base = (c * size) as VertexId;
        for u in 0..size as VertexId {
            for v in (u + 1)..size as VertexId {
                edges.push((base + u, base + v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Disjoint union of graphs, relabeling each block's vertices consecutively.
pub fn disjoint_union(parts: &[Graph]) -> Graph {
    let n: usize = parts.iter().map(Graph::n).sum();
    let mut edges = Vec::with_capacity(parts.iter().map(Graph::m).sum());
    let mut base = 0 as VertexId;
    for g in parts {
        for (u, v) in g.edges() {
            edges.push((base + u, base + v));
        }
        base += g.n() as VertexId;
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)`: every pair kept independently with probability
/// `p`. Prefer [`erdos_renyi_gnm`] for exact edge counts; `gnp` matches
/// the classical sampling model used in Theorem 4.3-style analyses.
pub fn erdos_renyi_gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.bernoulli(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A lollipop: a `k`-clique with a path tail of `tail` vertices. Dense core
/// plus high-diameter appendage — both MPC pain points in one graph.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    let n = k + tail;
    let mut edges = Vec::with_capacity(k * (k - 1) / 2 + tail);
    for u in 0..k as VertexId {
        for v in (u + 1)..k as VertexId {
            edges.push((u, v));
        }
    }
    let mut prev = (k - 1) as VertexId;
    for tvx in 0..tail as VertexId {
        edges.push((prev, k as VertexId + tvx));
        prev = k as VertexId + tvx;
    }
    Graph::from_edges(n, &edges)
}

/// A random bipartite graph with sides `a`, `b` and `m` distinct edges.
pub fn random_bipartite(a: usize, b: usize, m: usize, seed: u64) -> Graph {
    assert!(m <= a * b, "requested more edges than the biclique has");
    let mut rng = SplitMix64::new(seed);
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.next_below(a as u64) as VertexId;
        let v = (a + rng.next_below(b as u64) as usize) as VertexId;
        if seen.insert((u, v)) {
            edges.push((u, v));
        }
    }
    Graph::from_edges(a + b, &edges)
}

/// Named general-graph families for the benchmark harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFamily {
    /// Sparse ER graph with average degree 4.
    SparseER,
    /// Denser ER graph with average degree 16.
    DenseER,
    /// Square grid.
    Grid,
    /// Preferential-attachment graph (3 edges per vertex).
    PowerLaw,
    /// `√n` disjoint cliques of size `√n`.
    CliqueField,
    /// Lollipop: `√n`-clique with a long tail.
    Lollipop,
    /// Sparse random bipartite graph.
    Bipartite,
}

impl GraphFamily {
    /// All families, for sweeps.
    pub const ALL: [GraphFamily; 7] = [
        GraphFamily::SparseER,
        GraphFamily::DenseER,
        GraphFamily::Grid,
        GraphFamily::PowerLaw,
        GraphFamily::CliqueField,
        GraphFamily::Lollipop,
        GraphFamily::Bipartite,
    ];

    /// Generates roughly `n` vertices of this family.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        match self {
            GraphFamily::SparseER => erdos_renyi_gnm(n, 2 * n, seed),
            GraphFamily::DenseER => erdos_renyi_gnm(n, 8 * n, seed),
            GraphFamily::Grid => {
                let side = (n as f64).sqrt().ceil() as usize;
                grid2d(side, side)
            }
            GraphFamily::PowerLaw => preferential_attachment(n, 3, seed),
            GraphFamily::CliqueField => {
                let s = (n as f64).sqrt().ceil() as usize;
                disjoint_cliques(s, s)
            }
            GraphFamily::Lollipop => {
                let k = (n as f64).sqrt().ceil().max(3.0) as usize;
                lollipop(k, n.saturating_sub(k))
            }
            GraphFamily::Bipartite => random_bipartite(n / 2, n - n / 2, 2 * n, seed),
        }
    }

    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            GraphFamily::SparseER => "sparse-er",
            GraphFamily::DenseER => "dense-er",
            GraphFamily::Grid => "grid",
            GraphFamily::PowerLaw => "power-law",
            GraphFamily::CliqueField => "clique-field",
            GraphFamily::Lollipop => "lollipop",
            GraphFamily::Bipartite => "bipartite",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_components;

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = erdos_renyi_gnm(100, 250, 1);
        assert_eq!(g.n(), 100);
        assert_eq!(g.m(), 250);
    }

    #[test]
    fn gnm_deterministic_per_seed() {
        assert_eq!(erdos_renyi_gnm(50, 100, 5), erdos_renyi_gnm(50, 100, 5));
        assert_ne!(erdos_renyi_gnm(50, 100, 5), erdos_renyi_gnm(50, 100, 6));
    }

    /// A draw whose range would be empty is refused by a named assert
    /// before it is drawn: `next_below(0)` is 0 in a release build.
    #[test]
    fn an_empty_draw_range_is_refused() {
        let refused = |build: fn() -> Graph| std::panic::catch_unwind(build).is_err();
        assert!(refused(|| erdos_renyi_gnm(1, 1, 0)));
        assert!(refused(|| erdos_renyi_gnm(0, 1, 0)));
        assert!(refused(|| random_bipartite(0, 5, 1, 0)));
        assert!(refused(|| random_bipartite(5, 0, 1, 0)));
    }

    #[test]
    fn grid_structure() {
        let g = grid2d(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(reference_components(&g).num_components(), 1);
        assert!(g.max_degree() <= 4);
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn barbell_is_connected_with_sparse_cut() {
        let g = barbell(10, 5);
        assert_eq!(g.n(), 25);
        assert_eq!(reference_components(&g).num_components(), 1);
        assert_eq!(g.m(), 2 * 45 + 6);
    }

    #[test]
    fn preferential_attachment_connected_and_skewed() {
        let g = preferential_attachment(2000, 3, 9);
        assert_eq!(reference_components(&g).num_components(), 1);
        // Heavy tail: max degree far exceeds the average.
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(g.max_degree() as f64 > 4.0 * avg, "max {} avg {avg}", g.max_degree());
    }

    #[test]
    fn clique_field_components() {
        let g = disjoint_cliques(7, 5);
        assert_eq!(reference_components(&g).num_components(), 7);
        assert_eq!(g.m(), 7 * 10);
    }

    #[test]
    fn disjoint_union_offsets_blocks() {
        let a = complete(3);
        let b = grid2d(2, 2);
        let u = disjoint_union(&[a, b]);
        assert_eq!(u.n(), 7);
        assert_eq!(u.m(), 3 + 4);
        assert_eq!(reference_components(&u).num_components(), 2);
    }

    #[test]
    fn families_generate_reasonable_sizes() {
        for fam in GraphFamily::ALL {
            let g = fam.generate(400, 11);
            assert!(g.n() >= 300, "{} too small", fam.name());
            assert!(g.m() > 0);
            assert_eq!(g, fam.generate(400, 11), "{} is not a function of its seed", fam.name());
        }
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let g = erdos_renyi_gnp(200, 0.1, 3);
        let expected = 0.1 * (200.0 * 199.0 / 2.0);
        assert!((g.m() as f64 - expected).abs() < 0.25 * expected);
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(10, 20);
        assert_eq!(g.n(), 30);
        assert_eq!(g.m(), 45 + 20);
        assert_eq!(reference_components(&g).num_components(), 1);
    }

    #[test]
    fn bipartite_has_no_odd_cycles_within_sides() {
        let g = random_bipartite(50, 60, 200, 5);
        assert_eq!(g.n(), 110);
        assert_eq!(g.m(), 200);
        // No edge inside a side.
        for (u, v) in g.edges() {
            assert!((u < 50) != (v < 50), "edge ({u},{v}) within one side");
        }
    }
}
