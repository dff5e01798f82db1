//! Forest generators for Theorem 1.1 workloads.

use ampc::rng::SplitMix64;

use crate::csr::{Graph, VertexId};

/// A path on `n` vertices: the adversarial shape for naive uniform sampling
/// (§1.3's motivating example).
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (0..n.saturating_sub(1) as VertexId).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges)
}

/// A star on `n` vertices (center 0): maximal degree skew.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n as VertexId).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges)
}

/// A balanced binary tree on `n` vertices (heap layout).
pub fn balanced_binary_tree(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n as VertexId {
        edges.push(((i - 1) / 2, i));
    }
    Graph::from_edges(n, &edges)
}

/// A caterpillar: a spine path where every spine vertex carries `legs`
/// pendant leaves. Total vertex count is `spine * (1 + legs)`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine * (1 + legs);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for s in 0..spine as VertexId {
        if s + 1 < spine as VertexId {
            edges.push((s, s + 1));
        }
        for l in 0..legs as VertexId {
            edges.push((s, spine as VertexId + s * legs as VertexId + l));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A uniform random-attachment tree on `n` vertices: vertex `i` attaches to
/// a uniformly random earlier vertex. Produces depth `Θ(log n)` trees with
/// realistic degree variation.
pub fn random_attachment_tree(n: usize, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n as VertexId {
        let parent = rng.next_below(u64::from(i)) as VertexId;
        edges.push((parent, i));
    }
    Graph::from_edges(n, &edges)
}

/// A forest of `trees` random-attachment trees over `n` vertices total,
/// sizes split near-evenly.
pub fn random_forest(n: usize, trees: usize, seed: u64) -> Graph {
    assert!(trees >= 1 && trees <= n.max(1));
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(n.saturating_sub(trees));
    let per = n / trees;
    let mut start = 0usize;
    for t in 0..trees {
        let size = if t == trees - 1 { n - start } else { per };
        for i in 1..size {
            let parent = rng.next_below(i as u64) as usize;
            edges.push(((start + parent) as VertexId, (start + i) as VertexId));
        }
        start += size;
    }
    Graph::from_edges(n, &edges)
}

/// A spider: `legs` paths of `leg_len` vertices joined at a hub. Mixes one
/// high-degree vertex with long path stretches.
pub fn spider(legs: usize, leg_len: usize) -> Graph {
    let n = 1 + legs * leg_len;
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for l in 0..legs {
        let base = (1 + l * leg_len) as VertexId;
        edges.push((0, base));
        for i in 1..leg_len as VertexId {
            edges.push((base + i - 1, base + i));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A complete `k`-ary tree on `n` vertices (heap layout).
pub fn kary_tree(n: usize, k: usize) -> Graph {
    assert!(k >= 1);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n as VertexId {
        edges.push(((i - 1) / k as VertexId, i));
    }
    Graph::from_edges(n, &edges)
}

/// A broom: a path handle of `handle` vertices ending in `bristles`
/// pendant leaves — a path and a star glued together.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(handle >= 1);
    let n = handle + bristles;
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..handle as VertexId {
        edges.push((i - 1, i));
    }
    for b in 0..bristles as VertexId {
        edges.push(((handle - 1) as VertexId, handle as VertexId + b));
    }
    Graph::from_edges(n, &edges)
}

/// Named forest families for the benchmark harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForestFamily {
    /// Single path: worst case for uniform sampling.
    Path,
    /// Single star: worst degree skew.
    Star,
    /// Balanced binary tree.
    BinaryTree,
    /// Caterpillar with 4 legs per spine vertex.
    Caterpillar,
    /// One random-attachment tree.
    RandomTree,
    /// `√n` random trees: many mid-sized components.
    ManyTrees,
    /// Forest of 3-vertex paths: stresses the additive term of Lemma 3.10
    /// (tiny cycles after the Euler reduction).
    TinyTrees,
    /// Spider with `√n` legs: hub degree skew plus long paths.
    Spider,
    /// Complete 8-ary tree: shallow, bushy.
    KaryTree,
    /// Broom: half path, half star.
    Broom,
}

impl ForestFamily {
    /// All families, for sweeps.
    pub const ALL: [ForestFamily; 10] = [
        ForestFamily::Path,
        ForestFamily::Star,
        ForestFamily::BinaryTree,
        ForestFamily::Caterpillar,
        ForestFamily::RandomTree,
        ForestFamily::ManyTrees,
        ForestFamily::TinyTrees,
        ForestFamily::Spider,
        ForestFamily::KaryTree,
        ForestFamily::Broom,
    ];

    /// Generates an `n`-vertex forest of this family.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        match self {
            ForestFamily::Path => path(n),
            ForestFamily::Star => star(n),
            ForestFamily::BinaryTree => balanced_binary_tree(n),
            ForestFamily::Caterpillar => caterpillar(n.div_ceil(5).max(1), 4),
            ForestFamily::RandomTree => random_attachment_tree(n, seed),
            ForestFamily::ManyTrees => {
                random_forest(n, (n as f64).sqrt().ceil().max(1.0) as usize, seed)
            }
            ForestFamily::TinyTrees => random_forest(n, (n / 3).max(1), seed),
            ForestFamily::Spider => {
                let legs = (n as f64).sqrt().ceil().max(1.0) as usize;
                spider(legs, (n.saturating_sub(1) / legs).max(1))
            }
            ForestFamily::KaryTree => kary_tree(n, 8),
            ForestFamily::Broom => broom(n.div_ceil(2), n / 2),
        }
    }

    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            ForestFamily::Path => "path",
            ForestFamily::Star => "star",
            ForestFamily::BinaryTree => "binary-tree",
            ForestFamily::Caterpillar => "caterpillar",
            ForestFamily::RandomTree => "random-tree",
            ForestFamily::ManyTrees => "many-trees",
            ForestFamily::TinyTrees => "tiny-trees",
            ForestFamily::Spider => "spider",
            ForestFamily::KaryTree => "kary-tree",
            ForestFamily::Broom => "broom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_components;

    #[test]
    fn path_shape() {
        let g = path(10);
        assert_eq!(g.m(), 9);
        assert!(g.as_forest().is_some());
        assert_eq!(g.max_degree(), 2);
        assert_eq!(reference_components(&g).num_components(), 1);
    }

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!(g.as_forest().is_some());
    }

    #[test]
    fn binary_tree_is_connected_forest() {
        let g = balanced_binary_tree(31);
        assert!(g.as_forest().is_some());
        assert_eq!(reference_components(&g).num_components(), 1);
        assert!(g.max_degree() <= 3);
    }

    #[test]
    fn caterpillar_counts() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        assert!(g.as_forest().is_some());
        assert_eq!(reference_components(&g).num_components(), 1);
    }

    #[test]
    fn random_forest_component_count() {
        let g = random_forest(1000, 10, 42);
        assert!(g.as_forest().is_some());
        assert_eq!(reference_components(&g).num_components(), 10);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_attachment_tree(500, 7), random_attachment_tree(500, 7));
        assert_ne!(random_attachment_tree(500, 7), random_attachment_tree(500, 8));
    }

    #[test]
    fn all_families_produce_forests() {
        for fam in ForestFamily::ALL {
            let g = fam.generate(200, 3);
            assert!(g.as_forest().is_some(), "{} not a forest", fam.name());
            assert!(g.n() >= 100, "{} too small: {}", fam.name(), g.n());
        }
    }

    #[test]
    fn spider_shape() {
        let g = spider(5, 10);
        assert_eq!(g.n(), 51);
        assert!(g.as_forest().is_some());
        assert_eq!(g.degree(0), 5);
        assert_eq!(reference_components(&g).num_components(), 1);
    }

    #[test]
    fn kary_tree_shape() {
        let g = kary_tree(73, 8);
        assert!(g.as_forest().is_some());
        assert_eq!(g.degree(0), 8);
        assert_eq!(reference_components(&g).num_components(), 1);
    }

    #[test]
    fn broom_shape() {
        let g = broom(10, 15);
        assert_eq!(g.n(), 25);
        assert!(g.as_forest().is_some());
        assert_eq!(g.degree(9), 16); // handle end: 1 path edge + 15 bristles
        assert_eq!(reference_components(&g).num_components(), 1);
    }
}
