//! Forests to cycles: the Euler-tour reduction of Observation 3.1.
//!
//! Following Tarjan–Vishkin (TV85) as used by the paper: replace each edge
//! by two oppositely directed arcs; a vertex `v` of degree `d` splits into
//! `d` copies `v_0 … v_{d-1}`, where copy `v_j` represents the arc entering
//! `v` from its `j`-th neighbor. The successor of the arc entering `v` from
//! neighbor `j` is the arc leaving `v` to neighbor `(j+1) mod d` — i.e. the
//! arc entering that neighbor from `v`. On a forest this decomposes the arc
//! set into one cycle per tree: a tree on `k > 1` vertices becomes a cycle
//! of length `2k − 2`.
//!
//! This is a **CC-shrinking** step in the paper's sense: a CC-labeling of
//! the cycles plus the copy→original mapping yields a CC-labeling of the
//! forest (labels transfer through `origin`).

use crate::csr::{block_starts, Forest, Graph, VertexId};

/// A vertex-disjoint collection of cycles, represented by a successor
/// permutation over *cycle vertices* plus the mapping back to original
/// vertices.
#[derive(Clone, Debug)]
pub struct CycleDecomposition {
    /// Successor permutation: `succ[a]` is the next cycle vertex after `a`.
    pub succ: Vec<u32>,
    /// `origin[a]` = original vertex that cycle vertex `a` is a copy of.
    pub origin: Vec<VertexId>,
    /// Original vertices of degree zero (each trivially its own component).
    pub isolated: Vec<VertexId>,
}

impl CycleDecomposition {
    /// Number of cycle vertices.
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// True when there are no cycle vertices (edgeless input).
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// Debug invariant: `succ` is a permutation (every vertex has exactly
    /// one predecessor).
    pub fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.succ.len()];
        for &s in &self.succ {
            let i = s as usize;
            if i >= seen.len() || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        true
    }

    /// Lengths of all cycles, found by walking the permutation.
    pub fn cycle_lengths(&self) -> Vec<usize> {
        let mut visited = vec![false; self.succ.len()];
        let mut lengths = Vec::new();
        for start in 0..self.succ.len() {
            if visited[start] {
                continue;
            }
            let mut len = 0;
            let mut cur = start;
            while !visited[cur] {
                visited[cur] = true;
                len += 1;
                cur = self.succ[cur] as usize;
            }
            lengths.push(len);
        }
        lengths
    }
}

/// Performs the forest→cycles reduction: [`Forest::cycles`], after proving
/// `g` acyclic.
///
/// # Panics
/// Panics if `g` is not a forest (the construction is only meaningful — and
/// only used by the paper — on forests).
pub fn forest_to_cycles(g: &Graph) -> CycleDecomposition {
    g.as_forest().expect("forest_to_cycles requires a forest input").cycles()
}

impl Forest<'_> {
    /// The forest→cycles reduction: the Euler tour of every tree, one cycle
    /// per tree with an edge. The proof is the precondition, so nothing is
    /// checked here.
    pub fn cycles(&self) -> CycleDecomposition {
        let g = self.graph();
        let n = g.n();

        // base[v] = first arc id of v's copies; copies are laid out densely.
        let base = block_starts((0..n as VertexId).map(|v| g.degree(v)), "the Euler tour");
        let total_arcs = base[n] as usize;

        let isolated = (0..n as VertexId).filter(|&v| g.degree(v) == 0).collect();

        // Cycle vertex base[v] + j is the arc entering v from its j-th neighbor.
        // Its successor is the arc leaving v toward neighbor i = (j + 1) mod d,
        // i.e. the arc entering w := nbrs[i] from v: w's copy k, where v is w's
        // k-th neighbor. So neighbor i's arc is the successor of slot i − 1, or
        // of v's last slot when i = 0. The same pass writes slot i's origin.
        let mut origin = vec![0 as VertexId; total_arcs];
        let mut succ = vec![0u32; total_arcs];
        g.for_each_arc(|v, i, w, k| {
            let b = base[v as usize];
            origin[(b + i as u32) as usize] = v;
            let slot = match i {
                0 => base[v as usize + 1] - 1,
                _ => b + i as u32 - 1,
            };
            succ[slot as usize] = base[w as usize] + k as u32;
        });

        CycleDecomposition { succ, origin, isolated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_forest, ForestFamily};
    use crate::reference_components;

    /// The successor map the cursor pass replaced: one binary search per
    /// arc for `v`'s position in the next neighbor's list.
    fn succ_by_binary_search(g: &Graph) -> Vec<u32> {
        let mut base = vec![0u32; g.n() + 1];
        for v in 0..g.n() {
            base[v + 1] = base[v] + g.degree(v as VertexId) as u32;
        }
        let mut succ = vec![0u32; base[g.n()] as usize];
        for v in 0..g.n() as VertexId {
            let nbrs = g.neighbors(v);
            for j in 0..nbrs.len() {
                let w = nbrs[(j + 1) % nbrs.len()];
                let pos = g.neighbors(w).binary_search(&v).expect("CSR symmetric");
                succ[(base[v as usize] + j as u32) as usize] = base[w as usize] + pos as u32;
            }
        }
        succ
    }

    #[test]
    fn cursor_pass_equals_binary_search() {
        for family in ForestFamily::ALL {
            for seed in 0..3 {
                let g = family.generate(300, seed);
                let c = forest_to_cycles(&g);
                assert_eq!(c.succ, succ_by_binary_search(&g), "{} seed {seed}", family.name());
            }
        }
        // Shapes whose blocks wrap at i = 0 in every way: a star (one block
        // of every other vertex's degree 1), a path (ends of degree 1,
        // interior of degree 2), one edge, and isolated vertices on either
        // side of the trees (empty blocks).
        let shapes = [
            ("star", Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])),
            ("path", Graph::from_edges(5, &[(3, 1), (1, 0), (0, 4), (4, 2)])),
            ("edge", Graph::from_edges(2, &[(1, 0)])),
            ("isolated", Graph::from_edges(7, &[(1, 2), (2, 4), (5, 4)])),
            ("large", random_forest(1 << 12, 1 << 4, 7)),
        ];
        for (name, g) in shapes {
            assert_eq!(forest_to_cycles(&g).succ, succ_by_binary_search(&g), "{name}");
        }
    }

    #[test]
    fn single_edge_becomes_2_cycle() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let c = forest_to_cycles(&g);
        assert_eq!(c.len(), 2);
        assert!(c.is_permutation());
        assert_eq!(c.cycle_lengths(), vec![2]);
    }

    #[test]
    fn tree_of_k_vertices_gives_cycle_2k_minus_2() {
        // Star on 5 vertices (k=5 → cycle length 8).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let c = forest_to_cycles(&g);
        assert_eq!(c.cycle_lengths(), vec![8]);
        // Path on 6 vertices (k=6 → 10).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let c = forest_to_cycles(&g);
        assert_eq!(c.cycle_lengths(), vec![10]);
    }

    #[test]
    fn forest_gives_one_cycle_per_nontrivial_tree() {
        // Two trees (sizes 3 and 4) + one isolated vertex.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]);
        let c = forest_to_cycles(&g);
        let mut lens = c.cycle_lengths();
        lens.sort_unstable();
        assert_eq!(lens, vec![4, 6]);
        assert_eq!(c.isolated, vec![7]);
    }

    #[test]
    fn cycle_components_match_tree_components() {
        // Every cycle stays within one original tree: walking a cycle must
        // visit origins of a single reference component.
        let g = Graph::from_edges(10, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (8, 9)]);
        let c = forest_to_cycles(&g);
        let refl = reference_components(&g);
        let mut visited = vec![false; c.len()];
        for start in 0..c.len() {
            if visited[start] {
                continue;
            }
            let comp = refl.get(c.origin[start]);
            let mut cur = start;
            let mut origins = std::collections::HashSet::new();
            while !visited[cur] {
                visited[cur] = true;
                assert_eq!(refl.get(c.origin[cur]), comp);
                origins.insert(c.origin[cur]);
                cur = c.succ[cur] as usize;
            }
            // The Euler tour visits every vertex of its tree.
            let tree_size = (0..g.n() as VertexId).filter(|&v| refl.get(v) == comp).count();
            assert_eq!(origins.len(), tree_size);
        }
    }

    #[test]
    fn predecessors_invert_successors() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)]);
        let c = forest_to_cycles(&g);
        let mut pred = vec![u32::MAX; c.len()];
        for (a, &s) in c.succ.iter().enumerate() {
            pred[s as usize] = a as u32;
        }
        for a in 0..c.len() {
            assert_eq!(pred[c.succ[a] as usize], a as u32);
            assert_eq!(c.succ[pred[a] as usize], a as u32);
        }
    }

    #[test]
    #[should_panic(expected = "requires a forest")]
    fn rejects_cyclic_input() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        forest_to_cycles(&g);
    }

    #[test]
    fn edgeless_graph_all_isolated() {
        let g = Graph::empty(3);
        let c = forest_to_cycles(&g);
        assert!(c.is_empty());
        assert_eq!(c.isolated.len(), 3);
    }
}
