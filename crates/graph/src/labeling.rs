//! Connected-components labelings (the paper's `CC-labeling`, §2).
//!
//! A CC-labeling maps each vertex to a label such that two vertices share a
//! label iff they are in the same connected component. Labels are arbitrary
//! (`A` is "an arbitrary set" in Definition 2.1), so comparisons go through
//! canonicalization: relabel every component by its minimum vertex id.

use crate::csr::{Graph, VertexId};
use crate::unionfind::UnionFind;

/// A labeling of vertices `0..n` by 64-bit component identifiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling(pub Vec<u64>);

impl Labeling {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the labeling covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> u64 {
        self.0[v as usize]
    }

    /// Number of distinct labels.
    pub fn num_components(&self) -> usize {
        let mut labels: Vec<u64> = self.0.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Iterates `(vertex, label)` pairs in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, u64)> + '_ {
        self.0.iter().enumerate().map(|(v, &l)| (v as VertexId, l))
    }

    /// Size of every label class, keyed by label. Shared by the structural
    /// metrics and the component-index builder, which both need the
    /// per-component vertex counts of an arbitrary labeling.
    pub fn component_sizes(&self) -> std::collections::HashMap<u64, usize> {
        let mut sizes = std::collections::HashMap::new();
        for &l in &self.0 {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
        sizes
    }

    /// Canonical form: every vertex labeled by the minimum vertex id in its
    /// label class. Two labelings induce the same partition iff their
    /// canonical forms are equal.
    pub fn canonical(&self) -> Vec<u64> {
        use std::collections::HashMap;
        let mut min_of: HashMap<u64, u64> = HashMap::new();
        for (v, &l) in self.0.iter().enumerate() {
            min_of.entry(l).and_modify(|m| *m = (*m).min(v as u64)).or_insert(v as u64);
        }
        self.0.iter().map(|l| min_of[l]).collect()
    }

    /// True iff `self` and `other` induce the same partition of vertices.
    pub fn same_partition(&self, other: &Labeling) -> bool {
        self.len() == other.len() && self.canonical() == other.canonical()
    }

    /// True iff this labeling is a valid CC-labeling of `g`: endpoints of
    /// every edge share a label, and the number of distinct labels equals
    /// the true component count.
    pub fn validates(&self, g: &Graph) -> bool {
        if self.len() != g.n() {
            return false;
        }
        let mut uf = UnionFind::new(g.n());
        for (u, v) in g.edges() {
            if self.get(u) != self.get(v) {
                return false;
            }
            uf.union(u, v);
        }
        // Every true component carries one label now, so the distinct labels
        // are those of the union-find roots: one per component, no two equal.
        let mut labels: Vec<u64> =
            self.iter().filter(|&(v, _)| uf.find(v) == v).map(|(_, label)| label).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len() == uf.num_components()
    }
}

/// Ground-truth components of `g` via sequential union-find.
pub fn reference_components(g: &Graph) -> Labeling {
    let mut uf = UnionFind::new(g.n());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    Labeling(uf.labels())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_paths() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)])
    }

    #[test]
    fn reference_matches_structure() {
        let l = reference_components(&two_paths());
        assert_eq!(l.num_components(), 2);
        assert_eq!(l.get(0), l.get(2));
        assert_ne!(l.get(0), l.get(3));
    }

    #[test]
    fn same_partition_is_label_invariant() {
        let a = Labeling(vec![7, 7, 7, 9, 9, 9]);
        let b = Labeling(vec![100, 100, 100, 3, 3, 3]);
        assert!(a.same_partition(&b));
        let c = Labeling(vec![1, 1, 2, 2, 2, 2]);
        assert!(!a.same_partition(&c));
    }

    #[test]
    fn validates_accepts_correct_and_rejects_wrong() {
        let g = two_paths();
        assert!(Labeling(vec![5, 5, 5, 8, 8, 8]).validates(&g));
        // merges two true components:
        assert!(!Labeling(vec![5, 5, 5, 5, 5, 5]).validates(&g));
        // splits a true component:
        assert!(!Labeling(vec![5, 5, 6, 8, 8, 8]).validates(&g));
        // wrong length:
        assert!(!Labeling(vec![1, 1, 1]).validates(&g));
    }

    #[test]
    fn isolated_vertices_get_unique_labels() {
        let g = Graph::empty(4);
        let l = reference_components(&g);
        assert_eq!(l.num_components(), 4);
    }

    #[test]
    fn iter_yields_vertex_label_pairs_in_order() {
        let l = Labeling(vec![9, 9, 3]);
        let pairs: Vec<_> = l.iter().collect();
        assert_eq!(pairs, vec![(0, 9), (1, 9), (2, 3)]);
        assert_eq!(Labeling(vec![]).iter().count(), 0);
    }

    #[test]
    fn component_sizes_counts_every_class() {
        let l = Labeling(vec![7, 7, 7, 9, 9, 42]);
        let sizes = l.component_sizes();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes[&7], 3);
        assert_eq!(sizes[&9], 2);
        assert_eq!(sizes[&42], 1);
        assert!(Labeling(vec![]).component_sizes().is_empty());
    }

    #[test]
    fn component_sizes_agrees_with_reference() {
        let g = two_paths();
        let sizes = reference_components(&g).component_sizes();
        assert_eq!(sizes.values().sum::<usize>(), g.n());
        assert!(sizes.values().all(|&s| s == 3));
    }
}
