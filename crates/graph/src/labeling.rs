//! Connected-components labelings (the paper's `CC-labeling`, §2).
//!
//! A CC-labeling maps each vertex to a label such that two vertices share a
//! label iff they are in the same connected component. Labels are arbitrary
//! (`A` is "an arbitrary set" in Definition 2.1), so every partition question
//! — counting classes, comparing partitions, contracting along one, indexing
//! one — goes through [`relabel`], which numbers the classes densely by
//! their minimum vertex.

use ampc::rng::mix;

use crate::csr::{Graph, VertexId};
use crate::unionfind::UnionFind;

/// A partition in first-appearance canonical form: its classes numbered
/// `0..sizes.len()` in order of each class's minimum vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeled {
    /// `class_of[v]` = dense id of `v`'s class.
    pub class_of: Vec<VertexId>,
    /// `sizes[d]` = number of vertices in class `d`.
    pub sizes: Vec<u32>,
}

/// Relabels one label per vertex to dense class ids, assigned in order of
/// first appearance scanning vertices `0..n` (so by each class's minimum
/// vertex), and counts each class's size. Two labelings of the same
/// partition relabel to equal values.
///
/// Labels all below `n` (a root id, say) index a table of `n` ids directly.
/// Any others are interned in an open-addressed table sized from the input:
/// at least `2n` slots, a power of two, so the load stays at most ½ and no
/// resize happens; the SplitMix64 finalizer spreads labels that differ only
/// in their high bits, and a probe is a mix plus a linear scan over flat
/// arrays.
pub fn relabel(labels: &[u64]) -> Relabeled {
    let (class_of, c) = intern_dense(labels).unwrap_or_else(|| intern_hashed(labels));
    // Counted once `c` is known, so `sizes` is allocated once at its length.
    // Grown by pushes, it reallocates inside every contraction, and that
    // nearly doubled the `build_general` ledger runs in which glibc leaves
    // the main heap untrimmed (51 against 28 of 200 seeds).
    let mut sizes = vec![0u32; c as usize];
    for &d in &class_of {
        sizes[d as usize] += 1;
    }
    Relabeled { class_of, sizes }
}

/// Marks an unassigned table slot. A real id never equals it: ids are
/// `0..c` with `c ≤ n ≤ u32::MAX`, so the largest is at most `u32::MAX - 1`.
const EMPTY: VertexId = VertexId::MAX;

/// [`relabel`]'s class ids and their count through a table indexed by the
/// label itself, or `None` if some label is not below `labels.len()`.
fn intern_dense(labels: &[u64]) -> Option<(Vec<VertexId>, VertexId)> {
    let n = labels.len();
    if labels.iter().any(|&label| label >= n as u64) {
        return None;
    }
    let mut ids = vec![EMPTY; n];
    let mut class_of = Vec::with_capacity(n);
    let mut c: VertexId = 0;
    for &label in labels {
        let id = &mut ids[label as usize];
        if *id == EMPTY {
            *id = c;
            c += 1;
        }
        class_of.push(*id);
    }
    Some((class_of, c))
}

/// [`relabel`]'s class ids and their count through the hashed interner,
/// for any labels.
fn intern_hashed(labels: &[u64]) -> (Vec<VertexId>, VertexId) {
    let cap = (labels.len().max(8) * 2).next_power_of_two();
    let mask = cap - 1;
    let mut keys = vec![0u64; cap];
    let mut ids = vec![EMPTY; cap];
    let mut class_of = Vec::with_capacity(labels.len());
    let mut c: VertexId = 0;
    for &label in labels {
        let mut i = mix(label) as usize & mask;
        let d = loop {
            match ids[i] {
                EMPTY => {
                    keys[i] = label;
                    ids[i] = c;
                    c += 1;
                    break c - 1;
                }
                d if keys[i] == label => break d,
                _ => i = (i + 1) & mask,
            }
        };
        class_of.push(d);
    }
    (class_of, c)
}

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
        relabel(&self.0).sizes.len()
    }

    /// Iterates `(vertex, label)` pairs in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, u64)> + '_ {
        self.0.iter().enumerate().map(|(v, &l)| (v as VertexId, l))
    }

    /// Canonical form: every vertex labeled by the minimum vertex id in its
    /// label class. Two labelings induce the same partition iff their
    /// canonical forms are equal.
    pub fn canonical(&self) -> Vec<u64> {
        // Classes are numbered in order of their minimum vertex, so class `d`
        // opens at the `d`-th vertex that opens a class.
        let Relabeled { class_of, sizes } = relabel(&self.0);
        let mut min_of = Vec::with_capacity(sizes.len());
        for (v, &d) in class_of.iter().enumerate() {
            if d as usize == min_of.len() {
                min_of.push(v as u64);
            }
        }
        class_of.iter().map(|&d| min_of[d as usize]).collect()
    }

    /// True iff `self` and `other` induce the same partition of vertices.
    pub fn same_partition(&self, other: &Labeling) -> bool {
        self.len() == other.len() && relabel(&self.0).class_of == relabel(&other.0).class_of
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
    fn relabel_numbers_classes_by_minimum_vertex_and_counts_them() {
        let r = relabel(&[7, 42, 7, 9, 9, 7]);
        assert_eq!(r.class_of, [0, 1, 0, 2, 2, 0]);
        assert_eq!(r.sizes, [3, 1, 2]);
        assert_eq!(Labeling(vec![7, 42, 7, 9, 9, 7]).canonical(), [0, 1, 0, 3, 3, 0]);
    }

    #[test]
    fn the_dense_path_equals_the_hashed_one() {
        let mut state = 0x5EED;
        for n in [0u64, 1, 2, 63, 64, 65, 1000, 4096] {
            for classes in [1, 3, n / 2, n] {
                let labels: Vec<u64> = (0..n)
                    .map(|_| {
                        state = mix(state);
                        state % classes.clamp(1, n.max(1))
                    })
                    .collect();
                let dense = intern_dense(&labels).expect("every label is below n");
                assert_eq!(dense, intern_hashed(&labels), "n={n} classes={classes}");
            }
        }
        // The largest label a table of n ids indexes is n − 1.
        assert_eq!(intern_dense(&[2, 0, 2]), Some((vec![0, 1, 0], 2)));
    }

    #[test]
    fn a_label_not_below_n_takes_the_hashed_path() {
        for labels in [&[0, 1, 3][..], &[5], &[u64::MAX, 0]] {
            assert_eq!(intern_dense(labels), None, "{labels:?}");
            let hashed = intern_hashed(labels);
            let r = relabel(labels);
            assert_eq!((r.class_of, r.sizes.len() as VertexId), hashed, "{labels:?}");
        }
    }
}
