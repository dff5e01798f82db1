//! Immutable component index: a finished run, frozen for serving.
//!
//! [`ComponentIndex::build`] rank-remaps the arbitrary 64-bit labels of a
//! [`Labeling`] to dense component ids `0..num_components`, assigned in
//! order of each component's minimum member vertex: the graph crate's
//! [`relabel`], which `Contract` and the labeling comparisons read too. The
//! remapping makes the index a pure function of the *partition* rather
//! than of the label values, so an AMPC run and the sequential union-find
//! reference build byte-identical indexes — and it shrinks the per-vertex
//! word from `u64` to `u32`, halving the hot array.
//!
//! The index is the partition and nothing derived from it that no query
//! reads (no hashing anywhere on the query path):
//!
//! ```text
//! comp_of : [u32]  vertex → dense component id
//! sizes   : [u32]  component → vertex count        ┐ the class table,
//! by_size : [u32]  component ids, largest first    ┘ as in a JournalView
//! ```
//!
//! `4n + 8c` bytes. A live [`ComponentIndex::build`] and a snapshot decode
//! both hand `comp_of` and its counted sizes to one constructor, which
//! ranks them, so a booted index is indistinguishable from a built one.
//! [`ComponentIndex::fold`] reads a journal's merges into a new index
//! without relabelling: `comp_of` through the journal's remap, beside the
//! journal's class table.

use std::cmp::Reverse;

use ampc_graph::{relabel, Input, Labeling, Relabeled, VertexId};

use crate::JournalView;

/// Dense component identifier in `0..num_components`.
pub type ComponentId = u32;

/// Per-class vertex counts and their ranking, over dense ids `0..len`: all
/// that `ComponentSize` and `TopKSize` read, whether the classes are an
/// index's components or a journal's merged ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ClassTable {
    /// Dense id → vertex count.
    pub(crate) sizes: Vec<u32>,
    /// Dense ids in [`ClassTable::rank_key`] order. Only
    /// [`ClassTable::ranked`] and the journal's merge, which keeps the
    /// order incrementally, build one.
    pub(crate) by_size: Vec<ComponentId>,
}

impl ClassTable {
    /// The ranking rule: larger classes first, ties by ascending id — a
    /// total order, so the ranking is deterministic.
    #[inline]
    pub(crate) fn rank_key(sizes: &[u32], d: ComponentId) -> (Reverse<u32>, ComponentId) {
        (Reverse(sizes[d as usize]), d)
    }

    /// Ranks `sizes` with one sort.
    pub(crate) fn ranked(sizes: Vec<u32>) -> ClassTable {
        let mut by_size: Vec<ComponentId> = (0..sizes.len() as ComponentId).collect();
        by_size.sort_unstable_by_key(|&d| Self::rank_key(&sizes, d));
        ClassTable { sizes, by_size }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.sizes.len()
    }

    #[inline]
    pub(crate) fn size_of(&self, d: ComponentId) -> usize {
        self.sizes[d as usize] as usize
    }

    #[inline]
    pub(crate) fn top_k(&self, k: usize) -> &[ComponentId] {
        &self.by_size[..k.min(self.by_size.len())]
    }

    #[inline]
    pub(crate) fn kth_largest_size(&self, rank: usize) -> usize {
        match rank.checked_sub(1).and_then(|i| self.by_size.get(i)) {
            Some(&d) => self.size_of(d),
            None => 0,
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        (self.sizes.len() + self.by_size.len()) * std::mem::size_of::<u32>()
    }
}

/// A label two classes share, if any — the invariant that makes one label
/// per class a labeling of exactly the index's partition.
pub(crate) fn shared_label(class_label: &[u64]) -> Option<u64> {
    let mut sorted = class_label.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// An immutable connectivity index over one labeling.
#[derive(Clone, PartialEq, Eq)]
pub struct ComponentIndex {
    comp_of: Vec<ComponentId>,
    classes: ClassTable,
}

impl ComponentIndex {
    /// The one constructor: `comp_of` in first-appearance canonical form
    /// and `sizes[d]`, the number of vertices it maps to `d`.
    /// [`ComponentIndex::build`] takes both from [`relabel`],
    /// [`crate::snapshot::decode`] counts them while validating.
    pub(crate) fn from_parts(comp_of: Vec<ComponentId>, sizes: Vec<u32>) -> Self {
        ComponentIndex { comp_of, classes: ClassTable::ranked(sizes) }
    }

    /// Builds the index from a labeling.
    ///
    /// Dense ids are the [`relabel`] ids: assigned in order of first
    /// appearance scanning vertices `0..n`, i.e. components are numbered by
    /// their minimum member vertex — deterministic for any labeling of the
    /// same partition. The only hashing happens there, once, at build time.
    pub fn build(labeling: &Labeling) -> Self {
        let Relabeled { class_of, sizes } = relabel(&labeling.0);
        Self::from_parts(class_of, sizes)
    }

    /// Builds the index from a pipeline run over `input`, refusing a
    /// labeling that is not a valid CC-labeling of its graph. This is the
    /// constructor the serving path uses: verify once at build time, then
    /// answer queries with no per-query checks.
    ///
    /// One body for every input: the length, then every edge's endpoints
    /// sharing a label (so each true component lies inside one class), then
    /// the built index's [`ComponentIndex::num_components`] against the
    /// true component count, which [`Input::components_checked`] takes in
    /// the same pass over the edges — the proof's `n − m` for an
    /// [`Input::Forest`], a union-find's count for a plain graph. Equal
    /// counts leave no two components under one label, so the verdict is
    /// [`Labeling::validates`]'s.
    pub fn from_run<'g>(input: impl Into<Input<'g>>, labeling: &Labeling) -> Result<Self, String> {
        let input = input.into();
        let g = input.graph();
        if labeling.len() != g.n() {
            return Err(format!(
                "labeling covers {} vertices but the graph has {}",
                labeling.len(),
                g.n()
            ));
        }
        let components = input
            .components_checked(|u, v| labeling.get(u) == labeling.get(v))
            .map_err(|(u, v)| format!("labeling splits the edge ({u}, {v}) across two labels"))?;
        let index = Self::build(labeling);
        if index.num_components() != components {
            return Err(format!(
                "labeling has {} classes but the graph has {components} components",
                index.num_components()
            ));
        }
        Ok(index)
    }

    /// The index of the partition `journal` merges `self` into: `comp_of`
    /// mapped through [`JournalView::resolve`] beside the journal's class
    /// table. Merged ids already ascend by minimum member vertex (see
    /// [`crate::journal`]), so this equals [`ComponentIndex::build`] of the
    /// merged labeling with nothing relabelled, hashed or re-ranked. `O(n)`.
    ///
    /// `journal` must be a view over `self`, as [`JournalView::extend`]
    /// derives it.
    pub fn fold(&self, journal: &JournalView) -> ComponentIndex {
        let comp_of = self.comp_of.iter().map(|&d| journal.resolve(d)).collect();
        ComponentIndex { comp_of, classes: journal.classes().clone() }
    }

    /// One label per component, by dense id: the label `labeling` gives
    /// every vertex of that component, the form an epoch and a snapshot
    /// hold labels in.
    ///
    /// # Panics
    /// Panics if `labeling` is not a labeling of this index's partition: a
    /// length other than [`ComponentIndex::num_vertices`], a label that
    /// varies within a component, or one that two components share.
    pub fn class_labels(&self, labeling: &Labeling) -> Vec<u64> {
        assert_eq!(
            labeling.len(),
            self.comp_of.len(),
            "labeling and index cover different vertex counts"
        );
        // comp_of is canonical, so each class opens at the next id.
        let mut class_label = Vec::with_capacity(self.num_components());
        for (&d, &label) in self.comp_of.iter().zip(&labeling.0) {
            if d as usize == class_label.len() {
                class_label.push(label);
            }
            assert_eq!(class_label[d as usize], label, "labeling varies within component {d}");
        }
        assert_eq!(shared_label(&class_label), None, "labeling merges two components");
        class_label
    }

    /// The per-vertex labeling that `class_label` (one label per component,
    /// by dense id) gives this index's vertices: `class_label[comp_of[v]]`.
    /// The inverse of [`ComponentIndex::class_labels`].
    pub fn labeling(&self, class_label: &[u64]) -> Labeling {
        Labeling(self.comp_of.iter().map(|&d| class_label[d as usize]).collect())
    }

    /// `comp_of`, for the snapshot writer.
    pub(crate) fn comp_of(&self) -> &[ComponentId] {
        &self.comp_of
    }

    /// The components' sizes and ranking.
    pub(crate) fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// Number of vertices indexed.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    /// Number of connected components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.classes.len()
    }

    /// Dense component id of `v`. One array read.
    ///
    /// # Panics
    /// Panics if `v` is out of range — serving threads answering queries of
    /// unknown provenance use [`ComponentIndex::try_component_of`] instead.
    #[inline]
    pub fn component_of(&self, v: VertexId) -> ComponentId {
        self.comp_of[v as usize]
    }

    /// Checked [`ComponentIndex::component_of`]: `None` when `v` is not a
    /// vertex of this epoch's graph. Same cost — the unchecked variant
    /// bounds-checks too, it just panics.
    #[inline]
    pub fn try_component_of(&self, v: VertexId) -> Option<ComponentId> {
        self.comp_of.get(v as usize).copied()
    }

    /// True iff `u` and `v` are in the same component. Two array reads.
    ///
    /// # Panics
    /// Panics if either vertex is out of range; see
    /// [`crate::QueryEngine::try_answer`].
    #[inline]
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.comp_of[u as usize] == self.comp_of[v as usize]
    }

    /// Number of vertices in component `c`. One array read.
    #[inline]
    pub fn size_of(&self, c: ComponentId) -> usize {
        self.classes.size_of(c)
    }

    /// Size of the component containing `v`. Two array reads.
    ///
    /// # Panics
    /// Panics if `v` is out of range; see
    /// [`crate::QueryEngine::try_answer`].
    #[inline]
    pub fn component_size(&self, v: VertexId) -> usize {
        self.size_of(self.component_of(v))
    }

    /// The (at most) `k` largest components, largest first, ties by
    /// ascending component id. A slice borrow of the precomputed ranking.
    #[inline]
    pub fn top_k(&self, k: usize) -> &[ComponentId] {
        self.classes.top_k(k)
    }

    /// Size of the `rank`-th largest component (1-based), or 0 when there
    /// are fewer than `rank` components.
    #[inline]
    pub fn kth_largest_size(&self, rank: usize) -> usize {
        self.classes.kth_largest_size(rank)
    }

    /// Heap footprint of the index in bytes (the serving-capacity number):
    /// `4n + 8c`, the same for a built and a booted index.
    pub fn heap_bytes(&self) -> usize {
        self.comp_of.len() * std::mem::size_of::<ComponentId>() + self.classes.heap_bytes()
    }
}

impl std::fmt::Debug for ComponentIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentIndex")
            .field("num_vertices", &self.num_vertices())
            .field("num_components", &self.num_components())
            .field("comp_of", &self.comp_of)
            .field("by_size", &self.classes.by_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::contract::contract;
    use ampc_graph::generators::{ForestFamily, GraphFamily};
    use ampc_graph::{reference_components, Graph};

    fn index_of(labels: &[u64]) -> ComponentIndex {
        ComponentIndex::build(&Labeling(labels.to_vec()))
    }

    #[test]
    fn dense_ids_follow_minimum_member_order() {
        // Labels are arbitrary; component of vertex 0 must get id 0.
        let idx = index_of(&[90, 5, 90, 5, 7]);
        assert_eq!(idx.num_components(), 3);
        assert_eq!(idx.component_of(0), 0);
        assert_eq!(idx.component_of(1), 1);
        assert_eq!(idx.component_of(4), 2);
        assert!(idx.connected(0, 2));
        assert!(idx.connected(1, 3));
        assert!(!idx.connected(0, 1));
    }

    #[test]
    fn index_is_a_function_of_the_partition() {
        // Same partition under different label values ⇒ identical index.
        let a = index_of(&[7, 7, 7, 9, 9, 9]);
        let b = index_of(&[100, 100, 100, 3, 3, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn sizes_count_every_vertex_once() {
        let idx = index_of(&[1, 2, 1, 3, 2, 1]);
        let sizes: Vec<usize> = (0..3).map(|c| idx.size_of(c)).collect();
        assert_eq!(sizes, [3, 2, 1]);
        assert_eq!(idx.heap_bytes(), 4 * 6 + 8 * 3);
    }

    #[test]
    fn top_k_ranks_by_size_then_id() {
        // Sizes: comp0=2, comp1=3, comp2=2, comp3=1.
        let idx = index_of(&[1, 2, 2, 1, 2, 5, 5, 9]);
        assert_eq!(idx.top_k(10), &[1, 0, 2, 3]);
        assert_eq!(idx.top_k(2), &[1, 0]);
        assert_eq!(idx.top_k(0), &[] as &[ComponentId]);
        assert_eq!(idx.kth_largest_size(1), 3);
        assert_eq!(idx.kth_largest_size(2), 2);
        assert_eq!(idx.kth_largest_size(4), 1);
        assert_eq!(idx.kth_largest_size(5), 0);
        assert_eq!(idx.kth_largest_size(0), 0);
    }

    #[test]
    fn checked_variants_reject_out_of_range_vertices() {
        let idx = index_of(&[1, 2, 1]);
        assert_eq!(idx.try_component_of(0), Some(0));
        assert_eq!(idx.try_component_of(2), Some(0));
        assert_eq!(idx.try_component_of(3), None);
        assert_eq!(idx.try_component_of(u32::MAX), None);
        // The empty index rejects every vertex.
        let empty = index_of(&[]);
        assert_eq!(empty.try_component_of(0), None);
    }

    #[test]
    fn empty_labeling_builds_an_empty_index() {
        let idx = index_of(&[]);
        assert_eq!(idx.num_vertices(), 0);
        assert_eq!(idx.num_components(), 0);
        assert_eq!(idx.top_k(3), &[] as &[ComponentId]);
        assert_eq!(idx.kth_largest_size(1), 0);
    }

    #[test]
    fn class_labels_and_labeling_are_inverse() {
        let labeling = Labeling(vec![90, 5, 90, 5, 7]);
        let idx = ComponentIndex::build(&labeling);
        assert_eq!(idx.class_labels(&labeling), [90, 5, 7]);
        assert_eq!(idx.labeling(&[90, 5, 7]), labeling);
        assert_eq!(idx.labeling(&[0, 1, 2]), Labeling(vec![0, 1, 0, 1, 2]));
    }

    #[test]
    fn from_run_validates_against_the_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let good = reference_components(&g);
        let idx = ComponentIndex::from_run(&g, &good).expect("valid labeling");
        assert_eq!(idx.num_components(), 2);
        // Merging the two true components must be rejected.
        assert!(ComponentIndex::from_run(&g, &Labeling(vec![1; 6])).is_err());
        // Wrong length must be rejected.
        assert!(ComponentIndex::from_run(&g, &Labeling(vec![1, 1, 1])).is_err());
    }

    /// The labelings the validator matrix checks on `g`, each with the
    /// verdict it must get: the correct one, one edge's endpoints split,
    /// two components merged under one label, the partition relabelled,
    /// and a wrong length. `g` needs an edge and two components.
    fn validator_cases(g: &Graph) -> [(&'static str, Labeling, bool); 5] {
        let truth = reference_components(g);
        let (u, v) = g.edges().next().expect("the graph has an edge");
        let mut split = truth.clone();
        split.0[v as usize] = u64::MAX;
        let other = (0..g.n() as VertexId).find(|&w| truth.get(w) != truth.get(u));
        let other = truth.get(other.expect("the graph has two components"));
        let merged =
            Labeling(truth.0.iter().map(|&l| if l == other { truth.get(u) } else { l }).collect());
        let relabelled = Labeling(truth.0.iter().map(|&l| !l.rotate_left(17)).collect());
        let short = Labeling(truth.0[1..].to_vec());
        [
            ("correct", truth, true),
            ("edge split", split, false),
            ("two components merged", merged, false),
            ("relabelled", relabelled, true),
            ("wrong length", short, false),
        ]
    }

    /// `g` with one isolated vertex added, so it has two components.
    fn with_isolated_vertex(g: &Graph) -> Graph {
        Graph::from_edges(g.n() + 1, &g.edges().collect::<Vec<_>>())
    }

    #[test]
    fn from_run_on_a_forest_proof_agrees_with_validates() {
        for family in ForestFamily::ALL {
            for seed in 0..3 {
                let g = with_isolated_vertex(&family.generate(300, seed));
                let forest = g.as_forest().expect("a forest family is acyclic");
                for (case, labeling, valid) in validator_cases(&g) {
                    let at = format!("{} seed {seed}: {case}", family.name());
                    assert_eq!(labeling.validates(&g), valid, "{at}");
                    assert_eq!(ComponentIndex::from_run(forest, &labeling).is_ok(), valid, "{at}");
                    assert_eq!(ComponentIndex::from_run(&g, &labeling).is_ok(), valid, "{at}");
                }
            }
        }
    }

    #[test]
    fn from_run_on_a_general_graph_agrees_with_validates() {
        for family in GraphFamily::ALL {
            for seed in 0..3 {
                let g = with_isolated_vertex(&family.generate(300, seed));
                for (case, labeling, valid) in validator_cases(&g) {
                    let at = format!("{} seed {seed}: {case}", family.name());
                    assert_eq!(labeling.validates(&g), valid, "{at}");
                    assert_eq!(ComponentIndex::from_run(&g, &labeling).is_ok(), valid, "{at}");
                    if let Some(forest) = g.as_forest() {
                        let ok = ComponentIndex::from_run(forest, &labeling).is_ok();
                        assert_eq!(ok, valid, "{at} (as a forest)");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_a_real_graph() {
        let g = Graph::from_edges(9, &[(0, 3), (3, 6), (1, 4), (2, 5), (5, 8), (8, 2)]);
        let truth = reference_components(&g);
        let idx = ComponentIndex::build(&truth);
        for u in 0..9u32 {
            for v in 0..9u32 {
                assert_eq!(idx.connected(u, v), truth.get(u) == truth.get(v), "({u},{v})");
            }
            let members = truth.iter().filter(|&(_, l)| l == truth.get(u)).count();
            assert_eq!(idx.component_size(u), members);
        }
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn clones_are_deep_and_equal() {
        let idx = index_of(&[4, 4, 9, 9, 9, 1]);
        let copy = idx.clone();
        assert_eq!(idx, copy);
        drop(idx);
        // The clone owns its arrays — still answers after the original dies.
        assert_eq!(copy.component_of(5), 2);
        assert_eq!(copy.component_size(2), 3);
    }

    #[test]
    fn components_are_the_contraction_classes() {
        // The index and `Contract` number a partition alike, whatever the
        // label values: drawn ones, extremes, and ones equal in the low bits.
        let mut rng = ampc::rng::SplitMix64::new(0x1DE);
        let mut cases: Vec<Vec<u64>> = vec![vec![], vec![u64::MAX, 0, u64::MAX, 0, 1]];
        cases.push((0..64u64).map(|i| (i % 9) << 40).collect());
        for n in 1..60u64 {
            // An odd factor maps class numbers to labels one to one.
            let (classes, odd) = (1 + rng.next_below(n), rng.next_u64() | 1);
            cases.push((0..n).map(|_| rng.next_below(classes).wrapping_mul(odd)).collect());
        }
        for labels in cases {
            let contraction = contract(&Graph::empty(labels.len()), &labels);
            let idx = index_of(&labels);
            assert_eq!(idx.comp_of, contraction.class_of, "{labels:?}");
            assert_eq!(idx.num_components(), contraction.graph.n(), "{labels:?}");
            for d in 0..idx.num_components() as ComponentId {
                let members = contraction.class_of.iter().filter(|&&c| c == d).count();
                assert_eq!(idx.size_of(d), members, "{labels:?}");
            }
        }
    }
}
