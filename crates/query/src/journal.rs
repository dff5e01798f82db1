//! Merge journals: incremental component merges over a frozen
//! [`ComponentIndex`], the read-side half of journal-epochs.
//!
//! A full index build is a pure function of a whole graph; a streaming
//! insertion only ever *merges* existing components (new edges cannot split
//! anything). [`JournalView`] freezes the effect of every merge so far into
//! a remap over **dense component ids** — not vertices — plus the same
//! class table an index holds, so a journal costs `O(components)`, not
//! `O(n)`:
//!
//! ```text
//! remap   : [u32]  base dense id → merged dense id
//! sizes   : [u32]  merged id → vertex count                ┐ the class
//! by_size : [u32]  merged ids, largest first (ties by id)  ┘ table
//! ```
//!
//! The merge-aware read path is the base lookup plus **one extra array
//! read**: `remap[comp_of[v]]`. There is no pointer chasing — the journal
//! is fully resolved at build time, so the "find" is depth one by
//! construction.
//!
//! **Byte-identity with a fresh build.** Merged ids are assigned in
//! ascending order of each merged class's minimum *base* id. Base ids are
//! themselves ordered by minimum member vertex
//! ([`ComponentIndex::build`]), so a merged class's minimum base id orders
//! classes exactly by their minimum member vertex — the same rule a
//! from-scratch [`ComponentIndex::build`] over the merged graph uses. The
//! journal therefore answers the *entire query algebra* (`Connected`,
//! `ComponentOf`, `ComponentSize`, `TopKSize`) byte-identically to a full
//! rebuild, which is what the streaming equivalence tests pin.
//!
//! **Two constructors, one result.** [`JournalView::build`] freezes a whole
//! merge labeling from scratch — `O(c log c)` for `c` base components, the
//! reference the tests compare against. [`JournalView::extend`] derives the
//! next view from the previous one and a batch of `b` component pairs in
//! `O(c + b log b)`: the previous view is depth one, so it *is* the
//! resolved union-find, and only the classes the batch touches change
//! size or rank. The serving layer calls only `extend`; the property test
//! below holds the two equal step by step.

use ampc_graph::UnionFind;

use crate::index::{ClassTable, ComponentId, ComponentIndex};

/// A frozen batch of component merges over one base [`ComponentIndex`].
///
/// Immutable once built: publish a new `JournalView` for every insertion
/// batch that merges something ([`JournalView::extend`] derives it from the
/// previous one in `O(components)`), exactly like index epochs themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalView {
    /// Base dense id → merged dense id.
    remap: Vec<ComponentId>,
    /// The merged classes' sizes and ranking.
    classes: ClassTable,
    /// Component merges the journal carries (`base components − merged
    /// components`).
    merges: usize,
}

impl JournalView {
    /// Freezes a merge labeling into a journal over `base`.
    ///
    /// `class_of[c]` names the merged class of base component `c`: two base
    /// components are merged iff their entries are equal (the values are
    /// opaque labels — e.g. union-find roots — and need not be idempotent).
    ///
    /// # Errors
    /// Rejects a labeling whose length differs from `base`'s component
    /// count or that names a class `>= base.num_components()`.
    pub fn build(class_of: &[ComponentId], base: &ComponentIndex) -> Result<JournalView, String> {
        let c = base.num_components();
        if class_of.len() != c {
            return Err(format!(
                "merge labeling covers {} components but the base index has {c}",
                class_of.len()
            ));
        }
        // Minimum base id per class label (the class's canonical root).
        let mut canon = vec![ComponentId::MAX; c];
        for (id, &class) in class_of.iter().enumerate() {
            if (class as usize) >= c {
                return Err(format!("merge class {class} out of range for {c} base components"));
            }
            let slot = &mut canon[class as usize];
            *slot = (*slot).min(id as ComponentId);
        }
        // Merged ids in ascending canonical-root order: scanning base ids
        // upward discovers each class at its minimum member (canonical)
        // id, mirroring ComponentIndex::build's first-appearance rule.
        let mut dense_of_class = vec![ComponentId::MAX; c];
        let mut sizes = Vec::new();
        for (id, &class) in class_of.iter().enumerate() {
            if canon[class as usize] == id as ComponentId {
                dense_of_class[class as usize] = sizes.len() as ComponentId;
                sizes.push(0u32);
            }
        }
        let mut remap = vec![0 as ComponentId; c];
        for (id, &class) in class_of.iter().enumerate() {
            let d = dense_of_class[class as usize];
            remap[id] = d;
            sizes[d as usize] += base.size_of(id as ComponentId) as u32;
        }
        let merges = c - sizes.len();
        Ok(JournalView { remap, classes: ClassTable::ranked(sizes), merges })
    }

    /// The view after also merging each pair of **base** component ids in
    /// `pairs`, derived from `prev` (`None`: no merges yet, the base index
    /// itself) — equal to [`JournalView::build`] over the combined merges.
    /// `None` when no pair joins two classes of `prev`: the previous view,
    /// or its absence, still stands and nothing is copied.
    ///
    /// # Panics
    /// Panics if `prev` was not built over `base`, or if a pair names an id
    /// that is not a base component id (callers feed it ids read out of
    /// `base`, which are in range by construction).
    pub fn extend(
        base: &ComponentIndex,
        prev: Option<&JournalView>,
        pairs: impl IntoIterator<Item = (ComponentId, ComponentId)>,
    ) -> Option<JournalView> {
        let c = base.num_components();
        assert!(prev.is_none_or(|p| p.remap.len() == c), "previous view is over another base");
        let in_range = |id: ComponentId| {
            assert!((id as usize) < c, "component {id} out of range for {c} base components");
            id
        };
        // `prev` is depth one, so resolving through it is the whole "find";
        // a pair inside one class of `prev` cannot merge anything.
        let links: Vec<(ComponentId, ComponentId)> = pairs
            .into_iter()
            .map(|(a, b)| match prev {
                Some(p) => (p.resolve(a), p.resolve(b)),
                None => (in_range(a), in_range(b)),
            })
            .filter(|(a, b)| a != b)
            .collect();
        if links.is_empty() {
            return None;
        }
        Some(match prev {
            Some(p) => p.merged(&links),
            None => JournalView::identity(base).merged(&links),
        })
    }

    /// The view that merges nothing: what a base index is to `extend`.
    fn identity(base: &ComponentIndex) -> JournalView {
        let c = base.num_components() as ComponentId;
        JournalView { remap: (0..c).collect(), classes: base.classes().clone(), merges: 0 }
    }

    /// `self` with its own classes `links[i].0` and `links[i].1` merged;
    /// every link joins two distinct classes of `self`, so at least one
    /// class is absorbed. `O(c + b log b)` for `b` links: linear passes
    /// over the previous arrays, sorting only what the batch touched.
    fn merged(&self, links: &[(ComponentId, ComponentId)]) -> JournalView {
        /// In `renum` while the ranking pass runs: a class the batch
        /// absorbed or grew, whose old rank no longer holds.
        const TOUCHED: ComponentId = ComponentId::MAX;
        let ClassTable { sizes: old_sizes, by_size: old_by_size } = &self.classes;
        let k = old_sizes.len();

        // Union-find over the ≤ 2b classes the links name, by position in
        // their sorted list.
        let mut named: Vec<ComponentId> = links.iter().flat_map(|&(a, b)| [a, b]).collect();
        named.sort_unstable();
        named.dedup();
        let position =
            |d: ComponentId| named.binary_search(&d).expect("every endpoint is named") as u32;
        let mut classes = UnionFind::new(named.len());
        for &(a, b) in links {
            classes.union(position(a), position(b));
        }
        // Positions ascend with ids, so the first member a scan meets is
        // its class's minimum id — the root; the rest are absorbed into it.
        // (absorbed class, its root), ascending by absorbed id.
        let mut root_of: Vec<Option<usize>> = vec![None; named.len()];
        let absorbed: Vec<(usize, usize)> = (0..named.len())
            .filter_map(|i| {
                let id = named[i] as usize;
                match &mut root_of[classes.find(i as u32) as usize] {
                    Some(root) => Some((id, *root)),
                    unseen => {
                        *unseen = Some(id);
                        None
                    }
                }
            })
            .collect();

        // Survivors keep their order: between two absorbed ids the new id
        // is the old one minus the absorbed ids below it, and `sizes` moves
        // over in the same runs. A root is smaller than everything it
        // absorbs, so it is numbered — as its class's minimum base id
        // requires — before its members are looked at.
        let mut renum: Vec<ComponentId> = Vec::with_capacity(k);
        let mut sizes: Vec<u32> = Vec::with_capacity(k - absorbed.len());
        let mut run_start = 0;
        for (below, &(a, _)) in absorbed.iter().enumerate() {
            renum.extend((run_start..a).map(|d| (d - below) as ComponentId));
            renum.push(TOUCHED);
            sizes.extend_from_slice(&old_sizes[run_start..a]);
            run_start = a + 1;
        }
        renum.extend((run_start..k).map(|d| (d - absorbed.len()) as ComponentId));
        sizes.extend_from_slice(&old_sizes[run_start..]);

        // (old id, new id) of each root that absorbed something.
        let mut grown: Vec<(usize, ComponentId)> =
            absorbed.iter().map(|&(_, root)| (root, renum[root])).collect();
        grown.sort_unstable();
        grown.dedup();
        for &(a, root) in &absorbed {
            sizes[renum[root] as usize] += old_sizes[a];
        }

        // Ranking: an untouched class kept its size, and renumbering is
        // monotone on survivors, so the old ranking minus the touched
        // classes is still sorted; the grown ones merge back in by key.
        let rank_key = |d: ComponentId| ClassTable::rank_key(&sizes, d);
        for &(root, _) in &grown {
            renum[root] = TOUCHED;
        }
        let mut regrown: Vec<ComponentId> = grown.iter().map(|&(_, d)| d).collect();
        regrown.sort_unstable_by_key(|&d| rank_key(d));
        let mut regrown = regrown.into_iter().peekable();
        let mut by_size: Vec<ComponentId> = Vec::with_capacity(sizes.len());
        for &old in old_by_size {
            let d = renum[old as usize];
            if d == TOUCHED {
                continue;
            }
            while let Some(g) = regrown.next_if(|&g| rank_key(g) < rank_key(d)) {
                by_size.push(g);
            }
            by_size.push(d);
        }
        by_size.extend(regrown);

        // The ranking is done: touched classes get their real new ids.
        for &(root, d) in &grown {
            renum[root] = d;
        }
        for &(a, root) in &absorbed {
            renum[a] = renum[root];
        }
        let remap = self.remap.iter().map(|&d| renum[d as usize]).collect();
        let classes = ClassTable { sizes, by_size };
        JournalView { remap, classes, merges: self.merges + absorbed.len() }
    }

    /// Merged dense id of base component `c` — the one extra read of the
    /// journal-aware query path.
    ///
    /// # Panics
    /// Panics if `c` is not a base component id (the engine only feeds it
    /// ids read out of the base index, which are in range by construction).
    #[inline]
    pub fn resolve(&self, c: ComponentId) -> ComponentId {
        self.remap[c as usize]
    }

    /// Number of components after the journal's merges.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.classes.len()
    }

    /// Component merges the journal carries.
    #[inline]
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// The merged classes' sizes and ranking: what the query engine reads
    /// `ComponentSize` and `TopKSize` from.
    pub(crate) fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// Heap footprint in bytes (the per-journal-epoch publish cost).
    pub fn heap_bytes(&self) -> usize {
        self.remap.len() * std::mem::size_of::<ComponentId>() + self.classes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::rng::{derive_seed, SplitMix64};
    use ampc_graph::{Labeling, VertexId};

    /// Base: components {0,1} id 0, {2} id 1, {3,4,5} id 2, {6} id 3.
    fn base() -> ComponentIndex {
        ComponentIndex::build(&Labeling(vec![9, 9, 4, 7, 7, 7, 1]))
    }

    #[test]
    fn identity_journal_is_a_no_op() {
        let base = base();
        let j = JournalView::build(&[0, 1, 2, 3], &base).unwrap();
        assert_eq!(j.num_components(), 4);
        assert_eq!(j.merges(), 0);
        for c in 0..4 {
            assert_eq!(j.resolve(c), c);
            assert_eq!(j.classes.size_of(c), base.size_of(c));
        }
        assert_eq!(j.classes.top_k(4), base.top_k(4));
    }

    #[test]
    fn merges_renumber_by_minimum_base_id() {
        let base = base();
        // Merge base components 1 and 3 (shared class label 1).
        let j = JournalView::build(&[0, 1, 2, 1], &base).unwrap();
        assert_eq!(j.num_components(), 3);
        assert_eq!(j.merges(), 1);
        // Classes by min base id: {0}→0, {1,3}→1, {2}→2.
        assert_eq!(j.resolve(0), 0);
        assert_eq!(j.resolve(1), 1);
        assert_eq!(j.resolve(2), 2);
        assert_eq!(j.resolve(3), 1);
        assert_eq!(j.classes.size_of(0), 2);
        assert_eq!(j.classes.size_of(1), 2); // {2} + {6}
        assert_eq!(j.classes.size_of(2), 3);
        // by_size: sizes [2, 2, 3] ⇒ ranked 2, 0, 1.
        assert_eq!(j.classes.top_k(3), &[2, 0, 1]);
        assert_eq!(j.classes.kth_largest_size(1), 3);
        assert_eq!(j.classes.kth_largest_size(3), 2);
        assert_eq!(j.classes.kth_largest_size(4), 0);
        assert_eq!(j.classes.kth_largest_size(0), 0);
    }

    #[test]
    fn journal_matches_a_fresh_build_of_the_merged_partition() {
        // Base partition over 8 vertices, then merge two classes; the
        // journal's remap/sizes/ranking must agree with ComponentIndex
        // built from the merged labeling directly.
        let labels = vec![3u64, 3, 5, 5, 8, 8, 8, 2];
        let base = ComponentIndex::build(&Labeling(labels.clone()));
        // Merge the label-5 and label-2 classes (base ids 1 and 3).
        let j = JournalView::build(&[0, 3, 2, 3], &base).unwrap();
        let merged: Vec<u64> = labels.iter().map(|&l| if l == 2 { 5 } else { l }).collect();
        let fresh = ComponentIndex::build(&Labeling(merged));
        assert_eq!(j.num_components(), fresh.num_components());
        for v in 0..8u32 {
            assert_eq!(j.resolve(base.component_of(v)), fresh.component_of(v), "vertex {v}");
            assert_eq!(j.classes.size_of(j.resolve(base.component_of(v))), fresh.component_size(v));
        }
        for k in 0..=4 {
            assert_eq!(j.classes.kth_largest_size(k), fresh.kth_largest_size(k), "rank {k}");
        }
    }

    #[test]
    fn bad_labelings_are_rejected() {
        let base = base();
        assert!(JournalView::build(&[0, 1, 2], &base).is_err(), "short labeling");
        assert!(JournalView::build(&[0, 1, 2, 4], &base).is_err(), "class out of range");
        let empty = ComponentIndex::build(&Labeling(vec![]));
        let j = JournalView::build(&[], &empty).unwrap();
        assert_eq!(j.num_components(), 0);
        assert_eq!(j.classes.kth_largest_size(1), 0);
    }

    /// A base, the batches applied so far as a union-find over its ids,
    /// and the view `extend` chained out of them.
    struct Chain {
        base: ComponentIndex,
        uf: UnionFind,
        view: Option<JournalView>,
    }

    impl Chain {
        fn new(labels: Vec<u64>) -> Chain {
            let base = ComponentIndex::build(&Labeling(labels));
            let uf = UnionFind::new(base.num_components());
            let chain = Chain { base, uf, view: None };
            chain.check("fresh base");
            chain
        }

        /// Applies one batch both ways and holds the two results equal.
        fn step(&mut self, pairs: &[(ComponentId, ComponentId)], what: &str) {
            let before = self.uf.num_components();
            for &(a, b) in pairs {
                self.uf.union(a, b);
            }
            let absorbed = before - self.uf.num_components();
            let next = JournalView::extend(&self.base, self.view.as_ref(), pairs.iter().copied());
            assert_eq!(
                next.is_none(),
                absorbed == 0,
                "{what}: a view is derived iff classes merge"
            );
            if let Some(next) = next {
                assert_eq!(next.merges(), self.merges() + absorbed, "{what}");
                self.view = Some(next);
            }
            self.check(what);
        }

        fn merges(&self) -> usize {
            self.view.as_ref().map_or(0, JournalView::merges)
        }

        /// The chained view equals `JournalView::build` of the union-find's
        /// roots, answers like `ComponentIndex::build` of the merged
        /// labeling, and folds into exactly that index.
        fn check(&self, what: &str) {
            let (base, mut uf) = (&self.base, self.uf.clone());
            let c = base.num_components();
            let class_of: Vec<ComponentId> = (0..c as ComponentId).map(|id| uf.find(id)).collect();
            let scratch = JournalView::build(&class_of, base).unwrap();
            match &self.view {
                Some(view) => assert_eq!(view, &scratch, "{what}: incremental != from scratch"),
                None => assert_eq!(scratch.merges(), 0, "{what}: merges without a view"),
            }
            let view = self.view.as_ref().unwrap_or(&scratch);
            let n = base.num_vertices() as VertexId;
            let merged = (0..n).map(|v| class_of[base.component_of(v) as usize] as u64).collect();
            let fresh = ComponentIndex::build(&Labeling(merged));
            assert_eq!(base.fold(view), fresh, "{what}: fold != fresh build");
            let k = fresh.num_components();
            assert_eq!(view.num_components(), k, "{what}");
            assert_eq!(view.merges(), c - k, "{what}");
            for v in 0..n {
                let d = view.resolve(base.component_of(v));
                assert_eq!(d, fresh.component_of(v), "{what}: vertex {v}");
                assert_eq!(view.classes.size_of(d), fresh.component_size(v), "{what}: vertex {v}");
            }
            assert_eq!(view.classes.top_k(k + 1), fresh.top_k(k + 1), "{what}");
            for rank in [0, 1, 2, k / 2, k, k + 1] {
                assert_eq!(
                    view.classes.kth_largest_size(rank),
                    fresh.kth_largest_size(rank),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn chained_views_equal_from_scratch_builds() {
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(derive_seed(&[0x10AD, seed]));
            // Few labels over many vertices: uneven sizes; as many labels
            // as vertices: singletons, so every rank is a tie.
            let n = 1 + rng.next_below(300) as usize;
            let spread = if seed % 4 == 0 { u64::MAX } else { 1 + rng.next_below(n as u64) };
            let mut chain = Chain::new((0..n).map(|_| rng.next_below(spread)).collect());
            let c = chain.base.num_components() as u64;
            for step in 0..24 {
                // Batches of 0..=16 pairs over *base* ids: self-loops, pairs
                // already inside one class and repeats all occur.
                let mut pairs: Vec<(ComponentId, ComponentId)> = (0..rng.next_below(17))
                    .map(|_| (rng.next_below(c) as ComponentId, rng.next_below(c) as ComponentId))
                    .collect();
                if let Some(&again) = pairs.first() {
                    pairs.push(again);
                    pairs.push((again.1, again.1));
                }
                chain.step(&pairs, &format!("seed {seed} step {step}"));
            }
            // Collapse to one component, then offer more edges to it.
            let all: Vec<_> = (1..c as ComponentId).map(|id| (0, id)).collect();
            chain.step(&all, &format!("seed {seed} collapse"));
            assert_eq!(chain.view.as_ref().map_or(1, JournalView::num_components), 1);
            chain.step(&all, &format!("seed {seed} after collapse"));
            chain.step(&[], &format!("seed {seed} empty"));
        }
    }

    #[test]
    fn one_batch_can_chain_many_classes_and_ties_rank_by_id() {
        // 64 components of two vertices each: every size ties.
        let mut chain = Chain::new((0..128u64).map(|v| v / 2).collect());
        // A path through every third class, given back to front so each
        // link's root changes under the next one.
        let path: Vec<_> = (0..20).rev().map(|i| (3 * i + 3, 3 * i)).collect();
        chain.step(&path, "path of 21 classes");
        assert_eq!(chain.view.as_ref().unwrap().classes.top_k(2), &[0, 1]);
        // Grow three classes to the same size: they rank by id, ahead of
        // the untouched pairs and behind the path.
        chain.step(&[(50, 49), (1, 2), (62, 61)], "equal growth");
        let view = chain.view.as_ref().unwrap();
        assert_eq!(
            view.classes.top_k(4).iter().map(|&d| view.classes.size_of(d)).collect::<Vec<_>>(),
            [42, 4, 4, 4]
        );
        // Two grown classes join each other and overtake nothing new.
        chain.step(&[(49, 61), (61, 50)], "grown meets grown");
    }

    #[test]
    fn one_large_batch_on_the_bare_base() {
        let mut rng = SplitMix64::new(derive_seed(&[0x2E91A7]));
        let n = 3 * 4_096;
        let mut chain = Chain::new((0..n).map(|v| rng.next_below(3) * 4_096 + v % 4_096).collect());
        let c = chain.base.num_components() as u64;
        assert!(c >= 4_096, "a large batch needs a wide base, got {c}");
        let tail: Vec<_> = (0..5_000)
            .map(|_| (rng.next_below(c) as ComponentId, rng.next_below(c) as ComponentId))
            .collect();
        chain.step(&tail, "large batch");
        assert!(chain.merges() > 1_000);
        chain.step(&tail[..16], "a batch the large one already covers");
    }
}
