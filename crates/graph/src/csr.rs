//! Compressed sparse row (CSR) storage for undirected graphs.
//!
//! Vertices are dense `u32` identifiers `0..n`. Each undirected edge is
//! stored in both endpoint adjacency lists; adjacency lists are sorted,
//! which gives every arc's reverse position in one cursor pass
//! (`for_each_arc`, read by the Euler tour and the degree-3 transform).
//!
//! [`Graph::from_edges`] is where every generator and `contract` end, so it
//! is a counting sort on the source vertex rather than a comparison sort of
//! all `2m` arcs. `to_degree3` and [`Graph::filter_edges`] write their CSR
//! directly: their lists come out sorted by construction.

/// Dense vertex identifier.
pub type VertexId = u32;

/// Lays blocks of the given sizes out back to back as dense ids: block `v`
/// is `starts[v]..starts[v + 1]`, and the last entry is the total.
///
/// # Panics
/// Panics, naming `what`, once the running total passes `VertexId::MAX`.
/// It is summed in `usize`, so a layout too large for the id space cannot
/// wrap into one that looks valid.
pub(crate) fn block_starts(
    sizes: impl ExactSizeIterator<Item = usize>,
    what: &str,
) -> Vec<VertexId> {
    let mut starts = Vec::with_capacity(sizes.len() + 1);
    starts.push(0);
    let mut total = 0usize;
    for size in sizes {
        total += size;
        starts.push(VertexId::try_from(total).unwrap_or_else(|_| {
            panic!("{what} needs at least {total} vertex ids, more than the u32 id space holds")
        }));
    }
    starts
}

/// An undirected graph in CSR form.
///
/// Construction deduplicates parallel edges and drops self-loops, matching
/// the paper's convention that `Contract` merges parallel edges and removes
/// loops.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list. Self-loops are
    /// dropped and parallel edges deduplicated.
    ///
    /// Counting sort on the source vertex (count, prefix-sum, scatter), then
    /// each list is sorted and deduplicated where it lies and the lists are
    /// compacted towards the front: `O(n + m)` plus the sorts of the
    /// (typically short) lists, and no intermediate `(u, v)` pair list.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range for n={n}");
            if u != v {
                offsets[u as usize] += 1;
                offsets[v as usize] += 1;
            }
        }
        // Exclusive prefix sum: `offsets[v]` is where `v`'s list starts.
        let mut total = 0;
        for slot in &mut offsets {
            total += std::mem::replace(slot, total);
        }
        // Scatter with `offsets[v]` as `v`'s cursor; afterwards it is where
        // `v`'s list ends, and the lists still lie back to back.
        let mut adj = vec![0 as VertexId; total];
        for &(u, v) in edges {
            if u != v {
                adj[offsets[u as usize]] = v;
                offsets[u as usize] += 1;
                adj[offsets[v as usize]] = u;
                offsets[v as usize] += 1;
            }
        }
        // Sort and deduplicate each list, moving it down to `write` (never
        // past `read`), and turn `offsets[v]` back into the list's start.
        let (mut read, mut write) = (0, 0);
        for slot in &mut offsets[..n] {
            let (start, end) = (write, std::mem::replace(slot, write));
            adj[read..end].sort_unstable();
            for i in read..end {
                if write == start || adj[write - 1] != adj[i] {
                    adj[write] = adj[i];
                    write += 1;
                }
            }
            read = end;
        }
        offsets[n] = write;
        adj.truncate(write);
        adj.shrink_to_fit();
        Graph { offsets, adj }
    }

    /// The graph whose `v`-th list is `adj[offsets[v]..offsets[v + 1]]`.
    /// The caller guarantees what [`Graph::from_edges`] establishes: the
    /// lists are sorted, duplicate-free, loop-free and symmetric.
    pub(crate) fn from_csr(offsets: Vec<usize>, adj: Vec<VertexId>) -> Self {
        debug_assert_eq!(offsets.last(), Some(&adj.len()));
        let g = Graph { offsets, adj };
        debug_assert!((0..g.n() as VertexId).all(|v| {
            g.neighbors(v).windows(2).all(|w| w[0] < w[1]) && !g.neighbors(v).contains(&v)
        }));
        g
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph { offsets: vec![0; n + 1], adj: Vec::new() }
    }

    /// The subgraph on the same vertices that keeps each edge `(u, v)`,
    /// `u < v`, for which `keep(u, v)` holds. `keep` is asked once per edge,
    /// in [`Graph::edges`] order.
    ///
    /// One pass marks the kept arcs and counts both endpoints' degrees; a
    /// second scatters both orientations. `w`'s smaller neighbours are
    /// scattered while their own lists are walked, all before `w`'s, and
    /// `w`'s larger ones in order while `w`'s is: every list comes out sorted,
    /// with no edge list and no sort.
    pub fn filter_edges(&self, mut keep: impl FnMut(VertexId, VertexId) -> bool) -> Graph {
        let n = self.n();
        let mut kept = vec![0u64; self.adj.len().div_ceil(64)];
        let mut offsets = vec![0usize; n + 1];
        for u in 0..n {
            for a in self.offsets[u]..self.offsets[u + 1] {
                let v = self.adj[a];
                if (u as VertexId) < v && keep(u as VertexId, v) {
                    kept[a / 64] |= 1 << (a % 64);
                    offsets[u] += 1;
                    offsets[v as usize] += 1;
                }
            }
        }
        let mut total = 0;
        for slot in &mut offsets {
            total += std::mem::replace(slot, total);
        }
        // Scatter with `offsets[v]` as `v`'s cursor; afterwards it is where
        // `v`'s list ends, i.e. where `v + 1`'s starts.
        let mut adj = vec![0 as VertexId; total];
        for u in 0..n {
            for a in self.offsets[u]..self.offsets[u + 1] {
                if kept[a / 64] >> (a % 64) & 1 == 1 {
                    let v = self.adj[a] as usize;
                    adj[offsets[u]] = v as VertexId;
                    offsets[u] += 1;
                    adj[offsets[v]] = u as VertexId;
                    offsets[v] += 1;
                }
            }
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        Graph::from_csr(offsets, adj)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of vertices with at least one edge. An isolated vertex is a
    /// finished component and needs no machine, so this, not [`Graph::n`],
    /// is what a "fits one machine" test counts.
    pub fn non_isolated(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Calls `f(v, j, w, k)` for every arc `v → w` in CSR order, where `w`
    /// is `v`'s `j`-th neighbour and `v` is `w`'s `k`-th.
    ///
    /// One cursor pass instead of a binary search per arc: sources come in
    /// ascending order, so the arcs into `w` arrive in the order of `w`'s
    /// own sorted list and `k` counts those that came before.
    pub(crate) fn for_each_arc(&self, mut f: impl FnMut(VertexId, usize, VertexId, usize)) {
        let mut cursor = vec![0 as VertexId; self.n()];
        for v in 0..self.n() as VertexId {
            for (j, &w) in self.neighbors(v).iter().enumerate() {
                let k = cursor[w as usize];
                cursor[w as usize] += 1;
                f(v, j, w, k as usize);
            }
        }
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The proof that the graph is acyclic, or `None` if an edge closes a
    /// cycle: one union-find pass over the edges, the only one a forest
    /// pipeline runs.
    pub fn as_forest(&self) -> Option<Forest<'_>> {
        let mut uf = crate::UnionFind::new(self.n());
        // An edge inside an existing component closes a cycle.
        self.edges().all(|(u, v)| uf.union(u, v)).then_some(Forest { graph: self })
    }
}

/// Proof that a graph is a forest. [`Graph::as_forest`] is its only
/// constructor, so a function that takes a `Forest` runs on an acyclic
/// input without checking it again.
#[derive(Clone, Copy, Debug)]
pub struct Forest<'g> {
    graph: &'g Graph,
}

impl<'g> Forest<'g> {
    /// The graph proven acyclic.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The number of trees: every edge of a forest joins two trees, so it
    /// has `n − m`.
    pub fn components(&self) -> usize {
        self.graph.n() - self.graph.m()
    }
}

/// A pipeline's input as far as it has been checked: proven a forest, or
/// any graph.
#[derive(Clone, Copy, Debug)]
pub enum Input<'g> {
    /// A graph proven acyclic.
    Forest(Forest<'g>),
    /// A graph of unknown shape.
    Graph(&'g Graph),
}

impl<'g> Input<'g> {
    /// The graph itself.
    pub fn graph(&self) -> &'g Graph {
        match self {
            Input::Forest(forest) => forest.graph(),
            Input::Graph(g) => g,
        }
    }

    /// The true number of connected components, counted in the same pass
    /// over the edges that checks `edge_ok(u, v)` on each; the first edge
    /// it rejects is the error. The count is the proof's `n − m` for a
    /// forest, and a union-find's, riding along that pass, otherwise.
    pub fn components_checked(
        &self,
        mut edge_ok: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Result<usize, (VertexId, VertexId)> {
        match self {
            Input::Forest(forest) => match forest.graph.edges().find(|&(u, v)| !edge_ok(u, v)) {
                Some(edge) => Err(edge),
                None => Ok(forest.components()),
            },
            Input::Graph(g) => {
                let mut uf = crate::UnionFind::new(g.n());
                for (u, v) in g.edges() {
                    if !edge_ok(u, v) {
                        return Err((u, v));
                    }
                    uf.union(u, v);
                }
                Ok(uf.num_components())
            }
        }
    }
}

impl<'g> From<&'g Graph> for Input<'g> {
    fn from(g: &'g Graph) -> Self {
        Input::Graph(g)
    }
}

impl<'g> From<Forest<'g>> for Input<'g> {
    fn from(forest: Forest<'g>) -> Self {
        Input::Forest(forest)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.as_forest().is_none());
    }

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edges_iterate_once_each() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn path_is_forest() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(g.as_forest().is_some());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn a_forest_proof_counts_its_trees() {
        let mut rng = ampc::rng::SplitMix64::new(0xF0);
        for case in 0..60usize {
            let n = 1 + case;
            let edges: Vec<_> = (0..rng.next_below(2 * n as u64))
                .map(|_| {
                    (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId)
                })
                .collect();
            let g = Graph::from_edges(n, &edges);
            let truth = crate::reference_components(&g).num_components();
            // A graph is a forest exactly when it has n − c edges.
            assert_eq!(g.as_forest().is_some(), g.m() == n - truth, "case {case}");
            for input in [Input::from(&g)].into_iter().chain(g.as_forest().map(Input::from)) {
                assert!(std::ptr::eq(input.graph(), &g));
                assert_eq!(input.components_checked(|_, _| true), Ok(truth), "case {case}");
                // The first edge the check rejects comes back, in `edges` order.
                let mut seen = 0;
                let third = input.components_checked(|_, _| {
                    seen += 1;
                    seen < 3
                });
                assert_eq!(third.err(), g.edges().nth(2), "case {case}");
            }
        }
    }

    #[test]
    fn for_each_arc_gives_both_positions() {
        let mut rng = ampc::rng::SplitMix64::new(0xA2C);
        for case in 0..50usize {
            let n = 1 + case;
            let edges: Vec<_> = (0..rng.next_below(3 * n as u64))
                .map(|_| {
                    (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId)
                })
                .collect();
            let g = Graph::from_edges(n, &edges);
            let mut arcs = 0;
            g.for_each_arc(|v, j, w, k| {
                assert_eq!(g.neighbors(v)[j], w);
                assert_eq!(g.neighbors(w)[k], v);
                arcs += 1;
            });
            assert_eq!(arcs, 2 * g.m());
        }
    }

    #[test]
    fn block_starts_sums_the_layout() {
        assert_eq!(block_starts([3, 0, 2].into_iter(), "layout"), vec![0, 3, 3, 5]);
        assert_eq!(block_starts([].into_iter(), "layout"), vec![0]);
        let full = block_starts([VertexId::MAX as usize - 1, 1].into_iter(), "layout");
        assert_eq!(full.last(), Some(&VertexId::MAX));
    }

    #[test]
    #[should_panic(expected = "the layout needs at least 4294967296 vertex ids")]
    fn block_starts_past_the_id_space_panics() {
        block_starts([VertexId::MAX as usize, 1].into_iter(), "the layout");
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert!(g.as_forest().is_some());
    }

    /// The construction `from_edges` replaced: materialise both orientations
    /// of every edge, comparison-sort and deduplicate the pairs.
    fn from_edges_by_pair_sort(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut pairs: Vec<_> =
            edges.iter().filter(|(u, v)| u != v).flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Graph { offsets, adj: pairs.into_iter().map(|(_, v)| v).collect() }
    }

    #[test]
    fn from_edges_equals_pair_sort_reference() {
        let mut rng = ampc::rng::SplitMix64::new(0xC5A);
        for case in 0..200usize {
            // Vertices n/2.. stay isolated; vertex 0 is a hub in every third case.
            let n = 2 + case % 40;
            let span = (n / 2).max(2) as u64;
            let mut edges = Vec::new();
            for _ in 0..rng.next_below(4 * n as u64) {
                let (u, v) = (rng.next_below(span) as VertexId, rng.next_below(span) as VertexId);
                edges.push((u, v)); // self-loops included
                match rng.next_below(4) {
                    0 => edges.push((v, u)), // duplicate, other orientation
                    1 => edges.push((u, v)), // duplicate, same orientation
                    _ => {}
                }
            }
            if case % 3 == 0 {
                edges.extend((1..n as VertexId).map(|v| (v, 0))); // hub of degree n - 1
            }
            let g = Graph::from_edges(n, &edges);
            assert_eq!(g, from_edges_by_pair_sort(n, &edges), "case {case}: n={n} {edges:?}");
            if case % 3 == 0 {
                assert_eq!(g.degree(0), n - 1);
            }
        }
    }

    /// What `filter_edges` replaced: collect the kept edges, then `from_edges`.
    fn filter_by_edge_list(g: &Graph, keep: impl FnMut(&(VertexId, VertexId)) -> bool) -> Graph {
        Graph::from_edges(g.n(), &g.edges().filter(keep).collect::<Vec<_>>())
    }

    fn assert_sorted_lists(g: &Graph) {
        for v in 0..g.n() as VertexId {
            assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]), "list of {v} unsorted");
        }
    }

    #[test]
    fn filter_edges_equals_edge_list_filter() {
        use ampc::rng::stream;
        for family in crate::generators::GraphFamily::ALL {
            for seed in 0..3u64 {
                let g = family.generate(200 + 53 * seed as usize, seed);
                let what = format!("{} seed {seed}", family.name());
                for p in [0.0, 1e-3, 0.5, 1.0] {
                    let coin =
                        |u: VertexId, v: VertexId| stream(seed, 0, u as u64, v as u64).bernoulli(p);
                    let h = g.filter_edges(coin);
                    assert_eq!(h, filter_by_edge_list(&g, |&(u, v)| coin(u, v)), "{what} p={p}");
                    assert_sorted_lists(&h);
                }
                let mut asked = Vec::new();
                let all = g.filter_edges(|u, v| {
                    asked.push((u, v));
                    true
                });
                assert_eq!(asked, g.edges().collect::<Vec<_>>(), "{what}: each edge asked once");
                assert_eq!(all, g, "{what}: keep-all");
                assert_eq!(g.filter_edges(|_, _| false), Graph::empty(g.n()), "{what}: keep-none");
                // A predicate that is not symmetric in its arguments still
                // decides each edge once, by its (smaller, larger) ends.
                let skewed = g.filter_edges(|u, v| (u + 2 * v) % 3 == 0);
                assert_eq!(skewed, filter_by_edge_list(&g, |&(u, v)| (u + 2 * v) % 3 == 0));
                assert_sorted_lists(&skewed);
            }
        }
    }

    #[test]
    fn from_edges_degenerate_sizes() {
        for (n, edges) in [(0, vec![]), (1, vec![]), (1, vec![(0, 0)]), (5, vec![])] {
            let g = Graph::from_edges(n, &edges);
            assert_eq!(g, from_edges_by_pair_sort(n, &edges));
            assert_eq!(g, Graph::empty(n));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 5)]);
    }
}
