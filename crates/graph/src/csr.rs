//! Compressed sparse row (CSR) storage for undirected graphs.
//!
//! Vertices are dense `u32` identifiers `0..n`. Each undirected edge is
//! stored in both endpoint adjacency lists; adjacency lists are sorted,
//! which the Euler-tour construction exploits for reverse-position lookups.
//!
//! [`Graph::from_edges`] is where every generator, `to_degree3`, `contract`
//! and `sample_edges` end, so it is a counting sort on the source vertex
//! rather than a comparison sort of all `2m` arcs.

/// Dense vertex identifier.
pub type VertexId = u32;

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

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph { offsets: vec![0; n + 1], adj: Vec::new() }
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

    /// Position of `u` within `v`'s sorted adjacency list, if adjacent.
    #[inline]
    pub fn neighbor_position(&self, v: VertexId, u: VertexId) -> Option<usize> {
        self.neighbors(v).binary_search(&u).ok()
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

    /// True iff the graph is acyclic (a forest), checked by counting:
    /// a forest has `n - #components` edges.
    pub fn is_forest(&self) -> bool {
        let mut uf = crate::UnionFind::new(self.n());
        for (u, v) in self.edges() {
            if !uf.union(u, v) {
                return false; // edge inside an existing component closes a cycle
            }
        }
        true
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
        assert!(!g.is_forest());
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
        assert!(g.is_forest());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbor_position_finds_sorted_slots() {
        let g = Graph::from_edges(5, &[(2, 0), (2, 4), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 4]);
        assert_eq!(g.neighbor_position(2, 4), Some(2));
        assert_eq!(g.neighbor_position(2, 3), None);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert!(g.is_forest());
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
