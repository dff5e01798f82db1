//! The maximum-degree-3 transform of §4.3.
//!
//! `ShrinkGeneral` begins "by transforming the input graph G to a graph G3
//! with maximum degree 3 … by replacing each vertex v of degree d > 3 with a
//! cycle of length d. Each edge incident to v is then connected to a
//! different vertex of the cycle."
//!
//! Connectivity is preserved (a gadget cycle is connected and carries its
//! vertex's identity), so a CC-labeling of `G3` projects to one of `G`
//! through any copy of each vertex, e.g. its first, `base[v]`.
//!
//! [`degree3_words`] writes `G3` once, as the two words a vertex that
//! `ShrinkGeneral` keeps in its `ADJ` keyspace ([`pack_adj`]); the gadget
//! is implicit in the block starts `base`. [`to_degree3`] unpacks the same
//! words into a CSR [`Graph`] for callers that want one.

use crate::csr::{block_starts, Graph, VertexId};

/// `G3` as two words per vertex: vertex `u`'s list is
/// `unpack_adj(words[2u], words[2u + 1])`.
#[derive(Clone, Debug)]
pub struct Degree3Words {
    /// The packed adjacency lists, `2 · n3` words ([`pack_adj`]).
    pub words: Vec<u64>,
    /// Input vertex `v`'s copies are `base[v]..base[v + 1]`, and `base[n]`
    /// is `n3`. A vertex of degree ≤ 3 has one copy, a vertex of degree
    /// `d > 3` the `d` nodes of its gadget cycle.
    pub base: Vec<VertexId>,
    /// Edges of `G3`.
    pub m: usize,
}

impl Degree3Words {
    /// Vertices of `G3`.
    pub fn n(&self) -> usize {
        self.words.len() / 2
    }

    /// Vertex `u`'s neighbours (the first `len` real) and `len`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> ([u64; 3], usize) {
        unpack_adj(self.words[2 * u], self.words[2 * u + 1])
    }

    /// Each undirected edge once, as `(u, w)` with `u < w`, in the order
    /// of [`Graph::edges`] on the unpacked graph.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n()).flat_map(move |u| {
            let (nbrs, len) = self.neighbors(u);
            (0..len).map(move |i| (u as VertexId, nbrs[i] as VertexId)).filter(|&(u, w)| u < w)
        })
    }
}

/// Stores neighbour `j < 3` of a vertex in its two words: `n0 | n1 << 32`
/// and `n2 | len << 32`.
#[inline]
fn set_neighbor(pair: &mut [u64], j: usize, w: VertexId) {
    pair[j / 2] |= (w as u64) << (32 * (j % 2));
}

/// The two words of a vertex with these neighbours: `n0 | n1 << 32` and
/// `n2 | len << 32`, absent neighbours zero.
///
/// # Panics
/// Panics if `neighbors` holds more than 3 vertices: the degree-3
/// transform's postcondition is this layout's precondition.
pub fn pack_adj(neighbors: &[VertexId]) -> [u64; 2] {
    let len = neighbors.len();
    assert!(
        len <= 3,
        "a G3 vertex has degree {len}: the degree-3 transform bounds every degree by 3"
    );
    let mut pair = [0, (len as u64) << 32];
    for (j, &w) in neighbors.iter().enumerate() {
        set_neighbor(&mut pair, j, w);
    }
    pair
}

/// Inverse of [`pack_adj`]: the neighbours (the first `len` real) and `len`.
#[inline]
pub fn unpack_adj(lo: u64, hi: u64) -> ([u64; 3], usize) {
    ([lo & 0xFFFF_FFFF, lo >> 32, hi & 0xFFFF_FFFF], (hi >> 32) as usize)
}

/// Applies the transform, writing `G3` as its packed words. Vertices of
/// degree ≤ 3 are kept as single nodes; each vertex of degree `d > 3`
/// becomes a `d`-cycle of gadget nodes, edge `i` of the vertex attaching to
/// gadget node `i`.
///
/// No edge list and no CSR: the layout fixes every vertex's two words, and
/// one `Graph::for_each_arc` pass over `g` fills them.
///
/// # Panics
/// Panics if `G3` would have more vertices than the `u32` id space holds.
pub fn degree3_words(g: &Graph) -> Degree3Words {
    let n = g.n();

    // Layout: vertex v occupies new ids base[v] .. base[v + 1]: one node for
    // degree ≤ 3, one gadget node per edge slot otherwise.
    let slots = (0..n as VertexId).map(|v| if g.degree(v) > 3 { g.degree(v) } else { 1 });
    let base = block_starts(slots, "the degree-3 transform");
    let n3 = base[n] as usize;
    let gadget = |v: usize| base[v + 1] - base[v] > 1;

    // A single node lists its vertex's (≤ 3) edges and gets its length
    // here; a gadget node lists its two cycle neighbours and the one edge
    // attached to it, all written with its arc. A gadget of degree d adds d
    // cycle edges to the d cross edges.
    let mut words = vec![0u64; 2 * n3];
    let mut m = g.m();
    for v in 0..n {
        let d = g.degree(v as VertexId);
        if gadget(v) {
            m += d;
        } else {
            words[2 * base[v] as usize + 1] = (d as u64) << 32;
        }
    }

    // Edge slot j of v meets slot k of w: one cross edge per arc direction.
    // No list needs sorting. A single node's neighbours lie in the blocks
    // of its sorted neighbours, in order. A gadget node's cross neighbour
    // lies outside its block, so it sorts below or above both cycle
    // neighbours, and those differ because d ≥ 4.
    g.for_each_arc(|v, j, w, k| {
        let (v, w) = (v as usize, w as usize);
        let to = if gadget(w) { base[w] + k as VertexId } else { base[w] };
        if gadget(v) {
            let (b, d, j) = (base[v], base[v + 1] - base[v], j as VertexId);
            let (prev, next) = (b + (j + d - 1) % d, b + (j + 1) % d);
            let (lo, hi) = (prev.min(next), prev.max(next));
            let u = 2 * (b + j) as usize;
            let list = if to < b { [to, lo, hi] } else { [lo, hi, to] };
            words[u..u + 2].copy_from_slice(&pack_adj(&list));
        } else {
            let u = 2 * base[v] as usize;
            set_neighbor(&mut words[u..u + 2], j, to);
        }
    });

    Degree3Words { words, base, m }
}

/// Result of the degree-3 transform as a CSR graph.
#[derive(Clone, Debug)]
pub struct Degree3 {
    /// The transformed graph, `max_degree() <= 3`.
    pub graph: Graph,
    /// `origin[x]` = vertex of the input graph that `x` belongs to.
    pub origin: Vec<VertexId>,
}

/// [`degree3_words`] unpacked into a CSR graph, with each `G3` vertex's
/// input vertex. The lists come out sorted, so no edge list is built.
pub fn to_degree3(g: &Graph) -> Degree3 {
    let g3 = degree3_words(g);
    let n3 = g3.n();
    let mut offsets = Vec::with_capacity(n3 + 1);
    let mut adj = Vec::with_capacity(2 * g3.m);
    offsets.push(0);
    for u in 0..n3 {
        let (nbrs, len) = g3.neighbors(u);
        adj.extend(nbrs[..len].iter().map(|&w| w as VertexId));
        offsets.push(adj.len());
    }
    let origin = g3
        .base
        .windows(2)
        .enumerate()
        .flat_map(|(v, copies)| {
            std::iter::repeat_n(v as VertexId, (copies[1] - copies[0]) as usize)
        })
        .collect();
    Degree3 { graph: Graph::from_csr(offsets, adj), origin }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract, contract_degree3};
    use crate::generators::{star, GraphFamily};
    use crate::{reference_components, Labeling};

    /// The construction `to_degree3` replaced: an edge list of the gadget
    /// cycles and one cross edge per input edge (each endpoint's slot found
    /// by binary search), built by `from_edges`.
    fn to_degree3_by_edge_list(g: &Graph) -> Degree3 {
        let n = g.n();
        let slots = |v: VertexId| if g.degree(v) > 3 { g.degree(v) } else { 1 };
        let mut base = vec![0u32; n + 1];
        for v in 0..n {
            base[v + 1] = base[v] + slots(v as VertexId) as u32;
        }
        let origin = (0..n as VertexId).flat_map(|v| std::iter::repeat_n(v, slots(v))).collect();
        let attach = |v: VertexId, u: VertexId| {
            let j = g.neighbors(v).binary_search(&u).expect("CSR symmetric");
            base[v as usize] + if g.degree(v) > 3 { j as u32 } else { 0 }
        };
        let mut edges = Vec::new();
        for v in 0..n as VertexId {
            let (b, d) = (base[v as usize], g.degree(v) as u32);
            if d > 3 {
                edges.extend((0..d).map(|j| (b + j, b + (j + 1) % d)));
            }
        }
        edges.extend(g.edges().map(|(u, v)| (attach(u, v), attach(v, u))));
        Degree3 { graph: Graph::from_edges(base[n] as usize, &edges), origin }
    }

    /// `to_degree3` unpacks `degree3_words`, so this checks the writer too;
    /// the words' edge walk, edge count and block starts are checked here,
    /// and so is `Contract(G3, C)` over the words against `contract` of the
    /// reference graph, on few classes, many classes and labels far above
    /// `n3` (which take `relabel`'s hashed path).
    fn assert_matches_edge_list(g: &Graph, what: &str) {
        let (direct, reference) = (to_degree3(g), to_degree3_by_edge_list(g));
        assert_eq!(direct.graph, reference.graph, "{what}: offsets or adjacency differ");
        assert_eq!(direct.origin, reference.origin, "{what}: origin differs");
        let g3 = degree3_words(g);
        assert_eq!(g3.m, reference.graph.m(), "{what}: edge count differs");
        assert!(g3.edges().eq(reference.graph.edges()), "{what}: the words' edges differ");
        for (v, &first) in g3.base[..g.n()].iter().enumerate() {
            assert_eq!(reference.origin[first as usize], v as VertexId, "{what}: base[{v}]");
        }

        let n3 = g3.n() as u64;
        let mut state = n3;
        let mut labels = |f: &dyn Fn(u64) -> u64| -> Vec<u64> {
            (0..n3)
                .map(|_| {
                    state = ampc::rng::mix(state);
                    f(state)
                })
                .collect()
        };
        for labels in [
            labels(&|r| r % (n3 / 8).max(1)),
            labels(&|r| r % n3.max(1)),
            labels(&|r| (r % 7) << 40),
        ] {
            let (words, graph) =
                (contract_degree3(&g3, &labels), contract(&reference.graph, &labels));
            assert_eq!(words.graph, graph.graph, "{what}: contracted graph differs");
            assert_eq!(words.class_of, graph.class_of, "{what}: class_of differs");
        }
    }

    #[test]
    fn direct_csr_equals_edge_list_construction() {
        for family in GraphFamily::ALL {
            for seed in 0..5 {
                let g = family.generate(150 + 41 * seed as usize, seed);
                assert_matches_edge_list(&g, &format!("{} seed {seed}", family.name()));
            }
        }
    }

    #[test]
    fn direct_csr_edge_cases() {
        let mut k8 = Vec::new();
        for u in 0..8u32 {
            k8.extend((u + 1..8).map(|v| (u, v)));
        }
        let cases = [
            ("n = 0", Graph::empty(0)),
            ("edgeless", Graph::empty(4)),
            ("isolated beside an edge", Graph::from_edges(5, &[(1, 3)])),
            // Vertex 0 has degree exactly 3 and vertex 1 exactly 4.
            (
                "degree 3 next to degree 4",
                Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]),
            ),
            ("star", star(9)),
            ("K8 (every cross edge gadget to gadget)", Graph::from_edges(8, &k8)),
        ];
        for (what, g) in &cases {
            assert_matches_edge_list(g, what);
        }
    }

    #[test]
    fn adjacencies_round_trip_through_their_words() {
        // Every list of 0 to 3 ids from zero and the two largest ids: a high
        // bit of `n0` must not leak into `n1`, nor one of `n2` into `len`.
        const IDS: [VertexId; 3] = [0, u32::MAX - 1, u32::MAX];
        let mut lists: Vec<Vec<VertexId>> = vec![vec![]];
        for degree in 1..=3 {
            let shorter: Vec<Vec<VertexId>> =
                lists.iter().filter(|l| l.len() == degree - 1).cloned().collect();
            for list in shorter {
                lists.extend(IDS.iter().map(|&w| [&list[..], &[w]].concat()));
            }
        }
        assert_eq!(lists.len(), 1 + 3 + 9 + 27);
        for list in &lists {
            let [lo, hi] = pack_adj(list);
            let (nbrs, len) = unpack_adj(lo, hi);
            let want: Vec<u64> = list.iter().map(|&w| w as u64).collect();
            assert_eq!(nbrs[..len], want, "{list:?}");
            assert!(nbrs[len..].iter().all(|&w| w == 0), "{list:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a G3 vertex has degree 4")]
    fn degree_four_adjacency_is_rejected() {
        pack_adj(&[1, 2, 3, 4]);
    }

    #[test]
    fn low_degree_graph_unchanged_in_size() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let t = to_degree3(&g);
        assert_eq!(t.graph.n(), 4);
        assert_eq!(t.graph.m(), 3);
        assert!(t.graph.max_degree() <= 3);
    }

    #[test]
    fn star_center_becomes_cycle() {
        // Center of a 6-star has degree 5 → becomes a 5-cycle.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let t = to_degree3(&g);
        assert_eq!(t.graph.n(), 5 + 5); // 5 gadget nodes + 5 leaves
        assert!(t.graph.max_degree() <= 3);
        // All gadget nodes map back to vertex 0.
        let zero_copies = t.origin.iter().filter(|&&o| o == 0).count();
        assert_eq!(zero_copies, 5);
    }

    #[test]
    fn transform_preserves_components() {
        let g = Graph::from_edges(
            12,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5), // star (deg 5 center)
                (6, 7),
                (7, 8),
                (8, 6),  // triangle
                (9, 10), // edge; 11 isolated
            ],
        );
        let t = to_degree3(&g);
        assert!(t.graph.max_degree() <= 3);
        let l3 = reference_components(&t.graph);
        // Project to the original vertex set.
        let mut proj = vec![u64::MAX; g.n()];
        for (x, &o) in t.origin.iter().enumerate() {
            let lab = l3.get(x as VertexId);
            if proj[o as usize] == u64::MAX {
                proj[o as usize] = lab;
            } else {
                // All copies of one vertex must be in one G3 component.
                assert_eq!(proj[o as usize], lab);
            }
        }
        // Isolated original vertices stay as their own G3 vertex:
        assert!(proj.iter().all(|&p| p != u64::MAX));
        assert!(Labeling(proj).same_partition(&reference_components(&g)));
    }

    #[test]
    fn degree4_vertex_splits() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let t = to_degree3(&g);
        assert_eq!(t.graph.n(), 4 + 4);
        assert!(t.graph.max_degree() <= 3);
        assert!(reference_components(&t.graph).num_components() == 1);
    }

    #[test]
    fn clique_transform_keeps_connectivity() {
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(8, &edges);
        let t = to_degree3(&g);
        assert!(t.graph.max_degree() <= 3);
        assert_eq!(reference_components(&t.graph).num_components(), 1);
        assert_eq!(t.graph.n(), 8 * 7); // every vertex has degree 7 → 7-cycles
    }
}
