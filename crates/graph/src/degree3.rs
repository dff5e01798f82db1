//! The maximum-degree-3 transform of §4.3.
//!
//! `ShrinkGeneral` begins "by transforming the input graph G to a graph G3
//! with maximum degree 3 … by replacing each vertex v of degree d > 3 with a
//! cycle of length d. Each edge incident to v is then connected to a
//! different vertex of the cycle."
//!
//! Connectivity is preserved (a gadget cycle is connected and carries its
//! vertex's identity), so a CC-labeling of `G3` projects to one of `G`
//! through [`Degree3::origin`].

use crate::csr::{block_starts, Graph, VertexId};

/// Result of the degree-3 transform.
#[derive(Clone, Debug)]
pub struct Degree3 {
    /// The transformed graph, `max_degree() <= 3`.
    pub graph: Graph,
    /// `origin[x]` = vertex of the input graph that `x` belongs to.
    pub origin: Vec<VertexId>,
}

/// Applies the transform. Vertices of degree ≤ 3 are kept as single nodes;
/// each vertex of degree `d > 3` becomes a `d`-cycle of gadget nodes, edge
/// `i` of the vertex attaching to gadget node `i`.
///
/// `G3`'s CSR is written directly, with no edge list: the layout fixes
/// every list's length, and one pass over `g`'s arcs fills them.
///
/// # Panics
/// Panics if `G3` would have more vertices than the `u32` id space holds.
pub fn to_degree3(g: &Graph) -> Degree3 {
    let n = g.n();

    // Layout: vertex v occupies new ids base[v] .. base[v + 1]: one node for
    // degree ≤ 3, one gadget node per edge slot otherwise.
    let slots = (0..n as VertexId).map(|v| if g.degree(v) > 3 { g.degree(v) } else { 1 });
    let base = block_starts(slots, "the degree-3 transform");
    let n3 = base[n] as usize;
    let gadget = |v: usize| base[v + 1] - base[v] > 1;

    // A single node lists its vertex's (≤ 3) edges; a gadget node lists its
    // two cycle neighbours and the one edge attached to it.
    let mut offsets = Vec::with_capacity(n3 + 1);
    let mut origin = Vec::with_capacity(n3);
    let mut len = 0;
    for v in 0..n {
        let (nodes, list) =
            if gadget(v) { (g.degree(v as VertexId), 3) } else { (1, g.degree(v as VertexId)) };
        for _ in 0..nodes {
            offsets.push(len);
            origin.push(v as VertexId);
            len += list;
        }
    }
    offsets.push(len);

    // Edge slot j of v meets slot k of w: one cross edge per arc direction.
    // No list needs sorting. A single node's neighbours lie in the blocks
    // of its sorted neighbours, in order. A gadget node's cross neighbour
    // lies outside its block, so it sorts below or above both cycle
    // neighbours, and those differ because d ≥ 4.
    let mut adj = vec![0 as VertexId; len];
    g.for_each_arc(|v, j, w, k| {
        let (v, w) = (v as usize, w as usize);
        let to = if gadget(w) { base[w] + k as VertexId } else { base[w] };
        if gadget(v) {
            let (b, d, j) = (base[v], base[v + 1] - base[v], j as VertexId);
            let (prev, next) = (b + (j + d - 1) % d, b + (j + 1) % d);
            let (lo, hi) = (prev.min(next), prev.max(next));
            let at = offsets[(b + j) as usize];
            adj[at..at + 3].copy_from_slice(&if to < b { [to, lo, hi] } else { [lo, hi, to] });
        } else {
            adj[offsets[base[v] as usize] + j] = to;
        }
    });

    Degree3 { graph: Graph::from_csr(offsets, adj), origin }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn assert_matches_edge_list(g: &Graph, what: &str) {
        let (direct, reference) = (to_degree3(g), to_degree3_by_edge_list(g));
        assert_eq!(direct.graph, reference.graph, "{what}: offsets or adjacency differ");
        assert_eq!(direct.origin, reference.origin, "{what}: origin differs");
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
