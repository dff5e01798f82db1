//! `Contract(G, C)` — the standard vertex-contraction CC-shrinking
//! primitive (Observation 2.2 of the paper).
//!
//! Groups of vertices sharing a value of the mapping `C` are merged;
//! parallel edges are deduplicated and self-loops removed. The paper notes
//! this is implementable in `O(1)` (A)MPC rounds using optimal space
//! [BDE+19]; the algorithm crates execute it natively and charge that
//! published cost to their AMPC meters (see DESIGN.md, "Charging model").

use crate::csr::{Graph, VertexId};
use crate::degree3::Degree3Words;
use crate::labeling::{relabel, Relabeled};

/// Result of a contraction.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The contracted graph over dense new vertex ids, one per class.
    pub graph: Graph,
    /// `class_of[v]` = new vertex id that old vertex `v` contracted into.
    pub class_of: Vec<VertexId>,
}

/// Contracts `g` along `mapping` (one value per vertex; equal values merge).
///
/// New vertex ids are the classes' [`relabel`] ids: assigned in order of
/// each class's minimum original vertex, making the output deterministic.
pub fn contract(g: &Graph, mapping: &[u64]) -> Contraction {
    assert_eq!(mapping.len(), g.n(), "mapping must cover every vertex");
    contract_edges(mapping, g.edges())
}

/// `Contract(G3, C)` over `G3`'s packed words, equal to `contract` of the
/// unpacked graph: `ShrinkGeneral` contracts the words it loaded into its
/// store, with no CSR beside them.
pub fn contract_degree3(g3: &Degree3Words, mapping: &[u64]) -> Contraction {
    assert_eq!(mapping.len(), g3.n(), "mapping must cover every vertex");
    contract_edges(mapping, g3.edges())
}

/// Contracts the graph of these edges (each once, over the vertices
/// `mapping` labels) along `mapping`.
fn contract_edges(
    mapping: &[u64],
    edges: impl Iterator<Item = (VertexId, VertexId)>,
) -> Contraction {
    let Relabeled { class_of, sizes } = relabel(mapping);

    let edges: Vec<(VertexId, VertexId)> = edges
        .map(|(u, v)| (class_of[u as usize], class_of[v as usize]))
        .filter(|&(a, b)| a != b)
        .collect();

    Contraction { graph: Graph::from_edges(sizes.len(), &edges), class_of }
}

/// Projects a CC-labeling of the contracted graph back to the original
/// vertex set: the `Compose` direction of Definition 2.1.
pub fn compose_labels(contraction: &Contraction, contracted_labels: &[u64]) -> Vec<u64> {
    contraction.class_of.iter().map(|&c| contracted_labels[c as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference_components, Labeling};

    #[test]
    fn contraction_merges_classes() {
        // Path 0-1-2-3; contract {0,1} and {2,3}.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = contract(&g, &[10, 10, 20, 20]);
        assert_eq!(c.graph.n(), 2);
        assert_eq!(c.graph.m(), 1); // the 1-2 edge survives; loops dropped
        assert_eq!(c.class_of, vec![0, 0, 1, 1]);
    }

    #[test]
    fn parallel_edges_dedup() {
        // Square 0-1-2-3-0; contract {0,2} vs {1,3} → two classes joined by
        // four parallel edges → one edge.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let c = contract(&g, &[1, 2, 1, 2]);
        assert_eq!(c.graph.n(), 2);
        assert_eq!(c.graph.m(), 1);
    }

    #[test]
    fn contraction_is_cc_shrinking() {
        // Definition 2.1: CC-labeling of H + mapping → CC-labeling of G.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]);
        // Contract arbitrary within-component groups.
        let c = contract(&g, &[0, 0, 1, 2, 2, 3, 3, 4]);
        let h_labels = reference_components(&c.graph);
        let g_labels = Labeling(compose_labels(&c, &h_labels.0));
        assert!(g_labels.same_partition(&reference_components(&g)));
    }

    #[test]
    fn identity_mapping_is_isomorphic() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let ids: Vec<u64> = (0..5).collect();
        let c = contract(&g, &ids);
        assert_eq!(c.graph.n(), 5);
        assert_eq!(c.graph.m(), g.m());
    }

    #[test]
    fn full_contraction_leaves_one_vertex_per_class() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let labels = reference_components(&g);
        let c = contract(&g, &labels.0);
        assert_eq!(c.graph.n(), 2);
        assert_eq!(c.graph.m(), 0);
    }

    #[test]
    #[should_panic(expected = "mapping must cover")]
    fn wrong_mapping_length_panics() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        contract(&g, &[1, 2]);
    }
}
