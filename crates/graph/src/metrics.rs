//! Structural graph metrics used by experiment reports and workload
//! characterization: degree and component-size summaries, and diameter
//! estimation (the quantity MPC connectivity pays for and AMPC does not).

use std::collections::VecDeque;

use crate::csr::{Graph, VertexId};
use crate::labeling::{reference_components, relabel, Relabeled};

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Number of isolated vertices.
    pub isolated: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree (`2m/n`).
    pub mean_degree: f64,
    /// Lower bound on the diameter of the largest component, from a
    /// double-sweep BFS (exact on trees).
    pub diameter_lower_bound: usize,
}

/// Computes [`GraphMetrics`] for `g`.
pub fn metrics(g: &Graph) -> GraphMetrics {
    let Relabeled { class_of, sizes } = relabel(&reference_components(g).0);
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let isolated = (0..g.n() as VertexId).filter(|&v| g.degree(v) == 0).count();

    // Double sweep from the first vertex of a largest component: the minimum
    // of the lowest-id one, so ties between largest components always start
    // in the same place.
    let diameter_lower_bound = class_of
        .iter()
        .position(|&d| sizes[d as usize] == largest)
        .map(|start| {
            let (far, _) = bfs_farthest(g, start as VertexId);
            let (_, dist) = bfs_farthest(g, far);
            dist
        })
        .unwrap_or(0);

    GraphMetrics {
        n: g.n(),
        m: g.m(),
        components: sizes.len(),
        largest_component: largest as usize,
        isolated,
        max_degree: g.max_degree(),
        mean_degree: if g.n() == 0 { 0.0 } else { 2.0 * g.m() as f64 / g.n() as f64 },
        diameter_lower_bound,
    }
}

/// BFS from `start`: returns the farthest vertex and its distance.
pub fn bfs_farthest(g: &Graph, start: VertexId) -> (VertexId, usize) {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::from([start]);
    dist[start as usize] = 0;
    let mut far = (start, 0);
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if dist[w as usize] == usize::MAX {
                dist[w as usize] = dist[u as usize] + 1;
                if dist[w as usize] > far.1 {
                    far = (w, dist[w as usize]);
                }
                queue.push_back(w);
            }
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{disjoint_cliques, grid2d, path, star};

    #[test]
    fn path_metrics() {
        let g = path(100);
        let m = metrics(&g);
        assert_eq!(m.n, 100);
        assert_eq!(m.m, 99);
        assert_eq!(m.components, 1);
        assert_eq!(m.diameter_lower_bound, 99); // exact on trees
        assert_eq!(m.max_degree, 2);
        assert_eq!(m.isolated, 0);
    }

    #[test]
    fn star_metrics() {
        let g = star(50);
        let m = metrics(&g);
        assert_eq!(m.max_degree, 49);
        assert_eq!(m.diameter_lower_bound, 2);
    }

    #[test]
    fn grid_diameter_bound() {
        let g = grid2d(10, 10);
        let m = metrics(&g);
        // True diameter 18; the double sweep must find it exactly on grids'
        // corner-to-corner geodesics.
        assert_eq!(m.diameter_lower_bound, 18);
    }

    #[test]
    fn clique_field_metrics() {
        let g = disjoint_cliques(4, 6);
        let m = metrics(&g);
        assert_eq!(m.components, 4);
        assert_eq!(m.largest_component, 6);
        assert_eq!(m.max_degree, 5);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = Graph::from_edges(10, &[(0, 1)]);
        let m = metrics(&g);
        assert_eq!(m.isolated, 8);
        assert_eq!(m.components, 9);
    }

    use crate::Graph;

    #[test]
    fn diameter_sweep_starts_in_the_same_largest_component_every_call() {
        // path(10) ⊔ star(10): two largest components of diameter 9 and 2.
        let mut edges: Vec<(VertexId, VertexId)> = (0..9).map(|v| (v, v + 1)).collect();
        edges.extend((11..20).map(|v| (10, v)));
        let g = Graph::from_edges(20, &edges);
        for call in 0..64 {
            assert_eq!(metrics(&g).diameter_lower_bound, 9, "call {call}");
        }
    }

    #[test]
    fn empty_graph_metrics() {
        let m = metrics(&Graph::empty(0));
        assert_eq!(m.n, 0);
        assert_eq!(m.diameter_lower_bound, 0);
        assert_eq!(m.mean_degree, 0.0);
    }
}
