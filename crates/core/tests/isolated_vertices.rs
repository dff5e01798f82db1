//! Isolated vertices are finished components: adding them must not
//! multiply Algorithm 2's rounds. Every fits-one-machine test counts only
//! vertices with an edge (`Graph::non_isolated`), so a graph padded with
//! isolated vertices solves its small levels on one machine as the
//! unpadded graph does.

use ampc_cc::pipeline::{Algorithm, PipelineSpec};
use ampc_graph::generators::erdos_renyi_gnm;
use ampc_graph::{reference_components, Graph, VertexId};

/// Rounds that `|I|` isolated vertices may add to a run on `G`. Counting
/// only vertices with an edge still leaves up to 24 more rounds on the
/// padded graph here, because the padding still enters the space per vertex
/// and the sampling probability; counting every vertex, it added 92.
const EXTRA_ROUNDS: usize = 32;

#[test]
fn isolated_vertices_add_at_most_a_constant_number_of_rounds() {
    let n = 1 << 12;
    let g = erdos_renyi_gnm(n, 4 * n, 1);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let spec = PipelineSpec::default().with_algorithm(Algorithm::General);
    let plain = spec.run(&g).expect("plain run").stats.rounds();
    for extra in [n, 4 * n] {
        let padded = Graph::from_edges(n + extra, &edges);
        let run = spec.run(&padded).expect("padded run");
        assert!(
            run.labeling.same_partition(&reference_components(&padded)),
            "{extra} isolated vertices: labels differ from union-find"
        );
        let rounds = run.stats.rounds();
        assert!(
            rounds <= plain + EXTRA_ROUNDS,
            "{extra} isolated vertices: {rounds} rounds against {plain} on the plain graph"
        );
    }
}
