//! End-to-end integration: every algorithm, every workload family, checked
//! against sequential ground truth and against each other.

use adaptive_mpc_connectivity::ampc::{AmpcConfig, Budget};
use adaptive_mpc_connectivity::cc::baselines::mpc_label_prop::{
    exponentiated_propagation, min_label_propagation,
};
use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::cc::general::bdeplus::theorem41;
use adaptive_mpc_connectivity::graph::generators::{ForestFamily, GraphFamily};
use adaptive_mpc_connectivity::graph::{reference_components, Graph};

#[test]
fn forest_pipeline_on_every_family_and_size() {
    for fam in ForestFamily::ALL {
        for n in [64usize, 500, 4000] {
            let g = fam.generate(n, fam as u64 * 31 + n as u64);
            let res = connected_components_forest(
                g.as_forest().unwrap(),
                &ForestCcConfig::default().with_seed(n as u64),
            )
            .unwrap();
            assert!(
                res.labeling.same_partition(&reference_components(&g)),
                "family {} n {n}",
                fam.name()
            );
        }
    }
}

#[test]
fn general_pipeline_on_every_family_and_size() {
    for fam in GraphFamily::ALL {
        for n in [64usize, 500, 2500] {
            let g = fam.generate(n, fam as u64 * 17 + n as u64);
            let res =
                connected_components_general(&g, &GeneralCcConfig::default().with_seed(n as u64))
                    .unwrap();
            assert!(
                res.labeling.same_partition(&reference_components(&g)),
                "family {} n {n}",
                fam.name()
            );
        }
    }
}

#[test]
fn all_five_algorithms_agree_on_forests() {
    // A forest is also a general graph: Algorithm 1, Algorithm 2, the
    // Theorem 4.1 solver, and both MPC baselines must induce the same
    // partition.
    let g = ForestFamily::ManyTrees.generate(2000, 7);
    let truth = reference_components(&g);

    let a1 =
        connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default()).unwrap();
    assert!(a1.labeling.same_partition(&truth), "Algorithm 1");

    let a2 = connected_components_general(&g, &GeneralCcConfig::default()).unwrap();
    assert!(a2.labeling.same_partition(&truth), "Algorithm 2");

    let budget = Budget { s: 1 << 10, t: 16 * (g.n() + g.m()) };
    let b41 = theorem41(&g, budget, &AmpcConfig::default()).unwrap();
    assert!(b41.labeling.same_partition(&truth), "Theorem 4.1");

    assert!(min_label_propagation(&g).labeling.same_partition(&truth), "MPC min-label");
    assert!(exponentiated_propagation(&g).labeling.same_partition(&truth), "MPC doubling");
}

#[test]
fn forest_of_single_edges() {
    // n/2 disjoint edges: every Euler cycle is the minimal 2-cycle.
    let n = 2000;
    let edges: Vec<(u32, u32)> = (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect();
    let g = Graph::from_edges(n as usize, &edges);
    let res =
        connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default()).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
    assert_eq!(res.labeling.num_components(), n as usize / 2);
}

#[test]
fn star_forest_extreme_degree_skew() {
    // Stars stress the Euler tour (center degree ≈ tree size).
    let mut edges = Vec::new();
    let mut base = 0u32;
    for size in [3u32, 50, 500, 1000] {
        for leaf in 1..size {
            edges.push((base, base + leaf));
        }
        base += size;
    }
    let g = Graph::from_edges(base as usize, &edges);
    let res =
        connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default()).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
    assert_eq!(res.labeling.num_components(), 4);
}

#[test]
fn general_graph_that_is_one_huge_clique_plus_dust() {
    let mut edges = Vec::new();
    for u in 0..60u32 {
        for v in (u + 1)..60 {
            edges.push((u, v));
        }
    }
    // Dust: 500 isolated vertices.
    let g = Graph::from_edges(560, &edges);
    let res = connected_components_general(&g, &GeneralCcConfig::default()).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
    assert_eq!(res.labeling.num_components(), 501);
}

#[test]
fn rounds_grow_sublogarithmically_on_forests() {
    // Theorem 1.1's shape across two decades of n: the round count must be
    // essentially flat (log* is ≤ 5 for anything representable).
    let r_small = connected_components_forest(
        ForestFamily::RandomTree.generate(1 << 10, 3).as_forest().unwrap(),
        &ForestCcConfig::default(),
    )
    .unwrap()
    .stats
    .rounds();
    let r_large = connected_components_forest(
        ForestFamily::RandomTree.generate(1 << 17, 3).as_forest().unwrap(),
        &ForestCcConfig::default(),
    )
    .unwrap()
    .stats
    .rounds();
    assert!(
        r_large <= r_small + 24,
        "rounds {r_small} → {r_large}: grew more than a log*-like amount"
    );
}

#[test]
fn mpc_baseline_pays_diameter_where_ampc_does_not() {
    // The motivating separation: on a path, MPC min-label needs Θ(n)
    // rounds; Algorithm 1 stays in the tens.
    let g = adaptive_mpc_connectivity::graph::generators::path(3000);
    let ampc =
        connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default()).unwrap();
    let mpc = min_label_propagation(&g);
    assert!(ampc.stats.rounds() < 64);
    assert!(mpc.rounds >= 2999);
    assert!(ampc.labeling.same_partition(&mpc.labeling));
}
