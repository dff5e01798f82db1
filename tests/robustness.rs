//! Robustness and failure-injection tests: degenerate configurations,
//! starved walk budgets, extreme machine counts, and determinism.
//!
//! The cap-abstention analysis in `shrink_small.rs` claims the algorithms
//! stay *correct* (if slower) when adaptive walks are truncated early;
//! these tests inject exactly those conditions.

use adaptive_mpc_connectivity::ampc::AmpcConfig;
use adaptive_mpc_connectivity::cc::cycles::CycleState;
use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::forest::shrink_small::shrink_small_cycles;
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::graph::generators::{erdos_renyi_gnm, random_forest};
use adaptive_mpc_connectivity::graph::reference_components;

/// Drives rank-contraction iterations under a starved walk cap and checks
/// that labels remain exactly right.
#[test]
fn starved_walk_cap_preserves_correctness() {
    // One 500-cycle and one 37-cycle, with walks capped at 8 hops — far
    // below the cycle lengths, so probes constantly abstain.
    let mut succ: Vec<u64> = (0..500u64).map(|i| (i + 1) % 500).collect();
    succ.extend((0..37u64).map(|i| 500 + (i + 1) % 37));
    let mut st =
        CycleState::from_successors(&succ, AmpcConfig::default().with_machines(4).with_seed(3));
    let mut guard = 0;
    while !st.alive.is_empty() {
        shrink_small_cycles(&mut st, 3, 8, true).unwrap();
        guard += 1;
        assert!(guard < 400, "starved run failed to converge");
    }
    let labels = st.compose_labels(3 * guard + 8).unwrap();
    // All of cycle 1 shares a label; all of cycle 2 shares a different one.
    assert!(labels[..500].iter().all(|&l| l == labels[0]));
    assert!(labels[500..].iter().all(|&l| l == labels[500]));
    assert_ne!(labels[0], labels[500]);
}

#[test]
fn cap_stalls_are_bounded_not_fatal() {
    // Even with cap = 2 (walks see a single neighbor), Step 2's whole-cycle
    // case never fires, but segment contraction between adjacent leaders
    // still makes progress. Tiny cycles keep everything finite.
    let succ: Vec<u64> = (0..60u64).map(|i| if i % 3 == 2 { i - 2 } else { i + 1 }).collect();
    let mut st =
        CycleState::from_successors(&succ, AmpcConfig::default().with_machines(2).with_seed(9));
    let mut guard = 0;
    while !st.alive.is_empty() && guard < 300 {
        shrink_small_cycles(&mut st, 2, 2, true).unwrap();
        guard += 1;
    }
    assert!(st.alive.is_empty(), "3-cycles must finish even at cap 2");
}

#[test]
fn single_machine_deployment() {
    let g = random_forest(3000, 20, 5);
    let cfg = ForestCcConfig { machines: 1, ..ForestCcConfig::default() };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
}

#[test]
fn more_machines_than_items() {
    let g = random_forest(100, 5, 5);
    let cfg = ForestCcConfig { machines: 4096, ..ForestCcConfig::default() };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
}

#[test]
fn machine_count_does_not_change_results() {
    let g = random_forest(4000, 13, 11);
    let run = |machines: usize| {
        let mut cfg = ForestCcConfig::default().with_seed(21);
        cfg.machines = machines;
        connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap()
    };
    let a = run(1);
    let b = run(7);
    let c = run(64);
    assert_eq!(a.labeling.0, b.labeling.0);
    assert_eq!(b.labeling.0, c.labeling.0);
    assert_eq!(a.rounds(), c.rounds());
    assert_eq!(a.queries(), c.queries());
}

#[test]
fn machine_count_does_not_change_general_results() {
    let g = erdos_renyi_gnm(1500, 4500, 13);
    let run = |machines: usize| {
        let mut cfg = GeneralCcConfig::default().with_seed(22);
        cfg.machines = machines;
        connected_components_general(&g, &cfg).unwrap()
    };
    let a = run(1);
    let b = run(32);
    assert_eq!(a.labeling.0, b.labeling.0);
    assert_eq!(a.stats.rounds(), b.stats.rounds());
}

#[test]
fn minimal_rank_width_b1() {
    // B = 1: all ranks identical — Step 1 contracts nothing except via
    // adjacent-leader ownership; Step 2 carries the whole load (Lemma 3.8).
    let g = random_forest(1500, 10, 17);
    let cfg = ForestCcConfig { b0: 1, double_b: false, ..ForestCcConfig::default() };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
}

#[test]
fn both_ablations_disabled_simultaneously() {
    let g = random_forest(1200, 30, 19);
    let cfg = ForestCcConfig { enable_step2: false, double_b: false, ..ForestCcConfig::default() };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
}

#[test]
fn zero_collect_threshold_finishes_distributed() {
    // Never collect locally: the rank machinery must drive every cycle to a
    // singleton on its own.
    let g = random_forest(2000, 8, 23);
    let cfg = ForestCcConfig { collect_threshold: 0, ..ForestCcConfig::default() };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
    assert!(!res.finisher.collected_locally);
}

#[test]
fn huge_collect_threshold_solves_locally() {
    let g = random_forest(2000, 8, 29);
    // Skip the main loop entirely (`max_iterations: 0`).
    let cfg = ForestCcConfig {
        collect_threshold: usize::MAX,
        max_iterations: 0,
        ..ForestCcConfig::default()
    };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
    assert!(res.finisher.collected_locally);
}

#[test]
fn dense_graph_under_tight_space_parameters() {
    let g = erdos_renyi_gnm(400, 12_000, 31);
    // Tiny machines (`delta`), tight total space (`k`).
    let cfg = GeneralCcConfig { delta: 0.4, k: 5, space_const: 1.0, ..GeneralCcConfig::default() };
    let res = connected_components_general(&g, &cfg).unwrap();
    assert!(res.labeling.same_partition(&reference_components(&g)));
}

#[test]
fn adversarial_vertex_id_orderings() {
    // Step 2 breaks ties by vertex id; descending / interleaved id layouts
    // exercise the compressor-selection logic differently.
    for perm in 0..3u64 {
        let n = 900u32;
        let edges: Vec<(u32, u32)> = (0..n - 1)
            .map(|i| {
                let map = |x: u32| match perm {
                    0 => x,
                    1 => n - 1 - x,
                    _ => (x * 7919) % n,
                };
                (map(i), map(i + 1))
            })
            .collect();
        let g = adaptive_mpc_connectivity::graph::Graph::from_edges(n as usize, &edges);
        let res = connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default())
            .unwrap();
        assert!(res.labeling.same_partition(&reference_components(&g)), "id permutation {perm}");
    }
}

#[test]
fn hard_enforcement_surfaces_as_error() {
    // With an enforced budget far below what any round needs, the
    // pipeline must fail loudly with the AMPC error, not silently degrade.
    use adaptive_mpc_connectivity::ampc::AmpcError;
    use adaptive_mpc_connectivity::cc::cycles::CycleState;
    use adaptive_mpc_connectivity::cc::forest::shrink_small::shrink_small_cycles;

    let succ: Vec<u64> = (0..512u64).map(|i| (i + 1) % 512).collect();
    let mut st =
        CycleState::from_successors(&succ, AmpcConfig::default().with_machines(2).with_budget(4));
    let err = shrink_small_cycles(&mut st, 4, 1 << 16, true).unwrap_err();
    let AmpcError::LimitExceeded(v) = err else {
        panic!("expected a limit breach, got {err}");
    };
    assert_eq!(v.budget, 4);
    assert!(!v.round_name.is_empty());
}

#[test]
fn enforcement_with_adequate_budget_succeeds() {
    use adaptive_mpc_connectivity::cc::cycles::CycleState;
    use adaptive_mpc_connectivity::cc::forest::shrink_small::shrink_small_cycles;

    let succ: Vec<u64> = (0..512u64).map(|i| (i + 1) % 512).collect();
    let mut st = CycleState::from_successors(
        &succ,
        AmpcConfig::default()
            .with_machines(512) // one vertex per machine
            .with_seed(3)
            .with_budget(1 << 12),
    );
    shrink_small_cycles(&mut st, 3, 1 << 16, true).expect("budget is ample");
}
