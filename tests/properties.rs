//! Property-based tests: correctness of the full pipelines and the
//! CC-shrinking contract on arbitrary random inputs.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these properties run over a deterministic hand-rolled case loop: every
//! case derives from `ampc::rng` streams seeded by `(property tag, case
//! index)`, so failures reproduce exactly and `cargo test` never flakes.

use adaptive_mpc_connectivity::ampc::rng::SplitMix64;
use adaptive_mpc_connectivity::ampc::AmpcConfig;
use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::cc::general::sampling::{crossing_edges, sample_edges};
use adaptive_mpc_connectivity::cc::general::shrink_general::shrink_general;
use adaptive_mpc_connectivity::graph::contract::{compose_labels, contract};
use adaptive_mpc_connectivity::graph::euler::forest_to_cycles;
use adaptive_mpc_connectivity::graph::{reference_components, Graph, Labeling, UnionFind};

/// Cases per property — mirrors the original `ProptestConfig::with_cases(24)`.
const CASES: u64 = 24;

/// Deterministic per-case RNG: `tag` identifies the property, `case` the
/// iteration, so streams never collide across properties.
fn case_rng(tag: u64, case: u64) -> SplitMix64 {
    adaptive_mpc_connectivity::ampc::rng::stream(0x5EED_CA5E, tag, case, 0)
}

/// Random forest on 1..=max_n vertices: each vertex beyond the first may
/// attach to a uniformly random earlier vertex or stay detached.
fn arb_forest(rng: &mut SplitMix64, max_n: usize) -> Graph {
    let n = 1 + rng.next_below(max_n as u64) as usize;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 1..n as u32 {
        if rng.bernoulli(0.8) {
            let parent = rng.next_below(i as u64) as u32;
            edges.push((parent, i));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Random graph on 2..max_n vertices with up to `4n` arbitrary edges
/// (self-loops and duplicates included, as in the proptest original).
fn arb_graph(rng: &mut SplitMix64, max_n: usize) -> Graph {
    let n = 2 + rng.next_below(max_n as u64 - 2) as usize;
    let m = rng.next_below(4 * n as u64) as usize;
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32))
        .collect();
    Graph::from_edges(n, &edges)
}

#[test]
fn forest_pipeline_matches_union_find() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let g = arb_forest(&mut rng, 400);
        let seed = rng.next_below(1000);
        let cfg = ForestCcConfig::default().with_seed(seed);
        let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
        assert!(
            res.labeling.same_partition(&reference_components(&g)),
            "case {case}: forest pipeline mismatch (n={}, seed={seed})",
            g.n()
        );
    }
}

#[test]
fn general_pipeline_matches_union_find() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let g = arb_graph(&mut rng, 200);
        let seed = rng.next_below(1000);
        let cfg = GeneralCcConfig::default().with_seed(seed);
        let res = connected_components_general(&g, &cfg).unwrap();
        assert!(
            res.labeling.same_partition(&reference_components(&g)),
            "case {case}: general pipeline mismatch (n={}, m={}, seed={seed})",
            g.n(),
            g.m()
        );
    }
}

#[test]
fn euler_tour_is_cc_shrinking() {
    // Observation 3.1: cycles partition per tree; labeling the cycles by
    // any CC-labeling and projecting through origins recovers the forest
    // components.
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let g = arb_forest(&mut rng, 300);
        let d = forest_to_cycles(&g);
        assert!(d.is_permutation(), "case {case}");
        // Label cycles by orbit.
        let mut cycle_label = vec![u64::MAX; d.len()];
        let mut next = 0u64;
        for s in 0..d.len() {
            if cycle_label[s] != u64::MAX {
                continue;
            }
            let mut cur = s;
            while cycle_label[cur] == u64::MAX {
                cycle_label[cur] = next;
                cur = d.succ[cur] as usize;
            }
            next += 1;
        }
        let mut labels = vec![u64::MAX; g.n()];
        for (a, &orig) in d.origin.iter().enumerate() {
            labels[orig as usize] = cycle_label[a];
        }
        for &v in &d.isolated {
            labels[v as usize] = next + v as u64;
        }
        assert!(
            Labeling(labels).same_partition(&reference_components(&g)),
            "case {case}: projected cycle labels are not a CC labeling"
        );
    }
}

#[test]
fn euler_cycle_lengths_are_2k_minus_2() {
    // Each tree of k > 1 vertices yields one cycle of exactly 2k−2.
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let g = arb_forest(&mut rng, 300);
        let d = forest_to_cycles(&g);
        let mut lens = d.cycle_lengths();
        lens.sort_unstable();
        // Tree sizes from ground truth.
        let refl = reference_components(&g);
        let mut sizes = std::collections::HashMap::new();
        for v in 0..g.n() as u32 {
            *sizes.entry(refl.get(v)).or_insert(0usize) += 1;
        }
        let mut expected: Vec<usize> =
            sizes.values().filter(|&&k| k > 1).map(|&k| 2 * k - 2).collect();
        expected.sort_unstable();
        assert_eq!(lens, expected, "case {case}");
    }
}

#[test]
fn contract_compose_roundtrip() {
    // Contracting by any vertex partition and composing a correct labeling
    // of the quotient yields a correct labeling of the input — Definition
    // 2.1 for Contract, for arbitrary (even cross-component) mappings.
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let g = arb_graph(&mut rng, 150);
        let classes = 1 + rng.next_below(39);
        let mapping: Vec<u64> = (0..g.n() as u64).map(|v| v % classes).collect();
        let c = contract(&g, &mapping);
        assert!(c.graph.n() <= classes as usize, "case {case}");
        let h_labels = reference_components(&c.graph);
        let composed = Labeling(compose_labels(&c, &h_labels.0));
        // Composition must be a *coarsening* consistent with merging the
        // classes: check against union-find seeded with the class merges.
        let mut uf = UnionFind::new(g.n());
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        for v in 1..g.n() as u32 {
            let u = (0..v).find(|&u| mapping[u as usize] == mapping[v as usize]);
            if let Some(u) = u {
                uf.union(u, v);
            }
        }
        assert!(composed.same_partition(&Labeling(uf.labels())), "case {case}");
    }
}

#[test]
fn shrink_general_is_cc_shrinking() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let g = arb_graph(&mut rng, 120);
        let t = 1 + rng.next_below(39) as usize;
        let seed = rng.next_below(100);
        let out = shrink_general(&g, t, 1 << 14, AmpcConfig::default().with_seed(seed)).unwrap();
        let h_labels = reference_components(&out.h);
        let composed = Labeling(out.to_h.iter().map(|&c| h_labels.get(c)).collect());
        assert!(
            composed.same_partition(&reference_components(&g)),
            "case {case}: shrink_general broke components (t={t}, seed={seed})"
        );
    }
}

#[test]
fn sampled_subgraph_components_refine_originals() {
    // H ⊆ G: every component of H lies inside one component of G, and
    // crossing edges + H's merges account for all of G's connectivity.
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let g = arb_graph(&mut rng, 150);
        let p = rng.next_f64();
        let seed = rng.next_below(100);
        let h = sample_edges(&g, p, seed);
        assert_eq!(h.n(), g.n(), "case {case}");
        assert!(h.m() <= g.m(), "case {case}");
        let gl = reference_components(&g);
        let hl = reference_components(&h);
        for (u, v) in h.edges() {
            assert_eq!(gl.get(u), gl.get(v), "case {case}: sampled edge leaves its component");
        }
        // Refinement: equal H-labels ⇒ equal G-labels.
        for v in 0..g.n() as u32 {
            for w in 0..v {
                if hl.get(v) == hl.get(w) {
                    assert_eq!(gl.get(v), gl.get(w), "case {case}: refinement violated");
                }
            }
        }
        // Contracting H's components and adding crossing edges restores G's
        // component count.
        let crossing = crossing_edges(&g, &h);
        assert!(crossing <= g.m(), "case {case}");
    }
}

#[test]
fn labeling_canonicalization_is_idempotent() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let len = 1 + rng.next_below(99) as usize;
        let labels: Vec<u64> = (0..len).map(|_| rng.next_below(20)).collect();
        let l = Labeling(labels);
        let c1 = Labeling(l.canonical());
        let c2 = Labeling(c1.canonical());
        assert_eq!(&c1.0, &c2.0, "case {case}");
        assert!(l.same_partition(&c1), "case {case}");
    }
}
