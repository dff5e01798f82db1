//! Cross-validation harness: the scenario matrix.
//!
//! Runs Algorithm 1 (forests) and Algorithm 2 (general graphs) over every
//! generator family × machine count × seed, and checks each run three ways:
//!
//! 1. **Ground truth** — the labeling must induce exactly the partition a
//!    sequential union-find computes.
//! 2. **Determinism** — replaying with the same seed must reproduce the
//!    labeling *and* the per-round `RunStats` byte-for-byte; changing the
//!    seed must still be correct (and machine count must never change the
//!    result, per the AMPC model's machine-obliviousness).
//! 3. **Counting claims** — measured rounds stay within the paper's
//!    `O(log* n)` shape (Theorem 1.1) and the `k` trade-off moves space and
//!    rounds in opposite directions (Theorem 1.1, general `k`).

use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::cc::log_star;
use adaptive_mpc_connectivity::graph::generators::{
    disjoint_union, erdos_renyi_gnm, random_forest, ForestFamily, GraphFamily,
};
use adaptive_mpc_connectivity::graph::{reference_components, Graph, Labeling};

use adaptive_mpc_connectivity::ampc::{DhtBackend, RunStats};
use adaptive_mpc_connectivity::query::{workload, ComponentIndex, Query, QueryEngine};

/// Machine counts every scenario runs under.
const MACHINE_COUNTS: [usize; 2] = [3, 16];

/// Seeds every scenario runs under.
const SEEDS: [u64; 2] = [11, 0xFEED];

/// Canonical fingerprint of a run: the labeling plus each round's reads,
/// writes, snapshot entries and total space, rendered to a string so replays
/// can be compared byte-for-byte. The per-machine maxima are left out, so
/// runs on different machine counts compare equal.
fn fingerprint(labeling: &Labeling, stats: &RunStats) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(s, "labels={:?}", labeling.canonical()).unwrap();
    for r in stats.per_round() {
        writeln!(
            s,
            "round {} {}: reads={} writes={} snap={} total={}",
            r.index, r.name, r.reads, r.writes, r.snapshot_entries, r.total_space_words
        )
        .unwrap();
    }
    s
}

fn run_forest(g: &Graph, machines: usize, seed: u64) -> (Labeling, String, usize) {
    let cfg = ForestCcConfig::default().with_seed(seed).with_machines(machines);
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).expect("forest run");
    let fp = fingerprint(&res.labeling, &res.stats);
    let rounds = res.stats.rounds();
    (res.labeling, fp, rounds)
}

fn run_forest_backend(g: &Graph, machines: usize, seed: u64, backend: DhtBackend) -> String {
    let cfg =
        ForestCcConfig::default().with_seed(seed).with_machines(machines).with_backend(backend);
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).expect("forest run");
    fingerprint(&res.labeling, &res.stats)
}

fn run_general(g: &Graph, machines: usize, seed: u64) -> (Labeling, String) {
    let mut cfg = GeneralCcConfig::default().with_seed(seed);
    cfg.machines = machines;
    let res = connected_components_general(g, &cfg).expect("general run");
    let fp = fingerprint(&res.labeling, &res.stats);
    (res.labeling, fp)
}

fn run_general_backend(g: &Graph, machines: usize, seed: u64, backend: DhtBackend) -> String {
    let mut cfg = GeneralCcConfig::default().with_seed(seed).with_backend(backend);
    cfg.machines = machines;
    let res = connected_components_general(g, &cfg).expect("general run");
    fingerprint(&res.labeling, &res.stats)
}

/// Algorithm 1 over the full forest matrix: every family × machine count ×
/// seed, each run validated against union-find and replayed for
/// byte-identical determinism.
#[test]
fn forest_matrix_ground_truth_and_determinism() {
    let n = 600;
    for fam in ForestFamily::ALL {
        for machines in MACHINE_COUNTS {
            for seed in SEEDS {
                let g = fam.generate(n, seed ^ 0xF0F0);
                let truth = reference_components(&g);
                let (labeling, fp, _) = run_forest(&g, machines, seed);
                assert!(
                    labeling.same_partition(&truth),
                    "family {} machines {machines} seed {seed}: wrong partition",
                    fam.name()
                );
                // Seed replay: identical labeling and identical RunStats.
                let (_, fp2, _) = run_forest(&g, machines, seed);
                assert_eq!(
                    fp,
                    fp2,
                    "family {} machines {machines} seed {seed}: replay diverged",
                    fam.name()
                );
            }
        }
    }
}

/// Machine count is an execution detail of the simulator: it must never
/// change the computed labeling or the metered round structure.
#[test]
fn forest_machine_count_oblivious() {
    for fam in [ForestFamily::RandomTree, ForestFamily::TinyTrees, ForestFamily::Path] {
        let g = fam.generate(900, 5);
        let (_, fp_a, _) = run_forest(&g, MACHINE_COUNTS[0], 77);
        let (_, fp_b, _) = run_forest(&g, MACHINE_COUNTS[1], 77);
        assert_eq!(fp_a, fp_b, "family {}: machine count changed the run", fam.name());
    }
}

/// Algorithm 2 over the full general-graph matrix, including a
/// multi-component disjoint union, with ground truth + replay checks.
#[test]
fn general_matrix_ground_truth_and_determinism() {
    let n = 400;
    for fam in GraphFamily::ALL {
        for machines in MACHINE_COUNTS {
            for seed in SEEDS {
                let g = fam.generate(n, seed ^ 0x0D0D);
                let truth = reference_components(&g);
                let (labeling, fp) = run_general(&g, machines, seed);
                assert!(
                    labeling.same_partition(&truth),
                    "family {} machines {machines} seed {seed}: wrong partition",
                    fam.name()
                );
                let (_, fp2) = run_general(&g, machines, seed);
                assert_eq!(
                    fp,
                    fp2,
                    "family {} machines {machines} seed {seed}: replay diverged",
                    fam.name()
                );
            }
        }
    }
}

/// Storage backends are an execution detail of the simulator: `FlatDht`,
/// `ShardedDht`, and `DenseDht` must produce byte-identical labelings and
/// per-round `RunStats` over the full family × machine count × seed matrix
/// of Algorithm 1. (The labeling is a projection of the final snapshot and
/// the fingerprint covers every per-round counter, so divergence anywhere
/// in snapshot contents or metering fails the comparison; `ampc`'s own
/// backend-equivalence tests additionally compare raw sorted snapshots.)
#[test]
fn forest_backend_equivalence_matrix() {
    let n = 500;
    for fam in ForestFamily::ALL {
        for machines in MACHINE_COUNTS {
            for seed in SEEDS {
                let g = fam.generate(n, seed ^ 0xBAC0);
                let flat = run_forest_backend(&g, machines, seed, DhtBackend::Flat);
                let sharded = run_forest_backend(&g, machines, seed, DhtBackend::sharded());
                assert_eq!(
                    flat,
                    sharded,
                    "family {} machines {machines} seed {seed}: backends diverged",
                    fam.name()
                );
                // A fixed non-auto shard count must agree as well.
                let sharded4 =
                    run_forest_backend(&g, machines, seed, DhtBackend::Sharded { shards: 4 });
                assert_eq!(
                    flat,
                    sharded4,
                    "family {} machines {machines} seed {seed}: shard count changed the run",
                    fam.name()
                );
                // Dense with the pipeline-provided slab hint…
                let dense = run_forest_backend(&g, machines, seed, DhtBackend::dense());
                assert_eq!(
                    flat,
                    dense,
                    "family {} machines {machines} seed {seed}: dense backend diverged",
                    fam.name()
                );
                // …and with a deliberately tiny slab, so most ids take the
                // overflow path and straddle the boundary.
                let dense_tiny =
                    run_forest_backend(&g, machines, seed, DhtBackend::Dense { cap: 32 });
                assert_eq!(
                    flat,
                    dense_tiny,
                    "family {} machines {machines} seed {seed}: dense overflow diverged",
                    fam.name()
                );
            }
        }
    }
}

/// The same backend-obliviousness requirement for Algorithm 2's recursion
/// (which constructs many systems internally, one per `ShrinkGeneral` and
/// base-case invocation — all must dispatch consistently).
#[test]
fn general_backend_equivalence_matrix() {
    let n = 300;
    for fam in GraphFamily::ALL {
        for machines in MACHINE_COUNTS {
            for seed in SEEDS {
                let g = fam.generate(n, seed ^ 0xBAC1);
                let flat = run_general_backend(&g, machines, seed, DhtBackend::Flat);
                let sharded = run_general_backend(&g, machines, seed, DhtBackend::sharded());
                assert_eq!(
                    flat,
                    sharded,
                    "family {} machines {machines} seed {seed}: backends diverged",
                    fam.name()
                );
                let dense = run_general_backend(&g, machines, seed, DhtBackend::dense());
                assert_eq!(
                    flat,
                    dense,
                    "family {} machines {machines} seed {seed}: dense backend diverged",
                    fam.name()
                );
                let dense_tiny =
                    run_general_backend(&g, machines, seed, DhtBackend::Dense { cap: 32 });
                assert_eq!(
                    flat,
                    dense_tiny,
                    "family {} machines {machines} seed {seed}: dense overflow diverged",
                    fam.name()
                );
            }
        }
    }
}

/// Multi-component general graphs: a disjoint union of one sparse and one
/// dense ER graph plus a forest must keep its components separate.
#[test]
fn general_multi_component_union() {
    for seed in SEEDS {
        let a = erdos_renyi_gnm(150, 300, seed);
        let b = erdos_renyi_gnm(120, 600, seed + 1);
        let c = random_forest(200, 6, seed + 2);
        let g = disjoint_union(&[a, b, c]);
        let truth = reference_components(&g);
        for machines in MACHINE_COUNTS {
            let (labeling, _) = run_general(&g, machines, seed);
            assert!(
                labeling.same_partition(&truth),
                "machines {machines} seed {seed}: union components merged or split"
            );
            assert_eq!(labeling.num_components(), truth.num_components());
        }
    }
}

/// Answers every query of every standard workload mix against an
/// independent union-find oracle (labels, partition comparison, size
/// census, and a from-scratch dense-id remap — none of it routed through
/// `ComponentIndex`), plus the batch path against the single path.
fn assert_queries_match_reference(g: &Graph, labeling: &Labeling, seed: u64, ctx: &str) {
    let index = ComponentIndex::from_run(g, labeling)
        .unwrap_or_else(|e| panic!("{ctx}: index build rejected pipeline labeling: {e}"));
    let truth = reference_components(g);

    // The index must be byte-identical to one built straight from the
    // union-find labeling (dense ids are a function of the partition).
    assert_eq!(index, ComponentIndex::build(&truth), "{ctx}: index diverges from reference");

    // Independent oracles from the union-find side.
    let canonical = truth.canonical(); // v → min member of v's component
    let mut sizes = vec![0usize; g.n()]; // union-find labels are root vertex ids
    for (_, root) in truth.iter() {
        sizes[root as usize] += 1;
    }
    let mut mins: Vec<u64> = canonical.clone();
    mins.sort_unstable();
    mins.dedup();
    let dense_of = |v: u32| mins.binary_search(&canonical[v as usize]).unwrap() as u64;
    let mut sizes_desc: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
    sizes_desc.sort_unstable_by(|a, b| b.cmp(a));

    let engine = QueryEngine::new(&index);
    for mix in workload::Mix::STANDARD {
        let queries = workload::generate(&index, mix, 300, seed);
        let mut batch = vec![0u64; queries.len()];
        engine.answer_batch(&queries, &mut batch).expect("batch sized to the query count");
        for (&q, &batched) in queries.iter().zip(&batch) {
            let got = engine.answer(q);
            assert_eq!(got, batched, "{ctx}: batch diverged on {q:?}");
            let want = match q {
                Query::Connected(u, v) => (truth.get(u) == truth.get(v)) as u64,
                Query::ComponentOf(v) => dense_of(v),
                Query::ComponentSize(v) => sizes[truth.get(v) as usize] as u64,
                Query::TopKSize(k) => sizes_desc.get(k as usize - 1).copied().unwrap_or(0) as u64,
            };
            assert_eq!(got, want, "{ctx} mix {}: wrong answer for {q:?}", mix.name());
        }
    }
}

/// The serving layer over the full matrix: every family × machine count ×
/// seed of both algorithms, index built from the pipeline labeling, every
/// workload-mix answer checked against the union-find oracle.
#[test]
fn query_service_matches_union_find_across_matrix() {
    let n = 400;
    for fam in ForestFamily::ALL {
        for machines in MACHINE_COUNTS {
            for seed in SEEDS {
                let g = fam.generate(n, seed ^ 0x9E11);
                let (labeling, _, _) = run_forest(&g, machines, seed);
                let ctx = format!("forest family {} machines {machines} seed {seed}", fam.name());
                assert_queries_match_reference(&g, &labeling, seed, &ctx);
            }
        }
    }
    let n = 250;
    for fam in GraphFamily::ALL {
        for machines in MACHINE_COUNTS {
            for seed in SEEDS {
                let g = fam.generate(n, seed ^ 0x9E12);
                let (labeling, _) = run_general(&g, machines, seed);
                let ctx = format!("general family {} machines {machines} seed {seed}", fam.name());
                assert_queries_match_reference(&g, &labeling, seed, &ctx);
            }
        }
    }
}

/// Theorem 1.1 counting claim: measured AMPC rounds grow like `log* n`,
/// i.e. stay under `c·log* n + d` for fixed small constants across three
/// decades of input size. (Probe constants; see the printed table when run
/// with `--nocapture`.)
#[test]
fn forest_rounds_bounded_by_log_star() {
    for (fam, seed) in
        [(ForestFamily::RandomTree, 3u64), (ForestFamily::ManyTrees, 4), (ForestFamily::Path, 5)]
    {
        for exp in [8u32, 12, 16] {
            let n = 1usize << exp;
            let g = fam.generate(n, seed);
            let (labeling, _, rounds) = run_forest(&g, 8, seed);
            assert!(labeling.same_partition(&reference_components(&g)));
            let bound = 12 * log_star(n as f64) as usize + 40;
            println!(
                "forest rounds: family={} n={n} log*={} rounds={rounds} bound={bound}",
                fam.name(),
                log_star(n as f64)
            );
            assert!(
                rounds <= bound,
                "family {} n {n}: {rounds} rounds exceeds c·log* n + O(1) bound {bound}",
                fam.name()
            );
        }
    }
}

/// Theorem 1.1 trade-off claim: the space/round dial `k` selects the
/// starting rank width `B0 = 2↑↑(log* n − k)`, so a smaller `k` buys its
/// fewer shrink iterations with a wider rank census. Measured on a single
/// long path (the workload that isolates the B-schedule), the trade-off
/// must be monotone: as `k` grows, `B0`, peak total space, and total
/// queries are all non-increasing, while every run stays correct. Once
/// `B0` saturates at its floor the remaining runs must be identical.
#[test]
fn tradeoff_space_monotone_in_k() {
    let n = 1 << 12;
    let g = ForestFamily::Path.generate(n, 0);
    let truth = reference_components(&g);
    let mut prev: Option<(u16, usize, usize)> = None;
    for k in 1..=4u32 {
        let mut cfg = ForestCcConfig::default().with_seed(0x7A).with_tradeoff_k(n, k);
        cfg.skip_shrink_large = true;
        let res = connected_components_forest(g.as_forest().unwrap(), &cfg).expect("tradeoff run");
        assert!(res.labeling.same_partition(&truth), "k={k}");
        let cur = (cfg.b0, res.stats.peak_total_space(), res.stats.total_queries());
        println!("tradeoff: k={k} b0={} peak={} queries={}", cur.0, cur.1, cur.2);
        if let Some(prev) = prev {
            assert!(cur.0 <= prev.0, "k={k}: B0 grew ({} > {})", cur.0, prev.0);
            if cur.0 == prev.0 {
                // Saturated schedule: identical budget must replay identically.
                assert_eq!((cur.1, cur.2), (prev.1, prev.2), "k={k}: same B0, different run");
            } else {
                assert!(cur.1 <= prev.1, "k={k}: peak space grew ({} > {})", cur.1, prev.1);
                assert!(cur.2 <= prev.2, "k={k}: queries grew ({} > {})", cur.2, prev.2);
            }
        }
        prev = Some(cur);
    }
}
