//! The eleven experiments of the per-experiment index in DESIGN.md.
//!
//! Each function is deterministic given its arguments, validates all
//! computed labelings against sequential ground truth, and returns a
//! [`Table`] pairing paper bounds with measured values. `quick` shrinks the
//! input sizes (used by the integration tests and CI).

use ampc::{AmpcConfig, Budget, DhtBackend};
use ampc_cc::baselines::mpc_label_prop::{exponentiated_propagation, min_label_propagation};
use ampc_cc::cycles::CycleState;
use ampc_cc::forest::pipeline::{connected_components_forest, ForestCcConfig};
use ampc_cc::forest::ranks::{pi_b, sample_rank};
use ampc_cc::forest::shrink_small::shrink_small_cycles;
use ampc_cc::general::algorithm2::{connected_components_general, GeneralCcConfig};
use ampc_cc::general::bdeplus::theorem41;
use ampc_cc::general::sampling::{algorithm2_sample_probability, crossing_edges, sample_edges};
use ampc_cc::general::shrink_general::shrink_general;
use ampc_cc::{log_iter, log_star};
use ampc_graph::generators::{erdos_renyi_gnm, grid2d, path, random_forest, ForestFamily};
use ampc_graph::{reference_components, Graph};

use crate::table::{big, f2, Table};

fn assert_correct(g: &Graph, labeling: &ampc_graph::Labeling, what: &str) {
    assert!(
        labeling.same_partition(&reference_components(g)),
        "{what}: labeling does not match ground truth (n={}, m={})",
        g.n(),
        g.m()
    );
}

/// Builds a cycle-collection state of one big ring (the post-Euler shape of
/// a path forest), for the ShrinkSmallCycles micro-experiments.
fn ring_state(n: usize, seed: u64) -> CycleState {
    let succ: Vec<u64> = (0..n as u64).map(|i| (i + 1) % n as u64).collect();
    CycleState::from_successors(&succ, AmpcConfig::default().with_machines(8).with_seed(seed))
}

/// E1 — Theorem 1.1: forest connectivity in `O(log* n)` rounds, `O(n)`
/// total space. Run under all three storage backends — every counted
/// quantity must be backend-independent (the backend only changes merge
/// parallelism and read latency), so grouped rows differ in the `backend`
/// column alone.
pub fn e1_forest_rounds(quick: bool) -> Table {
    let mut t = Table::new(
        "E1 — forest rounds and space vs n (Theorem 1.1)",
        "O(log* n) AMPC rounds w.h.p. and optimal (linear) total space; identical under flat, sharded, and dense DHT backends",
        &["family", "n", "backend", "log*n", "iters", "rounds", "queries/n", "peak words/n"],
    );
    let sizes: &[usize] =
        if quick { &[1 << 12, 1 << 14] } else { &[1 << 12, 1 << 14, 1 << 16, 1 << 18] };
    let families = [
        ForestFamily::TinyTrees,
        ForestFamily::ManyTrees,
        ForestFamily::RandomTree,
        ForestFamily::Path,
    ];
    for fam in families {
        for &n in sizes {
            let g = fam.generate(n, 0xE1);
            let mut rows = Vec::new();
            for backend in [DhtBackend::Flat, DhtBackend::sharded(), DhtBackend::dense()] {
                let cfg = ForestCcConfig::default().with_seed(0xE1).with_backend(backend);
                let res = connected_components_forest(g.as_forest().expect("a forest"), &cfg)
                    .expect("forest cc");
                assert_correct(&g, &res.labeling, "E1");
                rows.push((res.iterations.len(), res.rounds(), res.queries(), res.peak_space()));
                t.push(vec![
                    fam.name().into(),
                    big(n),
                    backend.name().into(),
                    log_star(n as f64).to_string(),
                    res.iterations.len().to_string(),
                    res.rounds().to_string(),
                    f2(res.queries() as f64 / n as f64),
                    f2(res.peak_space() as f64 / n as f64),
                ]);
            }
            assert_eq!(rows[0], rows[1], "E1: backends disagreed on counted quantities");
            assert_eq!(rows[0], rows[2], "E1: dense backend disagreed on counted quantities");
        }
    }
    t
}

/// E2 — Theorem 1.1 trade-off: `O(k)` rounds with `O(n·log^(k) n)` space.
pub fn e2_forest_tradeoff(quick: bool) -> Table {
    let mut t = Table::new(
        "E2 — rounds vs space trade-off (Theorem 1.1, general k)",
        "O(k) rounds with O(n·log^(k) n) total space, via B0 = 2↑↑(log* n − k)",
        &["k", "B0", "iters", "rounds", "iter1 q/n", "peak words/n", "log^(k) n (paper factor)"],
    );
    // Many medium trees, with the length-capping preprocessing disabled so
    // the main loop's B-schedule is isolated (single huge trees are fully
    // handled by the capping step, as the theory predicts — see
    // EXPERIMENTS.md notes). Tree sizes are chosen so the resulting cycles
    // (2s − 2 vertices) stay well inside the walk budget S = n^0.6.
    let (n, tree_size) = if quick { (1 << 13, 48) } else { (1 << 19, 1024) };
    let g = random_forest(n, (n / tree_size).max(2), 0xE2);
    for k in 1..=5u32 {
        let mut cfg = ForestCcConfig::default().with_seed(0xE2).with_tradeoff_k(n, k);
        cfg.skip_shrink_large = true;
        let res =
            connected_components_forest(g.as_forest().expect("a forest"), &cfg).expect("forest cc");
        assert_correct(&g, &res.labeling, "E2");
        let iter1_q = res.iterations.first().map(|i| i.queries).unwrap_or(0);
        t.push(vec![
            k.to_string(),
            cfg.b0.to_string(),
            res.iterations.len().to_string(),
            res.rounds().to_string(),
            f2(iter1_q as f64 / n as f64),
            f2(res.peak_space() as f64 / n as f64),
            f2(log_iter(n as f64, k)),
        ]);
    }
    t
}

/// E3 — Lemmas 3.6/3.7: probe queries are ≤ 4B per vertex in expectation,
/// `O(n'·B)` globally w.h.p.
pub fn e3_query_complexity(quick: bool) -> Table {
    let mut t = Table::new(
        "E3 — ShrinkSmallCycles query complexity vs B (Lemmas 3.6, 3.7)",
        "Step-1 probe: ≤ 4B expected queries per vertex; O(n'·B) total w.h.p.",
        &["B", "probe q/vertex", "4B bound", "iter q/vertex", "iter q/(n'·B)"],
    );
    let n = if quick { 1 << 13 } else { 1 << 16 };
    for b in [2u16, 4, 6, 8, 10] {
        let mut st = ring_state(n, 0xE3 + b as u64);
        let out = shrink_small_cycles(&mut st, b, n, true).expect("iteration");
        let probe = st
            .sys
            .stats()
            .per_round()
            .iter()
            .find(|r| r.name == "ssc-probe")
            .expect("probe round recorded");
        let probe_per_vertex = probe.reads as f64 / n as f64;
        t.push(vec![
            b.to_string(),
            f2(probe_per_vertex),
            (4 * b).to_string(),
            f2(out.queries as f64 / n as f64),
            f2(out.queries as f64 / (n as f64 * b as f64)),
        ]);
        assert!(
            probe_per_vertex <= 4.0 * b as f64 + 4.0,
            "probe queries/vertex {probe_per_vertex} above 4B+slack for B={b}"
        );
    }
    t
}

/// E4 — Lemmas 3.10/3.12: one iteration drops the alive count to
/// `≤ 6n'/2^B` w.h.p.
pub fn e4_vertex_drop(quick: bool) -> Table {
    let mut t = Table::new(
        "E4 — vertex drop per iteration vs B (Lemmas 3.10, 3.12)",
        "After one iteration at most 6n'/2^B vertices survive w.h.p.",
        &["B", "n'", "alive after", "drop factor", "2^B", "6n'/2^B bound", "holds"],
    );
    let n = if quick { 1 << 13 } else { 1 << 16 };
    for b in [2u16, 3, 4, 6, 8] {
        let mut st = ring_state(n, 0xE4 + b as u64);
        let out = shrink_small_cycles(&mut st, b, n, true).expect("iteration");
        let bound = 6.0 * n as f64 / (1u64 << b) as f64;
        let holds = (out.alive_after as f64) <= bound;
        t.push(vec![
            b.to_string(),
            big(n),
            big(out.alive_after),
            f2(n as f64 / out.alive_after.max(1) as f64),
            (1u64 << b).to_string(),
            f2(bound),
            holds.to_string(),
        ]);
        assert!(holds, "Lemma 3.12 bound violated at B={b}: {} > {bound}", out.alive_after);
    }
    t
}

/// E5 — Theorem 1.2: general graphs in `2^O(k)` rounds with
/// `O(m + n·log^(k) n)` space per round.
pub fn e5_general_rounds(quick: bool) -> Table {
    let mut t = Table::new(
        "E5 — general-graph recursion vs k (Theorem 1.2, Lemma 4.6)",
        "2^O(k) ConnectedComponents calls; each round O(m + n·log^(k) n) space",
        &["k", "cc calls", "base calls", "depth", "rounds", "peak words", "T budget"],
    );
    let (n, m) = if quick { (1 << 11, 1 << 13) } else { (1 << 14, 1 << 17) };
    let g = erdos_renyi_gnm(n, m, 0xE5);
    for k in 1..=5u32 {
        // gamma = 0.75: at laptop scale T/n crosses any smaller n^gamma
        // after one level, hiding the depth the paper's asymptotics predict
        // (Lemma 4.8 climbs the log^(k) ladder level by level).
        let mut cfg = GeneralCcConfig::default().with_seed(0xE5).with_k(k);
        cfg.gamma = 0.75;
        // A unit space constant keeps 2^√(T/n) below √S for large k, so the
        // exploration budget t — and with it the recursion depth — actually
        // depends on k at these sizes.
        cfg.space_const = 1.0;
        let res = connected_components_general(&g, &cfg).expect("general cc");
        assert_correct(&g, &res.labeling, "E5");
        t.push(vec![
            k.to_string(),
            res.cc_calls.to_string(),
            res.base_case_calls.to_string(),
            res.max_depth_reached.to_string(),
            res.stats.rounds().to_string(),
            big(res.stats.peak_total_space()),
            big(res.budget.t),
        ]);
    }
    t
}

/// E6 — Lemma 4.2 / Claim 4.11: `E|V(H)| = O(m/t)` and `O(m log t)` BFS
/// space.
pub fn e6_shrink_general(quick: bool) -> Table {
    let mut t = Table::new(
        "E6 — ShrinkGeneral scaling vs t (Lemma 4.2, Claim 4.11)",
        "E|V(H)| = O(m/t); BFS uses O(m log t) expected queries; P(root) = O(1/t)",
        &["t", "|V(H)|", "m/t", "|V(H)|/(m/t)", "bfs q", "m·log t", "q/(m·log t)", "root rate × t"],
    );
    let (n, m) = if quick { (1 << 11, 1 << 12) } else { (1 << 13, 1 << 14) };
    let g = erdos_renyi_gnm(n, m, 0xE6);
    for tpar in [2usize, 4, 8, 16, 32, 64] {
        let out = shrink_general(&g, tpar, 1 << 20, AmpcConfig::default().with_seed(0xE6))
            .expect("shrink");
        // CC-shrinking check: compose back through H.
        let h_labels = reference_components(&out.h);
        let g_labels = ampc_graph::Labeling(out.to_h.iter().map(|&c| h_labels.get(c)).collect());
        assert_correct(&g, &g_labels, "E6");
        let m3 = out.n3 as f64; // |E(G3)| = Θ(m); vertices of G3 ≈ 2m
        let mt = m3 / tpar as f64;
        let mlogt = m3 * (tpar.max(2) as f64).log2();
        t.push(vec![
            tpar.to_string(),
            big(out.h.n()),
            f2(mt),
            f2(out.h.n() as f64 / mt),
            big(out.bfs_queries),
            f2(mlogt),
            f2(out.bfs_queries as f64 / mlogt),
            f2(out.roots as f64 / out.n3 as f64 * tpar as f64),
        ]);
    }
    t
}

/// E7 — Theorem 4.3 / Corollary 4.4: KKT sampling bounds.
pub fn e7_kkt_sampling(quick: bool) -> Table {
    let mut t = Table::new(
        "E7 — KKT edge sampling (Theorem 4.3, Corollary 4.4)",
        "crossing edges ≤ n/p in expectation; with p = √(n/m) both |E(H)| and crossings are O(√(mn))",
        &["m", "p", "|E(H)|", "crossing", "n/p", "√(mn)", "crossing/(n/p)"],
    );
    let n = if quick { 1 << 11 } else { 1 << 13 };
    for factor in [2usize, 4, 8, 16, 32] {
        let m = n * factor;
        let g = erdos_renyi_gnm(n, m, 0xE7);
        let p = algorithm2_sample_probability(n, m);
        let h = sample_edges(&g, p, 0xE7);
        let crossing = crossing_edges(&g, &h);
        let n_over_p = n as f64 / p;
        let sqrt_mn = ((m * n) as f64).sqrt();
        t.push(vec![
            big(m),
            f2(p),
            big(h.m()),
            big(crossing),
            f2(n_over_p),
            f2(sqrt_mn),
            f2(crossing as f64 / n_over_p),
        ]);
        assert!(
            (crossing as f64) < 3.0 * n_over_p,
            "KKT bound violated: {crossing} crossings vs n/p = {n_over_p}"
        );
    }
    t
}

/// E8 — comparison: this paper's algorithms vs the Theorem 4.1 subroutine
/// vs classic MPC propagation.
pub fn e8_baseline_comparison(quick: bool) -> Table {
    let mut t = Table::new(
        "E8 — AMPC (this paper) vs baselines",
        "AMPC removes the MPC Θ(D)/Θ(log D) round dependence; optimal space vs the O(n log n) of prior AMPC work",
        &["workload", "algorithm", "rounds", "queries/messages", "peak words"],
    );
    let n = if quick { 1 << 11 } else { 1 << 14 };

    // Forest workload: a single path (diameter n — the MPC worst case).
    let g = path(n);
    let res = connected_components_forest(
        g.as_forest().expect("a forest"),
        &ForestCcConfig::default().with_seed(0xE8),
    )
    .expect("forest");
    assert_correct(&g, &res.labeling, "E8 forest");
    t.push(vec![
        format!("path n={}", big(n)),
        "AMPC Alg.1 (Thm 1.1)".into(),
        res.rounds().to_string(),
        big(res.queries()),
        big(res.peak_space()),
    ]);
    let mpc = min_label_propagation(&g);
    assert_correct(&g, &mpc.labeling, "E8 mpc");
    t.push(vec![
        format!("path n={}", big(n)),
        "MPC min-label (Θ(D))".into(),
        mpc.rounds.to_string(),
        big(mpc.total_messages),
        "-".into(),
    ]);
    let dbl = exponentiated_propagation(&g);
    assert_correct(&g, &dbl.labeling, "E8 doubling");
    t.push(vec![
        format!("path n={}", big(n)),
        "MPC doubling (Θ(log n))".into(),
        dbl.rounds.to_string(),
        big(dbl.total_messages),
        "-".into(),
    ]);

    // General workload: a grid (large diameter, m ≈ 2n).
    let side = (n as f64).sqrt() as usize;
    let g = grid2d(side, side);
    let res = connected_components_general(&g, &GeneralCcConfig::default().with_seed(0xE8))
        .expect("general");
    assert_correct(&g, &res.labeling, "E8 grid alg2");
    t.push(vec![
        format!("grid {side}x{side}"),
        "AMPC Alg.2 (Thm 1.2)".into(),
        res.stats.rounds().to_string(),
        big(res.stats.total_queries()),
        big(res.stats.peak_total_space()),
    ]);
    let size = g.n() + g.m();
    let budget = Budget { s: Budget::local_space(size, 0.6), t: 8 * size };
    let b41 = theorem41(&g, budget, &AmpcConfig::default().with_seed(0xE8)).expect("thm41");
    assert_correct(&g, &b41.labeling, "E8 grid thm41");
    t.push(vec![
        format!("grid {side}x{side}"),
        "BDE+21 Thm 4.1 (T=8N)".into(),
        b41.stats.rounds().to_string(),
        big(b41.stats.total_queries()),
        big(b41.stats.peak_total_space()),
    ]);
    let mpc = min_label_propagation(&g);
    t.push(vec![
        format!("grid {side}x{side}"),
        "MPC min-label (Θ(D))".into(),
        mpc.rounds.to_string(),
        big(mpc.total_messages),
        "-".into(),
    ]);
    t
}

/// E9 — design ablations: Step 2 on/off and B-doubling on/off.
pub fn e9_ablations(quick: bool) -> Table {
    let mut t = Table::new(
        "E9 — ablations of Algorithm 1's design choices",
        "Step 2 defeats the additive 2^B term on short cycles (Lemma 3.10); doubling B gives the log* schedule",
        &["workload", "variant", "iters", "rounds", "queries/n"],
    );
    let n = if quick { 1 << 11 } else { 1 << 14 };

    // Tiny trees → tiny cycles: the regime where Step 1 alone stalls.
    let tiny = ForestFamily::TinyTrees.generate(n, 0xE9);
    // Medium trees with the capping step disabled: the regime where the
    // B-schedule drives iteration count (B starts at 2 here, so a fixed
    // schedule needs visibly more iterations than a doubling one). Tree
    // sizes keep the Euler cycles inside the walk budget S = n^0.6.
    let medium_tree = if quick { 48 } else { 300 };
    let medium = random_forest(n, (n / medium_tree).max(2), 0xE9);

    for (wname, g) in [("tiny-trees", &tiny), ("medium-trees", &medium)] {
        for (vname, step2, double_b) in
            [("full", true, true), ("no-step2", false, true), ("fixed-B", true, false)]
        {
            let mut cfg = ForestCcConfig::default().with_seed(0xE9);
            cfg.enable_step2 = step2;
            cfg.double_b = double_b;
            if wname == "medium-trees" {
                cfg.skip_shrink_large = true;
                // Start from the minimal budget so the doubling schedule is
                // load-bearing: with fixed B = 1, Step 2's 8B-per-cycle
                // removal is the only progress on medium cycles.
                cfg.b0 = 1;
                cfg.max_iterations = 128;
            }
            let res = connected_components_forest(g.as_forest().expect("a forest"), &cfg)
                .expect("forest");
            assert_correct(g, &res.labeling, "E9");
            t.push(vec![
                wname.into(),
                vname.into(),
                res.iterations.len().to_string(),
                res.rounds().to_string(),
                f2(res.queries() as f64 / g.n() as f64),
            ]);
        }
    }
    t
}

/// E10 — Claims 3.4/3.11: the rank distribution and its coin-game law.
pub fn e10_rank_distribution(quick: bool) -> Table {
    let mut t = Table::new(
        "E10 — rank distribution π_B (Claims 3.4, 3.11)",
        "π_B(i) = C_B/2^i; empirical frequencies of both samplers match",
        &["i", "π_B(i)", "inversion freq", "coin-game freq"],
    );
    let b = 6u16;
    let trials = if quick { 40_000 } else { 400_000 };
    let mut inv = vec![0usize; b as usize + 1];
    let mut game = vec![0usize; b as usize + 1];
    let mut r1 = ampc::rng::stream(0xE10, 1, 0, 0);
    let mut r2 = ampc::rng::stream(0xE10, 2, 0, 0);
    for _ in 0..trials {
        inv[sample_rank(&mut r1, b) as usize] += 1;
        game[ampc_cc::forest::ranks::sample_rank_coin_game(&mut r2, b) as usize] += 1;
    }
    for i in 1..=b {
        let p = pi_b(i, b);
        let fi = inv[i as usize] as f64 / trials as f64;
        let fg = game[i as usize] as f64 / trials as f64;
        t.push(vec![i.to_string(), format!("{p:.4}"), format!("{fi:.4}"), format!("{fg:.4}")]);
        assert!((fi - p).abs() < 0.02 && (fg - p).abs() < 0.02, "distribution mismatch at {i}");
    }
    t
}

/// E11 — Claim 4.12: rooted-forest resolution, the paper's Euler-tour
/// construction vs the adaptive-chasing substitute, across forest depths.
pub fn e11_rooted_forest(quick: bool) -> Table {
    use ampc_cc::general::rooted_forest::{resolve_roots_chase, resolve_roots_euler};
    use ampc_graph::VertexId;

    let mut t = Table::new(
        "E11 — rooted-forest resolution (Claim 4.12) vs parent-forest depth",
        "The Euler-tour sweep is one round at any depth; capped chasing pays rounds proportional to depth/S",
        &["forest", "depth", "euler rounds", "euler queries", "chase rounds", "chase queries"],
    );
    let n = if quick { 1 << 11 } else { 1 << 13 };
    let cap = 256; // deliberately small chase budget to expose the depth dependence

    // Three parent forests: shallow random, mid (path-of-blocks), deep chain.
    let shallow: Vec<Option<VertexId>> = {
        let mut rng = ampc::rng::stream(0xE11, 0, 0, 0);
        (0..n)
            .map(|v| if v < 8 { None } else { Some(rng.next_below(v as u64) as VertexId) })
            .collect()
    };
    let mid: Vec<Option<VertexId>> = (0..n)
        .map(|v| if v == 0 { None } else { Some((v - 1 - (v - 1) % 2) as VertexId) })
        .collect(); // depth ≈ n/2
    let deep: Vec<Option<VertexId>> =
        (0..n).map(|v| if v == 0 { None } else { Some(v as VertexId - 1) }).collect();

    for (name, parents) in [("random", &shallow), ("paired-chain", &mid), ("chain", &deep)] {
        let depth = {
            // host-side measurement for the report
            let mut max_d = 0usize;
            for start in 0..parents.len() {
                let mut v = start;
                let mut d = 0;
                while let Some(p) = parents[v] {
                    v = p as usize;
                    d += 1;
                }
                max_d = max_d.max(d);
            }
            max_d
        };
        let cfg = AmpcConfig::default().with_seed(0xE11);
        let euler = resolve_roots_euler(parents, 4096, cfg.clone()).expect("euler");
        let chase = resolve_roots_chase(parents, cap, cfg).expect("chase");
        assert_eq!(euler.labels, chase.labels, "{name}: resolutions disagree");
        t.push(vec![
            name.into(),
            depth.to_string(),
            euler.traversal_rounds.to_string(),
            big(euler.stats.total_queries()),
            chase.traversal_rounds.to_string(),
            big(chase.stats.total_queries()),
        ]);
    }
    t
}

/// Runs every experiment, returning all tables in index order.
pub fn run_all(quick: bool) -> Vec<Table> {
    (1..=11).map(|i| run_one(&format!("e{i}"), quick).expect("known id")).collect()
}

/// Runs one experiment by id (`"e1"`–`"e11"`).
pub fn run_one(id: &str, quick: bool) -> Option<Table> {
    Some(match id {
        "e1" => e1_forest_rounds(quick),
        "e2" => e2_forest_tradeoff(quick),
        "e3" => e3_query_complexity(quick),
        "e4" => e4_vertex_drop(quick),
        "e5" => e5_general_rounds(quick),
        "e6" => e6_shrink_general(quick),
        "e7" => e7_kkt_sampling(quick),
        "e8" => e8_baseline_comparison(quick),
        "e9" => e9_ablations(quick),
        "e10" => e10_rank_distribution(quick),
        "e11" => e11_rooted_forest(quick),
        _ => return None,
    })
}
