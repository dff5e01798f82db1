//! Cost-accounting integration tests: the meters the experiments rely on
//! must themselves obey the paper's bookkeeping identities.

use adaptive_mpc_connectivity::ampc::{Budget, LimitViolation, RunStats};
use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::graph::generators::{erdos_renyi_gnm, random_forest};

/// The per-round identities of the one-word cost model, checked on every
/// round: a round's space is its snapshot plus its communication, each write
/// op ships an 8-byte key and a one-word value, and no machine exceeds the
/// round's total.
fn assert_round_identities(stats: &RunStats) {
    for r in stats.per_round() {
        let at = format!("round {} ({})", r.index, r.name);
        assert_eq!(r.total_space_words, r.snapshot_entries + r.reads + r.writes, "{at}");
        assert_eq!(r.bytes_shuffled, 16 * r.writes, "{at}");
        assert!(r.max_machine_read_words <= r.reads, "{at}");
        assert!(r.max_machine_write_words <= r.writes, "{at}");
    }
}

#[test]
fn forest_round_stats_are_internally_consistent() {
    let g = random_forest(8000, 20, 1);
    let res =
        connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default()).unwrap();
    let stats = &res.stats;
    assert_round_identities(stats);

    // Executed + charged = total.
    assert_eq!(stats.rounds(), stats.executed_rounds() + stats.charged_rounds());
    // Per-round indices are sequential.
    for (i, r) in stats.per_round().iter().enumerate() {
        assert_eq!(r.index, i);
    }
    // Total queries ≥ executed-round reads.
    let executed_reads: usize = stats.per_round().iter().map(|r| r.reads).sum();
    assert!(stats.total_queries() >= executed_reads);
    // Peak space dominates every round.
    for r in stats.per_round() {
        assert!(stats.peak_total_space() >= r.total_space_words);
    }
}

#[test]
fn forest_total_space_is_linear_in_n() {
    // Theorem 1.1's headline: optimal total space. With default (constant)
    // B0, every round's space is ≤ c·n for a modest c (B-dependent rounds
    // charge O(n·B) = O(n) communication).
    for n in [1 << 12, 1 << 14, 1 << 16] {
        let g = random_forest(n, 16, 2);
        let res = connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default())
            .unwrap();
        assert_round_identities(&res.stats);
        let per_vertex = res.peak_space() as f64 / n as f64;
        assert!(per_vertex < 160.0, "n={n}: peak {per_vertex:.1} words/vertex — superlinear space");
    }
}

#[test]
fn forest_query_total_is_linear_in_n() {
    // Lemma 3.7 summed over the doubling schedule: Σ n_i·B_i = O(n).
    for n in [1 << 12, 1 << 15] {
        let g = random_forest(n, 16, 3);
        let res = connected_components_forest(g.as_forest().unwrap(), &ForestCcConfig::default())
            .unwrap();
        assert_round_identities(&res.stats);
        let per_vertex = res.queries() as f64 / n as f64;
        assert!(
            per_vertex < 220.0,
            "n={n}: {per_vertex:.1} queries/vertex — superlinear total queries"
        );
    }
}

#[test]
fn general_space_tracks_budget_shape() {
    // Theorem 1.2: per-round space O(m + n log^(k) n). Larger k must not
    // increase the configured budget, and measured peaks must stay within a
    // constant multiple of it.
    let g = erdos_renyi_gnm(4000, 16_000, 4);
    let mut budgets = Vec::new();
    for k in 1..=4 {
        let cfg = GeneralCcConfig::default().with_k(k).with_seed(5);
        let res = connected_components_general(&g, &cfg).unwrap();
        assert_round_identities(&res.stats);
        budgets.push(res.budget.t);
        assert!(
            res.stats.peak_total_space() < 64 * res.budget.t,
            "k={k}: peak {} way above budget {}",
            res.stats.peak_total_space(),
            res.budget.t
        );
    }
    for w in budgets.windows(2) {
        assert!(w[1] <= w[0], "budget must be non-increasing in k: {budgets:?}");
    }
}

#[test]
fn per_iteration_outcomes_sum_to_total_removals() {
    let g = random_forest(6000, 6000 / 40, 6);
    let cfg = ForestCcConfig { skip_shrink_large: true, ..ForestCcConfig::default() };
    let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
    assert_round_identities(&res.stats);
    for it in &res.iterations {
        assert_eq!(
            it.alive_before - it.alive_after,
            it.loop_contracted + it.segment_contracted + it.step2_contracted + it.finished_cycles, // finished leaders also leave `alive`
            "iteration removal ledger out of balance: {it:?}"
        );
        assert!(it.alive_after <= it.alive_before);
    }
    // Iterations chain: alive_after of one = alive_before of the next.
    for w in res.iterations.windows(2) {
        assert_eq!(w[0].alive_after, w[1].alive_before);
    }
}

/// The distinct rounds an audit names, in round order.
fn rounds_over(over: &[LimitViolation]) -> Vec<usize> {
    let mut rounds: Vec<usize> = over.iter().map(|v| v.round).collect();
    rounds.dedup();
    rounds
}

#[test]
fn audit_budget_scales_with_delta() {
    // The audit holds each round's worst machine to S =
    // Budget::local_space(n, delta) itself, and a larger delta → larger S →
    // the same workload further under budget.
    let n = 1 << 14;
    let g = random_forest(n, 8, 7);
    let audit = |delta: f64, machines: usize| {
        let cfg = ForestCcConfig { delta, machines, ..ForestCcConfig::default() };
        let res = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
        assert_round_identities(&res.stats);
        res.stats.over_budget(Budget::local_space(n, delta))
    };
    // At M = 1 one machine carries each whole round, so the large rounds
    // breach S at every delta.
    let one_machine: Vec<usize> =
        [0.5, 0.7, 0.9].iter().map(|&d| rounds_over(&audit(d, 1)).len()).collect();
    assert_eq!(one_machine, [9, 4, 3], "rounds over S at M = 1");
    assert!(audit(0.7, n / 4).is_empty(), "S = n^0.7 must hold at M = n/4");
    assert!(audit(0.9, n / 4).is_empty(), "roomy budget must hold");
    // At S = n^0.5 = 128 and M = n/4 the forest still breaches S, and only
    // in ShrinkSmallCycles' rounds (ROADMAP item 20 sizes the forest's M).
    let tight = audit(0.5, n / 4);
    assert_eq!(rounds_over(&tight).len(), 6, "{tight:?}");
    for v in &tight {
        assert!(matches!(v.round_name, "ssc-probe" | "ssc-contract" | "ssc-step2"), "{v:?}");
    }
}

#[test]
fn general_runs_are_audited_against_s() {
    // Theorem 1.2 per machine: at M = ⌈T/S⌉ no round of Algorithm 2 has a
    // machine read or write more than S words. At M = 8 a "machine" holds
    // an eighth of each round and ShrinkGeneral's BFS and chase breach S;
    // the audit reads that off the finished run, with nothing attached.
    let mut derived = Vec::new();
    for (n, m) in [(1 << 12, 1 << 14), (1 << 14, 1 << 16)] {
        let g = erdos_renyi_gnm(n, m, 1);
        let run = |machines: usize| {
            let cfg = GeneralCcConfig { machines, ..GeneralCcConfig::default() };
            connected_components_general(&g, &cfg).unwrap()
        };
        let budget = GeneralCcConfig::default().budget(n, m);
        let machines = budget.t.div_ceil(budget.s);
        derived.push(machines);
        let res = run(machines);
        assert_eq!(res.budget, budget);
        let over = res.stats.over_budget(budget.s);
        assert!(over.is_empty(), "n={n}: a machine breached S: {over:?}");

        let over = run(8).stats.over_budget(budget.s);
        assert!(!over.is_empty(), "n={n}: eight machines must breach S");
        for v in &over {
            assert!(matches!(v.round_name, "sg-bfs" | "sg-chase"), "n={n}: {v:?}");
        }
    }
    assert_eq!(derived, [322, 577]);
}
