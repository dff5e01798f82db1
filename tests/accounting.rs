//! Cost-accounting integration tests: the meters the experiments rely on
//! must themselves obey the paper's bookkeeping identities.

use adaptive_mpc_connectivity::ampc::{Budget, RunStats};
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
    let res = connected_components_forest(&g, &ForestCcConfig::default()).unwrap();
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
        let res = connected_components_forest(&g, &ForestCcConfig::default()).unwrap();
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
        let res = connected_components_forest(&g, &ForestCcConfig::default()).unwrap();
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
    let res = connected_components_forest(&g, &cfg).unwrap();
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

#[test]
fn audit_budget_scales_with_delta() {
    // The audit checks S = Budget::local_space(n, delta) itself, and a
    // larger delta → larger S → the same workload further under budget.
    let n = 1 << 14;
    let g = random_forest(n, 8, 7);
    let violations = |delta: f64, machines: usize| {
        let cfg =
            ForestCcConfig { delta, audit_limits: true, machines, ..ForestCcConfig::default() };
        let res = connected_components_forest(&g, &cfg).unwrap();
        assert_round_identities(&res.stats);
        let s = Budget::local_space(n, delta);
        for v in res.stats.violations() {
            assert_eq!(v.budget, s, "delta={delta}: {v:?} is not held to S");
        }
        res.stats.violations().count()
    };
    // At M = 1 one machine carries each whole round, so the large rounds
    // breach S at every delta.
    let one_machine: Vec<usize> = [0.5, 0.7, 0.9].iter().map(|&d| violations(d, 1)).collect();
    assert!(one_machine.iter().all(|&c| c > 0), "one machine must breach S: {one_machine:?}");
    for w in one_machine.windows(2) {
        assert!(w[1] <= w[0], "violations grew with delta: {one_machine:?}");
    }
    assert_eq!(violations(0.7, n / 4), 0, "S = n^0.7 must hold at M = n/4");
    assert_eq!(violations(0.9, n / 4), 0, "roomy budget must hold");
}
