//! Watershed census: labeling river networks (forests) at scale.
//!
//! Hydrological networks are forests: streams merge but never split, so a
//! continent's river system is a set of trees rooted at ocean outlets.
//! Assigning every stream segment its watershed id is exactly forest
//! connectivity. This example runs Algorithm 1 on such a forest and prints
//! the per-iteration shrink telemetry — the observable form of the paper's
//! `n_i ≤ n / (2↑↑i)` double-exponential progress (Section 3.3).
//!
//! ```text
//! cargo run --release --example forest_census
//! ```

use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::graph::generators::random_forest;
use adaptive_mpc_connectivity::graph::reference_components;

fn main() {
    // 300k stream segments across ~1200 watersheds of ~256 segments each.
    let n = 300_000;
    let g = random_forest(n, n / 256, 2024);
    println!("river network: {} segments, {} watersheds", g.n(), n / 256);

    // Skip the length-capping preprocessing so the doubling-B loop is
    // visible end to end (watershed trees are mid-sized; their Euler cycles
    // fit the walk budget).
    let mut cfg = ForestCcConfig::default().with_seed(5);
    cfg.skip_shrink_large = true;
    cfg.b0 = 2;
    let res =
        connected_components_forest(g.as_forest().expect("a forest"), &cfg).expect("forest run");
    assert!(res.labeling.same_partition(&reference_components(&g)));

    println!("\nper-iteration telemetry (ShrinkSmallCycles):");
    println!(
        "{:>4} {:>4} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "it", "B", "alive", "after", "drop", "loop-rm", "seg-rm", "step2-rm"
    );
    for (i, it) in res.iterations.iter().enumerate() {
        println!(
            "{:>4} {:>4} {:>12} {:>12} {:>7.1}x {:>10} {:>10} {:>10}",
            i + 1,
            it.b,
            it.alive_before,
            it.alive_after,
            it.alive_before as f64 / it.alive_after.max(1) as f64,
            it.loop_contracted,
            it.segment_contracted,
            it.step2_contracted,
        );
    }
    println!(
        "\nfinisher: {} high-budget iterations (B = {}), collected locally: {}",
        res.finisher.iterations, res.finisher.b, res.finisher.collected_locally
    );
    println!(
        "total: {} AMPC rounds, {:.1} queries/segment, {:.1} peak words/segment",
        res.stats.rounds(),
        res.stats.total_queries() as f64 / g.n() as f64,
        res.stats.peak_total_space() as f64 / g.n() as f64
    );
    println!("watersheds labeled: {}", res.labeling.num_components());
}
