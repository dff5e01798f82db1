//! Quickstart: connected components of a forest and of a general graph.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::graph::generators::{erdos_renyi_gnm, random_forest};
use adaptive_mpc_connectivity::graph::reference_components;

fn main() {
    // ----- Theorem 1.1: forests in O(log* n) rounds, optimal space -----
    let forest = random_forest(100_000, 50, 42);
    let cfg = ForestCcConfig::default().with_seed(7);
    let result = connected_components_forest(forest.as_forest().expect("a forest"), &cfg)
        .expect("forest run");
    assert!(result.labeling.same_partition(&reference_components(&forest)));
    println!("forest: n = {}, components = {}", forest.n(), result.labeling.num_components());
    println!(
        "  AMPC rounds = {}  (log* n = {})",
        result.stats.rounds(),
        adaptive_mpc_connectivity::cc::log_star(forest.n() as f64)
    );
    println!(
        "  total queries = {} ({:.1} per vertex)",
        result.stats.total_queries(),
        result.stats.total_queries() as f64 / forest.n() as f64
    );
    println!(
        "  peak round space = {} words ({:.1} per vertex — linear, as Theorem 1.1 promises)",
        result.stats.peak_total_space(),
        result.stats.peak_total_space() as f64 / forest.n() as f64
    );

    // ----- Theorem 1.2: general graphs in 2^O(k) rounds -----
    let graph = erdos_renyi_gnm(20_000, 80_000, 43);
    let cfg = GeneralCcConfig::default().with_seed(7).with_k(2);
    let result = connected_components_general(&graph, &cfg).expect("general run");
    assert!(result.labeling.same_partition(&reference_components(&graph)));
    println!(
        "\ngeneral: n = {}, m = {}, components = {}",
        graph.n(),
        graph.m(),
        result.labeling.num_components()
    );
    println!(
        "  recursive ConnectedComponents calls = {} (Lemma 4.6: 2^O(k), k = 2)",
        result.calls.len()
    );
    println!("  AMPC rounds = {}", result.stats.rounds());
    println!("  space budget T = {} words", result.budget.t);
}
