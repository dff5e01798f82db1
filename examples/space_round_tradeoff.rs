//! The Theorem 1.1 dial: trading rounds for total space.
//!
//! `O(k)` rounds cost `O(n · log^(k) n)` total space — a tunable knob for
//! operators who can spare memory to cut synchronization barriers. This
//! example sweeps `k` on one forest and prints both sides of the trade.
//!
//! ```text
//! cargo run --release --example space_round_tradeoff
//! ```

use adaptive_mpc_connectivity::cc::forest::pipeline::{
    connected_components_forest, ForestCcConfig,
};
use adaptive_mpc_connectivity::cc::{log_iter, log_star};
use adaptive_mpc_connectivity::graph::generators::random_forest;
use adaptive_mpc_connectivity::graph::reference_components;

fn main() {
    let n = 1 << 18;
    let g = random_forest(n, n / 512, 77);
    let truth = reference_components(&g);
    println!("forest: n = {} ({} trees), log* n = {}\n", n, n / 512, log_star(n as f64));
    println!(
        "{:>3} {:>5} {:>12} {:>8} {:>16} {:>18}",
        "k", "B0", "iterations", "rounds", "peak words/n", "paper log^(k) n"
    );
    for k in 1..=5u32 {
        let mut cfg = ForestCcConfig::default().with_seed(3).with_tradeoff_k(n, k);
        cfg.skip_shrink_large = true;
        let res = connected_components_forest(g.as_forest().expect("a forest"), &cfg)
            .expect("forest run");
        assert!(res.labeling.same_partition(&truth));
        println!(
            "{:>3} {:>5} {:>12} {:>8} {:>16.1} {:>18.2}",
            k,
            cfg.b0,
            res.iterations.len(),
            res.rounds(),
            res.peak_space() as f64 / n as f64,
            log_iter(n as f64, k),
        );
    }
    println!("\nSmaller k → bigger first-iteration budget B0 → fewer, heavier iterations.");
    println!("At k = log* n the budget is constant and space is optimal (linear).");
}
