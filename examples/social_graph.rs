//! Community detection preprocessing on a social-network-shaped graph.
//!
//! The paper's motivation: connected components is a core primitive of
//! massive-graph pipelines (deduplication, community pre-clustering,
//! reachability). This example runs Algorithm 2 on a heavy-tailed
//! preferential-attachment graph sprinkled with isolated "ghost" accounts
//! and small cliques (bot rings), then cross-checks the result against the
//! BDE+21 Theorem 4.1 solver and sequential ground truth.
//!
//! ```text
//! cargo run --release --example social_graph
//! ```

use adaptive_mpc_connectivity::ampc::{AmpcConfig, Budget};
use adaptive_mpc_connectivity::cc::general::algorithm2::{
    connected_components_general, GeneralCcConfig,
};
use adaptive_mpc_connectivity::cc::general::bdeplus::theorem41;
use adaptive_mpc_connectivity::graph::generators::{
    disjoint_cliques, disjoint_union, preferential_attachment,
};
use adaptive_mpc_connectivity::graph::{reference_components, Graph};

fn main() {
    // 50k-user core network + 200 bot rings of 8 accounts + 1k ghosts.
    let core = preferential_attachment(50_000, 4, 1);
    let bots = disjoint_cliques(200, 8);
    let ghosts = Graph::empty(1_000);
    let g = disjoint_union(&[core, bots, ghosts]);
    println!("social graph: n = {}, m = {}, max degree = {}", g.n(), g.m(), g.max_degree());

    let truth = reference_components(&g);
    println!("ground truth components = {}", truth.num_components());

    // Algorithm 2 (this paper).
    let cfg = GeneralCcConfig::default().with_seed(99).with_k(2);
    let ours = connected_components_general(&g, &cfg).expect("algorithm 2");
    assert!(ours.labeling.same_partition(&truth));
    println!("\nAlgorithm 2 (Theorem 1.2, k = 2):");
    println!("  components        = {}", ours.labeling.num_components());
    println!("  cc calls          = {}", ours.cc_calls);
    println!("  AMPC rounds       = {}", ours.stats.rounds());
    println!("  total queries     = {}", ours.stats.total_queries());
    println!("  peak round space  = {} words", ours.stats.peak_total_space());
    println!("  space budget T    = {} words", ours.budget.t);

    // Baseline: BDE+21 Theorem 4.1 with 8× linear space.
    let size = g.n() + g.m();
    let budget = Budget { s: Budget::local_space(size, 0.6), t: 8 * size };
    let base = theorem41(&g, budget, &AmpcConfig::default().with_seed(99)).expect("theorem 4.1");
    assert!(base.labeling.same_partition(&truth));
    println!("\nBDE+21 Theorem 4.1 baseline (T = 8N):");
    println!("  ShrinkGeneral levels = {} (budgets {:?})", base.levels, base.budgets);
    println!("  AMPC rounds          = {}", base.stats.rounds());
    println!("  peak round space     = {} words", base.stats.peak_total_space());

    // The paper's point: both are round-efficient, but Algorithm 2 achieves
    // it under a near-linear space budget while the baseline needed 8N.
    let ratio = base.stats.peak_total_space() as f64 / ours.stats.peak_total_space() as f64;
    println!("\npeak-space ratio baseline/ours = {ratio:.2}");
}
