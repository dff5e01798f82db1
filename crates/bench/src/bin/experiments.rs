//! CLI harness: regenerate the paper's quantitative claims.
//!
//! ```text
//! cargo run -p ampc-bench --release --bin experiments -- all
//! cargo run -p ampc-bench --release --bin experiments -- e1 e4
//! cargo run -p ampc-bench --release --bin experiments -- --quick all
//! ```

use std::time::Instant;

/// Prints the per-round cost ledger of one Algorithm 1 run — every AMPC
/// round by name with its reads, communication, and total-space charge.
fn trace() {
    use ampc_cc::forest::pipeline::{connected_components_forest, ForestCcConfig};
    let n = 1 << 14;
    let g = ampc_graph::generators::random_forest(n, n / 48, 0xBEEF);
    let mut cfg = ForestCcConfig::default().with_seed(0xBEEF);
    cfg.skip_shrink_large = true;
    let res =
        connected_components_forest(g.as_forest().expect("a forest"), &cfg).expect("forest run");
    println!("# Round-by-round trace — Algorithm 1 on a {n}-vertex forest\n");
    println!("{}", res.stats.round_table());
    println!(
        "total: {} rounds, {} queries, peak space {} words",
        res.rounds(),
        res.queries(),
        res.peak_space()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    // --csv DIR: additionally write each table as DIR/eN.csv.
    let csv_dir: Option<String> =
        args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1).cloned());
    if args.iter().any(|a| a == "trace") {
        trace();
        return;
    }
    let csv_value_idx = args.iter().position(|a| a == "--csv").map(|i| i + 1);
    let ids: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with('-') && Some(*i) != csv_value_idx)
        .map(|(_, a)| a.as_str())
        .collect();

    let selected: Vec<String> = if ids.is_empty() || ids.contains(&"all") {
        (1..=11).map(|i| format!("e{i}")).collect()
    } else {
        ids.iter().map(|s| s.to_lowercase()).collect()
    };

    println!("# Experiment results — Adaptive Massively Parallel Connectivity in Optimal Space\n");
    println!(
        "Mode: {} | seed-deterministic | labels validated against sequential ground truth\n",
        if quick { "quick" } else { "full" }
    );

    for id in &selected {
        let start = Instant::now();
        match ampc_bench::run_one(id, quick) {
            Some(table) => {
                println!("{table}");
                println!("_({id} completed in {:.1?})_\n", start.elapsed());
                if let Some(dir) = &csv_dir {
                    std::fs::create_dir_all(dir).expect("create csv dir");
                    let path = std::path::Path::new(dir).join(format!("{id}.csv"));
                    std::fs::write(&path, table.to_csv()).expect("write csv");
                }
            }
            None => eprintln!("unknown experiment id: {id} (expected e1..e11 or all)"),
        }
    }
}
