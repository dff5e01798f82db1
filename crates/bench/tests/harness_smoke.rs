//! Smoke tests of the experiment harness: every experiment must run in
//! quick mode, produce non-empty validated tables, and round-trip to CSV.

#[test]
fn quick_experiments_produce_tables() {
    // The fast subset runs even in debug CI; each experiment validates its
    // own labelings internally (panics on mismatch).
    for id in ["e3", "e4", "e6", "e7", "e10"] {
        let table = ampc_bench::run_one(id, true).expect("known id");
        assert!(!table.rows.is_empty(), "{id} produced no rows");
        assert!(!table.header.is_empty());
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), table.rows.len() + 1, "{id} csv shape");
        // Numeric data cells must not keep thousands separators (headers
        // like "π_B(i)" legitimately contain underscores).
        for line in csv.lines().skip(1) {
            for cell in line.split(',') {
                if cell.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    assert!(!cell.contains('_'), "{id}: separator kept in {cell}");
                }
            }
        }
    }
}

#[test]
fn unknown_experiment_is_none() {
    assert!(ampc_bench::run_one("e99", true).is_none());
    assert!(ampc_bench::run_one("e13", true).is_none());
    assert!(ampc_bench::run_one("nonsense", true).is_none());
}

#[test]
fn the_harness_is_exactly_e1_to_e11() {
    // The harness reports counts only. A twelfth table would be a timing
    // table: wall clock is the ledger's (`BENCHMARK.json`), and backend
    // equivalence is `tests/cross_validation.rs`'s matrices.
    let tables = ampc_bench::run_all(true);
    assert_eq!(tables.len(), 11);
    for (i, table) in tables.iter().enumerate() {
        let id = format!("E{}", i + 1);
        assert!(table.title.starts_with(&format!("{id} ")), "{id} is titled {:?}", table.title);
        assert!(!table.rows.is_empty(), "{id} produced no rows");
    }
    assert!(ampc_bench::run_one("e12", true).is_none());
}
