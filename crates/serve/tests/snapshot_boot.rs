//! Snapshot persist → replica boot, end to end through the service layer.
//!
//! The contract under test: `ServiceHandle::persist` captures exactly one
//! published epoch (base or journal), and a replica booted with
//! `ServiceBuilder::from_snapshot` answers the entire query algebra
//! **byte-identically** to the live service at that epoch — across
//! generator families, both pipeline algorithms, every standard workload
//! mix, and while insertions race the persist call. A booted replica is a
//! first-class service: it accepts journal-epoch insertions, refuses to
//! compact over the base graph it does not have, and regains compaction
//! after an explicit rebuild installs one.

use ampc::rng::{derive_seed, SplitMix64};
use ampc_cc::pipeline::Algorithm;
use ampc_graph::generators::{disjoint_cliques, erdos_renyi_gnm, grid2d, random_forest};
use ampc_graph::{reference_components, Graph, VertexId};
use ampc_query::{workload, ComponentIndex};
use ampc_serve::{
    driver, JournalBudget, PipelineSpec, ServiceBuilder, ServiceHandle, SnapshotError,
};
use std::path::PathBuf;

/// A unique temp path per test (tests run concurrently in one process).
fn temp_snap(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ampc_boot_{tag}_{}.snap", std::process::id()))
}

/// A deterministic batch of random candidate edges over `n` vertices.
fn edge_batch(n: usize, len: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId))
        .collect()
}

/// Asserts `booted` and `live` answer every standard mix byte-identically
/// (multi-threaded driver checksums) and expose equal index state.
fn assert_replica_identical(live: &ServiceHandle, booted: &ServiceHandle, ctx: &str) {
    let live_snap = live.snapshot();
    let booted_snap = booted.snapshot();
    if !live_snap.is_journal() {
        // At a journal epoch the live index is the *base* (merges ride in
        // the journal) while the replica's is the materialized merge, so
        // raw index equality only holds for base epochs — answers must be
        // identical either way, which the mix sweep below pins.
        assert_eq!(booted_snap.index(), live_snap.index(), "{ctx}: index state diverges");
    }
    assert_eq!(booted_snap.graph_size(), live_snap.graph_size(), "{ctx}: graph size");
    for mix in workload::Mix::STANDARD {
        let queries = workload::generate(live_snap.index(), mix, 3000, 0xB007);
        let a = driver::run(live, &queries, 2, 128);
        let b = driver::run(booted, &queries, 2, 128);
        assert_eq!(a.checksum, b.checksum, "{ctx}/{}: answers diverge", mix.name());
        assert_eq!(a.queries, b.queries, "{ctx}/{}", mix.name());
    }
}

#[test]
fn booted_replica_matches_live_service_across_families_and_algorithms() {
    type MakeGraph = fn() -> Graph;
    let matrix: [(&str, MakeGraph, Algorithm, u8); 4] = [
        ("random_forest", || random_forest(900, 12, 11), Algorithm::Forest, 1),
        ("gnm", || erdos_renyi_gnm(900, 1200, 11), Algorithm::General, 2),
        ("grid2d", || grid2d(30, 30), Algorithm::General, 2),
        ("cliques", || disjoint_cliques(30, 30), Algorithm::General, 2),
    ];
    for (family, make, algorithm, number) in matrix {
        let spec = PipelineSpec::default().with_algorithm(algorithm).with_seed(9).with_machines(4);
        let live = ServiceBuilder::new(make()).spec(spec).build().expect("live build");
        let path = temp_snap(family);
        let report = live.persist(&path).expect("persist");
        assert_eq!(report.epoch, 0, "{family}: base epoch");
        assert!(!report.journal, "{family}: no journal at epoch 0");

        let booted = ServiceBuilder::from_snapshot(&path).expect("boot");
        assert_eq!(booted.current_epoch(), 0, "{family}: boot publishes epoch 0");
        assert_eq!(
            booted.snapshot().algorithm().number(),
            number,
            "{family}: algorithm tag must survive the roundtrip"
        );
        assert_replica_identical(&live, &booted, family);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn journal_epoch_persist_materializes_merges() {
    // Persisting a journal-epoch must fold the journal into the snapshot:
    // the booted replica (which has no journal) answers like the live
    // service's merged view, i.e. like a full rebuild over the merged graph.
    const N: usize = 700;
    let g = random_forest(N, 14, 23);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let live = ServiceBuilder::new(g)
        .spec(PipelineSpec::default().with_seed(23).with_machines(4))
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");

    let path = temp_snap("journal");
    for b in 0..3u64 {
        let batch = edge_batch(N, 20, derive_seed(&[0x10AD, b]));
        live.insert_edges(&batch).expect("insert");
        edges.extend_from_slice(&batch);

        let report = live.persist(&path).expect("persist journal epoch");
        assert_eq!(report.epoch, b + 1, "persist must capture the journal epoch");
        assert!(report.journal, "epoch {} rides on a journal", b + 1);

        let booted = ServiceBuilder::from_snapshot(&path).expect("boot");
        let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(N, &edges)));
        assert_eq!(
            *booted.snapshot().index(),
            oracle,
            "batch {b}: booted index must equal a full rebuild of the merged graph"
        );
        assert_replica_identical(&live, &booted, &format!("journal batch {b}"));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn persist_under_live_inserts_captures_exactly_one_epoch() {
    // A writer thread streams insertion batches while the main thread
    // persists repeatedly. Every persisted file must decode to the exact
    // materialized state of the *one* epoch its report names — never a
    // blend of two epochs (the failure mode of persisting without pinning).
    const N: usize = 500;
    const BATCHES: usize = 24;
    const BATCH_LEN: usize = 6;
    let g = random_forest(N, 10, 31);
    let base_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    // Batches are deterministic, so the accumulated edge set at epoch e is
    // reconstructible after the fact.
    let batches: Vec<Vec<(VertexId, VertexId)>> =
        (0..BATCHES).map(|b| edge_batch(N, BATCH_LEN, derive_seed(&[0xACE5, b as u64]))).collect();
    let edges_at = |epoch: u64| -> Vec<(VertexId, VertexId)> {
        let mut e = base_edges.clone();
        for batch in &batches[..epoch as usize] {
            e.extend_from_slice(batch);
        }
        e
    };

    let live = ServiceBuilder::new(g)
        .spec(PipelineSpec::default().with_seed(31).with_machines(4))
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");

    std::thread::scope(|s| {
        let writer = {
            let live = live.clone();
            let batches = &batches;
            s.spawn(move || {
                for batch in batches {
                    live.insert_edges(batch).expect("insert");
                }
            })
        };
        for i in 0..8 {
            let path = temp_snap(&format!("race_{i}"));
            let report = live.persist(&path).expect("persist under inserts");
            let snap = ampc_query::snapshot::load(&path).expect("load");
            let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(
                N,
                &edges_at(report.epoch),
            )));
            assert_eq!(
                snap.index, oracle,
                "persist {i} captured epoch {} but its index is not that epoch's state",
                report.epoch
            );
            assert_eq!(snap.graph_m as usize, edges_at(report.epoch).len(), "persist {i}");
            std::fs::remove_file(&path).unwrap();
        }
        writer.join().unwrap();
    });

    // After the stream quiesces, a final persist captures the last epoch.
    let path = temp_snap("race_final");
    let report = live.persist(&path).expect("final persist");
    assert_eq!(report.epoch, BATCHES as u64);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn booted_replica_serves_inserts_and_compacts_only_after_a_real_graph_arrives() {
    const N: usize = 600;
    let g = erdos_renyi_gnm(N, 500, 41);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let live = ServiceBuilder::new(g)
        .spec(PipelineSpec::default().with_algorithm(Algorithm::General).with_seed(41))
        .build()
        .expect("build");
    let path = temp_snap("inserts");
    live.persist(&path).expect("persist");
    let booted = ServiceBuilder::from_snapshot(&path).expect("boot");
    std::fs::remove_file(&path).unwrap();

    // Journal-epoch insertions need only the index, which the snapshot
    // carries — the replica accepts them and stays oracle-exact.
    for b in 0..3u64 {
        let batch = edge_batch(N, 15, derive_seed(&[0xB11D, b]));
        let report = booted.insert_edges(&batch).expect("insert on booted replica");
        assert_eq!(report.epoch, b + 1);
        assert!(!report.compaction_started, "no base graph, must not compact");
        edges.extend_from_slice(&batch);
        let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(N, &edges)));
        let snap = booted.snapshot();
        let engine = snap.engine();
        for v in 0..N as VertexId {
            assert_eq!(
                engine.answer(ampc_query::Query::ComponentOf(v)),
                oracle.component_of(v) as u64,
                "batch {b}: ComponentOf({v})"
            );
        }
    }

    // Blowing straight past the default budget must still not compact: the
    // snapshot carries no edge list, so there is nothing to merge with.
    let budget = booted.journal_budget();
    let flood = edge_batch(N, budget.max_edges + 1, 0xF100D);
    let report = booted.insert_edges(&flood).expect("over-budget insert");
    assert!(
        !report.compaction_started,
        "over budget without a base graph must not start a compaction"
    );
    edges.extend_from_slice(&flood);

    // An explicit rebuild installs the merged graph as the new ground
    // truth; compaction is live again from then on.
    let rebuilt_epoch =
        booted.rebuild_blocking(Graph::from_edges(N, &edges)).expect("rebuild on booted replica");
    assert!(rebuilt_epoch > report.epoch, "rebuild must publish a new epoch");
    let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(N, &edges)));
    assert_eq!(*booted.snapshot().index(), oracle, "rebuild must match the oracle");

    let flood = edge_batch(N, budget.max_edges + 1, 0xF200D);
    let report = booted.insert_edges(&flood).expect("post-rebuild insert");
    assert!(report.compaction_started, "with a real graph the budget must trigger compaction");
    // Let the background compaction land before the test exits.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut last = booted.current_epoch();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = booted.current_epoch();
        if now == last {
            break;
        }
        last = now;
        assert!(std::time::Instant::now() < deadline, "compaction never quiesced");
    }
}

#[test]
fn boot_refuses_damaged_or_missing_snapshots() {
    let g = random_forest(300, 6, 51);
    let live =
        ServiceBuilder::new(g).spec(PipelineSpec::default().with_seed(51)).build().expect("build");
    let path = temp_snap("damage");
    live.persist(&path).expect("persist");

    // Flip one payload byte: the boot must fail with the section's
    // checksum error and publish nothing.
    let mut bytes = std::fs::read(&path).unwrap();
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
    let [_, class_label] = ampc_query::snapshot::layout(word(2), word(4)).expect("layout");
    bytes[class_label.start + 5] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    match ServiceBuilder::from_snapshot(&path) {
        Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "class_label"),
        other => panic!("corrupt boot gave {:?}", other.err().map(|e| e.to_string())),
    }

    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(ServiceBuilder::from_snapshot(&path), Err(SnapshotError::Io(_))),
        "missing file must be an Io error"
    );
}
