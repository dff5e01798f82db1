//! Snapshot persist → replica boot, end to end through the service layer.
//!
//! The contract under test: `ServiceHandle::persist` captures exactly one
//! published epoch (base or journal), and a replica booted with
//! `ServiceBuilder::from_snapshot` answers the entire query algebra
//! **byte-identically** to the live service at that epoch — across
//! generator families, both pipeline algorithms, every standard workload
//! mix, and while insertions race the persist call. A booted replica is a
//! first-class service: it accepts journal-epoch insertions and compacts
//! past its budget like any other, and a persisted file does not depend on
//! whether its epoch compacted first.

use ampc::rng::{derive_seed, SplitMix64};
use ampc_cc::pipeline::Algorithm;
use ampc_graph::generators::{disjoint_cliques, erdos_renyi_gnm, grid2d, random_forest};
use ampc_graph::{reference_components, Graph, VertexId};
use ampc_query::{workload, ComponentIndex};
use ampc_serve::{
    driver, BootSource, HealthState, JournalBudget, PipelineSpec, ServiceBuilder, ServiceHandle,
    SnapshotError,
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
fn booted_replica_serves_inserts_and_compacts_like_any_other() {
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
    let oracle_of =
        |edges: &[_]| ComponentIndex::build(&reference_components(&Graph::from_edges(N, edges)));

    // Journal-epoch insertions need only the index, which the snapshot
    // carries — the replica accepts them and stays oracle-exact.
    for b in 0..3u64 {
        let batch = edge_batch(N, 15, derive_seed(&[0xB11D, b]));
        let report = booted.insert_edges(&batch).expect("insert on booted replica");
        assert_eq!(report.epoch, b + 1);
        assert!(!report.compacted, "under budget");
        edges.extend_from_slice(&batch);
        let oracle = oracle_of(&edges);
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

    // Past the default budget the replica folds, though it never had an
    // edge list: the batch's own epoch is the folded base.
    let budget = booted.journal_budget();
    let flood = edge_batch(N, budget.max_edges + 1, 0xF100D);
    let report = booted.insert_edges(&flood).expect("over-budget insert");
    assert!(report.compacted, "over budget, a booted replica compacts");
    edges.extend_from_slice(&flood);
    let snap = booted.snapshot();
    assert_eq!(snap.epoch(), report.epoch);
    assert!(!snap.is_journal());
    assert_eq!(*snap.index(), oracle_of(&edges), "the folded base must match the oracle");
    assert_eq!(snap.graph_size(), (N, edges.len()));

    // An explicit rebuild still installs new ground truth.
    let rebuilt_epoch =
        booted.rebuild_blocking(Graph::from_edges(N, &edges)).expect("rebuild on booted replica");
    assert_eq!(rebuilt_epoch, report.epoch + 1, "rebuild must publish a new epoch");
    assert_eq!(*booted.snapshot().index(), oracle_of(&edges), "rebuild must match the oracle");
}

#[test]
fn a_replica_booted_with_a_zero_budget_folds_its_first_insert() {
    const N: usize = 2_000;
    let g = random_forest(N, 40, 43);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let live =
        ServiceBuilder::new(g).spec(PipelineSpec::default().with_seed(43)).build().expect("build");
    let path = temp_snap("zero_budget");
    live.persist(&path).expect("persist");

    // The builder holds no graph of the snapshot's: only its settings count
    // when the snapshot boots.
    let (booted, source) = ServiceBuilder::new(Graph::empty(0))
        .journal_budget(JournalBudget::new(0))
        .from_snapshot_or_rebuild(&path)
        .expect("boot");
    std::fs::remove_file(&path).unwrap();
    assert_eq!(source, BootSource::Snapshot);

    let batch = edge_batch(N, 8, 0x2E80);
    let report = booted.insert_edges(&batch).expect("first insert");
    edges.extend_from_slice(&batch);
    assert!(report.compacted, "0 edges of budget: the first insert folds");
    let snap = booted.snapshot();
    assert_eq!(snap.epoch(), report.epoch, "the insert's own epoch is the folded base");
    assert!(!snap.is_journal());
    let merged = Graph::from_edges(N, &edges);
    assert_eq!(*snap.index(), ComponentIndex::build(&reference_components(&merged)));
    assert_eq!(snap.graph_size(), (N, edges.len()));
}

#[test]
fn a_replica_booted_from_a_forest_rebuilds_over_a_cycle() {
    let forest = Graph::from_edges(4, &[(0, 1), (2, 3)]);
    let live = ServiceBuilder::new(forest).build().expect("build");
    let path = temp_snap("forest_then_cycle");
    live.persist(&path).expect("persist");
    let booted = ServiceBuilder::from_snapshot(&path).expect("boot");
    std::fs::remove_file(&path).unwrap();
    assert_eq!(booted.snapshot().algorithm().number(), 1, "the file's run was the forest's");

    // The spec picks the algorithm per graph, as a built service's does:
    // the snapshot's forest tag does not refuse a graph with a cycle.
    let triangle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    assert_eq!(live.rebuild_blocking(triangle.clone()), Ok(1));
    assert_eq!(booted.rebuild_blocking(triangle), Ok(1));
    assert_eq!(booted.health().state, HealthState::Healthy);
    let snap = booted.snapshot();
    assert_eq!((snap.num_components(), snap.algorithm().number()), (1, 2));
    assert!(booted.insert_edges(&[(0, 2)]).is_ok());
}

#[test]
fn a_persisted_epoch_is_the_same_file_whether_or_not_it_compacted() {
    // Two services over one graph take the same inserts; one never
    // compacts, the other folds every insert. After each insert both
    // persist: a journal-epoch (or the bare base) on one side, a folded
    // base on the other — and the two files are byte for byte the same.
    const N: usize = 4_096;
    let g = random_forest(N, 64, 47);
    let spec = PipelineSpec::default().with_seed(47).with_machines(4);
    let start = |budget| {
        let service = ServiceBuilder::new(g.clone()).spec(spec.clone()).journal_budget(budget);
        service.build().expect("build")
    };
    let journal = start(JournalBudget::unbounded());
    let folding = start(JournalBudget::new(0));
    let (path_j, path_f) = (temp_snap("bytes_journal"), temp_snap("bytes_folded"));
    for b in 0..16u64 {
        let batch = edge_batch(N, 1 + b as usize % 3, derive_seed(&[0xB17E, b]));
        assert!(!journal.insert_edges(&batch).expect("insert").compacted);
        assert!(folding.insert_edges(&batch).expect("insert").compacted);
        assert!(!folding.snapshot().is_journal());
        let report = journal.persist(&path_j).expect("persist journal-epoch");
        folding.persist(&path_f).expect("persist folded base");
        let (a, f) = (std::fs::read(&path_j).unwrap(), std::fs::read(&path_f).unwrap());
        let first_diff = a.iter().zip(&f).position(|(x, y)| x != y);
        assert_eq!(first_diff, None, "batch {b} (journal: {}): files differ", report.journal);
        assert_eq!(a.len(), f.len(), "batch {b}");
    }
    assert!(journal.snapshot().is_journal(), "the inserts must have merged something");
    std::fs::remove_file(&path_j).unwrap();
    std::fs::remove_file(&path_f).unwrap();
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
