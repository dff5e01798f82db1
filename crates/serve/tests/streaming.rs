//! Streaming journal-epochs: after every accepted insertion batch the
//! service must answer the whole query algebra **byte-identically** to a
//! from-scratch union-find build over the accumulated graph — across a
//! family × seed matrix, under concurrent readers, and across the folded
//! bases that over-budget inserts publish.

use ampc::rng::{derive_seed, SplitMix64};
use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
use ampc_graph::{reference_components, Graph, VertexId};
use ampc_query::{ComponentIndex, Query};
use ampc_serve::{JournalBudget, JournalView, ServiceBuilder, ServiceHandle};

/// A deterministic batch of random candidate edges over `n` vertices.
fn edge_batch(n: usize, len: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId))
        .collect()
}

/// Asserts every algebra answer on the service's current epoch equals the
/// from-scratch oracle built over `edges`.
fn assert_matches_oracle(
    service: &ServiceHandle,
    n: usize,
    edges: &[(VertexId, VertexId)],
    ctx: &str,
) {
    let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(n, edges)));
    let snap = service.snapshot();
    let engine = snap.engine();
    assert_eq!(snap.num_components(), oracle.num_components(), "{ctx}: component count");
    for v in 0..n as VertexId {
        assert_eq!(
            engine.answer(Query::ComponentOf(v)),
            oracle.component_of(v) as u64,
            "{ctx}: ComponentOf({v})"
        );
        assert_eq!(
            engine.answer(Query::ComponentSize(v)),
            oracle.component_size(v) as u64,
            "{ctx}: ComponentSize({v})"
        );
    }
    let mut rng = SplitMix64::new(derive_seed(&[n as u64, edges.len() as u64]));
    for _ in 0..200 {
        let (u, v) = (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId);
        assert_eq!(
            engine.answer(Query::Connected(u, v)),
            oracle.connected(u, v) as u64,
            "{ctx}: Connected({u},{v})"
        );
    }
    for k in 1..=(oracle.num_components() as u32 + 2) {
        assert_eq!(
            engine.answer(Query::TopKSize(k)),
            oracle.kth_largest_size(k as usize) as u64,
            "{ctx}: TopKSize({k})"
        );
    }
}

#[test]
fn journal_epochs_match_fresh_builds_across_families_and_seeds() {
    // family × seed matrix: every batch of inserts on every graph must
    // leave the service byte-identical to a from-scratch build.
    const N: usize = 500;
    const BATCHES: usize = 4;
    const BATCH_LEN: usize = 12;
    type MakeGraph = fn(u64) -> Graph;
    let families: [(&str, MakeGraph); 2] = [
        ("forest", |seed| random_forest(N, 10, seed)),
        ("gnm", |seed| erdos_renyi_gnm(N, 300, seed)),
    ];
    for (family, make) in &families {
        for seed in [1u64, 2, 3] {
            let g = make(seed);
            let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
            let spec = PipelineSpec::default().with_seed(seed).with_machines(4);
            let service = ServiceBuilder::new(g)
                .spec(spec)
                .journal_budget(JournalBudget::unbounded())
                .build()
                .expect("build");
            for b in 0..BATCHES {
                let batch = edge_batch(N, BATCH_LEN, derive_seed(&[0x57A6, seed, b as u64]));
                let report = service.insert_edges(&batch).expect("insert");
                assert_eq!(report.applied, batch.len());
                assert!(!report.compacted, "unbounded budget must never compact");
                edges.extend_from_slice(&batch);
                assert_matches_oracle(
                    &service,
                    N,
                    &edges,
                    &format!("{family}/seed {seed}/batch {b}"),
                );
            }
            // The journal carries every merge the batches caused.
            let snap = service.snapshot();
            assert_eq!(snap.epoch(), BATCHES as u64);
            assert_eq!(snap.graph_size().1, edges.len());
        }
    }
}

/// The current epoch's journal equals the from-scratch freeze of what
/// `edges` merge over that epoch's own base (`None` when they merge nothing).
fn assert_journal_is_from_scratch(
    service: &ServiceHandle,
    n: usize,
    edges: &[(VertexId, VertexId)],
    ctx: &str,
) {
    let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(n, edges)));
    let snap = service.snapshot();
    let base = snap.index();
    // A base component's class is the oracle component of any member.
    let mut class_of = vec![0; base.num_components()];
    for v in 0..n as VertexId {
        class_of[base.component_of(v) as usize] = oracle.component_of(v);
    }
    let scratch = JournalView::build(&class_of, base).expect("oracle ids fit the base");
    match snap.journal() {
        Some(journal) => assert_eq!(journal, &scratch, "{ctx}: journal != from-scratch freeze"),
        None => assert_eq!(scratch.merges(), 0, "{ctx}: merges but no journal"),
    }
}

#[test]
fn every_over_budget_insert_publishes_its_folded_base() {
    // One writer streams batches over a small budget. Each batch publishes
    // exactly one epoch: a journal-epoch, or — when it takes the edges
    // inserted on its base past the budget — a folded base. Every report is
    // pinned against the oracle, and every epoch's journal against
    // `JournalView::build` over that epoch's own base.
    let cases = [(600, 12, 0xC0, 4, 3), (3_000, 400, 0xC1, 10, 4)];
    for (n, trees, seed, budget, batch_len) in cases {
        let g = random_forest(n, trees, seed);
        let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let components = |edges: &[(VertexId, VertexId)]| {
            reference_components(&Graph::from_edges(n, edges)).num_components()
        };
        let service = ServiceBuilder::new(g)
            .spec(PipelineSpec::default().with_seed(seed).with_machines(4))
            .journal_budget(JournalBudget::new(budget))
            .build()
            .expect("build");

        let (mut base_components, mut live) = (components(&edges), components(&edges));
        let (mut on_base, mut folds) = (0, 0);
        for b in 0..12u64 {
            let ctx = format!("seed {seed:#x} batch {b}");
            let batch = edge_batch(n, batch_len, derive_seed(&[0x11D, seed, b]));
            let report = service.insert_edges(&batch).expect("insert");
            edges.extend_from_slice(&batch);
            on_base += batch.len();
            let now = components(&edges);
            assert_eq!(report.compacted, on_base > budget, "{ctx}: folds iff over budget");
            if report.compacted {
                (base_components, on_base, folds) = (now, 0, folds + 1);
            }
            assert_eq!(report.epoch, b + 1, "{ctx}: one epoch per batch");
            assert_eq!(report.journal_edges, on_base, "{ctx}: journal_edges");
            assert_eq!(report.new_merges, live - now, "{ctx}: new_merges");
            assert_eq!(report.components, now, "{ctx}: components");
            assert_eq!(report.journal_merges, base_components - now, "{ctx}: journal_merges");
            live = now;

            // The batch's epoch is the published one: nothing lands later.
            let snap = service.snapshot();
            assert_eq!(snap.epoch(), report.epoch, "{ctx}");
            assert_eq!(snap.is_journal(), report.journal_merges > 0, "{ctx}");
            assert_eq!(snap.graph_size(), (n, edges.len()), "{ctx}");
            assert_journal_is_from_scratch(&service, n, &edges, &ctx);
            assert_matches_oracle(&service, n, &edges, &ctx);
        }
        assert!(folds >= 3, "seed {seed:#x}: {folds} folds");
    }
}

#[test]
fn readers_stay_consistent_while_journal_epochs_publish() {
    // Concurrent readers hammer snapshots while a writer streams insertion
    // batches. Every snapshot must be internally consistent: its component
    // count, ComponentOf partition, and TopKSize(1) all agree with *one*
    // published journal state (answers are taken through one snapshot, so
    // any torn state would show as a partition that sums wrong).
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    const N: usize = 400;
    let g = random_forest(N, 8, 0xBEE);
    let spec = PipelineSpec::default().with_seed(3).with_machines(2);
    let service = ServiceBuilder::new(g)
        .spec(spec)
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                while !stop.load(SeqCst) {
                    let snap = service.snapshot();
                    let engine = snap.engine();
                    let c = snap.num_components();
                    // Partition check: component ids are dense in 0..c and
                    // the sizes of the distinct ids sum to n.
                    let mut size_of = vec![0u64; c];
                    let mut total = 0u64;
                    for v in 0..N as VertexId {
                        let id = engine.answer(Query::ComponentOf(v)) as usize;
                        assert!(id < c, "dense id {id} out of range for {c} components");
                        let sz = engine.answer(Query::ComponentSize(v));
                        if size_of[id] == 0 {
                            size_of[id] = sz;
                            total += sz;
                        } else {
                            assert_eq!(size_of[id], sz, "size disagreement within component");
                        }
                    }
                    assert_eq!(total, N as u64, "component sizes must partition the graph");
                    let max = *size_of.iter().max().unwrap();
                    assert_eq!(engine.answer(Query::TopKSize(1)), max);
                }
            });
        }
        for b in 0..12u64 {
            let batch = edge_batch(N, 6, derive_seed(&[0x5EED, b]));
            service.insert_edges(&batch).expect("insert");
        }
        stop.store(true, SeqCst);
    });
    assert_eq!(service.current_epoch(), 12);
}
