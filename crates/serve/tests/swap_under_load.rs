//! Swap-under-load: reader threads answer queries while rebuilds on other
//! threads publish new epochs through the same service.
//!
//! The pinned invariant: **every answer is consistent with exactly one
//! published epoch**. Each test graph is chosen so its index (and the
//! checksum of a fixed query workload against it) is a unique fingerprint;
//! a torn read — an answer mixing two epochs' indexes — would produce a
//! fingerprint matching *no* published graph and fail loudly. The tests
//! also pin the lifecycle half of the contract: a snapshot taken before a
//! rebuild keeps answering its old epoch across arbitrarily many swaps,
//! and a retired epoch's memory is freed exactly when its last snapshot
//! drops.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;

use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::generators::random_forest;
use ampc_graph::reference_components;
use ampc_graph::Graph;
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, QueryEngine};
use ampc_serve::ServiceBuilder;

/// Vertex count shared by every epoch's graph, so one query stream is
/// valid against every published index.
const N: usize = 400;
/// Reader threads.
const READERS: usize = 4;
/// Rebuilds published while readers are live.
const REBUILDS: usize = 3;

/// The graph published as epoch `i`: component count `5 + 3i` uniquely
/// fingerprints the epoch.
fn epoch_graph(i: usize) -> Graph {
    random_forest(N, 5 + 3 * i, 0xEC0 + i as u64)
}

/// Per-epoch oracle: the reference-built index (byte-identical to what the
/// service must publish) and the checksum of the shared workload under it.
struct Oracle {
    index: ComponentIndex,
    checksum: u64,
}

fn oracles(queries: &[ampc_query::Query]) -> Vec<Oracle> {
    let oracles: Vec<Oracle> = (0..=REBUILDS)
        .map(|i| {
            let index = ComponentIndex::build(&reference_components(&epoch_graph(i)));
            let engine = QueryEngine::new(&index);
            let checksum = queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)));
            Oracle { index, checksum }
        })
        .collect();
    // The fingerprints must be pairwise distinct or the exactly-one-epoch
    // assertion below would be vacuous.
    for a in 0..oracles.len() {
        for b in a + 1..oracles.len() {
            assert_ne!(oracles[a].checksum, oracles[b].checksum, "oracles {a}/{b} collide");
            assert_ne!(oracles[a].index.num_components(), oracles[b].index.num_components());
        }
    }
    oracles
}

/// A query stream valid against every epoch's graph (all share `N`).
fn shared_workload() -> Vec<ampc_query::Query> {
    let base = ComponentIndex::build(&reference_components(&epoch_graph(0)));
    workload::generate(&base, Mix::Uniform, 2_000, 0x10AD)
}

#[test]
fn readers_stay_consistent_across_sequential_rebuilds() {
    let queries = shared_workload();
    let oracles = oracles(&queries);
    let spec = PipelineSpec::default().with_seed(21).with_machines(4);
    let service = ServiceBuilder::new(epoch_graph(0)).spec(spec).build().expect("build");

    let stop = AtomicBool::new(false);
    let iterations = AtomicUsize::new(0);
    // Readers take their first snapshot before the barrier; rebuilds start
    // after it — so every reader provably pins epoch 0 and stays live
    // across all REBUILDS swaps.
    let barrier = Barrier::new(READERS + 1);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let genesis = service.snapshot();
                assert_eq!(genesis.epoch(), 0);
                barrier.wait();
                while !stop.load(SeqCst) {
                    let snap = service.snapshot();
                    let e = snap.epoch() as usize;
                    // Sequential publishes ⇒ epoch e carries epoch_graph(e).
                    assert!(e <= REBUILDS, "epoch {e} was never published");
                    assert_eq!(
                        snap.index(),
                        &oracles[e].index,
                        "epoch {e}: snapshot index diverged from its oracle (torn read?)"
                    );
                    let engine = snap.engine();
                    let sum =
                        queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)));
                    assert_eq!(
                        sum, oracles[e].checksum,
                        "epoch {e}: answers inconsistent with the pinned epoch"
                    );
                    iterations.fetch_add(1, SeqCst);
                }
                // The genesis snapshot answered epoch 0 all along — and
                // still does after every swap.
                assert_eq!(genesis.epoch(), 0);
                assert_eq!(genesis.index(), &oracles[0].index);
            });
        }

        barrier.wait();
        for (i, oracle) in oracles.iter().enumerate().skip(1) {
            let epoch = service.rebuild_blocking(epoch_graph(i)).expect("rebuild");
            assert_eq!(epoch as usize, i, "sequential rebuilds must publish dense epochs");
            assert_eq!(service.snapshot().index(), &oracle.index);
        }
        stop.store(true, SeqCst);
    });

    assert_eq!(service.current_epoch() as usize, REBUILDS);
    assert!(
        iterations.load(SeqCst) >= READERS,
        "readers made too few passes to exercise the swap window"
    );
}

#[test]
fn concurrent_rebuild_publishers_never_tear_a_snapshot() {
    let queries = shared_workload();
    let oracles = oracles(&queries);
    let spec = PipelineSpec::default().with_seed(33).with_machines(4);
    let service = ServiceBuilder::new(epoch_graph(0)).spec(spec).build().expect("build");

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                while !stop.load(SeqCst) {
                    let snap = service.snapshot();
                    // Publish order is racy, so identify the epoch's graph
                    // by fingerprint — it must match exactly one oracle,
                    // wholesale.
                    let engine = snap.engine();
                    let sum =
                        queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)));
                    let matches: Vec<usize> = oracles
                        .iter()
                        .enumerate()
                        .filter(|(_, o)| o.checksum == sum && &o.index == snap.index())
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(
                        matches.len(),
                        1,
                        "snapshot at epoch {} matches {} oracles — torn or unknown index",
                        snap.epoch(),
                        matches.len()
                    );
                }
            });
        }

        // REBUILDS threads rebuild at once; each reports `(the epoch its call
        // returned, the graph it rebuilt)`.
        let rebuilders: Vec<_> = (1..=REBUILDS)
            .map(|i| {
                let service = &service;
                s.spawn(move || (service.rebuild_blocking(epoch_graph(i)).expect("rebuild"), i))
            })
            .collect();
        let mut published: Vec<(u64, usize)> =
            rebuilders.into_iter().map(|h| h.join().expect("rebuilder")).collect();
        published.sort_unstable();
        let epochs: Vec<u64> = published.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, vec![1, 2, 3], "publishes must serialize into dense epochs");
        stop.store(true, SeqCst);

        // Each call takes effect at its publish, so the final index is the
        // oracle of the call that returned the highest epoch.
        let (last_epoch, last_graph) = published[REBUILDS - 1];
        let last = service.snapshot();
        assert_eq!(last.epoch(), last_epoch);
        assert_eq!(
            last.index(),
            &oracles[last_graph].index,
            "epoch {last_epoch} does not serve graph {last_graph}, the call that published it"
        );
    });
}

#[test]
fn driver_stays_per_thread_consistent_while_rebuilds_publish() {
    // The driver pins one snapshot per worker for its whole stripe, so a
    // rebuild landing mid-run must not mix epochs within a worker: every
    // per-worker checksum must equal the oracle sum of that worker's
    // stripe against the graph of the epoch the row reports.
    let queries = shared_workload();
    let oracles = oracles(&queries);
    let spec = PipelineSpec::default().with_seed(77).with_machines(2);
    let service = ServiceBuilder::new(epoch_graph(0)).spec(spec).build().expect("build");

    const THREADS: usize = 3;
    // Per-epoch, per-stripe oracle sums.
    let stripe_sum = |epoch: usize, t: usize| -> u64 {
        let engine = QueryEngine::new(&oracles[epoch].index);
        queries[ampc_serve::driver::stripe(queries.len(), THREADS, t)]
            .iter()
            .fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)))
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Rebuild loop: cycle through the epoch graphs; epoch e always
        // carries epoch_graph(e % (REBUILDS + 1)) because publishes are
        // sequential here.
        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(SeqCst) {
                i += 1;
                let g = epoch_graph(i % (REBUILDS + 1));
                service.rebuild_blocking(g).expect("rebuild");
            }
        });
        for _ in 0..20 {
            let report = ampc_serve::driver::run(&service, &queries, THREADS, 256);
            for row in &report.per_worker {
                let epoch = row.epoch as usize % (REBUILDS + 1);
                assert_eq!(
                    row.checksum,
                    stripe_sum(epoch, row.worker),
                    "worker {} at epoch {}: answers mixed epochs",
                    row.worker,
                    row.epoch
                );
            }
        }
        stop.store(true, SeqCst);
    });
}

#[test]
fn shrinking_graph_rebuilds_answer_old_workloads_with_the_sentinel() {
    // A query stream generated against a 400-vertex epoch keeps hammering
    // the service across a rebuild down to 150 vertices. Out-of-range
    // vertices must answer NO_ANSWER — never panic a reader (this used to
    // kill the serving thread with an index-out-of-bounds).
    use ampc_query::NO_ANSWER;
    let queries = shared_workload();
    let small = random_forest(150, 4, 0x5417);
    let small_oracle = ComponentIndex::build(&reference_components(&small));
    let spec = PipelineSpec::default().with_seed(91).with_machines(4);
    let service = ServiceBuilder::new(epoch_graph(0)).spec(spec).build().expect("build");

    let stop = AtomicBool::new(false);
    let sentinel_seen = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                while !stop.load(SeqCst) {
                    let snap = service.snapshot();
                    let engine = snap.engine();
                    for &q in &queries {
                        // Must not panic; on the small epoch, out-of-range
                        // vertices answer the sentinel.
                        if engine.answer(q) == NO_ANSWER {
                            assert_eq!(snap.epoch(), 1, "sentinel on the full-range epoch");
                            sentinel_seen.fetch_add(1, SeqCst);
                        }
                    }
                }
            });
        }
        service.rebuild_blocking(small.clone()).expect("shrinking rebuild");
        // Run the workload on the small epoch from this thread too, so the
        // sentinel assertion below doesn't depend on a reader re-snapshotting
        // before `stop` lands.
        let snap = service.snapshot();
        assert_eq!(snap.epoch(), 1);
        let engine = snap.engine();
        for &q in &queries {
            if engine.answer(q) == NO_ANSWER {
                sentinel_seen.fetch_add(1, SeqCst);
            }
        }
        stop.store(true, SeqCst);
    });

    let snap = service.snapshot();
    assert_eq!(snap.epoch(), 1);
    assert_eq!(snap.index(), &small_oracle);
    // The shared workload names vertices ≥ 150, so the small epoch must
    // have produced sentinels (otherwise this test exercised nothing).
    assert!(sentinel_seen.load(SeqCst) > 0, "no out-of-range query reached the small epoch");
    assert_eq!(snap.engine().try_answer(ampc_query::Query::ComponentOf(399)), None);
}

#[test]
fn call_order_wins_for_back_to_back_rebuilds() {
    // A slow rebuild (big graph) and then a fast one (tiny graph) from one
    // thread: each call returns after its publish, so the *last-called*
    // graph is the final epoch and the big one never overwrites it.
    use ampc_graph::generators::erdos_renyi_gnm;
    let big = erdos_renyi_gnm(60_000, 180_000, 0xB16);
    let tiny = random_forest(64, 2, 0x717);
    let tiny_oracle = ComponentIndex::build(&reference_components(&tiny));
    let spec = PipelineSpec::default().with_seed(13).with_machines(4);
    let service = ServiceBuilder::new(epoch_graph(0)).spec(spec).build().expect("build");

    let e1 = service.rebuild_blocking(big).expect("big rebuild");
    let e2 = service.rebuild_blocking(tiny).expect("tiny rebuild");
    assert_eq!((e1, e2), (1, 2), "publishes must land in call order");
    let snap = service.snapshot();
    assert_eq!(snap.epoch(), 2);
    assert_eq!(snap.index(), &tiny_oracle, "a stale slow rebuild overwrote a newer epoch");
}

#[test]
fn retired_epochs_are_dropped_once_unpinned_under_load() {
    let spec = PipelineSpec::default().with_seed(55).with_machines(2);
    let service = ServiceBuilder::new(epoch_graph(0)).spec(spec).build().expect("build");

    let pinned = service.snapshot();
    let weak0 = pinned.downgrade();
    let weak1;
    {
        // Pin epoch 1 only inside this scope.
        service.rebuild_blocking(epoch_graph(1)).expect("rebuild 1");
        let transient = service.snapshot();
        assert_eq!(transient.epoch(), 1);
        weak1 = transient.downgrade();
        service.rebuild_blocking(epoch_graph(2)).expect("rebuild 2");
        assert!(weak1.upgrade().is_some(), "epoch 1 still pinned by `transient`");
    }
    // Epoch 1 lost its last pin when `transient` dropped; epoch 0 is still
    // pinned; epoch 2 is current.
    assert!(weak1.upgrade().is_none(), "unpinned retired epoch 1 must be freed");
    assert!(weak0.upgrade().is_some(), "epoch 0 is still pinned");
    assert_eq!(pinned.epoch(), 0);
    drop(pinned);
    assert!(weak0.upgrade().is_none(), "epoch 0 must be freed once its snapshot drops");
    assert_eq!(service.current_epoch(), 2);
}
