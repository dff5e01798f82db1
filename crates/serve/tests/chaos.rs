//! Chaos suite: deterministic failpoint schedules driven through the
//! serving stack, under concurrent readers, asserting the standing
//! invariants of the degradation state machine:
//!
//! 1. **readers never panic** — every injected failure is absorbed by the
//!    write path; snapshots keep answering in every health state;
//! 2. **published epochs stay byte-identical to their oracle** — a failed
//!    batch or persist changes nothing, a failed fold keeps its batch as a
//!    journal-epoch, and every accepted batch changes exactly what a
//!    from-scratch build over the accepted edges would;
//! 3. **the service converges back to `Healthy` once faults stop** — via
//!    the next insert, which retries the fold, or an explicit rebuild when
//!    it has degraded all the way to `ReadOnly`.
//!
//! The fault registry is process-global, so every test here serializes
//! through [`FaultSession`] and leaves the registry disarmed and the
//! service quiesced (`Healthy`, no rebuild in flight) on exit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ampc::rng::{derive_seed, SplitMix64};
use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::generators::random_forest;
use ampc_graph::{reference_components, Graph, VertexId};
use ampc_query::{snapshot, ComponentIndex, Query};
use ampc_serve::fault::{self, FaultAction, Site};
use ampc_serve::{
    BootSource, HealthState, IncidentOp, JournalBudget, ServeError, ServiceBuilder, ServiceHandle,
    SnapshotError, MAX_CONSECUTIVE_FAILURES, MAX_INCIDENTS,
};

/// The failpoints with production call sites (everything but `test.probe`).
const PROD_SITES: [Site; 7] = [
    Site::RebuildPipeline,
    Site::CompactPublish,
    Site::JournalBuild,
    Site::PersistPreTmp,
    Site::PersistPreRename,
    Site::PersistPreDirSync,
    Site::SnapshotLoad,
];

/// Serializes fault-armed tests (the registry is process-global) and
/// guarantees a disarmed registry on entry and exit, panic included.
struct FaultSession {
    _guard: MutexGuard<'static, ()>,
}

impl FaultSession {
    fn begin() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        fault::disarm_all();
        fault::reset_counters();
        FaultSession { _guard: guard }
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

fn spec(seed: u64) -> PipelineSpec {
    PipelineSpec::default().with_seed(seed).with_machines(4)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ampc_chaos_{tag}_{}.snap", std::process::id()))
}

/// Removes `path` plus any `.tmp.*` staging litter injected panics left
/// next to it.
fn clean_snapshot_files(path: &Path) {
    let _ = std::fs::remove_file(path);
    let (Some(dir), Some(stem)) = (path.parent(), path.file_stem()) else { return };
    let stem = stem.to_string_lossy().into_owned();
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.filter_map(Result::ok) {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with(&stem) && name.contains(".tmp.") {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

fn oracle_index(n: usize, edges: &[(VertexId, VertexId)]) -> ComponentIndex {
    ComponentIndex::build(&reference_components(&Graph::from_edges(n, edges)))
}

/// Full-algebra byte-identity check of the current epoch against a
/// from-scratch build over `edges`.
fn assert_oracle(service: &ServiceHandle, n: usize, edges: &[(VertexId, VertexId)], ctx: &str) {
    let oracle = oracle_index(n, edges);
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
    for _ in 0..100 {
        let (u, v) = (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId);
        assert_eq!(
            engine.answer(Query::Connected(u, v)),
            oracle.connected(u, v) as u64,
            "{ctx}: Connected({u},{v})"
        );
    }
    for k in 1..=(oracle.num_components() as u32 + 1) {
        assert_eq!(
            engine.answer(Query::TopKSize(k)),
            oracle.kth_largest_size(k as usize) as u64,
            "{ctx}: TopKSize({k})"
        );
    }
}

/// Drives the state machine back to `Healthy` with all faults disarmed:
/// `Degraded` → insert once (an empty batch), which retries the fold;
/// `ReadOnly` → the operator lever, an explicit rebuild over the accepted
/// edges. Returning means the service is quiesced (no rebuild in flight).
fn recover_to_healthy(service: &ServiceHandle, n: usize, edges: &[(VertexId, VertexId)]) {
    match service.health().state {
        HealthState::Healthy => {}
        HealthState::Degraded => {
            let r = service.insert_edges(&[]).expect("an insert with faults disarmed lands");
            assert!(r.compacted, "a Degraded insert retries the fold");
        }
        HealthState::ReadOnly => {
            service
                .rebuild_blocking(Graph::from_edges(n, edges))
                .expect("recovery rebuild with faults disarmed must succeed");
        }
    }
    assert_eq!(service.health().state, HealthState::Healthy, "service did not recover");
}

/// An edge connecting two currently-distinct components, if any remain.
fn bridge_edge(n: usize, edges: &[(VertexId, VertexId)]) -> Option<(VertexId, VertexId)> {
    let labels = reference_components(&Graph::from_edges(n, edges));
    let first = labels.0[0];
    (1..n).find(|&v| labels.0[v] != first).map(|v| (0, v as VertexId))
}

// ---------------------------------------------------------------------------
// Deterministic state-machine walks
// ---------------------------------------------------------------------------

#[test]
fn degradation_walks_healthy_degraded_readonly_and_recovers() {
    let _s = FaultSession::begin();
    let n = 120;
    let g = random_forest(n, 6, 31);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(31))
        .journal_budget(JournalBudget::new(0))
        .build()
        .expect("build");

    // Every fold fails at its publish seam until we disarm.
    fault::arm(Site::CompactPublish, FaultAction::Error, 0, u64::MAX);

    // Strike 1: the over-budget insert folds, the fold fails, and the batch
    // lands as a journal-epoch anyway.
    let r = service.insert_edges(&[(0, (n - 1) as VertexId)]).expect("insert");
    assert!(!r.compacted);
    assert_eq!(r.epoch, service.current_epoch());
    edges.push((0, (n - 1) as VertexId));
    let h = service.health();
    assert_eq!(h.state, HealthState::Degraded);
    assert_eq!(h.consecutive_failures, 1);
    assert_oracle(&service, n, &edges, "journal epoch of a failed fold");

    // Strike 2: Degraded keeps accepting inserts — the journal path is
    // unaffected — and every one retries the fold.
    let bridge = bridge_edge(n, &edges).expect("components remain");
    let r = service.insert_edges(&[bridge]).expect("degraded insert");
    assert!(!r.compacted);
    edges.push(bridge);
    assert_oracle(&service, n, &edges, "degraded journal epoch");
    assert_eq!(service.health().consecutive_failures, 2);
    assert_eq!(service.health().state, HealthState::Degraded);

    // Strikes 3 to MAX_CONSECUTIVE_FAILURES - 1: each empty insert retries
    // the fold, fails again, and still lands.
    for strike in 3..MAX_CONSECUTIVE_FAILURES {
        service.insert_edges(&[]).expect("a Degraded insert lands");
        assert_eq!(service.health().consecutive_failures, strike);
        assert_eq!(service.health().state, HealthState::Degraded);
        assert_oracle(&service, n, &edges, &format!("degraded epoch after strike {strike}"));
    }

    // The last strike: the state machine gives up — ReadOnly.
    service.insert_edges(&[]).expect("the last strike's batch still lands");
    assert_eq!(service.health().state, HealthState::ReadOnly);
    assert_eq!(service.health().consecutive_failures, MAX_CONSECUTIVE_FAILURES);

    // Inserts are refused, reads keep serving the last published epoch.
    let err = service.insert_edges(&[(1, 2)]).expect_err("read-only refuses writes");
    assert_eq!(err, ServeError::ReadOnly);
    assert_oracle(&service, n, &edges, "read-only still serves");

    let strikes = MAX_CONSECUTIVE_FAILURES as u64;
    let h = service.health();
    assert_eq!(h.total_incidents, strikes);
    assert_eq!(h.incidents.len() as u64, strikes);
    assert!(h.incidents.iter().all(|i| i.op == IncidentOp::Compaction));
    assert!(h
        .incidents
        .iter()
        .all(|i| i.error == ServeError::Injected { site: "compact.publish" }));
    assert!(h.incidents.windows(2).all(|w| w[0].seq < w[1].seq));

    // The operator lever: an explicit successful rebuild restores Healthy.
    fault::disarm_all();
    service.rebuild_blocking(Graph::from_edges(n, &edges)).expect("recovery rebuild");
    let h = service.health();
    assert_eq!(h.state, HealthState::Healthy);
    assert_eq!(h.consecutive_failures, 0);
    assert_eq!(h.total_incidents, strikes, "recovery clears state, not history");
    let r = service.insert_edges(&[(2, 3)]).expect("writes restored");
    assert!(r.compacted, "a budget of 0 folds every insert");
    edges.push((2, 3));
    assert_oracle(&service, n, &edges, "post-recovery epoch");
    recover_to_healthy(&service, n, &edges);
}

#[test]
fn incident_log_is_bounded_but_counts_everything() {
    let _s = FaultSession::begin();
    let n = 80;
    let g = random_forest(n, 4, 32);
    let base_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(32))
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");

    // Inserts stop recording once the service turns ReadOnly, but a failed
    // explicit rebuild is recorded in every state, so MAX_INCIDENTS + 2
    // failed rebuilds reach eviction twice.
    fault::arm(Site::RebuildPipeline, FaultAction::Error, 0, u64::MAX);
    let total = MAX_INCIDENTS as u64 + 2;
    for i in 0..total {
        let err = service.rebuild_blocking(Graph::from_edges(n, &base_edges));
        assert_eq!(err, Err(ServeError::Injected { site: "rebuild.pipeline" }));
        let h = service.health();
        assert_eq!(h.total_incidents, i + 1);
        assert!(h.incidents.len() <= MAX_INCIDENTS, "log must stay bounded");
    }
    let h = service.health();
    assert_eq!(h.state, HealthState::ReadOnly);
    assert_eq!(h.total_incidents, total);
    assert_eq!(h.incidents.len(), MAX_INCIDENTS);
    // Oldest evicted first: the retained tail is the last MAX_INCIDENTS seqs.
    let seqs: Vec<u64> = h.incidents.iter().map(|i| i.seq).collect();
    assert_eq!(seqs, (3..=total).collect::<Vec<_>>());
    assert!(h.incidents.iter().all(|i| i.op == IncidentOp::Rebuild));
    // Stamps come from the process-monotonic clock: never decreasing in seq.
    assert!(h.incidents.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    assert_eq!(service.current_epoch(), 0, "a failed rebuild publishes nothing");
    fault::disarm_all();
    recover_to_healthy(&service, n, &base_edges);
    assert_eq!(service.health().total_incidents, total, "recovery clears state, not history");
}

#[test]
fn journal_build_failure_is_atomic_and_recoverable() {
    let _s = FaultSession::begin();
    let n = 100;
    let g = random_forest(n, 5, 33);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(33))
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");

    let bridge = bridge_edge(n, &edges).expect("components remain");
    let epoch_before = service.current_epoch();

    fault::arm(Site::JournalBuild, FaultAction::Error, 0, 1);
    let err = service.insert_edges(&[bridge]).expect_err("armed journal build");
    assert_eq!(err, ServeError::Injected { site: "journal.build" });

    // Atomic rollback: nothing published, nothing half-applied.
    assert_eq!(service.current_epoch(), epoch_before);
    assert_oracle(&service, n, &edges, "epoch unchanged after failed batch");
    assert_eq!(service.health().state, HealthState::Degraded);

    // The *same* batch succeeds once the fault clears — the union-find was
    // not corrupted by the failed attempt. Being Degraded, it also retries
    // the fold, and a landed fold is the other recovery edge back to
    // Healthy.
    let r = service.insert_edges(&[bridge]).expect("retry of the failed batch");
    assert_eq!(r.new_merges, 1);
    assert!(r.compacted, "a Degraded insert retries the fold");
    assert_eq!(service.health().state, HealthState::Healthy);
    edges.push(bridge);
    assert_oracle(&service, n, &edges, "retried batch, folded");
}

#[test]
fn journal_build_fires_iff_the_resulting_journal_carries_a_merge() {
    let _s = FaultSession::begin();
    let n = 100;
    let g = random_forest(n, 5, 36);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(36))
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");
    let inside = edges[0];
    let bridge = bridge_edge(n, &edges).expect("components remain");

    // On the bare base a batch that merges nothing has no journal to
    // build: the armed site is not reached and the epoch publishes.
    fault::arm(Site::JournalBuild, FaultAction::Error, 0, u64::MAX);
    let r = service.insert_edges(&[inside, (3, 3)]).expect("nothing to build");
    assert_eq!((r.epoch, r.new_merges, r.journal_merges), (1, 0, 0));
    assert_eq!(fault::fired(Site::JournalBuild), 0);
    fault::disarm_all();
    edges.extend([inside, (3, 3)]);

    // Once the journal carries a merge every batch reaches the site, the
    // ones that only share the previous view included.
    service.insert_edges(&[bridge]).expect("merge");
    edges.push(bridge);
    fault::arm(Site::JournalBuild, FaultAction::Error, 0, 1);
    let err = service.insert_edges(&[bridge]).expect_err("armed journal build");
    assert_eq!(err, ServeError::Injected { site: "journal.build" });
    assert_eq!(service.current_epoch(), 2);
    assert_oracle(&service, n, &edges, "epoch unchanged after the refused repeat");
    // The refused batch left the service Degraded, so the repeat that
    // lands once the fault clears also folds.
    let r = service.insert_edges(&[bridge]).expect("repeat once the fault clears");
    assert_eq!((r.epoch, r.new_merges, r.compacted), (3, 0, true));
    edges.push(bridge);
    assert_oracle(&service, n, &edges, "folded repeat");
}

#[test]
fn insert_path_panic_leaves_consistent_state() {
    let _s = FaultSession::begin();
    let n = 90;
    let g = random_forest(n, 4, 34);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(34))
        .journal_budget(JournalBudget::unbounded())
        .build()
        .expect("build");

    let bridge = bridge_edge(n, &edges).expect("components remain");
    let epoch_before = service.current_epoch();

    // A panic on the caller's insert thread (the harshest version of the
    // old `expect`): the stream mutex is poisoned mid-call, but all
    // mutations happen after the fallible steps, so recovery sees
    // consistent state.
    fault::arm(Site::JournalBuild, FaultAction::Panic, 0, 1);
    let unwound = catch_unwind(AssertUnwindSafe(|| service.insert_edges(&[bridge])));
    assert!(unwound.is_err(), "armed panic must fire");

    assert_eq!(service.current_epoch(), epoch_before);
    assert_oracle(&service, n, &edges, "state after caller panic");
    // The service is fully operational: same batch, clean pass.
    let r = service.insert_edges(&[bridge]).expect("insert after poison recovery");
    assert_eq!(r.new_merges, 1);
    edges.push(bridge);
    assert_oracle(&service, n, &edges, "post-panic journal epoch");
}

#[test]
fn fold_panic_leaves_consistent_state() {
    let _s = FaultSession::begin();
    let n = 110;
    let g = random_forest(n, 5, 35);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(35))
        .journal_budget(JournalBudget::new(0))
        .build()
        .expect("build");

    let bridge = bridge_edge(n, &edges).expect("components remain");
    let epoch_before = service.current_epoch();

    // A panic at the fold's publish seam unwinds out of the insert before
    // anything is assigned or published: like a journal-build panic, the
    // batch is refused and the state is as it was.
    fault::arm(Site::CompactPublish, FaultAction::Panic, 0, 1);
    let unwound = catch_unwind(AssertUnwindSafe(|| service.insert_edges(&[bridge])));
    assert!(unwound.is_err(), "armed panic must fire");

    assert_eq!(service.current_epoch(), epoch_before);
    assert_oracle(&service, n, &edges, "state after fold panic");
    let h = service.health();
    assert_eq!((h.state, h.total_incidents), (HealthState::Healthy, 0));
    // Same batch, clean pass: it folds.
    let r = service.insert_edges(&[bridge]).expect("insert after poison recovery");
    assert_eq!((r.new_merges, r.compacted), (1, true));
    assert!(!service.snapshot().is_journal());
    edges.push(bridge);
    assert_oracle(&service, n, &edges, "post-panic folded base");
}

#[test]
fn rebuild_panics_are_recorded_not_lost() {
    let _s = FaultSession::begin();
    let n = 110;
    let g = random_forest(n, 5, 35);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g).spec(spec(35)).build().expect("build");

    // An explicit rebuild whose pipeline panics: typed error to the
    // caller, incident in the log, service Degraded but serving.
    fault::arm(Site::RebuildPipeline, FaultAction::Panic, 0, 1);
    let err = service.rebuild_blocking(Graph::from_edges(n, &edges)).expect_err("armed panic");
    assert_eq!(err, ServeError::RebuildPanicked);
    let h = service.health();
    assert_eq!(h.state, HealthState::Degraded);
    assert_eq!(h.incidents.last().map(|i| i.op), Some(IncidentOp::Rebuild));
    assert_eq!(h.incidents.last().map(|i| &i.error), Some(&ServeError::RebuildPanicked));
    assert_oracle(&service, n, &edges, "serving through a panicked rebuild");

    fault::disarm_all();
    service
        .rebuild_blocking(Graph::from_edges(n, &edges))
        .expect("a panicked rebuild leaves the next one free to publish");
    assert_eq!(service.health().state, HealthState::Healthy);
    assert_oracle(&service, n, &edges, "post-panic rebuild");
}

// ---------------------------------------------------------------------------
// Crash-mid-persist kill matrix (satellite: torn-write coverage)
// ---------------------------------------------------------------------------

#[test]
fn crash_mid_persist_leaves_old_or_new_file_never_torn() {
    let _s = FaultSession::begin();
    let n = 100;
    let old_graph = random_forest(n, 7, 36);
    let new_edges: Vec<(VertexId, VertexId)> = {
        let mut e: Vec<(VertexId, VertexId)> = old_graph.edges().collect();
        e.push((0, 99));
        e
    };
    let old_service = ServiceBuilder::new(old_graph).spec(spec(36)).build().expect("build old");
    let new_service = ServiceBuilder::new(Graph::from_edges(n, &new_edges))
        .spec(spec(36))
        .build()
        .expect("build new");
    let old_snap = old_service.snapshot();
    let new_snap = new_service.snapshot();

    let stages = [
        // (site, the write is killed before any rename, so the old file survives)
        (Site::PersistPreTmp, true),
        (Site::PersistPreRename, true),
        // killed after the rename: the new file is already in place.
        (Site::PersistPreDirSync, false),
    ];
    for (site, expect_old) in stages {
        for action in [FaultAction::Error, FaultAction::Panic] {
            let path = tmp_path(&format!("kill_{}_{action:?}", site.name().replace('.', "_")));
            clean_snapshot_files(&path);
            old_service.persist(&path).expect("baseline persist");

            fault::arm(site, action, 0, 1);
            let attempt = catch_unwind(AssertUnwindSafe(|| new_service.persist(&path)));
            match (action, attempt) {
                (FaultAction::Error, Ok(res)) => {
                    assert!(
                        matches!(res, Err(SnapshotError::Io(_))),
                        "killed persist must surface a typed error at {}",
                        site.name()
                    );
                }
                (FaultAction::Panic, Err(_)) => {} // simulated crash: unwound past cleanup
                (a, r) => panic!("unexpected outcome for {a:?} at {}: {r:?}", site.name()),
            }

            // The invariant: whatever the kill point, the destination loads
            // as exactly one complete snapshot — the old one before the
            // rename, the new one after. Never torn, never absent.
            let loaded = snapshot::load(&path).expect("destination must stay loadable");
            if expect_old {
                assert_eq!(loaded.index, *old_snap.index(), "pre-rename kill keeps old file");
            } else {
                assert_eq!(loaded.index, *new_snap.index(), "post-rename kill shows new file");
            }

            // Stale litter from the crash (pre-rename panic leaves a tmp
            // file) never breaks a later persist or load.
            new_service.persist(&path).expect("persist over crash litter");
            let reloaded = snapshot::load(&path).expect("load after recovery persist");
            assert_eq!(reloaded.index, *new_snap.index());
            clean_snapshot_files(&path);
        }
    }
}

// ---------------------------------------------------------------------------
// Boot fallback chain
// ---------------------------------------------------------------------------

#[test]
fn boot_fallback_chain_survives_truncation_and_load_faults() {
    let _s = FaultSession::begin();
    let n = 150;
    let g = random_forest(n, 6, 37);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let path = tmp_path("bootchain");
    clean_snapshot_files(&path);

    let origin = ServiceBuilder::new(g.clone()).spec(spec(37)).build().expect("build");
    origin.persist(&path).expect("persist");

    // Truncate the snapshot: strict boot fails typed, fallback boot serves.
    let bytes = std::fs::read(&path).expect("read snapshot");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let strict = ServiceBuilder::from_snapshot(&path);
    assert!(strict.is_err(), "truncated snapshot must not boot strictly");
    let (fallback, source) = ServiceBuilder::new(g.clone())
        .spec(spec(37))
        .from_snapshot_or_rebuild(&path)
        .expect("fallback boot");
    assert_eq!(source, BootSource::RebuildFallback);
    assert_oracle(&fallback, n, &edges, "fallback-boot service");
    let h = fallback.health();
    assert_eq!(h.state, HealthState::Healthy, "fallback boot is healthy, incident logged");
    assert_eq!(h.incidents.last().map(|i| i.op), Some(IncidentOp::Boot));

    // Repair the file, then inject an i/o fault at the load seam itself.
    std::fs::write(&path, &bytes).expect("restore snapshot");
    fault::arm(Site::SnapshotLoad, FaultAction::Error, 0, 1);
    assert!(ServiceBuilder::from_snapshot(&path).is_err(), "injected load fault");
    fault::arm(Site::SnapshotLoad, FaultAction::Error, 0, 1);
    let (fallback2, source2) = ServiceBuilder::new(g.clone())
        .spec(spec(37))
        .from_snapshot_or_rebuild(&path)
        .expect("fallback boot under load fault");
    assert_eq!(source2, BootSource::RebuildFallback);
    assert_oracle(&fallback2, n, &edges, "fallback under load fault");

    // Faults cleared: the chain prefers the snapshot again.
    fault::disarm_all();
    let (replica, source3) =
        ServiceBuilder::new(g).spec(spec(37)).from_snapshot_or_rebuild(&path).expect("snap boot");
    assert_eq!(source3, BootSource::Snapshot);
    assert_eq!(replica.health().total_incidents, 0);
    assert_oracle(&replica, n, &edges, "snapshot-boot replica");
    clean_snapshot_files(&path);
}

// ---------------------------------------------------------------------------
// Coverage driver + the seeded chaos matrix
// ---------------------------------------------------------------------------

/// Arms `site` and drives the one operation that traverses it. Leaves the
/// used service quiesced.
fn drive_site_once(site: Site) {
    let fired_before = fault::fired(site);
    let n = 60;
    let g = random_forest(n, 4, 99);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let budget = if site == Site::CompactPublish {
        JournalBudget::new(0)
    } else {
        JournalBudget::unbounded()
    };
    let service =
        ServiceBuilder::new(g).spec(spec(99)).journal_budget(budget).build().expect("build");
    let path = tmp_path(&format!("drive_{}", site.name().replace('.', "_")));
    clean_snapshot_files(&path);

    fault::arm(site, FaultAction::Error, 0, 1);
    let mut edges = edges;
    match site {
        Site::RebuildPipeline => {
            let err = service.rebuild_blocking(Graph::from_edges(n, &edges));
            assert_eq!(err, Err(ServeError::Injected { site: "rebuild.pipeline" }));
        }
        Site::CompactPublish => {
            let bridge = bridge_edge(n, &edges).expect("components remain");
            let r = service.insert_edges(&[bridge]).expect("a failed fold keeps the batch");
            assert!(!r.compacted);
            edges.push(bridge);
        }
        Site::JournalBuild => {
            let bridge = bridge_edge(n, &edges).expect("components remain");
            let err = service.insert_edges(&[bridge]);
            assert_eq!(err, Err(ServeError::Injected { site: "journal.build" }));
        }
        Site::PersistPreTmp | Site::PersistPreRename | Site::PersistPreDirSync => {
            let res = service.persist(&path);
            assert!(matches!(res, Err(SnapshotError::Io(_))));
        }
        Site::SnapshotLoad => {
            // The load seam fires before the file is even opened.
            assert!(snapshot::load(&path).is_err());
        }
        Site::TestProbe => unreachable!("no production call site"),
        Site::NetAccept | Site::NetRead | Site::NetWrite => {
            unreachable!("net seams live in ampc-net; exercised by its chaos suite")
        }
    }
    assert!(fault::fired(site) > fired_before, "{} did not fire", site.name());
    fault::disarm_all();
    recover_to_healthy(&service, n, &edges);
    clean_snapshot_files(&path);
}

#[test]
fn every_fault_class_fires_and_is_survived() {
    let _s = FaultSession::begin();
    for site in PROD_SITES {
        drive_site_once(site);
        assert!(fault::fired(site) >= 1, "{} must have fired", site.name());
    }
}

/// One seeded schedule: a reader pool hammering snapshots while the main
/// thread inserts, persists and loads — with a rotating failpoint armed
/// each round.
fn run_chaos_schedule(seed: u64, rounds: usize) {
    let mut rng = SplitMix64::new(derive_seed(&[0xC8A05, seed]));
    let n = 120 + (seed as usize % 4) * 40;
    let trees = 6 + (seed as usize % 5);
    let g = random_forest(n, trees, seed);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let service = ServiceBuilder::new(g)
        .spec(spec(seed))
        .journal_budget(JournalBudget::new(2))
        .build()
        .expect("build");

    // Reader pool: 1–3 threads, never blocked, never panicking, and every
    // answer internally consistent within its pinned epoch.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..(1 + seed as usize % 3))
        .map(|r| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(derive_seed(&[seed, r as u64]));
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    let eng = snap.engine();
                    let nn = snap.graph_size().0 as u64;
                    let u = rng.next_below(nn) as VertexId;
                    let v = rng.next_below(nn) as VertexId;
                    assert_eq!(eng.answer(Query::Connected(u, u)), 1);
                    let cu = eng.answer(Query::ComponentOf(u));
                    assert_eq!(eng.answer(Query::ComponentOf(u)), cu, "same-epoch determinism");
                    if eng.answer(Query::Connected(u, v)) == 1 {
                        assert_eq!(eng.answer(Query::ComponentOf(v)), cu);
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let path = tmp_path(&format!("matrix_{seed}"));
    clean_snapshot_files(&path);

    for round in 0..rounds {
        // Lineage refresh: once everything is one component the journal
        // path has nothing left to merge — rebuild onto a fresh forest.
        if bridge_edge(n, &edges).is_none() {
            fault::disarm_all();
            recover_to_healthy(&service, n, &edges);
            let g2 = random_forest(n, trees, derive_seed(&[seed, round as u64]));
            edges = g2.edges().collect();
            service.rebuild_blocking(g2).expect("lineage refresh");
        }

        let site = PROD_SITES[(round + seed as usize) % PROD_SITES.len()];
        // Publish-side and insert-path panics get dedicated deterministic
        // tests; the matrix panics where a crash is the realistic failure
        // (pipeline threads, persist i/o).
        let panic_ok = matches!(
            site,
            Site::RebuildPipeline
                | Site::PersistPreTmp
                | Site::PersistPreRename
                | Site::PersistPreDirSync
        );
        let action = if panic_ok && rng.next_below(3) == 0 {
            FaultAction::Panic
        } else {
            FaultAction::Error
        };
        fault::arm(site, action, 0, 1);

        // Insert a batch: random edges plus a guaranteed merge when one
        // exists (so the journal path and budget trigger stay exercised).
        let mut batch: Vec<(VertexId, VertexId)> = (0..1 + rng.next_below(3))
            .map(|_| (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId))
            .collect();
        if let Some(bridge) = bridge_edge(n, &edges) {
            batch.push(bridge);
        }
        match service.insert_edges(&batch) {
            Ok(_) => edges.extend_from_slice(&batch),
            Err(ServeError::ReadOnly) => {} // handled by the bailout below
            Err(_) => {}                    // injected: batch rolled back
        }

        // Persist probe (an armed persist site may kill it — including by
        // simulated crash) and load probe (never panics, typed error or a
        // complete snapshot).
        let _ = catch_unwind(AssertUnwindSafe(|| service.persist(&path)));
        if let Ok(loaded) = snapshot::load(&path) {
            assert!(loaded.index.num_vertices() > 0, "loaded snapshot must be complete");
        }

        // Insert once more: a Degraded service retries the fold (an armed
        // site may still refuse the empty batch; nothing to undo then).
        let _ = service.insert_edges(&[]);

        // ReadOnly exactly when the strike count reached the limit; then
        // pull the operator lever and keep going.
        let h = service.health();
        let spent = h.consecutive_failures >= MAX_CONSECUTIVE_FAILURES;
        assert_eq!(h.state == HealthState::ReadOnly, spent, "seed {seed} round {round}: {h:?}");
        if spent {
            fault::disarm_all();
            service.rebuild_blocking(Graph::from_edges(n, &edges)).expect("bailout rebuild");
        }

        // The standing invariant, checked every round: the published epoch
        // answers byte-identically to the accepted-edge oracle, whatever
        // just failed.
        assert_oracle(&service, n, &edges, &format!("seed {seed} round {round}"));
    }

    // Faults stop; the service must converge to Healthy and still match.
    fault::disarm_all();
    recover_to_healthy(&service, n, &edges);
    assert_eq!(service.health().state, HealthState::Healthy, "seed {seed} must end Healthy");
    assert_oracle(&service, n, &edges, &format!("seed {seed} converged"));

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let reads = r.join().expect("reader must never panic");
        assert!(reads > 0, "reader made progress under chaos");
    }
    clean_snapshot_files(&path);
}

#[test]
fn chaos_matrix_seeded_schedules_converge_healthy() {
    let _s = FaultSession::begin();
    for seed in 1..=8u64 {
        run_chaos_schedule(seed, 14);
    }
    // Acceptance: every fault class was hit somewhere in the matrix. The
    // rotation makes this overwhelmingly likely; the direct driver closes
    // the gap deterministically if a class was starved (e.g. disarmed by a
    // bailout before firing).
    for site in PROD_SITES {
        if fault::fired(site) == 0 {
            drive_site_once(site);
        }
        assert!(fault::fired(site) >= 1, "fault class {} never fired", site.name());
    }
}
