//! [`ServiceHandle`] and the shared state behind it: the read side
//! (`snapshot`), the journal-epoch write side (`insert_edges`), `persist`,
//! and the health probes (`health`, `tick`). Explicit rebuilds and
//! compactions are in [`super::rebuild`].
//!
//! **Journal-epochs** ([`ServiceHandle::insert_edges`]): a streaming edge
//! insertion can only *merge* components, so instead of re-running the
//! pipeline the service derives the next [`JournalView`] from the published
//! one and the batch's endpoint components ([`next_journal`], the one
//! freeze in this crate) and publishes it riding on the unchanged base —
//! `O(c + b log b)` for `c` components and `b` edges instead of an
//! `O(n + m)` rebuild; a batch that merges nothing shares the previous
//! view. Nothing on the write side mirrors the journal: the published epoch
//! is the state, so a failed batch has nothing to roll back. Snapshots of a
//! journal-epoch answer through a merge-aware engine (one extra array read
//! per id) and are byte-identical to a from-scratch build over the merged
//! graph (see `ampc_query::journal` for the argument). Once the journal
//! outgrows its [`JournalBudget`], the service *compacts*: a background
//! pipeline rebuild over the merged graph, with insertions accepted
//! throughout and replayed onto the new base when it lands.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::{Graph, Labeling, VertexId};
use ampc_obs::fault::{self, Site};
use ampc_obs::{Clock, CounterId, GaugeId, HistId, TraceKind};
use ampc_query::{snapshot, ComponentIndex, JournalView, SnapshotError};

use super::error::ServeError;
use super::health::{HealthInner, HealthReport, HealthState, IncidentOp, RetryPolicy};
use super::published::{BaseIndex, IndexSnapshot, PublishedIndex};
use super::rebuild::{start_compaction_locked, RebuildTickets};
use crate::epoch::EpochCell;

/// When a journal grows past this budget, the service falls back to a full
/// background rebuild (compaction) over the merged graph. Until the
/// compaction lands, insertions keep being accepted and published as
/// journal-epochs — the budget bounds staleness cost, not availability.
///
/// The budget counts edges only. It used to carry a merge count as well
/// (default 4 Ki merges), from when every insert re-froze the whole journal;
/// journal-epochs are derived since PR 23 — a publish is `O(c + b log b)`
/// (components, batch edges) and a read is one extra array access whatever
/// the journal carries — so nothing grows with merges, every caller set
/// that limit to `usize::MAX`, and it went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalBudget {
    /// Compact once this many inserted edges have accumulated on one base.
    pub max_edges: usize,
}

impl JournalBudget {
    /// A budget with an explicit limit.
    pub fn new(max_edges: usize) -> Self {
        JournalBudget { max_edges }
    }

    /// Never compact automatically (tests and benchmarks that want to
    /// observe pure journal behavior).
    pub fn unbounded() -> Self {
        JournalBudget { max_edges: usize::MAX }
    }

    pub(super) fn exceeded_by(&self, journal_edges: usize) -> bool {
        journal_edges > self.max_edges
    }
}

impl Default for JournalBudget {
    /// 64 Ki inserted edges: not there to keep inserts cheap (see above), it
    /// bounds the pending edges a compaction re-reads and replays.
    fn default() -> Self {
        JournalBudget { max_edges: 1 << 16 }
    }
}

/// What one [`ServiceHandle::insert_edges`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// The journal-epoch this batch was published as.
    pub epoch: u64,
    /// Edges accepted from this batch (the whole batch, once validated).
    pub applied: usize,
    /// Component merges this batch caused.
    pub new_merges: usize,
    /// Total inserted edges accumulated on the current base.
    pub journal_edges: usize,
    /// Total merges the published journal carries.
    pub journal_merges: usize,
    /// Connected components after this batch.
    pub components: usize,
    /// True iff this batch pushed the journal over budget and kicked off a
    /// background compaction rebuild.
    pub compaction_started: bool,
}

/// What one [`ServiceHandle::persist`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistReport {
    /// The epoch that was captured.
    pub epoch: u64,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// True iff the captured epoch carried journal merges (they were
    /// materialized into the persisted index, which equals a full rebuild
    /// of the merged graph byte for byte).
    pub journal: bool,
}

/// Mutable write-side state: the current base graph and the edges inserted
/// on top of it. Their merges live only in the published epoch's journal.
/// Guarded by one mutex; the read path never touches it.
#[derive(Debug)]
pub(super) struct StreamState {
    /// The graph the current base index was built from.
    pub(super) graph: Graph,
    /// Edges accepted since the current base was published.
    pub(super) pending: Vec<(VertexId, VertexId)>,
    /// The base every journal-epoch publishes against.
    pub(super) base: Arc<BaseIndex>,
    /// False when the service was booted from a snapshot: `graph` is then
    /// a vertex-only placeholder (a snapshot does not carry edges), so
    /// budget-triggered compaction — which re-reads the base edges — must
    /// not run until an explicit rebuild installs a real graph.
    pub(super) has_base_graph: bool,
    /// A compaction rebuild is in flight (don't start another).
    pub(super) compacting: bool,
    /// Bumped by every full rebuild that lands; a compaction that started
    /// against an older generation abandons instead of clobbering.
    pub(super) generation: u64,
    /// Degradation state machine + bounded incident log. Guarded by the
    /// stream lock like everything else here: every transition happens on
    /// a path that already holds it.
    pub(super) health: HealthInner,
}

/// The shared state behind every [`ServiceHandle`] clone.
#[derive(Debug)]
pub(super) struct ConnectivityService {
    pub(super) cell: EpochCell<PublishedIndex>,
    pub(super) spec: PipelineSpec,
    pub(super) budget: JournalBudget,
    pub(super) policy: RetryPolicy,
    pub(super) clock: Arc<dyn Clock>,
    pub(super) stream: Mutex<StreamState>,
    pub(super) tickets: RebuildTickets,
}

impl ConnectivityService {
    /// The retry schedule and the incident log count milliseconds.
    pub(super) fn now_ms(&self) -> u64 {
        self.clock.now_ns() / 1_000_000
    }

    /// The one publish step after epoch 0: swaps `base` (plus the journal
    /// riding on it) in as the next epoch and announces it. Callers hold
    /// the stream lock, so journal and rebuild publishes form a single
    /// total order.
    pub(super) fn publish(
        &self,
        base: &Arc<BaseIndex>,
        journal: Option<Arc<JournalView>>,
        inserted_edges: usize,
    ) -> u64 {
        let is_journal = journal.is_some();
        let epoch = self.cell.publish_with(|epoch| {
            Arc::new(PublishedIndex { epoch, base: Arc::clone(base), journal, inserted_edges })
        });
        announce_epoch(epoch, is_journal, inserted_edges);
        epoch
    }
}

/// What every published epoch — epoch 0 included — tells the metrics
/// registry and the trace ring.
pub(super) fn announce_epoch(epoch: u64, is_journal: bool, inserted_edges: usize) {
    ampc_obs::counter(CounterId::EpochsPublished).inc();
    ampc_obs::trace(TraceKind::EpochPublished, epoch, is_journal as u64);
    ampc_obs::gauge(GaugeId::JournalPendingEntries).set(inserted_edges as i64);
}

/// Locks the stream state, recovering from poison: the guarded state is
/// only ever mutated to a consistent snapshot before any point that can
/// panic (the next journal is built beside the published one and every
/// fallible step runs before the first field is assigned), so a poisoned
/// lock means an aborted writer, not torn state.
pub(super) fn lock_stream(stream: &Mutex<StreamState>) -> MutexGuard<'_, StreamState> {
    stream.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The one freeze in this crate: the journal after `edges` land on `prev`
/// (the journal already riding on `base`; `None` for the bare base). A
/// batch that merges nothing hands `prev` itself back — no copy, and still
/// no journal on a base that has none, so queries skip the remap read.
///
/// The [`Site::JournalBuild`] failpoint fires whenever the result carries
/// a merge. Nothing has been mutated by then, so an injected failure — or
/// a panic — leaves the published epoch and the stream state as they were.
pub(super) fn next_journal(
    prev: Option<&Arc<JournalView>>,
    base: &BaseIndex,
    edges: &[(VertexId, VertexId)],
) -> Result<Option<Arc<JournalView>>, ServeError> {
    let index = &base.index;
    let pairs = edges.iter().map(|&(u, v)| (index.component_of(u), index.component_of(v)));
    let journal = match JournalView::extend(index, prev.map(Arc::as_ref), pairs) {
        Some(next) => Some(Arc::new(next)),
        None => prev.cloned(),
    };
    if journal.is_some() {
        fault::check(Site::JournalBuild)?;
    }
    Ok(journal)
}

/// A clone-able handle to a connectivity service. Clones share the same
/// epoch cell: an epoch published through any handle is visible to
/// snapshots taken through every other.
#[derive(Clone, Debug)]
pub struct ServiceHandle {
    pub(super) service: Arc<ConnectivityService>,
}

impl ServiceHandle {
    /// Pins the current epoch: a read-lock held for one `Arc::clone`, so
    /// it waits for a publish's pointer swap and never for a rebuild's or
    /// an insertion's work. Call once per thread (or per request) and answer any
    /// number of queries against the returned snapshot.
    pub fn snapshot(&self) -> IndexSnapshot {
        IndexSnapshot { guard: self.service.cell.pin() }
    }

    /// The most recently published epoch number.
    pub fn current_epoch(&self) -> u64 {
        self.service.cell.epoch()
    }

    /// The spec every build and rebuild runs.
    pub fn spec(&self) -> &PipelineSpec {
        &self.service.spec
    }

    /// The budget past which insertions trigger a compaction rebuild.
    pub fn journal_budget(&self) -> JournalBudget {
        self.service.budget
    }

    /// A point-in-time copy of the degradation state machine: current
    /// [`HealthState`], failure streak, bounded incident log, and (when
    /// `Degraded`) time until the next compaction retry.
    pub fn health(&self) -> HealthReport {
        lock_stream(&self.service.stream).health.report(self.service.now_ms())
    }

    /// Drives the retry schedule without an insert: if the service is
    /// `Degraded`, the backoff has elapsed, and no compaction is in
    /// flight, start one. Returns `true` iff a retry compaction was
    /// started. Inserts drive the same schedule implicitly; call this
    /// from a maintenance loop when the write path may go quiet.
    pub fn tick(&self) -> bool {
        let service = &self.service;
        let mut st = lock_stream(&service.stream);
        let due = st.health.state == HealthState::Degraded
            && service.now_ms() >= st.health.retry_at_ms
            && !st.compacting
            && st.has_base_graph;
        if due {
            start_compaction_locked(service, &mut st);
        }
        due
    }

    /// Applies a batch of edge insertions to the current epoch and
    /// publishes the result as a **journal-epoch**: the published
    /// [`JournalView`] plus the batch's endpoint components give the next
    /// view in `O(components + batch log batch)`, no pipeline run; a batch
    /// that merges nothing still publishes its epoch and shares the
    /// previous view. Answers on the new epoch are byte-identical to a full
    /// rebuild over the merged graph.
    ///
    /// If the batch pushes the journal past the [`JournalBudget`], a
    /// background compaction rebuild starts (at most one at a time);
    /// insertions keep working and are replayed onto the new base when it
    /// lands.
    ///
    /// # Errors
    /// [`ServeError::VertexOutOfRange`] if any endpoint is `>= n` for the
    /// current graph, [`ServeError::ReadOnly`] when the state machine has
    /// given up on the write path, [`ServeError::Injected`] when the
    /// `journal.build` failpoint fires (also recorded in the incident
    /// log). The batch is atomic in every case: nothing is applied or
    /// published on error.
    pub fn insert_edges(&self, edges: &[(VertexId, VertexId)]) -> Result<InsertReport, ServeError> {
        let service = &self.service;
        let mut st = lock_stream(&service.stream);
        if st.health.state == HealthState::ReadOnly {
            return Err(ServeError::ReadOnly);
        }
        let n = st.graph.n();
        for &(u, v) in edges {
            let bad = if (u as usize) >= n {
                Some(u)
            } else if (v as usize) >= n {
                Some(v)
            } else {
                None
            };
            if let Some(vertex) = bad {
                return Err(ServeError::VertexOutOfRange { vertex, n });
            }
        }

        // The stream lock serialises every publish, so the published epoch
        // is this lineage's latest journal and it rides on `st.base`.
        let base = Arc::clone(&st.base);
        let prev = service.cell.pin().journal.clone();
        let journal_timer = ampc_obs::Timer::start(ampc_obs::hist(HistId::JournalBuildNs));
        let journal = match next_journal(prev.as_ref(), &base, edges) {
            Ok(j) => j,
            Err(e) => {
                let op = IncidentOp::JournalBuild;
                st.health.record_failure(&service.policy, service.now_ms(), op, e.clone());
                return Err(e);
            }
        };
        let build_ns = journal_timer.stop();
        let merges = journal.as_ref().map_or(0, |j| j.merges());
        let new_merges = merges - prev.map_or(0, |j| j.merges());
        ampc_obs::counter(CounterId::JournalBuilds).inc();
        ampc_obs::trace(TraceKind::JournalBuilt, merges as u64, build_ns);
        st.pending.extend_from_slice(edges);

        let components = base.index.num_components() - merges;
        let inserted_edges = st.pending.len();
        let publish_timer = ampc_obs::Timer::start(ampc_obs::hist(HistId::PublishNs));
        let epoch = service.publish(&base, journal, inserted_edges);
        publish_timer.stop();

        // Healthy: the journal budget decides. Degraded: the budget is
        // suspended ("widened") — the deterministic retry schedule decides
        // instead, so a failing compaction is re-attempted with backoff
        // rather than on every over-budget batch.
        let due = match st.health.state {
            HealthState::Healthy => service.budget.exceeded_by(st.pending.len()),
            HealthState::Degraded => service.now_ms() >= st.health.retry_at_ms,
            HealthState::ReadOnly => false,
        };
        let compaction_started = due && !st.compacting && st.has_base_graph;
        if compaction_started {
            start_compaction_locked(service, &mut st);
        }

        Ok(InsertReport {
            epoch,
            applied: edges.len(),
            new_merges,
            journal_edges: inserted_edges,
            journal_merges: merges,
            components,
            compaction_started,
        })
    }

    /// Persists the **currently published epoch** to `path` as a snapshot
    /// (write-to-temp + atomic rename: concurrent readers of the file see
    /// the old snapshot or the new one, never a torn write).
    ///
    /// The epoch is pinned first — exactly one published epoch is
    /// captured, even while insertions and rebuilds race this call. A
    /// journal-epoch is materialized at persist time: the journal's merges
    /// are folded into a fresh index that is byte-identical to a full
    /// rebuild of the merged graph, so a replica booted from the snapshot
    /// answers exactly like this epoch.
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<PersistReport, SnapshotError> {
        let snap = self.snapshot();
        let (n, m) = snap.graph_size();
        // Merged dense ids are themselves a labeling of the merged
        // partition; building from it reproduces a full rebuild byte for
        // byte (see `ampc_query::journal`).
        let merged = snap.journal().map(|journal| {
            let base = snap.index();
            let labeling = Labeling(
                (0..n as VertexId).map(|v| journal.resolve(base.component_of(v)) as u64).collect(),
            );
            (ComponentIndex::build(&labeling), labeling)
        });
        let (index, labeling) = match &merged {
            Some((index, labeling)) => (index, labeling),
            None => (snap.index(), snap.labeling()),
        };
        let algorithm = snap.algorithm().number();
        let bytes =
            snapshot::persist(path.as_ref(), index, labeling, n as u64, m as u64, algorithm)?;
        Ok(PersistReport { epoch: snap.epoch(), bytes, journal: snap.is_journal() })
    }
}
