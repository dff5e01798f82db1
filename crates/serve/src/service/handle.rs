//! [`ServiceHandle`] and the shared state behind it: the read side
//! (`snapshot`), the journal-epoch write side (`insert_edges`) with its
//! compaction, the explicit `rebuild_blocking`, `persist`, and the `health`
//! probe.
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
//! outgrows its [`JournalBudget`], the insert that overflows it *compacts*:
//! it folds the journal into a new base ([`ComponentIndex::fold`], `O(n)`,
//! no edges — the write side keeps none) and publishes that base as its own
//! epoch. `persist` writes the same fold.
//!
//! **Explicit rebuilds** ([`ServiceHandle::rebuild_blocking`]) run the
//! pipeline on the caller's thread with no lock held, then take the stream
//! lock to publish. A call returns only after its publish, so calls that do
//! not overlap publish in call order; calls that overlap publish in the
//! order they finish, each taking effect at its publish.
//!
//! **The published epoch is the state.** The service holds two locks: the
//! read lock over the published [`PublishedIndex`], which a snapshot takes
//! for one `Arc::clone` and a publish for one swap, and the stream lock,
//! which every publish — journal, fold or rebuild — holds and which guards
//! the health state machine. The current base, its journal and the
//! inserted-edge count are read from the published epoch itself, so the
//! epochs form one dense total order and nothing mirrors them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::{Graph, VertexId};
use ampc_obs::fault::{self, Site};
use ampc_obs::{CounterId, GaugeId, HistId, TraceKind};
#[cfg(doc)]
use ampc_query::ComponentIndex;
use ampc_query::{snapshot, JournalView, SnapshotError};

use super::error::ServeError;
use super::health::{HealthInner, HealthReport, HealthState, IncidentOp};
use super::published::{BaseIndex, PublishedIndex};

/// When the edges inserted on one base exceed this budget, the insert that
/// overflows it compacts: it folds the journal into a new base and
/// publishes that instead of a journal-epoch. A journal-epoch costs
/// `O(c + b log b)` to publish (components, batch edges) and one extra
/// array read per query whatever it carries, and a fold costs `O(n)`, so
/// the budget only decides how often an insert pays the `O(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalBudget {
    /// Compact when more than this many inserted edges have accumulated on
    /// one base.
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
    /// 64 Ki inserted edges.
    fn default() -> Self {
        JournalBudget { max_edges: 1 << 16 }
    }
}

/// What one [`ServiceHandle::insert_edges`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// The epoch this batch was published as: a journal-epoch, or the
    /// folded base when [`InsertReport::compacted`].
    pub epoch: u64,
    /// Edges accepted from this batch (the whole batch, once validated).
    pub applied: usize,
    /// Component merges this batch caused.
    pub new_merges: usize,
    /// Total inserted edges accumulated on the current base (0 once the
    /// batch compacted: the folded base carries them).
    pub journal_edges: usize,
    /// Total merges the published journal carries (0 once compacted).
    pub journal_merges: usize,
    /// Connected components after this batch.
    pub components: usize,
    /// True iff this batch compacted: its epoch is a folded base, not a
    /// journal-epoch.
    pub compacted: bool,
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

/// The shared state behind every [`ServiceHandle`] clone.
#[derive(Debug)]
pub(super) struct ConnectivityService {
    /// The published epoch. Readers pin it with a read lock and an
    /// `Arc::clone`; a publish holds the write lock for one swap.
    pub(super) current: RwLock<Arc<PublishedIndex>>,
    pub(super) spec: PipelineSpec,
    pub(super) budget: JournalBudget,
    /// The stream lock: every publish holds it, and it guards the
    /// degradation state machine, whose every transition happens on a path
    /// that publishes or fails to. The read path never takes it.
    pub(super) stream: Mutex<HealthInner>,
}

impl ConnectivityService {
    /// The published epoch: a read lock held for one `Arc::clone`. Poison
    /// is recoverable: the write lock guards only a `mem::replace`, which
    /// cannot panic, so the pointer is whole at every step.
    pub(super) fn pin(&self) -> Arc<PublishedIndex> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Locks the stream, recovering from poison: nothing under it is
    /// assigned before the last point that can panic (the next journal and
    /// the fold are built beside the published epoch, and a publish is one
    /// swap), so a poisoned lock means an aborted writer, not torn state.
    pub(super) fn lock_stream(&self) -> MutexGuard<'_, HealthInner> {
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one publish step after epoch 0: swaps `base` (plus the journal
    /// riding on it) in as the next epoch and announces it. It takes the
    /// stream lock's guard, so every publish holds that lock and the epochs
    /// stay dense. The retired epoch may be freed right here, and freeing a
    /// whole index is slow, so it drops after readers are let back in.
    pub(super) fn publish(
        &self,
        _stream: &MutexGuard<'_, HealthInner>,
        base: Arc<BaseIndex>,
        journal: Option<Arc<JournalView>>,
        inserted_edges: usize,
    ) -> u64 {
        let is_journal = journal.is_some();
        let epoch = self.pin().epoch + 1;
        let next = Arc::new(PublishedIndex { epoch, base, journal, inserted_edges });
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let retired = std::mem::replace(&mut *current, next);
        drop(current);
        drop(retired);
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

/// The one freeze in this crate: the journal after `edges` land on `prev`
/// (the journal already riding on `base`; `None` for the bare base). A
/// batch that merges nothing hands `prev` itself back — no copy, and still
/// no journal on a base that has none, so queries skip the remap read.
///
/// The [`Site::JournalBuild`] failpoint fires whenever the result carries
/// a merge. Nothing has been published by then, so an injected failure —
/// or a panic — leaves the service as it was.
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
/// published epoch: an epoch published through any handle is visible to
/// snapshots taken through every other.
#[derive(Clone, Debug)]
pub struct ServiceHandle {
    pub(super) service: Arc<ConnectivityService>,
}

impl ServiceHandle {
    /// Pins the current epoch: a read-lock held for one `Arc::clone`, so
    /// it waits for a publish's pointer swap and never for a rebuild's or
    /// an insertion's work. Call once per thread (or per request) and answer any
    /// number of queries against the returned epoch; holding it keeps that
    /// epoch alive, and dropping it releases the pin.
    pub fn snapshot(&self) -> Arc<PublishedIndex> {
        self.service.pin()
    }

    /// The most recently published epoch number.
    pub fn current_epoch(&self) -> u64 {
        self.service.pin().epoch
    }

    /// The spec every build and rebuild runs.
    pub fn spec(&self) -> &PipelineSpec {
        &self.service.spec
    }

    /// The budget past which an insert compacts.
    pub fn journal_budget(&self) -> JournalBudget {
        self.service.budget
    }

    /// A point-in-time copy of the degradation state machine: current
    /// [`HealthState`], failure streak and bounded incident log.
    pub fn health(&self) -> HealthReport {
        self.service.lock_stream().report()
    }

    /// Applies a batch of edge insertions to the current epoch and
    /// publishes the result as a **journal-epoch**: the published
    /// [`JournalView`] plus the batch's endpoint components give the next
    /// view in `O(components + batch log batch)`, no pipeline run; a batch
    /// that merges nothing still publishes its epoch and shares the
    /// previous view. Answers on the new epoch are byte-identical to a full
    /// rebuild over the merged graph.
    ///
    /// A batch that takes the edges inserted on the current base past the
    /// [`JournalBudget`] — or any batch while the service is
    /// [`HealthState::Degraded`] — **compacts** instead: the journal is
    /// folded into a new base in `O(n)` ([`ComponentIndex::fold`]) and the
    /// folded base, answering exactly like the journal-epoch would, is
    /// published as this batch's epoch. A failed fold (the `compact.publish`
    /// failpoint) does not refuse the batch: its journal-epoch publishes,
    /// the failure is recorded, and the service goes `Degraded`.
    ///
    /// # Errors
    /// [`ServeError::VertexOutOfRange`] if any endpoint is `>= n` for the
    /// current graph, [`ServeError::ReadOnly`] when the state machine has
    /// given up on the write path, [`ServeError::Injected`] when the
    /// `journal.build` failpoint fires (also recorded in the incident
    /// log). The batch is atomic in every case: nothing is applied or
    /// published on error, and a panic in the journal build or the fold
    /// leaves the state as it was.
    pub fn insert_edges(&self, edges: &[(VertexId, VertexId)]) -> Result<InsertReport, ServeError> {
        let service = &self.service;
        let mut health = service.lock_stream();
        if health.state == HealthState::ReadOnly {
            return Err(ServeError::ReadOnly);
        }
        // The stream lock serialises every publish, so the pinned epoch
        // stays the published one until this call publishes its successor.
        let current = service.pin();
        let base = &current.base;
        let n = base.graph_n;
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

        let prev = current.journal.as_ref();
        let journal_timer = ampc_obs::Timer::start(ampc_obs::hist(HistId::JournalBuildNs));
        let journal = match next_journal(prev, base, edges) {
            Ok(j) => j,
            Err(e) => {
                health.record_failure(IncidentOp::JournalBuild, e.clone());
                return Err(e);
            }
        };
        let build_ns = journal_timer.stop();
        let merges = journal.as_ref().map_or(0, |j| j.merges());
        let new_merges = merges - prev.map_or(0, |j| j.merges());
        ampc_obs::counter(CounterId::JournalBuilds).inc();
        ampc_obs::trace(TraceKind::JournalBuilt, merges as u64, build_ns);
        let components = base.index.num_components() - merges;
        let inserted_edges = current.inserted_edges + edges.len();

        // Healthy: the budget decides. Degraded: every insert retries.
        // The fold runs before anything is published, so a panic in it
        // leaves the service as it was.
        let due =
            health.state == HealthState::Degraded || service.budget.exceeded_by(inserted_edges);
        let folded = due.then(|| {
            ampc_obs::counter(CounterId::CompactionsStarted).inc();
            ampc_obs::trace(TraceKind::CompactionStarted, current.epoch, 0);
            let folded = base.fold(journal.as_deref(), inserted_edges);
            fault::check(Site::CompactPublish).map(|()| folded)
        });

        let publish_timer = ampc_obs::Timer::start(ampc_obs::hist(HistId::PublishNs));
        let (epoch, compacted) = match folded {
            Some(Ok(folded)) => {
                let fold_ns = (folded.index_ms * 1e6) as u64;
                health.mark_recovered();
                let epoch = service.publish(&health, Arc::new(folded), None, 0);
                ampc_obs::hist(HistId::CompactionNs).record(fold_ns);
                ampc_obs::counter(CounterId::CompactionsFinished).inc();
                ampc_obs::trace(TraceKind::CompactionFinished, epoch, fold_ns);
                (epoch, true)
            }
            failed => {
                let epoch = service.publish(&health, Arc::clone(base), journal, inserted_edges);
                if let Some(Err(e)) = failed {
                    health.record_failure(IncidentOp::Compaction, e.into());
                }
                (epoch, false)
            }
        };
        publish_timer.stop();

        Ok(InsertReport {
            epoch,
            applied: edges.len(),
            new_merges,
            journal_edges: if compacted { 0 } else { inserted_edges },
            journal_merges: if compacted { 0 } else { merges },
            components,
            compacted,
        })
    }

    /// Rebuilds the index over `graph` on the caller's thread and publishes
    /// it as a new base epoch, returning that epoch's number. The pipeline
    /// runs with no lock held, so readers keep answering against their
    /// pinned snapshots and inserts keep landing throughout; the publish
    /// takes the stream lock for one swap. The journal riding on the
    /// current base is discarded — an explicit rebuild defines a new
    /// ground-truth graph — and a Degraded or ReadOnly service regains
    /// `Healthy`: the explicit rebuild is the operator's recovery lever.
    ///
    /// Calls that do not overlap publish in call order; overlapping calls
    /// publish in the order they finish.
    ///
    /// # Errors
    /// The pipeline or validation error, [`ServeError::RebuildPanicked`] if
    /// the build panicked (caught here), or [`ServeError::Injected`] from the
    /// `rebuild.pipeline` failpoint. Nothing is published on error, and the
    /// failure is recorded in the incident log.
    pub fn rebuild_blocking(&self, graph: Graph) -> Result<u64, ServeError> {
        let service = &self.service;
        let in_flight = ampc_obs::gauge(GaugeId::RebuildsInFlight);
        in_flight.add(1);
        let built = catch_unwind(AssertUnwindSafe(|| {
            fault::check(Site::RebuildPipeline)?;
            BaseIndex::build(&service.spec, &graph)
        }))
        .unwrap_or(Err(ServeError::RebuildPanicked));
        let mut health = service.lock_stream();
        let result = match built {
            Ok(base) => {
                health.mark_recovered();
                Ok(service.publish(&health, Arc::new(base), None, 0))
            }
            Err(e) => {
                health.record_failure(IncidentOp::Rebuild, e.clone());
                Err(e)
            }
        };
        drop(health);
        in_flight.sub(1);
        result
    }

    /// Persists the **currently published epoch** to `path` as a snapshot
    /// (write-to-temp + atomic rename: concurrent readers of the file see
    /// the old snapshot or the new one, never a torn write).
    ///
    /// The epoch is pinned first — exactly one published epoch is
    /// captured, even while insertions and rebuilds race this call. A
    /// journal-epoch is written as the base a compaction would fold it
    /// into, byte-identical to a full rebuild of the merged graph, so a
    /// replica booted from the snapshot answers exactly like this epoch and
    /// the file is the same whether or not the epoch compacted first.
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<PersistReport, SnapshotError> {
        let snap = self.snapshot();
        let (n, m) = snap.graph_size();
        let folded =
            snap.journal().map(|journal| snap.base.fold(Some(journal), snap.inserted_edges));
        let base = folded.as_ref().unwrap_or(&snap.base);
        let algorithm = base.algorithm.number();
        let bytes = snapshot::persist(
            path.as_ref(),
            &base.index,
            &base.labeling,
            n as u64,
            m as u64,
            algorithm,
        )?;
        Ok(PersistReport { epoch: snap.epoch(), bytes, journal: snap.is_journal() })
    }
}
