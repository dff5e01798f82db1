//! `ConnectivityService` — the run→validate→index→serve lifecycle as a
//! first-class API, now with an incremental delta path.
//!
//! [`ServiceBuilder`] runs a [`PipelineSpec`] over a graph, validates the
//! labeling against the graph (the same check the CLI always performed),
//! freezes it into a [`ComponentIndex`], and publishes it as epoch 0 of an
//! [`EpochCell`]. The resulting [`ServiceHandle`] is clone-able and
//! thread-safe: any number of reader threads call
//! [`ServiceHandle::snapshot`] — a lock-free pin — and answer queries
//! against their pinned epoch, while [`ServiceHandle::rebuild`] runs the
//! pipeline on a *background thread* and publishes the new index
//! atomically. Readers holding old snapshots are never blocked and never
//! observe a half-built index; a retired epoch's memory is reclaimed once
//! the last snapshot pinning it is dropped.
//!
//! **Journal-epochs** ([`ServiceHandle::insert_edges`]): a streaming edge
//! insertion can only *merge* components, so instead of re-running the
//! pipeline the service unions the endpoints' dense component ids in a
//! union-find over the current base index and publishes the result as a
//! [`JournalView`] riding on the unchanged base — an `O(components)`
//! publish instead of an `O(n + m)` rebuild. Snapshots of a journal-epoch
//! answer through a merge-aware engine (one extra array read per id) and
//! are byte-identical to a from-scratch build over the merged graph (see
//! `ampc_query::journal` for the argument). Once the journal outgrows its
//! [`JournalBudget`], the service *compacts*: a background pipeline rebuild
//! over the merged graph, with insertions accepted throughout and replayed
//! onto the new base when it lands.
//!
//! **Rebuild ordering**: rebuild requests take a ticket at request time and
//! publish strictly in ticket order, so a slow earlier-requested rebuild
//! can never overwrite a newer epoch (publish order used to be completion
//! order — a race). Journal publishes and rebuild publishes are serialized
//! through the stream lock, so the epoch sequence is a single total order.
//!
//! Per-epoch determinism: a published base index is a pure function of the
//! (spec, graph) pair — the pipelines are seed-deterministic and the index
//! remaps labels by partition — and a journal-epoch is a pure function of
//! (base, inserted edges), so every snapshot of one epoch answers
//! byte-identically on every thread, machine, and backend.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use ampc::{AmpcError, RunStats};
use ampc_cc::pipeline::{Algorithm, PipelineSpec, ResolvedAlgorithm};
use ampc_graph::{Graph, Labeling, UnionFind, VertexId};
use ampc_obs::{Clock, CounterId, GaugeId, HistId, MonotonicClock, TraceKind};
use ampc_query::{snapshot, ComponentIndex, JournalView, QueryEngine, SnapshotError};

use crate::epoch::{EpochCell, EpochGuard};
use crate::fault::{self, InjectedFault, Site};

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The underlying pipeline run failed.
    Pipeline(AmpcError),
    /// The pipeline produced a labeling that does not validate against the
    /// graph (index construction refused it).
    InvalidLabeling(String),
    /// A background rebuild thread panicked.
    RebuildPanicked,
    /// An inserted edge names a vertex the current graph does not have.
    /// The whole batch is rejected: nothing was applied or published.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// Vertex count of the current graph.
        n: usize,
    },
    /// Freezing the insert batch's merges into a journal failed. The
    /// batch was rolled back: nothing was applied or published (this used
    /// to be a reachable `expect` on the caller's thread).
    JournalBuild(String),
    /// The service is in the [`HealthState::ReadOnly`] state after
    /// repeated failures: inserts are refused, reads keep serving the
    /// last published epoch, and a successful explicit
    /// [`ServiceHandle::rebuild`] restores service.
    ReadOnly,
    /// A failpoint fired ([`crate::fault`]): the deterministic
    /// fault-injection harness, never seen in production.
    Injected {
        /// Name of the failpoint site that fired.
        site: &'static str,
    },
    /// Booting from a snapshot failed (the typed reason, stringified for
    /// the incident log) — [`ServiceBuilder::from_snapshot_or_rebuild`]
    /// records this before falling back to a pipeline build.
    SnapshotBoot(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Pipeline(e) => write!(f, "pipeline run failed: {e}"),
            ServeError::InvalidLabeling(msg) => write!(f, "labeling rejected: {msg}"),
            ServeError::RebuildPanicked => write!(f, "background rebuild thread panicked"),
            ServeError::VertexOutOfRange { vertex, n } => {
                write!(f, "inserted edge names vertex {vertex} but the graph has {n} vertices")
            }
            ServeError::JournalBuild(msg) => write!(f, "journal build failed: {msg}"),
            ServeError::ReadOnly => {
                write!(
                    f,
                    "service is read-only after repeated failures \
                     (reads keep serving; a successful rebuild restores inserts)"
                )
            }
            ServeError::Injected { site } => write!(f, "injected fault at failpoint `{site}`"),
            ServeError::SnapshotBoot(msg) => write!(f, "snapshot boot failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AmpcError> for ServeError {
    fn from(e: AmpcError) -> Self {
        ServeError::Pipeline(e)
    }
}

impl From<InjectedFault> for ServeError {
    fn from(f: InjectedFault) -> Self {
        ServeError::Injected { site: f.site.name() }
    }
}

/// The degradation state machine every [`ServiceHandle`] carries.
///
/// ```text
///            failure                    failure (Nth consecutive)
/// Healthy ───────────▶ Degraded ─────────────────────▶ ReadOnly
///    ▲                    │  ▲                             │
///    │   compaction /     │  │ failed retry                │
///    │   rebuild success  │  │ (backoff doubles)           │
///    └────────────────────┘  └─────────────────────────────┘
///    ▲                                                     │
///    └──────────── explicit rebuild succeeds ──────────────┘
/// ```
///
/// * **Healthy** — the happy path of PRs 5–7.
/// * **Degraded** — a rebuild/compaction/journal build failed. Reads are
///   untouched; inserts keep landing as journal-epochs; the journal
///   budget is suspended in favor of a bounded retry-with-backoff
///   compaction schedule (deterministic under an injectable [`Clock`]).
/// * **ReadOnly** — [`RetryPolicy::max_consecutive_failures`] failures in
///   a row. Inserts return [`ServeError::ReadOnly`]; reads keep serving
///   the last published epoch; only a successful explicit
///   [`ServiceHandle::rebuild`] (new ground truth) restores `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// A failure was recorded; retrying compaction with backoff.
    Degraded,
    /// Too many consecutive failures; inserts refused until an explicit
    /// rebuild succeeds.
    ReadOnly,
}

impl HealthState {
    /// Stable lowercase name (CLI/JSON).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::ReadOnly => "read-only",
        }
    }
}

/// Which operation an [`Incident`] was recorded against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentOp {
    /// An explicit [`ServiceHandle::rebuild`].
    Rebuild,
    /// A budget-triggered or retry compaction.
    Compaction,
    /// A journal-epoch freeze on the insert path.
    JournalBuild,
    /// A snapshot boot that fell back to a pipeline build.
    Boot,
}

impl IncidentOp {
    /// Stable lowercase name (CLI/JSON).
    pub fn name(self) -> &'static str {
        match self {
            IncidentOp::Rebuild => "rebuild",
            IncidentOp::Compaction => "compaction",
            IncidentOp::JournalBuild => "journal-build",
            IncidentOp::Boot => "boot",
        }
    }
}

/// One recorded failure. The log is bounded
/// ([`RetryPolicy::max_incidents`]): `seq` keeps a global count even
/// after old entries are evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// 1-based global sequence number (total incidents ever recorded).
    pub seq: u64,
    /// Milliseconds on the service's [`Clock`] when the incident was
    /// recorded.
    pub at_ms: u64,
    /// The operation that failed.
    pub op: IncidentOp,
    /// The typed failure.
    pub error: ServeError,
}

/// Bounded retry-with-backoff policy for the degradation state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failures before the service enters
    /// [`HealthState::ReadOnly`].
    pub max_consecutive_failures: u32,
    /// Backoff before the first compaction retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling (the doubling stops here).
    pub max_backoff_ms: u64,
    /// Incident-log bound (oldest entries are evicted first).
    pub max_incidents: usize,
}

impl RetryPolicy {
    /// `min(base << (failures − 1), max)` — deterministic, no jitter: the
    /// service is single-writer per lineage, so thundering herds are not
    /// a concern and reproducibility (chaos schedules, incident replay)
    /// is.
    pub fn backoff_ms(&self, consecutive_failures: u32) -> u64 {
        let doublings = consecutive_failures.saturating_sub(1).min(32);
        self.base_backoff_ms.saturating_mul(1u64 << doublings).min(self.max_backoff_ms)
    }
}

impl Default for RetryPolicy {
    /// 5 strikes, 100 ms → 10 s backoff, 64 incidents retained.
    fn default() -> Self {
        RetryPolicy {
            max_consecutive_failures: 5,
            base_backoff_ms: 100,
            max_backoff_ms: 10_000,
            max_incidents: 64,
        }
    }
}

/// A point-in-time copy of the service's health, via
/// [`ServiceHandle::health`].
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current state of the degradation state machine.
    pub state: HealthState,
    /// Failures since the last successful rebuild/compaction.
    pub consecutive_failures: u32,
    /// Total incidents ever recorded (≥ `incidents.len()`).
    pub total_incidents: u64,
    /// The retained incident log, oldest first.
    pub incidents: Vec<Incident>,
    /// When [`HealthState::Degraded`]: milliseconds until the next
    /// compaction retry is allowed (0 = due now).
    pub retry_in_ms: Option<u64>,
}

/// Mutable half of the state machine, guarded by the stream lock (every
/// transition happens on a path that already holds it).
#[derive(Debug)]
struct HealthInner {
    state: HealthState,
    consecutive_failures: u32,
    /// Earliest millisecond on the service's clock at which a Degraded
    /// service retries compaction.
    retry_at_ms: u64,
    incidents: VecDeque<Incident>,
    total_incidents: u64,
}

impl HealthInner {
    fn new() -> Self {
        HealthInner {
            state: HealthState::Healthy,
            consecutive_failures: 0,
            retry_at_ms: 0,
            incidents: VecDeque::new(),
            total_incidents: 0,
        }
    }
}

/// The frozen product of one full pipeline run: index, labeling, stats.
/// Base epochs own one of these; journal-epochs share their base's via
/// `Arc` — that sharing is what makes a journal publish cheap.
#[derive(Debug)]
struct BaseIndex {
    index: ComponentIndex,
    labeling: Labeling,
    stats: RunStats,
    algorithm: ResolvedAlgorithm,
    graph_n: usize,
    graph_m: usize,
    /// Wall time of the pipeline run (+ validation) that produced the
    /// labeling; 0 for a snapshot boot — nothing ran.
    pipeline_ms: f64,
    /// Wall time of freezing the labeling into the index; 0 for a
    /// snapshot boot. Split out so boot-vs-build speedups have a clean
    /// denominator.
    index_ms: f64,
}

/// One published epoch: a shared base index plus, for journal-epochs, the
/// frozen merge journal accumulated since that base. Everything here is
/// immutable at publish time; readers share it via `Arc`.
#[derive(Debug)]
pub struct PublishedIndex {
    epoch: u64,
    base: Arc<BaseIndex>,
    journal: Option<JournalView>,
    inserted_edges: usize,
}

impl PublishedIndex {
    /// The epoch this index was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable base component index. Journal-epochs answer through
    /// [`PublishedIndex::journal`] on top of this — use
    /// [`IndexSnapshot::engine`] to get the merge-aware view.
    pub fn index(&self) -> &ComponentIndex {
        &self.base.index
    }

    /// The raw labeling the base pipeline run produced (e.g. for
    /// `--labels` output). Journal merges are not reflected here.
    pub fn labeling(&self) -> &Labeling {
        &self.base.labeling
    }

    /// The producing run's cost accounting.
    pub fn stats(&self) -> &RunStats {
        &self.base.stats
    }

    /// Which algorithm produced this epoch's base index.
    pub fn algorithm(&self) -> ResolvedAlgorithm {
        self.base.algorithm
    }

    /// `(n, m)` of the graph this epoch answers for: the base graph plus
    /// any edges accepted by the journal (counted as inserted, before
    /// dedup against existing edges).
    pub fn graph_size(&self) -> (usize, usize) {
        (self.base.graph_n, self.base.graph_m + self.inserted_edges)
    }

    /// Wall-clock milliseconds the base epoch's pipeline run (plus
    /// validation) took; 0 when the base was booted from a snapshot.
    pub fn pipeline_ms(&self) -> f64 {
        self.base.pipeline_ms
    }

    /// Wall-clock milliseconds freezing the base labeling into the index
    /// took; 0 when the base was booted from a snapshot.
    pub fn index_build_ms(&self) -> f64 {
        self.base.index_ms
    }

    /// The merge journal riding on the base index, if this is a
    /// journal-epoch.
    pub fn journal(&self) -> Option<&JournalView> {
        self.journal.as_ref()
    }

    /// True iff this epoch carries journal merges on top of its base.
    pub fn is_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// Number of connected components this epoch answers with (journal
    /// merges included).
    pub fn num_components(&self) -> usize {
        match &self.journal {
            Some(j) => j.num_components(),
            None => self.base.index.num_components(),
        }
    }
}

/// A pinned, immutable view of one published epoch. Cheap to clone (an
/// `Arc` bump); holding it keeps that epoch's index alive, dropping it
/// releases the pin. Obtainable only via [`ServiceHandle::snapshot`] —
/// lock-free.
#[derive(Clone)]
pub struct IndexSnapshot {
    guard: EpochGuard<PublishedIndex>,
}

impl IndexSnapshot {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.guard.epoch()
    }

    /// A borrow-only query engine over this snapshot's index — merge-aware
    /// when the snapshot pinned a journal-epoch. Engines are `Copy`; make
    /// one per thread or per batch, they cost nothing.
    pub fn engine(&self) -> QueryEngine<'_> {
        match self.guard.journal() {
            Some(j) => QueryEngine::with_journal(self.guard.index(), j),
            None => QueryEngine::new(self.guard.index()),
        }
    }

    /// Downgrades to a weak reference to the epoch payload — the hook the
    /// lifecycle tests use to observe that retired epochs are freed once
    /// every snapshot is dropped.
    pub fn downgrade(&self) -> Weak<PublishedIndex> {
        Arc::downgrade(self.guard.value())
    }
}

impl std::ops::Deref for IndexSnapshot {
    type Target = PublishedIndex;

    fn deref(&self) -> &PublishedIndex {
        &self.guard
    }
}

/// When a journal grows past this budget, the service falls back to a full
/// background rebuild (compaction) over the merged graph. Until the
/// compaction lands, insertions keep being accepted and published as
/// journal-epochs — the budget bounds staleness cost, not availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalBudget {
    /// Compact once this many inserted edges have accumulated on one base.
    pub max_edges: usize,
    /// Compact once the journal carries this many component merges.
    pub max_merges: usize,
}

impl JournalBudget {
    /// A budget with explicit limits.
    pub fn new(max_edges: usize, max_merges: usize) -> Self {
        JournalBudget { max_edges, max_merges }
    }

    /// Never compact automatically (tests and benchmarks that want to
    /// observe pure journal behavior).
    pub fn unbounded() -> Self {
        JournalBudget { max_edges: usize::MAX, max_merges: usize::MAX }
    }

    fn exceeded_by(&self, journal_edges: usize, journal_merges: usize) -> bool {
        journal_edges > self.max_edges || journal_merges > self.max_merges
    }
}

impl Default for JournalBudget {
    /// 64 Ki inserted edges or 4 Ki merges — a journal publish is
    /// `O(components)`, so the default keeps the incremental path far
    /// cheaper than the `O(n + m)` rebuild it defers.
    fn default() -> Self {
        JournalBudget { max_edges: 1 << 16, max_merges: 1 << 12 }
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

/// Mutable write-side state: the current base graph, the edges inserted on
/// top of it, and the union-find over base component ids that summarizes
/// their merges. Guarded by one mutex; the read path never touches it.
#[derive(Debug)]
struct StreamState {
    /// The graph the current base index was built from.
    graph: Graph,
    /// Edges accepted since the current base was published.
    pending: Vec<(VertexId, VertexId)>,
    /// Union-find over the base index's dense component ids.
    uf: UnionFind,
    /// Merges `uf` currently carries (`c - uf.num_components()`).
    merges: usize,
    /// The base every journal-epoch publishes against.
    base: Arc<BaseIndex>,
    /// False when the service was booted from a snapshot: `graph` is then
    /// a vertex-only placeholder (a snapshot does not carry edges), so
    /// budget-triggered compaction — which re-reads the base edges — must
    /// not run until an explicit rebuild installs a real graph.
    has_base_graph: bool,
    /// A compaction rebuild is in flight (don't start another).
    compacting: bool,
    /// Bumped by every full rebuild that lands; a compaction that started
    /// against an older generation abandons instead of clobbering.
    generation: u64,
    /// Degradation state machine + bounded incident log. Guarded by the
    /// stream lock like everything else here: every transition happens on
    /// a path that already holds it.
    health: HealthInner,
}

/// Ticket dispenser that forces rebuild publishes into request order:
/// `take` at request time, `wait_for` before publishing, `advance` after —
/// unconditionally, including on failure, so a dead rebuild never wedges
/// the queue.
#[derive(Debug)]
struct RebuildTickets {
    next: AtomicU64,
    turn: Mutex<u64>,
    done: Condvar,
}

impl RebuildTickets {
    fn new() -> Self {
        RebuildTickets { next: AtomicU64::new(0), turn: Mutex::new(0), done: Condvar::new() }
    }

    fn take(&self) -> u64 {
        ampc_obs::gauge(GaugeId::RebuildQueueDepth).add(1);
        self.next.fetch_add(1, SeqCst)
    }

    fn wait_for(&self, ticket: u64) {
        let mut turn = self.turn.lock().unwrap_or_else(|p| p.into_inner());
        while *turn != ticket {
            turn = self.done.wait(turn).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn advance(&self) {
        ampc_obs::gauge(GaugeId::RebuildQueueDepth).sub(1);
        let mut turn = self.turn.lock().unwrap_or_else(|p| p.into_inner());
        *turn += 1;
        self.done.notify_all();
    }
}

/// The shared state behind every [`ServiceHandle`] clone.
#[derive(Debug)]
struct ConnectivityService {
    cell: EpochCell<PublishedIndex>,
    spec: PipelineSpec,
    budget: JournalBudget,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    stream: Mutex<StreamState>,
    tickets: RebuildTickets,
}

impl ConnectivityService {
    /// The retry schedule and the incident log count milliseconds.
    fn now_ms(&self) -> u64 {
        self.clock.now_ns() / 1_000_000
    }
}

/// Appends a typed failure to the bounded incident log without touching
/// the state machine (boot-fallback incidents land in a Healthy service).
fn record_incident(
    service: &ConnectivityService,
    st: &mut StreamState,
    op: IncidentOp,
    error: ServeError,
) {
    let h = &mut st.health;
    h.total_incidents += 1;
    h.incidents.push_back(Incident { seq: h.total_incidents, at_ms: service.now_ms(), op, error });
    while h.incidents.len() > service.policy.max_incidents {
        h.incidents.pop_front();
    }
    ampc_obs::counter(CounterId::Incidents).inc();
    ampc_obs::trace(TraceKind::IncidentRecorded, h.total_incidents, op as u64);
}

/// Records a failure and advances the state machine: `Degraded` with a
/// doubled backoff until [`RetryPolicy::max_consecutive_failures`], then
/// `ReadOnly`.
fn record_failure(
    service: &ConnectivityService,
    st: &mut StreamState,
    op: IncidentOp,
    error: ServeError,
) {
    record_incident(service, st, op, error);
    let prior = st.health.state;
    let failures = st.health.consecutive_failures.saturating_add(1);
    st.health.consecutive_failures = failures;
    if failures >= service.policy.max_consecutive_failures {
        if prior != HealthState::ReadOnly {
            ampc_obs::counter(CounterId::ReadOnlyTransitions).inc();
        }
        st.health.state = HealthState::ReadOnly;
        st.health.retry_at_ms = u64::MAX;
    } else {
        if prior != HealthState::Degraded {
            ampc_obs::counter(CounterId::DegradedTransitions).inc();
        }
        st.health.state = HealthState::Degraded;
        st.health.retry_at_ms =
            service.now_ms().saturating_add(service.policy.backoff_ms(failures));
    }
}

/// A compaction or rebuild landed: back to `Healthy`, failure streak
/// cleared. The incident log is retained — it is history, not state.
fn mark_recovered(h: &mut HealthInner) {
    if h.state != HealthState::Healthy {
        ampc_obs::counter(CounterId::Recoveries).inc();
    }
    h.state = HealthState::Healthy;
    h.consecutive_failures = 0;
    h.retry_at_ms = 0;
}

/// Locks the stream state, recovering from poison: the guarded state is
/// only ever mutated to a consistent snapshot before any point that can
/// panic (publishing is a pointer swap, `Vec`/`UnionFind` updates finish
/// before the publish), so a poisoned lock means an aborted writer, not
/// torn state.
fn lock_stream(stream: &Mutex<StreamState>) -> MutexGuard<'_, StreamState> {
    stream.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the spec on `g` and freezes the result. Validation is part of the
/// lifecycle: a labeling that does not validate against `g` is never
/// published.
fn build_base(spec: &PipelineSpec, g: &Graph) -> Result<BaseIndex, ServeError> {
    let t0 = Instant::now();
    let run = spec.run(g)?;
    let pipeline_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let index = ComponentIndex::from_run(g, &run.labeling).map_err(ServeError::InvalidLabeling)?;
    let index_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok(BaseIndex {
        index,
        labeling: run.labeling,
        stats: run.stats,
        algorithm: run.algorithm,
        graph_n: g.n(),
        graph_m: g.m(),
        pipeline_ms,
        index_ms,
    })
}

/// Freezes a union-find over `base`'s component ids into a journal.
/// `Ok(None)` when there are no merges (the journal would be an identity
/// map — publish the base view instead and skip the remap read on every
/// query).
///
/// This used to `expect` — a reachable panic on the **caller's** insert
/// thread. Union-find roots are base component ids, so the labeling is in
/// range and the right length by construction, but "by construction"
/// arguments belong in tests, not in a panic on the serving path: a
/// violated invariant now surfaces as [`ServeError::JournalBuild`] and
/// rolls the batch back. The [`Site::JournalBuild`] failpoint fires here.
fn build_journal(
    uf: &mut UnionFind,
    merges: usize,
    base: &BaseIndex,
) -> Result<Option<JournalView>, ServeError> {
    if merges == 0 {
        return Ok(None);
    }
    fault::check(Site::JournalBuild)?;
    let c = base.index.num_components();
    let class_of: Vec<u32> = (0..c as u32).map(|id| uf.find(id)).collect();
    JournalView::build(&class_of, &base.index).map(Some).map_err(ServeError::JournalBuild)
}

/// Builder for a [`ServiceHandle`]: `ServiceBuilder::new(graph)
/// .spec(spec).build()?` runs the pipeline once (synchronously), validates
/// and indexes the result, and publishes it as epoch 0.
pub struct ServiceBuilder {
    graph: Graph,
    spec: PipelineSpec,
    budget: JournalBudget,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
}

/// Where [`ServiceBuilder::from_snapshot_or_rebuild`] got its epoch 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootSource {
    /// The snapshot loaded and validated; epoch 0 reinterprets its buffer.
    Snapshot,
    /// The snapshot was missing/corrupt; epoch 0 came from a pipeline
    /// build over the builder's graph, and the boot failure is the first
    /// entry in the incident log.
    RebuildFallback,
}

impl ServiceBuilder {
    /// Starts a builder over `graph` with the default [`PipelineSpec`] and
    /// [`JournalBudget`].
    pub fn new(graph: Graph) -> Self {
        ServiceBuilder {
            graph,
            spec: PipelineSpec::default(),
            budget: JournalBudget::default(),
            policy: RetryPolicy::default(),
            clock: Arc::new(MonotonicClock),
        }
    }

    /// Sets the pipeline spec used for the initial build and every rebuild.
    pub fn spec(mut self, spec: PipelineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the journal budget that triggers compaction rebuilds.
    pub fn journal_budget(mut self, budget: JournalBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the retry/backoff policy of the degradation state machine.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects the time source the retry schedule reads (tests pass an
    /// [`ampc_obs::ManualClock`] and advance it deterministically).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Runs the pipeline, validates, indexes, and publishes epoch 0.
    pub fn build(self) -> Result<ServiceHandle, ServeError> {
        let base = Arc::new(build_base(&self.spec, &self.graph)?);
        Ok(publish_epoch_zero(
            self.graph,
            true,
            base,
            self.spec,
            self.budget,
            self.policy,
            self.clock,
        ))
    }

    /// Boot fallback chain: try the snapshot first, and if it is missing,
    /// truncated, or corrupt — any [`SnapshotError`] — fall back to a
    /// pipeline build over the builder's graph instead of refusing to
    /// start. The failure is not swallowed: it is recorded as a
    /// [`IncidentOp::Boot`] incident (typed
    /// [`ServeError::SnapshotBoot`]) in the otherwise-Healthy fallback
    /// service, and the returned [`BootSource`] says which path won.
    ///
    /// On a successful snapshot boot the builder's graph is installed as
    /// the base graph **when its vertex count matches the snapshot's**, so
    /// budget-triggered compaction works immediately (plain
    /// [`ServiceBuilder::from_snapshot`] has no edges and must disable
    /// it). The caller asserts, by using this method, that the graph is
    /// the one the snapshot captured. On a mismatch the snapshot still
    /// boots, with compaction disabled exactly like `from_snapshot`.
    ///
    /// # Errors
    /// Only if **both** paths fail: the snapshot error is in the incident
    /// log's stead and the pipeline error is returned.
    pub fn from_snapshot_or_rebuild(
        self,
        path: impl AsRef<Path>,
    ) -> Result<(ServiceHandle, BootSource), ServeError> {
        match snapshot::load(path.as_ref()) {
            Ok(snap) => {
                let (base, _) = base_from_snapshot(snap);
                let (graph, has_base_graph) = if self.graph.n() == base.graph_n {
                    (self.graph, true)
                } else {
                    (Graph::empty(base.graph_n), false)
                };
                Ok((
                    publish_epoch_zero(
                        graph,
                        has_base_graph,
                        base,
                        self.spec,
                        self.budget,
                        self.policy,
                        self.clock,
                    ),
                    BootSource::Snapshot,
                ))
            }
            Err(snap_err) => {
                let boot_error = ServeError::SnapshotBoot(snap_err.to_string());
                let base = Arc::new(build_base(&self.spec, &self.graph)?);
                let handle = publish_epoch_zero(
                    self.graph,
                    true,
                    base,
                    self.spec,
                    self.budget,
                    self.policy,
                    self.clock,
                );
                {
                    let service = &handle.service;
                    let mut st = lock_stream(&service.stream);
                    record_incident(service, &mut st, IncidentOp::Boot, boot_error);
                }
                Ok((handle, BootSource::RebuildFallback))
            }
        }
    }

    /// Boots a service from a snapshot on disk: one bulk read, header +
    /// checksum validation, and epoch 0 is published with its index
    /// sections reinterpreted **in place** over the snapshot buffer — no
    /// pipeline run, no per-element deserialization. This is how one
    /// pipeline run fans out to N serving replicas that boot in
    /// milliseconds.
    ///
    /// The booted service answers queries and accepts
    /// [`ServiceHandle::insert_edges`] (journal-epochs need only the index,
    /// which the snapshot carries). A snapshot does not carry the base
    /// graph's *edges*, so budget-triggered compaction stays disabled until
    /// an explicit [`ServiceHandle::rebuild`] installs a real graph; the
    /// journal simply keeps growing in the meantime. Rebuilds use a default
    /// spec pinned to the snapshot's algorithm.
    ///
    /// # Errors
    /// Any [`SnapshotError`]: i/o failure, foreign or damaged header,
    /// checksum mismatch, or semantic corruption. A corrupt snapshot never
    /// publishes anything.
    pub fn from_snapshot(path: impl AsRef<Path>) -> Result<ServiceHandle, SnapshotError> {
        let (base, algo) = base_from_snapshot(snapshot::load(path.as_ref())?);
        let spec = PipelineSpec::default().with_algorithm(algo);
        Ok(publish_epoch_zero(
            Graph::empty(base.graph_n),
            false,
            base,
            spec,
            JournalBudget::default(),
            RetryPolicy::default(),
            Arc::new(MonotonicClock),
        ))
    }
}

/// A loaded snapshot as an epoch-0 base (no pipeline ran: empty stats, zero
/// timings), plus the algorithm a rebuild spec for it is pinned to.
fn base_from_snapshot(snap: snapshot::Snapshot) -> (Arc<BaseIndex>, Algorithm) {
    let (algorithm, algo) = match snap.algorithm {
        1 => (ResolvedAlgorithm::Forest, Algorithm::Forest),
        _ => (ResolvedAlgorithm::General, Algorithm::General),
    };
    let base = BaseIndex {
        index: snap.index,
        labeling: snap.labeling,
        stats: RunStats::default(),
        algorithm,
        graph_n: snap.graph_n as usize,
        graph_m: snap.graph_m as usize,
        pipeline_ms: 0.0,
        index_ms: 0.0,
    };
    (Arc::new(base), algo)
}

/// Shared tail of [`ServiceBuilder::build`] and
/// [`ServiceBuilder::from_snapshot`]: wraps a finished base into stream
/// state and publishes it as epoch 0.
fn publish_epoch_zero(
    graph: Graph,
    has_base_graph: bool,
    base: Arc<BaseIndex>,
    spec: PipelineSpec,
    budget: JournalBudget,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
) -> ServiceHandle {
    let c = base.index.num_components();
    let stream = StreamState {
        graph,
        pending: Vec::new(),
        uf: UnionFind::new(c),
        merges: 0,
        base: Arc::clone(&base),
        has_base_graph,
        compacting: false,
        generation: 0,
        health: HealthInner::new(),
    };
    let payload = PublishedIndex { epoch: 0, base, journal: None, inserted_edges: 0 };
    let service = ConnectivityService {
        cell: EpochCell::new(Arc::new(payload)),
        spec,
        budget,
        policy,
        clock,
        stream: Mutex::new(stream),
        tickets: RebuildTickets::new(),
    };
    ampc_obs::counter(CounterId::EpochsPublished).inc();
    ampc_obs::trace(TraceKind::EpochPublished, 0, 0);
    ServiceHandle { service: Arc::new(service) }
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

/// What a sequenced background rebuild does once its pipeline run lands.
enum RebuildGoal {
    /// Explicit [`ServiceHandle::rebuild`]: the graph is the new ground
    /// truth; pending journal edges (they belong to the old lineage) are
    /// discarded.
    Replace,
    /// Budget-triggered compaction: the graph is the old base merged with
    /// the first `consumed` pending edges; the rest (inserted while the
    /// compaction ran) are replayed onto the new base. Abandons without
    /// publishing if a `Replace` landed in between (`generation` moved).
    Compact {
        /// Pending-edge prefix baked into the compacted graph.
        consumed: usize,
        /// Stream generation the compaction started from.
        generation: u64,
    },
}

/// A clone-able handle to a connectivity service. Clones share the same
/// epoch cell: an epoch published through any handle is visible to
/// snapshots taken through every other.
#[derive(Clone, Debug)]
pub struct ServiceHandle {
    service: Arc<ConnectivityService>,
}

impl ServiceHandle {
    /// Pins the current epoch — lock-free; never blocks on rebuilds or
    /// insertions. Call once per thread (or per request) and answer any
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

    /// The retry/backoff policy of the degradation state machine.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.service.policy
    }

    /// A point-in-time copy of the degradation state machine: current
    /// [`HealthState`], failure streak, bounded incident log, and (when
    /// `Degraded`) time until the next compaction retry.
    pub fn health(&self) -> HealthReport {
        let service = &self.service;
        let st = lock_stream(&service.stream);
        let h = &st.health;
        let retry_in_ms = (h.state == HealthState::Degraded)
            .then(|| h.retry_at_ms.saturating_sub(service.now_ms()));
        HealthReport {
            state: h.state,
            consecutive_failures: h.consecutive_failures,
            total_incidents: h.total_incidents,
            incidents: h.incidents.iter().cloned().collect(),
            retry_in_ms,
        }
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
    /// publishes the result as a **journal-epoch**: endpoint components
    /// are unioned over the base index's dense ids and the merged view is
    /// frozen into a [`JournalView`] — an `O(components)` publish, no
    /// pipeline run. Answers on the new epoch are byte-identical to a full
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
    /// given up on the write path, [`ServeError::JournalBuild`] if
    /// freezing the merges fails (the failure is also recorded in the
    /// incident log). The batch is atomic in every case: nothing is
    /// applied or published on error.
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

        // Apply the batch to a *scratch* union-find and only commit it
        // after the journal freezes — a failed freeze must roll the whole
        // batch back, and the clone is `O(components)`, the same order as
        // the freeze itself.
        let base = Arc::clone(&st.base);
        let mut uf = st.uf.clone();
        let mut new_merges = 0usize;
        for &(u, v) in edges {
            let (cu, cv) = (base.index.component_of(u), base.index.component_of(v));
            if uf.union(cu, cv) {
                new_merges += 1;
            }
        }
        let merges = st.merges + new_merges;
        let journal_timer = ampc_obs::Timer::start(ampc_obs::hist(HistId::JournalBuildNs));
        let journal = match build_journal(&mut uf, merges, &base) {
            Ok(j) => j,
            Err(e) => {
                record_failure(service, &mut st, IncidentOp::JournalBuild, e.clone());
                return Err(e);
            }
        };
        let build_ns = journal_timer.stop();
        ampc_obs::counter(CounterId::JournalBuilds).inc();
        ampc_obs::trace(TraceKind::JournalBuilt, merges as u64, build_ns);
        st.uf = uf;
        st.merges = merges;
        st.pending.extend_from_slice(edges);

        let components = match &journal {
            Some(j) => j.num_components(),
            None => base.index.num_components(),
        };
        let inserted_edges = st.pending.len();
        let is_journal = journal.is_some();
        let publish_timer = ampc_obs::Timer::start(ampc_obs::hist(HistId::PublishNs));
        let epoch = service.cell.publish_with(|epoch| {
            Arc::new(PublishedIndex { epoch, base: Arc::clone(&base), journal, inserted_edges })
        });
        publish_timer.stop();
        ampc_obs::counter(CounterId::EpochsPublished).inc();
        ampc_obs::trace(TraceKind::EpochPublished, epoch, is_journal as u64);
        ampc_obs::gauge(GaugeId::JournalPendingEntries).set(inserted_edges as i64);

        // Healthy: the journal budget decides. Degraded: the budget is
        // suspended ("widened") — the deterministic retry schedule decides
        // instead, so a failing compaction is re-attempted with backoff
        // rather than on every over-budget batch.
        let due = match st.health.state {
            HealthState::Healthy => service.budget.exceeded_by(st.pending.len(), st.merges),
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
            journal_merges: st.merges,
            components,
            compaction_started,
        })
    }

    /// Rebuilds the index over `graph` on a background thread and
    /// publishes it as a new base epoch. Readers keep answering against
    /// their pinned snapshots throughout; the swap is atomic. Pending
    /// journal edges are discarded — an explicit rebuild defines a new
    /// ground-truth graph.
    ///
    /// Concurrent rebuilds publish in **request order** (each request takes
    /// a ticket here, synchronously), so a slow earlier-requested rebuild
    /// can never overwrite a newer epoch.
    ///
    /// Returns immediately with a [`RebuildHandle`]; call
    /// [`RebuildHandle::wait`] for the published epoch number (or the
    /// pipeline/validation error, in which case nothing was published).
    /// Dropping the handle joins the rebuild and logs failures to stderr
    /// instead of silently swallowing them; use [`RebuildHandle::detach`]
    /// for explicit fire-and-forget.
    pub fn rebuild(&self, graph: Graph) -> RebuildHandle {
        let ticket = self.service.tickets.take();
        let service = Arc::clone(&self.service);
        let join =
            std::thread::spawn(move || run_rebuild(&service, graph, RebuildGoal::Replace, ticket));
        RebuildHandle { join: Some(join) }
    }

    /// Convenience: [`ServiceHandle::rebuild`] + wait.
    pub fn rebuild_blocking(&self, graph: Graph) -> Result<u64, ServeError> {
        self.rebuild(graph).wait()
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
        let algorithm = snap.algorithm().number();
        let bytes = match snap.journal() {
            None => snapshot::persist(
                path.as_ref(),
                snap.index(),
                snap.labeling(),
                n as u64,
                m as u64,
                algorithm,
            )?,
            Some(journal) => {
                let base = snap.index();
                // Merged dense ids are themselves a labeling of the merged
                // partition; building from it reproduces a full rebuild
                // byte for byte (see `ampc_query::journal`).
                let merged = Labeling(
                    (0..n as VertexId)
                        .map(|v| journal.resolve(base.component_of(v)) as u64)
                        .collect(),
                );
                let index = ComponentIndex::build(&merged);
                snapshot::persist(path.as_ref(), &index, &merged, n as u64, m as u64, algorithm)?
            }
        };
        Ok(PersistReport { epoch: snap.epoch(), bytes, journal: snap.is_journal() })
    }
}

/// Kicks off a background compaction over the merged (base + pending)
/// graph. Caller holds the stream lock and has decided the compaction is
/// due. Fire-and-forget by design: the compaction reports through the
/// epoch cell and the health state machine (success → `Healthy`, failure
/// → incident + backoff), not through a handle.
fn start_compaction_locked(service: &Arc<ConnectivityService>, st: &mut StreamState) {
    st.compacting = true;
    ampc_obs::counter(CounterId::CompactionsStarted).inc();
    ampc_obs::trace(TraceKind::CompactionStarted, service.cell.epoch(), 0);
    let consumed = st.pending.len();
    let generation = st.generation;
    let n = st.graph.n();
    let merged: Vec<(VertexId, VertexId)> =
        st.graph.edges().chain(st.pending.iter().copied()).collect();
    let graph = Graph::from_edges(n, &merged);
    let ticket = service.tickets.take();
    let service = Arc::clone(service);
    std::thread::spawn(move || {
        run_rebuild(&service, graph, RebuildGoal::Compact { consumed, generation }, ticket)
    });
}

/// Body of every sequenced background rebuild (explicit or compaction):
/// run the pipeline (the expensive part, concurrent with everything), wait
/// for this ticket's turn, then swap stream state + publish under the
/// stream lock. The ticket is advanced on **every** path, including
/// pipeline failure and panic, so one dead rebuild never wedges later
/// ones; every failure (including a panic, via `catch_unwind`) is
/// recorded in the incident log and advances the degradation state
/// machine instead of disappearing with the thread.
fn run_rebuild(
    service: &Arc<ConnectivityService>,
    graph: Graph,
    goal: RebuildGoal,
    ticket: u64,
) -> Result<u64, ServeError> {
    let start_ns = ampc_obs::monotonic_ns();
    let built = catch_unwind(AssertUnwindSafe(|| {
        fault::check(Site::RebuildPipeline)?;
        build_base(&service.spec, &graph)
    }));
    service.tickets.wait_for(ticket);
    // The publish half is wrapped too: a panic mid-publish (injected or
    // real) must still advance the ticket and record a failure, or every
    // later rebuild wedges behind this one's turn. The stream mutations
    // inside are ordered fallible-first, so an unwind leaves consistent
    // state and `lock_stream` recovers the poisoned mutex.
    let result =
        catch_unwind(AssertUnwindSafe(|| publish_rebuild(service, graph, &goal, built, start_ns)))
            .unwrap_or(Err(ServeError::RebuildPanicked));
    if let Err(e) = &result {
        let mut st = lock_stream(&service.stream);
        let op = match goal {
            RebuildGoal::Replace => IncidentOp::Rebuild,
            RebuildGoal::Compact { .. } => {
                // Let a later insert batch (or retry tick) start a fresh
                // compaction.
                st.compacting = false;
                IncidentOp::Compaction
            }
        };
        record_failure(service, &mut st, op, e.clone());
    }
    service.tickets.advance();
    result
}

/// The publish half of [`run_rebuild`], split out so the caller can
/// guarantee ticket advancement around any early return.
fn publish_rebuild(
    service: &Arc<ConnectivityService>,
    graph: Graph,
    goal: &RebuildGoal,
    built: std::thread::Result<Result<BaseIndex, ServeError>>,
    start_ns: u64,
) -> Result<u64, ServeError> {
    let base = match built {
        Ok(Ok(base)) => Arc::new(base),
        Ok(Err(e)) => return Err(e),
        Err(_) => return Err(ServeError::RebuildPanicked),
    };
    let mut st = lock_stream(&service.stream);
    match *goal {
        RebuildGoal::Replace => {
            st.graph = graph;
            st.pending.clear();
            st.uf = UnionFind::new(base.index.num_components());
            st.merges = 0;
            st.base = Arc::clone(&base);
            // A rebuild's graph is real ground truth — a snapshot-booted
            // service regains compaction here, and a Degraded/ReadOnly
            // service regains Healthy: the explicit rebuild is the
            // operator's recovery lever.
            st.has_base_graph = true;
            st.compacting = false;
            st.generation += 1;
            mark_recovered(&mut st.health);
            ampc_obs::gauge(GaugeId::JournalPendingEntries).set(0);
            let epoch = service.cell.publish_with(|epoch| {
                Arc::new(PublishedIndex {
                    epoch,
                    base: Arc::clone(&base),
                    journal: None,
                    inserted_edges: 0,
                })
            });
            ampc_obs::counter(CounterId::EpochsPublished).inc();
            ampc_obs::trace(TraceKind::EpochPublished, epoch, 0);
            Ok(epoch)
        }
        RebuildGoal::Compact { consumed, generation } => {
            if st.generation != generation {
                // A Replace landed while we compacted: our base (and the
                // pending edges we consumed) belong to a dead lineage.
                // Publishing would clobber the newer graph — abandon.
                // Not a failure and not a success: health is untouched.
                st.compacting = false;
                let epoch = service.cell.epoch();
                ampc_obs::trace(TraceKind::CompactionYielded, epoch, 0);
                return Ok(epoch);
            }
            // Compute the replay state *before* mutating anything, so a
            // failure here (the `compact.publish` failpoint, or a journal
            // freeze error) leaves the stream state exactly as it was —
            // the in-flight journal lineage keeps serving.
            fault::check(Site::CompactPublish)?;
            let c = base.index.num_components();
            let mut uf = UnionFind::new(c);
            let mut merges = 0usize;
            for &(u, v) in st.pending.iter().skip(consumed) {
                // Replayed edges were validated at insert time and the
                // compacted graph has the same vertex count.
                if uf.union(base.index.component_of(u), base.index.component_of(v)) {
                    merges += 1;
                }
            }
            let journal = build_journal(&mut uf, merges, &base)?;
            st.graph = graph;
            st.pending.drain(..consumed);
            st.uf = uf;
            st.merges = merges;
            st.base = Arc::clone(&base);
            st.compacting = false;
            mark_recovered(&mut st.health);
            let inserted_edges = st.pending.len();
            let is_journal = journal.is_some();
            let epoch = service.cell.publish_with(|epoch| {
                Arc::new(PublishedIndex { epoch, base: Arc::clone(&base), journal, inserted_edges })
            });
            let duration_ns = ampc_obs::monotonic_ns().saturating_sub(start_ns);
            ampc_obs::hist(HistId::CompactionNs).record(duration_ns);
            ampc_obs::counter(CounterId::CompactionsFinished).inc();
            ampc_obs::counter(CounterId::EpochsPublished).inc();
            ampc_obs::gauge(GaugeId::JournalPendingEntries).set(inserted_edges as i64);
            ampc_obs::trace(TraceKind::CompactionFinished, epoch, duration_ns);
            ampc_obs::trace(TraceKind::EpochPublished, epoch, is_journal as u64);
            Ok(epoch)
        }
    }
}

/// Handle to an in-flight background rebuild.
///
/// Dropping the handle **joins** the rebuild and logs a failure to stderr —
/// the old behavior (silently detaching the thread and discarding its
/// error) meant a failed rebuild was indistinguishable from a slow one.
/// Call [`RebuildHandle::detach`] when fire-and-forget is really wanted.
pub struct RebuildHandle {
    join: Option<JoinHandle<Result<u64, ServeError>>>,
}

impl RebuildHandle {
    /// Blocks until the rebuild publishes (returning its epoch number) or
    /// fails (returning the error; nothing was published).
    pub fn wait(mut self) -> Result<u64, ServeError> {
        let join = self.join.take().expect("wait consumes the only join handle");
        join.join().map_err(|_| ServeError::RebuildPanicked)?
    }

    /// True once the background thread has finished (the result is ready
    /// and `wait` will not block).
    pub fn is_finished(&self) -> bool {
        self.join.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Explicitly lets the rebuild finish in the background. The result is
    /// discarded; the publish (or not, on failure) still happens in ticket
    /// order.
    pub fn detach(mut self) {
        self.join.take();
    }
}

impl Drop for RebuildHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            match join.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => eprintln!("ampc-serve: dropped rebuild failed: {e}"),
                Err(_) => eprintln!("ampc-serve: dropped rebuild panicked"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::DhtBackend;
    use ampc_cc::pipeline::Algorithm;
    use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
    use ampc_graph::reference_components;
    use ampc_query::Query;

    fn spec() -> PipelineSpec {
        PipelineSpec::default().with_seed(42).with_machines(4)
    }

    #[test]
    fn build_serves_a_validated_epoch_zero() {
        let g = random_forest(2000, 13, 7);
        let truth = reference_components(&g);
        let service = ServiceBuilder::new(g).spec(spec()).build().expect("build");
        let snap = service.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.algorithm().number(), 1);
        assert_eq!(snap.graph_size().0, 2000);
        assert_eq!(snap.index().num_components(), 13);
        assert!(!snap.is_journal());
        // Byte-identical to the reference-built index (partition purity).
        assert_eq!(*snap.index(), ComponentIndex::build(&truth));
        assert!(snap.labeling().same_partition(&truth));
        assert!(snap.stats().rounds() > 0);
    }

    #[test]
    fn rebuild_publishes_new_epochs_while_old_snapshots_answer() {
        let g0 = random_forest(500, 5, 1);
        let g1 = random_forest(800, 9, 2);
        let service = ServiceBuilder::new(g0).spec(spec()).build().unwrap();
        let old = service.snapshot();
        assert_eq!(old.index().num_components(), 5);

        let epoch = service.rebuild_blocking(g1).expect("rebuild");
        assert_eq!(epoch, 1);
        assert_eq!(service.current_epoch(), 1);
        // The old snapshot still answers against its pinned epoch…
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.index().num_components(), 5);
        // …and new snapshots see the new graph.
        let new = service.snapshot();
        assert_eq!(new.epoch(), 1);
        assert_eq!(new.index().num_components(), 9);
        assert_eq!(new.graph_size().0, 800);
    }

    #[test]
    fn clones_share_the_epoch_cell() {
        let service = ServiceBuilder::new(random_forest(300, 3, 4)).spec(spec()).build().unwrap();
        let clone = service.clone();
        clone.rebuild_blocking(random_forest(300, 7, 5)).unwrap();
        assert_eq!(service.current_epoch(), 1);
        assert_eq!(service.snapshot().index().num_components(), 7);
    }

    #[test]
    fn retired_epochs_are_freed_once_unpinned() {
        let service = ServiceBuilder::new(random_forest(200, 2, 6)).spec(spec()).build().unwrap();
        let snap0 = service.snapshot();
        let weak0 = snap0.downgrade();
        service.rebuild_blocking(random_forest(200, 4, 7)).unwrap();
        service.rebuild_blocking(random_forest(200, 6, 8)).unwrap();
        assert!(weak0.upgrade().is_some(), "pinned epoch 0 must stay alive");
        drop(snap0);
        assert!(weak0.upgrade().is_none(), "unpinned retired epoch must be freed");
    }

    #[test]
    fn spec_is_honored_by_rebuilds() {
        let spec = PipelineSpec::default()
            .with_seed(9)
            .with_algorithm(Algorithm::General)
            .with_backend(DhtBackend::Flat)
            .with_k(3);
        let service =
            ServiceBuilder::new(erdos_renyi_gnm(400, 900, 3)).spec(spec.clone()).build().unwrap();
        assert_eq!(service.spec(), &spec);
        assert_eq!(service.snapshot().algorithm().number(), 2);
        service.rebuild_blocking(erdos_renyi_gnm(500, 1200, 4)).unwrap();
        let snap = service.snapshot();
        assert_eq!(snap.algorithm().number(), 2);
        let truth = reference_components(&erdos_renyi_gnm(500, 1200, 4));
        assert_eq!(*snap.index(), ComponentIndex::build(&truth));
    }

    #[test]
    fn snapshots_of_one_epoch_answer_identically() {
        let g = random_forest(1000, 11, 10);
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();
        let a = service.snapshot();
        let b = service.snapshot();
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.index(), b.index());
        for v in 0..1000u32 {
            assert_eq!(
                a.engine().answer(Query::ComponentOf(v)),
                b.engine().answer(Query::ComponentOf(v))
            );
        }
    }

    #[test]
    fn insert_edges_publishes_journal_epochs_matching_a_fresh_oracle() {
        // A forest of 8 trees; stitch trees together batch by batch and
        // check the journal answers equal a from-scratch union-find build
        // of the accumulated graph after every batch.
        let g = random_forest(600, 8, 11);
        let mut all_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();

        let batches: Vec<Vec<(VertexId, VertexId)>> =
            vec![vec![(0, 599), (5, 5)], vec![(10, 590), (0, 5)], vec![(300, 301)]];
        for (i, batch) in batches.iter().enumerate() {
            let report = service.insert_edges(batch).expect("insert");
            assert_eq!(report.epoch, i as u64 + 1);
            assert_eq!(report.applied, batch.len());
            all_edges.extend_from_slice(batch);
            let oracle =
                ComponentIndex::build(&reference_components(&Graph::from_edges(600, &all_edges)));
            let snap = service.snapshot();
            assert_eq!(snap.epoch(), report.epoch);
            assert_eq!(snap.num_components(), oracle.num_components());
            assert_eq!(report.components, oracle.num_components());
            let eng = snap.engine();
            for v in 0..600u32 {
                assert_eq!(
                    eng.answer(Query::ComponentOf(v)),
                    oracle.component_of(v) as u64,
                    "vertex {v} after batch {i}"
                );
                assert_eq!(eng.answer(Query::ComponentSize(v)), oracle.component_size(v) as u64);
            }
            for k in 1..=9u32 {
                assert_eq!(
                    eng.answer(Query::TopKSize(k)),
                    oracle.kth_largest_size(k as usize) as u64
                );
            }
        }
    }

    #[test]
    fn insert_batches_are_atomic_on_out_of_range_vertices() {
        let service = ServiceBuilder::new(random_forest(100, 4, 12)).spec(spec()).build().unwrap();
        let before = service.current_epoch();
        let err = service.insert_edges(&[(0, 50), (3, 100)]).unwrap_err();
        assert_eq!(err, ServeError::VertexOutOfRange { vertex: 100, n: 100 });
        // Nothing applied, nothing published — including the valid edge.
        assert_eq!(service.current_epoch(), before);
        let report = service.insert_edges(&[(0, 50)]).expect("valid batch");
        assert_eq!(report.epoch, before + 1);
        // The service still answers after the rejected batch.
        assert!(service.snapshot().engine().try_answer(Query::Connected(0, 50)).is_some());
    }

    #[test]
    fn duplicate_and_intra_component_edges_publish_identity_epochs() {
        let g = random_forest(200, 2, 13);
        let idx = ComponentIndex::build(&reference_components(&g));
        let comp0: Vec<VertexId> = (0..200u32).filter(|&v| idx.component_of(v) == 0).collect();
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();
        // An edge inside one existing component merges nothing.
        let report = service.insert_edges(&[(comp0[0], comp0[1])]).unwrap();
        assert_eq!(report.new_merges, 0);
        assert_eq!(report.journal_merges, 0);
        let snap = service.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert!(!snap.is_journal(), "no merges ⇒ no journal, just a fresh epoch on the base");
        assert_eq!(snap.num_components(), 2);
    }

    #[test]
    fn rebuild_resets_the_journal_lineage() {
        let service = ServiceBuilder::new(random_forest(300, 6, 14)).spec(spec()).build().unwrap();
        service.insert_edges(&[(0, 299)]).unwrap();
        assert!(service.snapshot().is_journal() || service.snapshot().num_components() == 5);
        let g2 = random_forest(150, 3, 15);
        let truth2 = reference_components(&g2);
        service.rebuild_blocking(g2).unwrap();
        let snap = service.snapshot();
        assert!(!snap.is_journal(), "a full rebuild starts a clean lineage");
        assert_eq!(*snap.index(), ComponentIndex::build(&truth2));
        // Inserts after the rebuild validate against the *new* graph.
        let err = service.insert_edges(&[(0, 200)]).unwrap_err();
        assert_eq!(err, ServeError::VertexOutOfRange { vertex: 200, n: 150 });
    }

    #[test]
    fn over_budget_insertions_trigger_a_compaction_rebuild() {
        let g = random_forest(400, 10, 16);
        let mut all_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let service = ServiceBuilder::new(g)
            .spec(spec())
            .journal_budget(JournalBudget::new(2, usize::MAX))
            .build()
            .unwrap();
        let batch = [(0u32, 399u32), (1, 398), (2, 397)];
        all_edges.extend_from_slice(&batch);
        let report = service.insert_edges(&batch).unwrap();
        assert!(report.compaction_started, "3 edges > budget of 2 must compact");
        // Poll until the compaction publishes a journal-free base epoch.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let snap = service.snapshot();
            if snap.epoch() > report.epoch && !snap.is_journal() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "compaction never landed");
            std::thread::yield_now();
        }
        let snap = service.snapshot();
        let oracle =
            ComponentIndex::build(&reference_components(&Graph::from_edges(400, &all_edges)));
        assert_eq!(*snap.index(), oracle, "compacted base must equal the fresh oracle");
        // The journal lineage restarted: new inserts build on the new base.
        let r2 = service.insert_edges(&[(3, 396)]).unwrap();
        assert_eq!(r2.journal_edges, 1);
    }

    // Failpoint-driven state-machine coverage lives in tests/chaos.rs —
    // the fault registry is process-global and lib tests run in parallel,
    // so only failpoint-free behavior is exercised here.

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_consecutive_failures: 5,
            base_backoff_ms: 100,
            max_backoff_ms: 1000,
            max_incidents: 8,
        };
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff_ms(4), 800);
        assert_eq!(p.backoff_ms(5), 1000, "capped");
        assert_eq!(p.backoff_ms(60), 1000, "shift is clamped, no overflow");
        assert_eq!(p.backoff_ms(0), 100, "defensive: streak 0 behaves like 1");
    }

    #[test]
    fn manual_clock_is_shared_across_clones() {
        let clock = Arc::new(ampc_obs::ManualClock::new(0));
        let service = ServiceBuilder::new(random_forest(100, 2, 20))
            .spec(spec())
            .clock(clock.clone())
            .build()
            .unwrap();
        let alias = service.clone();
        assert_eq!(alias.service.now_ms(), 0);
        clock.advance(250_999_999);
        assert_eq!(alias.service.now_ms(), 250, "whole milliseconds of the injected clock");
    }

    #[test]
    fn service_starts_healthy_with_an_empty_incident_log() {
        let service = ServiceBuilder::new(random_forest(100, 2, 20)).spec(spec()).build().unwrap();
        let health = service.health();
        assert_eq!(health.state, HealthState::Healthy);
        assert_eq!(health.consecutive_failures, 0);
        assert_eq!(health.total_incidents, 0);
        assert!(health.incidents.is_empty());
        assert_eq!(health.retry_in_ms, None);
        assert!(!service.tick(), "healthy services have nothing to retry");
    }

    #[test]
    fn boot_fallback_builds_and_records_the_snapshot_failure() {
        let path = std::env::temp_dir()
            .join(format!("ampc_serve_no_such_snapshot_{}.snap", std::process::id()));
        let g = random_forest(400, 7, 21);
        let truth = reference_components(&g);
        let (service, source) =
            ServiceBuilder::new(g).spec(spec()).from_snapshot_or_rebuild(&path).expect("fallback");
        assert_eq!(source, BootSource::RebuildFallback);
        assert_eq!(*service.snapshot().index(), ComponentIndex::build(&truth));
        let health = service.health();
        // The failure is observable but the fallback service is healthy.
        assert_eq!(health.state, HealthState::Healthy);
        assert_eq!(health.total_incidents, 1);
        assert_eq!(health.incidents[0].op, IncidentOp::Boot);
        assert!(matches!(health.incidents[0].error, ServeError::SnapshotBoot(_)));
    }

    #[test]
    fn boot_from_snapshot_with_matching_graph_keeps_compaction() {
        let path =
            std::env::temp_dir().join(format!("ampc_serve_boot_chain_{}.snap", std::process::id()));
        let g = random_forest(300, 5, 22);
        let origin = ServiceBuilder::new(g.clone()).spec(spec()).build().unwrap();
        origin.persist(&path).expect("persist");

        let (replica, source) = ServiceBuilder::new(g)
            .spec(spec())
            .journal_budget(JournalBudget::new(1, usize::MAX))
            .from_snapshot_or_rebuild(&path)
            .expect("boot");
        assert_eq!(source, BootSource::Snapshot);
        assert_eq!(replica.health().total_incidents, 0);
        // The builder's graph became ground truth: over-budget inserts
        // compact, which plain `from_snapshot` cannot do.
        let report = replica.insert_edges(&[(0, 299), (1, 298)]).expect("insert");
        assert!(report.compaction_started, "matching graph must re-enable compaction");

        // A vertex-count mismatch falls back to the edge-less boot.
        let (replica2, source2) = ServiceBuilder::new(random_forest(10, 1, 23))
            .spec(spec())
            .journal_budget(JournalBudget::new(1, usize::MAX))
            .from_snapshot_or_rebuild(&path)
            .expect("boot");
        assert_eq!(source2, BootSource::Snapshot);
        let report2 = replica2.insert_edges(&[(0, 299), (1, 298)]).expect("insert");
        assert!(!report2.compaction_started, "mismatched graph must not become ground truth");

        std::fs::remove_file(&path).ok();
    }
}
