//! [`ServiceBuilder`]: the three ways a service gets its epoch 0 — a
//! pipeline build, a snapshot boot, and the boot fallback chain that tries
//! the second and falls back to the first.

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use ampc::RunStats;
use ampc_cc::pipeline::{PipelineError, PipelineSpec, Resolved, ResolvedAlgorithm};
use ampc_graph::Graph;
use ampc_query::{snapshot, SnapshotError};

use super::error::ServeError;
use super::handle::{announce_epoch, ConnectivityService, JournalBudget, ServiceHandle};
use super::health::{HealthInner, IncidentOp};
use super::published::{BaseIndex, PublishedIndex};

/// Builder for a [`ServiceHandle`]: `ServiceBuilder::new(graph)
/// .spec(spec).build()?` runs the pipeline once (synchronously), validates
/// and indexes the result, and publishes it as epoch 0.
pub struct ServiceBuilder {
    /// The input of the first build; the service does not keep it.
    graph: Graph,
    settings: Settings,
    announce: Option<Box<Announce>>,
}

/// What [`ServiceBuilder::announce`] hands the spec's resolution to.
type Announce = dyn FnOnce(&Result<Resolved<'_>, PipelineError>) + Send;

/// What a service keeps from its builder.
struct Settings {
    spec: PipelineSpec,
    budget: JournalBudget,
}

impl Settings {
    fn new(spec: PipelineSpec) -> Self {
        Settings { spec, budget: JournalBudget::default() }
    }

    /// The tail of every epoch-0 path below: publishes a finished base as
    /// epoch 0 of a Healthy service.
    fn publish_epoch_zero(self, base: Arc<BaseIndex>) -> ServiceHandle {
        let payload = PublishedIndex { epoch: 0, base, journal: None, inserted_edges: 0 };
        let service = ConnectivityService {
            current: RwLock::new(Arc::new(payload)),
            spec: self.spec,
            budget: self.budget,
            stream: Mutex::new(HealthInner::new()),
        };
        announce_epoch(0, false, 0);
        ServiceHandle { service: Arc::new(service) }
    }
}

/// Where [`ServiceBuilder::from_snapshot_or_rebuild`] got its epoch 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootSource {
    /// The snapshot loaded and validated; epoch 0 is its decoded index.
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
        ServiceBuilder { graph, settings: Settings::new(PipelineSpec::default()), announce: None }
    }

    /// Sets the pipeline spec used for the initial build and every rebuild.
    pub fn spec(mut self, spec: PipelineSpec) -> Self {
        self.settings.spec = spec;
        self
    }

    /// Sets the journal budget past which an insert compacts.
    pub fn journal_budget(mut self, budget: JournalBudget) -> Self {
        self.settings.budget = budget;
        self
    }

    /// Hands the spec's one resolution over the graph to `announce` before
    /// epoch 0's pipeline runs (or is refused), so a caller that reports
    /// the algorithm does not resolve the graph a second time. A snapshot
    /// boot runs no pipeline and calls nothing.
    pub fn announce(
        mut self,
        announce: impl FnOnce(&Result<Resolved<'_>, PipelineError>) + Send + 'static,
    ) -> Self {
        self.announce = Some(Box::new(announce));
        self
    }

    /// Resolves the spec over the graph once, runs the pipeline, validates,
    /// indexes, and publishes epoch 0.
    pub fn build(self) -> Result<ServiceHandle, ServeError> {
        let ServiceBuilder { graph, settings, announce } = self;
        let resolution = settings.spec.resolve(&graph);
        if let Some(announce) = announce {
            announce(&resolution);
        }
        let base = Arc::new(BaseIndex::build(resolution?)?);
        Ok(settings.publish_epoch_zero(base))
    }

    /// Boot fallback chain: try the snapshot first, and if it is missing,
    /// truncated, or corrupt — any [`SnapshotError`] — fall back to a
    /// pipeline build over the builder's graph instead of refusing to
    /// start. The failure is not swallowed: it is recorded as a
    /// [`IncidentOp::Boot`] incident (typed
    /// [`ServeError::SnapshotBoot`]) in the otherwise-Healthy fallback
    /// service, and the returned [`BootSource`] says which path won. On a
    /// snapshot boot the graph is not read: compaction folds the index and
    /// needs no edges.
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
                let base = base_from_snapshot(snap);
                Ok((self.settings.publish_epoch_zero(base), BootSource::Snapshot))
            }
            Err(snap_err) => {
                let boot_error = ServeError::SnapshotBoot(snap_err.to_string());
                let handle = self.build()?;
                handle.service.lock_stream().record_incident(IncidentOp::Boot, boot_error);
                Ok((handle, BootSource::RebuildFallback))
            }
        }
    }

    /// Boots a service from a snapshot on disk: header check, one bulk
    /// read, checksum validation, and epoch 0 is published with the index
    /// decoded and validated from the file — no pipeline run. This is how
    /// one pipeline run fans out to N serving replicas that boot in
    /// milliseconds.
    ///
    /// The booted service is a service like any other: it answers queries,
    /// accepts [`ServiceHandle::insert_edges`] and compacts past its budget
    /// (journal-epochs and the fold need only the index, which the snapshot
    /// carries). Rebuilds run the default spec, which picks the algorithm
    /// per graph as [`ServiceBuilder::new`]'s does: a replica booted from a
    /// forest's snapshot still rebuilds over a graph with a cycle.
    ///
    /// # Errors
    /// Any [`SnapshotError`]: i/o failure, foreign or damaged header,
    /// checksum mismatch, or semantic corruption. A corrupt snapshot never
    /// publishes anything.
    pub fn from_snapshot(path: impl AsRef<Path>) -> Result<ServiceHandle, SnapshotError> {
        let base = base_from_snapshot(snapshot::load(path.as_ref())?);
        Ok(Settings::new(PipelineSpec::default()).publish_epoch_zero(base))
    }
}

/// A loaded snapshot as an epoch-0 base (no pipeline ran: empty stats, zero
/// timings).
fn base_from_snapshot(snap: snapshot::Snapshot) -> Arc<BaseIndex> {
    let algorithm = match snap.algorithm {
        1 => ResolvedAlgorithm::Forest,
        _ => ResolvedAlgorithm::General,
    };
    let base = BaseIndex {
        index: snap.index,
        class_label: snap.class_label,
        labeling: OnceLock::new(),
        stats: RunStats::default(),
        algorithm,
        graph_n: snap.graph_n as usize,
        graph_m: snap.graph_m as usize,
        pipeline_ms: 0.0,
        index_ms: 0.0,
    };
    Arc::new(base)
}
