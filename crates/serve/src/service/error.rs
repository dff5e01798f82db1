//! The serving layer's one error type.

use ampc_cc::pipeline::PipelineError;
use ampc_graph::VertexId;
use ampc_obs::fault::InjectedFault;

#[cfg(doc)]
use super::{HealthState, ServiceBuilder, ServiceHandle};

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The underlying pipeline run failed or refused its input (an
    /// explicit forest spec on a graph with a cycle).
    Pipeline(PipelineError),
    /// The pipeline produced a labeling that does not validate against the
    /// graph (index construction refused it).
    InvalidLabeling(String),
    /// An explicit rebuild's pipeline build panicked (the panic was caught).
    RebuildPanicked,
    /// An inserted edge names a vertex the current graph does not have.
    /// The whole batch is rejected: nothing was applied or published.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// Vertex count of the current graph.
        n: usize,
    },
    /// The service is in the [`HealthState::ReadOnly`] state after
    /// repeated failures: inserts are refused, reads keep serving the
    /// last published epoch, and a successful explicit
    /// [`ServiceHandle::rebuild_blocking`] restores service.
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
            ServeError::RebuildPanicked => write!(f, "rebuild panicked"),
            ServeError::VertexOutOfRange { vertex, n } => {
                write!(f, "inserted edge names vertex {vertex} but the graph has {n} vertices")
            }
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

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}

impl From<InjectedFault> for ServeError {
    fn from(f: InjectedFault) -> Self {
        ServeError::Injected { site: f.site.name() }
    }
}
