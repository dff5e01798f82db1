//! Sequenced background rebuilds: the explicit [`ServiceHandle::rebuild`]
//! and the budget-triggered compaction share one body, [`run_rebuild`].
//!
//! **Rebuild ordering**: rebuild requests take a ticket at request time and
//! publish strictly in ticket order, so a slow earlier-requested rebuild
//! can never overwrite a newer epoch (publish order used to be completion
//! order — a race). Journal publishes and rebuild publishes are serialized
//! through the stream lock, so the epoch sequence is a single total order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ampc_graph::{Graph, VertexId};
use ampc_obs::fault::{self, Site};
use ampc_obs::{CounterId, GaugeId, HistId, TraceKind};

use super::error::ServeError;
use super::handle::{lock_stream, next_journal, ConnectivityService, ServiceHandle, StreamState};
use super::health::IncidentOp;
use super::published::BaseIndex;

/// Ticket dispenser that forces rebuild publishes into request order:
/// `take` at request time, `wait_for` before publishing, `advance` after —
/// unconditionally, including on failure, so a dead rebuild never wedges
/// the queue.
#[derive(Debug)]
pub(super) struct RebuildTickets {
    state: Mutex<TicketState>,
    done: Condvar,
}

#[derive(Debug)]
struct TicketState {
    /// The next ticket to hand out.
    next: u64,
    /// The ticket whose turn it is to publish.
    turn: u64,
}

impl RebuildTickets {
    pub(super) fn new() -> Self {
        RebuildTickets { state: Mutex::new(TicketState { next: 0, turn: 0 }), done: Condvar::new() }
    }

    fn take(&self) -> u64 {
        ampc_obs::gauge(GaugeId::RebuildQueueDepth).add(1);
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let ticket = state.next;
        state.next += 1;
        ticket
    }

    fn wait_for(&self, ticket: u64) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while state.turn != ticket {
            state = self.done.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn advance(&self) {
        ampc_obs::gauge(GaugeId::RebuildQueueDepth).sub(1);
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.turn += 1;
        self.done.notify_all();
    }
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

impl ServiceHandle {
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
}

/// Kicks off a background compaction over the merged (base + pending)
/// graph. Caller holds the stream lock and has decided the compaction is
/// due. Fire-and-forget by design: the compaction reports through the
/// epoch cell and the health state machine (success → `Healthy`, failure
/// → incident + backoff), not through a handle.
pub(super) fn start_compaction_locked(service: &Arc<ConnectivityService>, st: &mut StreamState) {
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
        BaseIndex::build(&service.spec, &graph)
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
        st.health.record_failure(&service.policy, service.now_ms(), op, e.clone());
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
            st.base = Arc::clone(&base);
            // A rebuild's graph is real ground truth — a snapshot-booted
            // service regains compaction here, and a Degraded/ReadOnly
            // service regains Healthy: the explicit rebuild is the
            // operator's recovery lever.
            st.has_base_graph = true;
            st.compacting = false;
            st.generation += 1;
            st.health.mark_recovered();
            Ok(service.publish(&base, None, 0))
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
            // Compute the replayed journal *before* mutating anything, so
            // a failure here (the `compact.publish` or `journal.build`
            // failpoint) leaves the stream state exactly as it was — the
            // in-flight journal lineage keeps serving. The replay is one
            // batch on the bare new base; its edges were validated at
            // insert time and the compacted graph has the same vertices.
            fault::check(Site::CompactPublish)?;
            let journal = next_journal(None, &base, &st.pending[consumed..])?;
            st.graph = graph;
            st.pending.drain(..consumed);
            st.base = Arc::clone(&base);
            st.compacting = false;
            st.health.mark_recovered();
            let epoch = service.publish(&base, journal, st.pending.len());
            let duration_ns = ampc_obs::monotonic_ns().saturating_sub(start_ns);
            ampc_obs::hist(HistId::CompactionNs).record(duration_ns);
            ampc_obs::counter(CounterId::CompactionsFinished).inc();
            ampc_obs::trace(TraceKind::CompactionFinished, epoch, duration_ns);
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
