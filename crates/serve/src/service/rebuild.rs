//! Sequenced background rebuilds ([`ServiceHandle::rebuild`]).
//!
//! **Rebuild ordering**: rebuild requests take a ticket at request time and
//! publish strictly in ticket order, so a slow earlier-requested rebuild
//! can never overwrite a newer epoch (publish order used to be completion
//! order — a race). Journal publishes and rebuild publishes are serialized
//! through the stream lock, so the epoch sequence is a single total order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ampc_graph::Graph;
use ampc_obs::fault::{self, Site};
use ampc_obs::GaugeId;

use super::error::ServeError;
use super::handle::{lock_stream, ConnectivityService, ServiceHandle};
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

impl ServiceHandle {
    /// Rebuilds the index over `graph` on a background thread and
    /// publishes it as a new base epoch. Readers keep answering against
    /// their pinned snapshots throughout; the swap is atomic. The journal
    /// riding on the current base is discarded — an explicit rebuild
    /// defines a new ground-truth graph.
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
        let join = std::thread::spawn(move || run_rebuild(&service, &graph, ticket));
        RebuildHandle { join: Some(join) }
    }

    /// Convenience: [`ServiceHandle::rebuild`] + wait.
    pub fn rebuild_blocking(&self, graph: Graph) -> Result<u64, ServeError> {
        self.rebuild(graph).wait()
    }
}

/// Body of every rebuild: run the pipeline (the expensive part, concurrent
/// with everything), wait for this ticket's turn, then publish — or record
/// the failure — under the stream lock. A pipeline failure or panic
/// (caught here) becomes a typed error and an incident instead of
/// disappearing with the thread; nothing between the wait and the
/// `advance` can fail, so one dead rebuild never wedges later ones.
fn run_rebuild(
    service: &ConnectivityService,
    graph: &Graph,
    ticket: u64,
) -> Result<u64, ServeError> {
    let built = catch_unwind(AssertUnwindSafe(|| {
        fault::check(Site::RebuildPipeline)?;
        BaseIndex::build(&service.spec, graph)
    }))
    .unwrap_or(Err(ServeError::RebuildPanicked));
    service.tickets.wait_for(ticket);
    let mut st = lock_stream(&service.stream);
    let result = match built {
        Ok(base) => {
            let base = Arc::new(base);
            st.base = Arc::clone(&base);
            st.inserted_edges = 0;
            // The rebuild's graph is the new ground truth, and a Degraded or
            // ReadOnly service regains Healthy: the explicit rebuild is the
            // operator's recovery lever.
            st.health.mark_recovered();
            Ok(service.publish(&base, None, 0))
        }
        Err(e) => {
            let op = IncidentOp::Rebuild;
            st.health.record_failure(&service.policy, service.now_ms(), op, e.clone());
            Err(e)
        }
    };
    drop(st);
    service.tickets.advance();
    result
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
