//! Health over the wire, end-to-end: deterministic failpoint schedules
//! drive the degradation state machine through Degraded and
//! ReadOnly, and every transition must be visible — and exact — through
//! the Health opcode. Write opcodes are refused with the typed ReadOnly
//! wire code; reads keep serving the last good epoch throughout; an
//! explicit rebuild restores Healthy on the wire.

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard};

use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::generators::random_forest;
use ampc_graph::reference_components;
use ampc_graph::{Graph, VertexId};
use ampc_net::{Connection, ErrorCode, ServerConfig};
use ampc_query::{ComponentIndex, Query, QueryEngine};
use ampc_serve::fault::{self, FaultAction, Site};
use ampc_serve::{HealthState, JournalBudget, RetryPolicy, ServiceBuilder, ServiceHandle};

const N: usize = 150;

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

/// The wire health must agree with the in-process `ServiceHandle::health`
/// on every field the protocol carries.
fn assert_wire_matches(conn: &mut Connection, service: &ServiceHandle, what: &str) {
    let wire = conn.health().expect("health rpc");
    let local = service.health();
    assert_eq!(wire.state, local.state as u8, "{what}: wire state diverged");
    assert_eq!(
        wire.consecutive_failures, local.consecutive_failures,
        "{what}: consecutive failures diverged"
    );
    assert_eq!(wire.total_incidents, local.total_incidents, "{what}: incident count diverged");
    assert_eq!(wire.epoch, service.current_epoch(), "{what}: epoch diverged");
}

#[test]
fn degradation_walk_is_visible_and_exact_on_the_wire() {
    let _s = FaultSession::begin();
    let graph = random_forest(N, 6, 0x8EA1);
    let mut edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    let index = ComponentIndex::build(&reference_components(&graph));
    let service = ServiceBuilder::new(graph)
        .spec(PipelineSpec::default().with_seed(0x8EA1).with_machines(4))
        // Zero edge budget: every insert folds, and the armed failpoint
        // fails each fold deterministically.
        .journal_budget(JournalBudget::new(0))
        .retry_policy(RetryPolicy { max_consecutive_failures: 2, max_incidents: 8 })
        .build()
        .expect("service");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server =
        ampc_net::serve(service.clone(), listener, ServerConfig::default()).expect("serve");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");

    assert_wire_matches(&mut conn, &service, "healthy baseline");
    assert_eq!(conn.health().expect("health").state_name(), "healthy");

    // A read answered now fingerprints the last good epoch; it must keep
    // being served unchanged through every degraded state below.
    let engine = QueryEngine::new(&index);
    let probes: Vec<Query> = (0..32).map(|v| Query::ComponentSize(v as u32)).collect();
    let good_epoch_answers: Vec<u64> = probes.iter().map(|&q| engine.answer(q)).collect();

    // Strike 1 (over the wire): insert → fold → injected failure →
    // Degraded. The insert itself succeeds (journal path).
    fault::arm(Site::CompactPublish, FaultAction::Error, 0, u64::MAX);
    let report = conn.insert_edges(&[(0, (N - 1) as VertexId)]).expect("degraded insert lands");
    assert_eq!(report.applied, 1);
    edges.push((0, (N - 1) as VertexId));
    assert_eq!(service.health().state, HealthState::Degraded);
    assert_wire_matches(&mut conn, &service, "after first strike");
    assert_eq!(conn.health().expect("health").state_name(), "degraded");

    // Strike 2: the next insert retries the fold, which fails → ReadOnly.
    let report = conn.insert_edges(&[(2, 3)]).expect("the second strike's batch lands");
    assert_eq!(report.epoch, service.current_epoch());
    edges.push((2, 3));
    assert_eq!(service.health().state, HealthState::ReadOnly);
    assert_wire_matches(&mut conn, &service, "after second strike");
    assert_eq!(conn.health().expect("health").state_name(), "read-only");

    // Write opcodes are refused with the typed wire code; the connection
    // stays open and keeps serving reads.
    let err = conn.insert_edges(&[(1, 2)]).expect_err("read-only refuses writes");
    match err {
        ampc_net::ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("expected typed ReadOnly, got: {other}"),
    }

    // Reads on that same connection still serve the last good epoch —
    // which includes the journal-epochs the successful inserts published.
    let wire_health = conn.health().expect("health while read-only");
    assert_eq!(wire_health.epoch, service.current_epoch());
    let answers = conn.query_batch(&probes).expect("reads keep serving");
    // The inserted edge merged two components; probe answers must match
    // the *current* snapshot, not regress past it, and not tear.
    let snap = service.snapshot();
    let expect: Vec<u64> = {
        let engine = snap.engine();
        probes.iter().map(|&q| engine.answer(q)).collect()
    };
    assert_eq!(answers, expect, "reads must serve exactly the last published epoch");
    let oracle = ComponentIndex::build(&reference_components(&Graph::from_edges(N, &edges)));
    let oracle_answers: Vec<u64> =
        probes.iter().map(|&q| QueryEngine::new(&oracle).answer(q)).collect();
    assert_eq!(answers, oracle_answers, "the last epoch answers like a build of its merged graph");
    // At minimum every component-size answer is >= its pre-insert value
    // (a merge can only grow components).
    for (now, before) in answers.iter().zip(&good_epoch_answers) {
        assert!(now >= before, "served epoch regressed past the last good one");
    }

    // The operator lever: disarm the faults, rebuild with fresh ground
    // truth, and the wire must report healthy again.
    fault::disarm_all();
    let recovered = Graph::from_edges(N, &edges);
    service.rebuild_blocking(recovered).expect("explicit rebuild restores service");
    assert_eq!(service.health().state, HealthState::Healthy);
    assert_wire_matches(&mut conn, &service, "after recovery");
    assert_eq!(conn.health().expect("health").state_name(), "healthy");
    let report = conn.insert_edges(&[(1, 2)]).expect("writes accepted again");
    assert!(report.applied == 1);
}
