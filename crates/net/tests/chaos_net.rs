//! Network chaos: deterministic `net.*` failpoint schedules cut the wire
//! mid-workload and the client harness must see **typed** errors, retry,
//! and converge to the oracle checksum — never a torn frame, a wrong
//! answer, or a hung worker.
//!
//! The fault registry is process-global, so every test serializes through
//! [`FaultSession`] and leaves the registry disarmed on exit.

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard};

use ampc_graph::generators::random_forest;
use ampc_graph::reference_components;
use ampc_net::protocol::{encode_header, write_frame};
use ampc_net::{ClientError, Connection, HarnessConfig, Opcode, ServerConfig};
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, Query, QueryEngine};
use ampc_serve::fault::{self, FaultAction, Site};
use ampc_serve::ServiceBuilder;

const N: usize = 300;
const SEED: u64 = 0xC4A05;

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

fn start_server() -> (ampc_net::ServerHandle, ComponentIndex) {
    let graph = random_forest(N, 6, SEED);
    let index = ComponentIndex::build(&reference_components(&graph));
    let service = ServiceBuilder::new(graph).build().expect("service");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = ampc_net::serve(service, listener, ServerConfig::default()).expect("serve");
    (server, index)
}

fn oracle_checksum(index: &ComponentIndex, queries: &[Query]) -> u64 {
    let engine = QueryEngine::new(index);
    queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)))
}

/// `net.read` firing on the server cuts connections mid-workload; the
/// harness retries, reconnects, and still converges to the oracle
/// checksum. The injected faults demonstrably fired.
#[test]
fn read_faults_retry_and_converge() {
    let _session = FaultSession::begin();
    let (server, index) = start_server();
    let queries = workload::generate(&index, Mix::Uniform, 2_000, SEED);
    let expected = oracle_checksum(&index, &queries);

    // Fire every 5th traversal, 6 times total: both the server's frame
    // reads and the clients' response reads traverse the site, so cuts
    // land on both sides of the wire.
    fault::arm(Site::NetRead, FaultAction::Error, 4, 6);

    let report = ampc_net::run_harness(
        server.local_addr(),
        &queries,
        HarnessConfig { connections: 2, batch: 100, retries: 8 },
    )
    .expect("harness must converge despite read faults");
    assert!(fault::fired(Site::NetRead) >= 1, "schedule must actually fire");
    let retries: u64 = report.per_worker.iter().map(|w| w.retries).sum();
    assert!(retries >= 1, "cut connections must have been retried");
    assert_eq!(report.checksum, expected, "converged answers must match the oracle exactly");
}

/// Same for `net.write`: a cut on the write side (server's reply or the
/// client's request) is a typed transport error, retried to convergence.
#[test]
fn write_faults_retry_and_converge() {
    let _session = FaultSession::begin();
    let (server, index) = start_server();
    let queries = workload::generate(&index, Mix::CrossComponent, 2_000, SEED ^ 1);
    let expected = oracle_checksum(&index, &queries);

    fault::arm(Site::NetWrite, FaultAction::Error, 6, 5);

    let report = ampc_net::run_harness(
        server.local_addr(),
        &queries,
        HarnessConfig { connections: 2, batch: 100, retries: 8 },
    )
    .expect("harness must converge despite write faults");
    assert!(fault::fired(Site::NetWrite) >= 1, "schedule must actually fire");
    assert_eq!(report.checksum, expected);
}

/// `net.accept` firing drops connections before admission; the harness's
/// connect retries ride it out and the workload still completes.
#[test]
fn accept_faults_drop_connections_but_workload_completes() {
    let _session = FaultSession::begin();
    let (server, index) = start_server();
    let queries = workload::generate(&index, Mix::Uniform, 1_000, SEED ^ 2);
    let expected = oracle_checksum(&index, &queries);

    // Drop the first 2 accepted connections outright.
    fault::arm(Site::NetAccept, FaultAction::Error, 0, 2);

    let report = ampc_net::run_harness(
        server.local_addr(),
        &queries,
        HarnessConfig { connections: 2, batch: 100, retries: 8 },
    )
    .expect("harness must converge despite dropped accepts");
    assert_eq!(fault::fired(Site::NetAccept), 2, "both scheduled drops must fire");
    assert_eq!(report.checksum, expected);
}

/// Accepts one byte per call and is interrupted before every other one:
/// the slowest writer `write_frame` has to finish a frame through.
#[derive(Default)]
struct OneByteWriter {
    bytes: Vec<u8>,
    calls: usize,
}

impl std::io::Write for OneByteWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls % 2 == 1 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.bytes.extend_from_slice(&buf[..buf.len().min(1)]);
        Ok(buf.len().min(1))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One frame is `header ‖ payload` byte for byte — through a writer that
/// takes it whole and through one that takes a byte at a time — and one
/// traversal of `net.write`, however many writes it took.
#[test]
fn write_frame_is_one_frame_and_one_failpoint_traversal() {
    let _session = FaultSession::begin();
    // Armed far beyond this test's traversals: it counts them, never fires.
    fault::arm(Site::NetWrite, FaultAction::Error, 1 << 20, 1);

    for payload in [&b""[..], b"x", &[0x5A; 3000]] {
        let mut expected = encode_header(Opcode::RespAnswers, payload.len() as u32, 9).to_vec();
        expected.extend_from_slice(payload);

        let before = fault::armed_hits(Site::NetWrite);
        let mut whole = Vec::new();
        write_frame(&mut whole, Opcode::RespAnswers, 9, payload).expect("write into a Vec");
        assert_eq!(whole, expected);
        assert_eq!(fault::armed_hits(Site::NetWrite) - before, 1);

        let before = fault::armed_hits(Site::NetWrite);
        let mut dribble = OneByteWriter::default();
        write_frame(&mut dribble, Opcode::RespAnswers, 9, payload).expect("write byte by byte");
        assert_eq!(dribble.bytes, expected);
        assert_eq!(dribble.calls, 2 * expected.len(), "every byte was its own interrupted write");
        assert_eq!(fault::armed_hits(Site::NetWrite) - before, 1);
    }
    assert_eq!(fault::fired(Site::NetWrite), 0);

    // A writer that accepts nothing is an error, not a spin.
    let err = write_frame(&mut &mut [0u8; 4][..], Opcode::Health, 1, b"").expect_err("full sink");
    assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
}

/// With retries disabled, an injected wire fault surfaces as a typed
/// error — the client is never handed a torn or wrong answer.
#[test]
fn fail_fast_surfaces_typed_errors_never_wrong_answers() {
    let _session = FaultSession::begin();
    let (server, index) = start_server();
    let queries = workload::generate(&index, Mix::Uniform, 500, SEED ^ 3);

    fault::arm(Site::NetWrite, FaultAction::Error, 2, 1);

    let result = ampc_net::run_harness(
        server.local_addr(),
        &queries,
        HarnessConfig { connections: 1, batch: 50, retries: 0 },
    );
    match result {
        Err(ClientError::Io(_)) | Err(ClientError::Closed) => {}
        Err(other) => panic!("expected a typed transport error, got: {other}"),
        Ok(report) => {
            // The schedule may land entirely on the server's reply write
            // for a frame the client already gave up on — but if the run
            // completed, every answer must still be exact.
            assert_eq!(report.checksum, oracle_checksum(&index, &queries));
        }
    }
    assert_eq!(fault::fired(Site::NetWrite), 1, "the scheduled fault must fire");

    // The server survives and serves cleanly once the schedule is spent.
    let mut conn = Connection::connect(server.local_addr()).expect("fresh connect");
    let answers = conn.query_batch(&queries[..50]).expect("clean exchange after fault");
    let engine = QueryEngine::new(&index);
    let expect: Vec<u64> = queries[..50].iter().map(|&q| engine.answer(q)).collect();
    assert_eq!(answers, expect);
}
