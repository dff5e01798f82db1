//! End-to-end loopback tests: every workload mix answered over the wire
//! byte-identical to the in-process oracle, epoch consistency under a
//! mid-flight rebuild, deterministic overload shedding, and the health /
//! metrics / insert opcodes round-tripping against live service state.

use std::net::TcpListener;

use ampc_graph::generators::random_forest;
use ampc_graph::reference_components;
use ampc_graph::Graph;
use ampc_net::protocol::{encode_header, encode_queries, QUERY_WIRE_LEN};
use ampc_net::{
    prom_histogram_quantiles, ClientError, Connection, HarnessConfig, Opcode, ServerConfig,
};
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, Query, QueryEngine};
use ampc_serve::ServiceBuilder;

const N: usize = 600;
const SEED: u64 = 0x4E7E2E;

fn test_graph() -> Graph {
    random_forest(N, 7, SEED)
}

fn start_server(
    service: ampc_serve::ServiceHandle,
    config: ServerConfig,
) -> ampc_net::ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    ampc_net::serve(service, listener, config).expect("start server")
}

fn oracle_checksum(index: &ComponentIndex, queries: &[Query]) -> u64 {
    let engine = QueryEngine::new(index);
    queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)))
}

/// Every mix, and every connection count × frame size: the wire checksum
/// equals the oracle's, and the latency histogram counts queries (one
/// length-weighted value per frame) with ordered quantiles.
#[test]
fn all_mixes_match_oracle_over_loopback() {
    let graph = test_graph();
    let oracle_index = ComponentIndex::build(&reference_components(&graph));
    let service = ServiceBuilder::new(graph).build().expect("service");
    let server = start_server(service, ServerConfig::default());
    let addr = server.local_addr();

    let mut sent = 0u64;
    let mut check = |mix: Mix, len: usize, seed: u64, connections: usize, batch: usize| {
        let queries = workload::generate(&oracle_index, mix, len, seed);
        sent += queries.len() as u64;
        let expected = oracle_checksum(&oracle_index, &queries);
        let cfg = HarnessConfig { connections, batch, retries: 0 };
        let report = ampc_net::run_harness(addr, &queries, cfg).expect("harness");
        let ctx = format!("mix {} × {connections} connections × batch {batch}", mix.name());
        assert_eq!(report.checksum, expected, "{ctx} diverged from oracle");
        assert_eq!((report.queries, report.threads, report.batch), (len, connections, batch));
        assert_eq!(report.latency.count, len as u64, "{ctx}: length-weighted");
        let q = [0.5, 0.9, 0.99, 0.999].map(|q| report.latency.quantile(q));
        assert!(q[0] > 0, "{ctx}: wire latency must be nonzero");
        assert!(q.windows(2).all(|w| w[0] <= w[1]) && q[3] <= report.latency.max, "{ctx}: {q:?}");
        assert_eq!(report.per_worker.len(), connections, "{ctx}");
    };
    for (i, mix) in Mix::STANDARD.into_iter().enumerate() {
        check(mix, 4_000, SEED ^ i as u64, 3, 128);
    }
    for connections in [1, 2, 3, 7] {
        for batch in [1, 7, 256] {
            check(Mix::Uniform, 1_000, SEED, connections, batch);
        }
    }
    let latency = server.service_latency();
    assert!(latency.count >= sent, "every wire query must land in the service histogram");
    assert!(latency.quantile(0.5) > 0, "service latency must be nonzero");
}

/// One connection, whose server-side buffers are reused frame after frame:
/// a 4 096-query frame equals the in-process engine answer for answer, an
/// empty frame answers empty, a short frame after the long one is not
/// padded with the long one's leftovers, and a frame whose *last* record
/// has an unknown tag gets one typed error frame and nothing else — no
/// partial reply for the 4 095 records that did decode.
#[test]
fn frames_of_any_size_share_one_connections_buffers() {
    let graph = test_graph();
    let index = ComponentIndex::build(&reference_components(&graph));
    let engine = QueryEngine::new(&index);
    let service = ServiceBuilder::new(graph).build().expect("service");
    let server = start_server(service, ServerConfig::default());
    let mut conn = Connection::connect(server.local_addr()).expect("connect");

    let long = workload::generate(&index, Mix::Uniform, 4096, SEED ^ 0x10);
    let short = workload::generate(&index, Mix::Zipf { exponent: 1.1 }, 64, SEED ^ 0x11);
    for frame in [&long[..], &[], &short[..], &long[..]] {
        let expected: Vec<u64> = frame.iter().map(|&q| engine.answer(q)).collect();
        assert_eq!(conn.query_batch(frame).expect("query batch"), expected);
    }
    assert_eq!(server.service_latency().count, 2 * 4096 + 64, "one weighted record per frame");

    let mut payload = encode_queries(&long);
    let last = payload.len() - QUERY_WIRE_LEN;
    payload[last] = 0x99;
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, 77).to_vec();
    frame.extend_from_slice(&payload);
    conn.send_raw(&frame).expect("send");
    let (header, body) = conn.recv_raw().expect("read").expect("one error frame");
    assert_eq!((header.opcode, header.request_id), (Opcode::RespError, 77));
    let (code, _) = ampc_net::protocol::decode_error(&body).expect("typed error");
    assert_eq!(code, ampc_net::ErrorCode::Malformed);
    assert!(conn.recv_raw().expect("eof").is_none(), "nothing follows the error frame");
}

/// A rebuild publishing mid-flight never tears a batch: every batch's
/// answers wholly match epoch A's oracle or epoch B's, never a mix.
#[test]
fn mid_flight_rebuild_keeps_batches_epoch_consistent() {
    let graph_a = random_forest(N, 5, 0xA11CE);
    let graph_b = random_forest(N, 11, 0xB0B);
    let index_a = ComponentIndex::build(&reference_components(&graph_a));
    let index_b = ComponentIndex::build(&reference_components(&graph_b));

    let service = ServiceBuilder::new(graph_a).build().expect("service");
    let server = start_server(service.clone(), ServerConfig::default());
    let addr = server.local_addr();

    let queries = workload::generate(&index_a, Mix::Uniform, 6_000, SEED);
    let engine_a = QueryEngine::new(&index_a);
    let engine_b = QueryEngine::new(&index_b);

    // Distinct per-batch fingerprints make the exactly-one-epoch check
    // non-vacuous for at least most batches.
    const BATCH: usize = 200;
    let mut conn = Connection::connect(addr).expect("connect");
    let rebuilder = service.clone();
    let mut rebuild = Some(std::thread::spawn(move || rebuilder.rebuild_blocking(graph_b)));
    let mut saw_b = false;
    for (i, batch) in queries.chunks(BATCH).enumerate() {
        // Let the rebuild land somewhere in the middle of the stream.
        if i == 10 {
            rebuild.take().expect("rebuild thread").join().expect("rebuilder").expect("rebuild");
        }
        let answers = conn.query_batch(batch).expect("query batch");
        let expect_a: Vec<u64> = batch.iter().map(|&q| engine_a.answer(q)).collect();
        let expect_b: Vec<u64> = batch.iter().map(|&q| engine_b.answer(q)).collect();
        let matches_a = answers == expect_a;
        let matches_b = answers == expect_b;
        assert!(
            matches_a || matches_b,
            "batch {i} matches neither epoch wholly: torn across the swap"
        );
        if matches_b && expect_a != expect_b {
            saw_b = true;
        }
    }
    assert!(saw_b, "the rebuilt epoch was never observed; the swap did not land");
}

/// Overload shedding is deterministic: with one worker held busy and a
/// full admission queue, the next connection gets a typed Overloaded
/// reply, and the queue never grows past its high-water mark.
#[test]
fn overload_shed_is_typed_and_bounded() {
    let graph = test_graph();
    let service = ServiceBuilder::new(graph).build().expect("service");
    let server =
        start_server(service, ServerConfig { workers: 1, queue_depth: 1, max_payload: 1 << 20 });
    let addr = server.local_addr();

    // conn1 occupies the only worker: a successful round-trip proves the
    // worker owns it (not merely queued), and holding it open keeps the
    // worker busy.
    let mut conn1 = Connection::connect(addr).expect("conn1");
    conn1.query_batch(&[Query::TopKSize(1)]).expect("conn1 owned by the worker");
    // conn2 fills the queue to its high-water mark.
    let _conn2 = Connection::connect(addr).expect("conn2");
    wait_until(|| server.queued() == 1);

    // conn3 must be shed with a typed Overloaded error.
    let mut conn3 = Connection::connect(addr).expect("conn3 tcp-level connect");
    match conn3.recv_raw() {
        Ok(Some((header, payload))) => {
            assert_eq!(header.opcode, ampc_net::Opcode::RespError);
            let (code, msg) = ampc_net::protocol::decode_error(&payload).expect("typed error");
            assert_eq!(code, ampc_net::ErrorCode::Overloaded, "unexpected message: {msg}");
        }
        other => panic!("expected typed Overloaded frame, got {other:?}"),
    }
    assert!(server.queued() <= 1, "queue exceeded its high-water mark");
    assert_eq!(server.connections_shed(), 1, "exactly the connection past the queue is shed");
}

/// The harness surfaces an Overloaded shed as a typed, detectable error
/// when retries are disabled.
#[test]
fn harness_reports_overload_typed() {
    let graph = test_graph();
    let index = ComponentIndex::build(&reference_components(&graph));
    let service = ServiceBuilder::new(graph).build().expect("service");
    let server =
        start_server(service, ServerConfig { workers: 1, queue_depth: 1, max_payload: 1 << 20 });
    let addr = server.local_addr();

    let mut hold1 = Connection::connect(addr).expect("hold worker");
    hold1.query_batch(&[Query::TopKSize(1)]).expect("hold1 owned by the worker");
    let _hold2 = Connection::connect(addr).expect("fill queue");
    wait_until(|| server.queued() == 1);

    let queries = workload::generate(&index, Mix::Uniform, 64, SEED);
    let err = ampc_net::run_harness(
        addr,
        &queries,
        HarnessConfig { connections: 1, batch: 64, retries: 0 },
    )
    .expect_err("must be shed");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ampc_net::ErrorCode::Overloaded),
        // The shed server closes right after the error frame; if the
        // client's request write raced ahead, it sees the close instead.
        ClientError::Closed | ClientError::Io(_) => {}
        other => panic!("expected overload signal, got {other}"),
    }
}

/// Health, metrics and insert opcodes round-trip live service state.
#[test]
fn health_metrics_and_insert_over_the_wire() {
    let graph = test_graph();
    let index = ComponentIndex::build(&reference_components(&graph));
    let service = ServiceBuilder::new(graph).build().expect("service");
    let server = start_server(service.clone(), ServerConfig::default());
    let mut conn = Connection::connect(server.local_addr()).expect("connect");

    let health = conn.health().expect("health");
    assert_eq!(health.state_name(), "healthy");
    assert_eq!(health.epoch, service.current_epoch());
    assert_eq!(health.components, index.num_components() as u64);

    // An insert that merges two components must be visible in the next
    // health probe and in subsequent queries.
    let engine = QueryEngine::new(&index);
    let (u, v) = cross_component_pair(&index);
    assert_eq!(engine.answer(Query::Connected(u, v)), 0);
    let report = conn.insert_edges(&[(u, v)]).expect("insert");
    assert_eq!(report.applied, 1);
    assert_eq!(report.components, (index.num_components() - 1) as u64);

    let answers = conn.query_batch(&[Query::Connected(u, v)]).expect("query");
    assert_eq!(answers, vec![1], "insert must be visible to reads on the same connection");

    let health = conn.health().expect("health after insert");
    assert_eq!(health.components, (index.num_components() - 1) as u64);
    assert!(health.epoch > 0, "journal-epoch must have advanced");

    // Metrics: the text exposition must carry the service histogram with
    // a nonzero count, parseable by the client-side quantile recovery.
    let text = conn.metrics().expect("metrics");
    let (count, quantiles) =
        prom_histogram_quantiles(&text, "net_request_service_ns").expect("histogram present");
    assert!(count > 0, "service latency must have samples");
    assert!(quantiles.iter().all(|&(_, v)| v > 0), "service quantiles must be nonzero");
    assert!(text.contains("net_requests_total"), "request counter missing from exposition");
}

/// Orderly remote shutdown: the Shutdown opcode is acknowledged and every
/// server thread exits (no worker leak).
#[test]
fn remote_shutdown_joins_all_threads() {
    let graph = test_graph();
    let service = ServiceBuilder::new(graph).build().expect("service");
    let mut server = start_server(service, ServerConfig::default());
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    conn.shutdown_server().expect("shutdown ack");
    // wait() would hang forever if any thread leaked; returning IS the
    // leak check (the harness kills the test on timeout otherwise).
    server.wait();
}

/// Finds two vertices in different components of `index`.
fn cross_component_pair(index: &ComponentIndex) -> (u32, u32) {
    let engine = QueryEngine::new(index);
    let c0 = engine.answer(Query::ComponentOf(0));
    for v in 1..N as u32 {
        if engine.answer(Query::ComponentOf(v)) != c0 {
            return (0, v);
        }
    }
    panic!("test graph must have at least two components");
}

fn wait_until(cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "wait_until timed out");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}
