//! Protocol hardening: hostile or broken peers get typed error frames and
//! a closed connection — never a panic, a hang, or a leaked worker.
//!
//! Each case sends crafted bytes at a live server, asserts the typed
//! reply, and then proves the server is still healthy by completing a
//! normal exchange on a fresh connection. The final `wait()`-after-
//! shutdown in `server_survives_every_attack` is the leak check: a worker
//! stuck on a hostile connection would hang the join.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use ampc_graph::generators::random_forest;
use ampc_graph::reference_components;
use ampc_net::protocol::{
    decode_error, encode_header, encode_queries, HEADER_LEN, MAGIC, QUERY_WIRE_LEN, VERSION,
};
use ampc_net::{Connection, ErrorCode, Opcode, ServerConfig};
use ampc_obs::{counter, CounterId};
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, Query, QueryEngine};
use ampc_serve::ServiceBuilder;

const N: usize = 200;

fn start_server() -> ampc_net::ServerHandle {
    start_server_with(4096)
}

fn start_server_with(max_payload: u32) -> ampc_net::ServerHandle {
    let service = ServiceBuilder::new(random_forest(N, 4, 0xBAD)).build().expect("service");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    ampc_net::serve(service, listener, ServerConfig { workers: 2, queue_depth: 8, max_payload })
        .expect("serve")
}

/// Sends raw bytes, expects one typed error frame with `code`, then EOF
/// (the server must close after a protocol violation).
fn expect_typed_close(addr: std::net::SocketAddr, bytes: &[u8], code: ErrorCode) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send attack bytes");
    stream.flush().expect("flush");
    let frame = read_one_frame(&mut stream).expect("typed error frame due");
    assert_eq!(frame.0, Opcode::RespError as u8, "expected an error frame");
    let (got, msg) = decode_error(&frame.1).expect("typed error payload");
    assert_eq!(got, code, "wrong error code (message: {msg})");
    // After the error the server must close: next read sees EOF.
    let mut buf = [0u8; 1];
    let n = stream.read(&mut buf).expect("read after error");
    assert_eq!(n, 0, "server must close the connection after a protocol violation");
}

/// Minimal raw frame reader for the attack side (no validation — the
/// attacker wants the server's bytes verbatim).
fn read_one_frame(stream: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    assert_eq!(u32::from_le_bytes(header[0..4].try_into().unwrap()), MAGIC);
    assert_eq!(header[4], VERSION);
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok((header[5], payload))
}

/// A normal exchange succeeds — the server survived whatever preceded it.
fn assert_server_alive(addr: std::net::SocketAddr) {
    let mut conn = Connection::connect(addr).expect("fresh connect");
    let answers = conn.query_batch(&[Query::TopKSize(1)]).expect("normal exchange");
    assert_eq!(answers.len(), 1);
    assert!(answers[0] > 0, "largest component must be nonempty");
}

#[test]
fn server_survives_every_attack() {
    let mut server = start_server();
    let addr = server.local_addr();

    // Bad magic.
    let mut frame = encode_header(Opcode::Health, 0, 1).to_vec();
    frame[0] ^= 0xFF;
    expect_typed_close(addr, &frame, ErrorCode::BadMagic);
    assert_server_alive(addr);

    // Foreign version.
    let mut frame = encode_header(Opcode::Health, 0, 1).to_vec();
    frame[4] = 42;
    expect_typed_close(addr, &frame, ErrorCode::BadVersion);
    assert_server_alive(addr);

    // Oversized payload length: rejected from the header alone, before
    // any allocation — no payload bytes are ever sent.
    let frame = encode_header(Opcode::QueryBatch, 1 << 30, 1);
    expect_typed_close(addr, &frame, ErrorCode::Oversized);
    assert_server_alive(addr);

    // Unknown opcode.
    let mut frame = encode_header(Opcode::Health, 0, 1).to_vec();
    frame[5] = 0x7C;
    expect_typed_close(addr, &frame, ErrorCode::UnknownOpcode);
    assert_server_alive(addr);

    // Nonzero reserved flags.
    let mut frame = encode_header(Opcode::Health, 0, 1).to_vec();
    frame[6] = 1;
    expect_typed_close(addr, &frame, ErrorCode::Malformed);
    assert_server_alive(addr);

    // Response opcode sent as a request.
    let frame = encode_header(Opcode::RespAnswers, 0, 1);
    expect_typed_close(addr, &frame, ErrorCode::Malformed);
    assert_server_alive(addr);

    // Ragged query batch (payload not a multiple of the record size).
    let mut frame = encode_header(Opcode::QueryBatch, 5, 1).to_vec();
    frame.extend_from_slice(&[0u8; 5]);
    expect_typed_close(addr, &frame, ErrorCode::Malformed);
    assert_server_alive(addr);

    // Unknown query tag inside a well-framed batch.
    let mut payload = encode_queries(&[Query::TopKSize(1)]);
    payload[0] = 0x99;
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, 1).to_vec();
    frame.extend_from_slice(&payload);
    expect_typed_close(addr, &frame, ErrorCode::Malformed);
    assert_server_alive(addr);

    // Leak check: shutdown must join every worker even after the attacks.
    server.shutdown();
}

/// The server validates a whole frame before it answers any of it: a
/// 4096-query frame whose *last* tag is unknown gets a typed `Malformed`
/// close, the server stays up, and the service histogram records nothing
/// for the 4095 valid records ahead of the bad one.
#[test]
fn bad_last_tag_of_a_large_frame_is_refused_before_any_answer() {
    let server = start_server_with(1 << 20);
    let addr = server.local_addr();
    let queries: Vec<Query> = (0..4096).map(|i| Query::ComponentSize(i % N as u32)).collect();
    let mut payload = encode_queries(&queries);
    let last = payload.len() - QUERY_WIRE_LEN;
    payload[last] = 0x99;
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, 1).to_vec();
    frame.extend_from_slice(&payload);

    expect_typed_close(addr, &frame, ErrorCode::Malformed);
    assert_eq!(server.service_latency().count, 0, "a refused frame records nothing");
    assert_server_alive(addr);
    assert_eq!(server.service_latency().count, 1, "the next frame is served and recorded");
}

/// A peer that dribbles one byte at a time is slow, not malformed: the
/// server waits out the dribble and answers correctly.
#[test]
fn one_byte_dribble_is_served() {
    let server = start_server();
    let addr = server.local_addr();

    let queries = [Query::TopKSize(1), Query::ComponentSize(0)];
    let payload = encode_queries(&queries);
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, 7).to_vec();
    frame.extend_from_slice(&payload);

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for &b in &frame {
        stream.write_all(&[b]).expect("dribble byte");
        stream.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let (opcode, body) = read_one_frame(&mut stream).expect("answer despite dribble");
    assert_eq!(opcode, Opcode::RespAnswers as u8);
    assert_eq!(body.len(), queries.len() * 8, "one u64 answer per query");
    let top = u64::from_le_bytes(body[0..8].try_into().unwrap());
    assert!(top > 0);
}

/// A peer that sends half a frame and disappears does not keep a worker:
/// the connection is dropped and the server keeps serving.
#[test]
fn truncated_frame_then_close_frees_the_worker() {
    let server = start_server();
    let addr = server.local_addr();

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&encode_header(Opcode::QueryBatch, 24, 1)[..HEADER_LEN]).expect("header");
        stream.write_all(&[0u8; 10]).expect("partial payload");
        // Drop: close mid-frame.
    }
    // Half a header, then close.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[0x43u8; 7]).expect("partial header");
    }
    assert_server_alive(addr);
}

/// A shutdown while a peer sits mid-frame — header declaring 100 bytes,
/// nothing after it — ends that connection like any other: `shutdown()`
/// returns with every worker joined and the connection counted as served.
/// (The worker used to panic in `read_frame` and never count it.)
#[test]
fn shutdown_with_a_peer_mid_frame_joins_the_worker() {
    let mut server = start_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&encode_header(Opcode::QueryBatch, 100, 1)).expect("header only");
    stream.flush().expect("flush");
    // The admission queue is FIFO, so a round trip on a second connection
    // means a worker already took the first; it reads the header waiting in
    // the socket whatever the shutdown flag says, and only then blocks.
    assert_server_alive(server.local_addr());

    server.shutdown();
    assert_eq!(server.connections_served(), 2, "the stalled connection and the probe");
    drop(stream);
}

/// A connection that opens and closes without sending anything is a clean
/// close, not an error.
#[test]
fn silent_connection_is_a_clean_close() {
    let server = start_server();
    let addr = server.local_addr();
    for _ in 0..8 {
        drop(TcpStream::connect(addr).expect("connect"));
    }
    // The burst can transiently fill the depth-8 admission queue (the
    // accept thread pumps the kernel backlog faster than workers wake),
    // and a connect racing that window would be shed — correct behavior,
    // tested elsewhere. Liveness is what this test pins, so wait until
    // every burst connection is accounted for (served or shed) first.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.connections_served() + server.connections_shed() < 8 {
        assert!(std::time::Instant::now() < deadline, "silent closes must drain");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_server_alive(addr);
}

/// Shutdown is an event, not a poll. The one worker serves connection A,
/// idle halfway through a frame; B (silent) and C (one whole `QueryBatch`
/// already sent) wait in the queue. After `request_shutdown`, `wait()`
/// returns with C's frame answered oracle-exact; all three read EOF and
/// count as served, and A's cut frame is not a protocol error.
#[test]
fn shutdown_drains_received_frames_and_closes_idle_connections() {
    // `net_protocol_errors_total` is process-wide and the attacks above move
    // it, so the scenario runs alone, in a child run of this test binary.
    const ALONE: &str = "HARDENING_RUN_ALONE";
    if std::env::var_os(ALONE).is_none() {
        let name = "shutdown_drains_received_frames_and_closes_idle_connections";
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name])
            .env(ALONE, "1")
            .output()
            .expect("run the scenario alone");
        let stdout = String::from_utf8_lossy(&child.stdout);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(child.status.success() && stdout.contains("1 passed"), "{stdout}{stderr}");
        return;
    }

    let graph = random_forest(N, 4, 0xBAD);
    let oracle = ComponentIndex::build(&reference_components(&graph));
    let service = ServiceBuilder::new(graph).build().expect("service");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let config = ServerConfig { workers: 1, queue_depth: 4, max_payload: 4096 };
    let mut server = ampc_net::serve(service, listener, config).expect("serve");
    let addr = server.local_addr();
    let protocol_errors = || counter(CounterId::NetProtocolErrors).get();
    let errors_before = protocol_errors();

    // A round trip means the worker is serving A, which then sends a
    // header and stalls: the worker blocks waiting for the payload.
    let mut a = Connection::connect(addr).expect("connect A");
    a.health().expect("A is served");
    a.send_raw(&encode_header(Opcode::QueryBatch, 24, 2)).expect("A's header");
    let mut b = TcpStream::connect(addr).expect("connect B");
    let mut c = TcpStream::connect(addr).expect("connect C");
    let queries = workload::generate(&oracle, Mix::Uniform, 64, 0x5D);
    let payload = encode_queries(&queries);
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, 9).to_vec();
    frame.extend_from_slice(&payload);
    c.write_all(&frame).expect("C's frame");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.queued() < 2 {
        assert!(std::time::Instant::now() < deadline, "B and C must be queued");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    server.request_shutdown();
    server.wait();

    let (opcode, body) = read_one_frame(&mut c).expect("C's frame is answered");
    assert_eq!(opcode, Opcode::RespAnswers as u8);
    let engine = QueryEngine::new(&oracle);
    let expected: Vec<u8> = queries.iter().flat_map(|&q| engine.answer(q).to_le_bytes()).collect();
    assert_eq!(body, expected, "C's answers are the oracle's");
    for (name, stream) in [("C", &mut c), ("B", &mut b)] {
        let n = stream.read(&mut [0u8; 1]).expect("read after shutdown");
        assert_eq!(n, 0, "{name} reads EOF");
    }
    assert!(matches!(a.recv_raw(), Ok(None)), "A reads EOF");
    assert_eq!(server.connections_served(), 3, "A, B and C");
    assert_eq!(protocol_errors(), errors_before, "a shutdown is not a protocol error");
}
