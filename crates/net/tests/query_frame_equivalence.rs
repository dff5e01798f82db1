//! The server answers a `QueryBatch` frame in one pass over its payload.
//! Its reply must be byte for byte what the three separate stages give —
//! `decode_queries`, `QueryEngine::answer_batch`, `encode_answers` — on a
//! full epoch and on a journal-epoch, for every standard mix, at frame
//! lengths on both sides of the 512-query chunk, and for frames that name
//! vertices past the graph or ask for the 0th and the last possible largest
//! component. Every frame goes over a live socket, so the server's own path
//! is what is pinned.

use std::net::TcpListener;

use ampc_graph::generators::random_forest;
use ampc_net::protocol::{
    decode_answers, decode_queries, encode_answers, encode_header, encode_queries,
};
use ampc_net::{Connection, Opcode, ServerConfig};
use ampc_query::workload::{self, Mix};
use ampc_query::{Query, NO_ANSWER};
use ampc_serve::{ServiceBuilder, ServiceHandle};

const N: u32 = 1_000;
const LENGTHS: [usize; 6] = [0, 1, 511, 512, 513, 4096];

/// Sends `payload` as one `QueryBatch` frame and returns the reply payload.
fn reply_bytes(conn: &mut Connection, id: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, id).to_vec();
    frame.extend_from_slice(payload);
    conn.send_raw(&frame).expect("send");
    let (header, body) = conn.recv_raw().expect("read").expect("a reply frame");
    assert_eq!((header.opcode, header.request_id), (Opcode::RespAnswers, id));
    body
}

/// The three-stage reference on the service's current epoch.
fn reference(service: &ServiceHandle, payload: &[u8]) -> Vec<u8> {
    let queries = decode_queries(payload).expect("own encoding");
    let snapshot = service.snapshot();
    let mut answers = vec![0u64; queries.len()];
    snapshot.engine().answer_batch(&queries, &mut answers).expect("equal lengths");
    encode_answers(&answers)
}

/// Frames no generated stream holds: vertices at and past `n` (one side or
/// both of `Connected`), and `TopKSize` at 0 and `u32::MAX`.
fn boundary_frame() -> Vec<Query> {
    let mut frame = Vec::new();
    for v in [0, N - 1, N, N + 1, u32::MAX] {
        frame.extend([
            Query::Connected(v, 0),
            Query::Connected(0, v),
            Query::Connected(v, v),
            Query::ComponentOf(v),
            Query::ComponentSize(v),
        ]);
    }
    frame.extend([Query::TopKSize(0), Query::TopKSize(1), Query::TopKSize(u32::MAX)]);
    frame
}

fn check_epoch(service: &ServiceHandle, conn: &mut Connection, journal: bool) {
    let snapshot = service.snapshot();
    assert_eq!(snapshot.is_journal(), journal, "the epoch under test");
    let mut id = 0;
    for (m, mix) in Mix::STANDARD.into_iter().enumerate() {
        for len in LENGTHS {
            let queries = workload::generate(snapshot.index(), mix, len, 0x5EED ^ m as u64);
            let payload = encode_queries(&queries);
            id += 1;
            let ctx = format!("mix {} len {len} journal {journal}", mix.name());
            assert_eq!(reply_bytes(conn, id, &payload), reference(service, &payload), "{ctx}");
        }
    }

    let payload = encode_queries(&boundary_frame());
    let reply = reply_bytes(conn, id + 1, &payload);
    assert_eq!(reply, reference(service, &payload), "boundary frame, journal {journal}");
    let answers = decode_answers(&reply).expect("whole answers");
    assert_eq!(answers.iter().filter(|&&a| a == NO_ANSWER).count(), 3 * 5, "journal {journal}");
    let top_k = &answers[answers.len() - 3..];
    assert!(top_k[0] == 0 && top_k[1] > 0 && top_k[2] == 0, "TopKSize 0, 1, MAX: {top_k:?}");
}

#[test]
fn server_replies_equal_decode_answer_encode_on_both_epoch_kinds() {
    let service =
        ServiceBuilder::new(random_forest(N as usize, 9, 0xE0F)).build().expect("service");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server =
        ampc_net::serve(service.clone(), listener, ServerConfig::default()).expect("serve");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");

    check_epoch(&service, &mut conn, false);
    let edges: Vec<(u32, u32)> = (0..40).map(|i| (i * 7 % N, (i * 131 + 500) % N)).collect();
    let report = service.insert_edges(&edges).expect("insert");
    assert!(report.components < service.snapshot().index().num_components(), "a merge happened");
    check_epoch(&service, &mut conn, true);
}
