//! `query_served_total` and `net_request_service_ns` are process-wide, so
//! their exact deltas under wire frames are checked here, in a test binary
//! that runs nothing else.

use std::net::TcpListener;

use ampc_graph::generators::random_forest;
use ampc_net::protocol::{encode_header, encode_queries, QUERY_WIRE_LEN};
use ampc_net::{Connection, ErrorCode, Opcode, ServerConfig};
use ampc_obs::{counter, hist, CounterId, HistId};
use ampc_query::workload::{self, Mix};
use ampc_serve::ServiceBuilder;

#[test]
fn a_served_frame_counts_each_query_once_and_a_refused_one_counts_nothing() {
    let service = ServiceBuilder::new(random_forest(300, 5, 0xC0)).build().expect("service");
    let queries = workload::generate(service.snapshot().index(), Mix::Uniform, 4096, 17);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = ampc_net::serve(service, listener, ServerConfig::default()).expect("serve");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    let moved =
        || (counter(CounterId::QueriesServed).get(), hist(HistId::NetServiceNs).snapshot().count);

    for n in [0usize, 1, 513, 4096] {
        let before = moved();
        assert_eq!(conn.query_batch(&queries[..n]).expect("served").len(), n);
        let after = moved();
        assert_eq!((after.0 - before.0, after.1 - before.1), (n as u64, n as u64), "{n} queries");
    }

    // The same 4096 queries with the last tag unknown: refused whole.
    let mut payload = encode_queries(&queries);
    let last = payload.len() - QUERY_WIRE_LEN;
    payload[last] = 0x99;
    let mut frame = encode_header(Opcode::QueryBatch, payload.len() as u32, 9).to_vec();
    frame.extend_from_slice(&payload);
    let before = moved();
    conn.send_raw(&frame).expect("send");
    let (header, body) = conn.recv_raw().expect("read").expect("one error frame");
    assert_eq!(header.opcode, Opcode::RespError);
    let (code, _) = ampc_net::protocol::decode_error(&body).expect("typed error");
    assert_eq!(code, ErrorCode::Malformed);
    assert_eq!(moved(), before, "a refused frame serves and records nothing");
}
