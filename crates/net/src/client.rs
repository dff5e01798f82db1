//! The client side: a single-connection RPC wrapper, and the TCP transport
//! of the closed-loop workload runner — [`run_harness`] is
//! `ampc_serve::driver::drive` with one connection (reconnect-and-retry) per
//! worker, so a workload replayed over the wire is striped, timed and
//! reported exactly as one answered in process. Its latency is the
//! client-measured round trip; the server's own service latency comes back
//! through the metrics opcode ([`prom_histogram_quantiles`]).

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ampc_obs::{hist, HistId, MonotonicClock};
use ampc_query::Query;
use ampc_serve::driver::{self, Report, Worker};

use crate::protocol::{
    decode_answers, decode_error, encode_edges, encode_queries, read_frame, write_frame, ErrorCode,
    NetError, Opcode, ProtocolError, WireHealth, WireInsertReport, DEFAULT_MAX_PAYLOAD,
};

/// Everything an RPC can fail with, from the client's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// The transport broke (connect refused, reset, injected `net.*`
    /// fault on either side).
    Io(std::io::Error),
    /// The server's bytes were structurally invalid, or it answered with
    /// the wrong opcode / request id.
    Protocol(ProtocolError),
    /// The server answered with a typed error frame.
    Server {
        /// The typed wire error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server closed the connection where a response frame was due.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{}]: {message}", code.name())
            }
            ClientError::Closed => write!(f, "server closed the connection mid-exchange"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Io(e) => ClientError::Io(e),
            NetError::Protocol(e) => ClientError::Protocol(e),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True iff the server shed this client at admission
    /// ([`ErrorCode::Overloaded`]).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Server { code: ErrorCode::Overloaded, .. })
    }
}

/// One protocol connection to a server.
pub struct Connection {
    stream: TcpStream,
    addr: SocketAddr,
    next_id: u32,
}

impl Connection {
    /// Connects and prepares the socket (nodelay; no read timeout — the
    /// client blocks until the server answers or closes).
    pub fn connect(addr: SocketAddr) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection { stream, addr, next_id: 1 })
    }

    /// The server address this connection targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request/response exchange. A payload over
    /// [`DEFAULT_MAX_PAYLOAD`] is refused before a byte is written (the
    /// server would only answer `oversized`). Validates that the response
    /// echoes our request id and carries `expect` (or a typed error frame,
    /// which becomes [`ClientError::Server`]).
    fn rpc(
        &mut self,
        opcode: Opcode,
        payload: &[u8],
        expect: Opcode,
    ) -> Result<Vec<u8>, ClientError> {
        if payload.len() > DEFAULT_MAX_PAYLOAD as usize {
            let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
            return Err(ClientError::Protocol(ProtocolError::Oversized {
                len,
                max: DEFAULT_MAX_PAYLOAD,
            }));
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        write_frame(&mut self.stream, opcode, id, payload)?;
        let (header, body) =
            read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD)?.ok_or(ClientError::Closed)?;
        if header.opcode == Opcode::RespError {
            let (code, message) = decode_error(&body).map_err(ClientError::Protocol)?;
            return Err(ClientError::Server { code, message });
        }
        if header.opcode != expect {
            return Err(ClientError::Protocol(ProtocolError::Malformed(
                "unexpected response opcode",
            )));
        }
        if header.request_id != id {
            return Err(ClientError::Protocol(ProtocolError::Malformed(
                "response request id does not echo the request",
            )));
        }
        Ok(body)
    }

    /// Answers a query batch; answers come back in request order.
    pub fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<u64>, ClientError> {
        let body = self.rpc(Opcode::QueryBatch, &encode_queries(queries), Opcode::RespAnswers)?;
        let answers = decode_answers(&body).map_err(ClientError::Protocol)?;
        if answers.len() != queries.len() {
            return Err(ClientError::Protocol(ProtocolError::Malformed(
                "answer count does not match query count",
            )));
        }
        Ok(answers)
    }

    /// Fetches the server's health (PR-8 state machine over the wire).
    pub fn health(&mut self) -> Result<WireHealth, ClientError> {
        let body = self.rpc(Opcode::Health, &[], Opcode::RespHealth)?;
        WireHealth::decode(&body).map_err(ClientError::Protocol)
    }

    /// Fetches the server's Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let body = self.rpc(Opcode::Metrics, &[], Opcode::RespMetrics)?;
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol(ProtocolError::Malformed("metrics not UTF-8")))
    }

    /// Streams an edge batch into the server's journal.
    pub fn insert_edges(&mut self, edges: &[(u32, u32)]) -> Result<WireInsertReport, ClientError> {
        let body = self.rpc(Opcode::InsertEdges, &encode_edges(edges), Opcode::RespInsert)?;
        WireInsertReport::decode(&body).map_err(ClientError::Protocol)
    }

    /// Asks the server to shut down; returns once it acknowledges.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.rpc(Opcode::Shutdown, &[], Opcode::RespShutdown)?;
        Ok(())
    }

    /// Sends one frame — header and payload in one gathered write through
    /// [`write_frame`] — with nothing checked or awaited: the raw probes'
    /// spelling of a whole frame, which the server sees arrive at once.
    ///
    /// ```
    /// use std::net::TcpListener;
    ///
    /// use ampc_graph::Graph;
    /// use ampc_net::{Connection, Opcode, ServerConfig};
    /// use ampc_serve::ServiceBuilder;
    ///
    /// let service = ServiceBuilder::new(Graph::from_edges(2, &[(0, 1)])).build().unwrap();
    /// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    /// let mut server = ampc_net::serve(service, listener, ServerConfig::default()).unwrap();
    /// let mut conn = Connection::connect(server.local_addr()).unwrap();
    /// conn.send_frame(Opcode::Health, &[], 7).unwrap();
    /// let (header, _) = conn.recv_raw().unwrap().expect("a reply frame");
    /// assert_eq!((header.opcode, header.request_id), (Opcode::RespHealth, 7));
    /// server.shutdown();
    /// ```
    pub fn send_frame(&mut self, opcode: Opcode, payload: &[u8], id: u32) -> std::io::Result<()> {
        write_frame(&mut self.stream, opcode, id, payload)
    }

    /// Sends raw bytes on the underlying socket — test hook for the
    /// protocol-hardening suite (malformed frames, one-byte dribbles).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one raw frame off the socket — test hook paired with
    /// [`Connection::send_raw`].
    pub fn recv_raw(&mut self) -> Result<Option<(crate::protocol::Header, Vec<u8>)>, NetError> {
        read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD)
    }
}

/// Tunables for [`run_harness`].
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Concurrent connections; the workload is striped across them by
    /// [`driver::drive`], so the aggregate checksum is
    /// connection-count-invariant. A connection whose stripe is empty is
    /// never opened.
    pub connections: usize,
    /// Queries per request frame.
    pub batch: usize,
    /// Reconnect-and-retry attempts per batch after a transport error
    /// (typed server errors other than `Overloaded` are not retried —
    /// they are answers, not failures). 0 = fail fast.
    pub retries: usize,
}

/// Replays `queries` against `addr` over `cfg.connections` closed-loop
/// connections: [`driver::drive`] with a connection as each worker's
/// transport, so striping, frame timing and the report are the in-process
/// runner's. The checksum can be compared byte-for-byte against an oracle
/// fold over the same workload; `latency` is the client-measured round trip
/// (framing, kernel, loopback and service time) per query of each frame,
/// also recorded into the global `net_wire_latency_ns`, and a frame that
/// needed retries is timed across them.
pub fn run_harness(
    addr: SocketAddr,
    queries: &[Query],
    cfg: HarnessConfig,
) -> Result<Report, ClientError> {
    let open = || {
        let conn = connect_with_retries(addr, cfg.retries)?;
        Ok(Retrying { conn, budget: cfg.retries, used: 0 })
    };
    let global = hist(HistId::NetWireNs);
    driver::drive(&MonotonicClock, global, queries, cfg.connections, cfg.batch, open)
}

/// A harness worker's connection: `budget` reconnect-and-retry attempts
/// per frame.
struct Retrying {
    conn: Connection,
    budget: usize,
    used: u64,
}

impl Worker for Retrying {
    type Error = ClientError;

    fn answer(&mut self, frame: &[Query]) -> Result<u64, ClientError> {
        let mut attempt = 0usize;
        loop {
            match self.conn.query_batch(frame) {
                Ok(answers) => return Ok(answers.iter().fold(0, |sum, &a| sum.wrapping_add(a))),
                // Typed server errors other than Overloaded are answers,
                // not transport failures — do not mask them with retries.
                Err(e @ ClientError::Server { .. }) if !e.is_overloaded() => return Err(e),
                Err(e) if attempt >= self.budget => return Err(e),
                Err(_) => {
                    attempt += 1;
                    self.used += 1;
                    // Overload shed closes the connection; transport
                    // errors leave it torn. Reconnect either way.
                    std::thread::sleep(Duration::from_millis(10 * attempt as u64));
                    self.conn = connect_with_retries(self.conn.addr, self.budget)?;
                }
            }
        }
    }

    fn retries(&self) -> u64 {
        self.used
    }
}

fn connect_with_retries(addr: SocketAddr, retries: usize) -> Result<Connection, ClientError> {
    let mut attempt = 0usize;
    loop {
        match Connection::connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) if attempt >= retries => return Err(e),
            Err(_) => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(10 * attempt as u64));
            }
        }
    }
}

/// Recovers quantiles from a Prometheus text exposition's histogram
/// bucket lines for `name` (as rendered by `ampc_obs::render_text`):
/// `name_bucket{le="N"} cum` … `name_bucket{le="+Inf"} cum`.
///
/// Returns `(count, [(label, value); 3])` for p50/p99/p999, computed the
/// same way `HistSnapshot::quantile` computes them (upper bound of the
/// bucket the rank falls in), so the client can report **server-side**
/// service latency without a side channel.
pub fn prom_histogram_quantiles(text: &str, name: &str) -> Option<(u64, [(&'static str, u64); 3])> {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(u64, u64)> = Vec::new(); // (upper, cumulative)
    let mut total = 0u64;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let (le, cum) = rest.split_once("\"} ")?;
        let cum: u64 = cum.trim().parse().ok()?;
        if le == "+Inf" {
            total = cum;
        } else {
            buckets.push((le.parse().ok()?, cum));
        }
    }
    if total == 0 {
        return None;
    }
    let quantile = |q: f64| -> u64 {
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        for &(upper, cum) in &buckets {
            if cum >= rank {
                return upper;
            }
        }
        buckets.last().map(|&(u, _)| u).unwrap_or(u64::MAX)
    };
    Some((total, [("p50", quantile(0.50)), ("p99", quantile(0.99)), ("p999", quantile(0.999))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::QUERY_WIRE_LEN;
    use std::io::Read as _;

    #[test]
    fn a_frame_over_the_cap_is_refused_before_a_byte_is_written() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut conn = Connection::connect(listener.local_addr().unwrap()).expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");

        let fits = DEFAULT_MAX_PAYLOAD as usize / QUERY_WIRE_LEN;
        let over = vec![Query::ComponentOf(0); fits + 1];
        match conn.query_batch(&over) {
            Err(ClientError::Protocol(ProtocolError::Oversized { len, max })) => {
                assert_eq!((len as usize, max), (over.len() * QUERY_WIRE_LEN, DEFAULT_MAX_PAYLOAD))
            }
            other => panic!("expected a typed oversized refusal, got {other:?}"),
        }
        drop(conn);
        let mut received = Vec::new();
        peer.read_to_end(&mut received).expect("read to the client's close");
        assert!(received.is_empty(), "the refused frame leaked {} bytes", received.len());
    }

    #[test]
    fn prom_parser_recovers_quantiles() {
        let text = "\
# TYPE x_ns histogram\n\
x_ns_bucket{le=\"100\"} 50\n\
x_ns_bucket{le=\"200\"} 99\n\
x_ns_bucket{le=\"400\"} 100\n\
x_ns_bucket{le=\"+Inf\"} 100\n\
x_ns_sum 12345\n\
x_ns_count 100\n";
        let (count, qs) = prom_histogram_quantiles(text, "x_ns").expect("parse");
        assert_eq!(count, 100);
        assert_eq!(qs[0], ("p50", 100));
        assert_eq!(qs[1], ("p99", 200));
        assert_eq!(qs[2], ("p999", 400));
        assert!(prom_histogram_quantiles(text, "y_ns").is_none());
    }
}
