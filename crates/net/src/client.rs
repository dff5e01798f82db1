//! The client side: a single-connection RPC wrapper and a closed-loop
//! multi-connection harness that replays a query workload over the wire,
//! validates checksums against an in-process oracle, and splits wire
//! latency (client-measured round-trip) from the server's service latency.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ampc_obs::{hist, HistId, HistSnapshot, Histogram};
use ampc_query::Query;
use ampc_serve::driver::stripe;

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

    /// One request/response exchange. Validates that the response echoes
    /// our request id and carries `expect` (or a typed error frame, which
    /// becomes [`ClientError::Server`]).
    fn rpc(
        &mut self,
        opcode: Opcode,
        payload: &[u8],
        expect: Opcode,
    ) -> Result<Vec<u8>, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        write_frame(&mut self.stream, opcode, id, payload)?;
        let (header, body) = read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD, || true)?
            .ok_or(ClientError::Closed)?;
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

    /// Sends raw bytes on the underlying socket — test hook for the
    /// protocol-hardening suite (malformed frames, one-byte dribbles).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one raw frame off the socket — test hook paired with
    /// [`Connection::send_raw`].
    pub fn recv_raw(&mut self) -> Result<Option<(crate::protocol::Header, Vec<u8>)>, NetError> {
        read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD, || true)
    }
}

/// Tunables for [`run_harness`].
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Concurrent connections; the workload is striped across them with
    /// the same deterministic [`stripe`] the in-process driver uses, so
    /// the aggregate checksum is connection-count-invariant.
    pub connections: usize,
    /// Queries per request frame.
    pub batch: usize,
    /// Reconnect-and-retry attempts per batch after a transport error
    /// (typed server errors other than `Overloaded` are not retried —
    /// they are answers, not failures). 0 = fail fast.
    pub retries: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { connections: 2, batch: 512, retries: 0 }
    }
}

/// What one [`run_harness`] run measured.
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// Queries answered.
    pub total_queries: usize,
    /// Aggregate wrapping-add checksum over every answer — compare to the
    /// in-process oracle's expected checksum.
    pub checksum: u64,
    /// End-to-end queries per second across all connections.
    pub qps: f64,
    /// Client-measured wire latency per round-trip (includes framing,
    /// kernel, loopback, and service time).
    pub wire: HistSnapshot,
    /// Transport errors that were retried successfully.
    pub retries_used: u64,
}

/// Replays `queries` against `addr` over `cfg.connections` closed-loop
/// connections and aggregates answers into a checksum.
///
/// Striping is deterministic and connection-count-invariant (wrapping-add
/// commutes), so the checksum can be compared byte-for-byte against
/// an in-process [`ampc_query::throughput`] pass over the same workload.
/// Wire latency is recorded per round-trip into both the returned
/// histogram and the global `net_wire_latency_ns`.
pub fn run_harness(
    addr: SocketAddr,
    queries: &[Query],
    cfg: HarnessConfig,
) -> Result<HarnessReport, ClientError> {
    assert!(cfg.connections > 0, "harness needs at least one connection");
    assert!(cfg.batch > 0, "harness needs a nonzero batch size");
    let wire_hist = Histogram::new();
    let started = std::time::Instant::now();

    let results: Vec<Result<(u64, u64), ClientError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.connections);
        for t in 0..cfg.connections {
            let wire_hist = &wire_hist;
            let slice = &queries[stripe(queries.len(), cfg.connections, t)];
            handles.push(scope.spawn(move || run_connection(addr, slice, cfg, wire_hist)));
        }
        handles.into_iter().map(|h| h.join().expect("harness thread panicked")).collect()
    });

    let elapsed = started.elapsed().as_secs_f64();
    let mut checksum = 0u64;
    let mut retries_used = 0u64;
    for r in results {
        let (c, retries) = r?;
        checksum = checksum.wrapping_add(c);
        retries_used += retries;
    }
    Ok(HarnessReport {
        total_queries: queries.len(),
        checksum,
        qps: if elapsed > 0.0 { queries.len() as f64 / elapsed } else { 0.0 },
        wire: wire_hist.snapshot(),
        retries_used,
    })
}

fn run_connection(
    addr: SocketAddr,
    queries: &[Query],
    cfg: HarnessConfig,
    wire_hist: &Histogram,
) -> Result<(u64, u64), ClientError> {
    let global = hist(HistId::NetWireNs);
    let mut conn = connect_with_retries(addr, cfg.retries)?;
    let mut checksum = 0u64;
    let mut retries_used = 0u64;
    for batch in queries.chunks(cfg.batch) {
        let mut attempt = 0usize;
        let answers = loop {
            let t0 = std::time::Instant::now();
            match conn.query_batch(batch) {
                Ok(answers) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    wire_hist.record(ns);
                    global.record(ns);
                    break answers;
                }
                // Typed server errors other than Overloaded are answers,
                // not transport failures — do not mask them with retries.
                Err(e @ ClientError::Server { .. }) if !e.is_overloaded() => return Err(e),
                Err(e) => {
                    if attempt >= cfg.retries {
                        return Err(e);
                    }
                    attempt += 1;
                    retries_used += 1;
                    // Overload shed closes the connection; transport
                    // errors leave it torn. Reconnect either way.
                    std::thread::sleep(Duration::from_millis(10 * attempt as u64));
                    conn = connect_with_retries(addr, cfg.retries)?;
                }
            }
        };
        for a in answers {
            checksum = checksum.wrapping_add(a);
        }
    }
    Ok((checksum, retries_used))
}

fn connect_with_retries(addr: SocketAddr, retries: usize) -> Result<Connection, ClientError> {
    let mut attempt = 0usize;
    loop {
        match Connection::connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                if attempt >= retries {
                    return Err(e);
                }
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
