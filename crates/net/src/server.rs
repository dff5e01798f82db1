//! The TCP server: a fixed worker pool over a bounded admission queue,
//! serving the binary protocol against a [`ServiceHandle`]'s pinned
//! epoch snapshots.
//!
//! # Admission control and backpressure
//!
//! One accept thread pulls connections off the listener and pushes them
//! onto a bounded queue; `workers` threads pop and serve them until the
//! peer closes. When the queue is at its high-water mark
//! ([`ServerConfig::queue_depth`]), the accept thread **sheds**: it writes
//! one typed `Overloaded` error frame and drops the connection. The queue
//! therefore never grows beyond `queue_depth`, the shed decision is
//! deterministic (a pure depth comparison, no timing heuristics), and a
//! shed client gets a machine-readable signal to back off rather than a
//! hang or a reset.
//!
//! # Worker-pinned snapshots
//!
//! A worker takes `service.snapshot()` **once per query-batch frame** and
//! answers the whole batch against it. Epoch publication is an atomic
//! pointer swap on the service side, so a rebuild or compaction landing
//! mid-batch never tears a batch: every frame's answers are wholly from
//! one epoch, and the next frame simply observes the newer one. The
//! snapshot is dropped when the frame is answered, so workers never pin
//! an old epoch for longer than one batch.
//!
//! # One pass, one write, no allocation per frame
//!
//! A connection owns two buffers (`FrameBufs`: request payload and reply
//! payload) and reuses them for every frame it serves, so a steady stream
//! of frames allocates nothing: the read resizes the payload buffer, the
//! pass overwrites the reply in place. A `QueryBatch` frame is first
//! swept for a ragged length or an unknown tag (`protocol::check_queries`),
//! before the snapshot pin and the clock, so a refused frame pins and
//! records nothing. Then one pass under `throughput::timed_frame` walks the
//! records: each is decoded by the same `protocol::decode_query` that
//! `decode_queries` uses, answered by `QueryEngine::answer`, and its `u64`
//! written little-endian straight into the reply — no `Vec<Query>` and no
//! `Vec<u64>` in between. The frame's amortised ns/query (decode, answer
//! and encode together) goes once into `net_request_service_ns`, weighted
//! by its length, and `query_served_total` advances once by the length.
//! Nothing in the per-query loop reads a clock or touches a histogram.
//! Every reply leaves as one gathered write of header and payload
//! (`write_frame`). The buffers grow to the largest frame the connection
//! sent — at most `max_payload` and two thirds of that — and are freed
//! with the connection.
//!
//! # Shutdown
//!
//! Nothing polls: an idle worker blocks on the queue's condition variable,
//! a serving one in `read`. `request_shutdown` sets the flag under the
//! queue lock, wakes the idle workers and shuts the read half of every
//! connection being served, so a blocked `read` returns what the peer
//! already sent, then EOF, while replies still go out. A worker that takes
//! a queued connection after the flag shuts its read half itself: the
//! queue drains, and every frame received before the shutdown is
//! answered. A frame that EOF cuts short is a clean close, not a protocol
//! error. One connection to the bound address wakes the accept thread.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ampc_obs::{counter, gauge, hist, CounterId, GaugeId, HistId, Histogram, MonotonicClock};
use ampc_query::throughput::timed_frame;
use ampc_query::NO_ANSWER;
use ampc_serve::fault::{self, Site};
use ampc_serve::{ServeError, ServiceHandle};

use crate::protocol::{
    check_queries, decode_edges, decode_query, encode_error, read_frame_into, write_frame,
    ErrorCode, Header, NetError, Opcode, ProtocolError, WireHealth, WireInsertReport,
    ANSWER_WIRE_LEN, DEFAULT_MAX_PAYLOAD, QUERY_WIRE_LEN,
};

/// Tunables for [`serve`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads serving admitted connections.
    pub workers: usize,
    /// Admission-queue high-water mark; connections arriving with the
    /// queue at this depth are shed with a typed `Overloaded` reply.
    pub queue_depth: usize,
    /// Per-frame payload cap enforced before any allocation.
    pub max_payload: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_depth: 64, max_payload: DEFAULT_MAX_PAYLOAD }
    }
}

/// How long the accept thread waits before retrying a failed `accept()`.
/// A persistent error (`EMFILE` while descriptors are exhausted) would
/// otherwise spin a core for as long as it lasts.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

struct Shared {
    service: ServiceHandle,
    config: ServerConfig,
    /// The listener's bound address: where the shutdown wake-up connects.
    addr: SocketAddr,
    admission: Mutex<Admission>,
    queue_signal: Condvar,
    /// Server-side service time per query, amortised over each frame
    /// (kept apart from the client-measured wire latency).
    service_hist: Histogram,
    connections_served: AtomicU64,
    connections_shed: AtomicU64,
}

impl Shared {
    fn admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect("queue lock")
    }
}

/// What the queue lock guards: the connections waiting for a worker, the
/// one each worker is serving (`serving[w]` for worker `w`, whose read
/// half shutdown shuts), and the shutdown flag.
struct Admission {
    queue: VecDeque<TcpStream>,
    serving: Vec<Option<Arc<TcpStream>>>,
    shutdown: bool,
}

/// A running server; dropping it shuts the server down and joins every
/// thread.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Starts serving `service` on `listener` with a fixed worker pool.
///
/// Returns as soon as the accept thread and workers are spawned; use the
/// returned [`ServerHandle`] to query the bound address (ephemeral ports),
/// wait for an orderly shutdown, or force one.
pub fn serve(
    service: ServiceHandle,
    listener: TcpListener,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    assert!(config.workers > 0, "server needs at least one worker");
    assert!(config.queue_depth > 0, "admission queue needs capacity");
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service,
        config,
        addr,
        admission: Mutex::new(Admission {
            queue: VecDeque::new(),
            serving: vec![None; config.workers],
            shutdown: false,
        }),
        queue_signal: Condvar::new(),
        service_hist: Histogram::new(),
        connections_served: AtomicU64::new(0),
        connections_shed: AtomicU64::new(0),
    });

    let mut workers = Vec::with_capacity(config.workers);
    for worker in 0..config.workers {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker_loop(&shared, worker)));
    }
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || accept_loop(&accept_shared, &listener));

    Ok(ServerHandle { shared, accept_thread: Some(accept_thread), workers })
}

impl ServerHandle {
    /// The address the server is listening on (resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Connections currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.shared.admission().queue.len()
    }

    /// Connections a worker has finished serving.
    pub fn connections_served(&self) -> u64 {
        self.shared.connections_served.load(Ordering::Relaxed)
    }

    /// Connections shed at admission with a typed `Overloaded` reply.
    pub fn connections_shed(&self) -> u64 {
        self.shared.connections_shed.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-server service-time histogram: each answered
    /// frame's decode + answer + encode pass divided by its length, recorded
    /// once per frame with the length as weight — `count` is queries served,
    /// a value is that frame's amortised ns/query, the wire excluded.
    pub fn service_latency(&self) -> ampc_obs::HistSnapshot {
        self.shared.service_hist.snapshot()
    }

    /// Asks the server to stop: no new connections are admitted, workers
    /// answer the frames already received, and exit. Does not block; pair
    /// with [`ServerHandle::wait`].
    pub fn request_shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Blocks until every server thread has exited. Call after
    /// [`ServerHandle::request_shutdown`], or let a client's `Shutdown`
    /// frame trigger it remotely.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// [`ServerHandle::request_shutdown`] + [`ServerHandle::wait`].
    pub fn shutdown(&mut self) {
        self.request_shutdown();
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn request_shutdown(shared: &Shared) {
    let mut admission = shared.admission();
    if std::mem::replace(&mut admission.shutdown, true) {
        return; // already shutting down
    }
    for stream in admission.serving.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    drop(admission);
    shared.queue_signal.notify_all();
    // The accept thread is parked in `accept()`; poke it awake with a
    // throwaway connection so it observes the flag. An unspecified bind
    // address is not connectable, so aim at the loopback of its family.
    let mut wake = shared.addr;
    match wake.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(500));
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        let mut admission = shared.admission();
        if admission.shutdown {
            return; // the shutdown wake-up connection lands here
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(e) => {
                drop(admission);
                if e.kind() != std::io::ErrorKind::Interrupted {
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
                continue;
            }
        };
        // Failpoint `net.accept`: firing drops the connection on the
        // floor, as if the accept had failed at the OS level.
        if fault::check(Site::NetAccept).is_err() {
            continue;
        }
        counter(CounterId::NetConnsAccepted).add(1);

        if admission.queue.len() >= shared.config.queue_depth {
            drop(admission);
            // Deterministic shed: typed Overloaded reply, then close.
            counter(CounterId::NetConnsShed).add(1);
            shared.connections_shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let payload = encode_error(ErrorCode::Overloaded, "admission queue full");
            let _ = write_frame(&mut stream, Opcode::RespError, 0, &payload);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        admission.queue.push_back(stream);
        gauge(GaugeId::NetAdmissionQueueDepth).set(admission.queue.len() as i64);
        drop(admission);
        shared.queue_signal.notify_one();
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let stream = {
            let mut admission = shared.admission();
            loop {
                if let Some(stream) = admission.queue.pop_front() {
                    gauge(GaugeId::NetAdmissionQueueDepth).set(admission.queue.len() as i64);
                    let stream = Arc::new(stream);
                    if admission.shutdown {
                        // Shutdown has swept the slots already: answer
                        // what this peer sent, then read EOF.
                        let _ = stream.shutdown(Shutdown::Read);
                    }
                    admission.serving[worker] = Some(Arc::clone(&stream));
                    break stream;
                }
                if admission.shutdown {
                    return;
                }
                admission = shared.queue_signal.wait(admission).expect("queue lock");
            }
        };
        serve_connection(shared, &stream);
        shared.admission().serving[worker] = None;
        drop(stream); // the last handle: closes the socket
        shared.connections_served.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serves one connection until the peer closes, a protocol error forces a
/// close, or shutdown shuts its read half. Application-level failures
/// (ReadOnly, Internal) answer with a typed error and keep the connection
/// open; structural protocol violations answer and close — a peer that
/// framed bytes wrong once cannot be trusted to frame the next ones right.
fn serve_connection(shared: &Shared, mut stream: &TcpStream) {
    let _ = stream.set_nodelay(true);

    let mut bufs = FrameBufs::default();
    loop {
        let frame = read_frame_into(&mut stream, shared.config.max_payload, &mut bufs.payload);
        let header = match frame {
            Ok(Some(h)) => h,
            Ok(None) => return, // the peer closed, or shutdown did
            // EOF mid-frame after shutdown shut the read half.
            Err(NetError::Protocol(ProtocolError::Truncated)) if shared.admission().shutdown => {
                return;
            }
            Err(NetError::Protocol(e)) => {
                counter(CounterId::NetProtocolErrors).add(1);
                let (code, message) = e.wire_error();
                let _ =
                    write_frame(&mut stream, Opcode::RespError, 0, &encode_error(code, &message));
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(NetError::Io(_)) => return,
        };
        counter(CounterId::NetRequests).add(1);
        match dispatch(shared, stream, header, &mut bufs) {
            Ok(ConnState::Keep) => {}
            Ok(ConnState::Close) => return,
            Err(_) => return, // write side failed; nothing left to say
        }
    }
}

/// The buffers one connection reuses for every frame it serves.
#[derive(Default)]
struct FrameBufs {
    /// The request payload as read off the socket.
    payload: Vec<u8>,
    /// The encoded `RespAnswers` payload.
    reply: Vec<u8>,
}

/// Answers the `QueryBatch` payload in `bufs.payload`, leaving the encoded
/// reply in `bufs.reply`: validate, pin one snapshot, then one timed pass
/// that decodes each record, answers it and writes the answer's bytes. On
/// a malformed payload `bufs.reply` is left as it was, nothing is pinned
/// and nothing is recorded.
fn answer_query_batch(
    service: &ServiceHandle,
    service_hist: &Histogram,
    bufs: &mut FrameBufs,
) -> Result<(), ProtocolError> {
    let FrameBufs { payload, reply } = bufs;
    let n = check_queries(payload)?;
    // Pin one snapshot for the whole frame: every answer in this batch
    // comes from one epoch, whatever publishes meanwhile.
    let snapshot = service.snapshot();
    let engine = snapshot.engine();
    reply.resize(n * ANSWER_WIRE_LEN, 0);
    timed_frame(&MonotonicClock, n, service_hist, hist(HistId::NetServiceNs), || {
        let records = payload.chunks_exact(QUERY_WIRE_LEN);
        for (out, rec) in reply.chunks_exact_mut(ANSWER_WIRE_LEN).zip(records) {
            // Every tag was checked above; `NO_ANSWER` keeps the pass total.
            let answer = decode_query(rec).map_or(NO_ANSWER, |q| engine.answer(q));
            out.copy_from_slice(&answer.to_le_bytes());
        }
    });
    counter(CounterId::QueriesServed).add(n as u64);
    Ok(())
}

enum ConnState {
    Keep,
    Close,
}

fn dispatch(
    shared: &Shared,
    mut stream: &TcpStream,
    header: Header,
    bufs: &mut FrameBufs,
) -> std::io::Result<ConnState> {
    let id = header.request_id;
    match header.opcode {
        Opcode::QueryBatch => {
            if let Err(e) = answer_query_batch(&shared.service, &shared.service_hist, bufs) {
                return protocol_reject(stream, id, &e);
            }
            write_frame(&mut stream, Opcode::RespAnswers, id, &bufs.reply)?;
            Ok(ConnState::Keep)
        }
        Opcode::Health => {
            let report = shared.service.health();
            let snapshot = shared.service.snapshot();
            let wire = WireHealth {
                state: report.state as u8,
                consecutive_failures: report.consecutive_failures,
                total_incidents: report.total_incidents,
                epoch: snapshot.epoch(),
                components: snapshot.num_components() as u64,
            };
            write_frame(&mut stream, Opcode::RespHealth, id, &wire.encode())?;
            Ok(ConnState::Keep)
        }
        Opcode::Metrics => {
            write_frame(&mut stream, Opcode::RespMetrics, id, ampc_obs::render_text().as_bytes())?;
            Ok(ConnState::Keep)
        }
        Opcode::InsertEdges => {
            let edges = match decode_edges(&bufs.payload) {
                Ok(e) => e,
                Err(e) => return protocol_reject(stream, id, &e),
            };
            match shared.service.insert_edges(&edges) {
                Ok(report) => {
                    let wire = WireInsertReport {
                        epoch: report.epoch,
                        applied: report.applied as u64,
                        components: report.components as u64,
                    };
                    write_frame(&mut stream, Opcode::RespInsert, id, &wire.encode())?;
                }
                Err(ServeError::ReadOnly) => {
                    // Typed refusal; the connection stays usable for reads.
                    let payload =
                        encode_error(ErrorCode::ReadOnly, "service is read-only; writes refused");
                    write_frame(&mut stream, Opcode::RespError, id, &payload)?;
                }
                Err(e) => {
                    let payload = encode_error(ErrorCode::Internal, &e.to_string());
                    write_frame(&mut stream, Opcode::RespError, id, &payload)?;
                }
            }
            Ok(ConnState::Keep)
        }
        Opcode::Shutdown => {
            write_frame(&mut stream, Opcode::RespShutdown, id, &[])?;
            request_shutdown(shared);
            Ok(ConnState::Close)
        }
        // Response opcodes arriving at the server are a peer bug.
        Opcode::RespAnswers
        | Opcode::RespHealth
        | Opcode::RespMetrics
        | Opcode::RespInsert
        | Opcode::RespShutdown
        | Opcode::RespError => protocol_reject(
            stream,
            id,
            &ProtocolError::Malformed("response opcode sent as request"),
        ),
    }
}

fn protocol_reject(
    mut stream: &TcpStream,
    id: u32,
    e: &ProtocolError,
) -> std::io::Result<ConnState> {
    counter(CounterId::NetProtocolErrors).add(1);
    let (code, message) = e.wire_error();
    let _ = write_frame(&mut stream, Opcode::RespError, id, &encode_error(code, &message));
    let _ = stream.shutdown(Shutdown::Both);
    Ok(ConnState::Close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_answers, encode_queries};
    use ampc_graph::generators::random_forest;
    use ampc_query::workload::{self, Mix};
    use ampc_query::Query;
    use ampc_serve::ServiceBuilder;

    /// The two buffers of a connection: a frame refused at its last record
    /// leaves them fit to answer the next frame exactly, and a second frame
    /// of the same size is answered in the same two allocations — which is
    /// how "a steady-state frame allocates no buffer" is checked.
    #[test]
    fn frame_buffers_survive_a_refused_frame_and_are_not_reallocated() {
        let service = ServiceBuilder::new(random_forest(500, 6, 0xB0F)).build().expect("service");
        let snapshot = service.snapshot();
        let engine = snapshot.engine();
        let hist = Histogram::new();
        let mut bufs = FrameBufs::default();
        let frame = |seed| workload::generate(snapshot.index(), Mix::Uniform, 1000, seed);
        let expected =
            |queries: &[Query]| queries.iter().map(|&q| engine.answer(q)).collect::<Vec<u64>>();

        let first = frame(1);
        bufs.payload = encode_queries(&first);
        answer_query_batch(&service, &hist, &mut bufs).expect("valid frame");
        assert_eq!(decode_answers(&bufs.reply).expect("reply"), expected(&first));
        let allocations = |b: &FrameBufs| (b.payload.as_ptr(), b.reply.as_ptr());
        let (before, reply) = (allocations(&bufs), bufs.reply.clone());

        let last = bufs.payload.len() - QUERY_WIRE_LEN;
        bufs.payload[last] = 0x99;
        assert_eq!(
            answer_query_batch(&service, &hist, &mut bufs),
            Err(ProtocolError::Malformed("unknown query tag"))
        );
        assert_eq!(bufs.reply, reply, "a refused frame encodes no partial reply");
        assert_eq!(hist.snapshot().count, 1000, "and records nothing");

        let second = frame(2);
        // A same-size frame lands in place, as `read_frame_into` reads it.
        bufs.payload.copy_from_slice(&encode_queries(&second));
        answer_query_batch(&service, &hist, &mut bufs).expect("valid frame");
        assert_eq!(decode_answers(&bufs.reply).expect("reply"), expected(&second));
        assert_eq!(allocations(&bufs), before, "same size, same two allocations");
        assert_eq!(hist.snapshot().count, 2000);
    }
}
