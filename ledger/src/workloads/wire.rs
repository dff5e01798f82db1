//! `wire_small` and `wire_large`: read frames over loopback TCP against a
//! live service. The op is one `Connection::query_batch` round trip; the
//! floor is a raw echo of the same byte counts on the same connection count.

use std::net::{SocketAddr, TcpListener};
use std::sync::Barrier;
use std::time::Instant;

use ampc::rng::derive_seed;
use ampc::DhtBackend;
use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::generators::random_forest;
use ampc_graph::{reference_components, Graph, Labeling};
use ampc_net::protocol::{
    decode_answers, decode_queries, encode_answers, encode_header, encode_queries, Opcode,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, QUERY_WIRE_LEN,
};
use ampc_net::{serve, ClientError, Connection, ServerConfig, ServerHandle};
use ampc_obs::{CounterId, Histogram};
use ampc_query::throughput::timed_pass;
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, Query, QueryEngine};
use ampc_serve::{JournalBudget, ServiceBuilder, ServiceHandle};

use super::{Ctx, Layers, Rep, Workload};
use crate::floor;
use crate::probes::{self, checksum, time_ns};
use crate::report::{Outcome, Report};
use crate::spans::Spans;
use crate::stats;

/// All wire load is two connections, one frame in flight each: one
/// connection alone measured 47-60 us per frame and bimodal, two 18 us.
pub const CONNS: usize = 2;
const ANSWER_WIRE_LEN: usize = 8;

/// A forest, its published service, a server in front of it on an ephemeral
/// loopback port, and the oracle index expected answers come from.
pub struct Served {
    pub g: Graph,
    pub svc: ServiceHandle,
    pub server: ServerHandle,
    pub addr: SocketAddr,
    pub reference: Labeling,
    pub oracle: ComponentIndex,
    pub generate_ms: f64,
    pub oracle_ms: f64,
}

impl Served {
    pub fn forest(n: usize, trees: usize, seed: u64, budget: JournalBudget) -> Served {
        let (g, generate_ns) = time_ns(|| random_forest(n, trees, derive_seed(&[seed, 1])));
        let spec = PipelineSpec::default()
            .with_backend(DhtBackend::dense())
            .with_seed(derive_seed(&[seed, 2]))
            .with_machines(8);
        let svc = ServiceBuilder::new(g.clone())
            .spec(spec)
            .journal_budget(budget)
            .build()
            .expect("the pipeline builds its input");
        let listener = TcpListener::bind("127.0.0.1:0").expect("an ephemeral loopback port");
        let config =
            ServerConfig { workers: CONNS, queue_depth: 64, max_payload: DEFAULT_MAX_PAYLOAD };
        let server = serve(svc.clone(), listener, config).expect("server threads start");
        let (reference, oracle_ns) = time_ns(|| reference_components(&g));
        let oracle = ComponentIndex::build(&reference);
        Served {
            addr: server.local_addr(),
            g,
            svc,
            server,
            reference,
            oracle,
            generate_ms: generate_ns / 1e6,
            oracle_ms: oracle_ns / 1e6,
        }
    }

    /// Words of served base index per input word.
    pub fn space_per_input(&self) -> f64 {
        let words = self.svc.snapshot().index().heap_bytes() as f64 / 8.0;
        words / (self.g.n() + self.g.m()) as f64
    }
}

/// `frames` read frames of `per_frame` queries, frame `i` drawn from mix
/// `i % 3` of `Mix::STANDARD`. One stream per mix is generated and cut up:
/// `generate` builds its Zipf table on every call.
pub fn read_frames(
    index: &ComponentIndex,
    frames: usize,
    per_frame: usize,
    seed: u64,
) -> Vec<Vec<Query>> {
    let per_mix = frames.div_ceil(3) * per_frame;
    let streams = Mix::STANDARD.map(|mix| workload::generate(index, mix, per_mix, seed));
    (0..frames).map(|i| streams[i % 3][(i / 3) * per_frame..][..per_frame].to_vec()).collect()
}

/// One read frame driven stage by stage, so that the round trip splits into
/// `frame{net.encode, net.on_wire, net.decode}`; then, if `sp` is recording,
/// the server's work on the same frame repeated in process as
/// `net.server{..}`. The two writes mirror `write_frame`, so the wire sees
/// what `query_batch` would send. Returns the answers and the round trip in ns.
pub fn traced_read_frame(
    conn: &mut Connection,
    svc: &ServiceHandle,
    id: u32,
    queries: &[Query],
    sp: &mut Spans,
) -> Result<(Vec<u64>, u64), ClientError> {
    let t = Instant::now();
    let frame = sp.enter("frame");
    let encode = sp.enter("net.encode");
    let payload = encode_queries(queries);
    let header = encode_header(Opcode::QueryBatch, payload.len() as u32, id);
    sp.exit(encode);
    let on_wire = sp.enter("net.on_wire");
    conn.send_raw(&header)?;
    conn.send_raw(&payload)?;
    let (reply, body) = conn.recv_raw()?.ok_or(ClientError::Closed)?;
    sp.exit(on_wire);
    let decode = sp.enter("net.decode");
    let answers = decode_answers(&body).map_err(ClientError::Protocol)?;
    sp.exit(decode);
    sp.exit(frame);
    let frame_ns = t.elapsed().as_nanos() as u64;
    if reply.opcode != Opcode::RespAnswers
        || reply.request_id != id
        || answers.len() != queries.len()
    {
        return Err(ClientError::Closed);
    }
    if !sp.is_on() {
        return Ok((answers, frame_ns));
    }

    // What `server.rs` does with a QueryBatch frame, through the same public
    // functions: decode, pin one snapshot, `timed_pass`, encode.
    let (service_hist, global_hist) = (Histogram::new(), Histogram::new());
    let server = sp.enter("net.server");
    let stage = sp.enter("net.decode_queries");
    let decoded = decode_queries(&payload).expect("own encoding");
    sp.exit(stage);
    let stage = sp.enter("serve.pin");
    let snapshot = svc.snapshot();
    let engine = snapshot.engine();
    sp.exit(stage);
    let stage = sp.enter("query.timed_pass");
    let mut twin = Vec::with_capacity(decoded.len());
    timed_pass(&engine, &decoded, &service_hist, &global_hist, |a| twin.push(a));
    sp.exit(stage);
    let stage = sp.enter("net.encode_answers");
    std::hint::black_box(encode_answers(&twin));
    sp.exit(stage);
    sp.exit(server);
    Ok((answers, frame_ns))
}

/// What one connection of a segment did.
struct Driven {
    samples: Vec<u64>,
    started: Instant,
    ended: Instant,
    outcome: Outcome,
    spans: Spans,
}

/// One closed-loop connection: connect fresh, wait for the other, then one
/// frame in flight at a time. A transport error fails the rest of the
/// connection's frames.
fn drive(
    served: &Served,
    pool: &[(Vec<Query>, u64)],
    frames: usize,
    trace_every: usize,
    start: &Barrier,
    mut spans: Spans,
) -> Driven {
    let traced = spans.is_on();
    let conn = Connection::connect(served.addr);
    start.wait();
    let started = Instant::now();
    let mut samples = Vec::with_capacity(frames);
    let mut outcome = Outcome::default();
    if let Ok(mut conn) = conn {
        for i in 0..frames {
            let (queries, expected) = &pool[i % pool.len()];
            let answered = if traced {
                // Every frame of a traced segment goes stage by stage; one in
                // `trace_every` records its spans (nine per frame add up).
                spans.switch(i % trace_every == 0);
                traced_read_frame(&mut conn, &served.svc, i as u32, queries, &mut spans)
            } else {
                let t = Instant::now();
                conn.query_batch(queries).map(|a| (a, t.elapsed().as_nanos() as u64))
            };
            match answered {
                Ok((answers, ns)) => {
                    samples.push(ns);
                    outcome.check(checksum(&answers) == *expected);
                }
                Err(_) => break,
            }
        }
    }
    let ended = Instant::now();
    while (outcome.attempted as usize) < frames {
        outcome.check(false);
    }
    Driven { samples, started, ended, outcome, spans }
}

/// Frame size and count of a wire workload.
pub struct Size {
    /// Queries per frame.
    queries: usize,
    /// Frames each connection sends in one segment.
    frames: usize,
    /// Distinct frames each connection cycles through.
    pool: usize,
    /// A traced segment records the spans of one frame in this many.
    trace_every: usize,
    /// Echo round trips per connection in the floor phase: enough for the
    /// phase to last 10-20 ms, so that its median does not hang on where the
    /// scheduler put four threads for a moment.
    floor_trips: usize,
    /// Whether the traced run also probes an index past the L2.
    probe_2p22: bool,
}

pub const SMALL: Size = Size {
    queries: 8,
    frames: 2500,
    pool: 2500,
    trace_every: 25,
    floor_trips: 2500,
    probe_2p22: false,
};

pub const LARGE: Size = Size {
    queries: 4096,
    frames: 250,
    pool: 25,
    trace_every: 1,
    floor_trips: 1000,
    probe_2p22: true,
};

pub struct Wire {
    size: &'static Size,
    served: Served,
    /// Per connection: the frames it cycles through and the wrapping checksum
    /// the in-process engine gives each over the oracle index.
    pools: Vec<Vec<(Vec<Query>, u64)>>,
    seed: u64,
}

impl Wire {
    /// Everything before the first timed frame: CPU work only.
    pub fn setup(seed: u64, size: &'static Size) -> Self {
        let served = Served::forest(1 << 18, 1 << 12, seed, JournalBudget::default());
        let engine = QueryEngine::new(&served.oracle);
        let mut frames =
            read_frames(&served.oracle, CONNS * size.pool, size.queries, seed).into_iter();
        let pools = (0..CONNS)
            .map(|_| {
                frames
                    .by_ref()
                    .take(size.pool)
                    .map(|queries| {
                        let expected = checksum(&probes::answers(&engine, &queries));
                        (queries, expected)
                    })
                    .collect()
            })
            .collect();
        Wire { size, served, pools, seed }
    }
}

impl Workload for Wire {
    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        let size = self.size;
        let start = Barrier::new(CONNS);
        ctx.cpu.begin();
        let driven: Vec<Driven> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .pools
                .iter()
                .map(|pool| {
                    let (served, start, spans) = (&self.served, &start, ctx.spans.fork());
                    scope.spawn(move || {
                        drive(served, pool, size.frames, size.trace_every, start, spans)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        ctx.cpu.end();

        let echoed = floor::echo(
            HEADER_LEN + size.queries * QUERY_WIRE_LEN,
            HEADER_LEN + size.queries * ANSWER_WIRE_LEN,
            CONNS,
            size.floor_trips,
        )
        .expect("loopback echo");

        let started = driven.iter().map(|d| d.started).min().expect("two connections");
        let ended = driven.iter().map(|d| d.ended).max().expect("two connections");
        let mut segment: Vec<u64> = Vec::with_capacity(CONNS * size.frames);
        for d in driven {
            segment.extend_from_slice(&d.samples);
            ctx.outcome.absorb(d.outcome);
            ctx.spans.merge(d.spans);
        }
        assert!(!segment.is_empty(), "no frame of the segment was answered");
        ctx.samples.extend_from_slice(&segment);
        let answered = (segment.len() * size.queries) as f64;
        Rep {
            op_ns: stats::percentile(&stats::sorted_ns(&segment), 50.0),
            floor_ns: stats::percentile(&stats::sorted_ns(&echoed.concat()), 50.0),
            work_per_s: answered / (ended - started).as_secs_f64(),
        }
    }

    fn space_per_input(&self) -> f64 {
        self.served.space_per_input()
    }

    fn layers(self, layers: &mut Layers<'_>) {
        let report = &mut *layers.report;
        let Wire { size, served, pools, seed } = self;
        report.set("graph.generate_ms", served.generate_ms);
        report.set("graph.oracle_ms", served.oracle_ms);
        report.set("graph.validate_ms", time_ns(|| served.reference.validates(&served.g)).1 / 1e6);
        probes::query_rows(&served.oracle, &served.reference, &served.g, seed, report);
        probes::pin_rows(&served.svc, report);
        let frames: Vec<&[Query]> = pools[0].iter().take(64).map(|(q, _)| q.as_slice()).collect();
        probes::codec_rows(&frames, &QueryEngine::new(&served.oracle), report);
        net_rows(&served, layers.spans, report);
        let frame_bytes = (size.queries * (QUERY_WIRE_LEN + ANSWER_WIRE_LEN)) as f64;
        let frames_per_s = layers.work_per_s / size.queries as f64;
        report.set("net.echo_us", layers.floor_ns / 1e3);
        report.set("net.frames_per_s", frames_per_s);
        report.set("net.payload_mb_per_s", frames_per_s * frame_bytes / 1e6);

        let us = |name: &str| stats::median(&layers.spans.durations(name)) / 1e3;
        let codec_engine = us("net.encode")
            + us("net.decode")
            + us("net.decode_queries")
            + us("query.timed_pass")
            + us("net.encode_answers");
        print_read_budget(layers.spans, Some(layers.quiet_op_ns));
        println!(
            "codec + engine: {codec_engine:.2} us = {:.1} % of the traced frame ({:.0} payload \
             bytes per frame)",
            100.0 * codec_engine / us("frame"),
            frame_bytes
        );

        if size.probe_2p22 {
            // An index past the 4 MiB L2, built once the service is gone.
            drop(served);
            let big = random_forest(1 << 22, 1 << 14, derive_seed(&[seed, 3]));
            let index = ComponentIndex::build(&reference_components(&big));
            drop(big);
            let queries = workload::generate(&index, Mix::Uniform, 1 << 18, seed);
            let ns = probes::batch_ns_per_query(&QueryEngine::new(&index), &queries);
            report.set("query.batch_ns_per_query.2p22", ns);
        }
    }
}

/// The budget of a read frame in the quietest traced repetition (medians of
/// all of them carry the host's slow spells, which a quiet value leaves out):
/// client codec, the server's stages repeated in process, and transport as
/// the named residual.
pub fn print_read_budget(spans: &Spans, quiet_op_ns: Option<f64>) {
    let quiet = spans.of_rep(spans.quietest_rep("frame").expect("a traced frame"));
    let us = |name: &str| stats::median(&quiet.durations(name)) / 1e3;
    let on_wire = stats::median(&quiet.child_durations("frame", "net.on_wire")) / 1e3;
    let server = us("net.server");
    let parts = us("net.encode") + us("net.decode") + server + (on_wire - server);
    println!(
        "budget (medians of the quietest traced repetition, us): net.encode {:.2} + net.decode {:.2} + net.server \
         {server:.2} (net.decode_queries {:.2}, serve.pin {:.2}, query.timed_pass {:.2}, \
         net.encode_answers {:.2}) + net.transport {:.2} (residual of net.on_wire {on_wire:.2}) \
         = {parts:.2}{}",
        us("net.encode"),
        us("net.decode"),
        us("net.decode_queries"),
        us("serve.pin"),
        us("query.timed_pass"),
        us("net.encode_answers"),
        on_wire - server,
        quiet_op_ns.map_or(String::new(), |q| format!(
            "; untraced quiet op {:.2}; parts / quiet = {:.3}",
            q / 1e3,
            parts * 1e3 / q
        )),
    );
}

/// The `net.*` and `obs.*` rows every wire workload reports. Runs after the
/// repetitions, with no other connection open: the server has two workers.
pub fn net_rows(served: &Served, spans: &Spans, report: &mut Report) {
    // Of read frames: an insert has a `net.on_wire` of its own.
    let on_wire_us = stats::median(&spans.child_durations("frame", "net.on_wire")) / 1e3;
    let server_us = stats::median(&spans.durations("net.server")) / 1e3;
    report.set("net.on_wire_us", on_wire_us);
    report.set("net.server_us", server_us);
    report.set("net.transport_us", on_wire_us - server_us);

    let mut conn = Connection::connect(served.addr).expect("connect for the probes");
    let health: Vec<f64> =
        (0..2000).map(|_| time_ns(|| conn.health().expect("health")).1).collect();
    report.set("net.health_rtt_us", stats::median(&health) / 1e3);
    let scrapes: Vec<f64> =
        (0..20).map(|_| time_ns(|| conn.metrics().expect("metrics").len()).1).collect();
    report.set("obs.scrape_ms", stats::median(&scrapes) / 1e6);
    drop(conn);
    let connects: Vec<f64> = (0..200)
        .map(|_| {
            time_ns(|| {
                let mut fresh = Connection::connect(served.addr).expect("connect");
                fresh.health().expect("first reply").epoch
            })
            .1
        })
        .collect();
    report.set("net.connect_us", stats::median(&connects) / 1e3);

    let service = served.server.service_latency();
    report.set("net.service_p50_ns", service.quantile(0.5) as f64);
    report.set("net.service_p99_ns", service.quantile(0.99) as f64);
    let count = |id| ampc_obs::counter(id).get() as f64;
    report.set("net.conns_accepted", count(CounterId::NetConnsAccepted));
    report.set("net.conns_shed", served.server.connections_shed() as f64);
    report.set("net.protocol_errors", count(CounterId::NetProtocolErrors));
}
