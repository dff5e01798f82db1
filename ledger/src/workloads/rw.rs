//! `wire_rw`: edge inserts beside reads. A repetition resets the service to
//! its base graph (untimed), then replays a fixed script of 128 insert
//! batches, each merging exactly 16 components, on connection B while
//! connection A keeps reading. The op is the `insert_edges` round trip.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::Instant;

use ampc::rng::{derive_seed, SplitMix64};
use ampc_graph::{Labeling, UnionFind};
use ampc_net::protocol::{encode_edges, encode_header, Opcode, WireInsertReport, HEADER_LEN};
use ampc_net::{ClientError, Connection};
use ampc_obs::HistId;
use ampc_query::{ComponentIndex, JournalView, Query, QueryEngine};
use ampc_serve::{JournalBudget, ServiceBuilder, ServiceHandle};

use super::wire::{net_rows, read_frames, traced_read_frame, Served, CONNS};
use super::{Ctx, Layers, Rep, Workload};
use crate::floor;
use crate::probes::{self, answers, median_ms, time_ns};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats;

const N: usize = 1 << 17;
const TREES: usize = 1 << 13;
const BATCHES: usize = 128;
const EDGES_PER_BATCH: usize = 16;
const READS_PER_BATCH: usize = 8;
const READ_QUERIES: usize = 256;
const A_POOL: usize = 16;
/// Echo round trips per connection in the floor phase (about 18 ms).
const FLOOR_TRIPS: usize = 2500;
const VERIFY_QUERIES: usize = 4096;

/// Phases of a repetition, as connection A sees them.
const RESETTING: u8 = 0;
const SCRIPT: u8 = 1;
const DONE: u8 = 2;

pub struct Rw {
    served: Served,
    batches: Vec<Vec<(u32, u32)>>,
    /// B's read frames with their answers in the one journal state each is
    /// sent in: frame `k` in state `k / READS_PER_BATCH`.
    b_frames: Vec<(Vec<Query>, Vec<u64>)>,
    a_frames: Vec<Vec<Query>>,
    /// `a_expected[state][frame]`: A's answers in each of the 129 states.
    a_expected: Vec<Vec<Vec<u64>>>,
    /// From-scratch index of the graph after the whole script.
    final_index: ComponentIndex,
    /// Merge class of every base component after 64 batches.
    mid_classes: Vec<u32>,
    /// Journal state the service is in: 0 fresh, 128 after a script.
    state: usize,
    /// A second service that replays the script in process in traced
    /// repetitions; built by the first of them.
    twin: Option<ServiceHandle>,
    rebuild_ms: Vec<f64>,
    read_slowdown: Vec<f64>,
    epochs: Vec<f64>,
    seed: u64,
}

/// An insert frame driven stage by stage, `insert{net.on_wire}`, then the
/// same batch applied to the twin in process, `serve.insert{query.journal_build}`.
fn traced_insert(
    conn: &mut Connection,
    twin: &ServiceHandle,
    id: u32,
    batch: &[(u32, u32)],
    sp: &mut Spans,
) -> Result<(WireInsertReport, u64), ClientError> {
    let insert = sp.enter("insert");
    let payload = encode_edges(batch);
    let header = encode_header(Opcode::InsertEdges, payload.len() as u32, id);
    let on_wire = sp.enter("net.on_wire");
    conn.send_raw(&header)?;
    conn.send_raw(&payload)?;
    let (reply, body) = conn.recv_raw()?.ok_or(ClientError::Closed)?;
    sp.exit(on_wire);
    let report = WireInsertReport::decode(&body).map_err(ClientError::Protocol)?;
    let ns = sp.exit(insert);
    if reply.opcode != Opcode::RespInsert || reply.request_id != id {
        return Err(ClientError::Closed);
    }
    // B is the only writer and waits for each reply, so the histogram moves
    // here by the twin's journal build alone.
    let before = ampc_obs::hist(HistId::JournalBuildNs).snapshot().sum;
    let serve = sp.enter("serve.insert");
    twin.insert_edges(batch).expect("the twin accepts the script");
    sp.exit(serve);
    let journal_ns = ampc_obs::hist(HistId::JournalBuildNs).snapshot().sum - before;
    sp.reported_under(serve, "query.journal_build", 0, journal_ns);
    Ok((report, ns))
}

/// What connection B did in one repetition.
struct Written {
    samples: Vec<u64>,
    read_queries: usize,
    script_s: f64,
    outcome: Outcome,
    spans: Spans,
}

/// What connection A did in one repetition.
struct ReadBeside {
    reset_queries: usize,
    script_queries: usize,
    outcome: Outcome,
}

/// The signals of one repetition.
struct Signals {
    phase: AtomicU8,
    /// Inserts B has sent / has had acknowledged.
    started: AtomicUsize,
    done: AtomicUsize,
    connected: Barrier,
    go: Barrier,
}

impl Rw {
    /// Connection B: per batch 8 read frames, each equal to the current
    /// journal state exactly, then the timed insert.
    fn write(&self, sig: &Signals, spans: Spans) -> Written {
        let conn = Connection::connect(self.served.addr);
        sig.connected.wait();
        sig.go.wait();
        let mut w = Written {
            samples: Vec::with_capacity(BATCHES),
            read_queries: 0,
            script_s: 0.0,
            outcome: Outcome::default(),
            spans,
        };
        let script = Instant::now();
        if let Ok(mut conn) = conn {
            // A transport error ends the script; what it never reached is
            // counted as failed below.
            let _ = self.script(&mut conn, sig, &mut w);
        }
        w.script_s = script.elapsed().as_secs_f64();
        sig.phase.store(DONE, SeqCst);
        while (w.outcome.attempted as usize) < BATCHES * (READS_PER_BATCH + 1) {
            w.outcome.check(false);
        }
        w
    }

    fn script(
        &self,
        conn: &mut Connection,
        sig: &Signals,
        w: &mut Written,
    ) -> Result<(), ClientError> {
        let traced = w.spans.is_on();
        let base = self.served.oracle.num_components();
        for (i, batch) in self.batches.iter().enumerate() {
            for k in i * READS_PER_BATCH..(i + 1) * READS_PER_BATCH {
                let (queries, expected) = &self.b_frames[k];
                let got = if traced {
                    traced_read_frame(conn, &self.served.svc, k as u32, queries, &mut w.spans)?.0
                } else {
                    conn.query_batch(queries)?
                };
                w.outcome.check(got == *expected);
                w.read_queries += queries.len();
            }
            sig.started.store(i + 1, SeqCst);
            let (report, ns) = match &self.twin {
                Some(twin) if traced => {
                    traced_insert(conn, twin, (1 << 20) + i as u32, batch, &mut w.spans)?
                }
                _ => {
                    let t = Instant::now();
                    let report = conn.insert_edges(batch)?;
                    (report, t.elapsed().as_nanos() as u64)
                }
            };
            sig.done.store(i + 1, SeqCst);
            w.samples.push(ns);
            let left = (base - EDGES_PER_BATCH * (i + 1)) as u64;
            w.outcome.check(report.applied == EDGES_PER_BATCH as u64 && report.components == left);
        }
        Ok(())
    }

    /// Connection A: read frames from the start of the reset until B is
    /// done. A reply must equal some journal state between the one current
    /// when the frame was sent and the one current when it returned.
    fn read_beside(&self, sig: &Signals) -> ReadBeside {
        let conn = Connection::connect(self.served.addr);
        sig.connected.wait();
        let mut r = ReadBeside { reset_queries: 0, script_queries: 0, outcome: Outcome::default() };
        let Ok(mut conn) = conn else {
            r.outcome.check(false);
            return r;
        };
        for k in 0.. {
            let sent_in = sig.phase.load(SeqCst);
            if sent_in == DONE {
                break;
            }
            let frame = k % A_POOL;
            let oldest = sig.done.load(SeqCst);
            let Ok(got) = conn.query_batch(&self.a_frames[frame]) else {
                r.outcome.check(false);
                break;
            };
            let newest = sig.started.load(SeqCst);
            let returned_in = sig.phase.load(SeqCst);
            // Until the reset publishes, the previous script's last state.
            let stale = sent_in == RESETTING && got == self.a_expected[self.state][frame];
            r.outcome.check(stale || (oldest..=newest).any(|s| got == self.a_expected[s][frame]));
            match (sent_in, returned_in) {
                (RESETTING, RESETTING) => r.reset_queries += got.len(),
                (SCRIPT, SCRIPT) => r.script_queries += got.len(),
                _ => {}
            }
        }
        r
    }
}

impl Rw {
    /// Everything before the first timed script: CPU work only.
    pub fn setup(seed: u64) -> Self {
        let served = Served::forest(N, TREES, seed, JournalBudget::unbounded());
        let base = &served.oracle;
        let mut frames =
            read_frames(base, BATCHES * READS_PER_BATCH + A_POOL, READ_QUERIES, seed).into_iter();
        let a_frames: Vec<Vec<Query>> = frames.by_ref().take(A_POOL).collect();
        let mut b_frames: Vec<(Vec<Query>, Vec<u64>)> = frames.map(|q| (q, Vec::new())).collect();

        // Every edge of the script joins two components that are still
        // apart, so every batch merges exactly 16: 8 192 -> 6 144.
        let mut rng = SplitMix64::new(derive_seed(&[seed, 4]));
        let mut components = UnionFind::new(base.num_components());
        let mut vertices = UnionFind::new(N);
        for (u, v) in served.g.edges() {
            vertices.union(u, v);
        }
        let (mut batches, mut a_expected) = (Vec::new(), Vec::new());
        let (mut mid_classes, mut final_index) = (Vec::new(), None);
        for state in 0..=BATCHES {
            // The oracle of a state: an index built from scratch over the
            // labels of the merged graph.
            let index = ComponentIndex::build(&Labeling(vertices.labels()));
            let engine = QueryEngine::new(&index);
            a_expected.push(a_frames.iter().map(|q| answers(&engine, q)).collect());
            if state == BATCHES {
                final_index = Some(index);
                break;
            }
            for (queries, expected) in &mut b_frames[state * READS_PER_BATCH..][..READS_PER_BATCH] {
                *expected = answers(&engine, queries);
            }
            let mut batch = Vec::with_capacity(EDGES_PER_BATCH);
            while batch.len() < EDGES_PER_BATCH {
                let (u, v) = (rng.next_below(N as u64) as u32, rng.next_below(N as u64) as u32);
                if components.union(base.component_of(u), base.component_of(v)) {
                    vertices.union(u, v);
                    batch.push((u, v));
                }
            }
            batches.push(batch);
            if state + 1 == BATCHES / 2 {
                mid_classes =
                    (0..base.num_components() as u32).map(|c| components.find(c)).collect();
            }
        }
        Rw {
            served,
            batches,
            b_frames,
            a_frames,
            a_expected,
            final_index: final_index.expect("the loop reaches the last state"),
            mid_classes,
            state: 0,
            twin: None,
            rebuild_ms: Vec::new(),
            read_slowdown: Vec::new(),
            epochs: Vec::new(),
            seed,
        }
    }
}

impl Workload for Rw {
    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        if ctx.traced {
            // The twin starts every traced script from the base graph too.
            match &self.twin {
                Some(twin) => {
                    twin.rebuild_blocking(self.served.g.clone()).expect("twin reset");
                }
                None => {
                    let twin = ServiceBuilder::new(self.served.g.clone())
                        .spec(self.served.svc.spec().clone())
                        .journal_budget(JournalBudget::unbounded())
                        .build()
                        .expect("twin build");
                    self.twin = Some(twin);
                }
            }
        }
        let sig = Signals {
            phase: AtomicU8::new(RESETTING),
            started: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            connected: Barrier::new(CONNS + 1),
            go: Barrier::new(2),
        };
        let base_graph = self.served.g.clone();
        let this = &*self;
        let (written, beside, rebuild_s, epochs) = std::thread::scope(|scope| {
            let spans = ctx.spans.fork();
            let a = scope.spawn(|| this.read_beside(&sig));
            let b = scope.spawn(|| this.write(&sig, spans));
            sig.connected.wait();
            // The reset, untimed: a full rebuild swapping the base under the
            // two open sockets while A reads.
            let t = Instant::now();
            let reset = this.served.svc.rebuild_blocking(base_graph);
            let rebuild_s = t.elapsed().as_secs_f64();
            let epoch_before = this.served.svc.current_epoch();
            sig.phase.store(SCRIPT, SeqCst);
            ctx.cpu.begin();
            sig.go.wait();
            let written = b.join().expect("connection B panicked");
            ctx.cpu.end();
            let beside = a.join().expect("connection A panicked");
            reset.expect("the reset rebuild publishes");
            (written, beside, rebuild_s, this.served.svc.current_epoch() - epoch_before)
        });
        self.state = BATCHES;

        let echoed =
            floor::echo(HEADER_LEN + EDGES_PER_BATCH * 8, HEADER_LEN + 24, CONNS, FLOOR_TRIPS)
                .expect("loopback echo");

        ctx.outcome.absorb(written.outcome);
        ctx.outcome.absorb(beside.outcome);
        ctx.spans.merge(written.spans);
        assert!(!written.samples.is_empty(), "no insert of the script was acknowledged");
        ctx.samples.extend_from_slice(&written.samples);
        self.rebuild_ms.push(rebuild_s * 1e3);
        self.epochs.push(epochs as f64);
        let reset_rate = beside.reset_queries as f64 / rebuild_s;
        let script_rate = beside.script_queries as f64 / written.script_s;
        if script_rate > 0.0 {
            self.read_slowdown.push(reset_rate / script_rate);
        }
        Rep {
            op_ns: stats::percentile(&stats::sorted_ns(&written.samples), 50.0),
            floor_ns: stats::percentile(&stats::sorted_ns(&echoed.concat()), 50.0),
            work_per_s: (beside.script_queries + written.read_queries) as f64 / written.script_s,
        }
    }

    fn space_per_input(&self) -> f64 {
        self.served.space_per_input()
    }

    /// After the last script: every vertex's component and component size
    /// over the wire equal the from-scratch index of the merged graph.
    fn finish(&mut self, outcome: &mut Outcome) {
        let queries: Vec<Query> =
            (0..N as u32).flat_map(|v| [Query::ComponentOf(v), Query::ComponentSize(v)]).collect();
        let engine = QueryEngine::new(&self.final_index);
        let mut conn = Connection::connect(self.served.addr).ok();
        for frame in queries.chunks(VERIFY_QUERIES) {
            let got = conn.as_mut().and_then(|c| c.query_batch(frame).ok());
            outcome.check(got.is_some_and(|got| got == answers(&engine, frame)));
        }
    }

    fn layers(self, layers: &mut Layers<'_>) {
        let report = &mut *layers.report;
        let spans = layers.spans;
        let served = &self.served;
        report.set("graph.generate_ms", served.generate_ms);
        report.set("graph.oracle_ms", served.oracle_ms);
        report.set("graph.validate_ms", time_ns(|| served.reference.validates(&served.g)).1 / 1e6);
        probes::query_rows(&served.oracle, &served.reference, &served.g, self.seed, report);
        probes::pin_rows(&served.svc, report);
        let frames: Vec<&[Query]> =
            self.b_frames.iter().take(64).map(|(q, _)| q.as_slice()).collect();
        probes::codec_rows(&frames, &QueryEngine::new(&served.oracle), report);
        net_rows(served, spans, report);
        let frame_bytes = (READ_QUERIES * 20) as f64;
        let frames_per_s = layers.work_per_s / READ_QUERIES as f64;
        report.set("net.echo_us", layers.floor_ns / 1e3);
        report.set("net.frames_per_s", frames_per_s);
        report.set("net.payload_mb_per_s", frames_per_s * frame_bytes / 1e6);

        let build =
            || JournalView::build(&self.mid_classes, &served.oracle).expect("script classes");
        let journal = build();
        report.set("query.journal_build_us", median_ms(21, build) * 1e3);
        let queries: Vec<Query> =
            self.b_frames.iter().flat_map(|(q, _)| q.iter().copied()).collect();
        let plain = probes::batch_ns_per_query(&QueryEngine::new(&served.oracle), &queries);
        let merged = probes::batch_ns_per_query(
            &QueryEngine::with_journal(&served.oracle, &journal),
            &queries,
        );
        report.set("query.journal_read_penalty", merged / plain);

        let insert_us = stats::median(&spans.durations("serve.insert")) / 1e3;
        report.set("serve.insert_us", insert_us);
        report.set("serve.rebuild_ms", stats::median(&self.rebuild_ms));
        report.set("serve.read_slowdown_rebuild", stats::median(&self.read_slowdown));
        report.set("serve.journal_epochs", stats::median(&self.epochs));

        let quiet = spans.of_rep(spans.quietest_rep("insert").expect("a traced insert"));
        let us = |v: Vec<f64>| stats::median(&v) / 1e3;
        let insert = us(quiet.durations("insert"));
        let on_wire = us(quiet.child_durations("insert", "net.on_wire"));
        let journal_us = us(quiet.durations("query.journal_build"));
        let insert_us = us(quiet.durations("serve.insert"));
        println!(
            "budget (medians of the quietest traced repetition, us): client codec {:.2} + \
             serve.insert {insert_us:.2} \
             (query.journal_build {journal_us:.2} inside) + net.transport {:.2} (residual of \
             net.on_wire {on_wire:.2}) = {insert:.2}; untraced quiet op {:.2}; parts / quiet = {:.3}",
            insert - on_wire,
            on_wire - insert_us,
            layers.quiet_op_ns / 1e3,
            insert / (layers.quiet_op_ns / 1e3),
        );
        super::wire::print_read_budget(spans, None);
    }
}
