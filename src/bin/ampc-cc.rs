//! `ampc-cc` — command-line connected components over edge-list files.
//!
//! ```text
//! ampc-cc <file> [--forest|--general|--auto] [--k K] [--seed S]
//!                [--machines M] [--backend B] [--labels] [--trace]
//!                [--metrics] [--json] [--persist PATH] [--fail SPEC]
//! ampc-cc query [<file>] [pipeline options as above]
//!                [--mix uniform|zipf[:EXP]|cross] [--queries N] [--batch B]
//!                [--threads T] [--query-file F] [--top K] [--json]
//!                [--stream N] [--stream-batch E] [--from-snapshot PATH]
//!                [--fail SPEC] [--chaos SEED]
//!                [--connect ADDR [--shutdown]]
//! ampc-cc serve <file> [pipeline options as above]
//!                [--listen ADDR] [--workers W] [--queue D]
//!                [--port-file PATH] [--from-snapshot PATH] [--fail SPEC]
//!
//!   <file>       edge list ("u v" per line, optional "# nodes: N" header);
//!                use "-" for stdin
//!   --auto       pick Algorithm 1 for forests, Algorithm 2 otherwise (default)
//!   --k K        space parameter (Theorems 1.1/1.2), default 2
//!   --backend B  DHT storage backend: "dense" (default) or "dense:CAP" for
//!                direct-indexed slabs of CAP ids per keyspace (unhinted
//!                "dense" sizes slabs from the input), "flat" for the
//!                single-hash-map reference, "sharded" or "sharded:N" for N
//!                hash shards. Results are identical across backends;
//!                sharded/dense merge round output in parallel and dense
//!                reads skip hashing entirely
//!   --labels     print "vertex component" lines to stdout
//!   --trace      print the per-round cost ledger; in query mode an
//!                optional integer operand (`--trace N`) additionally dumps
//!                the last N structured trace events (epoch publishes,
//!                journal builds, compactions, incidents, snapshot
//!                persists/boots, rounds) from the process trace ring
//!   --metrics    print structural metrics of the input first, and the
//!                process metrics table (counters, gauges, latency
//!                quantiles) at the end
//!   --json       emit one machine-readable JSON object on stdout (labels +
//!                RunStats for runs; the throughput report for queries)
//!
//! Both subcommands drive one `PipelineSpec` (algorithm, backend, limits,
//! seed, machines): the run subcommand executes it directly, the query
//! subcommand hands it to a `ConnectivityService`, whose lock-free
//! epoch-swapped snapshots the multi-threaded driver reads. The service
//! cross-checks every answer against the union-find reference before any
//! throughput is reported:
//!   --mix         synthetic workload shape (default uniform)
//!   --queries N   synthetic workload size (default 100000)
//!   --batch B     batch size for the batched pass (default 1024)
//!   --threads T   reader threads (default 1); the query stream is striped
//!                 deterministically per thread, so the reported checksum
//!                 is identical at every thread count
//!   --query-file  answer queries from a file instead of a synthetic mix
//!                 (lines: "connected U V" | "component V" | "size V" |
//!                 "topk K"; '#' comments)
//!   --top K       print the K largest components
//!   --stream N    after the throughput passes, apply N random edge-insertion
//!                 batches through the incremental journal-epoch path,
//!                 validating the published answers against a from-scratch
//!                 union-find oracle after every batch
//!   --stream-batch E  edges per insertion batch (default 64)
//!   --persist PATH    (run) after verification, write the frozen index +
//!                 labeling as a snapshot (atomic rename) — the file a
//!                 serving replica boots from in milliseconds
//!   --from-snapshot PATH  (query) boot the service from a snapshot
//!                 instead of running the pipeline: one bulk read, header +
//!                 checksum validation, index sections reinterpreted in
//!                 place. The graph file becomes optional; give it anyway
//!                 to cross-validate every answer against union-find (and
//!                 it is required for --stream, which needs the edge list)
//!   --fail SITE[:K][:panic]  arm a deterministic failpoint: the Kth
//!                 traversal (default 1st) of the named site errors (or
//!                 panics). Sites: rebuild.pipeline, compact.publish,
//!                 journal.build, persist.pre-tmp, persist.pre-rename,
//!                 persist.pre-dirsync, snapshot.load, net.accept,
//!                 net.read, net.write. Repeatable. Injected faults
//!                 surface as typed errors and a nonzero exit — never as
//!                 corruption
//!   --chaos SEED  (query, with --stream) drive a seeded random failure
//!                 schedule through the streaming phase: one-shot faults
//!                 are armed on the insert/compaction path, rejected
//!                 batches roll back, the oracle check runs every round,
//!                 and the run converges back to healthy (reported in the
//!                 summary and under "chaos" in --json)
//!   --connect ADDR  (query) answer the workload over the wire against a
//!                 running `ampc-cc serve` instead of in process. The
//!                 graph file builds a local union-find oracle; the
//!                 closed-loop harness (--threads connections, --batch
//!                 queries per frame) must reproduce the oracle checksum
//!                 byte-for-byte or the run exits nonzero. Reports wire
//!                 latency (client round-trip) separately from the
//!                 server's service latency (recovered from the metrics
//!                 opcode), plus wire health — under "network" in --json
//!   --shutdown    (query, with --connect) ask the server to exit once
//!                 the workload completes
//!   --listen ADDR (serve) bind address (default 127.0.0.1:0 — an
//!                 ephemeral port, printed to stderr and --port-file)
//!   --workers W   (serve) worker threads answering admitted connections
//!                 (default 4)
//!   --queue D     (serve) admission-queue high-water mark: connections
//!                 past it are shed with a typed Overloaded reply
//!                 (default 64)
//!   --port-file PATH  (serve) write the bound address to PATH once
//!                 listening — the handshake file a harness polls
//! ```
//!
//! Example:
//! ```text
//! cargo run --release --bin ampc-cc -- graph.txt --metrics --trace
//! cargo run --release --bin ampc-cc -- query graph.txt --mix zipf --threads 4
//! ```

use std::fmt::Write as _;
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use adaptive_mpc_connectivity::ampc::rng::{derive_seed, SplitMix64};
use adaptive_mpc_connectivity::ampc::{DhtBackend, RunStats};
use adaptive_mpc_connectivity::cc::pipeline::{Algorithm, PipelineSpec};
use adaptive_mpc_connectivity::graph::{
    io as graph_io, metrics, reference_components, Graph, Labeling, VertexId,
};
use adaptive_mpc_connectivity::net;
use adaptive_mpc_connectivity::query::{snapshot, workload, ComponentIndex, Query, QueryEngine};
use adaptive_mpc_connectivity::serve::{
    driver, fault, FaultAction, HealthState, ServeError, ServiceBuilder,
};

struct RunArgs {
    file: String,
    spec: PipelineSpec,
    labels: bool,
    trace: bool,
    metrics: bool,
    json: bool,
    persist: Option<String>,
    fail: Vec<String>,
}

struct QueryArgs {
    run: RunArgs,
    mix: workload::Mix,
    queries: usize,
    batch: usize,
    threads: usize,
    query_file: Option<String>,
    top: usize,
    stream: usize,
    stream_batch: usize,
    from_snapshot: Option<String>,
    chaos: Option<u64>,
    trace_events: Option<usize>,
    connect: Option<String>,
    shutdown: bool,
}

struct ServeArgs {
    run: RunArgs,
    listen: String,
    workers: usize,
    queue: usize,
    port_file: Option<String>,
    from_snapshot: Option<String>,
}

enum Cmd {
    Run(RunArgs),
    Query(QueryArgs),
    Serve(ServeArgs),
}

fn parse_args() -> Result<Cmd, String> {
    let mut run = RunArgs {
        file: String::new(),
        spec: PipelineSpec::default(),
        labels: false,
        trace: false,
        metrics: false,
        json: false,
        persist: None,
        fail: Vec::new(),
    };
    let mut argv = std::env::args().skip(1).peekable();
    let is_query = argv.peek().map(|a| a == "query").unwrap_or(false);
    let is_serve = argv.peek().map(|a| a == "serve").unwrap_or(false);
    if is_query || is_serve {
        argv.next();
    }
    let mut mix = workload::Mix::Uniform;
    let mut queries = 100_000usize;
    let mut batch = 1024usize;
    let mut threads = 1usize;
    let mut query_file: Option<String> = None;
    let mut top = 0usize;
    let mut stream = 0usize;
    let mut stream_batch = 64usize;
    let mut from_snapshot: Option<String> = None;
    let mut chaos: Option<u64> = None;
    let mut trace_events: Option<usize> = None;
    let mut connect: Option<String> = None;
    let mut shutdown = false;
    let mut listen = "127.0.0.1:0".to_string();
    let mut workers = 4usize;
    let mut queue = 64usize;
    let mut port_file: Option<String> = None;

    let mut it = argv;
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            // `serve` reports nothing and writes no snapshot: a flag it would
            // parse and never read is a usage error, not a no-op.
            "--labels" | "--trace" | "--metrics" | "--json" | "--persist" if is_serve => {
                return Err(format!("{a} is a run/query option: serve does not act on it"));
            }
            "--forest" => run.spec.algorithm = Algorithm::Forest,
            "--general" => run.spec.algorithm = Algorithm::General,
            "--auto" => run.spec.algorithm = Algorithm::Auto,
            "--labels" => run.labels = true,
            "--trace" => {
                run.trace = true;
                // Query mode takes an optional integer operand: `--trace N`
                // also dumps the last N structured trace events. A
                // following flag (or nothing) keeps the bare behavior.
                if is_query {
                    if let Some(k) = it.peek().and_then(|next| next.parse::<usize>().ok()) {
                        trace_events = Some(k);
                        it.next();
                    }
                }
            }
            "--metrics" => run.metrics = true,
            "--json" => run.json = true,
            "--k" => run.spec.k = value("--k")?.parse().map_err(|e| format!("bad --k: {e}"))?,
            "--seed" => {
                run.spec.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--machines" => {
                run.spec.machines =
                    value("--machines")?.parse().map_err(|e| format!("bad --machines: {e}"))?
            }
            "--backend" => {
                run.spec.backend = DhtBackend::parse(&value("--backend")?)
                    .map_err(|e| format!("--backend: {e}"))?
            }
            "--mix" if is_query => mix = workload::Mix::parse(&value("--mix")?)?,
            "--queries" if is_query => {
                queries = value("--queries")?.parse().map_err(|e| format!("bad --queries: {e}"))?
            }
            "--batch" if is_query => {
                batch = value("--batch")?.parse().map_err(|e| format!("bad --batch: {e}"))?;
                if batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            "--threads" if is_query => {
                threads = value("--threads")?.parse().map_err(|e| format!("bad --threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be positive".into());
                }
            }
            "--persist" if !is_query => run.persist = Some(value("--persist")?),
            "--fail" => run.fail.push(value("--fail")?),
            "--chaos" if is_query => {
                chaos = Some(value("--chaos")?.parse().map_err(|e| format!("bad --chaos: {e}"))?)
            }
            "--from-snapshot" if is_query || is_serve => {
                from_snapshot = Some(value("--from-snapshot")?)
            }
            "--connect" if is_query => connect = Some(value("--connect")?),
            "--shutdown" if is_query => shutdown = true,
            "--listen" if is_serve => listen = value("--listen")?,
            "--workers" if is_serve => {
                workers = value("--workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            "--queue" if is_serve => {
                queue = value("--queue")?.parse().map_err(|e| format!("bad --queue: {e}"))?;
                if queue == 0 {
                    return Err("--queue must be positive".into());
                }
            }
            "--port-file" if is_serve => port_file = Some(value("--port-file")?),
            "--query-file" if is_query => query_file = Some(value("--query-file")?),
            "--top" if is_query => {
                top = value("--top")?.parse().map_err(|e| format!("bad --top: {e}"))?
            }
            "--stream" if is_query => {
                stream = value("--stream")?.parse().map_err(|e| format!("bad --stream: {e}"))?
            }
            "--stream-batch" if is_query => {
                stream_batch = value("--stream-batch")?
                    .parse()
                    .map_err(|e| format!("bad --stream-batch: {e}"))?;
                if stream_batch == 0 {
                    return Err("--stream-batch must be positive".into());
                }
            }
            "--help" | "-h" => return Err("usage".into()),
            other if run.file.is_empty() => run.file = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if run.file.is_empty() && from_snapshot.is_none() {
        return Err("missing input file".into());
    }
    if chaos.is_some() && stream == 0 {
        return Err("--chaos needs --stream (it injects faults into the streaming phase)".into());
    }
    if connect.is_some() {
        if stream > 0 || chaos.is_some() || top > 0 {
            return Err("--connect answers over the wire: --stream/--chaos/--top are in-process \
                        modes and cannot be combined with it"
                .into());
        }
        if from_snapshot.is_some() || query_file.is_some() {
            return Err("--connect builds its oracle from the graph file; --from-snapshot and \
                        --query-file cannot be combined with it"
                .into());
        }
        if run.file.is_empty() {
            return Err("--connect needs the graph file (it is the local oracle)".into());
        }
    }
    if shutdown && connect.is_none() {
        return Err("--shutdown needs --connect (it asks the remote server to exit)".into());
    }
    if is_serve {
        Ok(Cmd::Serve(ServeArgs { run, listen, workers, queue, port_file, from_snapshot }))
    } else if is_query {
        Ok(Cmd::Query(QueryArgs {
            run,
            mix,
            queries,
            batch,
            threads,
            query_file,
            top,
            stream,
            stream_batch,
            from_snapshot,
            chaos,
            trace_events,
            connect,
            shutdown,
        }))
    } else {
        Ok(Cmd::Run(run))
    }
}

fn load(file: &str) -> std::io::Result<Graph> {
    if file == "-" {
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf)?;
        graph_io::read_edge_list(&buf[..])
    } else {
        graph_io::load(file)
    }
}

fn print_metrics(g: &Graph) {
    let m = metrics::metrics(g);
    eprintln!(
        "metrics: components = {}, largest = {}, isolated = {}, max deg = {}, \
         mean deg = {:.2}, diameter ≥ {}",
        m.components,
        m.largest_component,
        m.isolated,
        m.max_degree,
        m.mean_degree,
        m.diameter_lower_bound
    );
}

/// Announces which algorithm the spec resolved to for `g` — the lines
/// every mode prints before running anything.
fn announce(spec: &PipelineSpec, g: &Graph) -> u8 {
    let algorithm = spec.resolve(g);
    eprintln!("dht backend: {}", spec.backend.name());
    eprintln!("algorithm: {}", spec.describe(algorithm));
    algorithm.number()
}

/// Minimal JSON string escape (round names are static literals, but the
/// output must stay well-formed whatever they contain).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a run (labels + RunStats) as one JSON object.
fn run_json(g: &Graph, args: &RunArgs, labeling: &Labeling, stats: &RunStats, alg: u8) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"n\": {},", g.n());
    let _ = writeln!(s, "  \"m\": {},", g.m());
    let _ = writeln!(s, "  \"algorithm\": {alg},");
    let _ = writeln!(s, "  \"backend\": \"{}\",", json_escape(args.spec.backend.name()));
    let _ = writeln!(s, "  \"seed\": {},", args.spec.seed);
    let _ = writeln!(s, "  \"components\": {},", labeling.num_components());
    let _ = writeln!(s, "  \"rounds\": {},", stats.rounds());
    let _ = writeln!(s, "  \"queries\": {},", stats.total_queries());
    let _ = writeln!(s, "  \"peak_space_words\": {},", stats.peak_total_space());
    let _ = writeln!(s, "  \"bytes_shuffled\": {},", stats.total_bytes_shuffled());
    s.push_str("  \"per_round\": [\n");
    let per_round = stats.per_round();
    for (i, r) in per_round.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"index\": {}, \"name\": \"{}\", \"reads\": {}, \"read_words\": {}, \
             \"writes\": {}, \"write_words\": {}, \"snapshot_words\": {}, \
             \"total_space_words\": {}, \"bytes_shuffled\": {} }}",
            r.index,
            json_escape(&r.name),
            r.reads,
            r.read_words,
            r.writes,
            r.write_words,
            r.snapshot_words,
            r.total_space_words,
            r.bytes_shuffled
        );
        s.push_str(if i + 1 < per_round.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str(&metrics_json_object());
    s.push_str("  \"labels\": [");
    for (v, l) in labeling.canonical().iter().enumerate() {
        if v > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{l}");
    }
    s.push_str("]\n}\n");
    s
}

/// Renders the process-wide metrics registry as one `"metrics": {…},`
/// JSON member (trailing comma included) for splicing into either
/// subcommand's `--json` object. Every catalog entry appears, zero or
/// not, so the schema is stable across runs.
fn metrics_json_object() -> String {
    use ampc_obs::{counter, gauge, hist, summary, CounterId, GaugeId, HistId};
    let mut s = String::new();
    s.push_str("  \"metrics\": {\n    \"counters\": { ");
    for (i, id) in CounterId::ALL.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {}", id.name(), counter(*id).get());
    }
    s.push_str(" },\n    \"gauges\": { ");
    for (i, id) in GaugeId::ALL.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {}", id.name(), gauge(*id).get());
    }
    s.push_str(" },\n    \"histograms\": {\n");
    for (i, id) in HistId::ALL.iter().enumerate() {
        let snap = hist(*id).snapshot();
        let _ = write!(s, "      \"{}\": {{ ", id.name());
        for (j, (k, v)) in summary(&snap).iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {v}");
        }
        s.push_str(" }");
        s.push_str(if i + 1 < HistId::ALL.len() { ",\n" } else { "\n" });
    }
    s.push_str("    }\n  },\n");
    s
}

/// Dumps the last `n` events from the process trace ring to stderr,
/// oldest first — the `--trace N` flight-recorder view.
fn dump_trace(n: usize) {
    let events = ampc_obs::trace_last(n);
    eprintln!("trace: last {} of {} events recorded", events.len(), ampc_obs::trace_recorded());
    for e in &events {
        eprintln!(
            "  seq={:<6} t={:>12} ns  {:<20} a={} b={}",
            e.seq,
            e.at_ns,
            e.kind.name(),
            e.a,
            e.b
        );
    }
}

/// Arms every `--fail SITE[:K][:panic]` spec before any work runs. The
/// failpoints are compiled in always, so arming is just a registry write;
/// an unknown site name lists the valid ones.
fn arm_failpoints(specs: &[String]) -> Result<(), String> {
    for spec in specs {
        let site = fault::arm_spec(spec).map_err(|e| format!("--fail {spec}: {e}"))?;
        eprintln!("failpoint armed: {}", site.name());
    }
    Ok(())
}

fn cmd_run(args: RunArgs) -> Result<(), String> {
    arm_failpoints(&args.fail)?;
    let g = load(&args.file).map_err(|e| format!("error reading {}: {e}", args.file))?;
    eprintln!("loaded: n = {}, m = {}", g.n(), g.m());

    if args.metrics {
        print_metrics(&g);
    }

    let alg = announce(&args.spec, &g);
    let run = args.spec.run(&g).map_err(|e| e.to_string())?;

    // Safety net for a user-facing tool: verify before reporting.
    if !run.labeling.same_partition(&reference_components(&g)) {
        return Err("internal error: labeling failed verification".into());
    }

    eprintln!(
        "components = {} | AMPC rounds = {} | queries = {} | peak space = {} words | \
         shuffle = {} bytes",
        run.labeling.num_components(),
        run.stats.rounds(),
        run.stats.total_queries(),
        run.stats.peak_total_space(),
        run.stats.total_bytes_shuffled()
    );
    if args.trace {
        eprintln!("\n{}", run.stats.round_table());
    }
    if let Some(path) = &args.persist {
        let t0 = Instant::now();
        let index = ComponentIndex::build(&run.labeling);
        let index_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let bytes = snapshot::persist(
            Path::new(path),
            &index,
            &run.labeling,
            g.n() as u64,
            g.m() as u64,
            alg,
        )
        .map_err(|e| format!("persist to {path} failed: {e}"))?;
        eprintln!(
            "persisted: {bytes} bytes to {path} | index build {index_ms:.2} ms | \
             write {:.2} ms",
            t1.elapsed().as_secs_f64() * 1e3
        );
    }
    if args.metrics && !args.json {
        eprintln!("\nprocess metrics:\n{}", ampc_obs::render_table());
    }
    if args.json {
        print!("{}", run_json(&g, &args, &run.labeling, &run.stats, alg));
    } else if args.labels {
        print_labels(&run.labeling);
    }
    Ok(())
}

/// Prints canonical "vertex component" lines to stdout (the `--labels`
/// output of both subcommands).
fn print_labels(labeling: &Labeling) {
    let canonical = labeling.canonical();
    let mut out = String::with_capacity(canonical.len() * 8);
    for (v, l) in canonical.iter().enumerate() {
        let _ = writeln!(out, "{v} {l}");
    }
    print!("{out}");
}

/// Builds the service (pipeline run or snapshot boot) and serves it over
/// TCP until a client's Shutdown frame or a signal kills the process.
fn cmd_serve(args: ServeArgs) -> Result<(), String> {
    arm_failpoints(&args.run.fail)?;
    let service = match &args.from_snapshot {
        Some(path) => ServiceBuilder::from_snapshot(path)
            .map_err(|e| format!("snapshot boot from {path} failed: {e}"))?,
        None => {
            let g = load(&args.run.file)
                .map_err(|e| format!("error reading {}: {e}", args.run.file))?;
            eprintln!("loaded: n = {}, m = {}", g.n(), g.m());
            announce(&args.run.spec, &g);
            ServiceBuilder::new(g)
                .spec(args.run.spec.clone())
                .build()
                .map_err(|e| format!("service build failed: {e}"))?
        }
    };
    let snap = service.snapshot();
    eprintln!(
        "serving: {} components over {} vertices | epoch {}",
        snap.num_components(),
        snap.index().num_vertices(),
        snap.epoch()
    );
    let listener = std::net::TcpListener::bind(&args.listen)
        .map_err(|e| format!("bind {} failed: {e}", args.listen))?;
    let config = net::ServerConfig {
        workers: args.workers,
        queue_depth: args.queue,
        max_payload: net::protocol::DEFAULT_MAX_PAYLOAD,
    };
    let mut handle =
        net::serve(service, listener, config).map_err(|e| format!("server start failed: {e}"))?;
    let addr = handle.local_addr();
    eprintln!("listening on {addr} ({} workers, queue depth {})", args.workers, args.queue);
    if let Some(path) = &args.port_file {
        // The handshake file a harness polls: written only once the
        // listener is live, so its existence means "connectable".
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("writing --port-file {path} failed: {e}"))?;
    }
    handle.wait();
    let served = handle.connections_served();
    let lat = handle.service_latency();
    eprintln!(
        "server stopped: {served} connections served | service latency p50 = {} ns, \
         p99 = {} ns ({} queries)",
        lat.quantile(0.5),
        lat.quantile(0.99),
        lat.count
    );
    Ok(())
}

/// The `query --connect` mode: replay the workload over the wire against
/// a running server and hold its answers to the local oracle's checksum.
fn cmd_query_connect(args: &QueryArgs, addr_spec: &str) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let addr = addr_spec
        .to_socket_addrs()
        .map_err(|e| format!("bad --connect address {addr_spec}: {e}"))?
        .next()
        .ok_or_else(|| format!("--connect address {addr_spec} resolved to nothing"))?;

    // The local oracle: same graph file, same reference union-find, same
    // seeded workload generation as the in-process path — identical index
    // ⇒ identical workload ⇒ the wire checksum must match exactly.
    let g = load(&args.run.file).map_err(|e| format!("error reading {}: {e}", args.run.file))?;
    eprintln!("loaded: n = {}, m = {}", g.n(), g.m());
    if args.run.metrics {
        print_metrics(&g);
    }
    let (n, m) = (g.n(), g.m());
    let oracle = ComponentIndex::build(&reference_components(&g));
    let queries = workload::generate(&oracle, args.mix, args.queries, args.run.spec.seed);
    let engine = QueryEngine::new(&oracle);
    let expected: u64 = queries.iter().fold(0u64, |acc, &q| acc.wrapping_add(engine.answer(q)));
    eprintln!(
        "workload: {} ({} queries, batch = {}, connections = {}) → {addr}",
        args.mix.name(),
        queries.len(),
        args.batch,
        args.threads
    );

    let report = net::run_harness(
        addr,
        &queries,
        net::HarnessConfig { connections: args.threads, batch: args.batch, retries: 0 },
    )
    .map_err(|e| format!("network harness failed: {e}"))?;
    let checksum_ok = report.checksum == expected;
    if !checksum_ok {
        return Err(format!(
            "wire checksum {} diverged from the oracle's {expected}: the server answered wrong",
            report.checksum
        ));
    }
    eprintln!(
        "network: {:.0} q/s over {} connections | checksum {} matches the oracle",
        report.qps, args.threads, report.checksum
    );
    eprintln!(
        "wire latency: p50 = {} ns | p99 = {} ns | p999 = {} ns | max = {} ns \
         ({} round-trips)",
        report.wire.quantile(0.5),
        report.wire.quantile(0.99),
        report.wire.quantile(0.999),
        report.wire.max,
        report.wire.count
    );

    // One control connection fetches health and the metrics exposition;
    // the server-side service histogram is recovered from the Prometheus
    // text, so wire and service latency are reported side by side with no
    // side channel.
    let mut conn = net::Connection::connect(addr)
        .map_err(|e| format!("control connection to {addr} failed: {e}"))?;
    let health = conn.health().map_err(|e| format!("health opcode failed: {e}"))?;
    let metrics_text = conn.metrics().map_err(|e| format!("metrics opcode failed: {e}"))?;
    let service_lat = net::prom_histogram_quantiles(&metrics_text, "net_request_service_ns");
    match &service_lat {
        Some((count, qs)) => eprintln!(
            "service latency (server-side): p50 = {} ns | p99 = {} ns | p999 = {} ns \
             ({count} queries)",
            qs[0].1, qs[1].1, qs[2].1
        ),
        None => eprintln!("service latency: not yet present in the server's exposition"),
    }
    eprintln!(
        "server health: {} | epoch {} | {} components",
        health.state_name(),
        health.epoch,
        health.components
    );
    if args.shutdown {
        conn.shutdown_server().map_err(|e| format!("shutdown request failed: {e}"))?;
        eprintln!("server acknowledged shutdown");
    }

    if args.run.json {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"n\": {n},");
        let _ = writeln!(s, "  \"m\": {m},");
        let _ = writeln!(s, "  \"connect\": \"{}\",", json_escape(addr_spec));
        s.push_str("  \"network\": {\n");
        let _ = writeln!(s, "    \"workload\": \"{}\",", json_escape(args.mix.name()));
        let _ = writeln!(s, "    \"queries\": {},", queries.len());
        let _ = writeln!(s, "    \"batch\": {},", args.batch);
        let _ = writeln!(s, "    \"connections\": {},", args.threads);
        let _ = writeln!(s, "    \"queries_per_sec\": {:.0},", report.qps);
        let _ = writeln!(s, "    \"checksum\": {},", report.checksum);
        let _ = writeln!(s, "    \"checksum_matches_oracle\": {checksum_ok},");
        let _ = writeln!(s, "    \"retries\": {},", report.retries_used);
        let _ = writeln!(
            s,
            "    \"wire\": {{ \"round_trips\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1} }},",
            report.wire.count,
            report.wire.quantile(0.5),
            report.wire.quantile(0.99),
            report.wire.quantile(0.999),
            report.wire.max,
            report.wire.mean()
        );
        match &service_lat {
            Some((count, qs)) => {
                let _ = writeln!(
                    s,
                    "    \"service\": {{ \"queries\": {count}, \"p50_ns\": {}, \
                     \"p99_ns\": {}, \"p999_ns\": {} }},",
                    qs[0].1, qs[1].1, qs[2].1
                );
            }
            None => {
                let _ = writeln!(s, "    \"service\": null,");
            }
        }
        let _ = writeln!(
            s,
            "    \"health\": {{ \"state\": \"{}\", \"consecutive_failures\": {}, \
             \"total_incidents\": {}, \"epoch\": {}, \"components\": {} }}",
            health.state_name(),
            health.consecutive_failures,
            health.total_incidents,
            health.epoch,
            health.components
        );
        s.push_str("  },\n");
        s.push_str(&metrics_json_object());
        let _ = writeln!(s, "  \"shutdown_sent\": {}", args.shutdown);
        s.push_str("}\n");
        print!("{s}");
    }
    Ok(())
}

fn cmd_query(args: QueryArgs) -> Result<(), String> {
    arm_failpoints(&args.run.fail)?;
    if let Some(addr) = args.connect.clone() {
        return cmd_query_connect(&args, &addr);
    }
    let has_file = !args.run.file.is_empty();
    if args.stream > 0 && !has_file {
        return Err("--stream needs the graph file (a snapshot carries no edge list)".into());
    }
    let mut loaded: Option<Graph> = if has_file {
        let g =
            load(&args.run.file).map_err(|e| format!("error reading {}: {e}", args.run.file))?;
        eprintln!("loaded: n = {}, m = {}", g.n(), g.m());
        if args.run.metrics {
            print_metrics(&g);
        }
        Some(g)
    } else {
        None
    };

    // The union-find truth is computed up front so the graph can be moved
    // into the service (no second copy of a large input). The streaming
    // phase re-derives merged graphs, so it keeps the edge list around.
    let truth: Option<Labeling> = loaded.as_ref().map(reference_components);
    let base_edges: Vec<(VertexId, VertexId)> = match (&loaded, args.stream > 0) {
        (Some(g), true) => g.edges().collect(),
        _ => Vec::new(),
    };
    if args.from_snapshot.is_none() {
        if let Some(g) = &loaded {
            announce(&args.run.spec, g);
        }
    }

    // Live build: the service owns the run→validate→index→serve lifecycle —
    // it executes the spec, refuses a labeling that fails validation
    // against the graph, and publishes the frozen index as epoch 0.
    // Snapshot boot: one bulk read + validation, epoch 0 reinterpreted in
    // place over the snapshot buffer, no pipeline run at all.
    let t0 = Instant::now();
    let service = match &args.from_snapshot {
        Some(path) => ServiceBuilder::from_snapshot(path)
            .map_err(|e| format!("snapshot boot from {path} failed: {e}"))?,
        None => {
            let g = loaded.take().expect("file is required when not booting from a snapshot");
            ServiceBuilder::new(g)
                .spec(args.run.spec.clone())
                .build()
                .map_err(|e| format!("service build failed: {e}"))?
        }
    };
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = service.snapshot();
    let alg = snap.algorithm().number();
    let (n, m) = snap.graph_size();
    if let (Some(_), Some(g)) = (&args.from_snapshot, &loaded) {
        if g.n() != n {
            return Err(format!(
                "snapshot covers {n} vertices but {} has {}",
                args.run.file,
                g.n()
            ));
        }
    }
    match &args.from_snapshot {
        Some(path) => eprintln!("booted from snapshot {path} in {build_ms:.2} ms"),
        None => {
            eprintln!(
                "pipeline: components = {} | AMPC rounds = {} | queries = {}",
                snap.labeling().num_components(),
                snap.stats().rounds(),
                snap.stats().total_queries()
            );
            if args.run.trace {
                eprintln!("\n{}", snap.stats().round_table());
            }
        }
    }
    eprintln!(
        "index: {} components over {} vertices, {} bytes | epoch {} published in {build_ms:.2} ms",
        snap.index().num_components(),
        snap.index().num_vertices(),
        snap.index().heap_bytes(),
        snap.epoch()
    );

    // One union-find pass serves both checks: the service's index must be
    // byte-identical to one built from the reference labels (dense ids are
    // a pure function of the partition), and every answer must match the
    // reference engine's. Without a graph file there is no truth to check
    // against — the snapshot's checksums stand in for it.
    let reference: Option<ComponentIndex> = truth.as_ref().map(ComponentIndex::build);
    if let Some(reference) = &reference {
        if snap.index() != reference {
            return Err("internal error: index diverges from the union-find reference".into());
        }
    }

    let queries = match &args.query_file {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("error opening query file {path}: {e}"))?;
            workload::parse_query_file(file, n)
                .map_err(|e| format!("error parsing query file {path}: {e}"))?
        }
        None => workload::generate(snap.index(), args.mix, args.queries, args.run.spec.seed),
    };
    let source = match &args.query_file {
        Some(path) => format!("file:{path}"),
        None => args.mix.name().to_string(),
    };
    eprintln!(
        "workload: {} ({} queries, batch = {}, threads = {})",
        source,
        queries.len(),
        args.batch,
        args.threads
    );

    // Per-query validation against the reference engine, answer by answer
    // (the index equality above already implies this; this loop pins it
    // observably and yields the expected checksum the driver must hit).
    // Without a reference the single pass still fixes the checksum every
    // timed pass must reproduce.
    let engine = snap.engine();
    let mut expected_checksum = 0u64;
    if let Some(reference) = &reference {
        let ref_engine = QueryEngine::new(reference);
        for &q in &queries {
            let (got, want) = (engine.answer(q), ref_engine.answer(q));
            if got != want {
                return Err(format!("query {q:?}: index answered {got}, reference {want}"));
            }
            expected_checksum = expected_checksum.wrapping_add(got);
        }
        eprintln!(
            "validated: {}/{} answers match the union-find reference",
            queries.len(),
            queries.len()
        );
    } else {
        for &q in &queries {
            expected_checksum = expected_checksum.wrapping_add(engine.answer(q));
        }
        eprintln!("validation: skipped (no graph file; snapshot checksums verified at load)");
    }

    // Warm pass, then two timed passes folded with per-path maxima (each
    // path's best pass, independently);
    // every pass must reproduce the validated checksum (the stream
    // striping is deterministic, so the total is thread-count-invariant).
    let mut report = driver::run(&service, &queries, args.threads, args.batch);
    for _ in 0..2 {
        let timed = driver::run(&service, &queries, args.threads, args.batch);
        if timed.checksum != report.checksum {
            return Err("internal error: driver checksum drifted between passes".into());
        }
        report.aggregate_single_qps = report.aggregate_single_qps.max(timed.aggregate_single_qps);
        report.aggregate_batch_qps = report.aggregate_batch_qps.max(timed.aggregate_batch_qps);
        for (best, t) in report.per_thread.iter_mut().zip(&timed.per_thread) {
            best.single_qps = best.single_qps.max(t.single_qps);
            best.batch_qps = best.batch_qps.max(t.batch_qps);
        }
    }
    if report.checksum != expected_checksum {
        return Err("internal error: driver checksum diverged from the validated answers".into());
    }

    if args.threads > 1 {
        for t in &report.per_thread {
            eprintln!(
                "  thread {:<3} {} queries | single {:>12.0} q/s | batch {:>12.0} q/s | epoch {}",
                t.thread, t.queries, t.single_qps, t.batch_qps, t.epoch
            );
        }
    }
    eprintln!(
        "throughput: single = {:.0} q/s | batch = {:.0} q/s | checksum = {} | threads = {}",
        report.aggregate_single_qps, report.aggregate_batch_qps, report.checksum, report.threads
    );

    // Per-query latency distribution, measured by a separate instrumented
    // pass so the clock reads never depress the throughput numbers above.
    let latency = driver::run_latency(&service, &queries, args.threads);
    if latency.checksum != expected_checksum {
        return Err(
            "internal error: latency pass checksum diverged from the validated answers".into()
        );
    }
    eprintln!(
        "latency: p50 = {} ns | p90 = {} ns | p99 = {} ns | p999 = {} ns | max = {} ns | \
         mean = {:.0} ns ({} timed)",
        latency.p50_ns,
        latency.p90_ns,
        latency.p99_ns,
        latency.p999_ns,
        latency.max_ns,
        latency.mean_ns,
        latency.queries
    );

    if args.top > 0 {
        eprintln!("top {} components by size:", args.top);
        for (rank, &c) in snap.index().top_k(args.top).iter().enumerate() {
            eprintln!("  #{:<3} component {:<10} size {}", rank + 1, c, snap.index().size_of(c));
        }
    }

    // Streaming phase: apply deterministic random edge batches through the
    // incremental journal-epoch path, validating each published epoch
    // against a from-scratch union-find oracle before timing counts.
    struct ChaosSummary {
        seed: u64,
        injected: u64,
        rejected: usize,
        recoveries: usize,
        total_incidents: u64,
    }
    struct StreamSummary {
        batches: usize,
        edges_per_batch: usize,
        avg_publish_ms: f64,
        max_publish_ms: f64,
        final_epoch: u64,
        final_components: usize,
        journal_merges: usize,
        chaos: Option<ChaosSummary>,
    }
    let streaming: Option<StreamSummary> = if args.stream > 0 {
        let mut all_edges = base_edges;
        let mut rng = SplitMix64::new(derive_seed(&[0x57_AE, args.run.spec.seed]));
        let mut publish_ms: Vec<f64> = Vec::with_capacity(args.stream);
        let mut last_merges = 0usize;
        // Chaos mode: a seeded schedule arms one-shot faults on the
        // insert/compaction path while the stream runs. Injected failures
        // must surface as typed, rolled-back errors, never as corruption —
        // the oracle check below holds whether or not a batch landed.
        const CHAOS_SITES: [fault::Site; 3] =
            [fault::Site::JournalBuild, fault::Site::CompactPublish, fault::Site::RebuildPipeline];
        let mut chaos_rng = args.chaos.map(|seed| SplitMix64::new(derive_seed(&[0xC4A05, seed])));
        if chaos_rng.is_some() {
            fault::reset_counters();
        }
        let mut rejected = 0usize;
        let mut recoveries = 0usize;
        for b in 0..args.stream {
            if let Some(crng) = &mut chaos_rng {
                if crng.next_below(2) == 0 {
                    let site = CHAOS_SITES[crng.next_below(CHAOS_SITES.len() as u64) as usize];
                    fault::arm(site, FaultAction::Error, 0, 1);
                }
            }
            let batch: Vec<(VertexId, VertexId)> = (0..args.stream_batch)
                .map(|_| {
                    (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId)
                })
                .collect();
            let t0 = Instant::now();
            match service.insert_edges(&batch) {
                Ok(report) => {
                    publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    last_merges = report.journal_merges;
                    all_edges.extend_from_slice(&batch);
                }
                Err(ServeError::ReadOnly) if args.chaos.is_some() => {
                    // Too many consecutive failures: writes are refused
                    // until an explicit rebuild succeeds. Play the operator.
                    fault::disarm_all();
                    service
                        .rebuild_blocking(Graph::from_edges(n, &all_edges))
                        .map_err(|e| format!("chaos: recovery rebuild failed: {e}"))?;
                    recoveries += 1;
                    rejected += 1;
                    eprintln!("chaos: batch {b} refused (read-only); rebuilt to healthy");
                }
                Err(e) if args.chaos.is_some() => {
                    rejected += 1;
                    eprintln!(
                        "chaos: batch {b} rejected ({e}); service {}",
                        service.health().state.name()
                    );
                }
                Err(e) => return Err(format!("insert batch {b} failed: {e}")),
            }
            // Oracle check: the journal-epoch must answer exactly like a
            // fresh build over every edge accepted so far.
            let oracle =
                ComponentIndex::build(&reference_components(&Graph::from_edges(n, &all_edges)));
            let live = service.snapshot();
            let engine = live.engine();
            if live.num_components() != oracle.num_components() {
                return Err(format!(
                    "stream batch {b}: {} components served, oracle has {}",
                    live.num_components(),
                    oracle.num_components()
                ));
            }
            let mut probe = SplitMix64::new(derive_seed(&[0x0_5AC1E, b as u64]));
            for _ in 0..2048.min(n) {
                let v = probe.next_below(n as u64) as VertexId;
                let want = oracle.component_of(v) as u64;
                let got = engine.answer(Query::ComponentOf(v));
                if got != want {
                    return Err(format!(
                        "stream batch {b}: ComponentOf({v}) answered {got}, oracle {want}"
                    ));
                }
            }
        }
        let chaos_summary = if let Some(seed) = args.chaos {
            // Converge back to Healthy: an explicit successful rebuild is
            // the operator's recovery lever from any degraded state. A
            // background compaction may still be racing its own injected
            // failure past the first rebuild, so retry a bounded number of
            // times with the faults disarmed.
            fault::disarm_all();
            let mut tries = 0;
            while service.health().state != HealthState::Healthy {
                if tries >= 5 {
                    return Err(format!(
                        "chaos: service stuck {} after {tries} recovery rebuilds",
                        service.health().state.name()
                    ));
                }
                service
                    .rebuild_blocking(Graph::from_edges(n, &all_edges))
                    .map_err(|e| format!("chaos: final recovery rebuild failed: {e}"))?;
                recoveries += 1;
                tries += 1;
            }
            let h = service.health();
            let injected: u64 = CHAOS_SITES.iter().map(|&s| fault::fired(s)).sum();
            eprintln!(
                "chaos: seed {seed} | {injected} faults injected | {rejected} batches \
                 rejected | {recoveries} rebuild recoveries | {} incidents | final health {}",
                h.total_incidents,
                h.state.name()
            );
            Some(ChaosSummary {
                seed,
                injected,
                rejected,
                recoveries,
                total_incidents: h.total_incidents,
            })
        } else {
            None
        };
        let avg = if publish_ms.is_empty() {
            0.0
        } else {
            publish_ms.iter().sum::<f64>() / publish_ms.len() as f64
        };
        let max = publish_ms.iter().fold(0.0f64, |a, &b| a.max(b));
        let live = service.snapshot();
        let summary = StreamSummary {
            batches: args.stream,
            edges_per_batch: args.stream_batch,
            avg_publish_ms: avg,
            max_publish_ms: max,
            final_epoch: live.epoch(),
            final_components: live.num_components(),
            journal_merges: last_merges,
            chaos: chaos_summary,
        };
        eprintln!(
            "streaming: {} batches × {} edges | journal publish avg {:.3} ms (max {:.3}) | \
             epoch {} | {} components | {} journal merges | all answers match the oracle",
            summary.batches,
            summary.edges_per_batch,
            summary.avg_publish_ms,
            summary.max_publish_ms,
            summary.final_epoch,
            summary.final_components,
            summary.journal_merges
        );
        Some(summary)
    } else {
        None
    };

    if args.run.json {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"n\": {n},");
        let _ = writeln!(s, "  \"m\": {m},");
        let _ = writeln!(s, "  \"algorithm\": {alg},");
        let _ = writeln!(s, "  \"backend\": \"{}\",", json_escape(args.run.spec.backend.name()));
        let _ = writeln!(s, "  \"components\": {},", snap.index().num_components());
        let _ = writeln!(s, "  \"index_bytes\": {},", snap.index().heap_bytes());
        let _ = writeln!(s, "  \"epoch\": {},", snap.epoch());
        let _ = writeln!(s, "  \"service_build_ms\": {build_ms:.3},");
        let _ = writeln!(s, "  \"pipeline_ms\": {:.3},", snap.pipeline_ms());
        let _ = writeln!(s, "  \"index_build_ms\": {:.3},", snap.index_build_ms());
        let _ = writeln!(s, "  \"from_snapshot\": {},", args.from_snapshot.is_some());
        let health = service.health();
        s.push_str("  \"health\": {\n");
        let _ = writeln!(s, "    \"state\": \"{}\",", health.state.name());
        let _ = writeln!(s, "    \"consecutive_failures\": {},", health.consecutive_failures);
        let _ = writeln!(s, "    \"total_incidents\": {},", health.total_incidents);
        s.push_str("    \"incidents\": [");
        for (i, inc) in health.incidents.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{ \"seq\": {}, \"at_ms\": {}, \"op\": \"{}\", \"error\": \"{}\" }}",
                inc.seq,
                inc.at_ms,
                inc.op.name(),
                json_escape(&inc.error.to_string())
            );
        }
        s.push_str("]\n  },\n");
        let _ = writeln!(s, "  \"workload\": \"{}\",", json_escape(&source));
        let _ = writeln!(s, "  \"queries\": {},", queries.len());
        let _ = writeln!(s, "  \"batch\": {},", args.batch);
        let _ = writeln!(s, "  \"threads\": {},", report.threads);
        s.push_str("  \"per_thread\": [\n");
        for (i, t) in report.per_thread.iter().enumerate() {
            let _ = write!(
                s,
                "    {{ \"thread\": {}, \"queries\": {}, \"epoch\": {}, \
                 \"single_queries_per_sec\": {:.0}, \"batch_queries_per_sec\": {:.0} }}",
                t.thread, t.queries, t.epoch, t.single_qps, t.batch_qps
            );
            s.push_str(if i + 1 < report.per_thread.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"single_queries_per_sec\": {:.0},", report.aggregate_single_qps);
        let _ = writeln!(s, "  \"batch_queries_per_sec\": {:.0},", report.aggregate_batch_qps);
        let _ = writeln!(s, "  \"checksum\": {},", report.checksum);
        let _ = writeln!(
            s,
            "  \"latency\": {{ \"queries\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1} }},",
            latency.queries,
            latency.p50_ns,
            latency.p90_ns,
            latency.p99_ns,
            latency.p999_ns,
            latency.max_ns,
            latency.mean_ns
        );
        s.push_str(&metrics_json_object());
        if let Some(k) = args.trace_events {
            s.push_str("  \"trace\": [\n");
            let events = ampc_obs::trace_last(k);
            for (i, e) in events.iter().enumerate() {
                let _ = write!(
                    s,
                    "    {{ \"seq\": {}, \"at_ns\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {} }}",
                    e.seq,
                    e.at_ns,
                    e.kind.name(),
                    e.a,
                    e.b
                );
                s.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
            }
            s.push_str("  ],\n");
        }
        let validated = if reference.is_some() { queries.len() } else { 0 };
        if let Some(st) = &streaming {
            let _ = writeln!(s, "  \"validated\": {validated},");
            let _ = write!(
                s,
                "  \"streaming\": {{ \"batches\": {}, \"edges_per_batch\": {}, \
                 \"avg_journal_publish_ms\": {:.3}, \"max_journal_publish_ms\": {:.3}, \
                 \"final_epoch\": {}, \"final_components\": {}, \"journal_merges\": {}",
                st.batches,
                st.edges_per_batch,
                st.avg_publish_ms,
                st.max_publish_ms,
                st.final_epoch,
                st.final_components,
                st.journal_merges
            );
            if let Some(c) = &st.chaos {
                let _ = write!(
                    s,
                    ", \"chaos\": {{ \"seed\": {}, \"injected_faults\": {}, \
                     \"rejected_batches\": {}, \"recovery_rebuilds\": {}, \
                     \"total_incidents\": {} }}",
                    c.seed, c.injected, c.rejected, c.recoveries, c.total_incidents
                );
            }
            s.push_str(" }\n");
        } else {
            let _ = writeln!(s, "  \"validated\": {validated}");
        }
        s.push_str("}\n");
        print!("{s}");
    } else {
        if let Some(k) = args.trace_events {
            dump_trace(k);
        }
        if args.run.metrics {
            eprintln!("\nprocess metrics:\n{}", ampc_obs::render_table());
        }
        if args.run.labels {
            print_labels(snap.labeling());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let cmd = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            if e != "usage" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: ampc-cc <file> [--forest|--general|--auto] [--k K] [--seed S]\n\
                 \x20                 [--machines M] [--backend dense[:CAP]|flat|sharded[:N]]\n\
                 \x20                 [--labels] [--trace] [--metrics] [--json] [--persist PATH]\n\
                 \x20                 [--fail SITE[:K][:panic]]\n\
                 \x20      ampc-cc query [<file>] [pipeline options]\n\
                 \x20                 [--mix uniform|zipf[:EXP]|cross] [--queries N]\n\
                 \x20                 [--batch B] [--threads T] [--query-file F] [--top K]\n\
                 \x20                 [--stream N] [--stream-batch E] [--json]\n\
                 \x20                 [--from-snapshot PATH] [--fail SITE[:K][:panic]]\n\
                 \x20                 [--chaos SEED] [--trace [N]]\n\
                 \x20                 [--connect ADDR [--shutdown]]\n\
                 \x20      ampc-cc serve <file> [pipeline options] [--listen ADDR]\n\
                 \x20                 [--workers W] [--queue D] [--port-file PATH]\n\
                 \x20                 [--from-snapshot PATH] [--fail SITE[:K][:panic]]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Run(args) => cmd_run(args),
        Cmd::Query(args) => cmd_query(args),
        Cmd::Serve(args) => cmd_serve(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
