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
//!                [--fail SPEC]
//!                [--connect ADDR [--shutdown]]
//! ampc-cc serve [<file>] [pipeline options as above]
//!                [--listen ADDR] [--workers W] [--queue D]
//!                [--port-file PATH] [--from-snapshot PATH] [--fail SPEC]
//!
//!   <file>       edge list ("u v" per line, optional "# nodes: N" header);
//!                use "-" for stdin
//!   --auto       pick Algorithm 1 for forests, Algorithm 2 otherwise (default)
//!   --forest     Algorithm 1; an input with a cycle is refused (exit 1)
//!   --general    Algorithm 2, on any input
//!   --k K        space parameter (Theorems 1.1/1.2), at least 1, default 2
//!   --seed S     run seed (default 204); the same seed gives the same
//!                labels and counts. In query mode it also seeds the
//!                synthetic workload and the --stream batches
//!   --machines M simulated AMPC machines, at least 1, default 8. Labels,
//!                rounds and queries do not depend on M; the per-machine
//!                read and write maxima of a round do
//!   --backend B  DHT storage backend: "dense" (default) or "dense:CAP" for
//!                direct-indexed slabs of CAP ids per keyspace (unhinted
//!                "dense" sizes slabs from the input) or "flat" for the
//!                single-hash-map reference. Results are identical across
//!                backends; dense merges round output in parallel and its
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
//!                RunStats for runs; for queries the run report, whose
//!                members are named the same in process and under --connect:
//!                queries_per_sec, checksum, per_thread[], latency{...})
//!
//! All three subcommands drive one `PipelineSpec` (algorithm, backend, k,
//! seed, machines): the run subcommand executes it directly, `serve` hands
//! it to a `ServiceHandle` behind a socket, and the query subcommand hands
//! it to a `ServiceHandle` and replays one workload against it through the
//! closed-loop runner (`serve::driver`), after every answer has been
//! cross-checked against the union-find reference:
//!   --mix         synthetic workload shape (default uniform)
//!   --queries N   synthetic workload size (default 100000)
//!   --batch B     queries per frame (default 1024). A worker answers one
//!                 frame at a time and the clock is read per frame, never per
//!                 query: a latency value is a frame's mean, counted once
//!                 per query it carried. `--batch 1` is how one asks for the
//!                 one-call-per-query figure (clock reads included)
//!   --threads T   workers (default 1; connections under --connect). The
//!                 query stream is striped deterministically per worker, so
//!                 the reported checksum is identical at every thread count;
//!                 a worker whose stripe is empty is not started
//!   --query-file  answer queries from a file instead of a synthetic mix
//!                 (lines: "connected U V" | "component V" | "size V" |
//!                 "topk K"; '#' comments)
//!   --top K       print the K largest components
//!   --stream N    after the timed run, apply N random edge-insertion
//!                 batches through the incremental journal-epoch path,
//!                 validating the published answers against a from-scratch
//!                 union-find oracle after every batch
//!   --stream-batch E  edges per insertion batch (default 64)
//!   --persist PATH    (run) after verification, write the frozen index +
//!                 labeling as a snapshot (atomic rename) — the file a
//!                 serving replica boots from in milliseconds
//!   --from-snapshot PATH  (query) boot the service from a snapshot
//!                 instead of running the pipeline: header check, one
//!                 bulk read, checksum validation, validated decode of the
//!                 index. The graph file becomes optional; give it anyway
//!                 to cross-validate every answer against union-find (and
//!                 it is required for --stream, which needs the edge list).
//!                 (serve) alone, the same strict boot; with <file>, the
//!                 boot fallback chain: the snapshot boots (compaction
//!                 folds the index and needs no edges), and a missing or
//!                 corrupt snapshot falls back to a build over the file,
//!                 reported on stderr and as the `boot` incident over the
//!                 Health opcode
//!   --fail SITE[:K][:panic]  arm a deterministic failpoint: the Kth
//!                 traversal (default 1st) of the named site errors (or
//!                 panics). The sites are the `fault::Site` catalogue,
//!                 listed by the usage text and by an unknown SITE.
//!                 Repeatable. Injected faults surface as typed errors and
//!                 a nonzero exit — never as corruption
//!   --connect ADDR  (query) the same run over the wire: the graph file
//!                 builds the local union-find oracle and the workload, the
//!                 frames go to a running `ampc-cc serve` (--threads
//!                 connections, --batch queries per frame, at most 87381)
//!                 and must reproduce the oracle checksum or the run exits
//!                 nonzero. `latency` is then the client's round trip; the
//!                 server's own service latency (recovered from the metrics
//!                 opcode) and health are reported beside it
//!   --shutdown    (query, with --connect) ask the server to exit once
//!                 the workload completes
//!   --listen ADDR (serve) bind address (default 127.0.0.1:0 — an
//!                 ephemeral port, printed to stderr and --port-file)
//!   --workers W   (serve) worker threads answering admitted connections
//!                 (default 4)
//!   --queue D     (serve) admission-queue high-water mark: connections
//!                 past it are shed with a typed Overloaded reply
//!                 (default 64)
//!   --port-file PATH  (serve) write the bound address to PATH (renamed into
//!                 place) once listening — the handshake file a harness polls
//! ```
//!
//! Example:
//! ```text
//! cargo run --release --bin ampc-cc -- graph.txt --metrics --trace
//! cargo run --release --bin ampc-cc -- query graph.txt --mix zipf --threads 4
//! ```

use std::fmt::{Display, Write as _};
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use adaptive_mpc_connectivity::ampc::rng::{derive_seed, SplitMix64};
use adaptive_mpc_connectivity::ampc::{DhtBackend, RunStats};
use adaptive_mpc_connectivity::cc::pipeline::{
    Algorithm, PipelineError, PipelineSpec, Resolved, ResolvedAlgorithm,
};
use adaptive_mpc_connectivity::graph::{
    io as graph_io, metrics, reference_components, Graph, Labeling, VertexId,
};
use adaptive_mpc_connectivity::net;
use adaptive_mpc_connectivity::query::{snapshot, workload, ComponentIndex, Query, QueryEngine};
use adaptive_mpc_connectivity::serve::{
    driver, fault, BootSource, PublishedIndex, ServeError, ServiceBuilder, ServiceHandle,
};

#[derive(Default)]
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

#[derive(Default)]
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
    trace_events: Option<usize>,
    connect: Option<String>,
    shutdown: bool,
}

#[derive(Default)]
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

/// The operand of `flag`: the next token, parsed as `T`.
fn value<T: FromStr<Err: Display>>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// [`value`] for the counts that size something, and for `k`: zero is a
/// usage error.
fn positive<T: FromStr<Err: Display> + Default + PartialEq>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    if v == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(v)
}

/// The subcommands (`/`-separated) that act on a flag not every
/// subcommand takes; `None` for the pipeline options all three share.
fn flag_owners(flag: &str) -> Option<&'static str> {
    Some(match flag {
        "--labels" | "--trace" | "--metrics" | "--json" => "run/query",
        "--persist" => "run",
        "--from-snapshot" => "query/serve",
        "--mix" | "--queries" | "--batch" | "--threads" | "--query-file" | "--top" | "--stream"
        | "--stream-batch" | "--connect" | "--shutdown" => "query",
        "--listen" | "--workers" | "--queue" | "--port-file" => "serve",
        _ => return None,
    })
}

fn parse_args() -> Result<Cmd, String> {
    let mut it = std::env::args().skip(1).peekable();
    let mode = match it.peek().map(String::as_str) {
        Some("query") => "query",
        Some("serve") => "serve",
        _ => "run",
    };
    if mode != "run" {
        it.next();
    }
    let mut run = RunArgs::default();
    let mut q = QueryArgs {
        queries: 100_000,
        batch: 1024,
        threads: 1,
        stream_batch: 64,
        ..Default::default()
    };
    let mut s = ServeArgs {
        listen: "127.0.0.1:0".to_string(),
        workers: 4,
        queue: 64,
        ..Default::default()
    };
    let mut seen = Vec::new();
    while let Some(a) = it.next() {
        // A flag this subcommand would parse and never read is a usage
        // error, not a no-op (`serve` reports nothing and writes no
        // snapshot) — and never the input file.
        if let Some(owners) = flag_owners(&a).filter(|own| !own.split('/').any(|o| o == mode)) {
            return Err(format!("{a} is a {owners} option: {mode} does not act on it"));
        }
        if a.starts_with("--") {
            seen.push(a.clone());
        }
        match a.as_str() {
            "--forest" => run.spec.algorithm = Algorithm::Forest,
            "--general" => run.spec.algorithm = Algorithm::General,
            "--auto" => run.spec.algorithm = Algorithm::Auto,
            "--labels" => run.labels = true,
            "--trace" => {
                run.trace = true;
                // Query mode takes an optional integer operand: `--trace N`
                // also dumps the last N structured trace events. A
                // following flag (or nothing) keeps the bare behavior.
                if mode == "query" {
                    if let Some(k) = it.peek().and_then(|next| next.parse::<usize>().ok()) {
                        q.trace_events = Some(k);
                        it.next();
                    }
                }
            }
            "--metrics" => run.metrics = true,
            "--json" => run.json = true,
            "--k" => run.spec.k = positive(&mut it, &a)?,
            "--seed" => run.spec.seed = value(&mut it, &a)?,
            "--machines" => run.spec.machines = positive(&mut it, &a)?,
            "--backend" => {
                run.spec.backend = DhtBackend::parse(&value::<String>(&mut it, &a)?)
                    .map_err(|e| format!("--backend: {e}"))?
            }
            "--mix" => q.mix = workload::Mix::parse(&value::<String>(&mut it, &a)?)?,
            "--queries" => q.queries = value(&mut it, &a)?,
            "--batch" => q.batch = positive(&mut it, &a)?,
            "--threads" => q.threads = positive(&mut it, &a)?,
            "--persist" => run.persist = Some(value(&mut it, &a)?),
            "--fail" => run.fail.push(value(&mut it, &a)?),
            "--from-snapshot" if mode == "serve" => s.from_snapshot = Some(value(&mut it, &a)?),
            "--from-snapshot" => q.from_snapshot = Some(value(&mut it, &a)?),
            "--connect" => q.connect = Some(value(&mut it, &a)?),
            "--shutdown" => q.shutdown = true,
            "--listen" => s.listen = value(&mut it, &a)?,
            "--workers" => s.workers = positive(&mut it, &a)?,
            "--queue" => s.queue = positive(&mut it, &a)?,
            "--port-file" => s.port_file = Some(value(&mut it, &a)?),
            "--query-file" => q.query_file = Some(value(&mut it, &a)?),
            "--top" => q.top = value(&mut it, &a)?,
            "--stream" => q.stream = value(&mut it, &a)?,
            "--stream-batch" => q.stream_batch = positive(&mut it, &a)?,
            "--help" | "-h" => return Err("usage".into()),
            file if run.file.is_empty() && !file.starts_with("--") => run.file = file.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if run.file.is_empty() && q.from_snapshot.is_none() && s.from_snapshot.is_none() {
        return Err("missing input file".into());
    }
    // The same rule inside `query`: a flag that another of its flags makes it
    // skip is a usage error too.
    let given = |flag: &str| seen.iter().any(|s| s == flag);
    if let Some(flag) = ["--mix", "--queries"].into_iter().find(|f| given(f)) {
        if q.query_file.is_some() {
            return Err(format!("{flag} shapes a generated workload: --query-file replaces it"));
        }
    }
    if given("--stream-batch") && q.stream == 0 {
        return Err("--stream-batch sizes the batches of --stream: it needs --stream".into());
    }
    if mode == "query" && run.labels && (run.json || q.connect.is_some()) {
        let why = if run.json {
            "--json: its JSON has no labels"
        } else {
            "--connect: there is no local epoch"
        };
        return Err(format!("--labels cannot be combined with query {why}"));
    }
    if q.connect.is_some() {
        if q.stream > 0 || q.top > 0 {
            return Err("--connect answers over the wire: --stream/--top are in-process modes \
                        and cannot be combined with it"
                .into());
        }
        if q.from_snapshot.is_some() || q.query_file.is_some() {
            return Err("--connect builds its oracle from the graph file; --from-snapshot and \
                        --query-file cannot be combined with it"
                .into());
        }
        if run.file.is_empty() {
            return Err("--connect needs the graph file (it is the local oracle)".into());
        }
        let cap = net::protocol::DEFAULT_MAX_PAYLOAD as usize / net::protocol::QUERY_WIRE_LEN;
        if q.batch > cap {
            return Err(format!("--batch {} does not fit a wire frame (at most {cap})", q.batch));
        }
    }
    if q.shutdown && q.connect.is_none() {
        return Err("--shutdown needs --connect (it asks the remote server to exit)".into());
    }
    Ok(match mode {
        "serve" => Cmd::Serve(ServeArgs { run, ..s }),
        "query" => Cmd::Query(QueryArgs { run, ..q }),
        _ => Cmd::Run(run),
    })
}

/// Reads the graph file (`-` is stdin) and prints what every subcommand
/// starts with: the `loaded:` line and, under `--metrics`, the structural
/// metrics of the input.
fn read_graph(run: &RunArgs) -> Result<Graph, String> {
    let file = run.file.as_str();
    let g = if file == "-" {
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf).and_then(|_| graph_io::read_edge_list(&buf[..]))
    } else {
        graph_io::load(file)
    }
    .map_err(|e| format!("error reading {file}: {e}"))?;
    eprintln!("loaded: n = {}, m = {}", g.n(), g.m());
    if run.metrics {
        let m = metrics::metrics(&g);
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
    Ok(g)
}

/// The one pipeline refusal a flag causes, reported against that flag:
/// `--forest` on an input with a cycle is refused before any round runs.
fn pipeline_failure(e: &PipelineError) -> Option<String> {
    (*e == PipelineError::NotAForest).then(|| format!("--forest: {e} (use --auto or --general)"))
}

/// A service build that failed, as one line.
fn build_failure(e: ServeError) -> String {
    match &e {
        ServeError::Pipeline(p) => pipeline_failure(p),
        _ => None,
    }
    .unwrap_or_else(|| format!("service build failed: {e}"))
}

/// Announces which algorithm `spec` resolved to — the lines every mode
/// prints before running anything. `resolve` refuses only `--forest`, which
/// announces the Algorithm 1 it asked for.
fn announce(spec: &PipelineSpec, resolution: &Result<Resolved<'_>, PipelineError>) -> u8 {
    let algorithm = resolution.as_ref().map_or(ResolvedAlgorithm::Forest, Resolved::algorithm);
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

/// Layout of a [`Json`] container: one member per line, indented two
/// spaces per level …
const BLOCK: bool = true;
/// … or on the line it starts on: `{ "a": 1, "b": 2 }`, `[1, 2]`.
const INLINE: bool = false;

/// The one writer behind every `--json` document: it owns the commas, the
/// indentation and the string escapes, so a renderer only lists members in
/// order.
struct Json {
    out: String,
    /// Per open container: its closing bracket, its layout, and whether it
    /// is still empty.
    open: Vec<(char, bool, bool)>,
}

impl Json {
    /// Starts a document: a block object, closed by [`Json::finish`].
    fn new() -> Self {
        Json { out: "{".to_string(), open: vec![('}', BLOCK, true)] }
    }

    /// Moves to the next member's position: the comma, the line break or
    /// space, and the key (`None` inside an array).
    fn member(&mut self, key: Option<&str>) {
        let depth = self.open.len();
        let (close, layout, empty) = self.open.last_mut().expect("the document is still open");
        if !*empty {
            self.out.push(',');
        }
        if *layout == BLOCK {
            let _ = write!(self.out, "\n{:1$}", "", 2 * depth);
        } else if !*empty || *close == '}' {
            self.out.push(' ');
        }
        *empty = false;
        if let Some(key) = key {
            let _ = write!(self.out, "\"{key}\": ");
        }
    }

    /// `"key": value` (an array element when `key` is `None`), with `value`
    /// as it displays: numbers, booleans, `format_args!` for a precision.
    fn put(&mut self, key: Option<&str>, value: impl Display) {
        self.member(key);
        let _ = write!(self.out, "{value}");
    }

    fn field(&mut self, key: &str, value: impl Display) {
        self.put(Some(key), value);
    }

    /// `"key": "value"`, escaped.
    fn string(&mut self, key: &str, value: &str) {
        self.field(key, format_args!("\"{}\"", json_escape(value)));
    }

    /// A nested object (`'{'`) or array (`'['`) whose members `body` writes.
    fn nest(&mut self, key: Option<&str>, open: char, layout: bool, body: impl FnOnce(&mut Json)) {
        self.put(key, open);
        self.open.push((if open == '{' { '}' } else { ']' }, layout, true));
        body(self);
        self.close();
    }

    fn close(&mut self) {
        let (close, layout, _) = self.open.pop().expect("one close per open container");
        if layout == BLOCK {
            let _ = write!(self.out, "\n{:1$}", "", 2 * self.open.len());
        } else if close == '}' {
            self.out.push(' ');
        }
        self.out.push(close);
    }

    fn finish(mut self) -> String {
        self.close();
        self.out + "\n"
    }
}

/// Renders a run (labels + RunStats) as one JSON object.
fn run_json(g: &Graph, args: &RunArgs, labeling: &Labeling, stats: &RunStats, alg: u8) -> String {
    let mut j = Json::new();
    j.field("n", g.n());
    j.field("m", g.m());
    j.field("algorithm", alg);
    j.string("backend", args.spec.backend.name());
    j.field("seed", args.spec.seed);
    j.field("components", labeling.num_components());
    j.field("rounds", stats.rounds());
    j.field("queries", stats.total_queries());
    j.field("peak_space_words", stats.peak_total_space());
    j.field("bytes_shuffled", stats.total_bytes_shuffled());
    j.nest(Some("per_round"), '[', BLOCK, |j| {
        for r in stats.per_round() {
            j.nest(None, '{', INLINE, |j| {
                j.field("index", r.index);
                j.string("name", r.name);
                j.field("reads", r.reads);
                j.field("writes", r.writes);
                j.field("snapshot_entries", r.snapshot_entries);
                j.field("total_space_words", r.total_space_words);
                j.field("bytes_shuffled", r.bytes_shuffled);
            });
        }
    });
    metrics_json(&mut j);
    j.nest(Some("labels"), '[', INLINE, |j| {
        for l in labeling.canonical() {
            j.put(None, l);
        }
    });
    j.finish()
}

/// Writes the process-wide metrics registry as the `"metrics"` member of
/// either subcommand's `--json` object. Every catalog entry appears, zero
/// or not, so the schema is stable across runs.
fn metrics_json(j: &mut Json) {
    use ampc_obs::{counter, gauge, hist, summary, CounterId, GaugeId, HistId};
    j.nest(Some("metrics"), '{', BLOCK, |j| {
        j.nest(Some("counters"), '{', INLINE, |j| {
            for id in CounterId::ALL {
                j.field(id.name(), counter(id).get());
            }
        });
        j.nest(Some("gauges"), '{', INLINE, |j| {
            for id in GaugeId::ALL {
                j.field(id.name(), gauge(id).get());
            }
        });
        j.nest(Some("histograms"), '{', BLOCK, |j| {
            for id in HistId::ALL {
                j.nest(Some(id.name()), '{', INLINE, |j| {
                    for (k, v) in summary(&hist(id).snapshot()) {
                        j.field(k, v);
                    }
                });
            }
        });
    });
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
    let g = read_graph(&args)?;
    let resolution = args.spec.resolve(&g);
    let alg = announce(&args.spec, &resolution);
    let run = resolution
        .and_then(Resolved::run)
        .map_err(|e| pipeline_failure(&e).unwrap_or_else(|| e.to_string()))?;

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
            &index.class_labels(&run.labeling),
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

/// Epoch 0 for `query` and `serve`. A snapshot alone boots strictly (header
/// check, one bulk read, epoch 0 decoded and validated from the file, no
/// pipeline run); a graph alone is built live (the service
/// executes the spec, refuses a labeling that fails validation against the
/// graph, and publishes the frozen index). With both, `fall_back` decides:
/// `serve` boots through the fallback chain — the snapshot, or a build over
/// the graph when the snapshot is missing or corrupt, recorded as the `boot`
/// incident — while `query` stays strict, because there the graph
/// is the cross-validation oracle and a silent fallback would hide the
/// failure.
fn boot(
    spec: &PipelineSpec,
    graph: Option<Graph>,
    from_snapshot: Option<&str>,
    fall_back: bool,
) -> Result<ServiceHandle, String> {
    let announced = spec.clone();
    let builder = graph.map(|g| {
        ServiceBuilder::new(g).spec(spec.clone()).announce(move |resolution| {
            announce(&announced, resolution);
        })
    });
    match (from_snapshot, builder) {
        (Some(path), Some(builder)) if fall_back => {
            let (service, source) =
                builder.from_snapshot_or_rebuild(path).map_err(build_failure)?;
            match source {
                BootSource::Snapshot => {
                    eprintln!("boot: snapshot {path} (the graph file was only the fallback)")
                }
                BootSource::RebuildFallback => eprintln!(
                    "boot: snapshot {path} unusable, built from the graph file \
                     (recorded as the boot incident)"
                ),
            }
            Ok(service)
        }
        (Some(path), _) => ServiceBuilder::from_snapshot(path)
            .map_err(|e| format!("snapshot boot from {path} failed: {e}")),
        (None, Some(builder)) => builder.build().map_err(build_failure),
        (None, None) => Err("missing input file".into()),
    }
}

/// Builds the service (pipeline run, snapshot boot, or the fallback chain
/// when both a file and a snapshot are given) and serves it over TCP until
/// a client's Shutdown frame or a signal kills the process.
fn cmd_serve(args: ServeArgs) -> Result<(), String> {
    arm_failpoints(&args.run.fail)?;
    let graph = if args.run.file.is_empty() { None } else { Some(read_graph(&args.run)?) };
    let service = boot(&args.run.spec, graph, args.from_snapshot.as_deref(), true)?;
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
        // The handshake file a harness polls: renamed into place only once
        // the listener is live, so its existence means "connectable" and it
        // is never seen empty. Plain `std::fs`, not `snapshot::write_atomic`:
        // that one traverses the `persist.*` failpoints `--fail` can arm.
        let tmp = format!("{path}.tmp.{}", std::process::id());
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, path))
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

/// Where `query` sends its frames.
enum Transport {
    /// A service booted in this process, its epoch-0 snapshot, and the
    /// milliseconds the boot took.
    Local(ServiceHandle, Arc<PublishedIndex>, f64),
    /// A running `ampc-cc serve`.
    Wire(std::net::SocketAddr),
}

/// Epoch 0 of the in-process transport, announced: the pipeline or boot
/// line, the index line, and the index held byte-identical to one built from
/// the union-find labels (dense ids are a pure function of the partition).
fn boot_local(
    args: &QueryArgs,
    loaded: Option<Graph>,
    reference: Option<&ComponentIndex>,
) -> Result<Transport, String> {
    let file_n = loaded.as_ref().map(Graph::n);
    let t0 = Instant::now();
    let service = boot(&args.run.spec, loaded, args.from_snapshot.as_deref(), false)?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = service.snapshot();
    let (n, _) = snap.graph_size();
    if let Some(file_n) = file_n.filter(|&file_n| file_n != n) {
        return Err(format!("snapshot covers {n} vertices but {} has {file_n}", args.run.file));
    }
    match &args.from_snapshot {
        Some(path) => eprintln!("booted from snapshot {path} in {build_ms:.2} ms"),
        None => {
            eprintln!(
                "pipeline: components = {} | AMPC rounds = {} | queries = {}",
                snap.index().num_components(),
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
    if reference.is_some_and(|reference| snap.index() != reference) {
        return Err("internal error: index diverges from the union-find reference".into());
    }
    Ok(Transport::Local(service, snap, build_ms))
}

/// The `--stream` phase: applies deterministic random edge batches through
/// the incremental journal-epoch path, validating each published epoch
/// against a from-scratch union-find oracle before timing counts, and
/// writes its summary to stderr and as the `"streaming"` member of `j`.
fn stream_phase(
    args: &QueryArgs,
    service: &ServiceHandle,
    n: usize,
    mut all_edges: Vec<(VertexId, VertexId)>,
    j: &mut Json,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(derive_seed(&[0x57_AE, args.run.spec.seed]));
    let mut publish_ms: Vec<f64> = Vec::with_capacity(args.stream);
    let mut last_merges = 0usize;
    for b in 0..args.stream {
        let batch: Vec<(VertexId, VertexId)> = (0..args.stream_batch)
            .map(|_| (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId))
            .collect();
        let t0 = Instant::now();
        let report =
            service.insert_edges(&batch).map_err(|e| format!("insert batch {b} failed: {e}"))?;
        publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        last_merges = report.journal_merges;
        all_edges.extend_from_slice(&batch);
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
    let avg_publish_ms = publish_ms.iter().sum::<f64>() / publish_ms.len().max(1) as f64;
    let max_publish_ms = publish_ms.iter().fold(0.0f64, |a, &b| a.max(b));
    let live = service.snapshot();
    eprintln!(
        "streaming: {} batches × {} edges | journal publish avg {avg_publish_ms:.3} ms \
         (max {max_publish_ms:.3}) | epoch {} | {} components | {last_merges} journal merges | \
         all answers match the oracle",
        args.stream,
        args.stream_batch,
        live.epoch(),
        live.num_components()
    );
    j.nest(Some("streaming"), '{', INLINE, |j| {
        j.field("batches", args.stream);
        j.field("edges_per_batch", args.stream_batch);
        j.field("avg_journal_publish_ms", format_args!("{avg_publish_ms:.3}"));
        j.field("max_journal_publish_ms", format_args!("{max_publish_ms:.3}"));
        j.field("final_epoch", live.epoch());
        j.field("final_components", live.num_components());
        j.field("journal_merges", last_merges);
    });
    Ok(())
}

/// Answers one workload against one transport — a service booted in this
/// process, or with `--connect` a running server — through the one
/// closed-loop runner, holds the answers to the oracle's checksum, and
/// reports the run on stderr and under `--json`.
fn cmd_query(args: QueryArgs) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    arm_failpoints(&args.run.fail)?;
    let addr = match &args.connect {
        Some(spec) => Some(
            spec.to_socket_addrs()
                .map_err(|e| format!("bad --connect address {spec}: {e}"))?
                .next()
                .ok_or_else(|| format!("--connect address {spec} resolved to nothing"))?,
        ),
        None => None,
    };
    let has_file = !args.run.file.is_empty();
    if args.stream > 0 && !has_file {
        return Err("--stream needs the graph file (a snapshot carries no edge list)".into());
    }
    let loaded = if has_file { Some(read_graph(&args.run)?) } else { None };
    if args.stream > 0 && loaded.as_ref().is_some_and(|g| g.n() == 0) {
        return Err("--stream needs a graph with at least one vertex to insert edges on".into());
    }

    // One union-find pass is the oracle of either transport, computed up
    // front so the graph can be moved into the service (no second copy of a
    // large input). The streaming phase re-derives merged graphs, so it
    // keeps the edge list around. Without a graph file there is no truth to
    // check against — the snapshot's checksums stand in for it.
    let reference: Option<ComponentIndex> =
        loaded.as_ref().map(|g| ComponentIndex::build(&reference_components(g)));
    let base_edges: Vec<(VertexId, VertexId)> = match (&loaded, args.stream > 0) {
        (Some(g), true) => g.edges().collect(),
        _ => Vec::new(),
    };
    let file_size = loaded.as_ref().map(|g| (g.n(), g.m()));
    let transport = match addr {
        Some(addr) => Transport::Wire(addr),
        None => boot_local(&args, loaded, reference.as_ref())?,
    };
    let snap = match &transport {
        Transport::Local(_, snap, _) => Some(snap),
        Transport::Wire(_) => None,
    };
    let (n, m) = snap.map(|s| s.graph_size()).or(file_size).ok_or("missing input file")?;
    let oracle: &ComponentIndex =
        reference.as_ref().or(snap.map(|s| s.index())).ok_or("missing input file")?;

    let queries = match &args.query_file {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("error opening query file {path}: {e}"))?;
            workload::parse_query_file(file, n)
                .map_err(|e| format!("error parsing query file {path}: {e}"))?
        }
        None => workload::generate(oracle, args.mix, args.queries, args.run.spec.seed),
    };
    let source = match &args.query_file {
        Some(path) => format!("file:{path}"),
        None => args.mix.name().to_string(),
    };
    eprintln!(
        "workload: {} ({} queries, batch = {}, threads = {}){}",
        source,
        queries.len(),
        args.batch,
        args.threads,
        addr.map(|addr| format!(" → {addr}")).unwrap_or_default()
    );

    // The expected checksum is the oracle's, folded answer by answer. In
    // process the published index is held to it query by query (the index
    // equality already implies this; the loop pins it observably), which is
    // also the warm pass of the timed run below.
    let oracle_engine = QueryEngine::new(oracle);
    let served = snap.map(|s| s.engine());
    let mut expected = 0u64;
    for &q in &queries {
        let want = oracle_engine.answer(q);
        if let Some(got) = served.map(|e| e.answer(q)).filter(|&got| got != want) {
            return Err(format!("query {q:?}: index answered {got}, reference {want}"));
        }
        expected = expected.wrapping_add(want);
    }
    let validated = match (snap, &reference) {
        (Some(_), Some(_)) => {
            let all = queries.len();
            eprintln!("validated: {all}/{all} answers match the union-find reference");
            all
        }
        (Some(_), None) => {
            eprintln!("validation: skipped (no graph file; snapshot checksums verified at load)");
            0
        }
        (None, _) => 0,
    };

    // One closed-loop run, whatever the transport. The striping is
    // deterministic, so the checksum is the expected one at any --threads
    // and --batch, or the answers are wrong.
    let report = match &transport {
        Transport::Local(service, ..) => driver::run(service, &queries, args.threads, args.batch),
        Transport::Wire(addr) => {
            let cfg =
                net::HarnessConfig { connections: args.threads, batch: args.batch, retries: 0 };
            net::run_harness(*addr, &queries, cfg)
                .map_err(|e| format!("network harness failed: {e}"))?
        }
    };
    if report.checksum != expected {
        return Err(format!(
            "checksum {} diverged from the expected {expected}: wrong answers",
            report.checksum
        ));
    }
    if args.threads > 1 {
        for w in &report.per_worker {
            eprintln!(
                "  thread {:<3} {} queries | {:>12.0} q/s | epoch {} | retries {}",
                w.worker, w.queries, w.queries_per_sec, w.epoch, w.retries
            );
        }
    }
    eprintln!(
        "throughput: {:.0} q/s | checksum = {} (as expected) | threads = {} | batch = {}",
        report.queries_per_sec, report.checksum, report.threads, report.batch
    );
    let lat = &report.latency;
    eprintln!(
        "latency: p50 = {} ns | p90 = {} ns | p99 = {} ns | p999 = {} ns | max = {} ns | \
         mean = {:.0} ns ({} queries, each at the mean of its frame's {})",
        lat.quantile(0.5),
        lat.quantile(0.9),
        lat.quantile(0.99),
        lat.quantile(0.999),
        lat.max,
        lat.mean(),
        lat.count,
        if addr.is_some() { "round trip" } else { "service time" }
    );

    // The one `--json` document: the members every run has, then what only
    // this transport knows. Built as the run goes, printed under --json.
    let mut j = Json::new();
    j.field("n", n);
    j.field("m", m);
    j.string("workload", &source);
    j.field("queries", report.queries);
    j.field("batch", report.batch);
    j.field("threads", report.threads);
    j.nest(Some("per_thread"), '[', BLOCK, |j| {
        for w in &report.per_worker {
            j.nest(None, '{', INLINE, |j| {
                j.field("thread", w.worker);
                j.field("queries", w.queries);
                j.field("epoch", w.epoch);
                j.field("retries", w.retries);
                j.field("queries_per_sec", format_args!("{:.0}", w.queries_per_sec));
            });
        }
    });
    j.field("queries_per_sec", format_args!("{:.0}", report.queries_per_sec));
    j.field("checksum", report.checksum);
    if reference.is_some() {
        j.field("checksum_matches_oracle", true);
    }
    j.field("validated", validated);
    j.nest(Some("latency"), '{', INLINE, |j| {
        j.field("queries", lat.count);
        for (key, ns) in &ampc_obs::summary(lat)[1..] {
            j.field(key, ns);
        }
        j.field("mean_ns", format_args!("{:.1}", lat.mean()));
    });

    match &transport {
        // Over the wire, one control connection fetches health and the
        // metrics exposition; the server-side service histogram is recovered
        // from the Prometheus text, so wire and service latency are reported
        // side by side with no side channel.
        Transport::Wire(addr) => {
            let mut conn = net::Connection::connect(*addr)
                .map_err(|e| format!("control connection to {addr} failed: {e}"))?;
            let health = conn.health().map_err(|e| format!("health opcode failed: {e}"))?;
            let text = conn.metrics().map_err(|e| format!("metrics opcode failed: {e}"))?;
            j.string("connect", args.connect.as_deref().unwrap_or_default());
            match net::prom_histogram_quantiles(&text, ampc_obs::HistId::NetServiceNs.name()) {
                Some((count, qs)) => {
                    eprintln!(
                        "service latency (server-side): p50 = {} ns | p99 = {} ns | p999 = {} ns \
                         ({count} queries)",
                        qs[0].1, qs[1].1, qs[2].1
                    );
                    j.nest(Some("service"), '{', INLINE, |j| {
                        j.field("queries", count);
                        j.field("p50_ns", qs[0].1);
                        j.field("p99_ns", qs[1].1);
                        j.field("p999_ns", qs[2].1);
                    });
                }
                None => {
                    eprintln!("service latency: not yet present in the server's exposition");
                    j.field("service", "null");
                }
            }
            eprintln!(
                "server health: {} | epoch {} | {} components",
                health.state_name(),
                health.epoch,
                health.components
            );
            j.nest(Some("health"), '{', INLINE, |j| {
                j.string("state", health.state_name());
                j.field("consecutive_failures", health.consecutive_failures);
                j.field("total_incidents", health.total_incidents);
                j.field("epoch", health.epoch);
                j.field("components", health.components);
            });
            if args.shutdown {
                conn.shutdown_server().map_err(|e| format!("shutdown request failed: {e}"))?;
                eprintln!("server acknowledged shutdown");
            }
            j.field("shutdown_sent", args.shutdown);
        }
        Transport::Local(service, snap, build_ms) => {
            if args.top > 0 {
                eprintln!("top {} components by size:", args.top);
                for (rank, &c) in snap.index().top_k(args.top).iter().enumerate() {
                    let size = snap.index().size_of(c);
                    eprintln!("  #{:<3} component {:<10} size {size}", rank + 1, c);
                }
            }
            j.field("algorithm", snap.algorithm().number());
            j.string("backend", args.run.spec.backend.name());
            j.field("components", snap.index().num_components());
            j.field("index_bytes", snap.index().heap_bytes());
            j.field("epoch", snap.epoch());
            j.field("service_build_ms", format_args!("{build_ms:.3}"));
            j.field("pipeline_ms", format_args!("{:.3}", snap.pipeline_ms()));
            j.field("index_build_ms", format_args!("{:.3}", snap.index_build_ms()));
            j.field("from_snapshot", args.from_snapshot.is_some());
            if args.stream > 0 {
                stream_phase(&args, service, n, base_edges, &mut j)?;
            }
            let health = service.health();
            j.nest(Some("health"), '{', BLOCK, |j| {
                j.string("state", health.state.name());
                j.field("consecutive_failures", health.consecutive_failures);
                j.field("total_incidents", health.total_incidents);
                j.nest(Some("incidents"), '[', INLINE, |j| {
                    for inc in &health.incidents {
                        j.nest(None, '{', INLINE, |j| {
                            j.field("seq", inc.seq);
                            j.field("at_ms", inc.at_ms);
                            j.string("op", inc.op.name());
                            j.string("error", &inc.error.to_string());
                        });
                    }
                });
            });
        }
    }

    if args.run.json {
        metrics_json(&mut j);
        if let Some(k) = args.trace_events {
            j.nest(Some("trace"), '[', BLOCK, |j| {
                for e in ampc_obs::trace_last(k) {
                    j.nest(None, '{', INLINE, |j| {
                        j.field("seq", e.seq);
                        j.field("at_ns", e.at_ns);
                        j.string("kind", e.kind.name());
                        j.field("a", e.a);
                        j.field("b", e.b);
                    });
                }
            });
        }
        print!("{}", j.finish());
    } else {
        if let Some(k) = args.trace_events {
            dump_trace(k);
        }
        if args.run.metrics {
            eprintln!("\nprocess metrics:\n{}", ampc_obs::render_table());
        }
        if let Some(snap) = snap.filter(|_| args.run.labels) {
            // The index's dense ids: the same partition, so the same output.
            let ids: Vec<u64> = (0..snap.index().num_components() as u64).collect();
            print_labels(&snap.index().labeling(&ids));
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
                 \x20                 [--machines M] [--backend dense[:CAP]|flat]\n\
                 \x20                 [--labels] [--trace] [--metrics] [--json] [--persist PATH]\n\
                 \x20                 [--fail SITE[:K][:panic]]\n\
                 \x20      ampc-cc query [<file>] [pipeline options]\n\
                 \x20                 [--mix uniform|zipf[:EXP]|cross] [--queries N]\n\
                 \x20                 [--batch B] [--threads T] [--query-file F] [--top K]\n\
                 \x20                 [--stream N] [--stream-batch E] [--json]\n\
                 \x20                 [--from-snapshot PATH] [--fail SITE[:K][:panic]]\n\
                 \x20                 [--trace [N]] [--connect ADDR [--shutdown]]\n\
                 \x20      ampc-cc serve [<file>] [pipeline options] [--listen ADDR]\n\
                 \x20                 [--workers W] [--queue D] [--port-file PATH]\n\
                 \x20                 [--from-snapshot PATH] [--fail SITE[:K][:panic]]\n\
                 failpoint sites: {}",
                fault::Site::ALL.map(fault::Site::name).join(", ")
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
