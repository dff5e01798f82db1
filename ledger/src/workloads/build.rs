//! `build_forest` and `build_general`: graph in, validated, indexed,
//! published epoch 0 out. The op is `ServiceBuilder::build`; the floor is
//! minimal labelings of the same edge list (`floor::labelings_ns`).

use std::time::Instant;

use ampc::rng::derive_seed;
use ampc::{AmpcConfig, AmpcSystem, DenseDht, DhtBackend, Key, RunStats};
use ampc_cc::pipeline::{Algorithm, PipelineSpec};
use ampc_graph::degree3::to_degree3;
use ampc_graph::euler::forest_to_cycles;
use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
use ampc_graph::{reference_components, Graph, Labeling};
use ampc_obs::HistId;
use ampc_query::ComponentIndex;
use ampc_serve::{ServiceBuilder, ServiceHandle};

use super::{scratch_dir, Ctx, Layers, Rep, Workload};
use crate::floor::{labelings_ns, uf_labels};
use crate::probes::{self, best_ns_per_item, median_ms, time_ns};
use crate::stats;

pub struct Build {
    /// The shape of the input: G(n, m) for Algorithm 2, or a forest for
    /// Algorithm 1.
    general: bool,
    g: Graph,
    edges: Vec<(u32, u32)>,
    spec: PipelineSpec,
    floor_labels: Labeling,
    oracle: ComponentIndex,
    /// Labels and cost accounting of the reference run on `DhtBackend::Flat`,
    /// which every timed build must equal byte for byte.
    reference_labels: Labeling,
    reference_stats: String,
    /// The service the last repetition published.
    last: Option<ServiceHandle>,
    seed: u64,
    generate_ms: f64,
    oracle_ms: f64,
}

/// The cost accounting as comparable bytes (`RunStats` has no `PartialEq`).
fn stats_bytes(stats: &RunStats) -> String {
    format!("{stats:?}")
}

fn build(g: Graph, spec: &PipelineSpec) -> ServiceHandle {
    ServiceBuilder::new(g).spec(spec.clone()).build().expect("the pipeline builds its input")
}

impl Build {
    /// Everything before the first timed build: CPU work only.
    pub fn setup(seed: u64, general: bool) -> Self {
        let graph_seed = derive_seed(&[seed, 1]);
        let (g, generate_ns) = time_ns(|| {
            if general {
                erdos_renyi_gnm(1 << 16, 1 << 18, graph_seed)
            } else {
                random_forest(1 << 18, 1 << 10, graph_seed)
            }
        });
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let floor_labels = Labeling(uf_labels(g.n(), &edges));
        let (reference, oracle_ns) = time_ns(|| reference_components(&g));
        assert!(floor_labels.same_partition(&reference), "the floor disagrees with the oracle");
        let oracle = ComponentIndex::build(&reference);
        let algorithm = if general { Algorithm::General } else { Algorithm::Auto };
        let spec = PipelineSpec::default()
            .with_algorithm(algorithm)
            .with_backend(DhtBackend::dense())
            .with_seed(derive_seed(&[seed, 2]))
            .with_machines(8);
        let run = spec.clone().with_backend(DhtBackend::Flat).run(&g).expect("reference run");
        Build {
            general,
            reference_labels: run.labeling,
            reference_stats: stats_bytes(&run.stats),
            g,
            edges,
            spec,
            floor_labels,
            oracle,
            last: None,
            seed,
            generate_ms: generate_ns / 1e6,
            oracle_ms: oracle_ns / 1e6,
        }
    }
}

impl Workload for Build {
    fn rep(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        // Drop the previous epoch first: one service alive at a time.
        self.last = None;
        let input = self.g.clone();
        let rounds_before = ctx.traced.then(|| ampc_obs::hist(HistId::RoundWallNs).snapshot().sum);

        ctx.cpu.begin();
        let span = ctx.spans.enter("build");
        let t = Instant::now();
        let svc = build(input, &self.spec);
        let op_ns = t.elapsed().as_nanos() as u64;
        ctx.cpu.end();

        ctx.spans.exit(span);
        ctx.samples.push(op_ns);

        let rounds_after = ctx.traced.then(|| ampc_obs::hist(HistId::RoundWallNs).snapshot().sum);

        let floor_ns = labelings_ns(self.g.n(), &self.edges);

        let snap = svc.snapshot();
        if let (Some(before), Some(rounds_after)) = (rounds_before, rounds_after) {
            // The parts the program accounts for itself, laid out in order
            // inside the observed build; what is left is the publish.
            let rounds_ns = rounds_after - before;
            let pipeline_ns = (snap.pipeline_ms() * 1e6) as u64;
            let index_ns = (snap.index_build_ms() * 1e6) as u64;
            let (valid, validate_ns) = time_ns(|| snap.labeling().validates(&self.g));
            assert!(valid, "a published labeling validates");
            let sp = &mut *ctx.spans;
            let pipeline = sp.reported_under(span, "core.pipeline", 0, pipeline_ns);
            sp.reported_under(pipeline, "ampc.rounds", 0, rounds_ns);
            let index = sp.reported_under(span, "query.index_build", pipeline_ns, index_ns);
            sp.reported_under(index, "graph.validate", 0, validate_ns as u64);
            let rest = op_ns.saturating_sub(pipeline_ns + index_ns);
            sp.reported_under(span, "serve.publish", pipeline_ns + index_ns, rest);
        }

        // The reference run's accounting equals every repetition's, so every
        // repetition equals the previous one too.
        let ok = snap.labeling().same_partition(&self.floor_labels)
            && *snap.index() == self.oracle
            && *snap.labeling() == self.reference_labels
            && stats_bytes(snap.stats()) == self.reference_stats;
        ctx.outcome.check(ok);
        drop(snap);
        self.last = Some(svc);

        let words = (self.g.n() + self.g.m()) as f64;
        Rep { op_ns: op_ns as f64, floor_ns, work_per_s: words / (op_ns as f64 / 1e9) }
    }

    fn space_per_input(&self) -> f64 {
        let snap = self.last.as_ref().expect("a repetition ran").snapshot();
        snap.stats().peak_total_space() as f64 / (self.g.n() + self.g.m()) as f64
    }

    fn layers(self, layers: &mut Layers<'_>) {
        let Layers { args, spans, quiet_op_ns, .. } = *layers;
        let report = &mut *layers.report;
        let svc = self.last.as_ref().expect("a repetition ran");
        let snap = svc.snapshot();
        let stats = snap.stats();
        let g = &self.g;
        let median_span_ms = |name: &str| stats::median(&spans.durations(name)) / 1e6;

        report.set("graph.generate_ms", self.generate_ms);
        report.set("graph.oracle_ms", self.oracle_ms);
        report.set("graph.validate_ms", median_span_ms("graph.validate"));
        if self.general {
            report.set("graph.degree3_ms", median_ms(3, || to_degree3(g).graph.n()));
        } else {
            report.set("graph.euler_ms", median_ms(3, || forest_to_cycles(g).len()));
        }

        let rounds = stats.per_round();
        let reads: usize = rounds.iter().map(|r| r.reads).sum();
        let writes: usize = rounds.iter().map(|r| r.writes).sum();
        let round_wall_ms = median_span_ms("ampc.rounds");
        report.set("ampc.rounds", stats.rounds() as f64);
        report.set("ampc.rounds_executed", stats.executed_rounds() as f64);
        report.set("ampc.reads", reads as f64);
        report.set("ampc.writes", writes as f64);
        report.set("ampc.write_words", stats.total_write_words() as f64);
        report.set("ampc.bytes_shuffled", stats.total_bytes_shuffled() as f64);
        report.set("ampc.peak_space_words", stats.peak_total_space() as f64);
        report.set("ampc.max_machine_read_words", stats.peak_machine_read_words() as f64);
        report.set("ampc.round_wall_ms", round_wall_ms);
        report.set("ampc.ns_per_op", round_wall_ms * 1e6 / (reads + writes).max(1) as f64);
        report.set("ampc.kernel_ns_per_item", kernel_ns_per_item());

        let pipeline_ms = median_span_ms("core.pipeline");
        report.set("core.pipeline_ms", pipeline_ms);
        report.set("core.host_ms", pipeline_ms - round_wall_ms);
        for (stage, reads_row, bytes_row) in [
            ("ssc", "core.reads.ssc", "core.shuffle_bytes.ssc"),
            ("slc", "core.reads.slc", "core.shuffle_bytes.slc"),
            ("compose", "core.reads.compose", "core.shuffle_bytes.compose"),
            ("sg", "core.reads.sg", "core.shuffle_bytes.sg"),
            ("rf", "core.reads.rf", "core.shuffle_bytes.rf"),
        ] {
            let of_stage = || rounds.iter().filter(|r| r.name.starts_with(stage));
            report.set(reads_row, of_stage().map(|r| r.reads).sum::<usize>() as f64);
            report.set(bytes_row, of_stage().map(|r| r.bytes_shuffled).sum::<usize>() as f64);
        }

        let index_ms = median_span_ms("query.index_build");
        let publish_ms = median_span_ms("serve.publish");
        report.set("query.index_build_ms", index_ms);
        report.set("serve.publish_ms", publish_ms);
        probes::query_rows(snap.index(), snap.labeling(), g, self.seed, report);

        // The same build on the other two backends, in cycles so that each
        // ratio is between neighbours in time.
        let cycles = if args.quick { 1 } else { 2 };
        let (mut flat, mut sharded) = (Vec::new(), Vec::new());
        for _ in 0..cycles {
            let timed = |backend| {
                let (input, spec) = (g.clone(), self.spec.clone().with_backend(backend));
                time_ns(|| build(input, &spec)).1
            };
            let dense = timed(DhtBackend::dense());
            flat.push(timed(DhtBackend::Flat) / dense);
            sharded.push(timed(DhtBackend::sharded()) / dense);
        }
        report.set("ampc.flat_x_dense", stats::median(&flat));
        report.set("ampc.sharded_x_dense", stats::median(&sharded));

        // File I/O, after all timing: persist the published epoch, boot it.
        let path = scratch_dir().join(format!("ledger-scratch-{}.snap", args.workload));
        std::fs::create_dir_all(scratch_dir()).expect("ledger/target is creatable");
        let (persisted, persist_ns) = time_ns(|| svc.persist(&path));
        persisted.expect("persist under ledger/target");
        let (booted, boot_ns) = time_ns(|| ServiceBuilder::from_snapshot(&path));
        let booted = booted.expect("boot from the snapshot just persisted");
        assert!(*booted.snapshot().index() == self.oracle, "the booted index equals the oracle");
        std::fs::remove_file(&path).expect("remove the persist/boot scratch");
        report.set("serve.persist_ms", persist_ns / 1e6);
        report.set("serve.boot_ms", boot_ns / 1e6);

        // The budget of the quietest traced build, to set against the
        // untraced quiet op: medians of all traced builds carry the host's
        // slow spells, which a quiet value leaves out.
        let quiet = spans.of_rep(spans.quietest_rep("build").expect("a traced build"));
        let ms = |name: &str| stats::median(&quiet.durations(name)) / 1e6;
        let (rounds, pipeline, total) = (ms("ampc.rounds"), ms("core.pipeline"), ms("build"));
        println!(
            "budget (quietest traced build, ms): ampc.rounds {rounds:.2} + core.host {:.2} \
             (residual of core.pipeline {pipeline:.2}) + query.index_build {:.2} (graph.validate \
             {:.2} inside) + serve.publish {:.3} (residual) = {total:.2}; untraced quiet op {:.2}; \
             parts / quiet = {:.3}; pipeline share of the build {:.1} %",
            pipeline - rounds,
            ms("query.index_build"),
            ms("graph.validate"),
            ms("serve.publish"),
            quiet_op_ns / 1e6,
            total / (quiet_op_ns / 1e6),
            100.0 * pipeline / total,
        );
    }
}

/// One `AmpcSystem::round` over 2^20 `u64` items, one read and one write
/// each, on the dense backend: the executor and DHT with no algorithm on top.
fn kernel_ns_per_item() -> f64 {
    const ITEMS: u64 = 1 << 20;
    let config = AmpcConfig::default()
        .with_machines(8)
        .with_backend(DhtBackend::Dense { cap: ITEMS as usize });
    let mut sys: AmpcSystem<u64, DenseDht<u64>> =
        AmpcSystem::new(config, (0..ITEMS).map(|i| (Key::new(0, i), i)));
    let ids: Vec<u64> = (0..ITEMS).collect();
    best_ns_per_item(3, ITEMS as usize, || {
        sys.round("kernel", &ids, |ctx, &i| {
            let next = *ctx.read(Key::new(0, (i + 1) % ITEMS)).expect("every id is stored");
            ctx.write(Key::new(0, i), next.wrapping_add(1));
            None::<()>
        })
        .expect("no limits are configured")
        .reads
    })
}
