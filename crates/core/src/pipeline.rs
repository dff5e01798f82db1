//! Unified pipeline dispatch: one spec, one entry point, both algorithms.
//!
//! [`PipelineSpec`] is a single value (algorithm, backend, k, seed,
//! machines) that every consumer of the pipelines — the `ampc-cc` binary,
//! the serving layer, the ledger — hands to [`PipelineSpec::run`], which
//! returns the unified [`PipelineRun`].
//!
//! [`PipelineSpec::resolve`] picks the algorithm once, into a [`Resolved`]
//! value that carries the input's [`Forest`](ampc_graph::Forest) proof
//! when Algorithm 1 runs, and [`Resolved::run`] consumes it; an explicit
//! [`Algorithm::Forest`] on an input with a cycle is refused as
//! [`PipelineError::NotAForest`] before any round runs. The backend is not
//! dispatched on here or anywhere else in this crate: it travels as a
//! [`DhtBackend`] value into every [`ampc::AmpcConfig`] the pipelines
//! build, and `ampc` turns it into a store (see [`ampc::Dht`]).

use std::fmt;

use ampc::{AmpcError, DhtBackend, RunStats};
use ampc_graph::{Graph, Input, Labeling};

use crate::forest::pipeline::{connected_components_forest, ForestCcConfig};
use crate::general::algorithm2::{connected_components_general, GeneralCcConfig};

/// Which of the paper's algorithms a [`PipelineSpec`] requests.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Pick Algorithm 1 for forests, Algorithm 2 otherwise (the default).
    #[default]
    Auto,
    /// Algorithm 1 (Theorem 1.1) — requires an acyclic input;
    /// [`PipelineSpec::resolve`] refuses a cycle with [`PipelineError::NotAForest`].
    Forest,
    /// Algorithm 2 (Theorem 1.2) — any graph.
    General,
}

impl Algorithm {
    /// Parses a spec string: `auto`, `forest`, or `general`.
    pub fn parse(s: &str) -> Result<Algorithm, String> {
        match s {
            "auto" => Ok(Algorithm::Auto),
            "forest" => Ok(Algorithm::Forest),
            "general" => Ok(Algorithm::General),
            other => Err(format!("unknown algorithm {other:?} (expected auto|forest|general)")),
        }
    }

    /// Short reporting name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Forest => "forest",
            Algorithm::General => "general",
        }
    }
}

/// The algorithm a run actually used once `Auto` has been resolved.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResolvedAlgorithm {
    /// Algorithm 1 (forest pipeline).
    Forest,
    /// Algorithm 2 (general-graph recursion).
    General,
}

impl ResolvedAlgorithm {
    /// The paper's algorithm number (1 = forest, 2 = general).
    pub fn number(&self) -> u8 {
        match self {
            ResolvedAlgorithm::Forest => 1,
            ResolvedAlgorithm::General => 2,
        }
    }

    /// Short reporting name.
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedAlgorithm::Forest => "forest",
            ResolvedAlgorithm::General => "general",
        }
    }
}

/// Everything needed to run a connectivity pipeline, in one value.
///
/// The spec is plain `Clone + Send` data, so it can be stored in a serving
/// handle that every thread rebuilds through. Two runs of the same
/// spec on the same graph are byte-identical (the pipelines are
/// deterministic given the seed).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSpec {
    /// Algorithm selection (resolved against the input when `Auto`).
    pub algorithm: Algorithm,
    /// DHT storage backend for every system the pipeline constructs.
    pub backend: DhtBackend,
    /// The space parameter `k` of Theorem 1.2 (ignored by Algorithm 1).
    pub k: u32,
    /// Run seed.
    pub seed: u64,
    /// Simulated machine count.
    pub machines: usize,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec {
            algorithm: Algorithm::Auto,
            backend: DhtBackend::default(),
            k: 2,
            seed: 0xCC,
            machines: 8,
        }
    }
}

impl PipelineSpec {
    /// Sets the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the DHT storage backend.
    pub fn with_backend(mut self, backend: DhtBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the space parameter `k` (Algorithm 2 only).
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated machine count.
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// The forest config this spec denotes.
    pub fn forest_config(&self) -> ForestCcConfig {
        let mut cfg = ForestCcConfig::default().with_seed(self.seed).with_backend(self.backend);
        cfg.machines = self.machines;
        cfg
    }

    /// The general-graph config this spec denotes.
    pub fn general_config(&self) -> GeneralCcConfig {
        let mut cfg = GeneralCcConfig::default()
            .with_seed(self.seed)
            .with_k(self.k)
            .with_backend(self.backend);
        cfg.machines = self.machines;
        cfg
    }

    /// Resolves the spec against `g`, once, into the value a run consumes:
    /// `Auto` and `Forest` prove `g` acyclic with [`Graph::as_forest`] (one
    /// union-find pass), and the proof rides in the result, so neither the
    /// Euler tour nor the serving layer's validation checks it again.
    /// `General` checks nothing.
    ///
    /// # Errors
    /// [`PipelineError::NotAForest`] if [`Algorithm::Forest`] was requested
    /// and `g` has a cycle.
    pub fn resolve<'a>(&'a self, g: &'a Graph) -> Result<Resolved<'a>, PipelineError> {
        let input = match self.algorithm {
            Algorithm::Auto => g.as_forest().map_or(Input::Graph(g), Input::Forest),
            Algorithm::Forest => Input::Forest(g.as_forest().ok_or(PipelineError::NotAForest)?),
            Algorithm::General => Input::Graph(g),
        };
        Ok(Resolved { spec: self, input })
    }

    /// Human-readable description of this spec run as `algorithm`, for run
    /// logs (algorithm number, theorem, parameters).
    pub fn describe(&self, algorithm: ResolvedAlgorithm) -> String {
        match algorithm {
            ResolvedAlgorithm::Forest => "1 (forest, Theorem 1.1)".to_string(),
            ResolvedAlgorithm::General => format!("2 (general, Theorem 1.2, k = {})", self.k),
        }
    }

    /// Resolves and executes in one call: the one entry point.
    ///
    /// # Errors
    /// [`PipelineError::NotAForest`] if [`Algorithm::Forest`] was requested
    /// and `g` has a cycle (checked by [`PipelineSpec::resolve`], before any
    /// round runs), or the run's [`AmpcError`].
    pub fn run(&self, g: &Graph) -> Result<PipelineRun, PipelineError> {
        self.resolve(g)?.run()
    }
}

/// A [`PipelineSpec`] resolved against one input by
/// [`PipelineSpec::resolve`]: the algorithm it runs and, for Algorithm 1,
/// the [`Forest`](ampc_graph::Forest) proof that the input is acyclic.
/// [`Resolved::run`] consumes it.
#[derive(Debug)]
pub struct Resolved<'a> {
    spec: &'a PipelineSpec,
    input: Input<'a>,
}

impl<'a> Resolved<'a> {
    /// The algorithm the run uses: Algorithm 1 exactly when the input was
    /// proven a forest.
    pub fn algorithm(&self) -> ResolvedAlgorithm {
        match self.input {
            Input::Forest(_) => ResolvedAlgorithm::Forest,
            Input::Graph(_) => ResolvedAlgorithm::General,
        }
    }

    /// The input, with its proof if it has one: what a labeling of it is
    /// validated against.
    pub fn input(&self) -> Input<'a> {
        self.input
    }

    /// Runs the resolved algorithm.
    ///
    /// # Errors
    /// The run's [`AmpcError`].
    pub fn run(self) -> Result<PipelineRun, PipelineError> {
        let algorithm = self.algorithm();
        let (labeling, stats) = match self.input {
            Input::Forest(forest) => {
                let r = connected_components_forest(forest, &self.spec.forest_config())?;
                (r.labeling, r.stats)
            }
            Input::Graph(g) => {
                let r = connected_components_general(g, &self.spec.general_config())?;
                (r.labeling, r.stats)
            }
        };
        Ok(PipelineRun { labeling, stats, algorithm })
    }
}

/// Why [`PipelineSpec::run`] returned no labeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// [`Algorithm::Forest`] was requested on an input with a cycle.
    /// Algorithm 1 reduces a forest to cycles through its Euler tour, which
    /// a cyclic input does not have, so the run is refused up front.
    NotAForest,
    /// A round breached an enforced space limit.
    Ampc(AmpcError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NotAForest => {
                write!(f, "the forest algorithm needs an acyclic input, but this graph has a cycle")
            }
            PipelineError::Ampc(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AmpcError> for PipelineError {
    fn from(e: AmpcError) -> Self {
        PipelineError::Ampc(e)
    }
}

/// Unified result of any pipeline run: the product every consumer of the
/// old per-algorithm result types actually used.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The computed CC-labeling of the input graph.
    pub labeling: Labeling,
    /// Aggregated AMPC cost accounting.
    pub stats: RunStats,
    /// Which algorithm produced it.
    pub algorithm: ResolvedAlgorithm,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
    use ampc_graph::reference_components;

    #[test]
    fn auto_resolves_by_input_shape() {
        let forest = random_forest(200, 4, 1);
        let cyclic = erdos_renyi_gnm(100, 300, 2);
        let spec = PipelineSpec::default();
        assert_eq!(spec.resolve(&forest).unwrap().algorithm(), ResolvedAlgorithm::Forest);
        assert_eq!(spec.resolve(&cyclic).unwrap().algorithm(), ResolvedAlgorithm::General);
        // Explicit selection overrides the shape (general runs on forests).
        let spec = spec.with_algorithm(Algorithm::General);
        assert_eq!(spec.resolve(&forest).unwrap().algorithm(), ResolvedAlgorithm::General);
    }

    #[test]
    fn auto_on_a_forest_carries_the_proof() {
        let forest = random_forest(300, 5, 3);
        for algorithm in [Algorithm::Auto, Algorithm::Forest] {
            let spec = PipelineSpec::default().with_algorithm(algorithm);
            let resolved = spec.resolve(&forest).unwrap();
            let Input::Forest(proof) = resolved.input() else {
                panic!("{algorithm:?} on a forest resolved without its proof");
            };
            assert!(std::ptr::eq(proof.graph(), &forest));
            assert_eq!(proof.components(), 5);
            let truth = reference_components(&forest).num_components();
            assert_eq!(resolved.input().components_checked(|_, _| true), Ok(truth));
            assert_eq!(resolved.run().unwrap().labeling.num_components(), 5);
        }
        // General proves nothing, even on a forest.
        let spec = PipelineSpec::default().with_algorithm(Algorithm::General);
        assert!(matches!(spec.resolve(&forest).unwrap().input(), Input::Graph(_)));
    }

    #[test]
    fn auto_on_a_cyclic_graph_resolves_to_the_general_path() {
        let cyclic = erdos_renyi_gnm(400, 1000, 6);
        let spec = PipelineSpec::default().with_seed(5);
        let resolved = spec.resolve(&cyclic).unwrap();
        assert!(matches!(resolved.input(), Input::Graph(g) if std::ptr::eq(g, &cyclic)));
        assert_eq!(resolved.algorithm(), ResolvedAlgorithm::General);
        let truth = reference_components(&cyclic);
        assert_eq!(resolved.input().components_checked(|_, _| true), Ok(truth.num_components()));
        let run = resolved.run().unwrap();
        assert_eq!(run.algorithm, ResolvedAlgorithm::General);
        assert!(run.labeling.same_partition(&truth));
    }

    #[test]
    fn explicit_forest_on_a_cyclic_graph_is_refused_at_resolution() {
        let cyclic = erdos_renyi_gnm(100, 300, 2);
        let spec = PipelineSpec::default().with_algorithm(Algorithm::Forest);
        assert_eq!(spec.resolve(&cyclic).unwrap_err(), PipelineError::NotAForest);
        assert_eq!(spec.run(&cyclic).unwrap_err(), PipelineError::NotAForest);
    }

    #[test]
    fn spec_run_matches_direct_config_run() {
        // The spec is sugar, not a different pipeline: its runs must be
        // byte-identical to direct calls with the equivalent configs.
        let forest = random_forest(800, 7, 3);
        let spec = PipelineSpec::default().with_seed(99).with_backend(DhtBackend::Flat);
        let via_spec = spec.run(&forest).unwrap();
        let direct =
            connected_components_forest(forest.as_forest().unwrap(), &spec.forest_config())
                .unwrap();
        assert_eq!(via_spec.labeling.0, direct.labeling.0);
        assert_eq!(via_spec.stats.rounds(), direct.stats.rounds());
        assert_eq!(via_spec.algorithm.number(), 1);

        let cyclic = erdos_renyi_gnm(300, 900, 4);
        let spec = PipelineSpec::default().with_seed(7).with_k(3);
        let via_spec = spec.run(&cyclic).unwrap();
        let direct = connected_components_general(&cyclic, &spec.general_config()).unwrap();
        assert_eq!(via_spec.labeling.0, direct.labeling.0);
        assert_eq!(via_spec.stats.total_queries(), direct.stats.total_queries());
        assert_eq!(via_spec.algorithm.number(), 2);
    }

    #[test]
    fn spec_runs_are_correct_and_deterministic() {
        let g = erdos_renyi_gnm(500, 1200, 5);
        let spec = PipelineSpec::default().with_seed(11).with_machines(4);
        let a = spec.run(&g).unwrap();
        let b = spec.run(&g).unwrap();
        assert!(a.labeling.same_partition(&reference_components(&g)));
        assert_eq!(a.labeling.0, b.labeling.0);
        assert_eq!(a.stats.rounds(), b.stats.rounds());
    }

    #[test]
    fn explicit_forest_refuses_a_cycle_before_any_round() {
        let triangle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let spec = PipelineSpec::default().with_algorithm(Algorithm::Forest);
        let err = spec.run(&triangle).unwrap_err();
        assert_eq!(err, PipelineError::NotAForest);
        assert!(err.to_string().contains("has a cycle"));
        // The same input runs under Auto and General, and a forest under Forest.
        for algorithm in [Algorithm::Auto, Algorithm::General] {
            let run = spec.clone().with_algorithm(algorithm).run(&triangle).unwrap();
            assert_eq!(run.algorithm, ResolvedAlgorithm::General);
            assert_eq!(run.labeling.num_components(), 1);
        }
        let forest = random_forest(60, 3, 2);
        assert_eq!(spec.run(&forest).unwrap().algorithm, ResolvedAlgorithm::Forest);
    }

    #[test]
    fn describe_names_the_algorithm() {
        let g = random_forest(50, 2, 1);
        let spec = PipelineSpec::default();
        let algorithm = spec.resolve(&g).unwrap().algorithm();
        assert!(spec.describe(algorithm).starts_with("1 (forest"));
        let spec = spec.with_algorithm(Algorithm::General).with_k(5);
        let algorithm = spec.resolve(&g).unwrap().algorithm();
        assert_eq!(spec.describe(algorithm), "2 (general, Theorem 1.2, k = 5)");
    }

    #[test]
    fn algorithm_parse_grammar() {
        assert_eq!(Algorithm::parse("auto").unwrap(), Algorithm::Auto);
        assert_eq!(Algorithm::parse("forest").unwrap(), Algorithm::Forest);
        assert_eq!(Algorithm::parse("general").unwrap(), Algorithm::General);
        assert!(Algorithm::parse("fastest").is_err());
        assert_eq!(Algorithm::Auto.name(), "auto");
        assert_eq!(ResolvedAlgorithm::Forest.name(), "forest");
        assert_eq!(ResolvedAlgorithm::General.number(), 2);
    }
}
