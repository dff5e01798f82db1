//! Unified pipeline dispatch: one spec, one entry point, both algorithms.
//!
//! [`PipelineSpec`] is a single value (algorithm, backend, k, seed,
//! machines) that every consumer of the pipelines — the `ampc-cc` binary,
//! the serving layer, the ledger — hands to [`PipelineSpec::run`], which
//! returns the unified [`PipelineRun`].
//!
//! [`PipelineSpec::resolve`] picks the algorithm once (consulting the input
//! for [`Algorithm::Auto`]) and `run` matches on it; an explicit
//! [`Algorithm::Forest`] on an input with a cycle is refused as
//! [`PipelineError::NotAForest`] before any round runs. The backend is not
//! dispatched on here or anywhere else in this crate: it travels as a
//! [`DhtBackend`] value into every [`ampc::AmpcConfig`] the pipelines
//! build, and `ampc` turns it into a store (see [`ampc::Dht`]).

use std::fmt;

use ampc::{AmpcError, DhtBackend, RunStats};
use ampc_graph::{Graph, Labeling};

use crate::forest::pipeline::{connected_components_forest, ForestCcConfig};
use crate::general::algorithm2::{connected_components_general, GeneralCcConfig};

/// Which of the paper's algorithms a [`PipelineSpec`] requests.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Pick Algorithm 1 for forests, Algorithm 2 otherwise (the default).
    #[default]
    Auto,
    /// Algorithm 1 (Theorem 1.1) — requires an acyclic input; [`PipelineSpec::run`]
    /// refuses a cycle with [`PipelineError::NotAForest`].
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

    /// Resolves `Auto` against `g`. Resolution consults only
    /// `g.is_forest()`; it never runs anything.
    pub fn resolve(&self, g: &Graph) -> ResolvedAlgorithm {
        match self.algorithm {
            Algorithm::Forest => ResolvedAlgorithm::Forest,
            Algorithm::General => ResolvedAlgorithm::General,
            Algorithm::Auto if g.is_forest() => ResolvedAlgorithm::Forest,
            Algorithm::Auto => ResolvedAlgorithm::General,
        }
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
    /// and `g` has a cycle (checked before any round runs; `Auto` makes the
    /// same check once, in `resolve`), or the run's [`AmpcError`].
    pub fn run(&self, g: &Graph) -> Result<PipelineRun, PipelineError> {
        if self.algorithm == Algorithm::Forest && !g.is_forest() {
            return Err(PipelineError::NotAForest);
        }
        let algorithm = self.resolve(g);
        let (labeling, stats) = match algorithm {
            ResolvedAlgorithm::Forest => {
                let r = connected_components_forest(g, &self.forest_config())?;
                (r.labeling, r.stats)
            }
            ResolvedAlgorithm::General => {
                let r = connected_components_general(g, &self.general_config())?;
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
        assert_eq!(spec.resolve(&forest), ResolvedAlgorithm::Forest);
        assert_eq!(spec.resolve(&cyclic), ResolvedAlgorithm::General);
        // Explicit selection overrides the shape (general runs on forests).
        let spec = spec.with_algorithm(Algorithm::General);
        assert_eq!(spec.resolve(&forest), ResolvedAlgorithm::General);
    }

    #[test]
    fn spec_run_matches_direct_config_run() {
        // The spec is sugar, not a different pipeline: its runs must be
        // byte-identical to direct calls with the equivalent configs.
        let forest = random_forest(800, 7, 3);
        let spec = PipelineSpec::default().with_seed(99).with_backend(DhtBackend::Flat);
        let via_spec = spec.run(&forest).unwrap();
        let direct = connected_components_forest(&forest, &spec.forest_config()).unwrap();
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
        assert!(spec.describe(spec.resolve(&g)).starts_with("1 (forest"));
        let spec = spec.with_algorithm(Algorithm::General).with_k(5);
        assert_eq!(spec.describe(spec.resolve(&g)), "2 (general, Theorem 1.2, k = 5)");
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
