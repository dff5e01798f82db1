//! What an epoch holds: a frozen base index ([`BaseIndex`]: a pipeline run,
//! a snapshot boot or a fold), the published payload riding on it
//! ([`PublishedIndex`]) and the pinned reader view ([`IndexSnapshot`]).

use std::sync::{Arc, Weak};
use std::time::Instant;

use ampc::RunStats;
use ampc_cc::pipeline::{PipelineSpec, ResolvedAlgorithm};
use ampc_graph::{Graph, Labeling, VertexId};
use ampc_query::{ComponentIndex, JournalView, QueryEngine};

use super::error::ServeError;
#[cfg(doc)]
use super::ServiceHandle;

/// A frozen base: index, labeling, stats. A pipeline run, a snapshot boot
/// or a fold makes one. Base epochs own one of these; journal-epochs share
/// their base's via `Arc` — that sharing is what makes a journal publish
/// cheap.
#[derive(Debug)]
pub(super) struct BaseIndex {
    pub(super) index: ComponentIndex,
    pub(super) labeling: Labeling,
    pub(super) stats: RunStats,
    pub(super) algorithm: ResolvedAlgorithm,
    pub(super) graph_n: usize,
    pub(super) graph_m: usize,
    /// Wall time of the pipeline run (+ validation) that produced the
    /// labeling; 0 for a snapshot boot or a fold — no pipeline ran.
    pub(super) pipeline_ms: f64,
    /// Wall time of freezing the labeling into the index, or of the fold;
    /// 0 for a snapshot boot. Split out so boot-vs-build speedups have a
    /// clean denominator.
    pub(super) index_ms: f64,
}

impl BaseIndex {
    /// Runs the spec on `g` and freezes the result. Validation is part of
    /// the lifecycle: a labeling that does not validate against `g` is
    /// never published.
    pub(super) fn build(spec: &PipelineSpec, g: &Graph) -> Result<BaseIndex, ServeError> {
        let t0 = Instant::now();
        let run = spec.run(g)?;
        let pipeline_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let index =
            ComponentIndex::from_run(g, &run.labeling).map_err(ServeError::InvalidLabeling)?;
        let index_ms = t1.elapsed().as_secs_f64() * 1e3;
        Ok(BaseIndex {
            index,
            labeling: run.labeling,
            stats: run.stats,
            algorithm: run.algorithm,
            graph_n: g.n(),
            graph_m: g.m(),
            pipeline_ms,
            index_ms,
        })
    }

    /// The base a compaction publishes: `journal`'s merges folded into the
    /// index ([`ComponentIndex::fold`], `O(n)`, no edges) and
    /// `inserted_edges` more edges counted. No pipeline runs, so `stats` is
    /// empty and `pipeline_ms` 0, as for a snapshot boot; `index_ms` is the
    /// fold's wall time. The labeling is the merged dense ids, which is what
    /// persisting the journal-epoch writes too, so a persisted file does not
    /// depend on whether its epoch compacted first. Without a journal
    /// nothing merged: the index and labeling carry over.
    pub(super) fn fold(&self, journal: Option<&JournalView>, inserted_edges: usize) -> BaseIndex {
        let t0 = Instant::now();
        let (index, labeling) = match journal {
            Some(journal) => {
                let index = self.index.fold(journal);
                let n = index.num_vertices() as VertexId;
                let labeling = Labeling((0..n).map(|v| index.component_of(v) as u64).collect());
                (index, labeling)
            }
            None => (self.index.clone(), self.labeling.clone()),
        };
        BaseIndex {
            index,
            labeling,
            stats: RunStats::default(),
            algorithm: self.algorithm,
            graph_n: self.graph_n,
            graph_m: self.graph_m + inserted_edges,
            pipeline_ms: 0.0,
            index_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// One published epoch: a shared base index plus, for journal-epochs, the
/// frozen merge journal accumulated since that base. Everything here is
/// immutable at publish time; readers share it via `Arc`.
#[derive(Debug)]
pub struct PublishedIndex {
    pub(super) epoch: u64,
    pub(super) base: Arc<BaseIndex>,
    /// Shared, not owned: a batch that merges nothing publishes its epoch
    /// on the previous epoch's view.
    pub(super) journal: Option<Arc<JournalView>>,
    pub(super) inserted_edges: usize,
}

impl PublishedIndex {
    /// The epoch this index was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable base component index. Journal-epochs answer through
    /// [`PublishedIndex::journal`] on top of this — use
    /// [`IndexSnapshot::engine`] to get the merge-aware view.
    pub fn index(&self) -> &ComponentIndex {
        &self.base.index
    }

    /// The base's labeling (e.g. for `--labels` output): the pipeline
    /// run's labels, a booted snapshot's, or a folded base's merged dense
    /// ids. Journal merges are not reflected here.
    pub fn labeling(&self) -> &Labeling {
        &self.base.labeling
    }

    /// The label the base run gave `v`, or `None` when `v` is not a vertex
    /// of the base graph. Like [`PublishedIndex::labeling`] it ignores
    /// journal merges; unlike it, it promises no stored per-vertex array.
    ///
    /// ```
    /// use ampc_graph::Graph;
    /// use ampc_serve::ServiceBuilder;
    ///
    /// let service = ServiceBuilder::new(Graph::from_edges(4, &[(0, 1), (2, 3)])).build().unwrap();
    /// let snap = service.snapshot();
    /// assert_eq!(snap.label(0), snap.label(1));
    /// assert_ne!(snap.label(0), snap.label(2));
    /// assert_eq!(snap.label(4), None);
    /// ```
    pub fn label(&self, v: VertexId) -> Option<u64> {
        self.base.labeling.0.get(v as usize).copied()
    }

    /// The producing run's cost accounting; empty when the base was booted
    /// from a snapshot or folded, since no pipeline ran.
    pub fn stats(&self) -> &RunStats {
        &self.base.stats
    }

    /// Which algorithm produced this epoch's base index.
    pub fn algorithm(&self) -> ResolvedAlgorithm {
        self.base.algorithm
    }

    /// `(n, m)` of the graph this epoch answers for: the base graph plus
    /// any edges accepted by the journal (counted as inserted, before
    /// dedup against existing edges).
    pub fn graph_size(&self) -> (usize, usize) {
        (self.base.graph_n, self.base.graph_m + self.inserted_edges)
    }

    /// Wall-clock milliseconds the base epoch's pipeline run (plus
    /// validation) took; 0 when the base was booted from a snapshot or
    /// folded.
    pub fn pipeline_ms(&self) -> f64 {
        self.base.pipeline_ms
    }

    /// Wall-clock milliseconds freezing the base labeling into the index
    /// took, or for a folded base the fold; 0 when the base was booted
    /// from a snapshot.
    pub fn index_build_ms(&self) -> f64 {
        self.base.index_ms
    }

    /// The merge journal riding on the base index, if this is a
    /// journal-epoch.
    pub fn journal(&self) -> Option<&JournalView> {
        self.journal.as_deref()
    }

    /// True iff this epoch carries journal merges on top of its base.
    pub fn is_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// Number of connected components this epoch answers with (journal
    /// merges included).
    pub fn num_components(&self) -> usize {
        match &self.journal {
            Some(j) => j.num_components(),
            None => self.base.index.num_components(),
        }
    }
}

/// A pinned, immutable view of one published epoch. Cheap to clone (an
/// `Arc` bump); holding it keeps that epoch's index alive, dropping it
/// releases the pin. Obtainable only via [`ServiceHandle::snapshot`].
#[derive(Clone)]
pub struct IndexSnapshot {
    pub(super) pinned: Arc<PublishedIndex>,
}

impl IndexSnapshot {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch
    }

    /// A borrow-only query engine over this snapshot's index — merge-aware
    /// when the snapshot pinned a journal-epoch. Engines are `Copy`; make
    /// one per thread or per batch, they cost nothing.
    pub fn engine(&self) -> QueryEngine<'_> {
        match self.pinned.journal() {
            Some(j) => QueryEngine::with_journal(self.pinned.index(), j),
            None => QueryEngine::new(self.pinned.index()),
        }
    }

    /// Downgrades to a weak reference to the epoch payload — the hook the
    /// lifecycle tests use to observe that retired epochs are freed once
    /// every snapshot is dropped.
    pub fn downgrade(&self) -> Weak<PublishedIndex> {
        Arc::downgrade(&self.pinned)
    }
}

impl std::ops::Deref for IndexSnapshot {
    type Target = PublishedIndex;

    fn deref(&self) -> &PublishedIndex {
        &self.pinned
    }
}
