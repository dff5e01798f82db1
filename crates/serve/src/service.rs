//! `ConnectivityService` — the run→validate→index→serve lifecycle as a
//! first-class API, with an incremental delta path. One concept per
//! module: [`error`] (the typed failures), [`health`] (the degradation
//! state machine), [`published`] (what an epoch holds), [`builder`] (the
//! three epoch-0 paths) and [`handle`] (snapshot / insert and its
//! compaction / explicit rebuild / persist / health probe).
//!
//! [`ServiceBuilder`] runs a [`PipelineSpec`] over a graph, validates the
//! labeling against the graph (the same check the CLI always performed),
//! freezes it into a `ComponentIndex`, and publishes it as epoch 0: one
//! [`PublishedIndex`] behind a read lock. The resulting [`ServiceHandle`] is
//! clone-able and thread-safe: any number of reader threads call
//! [`ServiceHandle::snapshot`] — a pin of the current epoch — and answer queries
//! against their pinned epoch, while [`ServiceHandle::rebuild_blocking`] runs
//! the pipeline on its caller's thread and publishes the new index
//! atomically. Readers holding old snapshots are never blocked and never
//! observe a half-built index; a retired epoch's memory is reclaimed once
//! the last snapshot pinning it is dropped.
//!
//! Per-epoch determinism: a published base index is a pure function of the
//! (spec, graph) pair — the pipelines are seed-deterministic and the index
//! remaps labels by partition — and a journal-epoch or a folded base is a
//! pure function of (base, inserted edges), so every snapshot of one epoch
//! answers byte-identically on every thread, machine, and backend.

mod builder;
mod error;
mod handle;
mod health;
mod published;

pub use builder::{BootSource, ServiceBuilder};
pub use error::ServeError;
pub use handle::{InsertReport, JournalBudget, PersistReport, ServiceHandle};
pub use health::{
    HealthReport, HealthState, Incident, IncidentOp, MAX_CONSECUTIVE_FAILURES, MAX_INCIDENTS,
};
pub use published::PublishedIndex;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use ampc::DhtBackend;
    use ampc_cc::pipeline::{Algorithm, PipelineError, PipelineSpec};
    use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
    use ampc_graph::{reference_components, Graph, VertexId};
    use ampc_query::{ComponentIndex, Query};

    fn spec() -> PipelineSpec {
        PipelineSpec::default().with_seed(42).with_machines(4)
    }

    #[test]
    fn build_serves_a_validated_epoch_zero() {
        let g = random_forest(2000, 13, 7);
        let truth = reference_components(&g);
        let service = ServiceBuilder::new(g).spec(spec()).build().expect("build");
        let snap = service.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.algorithm().number(), 1);
        assert_eq!(snap.graph_size().0, 2000);
        assert_eq!(snap.index().num_components(), 13);
        assert!(!snap.is_journal());
        // Byte-identical to the reference-built index (partition purity).
        assert_eq!(*snap.index(), ComponentIndex::build(&truth));
        assert!(snap.labeling().same_partition(&truth));
        assert!(snap.stats().rounds() > 0);
    }

    #[test]
    fn rebuild_publishes_new_epochs_while_old_snapshots_answer() {
        let g0 = random_forest(500, 5, 1);
        let g1 = random_forest(800, 9, 2);
        let service = ServiceBuilder::new(g0).spec(spec()).build().unwrap();
        let old = service.snapshot();
        assert_eq!(old.index().num_components(), 5);

        let epoch = service.rebuild_blocking(g1).expect("rebuild");
        assert_eq!(epoch, 1);
        assert_eq!(service.current_epoch(), 1);
        // The old snapshot still answers against its pinned epoch…
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.index().num_components(), 5);
        // …and new snapshots see the new graph.
        let new = service.snapshot();
        assert_eq!(new.epoch(), 1);
        assert_eq!(new.index().num_components(), 9);
        assert_eq!(new.graph_size().0, 800);
    }

    #[test]
    fn an_explicit_forest_spec_refuses_a_cycle_with_a_typed_error() {
        let triangle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let forest_spec = spec().with_algorithm(Algorithm::Forest);
        let refused = ServeError::Pipeline(PipelineError::NotAForest);
        let err = ServiceBuilder::new(triangle.clone()).spec(forest_spec.clone()).build();
        assert_eq!(err.err(), Some(refused.clone()));

        // A rebuild onto the cycle is the same refusal, recorded as a
        // Rebuild incident (not a caught panic); the forest keeps serving.
        let service =
            ServiceBuilder::new(random_forest(30, 3, 1)).spec(forest_spec).build().unwrap();
        assert_eq!(service.rebuild_blocking(triangle), Err(refused.clone()));
        assert_eq!(service.current_epoch(), 0);
        let health = service.health();
        assert_eq!(health.state, HealthState::Degraded);
        assert_eq!(health.incidents.len(), 1);
        assert_eq!(health.incidents[0].op, IncidentOp::Rebuild);
        assert_eq!(health.incidents[0].error, refused);
    }

    #[test]
    fn clones_share_the_published_epoch() {
        let service = ServiceBuilder::new(random_forest(300, 3, 4)).spec(spec()).build().unwrap();
        let clone = service.clone();
        clone.rebuild_blocking(random_forest(300, 7, 5)).unwrap();
        assert_eq!(service.current_epoch(), 1);
        assert_eq!(service.snapshot().index().num_components(), 7);
    }

    #[test]
    fn retired_epochs_are_freed_once_unpinned() {
        let service = ServiceBuilder::new(random_forest(200, 2, 6)).spec(spec()).build().unwrap();
        let snap0 = service.snapshot();
        let weak0 = Arc::downgrade(&snap0);
        service.rebuild_blocking(random_forest(200, 4, 7)).unwrap();
        service.rebuild_blocking(random_forest(200, 6, 8)).unwrap();
        assert!(weak0.upgrade().is_some(), "pinned epoch 0 must stay alive");
        drop(snap0);
        assert!(weak0.upgrade().is_none(), "unpinned retired epoch must be freed");
        // The current epoch lives as long as its last handle or snapshot.
        let snap2 = service.snapshot();
        let weak2 = Arc::downgrade(&snap2);
        drop(service);
        assert!(weak2.upgrade().is_some(), "a snapshot pins the current epoch");
        drop(snap2);
        assert!(weak2.upgrade().is_none(), "the last handle and snapshot free the current epoch");
    }

    #[test]
    fn spec_is_honored_by_rebuilds() {
        let spec = PipelineSpec::default()
            .with_seed(9)
            .with_algorithm(Algorithm::General)
            .with_backend(DhtBackend::Flat)
            .with_k(3);
        let service =
            ServiceBuilder::new(erdos_renyi_gnm(400, 900, 3)).spec(spec.clone()).build().unwrap();
        assert_eq!(service.spec(), &spec);
        assert_eq!(service.snapshot().algorithm().number(), 2);
        service.rebuild_blocking(erdos_renyi_gnm(500, 1200, 4)).unwrap();
        let snap = service.snapshot();
        assert_eq!(snap.algorithm().number(), 2);
        let truth = reference_components(&erdos_renyi_gnm(500, 1200, 4));
        assert_eq!(*snap.index(), ComponentIndex::build(&truth));
    }

    #[test]
    fn snapshots_of_one_epoch_answer_identically() {
        let g = random_forest(1000, 11, 10);
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();
        let a = service.snapshot();
        let b = service.snapshot();
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.index(), b.index());
        for v in 0..1000u32 {
            assert_eq!(
                a.engine().answer(Query::ComponentOf(v)),
                b.engine().answer(Query::ComponentOf(v))
            );
        }
    }

    #[test]
    fn insert_edges_publishes_journal_epochs_matching_a_fresh_oracle() {
        // A forest of 8 trees; stitch trees together batch by batch and
        // check the journal answers equal a from-scratch union-find build
        // of the accumulated graph after every batch.
        let g = random_forest(600, 8, 11);
        let mut all_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();

        let batches: Vec<Vec<(VertexId, VertexId)>> =
            vec![vec![(0, 599), (5, 5)], vec![(10, 590), (0, 5)], vec![(300, 301)]];
        for (i, batch) in batches.iter().enumerate() {
            let report = service.insert_edges(batch).expect("insert");
            assert_eq!(report.epoch, i as u64 + 1);
            assert_eq!(report.applied, batch.len());
            all_edges.extend_from_slice(batch);
            let oracle =
                ComponentIndex::build(&reference_components(&Graph::from_edges(600, &all_edges)));
            let snap = service.snapshot();
            assert_eq!(snap.epoch(), report.epoch);
            assert_eq!(snap.num_components(), oracle.num_components());
            assert_eq!(report.components, oracle.num_components());
            let eng = snap.engine();
            for v in 0..600u32 {
                assert_eq!(
                    eng.answer(Query::ComponentOf(v)),
                    oracle.component_of(v) as u64,
                    "vertex {v} after batch {i}"
                );
                assert_eq!(eng.answer(Query::ComponentSize(v)), oracle.component_size(v) as u64);
            }
            for k in 1..=9u32 {
                assert_eq!(
                    eng.answer(Query::TopKSize(k)),
                    oracle.kth_largest_size(k as usize) as u64
                );
            }
        }
    }

    #[test]
    fn insert_batches_are_atomic_on_out_of_range_vertices() {
        let service = ServiceBuilder::new(random_forest(100, 4, 12)).spec(spec()).build().unwrap();
        let before = service.current_epoch();
        let err = service.insert_edges(&[(0, 50), (3, 100)]).unwrap_err();
        assert_eq!(err, ServeError::VertexOutOfRange { vertex: 100, n: 100 });
        // Nothing applied, nothing published — including the valid edge.
        assert_eq!(service.current_epoch(), before);
        let report = service.insert_edges(&[(0, 50)]).expect("valid batch");
        assert_eq!(report.epoch, before + 1);
        // The service still answers after the rejected batch.
        assert!(service.snapshot().engine().try_answer(Query::Connected(0, 50)).is_some());
    }

    #[test]
    fn duplicate_and_intra_component_edges_publish_identity_epochs() {
        let g = random_forest(200, 2, 13);
        let idx = ComponentIndex::build(&reference_components(&g));
        let comp0: Vec<VertexId> = (0..200u32).filter(|&v| idx.component_of(v) == 0).collect();
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();
        // An edge inside one existing component merges nothing.
        let report = service.insert_edges(&[(comp0[0], comp0[1])]).unwrap();
        assert_eq!(report.new_merges, 0);
        assert_eq!(report.journal_merges, 0);
        let snap = service.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert!(!snap.is_journal(), "no merges ⇒ no journal, just a fresh epoch on the base");
        assert_eq!(snap.num_components(), 2);
    }

    #[test]
    fn a_batch_that_merges_nothing_shares_the_previous_view() {
        let g = random_forest(300, 6, 21);
        let idx = ComponentIndex::build(&reference_components(&g));
        let first_of = |c| (0..300u32).find(|&v| idx.component_of(v) == c).unwrap();
        let bridge = (first_of(1), first_of(4));
        let service = ServiceBuilder::new(g).spec(spec()).build().unwrap();
        let merged = service.insert_edges(&[bridge, (first_of(2), first_of(3))]).unwrap();
        assert_eq!((merged.new_merges, merged.journal_merges, merged.components), (2, 2, 4));
        let before = service.snapshot();
        let answers = |snap: &PublishedIndex| -> Vec<u64> {
            let eng = snap.engine();
            let per_vertex =
                (0..300u32).flat_map(|v| [Query::ComponentOf(v), Query::ComponentSize(v)]);
            per_vertex.chain((0..6).map(Query::TopKSize)).map(|q| eng.answer(q)).collect()
        };

        // Empty, a repeat of an earlier edge, a self-loop, an edge inside a
        // merged class: each publishes its epoch on the same view.
        let idle: [&[(VertexId, VertexId)]; 3] =
            [&[], &[bridge, (7, 7)], &[(first_of(4), first_of(1)), bridge]];
        let mut journal_edges = merged.journal_edges;
        for (i, batch) in idle.into_iter().enumerate() {
            let report = service.insert_edges(batch).expect("insert");
            journal_edges += batch.len();
            assert_eq!(report.epoch, merged.epoch + 1 + i as u64);
            assert_eq!(report.journal_edges, journal_edges);
            assert_eq!((report.new_merges, report.journal_merges, report.components), (0, 2, 4));
            let snap = service.snapshot();
            assert_eq!(snap.epoch(), report.epoch);
            assert_eq!(snap.graph_size().1 - before.graph_size().1, journal_edges - 2);
            let (old, new) = (before.journal.as_ref().unwrap(), snap.journal.as_ref().unwrap());
            assert!(Arc::ptr_eq(old, new), "batch {i} copied or rebuilt the view");
            assert_eq!(answers(&snap), answers(&before));
        }

        // The next merging batch derives a new view and leaves the shared
        // one as the pinned readers saw it.
        let frozen = answers(&before);
        let report = service.insert_edges(&[(first_of(0), first_of(5))]).unwrap();
        assert_eq!((report.new_merges, report.journal_merges, report.components), (1, 3, 3));
        assert!(!Arc::ptr_eq(
            before.journal.as_ref().unwrap(),
            service.snapshot().journal.as_ref().unwrap()
        ));
        assert_eq!(answers(&before), frozen);
    }

    #[test]
    fn rebuild_resets_the_journal_lineage() {
        let service = ServiceBuilder::new(random_forest(300, 6, 14)).spec(spec()).build().unwrap();
        service.insert_edges(&[(0, 299)]).unwrap();
        assert!(service.snapshot().is_journal() || service.snapshot().num_components() == 5);
        let g2 = random_forest(150, 3, 15);
        let truth2 = reference_components(&g2);
        service.rebuild_blocking(g2).unwrap();
        let snap = service.snapshot();
        assert!(!snap.is_journal(), "a full rebuild starts a clean lineage");
        assert_eq!(*snap.index(), ComponentIndex::build(&truth2));
        // Inserts after the rebuild validate against the *new* graph.
        let err = service.insert_edges(&[(0, 200)]).unwrap_err();
        assert_eq!(err, ServeError::VertexOutOfRange { vertex: 200, n: 150 });
    }

    #[test]
    fn an_over_budget_insert_publishes_its_folded_base() {
        let g = random_forest(400, 10, 16);
        let mut all_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let service = ServiceBuilder::new(g)
            .spec(spec())
            .journal_budget(JournalBudget::new(2))
            .build()
            .unwrap();
        let batch = [(0u32, 399u32), (1, 398), (2, 397)];
        all_edges.extend_from_slice(&batch);
        let report = service.insert_edges(&batch).unwrap();
        assert!(report.compacted, "3 edges > budget of 2 must compact");
        assert_eq!((report.journal_edges, report.journal_merges), (0, 0));
        // The batch's own epoch is the folded base: nothing publishes later.
        let snap = service.snapshot();
        assert_eq!(snap.epoch(), report.epoch);
        assert!(!snap.is_journal());
        let oracle =
            ComponentIndex::build(&reference_components(&Graph::from_edges(400, &all_edges)));
        assert_eq!(*snap.index(), oracle, "folded base must equal the fresh oracle");
        assert_eq!(snap.graph_size(), (400, all_edges.len()));
        // A folded base ran no pipeline; its labels are its dense ids.
        assert_eq!(snap.stats().rounds(), 0);
        assert_eq!(snap.pipeline_ms(), 0.0);
        assert_eq!(snap.label(399), Some(oracle.component_of(399) as u64));
        // The journal lineage restarted: new inserts build on the new base.
        let r2 = service.insert_edges(&[(3, 396)]).unwrap();
        assert_eq!(r2.journal_edges, 1);
        assert!(!r2.compacted);
        assert_eq!(service.current_epoch(), report.epoch + 1);
    }

    #[test]
    fn a_base_holds_one_label_per_component_until_asked_for_its_labeling() {
        // Bytes a base keeps resident: `comp_of` and the class table (4n + 8c),
        // the class labels (8c), and the per-vertex labeling once filled (8n).
        let resident = |snap: &PublishedIndex| {
            let base = &snap.base;
            base.index.heap_bytes()
                + 8 * base.class_label.len()
                + base.labeling.get().map_or(0, |l| 8 * l.len())
        };
        let check = |snap: &PublishedIndex, what: &str| {
            let (n, c) = (snap.index().num_vertices(), snap.index().num_components());
            assert_eq!(snap.base.class_label.len(), c, "{what}: one label per component");
            let labels: Vec<_> = (0..n as VertexId).map(|v| snap.label(v).unwrap()).collect();
            assert!(snap.base.labeling.get().is_none(), "{what}: label(v) filled the labeling");
            assert_eq!(resident(snap), 4 * n + 16 * c, "{what}: 4 B a vertex");
            assert_eq!(snap.labeling().0, labels, "{what}: label(v) and labeling() disagree");
            assert_eq!(resident(snap), 12 * n + 16 * c, "{what}: 12 B a vertex once asked");
            assert_eq!(ComponentIndex::build(snap.labeling()), *snap.index(), "{what}");
        };

        let g = random_forest(600, 9, 23);
        let run = spec().run(&g).unwrap();
        let built = ServiceBuilder::new(g).spec(spec()).build().unwrap();
        check(&built.snapshot(), "build");
        assert_eq!(*built.snapshot().labeling(), run.labeling, "a build keeps the run's labels");

        let path = std::env::temp_dir()
            .join(format!("ampc_serve_class_labels_{}.snap", std::process::id()));
        built.persist(&path).unwrap();
        let booted = ServiceBuilder::from_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        check(&booted.snapshot(), "boot");
        assert_eq!(booted.snapshot().labeling(), built.snapshot().labeling());

        booted.insert_edges(&[(0, 599), (1, 598)]).unwrap();
        let journal = booted.snapshot();
        assert!(journal.is_journal());
        let folded = journal.base.fold(journal.journal(), journal.inserted_edges);
        let c = folded.index.num_components() as u64;
        assert_eq!(folded.class_label, (0..c).collect::<Vec<_>>(), "a fold's labels are its ids");
        let unfolded = journal.base.fold(None, 0);
        assert_eq!(unfolded.class_label, journal.base.class_label, "nothing merged, nothing moves");
        for base in [folded, unfolded] {
            let snap =
                PublishedIndex { epoch: 0, base: Arc::new(base), journal: None, inserted_edges: 0 };
            check(&snap, "fold");
        }
    }

    // Failpoint-driven state-machine coverage lives in tests/chaos.rs —
    // the fault registry is process-global and lib tests run in parallel,
    // so only failpoint-free behavior is exercised here.

    #[test]
    fn service_starts_healthy_with_an_empty_incident_log() {
        let service = ServiceBuilder::new(random_forest(100, 2, 20)).spec(spec()).build().unwrap();
        let health = service.health();
        assert_eq!(health.state, HealthState::Healthy);
        assert_eq!(health.consecutive_failures, 0);
        assert_eq!(health.total_incidents, 0);
        assert!(health.incidents.is_empty());
    }

    #[test]
    fn boot_fallback_builds_and_records_the_snapshot_failure() {
        let path = std::env::temp_dir()
            .join(format!("ampc_serve_no_such_snapshot_{}.snap", std::process::id()));
        // Four bad snapshots: a missing file; 1 TiB of zeros, which a
        // loader that allocates the file's length before reading its magic
        // turns into an abort instead of a fallback; and signed files of
        // the retired format versions 1 and 2.
        for bad in ["missing", "sparse", "version 1", "version 2"] {
            let g = random_forest(400, 7, 21);
            let truth = reference_components(&g);
            if bad == "sparse" {
                if let Err(e) = std::fs::File::create(&path).and_then(|f| f.set_len(1 << 40)) {
                    eprintln!("SKIPPED the sparse-file fallback: set_len(1 << 40) refused: {e}");
                    continue;
                }
            }
            if let Some(version) = bad.strip_prefix("version ") {
                use ampc_query::snapshot::{self, HEADER_CHECKSUM_OFFSET, HEADER_LEN};
                let (n, m) = (g.n() as u64, g.m() as u64);
                let mut old = snapshot::encode(&ComponentIndex::build(&truth), &truth, n, m, 1);
                old[8..12].copy_from_slice(&version.parse::<u32>().unwrap().to_le_bytes());
                let h = snapshot::checksum(&old[..HEADER_CHECKSUM_OFFSET]);
                old[HEADER_CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
                std::fs::write(&path, old).unwrap();
            }
            let (service, source) = ServiceBuilder::new(g)
                .spec(spec())
                .from_snapshot_or_rebuild(&path)
                .expect("fallback");
            assert_eq!(source, BootSource::RebuildFallback);
            assert_eq!(*service.snapshot().index(), ComponentIndex::build(&truth));
            let health = service.health();
            // The failure is observable but the fallback service is healthy.
            assert_eq!(health.state, HealthState::Healthy);
            assert_eq!(health.total_incidents, 1);
            assert_eq!(health.incidents[0].op, IncidentOp::Boot);
            assert!(matches!(health.incidents[0].error, ServeError::SnapshotBoot(_)), "{bad}");
            if let (Some(version), ServeError::SnapshotBoot(msg)) =
                (bad.strip_prefix("version "), &health.incidents[0].error)
            {
                assert!(msg.contains(&format!("format version {version} ")), "{msg}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
