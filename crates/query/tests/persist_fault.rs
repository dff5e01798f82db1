//! A detected failure between the temp-file fsync and the rename leaves
//! the previous snapshot untouched.
//!
//! This is a test file of its own, with one `#[test]`, because the
//! failpoint registry (`ampc_obs::fault`) is process-global and the
//! snapshot unit tests persist concurrently in one process: arming
//! `persist.pre-rename` there would fail their writes too.

use ampc_graph::generators::random_forest;
use ampc_graph::reference_components;
use ampc_obs::fault::{self, FaultAction, Site};
use ampc_query::snapshot::{self, SnapshotError};
use ampc_query::ComponentIndex;

#[test]
fn injected_pre_rename_failure_is_io_and_leaves_the_old_file_intact() {
    let path =
        std::env::temp_dir().join(format!("ampc_query_persist_fault_{}.snap", std::process::id()));
    let persist = |trees: usize| {
        let labeling = reference_components(&random_forest(500, trees, 1));
        let index = ComponentIndex::build(&labeling);
        snapshot::persist(&path, &index, &index.class_labels(&labeling), 500, 491, 1)
    };
    persist(9).expect("first persist");
    let old = std::fs::read(&path).expect("read the first snapshot");

    fault::arm(Site::PersistPreRename, FaultAction::Error, 0, 1);
    let err = persist(17).expect_err("the armed site must fail the second persist");
    assert!(matches!(err, SnapshotError::Io(_)), "injected fault must surface as Io, got {err:?}");
    assert!(err.to_string().contains(Site::PersistPreRename.name()), "untyped failure: {err}");
    assert_eq!(fault::fired(Site::PersistPreRename), 1);
    assert!(std::fs::read(&path).expect("re-read") == old, "the old snapshot must be intact");

    // The site disarmed itself: the same persist now lands, and differs.
    persist(17).expect("persist after the one-shot fault");
    assert!(std::fs::read(&path).expect("read the second snapshot") != old);
    std::fs::remove_file(&path).ok();
}
