//! A round that breaches an enforced limit is still an executed round: the
//! obs registry must count it exactly as `RunStats` does, and the system
//! must come out of it with empty write buffers.
//!
//! The registry is process-wide, so this file holds a single test — nothing
//! else in the process runs rounds while the deltas are taken.

use ampc::{AmpcConfig, AmpcError, AmpcSystem, DhtBackend, DhtStorage, Key, LimitKind};
use ampc_obs::{CounterId, HistId, TraceKind};

#[test]
fn breached_round_is_recorded_on_every_meter_and_its_writes_are_dropped() {
    let ids: Vec<u64> = (0..64).collect();
    let config = AmpcConfig::default()
        .with_machines(4)
        .with_budget(8)
        .with_backend(DhtBackend::Dense { cap: 64 });
    let mut sys: AmpcSystem<u64> =
        AmpcSystem::new(config, ids.iter().map(|&i| (Key::new(0, i), i)));

    let rounds = ampc_obs::counter(CounterId::Rounds).get();
    let ops_applied = ampc_obs::counter(CounterId::OpsApplied).get();
    let walls = ampc_obs::hist(HistId::RoundWallNs).snapshot().count;
    let traced = ampc_obs::trace_recorded();

    // 16 one-word writes per machine against a budget of 8.
    let err = sys
        .round("flood", &ids, |ctx, &i| {
            ctx.write(Key::new(1, i), i);
            None::<()>
        })
        .unwrap_err();
    let AmpcError::LimitExceeded(v) = err else {
        panic!("expected a limit breach, got {err}");
    };
    // The error names the worst machine's real count, not the first word
    // past the budget.
    assert_eq!((v.kind, v.used, v.budget), (LimitKind::Writes, 16, 8));

    assert_eq!(sys.stats().executed_rounds(), 1);
    assert_eq!(ampc_obs::counter(CounterId::Rounds).get(), rounds + 1);
    assert_eq!(ampc_obs::hist(HistId::RoundWallNs).snapshot().count, walls + 1);
    assert_eq!(ampc_obs::trace_recorded(), traced + 1);
    assert_eq!(ampc_obs::trace_last(1)[0].kind, TraceKind::RoundCompleted);
    // Nothing was applied: not to the table, not to the applied-ops meter.
    assert_eq!(ampc_obs::counter(CounterId::OpsApplied).get(), ops_applied);
    assert_eq!(sys.snapshot().len(), 64);

    // The failed round's ops must not leak into the next one.
    sys.round("within-budget", &ids[..4], |ctx, &i| {
        ctx.write(Key::new(2, i), i);
        None::<()>
    })
    .unwrap();
    assert_eq!(sys.stats().executed_rounds(), 2);
    assert_eq!(ampc_obs::counter(CounterId::Rounds).get(), rounds + 2);
    assert_eq!(ampc_obs::counter(CounterId::OpsApplied).get(), ops_applied + 4);
    assert_eq!(sys.snapshot().len(), 68);
    assert!(sys.snapshot().get(Key::new(1, 0)).is_none(), "a dropped write reached the table");
}
