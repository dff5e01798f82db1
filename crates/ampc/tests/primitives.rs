//! Property tests for the `ampc` primitives: key ordering, rng stream
//! independence, and space-limit metering. Cases run over deterministic
//! seeded loops (see `rng` module docs), so failures reproduce exactly.

use ampc::rng::{self, SplitMix64};
use ampc::{
    AmpcConfig, AmpcError, AmpcSystem, DhtStorage as _, Key, LimitKind, LimitViolation, RunStats,
};

const CASES: u64 = 64;

// ---------------------------------------------------------------------------
// Key: ordering and packing.
// ---------------------------------------------------------------------------

/// `Key`'s derived `Ord` must match lexicographic `(space, id)` order —
/// algorithms rely on sorted key ranges grouping a keyspace contiguously.
#[test]
fn key_ordering_is_lexicographic_on_space_then_id() {
    let mut r = SplitMix64::new(0x5E7_0DD);
    for case in 0..CASES {
        let a = Key::new(r.next_below(8) as u16, r.next_below(1 << 20));
        let b = Key::new(r.next_below(8) as u16, r.next_below(1 << 20));
        let expected = (a.space, a.id).cmp(&(b.space, b.id));
        assert_eq!(a.cmp(&b), expected, "case {case}: {a:?} vs {b:?}");
    }
}

/// Sorting mixed-keyspace keys groups each keyspace contiguously.
#[test]
fn sorted_keys_group_by_space() {
    let mut r = SplitMix64::new(7);
    let mut keys: Vec<Key> =
        (0..200).map(|_| Key::new(r.next_below(5) as u16, r.next_below(1000))).collect();
    keys.sort();
    for w in keys.windows(2) {
        assert!(w[0].space <= w[1].space);
        if w[0].space == w[1].space {
            assert!(w[0].id <= w[1].id);
        }
    }
}

/// Equal keys must agree on hash-relevant identity: inserting the same
/// `(space, id)` twice into a system's DHT overwrites rather than duplicates.
#[test]
fn equal_keys_are_one_dht_entry() {
    let sys: AmpcSystem<u64> =
        AmpcSystem::new(AmpcConfig::default(), [(Key::new(3, 42), 1u64), (Key::new(3, 42), 2u64)]);
    assert_eq!(sys.snapshot().len(), 1);
    assert_eq!(sys.snapshot().get(Key::new(3, 42)), Some(&2));
}

// ---------------------------------------------------------------------------
// rng: stream independence.
// ---------------------------------------------------------------------------

/// Streams for distinct `(seed, round, tag, id)` contexts must decorrelate:
/// first draws collide no more often than chance (here: not at all across
/// a few thousand contexts).
#[test]
fn rng_streams_are_pairwise_distinct_across_contexts() {
    use std::collections::HashSet;
    let mut seen = HashSet::new();
    for round in 0..4u64 {
        for tag in 0..4u64 {
            for id in 0..256u64 {
                let x = rng::stream(99, round, tag, id).next_u64();
                assert!(seen.insert(x), "collision at round={round} tag={tag} id={id}");
            }
        }
    }
}

/// The per-item stream depends only on `(seed, round, tag, id)` — never on
/// which machine ran the item. Run the identical round under different
/// machine counts and require identical drawn values.
#[test]
fn rng_streams_independent_of_machine_assignment() {
    let draws = |machines: usize| -> Vec<u64> {
        let ids: Vec<u64> = (0..128).collect();
        let mut sys: AmpcSystem<u64> = AmpcSystem::new(
            AmpcConfig::default().with_machines(machines).with_seed(1234),
            ids.iter().map(|&i| (Key::new(0, i), i)),
        );
        // Each machine takes the tag's family once for its whole chunk.
        let round = sys.machine_round("draw", &ids, |ctx, chunk, out| {
            let family = ctx.draws(7);
            out.extend(chunk.iter().map(|&i| family.at(i).next_u64()))
        });
        round.unwrap().results
    };
    let one = draws(1);
    assert!(one.iter().zip(0..).all(|(&x, i)| x == rng::stream(1234, 0, 7, i).next_u64()));
    assert_eq!(one, draws(2));
    assert_eq!(one, draws(31));
    assert_eq!(one, draws(128));
}

/// Changing the run seed must change (essentially all of) the streams.
#[test]
fn rng_streams_depend_on_run_seed() {
    let differing = (0..CASES)
        .filter(|&i| rng::stream(1, 0, 0, i).next_u64() != rng::stream(2, 0, 0, i).next_u64())
        .count() as u64;
    assert_eq!(differing, CASES);
}

// ---------------------------------------------------------------------------
// Local-space budgets: read off the meters, audited or enforced.
// ---------------------------------------------------------------------------

/// One machine reads two words for each of 16 items: 32 read words.
fn overdraw_reads(budget: Option<usize>) -> Result<RunStats, AmpcError> {
    let ids: Vec<u64> = (0..16).collect();
    let config = AmpcConfig { budget, ..AmpcConfig::default().with_machines(1) };
    let mut sys: AmpcSystem<u64> =
        AmpcSystem::new(config, ids.iter().map(|&i| (Key::new(0, i), i)));
    sys.round("overdraw", &ids, |ctx, &i| {
        for _ in 0..2 {
            ctx.read(Key::new(0, i));
        }
        None::<()>
    })?;
    Ok(sys.stats().clone())
}

/// Exceeding an enforced read budget must surface the metered error — with
/// the true usage and budget — not silently pass.
#[test]
fn enforced_read_budget_violation_is_metered() {
    let err = overdraw_reads(Some(10)).unwrap_err();
    let AmpcError::LimitExceeded(LimitViolation { used, budget, round, kind, .. }) = err else {
        panic!("expected a limit breach, got {err}");
    };
    assert_eq!((used, budget, round, kind), (32, 10, 0, LimitKind::Reads));
}

/// The same overdraw with no budget attached must succeed, and the audit
/// afterwards must report it, with the same usage.
#[test]
fn audited_read_budget_violation_is_recorded() {
    let over = overdraw_reads(None).unwrap().over_budget(10);
    let sides = over.iter().map(|v| (v.kind, v.used, v.budget)).collect::<Vec<_>>();
    assert_eq!(sides, [(LimitKind::Reads, 32, 10)]);
}

/// A run that stays within budget must neither error nor record anything.
#[test]
fn within_budget_run_is_clean() {
    let stats = overdraw_reads(Some(1000)).unwrap();
    assert!(stats.over_budget(1000).is_empty());
}

/// Write-side budgets are enforced symmetrically.
#[test]
fn enforced_write_budget_violation_is_metered() {
    let ids: Vec<u64> = (0..16).collect();
    let mut sys: AmpcSystem<u64> =
        AmpcSystem::new(AmpcConfig::default().with_machines(1).with_budget(8), std::iter::empty());
    let err = sys
        .round("flood", &ids, |ctx, &i| {
            ctx.write(Key::new(1, i), i);
            None::<()>
        })
        .unwrap_err();
    let AmpcError::LimitExceeded(v) = err else {
        panic!("expected a limit breach, got {err}");
    };
    assert_eq!((v.kind, v.used, v.budget), (LimitKind::Writes, 16, 8));
}

/// Violations carry the failing round's name so audits are attributable.
#[test]
fn violation_names_the_round() {
    let ids: Vec<u64> = (0..32).collect();
    let mut sys: AmpcSystem<u64> = AmpcSystem::new(
        AmpcConfig::default().with_machines(2),
        ids.iter().map(|&i| (Key::new(0, i), i)),
    );
    sys.round("hungry-round", &ids, |ctx, &i| {
        ctx.read(Key::new(0, i));
        None::<()>
    })
    .unwrap();
    let over = sys.stats().over_budget(4);
    let v = over.first().expect("violation recorded");
    assert_eq!((v.round_name, v.used), ("hungry-round", 16));
}

/// Per-machine accounting: splitting the same total work across more
/// machines reduces each machine's usage below the budget.
#[test]
fn budgets_are_per_machine_not_global() {
    let run = |machines: usize| -> usize {
        let ids: Vec<u64> = (0..64).collect();
        let mut sys: AmpcSystem<u64> = AmpcSystem::new(
            AmpcConfig::default().with_machines(machines),
            ids.iter().map(|&i| (Key::new(0, i), i)),
        );
        sys.round("spread", &ids, |ctx, &i| {
            ctx.read(Key::new(0, i));
            None::<()>
        })
        .unwrap();
        sys.stats().over_budget(16).len()
    };
    assert!(run(1) > 0, "one machine must blow a 16-word budget on 64 reads");
    assert_eq!(run(8), 0, "eight machines stay within per-machine budget");
}
