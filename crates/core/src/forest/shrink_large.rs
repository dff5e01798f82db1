//! `ShrinkLargeCycles` — capping the maximum cycle length (Lemma 3.2).
//!
//! The paper cites [BDE+21, Corollary 8.1]: a CC-shrinking algorithm that
//! reduces every cycle to length `O(n^ε)` w.h.p. in `O(1)` AMPC rounds and
//! optimal space. The cited construction is not restated in the paper, so
//! we implement a sampling-based equivalent with the same interface (see
//! DESIGN.md, substitutions):
//!
//! Repeat `O(1)` times (the repetition count depends only on `ε`), one
//! round per repetition:
//!  1. every alive vertex is marked independently with probability `ρ`. A
//!     mark is a public hash of `(seed, round, repetition, vertex)` that the
//!     walker evaluates where it needs it, so no round writes it and no
//!     read fetches it;
//!  2. every *marked* vertex walks forward to the next marked vertex
//!     (capped at the machine budget) and contracts the unmarked segment
//!     behind it.
//!
//! With `ρ = c·ln(n)/L` each inter-mark gap is `≤ L` w.h.p., so walks stay
//! within budget, and each repetition multiplies cycle lengths by `≈ ρ`.
//! After `r` repetitions lengths are `≈ n·ρ^r ≤ L` for a constant `r`.
//! Cycles that happen to receive no mark are untouched — they are already
//! shorter than `L` w.h.p. A walk that hits its cap abstains entirely, so
//! the pointer structure stays consistent even in the improbable tail.

use ampc::{AmpcResult, MachineCtx};

use crate::cycles::{absorb, close, join, link, CycleState, FWD};

/// Measurements of a `ShrinkLargeCycles` invocation.
#[derive(Debug, Clone)]
pub struct ShrinkLargeOutcome {
    /// Sampling probability used per repetition.
    pub rho: f64,
    /// Number of mark-and-jump repetitions executed.
    pub repetitions: usize,
    /// Vertices contracted away in total.
    pub contracted: usize,
    /// AMPC rounds consumed.
    pub rounds: usize,
    /// DHT queries issued.
    pub queries: usize,
}

/// Runs the length-capping procedure with target maximum cycle length
/// `target_len` and per-walk budget `walk_cap` (walks are capped at
/// `min(walk_cap, 4·target_len)`).
pub fn shrink_large_cycles(
    state: &mut CycleState,
    target_len: usize,
    walk_cap: usize,
) -> AmpcResult<ShrinkLargeOutcome> {
    let n0 = state.n0.max(2) as f64;
    let target = target_len.max(4);
    let rho = (4.0 * n0.ln() / target as f64).min(1.0);
    // Lengths shrink by ≈ρ per repetition; stop when n·ρ^r ≤ target.
    let repetitions = if rho >= 1.0 || state.n0 <= target {
        0 // every cycle is already within the target (or ρ degenerates)
    } else {
        let r = (n0.ln() - (target as f64).ln()) / -(rho.ln());
        (r.ceil() as usize + 1).min(12)
    };
    let cap = walk_cap.min(4 * target);

    let queries_before = state.sys.stats().total_queries();
    let rounds_before = state.sys.stats().rounds();
    let mut contracted = 0usize;

    for rep in 0..repetitions {
        // Marked vertices jump to the next mark, contracting the unmarked
        // segment in between. Every machine of the round evaluates the same
        // mark for a vertex, so an unmarked vertex reads nothing and a walk
        // stops at a mark without reading its pointer.
        let jump = state.sys.machine_round("slc-jump", &state.alive, |ctx, chunk, retired| {
            let marks = ctx.draws(rep as u64);
            jump_chunk(ctx, chunk, retired, |x| marks.at(x).bernoulli(rho), cap, target);
        })?;
        contracted += state.settle(&jump.results).0;
    }

    Ok(ShrinkLargeOutcome {
        rho,
        repetitions,
        contracted,
        rounds: state.sys.stats().rounds() - rounds_before,
        queries: state.sys.stats().total_queries() - queries_before,
    })
}

/// One machine's `slc-jump` over its `chunk`: each `marked` vertex walks
/// forward to the next mark and contracts the segment behind it, appending
/// what it retires to `retired`. One walk buffer serves the whole chunk.
fn jump_chunk(
    ctx: &mut MachineCtx<'_, u64>,
    chunk: &[u64],
    retired: &mut Vec<u64>,
    marked: impl Fn(u64) -> bool,
    cap: usize,
    target: usize,
) {
    let mut interior = Vec::new();
    'walks: for &v in chunk {
        if !marked(v) {
            continue;
        }
        interior.clear();
        let mut cur = link(ctx, FWD, v).0;
        while cur != v && !marked(cur) {
            interior.push(cur);
            if interior.len() >= cap {
                continue 'walks; // cap hit (w.h.p. never): abstain entirely
            }
            cur = link(ctx, FWD, cur).0;
        }
        // Back at v, the whole cycle was walked and v is its only mark;
        // if the cycle is already within the target, leave it alone —
        // the cited primitive only shrinks *long* cycles, and freezing
        // short ones preserves the `n' > n/log n` regime in which
        // Algorithm 1's main loop operates.
        let finished = cur == v;
        if interior.is_empty() || finished && interior.len() < target {
            continue;
        }
        // Rewire across the segment: `cur` is the next mark, or v itself
        // when the whole cycle folds into v.
        absorb(ctx, retired, v, &interior);
        if finished {
            close(ctx, retired, v);
        } else {
            join(ctx, v, cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use ampc::{AmpcConfig, DhtStorage as _, Key};

    use crate::cycles::{unpack, ROOT};

    /// Host-side audit: maximum alive cycle length, walked over the snapshot.
    /// Not an AMPC operation.
    fn max_cycle_length(state: &CycleState) -> usize {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut max_len = 0;
        for &v in &state.alive {
            if seen.contains(&v) {
                continue;
            }
            let mut len = 0;
            let mut cur = v;
            loop {
                seen.insert(cur);
                len += 1;
                let w = state.sys.snapshot().get(Key::new(FWD, cur)).expect("alive pointer");
                cur = unpack(*w).0;
                if cur == v {
                    break;
                }
            }
            max_len = max_len.max(len);
        }
        max_len
    }

    fn ring_state(n: usize, seed: u64) -> CycleState {
        let succ: Vec<u64> = (0..n as u64).map(|i| (i + 1) % n as u64).collect();
        CycleState::from_successors(&succ, AmpcConfig::default().with_machines(4).with_seed(seed))
    }

    #[test]
    fn long_cycle_gets_capped() {
        let n = 50_000;
        let mut st = ring_state(n, 1);
        let target = 256;
        let out = shrink_large_cycles(&mut st, target, 1 << 20).unwrap();
        assert!(out.contracted > 0);
        let max_len = max_cycle_length(&st);
        // W.h.p. within a small constant of the target.
        assert!(max_len <= 4 * target, "max cycle length {max_len} vs target {target}");
        assert!(st.alive.len() < n / 10, "only {} of {n} contracted", n - st.alive.len());
    }

    #[test]
    fn constant_rounds() {
        let mut st = ring_state(100_000, 2);
        let out = shrink_large_cycles(&mut st, 512, 1 << 20).unwrap();
        // O(1): one round per repetition, constant repetitions.
        assert!(out.rounds <= 12, "rounds {}", out.rounds);
        assert_eq!(out.rounds, out.repetitions);
    }

    #[test]
    fn an_unmarked_repetition_reads_nothing() {
        // An 8-ring among 100 000 singletons: ρ is set by n0, so it is tiny
        // (≈ 5·10⁻⁴) and at this seed no ring vertex is marked in either
        // repetition. A mark is evaluated, not read, so neither repetition
        // issues a query.
        let ring = 8u64;
        let succ: Vec<u64> =
            (0..ring).map(|i| (i + 1) % ring).chain(ring..100_000 + ring).collect();
        let config = AmpcConfig::default().with_machines(4).with_seed(6);
        let mut st = CycleState::from_successors(&succ, config);
        let out = shrink_large_cycles(&mut st, 90_000, 1 << 20).unwrap();
        assert_eq!((out.repetitions, out.rounds), (2, 2));
        assert_eq!((out.contracted, st.alive.len()), (0, ring as usize));
        assert_eq!(out.queries, 0);
    }

    #[test]
    fn parent_chains_stay_within_cycle() {
        // After shrinking, composing labels must keep the two cycles apart.
        let a = 3_000usize;
        let b = 2_000usize;
        let mut succ: Vec<u64> = (0..a as u64).map(|i| (i + 1) % a as u64).collect();
        succ.extend((0..b as u64).map(|i| a as u64 + (i + 1) % b as u64));
        let mut st =
            CycleState::from_successors(&succ, AmpcConfig::default().with_machines(4).with_seed(3));
        let out = shrink_large_cycles(&mut st, 64, 1 << 20).unwrap();
        let labels = st.compose_labels(out.repetitions + 4).unwrap();
        // Every original vertex's chain ends at an alive vertex of its own cycle.
        for (x, &l) in labels.iter().enumerate() {
            let root = l as usize;
            assert_eq!(root < a, x < a, "vertex {x} mapped across cycles to {root}");
        }
    }

    #[test]
    fn short_cycles_untouched_when_target_large() {
        let mut st = ring_state(64, 4);
        let out = shrink_large_cycles(&mut st, 4096, 1 << 20).unwrap();
        // Target beyond the cycle length → rho would exceed 1 → no-op.
        assert_eq!(out.repetitions, 0);
        assert_eq!(st.alive.len(), 64);
    }

    #[test]
    fn total_queries_linearish() {
        // Each repetition costs O(alive) queries: marked walks partition
        // the cycle, so walk lengths sum to ≈ alive.
        let n = 40_000;
        let mut st = ring_state(n, 5);
        let out = shrink_large_cycles(&mut st, 200, 1 << 20).unwrap();
        let per_rep = out.queries as f64 / out.repetitions.max(1) as f64;
        assert!(per_rep < 4.0 * n as f64, "queries per repetition {per_rep} not linear in n={n}");
    }

    /// `slc-jump` as the per-item round ran it: a fresh walk per marked
    /// vertex, each item's retired words returned on their own and
    /// concatenated in item order.
    fn jump_by_item(
        st: &mut CycleState,
        marked: impl Fn(u64) -> bool + Sync,
        cap: usize,
        target: usize,
    ) -> Vec<u64> {
        let out = st.sys.round("slc-jump", &st.alive, |ctx, &v| {
            if !marked(v) {
                return None;
            }
            let mut interior = Vec::new();
            let mut cur = link(ctx, FWD, v).0;
            while cur != v && !marked(cur) {
                interior.push(cur);
                if interior.len() >= cap {
                    return None;
                }
                cur = link(ctx, FWD, cur).0;
            }
            let finished = cur == v;
            if interior.is_empty() || finished && interior.len() < target {
                return None;
            }
            let mut retired = Vec::new();
            absorb(ctx, &mut retired, v, &interior);
            join(ctx, v, cur);
            if finished {
                retired.push(ROOT | v);
            }
            Some(retired)
        });
        out.unwrap().results.concat()
    }

    #[test]
    fn a_walk_after_an_abstaining_one_starts_from_a_clear_buffer() {
        // A 12-ring marked at 0 and 9, and a 5-ring marked at 12 only, with
        // a cap of 6: the walk from 0 abstains holding 1..=6, the one from 9
        // absorbs 10 and 11, and the one from 12 folds its ring.
        let mut succ: Vec<u64> = (0..12).map(|i| (i + 1) % 12).collect();
        succ.extend((0..5).map(|i| 12 + (i + 1) % 5));
        let marked = |x: u64| [0, 9, 12].contains(&x);
        let (cap, target) = (6, 4);
        for machines in [1, 3] {
            let config = AmpcConfig::default().with_machines(machines);
            let mut by_item = CycleState::from_successors(&succ, config.clone());
            let mut by_machine = CycleState::from_successors(&succ, config);
            let reference = jump_by_item(&mut by_item, marked, cap, target);
            let retired = by_machine
                .sys
                .machine_round("slc-jump", &by_machine.alive, |ctx, chunk, retired| {
                    jump_chunk(ctx, chunk, retired, marked, cap, target)
                })
                .unwrap()
                .results;
            assert_eq!(retired, [10, 11, 13, 14, 15, 16, ROOT | 12], "machines={machines}");
            assert_eq!(retired, reference, "machines={machines}");
            assert_eq!(by_item.settle(&reference), by_machine.settle(&retired));
            assert_eq!((&by_item.alive, &by_item.roots), (&by_machine.alive, &by_machine.roots));
            let (a, b) = (by_item.sys.snapshot(), by_machine.sys.snapshot());
            assert_eq!(a.sorted_entries(), b.sorted_entries(), "machines={machines}");
            assert_eq!(format!("{:?}", by_item.stats()), format!("{:?}", by_machine.stats()));
        }
    }
}
