//! `ShrinkSmallCycles(G, B)` — Figure 1 of the paper.
//!
//! One *iteration* runs four AMPC rounds over the alive cycle vertices:
//!
//! 1. **ranks** — every vertex samples a rank from the truncated geometric
//!    distribution `π_B` and publishes it (packed into its pointer words);
//!    rank stamps are reset.
//! 2. **probe** (Step 1, traversal) — every vertex traverses the cycle in
//!    both directions until it meets a vertex of equal-or-higher rank,
//!    *stamping* every vertex it encounters with its own rank (merge-max
//!    writes). A vertex that loops back to itself is the unique maximum of
//!    its cycle and contracts the whole cycle immediately.
//! 3. **contract** (Step 1, contraction) — each vertex compares its rank
//!    with the maximum stamp it received; the highest-rank vertices are the
//!    cycle's *leaders* (Claim 3.9 shows everyone is stamped with the cycle
//!    maximum). For each pair of adjacent leaders, the one with the higher
//!    id contracts the strictly-lower-rank segment between them and
//!    re-links the cycle across it.
//! 4. **step2** (Step 2, deterministic) — every surviving vertex explores
//!    its `16B`-hop neighborhood. If the neighborhood contains the whole
//!    cycle and the vertex has the highest id, it contracts the whole
//!    cycle; otherwise, if it has the highest id in the neighborhood, it
//!    contracts its `4B`-hop neighborhood (`8B` vertices — Lemma 3.8's
//!    guaranteed removal of `min{8B, k}` vertices, which defeats the
//!    additive `2^B` term of Lemma 3.10 on short cycles).
//!
//! ### Write-conflict freedom
//!
//! Pointer rewrites are assigned so every DHT key has at most one writer
//! per round. Every rewrite is an `absorb` (see `cycles`) of vertices the
//! writing survivor walked itself, or a `join` of the two ends of what it
//! absorbed. In round 2 the survivor is its cycle's unique maximum, the only
//! vertex that loops. In round 3 each segment between adjacent leaders has
//! one owner, the higher-id end, and its `join` writes only the segment's
//! facing pointers (`FWD` of the tail, `BWD` of the head), so a capped or
//! abstaining neighbour never leaves the cycle half-relinked. In round 4
//! compressors are pairwise `> 16B` apart (each is the id-maximum of its
//! `16B`-hop neighborhood) while each absorbs and joins only within `4B + 1`
//! hops, so their writes cannot touch the same vertex. Stamps use merge-max
//! writes, which commute.

use ampc::{AmpcResult, Key, MachineCtx};

use crate::cycles::{absorb, close, join, link, pack, CycleState, BWD, FWD, STAMP};
use crate::forest::ranks::sample_rank;

/// Per-iteration measurements used by experiments E3 (query complexity) and
/// E4 (vertex drop).
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// Rank width `B` used this iteration.
    pub b: u16,
    /// Alive cycle vertices entering the iteration.
    pub alive_before: usize,
    /// Alive cycle vertices after the iteration.
    pub alive_after: usize,
    /// Vertices removed by the whole-cycle loop case of Step 1.
    pub loop_contracted: usize,
    /// Vertices removed by leader segment contraction (Step 1).
    pub segment_contracted: usize,
    /// Vertices removed by the deterministic Step 2.
    pub step2_contracted: usize,
    /// Cycles that finished (reduced to a single representative).
    pub finished_cycles: usize,
    /// DHT queries issued during the iteration.
    pub queries: usize,
}

/// Step 2's two 16B-hop scans from one vertex, merged into `fwd`: when they
/// overlap — together they cover the whole cycle, `16B < k ≤ 32B` — the
/// backward-scan vertices the forward scan did not reach are appended to it
/// in walk order, and the result is `true`; when the scans are disjoint,
/// `fwd` is left as it was and the result is `false`. Each scan holds
/// distinct ids, so the merged list does too, and its order (hence the
/// order of the writes issued from it) is the same on every run. `seen` is
/// the machine's scratch.
fn merge_overlapping_scans(fwd: &mut Vec<u64>, bwd: &[u64], seen: &mut Vec<u64>) -> bool {
    seen.clear();
    seen.extend_from_slice(fwd);
    seen.sort_unstable();
    let unseen = |x: &&u64| seen.binary_search(x).is_err();
    if bwd.iter().all(|x| unseen(&x)) {
        return false; // the common case on long cycles: nothing to build
    }
    fwd.extend(bwd.iter().filter(unseen));
    true
}

/// Executes one `ShrinkSmallCycles(G', B)` iteration on `state`.
///
/// `walk_cap` bounds any single traversal (the paper guarantees `n^ε`-length
/// cycles after `ShrinkLargeCycles`, so the cap is never reached there; on a
/// cap hit the traversal safely abstains from contracting). `enable_step2`
/// exists for the E9 ablation.
pub fn shrink_small_cycles(
    state: &mut CycleState,
    b: u16,
    walk_cap: usize,
    enable_step2: bool,
) -> AmpcResult<IterationOutcome> {
    let alive_before = state.alive.len();
    let queries_before = state.sys.stats().total_queries();

    // Round 1: sample ranks, publish them in both pointer words, reset stamps.
    state.sys.machine_round("ssc-ranks", &state.alive, |ctx, chunk, _: &mut Vec<()>| {
        let ranks = ctx.draws(0);
        for &v in chunk {
            let (succ, _) = link(ctx, FWD, v);
            let (pred, _) = link(ctx, BWD, v);
            let rank = sample_rank(&mut ranks.at(v), b);
            ctx.write(Key::new(FWD, v), pack(succ, rank));
            ctx.write(Key::new(BWD, v), pack(pred, rank));
            ctx.write(Key::new(STAMP, v), 0);
        }
    })?;

    // Round 2: probe + stamp; unique maxima contract their whole cycle.
    let probe = state.sys.machine_round("ssc-probe", &state.alive, |ctx, chunk, retired| {
        let mut visited = Vec::new();
        for &v in chunk {
            let (succ, my_rank) = link(ctx, FWD, v);
            // Forward traversal; it ends back at v only if v is the unique
            // maximum of its cycle.
            visited.clear();
            let mut cur = succ;
            while cur != v {
                let (next, rank) = link(ctx, FWD, cur);
                ctx.write_merge(Key::new(STAMP, cur), my_rank as u64);
                if rank >= my_rank {
                    break;
                }
                visited.push(cur);
                if visited.len() >= walk_cap {
                    break;
                }
                cur = next;
            }
            if cur == v {
                // Case (i) of Step 1: contract the whole cycle into v.
                absorb(ctx, retired, v, &visited);
                close(ctx, retired, v);
                continue;
            }
            // Backward traversal (stamping only; the loop case cannot occur
            // here without having occurred forward).
            let mut cur = link(ctx, BWD, v).0;
            let mut steps = 0usize;
            while cur != v {
                let (next, rank) = link(ctx, BWD, cur);
                ctx.write_merge(Key::new(STAMP, cur), my_rank as u64);
                steps += 1;
                if rank >= my_rank || steps >= walk_cap {
                    break;
                }
                cur = next;
            }
        }
    })?;
    let (loop_contracted, mut finished_cycles) = state.settle(&probe.results);

    // Round 3: leaders contract the segments between them.
    let contract =
        state.sys.machine_round("ssc-contract", &state.alive, |ctx, chunk, retired| {
            let (mut fwd_segment, mut bwd_segment) = (Vec::new(), Vec::new());
            for &v in chunk {
                let (succ, my_rank) = link(ctx, FWD, v);
                let stamp = ctx.read(Key::new(STAMP, v)).copied().unwrap_or(0) as u16;
                if stamp > my_rank {
                    continue; // not a leader; some leader will absorb this vertex
                }
                // Leader: find both neighboring leaders and the segments between,
                // each walked into its own buffer.
                let walk =
                    |ctx: &mut MachineCtx<'_, u64>, dir, start: u64, interior: &mut Vec<u64>| {
                        interior.clear();
                        let mut cur = start;
                        loop {
                            debug_assert_ne!(
                                cur, v,
                                "leader re-encountered itself; loop case should have fired"
                            );
                            let (next, rank) = link(ctx, dir, cur);
                            if rank >= my_rank {
                                return Some(cur);
                            }
                            interior.push(cur);
                            if interior.len() >= walk_cap {
                                return None; // cap hit: abstain (consistency preserved)
                            }
                            cur = next;
                        }
                    };
                let fwd = walk(ctx, FWD, succ, &mut fwd_segment);
                let pred = link(ctx, BWD, v).0;
                let bwd = walk(ctx, BWD, pred, &mut bwd_segment);

                // Segment ownership: for adjacent leaders (v, w) the higher id
                // absorbs the segment between them and joins its two ends.
                if let Some(w) = fwd.filter(|&w| v > w) {
                    absorb(ctx, retired, v, &fwd_segment);
                    join(ctx, v, w);
                }
                if let Some(w) = bwd.filter(|&w| v > w) {
                    absorb(ctx, retired, v, &bwd_segment);
                    join(ctx, w, v);
                }
            }
        })?;
    let segment_contracted = state.settle(&contract.results).0;

    // Round 4 (Step 2): deterministic 16B-hop compression.
    let step2_contracted = if enable_step2 {
        let hop16 = 16 * b as usize;
        let hop4 = 4 * b as usize;
        let step2 = state.sys.machine_round("ssc-step2", &state.alive, |ctx, chunk, retired| {
            // The forward scan also holds the merged cycle, up to 32B ids.
            let mut fwd = Vec::with_capacity(2 * hop16);
            let (mut bwd, mut seen) = (Vec::with_capacity(hop16), Vec::new());
            for &v in chunk {
                // Forward 16B-hop scan; it stops short only back at v, and
                // then the whole cycle (k ≤ 16B) is visible forward.
                fwd.clear();
                let mut cur = link(ctx, FWD, v).0;
                while fwd.len() < hop16 && cur != v {
                    fwd.push(cur);
                    cur = link(ctx, FWD, cur).0;
                }
                if fwd.len() == hop16 {
                    // Backward 16B-hop scan.
                    bwd.clear();
                    let mut cur = link(ctx, BWD, v).0;
                    while bwd.len() < hop16 {
                        debug_assert_ne!(
                            cur, v,
                            "backward loop without forward loop is impossible"
                        );
                        bwd.push(cur);
                        cur = link(ctx, BWD, cur).0;
                    }
                    // Overlapping scans are the whole cycle, 16B < k ≤ 32B,
                    // now in `fwd`. Otherwise k > 32B: compress the 4B-hop
                    // neighborhood if v is the highest id within 16B hops.
                    // Compressors are > 16B apart, so the 4B+1 rewiring
                    // regions never collide.
                    if !merge_overlapping_scans(&mut fwd, &bwd, &mut seen) {
                        if fwd.iter().chain(&bwd).all(|&x| x < v) {
                            absorb(ctx, retired, v, &fwd[..hop4]);
                            absorb(ctx, retired, v, &bwd[..hop4]);
                            join(ctx, v, fwd[hop4]);
                            join(ctx, bwd[hop4], v);
                        }
                        continue;
                    }
                }
                // The whole cycle is in view: its highest id contracts all of it.
                if fwd.iter().all(|&x| x < v) {
                    absorb(ctx, retired, v, &fwd);
                    close(ctx, retired, v);
                }
            }
        })?;
        let (removed, finished) = state.settle(&step2.results);
        finished_cycles += finished;
        removed
    } else {
        0
    };

    Ok(IterationOutcome {
        b,
        alive_before,
        alive_after: state.alive.len(),
        loop_contracted,
        segment_contracted,
        step2_contracted,
        finished_cycles,
        queries: state.sys.stats().total_queries() - queries_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::AmpcConfig;

    fn ring(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i + 1) % n as u64).collect()
    }

    fn state_of(succ: Vec<u64>, seed: u64) -> CycleState {
        CycleState::from_successors(&succ, AmpcConfig::default().with_machines(4).with_seed(seed))
    }

    /// Drives iterations until everything contracts, then checks that the
    /// PARENT forest maps every vertex to its cycle's representative.
    fn run_to_completion(succ: Vec<u64>, b: u16, seed: u64) -> Vec<u64> {
        let n = succ.len();
        let mut st = state_of(succ, seed);
        let mut guard = 0;
        while !st.alive.is_empty() {
            shrink_small_cycles(&mut st, b, 1 << 20, true).unwrap();
            guard += 1;
            assert!(guard < 64, "did not converge");
        }
        // Parent chains deepen by at most 3 per iteration (segment
        // contraction, then Step 2, plus a possible same-round relay).
        st.compose_labels(guard * 3 + 8).unwrap().into_iter().take(n).collect()
    }

    fn assert_cycles_labeled(succ: &[u64], labels: &[u64]) {
        // Vertices on the same cycle of `succ` must share a label; vertices
        // on different cycles must not.
        let n = succ.len();
        let mut cycle_id = vec![u64::MAX; n];
        let mut next_id = 0;
        for start in 0..n {
            if cycle_id[start] != u64::MAX {
                continue;
            }
            let mut cur = start;
            while cycle_id[cur] == u64::MAX {
                cycle_id[cur] = next_id;
                cur = succ[cur] as usize;
            }
            next_id += 1;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    labels[i] == labels[j],
                    cycle_id[i] == cycle_id[j],
                    "vertices {i},{j}: labels {} {} cycles {} {}",
                    labels[i],
                    labels[j],
                    cycle_id[i],
                    cycle_id[j]
                );
            }
        }
    }

    #[test]
    fn overlapping_scans_merge_forward_first_without_duplicates() {
        // One scratch list for every case, as one machine keeps it.
        let mut seen = vec![99, 98];
        let mut merge = |fwd: &[u64], bwd: &[u64]| {
            let mut merged = fwd.to_vec();
            let overlap = merge_overlapping_scans(&mut merged, bwd, &mut seen);
            assert!(overlap || merged == fwd, "disjoint scans changed the forward scan");
            overlap.then_some(merged)
        };
        // A 7-cycle seen from v = 9: forward 1 2 3 4 5, backward 6 5 4 3 2.
        assert_eq!(merge(&[1, 2, 3, 4, 5], &[6, 5, 4, 3, 2]), Some(vec![1, 2, 3, 4, 5, 6]));
        // Walk order, not id order, on both sides.
        assert_eq!(merge(&[40, 7, 23], &[11, 5, 23, 7]), Some(vec![40, 7, 23, 11, 5]));
        // Disjoint scans: the neighbourhood does not cover the cycle.
        assert_eq!(merge(&[1, 2, 3], &[8, 7, 6]), None);
    }

    #[test]
    fn single_small_cycle_contracts() {
        let succ = ring(10);
        let labels = run_to_completion(succ.clone(), 2, 1);
        assert_cycles_labeled(&succ, &labels);
    }

    #[test]
    fn two_cycles_stay_separate() {
        // Cycles {0..5} and {6..14}.
        let mut succ: Vec<u64> = (0..6u64).map(|i| (i + 1) % 6).collect();
        succ.extend((6..15u64).map(|i| if i == 14 { 6 } else { i + 1 }));
        let labels = run_to_completion(succ.clone(), 2, 7);
        assert_cycles_labeled(&succ, &labels);
    }

    #[test]
    fn many_tiny_cycles_finish_in_one_iteration_via_step2() {
        // 2-cycles everywhere: Step 2's whole-cycle case must finish them
        // all in a single iteration (they fit in any 16B-hop neighborhood).
        let n = 50;
        let succ: Vec<u64> =
            (0..n as u64).map(|i| if i % 2 == 0 { i + 1 } else { i - 1 }).collect();
        let mut st = state_of(succ.clone(), 3);
        let out = shrink_small_cycles(&mut st, 2, 1 << 20, true).unwrap();
        assert!(st.alive.is_empty(), "alive left: {:?}", st.alive);
        assert_eq!(out.finished_cycles, n / 2);
    }

    #[test]
    fn step2_disabled_still_correct_but_slower() {
        let succ = ring(64);
        let n = succ.len();
        let mut st = state_of(succ.clone(), 11);
        let mut guard = 0;
        while !st.alive.is_empty() && guard < 200 {
            shrink_small_cycles(&mut st, 3, 1 << 20, false).unwrap();
            guard += 1;
        }
        assert!(st.alive.is_empty(), "no-step2 run stalled");
        let labels: Vec<u64> = st.compose_labels(512).unwrap().into_iter().take(n).collect();
        assert_cycles_labeled(&succ, &labels);
    }

    #[test]
    fn large_cycle_shrinks_by_roughly_2_pow_b() {
        // Lemma 3.12 (shape): one iteration on a long cycle should cut the
        // vertex count by a factor in the vicinity of 2^B.
        let n = 20_000;
        let mut st = state_of(ring(n), 5);
        let out = shrink_small_cycles(&mut st, 4, 1 << 20, true).unwrap();
        let drop = out.alive_before as f64 / (out.alive_after.max(1)) as f64;
        // 2^4 = 16; accept a generous band.
        assert!(drop > 4.0, "drop factor {drop} too small");
        assert!(out.alive_after < n / 4);
    }

    #[test]
    fn query_complexity_near_4b_per_vertex() {
        // Lemma 3.6/3.7 (shape): probe queries are O(B) per vertex.
        let n = 10_000;
        let mut st = state_of(ring(n), 9);
        let b = 4;
        let out = shrink_small_cycles(&mut st, b, 1 << 20, true).unwrap();
        let per_vertex = out.queries as f64 / n as f64;
        // Full iteration: probe (≤ ~4B expected) + contract + step2 (≤ 32B).
        let bound = 40.0 * b as f64 + 16.0;
        assert!(per_vertex < bound, "queries/vertex {per_vertex} exceeds {bound}");
    }

    #[test]
    fn deterministic_across_machine_counts() {
        let succ = ring(300);
        let run = |machines: usize| -> Vec<u64> {
            let mut st = CycleState::from_successors(
                &succ,
                AmpcConfig::default().with_machines(machines).with_seed(77),
            );
            shrink_small_cycles(&mut st, 3, 1 << 20, true).unwrap();
            let mut alive = st.alive.clone();
            alive.sort_unstable();
            alive
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn three_vertex_cycle_handles_all_rank_patterns() {
        // Tiny cycles exercise loop case, tie-breaks, and Step 2 together.
        for seed in 0..20 {
            let succ = vec![1u64, 2, 0];
            let labels = run_to_completion(succ.clone(), 2, seed);
            assert_cycles_labeled(&succ, &labels);
        }
    }

    #[test]
    fn b_one_degenerate_rank_still_progresses() {
        // B = 1 → all ranks equal → every vertex is a leader; Step 1 removes
        // nothing, but Step 2 must still make progress (Lemma 3.8).
        let succ = ring(40);
        let labels = run_to_completion(succ.clone(), 1, 13);
        assert_cycles_labeled(&succ, &labels);
    }
}
