//! Property tests of the §3 shrink machinery on arbitrary disjoint-cycle
//! collections: correctness, ledger balance, parent-forest acyclicity, and
//! pointer integrity after every iteration.

use ampc::rng::SplitMix64;
use ampc::{AmpcConfig, DhtStorage as _, Key};
use ampc_cc::cycles::{unpack, CycleState, BWD, FWD, PARENT};
use ampc_cc::forest::shrink_large::shrink_large_cycles;
use ampc_cc::forest::shrink_small::shrink_small_cycles;

/// Cases per property — mirrors the original `ProptestConfig::with_cases(16)`.
/// (No registry access for `proptest`, so properties run over a deterministic
/// hand-rolled case loop seeded per `(property tag, case index)`.)
const CASES: u64 = 16;

/// Deterministic per-case RNG.
fn case_rng(tag: u64, case: u64) -> SplitMix64 {
    ampc::rng::stream(0x5481_11CC, tag, case, 0)
}

/// Random cycle-size vector: `len` in `1..max_len`, sizes in `2..max_size`.
fn arb_sizes(rng: &mut SplitMix64, max_len: u64, max_size: u64) -> Vec<usize> {
    let len = 1 + rng.next_below(max_len - 1);
    (0..len).map(|_| (2 + rng.next_below(max_size - 2)) as usize).collect()
}

/// Builds a successor permutation of disjoint cycles with the given sizes,
/// interleaving vertex ids across cycles so machine chunks mix cycles.
fn cycles_from_sizes(sizes: &[usize]) -> Vec<u64> {
    let n: usize = sizes.iter().sum();
    let mut succ = vec![0u64; n];
    let mut base = 0usize;
    for &s in sizes {
        for i in 0..s {
            succ[base + i] = (base + (i + 1) % s) as u64;
        }
        base += s;
    }
    succ
}

/// Ground-truth cycle id per vertex.
fn cycle_ids(succ: &[u64]) -> Vec<usize> {
    let mut id = vec![usize::MAX; succ.len()];
    let mut next = 0;
    for s in 0..succ.len() {
        if id[s] != usize::MAX {
            continue;
        }
        let mut cur = s;
        while id[cur] == usize::MAX {
            id[cur] = next;
            cur = succ[cur] as usize;
        }
        next += 1;
    }
    id
}

/// Checks that the alive pointer structure is a set of disjoint cycles
/// whose membership respects the original cycles.
fn assert_pointer_integrity(state: &CycleState, orig_cycle: &[usize]) {
    use std::collections::HashSet;
    let alive: HashSet<u64> = state.alive.iter().copied().collect();
    for &v in &state.alive {
        let fwd = state.sys.snapshot().get(Key::new(FWD, v)).expect("alive FWD");
        let (succ, _) = unpack(*fwd);
        assert!(alive.contains(&succ), "v={v} points to dead successor {succ}");
        assert_eq!(orig_cycle[succ as usize], orig_cycle[v as usize], "pointer crossed cycles");
        let bwd = state.sys.snapshot().get(Key::new(BWD, v)).expect("alive BWD");
        let (pred, _) = unpack(*bwd);
        assert!(alive.contains(&pred), "v={v} points to dead predecessor {pred}");
        // succ/pred must be mutually consistent.
        let (ps, _) = unpack(*state.sys.snapshot().get(Key::new(FWD, pred)).expect("pred FWD"));
        assert_eq!(ps, v, "pred({v}) = {pred} but succ({pred}) = {ps}");
    }
}

/// Checks that the PARENT relation is acyclic and stays within cycles.
fn assert_parent_forest(state: &CycleState, orig_cycle: &[usize], n: usize) {
    for start in 0..n as u64 {
        let mut cur = start;
        let mut hops = 0;
        while let Some(&p) = state.sys.snapshot().get(Key::new(PARENT, cur)) {
            assert_eq!(
                orig_cycle[p as usize], orig_cycle[start as usize],
                "parent chain crossed cycles"
            );
            cur = p;
            hops += 1;
            assert!(hops <= 10_000, "parent cycle detected from {start}");
        }
    }
}

#[test]
fn iteration_preserves_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let sizes = arb_sizes(&mut rng, 20, 60);
        let b = 1 + rng.next_below(7) as u16;
        let seed = rng.next_below(10_000);
        let succ = cycles_from_sizes(&sizes);
        let orig = cycle_ids(&succ);
        let n = succ.len();
        let mut st = CycleState::from_successors(
            &succ,
            AmpcConfig::default().with_machines(5).with_seed(seed),
        );
        let mut iters = 0;
        while !st.alive.is_empty() {
            let out = shrink_small_cycles(&mut st, b, 1 << 16, true).unwrap();
            // Ledger balance.
            assert_eq!(
                out.alive_before - out.alive_after,
                out.loop_contracted
                    + out.segment_contracted
                    + out.step2_contracted
                    + out.finished_cycles,
                "case {case}"
            );
            assert_pointer_integrity(&st, &orig);
            assert_parent_forest(&st, &orig, n);
            iters += 1;
            assert!(iters < 200, "case {case}: did not converge");
        }
        // Final labels: exactly the original cycle partition.
        let labels = st.compose_labels(3 * iters + 8).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(labels[i] == labels[j], orig[i] == orig[j], "case {case}");
            }
        }
        // Each cycle contributes exactly one root.
        let mut roots = st.roots.clone();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), sizes.len(), "case {case}");
    }
}

#[test]
fn shrink_large_preserves_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let sizes = arb_sizes(&mut rng, 8, 400);
        let seed = rng.next_below(10_000);
        let succ = cycles_from_sizes(&sizes);
        let orig = cycle_ids(&succ);
        let n = succ.len();
        let mut st = CycleState::from_successors(
            &succ,
            AmpcConfig::default().with_machines(3).with_seed(seed),
        );
        let out = shrink_large_cycles(&mut st, 32, 1 << 16).unwrap();
        assert_pointer_integrity(&st, &orig);
        assert_parent_forest(&st, &orig, n);
        // Every removed vertex's chain terminates at an alive vertex or root.
        let alive: std::collections::HashSet<u64> = st.alive.iter().copied().collect();
        let roots: std::collections::HashSet<u64> = st.roots.iter().copied().collect();
        let labels = st.compose_labels(out.repetitions * 2 + 8).unwrap();
        for (v, &l) in labels.iter().enumerate() {
            assert!(
                alive.contains(&l) || roots.contains(&l),
                "case {case}: vertex {v} maps to dead {l}"
            );
            assert_eq!(orig[l as usize], orig[v], "case {case}: vertex {v} mapped across cycles");
        }
    }
}

#[test]
fn walk_cap_never_breaks_correctness() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let sizes = arb_sizes(&mut rng, 10, 40);
        let cap = 2 + rng.next_below(10) as usize;
        let seed = rng.next_below(1000);
        // Starved caps: abstention must preserve exact correctness.
        let succ = cycles_from_sizes(&sizes);
        let orig = cycle_ids(&succ);
        let mut st = CycleState::from_successors(
            &succ,
            AmpcConfig::default().with_machines(4).with_seed(seed),
        );
        let mut iters = 0;
        while !st.alive.is_empty() {
            shrink_small_cycles(&mut st, 2, cap, true).unwrap();
            iters += 1;
            assert!(iters < 500, "case {case}: starved run did not converge");
        }
        let labels = st.compose_labels(3 * iters + 8).unwrap();
        for i in 0..succ.len() {
            for j in (i + 1)..succ.len() {
                assert_eq!(labels[i] == labels[j], orig[i] == orig[j], "case {case}");
            }
        }
    }
}

/// Statistical check of Lemma 3.10's expectation: after Step 1 alone (no
/// deterministic phase), a k-cycle retains at most `2k/2^B + 1/2^B`
/// vertices in expectation.
#[test]
fn lemma_3_10_expectation_over_seeds() {
    let k = 4096usize;
    let b = 6u16;
    let succ = cycles_from_sizes(&[k]);
    let trials = 12;
    let mut total_after = 0usize;
    for seed in 0..trials {
        let mut st = CycleState::from_successors(
            &succ,
            AmpcConfig::default().with_machines(4).with_seed(1000 + seed),
        );
        let out = shrink_small_cycles(&mut st, b, 1 << 16, false).unwrap();
        total_after += out.alive_after;
    }
    let mean = total_after as f64 / trials as f64;
    // 2k/2^B + 1/2^B = 128.02; allow 1.8× sampling slack over the
    // expectation bound at 12 trials.
    let bound = 2.0 * k as f64 / 64.0 + 1.0 / 64.0;
    assert!(mean <= 1.8 * bound, "mean survivors {mean:.1} exceed Lemma 3.10 bound {bound:.1}");
    // Sanity floor: Step 1 cannot do better than the max-rank census.
    assert!(mean >= 1.0);
}
