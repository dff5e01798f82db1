//! `Standard-Cycle-CC` — finishing cycle connectivity with a log-factor of
//! extra space (Lemma 3.3, citing [BDE+21, Theorem 5]).
//!
//! The paper invokes this as a black box once the alive vertex count has
//! dropped to `n/log n`, at which point `O(n' · log n) = O(n)` total space
//! is affordable. Our implementation (a behavioural substitute, see
//! DESIGN.md) reuses the rank-contraction machinery with the *untruncated*
//! budget `B = Θ(log n)`: with ranks spanning `log n` levels, each cycle's
//! expected leader count after one iteration is `O(1)` and Step 2's
//! `16B = Θ(log n)`-hop sweep finishes any cycle of length `O(log n)`
//! outright, so the loop below converges in `O(1)` iterations in practice
//! (asserted by tests and measured in experiment E1). Queries per iteration
//! are `O(n' · B) = O(n' log n)` — exactly the cited space bound.
//!
//! Tiny remainders (below `collect_threshold`) are gathered onto a single
//! machine and solved locally, mirroring the paper's remark in the proof of
//! Theorem 1.1 ("we can collect the remaining graph onto a single machine
//! and solve the problem locally"); the collection is charged one round and
//! its true query/space cost.

use std::collections::HashSet;

use ampc::{AmpcError, AmpcResult, DhtStorage as _, Key};

use crate::cycles::{unpack, CycleState, BWD, FWD, PARENT, STAMP};
use crate::forest::shrink_small::shrink_small_cycles;

/// High-budget iterations before the loop gives up with
/// [`AmpcError::NoConvergence`]; it finishes in `O(1)` in practice.
const MAX_ITERATIONS: usize = 64;

/// Measurements of a `Standard-Cycle-CC` invocation.
#[derive(Debug, Clone)]
pub struct StandardCycleOutcome {
    /// Rank width used for the high-budget iterations.
    pub b: u16,
    /// High-budget iterations executed.
    pub iterations: usize,
    /// Whether the tiny-remainder local collection fired (charged one
    /// round).
    pub collected_locally: bool,
    /// DHT queries issued (including charged collection reads).
    pub queries: usize,
}

/// Solves connectivity on the remaining cycles of `state`, emptying its
/// alive list.
pub fn standard_cycle_cc(
    state: &mut CycleState,
    walk_cap: usize,
    collect_threshold: usize,
) -> AmpcResult<StandardCycleOutcome> {
    let queries_before = state.sys.stats().total_queries();
    let b = (state.n0.max(4) as f64).log2().ceil().clamp(4.0, 16.0) as u16;

    let mut iterations = 0usize;
    let mut collected_locally = false;
    while !state.alive.is_empty() {
        if state.alive.len() <= collect_threshold {
            collect_locally(state);
            collected_locally = true;
            break;
        }
        shrink_small_cycles(state, b, walk_cap, true)?;
        iterations += 1;
        if iterations == MAX_ITERATIONS {
            return Err(AmpcError::NoConvergence { phase: "Standard-Cycle-CC" });
        }
    }

    Ok(StandardCycleOutcome {
        b,
        iterations,
        collected_locally,
        queries: state.sys.stats().total_queries() - queries_before,
    })
}

/// Gathers all remaining cycles onto one machine and contracts each cycle
/// into its minimum-id vertex. Executed host-side; charged one AMPC round,
/// one query per alive vertex, and the snapshot's footprint — the price the
/// model assigns to "ship the remainder to one machine".
fn collect_locally(state: &mut CycleState) {
    let alive = std::mem::take(&mut state.alive);
    let alive_set: HashSet<u64> = alive.iter().copied().collect();
    let snapshot_entries = state.sys.snapshot().len();

    let mut visited: HashSet<u64> = HashSet::new();
    let mut writes: Vec<(u64, u64)> = Vec::new(); // (vertex, parent)
    let mut roots: Vec<u64> = Vec::new();
    for &v in &alive {
        if visited.contains(&v) {
            continue;
        }
        // Walk the cycle, collecting members.
        let mut members = vec![v];
        let mut cur = v;
        loop {
            let w = state.sys.snapshot().get(Key::new(FWD, cur)).expect("alive pointer");
            cur = unpack(*w).0;
            if cur == v {
                break;
            }
            debug_assert!(alive_set.contains(&cur), "dangling pointer to dead vertex {cur}");
            members.push(cur);
        }
        let root = *members.iter().min().expect("non-empty cycle");
        for &x in &members {
            visited.insert(x);
            if x != root {
                writes.push((x, root));
            }
        }
        roots.push(root);
    }

    let queries = visited.len() + writes.len();
    state.sys.host_update(|dht| {
        for &(x, p) in &writes {
            dht.insert(Key::new(PARENT, x), p);
            dht.remove(Key::new(FWD, x));
            dht.remove(Key::new(BWD, x));
            dht.remove(Key::new(STAMP, x));
        }
    });
    state.sys.stats_mut().charge_external(1, queries, snapshot_entries);
    state.roots.extend(roots);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::AmpcConfig;

    fn rings(sizes: &[usize], seed: u64) -> (Vec<u64>, CycleState) {
        let mut succ = Vec::new();
        let mut base = 0u64;
        for &s in sizes {
            for i in 0..s as u64 {
                succ.push(base + (i + 1) % s as u64);
            }
            base += s as u64;
        }
        let st = CycleState::from_successors(
            &succ,
            AmpcConfig::default().with_machines(4).with_seed(seed),
        );
        (succ, st)
    }

    fn check_labels(succ: &[u64], labels: &[u64]) {
        let n = succ.len();
        let mut cyc = vec![usize::MAX; n];
        let mut id = 0;
        for s in 0..n {
            if cyc[s] != usize::MAX {
                continue;
            }
            let mut cur = s;
            while cyc[cur] == usize::MAX {
                cyc[cur] = id;
                cur = succ[cur] as usize;
            }
            id += 1;
        }
        use std::collections::HashMap;
        let mut seen: HashMap<usize, u64> = HashMap::new();
        for v in 0..n {
            match seen.get(&cyc[v]) {
                Some(&l) => assert_eq!(l, labels[v], "cycle {} split", cyc[v]),
                None => {
                    assert!(
                        !seen.values().any(|&l| l == labels[v]),
                        "label {} reused across cycles",
                        labels[v]
                    );
                    seen.insert(cyc[v], labels[v]);
                }
            }
        }
    }

    #[test]
    fn finishes_mixed_cycle_sizes() {
        let (succ, mut st) = rings(&[2, 3, 17, 100, 999], 1);
        let out = standard_cycle_cc(&mut st, 1 << 20, 0).unwrap();
        assert!(st.alive.is_empty());
        assert!(out.iterations <= 6, "took {} iterations", out.iterations);
        let labels = st.compose_labels(out.iterations * 3 + 8).unwrap();
        check_labels(&succ, &labels);
    }

    #[test]
    fn converges_in_constant_iterations_on_large_input() {
        // Lemma 3.3 shape: O(1) rounds. With B = Θ(log n), two or three
        // iterations must suffice even for 10^5 vertices.
        let (_, mut st) = rings(&[100_000], 2);
        let out = standard_cycle_cc(&mut st, 1 << 21, 0).unwrap();
        assert!(out.iterations <= 4, "iterations {}", out.iterations);
    }

    #[test]
    fn query_budget_is_n_log_n() {
        let n = 50_000usize;
        let (_, mut st) = rings(&[n], 3);
        let out = standard_cycle_cc(&mut st, 1 << 21, 0).unwrap();
        let logn = (n as f64).log2();
        // O(n log n) with a moderate constant (Step 2 contributes 32B/vertex).
        assert!(
            (out.queries as f64) < 80.0 * n as f64 * logn,
            "queries {} exceed O(n log n)",
            out.queries
        );
    }

    #[test]
    fn local_collection_path() {
        let (succ, mut st) = rings(&[5, 9, 2], 4);
        let out = standard_cycle_cc(&mut st, 1 << 20, 1000).unwrap();
        assert!(out.collected_locally);
        assert_eq!(out.iterations, 0);
        assert!(st.alive.is_empty());
        let labels = st.compose_labels(4).unwrap();
        check_labels(&succ, &labels);
        // Roots are the cycle minima.
        let mut roots = st.roots.clone();
        roots.sort_unstable();
        assert_eq!(roots, vec![0, 5, 14]);
    }

    #[test]
    fn collection_charges_its_cost() {
        let (_, mut st) = rings(&[50], 5);
        let before = st.sys.stats().rounds();
        standard_cycle_cc(&mut st, 1 << 20, 1000).unwrap();
        assert!(st.sys.stats().rounds() > before, "collection must charge a round");
        assert!(st.sys.stats().total_queries() >= 50);
    }
}
