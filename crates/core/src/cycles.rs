//! DHT-resident state for vertex-disjoint cycle collections.
//!
//! All of §3's algorithms (`ShrinkLargeCycles`, `ShrinkSmallCycles`,
//! `Standard-Cycle-CC`) operate on a collection of disjoint cycles. The
//! cycle structure lives in the shared DHT as doubly linked successor /
//! predecessor pointers so that machines traverse it with genuine adaptive
//! reads:
//!
//! | keyspace | key | value |
//! |---|---|---|
//! | [`FWD`] | cycle vertex | packed `(successor, rank, mark)` |
//! | [`BWD`] | cycle vertex | packed `(predecessor, rank, mark)` |
//! | [`STAMP`] | cycle vertex | max rank stamped by traversals (merge-max) |
//! | [`PARENT`] | contracted vertex | the vertex it was contracted into |
//!
//! Rank and a sampling mark are packed into the pointer word so that one
//! DHT read per hop suffices, matching the paper's query accounting.
//!
//! The driver (host) keeps the list of *alive* vertices — pure
//! orchestration data; every data access that the paper counts goes through
//! the DHT. Contracted vertices leave the list through dense marks
//! ([`CycleState::mark_dead`], then one [`CycleState::retire`] pass): ids are
//! `0..n0`, so a mark is an array store, not a hash-set insert.

use ampc::{AmpcConfig, AmpcSystem, Key, RunStats, Space};
use ampc_graph::euler::CycleDecomposition;

/// Keyspace: forward pointer + rank + mark.
pub const FWD: Space = 0;
/// Keyspace: backward pointer + rank + mark.
pub const BWD: Space = 1;
/// Keyspace: rank stamps (merge-max).
pub const STAMP: Space = 2;
/// Keyspace: contraction parent pointers (the `Compose` mapping).
pub const PARENT: Space = 3;

/// Packs a pointer word: 47-bit vertex id, 16-bit rank, 1-bit mark.
#[inline]
pub fn pack(id: u64, rank: u16, mark: bool) -> u64 {
    debug_assert!(id < (1 << 47));
    (id << 17) | ((rank as u64) << 1) | (mark as u64)
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(word: u64) -> (u64, u16, bool) {
    (word >> 17, ((word >> 1) & 0xFFFF) as u16, word & 1 == 1)
}

/// A cycle collection living in an [`AmpcSystem`], plus the host-side alive
/// list. Which store holds the pointers is `config.backend`'s business.
pub struct CycleState {
    /// The AMPC deployment holding the cycle pointers.
    pub sys: AmpcSystem<u64>,
    /// Cycle vertices not yet contracted away (orchestration data).
    pub alive: Vec<u64>,
    /// Number of cycle vertices initially.
    pub n0: usize,
    /// Finished components: vertices that became cycle representatives.
    pub roots: Vec<u64>,
    /// `dead[v]` is set between [`CycleState::mark_dead`] and the next
    /// [`CycleState::retire`]; all clear otherwise. `n0` entries, allocated
    /// once.
    dead: Vec<bool>,
}

impl CycleState {
    /// Loads a [`CycleDecomposition`] into a fresh AMPC system. Loading the
    /// input is free (the model assumes the input resides in the DHT).
    pub fn from_decomposition(decomp: &CycleDecomposition, config: AmpcConfig) -> Self {
        let pred = decomp.predecessors();
        let n0 = decomp.len();
        // Every cycle keyspace is indexed by arc ids 0..n0 — size an
        // unhinted dense backend's slab accordingly.
        let backend = config.backend.with_capacity_hint(n0.max(1));
        let config = config.with_backend(backend);
        let init = (0..n0).flat_map(|a| {
            [
                (Key::new(FWD, a as u64), pack(decomp.succ[a] as u64, 0, false)),
                (Key::new(BWD, a as u64), pack(pred[a] as u64, 0, false)),
            ]
        });
        let sys = AmpcSystem::new(config, init);
        CycleState {
            sys,
            alive: (0..n0 as u64).collect(),
            n0,
            roots: Vec::new(),
            dead: vec![false; n0],
        }
    }

    /// Builds a state directly from an explicit successor permutation
    /// (used by unit tests and by the rooted-forest reduction).
    pub fn from_successors(succ: &[u64], config: AmpcConfig) -> Self {
        let n0 = succ.len();
        let backend = config.backend.with_capacity_hint(n0.max(1));
        let config = config.with_backend(backend);
        let mut pred = vec![0u64; n0];
        for (a, &s) in succ.iter().enumerate() {
            pred[s as usize] = a as u64;
        }
        let init = (0..n0).flat_map(|a| {
            [
                (Key::new(FWD, a as u64), pack(succ[a], 0, false)),
                (Key::new(BWD, a as u64), pack(pred[a], 0, false)),
            ]
        });
        let sys = AmpcSystem::new(config, init);
        // Length-1 cycles are already finished components.
        let mut alive = Vec::with_capacity(n0);
        let mut roots = Vec::new();
        for (a, &s) in succ.iter().enumerate() {
            if s == a as u64 {
                roots.push(a as u64);
            } else {
                alive.push(a as u64);
            }
        }
        CycleState { sys, alive, n0, roots, dead: vec![false; n0] }
    }

    /// Marks alive vertices as contracted away; the next
    /// [`CycleState::retire`] drops them from the alive list.
    pub fn mark_dead(&mut self, ids: impl IntoIterator<Item = u64>) {
        for v in ids {
            self.dead[v as usize] = true;
        }
    }

    /// Removes the vertices marked dead from the alive list (the survivors
    /// keep their order), clearing each mark as it is consumed, and records
    /// `done` as finished roots.
    pub fn retire(&mut self, done: &[u64]) {
        let dead = &mut self.dead;
        self.alive.retain(|&v| !std::mem::take(&mut dead[v as usize]));
        debug_assert!(!dead.contains(&true), "a vertex marked dead was not alive");
        self.roots.extend_from_slice(done);
    }

    /// Resolves the final component label of every original cycle vertex by
    /// walking `PARENT` chains adaptively — the `Compose` of Definition 2.1.
    ///
    /// Chains have length at most the number of contraction steps executed,
    /// which is `O(log* n)` — far below any machine's budget — so one AMPC
    /// round suffices.
    pub fn compose_labels(&mut self, max_chain: usize) -> ampc::AmpcResult<Vec<u64>> {
        let items: Vec<u64> = (0..self.n0 as u64).collect();
        let out = self.sys.round("compose", &items, |ctx, &x| {
            let mut cur = x;
            for _ in 0..=max_chain {
                match ctx.read(Key::new(PARENT, cur)) {
                    Some(&p) => cur = p,
                    None => return Some(cur),
                }
            }
            panic!("PARENT chain exceeded {} hops — contraction bookkeeping bug", max_chain);
        })?;
        Ok(out.results)
    }

    /// Accumulated run statistics.
    pub fn stats(&self) -> &RunStats {
        self.sys.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::DhtStorage as _;

    #[test]
    fn pack_unpack_roundtrip() {
        for (id, rank, mark) in
            [(0u64, 0u16, false), (5, 9, true), ((1 << 47) - 1, u16::MAX, false)]
        {
            assert_eq!(unpack(pack(id, rank, mark)), (id, rank, mark));
        }
    }

    #[test]
    fn from_successors_initializes_pointers() {
        // One 3-cycle (0→1→2→0) and one singleton (3).
        let mut st =
            CycleState::from_successors(&[1, 2, 0, 3], AmpcConfig::default().with_machines(2));
        assert_eq!(st.alive, vec![0, 1, 2]);
        assert_eq!(st.roots, vec![3]);
        let (succ, _, _) = unpack(*st.sys.snapshot().get(Key::new(FWD, 1)).unwrap());
        assert_eq!(succ, 2);
        let (pred, _, _) = unpack(*st.sys.snapshot().get(Key::new(BWD, 0)).unwrap());
        assert_eq!(pred, 2);
        // Compose with no contractions: everyone is their own root.
        let labels = st.compose_labels(4).unwrap();
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compose_follows_parent_chains() {
        let mut st = CycleState::from_successors(&[1, 2, 0, 3], AmpcConfig::default());
        st.sys.host_update(|dht| {
            dht.insert(Key::new(PARENT, 1), 0);
            dht.insert(Key::new(PARENT, 2), 1); // chain 2 → 1 → 0
        });
        let labels = st.compose_labels(4).unwrap();
        assert_eq!(labels, vec![0, 0, 0, 3]);
    }

    #[test]
    fn retire_updates_alive_and_roots() {
        let mut st = CycleState::from_successors(&[1, 0, 3, 2], AmpcConfig::default());
        st.mark_dead([1, 2, 3]);
        st.retire(&[0]);
        assert_eq!(st.alive, vec![0]);
        assert_eq!(st.roots, vec![0]);
    }

    #[test]
    fn retire_keeps_survivor_order_and_clears_its_marks() {
        // One 8-cycle whose alive list is deliberately not ascending.
        let succ: Vec<u64> = (0..8u64).map(|i| (i + 1) % 8).collect();
        let mut st = CycleState::from_successors(&succ, AmpcConfig::default());
        st.alive = vec![5, 2, 7, 0, 3, 6, 1, 4];
        st.mark_dead([7, 3]);
        st.mark_dead([3, 4]); // marking twice is marking once
        st.retire(&[]);
        assert_eq!(st.alive, vec![5, 2, 0, 6, 1]);
        assert!(st.roots.is_empty());
        // Every mark was consumed: retiring again with nothing marked
        // removes nothing, and roots are appended after the existing ones.
        st.retire(&[6]);
        assert_eq!(st.alive, vec![5, 2, 0, 6, 1]);
        st.mark_dead([6]);
        st.retire(&[2]);
        assert_eq!(st.alive, vec![5, 2, 0, 1]);
        assert_eq!(st.roots, vec![6, 2]);
    }
}
