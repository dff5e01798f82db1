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
//! | [`FWD`] | cycle vertex | packed `(successor, rank)` |
//! | [`BWD`] | cycle vertex | packed `(predecessor, rank)` |
//! | [`STAMP`] | cycle vertex | max rank stamped by traversals (merge-max) |
//! | [`PARENT`] | contracted vertex | the vertex it was contracted into |
//!
//! The rank is packed into the pointer word so that one DHT read per hop
//! suffices, matching the paper's query accounting.
//!
//! ### The surgery, written once
//!
//! Every §3 shrinker does one operation: a survivor walks a segment of its
//! cycle, absorbs it and relinks the cycle across the gap. The vocabulary:
//!
//! * `link` — one metered read of a vertex's successor or predecessor, with
//!   its rank;
//! * `absorb` — contract a walked segment into its survivor: a `PARENT`
//!   pointer per member, then its `FWD` / `BWD` / `STAMP` entries deleted,
//!   and the members appended to the machine's retired list;
//! * `join` — relink `a → b` (`FWD a`, `BWD b`);
//! * `close` — `join(ctx, v, v)`: the survivor is its cycle's last vertex,
//!   and its retired list names it as a finished root.
//!
//! A round's result is one flat list of `u64` words, each machine's
//! appended in item order: every absorbed vertex, and every finished
//! survivor with the `ROOT` tag bit. `CycleState::settle` folds it
//! host-side.
//!
//! `chase_roots` is the other half, the `Compose` of Definition 2.1 (and
//! Claim 4.12's rooted-forest labelling): follow parent pointers to a root
//! adaptively, compressing the path where a round's hop cap cuts a chain.
//!
//! The driver (host) keeps the list of *alive* vertices — pure
//! orchestration data; every data access that the paper counts goes through
//! the DHT. Contracted vertices leave the list through dense marks in
//! `CycleState::settle`: ids are `0..n0`, so a mark is an array store, not a
//! hash-set insert.

use ampc::{AmpcConfig, AmpcResult, AmpcSystem, Key, MachineCtx, Space, SpaceWords};
use ampc_graph::euler::CycleDecomposition;

/// Keyspace: forward pointer + rank.
pub const FWD: Space = 0;
/// Keyspace: backward pointer + rank.
pub const BWD: Space = 1;
/// Keyspace: rank stamps (merge-max).
pub const STAMP: Space = 2;
/// Keyspace: contraction parent pointers (the `Compose` mapping).
pub const PARENT: Space = 3;

/// Packs a pointer word: 48-bit vertex id, 16-bit rank.
#[inline]
pub fn pack(id: u64, rank: u16) -> u64 {
    debug_assert!(id < (1 << 48));
    (id << 16) | rank as u64
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(word: u64) -> (u64, u16) {
    (word >> 16, word as u16)
}

/// Reads `v`'s pointer word in direction `dir` ([`FWD`] or [`BWD`]): its
/// successor or predecessor and its rank. One metered query.
#[inline]
pub(crate) fn link(ctx: &mut MachineCtx<'_, u64>, dir: Space, v: u64) -> (u64, u16) {
    unpack(*ctx.read(Key::new(dir, v)).expect("alive vertex must have pointers"))
}

/// Tags a finished survivor in a round's retired list. Ids are below 2^48
/// ([`pack`]), so an untagged word is an absorbed vertex.
pub(crate) const ROOT: u64 = 1 << 63;

/// Contracts `segment` into `survivor`: each member points its `PARENT` at
/// the survivor and loses its cycle entries, and is appended to `retired`.
pub(crate) fn absorb(
    ctx: &mut MachineCtx<'_, u64>,
    retired: &mut Vec<u64>,
    survivor: u64,
    segment: &[u64],
) {
    for &x in segment {
        ctx.write(Key::new(PARENT, x), survivor);
        ctx.delete(Key::new(FWD, x));
        ctx.delete(Key::new(BWD, x));
        ctx.delete(Key::new(STAMP, x));
    }
    retired.extend_from_slice(segment);
}

/// Links `a → b` with rank 0: `FWD a` and `BWD b`, each written by this
/// machine alone.
pub(crate) fn join(ctx: &mut MachineCtx<'_, u64>, a: u64, b: u64) {
    ctx.write(Key::new(FWD, a), pack(b, 0));
    ctx.write(Key::new(BWD, b), pack(a, 0));
}

/// Closes `v`'s cycle on itself, `join(ctx, v, v)`, once `v` is its only
/// vertex, and appends `v` to `retired` as a finished root.
pub(crate) fn close(ctx: &mut MachineCtx<'_, u64>, retired: &mut Vec<u64>, v: u64) {
    join(ctx, v, v);
    retired.push(ROOT | v);
}

/// Labels each vertex of `items` with the end of its pointer chain in
/// `space` (a vertex with no entry is a root), `cap` hops per vertex per
/// round: a vertex whose chain is longer writes the furthest vertex it
/// reached over its own pointer and goes again next round. Always at least
/// one round. Returns the labels, by position in `items`, and the rounds
/// spent.
///
/// # Panics
/// Panics if a chain is still unresolved after `max_rounds` rounds.
pub(crate) fn chase_roots(
    sys: &mut AmpcSystem<u64>,
    name: &'static str,
    space: Space,
    items: &[u64],
    cap: usize,
    max_rounds: usize,
) -> AmpcResult<(Vec<u64>, usize)> {
    // A vertex whose chain the cap cut reports `CUT` (ids never reach it),
    // so every item reports and round 1's results are the label array.
    const CUT: u64 = u64::MAX;
    let chase = |ctx: &mut MachineCtx<'_, u64>, v: u64| {
        let mut cur = v;
        for _ in 0..cap {
            match ctx.read(Key::new(space, cur)) {
                Some(&p) => cur = p,
                None => return Some(cur),
            }
        }
        ctx.write(Key::new(space, v), cur);
        Some(CUT)
    };
    let mut labels = sys.round(name, items, |ctx, &v| chase(ctx, v))?.results;
    // Positions in `items` of the chains the cap cut.
    let mut unresolved: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == CUT).collect();
    let mut rounds = 1;
    while !unresolved.is_empty() {
        assert!(
            rounds < max_rounds,
            "{name}: a pointer chain outlived {max_rounds} round(s) of {cap} hops — \
             contraction bookkeeping bug"
        );
        rounds += 1;
        let out = sys.round(name, &unresolved, |ctx, &i| chase(ctx, items[i]))?;
        for (&i, root) in unresolved.iter().zip(out.results) {
            labels[i] = root;
        }
        unresolved.retain(|&i| labels[i] == CUT);
    }
    Ok((labels, rounds))
}

/// A fresh system holding the cycles of the successor permutation `succ` as
/// its round-0 input: `FWD a` is `pack(succ[a], 0)` and `BWD succ[a]` is
/// `pack(a, 0)`, each keyspace filled straight from `succ`.
fn load_cycles<T: Copy + Into<u64>>(succ: &[T], config: AmpcConfig) -> AmpcSystem<u64> {
    let n0 = succ.len();
    // Every cycle keyspace is indexed by arc ids 0..n0 — size an unhinted
    // dense backend's slab accordingly.
    let backend = config.backend.with_capacity_hint(n0.max(1));
    let mut fwd = |words: &mut [u64]| {
        for (word, &s) in words.iter_mut().zip(succ) {
            *word = pack(s.into(), 0);
        }
    };
    let mut bwd = |words: &mut [u64]| {
        for (a, &s) in succ.iter().enumerate() {
            words[s.into() as usize] = pack(a as u64, 0);
        }
    };
    AmpcSystem::from_space(
        config.with_backend(backend),
        [(FWD, SpaceWords::Fill(n0, &mut fwd)), (BWD, SpaceWords::Fill(n0, &mut bwd))],
    )
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
    /// Scratch marks of `CycleState::settle`, all clear between calls.
    /// `n0` entries, allocated once.
    dead: Vec<bool>,
}

impl CycleState {
    /// Loads a [`CycleDecomposition`] into a fresh AMPC system. Loading the
    /// input is free (the model assumes the input resides in the DHT).
    pub fn from_decomposition(decomp: &CycleDecomposition, config: AmpcConfig) -> Self {
        let n0 = decomp.len();
        CycleState {
            sys: load_cycles(&decomp.succ, config),
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
        let sys = load_cycles(succ, config);
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

    /// Folds one round's retired list (see the module docs) into the host's
    /// lists: every absorbed vertex leaves the alive list (the rest keep
    /// their order), and each finished survivor leaves it too, appended to
    /// `roots` in list order. Returns `(vertices absorbed, cycles finished)`.
    pub(crate) fn settle(&mut self, retired: &[u64]) -> (usize, usize) {
        let roots_before = self.roots.len();
        for &word in retired {
            let v = word & !ROOT;
            self.dead[v as usize] = true;
            if word & ROOT != 0 {
                self.roots.push(v);
            }
        }
        let dead = &mut self.dead;
        self.alive.retain(|&v| !std::mem::take(&mut dead[v as usize]));
        debug_assert!(!dead.contains(&true), "a vertex marked dead was not alive");
        let finished = self.roots.len() - roots_before;
        (retired.len() - finished, finished)
    }

    /// Resolves the final component label of every original cycle vertex by
    /// walking `PARENT` chains adaptively — the `Compose` of Definition 2.1.
    ///
    /// Chains have length at most the number of contraction steps executed,
    /// which is `O(log* n)` — far below any machine's budget — so one AMPC
    /// round of `max_chain + 1` hops suffices; a longer chain panics.
    pub fn compose_labels(&mut self, max_chain: usize) -> AmpcResult<Vec<u64>> {
        let all: Vec<u64> = (0..self.n0 as u64).collect();
        self.compose_arcs(&all, max_chain)
    }

    /// [`CycleState::compose_labels`] for the cycle vertices `arcs` only:
    /// their labels, by position in `arcs`.
    pub fn compose_arcs(&mut self, arcs: &[u64], max_chain: usize) -> AmpcResult<Vec<u64>> {
        Ok(chase_roots(&mut self.sys, "compose", PARENT, arcs, max_chain + 1, 1)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc::{Dht, DhtBackend, DhtStorage as _};
    use ampc_graph::euler::forest_to_cycles;
    use ampc_graph::generators::ForestFamily;

    #[test]
    fn pack_unpack_roundtrip() {
        for (id, rank) in [(0u64, 0u16), (5, 9), (1, u16::MAX), ((1 << 48) - 1, u16::MAX)] {
            assert_eq!(unpack(pack(id, rank)), (id, rank));
        }
    }

    /// The state as the entry-by-entry construction built it: the
    /// predecessors inverted host-side, then `AmpcSystem::new` over
    /// interleaved `FWD` / `BWD` entries.
    fn state_by_inserts(succ: &[u64], config: AmpcConfig, alive: Vec<u64>) -> CycleState {
        let n0 = succ.len();
        let mut pred = vec![0u64; n0];
        for (a, &s) in succ.iter().enumerate() {
            pred[s as usize] = a as u64;
        }
        let backend = config.backend.with_capacity_hint(n0.max(1));
        let init = (0..n0).flat_map(|a| {
            [
                (Key::new(FWD, a as u64), pack(succ[a], 0)),
                (Key::new(BWD, a as u64), pack(pred[a], 0)),
            ]
        });
        let sys = AmpcSystem::new(config.with_backend(backend), init);
        let roots = (0..n0 as u64).filter(|&a| succ[a as usize] == a).collect();
        CycleState { sys, alive, n0, roots, dead: vec![false; n0] }
    }

    /// A `slc-jump`-shaped round: every alive vertex with id ≡ 0 (mod 3)
    /// walks `FWD` to the next such vertex, absorbs the segment between
    /// and joins across it. Returns the vertices absorbed.
    fn jump(st: &mut CycleState) -> usize {
        let marked = |x: u64| x.is_multiple_of(3);
        let out = st.sys.machine_round("jump", &st.alive, |ctx, chunk, retired| {
            let mut interior = Vec::new();
            for &v in chunk.iter().filter(|&&v| marked(v)) {
                interior.clear();
                let mut cur = link(ctx, FWD, v).0;
                while cur != v && !marked(cur) {
                    interior.push(cur);
                    cur = link(ctx, FWD, cur).0;
                }
                if interior.is_empty() {
                    continue;
                }
                absorb(ctx, retired, v, &interior);
                if cur == v {
                    close(ctx, retired, v);
                } else {
                    join(ctx, v, cur);
                }
            }
        });
        st.settle(&out.unwrap().results).0
    }

    /// What a comparison of two states reads.
    #[derive(Debug, PartialEq)]
    struct Observed {
        entries: Vec<(Key, u64)>,
        len: usize,
        /// Entries in the dense store's overflow map.
        overflow: usize,
        /// `RunStats`, which has no `PartialEq`.
        stats: String,
        alive: Vec<u64>,
        roots: Vec<u64>,
    }

    fn observe(st: &CycleState) -> Observed {
        let snap = st.sys.snapshot();
        Observed {
            entries: snap.sorted_entries(),
            len: snap.len(),
            overflow: match snap {
                Dht::Dense(dense) => dense.overflow_len(),
                _ => 0,
            },
            stats: format!("{:?}", st.sys.stats()),
            alive: st.alive.clone(),
            roots: st.roots.clone(),
        }
    }

    #[test]
    fn a_slice_load_holds_what_the_inserts_held() {
        // Each case's successors, and its decomposition when it is a forest's.
        let mut cases: Vec<(String, Vec<u64>, Option<CycleDecomposition>)> = Vec::new();
        for family in ForestFamily::ALL {
            for seed in 0..3 {
                let decomp = forest_to_cycles(&family.generate(300, seed));
                let succ = decomp.succ.iter().map(|&s| s as u64).collect();
                cases.push((format!("{} seed {seed}", family.name()), succ, Some(decomp)));
            }
        }
        for n in [1u64, 2, 40, 100] {
            let ring = (0..n).map(|i| (i + 1) % n).collect();
            cases.push((format!("ring {n}"), ring, None));
        }
        cases.push(("rings".into(), vec![1, 2, 0, 3, 5, 4, 6], None));
        for (case, succ, decomp) in cases {
            for backend in [DhtBackend::dense(), DhtBackend::Dense { cap: 32 }, DhtBackend::Flat] {
                let config = AmpcConfig::default().with_machines(4).with_backend(backend);
                let mut loaded = match &decomp {
                    Some(decomp) => CycleState::from_decomposition(decomp, config.clone()),
                    None => CycleState::from_successors(&succ, config.clone()),
                };
                let mut inserted = state_by_inserts(&succ, config, loaded.alive.clone());
                let case = format!("{case}, {backend:?}");
                assert_eq!(observe(&loaded), observe(&inserted), "{case}: after the load");
                if backend == (DhtBackend::Dense { cap: 32 }) && succ.len() > 32 {
                    assert!(observe(&loaded).overflow > 0, "{case}: the overflow map stayed empty");
                }
                let absorbed = jump(&mut loaded);
                assert!(absorbed > 0 || succ.len() < 2, "{case}: the round absorbed nothing");
                assert_eq!(jump(&mut inserted), absorbed, "{case}");
                assert_eq!(observe(&loaded), observe(&inserted), "{case}: after a round");
            }
        }
    }

    #[test]
    fn from_successors_initializes_pointers() {
        // One 3-cycle (0→1→2→0) and one singleton (3).
        let mut st =
            CycleState::from_successors(&[1, 2, 0, 3], AmpcConfig::default().with_machines(2));
        assert_eq!(st.alive, vec![0, 1, 2]);
        assert_eq!(st.roots, vec![3]);
        let (succ, _) = unpack(*st.sys.snapshot().get(Key::new(FWD, 1)).unwrap());
        assert_eq!(succ, 2);
        let (pred, _) = unpack(*st.sys.snapshot().get(Key::new(BWD, 0)).unwrap());
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
    #[should_panic(expected = "contraction bookkeeping bug")]
    fn compose_panics_on_a_chain_longer_than_its_bound() {
        let mut st = CycleState::from_successors(&[1, 2, 0, 3], AmpcConfig::default());
        st.sys.host_update(|dht| {
            dht.insert(Key::new(PARENT, 1), 0);
            dht.insert(Key::new(PARENT, 2), 1); // two hops from 2
        });
        let _ = st.compose_labels(1);
    }

    #[test]
    fn chase_compresses_long_chains_across_rounds() {
        // One 40-vertex path 39 → 38 → … → 0 and a lone root 40, 4 hops a
        // round: the deepest chain would need 10 rounds uncompressed, but
        // each round's compressed pointers stride further the next.
        let mut sys: AmpcSystem<u64> = AmpcSystem::new(
            AmpcConfig::default().with_machines(3),
            (1..40u64).map(|v| (Key::new(PARENT, v), v - 1)),
        );
        let all: Vec<u64> = (0..41).collect();
        let (labels, rounds) = chase_roots(&mut sys, "chase", PARENT, &all, 4, 32).unwrap();
        let mut expected = vec![0u64; 40];
        expected.push(40);
        assert_eq!(labels, expected);
        assert!((2..10).contains(&rounds), "{rounds} rounds");
        assert_eq!(sys.stats().rounds(), rounds);
        // Nothing to chase is still one round (the `Compose` of an empty
        // cycle collection is charged like any other).
        assert_eq!(chase_roots(&mut sys, "chase", PARENT, &[], 4, 1).unwrap(), (vec![], 1));
    }

    #[test]
    fn compose_arcs_labels_by_position_and_reads_only_their_chains() {
        // Chains 2 → 1 → 0 and 5 → 4 → 3 (two 3-cycles) and a lone root 6.
        let succ = [1, 2, 0, 4, 5, 3, 6];
        let chained = || {
            let mut st = CycleState::from_successors(&succ, AmpcConfig::default());
            st.sys.host_update(|dht| {
                for (v, p) in [(1, 0), (2, 1), (4, 3), (5, 4)] {
                    dht.insert(Key::new(PARENT, v), p);
                }
            });
            st
        };
        let mut all = chained();
        assert_eq!(all.compose_labels(4).unwrap(), [0, 0, 0, 3, 3, 3, 6]);
        let mut some = chained();
        assert_eq!(some.compose_arcs(&[6, 5, 2], 4).unwrap(), [6, 3, 0]);
        // Three hops from 2 and from 5, one from 6; the full compose also
        // walks 0, 1, 3 and 4.
        assert_eq!(some.sys.stats().total_queries(), 7);
        assert_eq!(all.sys.stats().total_queries(), 7 + 1 + 2 + 1 + 2);
    }

    #[test]
    fn settle_retires_the_absorbed_and_roots_the_finished() {
        // One 8-cycle whose alive list is deliberately not ascending.
        let succ: Vec<u64> = (0..8u64).map(|i| (i + 1) % 8).collect();
        let mut st = CycleState::from_successors(&succ, AmpcConfig::default());
        st.alive = vec![5, 2, 7, 0, 3, 6, 1, 4];
        // Two machines' lists, back to back: 7 and 3 went into 5, 4 into 0.
        assert_eq!(st.settle(&[7, 3, 4]), (3, 0));
        assert_eq!(st.alive, vec![5, 2, 0, 6, 1]);
        assert!(st.roots.is_empty());
        // Every mark was consumed: settling nothing removes nothing.
        assert_eq!(st.settle(&[]), (0, 0));
        assert_eq!(st.alive, vec![5, 2, 0, 6, 1]);
        // A tagged word is a finished root, not an absorbed vertex: roots
        // are appended in list order (2 before 6, against the alive order),
        // after the existing ones, and their tag is stripped.
        st.roots.push(9);
        assert_eq!(st.settle(&[5, 0, 1, ROOT | 2, ROOT | 6]), (3, 2));
        assert!(st.alive.is_empty());
        assert_eq!(st.roots, vec![9, 2, 6]);
    }
}
