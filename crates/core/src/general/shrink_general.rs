//! `ShrinkGeneral` — the CC-shrinking algorithm of Lemma 4.2.
//!
//! For a parameter `1 ≤ t = O(√S)`, outputs a graph `H` with
//! `E[|V(H)|] = O(m/t)` and `|E(H)| = O(m)` in `O(1)` AMPC rounds using
//! `O(m log t)` space in expectation. Following §4.3 (which extends
//! Algorithm 1 of [BDE+20]):
//!
//! 1. transform `G` into `G3` of maximum degree 3 (vertex → cycle gadget);
//! 2. give every vertex a uniformly random rank — a public hash of
//!    `(seed, round, vertex)` that the BFS evaluates wherever it compares
//!    ranks, so no round writes it and no read fetches it;
//! 3. run a truncated BFS from every vertex `v`, stopping when (a) `t`
//!    vertices have been explored, (b) the component is exhausted, or
//!    (c) a vertex `w` of *lower* rank is reached — in which case a
//!    directed super-edge `w → v` is created (i.e. `v`'s parent is `w`);
//! 4. the super-edges form a forest of rooted trees and the probability of
//!    being a root is `O(1/t)`; compute a CC-labeling of that forest and
//!    return `Contract(G3, C)`.
//!
//! Claim 4.11 (the paper's improvement over [BDE+20]) says the BFS step
//! costs `O(m log t)` expected total queries — measured by experiment E6.
//!
//! Step 1 is what keeps the rest in `O(1)` words: a `G3` adjacency list is
//! at most three 32-bit vertex ids and a length, so it is two `u64` entries
//! of the `ADJ` keyspace ([`pack_adj`]) and every DHT value is one word.
//! `G3` is written once, as those words ([`degree3_words`]): the store
//! loads them as its `ADJ` keyspace, and `Contract(G3, C)` walks them.
//! Step 3's search keeps a FIFO queue of at most `3t − 2` words and
//! a visited set of at most twice that many (`VisitedSet`), so each
//! neighbour it looks at costs `O(1)` local work — machine-local memory
//! for `t = O(√S)`. Each machine builds the pair once (`Bfs`) and searches
//! from every vertex of its chunk with it. See DESIGN.md, "A G3 adjacency
//! is two words" and "The BFS keeps a queue and an epoch-stamped visited
//! set".
//!
//! Step 4's rooted-forest labeling (Claim 4.12) is `cycles::chase_roots`,
//! adaptive root-chasing with path compression: every vertex follows
//! parent pointers (ranks strictly decrease along them, so chains are short
//! — `O(log n)` in expectation) and rewrites its pointer to the furthest
//! vertex reached if the walk is capped. One round suffices unless a chain
//! exceeds the machine budget; the chase charges exactly the rounds it
//! uses. The paper's own construction is
//! [`resolve_roots_euler`](crate::general::rooted_forest::resolve_roots_euler),
//! measured against this one by experiment E11. See DESIGN.md
//! (substitutions) for why the chase preserves the cited interface.
//!
//! [`pack_adj`]: ampc_graph::degree3::pack_adj
//! [`degree3_words`]: ampc_graph::degree3::degree3_words

use ampc::{AmpcConfig, AmpcResult, AmpcSystem, Key, RunStats, Space, SpaceWords};
use ampc_graph::contract::contract_degree3;
use ampc_graph::degree3::{degree3_words, unpack_adj};
use ampc_graph::{Graph, VertexId};

use crate::cycles::chase_roots;

/// Keyspace: the adjacency lists of `G3`, two words a vertex ([`pack_adj`]).
///
/// [`pack_adj`]: ampc_graph::degree3::pack_adj
const ADJ: Space = 0;
/// Keyspace: super-edge parent pointers, the bare parent id.
const SUPER: Space = 1;

/// The vertices one truncated search has queued, for `O(1)` membership
/// tests: an open-addressed table of at least twice the search's bound of
/// queued vertices, so its load stays at most ½. A slot holds a stamp in
/// its high half and a vertex in its low half and is live only while its
/// stamp is the current search's epoch, so starting a search is one
/// increment and not a clear.
struct VisitedSet {
    /// `epoch << 32 | vertex`; a power-of-two count of slots.
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`: a multiplicative hash's top bits pick a slot.
    shift: u32,
    /// The current search's stamp. Stamp 0 marks a never-written slot, so
    /// a live epoch is at least 1.
    epoch: u32,
}

impl VisitedSet {
    fn new() -> Self {
        VisitedSet { slots: Vec::new(), shift: 64, epoch: 0 }
    }

    /// Empties the set for a search that inserts at most `bound ≥ 1`
    /// vertices, regrowing the table if `bound` outgrew it.
    fn start(&mut self, bound: usize) {
        let len = (2 * bound).next_power_of_two();
        if self.slots.len() < len {
            self.slots = vec![0; len];
            self.shift = 64 - len.trailing_zeros();
            self.epoch = 0;
        } else if self.epoch == u32::MAX {
            // A stamp of the wrapped epoch would read as live again.
            self.slots.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Adds vertex `w < 2^32` and returns whether it was absent.
    #[inline]
    fn insert(&mut self, w: u64) -> bool {
        debug_assert!(w <= u32::MAX as u64, "vertex {w} does not fit a slot");
        let mask = self.slots.len() - 1;
        let mut i = (w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if (slot >> 32) as u32 != self.epoch {
                self.slots[i] = (self.epoch as u64) << 32 | w;
                return true;
            }
            if slot & 0xFFFF_FFFF == w {
                return false;
            }
            i = (i + 1) & mask;
        }
    }
}

/// One machine's step-3 scratch: the queue and visited set that every start
/// vertex of its chunk searches with, in turn.
struct Bfs {
    /// A FIFO walked by a head index and never popped. It holds v plus at
    /// most 3 neighbours of each of the < t expanded vertices — 3t − 2
    /// words, within local memory for t = O(√S) — and is reserved at that
    /// bound, so it never reallocates. Allocating it per start vertex costs
    /// a malloc each, and past glibc's ≈ 1 KiB thread cache limit (t ≥ 44)
    /// a slow one.
    queue: Vec<u64>,
    visited: VisitedSet,
    /// Stop (a): a search explores at most `t` vertices.
    t: usize,
    /// The most vertices one search queues, `≥ 1`.
    bound: usize,
}

impl Bfs {
    fn new(t: usize, bound: usize) -> Self {
        Bfs { queue: Vec::with_capacity(bound), visited: VisitedSet::new(), t, bound }
    }

    /// Step 3 from start vertex `v`: `Some(w)` if the search reached a
    /// vertex `w` of lower rank (the super-edge `w → v`), `None` if `v` is a
    /// root. `rank` gives a vertex's rank, `adjacency` its neighbours (the
    /// first `len`) and `len`.
    fn search(
        &mut self,
        v: u64,
        rank: impl Fn(u64) -> u64,
        mut adjacency: impl FnMut(u64) -> ([u64; 3], usize),
    ) -> Option<u64> {
        let Bfs { queue, visited, t, bound } = self;
        queue.clear();
        visited.start(*bound);
        let me = (rank(v), v);
        queue.push(v);
        visited.insert(v);
        let mut head = 0usize;
        while head < queue.len() {
            // Stop (a): the search has explored t vertices (v itself counts,
            // so t = 1 performs no expansion and every vertex is a root).
            if head + 1 >= *t {
                return None;
            }
            let u = queue[head];
            head += 1;
            let (nbrs, len) = adjacency(u);
            for &w in &nbrs[..len] {
                if !visited.insert(w) {
                    continue;
                }
                if (rank(w), w) < me {
                    // Stop (c): lower-rank vertex reached → super-edge w → v.
                    return Some(w);
                }
                queue.push(w);
                debug_assert!(queue.len() <= *bound, "BFS queue outgrew min(3t - 2, n3) (t={t})");
            }
        }
        // Stop (b): component exhausted → v is a root.
        None
    }
}

/// Result of a `ShrinkGeneral` invocation.
#[derive(Debug)]
pub struct ShrinkGeneralOutcome {
    /// The shrunk graph `H` (a contraction of `G3`, hence of `G`).
    pub h: Graph,
    /// Mapping from input vertices to `H` vertices (any gadget copy works:
    /// copies of one vertex are connected in `G3`, so their classes lie in
    /// one component of `H`).
    pub to_h: Vec<VertexId>,
    /// AMPC accounting for this invocation.
    pub stats: RunStats,
    /// Queries spent in the truncated-BFS round (Claim 4.11's `O(m log t)`).
    pub bfs_queries: usize,
    /// Number of super-edge roots (`E = O(m/t)` by Lemma 3.3 of [BDE+20]).
    pub roots: usize,
    /// Vertices of the degree-3 transform.
    pub n3: usize,
    /// Rounds spent chasing super-edge parents (1 unless chains exceeded
    /// the budget).
    pub chase_rounds: usize,
}

/// Runs `ShrinkGeneral(G, t)`.
///
/// `chase_cap` bounds each adaptive walk (use the machine budget `S`).
pub fn shrink_general(
    g: &Graph,
    t: usize,
    chase_cap: usize,
    ampc_cfg: AmpcConfig,
) -> AmpcResult<ShrinkGeneralOutcome> {
    let t = t.max(1);
    // Step 1: degree-3 transform (host-side cited primitive; charged),
    // written as the ADJ words and loaded as the store's input.
    let g3 = degree3_words(g);
    let (n3, m3) = (g3.n(), g3.m);

    // ADJ holds two words per G3 vertex (ids 0..2·n3), SUPER one (0..n3):
    // the dense backend's slab hint.
    let backend = ampc_cfg.backend.with_capacity_hint(2 * n3.max(1));
    let ampc_cfg = ampc_cfg.with_backend(backend);
    let mut sys: AmpcSystem<u64> =
        AmpcSystem::from_space(ampc_cfg, [(ADJ, SpaceWords::Slice(&g3.words))]);
    sys.stats_mut().charge_external(1, 2 * g.m(), 2 * (g.n() + g.m()));

    let items: Vec<u64> = (0..n3 as u64).collect();

    // Steps 2 and 3: truncated BFS from every vertex. A vertex's rank is the
    // first draw of its member of the round's tag-0 family (`ctx.draws(0)`),
    // which every machine of this round evaluates alike, so comparing ranks
    // reads nothing. A search queues at most 3t − 2 vertices, and no more
    // than G3 has. Each machine takes the family and its `Bfs` scratch once
    // and searches from every vertex of its chunk with them.
    let bound = (t.saturating_mul(3) - 2).min(n3);
    let bfs_before = sys.stats().total_queries();
    sys.machine_round("sg-bfs", &items, |ctx, chunk, _: &mut Vec<()>| {
        let ranks = ctx.draws(0);
        let mut bfs = Bfs::new(t, bound);
        for &v in chunk {
            let parent = bfs.search(
                v,
                |w| ranks.at(w).next_u64(),
                |u| {
                    let lo = *ctx.read(Key::new(ADJ, 2 * u)).expect("missing adjacency");
                    let hi = *ctx.read(Key::new(ADJ, 2 * u + 1)).expect("missing adjacency");
                    unpack_adj(lo, hi)
                },
            );
            if let Some(w) = parent {
                ctx.write(Key::new(SUPER, v), w);
            }
        }
    })?;
    let bfs_queries = sys.stats().total_queries() - bfs_before;

    // Step 4: label the rooted super-edge forest (Claim 4.12).
    let (labels3, chase_rounds) =
        chase_roots(&mut sys, "sg-chase", SUPER, &items, chase_cap.max(2), 32)?;

    // Contract(G3, C) — cited O(1)-round primitive, charged. It walks the
    // words the store was loaded from, not the store: the Flat backend
    // would pay a hash probe per word.
    let contraction = contract_degree3(&g3, &labels3);
    sys.stats_mut().charge_external(1, 2 * m3, 2 * (n3 + m3));

    // Map each input vertex through its first gadget copy.
    let to_h = g3.base[..g.n()].iter().map(|&copy| contraction.class_of[copy as usize]).collect();

    let (_, stats) = sys.finish();
    Ok(ShrinkGeneralOutcome {
        // One vertex of H per root, i.e. per class of C.
        roots: contraction.graph.n(),
        h: contraction.graph,
        to_h,
        stats,
        bfs_queries,
        n3,
        chase_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::degree3::to_degree3;
    use ampc_graph::generators::{erdos_renyi_gnm, grid2d, preferential_attachment};
    use ampc_graph::{reference_components, Labeling};

    fn cfg(seed: u64) -> AmpcConfig {
        AmpcConfig::default().with_machines(4).with_seed(seed)
    }

    /// `ShrinkGeneral` must be CC-shrinking: labeling H + mapping → correct
    /// labeling of G (Definition 2.1).
    fn assert_cc_shrinking(g: &Graph, t: usize, seed: u64) -> ShrinkGeneralOutcome {
        let out = shrink_general(g, t, 4096, cfg(seed)).unwrap();
        let h_labels = reference_components(&out.h);
        let g_labels: Vec<u64> = out.to_h.iter().map(|&c| h_labels.get(c)).collect();
        assert!(
            Labeling(g_labels).same_partition(&reference_components(g)),
            "composition broke components (t={t})"
        );
        out
    }

    #[test]
    fn shrinks_er_graph_correctly() {
        let g = erdos_renyi_gnm(500, 1200, 3);
        for t in [1, 2, 4, 16, 64] {
            assert_cc_shrinking(&g, t, t as u64);
        }
    }

    #[test]
    fn vertex_reduction_scales_with_t() {
        // Lemma 4.2: E|V(H)| = O(m/t). Doubling t should roughly halve |V(H)|.
        let g = erdos_renyi_gnm(4000, 10_000, 7);
        let v4 = assert_cc_shrinking(&g, 4, 1).h.n();
        let v32 = assert_cc_shrinking(&g, 32, 2).h.n();
        assert!(
            (v32 as f64) < (v4 as f64) * 0.4,
            "t=32 gave {v32} vertices vs t=4 giving {v4}: no m/t scaling"
        );
    }

    #[test]
    fn root_probability_near_one_over_t() {
        let g = erdos_renyi_gnm(3000, 9000, 11);
        let t = 16usize;
        let out = assert_cc_shrinking(&g, t, 5);
        let rate = out.roots as f64 / out.n3 as f64;
        // Lemma 3.3 of [BDE+20]: P(root) = O(1/t). Allow a small constant.
        assert!(rate < 4.0 / t as f64, "root rate {rate} vs 1/t = {}", 1.0 / t as f64);
    }

    #[test]
    fn bfs_queries_are_m_log_t_shaped() {
        // Claim 4.11: expected BFS space O(m log t) — i.e. queries per G3
        // vertex should grow like log t, not like t.
        let g = erdos_renyi_gnm(4000, 8000, 13);
        let q4 = assert_cc_shrinking(&g, 4, 1).bfs_queries as f64;
        let q64 = assert_cc_shrinking(&g, 64, 1).bfs_queries as f64;
        // t grew 16×; log t grew 3×; queries must stay well below 16×.
        assert!(q64 < 6.0 * q4, "BFS queries {q4} → {q64}: grows like t, not log t");
    }

    #[test]
    fn disconnected_graph_components_survive() {
        let g = ampc_graph::generators::disjoint_cliques(10, 12);
        let out = assert_cc_shrinking(&g, 8, 9);
        assert!(reference_components(&out.h).num_components() == 10);
    }

    #[test]
    fn grid_and_power_law_workloads() {
        assert_cc_shrinking(&grid2d(30, 30), 8, 1);
        assert_cc_shrinking(&preferential_attachment(800, 3, 2), 8, 2);
    }

    #[test]
    fn t_equals_one_still_valid() {
        // Degenerate t: every vertex is a root; H ≅ G3 contract-by-identity.
        let g = erdos_renyi_gnm(200, 400, 17);
        let out = assert_cc_shrinking(&g, 1, 3);
        assert_eq!(out.h.n(), out.n3);
    }

    #[test]
    fn edge_bound_preserved() {
        // |E(H)| = O(m): contraction never adds edges.
        let g = erdos_renyi_gnm(2000, 6000, 19);
        let out = assert_cc_shrinking(&g, 16, 4);
        assert!(out.h.m() <= g.m() + out.n3); // gadget cycle edges also shrink
    }

    #[test]
    fn ranks_are_evaluated_not_stored() {
        // No round writes a rank before the BFS, which evaluates them, and
        // only the super-edge chase follows it (for several rounds at a
        // 2-hop cap).
        let g = erdos_renyi_gnm(500, 1200, 3);
        for (t, chase_cap) in [(16, 4096), (4, 2)] {
            let out = shrink_general(&g, t, chase_cap, cfg(1)).unwrap();
            let names: Vec<&str> = out.stats.per_round().iter().map(|r| r.name).collect();
            let mut expected = vec!["sg-bfs"];
            expected.extend(std::iter::repeat_n("sg-chase", out.chase_rounds));
            assert_eq!(names, expected, "t={t}");
        }
    }

    /// The live entries of `set`'s current search.
    fn live(set: &VisitedSet) -> usize {
        set.slots.iter().filter(|&&slot| (slot >> 32) as u32 == set.epoch).count()
    }

    #[test]
    fn a_repeated_insert_is_refused() {
        let mut set = VisitedSet::new();
        set.start(4);
        for w in [0, 7, u32::MAX as u64] {
            assert!(set.insert(w), "first insert of {w}");
            assert!(!set.insert(w), "second insert of {w}");
        }
        assert_eq!(live(&set), 3);
    }

    #[test]
    fn a_new_search_hides_the_last_ones_vertices() {
        let mut set = VisitedSet::new();
        set.start(8);
        for w in 0..8 {
            assert!(set.insert(w));
        }
        set.start(8);
        assert_eq!(live(&set), 0);
        for w in 0..8 {
            assert!(set.insert(w), "vertex {w} survived into the next search");
        }
    }

    #[test]
    fn the_epoch_wraps_by_clearing_the_stamps() {
        let mut set = VisitedSet::new();
        set.start(4);
        assert_eq!(set.epoch, 1);
        assert!(set.insert(9)); // stamped with epoch 1
        set.epoch = u32::MAX - 1;
        set.start(4);
        assert_eq!(set.epoch, u32::MAX);
        assert!(set.insert(3));
        assert!(!set.insert(3));
        set.start(4);
        assert_eq!(set.epoch, 1, "the epoch after u32::MAX");
        assert_eq!(live(&set), 0, "a stamp from before the wrap reads as live");
        assert!(set.insert(9));
        assert!(set.insert(3));
    }

    #[test]
    fn the_table_regrows_with_the_bound() {
        let mut set = VisitedSet::new();
        set.start(3);
        assert_eq!(set.slots.len(), 8);
        assert!(set.insert(1));
        set.start(100);
        assert_eq!(set.slots.len(), 256);
        assert_eq!(live(&set), 0);
        for w in 0..100 {
            assert!(set.insert(w));
        }
        // A smaller bound keeps the larger table.
        set.start(3);
        assert_eq!(set.slots.len(), 256);
        assert!(set.insert(1));
    }

    #[test]
    fn the_load_stays_at_most_one_half() {
        let mut set = VisitedSet::new();
        for bound in (1..=300).chain([1 << 12, 3 * 64 - 2]) {
            set.slots = Vec::new(); // sized by this bound alone
            set.start(bound);
            // Ids a multiplicative hash spreads worst: multiples of a power of two.
            for k in 0..bound as u64 {
                assert!(set.insert(k << 20), "bound {bound}: id {} refused", k << 20);
            }
            assert_eq!(live(&set), bound);
            assert!(2 * bound <= set.slots.len(), "bound {bound}: load above 1/2");
            assert!(set.slots.len().is_power_of_two());
        }
    }

    /// `Bfs::search` with the queue as its own visited set, scanned by
    /// `queue.contains` (the search before `VisitedSet`).
    fn search_by_queue_scan(
        g3: &Graph,
        v: u64,
        t: usize,
        rank: impl Fn(u64) -> u64,
    ) -> Option<u64> {
        let me = (rank(v), v);
        let mut queue = vec![v];
        let mut head = 0;
        while head < queue.len() {
            if head + 1 >= t {
                return None;
            }
            let u = queue[head];
            head += 1;
            for &w in g3.neighbors(u as VertexId) {
                let w = w as u64;
                if queue.contains(&w) {
                    continue;
                }
                if (rank(w), w) < me {
                    return Some(w);
                }
                queue.push(w);
            }
        }
        None
    }

    #[test]
    fn every_search_matches_the_queue_scan() {
        for family in ampc_graph::generators::GraphFamily::ALL {
            let g3 = to_degree3(&family.generate(300, 5)).graph;
            let n3 = g3.n();
            for t in [1, 2, 3, 16, 64] {
                let ranks = ampc::rng::Draws::new(t as u64, 0, 0);
                let rank = |w: u64| ranks.at(w).next_u64();
                let adjacency = |u: u64| {
                    let list = g3.neighbors(u as VertexId);
                    let n = |i| list.get(i).map_or(0, |&w| w as u64);
                    ([n(0), n(1), n(2)], list.len())
                };
                // One machine's scratch, reused by every start vertex.
                let mut bfs = Bfs::new(t, (3 * t - 2).min(n3));
                let (mut parents, mut roots) = (0, 0);
                for v in 0..n3 as u64 {
                    let got = bfs.search(v, rank, adjacency);
                    assert_eq!(
                        got,
                        search_by_queue_scan(&g3, v, t, rank),
                        "{} t={t} v={v}",
                        family.name()
                    );
                    if got.is_some() {
                        parents += 1;
                    } else {
                        roots += 1;
                    }
                }
                if t > 1 {
                    assert!(parents > 0 && roots > 0, "{} t={t}: a trivial case", family.name());
                }
            }
        }
    }

    #[test]
    fn single_round_chase_in_practice() {
        let g = erdos_renyi_gnm(3000, 6000, 23);
        let out = assert_cc_shrinking(&g, 16, 6);
        assert_eq!(out.chase_rounds, 1, "decreasing-rank chains should resolve in one round");
    }
}
