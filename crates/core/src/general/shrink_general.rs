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
//! Step 1 is what keeps the rest in `O(1)` words per value: a `G3`
//! adjacency list is at most three vertex ids, so [`GVal`] stores it inline
//! (no heap behind any DHT entry), and step 3's search keeps one queue of at
//! most `3t − 2` words that doubles as its visited set — machine-local
//! memory for `t = O(√S)`. See DESIGN.md, "ShrinkGeneral values are
//! fixed-width".
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

use std::cell::RefCell;

use ampc::{AmpcConfig, AmpcResult, AmpcSystem, DhtValue, Key, RunStats, Space};
use ampc_graph::contract::contract;
use ampc_graph::degree3::to_degree3;
use ampc_graph::{Graph, VertexId};

use crate::cycles::{chase_roots, Pointer};

/// Keyspace: adjacency lists of `G3`.
const ADJ: Space = 0;
/// Keyspace: super-edge parent pointers.
const SUPER: Space = 1;

thread_local! {
    /// The `sg-bfs` queue, one per worker thread (see step 3).
    static BFS_QUEUE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// DHT value for the general-graph algorithms: either an adjacency list of
/// `G3` or a scalar word.
///
/// Fixed-width by design: step 1 bounds every degree by 3, so an adjacency
/// list is three inline vertex ids and a length — `O(1)` words, as §4.3
/// needs for a truncated BFS to fit in local memory — and the whole value
/// is `Copy` and 16 bytes, with no heap behind any DHT entry.
#[derive(Clone, Copy, Debug)]
pub enum GVal {
    /// Adjacency list (charged one word of header plus one per neighbor).
    /// Built by [`GVal::adj`], which checks the degree bound.
    Adj {
        /// Number of neighbors, at most 3.
        len: u8,
        /// The neighbors, in `nbrs[..len]`.
        nbrs: [VertexId; 3],
    },
    /// A scalar (a parent pointer).
    Num(u64),
}

impl GVal {
    /// The adjacency value of `G3` vertex `v`.
    ///
    /// # Panics
    /// Panics if `neighbors` holds more than 3 vertices: the degree-3
    /// transform's postcondition is this value's precondition.
    pub fn adj(v: VertexId, neighbors: &[VertexId]) -> Self {
        assert!(
            neighbors.len() <= 3,
            "G3 vertex {v} has degree {}: the degree-3 transform must bound every degree by 3",
            neighbors.len()
        );
        let mut nbrs = [0; 3];
        nbrs[..neighbors.len()].copy_from_slice(neighbors);
        GVal::Adj { len: neighbors.len() as u8, nbrs }
    }

    fn num(&self) -> u64 {
        match self {
            GVal::Num(x) => *x,
            GVal::Adj { .. } => panic!("expected scalar DHT value, found adjacency list"),
        }
    }
}

impl Pointer for GVal {
    fn from_id(id: u64) -> Self {
        GVal::Num(id)
    }
    fn id(self) -> u64 {
        self.num()
    }
}

/// `Num(0)`: the fill value of an empty dense slot.
impl Default for GVal {
    fn default() -> Self {
        GVal::Num(0)
    }
}

impl DhtValue for GVal {
    fn words(&self) -> usize {
        match self {
            GVal::Adj { len, .. } => 1 + *len as usize,
            GVal::Num(_) => 1,
        }
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
    // Step 1: degree-3 transform (host-side cited primitive; charged).
    let d3 = to_degree3(g);
    let n3 = d3.graph.n();
    let m3 = d3.graph.m();

    // Both keyspaces here (ADJ/SUPER) are indexed by G3 vertex ids 0..n3 —
    // the dense backend's slab hint.
    let backend = ampc_cfg.backend.with_capacity_hint(n3.max(1));
    let ampc_cfg = ampc_cfg.with_backend(backend);
    let mut sys: AmpcSystem<GVal> = AmpcSystem::new(
        ampc_cfg,
        (0..n3 as VertexId).map(|v| (Key::new(ADJ, v as u64), GVal::adj(v, d3.graph.neighbors(v)))),
    );
    sys.stats_mut().charge_external(1, 2 * g.m(), 2 * (g.n() + g.m()));

    let items: Vec<u64> = (0..n3 as u64).collect();

    // Steps 2 and 3: truncated BFS from every vertex. A vertex's rank is the
    // first draw of `ctx.rng(0, x)`, which every machine of this round
    // evaluates alike, so comparing ranks reads nothing.
    let queue_bound = t.saturating_mul(3) - 2;
    let bfs_before = sys.stats().total_queries();
    sys.round("sg-bfs", &items, |ctx, &v| {
        // FIFO walked by `head` and never popped: every vertex the search
        // marks visited is queued, so the queue is also the visited set. It
        // holds v plus at most 3 neighbors of each of the < t expanded
        // vertices — 3t − 2 words, within local memory for t = O(√S) — and
        // is reserved at that bound, so it never reallocates. One buffer
        // per worker thread, cleared per start vertex: allocating it per
        // start costs a malloc each, and past glibc's ≈ 1 KiB thread cache
        // limit (t ≥ 44) a slow one.
        BFS_QUEUE.with_borrow_mut(|queue| {
            queue.clear();
            queue.reserve(queue_bound.min(n3));
            let me = (ctx.rng(0, v).next_u64(), v);
            queue.push(v);
            let mut head = 0usize;
            while head < queue.len() {
                // Stop (a): the search has explored t vertices (v itself
                // counts, so t = 1 performs no expansion and every vertex is
                // a root).
                if head + 1 >= t {
                    return;
                }
                let u = queue[head];
                head += 1;
                let (len, nbrs) = match ctx.read(Key::new(ADJ, u)) {
                    Some(&GVal::Adj { len, nbrs }) => (len as usize, nbrs),
                    _ => panic!("missing adjacency"),
                };
                for &w in &nbrs[..len] {
                    let w = w as u64;
                    if queue.contains(&w) {
                        continue;
                    }
                    if (ctx.rng(0, w).next_u64(), w) < me {
                        // Stop (c): lower-rank vertex reached → super-edge w → v.
                        ctx.write(Key::new(SUPER, v), GVal::Num(w));
                        return;
                    }
                    queue.push(w);
                    debug_assert!(queue.len() <= queue_bound, "BFS queue outgrew 3t - 2 (t={t})");
                }
            }
            // Stop (b): component exhausted → v is a root.
        });
        None::<()>
    })?;
    let bfs_queries = sys.stats().total_queries() - bfs_before;

    // Step 4: label the rooted super-edge forest (Claim 4.12).
    let (labels3, chase_rounds) = chase_roots(
        &mut sys,
        "sg-chase",
        SUPER,
        &(0..n3 as u64).collect::<Vec<_>>(),
        chase_cap.max(2),
        32,
    )?;

    // Contract(G3, C) — cited O(1)-round primitive, charged.
    let contraction = contract(&d3.graph, &labels3);
    sys.stats_mut().charge_external(1, 2 * m3, 2 * (n3 + m3));

    // Map each input vertex through its first gadget copy.
    let mut to_h = vec![VertexId::MAX; g.n()];
    for (v3, &orig) in d3.origin.iter().enumerate() {
        if to_h[orig as usize] == VertexId::MAX {
            to_h[orig as usize] = contraction.class_of[v3];
        }
    }

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
    use ampc::{Dht, DhtBackend, DhtStorage as _};
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
    fn values_are_fixed_width_and_charged_by_degree() {
        assert!(std::mem::size_of::<GVal>() <= 16, "a dense slot must stay two words");
        for degree in 0..=3usize {
            assert_eq!(GVal::adj(7, &[1, 2, 3][..degree]).words(), 1 + degree);
        }
        assert_eq!(GVal::Num(u64::MAX).words(), 1);
    }

    #[test]
    fn a_dense_store_round_trips_adjacency_and_zero() {
        // `Num(0)` is also the fill value of an empty slot.
        let mut dht: Dht<GVal> = Dht::for_backend(DhtBackend::Dense { cap: 100 });
        let (adj, zero) = (Key::new(0, 99), Key::new(1, 64));
        dht.insert(adj, GVal::adj(99, &[1, 2, 3]));
        dht.insert(zero, GVal::Num(0));
        assert!(matches!(dht.get(adj), Some(GVal::Adj { len: 3, nbrs: [1, 2, 3] })));
        assert!(matches!(dht.get(zero), Some(GVal::Num(0))));
        assert!(dht.get(Key::new(1, 63)).is_none());
        assert_eq!((dht.len(), dht.words()), (2, 5));
        assert!(matches!(dht.remove(zero), Some(GVal::Num(0))));
        assert!(dht.get(zero).is_none());
        assert!(matches!(dht.get(adj), Some(GVal::Adj { len: 3, .. })));
    }

    #[test]
    #[should_panic(expected = "G3 vertex 7 has degree 4")]
    fn degree_four_adjacency_is_rejected() {
        GVal::adj(7, &[1, 2, 3, 4]);
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
            let names: Vec<&str> = out.stats.per_round().iter().map(|r| &*r.name).collect();
            let mut expected = vec!["sg-bfs"];
            expected.extend(std::iter::repeat_n("sg-chase", out.chase_rounds));
            assert_eq!(names, expected, "t={t}");
        }
    }

    #[test]
    fn single_round_chase_in_practice() {
        let g = erdos_renyi_gnm(3000, 6000, 23);
        let out = assert_cc_shrinking(&g, 16, 6);
        assert_eq!(out.chase_rounds, 1, "decreasing-rank chains should resolve in one round");
    }
}
