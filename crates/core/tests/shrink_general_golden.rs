//! Golden fingerprints of `ShrinkGeneral`'s whole observable outcome.
//!
//! Each fingerprint covers the output graph `H`, the input → `H` map, the
//! BFS queries, the roots, the chase rounds and every per-round stats row:
//! a change to the adjacency layout, the BFS bookkeeping or
//! `Graph::from_edges` that moves any read, write, word count, super-edge
//! or output edge shows up here as a changed fingerprint. All three storage
//! backends must produce the same one (the backend is an execution detail).
//!
//! The rows were re-recorded when a `G3` adjacency became two `u64`
//! entries of the `ADJ` keyspace: every BFS expansion reads two one-word
//! entries, so the queries and words in `stats` moved, while a
//! fingerprint of `H`, the map, the roots, the chase rounds and the round
//! count alone did not, on any row or backend. They were re-recorded when
//! `RoundStats` lost its three word counters, copies of `reads`, `writes`
//! and `snapshot_entries`: the `{:?}` of `stats` lost three columns, while
//! a fingerprint of every output and every surviving stats field did not
//! move on any row or backend. They were last re-recorded when
//! `RoundStats` lost its always-empty violation list: every new value is
//! the FNV-1a of the old fingerprint text with each `, violations: []`
//! removed.
//!
//! The `pa` graph is `preferential_attachment` after it stopped iterating a
//! `HashSet`, so its graph is the same from run to run.
//!
//! The paper's Claim 4.12 construction (`resolve_roots_euler`), which
//! ShrinkGeneral does not run, is pinned by `forest_golden.rs`.

use ampc::{AmpcConfig, DhtBackend};
use ampc_cc::general::shrink_general::shrink_general;
use ampc_graph::generators::{erdos_renyi_gnm, grid2d, preferential_attachment};
use ampc_graph::Graph;

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn fingerprint(g: &Graph, t: usize, backend: DhtBackend) -> u64 {
    let cfg = AmpcConfig::default().with_machines(4).with_seed(0x601D).with_backend(backend);
    let out = shrink_general(g, t, 4096, cfg).unwrap();
    let edges: Vec<_> = out.h.edges().collect();
    fnv1a(&format!(
        "{} {edges:?} {:?} {} {} {} {:?}",
        out.h.n(),
        out.to_h,
        out.bfs_queries,
        out.h.n(),
        out.chase_rounds,
        out.stats
    ))
}

/// `(graph, t, fingerprint)`, graphs in the order of `graphs()`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("er", 1, 0x1214_2ff2_ffc5_63ef),
    ("er", 2, 0x52b5_ebc9_2364_9cc1),
    ("er", 16, 0x3388_6d96_a705_7c35),
    ("er", 64, 0x78d8_8dab_cc15_fc2b),
    ("grid", 1, 0xfb40_9157_deab_43f2),
    ("grid", 2, 0xefa7_6357_7b2d_1cbe),
    ("grid", 16, 0x9183_a476_378a_63ac),
    ("grid", 64, 0xfd6e_0171_6f35_a62c),
    ("pa", 1, 0x4ac0_ff4a_1e30_2d5c),
    ("pa", 2, 0x8d35_e793_5cd8_eff9),
    ("pa", 16, 0xce60_28f1_c1cd_6e17),
    ("pa", 64, 0xae16_b3bb_5d71_8778),
];

fn graphs() -> [(&'static str, Graph); 3] {
    [
        ("er", erdos_renyi_gnm(600, 1500, 41)),
        ("grid", grid2d(20, 25)),
        ("pa", preferential_attachment(500, 3, 43)),
    ]
}

#[test]
fn outcome_is_byte_identical_to_the_recorded_parent() {
    let graphs = graphs();
    let mut actual = Vec::new();
    for (name, g) in &graphs {
        for t in [1usize, 2, 16, 64] {
            let flat = fingerprint(g, t, DhtBackend::Flat);
            for backend in [DhtBackend::sharded(), DhtBackend::dense()] {
                assert_eq!(
                    fingerprint(g, t, backend),
                    flat,
                    "{name} t={t}: {backend:?} differs from flat"
                );
            }
            actual.push((*name, t, flat));
        }
    }
    assert_eq!(actual.as_slice(), GOLDEN, "actual table: {actual:#x?}");
}
