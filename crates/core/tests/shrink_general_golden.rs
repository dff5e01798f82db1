//! Golden fingerprints of `ShrinkGeneral`'s whole observable outcome.
//!
//! The values below were recorded by running this same test at the commit
//! before `GVal` became fixed-width (PR 13, `371ed8c`): a change to the
//! value representation, the BFS bookkeeping or `Graph::from_edges` that
//! moves any read, write, word count, super-edge or output edge shows up
//! here as a changed fingerprint. All three storage backends must produce
//! the same one (the backend is an execution detail).
//!
//! The `pa` rows were recorded at that commit with one fix applied to it:
//! `preferential_attachment` iterated a `HashSet`, so its graph differed
//! from run to run and no fingerprint of it could be pinned.
//!
//! Every row was re-recorded since, when a vertex's rank became a hash the
//! BFS evaluates instead of a round and a keyspace that store it: that
//! drops a round and every rank read from each run's `stats`.
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
        out.roots,
        out.chase_rounds,
        out.stats
    ))
}

/// `(graph, t, fingerprint)`, graphs in the order of `graphs()`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("er", 1, 0x7a38_7813_29a6_d216),
    ("er", 2, 0xc01b_bb7b_a376_fee2),
    ("er", 16, 0x3e31_5806_c8c0_15db),
    ("er", 64, 0xeb36_aaed_06be_3c72),
    ("grid", 1, 0x457e_0a2d_b4d4_12da),
    ("grid", 2, 0xce92_5f31_fb8e_e91a),
    ("grid", 16, 0x04ec_6a02_4487_079f),
    ("grid", 64, 0x425c_ae2f_40e5_7d55),
    ("pa", 1, 0xc182_c574_515f_c94c),
    ("pa", 2, 0x7662_7fc2_d224_6f4c),
    ("pa", 16, 0x9c90_ae76_ff41_6602),
    ("pa", 64, 0xfc63_5764_bdbf_0f7e),
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
