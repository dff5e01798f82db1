//! Golden fingerprints of the forest pipeline's and the two rooted-forest
//! resolutions' whole observable outcome.
//!
//! The values below were first recorded by running this same test at the commit
//! before the §3 cycle surgery and the root chase were each written once in
//! `cycles.rs` (PR 25's parent, `d293095`): a change to `ShrinkSmallCycles`,
//! `ShrinkLargeCycles`, `Standard-Cycle-CC`, `Compose` or either Claim 4.12
//! resolution that moves any read, write, word count, label or
//! per-iteration count shows up here as a changed fingerprint. All three
//! storage backends must produce the same one (the backend is an execution
//! detail).
//!
//! Two columns were re-recorded since, when `ShrinkLargeCycles`' marks
//! became a hash its walker evaluates instead of a round that stores them:
//! the δ = 0.8 column of `FOREST_GOLDEN` and the `resolve_roots_euler`
//! column of `ROOTED_GOLDEN`, the only runs here in which it samples. Then
//! all of `FOREST_GOLDEN` was, when the forest pipeline's `Compose` came to
//! chase only the first arc of each forest vertex (the arcs its projection
//! reads): every run's `compose` reads fell, and its labels did not move.
//!
//! Both tables were re-recorded, every value, when `RoundStats` lost its
//! three word counters, copies of `reads`, `writes` and `snapshot_entries`
//! since a DHT value is one word: the `{:?}` of `RunStats` hashed here lost
//! three columns, while a fingerprint of every output and every surviving
//! stats field did not move on any row or backend. They were last
//! re-recorded when `RoundStats` lost its always-empty violation list (a
//! budget is now audited off the worst-machine maxima): every new value is
//! the FNV-1a of the old fingerprint text with each `, violations: []`
//! removed.

use ampc::rng::stream;
use ampc::{AmpcConfig, DhtBackend};
use ampc_cc::forest::pipeline::{connected_components_forest, ForestCcConfig};
use ampc_cc::general::rooted_forest::{
    resolve_roots_chase, resolve_roots_euler, RootedForestOutcome,
};
use ampc_graph::generators::ForestFamily;
use ampc_graph::VertexId;

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Asserts `run` gives flat's fingerprint on the sharded and dense stores
/// too, and returns it.
fn on_every_backend(what: &str, run: impl Fn(DhtBackend) -> u64) -> u64 {
    let flat = run(DhtBackend::Flat);
    for backend in [DhtBackend::sharded(), DhtBackend::dense()] {
        assert_eq!(run(backend), flat, "{what}: {backend:?} differs from flat");
    }
    flat
}

/// Vertices per forest, few enough for a debug build.
const N: usize = 1000;

/// `(family, [default, tradeoff k = 1, no Step 2, no ShrinkLargeCycles,
/// δ = 0.8])`, families in the order of `ForestFamily::ALL`; each value
/// covers seeds 1 and 2.
#[rustfmt::skip]
const FOREST_GOLDEN: &[(&str, [u64; 5])] = &[
    ("path", [0x2076_f6f1_f7ca_edb9, 0xb93b_9103_13e0_808d, 0xf5a4_04eb_183d_1771, 0xa972_1a46_aa3d_d19d, 0xbfb2_4a83_c354_b77f]),
    ("star", [0x2863_79d6_928f_10b5, 0x5374_5268_0701_9ae0, 0xdfd6_1b7d_267f_5c12, 0xce5e_9b93_7c0d_ef93, 0x70a4_9abc_5a07_db33]),
    ("binary-tree", [0x8b3d_6773_a83c_6817, 0xd35c_14b4_96ef_7001, 0x1261_5918_951b_25b6, 0x55ff_a96e_befa_b04d, 0x5ac4_9c43_8670_3636]),
    ("caterpillar", [0x8c8d_d760_15a3_0ae3, 0xdf62_6aea_4b81_ab82, 0x3ab8_ced7_9b3e_8bfc, 0x80af_a640_6cbc_6a2f, 0xb4fb_a0e9_edfd_bc25]),
    ("random-tree", [0xdb98_9332_04ff_41af, 0xe73c_699c_fc76_9577, 0x48e5_4a1e_fa54_16db, 0x5fb8_84df_92db_1ab7, 0xd4b2_80ce_d99e_557a]),
    ("many-trees", [0x9823_e606_522e_6a7b, 0x1b4b_f2f0_eedb_381a, 0xc2bb_6cf6_e5d5_1cf5, 0x6691_e797_183e_3b41, 0x3a9a_3dc5_9c85_4940]),
    ("tiny-trees", [0x7760_8190_8aa4_dd11, 0x685f_b8cc_d01b_cd7c, 0x4196_840a_920f_3c04, 0xd222_c382_acfc_4eb9, 0xc65e_1d0b_61e4_1639]),
    ("spider", [0x8019_b941_2f7d_d2a1, 0x0ad0_8c3e_611e_e186, 0x7a46_c311_973f_178d, 0x3768_1b71_c614_4d95, 0x85d4_4b36_738f_7ee7]),
    ("kary-tree", [0x0bab_2291_34d5_6838, 0x6bb9_df30_52bd_4b86, 0xfb29_5886_1226_ff3e, 0x55a6_6545_b2a9_a488, 0xd0af_80be_b28d_56e1]),
    ("broom", [0xf5a7_9d81_a0d8_e1f4, 0x20af_604c_e59c_6131, 0x3296_fc03_9779_4402, 0xe3ca_9fab_5015_0218, 0x2c2c_489d_3ef2_cd16]),
];

#[test]
fn forest_outcome_is_byte_identical_to_the_recorded_parent() {
    // At this size and the default δ = 0.6, `ShrinkLargeCycles`' target
    // (`S/4`) is under `4 ln n`, so it samples nothing and the main loop does
    // the work; at `S = n^0.8` it samples and leaves the loop nothing to do.
    let base = ForestCcConfig::default();
    let configs = [
        base.clone(),
        base.clone().with_tradeoff_k(N, 1),
        ForestCcConfig { enable_step2: false, ..base.clone() },
        ForestCcConfig { skip_shrink_large: true, ..base.clone() },
        ForestCcConfig { delta: 0.8, ..base },
    ];
    let mut actual = Vec::new();
    for family in ForestFamily::ALL {
        let row = configs.clone().map(|cfg| {
            on_every_backend(family.name(), |backend| {
                let mut text = String::new();
                for seed in [1u64, 2] {
                    let g = family.generate(N, seed);
                    let cfg = cfg.clone().with_seed(0xF0_0000 + seed).with_backend(backend);
                    let out = connected_components_forest(g.as_forest().unwrap(), &cfg).unwrap();
                    text += &format!(
                        "{:?} {:?} {:?} {:?} {:?}\n",
                        out.labeling.0, out.stats, out.iterations, out.shrink_large, out.finisher
                    );
                }
                fnv1a(&text)
            })
        });
        actual.push((family.name(), row));
    }
    assert_eq!(actual.as_slice(), FOREST_GOLDEN, "actual table: {actual:#x?}");
}

/// Vertices `0..roots` are roots; every other vertex parents a uniformly
/// random earlier one.
fn random_parent_forest(n: usize, roots: usize, seed: u64) -> Vec<Option<VertexId>> {
    let mut rng = stream(seed, 0, 0, 0);
    (0..n)
        .map(|v| if v < roots { None } else { Some(rng.next_below(v as u64) as VertexId) })
        .collect()
}

fn rooted_fingerprint(out: RootedForestOutcome) -> u64 {
    fnv1a(&format!("{:?} {:?} {}", out.labels, out.stats, out.traversal_rounds))
}

/// `(forest, [resolve_roots_euler, resolve_roots_chase])`.
const ROOTED_GOLDEN: &[(&str, [u64; 2])] = &[
    ("random-2000-17", [0x911c_bca5_3c01_3e13, 0x9e3a_06fd_87a0_8075]),
    ("random-800-9", [0x5efb_a18b_9e64_c9c4, 0x91b5_4005_bb93_e031]),
    ("random-3000-1", [0xf766_f6c7_63f1_50e5, 0xc650_41e0_56ba_a8fd]),
    ("chain-3000", [0x38a6_2470_49cf_ce75, 0x4a01_fcb6_c250_4b9b]),
];

#[test]
fn rooted_forest_outcome_is_byte_identical_to_the_recorded_parent() {
    // A single path of parents with a 64-hop chase cap: the chase has to
    // compress and come back (more than one `rf-chase` round).
    let chain: Vec<Option<VertexId>> =
        (0..3000).map(|v| if v == 0 { None } else { Some(v - 1) }).collect();
    let forests = [
        ("random-2000-17", random_parent_forest(2000, 17, 1), 1 << 12),
        ("random-800-9", random_parent_forest(800, 9, 2), 1 << 12),
        ("random-3000-1", random_parent_forest(3000, 1, 3), 1 << 10),
        ("chain-3000", chain, 64),
    ];
    let mut actual = Vec::new();
    for (name, parents, chase_cap) in &forests {
        let cfg =
            |backend| AmpcConfig::default().with_machines(4).with_seed(9).with_backend(backend);
        let euler = on_every_backend(name, |backend| {
            rooted_fingerprint(resolve_roots_euler(parents, 1 << 12, cfg(backend)).unwrap())
        });
        let chase = on_every_backend(name, |backend| {
            let out = resolve_roots_chase(parents, *chase_cap, cfg(backend)).unwrap();
            if *name == "chain-3000" {
                assert!(out.traversal_rounds > 1, "the capped chase must take several rounds");
            }
            rooted_fingerprint(out)
        });
        actual.push((*name, [euler, chase]));
    }
    assert_eq!(actual.as_slice(), ROOTED_GOLDEN, "actual table: {actual:#x?}");
}
