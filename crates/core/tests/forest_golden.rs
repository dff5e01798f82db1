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
//! stats field did not move on any row or backend. Both were re-recorded
//! again when `RoundStats` lost its always-empty violation list (a
//! budget is now audited off the worst-machine maxima): every new value is
//! the FNV-1a of the old fingerprint text with each `, violations: []`
//! removed. `FOREST_GOLDEN` was last re-recorded when the three
//! outcomes lost their `rounds` members, copies of a `RunStats` round delta:
//! every new value is the FNV-1a of the old fingerprint text with each
//! outcome's `, rounds: N` removed, on every row and backend.

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
    ("path", [0x4a7d_b1de_1915_3d4b, 0x4e90_99d1_aae2_820a, 0xbb19_abce_90e3_3913, 0x3c26_1a97_3e2c_9a65, 0xe919_0e40_c7be_5e33]),
    ("star", [0xd2d3_4ee0_7cf3_cf71, 0x72ef_cfc9_1b05_5fc2, 0x9264_7bb5_05a5_29c0, 0x4cf9_a83b_461a_314b, 0xa331_7eb0_a553_c481]),
    ("binary-tree", [0xa199_17d7_6d0b_b9b1, 0x1426_160f_3723_e9a3, 0xc22a_3d26_a44c_d278, 0x5dad_369e_5fde_8717, 0x4183_e344_aaec_83a0]),
    ("caterpillar", [0xbfd6_7b4d_5636_53a3, 0x7c47_e6a8_6aeb_d3bd, 0xbe8a_cc2d_c4ca_c6fc, 0x0b5c_c4ae_7f9b_41ff, 0xe9df_ef01_1416_373b]),
    ("random-tree", [0x2275_1757_7178_91d1, 0x52c6_c001_a26a_e954, 0x180c_a8c3_78c6_4667, 0x6254_57fb_5d61_79b3, 0x8361_aa9e_9c98_51a0]),
    ("many-trees", [0x557d_dec8_4a85_3839, 0xa0ba_eaf8_2c67_d1a8, 0x8f0a_7cef_d8c1_6c87, 0x1715_569c_4edd_a43d, 0x51e1_f12f_0f82_fe46]),
    ("tiny-trees", [0x2cef_27a1_535f_e2a5, 0x55e6_18c0_57de_20e2, 0x4661_6529_5122_7952, 0x71db_787a_75d0_eb39, 0x556e_f08c_b77c_2197]),
    ("spider", [0x3bc5_790c_6bf8_8b45, 0xa492_43e2_df6c_51f1, 0xb035_ee5d_16c3_303f, 0xee89_9cec_1aaf_df35, 0x21e1_73a3_c57f_f9c3]),
    ("kary-tree", [0x5c2a_c519_8241_fa9e, 0x46c3_f34d_2a38_ce8c, 0x0278_1cbe_094e_28e2, 0xf216_f03d_b3ad_357e, 0xfeb6_77f2_1da6_cd9f]),
    ("broom", [0xb702_a1e3_4b91_a352, 0x0761_b042_828c_9e41, 0x8a59_b0c7_efad_d072, 0xc3a5_8d13_0e75_6692, 0xeb53_1fc7_c2d7_7354]),
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
