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
//! Both tables were last re-recorded, every value, when `RoundStats` lost
//! its three word counters, copies of `reads`, `writes` and
//! `snapshot_entries` since a DHT value is one word: the `{:?}` of
//! `RunStats` hashed here lost three columns, while a fingerprint of every
//! output and every surviving stats field did not move on any row or
//! backend.

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
    ("path", [0xe8ef_ee31_ee04_a665, 0xe98a_0362_abe5_3825, 0x00f5_e228_d17e_ede1, 0xaa4e_01fb_773a_3dbd, 0x3afe_5207_5fc5_fecf]),
    ("star", [0xf108_ca1e_d141_f615, 0x1c0f_4c8c_acf6_aa44, 0x44d1_cffb_6fde_99f2, 0xec6d_3911_04e7_2b1b, 0x271e_582d_9169_b89b]),
    ("binary-tree", [0xa939_25cd_d690_783b, 0x4c5e_ee0c_533c_34f5, 0xd012_1008_b6c1_55c6, 0x8b2f_e950_fe93_e70d, 0xeef1_f15d_9fba_96ce]),
    ("caterpillar", [0x323d_eea1_dcd2_1fd3, 0xac09_f58b_2eb9_125e, 0xab1b_cf67_c055_ac6e, 0x8b94_19db_07bb_b96b, 0x63f5_03b5_0b22_6a09]),
    ("random-tree", [0x17e9_b7c4_a1a2_2d13, 0x6540_0f9f_71c8_18ff, 0x8ec0_9d8b_9c92_34fd, 0xe7ca_07a4_2722_27b3, 0xaf77_8a5e_e560_44da]),
    ("many-trees", [0xc4f1_9970_b8b5_6d4f, 0xd04c_4a8f_1d30_fba2, 0x2cde_34d4_85c3_6c2d, 0x3db6_b1e8_e0a8_6769, 0x4e9d_f711_127f_deb8]),
    ("tiny-trees", [0x769a_e792_b170_58c9, 0x171f_ba0c_f3f9_cb98, 0xe986_7db5_a5b3_ae08, 0x1a32_46d9_ccf4_686d, 0xc904_bdb5_e16d_f819]),
    ("spider", [0xc3f3_153b_7062_eec5, 0x4f7c_b213_a686_dfaa, 0xc196_1163_29c1_428b, 0x71c4_a9ff_cdf1_e04d, 0x6d6a_27db_3eb6_f297]),
    ("kary-tree", [0xf659_e2b4_2a8d_3f1c, 0xa375_b79f_9cad_f5da, 0x77c1_741e_b6ab_99ca, 0xd060_ffe9_9949_0870, 0xfc45_6cab_22b7_1d4d]),
    ("broom", [0xfd54_5e3e_ea17_b340, 0x33b2_6afb_ddd6_3135, 0x4ef5_bf27_eb93_e7b8, 0xe53b_9f3a_69d5_6d98, 0xcf0c_ef4b_a0b1_3f36]),
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
                    let out = connected_components_forest(&g, &cfg).unwrap();
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
    ("random-2000-17", [0xfda2_5816_d5a5_9eff, 0xb75a_d1a6_fdc3_a1a7]),
    ("random-800-9", [0xdedd_e9cb_799d_2da0, 0x68cb_062b_8eaa_68c3]),
    ("random-3000-1", [0x84df_1cfe_67b2_d5c1, 0x6e1f_6d39_d2f3_568f]),
    ("chain-3000", [0x6560_08b8_930d_68d5, 0x3cb6_75ff_9645_ebbd]),
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
