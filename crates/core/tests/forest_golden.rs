//! Golden fingerprints of the forest pipeline's and the two rooted-forest
//! resolutions' whole observable outcome.
//!
//! The values below were recorded by running this same test at the commit
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
//! column of `ROOTED_GOLDEN`, the only runs here in which it samples. Every
//! other column is still the recorded parent's.

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
    ("path", [0xdb7e_33e7_55fd_be59, 0x24d6_5645_1de6_9dfc, 0xc08d_9c23_e02a_a9c8, 0xf5d7_745d_6488_7755, 0x50b6_5eca_9c4f_3ab5]),
    ("star", [0x7f05_84e3_6e9f_c929, 0x955d_d78e_5b8e_a410, 0xa24e_3c61_fa97_1fdf, 0x5b1e_6f26_4e4d_e03b, 0xf20b_0f94_eb4f_a0c0]),
    ("binary-tree", [0x9de0_5229_6182_c8f7, 0xab4c_bc8c_4132_bc51, 0xcbb8_6930_3023_3bac, 0x2137_4048_4380_aae1, 0xb3f9_24c5_2dda_2b2e]),
    ("caterpillar", [0x1459_102e_d5f5_1baf, 0x7956_0f1e_94ff_1d0d, 0xaebf_e586_b7ab_1f93, 0xdac1_32cf_e028_74db, 0x69af_430e_90c5_b2bd]),
    ("random-tree", [0xe947_104e_e087_4389, 0xc584_45f8_f424_bcc6, 0x29c5_457b_9459_b343, 0x9a70_16db_5c4a_5fa1, 0x9eb1_a690_52b5_3b0e]),
    ("many-trees", [0xcfd7_35ee_5d20_ec7c, 0x82ac_2ca8_42d3_dba6, 0xb012_829a_8c8d_5ff3, 0xabab_3086_7fce_6fe6, 0x3282_0070_7fc0_d038]),
    ("tiny-trees", [0x3fd3_94ff_cea3_2f07, 0x77c2_98fd_1c92_7e38, 0x60f4_a32b_ea90_2dd9, 0x2fae_f905_c62b_1b59, 0x83df_3f55_6fa9_5b4a]),
    ("spider", [0x46ae_e654_8fbf_5e88, 0x58a7_2952_585b_2c94, 0xc7a5_dceb_4a7a_5226, 0x555b_ef9f_ca80_422e, 0xc44d_b4b0_781f_43d8]),
    ("kary-tree", [0x313b_dbd1_a451_47a0, 0xe989_0dab_f4a5_eb70, 0xf217_02d2_7891_16fd, 0xe601_e19f_f41f_ab3e, 0xeea4_be89_3f7e_6d2f]),
    ("broom", [0x5f58_7271_be0e_dd0a, 0xd717_6ad7_ae22_4715, 0x0c29_363c_8699_b8b7, 0x578b_514a_b774_0142, 0xf990_555b_3ad7_c203]),
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
    ("random-2000-17", [0xe121_98ef_fe8b_507c, 0x0303_a4ee_0057_95e3]),
    ("random-800-9", [0xb2bc_4e24_3e78_c200, 0xa493_d5df_0028_356f]),
    ("random-3000-1", [0x716e_1613_7404_0a73, 0x1062_6ea2_29e5_ab3a]),
    ("chain-3000", [0x50a4_589a_e205_3187, 0x83ed_8a00_ab0e_8620]),
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
