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
//! column of `ROOTED_GOLDEN`, the only runs here in which it samples. Then
//! all of `FOREST_GOLDEN` was, when the forest pipeline's `Compose` came to
//! chase only the first arc of each forest vertex (the arcs its projection
//! reads): every run's `compose` reads fell, and its labels did not move.
//! `ROOTED_GOLDEN` is still the recorded parent's.

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
    ("path", [0x77d7_b1f8_b506_4f00, 0xa8b2_c91b_6a05_408d, 0xb496_d386_617b_5fce, 0x20f3_a9b1_9d78_6b78, 0x8925_d819_baaa_67d9]),
    ("star", [0x3d48_98b9_b8c9_5a22, 0xc779_2baf_292a_1ed3, 0x3026_58e3_e308_1158, 0x7bbd_22db_dd17_7a0c, 0xd53f_6776_9bac_90ca]),
    ("binary-tree", [0x033c_a64b_0b23_80a0, 0xa44f_1cc5_b73b_afa9, 0x66f0_8240_d22c_90d2, 0xde47_ca36_92fc_1924, 0xbc25_5515_4168_80fa]),
    ("caterpillar", [0x2ebd_e51d_e241_a726, 0x081f_0eab_461d_8355, 0x89f4_6659_9388_585e, 0xe21e_56a0_5b42_67fe, 0xab5b_72f3_c1e5_0ff6]),
    ("random-tree", [0x8dca_fe18_5ff7_909f, 0x3050_0496_a8a6_d5be, 0x5769_8f9e_28a2_6484, 0x6d5a_e007_cf54_69ef, 0x807a_ca9f_aa0a_2a26]),
    ("many-trees", [0x3eb5_55d1_db9e_5621, 0xfa06_dc2d_00f7_de0f, 0x4938_9764_db1b_b082, 0xd399_8e11_6d66_b8ef, 0xf652_372c_551f_0344]),
    ("tiny-trees", [0x5788_d05a_dcdd_d70b, 0x3924_024a_f91f_a185, 0xcae3_4a58_3d2d_dae6, 0x58f7_5b2b_6e42_7dc3, 0xfcd8_9e61_fa3b_7b03]),
    ("spider", [0x4055_5268_bc0d_05fc, 0xce2e_f163_1d49_0d2e, 0xdd22_f71c_0861_1be0, 0x7ec3_02c9_fba3_64c2, 0x0546_3ccc_ccae_efac]),
    ("kary-tree", [0x491e_fa16_ca1b_3c79, 0x7ce3_464e_6f24_4bf3, 0x4b98_9140_dc31_3778, 0x172e_1af6_8e2f_549b, 0xd590_cca5_4cc8_53c2]),
    ("broom", [0x6012_c867_7b60_bf1e, 0xeac1_5ba7_d090_3e91, 0xdce1_af7a_a82a_cefd, 0x1274_e42a_703a_818e, 0x3821_d876_3537_893a]),
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
