//! Snapshot persistence round-trip and corruption matrix.
//!
//! Two halves, mirroring the format's trust model:
//!
//! * **Round-trip matrix** — across the generator families, an index
//!   encoded to a snapshot and decoded back must be byte-identical to the
//!   original under every standard workload mix: same answers, same
//!   rankings, same labeling — and the same again when the image sits at
//!   an odd address, since the decoder assumes no alignment.
//! * **Corruption matrix** — deterministic damage at every structural
//!   position: a bit-flip inside each section must name *that* section's
//!   checksum; truncation at every section boundary must be `Truncated`;
//!   and semantically-invalid files that have been re-signed with correct
//!   checksums (a buggy or hostile writer) must still be rejected with a
//!   typed `Malformed` error — never a panic, never out-of-bounds.

use ampc_graph::generators::{
    barbell, caterpillar, disjoint_cliques, erdos_renyi_gnm, grid2d, path, random_forest, star,
};
use ampc_graph::{reference_components, Graph, Labeling};
use ampc_query::snapshot::{
    self, checksum, section_table, SectionInfo, SnapshotError, HEADER_CHECKSUM_OFFSET, HEADER_LEN,
};
use ampc_query::{workload, ComponentIndex, QueryEngine};

/// The generator families of the round-trip matrix, with the pipeline
/// algorithm tag a real run over that family would carry (1 = forest,
/// 2 = general).
fn families() -> Vec<(&'static str, Graph, u8)> {
    vec![
        ("path", path(257), 1),
        ("star", star(300), 1),
        ("caterpillar", caterpillar(40, 6), 1),
        ("random_forest", random_forest(1200, 17, 42), 1),
        ("erdos_renyi_gnm", erdos_renyi_gnm(1000, 1400, 7), 2),
        ("grid2d", grid2d(24, 31), 2),
        ("disjoint_cliques", disjoint_cliques(23, 11), 2),
        ("barbell", barbell(50, 9), 2),
    ]
}

/// All answers of `index` (optionally through a journal-free engine) to a
/// mix's generated stream — the byte-identity fingerprint.
fn answers(index: &ComponentIndex, queries: &[ampc_query::Query]) -> Vec<u64> {
    let engine = QueryEngine::new(index);
    queries.iter().map(|&q| engine.answer(q)).collect()
}

#[test]
fn roundtrip_matrix_preserves_every_answer() {
    for (name, g, algorithm) in families() {
        let labeling = reference_components(&g);
        let index = ComponentIndex::build(&labeling);
        let bytes = snapshot::encode(&index, &labeling, g.n() as u64, g.m() as u64, algorithm);
        let snap = snapshot::decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode: {e}"));

        let prefixed = [&[0u8][..], &bytes].concat();
        let odd = snapshot::decode(&prefixed[1..]).unwrap_or_else(|e| panic!("{name}: odd: {e}"));
        assert_eq!(odd, snap, "{name}: decode depends on the image's address");
        assert_eq!(snap.index, index, "{name}: index mismatch after roundtrip");
        assert_eq!(snap.labeling, labeling, "{name}: labeling mismatch after roundtrip");
        assert_eq!((snap.graph_n, snap.graph_m), (g.n() as u64, g.m() as u64), "{name}");
        assert_eq!(snap.algorithm, algorithm, "{name}");

        for mix in workload::Mix::STANDARD {
            let queries = workload::generate(&index, mix, 2000, 0xC0FFEE);
            assert_eq!(
                answers(&index, &queries),
                answers(&snap.index, &queries),
                "{name}/{}: booted index answers diverge",
                mix.name()
            );
        }
        let c = index.num_components();
        assert_eq!(snap.index.top_k(c + 2), index.top_k(c + 2), "{name}: top-k mismatch");
    }
}

#[test]
fn disk_roundtrip_per_algorithm_tag() {
    let dir = std::env::temp_dir();
    for (name, g, algorithm) in
        [("forest", random_forest(900, 9, 3), 1u8), ("general", erdos_renyi_gnm(900, 1100, 3), 2)]
    {
        let labeling = reference_components(&g);
        let index = ComponentIndex::build(&labeling);
        let path = dir.join(format!("ampc_rt_{name}_{}.snap", std::process::id()));
        let written =
            snapshot::persist(&path, &index, &labeling, g.n() as u64, g.m() as u64, algorithm)
                .unwrap_or_else(|e| panic!("{name}: persist: {e}"));
        let snap = snapshot::load(&path).unwrap_or_else(|e| panic!("{name}: load: {e}"));
        assert_eq!(snap.file_bytes as u64, written, "{name}: size mismatch");
        assert_eq!(snap.index, index, "{name}");
        assert_eq!(snap.algorithm, algorithm, "{name}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn empty_and_singleton_graphs_roundtrip() {
    for n in [0usize, 1] {
        let g = Graph::empty(n);
        let labeling = reference_components(&g);
        let index = ComponentIndex::build(&labeling);
        let bytes = snapshot::encode(&index, &labeling, n as u64, 0, 1);
        let snap = snapshot::decode(&bytes).expect("tiny roundtrip");
        assert_eq!(snap.index.num_vertices(), n);
        assert_eq!(snap.index.num_components(), n);
    }
}

/// A mid-sized snapshot with several components — the corruption-matrix
/// subject (big enough that every section is non-empty and multi-word).
fn subject() -> Vec<u8> {
    let g = disjoint_cliques(12, 25);
    let labeling = reference_components(&g);
    let index = ComponentIndex::build(&labeling);
    snapshot::encode(&index, &labeling, g.n() as u64, g.m() as u64, 2)
}

#[test]
fn bit_flips_anywhere_in_a_section_name_that_section() {
    let good = subject();
    let table = section_table(&good).expect("good table");
    for s in table {
        assert!(s.byte_len > 0, "{}: corruption subject has an empty section", s.name);
        // First, middle, and last byte of the payload.
        for pos in [s.byte_off, s.byte_off + s.byte_len / 2, s.byte_off + s.byte_len - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            match snapshot::decode(&bad) {
                Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(
                    section, s.name,
                    "flip at byte {pos} blamed `{section}`, expected `{}`",
                    s.name
                ),
                other => panic!(
                    "flip at byte {pos} in `{}` gave {:?}, expected ChecksumMismatch",
                    s.name,
                    other.err().map(|e| e.to_string())
                ),
            }
        }
    }
}

#[test]
fn truncation_at_every_boundary_is_reported_as_truncated() {
    let good = subject();
    let table = section_table(&good).expect("good table");
    // Below the fixed header; at the header edge; at every section start;
    // one byte short of the full file.
    let mut cuts = vec![0, 1, HEADER_LEN - 1, HEADER_LEN, good.len() - 1];
    cuts.extend(table.iter().map(|s| s.byte_off));
    cuts.extend(table.iter().map(|s| s.byte_off + s.byte_len / 2));
    for cut in cuts {
        match snapshot::decode(&good[..cut]) {
            Err(SnapshotError::Truncated { need, have }) => {
                assert_eq!(have, cut, "reported size must be the truncated size");
                assert!(need > have, "need {need} must exceed have {have}");
            }
            other => panic!(
                "truncation to {cut} bytes gave {:?}, expected Truncated",
                other.err().map(|e| e.to_string())
            ),
        }
    }
}

/// Overwrites a section's recorded checksum and the header checksum so a
/// tampered file is self-consistent again — only semantic validation can
/// reject it.
fn resign(bytes: &mut [u8], s: &SectionInfo) {
    let digest = checksum(&bytes[s.byte_off..s.byte_off + s.byte_len]);
    bytes[s.checksum_slot..s.checksum_slot + 8].copy_from_slice(&digest.to_le_bytes());
    let h = checksum(&bytes[..HEADER_CHECKSUM_OFFSET]);
    bytes[HEADER_CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn resigned_semantic_corruption_in_every_section_is_rejected() {
    let good = subject();
    let table = section_table(&good).expect("good table");
    let [comp_of_s, offsets_s, members_s, by_size_s, labeling_s] = table;

    // comp_of: vertex 0 must open dense id 0; claiming id 1 breaks
    // first-appearance canonical form.
    let mut bad = good.clone();
    bad[comp_of_s.byte_off..comp_of_s.byte_off + 4].copy_from_slice(&1u32.to_le_bytes());
    resign(&mut bad, &comp_of_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "comp_of", .. })),
        "non-canonical comp_of must be rejected"
    );

    // comp_of: an id ≥ c is out of range even if the file is signed.
    let mut bad = good.clone();
    bad[comp_of_s.byte_off..comp_of_s.byte_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    resign(&mut bad, &comp_of_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "comp_of", .. })),
        "out-of-range comp_of id must be rejected"
    );

    // offsets: the final fence must equal n.
    let mut bad = good.clone();
    let last = offsets_s.byte_off + offsets_s.byte_len - 8;
    let n = u64::from_le_bytes(bad[last..last + 8].try_into().unwrap());
    bad[last..last + 8].copy_from_slice(&(n + 8).to_le_bytes());
    resign(&mut bad, &offsets_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "offsets", .. })),
        "offsets[c] != n must be rejected"
    );

    // offsets: a descending pair is non-monotone.
    let mut bad = good.clone();
    bad[offsets_s.byte_off + 8..offsets_s.byte_off + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    resign(&mut bad, &offsets_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "offsets", .. })),
        "non-monotone offsets must be rejected"
    );

    // members: a vertex id ≥ n cannot appear in any member list.
    let mut bad = good.clone();
    bad[members_s.byte_off..members_s.byte_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    resign(&mut bad, &members_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "members", .. })),
        "out-of-range member must be rejected"
    );

    // by_size: a repeated rank entry is not a permutation.
    let mut bad = good.clone();
    let first = bad[by_size_s.byte_off..by_size_s.byte_off + 4].to_vec();
    bad[by_size_s.byte_off + 4..by_size_s.byte_off + 8].copy_from_slice(&first);
    resign(&mut bad, &by_size_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "by_size", .. })),
        "repeated by_size entry must be rejected"
    );

    // labeling: a vertex whose label disagrees with its component's class
    // (vertex 1 shares clique 0 with vertex 0 in the subject graph).
    let mut bad = good.clone();
    bad[labeling_s.byte_off + 8..labeling_s.byte_off + 16]
        .copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
    resign(&mut bad, &labeling_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "labeling", .. })),
        "label/partition disagreement must be rejected"
    );
}

#[test]
fn writer_refuses_inconsistent_images() {
    let g = path(10);
    let labeling = reference_components(&g);
    let index = ComponentIndex::build(&labeling);
    // Wrong vertex count and wrong algorithm tag both panic the writer —
    // it never signs an inconsistent file.
    for result in [
        std::panic::catch_unwind(|| snapshot::encode(&index, &labeling, 11, 9, 2)),
        std::panic::catch_unwind(|| snapshot::encode(&index, &labeling, 10, 9, 3)),
        std::panic::catch_unwind(|| {
            let short = Labeling(vec![0; 9]);
            snapshot::encode(&index, &short, 10, 9, 2)
        }),
    ] {
        assert!(result.is_err(), "writer must refuse an inconsistent image");
    }
}
