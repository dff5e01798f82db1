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
//!   semantically-invalid files that have been re-signed with correct
//!   checksums (a buggy or hostile writer) must still be rejected with a
//!   typed `Malformed` error — never a panic, never out-of-bounds; and
//!   seeded matrices of re-signed one-word overwrites of every section and
//!   of every header word must each decode to a typed error or to an index
//!   consistent with the decoded labeling.

use ampc::rng::SplitMix64;
use ampc_graph::generators::{
    barbell, caterpillar, disjoint_cliques, erdos_renyi_gnm, grid2d, path, random_forest, star,
};
use ampc_graph::{reference_components, Graph, Labeling};
use ampc_query::snapshot::{self, checksum, SnapshotError, HEADER_CHECKSUM_OFFSET, HEADER_LEN};
use ampc_query::{workload, ComponentIndex, QueryEngine};
use std::ops::Range;

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
        assert_eq!(snap.class_label, index.class_labels(&labeling), "{name}: class labels moved");
        let labels = snap.index.labeling(&snap.class_label);
        assert_eq!(labels, labeling, "{name}: labeling mismatch after roundtrip");
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
        let class_label = index.class_labels(&labeling);
        let path = dir.join(format!("ampc_rt_{name}_{}.snap", std::process::id()));
        let written =
            snapshot::persist(&path, &index, &class_label, g.n() as u64, g.m() as u64, algorithm)
                .unwrap_or_else(|e| panic!("{name}: persist: {e}"));
        let snap = snapshot::load(&path).unwrap_or_else(|e| panic!("{name}: load: {e}"));
        assert_eq!(snap.file_bytes as u64, written, "{name}: size mismatch");
        assert_eq!(snap.index, index, "{name}");
        assert_eq!(snap.class_label, class_label, "{name}");
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

/// The `i`-th 8-byte word of a snapshot header: 0 is the magic, 1 the
/// version and the algorithm tag, 2 `n`, 3 `m`, 4 `c`, 5 and 6 the
/// `comp_of` and `class_label` checksums, 7 the header checksum.
fn header_word(image: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(image[8 * i..8 * i + 8].try_into().unwrap())
}

/// One section of an image, placed by `snapshot::layout`.
#[derive(Clone, Debug)]
struct Section {
    name: &'static str,
    /// The payload's byte range (padding excluded).
    at: Range<usize>,
    /// Byte offset of the payload's checksum inside the header.
    checksum_slot: usize,
}

/// Both sections of a good image, placed from its header's `n` and `c`.
fn sections(image: &[u8]) -> [Section; 2] {
    let [comp_of, class_label] =
        snapshot::layout(header_word(image, 2), header_word(image, 4)).expect("a good layout");
    [
        Section { name: "comp_of", at: comp_of, checksum_slot: 40 },
        Section { name: "class_label", at: class_label, checksum_slot: 48 },
    ]
}

#[test]
fn bit_flips_anywhere_in_a_section_name_that_section() {
    let good = subject();
    for s in sections(&good) {
        assert!(!s.at.is_empty(), "{}: corruption subject has an empty section", s.name);
        // First, middle, and last byte of the payload.
        for pos in [s.at.start, s.at.start + s.at.len() / 2, s.at.end - 1] {
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
    let table = sections(&good);
    // Below the fixed header; at the header edge; at every section start;
    // one byte short of the full file.
    let mut cuts = vec![0, 1, HEADER_LEN - 1, HEADER_LEN, good.len() - 1];
    cuts.extend(table.iter().map(|s| s.at.start));
    cuts.extend(table.iter().map(|s| s.at.start + s.at.len() / 2));
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

/// Re-signs the header checksum, so a tampered header is self-consistent
/// again.
fn resign_header(bytes: &mut [u8]) {
    let h = checksum(&bytes[..HEADER_CHECKSUM_OFFSET]);
    bytes[HEADER_CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
}

/// Overwrites a section's recorded checksum and the header checksum so a
/// tampered file is self-consistent again — only semantic validation can
/// reject it.
fn resign(bytes: &mut [u8], s: &Section) {
    let digest = checksum(&bytes[s.at.clone()]);
    bytes[s.checksum_slot..s.checksum_slot + 8].copy_from_slice(&digest.to_le_bytes());
    resign_header(bytes);
}

#[test]
fn resigned_semantic_corruption_in_every_section_is_rejected() {
    let good = subject();
    let [comp_of_s, class_label_s] = sections(&good);
    let comp_of_off = comp_of_s.at.start;

    // comp_of: vertex 0 must open dense id 0; claiming id 1 breaks
    // first-appearance canonical form.
    let mut bad = good.clone();
    bad[comp_of_off..comp_of_off + 4].copy_from_slice(&1u32.to_le_bytes());
    resign(&mut bad, &comp_of_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "comp_of", .. })),
        "non-canonical comp_of must be rejected"
    );

    // comp_of: an id ≥ c is out of range even if the file is signed.
    let mut bad = good.clone();
    bad[comp_of_off..comp_of_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    resign(&mut bad, &comp_of_s);
    assert!(
        matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { section: "comp_of", .. })),
        "out-of-range comp_of id must be rejected"
    );

    // class_label: two classes share a label — clique 1 takes clique 0's,
    // a labeling of 11 classes over an index of 12.
    let mut bad = good.clone();
    let at = class_label_s.at.start;
    bad.copy_within(at..at + 8, at + 8);
    resign(&mut bad, &class_label_s);
    assert!(
        matches!(
            snapshot::decode(&bad),
            Err(SnapshotError::Malformed { section: "class_label", .. })
        ),
        "a label shared by two classes must be rejected"
    );
}

/// The mutation-matrix subject: G(240, 180) — one large component, dozens
/// of small trees and isolated vertices, with members interleaved across
/// the vertex range, so one overwritten word can join, split or relabel a
/// class. Returns the image and n.
fn mutation_subject() -> (Vec<u8>, usize) {
    let g = erdos_renyi_gnm(240, 180, 0x5EED);
    let labeling = reference_components(&g);
    let index = ComponentIndex::build(&labeling);
    (snapshot::encode(&index, &labeling, g.n() as u64, g.m() as u64, 2), g.n())
}

/// A re-signed overwrite of one 32-bit word of section `s`, every draw
/// taken from `seed`, so `(seed, section)` replays the case. The new value
/// is a neighbour of the old one, a copy of another word of the section, a
/// vertex-sized number or 32 random bits. Returns the word index and the
/// image.
fn overwrite_word(good: &[u8], s: &Section, n: usize, seed: u64) -> (usize, Vec<u8>) {
    let mut rng = SplitMix64::new(seed);
    let words = (s.at.len() / 4) as u64;
    let at = |w: u64| s.at.start + 4 * w as usize;
    let read = |w: u64| u32::from_le_bytes(good[at(w)..at(w) + 4].try_into().unwrap());
    let word = rng.next_below(words);
    let value = match rng.next_below(4) {
        0 => read(word).wrapping_add(if rng.next_below(2) == 0 { 1 } else { u32::MAX }),
        1 => read(rng.next_below(words)),
        2 => rng.next_below(n as u64 + 2) as u32,
        _ => rng.next_u64() as u32,
    };
    let mut bad = good.to_vec();
    bad[at(word)..at(word) + 4].copy_from_slice(&value.to_le_bytes());
    resign(&mut bad, s);
    (word as usize, bad)
}

/// The decoder's verdict on a crafted image: `None` if it refused the
/// image with a typed error or returned an index that is the index of the
/// labeling its class labels spell, otherwise what went wrong.
fn verdict(bad: &[u8]) -> Option<&'static str> {
    let spelled = |snap: &snapshot::Snapshot| snap.index.labeling(&snap.class_label);
    match std::panic::catch_unwind(|| snapshot::decode(bad)) {
        Ok(Err(_)) => None,
        Ok(Ok(snap)) if snap.index == ComponentIndex::build(&spelled(&snap)) => None,
        Ok(Ok(_)) => Some("decoded, but the index is not the labeling's"),
        Err(_) => Some("decode panicked"),
    }
}

#[test]
fn resigned_word_overwrites_decode_to_an_error_or_a_consistent_index() {
    // The property of the trust model: whatever a signed file says, the
    // decoder either refuses it with a typed error or returns an index
    // that is the index of the labeling it returns.
    const CASES: u64 = 10_000;
    let (good, n) = mutation_subject();
    let mut failures = Vec::new();
    for s in &sections(&good) {
        let first = (0..CASES).find_map(|seed| {
            let (word, bad) = overwrite_word(&good, s, n, seed);
            let verdict = verdict(&bad)?;
            Some(format!("seed={seed} section={} word={word}: {verdict}", s.name))
        });
        failures.extend(first);
    }
    assert!(failures.is_empty(), "first failing case per section:\n{}", failures.join("\n"));
}

/// A re-signed overwrite of header word `word` (1–6, see [`header_word`]),
/// every draw taken from `seed`, so `(seed, word)` replays the case. The
/// new value is a neighbour of the old one, a copy of another header word,
/// a small count or 64 random bits.
fn overwrite_header_word(good: &[u8], word: usize, n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let old = header_word(good, word);
    let value = match rng.next_below(4) {
        0 => old.wrapping_add(if rng.next_below(2) == 0 { 1 } else { u64::MAX }),
        1 => header_word(good, rng.next_below(8) as usize),
        2 => rng.next_below(n as u64 + 2),
        _ => rng.next_u64(),
    };
    let mut bad = good.to_vec();
    bad[8 * word..8 * word + 8].copy_from_slice(&value.to_le_bytes());
    resign_header(&mut bad);
    bad
}

#[test]
fn resigned_header_overwrites_decode_to_an_error_or_a_consistent_index() {
    // The same property over the header: a signed header that names any
    // version, algorithm, n, m, c or section checksum is refused with a
    // typed error or decodes consistently. The first 100 cases per word
    // also go through `load` on a file, which checks the header against
    // the file length before it sizes the body, and must agree with
    // `decode` on the same bytes.
    const CASES: u64 = 10_000;
    const LOADED: u64 = 100;
    let (good, n) = mutation_subject();
    let path = std::env::temp_dir().join(format!("ampc_rt_header_{}.snap", std::process::id()));
    let mut failures = Vec::new();
    for word in 1..=6 {
        let first = (0..CASES).find_map(|seed| {
            let bad = overwrite_header_word(&good, word, n, seed);
            let mut verdict = verdict(&bad);
            if verdict.is_none() && seed < LOADED {
                std::fs::write(&path, &bad).unwrap();
                let loaded = std::panic::catch_unwind(|| snapshot::load(&path));
                let decoded = snapshot::decode(&bad);
                verdict = match loaded {
                    Err(_) => Some("load panicked"),
                    Ok(loaded) => (format!("{loaded:?}") != format!("{decoded:?}"))
                        .then_some("load and decode disagree"),
                };
            }
            Some(format!("seed={seed} word={word}: {}", verdict?))
        });
        failures.extend(first);
    }
    std::fs::remove_file(&path).ok();
    assert!(failures.is_empty(), "first failing case per word:\n{}", failures.join("\n"));
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
        // A labeling of another partition: one that splits the index's
        // component, and one that merges two components.
        std::panic::catch_unwind(|| {
            let split = Labeling((0..10).map(|v| v / 5).collect());
            snapshot::encode(&index, &split, 10, 9, 2)
        }),
        std::panic::catch_unwind(|| {
            let two = ComponentIndex::build(&Labeling(vec![0, 0, 1, 1]));
            snapshot::encode(&two, &Labeling(vec![7; 4]), 4, 2, 2)
        }),
    ] {
        assert!(result.is_err(), "writer must refuse an inconsistent image");
    }
}
