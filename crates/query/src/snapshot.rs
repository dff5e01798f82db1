//! Validated-decode snapshot persistence for [`ComponentIndex`].
//!
//! A snapshot is the finished product of a pipeline run — the partition
//! (`comp_of`) plus one label per class — written to disk as fixed-width
//! words. Nothing derivable is stored: sizes and the size ranking are
//! functions of those two sections, and where each section lies is a
//! function of `n` and `c`, so the loader derives them instead of having
//! to prove stored copies consistent. A replica
//! boot reads the header, checks everything the header alone can say,
//! reads the body the header describes, verifies every checksum, decodes
//! both sections, validates them and derives the rest. No hashing and no
//! pipeline run: the boot path is O(validate) instead of O(pipeline), and
//! the file buffer is dropped before [`load`] returns.
//!
//! # On-disk format (version 3, little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"AMPCSNAP"
//!      8     4  format version (u32, = 3)
//!     12     4  algorithm (u32: 1 = forest, 2 = general)
//!     16     8  n, vertices (u64)
//!     24     8  m, edges of the graph the run was over (u64)
//!     32     8  c, components (u64)
//!     40     8  checksum of `comp_of`
//!     48     8  checksum of `class_label`
//!     56     8  header checksum (fold hash of bytes [0, 56))
//!     64   ...  comp_of (u32 × n), zero padding to 8 bytes, class_label (u64 × c)
//! ```
//!
//! [`layout`] places the sections, so a file is exactly
//! `64 + align8(4n) + 8c` bytes. `class_label[d]` is the run's label of
//! every vertex of dense class `d`.
//!
//! Every word is written with `to_le_bytes` and read with
//! `from_le_bytes`, so the file reads the same on any host. All checksums
//! are the hand-rolled [`checksum`] fold hash (multiply-xorshift over
//! 8-byte words, length folded into the seed) — no external crates.
//!
//! # Trust model
//!
//! The loader never trusts the file. Validation runs outside-in — size,
//! magic, version, header checksum, algorithm tag, `n` within the `u32` id
//! space, `c ≤ n`, and the file exactly as long as [`layout`] says, all of
//! it from the header and the file length before the body is allocated or
//! read; then per-section checksums; then the two semantic invariants:
//! `comp_of` is in first-appearance canonical form over exactly the `c`
//! classes `class_label` names, and no two classes share a label. Every
//! file that passes decodes to an index equal to [`ComponentIndex::build`]
//! of the labeling its class labels spell ([`ComponentIndex::labeling`]),
//! and every rejection is a typed [`SnapshotError`], never a panic.
//!
//! # Failpoints
//!
//! The persist and boot seams carry four sites of the process-wide
//! failpoint registry (`ampc_obs::fault`): `persist.pre-tmp`,
//! `persist.pre-rename`, `persist.pre-dirsync` in [`write_atomic`] and
//! `snapshot.load` in [`load`]. An injected error surfaces as
//! [`SnapshotError::Io`]; an injected panic unwinds past the temp-file
//! cleanup exactly like a killed process skips it.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use ampc::rng::mix;
use ampc_graph::Labeling;
use ampc_obs::fault::{self, Site};

use crate::index::{shared_label, ComponentId, ComponentIndex};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"AMPCSNAP";
/// Current format version; bump on any layout change (see DESIGN.md for
/// the version-bump policy).
pub const FORMAT_VERSION: u32 = 3;
/// Byte offset of the two section checksums inside the header.
const SECTION_CHECKSUM_OFFSET: usize = 40;
/// Byte offset of the header checksum inside the file (tests re-sign
/// crafted headers through this).
pub const HEADER_CHECKSUM_OFFSET: usize = 56;
/// Size of the fixed header, including the trailing header checksum.
pub const HEADER_LEN: usize = HEADER_CHECKSUM_OFFSET + 8;

const SECTION_NAMES: [&str; 2] = ["comp_of", "class_label"];

/// Why a snapshot could not be written or loaded.
///
/// Every load-path failure is one of these — a corrupt or hostile file can
/// never panic the replica.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is not one this build understands.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The file ends before the advertised data does.
    Truncated {
        /// Bytes the header (or header parsing) requires.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The fixed header is self-inconsistent (failed header checksum, bad
    /// algorithm tag, impossible `n` or `c`, trailing bytes, ...).
    HeaderCorrupt {
        /// Human-readable diagnosis.
        detail: String,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Name of the failing section.
        section: &'static str,
    },
    /// A section passed its checksum but violates a semantic invariant —
    /// the file was signed by a buggy or hostile writer.
    Malformed {
        /// Name of the offending section.
        section: &'static str,
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot format version {found} (expected {FORMAT_VERSION})")
            }
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapshotError::HeaderCorrupt { detail } => {
                write!(f, "snapshot header corrupt: {detail}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot section `{section}` failed its checksum")
            }
            SnapshotError::Malformed { section, detail } => {
                write!(f, "snapshot section `{section}` malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Fold-hash checksum: four independent multiply-fold lanes over 8-byte
/// little-endian words (one 32-byte stride per iteration), length folded
/// into every lane's seed, trailing partial stride zero-extended, lanes
/// combined through the SplitMix64 finalizer. The lanes exist for
/// instruction-level parallelism: a single multiply-fold chain is latency
/// bound near 1 GB/s, which would dominate the boot's validation passes;
/// four interleaved chains run at memory speed, so checksumming every
/// section at load costs well under a millisecond per 16 MB. Each lane
/// step `l = (l ^ w) * M` (odd `M`) is injective in `w`, so any
/// single-bit flip — including in the zero-extended tail — reaches the
/// avalanching final combine.
pub fn checksum(bytes: &[u8]) -> u64 {
    const M: u64 = 0x2545_F491_4F6C_DD1D;
    let seed = 0x9E37_79B9_7F4A_7C15u64 ^ (bytes.len() as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let (mut l0, mut l1) = (mix(seed ^ 1), mix(seed ^ 2));
    let (mut l2, mut l3) = (mix(seed ^ 3), mix(seed ^ 4));
    let word = |c: &[u8], o: usize| u64::from_le_bytes(c[o..o + 8].try_into().unwrap());
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        l0 = (l0 ^ word(c, 0)).wrapping_mul(M);
        l1 = (l1 ^ word(c, 8)).wrapping_mul(M);
        l2 = (l2 ^ word(c, 16)).wrapping_mul(M);
        l3 = (l3 ^ word(c, 24)).wrapping_mul(M);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut pad = [0u8; 32];
        pad[..rest.len()].copy_from_slice(rest);
        l0 = (l0 ^ word(&pad, 0)).wrapping_mul(M);
        l1 = (l1 ^ word(&pad, 8)).wrapping_mul(M);
        l2 = (l2 ^ word(&pad, 16)).wrapping_mul(M);
        l3 = (l3 ^ word(&pad, 24)).wrapping_mul(M);
    }
    let mut h = seed;
    h = mix(h ^ l0).wrapping_mul(M);
    h = mix(h ^ l1).wrapping_mul(M);
    h = mix(h ^ l2).wrapping_mul(M);
    h = mix(h ^ l3).wrapping_mul(M);
    mix(h)
}

/// The byte ranges of `comp_of` and `class_label` in a snapshot of `n`
/// vertices and `c` classes: `comp_of` straight after the header,
/// `class_label` at the next 8-byte boundary, and the file ends where
/// `class_label` does. Computed in checked `u64`; `None` if that end
/// overflows it or this host's address space. [`encode`], [`decode`] and
/// the corruption tests all place the sections through this.
pub fn layout(n: u64, c: u64) -> Option<[Range<usize>; 2]> {
    let comp_of_end = n.checked_mul(4)?.checked_add(HEADER_LEN as u64)?;
    let class_label_off = comp_of_end.checked_next_multiple_of(8)?;
    let end = usize::try_from(c.checked_mul(8)?.checked_add(class_label_off)?).ok()?;
    Some([HEADER_LEN..comp_of_end as usize, class_label_off as usize..end])
}

/// A loaded snapshot: the index and class labels decoded from the file,
/// plus the run metadata the header carries.
#[derive(Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The component index, equal to the one that was persisted.
    pub index: ComponentIndex,
    /// The run's label of each component, by dense id (see
    /// [`ComponentIndex::class_labels`]).
    pub class_label: Vec<u64>,
    /// Vertex count of the graph the run was over.
    pub graph_n: u64,
    /// Edge count of the graph the run was over.
    pub graph_m: u64,
    /// Pipeline algorithm tag (1 = forest, 2 = general).
    pub algorithm: u8,
    /// Total snapshot size in bytes.
    pub file_bytes: usize,
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

fn push_u32s(out: &mut Vec<u8>, words: &[u32]) {
    out.reserve(words.len() * 4);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn push_u64s(out: &mut Vec<u8>, words: &[u64]) {
    out.reserve(words.len() * 8);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encodes an index + labeling into a complete snapshot image, storing
/// the labeling as [`ComponentIndex::class_labels`] derives it.
///
/// `graph_n`/`graph_m` describe the graph the labeling was computed over
/// (`graph_n` must equal the number of indexed vertices); `algorithm` is
/// the pipeline tag (1 = forest, 2 = general).
///
/// # Panics
/// Panics if `labeling` is not a labeling of `index`'s partition (a label
/// that varies within a component or is shared by two, or a length other
/// than `index.num_vertices()`), or if `graph_n` disagrees with the index
/// — the writer refuses to sign an inconsistent image.
pub fn encode(
    index: &ComponentIndex,
    labeling: &Labeling,
    graph_n: u64,
    graph_m: u64,
    algorithm: u8,
) -> Vec<u8> {
    encode_classes(index, &index.class_labels(labeling), graph_n, graph_m, algorithm)
}

/// The image of `index` with one label per class; the caller has checked
/// that no two classes share a label.
fn encode_classes(
    index: &ComponentIndex,
    class_label: &[u64],
    graph_n: u64,
    graph_m: u64,
    algorithm: u8,
) -> Vec<u8> {
    let comp_of = index.comp_of();
    assert_eq!(class_label.len(), index.num_components(), "one label per component");
    assert_eq!(graph_n, comp_of.len() as u64, "graph_n disagrees with the index");
    assert!(algorithm == 1 || algorithm == 2, "algorithm tag must be 1 (forest) or 2 (general)");

    let c = class_label.len() as u64;
    let sections = layout(graph_n, c).expect("an index in memory has an addressable image");
    // The body first: the header carries the sections' checksums.
    let mut out = vec![0u8; HEADER_LEN];
    out.reserve_exact(sections[1].end - HEADER_LEN);
    push_u32s(&mut out, comp_of);
    out.resize(sections[1].start, 0);
    push_u64s(&mut out, class_label);
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&u32::from(algorithm).to_le_bytes());
    let sums = sections.map(|s| checksum(&out[s]));
    for word in [graph_n, graph_m, c, sums[0], sums[1]] {
        header.extend_from_slice(&word.to_le_bytes());
    }
    header.extend_from_slice(&checksum(&header).to_le_bytes());
    out[..HEADER_LEN].copy_from_slice(&header);
    out
}

/// Writes `bytes` to `path` atomically and durably: write + fsync a
/// sibling temp file, rename over the destination, then fsync the parent
/// directory. Readers either see the old file or the complete new one,
/// never a torn write — and once the call returns, a crash cannot un-do
/// the rename (the directory entry itself is on disk).
///
/// Temp names are unique per call (`<stem>.tmp.<pid>.<counter>`), so two
/// handles persisting the same path concurrently — even from one process —
/// never clobber each other's temp file mid-write; the loser of the rename
/// race simply publishes second. A temp file stranded by a crash is inert:
/// nothing ever opens `*.tmp.*` again, and later persists pick fresh
/// names.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    fault::check(Site::PersistPreTmp).map_err(std::io::Error::other)?;
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fault::check(Site::PersistPreRename).map_err(std::io::Error::other)?;
        std::fs::rename(&tmp, path)?;
        fault::check(Site::PersistPreDirSync).map_err(std::io::Error::other)?;
        // A rename is durable only once the *directory entry* is synced:
        // without this, a crash after the rename can lose the new file
        // entirely (the data blocks were synced, the name was not).
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup of a *detected* failure; after the rename
        // this is a no-op (the temp name no longer exists). A crash-style
        // failure (panic/kill) skips this, stranding the temp file — which
        // the unique naming makes harmless.
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(SnapshotError::Io)
}

/// Encodes and atomically persists a snapshot of `index` with one label
/// per class (`class_label[d]` labels dense class `d`, as
/// [`ComponentIndex::class_labels`] derives it); returns the bytes written.
///
/// # Panics
/// As [`encode`]: if `class_label` is not one distinct label per component
/// of `index`, or the header fields disagree with it.
pub fn persist(
    path: &Path,
    index: &ComponentIndex,
    class_label: &[u64],
    graph_n: u64,
    graph_m: u64,
    algorithm: u8,
) -> Result<u64, SnapshotError> {
    assert_eq!(shared_label(class_label), None, "two components share a label");
    let timer = ampc_obs::Timer::start(ampc_obs::hist(ampc_obs::HistId::SnapshotPersistNs));
    let bytes = encode_classes(index, class_label, graph_n, graph_m, algorithm);
    write_atomic(path, &bytes)?;
    let written = bytes.len() as u64;
    let elapsed = timer.stop();
    ampc_obs::counter(ampc_obs::CounterId::SnapshotPersists).inc();
    ampc_obs::counter(ampc_obs::CounterId::SnapshotPersistBytes).add(written);
    ampc_obs::trace(ampc_obs::TraceKind::SnapshotPersisted, written, elapsed);
    Ok(written)
}

/// Every check that needs only the fixed header and the file's length —
/// which is all of them short of the section checksums — and the sections'
/// byte ranges. `header` holds the file's first `HEADER_LEN` bytes (fewer
/// only if the file is shorter); [`load`] runs this before it allocates or
/// reads the body.
fn header_checks(header: &[u8], file_len: u64) -> Result<[Range<usize>; 2], SnapshotError> {
    let corrupt = |detail: String| SnapshotError::HeaderCorrupt { detail };
    if header.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated { need: HEADER_LEN, have: header.len() });
    }
    if header[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32_at(header, 8);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if checksum(&header[..HEADER_CHECKSUM_OFFSET]) != u64_at(header, HEADER_CHECKSUM_OFFSET) {
        return Err(corrupt("header checksum mismatch".into()));
    }
    let algorithm = u32_at(header, 12);
    if algorithm != 1 && algorithm != 2 {
        return Err(corrupt(format!("unknown algorithm tag {algorithm}")));
    }
    let (n, c) = (u64_at(header, 16), u64_at(header, 32));
    if n > u32::MAX as u64 {
        return Err(corrupt(format!("vertex count {n} exceeds the u32 id space")));
    }
    if c > n {
        return Err(corrupt(format!("{c} components over {n} vertices")));
    }
    let sections = layout(n, c).ok_or_else(|| corrupt(format!("{n} vertices do not fit")))?;
    let need = sections[1].end as u64;
    if file_len < need {
        return Err(SnapshotError::Truncated { need: need as usize, have: file_len as usize });
    }
    if file_len > need {
        return Err(corrupt(format!("{} trailing bytes after the last section", file_len - need)));
    }
    Ok(sections)
}

fn u32s(payload: &[u8]) -> Vec<u32> {
    payload.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect()
}

fn u64s(payload: &[u8]) -> Vec<u64> {
    payload.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect()
}

/// Decodes a snapshot image: header checks, per-section checksums, both
/// sections decoded into their `Vec`s and validated, then the class sizes
/// and their ranking derived. `bytes` needs no particular alignment.
/// [`load`] is this over a file's contents.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let sections = header_checks(bytes, bytes.len() as u64)?;
    let payloads = sections.map(|s| &bytes[s]);
    for (i, payload) in payloads.iter().enumerate() {
        if checksum(payload) != u64_at(bytes, SECTION_CHECKSUM_OFFSET + 8 * i) {
            return Err(SnapshotError::ChecksumMismatch { section: SECTION_NAMES[i] });
        }
    }
    let [comp_of, class_label] = payloads;
    let (comp_of, class_label) = (u32s(comp_of), u64s(class_label));
    let c = class_label.len();

    // Semantic invariants — checksummed garbage from a buggy or hostile
    // writer still must not poison the replica. comp_of ids must be in
    // range and in first-appearance canonical form, every class must
    // appear, and the pass counts each class's size — one fused pass.
    let malformed = |detail| SnapshotError::Malformed { section: "comp_of", detail };
    let mut sizes = vec![0u32; c];
    let mut next: ComponentId = 0;
    for (v, &d) in comp_of.iter().enumerate() {
        if d as usize >= c {
            return Err(malformed(format!("vertex {v} names component {d} of {c}")));
        }
        if d > next {
            return Err(malformed(format!("vertex {v} opens component {d}, expected {next}")));
        }
        if d == next {
            next += 1;
        }
        sizes[d as usize] += 1;
    }
    if (next as usize) != c {
        return Err(malformed(format!("only {next} of {c} components appear")));
    }
    if let Some(label) = shared_label(&class_label) {
        return Err(SnapshotError::Malformed {
            section: "class_label",
            detail: format!("label {label} names two classes"),
        });
    }

    Ok(Snapshot {
        index: ComponentIndex::from_parts(comp_of, sizes),
        class_label,
        graph_n: u64_at(bytes, 16),
        graph_m: u64_at(bytes, 24),
        algorithm: bytes[12],
        file_bytes: bytes.len(),
    })
}

/// Loads a snapshot from disk. The header is read and validated first —
/// including that the file is exactly as long as [`layout`] says for the
/// header's `n` and `c` — so the body buffer is sized by a checked header,
/// never by whatever length a non-snapshot file happens to have. The
/// buffer is dropped on return; the [`Snapshot`] owns its arrays.
pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
    let timer = ampc_obs::Timer::start(ampc_obs::hist(ampc_obs::HistId::SnapshotBootNs));
    fault::check(Site::SnapshotLoad).map_err(std::io::Error::other)?;
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    let mut bytes = vec![0u8; len.min(HEADER_LEN as u64) as usize];
    f.read_exact(&mut bytes)?;
    header_checks(&bytes, len)?;
    let body = len as usize - HEADER_LEN;
    bytes
        .try_reserve_exact(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::OutOfMemory, e))?;
    // A file that shrank since `metadata` reads short and decodes as
    // `Truncated`.
    f.take(body as u64).read_to_end(&mut bytes)?;
    let snap = decode(&bytes)?;
    let elapsed = timer.stop();
    ampc_obs::counter(ampc_obs::CounterId::SnapshotBoots).inc();
    ampc_obs::counter(ampc_obs::CounterId::SnapshotBootBytes).add(len);
    ampc_obs::trace(ampc_obs::TraceKind::SnapshotBooted, len, elapsed);
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> (ComponentIndex, Labeling) {
        let labeling = Labeling(vec![7, 9, 7, 3, 9, 7, 3, 11]);
        (ComponentIndex::build(&labeling), labeling)
    }

    /// Re-signs a crafted header so only the checks past the checksum can
    /// reject it.
    fn resign(bytes: &mut [u8]) {
        let h = checksum(&bytes[..HEADER_CHECKSUM_OFFSET]);
        bytes[HEADER_CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
    }

    #[test]
    fn checksum_is_length_and_content_sensitive() {
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(b"\0"), checksum(b"\0\0"));
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefgi"));
        // A flip in the zero-padded tail region still changes the digest.
        assert_ne!(checksum(b"abc"), checksum(b"ab\x63\x01"));
        assert_eq!(checksum(b"abcdefgh12345"), checksum(b"abcdefgh12345"));
    }

    #[test]
    fn encode_decode_roundtrip_preserves_everything() {
        let (index, labeling) = sample_index();
        let bytes = encode(&index, &labeling, 8, 5, 2);
        // Header, comp_of (n = 8 words of 4 bytes) and one label per class
        // (c = 4 words of 8 bytes), nothing else.
        assert_eq!(bytes.len(), HEADER_LEN + 4 * 8 + 8 * 4);
        assert_eq!(layout(8, 4).unwrap()[1].end, bytes.len());
        // Golden, re-recorded for format v3 (the 64-byte header): the
        // on-disk bytes have not moved since.
        assert_eq!(checksum(&bytes), 0x44B9_64C1_5A2E_0B33);
        let snap = decode(&bytes).expect("roundtrip");
        assert_eq!(snap.index, index);
        assert_eq!(snap.class_label, [7, 9, 3, 11]);
        assert_eq!(snap.index.labeling(&snap.class_label), labeling);
        assert_eq!(snap.graph_n, 8);
        assert_eq!(snap.graph_m, 5);
        assert_eq!(snap.algorithm, 2);
        assert_eq!(snap.file_bytes, bytes.len());
        // The booted index answers identically, including rankings.
        assert_eq!(snap.index.top_k(4), index.top_k(4));
        for v in 0..8 {
            assert_eq!(snap.index.component_of(v), index.component_of(v));
        }
    }

    #[test]
    fn layout_pads_comp_of_to_a_word() {
        assert_eq!(layout(0, 0), Some([64..64, 64..64]));
        assert_eq!(layout(3, 2), Some([64..76, 80..96]));
        assert_eq!(layout(4, 1), Some([64..80, 80..88]));
        assert_eq!(layout(u64::MAX / 4, 0), None);
        assert_eq!(layout(1, u64::MAX / 8), None);
    }

    #[test]
    fn empty_index_roundtrips() {
        let labeling = Labeling(vec![]);
        let index = ComponentIndex::build(&labeling);
        let bytes = encode(&index, &labeling, 0, 0, 1);
        assert_eq!(bytes.len(), HEADER_LEN);
        let snap = decode(&bytes).expect("empty roundtrip");
        assert_eq!(snap.index.num_vertices(), 0);
        assert_eq!(snap.index.num_components(), 0);
        assert!(snap.class_label.is_empty());
    }
    #[test]
    fn atomic_persist_and_load() {
        let (index, labeling) = sample_index();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ampc_snap_test_{}.snap", std::process::id()));
        let bytes =
            persist(&path, &index, &index.class_labels(&labeling), 8, 5, 1).expect("persist");
        let snap = load(&path).expect("load");
        assert_eq!(snap.file_bytes as u64, bytes);
        assert_eq!(snap.index, index);
        assert_eq!(snap.algorithm, 1);
        std::fs::remove_file(&path).unwrap();
        // Loading a missing file is an Io error, not a panic.
        assert!(matches!(load(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn persist_refuses_a_label_two_classes_share() {
        let (index, _) = sample_index();
        let path =
            std::env::temp_dir().join(format!("ampc_snap_shared_{}.snap", std::process::id()));
        let shared = std::panic::catch_unwind(|| persist(&path, &index, &[7, 9, 7, 11], 8, 5, 1));
        assert!(shared.is_err(), "a label shared by two classes must not be signed");
        let short = std::panic::catch_unwind(|| persist(&path, &index, &[7, 9, 3], 8, 5, 1));
        assert!(short.is_err(), "one label per component, no fewer");
        assert!(!path.exists());
    }

    #[test]
    fn load_checks_the_header_before_it_sizes_the_body() {
        let path =
            std::env::temp_dir().join(format!("ampc_snap_sparse_{}.snap", std::process::id()));
        // 1 TiB of zeros: a loader that sizes its buffer from the file
        // length aborts on the allocation before it sees the magic.
        let sparse = |path: &Path| {
            let grown = File::options().write(true).open(path).unwrap().set_len(1 << 40);
            if let Err(e) = &grown {
                eprintln!("SKIPPED a sparse-file case: set_len(1 << 40) refused: {e}");
            }
            grown.is_ok()
        };
        File::create(&path).unwrap();
        if sparse(&path) {
            assert!(matches!(load(&path), Err(SnapshotError::BadMagic)));
        }
        // A valid image followed by anything — 8 bytes or a terabyte — is
        // rejected on its header and length alone.
        let (index, labeling) = sample_index();
        let mut bytes = encode(&index, &labeling, 8, 5, 1);
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::HeaderCorrupt { .. })));
        if sparse(&path) {
            assert!(matches!(load(&path), Err(SnapshotError::HeaderCorrupt { .. })));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_persists_to_one_path_never_tear() {
        // Temp names are unique per call, so two handles racing on the
        // same destination from one process must each stage privately;
        // whatever wins the rename race, the destination always loads as
        // one complete snapshot. (The old `tmp.{pid}` scheme collided
        // here: one thread's rename could steal the other's half-written
        // temp file.)
        let (index_a, labeling_a) = sample_index();
        let labeling_b = Labeling(vec![1, 2, 1, 2, 1, 2, 1, 2]);
        let index_b = ComponentIndex::build(&labeling_b);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ampc_snap_race_{}.snap", std::process::id()));
        let (pa, pb) = (&path, &path);
        let (class_a, class_b) =
            (index_a.class_labels(&labeling_a), index_b.class_labels(&labeling_b));
        let (ia, la) = (&index_a, &class_a[..]);
        let (ib, lb) = (&index_b, &class_b[..]);
        std::thread::scope(|s| {
            let a = s.spawn(move || {
                for _ in 0..20 {
                    persist(pa, ia, la, 8, 5, 1).expect("persist a");
                }
            });
            let b = s.spawn(move || {
                for _ in 0..20 {
                    persist(pb, ib, lb, 8, 4, 2).expect("persist b");
                }
            });
            a.join().unwrap();
            b.join().unwrap();
        });
        let snap = load(&path).expect("racing persists must leave a loadable file");
        assert!(snap.index == index_a || snap.index == index_b);
        // No temp litter left behind by clean completions.
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with(&stem) && n.contains(".tmp.")
            })
            .collect();
        assert!(litter.is_empty(), "clean persists must not strand temp files: {litter:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_litter_never_breaks_persist_or_load() {
        let (index, labeling) = sample_index();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ampc_snap_litter_{}.snap", std::process::id()));
        // Strand plausible-looking crash litter next to the destination,
        // including one with the legacy fixed name.
        let litter = [
            path.with_extension(format!("tmp.{}", std::process::id())),
            path.with_extension(format!("tmp.{}.0", std::process::id())),
            path.with_extension("tmp.99999.7"),
        ];
        for l in &litter {
            std::fs::write(l, b"torn half-written garbage").unwrap();
        }
        persist(&path, &index, &index.class_labels(&labeling), 8, 5, 1)
            .expect("persist over litter");
        let snap = load(&path).expect("load with litter present");
        assert_eq!(snap.index, index);
        for l in &litter {
            let _ = std::fs::remove_file(l);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_foreign_and_damaged_headers() {
        let (index, labeling) = sample_index();
        let good = encode(&index, &labeling, 8, 5, 1);

        assert!(matches!(decode(&good[..HEADER_LEN - 1]), Err(SnapshotError::Truncated { .. })));
        assert!(matches!(decode(b"not a snapshot"), Err(SnapshotError::Truncated { .. })));

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(SnapshotError::BadMagic)));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode(&bad), Err(SnapshotError::UnsupportedVersion { found: 99 })));

        // A v3 image whose properly signed header says version 1 or 2: the
        // retired layouts are refused, not guessed at.
        for version in [1u32, 2] {
            let mut bad = good.clone();
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            resign(&mut bad);
            assert!(
                matches!(decode(&bad), Err(SnapshotError::UnsupportedVersion { found }) if found == version)
            );
        }

        // Any other header flip trips the header checksum.
        let mut bad = good.clone();
        bad[17] ^= 0x40; // n
        assert!(matches!(decode(&bad), Err(SnapshotError::HeaderCorrupt { .. })));

        // Flip the header checksum itself.
        let mut bad = good.clone();
        bad[HEADER_CHECKSUM_OFFSET] ^= 1;
        assert!(matches!(decode(&bad), Err(SnapshotError::HeaderCorrupt { .. })));

        // A signed header with an unknown algorithm tag.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&3u32.to_le_bytes());
        resign(&mut bad);
        assert!(matches!(decode(&bad), Err(SnapshotError::HeaderCorrupt { .. })));

        // Truncation inside the payload is Truncated, not a panic.
        let bad = &good[..good.len() - 8];
        assert!(matches!(decode(bad), Err(SnapshotError::Truncated { .. })));

        // Trailing garbage is rejected too.
        let mut bad = good.clone();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(matches!(decode(&bad), Err(SnapshotError::HeaderCorrupt { .. })));
    }

    #[test]
    fn impossible_counts_are_refused_before_the_body_is_sized() {
        // Signed headers whose n or c no file can hold: each is refused on
        // the header alone — never an overflow, never an allocation, also
        // through `load` on a file that is nothing but the header.
        let (index, labeling) = sample_index();
        let good = encode(&index, &labeling, 8, 5, 1);
        let path =
            std::env::temp_dir().join(format!("ampc_snap_counts_{}.snap", std::process::id()));
        for (n, c) in [(1u64 << 32, 4), (8, 9), (8, u64::MAX), (u64::MAX, u64::MAX)] {
            let mut bad = good[..HEADER_LEN].to_vec();
            bad[16..24].copy_from_slice(&n.to_le_bytes());
            bad[32..40].copy_from_slice(&c.to_le_bytes());
            resign(&mut bad);
            assert!(
                matches!(decode(&bad), Err(SnapshotError::HeaderCorrupt { .. })),
                "n = {n}, c = {c}"
            );
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(load(&path), Err(SnapshotError::HeaderCorrupt { .. })),
                "n = {n}, c = {c}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_bit_flips_trip_section_checksums() {
        let (index, labeling) = sample_index();
        let good = encode(&index, &labeling, 8, 5, 1);
        for (name, at) in SECTION_NAMES.into_iter().zip(layout(8, 4).unwrap()) {
            let mut bad = good.clone();
            bad[at.start] ^= 0x01;
            match decode(&bad) {
                Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, name),
                other => panic!(
                    "flip in `{name}` gave {:?}, expected its checksum to trip",
                    other.err().map(|e| e.to_string())
                ),
            }
        }
    }
}
