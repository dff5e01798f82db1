//! DHT keys.
//!
//! Algorithms in the paper keep several logical tables in the shared DHT at
//! once (vertex ranks, successor pointers, stamps, parent pointers, …). We
//! model that with a composite key: a small *keyspace* tag plus a 64-bit
//! identifier, so one physical [`crate::Dht`] can host all logical tables of
//! an algorithm while space accounting stays unified.
//!
//! This module is the single home of key-packing knowledge. A key packs
//! into one `u64` (the keyspace tag over a 48-bit id), which is what the
//! hash-map stores probe and what the dense store routes by; and a buffered
//! write packs into one *op word*, the op's kind in the top two bits over the
//! packed key, which is what a round's write log holds. The op word is why a
//! keyspace tag must stay below `2^14` ([`Key::OP_SPACES`]).

use std::fmt;

/// Identifier of a logical table ("keyspace") within the DHT.
///
/// Algorithm crates define constants for their keyspaces, e.g. one for
/// vertex ranks and one for successor pointers. A keyspace written in a
/// round must be below `2^14`: a buffered write packs its keyspace, id and
/// op kind into one word, and a write past the bound panics.
pub type Space = u16;

/// A key in the shared DHT: `(keyspace, 64-bit id)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Logical table this key belongs to.
    pub space: Space,
    /// Identifier within the table (vertex id, edge id, …).
    pub id: u64,
}

impl Key {
    /// Bits of a packed key available to the identifier; the remaining high
    /// bits carry the keyspace tag. The packed layout is defined in this
    /// module and nowhere else — storage code must go through the helpers
    /// below rather than shifting by hand.
    pub(crate) const ID_BITS: u32 = 48;

    /// Largest identifier a key can carry (`2^48 − 1`).
    pub(crate) const MAX_ID: u64 = (1 << Key::ID_BITS) - 1;

    /// Upper clamp for direct-indexed ("dense") slab capacity hints: a slab
    /// can never usefully exceed the id domain, and a hint near `usize::MAX`
    /// must not be allowed to attempt a matching allocation. `2^28` slots is
    /// far above every workload in this repository while keeping the worst
    /// accidental allocation bounded (a few GiB, not an address-space-sized
    /// request).
    pub(crate) const MAX_DENSE_CAP: usize = 1 << 28;

    /// Shift of an op word's kind bits: the top two bits of the word, over a
    /// packed key that must leave them clear.
    const OP_KIND_SHIFT: u32 = 62;

    /// The bits of an op word that hold the packed key.
    const OP_KEY_MASK: u64 = (1 << Key::OP_KIND_SHIFT) - 1;

    /// Keyspace tags an op word can carry: those below `2^14`, the packed
    /// key's 62 bits less [`Key::ID_BITS`]. The write log checks it the first
    /// time a worker's buffers see a keyspace, not once per op.
    pub(crate) const OP_SPACES: usize = 1 << (Key::OP_KIND_SHIFT - Key::ID_BITS);

    /// Creates a key in keyspace `space` with identifier `id`.
    #[inline]
    pub const fn new(space: Space, id: u64) -> Self {
        Key { space, id }
    }

    /// Packs the key into a single `u64`-sized probe-friendly value used by
    /// the internal hash. The id occupies the low 48 bits (sufficient for
    /// every workload in this repository; asserted in debug builds) and the
    /// space tag the high 16.
    #[inline]
    pub(crate) fn packed(self) -> u64 {
        debug_assert!(self.id <= Key::MAX_ID, "key id exceeds 48 bits: {}", self.id);
        ((self.space as u64) << Key::ID_BITS) | self.id
    }

    /// Extracts the keyspace tag from a packed key word.
    #[inline]
    pub(crate) const fn space_of_packed(packed: u64) -> Space {
        (packed >> Key::ID_BITS) as Space
    }

    /// Extracts the identifier from a packed key word (the dense backend's
    /// slab index and the range partitioner's sort key).
    #[inline]
    pub(crate) const fn id_of_packed(packed: u64) -> u64 {
        packed & Key::MAX_ID
    }

    /// Reconstructs a [`Key`] from its packed form (inverse of
    /// [`Key::packed`]).
    #[inline]
    pub(crate) const fn from_packed(packed: u64) -> Key {
        Key { space: Key::space_of_packed(packed), id: Key::id_of_packed(packed) }
    }

    /// Encodes a buffered op of `kind` on this key as one word: the kind in
    /// the top two bits over the packed key. The mask keeps the kind intact
    /// whatever the key; the keyspace bound [`Key::OP_SPACES`] is what makes
    /// the key come back whole.
    #[inline]
    pub(crate) fn op_word(self, kind: OpKind) -> u64 {
        ((kind as u64) << Key::OP_KIND_SHIFT) | (self.packed() & Key::OP_KEY_MASK)
    }

    /// Decodes an op word (inverse of [`Key::op_word`] for keyspaces below
    /// [`Key::OP_SPACES`]).
    #[inline]
    pub(crate) const fn from_op_word(word: u64) -> (OpKind, Key) {
        let kind = match word >> Key::OP_KIND_SHIFT {
            0 => OpKind::Put,
            1 => OpKind::Merge,
            // 3 is never written.
            _ => OpKind::Delete,
        };
        (kind, Key::from_packed(word & Key::OP_KEY_MASK))
    }
}

/// The kind of a buffered write, as stored in the top two bits of its op
/// word ([`Key::op_word`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// A replacing write; its value is in the log's value column.
    Put = 0,
    /// A merging write; its value is in the log's value column.
    Merge = 1,
    /// A deletion: the word is the whole op.
    Delete = 2,
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({}:{})", self.space, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_is_injective_across_spaces() {
        let a = Key::new(1, 7).packed();
        let b = Key::new(2, 7).packed();
        let c = Key::new(1, 8).packed();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn ordering_groups_by_space_first() {
        let mut keys = vec![Key::new(2, 0), Key::new(1, 9), Key::new(1, 3)];
        keys.sort();
        assert_eq!(keys, vec![Key::new(1, 3), Key::new(1, 9), Key::new(2, 0)]);
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", Key::new(3, 42)), "Key(3:42)");
    }

    #[test]
    fn packed_round_trips_for_random_keys() {
        // from_packed must invert packed exactly, and space_of_packed must
        // agree with the full unpacking.
        let mut r = crate::rng::SplitMix64::new(0xC0FFEE);
        for _ in 0..1000 {
            let key = Key::new(r.next_below(1 << 16) as Space, r.next_below(1 << 48));
            let p = key.packed();
            assert_eq!(Key::from_packed(p), key);
            assert_eq!(Key::space_of_packed(p), key.space);
        }
    }

    #[test]
    fn id_of_packed_matches_key_id() {
        let mut r = crate::rng::SplitMix64::new(0xDE);
        for _ in 0..1000 {
            let key = Key::new(r.next_below(1 << 16) as Space, r.next_below(1 << 48));
            assert_eq!(Key::id_of_packed(key.packed()), key.id);
        }
        assert_eq!(Key::id_of_packed(Key::new(u16::MAX, Key::MAX_ID).packed()), Key::MAX_ID);
    }

    #[test]
    fn op_words_round_trip_for_every_kind() {
        let mut r = crate::rng::SplitMix64::new(0x0B);
        let top = (Key::OP_SPACES - 1) as Space;
        for i in 0..1000 {
            let key = match i {
                0 => Key::new(top, Key::MAX_ID),
                1 => Key::new(0, 0),
                _ => Key::new(r.next_below(Key::OP_SPACES as u64) as Space, r.next_below(1 << 48)),
            };
            for kind in [OpKind::Put, OpKind::Merge, OpKind::Delete] {
                assert_eq!(Key::from_op_word(key.op_word(kind)), (kind, key), "{key:?} {kind:?}");
            }
        }
        assert_eq!(Key::OP_SPACES, 1 << 14);
    }

    #[test]
    fn packed_preserves_ordering_within_a_space() {
        let mut r = crate::rng::SplitMix64::new(11);
        for _ in 0..1000 {
            let a = Key::new(5, r.next_below(1 << 48));
            let b = Key::new(5, r.next_below(1 << 48));
            assert_eq!(a.packed().cmp(&b.packed()), a.cmp(&b));
        }
    }
}
