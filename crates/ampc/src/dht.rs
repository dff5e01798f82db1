//! DHT storage backends.
//!
//! A storage backend plays the role of a round's *read-only* snapshot.
//! Machine write buffers are merged into a copy of it at the end of each
//! round (see [`crate::AmpcSystem`]), which models the common AMPC idiom of
//! carrying unchanged data forward: conceptually machines rewrite data they
//! still need; physically nobody implements it that way and neither do we.
//! Space accounting is unaffected because peak space per round is computed
//! as `snapshot words + communication words`, which upper-bounds the
//! literal "fresh output DHT" model.
//!
//! Three stores implement the [`DhtStorage`] trait, and [`Dht`] — the enum
//! over them that [`DhtBackend`] selects, and the one place that turns the
//! backend *value* into a store — implements it by delegating:
//!
//! * [`FlatDht`] — one hash map, the reference implementation;
//! * [`ShardedDht`] — `N` power-of-two shards selected by packed-key hash,
//!   with a shard-parallel merge;
//! * [`DenseDht`] — per-keyspace direct-indexed slabs sized to a capacity
//!   hint, with a hash-map overflow for ids beyond the slab. A slab is a
//!   `Vec<V>` of slots plus a presence bitmap, so a slot costs one `V`
//!   (8 bytes for `u64`) plus one bit. The slots are filled with
//!   `V::default()`; for `u64` that is a zeroed allocation, whose pages the
//!   kernel maps lazily, so a round touches only the pages it writes. An adaptive read costs a bit test plus an array load — no
//!   hashing at all on the dense hot path — and the merge is partitioned by
//!   contiguous id *ranges* of at least 64 ids (one bitmap word) instead of
//!   hash shards.
//!
//! Writes are **scattered at the source**: a [`crate::MachineCtx`] routes
//! every op by [`DhtStorage::shard_of`] into its worker's [`ShardBuffers`]
//! the moment it is issued, and [`DhtStorage::apply_ops`] receives the
//! grid of all workers' buffers. A buffered op is one op word (the kind over
//! the packed key, laid out in `key.rs`) plus, for a put or a merge, its
//! value in a second column; every apply path reads them back through one
//! `drain`. A worker runs a contiguous block of
//! machine indices in order, so within shard `s` the concatenation of the
//! workers' lists in worker order is exactly the subsequence of the global
//! machine-order (then issue-order) op stream that lands on `s`. Because a
//! key maps to exactly one shard — `shard_of` is a pure function of the
//! packed key, whether it hashes ([`ShardedDht`]), range-partitions
//! ([`DenseDht`]) or is constant ([`FlatDht`]) — ops on different shards
//! touch disjoint key sets and commute. The merged result is therefore
//! byte-identical to the fully sequential global machine-order merge, no
//! matter how many workers or shards exist or how the OS schedules them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::host_workers;
use crate::key::{Key, OpKind, Space};
use crate::value::DhtValue;

/// A fast multiply-xor hasher (FxHash-style) for the packed 64-bit keys.
/// SipHash resistance is unnecessary: keys are internal vertex identifiers.
#[derive(Default)]
pub(crate) struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fold the slice one 8-byte chunk — one multiply round — at a time
        // rather than one round per byte. The tail chunk is length-tagged in
        // its (necessarily zero) top byte so slices that differ only in
        // trailing zero bytes still hash apart.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(tail) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // Single multiply-xorshift round; ample for low-collision integer ids.
        let mut x = self.0 ^ i;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        self.0 = x;
    }
}

type Build = BuildHasherDefault<PackedKeyHasher>;

/// A buffered mutation, applied to the snapshot when the round completes.
#[derive(Debug, Clone)]
pub enum WriteOp<V> {
    /// Replace the value at the key (last machine in index order wins).
    Put(V),
    /// Keep the larger of the existing value and this one.
    Merge(V),
    /// Remove the key (models shrinking algorithms retiring dead entries).
    Delete,
}

/// One buffered op list, in issue order, as two columns: one op word per op
/// ([`Key::op_word`]: the kind over the packed key), and the values of the
/// puts and merges alone. A `u64` put or merge holds 16 bytes, a delete 8.
struct OpList<V> {
    words: Vec<u64>,
    values: Vec<V>,
}

impl<V> OpList<V> {
    fn new() -> Self {
        OpList { words: Vec::new(), values: Vec::new() }
    }

    #[inline]
    fn push(&mut self, key: Key, op: WriteOp<V>) {
        let kind = match op {
            WriteOp::Put(v) => {
                self.values.push(v);
                OpKind::Put
            }
            WriteOp::Merge(v) => {
                self.values.push(v);
                OpKind::Merge
            }
            WriteOp::Delete => OpKind::Delete,
        };
        self.words.push(key.op_word(kind));
    }

    fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    fn clear(&mut self) {
        self.words.clear();
        self.values.clear();
    }

    /// Yields the ops in issue order, emptying both columns in place. Both
    /// are `Vec::drain`s, so an apply that unwinds part way still leaves the
    /// list empty (never a word without its value), and the capacity stays.
    #[inline]
    fn drain(&mut self) -> impl Iterator<Item = (Key, WriteOp<V>)> + '_ {
        let mut values = self.values.drain(..);
        self.words.drain(..).map(move |word| {
            let (kind, key) = Key::from_op_word(word);
            let op = match kind {
                OpKind::Put => WriteOp::Put(values.next().expect("a put carries a value")),
                OpKind::Merge => WriteOp::Merge(values.next().expect("a merge carries a value")),
                OpKind::Delete => WriteOp::Delete,
            };
            (key, op)
        })
    }
}

/// One worker's buffered writes for a round, routed by shard at the moment
/// they were issued: `lists[s]` holds the ops whose key maps to shard `s`,
/// in the order the worker's machines issued them.
///
/// The executor owns one `ShardBuffers` per worker for the lifetime of the
/// deployment; [`DhtStorage::apply_ops`] drains the lists in place, so they
/// keep their capacity and steady-state rounds buffer without allocating.
pub struct ShardBuffers<V> {
    lists: Vec<OpList<V>>,
    /// Bit `s` is set iff an op on keyspace `s` was ever buffered here (the
    /// dense backend makes sure those slabs exist before it fans out).
    spaces: Vec<u64>,
}

impl<V> ShardBuffers<V> {
    /// Empty buffers for a store with `shards` shards.
    pub fn new(shards: usize) -> Self {
        ShardBuffers { lists: (0..shards).map(|_| OpList::new()).collect(), spaces: Vec::new() }
    }

    /// Buffers `op` on `key`, whose shard the caller resolved with
    /// [`DhtStorage::shard_of`] on the store the buffers were sized for.
    ///
    /// # Panics
    ///
    /// If `key.space` is `2^14` or above: an op word has no room for it.
    #[inline]
    pub fn push(&mut self, shard: usize, key: Key, op: WriteOp<V>) {
        let word = (key.space >> 6) as usize;
        if word >= self.spaces.len() {
            self.grow_spaces(key.space);
        }
        self.spaces[word] |= 1 << (key.space & 63);
        self.lists[shard].push(key, op);
    }

    /// Widens the keyspace bitset to cover `space`, after checking the op
    /// word can carry it. The bitset never outgrows the bound, so every push
    /// on a keyspace past it lands here, while pushes on known keyspaces
    /// never do.
    #[cold]
    #[inline(never)]
    fn grow_spaces(&mut self, space: Space) {
        assert!(
            (space as usize) < Key::OP_SPACES,
            "keyspace {space} is out of range: a buffered op carries keyspaces below {}",
            Key::OP_SPACES
        );
        self.spaces.resize(space as usize / 64 + 1, 0);
    }

    /// Number of shard lists (the store's shard count).
    pub fn shard_count(&self) -> usize {
        self.lists.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(OpList::is_empty)
    }

    /// Discards everything buffered, keeping the lists' capacity.
    pub fn clear(&mut self) {
        self.lists.iter_mut().for_each(OpList::clear);
    }

    /// The keyspaces ever written through these buffers, ascending.
    fn spaces(&self) -> impl Iterator<Item = Space> + '_ {
        self.spaces.iter().enumerate().flat_map(|(word, &bits)| {
            (0..64).filter(move |b| bits >> b & 1 == 1).map(move |b| (word * 64 + b) as Space)
        })
    }
}

/// Transposes the grid for a shard-parallel apply. `per_worker` yields each
/// worker's shard lists in worker order; element `b` of the result covers
/// shards `b * block ..` and holds one slice per worker, still in worker
/// order, of that worker's lists for those shards — so disjoint shard
/// blocks can be drained on different threads.
fn shard_blocks<'a, V: 'a>(
    per_worker: impl IntoIterator<Item = &'a mut [OpList<V>]>,
    block: usize,
) -> Vec<Vec<&'a mut [OpList<V>]>> {
    let mut blocks: Vec<Vec<&mut [OpList<V>]>> = Vec::new();
    for lists in per_worker {
        for (b, chunk) in lists.chunks_mut(block).enumerate() {
            if b == blocks.len() {
                blocks.push(Vec::new());
            }
            blocks[b].push(chunk);
        }
    }
    blocks
}

/// Which storage backend a deployment's DHT uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtBackend {
    /// One hash map ([`FlatDht`]) with a fully sequential merge: the
    /// reference the other backends are compared against.
    Flat,
    /// Power-of-two hash-partitioned shards ([`ShardedDht`]) with a
    /// shard-parallel merge.
    Sharded {
        /// Requested shard count, rounded up to a power of two.
        /// `0` selects an automatic count from the hardware parallelism.
        shards: usize,
    },
    /// Direct-indexed per-keyspace slabs ([`DenseDht`]) with a hash-map
    /// overflow and a range-partitioned parallel merge.
    Dense {
        /// Slab capacity per keyspace: ids `0..cap` are stored in the slab,
        /// everything above spills to the overflow map. `0` means
        /// "unhinted" — pipelines that know their id domain fill it in via
        /// [`DhtBackend::with_capacity_hint`], otherwise a modest default
        /// applies.
        cap: usize,
    },
}

impl Default for DhtBackend {
    /// Unhinted dense: the backend every ledger workload pins (2.5–3.3×
    /// faster than flat on a build), sized by each pipeline from its id
    /// domain.
    fn default() -> Self {
        DhtBackend::dense()
    }
}

impl DhtBackend {
    /// The sharded backend with an automatically chosen shard count.
    pub fn sharded() -> Self {
        DhtBackend::Sharded { shards: 0 }
    }

    /// The dense backend with an unhinted slab capacity (pipelines hint it
    /// from their input size via [`DhtBackend::with_capacity_hint`]).
    pub fn dense() -> Self {
        DhtBackend::Dense { cap: 0 }
    }

    /// Short display name (`"flat"` / `"sharded"` / `"dense"`).
    pub fn name(self) -> &'static str {
        match self {
            DhtBackend::Flat => "flat",
            DhtBackend::Sharded { .. } => "sharded",
            DhtBackend::Dense { .. } => "dense",
        }
    }

    /// Parses a backend spec: `flat`, `dense`, or `dense:CAP` (CAP ids per
    /// keyspace slab; bare `dense` lets the pipeline hint the capacity from
    /// its input). The single grammar every consumer parses backends with.
    /// [`DhtBackend::Sharded`] has no spelling: it is never the best value
    /// (DESIGN.md, "Storage: one decision, three stores"), so it is built
    /// as a value by the equivalence rows and the ledger only.
    pub fn parse(s: &str) -> Result<DhtBackend, String> {
        match s {
            "flat" => Ok(DhtBackend::Flat),
            "dense" => Ok(DhtBackend::dense()),
            other => {
                let Some(n) = other.strip_prefix("dense:") else {
                    return Err(format!("unknown backend {other:?} (expected flat|dense[:CAP])"));
                };
                let cap: usize =
                    n.parse().map_err(|e| format!("bad slab capacity in backend spec: {e}"))?;
                if cap == 0 {
                    return Err("dense slab capacity must be positive (omit :CAP to let the \
                                pipeline size the slab from its input)"
                        .into());
                }
                Ok(DhtBackend::Dense { cap })
            }
        }
    }

    /// Fills in an unhinted dense slab capacity from a caller who knows the
    /// id domain (typically the pipeline's vertex count). An explicit
    /// `dense:N` capacity and the non-dense backends pass through
    /// unchanged, so pipelines can apply their hint unconditionally.
    #[must_use]
    pub fn with_capacity_hint(self, cap: usize) -> Self {
        match self {
            DhtBackend::Dense { cap: 0 } => DhtBackend::Dense { cap },
            other => other,
        }
    }

    /// The dense slab capacity this backend resolves to: the hint (or the
    /// default when unhinted), clamped so an absurd request cannot attempt
    /// an address-space-sized allocation.
    pub fn resolved_dense_cap(self) -> usize {
        let cap = match self {
            DhtBackend::Dense { cap: 0 } => DEFAULT_DENSE_CAP,
            DhtBackend::Dense { cap } => cap,
            _ => DEFAULT_DENSE_CAP,
        };
        cap.clamp(1, Key::MAX_DENSE_CAP)
    }

    /// The shard count this backend resolves to on this host. Shard count
    /// never affects results (see the module docs), only merge parallelism.
    /// Explicit counts are clamped to `1..=65536` (the same bound as
    /// [`ShardedDht::with_shard_count`]) **before** rounding so absurd
    /// values can neither overflow `next_power_of_two` nor silently wrap to
    /// one shard. For the dense backend this is its range-partition count
    /// plus the overflow partition.
    pub fn resolved_shards(self) -> usize {
        match self {
            DhtBackend::Flat => 1,
            DhtBackend::Sharded { shards: 0 } => auto_shard_count(),
            DhtBackend::Sharded { shards } => shards.clamp(1, 1 << 16).next_power_of_two(),
            DhtBackend::Dense { .. } => dense_layout(self.resolved_dense_cap()).2 + 1,
        }
    }
}

/// Slab capacity used when a dense deployment never received a hint. Small
/// enough that a handful of keyspaces stay cheap on tiny inputs; anything
/// bigger should — and in this repository does — come from a pipeline that
/// knows its id domain.
const DEFAULT_DENSE_CAP: usize = 1 << 16;

/// Default shard count: a few shards per hardware thread so the merge can
/// load-balance, bounded so tiny deployments don't drown in empty maps.
fn auto_shard_count() -> usize {
    (host_workers() * 4).next_power_of_two().clamp(4, 256)
}

/// Range-partition layout for a dense slab of `cap` slots: returns
/// `(range_len, range_shift, num_ranges)` with `range_len = 1 << range_shift`
/// and `num_ranges = ceil(cap / range_len)`. A couple of ranges per hardware
/// thread keeps the parallel merge load-balanced; the power-of-two range
/// length makes partition routing a shift, not a division. A range is at
/// least 64 ids, so it owns whole words of a slab's presence bitmap.
fn dense_layout(cap: usize) -> (usize, u32, usize) {
    let target = (host_workers() * 2).next_power_of_two().clamp(2, 256);
    let range_len = cap.div_ceil(target).next_power_of_two().max(64);
    let shift = range_len.trailing_zeros();
    (range_len, shift, cap.div_ceil(range_len).max(1))
}

/// Storage interface of a round's snapshot.
///
/// [`Dht`] implements it for whichever backend the configuration names and
/// is what [`crate::AmpcSystem`] and [`crate::MachineCtx`] use unless told
/// otherwise; the three concrete stores implement it so the equivalence
/// tests can run them side by side.
pub trait DhtStorage<V: DhtValue>: Clone + Send + Sync {
    /// Creates an empty store configured for `backend`. [`Dht`] builds the
    /// store the value names; a concrete store handed a value that names
    /// another one (e.g. a [`FlatDht`] built from [`DhtBackend::Sharded`])
    /// takes its own default configuration.
    fn for_backend(backend: DhtBackend) -> Self;

    /// Looks up `key`.
    fn get(&self, key: Key) -> Option<&V>;

    /// Inserts `value` at `key`, replacing and returning any previous entry.
    fn insert(&mut self, key: Key, value: V) -> Option<V>;

    /// Keeps the larger of `value` and the entry at `key`, inserting it
    /// outright if absent.
    fn merge(&mut self, key: Key, value: V);

    /// Removes the entry at `key`, returning it if present.
    fn remove(&mut self, key: Key) -> Option<V>;

    /// Number of entries, which is the store's footprint in words.
    fn len(&self) -> usize;

    /// Stores `words` in `space`, word `i` at `Key::new(space, i)`, as that
    /// many [`DhtStorage::insert`]s would.
    fn load_space(&mut self, space: Space, words: SpaceWords<'_, V>) {
        load_by_inserts(self, space, words);
    }

    /// True when the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry in unspecified order.
    fn for_each_entry(&self, f: &mut dyn FnMut(Key, &V));

    /// Number of shards writes are routed into (the length every worker's
    /// [`ShardBuffers`] is created with).
    fn shard_count(&self) -> usize;

    /// The shard a key's ops belong to (always `< shard_count()`); a pure
    /// function of the packed key for the lifetime of the store.
    fn shard_of(&self, key: Key) -> usize;

    /// Applies a round's buffered ops: one [`ShardBuffers`] per executor
    /// worker, in worker order, each routed by [`DhtStorage::shard_of`].
    /// For every shard the implementation must apply the workers' lists in
    /// worker order and each list in its recorded order — that sequence is
    /// the machine-order subsequence of the round's ops landing on the
    /// shard (see the module docs). Distinct shards may be processed
    /// concurrently, on as many threads as the host has workers.
    ///
    /// Every list is left **drained with its capacity intact**, ready to
    /// buffer the next round.
    fn apply_ops(&mut self, bufs: &mut [ShardBuffers<V>]);

    /// All entries sorted by key — the canonical form used to compare final
    /// snapshots across backends.
    fn sorted_entries(&self) -> Vec<(Key, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_entry(&mut |k, v| out.push((k, *v)));
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

/// The words of one keyspace of a round-0 load, word `i` at id `i`.
pub enum SpaceWords<'a, V> {
    /// Words the caller already holds.
    Slice(&'a [V]),
    /// `len` words that the closure writes, every one, into a slice of
    /// `len` default values: a fresh dense slab itself, so words computed
    /// for the load are written once.
    Fill(usize, &'a mut dyn FnMut(&mut [V])),
}

impl<V> SpaceWords<'_, V> {
    fn len(&self) -> usize {
        match self {
            SpaceWords::Slice(words) => words.len(),
            SpaceWords::Fill(len, _) => *len,
        }
    }
}

/// [`DhtStorage::load_space`] as inserts, a `Fill` first staged in a `Vec`.
fn load_by_inserts<V: DhtValue>(
    store: &mut impl DhtStorage<V>,
    space: Space,
    words: SpaceWords<'_, V>,
) {
    let staged;
    let words = match words {
        SpaceWords::Slice(words) => words,
        SpaceWords::Fill(len, fill) => {
            let mut words = vec![V::default(); len];
            fill(&mut words);
            staged = words;
            &staged
        }
    };
    for (id, &word) in words.iter().enumerate() {
        store.insert(Key::new(space, id as u64), word);
    }
}

/// An immutable-per-round key-value store: the single-map reference backend.
#[derive(Clone)]
pub struct FlatDht<V> {
    map: HashMap<u64, V, Build>,
}

impl<V: DhtValue> Default for FlatDht<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: DhtValue> FlatDht<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlatDht { map: HashMap::default() }
    }

    /// Applies the given op lists one after the other, each in its recorded
    /// order, draining them in place (capacity stays with the list).
    fn apply_lists<'a>(&mut self, lists: impl IntoIterator<Item = &'a mut OpList<V>>)
    where
        V: 'a,
    {
        for ops in lists {
            for (key, op) in ops.drain() {
                self.apply_op(key, op);
            }
        }
    }

    /// Applies one buffered op.
    fn apply_op(&mut self, key: Key, op: WriteOp<V>) {
        match op {
            WriteOp::Put(v) => {
                self.insert(key, v);
            }
            WriteOp::Merge(v) => self.merge(key, v),
            WriteOp::Delete => {
                self.remove(key);
            }
        }
    }
}

impl<V: DhtValue> DhtStorage<V> for FlatDht<V> {
    fn for_backend(backend: DhtBackend) -> Self {
        // Only a caller that names `S = FlatDht` itself can get here with
        // another backend's value; the setting would be a silent no-op.
        debug_assert!(
            matches!(backend, DhtBackend::Flat),
            "FlatDht constructed for a {} backend config — leave the storage parameter at \
             its default (Dht), which follows AmpcConfig::backend",
            backend.name()
        );
        FlatDht::new()
    }

    #[inline]
    fn get(&self, key: Key) -> Option<&V> {
        self.map.get(&key.packed())
    }

    fn insert(&mut self, key: Key, value: V) -> Option<V> {
        self.map.insert(key.packed(), value)
    }

    fn merge(&mut self, key: Key, value: V) {
        self.map.entry(key.packed()).and_modify(|v| *v = (*v).max(value)).or_insert(value);
    }

    fn remove(&mut self, key: Key) -> Option<V> {
        self.map.remove(&key.packed())
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(Key, &V)) {
        for (&packed, v) in &self.map {
            f(Key::from_packed(packed), v);
        }
    }

    fn shard_count(&self) -> usize {
        1
    }

    #[inline]
    fn shard_of(&self, _key: Key) -> usize {
        0
    }

    fn apply_ops(&mut self, bufs: &mut [ShardBuffers<V>]) {
        self.apply_lists(bufs.iter_mut().map(|b| &mut b.lists[0]));
    }
}

/// One multiply-xorshift round used to spread packed keys over shards.
/// This is the same mix the per-shard maps' [`PackedKeyHasher`] applies, so
/// the **shard index must not reuse its low bits**: hashbrown derives
/// bucket indices from the low hash bits, and routing on them would leave
/// every shard's map using only every `N`-th bucket. [`ShardedDht`]
/// therefore takes the shard index from bit 32 upward — disjoint from the
/// bucket bits of any realistically sized shard (< 2^32 entries) and from
/// the top-7 control bits.
#[inline]
fn spread(packed: u64) -> u64 {
    let mut x = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x
}

/// Hash-partitioned storage: `N` power-of-two [`FlatDht`] shards, so the
/// shard-parallel merge can apply every shard's op list on an independent
/// worker without synchronization.
#[derive(Clone)]
pub struct ShardedDht<V> {
    shards: Vec<FlatDht<V>>,
    mask: u64,
}

impl<V: DhtValue> ShardedDht<V> {
    /// Creates an empty store with `shards` shards (rounded up to a power
    /// of two, clamped to `1..=65536`).
    pub fn with_shard_count(shards: usize) -> Self {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        ShardedDht {
            shards: (0..shards).map(|_| FlatDht::new()).collect(),
            mask: shards as u64 - 1,
        }
    }

    #[inline]
    fn shard_index(&self, key: Key) -> usize {
        // Bits 32.. of the spread hash: see `spread` for why the low bits
        // (hashbrown's bucket bits) must not select the shard.
        ((spread(key.packed()) >> 32) & self.mask) as usize
    }
}

impl<V: DhtValue> DhtStorage<V> for ShardedDht<V> {
    fn for_backend(backend: DhtBackend) -> Self {
        Self::with_shard_count(backend.resolved_shards())
    }

    #[inline]
    fn get(&self, key: Key) -> Option<&V> {
        self.shards[self.shard_index(key)].get(key)
    }

    fn insert(&mut self, key: Key, value: V) -> Option<V> {
        let s = self.shard_index(key);
        self.shards[s].insert(key, value)
    }

    fn merge(&mut self, key: Key, value: V) {
        let s = self.shard_index(key);
        self.shards[s].merge(key, value)
    }

    fn remove(&mut self, key: Key) -> Option<V> {
        let s = self.shard_index(key);
        self.shards[s].remove(key)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(FlatDht::len).sum()
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(Key, &V)) {
        for shard in &self.shards {
            shard.for_each_entry(f);
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        self.shard_index(key)
    }

    fn apply_ops(&mut self, bufs: &mut [ShardBuffers<V>]) {
        let workers = host_workers().min(self.shards.len());
        if workers > 1 {
            // Shard-parallel merge on scoped worker threads: each thread owns
            // a contiguous block of shards, so no shard is touched twice and
            // each shard's ops are applied in worker order, then list order.
            let block = self.shards.len().div_ceil(workers);
            let groups = shard_blocks(bufs.iter_mut().map(|b| &mut b.lists[..]), block);
            std::thread::scope(|scope| {
                for (shard_block, mut group) in self.shards.chunks_mut(block).zip(groups) {
                    scope.spawn(move || {
                        for (offset, shard) in shard_block.iter_mut().enumerate() {
                            shard.apply_lists(group.iter_mut().map(|lists| &mut lists[offset]));
                        }
                    });
                }
            });
        } else {
            for (s, shard) in self.shards.iter_mut().enumerate() {
                shard.apply_lists(bufs.iter_mut().map(|b| &mut b.lists[s]));
            }
        }
    }
}

/// One direct-indexed keyspace slab: `slots[id]` holds the value of
/// `Key::new(space, id)` when bit `id % 64` of `present[id / 64]` is set,
/// with an entry counter maintained alongside so `len` never scans the slab.
#[derive(Clone)]
struct DenseSlab<V> {
    /// Empty until the space is first written, then exactly `cap` slots; an
    /// absent slot holds `V::default()`.
    slots: Vec<V>,
    /// One presence bit per slot, `cap.div_ceil(64)` words.
    present: Vec<u64>,
    /// Occupied slots.
    len: usize,
}

impl<V> DenseSlab<V> {
    fn empty() -> Self {
        DenseSlab { slots: Vec::new(), present: Vec::new(), len: 0 }
    }
}

/// One merge partition's slots of a slab and their presence words.
type RangeView<'a, V> = (&'a mut [V], &'a mut [u64]);

/// The presence word index and bit of slot `i`.
#[inline]
fn presence_bit(i: usize) -> (usize, u64) {
    (i / 64, 1 << (i % 64))
}

/// Applies one buffered op to a slab slot whose presence is `bit` of `word`,
/// adding the change in entries to `d` and returning the displaced value
/// (for `Put` and `Delete`). The **single** definition of dense op
/// semantics: the direct `insert`/`remove`/`merge` methods, the sequential
/// merge path, and the range-parallel merge workers (which cannot touch the
/// shared counters) all route through it. A delete of an absent slot reads
/// its bit and touches nothing else.
#[inline]
fn apply_slot_op<V: DhtValue>(
    slot: &mut V,
    word: &mut u64,
    bit: u64,
    op: WriteOp<V>,
    d: &mut i64,
) -> Option<V> {
    let present = *word & bit != 0;
    match op {
        WriteOp::Put(v) if present => return Some(std::mem::replace(slot, v)),
        WriteOp::Merge(v) if present => *slot = (*slot).max(v),
        // A store, not a swap: reading a never-written slot first would map
        // the zero page and then fault again on the write.
        WriteOp::Put(v) | WriteOp::Merge(v) => {
            *slot = v;
            *word |= bit;
            *d += 1;
        }
        WriteOp::Delete if present => {
            *word &= !bit;
            *d -= 1;
            return Some(std::mem::take(slot));
        }
        WriteOp::Delete => {}
    }
    None
}

/// Direct-indexed storage: one `DenseSlab` per keyspace for ids below the
/// capacity hint, a [`FlatDht`] overflow for everything above it.
///
/// A dense `get` is a bounds check, a presence-bit test and an array load —
/// zero hashing on the single most-executed instruction sequence in the
/// simulator (the adaptive read). The bounds check doubles as the
/// slab/overflow discriminator: an unallocated slab has zero length, so
/// every id falls through to the overflow probe, and arbitrary (sparse,
/// huge) ids stay correct.
///
/// The merge is partitioned by contiguous id **ranges** — `shard_of` is
/// `id >> range_shift` for in-slab ids plus one dedicated overflow
/// partition — so distinct partitions touch disjoint slot ranges of every
/// slab (and the overflow map is owned by exactly one partition). The
/// parallel apply hands each worker its partitions' slot ranges and
/// presence words via `chunks_mut` (a range is at least 64 ids, a whole
/// number of bitmap words) and collects per-partition entry deltas,
/// folding them into the per-slab counters after the join;
/// the result is byte-identical to the sequential machine-order merge by
/// the same argument as the hash-sharded backend.
#[derive(Clone)]
pub struct DenseDht<V> {
    /// Indexed by keyspace tag, grown on demand.
    slabs: Vec<DenseSlab<V>>,
    /// Entries whose id is `>= cap`.
    overflow: FlatDht<V>,
    /// Slab capacity per keyspace (ids `0..cap` are slab-resident).
    cap: usize,
    /// `1 << range_shift`; the id width of one merge partition.
    range_len: usize,
    range_shift: u32,
    /// Number of id-range partitions (the overflow partition is one more).
    num_ranges: usize,
}

impl<V: DhtValue> DenseDht<V> {
    /// Creates an empty store whose slabs hold `cap` ids per keyspace
    /// (clamped to `1..=2^28`; see [`DhtBackend::resolved_dense_cap`]).
    pub fn with_slab_capacity(cap: usize) -> Self {
        let cap = cap.clamp(1, Key::MAX_DENSE_CAP);
        let (range_len, range_shift, num_ranges) = dense_layout(cap);
        DenseDht {
            slabs: Vec::new(),
            overflow: FlatDht::new(),
            cap,
            range_len,
            range_shift,
            num_ranges,
        }
    }

    /// Slab capacity per keyspace.
    pub fn slab_capacity(&self) -> usize {
        self.cap
    }

    /// Entries currently held in the overflow map (ids `>= cap`).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Allocates the slab for `space` if it has never been written.
    fn ensure_slab(&mut self, space: Space) -> &mut DenseSlab<V> {
        let idx = space as usize;
        if idx >= self.slabs.len() {
            self.slabs.resize_with(idx + 1, DenseSlab::empty);
        }
        let slab = &mut self.slabs[idx];
        if slab.slots.is_empty() {
            // `vec!` of a zero `u64` is a zeroed allocation: the kernel maps
            // its pages on first write, not here.
            slab.slots = vec![V::default(); self.cap];
            slab.present = vec![0; self.cap.div_ceil(64)];
        }
        slab
    }

    /// Applies one op to the in-slab slot of `key` through [`apply_slot_op`]
    /// and folds the entry delta into the slab counter, returning the
    /// displaced value. Caller guarantees `key.id < cap`.
    fn slab_op(&mut self, key: Key, op: WriteOp<V>) -> Option<V> {
        debug_assert!(key.id < self.cap as u64);
        let slab = self.ensure_slab(key.space);
        let mut d = 0i64;
        let i = key.id as usize;
        let (w, bit) = presence_bit(i);
        let old = apply_slot_op(&mut slab.slots[i], &mut slab.present[w], bit, op, &mut d);
        slab.len = (slab.len as i64 + d) as usize;
        old
    }

    /// Applies one op through the slab/overflow routing, keeping the
    /// per-slab counters current (the sequential merge path).
    fn apply_one(&mut self, key: Key, op: WriteOp<V>) {
        // Compare ids in u64: `key.id as usize` would truncate 48-bit ids
        // on a 32-bit target and misroute them between slab and overflow.
        if key.id < self.cap as u64 {
            self.slab_op(key, op);
        } else {
            self.overflow.apply_op(key, op);
        }
    }
}

impl<V: DhtValue> DhtStorage<V> for DenseDht<V> {
    fn for_backend(backend: DhtBackend) -> Self {
        debug_assert!(
            matches!(backend, DhtBackend::Dense { .. }),
            "DenseDht constructed for a {} backend config — leave the storage parameter at \
             its default (Dht), which follows AmpcConfig::backend",
            backend.name()
        );
        Self::with_slab_capacity(backend.resolved_dense_cap())
    }

    #[inline]
    fn get(&self, key: Key) -> Option<&V> {
        // The hot path: one slab-header load, one bounds check, one bit
        // test, one indexed load. An unallocated slab has `slots.len() == 0`,
        // so the bounds check also routes never-written spaces and
        // out-of-slab ids to the overflow probe.
        match self.slabs.get(key.space as usize) {
            Some(slab) if key.id < slab.slots.len() as u64 => {
                let i = key.id as usize;
                let (w, bit) = presence_bit(i);
                (slab.present[w] & bit != 0).then(|| &slab.slots[i])
            }
            _ if key.id >= self.cap as u64 => self.overflow.get(key),
            _ => None,
        }
    }

    fn insert(&mut self, key: Key, value: V) -> Option<V> {
        if key.id < self.cap as u64 {
            self.slab_op(key, WriteOp::Put(value))
        } else {
            self.overflow.insert(key, value)
        }
    }

    fn merge(&mut self, key: Key, value: V) {
        self.apply_one(key, WriteOp::Merge(value));
    }

    fn remove(&mut self, key: Key) -> Option<V> {
        if key.id < self.cap as u64 {
            // Don't allocate a slab just to observe the slot was empty.
            match self.slabs.get(key.space as usize) {
                Some(slab) if !slab.slots.is_empty() => self.slab_op(key, WriteOp::Delete),
                _ => None,
            }
        } else {
            self.overflow.remove(key)
        }
    }

    fn len(&self) -> usize {
        self.slabs.iter().map(|s| s.len).sum::<usize>() + self.overflow.len()
    }

    /// Into a never-written slab that holds every id, the words are one
    /// copy (or the slots a `Fill` writes) and their presence bits are set
    /// a word at a time. A slab already written, or one the words overrun,
    /// takes them as inserts.
    fn load_space(&mut self, space: Space, words: SpaceWords<'_, V>) {
        let written = self.slabs.get(space as usize).is_some_and(|s| !s.slots.is_empty());
        let len = words.len();
        if written || len == 0 || len > self.cap {
            return load_by_inserts(self, space, words);
        }
        let slab = self.ensure_slab(space);
        match words {
            SpaceWords::Slice(words) => slab.slots[..len].copy_from_slice(words),
            SpaceWords::Fill(_, fill) => fill(&mut slab.slots[..len]),
        }
        let (full, rest) = (len / 64, len % 64);
        slab.present[..full].fill(u64::MAX);
        if rest != 0 {
            slab.present[full] = (1 << rest) - 1;
        }
        slab.len = len;
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(Key, &V)) {
        for (space, slab) in self.slabs.iter().enumerate() {
            for (w, &word) in slab.present.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let id = w * 64 + bits.trailing_zeros() as usize;
                    f(Key::new(space as Space, id as u64), &slab.slots[id]);
                    bits &= bits - 1;
                }
            }
        }
        self.overflow.for_each_entry(f);
    }

    fn shard_count(&self) -> usize {
        self.num_ranges + 1
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        // Pure function of the packed key given the (fixed) layout:
        // contiguous id ranges, then the overflow partition.
        if key.id < self.cap as u64 {
            (key.id >> self.range_shift) as usize
        } else {
            self.num_ranges
        }
    }

    fn apply_ops(&mut self, bufs: &mut [ShardBuffers<V>]) {
        self.apply_ops_on(bufs, host_workers());
    }
}

impl<V: DhtValue> DenseDht<V> {
    /// [`DhtStorage::apply_ops`] on at most `workers` threads: one runs the
    /// sequential merge, more run the range-parallel one.
    fn apply_ops_on(&mut self, bufs: &mut [ShardBuffers<V>], workers: usize) {
        let workers = workers.min(self.num_ranges);
        if workers <= 1 {
            for s in 0..=self.num_ranges {
                for b in bufs.iter_mut() {
                    for (key, op) in b.lists[s].drain() {
                        self.apply_one(key, op);
                    }
                }
            }
            return;
        }

        // Make sure every slab the round wrote to exists, so the parallel
        // phase only ever indexes into existing slots (the buffers recorded
        // their keyspaces as the ops were issued — no scan of the ops).
        for b in bufs.iter() {
            for space in b.spaces() {
                self.ensure_slab(space);
            }
        }

        // Split borrows: range workers own disjoint `chunks_mut` slices of
        // the slabs while the main thread owns the overflow map.
        let DenseDht { slabs, overflow, range_len, num_ranges, .. } = self;
        let (range_len, num_ranges) = (*range_len, *num_ranges);
        let nspaces = slabs.len();

        // views[p][space] = the slot range partition p owns within
        // `space`'s slab and the presence words of those slots (None while
        // the slab is unallocated). `range_len` is a multiple of 64, so the
        // two chunkings line up and no two partitions share a word.
        let mut views: Vec<Vec<Option<RangeView<'_, V>>>> =
            (0..num_ranges).map(|_| (0..nspaces).map(|_| None).collect()).collect();
        // deltas[p][space] accumulates partition p's change in entries per
        // keyspace; folded into the slab counters after the join, since
        // workers cannot share the counters themselves.
        let mut deltas: Vec<Vec<i64>> = (0..num_ranges).map(|_| vec![0; nspaces]).collect();
        for (space, slab) in slabs.iter_mut().enumerate() {
            let chunks =
                slab.slots.chunks_mut(range_len).zip(slab.present.chunks_mut(range_len / 64));
            for (p, chunk) in chunks.enumerate() {
                views[p][space] = Some(chunk);
            }
        }

        let block = num_ranges.div_ceil(workers);
        // Peel every worker's overflow list (the last shard) off first;
        // the range lists in front of it go to the range threads.
        let (overflow_lists, range_lists): (Vec<_>, Vec<_>) = bufs
            .iter_mut()
            .map(|b| b.lists.split_last_mut().expect("dense buffers hold the overflow list"))
            .unzip();
        let groups = shard_blocks(range_lists, block);
        std::thread::scope(|scope| {
            for ((view_block, mut group), delta_block) in
                views.chunks_mut(block).zip(groups).zip(deltas.chunks_mut(block))
            {
                scope.spawn(move || {
                    let mask = range_len as u64 - 1;
                    for (offset, (view, delta)) in
                        view_block.iter_mut().zip(delta_block.iter_mut()).enumerate()
                    {
                        for lists in group.iter_mut() {
                            for (key, op) in lists[offset].drain() {
                                let (slots, present) =
                                    view[key.space as usize].as_mut().expect("slab preallocated");
                                let i = (key.id & mask) as usize;
                                let (w, bit) = presence_bit(i);
                                apply_slot_op(
                                    &mut slots[i],
                                    &mut present[w],
                                    bit,
                                    op,
                                    &mut delta[key.space as usize],
                                );
                            }
                        }
                    }
                });
            }
            // The overflow partition runs on this thread, concurrently with
            // the range workers — it owns the overflow map exclusively.
            overflow.apply_lists(overflow_lists);
        });

        drop(views);
        for per_space in deltas {
            for (slab, d) in slabs.iter_mut().zip(per_space) {
                slab.len = (slab.len as i64 + d) as usize;
            }
        }
    }
}

/// The store [`DhtBackend`] selects: the one place a backend *value* becomes
/// a backend *type*. Everything above `ampc` — pipelines, the CLI, the
/// service — carries the value and runs on this.
///
/// Reads and write routing sit on the path every adaptive hop takes, so
/// `get` and `shard_of` test for [`Dht::Dense`] (the default and the
/// measured backend) inline and send the two hash-probing stores through one
/// out-of-line call each: with all three arms inline the build measured
/// 2–3 % slower than the generic code this replaced, with the hash probes
/// out of line it measured flat (DESIGN.md, "Storage: one decision, three
/// stores").
#[derive(Clone)]
pub enum Dht<V> {
    /// [`DhtBackend::Flat`].
    Flat(FlatDht<V>),
    /// [`DhtBackend::Sharded`].
    Sharded(ShardedDht<V>),
    /// [`DhtBackend::Dense`].
    Dense(DenseDht<V>),
}

/// `$body` with `$store` bound to whichever store `$dht` holds.
macro_rules! with_store {
    ($dht:expr, $store:ident => $body:expr) => {
        match $dht {
            Dht::Flat($store) => $body,
            Dht::Sharded($store) => $body,
            Dht::Dense($store) => $body,
        }
    };
}

impl<V: DhtValue> Dht<V> {
    #[cold]
    #[inline(never)]
    fn get_hashed(&self, key: Key) -> Option<&V> {
        with_store!(self, s => s.get(key))
    }

    #[cold]
    #[inline(never)]
    fn shard_of_hashed(&self, key: Key) -> usize {
        with_store!(self, s => s.shard_of(key))
    }
}

impl<V: DhtValue> DhtStorage<V> for Dht<V> {
    fn for_backend(backend: DhtBackend) -> Self {
        match backend {
            DhtBackend::Flat => Dht::Flat(FlatDht::for_backend(backend)),
            DhtBackend::Sharded { .. } => Dht::Sharded(ShardedDht::for_backend(backend)),
            DhtBackend::Dense { .. } => Dht::Dense(DenseDht::for_backend(backend)),
        }
    }

    #[inline]
    fn get(&self, key: Key) -> Option<&V> {
        match self {
            Dht::Dense(s) => s.get(key),
            _ => self.get_hashed(key),
        }
    }

    fn insert(&mut self, key: Key, value: V) -> Option<V> {
        with_store!(self, s => s.insert(key, value))
    }

    fn merge(&mut self, key: Key, value: V) {
        with_store!(self, s => s.merge(key, value))
    }

    fn remove(&mut self, key: Key) -> Option<V> {
        with_store!(self, s => s.remove(key))
    }

    fn len(&self) -> usize {
        with_store!(self, s => s.len())
    }

    fn load_space(&mut self, space: Space, words: SpaceWords<'_, V>) {
        with_store!(self, s => s.load_space(space, words))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(Key, &V)) {
        with_store!(self, s => s.for_each_entry(f))
    }

    fn shard_count(&self) -> usize {
        with_store!(self, s => s.shard_count())
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        match self {
            Dht::Dense(s) => s.shard_of(key),
            _ => self.shard_of_hashed(key),
        }
    }

    fn apply_ops(&mut self, bufs: &mut [ShardBuffers<V>]) {
        with_store!(self, s => s.apply_ops(bufs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u16 = 0;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut d: FlatDht<u64> = FlatDht::new();
        assert!(d.is_empty());
        assert_eq!(d.insert(Key::new(S, 1), 10), None);
        assert_eq!(d.insert(Key::new(S, 1), 20), Some(10));
        assert_eq!(d.get(Key::new(S, 1)), Some(&20));
        assert_eq!(d.remove(Key::new(S, 1)), Some(20));
        assert!(d.get(Key::new(S, 1)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn merge_takes_maximum_for_u64() {
        let mut d: FlatDht<u64> = FlatDht::new();
        d.merge(Key::new(S, 5), 3);
        d.merge(Key::new(S, 5), 9);
        d.merge(Key::new(S, 5), 4);
        assert_eq!(d.get(Key::new(S, 5)), Some(&9));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn spaces_are_disjoint() {
        let mut d: FlatDht<u64> = FlatDht::new();
        d.insert(Key::new(1, 7), 100);
        d.insert(Key::new(2, 7), 200);
        assert_eq!(d.get(Key::new(1, 7)), Some(&100));
        assert_eq!(d.get(Key::new(2, 7)), Some(&200));
    }

    #[test]
    fn dense_keys_do_not_collide() {
        let mut d: FlatDht<u64> = FlatDht::new();
        for i in 0..10_000u64 {
            d.insert(Key::new(3, i), i * 2);
        }
        assert_eq!(d.len(), 10_000);
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(d.get(Key::new(3, i)), Some(&(i * 2)));
        }
    }
}

#[cfg(test)]
mod hasher_tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = PackedKeyHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn byte_slices_hash_in_word_chunks() {
        // A 16-byte slice must equal exactly two write_u64 rounds — the
        // whole point of the chunked write path.
        let bytes: [u8; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        let mut direct = PackedKeyHasher::default();
        direct.write_u64(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        direct.write_u64(u64::from_le_bytes(bytes[8..].try_into().unwrap()));
        assert_eq!(hash_bytes(&bytes), direct.finish());
    }

    #[test]
    fn trailing_zero_bytes_change_the_hash() {
        // The length tag keeps "ab" and "ab\0" apart even though the padded
        // tail words are identical.
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn distinct_slices_hash_distinctly() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(hash_bytes(&i.to_le_bytes())), "collision at {i}");
        }
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;

    /// One op of a test script: keyspace, id, op.
    type Op = (Space, u64, WriteOp<u64>);

    /// One worker per given op sequence, each routed into its own buffers
    /// by `store.shard_of` the way a `MachineCtx` does it.
    fn grid<S: DhtStorage<u64>>(store: &S, workers: &[&[Op]]) -> Vec<ShardBuffers<u64>> {
        workers
            .iter()
            .map(|ops| {
                let mut bufs = ShardBuffers::new(store.shard_count());
                for (space, id, op) in ops.iter().cloned() {
                    let key = Key::new(space, id);
                    bufs.push(store.shard_of(key), key, op);
                }
                bufs
            })
            .collect()
    }

    #[test]
    fn sharded_basic_ops_match_flat() {
        let mut flat: FlatDht<u64> = FlatDht::new();
        let mut sharded: ShardedDht<u64> = ShardedDht::with_shard_count(4);
        for i in 0..2000u64 {
            flat.insert(Key::new((i % 5) as Space, i), i * 3);
            DhtStorage::insert(&mut sharded, Key::new((i % 5) as Space, i), i * 3);
        }
        for i in (0..2000u64).step_by(7) {
            flat.remove(Key::new((i % 5) as Space, i));
            DhtStorage::remove(&mut sharded, Key::new((i % 5) as Space, i));
        }
        for i in 0..2000u64 {
            flat.merge(Key::new(6, i % 17), i);
            DhtStorage::merge(&mut sharded, Key::new(6, i % 17), i);
        }
        assert_eq!(flat.sorted_entries(), sharded.sorted_entries());
        assert_eq!(FlatDht::len(&flat), DhtStorage::len(&sharded));
    }

    #[test]
    fn shard_of_spreads_keys_over_the_shards() {
        let sharded: ShardedDht<u64> = ShardedDht::with_shard_count(8);
        let mut per_shard = [0usize; 8];
        for i in 0..1000u64 {
            per_shard[sharded.shard_of(Key::new(0, i))] += 1;
        }
        // The spreader must actually spread: no shard holds everything.
        assert!(per_shard.iter().all(|&c| c < 1000), "degenerate shard distribution");
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let d: ShardedDht<u64> = ShardedDht::with_shard_count(5);
        assert_eq!(d.shard_count(), 8);
        let d: ShardedDht<u64> = ShardedDht::with_shard_count(0);
        assert_eq!(d.shard_count(), 1);
    }

    #[test]
    fn apply_ops_preserves_machine_order_within_shard() {
        // Two workers write the same key: the later worker must win in both
        // backends, however many threads the sharded merge runs on.
        let mut flat: FlatDht<u64> = FlatDht::new();
        let mut sharded: ShardedDht<u64> = ShardedDht::with_shard_count(4);
        let worker0: &[Op] = &[(0, 1, WriteOp::Put(10)), (0, 2, WriteOp::Put(20))];
        let worker1: &[Op] = &[(0, 1, WriteOp::Put(11)), (0, 3, WriteOp::Delete)];
        let mut bufs = grid(&flat, &[worker0, worker1]);
        DhtStorage::apply_ops(&mut flat, &mut bufs);
        assert!(bufs.iter().all(ShardBuffers::is_empty), "apply_ops must drain the grid");
        let mut bufs = grid(&sharded, &[worker0, worker1]);
        DhtStorage::apply_ops(&mut sharded, &mut bufs);
        assert!(bufs.iter().all(ShardBuffers::is_empty), "apply_ops must drain the grid");
        assert_eq!(flat.sorted_entries(), sharded.sorted_entries());
        assert_eq!(DhtStorage::get(&sharded, Key::new(0, 1)), Some(&11));
    }

    /// Every list's value column holds exactly the values of its puts and
    /// merges: one per op word that is not a delete.
    fn columns_agree<V>(bufs: &[ShardBuffers<V>]) -> bool {
        bufs.iter().flat_map(|b| &b.lists).all(|list| {
            let valued =
                list.words.iter().filter(|&&w| Key::from_op_word(w).0 != OpKind::Delete).count();
            list.values.len() == valued
        })
    }

    /// Put / delete / merge / delete / put on key `base` of keyspace 1,
    /// interleaved with the same cycle, rotated, on `base ± 1`; then on each
    /// of them a merge of a smaller value, which a put would not ignore.
    fn interleaved(bases: &[u64], value: u64, rotate: usize) -> Vec<Op> {
        let cycle = |v: u64| {
            [
                WriteOp::Put(v),
                WriteOp::Delete,
                WriteOp::Merge(v + 1),
                WriteOp::Delete,
                WriteOp::Put(v),
            ]
        };
        let mut out = Vec::new();
        for &base in bases {
            for step in 0..5 {
                for (id, shift) in [(base, 0), (base + 1, 1), (base - 1, 3)] {
                    let v = value + 10 * shift as u64;
                    out.push((1, id, cycle(v)[(step + rotate + shift) % 5].clone()));
                }
            }
            for id in [base, base + 1, base - 1] {
                out.push((1, id, WriteOp::Merge(value / 2)));
            }
        }
        out
    }

    #[test]
    fn a_delete_buffers_a_word_and_no_value() {
        let mut bufs: ShardBuffers<u64> = ShardBuffers::new(1);
        bufs.push(0, Key::new(2, 9), WriteOp::Delete);
        assert_eq!((bufs.lists[0].words.len(), bufs.lists[0].values.len()), (1, 0));
        bufs.push(0, Key::new(2, 9), WriteOp::Put(4));
        bufs.push(0, Key::new(2, 9), WriteOp::Merge(5));
        assert_eq!((bufs.lists[0].words.len(), bufs.lists[0].values.len()), (3, 2));
        let drained: Vec<_> = bufs.lists[0].drain().map(|(k, op)| (k, format!("{op:?}"))).collect();
        let key = Key::new(2, 9);
        assert_eq!(
            drained,
            [(key, "Delete".to_string()), (key, "Put(4)".into()), (key, "Merge(5)".into())]
        );
        assert!(bufs.is_empty() && bufs.lists[0].values.is_empty());
    }

    #[test]
    fn interleaved_ops_apply_in_issue_order_on_every_backend() {
        // Keys 2..4 sit in every slab of 16 ids; 5000..5002 overflow it.
        let bases = [3u64, 5001];
        let worker0 = interleaved(&bases, 100, 0);
        let worker1 = interleaved(&bases, 200, 2);
        let mut reference: FlatDht<u64> = FlatDht::new();
        for (space, id, op) in worker0.iter().chain(&worker1).cloned() {
            reference.apply_op(Key::new(space, id), op);
        }
        let check = |mut store: Dht<u64>, case: &str| {
            let mut bufs = grid(&store, &[&worker0, &worker1]);
            for (b, ops) in bufs.iter().zip([&worker0, &worker1]) {
                let words: usize = b.lists.iter().map(|l| l.words.len()).sum();
                let values: usize = b.lists.iter().map(|l| l.values.len()).sum();
                let deletes = ops.iter().filter(|(.., op)| matches!(op, WriteOp::Delete)).count();
                assert_eq!((words, values), (ops.len(), ops.len() - deletes), "{case}");
            }
            store.apply_ops(&mut bufs);
            assert!(bufs.iter().all(ShardBuffers::is_empty), "{case}: grid not drained");
            assert!(columns_agree(&bufs), "{case}: a value outlived its word");
            assert_eq!(store.sorted_entries(), reference.sorted_entries(), "{case}");
            assert_eq!(store.len(), reference.len(), "{case}");
        };
        for backend in [
            DhtBackend::Flat,
            DhtBackend::Sharded { shards: 1 },
            DhtBackend::Sharded { shards: 4 },
            DhtBackend::Dense { cap: 1 },
            DhtBackend::Dense { cap: 16 },
            DhtBackend::Dense { cap: 8192 },
        ] {
            check(Dht::for_backend(backend), &format!("{backend:?}"));
        }
    }

    #[test]
    fn an_apply_that_unwinds_leaves_every_value_with_its_word() {
        // A value whose comparison panics: a merge into a present entry
        // unwinds out of the apply, part way through a list.
        #[derive(Clone, Copy, Default, PartialEq, Eq)]
        struct NoOrder;
        impl Ord for NoOrder {
            fn cmp(&self, _: &Self) -> std::cmp::Ordering {
                panic!("NoOrder has no order")
            }
        }
        impl PartialOrd for NoOrder {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let op = |kind: u64| match kind % 3 {
            0 => WriteOp::Put(NoOrder),
            1 => WriteOp::Delete,
            _ => WriteOp::Merge(NoOrder),
        };
        for backend in [
            DhtBackend::Flat,
            DhtBackend::Sharded { shards: 4 },
            DhtBackend::Dense { cap: 1 },
            DhtBackend::Dense { cap: 16 },
        ] {
            let mut store: Dht<NoOrder> = Dht::for_backend(backend);
            let mut bufs: Vec<ShardBuffers<NoOrder>> =
                (0..2).map(|_| ShardBuffers::new(store.shard_count())).collect();
            for (w, b) in bufs.iter_mut().enumerate() {
                for i in 0..60u64 {
                    // Ids 0..20 and far ones, in and out of any slab.
                    let key = Key::new(0, if i % 4 == 3 { 1000 + i % 20 } else { i % 20 });
                    b.push(store.shard_of(key), key, op(i + w as u64));
                }
            }
            let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.apply_ops(&mut bufs);
            }));
            assert!(applied.is_err(), "{backend:?}: a merge into a present entry must panic");
            assert!(columns_agree(&bufs), "{backend:?}: a list lost a value or kept a stray one");
        }
    }

    #[test]
    fn backend_resolution() {
        assert_eq!(DhtBackend::Flat.resolved_shards(), 1);
        assert_eq!(DhtBackend::Sharded { shards: 6 }.resolved_shards(), 8);
        assert!(DhtBackend::sharded().resolved_shards() >= 4);
        assert_eq!(DhtBackend::Flat.name(), "flat");
        assert_eq!(DhtBackend::sharded().name(), "sharded");
        let d: ShardedDht<u64> = DhtStorage::<u64>::for_backend(DhtBackend::Sharded { shards: 16 });
        assert_eq!(d.shard_count(), 16);
        let f: FlatDht<u64> = DhtStorage::<u64>::for_backend(DhtBackend::Flat);
        assert_eq!(DhtStorage::<u64>::shard_count(&f), 1);
    }

    #[test]
    fn backend_parse_grammar() {
        assert_eq!(DhtBackend::parse("flat").unwrap(), DhtBackend::Flat);
        assert_eq!(DhtBackend::parse("dense").unwrap(), DhtBackend::dense());
        assert_eq!(DhtBackend::parse("dense:64").unwrap(), DhtBackend::Dense { cap: 64 });
        for bad in ["dense:0", "dense:x", "sharded", "sharded:4", "bogus", ""] {
            assert!(DhtBackend::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn absurd_shard_counts_clamp_instead_of_overflowing() {
        // next_power_of_two on huge values would panic (debug) or wrap to
        // zero (release); the clamp must run first, and both entry points
        // must agree on the cap.
        assert_eq!(DhtBackend::Sharded { shards: usize::MAX }.resolved_shards(), 1 << 16);
        assert_eq!(DhtBackend::Sharded { shards: 512 }.resolved_shards(), 512);
        let d: ShardedDht<u64> = ShardedDht::with_shard_count(usize::MAX);
        assert_eq!(d.shard_count(), 1 << 16);
    }

    #[test]
    fn single_shard_store_applies_workers_in_order() {
        // A 1-shard ShardedDht goes through the same grid contract: every
        // worker's only list, in worker order.
        let mut d: ShardedDht<u64> = ShardedDht::with_shard_count(1);
        let worker0: &[Op] = &[(0, 1, WriteOp::Put(10))];
        let worker1: &[Op] = &[(0, 1, WriteOp::Put(11)), (0, 2, WriteOp::Put(20))];
        let mut bufs = grid(&d, &[worker0, worker1]);
        DhtStorage::apply_ops(&mut d, &mut bufs);
        assert_eq!(DhtStorage::get(&d, Key::new(0, 1)), Some(&11));
        assert_eq!(DhtStorage::len(&d), 2);
    }

    #[test]
    fn dense_basic_ops_match_flat() {
        // cap 256 with ids up to 2000: most keys overflow, many straddle.
        let mut flat: FlatDht<u64> = FlatDht::new();
        let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(256);
        for i in 0..2000u64 {
            flat.insert(Key::new((i % 5) as Space, i), i * 3);
            DhtStorage::insert(&mut dense, Key::new((i % 5) as Space, i), i * 3);
        }
        for i in (0..2000u64).step_by(7) {
            flat.remove(Key::new((i % 5) as Space, i));
            DhtStorage::remove(&mut dense, Key::new((i % 5) as Space, i));
        }
        for i in 0..2000u64 {
            flat.merge(Key::new(6, i % 300), i);
            DhtStorage::merge(&mut dense, Key::new(6, i % 300), i);
        }
        assert_eq!(flat.sorted_entries(), dense.sorted_entries());
        assert_eq!(FlatDht::len(&flat), DhtStorage::len(&dense));
        assert!(dense.overflow_len() > 0, "test should exercise the overflow path");
    }

    #[test]
    fn dense_overflow_boundary_accounting_matches_flat() {
        // Property-style sweep over keys straddling the slab boundary: ids
        // at cap−1, cap, cap+large, across several spaces, with deletes and
        // merges whose accounting lands on either side of the boundary.
        // After every step, len must equal FlatDht's exactly.
        let cap = 128usize;
        let boundary_ids =
            [0u64, 1, cap as u64 - 1, cap as u64, cap as u64 + 1, cap as u64 * 31, 1 << 40];
        // Phase 1: replacing puts on both sides of the boundary; deletes
        // retire slab slots and overflow entries alike.
        let mut flat: FlatDht<u64> = FlatDht::new();
        let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(cap);
        let mut step = 0u64;
        for round in 0..4u64 {
            for space in 0..3u16 {
                for &id in &boundary_ids {
                    step += 1;
                    let key = Key::new(space, id);
                    match (step + round) % 3 {
                        0 => {
                            assert_eq!(
                                flat.insert(key, step),
                                DhtStorage::insert(&mut dense, key, step),
                                "insert diverged at space={space} id={id}"
                            );
                        }
                        1 => {
                            assert_eq!(
                                flat.remove(key),
                                DhtStorage::remove(&mut dense, key),
                                "remove diverged at space={space} id={id}"
                            );
                        }
                        _ => {
                            assert_eq!(
                                flat.get(key),
                                DhtStorage::get(&dense, key),
                                "get diverged at space={space} id={id}"
                            );
                        }
                    }
                    assert_eq!(FlatDht::len(&flat), DhtStorage::len(&dense), "len drifted");
                }
            }
            assert_eq!(flat.sorted_entries(), dense.sorted_entries());
        }
        assert!(dense.overflow_len() > 0, "boundary sweep must populate the overflow");

        // Phase 2: merge-writes (u64 max-combiner) landing on both sides of
        // the boundary, interleaved with deletes so merges re-create
        // entries whose accounting was just retired.
        let mut flat: FlatDht<u64> = FlatDht::new();
        let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(cap);
        for round in 0..6u64 {
            for &id in &boundary_ids {
                let key = Key::new(1, id);
                if round % 3 == 2 {
                    assert_eq!(flat.remove(key), DhtStorage::remove(&mut dense, key));
                } else {
                    flat.merge(key, round * 1000 + id % 97);
                    DhtStorage::merge(&mut dense, key, round * 1000 + id % 97);
                }
                assert_eq!(FlatDht::len(&flat), DhtStorage::len(&dense));
            }
        }
        assert_eq!(flat.sorted_entries(), dense.sorted_entries());
    }

    #[test]
    fn dense_apply_ops_preserves_machine_order_within_partition() {
        // Two workers write the same keys, one inside the slab and one in
        // the overflow: the later worker must win, exactly as in the flat
        // reference, however many threads the range merge runs on. Cap 1
        // has one range, so it runs the sequential merge on any host.
        for cap in [1usize, 16] {
            let far = cap as u64 * 1000;
            let mut flat: FlatDht<u64> = FlatDht::new();
            let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(cap);
            let worker0: &[Op] =
                &[(0, 1, WriteOp::Put(10)), (0, far, WriteOp::Put(100)), (1, 2, WriteOp::Put(20))];
            let worker1: &[Op] =
                &[(0, 1, WriteOp::Put(11)), (0, far, WriteOp::Put(101)), (1, 3, WriteOp::Delete)];
            let mut bufs = grid(&flat, &[worker0, worker1]);
            DhtStorage::apply_ops(&mut flat, &mut bufs);
            let mut bufs = grid(&dense, &[worker0, worker1]);
            DhtStorage::apply_ops(&mut dense, &mut bufs);
            assert!(bufs.iter().all(ShardBuffers::is_empty), "apply_ops must drain the grid");
            assert_eq!(flat.sorted_entries(), dense.sorted_entries(), "cap {cap}");
            assert_eq!(DhtStorage::get(&dense, Key::new(0, 1)), Some(&11));
            assert_eq!(DhtStorage::get(&dense, Key::new(0, far)), Some(&101));
        }
    }

    #[test]
    fn a_stored_fill_value_is_an_entry() {
        // An empty slot holds `0` too: only the presence bit tells them apart.
        let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(128);
        let key = Key::new(2, 70);
        DhtStorage::insert(&mut dense, key, 0);
        assert_eq!(DhtStorage::get(&dense, key), Some(&0));
        assert_eq!(DhtStorage::get(&dense, Key::new(2, 71)), None);
        assert_eq!(DhtStorage::len(&dense), 1);
        assert_eq!(dense.sorted_entries(), [(key, 0)]);
        assert_eq!(DhtStorage::remove(&mut dense, key), Some(0));
        assert_eq!(DhtStorage::get(&dense, key), None);
        assert_eq!(DhtStorage::len(&dense), 0);
        assert_eq!(DhtStorage::remove(&mut dense, key), None);
    }

    #[test]
    fn a_delete_in_an_unwritten_keyspace_changes_nothing() {
        let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(256);
        DhtStorage::insert(&mut dense, Key::new(0, 5), 9);
        let before = DhtStorage::len(&dense);
        assert_eq!(DhtStorage::remove(&mut dense, Key::new(4, 5)), None);
        for workers in [1, 2] {
            let deletes: Vec<Op> = (0..256).map(|id| (4, id, WriteOp::Delete)).collect();
            let mut bufs = grid(&dense, &[&deletes]);
            dense.apply_ops_on(&mut bufs, workers);
            assert_eq!(DhtStorage::len(&dense), before);
            assert!((0..256).all(|id| DhtStorage::get(&dense, Key::new(4, id)).is_none()));
            assert_eq!(DhtStorage::get(&dense, Key::new(0, 5)), Some(&9));
        }
    }

    /// Puts of `0` and of other values, merges and deletes (some of absent
    /// keys) on `ids` in keyspaces 0 and 3, varied by `salt`.
    fn slot_script(ids: &[u64], salt: u64) -> Vec<Op> {
        let mut out = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            for space in [0u16, 3] {
                let value = if (k as u64 + salt).is_multiple_of(2) { 0 } else { id };
                out.push((space, id, WriteOp::Delete));
                out.push((space, id, WriteOp::Put(value)));
                match (k as u64 + salt + space as u64) % 4 {
                    0 => out.push((space, id, WriteOp::Delete)),
                    1 => out.push((space, id, WriteOp::Merge(id + salt))),
                    2 => {
                        out.push((space, id, WriteOp::Delete));
                        out.push((space, id, WriteOp::Merge(salt)));
                    }
                    _ => {}
                }
            }
        }
        out
    }

    #[test]
    fn dense_slots_match_flat_around_word_and_slab_edges() {
        // Caps up to 64 are one range, so only 65 and 129 run the
        // range-parallel apply at two workers.
        for cap in [1u64, 63, 64, 65, 129] {
            let mut ids = vec![0, 63, 64, cap - 1, cap, cap + 1, 3 * cap + 7];
            ids.sort_unstable();
            ids.dedup();
            let worker0 = slot_script(&ids, 0);
            let worker1 = slot_script(&ids, 1);
            let mut flat: FlatDht<u64> = FlatDht::new();
            for (space, id, op) in worker0.iter().chain(&worker1).cloned() {
                flat.apply_op(Key::new(space, id), op);
            }
            for workers in [1, 2] {
                let case = format!("cap {cap}, {workers} workers");
                let mut dense: DenseDht<u64> = DenseDht::with_slab_capacity(cap as usize);
                let mut bufs = grid(&dense, &[&worker0, &worker1]);
                dense.apply_ops_on(&mut bufs, workers);
                assert!(bufs.iter().all(ShardBuffers::is_empty), "{case}: grid not drained");
                assert_eq!(dense.sorted_entries(), flat.sorted_entries(), "{case}");
                assert_eq!(DhtStorage::len(&dense), FlatDht::len(&flat), "{case}");
                for space in [0u16, 3] {
                    for &id in &ids {
                        let key = Key::new(space, id);
                        assert_eq!(DhtStorage::get(&dense, key), flat.get(key), "{case} {key:?}");
                    }
                }
            }
        }
    }

    /// `words` loaded into keyspace 3 of `store`, as a slice and as a fill,
    /// beside a copy of `store` that got the same words as inserts; all
    /// three must hold the same entries. Keyspace 0 holds one entry
    /// throughout, and `prewrite` writes keyspace 3 before the load.
    fn assert_load_equals_inserts<St: DhtStorage<u64>>(
        store: St,
        words: &[u64],
        prewrite: bool,
        case: &str,
    ) -> St {
        let (mut sliced, mut filled, mut inserted) = (store.clone(), store.clone(), store);
        for s in [&mut sliced, &mut filled, &mut inserted] {
            s.insert(Key::new(0, 5), 55);
            if prewrite {
                s.insert(Key::new(3, 1), 11);
                s.insert(Key::new(3, words.len() as u64 + 2), 22);
            }
        }
        sliced.load_space(3, SpaceWords::Slice(words));
        let mut fill = |slots: &mut [u64]| slots.copy_from_slice(words);
        filled.load_space(3, SpaceWords::Fill(words.len(), &mut fill));
        for (id, &word) in words.iter().enumerate() {
            inserted.insert(Key::new(3, id as u64), word);
        }
        for (loaded, how) in [(&sliced, "slice"), (&filled, "fill")] {
            assert_eq!(loaded.sorted_entries(), inserted.sorted_entries(), "{case}, {how}");
            assert_eq!(loaded.len(), inserted.len(), "{case}, {how}");
            for id in 0..words.len() as u64 + 3 {
                let key = Key::new(3, id);
                assert_eq!(loaded.get(key), inserted.get(key), "{case}, {how}: {key:?}");
            }
        }
        sliced
    }

    #[test]
    fn a_slice_load_holds_what_its_inserts_would() {
        // Zeros among the words: a loaded default value is an entry.
        let words = |len: usize| (0..len as u64).map(|i| i * (i % 3)).collect::<Vec<_>>();
        for (cap, len) in [(256, 256), (256, 130), (256, 64), (128, 300), (64, 1), (1, 5), (64, 0)]
        {
            for prewrite in [false, true] {
                let case = format!("cap {cap}, len {len}, prewrite {prewrite}");
                let words = words(len);
                assert_load_equals_inserts(FlatDht::new(), &words, prewrite, &case);
                for shards in [1, 8] {
                    let sharded = ShardedDht::with_shard_count(shards);
                    assert_load_equals_inserts(sharded, &words, prewrite, &case);
                }
                let dense = DenseDht::with_slab_capacity(cap);
                let dense = assert_load_equals_inserts(dense, &words, prewrite, &case);
                let entries = dense.sorted_entries();
                let overflow = entries.iter().filter(|(k, _)| k.id >= cap as u64).count();
                assert_eq!(dense.overflow_len(), overflow, "{case}: an id past the slab");
                let dht = Dht::for_backend(DhtBackend::Dense { cap });
                assert_load_equals_inserts(dht, &words, prewrite, &case);
            }
        }
    }

    #[test]
    fn dense_range_partition_is_contiguous_and_pure() {
        let d: DenseDht<u64> = DenseDht::with_slab_capacity(1 << 12);
        let nranges = DhtStorage::<u64>::shard_count(&d) - 1;
        let mut last = 0usize;
        for id in 0..(1u64 << 12) {
            let p = d.shard_of(Key::new(0, id));
            assert!(p < nranges, "in-slab id routed to the overflow partition");
            assert!(p >= last, "range partition not monotone in id");
            // Partition choice ignores the keyspace tag: ranges are slot
            // ranges of *every* slab.
            assert_eq!(p, d.shard_of(Key::new(9, id)));
            last = p;
        }
        assert_eq!(last, nranges - 1, "top id must land in the last range");
        assert_eq!(d.shard_of(Key::new(0, 1 << 12)), nranges);
        assert_eq!(d.shard_of(Key::new(3, u64::MAX >> 16)), nranges);
    }

    #[test]
    fn dense_backend_resolution_and_hints() {
        assert_eq!(DhtBackend::dense().name(), "dense");
        // A hint fills only the unhinted capacity.
        assert_eq!(DhtBackend::dense().with_capacity_hint(1234), DhtBackend::Dense { cap: 1234 });
        assert_eq!(
            DhtBackend::Dense { cap: 99 }.with_capacity_hint(1234),
            DhtBackend::Dense { cap: 99 }
        );
        assert_eq!(DhtBackend::Flat.with_capacity_hint(1234), DhtBackend::Flat);
        // Resolution clamps instead of allocating the address space.
        assert_eq!(DhtBackend::Dense { cap: usize::MAX }.resolved_dense_cap(), Key::MAX_DENSE_CAP);
        assert_eq!(DhtBackend::Dense { cap: 777 }.resolved_dense_cap(), 777);
        let d: DenseDht<u64> = DhtStorage::<u64>::for_backend(DhtBackend::Dense { cap: 777 });
        assert_eq!(d.slab_capacity(), 777);
        assert_eq!(
            DhtStorage::<u64>::shard_count(&d),
            DhtBackend::Dense { cap: 777 }.resolved_shards()
        );
        // The dense store always has at least the overflow partition plus
        // one range.
        assert!(DhtStorage::<u64>::shard_count(&d) >= 2);
    }

    #[test]
    fn shard_routing_does_not_reuse_bucket_bits() {
        // Keys landing in one shard must still spread over that shard's
        // hash buckets: their full spread-hash low bits (hashbrown's bucket
        // bits) must take many values, not just the shard residue.
        let d: ShardedDht<u64> = ShardedDht::with_shard_count(64);
        let mut low_bits: std::collections::HashSet<u64> = Default::default();
        let mut in_shard0 = 0usize;
        for i in 0..100_000u64 {
            let key = Key::new(0, i);
            if d.shard_of(key) == 0 {
                in_shard0 += 1;
                low_bits.insert(spread(key.packed()) & 0xFFF);
            }
        }
        assert!(in_shard0 > 1000, "shard 0 unexpectedly empty");
        // If shard selection consumed the low bits, at most 4096/64 = 64
        // distinct low-bit patterns could appear here.
        assert!(
            low_bits.len() > 512,
            "only {} distinct bucket-bit patterns in shard 0 — shard index aliases bucket index",
            low_bits.len()
        );
    }
}
