//! Per-machine execution context.
//!
//! A [`MachineCtx`] is handed to algorithm code once per machine per round.
//! It exposes exactly the capabilities an AMPC machine has:
//!
//! * **adaptive reads** from the previous round's snapshot ([`MachineCtx::read`]) —
//!   a value read may determine the next key read, within the same round;
//! * **buffered writes** to the next round's table ([`MachineCtx::write`],
//!   [`MachineCtx::write_merge`], [`MachineCtx::delete`]) — invisible until
//!   the round completes, exactly like the model's write-only DHT. Each op
//!   is routed by [`DhtStorage::shard_of`] into the per-shard buffers of
//!   the worker running this machine as it is issued, so nothing re-reads
//!   it between here and the table;
//! * **deterministic randomness** scoped to `(run, round, tag, id)`, one
//!   family per tag ([`MachineCtx::draws`]).
//!
//! Every access is metered: a read (hit or miss) and a buffered write each
//! cost one word, so a budget in words is a budget in ops. The context only
//! counts; the executor folds each machine's two counts into the round's
//! worst-machine maxima, which is where a budget `S` is checked (see
//! `limits.rs`).

use crate::dht::{Dht, DhtStorage, ShardBuffers, WriteOp};
use crate::key::Key;
use crate::rng::Draws;
use crate::value::DhtValue;

/// Execution context for one simulated machine within one round.
///
/// Reads borrow the snapshot as a [`Dht`], whose dense arm is inlined into
/// [`MachineCtx::read`]: an adaptive read on the default backend is one
/// predictable branch away from the array index. `S` mirrors
/// [`crate::AmpcSystem`]'s parameter and goes when that does.
pub struct MachineCtx<'a, V, S = Dht<V>> {
    snapshot: &'a S,
    /// The running worker's buffers, shared by the machines of its block.
    out: &'a mut ShardBuffers<V>,
    pub(crate) reads: usize,
    pub(crate) writes: usize,
    round: usize,
    seed: u64,
}

impl<'a, V: DhtValue, S: DhtStorage<V>> MachineCtx<'a, V, S> {
    /// `out` is the buffer set of the worker running this machine, sized
    /// for `snapshot`'s shard count; the worker's machines append to it one
    /// after the other, in machine-index order.
    pub(crate) fn new(
        snapshot: &'a S,
        round: usize,
        seed: u64,
        out: &'a mut ShardBuffers<V>,
    ) -> Self {
        debug_assert_eq!(out.shard_count(), snapshot.shard_count());
        MachineCtx { snapshot, out, reads: 0, writes: 0, round, seed }
    }

    /// Adaptively reads `key` from the round's snapshot. Charges one query,
    /// a word of the read budget, whether it hits or misses.
    #[inline]
    pub fn read(&mut self, key: Key) -> Option<&V> {
        self.reads += 1;
        self.snapshot.get(key)
    }

    /// Buffers a replacing write of `value` at `key`.
    #[inline]
    pub fn write(&mut self, key: Key, value: V) {
        self.buffer(key, WriteOp::Put(value));
    }

    /// Buffers a merging write: the key keeps the largest value written to
    /// it. Used for aggregate updates such as rank stamps where many
    /// machines target the same key and the result must be
    /// schedule-independent.
    #[inline]
    pub fn write_merge(&mut self, key: Key, value: V) {
        self.buffer(key, WriteOp::Merge(value));
    }

    /// Buffers a deletion of `key` (a one-word tombstone).
    #[inline]
    pub fn delete(&mut self, key: Key) {
        self.buffer(key, WriteOp::Delete);
    }

    /// Meters one op and scatters it to its shard's list.
    #[inline]
    fn buffer(&mut self, key: Key, op: WriteOp<V>) {
        self.writes += 1;
        self.out.push(self.snapshot.shard_of(key), key, op);
    }

    /// The round's family of `tag` streams: `draws(tag).at(id)` is the
    /// deterministic stream of `(run seed, round, tag, id)`
    /// ([`rng::stream`](crate::rng::stream) bit for bit), with the `(seed, round, tag)` prefix
    /// folded once. Identical across machine assignments and thread
    /// schedules: any machine of a round can re-derive the draw of any id,
    /// not only of its own item. That is why a reader may evaluate another
    /// vertex's rank or mark here instead of reading it from the DHT, so
    /// long as every read of that draw happens within one round. A machine
    /// takes the family once, before its chunk's loop.
    #[inline]
    pub fn draws(&self, tag: u64) -> Draws {
        Draws::new(self.seed, self.round as u64, tag)
    }

    /// The zero-based index of the current round.
    pub fn round_index(&self) -> usize {
        self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::FlatDht;
    use crate::rng;

    const S: u16 = 0;

    fn table() -> FlatDht<u64> {
        let mut d = FlatDht::new();
        for i in 0..10u64 {
            d.insert(Key::new(S, i), i * i);
        }
        d
    }

    #[test]
    fn reads_are_metered() {
        let d = table();
        let mut out = ShardBuffers::new(1);
        let mut ctx = MachineCtx::new(&d, 0, 1, &mut out);
        assert_eq!(ctx.read(Key::new(S, 3)), Some(&9));
        assert_eq!(ctx.read(Key::new(S, 99)), None);
        assert_eq!(ctx.reads, 2); // a miss costs a word too
    }

    #[test]
    fn adaptive_read_chain() {
        // The defining AMPC capability: value of one read chooses the next key.
        let mut d = FlatDht::new();
        d.insert(Key::new(S, 0), 4u64);
        d.insert(Key::new(S, 4), 7u64);
        d.insert(Key::new(S, 7), 0u64);
        let mut out = ShardBuffers::new(1);
        let mut ctx = MachineCtx::new(&d, 0, 1, &mut out);
        let mut cur = 0u64;
        for _ in 0..3 {
            cur = *ctx.read(Key::new(S, cur)).unwrap();
        }
        assert_eq!(cur, 0);
        assert_eq!(ctx.reads, 3);
    }

    #[test]
    fn writes_are_buffered_not_visible() {
        let d = table();
        let mut out = ShardBuffers::new(1);
        let mut ctx = MachineCtx::new(&d, 0, 1, &mut out);
        ctx.write(Key::new(S, 3), 555);
        // Write-only DHT semantics: the round's snapshot is unchanged.
        assert_eq!(ctx.read(Key::new(S, 3)), Some(&9));
        assert_eq!(ctx.writes, 1);
    }

    #[test]
    fn draws_are_context_deterministic() {
        let d = table();
        let mut out1 = ShardBuffers::new(1);
        let ctx1 = MachineCtx::new(&d, 3, 42, &mut out1);
        // Same context on a different machine: streams depend on
        // (seed, round, tag, id), NOT on the machine index.
        let mut out2 = ShardBuffers::new(1);
        let ctx2 = MachineCtx::new(&d, 3, 42, &mut out2);
        let draw =
            |ctx: &MachineCtx<'_, u64, FlatDht<u64>>, tag, id| ctx.draws(tag).at(id).next_u64();
        assert_eq!(draw(&ctx1, 1, 5), draw(&ctx2, 1, 5));
        assert_ne!(draw(&ctx1, 1, 5), draw(&ctx1, 1, 6));
    }

    #[test]
    fn draws_are_the_rounds_streams() {
        let d = table();
        for (seed, round) in [(0, 0), (42, 3), (u64::MAX, 9)] {
            let mut out = ShardBuffers::new(1);
            let ctx = MachineCtx::new(&d, round, seed, &mut out);
            for tag in [0, 1, u64::MAX] {
                let draws = ctx.draws(tag);
                for id in [0, 5, u64::MAX] {
                    let (mut a, mut b) = (draws.at(id), rng::stream(seed, round as u64, tag, id));
                    for _ in 0..3 {
                        assert_eq!(a.next_u64(), b.next_u64(), "({seed}, {round}, {tag}, {id})");
                    }
                }
            }
        }
    }
}
