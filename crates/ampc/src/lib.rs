//! # `ampc` — a simulator runtime for the Adaptive Massively Parallel Computation model
//!
//! The AMPC model (Behnezhad et al., and the setting of Latypov–Łącki–Maus–Uitto,
//! SPAA 2023) extends MPC with a shared **distributed hash table** (DHT):
//!
//! * `M` machines, each with local space `S` (strictly sublinear in the input
//!   size `N`; `S = n^δ` from [`Budget::local_space`]).
//! * Computation proceeds in synchronous **rounds**. Within a round every
//!   machine may **adaptively** read up to `S` words from a *read-only* DHT
//!   (the output of the previous round) and write up to `S` words to a
//!   *write-only* DHT which becomes the next round's read-only input.
//! * Total space `T = S · M` should be linear in the input, `T = O(N)`.
//!
//! This crate executes algorithms against that cost model *in process*. The
//! quantities the paper reasons about — **rounds**, **queries** (DHT reads),
//! and **total space** (live DHT words + per-round communication) — are all
//! counting quantities, so a faithful simulator only has to (a) expose the
//! same adaptive read/write interface and (b) meter every access. That is
//! exactly what [`AmpcSystem`] does:
//!
//! ```
//! use ampc::{AmpcConfig, AmpcSystem, DhtStorage as _, Key};
//!
//! const SPACE: u16 = 0;
//! let mut sys: AmpcSystem<u64> = AmpcSystem::new(
//!     AmpcConfig::default().with_machines(4),
//!     (0..16u64).map(|i| (Key::new(SPACE, i), i)),
//! );
//! // One AMPC round: every item reads its successor's value and writes a sum.
//! let ids: Vec<u64> = (0..16).collect();
//! sys.round("sum-with-next", &ids, |ctx, &i| {
//!     let next = *ctx.read(Key::new(SPACE, (i + 1) % 16)).unwrap();
//!     ctx.write(Key::new(SPACE, i), i + next);
//!     None::<()>
//! }).unwrap();
//! assert_eq!(sys.stats().rounds(), 1);
//! assert_eq!(sys.snapshot().get(Key::new(SPACE, 3)), Some(&(3 + 4)));
//! ```
//!
//! Machines within a round are independent by model definition (they read an
//! immutable snapshot and buffer private writes), so the executor spreads
//! them over scoped OS threads (capped at the hardware parallelism), each
//! worker running a contiguous block of machine indices. A write goes
//! straight into its worker's per-shard buffer ([`ShardBuffers`]), as one
//! word for the op and its key plus the value of a put or a merge, and the
//! round barrier applies every shard's buffers in worker order — which is
//! machine-index order — keeping every run bit-for-bit deterministic
//! regardless of thread scheduling.
//!
//! The snapshot is a [`Dht`]: one of three stores, picked from the
//! [`DhtBackend`] value in [`AmpcConfig::backend`] and nowhere else.
//! [`DenseDht`] (the default) stores each keyspace in a direct-indexed slab
//! (hash-map overflow for out-of-slab ids) so an adaptive read is a bounds
//! check plus an array index — no hashing — with a range-partitioned
//! parallel merge; [`FlatDht`] is the single-map reference; [`ShardedDht`]
//! hash-partitions keys over power-of-two shards so the round-finish merge
//! runs shard-parallel. Select a backend with [`AmpcConfig::with_backend`];
//! all three produce byte-identical snapshots and [`RunStats`] for the same
//! seed (cross-shard keys never interact, and machine order is preserved
//! within every shard).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dht;
mod error;
mod executor;
mod key;
mod limits;
mod machine;
pub mod rng;
mod stats;
mod value;

pub use dht::{
    DenseDht, Dht, DhtBackend, DhtStorage, FlatDht, ShardBuffers, ShardedDht, SpaceWords, WriteOp,
};
pub use error::{AmpcError, AmpcResult};
pub use executor::{AmpcConfig, AmpcSystem, RoundOutcome};
pub use key::{Key, Space};
pub use limits::{Budget, LimitKind, LimitViolation};
pub use machine::MachineCtx;
pub use stats::{RoundStats, RunStats};
pub use value::DhtValue;

/// The host's worker count: `available_parallelism()` resolved once per
/// process (on Linux the query reads the affinity mask and cgroup files, too
/// dear to repeat every round and every merge). Sizes the executor's worker
/// set, the shard-parallel merges and the automatic shard/range layouts.
pub(crate) fn host_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}
