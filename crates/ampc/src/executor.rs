//! The round executor.
//!
//! [`AmpcSystem`] owns the current snapshot DHT and runs algorithm rounds:
//! work items are split into `M` contiguous chunks, one per machine; each
//! machine executes the user closure over its chunk with a private
//! [`MachineCtx`]; at the barrier the buffered writes are applied to the
//! next snapshot **in machine-index order**, which makes runs deterministic
//! no matter how the OS schedules the machine threads.
//!
//! There is one execution path, [`AmpcSystem::machine_round`]: its closure
//! runs once per machine over the machine's whole chunk, so scratch memory
//! and a draw family ([`MachineCtx::draws`]) are built once per machine and
//! reused by every item. [`AmpcSystem::round`], one closure call per item,
//! is a wrapper over it.
//!
//! Deployments are often configured with far more simulated machines than
//! the host has cores (e.g. `M = n/4` in the audit experiments), so workers
//! are capped at the hardware parallelism and each worker runs a contiguous
//! block of machine indices, in order. Writes are **scattered at the
//! source**: the system holds one [`ShardBuffers`] per worker — a
//! workers × shards grid of op lists whatever `M` is — and a machine's
//! `write`/`write_merge`/`delete` routes the op by [`DhtStorage::shard_of`]
//! into its worker's list for that shard as it is issued. A list keeps one
//! word per op (its kind over the packed key) and a value only for puts and
//! merges, so a delete buffers 8 bytes and a `u64` put 16. Appending machine
//! after machine to the same list *is* the machine-order subsequence, so
//! [`DhtStorage::apply_ops`] applies, per shard, the workers' lists in
//! worker order (distinct shards concurrently on the sharded and dense
//! backends) and nothing between op generation and the table reads an op a
//! second time. The result is provably equal to the sequential global
//! machine-order merge because cross-shard keys never interact (see
//! `crates/ampc/src/dht.rs` module docs).
//!
//! The grid lives as long as the system and `apply_ops` drains it in place,
//! so steady-state rounds allocate nothing for buffering.

use ampc_obs::{CounterId, HistId, Timer, TraceKind};

use crate::dht::{Dht, DhtBackend, DhtStorage, ShardBuffers, SpaceWords};
use crate::error::{AmpcError, AmpcResult};
use crate::host_workers;
use crate::key::{Key, Space};
use crate::machine::MachineCtx;
use crate::stats::{RoundStats, RunStats};
use crate::value::DhtValue;

/// Configuration of a simulated AMPC deployment.
#[derive(Debug, Clone)]
pub struct AmpcConfig {
    /// Number of machines `M`.
    pub num_machines: usize,
    /// Run seed; all algorithm randomness derives from it.
    pub seed: u64,
    /// An enforced local-space budget `S`: a round in which any machine
    /// reads more than `S` words, or writes more than `S`, fails with
    /// [`AmpcError::LimitExceeded`] and its writes are dropped. Without it a
    /// finished run is still audited by [`RunStats::over_budget`].
    pub budget: Option<usize>,
    /// Which DHT storage backend the deployment uses: [`AmpcSystem::new`]
    /// builds the store this names. The backend never affects results, only
    /// the cost of a read and the merge's parallelism.
    pub backend: DhtBackend,
}

impl Default for AmpcConfig {
    fn default() -> Self {
        AmpcConfig {
            num_machines: 8,
            seed: 0xA5A5_1234_5678_9ABC,
            budget: None,
            backend: DhtBackend::default(),
        }
    }
}

impl AmpcConfig {
    /// Sets the machine count.
    pub fn with_machines(mut self, m: usize) -> Self {
        assert!(m > 0, "need at least one machine");
        self.num_machines = m;
        self
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enforces the local-space budget `s` on every round.
    pub fn with_budget(mut self, s: usize) -> Self {
        self.budget = Some(s);
        self
    }

    /// Selects the DHT storage backend.
    pub fn with_backend(mut self, backend: DhtBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Summary of one executed round, returned alongside the per-item results.
#[derive(Debug, Clone)]
pub struct RoundOutcome<R> {
    /// Results produced by the machines, in item order.
    pub results: Vec<R>,
    /// Queries issued during the round.
    pub reads: usize,
}

/// A simulated AMPC deployment: snapshot DHT + machines + meters.
///
/// The table is a [`Dht`], the store [`AmpcConfig::backend`] names; nothing
/// above this crate names a store type. The `S` parameter is still here
/// only because the ledger spells out `AmpcSystem<u64, DenseDht<u64>>` and
/// because this crate's equivalence tests run the concrete stores side by
/// side; it goes, together with [`Dht::Sharded`], in the PR after the
/// ledger stops naming them (ROADMAP item 2, after 1a).
pub struct AmpcSystem<V, S = Dht<V>> {
    snapshot: S,
    config: AmpcConfig,
    stats: RunStats,
    /// One set of per-shard write buffers per worker (see the module docs);
    /// empty between rounds, capacity retained.
    bufs: Vec<ShardBuffers<V>>,
}

impl<V: DhtValue, S: DhtStorage<V>> AmpcSystem<V, S> {
    /// Creates a system whose first snapshot holds `initial` (the round-0
    /// input: typically the graph's adjacency or successor tables). Loading
    /// the input is not charged — the model assumes the input already
    /// resides in the DHT.
    pub fn new(config: AmpcConfig, initial: impl IntoIterator<Item = (Key, V)>) -> Self {
        let mut snapshot = S::for_backend(config.backend);
        for (k, v) in initial {
            snapshot.insert(k, v);
        }
        Self::with_snapshot(config, snapshot)
    }

    /// Creates a system whose first snapshot holds each `(space, words)`
    /// of `spaces`, word `i` at `Key::new(space, i)`: [`AmpcSystem::new`]
    /// over those entries, loaded through [`DhtStorage::load_space`] (into
    /// a fresh dense slab, one copy of a slice, or a fill in place).
    pub fn from_space<'a>(
        config: AmpcConfig,
        spaces: impl IntoIterator<Item = (Space, SpaceWords<'a, V>)>,
    ) -> Self
    where
        V: 'a,
    {
        let mut snapshot = S::for_backend(config.backend);
        for (space, words) in spaces {
            snapshot.load_space(space, words);
        }
        Self::with_snapshot(config, snapshot)
    }

    fn with_snapshot(config: AmpcConfig, snapshot: S) -> Self {
        // The worker set is fixed by the config and the host, so the grid
        // is too: workers × shards lists, however many machines there are.
        let workers = host_workers().min(config.num_machines);
        let shards = snapshot.shard_count();
        let bufs = (0..workers).map(|_| ShardBuffers::new(shards)).collect();
        AmpcSystem { snapshot, config, stats: RunStats::new(), bufs }
    }

    /// The current read-only snapshot.
    pub fn snapshot(&self) -> &S {
        &self.snapshot
    }

    /// Accumulated run statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable access to statistics, for charging host-side primitives.
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// The deployment configuration.
    pub fn config(&self) -> &AmpcConfig {
        &self.config
    }

    /// Consumes the system, returning the final snapshot and statistics.
    pub fn finish(self) -> (S, RunStats) {
        (self.snapshot, self.stats)
    }

    /// Applies a host-side mutation of the snapshot **outside** the metered
    /// interface. Reserved for cited O(1)-round primitives executed
    /// natively; callers must pair this with [`RunStats::charge_external`]
    /// so the primitive pays its published cost (see DESIGN.md).
    pub fn host_update(&mut self, f: impl FnOnce(&mut S)) {
        f(&mut self.snapshot);
    }

    /// Executes one AMPC round over `items`, one call of `f` per item:
    /// [`AmpcSystem::machine_round`] with each machine running
    /// `f(ctx, item)` over its chunk in order and keeping the non-`None`
    /// results.
    ///
    /// Returns those results in item order. A round that breaches an
    /// enforced budget is still recorded — in [`RunStats`], the round
    /// counter, the wall-time histogram and the trace — but its writes are
    /// discarded.
    pub fn round<I, R, F>(
        &mut self,
        name: &'static str,
        items: &[I],
        f: F,
    ) -> AmpcResult<RoundOutcome<R>>
    where
        I: Sync,
        R: Send,
        F: Fn(&mut MachineCtx<'_, V, S>, &I) -> Option<R> + Sync,
    {
        self.machine_round(name, items, |ctx, chunk, out| {
            out.extend(chunk.iter().filter_map(|item| f(ctx, item)))
        })
    }

    /// Executes one AMPC round over `items`, one call of `f` per machine.
    ///
    /// Items are split into `M` near-equal contiguous chunks
    /// (`items.len().div_ceil(M)` each, the last one shorter); machine `j`
    /// runs `f(ctx, chunk_j, out)` once, against a context that reads the
    /// current snapshot and buffers writes, and appends its results to
    /// `out` in item order. A machine keeps whatever local state it builds
    /// for its chunk (scratch buffers, a draw family) across the chunk's
    /// items, as an AMPC machine keeps its local memory through a round.
    /// After all machines finish, the buffered writes are applied in
    /// machine order to the next snapshot (shard-parallel when the backend
    /// shards — see the module docs).
    ///
    /// Returns every machine's results, in machine order. A round that
    /// breaches an enforced budget is recorded and fails as in
    /// [`AmpcSystem::round`].
    pub fn machine_round<I, R, F>(
        &mut self,
        name: &'static str,
        items: &[I],
        f: F,
    ) -> AmpcResult<RoundOutcome<R>>
    where
        I: Sync,
        R: Send,
        F: Fn(&mut MachineCtx<'_, V, S>, &[I], &mut Vec<R>) + Sync,
    {
        let wall = Timer::start(ampc_obs::hist(HistId::RoundWallNs));
        let m = self.config.num_machines;
        let round_index = self.stats.executed_rounds();
        let chunk = items.len().div_ceil(m).max(1);
        let snapshot = &self.snapshot;
        let seed = self.config.seed;

        // Zeroed meters for this round; each worker folds its machines into
        // a copy of its own and the copies are summed below.
        let blank = || RoundStats {
            name,
            index: round_index,
            reads: 0,
            writes: 0,
            max_machine_read_words: 0,
            max_machine_write_words: 0,
            snapshot_entries: snapshot.len(),
            total_space_words: 0,
            bytes_shuffled: 0,
        };

        // Worker `w` runs machines `w * block ..` one after the other, all
        // of them appending to `self.bufs[w]`.
        let num_jobs = items.len().div_ceil(chunk);
        let block = num_jobs.div_ceil(self.bufs.len()).max(1);
        let run_worker = |span: &[I], out: &mut ShardBuffers<V>| {
            let (mut part, mut results) = (blank(), Vec::new());
            for slice in span.chunks(chunk) {
                let mut ctx = MachineCtx::new(snapshot, round_index, seed, out);
                f(&mut ctx, slice, &mut results);
                part.reads += ctx.reads;
                part.writes += ctx.writes;
                part.max_machine_read_words = part.max_machine_read_words.max(ctx.reads);
                part.max_machine_write_words = part.max_machine_write_words.max(ctx.writes);
            }
            (part, results)
        };
        let parts: Vec<(RoundStats, Vec<R>)> = if num_jobs > block {
            std::thread::scope(|scope| {
                let run_worker = &run_worker;
                let handles: Vec<_> = items
                    .chunks(block * chunk)
                    .zip(&mut self.bufs)
                    .map(|(span, out)| scope.spawn(move || run_worker(span, out)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("machine worker panicked")).collect()
            })
        } else {
            vec![run_worker(items, &mut self.bufs[0])]
        };

        // Worker order is machine order, so folding the parts in sequence
        // keeps results in machine (hence item) order. The first part that
        // has results is kept as the output buffer rather than copied into a
        // fresh one.
        let mut stats = blank();
        let mut results = Vec::new();
        for (part, mut part_results) in parts {
            stats.reads += part.reads;
            stats.writes += part.writes;
            stats.max_machine_read_words =
                stats.max_machine_read_words.max(part.max_machine_read_words);
            stats.max_machine_write_words =
                stats.max_machine_write_words.max(part.max_machine_write_words);
            if results.is_empty() {
                results = part_results;
            } else {
                results.append(&mut part_results);
            }
        }
        // Every read, write op and entry is one word; an op ships its 8-byte
        // key and its one-word value.
        stats.total_space_words = stats.snapshot_entries + stats.reads + stats.writes;
        stats.bytes_shuffled = 16 * stats.writes;

        // A machine's running count passes `S` exactly when its final count
        // exceeds `S`, so the round's two maxima decide the breach.
        let breach = self.config.budget.and_then(|s| stats.over_budget(s).next());
        if breach.is_some() {
            // The round fails: its writes never reach the table.
            self.bufs.iter_mut().for_each(ShardBuffers::clear);
        } else {
            self.snapshot.apply_ops(&mut self.bufs);
            ampc_obs::counter(CounterId::OpsApplied).add(stats.writes as u64);
        }

        ampc_obs::counter(CounterId::Rounds).inc();
        ampc_obs::counter(CounterId::BytesShuffled).add(stats.bytes_shuffled as u64);
        ampc_obs::trace(TraceKind::RoundCompleted, round_index as u64, stats.bytes_shuffled as u64);
        wall.stop();

        let outcome = RoundOutcome { results, reads: stats.reads };
        self.stats.push_round(stats);
        match breach {
            Some(v) => Err(AmpcError::LimitExceeded(v)),
            None => Ok(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::LimitKind;

    const S: u16 = 0;
    const AUX: u16 = 1;

    fn system(m: usize, n: u64) -> AmpcSystem<u64> {
        AmpcSystem::new(
            AmpcConfig::default().with_machines(m).with_seed(7),
            (0..n).map(|i| (Key::new(S, i), i)),
        )
    }

    #[test]
    fn round_applies_writes_after_completion() {
        let mut sys = system(4, 100);
        let ids: Vec<u64> = (0..100).collect();
        sys.round("double", &ids, |ctx, &i| {
            let v = *ctx.read(Key::new(S, i)).unwrap();
            ctx.write(Key::new(S, i), v * 2);
            None::<()>
        })
        .unwrap();
        assert_eq!(sys.snapshot().get(Key::new(S, 10)), Some(&20));
        assert_eq!(sys.stats().rounds(), 1);
        assert_eq!(sys.stats().total_queries(), 100);
    }

    #[test]
    fn results_preserve_item_order() {
        let mut sys = system(7, 50);
        let ids: Vec<u64> = (0..50).collect();
        let out = sys
            .round("echo", &ids, |_, &i| if i % 2 == 0 { Some(i) } else { None })
            .unwrap()
            .results;
        assert_eq!(out, (0..50).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn writes_invisible_within_round_visible_next_round() {
        let mut sys = system(3, 10);
        let ids: Vec<u64> = (0..10).collect();
        sys.round("stage", &ids, |ctx, &i| {
            ctx.write(Key::new(AUX, i), i + 100);
            // Not visible yet:
            assert!(ctx.read(Key::new(AUX, i)).is_none());
            None::<()>
        })
        .unwrap();
        sys.round("check", &ids, |ctx, &i| {
            assert_eq!(ctx.read(Key::new(AUX, i)), Some(&(i + 100)));
            None::<()>
        })
        .unwrap();
    }

    #[test]
    fn merge_writes_are_schedule_independent() {
        // All items merge-stamp key 0; the result must be the max regardless
        // of machine layout. Compare two very different machine counts.
        for m in [1, 13] {
            let mut sys = system(m, 64);
            let ids: Vec<u64> = (0..64).collect();
            sys.round("stamp", &ids, |ctx, &i| {
                ctx.write_merge(Key::new(AUX, 0), i * 31 % 57);
                None::<()>
            })
            .unwrap();
            assert_eq!(sys.snapshot().get(Key::new(AUX, 0)), Some(&56));
        }
    }

    #[test]
    fn deletes_remove_entries() {
        let mut sys = system(2, 10);
        let ids: Vec<u64> = (0..10).collect();
        sys.round("gc", &ids, |ctx, &i| {
            if i < 5 {
                ctx.delete(Key::new(S, i));
            }
            None::<()>
        })
        .unwrap();
        assert_eq!(sys.snapshot().len(), 5);
        assert!(sys.snapshot().get(Key::new(S, 2)).is_none());
        assert!(sys.snapshot().get(Key::new(S, 7)).is_some());
    }

    #[test]
    fn enforcement_errors_the_round() {
        let mut sys: AmpcSystem<u64> = AmpcSystem::new(
            AmpcConfig::default().with_machines(1).with_budget(3),
            (0..10u64).map(|i| (Key::new(S, i), i)),
        );
        let ids: Vec<u64> = (0..10).collect();
        let err = sys
            .round("greedy", &ids, |ctx, &i| {
                ctx.read(Key::new(S, i));
                None::<()>
            })
            .unwrap_err();
        let AmpcError::LimitExceeded(v) = err else {
            panic!("expected a limit breach, got {err}");
        };
        assert_eq!((v.used, v.budget), (10, 3));
    }

    #[test]
    fn any_finished_run_is_audited_off_its_meters() {
        // No budget is attached: the round runs, and the audit afterwards
        // reads each side's worst machine against any `S`.
        let mut sys = system(2, 10);
        let ids: Vec<u64> = (0..10).collect();
        sys.round("greedy", &ids, |ctx, &i| {
            ctx.read(Key::new(S, i));
            ctx.read(Key::new(S, i));
            ctx.write(Key::new(AUX, i), i);
            None::<()>
        })
        .unwrap();
        // Two machines of five items: 10 reads and 5 writes each.
        let audit = |s| {
            sys.stats().over_budget(s).iter().map(|v| (v.round, v.kind, v.used)).collect::<Vec<_>>()
        };
        assert!(audit(10).is_empty());
        assert_eq!(audit(5), [(0, LimitKind::Reads, 10)]);
        assert_eq!(audit(4), [(0, LimitKind::Reads, 10), (0, LimitKind::Writes, 5)]);
    }

    #[test]
    fn a_round_over_on_both_sides_fails_naming_reads() {
        let mut sys: AmpcSystem<u64> = AmpcSystem::new(
            AmpcConfig::default().with_machines(1).with_budget(3),
            std::iter::empty(),
        );
        let ids: Vec<u64> = (0..6).collect();
        let err = sys
            .round("both", &ids, |ctx, &i| {
                ctx.write(Key::new(AUX, i), i);
                ctx.read(Key::new(S, i));
                None::<()>
            })
            .unwrap_err();
        let AmpcError::LimitExceeded(v) = err else {
            panic!("expected a limit breach, got {err}");
        };
        assert_eq!((v.kind, v.used, v.budget, v.round_name), (LimitKind::Reads, 6, 3, "both"));
        assert_eq!(sys.snapshot().len(), 0, "a failed round's writes were applied");
    }

    #[test]
    fn determinism_across_machine_counts() {
        // Same seed, different machine counts: identical final snapshots for
        // an algorithm using only puts to distinct keys + rng.
        let run = |m: usize| -> Vec<(u64, u64)> {
            let mut sys = system(m, 200);
            let ids: Vec<u64> = (0..200).collect();
            sys.round("randomize", &ids, |ctx, &i| {
                let r = ctx.draws(0).at(i).next_u64();
                ctx.write(Key::new(AUX, i), r);
                None::<()>
            })
            .unwrap();
            (0..200).map(|i| (i, *sys.snapshot().get(Key::new(AUX, i)).unwrap())).collect()
        };
        assert_eq!(run(1), run(16));
    }

    #[test]
    fn total_space_counts_snapshot_plus_communication() {
        let mut sys = system(2, 100); // snapshot: 100 words
        let ids: Vec<u64> = (0..50).collect();
        sys.round("grow", &ids, |ctx, &i| {
            ctx.read(Key::new(S, i)); // 50 read words
            ctx.write(Key::new(AUX, i), i); // 50 write words
            None::<()>
        })
        .unwrap();
        assert_eq!(sys.stats().peak_total_space(), 200);
    }

    #[test]
    fn buffer_grid_is_workers_by_shards_whatever_the_machine_count() {
        let cfg = AmpcConfig::default()
            .with_machines(1000)
            .with_backend(DhtBackend::Sharded { shards: 8 });
        let mut sys: AmpcSystem<u64> =
            AmpcSystem::new(cfg, (0..4000u64).map(|i| (Key::new(S, i), i)));
        let ids: Vec<u64> = (0..4000).collect();
        for _ in 0..2 {
            sys.round("touch", &ids, |ctx, &i| {
                ctx.write(Key::new(AUX, i), i);
                None::<()>
            })
            .unwrap();
            // One buffer set per worker — not per machine — each with one
            // list per shard, all drained by the barrier.
            assert_eq!(sys.bufs.len(), host_workers().min(1000));
            assert!(sys.bufs.iter().all(|b| b.shard_count() == 8 && b.is_empty()));
        }
        assert_eq!(sys.snapshot().len(), 8000);
        let one_machine: AmpcSystem<u64> =
            AmpcSystem::new(AmpcConfig::default().with_machines(1), std::iter::empty());
        assert_eq!(one_machine.bufs.len(), 1);
    }

    #[test]
    fn unannotated_system_builds_the_store_its_config_names() {
        let built = |cfg: AmpcConfig| {
            let sys: AmpcSystem<u64> = AmpcSystem::new(cfg, std::iter::empty());
            match sys.snapshot() {
                Dht::Flat(_) => "flat",
                Dht::Sharded(_) => "sharded",
                Dht::Dense(_) => "dense",
            }
        };
        assert_eq!(built(AmpcConfig::default()), "dense");
        for backend in [DhtBackend::Flat, DhtBackend::sharded(), DhtBackend::Dense { cap: 9 }] {
            assert_eq!(built(AmpcConfig::default().with_backend(backend)), backend.name());
        }
    }

    #[test]
    fn empty_item_list_is_a_noop_round() {
        let mut sys = system(4, 10);
        let ids: Vec<u64> = Vec::new();
        let out = sys.round("idle", &ids, |_, _: &u64| Some(1u64)).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(sys.stats().rounds(), 1);
    }

    /// A per-item step whose reads and writes vary with the item, so the
    /// machines' loads differ: reads, puts, merges, deletes and a draw.
    fn uneven(ctx: &mut MachineCtx<'_, u64>, &i: &u64) -> Option<u64> {
        let mut acc = 0;
        for k in 0..i % 5 {
            acc += ctx.read(Key::new(S, (i + k) % 300)).copied().unwrap_or(1);
        }
        match i % 4 {
            0 => ctx.write(Key::new(AUX, i), acc),
            1 => ctx.write_merge(Key::new(AUX, i % 7), ctx.draws(3).at(i).next_u64() % 100),
            2 => ctx.delete(Key::new(S, i / 2)),
            _ => return None,
        }
        (i % 3 != 0).then_some(acc)
    }

    #[test]
    fn a_machine_round_is_the_round_it_wraps() {
        let ids: Vec<u64> = (0..300).collect();
        for m in [1, 3, 16, 1000] {
            let (mut by_item, mut by_machine) = (system(m, 300), system(m, 300));
            for _ in 0..2 {
                let a = by_item.round("uneven", &ids, uneven).unwrap();
                let b = by_machine
                    .machine_round("uneven", &ids, |ctx, chunk, out| {
                        out.extend(chunk.iter().filter_map(|i| uneven(ctx, i)))
                    })
                    .unwrap();
                assert_eq!((a.results, a.reads), (b.results, b.reads), "m={m}");
            }
            let (table, stats) = by_item.finish();
            let (machine_table, machine_stats) = by_machine.finish();
            assert_eq!(table.sorted_entries(), machine_table.sorted_entries(), "m={m}");
            // Every field of every round, the worst machine's counts included.
            assert_eq!(format!("{stats:?}"), format!("{machine_stats:?}"), "m={m}");
            assert!(stats.per_round().iter().all(|r| r.max_machine_read_words > 0));
        }
    }

    #[test]
    fn each_machine_runs_its_div_ceil_chunk() {
        for m in [1, 3, 16, 1000] {
            for len in [0u64, 1, 10, 299, 1000, 1001] {
                let ids: Vec<u64> = (0..len).collect();
                let mut sys = system(m, 0);
                let seen = sys
                    .machine_round("chunks", &ids, |ctx, chunk, out| {
                        for &i in chunk {
                            ctx.read(Key::new(S, i));
                        }
                        out.push(chunk.to_vec());
                    })
                    .unwrap()
                    .results;
                let chunk = ids.len().div_ceil(m).max(1);
                let expected: Vec<Vec<u64>> = ids.chunks(chunk).map(<[u64]>::to_vec).collect();
                assert_eq!(seen, expected, "m={m}, {len} items");
                // One machine is one chunk: its meters count the chunk's reads.
                let round = &sys.stats().per_round()[0];
                assert_eq!(round.max_machine_read_words, expected.first().map_or(0, Vec::len));
            }
        }
    }
}

#[cfg(test)]
mod backend_equivalence_tests {
    use super::*;
    use crate::dht::{DenseDht, FlatDht, ShardedDht};

    const S: u16 = 0;
    const AUX: u16 = 1;

    /// A three-round workload exercising every op kind (put, merge, delete)
    /// plus rng, returning the run's canonical observable state.
    fn run_workload<St: DhtStorage<u64>>(
        machines: usize,
        backend: DhtBackend,
    ) -> (Vec<(Key, u64)>, String) {
        let n = 500u64;
        let cfg =
            AmpcConfig::default().with_machines(machines).with_seed(0xBEEF).with_backend(backend);
        let mut sys: AmpcSystem<u64, St> =
            AmpcSystem::new(cfg, (0..n).map(|i| (Key::new(S, i), i)));
        let ids: Vec<u64> = (0..n).collect();
        sys.round("mix", &ids, |ctx, &i| {
            let v = *ctx.read(Key::new(S, i)).unwrap();
            ctx.write(Key::new(S, i), v.wrapping_mul(3));
            ctx.write_merge(Key::new(AUX, i % 13), ctx.draws(1).at(i).next_u64() % 1000);
            if i % 7 == 0 {
                ctx.delete(Key::new(S, (i + 1) % n));
            }
            None::<()>
        })
        .unwrap();
        sys.round("again", &ids, |ctx, &i| {
            if let Some(&v) = ctx.read(Key::new(S, i)) {
                ctx.write_merge(Key::new(AUX, i % 13), v % 997);
            }
            None::<()>
        })
        .unwrap();
        let (snapshot, stats) = sys.finish();
        (snapshot.sorted_entries(), fingerprint(&stats))
    }

    /// The per-round accounting as comparable text.
    fn fingerprint(stats: &RunStats) -> String {
        let mut fp = String::new();
        for r in stats.per_round() {
            use std::fmt::Write as _;
            let _ = writeln!(
                fp,
                "{} {} {} {} {}",
                r.name, r.reads, r.writes, r.snapshot_entries, r.total_space_words
            );
        }
        fp
    }

    /// Two rounds in which many machines put, merge and delete the *same*
    /// few keys — in the slab and far beyond any slab — so the final table
    /// depends on the order the barrier applies them in. The second round
    /// is small enough to run on one worker, over the grid the first left.
    fn run_conflicts<St: DhtStorage<u64>>(cfg: AmpcConfig) -> (Vec<(Key, u64)>, String) {
        const FAR: u64 = 1 << 40;
        let mut sys: AmpcSystem<u64, St> =
            AmpcSystem::new(cfg, (0..50u64).map(|i| (Key::new(S, i), i)));
        let ids: Vec<u64> = (0..2000).collect();
        sys.round("clash", &ids, |ctx, &i| {
            // Last writer wins, near and far.
            ctx.write(Key::new(AUX, i % 7), i);
            ctx.write(Key::new(AUX, FAR + i % 3), i);
            // Puts racing deletes on one key set.
            ctx.write(Key::new(S, i * 7 % 50), i);
            ctx.delete(Key::new(S, i * 3 % 50));
            if i % 11 == 0 {
                ctx.delete(Key::new(AUX, FAR + (i + 1) % 3));
            }
            // Merges (max) interleaved with resetting puts and deletes.
            ctx.write_merge(Key::new(2, i % 4), ctx.draws(0).at(i).next_u64() % 1000);
            ctx.write_merge(Key::new(2, FAR + i % 2), i % 777);
            match i % 13 {
                0 => ctx.write(Key::new(2, i % 4), 0),
                6 => ctx.delete(Key::new(2, FAR + i % 2)),
                _ => {}
            }
            None::<()>
        })
        .unwrap();
        sys.round("clash-again", &ids[..3], |ctx, &i| {
            ctx.write_merge(Key::new(2, 0), i);
            ctx.write(Key::new(AUX, 0), i);
            ctx.delete(Key::new(AUX, FAR));
            None::<()>
        })
        .unwrap();
        let (snapshot, stats) = sys.finish();
        (snapshot.sorted_entries(), fingerprint(&stats))
    }

    #[test]
    fn conflicting_writers_resolve_as_in_the_flat_sequential_run() {
        let base = AmpcConfig::default().with_seed(0xC0FFEE).with_backend(DhtBackend::Flat);
        for machines in [1, 3, 16, 1000] {
            // Flat applies every op in one sequence whatever the host: the
            // reference the concurrent merges are held to.
            let cfg = base.clone().with_machines(machines);
            let reference = run_conflicts::<FlatDht<u64>>(cfg.clone());
            let case = format!("m={machines}");
            assert_eq!(reference, run_conflicts::<Dht<u64>>(cfg.clone()), "enum flat ({case})");
            for shards in [1usize, 8] {
                let cfg = cfg.clone().with_backend(DhtBackend::Sharded { shards });
                let got = run_conflicts::<ShardedDht<u64>>(cfg.clone());
                assert_eq!(reference, got, "sharded:{shards} diverged ({case})");
                let got = run_conflicts::<Dht<u64>>(cfg);
                assert_eq!(reference, got, "enum sharded:{shards} diverged ({case})");
            }
            // Cap 1 has one id range: the dense sequential merge, on any host.
            for cap in [1usize, 64, 1 << 16] {
                let cfg = cfg.clone().with_backend(DhtBackend::Dense { cap });
                let got = run_conflicts::<DenseDht<u64>>(cfg.clone());
                assert_eq!(reference, got, "dense:{cap} diverged ({case})");
                let got = run_conflicts::<Dht<u64>>(cfg);
                assert_eq!(reference, got, "enum dense:{cap} diverged ({case})");
            }
        }
        // The machine count is not observable either: one machine applies
        // its ops in item order, and so does every finer split.
        let one = run_conflicts::<FlatDht<u64>>(base.clone().with_machines(1));
        let many = run_conflicts::<DenseDht<u64>>(
            base.with_machines(1000).with_backend(DhtBackend::Dense { cap: 64 }),
        );
        assert_eq!(one.0, many.0);
    }

    /// One round of puts, merges and deletes over keyspace `S` of a system
    /// whose input is `len` words there, loaded as a slice or inserted one
    /// by one; returns the table and accounting the round leaves.
    fn run_after_input<St: DhtStorage<u64>>(
        cfg: AmpcConfig,
        len: u64,
        slice: bool,
    ) -> (Vec<(Key, u64)>, String) {
        let words: Vec<u64> = (0..len).map(|i| i % 5 * i).collect();
        let mut sys: AmpcSystem<u64, St> = if slice {
            AmpcSystem::from_space(cfg, [(S, SpaceWords::Slice(&words))])
        } else {
            AmpcSystem::new(cfg, words.iter().enumerate().map(|(i, &w)| (Key::new(S, i as u64), w)))
        };
        let ids: Vec<u64> = (0..len + 40).collect();
        sys.round("after-input", &ids, |ctx, &i| {
            let seen = ctx.read(Key::new(S, i)).copied().unwrap_or(7);
            match i % 4 {
                0 => ctx.write(Key::new(S, i), seen + 1),
                1 => ctx.write_merge(Key::new(S, (i * 7) % (len + 40)), seen),
                2 => ctx.delete(Key::new(S, i)),
                _ => ctx.write(Key::new(AUX, i), seen),
            }
            None::<()>
        })
        .unwrap();
        let (snapshot, stats) = sys.finish();
        (snapshot.sorted_entries(), fingerprint(&stats))
    }

    #[test]
    fn a_round_after_a_slice_load_merges_as_after_inserts() {
        let base = AmpcConfig::default().with_machines(8).with_seed(3);
        for len in [0, 1, 130, 256, 300] {
            let flat = base.clone().with_backend(DhtBackend::Flat);
            let reference = run_after_input::<FlatDht<u64>>(flat, len, false);
            for backend in [
                DhtBackend::Flat,
                DhtBackend::Sharded { shards: 8 },
                DhtBackend::Dense { cap: 64 },
                DhtBackend::Dense { cap: 256 },
                DhtBackend::Dense { cap: 1 << 12 },
            ] {
                let cfg = base.clone().with_backend(backend);
                for slice in [false, true] {
                    let got = run_after_input::<Dht<u64>>(cfg.clone(), len, slice);
                    assert_eq!(reference, got, "{backend:?}, len {len}, slice {slice}");
                }
            }
        }
    }

    /// The highest keyspace an op word carries, `2^14 − 1`.
    const TOP: u16 = (1 << 14) - 1;

    /// One round of puts, merges and deletes on keyspace `space`, in the
    /// slab and far past it, returning the table it leaves.
    fn run_on_space<St: DhtStorage<u64>>(cfg: AmpcConfig, space: u16) -> Vec<(Key, u64)> {
        const FAR: u64 = 1 << 40;
        let mut sys: AmpcSystem<u64, St> = AmpcSystem::new(cfg, std::iter::empty());
        let ids: Vec<u64> = (0..300).collect();
        sys.round("top", &ids, |ctx, &i| {
            ctx.write(Key::new(space, i % 40), i);
            ctx.write_merge(Key::new(space, FAR + i % 5), i % 91);
            if i % 3 == 0 {
                ctx.delete(Key::new(space, (i + 7) % 40));
            }
            None::<()>
        })
        .unwrap();
        sys.finish().0.sorted_entries()
    }

    #[test]
    fn the_top_keyspace_round_trips_through_every_backend() {
        let cfg = AmpcConfig::default().with_machines(16).with_backend(DhtBackend::Flat);
        let reference = run_on_space::<FlatDht<u64>>(cfg.clone(), TOP);
        assert!(reference.iter().all(|(k, _)| k.space == TOP));
        // The same ops on keyspace 0 leave the same ids and values.
        let strip = |t: &[(Key, u64)]| t.iter().map(|&(k, v)| (k.id, v)).collect::<Vec<_>>();
        assert_eq!(strip(&reference), strip(&run_on_space::<FlatDht<u64>>(cfg.clone(), 0)));
        for backend in [
            DhtBackend::Sharded { shards: 1 },
            DhtBackend::Sharded { shards: 8 },
            DhtBackend::Dense { cap: 1 },
            DhtBackend::Dense { cap: 64 },
        ] {
            let cfg = cfg.clone().with_backend(backend);
            assert_eq!(reference, run_on_space::<Dht<u64>>(cfg, TOP), "{backend:?}");
        }
    }

    #[test]
    #[should_panic(expected = "keyspace 16384 is out of range")]
    fn a_write_past_the_top_keyspace_panics_naming_it() {
        // One machine runs on the calling thread, so the message arrives
        // as the worker raised it.
        let cfg = AmpcConfig::default().with_machines(1);
        run_on_space::<Dht<u64>>(cfg, TOP + 1);
    }

    #[test]
    fn sharded_snapshot_is_byte_identical_to_flat() {
        // `0` is the automatic shard count. The fingerprint carries every
        // round's `snapshot_entries`, so a drift in the per-shard entry
        // counts fails here even if the entries themselves agree.
        for machines in [1, 3, 16] {
            let flat = run_workload::<FlatDht<u64>>(machines, DhtBackend::Flat);
            assert_eq!(flat, run_workload::<Dht<u64>>(machines, DhtBackend::Flat), "enum flat");
            for shards in [0usize, 2, 8, 64] {
                let backend = DhtBackend::Sharded { shards };
                let sharded = run_workload::<ShardedDht<u64>>(machines, backend);
                assert_eq!(flat.0, sharded.0, "snapshot diverged (m={machines}, s={shards})");
                assert_eq!(flat.1, sharded.1, "stats diverged (m={machines}, s={shards})");
                assert_eq!(flat, run_workload::<Dht<u64>>(machines, backend), "enum, s={shards}");
            }
        }
    }

    #[test]
    fn dense_snapshot_is_byte_identical_to_flat() {
        // Slab capacities straddle the 0..500 id domain of the workload:
        // cap 64 routes most keys through the overflow map, cap 4096 keeps
        // everything slab-resident, `0` is the unhinted default — all must
        // match flat byte-for-byte, entries and per-round accounting alike.
        for machines in [1, 3, 16] {
            let flat = run_workload::<FlatDht<u64>>(machines, DhtBackend::Flat);
            for cap in [0usize, 64, 500, 4096] {
                let backend = DhtBackend::Dense { cap };
                let dense = run_workload::<DenseDht<u64>>(machines, backend);
                assert_eq!(flat.0, dense.0, "snapshot diverged (m={machines}, cap={cap})");
                assert_eq!(flat.1, dense.1, "stats diverged (m={machines}, cap={cap})");
                assert_eq!(flat, run_workload::<Dht<u64>>(machines, backend), "enum, cap={cap}");
            }
        }
    }
}
