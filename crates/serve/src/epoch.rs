//! An epoch cell: a swappable `Arc<T>` with a monotonically increasing
//! epoch number, on two standard-library locks.
//!
//! The serving layer needs one concurrency primitive: readers obtain a
//! consistent snapshot of the current index while a rebuild publishes a
//! replacement. [`EpochCell`] keeps `(epoch, Arc<T>)` behind an
//! `RwLock`; [`EpochCell::pin`] is a read-lock and an `Arc::clone`, a
//! publish is one `mem::replace` under the write lock. A second mutex
//! serializes publishers, so the payload of epoch `e + 1` is *built*
//! (`make(next)`) with the `RwLock` free and readers are only ever excluded
//! for the swap itself.
//!
//! The cell holds exactly one reference — the current epoch — so a retired
//! epoch's payload is freed the moment its last guard drops (standard `Arc`
//! semantics). That drop happens after the write lock is released: a
//! payload's `Drop` may be arbitrarily slow, or may itself call
//! [`EpochCell::pin`].
//!
//! **Why every answer is consistent with exactly one epoch:** a guard holds
//! one `Arc<T>` cloned together with its epoch number under the read lock,
//! and `T` is immutable once published — so all reads through one guard see
//! one published value and the guard's [`EpochGuard::epoch`] names the epoch
//! those answers belong to.
//!
//! An earlier version swapped raw pointers between two slots without a
//! lock; the ledger could not tell the two apart (DESIGN.md, "The epoch
//! cell"), so the version that needs no ordering proof stayed.

use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// A swappable `Arc<T>` cell with a monotonically increasing epoch number.
/// See the module docs.
pub struct EpochCell<T> {
    /// The published epoch and its payload; they change together.
    current: RwLock<(u64, Arc<T>)>,
    /// Serializes publishers. Readers never lock it.
    writer: Mutex<()>,
}

impl<T> EpochCell<T> {
    /// Creates a cell publishing `initial` as epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        EpochCell { current: RwLock::new((0, initial)), writer: Mutex::new(()) }
    }

    fn read(&self) -> RwLockReadGuard<'_, (u64, Arc<T>)> {
        // Poison on `current` is recoverable: the only code that runs under
        // its write lock is one `mem::replace`, which cannot panic, so the
        // pair is whole at every step.
        self.current.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The most recently published epoch number.
    pub fn epoch(&self) -> u64 {
        self.read().0
    }

    /// Pins the current value: a read-lock and an `Arc::clone`. Readers
    /// share the lock with each other and wait only for a publisher's swap.
    pub fn pin(&self) -> EpochGuard<T> {
        let current = self.read();
        EpochGuard { value: Arc::clone(&current.1), epoch: current.0 }
    }

    /// Publishes `value` as the next epoch and returns its epoch number.
    /// Readers already holding guards keep their pinned value; new `pin`
    /// calls see `value`. Publishers are serialized.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        self.publish_with(|_| value)
    }

    /// Like [`EpochCell::publish`], but the value is built by a closure
    /// that receives the epoch number it will be published as — so a
    /// payload can embed its own epoch even with concurrent publishers.
    pub fn publish_with<F: FnOnce(u64) -> Arc<T>>(&self, make: F) -> u64 {
        // A poisoned writer mutex is recoverable by construction: a
        // panicking publisher can only die inside `make(next)` — *before*
        // the swap. So poison means "a previous publisher aborted cleanly",
        // not "the cell is half-written"; refusing to publish forever would
        // brick the service for no soundness gain.
        let _w = self.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        // Only a publisher changes the epoch and `_w` excludes the others,
        // so `next` is still right when the write lock is taken below.
        let next = self.epoch() + 1;
        let value = make(next);
        let mut current = self.current.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        let retired = std::mem::replace(&mut *current, (next, value));
        // The retired payload may be freed right here (no guard left), and
        // its `Drop` is foreign code: release the readers first.
        drop(current);
        drop(retired);
        next
    }
}

impl<T> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell").field("epoch", &self.epoch()).finish_non_exhaustive()
    }
}

/// A pinned epoch: an owned strong reference to one published value plus
/// the epoch number it was published as. Dropping the guard releases the
/// reference; the value is freed when its epoch is retired **and** every
/// guard is gone.
pub struct EpochGuard<T> {
    value: Arc<T>,
    epoch: u64,
}

impl<T> EpochGuard<T> {
    /// The epoch this guard pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned value as an `Arc` (e.g. to downgrade to a `Weak` in
    /// lifecycle tests, or to keep the payload past the guard).
    pub fn value(&self) -> &Arc<T> {
        &self.value
    }
}

impl<T> std::ops::Deref for EpochGuard<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Clone for EpochGuard<T> {
    fn clone(&self) -> Self {
        EpochGuard { value: Arc::clone(&self.value), epoch: self.epoch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::sync::{mpsc, Barrier, Weak};
    use std::time::Duration;

    #[test]
    fn pin_sees_the_published_value_and_epoch() {
        let cell = EpochCell::new(Arc::new(10u64));
        let g0 = cell.pin();
        assert_eq!((*g0, g0.epoch()), (10, 0));
        assert_eq!(cell.publish(Arc::new(11)), 1);
        assert_eq!(cell.publish(Arc::new(12)), 2);
        // The old guard still answers against its pinned epoch.
        assert_eq!((*g0, g0.epoch()), (10, 0));
        let g2 = cell.pin();
        assert_eq!((*g2, g2.epoch()), (12, 2));
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn publish_with_hands_the_payload_its_epoch() {
        let cell = EpochCell::new(Arc::new((0u64, "genesis")));
        for _ in 0..5 {
            let e = cell.publish_with(|e| Arc::new((e, "rebuilt")));
            let g = cell.pin();
            assert_eq!(g.epoch(), e);
            assert_eq!(g.0, e, "payload must embed the epoch it was published as");
        }
    }

    /// Tracks drops so the retire-on-unpin contract is observable.
    struct DropFlag(Arc<AtomicBool>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, SeqCst);
        }
    }

    #[test]
    fn retired_epochs_are_dropped_once_unpinned() {
        let dropped = Arc::new(AtomicBool::new(false));
        let cell = EpochCell::new(Arc::new(DropFlag(Arc::clone(&dropped))));
        let guard = cell.pin();
        // One publish retires epoch 0; only the guard keeps it alive.
        cell.publish(Arc::new(DropFlag(Arc::new(AtomicBool::new(false)))));
        assert!(!dropped.load(SeqCst), "pinned epoch must stay alive");
        drop(guard);
        assert!(dropped.load(SeqCst), "unpinned retired epoch must be freed");
        // An unpinned epoch is freed by the publish itself: the cell holds
        // no reference to a retired value.
        let dropped1 = Arc::new(AtomicBool::new(false));
        cell.publish(Arc::new(DropFlag(Arc::clone(&dropped1))));
        assert!(!dropped1.load(SeqCst));
        cell.publish(Arc::new(DropFlag(Arc::new(AtomicBool::new(false)))));
        assert!(dropped1.load(SeqCst), "publish must retire the unpinned previous epoch");
    }

    #[test]
    fn cell_drop_releases_both_slots() {
        let d0 = Arc::new(AtomicBool::new(false));
        let d1 = Arc::new(AtomicBool::new(false));
        let cell = EpochCell::new(Arc::new(DropFlag(Arc::clone(&d0))));
        cell.publish(Arc::new(DropFlag(Arc::clone(&d1))));
        drop(cell);
        assert!(d0.load(SeqCst) && d1.load(SeqCst), "cell drop must free both slots");
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_value() {
        // Payload is (epoch, epoch * SALT): a torn read (pointer from one
        // epoch, content from another) or use-after-free would break the
        // invariant. Hammer with readers while a writer publishes rapidly.
        const SALT: u64 = 0x9E37_79B9_7F4A_7C15;
        const PUBLISHES: u64 = 2_000;
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(SeqCst) {
                        let g = cell.pin();
                        let (e, salted) = *g;
                        assert_eq!(salted, e.wrapping_mul(SALT), "torn read at epoch {e}");
                        assert!(e >= seen, "epoch went backwards: {e} after {seen}");
                        seen = e;
                    }
                });
            }
            for _ in 0..PUBLISHES {
                cell.publish_with(|e| Arc::new((e, e.wrapping_mul(SALT))));
            }
            stop.store(true, SeqCst);
        });
        assert_eq!(cell.epoch(), PUBLISHES);
        let g = cell.pin();
        assert_eq!(g.0, PUBLISHES);
    }

    #[test]
    fn concurrent_publishers_serialize_and_epochs_stay_dense() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..250 {
                        cell.publish_with(Arc::new);
                    }
                });
            }
        });
        // 4 × 250 publishes ⇒ epoch exactly 1000, payload embeds it.
        assert_eq!(cell.epoch(), 1000);
        assert_eq!(*cell.pin().value().as_ref(), 1000);
    }

    #[test]
    fn poisoned_publisher_does_not_brick_the_cell() {
        // A publisher that panics inside its `make` closure poisons the
        // writer mutex. The cell must shrug that off: the panic fires
        // before any slot/epoch mutation, so the guarded state is intact
        // and later publishes must succeed (this used to panic forever).
        let cell = Arc::new(EpochCell::new(Arc::new(1u64)));
        let result = std::panic::catch_unwind({
            let cell = Arc::clone(&cell);
            move || {
                cell.publish_with(|_| -> Arc<u64> { panic!("publisher died mid-build") });
            }
        });
        assert!(result.is_err(), "the publisher panic must propagate to its caller");
        // The failed publish changed nothing…
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.pin().value().as_ref(), 1);
        // …and the cell still publishes and reads normally afterwards.
        assert_eq!(cell.publish(Arc::new(2)), 1);
        let g = cell.pin();
        assert_eq!((*g, g.epoch()), (2, 1));
    }

    #[test]
    fn guard_clone_shares_the_pin() {
        let cell = EpochCell::new(Arc::new(5u64));
        let a = cell.pin();
        let b = a.clone();
        cell.publish(Arc::new(6));
        assert_eq!((*a, a.epoch()), (5, 0));
        assert_eq!((*b, b.epoch()), (5, 0));
    }

    /// A payload whose `Drop` pins the cell it was published in and
    /// records the epoch it found there.
    struct PinsOnDrop {
        cell: Weak<EpochCell<PinsOnDrop>>,
        saw: Arc<AtomicU64>,
    }
    impl Drop for PinsOnDrop {
        fn drop(&mut self) {
            if let Some(cell) = self.cell.upgrade() {
                self.saw.store(cell.pin().epoch(), SeqCst);
            }
        }
    }

    #[test]
    fn a_payload_whose_drop_pins_the_cell_can_be_published_over() {
        // The publish that retires epoch 0 also frees it (nothing pins it),
        // and freeing it takes the read lock: that deadlocks unless the
        // retired value is dropped after the write lock is released.
        let saw = Arc::new(AtomicU64::new(u64::MAX));
        let payload = |cell: &Weak<EpochCell<PinsOnDrop>>| {
            Arc::new(PinsOnDrop { cell: Weak::clone(cell), saw: Arc::clone(&saw) })
        };
        let cell = Arc::new_cyclic(|weak| EpochCell::new(payload(weak)));
        let next = payload(&Arc::downgrade(&cell));
        // On its own thread, so that a deadlock fails this test instead of
        // hanging the suite.
        let (tx, rx) = mpsc::channel();
        let publisher = std::thread::spawn({
            let cell = Arc::clone(&cell);
            move || tx.send(cell.publish(next))
        });
        let published = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("publish must return: the retired payload is dropped outside the write lock");
        publisher.join().expect("publisher thread").expect("receiver is alive");
        assert_eq!(published, 1);
        assert_eq!(saw.load(SeqCst), 1, "the retired payload's drop pinned its successor");
    }

    #[test]
    fn epochs_retired_while_pinned_die_with_their_last_guard() {
        // The publisher retires epoch `e` only once some reader holds a
        // guard on it (`pinned > e`: readers record `e + 1`, so 0 says
        // nothing is pinned yet — epoch 0 included), and a reader lets go
        // only once its epoch is retired, so every epoch but the last is
        // retired while pinned. Several readers may hold one epoch, so "my
        // guard dropped" does not mean "the payload died"; what must hold
        // is that once every guard is gone the cell has kept no retired
        // payload alive.
        const PUBLISHES: u64 = 2_000;
        let cell = EpochCell::new(Arc::new(0u64));
        let pinned = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let start = Barrier::new(5);
        let seen: Vec<Vec<(u64, Weak<u64>)>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = Vec::new();
                        start.wait();
                        while !done.load(SeqCst) {
                            let g = cell.pin();
                            assert_eq!(*g, g.epoch());
                            seen.push((g.epoch(), Arc::downgrade(g.value())));
                            pinned.fetch_max(g.epoch() + 1, SeqCst);
                            while cell.epoch() == g.epoch() && !done.load(SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        seen
                    })
                })
                .collect();
            start.wait();
            for next in 1..=PUBLISHES {
                while pinned.load(SeqCst) < next {
                    std::thread::yield_now();
                }
                assert_eq!(cell.publish_with(Arc::new), next);
            }
            done.store(true, SeqCst);
            readers.into_iter().map(|r| r.join().expect("reader thread")).collect()
        });
        let mut pinned_while_retired = vec![false; PUBLISHES as usize];
        for (epoch, weak) in seen.iter().flatten() {
            assert_eq!(weak.upgrade().is_some(), *epoch == PUBLISHES, "epoch {epoch}");
            if *epoch < PUBLISHES {
                pinned_while_retired[*epoch as usize] = true;
            }
        }
        assert!(pinned_while_retired.iter().all(|&p| p), "every retired epoch had a guard");
    }
}
