//! Bounded structured trace journal.
//!
//! [`TraceRing`] is a fixed-capacity ring of typed events behind one
//! mutex: a writer takes the lock, stamps the next sequence number and
//! overwrites slot `seq % capacity`. The ring never allocates on record;
//! old events are overwritten (a flight recorder, not a log), so an event
//! older than the last `TRACE_CAP` records is gone — by design. Every
//! event that `last` returns is whole, and sequence numbers are exact.
//!
//! Every production record site is per round, per publish or per persist
//! — none per query or per frame — which is why one lock is enough (see
//! DESIGN.md, "Trace ring").

use std::sync::{Mutex, MutexGuard};

/// Ring capacity (power of two). 40 KiB of events as a process-wide static.
pub const TRACE_CAP: usize = 1024;

crate::catalog! {
    /// Typed trace events emitted at the stack's structural seams; `a` and
    /// `b` are the event's two payload words.
    pub enum TraceKind: u64 {
        EpochPublished => "epoch_published", "A new epoch became visible to readers. \
            `a` = epoch, `b` = kind (0 = full rebuild/boot, 1 = journal epoch).",
        JournalBuilt => "journal_built", "A merge journal was built for streaming inserts. \
            `a` = journal entries, `b` = build nanoseconds.",
        CompactionStarted => "compaction_started",
            "An insert began folding its journal into a new base. `a` = epoch it folds.",
        CompactionFinished => "compaction_finished",
            "A folded base was published. `a` = epoch, `b` = fold nanoseconds.",
        IncidentRecorded => "incident_recorded", "A fault was recorded in the incident log. \
            `a` = incident seq, `b` = operation discriminant.",
        SnapshotPersisted => "snapshot_persisted",
            "A snapshot was persisted. `a` = bytes written, `b` = nanoseconds.",
        SnapshotBooted => "snapshot_booted",
            "A snapshot was booted from disk. `a` = bytes read, `b` = nanoseconds.",
        RoundCompleted => "round_completed",
            "An executor round completed. `a` = round index, `b` = bytes shuffled.",
    }
}

/// One recovered trace record. `a`/`b` are kind-specific payloads — see
/// the [`TraceKind`] variant docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub at_ns: u64,
    pub kind: TraceKind,
    pub a: u64,
    pub b: u64,
}

struct Ring {
    /// Events ever recorded; the next event's sequence number.
    head: u64,
    /// Event `seq` lives at `seq % TRACE_CAP` until it is lapped.
    events: [TraceEvent; TRACE_CAP],
}

/// Fixed-capacity multi-producer ring of [`TraceEvent`]s.
pub struct TraceRing {
    ring: Mutex<Ring>,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRing {
    pub const fn new() -> Self {
        // Slots at or past `head` are never read, so the filler is never seen.
        const UNWRITTEN: TraceEvent =
            TraceEvent { seq: 0, at_ns: 0, kind: TraceKind::EpochPublished, a: 0, b: 0 };
        Self { ring: Mutex::new(Ring { head: 0, events: [UNWRITTEN; TRACE_CAP] }) }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        // Nothing panics while the lock is held (an index below `TRACE_CAP`,
        // a `Copy` store), so a poisoned ring is still a whole ring.
        self.ring.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Records an event and returns its sequence number.
    pub fn record(&self, at_ns: u64, kind: TraceKind, a: u64, b: u64) -> u64 {
        let mut ring = self.lock();
        let seq = ring.head;
        ring.events[seq as usize & (TRACE_CAP - 1)] = TraceEvent { seq, at_ns, kind, a, b };
        ring.head = seq + 1;
        seq
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.lock().head
    }

    /// Returns up to the last `n` events, oldest first; returned seqs are
    /// consecutive and end at `recorded() - 1`.
    pub fn last(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.lock();
        let span = (n.min(TRACE_CAP) as u64).min(ring.head);
        (ring.head - span..ring.head)
            .map(|seq| ring.events[seq as usize & (TRACE_CAP - 1)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let ring = TraceRing::new();
        for i in 0..10u64 {
            let seq = ring.record(i * 100, TraceKind::RoundCompleted, i, i * 8);
            assert_eq!(seq, i);
        }
        let events = ring.last(4);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].seq, 6);
        assert_eq!(events[3].seq, 9);
        assert_eq!(events[3].a, 9);
        assert_eq!(events[3].b, 72);
        assert_eq!(events[3].at_ns, 900);
        assert_eq!(events[3].kind, TraceKind::RoundCompleted);
    }

    #[test]
    fn wraparound_keeps_only_the_newest_cap_events() {
        let ring = TraceRing::new();
        let total = (TRACE_CAP as u64) * 3 + 17;
        for i in 0..total {
            ring.record(i, TraceKind::EpochPublished, i, 0);
        }
        assert_eq!(ring.recorded(), total);
        let events = ring.last(usize::MAX);
        assert_eq!(events.len(), TRACE_CAP);
        assert_eq!(events[0].seq, total - TRACE_CAP as u64);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        for e in &events {
            assert_eq!(e.a, e.seq, "payload must match the surviving lap");
        }
    }
}
