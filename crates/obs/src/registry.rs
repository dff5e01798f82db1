//! Process-wide metric catalog.
//!
//! Every metric the stack records is declared here once, as one row of a
//! [`catalog!`](crate::catalog!) table: an enum variant indexing a `static`
//! array ("static-site registration"), its Prometheus name and its help
//! string. A recording site compiles to `&COUNTERS[id as usize]` plus
//! relaxed atomics: no registration handshake, no lock, no name hashing on
//! the hot path (the disarmed-failpoint discipline of [`crate::fault`]
//! applied to metrics), and [`render_text`] emits the Prometheus exposition
//! format from the rows alone.

use std::fmt::Write as _;

use crate::clock::monotonic_ns;
use crate::metrics::{bucket_upper, Counter, Gauge, HistSnapshot, Histogram, BUCKETS};
use crate::trace::{TraceEvent, TraceKind, TraceRing};

crate::catalog! {
    /// Catalog of process-wide counters. Adding one is one row here.
    pub enum CounterId: usize {
        Rounds => "ampc_rounds_total", "Executor rounds completed",
        OpsApplied => "ampc_ops_applied_total",
            "DHT write/merge/delete operations applied at round barriers",
        BytesShuffled => "ampc_bytes_shuffled_total", "Modeled shuffle bytes moved at round barriers",
        EpochsPublished => "serve_epochs_published_total", "Index epochs made visible to readers",
        JournalBuilds => "serve_journal_builds_total",
            "Merge journals built for streaming edge inserts",
        CompactionsStarted => "serve_compactions_started_total", "Compaction folds attempted",
        CompactionsFinished => "serve_compactions_finished_total",
            "Compaction folds published",
        Incidents => "serve_incidents_total", "Faults recorded in the service incident log",
        DegradedTransitions => "serve_degraded_transitions_total",
            "Health-state transitions into Degraded",
        ReadOnlyTransitions => "serve_readonly_transitions_total",
            "Health-state transitions into ReadOnly",
        Recoveries => "serve_recoveries_total", "Health-state recoveries back to Healthy",
        SnapshotPersists => "snapshot_persist_total", "Snapshots persisted to disk",
        SnapshotPersistBytes => "snapshot_persist_bytes_total", "Bytes written by snapshot persists",
        SnapshotBoots => "snapshot_boot_total", "Snapshots booted from disk",
        SnapshotBootBytes => "snapshot_boot_bytes_total", "Bytes read by snapshot boots",
        QueriesServed => "query_served_total", "Connectivity queries answered by the serving driver",
        NetConnsAccepted => "net_connections_accepted_total",
            "Network connections admitted by the TCP front-end",
        NetConnsShed => "net_connections_shed_total",
            "Connections shed with a typed Overloaded reply",
        NetRequests => "net_requests_total", "Request frames the network front-end answered",
        NetProtocolErrors => "net_protocol_errors_total",
            "Malformed frames rejected with a typed protocol error",
    }
}

crate::catalog! {
    /// Catalog of process-wide gauges.
    pub enum GaugeId: usize {
        RebuildsInFlight => "serve_rebuilds_in_flight",
            "Explicit rebuilds in flight",
        JournalPendingEntries => "serve_journal_pending_entries",
            "Journal entries pending compaction",
        NetAdmissionQueueDepth => "net_admission_queue_depth",
            "Connections waiting in the network admission queue",
    }
}

crate::catalog! {
    /// Catalog of process-wide latency histograms (nanoseconds). The three
    /// per-query ones record each frame's service time divided by the
    /// frame's length, once per frame with the length as weight: in process
    /// the engine pass, server side the one pass that decodes, answers and
    /// encodes the frame (socket I/O excluded), client side the round trip.
    pub enum HistId: usize {
        RoundWallNs => "ampc_round_wall_ns", "Wall time of one executor round (ns)",
        JournalBuildNs => "serve_journal_build_ns", "Merge-journal build time (ns)",
        PublishNs => "serve_publish_ns", "Epoch publish time (ns)",
        CompactionNs => "serve_compaction_ns", "Compaction fold duration (ns)",
        SnapshotPersistNs => "snapshot_persist_ns", "Snapshot persist time (ns)",
        SnapshotBootNs => "snapshot_boot_ns", "Snapshot boot time (ns)",
        QueryLatencyNs => "query_latency_ns",
            "In-process service time per query: each frame's mean, weighted by its length (ns)",
        NetServiceNs => "net_request_service_ns",
            "Server-side service time per query: each frame's mean, weighted by its length (ns)",
        NetWireNs => "net_wire_latency_ns",
            "Client-observed round trip per query: each frame's mean, weighted by its length (ns)",
    }
}

static COUNTERS: [Counter; CounterId::COUNT] = [const { Counter::new() }; CounterId::COUNT];
static GAUGES: [Gauge; GaugeId::COUNT] = [const { Gauge::new() }; GaugeId::COUNT];
static HISTS: [Histogram; HistId::COUNT] = [const { Histogram::new() }; HistId::COUNT];
static TRACE: TraceRing = TraceRing::new();

/// The process-wide counter for `id`.
#[inline]
pub fn counter(id: CounterId) -> &'static Counter {
    &COUNTERS[id as usize]
}

/// The process-wide gauge for `id`.
#[inline]
pub fn gauge(id: GaugeId) -> &'static Gauge {
    &GAUGES[id as usize]
}

/// The process-wide histogram for `id`.
#[inline]
pub fn hist(id: HistId) -> &'static Histogram {
    &HISTS[id as usize]
}

/// Records an event in the process-wide trace ring, timestamped on the
/// monotonic clock. Returns the event's sequence number.
#[inline]
pub fn trace(kind: TraceKind, a: u64, b: u64) -> u64 {
    TRACE.record(monotonic_ns(), kind, a, b)
}

/// The last `n` events from the process-wide trace ring, oldest first.
pub fn trace_last(n: usize) -> Vec<TraceEvent> {
    TRACE.last(n)
}

/// Total events ever recorded in the process-wide trace ring.
pub fn trace_recorded() -> u64 {
    TRACE.recorded()
}

/// Renders every registered metric in the Prometheus text exposition
/// format (version 0.0.4): `# HELP` / `# TYPE` comments, counter and
/// gauge samples, and cumulative `_bucket{le="…"}` / `_sum` / `_count`
/// series per histogram. `ampc-net`'s `Metrics` opcode serves this
/// verbatim.
pub fn render_text() -> String {
    let mut s = String::new();
    for id in CounterId::ALL {
        let _ = writeln!(s, "# HELP {} {}", id.name(), id.help());
        let _ = writeln!(s, "# TYPE {} counter", id.name());
        let _ = writeln!(s, "{} {}", id.name(), counter(id).get());
    }
    for id in GaugeId::ALL {
        let _ = writeln!(s, "# HELP {} {}", id.name(), id.help());
        let _ = writeln!(s, "# TYPE {} gauge", id.name());
        let _ = writeln!(s, "{} {}", id.name(), gauge(id).get());
    }
    for id in HistId::ALL {
        let snap = hist(id).snapshot();
        let _ = writeln!(s, "# HELP {} {}", id.name(), id.help());
        let _ = writeln!(s, "# TYPE {} histogram", id.name());
        let mut cumulative = 0u64;
        let top = (0..BUCKETS).rev().find(|&b| snap.buckets[b] != 0).unwrap_or(0);
        for (b, &n) in snap.buckets.iter().enumerate().take(top + 1) {
            cumulative += n;
            let _ =
                writeln!(s, "{}_bucket{{le=\"{}\"}} {}", id.name(), bucket_upper(b), cumulative);
        }
        let _ = writeln!(s, "{}_bucket{{le=\"+Inf\"}} {}", id.name(), snap.count);
        let _ = writeln!(s, "{}_sum {}", id.name(), snap.sum);
        let _ = writeln!(s, "{}_count {}", id.name(), snap.count);
    }
    s
}

/// Renders a compact human-readable table of every metric that has
/// recorded anything (quiescent metrics are skipped).
pub fn render_table() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{:<36} {:>16}", "metric", "value");
    for id in CounterId::ALL {
        let v = counter(id).get();
        if v != 0 {
            let _ = writeln!(s, "{:<36} {:>16}", id.name(), v);
        }
    }
    for id in GaugeId::ALL {
        let v = gauge(id).get();
        if v != 0 {
            let _ = writeln!(s, "{:<36} {:>16}", id.name(), v);
        }
    }
    for id in HistId::ALL {
        let snap = hist(id).snapshot();
        if snap.count == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "{:<36} {:>16}  p50={} p90={} p99={} p999={} max={}",
            id.name(),
            snap.count,
            snap.quantile(0.5),
            snap.quantile(0.9),
            snap.quantile(0.99),
            snap.quantile(0.999),
            snap.max,
        );
    }
    s
}

/// Quantile summary used by JSON exposition: (label, value) pairs for
/// p50/p90/p99/p999/max plus count.
pub fn summary(snap: &HistSnapshot) -> [(&'static str, u64); 6] {
    [
        ("count", snap.count),
        ("p50_ns", snap.quantile(0.5)),
        ("p90_ns", snap.quantile(0.9)),
        ("p99_ns", snap.quantile(0.99)),
        ("p999_ns", snap.quantile(0.999)),
        ("max_ns", snap.max),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_sites_accumulate_monotonically() {
        // Other tests in this process share the statics — assert deltas,
        // never absolute values.
        let c0 = counter(CounterId::Rounds).get();
        counter(CounterId::Rounds).add(3);
        assert!(counter(CounterId::Rounds).get() >= c0 + 3);

        let h = hist(HistId::RoundWallNs);
        let n0 = h.snapshot().count;
        h.record(1_000);
        assert!(h.snapshot().count > n0);

        let t0 = trace_recorded();
        let seq = trace(TraceKind::RoundCompleted, 1, 8);
        assert!(seq >= t0);
        assert!(trace_recorded() > t0);
    }
}
