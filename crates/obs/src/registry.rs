//! Process-wide metric catalog.
//!
//! Every metric the stack records is declared here once, as an enum
//! variant indexing a `static` array — "static-site registration". A
//! recording site compiles to `&COUNTERS[id as usize]` plus relaxed
//! atomics: no registration handshake, no lock, no name hashing on the
//! hot path (the disarmed-failpoint discipline of [`crate::fault`]
//! applied to metrics). Names and help strings live here too, so
//! [`render_text`] can emit the Prometheus exposition format without any
//! per-metric state elsewhere.

use std::fmt::Write as _;

use crate::clock::monotonic_ns;
use crate::metrics::{bucket_upper, Counter, Gauge, HistSnapshot, Histogram, BUCKETS};
use crate::trace::{TraceEvent, TraceKind, TraceRing};

/// Catalog of process-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Executor rounds completed.
    Rounds = 0,
    /// DHT write/merge/delete operations applied at round barriers.
    OpsApplied,
    /// Modeled shuffle traffic: bytes moved at round barriers.
    BytesShuffled,
    /// Epochs made visible to readers (rebuilds, journal epochs, boots).
    EpochsPublished,
    /// Merge journals built for streaming inserts.
    JournalBuilds,
    /// Background compactions started.
    CompactionsStarted,
    /// Background compactions that published.
    CompactionsFinished,
    /// Faults recorded in the incident log.
    Incidents,
    /// Health transitions into Degraded.
    DegradedTransitions,
    /// Health transitions into ReadOnly.
    ReadOnlyTransitions,
    /// Recoveries back to Healthy from a degraded state.
    Recoveries,
    /// Snapshots persisted to disk.
    SnapshotPersists,
    /// Bytes written by snapshot persists.
    SnapshotPersistBytes,
    /// Snapshots booted from disk.
    SnapshotBoots,
    /// Bytes read by snapshot boots.
    SnapshotBootBytes,
    /// Queries answered by the serving driver.
    QueriesServed,
    /// Network connections admitted by the TCP front-end.
    NetConnsAccepted,
    /// Network connections shed with a typed `Overloaded` reply at the
    /// admission high-water mark.
    NetConnsShed,
    /// Request frames the network front-end answered.
    NetRequests,
    /// Malformed frames rejected with a typed protocol error.
    NetProtocolErrors,
}

const COUNTER_COUNT: usize = 20;

impl CounterId {
    pub const ALL: [CounterId; COUNTER_COUNT] = [
        CounterId::Rounds,
        CounterId::OpsApplied,
        CounterId::BytesShuffled,
        CounterId::EpochsPublished,
        CounterId::JournalBuilds,
        CounterId::CompactionsStarted,
        CounterId::CompactionsFinished,
        CounterId::Incidents,
        CounterId::DegradedTransitions,
        CounterId::ReadOnlyTransitions,
        CounterId::Recoveries,
        CounterId::SnapshotPersists,
        CounterId::SnapshotPersistBytes,
        CounterId::SnapshotBoots,
        CounterId::SnapshotBootBytes,
        CounterId::QueriesServed,
        CounterId::NetConnsAccepted,
        CounterId::NetConnsShed,
        CounterId::NetRequests,
        CounterId::NetProtocolErrors,
    ];

    /// Prometheus metric name.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Rounds => "ampc_rounds_total",
            CounterId::OpsApplied => "ampc_ops_applied_total",
            CounterId::BytesShuffled => "ampc_bytes_shuffled_total",
            CounterId::EpochsPublished => "serve_epochs_published_total",
            CounterId::JournalBuilds => "serve_journal_builds_total",
            CounterId::CompactionsStarted => "serve_compactions_started_total",
            CounterId::CompactionsFinished => "serve_compactions_finished_total",
            CounterId::Incidents => "serve_incidents_total",
            CounterId::DegradedTransitions => "serve_degraded_transitions_total",
            CounterId::ReadOnlyTransitions => "serve_readonly_transitions_total",
            CounterId::Recoveries => "serve_recoveries_total",
            CounterId::SnapshotPersists => "snapshot_persist_total",
            CounterId::SnapshotPersistBytes => "snapshot_persist_bytes_total",
            CounterId::SnapshotBoots => "snapshot_boot_total",
            CounterId::SnapshotBootBytes => "snapshot_boot_bytes_total",
            CounterId::QueriesServed => "query_served_total",
            CounterId::NetConnsAccepted => "net_connections_accepted_total",
            CounterId::NetConnsShed => "net_connections_shed_total",
            CounterId::NetRequests => "net_requests_total",
            CounterId::NetProtocolErrors => "net_protocol_errors_total",
        }
    }

    fn help(self) -> &'static str {
        match self {
            CounterId::Rounds => "Executor rounds completed",
            CounterId::OpsApplied => "DHT write/merge/delete operations applied at round barriers",
            CounterId::BytesShuffled => "Modeled shuffle bytes moved at round barriers",
            CounterId::EpochsPublished => "Index epochs made visible to readers",
            CounterId::JournalBuilds => "Merge journals built for streaming edge inserts",
            CounterId::CompactionsStarted => "Background compactions started",
            CounterId::CompactionsFinished => "Background compactions published",
            CounterId::Incidents => "Faults recorded in the service incident log",
            CounterId::DegradedTransitions => "Health-state transitions into Degraded",
            CounterId::ReadOnlyTransitions => "Health-state transitions into ReadOnly",
            CounterId::Recoveries => "Health-state recoveries back to Healthy",
            CounterId::SnapshotPersists => "Snapshots persisted to disk",
            CounterId::SnapshotPersistBytes => "Bytes written by snapshot persists",
            CounterId::SnapshotBoots => "Snapshots booted from disk",
            CounterId::SnapshotBootBytes => "Bytes read by snapshot boots",
            CounterId::QueriesServed => "Connectivity queries answered by the serving driver",
            CounterId::NetConnsAccepted => "Network connections admitted by the TCP front-end",
            CounterId::NetConnsShed => "Connections shed with a typed Overloaded reply",
            CounterId::NetRequests => "Request frames the network front-end answered",
            CounterId::NetProtocolErrors => "Malformed frames rejected with a typed protocol error",
        }
    }
}

/// Catalog of process-wide gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Rebuild tickets issued but not yet published.
    RebuildQueueDepth = 0,
    /// Journal entries pending compaction in the live epoch.
    JournalPendingEntries,
    /// Connections waiting in the network admission queue.
    NetAdmissionQueueDepth,
}

const GAUGE_COUNT: usize = 3;

impl GaugeId {
    pub const ALL: [GaugeId; GAUGE_COUNT] = [
        GaugeId::RebuildQueueDepth,
        GaugeId::JournalPendingEntries,
        GaugeId::NetAdmissionQueueDepth,
    ];

    pub fn name(self) -> &'static str {
        match self {
            GaugeId::RebuildQueueDepth => "serve_rebuild_queue_depth",
            GaugeId::JournalPendingEntries => "serve_journal_pending_entries",
            GaugeId::NetAdmissionQueueDepth => "net_admission_queue_depth",
        }
    }

    fn help(self) -> &'static str {
        match self {
            GaugeId::RebuildQueueDepth => "Rebuild tickets issued but not yet published",
            GaugeId::JournalPendingEntries => "Journal entries pending compaction",
            GaugeId::NetAdmissionQueueDepth => "Connections waiting in the network admission queue",
        }
    }
}

/// Catalog of process-wide latency/size histograms (nanoseconds unless
/// noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Wall time of one executor round.
    RoundWallNs = 0,
    /// Merge-journal build time for a streaming insert batch.
    JournalBuildNs,
    /// Epoch publish (pointer swap + retire) time.
    PublishNs,
    /// Background compaction duration, start to publish.
    CompactionNs,
    /// Snapshot persist (encode + write + rename + fsync) time.
    SnapshotPersistNs,
    /// Snapshot boot (read + validate + decode) time.
    SnapshotBootNs,
    /// In-process service time per query: each frame's engine pass divided
    /// by its length, recorded once per frame with the length as weight.
    QueryLatencyNs,
    /// Server-side service time per query on the network path: each
    /// frame's engine pass divided by its length, recorded once per frame
    /// with the length as weight (excludes decode, encode and socket I/O).
    NetServiceNs,
    /// Client-observed round trip per query: each request frame's round
    /// trip divided by its length, recorded once per frame with the length
    /// as weight.
    NetWireNs,
}

const HIST_COUNT: usize = 9;

impl HistId {
    pub const ALL: [HistId; HIST_COUNT] = [
        HistId::RoundWallNs,
        HistId::JournalBuildNs,
        HistId::PublishNs,
        HistId::CompactionNs,
        HistId::SnapshotPersistNs,
        HistId::SnapshotBootNs,
        HistId::QueryLatencyNs,
        HistId::NetServiceNs,
        HistId::NetWireNs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            HistId::RoundWallNs => "ampc_round_wall_ns",
            HistId::JournalBuildNs => "serve_journal_build_ns",
            HistId::PublishNs => "serve_publish_ns",
            HistId::CompactionNs => "serve_compaction_ns",
            HistId::SnapshotPersistNs => "snapshot_persist_ns",
            HistId::SnapshotBootNs => "snapshot_boot_ns",
            HistId::QueryLatencyNs => "query_latency_ns",
            HistId::NetServiceNs => "net_request_service_ns",
            HistId::NetWireNs => "net_wire_latency_ns",
        }
    }

    fn help(self) -> &'static str {
        match self {
            HistId::RoundWallNs => "Wall time of one executor round (ns)",
            HistId::JournalBuildNs => "Merge-journal build time (ns)",
            HistId::PublishNs => "Epoch publish time (ns)",
            HistId::CompactionNs => "Background compaction duration (ns)",
            HistId::SnapshotPersistNs => "Snapshot persist time (ns)",
            HistId::SnapshotBootNs => "Snapshot boot time (ns)",
            HistId::QueryLatencyNs => {
                "In-process service time per query: each frame's mean, weighted by its length (ns)"
            }
            HistId::NetServiceNs => {
                "Server-side service time per query: each frame's mean, weighted by its length (ns)"
            }
            HistId::NetWireNs => {
                "Client-observed round trip per query: each frame's mean, weighted by its length (ns)"
            }
        }
    }
}

static COUNTERS: [Counter; COUNTER_COUNT] = [const { Counter::new() }; COUNTER_COUNT];
static GAUGES: [Gauge; GAUGE_COUNT] = [const { Gauge::new() }; GAUGE_COUNT];
static HISTS: [Histogram; HIST_COUNT] = [const { Histogram::new() }; HIST_COUNT];
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
    fn catalog_indices_match_enum_discriminants() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        for (i, id) in HistId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = CounterId::ALL
            .iter()
            .map(|c| c.name())
            .chain(GaugeId::ALL.iter().map(|g| g.name()))
            .chain(HistId::ALL.iter().map(|h| h.name()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

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
