//! Golden pins on everything a catalogue entry exposes outside the
//! process: the Prometheus `# HELP` / `# TYPE` lines in order (the `--json`
//! metric keys are the same names), the stable names and discriminants of
//! trace kinds, failpoint sites, incident operations, health states and
//! wire error codes, the `--fail` catalogue message, and which bytes the
//! wire accepts as an opcode or an error code. It names nothing but each
//! enum's variants, `name()` and the public codecs, so the same file pins
//! a hand-written table and a generated one.

use adaptive_mpc_connectivity::net::protocol::{
    decode_error, decode_header, encode_header, ErrorCode, Opcode, ProtocolError,
    DEFAULT_MAX_PAYLOAD, MAGIC, VERSION,
};
use adaptive_mpc_connectivity::serve::{HealthState, IncidentOp};
use ampc_obs::fault::{self, Site};
use ampc_obs::TraceKind;

/// `type name help` of every metric, in exposition order.
const EXPOSITION: &str = "\
counter ampc_rounds_total Executor rounds completed
counter ampc_ops_applied_total DHT write/merge/delete operations applied at round barriers
counter ampc_bytes_shuffled_total Modeled shuffle bytes moved at round barriers
counter serve_epochs_published_total Index epochs made visible to readers
counter serve_journal_builds_total Merge journals built for streaming edge inserts
counter serve_compactions_started_total Compaction folds attempted
counter serve_compactions_finished_total Compaction folds published
counter serve_incidents_total Faults recorded in the service incident log
counter serve_degraded_transitions_total Health-state transitions into Degraded
counter serve_readonly_transitions_total Health-state transitions into ReadOnly
counter serve_recoveries_total Health-state recoveries back to Healthy
counter snapshot_persist_total Snapshots persisted to disk
counter snapshot_persist_bytes_total Bytes written by snapshot persists
counter snapshot_boot_total Snapshots booted from disk
counter snapshot_boot_bytes_total Bytes read by snapshot boots
counter query_served_total Connectivity queries answered by the serving driver
counter net_connections_accepted_total Network connections admitted by the TCP front-end
counter net_connections_shed_total Connections shed with a typed Overloaded reply
counter net_requests_total Request frames the network front-end answered
counter net_protocol_errors_total Malformed frames rejected with a typed protocol error
gauge serve_rebuilds_in_flight Explicit rebuilds in flight
gauge serve_journal_pending_entries Journal entries pending compaction
gauge net_admission_queue_depth Connections waiting in the network admission queue
histogram ampc_round_wall_ns Wall time of one executor round (ns)
histogram serve_journal_build_ns Merge-journal build time (ns)
histogram serve_publish_ns Epoch publish time (ns)
histogram serve_compaction_ns Compaction fold duration (ns)
histogram snapshot_persist_ns Snapshot persist time (ns)
histogram snapshot_boot_ns Snapshot boot time (ns)
histogram query_latency_ns In-process service time per query: each frame's mean, weighted by its length (ns)
histogram net_request_service_ns Server-side service time per query: each frame's mean, weighted by its length (ns)
histogram net_wire_latency_ns Client-observed round trip per query: each frame's mean, weighted by its length (ns)
";

#[test]
fn prometheus_help_and_type_lines_are_golden() {
    let text = ampc_obs::render_text();
    let comments: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
    let golden: Vec<String> = EXPOSITION
        .lines()
        .flat_map(|row| {
            let (ty, rest) = row.split_once(' ').expect("type");
            let (name, _) = rest.split_once(' ').expect("name");
            [format!("# HELP {rest}"), format!("# TYPE {name} {ty}")]
        })
        .collect();
    assert_eq!(comments, golden);
}

/// Each `(variant, discriminant, name)` row holds.
macro_rules! assert_rows {
    ($repr:ty: $(($variant:expr, $value:expr, $name:expr)),* $(,)?) => {
        $(
            assert_eq!($variant as $repr, $value, "{:?}", $variant);
            assert_eq!($variant.name(), $name, "{:?}", $variant);
        )*
    };
}

#[test]
fn stable_names_and_discriminants_are_golden() {
    assert_rows!(u64:
        (TraceKind::EpochPublished, 0, "epoch_published"),
        (TraceKind::JournalBuilt, 1, "journal_built"),
        (TraceKind::CompactionStarted, 2, "compaction_started"),
        (TraceKind::CompactionFinished, 3, "compaction_finished"),
        (TraceKind::IncidentRecorded, 4, "incident_recorded"),
        (TraceKind::SnapshotPersisted, 5, "snapshot_persisted"),
        (TraceKind::SnapshotBooted, 6, "snapshot_booted"),
        (TraceKind::RoundCompleted, 7, "round_completed"),
    );
    assert_rows!(usize:
        (Site::RebuildPipeline, 0, "rebuild.pipeline"),
        (Site::CompactPublish, 1, "compact.publish"),
        (Site::JournalBuild, 2, "journal.build"),
        (Site::PersistPreTmp, 3, "persist.pre-tmp"),
        (Site::PersistPreRename, 4, "persist.pre-rename"),
        (Site::PersistPreDirSync, 5, "persist.pre-dirsync"),
        (Site::SnapshotLoad, 6, "snapshot.load"),
        (Site::NetAccept, 7, "net.accept"),
        (Site::NetRead, 8, "net.read"),
        (Site::NetWrite, 9, "net.write"),
        (Site::TestProbe, 10, "test.probe"),
    );
    // `IncidentRecorded` traces the operation's discriminant as `b`.
    assert_rows!(u64:
        (IncidentOp::Rebuild, 0, "rebuild"),
        (IncidentOp::Compaction, 1, "compaction"),
        (IncidentOp::JournalBuild, 2, "journal-build"),
        (IncidentOp::Boot, 3, "boot"),
    );
    // The health state's discriminant is its byte in the Health reply.
    assert_rows!(u8:
        (HealthState::Healthy, 0, "healthy"),
        (HealthState::Degraded, 1, "degraded"),
        (HealthState::ReadOnly, 2, "read-only"),
    );
    assert_rows!(u16:
        (ErrorCode::Malformed, 1, "malformed"),
        (ErrorCode::BadMagic, 2, "bad-magic"),
        (ErrorCode::BadVersion, 3, "bad-version"),
        (ErrorCode::Oversized, 4, "oversized"),
        (ErrorCode::UnknownOpcode, 5, "unknown-opcode"),
        (ErrorCode::Overloaded, 6, "overloaded"),
        (ErrorCode::ReadOnly, 7, "read-only"),
        (ErrorCode::Internal, 8, "internal"),
    );
}

#[test]
fn an_unknown_failpoint_lists_the_catalogue() {
    assert_eq!(
        fault::arm_spec("bogus").unwrap_err(),
        "unknown failpoint `bogus` (sites: rebuild.pipeline, compact.publish, journal.build, \
         persist.pre-tmp, persist.pre-rename, persist.pre-dirsync, snapshot.load, net.accept, \
         net.read, net.write, test.probe)"
    );
}

#[test]
fn the_wire_accepts_exactly_the_declared_opcodes_and_error_codes() {
    assert_eq!((MAGIC, VERSION), (0x414D_5043, 1));
    let opcodes = [
        (Opcode::QueryBatch, 0x01u8),
        (Opcode::Health, 0x02),
        (Opcode::Metrics, 0x03),
        (Opcode::InsertEdges, 0x04),
        (Opcode::Shutdown, 0x05),
        (Opcode::RespAnswers, 0x81),
        (Opcode::RespHealth, 0x82),
        (Opcode::RespMetrics, 0x83),
        (Opcode::RespInsert, 0x84),
        (Opcode::RespShutdown, 0x85),
        (Opcode::RespError, 0xEE),
    ];
    for byte in 0..=u8::MAX {
        let mut header = encode_header(Opcode::Health, 0, 1);
        header[5] = byte;
        let decoded = decode_header(&header, DEFAULT_MAX_PAYLOAD).map(|h| h.opcode);
        match opcodes.iter().find(|&&(_, b)| b == byte) {
            Some(&(opcode, _)) => {
                assert_eq!(decoded, Ok(opcode));
                assert_eq!(encode_header(opcode, 0, 1), header);
            }
            None => assert_eq!(decoded, Err(ProtocolError::UnknownOpcode(byte))),
        }
    }
    for raw in 0..=u16::MAX {
        let [lo, hi] = raw.to_le_bytes();
        match decode_error(&[lo, hi, 0, 0]) {
            Ok((code, message)) => {
                assert!((1..=8).contains(&raw), "{raw} decoded as {code:?}");
                assert_eq!((code as u16, message.as_str()), (raw, ""));
            }
            Err(e) => {
                assert!(!(1..=8).contains(&raw), "{raw} refused: {e}");
                assert_eq!(e, ProtocolError::Malformed("unknown wire error code"));
            }
        }
    }
}
