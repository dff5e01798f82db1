//! The wire protocol: a versioned length-prefixed binary framing plus the
//! payload codecs for every opcode.
//!
//! # Frame layout
//!
//! Every message — request or response — is one frame: a fixed **16-byte
//! header** followed by `payload_len` payload bytes. All integers are
//! little-endian.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x414D5043 ("AMPC")
//!      4     1  version      1
//!      5     1  opcode       Opcode discriminant
//!      6     2  flags        reserved, must be zero
//!      8     4  payload_len  bytes following the header
//!     12     4  request_id   echoed verbatim in the response
//! ```
//!
//! The header is fixed-size on purpose: a reader can validate magic,
//! version and payload bound **before** allocating anything, so a hostile
//! or corrupt peer can never make the server buffer an unbounded frame.
//! Responses reuse the same header with response opcodes (high bit set);
//! every error travels as a [`Opcode::RespError`] frame carrying a typed
//! [`ErrorCode`] — the wire analogue of the typed `ServeError`s inside the
//! process.
//!
//! # Version-bump policy
//!
//! `VERSION` changes whenever the header layout, an existing opcode's
//! payload encoding, or an error code's meaning changes. Adding a *new*
//! opcode is not a version bump: an old server answers it with a typed
//! `UnknownOpcode` error and keeps the connection, which is exactly the
//! negotiation a client needs. A reader that sees a foreign version
//! refuses the frame before touching the payload (typed
//! [`ProtocolError::BadVersion`]) — there is no cross-version parsing,
//! matching the snapshot format's refuse-don't-guess policy.
//!
//! # Failpoints
//!
//! [`read_frame`] and [`write_frame`] traverse the `net.read` / `net.write`
//! failpoints (one relaxed load when disarmed), so chaos schedules can cut
//! either direction of the wire deterministically on both the server and
//! the client side.

use std::io::{IoSlice, Read, Write};

use ampc_query::Query;
use ampc_serve::fault::{self, Site};
use ampc_serve::HealthState;

/// Frame magic: `"AMPC"` read as a big-endian u32, stored little-endian.
pub const MAGIC: u32 = 0x414D_5043;
/// Protocol version this build speaks (see the version-bump policy above).
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Default cap a reader enforces on `payload_len` before allocating.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;
/// Bytes one encoded query occupies ([`encode_queries`]).
pub const QUERY_WIRE_LEN: usize = 12;
/// Bytes one encoded answer occupies ([`encode_answers`]).
pub const ANSWER_WIRE_LEN: usize = 8;

ampc_obs::catalog! {
    /// Frame opcodes. Requests have the high bit clear, responses set; the
    /// pairing is `request | 0x80` except for [`Opcode::RespError`], which can
    /// answer any request.
    pub enum Opcode: u8 {
        QueryBatch = 0x01 => "query_batch",
            "Batch of encoded queries → [`Opcode::RespAnswers`].",
        Health = 0x02 => "health", "Health probe (empty payload) → [`Opcode::RespHealth`].",
        Metrics = 0x03 => "metrics",
            "Prometheus metrics dump (empty payload) → [`Opcode::RespMetrics`].",
        InsertEdges = 0x04 => "insert_edges",
            "Edge-insert batch (write op; refused in ReadOnly) → [`Opcode::RespInsert`].",
        Shutdown = 0x05 => "shutdown",
            "Orderly server shutdown (empty payload) → [`Opcode::RespShutdown`].",
        RespAnswers = 0x81 => "resp_answers", "Answer array: one u64 per query, in request order.",
        RespHealth = 0x82 => "resp_health", "Encoded [`WireHealth`].",
        RespMetrics = 0x83 => "resp_metrics", "UTF-8 Prometheus text exposition.",
        RespInsert = 0x84 => "resp_insert", "Encoded [`WireInsertReport`].",
        RespShutdown = 0x85 => "resp_shutdown",
            "Empty acknowledgement; the server exits after sending it.",
        RespError = 0xEE => "resp_error",
            "Typed error: u16 [`ErrorCode`], u16 reserved, UTF-8 message.",
    }
}

ampc_obs::catalog! {
    /// Typed error codes carried by [`Opcode::RespError`] frames; the name is
    /// what error text and JSON call the code.
    pub enum ErrorCode: u16 {
        Malformed = 1 => "malformed", "Structurally invalid frame or payload (bad flags, ragged \
            array, unknown query tag, non-UTF-8 text…).",
        BadMagic = 2 => "bad-magic", "Wrong frame magic.",
        BadVersion = 3 => "bad-version", "Protocol version this peer does not speak.",
        Oversized = 4 => "oversized", "`payload_len` above the reader's cap.",
        UnknownOpcode = 5 => "unknown-opcode", "Opcode this peer does not recognize.",
        Overloaded = 6 => "overloaded",
            "Admission queue at its high-water mark — deterministic load shed.",
        ReadOnly = 7 => "read-only", "Write opcode refused because the service is ReadOnly.",
        Internal = 8 => "internal",
            "The request was valid but the service failed to execute it.",
    }
}

/// A structurally invalid frame, detected before any payload is trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Frame magic was not [`MAGIC`].
    BadMagic(u32),
    /// Frame version was not [`VERSION`].
    BadVersion(u8),
    /// `payload_len` exceeded the reader's cap.
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// Cap the reader enforces.
        max: u32,
    },
    /// The peer closed the connection mid-frame.
    Truncated,
    /// Opcode byte this peer does not recognize.
    UnknownOpcode(u8),
    /// Any other structural violation; the string says which.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic 0x{m:08x}"),
            ProtocolError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {VERSION})")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte cap")
            }
            ProtocolError::Truncated => write!(f, "connection closed mid-frame"),
            ProtocolError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// The typed wire code + message a server replies with before closing.
    pub fn wire_error(&self) -> (ErrorCode, String) {
        let code = match self {
            ProtocolError::BadMagic(_) => ErrorCode::BadMagic,
            ProtocolError::BadVersion(_) => ErrorCode::BadVersion,
            ProtocolError::Oversized { .. } => ErrorCode::Oversized,
            ProtocolError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            ProtocolError::Truncated | ProtocolError::Malformed(_) => ErrorCode::Malformed,
        };
        (code, self.to_string())
    }
}

/// Everything a frame exchange can fail with: the transport broke, or the
/// bytes were structurally invalid.
#[derive(Debug)]
pub enum NetError {
    /// Transport-level failure (includes injected `net.read`/`net.write`
    /// faults, which surface as ordinary I/O errors).
    Io(std::io::Error),
    /// Structurally invalid frame.
    Protocol(ProtocolError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "{e}"),
            NetError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// The frame's opcode.
    pub opcode: Opcode,
    /// Payload bytes following the header.
    pub payload_len: u32,
    /// Correlation id, echoed verbatim by responses.
    pub request_id: u32,
}

/// Encodes a header into its 16 wire bytes.
pub fn encode_header(opcode: Opcode, payload_len: u32, request_id: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4] = VERSION;
    h[5] = opcode as u8;
    // h[6..8] flags: reserved, zero.
    h[8..12].copy_from_slice(&payload_len.to_le_bytes());
    h[12..16].copy_from_slice(&request_id.to_le_bytes());
    h
}

/// Decodes and validates 16 header bytes. `max_payload` bounds
/// `payload_len` **before** the caller allocates a buffer for it.
pub fn decode_header(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<Header, ProtocolError> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if bytes[4] != VERSION {
        return Err(ProtocolError::BadVersion(bytes[4]));
    }
    let opcode = Opcode::from_repr(bytes[5]).ok_or(ProtocolError::UnknownOpcode(bytes[5]))?;
    if bytes[6] != 0 || bytes[7] != 0 {
        return Err(ProtocolError::Malformed("reserved flags must be zero"));
    }
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if payload_len > max_payload {
        return Err(ProtocolError::Oversized { len: payload_len, max: max_payload });
    }
    let request_id = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    Ok(Header { opcode, payload_len, request_id })
}

/// Writes one frame as **one gathered write**: header and payload leave in
/// a single `write_vectored` call, so a `TCP_NODELAY` socket sends one
/// segment and wakes the reader once where two `write_all`s sent two. A
/// short write resumes where it stopped, `Interrupted` retries. Traverses
/// the `net.write` failpoint once per frame; an injected fault surfaces as
/// an ordinary I/O error.
pub fn write_frame(
    w: &mut impl Write,
    opcode: Opcode,
    request_id: u32,
    payload: &[u8],
) -> std::io::Result<()> {
    fault::check(Site::NetWrite).map_err(std::io::Error::other)?;
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "payload exceeds the u32 length field",
        )
    })?;
    let header = encode_header(opcode, len, request_id);
    let mut sent = 0usize;
    while sent < HEADER_LEN + payload.len() {
        let wrote = if sent < HEADER_LEN {
            w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - HEADER_LEN..])
        };
        match wrote {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean close — EOF at a frame
/// boundary. EOF *inside* a frame is a typed
/// [`ProtocolError::Truncated`]; any other read failure is
/// [`NetError::Io`]. Traverses the `net.read` failpoint once per frame.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: u32,
) -> Result<Option<(Header, Vec<u8>)>, NetError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max_payload, &mut payload)?.map(|h| (h, payload)))
}

/// [`read_frame`] into a buffer the caller keeps: `payload` is resized to
/// the frame's length, so a connection reading frames of one size neither
/// allocates nor zero-fills after the first. On `Ok(None)` and on error
/// its contents are unspecified.
pub fn read_frame_into(
    r: &mut impl Read,
    max_payload: u32,
    payload: &mut Vec<u8>,
) -> Result<Option<Header>, NetError> {
    fault::check(Site::NetRead).map_err(std::io::Error::other)?;
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        HEADER_LEN => {}
        _ => return Err(ProtocolError::Truncated.into()),
    }
    let header = decode_header(&header, max_payload)?;
    payload.resize(header.payload_len as usize, 0);
    if read_full(r, payload)? < payload.len() {
        return Err(ProtocolError::Truncated.into());
    }
    Ok(Some(header))
}

/// Reads until `buf` is full or the peer closes, and returns how many bytes
/// arrived. A dribbling peer (one byte per write) is fine — the loop keeps
/// reading; `Interrupted` retries.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

// ---- payload codecs ------------------------------------------------------

/// Query tags on the wire (u32, little-endian).
const TAG_CONNECTED: u32 = 0;
const TAG_COMPONENT_OF: u32 = 1;
const TAG_COMPONENT_SIZE: u32 = 2;
const TAG_TOP_K_SIZE: u32 = 3;

/// Encodes a query batch: [`QUERY_WIRE_LEN`] bytes per query — tag u32,
/// operand `a` u32, operand `b` u32 (zero where unused).
pub fn encode_queries(queries: &[Query]) -> Vec<u8> {
    // Sized once, then every byte overwritten record by record.
    let mut out = vec![0; queries.len() * QUERY_WIRE_LEN];
    for (rec, &q) in out.chunks_exact_mut(QUERY_WIRE_LEN).zip(queries) {
        let (tag, a, b) = match q {
            Query::Connected(u, v) => (TAG_CONNECTED, u, v),
            Query::ComponentOf(v) => (TAG_COMPONENT_OF, v, 0),
            Query::ComponentSize(v) => (TAG_COMPONENT_SIZE, v, 0),
            Query::TopKSize(k) => (TAG_TOP_K_SIZE, k, 0),
        };
        rec[0..4].copy_from_slice(&tag.to_le_bytes());
        rec[4..8].copy_from_slice(&a.to_le_bytes());
        rec[8..12].copy_from_slice(&b.to_le_bytes());
    }
    out
}

/// Decodes a query batch payload; refuses ragged lengths and unknown tags.
pub fn decode_queries(payload: &[u8]) -> Result<Vec<Query>, ProtocolError> {
    check_queries(payload)?;
    let decode = |rec| decode_query(rec).expect("check_queries refused every unknown tag");
    Ok(payload.chunks_exact(QUERY_WIRE_LEN).map(decode).collect())
}

/// The validation sweep of a query batch payload: refuses a ragged length
/// and any unknown tag with the errors [`decode_queries`] gives, touching
/// nothing else. Returns the number of records, every one of which
/// [`decode_query`] then decodes.
pub(crate) fn check_queries(payload: &[u8]) -> Result<usize, ProtocolError> {
    if !payload.len().is_multiple_of(QUERY_WIRE_LEN) {
        return Err(ProtocolError::Malformed("query batch length not a multiple of 12"));
    }
    if payload.chunks_exact(QUERY_WIRE_LEN).any(|rec| decode_query(rec).is_none()) {
        return Err(ProtocolError::Malformed("unknown query tag"));
    }
    Ok(payload.len() / QUERY_WIRE_LEN)
}

/// One [`QUERY_WIRE_LEN`]-byte record as its query, `None` for an unknown
/// tag: the one wire tag → variant table on the decode side
/// ([`encode_queries`] holds the inverse).
#[inline(always)]
pub(crate) fn decode_query(rec: &[u8]) -> Option<Query> {
    let (a, b) = (read_u32(rec, 4), read_u32(rec, 8));
    Some(match read_u32(rec, 0) {
        TAG_CONNECTED => Query::Connected(a, b),
        TAG_COMPONENT_OF => Query::ComponentOf(a),
        TAG_COMPONENT_SIZE => Query::ComponentSize(a),
        TAG_TOP_K_SIZE => Query::TopKSize(a),
        _ => return None,
    })
}

#[inline(always)]
fn read_u32(rec: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(rec[at..at + 4].try_into().unwrap())
}

/// Encodes an answer array: one u64 per query, request order.
pub fn encode_answers(answers: &[u64]) -> Vec<u8> {
    let mut out = vec![0; answers.len() * ANSWER_WIRE_LEN];
    for (rec, &a) in out.chunks_exact_mut(ANSWER_WIRE_LEN).zip(answers) {
        rec.copy_from_slice(&a.to_le_bytes());
    }
    out
}

/// Decodes an answer array payload.
pub fn decode_answers(payload: &[u8]) -> Result<Vec<u64>, ProtocolError> {
    if !payload.len().is_multiple_of(8) {
        return Err(ProtocolError::Malformed("answer array length not a multiple of 8"));
    }
    Ok(payload.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Encodes an edge-insert batch: pairs of u32 endpoints.
pub fn encode_edges(edges: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(edges.len() * 8);
    for &(u, v) in edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes an edge-insert payload.
pub fn decode_edges(payload: &[u8]) -> Result<Vec<(u32, u32)>, ProtocolError> {
    if !payload.len().is_multiple_of(8) {
        return Err(ProtocolError::Malformed("edge batch length not a multiple of 8"));
    }
    Ok(payload
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect())
}

/// Wire-visible service health: the [`Opcode::RespHealth`] payload
/// (32 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireHealth {
    /// A [`HealthState`] discriminant.
    pub state: u8,
    /// Consecutive write-path failures.
    pub consecutive_failures: u32,
    /// Total incidents ever recorded.
    pub total_incidents: u64,
    /// Epoch the server's current snapshot serves.
    pub epoch: u64,
    /// Connected components in that epoch.
    pub components: u64,
}

impl WireHealth {
    /// The state's [`HealthState`] name; `"unknown"` for a byte no state has.
    pub fn state_name(&self) -> &'static str {
        HealthState::from_repr(self.state).map_or("unknown", HealthState::name)
    }

    /// Encodes the 32-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(self.state);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.consecutive_failures.to_le_bytes());
        out.extend_from_slice(&self.total_incidents.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.components.to_le_bytes());
        out
    }

    /// Decodes the 32-byte payload.
    pub fn decode(payload: &[u8]) -> Result<WireHealth, ProtocolError> {
        if payload.len() != 32 {
            return Err(ProtocolError::Malformed("health payload must be 32 bytes"));
        }
        Ok(WireHealth {
            state: payload[0],
            consecutive_failures: u32::from_le_bytes(payload[4..8].try_into().unwrap()),
            total_incidents: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            epoch: u64::from_le_bytes(payload[16..24].try_into().unwrap()),
            components: u64::from_le_bytes(payload[24..32].try_into().unwrap()),
        })
    }
}

/// Wire-visible insert result: the [`Opcode::RespInsert`] payload
/// (24 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireInsertReport {
    /// Journal-epoch the batch published as.
    pub epoch: u64,
    /// Edges accepted.
    pub applied: u64,
    /// Connected components after the batch.
    pub components: u64,
}

impl WireInsertReport {
    /// Encodes the 24-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.applied.to_le_bytes());
        out.extend_from_slice(&self.components.to_le_bytes());
        out
    }

    /// Decodes the 24-byte payload.
    pub fn decode(payload: &[u8]) -> Result<WireInsertReport, ProtocolError> {
        if payload.len() != 24 {
            return Err(ProtocolError::Malformed("insert payload must be 24 bytes"));
        }
        Ok(WireInsertReport {
            epoch: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
            applied: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            components: u64::from_le_bytes(payload[16..24].try_into().unwrap()),
        })
    }
}

/// Encodes a [`Opcode::RespError`] payload: code u16, reserved u16, UTF-8
/// message.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + message.len());
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes a [`Opcode::RespError`] payload.
pub fn decode_error(payload: &[u8]) -> Result<(ErrorCode, String), ProtocolError> {
    if payload.len() < 4 {
        return Err(ProtocolError::Malformed("error payload shorter than 4 bytes"));
    }
    let raw = u16::from_le_bytes(payload[0..2].try_into().unwrap());
    let code =
        ErrorCode::from_repr(raw).ok_or(ProtocolError::Malformed("unknown wire error code"))?;
    let message = std::str::from_utf8(&payload[4..])
        .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?
        .to_string();
    Ok((code, message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_size() {
        let bytes = encode_header(Opcode::QueryBatch, 1234, 77);
        assert_eq!(bytes.len(), HEADER_LEN);
        let h = decode_header(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid header");
        assert_eq!(h, Header { opcode: Opcode::QueryBatch, payload_len: 1234, request_id: 77 });
    }

    #[test]
    fn header_rejections_are_typed() {
        let good = encode_header(Opcode::Health, 0, 1);

        let mut bad = good;
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_header(&bad, DEFAULT_MAX_PAYLOAD),
            Err(ProtocolError::BadMagic(_))
        ));

        let mut bad = good;
        bad[4] = 99;
        assert_eq!(decode_header(&bad, DEFAULT_MAX_PAYLOAD), Err(ProtocolError::BadVersion(99)));

        let mut bad = good;
        bad[5] = 0x7C;
        assert_eq!(
            decode_header(&bad, DEFAULT_MAX_PAYLOAD),
            Err(ProtocolError::UnknownOpcode(0x7C))
        );

        let mut bad = good;
        bad[6] = 1;
        assert!(matches!(
            decode_header(&bad, DEFAULT_MAX_PAYLOAD),
            Err(ProtocolError::Malformed(_))
        ));

        let oversized = encode_header(Opcode::Health, 4096, 1);
        assert_eq!(
            decode_header(&oversized, 1024),
            Err(ProtocolError::Oversized { len: 4096, max: 1024 })
        );
    }

    #[test]
    fn query_batch_roundtrip() {
        let queries = vec![
            Query::Connected(3, 9),
            Query::ComponentOf(7),
            Query::ComponentSize(0),
            Query::TopKSize(4),
        ];
        let bytes = encode_queries(&queries);
        assert_eq!(bytes.len(), queries.len() * QUERY_WIRE_LEN);
        assert_eq!(decode_queries(&bytes).expect("roundtrip"), queries);
        assert!(encode_queries(&[]).is_empty());
        assert_eq!(decode_queries(&[]).expect("empty batch"), []);

        assert!(decode_queries(&bytes[..5]).is_err(), "ragged length must be refused");
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 0x44;
        assert!(decode_queries(&bad_tag).is_err(), "unknown tag must be refused");
    }

    #[test]
    fn answer_edge_health_insert_error_roundtrips() {
        let answers = vec![0u64, 1, u64::MAX, 42];
        assert_eq!(decode_answers(&encode_answers(&answers)).expect("answers"), answers);
        assert!(decode_answers(&[0u8; 7]).is_err());

        let edges = vec![(0u32, 1u32), (7, 7), (u32::MAX, 0)];
        assert_eq!(decode_edges(&encode_edges(&edges)).expect("edges"), edges);
        assert!(decode_edges(&[0u8; 9]).is_err());

        let health = WireHealth {
            state: 1,
            consecutive_failures: 2,
            total_incidents: 3,
            epoch: 4,
            components: 5,
        };
        assert_eq!(WireHealth::decode(&health.encode()).expect("health"), health);
        assert_eq!(health.state_name(), "degraded");
        assert!(WireHealth::decode(&[0u8; 31]).is_err());

        let report = WireInsertReport { epoch: 9, applied: 64, components: 1000 };
        assert_eq!(WireInsertReport::decode(&report.encode()).expect("insert"), report);

        let (code, msg) =
            decode_error(&encode_error(ErrorCode::Overloaded, "queue full")).expect("error");
        assert_eq!((code, msg.as_str()), (ErrorCode::Overloaded, "queue full"));
        assert!(decode_error(&[1]).is_err());
        assert!(decode_error(&[0xFF, 0xFF, 0, 0]).is_err(), "unknown code must be refused");
    }

    #[test]
    fn frame_io_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Opcode::QueryBatch, 5, b"payload").expect("write");
        let mut cursor = &wire[..];
        let (h, payload) =
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("read").expect("frame");
        assert_eq!(h.opcode, Opcode::QueryBatch);
        assert_eq!(h.request_id, 5);
        assert_eq!(payload, b"payload");
        // The stream is exhausted at a frame boundary: clean close.
        assert!(read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("eof").is_none());
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Opcode::Health, 1, b"12345678").expect("write");
        // Chop the payload short.
        let mut cursor = &wire[..HEADER_LEN + 3];
        match read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD) {
            Err(NetError::Protocol(ProtocolError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Chop the header short.
        let mut cursor = &wire[..7];
        match read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD) {
            Err(NetError::Protocol(ProtocolError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_into_reuses_the_payload_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Opcode::QueryBatch, 1, &[7u8; 96]).expect("write");
        write_frame(&mut wire, Opcode::QueryBatch, 2, &[9u8; 96]).expect("write");
        write_frame(&mut wire, Opcode::Health, 3, &[]).expect("write");
        let mut cursor = &wire[..];
        let mut payload = Vec::new();
        let mut next = |payload: &mut Vec<u8>| {
            read_frame_into(&mut cursor, DEFAULT_MAX_PAYLOAD, payload)
                .expect("read")
                .expect("frame")
        };
        assert_eq!(next(&mut payload).request_id, 1);
        assert_eq!(payload, [7u8; 96]);
        let first = (payload.as_ptr(), payload.capacity());
        assert_eq!(next(&mut payload).request_id, 2);
        assert_eq!(payload, [9u8; 96]);
        assert_eq!(first, (payload.as_ptr(), payload.capacity()), "same size, same allocation");
        assert_eq!(next(&mut payload).opcode, Opcode::Health);
        assert!(payload.is_empty(), "the buffer holds this frame's payload only");
        assert_eq!(first.1, payload.capacity(), "a shorter frame keeps the capacity");
    }
}
