//! The `cfa-serve` wire protocol: length-prefixed binary frames.
//!
//! Every frame — request, response, or pushed event — is a 4-byte
//! little-endian payload length followed by that many payload bytes. A
//! request payload is one opcode byte plus an opcode-specific body; a
//! response payload is one status byte plus a status-specific body:
//!
//! ```text
//! request  := [u32 len] [u8 op] body
//!   SCORE (1):     [u32 n_rows] [u32 n_cols] n_rows × n_cols × [f64]
//!   PING (2):      (empty)
//!   SHUTDOWN (3):  (empty)
//!   LOAD (4):      [u8 name_len] name  CFAM artifact bytes
//!   UNLOAD (5):    [u8 name_len] name
//!   LIST (6):      (empty)
//!   SUBSCRIBE (7): [u8 name_len] name
//!   SCORE_AS (8):  [u8 name_len] name [u32 n_rows] [u32 n_cols] rows
//!
//! response := [u32 len] [u8 status] body
//!   OK (0) to SCORE / SCORE_AS: [u32 n_rows] n_rows × ([f64 score] [u8 alarm])
//!   OK (0) to PING:             64-byte stats frame (see [`StatsFrame`])
//!   OK (0) to LIST:             [u32 count] count × ([u8 name_len] name
//!                               [u32 n_features] [u64 generation])
//!   OK (0) to LOAD / UNLOAD / SUBSCRIBE / SHUTDOWN: (empty)
//!   BUSY (1), MALFORMED (2), TOO_LARGE (3), BAD_WIDTH (4),
//!   SHUTTING_DOWN (5), NO_MODEL (6), BAD_NAME (7): (empty)
//!
//! pushed event (only on a connection that sent SUBSCRIBE):
//!   [u32 len] [u8 EVT_ALARM] [u64 seq] [f64 score] [u32 row]
//!             [u8 name_len] name
//! ```
//!
//! `SCORE` scores the model named [`DEFAULT_MODEL`]; `SCORE_AS` names any
//! registered model. Alarm events carry a per-model sequence number that
//! increases by one per alarm, so a subscriber can assert in-order,
//! gap-free delivery. Scores are IEEE-754 bit patterns, so a served score
//! is bit-identical to the in-process `score_snapshot_with` result for
//! the same row. All multi-byte integers are little-endian. Frames above
//! [`MAX_FRAME_BYTES`] are rejected without being read.

/// Largest frame either side will accept (8 MiB — roughly 7 000 batched
/// 140-feature rows per request, and comfortably above a trained `CFAM`
/// artifact for `LOAD`).
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// The registry name the boot artifact is stored under, and the model
/// the nameless `SCORE` opcode resolves to.
pub const DEFAULT_MODEL: &str = "default";

/// Longest accepted registry name, in bytes.
pub const MAX_NAME_BYTES: usize = 64;

/// Request opcode: score a batch of continuous snapshot rows against
/// [`DEFAULT_MODEL`].
pub const OP_SCORE: u8 = 1;
/// Request opcode: liveness check; answered with a [`StatsFrame`].
pub const OP_PING: u8 = 2;
/// Request opcode: ask the server to shut down gracefully.
pub const OP_SHUTDOWN: u8 = 3;
/// Request opcode: register (or atomically hot-swap) a named model from
/// CFAM artifact bytes carried in the frame.
pub const OP_LOAD: u8 = 4;
/// Request opcode: drop a named model from the registry.
pub const OP_UNLOAD: u8 = 5;
/// Request opcode: list registered models.
pub const OP_LIST: u8 = 6;
/// Request opcode: subscribe this connection to a model's alarm stream.
pub const OP_SUBSCRIBE: u8 = 7;
/// Request opcode: score a batch against a named model.
pub const OP_SCORE_AS: u8 = 8;

/// Response status: request served, body follows.
pub const STATUS_OK: u8 = 0;
/// Response status: the server is saturated — back off. Sent either when
/// the connection table is full (the frame is the only thing the
/// connection ever receives) or per-request when the scoring queue is
/// full (the connection survives).
pub const STATUS_BUSY: u8 = 1;
/// Response status: the frame did not parse.
pub const STATUS_MALFORMED: u8 = 2;
/// Response status: the declared frame length exceeds [`MAX_FRAME_BYTES`].
pub const STATUS_TOO_LARGE: u8 = 3;
/// Response status: row width differs from the model's feature count.
pub const STATUS_BAD_WIDTH: u8 = 4;
/// Response status: the server is draining and accepts no new work.
pub const STATUS_SHUTTING_DOWN: u8 = 5;
/// Response status: the named model is not in the registry.
pub const STATUS_NO_MODEL: u8 = 6;
/// Response status: the model name fails validation (see [`valid_name`]).
pub const STATUS_BAD_NAME: u8 = 7;

/// Pushed-frame marker: an alarm event on a subscribed connection. Kept
/// outside the response-status range so a client can always tell a push
/// from a reply.
pub const EVT_ALARM: u8 = 16;

/// A frame length that has passed the [`MAX_FRAME_BYTES`] cap — the one
/// validated doorway between a raw 4-byte length prefix and anything
/// that allocates. Both ends of the wire parse their prefix through
/// here, so the cap check lives in exactly one place, and cfa-audit's
/// D012 taint rule recognises `FrameLen::…` as a sanitizer: a length
/// that came through [`FrameLen::parse`] is bounded by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLen(usize);

impl FrameLen {
    /// Validates a little-endian length prefix against the frame cap.
    /// `Err` carries the raw declared length for diagnostics.
    pub fn parse(len4: [u8; 4]) -> Result<FrameLen, u32> {
        let raw = u32::from_le_bytes(len4);
        if raw as usize > MAX_FRAME_BYTES {
            Err(raw)
        } else {
            Ok(FrameLen(raw as usize))
        }
    }

    /// The validated length, at most [`MAX_FRAME_BYTES`].
    pub fn get(self) -> usize {
        self.0
    }
}

/// Whether `name` is a legal registry name: 1–[`MAX_NAME_BYTES`] bytes of
/// ASCII alphanumerics, `_`, `-`, or `.` — printable, shell-safe, and
/// unambiguous in log lines and LIST frames.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_BYTES
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// Appends `[u8 name_len] name` to `buf`.
///
/// # Panics
///
/// Panics if the name fails [`valid_name`] — encoding an invalid name is
/// a caller bug, and both CLI and client validate first.
pub fn put_name(buf: &mut Vec<u8>, name: &str) {
    assert!(valid_name(name), "invalid registry name {name:?}");
    buf.push(name.len() as u8);
    buf.extend_from_slice(name.as_bytes());
}

/// Parses a `[u8 name_len] name` prefix off `body`, returning the name
/// and the remaining bytes. `None` when the prefix is truncated or the
/// name fails [`valid_name`] — panic-free on arbitrary network bytes.
pub fn parse_name(body: &[u8]) -> Option<(&str, &[u8])> {
    let (&len, rest) = body.split_first()?;
    let len = len as usize;
    let raw = rest.get(..len)?;
    let name = std::str::from_utf8(raw).ok()?;
    if !valid_name(name) {
        return None;
    }
    Some((name, rest.get(len..).unwrap_or(&[])))
}

/// The server counters answered to every `PING`, so operators and the
/// bench can observe backpressure (BUSY rejections, queue depth) instead
/// of inferring it from process-local logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsFrame {
    /// Connections accepted into the reactor's table.
    pub accepted: u64,
    /// BUSY answers sent — connection-table overflow and scoring-queue
    /// overflow combined.
    pub rejected_busy: u64,
    /// Requests answered `OK`.
    pub requests_ok: u64,
    /// Requests answered with a protocol error status.
    pub protocol_errors: u64,
    /// Alarm event frames pushed to subscribers.
    pub alarms_pushed: u64,
    /// Subscriber connections dropped for not draining their queue.
    pub slow_disconnects: u64,
    /// Scoring jobs waiting for a worker right now.
    pub queue_depth: u32,
    /// Models currently registered.
    pub models: u32,
    /// Live alarm subscriptions right now.
    pub subscribers: u32,
    /// Open connections right now.
    pub open_conns: u32,
}

/// Encoded byte size of a [`StatsFrame`] body.
pub const STATS_FRAME_BYTES: usize = 6 * 8 + 4 * 4;

impl StatsFrame {
    /// Appends the 64-byte encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        for v in [
            self.accepted,
            self.rejected_busy,
            self.requests_ok,
            self.protocol_errors,
            self.alarms_pushed,
            self.slow_disconnects,
        ] {
            put_u64(buf, v);
        }
        for v in [
            self.queue_depth,
            self.models,
            self.subscribers,
            self.open_conns,
        ] {
            put_u32(buf, v);
        }
    }

    /// Decodes a stats body; `None` unless it is exactly
    /// [`STATS_FRAME_BYTES`] long.
    pub fn decode(body: &[u8]) -> Option<StatsFrame> {
        if body.len() != STATS_FRAME_BYTES {
            return None;
        }
        let u64_at = |i: usize| u64_le(body.get(i * 8..)?);
        let u32_at = |i: usize| u32_le(body.get(48 + i * 4..)?);
        Some(StatsFrame {
            accepted: u64_at(0)?,
            rejected_busy: u64_at(1)?,
            requests_ok: u64_at(2)?,
            protocol_errors: u64_at(3)?,
            alarms_pushed: u64_at(4)?,
            slow_disconnects: u64_at(5)?,
            queue_depth: u32_at(0)?,
            models: u32_at(1)?,
            subscribers: u32_at(2)?,
            open_conns: u32_at(3)?,
        })
    }
}

/// One alarm pushed to a subscriber: row `row` of some scored batch
/// against model `model` fell below the threshold with `score`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmEvent {
    /// The model whose alarm stream this event belongs to.
    pub model: String,
    /// Per-model sequence number; increases by one per alarm, so gaps or
    /// reordering are detectable by every subscriber independently.
    pub seq: u64,
    /// Row index within the originating SCORE batch.
    pub row: u32,
    /// The score that fell below the model's threshold.
    pub score: f64,
}

/// Appends an alarm event payload (`EVT_ALARM` byte first) to `buf`.
pub fn put_alarm_event(buf: &mut Vec<u8>, model: &str, seq: u64, row: u32, score: f64) {
    buf.push(EVT_ALARM);
    put_u64(buf, seq);
    put_f64(buf, score);
    put_u32(buf, row);
    put_name(buf, model);
}

/// Parses an alarm event payload (as returned by the wire, `EVT_ALARM`
/// byte included). `None` on anything malformed.
pub fn parse_alarm_event(payload: &[u8]) -> Option<AlarmEvent> {
    let (&evt, body) = payload.split_first()?;
    if evt != EVT_ALARM {
        return None;
    }
    let seq = u64_le(body)?;
    let score = f64_le(body.get(8..)?)?;
    let row = u32_le(body.get(16..)?)?;
    let (model, rest) = parse_name(body.get(20..)?)?;
    if !rest.is_empty() {
        return None;
    }
    Some(AlarmEvent {
        model: model.to_string(),
        seq,
        row,
        score,
    })
}

/// Reads a little-endian `u32` from the first four bytes of `b`, if
/// present. Panic-free by construction (the scoring path must stay clear
/// of cfa-audit D006).
pub fn u32_le(b: &[u8]) -> Option<u32> {
    let mut it = b.iter();
    let b0 = *it.next()?;
    let b1 = *it.next()?;
    let b2 = *it.next()?;
    let b3 = *it.next()?;
    Some(u32::from_le_bytes([b0, b1, b2, b3]))
}

/// Reads a little-endian `u64` from the first eight bytes of `b`, if
/// present. Panic-free by construction.
pub fn u64_le(b: &[u8]) -> Option<u64> {
    let mut it = b.iter();
    let mut v = [0u8; 8];
    for slot in v.iter_mut() {
        *slot = *it.next()?;
    }
    Some(u64::from_le_bytes(v))
}

/// Reads a little-endian `f64` bit pattern from the first eight bytes of
/// `b`, if present. Panic-free by construction.
pub fn f64_le(b: &[u8]) -> Option<f64> {
    u64_le(b).map(f64::from_bits)
}

/// Appends a little-endian `u32` to `buf`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to `buf`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64` bit pattern to `buf`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_codecs_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_f64(&mut buf, -0.125);
        put_u64(&mut buf, u64::MAX - 7);
        assert_eq!(u32_le(&buf), Some(0xDEAD_BEEF));
        assert_eq!(f64_le(buf.get(4..).unwrap_or(&[])), Some(-0.125));
        assert_eq!(u64_le(buf.get(12..).unwrap_or(&[])), Some(u64::MAX - 7));
    }

    #[test]
    fn short_buffers_return_none() {
        assert_eq!(u32_le(&[1, 2, 3]), None);
        assert_eq!(f64_le(&[0; 7]), None);
        assert_eq!(u64_le(&[0; 7]), None);
    }

    #[test]
    fn frame_len_accepts_up_to_the_cap() {
        let at_cap = (MAX_FRAME_BYTES as u32).to_le_bytes();
        assert_eq!(
            FrameLen::parse(at_cap).map(FrameLen::get),
            Ok(MAX_FRAME_BYTES)
        );
        assert_eq!(
            FrameLen::parse(0u32.to_le_bytes()).map(FrameLen::get),
            Ok(0)
        );
    }

    #[test]
    fn frame_len_rejects_over_cap_with_raw_value() {
        let over = MAX_FRAME_BYTES as u32 + 1;
        assert_eq!(FrameLen::parse(over.to_le_bytes()), Err(over));
        assert_eq!(FrameLen::parse(u32::MAX.to_le_bytes()), Err(u32::MAX));
    }

    #[test]
    fn names_round_trip_with_trailing_bytes() {
        let mut buf = Vec::new();
        put_name(&mut buf, "dsr-west.v2");
        buf.extend_from_slice(&[9, 9, 9]);
        let (name, rest) = parse_name(&buf).expect("parse");
        assert_eq!(name, "dsr-west.v2");
        assert_eq!(rest, &[9, 9, 9]);
    }

    #[test]
    fn invalid_names_are_rejected() {
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("sla/sh"));
        assert!(!valid_name(&"x".repeat(MAX_NAME_BYTES + 1)));
        assert!(valid_name(&"x".repeat(MAX_NAME_BYTES)));
        // Truncated length prefix and over-long declared length.
        assert_eq!(parse_name(&[]), None);
        assert_eq!(parse_name(&[5, b'a', b'b']), None);
        // Non-UTF-8 name bytes.
        assert_eq!(parse_name(&[2, 0xFF, 0xFE]), None);
    }

    #[test]
    fn stats_frame_round_trips() {
        let stats = StatsFrame {
            accepted: 1,
            rejected_busy: 2,
            requests_ok: 3,
            protocol_errors: 4,
            alarms_pushed: 5,
            slow_disconnects: 6,
            queue_depth: 7,
            models: 8,
            subscribers: 9,
            open_conns: 10,
        };
        let mut buf = Vec::new();
        stats.encode_into(&mut buf);
        assert_eq!(buf.len(), STATS_FRAME_BYTES);
        assert_eq!(StatsFrame::decode(&buf), Some(stats));
        assert_eq!(StatsFrame::decode(&buf[..buf.len() - 1]), None);
    }

    #[test]
    fn alarm_events_round_trip() {
        let mut buf = Vec::new();
        put_alarm_event(&mut buf, "aodv.east", 41, 7, 0.125);
        let evt = parse_alarm_event(&buf).expect("parse");
        assert_eq!(
            evt,
            AlarmEvent {
                model: "aodv.east".to_string(),
                seq: 41,
                row: 7,
                score: 0.125,
            }
        );
        // Truncation anywhere fails cleanly.
        for k in 0..buf.len() {
            assert_eq!(parse_alarm_event(&buf[..k]), None, "truncated at {k}");
        }
        // Trailing garbage fails cleanly.
        buf.push(0);
        assert_eq!(parse_alarm_event(&buf), None);
    }
}
