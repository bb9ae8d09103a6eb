//! At-least-once anomaly delivery: sinks, disk buffering, retry and
//! circuit breaking.
//!
//! MoniLog's output is not a local JSONL file — the paper frames detection
//! as feeding an alerting loop where administrators are notified of
//! critical anomalies. This module is that pipeline edge, built around one
//! invariant: **an accepted report is never dropped and the ingest hot
//! path is never blocked by a slow sink**.
//!
//! The moving parts:
//!
//! - [`Sink`] — the delivery contract: a healthcheck plus a batched
//!   `deliver` returning *typed* errors ([`SinkError::Retryable`] vs
//!   [`SinkError::Fatal`]), mirroring Vector's `delivery: "at_least_once"`
//!   sink semantics. Implementations: [`WebhookSink`] (HTTP POST of
//!   ndjson), [`FramedTcpSink`] (length+CRC framed, per-report acks) and
//!   [`FileSink`] (local JSONL, cannot fail transiently).
//! - [`DeliveryBuffer`] — a CRC-framed on-disk buffer reusing the WAL
//!   framing from [`crate::durable::journal`]. `accept` appends + fsyncs
//!   *before* acking, so the point of acceptance is the point of
//!   durability; a read cursor tracks what each sink has acknowledged.
//! - [`CircuitBreaker`] — per-sink closed → open → half-open state
//!   machine; a sink that keeps failing is quarantined and re-admitted
//!   via probe healthchecks instead of hammering it with full batches.
//! - [`DeliveryPipeline`] — routes reports to sinks by
//!   [`DeliveryClass`] (page → webhook, ticket → TCP, log → file), drains
//!   buffers with capped exponential backoff + deterministic jitter, and
//!   degrades to a rotating local spill file when a breaker stays open
//!   past its grace deadline — degraded, but nothing is dropped.
//!
//! ## Exactly-once, end to end
//!
//! Delivery here is at-least-once: a crash between a sink acknowledging a
//! batch and the cursor advance being checkpointed re-sends that batch.
//! Exactly-once emerges at the receiver: every report carries its dense
//! report id, and PR 5's emitted-id dedup means ids are stable across
//! crash/replay, so the receiver keeps a seen-id set and duplicates are
//! detectable (and in our harness, counted). Lost is impossible, duplicate
//! is idempotent — the same argument Vector's at-least-once contract makes.

pub mod breaker;
pub mod buffer;
pub mod file;
pub mod http;
pub mod pipeline;
pub mod tcp;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use buffer::{BufferPosition, BufferedReport, DeliveryBuffer};
pub use file::FileSink;
pub use http::WebhookSink;
pub use pipeline::{
    decode_positions, encode_positions, AcceptedReport, DeliveryConfig, DeliveryPipeline,
    DeliveryWorker, PumpReport, RouteSpec,
};
pub use tcp::FramedTcpSink;

use std::fmt;
use std::io::{Read, Write};

use monilog_model::{put_frame, split_frame, MAX_FRAME_BYTES};

/// Why a delivery attempt failed, typed so the pipeline can tell a flaky
/// endpoint (retry with backoff, maybe open the breaker) from a hopeless
/// request (divert to the spill file and move on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// Transient: connection refused/reset, timeout, HTTP 408/429/5xx.
    /// The batch stays in the delivery buffer and is retried.
    Retryable(String),
    /// Permanent for this batch: the sink understood the request and
    /// rejected it (e.g. HTTP 4xx other than 408/429). Retrying the same
    /// bytes cannot succeed; the batch is spilled locally instead.
    Fatal(String),
}

impl SinkError {
    pub fn is_retryable(&self) -> bool {
        matches!(self, SinkError::Retryable(_))
    }
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Retryable(m) => write!(f, "retryable sink error: {m}"),
            SinkError::Fatal(m) => write!(f, "fatal sink error: {m}"),
        }
    }
}

impl From<std::io::Error> for SinkError {
    /// I/O failures are transient by definition — the bytes never reached
    /// a sink that could judge them.
    fn from(e: std::io::Error) -> Self {
        SinkError::Retryable(e.to_string())
    }
}

/// A delivery target. Implementations are driven by one pipeline thread at
/// a time, so `&mut self` is fine; they own their connections and may
/// reconnect lazily inside `deliver`.
pub trait Sink: Send {
    /// Stable name for metrics and logs (e.g. `"webhook"`, `"tcp"`).
    fn kind(&self) -> &'static str;

    /// Cheap liveness probe used by the half-open circuit breaker: must
    /// not send reports, must exercise the same path a delivery would
    /// (the shared convention is `GET /healthz` for HTTP sinks, a ping
    /// frame for framed-TCP ones).
    fn healthcheck(&mut self) -> Result<(), SinkError>;

    /// Deliver a batch. `Ok` means every report in the batch is durably
    /// with the receiver; a partial success must be reported as an error
    /// (the whole batch is retried — receivers dedup by report id).
    fn deliver(&mut self, batch: &[BufferedReport]) -> Result<(), SinkError>;
}

// ---------------------------------------------------------------------------
// The framed-TCP wire protocol, shared by `FramedTcpSink` and the chaos
// harness's in-process receiver (`crate::chaos::FlakySinkServer`).
//
//   frame   = [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//   payload = [report_id: u64 LE][class tag: u8][report JSON bytes]
//   ping    = empty payload (len = 0)
//
// The receiver acknowledges every data frame with the 8-byte LE report id
// once it has recorded the report, and every ping with `PING_ACK`. The
// sender treats a missing/mismatched ack as a retryable failure — TCP
// write success alone proves nothing about receiver-side delivery.
// ---------------------------------------------------------------------------

/// Ack value for a ping (empty) frame.
pub const PING_ACK: u64 = u64::MAX;

/// Write one frame (length, CRC, payload) in a single write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::new();
    put_frame(&mut frame, payload);
    w.write_all(&frame)
}

/// Read one frame; `Ok(None)` on clean EOF before the length word. A
/// corrupt length or CRC is an error (the connection is poisoned).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut frame = vec![0u8; 8];
    match r.read_exact(&mut frame) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(frame[..4].try_into().expect("sized")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::other(format!("frame too large: {len}")));
    }
    frame.resize(8 + len, 0);
    r.read_exact(&mut frame[8..])?;
    split_frame(&frame, MAX_FRAME_BYTES).map_err(std::io::Error::other)?;
    frame.drain(..8);
    Ok(Some(frame))
}

/// Encode a data-frame payload (`report_id`, class tag, body bytes).
pub fn encode_report_payload(report: &BufferedReport) -> Vec<u8> {
    let body = report.body.as_bytes();
    let mut payload = Vec::with_capacity(9 + body.len());
    payload.extend_from_slice(&report.id.to_le_bytes());
    payload.push(report.class.tag());
    payload.extend_from_slice(body);
    payload
}

/// Decode a data-frame payload back into a report. Returns `None` for a
/// ping (empty payload) or a malformed payload.
pub fn decode_report_payload(payload: &[u8]) -> Option<BufferedReport> {
    if payload.len() < 9 {
        return None;
    }
    let id = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let class = monilog_model::DeliveryClass::from_tag(payload[8]);
    let body = String::from_utf8_lossy(&payload[9..]).into_owned();
    Some(BufferedReport { id, class, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::DeliveryClass;

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let reports = [
            BufferedReport {
                id: 1,
                class: DeliveryClass::Page,
                body: "{\"id\":1}".into(),
            },
            BufferedReport {
                id: 99,
                class: DeliveryClass::Log,
                body: "{\"id\":99,\"x\":\"héllo\"}".into(),
            },
        ];
        let mut wire = Vec::new();
        for r in &reports {
            write_frame(&mut wire, &encode_report_payload(r)).unwrap();
        }
        write_frame(&mut wire, &[]).unwrap(); // ping
        let mut cursor = &wire[..];
        for r in &reports {
            let payload = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(decode_report_payload(&payload).unwrap(), *r);
        }
        let ping = read_frame(&mut cursor).unwrap().unwrap();
        assert!(ping.is_empty());
        assert!(decode_report_payload(&ping).is_none());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corrupt_frames_error_instead_of_panicking() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &encode_report_payload(&BufferedReport {
                id: 7,
                class: DeliveryClass::Ticket,
                body: "{}".into(),
            }),
        )
        .unwrap();
        // Flip a payload bit: CRC mismatch.
        let mut flipped = wire.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(read_frame(&mut &flipped[..]).is_err());
        // Absurd length word: rejected before allocation.
        let mut huge = (u32::MAX).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 8]);
        assert!(read_frame(&mut &huge[..]).is_err());
        // Truncated mid-payload: error (a poisoned connection, not EOF).
        let torn = &wire[..wire.len() - 1];
        assert!(read_frame(&mut &torn[..]).is_err());
    }

    #[test]
    fn sink_error_displays_and_classifies() {
        let r = SinkError::Retryable("connection refused".into());
        let f = SinkError::Fatal("400 bad request".into());
        assert!(r.is_retryable());
        assert!(!f.is_retryable());
        assert!(r.to_string().contains("retryable"));
        assert!(f.to_string().contains("fatal"));
        let io: SinkError = std::io::Error::other("boom").into();
        assert!(io.is_retryable());
    }
}
