//! The cluster wire protocol: CRC-framed, versioned messages between the
//! router process and its monitor nodes.
//!
//! Every frame on the wire is
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = "MLCW" magic + u16 version + u8 kind + kind-specific body
//! ```
//!
//! — the same framing discipline as the durable journal and the delivery
//! buffers (PR 5/6), so a torn TCP segment or a bit flip in transit is
//! *detected* (connection dropped, batch replayed) instead of decoded into
//! garbage lines. The protocol is deliberately small: data plane
//! ([`Message::Batch`]/[`Message::Ack`]), liveness ([`Message::Heartbeat`]),
//! and a control channel for membership and template reconciliation
//! ([`Message::Hello`], [`Message::Welcome`], [`Message::Templates`],
//! [`Message::Reconcile`], [`Message::Revoke`], [`Message::Fin`]).
//!
//! Delivery semantics layered on top: frames are at-least-once (the router
//! replays unacked batches after a reconnect or failover), and the monitor
//! dedupes by the per-source `seq` carried in every batch entry against its
//! own write-ahead journal — at-least-once over the wire, exactly-once end
//! to end.

#[cfg(test)]
use monilog_model::codec::crc32;
use monilog_model::codec::{put_frame, split_frame, CodecError, Decoder, Encoder, FrameError};
use monilog_model::SourceId;
use std::fmt;

/// Magic prefixing every payload ("MoniLog Cluster Wire").
pub const CLUSTER_MAGIC: [u8; 4] = *b"MLCW";
/// Protocol version; a mismatch is a typed decode error, never a guess.
pub const CLUSTER_PROTO_VERSION: u16 = 1;
/// Hard cap on one frame's payload. A length field larger than this is
/// corruption (or a hostile peer), not a frame worth buffering for.
pub const MAX_WIRE_FRAME: usize = 8 * 1024 * 1024;

/// Wire-level failure. Any of these tears down the connection; the
/// at-least-once replay path re-sends whatever was in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Declared payload length exceeds [`MAX_WIRE_FRAME`].
    Oversized(usize),
    /// Payload checksum mismatch: torn or bit-flipped frame.
    Crc { expected: u32, found: u32 },
    /// Framing was intact but the payload did not decode.
    Codec(CodecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds cap"),
            WireError::Crc { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            WireError::Codec(e) => write!(f, "frame payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Oversized(len) => WireError::Oversized(len),
            FrameError::Crc { expected, found } => WireError::Crc { expected, found },
        }
    }
}

/// One log line inside a [`Message::Batch`]: which source it belongs to,
/// its position in that source's sequence space, and the raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    pub source: SourceId,
    pub seq: u64,
    pub line: Vec<u8>,
}

/// A cluster protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Monitor → router: first frame on every connection. `resume` is true
    /// when the monitor believes it has prior durable state for this node
    /// name (a rejoin after restart rather than a cold join).
    Hello { node: String, resume: bool },
    /// Router → monitor: accepts the join. Carries the liveness cadence the
    /// router expects, the sources currently assigned to this node (so a
    /// rejoining monitor can discard recovered state for revoked ones), and
    /// the fleet's merged template snapshot (`TemplateStore::encode`; empty
    /// when the fleet has none yet) — the warm handoff.
    Welcome {
        heartbeat_ms: u64,
        assigned: Vec<SourceId>,
        templates: Vec<u8>,
    },
    /// Router → monitor: a batch of lines for sources this node owns.
    /// `batch_id` is per-connection monotonic; the monitor acks it only
    /// after its own journal fsync covers every entry.
    Batch {
        batch_id: u64,
        entries: Vec<BatchEntry>,
    },
    /// Monitor → router: `batch_id` (and, per-source, every seq at or below
    /// the batch's maxima) is durable on this node.
    Ack { batch_id: u64 },
    /// Either direction: liveness. `depth` is the sender's ingest queue
    /// depth, a cheap load signal surfaced in `/status`.
    Heartbeat { depth: u32 },
    /// Monitor → router: the node's local template store
    /// (`TemplateStore::encode`) for periodic Logan-style reconciliation.
    Templates { snapshot: Vec<u8> },
    /// Router → monitor: the merged fleet template store. `epoch` increases
    /// every time the merge absorbs something new; monitors apply
    /// idempotently via `Drain::adopt`.
    Reconcile { epoch: u64, snapshot: Vec<u8> },
    /// Router → monitor: the source is no longer assigned to this node
    /// (reassigned after a failover). The monitor must stop emitting for it
    /// and discard any recovered open windows.
    Revoke { source: SourceId },
    /// Router → monitor: no more batches will follow. Once the monitor has
    /// drained and acked, it may finish.
    Fin,
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::Batch { .. } => 3,
            Message::Ack { .. } => 4,
            Message::Heartbeat { .. } => 5,
            Message::Templates { .. } => 6,
            Message::Reconcile { .. } => 7,
            Message::Revoke { .. } => 8,
            Message::Fin => 9,
        }
    }
}

/// Encode one message as a complete wire frame (length + CRC + payload).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut e = Encoder::with_header(CLUSTER_MAGIC, CLUSTER_PROTO_VERSION);
    e.put_u8(msg.kind());
    match msg {
        Message::Hello { node, resume } => {
            e.put_str(node);
            e.put_bool(*resume);
        }
        Message::Welcome {
            heartbeat_ms,
            assigned,
            templates,
        } => {
            e.put_u64(*heartbeat_ms);
            e.put_len(assigned.len());
            for s in assigned {
                e.put_u16(s.0);
            }
            e.put_bytes(templates);
        }
        Message::Batch { batch_id, entries } => {
            e.put_u64(*batch_id);
            e.put_len(entries.len());
            for entry in entries {
                e.put_u16(entry.source.0);
                e.put_u64(entry.seq);
                e.put_bytes(&entry.line);
            }
        }
        Message::Ack { batch_id } => e.put_u64(*batch_id),
        Message::Heartbeat { depth } => e.put_u32(*depth),
        Message::Templates { snapshot } => e.put_bytes(snapshot),
        Message::Reconcile { epoch, snapshot } => {
            e.put_u64(*epoch);
            e.put_bytes(snapshot);
        }
        Message::Revoke { source } => e.put_u16(source.0),
        Message::Fin => {}
    }
    let mut frame = Vec::new();
    put_frame(&mut frame, &e.finish());
    frame
}

/// Decode one payload (already CRC-verified and length-delimited).
fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut d = Decoder::new(payload);
    d.expect_header(CLUSTER_MAGIC, CLUSTER_PROTO_VERSION)?;
    let msg = match d.get_u8()? {
        1 => Message::Hello {
            node: d.get_str()?,
            resume: d.get_bool()?,
        },
        2 => {
            let heartbeat_ms = d.get_u64()?;
            let n = d.get_len()?;
            let mut assigned = Vec::with_capacity(n);
            for _ in 0..n {
                assigned.push(SourceId(d.get_u16()?));
            }
            Message::Welcome {
                heartbeat_ms,
                assigned,
                templates: d.get_bytes()?,
            }
        }
        3 => {
            let batch_id = d.get_u64()?;
            let n = d.get_len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(BatchEntry {
                    source: SourceId(d.get_u16()?),
                    seq: d.get_u64()?,
                    line: d.get_bytes()?,
                });
            }
            Message::Batch { batch_id, entries }
        }
        4 => Message::Ack {
            batch_id: d.get_u64()?,
        },
        5 => Message::Heartbeat {
            depth: d.get_u32()?,
        },
        6 => Message::Templates {
            snapshot: d.get_bytes()?,
        },
        7 => Message::Reconcile {
            epoch: d.get_u64()?,
            snapshot: d.get_bytes()?,
        },
        8 => Message::Revoke {
            source: SourceId(d.get_u16()?),
        },
        9 => Message::Fin,
        _ => return Err(CodecError::Corrupt("cluster message kind").into()),
    };
    if !d.is_exhausted() {
        return Err(CodecError::Corrupt("trailing bytes in cluster frame").into());
    }
    Ok(msg)
}

/// Incremental frame reader for a nonblocking socket: feed it whatever
/// `read(2)` returned, pull complete messages out. A partial frame stays
/// buffered (`Ok(None)`) until the rest arrives; a corrupt one is a typed
/// error and the connection should be dropped.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer freshly-received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next complete message, if one is fully buffered.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        let Some((payload, next)) = split_frame(&self.buf, MAX_WIRE_FRAME)? else {
            return Ok(None);
        };
        let msg = decode_payload(payload)?;
        self.buf.drain(..next);
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                node: "mon-a".into(),
                resume: true,
            },
            Message::Welcome {
                heartbeat_ms: 500,
                assigned: vec![SourceId(32), SourceId(33)],
                templates: vec![1, 2, 3, 4],
            },
            Message::Batch {
                batch_id: 7,
                entries: vec![
                    BatchEntry {
                        source: SourceId(32),
                        seq: 1,
                        line: b"2020-03-19 15:38:55,977 INFO boot".to_vec(),
                    },
                    BatchEntry {
                        source: SourceId(33),
                        seq: 9,
                        line: Vec::new(),
                    },
                ],
            },
            Message::Ack { batch_id: 7 },
            Message::Heartbeat { depth: 42 },
            Message::Templates {
                snapshot: vec![0xAB; 17],
            },
            Message::Reconcile {
                epoch: 3,
                snapshot: vec![0xCD; 9],
            },
            Message::Revoke {
                source: SourceId(33),
            },
            Message::Fin,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg);
            let mut r = FrameReader::new();
            r.extend(&frame);
            assert_eq!(r.next_message().unwrap(), Some(msg));
            assert_eq!(r.pending_bytes(), 0);
            assert_eq!(r.next_message().unwrap(), None);
        }
    }

    #[test]
    fn frames_survive_arbitrary_segmentation() {
        // TCP may deliver the stream in any chunking; one byte at a time is
        // the worst case.
        let msgs = sample_messages();
        let stream: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
        let mut r = FrameReader::new();
        let mut out = Vec::new();
        for &b in &stream {
            r.extend(&[b]);
            while let Some(m) = r.next_message().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn torn_frame_waits_for_the_rest() {
        let frame = encode_frame(&Message::Ack { batch_id: 99 });
        for cut in 0..frame.len() {
            let mut r = FrameReader::new();
            r.extend(&frame[..cut]);
            assert_eq!(r.next_message().unwrap(), None, "cut at {cut}");
            r.extend(&frame[cut..]);
            assert_eq!(
                r.next_message().unwrap(),
                Some(Message::Ack { batch_id: 99 }),
                "completing the frame cut at {cut} must decode"
            );
        }
    }

    #[test]
    fn payload_bit_flip_is_a_crc_error() {
        let frame = encode_frame(&Message::Heartbeat { depth: 5 });
        for byte in 8..frame.len() {
            let mut copy = frame.clone();
            copy[byte] ^= 0x20;
            let mut r = FrameReader::new();
            r.extend(&copy);
            assert!(
                matches!(r.next_message(), Err(WireError::Crc { .. })),
                "flip at payload byte {byte} undetected"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut r = FrameReader::new();
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&(u32::MAX).to_le_bytes());
        bogus.extend_from_slice(&[0u8; 4]);
        r.extend(&bogus);
        assert!(matches!(r.next_message(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let mut e = Encoder::with_header(CLUSTER_MAGIC, CLUSTER_PROTO_VERSION + 1);
        e.put_u8(9); // Fin
        let payload = e.finish();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut r = FrameReader::new();
        r.extend(&frame);
        assert!(matches!(
            r.next_message(),
            Err(WireError::Codec(CodecError::BadVersion { .. }))
        ));
    }

    #[test]
    fn trailing_bytes_in_payload_are_rejected() {
        let mut e = Encoder::with_header(CLUSTER_MAGIC, CLUSTER_PROTO_VERSION);
        e.put_u8(9); // Fin ...
        e.put_u32(7); // ... followed by junk the decoder must not ignore
        let payload = e.finish();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut r = FrameReader::new();
        r.extend(&frame);
        assert!(matches!(r.next_message(), Err(WireError::Codec(_))));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_entry() -> impl Strategy<Value = BatchEntry> {
        (
            any::<u16>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..200),
        )
            .prop_map(|(s, seq, line)| BatchEntry {
                source: SourceId(s),
                seq,
                line,
            })
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            (".{0,24}", any::<bool>()).prop_map(|(node, resume)| Message::Hello { node, resume }),
            (
                any::<u64>(),
                proptest::collection::vec(any::<u16>(), 0..16),
                proptest::collection::vec(any::<u8>(), 0..256),
            )
                .prop_map(|(hb, srcs, templates)| Message::Welcome {
                    heartbeat_ms: hb,
                    assigned: srcs.into_iter().map(SourceId).collect(),
                    templates,
                }),
            (any::<u64>(), proptest::collection::vec(arb_entry(), 0..12))
                .prop_map(|(batch_id, entries)| Message::Batch { batch_id, entries }),
            any::<u64>().prop_map(|batch_id| Message::Ack { batch_id }),
            any::<u32>().prop_map(|depth| Message::Heartbeat { depth }),
            proptest::collection::vec(any::<u8>(), 0..256)
                .prop_map(|snapshot| Message::Templates { snapshot }),
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256))
                .prop_map(|(epoch, snapshot)| Message::Reconcile { epoch, snapshot }),
            any::<u16>().prop_map(|s| Message::Revoke {
                source: SourceId(s)
            }),
            Just(Message::Fin),
        ]
    }

    proptest! {
        /// Any message stream round-trips through any segmentation.
        #[test]
        fn round_trip_with_random_chunking(
            msgs in proptest::collection::vec(arb_message(), 1..8),
            chunk in 1usize..64,
        ) {
            let stream: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
            let mut r = FrameReader::new();
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                r.extend(piece);
                while let Some(m) = r.next_message().unwrap() {
                    out.push(m);
                }
            }
            prop_assert_eq!(out, msgs);
            prop_assert_eq!(r.pending_bytes(), 0);
        }

        /// A torn frame never yields a message and never errors — it waits.
        #[test]
        fn torn_frames_never_decode_partially(msg in arb_message(), frac in 0.0f64..1.0) {
            let frame = encode_frame(&msg);
            let cut = ((frame.len() - 1) as f64 * frac) as usize;
            let mut r = FrameReader::new();
            r.extend(&frame[..cut]);
            prop_assert_eq!(r.next_message().unwrap(), None);
        }

        /// A single bit flip anywhere in a frame is detected: the reader
        /// either errors or keeps waiting — it NEVER emits a decoded
        /// message from a corrupted frame.
        #[test]
        fn bit_flips_never_produce_a_message(
            msg in arb_message(),
            byte_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let mut frame = encode_frame(&msg);
            let idx = ((frame.len() - 1) as f64 * byte_frac) as usize;
            frame[idx] ^= 1 << bit;
            let mut r = FrameReader::new();
            r.extend(&frame);
            let first = r.next_message();
            prop_assert!(
                !matches!(first, Ok(Some(_))),
                "flipped bit {bit} of byte {idx} still decoded: {first:?}"
            );
        }

        /// Random garbage never panics the reader.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut r = FrameReader::new();
            r.extend(&bytes);
            while let Ok(Some(_)) = r.next_message() {}
        }
    }
}
