//! Checkpoint manifest: the top-level durable snapshot format.
//!
//! A MoniLog process must survive `kill -9` without forgetting its learned
//! templates, trained detector, or open windows (Section I pitches MoniLog
//! for a production cloud where the stream never stops). The checkpointer
//! in `monilog-stream::durable` periodically writes one
//! [`CheckpointManifest`] to disk: a versioned container holding
//!
//! - the **journal positions** — for each source, the last write-ahead
//!   journal sequence whose effects are included in this snapshot (recovery
//!   replays everything after them, at-least-once);
//! - named opaque **state sections** — the pipeline snapshot, the parse
//!   router placement, and whatever future subsystems need (each section
//!   carries its own magic/version inside its bytes).
//!
//! The encoded form is self-checking: a trailing CRC-32 over the entire
//! body means a torn write or bit flip decodes to a typed
//! [`CodecError`], never to garbage state.

use crate::codec::{crc32, CodecError, Decoder, Encoder};
use crate::log::SourceId;

/// Magic bytes of an encoded checkpoint manifest.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"MLCK";
/// Current manifest format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Last journal sequence applied to the checkpointed state, per source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalPosition {
    pub source: SourceId,
    /// Highest `seq` from this source whose effects the snapshot contains.
    /// `0` means "nothing applied yet" (journal seqs start at 1 in the
    /// durable pipeline, so 0 is never a real position).
    pub last_seq: u64,
}

/// The top-level durable snapshot: journal positions + named state blobs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointManifest {
    /// Monotone checkpoint generation (assigned by the store on write).
    pub generation: u64,
    /// Wall-clock creation time, milliseconds since the epoch.
    pub created_ms: u64,
    /// Per-source replay cut-off points, sorted by source id.
    pub positions: Vec<JournalPosition>,
    /// Named opaque state sections, sorted by name. Each section's bytes
    /// carry their own inner magic/version header.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointManifest {
    /// The bytes of a named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Insert or replace a named section, keeping sections name-sorted so
    /// the encoding is deterministic.
    pub fn set_section(&mut self, name: &str, bytes: Vec<u8>) {
        match self.sections.iter_mut().find(|(n, _)| n == name) {
            Some((_, b)) => *b = bytes,
            None => {
                self.sections.push((name.to_string(), bytes));
                self.sections.sort_by(|(a, _), (b, _)| a.cmp(b));
            }
        }
    }

    /// The replay cut-off for `source` (`0` when the source is unknown).
    pub fn position(&self, source: SourceId) -> u64 {
        self.positions
            .iter()
            .find(|p| p.source == source)
            .map_or(0, |p| p.last_seq)
    }

    /// Record `source`'s cut-off, keeping positions source-sorted.
    pub fn set_position(&mut self, source: SourceId, last_seq: u64) {
        match self.positions.iter_mut().find(|p| p.source == source) {
            Some(p) => p.last_seq = last_seq,
            None => {
                self.positions.push(JournalPosition { source, last_seq });
                self.positions.sort_by_key(|p| p.source);
            }
        }
    }

    /// Encode to the self-checking on-disk form: `MLCK` header, fields, and
    /// a trailing CRC-32 over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        e.put_u64(self.generation);
        e.put_u64(self.created_ms);
        e.put_len(self.positions.len());
        for p in &self.positions {
            e.put_u16(p.source.0);
            e.put_u64(p.last_seq);
        }
        e.put_len(self.sections.len());
        for (name, bytes) in &self.sections {
            e.put_str(name);
            e.put_bytes(bytes);
        }
        let mut body = e.finish();
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// Decode and verify. Any truncation, bit flip, or version skew is a
    /// typed [`CodecError`]; garbage never becomes pipeline state.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointManifest, CodecError> {
        if bytes.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
        if crc32(body) != stored {
            return Err(CodecError::Corrupt("checkpoint checksum mismatch"));
        }
        let mut d = Decoder::new(body);
        d.expect_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let generation = d.get_u64()?;
        let created_ms = d.get_u64()?;
        let n = d.get_len()?;
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            positions.push(JournalPosition {
                source: SourceId(d.get_u16()?),
                last_seq: d.get_u64()?,
            });
        }
        let n = d.get_len()?;
        let mut sections = Vec::with_capacity(n);
        for _ in 0..n {
            let name = d.get_str()?;
            let bytes = d.get_bytes()?;
            sections.push((name, bytes));
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after manifest"));
        }
        Ok(CheckpointManifest {
            generation,
            created_ms,
            positions,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> CheckpointManifest {
        let mut m = CheckpointManifest {
            generation: 7,
            created_ms: 1_584_632_335_977,
            ..CheckpointManifest::default()
        };
        m.set_position(SourceId(1), 4_200);
        m.set_position(SourceId(0), 9_000);
        m.set_section("pipeline", vec![1, 2, 3, 4]);
        m.set_section("router", vec![]);
        m
    }

    #[test]
    fn round_trips() {
        let m = manifest();
        let back = CheckpointManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.position(SourceId(0)), 9_000);
        assert_eq!(back.position(SourceId(9)), 0, "unknown source");
        assert_eq!(back.section("pipeline"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(back.section("missing"), None);
    }

    #[test]
    fn positions_and_sections_stay_sorted() {
        let m = manifest();
        assert_eq!(m.positions[0].source, SourceId(0));
        assert_eq!(m.positions[1].source, SourceId(1));
        assert_eq!(m.sections[0].0, "pipeline");
        assert_eq!(m.sections[1].0, "router");
        // Updating in place neither duplicates nor reorders.
        let mut m2 = m.clone();
        m2.set_position(SourceId(0), 10_000);
        m2.set_section("pipeline", vec![9]);
        assert_eq!(m2.positions.len(), 2);
        assert_eq!(m2.sections.len(), 2);
        assert_eq!(m2.position(SourceId(0)), 10_000);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = manifest().encode();
        for cut in 0..bytes.len() {
            assert!(
                CheckpointManifest::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = manifest().encode();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut copy = bytes.clone();
                copy[i] ^= bit;
                assert!(
                    CheckpointManifest::decode(&copy).is_err(),
                    "flip at byte {i} decoded"
                );
            }
        }
    }
}
