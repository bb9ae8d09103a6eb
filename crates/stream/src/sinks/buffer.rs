//! The CRC-framed on-disk delivery buffer.
//!
//! One buffer file per sink route. Accepting a report appends a frame and
//! fsyncs *before* the caller acks it upstream — acceptance is the
//! durability point; everything after (delivery, retry, spill) can crash
//! freely without losing a report. The file reuses the ingest journal's
//! framing:
//!
//! ```text
//! header (16 bytes): "MLDB" magic, version u16, reserved u16, epoch u64
//! frame            : [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload          : [report_id: u64 LE][class tag: u8][report JSON bytes]
//! ```
//!
//! A read **cursor** (byte offset of the first undelivered frame) tracks
//! sink progress. The cursor lives in memory and in the checkpoint
//! manifest — *not* in the buffer file — so a crash rewinds it to the last
//! checkpoint and re-delivers a suffix: at-least-once, deduped by report
//! id at the receiver. When the buffer fully drains it is compacted
//! (truncated back to the header) and its **epoch** bumps; a manifest
//! position from an older epoch no longer describes the file and is
//! discarded, which again errs on re-delivery, never on loss.
//!
//! Corruption tolerance mirrors the journal: opening scans frames and
//! truncates at the first torn or bit-flipped one — the tail after a
//! mid-buffer flip is re-accepted by the upstream replay path, not
//! silently trusted.

use crate::durable::DurabilityError;
use monilog_model::{put_frame, split_frame, DeliveryClass, MAX_FRAME_BYTES};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const BUFFER_MAGIC: [u8; 4] = *b"MLDB";
const BUFFER_VERSION: u16 = 1;
/// Magic + version + reserved + epoch.
pub const BUFFER_HEADER_LEN: u64 = 16;
/// Bytes [`DeliveryBuffer::peek`] reads per batch, however long the backlog.
const PEEK_WINDOW: usize = 64 * 1024;

/// A sink's progress through its buffer, as persisted in the checkpoint
/// manifest. `offset` is the byte position of the first undelivered frame
/// within epoch `epoch` of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferPosition {
    pub epoch: u64,
    pub offset: u64,
}

/// One report as stored in (and read back from) a delivery buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedReport {
    /// Dense report id — stable across crash/replay (PR 5), the receiver's
    /// dedup key.
    pub id: u64,
    pub class: DeliveryClass,
    /// The report's JSON rendering, one line.
    pub body: String,
}

/// Append/read handle to one route's buffer file.
#[derive(Debug)]
pub struct DeliveryBuffer {
    path: PathBuf,
    file: File,
    /// Valid length: header + every intact frame. Appends go here;
    /// anything beyond was torn/corrupt and has been truncated away.
    len: u64,
    epoch: u64,
    /// First undelivered byte (always `BUFFER_HEADER_LEN ..= len`).
    cursor: u64,
    /// Bytes `peek` has read from the file, for the backlog-cost test.
    #[cfg(test)]
    bytes_read: u64,
}

impl DeliveryBuffer {
    /// Open (creating if needed) the buffer at `path`, scanning for the
    /// valid frame prefix and truncating any torn tail. `position` is the
    /// cursor recovered from the checkpoint manifest; it is honoured only
    /// if its epoch matches the file's — otherwise the cursor rewinds to
    /// the first frame (re-delivery over loss).
    pub fn open(
        path: impl Into<PathBuf>,
        position: Option<BufferPosition>,
    ) -> Result<DeliveryBuffer, DurabilityError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let epoch;
        let valid_len;
        if bytes.is_empty() {
            epoch = 0;
            write_header(&mut file, epoch)?;
            valid_len = BUFFER_HEADER_LEN;
        } else {
            if bytes.len() < BUFFER_HEADER_LEN as usize
                || bytes[..4] != BUFFER_MAGIC
                || u16::from_le_bytes([bytes[4], bytes[5]]) != BUFFER_VERSION
            {
                return Err(DurabilityError::Corrupt("delivery buffer header"));
            }
            epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("sized"));
            valid_len = scan_valid_len(&bytes);
            if valid_len < bytes.len() as u64 {
                // Torn or bit-flipped tail: drop it. The reports it held
                // were accepted but their upstream ack depended on this
                // very fsync — the replay path re-produces them.
                file.set_len(valid_len)?;
                file.sync_data()?;
            }
        }

        let cursor = match position {
            Some(p) if p.epoch == epoch => p.offset.clamp(BUFFER_HEADER_LEN, valid_len),
            _ => BUFFER_HEADER_LEN,
        };
        Ok(DeliveryBuffer {
            path,
            file,
            len: valid_len,
            epoch,
            cursor,
            #[cfg(test)]
            bytes_read: 0,
        })
    }

    /// Durably append reports (fsync before returning). Returns bytes
    /// written.
    pub fn append(&mut self, reports: &[BufferedReport]) -> Result<u64, DurabilityError> {
        if reports.is_empty() {
            return Ok(0);
        }
        let mut buf = Vec::new();
        for r in reports {
            put_frame(&mut buf, &super::encode_report_payload(r));
        }
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.len += buf.len() as u64;
        Ok(buf.len() as u64)
    }

    /// Read up to `max` undelivered reports from the cursor. Returns the
    /// reports and the offset just past them (pass to
    /// [`DeliveryBuffer::advance`] once a sink acknowledged the batch).
    ///
    /// Reads a bounded window, not the whole backlog: a batch may hold
    /// fewer than `max` reports when they do not fit in [`PEEK_WINDOW`],
    /// and the window grows only for a single frame larger than it.
    pub fn peek(&mut self, max: usize) -> Result<(Vec<BufferedReport>, u64), DurabilityError> {
        let mut out = Vec::new();
        let pending = (self.len - self.cursor) as usize;
        if pending == 0 || max == 0 {
            return Ok((out, self.cursor));
        }
        let mut window = Vec::new();
        self.read_window(&mut window, PEEK_WINDOW.min(pending))?;
        if next_frame(&window, 0).is_none() && window.len() >= 8 {
            // No whole frame fits: its length field says how far to read.
            let len = u32::from_le_bytes(window[..4].try_into().expect("sized")) as usize;
            let need = 8 + len;
            if len <= MAX_FRAME_BYTES && need > window.len() && need <= pending {
                self.read_window(&mut window, need)?;
            }
        }
        let mut pos = 0usize;
        while out.len() < max {
            let Some((payload, next)) = next_frame(&window, pos) else {
                break;
            };
            if let Some(report) = super::decode_report_payload(payload) {
                out.push(report);
            }
            pos = next;
        }
        Ok((out, self.cursor + pos as u64))
    }

    /// Extend `window` to the first `want` pending bytes after the cursor.
    fn read_window(&mut self, window: &mut Vec<u8>, want: usize) -> Result<(), DurabilityError> {
        let have = window.len();
        window.resize(want, 0);
        self.file.seek(SeekFrom::Start(self.cursor + have as u64))?;
        self.file.read_exact(&mut window[have..])?;
        #[cfg(test)]
        {
            self.bytes_read += (want - have) as u64;
        }
        Ok(())
    }

    /// Mark everything before `offset` delivered. When the whole buffer is
    /// drained it compacts: truncate to the header and bump the epoch, so
    /// the file never grows without bound across a long run.
    pub fn advance(&mut self, offset: u64) -> Result<(), DurabilityError> {
        self.cursor = offset.clamp(self.cursor, self.len);
        if self.cursor == self.len && self.len > BUFFER_HEADER_LEN {
            self.epoch += 1;
            self.file.set_len(BUFFER_HEADER_LEN)?;
            write_header(&mut self.file, self.epoch)?;
            self.len = BUFFER_HEADER_LEN;
            self.cursor = BUFFER_HEADER_LEN;
        }
        Ok(())
    }

    /// Cursor position for the checkpoint manifest.
    pub fn position(&self) -> BufferPosition {
        BufferPosition {
            epoch: self.epoch,
            offset: self.cursor,
        }
    }

    /// Bytes accepted but not yet delivered.
    pub fn pending_bytes(&self) -> u64 {
        self.len - self.cursor
    }

    pub fn is_drained(&self) -> bool {
        self.cursor >= self.len
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn write_header(file: &mut File, epoch: u64) -> Result<(), DurabilityError> {
    let mut header = [0u8; BUFFER_HEADER_LEN as usize];
    header[..4].copy_from_slice(&BUFFER_MAGIC);
    header[4..6].copy_from_slice(&BUFFER_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&epoch.to_le_bytes());
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_data()?;
    Ok(())
}

/// Length of the valid prefix: header plus every frame whose length and
/// CRC check out. The first bad frame ends the scan.
fn scan_valid_len(bytes: &[u8]) -> u64 {
    let body = &bytes[BUFFER_HEADER_LEN as usize..];
    let mut pos = 0usize;
    while let Some((_, next)) = next_frame(body, pos) {
        pos = next;
    }
    BUFFER_HEADER_LEN + pos as u64
}

/// Parse the frame at `pos`; `None` if torn, corrupt or past the end.
/// Returns the payload slice and the offset just past the frame.
fn next_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let (payload, next) = split_frame(bytes.get(pos..)?, MAX_FRAME_BYTES).ok()??;
    Some((payload, pos + next))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "monilog-delivery-buffer-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("route.buf")
    }

    fn report(id: u64) -> BufferedReport {
        BufferedReport {
            id,
            class: DeliveryClass::from_tag((id % 3) as u8),
            body: format!("{{\"id\":{id},\"detector\":\"deeplog\"}}"),
        }
    }

    fn cleanup(path: &Path) {
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_peek_advance_round_trip() {
        let path = tmp("roundtrip");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        assert!(buf.is_drained());
        buf.append(&[report(1), report(2), report(3)]).unwrap();
        assert!(!buf.is_drained());
        let (batch, off) = buf.peek(2).unwrap();
        assert_eq!(batch, vec![report(1), report(2)]);
        buf.advance(off).unwrap();
        let (rest, off2) = buf.peek(10).unwrap();
        assert_eq!(rest, vec![report(3)]);
        buf.advance(off2).unwrap();
        assert!(buf.is_drained());
        cleanup(&path);
    }

    #[test]
    fn cursor_survives_reopen_via_position() {
        let path = tmp("reopen");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        buf.append(&[report(1), report(2), report(3)]).unwrap();
        let (_, off) = buf.peek(1).unwrap();
        buf.advance(off).unwrap();
        let pos = buf.position();
        drop(buf);
        let mut again = DeliveryBuffer::open(&path, Some(pos)).unwrap();
        let (pending, _) = again.peek(10).unwrap();
        assert_eq!(pending, vec![report(2), report(3)]);
        cleanup(&path);
    }

    #[test]
    fn stale_position_without_checkpoint_redelivers_a_suffix() {
        // A crash after delivery but before the next checkpoint: the
        // manifest cursor is behind reality → re-delivery, never loss.
        let path = tmp("stale");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        buf.append(&[report(1), report(2)]).unwrap();
        let checkpointed = buf.position();
        let (_, off) = buf.peek(10).unwrap();
        buf.advance(off).unwrap(); // delivered both, compacts + bumps epoch
        buf.append(&[report(3)]).unwrap();
        drop(buf);
        // Restart recovers the *older* manifest position; epoch moved on,
        // so the cursor rewinds to the first frame of the current epoch.
        let mut again = DeliveryBuffer::open(&path, Some(checkpointed)).unwrap();
        let (pending, _) = again.peek(10).unwrap();
        assert_eq!(pending, vec![report(3)]);
        cleanup(&path);
    }

    #[test]
    fn drain_compacts_and_bumps_epoch() {
        let path = tmp("compact");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        buf.append(&[report(1), report(2)]).unwrap();
        let grown = fs::metadata(&path).unwrap().len();
        assert!(grown > BUFFER_HEADER_LEN);
        let (_, off) = buf.peek(10).unwrap();
        buf.advance(off).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), BUFFER_HEADER_LEN);
        assert_eq!(buf.position().epoch, 1);
        // Fresh appends after compaction read back fine.
        buf.append(&[report(9)]).unwrap();
        let (batch, _) = buf.peek(10).unwrap();
        assert_eq!(batch, vec![report(9)]);
        cleanup(&path);
    }

    /// `peek` used to read the whole pending tail to return one batch, so
    /// draining a backlog cost O(backlog² / batch) bytes.
    #[test]
    fn draining_a_backlog_reads_linear_bytes() {
        let path = tmp("backlog");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        let filler = "x".repeat(1000);
        let reports: Vec<BufferedReport> = (0..10_000u64)
            .map(|id| BufferedReport {
                id,
                class: DeliveryClass::Log,
                body: format!("{{\"id\":{id},\"pad\":\"{filler}\"}}"),
            })
            .collect();
        let total = buf.append(&reports).unwrap();
        let mut drained = Vec::new();
        while !buf.is_drained() {
            let (batch, off) = buf.peek(64).unwrap();
            assert!(!batch.is_empty() && batch.len() <= 64);
            drained.extend(batch.into_iter().map(|r| r.id));
            buf.advance(off).unwrap();
        }
        assert_eq!(drained, (0..10_000u64).collect::<Vec<_>>());
        // The quadratic read was ~80x the backlog here.
        assert!(
            buf.bytes_read <= 2 * total,
            "read {} bytes to drain a {total}-byte backlog",
            buf.bytes_read
        );
        cleanup(&path);
    }

    #[test]
    fn a_frame_larger_than_the_peek_window_is_still_returned() {
        let path = tmp("bigframe");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        let big = BufferedReport {
            id: 1,
            class: DeliveryClass::Page,
            body: "y".repeat(3 * PEEK_WINDOW),
        };
        buf.append(&[big.clone(), report(2), report(3)]).unwrap();
        let (batch, off) = buf.peek(10).unwrap();
        assert_eq!(batch, vec![big], "the window grows to one whole frame");
        buf.advance(off).unwrap();
        let (batch, off) = buf.peek(10).unwrap();
        assert_eq!(batch, vec![report(2), report(3)]);
        buf.advance(off).unwrap();
        assert!(buf.is_drained());
        cleanup(&path);
    }

    #[test]
    fn torn_tail_recovers_to_last_good_frame() {
        let path = tmp("torn");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        buf.append(&[report(1), report(2)]).unwrap();
        let full = fs::metadata(&path).unwrap().len();
        drop(buf);
        // Crash mid-append: cut the final frame at every possible point.
        let intact = fs::read(&path).unwrap();
        let second_frame_start = {
            let body = &intact[BUFFER_HEADER_LEN as usize..];
            let (_, first_end) = next_frame(body, 0).unwrap();
            BUFFER_HEADER_LEN as usize + first_end
        };
        for cut in second_frame_start..full as usize {
            fs::write(&path, &intact[..cut]).unwrap();
            let mut b = DeliveryBuffer::open(&path, None).unwrap();
            let (pending, _) = b.peek(10).unwrap();
            assert_eq!(pending, vec![report(1)], "cut at {cut}");
            // The torn tail was truncated away; appends continue cleanly.
            b.append(&[report(7)]).unwrap();
            let (pending, _) = b.peek(10).unwrap();
            assert_eq!(pending, vec![report(1), report(7)]);
        }
        cleanup(&path);
    }

    #[test]
    fn bit_flip_mid_buffer_truncates_from_the_flip() {
        let path = tmp("bitflip");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        buf.append(&[report(1), report(2), report(3)]).unwrap();
        drop(buf);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the second frame's payload.
        let body_start = BUFFER_HEADER_LEN as usize;
        let (_, first_end) = next_frame(&bytes[body_start..], 0).unwrap();
        let flip_at = body_start + first_end + 12; // inside frame 2's payload
        bytes[flip_at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mut b = DeliveryBuffer::open(&path, None).unwrap();
        let (pending, _) = b.peek(10).unwrap();
        assert_eq!(pending, vec![report(1)], "frames after the flip are gone");
        assert!(
            fs::metadata(&path).unwrap().len() < bytes.len() as u64,
            "corrupt tail truncated on open"
        );
        cleanup(&path);
    }

    #[test]
    fn corrupt_header_is_a_typed_error_not_a_panic() {
        let path = tmp("header");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"not a delivery buffer at all").unwrap();
        match DeliveryBuffer::open(&path, None) {
            Err(DurabilityError::Corrupt(what)) => assert!(what.contains("header")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn position_from_wrong_epoch_is_ignored() {
        let path = tmp("epoch");
        let mut buf = DeliveryBuffer::open(&path, None).unwrap();
        buf.append(&[report(5)]).unwrap();
        drop(buf);
        let bogus = BufferPosition {
            epoch: 42,
            offset: 999_999,
        };
        let mut b = DeliveryBuffer::open(&path, Some(bogus)).unwrap();
        let (pending, _) = b.peek(10).unwrap();
        assert_eq!(pending, vec![report(5)]);
        cleanup(&path);
    }
}
