//! The write-ahead ingest journal.
//!
//! One append-only segment file per source, named
//! `src{source}-{base_seq:020}.wal`, where `base_seq` is the first
//! sequence number the segment holds. A segment starts with a 16-byte
//! header (`MLWJ`, version, source id, base seq) followed by frames:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [seq: u64 LE][line bytes (UTF-8)]
//! ```
//!
//! The durability contract is *journal first, release second*: the caller
//! appends a line before feeding it to the pipeline, and lets nothing
//! derived from it (a report, a checkpoint, a source ack) leave the
//! process before the group commit ([`JournalConfig::fsync_interval_ms`])
//! has fsynced it. A crash can therefore lose only lines whose effects
//! never left — those are re-read from the input — while every line
//! behind an observable effect is replayable.
//!
//! Segments rotate at [`JournalConfig::segment_bytes`]; replay tolerates a
//! truncated or corrupt tail (the torn final frame of a crash) by treating
//! the first bad frame as end-of-segment. [`Journal::prune`] deletes
//! segments fully covered by a checkpoint position.

use super::DurabilityError;
use monilog_model::{put_frame, split_frame, JournalPosition, RawLog, SourceId, MAX_FRAME_BYTES};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SEGMENT_MAGIC: [u8; 4] = *b"MLWJ";
const SEGMENT_VERSION: u16 = 1;
const SEGMENT_HEADER_LEN: usize = 16;

/// Journal tuning knobs (`--journal-fsync-ms`, `--journal-segment-bytes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Group-commit interval: appends are fsync'd when this many
    /// milliseconds have passed since the last sync. `0` syncs on every
    /// append (maximum durability, minimum throughput).
    pub fsync_interval_ms: u64,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            fsync_interval_ms: 50,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

struct SegmentWriter {
    file: BufWriter<File>,
    bytes: u64,
    /// Appended to since the last [`Journal::sync`].
    dirty: bool,
}

/// The append side of the write-ahead journal.
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    writers: HashMap<u16, SegmentWriter>,
    /// Frame bytes appended since the last [`Journal::sync`]; non-zero
    /// exactly while a group commit is owed.
    unsynced_bytes: u64,
    last_sync: Instant,
    appended_bytes: u64,
    /// Reused per append: the `[seq][line]` payload and its frame.
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl Journal {
    /// Open a journal that starts empty: every segment already in `dir`
    /// is deleted first. For a writer that never recovers and so restarts
    /// its seqs at 1 (the router's retention).
    pub fn open_empty(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<Journal, DurabilityError> {
        let dir = dir.into();
        for (path, _, _) in sorted_segments(&dir)? {
            fs::remove_file(path)?;
        }
        Self::open(dir, config)
    }

    /// Open (creating if needed) the journal directory for appending.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<Journal, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Journal {
            dir,
            config,
            writers: HashMap::new(),
            unsynced_bytes: 0,
            last_sync: Instant::now(),
            appended_bytes: 0,
            payload: Vec::new(),
            frame: Vec::new(),
        })
    }

    /// Append one raw line; returns the bytes written (for the
    /// `journal_bytes` metric). The frame is buffered — it is durable only
    /// after the next [`Journal::sync`].
    pub fn append(&mut self, raw: &RawLog) -> Result<u64, DurabilityError> {
        let rotate = self
            .writers
            .get(&raw.source.0)
            .is_some_and(|w| w.bytes >= self.config.segment_bytes);
        if rotate {
            let mut w = self.writers.remove(&raw.source.0).expect("checked above");
            w.file.flush()?;
            w.file.get_ref().sync_data()?;
        }
        if !self.writers.contains_key(&raw.source.0) {
            let path = self.dir.join(segment_name(raw.source.0, raw.seq));
            // A crash can leave a segment that was created but never got a
            // durable frame; a restart continuing at the same seq may then
            // collide with its name. Reusing it is safe exactly when it
            // holds nothing replayable.
            if path.exists() {
                if !read_segment(&path)?.is_empty() {
                    return Err(DurabilityError::Corrupt(
                        "segment name collision with replayable frames",
                    ));
                }
                fs::remove_file(&path)?;
            }
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            let mut writer = BufWriter::new(file);
            let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
            header.extend_from_slice(&SEGMENT_MAGIC);
            header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
            header.extend_from_slice(&raw.source.0.to_le_bytes());
            header.extend_from_slice(&raw.seq.to_le_bytes());
            writer.write_all(&header)?;
            self.writers.insert(
                raw.source.0,
                SegmentWriter {
                    file: writer,
                    bytes: SEGMENT_HEADER_LEN as u64,
                    dirty: false,
                },
            );
        }
        let writer = self.writers.get_mut(&raw.source.0).expect("just inserted");
        self.payload.clear();
        self.payload.extend_from_slice(&raw.seq.to_le_bytes());
        self.payload.extend_from_slice(raw.line.as_bytes());
        self.frame.clear();
        put_frame(&mut self.frame, &self.payload);
        writer.file.write_all(&self.frame)?;
        let written = self.frame.len() as u64;
        writer.bytes += written;
        writer.dirty = true;
        self.unsynced_bytes += written;
        self.appended_bytes += written;
        Ok(written)
    }

    /// Whether the group-commit interval has elapsed since the last sync.
    pub fn sync_due(&self) -> bool {
        self.sync_due_at(Instant::now())
    }

    /// [`Journal::sync_due`] against a clock reading the caller already
    /// holds.
    pub fn sync_due_at(&self, now: Instant) -> bool {
        self.unsynced_bytes > 0
            && now.saturating_duration_since(self.last_sync)
                >= Duration::from_millis(self.config.fsync_interval_ms)
    }

    /// How long until the group commit falls due; `None` while nothing is
    /// waiting for one.
    pub fn sync_due_in(&self) -> Option<Duration> {
        (self.unsynced_bytes > 0).then(|| {
            Duration::from_millis(self.config.fsync_interval_ms)
                .saturating_sub(self.last_sync.elapsed())
        })
    }

    /// Frame bytes journaled but not yet durable: appended since the last
    /// [`Journal::sync`], so a crash now could lose them.
    pub fn unsynced_bytes(&self) -> u64 {
        self.unsynced_bytes
    }

    /// Flush and fsync every segment appended to since the last sync.
    /// After this returns, every appended frame survives a crash.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        if self.unsynced_bytes > 0 {
            for w in self.writers.values_mut().filter(|w| w.dirty) {
                w.file.flush()?;
                w.file.get_ref().sync_data()?;
                w.dirty = false;
            }
            self.unsynced_bytes = 0;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Total bytes appended since open.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Replay every decodable line with `seq` greater than its source's
    /// checkpointed position, in `(source, seq)` order. Sources without a
    /// position replay from the start. A torn or corrupt frame ends its
    /// segment (crash-tail tolerance) — it never fails the replay.
    pub fn replay_after(
        dir: &Path,
        positions: &[JournalPosition],
    ) -> Result<Vec<RawLog>, DurabilityError> {
        let mut sources: Vec<u16> = sorted_segments(dir)?.iter().map(|(_, s, _)| *s).collect();
        sources.dedup();
        let mut out = Vec::new();
        for source in sources {
            let applied = positions
                .iter()
                .find(|p| p.source.0 == source)
                .map_or(0, |p| p.last_seq);
            out.extend(Self::replay_source(dir, SourceId(source), applied)?);
        }
        Ok(out)
    }

    /// Replay every decodable line of `source` with `seq` greater than
    /// `after_seq`, in seq order, reading every frame of its segments.
    pub fn replay_source(
        dir: &Path,
        source: SourceId,
        after_seq: u64,
    ) -> Result<Vec<RawLog>, DurabilityError> {
        let mut out = Vec::new();
        for (path, s, _) in sorted_segments(dir)? {
            if s == source.0 {
                out.extend(
                    read_segment(&path)?
                        .into_iter()
                        .filter(|r| r.seq > after_seq),
                );
            }
        }
        out.sort_by_key(|r| r.seq);
        Ok(out)
    }

    /// Delete segments whose every line is at or below the checkpointed
    /// position — i.e. the *next* segment for the source starts at or
    /// before `last_seq + 1`. The newest segment per source is always
    /// kept (it may still be open for appending). Returns the number of
    /// segments removed.
    pub fn prune(&mut self, positions: &[JournalPosition]) -> Result<usize, DurabilityError> {
        let segments = sorted_segments(&self.dir)?;
        let mut removed = 0;
        for p in positions {
            let of_source: Vec<_> = segments
                .iter()
                .filter(|(_, s, _)| *s == p.source.0)
                .collect();
            for pair in of_source.windows(2) {
                let (path, _, _) = pair[0];
                let (_, _, next_base) = pair[1];
                if *next_base <= p.last_seq.saturating_add(1) {
                    fs::remove_file(path)?;
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

fn segment_name(source: u16, base_seq: u64) -> String {
    format!("src{source}-{base_seq:020}.wal")
}

/// `(path, source, base_seq)` for every segment file, sorted by
/// `(source, base_seq)`. Files that don't match the naming scheme are
/// ignored (they're not ours).
fn sorted_segments(dir: &Path) -> Result<Vec<(PathBuf, u16, u64)>, DurabilityError> {
    let mut segments = Vec::new();
    if !dir.exists() {
        return Ok(segments);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".wal") else {
            continue;
        };
        let Some(rest) = stem.strip_prefix("src") else {
            continue;
        };
        let Some((source, base)) = rest.split_once('-') else {
            continue;
        };
        if let (Ok(source), Ok(base)) = (source.parse::<u16>(), base.parse::<u64>()) {
            segments.push((path, source, base));
        }
    }
    segments.sort_by_key(|(_, s, b)| (*s, *b));
    Ok(segments)
}

/// Decode one segment, stopping at the first torn or corrupt frame.
fn read_segment(path: &Path) -> Result<Vec<RawLog>, DurabilityError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut out = Vec::new();
    if bytes.len() < SEGMENT_HEADER_LEN
        || bytes[..4] != SEGMENT_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != SEGMENT_VERSION
    {
        // A header torn mid-write (or an alien file): nothing recoverable,
        // but not an error — the segment simply has no replayable frames.
        return Ok(out);
    }
    let source = SourceId(u16::from_le_bytes([bytes[6], bytes[7]]));
    let mut at = SEGMENT_HEADER_LEN;
    // A torn, oversized or bit-flipped frame ends the journal, and so does
    // one that passes its CRC but holds no seq or no UTF-8 text.
    while let Ok(Some((payload, next))) = split_frame(&bytes[at..], MAX_FRAME_BYTES) {
        let Some((seq, line)) = payload.split_first_chunk::<8>() else {
            break;
        };
        let Ok(line) = std::str::from_utf8(line) else {
            break;
        };
        out.push(RawLog::new(source, u64::from_le_bytes(*seq), line));
        at += next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monilog-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn raw(source: u16, seq: u64, line: &str) -> RawLog {
        RawLog::new(SourceId(source), seq, line)
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        for i in 1..=50u64 {
            j.append(&raw(0, i, &format!("line {i}"))).unwrap();
            j.append(&raw(1, i, &format!("other {i}"))).unwrap();
        }
        j.sync().unwrap();
        assert!(j.appended_bytes() > 0);
        let all = Journal::replay_after(&dir, &[]).unwrap();
        assert_eq!(all.len(), 100);
        assert_eq!(all[0], raw(0, 1, "line 1"));
        assert_eq!(all[49], raw(0, 50, "line 50"));
        assert_eq!(all[99], raw(1, 50, "other 50"));
        // Positions filter per source.
        let suffix = Journal::replay_after(
            &dir,
            &[
                JournalPosition {
                    source: SourceId(0),
                    last_seq: 48,
                },
                JournalPosition {
                    source: SourceId(1),
                    last_seq: 50,
                },
            ],
        )
        .unwrap();
        assert_eq!(
            suffix,
            vec![raw(0, 49, "line 49"), raw(0, 50, "line 50")],
            "only unapplied lines replay"
        );
        assert_eq!(
            Journal::replay_source(&dir, SourceId(1), 48).unwrap(),
            vec![raw(1, 49, "other 49"), raw(1, 50, "other 50")],
            "one source replays alone"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_prune() {
        let dir = tmp_dir("rotate");
        let config = JournalConfig {
            segment_bytes: 256,
            ..JournalConfig::default()
        };
        let mut j = Journal::open(&dir, config).unwrap();
        for i in 1..=40u64 {
            j.append(&raw(0, i, &format!("a fairly long log line number {i}")))
                .unwrap();
        }
        j.sync().unwrap();
        let segments = sorted_segments(&dir).unwrap();
        assert!(segments.len() > 2, "rotation must split: {segments:?}");
        // Everything replays across the rotation boundary.
        let all = Journal::replay_after(&dir, &[]).unwrap();
        assert_eq!(all.len(), 40);
        // Prune everything covered by a checkpoint at seq 40: all but the
        // newest segment goes away, and replay still works.
        let removed = j
            .prune(&[JournalPosition {
                source: SourceId(0),
                last_seq: 40,
            }])
            .unwrap();
        assert_eq!(removed, segments.len() - 1);
        let after = Journal::replay_after(
            &dir,
            &[JournalPosition {
                source: SourceId(0),
                last_seq: 40,
            }],
        )
        .unwrap();
        assert!(after.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_ends_replay_cleanly() {
        let dir = tmp_dir("torn");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        for i in 1..=10u64 {
            j.append(&raw(0, i, &format!("line {i}"))).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        let (path, _, _) = sorted_segments(&dir).unwrap().remove(0);
        let full = fs::read(&path).unwrap();
        // Every possible truncation point yields a clean prefix replay.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let replayed = Journal::replay_after(&dir, &[]).unwrap();
            assert!(replayed.len() <= 10);
            for (i, r) in replayed.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1, "replay is a prefix");
            }
        }
        fs::write(&path, &full).unwrap();
        assert_eq!(Journal::replay_after(&dir, &[]).unwrap().len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_never_panic_and_never_fabricate() {
        let dir = tmp_dir("flips");
        let mut j = Journal::open(&dir, JournalConfig::default()).unwrap();
        for i in 1..=8u64 {
            j.append(&raw(0, i, &format!("stable line {i}"))).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        let (path, _, _) = sorted_segments(&dir).unwrap().remove(0);
        let full = fs::read(&path).unwrap();
        for byte in 0..full.len() {
            for bit in [0, 3, 7] {
                let mut damaged = full.clone();
                damaged[byte] ^= 1 << bit;
                fs::write(&path, &damaged).unwrap();
                let replayed = Journal::replay_after(&dir, &[]).unwrap();
                // A flip can only shorten the replay or alter nothing
                // (flips inside a line body are caught by the CRC, so any
                // surviving record is byte-identical to what was written).
                assert!(replayed.len() <= 8);
                for r in &replayed {
                    assert_eq!(r.line, format!("stable line {}", r.seq));
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_interval_gates_sync_due() {
        let dir = tmp_dir("group");
        let mut j = Journal::open(
            &dir,
            JournalConfig {
                fsync_interval_ms: 10_000,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        assert!(!j.sync_due(), "clean journal never due");
        assert_eq!(j.unsynced_bytes(), 0);
        let written = j.append(&raw(0, 1, "x")).unwrap();
        assert!(!j.sync_due(), "interval has not elapsed");
        assert_eq!(j.unsynced_bytes(), written, "the frame is not durable yet");
        let later = Instant::now() + Duration::from_secs(11);
        assert!(j.sync_due_at(later), "due once the interval has passed");
        j.sync().unwrap();
        assert_eq!(j.unsynced_bytes(), 0, "sync makes every frame durable");
        assert!(!j.sync_due_at(later), "clean journal never due");
        let mut eager = Journal::open(
            &dir,
            JournalConfig {
                fsync_interval_ms: 0,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        eager.append(&raw(1, 1, "y")).unwrap();
        assert!(eager.sync_due(), "interval 0 is always due when dirty");
        eager.sync().unwrap();
        assert!(!eager.sync_due(), "sync clears dirtiness");
        fs::remove_dir_all(&dir).unwrap();
    }
}
