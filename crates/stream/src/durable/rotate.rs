//! The one append-only JSONL file type: torn-tail repair on open, and
//! optional size rotation with a retained-generation cap.
//!
//! Every line file the system writes is a [`RotatingLog`]: the dead-letter
//! queue, the delivery spill files, the file route, `anomalies.jsonl` and
//! `config-audit.log`. Each append is fsync'd. A crash mid-append can
//! leave a final line without its `\n`; opening the log truncates that
//! torn line (and fsyncs), so the next record starts on a clean boundary
//! instead of merging into the fragment.
//!
//! A rotating log renames the current file to `<name>.1` once it exceeds
//! `rotate_bytes` (older generations shift to `.2`, `.3`, …) and deletes
//! generations past `retain`. Deletion is the only place data is lost, and
//! it is *accounted*: the log takes the counter its dropped bytes go to at
//! open, so no caller can forget to surface the loss.

use super::DurabilityError;
use crate::metrics::PipelineMetrics;
use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// An append-only line file, optionally rotating by size.
#[derive(Debug)]
pub struct RotatingLog {
    path: PathBuf,
    rotation: Option<Rotation>,
}

#[derive(Debug)]
struct Rotation {
    rotate_bytes: u64,
    retain: usize,
    metrics: Arc<PipelineMetrics>,
    dropped: fn(&PipelineMetrics) -> &AtomicU64,
}

impl RotatingLog {
    /// Open (creating parent directories if needed) a log at `path` that
    /// rotates past `rotate_bytes` and keeps `retain` rotated generations
    /// (0 = rotation deletes immediately). Bytes rotation deletes are
    /// added to the counter `dropped` selects from `metrics`.
    pub fn open(
        path: impl Into<PathBuf>,
        rotate_bytes: u64,
        retain: usize,
        metrics: Arc<PipelineMetrics>,
        dropped: fn(&PipelineMetrics) -> &AtomicU64,
    ) -> Result<RotatingLog, DurabilityError> {
        let mut log = Self::unrotated(path)?;
        log.rotation = Some(Rotation {
            rotate_bytes,
            retain,
            metrics,
            dropped,
        });
        Ok(log)
    }

    /// Open (creating parent directories if needed) a log at `path` that
    /// never rotates, so never drops a byte.
    pub fn unrotated(path: impl Into<PathBuf>) -> Result<RotatingLog, DurabilityError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        truncate_torn_line(&path)?;
        Ok(RotatingLog {
            path,
            rotation: None,
        })
    }

    /// Path of rotated generation `n` (1 = newest rotated).
    fn generation(&self, n: usize) -> PathBuf {
        let name = self
            .path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.path.with_file_name(format!("{name}.{n}"))
    }

    /// Append `text` (caller includes trailing newlines), rotating first if
    /// the current file is over its cap. The append is fsync'd.
    pub fn append_text(&self, text: &str) -> Result<(), DurabilityError> {
        if text.is_empty() {
            return Ok(());
        }
        if let Some(rotation) = &self.rotation {
            let size = fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
            if size > rotation.rotate_bytes {
                let dropped = self.rotate(rotation.retain)?;
                PipelineMetrics::add((rotation.dropped)(&rotation.metrics), dropped);
            }
        }
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
        Ok(())
    }

    /// Shift generations up by one and retire the oldest. Returns bytes
    /// deleted.
    fn rotate(&self, retain: usize) -> Result<u64, DurabilityError> {
        let mut dropped = 0;
        // Retire everything at or past the cap (normally just one file,
        // but a lowered `retain` cleans up extras too).
        let mut n = retain.max(1);
        loop {
            let p = self.generation(n);
            match fs::metadata(&p) {
                Ok(m) => {
                    dropped += m.len();
                    fs::remove_file(&p)?;
                }
                Err(_) if n > retain => break,
                Err(_) => {}
            }
            n += 1;
        }
        for k in (1..retain.max(1)).rev() {
            let from = self.generation(k);
            if from.exists() {
                fs::rename(&from, self.generation(k + 1))?;
            }
        }
        if retain == 0 {
            if let Ok(m) = fs::metadata(&self.path) {
                dropped += m.len();
            }
            fs::remove_file(&self.path)?;
        } else {
            fs::rename(&self.path, self.generation(1))?;
        }
        Ok(dropped)
    }
}

/// Cut a final line that lacks its `\n` (a crash mid-append) and fsync,
/// so the next append starts a line of its own. A missing file is fine.
fn truncate_torn_line(path: &Path) -> Result<(), DurabilityError> {
    let mut f = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let mut last = [0u8];
    f.seek(SeekFrom::End(-1))?;
    f.read_exact(&mut last)?;
    if last[0] != b'\n' {
        let mut bytes = Vec::new();
        f.seek(SeekFrom::Start(0))?;
        f.read_to_end(&mut bytes)?;
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        f.set_len(keep as u64)?;
        f.sync_data()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monilog-rotate-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("log.jsonl")
    }

    fn rotating(
        path: &Path,
        rotate_bytes: u64,
        retain: usize,
    ) -> (RotatingLog, Arc<PipelineMetrics>) {
        let metrics = PipelineMetrics::shared();
        let log = RotatingLog::open(path, rotate_bytes, retain, Arc::clone(&metrics), |m| {
            &m.spill_bytes_dropped
        })
        .unwrap();
        (log, metrics)
    }

    fn dropped(metrics: &PipelineMetrics) -> u64 {
        PipelineMetrics::get(&metrics.spill_bytes_dropped)
    }

    /// Bytes on disk across the current file and every retained generation.
    fn disk_bytes(log: &RotatingLog, retain: usize) -> u64 {
        (1..=retain)
            .map(|n| log.generation(n))
            .chain([log.path.clone()])
            .map(|p| fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }

    /// Generations oldest first, then the current file.
    fn read_all(log: &RotatingLog, retain: usize) -> String {
        (1..=retain)
            .rev()
            .map(|n| log.generation(n))
            .chain([log.path.clone()])
            .filter_map(|p| fs::read_to_string(p).ok())
            .collect()
    }

    #[test]
    fn small_appends_never_rotate() {
        let path = tmp("small");
        let (log, metrics) = rotating(&path, 1 << 20, 2);
        for i in 0..10 {
            log.append_text(&format!("line {i}\n")).unwrap();
        }
        assert_eq!(dropped(&metrics), 0);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert!(text.starts_with("line 0"));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rotation_keeps_retain_generations_and_counts_dropped_bytes() {
        let path = tmp("retain");
        let (log, metrics) = rotating(&path, 100, 2);
        for i in 0..30 {
            log.append_text(&format!("payload {i:03} {}\n", "x".repeat(30)))
                .unwrap();
        }
        assert!(dropped(&metrics) > 0, "old generations were deleted");
        assert!(log.generation(1).exists());
        assert!(log.generation(2).exists());
        assert!(!log.generation(3).exists());
        // Disk usage is bounded: current + 2 generations, each near the cap.
        let bytes = disk_bytes(&log, 2);
        assert!(bytes <= 100 * 3 + 200, "bytes={bytes}");
        // Newest data always survives; generations read oldest-first.
        let text = read_all(&log, 2);
        assert!(text
            .trim_end()
            .ends_with(&format!("payload 029 {}", "x".repeat(30))));
        let nums: Vec<u32> = text
            .lines()
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        let mut sorted = nums.clone();
        sorted.sort_unstable();
        assert_eq!(nums, sorted, "generations concatenate oldest-first");
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn retain_zero_drops_the_whole_file_on_rotation() {
        let path = tmp("zero");
        let (log, metrics) = rotating(&path, 50, 0);
        for i in 0..10 {
            log.append_text(&format!("entry {i} {}\n", "y".repeat(20)))
                .unwrap();
        }
        assert!(dropped(&metrics) > 0);
        assert!(!log.generation(1).exists());
        assert!(disk_bytes(&log, 0) <= 100);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn dropped_bytes_match_what_disk_lost() {
        let path = tmp("account");
        let (log, metrics) = rotating(&path, 80, 1);
        let mut written = 0u64;
        for i in 0..40 {
            let line = format!("row {i:02} {}\n", "z".repeat(10));
            written += line.len() as u64;
            log.append_text(&line).unwrap();
        }
        assert_eq!(disk_bytes(&log, 1), written - dropped(&metrics));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_torn_final_line_is_cut_before_the_next_append() {
        let path = tmp("torn");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        // A crash mid-append: one whole record, then half of the next.
        fs::write(&path, "{\"seq\":1}\n{\"seq\":2,\"li").unwrap();
        let (log, _) = rotating(&path, 1 << 20, 1);
        log.append_text("{\"seq\":3}\n").unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"seq\":1}\n{\"seq\":3}\n",
            "the torn record is gone and the next one has its own line"
        );
        // A file that is one torn line, and a clean one, both reopen fine.
        fs::write(&path, "{\"seq\":4").unwrap();
        RotatingLog::unrotated(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"");
        fs::write(&path, "{\"seq\":5}\n").unwrap();
        RotatingLog::unrotated(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"seq\":5}\n");
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
