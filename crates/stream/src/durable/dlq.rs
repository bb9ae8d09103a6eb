//! Persistent dead-letter log: quarantined lines as JSONL.
//!
//! Under `--state-dir` the network sources append every line they
//! dead-letter here (the `dead-letter` overload policy), one JSON object
//! per line, so the operator keeps a record that survives the process and
//! can replay it after a fix. The file is a size-capped [`RotatingLog`]: past the cap it
//! rotates to `<name>.1` (one previous generation is retained), and every
//! byte rotation deletes is counted in `dlq_bytes_dropped`. A crash
//! mid-append loses at most the torn record, which the next open cuts.

use super::rotate::RotatingLog;
use super::DurabilityError;
use crate::metrics::PipelineMetrics;
use monilog_model::trace::json_string;
use std::path::PathBuf;
use std::sync::Arc;

/// A line the sources dead-lettered on overload, with enough context to
/// triage or replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    pub seq: u64,
    /// Materialized from the arena-backed line: dead letters outlive
    /// arrival buffers, so they own their bytes.
    pub line: String,
}

/// Rotated generations kept.
const RETAIN: usize = 1;

/// Append-side handle to the JSONL dead-letter file.
pub struct DeadLetterLog {
    file: RotatingLog,
}

impl DeadLetterLog {
    /// Open (creating parent directories if needed) the log at `path`,
    /// rotating past `cap_bytes`; bytes rotation deletes are counted in
    /// `metrics.dlq_bytes_dropped`.
    pub fn open(
        path: impl Into<PathBuf>,
        cap_bytes: u64,
        metrics: Arc<PipelineMetrics>,
    ) -> Result<DeadLetterLog, DurabilityError> {
        Ok(DeadLetterLog {
            file: RotatingLog::open(path, cap_bytes, RETAIN, metrics, |m| &m.dlq_bytes_dropped)?,
        })
    }

    /// Append letters, rotating first if the file is over its cap. Each
    /// append is fsync'd — quarantine is rare and must survive a crash.
    pub fn append(&self, letters: &[DeadLetter]) -> Result<(), DurabilityError> {
        let mut buf = String::new();
        for l in letters {
            buf.push_str(&render(l));
            buf.push('\n');
        }
        self.file.append_text(&buf)
    }
}

/// One JSON line. `shard`, `reason` and `attempts` are constants: an
/// overload diversion happens before routing and before any parse attempt,
/// and the fields keep the file's shape for the tools that read it.
fn render(l: &DeadLetter) -> String {
    format!(
        "{{\"seq\":{},\"shard\":null,\"line\":{},\"reason\":\"overload\",\"attempts\":0}}",
        l.seq,
        json_string(&l.line),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monilog-dlq-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("dead_letters.jsonl")
    }

    fn letter(seq: u64, line: &str) -> DeadLetter {
        DeadLetter {
            seq,
            line: line.to_string(),
        }
    }

    fn seqs(text: &str) -> Vec<u64> {
        text.lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"seq\":").expect("a rendered letter");
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect()
    }

    #[test]
    fn append_load_round_trips_including_nasty_lines() {
        let path = tmp_path("roundtrip");
        let log = DeadLetterLog::open(&path, 1 << 20, PipelineMetrics::shared()).unwrap();
        let letters: Vec<DeadLetter> = vec![
            letter(1, "plain poison"),
            letter(2, "embedded \"quotes\" and \\backslashes\\"),
            letter(3, "looks like json: {\"reason\":\"panic\",\"attempts\":9}"),
            letter(4, "newline\nand\ttab and control\u{1}char"),
            letter(5, "unicode: héllo wörld — ☃"),
        ];
        log.append(&letters).unwrap();
        // A second process appends more; both batches are on disk.
        let log2 = DeadLetterLog::open(&path, 1 << 20, PipelineMetrics::shared()).unwrap();
        log2.append(&[letter(6, "later")]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"seq":1,"shard":null,"line":"plain poison","reason":"overload","attempts":0}"#,
                r#"{"seq":2,"shard":null,"line":"embedded \"quotes\" and \\backslashes\\","reason":"overload","attempts":0}"#,
                r#"{"seq":3,"shard":null,"line":"looks like json: {\"reason\":\"panic\",\"attempts\":9}","reason":"overload","attempts":0}"#,
                r#"{"seq":4,"shard":null,"line":"newline\nand\ttab and control\u0001char","reason":"overload","attempts":0}"#,
                r#"{"seq":5,"shard":null,"line":"unicode: héllo wörld — ☃","reason":"overload","attempts":0}"#,
                r#"{"seq":6,"shard":null,"line":"later","reason":"overload","attempts":0}"#,
            ]
        );
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped() {
        let path = tmp_path("torn");
        let log = DeadLetterLog::open(&path, 1 << 20, PipelineMetrics::shared()).unwrap();
        log.append(&[letter(1, "ok one"), letter(2, "ok two")])
            .unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":3,\"shard\":null,\"line\":\"cut of")
            .unwrap();
        drop(f);
        // The next process cuts the fragment before its first append.
        let log = DeadLetterLog::open(&path, 1 << 20, PipelineMetrics::shared()).unwrap();
        log.append(&[letter(4, "ok four")]).unwrap();
        assert_eq!(seqs(&fs::read_to_string(&path).unwrap()), [1, 2, 4]);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rotation_caps_disk_and_counts_dropped_bytes() {
        let path = tmp_path("rotate");
        let metrics = PipelineMetrics::shared();
        let log = DeadLetterLog::open(&path, 200, Arc::clone(&metrics)).unwrap();
        for batch in 0..20u64 {
            log.append(&[letter(
                batch,
                &format!("poison batch {batch} {}", "x".repeat(40)),
            )])
            .unwrap();
        }
        let current = fs::metadata(&path).unwrap().len();
        assert!(current <= 400, "current file stays near the cap: {current}");
        let rotated = path.with_file_name("dead_letters.jsonl.1");
        assert!(rotated.exists(), "one rotated generation retained");
        assert!(
            PipelineMetrics::get(&metrics.dlq_bytes_dropped) > 0,
            "rotation past the cap counted dropped bytes"
        );
        let text = fs::read_to_string(&rotated).unwrap() + &fs::read_to_string(&path).unwrap();
        let kept = seqs(&text);
        assert!(!kept.is_empty());
        assert!(kept.len() < 20, "rotation dropped the oldest records");
        assert_eq!(*kept.last().unwrap(), 19);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
