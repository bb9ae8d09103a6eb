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

/// Why a line ended up in the dead-letter log. The sources only divert
/// on overload; the other reasons stay in the on-disk vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Every parse attempt (original + retries) panicked.
    Panic,
    /// The ingest queue was saturated under the `DeadLetter` policy.
    Overload,
    /// The line was in flight when its worker crashed.
    WorkerCrash,
}

/// A dead-lettered line with enough context to triage or replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    pub seq: u64,
    /// The shard that was handling the line; `None` when it never entered
    /// the pipeline (overload diversion happens before routing).
    pub shard: Option<usize>,
    /// Materialized from the arena-backed line: dead letters outlive
    /// arrival buffers, so they own their bytes.
    pub line: String,
    pub reason: FailureReason,
    /// Parse attempts made (0 when the line was never attempted).
    pub attempts: u32,
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

fn reason_str(reason: FailureReason) -> &'static str {
    match reason {
        FailureReason::Panic => "panic",
        FailureReason::Overload => "overload",
        FailureReason::WorkerCrash => "worker_crash",
    }
}

fn render(l: &DeadLetter) -> String {
    let shard = match l.shard {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\":{},\"shard\":{},\"line\":{},\"reason\":\"{}\",\"attempts\":{}}}",
        l.seq,
        shard,
        json_string(&l.line),
        reason_str(l.reason),
        l.attempts
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
            shard: if seq.is_multiple_of(2) {
                Some(seq as usize % 4)
            } else {
                None
            },
            line: line.to_string(),
            reason: match seq % 3 {
                0 => FailureReason::Panic,
                1 => FailureReason::Overload,
                _ => FailureReason::WorkerCrash,
            },
            attempts: seq as u32 % 5,
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
                r#"{"seq":1,"shard":null,"line":"plain poison","reason":"overload","attempts":1}"#,
                r#"{"seq":2,"shard":2,"line":"embedded \"quotes\" and \\backslashes\\","reason":"worker_crash","attempts":2}"#,
                r#"{"seq":3,"shard":null,"line":"looks like json: {\"reason\":\"panic\",\"attempts\":9}","reason":"panic","attempts":3}"#,
                r#"{"seq":4,"shard":0,"line":"newline\nand\ttab and control\u0001char","reason":"overload","attempts":4}"#,
                r#"{"seq":5,"shard":null,"line":"unicode: héllo wörld — ☃","reason":"worker_crash","attempts":0}"#,
                r#"{"seq":6,"shard":2,"line":"later","reason":"panic","attempts":1}"#,
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
