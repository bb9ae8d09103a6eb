//! The local file sink: JSONL append with size rotation.
//!
//! The terminal route for low-severity reports ("the rest → TCP/file") and
//! the simplest possible [`Sink`]: append each report's JSON line to a
//! [`RotatingLog`] and fsync. It has no transient failure mode — disk
//! full or permission errors are real I/O errors and surface as
//! retryable (the delivery buffer holds the batch; an operator fixing the
//! disk unblocks the drain). The delivery pipeline writes each route's
//! spill file through a `FileSink` too.

use super::{BufferedReport, Sink, SinkError};
use crate::durable::{DurabilityError, RotatingLog};
use crate::metrics::PipelineMetrics;
use std::path::PathBuf;
use std::sync::Arc;

/// Rotation cap of the file route and of every spill file.
pub const FILE_ROTATE_BYTES: u64 = 16 * 1024 * 1024;
/// Rotated generations the file route and every spill file keep.
pub const FILE_RETAIN: usize = 2;

/// Sink that appends reports to a rotating local JSONL file.
pub struct FileSink {
    log: RotatingLog,
}

impl FileSink {
    /// Open (creating parents) the sink file with a rotation cap and
    /// retained-generation count. Bytes rotation deletes are counted in
    /// `metrics.spill_bytes_dropped`.
    pub fn open(
        path: impl Into<PathBuf>,
        rotate_bytes: u64,
        retain: usize,
        metrics: Arc<PipelineMetrics>,
    ) -> Result<FileSink, DurabilityError> {
        let log = RotatingLog::open(path, rotate_bytes, retain, metrics, |m| {
            &m.spill_bytes_dropped
        })?;
        Ok(FileSink { log })
    }

    /// Append each report's JSON line, fsync'd.
    pub fn append(&self, batch: &[BufferedReport]) -> Result<(), DurabilityError> {
        let mut text = String::new();
        for r in batch {
            text.push_str(&r.body);
            text.push('\n');
        }
        self.log.append_text(&text)
    }
}

impl Sink for FileSink {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn healthcheck(&mut self) -> Result<(), SinkError> {
        // Liveness = the directory is writable; an empty append is a no-op
        // but opening the file exercises the same path.
        self.log
            .append_text("")
            .map_err(|e| SinkError::Retryable(format!("file sink: {e}")))
    }

    fn deliver(&mut self, batch: &[BufferedReport]) -> Result<(), SinkError> {
        self.append(batch)
            .map_err(|e| SinkError::Retryable(format!("file sink append: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::DeliveryClass;
    use std::fs;

    #[test]
    fn appends_jsonl_and_rotates_with_accounting() {
        let dir = std::env::temp_dir().join(format!("monilog-filesink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("reports.jsonl");
        let metrics = PipelineMetrics::shared();
        let mut sink = FileSink::open(&path, 200, 1, Arc::clone(&metrics)).unwrap();
        sink.healthcheck().unwrap();
        for i in 0..20u64 {
            sink.deliver(&[BufferedReport {
                id: i,
                class: DeliveryClass::Log,
                body: format!("{{\"id\":{i},\"pad\":\"{}\"}}", "p".repeat(30)),
            }])
            .unwrap();
        }
        assert!(path.exists());
        assert!(
            PipelineMetrics::get(&metrics.spill_bytes_dropped) > 0,
            "rotation past the cap was accounted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
