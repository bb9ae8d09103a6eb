//! Durable state: the write-ahead ingest journal, the checkpoint store,
//! the one JSONL file type and the dead-letter log on it, and process
//! shutdown signalling.
//!
//! Together these give the streaming pipeline crash recovery across
//! process restarts (ISSUE: "kill -9 at any point; restart loses nothing
//! that was reported and reports nothing twice"):
//!
//! - [`Journal`] — per-source append-only segment files of CRC-framed raw
//!   lines, fsync'd on a group-commit interval. Lines are journaled
//!   *before* they are applied to the pipeline, so anything the pipeline
//!   ever saw is re-readable after a crash. The router keeps its
//!   per-source retention in a journal of its own.
//! - [`CheckpointStore`] — atomic (temp-file + rename) versioned snapshots
//!   of the full pipeline state, previous generation kept as fallback; a
//!   torn or bit-flipped newest checkpoint falls back one generation
//!   instead of failing recovery.
//! - [`RotatingLog`] — every JSONL file (dead letters, delivery spill, the
//!   file route, `anomalies.jsonl`, `config-audit.log`): fsync'd appends,
//!   a torn final line cut on open, optional size rotation whose dropped
//!   bytes go to a counter fixed at open.
//! - [`DeadLetterLog`] — dead-lettered lines as size-capped JSONL on a
//!   [`RotatingLog`], a record that outlives the process.
//! - [`signal`] — SIGTERM/SIGINT latching for graceful drain: quiesce,
//!   final checkpoint, clean exit (a restart then replays zero lines).
//!
//! All failure paths are typed [`DurabilityError`]s — corrupt state never
//! panics the recovery path.

pub mod checkpoint;
pub mod dlq;
pub mod journal;
pub mod rotate;
pub mod signal;

pub use checkpoint::{CheckpointStore, LoadedCheckpoint};
pub use dlq::{DeadLetter, DeadLetterLog, FailureReason};
pub use journal::{Journal, JournalConfig};
pub use rotate::RotatingLog;
pub use signal::{
    install_reload_handler, install_shutdown_handler, reset_shutdown_flag, shutdown_requested,
    take_reload_request, FORCED_EXIT_CODE,
};

use monilog_model::CodecError;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Replace `path` with `bytes` so that a reader, or a restart after a
/// crash, finds the old file or the new one, never a mix: write a `.tmp`
/// sibling, `sync_data` it, rename it over `path`, then fsync the
/// directory so the rename survives a crash too. A failed write removes
/// its `.tmp` file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_data()?;
        fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
        return written;
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    // Best effort: some filesystems refuse to fsync a directory, and the
    // renamed file is complete either way.
    let _ = File::open(dir.unwrap_or(Path::new("."))).and_then(|d| d.sync_all());
    Ok(())
}

/// Why a durability operation failed. Recovery code matches on this to
/// distinguish "no state yet" (fresh start) from "state exists but is
/// unusable" (operator attention).
#[derive(Debug)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// Persisted bytes failed validation (checksum, magic, structure).
    Corrupt(&'static str),
    /// A codec-level decode failure inside otherwise-framed state.
    Codec(CodecError),
    /// Every checkpoint generation on disk failed validation.
    AllCheckpointsCorrupt,
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
            DurabilityError::Codec(e) => write!(f, "durable state decode error: {e}"),
            DurabilityError::AllCheckpointsCorrupt => {
                write!(f, "every checkpoint generation failed validation")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("monilog-write-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("listen-addrs");
        write_atomic(&path, b"old\n").unwrap();
        write_atomic(&path, b"new\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new\n");
        assert_eq!(names(&dir), ["listen-addrs"]);

        // The rename fails (the target is a non-empty directory): the
        // error surfaces and the `.tmp` file is gone with it.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("inside")).unwrap();
        assert!(write_atomic(&blocked, b"x").is_err());
        assert_eq!(names(&dir), ["blocked", "listen-addrs"]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
