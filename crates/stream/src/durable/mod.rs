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
//! - [`DeadLetterLog`] — quarantined lines as size-capped JSONL on a
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
pub use dlq::DeadLetterLog;
pub use journal::{Journal, JournalConfig};
pub use rotate::RotatingLog;
pub use signal::{
    install_reload_handler, install_shutdown_handler, reset_shutdown_flag, shutdown_requested,
    take_reload_request, FORCED_EXIT_CODE,
};

use monilog_model::CodecError;
use std::fmt;

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
