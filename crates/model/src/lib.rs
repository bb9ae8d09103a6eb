//! # monilog-model
//!
//! Core data model shared by every MoniLog crate.
//!
//! MoniLog (Vervaet, ICDE 2021) models its input as a *log stream fueled by
//! various log sources*. A log line splits into a **header** (timestamp,
//! source, criticality level — already structured) and a **message** (free
//! text composed of a static *template* and variable parts). This crate
//! defines those types plus the anomaly-report types produced by the
//! detection component and consumed by the classification component.
//!
//! Modules:
//! - [`time`] — millisecond timestamps and the `YYYY-MM-DD HH:MM:SS,mmm`
//!   format used throughout the paper's examples (Fig. 2).
//! - [`severity`] — log criticality levels.
//! - [`line`] — arena-backed log lines: UTF-8 views over refcounted
//!   arrival buffers (the zero-copy ingest currency).
//! - [`log`] — raw lines, headers, records.
//! - [`header`] — header parsing (Fig. 2, left-to-right field extraction).
//! - [`template`] — parsed message templates (static tokens + wildcards).
//! - [`event`] — structured events flowing between pipeline stages.
//! - [`anomaly`] — anomaly kinds, reports, criticality levels (Section V).
//! - [`structured`] — extraction of embedded JSON / `key=value` payloads
//!   (the Section IV "preliminary step" recommendation).
//! - [`tokenize`] — whitespace tokenization helpers shared by parsers and
//!   metrics (a *token* is "a sequence delimited by spaces", Section IV).
//! - [`codec`] — the small versioned binary codec behind template-store and
//!   detector-checkpoint persistence, plus the CRC-32 used to frame
//!   durable journal records and checkpoint files.
//! - [`checkpoint`] — the checkpoint manifest: journal replay positions +
//!   named opaque state sections, CRC-framed for crash safety.
//! - [`trace`] — trace identities and anomaly provenance (the per-line
//!   evidence trail behind each report).
//! - [`affinity`] — best-effort thread-per-core pinning, shared by the
//!   shard workers and the detectors' forward-pass workers.
//! - [`hash`] — FNV-1a, the stable string hash behind hot-path maps,
//!   routing keys and rendezvous placement.

pub mod affinity;
pub mod anomaly;
pub mod checkpoint;
pub mod codec;
pub mod event;
pub mod hash;
pub mod header;
pub mod line;
pub mod log;
pub mod severity;
pub mod structured;
pub mod template;
pub mod time;
pub mod tokenize;
pub mod trace;

pub use anomaly::{AnomalyKind, AnomalyReport, Criticality, DeliveryClass};
pub use checkpoint::{CheckpointManifest, JournalPosition};
pub use codec::{crc32, put_frame, split_frame, CodecError, Decoder, Encoder, MAX_FRAME_BYTES};
pub use event::{EventId, LogEvent, SessionKey};
pub use header::{parse_header, HeaderFormat, HeaderParseError};
pub use line::ByteLine;
pub use log::{LogHeader, LogRecord, RawLog, SourceId};
pub use severity::Severity;
pub use structured::{extract_structured, StructuredPayload};
pub use template::{render_tokens, Template, TemplateId, TemplateStore, TemplateToken};
pub use time::Timestamp;
pub use trace::{Provenance, ScoreComponent, TraceId};
