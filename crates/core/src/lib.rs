//! # monilog-core
//!
//! The end-to-end MoniLog pipeline of Fig. 1: a multi-source raw log
//! stream in, a stream of classified anomalies out.
//!
//! ```text
//!  sources ──▶ dedup ──▶ reorder ──▶ header parse ──▶ payload extract
//!          ──▶ template parse (Drain) ──▶ window ──▶ detect ──▶ classify
//! ```
//!
//! Lifecycle: construct a [`MoniLog`] from a [`MoniLogConfig`]; feed a
//! normal (or labeled) stream through [`MoniLog::ingest_training`] and
//! call [`MoniLog::train`]; then feed live logs through
//! [`MoniLog::ingest`], which yields [`ClassifiedAnomaly`] reports as
//! windows close. Administrator feedback flows back through
//! [`MoniLog::feedback_move`] / [`MoniLog::feedback_criticality`] —
//! Section V's passive training.

pub mod cli;
pub mod durable;
mod pipeline;
pub mod windowing;

pub use durable::{DeliverySetup, DurableConfig, DurableMoniLog, RecoveryStats};
pub use pipeline::{
    ClassifiedAnomaly, DetectorChoice, HeaderFormatChoice, MoniLog, MoniLogConfig,
    ObservabilityConfig,
};
pub use windowing::WindowPolicy;

// Re-export the component crates so downstream users (and the examples)
// need only one dependency.
pub use monilog_classify as classify;
pub use monilog_detect as detect;
pub use monilog_model as model;
pub use monilog_parse as parse;
pub use monilog_stream as stream;
