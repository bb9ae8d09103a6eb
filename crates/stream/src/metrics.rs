//! Pipeline observability counters.
//!
//! Cheap, shareable atomics — stages on different threads bump them
//! without coordination; the monitoring loop reads a consistent-enough
//! snapshot.
//!
//! ## Counter semantics
//!
//! Ingestion and parsing:
//! - `lines_ingested` — raw lines accepted into the pipeline.
//! - `lines_parsed` — lines that produced a parse outcome.
//! - `header_errors` — lines whose header failed to parse.
//! - `duplicates_dropped` — lines suppressed by the dedup filter.
//! - `templates_discovered` — new templates minted by the parser.
//! - `anomalies_reported` — anomaly reports emitted downstream.
//!
//! Fault tolerance (see [`crate::supervisor`]):
//! - `worker_restarts` — shard workers respawned after a crash; each
//!   restart warm-starts from the shard's last template snapshot.
//! - `lines_quarantined` — lines moved to the dead-letter queue, either
//!   after exhausting parse retries (poison lines) or because they were
//!   in flight when a worker crashed, or shed there by the
//!   `DeadLetter` overload policy.
//! - `lines_shed` — lines dropped at `submit()` by the `ShedToCatchAll`
//!   overload policy and accounted to the reserved catch-all template.
//! - `retries_attempted` — individual parse retry attempts (a line that
//!   succeeds on its second try contributes 1).
//!
//! Batched submit and the Drain match cache (see [`crate::supervisor`]):
//! - `batches_submitted` — batches accepted by `submit_batch` (a single
//!   `submit` counts as a batch of one).
//! - `cache_hits` / `cache_misses` — Drain match-cache outcomes, summed
//!   across shards (the inline pipeline publishes its one parser's per
//!   closed-window batch). Hit rate = hits / (hits + misses).
//!
//! Detector model health (published per closed-window batch):
//! - `detector_memo_hits` — samples the detector answered from its verdict
//!   memo.
//! - `detector_memo_misses` — samples the memo did not hold, i.e. rows sent
//!   through the LSTM. A falling hit rate means the stream's histories
//!   stopped repeating (interleaved sources, template churn).
//! - `detector_parallel_passes` — forward passes with enough rows to be
//!   split across cores.
//!
//! Durability (see [`crate::durable`]):
//! - `checkpoints_written` — durable pipeline checkpoints committed to the
//!   state directory.
//! - `journal_bytes` — bytes appended to the write-ahead ingest journal.
//! - `recovery_replayed_lines` — journal lines replayed into the pipeline
//!   during crash recovery (0 after a graceful drain).
//!
//! Anomaly delivery (see [`crate::sinks`]):
//! - `reports_accepted` — reports durably appended to a delivery buffer
//!   (the point of no loss: accepted reports survive SIGKILL).
//! - `reports_delivered` — reports acknowledged by a sink.
//! - `delivery_retries` — failed delivery attempts that will be retried
//!   with backoff.
//! - `delivery_failures` — reports diverted to the spill file after a
//!   fatal (non-retryable) sink error.
//! - `reports_spilled` — reports written to a local spill file, either on
//!   fatal errors or when a circuit breaker stayed open past its grace
//!   deadline (degraded but never dropped).
//! - `breaker_opened` / `breaker_half_open` — circuit-breaker transitions
//!   into Open (sink quarantined) and HalfOpen (probe allowed).
//! - `spill_bytes_dropped` / `dlq_bytes_dropped` — bytes deleted when a
//!   spill file or the file route, or the dead-letter log, rotated past
//!   its retained-generation cap.
//!
//! Network sources (see [`crate::sources`]):
//! - `sources_connections` / `sources_disconnects` — TCP connections
//!   accepted / closed by the syslog and HTTP ingest listeners (active
//!   connections = the difference).
//! - `sources_lines` — lines accepted into the ingest queue across every
//!   network source.
//! - `sources_lines_shed` — lines dropped at the source boundary by a full
//!   queue (Shed policy, UDP under any policy).
//! - `sources_dead_lettered` — lines diverted to the dead-letter log by
//!   the `DeadLetter` overload policy at the source boundary.
//! - `sources_frame_errors` — framing failures: octet-count desync,
//!   oversized lines, frames torn by a mid-frame disconnect.
//! - `sources_paused` — times a TCP connection or file tail paused reads
//!   because the ingest queue was full (Block policy backpressure).
//! - `sources_http_rejected` — HTTP ingest requests refused with
//!   413/429/408.
//! - `sources_udp_truncated` — UDP datagrams that filled the receive
//!   buffer exactly (probable kernel truncation).
//!
//! Live ops surface (see [`crate::ops`]):
//! - `config_reloads_applied` — hot config snapshots accepted and swapped
//!   in (SIGHUP file re-reads and `POST /config` updates).
//! - `config_reload_rejected` — reload attempts refused with the previous
//!   snapshot left in place (unknown key, unparseable value, unreadable
//!   config file).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters of one pipeline run.
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    pub lines_ingested: AtomicU64,
    pub lines_parsed: AtomicU64,
    pub header_errors: AtomicU64,
    pub duplicates_dropped: AtomicU64,
    pub templates_discovered: AtomicU64,
    pub anomalies_reported: AtomicU64,
    pub worker_restarts: AtomicU64,
    pub lines_quarantined: AtomicU64,
    pub lines_shed: AtomicU64,
    pub retries_attempted: AtomicU64,
    pub batches_submitted: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub detector_memo_hits: AtomicU64,
    pub detector_memo_misses: AtomicU64,
    pub detector_parallel_passes: AtomicU64,
    pub checkpoints_written: AtomicU64,
    pub journal_bytes: AtomicU64,
    pub recovery_replayed_lines: AtomicU64,
    pub reports_accepted: AtomicU64,
    pub reports_delivered: AtomicU64,
    pub delivery_retries: AtomicU64,
    pub delivery_failures: AtomicU64,
    pub reports_spilled: AtomicU64,
    pub breaker_opened: AtomicU64,
    pub breaker_half_open: AtomicU64,
    pub spill_bytes_dropped: AtomicU64,
    pub dlq_bytes_dropped: AtomicU64,
    pub sources_connections: AtomicU64,
    pub sources_disconnects: AtomicU64,
    pub sources_lines: AtomicU64,
    pub sources_lines_shed: AtomicU64,
    pub sources_dead_lettered: AtomicU64,
    pub sources_frame_errors: AtomicU64,
    pub sources_paused: AtomicU64,
    pub sources_http_rejected: AtomicU64,
    pub sources_udp_truncated: AtomicU64,
    pub config_reloads_applied: AtomicU64,
    pub config_reload_rejected: AtomicU64,
}

impl PipelineMetrics {
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// `(name, value)` for every counter, in declaration order. The
    /// stable vocabulary used by [`crate::observe::MetricsSnapshot`]
    /// renderings.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("lines_ingested", Self::get(&self.lines_ingested)),
            ("lines_parsed", Self::get(&self.lines_parsed)),
            ("header_errors", Self::get(&self.header_errors)),
            ("duplicates_dropped", Self::get(&self.duplicates_dropped)),
            (
                "templates_discovered",
                Self::get(&self.templates_discovered),
            ),
            ("anomalies_reported", Self::get(&self.anomalies_reported)),
            ("worker_restarts", Self::get(&self.worker_restarts)),
            ("lines_quarantined", Self::get(&self.lines_quarantined)),
            ("lines_shed", Self::get(&self.lines_shed)),
            ("retries_attempted", Self::get(&self.retries_attempted)),
            ("batches_submitted", Self::get(&self.batches_submitted)),
            ("cache_hits", Self::get(&self.cache_hits)),
            ("cache_misses", Self::get(&self.cache_misses)),
            ("detector_memo_hits", Self::get(&self.detector_memo_hits)),
            (
                "detector_memo_misses",
                Self::get(&self.detector_memo_misses),
            ),
            (
                "detector_parallel_passes",
                Self::get(&self.detector_parallel_passes),
            ),
            ("checkpoints_written", Self::get(&self.checkpoints_written)),
            ("journal_bytes", Self::get(&self.journal_bytes)),
            (
                "recovery_replayed_lines",
                Self::get(&self.recovery_replayed_lines),
            ),
            ("reports_accepted", Self::get(&self.reports_accepted)),
            ("reports_delivered", Self::get(&self.reports_delivered)),
            ("delivery_retries", Self::get(&self.delivery_retries)),
            ("delivery_failures", Self::get(&self.delivery_failures)),
            ("reports_spilled", Self::get(&self.reports_spilled)),
            ("breaker_opened", Self::get(&self.breaker_opened)),
            ("breaker_half_open", Self::get(&self.breaker_half_open)),
            ("spill_bytes_dropped", Self::get(&self.spill_bytes_dropped)),
            ("dlq_bytes_dropped", Self::get(&self.dlq_bytes_dropped)),
            ("sources_connections", Self::get(&self.sources_connections)),
            ("sources_disconnects", Self::get(&self.sources_disconnects)),
            ("sources_lines", Self::get(&self.sources_lines)),
            ("sources_lines_shed", Self::get(&self.sources_lines_shed)),
            (
                "sources_dead_lettered",
                Self::get(&self.sources_dead_lettered),
            ),
            (
                "sources_frame_errors",
                Self::get(&self.sources_frame_errors),
            ),
            ("sources_paused", Self::get(&self.sources_paused)),
            (
                "sources_http_rejected",
                Self::get(&self.sources_http_rejected),
            ),
            (
                "sources_udp_truncated",
                Self::get(&self.sources_udp_truncated),
            ),
            (
                "config_reloads_applied",
                Self::get(&self.config_reloads_applied),
            ),
            (
                "config_reload_rejected",
                Self::get(&self.config_reload_rejected),
            ),
        ]
    }

    /// Typed counters-only snapshot (no stage histograms or shard gauges —
    /// use [`crate::observe::MetricsRegistry::snapshot`] for those). Its
    /// `Display` impl keeps the old one-line human-readable form.
    pub fn snapshot(&self) -> crate::observe::MetricsSnapshot {
        crate::observe::MetricsSnapshot {
            counters: self.counter_values(),
            stages: Vec::new(),
            batch_sizes: crate::observe::SizeSnapshot::default(),
            shards: Vec::new(),
            rates: crate::observe::RateSnapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = PipelineMetrics::shared();
        PipelineMetrics::incr(&m.lines_ingested);
        PipelineMetrics::add(&m.lines_ingested, 4);
        assert_eq!(PipelineMetrics::get(&m.lines_ingested), 5);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let m = PipelineMetrics::shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        PipelineMetrics::incr(&m.lines_parsed);
                    }
                });
            }
        });
        assert_eq!(PipelineMetrics::get(&m.lines_parsed), 4_000);
    }

    #[test]
    fn snapshot_mentions_every_counter() {
        let m = PipelineMetrics::default();
        let snap = m.snapshot();
        let s = snap.to_string();
        for field in [
            "lines_ingested",
            "lines_parsed",
            "header_errors",
            "duplicates_dropped",
            "templates_discovered",
            "anomalies_reported",
            "worker_restarts",
            "lines_quarantined",
            "lines_shed",
            "retries_attempted",
            "batches_submitted",
            "cache_hits",
            "cache_misses",
            "detector_memo_hits",
            "detector_memo_misses",
            "detector_parallel_passes",
            "checkpoints_written",
            "journal_bytes",
            "recovery_replayed_lines",
            "reports_accepted",
            "reports_delivered",
            "delivery_retries",
            "delivery_failures",
            "reports_spilled",
            "breaker_opened",
            "breaker_half_open",
            "spill_bytes_dropped",
            "dlq_bytes_dropped",
            "sources_connections",
            "sources_disconnects",
            "sources_lines",
            "sources_lines_shed",
            "sources_dead_lettered",
            "sources_frame_errors",
            "sources_paused",
            "sources_http_rejected",
            "sources_udp_truncated",
            "config_reloads_applied",
            "config_reload_rejected",
        ] {
            assert!(s.contains(field), "{field} missing from {s}");
            assert!(
                snap.counter(field).is_some(),
                "{field} missing from typed snapshot"
            );
        }
        assert_eq!(snap.counters.len(), 39);
    }

    #[test]
    fn snapshot_reports_fault_tolerance_counters() {
        let m = PipelineMetrics::default();
        PipelineMetrics::incr(&m.worker_restarts);
        PipelineMetrics::add(&m.lines_quarantined, 3);
        PipelineMetrics::add(&m.lines_shed, 7);
        PipelineMetrics::add(&m.retries_attempted, 11);
        let snap = m.snapshot();
        assert_eq!(snap.counter("worker_restarts"), Some(1));
        assert_eq!(snap.counter("lines_quarantined"), Some(3));
        assert_eq!(snap.counter("lines_shed"), Some(7));
        assert_eq!(snap.counter("retries_attempted"), Some(11));
        let s = snap.to_string();
        for field in ["worker_restarts=1", "lines_quarantined=3", "lines_shed=7"] {
            assert!(s.contains(field), "{field} missing from {s}");
        }
    }
}
