//! Pipeline observability counters.
//!
//! Cheap, shareable atomics — stages on different threads bump them
//! without coordination; the monitoring loop reads a consistent-enough
//! snapshot.
//!
//! Every counter is declared once, in the `counters!` table below: its
//! name is the [`PipelineMetrics`] field, the `monilog_<name>_total`
//! series on `/metrics`, the `/metrics.json` key and the `name=value`
//! pair of the one-line summary; its help text is the field's doc and the
//! series' `# HELP` line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares [`PipelineMetrics`] from `name: "help"` rows: one
/// `AtomicU64` field per row, [`PipelineMetrics::COUNTERS`] and
/// [`PipelineMetrics::counter_values`] in row order.
macro_rules! counters {
    ($($name:ident: $help:literal,)*) => {
        /// Shared counters of one pipeline run.
        #[derive(Debug, Default)]
        pub struct PipelineMetrics {
            $(#[doc = $help] pub $name: AtomicU64,)*
        }

        impl PipelineMetrics {
            /// `(name, help)` for every counter, in declaration order.
            pub const COUNTERS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($name), $help),)*];

            /// `(name, value)` for every counter, in declaration order. The
            /// stable vocabulary used by [`crate::observe::MetricsSnapshot`]
            /// renderings.
            pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), Self::get(&self.$name)),)*]
            }
        }
    };
}

counters! {
    // Ingestion and parsing.
    lines_ingested: "Raw lines accepted into the pipeline.",
    lines_parsed: "Lines that produced a parse outcome.",
    header_errors: "Lines whose header failed to parse.",
    duplicates_dropped: "Lines suppressed by the dedup filter.",
    templates_discovered: "New templates minted by the parser.",
    anomalies_reported: "Anomaly reports emitted downstream.",
    cache_hits: "Drain match-cache hits (published per closed-window batch).",
    cache_misses: "Drain match-cache misses; hit rate = hits / (hits + misses).",
    // Detector model health, published per closed-window batch.
    detector_memo_hits: "Detector samples answered from the verdict memo.",
    detector_memo_misses: "Detector samples sent through the model (not in the memo).",
    detector_parallel_passes: "Forward passes with enough rows to be split across cores.",
    // Durability (`crate::durable`).
    checkpoints_written: "Durable pipeline checkpoints committed to the state directory.",
    journal_bytes: "Bytes appended to the write-ahead ingest journal.",
    journal_syncs: "Write-ahead journal fsyncs performed by group commits.",
    recovery_replayed_lines: "Journal lines replayed during crash recovery.",
    // Anomaly delivery (`crate::sinks`).
    reports_accepted: "Reports durably appended to a delivery buffer (they survive SIGKILL).",
    reports_delivered: "Reports acknowledged by a sink.",
    delivery_retries: "Failed delivery attempts that will be retried with backoff.",
    delivery_failures: "Reports diverted to the spill file after a fatal sink error.",
    reports_spilled: "Reports written to a spill file (fatal error or breaker open past grace).",
    breaker_opened: "Circuit-breaker transitions into Open (sink quarantined).",
    breaker_half_open: "Circuit-breaker transitions into HalfOpen (probe allowed).",
    spill_bytes_dropped: "Bytes deleted when a spill file or the file route rotated past its cap.",
    dlq_bytes_dropped: "Bytes deleted when the dead-letter log rotated past its cap.",
    // Network sources (`crate::sources`).
    sources_connections: "TCP connections accepted by the syslog and HTTP ingest listeners.",
    sources_disconnects: "TCP connections closed by the syslog and HTTP ingest listeners.",
    sources_lines: "Lines accepted into the ingest queue across every network source.",
    sources_lines_shed: "Lines dropped at the source boundary by a full queue.",
    sources_dead_lettered: "Lines diverted to the dead-letter log at the source boundary.",
    sources_frame_errors: "Framing failures: octet-count desync, oversized lines, torn frames.",
    sources_paused: "Times a TCP connection or file tail paused reads on a full queue.",
    sources_http_rejected: "HTTP ingest requests refused with 413/429/408.",
    sources_udp_truncated: "UDP datagrams that filled the receive buffer (probably truncated).",
    // Live ops surface (`crate::ops`).
    config_reloads_applied: "Hot config snapshots accepted (SIGHUP or POST /config).",
    config_reload_rejected: "Reload attempts refused with the previous snapshot left in place.",
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

    /// The help text of counter `name` (`None` for an unknown name).
    pub fn help(name: &str) -> Option<&'static str> {
        Self::COUNTERS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, help)| *help)
    }

    /// Typed counters-only snapshot (no stage histograms — use
    /// [`crate::observe::MetricsRegistry::snapshot`] for those). Its
    /// `Display` impl keeps the old one-line human-readable form.
    pub fn snapshot(&self) -> crate::observe::MetricsSnapshot {
        crate::observe::MetricsSnapshot {
            counters: self.counter_values(),
            stages: Vec::new(),
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
        let names: std::collections::BTreeSet<&str> =
            PipelineMetrics::COUNTERS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), PipelineMetrics::COUNTERS.len(), "names unique");
        for (name, help) in PipelineMetrics::COUNTERS {
            assert!(s.contains(&format!("{name}=0")), "{name} missing from {s}");
            assert_eq!(snap.counter(name), Some(0), "{name} missing from snapshot");
            assert!(!help.is_empty() && !help.contains('\n'), "{name}: {help:?}");
            assert_eq!(PipelineMetrics::help(name), Some(*help));
        }
        assert_eq!(snap.counters.len(), 35);
        assert_eq!(PipelineMetrics::help("no_such_counter"), None);
    }
}
