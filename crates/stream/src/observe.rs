//! Pipeline observability: stage latency histograms and typed metric
//! snapshots.
//!
//! The paper frames MoniLog as an *automated monitoring* system, and its
//! planned experiments (§V) hinge on the parser being "the most efficient
//! existing parsing solution" — a claim that is unfalsifiable without
//! first-class latency instrumentation. This module provides it:
//!
//! - [`LatencyHistogram`] — a lock-free log-linear histogram with fixed
//!   bucket boundaries. Stages on any thread record durations with a few
//!   relaxed atomic adds; readers estimate p50/p95/p99 from the buckets
//!   and read the exact max.
//! - [`Stage`] — the instrumented pipeline stages (ingest, merge/dedup,
//!   parse, window assembly, detect, classify).
//! - [`MetricsRegistry`] — one histogram per stage on top of the
//!   [`PipelineMetrics`] counters.
//! - [`MetricsSnapshot`] — a typed, serializable point-in-time view that
//!   renders to Prometheus text format and JSON (see [`crate::export`]
//!   for the HTTP endpoint).
//!
//! ## Bucket scheme
//!
//! Durations are recorded in nanoseconds into log-linear buckets: each
//! power-of-two octave from 2^10 ns (≈1 µs) to 2^33 ns (≈8.6 s) is split
//! into 4 linear sub-buckets, bracketed by an underflow bucket (< 1.024 µs)
//! and an overflow bucket. Bucket boundaries are fixed at compile time, so
//! histograms from different runs and different shards are directly
//! mergeable and the relative quantile error is bounded by the sub-bucket
//! width (≤ 25%, plus exact max).

use crate::metrics::PipelineMetrics;
use monilog_model::TraceId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// First instrumented octave: values below `2^MIN_EXP` ns share the
/// underflow bucket.
const MIN_EXP: u32 = 10;
/// Last instrumented octave: values at or above `2^(MAX_EXP + 1)` ns share
/// the overflow bucket.
const MAX_EXP: u32 = 33;
/// Linear sub-buckets per octave (2^SUB_BITS).
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Underflow + (octaves × sub-buckets) + overflow.
pub const N_BUCKETS: usize = 2 + (MAX_EXP - MIN_EXP + 1) as usize * SUBS;

/// An instrumented pipeline stage: the label of its latency histogram and
/// of the spans a sampled line records in it (see [`crate::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Raw-line admission: dedup check and header parse.
    Ingest,
    /// Stream merging: reorder-buffer push and release.
    MergeDedup,
    /// Template parsing (payload extraction + Drain), execution only.
    Parse,
    /// Window assembly (session/tumbling bookkeeping per released event).
    WindowAssembly,
    /// Detector predict/score per closed window.
    Detect,
    /// Anomaly classification per report.
    Classify,
    /// Durable checkpoint commit: state export + atomic write + fsync.
    Checkpoint,
    /// Sink delivery attempt: one batched `deliver` call to an external
    /// sink (network round-trip included; retries time each attempt).
    Deliver,
}

impl Stage {
    /// Every stage, in pipeline order (the declaration order).
    pub const ALL: [Stage; 8] = [
        Stage::Ingest,
        Stage::MergeDedup,
        Stage::Parse,
        Stage::WindowAssembly,
        Stage::Detect,
        Stage::Classify,
        Stage::Checkpoint,
        Stage::Deliver,
    ];

    /// Stable metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::MergeDedup => "merge_dedup",
            Stage::Parse => "parse_exec",
            Stage::WindowAssembly => "window",
            Stage::Detect => "detect",
            Stage::Classify => "classify",
            Stage::Checkpoint => "checkpoint",
            Stage::Deliver => "deliver",
        }
    }

    /// Position in [`Stage::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Index of the log-linear bucket holding `ns`.
fn bucket_index(ns: u64) -> usize {
    if ns < (1 << MIN_EXP) {
        return 0;
    }
    let exp = 63 - ns.leading_zeros();
    if exp > MAX_EXP {
        return N_BUCKETS - 1;
    }
    let sub = ((ns >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUBS + sub
}

/// Exclusive upper bound (ns) of bucket `i`; `u64::MAX` for the overflow
/// bucket.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        return 1 << MIN_EXP;
    }
    if i >= N_BUCKETS - 1 {
        return u64::MAX;
    }
    let exp = MIN_EXP + ((i - 1) / SUBS) as u32;
    let sub = ((i - 1) % SUBS) as u64;
    (SUBS as u64 + sub + 1) << (exp - SUB_BITS)
}

/// Lock-free latency histogram with fixed log-linear buckets.
///
/// Recording is a handful of relaxed atomic RMWs — safe to call from every
/// pipeline thread on every line. Snapshots are consistent-enough reads
/// (buckets may trail the count by in-flight records), which is the same
/// contract as [`PipelineMetrics`].
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Largest duration recorded with a trace id — the p99 *exemplar*:
    /// a tail latency an operator can resolve to a full span tree via
    /// `GET /trace/{id}` instead of staring at an anonymous percentile.
    exemplar_ns: AtomicU64,
    exemplar_trace: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            exemplar_ns: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record the time elapsed since `start`.
    pub fn record_since(&self, start: Instant) {
        self.record(start.elapsed());
    }

    /// Record one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.record_ns_n(ns, 1);
    }

    /// Record one duration, attaching the trace id as a tail exemplar
    /// when the line was sampled. The exemplar kept is the largest traced
    /// duration seen — a best-effort pairing (the trace id may briefly
    /// disagree with the duration under write races), matching the
    /// relaxed-read contract of the rest of the histogram.
    pub fn record_ns_traced(&self, ns: u64, trace: Option<TraceId>) {
        self.record_ns(ns);
        if let Some(t) = trace {
            let prev = self.exemplar_ns.fetch_max(ns, Ordering::Relaxed);
            if ns >= prev {
                self.exemplar_trace.store(t.0, Ordering::Relaxed);
            }
        }
    }

    /// Record the time since `start`, attaching a trace exemplar if
    /// sampled.
    pub fn record_since_traced(&self, start: Instant, trace: Option<TraceId>) {
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.record_ns_traced(ns, trace);
    }

    /// Record the same duration `n` times in O(1).
    pub fn record_ns_n(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(ns)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot with quantile estimates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 { estimate_quantile(&buckets, count, max_ns, q) };
        let mut cumulative = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            if n > 0 {
                cum += n;
                cumulative.push((bucket_bound(i), cum));
            }
        }
        let exemplar_trace = self.exemplar_trace.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns,
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            buckets: cumulative,
            exemplar: (exemplar_trace != 0).then(|| Exemplar {
                trace_id: exemplar_trace,
                ns: self.exemplar_ns.load(Ordering::Relaxed),
            }),
        }
    }
}

/// Quantile estimate from bucket counts: find the bucket holding the
/// target rank and interpolate linearly inside it, clamped to the exact
/// observed max.
fn estimate_quantile(buckets: &[u64], count: u64, max_ns: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if cum + n >= rank {
            let lower = if i == 0 { 0 } else { bucket_bound(i - 1) };
            let upper = bucket_bound(i).min(max_ns.max(lower));
            let frac = (rank - cum) as f64 / n as f64;
            // Saturating math and a final clamp: in the top octave and the
            // overflow bucket `upper - lower` spans most of the u64 range,
            // so the float round-trip can overshoot — and a snapshot race
            // (bucket counts read before a concurrent record updates
            // max_ns) can leave `lower > max_ns`. Either way the estimate
            // must never exceed the exact observed max.
            let est = lower.saturating_add(((upper - lower) as f64 * frac) as u64);
            return est.min(max_ns);
        }
        cum += n;
    }
    max_ns
}

/// A tail-latency exemplar: the largest traced duration a histogram has
/// seen, resolvable to a span tree via `GET /trace/{trace_id}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    pub trace_id: u64,
    pub ns: u64,
}

/// Point-in-time view of one [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    /// Exact maximum recorded value.
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// `(exclusive upper bound ns, cumulative count)` for every non-empty
    /// bucket, in increasing bound order — Prometheus-ready.
    pub buckets: Vec<(u64, u64)>,
    /// Largest traced sample (`None` until a sampled line lands here).
    pub exemplar: Option<Exemplar>,
}

/// Interval throughput gauges derived from two consecutive snapshots.
///
/// `/metrics` counters are cumulative; an operator eyeballing the endpoint
/// (or the one-line `Display` summary) wants *rates*. Each registry
/// snapshot taken at least `MIN_RATE_INTERVAL` (100 ms) after the previous
/// one closes an interval and publishes `Δcount / Δt`. In a live deployment
/// every `/metrics`, `/metrics.json` and `/status` request takes one, so
/// an interval closes on requests at least 100 ms apart; requests closer
/// together repeat the last closed interval's rates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RateSnapshot {
    /// Length of the closed interval in seconds (0.0 until two spaced
    /// snapshots have been taken).
    pub interval_secs: f64,
    /// Raw lines ingested per second over the last interval.
    pub lines_per_second: f64,
    /// `(stage name, observations per second)` over the last interval, in
    /// pipeline order (empty until the first interval closes).
    pub stages: Vec<(&'static str, f64)>,
}

/// Snapshots closer together than this reuse the previously computed
/// rates instead of publishing a noisy estimate over a near-zero window.
const MIN_RATE_INTERVAL: Duration = Duration::from_millis(100);

/// Counter values at the start of the current rate interval, plus the
/// last closed interval's rates.
#[derive(Debug)]
struct RateWindow {
    prev_at: Option<Instant>,
    prev_lines: u64,
    prev_stage_counts: [u64; Stage::ALL.len()],
    last: RateSnapshot,
}

impl RateWindow {
    fn new() -> Self {
        RateWindow {
            prev_at: None,
            prev_lines: 0,
            prev_stage_counts: [0; Stage::ALL.len()],
            last: RateSnapshot::default(),
        }
    }
}

/// The observability root of one pipeline run: counters and per-stage
/// latency histograms. Shareable across every pipeline
/// thread; all recording is lock-free (the rate window takes a Mutex, but
/// only snapshots touch it).
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Arc<PipelineMetrics>,
    stages: [LatencyHistogram; Stage::ALL.len()],
    rates: Mutex<RateWindow>,
}

impl MetricsRegistry {
    pub fn shared() -> Arc<Self> {
        Arc::new(MetricsRegistry {
            counters: PipelineMetrics::shared(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            rates: Mutex::new(RateWindow::new()),
        })
    }

    /// The shared pipeline counters.
    pub fn counters(&self) -> &Arc<PipelineMetrics> {
        &self.counters
    }

    /// The latency histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage.index()]
    }

    /// Record `start.elapsed()` into a stage histogram.
    pub fn record(&self, stage: Stage, start: Instant) {
        self.stage(stage).record_since(start);
    }

    /// Record `start.elapsed()` into a stage histogram, attaching a trace
    /// exemplar when the line was sampled.
    pub fn record_traced(&self, stage: Stage, start: Instant, trace: Option<TraceId>) {
        self.stage(stage).record_since_traced(start, trace);
    }

    /// Record `end - start` into a stage histogram — the chained-clock
    /// variant of [`MetricsRegistry::record_traced`]: adjacent stages
    /// share one `Instant::now` per boundary instead of paying two clock
    /// reads per stage on the per-line hot path.
    pub fn record_between_traced(
        &self,
        stage: Stage,
        start: Instant,
        end: Instant,
        trace: Option<TraceId>,
    ) {
        let ns = end
            .saturating_duration_since(start)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.stage(stage).record_ns_traced(ns, trace);
    }

    /// Time a closure into a stage histogram.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.stage(stage).record_since(start);
        out
    }

    /// Advance the rate window and return the freshest interval rates.
    /// Intervals shorter than [`MIN_RATE_INTERVAL`] keep the previously
    /// closed interval's rates rather than divide by a near-zero Δt.
    fn tick_rates(&self) -> RateSnapshot {
        let lines = PipelineMetrics::get(&self.counters.lines_ingested);
        let stage_counts: [u64; Stage::ALL.len()] = std::array::from_fn(|i| self.stages[i].count());
        let now = Instant::now();
        let mut w = self.rates.lock().unwrap();
        match w.prev_at {
            None => {
                w.prev_at = Some(now);
                w.prev_lines = lines;
                w.prev_stage_counts = stage_counts;
            }
            Some(prev) => {
                let elapsed = now.saturating_duration_since(prev);
                if elapsed >= MIN_RATE_INTERVAL {
                    let secs = elapsed.as_secs_f64();
                    w.last = RateSnapshot {
                        interval_secs: secs,
                        lines_per_second: lines.saturating_sub(w.prev_lines) as f64 / secs,
                        stages: Stage::ALL
                            .iter()
                            .enumerate()
                            .map(|(i, s)| {
                                let d = stage_counts[i].saturating_sub(w.prev_stage_counts[i]);
                                (s.name(), d as f64 / secs)
                            })
                            .collect(),
                    };
                    w.prev_at = Some(now);
                    w.prev_lines = lines;
                    w.prev_stage_counts = stage_counts;
                }
            }
        }
        w.last.clone()
    }

    /// Typed point-in-time snapshot of everything the registry tracks.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rates: self.tick_rates(),
            counters: self.counters.counter_values(),
            stages: Stage::ALL
                .iter()
                .map(|s| StageSnapshot {
                    stage: s.name(),
                    latency: self.stage(*s).snapshot(),
                })
                .collect(),
        }
    }
}

/// One stage's latency distribution inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    pub stage: &'static str,
    pub latency: HistogramSnapshot,
}

/// Typed, serializable snapshot of a pipeline's metrics: every counter and
/// every stage latency histogram. Renders to
/// Prometheus text format ([`MetricsSnapshot::to_prometheus`]), JSON
/// ([`MetricsSnapshot::to_json`]), and a one-line human summary
/// (`Display`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every pipeline counter.
    pub counters: Vec<(&'static str, u64)>,
    /// Latency distribution per stage, in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Interval throughput rates (zero until two spaced snapshots close
    /// an interval — the exporter's refresh tick does this live).
    pub rates: RateSnapshot,
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Format a float the way Prometheus expects (no exponent surprises, no
/// trailing leftover zeros beyond precision).
fn fmt_seconds(ns: u64) -> String {
    let mut s = format!("{:.9}", seconds(ns));
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

impl MetricsSnapshot {
    /// Render in Prometheus text exposition format. Counters become
    /// `monilog_<name>_total` with the `# HELP` line of their declaration
    /// (see [`crate::metrics`]), stage histograms become
    /// `monilog_stage_latency_seconds{stage="..."}` with cumulative `le`
    /// buckets.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            if let Some(help) = PipelineMetrics::help(name) {
                out.push_str(&format!("# HELP monilog_{name}_total {help}\n"));
            }
            out.push_str(&format!(
                "# TYPE monilog_{name}_total counter\nmonilog_{name}_total {value}\n"
            ));
        }
        out.push_str("# TYPE monilog_stage_latency_seconds histogram\n");
        for s in &self.stages {
            let stage = s.stage;
            for (bound, cum) in &s.latency.buckets {
                let le = if *bound == u64::MAX {
                    "+Inf".to_string()
                } else {
                    fmt_seconds(*bound)
                };
                out.push_str(&format!(
                    "monilog_stage_latency_seconds_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "monilog_stage_latency_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}\n",
                s.latency.count
            ));
            out.push_str(&format!(
                "monilog_stage_latency_seconds_sum{{stage=\"{stage}\"}} {}\n",
                fmt_seconds(s.latency.sum_ns)
            ));
            out.push_str(&format!(
                "monilog_stage_latency_seconds_count{{stage=\"{stage}\"}} {}\n",
                s.latency.count
            ));
            for (q, v) in [
                ("p50", s.latency.p50_ns),
                ("p95", s.latency.p95_ns),
                ("p99", s.latency.p99_ns),
                ("max", s.latency.max_ns),
            ] {
                out.push_str(&format!(
                    "monilog_stage_latency_{q}_seconds{{stage=\"{stage}\"}} {}\n",
                    fmt_seconds(v)
                ));
            }
            if let Some(e) = s.latency.exemplar {
                out.push_str(&format!(
                    "monilog_stage_latency_exemplar_trace_id{{stage=\"{stage}\"}} {}\n\
                     monilog_stage_latency_exemplar_seconds{{stage=\"{stage}\"}} {}\n",
                    e.trace_id,
                    fmt_seconds(e.ns)
                ));
            }
        }
        if self.rates.interval_secs > 0.0 {
            out.push_str(&format!(
                "# TYPE monilog_lines_per_second gauge\nmonilog_lines_per_second {:.3}\n",
                self.rates.lines_per_second
            ));
            out.push_str("# TYPE monilog_stage_throughput_per_second gauge\n");
            for (stage, rate) in &self.rates.stages {
                out.push_str(&format!(
                    "monilog_stage_throughput_per_second{{stage=\"{stage}\"}} {rate:.3}\n"
                ));
            }
        }
        out
    }

    /// Render as a JSON object:
    /// `{"counters":{...},"stages":{...},"rates":{...}}`. Hand-rolled —
    /// the vendored serde shim has no format layer (see vendor/README.md).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("},\"stages\":{");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = &s.latency;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"buckets\":[",
                s.stage, h.count, h.sum_ns, h.max_ns, h.p50_ns, h.p95_ns, h.p99_ns
            ));
            for (j, (bound, cum)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // u64::MAX is the overflow bucket; emit null for its bound
                // so JSON consumers don't choke on 2^64.
                if *bound == u64::MAX {
                    out.push_str(&format!("[null,{cum}]"));
                } else {
                    out.push_str(&format!("[{bound},{cum}]"));
                }
            }
            match h.exemplar {
                Some(e) => out.push_str(&format!(
                    "],\"exemplar\":{{\"trace_id\":{},\"ns\":{}}}}}",
                    e.trace_id, e.ns
                )),
                None => out.push_str("],\"exemplar\":null}"),
            }
        }
        out.push_str(&format!(
            "}},\"rates\":{{\"interval_secs\":{:.3},\"lines_per_second\":{:.3},\"stages\":{{",
            self.rates.interval_secs, self.rates.lines_per_second
        ));
        for (i, (stage, rate)) in self.rates.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{stage}\":{rate:.3}"));
        }
        out.push_str("}}}");
        out
    }

    /// Value of one counter by name (`None` if absent).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The snapshot of one stage by name (`None` if absent).
    pub fn stage(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .map(|s| &s.latency)
    }
}

impl fmt::Display for MetricsSnapshot {
    /// One-line human-readable summary: every counter, then per-stage
    /// latency quantiles for stages that recorded anything.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        for s in &self.stages {
            if s.latency.count == 0 {
                continue;
            }
            write!(
                f,
                " {}[p50={}us p95={}us p99={}us max={}us]",
                s.stage,
                s.latency.p50_ns / 1_000,
                s.latency.p95_ns / 1_000,
                s.latency.p99_ns / 1_000,
                s.latency.max_ns / 1_000,
            )?;
        }
        if self.rates.interval_secs > 0.0 {
            write!(f, " rates[lines/s={:.1}", self.rates.lines_per_second)?;
            for (stage, rate) in &self.rates.stages {
                if *rate > 0.0 {
                    write!(f, " {stage}/s={rate:.1}")?;
                }
            }
            f.write_str("]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_monotone_and_roundtrip() {
        // Boundaries strictly increase.
        for i in 1..N_BUCKETS - 1 {
            assert!(
                bucket_bound(i) > bucket_bound(i - 1),
                "bound({i}) = {} !> bound({}) = {}",
                bucket_bound(i),
                i - 1,
                bucket_bound(i - 1)
            );
        }
        assert_eq!(bucket_bound(N_BUCKETS - 1), u64::MAX);
        // Every value lands in the bucket whose bounds bracket it.
        for ns in [
            0,
            1,
            1023,
            1024,
            1025,
            4096,
            5000,
            1_000_000,
            999_999_999,
            u64::MAX,
        ] {
            let i = bucket_index(ns);
            // The overflow bucket's bound stands in for +Inf, so its
            // check is inclusive.
            if i < N_BUCKETS - 1 {
                assert!(ns < bucket_bound(i), "ns {ns} >= upper bound of bucket {i}");
            }
            if i > 0 {
                assert!(
                    ns >= bucket_bound(i - 1),
                    "ns {ns} < lower bound of bucket {i}"
                );
            }
        }
        // Exhaustive over the instrumented range (sampled by octave).
        for exp in MIN_EXP..=MAX_EXP {
            for offset in [0u64, 1, (1 << exp) / 3, (1 << exp) - 1] {
                let ns = (1u64 << exp) + offset;
                let i = bucket_index(ns);
                assert!(ns < bucket_bound(i));
                assert!(ns >= bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_estimate_known_distribution() {
        let h = LatencyHistogram::new();
        // 1..=1000 µs uniformly: p50 ≈ 500 µs, p95 ≈ 950 µs, p99 ≈ 990 µs.
        for us in 1..=1000u64 {
            h.record_ns(us * 1_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_ns, 1_000_000);
        let within = |est: u64, truth: u64| {
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(
                err < 0.25,
                "estimate {est} vs truth {truth}: {:.0}% off",
                err * 100.0
            );
        };
        within(s.p50_ns, 500_000);
        within(s.p95_ns, 950_000);
        within(s.p99_ns, 990_000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
    }

    /// Regression for the top-octave interpolation bug: samples saturating
    /// the final (~17 s) bucket and the overflow bucket must report
    /// `p99_ns <= max_ns` exactly. The old code overflowed u64 (debug
    /// panic) interpolating inside the overflow bucket and could overshoot
    /// the observed max in the top octave.
    #[test]
    fn top_octave_quantiles_never_exceed_max() {
        // Saturate the last instrumented bucket (values just below 2^34).
        let h = LatencyHistogram::new();
        let top = (1u64 << 34) - 1; // ≈ 17.18 s
        for i in 0..1000u64 {
            h.record_ns(top - i); // all land in the final octave bucket
        }
        let s = h.snapshot();
        assert_eq!(s.max_ns, top);
        assert!(
            s.p99_ns <= s.max_ns,
            "p99 {} exceeds max {}",
            s.p99_ns,
            s.max_ns
        );
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);

        // A single overflow-bucket sample: interpolation across the
        // [2^34, u64::MAX) range must neither panic nor overshoot.
        let h = LatencyHistogram::new();
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.max_ns, u64::MAX);
        assert!(s.p99_ns <= s.max_ns);

        // Mixed: mostly-normal traffic with a 20 s straggler.
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_ns(1_000_000);
        }
        h.record_ns(20_000_000_000);
        let s = h.snapshot();
        assert!(s.p99_ns <= s.max_ns, "p99 {} > max {}", s.p99_ns, s.max_ns);
        assert_eq!(s.max_ns, 20_000_000_000);
    }

    #[test]
    fn exemplars_track_the_largest_traced_sample() {
        let h = LatencyHistogram::new();
        h.record_ns(50_000); // untraced tail — never an exemplar
        assert_eq!(h.snapshot().exemplar, None);
        h.record_ns_traced(2_000, Some(TraceId(5)));
        h.record_ns_traced(9_000, Some(TraceId(9)));
        h.record_ns_traced(3_000, Some(TraceId(7))); // smaller, ignored
        h.record_ns_traced(4_000, None); // unsampled, ignored
        let s = h.snapshot();
        assert_eq!(
            s.exemplar,
            Some(Exemplar {
                trace_id: 9,
                ns: 9_000
            })
        );
        assert_eq!(s.count, 5, "traced records still count normally");
    }

    #[test]
    fn exemplars_surface_in_renderings() {
        let r = MetricsRegistry::shared();
        let start = Instant::now();
        r.record_traced(Stage::Detect, start, Some(TraceId(33)));
        let s = r.snapshot();
        let e = s.stage("detect").unwrap().exemplar.expect("exemplar set");
        assert_eq!(e.trace_id, 33);
        let prom = s.to_prometheus();
        assert!(
            prom.contains("monilog_stage_latency_exemplar_trace_id{stage=\"detect\"} 33"),
            "{prom}"
        );
        let json = s.to_json();
        assert!(json.contains("\"exemplar\":{\"trace_id\":33,"), "{json}");
        // Stages without a traced sample render a null exemplar.
        assert!(json.contains("\"exemplar\":null"), "{json}");
    }

    #[test]
    fn quantiles_of_empty_and_single() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.p50_ns, s.p99_ns, s.max_ns), (0, 0, 0, 0));
        h.record_ns(5_000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.p50_ns <= 5_120, "single value stays in its bucket");
        assert_eq!(s.max_ns, 5_000);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Arc::new(LatencyHistogram::new());
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record_ns(1_000 + (t * PER_THREAD + i) % 100_000);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, THREADS * PER_THREAD);
        let bucket_total: u64 = s.buckets.last().map(|(_, cum)| *cum).unwrap_or(0);
        assert_eq!(
            bucket_total,
            THREADS * PER_THREAD,
            "no bucket lost a record"
        );
        // Recorded values are 1_000 + x for x in 0..THREADS*PER_THREAD,
        // all below the 100_000 modulus — the max is exact.
        assert_eq!(s.max_ns, 1_000 + (THREADS * PER_THREAD - 1));
    }

    #[test]
    fn registry_snapshot_covers_stages() {
        let r = MetricsRegistry::shared();
        r.time(Stage::Parse, || std::hint::black_box(7 * 6));
        r.stage(Stage::Detect).record(Duration::from_micros(250));
        let s = r.snapshot();
        assert_eq!(s.stages.len(), Stage::ALL.len());
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i, "ALL is in declaration order");
            assert_eq!(s.stages[i].stage, stage.name());
        }
        assert_eq!(s.stage("parse_exec").unwrap().count, 1);
        assert_eq!(s.stage("detect").unwrap().count, 1);
    }

    /// Mirror of `snapshot_mentions_every_counter` for the typed snapshot:
    /// every counter and every stage histogram appears in both renderings.
    #[test]
    fn renderings_mention_every_counter_and_stage() {
        let r = MetricsRegistry::shared();
        PipelineMetrics::incr(&r.counters().lines_ingested);
        r.stage(Stage::Ingest).record(Duration::from_micros(3));
        let s = r.snapshot();
        let prom = s.to_prometheus();
        let json = s.to_json();
        // The caching counters must be part of the stable vocabulary, not
        // just whatever happens to be in `counters`.
        for name in ["cache_hits", "cache_misses"] {
            assert!(
                s.counters.iter().any(|(n, _)| *n == name),
                "{name} missing from snapshot counters"
            );
        }
        for (name, _) in &s.counters {
            assert!(
                prom.contains(&format!("\n# HELP monilog_{name}_total "))
                    || prom.starts_with(&format!("# HELP monilog_{name}_total ")),
                "{name} has no help line: {prom}"
            );
            assert!(
                prom.contains(&format!("\nmonilog_{name}_total ")),
                "{name} missing from prometheus: {prom}"
            );
            assert!(
                json.contains(&format!("\"{name}\":")),
                "{name} missing from json: {json}"
            );
        }
        for stage in Stage::ALL {
            assert!(
                prom.contains(&format!(
                    "monilog_stage_latency_seconds_count{{stage=\"{stage}\"}}"
                )),
                "{stage} missing from prometheus"
            );
            assert!(
                json.contains(&format!("\"{stage}\":{{\"count\":")),
                "{stage} missing from json: {json}"
            );
        }
        // Histogram invariants in the prometheus text: +Inf bucket present
        // and equal to the count.
        assert!(prom.contains("le=\"+Inf\"} 1"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let h = LatencyHistogram::new();
        for us in [2u64, 2, 40, 900] {
            h.record_ns(us * 1_000);
        }
        let s = h.snapshot();
        let mut prev = 0;
        for (_, cum) in &s.buckets {
            assert!(*cum > prev, "cumulative counts must increase");
            prev = *cum;
        }
        assert_eq!(prev, 4);
    }

    #[test]
    fn display_is_one_line_and_complete() {
        let r = MetricsRegistry::shared();
        PipelineMetrics::add(&r.counters().lines_parsed, 5);
        PipelineMetrics::add(&r.counters().cache_hits, 40);
        PipelineMetrics::add(&r.counters().cache_misses, 3);
        r.stage(Stage::Parse).record(Duration::from_micros(10));
        let line = r.snapshot().to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("lines_parsed=5"), "{line}");
        assert!(line.contains("cache_hits=40"), "{line}");
        assert!(line.contains("cache_misses=3"), "{line}");
        assert!(line.contains("parse_exec[p50="), "{line}");
    }

    #[test]
    fn bulk_recording_matches_repeated_single_records() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..5 {
            a.record_ns(3_000);
        }
        b.record_ns_n(3_000, 5);
        b.record_ns_n(9_999, 0); // no-op
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn interval_rates_close_over_spaced_snapshots() {
        let r = MetricsRegistry::shared();
        // First snapshot opens the window: no rates yet.
        let s0 = r.snapshot();
        assert_eq!(s0.rates.interval_secs, 0.0);
        assert!(!s0.to_prometheus().contains("monilog_lines_per_second"));
        PipelineMetrics::add(&r.counters().lines_ingested, 500);
        r.stage(Stage::Parse).record_ns_n(2_000, 500);
        std::thread::sleep(MIN_RATE_INTERVAL + Duration::from_millis(20));
        let s1 = r.snapshot();
        assert!(s1.rates.interval_secs > 0.0, "interval closed");
        assert!(
            s1.rates.lines_per_second > 0.0,
            "lines/s positive: {:?}",
            s1.rates
        );
        let parse_rate = s1
            .rates
            .stages
            .iter()
            .find(|(n, _)| *n == "parse_exec")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(parse_rate > 0.0, "stage throughput positive");
        let prom = s1.to_prometheus();
        assert!(prom.contains("monilog_lines_per_second "), "{prom}");
        assert!(
            prom.contains("monilog_stage_throughput_per_second{stage=\"parse_exec\"}"),
            "{prom}"
        );
        let json = s1.to_json();
        assert!(json.contains("\"rates\":{\"interval_secs\":"), "{json}");
        assert!(json.contains("\"lines_per_second\":"), "{json}");
        let line = s1.to_string();
        assert!(line.contains("rates[lines/s="), "{line}");
        assert!(line.contains("parse_exec/s="), "{line}");
        // A snapshot taken immediately after reuses the closed interval
        // instead of publishing a noisy near-zero-Δt estimate.
        let s2 = r.snapshot();
        assert_eq!(s2.rates, s1.rates);
    }

    #[test]
    fn fmt_seconds_is_prometheus_safe() {
        assert_eq!(fmt_seconds(1_000_000_000), "1.0");
        assert_eq!(fmt_seconds(1_024), "0.000001024");
        assert_eq!(fmt_seconds(0), "0.0");
        assert_eq!(fmt_seconds(500_000_000), "0.5");
    }
}
