//! The live operations surface: queryable report store, `/status` health
//! rollup, and hot config reload.
//!
//! MoniLog's end goal is an operator loop — the system surfaces ranked
//! anomalies so administrators can evaluate and act (Section V). Before
//! this module the only way to see what the monitor decided was tailing
//! `anomalies.jsonl` on the box, and the only way to change its behavior
//! was a restart that drops the warm parser state. Three pieces close
//! that gap, all served from the same epoll event loop as `/metrics`
//! (see [`crate::export`]):
//!
//! - [`ReportStore`] — a bounded in-memory ring of recent
//!   [`AnomalyReport`]s, fed at the emit point and backfilled from
//!   `anomalies.jsonl` on restart, behind `GET /reports` (filter by
//!   `since`/`severity`/`template`/`source`, paginate with `limit`) and
//!   `GET /reports/{id}` (joins the report's provenance to its sampled
//!   trace spans).
//! - [`StatusBoard`] + [`render_status`] — one JSON document scoring the
//!   whole pipeline (`ok | degraded | critical` with machine-readable
//!   reasons): per-stage p99 vs. a latency budget, shard health, breaker
//!   states, WAL/checkpoint lag, queue depth, cache hit rates.
//! - [`ReloadableConfig`] — a versioned atomic-swap snapshot of the
//!   allowlisted runtime knobs, driven by `POST /config` and SIGHUP
//!   (see [`crate::durable::signal`]), audit-logged to the state dir,
//!   and consulted by the ingest loop each batch — zero restart, zero
//!   dropped lines.
//!
//! ## Why only these keys reload
//!
//! The allowlist ([`RELOADABLE_KEYS`]) is exactly the set of knobs whose
//! consumers re-read them per batch or per operation: overload policy
//! (checked at the source boundary per line), trace sampling (relaxed
//! atomic read per line), severity routing (consulted per emitted
//! report), ingest batching (re-read per `recv_batch` call), and the
//! sink retry cap (read per backoff computation). Everything else —
//! listener addresses, shard counts, state directory, journal layout —
//! is structural: changing it means re-binding sockets or re-sharding
//! state, which is a restart, not a reload.

use crate::config::OverloadPolicy;
use crate::metrics::PipelineMetrics;
use crate::observe::MetricsSnapshot;
use crate::supervisor::ShardHealth;
use crate::trace::Tracer;
use monilog_model::trace::json_string;
use monilog_model::{AnomalyReport, Criticality, TraceId};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default bound on the in-memory report ring.
pub const DEFAULT_REPORT_CAPACITY: usize = 1024;
/// Default `limit` for `GET /reports` when the query does not set one.
pub const DEFAULT_REPORT_LIMIT: usize = 100;
/// Hard cap on `limit` (a query asking for more is a 400).
pub const MAX_REPORT_LIMIT: usize = 1000;
/// Default per-stage p99 latency budget for the `/status` rollup, in
/// milliseconds. Generous on purpose: checkpoint fsyncs and sink
/// round-trips are instrumented stages too.
pub const DEFAULT_LATENCY_BUDGET_MS: u64 = 250;

/// Parse a CLI-style criticality name (`low` | `moderate` | `high`).
pub fn parse_criticality(s: &str) -> Result<Criticality, String> {
    match s {
        "low" => Ok(Criticality::Low),
        "moderate" => Ok(Criticality::Moderate),
        "high" => Ok(Criticality::High),
        other => Err(format!(
            "unknown criticality {other:?} (expected low|moderate|high)"
        )),
    }
}

// ---------------------------------------------------------------------------
// Report store
// ---------------------------------------------------------------------------

/// One report as the store keeps it: the raw JSON line (exactly what
/// `anomalies.jsonl` holds) plus the indexed fields queries filter on.
///
/// `severity` is a *live-classification* attribute: it is known when the
/// report flows through the emit path but is not part of the durable
/// JSON record, so reports backfilled after a restart carry `None` and
/// only match queries without a severity filter.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredReport {
    pub id: u64,
    pub severity: Option<Criticality>,
    /// Distinct template ids (events ∪ provenance), ascending.
    pub template_ids: Vec<u64>,
    /// Distinct contributing source ids, ascending.
    pub source_ids: Vec<u64>,
    /// Provenance trace ids, resolvable to spans while they remain in
    /// the flight recorder.
    pub trace_ids: Vec<u64>,
    /// The full report JSON, byte-identical to the `anomalies.jsonl` line.
    pub json: String,
}

impl StoredReport {
    /// Index a live report at the emit point, where classification has
    /// already assigned a criticality.
    pub fn from_report(report: &AnomalyReport, severity: Criticality) -> StoredReport {
        Self::from_rendered(report, severity, report.to_json())
    }

    /// [`StoredReport::from_report`] for a caller that already rendered
    /// the report: `json` must be `report.to_json()`.
    pub fn from_rendered(
        report: &AnomalyReport,
        severity: Criticality,
        json: String,
    ) -> StoredReport {
        let mut template_ids: Vec<u64> =
            report.events.iter().map(|e| e.template.0 as u64).collect();
        template_ids.extend(report.provenance.template_ids.iter().map(|&t| t as u64));
        template_ids.sort_unstable();
        template_ids.dedup();
        StoredReport {
            id: report.id,
            severity: Some(severity),
            template_ids,
            source_ids: report.sources().iter().map(|s| s.0 as u64).collect(),
            trace_ids: report.provenance.trace_ids.iter().map(|t| t.0).collect(),
            json,
        }
    }

    /// Re-index one `anomalies.jsonl` line on restart. A string scan over
    /// the exact key layout [`AnomalyReport::to_json`] emits — key
    /// patterns are quoted, and quotes inside JSON string values are
    /// escaped, so a pattern like `"events":[` cannot match inside one.
    pub fn from_json_line(line: &str) -> Option<StoredReport> {
        let line = line.trim();
        if !line.starts_with('{') {
            return None;
        }
        let id = num_after(line, "{\"id\":")?;
        let events_start = line.find("\"events\":[")?;
        let prov_start = line.find("\"provenance\":{")?;
        let events = line.get(events_start..prov_start)?;
        let mut template_ids = nums_after_each(events, "\"template\":");
        let mut source_ids = nums_after_each(events, "\"source\":");
        let prov = &line[prov_start..];
        template_ids.extend(nums_in_array(prov, "\"template_ids\":["));
        template_ids.sort_unstable();
        template_ids.dedup();
        source_ids.sort_unstable();
        source_ids.dedup();
        Some(StoredReport {
            id,
            severity: None,
            template_ids,
            source_ids,
            trace_ids: nums_in_array(prov, "\"trace_ids\":["),
            json: line.to_string(),
        })
    }

    fn matches(&self, q: &ReportsQuery) -> bool {
        if let Some(since) = q.since {
            if self.id <= since {
                return false;
            }
        }
        if let Some(sev) = q.severity {
            if self.severity != Some(sev) {
                return false;
            }
        }
        if let Some(t) = q.template {
            if !self.template_ids.contains(&t) {
                return false;
            }
        }
        if let Some(s) = q.source {
            if !self.source_ids.contains(&s) {
                return false;
            }
        }
        true
    }
}

/// Parse the decimal number directly after the first occurrence of `key`.
fn num_after(s: &str, key: &str) -> Option<u64> {
    let at = s.find(key)? + key.len();
    let digits: String = s[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Every decimal number directly following any occurrence of `key`.
fn nums_after_each(s: &str, key: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(at) = rest.find(key) {
        rest = &rest[at + key.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(n) = digits.parse() {
            out.push(n);
        }
    }
    out
}

/// The comma-separated numbers of the JSON array opened by `key` (which
/// must end in `[`).
fn nums_in_array(s: &str, key: &str) -> Vec<u64> {
    let Some(at) = s.find(key) else {
        return Vec::new();
    };
    let rest = &s[at + key.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|n| n.trim().parse().ok())
        .collect()
}

/// A parsed `GET /reports` query. Results are returned in ascending id
/// order; clients paginate by passing the last id they saw as `since`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportsQuery {
    /// Only reports with `id > since`.
    pub since: Option<u64>,
    /// Only reports whose live classification matched exactly (backfilled
    /// reports have no severity and never match a severity filter).
    pub severity: Option<Criticality>,
    /// Only reports that involve this template id.
    pub template: Option<u64>,
    /// Only reports with events from this source id.
    pub source: Option<u64>,
    /// At most this many reports (1..=[`MAX_REPORT_LIMIT`]).
    pub limit: usize,
}

impl Default for ReportsQuery {
    fn default() -> Self {
        ReportsQuery {
            since: None,
            severity: None,
            template: None,
            source: None,
            limit: DEFAULT_REPORT_LIMIT,
        }
    }
}

impl ReportsQuery {
    /// Parse the query-string part of `GET /reports?...`. Unknown keys,
    /// duplicate keys, and unparseable values are errors (a 400, not a
    /// silently-empty result set).
    pub fn parse(qs: &str) -> Result<ReportsQuery, String> {
        let mut q = ReportsQuery::default();
        let mut seen = [false; 5];
        let mut take = |slot: usize, key: &str| -> Result<(), String> {
            if seen[slot] {
                return Err(format!("duplicate key {key:?}"));
            }
            seen[slot] = true;
            Ok(())
        };
        for part in qs.split('&') {
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("missing '=' in {part:?}"))?;
            match k {
                "since" => {
                    take(0, k)?;
                    q.since = Some(v.parse().map_err(|_| format!("bad since {v:?}"))?);
                }
                "severity" => {
                    take(1, k)?;
                    q.severity = Some(parse_criticality(v)?);
                }
                "template" => {
                    take(2, k)?;
                    q.template = Some(v.parse().map_err(|_| format!("bad template {v:?}"))?);
                }
                "source" => {
                    take(3, k)?;
                    q.source = Some(v.parse().map_err(|_| format!("bad source {v:?}"))?);
                }
                "limit" => {
                    take(4, k)?;
                    let n: usize = v.parse().map_err(|_| format!("bad limit {v:?}"))?;
                    if n == 0 || n > MAX_REPORT_LIMIT {
                        return Err(format!("limit must be 1..={MAX_REPORT_LIMIT}"));
                    }
                    q.limit = n;
                }
                other => return Err(format!("unknown query key {other:?}")),
            }
        }
        Ok(q)
    }

    /// Canonical query-string rendering; `parse` round-trips it.
    pub fn to_query_string(&self) -> String {
        let mut parts = Vec::new();
        if let Some(s) = self.since {
            parts.push(format!("since={s}"));
        }
        if let Some(s) = self.severity {
            parts.push(format!("severity={s}"));
        }
        if let Some(t) = self.template {
            parts.push(format!("template={t}"));
        }
        if let Some(s) = self.source {
            parts.push(format!("source={s}"));
        }
        parts.push(format!("limit={}", self.limit));
        parts.join("&")
    }
}

/// Bounded, indexed ring of the most recent reports. Report ids are
/// assigned densely by the detection stage, so the ring is always in
/// ascending id order and `record` can drop replayed duplicates with one
/// comparison against the newest stored id.
#[derive(Debug)]
pub struct ReportStore {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<StoredReport>>>,
}

impl ReportStore {
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(ReportStore {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        })
    }

    /// Insert one report. Returns false (and stores nothing) when the id
    /// is not newer than the newest stored report — which is exactly what
    /// a journal replay of an already-emitted report looks like.
    pub fn record(&self, report: StoredReport) -> bool {
        let mut ring = self.ring.lock().unwrap();
        if let Some(newest) = ring.back() {
            if report.id <= newest.id {
                return false;
            }
        }
        ring.push_back(Arc::new(report));
        while ring.len() > self.capacity {
            ring.pop_front();
        }
        true
    }

    /// Re-populate from the durable record (`anomalies.jsonl`) on
    /// restart. A missing file is an empty store, not an error. Returns
    /// how many reports were loaded.
    pub fn backfill_from_file(&self, path: &Path) -> std::io::Result<usize> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut n = 0;
        for line in text.lines() {
            if let Some(r) = StoredReport::from_json_line(line) {
                if self.record(r) {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// All matching reports in ascending id order: the total match count
    /// and the first `limit` matches.
    pub fn query(&self, q: &ReportsQuery) -> (usize, Vec<Arc<StoredReport>>) {
        let ring = self.ring.lock().unwrap();
        let mut total = 0;
        let mut out = Vec::new();
        for r in ring.iter() {
            if r.matches(q) {
                total += 1;
                if out.len() < q.limit {
                    out.push(Arc::clone(r));
                }
            }
        }
        (total, out)
    }

    /// Look up one report by id (binary search — the ring is id-sorted).
    pub fn get(&self, id: u64) -> Option<Arc<StoredReport>> {
        let ring = self.ring.lock().unwrap();
        let at = ring.binary_search_by_key(&id, |r| r.id).ok()?;
        Some(Arc::clone(&ring[at]))
    }

    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of the newest stored report (0 when empty).
    pub fn newest_id(&self) -> u64 {
        self.ring.lock().unwrap().back().map_or(0, |r| r.id)
    }
}

fn severity_json(s: Option<Criticality>) -> String {
    match s {
        Some(c) => format!("\"{c}\""),
        None => "null".to_string(),
    }
}

/// The `GET /reports` response body.
pub fn reports_json(total: usize, items: &[Arc<StoredReport>]) -> String {
    let mut out = format!(
        "{{\"total\":{total},\"count\":{},\"reports\":[",
        items.len()
    );
    for (i, r) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"severity\":{},\"report\":{}}}",
            severity_json(r.severity),
            r.json
        ));
    }
    out.push_str("]}");
    out
}

/// The `GET /reports/{id}` response body: the report plus every sampled
/// span its provenance trace ids still resolve to — one HTTP call answers
/// "what fired, from which template, through which stages, and why".
pub fn report_detail_json(r: &StoredReport, tracer: Option<&Tracer>) -> String {
    let mut spans = Vec::new();
    if let Some(t) = tracer {
        for &id in &r.trace_ids {
            for span in t.spans_for(TraceId(id)) {
                spans.push(span.to_json());
            }
        }
    }
    format!(
        "{{\"severity\":{},\"report\":{},\"spans\":[{}]}}",
        severity_json(r.severity),
        r.json,
        spans.join(",")
    )
}

// ---------------------------------------------------------------------------
// Status rollup
// ---------------------------------------------------------------------------

/// Overall pipeline health, worst reason wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusLevel {
    Ok,
    Degraded,
    Critical,
}

impl StatusLevel {
    pub fn name(self) -> &'static str {
        match self {
            StatusLevel::Ok => "ok",
            StatusLevel::Degraded => "degraded",
            StatusLevel::Critical => "critical",
        }
    }
}

/// Health facts only the monitor loop can see — published into the
/// [`StatusBoard`] each batch so the exporter thread renders `/status`
/// without reaching into the pipeline, supervisor, or delivery worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusInputs {
    pub shards_total: usize,
    pub shards_alive: usize,
    pub shards_stalled: usize,
    /// Any shard in crash-loop degradation (supervisor gave up respawning
    /// at full capability).
    pub crash_looping: bool,
    /// Lines waiting in the ingest queue.
    pub ingest_queue_depth: u64,
    /// `(route name, breaker state name)` per delivery route.
    pub breakers: Vec<(String, String)>,
    /// Bytes buffered on disk awaiting delivery.
    pub delivery_pending_bytes: u64,
    /// True while reports are being diverted to spill files.
    pub delivery_spilling: bool,
    pub checkpoint_generation: u64,
    /// Milliseconds since the last committed checkpoint.
    pub checkpoint_age_ms: u64,
    /// Journal bytes appended since the last checkpoint (replay cost of a
    /// crash right now).
    pub wal_lag_bytes: u64,
    /// Cluster router link (`--join` monitors only): `(state, reason)`
    /// from the link supervisor's snapshot. A lost link *degrades* the
    /// monitor — local sources keep flowing — so it reports through the
    /// degraded tier, never as a 503.
    pub router_link: Option<(String, String)>,
}

impl StatusInputs {
    /// Fold a `SupervisedParseService::shard_status()` view into the
    /// shard fields.
    pub fn apply_shard_status(&mut self, shards: &[ShardHealth]) {
        self.shards_total = shards.len();
        self.shards_alive = shards.iter().filter(|h| h.alive).count();
        self.shards_stalled = shards.iter().filter(|h| h.stalled).count();
        self.crash_looping = shards.iter().any(|h| h.degraded);
    }
}

/// Mailbox between the monitor loop (publisher) and the exporter thread
/// (reader): the freshest [`StatusInputs`] plus the latency budget.
#[derive(Debug)]
pub struct StatusBoard {
    inputs: Mutex<StatusInputs>,
    budget_ms: u64,
}

impl StatusBoard {
    pub fn shared(budget_ms: u64) -> Arc<Self> {
        Arc::new(StatusBoard {
            inputs: Mutex::new(StatusInputs::default()),
            budget_ms: budget_ms.max(1),
        })
    }

    pub fn publish(&self, inputs: StatusInputs) {
        *self.inputs.lock().unwrap() = inputs;
    }

    pub fn inputs(&self) -> StatusInputs {
        self.inputs.lock().unwrap().clone()
    }

    pub fn budget_ms(&self) -> u64 {
        self.budget_ms
    }
}

/// Reasons the service should *not* receive traffic — the `GET /readyz`
/// predicate, and the critical tier of [`render_status`]. Empty means
/// ready.
pub fn readiness_reasons(inputs: &StatusInputs) -> Vec<String> {
    let mut reasons = Vec::new();
    if inputs.crash_looping {
        reasons.push("crash-loop degradation: a shard exhausted its respawn budget".to_string());
    }
    if inputs.shards_total > 0 && inputs.shards_stalled == inputs.shards_total {
        reasons.push(format!("all {} shards stalled", inputs.shards_total));
    }
    if inputs.delivery_spilling {
        reasons.push("delivery layer is spilling reports to disk".to_string());
    }
    reasons
}

/// Conditions that degrade the service without making it unready — the
/// degraded tier of [`render_status`], also reported (with a 200) by
/// `GET /readyz` so probes distinguish "healthy" from "limping".
pub fn degraded_reasons(inputs: &StatusInputs) -> Vec<String> {
    let mut reasons = Vec::new();
    if inputs.shards_stalled > 0 && inputs.shards_stalled < inputs.shards_total {
        reasons.push(format!(
            "{}/{} shards stalled",
            inputs.shards_stalled, inputs.shards_total
        ));
    }
    for (route, state) in &inputs.breakers {
        if state != "closed" {
            reasons.push(format!("breaker {route} {state}"));
        }
    }
    if let Some((state, reason)) = &inputs.router_link {
        if state != "connected" {
            // e.g. `router link degraded: router-link-lost` — the monitor
            // keeps serving local sources while the link supervisor
            // reconnects, so this never gates readiness.
            reasons.push(format!("router link {state}: {reason}"));
        }
    }
    reasons
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Reduce a metrics snapshot plus the monitor-published inputs to one
/// `ok | degraded | critical` JSON document with machine-readable
/// reasons. `config_version` is the current [`ReloadableConfig`] version
/// so fleet tooling can confirm a reload landed.
pub fn render_status(
    snap: &MetricsSnapshot,
    inputs: &StatusInputs,
    budget_ms: u64,
    config_version: u64,
) -> (StatusLevel, String) {
    let critical = readiness_reasons(inputs);
    let mut degraded = degraded_reasons(inputs);
    let budget_ns = budget_ms.saturating_mul(1_000_000);
    let mut stages = String::new();
    for (i, s) in snap.stages.iter().enumerate() {
        let over = s.latency.count > 0 && s.latency.p99_ns > budget_ns;
        if over {
            degraded.push(format!(
                "stage {} p99 {:.3}ms over budget {budget_ms}ms",
                s.stage,
                ms(s.latency.p99_ns)
            ));
        }
        if i > 0 {
            stages.push(',');
        }
        stages.push_str(&format!(
            "\"{}\":{{\"count\":{},\"p99_ms\":{:.3},\"max_ms\":{:.3},\"over_budget\":{over}}}",
            s.stage,
            s.latency.count,
            ms(s.latency.p99_ns),
            ms(s.latency.max_ns)
        ));
    }
    let mut breakers = String::new();
    for (i, (route, state)) in inputs.breakers.iter().enumerate() {
        if i > 0 {
            breakers.push(',');
        }
        breakers.push_str(&format!("{}:{}", json_string(route), json_string(state)));
    }
    let cluster = match &inputs.router_link {
        Some((state, reason)) => format!(
            "{{\"router_link\":{},\"reason\":{}}}",
            json_string(state),
            json_string(reason)
        ),
        None => "null".to_string(),
    };
    let level = if !critical.is_empty() {
        StatusLevel::Critical
    } else if !degraded.is_empty() {
        StatusLevel::Degraded
    } else {
        StatusLevel::Ok
    };
    let mut reasons: Vec<String> = critical;
    reasons.extend(degraded);
    let reasons_json: Vec<String> = reasons.iter().map(|r| json_string(r)).collect();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let rate = |part: u64, rest: u64| {
        if part + rest > 0 {
            part as f64 / (part + rest) as f64
        } else {
            0.0
        }
    };
    let hits = counter("cache_hits");
    let misses = counter("cache_misses");
    let hit_rate = rate(hits, misses);
    let memo_hits = counter("detector_memo_hits");
    let memo_misses = counter("detector_memo_misses");
    let memo_hit_rate = rate(memo_hits, memo_misses);
    let dups = counter("duplicates_dropped");
    let dedup_rate = rate(dups, counter("lines_ingested"));
    let json = format!(
        "{{\"status\":\"{}\",\"reasons\":[{}],\"config_version\":{config_version},\
         \"latency_budget_ms\":{budget_ms},\"stages\":{{{stages}}},\
         \"shards\":{{\"total\":{},\"alive\":{},\"stalled\":{},\"crash_looping\":{}}},\
         \"queue\":{{\"depth\":{}}},\
         \"delivery\":{{\"pending_bytes\":{},\"spilling\":{},\"breakers\":{{{breakers}}}}},\
         \"cluster\":{cluster},\
         \"durability\":{{\"checkpoint_generation\":{},\"checkpoint_age_ms\":{},\
         \"wal_lag_bytes\":{}}},\
         \"cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":{hit_rate:.4}}},\
         \"detector\":{{\"memo_hits\":{memo_hits},\"memo_misses\":{memo_misses},\
         \"memo_hit_rate\":{memo_hit_rate:.4},\"parallel_passes\":{}}},\
         \"dedup\":{{\"dropped\":{dups},\"drop_rate\":{dedup_rate:.4}}},\
         \"rates\":{{\"interval_secs\":{:.3},\"lines_per_second\":{:.3}}}}}",
        level.name(),
        reasons_json.join(","),
        inputs.shards_total,
        inputs.shards_alive,
        inputs.shards_stalled,
        inputs.crash_looping,
        inputs.ingest_queue_depth,
        inputs.delivery_pending_bytes,
        inputs.delivery_spilling,
        inputs.checkpoint_generation,
        inputs.checkpoint_age_ms,
        inputs.wal_lag_bytes,
        counter("detector_parallel_passes"),
        snap.rates.interval_secs,
        snap.rates.lines_per_second,
    );
    (level, json)
}

// ---------------------------------------------------------------------------
// Hot config reload
// ---------------------------------------------------------------------------

/// The runtime keys an operator may change without a restart. Names
/// mirror the CLI flags they tune.
pub const RELOADABLE_KEYS: [&str; 7] = [
    "on-overload",
    "trace-sample-rate",
    "page-at",
    "route-critical",
    "batch-lines",
    "batch-deadline-ms",
    "sink-retry-max-ms",
];

/// One immutable configuration generation. The ingest loop fetches the
/// current snapshot each batch ([`ReloadableConfig::current`]) and pushes
/// any changes into the live components; readers never see a torn or
/// partially-applied update.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSnapshot {
    /// Monotonic generation; 0 is the boot snapshot built from the CLI.
    pub version: u64,
    pub on_overload: OverloadPolicy,
    /// Trace one line in N (0 disables span sampling).
    pub trace_sample_rate: u32,
    /// Criticality at or above which reports are paged.
    pub page_at: Criticality,
    /// Which sink gets the Page class (`http` | `tcp` | `file`), `None`
    /// for the default file route.
    pub route_critical: Option<String>,
    /// Max lines drained from the ingest queue per batch.
    pub batch_lines: usize,
    /// Deadline for one ingest batch to fill, in milliseconds.
    pub batch_deadline_ms: u64,
    /// Cap on sink retry backoff, in milliseconds.
    pub sink_retry_max_ms: u64,
}

impl Default for ConfigSnapshot {
    fn default() -> Self {
        ConfigSnapshot {
            version: 0,
            on_overload: OverloadPolicy::Block,
            trace_sample_rate: crate::trace::DEFAULT_SAMPLE_RATE,
            page_at: Criticality::High,
            route_critical: None,
            batch_lines: 512,
            batch_deadline_ms: 50,
            sink_retry_max_ms: 5_000,
        }
    }
}

fn apply_key(snap: &mut ConfigSnapshot, key: &str, value: &str) -> Result<(), String> {
    match key {
        "on-overload" => snap.on_overload = OverloadPolicy::parse(value)?,
        "trace-sample-rate" => {
            snap.trace_sample_rate = value
                .parse()
                .map_err(|_| format!("bad trace-sample-rate {value:?}"))?;
        }
        "page-at" => snap.page_at = parse_criticality(value)?,
        "route-critical" => {
            snap.route_critical = match value {
                "none" => None,
                "http" | "tcp" | "file" => Some(value.to_string()),
                other => {
                    return Err(format!(
                        "unknown route-critical {other:?} (expected http|tcp|file|none)"
                    ))
                }
            };
        }
        "batch-lines" => {
            let n: usize = value
                .parse()
                .map_err(|_| format!("bad batch-lines {value:?}"))?;
            if n == 0 {
                return Err("batch-lines must be positive".to_string());
            }
            snap.batch_lines = n;
        }
        "batch-deadline-ms" => {
            snap.batch_deadline_ms = value
                .parse()
                .map_err(|_| format!("bad batch-deadline-ms {value:?}"))?;
        }
        "sink-retry-max-ms" => {
            snap.sink_retry_max_ms = value
                .parse()
                .map_err(|_| format!("bad sink-retry-max-ms {value:?}"))?;
        }
        other => return Err(format!("key {other:?} is not reloadable")),
    }
    Ok(())
}

/// Split a `POST /config` body or config-file text into key/value pairs.
/// Accepts `&`- and newline-separated `key=value` entries; blank entries
/// and `#` comment lines are skipped; whitespace around keys and values
/// is trimmed (so `key = value` config files read naturally).
pub fn parse_config_pairs(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    for part in text.split(['&', '\n']) {
        let part = part.trim();
        if part.is_empty() || part.starts_with('#') {
            continue;
        }
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("missing '=' in {part:?}"))?;
        pairs.push((k.trim().to_string(), v.trim().to_string()));
    }
    Ok(pairs)
}

/// Versioned atomic-swap runtime configuration with an allowlisted key
/// set, an audit trail in the state dir, and reject-don't-crash
/// semantics: an invalid update (unknown key, bad value, unreadable
/// file) leaves the previous snapshot in place and bumps
/// `config_reload_rejected`.
#[derive(Debug)]
pub struct ReloadableConfig {
    current: Mutex<Arc<ConfigSnapshot>>,
    audit_path: Option<PathBuf>,
    counters: Arc<PipelineMetrics>,
}

impl ReloadableConfig {
    /// Wrap the boot snapshot (version forced to 0). `audit_path` is the
    /// append-only reload journal, conventionally
    /// `<state-dir>/config-audit.log`.
    pub fn shared(
        mut initial: ConfigSnapshot,
        audit_path: Option<PathBuf>,
        counters: Arc<PipelineMetrics>,
    ) -> Arc<Self> {
        initial.version = 0;
        Arc::new(ReloadableConfig {
            current: Mutex::new(Arc::new(initial)),
            audit_path,
            counters,
        })
    }

    /// The current snapshot — an `Arc` clone, safe to read at batch
    /// granularity on the hot path.
    pub fn current(&self) -> Arc<ConfigSnapshot> {
        Arc::clone(&self.current.lock().unwrap())
    }

    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Apply a set of key/value updates as one new snapshot —
    /// all-or-nothing: any invalid key or value rejects the whole update
    /// and keeps the previous snapshot. `origin` tags the audit record
    /// (`post`, `sighup:<path>`).
    pub fn apply_pairs(
        &self,
        pairs: &[(String, String)],
        origin: &str,
    ) -> Result<Arc<ConfigSnapshot>, String> {
        let staged = (|| {
            if pairs.is_empty() {
                return Err("no config keys in update".to_string());
            }
            let mut staged = (*self.current()).clone();
            for (k, v) in pairs {
                apply_key(&mut staged, k, v)?;
            }
            Ok(staged)
        })();
        let mut staged = match staged {
            Ok(s) => s,
            Err(e) => {
                PipelineMetrics::incr(&self.counters.config_reload_rejected);
                return Err(e);
            }
        };
        // Swap under the lock so concurrent updates serialize and the
        // version stays monotonic.
        let mut cur = self.current.lock().unwrap();
        staged.version = cur.version + 1;
        let staged = Arc::new(staged);
        *cur = Arc::clone(&staged);
        drop(cur);
        PipelineMetrics::incr(&self.counters.config_reloads_applied);
        self.audit(&staged, origin, pairs);
        Ok(staged)
    }

    /// Re-read a config file (the SIGHUP path). The whole file must parse
    /// and validate, or the previous snapshot stays.
    pub fn apply_file(&self, path: &Path) -> Result<Arc<ConfigSnapshot>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                PipelineMetrics::incr(&self.counters.config_reload_rejected);
                return Err(format!("reading {}: {e}", path.display()));
            }
        };
        let pairs = match parse_config_pairs(&text) {
            Ok(p) => p,
            Err(e) => {
                PipelineMetrics::incr(&self.counters.config_reload_rejected);
                return Err(e);
            }
        };
        self.apply_pairs(&pairs, &format!("sighup:{}", path.display()))
    }

    /// Append one audit record. Best-effort: the reload has already been
    /// applied; a failing audit write must not take the pipeline down.
    fn audit(&self, snap: &ConfigSnapshot, origin: &str, pairs: &[(String, String)]) {
        let Some(path) = &self.audit_path else {
            return;
        };
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let changes: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        let line = format!(
            "{{\"version\":{},\"unix_ms\":{unix_ms},\"origin\":{},\"changes\":{{{}}}}}\n",
            snap.version,
            json_string(origin),
            changes.join(",")
        );
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }

    /// The `POST /config` / `GET /config` response body.
    pub fn to_json(&self) -> String {
        let c = self.current();
        format!(
            "{{\"version\":{},\"on-overload\":\"{}\",\"trace-sample-rate\":{},\
             \"page-at\":\"{}\",\"route-critical\":{},\"batch-lines\":{},\
             \"batch-deadline-ms\":{},\"sink-retry-max-ms\":{}}}",
            c.version,
            c.on_overload.name(),
            c.trace_sample_rate,
            c.page_at,
            match &c.route_critical {
                Some(r) => json_string(r),
                None => "null".to_string(),
            },
            c.batch_lines,
            c.batch_deadline_ms,
            c.sink_retry_max_ms
        )
    }
}

/// Everything the exporter needs to serve the ops routes, bundled so the
/// HTTP layer takes one optional handle.
#[derive(Debug, Clone)]
pub struct OpsState {
    pub reports: Arc<ReportStore>,
    pub status: Arc<StatusBoard>,
    pub reload: Arc<ReloadableConfig>,
}

impl OpsState {
    pub fn new(
        reports: Arc<ReportStore>,
        status: Arc<StatusBoard>,
        reload: Arc<ReloadableConfig>,
    ) -> OpsState {
        OpsState {
            reports,
            status,
            reload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{
        AnomalyKind, EventId, LogEvent, Provenance, ScoreComponent, Severity, SourceId, TemplateId,
        Timestamp,
    };

    fn report(id: u64, sources: &[u16], templates: &[u32], traces: &[u64]) -> AnomalyReport {
        let events: Vec<LogEvent> = sources
            .iter()
            .zip(templates.iter().cycle())
            .enumerate()
            .map(|(i, (&s, &t))| {
                LogEvent::new(
                    EventId(id * 100 + i as u64),
                    Timestamp::from_millis(1_000 + i as u64),
                    SourceId(s),
                    Severity::Info,
                    TemplateId(t),
                    vec![],
                    None,
                )
                .with_trace(traces.first().map(|&t| TraceId(t)))
            })
            .collect();
        AnomalyReport {
            id,
            kind: AnomalyKind::Sequential,
            score: 0.9,
            detector: "deeplog".to_string(),
            events,
            explanation: "expected \"L2\" next".to_string(),
            provenance: Provenance {
                trace_ids: traces.iter().map(|&t| TraceId(t)).collect(),
                template_ids: templates.to_vec(),
                window: Some((Timestamp::from_millis(1_000), Timestamp::from_millis(2_000))),
                score_components: vec![ScoreComponent::new("score", 0.9)],
            },
        }
    }

    fn stored(id: u64, severity: Criticality) -> StoredReport {
        StoredReport::from_report(&report(id, &[1, 2], &[7, 8], &[id * 10]), severity)
    }

    #[test]
    fn stored_report_roundtrips_through_the_jsonl_line() {
        let r = report(42, &[3, 5], &[11, 12], &[99]);
        let live = StoredReport::from_report(&r, Criticality::High);
        assert_eq!(live.id, 42);
        assert_eq!(live.severity, Some(Criticality::High));
        assert_eq!(live.source_ids, vec![3, 5]);
        assert_eq!(live.trace_ids, vec![99]);
        assert!(live.template_ids.contains(&11) && live.template_ids.contains(&12));

        let back = StoredReport::from_json_line(&r.to_json()).expect("parses");
        assert_eq!(back.id, live.id);
        assert_eq!(back.severity, None, "severity is a live attribute");
        assert_eq!(back.source_ids, live.source_ids);
        assert_eq!(back.template_ids, live.template_ids);
        assert_eq!(back.trace_ids, live.trace_ids);
        assert_eq!(back.json, live.json);

        assert_eq!(StoredReport::from_json_line("not json"), None);
        assert_eq!(StoredReport::from_json_line(""), None);
    }

    #[test]
    fn store_bounds_dedupes_and_queries() {
        let store = ReportStore::shared(4);
        for id in 1..=6u64 {
            let sev = if id % 2 == 0 {
                Criticality::High
            } else {
                Criticality::Low
            };
            assert!(store.record(stored(id, sev)));
        }
        // Bounded: only the 4 newest stay.
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(1), None, "evicted");
        assert!(store.get(5).is_some());
        // Replayed ids are rejected.
        assert!(!store.record(stored(6, Criticality::Low)));
        assert!(!store.record(stored(3, Criticality::Low)));
        assert_eq!(store.newest_id(), 6);

        let all = ReportsQuery::default();
        let (total, items) = store.query(&all);
        assert_eq!(total, 4);
        let ids: Vec<u64> = items.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4, 5, 6], "ascending id order");

        // severity filter is exact-match.
        let mut q = ReportsQuery::default();
        q.severity = Some(Criticality::High);
        let (total, items) = store.query(&q);
        assert_eq!(total, 2);
        assert!(items.iter().all(|r| r.severity == Some(Criticality::High)));

        // since + limit paginate.
        let mut q = ReportsQuery::default();
        q.since = Some(3);
        q.limit = 2;
        let (total, items) = store.query(&q);
        assert_eq!(total, 3, "total counts beyond the page");
        let ids: Vec<u64> = items.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 5]);

        // template / source filters.
        let mut q = ReportsQuery::default();
        q.template = Some(7);
        assert_eq!(store.query(&q).0, 4);
        q.template = Some(999);
        assert_eq!(store.query(&q).0, 0);
        let mut q = ReportsQuery::default();
        q.source = Some(2);
        assert_eq!(store.query(&q).0, 4);
        q.source = Some(42);
        assert_eq!(store.query(&q).0, 0);
    }

    #[test]
    fn backfill_restores_reports_from_the_durable_record() {
        let dir = std::env::temp_dir().join(format!("monilog-ops-backfill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("anomalies.jsonl");
        let mut text = String::new();
        for id in 1..=3u64 {
            text.push_str(&report(id, &[1], &[5], &[]).to_json());
            text.push('\n');
        }
        text.push_str("garbage line\n");
        std::fs::write(&path, text).unwrap();
        let store = ReportStore::shared(16);
        assert_eq!(store.backfill_from_file(&path).unwrap(), 3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(2).unwrap().severity, None);
        // Missing file is an empty store.
        let empty = ReportStore::shared(16);
        assert_eq!(
            empty.backfill_from_file(&dir.join("nope.jsonl")).unwrap(),
            0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_strings_parse_and_render_canonically() {
        assert_eq!(ReportsQuery::parse("").unwrap(), ReportsQuery::default());
        let q = ReportsQuery::parse("since=5&severity=high&template=3&source=2&limit=10").unwrap();
        assert_eq!(q.since, Some(5));
        assert_eq!(q.severity, Some(Criticality::High));
        assert_eq!(q.template, Some(3));
        assert_eq!(q.source, Some(2));
        assert_eq!(q.limit, 10);
        assert_eq!(
            q.to_query_string(),
            "since=5&severity=high&template=3&source=2&limit=10"
        );
        for bad in [
            "nope=1",
            "since=x",
            "severity=urgent",
            "limit=0",
            "limit=100000",
            "since",
            "since=1&since=2",
        ] {
            assert!(ReportsQuery::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn reports_json_embeds_raw_report_lines() {
        let store = ReportStore::shared(8);
        store.record(stored(1, Criticality::High));
        let (total, items) = store.query(&ReportsQuery::default());
        let json = reports_json(total, &items);
        assert!(json.starts_with("{\"total\":1,\"count\":1,\"reports\":["));
        assert!(json.contains("\"severity\":\"high\""), "{json}");
        assert!(json.contains("\"report\":{\"id\":1,"), "{json}");
        let detail = report_detail_json(&items[0], None);
        assert!(detail.contains("\"spans\":[]"), "{detail}");
    }

    #[test]
    fn status_rollup_scores_ok_degraded_critical() {
        let registry = crate::observe::MetricsRegistry::shared();
        let snap = registry.snapshot();
        let healthy = StatusInputs {
            shards_total: 2,
            shards_alive: 2,
            breakers: vec![("webhook".to_string(), "closed".to_string())],
            ..StatusInputs::default()
        };
        let (level, json) = render_status(&snap, &healthy, 250, 7);
        assert_eq!(level, StatusLevel::Ok);
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        assert!(json.contains("\"reasons\":[]"), "{json}");
        assert!(json.contains("\"config_version\":7"), "{json}");
        assert!(json.contains("\"webhook\":\"closed\""), "{json}");

        // An open breaker degrades.
        let mut degraded = healthy.clone();
        degraded.breakers[0].1 = "open".to_string();
        let (level, json) = render_status(&snap, &degraded, 250, 7);
        assert_eq!(level, StatusLevel::Degraded);
        assert!(json.contains("breaker webhook open"), "{json}");

        // A stage p99 over budget degrades, with the stage named.
        registry
            .stage(crate::observe::Stage::Parse)
            .record_ns(10_000_000); // 10ms
        let slow = registry.snapshot();
        let (level, json) = render_status(&slow, &healthy, 1, 7);
        assert_eq!(level, StatusLevel::Degraded);
        assert!(json.contains("stage parse_exec p99"), "{json}");
        assert!(json.contains("\"over_budget\":true"), "{json}");

        // Critical conditions are the readiness reasons.
        for bad in [
            StatusInputs {
                crash_looping: true,
                ..healthy.clone()
            },
            StatusInputs {
                shards_total: 2,
                shards_alive: 0,
                shards_stalled: 2,
                ..healthy.clone()
            },
            StatusInputs {
                delivery_spilling: true,
                ..healthy.clone()
            },
        ] {
            assert!(!readiness_reasons(&bad).is_empty());
            let (level, json) = render_status(&snap, &bad, 250, 7);
            assert_eq!(level, StatusLevel::Critical, "{json}");
        }
        // One stalled shard of two is degraded, not critical.
        let partial = StatusInputs {
            shards_total: 2,
            shards_alive: 2,
            shards_stalled: 1,
            ..healthy.clone()
        };
        assert!(readiness_reasons(&partial).is_empty());
        let (level, _) = render_status(&snap, &partial, 250, 7);
        assert_eq!(level, StatusLevel::Degraded);
    }

    #[test]
    fn reload_applies_versions_and_audits() {
        let dir = std::env::temp_dir().join(format!("monilog-ops-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let audit = dir.join("config-audit.log");
        let counters = PipelineMetrics::shared();
        let reload = ReloadableConfig::shared(
            ConfigSnapshot::default(),
            Some(audit.clone()),
            Arc::clone(&counters),
        );
        assert_eq!(reload.version(), 0);
        let pairs = parse_config_pairs("on-overload=shed&trace-sample-rate=64").unwrap();
        let snap = reload.apply_pairs(&pairs, "post").unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.on_overload, OverloadPolicy::ShedToCatchAll);
        assert_eq!(snap.trace_sample_rate, 64);
        assert_eq!(reload.current().on_overload, OverloadPolicy::ShedToCatchAll);
        assert_eq!(PipelineMetrics::get(&counters.config_reloads_applied), 1);

        // All-or-nothing: one bad key rejects the whole update.
        let pairs = parse_config_pairs("page-at=moderate&metrics-addr=1.2.3.4:9").unwrap();
        assert!(reload.apply_pairs(&pairs, "post").is_err());
        assert_eq!(reload.version(), 1);
        assert_eq!(reload.current().page_at, Criticality::High);
        assert_eq!(PipelineMetrics::get(&counters.config_reload_rejected), 1);

        let audit_text = std::fs::read_to_string(&audit).unwrap();
        assert!(audit_text.contains("\"version\":1"), "{audit_text}");
        assert!(
            audit_text.contains("\"on-overload\":\"shed\""),
            "{audit_text}"
        );
        assert!(!audit_text.contains("metrics-addr"), "rejects not audited");

        let json = reload.to_json();
        assert!(json.contains("\"version\":1"), "{json}");
        assert!(json.contains("\"on-overload\":\"shed\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sighup_file_reload_is_all_or_nothing() {
        let dir = std::env::temp_dir().join(format!("monilog-ops-sighup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let counters = PipelineMetrics::shared();
        let reload =
            ReloadableConfig::shared(ConfigSnapshot::default(), None, Arc::clone(&counters));

        // Invalid file: old snapshot kept, rejected counter bumped.
        let bad = dir.join("bad.conf");
        std::fs::write(&bad, "on-overload = shed\nstate-dir = /tmp/nope\n").unwrap();
        let before = reload.current();
        assert!(reload.apply_file(&bad).is_err());
        assert_eq!(reload.current(), before, "snapshot unchanged");
        assert_eq!(PipelineMetrics::get(&counters.config_reload_rejected), 1);
        // Unreadable file rejects too.
        assert!(reload.apply_file(&dir.join("missing.conf")).is_err());
        assert_eq!(PipelineMetrics::get(&counters.config_reload_rejected), 2);
        assert_eq!(PipelineMetrics::get(&counters.config_reloads_applied), 0);

        // Valid file (comments, blank lines, spaced `key = value`).
        let good = dir.join("good.conf");
        std::fs::write(
            &good,
            "# live overrides\n\non-overload = dead-letter\nbatch-lines = 256\n",
        )
        .unwrap();
        let snap = reload.apply_file(&good).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.on_overload, OverloadPolicy::DeadLetter);
        assert_eq!(snap.batch_lines, 256);
        assert_eq!(PipelineMetrics::get(&counters.config_reloads_applied), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reloadable_key_list_matches_the_apply_table() {
        let counters = PipelineMetrics::shared();
        let reload = ReloadableConfig::shared(ConfigSnapshot::default(), None, counters);
        for key in RELOADABLE_KEYS {
            let value = match key {
                "on-overload" => "block",
                "page-at" => "high",
                "route-critical" => "none",
                _ => "1",
            };
            let pairs = vec![(key.to_string(), value.to_string())];
            assert!(
                reload.apply_pairs(&pairs, "test").is_ok(),
                "{key} should be reloadable"
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn criticality() -> impl Strategy<Value = Criticality> {
            prop_oneof![
                Just(Criticality::Low),
                Just(Criticality::Moderate),
                Just(Criticality::High),
            ]
        }

        fn opt_u64(max: u64) -> impl Strategy<Value = Option<u64>> {
            prop_oneof![Just(None), (0..max).prop_map(Some)]
        }

        proptest! {
            /// Any well-formed query round-trips through its canonical
            /// query string.
            #[test]
            fn query_string_roundtrips(
                since in opt_u64(u64::MAX),
                severity in prop_oneof![Just(None), criticality().prop_map(Some)],
                template in opt_u64(1_000_000),
                source in opt_u64(100_000),
                limit in 1usize..=MAX_REPORT_LIMIT,
            ) {
                let q = ReportsQuery { since, severity, template, source, limit };
                let qs = q.to_query_string();
                let back = ReportsQuery::parse(&qs).unwrap();
                prop_assert_eq!(back, q);
            }
        }
    }
}
