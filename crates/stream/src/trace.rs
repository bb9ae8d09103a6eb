//! Sampled span tracing and the crash flight recorder.
//!
//! PR 2's metrics answer *how fast* each stage runs in aggregate; this
//! module answers *what happened to this line*. A deterministic 1-in-N
//! sample of log lines (default 1/1024) is traced end-to-end: every stage
//! a sampled line passes through records a [`SpanRecord`] — enter/exit
//! timestamps, shard id, template id, cache hit/miss — into a per-shard
//! lock-free ring buffer. The rings double as a *flight recorder*: on a
//! shard crash, crash-loop degradation or a quarantine event the
//! supervisor dumps their contents to disk, so post-mortem evidence
//! survives the worker that produced it.
//!
//! ## Design notes
//!
//! - **Deterministic sampling.** Line `seq` is traced iff
//!   `seq % sample_rate == 0` (see `monilog_model::TraceId::from_seq`).
//!   Any stage can recompute the decision from the sequence number alone,
//!   so no per-line sampling flag crosses queue or shard boundaries.
//! - **Seqlock rings.** Each ring slot is a few `AtomicU64` words guarded
//!   by a sequence word: writers claim a slot with one `fetch_add`, mark
//!   it invalid, write the payload, then publish the new sequence. Readers
//!   re-check the sequence around their reads and discard torn slots.
//!   Writers never block and never wait for readers.
//! - **Cost when idle.** The untraced majority of lines pay one modulo
//!   and one branch. Lifecycle marks (crash/quarantine/degrade) are
//!   recorded regardless of the sampling rate — they are rare and always
//!   forensic gold.

use monilog_model::trace::json_string;
use monilog_model::TraceId;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default sampling rate: one traced line per 1024.
pub const DEFAULT_SAMPLE_RATE: u32 = 1024;
/// Default span slots per flight-recorder ring.
pub const DEFAULT_FLIGHT_CAPACITY: u32 = 4096;

/// Tracer configuration. Lives outside `SupervisorConfig`/`MoniLogConfig`
/// (which are `Copy`) because the dump directory is a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace one line in `sample_rate` (0 disables span sampling; crash /
    /// quarantine marks are still recorded).
    pub sample_rate: u32,
    /// Span slots per ring; older spans are overwritten once full.
    pub ring_capacity: u32,
    /// Directory receiving flight-recorder dump files (`None` = no dumps).
    pub dump_dir: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_rate: DEFAULT_SAMPLE_RATE,
            ring_capacity: DEFAULT_FLIGHT_CAPACITY,
            dump_dir: None,
        }
    }
}

/// The stages and lifecycle events a span can describe. A superset of
/// [`crate::observe::Stage`]: the last three are point events recorded by
/// the fault-tolerance machinery, not timed pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStage {
    Ingest,
    MergeDedup,
    QueueWait,
    Parse,
    Window,
    Detect,
    Classify,
    /// A line exhausted its retries and was pushed to the quarantine DLQ.
    Quarantine,
    /// A shard worker died (panic or missed heartbeats).
    Crash,
    /// A shard crash-looped into catch-all degradation.
    Degrade,
}

impl SpanStage {
    pub const ALL: [SpanStage; 10] = [
        SpanStage::Ingest,
        SpanStage::MergeDedup,
        SpanStage::QueueWait,
        SpanStage::Parse,
        SpanStage::Window,
        SpanStage::Detect,
        SpanStage::Classify,
        SpanStage::Quarantine,
        SpanStage::Crash,
        SpanStage::Degrade,
    ];

    /// Stable name used in JSON renderings (pipeline stages match
    /// [`crate::observe::Stage::name`]).
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Ingest => "ingest",
            SpanStage::MergeDedup => "merge_dedup",
            SpanStage::QueueWait => "parse_queue_wait",
            SpanStage::Parse => "parse_exec",
            SpanStage::Window => "window",
            SpanStage::Detect => "detect",
            SpanStage::Classify => "classify",
            SpanStage::Quarantine => "quarantine",
            SpanStage::Crash => "crash",
            SpanStage::Degrade => "degrade",
        }
    }

    fn code(self) -> u64 {
        SpanStage::ALL.iter().position(|s| *s == self).unwrap() as u64
    }

    fn from_code(code: u64) -> Option<SpanStage> {
        SpanStage::ALL.get(code as usize).copied()
    }
}

/// One decoded span: what happened to trace `trace` in stage `stage` on
/// shard `shard` between `start_ns` and `end_ns` (nanoseconds since the
/// tracer's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub stage: SpanStage,
    pub shard: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Template the line matched, when the stage knows it.
    pub template: Option<u32>,
    /// Whether the Drain match cache hit, for parse spans.
    pub cache_hit: Option<bool>,
}

impl SpanRecord {
    /// JSON object rendering (shared by `/trace/{id}`, `/flight` and the
    /// dump files).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"stage\":{},\"shard\":{},\"start_ns\":{},\"end_ns\":{},\
             \"template\":{},\"cache_hit\":{}}}",
            self.trace.0,
            json_string(self.stage.name()),
            self.shard,
            self.start_ns,
            self.end_ns,
            match self.template {
                Some(t) => t.to_string(),
                None => "null".into(),
            },
            match self.cache_hit {
                Some(h) => h.to_string(),
                None => "null".into(),
            }
        )
    }
}

// Packed meta word: stage code (8 bits) | flags (8) | shard (16) |
// template (high 32).
const FLAG_TEMPLATE: u64 = 1 << 0;
const FLAG_CACHE_KNOWN: u64 = 1 << 1;
const FLAG_CACHE_HIT: u64 = 1 << 2;

fn pack_meta(r: &SpanRecord) -> u64 {
    let mut flags = 0u64;
    if r.template.is_some() {
        flags |= FLAG_TEMPLATE;
    }
    if let Some(hit) = r.cache_hit {
        flags |= FLAG_CACHE_KNOWN;
        if hit {
            flags |= FLAG_CACHE_HIT;
        }
    }
    r.stage.code()
        | (flags << 8)
        | ((r.shard as u64) << 16)
        | ((r.template.unwrap_or(0) as u64) << 32)
}

fn unpack_meta(trace: u64, start_ns: u64, end_ns: u64, meta: u64) -> Option<SpanRecord> {
    let stage = SpanStage::from_code(meta & 0xff)?;
    let flags = (meta >> 8) & 0xff;
    Some(SpanRecord {
        trace: TraceId(trace),
        stage,
        shard: ((meta >> 16) & 0xffff) as u16,
        start_ns,
        end_ns,
        template: (flags & FLAG_TEMPLATE != 0).then_some((meta >> 32) as u32),
        cache_hit: (flags & FLAG_CACHE_KNOWN != 0).then_some(flags & FLAG_CACHE_HIT != 0),
    })
}

/// One seqlock-guarded ring slot.
#[derive(Debug, Default)]
struct Slot {
    /// 0 = empty/being written; otherwise 1 + the global write index.
    seq: AtomicU64,
    trace: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    meta: AtomicU64,
}

/// A fixed-capacity lock-free span ring (one per shard).
#[derive(Debug)]
struct FlightRing {
    slots: Vec<Slot>,
    head: AtomicU64,
}

impl FlightRing {
    fn new(capacity: usize) -> Self {
        FlightRing {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, r: &SpanRecord) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        // Invalidate, write payload, publish. A reader that races with us
        // observes either seq == 0 or a seq change and discards the slot.
        slot.seq.store(0, Ordering::Release);
        slot.trace.store(r.trace.0, Ordering::Relaxed);
        slot.start_ns.store(r.start_ns, Ordering::Relaxed);
        slot.end_ns.store(r.end_ns, Ordering::Relaxed);
        slot.meta.store(pack_meta(r), Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Snapshot every consistently-readable slot as `(write_index, span)`.
    fn read(&self) -> Vec<(u64, SpanRecord)> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let after = slot.seq.load(Ordering::Acquire);
            if before != after {
                continue; // torn read, writer got there first
            }
            if let Some(r) = unpack_meta(trace, start_ns, end_ns, meta) {
                out.push((before - 1, r));
            }
        }
        out
    }
}

/// The span tracer and flight recorder shared by every pipeline stage.
///
/// Cheap to share (`Arc`), lock-free to write. One ring per shard plus
/// ring 0 for the sequential (non-sharded) stages; `record` maps any
/// shard id onto the available rings.
#[derive(Debug)]
pub struct Tracer {
    /// Atomic so the live ops surface can retune sampling without a
    /// restart; every read is a relaxed load on the hot path.
    sample_rate: AtomicU32,
    epoch: Instant,
    rings: Vec<FlightRing>,
    dump_dir: Option<PathBuf>,
    dumps_written: AtomicU64,
}

impl Tracer {
    /// A tracer with `n_rings` rings (use the shard count; 1 for
    /// sequential deployments).
    pub fn new(config: &TraceConfig, n_rings: usize) -> Self {
        Tracer {
            sample_rate: AtomicU32::new(config.sample_rate),
            epoch: Instant::now(),
            rings: (0..n_rings.max(1))
                .map(|_| FlightRing::new(config.ring_capacity as usize))
                .collect(),
            dump_dir: config.dump_dir.clone(),
            dumps_written: AtomicU64::new(0),
        }
    }

    /// `Arc`-wrapped constructor for the common sharing case.
    pub fn shared(config: &TraceConfig, n_rings: usize) -> Arc<Self> {
        Arc::new(Self::new(config, n_rings))
    }

    /// A tracer that samples nothing (marks and dumps still work).
    pub fn disabled() -> Arc<Self> {
        Self::shared(
            &TraceConfig {
                sample_rate: 0,
                ring_capacity: 1,
                ..TraceConfig::default()
            },
            1,
        )
    }

    pub fn sample_rate(&self) -> u32 {
        self.sample_rate.load(Ordering::Relaxed)
    }

    /// Swap the sampling rate live (0 disables span sampling). In-flight
    /// lines keep whatever decision they computed; new lines see the new
    /// rate on their next `trace_for` call.
    pub fn set_sample_rate(&self, rate: u32) {
        self.sample_rate.store(rate, Ordering::Relaxed);
    }

    /// True when span sampling is on.
    pub fn enabled(&self) -> bool {
        self.sample_rate() > 0
    }

    /// The sampling decision for line `seq` — the single hot-path entry
    /// point (one modulo, one branch for the untraced majority).
    #[inline]
    pub fn trace_for(&self, seq: u64) -> Option<TraceId> {
        TraceId::from_seq(seq, self.sample_rate())
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Record a finished span.
    pub fn record(&self, span: SpanRecord) {
        let ring = (span.shard as usize) % self.rings.len();
        self.rings[ring].push(&span);
    }

    /// Record a span that started at `start` and ends now.
    #[allow(clippy::too_many_arguments)]
    pub fn record_since(
        &self,
        trace: TraceId,
        stage: SpanStage,
        shard: u16,
        start: Instant,
        template: Option<u32>,
        cache_hit: Option<bool>,
    ) {
        let end_ns = self.now_ns();
        let dur = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.record(SpanRecord {
            trace,
            stage,
            shard,
            start_ns: end_ns.saturating_sub(dur),
            end_ns,
            template,
            cache_hit,
        });
    }

    /// Record a point-in-time lifecycle event (crash, quarantine,
    /// degradation). Always recorded, independent of the sampling rate.
    pub fn mark(&self, trace: TraceId, stage: SpanStage, shard: u16, template: Option<u32>) {
        let now = self.now_ns();
        self.record(SpanRecord {
            trace,
            stage,
            shard,
            start_ns: now,
            end_ns: now,
            template,
            cache_hit: None,
        });
    }

    /// Every span of one trace, in start order.
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .rings
            .iter()
            .flat_map(|r| r.read())
            .filter(|(_, s)| s.trace == trace)
            .map(|(_, s)| s)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }

    /// Every currently-readable span across all rings, in write order per
    /// ring then start order.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut indexed: Vec<(u64, SpanRecord)> =
            self.rings.iter().flat_map(|r| r.read()).collect();
        indexed.sort_by_key(|(_, s)| (s.start_ns, s.end_ns));
        indexed.into_iter().map(|(_, s)| s).collect()
    }

    /// The `/trace/{id}` span tree: the trace id plus its spans in
    /// pipeline order. Returns `None` when no span of the trace is still
    /// in any ring.
    pub fn trace_json(&self, trace: TraceId) -> Option<String> {
        let spans = self.spans_for(trace);
        if spans.is_empty() {
            return None;
        }
        let body: Vec<String> = spans.iter().map(|s| s.to_json()).collect();
        Some(format!(
            "{{\"trace_id\":{},\"seq\":{},\"spans\":[{}]}}",
            trace.0,
            trace.seq(),
            body.join(",")
        ))
    }

    /// The `/flight` rendering: recorder configuration plus every
    /// currently-readable span.
    pub fn flight_json(&self) -> String {
        let spans: Vec<String> = self.recent().iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"sample_rate\":{},\"rings\":{},\"ring_capacity\":{},\"dumps_written\":{},\
             \"spans\":[{}]}}",
            self.sample_rate(),
            self.rings.len(),
            self.rings[0].slots.len(),
            self.dumps_written.load(Ordering::Relaxed),
            spans.join(",")
        )
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto): one
    /// complete (`"ph":"X"`) event per span, timestamps in microseconds,
    /// one row (`tid`) per shard.
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .recent()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
                     \"tid\":{},\"args\":{}}}",
                    json_string(s.stage.name()),
                    s.start_ns as f64 / 1_000.0,
                    (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1_000.0,
                    s.shard,
                    {
                        let mut args = format!("{{\"trace_id\":{}", s.trace.0);
                        if let Some(t) = s.template {
                            args.push_str(&format!(",\"template\":{t}"));
                        }
                        if let Some(h) = s.cache_hit {
                            args.push_str(&format!(",\"cache_hit\":{h}"));
                        }
                        args.push('}');
                        args
                    }
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Dump the flight recorder to `dump_dir` (no-op returning `None`
    /// when no dump directory is configured). Files are named
    /// `monilog-flight-<reason>-<n>.json` with a monotone counter, so
    /// repeated dumps never clobber each other. The dump is written with
    /// [`crate::durable::write_atomic`]: a crash (or a second crash during
    /// the dump of the first) can never leave a half-written JSON file
    /// under the final name.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.as_ref()?;
        let n = self.dumps_written.fetch_add(1, Ordering::Relaxed);
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("monilog-flight-{safe}-{n}.json"));
        let body = format!(
            "{{\"reason\":{},\"flight\":{}}}\n",
            json_string(reason),
            self.flight_json()
        );
        std::fs::create_dir_all(dir).ok()?;
        crate::durable::write_atomic(&path, body.as_bytes()).ok()?;
        Some(path)
    }

    /// Number of dump files written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, stage: SpanStage, shard: u16, start: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            stage,
            shard,
            start_ns: start,
            end_ns: start + 10,
            template: Some(3),
            cache_hit: Some(true),
        }
    }

    #[test]
    fn meta_packing_round_trips() {
        for stage in SpanStage::ALL {
            for (template, cache_hit) in [
                (None, None),
                (Some(0), Some(false)),
                (Some(u32::MAX), Some(true)),
                (Some(42), None),
            ] {
                let r = SpanRecord {
                    trace: TraceId(7),
                    stage,
                    shard: 513,
                    start_ns: 1,
                    end_ns: 2,
                    template,
                    cache_hit,
                };
                let back = unpack_meta(7, 1, 2, pack_meta(&r)).unwrap();
                assert_eq!(back, r);
            }
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_spans() {
        let t = Tracer::new(
            &TraceConfig {
                sample_rate: 1,
                ring_capacity: 4,
                dump_dir: None,
            },
            1,
        );
        for i in 0..10u64 {
            t.record(span(i + 1, SpanStage::Parse, 0, i * 100));
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 4, "ring holds its capacity");
        let ids: Vec<u64> = recent.iter().map(|s| s.trace.0).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest spans were overwritten");
    }

    #[test]
    fn spans_for_filters_and_sorts() {
        let t = Tracer::new(&TraceConfig::default(), 2);
        t.record(span(5, SpanStage::Parse, 1, 200));
        t.record(span(5, SpanStage::Ingest, 0, 100));
        t.record(span(9, SpanStage::Parse, 1, 150));
        let spans = t.spans_for(TraceId(5));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, SpanStage::Ingest);
        assert_eq!(spans[1].stage, SpanStage::Parse);
        assert!(t.spans_for(TraceId(77)).is_empty());
    }

    #[test]
    fn sampling_respects_rate_and_disabled() {
        let t = Tracer::new(&TraceConfig::default(), 1);
        assert_eq!(t.trace_for(0), Some(TraceId(1)));
        assert_eq!(t.trace_for(1), None);
        assert_eq!(t.trace_for(1024), Some(TraceId(1025)));
        let off = Tracer::disabled();
        assert!(!off.enabled());
        assert_eq!(off.trace_for(0), None);
    }

    #[test]
    fn trace_json_and_flight_json_are_well_formed() {
        let t = Tracer::new(&TraceConfig::default(), 1);
        t.record(span(1, SpanStage::Ingest, 0, 100));
        t.record(span(1, SpanStage::Parse, 0, 200));
        let json = t.trace_json(TraceId(1)).unwrap();
        assert!(
            json.starts_with("{\"trace_id\":1,\"seq\":0,\"spans\":["),
            "{json}"
        );
        assert!(json.contains("\"stage\":\"ingest\""), "{json}");
        assert!(json.contains("\"cache_hit\":true"), "{json}");
        assert_eq!(t.trace_json(TraceId(99)), None);
        let flight = t.flight_json();
        assert!(flight.contains("\"sample_rate\":1024"), "{flight}");
        assert!(flight.contains("\"spans\":[{"), "{flight}");
    }

    #[test]
    fn chrome_trace_events_have_complete_phase() {
        let t = Tracer::new(&TraceConfig::default(), 1);
        t.record(span(1, SpanStage::Detect, 2, 5_000));
        let json = t.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"tid\":2"), "{json}");
        assert!(json.contains("\"ts\":5.000"), "{json}");
    }

    #[test]
    fn marks_record_even_when_sampling_is_off() {
        let t = Tracer::new(
            &TraceConfig {
                sample_rate: 0,
                ring_capacity: 8,
                dump_dir: None,
            },
            1,
        );
        t.mark(TraceId(3), SpanStage::Quarantine, 1, None);
        let spans = t.recent();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, SpanStage::Quarantine);
        assert_eq!(spans[0].start_ns, spans[0].end_ns);
    }

    #[test]
    fn dump_writes_sequenced_files() {
        let dir = std::env::temp_dir().join(format!(
            "monilog-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Tracer::new(
            &TraceConfig {
                dump_dir: Some(dir.clone()),
                ..TraceConfig::default()
            },
            1,
        );
        t.record(span(1, SpanStage::Parse, 0, 100));
        let p0 = t.dump("crash: shard 0").expect("dump written");
        let p1 = t.dump("crash: shard 0").expect("dump written");
        assert_ne!(p0, p1, "repeated dumps do not clobber");
        let body = std::fs::read_to_string(&p0).unwrap();
        assert!(body.starts_with("{\"reason\":\"crash: shard 0\""), "{body}");
        assert!(body.contains("\"flight\":{"), "{body}");
        assert_eq!(t.dumps_written(), 2);
        // No dump dir → no dump.
        assert_eq!(Tracer::new(&TraceConfig::default(), 1).dump("x"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_corrupt_readers() {
        let t = Arc::new(Tracer::new(
            &TraceConfig {
                sample_rate: 1,
                ring_capacity: 64,
                dump_dir: None,
            },
            2,
        ));
        std::thread::scope(|scope| {
            for shard in 0..4u16 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        t.record(span(i + 1, SpanStage::Parse, shard, i));
                    }
                });
            }
            // Concurrent reader: every decoded span must be internally
            // consistent (the seqlock discards torn slots).
            let t = Arc::clone(&t);
            scope.spawn(move || {
                for _ in 0..50 {
                    for s in t.recent() {
                        assert_eq!(s.stage, SpanStage::Parse);
                        assert_eq!(s.end_ns, s.start_ns + 10);
                        assert_eq!(s.template, Some(3));
                    }
                }
            });
        });
        assert!(!t.recent().is_empty());
    }
}
