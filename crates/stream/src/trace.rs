//! Sampled span tracing and the flight recorder.
//!
//! The metrics of [`crate::observe`] answer *how fast* each stage runs in
//! aggregate; this module answers *what happened to this line*. A
//! deterministic 1-in-N sample of log lines (default 1/1024) is traced
//! end-to-end: every stage a sampled line passes through records a
//! [`SpanRecord`] — enter/exit timestamps, template id, cache hit/miss —
//! into one lock-free ring buffer, the *flight recorder* that `/flight`,
//! `/trace/{id}` and `--trace-out` read.
//!
//! ## Design notes
//!
//! - **Deterministic sampling.** Line `seq` is traced iff
//!   `seq % sample_rate == 0` (see `monilog_model::TraceId::from_seq`).
//!   Any stage can recompute the decision from the sequence number alone,
//!   so no per-line sampling flag crosses stage boundaries.
//! - **Seqlock ring.** Each ring slot is a few `AtomicU64` words guarded
//!   by a sequence word: writers claim a slot with one `fetch_add`, mark
//!   it invalid, write the payload, then publish the new sequence. Readers
//!   re-check the sequence around their reads and discard torn slots.
//!   Writers never block and never wait for readers.
//! - **Cost when idle.** The untraced majority of lines pay one modulo
//!   and one branch.

use crate::observe::Stage;
use monilog_model::trace::json_string;
use monilog_model::TraceId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default sampling rate: one traced line per 1024.
pub const DEFAULT_SAMPLE_RATE: u32 = 1024;
/// Default span slots in the flight-recorder ring.
pub const DEFAULT_FLIGHT_CAPACITY: u32 = 4096;

/// One decoded span: what happened to trace `trace` in stage `stage`
/// between `start_ns` and `end_ns` (nanoseconds since the tracer's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Template the line matched, when the stage knows it.
    pub template: Option<u32>,
    /// Whether the Drain match cache hit, for parse spans.
    pub cache_hit: Option<bool>,
}

impl SpanRecord {
    /// JSON object rendering (shared by `/trace/{id}`, `/reports/{id}`
    /// and `/flight`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"stage\":{},\"start_ns\":{},\"end_ns\":{},\
             \"template\":{},\"cache_hit\":{}}}",
            self.trace.0,
            json_string(self.stage.name()),
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

// Packed meta word: stage index (8 bits) | flags (8) | template (high 32).
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
    r.stage.index() as u64 | (flags << 8) | ((r.template.unwrap_or(0) as u64) << 32)
}

fn unpack_meta(trace: u64, start_ns: u64, end_ns: u64, meta: u64) -> Option<SpanRecord> {
    let stage = *Stage::ALL.get((meta & 0xff) as usize)?;
    let flags = (meta >> 8) & 0xff;
    Some(SpanRecord {
        trace: TraceId(trace),
        stage,
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

/// A fixed-capacity lock-free span ring.
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

    /// Snapshot every consistently-readable slot.
    fn read(&self) -> Vec<SpanRecord> {
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
                out.push(r);
            }
        }
        out
    }
}

/// The span tracer and flight recorder shared by every pipeline stage.
/// Cheap to share (`Arc`), lock-free to write.
#[derive(Debug)]
pub struct Tracer {
    /// Atomic so the live ops surface can retune sampling without a
    /// restart; every read is a relaxed load on the hot path.
    sample_rate: AtomicU32,
    epoch: Instant,
    ring: FlightRing,
}

impl Tracer {
    /// A tracer sampling one line in `sample_rate` (0 disables sampling)
    /// into a ring of `ring_capacity` spans; older spans are overwritten
    /// once it is full.
    pub fn new(sample_rate: u32, ring_capacity: u32) -> Self {
        Tracer {
            sample_rate: AtomicU32::new(sample_rate),
            epoch: Instant::now(),
            ring: FlightRing::new(ring_capacity as usize),
        }
    }

    /// `Arc`-wrapped constructor for the common sharing case.
    pub fn shared(sample_rate: u32, ring_capacity: u32) -> Arc<Self> {
        Arc::new(Self::new(sample_rate, ring_capacity))
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
        self.ring.push(&span);
    }

    /// Record a span that started at `start` and ends now.
    pub fn record_since(
        &self,
        trace: TraceId,
        stage: Stage,
        start: Instant,
        template: Option<u32>,
        cache_hit: Option<bool>,
    ) {
        let end_ns = self.now_ns();
        let dur = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.record(SpanRecord {
            trace,
            stage,
            start_ns: end_ns.saturating_sub(dur),
            end_ns,
            template,
            cache_hit,
        });
    }

    /// Every span of one trace, in start order.
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .ring
            .read()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }

    /// Every currently-readable span, in start order.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut spans = self.ring.read();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }

    /// The `/trace/{id}` span tree: the trace id plus its spans in
    /// pipeline order. Returns `None` when no span of the trace is still
    /// in the ring.
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
            "{{\"sample_rate\":{},\"ring_capacity\":{},\"spans\":[{}]}}",
            self.sample_rate(),
            self.ring.slots.len(),
            spans.join(",")
        )
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto): one
    /// complete (`"ph":"X"`) event per span, timestamps in microseconds,
    /// all on one row (`tid` 0).
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .recent()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
                     \"tid\":0,\"args\":{}}}",
                    json_string(s.stage.name()),
                    s.start_ns as f64 / 1_000.0,
                    (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1_000.0,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, stage: Stage, start: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            stage,
            start_ns: start,
            end_ns: start + 10,
            template: Some(3),
            cache_hit: Some(true),
        }
    }

    #[test]
    fn meta_packing_round_trips() {
        for stage in Stage::ALL {
            for (template, cache_hit) in [
                (None, None),
                (Some(0), Some(false)),
                (Some(u32::MAX), Some(true)),
                (Some(42), None),
            ] {
                let r = SpanRecord {
                    trace: TraceId(7),
                    stage,
                    start_ns: 1,
                    end_ns: 2,
                    template,
                    cache_hit,
                };
                let back = unpack_meta(7, 1, 2, pack_meta(&r)).unwrap();
                assert_eq!(back, r);
            }
        }
        assert_eq!(unpack_meta(7, 1, 2, Stage::ALL.len() as u64), None);
    }

    #[test]
    fn ring_keeps_only_the_newest_spans() {
        let t = Tracer::new(1, 4);
        for i in 0..10u64 {
            t.record(span(i + 1, Stage::Parse, i * 100));
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 4, "ring holds its capacity");
        let ids: Vec<u64> = recent.iter().map(|s| s.trace.0).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest spans were overwritten");
    }

    #[test]
    fn spans_for_filters_and_sorts() {
        let t = Tracer::new(DEFAULT_SAMPLE_RATE, DEFAULT_FLIGHT_CAPACITY);
        t.record(span(5, Stage::Parse, 200));
        t.record(span(5, Stage::Ingest, 100));
        t.record(span(9, Stage::Parse, 150));
        let spans = t.spans_for(TraceId(5));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Ingest);
        assert_eq!(spans[1].stage, Stage::Parse);
        assert!(t.spans_for(TraceId(77)).is_empty());
    }

    #[test]
    fn sampling_respects_rate_and_disabled() {
        let t = Tracer::new(DEFAULT_SAMPLE_RATE, DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(t.trace_for(0), Some(TraceId(1)));
        assert_eq!(t.trace_for(1), None);
        assert_eq!(t.trace_for(1024), Some(TraceId(1025)));
        let off = Tracer::new(0, 1);
        assert!(!off.enabled());
        assert_eq!(off.trace_for(0), None);
    }

    #[test]
    fn trace_json_and_flight_json_are_well_formed() {
        let t = Tracer::new(DEFAULT_SAMPLE_RATE, DEFAULT_FLIGHT_CAPACITY);
        t.record(span(1, Stage::Ingest, 100));
        t.record(span(1, Stage::Parse, 200));
        let json = t.trace_json(TraceId(1)).unwrap();
        assert!(
            json.starts_with("{\"trace_id\":1,\"seq\":0,\"spans\":["),
            "{json}"
        );
        assert!(json.contains("\"stage\":\"ingest\""), "{json}");
        assert!(json.contains("\"stage\":\"parse_exec\""), "{json}");
        assert!(json.contains("\"cache_hit\":true"), "{json}");
        assert_eq!(t.trace_json(TraceId(99)), None);
        let flight = t.flight_json();
        assert!(
            flight.starts_with("{\"sample_rate\":1024,\"ring_capacity\":4096,\"spans\":[{"),
            "{flight}"
        );
    }

    #[test]
    fn chrome_trace_events_have_complete_phase() {
        let t = Tracer::new(DEFAULT_SAMPLE_RATE, DEFAULT_FLIGHT_CAPACITY);
        t.record(span(1, Stage::Detect, 5_000));
        let json = t.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"tid\":0"), "{json}");
        assert!(json.contains("\"ts\":5.000"), "{json}");
    }

    #[test]
    fn concurrent_writers_never_corrupt_readers() {
        let t = Arc::new(Tracer::new(1, 64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        t.record(span(i + 1, Stage::Parse, i));
                    }
                });
            }
            // Concurrent reader: every decoded span must be internally
            // consistent (the seqlock discards torn slots).
            let t = Arc::clone(&t);
            scope.spawn(move || {
                for _ in 0..50 {
                    for s in t.recent() {
                        assert_eq!(s.stage, Stage::Parse);
                        assert_eq!(s.end_ns, s.start_ns + 10);
                        assert_eq!(s.template, Some(3));
                    }
                }
            });
        });
        assert!(!t.recent().is_empty());
    }
}
