//! In-memory span recorder for the traced (`layers`) run.
//!
//! One span per layer per 1,024-line chunk, taken from the benchmark's
//! side of each public call, so two clock reads bracket ~1,000 calls and
//! the timer cost stays far below one percent. Spans are written out as
//! Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Lines per chunk: the granularity of every span.
pub const CHUNK_LINES: usize = 1024;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Chunk the work belongs to; spans of one chunk share it.
    pub chunk: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the clock is read last, after the bookkeeping.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, chunk: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            chunk,
        });
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        (s.start_ns, s.end_ns) = (now, now);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        chunk: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, chunk);
        let out = f();
        self.end(id);
        out
    }

    /// Book a span measured elsewhere (e.g. a call nested inside a layer
    /// that the benchmark times standalone) under `parent`, starting at
    /// the parent's start.
    pub fn book_child(&mut self, name: &'static str, parent: SpanId, duration_ns: u64) {
        let p = &self.spans[parent as usize];
        let (start_ns, chunk) = (p.start_ns, p.chunk);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            chunk,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its child spans cover (children are clipped to the parent's interval
/// and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let Some(kids) = children.get_mut(&(id as SpanId)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time and span count per layer name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += self_ns;
        e.1 += 1;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the chunk id and
/// parent span in `args`. Top-level spans sit on tid 0, children one row
/// below their parent.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut depth = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            depth[i] = depth[p as usize] + 1;
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"chunk\":{}}}}}",
            s.name,
            depth[i],
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.chunk
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            chunk: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 ns: the overlap must not be subtracted twice.
            span("b", 20, 50, Some(0)),
            // Sticks out of the parent: clipped at 100.
            span("c", 90, 130, Some(0)),
            span("grandchild", 12, 18, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Covered: [10,50) + [90,100) = 50.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 14, "a minus its grandchild");
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40, "a leaf keeps its full duration");
        let totals = totals_by_name(&spans);
        assert_eq!(totals["parent"], (50, 1));
    }

    #[test]
    fn booked_child_reduces_parent_self_time() {
        let mut r = Recorder::new();
        let id = r.begin("parse.drain", None, 3);
        r.end(id);
        r.spans[id as usize].end_ns = r.spans[id as usize].start_ns + 1_000;
        r.book_child("parse.tokenize", id, 400);
        let selfs = self_times(r.spans());
        assert_eq!(selfs[id as usize], 600);
        assert_eq!(r.spans()[1].chunk, 3);
        let json = chrome_trace_json("w", r.spans());
        assert!(json.contains("\"name\":\"parse.tokenize\""));
        assert!(json.contains("\"parent\":0"));
    }
}
