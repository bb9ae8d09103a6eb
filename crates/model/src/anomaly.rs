//! Anomaly kinds, reports and criticality — the detection component's
//! output and the classification component's input (Fig. 1 and Section V).
//!
//! "Log-related anomalous events can be broadly divided into two categories:
//! sequential anomalies [...] and quantitative anomalies" (Section III).
//! An [`AnomalyReport`] is "composed of all the logs linked to the
//! identified anomalous sequence" (Section II).

use crate::event::LogEvent;
use crate::log::SourceId;
use crate::time::Timestamp;
use crate::trace::{json_string, Provenance};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The two anomaly categories of Section III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// The log sequence deviates from the normal flow
    /// (Table I example: `L1 → L4`).
    Sequential,
    /// Logs follow the normal flow but carry unusual values leading to an
    /// undesired outcome (Table I example: `L3`).
    Quantitative,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnomalyKind::Sequential => "sequential",
            AnomalyKind::Quantitative => "quantitative",
        })
    }
}

/// Criticality scale assigned by the classification component.
///
/// "A common practice to prioritize the tasks is to assign anomalies a level
/// of criticality such as low, moderate or high" (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Criticality {
    Low,
    Moderate,
    High,
}

impl Criticality {
    pub const ALL: [Criticality; 3] = [Criticality::Low, Criticality::Moderate, Criticality::High];

    /// Ordinal value used by the criticality regressor (0, 1, 2).
    pub fn ordinal(self) -> u8 {
        match self {
            Criticality::Low => 0,
            Criticality::Moderate => 1,
            Criticality::High => 2,
        }
    }

    /// Inverse of [`Criticality::ordinal`], clamping out-of-range values.
    pub fn from_ordinal(v: u8) -> Criticality {
        match v {
            0 => Criticality::Low,
            1 => Criticality::Moderate,
            _ => Criticality::High,
        }
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Criticality::Low => "low",
            Criticality::Moderate => "moderate",
            Criticality::High => "high",
        })
    }
}

/// How an anomaly report should reach the operator, derived from its
/// [`Criticality`] by the severity router in `monilog-classify`.
///
/// Section V frames classification as prioritising the administrator's
/// attention; delivery classes are the actionable end of that scale:
/// page someone, open a ticket, or just keep a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryClass {
    /// Interrupt-a-human severity — routed to the webhook/pager sink.
    Page,
    /// Needs follow-up but not immediately — routed to the TCP sink.
    Ticket,
    /// Record-keeping only — routed to the local file sink.
    Log,
}

impl DeliveryClass {
    pub const ALL: [DeliveryClass; 3] = [
        DeliveryClass::Page,
        DeliveryClass::Ticket,
        DeliveryClass::Log,
    ];

    /// Stable wire tag used in the delivery buffer frames.
    pub fn tag(self) -> u8 {
        match self {
            DeliveryClass::Page => 0,
            DeliveryClass::Ticket => 1,
            DeliveryClass::Log => 2,
        }
    }

    /// Inverse of [`DeliveryClass::tag`], clamping unknown tags to `Log`.
    pub fn from_tag(v: u8) -> DeliveryClass {
        match v {
            0 => DeliveryClass::Page,
            1 => DeliveryClass::Ticket,
            _ => DeliveryClass::Log,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DeliveryClass::Page => "page",
            DeliveryClass::Ticket => "ticket",
            DeliveryClass::Log => "log",
        }
    }
}

impl fmt::Display for DeliveryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A detected anomaly with all the evidence the detector saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyReport {
    /// Dense report id, assigned by the detection stage.
    pub id: u64,
    pub kind: AnomalyKind,
    /// Detector-specific anomaly score; larger is more anomalous. Scores
    /// are comparable within one detector, not across detectors.
    pub score: f64,
    /// Name of the detector that raised the report (e.g. `"deeplog"`).
    pub detector: String,
    /// All events in the anomalous window/sequence, in stream order.
    pub events: Vec<LogEvent>,
    /// Short human-readable explanation (e.g. the expected vs observed
    /// next template for a sequential anomaly).
    pub explanation: String,
    /// Evidence trail: contributing trace ids, template ids, window bounds
    /// and the per-detector score breakdown. Empty when tracing is off.
    pub provenance: Provenance,
}

impl AnomalyReport {
    /// Time span covered by the report's events, if any.
    pub fn span(&self) -> Option<(Timestamp, Timestamp)> {
        let first = self.events.iter().map(|e| e.timestamp).min()?;
        let last = self.events.iter().map(|e| e.timestamp).max()?;
        Some((first, last))
    }

    /// Distinct sources that contributed events, ascending.
    pub fn sources(&self) -> Vec<SourceId> {
        let mut v: Vec<SourceId> = self.events.iter().map(|e| e.source).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of events in the report.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// JSON rendering of the report for operators and tooling, including
    /// the provenance evidence trail. Events are summarized (id, timestamp,
    /// source, template) — the full window is available in `events`.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"id\":{},\"ts_ms\":{},\"source\":{},\"template\":{}{}}}",
                    e.id.0,
                    e.timestamp.as_millis(),
                    e.source.0,
                    e.template.0,
                    match e.trace {
                        Some(t) => format!(",\"trace_id\":{}", t.0),
                        None => String::new(),
                    }
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"kind\":\"{}\",\"score\":{},\"detector\":{},\
             \"explanation\":{},\"events\":[{}],\"provenance\":{}}}",
            self.id,
            self.kind,
            crate::trace::json_f64(self.score),
            json_string(&self.detector),
            json_string(&self.explanation),
            events.join(","),
            self.provenance.to_json()
        )
    }
}

/// The fields of one [`AnomalyReport::to_json`] line that its readers
/// key on, read back without a JSON parser. `kind`, `score` and
/// `detector` are the rendered text: `score` is `null` for a non-finite
/// score and `detector` keeps its escapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportLine<'a> {
    pub id: u64,
    pub kind: &'a str,
    pub score: &'a str,
    pub detector: &'a str,
    pub events: Vec<LineEvent>,
    /// The provenance ids, as written.
    pub template_ids: Vec<u64>,
    pub trace_ids: Vec<u64>,
}

/// One event of a [`ReportLine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEvent {
    pub ts_ms: u64,
    pub source: u64,
    pub template: u64,
}

impl<'a> ReportLine<'a> {
    /// Read a line `to_json` wrote, up to the provenance template ids;
    /// `None` for anything else. Each field is read where `to_json`
    /// writes it (a struct literal evaluates its fields in the order
    /// written), so key-like text inside a string is never taken for one.
    pub fn parse(line: &'a str) -> Option<ReportLine<'a>> {
        let mut s = Scan(line);
        Some(ReportLine {
            id: s.num("{\"id\":")?,
            kind: s.text(",\"kind\":\"", |c| c != '"')?,
            score: s.text("\",\"score\":", |c| c != ',')?,
            detector: s.string(",\"detector\":\"")?,
            events: s.events()?,
            trace_ids: s.nums(",\"provenance\":{\"trace_ids\":[")?,
            template_ids: s.nums(",\"template_ids\":[")?,
        })
    }

    /// The id of a line from its leading `{"id":N` alone, so a line
    /// damaged past its id still yields it.
    pub fn id_of(line: &[u8]) -> Option<u64> {
        let rest = line.strip_prefix(b"{\"id\":")?;
        let end = rest.iter().position(|b| !b.is_ascii_digit())?;
        std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
    }
}

/// A cursor over the fixed key layout of a report line. Each read
/// starts with the literal `key` in front of its value.
struct Scan<'a>(&'a str);

impl<'a> Scan<'a> {
    fn lit(&mut self, key: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(key)?;
        Some(())
    }

    /// The text after `key` up to the first char `keep` rejects.
    fn text(&mut self, key: &str, keep: impl Fn(char) -> bool) -> Option<&'a str> {
        self.lit(key)?;
        let (text, rest) = self
            .0
            .split_at(self.0.find(|c| !keep(c)).unwrap_or(self.0.len()));
        self.0 = rest;
        Some(text)
    }

    fn num(&mut self, key: &str) -> Option<u64> {
        self.text(key, |c| c.is_ascii_digit())?.parse().ok()
    }

    /// A JSON string body up to its closing quote, escapes kept.
    fn string(&mut self, key: &str) -> Option<&'a str> {
        self.lit(key)?;
        let bytes = self.0.as_bytes();
        let mut end = 0;
        while *bytes.get(end)? != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        let (text, rest) = self.0.split_at(end);
        self.0 = rest;
        Some(text)
    }

    /// The explanation, skipped, then the events array.
    fn events(&mut self) -> Option<Vec<LineEvent>> {
        self.string("\",\"explanation\":\"")?;
        self.lit("\",\"events\":[")?;
        let mut events = Vec::new();
        while self.lit("]").is_none() {
            if !events.is_empty() {
                self.lit(",")?;
            }
            self.num("{\"id\":")?;
            events.push(LineEvent {
                ts_ms: self.num(",\"ts_ms\":")?,
                source: self.num(",\"source\":")?,
                template: self.num(",\"template\":")?,
            });
            let _trace_id = self.num(",\"trace_id\":");
            self.lit("}")?;
        }
        Some(events)
    }

    /// A JSON array of unsigned integers.
    fn nums(&mut self, key: &str) -> Option<Vec<u64>> {
        self.lit(key)?;
        let mut out = Vec::new();
        while self.lit("]").is_none() {
            out.push(self.num(if out.is_empty() { "" } else { "," })?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::severity::Severity;
    use crate::template::TemplateId;

    fn event(ts: u64, src: u16) -> LogEvent {
        LogEvent::new(
            EventId(ts),
            Timestamp::from_millis(ts),
            SourceId(src),
            Severity::Info,
            TemplateId(0),
            vec![],
            None,
        )
    }

    fn report(events: Vec<LogEvent>) -> AnomalyReport {
        AnomalyReport {
            id: 0,
            kind: AnomalyKind::Sequential,
            score: 1.0,
            detector: "test".into(),
            events,
            explanation: String::new(),
            provenance: Provenance::default(),
        }
    }

    #[test]
    fn span_covers_min_max() {
        let r = report(vec![event(5, 0), event(2, 0), event(9, 1)]);
        assert_eq!(
            r.span(),
            Some((Timestamp::from_millis(2), Timestamp::from_millis(9)))
        );
    }

    #[test]
    fn empty_report_has_no_span() {
        assert_eq!(report(vec![]).span(), None);
        assert!(report(vec![]).is_empty());
    }

    #[test]
    fn sources_are_deduplicated_and_sorted() {
        let r = report(vec![event(1, 3), event(2, 1), event(3, 3)]);
        assert_eq!(r.sources(), vec![SourceId(1), SourceId(3)]);
    }

    #[test]
    fn criticality_ordinal_round_trip() {
        for c in Criticality::ALL {
            assert_eq!(Criticality::from_ordinal(c.ordinal()), c);
        }
        assert_eq!(Criticality::from_ordinal(99), Criticality::High);
    }

    #[test]
    fn report_json_carries_provenance() {
        use crate::trace::{ScoreComponent, TraceId};
        let mut r = report(vec![event(5, 0).with_trace(Some(TraceId(1)))]);
        r.provenance = Provenance {
            trace_ids: vec![TraceId(1)],
            template_ids: vec![0],
            window: Some((Timestamp::from_millis(5), Timestamp::from_millis(5))),
            score_components: vec![ScoreComponent::new("score", 1.0)],
        };
        let json = r.to_json();
        assert!(json.contains("\"provenance\":{\"trace_ids\":[1]"), "{json}");
        assert!(json.contains("\"trace_id\":1"), "{json}");
        assert!(json.contains("\"kind\":\"sequential\""), "{json}");
        assert!(
            json.contains("\"score_components\":[{\"name\":\"score\""),
            "{json}"
        );
    }

    #[test]
    fn criticality_is_ordered() {
        assert!(Criticality::Low < Criticality::Moderate);
        assert!(Criticality::Moderate < Criticality::High);
    }

    #[test]
    fn id_of_reads_only_the_leading_id() {
        assert_eq!(ReportLine::id_of(b"{\"id\":42,\"kind"), Some(42));
        assert_eq!(ReportLine::id_of(b"{\"id\":42"), None, "torn inside the id");
        assert_eq!(ReportLine::id_of(b" {\"id\":42,"), None);
        assert_eq!(ReportLine::parse("{\"id\":42,\"kind"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::EventId;
    use crate::severity::Severity;
    use crate::template::TemplateId;
    use crate::trace::{json_f64, ScoreComponent, TraceId};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Text that a naive scan of the line would trip on.
    fn tricky_text() -> impl Strategy<Value = String> {
        const PIECES: [&str; 8] = [
            "deeplog",
            "\"",
            "\\",
            "\n\u{1}\u{1f}",
            "\"events\":[",
            "\"provenance\":{",
            "é",
            ",\"score\":",
        ];
        vec(0..PIECES.len(), 0..6).prop_map(|picks| picks.iter().map(|&i| PIECES[i]).collect())
    }

    fn score() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            any::<f64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reader recovers every field it keys on from `to_json`.
        #[test]
        fn reader_recovers_every_field(
            (id, sequential, score, detector) in (any::<u64>(), any::<bool>(), score(), tricky_text()),
            explanation in tricky_text(),
            events in vec((any::<u64>(), any::<u16>(), any::<u32>(), (any::<bool>(), any::<u64>())), 0..5),
            (trace_ids, template_ids, component) in (vec(any::<u64>(), 0..4), vec(any::<u32>(), 0..4), tricky_text()),
        ) {
            let report = AnomalyReport {
                id,
                kind: if sequential { AnomalyKind::Sequential } else { AnomalyKind::Quantitative },
                score,
                detector,
                events: events
                    .iter()
                    .map(|&(ts, src, tpl, (traced, trace))| {
                        LogEvent::new(
                            EventId(ts ^ 1),
                            Timestamp::from_millis(ts),
                            SourceId(src),
                            Severity::Info,
                            TemplateId(tpl),
                            vec![],
                            None,
                        )
                        .with_trace(traced.then_some(TraceId(trace)))
                    })
                    .collect(),
                explanation,
                provenance: Provenance {
                    trace_ids: trace_ids.iter().map(|&t| TraceId(t)).collect(),
                    template_ids,
                    window: None,
                    score_components: vec![ScoreComponent::new(component, score)],
                },
            };
            let json = report.to_json();
            let line = ReportLine::parse(&json).expect("to_json output parses");
            prop_assert_eq!(line.id, report.id);
            prop_assert_eq!(line.kind, report.kind.to_string());
            prop_assert_eq!(line.score, json_f64(report.score));
            prop_assert_eq!(format!("\"{}\"", line.detector), json_string(&report.detector));
            let want: Vec<LineEvent> = report
                .events
                .iter()
                .map(|e| LineEvent {
                    ts_ms: e.timestamp.as_millis(),
                    source: e.source.0 as u64,
                    template: e.template.0 as u64,
                })
                .collect();
            prop_assert_eq!(line.events, want);
            let want: Vec<u64> = report.provenance.template_ids.iter().map(|&t| t as u64).collect();
            prop_assert_eq!(line.template_ids, want);
            prop_assert_eq!(line.trace_ids, trace_ids);
            prop_assert_eq!(ReportLine::id_of(json.as_bytes()), Some(report.id));
        }
    }
}
