//! The correctness oracle: the same line sequence through in-process
//! `MoniLog::ingest`, the reference every run's sink contents must equal,
//! and the source of the trigger-line index the latency metric needs.

use monilog_core::classify::SeverityRouter;
use monilog_core::detect::DeepLogConfig;
use monilog_core::model::{Criticality, RawLog, SourceId};
use monilog_core::{DetectorChoice, MoniLog, MoniLogConfig, ObservabilityConfig, WindowPolicy};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The pipeline configuration `monilog train` / `monilog monitor` build
/// (`cli::pipeline_config`, which is private), with tracing off to match
/// `--trace-sample-rate 0`.
pub fn pipeline_config() -> MoniLogConfig {
    MoniLogConfig {
        window: WindowPolicy::Session {
            idle_ms: 30_000,
            max_events: 128,
        },
        detector: DetectorChoice::DeepLog(deeplog_config()),
        observability: ObservabilityConfig {
            trace_sample_rate: 0,
            ..ObservabilityConfig::default()
        },
        ..MoniLogConfig::default()
    }
}

pub fn deeplog_config() -> DeepLogConfig {
    DeepLogConfig {
        history: 8,
        top_g: 3,
        epochs: 3,
        ..DeepLogConfig::default()
    }
}

/// The router `--page-at low` installs: every report is page-level and
/// routed to the framed-TCP sink.
pub fn page_at_low() -> SeverityRouter {
    let mut router = SeverityRouter::default();
    router.page_at = Criticality::Low;
    router.ticket_at = router.ticket_at.min(Criticality::Low);
    router
}

pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One report the reference produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Index of the live line whose `ingest` call returned the report.
    pub trigger: usize,
    pub id: u64,
    /// Delivery-class tag the monitor's router must assign.
    pub class: u8,
    /// Hash of `AnomalyReport::to_json`: window bounds, event ids,
    /// template ids, kind, score and explanation in one comparison.
    pub body_hash: u64,
}

pub struct Reference {
    /// Ascending by trigger line (and by id: ids are dense from 0).
    pub reports: Vec<Expected>,
    /// Templates the parser held after the last line.
    pub templates: usize,
}

/// Run `live` through a pipeline restored from the `monilog train`
/// checkpoint, exactly as the monitor journals it: source id of the
/// transport, sequence numbers from 1. No end-of-stream flush: the
/// daemon never sees one either.
pub fn reference(
    checkpoint: &[u8],
    source: SourceId,
    live: &[String],
) -> Result<Reference, String> {
    let mut pipeline = MoniLog::restore(pipeline_config(), checkpoint)
        .map_err(|e| format!("restore reference pipeline: {e}"))?;
    let router = page_at_low();
    let mut reports = Vec::new();
    for (i, line) in live.iter().enumerate() {
        for a in pipeline.ingest(&RawLog::new(source, i as u64 + 1, line.as_str())) {
            if a.report.id != reports.len() as u64 {
                return Err(format!(
                    "reference report ids are not dense: got {} after {} reports",
                    a.report.id,
                    reports.len()
                ));
            }
            reports.push(Expected {
                trigger: i,
                id: a.report.id,
                class: router.class_for(a.assignment.criticality).tag(),
                body_hash: body_hash(a.report.to_json().as_bytes()),
            });
        }
    }
    Ok(Reference {
        reports,
        templates: pipeline.templates().len(),
    })
}

/// How many reports are due once the first `lines` live lines are
/// applied: those whose trigger line is among them.
pub fn reports_due(expected: &[Expected], lines: usize) -> usize {
    expected.partition_point(|e| e.trigger < lines)
}

/// One data frame the collector acknowledged.
#[derive(Debug, Clone)]
pub struct Receipt {
    pub id: u64,
    pub class: u8,
    pub body_hash: u64,
    pub at: Instant,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub missing: usize,
    pub duplicated: usize,
    /// Right id, wrong class or body.
    pub mismatched: usize,
    /// An id the reference never produced.
    pub unexpected: usize,
}

impl Verdict {
    pub fn failed(&self) -> usize {
        self.missing + self.duplicated + self.mismatched + self.unexpected
    }
}

/// Compare the sink's contents with the reference: every expected report
/// exactly once, equal in class and body, and nothing else.
pub fn verify(expected: &[Expected], receipts: &[Receipt]) -> Verdict {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut v = Verdict::default();
    for r in receipts {
        let count = seen.entry(r.id).or_insert(0);
        *count += 1;
        if *count > 1 {
            v.duplicated += 1;
            continue;
        }
        // Ids are dense from 0, so the id is the index.
        match expected.get(r.id as usize) {
            None => v.unexpected += 1,
            Some(e) if e.class != r.class || e.body_hash != r.body_hash => v.mismatched += 1,
            Some(_) => {}
        }
    }
    v.missing = expected
        .iter()
        .filter(|e| !seen.contains_key(&e.id))
        .count();
    v
}

/// Latency samples of one phase as `(trigger line, milliseconds)`: for
/// every report whose trigger line lies in `[from_line, to_line)`, first
/// sink receipt minus the due send instant of the trigger line
/// (`due(line)`). Ascending by trigger line.
pub fn latencies_ms(
    expected: &[Expected],
    receipts: &[Receipt],
    from_line: usize,
    to_line: usize,
    due: impl Fn(usize) -> Instant,
) -> Vec<(usize, f64)> {
    let mut first: HashMap<u64, Instant> = HashMap::new();
    for r in receipts {
        first
            .entry(r.id)
            .and_modify(|at| *at = (*at).min(r.at))
            .or_insert(r.at);
    }
    expected[reports_due(expected, from_line)..reports_due(expected, to_line)]
        .iter()
        .filter_map(|e| {
            let at = first.get(&e.id)?;
            let ms = at.saturating_duration_since(due(e.trigger)).as_secs_f64() * 1e3;
            Some((e.trigger, ms))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn expected(triggers: &[usize]) -> Vec<Expected> {
        triggers
            .iter()
            .enumerate()
            .map(|(id, &trigger)| Expected {
                trigger,
                id: id as u64,
                class: 0,
                body_hash: 100 + id as u64,
            })
            .collect()
    }

    fn receipt(id: u64, at: Instant) -> Receipt {
        Receipt {
            id,
            class: 0,
            body_hash: 100 + id,
            at,
        }
    }

    #[test]
    fn trigger_lines_map_reports_to_phases() {
        let exp = expected(&[3, 3, 10, 25, 40]);
        assert_eq!(reports_due(&exp, 0), 0);
        assert_eq!(
            reports_due(&exp, 3),
            0,
            "line 3 is not among the first three"
        );
        assert_eq!(reports_due(&exp, 4), 2);
        assert_eq!(reports_due(&exp, 26), 4);
        assert_eq!(reports_due(&exp, 1_000), 5);

        // Lines are due 1 ms apart from t0; reports arrive 5 ms after
        // their trigger line was due. Only triggers in [4, 30) count.
        let t0 = Instant::now();
        let due = |line: usize| t0 + Duration::from_millis(line as u64);
        let receipts: Vec<Receipt> = exp
            .iter()
            .map(|e| receipt(e.id, due(e.trigger) + Duration::from_millis(5)))
            .collect();
        let lat = latencies_ms(&exp, &receipts, 4, 30, due);
        assert_eq!(lat.len(), 2);
        assert_eq!((lat[0].0, lat[1].0), (10, 25), "trigger lines");
        assert!(lat.iter().all(|(_, l)| (l - 5.0).abs() < 1e-6), "{lat:?}");
        // A retransmitted report counts from its first receipt.
        let mut again = receipts.clone();
        again.push(receipt(2, due(10) + Duration::from_millis(50)));
        assert_eq!(latencies_ms(&exp, &again, 4, 30, due), lat);
    }

    #[test]
    fn verify_counts_every_kind_of_difference() {
        let exp = expected(&[1, 2, 3, 4]);
        let now = Instant::now();
        assert_eq!(
            verify(
                &exp,
                &exp.iter().map(|e| receipt(e.id, now)).collect::<Vec<_>>()
            ),
            Verdict::default()
        );
        let mut wrong_body = receipt(1, now);
        wrong_body.body_hash = 0;
        let receipts = vec![
            receipt(0, now),
            receipt(0, now), // duplicate
            wrong_body,      // mismatch
            receipt(9, now), // never expected
                             // ids 2 and 3 missing
        ];
        let v = verify(&exp, &receipts);
        assert_eq!(
            v,
            Verdict {
                missing: 2,
                duplicated: 1,
                mismatched: 1,
                unexpected: 1
            }
        );
        assert_eq!(v.failed(), 5);
    }
}
