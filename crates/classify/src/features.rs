//! Anomaly-report featurization.
//!
//! The classifier never sees raw logs — it sees a fixed-length feature
//! vector per [`AnomalyReport`]: a hashed template histogram, the source
//! mix, severity composition, burst statistics and the anomaly kind. Fixed
//! dimensionality keeps the online learners simple and makes reports from
//! evolving template vocabularies comparable.

use monilog_model::hash::splitmix64;
use monilog_model::{AnomalyKind, AnomalyReport, Severity};

/// Buckets of the hashed template histogram.
const TEMPLATE_BUCKETS: usize = 24;
/// Buckets of the hashed source histogram.
const SOURCE_BUCKETS: usize = 8;
/// Scalar features appended after the histograms.
const SCALARS: usize = 8;

/// Total feature dimensionality.
pub const FEATURE_DIM: usize = TEMPLATE_BUCKETS + SOURCE_BUCKETS + SCALARS;

fn bucket(x: u64, buckets: usize) -> usize {
    // SplitMix64 for good avalanche on small ids.
    splitmix64(x) as usize % buckets
}

/// Build the feature vector of a report. All histogram blocks are
/// L1-normalized; scalars are squashed into [0, 1] ranges.
pub fn featurize(report: &AnomalyReport) -> Vec<f64> {
    let mut out = vec![0.0; FEATURE_DIM];
    let n = report.events.len().max(1) as f64;

    // Template histogram (hashed).
    for e in &report.events {
        out[bucket(e.template.0 as u64, TEMPLATE_BUCKETS)] += 1.0 / n;
    }
    // Source histogram (hashed).
    for e in &report.events {
        out[TEMPLATE_BUCKETS + bucket(e.source.0 as u64, SOURCE_BUCKETS)] += 1.0 / n;
    }

    let s = TEMPLATE_BUCKETS + SOURCE_BUCKETS;
    // Scalar block.
    out[s] = match report.kind {
        AnomalyKind::Sequential => 1.0,
        AnomalyKind::Quantitative => 0.0,
    };
    out[s + 1] = (report.events.len() as f64 / 50.0).min(1.0); // report size
    out[s + 2] = report.sources().len() as f64 / 8.0; // source spread
    let errorlike = report
        .events
        .iter()
        .filter(|e| e.level.is_errorlike())
        .count() as f64;
    out[s + 3] = errorlike / n; // severity mix
    let warnings = report
        .events
        .iter()
        .filter(|e| e.level == Severity::Warning)
        .count() as f64;
    out[s + 4] = warnings / n;
    if let Some((first, last)) = report.span() {
        let ms = last.millis_since(first) as f64;
        out[s + 5] = (ms / 60_000.0).min(1.0); // span, capped at a minute
        out[s + 6] = if ms > 0.0 {
            (n / (ms / 1_000.0 + 1.0)).min(50.0) / 50.0
        } else {
            1.0
        };
    }
    out[s + 7] = (report.score / 10.0).tanh(); // detector score, squashed
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{EventId, LogEvent, SourceId, TemplateId, Timestamp};

    fn event(ts: u64, src: u16, template: u32, level: Severity) -> LogEvent {
        LogEvent::new(
            EventId(ts),
            Timestamp::from_millis(ts),
            SourceId(src),
            level,
            TemplateId(template),
            vec![],
            None,
        )
    }

    fn report(kind: AnomalyKind, events: Vec<LogEvent>) -> AnomalyReport {
        AnomalyReport {
            id: 1,
            kind,
            score: 3.0,
            detector: "test".into(),
            events,
            explanation: String::new(),
            provenance: Default::default(),
        }
    }

    #[test]
    fn dimension_is_stable() {
        let r = report(
            AnomalyKind::Sequential,
            vec![event(0, 0, 0, Severity::Info)],
        );
        assert_eq!(featurize(&r).len(), FEATURE_DIM);
        let empty = report(AnomalyKind::Quantitative, vec![]);
        assert_eq!(featurize(&empty).len(), FEATURE_DIM);
    }

    #[test]
    fn histograms_are_normalized() {
        let r = report(
            AnomalyKind::Sequential,
            (0..10)
                .map(|i| event(i, (i % 3) as u16, i as u32, Severity::Info))
                .collect(),
        );
        let f = featurize(&r);
        let template_mass: f64 = f[..TEMPLATE_BUCKETS].iter().sum();
        let source_mass: f64 = f[TEMPLATE_BUCKETS..TEMPLATE_BUCKETS + SOURCE_BUCKETS]
            .iter()
            .sum();
        assert!((template_mass - 1.0).abs() < 1e-9);
        assert!((source_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kind_flag_distinguishes_reports() {
        let seq = report(
            AnomalyKind::Sequential,
            vec![event(0, 0, 0, Severity::Info)],
        );
        let quant = report(
            AnomalyKind::Quantitative,
            vec![event(0, 0, 0, Severity::Info)],
        );
        let fs = featurize(&seq);
        let fq = featurize(&quant);
        assert_eq!(fs[TEMPLATE_BUCKETS + SOURCE_BUCKETS], 1.0);
        assert_eq!(fq[TEMPLATE_BUCKETS + SOURCE_BUCKETS], 0.0);
    }

    #[test]
    fn different_template_mixes_give_different_features() {
        let a = report(
            AnomalyKind::Sequential,
            vec![
                event(0, 0, 1, Severity::Info),
                event(1, 0, 1, Severity::Info),
            ],
        );
        let b = report(
            AnomalyKind::Sequential,
            vec![
                event(0, 0, 7, Severity::Info),
                event(1, 0, 9, Severity::Info),
            ],
        );
        assert_ne!(featurize(&a), featurize(&b));
    }

    #[test]
    fn severity_mix_is_reflected() {
        let r = report(
            AnomalyKind::Sequential,
            vec![
                event(0, 0, 0, Severity::Error),
                event(1, 0, 0, Severity::Info),
                event(2, 0, 0, Severity::Warning),
                event(3, 0, 0, Severity::Critical),
            ],
        );
        let f = featurize(&r);
        let s = TEMPLATE_BUCKETS + SOURCE_BUCKETS;
        assert!((f[s + 3] - 0.5).abs() < 1e-9, "errorlike fraction");
        assert!((f[s + 4] - 0.25).abs() < 1e-9, "warning fraction");
    }

    #[test]
    fn features_are_bounded() {
        let r = report(
            AnomalyKind::Quantitative,
            (0..200).map(|i| event(i, 0, 0, Severity::Error)).collect(),
        );
        for (i, x) in featurize(&r).iter().enumerate() {
            assert!((-1e-9..=1.0 + 1e-9).contains(x), "feature {i} = {x}");
        }
    }
}
