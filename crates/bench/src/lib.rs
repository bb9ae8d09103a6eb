//! Shared infrastructure for the MoniLog experiment binaries.
//!
//! One binary per experiment of `DESIGN.md` §4 lives in `src/bin/`; each
//! prints the markdown table recorded in `EXPERIMENTS.md`. This library
//! holds the glue they share: parsing streams into labeled windows,
//! constructing the detector panel, and table formatting. The process
//! gates that drive the real `monilog` binary share [`gate`].

pub mod gate;

use monilog_core::detect::window::{session_windows, tumbling_windows};
use monilog_core::detect::{
    CoOccurrenceDetector, CoOccurrenceDetectorConfig, DeepLog, DeepLogConfig, Detector,
    InvariantDetector, InvariantDetectorConfig, LogAnomaly, LogAnomalyConfig, LogClusterDetector,
    LogClusterDetectorConfig, LogRobust, LogRobustConfig, PcaDetector, PcaDetectorConfig, Window,
};
use monilog_core::model::event::parse_numeric;
use monilog_core::parse::{Drain, OnlineParser};
use monilog_loggen::GenLog;

/// Parse a session-keyed stream with `parser` into `(windows, labels)`,
/// one window per session, labeled anomalous iff any line is.
pub fn parse_session_windows(parser: &mut Drain, logs: &[GenLog]) -> (Vec<Window>, Vec<bool>) {
    let mut labels_by_key: std::collections::HashMap<String, bool> = Default::default();
    for log in logs {
        let key = log.truth.session.clone().expect("session-keyed workload");
        *labels_by_key.entry(key).or_insert(false) |= log.truth.is_anomalous();
    }
    let events = logs.iter().map(|log| {
        let outcome = parser.parse(&log.record.message);
        let numerics: Vec<f64> = outcome
            .variables
            .iter()
            .filter_map(|v| parse_numeric(v))
            .collect();
        (
            log.truth.session.clone().expect("session-keyed workload"),
            outcome.template.0,
            numerics,
        )
    });
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    for (key, w) in session_windows(events) {
        windows.push(w);
        labels.push(labels_by_key[&key]);
    }
    (windows, labels)
}

/// Parse an unkeyed multi-source stream into tumbling windows; a window is
/// labeled anomalous iff it contains at least `min_marks` anomalous lines.
pub fn parse_tumbling_windows(
    parser: &mut Drain,
    logs: &[GenLog],
    size: usize,
    min_marks: usize,
) -> (Vec<Window>, Vec<bool>) {
    let mut ids = Vec::new();
    let mut nums = Vec::new();
    let mut marks = Vec::new();
    for log in logs {
        let o = parser.parse(&log.record.message);
        ids.push(o.template.0);
        nums.push(
            o.variables
                .iter()
                .filter_map(|v| parse_numeric(v))
                .collect::<Vec<f64>>(),
        );
        marks.push(log.truth.is_anomalous());
    }
    let windows = tumbling_windows(&ids, &nums, size);
    let labels: Vec<bool> = windows
        .iter()
        .scan(0usize, |offset, w| {
            let start = *offset;
            *offset += w.len();
            Some(marks[start..start + w.len()].iter().filter(|&&m| m).count() >= min_marks)
        })
        .collect();
    (windows, labels)
}

/// The detector panel at "experiment scale" — small enough to sweep, large
/// enough to be representative.
pub fn detector_panel() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(PcaDetector::new(PcaDetectorConfig::default())),
        Box::new(InvariantDetector::new(InvariantDetectorConfig::default())),
        Box::new(LogClusterDetector::new(LogClusterDetectorConfig::default())),
        Box::new(CoOccurrenceDetector::new(
            CoOccurrenceDetectorConfig::default(),
        )),
        Box::new(DeepLog::new(experiment_deeplog())),
        Box::new(LogAnomaly::new(experiment_loganomaly())),
        Box::new(LogRobust::new(experiment_logrobust())),
    ]
}

pub fn experiment_deeplog() -> DeepLogConfig {
    DeepLogConfig {
        history: 6,
        top_g: 2,
        epochs: 3,
        ..DeepLogConfig::default()
    }
}

pub fn experiment_loganomaly() -> LogAnomalyConfig {
    LogAnomalyConfig {
        history: 6,
        top_g: 2,
        epochs: 3,
        ..LogAnomalyConfig::default()
    }
}

pub fn experiment_logrobust() -> LogRobustConfig {
    LogRobustConfig {
        epochs: 4,
        ..LogRobustConfig::default()
    }
}

/// Print a markdown table: header row + aligned body rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float as a fixed-point percentage cell.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_core::parse::DrainConfig;
    use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};

    #[test]
    fn session_windows_cover_every_session() {
        let logs = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 30,
            ..Default::default()
        })
        .generate();
        let mut parser = Drain::new(DrainConfig::default());
        let (windows, labels) = parse_session_windows(&mut parser, &logs);
        assert_eq!(windows.len(), 30);
        assert_eq!(labels.len(), 30);
        assert_eq!(windows.iter().map(Window::len).sum::<usize>(), logs.len());
    }

    #[test]
    fn tumbling_windows_label_by_marks() {
        let logs = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 20,
            sequential_anomaly_rate: 0.5,
            ..Default::default()
        })
        .generate();
        let mut parser = Drain::new(DrainConfig::default());
        let (windows, labels) = parse_tumbling_windows(&mut parser, &logs, 25, 1);
        assert!(!windows.is_empty());
        assert!(labels.iter().any(|&l| l), "half the sessions are anomalous");
    }

    #[test]
    fn panel_has_all_six_detectors() {
        let names: Vec<&str> = detector_panel().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "PCA",
                "InvariantMining",
                "LogClustering",
                "CoOccurrence",
                "DeepLog",
                "LogAnomaly",
                "LogRobust",
            ]
        );
    }
}
