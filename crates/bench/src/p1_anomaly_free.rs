//! Experiment P1 (paper Section III, planned experiment 1):
//! "We are interested in studying their precision if trained using an
//! anomaly-free dataset."
//!
//! Every detector is trained on a normal-only HDFS-like stream and
//! evaluated on a labeled test stream. Expected shape: the unsupervised
//! models work; LogRobust — supervised, designed around a 50%-anomalous
//! training set — collapses to zero recall.

use crate::{as_dyn, detector_panel, hdfs, parse_session_windows, Table};
use monilog_core::detect::{auc, evaluate, DetectionScores, Detector, TrainSet};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use std::fmt;

pub struct P1 {
    pub train: HdfsWorkloadConfig,
    pub test: HdfsWorkloadConfig,
    pub train_lines: usize,
    pub test_lines: usize,
    /// Per detector: name, scores, and the threshold-free AUC.
    pub rows: Vec<(&'static str, DetectionScores, f64)>,
}

pub fn run() -> P1 {
    let mut panel = detector_panel();
    let detectors = &mut as_dyn(&mut panel);
    measure(hdfs(1_200, 0.0, 0.0, 101), hdfs(600, 0.05, 0.03, 102), detectors)
}

/// Train `detectors` on the anomaly-free `train` stream and score them on
/// the labeled `test` stream.
pub fn measure(
    train: HdfsWorkloadConfig,
    test: HdfsWorkloadConfig,
    detectors: &mut [&mut dyn Detector],
) -> P1 {
    let train_logs = HdfsWorkload::new(train.clone()).generate();
    let test_logs = HdfsWorkload::new(test.clone()).generate();
    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, _) = parse_session_windows(&mut parser, &train_logs);
    let (windows, labels) = parse_session_windows(&mut parser, &test_logs);
    let train_set = TrainSet::unlabeled(train_windows).with_templates(parser.store().clone());
    let rows = detectors.iter_mut().map(|d| {
        d.fit(&train_set);
        d.update_templates(parser.store());
        let scores = evaluate(&**d, &windows, &labels);
        (d.name(), scores, auc(&**d, &windows, &labels))
    });
    P1 {
        rows: rows.collect(),
        train_lines: train_logs.len(),
        test_lines: test_logs.len(),
        train,
        test,
    }
}

impl fmt::Display for P1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new("detector|precision|recall|F1|AUC|TP|FP|FN".split('|'));
        for (name, s, auc) in &self.rows {
            let row = table.row().cell(name).pct(s.precision).pct(s.recall).f3(s.f1).f3(*auc);
            row.cell(s.counts.tp).cell(s.counts.fp).cell(s.counts.fn_);
        }
        let (train, test) = (&self.train, &self.test);
        let anomalous = 100.0 * (test.sequential_anomaly_rate + test.quantitative_anomaly_rate);
        writeln!(
            f,
            "# P1 — detectors trained on an anomaly-free stream\n\n\
             train: {} lines / {} sessions (all normal); \
             test: {} lines / {} sessions (~{anomalous:.0}% anomalous)\n\n{table}\n\
             (AUC is threshold-free: it scores the detector's ranking of windows.\n\
             LogRobust's 0.5 under anomaly-free training means its scores carry no\n\
             information at all — not merely a badly-placed threshold.)\n\n\
             Shape check: LogRobust (supervised) must sit at recall 0 — the paper's\n\
             point that a 50%-anomalous training set is an unrealistic requirement.",
            self.train_lines, train.n_sessions, self.test_lines, test.n_sessions,
        )
    }
}
