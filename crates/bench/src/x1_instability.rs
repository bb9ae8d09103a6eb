//! Experiment X1 (the LogRobust instability study the paper builds on):
//! detector F1 under 0–20% log instability.
//!
//! "LogRobust authors used different altered versions of an HDFS dataset.
//! Each version contains a proportion from 0 to 20% of unstable log
//! events": badly parsed lines, twisted statements, duplicated/shuffled
//! logs (Section III).
//!
//! All six detectors train on the *stable* stream (LogRobust gets labels,
//! as its paper requires) and are evaluated on altered test sets. Expected
//! shape: counter methods and DeepLog fall fastest; LogAnomaly absorbs
//! template variants; LogRobust holds up best.

use crate::{detector_panel, f1_table, hdfs, parse_session_windows};
use monilog_core::detect::{evaluate, TrainSet};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::{HdfsWorkload, InstabilityConfig, InstabilityInjector};
use std::fmt;

const RATIOS: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

pub struct X1 {
    /// Per detector: name and F1 at each of `RATIOS`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

pub fn run() -> X1 {
    // LogRobust needs labeled anomalies: the training stream carries them
    // (its published setup uses ~50%; we use a realistic mix).
    let train_logs = HdfsWorkload::new(hdfs(900, 0.15, 0.10, 1101)).generate();
    let base_test = HdfsWorkload::new(hdfs(500, 0.05, 0.03, 1102)).generate();

    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, train_labels) = parse_session_windows(&mut parser, &train_logs);
    let train =
        TrainSet::labeled(train_windows, train_labels).with_templates(parser.store().clone());
    let mut detectors = detector_panel();
    for d in detectors.iter_mut() {
        d.fit(&train);
    }

    // Parse all altered test sets with the same evolving parser, then
    // refresh every detector's template view once.
    let test_sets = RATIOS.map(|ratio| {
        let injector = InstabilityInjector::new(InstabilityConfig::all_kinds(ratio, 1103));
        let altered = if ratio == 0.0 { base_test.clone() } else { injector.apply(&base_test) };
        parse_session_windows(&mut parser, &altered)
    });
    for d in detectors.iter_mut() {
        d.update_templates(parser.store());
    }
    let rows = detectors.iter().map(|d| {
        let f1s = test_sets.iter().map(|(windows, labels)| evaluate(d.as_ref(), windows, labels).f1);
        (d.name(), f1s.collect())
    });
    X1 { rows: rows.collect() }
}

impl fmt::Display for X1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = f1_table(&RATIOS, Some("drop 0→20%"));
        for (name, f1s) in &self.rows {
            table.row().cell(name).f3s(f1s).f3(f1s[0] - f1s[f1s.len() - 1]);
        }
        writeln!(
            f,
            "# X1 — detector F1 under 0–20% log instability\n\n{table}\n\
             Shape check (LogRobust's published curve): closed-world DeepLog and the\n\
             counter methods PCA and InvariantMining degrade steepest; LogAnomaly\n\
             absorbs part of the evolved templates via semantic matching;\n\
             supervised LogRobust holds the highest F1 at every instability ratio\n\
             above 0%."
        )
    }
}
