//! Ablation A1: which DeepLog components earn their keep?
//!
//! The paper's Table I motivates *both* anomaly categories; DeepLog's
//! design answers with two models plus two deployment refinements. This
//! ablation removes them one at a time:
//!
//! - value model: None vs Gaussian range check vs per-key forecast LSTM
//!   (the original paper's construction) — drives quantitative recall;
//! - EOS modelling: without it, truncated sessions are invisible;
//! - probability floor: without it, count-structure breaks inside the
//!   top-g set pass.

use crate::{experiment_deeplog, hdfs, parse_session_windows, Table};
use monilog_core::detect::{evaluate, DeepLog, DeepLogConfig, DetectionScores, Detector};
use monilog_core::detect::{TrainSet, ValueModelKind};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::HdfsWorkload;
use std::fmt;

type Edit = fn(&mut DeepLogConfig);

pub struct A1 {
    /// Per variant: its name and scores.
    pub rows: Vec<(&'static str, DetectionScores)>,
}

pub fn run() -> A1 {
    let train_logs = HdfsWorkload::new(hdfs(800, 0.0, 0.0, 1201)).generate();
    let test_logs = HdfsWorkload::new(hdfs(500, 0.05, 0.05, 1202)).generate();
    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, _) = parse_session_windows(&mut parser, &train_logs);
    let (test_windows, test_labels) = parse_session_windows(&mut parser, &test_logs);
    let train = TrainSet::unlabeled(train_windows).with_templates(parser.store().clone());

    // Each variant edits the experiment-scale configuration.
    let variants: [(&str, Edit); 6] = [
        ("full (Gaussian values, EOS, prob floor)", |_| {}),
        ("value model: LSTM forecast", |c| c.value_model = ValueModelKind::Lstm),
        ("− value model", |c| c.value_model = ValueModelKind::None),
        ("− EOS", |c| c.use_eos = false),
        ("− probability floor", |c| c.min_prob = 0.0),
        ("sequence-only, no refinements", |c| {
            (c.value_model, c.use_eos, c.min_prob) = (ValueModelKind::None, false, 0.0)
        }),
    ];
    let rows = variants.map(|(name, edit)| {
        let mut config = experiment_deeplog();
        edit(&mut config);
        let mut d = DeepLog::new(config);
        d.fit(&train);
        (name, evaluate(&d, &test_windows, &test_labels))
    });
    A1 { rows: rows.to_vec() }
}

impl fmt::Display for A1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new(["variant", "precision", "recall", "F1"]);
        for (name, s) in &self.rows {
            table.row().cell(name).pct(s.precision).pct(s.recall).f3(s.f1);
        }
        writeln!(
            f,
            "# A1 — DeepLog component ablation\n\n{table}\n\
             Shape check: removing the value model costs quantitative recall;\n\
             removing EOS costs truncated-session recall; removing the probability\n\
             floor costs skipped-step recall. No variant beats the full\n\
             configuration; the LSTM value model only ties the Gaussian check."
        )
    }
}
