//! Ablation A2 (paper Section IV extension): "We plan to extend that study
//! to the pertinence of other unsupervised metrics."
//!
//! Which label-free signal best predicts true parsing quality? Across the
//! whole Drain tuning grid on every corpus, we rank configurations by each
//! unsupervised signal and measure the Spearman rank correlation with the
//! configurations' *true* grouping accuracy. A metric is pertinent for
//! auto-parametrization iff this correlation is strongly positive.

use crate::{spearman, template_ids, truth_ids, Table};
use monilog_core::parse::autotune::{autotune_drain, TuneGrid};
use monilog_core::parse::eval::{grouping_accuracy, UnsupervisedReport};
use monilog_core::parse::{Drain, OnlineParser};
use monilog_loggen::corpus::benchmark_panel;
use std::fmt;

type Signal = fn(&UnsupervisedReport) -> f64;

/// The signals, by table name.
const SIGNALS: [(&str, Signal); 5] = [
    ("quality", |r| r.quality),
    ("cohesion", |r| r.cohesion),
    ("−separation", |r| -r.separation),
    ("coverage", |r| r.coverage),
    ("−template count", |r| -(r.template_count as f64)),
];

pub struct A2 {
    pub corpora: Vec<&'static str>,
    /// Per corpus: the rank correlation of each of `SIGNALS` with GA.
    pub correlations: Vec<[f64; 5]>,
}

pub fn run() -> A2 {
    let panel = benchmark_panel(60, 1301);
    let correlations = panel.iter().map(|corpus| {
        let messages: Vec<&str> = corpus.messages().collect();
        let truth = truth_ids(corpus);
        let grid = autotune_drain(&messages, &TuneGrid::default(), 1_000).all;
        // True GA of every grid point (on the same data — we are testing
        // metric pertinence, not generalization here).
        let gas: Vec<f64> = grid
            .iter()
            .map(|point| {
                let parsed = template_ids(&Drain::new(point.config).parse_all(&messages));
                grouping_accuracy(&parsed, &truth)
            })
            .collect();
        SIGNALS.map(|(_, signal)| {
            let scores: Vec<f64> = grid.iter().map(|point| signal(&point.report)).collect();
            spearman(&scores, &gas)
        })
    });
    A2 {
        corpora: panel.iter().map(|c| c.name).collect(),
        correlations: correlations.collect(),
    }
}

impl fmt::Display for A2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let corpora = self.corpora.iter().copied();
        let headers = std::iter::once("signal (rank corr. with GA)").chain(corpora);
        let mut table = Table::new(headers.chain(["mean"]));
        for (i, (signal, _)) in SIGNALS.iter().enumerate() {
            let row: Vec<f64> = self.correlations.iter().map(|c| c[i]).collect();
            let mean = row.iter().sum::<f64>() / row.len() as f64;
            table.row().cell(signal).f3s(&row).f3(mean);
        }
        writeln!(
            f,
            "# A2 — which unsupervised signal predicts parsing quality?\n\n{table}\n\
             Finding (this study drove the tuner's objective): cohesion\n\
             ANTI-correlates with true accuracy on the three stable corpora —\n\
             heavier masking widens templates (lower cohesion) yet parses better —\n\
             so cohesion-based composites mis-rank. −separation ranks best on\n\
             average. The shipped composite, quality = coverage − separation,\n\
             matches it on the stable corpora but not on `unstable`, where\n\
             quality correlates NEGATIVELY with GA (as do coverage and template\n\
             count): strict GA is near 0 there for every parser (P4), so it\n\
             barely separates the grid points. Template count ranks like quality\n\
             but is unsafe as an objective alone (it degenerates to\n\
             merge-everything outside a bounded grid). P6 measures what the\n\
             ranking costs downstream: the composite's end-to-end regret is 0.0%\n\
             on every corpus, `unstable` included."
        )
    }
}
