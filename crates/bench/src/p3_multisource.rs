//! Experiment P3 (paper Section III, planned experiment 3):
//! "LSTMs are good at learning sequences, but in a multi-source
//! environment, execution flows from each source are mixed. We want to
//! compare LSTM with PCA, IM, and LogClustering approaches using a dataset
//! extracted from such environment."
//!
//! Two regimes over the same cloud platform:
//! - *session-keyed* (flows separated per request/block) — the LSTM home
//!   turf;
//! - *mixed tumbling windows* over the merged 24-source stream with
//!   cross-source incidents — the regime the paper worries about.

use crate::{as_dyn, detector_panel, hdfs, parse_session_windows, parse_tumbling_windows, Table};
use monilog_core::detect::{evaluate, DetectionScores, Detector, TrainSet, Window};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::{CloudWorkload, CloudWorkloadConfig, HdfsWorkload, HdfsWorkloadConfig};
use std::fmt;

/// Per detector: its name and its scores on the regime's test windows.
pub type Scores = Vec<(&'static str, DetectionScores)>;

pub struct P3 {
    pub keyed: Scores,
    pub mixed: Scores,
}

pub fn run() -> P3 {
    let (mut keyed_panel, mut mixed_panel) = (detector_panel(), detector_panel());
    let cloud = |walks_per_source, n_incidents, seed| CloudWorkloadConfig {
        walks_per_source,
        json_tail: false,
        n_incidents,
        seed,
        ..CloudWorkloadConfig::default()
    };
    P3 {
        keyed: keyed(
            hdfs(1_000, 0.0, 0.0, 301),
            hdfs(500, 0.06, 0.0, 302),
            &mut as_dyn(&mut keyed_panel),
        ),
        mixed: mixed(cloud(250, 0, 303), cloud(100, 20, 304), &mut as_dyn(&mut mixed_panel)),
    }
}

/// Regime A: session-keyed flows of an HDFS-like stream.
pub fn keyed(
    train: HdfsWorkloadConfig,
    test: HdfsWorkloadConfig,
    detectors: &mut [&mut dyn Detector],
) -> Scores {
    let mut parser = Drain::new(DrainConfig::default());
    let train = parse_session_windows(&mut parser, &HdfsWorkload::new(train).generate());
    let test = parse_session_windows(&mut parser, &HdfsWorkload::new(test).generate());
    score(&parser, train.0, &test, detectors)
}

/// Regime B: tumbling windows of 40 lines over the mixed multi-source
/// stream, where incidents cross sources; a window is anomalous iff it
/// holds at least 3 incident lines.
pub fn mixed(
    train: CloudWorkloadConfig,
    test: CloudWorkloadConfig,
    detectors: &mut [&mut dyn Detector],
) -> Scores {
    let mut parser = Drain::new(DrainConfig::default());
    let mut windows = |config| {
        let logs = CloudWorkload::new(config).generate();
        parse_tumbling_windows(&mut parser, &logs, 40, 3)
    };
    let (train, test) = (windows(train).0, windows(test));
    score(&parser, train, &test, detectors)
}

/// Fit each detector on the unlabeled training windows and score it on
/// the labeled test windows.
fn score(
    parser: &Drain,
    train: Vec<Window>,
    (windows, labels): &(Vec<Window>, Vec<bool>),
    detectors: &mut [&mut dyn Detector],
) -> Scores {
    let train = TrainSet::unlabeled(train).with_templates(parser.store().clone());
    let scores = detectors.iter_mut().map(|d| {
        d.fit(&train);
        d.update_templates(parser.store());
        (d.name(), evaluate(&**d, windows, labels))
    });
    scores.collect()
}

impl fmt::Display for P3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new(["detector", "F1 (keyed flows)", "F1 (mixed 24-source)", "Δ"]);
        for ((name, keyed), (_, mixed)) in self.keyed.iter().zip(&self.mixed) {
            let (keyed, mixed) = (keyed.f1, mixed.f1);
            table.row().cell(name).f3(keyed).f3(mixed).f3(mixed - keyed);
        }
        writeln!(
            f,
            "# P3 — sequence vs counter detectors, keyed vs mixed streams\n\n{table}\n\
             Shape check: on keyed flows the LSTMs tie PCA at the top; on the mixed\n\
             stream every sequence model collapses — interleaving destroys the\n\
             order structure LSTMs exploit — while PCA's count vectors, which are\n\
             order-invariant, keep most of their F1 and lead the panel.\n\
             CoOccurrence is the dual case: useless on per-flow anomalies, second\n\
             on cross-source incidents — the paper's §I example needs a\n\
             multi-source scope that no single-flow model provides, but at this\n\
             seed the counter method covers it better."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_core::detect::{PcaDetector, PcaDetectorConfig};

    /// P3 shape: on an unkeyed multi-source mixed stream (tumbling
    /// windows), the order-invariant counter method stays useful while the
    /// sequence model loses its edge (mixed flows destroy order
    /// information).
    #[test]
    fn p3_multisource_counts_stay_competitive() {
        let cloud = |walks_per_source, n_incidents, seed| CloudWorkloadConfig {
            n_sources: 8,
            walks_per_source,
            json_tail: false,
            n_incidents,
            seed,
            ..CloudWorkloadConfig::default()
        };
        let mut pca = PcaDetector::new(PcaDetectorConfig::default());
        let [(_, pca_scores)] = mixed(cloud(150, 0, 6), cloud(60, 8, 7), &mut [&mut pca])[..]
        else {
            panic!("one detector in, one row out");
        };
        let counts = pca_scores.counts;
        assert!(
            counts.tp + counts.fn_ > 0,
            "incidents must label some windows"
        );
        // The counter method catches incident bursts in mixed streams.
        assert!(
            pca_scores.recall > 0.5,
            "PCA recall {:.3} on multi-source incidents",
            pca_scores.recall
        );
    }
}
