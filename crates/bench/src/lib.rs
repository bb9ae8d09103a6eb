//! The MoniLog accuracy experiments of `DESIGN.md` §4, one module each:
//! `run()` returns a typed result whose `Display` is the committed
//! `results/exp_<name>.txt`, printed by the `experiments` binary. This
//! root holds what they share — labeled windows, the detector and parser
//! panels, [`Table`] — and [`gate`], the harness of the process gates.

pub mod gate;
mod table;

/// Declares one module per accuracy experiment and [`EXPERIMENTS`], so
/// each name is written once.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every accuracy experiment, by the `<name>` of its committed
        /// `results/exp_<name>.txt`, with the function that renders it.
        pub const EXPERIMENTS: &[(&str, fn() -> String)] =
            &[$((stringify!($name), || $name::run().to_string())),*];
    };
}

experiments! {
    t1_table1, p1_anomaly_free, p2_parse_errors, p3_multisource, p4_parser_bench,
    p5_token_metric, p6_autotune, p7_structured, x1_instability, a1_deeplog_ablation,
    a2_unsupervised_metrics, d1_sharded_drain, d2_classifier,
}

pub use table::{Row, Table};

use monilog_core::detect::window::{session_windows, tumbling_windows};
use monilog_core::detect::{
    CoOccurrenceDetector, DeepLog, DeepLogConfig, Detector, InvariantDetector,
    InvariantDetectorConfig, LogAnomaly, LogAnomalyConfig, LogClusterDetector,
    LogClusterDetectorConfig, LogRobust, LogRobustConfig, PcaDetector, PcaDetectorConfig, Window,
};
use monilog_core::model::event::parse_numeric;
use monilog_core::model::TemplateStore;
use monilog_core::parse::{
    BatchParser, Drain, DrainConfig, IpLoM, IpLoMConfig, LenMa, LenMaConfig, Logan, LoganConfig,
    Logram, LogramConfig, OnlineParser, ParseOutcome, ShardedDrain, Shiso, ShisoConfig, Slct,
    SlctConfig, Spell, SpellConfig,
};
use monilog_loggen::corpus::Corpus;
use monilog_loggen::{GenLog, HdfsWorkloadConfig};

/// An HDFS-like workload of `n_sessions` sessions, the given shares of
/// sequential and quantitative anomalies, and `seed`.
pub fn hdfs(n_sessions: usize, seq: f64, quant: f64, seed: u64) -> HdfsWorkloadConfig {
    HdfsWorkloadConfig {
        n_sessions,
        sequential_anomaly_rate: seq,
        quantitative_anomaly_rate: quant,
        seed,
        ..Default::default()
    }
}

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
        let key = log.truth.session.clone().expect("session-keyed workload");
        (key, outcome.template.0, numerics(&outcome))
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
        nums.push(numerics(&o));
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

/// A detector table with one `F1 @ r%` column per rate, then `last`.
pub fn f1_table(rates: &[f64], last: Option<&str>) -> Table {
    let rates = rates.iter().map(|r| format!("F1 @ {:.0}%", r * 100.0));
    Table::new(
        std::iter::once("detector".into())
            .chain(rates)
            .chain(last.map(String::from)),
    )
}

/// The numeric variables of a parsed line.
fn numerics(outcome: &ParseOutcome) -> Vec<f64> {
    outcome
        .variables
        .iter()
        .filter_map(|v| parse_numeric(v))
        .collect()
}

/// The detector panel at "experiment scale" — small enough to sweep, large
/// enough to be representative.
pub fn detector_panel() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(PcaDetector::new(PcaDetectorConfig::default())),
        Box::new(InvariantDetector::new(InvariantDetectorConfig::default())),
        Box::new(LogClusterDetector::new(LogClusterDetectorConfig::default())),
        Box::new(CoOccurrenceDetector::new(Default::default())),
        Box::new(DeepLog::new(experiment_deeplog())),
        Box::new(LogAnomaly::new(experiment_loganomaly())),
        Box::new(LogRobust::new(LogRobustConfig::default())),
    ]
}

/// `panel` as the detector slice the experiments fit.
pub fn as_dyn(panel: &mut [Box<dyn Detector>]) -> Vec<&mut dyn Detector> {
    panel.iter_mut().map(|d| d.as_mut() as _).collect()
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

/// One parse of a corpus: an outcome per message, and the store they index.
pub type Parsed = (Vec<ParseOutcome>, TemplateStore);
pub type Parse = fn(&[&str]) -> Parsed;

fn online(mut p: impl OnlineParser, messages: &[&str]) -> Parsed {
    (p.parse_all(messages), p.store().clone())
}

fn batch(mut p: impl BatchParser, messages: &[&str]) -> Parsed {
    (p.parse_batch(messages), p.store().clone())
}

/// The parser panel of P4 and P5, by table name, each at its default
/// configuration.
pub const PARSERS: [(&str, Parse); 9] = [
    ("Drain", |m| online(Drain::new(DrainConfig::default()), m)),
    ("Spell", |m| online(Spell::new(SpellConfig::default()), m)),
    ("LenMa", |m| online(LenMa::new(LenMaConfig::default()), m)),
    ("Logan", |m| online(Logan::new(LoganConfig::default()), m)),
    ("SHISO", |m| online(Shiso::new(ShisoConfig::default()), m)),
    ("Logram", |m| {
        online(Logram::new(LogramConfig::default()), m)
    }),
    ("ShardedDrain", |m| {
        online(ShardedDrain::new(Default::default()), m)
    }),
    ("IPLoM", |m| batch(IpLoM::new(IpLoMConfig::default()), m)),
    ("SLCT", |m| batch(Slct::new(SlctConfig::default()), m)),
];

/// Template ids of `outcomes`, in order.
pub fn template_ids(outcomes: &[ParseOutcome]) -> Vec<u32> {
    outcomes.iter().map(|o| o.template.0).collect()
}

/// True template ids of `corpus`, in order.
pub fn truth_ids(corpus: &Corpus) -> Vec<u32> {
    corpus.logs.iter().map(|l| l.truth.template.0).collect()
}

/// Spearman rank correlation of two equally long score vectors (ties get
/// their average rank; a constant vector correlates 0).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let ranks = |xs: &[f64]| -> Vec<f64> {
        let rank = |x: &f64| {
            let below = xs.iter().filter(|y| *y < x).count();
            below as f64 + (xs.iter().filter(|y| *y == x).count() - 1) as f64 / 2.0
        };
        xs.iter().map(rank).collect()
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (a.len() as f64 - 1.0) / 2.0;
    let dot = |x: &[f64], y: &[f64]| -> f64 {
        x.iter().zip(y).map(|(p, q)| (p - mean) * (q - mean)).sum()
    };
    let (va, vb) = (dot(&ra, &ra), dot(&rb, &rb));
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        dot(&ra, &rb) / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_core::parse::DrainConfig;
    use monilog_loggen::HdfsWorkload;
    use std::collections::BTreeSet;

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

    #[test]
    fn every_experiment_has_a_committed_table_and_every_table_a_producer() {
        // Transcripts of the d3 and d5 process gates, not accuracy tables.
        const GATE_OUTPUTS: [&str; 2] = ["d3_pipeline", "d5_recovery"];
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ exists")
            .map(|entry| entry.expect("readable").file_name())
            .filter_map(|file| {
                Some(
                    file.to_str()?
                        .strip_prefix("exp_")?
                        .strip_suffix(".txt")?
                        .into(),
                )
            })
            .collect();
        let produced: BTreeSet<String> = EXPERIMENTS
            .iter()
            .map(|(name, _)| *name)
            .chain(GATE_OUTPUTS)
            .map(String::from)
            .collect();
        assert_eq!(committed, produced);
    }
}
