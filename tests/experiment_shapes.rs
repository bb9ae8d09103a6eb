//! Experiment shapes at CI-friendly scale, and the golden hashes. P3, P5
//! and P6 keep theirs next to their experiments in `crates/bench`; P1's
//! runs P1's own code here, in parallel with the other slow tests. The
//! rest measure what no table prints.

use monilog_bench::{
    experiment_deeplog, experiment_loganomaly, hdfs, p1_anomaly_free, parse_session_windows,
};
use monilog_core::detect::{
    DeepLog, DeepLogConfig, DetectionScores, Detector, LogAnomaly, LogAnomalyConfig, LogRobust,
    LogRobustConfig, TrainSet, Window,
};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig, InstabilityConfig, InstabilityInjector};

/// Detector quality, pinned: precision, recall and F1 within ±0.05 of
/// what the commit before tape-free inference measured, so a change that
/// moves detector output — even by a few windows — fails here instead of
/// in an experiment nobody re-ran.
fn pinned(name: &str, got: &DetectionScores, (precision, recall, f1): (f64, f64, f64)) {
    for (metric, got, want) in [
        ("precision", got.precision, precision),
        ("recall", got.recall, recall),
        ("F1", got.f1, f1),
    ] {
        assert!(
            (got - want).abs() <= 0.05,
            "{name} {metric} moved: {got:.3}, pinned at {want:.3} ± 0.05"
        );
    }
}

/// P1 shape, through P1's own code at reduced size: trained anomaly-free,
/// DeepLog and LogAnomaly detect well; LogRobust (supervised) collapses
/// to zero recall.
#[test]
fn p1_anomaly_free_training_shape() {
    let mut deeplog = DeepLog::new(experiment_deeplog());
    let mut loganomaly = LogAnomaly::new(experiment_loganomaly());
    let mut logrobust = LogRobust::new(LogRobustConfig::default());
    let p1 = p1_anomaly_free::measure(
        hdfs(250, 0.0, 0.0, 1),
        hdfs(150, 0.08, 0.04, 2),
        &mut [&mut deeplog, &mut loganomaly, &mut logrobust],
    );
    let [(_, dl, _), (_, la, _), (_, lr, _)] = p1.rows[..] else {
        panic!("three detectors in, three rows out");
    };
    pinned("DeepLog", &dl, (1.0, 1.0, 1.0));
    pinned("LogAnomaly", &la, (1.0, 0.643, 0.783));
    assert!(logrobust.is_degraded());
    assert_eq!(
        lr.recall, 0.0,
        "supervised model can't recall without labels"
    );
    assert!(lr.f1 < dl.f1 && lr.f1 < la.f1, "P1 ordering violated");
}

/// X1/P2 shape: under log instability, DeepLog degrades (false alarms on
/// evolved-but-normal logs) more than LogAnomaly.
#[test]
fn x1_instability_hurts_deeplog_more_than_loganomaly() {
    let stable = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 250,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 3,
        ..Default::default()
    })
    .generate();
    let fresh = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 120,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 4,
        ..Default::default()
    })
    .generate();
    // A high twist ratio forces the (whole-template) twist budget onto
    // common statements, so nearly every session contains evolved lines —
    // the deterministic version of a big deploy.
    let evolved = InstabilityInjector::new(InstabilityConfig {
        ratio: 0.6,
        kinds: vec![monilog_loggen::InstabilityKind::TwistStatement],
        seed: 5,
    })
    .apply(&fresh);

    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, _) = parse_session_windows(&mut parser, &stable);
    let train = TrainSet::unlabeled(train_windows).with_templates(parser.store().clone());

    let mut deeplog = DeepLog::new(experiment_deeplog());
    deeplog.fit(&train);
    let mut loganomaly = LogAnomaly::new(experiment_loganomaly());
    loganomaly.fit(&train);

    let (evolved_windows, _) = parse_session_windows(&mut parser, &evolved);
    deeplog.update_templates(parser.store());
    loganomaly.update_templates(parser.store());

    let far = |d: &dyn Detector| {
        evolved_windows.iter().filter(|w| d.predict(w)).count() as f64
            / evolved_windows.len() as f64
    };
    let deeplog_far = far(&deeplog);
    let loganomaly_far = far(&loganomaly);
    assert!(
        deeplog_far > loganomaly_far,
        "instability shape violated: DeepLog {deeplog_far:.3} vs LogAnomaly {loganomaly_far:.3}"
    );
    assert!(
        deeplog_far > 0.2,
        "a big deploy should trip DeepLog's closed world: {deeplog_far}"
    );
}

/// D2 shape: the passive classifier beats its cold-start baseline after a
/// modest number of feedback signals.
#[test]
fn d2_classifier_learns_from_passive_feedback() {
    use monilog_core::classify::{AdminPolicy, AdminSimulator, AnomalyClassifier, PoolRegistry};
    use monilog_core::model::{
        AnomalyKind, AnomalyReport, EventId, LogEvent, Severity, SourceId, TemplateId, Timestamp,
    };

    let report = |id: u64, source: u16, kind: AnomalyKind| -> AnomalyReport {
        let events = (0..5)
            .map(|i| {
                LogEvent::new(
                    EventId(id * 10 + i),
                    Timestamp::from_millis(id * 1_000 + i * 40),
                    SourceId(source),
                    Severity::Warning,
                    TemplateId(source as u32 * 8 + (i % 3) as u32),
                    vec![],
                    None,
                )
            })
            .collect();
        AnomalyReport {
            id,
            kind,
            score: 2.0,
            detector: "t".into(),
            events,
            explanation: String::new(),
            provenance: Default::default(),
        }
    };

    let mut classifier = AnomalyClassifier::new();
    let net = classifier.create_pool("network");
    let sto = classifier.create_pool("storage");
    let policy = AdminPolicy {
        source_pools: vec![(0, 3, net), (4, 7, sto)],
        quantitative_pool: None,
        default_pool: PoolRegistry::DEFAULT,
        noise: 0.0,
    };
    let mut admin = AdminSimulator::new(policy.clone(), 1);
    let pools = [net, sto];

    // Cold start: everything lands in the default pool → 0% accuracy
    // against a policy that never uses it.
    let probe: Vec<AnomalyReport> = (0..40)
        .map(|i| report(10_000 + i, (i % 8) as u16, AnomalyKind::Sequential))
        .collect();
    let accuracy = |c: &AnomalyClassifier| {
        probe
            .iter()
            .filter(|r| c.classify(r).pool == policy.true_pool(r))
            .count() as f64
            / probe.len() as f64
    };
    assert_eq!(accuracy(&classifier), 0.0);

    for i in 0..120u64 {
        let r = report(i, (i % 8) as u16, AnomalyKind::Sequential);
        let (pool, _) = admin.act(&r, &pools);
        classifier.observe_move(&r, pool);
    }
    let learned = accuracy(&classifier);
    assert!(
        learned > 0.8,
        "classifier only reached {learned} after 120 signals"
    );
}

/// T1 pinned: the Table I worked example of `results/exp_t1_table1.txt`.
/// L1 → L4 is two sequential violations; L3's absurd byte count is one
/// quantitative violation (and, with `top_g` 1, one sequential one at the
/// session's end). Tiny model, exact counts.
#[test]
fn t1_table1_violation_counts_are_pinned() {
    let mut train_windows = Vec::new();
    for i in 0..120 {
        let n = 3 + i % 3;
        let mut w = Window::from_ids(vec![0; n]);
        for k in 0..n {
            w.numerics[k] = vec![100.0 + ((i * 37 + k * 911) % 3_900) as f64];
        }
        train_windows.push(w);
    }
    let mut table1 = DeepLog::new(DeepLogConfig {
        history: 4,
        top_g: 1,
        epochs: 6,
        ..DeepLogConfig::default()
    });
    table1.fit(&TrainSet::unlabeled(train_windows));
    assert_eq!(
        table1.violation_breakdown(&Window::from_ids(vec![0, 2])),
        (2, 0)
    );
    let mut quant = Window::from_ids(vec![0, 0, 0]);
    quant.numerics = vec![vec![138.0], vec![745_675_869.0], vec![512.0]];
    assert_eq!(table1.violation_breakdown(&quant), (1, 1));
}

/// FNV-1a over the `AnomalyReport::to_json` lines of a whole monitor run
/// on a fixed-seed multi-source corpus (instability-injected, so UNK
/// templates, PAD-prefixed histories and truncated windows all occur).
/// The hashes were recorded on the commit before inference went
/// tape-free and batched: scores, kinds, provenance components and report
/// order must be unchanged to the bit, not merely close.
#[test]
fn cloud_report_stream_matches_golden_hash() {
    use monilog_core::model::RawLog;
    use monilog_core::{DetectorChoice, MoniLog, MoniLogConfig, WindowPolicy};
    use monilog_loggen::{CloudWorkload, CloudWorkloadConfig};

    let training = CloudWorkload::new(CloudWorkloadConfig {
        n_sources: 8,
        walks_per_source: 40,
        seed: 31,
        ..CloudWorkloadConfig::default()
    })
    .generate();
    let live = InstabilityInjector::new(InstabilityConfig::all_kinds(0.1, 33)).apply(
        &CloudWorkload::new(CloudWorkloadConfig {
            n_sources: 8,
            walks_per_source: 25,
            n_incidents: 3,
            seed: 32,
            start_ms: 1_600_003_600_000,
            ..CloudWorkloadConfig::default()
        })
        .generate(),
    );

    let run = |detector: DetectorChoice| -> (usize, u64) {
        let mut monilog = MoniLog::new(MoniLogConfig {
            window: WindowPolicy::Session {
                idle_ms: 30_000,
                max_events: 48,
            },
            detector,
            ..MoniLogConfig::default()
        });
        for log in &training {
            monilog.ingest_training(&RawLog::new(
                log.record.source,
                log.record.seq,
                log.record.to_line(),
            ));
        }
        monilog.train();
        let mut reports = Vec::new();
        for log in &live {
            reports.extend(monilog.ingest(&RawLog::new(
                log.record.source,
                log.record.seq + 10_000_000,
                log.record.to_line(),
            )));
        }
        reports.extend(monilog.flush());
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for r in &reports {
            for b in r.report.to_json().bytes().chain([b'\n']) {
                hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        (reports.len(), hash)
    };

    let deeplog = run(DetectorChoice::DeepLog(DeepLogConfig {
        history: 8,
        top_g: 3,
        epochs: 2,
        ..DeepLogConfig::default()
    }));
    assert_eq!(deeplog, GOLDEN_DEEPLOG, "DeepLog report stream moved");
    let loganomaly = run(DetectorChoice::LogAnomaly(LogAnomalyConfig {
        history: 8,
        top_g: 3,
        epochs: 2,
        ..LogAnomalyConfig::default()
    }));
    assert_eq!(
        loganomaly, GOLDEN_LOGANOMALY,
        "LogAnomaly report stream moved"
    );
}

/// `(reports, FNV-1a of the JSON lines)` per detector.
const GOLDEN_DEEPLOG: (usize, u64) = (25, 11_066_496_327_358_873_008);
const GOLDEN_LOGANOMALY: (usize, u64) = (20, 4_165_744_963_499_821_848);

/// FNV-1a over the `save()` bytes of each tape-trained detector fitted on
/// a fixed-seed HDFS corpus with labelled anomalies. The hashes were
/// recorded on the commit before the blocked product kernel and the
/// copy-free tape: every trained weight must be unchanged to the bit.
#[test]
fn trained_weights_match_golden_hash() {
    let logs = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 120,
        sequential_anomaly_rate: 0.1,
        quantitative_anomaly_rate: 0.05,
        seed: 41,
        ..Default::default()
    })
    .generate();
    let mut parser = Drain::new(DrainConfig::default());
    let (windows, labels) = parse_session_windows(&mut parser, &logs);
    let train = TrainSet::labeled(windows, labels).with_templates(parser.store().clone());
    let fnv = |bytes: Vec<u8>| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    };

    let mut deeplog = DeepLog::new(experiment_deeplog());
    deeplog.fit(&train);
    let mut loganomaly = LogAnomaly::new(experiment_loganomaly());
    loganomaly.fit(&train);
    let mut logrobust = LogRobust::new(LogRobustConfig {
        epochs: 2,
        max_windows: 200,
        ..LogRobustConfig::default()
    });
    logrobust.fit(&train);
    let got = [
        fnv(deeplog.save().expect("fitted")),
        fnv(loganomaly.save().expect("fitted")),
        fnv(logrobust.save().expect("trained on labelled anomalies")),
    ];
    assert_eq!(
        got, GOLDEN_TRAINED_WEIGHTS,
        "trained weights moved (DeepLog, LogAnomaly, LogRobust)"
    );
}

/// FNV-1a of `DeepLog`, `LogAnomaly` and `LogRobust` checkpoints.
const GOLDEN_TRAINED_WEIGHTS: [u64; 3] = [
    15_063_128_310_456_751_617,
    13_349_547_526_779_361_144,
    17_218_584_781_790_033_531,
];
