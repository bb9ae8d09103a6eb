//! Criterion microbenchmarks: detector scoring throughput (windows/s) —
//! the latency budget of the online detection stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use monilog_bench::{
    experiment_deeplog, experiment_loganomaly, parse_session_windows, parse_tumbling_windows,
};
use monilog_core::detect::{
    DeepLog, DeepLogConfig, Detector, InvariantDetector, InvariantDetectorConfig, LogAnomaly,
    LogClusterDetector, LogClusterDetectorConfig, PcaDetector, PcaDetectorConfig, TrainSet,
};
use monilog_core::parse::{Drain, DrainConfig, OnlineParser};
use monilog_loggen::{CloudWorkload, CloudWorkloadConfig, HdfsWorkload, HdfsWorkloadConfig};
use monilog_nn::{Dense, Embedding, Graph, Lstm, ParamSet, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn detector_scoring(c: &mut Criterion) {
    let train_logs = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 400,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 88,
        ..Default::default()
    })
    .generate();
    let test_logs = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 100,
        sequential_anomaly_rate: 0.05,
        quantitative_anomaly_rate: 0.02,
        seed: 89,
        ..Default::default()
    })
    .generate();
    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, _) = parse_session_windows(&mut parser, &train_logs);
    let (test_windows, _) = parse_session_windows(&mut parser, &test_logs);
    let train = TrainSet::unlabeled(train_windows).with_templates(parser.store().clone());

    let mut pca = PcaDetector::new(PcaDetectorConfig::default());
    pca.fit(&train);
    let mut invariants = InvariantDetector::new(InvariantDetectorConfig::default());
    invariants.fit(&train);
    let mut clustering = LogClusterDetector::new(LogClusterDetectorConfig::default());
    clustering.fit(&train);
    let mut deeplog = DeepLog::new(experiment_deeplog());
    deeplog.fit(&train);
    let mut loganomaly = LogAnomaly::new(experiment_loganomaly());
    loganomaly.fit(&train);

    let mut group = c.benchmark_group("detectors");
    group.sample_size(10);
    group.throughput(Throughput::Elements(test_windows.len() as u64));
    let detectors: Vec<(&str, &dyn Detector)> = vec![
        ("PCA", &pca),
        ("InvariantMining", &invariants),
        ("LogClustering", &clustering),
        ("DeepLog", &deeplog),
        ("LogAnomaly", &loganomaly),
    ];
    for (name, d) in detectors {
        group.bench_function(BenchmarkId::new("score", name), |b| {
            b.iter(|| {
                for w in &test_windows {
                    black_box(d.predict(w));
                }
            })
        });
    }
    group.finish();
}

/// DeepLog inference on multi-source windows, where nearly every history
/// is distinct (the `cloud_churn` case), per `(history, next)` sample:
/// - `tape`: one autograd graph per sample, the pre-batching path, rebuilt
///   here from `monilog-nn` at DeepLog's shape (the detector keeps it
///   only as a test oracle);
/// - `batched_cold`: the detector restored from its checkpoint (empty
///   memo), every window scored once — one tape-free batch per window;
/// - `memo_warm`: the same windows again, every sample a memo hit.
fn deeplog_inference(c: &mut Criterion) {
    let cloud = |walks_per_source, seed| {
        CloudWorkload::new(CloudWorkloadConfig {
            walks_per_source,
            seed,
            ..CloudWorkloadConfig::default()
        })
        .generate()
    };
    let mut parser = Drain::new(DrainConfig::default());
    let (train_windows, _) = parse_tumbling_windows(&mut parser, &cloud(40, 90), 128, 1);
    let (windows, _) = parse_tumbling_windows(&mut parser, &cloud(8, 91), 128, 1);
    let config = DeepLogConfig {
        epochs: 1,
        ..DeepLogConfig::default()
    };
    let mut deeplog = DeepLog::new(config);
    deeplog.fit(&TrainSet::unlabeled(train_windows));
    let checkpoint = deeplog.save().expect("gaussian value model checkpoints");
    // One sample per event plus the end-of-session sample.
    let samples: usize = windows.iter().map(|w| w.len() + 1).sum();

    let vocab = parser.store().len() + 3;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut params = ParamSet::new();
    let emb = Embedding::new(&mut params, vocab, config.embedding_dim, &mut rng);
    let lstm = Lstm::new(&mut params, config.embedding_dim, config.hidden, &mut rng);
    let head = Dense::new(&mut params, config.hidden, vocab, &mut rng);
    let histories: Vec<Vec<usize>> = windows
        .iter()
        .flat_map(|w| {
            let mut ids = vec![vocab - 1; config.history];
            ids.extend(w.sequence.iter().map(|&id| (id as usize).min(vocab - 3)));
            (0..=w.len())
                .map(|i| ids[i..i + config.history].to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(histories.len(), samples);

    let mut group = c.benchmark_group("deeplog_infer");
    group.sample_size(10);
    group.throughput(Throughput::Elements(samples as u64));
    group.bench_function("tape", |b| {
        b.iter(|| {
            for history in &histories {
                let mut g = Graph::new();
                let embedded = emb.forward(&mut g, &params, history);
                let xs: Vec<Var> = (0..history.len())
                    .map(|t| g.select_row(embedded, t))
                    .collect();
                let states = lstm.run(&mut g, &params, &xs);
                let logits = head.forward(&mut g, &params, states.last().expect("h ≥ 1").h);
                let probs = g.row_softmax(logits);
                black_box(g.value(probs));
            }
        })
    });
    group.bench_function("batched_cold", |b| {
        b.iter(|| {
            let cold = DeepLog::load(&checkpoint).expect("own checkpoint");
            for w in &windows {
                black_box(cold.score(w));
            }
        })
    });
    for w in &windows {
        deeplog.score(w);
    }
    group.bench_function("memo_warm", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(deeplog.score(w));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, detector_scoring, deeplog_inference);
criterion_main!(benches);
