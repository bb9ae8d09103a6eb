//! Criterion microbenchmarks: detector scoring throughput (windows/s) —
//! the latency budget of the online detection stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use monilog_bench::{
    experiment_deeplog, experiment_loganomaly, parse_session_windows, parse_tumbling_windows,
};
use monilog_core::detect::{
    DeepLog, DeepLogConfig, Detector, InvariantDetector, InvariantDetectorConfig, LogAnomaly,
    LogAnomalyConfig, LogClusterDetector, LogClusterDetectorConfig, PcaDetector, PcaDetectorConfig,
    TrainSet, Window,
};
use monilog_core::model::affinity::pin_current_thread;
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
/// - `memo_warm`: the same windows again, every sample a memo hit;
/// - `batched_cold_par/<cores>`: `batched_cold` with the corpus cut into
///   windows of two row floors of samples — the smallest pass that is split
///   across cores, so every pass pays the fixed price of a split for one
///   floor of work per thread. Run under `taskset -c 0` for the one-chunk
///   `/1` figure; the two together say what the floor costs;
/// - `spawn_join/<cores>`: that fixed price alone — one scoped thread per
///   core, each pinned to its core, yielding to its siblings and joined.
///
/// `detectors/score/LogAnomaly_par/<cores>` is LogAnomaly over the same
/// 128-line windows, whose rows it splits the same way.
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
    let train = TrainSet::unlabeled(train_windows).with_templates(parser.store().clone());
    let mut deeplog = DeepLog::new(config);
    deeplog.fit(&train);
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
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // 63 events + the end-of-session sample: 64 rows, two floors of 32.
    let two_floors: Vec<Window> = windows
        .iter()
        .flat_map(|w| w.sequence.chunks(63))
        .map(|ids| Window::from_ids(ids.to_vec()))
        .collect();
    let split_samples: usize = two_floors.iter().map(|w| w.len() + 1).sum();
    group.throughput(Throughput::Elements(split_samples as u64));
    group.bench_function(BenchmarkId::new("batched_cold_par", cores), |b| {
        b.iter(|| {
            let cold = DeepLog::load(&checkpoint).expect("own checkpoint");
            for w in &two_floors {
                black_box(cold.score(w));
            }
        })
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("spawn_join", cores), |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for core in 0..cores {
                    s.spawn(move || {
                        pin_current_thread(core);
                        for _ in 1..cores {
                            std::thread::yield_now();
                        }
                    });
                }
            })
        })
    });
    group.finish();

    let mut loganomaly = LogAnomaly::new(LogAnomalyConfig {
        epochs: 1,
        ..LogAnomalyConfig::default()
    });
    loganomaly.fit(&train);
    let mut group = c.benchmark_group("detectors");
    group.sample_size(10);
    group.throughput(Throughput::Elements(windows.len() as u64));
    group.bench_function(
        BenchmarkId::new("score", format!("LogAnomaly_par/{cores}")),
        |b| {
            b.iter(|| {
                for w in &windows {
                    black_box(loganomaly.score(w));
                }
            })
        },
    );
    group.finish();
}

criterion_group!(benches, detector_scoring, deeplog_inference);
criterion_main!(benches);
