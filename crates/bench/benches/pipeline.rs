//! Criterion benchmark: end-to-end pipeline ingestion throughput (the D3
//! headline number, measured with Criterion rigor).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use monilog_core::detect::DeepLogConfig;
use monilog_core::model::RawLog;
use monilog_core::{DetectorChoice, MoniLog, MoniLogConfig, WindowPolicy};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use std::hint::black_box;

fn pipeline_throughput(c: &mut Criterion) {
    let train_logs = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 300,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 70,
        ..Default::default()
    })
    .generate();
    let live_logs = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 200,
        sequential_anomaly_rate: 0.03,
        quantitative_anomaly_rate: 0.02,
        seed: 71,
        start_ms: 1_600_003_600_000,
    })
    .generate();
    let live_raw: Vec<RawLog> = live_logs
        .iter()
        .map(|l| RawLog::new(l.record.source, l.record.seq, l.record.to_line()))
        .collect();

    // Train once outside the measurement loop.
    let mut monilog = MoniLog::new(MoniLogConfig {
        window: WindowPolicy::Session {
            idle_ms: 2_000,
            max_events: 64,
        },
        detector: DetectorChoice::DeepLog(DeepLogConfig {
            history: 6,
            top_g: 2,
            epochs: 2,
            ..DeepLogConfig::default()
        }),
        ..MoniLogConfig::default()
    });
    for log in &train_logs {
        monilog.ingest_training(&RawLog::new(
            log.record.source,
            log.record.seq,
            log.record.to_line(),
        ));
    }
    monilog.train();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(live_raw.len() as u64));
    // Each iteration must present *fresh* sequence numbers, otherwise the
    // dedup stage (correctly) drops every line after the first pass and the
    // bench would measure the drop path instead of the pipeline.
    let mut iteration = 1u64;
    group.bench_function("ingest_live_lines", |b| {
        b.iter(|| {
            let offset = iteration * 10_000_000;
            iteration += 1;
            for raw in &live_raw {
                let fresh = RawLog::new(raw.source, raw.seq + offset, raw.line.clone());
                black_box(monilog.ingest(&fresh));
            }
            black_box(monilog.flush());
        })
    });
    group.finish();
}

criterion_group!(benches, pipeline_throughput);
criterion_main!(benches);
