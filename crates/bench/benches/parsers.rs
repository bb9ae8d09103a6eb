//! Criterion microbenchmarks: per-parser line throughput — the throughput
//! side of experiment P4, whose table reports accuracy only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use monilog_core::parse::{
    BatchParser, Drain, DrainConfig, IpLoM, IpLoMConfig, LenMa, LenMaConfig, Logan, LoganConfig,
    Logram, LogramConfig, OnlineParser, ShardedDrain, ShardedDrainConfig, Shiso, ShisoConfig, Slct,
    SlctConfig, Spell, SpellConfig,
};
use monilog_loggen::corpus;
use std::hint::black_box;

fn parser_throughput(c: &mut Criterion) {
    let corpus = corpus::cloud_mixed(40, 77);
    let messages: Vec<&str> = corpus.messages().collect();
    let mut group = c.benchmark_group("parsers");
    group.sample_size(10);
    group.throughput(Throughput::Elements(messages.len() as u64));

    group.bench_function(BenchmarkId::new("online", "Drain"), |b| {
        b.iter(|| {
            let mut p = Drain::new(DrainConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("online", "Spell"), |b| {
        b.iter(|| {
            let mut p = Spell::new(SpellConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("online", "LenMa"), |b| {
        b.iter(|| {
            let mut p = LenMa::new(LenMaConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("online", "Logan"), |b| {
        b.iter(|| {
            let mut p = Logan::new(LoganConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("online", "SHISO"), |b| {
        b.iter(|| {
            let mut p = Shiso::new(ShisoConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("online", "Logram"), |b| {
        b.iter(|| {
            let mut p = Logram::new(LogramConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("online", "ShardedDrain"), |b| {
        b.iter(|| {
            let mut p = ShardedDrain::new(ShardedDrainConfig::default());
            for m in &messages {
                black_box(p.parse(m));
            }
        })
    });
    group.bench_function(BenchmarkId::new("batch", "IPLoM"), |b| {
        b.iter(|| {
            let mut p = IpLoM::new(IpLoMConfig::default());
            black_box(p.parse_batch(&messages));
        })
    });
    group.bench_function(BenchmarkId::new("batch", "SLCT"), |b| {
        b.iter(|| {
            let mut p = Slct::new(SlctConfig::default());
            black_box(p.parse_batch(&messages));
        })
    });
    group.finish();
}

criterion_group!(benches, parser_throughput);
criterion_main!(benches);
