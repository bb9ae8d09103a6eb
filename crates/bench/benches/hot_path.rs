//! Criterion microbenchmarks of the streaming hot path, one bench per
//! allocation/caching claim of the batched-ingestion work:
//!
//! - `tokenize` — `Preprocessor::mask` (the per-line floor everything else
//!   sits on).
//! - `tokenize_swar` — the allocation-free `mask_into` variant over
//!   recycled span/token buffers, as the parse hot path actually runs it.
//! - `drain_match/{cold,warm,cached}` — the Drain tree walk on first
//!   sighting, after templates stabilize with the match cache disabled,
//!   and with the cache enabled (the fast path).
//! - `count_vector/{alloc,reuse}` — per-window allocation vs the `_into`
//!   buffer-reuse variant in `detect::window`.
//!
//! `results/BENCH_hotpath.json` pins the baseline numbers this suite was
//! first recorded at; CI runs the suite in `--test` smoke mode only.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use monilog_core::detect::window::{count_vector, count_vector_into};
use monilog_core::detect::Window;
use monilog_core::model::tokenize::TokenSpan;
use monilog_core::parse::{Drain, DrainConfig, OnlineParser, Preprocessor};
use monilog_loggen::corpus;
use std::hint::black_box;

fn lines() -> Vec<String> {
    corpus::cloud_mixed(40, 77)
        .messages()
        .map(str::to_owned)
        .collect()
}

fn tokenize(c: &mut Criterion) {
    let lines = lines();
    let pre = Preprocessor::default();
    let mut group = c.benchmark_group("hot_path");
    group.throughput(Throughput::Elements(lines.len() as u64));
    group.bench_function("tokenize", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(pre.mask(line));
            }
        })
    });
    // The steady-state shape: SWAR span scan into recycled buffers, zero
    // allocations per line once the buffers reach the corpus high-water
    // mark.
    group.bench_function("tokenize_swar", |b| {
        let mut spans: Vec<TokenSpan> = Vec::new();
        let mut masked: Vec<&str> = Vec::new();
        let mut original: Vec<&str> = Vec::new();
        b.iter(|| {
            for line in &lines {
                pre.mask_into(line, &mut spans, &mut masked, &mut original);
                black_box((&masked, &original));
            }
        })
    });
    group.finish();
}

fn drain_match(c: &mut Criterion) {
    let lines = lines();
    let mut group = c.benchmark_group("drain_match");
    group.throughput(Throughput::Elements(lines.len() as u64));

    // Cold: tree construction + first-sighting walks dominate.
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut p = Drain::new(DrainConfig {
                cache_capacity: 0,
                ..DrainConfig::default()
            });
            for line in &lines {
                black_box(p.parse(line));
            }
        })
    });

    // Warm: templates already discovered, cache disabled — the pure tree
    // walk the cache is meant to beat.
    group.bench_function("warm", |b| {
        let mut p = Drain::new(DrainConfig {
            cache_capacity: 0,
            ..DrainConfig::default()
        });
        for line in &lines {
            p.parse(line);
        }
        b.iter(|| {
            for line in &lines {
                black_box(p.parse(line));
            }
        })
    });

    // Cached: same warm state with the match cache on.
    group.bench_function("cached", |b| {
        let mut p = Drain::new(DrainConfig::default());
        for line in &lines {
            p.parse(line);
        }
        b.iter(|| {
            for line in &lines {
                black_box(p.parse(line));
            }
        })
    });
    group.finish();
}

fn count_vectors(c: &mut Criterion) {
    // Session-window shapes from the D3 harness: a few dozen events over a
    // vocabulary of ~50 templates.
    let windows: Vec<Window> = (0..256)
        .map(|i| Window::from_ids((0..48).map(|k| ((i * 7 + k * 3) % 50) as u32).collect()))
        .collect();
    let mut group = c.benchmark_group("count_vector");
    group.throughput(Throughput::Elements(windows.len() as u64));

    group.bench_function("alloc", |b| {
        b.iter(|| {
            for w in &windows {
                black_box(count_vector(w, 52));
            }
        })
    });
    group.bench_function("reuse", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            for w in &windows {
                count_vector_into(w, 52, &mut buf);
                black_box(&buf);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, tokenize, drain_match, count_vectors);
criterion_main!(benches);
