//! Differential end-to-end tests for the zero-copy hot path.
//!
//! The arena-backed line representation ([`ByteLine`] views into shared
//! arrival buffers) must be *output-invisible*: a pipeline fed lines
//! carved out of batched arrival buffers — the way the network sources
//! actually deliver them — must produce anomaly sets byte-identical to
//! one fed per-line owned `String`s, including across a crash/respawn
//! with WAL replay on the durable pipeline.

use bytes::Bytes;
use monilog_core::detect::DeepLogConfig;
use monilog_core::model::{ByteLine, HeaderFormat, RawLog, SourceId};
use monilog_core::{
    DetectorChoice, DurableConfig, DurableMoniLog, MoniLog, MoniLogConfig, WindowPolicy,
};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use monilog_stream::durable::JournalConfig;
use std::path::PathBuf;

/// Pack lines into shared arrival buffers (newline-framed, like a socket
/// read) and carve one zero-copy [`RawLog`] per line out of each buffer.
fn arena_raws(lines: &[(SourceId, u64, String)], batch: usize) -> Vec<RawLog> {
    let mut out = Vec::with_capacity(lines.len());
    for chunk in lines.chunks(batch) {
        let mut text = String::new();
        for (_, _, l) in chunk {
            text.push_str(l);
            text.push('\n');
        }
        let buf = Bytes::from(text);
        let mut start = 0usize;
        for (source, seq, l) in chunk {
            let view = buf.slice(start..start + l.len());
            // The carve must share the arrival buffer, not copy it —
            // otherwise this test degenerates into owned-vs-owned.
            // SAFETY: `view` was sliced from `buf` at `start`, so `start`
            // is within `buf` and the offset pointer stays in bounds.
            assert!(std::ptr::eq(view.as_ref().as_ptr(), unsafe {
                buf.as_ref().as_ptr().add(start)
            }));
            out.push(RawLog {
                source: *source,
                seq: *seq,
                line: ByteLine::from_bytes(view),
            });
            start += l.len() + 1;
        }
    }
    out
}

fn render(anomalies: &[monilog_core::ClassifiedAnomaly]) -> String {
    format!("{anomalies:#?}")
}

// ---------------------------------------------------------------- plain

const LIVE_SEQ: u64 = 10_000_000;
const LIVE_START_MS: u64 = 1_600_003_600_000;

fn hdfs_pipeline() -> MoniLog {
    let mut m = MoniLog::new(MoniLogConfig {
        window: WindowPolicy::Session {
            idle_ms: 2_000,
            max_events: 64,
        },
        detector: DetectorChoice::DeepLog(DeepLogConfig {
            history: 6,
            top_g: 2,
            epochs: 3,
            ..DeepLogConfig::default()
        }),
        ..MoniLogConfig::default()
    });
    let training = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 150,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 31,
        ..Default::default()
    })
    .generate();
    for log in &training {
        m.ingest_training(&RawLog::new(
            log.record.source,
            log.record.seq,
            log.record.to_line(),
        ));
    }
    m.train();
    m
}

#[test]
fn arena_and_owned_lines_produce_byte_identical_anomalies() {
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 80,
        sequential_anomaly_rate: 0.06,
        quantitative_anomaly_rate: 0.04,
        seed: 32,
        start_ms: LIVE_START_MS,
    })
    .generate();
    let lines: Vec<(SourceId, u64, String)> = live
        .iter()
        .map(|g| (g.record.source, g.record.seq + LIVE_SEQ, g.record.to_line()))
        .collect();

    let mut owned_pipe = hdfs_pipeline();
    let mut owned_out = Vec::new();
    for (source, seq, line) in &lines {
        owned_out.extend(owned_pipe.ingest(&RawLog::new(*source, *seq, line.clone())));
    }
    owned_out.extend(owned_pipe.flush());
    assert!(!owned_out.is_empty(), "live stream must contain anomalies");

    let mut arena_pipe = hdfs_pipeline();
    let mut arena_out = Vec::new();
    for raw in arena_raws(&lines, 32) {
        arena_out.extend(arena_pipe.ingest(&raw));
    }
    arena_out.extend(arena_pipe.flush());

    assert_eq!(
        render(&owned_out),
        render(&arena_out),
        "arena-backed lines changed the anomaly set"
    );
}

// -------------------------------------------------------------- durable

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monilog-zcdiff-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bare_config() -> MoniLogConfig {
    MoniLogConfig {
        header_format: HeaderFormat::Bare,
        window: WindowPolicy::Tumbling { size: 4 },
        detector: DetectorChoice::DeepLog(DeepLogConfig {
            history: 3,
            top_g: 1,
            epochs: 2,
            ..DeepLogConfig::default()
        }),
        ..MoniLogConfig::default()
    }
}

fn bare_line(i: u64) -> String {
    if (40..52).contains(&i) {
        format!("unseen failure mode f{i} exploding")
    } else {
        let step = ["a", "b", "c", "d"][(i % 4) as usize];
        format!("step {step} of job j{}", i / 4)
    }
}

fn bare_trained() -> MoniLog {
    let mut m = MoniLog::new(bare_config());
    for i in 0..32u64 {
        m.ingest_training(&RawLog::new(SourceId(0), i + 1, bare_line(i)));
    }
    m.train();
    m
}

fn bare_raws(range: std::ops::Range<u64>) -> Vec<RawLog> {
    let lines: Vec<(SourceId, u64, String)> =
        range.map(|i| (SourceId(0), i + 1, bare_line(i))).collect();
    arena_raws(&lines, 7)
}

#[test]
fn crash_respawn_wal_replay_matches_owned_reference() {
    // Reference: owned-String lines through an uninterrupted pipeline.
    let mut reference = bare_trained();
    let mut expected = Vec::new();
    for i in 32..64u64 {
        expected.extend(reference.ingest(&RawLog::new(SourceId(0), i + 1, bare_line(i))));
    }
    expected.extend(reference.flush());
    assert!(!expected.is_empty(), "stream must contain anomalies");

    // Candidate: arena-backed lines through the durable pipeline, with a
    // mid-stream checkpoint, a crash past it, and a WAL-replay respawn.
    let dir = tmp_dir("crash");
    let durable = DurableConfig {
        checkpoint_interval_ms: u64::MAX,
        journal: JournalConfig {
            fsync_interval_ms: 0, // sync every line: worst-case replay
            ..JournalConfig::default()
        },
        ..DurableConfig::new(&dir)
    };
    let (mut first, stats) =
        DurableMoniLog::open(bare_config(), durable.clone(), || Ok(bare_trained()), None).unwrap();
    assert_eq!(stats.replayed_lines, 0);
    let mut emitted = Vec::new();
    for raw in bare_raws(32..40) {
        emitted.extend(first.ingest(&raw).unwrap());
    }
    let (batch, generation) = first.checkpoint_now().unwrap();
    emitted.extend(batch);
    assert_eq!(generation, 1);
    for raw in bare_raws(40..45) {
        emitted.extend(first.ingest(&raw).unwrap());
    }
    drop(first); // SIGKILL stand-in: lines 41..=45 only live in the WAL

    let (mut second, stats) = DurableMoniLog::open(
        bare_config(),
        durable,
        || panic!("must recover from checkpoint, not retrain"),
        None,
    )
    .unwrap();
    assert_eq!(stats.resumed_generation, Some(1));
    assert_eq!(stats.replayed_lines, 5, "lines 41..=45 replay from the WAL");
    emitted.extend(stats.anomalies);
    for raw in bare_raws(45..64) {
        emitted.extend(second.ingest(&raw).unwrap());
    }
    let (tail, _) = second.finish().unwrap();
    emitted.extend(tail);

    assert_eq!(
        render(&expected),
        render(&emitted),
        "arena lines + crash/respawn changed the anomaly set"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
