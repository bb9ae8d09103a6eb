//! Delivery drill: at-least-once anomaly delivery against a flaky sink.
//!
//! Trains on a small HDFS-like workload, then monitors a live stream
//! with the durable pipeline delivering every anomaly report to an
//! in-process [`FlakySinkServer`] whose first connections are scripted
//! faults — refused, reset mid-frame, accepted-but-never-acked. Watch
//! the circuit breaker trip, probe, and recover, then see the ledger
//! balance: every report the pipeline emitted is delivered exactly once
//! after receiver-side dedup.
//!
//! ```text
//! cargo run --release -p monilog-core --example delivery_drill
//! ```
//!
//! The same machinery drives `monilog monitor --state-dir <dir>
//! --sink-tcp <host:port>`; experiment D6 (`exp_d6_delivery`, a CI
//! gate) additionally SIGKILLs the monitor with a pending buffer and
//! asserts nothing is lost across the restart.

use monilog_core::detect::DeepLogConfig;
use monilog_core::model::{DeliveryClass, RawLog};
use monilog_core::stream::chaos::{FlakySinkServer, SinkFault, SinkProtocol};
use monilog_core::stream::sinks::{DeliveryConfig, FramedTcpSink, RouteSpec};
use monilog_core::stream::{BreakerState, PipelineMetrics};
use monilog_core::{
    DeliverySetup, DetectorChoice, DurableConfig, DurableMoniLog, MoniLog, MoniLogConfig,
    WindowPolicy,
};
use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
use std::time::Duration;

fn to_raw(log: &GenLog) -> RawLog {
    RawLog::new(log.record.source, log.record.seq, log.record.to_line())
}

fn main() {
    let config = MoniLogConfig {
        window: WindowPolicy::Session {
            idle_ms: 2_000,
            max_events: 64,
        },
        detector: DetectorChoice::DeepLog(DeepLogConfig::default()),
        ..MoniLogConfig::default()
    };

    println!("== training on an anomaly-free stream ==");
    let training = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 200,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 6,
        start_ms: 1_600_000_000_000,
    })
    .generate();
    let mut pipeline = MoniLog::new(config);
    for log in &training {
        pipeline.ingest_training(&to_raw(log));
    }
    pipeline.train();

    // A scripted flaky endpoint: the first three connections fail in
    // three different ways — exactly the breaker's trip threshold.
    let server = FlakySinkServer::spawn(
        "127.0.0.1:0",
        SinkProtocol::Framed,
        vec![
            SinkFault::Refuse,
            SinkFault::ResetMidFrame,
            SinkFault::Http429, // framed mode: accept a frame, ack nothing
        ],
    )
    .expect("spawn flaky sink");
    println!("\n== flaky sink listening on {} ==", server.addr());

    let state_dir =
        std::env::temp_dir().join(format!("monilog-delivery-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let mut delivery_config = DeliveryConfig::new("overridden-by-open");
    delivery_config.retry.base_backoff = Duration::from_millis(25);
    delivery_config.retry.max_backoff = Duration::from_millis(250);
    let setup = DeliverySetup::new(
        delivery_config,
        vec![RouteSpec {
            name: "tcp".into(),
            classes: DeliveryClass::ALL.to_vec(),
            sink: Box::new(FramedTcpSink::new(server.addr().to_string())),
        }],
    );
    let (mut durable, _) = DurableMoniLog::open(
        config,
        DurableConfig::new(&state_dir),
        || Ok(pipeline),
        Some(setup),
    )
    .expect("open durable pipeline");

    println!("\n== monitoring a live stream with 15% anomalous sessions ==");
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 2_000,
        sequential_anomaly_rate: 0.15,
        quantitative_anomaly_rate: 0.0,
        seed: 7,
        start_ms: 1_600_003_600_000,
    })
    .generate();
    let mut emitted = 0usize;
    let mut last_state = BreakerState::Closed;
    for (i, log) in live.iter().enumerate() {
        emitted += durable.ingest(&to_raw(log)).expect("ingest").len();
        if i % 500 == 0 {
            if let Some((_, state)) = durable
                .delivery()
                .expect("delivery attached")
                .breaker_states()
                .into_iter()
                .next()
            {
                if state != last_state {
                    println!(
                        "line {i:>6}: breaker {last_state:?} -> {state:?}, \
                         {} ids acked so far",
                        server.delivered_ids().len()
                    );
                    last_state = state;
                }
            }
        }
    }

    let metrics = durable.pipeline().metrics();
    let (tail, _) = durable.finish().expect("finish");
    emitted += tail.len();

    println!("\n== ledger ==");
    println!("reports emitted:      {emitted}");
    println!("reports delivered:    {}", server.delivered_ids().len());
    println!(
        "delivery attempts retried: {}",
        PipelineMetrics::get(&metrics.delivery_retries)
    );
    println!(
        "breaker opened/half-open:  {}/{}",
        PipelineMetrics::get(&metrics.breaker_opened),
        PipelineMetrics::get(&metrics.breaker_half_open)
    );
    println!(
        "connections to the sink:   {} (3 scripted faults + probes + delivery)",
        server.connections()
    );
    println!("duplicate acks absorbed:   {}", server.duplicate_acks());
    assert_eq!(
        server.delivered_ids().len(),
        emitted,
        "every emitted report must be delivered exactly once after dedup"
    );
    println!("\nevery emitted report delivered exactly once after dedup");
    let _ = std::fs::remove_dir_all(&state_dir);
}
