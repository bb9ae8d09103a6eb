//! Metrics endpoint demo: run the pipeline, then serve its metrics.
//!
//! Trains on a small HDFS-like workload, monitors a live stream, then
//! keeps the Prometheus/JSON endpoint up for `--serve-secs` so it can be
//! scraped (CI smoke-tests it with curl):
//!
//! ```text
//! cargo run --release -p monilog-core --example metrics_endpoint -- \
//!     --metrics-addr 127.0.0.1:9187 --serve-secs 10
//! curl http://127.0.0.1:9187/metrics        # Prometheus text format
//! curl http://127.0.0.1:9187/metrics.json   # same snapshot as JSON
//! curl http://127.0.0.1:9187/trace/1        # spans of sampled line seq 0
//! curl http://127.0.0.1:9187/flight         # flight-recorder contents
//! ```
//!
//! Tracing runs at the default 1/1024 sample rate; sequence number 0 is
//! always a multiple of the rate, so trace id 1 is always resolvable.

use monilog_core::detect::DeepLogConfig;
use monilog_core::model::RawLog;
use monilog_core::stream::{MetricsEndpoint, MetricsExporter};
use monilog_core::{DetectorChoice, MoniLog, MoniLogConfig, WindowPolicy};
use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
use std::net::SocketAddr;
use std::time::Duration;

fn to_raw(log: &GenLog, seq_offset: u64) -> RawLog {
    RawLog::new(
        log.record.source,
        log.record.seq + seq_offset,
        log.record.to_line(),
    )
}

fn parse_flags() -> (SocketAddr, u64) {
    let mut addr: SocketAddr = "127.0.0.1:9187".parse().expect("literal addr");
    let mut serve_secs = 10u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-addr" => {
                i += 1;
                addr = args
                    .get(i)
                    .expect("--metrics-addr needs host:port")
                    .parse()
                    .expect("valid host:port");
            }
            "--serve-secs" => {
                i += 1;
                serve_secs = args
                    .get(i)
                    .expect("--serve-secs needs seconds")
                    .parse()
                    .expect("valid seconds");
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    (addr, serve_secs)
}

fn main() {
    let (addr, serve_secs) = parse_flags();

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

    // Serve from the start so training latencies are scrapable too.
    let endpoint = MetricsEndpoint {
        addr,
        interval: Duration::from_millis(250),
        tracer: Some(monilog.tracer()),
        ops: None,
    };
    let exporter =
        MetricsExporter::spawn(endpoint, monilog.registry()).expect("bind metrics endpoint");
    println!("metrics: http://{}/metrics", exporter.local_addr());
    println!("         http://{}/metrics.json", exporter.local_addr());
    println!("trace:   http://{}/trace/1", exporter.local_addr());
    println!("flight:  http://{}/flight", exporter.local_addr());

    let training = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 150,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 1,
        ..Default::default()
    })
    .generate();
    println!("training on {} lines ...", training.len());
    for log in &training {
        monilog.ingest_training(&to_raw(log, 0));
    }
    monilog.train();

    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 80,
        sequential_anomaly_rate: 0.05,
        quantitative_anomaly_rate: 0.03,
        seed: 2,
        start_ms: 1_600_003_600_000,
    })
    .generate();
    println!("monitoring {} live lines ...", live.len());
    let mut anomalies = Vec::new();
    for log in &live {
        anomalies.extend(monilog.ingest(&to_raw(log, 10_000_000)));
    }
    anomalies.extend(monilog.flush());
    println!(
        "flagged {} windows; {} templates discovered",
        anomalies.len(),
        monilog.templates().len()
    );

    println!("serving metrics for {serve_secs}s ...");
    std::thread::sleep(Duration::from_secs(serve_secs));
    println!("final snapshot: {}", monilog.registry().snapshot());
}
