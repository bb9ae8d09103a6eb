//! Experiment D8 — the live operations surface.
//!
//! Drives the real `monilog` binary as a network daemon and checks the
//! ops-surface invariants end to end:
//!
//! 1. **Hot reload under load**: `POST /config` flips the overload policy
//!    mid-stream (one accepted update, plus rejected updates for a
//!    non-reloadable key and a malformed body), with zero restart and
//!    zero dropped lines — the final anomaly set must be identical to a
//!    file-fed reference run.
//! 2. **`/reports` vs the durable record**: the queryable report ring
//!    must match `anomalies.jsonl` exactly — same ids, and every stored
//!    line embedded byte-identical.
//! 3. **SIGKILL durability**: after a hard kill and restart, `/reports`
//!    must be repopulated from the durable record before the listener
//!    serves traffic.
//! 4. **Bookkeeping overhead**: the per-batch status publish + per-report
//!    ring insert must cost <5% live throughput (paired in-process
//!    comparison, mirroring the exp_d3 tracing gate; enforced under
//!    `--check` with retries for noisy CI boxes).
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d8_ops`
//! (build the workspace in release first so `monilog` exists).
//!
//! All assertions are hard gates — the binary exits non-zero on any
//! violation. With `--check` the results artifact is not rewritten.

use monilog_bench::gate::{
    assert_same_reports, counter, fail, feed_syslog, listen_addr, report_keys, request, wait_until,
    write_workload, Gate, Proc,
};
use monilog_core::detect::DeepLogConfig;
use monilog_core::model::RawLog;
use monilog_core::stream::{
    ReportStore, StatusBoard, StatusInputs, StoredReport, DEFAULT_LATENCY_BUDGET_MS,
    DEFAULT_REPORT_CAPACITY,
};
use monilog_core::{DetectorChoice, MoniLog, MoniLogConfig, ObservabilityConfig, WindowPolicy};
use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops bookkeeping (status publish + report ring) throughput floor
/// relative to the plain pipeline.
const OVERHEAD_FLOOR: f64 = 0.95;

/// Argv for a syslog-TCP + metrics network monitor on one state dir.
fn sources_args(ckpt: &Path, state: &Path) -> Vec<String> {
    [
        "monitor",
        "--listen-syslog-tcp",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
        "--checkpoint",
        &ckpt.display().to_string(),
        "--state-dir",
        &state.display().to_string(),
        "--journal-fsync-ms",
        "50",
        // No periodic checkpoint inside the run (same as exp_d7): the
        // SIGKILL scenario must recover purely from the WAL, proving the
        // whole live stream survives a hard kill with no flush at all.
        "--checkpoint-interval-ms",
        "600000",
    ]
    .map(String::from)
    .to_vec()
}

fn expect(addr: &str, method: &str, path: &str, body: &str, want: u16, contains: &str) -> String {
    let (code, response) = request(addr, method, path, body);
    if code != want {
        fail(&format!(
            "{method} {path} returned {code}, wanted {want}: {response}"
        ));
    }
    if !response.contains(contains) {
        fail(&format!(
            "{method} {path} body missing {contains:?}: {response}"
        ));
    }
    response
}

/// Block until the source has accepted `want` lines into its queue.
fn wait_for_lines(metrics_addr: &str, want: u64, child: &mut Proc) {
    wait_until(child, &format!("{want} lines accepted"), || {
        let (_, body) = request(metrics_addr, "GET", "/metrics", "");
        counter(&body, "monilog_sources_lines_total") >= want
    });
}

/// Gate: `GET /reports` must agree with `anomalies.jsonl` exactly — same
/// total, and every durable line embedded byte-identical in the listing.
/// Returns the report count.
fn assert_reports_match(metrics_addr: &str, sink: &Path) -> usize {
    let listing = expect(metrics_addr, "GET", "/reports?limit=1000", "", 200, "");
    let sink_lines: Vec<String> = std::fs::read_to_string(sink)
        .map(|s| s.lines().map(str::to_string).collect())
        .unwrap_or_default();
    let total_marker = format!("{{\"total\":{},", sink_lines.len());
    if !listing.starts_with(&total_marker) {
        fail(&format!(
            "/reports total mismatch: wanted {} reports, got: {}",
            sink_lines.len(),
            &listing[..listing.len().min(120)]
        ));
    }
    for line in &sink_lines {
        if !listing.contains(line.as_str()) {
            fail(&format!(
                "/reports is missing (or altered) a durable report: {line}"
            ));
        }
    }
    sink_lines.len()
}

// ---------------------------------------------------------------------------
// Overhead gate (in-process, mirrors the exp_d3 tracing comparison)
// ---------------------------------------------------------------------------

fn to_raw(log: &GenLog, offset: u64) -> RawLog {
    RawLog::new(
        log.record.source,
        log.record.seq + offset,
        log.record.to_line(),
    )
}

fn pipeline_config() -> MoniLogConfig {
    MoniLogConfig {
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
        observability: ObservabilityConfig {
            trace_sample_rate: 0,
            ..ObservabilityConfig::default()
        },
        ..MoniLogConfig::default()
    }
}

/// Replay the live stream through a restored pipeline, with or without
/// the ops bookkeeping the monitor loop performs: a status publish per
/// 512-line batch and a report-ring insert per emitted anomaly. Best of
/// three replays (a single replay lasts tens of milliseconds).
fn live_rate(ckpt: &[u8], live_raw: &[RawLog], with_ops: bool) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut monilog = MoniLog::restore(pipeline_config(), ckpt).expect("restore checkpoint");
        let store = ReportStore::shared(DEFAULT_REPORT_CAPACITY);
        let board = StatusBoard::shared(DEFAULT_LATENCY_BUDGET_MS);
        let start = Instant::now();
        let mut flagged = 0usize;
        for (i, log) in live_raw.iter().enumerate() {
            if with_ops && i % 512 == 0 {
                board.publish(StatusInputs {
                    ingest_queue_depth: i as u64,
                    ..StatusInputs::default()
                });
            }
            for a in monilog.ingest(log) {
                if with_ops {
                    store.record(StoredReport::from_report(
                        &a.report,
                        a.assignment.criticality,
                    ));
                }
                flagged += 1;
            }
        }
        flagged += monilog.flush().len();
        std::hint::black_box((flagged, store.len()));
        best = best.max(live_raw.len() as f64 / start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let gate = Gate::start("d8_ops", "D8 — live operations surface");
    let live_file = gate.path("live.log");
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 300,
        sequential_anomaly_rate: 0.15,
        quantitative_anomaly_rate: 0.0,
        seed: 7,
        start_ms: 1_600_003_600_000,
    })
    .generate();
    write_workload(&live_file, &live);
    let wire: Vec<String> = live
        .iter()
        .map(|l| {
            format!(
                "<14>1 2020-09-13T13:26:40Z host app - - - {}",
                l.record.to_line()
            )
        })
        .collect();
    println!("live stream: {} lines", wire.len());
    let ckpt = gate.train();

    // Reference: file-fed durable run over the same live stream.
    let ref_state = gate.path("state-ref");
    let ref_args = [
        "monitor",
        &live_file.display().to_string(),
        "--checkpoint",
        &ckpt.display().to_string(),
        "--state-dir",
        &ref_state.display().to_string(),
        "--journal-fsync-ms",
        "50",
    ];
    gate.spawn("reference", &ref_args.map(String::from), &[])
        .wait_ok();
    let reference = report_keys(&ref_state.join("anomalies.jsonl"));
    if reference.is_empty() {
        fail("reference run found no anomalies — nothing to compare");
    }
    println!("reference: {} reports", reference.len());

    // 1. Hot reload under load: flip the overload policy mid-stream.
    let net_state = gate.path("state-net");
    std::fs::create_dir_all(&net_state).expect("state dir");
    let mut child = gate.spawn("reload", &sources_args(&ckpt, &net_state), &[]);
    let syslog_addr = listen_addr(&net_state, "syslog-tcp", &mut child);
    let metrics_addr = listen_addr(&net_state, "metrics", &mut child);
    println!("syslog-tcp at {syslog_addr}, metrics at {metrics_addr}");

    expect(&metrics_addr, "GET", "/config", "", 200, "\"version\":0");
    expect(&metrics_addr, "GET", "/readyz", "", 200, "ok");
    expect(&metrics_addr, "GET", "/status", "", 200, "\"status\":\"");

    let half = wire.len() / 2;
    feed_syslog(&syslog_addr, &wire[..half]);
    wait_for_lines(&metrics_addr, half as u64, &mut child);

    // Accepted update: flip to shed mid-stream (version bumps to 1).
    expect(
        &metrics_addr,
        "POST",
        "/config",
        "on-overload=shed",
        200,
        "\"on-overload\":\"shed\"",
    );
    // Rejected updates: a non-reloadable key and a malformed body leave
    // the snapshot untouched.
    expect(
        &metrics_addr,
        "POST",
        "/config",
        "state-dir=/etc",
        400,
        "not reloadable",
    );
    expect(&metrics_addr, "POST", "/config", "garbage", 400, "error");
    expect(&metrics_addr, "GET", "/config", "", 200, "\"version\":1");
    println!("hot reload: shed applied at version 1, bad updates rejected");

    feed_syslog(&syslog_addr, &wire[half..]);
    wait_for_lines(&metrics_addr, wire.len() as u64, &mut child);
    // Flip back while the tail of the stream is still in flight.
    expect(
        &metrics_addr,
        "POST",
        "/config",
        "on-overload=block",
        200,
        "\"version\":2",
    );
    expect(
        &metrics_addr,
        "GET",
        "/status",
        "",
        200,
        "\"config_version\":2",
    );

    // 2/3 setup. Quiesce by watching /status until the ingest queue
    // reports empty, then give the consumer loop one more beat (one idle
    // group-commit tick) to finish the batch in hand — every accepted line
    // is then in the WAL, the quiesce an operator performs before
    // hard-restarting a node. (A SIGKILL mid-batch may lose
    // queued-but-unjournaled lines; that is the documented
    // at-most-one-batch exposure, not what this experiment measures.)
    // Then check the live report ring against the durable record.
    wait_until(&mut child, "an empty ingest queue", || {
        let (code, body) = request(&metrics_addr, "GET", "/status", "");
        code == 200 && body.contains("\"queue\":{\"depth\":0}")
    });
    std::thread::sleep(Duration::from_millis(500));
    let live_reports = assert_reports_match(&metrics_addr, &net_state.join("anomalies.jsonl"));
    println!("/reports matches the durable record live: {live_reports} reports");

    // SIGKILL: no graceful flush, no final checkpoint — the whole stream
    // must replay from the WAL.
    let killed_at = Instant::now();
    child.kill();
    println!("SIGKILL after {:?}", killed_at.elapsed());

    // Restart to complete the stream: replay the WAL, then the idle exit
    // flushes the open windows into the durable record.
    let out = gate
        .spawn(
            "flush",
            &sources_args(&ckpt, &net_state),
            &[("MONILOG_IDLE_EXIT_MS", "1500")],
        )
        .wait_ok();
    for line in out.lines() {
        if line.starts_with("recovery:") || line.starts_with("monitored") {
            println!("flush run: {line}");
        }
    }
    let netted = report_keys(&net_state.join("anomalies.jsonl"));
    assert_same_reports("policy flip + SIGKILL", &netted, &reference);
    println!(
        "zero lines lost: anomaly set identical to reference across the \
         policy flips and the SIGKILL ({} reports)",
        netted.len()
    );

    // 2 + 3. A fresh serving instance must repopulate /reports from the
    // durable record before the listener serves traffic — ids and stored
    // JSON byte-identical to anomalies.jsonl. Drop the previous instance's
    // address file so the poll below can't read stale ports.
    std::fs::remove_file(net_state.join("listen-addrs")).expect("remove stale listen-addrs");
    let mut child = gate.spawn(
        "serving",
        &sources_args(&ckpt, &net_state),
        &[("MONILOG_IDLE_EXIT_MS", "60000")],
    );
    let metrics_addr = listen_addr(&net_state, "metrics", &mut child);
    let backfilled = assert_reports_match(&metrics_addr, &net_state.join("anomalies.jsonl"));
    if backfilled == 0 {
        fail("nothing to backfill — the durable record is empty");
    }
    println!(
        "/reports repopulated from the durable record: {backfilled} reports, \
         every stored line byte-identical"
    );
    // Detail route joins cleanly on a backfilled report.
    let first_id = netted[0].0;
    expect(
        &metrics_addr,
        "GET",
        &format!("/reports/{first_id}"),
        "",
        200,
        "\"spans\":[",
    );
    child.sigterm();
    child.wait_ok();

    // 4. Ops bookkeeping overhead: paired in-process replay.
    let blob = std::fs::read(&ckpt).expect("read checkpoint");
    let live_raw: Vec<RawLog> = live.iter().map(|l| to_raw(l, 10_000_000)).collect();
    let mut plain = live_rate(&blob, &live_raw, false);
    let mut with_ops = live_rate(&blob, &live_raw, true);
    if gate.check {
        let mut attempts = 1;
        while with_ops < OVERHEAD_FLOOR * plain && attempts < 4 {
            attempts += 1;
            plain = live_rate(&blob, &live_raw, false);
            with_ops = live_rate(&blob, &live_raw, true);
        }
        println!(
            "ops overhead: plain {plain:.0} lines/s, with bookkeeping {with_ops:.0} lines/s \
             ({:.1}% of plain, floor {:.0}%, {attempts} attempt(s))",
            with_ops / plain * 100.0,
            OVERHEAD_FLOOR * 100.0
        );
        if with_ops < OVERHEAD_FLOOR * plain {
            fail("status + report-store bookkeeping costs more than 5% throughput");
        }
    } else {
        println!(
            "ops overhead: plain {plain:.0} lines/s, with bookkeeping {with_ops:.0} lines/s \
             ({:.1}% of plain)",
            with_ops / plain * 100.0
        );
    }

    println!("\nall ops-surface invariants hold");
    gate.finish(&format!(
        "\"live_lines\":{},\"reports\":{},\
         \"plain_lines_per_s\":{plain:.0},\"with_ops_lines_per_s\":{with_ops:.0}",
        wire.len(),
        reference.len(),
    ));
}
