//! Experiment D6 — at-least-once anomaly delivery under sink failure.
//!
//! Drives the real `monilog` binary through three lives of the same live
//! workload, each delivering to an in-process [`FlakySinkServer`]
//! (framed-TCP protocol, receiver-side dedup by report id):
//!
//! 1. **Reference**: a healthy sink from start to finish. The set of
//!    report ids the server acknowledges is the ground truth, and must
//!    equal the ids committed to `anomalies.jsonl`.
//! 2. **Flaky sink**: the server's first three connections are scripted
//!    faults (refused, reset mid-frame, accepted-but-unacked) — enough
//!    consecutive failures to trip the circuit breaker — then the
//!    endpoint is shut down and restarted mid-stream. Retry counts and
//!    breaker transitions must be visible on `/metrics` while the run
//!    lasts, and the union of ids delivered across both server
//!    incarnations must equal the reference — zero lost, zero duplicate
//!    after dedup. (If the run ends inside a breaker dwell, the bounded
//!    final flush may leave reports in the durable buffer; one restart
//!    must then drain them.)
//! 3. **SIGKILL with a pending buffer**: the monitor runs against a dead
//!    endpoint (every report accumulates in the on-disk delivery
//!    buffer), is SIGKILLed mid-stream, and restarts with the endpoint
//!    now healthy. The restart must replay the journal suffix and drain
//!    the buffer: the delivered set again equals the reference.
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d6_delivery`
//! (build the workspace in release first so `monilog` exists).
//!
//! All assertions are hard gates — the binary exits non-zero on any
//! violation. With `--check` the results artifact is not rewritten.

use monilog_bench::gate::{
    counter, dir_bytes, fail, http, read_reports, wait_until, write_workload, Gate,
};
use monilog_core::stream::chaos::{FlakySinkServer, SinkFault, SinkProtocol};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

/// Bind an ephemeral port, note it, release it. The small reuse window
/// is fine for a single-process harness.
fn reserve_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("local addr").to_string()
}

/// Monitor argv: durable state dir plus a framed-TCP delivery route.
/// `--page-at low` routes every report to the TCP sink — the classifier's
/// criticality head is untrained in this experiment, so everything rates
/// `low` and would otherwise stay on the local file route.
fn monitor_args(live: &Path, ckpt: &Path, state: &Path, sink: &str) -> Vec<String> {
    [
        "monitor",
        &live.display().to_string(),
        "--checkpoint",
        &ckpt.display().to_string(),
        "--state-dir",
        &state.display().to_string(),
        "--journal-fsync-ms",
        "0",
        "--checkpoint-interval-ms",
        "100",
        "--sink-tcp",
        sink,
        "--page-at",
        "low",
        "--sink-retry-max-ms",
        "200",
    ]
    .map(String::from)
    .to_vec()
}

/// Report ids committed to a state dir's `anomalies.jsonl`, ascending.
fn committed_ids(state: &Path) -> Vec<u64> {
    let mut ids = read_reports(&state.join("anomalies.jsonl"), |r| r.id);
    ids.sort_unstable();
    ids
}

/// `GET /metrics`, retried a few times — the exporter thread shares the
/// host with a busy pipeline.
fn scrape(addr: &str) -> String {
    let mut last = String::new();
    for attempt in 0..10 {
        match http(addr, "GET", "/metrics", "") {
            Ok((_, body)) if !body.is_empty() => return body,
            Ok(_) => last = "empty response".into(),
            Err(e) => last = e,
        }
        eprintln!("scrape attempt {attempt} failed ({last}); retrying");
        std::thread::sleep(Duration::from_millis(200));
    }
    fail(&format!("GET /metrics from {addr} kept failing: {last}"));
}

fn assert_delivered(label: &str, got: &[u64], reference: &[u64]) {
    if got != reference {
        let missing = reference.iter().filter(|id| !got.contains(id)).count();
        let extra = got.iter().filter(|id| !reference.contains(id)).count();
        fail(&format!(
            "{label}: delivered set diverged from reference — {} vs {} ids \
             ({missing} missing, {extra} unexpected)",
            got.len(),
            reference.len()
        ));
    }
    println!(
        "{label}: delivered set identical to reference ({} ids)",
        got.len()
    );
}

fn main() {
    let gate = Gate::start(
        "d6_delivery",
        "D6 — at-least-once delivery under sink failure",
    );
    let live_file = gate.path("live.log");
    // Large enough that the stream comfortably outlasts the flaky
    // scenario's fault script plus one full breaker dwell (~1.5 s), so
    // the mid-run /metrics scrape and the endpoint restart both land
    // while the monitor is still ingesting.
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 6_000,
        sequential_anomaly_rate: 0.15,
        quantitative_anomaly_rate: 0.0,
        seed: 7,
        start_ms: 1_600_003_600_000,
    })
    .generate();
    write_workload(&live_file, &live);
    println!("live stream: {} lines", live.len());
    let ckpt = gate.train();

    // 1. Reference: healthy sink, uninterrupted run.
    let ref_server = FlakySinkServer::spawn("127.0.0.1:0", SinkProtocol::Framed, vec![])
        .expect("spawn reference sink");
    let ref_state = gate.path("state-ref");
    let args = monitor_args(
        &live_file,
        &ckpt,
        &ref_state,
        &ref_server.addr().to_string(),
    );
    let out = gate.spawn("reference", &args, &[]).wait_ok();
    if !out.contains("delivery: ") {
        fail(&format!("monitor printed no delivery summary:\n{out}"));
    }
    let reference = ref_server.delivered_ids();
    if reference.is_empty() {
        fail("reference run delivered nothing — the experiment is vacuous");
    }
    let committed = committed_ids(&ref_state);
    if reference != committed {
        fail(&format!(
            "reference: sink received {} ids but anomalies.jsonl committed {}",
            reference.len(),
            committed.len()
        ));
    }
    println!(
        "reference: {} reports delivered over {} connections",
        reference.len(),
        ref_server.connections()
    );
    drop(ref_server);

    // 2. Flaky sink: scripted faults, then an endpoint restart mid-stream.
    // Three consecutive failures: exactly the breaker's trip threshold,
    // and short enough that delivery recovers while the stream is live.
    let script = vec![
        SinkFault::Refuse,
        SinkFault::ResetMidFrame,
        SinkFault::Http429, // framed mode: accept a frame, ack nothing
    ];
    let flaky = FlakySinkServer::spawn("127.0.0.1:0", SinkProtocol::Framed, script)
        .expect("spawn flaky sink");
    let sink_addr = flaky.addr().to_string();
    let metrics_addr = reserve_addr();
    let flaky_state = gate.path("state-flaky");
    let mut args = monitor_args(&live_file, &ckpt, &flaky_state, &sink_addr);
    args.push("--metrics-addr".into());
    args.push(metrics_addr.clone());
    let mut child = gate.spawn("flaky", &args, &[]);
    // Survive the fault script: wait until deliveries flow again.
    wait_until(&mut child, "deliveries resumed", || {
        !flaky.delivered_ids().is_empty()
    });
    let scrape = scrape(&metrics_addr);
    let retries = counter(&scrape, "monilog_delivery_retries_total");
    let breaker_opened = counter(&scrape, "monilog_breaker_opened_total");
    let breaker_half_open = counter(&scrape, "monilog_breaker_half_open_total");
    println!(
        "flaky: /metrics mid-run shows {retries} retries, breaker opened {breaker_opened}x, \
         half-open {breaker_half_open}x"
    );
    if retries == 0 {
        fail("flaky: the fault script must surface as delivery_retries on /metrics");
    }
    if breaker_opened == 0 {
        fail("flaky: five consecutive faults must trip the circuit breaker");
    }
    // Kill and restart the endpoint mid-stream, keeping the first
    // incarnation's ledger.
    let first_incarnation = flaky.shutdown();
    let flaky2 = FlakySinkServer::spawn(&sink_addr, SinkProtocol::Framed, vec![])
        .expect("respawn sink on the same port");
    child.wait_ok();
    let mut union: Vec<u64> = first_incarnation;
    union.extend(flaky2.delivered_ids());
    union.sort_unstable();
    union.dedup();
    if union != reference {
        // The stream ended inside a breaker dwell and the bounded final
        // flush left reports in the durable buffer. The contract is that
        // a restart drains them — exercise it.
        println!(
            "flaky: {} of {} ids still buffered at exit; restarting to drain",
            reference.len() - union.len(),
            reference.len()
        );
        let drain_out = gate.spawn("flaky-drain", &args, &[]).wait_ok();
        if !drain_out.contains("delivery: ") {
            fail(&format!(
                "drain life printed no delivery summary:\n{drain_out}"
            ));
        }
        union.extend(flaky2.delivered_ids());
        union.sort_unstable();
        union.dedup();
    }
    assert_delivered("flaky", &union, &reference);
    let flaky_duplicates = flaky2.duplicate_acks();
    println!("flaky: {flaky_duplicates} re-deliveries absorbed by receiver-side dedup");
    drop(flaky2);

    // 3. SIGKILL with a pending delivery buffer, restart with the
    // endpoint healthy.
    let dead_addr = reserve_addr(); // nobody listens: every attempt fails
    let kill_state = gate.path("state-kill");
    let args = monitor_args(&live_file, &ckpt, &kill_state, &dead_addr);
    let mut child = gate.spawn("sigkill", &args, &[]);
    wait_until(&mut child, "a committed report", || {
        !committed_ids(&kill_state).is_empty()
    });
    // Let checkpoints and more buffered reports accumulate.
    std::thread::sleep(Duration::from_millis(300));
    let buffered = dir_bytes(&kill_state.join("delivery"));
    if buffered == 0 {
        fail("sigkill: no bytes in the delivery buffer — nothing pending to lose");
    }
    child.kill();
    println!("sigkill: killed with {buffered} bytes in the delivery buffer");
    let revived = FlakySinkServer::spawn(&dead_addr, SinkProtocol::Framed, vec![])
        .expect("spawn sink on the formerly dead port");
    let restart_out = gate.spawn("sigkill-restart", &args, &[]).wait_ok();
    if !restart_out.contains("recovery: replayed") {
        fail(&format!("no replay line in restart output:\n{restart_out}"));
    }
    assert_delivered("sigkill", &revived.delivered_ids(), &reference);
    let kill_duplicates = revived.duplicate_acks();
    println!("sigkill: {kill_duplicates} re-deliveries absorbed by receiver-side dedup");
    drop(revived);

    println!("\nall delivery invariants hold");
    gate.finish(&format!(
        "\"live_lines\":{},\"reports\":{},\
         \"flaky_retries\":{retries},\"flaky_breaker_opened\":{breaker_opened},\
         \"flaky_duplicate_acks\":{flaky_duplicates},\
         \"sigkill_buffered_bytes\":{buffered},\
         \"sigkill_duplicate_acks\":{kill_duplicates}",
        live.len(),
        reference.len(),
    ));
}
