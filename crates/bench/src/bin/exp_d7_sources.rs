//! Experiment D7 — network sources under hostile clients.
//!
//! Drives the real `monilog` binary as a network daemon (syslog-TCP source
//! plus `/metrics` on the shared event loop) and checks the ingestion
//! invariants end to end:
//!
//! 1. **Equivalence under chaos**: the live workload is delivered as
//!    RFC 5424/3164 syslog frames over TCP while a fleet of scripted chaos
//!    clients (slow loris, mid-frame resets, reconnect storms) abuses the
//!    same listener and ~10k idle connections sit on the loop. The anomaly
//!    set must be identical to a file-fed reference run, and `/metrics`
//!    must stay responsive throughout — including with a stalled scrape
//!    client holding a connection half-open (the head-of-line bug).
//! 2. **Forced shutdown**: a second SIGTERM during a (artificially held)
//!    graceful drain must exit immediately with status 130, and a restart
//!    must recover from the WAL to the identical anomaly set.
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d7_sources`
//! (build the workspace in release first so `monilog` exists).
//!
//! All assertions are hard gates — the binary exits non-zero on any
//! violation. With `--check` the results artifact is not rewritten.

use monilog_bench::gate::{
    assert_same_reports, counter, fail, feed_syslog, listen_addr, numbers_in_line, report_keys,
    request, wait_until, write_workload, Gate,
};
use monilog_core::stream::{FlakySourceClient, SourceFault};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Idle connections to park on the event loop during the chaos run.
const IDLE_CONNECTIONS: usize = 10_000;
/// Acceptance bound on a `/metrics` scrape while the loop is loaded.
const SCRAPE_BUDGET: Duration = Duration::from_millis(500);
/// Acceptance bound on a forced (second-SIGTERM) exit.
const FORCED_EXIT_BUDGET: Duration = Duration::from_secs(3);
/// Exit status of a forced shutdown (128 + SIGINT).
const FORCED_EXIT_CODE: i32 = 130;

/// Raise the open-file soft limit to the hard limit (capped at what the
/// idle-connection fleet needs, on both sides of the sockets). Inherited
/// by the spawned `monilog` children.
fn raise_nofile_limit() -> u64 {
    #[cfg(unix)]
    {
        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }
        const RLIMIT_NOFILE: i32 = 7;
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live `#[repr(C)]` struct laid out as the
        // kernel's `struct rlimit` (two 64-bit words on Linux).
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        let want = (IDLE_CONNECTIONS as u64 + 4_096).min(lim.max);
        if lim.cur < want {
            let new = RLimit {
                cur: want,
                max: lim.max,
            };
            // SAFETY: as above; the kernel only reads `new`.
            if unsafe { setrlimit(RLIMIT_NOFILE, &new) } != 0 {
                return lim.cur;
            }
            return want;
        }
        lim.cur
    }
    #[cfg(not(unix))]
    {
        0
    }
}

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
        // No periodic checkpoint inside the run: the forced-exit scenario
        // must find journal lines to replay, proving the second SIGTERM
        // really skipped the final checkpoint.
        "--checkpoint-interval-ms",
        "600000",
    ]
    .map(String::from)
    .to_vec()
}

/// Lines accepted by the sources so far, per `/metrics`.
fn lines_accepted(metrics_addr: &str) -> u64 {
    let (_, body) = request(metrics_addr, "GET", "/metrics", "");
    counter(&body, "monilog_sources_lines_total")
}

fn chaos_script() -> Vec<SourceFault> {
    let mut script = vec![
        SourceFault::SlowLoris {
            prefix: "<13>a torn frame dripping one byte at a time, never finished".into(),
            byte_delay: Duration::from_millis(2),
        },
        SourceFault::ResetMidFrame {
            partial: "<13>an octet-counted frame cut off mid-payload".into(),
        },
        SourceFault::ReconnectStorm { connects: 150 },
        SourceFault::IdleHold {
            hold: Duration::from_millis(200),
        },
        SourceFault::ResetMidFrame {
            partial: "<165>1 2020-09-13T13:26:40Z h app - - - torn".into(),
        },
    ];
    script.push(SourceFault::ReconnectStorm { connects: 150 });
    script
}

fn main() {
    let gate = Gate::start("d7_sources", "D7 — network sources under hostile clients");
    let nofile = raise_nofile_limit();
    println!("open-file limit: {nofile}");
    if nofile != 0 && nofile < IDLE_CONNECTIONS as u64 + 2_048 {
        fail(&format!(
            "open-file limit {nofile} too low for {IDLE_CONNECTIONS} idle connections"
        ));
    }
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
    let live_lines = live.len();
    // RFC 5424 and RFC 3164 envelopes, alternating.
    let wire: Vec<String> = live
        .iter()
        .enumerate()
        .map(|(i, l)| match i % 2 {
            0 => format!(
                "<14>1 2020-09-13T13:26:40Z host app - - - {}",
                l.record.to_line()
            ),
            _ => format!("<13>Sep 13 13:26:40 host app: {}", l.record.to_line()),
        })
        .collect();
    println!("live stream: {live_lines} lines");
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

    // 1. Chaos ingest: syslog feed + hostile clients + idle fleet.
    let net_state = gate.path("state-net");
    std::fs::create_dir_all(&net_state).expect("state dir");
    let mut child = gate.spawn("chaos", &sources_args(&ckpt, &net_state), &[]);
    let syslog_addr = listen_addr(&net_state, "syslog-tcp", &mut child);
    let metrics_addr = listen_addr(&net_state, "metrics", &mut child);
    println!("syslog-tcp at {syslog_addr}, metrics at {metrics_addr}");

    // A stalled scrape client: half a request, then silence. The exporter
    // must not let it block other scrapes (the head-of-line bug).
    let mut stalled = TcpStream::connect(&metrics_addr).expect("connect stalled client");
    stalled
        .write_all(b"GET /metr")
        .expect("write stalled prefix");

    // Park the idle fleet.
    let parse_addr: std::net::SocketAddr = syslog_addr.parse().expect("addr");
    let mut idle = Vec::with_capacity(IDLE_CONNECTIONS);
    let mut refused = 0u32;
    while idle.len() < IDLE_CONNECTIONS {
        match TcpStream::connect_timeout(&parse_addr, Duration::from_secs(5)) {
            Ok(s) => idle.push(s),
            Err(_) => {
                refused += 1;
                if refused > 1_000 {
                    fail(&format!("idle fleet stalled at {} connections", idle.len()));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    println!("idle fleet: {} connections parked", idle.len());

    // Hostile clients run concurrently with the real feed.
    let chaos: Vec<FlakySourceClient> = (0..3)
        .map(|_| FlakySourceClient::spawn(parse_addr, chaos_script()))
        .collect();
    let feed = wire.clone();
    let feed_addr = syslog_addr.clone();
    let feeder = std::thread::spawn(move || feed_syslog(&feed_addr, &feed));

    // Scrape continuously while the loop is loaded; every scrape must meet
    // the latency budget even with the stalled client holding its slot.
    let mut worst_scrape = Duration::ZERO;
    wait_until(&mut child, "the whole feed accepted", || {
        let start = Instant::now();
        let accepted = lines_accepted(&metrics_addr);
        let took = start.elapsed();
        worst_scrape = worst_scrape.max(took);
        if took > SCRAPE_BUDGET {
            fail(&format!(
                "scrape took {took:?} under load (budget {SCRAPE_BUDGET:?})"
            ));
        }
        accepted >= live_lines as u64
    });
    feeder.join().expect("feeder thread");
    let mut chaos_connections = 0u64;
    for client in chaos {
        chaos_connections += client.join().connections;
    }
    println!(
        "chaos fleet: {chaos_connections} hostile connections served; \
         worst scrape {worst_scrape:?}"
    );
    drop(stalled);
    drop(idle);

    child.sigterm();
    let out = child.wait_ok();
    if !out.contains("drained gracefully") {
        fail(&format!("drain not reported:\n{out}"));
    }
    let expected_line = format!("monitored {live_lines} lines from network sources");
    if !out.contains(&expected_line) {
        fail(&format!(
            "chaos clients leaked lines into the pipeline — wanted \"{expected_line}\":\n{out}"
        ));
    }
    // The drain checkpoint keeps open detection windows open (the daemon
    // cannot know the stream ended); the file-fed reference ends with an
    // end-of-input flush. Restart on the drained state — zero journal
    // replay — and let the idle exit run that flush.
    let idle_exit = [("MONILOG_IDLE_EXIT_MS", "1000")];
    let out = gate
        .spawn("chaos-resume", &sources_args(&ckpt, &net_state), &idle_exit)
        .wait_ok();
    if !out.contains("recovery: replayed 0 journal lines") {
        fail(&format!("graceful drain must leave zero replay:\n{out}"));
    }
    let netted = report_keys(&net_state.join("anomalies.jsonl"));
    assert_same_reports("chaos ingest", &netted, &reference);
    println!(
        "chaos ingest: anomaly set identical to reference ({} reports)",
        netted.len()
    );

    // 2. Forced shutdown: second SIGTERM during a held drain.
    let force_state = gate.path("state-force");
    std::fs::create_dir_all(&force_state).expect("state dir");
    let mut child = gate.spawn(
        "forced",
        &sources_args(&ckpt, &force_state),
        &[("MONILOG_DRAIN_HOLD_MS", "30000")],
    );
    let syslog_addr = listen_addr(&force_state, "syslog-tcp", &mut child);
    let metrics_addr = listen_addr(&force_state, "metrics", &mut child);
    feed_syslog(&syslog_addr, &wire);
    wait_until(&mut child, "the whole feed accepted", || {
        lines_accepted(&metrics_addr) >= live_lines as u64
    });

    child.sigterm(); // graceful drain starts, then parks in the hold
    std::thread::sleep(Duration::from_millis(500));
    let forced_at = Instant::now();
    child.sigterm(); // force immediate exit
    let (status, _) = child.wait();
    let forced_in = forced_at.elapsed();
    if status.code() != Some(FORCED_EXIT_CODE) {
        fail(&format!(
            "second SIGTERM must exit with status {FORCED_EXIT_CODE}, got {status}"
        ));
    }
    if forced_in > FORCED_EXIT_BUDGET {
        fail(&format!(
            "forced exit took {forced_in:?} (budget {FORCED_EXIT_BUDGET:?})"
        ));
    }
    println!("forced exit: status 130 in {forced_in:?}");

    // Restart recovers from the WAL (the forced exit skipped the final
    // checkpoint, so there must be journal lines to replay) and converges
    // on the identical anomaly set.
    let out = gate
        .spawn(
            "forced-restart",
            &sources_args(&ckpt, &force_state),
            &idle_exit,
        )
        .wait_ok();
    let replayed = numbers_in_line(&out, "recovery: replayed")[0];
    if replayed == 0 {
        fail("forced exit left nothing to replay — the final checkpoint ran anyway");
    }
    println!("recovery: replayed {replayed} journal lines after forced exit");
    let recovered = report_keys(&force_state.join("anomalies.jsonl"));
    assert_same_reports("forced-exit recovery", &recovered, &reference);
    println!(
        "forced-exit recovery: anomaly set identical to reference ({} reports)",
        recovered.len()
    );

    println!("\nall source invariants hold");
    gate.finish(&format!(
        "\"live_lines\":{live_lines},\"reports\":{},\
         \"idle_connections\":{IDLE_CONNECTIONS},\"chaos_connections\":{chaos_connections},\
         \"worst_scrape_ms\":{},\"forced_exit_ms\":{},\"forced_replayed_lines\":{replayed}",
        reference.len(),
        worst_scrape.as_millis(),
        forced_in.as_millis(),
    ));
}
