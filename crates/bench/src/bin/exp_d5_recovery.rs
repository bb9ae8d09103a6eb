//! Experiment D5 — durable checkpoint/restore under process death.
//!
//! Drives the real `monilog` binary (built as a sibling of this
//! experiment in `target/release`) through three lives against the same
//! durable state directory:
//!
//! 1. **Reference**: an uninterrupted durable monitor run — the ground
//!    truth anomaly set.
//! 2. **SIGKILL**: the same run killed (uncatchable) mid-stream, then
//!    restarted. Recovery must load the newest checkpoint, replay the
//!    journal suffix, and finish with the *identical* anomaly set — no
//!    report lost, none duplicated.
//! 3. **SIGTERM**: the same run drained gracefully mid-stream, then
//!    restarted. The drain checkpoint must leave zero journal lines to
//!    replay.
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d5_recovery`
//! (build the workspace in release first so `monilog` exists).
//!
//! All assertions are hard gates — the binary exits non-zero on any
//! violation. With `--check` the results artifact is not rewritten.

use monilog_bench::gate::{
    assert_same_reports, dir_bytes, fail, numbers_in_line, report_keys, wait_until, write_workload,
    Gate,
};
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use std::path::Path;
use std::time::Duration;

/// Acceptance bound on recovery replay time.
const REPLAY_BUDGET_MS: u64 = 5_000;

/// Monitor argv for one state directory (fsync every line: worst-case
/// durability, and it slows the run enough to kill mid-stream).
fn monitor_args(live: &Path, ckpt: &Path, state: &Path) -> Vec<String> {
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
    ]
    .map(String::from)
    .to_vec()
}

/// `(replayed lines, replay ms)` from a monitor's recovery line.
fn replay_stats(out: &str) -> (u64, u64) {
    let nums = numbers_in_line(out, "recovery: replayed");
    (nums[0], nums[1])
}

fn main() {
    let gate = Gate::start("d5_recovery", "D5 — crash recovery and graceful drain");
    let live_file = gate.path("live.log");
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 800,
        sequential_anomaly_rate: 0.15,
        quantitative_anomaly_rate: 0.0,
        seed: 7,
        start_ms: 1_600_003_600_000,
    })
    .generate();
    write_workload(&live_file, &live);
    println!("live stream: {} lines", live.len());
    let ckpt = gate.train();

    // 1. Reference: uninterrupted durable run.
    let ref_state = gate.path("state-ref");
    let out = gate
        .spawn(
            "reference",
            &monitor_args(&live_file, &ckpt, &ref_state),
            &[],
        )
        .wait_ok();
    let reference = report_keys(&ref_state.join("anomalies.jsonl"));
    if reference.is_empty() {
        fail("reference run found no anomalies — nothing to compare");
    }
    println!("reference: {} reports", reference.len());
    let (replayed, _) = replay_stats(&out);
    if replayed != 0 {
        fail("fresh reference run must replay nothing");
    }

    // 2. SIGKILL mid-stream, then restart on the same state dir.
    let kill_state = gate.path("state-kill");
    let args = monitor_args(&live_file, &ckpt, &kill_state);
    let mut child = gate.spawn("sigkill", &args, &[]);
    // The workload must outlast the signal.
    wait_until(&mut child, "journal progress", || {
        dir_bytes(&kill_state.join("journal")) >= 32_768
    });
    // Let checkpoints and more journal accumulate past first progress.
    std::thread::sleep(Duration::from_millis(150));
    child.kill();
    let restart_out = gate.spawn("sigkill-restart", &args, &[]).wait_ok();
    let (kill_replayed, kill_replay_ms) = replay_stats(&restart_out);
    println!("sigkill: restart replayed {kill_replayed} journal lines in {kill_replay_ms} ms");
    if kill_replay_ms >= REPLAY_BUDGET_MS {
        fail(&format!(
            "recovery replay took {kill_replay_ms} ms (budget {REPLAY_BUDGET_MS})"
        ));
    }
    let killed = report_keys(&kill_state.join("anomalies.jsonl"));
    assert_same_reports("sigkill", &killed, &reference);
    println!(
        "sigkill: anomaly set identical to reference ({} reports)",
        killed.len()
    );

    // 3. SIGTERM mid-stream (graceful drain), then restart.
    let term_state = gate.path("state-term");
    let args = monitor_args(&live_file, &ckpt, &term_state);
    let mut child = gate.spawn("sigterm", &args, &[]);
    wait_until(&mut child, "journal progress", || {
        dir_bytes(&term_state.join("journal")) >= 32_768
    });
    child.sigterm();
    let (status, drained_out) = child.wait();
    if !status.success() {
        fail(&format!("SIGTERM must exit cleanly, got {status}"));
    }
    if !drained_out.contains("drained gracefully") {
        fail(&format!("drain not reported:\n{drained_out}"));
    }
    let restart_out = gate.spawn("sigterm-restart", &args, &[]).wait_ok();
    let (term_replayed, _) = replay_stats(&restart_out);
    println!("sigterm: drained cleanly; restart replayed {term_replayed} journal lines");
    if term_replayed != 0 {
        fail("graceful drain must leave zero journal lines to replay");
    }
    let termed = report_keys(&term_state.join("anomalies.jsonl"));
    assert_same_reports("sigterm", &termed, &reference);

    println!("\nall recovery invariants hold");
    gate.finish(&format!(
        "\"live_lines\":{},\"reports\":{},\
         \"sigkill_replayed_lines\":{kill_replayed},\"sigkill_replay_ms\":{kill_replay_ms},\
         \"sigterm_replayed_lines\":{term_replayed}",
        live.len(),
        reference.len(),
    ));
}
