//! Experiment D9 — distributed fleet: node kill, rebalance, replay.
//!
//! Drives the real `monilog` binary as a three-process fleet — one router
//! partitioning file-backed sources across two monitor nodes over the
//! cluster wire protocol — and proves the distributed run loses and
//! duplicates nothing even when a node dies mid-stream:
//!
//! 1. **Reference**: each source file is run through an uninterrupted
//!    single-process monitor; the union of their anomaly sets is the
//!    ground truth.
//! 2. **Fleet with node kill**: router + two joined monitors; the monitor
//!    that owns sources is SIGKILLed mid-stream, the router detects the
//!    dead node, rebalances its sources to the survivor and replays them
//!    from line one; the killed node restarts, rejoins, and takes its
//!    sources back. The union of both monitors' anomaly sets must be
//!    *identical* to the reference.
//!
//! Anomaly identity is canonical — `(kind, detector, score, sorted event
//! timestamps)` — deliberately excluding report ids (per-process
//! counters), source ids (the reference ingests as source 0, the fleet as
//! router sources), and template ids (independent discovery may number
//! novel templates differently before reconciliation converges).
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d9_cluster`
//! (build the workspace in release first so `monilog` exists).
//!
//! All assertions are hard gates — the binary exits non-zero on any
//! violation. With `--check` the results artifact is not rewritten.

use monilog_bench::gate::{
    dir_bytes, fail, listen_addr, numbers_in_line, read_reports, wait_for, wait_until,
    write_workload, Gate,
};
use monilog_core::stream::ROUTER_SOURCE_BASE;
use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Journal bytes that count as "real progress" before the kill.
const KILL_THRESHOLD: u64 = 16_384;
/// Number of file-backed sources the router partitions.
const N_SOURCES: usize = 4;

/// The canonical anomaly set of one monitor's sink file: process-local
/// report ids, source ids, template ids, and trace ids are all excluded
/// (see the module docs). A missing file is an empty set (a node that
/// served no sources reports nothing).
fn canonical_set(sink: &Path) -> BTreeSet<String> {
    let keys = read_reports(sink, |r| {
        let mut ts: Vec<u64> = r.events.iter().map(|e| e.ts_ms).collect();
        ts.sort_unstable();
        format!("{}|{}|{}|{ts:?}", r.kind, r.detector, r.score)
    });
    keys.into_iter().collect()
}

fn fleet_monitor_args(ckpt: &Path, state: &Path, addr: &str, node: &str) -> Vec<String> {
    [
        "monitor",
        "--checkpoint",
        &ckpt.display().to_string(),
        "--state-dir",
        &state.display().to_string(),
        "--join",
        addr,
        "--node-id",
        node,
        // fsync every line: worst-case durability, and it slows the run
        // enough that the kill lands mid-stream.
        "--journal-fsync-ms",
        "0",
        "--checkpoint-interval-ms",
        "100",
    ]
    .map(String::from)
    .to_vec()
}

fn main() {
    let gate = Gate::start(
        "d9_cluster",
        "D9 — distributed fleet: node kill, rebalance, replay",
    );
    let ckpt = gate.train();

    // One live workload partitioned into N_SOURCES files by whole
    // session. A single generation keeps session keys globally unique —
    // independent workloads would all emit blk_1..blk_n, and a fleet
    // monitor serving several sources would merge same-key sessions the
    // per-file reference keeps apart. One shared start_ms also keeps the
    // windower's single event-time watermark consistent: hour-separated
    // sources at one node would idle-close each other's sessions.
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 200 * N_SOURCES,
        sequential_anomaly_rate: 0.15,
        quantitative_anomaly_rate: 0.0,
        seed: 40,
        start_ms: 1_600_000_000_000 + 3_600_000,
    })
    .generate();
    let mut partitions: Vec<Vec<GenLog>> = (0..N_SOURCES).map(|_| Vec::new()).collect();
    for line in live {
        let shard = match &line.truth.session {
            Some(key) => {
                key.bytes()
                    .fold(0usize, |h, b| h.wrapping_mul(31).wrapping_add(b as usize))
                    % N_SOURCES
            }
            None => 0,
        };
        partitions[shard].push(line);
    }
    let mut live_files = Vec::new();
    let mut live_lines = 0usize;
    for (i, part) in partitions.iter().enumerate() {
        let path = gate.path(&format!("live-{i}.log"));
        write_workload(&path, part);
        live_lines += part.len();
        live_files.push(path);
    }
    println!("live stream: {live_lines} lines across {N_SOURCES} sources");

    // 1. Reference: one uninterrupted single-process run per source file.
    let mut reference = BTreeSet::new();
    for (i, live) in live_files.iter().enumerate() {
        let state = gate.path(&format!("state-ref-{i}"));
        let args = [
            "monitor",
            &live.display().to_string(),
            "--checkpoint",
            &ckpt.display().to_string(),
            "--state-dir",
            &state.display().to_string(),
        ];
        gate.spawn(&format!("reference-{i}"), &args.map(String::from), &[])
            .wait_ok();
        reference.extend(canonical_set(&state.join("anomalies.jsonl")));
    }
    if reference.is_empty() {
        fail("reference runs found no anomalies — nothing to compare");
    }
    println!("reference: {} canonical anomalies", reference.len());

    // 2. Fleet: router + two monitors, SIGKILL one mid-stream, restart it.
    let router_state = gate.path("state-router");
    let mut router_args: Vec<String> = vec!["router".into()];
    router_args.extend(live_files.iter().map(|p| p.display().to_string()));
    router_args.extend(
        [
            "--state-dir",
            &router_state.display().to_string(),
            "--listen-cluster",
            "127.0.0.1:0",
            "--expect-nodes",
            "2",
            "--heartbeat-ms",
            "100",
            "--dead-after-ms",
            "800",
            "--rebalance-grace-ms",
            "200",
        ]
        .map(String::from),
    );
    let mut router = gate.spawn("router", &router_args, &[]);
    let addr = listen_addr(&router_state, "cluster", &mut router);
    println!("router listening on {addr}");

    let idle_guard = [("MONILOG_IDLE_EXIT_MS", "30000")];
    let states = [gate.path("state-n1"), gate.path("state-n2")];
    let args = [
        fleet_monitor_args(&ckpt, &states[0], &addr, "n1"),
        fleet_monitor_args(&ckpt, &states[1], &addr, "n2"),
    ];
    let mut nodes = vec![
        Some(gate.spawn("n1", &args[0], &idle_guard)),
        Some(gate.spawn("n2", &args[1], &idle_guard)),
    ];

    // Pick the victim dynamically: the first node whose journal shows
    // real progress provably owns sources, so killing it exercises the
    // rebalance path no matter how rendezvous split the assignment.
    let victim = wait_for(&mut router, "monitor journal progress", || {
        (0..2).find(|&i| dir_bytes(&states[i].join("journal")) >= KILL_THRESHOLD)
    });
    nodes[victim].take().expect("victim running").kill();
    println!("killed node n{} mid-stream (SIGKILL)", victim + 1);

    // Hold the node down until the router has detected the death and
    // rebalanced to the survivor — a too-fast restart would be absorbed by
    // the rejoin path alone, and a fixed hold can outlast the stream. The
    // rebalance is observed when the survivor's journal holds a segment
    // for every router source; the victim restarts at once.
    let survivor_journal = states[1 - victim].join("journal");
    wait_until(&mut router, "the rebalance to the survivor", || {
        (ROUTER_SOURCE_BASE..ROUTER_SOURCE_BASE + N_SOURCES as u16).all(|source| {
            fs::read_dir(&survivor_journal).is_ok_and(|entries| {
                let prefix = format!("src{source}-");
                entries
                    .flatten()
                    .any(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            })
        })
    });
    let label = format!("n{}-restart", victim + 1);
    nodes[victim] = Some(gate.spawn(&label, &args[victim], &idle_guard));
    println!("restarted node n{} on the same state dir", victim + 1);

    let router_out = router.wait_ok();
    print!("{router_out}");
    let routed = numbers_in_line(&router_out, "lines replayed");
    let fleet = numbers_in_line(&router_out, "rebalances");
    let (lines_routed, lines_replayed) = (routed[0], routed[routed.len() - 1]);
    let (rebalances, rejoins) = (fleet[0], fleet[1]);
    if lines_routed != live_lines as u64 {
        fail(&format!(
            "router routed {lines_routed} of {live_lines} lines"
        ));
    }
    if rebalances < 1 {
        fail("the dead node was never rebalanced away");
    }
    if rejoins < 1 {
        fail("the restarted node never rejoined");
    }
    if lines_replayed == 0 {
        fail("rebalance must replay the dead node's sources from line one");
    }

    // Each node's transcript stays in the work dir (`n1.out`,
    // `n2-restart.out`, ...) when the gate fails.
    let outs: Vec<String> = nodes
        .into_iter()
        .map(|node| node.expect("node spawned").wait_ok())
        .collect();
    let restart_out = &outs[victim];
    if !restart_out.contains("recovery: replayed") {
        fail(&format!(
            "restarted node reported no recovery:\n{restart_out}"
        ));
    }

    // The merged fleet anomaly set must be identical to the reference.
    let mut merged = BTreeSet::new();
    for state in &states {
        merged.extend(canonical_set(&state.join("anomalies.jsonl")));
    }
    if merged != reference {
        let missing: Vec<&String> = reference.difference(&merged).take(5).collect();
        let extra: Vec<&String> = merged.difference(&reference).take(5).collect();
        fail(&format!(
            "fleet anomaly set diverged from the reference: {} vs {} \
             (missing e.g. {missing:?}; extra e.g. {extra:?})",
            merged.len(),
            reference.len()
        ));
    }
    println!(
        "fleet: merged anomaly set identical to reference ({} reports); \
         {rebalances} rebalances, {rejoins} rejoins, {lines_replayed} lines replayed",
        merged.len()
    );

    println!("\nall fleet invariants hold");
    gate.finish(&format!(
        "\"live_lines\":{live_lines},\
         \"sources\":{N_SOURCES},\"reports\":{},\"lines_routed\":{lines_routed},\
         \"lines_replayed\":{lines_replayed},\"rebalances\":{rebalances},\
         \"rejoins\":{rejoins}",
        reference.len(),
    ));
}
