//! Chaos integration suite: the supervised parse service under injected
//! faults, driven through the `monilog-core` facade configuration.
//!
//! The contract under test (ISSUE acceptance):
//! - no fault plan may deadlock the service (every test terminating is
//!   the assertion);
//! - at least `N - quarantined` lines come out parsed — faults cost at
//!   most the poisoned lines plus one in-flight line per worker crash;
//! - template ids are bit-identical to a fault-free run across respawns;
//! - the fault-tolerance counters match the fault plan *exactly*, not
//!   just approximately;
//! - the `ShedToCatchAll` and `DeadLetter` overload policies degrade
//!   gracefully under saturation while `Block` preserves backpressure.

use monilog_core::stream::PipelineMetrics;
use monilog_core::stream::{
    FailureReason, FaultPlan, OverloadPolicy, RetryPolicy, SubmitOutcome, SupervisedParseService,
    SupervisorConfig,
};
use monilog_core::FaultToleranceConfig;
use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Realistic message corpus: HDFS-like session logs, payload text only.
fn corpus(n: usize, seed: u64) -> Vec<String> {
    let logs = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: n, // sessions are multi-line; this overshoots, then truncates
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed,
        ..Default::default()
    })
    .generate();
    logs.iter()
        .take(n)
        .map(|l| l.record.message.to_string())
        .collect()
}

/// The facade's overload policy on a supervisor config, tightened for
/// fast tests (short heartbeats, microsecond backoff).
fn test_config(fault: FaultToleranceConfig) -> SupervisorConfig {
    SupervisorConfig {
        n_shards: 2,
        capacity: 64,
        overload: fault.on_overload,
        heartbeat_interval: Duration::from_millis(5),
        retry: RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        ..SupervisorConfig::default()
    }
}

fn get(counter: &AtomicU64) -> u64 {
    PipelineMetrics::get(counter)
}

/// Feed every line and concurrently drain the output until it has been
/// idle for a while (faults stall the stream for at most a few heartbeat
/// intervals, far below the cutoff).
fn pump(service: &SupervisedParseService, lines: &[String]) -> Vec<(u64, u32)> {
    pump_with_stall(service, lines, None)
}

/// Like [`pump`], but the consumer freezes for 150 ms after receiving
/// `stall_after` items — long enough for backpressure to wedge the whole
/// pipeline against the stalled output queue before it resumes.
fn pump_with_stall(
    service: &SupervisedParseService,
    lines: &[String],
    mut stall_after: Option<usize>,
) -> Vec<(u64, u32)> {
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, line) in lines.iter().enumerate() {
                service
                    .submit(i as u64, line.clone())
                    .expect("service is open");
            }
        });
        let mut out = Vec::new();
        let mut last = Instant::now();
        loop {
            match service.try_recv() {
                Some(item) => {
                    out.push((item.seq, item.outcome.template.0));
                    last = Instant::now();
                    if stall_after.take_if(|n| *n == out.len()).is_some() {
                        std::thread::sleep(Duration::from_millis(150));
                        last = Instant::now();
                    }
                }
                None => {
                    if last.elapsed() > Duration::from_millis(800) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        out
    })
}

#[test]
fn chaos_run_recovers_and_matches_fault_free_template_ids() {
    let lines = corpus(240, 97);
    let n = lines.len() as u64;

    // Fault-free baseline: record the template id of every sequence
    // number, and where template discovery ends.
    let fault_cfg = FaultToleranceConfig::default();
    let mut baseline_svc =
        SupervisedParseService::spawn(test_config(fault_cfg)).expect("valid config");
    let baseline_out = pump(&baseline_svc, &lines);
    let metrics = baseline_svc.metrics();
    baseline_svc.close();
    let (rest, letters) = baseline_svc.shutdown();
    assert!(rest.is_empty(), "pump drained everything");
    assert!(letters.is_empty(), "no faults, no dead letters");
    assert_eq!(get(&metrics.lines_parsed), n);
    assert_eq!(get(&metrics.worker_restarts), 0);
    assert_eq!(get(&metrics.lines_quarantined), 0);
    let baseline: BTreeMap<u64, u32> = baseline_out.iter().copied().collect();
    assert_eq!(baseline.len() as u64, n);

    // The fault plan targets sequence numbers past template discovery so
    // a lost line can never be a template's first sighting (id stability
    // across a lost *discovery* line is not a property anyone can offer).
    let plan = FaultPlan::new()
        .crash_every(100) // kills the worker handling seqs 99 and 199
        .poison([120, 130]) // panics on every attempt -> quarantined
        .transient([140, 150, 160]); // panics once -> rescued by retry
    assert_eq!(plan.expected_crashes(n), 2);
    assert_eq!(plan.expected_poisoned(n), 2);

    // The chaos run also stalls the consumer for 150 ms mid-stream:
    // backpressure wedges every queue against the stalled output, and the
    // supervisor must neither kill the (blocked, healthy) workers nor
    // deadlock when consumption resumes.
    let mut chaos_svc =
        SupervisedParseService::spawn_with_injector(test_config(fault_cfg), Some(plan.injector()))
            .expect("valid config");
    let chaos_out = pump_with_stall(&chaos_svc, &lines, Some(60));
    let metrics = chaos_svc.metrics();
    let status = chaos_svc.shard_status();
    chaos_svc.close();
    let (rest, mut letters) = chaos_svc.shutdown();
    assert!(rest.is_empty(), "pump drained everything");

    // Losses are exactly the poisoned lines plus the one line in flight
    // at each worker kill — nothing else.
    letters.sort_by_key(|l| l.seq);
    let lost: Vec<u64> = letters.iter().map(|l| l.seq).collect();
    assert_eq!(lost, vec![99, 120, 130, 199]);
    assert_eq!(chaos_out.len() as u64, n - 4, "received >= N - quarantined");

    // Template ids survive the respawns bit-for-bit.
    for &(seq, template) in &chaos_out {
        assert_eq!(
            template, baseline[&seq],
            "template id for seq {seq} drifted across a worker respawn"
        );
    }

    // Counters match the plan exactly.
    assert_eq!(get(&metrics.lines_ingested), n);
    assert_eq!(get(&metrics.lines_parsed), n - 4);
    assert_eq!(get(&metrics.worker_restarts), plan.expected_crashes(n));
    assert_eq!(
        get(&metrics.lines_quarantined),
        plan.expected_crashes(n) + plan.expected_poisoned(n)
    );
    // Poison lines retry max_retries times before quarantine; transient
    // lines are rescued by their single retry.
    let retry = test_config(fault_cfg).retry;
    assert_eq!(
        get(&metrics.retries_attempted),
        2 * u64::from(retry.max_retries) + 3
    );
    assert_eq!(get(&metrics.lines_shed), 0);

    // Dead letters carry triage context.
    for letter in &letters {
        match letter.seq {
            120 | 130 => {
                assert_eq!(letter.reason, FailureReason::Panic);
                assert_eq!(letter.attempts, retry.max_retries + 1);
                assert!(letter.shard.is_some());
            }
            _ => {
                assert_eq!(letter.reason, FailureReason::WorkerCrash);
                assert!(letter.shard.is_some());
            }
        }
        assert_eq!(letter.line, lines[letter.seq as usize]);
    }

    // Isolated crashes never exhaust the crash budget.
    assert!(
        status.iter().all(|s| !s.degraded),
        "no shard degraded: {status:?}"
    );
}

#[test]
fn facade_shed_policy_degrades_gracefully_under_saturation() {
    let lines = corpus(200, 11);
    let fault = FaultToleranceConfig {
        on_overload: OverloadPolicy::ShedToCatchAll,
    };
    let mut cfg = test_config(fault);
    cfg.n_shards = 1;
    cfg.capacity = 2;
    let mut service = SupervisedParseService::spawn(cfg).expect("valid config");

    // Nobody consumes the output, so the tiny queues saturate at once.
    let mut shed = 0u64;
    for (i, line) in lines.iter().enumerate() {
        if service.submit(i as u64, line.clone()).expect("open") == SubmitOutcome::Shed {
            shed += 1;
        }
    }
    assert!(
        shed > 0,
        "saturation must shed with capacity 2 and no consumer"
    );

    let metrics = service.metrics();
    assert_eq!(get(&metrics.lines_shed), shed);
    assert_eq!(service.catch_all_count(), shed);
    // `lines_ingested` counts lines *accepted* into the pipeline — shed
    // lines never enter it.
    assert_eq!(get(&metrics.lines_ingested), lines.len() as u64 - shed);

    // Every accepted line still comes out parsed at shutdown.
    service.close();
    let (rest, letters) = service.shutdown();
    assert!(letters.is_empty(), "shedding never dead-letters");
    assert_eq!(rest.len() as u64, lines.len() as u64 - shed);
}

#[test]
fn facade_dead_letter_policy_diverts_under_saturation() {
    let lines = corpus(200, 12);
    let fault = FaultToleranceConfig {
        on_overload: OverloadPolicy::DeadLetter,
    };
    let mut cfg = test_config(fault);
    cfg.n_shards = 1;
    cfg.capacity = 2;
    let mut service = SupervisedParseService::spawn(cfg).expect("valid config");

    let mut diverted = 0u64;
    for (i, line) in lines.iter().enumerate() {
        if service.submit(i as u64, line.clone()).expect("open") == SubmitOutcome::DeadLettered {
            diverted += 1;
        }
    }
    assert!(
        diverted > 0,
        "saturation must divert with capacity 2 and no consumer"
    );
    assert_eq!(get(&service.metrics().lines_quarantined), diverted);

    service.close();
    let (rest, letters) = service.shutdown();
    assert_eq!(letters.len() as u64, diverted);
    assert!(letters.iter().all(|l| l.reason == FailureReason::Overload));
    assert!(
        letters.iter().all(|l| l.shard.is_none()),
        "diverted before routing"
    );
    assert_eq!(
        rest.len() as u64 + diverted,
        lines.len() as u64,
        "nothing vanishes"
    );
}

#[test]
fn facade_block_policy_preserves_backpressure_with_slow_consumer() {
    let lines = corpus(150, 13);
    let mut cfg = test_config(FaultToleranceConfig::default());
    cfg.capacity = 8;
    let mut service = SupervisedParseService::spawn(cfg).expect("valid config");

    let received = std::thread::scope(|s| {
        s.spawn(|| {
            for (i, line) in lines.iter().enumerate() {
                // Block policy: this parks instead of shedding.
                assert_eq!(
                    service.submit(i as u64, line.clone()).expect("open"),
                    SubmitOutcome::Accepted
                );
            }
        });
        let mut received = 0usize;
        while received < lines.len() {
            if let Some(_item) = service.recv() {
                received += 1;
                std::thread::sleep(Duration::from_micros(200)); // slow consumer
            }
        }
        received
    });
    assert_eq!(received, lines.len());

    let metrics = service.metrics();
    assert_eq!(get(&metrics.lines_parsed), lines.len() as u64);
    assert_eq!(get(&metrics.lines_shed), 0);
    assert_eq!(get(&metrics.lines_quarantined), 0);
    service.close();
    let (rest, letters) = service.shutdown();
    assert!(rest.is_empty() && letters.is_empty());
}

#[test]
fn dropping_a_service_mid_chaos_does_not_deadlock() {
    let lines = corpus(60, 14);
    let plan = FaultPlan::new().crash_every(5).poison([7, 23]);
    let service = SupervisedParseService::spawn_with_injector(
        test_config(FaultToleranceConfig::default()),
        Some(plan.injector()),
    )
    .expect("valid config");

    for (i, line) in lines.iter().enumerate().take(40) {
        service.submit(i as u64, line.clone()).expect("open");
    }
    // Consume only a handful, then drop with queues non-empty and workers
    // crash-looping. The test completing *is* the assertion.
    for _ in 0..5 {
        service.recv();
    }
    drop(service);
}

// ----- flight-recorder dumps under chaos (observability PR) --------------

use monilog_core::stream::{TraceConfig, Tracer};
use std::path::{Path, PathBuf};

/// Minimal JSON well-formedness check (no JSON parser dependency in this
/// workspace): strings/escapes respected, brackets balanced, non-empty.
fn assert_well_formed_json(body: &str) {
    let mut stack = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in body.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => stack.push(c),
            '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced }} in {body}"),
            ']' => assert_eq!(stack.pop(), Some('['), "unbalanced ] in {body}"),
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in {body}");
    assert!(stack.is_empty(), "unbalanced brackets in {body}");
    assert!(body.trim_start().starts_with('{'), "not an object: {body}");
}

fn dump_files(dir: &Path, reason: &str) -> Vec<PathBuf> {
    let prefix = format!("monilog-flight-{reason}-");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn dump_dir_for(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monilog-chaos-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn crash_loop_degradation_dumps_the_flight_recorder() {
    let dir = dump_dir_for("degrade");
    let tracer = Tracer::shared(
        &TraceConfig {
            sample_rate: 1,
            ring_capacity: 256,
            dump_dir: Some(dir.clone()),
        },
        2,
    );
    let plan = FaultPlan::new().crash_every(1);
    let mut cfg = test_config(FaultToleranceConfig::default());
    cfg.n_shards = 1;
    cfg.capacity = 8;
    cfg.max_consecutive_crashes = 2;
    let service = SupervisedParseService::spawn_with_tracer(
        cfg,
        Some(plan.injector()),
        Some(std::sync::Arc::clone(&tracer)),
    )
    .expect("valid config");
    let lines = corpus(10, 31);
    let got = pump(&service, &lines);
    assert!(!got.is_empty(), "degraded shard keeps flowing");
    drop(service);

    // Two worker crashes dump "crash"; the degradation itself dumps once.
    let crash_dumps = dump_files(&dir, "crash");
    assert!(
        crash_dumps.len() >= 2,
        "each worker crash preserved the rings: {crash_dumps:?}"
    );
    let degrade_dumps = dump_files(&dir, "degrade");
    assert_eq!(
        degrade_dumps.len(),
        1,
        "exactly one degradation: {degrade_dumps:?}"
    );
    for path in crash_dumps.iter().chain(&degrade_dumps) {
        let body = std::fs::read_to_string(path).expect("dump readable");
        assert_well_formed_json(&body);
        assert!(body.contains("\"flight\":{"), "{body}");
        assert!(body.contains("\"spans\":["), "{body}");
    }
    let degrade_body = std::fs::read_to_string(&degrade_dumps[0]).unwrap();
    assert!(
        degrade_body.starts_with("{\"reason\":\"degrade\""),
        "{degrade_body}"
    );
    assert!(
        degrade_body.contains("\"stage\":\"degrade\""),
        "degradation mark recorded: {degrade_body}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_dumps_the_flight_recorder() {
    let dir = dump_dir_for("quarantine");
    let tracer = Tracer::shared(
        &TraceConfig {
            sample_rate: 1,
            ring_capacity: 256,
            dump_dir: Some(dir.clone()),
        },
        2,
    );
    let plan = FaultPlan::new().poison([3]);
    let service = SupervisedParseService::spawn_with_tracer(
        test_config(FaultToleranceConfig::default()),
        Some(plan.injector()),
        Some(std::sync::Arc::clone(&tracer)),
    )
    .expect("valid config");
    let lines = corpus(12, 32);
    let got = pump(&service, &lines);
    assert_eq!(got.len(), lines.len() - 1, "only the poison line is lost");
    let (_, letters) = service.shutdown();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].reason, FailureReason::Panic);

    let dumps = dump_files(&dir, "quarantine");
    assert_eq!(dumps.len(), 1, "one quarantine, one dump: {dumps:?}");
    let body = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    assert_well_formed_json(&body);
    assert!(body.starts_with("{\"reason\":\"quarantine\""), "{body}");
    // The quarantine mark carries the poisoned line's trace id (seq 3 → 4).
    assert!(body.contains("\"stage\":\"quarantine\""), "{body}");
    assert!(body.contains("\"trace_id\":4"), "{body}");
    // Sampled-at-1 traffic left parse spans in the rings too.
    assert!(body.contains("\"stage\":\"parse_exec\""), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}
