//! The `monilog` command-line interface.
//!
//! Five subcommands mirroring the deployment lifecycle:
//!
//! ```text
//! monilog parse     <logfile>                       # discover templates
//! monilog calibrate <logfile>                       # §IV auto-parametrization
//! monilog train     <logfile> --checkpoint <out>    # fit, write checkpoint
//! monilog monitor   <logfile> --checkpoint <in>     # restore, detect, report
//! monilog router    <logfile>... --state-dir <dir>  # feed a monitor fleet
//! ```
//!
//! Input is one log line per text line. `--format dash|syslog|bare`
//! selects the header layout (default `dash`, the Fig. 2 format). The
//! logic lives here (unit-testable); `src/bin/monilog.rs` is a thin shell.
//!
//! - `args`: the flag table ([`parse_args`]) and `--help` rendered from it;
//! - `runtime`: the durable monitor loop over a file or the network sources;
//! - `delivery`: the sink routes a durable monitor delivers to;
//! - `router`: the `router` command.
//!
//! Output is written to the caller's writer as it happens: a monitor that
//! is killed has still printed everything up to its last batch.

mod args;
mod delivery;
mod router;
mod runtime;

pub use args::{parse_args, usage, DurableOptions, SinkOptions};

use crate::{
    ClassifiedAnomaly, DetectorChoice, MoniLog, MoniLogConfig, ObservabilityConfig, WindowPolicy,
};
use monilog_detect::DeepLogConfig;
use monilog_model::{HeaderFormat, RawLog, SourceId};
use monilog_parse::autotune::{autotune_drain, TuneGrid};
use monilog_parse::{Drain, DrainConfig, OnlineParser};
use monilog_stream::{
    ConfigSnapshot, MetricsEndpoint, MetricsExporter, OpsState, PipelineMetrics, RouterConfig,
    SourcesConfig,
};
use std::io::Write;
use std::sync::Arc;

/// A parsed CLI invocation.
// One value of this exists per process; variant size imbalance is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliCommand {
    Parse {
        logfile: String,
        format: HeaderFormat,
    },
    Calibrate {
        logfile: String,
    },
    Train {
        logfile: String,
        checkpoint: String,
        format: HeaderFormat,
        observability: ObservabilityConfig,
        /// Write a Chrome trace-event JSON file of the recorded spans here
        /// after the run (`--trace-out`).
        trace_out: Option<String>,
    },
    Monitor {
        /// Input file; `None` when network sources are configured (the
        /// two exclude each other).
        logfile: Option<String>,
        checkpoint: String,
        format: HeaderFormat,
        /// The runtime settings (`--on-overload`, `--trace-sample-rate`,
        /// `--page-at`, `--route-critical`, `--batch-lines`,
        /// `--batch-deadline-ms`, `--sink-retry-max-ms`): version 0 of the
        /// monitor's reloadable config. The tracer samples at its
        /// `trace_sample_rate`, not at `observability`'s.
        settings: ConfigSnapshot,
        observability: ObservabilityConfig,
        /// Write a Chrome trace-event JSON file of the recorded spans here
        /// after the run (`--trace-out`).
        trace_out: Option<String>,
        /// Durable operation (`--state-dir` and friends); `None` runs the
        /// classic in-memory monitor.
        durable: Option<DurableOptions>,
        /// Network ingestion (`--listen-syslog-tcp` and friends, `--join`);
        /// `None` reads the logfile. Needs `durable`: network input is
        /// journaled before the pipeline acts on it, and tail cursors ride
        /// in the durable checkpoint.
        sources: Option<SourcesConfig>,
    },
    /// `monilog router`: partition input files across a fleet of monitor
    /// processes (`monilog monitor --join`) over the cluster wire
    /// protocol, with node-kill detection, replay and rebalancing.
    Router {
        /// Input files, one routed source per file
        /// (`ROUTER_SOURCE_BASE + index`), fed round-robin.
        logfiles: Vec<String>,
        /// Monitors to wait for before routing (`--expect-nodes`).
        expect_nodes: usize,
        /// Where `listen-addrs` is written; `config.buffer_dir` is its
        /// `router-buffers/`.
        state_dir: std::path::PathBuf,
        /// `--listen-cluster`, `--batch-lines`, `--heartbeat-ms`,
        /// `--dead-after-ms` and `--rebalance-grace-ms`.
        config: RouterConfig,
    },
    Help,
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(content
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

fn pipeline_config(format: HeaderFormat, observability: ObservabilityConfig) -> MoniLogConfig {
    MoniLogConfig {
        header_format: format,
        window: WindowPolicy::Session {
            idle_ms: 30_000,
            max_events: 128,
        },
        detector: DetectorChoice::DeepLog(DeepLogConfig {
            history: 8,
            top_g: 3,
            epochs: 3,
            ..DeepLogConfig::default()
        }),
        observability,
        ..MoniLogConfig::default()
    }
}

/// The metrics endpoint `--metrics-addr` asks for, if any.
fn metrics_endpoint(
    monilog: &MoniLog,
    observability: ObservabilityConfig,
    ops: Option<&OpsState>,
) -> Option<MetricsEndpoint> {
    Some(MetricsEndpoint {
        addr: observability.metrics_addr?,
        tracer: Some(monilog.tracer()),
        ops: ops.map(|o| Arc::new(o.clone())),
    })
}

/// Start the metrics endpoint when `--metrics-addr` was given. The
/// returned guard keeps the listener alive for the duration of the run;
/// it is dropped (and the listener joined) when the command finishes.
fn spawn_exporter(
    monilog: &MoniLog,
    observability: ObservabilityConfig,
    ops: Option<&OpsState>,
    out: &mut dyn Write,
) -> Result<Option<MetricsExporter>, String> {
    let Some(endpoint) = metrics_endpoint(monilog, observability, ops) else {
        return Ok(None);
    };
    let addr = endpoint.addr;
    let exporter = MetricsExporter::spawn(endpoint, monilog.registry())
        .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
    let _ = writeln!(out, "metrics: http://{}/metrics", exporter.local_addr());
    let _ = writeln!(out, "flight:  http://{}/flight", exporter.local_addr());
    if ops.is_some() {
        let _ = writeln!(out, "ops:     http://{}/status", exporter.local_addr());
    }
    Ok(Some(exporter))
}

/// Honour `--trace-out`: write everything still in the flight recorder as
/// Chrome trace-event JSON (open in `chrome://tracing` or Perfetto).
fn write_trace_out(
    tracer: &monilog_stream::Tracer,
    trace_out: Option<String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let Some(path) = trace_out else {
        return Ok(());
    };
    std::fs::write(&path, tracer.chrome_trace_json())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let _ = writeln!(out, "trace events: {path}");
    Ok(())
}

/// Write the block of each report as it surfaces; returns how many there
/// were. Only the count outlives the call, however long the run.
fn write_reports(out: &mut dyn Write, anomalies: &[ClassifiedAnomaly]) -> usize {
    for a in anomalies {
        let _ = writeln!(
            out,
            "[{}] {} anomaly (score {:.2}, {} events, pool {}, {})",
            a.report.id,
            a.report.kind,
            a.report.score,
            a.report.events.len(),
            a.assignment.pool,
            a.assignment.criticality,
        );
        if let Some((first, last)) = a.report.span() {
            let _ = writeln!(out, "      span {first} .. {last}");
        }
        if !a.report.provenance.trace_ids.is_empty() {
            let ids: Vec<String> = a
                .report
                .provenance
                .trace_ids
                .iter()
                .map(|t| t.0.to_string())
                .collect();
            let _ = writeln!(out, "      traces {}", ids.join(", "));
        }
    }
    anomalies.len()
}

/// Execute a command, writing the human-readable report to `out` as it
/// happens. Write errors are ignored: output never stops a monitor.
pub fn run(command: CliCommand, out: &mut dyn Write) -> Result<(), String> {
    match command {
        CliCommand::Help => {
            let _ = out.write_all(usage().as_bytes());
        }
        CliCommand::Parse { logfile, format } => {
            let lines = read_lines(&logfile)?;
            // Header-strip if requested; parsing operates on messages.
            let messages: Vec<String> = strip_headers(&lines, format);
            let mut parser = Drain::new(DrainConfig::default());
            let mut counts = std::collections::HashMap::new();
            for m in &messages {
                let o = parser.parse(m);
                *counts.entry(o.template).or_insert(0usize) += 1;
            }
            let _ = writeln!(
                out,
                "{} lines → {} templates:",
                messages.len(),
                parser.store().len()
            );
            let mut templates: Vec<_> = parser.store().iter().collect();
            templates.sort_by_key(|t| std::cmp::Reverse(counts.get(&t.id).copied().unwrap_or(0)));
            for t in templates {
                let _ = writeln!(out, "{:>8}  {}", counts.get(&t.id).copied().unwrap_or(0), t);
            }
        }
        CliCommand::Calibrate { logfile } => {
            let lines = read_lines(&logfile)?;
            if lines.is_empty() {
                return Err("logfile is empty".to_string());
            }
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            let result = autotune_drain(&refs, &TuneGrid::default(), 1_500);
            let c = result.best.config;
            let _ = writeln!(
                out,
                "calibrated on {} lines over {} grid points (label-free):",
                lines.len(),
                result.all.len()
            );
            let _ = writeln!(out, "  depth            = {}", c.depth);
            let _ = writeln!(out, "  sim_threshold    = {}", c.sim_threshold);
            let _ = writeln!(out, "  masking          = {:?}", c.mask);
            let _ = writeln!(
                out,
                "  quality estimate = {:.3}",
                result.best.report.quality
            );
        }
        CliCommand::Train {
            logfile,
            checkpoint,
            format,
            observability,
            trace_out,
        } => {
            let lines = read_lines(&logfile)?;
            let mut monilog = MoniLog::new(pipeline_config(format, observability));
            let _exporter = spawn_exporter(&monilog, observability, None, out)?;
            for (i, line) in lines.iter().enumerate() {
                monilog.ingest_training(&RawLog::new(SourceId(0), i as u64, line.clone()));
            }
            let unparsed = PipelineMetrics::get(&monilog.metrics().header_errors);
            if unparsed == lines.len() as u64 {
                return Err(format!(
                    "no line of {logfile} parsed as --format {} (0 of {}); check --format",
                    format.name(),
                    lines.len()
                ));
            }
            monilog.train();
            let blob = monilog.checkpoint()?;
            std::fs::write(&checkpoint, &blob)
                .map_err(|e| format!("cannot write {checkpoint}: {e}"))?;
            let _ = writeln!(
                out,
                "trained on {} lines ({} templates); checkpoint: {} ({} bytes)",
                lines.len(),
                monilog.templates().len(),
                checkpoint,
                blob.len()
            );
            write_trace_out(&monilog.tracer(), trace_out, out)?;
        }
        CliCommand::Monitor {
            logfile,
            checkpoint,
            format,
            settings,
            observability,
            trace_out,
            durable,
            sources,
        } => {
            let blob =
                std::fs::read(&checkpoint).map_err(|e| format!("cannot read {checkpoint}: {e}"))?;
            let observability = ObservabilityConfig {
                trace_sample_rate: settings.trace_sample_rate,
                ..observability
            };
            let config = pipeline_config(format, observability);
            let input = match &sources {
                Some(src) => runtime::MonitorInput::Network(src),
                None => runtime::MonitorInput::File(
                    logfile.as_deref().ok_or("monitor needs a <logfile>")?,
                ),
            };
            match (durable, input) {
                (Some(opts), input) => runtime::run_monitor_runtime(
                    config, &blob, input, &settings, &opts, trace_out, out,
                )?,
                (None, runtime::MonitorInput::Network(_)) => {
                    return Err("network sources require --state-dir".to_string())
                }
                (None, runtime::MonitorInput::File(logfile)) => {
                    let mut monilog = MoniLog::restore(config, &blob)
                        .map_err(|e| format!("invalid checkpoint: {e}"))?;
                    let _exporter = spawn_exporter(&monilog, observability, None, out)?;
                    let lines = read_lines(logfile)?;
                    let mut reports = 0;
                    // Live sequence numbers continue far past any training range.
                    for (i, line) in lines.iter().enumerate() {
                        let seq = 1_000_000_000 + i as u64;
                        let found = monilog.ingest(&RawLog::new(SourceId(0), seq, line.clone()));
                        reports += write_reports(out, &found);
                    }
                    reports += write_reports(out, &monilog.flush());
                    let _ = writeln!(out, "monitored {} lines: {reports} anomalies", lines.len());
                    write_trace_out(&monilog.tracer(), trace_out, out)?;
                }
            }
        }
        CliCommand::Router {
            logfiles,
            expect_nodes,
            state_dir,
            config,
        } => router::run_router(&logfiles, &state_dir, config, expect_nodes, out)?,
    }
    Ok(())
}

/// For `parse` (template discovery only): drop headers so templates are
/// message-level, tolerating lines that don't match the declared format.
fn strip_headers(lines: &[String], format: HeaderFormat) -> Vec<String> {
    use monilog_model::{parse_header, Timestamp};
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let raw = RawLog::new(SourceId(0), i as u64, line.clone());
            match parse_header(&raw, &format, Timestamp::EPOCH) {
                Ok(record) => record.message.into_string(),
                Err(_) => line.clone(),
            }
        })
        .collect()
}
#[cfg(test)]
mod tests {
    use super::args::{COMMANDS, FLAGS};
    use super::delivery::build_delivery;
    use super::runtime::{apply_settings, spawn_sources, tail_resumes};
    use super::*;
    use crate::durable::{DeliverySetup, DurableMoniLog, PersistedTailCursor};
    use crate::DurableConfig;
    use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
    use monilog_model::Criticality;
    use monilog_stream::{
        JournalConfig, OpsState, OverloadPolicy, ReloadableConfig, ReportStore, RouterLinkConfig,
        StatusBoard, DEFAULT_LATENCY_BUDGET_MS,
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `run`, with what it printed.
    fn run_out(command: CliCommand) -> Result<String, String> {
        let mut out = Vec::new();
        run(command, &mut out)?;
        Ok(String::from_utf8(out).expect("utf-8 output"))
    }

    fn write_workload(path: &std::path::Path, logs: &[GenLog]) {
        let text: Vec<String> = logs.iter().map(|l| l.record.to_line()).collect();
        std::fs::write(path, text.join("\n")).expect("temp file writable");
    }

    #[test]
    fn arg_parsing() {
        assert_eq!(
            parse_args(&args(&["parse", "app.log"])).unwrap(),
            CliCommand::Parse {
                logfile: "app.log".into(),
                format: HeaderFormat::DashSeparated
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "train",
                "app.log",
                "--checkpoint",
                "m.bin",
                "--format",
                "syslog"
            ]))
            .unwrap(),
            CliCommand::Train {
                logfile: "app.log".into(),
                checkpoint: "m.bin".into(),
                format: HeaderFormat::SyslogLike,
                observability: ObservabilityConfig::default(),
                trace_out: None,
            }
        );
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), CliCommand::Help);
        assert!(
            parse_args(&args(&["train", "x.log"])).is_err(),
            "missing --checkpoint"
        );
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["parse", "x", "--format", "exotic"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn cluster_flags_parse() {
        let parsed = parse_args(&args(&[
            "router",
            "a.log",
            "b.log",
            "--state-dir",
            "/tmp/r",
            "--listen-cluster",
            "127.0.0.1:0",
            "--expect-nodes",
            "2",
            "--dead-after-ms",
            "800",
            "--rebalance-grace-ms",
            "200",
            "--batch-lines",
            "16",
            "--heartbeat-ms",
            "100",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Router {
                logfiles,
                expect_nodes,
                state_dir,
                config,
            } => {
                assert_eq!(logfiles, vec!["a.log".to_string(), "b.log".to_string()]);
                assert_eq!(expect_nodes, 2);
                assert_eq!(state_dir, std::path::Path::new("/tmp/r"));
                assert_eq!(config.listen, "127.0.0.1:0".parse().unwrap());
                assert_eq!(config.buffer_dir, state_dir.join("router-buffers"));
                assert_eq!(config.batch_lines, 16);
                assert_eq!(config.heartbeat_ms, 100);
                assert_eq!(config.dead_after_ms, 800);
                assert_eq!(config.rebalance_grace_ms, 200);
            }
            other => panic!("unexpected {other:?}"),
        }
        let parsed = parse_args(&args(&[
            "monitor",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "d",
            "--join",
            "127.0.0.1:9100",
            "--node-id",
            "mon-a",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor {
                sources: Some(s), ..
            } => {
                let link = RouterLinkConfig::new("127.0.0.1:9100".parse().unwrap(), "mon-a".into());
                assert_eq!(s.router, Some(link));
                assert!(super::args::router_only(&s));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Pairing and placement rules.
        assert!(
            parse_args(&args(&[
                "monitor",
                "--checkpoint",
                "m",
                "--state-dir",
                "d",
                "--join",
                "127.0.0.1:9"
            ]))
            .is_err(),
            "--join without --node-id"
        );
        assert!(
            parse_args(&args(&["router", "a.log"])).is_err(),
            "router without --state-dir"
        );
        assert!(
            parse_args(&args(&["router", "--state-dir", "d"])).is_err(),
            "router without inputs"
        );
        assert!(
            parse_args(&args(&[
                "monitor",
                "x.log",
                "--checkpoint",
                "m",
                "--expect-nodes",
                "2"
            ]))
            .is_err(),
            "--expect-nodes outside router"
        );
        assert!(
            parse_args(&args(&[
                "train",
                "x.log",
                "--checkpoint",
                "m",
                "--join",
                "127.0.0.1:9",
                "--node-id",
                "a"
            ]))
            .is_err(),
            "--join outside monitor"
        );
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let parsed = parse_args(&args(&[
            "monitor",
            "app.log",
            "--checkpoint",
            "m.bin",
            "--on-overload",
            "shed",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor { settings, .. } => {
                assert_eq!(settings.on_overload, OverloadPolicy::ShedToCatchAll);
            }
            other => panic!("expected Monitor, got {other:?}"),
        }
        assert!(parse_args(&args(&["parse", "x", "--on-overload", "explode"])).is_err());
        let err = parse_args(&args(&[
            "monitor",
            "x",
            "--checkpoint",
            "m",
            "--max-retries",
            "5",
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown flag --max-retries");
        // Heartbeats are the router's; a monitor has no shard workers.
        let err = parse_args(&args(&[
            "monitor",
            "x",
            "--checkpoint",
            "m",
            "--heartbeat-ms",
            "50",
        ]))
        .unwrap_err();
        let dead_after = parse_args(&args(&[
            "monitor",
            "x",
            "--checkpoint",
            "m",
            "--dead-after-ms",
            "50",
        ]))
        .unwrap_err();
        assert!(dead_after.contains("--dead-after-ms"), "{dead_after}");
        assert!(err.contains("--heartbeat-ms"), "{err}");
        assert!(parse_args(&args(&["router", "x", "--heartbeat-ms", "0"])).is_err());
        assert!(
            parse_args(&args(&[
                "train",
                "x",
                "--checkpoint",
                "m",
                "--on-overload",
                "shed"
            ]))
            .is_err(),
            "--on-overload outside monitor"
        );
    }

    /// A valid value (plus any companion flag) for each flag.
    fn value_args(flag: &str) -> &'static [&'static str] {
        match flag {
            "--format" => &["dash"],
            "--on-overload" => &["shed"],
            "--batch-lines" | "--expect-nodes" => &["2"],
            "--metrics-addr"
            | "--listen-syslog-tcp"
            | "--listen-syslog-udp"
            | "--listen-http"
            | "--listen-cluster" => &["127.0.0.1:0"],
            "--join" => &["127.0.0.1:9", "--node-id", "n"],
            "--node-id" => &["n", "--join", "127.0.0.1:9"],
            "--sink-http" => &["http://127.0.0.1:9/hook"],
            "--sink-tcp" => &["127.0.0.1:9"],
            "--route-critical" => &["file"],
            "--page-at" => &["low"],
            "--journal-segment-bytes" | "--sink-buffer-bytes" => &["65536"],
            "--checkpoint" | "--state-dir" | "--trace-out" | "--config-file" | "--tail" => &["p"],
            _ => &["50"],
        }
    }

    /// The smallest valid invocation of `command` that gives `flag`.
    fn invocation<'a>(command: &'a str, flag: &'a str) -> Vec<&'a str> {
        let mut argv = match command {
            "train" => vec!["train", "x.log", "--checkpoint", "m"],
            "monitor" => vec!["monitor", "x.log", "--checkpoint", "m", "--state-dir", "d"],
            "router" => vec!["router", "x.log", "--state-dir", "d"],
            other => vec![other, "x.log"],
        };
        let network_input = matches!(
            flag,
            "--listen-syslog-tcp"
                | "--listen-syslog-udp"
                | "--listen-http"
                | "--tail"
                | "--join"
                | "--node-id"
        );
        if command == "monitor" && network_input {
            argv.remove(1); // network sources replace the logfile
        }
        argv.push(flag);
        argv.extend(value_args(flag));
        argv
    }

    /// `--help` is rendered from [`FLAGS`]: one row per flag, ending with
    /// the commands of its scope and carrying the `--state-dir` note
    /// exactly when the flag needs one; and every flag parses for each
    /// command of its scope.
    #[test]
    fn help_lists_every_flag_once_under_its_scope() {
        let help = usage();
        let lines: Vec<&str> = help.lines().collect();
        let rows = lines.iter().filter(|l| l.starts_with("  --")).count();
        assert_eq!(rows, FLAGS.len(), "{help}");
        for flag in FLAGS {
            let head = format!("  {} ", flag.name);
            let opens: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with(&head))
                .collect();
            assert_eq!(opens.len(), 1, "{} opens {opens:?}", flag.name);
            // A row runs on through the lines indented to the help column.
            let rest = lines[opens[0] + 1..].iter();
            let wrapped = rest.take_while(|l| l.starts_with("   "));
            let row = std::iter::once(&lines[opens[0]])
                .chain(wrapped)
                .map(|l| l.trim())
                .collect::<Vec<_>>()
                .join(" ");
            let (_, tag) = row.rsplit_once('[').expect("scope tag");
            let tag = tag.strip_suffix(']').expect("row ends with its tag");
            let (commands, note) = match tag.split_once("; ") {
                Some((commands, note)) => (commands, Some(note)),
                None => (tag, None),
            };
            let commands: Vec<&str> = commands.split(", ").collect();
            assert_eq!(commands, flag.scope.commands, "{row}");
            let state_dir_note = note.map(|n| n == "requires --state-dir");
            assert_eq!(
                state_dir_note.is_some(),
                flag.scope.needs_state_dir,
                "{row}"
            );
            assert_ne!(state_dir_note, Some(false), "{row}");
            for &command in flag.scope.commands {
                let argv = invocation(command, flag.name);
                let parsed = parse_args(&args(&argv));
                assert!(parsed.is_ok(), "{argv:?}: {parsed:?}");
            }
        }
    }

    /// A command rejects, by name, every flag it would ignore (e.g.
    /// `calibrate --trace-out`, `router --metrics-addr`).
    #[test]
    fn every_flag_outside_its_scope_is_rejected_by_name() {
        let mut rejected = 0;
        for flag in FLAGS {
            for command in COMMANDS {
                if flag.scope.commands.contains(&command) {
                    continue;
                }
                let argv = invocation(command, flag.name);
                let err = parse_args(&args(&argv)).unwrap_err();
                assert!(err.contains(flag.name), "{argv:?}: {err}");
                rejected += 1;
            }
        }
        assert!(rejected > 80, "only {rejected} out-of-scope pairs");
    }

    #[test]
    fn observability_flags_parse() {
        let parsed = parse_args(&args(&[
            "train",
            "app.log",
            "--checkpoint",
            "m.bin",
            "--metrics-addr",
            "127.0.0.1:9187",
            "--trace-sample-rate",
            "64",
            "--flight-capacity",
            "512",
            "--trace-out",
            "trace.json",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Train {
                observability,
                trace_out,
                ..
            } => {
                assert_eq!(
                    observability.metrics_addr,
                    Some("127.0.0.1:9187".parse().unwrap())
                );
                assert_eq!(observability.trace_sample_rate, 64);
                assert_eq!(observability.flight_capacity, 512);
                assert_eq!(trace_out.as_deref(), Some("trace.json"));
            }
            other => panic!("expected Train, got {other:?}"),
        }
        // Defaults: disabled endpoint, 1/1024 sampling.
        let parsed = parse_args(&args(&["monitor", "a.log", "--checkpoint", "m.bin"])).unwrap();
        match parsed {
            CliCommand::Monitor {
                observability,
                trace_out,
                ..
            } => {
                assert_eq!(observability, ObservabilityConfig::default());
                assert_eq!(observability.metrics_addr, None);
                assert_eq!(observability.trace_sample_rate, 1_024);
                assert_eq!(trace_out, None);
            }
            other => panic!("expected Monitor, got {other:?}"),
        }
        assert!(parse_args(&args(&["parse", "x", "--metrics-addr", "not-an-addr"])).is_err());
        let err = parse_args(&args(&["train", "x", "--metrics-interval-ms", "10"])).unwrap_err();
        assert_eq!(err, "unknown flag --metrics-interval-ms");
        assert!(parse_args(&args(&["parse", "x", "--trace-sample-rate", "lots"])).is_err());
        assert!(parse_args(&args(&["parse", "x", "--flight-capacity", "0"])).is_err());
    }

    #[test]
    fn source_flags_parse() {
        // Full set, no logfile: sources replace it.
        let parsed = parse_args(&args(&[
            "monitor",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "/tmp/state",
            "--listen-syslog-tcp",
            "127.0.0.1:5514",
            "--listen-syslog-udp",
            "127.0.0.1:5515",
            "--listen-http",
            "127.0.0.1:8080",
            "--tail",
            "/var/log/a.log",
            "--tail",
            "/var/log/b.log",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor {
                logfile,
                sources,
                durable,
                ..
            } => {
                assert_eq!(logfile, None);
                assert!(durable.is_some());
                let src = sources.expect("sources parsed");
                assert_eq!(src.syslog_tcp, Some("127.0.0.1:5514".parse().unwrap()));
                assert_eq!(src.syslog_udp, Some("127.0.0.1:5515".parse().unwrap()));
                assert_eq!(src.http, Some("127.0.0.1:8080".parse().unwrap()));
                let tails: Vec<&std::path::Path> =
                    src.tail_globs.iter().map(|g| g.pattern.as_path()).collect();
                assert_eq!(
                    tails,
                    ["/var/log/a.log", "/var/log/b.log"].map(std::path::Path::new)
                );
            }
            other => panic!("expected Monitor, got {other:?}"),
        }

        // A logfile does not ride along with sources: it would be ignored.
        let err = parse_args(&args(&[
            "monitor",
            "replay.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "/tmp/state",
            "--listen-http",
            "127.0.0.1:8080",
        ]))
        .unwrap_err();
        assert!(err.contains("--tail replay.log"), "{err}");

        // Sources require --state-dir (WAL + cursor persistence).
        let err = parse_args(&args(&[
            "monitor",
            "--checkpoint",
            "m.bin",
            "--listen-syslog-tcp",
            "127.0.0.1:5514",
        ]))
        .unwrap_err();
        assert!(err.contains("--state-dir"), "{err}");

        // Sources are monitor-only.
        let err = parse_args(&args(&[
            "train",
            "x.log",
            "--checkpoint",
            "m.bin",
            "--listen-http",
            "127.0.0.1:8080",
        ]))
        .unwrap_err();
        assert!(err.contains("monitor"), "{err}");

        // No logfile and no sources is still an error.
        let err = parse_args(&args(&["monitor", "--checkpoint", "m.bin"])).unwrap_err();
        assert!(err.contains("logfile"), "{err}");

        // Bad addresses are rejected at parse time.
        assert!(parse_args(&args(&[
            "monitor",
            "--checkpoint",
            "m",
            "--listen-http",
            "nope"
        ]))
        .is_err());
    }

    #[test]
    fn monitor_writes_chrome_trace_out() {
        let dir = std::env::temp_dir().join("monilog_cli_traceout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let train_file = dir.join("train.log");
        let live_file = dir.join("live.log");
        let ckpt = dir.join("model.mlcp");
        let trace_path = dir.join("trace.json");
        let training = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 40,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 21,
            ..Default::default()
        })
        .generate();
        write_workload(&train_file, &training);
        let live = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 10,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 22,
            start_ms: 1_600_003_600_000,
        })
        .generate();
        write_workload(&live_file, &live);

        run_out(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");

        // Sample every line so the short live stream records spans.
        let report = run_out(CliCommand::Monitor {
            logfile: Some(live_file.to_string_lossy().into_owned()),
            sources: None,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            settings: ConfigSnapshot {
                trace_sample_rate: 1,
                ..ConfigSnapshot::default()
            },
            observability: ObservabilityConfig::default(),
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            durable: None,
        })
        .expect("monitoring succeeds");
        assert!(report.contains("trace events:"), "{report}");
        let body = std::fs::read_to_string(&trace_path).expect("trace file written");
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        assert!(body.contains("\"name\":\"parse_exec\""), "{body}");
    }

    #[test]
    fn train_with_metrics_endpoint_serves_prometheus() {
        use std::io::{Read as _, Write as _};
        let dir = std::env::temp_dir().join("monilog_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let train_file = dir.join("train.log");
        let ckpt = dir.join("model.mlcp");
        let logs = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 20,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 11,
            ..Default::default()
        })
        .generate();
        write_workload(&train_file, &logs);

        // The exporter lives only for the run, so bind a listener up
        // front to learn a free port, then release it for the run.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        // Keep the exporter alive past run() by scraping from a thread
        // racing the (short) run; instead exercise the run-scoped path:
        // the report advertises the endpoint, and a scrape during the
        // run sees monilog_ metrics. Simplest deterministic form: run
        // in a thread, scrape from here with retries.
        let train_path = train_file.to_string_lossy().into_owned();
        let ckpt_path = ckpt.to_string_lossy().into_owned();
        let runner = std::thread::spawn(move || {
            run_out(CliCommand::Train {
                logfile: train_path,
                checkpoint: ckpt_path,
                format: HeaderFormat::DashSeparated,
                observability: ObservabilityConfig {
                    metrics_addr: Some(addr),
                    ..ObservabilityConfig::default()
                },
                trace_out: None,
            })
        });
        // Scrape while training runs; tolerate races where the run (and
        // the endpoint with it) finishes before we connect.
        let mut scraped = None;
        for _ in 0..200 {
            if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
                let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                let mut body = String::new();
                if stream.read_to_string(&mut body).is_ok() && body.contains("monilog_") {
                    scraped = Some(body);
                    break;
                }
            }
            if runner.is_finished() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let report = runner.join().expect("run thread").expect("train succeeds");
        assert!(report.contains("metrics: http://"), "{report}");
        assert!(report.contains("trained on"), "{report}");
        if let Some(body) = scraped {
            assert!(body.contains("monilog_lines_ingested_total"), "{body}");
            assert!(
                body.contains("monilog_stage_latency_seconds_bucket"),
                "{body}"
            );
        }
    }

    #[test]
    fn batch_flags_seed_the_boot_config_snapshot() {
        let settings = |extra: &[&str]| -> ConfigSnapshot {
            let mut argv = vec!["monitor", "--checkpoint", "m", "--state-dir", "d"];
            argv.extend(["--listen-syslog-tcp", "127.0.0.1:0"]);
            argv.extend(extra);
            match parse_args(&args(&argv)).unwrap() {
                CliCommand::Monitor { settings, .. } => settings,
                other => panic!("expected a Monitor, got {other:?}"),
            }
        };
        let snap = settings(&["--batch-lines", "128", "--batch-deadline-ms", "20"]);
        assert_eq!(snap.version, 0);
        assert_eq!((snap.batch_lines, snap.batch_deadline_ms), (128, 20));
        let snap = settings(&[]);
        assert_eq!((snap.batch_lines, snap.batch_deadline_ms), (512, 50));
        assert_eq!(snap, ConfigSnapshot::default());
        // Without a state directory there is no monitor loop to shape.
        assert!(parse_args(&args(&[
            "monitor",
            "x",
            "--checkpoint",
            "m",
            "--batch-lines",
            "8"
        ]))
        .is_err());
    }

    #[test]
    fn parse_command_discovers_templates() {
        let dir = std::env::temp_dir().join("monilog_cli_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let logfile = dir.join("app.log");
        let logs = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 30,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 5,
            ..Default::default()
        })
        .generate();
        write_workload(&logfile, &logs);

        let report = run_out(CliCommand::Parse {
            logfile: logfile.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
        })
        .expect("parse succeeds");
        assert!(report.contains("7 templates"), "{report}");
        assert!(report.contains("Receiving block <*>"), "{report}");
    }

    #[test]
    fn train_then_monitor_round_trip() {
        let dir = std::env::temp_dir().join("monilog_cli_train_test");
        std::fs::create_dir_all(&dir).unwrap();
        let train_file = dir.join("train.log");
        let live_file = dir.join("live.log");
        let ckpt = dir.join("model.mlcp");

        let training = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 120,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 6,
            ..Default::default()
        })
        .generate();
        write_workload(&train_file, &training);
        let live = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 40,
            sequential_anomaly_rate: 0.15,
            quantitative_anomaly_rate: 0.0,
            seed: 7,
            start_ms: 1_600_003_600_000,
        })
        .generate();
        write_workload(&live_file, &live);

        let report = run_out(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");
        assert!(report.contains("trained on"), "{report}");
        assert!(ckpt.exists());

        let report = run_out(CliCommand::Monitor {
            logfile: Some(live_file.to_string_lossy().into_owned()),
            sources: None,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            settings: ConfigSnapshot::default(),
            observability: ObservabilityConfig::default(),
            trace_out: None,
            durable: None,
        })
        .expect("monitoring succeeds");
        assert!(report.contains("anomalies"), "{report}");
        assert!(
            report.contains("sequential anomaly"),
            "anomalies found: {report}"
        );
    }

    #[test]
    fn calibrate_reports_parameters() {
        let dir = std::env::temp_dir().join("monilog_cli_cal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let logfile = dir.join("cal.log");
        let logs = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 40,
            ..Default::default()
        })
        .generate();
        // Calibration runs on raw messages.
        let text: Vec<String> = logs.iter().map(|l| l.record.message.to_string()).collect();
        std::fs::write(&logfile, text.join("\n")).unwrap();
        let report = run_out(CliCommand::Calibrate {
            logfile: logfile.to_string_lossy().into_owned(),
        })
        .expect("calibration succeeds");
        assert!(report.contains("depth"), "{report}");
        assert!(report.contains("sim_threshold"), "{report}");
    }

    #[test]
    fn missing_files_report_cleanly() {
        let err = run_out(CliCommand::Parse {
            logfile: "/definitely/not/here.log".into(),
            format: HeaderFormat::DashSeparated,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let err = run_out(CliCommand::Monitor {
            logfile: Some("/x.log".into()),
            sources: None,
            checkpoint: "/definitely/not/here.mlcp".into(),
            format: HeaderFormat::DashSeparated,
            settings: ConfigSnapshot::default(),
            observability: ObservabilityConfig::default(),
            trace_out: None,
            durable: None,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn durability_flags_parse() {
        let parsed = parse_args(&args(&[
            "monitor",
            "app.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "/var/lib/monilog",
            "--checkpoint-interval-ms",
            "2500",
            "--journal-fsync-ms",
            "0",
            "--journal-segment-bytes",
            "65536",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor { durable, .. } => {
                assert_eq!(
                    durable,
                    Some(DurableOptions {
                        config: DurableConfig {
                            state_dir: "/var/lib/monilog".into(),
                            checkpoint_interval_ms: 2500,
                            journal: JournalConfig {
                                fsync_interval_ms: 0,
                                segment_bytes: 65536,
                            },
                        },
                        sinks: None,
                        config_file: None,
                        latency_budget_ms: DEFAULT_LATENCY_BUDGET_MS,
                    })
                );
            }
            other => panic!("expected Monitor, got {other:?}"),
        }
        // Defaults when only --state-dir is given.
        let parsed = parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "s",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor { durable, .. } => {
                let opts = durable.unwrap();
                assert_eq!(opts.config, DurableConfig::new("s"));
                assert_eq!(opts.config.checkpoint_interval_ms, 5_000);
                assert_eq!(opts.config.journal, JournalConfig::default());
            }
            other => panic!("expected Monitor, got {other:?}"),
        }
        // Tuning without a state dir, or a state dir on another command,
        // is a configuration mistake — fail loudly.
        assert!(parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--journal-fsync-ms",
            "10"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "train",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "s"
        ]))
        .is_err());
        assert!(parse_args(&args(&["parse", "x", "--checkpoint-interval-ms", "0"])).is_err());
        assert!(parse_args(&args(&["parse", "x", "--journal-segment-bytes", "10"])).is_err());
    }

    #[test]
    fn ops_flags_parse() {
        let parsed = parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "s",
            "--config-file",
            "/etc/monilog/runtime.conf",
            "--latency-budget-ms",
            "100",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor { durable, .. } => {
                let opts = durable.unwrap();
                assert_eq!(
                    opts.config_file.as_deref(),
                    Some("/etc/monilog/runtime.conf")
                );
                assert_eq!(opts.latency_budget_ms, 100);
            }
            other => panic!("expected Monitor, got {other:?}"),
        }
        // Defaults: no config file, the stock latency budget.
        match parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "s",
        ]))
        .unwrap()
        {
            CliCommand::Monitor { durable, .. } => {
                let opts = durable.unwrap();
                assert_eq!(opts.config_file, None);
                assert_eq!(opts.latency_budget_ms, DEFAULT_LATENCY_BUDGET_MS);
            }
            other => panic!("expected Monitor, got {other:?}"),
        }
        // Ops flags without the durable substrate are a mistake.
        assert!(parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--config-file",
            "c.conf"
        ]))
        .unwrap_err()
        .contains("--state-dir"));
        assert!(parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "s",
            "--latency-budget-ms",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn sink_flags_parse() {
        let parsed = parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "/var/lib/monilog",
            "--sink-http",
            "http://alerts:9000/hooks",
            "--sink-tcp",
            "collector:7600",
            "--sink-retry-max-ms",
            "2000",
            "--sink-buffer-bytes",
            "1048576",
            "--route-critical",
            "tcp",
            "--page-at",
            "low",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor {
                durable, settings, ..
            } => {
                let sinks = durable.unwrap().sinks.unwrap();
                assert_eq!(sinks.http.as_deref(), Some("http://alerts:9000/hooks"));
                assert_eq!(sinks.tcp.as_deref(), Some("collector:7600"));
                assert_eq!(sinks.delivery.buffer_spill_bytes, 1_048_576);
                assert_eq!(settings.sink_retry_max_ms, 2000);
                assert_eq!(settings.route_critical.as_deref(), Some("tcp"));
                assert_eq!(settings.page_at, Criticality::Low);
            }
            other => panic!("expected Monitor, got {other:?}"),
        }

        // Sink flags are meaningless without the durable substrate.
        assert!(parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--sink-tcp",
            "collector:7600"
        ]))
        .unwrap_err()
        .contains("--state-dir"));
        // Routing critical reports to an unconfigured sink is an error.
        assert!(parse_args(&args(&[
            "monitor",
            "a.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "s",
            "--route-critical",
            "http"
        ]))
        .unwrap_err()
        .contains("--sink-http"));
        // Value validation.
        assert!(parse_args(&args(&[
            "monitor",
            "a",
            "--checkpoint",
            "m",
            "--state-dir",
            "s",
            "--sink-http",
            "ftp://x"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "monitor",
            "a",
            "--checkpoint",
            "m",
            "--state-dir",
            "s",
            "--sink-tcp",
            "noport"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "monitor",
            "a",
            "--checkpoint",
            "m",
            "--state-dir",
            "s",
            "--sink-retry-max-ms",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "monitor",
            "a",
            "--checkpoint",
            "m",
            "--state-dir",
            "s",
            "--sink-buffer-bytes",
            "16"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "monitor",
            "a",
            "--checkpoint",
            "m",
            "--state-dir",
            "s",
            "--route-critical",
            "carrier-pigeon"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "monitor",
            "a",
            "--checkpoint",
            "m",
            "--state-dir",
            "s",
            "--page-at",
            "volcanic"
        ]))
        .is_err());
    }

    #[test]
    fn durable_monitor_completes_and_restarts_with_zero_replay() {
        let dir = std::env::temp_dir().join("monilog_cli_durable_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let train_file = dir.join("train.log");
        let live_file = dir.join("live.log");
        let ckpt = dir.join("model.mlcp");
        let state_dir = dir.join("state");

        let training = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 120,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 6,
            ..Default::default()
        })
        .generate();
        write_workload(&train_file, &training);
        let live = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 40,
            sequential_anomaly_rate: 0.15,
            quantitative_anomaly_rate: 0.0,
            seed: 7,
            start_ms: 1_600_003_600_000,
        })
        .generate();
        write_workload(&live_file, &live);

        run_out(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");

        let monitor = || CliCommand::Monitor {
            logfile: Some(live_file.to_string_lossy().into_owned()),
            sources: None,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            settings: ConfigSnapshot::default(),
            observability: ObservabilityConfig::default(),
            trace_out: None,
            durable: Some(DurableOptions {
                config: DurableConfig {
                    journal: JournalConfig {
                        fsync_interval_ms: 0,
                        ..JournalConfig::default()
                    },
                    ..DurableConfig::new(&state_dir)
                },
                ..DurableOptions::new(&state_dir)
            }),
        };

        let report = run_out(monitor()).expect("first durable run succeeds");
        assert!(
            report.contains("recovery: fresh state directory"),
            "{report}"
        );
        assert!(report.contains("sequential anomaly"), "{report}");
        let sink = state_dir.join(crate::durable::ANOMALIES_FILE);
        let first_sink = std::fs::read_to_string(&sink).expect("anomaly sink written");
        assert!(!first_sink.is_empty());

        // Same input, same state dir: everything is already journaled and
        // checkpointed, so the rerun replays nothing, skips every line,
        // and emits no report twice.
        let report = run_out(monitor()).expect("second durable run succeeds");
        assert!(report.contains("replayed 0 journal lines"), "{report}");
        assert!(report.contains("skipping"), "{report}");
        assert!(
            report.contains("monitored 0 lines: 0 anomalies"),
            "{report}"
        );
        let second_sink = std::fs::read_to_string(&sink).unwrap();
        assert_eq!(first_sink, second_sink, "rerun must not duplicate reports");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn train_on_a_file_no_line_of_which_parses_is_an_error() {
        let dir = std::env::temp_dir().join("monilog_cli_unparsable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let logfile = dir.join("bad.log");
        std::fs::write(&logfile, "hello world\nno header here\n").unwrap();
        let err = run_out(CliCommand::Train {
            logfile: logfile.to_string_lossy().into_owned(),
            checkpoint: dir.join("m.mlcp").to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .unwrap_err();
        assert!(err.contains("parsed as --format dash (0 of 2)"), "{err}");
        assert!(!dir.join("m.mlcp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// File and network inputs run one runtime, so a network run reports
    /// the same recovery and delivery facts as a file run.
    #[test]
    fn network_input_reports_checkpoint_fallback_and_delivery() {
        let dir = std::env::temp_dir().join("monilog_cli_fallback_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (train_file, live_file) = (dir.join("train.log"), dir.join("live.log"));
        let ckpt = dir.join("model.mlcp");
        let state_dir = dir.join("state");
        let workload = |n_sessions, seed| {
            HdfsWorkload::new(HdfsWorkloadConfig {
                n_sessions,
                sequential_anomaly_rate: 0.0,
                quantitative_anomaly_rate: 0.0,
                seed,
                ..Default::default()
            })
            .generate()
        };
        write_workload(&train_file, &workload(40, 31));
        write_workload(&live_file, &workload(10, 32));
        run_out(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");
        let monitor = |logfile: Option<&std::path::Path>, sources| CliCommand::Monitor {
            logfile: logfile.map(|p| p.to_string_lossy().into_owned()),
            sources,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderFormat::DashSeparated,
            settings: ConfigSnapshot::default(),
            observability: ObservabilityConfig::default(),
            trace_out: None,
            durable: Some(DurableOptions {
                sinks: Some(SinkOptions::default()),
                ..DurableOptions::new(&state_dir)
            }),
        };
        // Two file runs leave checkpoint generations 1 and 2.
        for _ in 0..2 {
            let report = run_out(monitor(Some(&live_file), None)).expect("file run succeeds");
            assert!(report.contains("delivery: "), "{report}");
        }
        let newest = state_dir
            .join(crate::durable::CHECKPOINTS_DIR)
            .join(format!("checkpoint-{:020}.ckpt", 2));
        let mut bytes = std::fs::read(&newest).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0xff;
        std::fs::write(&newest, bytes).unwrap();

        std::env::set_var("MONILOG_IDLE_EXIT_MS", "200");
        let sources = SourcesConfig {
            syslog_tcp: Some("127.0.0.1:0".parse().unwrap()),
            ..SourcesConfig::default()
        };
        let report = run_out(monitor(None, Some(sources))).expect("network run succeeds");
        assert!(
            report.contains(
                "recovery: resumed checkpoint generation 1 \
                 (newest generation was corrupt; fell back one)"
            ),
            "{report}"
        );
        assert!(
            report.contains("delivery: 0 accepted, 0 delivered, 0 retries, 0 spilled locally"),
            "{report}"
        );
        assert!(
            report.contains("monitored 0 lines from network sources"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_lists_the_reloadable_keys_under_config_file() {
        let usage = usage();
        let (_, list) = usage.split_once("reloadable keys").unwrap();
        let (_, list) = list.split_once("only:").unwrap();
        let (list, _) = list.split_once(')').unwrap();
        let keys: Vec<&str> = list.split(',').map(str::trim).collect();
        assert_eq!(keys, monilog_stream::RELOADABLE_KEYS);
    }

    /// The boot settings and sink options of a durable monitor invocation.
    fn monitor_settings(extra: &[&str]) -> (ConfigSnapshot, SinkOptions) {
        let mut argv = vec!["monitor", "x.log", "--checkpoint", "m", "--state-dir", "d"];
        argv.extend(extra);
        match parse_args(&args(&argv)).unwrap() {
            CliCommand::Monitor {
                settings, durable, ..
            } => (settings, durable.unwrap().sinks.unwrap_or_default()),
            other => panic!("expected a Monitor, got {other:?}"),
        }
    }

    /// A durable pipeline over a fresh state directory.
    fn open_durable(
        state_dir: &std::path::Path,
        delivery: Option<DeliverySetup>,
    ) -> DurableMoniLog {
        let _ = std::fs::remove_dir_all(state_dir);
        let config = pipeline_config(HeaderFormat::DashSeparated, ObservabilityConfig::default());
        let fresh = || Ok(MoniLog::new(config));
        DurableMoniLog::open(config, DurableConfig::new(state_dir), fresh, delivery)
            .expect("open durable pipeline")
            .0
    }

    /// Booted with `block` and reloaded to `dead-letter`, the sources
    /// write every line they dead-letter to the sources DLQ.
    #[test]
    fn a_reload_to_dead_letter_writes_the_sources_dlq() {
        use std::fmt::Write as _;
        let state_dir = std::env::temp_dir().join("monilog_cli_dlq_reload_test");
        let mut durable = open_durable(&state_dir, None);
        let (settings, sinks) = monitor_settings(&[]);
        let metrics = durable.pipeline().metrics();
        let reload = ReloadableConfig::shared(settings, sinks.names(), None, metrics.clone());
        let ops = OpsState::new(ReportStore::shared(8), StatusBoard::shared(250), reload);
        let src = SourcesConfig {
            syslog_tcp: Some("127.0.0.1:0".parse().unwrap()),
            ..SourcesConfig::default()
        };
        let config = pipeline_config(HeaderFormat::DashSeparated, ObservabilityConfig::default());
        let (server, _queue, _) =
            spawn_sources(&src, &config, &durable, &ops, &state_dir, &mut Vec::new()).unwrap();
        let update = [("on-overload".to_string(), "dead-letter".to_string())];
        let snap = ops.reload.apply_pairs(&update, "test").unwrap();
        apply_settings(&snap, ops.reload.sinks(), &mut durable, Some(&server));

        // Nobody drains the queue: the lines past its capacity overflow.
        let mut text = String::new();
        for i in 0..10_000 {
            let _ = writeln!(text, "<14>1 2020-09-13T14:26:40Z h app - - - line {i}");
        }
        let mut conn = std::net::TcpStream::connect(server.syslog_tcp_addr().unwrap()).unwrap();
        conn.write_all(text.as_bytes()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let dead_lettered = || PipelineMetrics::get(&metrics.sources_dead_lettered);
        while dead_lettered() < 1_000 {
            assert!(std::time::Instant::now() < deadline, "nothing overflowed");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        drop(conn);
        drop(server);
        let dlq = std::fs::read_to_string(state_dir.join("sources_dead_letter.jsonl"));
        let written = dlq.unwrap_or_default().lines().count() as u64;
        assert_eq!(written, dead_lettered(), "every dead-lettered line is kept");
        std::fs::remove_dir_all(&state_dir).unwrap();
    }

    /// Booted with `--sink-http … --route-critical file`, a reload to
    /// `route-critical=none` pages the default sink: the webhook.
    #[test]
    fn a_reload_to_route_critical_none_pages_the_default_sink() {
        use monilog_model::DeliveryClass;
        use monilog_stream::BufferedReport;
        let state_dir = std::env::temp_dir().join("monilog_cli_page_route_test");
        let (settings, sinks) = monitor_settings(&[
            "--sink-http",
            "http://127.0.0.1:9/hook",
            "--route-critical",
            "file",
        ]);
        let setup = build_delivery(&sinks, &settings, &state_dir).unwrap();
        let mut durable = open_durable(&state_dir, Some(setup));
        let reload =
            ReloadableConfig::shared(settings, sinks.names(), None, durable.pipeline().metrics());
        let update = [("route-critical".to_string(), "none".to_string())];
        let snap = reload.apply_pairs(&update, "test").unwrap();
        apply_settings(&snap, reload.sinks(), &mut durable, None);
        assert!(reload.to_json().contains("\"route-critical\":null"));

        let buffer = |route: &str| {
            let path = state_dir
                .join(crate::durable::DELIVERY_DIR)
                .join(format!("{route}.buf"));
            std::fs::metadata(path).map_or(0, |m| m.len())
        };
        let (webhook, file) = (buffer("webhook"), buffer("file"));
        let page = BufferedReport {
            id: 1,
            class: DeliveryClass::Page,
            body: "{\"id\":1}".into(),
        };
        durable.delivery().unwrap().accept(vec![page]).unwrap();
        assert!(buffer("webhook") > webhook, "the page went to the webhook");
        assert_eq!(buffer("file"), file);
        drop(durable);
        std::fs::remove_dir_all(&state_dir).unwrap();
    }

    /// Cursors of an earlier build resume path-keyed, a bare `app.log`
    /// included: its stored path has parent `""`, the tail's is `.`.
    #[test]
    fn tail_patterns_resume_their_files_by_path() {
        let cursor = |index, path: &str| PersistedTailCursor {
            index,
            inode: 7,
            offset: 40,
            last_seq: 3,
            path: path.into(),
        };
        let recovered = [
            cursor(0, "app.log"),
            cursor(1, "logs/b.log"),
            cursor(2, "./c.log"),
        ];
        let resumes = |pattern: &str| -> Vec<(usize, String, u64)> {
            tail_resumes(pattern.as_ref(), &recovered, |slot| 5 + slot as u64)
                .into_iter()
                .map(|k| (k.slot, k.path.display().to_string(), k.skip_lines))
                .collect()
        };
        assert_eq!(resumes("app.log"), [(0, "./app.log".to_string(), 2)]);
        assert_eq!(resumes("./app.log"), [(0, "./app.log".to_string(), 2)]);
        assert_eq!(resumes("logs/b.log"), [(1, "logs/b.log".to_string(), 3)]);
        assert_eq!(resumes("c.log"), [(2, "./c.log".to_string(), 4)]);
        let slots: Vec<usize> = resumes("*.log").iter().map(|k| k.0).collect();
        assert_eq!(slots, [0, 2]);
        assert!(resumes("logs/a.log").is_empty());
    }
}
