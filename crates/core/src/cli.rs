//! The `monilog` command-line interface.
//!
//! Four subcommands mirroring the deployment lifecycle:
//!
//! ```text
//! monilog parse     <logfile>                       # discover templates
//! monilog calibrate <logfile>                       # §IV auto-parametrization
//! monilog train     <logfile> --checkpoint <out>    # fit, write checkpoint
//! monilog monitor   <logfile> --checkpoint <in>     # restore, detect, report
//! ```
//!
//! Input is one log line per text line. `--format dash|syslog|bare`
//! selects the header layout (default `dash`, the Fig. 2 format). The
//! logic lives here (unit-testable); `src/bin/monilog.rs` is a thin shell.

use crate::durable::{DeliverySetup, DurableConfig, DurableMoniLog};
use crate::{
    ClassifiedAnomaly, DetectorChoice, FaultToleranceConfig, MoniLog, MoniLogConfig,
    ObservabilityConfig, WindowPolicy,
};
use monilog_detect::DeepLogConfig;
use monilog_model::{Criticality, RawLog, SourceId};
use monilog_parse::autotune::{autotune_drain, TuneGrid};
use monilog_parse::{Drain, DrainConfig, OnlineParser};
use monilog_stream::{
    BreakerState, ConfigSnapshot, JournalConfig, MetricsExporter, OpsState, OverloadPolicy,
    PipelineMetrics, ReloadableConfig, ReportStore, StatusBoard, StatusInputs,
    DEFAULT_LATENCY_BUDGET_MS, DEFAULT_REPORT_CAPACITY,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed CLI invocation.
// One value of this exists per process; variant size imbalance is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliCommand {
    Parse {
        logfile: String,
        format: HeaderChoice,
    },
    Calibrate {
        logfile: String,
    },
    Train {
        logfile: String,
        checkpoint: String,
        format: HeaderChoice,
        observability: ObservabilityConfig,
        /// Write a Chrome trace-event JSON file of the recorded spans here
        /// after the run (`--trace-out`).
        trace_out: Option<String>,
    },
    Monitor {
        /// Input file; optional when network sources are configured.
        logfile: Option<String>,
        checkpoint: String,
        format: HeaderChoice,
        fault: FaultToleranceConfig,
        observability: ObservabilityConfig,
        /// Write a Chrome trace-event JSON file of the recorded spans here
        /// after the run (`--trace-out`).
        trace_out: Option<String>,
        /// Durable operation (`--state-dir` and friends); `None` runs the
        /// classic in-memory monitor.
        durable: Option<DurableOptions>,
        /// Network ingestion (`--listen-syslog-tcp` and friends); `None`
        /// reads the logfile.
        sources: Option<SourcesOptions>,
    },
    /// `monilog router`: partition input files across a fleet of monitor
    /// processes (`monilog monitor --join`) over the cluster wire
    /// protocol, with node-kill detection, replay and rebalancing.
    Router {
        /// Input files, one routed source per file
        /// (`ROUTER_SOURCE_BASE + index`), fed round-robin.
        logfiles: Vec<String>,
        /// Cluster listen address (`--listen-cluster`; port 0 picks a
        /// free port, written to `<state-dir>/listen-addrs`).
        listen: std::net::SocketAddr,
        /// Monitors to wait for before routing (`--expect-nodes`).
        expect_nodes: usize,
        /// Root for the per-source retention buffers and `listen-addrs`.
        state_dir: String,
        /// Lines per sealed batch (`--batch-lines`).
        batch_lines: usize,
        /// Heartbeat cadence (`--heartbeat-ms`).
        heartbeat_ms: u64,
        /// Silence after which a node is declared dead
        /// (`--dead-after-ms`).
        dead_after_ms: u64,
        /// Base grace before a dead node's sources move
        /// (`--rebalance-grace-ms`); doubles per attempt, with jitter.
        rebalance_grace_ms: u64,
    },
    Help,
}

/// Network-source flags (`--listen-syslog-tcp`, `--listen-syslog-udp`,
/// `--listen-http`, `--tail`). All of them require `--state-dir`: network
/// input is journaled to the WAL before the pipeline acts on it, and the
/// file-tail cursors ride in the durable checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourcesOptions {
    /// TCP syslog listener (RFC 3164/5424 under RFC 6587 framing).
    pub syslog_tcp: Option<std::net::SocketAddr>,
    /// UDP syslog listener (one message per datagram).
    pub syslog_udp: Option<std::net::SocketAddr>,
    /// HTTP bulk-ingest listener (`POST /ingest`, newline-delimited body).
    pub http: Option<std::net::SocketAddr>,
    /// Files to tail (repeatable `--tail`); cursors persist across restarts.
    pub tails: Vec<String>,
    /// Cluster router to join (`--join host:port`); router-assigned
    /// sources then flow through the same journaled ingest queue as the
    /// local listeners.
    pub join: Option<std::net::SocketAddr>,
    /// Stable node name for `--join` (`--node-id`). The router keys acked
    /// high-water marks and source assignments by it, so it must survive
    /// restarts — reuse the same name to rejoin with zero duplicate lines.
    pub node_id: Option<String>,
}

impl SourcesOptions {
    fn any(&self) -> bool {
        self.syslog_tcp.is_some()
            || self.syslog_udp.is_some()
            || self.http.is_some()
            || !self.tails.is_empty()
            || self.join.is_some()
    }

    /// A fleet member with no local listeners: its only input is the
    /// router link, so a router `Fin` ends the run.
    fn router_only(&self) -> bool {
        self.join.is_some()
            && self.syslog_tcp.is_none()
            && self.syslog_udp.is_none()
            && self.http.is_none()
            && self.tails.is_empty()
    }
}

/// Durability flags (`--state-dir`, `--checkpoint-interval-ms`,
/// `--journal-fsync-ms`, `--journal-segment-bytes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// Root of the WAL + checkpoint + anomaly-sink layout.
    pub state_dir: String,
    /// Full-state checkpoint cadence, in milliseconds.
    pub checkpoint_interval_ms: u64,
    /// WAL group-commit interval, in milliseconds (0 = every line).
    pub journal_fsync_ms: u64,
    /// WAL segment rotation threshold, in bytes.
    pub journal_segment_bytes: u64,
    /// Outbound anomaly delivery (`--sink-http` / `--sink-tcp` and
    /// friends); `None` keeps reports local to `anomalies.jsonl`.
    pub sinks: Option<SinkOptions>,
    /// Runtime config file re-read on SIGHUP (`--config-file`); only the
    /// reloadable keys are accepted.
    pub config_file: Option<String>,
    /// Per-stage p99 budget that flips `/status` to degraded, in
    /// milliseconds (`--latency-budget-ms`).
    pub latency_budget_ms: u64,
    /// `--batch-lines`: the boot `batch-lines` of the network monitor loop
    /// (and the router's lines per wire batch); `None` keeps the default.
    pub batch_lines: Option<usize>,
    /// `--batch-deadline-ms`: the boot `batch-deadline-ms` of the network
    /// monitor loop; `None` keeps the default.
    pub batch_deadline_ms: Option<u64>,
}

/// Outbound delivery flags (`--sink-http`, `--sink-tcp`,
/// `--sink-retry-max-ms`, `--sink-buffer-bytes`, `--route-critical`).
/// All of them require `--state-dir`: delivery is disk-buffered and its
/// cursors live in the durable checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkOptions {
    /// Webhook endpoint for page-level reports (`http://host:port/path`).
    pub http: Option<String>,
    /// Length-framed TCP endpoint (`host:port`).
    pub tcp: Option<String>,
    /// Cap on the exponential retry backoff, in milliseconds.
    pub retry_max_ms: u64,
    /// Per-route delivery buffer cap before oldest reports spill locally.
    pub buffer_bytes: u64,
    /// Which sink receives page-level (critical) reports: `http`, `tcp`
    /// or `file`. Defaults to the most interactive sink configured.
    pub route_critical: Option<String>,
    /// Criticality at or above which a report is page-level (`low`,
    /// `moderate`, `high`). Defaults to `high`. `low` pages on everything
    /// — the right setting while the criticality head is still untrained,
    /// since a cold classifier rates every anomaly `low` and would
    /// otherwise starve the network sinks.
    pub page_at: Criticality,
}

impl Default for SinkOptions {
    fn default() -> SinkOptions {
        SinkOptions {
            http: None,
            tcp: None,
            retry_max_ms: 5_000,
            buffer_bytes: 64 * 1024 * 1024,
            route_critical: None,
            page_at: Criticality::High,
        }
    }
}

impl DurableOptions {
    fn to_config(&self) -> DurableConfig {
        DurableConfig {
            state_dir: self.state_dir.clone().into(),
            checkpoint_interval_ms: self.checkpoint_interval_ms,
            journal: JournalConfig {
                fsync_interval_ms: self.journal_fsync_ms,
                segment_bytes: self.journal_segment_bytes,
            },
        }
    }
}

/// CLI-level header format flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeaderChoice {
    #[default]
    Dash,
    Syslog,
    Bare,
}

impl HeaderChoice {
    fn to_config(self) -> crate::HeaderFormatChoice {
        match self {
            HeaderChoice::Dash => crate::HeaderFormatChoice::DashSeparated,
            HeaderChoice::Syslog => crate::HeaderFormatChoice::SyslogLike,
            HeaderChoice::Bare => crate::HeaderFormatChoice::Bare,
        }
    }
}

pub const USAGE: &str = "\
monilog — automated log-based anomaly detection (MoniLog, ICDE 2021)

USAGE:
    monilog parse     <logfile> [--format dash|syslog|bare]
    monilog calibrate <logfile>
    monilog train     <logfile> --checkpoint <out> [--format ...] [observability opts]
    monilog monitor   <logfile> --checkpoint <in>  [--format ...] [monitor opts]
    monilog router    <logfile>... --state-dir <dir> [router opts]

  parse      discover and print the log templates of <logfile>
  calibrate  auto-parametrize the parser on <logfile> (no labels needed)
  train      fit the anomaly detector on <logfile> (assumed normal) and
             write a restartable checkpoint
  monitor    restore a checkpoint and report anomalies found in <logfile>
  router     partition log sources across a fleet of monitors
             (`monitor --join`), with node-kill recovery and replay

overload and batching options (monitor network sources, see below):
  --on-overload block|shed|dead-letter   what a network source does when
                                         the ingest queue is full (default
                                         block; no effect on file input)
  --batch-lines <n>                      most lines the monitor loop takes
                                         from the ingest queue per batch
                                         (default 512; requires --state-dir)
  --batch-deadline-ms <n>                how long the monitor loop waits for
                                         a batch to fill (default 50;
                                         requires --state-dir)

observability options (train / monitor):
  --metrics-addr <host:port>             serve Prometheus + JSON metrics,
                                         /trace/{id} and /flight over HTTP
                                         while the run lasts
  --metrics-interval-ms <n>              snapshot refresh interval
                                         (default 1000)
  --trace-sample-rate <n>                trace 1 line in n end-to-end
                                         (default 1024; 0 disables)
  --flight-capacity <n>                  span slots in the flight-recorder
                                         ring (default 4096)
  --trace-out <path>                     write recorded spans as Chrome
                                         trace-event JSON after the run

durability options (monitor):
  --state-dir <dir>                      journal input to a WAL and
                                         checkpoint full pipeline state so
                                         a restart (even after SIGKILL)
                                         resumes exactly where it left off;
                                         SIGTERM/ctrl-c drain gracefully
  --checkpoint-interval-ms <n>           full-state checkpoint cadence
                                         (default 5000)
  --journal-fsync-ms <n>                 WAL group-commit interval
                                         (default 50; 0 fsyncs every line)
  --journal-segment-bytes <n>            WAL segment rotation threshold
                                         (default 8388608)

ops surface (monitor, requires --state-dir; rides the --metrics-addr
listener — GET /status, /readyz, /reports, /reports/{id} and GET|POST
/config serve live health, recent anomalies and hot config):
  --config-file <path>                   runtime config re-read on SIGHUP
                                         (key=value lines, reloadable keys
                                         only: on-overload,
                                         trace-sample-rate, page-at,
                                         route-critical, batch-lines,
                                         batch-deadline-ms,
                                         sink-retry-max-ms); applied once
                                         at startup when present
  --latency-budget-ms <n>                per-stage p99 budget that flips
                                         /status to degraded (default 250)

delivery options (monitor, require --state-dir):
  --sink-http <url>                      POST anomaly reports (ndjson) to
                                         this webhook; healthchecked via
                                         GET /healthz
  --sink-tcp <host:port>                 stream reports over length-framed
                                         TCP with per-report acks
  --sink-retry-max-ms <n>                cap on the exponential retry
                                         backoff (default 5000)
  --sink-buffer-bytes <n>                per-route delivery buffer cap
                                         before the oldest reports spill
                                         to a local file (default 67108864)
  --route-critical http|tcp|file         which sink receives page-level
                                         reports (default: http if given,
                                         else tcp, else file)
  --page-at low|moderate|high            criticality at or above which a
                                         report is page-level (default
                                         high; use low while the
                                         criticality head is untrained)

network sources (monitor, require --state-dir; <logfile> then optional):
  --listen-syslog-tcp <host:port>        accept RFC 3164/5424 syslog over
                                         TCP (LF or RFC 6587 octet-counted
                                         framing, auto-detected); port 0
                                         picks a free port, bound addrs are
                                         written to <state-dir>/listen-addrs
  --listen-syslog-udp <host:port>        accept syslog datagrams over UDP
  --listen-http <host:port>              accept newline-delimited log
                                         batches via POST /ingest (413 on
                                         oversized bodies, 429 under
                                         overload)
  --tail <path>                          follow a live log file; repeatable;
                                         resume cursors ride the durable
                                         checkpoint so restarts never
                                         re-ingest; a basename glob
                                         ('dir/app-*.log', quote it) also
                                         discovers matching files created
                                         while the monitor runs
  Backpressure at the source boundary follows --on-overload: block pauses
  TCP reads and tails (HTTP answers 429, UDP drops), shed drops and counts,
  dead-letter diverts raw lines to <state-dir>/sources_dead_letter.jsonl.
  A second SIGTERM/SIGINT during the graceful drain forces an immediate
  exit (status 130); the WAL replays the difference on the next start.

distributed fleet:
  monitor --join <host:port>             join a router: router-assigned
                                         sources flow through the same WAL
                                         as local listeners; exactly-once
                                         end-to-end via per-source seq
                                         dedup across restarts
  monitor --node-id <name>               stable node name (required with
                                         --join); reuse it to rejoin with
                                         zero duplicate lines
  router --listen-cluster <host:port>    cluster listen address (default
                                         127.0.0.1:0; the bound addr is
                                         written to <state-dir>/listen-addrs)
  router --expect-nodes <n>              monitors to wait for before
                                         routing starts (default 1)
  router --dead-after-ms <n>             heartbeat silence after which a
                                         node is declared dead and its
                                         sources rebalance (default 1500)
  router --rebalance-grace-ms <n>        base grace before a dead node's
                                         sources move; doubles per attempt
                                         with jitter (default 500)
  router --batch-lines <n>               lines per wire batch (default 64)
  router --heartbeat-ms <n>              heartbeat cadence (default 250)
  A killed monitor's unacked batches replay to the surviving owner; a
  restarted monitor rejoins by name and receives a warm template snapshot.
  Template stores reconcile fleet-wide through the router (Logan-style
  merge).
";

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliCommand, String> {
    let mut positional = Vec::new();
    let mut checkpoint: Option<String> = None;
    let mut format = HeaderChoice::default();
    let mut fault = FaultToleranceConfig::default();
    let mut observability = ObservabilityConfig::default();
    let mut trace_out: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut checkpoint_interval_ms = 5_000u64;
    let mut journal_fsync_ms = JournalConfig::default().fsync_interval_ms;
    let mut journal_segment_bytes = JournalConfig::default().segment_bytes;
    let mut durable_tuning_given = false;
    let mut sinks = SinkOptions::default();
    let mut sinks_given = false;
    let mut sources = SourcesOptions::default();
    let mut listen_cluster: Option<std::net::SocketAddr> = None;
    let mut expect_nodes = 1usize;
    let mut dead_after_ms = 1_500u64;
    let mut rebalance_grace_ms = 500u64;
    let mut heartbeat_ms = 250u64;
    let mut router_flag_given = false;
    let mut monitor_flag_given = false;
    let mut batch_lines: Option<usize> = None;
    let mut batch_deadline_ms: Option<u64> = None;
    let mut config_file: Option<String> = None;
    let mut latency_budget_ms = DEFAULT_LATENCY_BUDGET_MS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint" => {
                i += 1;
                checkpoint = Some(args.get(i).ok_or("--checkpoint needs a path")?.clone());
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("dash") => HeaderChoice::Dash,
                    Some("syslog") => HeaderChoice::Syslog,
                    Some("bare") => HeaderChoice::Bare,
                    other => return Err(format!("unknown --format {other:?}")),
                };
            }
            "--on-overload" => {
                i += 1;
                let value = args.get(i).ok_or("--on-overload needs a policy")?;
                fault.on_overload = OverloadPolicy::parse(value)?;
                monitor_flag_given = true;
            }
            "--batch-lines" => {
                i += 1;
                let value = args.get(i).ok_or("--batch-lines needs a count")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --batch-lines {value:?}"))?;
                if n == 0 {
                    return Err("--batch-lines must be at least 1".to_string());
                }
                batch_lines = Some(n);
                durable_tuning_given = true;
            }
            "--batch-deadline-ms" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or("--batch-deadline-ms needs milliseconds")?;
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --batch-deadline-ms {value:?}"))?;
                batch_deadline_ms = Some(ms);
                durable_tuning_given = true;
                monitor_flag_given = true;
            }
            "--heartbeat-ms" => {
                i += 1;
                let value = args.get(i).ok_or("--heartbeat-ms needs milliseconds")?;
                heartbeat_ms = value
                    .parse()
                    .map_err(|_| format!("invalid --heartbeat-ms {value:?}"))?;
                if heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be at least 1".to_string());
                }
                router_flag_given = true;
            }
            "--metrics-addr" => {
                i += 1;
                let value = args.get(i).ok_or("--metrics-addr needs host:port")?;
                let addr = value
                    .parse()
                    .map_err(|_| format!("invalid --metrics-addr {value:?}"))?;
                observability.metrics_addr = Some(addr);
            }
            "--metrics-interval-ms" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or("--metrics-interval-ms needs milliseconds")?;
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --metrics-interval-ms {value:?}"))?;
                if ms == 0 {
                    return Err("--metrics-interval-ms must be at least 1".to_string());
                }
                observability.metrics_interval_ms = ms;
            }
            "--trace-sample-rate" => {
                i += 1;
                let value = args.get(i).ok_or("--trace-sample-rate needs a rate")?;
                observability.trace_sample_rate = value
                    .parse()
                    .map_err(|_| format!("invalid --trace-sample-rate {value:?}"))?;
            }
            "--flight-capacity" => {
                i += 1;
                let value = args.get(i).ok_or("--flight-capacity needs a count")?;
                let capacity: u32 = value
                    .parse()
                    .map_err(|_| format!("invalid --flight-capacity {value:?}"))?;
                if capacity == 0 {
                    return Err("--flight-capacity must be at least 1".to_string());
                }
                observability.flight_capacity = capacity;
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).ok_or("--trace-out needs a path")?.clone());
            }
            "--state-dir" => {
                i += 1;
                state_dir = Some(args.get(i).ok_or("--state-dir needs a directory")?.clone());
            }
            "--checkpoint-interval-ms" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or("--checkpoint-interval-ms needs milliseconds")?;
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --checkpoint-interval-ms {value:?}"))?;
                if ms == 0 {
                    return Err("--checkpoint-interval-ms must be at least 1".to_string());
                }
                checkpoint_interval_ms = ms;
                durable_tuning_given = true;
            }
            "--journal-fsync-ms" => {
                i += 1;
                let value = args.get(i).ok_or("--journal-fsync-ms needs milliseconds")?;
                journal_fsync_ms = value
                    .parse()
                    .map_err(|_| format!("invalid --journal-fsync-ms {value:?}"))?;
                durable_tuning_given = true;
            }
            "--journal-segment-bytes" => {
                i += 1;
                let value = args.get(i).ok_or("--journal-segment-bytes needs a size")?;
                let bytes: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --journal-segment-bytes {value:?}"))?;
                if bytes < 1_024 {
                    return Err("--journal-segment-bytes must be at least 1024".to_string());
                }
                journal_segment_bytes = bytes;
                durable_tuning_given = true;
            }
            "--sink-http" => {
                i += 1;
                let value = args.get(i).ok_or("--sink-http needs a url")?;
                if !value.starts_with("http://") {
                    return Err(format!(
                        "invalid --sink-http {value:?}: only http:// urls are supported"
                    ));
                }
                sinks.http = Some(value.clone());
                sinks_given = true;
            }
            "--sink-tcp" => {
                i += 1;
                let value = args.get(i).ok_or("--sink-tcp needs host:port")?;
                if !value.contains(':') {
                    return Err(format!("invalid --sink-tcp {value:?}: expected host:port"));
                }
                sinks.tcp = Some(value.clone());
                sinks_given = true;
            }
            "--sink-retry-max-ms" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or("--sink-retry-max-ms needs milliseconds")?;
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --sink-retry-max-ms {value:?}"))?;
                if ms == 0 {
                    return Err("--sink-retry-max-ms must be at least 1".to_string());
                }
                sinks.retry_max_ms = ms;
                sinks_given = true;
            }
            "--sink-buffer-bytes" => {
                i += 1;
                let value = args.get(i).ok_or("--sink-buffer-bytes needs a size")?;
                let bytes: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --sink-buffer-bytes {value:?}"))?;
                if bytes < 4_096 {
                    return Err("--sink-buffer-bytes must be at least 4096".to_string());
                }
                sinks.buffer_bytes = bytes;
                sinks_given = true;
            }
            "--route-critical" => {
                i += 1;
                let value = args.get(i).ok_or("--route-critical needs http|tcp|file")?;
                if !matches!(value.as_str(), "http" | "tcp" | "file") {
                    return Err(format!(
                        "invalid --route-critical {value:?}: expected http, tcp or file"
                    ));
                }
                sinks.route_critical = Some(value.clone());
                sinks_given = true;
            }
            "--page-at" => {
                i += 1;
                let value = args.get(i).ok_or("--page-at needs low|moderate|high")?;
                sinks.page_at = match value.as_str() {
                    "low" => Criticality::Low,
                    "moderate" => Criticality::Moderate,
                    "high" => Criticality::High,
                    _ => {
                        return Err(format!(
                            "invalid --page-at {value:?}: expected low, moderate or high"
                        ))
                    }
                };
                sinks_given = true;
            }
            "--config-file" => {
                i += 1;
                config_file = Some(args.get(i).ok_or("--config-file needs a path")?.clone());
                durable_tuning_given = true;
            }
            "--latency-budget-ms" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or("--latency-budget-ms needs milliseconds")?;
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --latency-budget-ms {value:?}"))?;
                if ms == 0 {
                    return Err("--latency-budget-ms must be at least 1".to_string());
                }
                latency_budget_ms = ms;
                durable_tuning_given = true;
            }
            "--listen-syslog-tcp" => {
                i += 1;
                let value = args.get(i).ok_or("--listen-syslog-tcp needs host:port")?;
                sources.syslog_tcp = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --listen-syslog-tcp {value:?}"))?,
                );
            }
            "--listen-syslog-udp" => {
                i += 1;
                let value = args.get(i).ok_or("--listen-syslog-udp needs host:port")?;
                sources.syslog_udp = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --listen-syslog-udp {value:?}"))?,
                );
            }
            "--listen-http" => {
                i += 1;
                let value = args.get(i).ok_or("--listen-http needs host:port")?;
                sources.http = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --listen-http {value:?}"))?,
                );
            }
            "--tail" => {
                i += 1;
                let value = args.get(i).ok_or("--tail needs a path")?;
                sources.tails.push(value.clone());
            }
            "--join" => {
                i += 1;
                let value = args.get(i).ok_or("--join needs host:port")?;
                sources.join = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --join {value:?}"))?,
                );
            }
            "--node-id" => {
                i += 1;
                let value = args.get(i).ok_or("--node-id needs a name")?;
                if value.is_empty() || value.len() > 64 {
                    return Err("--node-id must be 1..=64 characters".to_string());
                }
                sources.node_id = Some(value.clone());
            }
            "--listen-cluster" => {
                i += 1;
                let value = args.get(i).ok_or("--listen-cluster needs host:port")?;
                listen_cluster = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --listen-cluster {value:?}"))?,
                );
                router_flag_given = true;
            }
            "--expect-nodes" => {
                i += 1;
                let value = args.get(i).ok_or("--expect-nodes needs a count")?;
                expect_nodes = value
                    .parse()
                    .map_err(|_| format!("invalid --expect-nodes {value:?}"))?;
                if expect_nodes == 0 {
                    return Err("--expect-nodes must be at least 1".to_string());
                }
                router_flag_given = true;
            }
            "--dead-after-ms" => {
                i += 1;
                let value = args.get(i).ok_or("--dead-after-ms needs milliseconds")?;
                dead_after_ms = value
                    .parse()
                    .map_err(|_| format!("invalid --dead-after-ms {value:?}"))?;
                if dead_after_ms == 0 {
                    return Err("--dead-after-ms must be at least 1".to_string());
                }
                router_flag_given = true;
            }
            "--rebalance-grace-ms" => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or("--rebalance-grace-ms needs milliseconds")?;
                rebalance_grace_ms = value
                    .parse()
                    .map_err(|_| format!("invalid --rebalance-grace-ms {value:?}"))?;
                if rebalance_grace_ms == 0 {
                    return Err("--rebalance-grace-ms must be at least 1".to_string());
                }
                router_flag_given = true;
            }
            "--help" | "-h" => return Ok(CliCommand::Help),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional_arg => positional.push(positional_arg.to_string()),
        }
        i += 1;
    }
    if sinks_given {
        // Delivery is disk-buffered under the state directory and its
        // cursors ride in the durable checkpoint — meaningless without it.
        if state_dir.is_none() {
            return Err(
                "--sink-http / --sink-tcp / --sink-retry-max-ms / --sink-buffer-bytes / \
                 --route-critical / --page-at require --state-dir"
                    .to_string(),
            );
        }
        if let Some(target) = &sinks.route_critical {
            let available = match target.as_str() {
                "http" => sinks.http.is_some(),
                "tcp" => sinks.tcp.is_some(),
                _ => true, // the file sink always exists
            };
            if !available {
                return Err(format!(
                    "--route-critical {target} requires --sink-{target}"
                ));
            }
        }
    }
    let durable = match state_dir {
        Some(dir) => Some(DurableOptions {
            state_dir: dir,
            checkpoint_interval_ms,
            journal_fsync_ms,
            journal_segment_bytes,
            sinks: sinks_given.then_some(sinks),
            config_file,
            latency_budget_ms,
            batch_lines,
            batch_deadline_ms,
        }),
        None if durable_tuning_given => {
            return Err(
                "--checkpoint-interval-ms / --journal-fsync-ms / --journal-segment-bytes / \
                 --config-file / --latency-budget-ms / --batch-lines / --batch-deadline-ms \
                 require --state-dir"
                    .to_string(),
            );
        }
        None => None,
    };
    if sources.join.is_some() != sources.node_id.is_some() {
        // The node name keys the router's acked high-water marks; a
        // default would silently collide across fleet members.
        return Err("--join and --node-id must be given together".to_string());
    }
    let mut positional = positional.into_iter();
    let command = positional.next().ok_or(USAGE.to_string())?;
    if durable.is_some() && command != "monitor" && command != "router" {
        return Err("--state-dir is only supported by the monitor and router commands".to_string());
    }
    if router_flag_given && command != "router" {
        return Err(
            "--listen-cluster / --expect-nodes / --heartbeat-ms / --dead-after-ms / \
             --rebalance-grace-ms are only supported by the router command"
                .to_string(),
        );
    }
    if monitor_flag_given && command != "monitor" {
        return Err(
            "--on-overload / --batch-deadline-ms are only supported by the monitor command"
                .to_string(),
        );
    }
    if sources.any() {
        if command != "monitor" {
            return Err(
                "--listen-syslog-tcp / --listen-syslog-udp / --listen-http / --tail / --join \
                 are only supported by the monitor command"
                    .to_string(),
            );
        }
        // Network input is journaled before the pipeline acts on it, and
        // tail cursors live in the durable checkpoint — meaningless
        // without a state directory.
        if durable.is_none() {
            return Err(
                "--listen-syslog-tcp / --listen-syslog-udp / --listen-http / --tail / --join \
                 require --state-dir"
                    .to_string(),
            );
        }
    }
    match command.as_str() {
        "parse" => Ok(CliCommand::Parse {
            logfile: positional.next().ok_or("parse needs a <logfile>")?,
            format,
        }),
        "calibrate" => Ok(CliCommand::Calibrate {
            logfile: positional.next().ok_or("calibrate needs a <logfile>")?,
        }),
        "train" => Ok(CliCommand::Train {
            logfile: positional.next().ok_or("train needs a <logfile>")?,
            checkpoint: checkpoint.ok_or("train needs --checkpoint <out>")?,
            format,
            observability,
            trace_out,
        }),
        "monitor" => {
            let logfile = positional.next();
            if logfile.is_none() && !sources.any() {
                return Err("monitor needs a <logfile> (or network sources: \
                     --listen-syslog-tcp / --listen-syslog-udp / --listen-http / --tail)"
                    .to_string());
            }
            Ok(CliCommand::Monitor {
                logfile,
                checkpoint: checkpoint.ok_or("monitor needs --checkpoint <in>")?,
                format,
                fault,
                observability,
                trace_out,
                durable,
                sources: sources.any().then_some(sources),
            })
        }
        "router" => {
            let logfiles: Vec<String> = positional.collect();
            if logfiles.is_empty() {
                return Err("router needs one or more <logfile> inputs".to_string());
            }
            let opts = durable.ok_or("router needs --state-dir for its retention buffers")?;
            Ok(CliCommand::Router {
                logfiles,
                listen: listen_cluster
                    .unwrap_or_else(|| "127.0.0.1:0".parse().expect("static addr")),
                expect_nodes,
                state_dir: opts.state_dir,
                batch_lines: opts.batch_lines.unwrap_or(64),
                heartbeat_ms,
                dead_after_ms,
                rebalance_grace_ms,
            })
        }
        "help" => Ok(CliCommand::Help),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(content
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

fn pipeline_config(format: HeaderChoice, fault: FaultToleranceConfig) -> MoniLogConfig {
    MoniLogConfig {
        header_format: format.to_config(),
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
        fault_tolerance: fault,
        ..MoniLogConfig::default()
    }
}

/// Start the metrics endpoint when `--metrics-addr` was given. The
/// returned guard keeps the listener alive for the duration of the run;
/// it is dropped (and the listener joined) when the command finishes.
fn spawn_exporter(
    monilog: &MoniLog,
    observability: ObservabilityConfig,
    ops: Option<&OpsState>,
    out: &mut String,
) -> Result<Option<MetricsExporter>, String> {
    let Some(addr) = observability.metrics_addr else {
        return Ok(None);
    };
    let exporter = MetricsExporter::spawn_with_ops(
        addr,
        monilog.registry(),
        std::time::Duration::from_millis(observability.metrics_interval_ms),
        Some(monilog.tracer()),
        ops.map(|o| Arc::new(o.clone())),
    )
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
    monilog: &MoniLog,
    trace_out: Option<String>,
    out: &mut String,
) -> Result<(), String> {
    let Some(path) = trace_out else {
        return Ok(());
    };
    std::fs::write(&path, monilog.tracer().chrome_trace_json())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let _ = writeln!(out, "trace events: {path}");
    Ok(())
}

/// Execute a command, returning the human-readable report it prints.
pub fn run(command: CliCommand) -> Result<String, String> {
    let mut out = String::new();
    match command {
        CliCommand::Help => out.push_str(USAGE),
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
            let mut config = pipeline_config(format, FaultToleranceConfig::default());
            config.observability = observability;
            let mut monilog = MoniLog::new(config);
            let _exporter = spawn_exporter(&monilog, observability, None, &mut out)?;
            for (i, line) in lines.iter().enumerate() {
                monilog.ingest_training(&RawLog::new(SourceId(0), i as u64, line.clone()));
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
            write_trace_out(&monilog, trace_out, &mut out)?;
        }
        CliCommand::Monitor {
            logfile,
            checkpoint,
            format,
            fault,
            observability,
            trace_out,
            durable,
            sources,
        } => {
            let blob =
                std::fs::read(&checkpoint).map_err(|e| format!("cannot read {checkpoint}: {e}"))?;
            let mut config = pipeline_config(format, fault);
            config.observability = observability;
            if let Some(src) = sources {
                let opts = durable.ok_or("network sources require --state-dir")?;
                run_sources_monitor(config, &blob, &src, &opts, trace_out, &mut out)?;
                return Ok(out);
            }
            let logfile = logfile.ok_or("monitor needs a <logfile>")?;
            if let Some(opts) = durable {
                run_durable_monitor(config, &blob, &logfile, &opts, trace_out, &mut out)?;
                return Ok(out);
            }
            let mut monilog =
                MoniLog::restore(config, &blob).map_err(|e| format!("invalid checkpoint: {e}"))?;
            let _exporter = spawn_exporter(&monilog, observability, None, &mut out)?;
            let lines = read_lines(&logfile)?;
            let mut reports = ReportLines::default();
            // Live sequence numbers continue far past any training range.
            for (i, line) in lines.iter().enumerate() {
                reports.extend(&monilog.ingest(&RawLog::new(
                    SourceId(0),
                    1_000_000_000 + i as u64,
                    line.clone(),
                )));
            }
            reports.extend(&monilog.flush());
            let _ = writeln!(
                out,
                "monitored {} lines: {} anomalies",
                lines.len(),
                reports.count
            );
            out.push_str(&reports.text);
            write_trace_out(&monilog, trace_out, &mut out)?;
        }
        CliCommand::Router {
            logfiles,
            listen,
            expect_nodes,
            state_dir,
            batch_lines,
            heartbeat_ms,
            dead_after_ms,
            rebalance_grace_ms,
        } => {
            let cfg = monilog_stream::RouterConfig {
                listen,
                buffer_dir: std::path::Path::new(&state_dir).join("router-buffers"),
                batch_lines,
                heartbeat_ms,
                dead_after_ms,
                rebalance_grace_ms,
                ..monilog_stream::RouterConfig::default()
            };
            run_router(&logfiles, &state_dir, cfg, expect_nodes, &mut out)?;
        }
    }
    Ok(out)
}

/// The per-anomaly block that ends every monitor run's output, rendered
/// as reports surface: a long run keeps a few text lines per report, not
/// the reports themselves.
#[derive(Default)]
struct ReportLines {
    count: usize,
    text: String,
}

impl ReportLines {
    fn extend(&mut self, anomalies: &[ClassifiedAnomaly]) {
        self.count += anomalies.len();
        write_report_lines(&mut self.text, anomalies);
    }
}

/// Render the per-anomaly report block shared by both monitor paths.
fn write_report_lines(out: &mut String, anomalies: &[ClassifiedAnomaly]) {
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
}

/// Translate `SinkOptions` into concrete routes: page-level reports go
/// to the `--route-critical` target (default: the most interactive sink
/// configured), ticket-level to TCP when available, and everything else
/// — plus anything unrouted — to a local rotating file under the state
/// directory.
fn build_delivery(
    opts: &SinkOptions,
    state_dir: &std::path::Path,
) -> Result<DeliverySetup, String> {
    use monilog_model::DeliveryClass;
    use monilog_stream::sinks::{DeliveryConfig, FileSink, FramedTcpSink, RouteSpec, WebhookSink};

    let critical = opts
        .route_critical
        .as_deref()
        .unwrap_or(if opts.http.is_some() {
            "http"
        } else if opts.tcp.is_some() {
            "tcp"
        } else {
            "file"
        });
    let mut specs = Vec::new();
    if let Some(url) = &opts.http {
        let sink = WebhookSink::from_url(url).map_err(|e| format!("--sink-http: {e}"))?;
        let mut classes = Vec::new();
        if critical == "http" {
            classes.push(DeliveryClass::Page);
        }
        specs.push(RouteSpec {
            name: "webhook".into(),
            classes,
            sink: Box::new(sink),
        });
    }
    if let Some(addr) = &opts.tcp {
        let mut classes = vec![DeliveryClass::Ticket];
        if critical == "tcp" {
            classes.push(DeliveryClass::Page);
        }
        specs.push(RouteSpec {
            name: "tcp".into(),
            classes,
            sink: Box::new(FramedTcpSink::new(addr.clone())),
        });
    }
    // The file route is always present and always last: it is the
    // fallback for any class no other route claims.
    let file_path = state_dir
        .join(crate::durable::DELIVERY_DIR)
        .join("reports.jsonl");
    std::fs::create_dir_all(file_path.parent().expect("delivery dir"))
        .map_err(|e| format!("create delivery dir: {e}"))?;
    let file_sink = FileSink::open(&file_path, 16 * 1024 * 1024, 2)
        .map_err(|e| format!("open file sink: {e}"))?;
    let mut classes = vec![DeliveryClass::Log];
    if critical == "file" {
        classes.push(DeliveryClass::Page);
    }
    specs.push(RouteSpec {
        name: "file".into(),
        classes,
        sink: Box::new(file_sink),
    });

    let mut config = DeliveryConfig::new("overridden-by-open");
    config.retry.max_backoff = std::time::Duration::from_millis(opts.retry_max_ms);
    config.buffer_spill_bytes = opts.buffer_bytes;
    let mut setup = DeliverySetup::new(config, specs);
    // `--page-at` lowers the page threshold; the ticket threshold never
    // sits above it (a report can't be "page but not ticket worthy").
    setup.router.page_at = opts.page_at;
    setup.router.ticket_at = setup.router.ticket_at.min(opts.page_at);
    Ok(setup)
}

/// Write a small control file atomically (tmp + fsync + rename), the
/// same discipline as the checkpoint manifest: a reader — human or
/// harness — must never observe a half-written file.
fn write_file_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

/// The boot [`ConfigSnapshot`] (version 0): every reloadable key seeded
/// from the equivalent CLI flag so `GET /config` reflects what the
/// process actually started with.
fn boot_snapshot(config: &MoniLogConfig, opts: &DurableOptions) -> ConfigSnapshot {
    let defaults = ConfigSnapshot::default();
    let mut snap = ConfigSnapshot {
        on_overload: config.fault_tolerance.on_overload,
        trace_sample_rate: config.observability.trace_sample_rate,
        batch_lines: opts.batch_lines.unwrap_or(defaults.batch_lines),
        batch_deadline_ms: opts.batch_deadline_ms.unwrap_or(defaults.batch_deadline_ms),
        ..defaults
    };
    if let Some(sinks) = &opts.sinks {
        snap.page_at = sinks.page_at;
        snap.route_critical = sinks.route_critical.clone();
        snap.sink_retry_max_ms = sinks.retry_max_ms;
    }
    snap
}

/// Assemble the live operations surface for a durable monitor: the
/// recent-reports ring (backfilled from `anomalies.jsonl`, then attached
/// so the emit path keeps feeding it), the `/status` mailbox, and the
/// hot-reloadable config with its audit trail.
fn build_ops(
    durable: &mut DurableMoniLog,
    config: &MoniLogConfig,
    opts: &DurableOptions,
    out: &mut String,
) -> Result<OpsDriver, String> {
    let state_dir = std::path::Path::new(&opts.state_dir);
    let reports = ReportStore::shared(DEFAULT_REPORT_CAPACITY);
    // Backfill before attaching: record() dedups on ascending ids, so the
    // durable record must be in the ring before live emits land on top.
    let backfilled = reports
        .backfill_from_file(&durable.anomalies_path())
        .unwrap_or(0);
    durable.attach_report_store(Arc::clone(&reports));
    if backfilled > 0 {
        let _ = writeln!(
            out,
            "ops: backfilled {backfilled} reports from durable record"
        );
    }
    let reload = ReloadableConfig::shared(
        boot_snapshot(config, opts),
        Some(state_dir.join("config-audit.log")),
        durable.pipeline().metrics(),
    );
    let ops = OpsState::new(reports, StatusBoard::shared(opts.latency_budget_ms), reload);
    let driver = OpsDriver {
        ops,
        config_file: opts.config_file.clone().map(Into::into),
        applied_version: 0,
        boot_ticket_at: durable.router().ticket_at,
        spilled_seen: 0,
        mailbox: None,
    };
    // `--config-file` is the SIGHUP source of truth; honour it once at
    // startup so a restart and a reload converge on the same config.
    if let Some(path) = driver.config_file.clone() {
        if path.exists() {
            match driver.ops.reload.apply_file(&path) {
                Ok(snap) => {
                    let _ = writeln!(
                        out,
                        "ops: applied {} at startup (config version {})",
                        path.display(),
                        snap.version
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "ops: ignored invalid config file {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
    monilog_stream::install_reload_handler();
    Ok(driver)
}

/// Per-batch glue between the reload surface and the live components:
/// folds SIGHUP requests into the versioned config, pushes any new
/// snapshot into the tracer / sources / router / delivery layer, and
/// publishes fresh [`StatusInputs`] for `/status` and `/readyz`.
struct OpsDriver {
    ops: OpsState,
    config_file: Option<std::path::PathBuf>,
    /// Last snapshot version pushed into the live components.
    applied_version: u64,
    /// The boot ticket threshold; reapplied (clamped to `page_at`) on
    /// every router swap so repeated reloads can't ratchet it down.
    boot_ticket_at: Criticality,
    /// reports_spilled high-water mark from the previous publish; a delta
    /// means the delivery layer is actively spilling.
    spilled_seen: u64,
    /// Cluster mailbox for `--join` monitors; its link snapshot feeds the
    /// status rollup's cluster section and the `/readyz` degraded tier.
    mailbox: Option<std::sync::Arc<monilog_stream::ClusterMailbox>>,
}

impl OpsDriver {
    /// Consume a pending SIGHUP (re-reading `--config-file`) and apply
    /// the current snapshot if its version moved. Returns the snapshot in
    /// force so the caller can use its batch shape.
    fn poll_reload(
        &mut self,
        durable: &mut DurableMoniLog,
        server: Option<&monilog_stream::SourcesServer>,
        out: &mut String,
    ) -> Arc<ConfigSnapshot> {
        if monilog_stream::take_reload_request() {
            match &self.config_file {
                Some(path) => match self.ops.reload.apply_file(path) {
                    Ok(snap) => {
                        let _ = writeln!(
                            out,
                            "ops: SIGHUP applied {} (config version {})",
                            path.display(),
                            snap.version
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "ops: SIGHUP reload rejected: {e}");
                    }
                },
                None => {
                    let _ = writeln!(out, "ops: SIGHUP ignored (no --config-file)");
                }
            }
        }
        let snap = self.ops.reload.current();
        if snap.version != self.applied_version {
            durable
                .pipeline()
                .tracer()
                .set_sample_rate(snap.trace_sample_rate);
            if let Some(server) = server {
                server.set_overload_policy(snap.on_overload);
            }
            let mut router = *durable.router();
            router.page_at = snap.page_at;
            router.ticket_at = self.boot_ticket_at.min(snap.page_at);
            durable.set_router(router);
            if let Some(delivery) = durable.delivery() {
                delivery.set_retry_max_ms(snap.sink_retry_max_ms);
                // CLI route names: the http sink's route is "webhook".
                let route = snap.route_critical.as_deref().map(|r| match r {
                    "http" => "webhook",
                    other => other,
                });
                if !delivery.set_page_route(route) {
                    let _ = writeln!(
                        out,
                        "ops: route-critical {:?} names an unconfigured sink; \
                         keeping current page route",
                        snap.route_critical.as_deref().unwrap_or("none")
                    );
                }
            }
            self.applied_version = snap.version;
        }
        snap
    }

    /// Publish the health facts only this loop can see.
    fn publish_status(&mut self, durable: &DurableMoniLog, queue_depth: u64) {
        let metrics = durable.pipeline().metrics();
        let spilled = PipelineMetrics::get(&metrics.reports_spilled);
        let mut inputs = StatusInputs {
            ingest_queue_depth: queue_depth,
            delivery_spilling: spilled > self.spilled_seen,
            checkpoint_generation: durable.generation(),
            checkpoint_age_ms: durable.checkpoint_age_ms(),
            wal_lag_bytes: durable.wal_lag_bytes(),
            ..StatusInputs::default()
        };
        self.spilled_seen = spilled;
        if let Some(delivery) = durable.delivery() {
            inputs.delivery_pending_bytes = delivery.pending_bytes();
            inputs.breakers = delivery
                .breaker_states()
                .into_iter()
                .map(|(route, state)| {
                    let name = match state {
                        BreakerState::Closed => "closed",
                        BreakerState::Open => "open",
                        BreakerState::HalfOpen => "half-open",
                    };
                    (route, name.to_string())
                })
                .collect();
        }
        if let Some(mb) = &self.mailbox {
            let link = mb.snapshot();
            inputs.router_link = Some((
                link.state.as_str().to_string(),
                link.reason.unwrap_or_default(),
            ));
        }
        self.ops.status.publish(inputs);
    }
}

/// The `--state-dir` monitor path: WAL-gated ingestion with crash
/// recovery and SIGTERM/SIGINT graceful drain. The model checkpoint
/// (`--checkpoint`) seeds the pipeline only on the first run against a
/// state directory; afterwards the durable checkpoint wins.
fn run_durable_monitor(
    config: MoniLogConfig,
    model_blob: &[u8],
    logfile: &str,
    opts: &DurableOptions,
    trace_out: Option<String>,
    out: &mut String,
) -> Result<(), String> {
    monilog_stream::install_shutdown_handler();
    let delivery = match &opts.sinks {
        Some(sinks) => Some(build_delivery(
            sinks,
            std::path::Path::new(&opts.state_dir),
        )?),
        None => None,
    };
    let (mut durable, mut stats) = DurableMoniLog::open_with_delivery(
        config,
        opts.to_config(),
        || MoniLog::restore(config, model_blob).map_err(|e| format!("invalid checkpoint: {e}")),
        delivery,
    )?;
    let mut ops = build_ops(&mut durable, &config, opts, out)?;
    let _exporter = spawn_exporter(
        durable.pipeline(),
        config.observability,
        Some(&ops.ops),
        out,
    )?;
    match stats.resumed_generation {
        Some(generation) => {
            let fallback_note = if stats.fell_back {
                " (newest generation was corrupt; fell back one)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "recovery: resumed checkpoint generation {generation}{fallback_note}"
            );
        }
        None => {
            let _ = writeln!(out, "recovery: fresh state directory");
        }
    }
    let _ = writeln!(
        out,
        "recovery: replayed {} journal lines in {} ms ({} duplicate reports suppressed)",
        stats.replayed_lines, stats.replay_ms, stats.suppressed_duplicates
    );

    let lines = read_lines(logfile)?;
    let mut reports = ReportLines::default();
    reports.extend(&std::mem::take(&mut stats.anomalies));
    // Sequence i+1 identifies input line i; everything at or below the
    // journal high-water mark was already journaled by a previous life.
    let skip = (durable.next_seq(SourceId(0)) - 1) as usize;
    if skip > 0 {
        let _ = writeln!(out, "input: skipping {skip} lines already journaled");
    }
    let mut drained = false;
    let mut processed = 0usize;
    ops.publish_status(&durable, 0);
    for (i, line) in lines.iter().enumerate().skip(skip) {
        if monilog_stream::shutdown_requested() {
            drained = true;
            break;
        }
        // Consult the hot config and refresh /status at batch granularity
        // — cheap enough to never show up against per-line work.
        if processed.is_multiple_of(512) {
            ops.poll_reload(&mut durable, None, out);
            ops.publish_status(&durable, 0);
        }
        reports.extend(&durable.ingest(&RawLog::new(SourceId(0), i as u64 + 1, line.clone()))?);
        processed += 1;
    }
    ops.publish_status(&durable, 0);
    // Keep tracer/metrics handles: drain/finish consume the pipeline.
    let tracer = durable.pipeline().tracer();
    let metrics = durable.pipeline().metrics();
    let delivery_attached = durable.delivery().is_some();
    let (tail, generation) = if drained {
        durable.drain()?
    } else {
        durable.finish()?
    };
    reports.extend(&tail);
    if delivery_attached {
        let _ = writeln!(
            out,
            "delivery: {} accepted, {} delivered, {} retries, {} spilled locally",
            PipelineMetrics::get(&metrics.reports_accepted),
            PipelineMetrics::get(&metrics.reports_delivered),
            PipelineMetrics::get(&metrics.delivery_retries),
            PipelineMetrics::get(&metrics.reports_spilled),
        );
    }
    if drained {
        let _ = writeln!(
            out,
            "drained gracefully at checkpoint generation {generation}; \
             restart resumes with zero replay"
        );
    }
    let _ = writeln!(
        out,
        "monitored {processed} lines: {} anomalies (checkpoint generation {generation})",
        reports.count
    );
    out.push_str(&reports.text);
    if let Some(path) = trace_out {
        std::fs::write(&path, tracer.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "trace events: {path}");
    }
    Ok(())
}

/// The network-source monitor: TCP/UDP syslog, HTTP bulk ingest and file
/// tails multiplexed on one event loop, every line journaled to the WAL
/// before the pipeline acts on it. Seqs are assigned per source as lines
/// leave the ingest queue; tail cursors are written into the checkpoint
/// manifest *before* the line they account for is ingested, so a
/// checkpoint cut mid-batch pairs consistently.
///
/// Runs until SIGTERM/SIGINT (graceful drain; a *second* signal forces an
/// immediate exit with status 130 whose WAL suffix replays on the next
/// start). Two env hooks for tests and gates: `MONILOG_IDLE_EXIT_MS`
/// finishes the run after that long with no queued lines, and
/// `MONILOG_DRAIN_HOLD_MS` holds the drain open before the final
/// checkpoint so a forced exit can be exercised.
fn run_sources_monitor(
    config: MoniLogConfig,
    model_blob: &[u8],
    src: &SourcesOptions,
    opts: &DurableOptions,
    trace_out: Option<String>,
    out: &mut String,
) -> Result<(), String> {
    use crate::durable::{
        decode_tail_cursors, encode_tail_cursors, PersistedTailCursor, SOURCES_SECTION,
    };
    use monilog_stream::sources::{
        glob_match, GlobResume, TailCursor, TailGlobSpec, TailSpec, TAIL_SOURCE_BASE,
    };
    use monilog_stream::{DeadLetterLog, MetricsEndpoint, SourcesConfig, SourcesServer};
    use std::time::{Duration, Instant};

    monilog_stream::install_shutdown_handler();
    let state_dir = std::path::Path::new(&opts.state_dir);
    let delivery = match &opts.sinks {
        Some(sinks) => Some(build_delivery(sinks, state_dir)?),
        None => None,
    };
    let (mut durable, mut stats) = DurableMoniLog::open_with_delivery(
        config,
        opts.to_config(),
        || MoniLog::restore(config, model_blob).map_err(|e| format!("invalid checkpoint: {e}")),
        delivery,
    )?;
    let mut ops = build_ops(&mut durable, &config, opts, out)?;
    match stats.resumed_generation {
        Some(generation) => {
            let _ = writeln!(out, "recovery: resumed checkpoint generation {generation}");
        }
        None => {
            let _ = writeln!(out, "recovery: fresh state directory");
        }
    }
    let _ = writeln!(
        out,
        "recovery: replayed {} journal lines in {} ms ({} duplicate reports suppressed)",
        stats.replayed_lines, stats.replay_ms, stats.suppressed_duplicates
    );

    // Resume file tails from the checkpointed cursors. Lines journaled
    // after the cursor snapshot replayed from the WAL above; the tail
    // seeks to the cursor and skips exactly that many lines.
    //
    // A `--tail` whose basename carries `*`/`?` is a glob: files are
    // discovered at runtime and their cursors resume *path-keyed* (a
    // discovered file has no stable position in the flag list), while
    // static tails resume index-keyed as before.
    let recovered = durable
        .recovered_section(SOURCES_SECTION)
        .map(decode_tail_cursors)
        .unwrap_or_default();
    let is_glob = |path: &str| {
        std::path::Path::new(path)
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(['*', '?']))
    };
    let static_paths: Vec<&String> = src.tails.iter().filter(|p| !is_glob(p)).collect();
    let mut tails = Vec::new();
    let mut cursors: Vec<PersistedTailCursor> = Vec::new();
    let skip_for = |durable: &DurableMoniLog, slot: usize, last_seq: u64| {
        let source = SourceId(TAIL_SOURCE_BASE + slot as u16);
        let high_water = durable.next_seq(source).saturating_sub(1);
        high_water.saturating_sub(last_seq)
    };
    for (index, path) in static_paths.iter().enumerate() {
        let mut spec = TailSpec::new(path.as_str());
        match recovered.iter().find(|c| c.index == index) {
            Some(c) => {
                spec.resume = Some(TailCursor {
                    inode: c.inode,
                    offset: c.offset,
                    last_seq: c.last_seq,
                });
                spec.skip_lines = skip_for(&durable, index, c.last_seq);
                cursors.push(c.clone());
            }
            None => cursors.push(PersistedTailCursor {
                index,
                inode: 0,
                offset: 0,
                last_seq: 0,
                path: (*path).clone(),
            }),
        }
        tails.push(spec);
    }
    let mut tail_globs = Vec::new();
    for pattern in src.tails.iter().filter(|p| is_glob(p)) {
        let pat = std::path::Path::new(pattern);
        let basename = pat.file_name().and_then(|n| n.to_str()).unwrap_or("*");
        let dir = match pat.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        // Cursors persisted for files this glob discovered before: slots
        // above the static range whose path sits in the glob's directory
        // and matches its basename pattern. A slot inside the static
        // range means the flag list changed shape; start that file fresh
        // rather than resume someone else's position.
        let known: Vec<GlobResume> = recovered
            .iter()
            .filter(|c| c.index >= static_paths.len())
            .filter(|c| {
                let p = std::path::Path::new(&c.path);
                p.parent().map(|d| d == dir).unwrap_or(false)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| glob_match(basename, n))
            })
            .map(|c| GlobResume {
                slot: c.index,
                path: c.path.clone().into(),
                resume: TailCursor {
                    inode: c.inode,
                    offset: c.offset,
                    last_seq: c.last_seq,
                },
                skip_lines: skip_for(&durable, c.index, c.last_seq),
            })
            .collect();
        for k in &known {
            cursors.push(PersistedTailCursor {
                index: k.slot,
                inode: k.resume.inode,
                offset: k.resume.offset,
                last_seq: k.resume.last_seq,
                path: k.path.display().to_string(),
            });
        }
        tail_globs.push(TailGlobSpec {
            pattern: pattern.into(),
            known,
        });
    }

    let dlq = match config.fault_tolerance.on_overload {
        OverloadPolicy::DeadLetter => Some(std::sync::Arc::new(
            DeadLetterLog::open(state_dir.join("sources_dead_letter.jsonl"), 1 << 20)
                .map_err(|e| format!("open sources dead-letter log: {e}"))?,
        )),
        _ => None,
    };
    let sources_config = SourcesConfig {
        syslog_tcp: src.syslog_tcp,
        syslog_udp: src.syslog_udp,
        http: src.http,
        tails,
        tail_globs,
        on_overload: config.fault_tolerance.on_overload,
        router: src.join.map(|addr| {
            monilog_stream::RouterLinkConfig::new(
                addr,
                src.node_id
                    .clone()
                    .expect("--join validated with --node-id"),
            )
        }),
        ..SourcesConfig::default()
    };
    // `/metrics` rides the same event loop as the sources — one thread
    // serves every network endpoint.
    let endpoint = config
        .observability
        .metrics_addr
        .map(|addr| MetricsEndpoint {
            addr,
            interval: Duration::from_millis(config.observability.metrics_interval_ms),
            tracer: Some(durable.pipeline().tracer()),
            ops: Some(Arc::new(ops.ops.clone())),
        });
    let (server, queue) =
        SourcesServer::spawn(sources_config, durable.pipeline().registry(), dlq, endpoint)
            .map_err(|e| format!("bind sources: {e}"))?;

    // Publish the bound addresses (ports may have been 0) where both the
    // operator and the driving harness can find them.
    let mut addrs = String::new();
    if let Some(a) = server.syslog_tcp_addr() {
        let _ = writeln!(addrs, "syslog-tcp {a}");
    }
    if let Some(a) = server.syslog_udp_addr() {
        let _ = writeln!(addrs, "syslog-udp {a}");
    }
    if let Some(a) = server.http_addr() {
        let _ = writeln!(addrs, "http {a}");
    }
    if let Some(a) = server.metrics_addr() {
        let _ = writeln!(addrs, "metrics {a}");
    }
    write_file_atomic(&state_dir.join("listen-addrs"), addrs.as_bytes())
        .map_err(|e| format!("write listen-addrs: {e}"))?;
    for line in addrs.lines() {
        let _ = writeln!(out, "listening: {line}");
    }

    // Fleet membership: the link supervisor rides the sources event loop;
    // the mailbox is this thread's window into it.
    let mailbox = server.cluster_mailbox();
    ops.mailbox = mailbox.clone();
    let router_only = src.router_only();
    let mut known_templates = durable.pipeline().templates().len();
    if let Some(mb) = &mailbox {
        let _ = writeln!(
            out,
            "cluster: joining router at {} as node {}",
            src.join.expect("join implies addr"),
            mb.node()
        );
    }

    let idle_exit: Option<Duration> = std::env::var("MONILOG_IDLE_EXIT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis);
    let mut next: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
    let mut reports = ReportLines::default();
    reports.extend(&std::mem::take(&mut stats.anomalies));
    let mut processed = 0u64;
    let mut last_event = Instant::now();
    let mut drained = false;
    // On the first SIGTERM/SIGINT the server is dropped immediately (no
    // source can accept more input) but the queue keeps draining: lines a
    // source already acknowledged must reach the pipeline before the final
    // checkpoint, or a graceful drain would silently lose them.
    let mut server = Some(server);
    ops.publish_status(&durable, queue.depth() as u64);
    loop {
        if server.is_some() && monilog_stream::shutdown_requested() {
            drained = true;
            server = None;
        }
        // One consult per batch: a reload lands between batches, never
        // mid-line — zero restart, zero dropped lines.
        let snap = ops.poll_reload(&mut durable, server.as_ref(), out);
        let deadline = Duration::from_millis(snap.batch_deadline_ms.max(1));
        let batch = queue.recv_batch(
            snap.batch_lines,
            durable
                .commit_due_in()
                .map_or(deadline, |due| due.min(deadline)),
        );
        ops.publish_status(&durable, queue.depth() as u64);
        if batch.is_empty() {
            if drained {
                break;
            }
            // Honor the group-commit interval in wall-clock time: without
            // this, a stream that goes quiet leaves its last burst
            // unsynced and unapplied until the next line arrives.
            reports.extend(&durable.tick()?);
            if let Some(mb) = &mailbox {
                cluster_roundup(mb, &mut durable, &mut known_templates, out);
                // A router `Fin` ends a file-driven run — but only once
                // every delivered batch is journaled and acked, and only
                // when the link is this monitor's sole input.
                if router_only
                    && mb.fin_received()
                    && mb.unacked_batches() == 0
                    && queue.depth() == 0
                {
                    let _ = writeln!(out, "cluster: router finished the run; draining");
                    break;
                }
            }
            if let Some(limit) = idle_exit {
                if last_event.elapsed() >= limit {
                    break;
                }
            }
            continue;
        }
        last_event = Instant::now();
        for ev in batch {
            let seq = match ev.seq {
                // Router-assigned wire seq: journal under exactly this
                // seq. Anything at or below the per-source high-water
                // mark was journaled by a previous life (or an earlier
                // delivery) and replays here as a duplicate — at-least-
                // once on the wire, exactly-once in the journal.
                Some(wire) => {
                    if wire < durable.next_seq(ev.source) {
                        continue;
                    }
                    wire
                }
                None => {
                    let e = next
                        .entry(ev.source.0)
                        .or_insert_with(|| durable.next_seq(ev.source));
                    let s = *e;
                    *e += 1;
                    s
                }
            };
            if let Some((index, cursor)) = ev.cursor {
                match cursors.iter_mut().find(|c| c.index == index) {
                    Some(slot) => {
                        slot.inode = cursor.inode;
                        slot.offset = cursor.offset;
                        slot.last_seq = seq;
                    }
                    None => {
                        // First line from a glob-discovered file: learn its
                        // path from the server's tail registry so the
                        // persisted cursor is path-keyed for the next life.
                        let path = server.as_ref().and_then(|s| {
                            s.tail_paths()
                                .into_iter()
                                .find(|(slot, _)| *slot == index)
                                .map(|(_, p)| p.display().to_string())
                        });
                        cursors.push(PersistedTailCursor {
                            index,
                            inode: cursor.inode,
                            offset: cursor.offset,
                            last_seq: seq,
                            path: path.unwrap_or_default(),
                        });
                    }
                }
                durable.set_section(SOURCES_SECTION, encode_tail_cursors(&cursors));
            }
            reports.extend(&durable.ingest(&RawLog::new(ev.source, seq, ev.line))?);
            processed += 1;
        }
        if let Some(mb) = &mailbox {
            // After the batch, not before: a `Revoke` racing lines still
            // queued from the old assignment must discard them too.
            cluster_roundup(mb, &mut durable, &mut known_templates, out);
        }
    }

    // Stop accepting before the final checkpoint: no source can add lines
    // the checkpoint won't cover. (Already dropped if a drain was
    // requested; the idle-exit path lands here with it still live.)
    drop(server);
    // Quiesce: fsync the WAL and apply everything pending *before* the
    // final checkpoint. From here on even a forced (second-signal) exit
    // loses nothing a source acknowledged — the restart replays it.
    reports.extend(&durable.sync_wal()?);
    if let Ok(ms) = std::env::var("MONILOG_DRAIN_HOLD_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    let tracer = durable.pipeline().tracer();
    let (tail_reports, generation) = if drained {
        durable.drain()?
    } else {
        durable.finish()?
    };
    reports.extend(&tail_reports);
    if drained {
        let _ = writeln!(
            out,
            "drained gracefully at checkpoint generation {generation}; \
             restart resumes with zero replay"
        );
    }
    let _ = writeln!(
        out,
        "monitored {processed} lines from network sources: {} anomalies \
         (checkpoint generation {generation})",
        reports.count
    );
    out.push_str(&reports.text);
    if let Some(path) = trace_out {
        std::fs::write(&path, tracer.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "trace events: {path}");
    }
    Ok(())
}

/// Per-round cluster bookkeeping for a fleet member: discard state for
/// revoked sources (their new owner rebuilds them from seq 1), adopt
/// fleet-merged templates, publish the journaled-and-applied marks the
/// link is allowed to ack, and offer newly learned local templates for
/// reconciliation.
fn cluster_roundup(
    mailbox: &monilog_stream::ClusterMailbox,
    durable: &mut DurableMoniLog,
    known_templates: &mut usize,
    out: &mut String,
) {
    for source in mailbox.take_revoked() {
        let dropped = durable.discard_source(source);
        let _ = writeln!(
            out,
            "cluster: source {} revoked ({dropped} open windows discarded)",
            source.0
        );
    }
    if let Some(snapshot) = mailbox.take_templates() {
        match durable.adopt_templates(&snapshot) {
            Ok(adopted) if adopted > 0 => {
                let _ = writeln!(out, "cluster: adopted {adopted} fleet templates");
            }
            Ok(_) => {}
            Err(e) => {
                let _ = writeln!(out, "cluster: ignored invalid template snapshot: {e}");
            }
        }
        // Adoption counts toward the known set: don't echo the merged
        // store straight back at the router.
        *known_templates = durable.pipeline().templates().len();
    }
    // Acks follow durability: only marks that are fsynced *and* applied.
    mailbox.publish_journaled(&durable.applied_marks());
    let templates = durable.pipeline().templates().len();
    if templates > *known_templates {
        mailbox.offer_templates(durable.pipeline().templates().encode());
        *known_templates = templates;
    }
}

/// The `router` command: serve the cluster wire protocol, wait for the
/// fleet, then feed the input files round-robin — one routed source per
/// file — and drain until every line is acked by a monitor. Node death
/// mid-run is absorbed here: unacked batches replay to whichever node
/// the dead node's sources rebalance onto.
fn run_router(
    logfiles: &[String],
    state_dir: &str,
    cfg: monilog_stream::RouterConfig,
    expect_nodes: usize,
    out: &mut String,
) -> Result<(), String> {
    use monilog_stream::{Router, ROUTER_SOURCE_BASE};
    use std::time::Duration;

    monilog_stream::install_shutdown_handler();
    let state_dir = std::path::Path::new(state_dir);
    std::fs::create_dir_all(state_dir)
        .map_err(|e| format!("create {}: {e}", state_dir.display()))?;
    let files: Vec<Vec<String>> = logfiles
        .iter()
        .map(|p| read_lines(p))
        .collect::<Result<_, _>>()?;
    let router = Router::spawn(cfg).map_err(|e| e.to_string())?;
    let addr = router.local_addr();
    // Same discovery convention as the monitor's listeners: the bound
    // address (the port may have been 0) lands in <state-dir>/listen-addrs
    // where both the operator and a driving harness can read it.
    write_file_atomic(
        &state_dir.join("listen-addrs"),
        format!("cluster {addr}\n").as_bytes(),
    )
    .map_err(|e| format!("write listen-addrs: {e}"))?;
    let _ = writeln!(out, "listening: cluster {addr}");
    router
        .wait_for_nodes(expect_nodes, Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "fleet: {expect_nodes} node(s) joined");

    // Round-robin so every source makes steady progress: a node kill
    // lands mid-stream for all of them, not just the last file.
    let mut cursor = vec![0usize; files.len()];
    let mut remaining: usize = files.iter().map(Vec::len).sum();
    let mut interrupted = false;
    'route: while remaining > 0 {
        for (i, lines) in files.iter().enumerate() {
            if monilog_stream::shutdown_requested() {
                interrupted = true;
                break 'route;
            }
            if cursor[i] < lines.len() {
                let source = SourceId(ROUTER_SOURCE_BASE + i as u16);
                router
                    .route_line(source, lines[cursor[i]].as_bytes())
                    .map_err(|e| e.to_string())?;
                cursor[i] += 1;
                remaining -= 1;
            }
        }
    }
    let stats = if interrupted {
        let _ = writeln!(out, "interrupted: {remaining} lines not routed");
        let stats = router.stats();
        router.shutdown();
        stats
    } else {
        let stats = router
            .finish(Duration::from_secs(60))
            .map_err(|e| e.to_string())?;
        router.shutdown();
        stats
    };
    let _ = writeln!(
        out,
        "routed {} lines across {} sources: {} batches sent, {} acked, {} lines replayed",
        stats.lines_routed,
        files.len(),
        stats.batches_sent,
        stats.batches_acked,
        stats.lines_replayed
    );
    let _ = writeln!(
        out,
        "fleet: {} rebalances, {} rejoins; template epoch {} ({} templates)",
        stats.rebalances, stats.rejoins, stats.template_epoch, stats.template_count
    );
    for (node, connected, assigned) in &stats.nodes {
        let _ = writeln!(
            out,
            "  node {node}: {}, {assigned} sources assigned",
            if *connected {
                "connected"
            } else {
                "disconnected"
            }
        );
    }
    Ok(())
}

/// For `parse` (template discovery only): drop headers so templates are
/// message-level, tolerating lines that don't match the declared format.
fn strip_headers(lines: &[String], format: HeaderChoice) -> Vec<String> {
    use monilog_model::{parse_header, HeaderFormat, Timestamp};
    let hf = match format {
        HeaderChoice::Dash => HeaderFormat::DashSeparated,
        HeaderChoice::Syslog => HeaderFormat::SyslogLike,
        HeaderChoice::Bare => HeaderFormat::Bare,
    };
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let raw = RawLog::new(SourceId(0), i as u64, line.clone());
            match parse_header(&raw, &hf, Timestamp::EPOCH) {
                Ok(record) => record.message.into_string(),
                Err(_) => line.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
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
                format: HeaderChoice::Dash
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
                format: HeaderChoice::Syslog,
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
                batch_lines,
                heartbeat_ms,
                dead_after_ms,
                rebalance_grace_ms,
                ..
            } => {
                assert_eq!(logfiles, vec!["a.log".to_string(), "b.log".to_string()]);
                assert_eq!(expect_nodes, 2);
                assert_eq!(state_dir, "/tmp/r");
                assert_eq!(batch_lines, 16);
                assert_eq!(heartbeat_ms, 100);
                assert_eq!(dead_after_ms, 800);
                assert_eq!(rebalance_grace_ms, 200);
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
                assert_eq!(s.join, Some("127.0.0.1:9100".parse().unwrap()));
                assert_eq!(s.node_id.as_deref(), Some("mon-a"));
                assert!(s.router_only());
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
            CliCommand::Monitor { fault, .. } => {
                assert_eq!(fault.on_overload, OverloadPolicy::ShedToCatchAll);
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
        assert_eq!(err, dead_after);
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

    /// Every `--flag` in `USAGE` must parse for a command named in the
    /// same paragraph, so the help text cannot advertise a flag that the
    /// parser rejects (or one that only another command takes).
    #[test]
    fn every_usage_flag_parses_for_a_command_it_is_listed_under() {
        // A valid value (plus any companion flag) for each flag.
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
                "--checkpoint" | "--state-dir" | "--trace-out" | "--config-file" | "--tail" => {
                    &["p"]
                }
                _ => &["50"],
            }
        }
        fn base(command: &str) -> Vec<&str> {
            match command {
                "train" => vec!["train", "x.log", "--checkpoint", "m"],
                "monitor" => vec!["monitor", "x.log", "--checkpoint", "m", "--state-dir", "d"],
                "router" => vec!["router", "x.log", "--state-dir", "d"],
                other => vec![other, "x.log"],
            }
        }
        const COMMANDS: [&str; 5] = ["parse", "calibrate", "train", "monitor", "router"];
        let mut checked = 0;
        for paragraph in USAGE.split("\n\n") {
            let words: Vec<&str> = paragraph
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                .collect();
            let listed: Vec<&str> = COMMANDS.into_iter().filter(|c| words.contains(c)).collect();
            for &flag in words.iter().filter(|w| w.starts_with("--") && w.len() > 2) {
                assert!(!listed.is_empty(), "{flag} is listed under no command");
                let accepted = listed.iter().any(|&command| {
                    let mut argv = base(command);
                    argv.push(flag);
                    argv.extend(value_args(flag));
                    parse_args(&args(&argv)).is_ok()
                });
                assert!(accepted, "{flag} is rejected by every one of {listed:?}");
                checked += 1;
            }
        }
        assert!(checked >= 30, "only {checked} flags found in USAGE");
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
            "--metrics-interval-ms",
            "250",
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
                assert_eq!(observability.metrics_interval_ms, 250);
                assert_eq!(observability.trace_sample_rate, 64);
                assert_eq!(observability.flight_capacity, 512);
                assert_eq!(trace_out.as_deref(), Some("trace.json"));
            }
            other => panic!("expected Train, got {other:?}"),
        }
        // Defaults: disabled endpoint, 1s interval, 1/1024 sampling.
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
        assert!(parse_args(&args(&["parse", "x", "--metrics-interval-ms", "0"])).is_err());
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
                assert_eq!(src.tails, vec!["/var/log/a.log", "/var/log/b.log"]);
            }
            other => panic!("expected Monitor, got {other:?}"),
        }

        // A logfile can still ride along with sources.
        let parsed = parse_args(&args(&[
            "monitor",
            "replay.log",
            "--checkpoint",
            "m.bin",
            "--state-dir",
            "/tmp/state",
            "--tail",
            "/var/log/a.log",
        ]))
        .unwrap();
        match parsed {
            CliCommand::Monitor {
                logfile, sources, ..
            } => {
                assert_eq!(logfile.as_deref(), Some("replay.log"));
                assert!(sources.is_some());
            }
            other => panic!("expected Monitor, got {other:?}"),
        }

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

        run(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");

        // Sample every line so the short live stream records spans.
        let report = run(CliCommand::Monitor {
            logfile: Some(live_file.to_string_lossy().into_owned()),
            sources: None,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            fault: FaultToleranceConfig::default(),
            observability: ObservabilityConfig {
                trace_sample_rate: 1,
                ..ObservabilityConfig::default()
            },
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
            run(CliCommand::Train {
                logfile: train_path,
                checkpoint: ckpt_path,
                format: HeaderChoice::Dash,
                observability: ObservabilityConfig {
                    metrics_addr: Some(addr),
                    metrics_interval_ms: 10,
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
        let opts = |extra: &[&str]| -> (MoniLogConfig, DurableOptions) {
            let mut argv = vec!["monitor", "--checkpoint", "m", "--state-dir", "d"];
            argv.extend(["--listen-syslog-tcp", "127.0.0.1:0"]);
            argv.extend(extra);
            match parse_args(&args(&argv)).unwrap() {
                CliCommand::Monitor {
                    format,
                    fault,
                    durable: Some(durable),
                    ..
                } => (pipeline_config(format, fault), durable),
                other => panic!("expected a durable Monitor, got {other:?}"),
            }
        };
        let (config, given) = opts(&["--batch-lines", "128", "--batch-deadline-ms", "20"]);
        let snap = boot_snapshot(&config, &given);
        assert_eq!(snap.version, 0);
        assert_eq!((snap.batch_lines, snap.batch_deadline_ms), (128, 20));
        let (config, absent) = opts(&[]);
        let snap = boot_snapshot(&config, &absent);
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

        let report = run(CliCommand::Parse {
            logfile: logfile.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
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

        let report = run(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");
        assert!(report.contains("trained on"), "{report}");
        assert!(ckpt.exists());

        let report = run(CliCommand::Monitor {
            logfile: Some(live_file.to_string_lossy().into_owned()),
            sources: None,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            fault: FaultToleranceConfig::default(),
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
        let report = run(CliCommand::Calibrate {
            logfile: logfile.to_string_lossy().into_owned(),
        })
        .expect("calibration succeeds");
        assert!(report.contains("depth"), "{report}");
        assert!(report.contains("sim_threshold"), "{report}");
    }

    #[test]
    fn missing_files_report_cleanly() {
        let err = run(CliCommand::Parse {
            logfile: "/definitely/not/here.log".into(),
            format: HeaderChoice::Dash,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let err = run(CliCommand::Monitor {
            logfile: Some("/x.log".into()),
            sources: None,
            checkpoint: "/definitely/not/here.mlcp".into(),
            format: HeaderChoice::Dash,
            fault: FaultToleranceConfig::default(),
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
                        state_dir: "/var/lib/monilog".into(),
                        checkpoint_interval_ms: 2500,
                        journal_fsync_ms: 0,
                        journal_segment_bytes: 65536,
                        sinks: None,
                        config_file: None,
                        latency_budget_ms: DEFAULT_LATENCY_BUDGET_MS,
                        batch_lines: None,
                        batch_deadline_ms: None,
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
                assert_eq!(opts.checkpoint_interval_ms, 5_000);
                assert_eq!(
                    opts.journal_fsync_ms,
                    JournalConfig::default().fsync_interval_ms
                );
                assert_eq!(
                    opts.journal_segment_bytes,
                    JournalConfig::default().segment_bytes
                );
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
            CliCommand::Monitor { durable, .. } => {
                let sinks = durable.unwrap().sinks.unwrap();
                assert_eq!(
                    sinks,
                    SinkOptions {
                        http: Some("http://alerts:9000/hooks".into()),
                        tcp: Some("collector:7600".into()),
                        retry_max_ms: 2000,
                        buffer_bytes: 1_048_576,
                        route_critical: Some("tcp".into()),
                        page_at: Criticality::Low,
                    }
                );
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

        run(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");

        let monitor = || CliCommand::Monitor {
            logfile: Some(live_file.to_string_lossy().into_owned()),
            sources: None,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            fault: FaultToleranceConfig::default(),
            observability: ObservabilityConfig::default(),
            trace_out: None,
            durable: Some(DurableOptions {
                state_dir: state_dir.to_string_lossy().into_owned(),
                checkpoint_interval_ms: 5_000,
                journal_fsync_ms: 0,
                journal_segment_bytes: JournalConfig::default().segment_bytes,
                sinks: None,
                config_file: None,
                latency_budget_ms: DEFAULT_LATENCY_BUDGET_MS,
                batch_lines: None,
                batch_deadline_ms: None,
            }),
        };

        let report = run(monitor()).expect("first durable run succeeds");
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
        let report = run(monitor()).expect("second durable run succeeds");
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
}
