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

use crate::durable::{DeliverySetup, DurableConfig, DurableMoniLog, PersistedTailCursor};
use crate::{
    ClassifiedAnomaly, DetectorChoice, FaultToleranceConfig, MoniLog, MoniLogConfig,
    ObservabilityConfig, WindowPolicy,
};
use monilog_detect::DeepLogConfig;
use monilog_model::{Criticality, RawLog, SourceId};
use monilog_parse::autotune::{autotune_drain, TuneGrid};
use monilog_parse::{Drain, DrainConfig, OnlineParser};
use monilog_stream::{
    BreakerState, ConfigSnapshot, JournalConfig, MetricsEndpoint, MetricsExporter, OpsState,
    OverloadPolicy, PipelineMetrics, ReloadableConfig, ReportStore, SourceEvent, SourceQueue,
    SourcesServer, StatusBoard, StatusInputs, DEFAULT_LATENCY_BUDGET_MS, DEFAULT_REPORT_CAPACITY,
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
        /// Input file; `None` when network sources are configured (the
        /// two exclude each other).
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
        /// Root for the retention journal (`router-buffers/`) and `listen-addrs`.
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
    /// Local listeners or tails, as opposed to the router link.
    fn local(&self) -> bool {
        self.syslog_tcp.is_some()
            || self.syslog_udp.is_some()
            || self.http.is_some()
            || !self.tails.is_empty()
    }

    fn any(&self) -> bool {
        self.local() || self.join.is_some()
    }

    /// A fleet member with no local listeners: its only input is the
    /// router link, so a router `Fin` ends the run.
    fn router_only(&self) -> bool {
        self.join.is_some() && !self.local()
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

impl Default for DurableOptions {
    /// Every default but the state directory, which has none.
    fn default() -> DurableOptions {
        DurableOptions {
            state_dir: String::new(),
            checkpoint_interval_ms: 5_000,
            journal_fsync_ms: JournalConfig::default().fsync_interval_ms,
            journal_segment_bytes: JournalConfig::default().segment_bytes,
            sinks: None,
            config_file: None,
            latency_budget_ms: DEFAULT_LATENCY_BUDGET_MS,
            batch_lines: None,
            batch_deadline_ms: None,
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
    /// `--format` values.
    const NAMES: [(&'static str, HeaderChoice); 3] = [
        ("dash", HeaderChoice::Dash),
        ("syslog", HeaderChoice::Syslog),
        ("bare", HeaderChoice::Bare),
    ];

    fn name(self) -> &'static str {
        let (name, _) = Self::NAMES
            .iter()
            .find(|(_, c)| *c == self)
            .expect("every choice named");
        name
    }

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

/// The commands `parse_args` knows, in `USAGE` order.
const COMMANDS: [&str; 5] = ["parse", "calibrate", "train", "monitor", "router"];

/// Where a flag means something: the commands that use it, and whether it
/// needs `--state-dir` (what it tunes or feeds is journaled or checkpointed
/// there).
struct Scope {
    commands: &'static [&'static str],
    needs_state_dir: bool,
}

const fn scope(commands: &'static [&'static str], needs_state_dir: bool) -> Scope {
    Scope {
        commands,
        needs_state_dir,
    }
}

const PARSE_TRAIN_MONITOR: Scope = scope(&["parse", "train", "monitor"], false);
const TRAIN_MONITOR: Scope = scope(&["train", "monitor"], false);
const MONITOR: Scope = scope(&["monitor"], false);
const MONITOR_ROUTER: Scope = scope(&["monitor", "router"], false);
const ROUTER: Scope = scope(&["router"], false);
const DURABLE_MONITOR: Scope = scope(&["monitor"], true);
const DURABLE_MONITOR_ROUTER: Scope = scope(&["monitor", "router"], true);

/// One row of [`FLAGS`]; every flag takes exactly one value.
struct Flag {
    name: &'static str,
    /// What the value looks like, for the "needs a value" error.
    hint: &'static str,
    scope: Scope,
    /// Check the value and store it; an `Err` says why it is invalid.
    apply: fn(&mut Opts, &str) -> Result<(), String>,
}

/// Everything argv can set, before it is shaped into a [`CliCommand`].
#[derive(Default)]
struct Opts {
    checkpoint: Option<String>,
    format: HeaderChoice,
    fault: FaultToleranceConfig,
    observability: ObservabilityConfig,
    trace_out: Option<String>,
    state_dir: Option<String>,
    /// Every durable option but the state directory itself.
    durable: DurableOptions,
    sources: SourcesOptions,
    listen_cluster: Option<std::net::SocketAddr>,
    expect_nodes: Option<usize>,
    heartbeat_ms: Option<u64>,
    dead_after_ms: Option<u64>,
    rebalance_grace_ms: Option<u64>,
}

impl Opts {
    /// The delivery options: any delivery flag turns delivery on.
    fn sinks(&mut self) -> &mut SinkOptions {
        self.durable.sinks.get_or_insert_with(SinkOptions::default)
    }
}

fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

fn at_least<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    value: &str,
    min: T,
) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(format!("must be at least {min}")),
        Err(_) => Err("not a number".to_string()),
    }
}

fn addr(value: &str) -> Result<Option<std::net::SocketAddr>, String> {
    value
        .parse()
        .map(Some)
        .map_err(|_| "expected host:port".to_string())
}

fn one_of<T: Copy>(value: &str, choices: &[(&str, T)]) -> Result<T, String> {
    let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
    let found = choices.iter().find(|(name, _)| *name == value);
    found
        .map(|(_, choice)| *choice)
        .ok_or_else(|| format!("expected one of {}", names.join(", ")))
}

/// `Some(value)` when `ok`, else the reason it is invalid.
fn valid(value: &str, ok: bool, why: &str) -> Result<Option<String>, String> {
    ok.then(|| Some(value.to_string()))
        .ok_or_else(|| why.to_string())
}

const PAGE_LEVELS: [(&str, Criticality); 3] = [
    ("low", Criticality::Low),
    ("moderate", Criticality::Moderate),
    ("high", Criticality::High),
];

/// Every flag: its value hint, the commands that take it, and how its
/// value is checked and stored. `USAGE` lists exactly these flags, each
/// under the commands of its scope (a test holds the two in step).
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--checkpoint", hint: "a path", scope: TRAIN_MONITOR,
        apply: |o, v| set(&mut o.checkpoint, Some(v.into())) },
    Flag { name: "--format", hint: "dash|syslog|bare", scope: PARSE_TRAIN_MONITOR,
        apply: |o, v| set(&mut o.format, one_of(v, &HeaderChoice::NAMES)?) },
    Flag { name: "--on-overload", hint: "a policy", scope: MONITOR,
        apply: |o, v| set(&mut o.fault.on_overload, OverloadPolicy::parse(v)?) },
    Flag { name: "--batch-lines", hint: "a count", scope: DURABLE_MONITOR_ROUTER,
        apply: |o, v| set(&mut o.durable.batch_lines, Some(at_least(v, 1)?)) },
    Flag { name: "--batch-deadline-ms", hint: "milliseconds", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.durable.batch_deadline_ms, Some(at_least(v, 0)?)) },
    Flag { name: "--metrics-addr", hint: "host:port", scope: TRAIN_MONITOR,
        apply: |o, v| set(&mut o.observability.metrics_addr, addr(v)?) },
    Flag { name: "--metrics-interval-ms", hint: "milliseconds", scope: TRAIN_MONITOR,
        apply: |o, v| set(&mut o.observability.metrics_interval_ms, at_least(v, 1)?) },
    Flag { name: "--trace-sample-rate", hint: "a rate", scope: TRAIN_MONITOR,
        apply: |o, v| set(&mut o.observability.trace_sample_rate, at_least(v, 0)?) },
    Flag { name: "--flight-capacity", hint: "a count", scope: TRAIN_MONITOR,
        apply: |o, v| set(&mut o.observability.flight_capacity, at_least(v, 1)?) },
    Flag { name: "--trace-out", hint: "a path", scope: TRAIN_MONITOR,
        apply: |o, v| set(&mut o.trace_out, Some(v.into())) },
    Flag { name: "--state-dir", hint: "a directory", scope: MONITOR_ROUTER,
        apply: |o, v| set(&mut o.state_dir, Some(v.into())) },
    Flag { name: "--checkpoint-interval-ms", hint: "milliseconds", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.durable.checkpoint_interval_ms, at_least(v, 1)?) },
    Flag { name: "--journal-fsync-ms", hint: "milliseconds", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.durable.journal_fsync_ms, at_least(v, 0)?) },
    Flag { name: "--journal-segment-bytes", hint: "a size", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.durable.journal_segment_bytes, at_least(v, 1_024)?) },
    Flag { name: "--config-file", hint: "a path", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.durable.config_file, Some(v.into())) },
    Flag { name: "--latency-budget-ms", hint: "milliseconds", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.durable.latency_budget_ms, at_least(v, 1)?) },
    Flag { name: "--sink-http", hint: "a url", scope: DURABLE_MONITOR,
        apply: |o, v| {
            let url = valid(v, v.starts_with("http://"), "only http:// urls are supported")?;
            set(&mut o.sinks().http, url)
        } },
    Flag { name: "--sink-tcp", hint: "host:port", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sinks().tcp, valid(v, v.contains(':'), "expected host:port")?) },
    Flag { name: "--sink-retry-max-ms", hint: "milliseconds", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sinks().retry_max_ms, at_least(v, 1)?) },
    Flag { name: "--sink-buffer-bytes", hint: "a size", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sinks().buffer_bytes, at_least(v, 4_096)?) },
    Flag { name: "--route-critical", hint: "http|tcp|file", scope: DURABLE_MONITOR,
        apply: |o, v| {
            let target = one_of(v, &[("http", "http"), ("tcp", "tcp"), ("file", "file")])?;
            set(&mut o.sinks().route_critical, Some(target.into()))
        } },
    Flag { name: "--page-at", hint: "low|moderate|high", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sinks().page_at, one_of(v, &PAGE_LEVELS)?) },
    Flag { name: "--listen-syslog-tcp", hint: "host:port", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sources.syslog_tcp, addr(v)?) },
    Flag { name: "--listen-syslog-udp", hint: "host:port", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sources.syslog_udp, addr(v)?) },
    Flag { name: "--listen-http", hint: "host:port", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sources.http, addr(v)?) },
    Flag { name: "--tail", hint: "a path", scope: DURABLE_MONITOR,
        apply: |o, v| {
            o.sources.tails.push(v.into());
            Ok(())
        } },
    Flag { name: "--join", hint: "host:port", scope: DURABLE_MONITOR,
        apply: |o, v| set(&mut o.sources.join, addr(v)?) },
    Flag { name: "--node-id", hint: "a name", scope: DURABLE_MONITOR,
        apply: |o, v| {
            let ok = (1..=64).contains(&v.len());
            set(&mut o.sources.node_id, valid(v, ok, "must be 1..=64 characters")?)
        } },
    Flag { name: "--listen-cluster", hint: "host:port", scope: ROUTER,
        apply: |o, v| set(&mut o.listen_cluster, addr(v)?) },
    Flag { name: "--expect-nodes", hint: "a count", scope: ROUTER,
        apply: |o, v| set(&mut o.expect_nodes, Some(at_least(v, 1)?)) },
    Flag { name: "--heartbeat-ms", hint: "milliseconds", scope: ROUTER,
        apply: |o, v| set(&mut o.heartbeat_ms, Some(at_least(v, 1)?)) },
    Flag { name: "--dead-after-ms", hint: "milliseconds", scope: ROUTER,
        apply: |o, v| set(&mut o.dead_after_ms, Some(at_least(v, 1)?)) },
    Flag { name: "--rebalance-grace-ms", hint: "milliseconds", scope: ROUTER,
        apply: |o, v| set(&mut o.rebalance_grace_ms, Some(at_least(v, 1)?)) },
];

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliCommand, String> {
    let mut o = Opts::default();
    let mut given: Vec<&Flag> = Vec::new();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(CliCommand::Help);
        }
        if !arg.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag {arg}"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("{arg} needs {}", flag.hint))?;
        (flag.apply)(&mut o, value).map_err(|why| format!("invalid {arg} {value:?}: {why}"))?;
        given.push(flag);
    }
    let mut positional = positional.into_iter();
    let command = positional.next().ok_or(USAGE.to_string())?;
    if command == "help" {
        return Ok(CliCommand::Help);
    }
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command {command:?}\n\n{USAGE}"));
    }
    for flag in given {
        if !flag.scope.commands.contains(&command.as_str()) {
            return Err(format!(
                "{} is not supported by the {command} command (only by {})",
                flag.name,
                flag.scope.commands.join(", ")
            ));
        }
        // Network input, delivery and WAL tuning are journaled or
        // checkpointed under the state directory — meaningless without it.
        if flag.scope.needs_state_dir && o.state_dir.is_none() {
            return Err(format!("{} requires --state-dir", flag.name));
        }
    }
    if o.sources.join.is_some() != o.sources.node_id.is_some() {
        // The node name keys the router's acked high-water marks; a
        // default would silently collide across fleet members.
        return Err("--join and --node-id must be given together".to_string());
    }
    if let Some(sinks) = &o.durable.sinks {
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
    let durable = o.state_dir.map(|state_dir| DurableOptions {
        state_dir,
        ..o.durable
    });
    match command.as_str() {
        "parse" => Ok(CliCommand::Parse {
            logfile: positional.next().ok_or("parse needs a <logfile>")?,
            format: o.format,
        }),
        "calibrate" => Ok(CliCommand::Calibrate {
            logfile: positional.next().ok_or("calibrate needs a <logfile>")?,
        }),
        "train" => Ok(CliCommand::Train {
            logfile: positional.next().ok_or("train needs a <logfile>")?,
            checkpoint: o.checkpoint.ok_or("train needs --checkpoint <out>")?,
            format: o.format,
            observability: o.observability,
            trace_out: o.trace_out,
        }),
        "monitor" => {
            let logfile = positional.next();
            match (&logfile, o.sources.any()) {
                (None, false) => {
                    return Err("monitor needs a <logfile> (or network sources: \
                         --listen-syslog-tcp / --listen-syslog-udp / --listen-http / --tail)"
                        .to_string())
                }
                (Some(path), true) => {
                    return Err(format!(
                        "monitor takes either <logfile> or network sources, not both; \
                         follow {path} alongside the listeners with --tail {path}"
                    ))
                }
                _ => {}
            }
            Ok(CliCommand::Monitor {
                logfile,
                checkpoint: o.checkpoint.ok_or("monitor needs --checkpoint <in>")?,
                format: o.format,
                fault: o.fault,
                observability: o.observability,
                trace_out: o.trace_out,
                durable,
                sources: o.sources.any().then_some(o.sources),
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
                listen: o
                    .listen_cluster
                    .unwrap_or_else(|| "127.0.0.1:0".parse().expect("static addr")),
                expect_nodes: o.expect_nodes.unwrap_or(1),
                state_dir: opts.state_dir,
                batch_lines: opts.batch_lines.unwrap_or(64),
                heartbeat_ms: o.heartbeat_ms.unwrap_or(250),
                dead_after_ms: o.dead_after_ms.unwrap_or(1_500),
                rebalance_grace_ms: o.rebalance_grace_ms.unwrap_or(500),
            })
        }
        _ => unreachable!("checked against COMMANDS"),
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

/// The metrics endpoint `--metrics-addr` asks for, if any.
fn metrics_endpoint(
    monilog: &MoniLog,
    observability: ObservabilityConfig,
    ops: Option<&OpsState>,
) -> Option<MetricsEndpoint> {
    Some(MetricsEndpoint {
        addr: observability.metrics_addr?,
        interval: std::time::Duration::from_millis(observability.metrics_interval_ms),
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
    out: &mut String,
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
    out: &mut String,
) -> Result<(), String> {
    let Some(path) = trace_out else {
        return Ok(());
    };
    std::fs::write(&path, tracer.chrome_trace_json())
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
            write_trace_out(&monilog.tracer(), trace_out, &mut out)?;
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
            let input = match &sources {
                Some(src) => MonitorInput::Network(src),
                None => MonitorInput::File(logfile.as_deref().ok_or("monitor needs a <logfile>")?),
            };
            match (durable, input) {
                (Some(opts), input) => {
                    run_monitor_runtime(config, &blob, input, &opts, trace_out, &mut out)?
                }
                (None, MonitorInput::Network(_)) => {
                    return Err("network sources require --state-dir".to_string())
                }
                (None, MonitorInput::File(logfile)) => {
                    let mut monilog = MoniLog::restore(config, &blob)
                        .map_err(|e| format!("invalid checkpoint: {e}"))?;
                    let _exporter = spawn_exporter(&monilog, observability, None, &mut out)?;
                    let lines = read_lines(logfile)?;
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
                    write_trace_out(&monilog.tracer(), trace_out, &mut out)?;
                }
            }
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
        let out = &mut self.text;
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
    use monilog_stream::sinks::{
        DeliveryConfig, FileSink, FramedTcpSink, RouteSpec, WebhookSink, FILE_RETAIN,
        FILE_ROTATE_BYTES,
    };

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
    let mut classes = vec![DeliveryClass::Log];
    if critical == "file" {
        classes.push(DeliveryClass::Page);
    }

    let mut config = DeliveryConfig::new("overridden-by-open");
    config.retry.max_backoff = std::time::Duration::from_millis(opts.retry_max_ms);
    config.buffer_spill_bytes = opts.buffer_bytes;
    let mut setup = DeliverySetup::new(config, move |metrics| {
        let file_sink = FileSink::open(
            &file_path,
            FILE_ROTATE_BYTES,
            FILE_RETAIN,
            Arc::clone(metrics),
        )
        .map_err(|e| format!("open file sink: {e}"))?;
        specs.push(RouteSpec {
            name: "file".into(),
            classes,
            sink: Box::new(file_sink),
        });
        Ok(specs)
    });
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
        server: Option<&SourcesServer>,
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

/// What a durable monitor run reads.
enum MonitorInput<'a> {
    /// A `<logfile>`: line `i` is seq `i + 1` of source 0, as in the WAL
    /// of every earlier run against the same state directory.
    File(&'a str),
    /// Listeners, tails and the router link.
    Network(&'a SourcesOptions),
}

/// The durable monitor (`--state-dir`): one loop over a log file or the
/// network sources, every line journaled to the WAL before the pipeline
/// acts on it, and nothing it produces released before the WAL fsync.
/// The model checkpoint (`--checkpoint`) seeds the pipeline only on the
/// first run against a state directory; afterwards the durable
/// checkpoint wins. Tail cursors are written into the checkpoint manifest
/// *before* the line they account for is ingested, so a checkpoint cut
/// mid-batch pairs consistently.
///
/// A file run ends at end of file; a network run at SIGTERM/SIGINT
/// (graceful drain; a *second* signal forces an immediate exit with status
/// 130 whose WAL suffix replays on the next start), or at a router `Fin`
/// when the router link is its only input. Two env hooks for tests and
/// gates: `MONILOG_IDLE_EXIT_MS` finishes a network run after that long
/// with no queued lines, and `MONILOG_DRAIN_HOLD_MS` holds the drain open
/// before the final checkpoint so a forced exit can be exercised.
fn run_monitor_runtime(
    config: MoniLogConfig,
    model_blob: &[u8],
    input: MonitorInput<'_>,
    opts: &DurableOptions,
    trace_out: Option<String>,
    out: &mut String,
) -> Result<(), String> {
    use crate::durable::{encode_tail_cursors, SOURCES_SECTION};
    use std::time::{Duration, Instant};

    monilog_stream::install_shutdown_handler();
    let state_dir = std::path::Path::new(&opts.state_dir);
    let delivery = match &opts.sinks {
        Some(sinks) => Some(build_delivery(sinks, state_dir)?),
        None => None,
    };
    let (mut durable, mut stats) = DurableMoniLog::open(
        config,
        opts.to_config(),
        || MoniLog::restore(config, model_blob).map_err(|e| format!("invalid checkpoint: {e}")),
        delivery,
    )?;
    let mut ops = build_ops(&mut durable, &config, opts, out)?;
    // Network sources serve `/metrics` from their own event loop.
    let _exporter = match input {
        MonitorInput::File(_) => spawn_exporter(
            durable.pipeline(),
            config.observability,
            Some(&ops.ops),
            out,
        )?,
        MonitorInput::Network(_) => None,
    };
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

    let (mut lines, mut server, queue, mut cursors) = match input {
        MonitorInput::File(logfile) => {
            let lines = read_lines(logfile)?;
            let skip = durable.next_seq(SourceId(0)) - 1;
            if skip > 0 {
                let _ = writeln!(out, "input: skipping {skip} lines already journaled");
            }
            (lines.into_iter().enumerate(), None, None, Vec::new())
        }
        MonitorInput::Network(src) => {
            let (server, queue, cursors) =
                spawn_sources(src, &config, &durable, &ops.ops, state_dir, out)?;
            let lines = Vec::new().into_iter().enumerate();
            (lines, Some(server), Some(queue), cursors)
        }
    };
    let depth = || queue.as_ref().map_or(0, |q| q.depth() as u64);
    // Fleet membership: the link supervisor rides the sources event loop;
    // the mailbox is this thread's window into it.
    let mailbox = server.as_ref().and_then(|s| s.cluster_mailbox());
    ops.mailbox = mailbox.clone();
    let router_only = matches!(input, MonitorInput::Network(src) if src.router_only());
    let mut known_templates = durable.pipeline().templates().len();

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
    ops.publish_status(&durable, depth());
    loop {
        // On the first SIGTERM/SIGINT the server is dropped immediately (no
        // source can accept more input) but the queue keeps draining: lines a
        // source already acknowledged must reach the pipeline before the final
        // checkpoint, or a graceful drain would silently lose them. The
        // unread rest of a file is left to the next run.
        if !drained && monilog_stream::shutdown_requested() {
            drained = true;
            server = None;
            lines = Vec::new().into_iter().enumerate();
        }
        // One consult per batch: a reload lands between batches, never
        // mid-line — zero restart, zero dropped lines.
        let snap = ops.poll_reload(&mut durable, server.as_ref(), out);
        let deadline = Duration::from_millis(snap.batch_deadline_ms.max(1));
        let batch = match &queue {
            Some(queue) => queue.recv_batch(
                snap.batch_lines,
                durable
                    .commit_due_in()
                    .map_or(deadline, |due| due.min(deadline)),
            ),
            None => lines
                .by_ref()
                .take(snap.batch_lines)
                .map(|(i, line)| SourceEvent {
                    source: SourceId(0),
                    line: line.into(),
                    cursor: None,
                    seq: Some(i as u64 + 1),
                })
                .collect(),
        };
        ops.publish_status(&durable, depth());
        if batch.is_empty() {
            if drained || queue.is_none() {
                break;
            }
            // Honor the group-commit interval in wall-clock time: without
            // this, a stream that goes quiet leaves its last burst
            // unsynced and its reports held until the next line arrives.
            reports.extend(&durable.tick()?);
            if let Some(mb) = &mailbox {
                cluster_roundup(mb, &mut durable, &mut known_templates, out);
                // A router `Fin` ends a file-driven run — but only once
                // every delivered batch is journaled and acked, and only
                // when the link is this monitor's sole input.
                if router_only && mb.fin_received() && mb.unacked_batches() == 0 && depth() == 0 {
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
                // An explicit seq (a file line number, a router wire seq):
                // journal under exactly this seq. Anything at or below the
                // per-source high-water mark was journaled by a previous
                // life (or an earlier delivery) and replays here as a
                // duplicate — at-least-once on the wire, exactly-once in
                // the journal.
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
        // Nothing queued: apply the journaled lines now, in time the loop
        // would otherwise spend blocked on the queue, so the group commit
        // only fsyncs and releases their reports. A file never drains, so
        // a file run applies at the commit alone.
        if queue.as_ref().is_some_and(|q| q.depth() == 0) {
            durable.catch_up();
        }
    }

    // Stop accepting before the final checkpoint: no source can add lines
    // the checkpoint won't cover. (Already dropped if a drain was
    // requested; the idle-exit path lands here with it still live.)
    drop(server);
    // Quiesce: apply everything pending and fsync the WAL *before* the
    // final checkpoint. From here on even a forced (second-signal) exit
    // loses nothing a source acknowledged — the restart replays it.
    reports.extend(&durable.sync_wal()?);
    if let Ok(ms) = std::env::var("MONILOG_DRAIN_HOLD_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    // Keep tracer/metrics handles: drain/finish consume the pipeline.
    let tracer = durable.pipeline().tracer();
    let metrics = durable.pipeline().metrics();
    let delivery_attached = durable.delivery().is_some();
    let (tail_reports, generation) = if drained {
        durable.drain()?
    } else {
        durable.finish()?
    };
    reports.extend(&tail_reports);
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
    let from = queue.map_or("", |_| " from network sources");
    let _ = writeln!(
        out,
        "monitored {processed} lines{from}: {} anomalies (checkpoint generation {generation})",
        reports.count
    );
    out.push_str(&reports.text);
    write_trace_out(&tracer, trace_out, out)
}

/// Bring up the network sources of a durable run: TCP/UDP syslog, HTTP
/// bulk ingest, file tails and the router link, multiplexed on one event
/// loop that also serves `/metrics` and the ops surface. Tails resume
/// from the cursors in the recovered checkpoint, which land in `cursors`.
fn spawn_sources(
    src: &SourcesOptions,
    config: &MoniLogConfig,
    durable: &DurableMoniLog,
    ops: &OpsState,
    state_dir: &std::path::Path,
    out: &mut String,
) -> Result<(SourcesServer, SourceQueue, Vec<PersistedTailCursor>), String> {
    use crate::durable::{decode_tail_cursors, SOURCES_SECTION};
    use monilog_stream::sources::{
        glob_match, GlobResume, TailCursor, TailGlobSpec, TailSpec, TAIL_SOURCE_BASE,
    };
    use monilog_stream::{DeadLetterLog, SourcesConfig};

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
    let mut cursors = Vec::new();
    let skip_for = |slot: usize, last_seq: u64| {
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
                spec.skip_lines = skip_for(index, c.last_seq);
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
                skip_lines: skip_for(c.index, c.last_seq),
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
            DeadLetterLog::open(
                state_dir.join("sources_dead_letter.jsonl"),
                1 << 20,
                durable.pipeline().metrics(),
            )
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
    let endpoint = metrics_endpoint(durable.pipeline(), config.observability, Some(ops));
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

    if let Some(mb) = server.cluster_mailbox() {
        let _ = writeln!(
            out,
            "cluster: joining router at {} as node {}",
            src.join.expect("join implies addr"),
            mb.node()
        );
    }
    Ok((server, queue, cursors))
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
    use monilog_model::{parse_header, Timestamp};
    let hf = format.to_config().as_format();
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

    /// `USAGE` and [`FLAGS`] describe the same surface: every flag parses
    /// for each command the table scopes it to and is listed in a `USAGE`
    /// paragraph naming that command, and every `--flag` in `USAGE` is in
    /// the table.
    #[test]
    fn every_usage_flag_parses_for_a_command_it_is_listed_under() {
        let paragraphs: Vec<Vec<&str>> = USAGE
            .split("\n\n")
            .map(|p| {
                p.split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                    .collect()
            })
            .collect();
        for flag in FLAGS {
            for &command in flag.scope.commands {
                let listed = paragraphs
                    .iter()
                    .any(|words| words.contains(&flag.name) && words.contains(&command));
                assert!(
                    listed,
                    "USAGE lists {} under no {command} paragraph",
                    flag.name
                );
                let argv = invocation(command, flag.name);
                let parsed = parse_args(&args(&argv));
                assert!(parsed.is_ok(), "{argv:?}: {parsed:?}");
            }
        }
        for word in paragraphs.iter().flatten() {
            if word.starts_with("--") && word.len() > 2 {
                assert!(
                    FLAGS.iter().any(|f| f.name == *word),
                    "USAGE lists {word}, which the flag table lacks"
                );
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

    #[test]
    fn train_on_a_file_no_line_of_which_parses_is_an_error() {
        let dir = std::env::temp_dir().join("monilog_cli_unparsable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let logfile = dir.join("bad.log");
        std::fs::write(&logfile, "hello world\nno header here\n").unwrap();
        let err = run(CliCommand::Train {
            logfile: logfile.to_string_lossy().into_owned(),
            checkpoint: dir.join("m.mlcp").to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
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
        run(CliCommand::Train {
            logfile: train_file.to_string_lossy().into_owned(),
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            observability: ObservabilityConfig::default(),
            trace_out: None,
        })
        .expect("training succeeds");
        let monitor = |logfile: Option<&std::path::Path>, sources| CliCommand::Monitor {
            logfile: logfile.map(|p| p.to_string_lossy().into_owned()),
            sources,
            checkpoint: ckpt.to_string_lossy().into_owned(),
            format: HeaderChoice::Dash,
            fault: FaultToleranceConfig::default(),
            observability: ObservabilityConfig::default(),
            trace_out: None,
            durable: Some(DurableOptions {
                state_dir: state_dir.to_string_lossy().into_owned(),
                sinks: Some(SinkOptions::default()),
                ..DurableOptions::default()
            }),
        };
        // Two file runs leave checkpoint generations 1 and 2.
        for _ in 0..2 {
            let report = run(monitor(Some(&live_file), None)).expect("file run succeeds");
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
        let sources = SourcesOptions {
            syslog_tcp: Some("127.0.0.1:0".parse().unwrap()),
            ..SourcesOptions::default()
        };
        let report = run(monitor(None, Some(sources))).expect("network run succeeds");
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
}
