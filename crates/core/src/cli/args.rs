//! Argv: the flag table, and `--help` rendered from it.

use super::CliCommand;
use crate::{DurableConfig, ObservabilityConfig};
use monilog_model::HeaderFormat;
use monilog_stream::ops::{apply_key, at_least};
use monilog_stream::sinks::DeliveryConfig;
use monilog_stream::sources::TailGlobSpec;
use monilog_stream::{
    ConfigSnapshot, RouterConfig, RouterLinkConfig, SourcesConfig, DEFAULT_LATENCY_BUDGET_MS,
};
use std::net::SocketAddr;

/// Local listeners or tails, as opposed to the router link.
fn local_input(src: &SourcesConfig) -> bool {
    src.syslog_tcp.is_some()
        || src.syslog_udp.is_some()
        || src.http.is_some()
        || !src.tail_globs.is_empty()
}

/// A fleet member with no local listeners: its only input is the router
/// link, so a router `Fin` ends the run.
pub(super) fn router_only(src: &SourcesConfig) -> bool {
    src.router.is_some() && !local_input(src)
}

/// Durability flags: `--state-dir`, the WAL and checkpoint tuning (parsed
/// straight into [`DurableConfig`]), delivery and the ops surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// The state directory, checkpoint cadence and journal tuning.
    pub config: DurableConfig,
    /// Outbound anomaly delivery (`--sink-http` / `--sink-tcp` and
    /// friends); `None` keeps reports local to `anomalies.jsonl`.
    pub sinks: Option<SinkOptions>,
    /// Runtime config file re-read on SIGHUP (`--config-file`); only the
    /// reloadable keys are accepted.
    pub config_file: Option<String>,
    /// Per-stage p99 budget that flips `/status` to degraded, in
    /// milliseconds (`--latency-budget-ms`).
    pub latency_budget_ms: u64,
}

impl DurableOptions {
    /// Every default, under `state_dir`.
    pub fn new(state_dir: impl Into<std::path::PathBuf>) -> DurableOptions {
        DurableOptions {
            config: DurableConfig::new(state_dir),
            sinks: None,
            config_file: None,
            latency_budget_ms: DEFAULT_LATENCY_BUDGET_MS,
        }
    }
}

/// Outbound delivery flags (`--sink-http`, `--sink-tcp`,
/// `--sink-buffer-bytes`). All of them require `--state-dir`: delivery is
/// disk-buffered and its cursors live in the durable checkpoint. The
/// delivery settings a reload can change (`page-at`, `route-critical`,
/// `sink-retry-max-ms`) live in the monitor's [`ConfigSnapshot`]; their
/// flags turn delivery on too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkOptions {
    /// Webhook endpoint for page-level reports (`http://host:port/path`).
    pub http: Option<String>,
    /// Length-framed TCP endpoint (`host:port`).
    pub tcp: Option<String>,
    /// Buffer, retry and breaker tuning (`--sink-buffer-bytes` sets
    /// `buffer_spill_bytes`). Its `dir` is set when the state directory
    /// opens; the retry cap comes from the settings snapshot.
    pub delivery: DeliveryConfig,
}

impl Default for SinkOptions {
    fn default() -> SinkOptions {
        SinkOptions {
            http: None,
            tcp: None,
            delivery: DeliveryConfig::new(""),
        }
    }
}

impl SinkOptions {
    /// The sinks delivery runs, most interactive first: what
    /// `route-critical` may name ([`ConfigSnapshot::page_sink`]). The file
    /// sink always runs.
    pub(super) fn names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.http.is_some() {
            names.push("http");
        }
        if self.tcp.is_some() {
            names.push("tcp");
        }
        names.push("file");
        names
    }
}

/// The commands `parse_args` knows, in synopsis order.
pub(super) const COMMANDS: [&str; 5] = ["parse", "calibrate", "train", "monitor", "router"];

/// What `--help` opens with: the commands and what each is for.
const SYNOPSIS: &str = "\
monilog — automated log-based anomaly detection (MoniLog, ICDE 2021)

USAGE:
    monilog parse     <logfile> [--format dash|syslog|bare]
    monilog calibrate <logfile>
    monilog train     <logfile> --checkpoint <out> [options]
    monilog monitor   <logfile> --checkpoint <in>  [options]
    monilog router    <logfile>... --state-dir <dir> [options]

  parse      discover and print the log templates of <logfile>
  calibrate  auto-parametrize the parser on <logfile> (no labels needed)
  train      fit the anomaly detector on <logfile> (assumed normal) and
             write a restartable checkpoint
  monitor    restore a checkpoint and report anomalies found in <logfile>
  router     partition log sources across a fleet of monitors
             (`monitor --join`), with node-kill recovery and replay

Each option ends with the commands that take it.
";

/// Follows the network-source options.
const BACKPRESSURE: &str = "  \
Backpressure at the source boundary follows --on-overload: block pauses
  TCP reads and tails (HTTP answers 429, UDP drops), shed drops and counts,
  dead-letter diverts raw lines to <state-dir>/sources_dead_letter.jsonl.
  A second SIGTERM/SIGINT during the graceful drain forces an immediate
  exit (status 130); the WAL replays the difference on the next start.
";

/// Follows the fleet options.
const FLEET: &str = "  \
A killed monitor's unacked batches replay to the surviving owner; a
  restarted monitor rejoins by name and receives a warm template snapshot.
  Template stores reconcile fleet-wide through the router (Logan-style
  merge).
";

/// A group of `--help` rows: its title, and the prose that follows them.
type Section = (&'static str, &'static str);

const INPUT: Section = ("input and model options:", "");
const BATCHING: Section = ("overload and batching options:", "");
const OBSERVABILITY: Section = ("observability options:", "");
const DURABILITY: Section = ("durability options:", "");
const OPS: Section = (
    "ops surface (rides the --metrics-addr listener — GET /status, /readyz,\n\
     /reports, /reports/{id} and GET|POST /config serve live health, recent\n\
     anomalies and hot config):",
    "",
);
const DELIVERY: Section = ("delivery options:", "");
const SOURCES: Section = (
    "network sources (monitor; <logfile> then optional):",
    BACKPRESSURE,
);
const FLEET_SECTION: Section = ("distributed fleet:", FLEET);

/// Where a flag means something: the commands that use it, and whether it
/// needs `--state-dir` (what it tunes or feeds is journaled or checkpointed
/// there).
pub(super) struct Scope {
    pub(super) commands: &'static [&'static str],
    pub(super) needs_state_dir: bool,
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
pub(super) struct Flag {
    pub(super) name: &'static str,
    /// What the value looks like, in `--help` and the "needs" error.
    value: &'static str,
    help: &'static str,
    section: Section,
    pub(super) scope: Scope,
    /// Check the value and store it; an `Err` says why it is invalid.
    apply: fn(&mut Opts, &str) -> Result<(), String>,
}

/// Everything argv can set, before it is shaped into a [`CliCommand`].
struct Opts {
    checkpoint: Option<String>,
    format: HeaderFormat,
    /// The seven reloadable settings, each set by its flag.
    settings: ConfigSnapshot,
    observability: ObservabilityConfig,
    trace_out: Option<String>,
    /// Every durable option; used only if `--state-dir` was given.
    durable: DurableOptions,
    /// The listeners and tails; the router link is built from `join`
    /// and `node_id`, which may come in either order.
    sources: SourcesConfig,
    join: Option<SocketAddr>,
    node_id: Option<String>,
    router: RouterConfig,
    expect_nodes: usize,
}

impl Opts {
    /// The delivery options: any delivery flag turns delivery on.
    fn sinks(&mut self) -> &mut SinkOptions {
        self.durable.sinks.get_or_insert_with(SinkOptions::default)
    }

    /// Set a reloadable delivery setting; its flag turns delivery on.
    fn delivery_setting(&mut self, key: &str, value: &str) -> Result<(), String> {
        self.sinks();
        apply_key(&mut self.settings, key, value)
    }
}

fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

fn addr(value: &str) -> Result<SocketAddr, String> {
    value.parse().map_err(|_| "expected host:port".to_string())
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

/// Every flag: its value, help text and `--help` section, the commands
/// that take it, and how its value is checked and stored. `--help` is
/// rendered from this table ([`usage`]). The seven reloadable settings are
/// parsed by [`apply_key`] under the flag's name minus `--`, as a reload
/// parses them.
#[rustfmt::skip]
pub(super) const FLAGS: &[Flag] = &[
    Flag { name: "--checkpoint", value: "<path>", section: INPUT, scope: TRAIN_MONITOR,
        help: "model checkpoint: train writes it, monitor restores it",
        apply: |o, v| set(&mut o.checkpoint, Some(v.into())) },
    Flag { name: "--format", value: "dash|syslog|bare", section: INPUT,
        scope: PARSE_TRAIN_MONITOR,
        help: "header layout of the input lines (default dash)",
        apply: |o, v| set(&mut o.format, one_of(v, &HeaderFormat::NAMES)?) },
    Flag { name: "--on-overload", value: "block|shed|dead-letter", section: BATCHING,
        scope: MONITOR,
        help: "what a network source does when the ingest queue is full (default block; \
               no effect on file input)",
        apply: |o, v| apply_key(&mut o.settings, "on-overload", v) },
    Flag { name: "--batch-lines", value: "<n>", section: BATCHING,
        scope: DURABLE_MONITOR_ROUTER,
        help: "most lines the monitor loop takes from the ingest queue per batch \
               (default 512); the router's lines per wire batch (default 64)",
        apply: |o, v| {
            apply_key(&mut o.settings, "batch-lines", v)?;
            set(&mut o.router.batch_lines, o.settings.batch_lines)
        } },
    Flag { name: "--batch-deadline-ms", value: "<n>", section: BATCHING, scope: DURABLE_MONITOR,
        help: "how long the monitor loop waits for a batch to fill (default 50)",
        apply: |o, v| apply_key(&mut o.settings, "batch-deadline-ms", v) },
    Flag { name: "--metrics-addr", value: "<host:port>", section: OBSERVABILITY,
        scope: TRAIN_MONITOR,
        help: "serve Prometheus + JSON metrics, /trace/{id} and /flight over HTTP while \
               the run lasts",
        apply: |o, v| set(&mut o.observability.metrics_addr, Some(addr(v)?)) },
    Flag { name: "--trace-sample-rate", value: "<n>", section: OBSERVABILITY,
        scope: TRAIN_MONITOR,
        help: "trace 1 line in n end-to-end (default 1024; 0 disables)",
        apply: |o, v| apply_key(&mut o.settings, "trace-sample-rate", v) },
    Flag { name: "--flight-capacity", value: "<n>", section: OBSERVABILITY,
        scope: TRAIN_MONITOR,
        help: "span slots in the flight-recorder ring (default 4096)",
        apply: |o, v| set(&mut o.observability.flight_capacity, at_least(v, 1)?) },
    Flag { name: "--trace-out", value: "<path>", section: OBSERVABILITY, scope: TRAIN_MONITOR,
        help: "write recorded spans as Chrome trace-event JSON after the run",
        apply: |o, v| set(&mut o.trace_out, Some(v.into())) },
    Flag { name: "--state-dir", value: "<dir>", section: DURABILITY, scope: MONITOR_ROUTER,
        help: "journal input to a WAL and checkpoint full pipeline state so a restart \
               (even after SIGKILL) resumes exactly where it left off; SIGTERM/ctrl-c \
               drain gracefully; the router keeps its retention buffers here",
        apply: |o, v| set(&mut o.durable.config.state_dir, v.into()) },
    Flag { name: "--checkpoint-interval-ms", value: "<n>", section: DURABILITY,
        scope: DURABLE_MONITOR,
        help: "full-state checkpoint cadence (default 5000)",
        apply: |o, v| set(&mut o.durable.config.checkpoint_interval_ms, at_least(v, 1)?) },
    Flag { name: "--journal-fsync-ms", value: "<n>", section: DURABILITY, scope: DURABLE_MONITOR,
        help: "WAL group-commit interval (default 50; 0 fsyncs every line)",
        apply: |o, v| set(&mut o.durable.config.journal.fsync_interval_ms, at_least(v, 0)?) },
    Flag { name: "--journal-segment-bytes", value: "<n>", section: DURABILITY,
        scope: DURABLE_MONITOR,
        help: "WAL segment rotation threshold (default 8388608)",
        apply: |o, v| set(&mut o.durable.config.journal.segment_bytes, at_least(v, 1_024)?) },
    Flag { name: "--config-file", value: "<path>", section: OPS, scope: DURABLE_MONITOR,
        help: "runtime config re-read on SIGHUP (key=value lines, reloadable keys only: \
               on-overload, trace-sample-rate, page-at, route-critical, batch-lines, \
               batch-deadline-ms, sink-retry-max-ms); applied once at startup when \
               present; each key takes exactly its flag's values",
        apply: |o, v| set(&mut o.durable.config_file, Some(v.into())) },
    Flag { name: "--latency-budget-ms", value: "<n>", section: OPS, scope: DURABLE_MONITOR,
        help: "per-stage p99 budget that flips /status to degraded (default 250)",
        apply: |o, v| set(&mut o.durable.latency_budget_ms, at_least(v, 1)?) },
    Flag { name: "--sink-http", value: "<url>", section: DELIVERY, scope: DURABLE_MONITOR,
        help: "POST anomaly reports (ndjson) to this webhook; healthchecked via GET /healthz",
        apply: |o, v| {
            let url = valid(v, v.starts_with("http://"), "only http:// urls are supported")?;
            set(&mut o.sinks().http, url)
        } },
    Flag { name: "--sink-tcp", value: "<host:port>", section: DELIVERY, scope: DURABLE_MONITOR,
        help: "stream reports over length-framed TCP with per-report acks",
        apply: |o, v| set(&mut o.sinks().tcp, valid(v, v.contains(':'), "expected host:port")?) },
    Flag { name: "--sink-retry-max-ms", value: "<n>", section: DELIVERY, scope: DURABLE_MONITOR,
        help: "cap on the exponential retry backoff (default 5000; at least 1)",
        apply: |o, v| o.delivery_setting("sink-retry-max-ms", v) },
    Flag { name: "--sink-buffer-bytes", value: "<n>", section: DELIVERY, scope: DURABLE_MONITOR,
        help: "per-route delivery buffer cap before the oldest reports spill to a local \
               file (default 67108864)",
        apply: |o, v| set(&mut o.sinks().delivery.buffer_spill_bytes, at_least(v, 4_096)?) },
    Flag { name: "--route-critical", value: "http|tcp|file|none", section: DELIVERY,
        scope: DURABLE_MONITOR,
        help: "which sink receives page-level reports (none, the default: http if given, \
               else tcp, else file)",
        apply: |o, v| o.delivery_setting("route-critical", v) },
    Flag { name: "--page-at", value: "low|moderate|high", section: DELIVERY,
        scope: DURABLE_MONITOR,
        help: "criticality at or above which a report is page-level (default high; use low \
               while the criticality head is untrained)",
        apply: |o, v| o.delivery_setting("page-at", v) },
    Flag { name: "--listen-syslog-tcp", value: "<host:port>", section: SOURCES,
        scope: DURABLE_MONITOR,
        help: "accept RFC 3164/5424 syslog over TCP (LF or RFC 6587 octet-counted framing, \
               auto-detected); port 0 picks a free port, bound addrs are written to \
               <state-dir>/listen-addrs",
        apply: |o, v| set(&mut o.sources.syslog_tcp, Some(addr(v)?)) },
    Flag { name: "--listen-syslog-udp", value: "<host:port>", section: SOURCES,
        scope: DURABLE_MONITOR,
        help: "accept syslog datagrams over UDP",
        apply: |o, v| set(&mut o.sources.syslog_udp, Some(addr(v)?)) },
    Flag { name: "--listen-http", value: "<host:port>", section: SOURCES, scope: DURABLE_MONITOR,
        help: "accept newline-delimited log batches via POST /ingest (413 on oversized \
               bodies, 429 under overload)",
        apply: |o, v| set(&mut o.sources.http, Some(addr(v)?)) },
    Flag { name: "--tail", value: "<path>", section: SOURCES, scope: DURABLE_MONITOR,
        help: "follow a live log file; repeatable; resume cursors ride the durable \
               checkpoint so restarts never re-ingest; a basename glob ('dir/app-*.log', \
               quote it) also discovers matching files created while the monitor runs",
        apply: |o, v| {
            o.sources.tail_globs.push(TailGlobSpec::new(v));
            Ok(())
        } },
    Flag { name: "--join", value: "<host:port>", section: FLEET_SECTION, scope: DURABLE_MONITOR,
        help: "join a router: router-assigned sources flow through the same WAL as local \
               listeners; exactly-once end-to-end via per-source seq dedup across restarts",
        apply: |o, v| set(&mut o.join, Some(addr(v)?)) },
    Flag { name: "--node-id", value: "<name>", section: FLEET_SECTION, scope: DURABLE_MONITOR,
        help: "stable node name (required with --join); reuse it to rejoin with zero \
               duplicate lines",
        apply: |o, v| {
            let ok = (1..=64).contains(&v.len());
            set(&mut o.node_id, valid(v, ok, "must be 1..=64 characters")?)
        } },
    Flag { name: "--listen-cluster", value: "<host:port>", section: FLEET_SECTION, scope: ROUTER,
        help: "cluster listen address (default 127.0.0.1:0; the bound addr is written to \
               <state-dir>/listen-addrs)",
        apply: |o, v| set(&mut o.router.listen, addr(v)?) },
    Flag { name: "--expect-nodes", value: "<n>", section: FLEET_SECTION, scope: ROUTER,
        help: "monitors to wait for before routing starts (default 1)",
        apply: |o, v| set(&mut o.expect_nodes, at_least(v, 1)?) },
    Flag { name: "--heartbeat-ms", value: "<n>", section: FLEET_SECTION, scope: ROUTER,
        help: "heartbeat cadence (default 250)",
        apply: |o, v| set(&mut o.router.heartbeat_ms, at_least(v, 1)?) },
    Flag { name: "--dead-after-ms", value: "<n>", section: FLEET_SECTION, scope: ROUTER,
        help: "heartbeat silence after which a node is declared dead and its sources \
               rebalance (default 1500)",
        apply: |o, v| set(&mut o.router.dead_after_ms, at_least(v, 1)?) },
    Flag { name: "--rebalance-grace-ms", value: "<n>", section: FLEET_SECTION, scope: ROUTER,
        help: "base grace before a dead node's sources move; doubles per attempt with \
               jitter (default 500)",
        apply: |o, v| set(&mut o.router.rebalance_grace_ms, at_least(v, 1)?) },
];

/// Where a row's help text starts, and the width it wraps to.
const HELP_COLUMN: usize = 41;
const HELP_WIDTH: usize = 80;

/// `--help`: the synopsis, then every `FLAGS` row under its section,
/// its help text ending with the commands of its scope (and the
/// `--state-dir` it needs).
pub fn usage() -> String {
    let mut out = SYNOPSIS.to_string();
    let mut done: Vec<Section> = Vec::new();
    for flag in FLAGS {
        let (title, note) = flag.section;
        if done.contains(&flag.section) {
            continue;
        }
        done.push(flag.section);
        out.push('\n');
        out.push_str(title);
        out.push('\n');
        for row in FLAGS.iter().filter(|f| f.section == flag.section) {
            render_row(&mut out, row);
        }
        out.push_str(note);
    }
    out
}

/// One `--help` row: `--flag <value>`, then the help text and the scope
/// tag word-wrapped in the help column.
fn render_row(out: &mut String, flag: &Flag) {
    let mut tag = format!("[{}", flag.scope.commands.join(", "));
    if flag.scope.needs_state_dir {
        tag.push_str("; requires --state-dir");
    }
    tag.push(']');
    let mut line = format!("  {} {}", flag.name, flag.value);
    for word in flag.help.split_whitespace().chain([tag.as_str()]) {
        if line.len() < HELP_COLUMN {
            line = format!("{line:HELP_COLUMN$}{word}");
        } else if line.len() + 1 + word.len() <= HELP_WIDTH {
            line.push(' ');
            line.push_str(word);
        } else {
            out.push_str(&line);
            out.push('\n');
            line = format!("{:HELP_COLUMN$}{word}", "");
        }
    }
    out.push_str(&line);
    out.push('\n');
}

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliCommand, String> {
    let mut o = Opts {
        checkpoint: None,
        format: HeaderFormat::default(),
        settings: ConfigSnapshot::default(),
        observability: ObservabilityConfig::default(),
        trace_out: None,
        durable: DurableOptions::new(""),
        sources: SourcesConfig::default(),
        join: None,
        node_id: None,
        router: RouterConfig::default(),
        expect_nodes: 1,
    };
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
            .ok_or_else(|| format!("{arg} needs {}", flag.value))?;
        (flag.apply)(&mut o, value).map_err(|why| format!("invalid {arg} {value:?}: {why}"))?;
        given.push(flag);
    }
    let mut positional = positional.into_iter();
    let command = positional.next().ok_or_else(usage)?;
    if command == "help" {
        return Ok(CliCommand::Help);
    }
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command {command:?}\n\n{}", usage()));
    }
    let state_dir = given.iter().any(|f| f.name == "--state-dir");
    for flag in &given {
        if !flag.scope.commands.contains(&command.as_str()) {
            return Err(format!(
                "{} is not supported by the {command} command (only by {})",
                flag.name,
                flag.scope.commands.join(", ")
            ));
        }
        // Network input, delivery and WAL tuning are journaled or
        // checkpointed under the state directory — meaningless without it.
        if flag.scope.needs_state_dir && !state_dir {
            return Err(format!("{} requires --state-dir", flag.name));
        }
    }
    o.sources.router = match (o.join, o.node_id) {
        (Some(addr), Some(node)) => Some(RouterLinkConfig::new(addr, node)),
        (None, None) => None,
        // The node name keys the router's acked high-water marks; a
        // default would silently collide across fleet members.
        _ => return Err("--join and --node-id must be given together".to_string()),
    };
    // The check a reload makes: `route-critical` names a running sink.
    let sinks = o.durable.sinks.clone().unwrap_or_default();
    o.settings.page_sink(&sinks.names())?;
    let durable = state_dir.then_some(o.durable);
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
            // Train has no config snapshot: the rate goes to its tracer.
            observability: ObservabilityConfig {
                trace_sample_rate: o.settings.trace_sample_rate,
                ..o.observability
            },
            trace_out: o.trace_out,
        }),
        "monitor" => {
            let logfile = positional.next();
            let network = local_input(&o.sources) || o.sources.router.is_some();
            match (&logfile, network) {
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
                settings: o.settings,
                observability: o.observability,
                trace_out: o.trace_out,
                durable,
                sources: network.then_some(o.sources),
            })
        }
        "router" => {
            let logfiles: Vec<String> = positional.collect();
            if logfiles.is_empty() {
                return Err("router needs one or more <logfile> inputs".to_string());
            }
            let state_dir = durable
                .ok_or("router needs --state-dir for its retention buffers")?
                .config
                .state_dir;
            Ok(CliCommand::Router {
                logfiles,
                expect_nodes: o.expect_nodes,
                config: RouterConfig {
                    buffer_dir: state_dir.join("router-buffers"),
                    ..o.router
                },
                state_dir,
            })
        }
        _ => unreachable!("checked against COMMANDS"),
    }
}
