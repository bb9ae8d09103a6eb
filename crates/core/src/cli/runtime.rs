//! The durable monitor: one loop over a log file or the network sources,
//! with recovery, the ops surface, hot reload and the fleet link.

use super::args::{router_only, DurableOptions};
use super::delivery::{build_delivery, route_name, severity_router};
use super::{metrics_endpoint, read_lines, spawn_exporter, write_reports, write_trace_out};
use crate::durable::{DurableMoniLog, PersistedTailCursor};
use crate::{MoniLog, MoniLogConfig};
use monilog_model::{RawLog, SourceId};
use monilog_stream::durable::write_atomic;
use monilog_stream::{
    BreakerState, ConfigSnapshot, OpsState, PipelineMetrics, ReloadableConfig, ReportStore,
    SourceEvent, SourceQueue, SourcesConfig, SourcesServer, StatusBoard, StatusInputs,
    DEFAULT_REPORT_CAPACITY,
};
use std::io::Write;
use std::sync::Arc;

/// Map a settings snapshot onto the live components: the tracer's sample
/// rate, the sources' overload policy, the severity router, and the
/// delivery retry cap and page route. The boot snapshot (version 0) and
/// every reload take this one path.
pub(super) fn apply_settings(
    snap: &ConfigSnapshot,
    sinks: &[&'static str],
    durable: &mut DurableMoniLog,
    server: Option<&SourcesServer>,
) {
    durable
        .pipeline()
        .tracer()
        .set_sample_rate(snap.trace_sample_rate);
    if let Some(server) = server {
        server.set_overload_policy(snap.on_overload);
    }
    durable.set_router(severity_router(snap));
    if let Some(delivery) = durable.delivery() {
        delivery.set_retry_max_ms(snap.sink_retry_max_ms);
        // `build_delivery` and `ReloadableConfig` admit only snapshots
        // whose page sink runs.
        let sink = snap.page_sink(sinks).expect("page sink checked");
        delivery.set_page_route(route_name(sink));
    }
}

/// Assemble the live operations surface for a durable monitor: the
/// recent-reports ring (backfilled from `anomalies.jsonl`, then attached
/// so the emit path keeps feeding it), the `/status` mailbox, and the
/// hot-reloadable config with its audit trail.
fn build_ops(
    durable: &mut DurableMoniLog,
    settings: &ConfigSnapshot,
    opts: &DurableOptions,
    out: &mut dyn Write,
) -> Result<OpsDriver, String> {
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
        settings.clone(),
        opts.sinks.clone().unwrap_or_default().names(),
        Some(opts.config.state_dir.join("config-audit.log")),
        durable.pipeline().metrics(),
    );
    let ops = OpsState::new(reports, StatusBoard::shared(opts.latency_budget_ms), reload);
    let driver = OpsDriver {
        ops,
        config_file: opts.config_file.clone().map(Into::into),
        applied_version: None,
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
/// snapshot — the boot one first — into the tracer / sources / router /
/// delivery layer, and publishes fresh [`StatusInputs`] for `/status` and
/// `/readyz`.
struct OpsDriver {
    ops: OpsState,
    config_file: Option<std::path::PathBuf>,
    /// Last snapshot version pushed into the live components; `None`
    /// until the first poll pushes the boot snapshot.
    applied_version: Option<u64>,
    /// reports_spilled high-water mark from the previous publish; a delta
    /// means the delivery layer is actively spilling.
    spilled_seen: u64,
    /// Cluster mailbox for `--join` monitors; its link snapshot feeds the
    /// status rollup's cluster section and the `/readyz` degraded tier.
    mailbox: Option<std::sync::Arc<monilog_stream::ClusterMailbox>>,
}

impl OpsDriver {
    /// Consume a pending SIGHUP (re-reading `--config-file`) and apply
    /// the current snapshot if it is not the one applied last. Returns the
    /// snapshot in force so the caller can use its batch shape.
    fn poll_reload(
        &mut self,
        durable: &mut DurableMoniLog,
        server: Option<&SourcesServer>,
        out: &mut dyn Write,
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
        if self.applied_version != Some(snap.version) {
            apply_settings(&snap, self.ops.reload.sinks(), durable, server);
            self.applied_version = Some(snap.version);
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
pub(super) enum MonitorInput<'a> {
    /// A `<logfile>`: line `i` is seq `i + 1` of source 0, as in the WAL
    /// of every earlier run against the same state directory.
    File(&'a str),
    /// Listeners, tails and the router link.
    Network(&'a SourcesConfig),
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
///
/// `out` is flushed once per loop iteration, before the loop waits for
/// input: never per line, so a report storm costs one write per batch.
pub(super) fn run_monitor_runtime(
    config: MoniLogConfig,
    model_blob: &[u8],
    input: MonitorInput<'_>,
    settings: &ConfigSnapshot,
    opts: &DurableOptions,
    trace_out: Option<String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    use crate::durable::{encode_tail_cursors, SOURCES_SECTION};
    use std::time::{Duration, Instant};

    monilog_stream::install_shutdown_handler();
    let state_dir = opts.config.state_dir.as_path();
    let delivery = match &opts.sinks {
        Some(sinks) => Some(build_delivery(sinks, settings, state_dir)?),
        None => None,
    };
    let (mut durable, mut stats) = DurableMoniLog::open(
        config,
        opts.config.clone(),
        || MoniLog::restore(config, model_blob).map_err(|e| format!("invalid checkpoint: {e}")),
        delivery,
    )?;
    let mut ops = build_ops(&mut durable, settings, opts, out)?;
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
    let router_only = matches!(input, MonitorInput::Network(src) if router_only(src));
    let mut known_templates = durable.pipeline().templates().len();

    let idle_exit: Option<Duration> = std::env::var("MONILOG_IDLE_EXIT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis);
    let mut next: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
    let mut reports = write_reports(out, &std::mem::take(&mut stats.anomalies));
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
        // What the last batch printed goes out before the loop waits.
        let _ = out.flush();
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
            reports += write_reports(out, &durable.tick()?);
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
            reports += write_reports(out, &durable.ingest(&RawLog::new(ev.source, seq, ev.line))?);
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
    reports += write_reports(out, &durable.sync_wal()?);
    // A second signal from here on exits at once, without flushing.
    let _ = out.flush();
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
    reports += write_reports(out, &tail_reports);
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
        "monitored {processed} lines{from}: {reports} anomalies (checkpoint generation {generation})"
    );
    write_trace_out(&tracer, trace_out, out)
}

/// Bring up the network sources of a durable run: TCP/UDP syslog, HTTP
/// bulk ingest, file tails and the router link, multiplexed on one event
/// loop that also serves `/metrics` and the ops surface, under the
/// overload policy of the current config snapshot. Tails resume from the
/// cursors in the recovered checkpoint, which land in `cursors`.
pub(super) fn spawn_sources(
    src: &SourcesConfig,
    config: &MoniLogConfig,
    durable: &DurableMoniLog,
    ops: &OpsState,
    state_dir: &std::path::Path,
    out: &mut dyn Write,
) -> Result<(SourcesServer, SourceQueue, Vec<PersistedTailCursor>), String> {
    use crate::durable::{decode_tail_cursors, SOURCES_SECTION};
    use monilog_stream::sources::{TailGlobSpec, TAIL_SOURCE_BASE};
    use monilog_stream::DeadLetterLog;

    // Resume file tails from the checkpointed cursors. Lines journaled
    // after the cursor snapshot replayed from the WAL above; the tail
    // seeks to the cursor and skips exactly that many lines.
    let recovered = durable
        .recovered_section(SOURCES_SECTION)
        .map(decode_tail_cursors)
        .unwrap_or_default();
    let high_water = |slot: usize| {
        let source = SourceId(TAIL_SOURCE_BASE + slot as u16);
        durable.next_seq(source).saturating_sub(1)
    };
    let mut cursors = Vec::new();
    let mut tail_globs = Vec::new();
    for glob in &src.tail_globs {
        let known = tail_resumes(&glob.pattern, &recovered, high_water);
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
            pattern: glob.pattern.clone(),
            known,
        });
    }

    // Opened whenever sources run, since a reload may switch the policy
    // to dead-letter; the file appears with its first line.
    let dlq = DeadLetterLog::open(
        state_dir.join("sources_dead_letter.jsonl"),
        1 << 20,
        durable.pipeline().metrics(),
    )
    .map_err(|e| format!("open sources dead-letter log: {e}"))?;
    let sources_config = SourcesConfig {
        tail_globs,
        on_overload: ops.reload.current().on_overload,
        ..src.clone()
    };
    // `/metrics` rides the same event loop as the sources — one thread
    // serves every network endpoint.
    let endpoint = metrics_endpoint(durable.pipeline(), config.observability, Some(ops));
    let (server, queue) = SourcesServer::spawn(
        sources_config,
        durable.pipeline().registry(),
        Some(Arc::new(dlq)),
        endpoint,
    )
    .map_err(|e| format!("bind sources: {e}"))?;

    // The bound addresses (ports may have been 0), where both the operator
    // and the driving harness can find them.
    let bound = [
        ("syslog-tcp", server.syslog_tcp_addr()),
        ("syslog-udp", server.syslog_udp_addr()),
        ("http", server.http_addr()),
        ("metrics", server.metrics_addr()),
    ];
    let mut addrs = String::new();
    for (kind, addr) in bound {
        if let Some(addr) = addr {
            addrs.push_str(&format!("{kind} {addr}\n"));
            let _ = writeln!(out, "listening: {kind} {addr}");
        }
    }
    if let (Some(mb), Some(link)) = (server.cluster_mailbox(), &src.router) {
        let _ = writeln!(
            out,
            "cluster: joining router at {} as node {}",
            link.addr,
            mb.node()
        );
    }
    // Everything printed so far is out before `listen-addrs` tells a
    // harness the monitor is up.
    let _ = out.flush();
    write_atomic(&state_dir.join("listen-addrs"), addrs.as_bytes())
        .map_err(|e| format!("write listen-addrs: {e}"))?;
    Ok((server, queue, cursors))
}

/// The recovered cursors a `--tail` pattern resumes, path-keyed. Every
/// `--tail` is a pattern whose basename may carry `*`/`?`, a literal
/// basename being a one-file pattern, so a file keeps its slot — its
/// source id and journal seqs — whatever the order of the flags. A cursor
/// resumes when its file sits in the pattern's directory and matches the
/// basename; a bare name (`app.log`) lives in `.`, as the tail sees it.
/// `high_water(slot)` is the last seq journaled for that slot's source.
pub(super) fn tail_resumes(
    pattern: &std::path::Path,
    recovered: &[PersistedTailCursor],
    high_water: impl Fn(usize) -> u64,
) -> Vec<monilog_stream::GlobResume> {
    use monilog_stream::sources::{glob_match, GlobResume, TailCursor};
    use std::path::{Path, PathBuf};
    let dir_of = |path: &Path| match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let basename = pattern.file_name().and_then(|n| n.to_str()).unwrap_or("*");
    let dir = dir_of(pattern);
    recovered
        .iter()
        .filter_map(|c| {
            let path = Path::new(&c.path);
            let name = path.file_name()?.to_str()?;
            (dir_of(path) == dir && glob_match(basename, name)).then(|| GlobResume {
                slot: c.index,
                path: dir.join(name),
                resume: TailCursor {
                    inode: c.inode,
                    offset: c.offset,
                    last_seq: c.last_seq,
                },
                skip_lines: high_water(c.index).saturating_sub(c.last_seq),
            })
        })
        .collect()
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
    out: &mut dyn Write,
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
