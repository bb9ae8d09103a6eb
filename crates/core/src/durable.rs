//! Durable pipeline orchestration: WAL-gated ingestion, periodic
//! checkpoints, crash recovery, and graceful drain.
//!
//! [`DurableMoniLog`] wraps a [`MoniLog`] with the persistence substrate
//! from `monilog_stream::durable`, laid out under one state directory:
//!
//! ```text
//! <state-dir>/
//!   journal/         write-ahead segments, one series per source
//!   checkpoints/     generational state snapshots (two retained)
//!   anomalies.jsonl  every report ever emitted, one JSON line each
//!   delivery/        per-route outbound buffers and spill files
//! ```
//!
//! The contract is *journal first, apply second*: a raw line is appended
//! to the WAL, and only once the group commit fsyncs is it fed to the
//! pipeline. A crash therefore loses only lines the pipeline never acted
//! on; everything it did act on replays from the journal suffix after the
//! newest valid checkpoint. Replayed lines regenerate the same anomaly
//! reports deterministically (same event ids, same report ids), and the
//! `anomalies.jsonl` sink suppresses ids it has already recorded — so
//! across any number of kill/restart cycles every report is emitted
//! exactly once.
//!
//! Graceful drain ([`DurableMoniLog::drain`]) is the SIGTERM path: sync
//! the journal, apply what was pending, write a final checkpoint, and
//! stop — the next start replays zero lines. [`DurableMoniLog::finish`]
//! is the end-of-input path, which additionally flushes open windows.

use crate::{ClassifiedAnomaly, MoniLog, MoniLogConfig};
use monilog_classify::SeverityRouter;
use monilog_model::{CheckpointManifest, JournalPosition, RawLog, SourceId};
use monilog_stream::durable::{CheckpointStore, Journal, JournalConfig};
use monilog_stream::ops::StoredReport;
use monilog_stream::sinks::{
    decode_positions, encode_positions, BufferedReport, DeliveryConfig, DeliveryPipeline,
    DeliveryWorker, RouteSpec,
};
use monilog_stream::{PipelineMetrics, ReportStore, Stage};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the emitted-report sink file inside the state directory.
pub const ANOMALIES_FILE: &str = "anomalies.jsonl";
/// Name of the journal subdirectory inside the state directory.
pub const JOURNAL_DIR: &str = "journal";
/// Name of the checkpoint subdirectory inside the state directory.
pub const CHECKPOINTS_DIR: &str = "checkpoints";
/// Name of the delivery buffer subdirectory inside the state directory.
pub const DELIVERY_DIR: &str = "delivery";
/// Manifest section carrying delivery-buffer cursors across restarts.
pub const DELIVERY_SECTION: &str = "delivery";
/// Manifest section carrying file-tail cursors across restarts.
pub const SOURCES_SECTION: &str = "sources";

/// A persisted file-tail cursor: which file, how far into it, and the
/// journal seq of the last line ingested at that offset. Restart seeks to
/// `offset` and skips `journal_high_water - last_seq` lines — the lines
/// between the cursor snapshot and the journal tail, which replay from the
/// WAL instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedTailCursor {
    /// Index of the `--tail` flag this cursor belongs to.
    pub index: usize,
    /// Inode the cursor is valid for; a mismatch (rotation) restarts at 0.
    pub inode: u64,
    /// Byte offset of the first unread line.
    pub offset: u64,
    /// Journal seq of the last line ingested at `offset`.
    pub last_seq: u64,
    /// Path as configured, for operator-facing sanity checks.
    pub path: String,
}

/// Encode tail cursors for the [`SOURCES_SECTION`] manifest section. One
/// line per cursor, tab-separated — trivially versionable and greppable in
/// a hexdump of the checkpoint.
pub fn encode_tail_cursors(cursors: &[PersistedTailCursor]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in cursors {
        out.extend_from_slice(
            format!(
                "{}\t{}\t{}\t{}\t{}\n",
                c.index, c.inode, c.offset, c.last_seq, c.path
            )
            .as_bytes(),
        );
    }
    out
}

/// Decode the [`SOURCES_SECTION`] bytes. Damaged lines are skipped: a lost
/// cursor only costs a re-read guarded by journal-seq line skipping.
pub fn decode_tail_cursors(bytes: &[u8]) -> Vec<PersistedTailCursor> {
    let Ok(s) = std::str::from_utf8(bytes) else {
        return Vec::new();
    };
    s.lines()
        .filter_map(|line| {
            let mut parts = line.splitn(5, '\t');
            Some(PersistedTailCursor {
                index: parts.next()?.parse().ok()?,
                inode: parts.next()?.parse().ok()?,
                offset: parts.next()?.parse().ok()?,
                last_seq: parts.next()?.parse().ok()?,
                path: parts.next()?.to_string(),
            })
        })
        .collect()
}

/// Durability knobs surfaced through the CLI (`--state-dir`,
/// `--checkpoint-interval-ms`, `--journal-fsync-ms`,
/// `--journal-segment-bytes`).
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Root of the persistent state layout described in the module docs.
    pub state_dir: PathBuf,
    /// How often a full-state checkpoint is written, in milliseconds.
    pub checkpoint_interval_ms: u64,
    /// Journal group-commit and rotation tuning.
    pub journal: JournalConfig,
}

impl DurableConfig {
    /// Defaults for everything but the state directory.
    pub fn new(state_dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            state_dir: state_dir.into(),
            checkpoint_interval_ms: 5_000,
            journal: JournalConfig::default(),
        }
    }
}

/// Outbound anomaly delivery, wired into the durable pipeline.
///
/// When attached, the fresh reports of a commit batch are accepted into
/// the on-disk delivery buffers (`<state-dir>/delivery/`) *before* they
/// are committed to `anomalies.jsonl`, and a background worker — woken by
/// that accept — pumps the buffers toward the configured sinks. The
/// buffer cursors ride in the checkpoint manifest ([`DELIVERY_SECTION`]),
/// so a kill+restart resumes delivery where it stopped; a crash between
/// buffer-accept and sink-commit makes the replayed batch look fresh
/// again, which re-buffers it — the receiver's id dedup absorbs the
/// duplicates (at most one batch), and nothing is ever lost.
pub struct DeliverySetup {
    /// Buffer/retry/breaker tuning. `config.dir` is overridden to
    /// `<state-dir>/delivery` so all durable state shares one root.
    pub config: DeliveryConfig,
    /// Routes, first match wins; last route is the fallback.
    pub specs: Vec<RouteSpec>,
    /// Maps report criticality to a [`monilog_model::DeliveryClass`].
    pub router: SeverityRouter,
    /// Fallback wait of the background pump worker: it normally wakes on
    /// accept or when a retry falls due.
    pub worker_poll: Duration,
}

impl DeliverySetup {
    /// Delivery with default routing/poll and the given routes.
    pub fn new(config: DeliveryConfig, specs: Vec<RouteSpec>) -> DeliverySetup {
        DeliverySetup {
            config,
            specs,
            router: SeverityRouter::default(),
            worker_poll: Duration::from_millis(50),
        }
    }
}

/// What recovery found and did, for operator-facing startup output.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Generation of the checkpoint resumed from; `None` on a fresh start.
    pub resumed_generation: Option<u64>,
    /// True when the newest checkpoint was corrupt and an older
    /// generation was used instead.
    pub fell_back: bool,
    /// Journal lines re-ingested after the checkpoint.
    pub replayed_lines: u64,
    /// Wall-clock milliseconds the replay took.
    pub replay_ms: u64,
    /// Reports regenerated during replay that the sink had already
    /// emitted before the crash (the exactly-once suppression at work).
    pub suppressed_duplicates: u64,
    /// Reports the crash cut off before they reached the sink — emitted
    /// now, for the first time.
    pub anomalies: Vec<ClassifiedAnomaly>,
}

/// Append-only record of every report emitted, used to dedup reports
/// regenerated by journal replay. A torn tail (crash mid-append) is
/// truncated on open so the cut-off report re-emits in full.
struct EmittedSink {
    file: File,
    ids: HashSet<u64>,
}

impl EmittedSink {
    fn open(path: &Path) -> Result<EmittedSink, String> {
        let mut ids = HashSet::new();
        if path.exists() {
            let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let mut start = 0;
            let mut keep = 0u64;
            for (i, b) in bytes.iter().enumerate() {
                if *b == b'\n' {
                    if let Some(id) = report_id_of(&bytes[start..i]) {
                        ids.insert(id);
                    }
                    start = i + 1;
                    keep = (i + 1) as u64;
                }
            }
            if keep != bytes.len() as u64 {
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| format!("open {}: {e}", path.display()))?;
                f.set_len(keep)
                    .and_then(|()| f.sync_data())
                    .map_err(|e| format!("truncate torn sink tail: {e}"))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(EmittedSink { file, ids })
    }

    /// Partition `anomalies` into (never seen before, count suppressed).
    /// Marks the fresh ids as seen — pair with [`EmittedSink::commit`],
    /// which persists them. The split exists so a delivery buffer can
    /// accept the fresh reports *between* the two calls: a crash in that
    /// window replays the report as fresh (duplicate absorbed
    /// receiver-side) instead of silently skipping delivery.
    fn split_fresh(&mut self, anomalies: Vec<ClassifiedAnomaly>) -> (Vec<ClassifiedAnomaly>, u64) {
        let mut fresh = Vec::new();
        let mut suppressed = 0u64;
        for a in anomalies {
            if self.ids.insert(a.report.id) {
                fresh.push(a);
            } else {
                suppressed += 1;
            }
        }
        (fresh, suppressed)
    }

    /// Durably append the fresh reports' rendered lines to the sink file:
    /// one write, one fsync.
    fn commit(&mut self, rendered: &[String]) -> Result<(), String> {
        let mut buf = Vec::new();
        for json in rendered {
            buf.extend_from_slice(json.as_bytes());
            buf.push(b'\n');
        }
        self.file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("append anomaly sink: {e}"))
    }
}

/// Extract the id from a sink line without a JSON parser — the writer is
/// `AnomalyReport::to_json`, which always leads with `{"id":N,`.
fn report_id_of(line: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(line).ok()?;
    let rest = s.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The emit path shared by replay, commit and finish, called once per
/// batch: filter to fresh reports, render each once, durably *accept* them
/// into the delivery buffers (one fsync per route), then commit them to
/// the sink file (one fsync) — in that order. A crash after accept but
/// before commit leaves the batch both in the buffers and regenerable as
/// fresh (the sink never saw it); a crash that tears the sink append
/// leaves a prefix suppressed — and buffered, since accept came first —
/// and the rest fresh. Either way the worst case is one batch delivered
/// twice, which the receiver dedups; loss is impossible.
fn emit(
    sink: &mut EmittedSink,
    delivery: Option<&DeliveryPipeline>,
    router: &SeverityRouter,
    report_store: Option<&ReportStore>,
    produced: Vec<ClassifiedAnomaly>,
) -> Result<(Vec<ClassifiedAnomaly>, u64), String> {
    let (fresh, suppressed) = sink.split_fresh(produced);
    if fresh.is_empty() {
        return Ok((fresh, suppressed));
    }
    let rendered: Vec<String> = fresh.iter().map(|a| a.report.to_json()).collect();
    if let Some(pipe) = delivery {
        let reports = fresh
            .iter()
            .zip(&rendered)
            .map(|(a, json)| BufferedReport {
                id: a.report.id,
                class: router.class_for(a.assignment.criticality),
                body: json.clone(),
            })
            .collect();
        pipe.accept(reports)
            .map_err(|e| format!("delivery accept: {e}"))?;
    }
    #[cfg(test)]
    tests::crash_if_armed(sink, &rendered)?;
    sink.commit(&rendered)?;
    // Feed the queryable ops store last: it is a best-effort in-memory
    // view of the durable record, never load-bearing for exactly-once.
    if let Some(store) = report_store {
        for (a, json) in fresh.iter().zip(rendered) {
            store.record(StoredReport::from_rendered(
                &a.report,
                a.assignment.criticality,
                json,
            ));
        }
    }
    Ok((fresh, suppressed))
}

/// A [`MoniLog`] whose state survives process death.
pub struct DurableMoniLog {
    pipeline: MoniLog,
    config: MoniLogConfig,
    durable: DurableConfig,
    journal: Journal,
    store: CheckpointStore,
    sink: EmittedSink,
    /// Outbound delivery (buffers + pump worker), when configured.
    delivery: Option<DeliveryPipeline>,
    worker: Option<DeliveryWorker>,
    router: SeverityRouter,
    /// Queryable recent-report ring for the ops surface, when attached
    /// ([`DurableMoniLog::attach_report_store`]).
    report_store: Option<Arc<ReportStore>>,
    /// Per-source highest seq fed to the pipeline (== checkpointable).
    applied: HashMap<u16, u64>,
    /// Per-source highest seq appended to the journal (>= applied).
    journaled: HashMap<u16, u64>,
    /// Appended but not yet fsync'd — and therefore not yet applied.
    pending: Vec<RawLog>,
    /// Caller-owned manifest sections (e.g. [`SOURCES_SECTION`] tail
    /// cursors) written into every checkpoint.
    extra_sections: HashMap<String, Vec<u8>>,
    /// Extra sections found in the recovered checkpoint, for callers to
    /// read back at startup.
    recovered_sections: HashMap<String, Vec<u8>>,
    last_checkpoint: Instant,
    generation: u64,
}

impl DurableMoniLog {
    /// Open the state directory and recover: load the newest valid
    /// checkpoint (falling back one generation on corruption), replay the
    /// journal suffix, and suppress reports already emitted. When no
    /// checkpoint exists, `fresh` supplies the trained pipeline (e.g.
    /// restored from a model checkpoint written by `train`).
    pub fn open(
        config: MoniLogConfig,
        durable: DurableConfig,
        fresh: impl FnOnce() -> Result<MoniLog, String>,
    ) -> Result<(DurableMoniLog, RecoveryStats), String> {
        Self::open_with_delivery(config, durable, fresh, None)
    }

    /// [`DurableMoniLog::open`] with outbound anomaly delivery attached.
    /// The delivery buffers live under `<state-dir>/delivery/`; their
    /// cursors are recovered from the [`DELIVERY_SECTION`] of the
    /// checkpoint manifest, so reports accepted-but-undelivered before a
    /// SIGKILL are pumped again after restart.
    pub fn open_with_delivery(
        config: MoniLogConfig,
        durable: DurableConfig,
        fresh: impl FnOnce() -> Result<MoniLog, String>,
        delivery: Option<DeliverySetup>,
    ) -> Result<(DurableMoniLog, RecoveryStats), String> {
        fs::create_dir_all(&durable.state_dir)
            .map_err(|e| format!("create {}: {e}", durable.state_dir.display()))?;
        let store = CheckpointStore::open(durable.state_dir.join(CHECKPOINTS_DIR))
            .map_err(|e| format!("open checkpoint store: {e}"))?;
        let loaded = store
            .load_latest()
            .map_err(|e| format!("load checkpoint: {e}"))?;

        let mut stats = RecoveryStats::default();
        let mut applied: HashMap<u16, u64> = HashMap::new();
        let mut generation = 0u64;
        let mut delivery_positions = Vec::new();
        let mut recovered_sections: HashMap<String, Vec<u8>> = HashMap::new();
        let mut pipeline = match loaded {
            Some(ckpt) => {
                let state = ckpt
                    .manifest
                    .section("pipeline")
                    .ok_or("checkpoint has no pipeline section")?;
                let pipeline = MoniLog::import_durable_state(config, state)?;
                for p in &ckpt.manifest.positions {
                    applied.insert(p.source.0, p.last_seq);
                }
                if let Some(bytes) = ckpt.manifest.section(DELIVERY_SECTION) {
                    // A damaged section only loses the cursors: delivery
                    // restarts from the first buffered frame, and the
                    // receiver dedups what it already saw.
                    delivery_positions = decode_positions(bytes).unwrap_or_default();
                }
                for (name, bytes) in &ckpt.manifest.sections {
                    if name != "pipeline" && name != DELIVERY_SECTION {
                        recovered_sections.insert(name.clone(), bytes.clone());
                    }
                }
                generation = ckpt.manifest.generation;
                stats.resumed_generation = Some(generation);
                stats.fell_back = ckpt.fell_back;
                pipeline
            }
            None => fresh()?,
        };

        let mut sink = EmittedSink::open(&durable.state_dir.join(ANOMALIES_FILE))?;

        // Bring up delivery before replay so reports regenerated by the
        // replay are buffered exactly like live ones.
        let (delivery, worker, router) = match delivery {
            Some(mut setup) => {
                setup.config.dir = durable.state_dir.join(DELIVERY_DIR);
                let pipe = DeliveryPipeline::open(
                    setup.config,
                    setup.specs,
                    &delivery_positions,
                    pipeline.registry(),
                )
                .map_err(|e| format!("open delivery pipeline: {e}"))?;
                let worker = pipe.spawn_worker(setup.worker_poll);
                (Some(pipe), Some(worker), setup.router)
            }
            None => (None, None, SeverityRouter::default()),
        };

        // Replay the journal suffix: every line the pipeline acted on
        // after the checkpoint runs through it again, regenerating the
        // same reports; the sink keeps the already-emitted ones quiet.
        let positions: Vec<JournalPosition> = applied
            .iter()
            .map(|(s, q)| JournalPosition {
                source: SourceId(*s),
                last_seq: *q,
            })
            .collect();
        let journal_dir = durable.state_dir.join(JOURNAL_DIR);
        let replay_start = Instant::now();
        let replay = Journal::replay_after(&journal_dir, &positions)
            .map_err(|e| format!("journal replay: {e}"))?;
        let mut produced = Vec::new();
        for raw in &replay {
            produced.extend(pipeline.ingest(raw));
            let entry = applied.entry(raw.source.0).or_insert(0);
            *entry = (*entry).max(raw.seq);
        }
        (stats.anomalies, stats.suppressed_duplicates) =
            emit(&mut sink, delivery.as_ref(), &router, None, produced)?;
        stats.replayed_lines = replay.len() as u64;
        stats.replay_ms = replay_start.elapsed().as_millis() as u64;
        PipelineMetrics::add(
            &pipeline.metrics().recovery_replayed_lines,
            stats.replayed_lines,
        );

        let journal = Journal::open(&journal_dir, durable.journal)
            .map_err(|e| format!("open journal: {e}"))?;
        let journaled = applied.clone();
        Ok((
            DurableMoniLog {
                pipeline,
                config,
                durable,
                journal,
                store,
                sink,
                delivery,
                worker,
                router,
                report_store: None,
                applied,
                journaled,
                pending: Vec::new(),
                // Recovered sections seed the write-side map so a restart
                // that never calls set_section still carries them forward.
                extra_sections: recovered_sections.clone(),
                recovered_sections,
                last_checkpoint: Instant::now(),
                generation,
            },
            stats,
        ))
    }

    /// Journal a raw line and, on group-commit boundaries, apply the
    /// synced batch to the pipeline. Reports surface on those boundaries;
    /// an empty return does not mean the line was uninteresting, only
    /// that its batch has not committed yet.
    pub fn ingest(&mut self, raw: &RawLog) -> Result<Vec<ClassifiedAnomaly>, String> {
        let bytes = self
            .journal
            .append(raw)
            .map_err(|e| format!("journal append: {e}"))?;
        PipelineMetrics::add(&self.pipeline.metrics().journal_bytes, bytes);
        let entry = self.journaled.entry(raw.source.0).or_insert(0);
        *entry = (*entry).max(raw.seq);
        self.pending.push(raw.clone());

        let mut out = Vec::new();
        if self.journal.sync_due() {
            out.extend(self.commit_pending()?);
        }
        if self.last_checkpoint.elapsed().as_millis() as u64 >= self.durable.checkpoint_interval_ms
        {
            out.extend(self.commit_pending()?);
            self.write_checkpoint()?;
        }
        Ok(out)
    }

    /// Fsync the WAL and apply every pending line, without writing a
    /// checkpoint. This is the quiesce step of a graceful drain: after it
    /// returns, even a forced (second-signal) `_exit` loses nothing a
    /// source acknowledged — a restart replays the journal suffix since
    /// the last checkpoint.
    pub fn sync_wal(&mut self) -> Result<Vec<ClassifiedAnomaly>, String> {
        self.commit_pending()
    }

    /// Time-based group commit. [`DurableMoniLog::ingest`] only commits
    /// when the *next* append finds the fsync interval elapsed, so a
    /// stream that goes quiet would leave its final burst pending
    /// indefinitely: unsynced (a kill loses it), unapplied (its reports
    /// never surface). The monitor loops call this on idle so the
    /// interval is honored in wall-clock time; a clean journal makes it
    /// a no-op.
    pub fn tick(&mut self) -> Result<Vec<ClassifiedAnomaly>, String> {
        if self.journal.sync_due() {
            return self.commit_pending();
        }
        Ok(Vec::new())
    }

    /// How long until [`DurableMoniLog::tick`] has a group commit to do;
    /// `None` while no line waits for one. A consumer that blocks on its
    /// input for at most this long commits a quiet stream's last burst when
    /// the interval ends, not one input timeout later.
    pub fn commit_due_in(&self) -> Option<Duration> {
        self.journal.sync_due_in()
    }

    /// Force a commit + checkpoint now (tests, operator tooling).
    pub fn checkpoint_now(&mut self) -> Result<(Vec<ClassifiedAnomaly>, u64), String> {
        let out = self.commit_pending()?;
        let generation = self.write_checkpoint()?;
        Ok((out, generation))
    }

    /// Graceful drain — the SIGTERM path. Syncs the journal, applies
    /// whatever was pending, writes a final checkpoint, and consumes the
    /// handle. Open windows stay open *in the checkpoint*: the next start
    /// picks them up with zero journal replay. Reports still undelivered
    /// when the delivery flush window closes stay in the durable buffers
    /// and resume pumping after restart.
    pub fn drain(mut self) -> Result<(Vec<ClassifiedAnomaly>, u64), String> {
        let out = self.commit_pending()?;
        self.flush_delivery();
        let generation = self.write_checkpoint()?;
        Ok((out, generation))
    }

    /// End-of-input path: commit, flush open windows through detection,
    /// and write a final checkpoint of the flushed state.
    pub fn finish(mut self) -> Result<(Vec<ClassifiedAnomaly>, u64), String> {
        let mut out = self.commit_pending()?;
        let flushed = self.pipeline.flush();
        let (emitted, _) = emit(
            &mut self.sink,
            self.delivery.as_ref(),
            &self.router,
            self.report_store.as_deref(),
            flushed,
        )?;
        out.extend(emitted);
        self.flush_delivery();
        let generation = self.write_checkpoint()?;
        Ok((out, generation))
    }

    /// Stop the pump worker and give delivery a bounded window to drain.
    /// Best-effort: whatever stays pending is durable and resumes later.
    fn flush_delivery(&mut self) {
        if let Some(mut worker) = self.worker.take() {
            worker.stop();
        }
        if let Some(pipe) = &self.delivery {
            let _ = pipe.flush(Duration::from_secs(5));
        }
    }

    /// Fsync the journal, apply every synced-but-unapplied line, then emit
    /// the reports of the whole batch at once: one durability point for
    /// the delivery buffers and one for `anomalies.jsonl` per group commit.
    fn commit_pending(&mut self) -> Result<Vec<ClassifiedAnomaly>, String> {
        self.journal
            .sync()
            .map_err(|e| format!("journal sync: {e}"))?;
        let mut produced = Vec::new();
        for raw in std::mem::take(&mut self.pending) {
            produced.extend(self.pipeline.ingest(&raw));
            let entry = self.applied.entry(raw.source.0).or_insert(0);
            *entry = (*entry).max(raw.seq);
        }
        let (emitted, _) = emit(
            &mut self.sink,
            self.delivery.as_ref(),
            &self.router,
            self.report_store.as_deref(),
            produced,
        )?;
        Ok(emitted)
    }

    /// Export full pipeline state and commit it as the next generation;
    /// callers must have drained `pending` first so the journal positions
    /// match the exported state exactly.
    fn write_checkpoint(&mut self) -> Result<u64, String> {
        debug_assert!(self.pending.is_empty(), "checkpoint with unapplied lines");
        let start = Instant::now();
        let state = self.pipeline.export_durable_state()?;
        self.generation += 1;
        let mut manifest = CheckpointManifest {
            generation: self.generation,
            created_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            ..CheckpointManifest::default()
        };
        let mut positions = Vec::with_capacity(self.applied.len());
        for (source, last_seq) in &self.applied {
            manifest.set_position(SourceId(*source), *last_seq);
            positions.push(JournalPosition {
                source: SourceId(*source),
                last_seq: *last_seq,
            });
        }
        manifest.set_section("pipeline", state);
        for (name, bytes) in &self.extra_sections {
            manifest.set_section(name, bytes.clone());
        }
        if let Some(pipe) = &self.delivery {
            // Delivery cursors ride in the manifest: on restart the
            // buffers resume exactly where the checkpoint left them.
            manifest.set_section(DELIVERY_SECTION, encode_positions(&pipe.positions()));
        }
        self.store
            .commit(&manifest)
            .map_err(|e| format!("commit checkpoint: {e}"))?;
        // Segments fully covered by this checkpoint are dead weight.
        self.journal
            .prune(&positions)
            .map_err(|e| format!("prune journal: {e}"))?;
        let metrics = self.pipeline.metrics();
        PipelineMetrics::incr(&metrics.checkpoints_written);
        self.pipeline.registry().record(Stage::Checkpoint, start);
        self.last_checkpoint = Instant::now();
        Ok(self.generation)
    }

    /// The next unseen sequence number for a source: input readers resume
    /// from here after recovery (everything below is journaled).
    pub fn next_seq(&self, source: SourceId) -> u64 {
        self.journaled.get(&source.0).map_or(0, |s| *s) + 1
    }

    /// Per-source high-water marks that are fsync'd *and* applied — the
    /// safe-to-ack set for the cluster link (`ClusterMailbox::
    /// publish_journaled`). Lines still in the group-commit window are
    /// excluded; publish right after [`DurableMoniLog::sync_wal`].
    pub fn applied_marks(&self) -> Vec<(SourceId, u64)> {
        let mut marks: Vec<(SourceId, u64)> = self
            .applied
            .iter()
            .map(|(&s, &seq)| (SourceId(s), seq))
            .collect();
        marks.sort_by_key(|(s, _)| s.0);
        marks
    }

    /// Adopt a fleet template snapshot (cluster reconciliation broadcast);
    /// see `MoniLog::adopt_templates`.
    pub fn adopt_templates(&mut self, snapshot: &[u8]) -> Result<usize, String> {
        self.pipeline
            .adopt_templates(snapshot)
            .map_err(|e| format!("fleet template snapshot: {e}"))
    }

    /// Cluster revocation: purge every trace of `source` that has not yet
    /// become a report — open windows, reorder-buffer records, and lines
    /// journaled but still awaiting group commit. The WAL entries remain
    /// (history is append-only); a later recovery replays them into open
    /// windows again, and the re-handshake's revocation discards them
    /// again before they can close.
    pub fn discard_source(&mut self, source: SourceId) -> usize {
        self.pending.retain(|r| r.source != source);
        self.pipeline.discard_source(source)
    }

    /// Set a caller-owned manifest section (e.g. [`SOURCES_SECTION`] tail
    /// cursors) to be written with every subsequent checkpoint. Call
    /// *before* ingesting the lines the section accounts for, so a
    /// checkpoint landing mid-batch stays consistent.
    pub fn set_section(&mut self, name: &str, bytes: Vec<u8>) {
        self.extra_sections.insert(name.to_string(), bytes);
    }

    /// A caller-owned section as recovered from the checkpoint at open
    /// (`None` on a fresh start or when the section was absent).
    pub fn recovered_section(&self, name: &str) -> Option<&[u8]> {
        self.recovered_sections.get(name).map(|v| v.as_slice())
    }

    /// Attach the queryable ops report store. Reports emitted from now on
    /// are recorded with their live classification; reports emitted
    /// earlier are already in `anomalies.jsonl` and should be backfilled
    /// by the caller (`ReportStore::backfill_from_file`) *before*
    /// attaching, so the store's id-ordering dedup lines up.
    pub fn attach_report_store(&mut self, store: Arc<ReportStore>) {
        self.report_store = Some(store);
    }

    /// Replace the severity router live (the hot `page-at` /
    /// `route-critical` reload path). Applies to the next emitted batch.
    pub fn set_router(&mut self, router: SeverityRouter) {
        self.router = router;
    }

    /// The severity router currently in force.
    pub fn router(&self) -> &SeverityRouter {
        &self.router
    }

    /// Milliseconds since the last checkpoint (or open). The `/status`
    /// checkpoint-lag input.
    pub fn checkpoint_age_ms(&self) -> u64 {
        self.last_checkpoint.elapsed().as_millis() as u64
    }

    /// Bytes journaled but not yet applied to the pipeline — the
    /// group-commit window a crash would replay. The `/status` WAL-lag
    /// input.
    pub fn wal_lag_bytes(&self) -> u64 {
        self.pending.iter().map(|r| r.line.len() as u64).sum()
    }

    /// The wrapped pipeline (read-only: metrics, registry, tracer).
    pub fn pipeline(&self) -> &MoniLog {
        &self.pipeline
    }

    /// The current checkpoint generation (0 before the first one).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pipeline configuration in force.
    pub fn config(&self) -> &MoniLogConfig {
        &self.config
    }

    /// Path of the emitted-report sink.
    pub fn anomalies_path(&self) -> PathBuf {
        self.durable.state_dir.join(ANOMALIES_FILE)
    }

    /// The outbound delivery pipeline, when one was attached at open.
    pub fn delivery(&self) -> Option<&DeliveryPipeline> {
        self.delivery.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowPolicy;
    use crate::{DetectorChoice, HeaderFormatChoice};
    use crate::{MoniLog, MoniLogConfig};
    use monilog_detect::DeepLogConfig;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monilog-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Where an armed `emit` dies, between its two durability points.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum CrashPoint {
        /// Delivery buffers fsynced; `anomalies.jsonl` untouched.
        BeforeSinkCommit,
        /// Torn `anomalies.jsonl` append: first line whole, second cut.
        MidSinkCommit,
    }

    thread_local! {
        /// Per test thread, so parallel tests do not crash each other.
        static CRASH: std::cell::Cell<Option<CrashPoint>> = const { std::cell::Cell::new(None) };
    }

    /// Called by `emit` between accept and commit; fires at most once.
    pub(super) fn crash_if_armed(
        sink: &mut EmittedSink,
        rendered: &[String],
    ) -> Result<(), String> {
        let Some(point) = CRASH.take() else {
            return Ok(());
        };
        if point == CrashPoint::MidSinkCommit {
            let torn = format!("{}\n{}", rendered[0], &rendered[1][..10]);
            sink.file.write_all(torn.as_bytes()).unwrap();
        }
        Err(format!("injected crash: {point:?}"))
    }

    fn test_config() -> MoniLogConfig {
        MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: WindowPolicy::Tumbling { size: 4 },
            detector: DetectorChoice::DeepLog(DeepLogConfig {
                history: 3,
                top_g: 1,
                epochs: 2,
                ..DeepLogConfig::default()
            }),
            ..MoniLogConfig::default()
        }
    }

    fn line(i: u64) -> String {
        if (40..52).contains(&i) {
            format!("unseen failure mode f{i} exploding")
        } else {
            let step = ["a", "b", "c", "d"][(i % 4) as usize];
            format!("step {step} of job j{}", i / 4)
        }
    }

    fn trained() -> MoniLog {
        let mut m = MoniLog::new(test_config());
        for i in 0..32u64 {
            m.ingest_training(&RawLog::new(SourceId(0), i + 1, line(i)));
        }
        m.train();
        m
    }

    fn report_keys(anomalies: &[ClassifiedAnomaly]) -> Vec<(u64, String, u64)> {
        anomalies
            .iter()
            .map(|a| {
                (
                    a.report.id,
                    a.report.kind.to_string(),
                    (a.report.score * 1e6) as u64,
                )
            })
            .collect()
    }

    /// Reference: the same live stream through a plain pipeline.
    fn reference_reports() -> Vec<(u64, String, u64)> {
        let mut m = trained();
        let mut out = Vec::new();
        for i in 32..64u64 {
            out.extend(m.ingest(&RawLog::new(SourceId(0), i + 1, line(i))));
        }
        out.extend(m.flush());
        report_keys(&out)
    }

    #[test]
    fn checkpoint_restart_replays_to_identical_reports() {
        let dir = tmp_dir("restart");
        let expected = reference_reports();
        assert!(!expected.is_empty(), "stream must contain anomalies");

        // First life: run to line 45 with a mid-stream checkpoint, then
        // "crash" (drop without drain — pending lines die with us, but
        // everything synced survives).
        let durable = DurableConfig {
            checkpoint_interval_ms: u64::MAX,
            journal: JournalConfig {
                fsync_interval_ms: 0, // sync every line: worst-case replay
                ..JournalConfig::default()
            },
            ..DurableConfig::new(&dir)
        };
        let (mut first, stats) =
            DurableMoniLog::open(test_config(), durable.clone(), || Ok(trained())).unwrap();
        assert!(stats.resumed_generation.is_none());
        assert_eq!(stats.replayed_lines, 0);
        let mut emitted = Vec::new();
        for i in 32..40u64 {
            emitted.extend(
                first
                    .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                    .unwrap(),
            );
        }
        let (batch, generation) = first.checkpoint_now().unwrap();
        emitted.extend(batch);
        assert_eq!(generation, 1);
        let mut post_checkpoint = 0u64;
        for i in 40..45u64 {
            let batch = first
                .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                .unwrap();
            post_checkpoint += batch.len() as u64;
            emitted.extend(batch);
        }
        drop(first); // SIGKILL stand-in

        // Second life: recover. The journal suffix (41..=45) replays on
        // top of generation 1; reports already in the sink stay quiet.
        let (mut second, stats) = DurableMoniLog::open(test_config(), durable, || {
            panic!("must recover from checkpoint, not retrain")
        })
        .unwrap();
        assert_eq!(stats.resumed_generation, Some(1));
        assert!(!stats.fell_back);
        assert_eq!(stats.replayed_lines, 5, "lines 41..=45 replay");
        assert_eq!(
            stats.suppressed_duplicates, post_checkpoint,
            "every post-checkpoint report emitted before the crash is suppressed on replay"
        );
        emitted.extend(stats.anomalies);
        assert_eq!(
            second.next_seq(SourceId(0)),
            46,
            "input resumes after the journal"
        );
        for i in 45..64u64 {
            emitted.extend(
                second
                    .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                    .unwrap(),
            );
        }
        let (tail, _) = second.finish().unwrap();
        emitted.extend(tail);

        assert_eq!(
            report_keys(&emitted),
            expected,
            "kill+restart changes nothing"
        );

        // The sink holds each report exactly once.
        let sink = fs::read_to_string(dir.join(ANOMALIES_FILE)).unwrap();
        let ids: Vec<u64> = sink
            .lines()
            .map(|l| report_id_of(l.as_bytes()).unwrap())
            .collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            ids.len(),
            unique.len(),
            "no duplicate report ids in the sink"
        );
        assert_eq!(ids.len(), expected.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_then_restart_replays_zero_lines() {
        let dir = tmp_dir("drain");
        let durable = DurableConfig {
            checkpoint_interval_ms: u64::MAX,
            ..DurableConfig::new(&dir)
        };
        let (mut first, _) =
            DurableMoniLog::open(test_config(), durable.clone(), || Ok(trained())).unwrap();
        let mut emitted = Vec::new();
        for i in 32..50u64 {
            emitted.extend(
                first
                    .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                    .unwrap(),
            );
        }
        let (batch, generation) = first.drain().unwrap();
        emitted.extend(batch);
        assert!(generation >= 1);

        let (mut second, stats) = DurableMoniLog::open(test_config(), durable, || {
            panic!("drain must leave a checkpoint")
        })
        .unwrap();
        assert_eq!(
            stats.replayed_lines, 0,
            "graceful drain leaves no journal suffix"
        );
        assert!(stats.anomalies.is_empty());
        assert_eq!(second.next_seq(SourceId(0)), 51);
        // The drained checkpoint kept open windows open: finishing the
        // stream yields exactly what an uninterrupted run would.
        for i in 50..64u64 {
            emitted.extend(
                second
                    .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                    .unwrap(),
            );
        }
        let (tail, _) = second.finish().unwrap();
        emitted.extend(tail);
        assert_eq!(report_keys(&emitted), reference_reports());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_sink_tail_is_truncated_and_reemits() {
        let dir = tmp_dir("tornsink");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(ANOMALIES_FILE);
        fs::write(&path, "{\"id\":7,\"kind\":\"x\"}\n{\"id\":9,\"kind").unwrap();
        let mut sink = EmittedSink::open(&path).unwrap();
        assert!(sink.ids.contains(&7));
        assert!(
            !sink.ids.contains(&9),
            "torn line does not count as emitted"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"id\":7,\"kind\":\"x\"}\n",
            "torn tail truncated"
        );
        // Appending after truncation lands on a clean boundary.
        sink.file.write_all(b"{\"id\":9,\"kind\":\"y\"}\n").unwrap();
        let reopened = EmittedSink::open(&dir.join(ANOMALIES_FILE));
        drop(sink);
        assert!(reopened.unwrap().ids.contains(&9));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Kill + restart with delivery attached, the crash placed at each
    /// boundary of a commit batch that carries three reports: `None` dies
    /// after both fsyncs but before the next checkpoint. Whatever the
    /// point, the receiver ends up with exactly the reference set, no id is
    /// suppressed without having been buffered first, and at most one
    /// batch is delivered twice.
    fn kill_and_restart_with_crash_at(point: Option<CrashPoint>, name: &str) {
        use monilog_stream::chaos::{FlakySinkServer, SinkProtocol};
        use monilog_stream::sinks::FramedTcpSink;

        let dir = tmp_dir(name);
        let expected: Vec<u64> = {
            let mut m = trained();
            let mut out = Vec::new();
            for i in 32..64u64 {
                out.extend(m.ingest(&RawLog::new(SourceId(0), i + 1, line(i))));
            }
            out.extend(m.flush());
            out.iter().map(|a| a.report.id).collect()
        };
        assert!(expected.len() >= 3);

        // Reserve an address with nothing listening on it yet: the whole
        // first life runs against a dead endpoint, so every report stays
        // buffered on disk.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };

        // Nothing commits on its own: batches are cut by hand.
        let durable = DurableConfig {
            checkpoint_interval_ms: u64::MAX,
            journal: JournalConfig {
                fsync_interval_ms: u64::MAX,
                ..JournalConfig::default()
            },
            ..DurableConfig::new(&dir)
        };
        let setup = || {
            let mut config = DeliveryConfig::new("ignored");
            config.retry.base_backoff = Duration::from_millis(1);
            config.retry.max_backoff = Duration::from_millis(20);
            DeliverySetup::new(
                config,
                vec![RouteSpec {
                    name: "all".into(),
                    classes: monilog_model::DeliveryClass::ALL.to_vec(),
                    sink: Box::new(
                        FramedTcpSink::new(addr.to_string())
                            .with_timeouts(Duration::from_millis(100), Duration::from_millis(300)),
                    ),
                }],
            )
        };
        // Ids of the whole (newline-terminated) lines in the sink file.
        let sink_ids = |dir: &Path| -> Vec<u64> {
            let bytes = fs::read(dir.join(ANOMALIES_FILE)).unwrap_or_default();
            let whole = bytes.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
            bytes[..whole]
                .split(|b| *b == b'\n')
                .filter_map(report_id_of)
                .collect()
        };

        // First life: sink endpoint down the whole time. Checkpoint, then
        // one commit batch holding the three anomalous windows (lines
        // 40..52), then the crash.
        let (mut first, _) = DurableMoniLog::open_with_delivery(
            test_config(),
            durable.clone(),
            || Ok(trained()),
            Some(setup()),
        )
        .unwrap();
        for i in 32..40u64 {
            first
                .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                .unwrap();
        }
        first.checkpoint_now().unwrap();
        let before_batch = sink_ids(&dir).len();
        for i in 40..52u64 {
            let surfaced = first
                .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                .unwrap();
            assert!(surfaced.is_empty(), "the batch must not commit early");
        }
        CRASH.set(point);
        let committed = first.sync_wal();
        let in_sink = sink_ids(&dir).len() - before_batch;
        match point {
            None => assert_eq!(committed.unwrap().len(), 3, "three reports in one batch"),
            Some(CrashPoint::BeforeSinkCommit) => {
                assert!(committed.is_err());
                assert_eq!(in_sink, 0);
            }
            Some(CrashPoint::MidSinkCommit) => {
                assert!(committed.is_err());
                assert_eq!(in_sink, 1, "one whole line, then the torn one");
            }
        }
        assert!(
            first.delivery().unwrap().pending_bytes() > 0,
            "accept comes before commit: the batch is buffered at every crash point"
        );
        drop(first); // SIGKILL stand-in

        // The endpoint comes back before the second life starts.
        let server =
            FlakySinkServer::spawn(&addr.to_string(), SinkProtocol::Framed, vec![]).unwrap();
        let (mut second, stats) = DurableMoniLog::open_with_delivery(
            test_config(),
            durable,
            || panic!("must recover"),
            Some(setup()),
        )
        .unwrap();
        assert_eq!(stats.replayed_lines, 12, "the batch replays from the WAL");
        assert_eq!(
            (stats.suppressed_duplicates, stats.anomalies.len()),
            match point {
                None => (3, 0),
                Some(CrashPoint::BeforeSinkCommit) => (0, 3),
                Some(CrashPoint::MidSinkCommit) => (1, 2),
            },
            "suppressed ids are exactly those the sink file kept"
        );
        for i in 52..64u64 {
            second
                .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                .unwrap();
        }
        second.finish().unwrap();

        let mut sorted = expected.clone();
        sorted.sort_unstable();
        assert_eq!(
            server.delivered_ids(),
            sorted,
            "after kill+restart the receiver holds exactly the reference report set"
        );
        assert!(
            server.duplicate_acks() <= 3,
            "at most the crashed batch is delivered twice, got {}",
            server.duplicate_acks()
        );
        assert_eq!(sink_ids(&dir), expected, "each id once, in order");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delivery_survives_kill_and_restart_without_loss() {
        kill_and_restart_with_crash_at(None, "delivery");
    }

    #[test]
    fn delivery_survives_a_crash_between_buffer_and_sink_fsync() {
        kill_and_restart_with_crash_at(Some(CrashPoint::BeforeSinkCommit), "delivery-before");
    }

    #[test]
    fn delivery_survives_a_torn_sink_append_inside_a_batch() {
        kill_and_restart_with_crash_at(Some(CrashPoint::MidSinkCommit), "delivery-torn");
    }

    /// Emitting a commit batch at once is the concatenation of emitting
    /// each line's reports on their own: same ids in the same order, the
    /// same `anomalies.jsonl` bytes, the same buffered frames.
    #[test]
    fn batch_emit_equals_per_line_emits() {
        use monilog_stream::sinks::FileSink;

        let per_line: Vec<Vec<ClassifiedAnomaly>> = {
            let mut m = trained();
            let mut out: Vec<Vec<ClassifiedAnomaly>> = (32..64u64)
                .map(|i| m.ingest(&RawLog::new(SourceId(0), i + 1, line(i))))
                .collect();
            out.push(m.flush());
            out
        };
        assert!(per_line.iter().filter(|p| !p.is_empty()).count() >= 3);

        let run = |name: &str, batches: Vec<Vec<ClassifiedAnomaly>>| {
            let dir = tmp_dir(name);
            fs::create_dir_all(&dir).unwrap();
            let mut sink = EmittedSink::open(&dir.join(ANOMALIES_FILE)).unwrap();
            let pipe = DeliveryPipeline::open(
                DeliveryConfig::new(dir.join(DELIVERY_DIR)),
                vec![RouteSpec {
                    name: "all".into(),
                    classes: monilog_model::DeliveryClass::ALL.to_vec(),
                    sink: Box::new(FileSink::open(dir.join("out.jsonl"), 1 << 20, 1).unwrap()),
                }],
                &[],
                monilog_stream::MetricsRegistry::shared(),
            )
            .unwrap();
            let store = ReportStore::shared(64);
            let router = SeverityRouter::default();
            let mut ids = Vec::new();
            for produced in batches {
                let (fresh, suppressed) =
                    emit(&mut sink, Some(&pipe), &router, Some(&store), produced).unwrap();
                assert_eq!(suppressed, 0);
                ids.extend(fresh.iter().map(|a| a.report.id));
            }
            // Nothing pumped yet: the buffer file holds every frame.
            let buffered = fs::read(dir.join(DELIVERY_DIR).join("all.buf")).unwrap();
            let jsonl = fs::read(dir.join(ANOMALIES_FILE)).unwrap();
            let newest = store.newest_id();
            fs::remove_dir_all(&dir).unwrap();
            (ids, jsonl, buffered, newest)
        };

        let lines = run("emit-lines", per_line.clone());
        let batch = run("emit-batch", vec![per_line.concat()]);
        assert!(!lines.1.is_empty());
        assert_eq!(batch, lines);
    }

    #[test]
    fn tail_cursor_codec_round_trips_and_skips_damage() {
        let cursors = vec![
            PersistedTailCursor {
                index: 0,
                inode: 1234,
                offset: 9876,
                last_seq: 41,
                path: "/var/log/app.log".into(),
            },
            PersistedTailCursor {
                index: 2,
                inode: 99,
                offset: 0,
                last_seq: 0,
                path: "/tmp/with\ttab.log".into(),
            },
        ];
        let bytes = encode_tail_cursors(&cursors);
        let decoded = decode_tail_cursors(&bytes);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], cursors[0]);
        // Path is the 5th field and eats the rest of the line, tabs and all.
        assert_eq!(decoded[1].path, "/tmp/with\ttab.log");

        // A damaged line is skipped, the rest survive.
        let mut garbled = b"not-a-number\t0\t0\t0\tx\n".to_vec();
        garbled.extend_from_slice(&encode_tail_cursors(&cursors[..1]));
        assert_eq!(decode_tail_cursors(&garbled), cursors[..1]);
        assert!(decode_tail_cursors(b"\xff\xfe").is_empty());
    }

    #[test]
    fn extra_sections_ride_the_checkpoint_across_restart() {
        let dir = tmp_dir("sections");
        let durable = DurableConfig {
            checkpoint_interval_ms: u64::MAX,
            ..DurableConfig::new(&dir)
        };
        let (mut first, _) =
            DurableMoniLog::open(test_config(), durable.clone(), || Ok(trained())).unwrap();
        assert!(first.recovered_section(SOURCES_SECTION).is_none());
        first.set_section(SOURCES_SECTION, b"0\t7\t128\t5\t/var/log/a\n".to_vec());
        first
            .ingest(&RawLog::new(SourceId(0), 33, line(32)))
            .unwrap();
        first.checkpoint_now().unwrap();
        drop(first);

        let (second, _) =
            DurableMoniLog::open(test_config(), durable.clone(), || panic!("must recover"))
                .unwrap();
        assert_eq!(
            second.recovered_section(SOURCES_SECTION),
            Some(b"0\t7\t128\t5\t/var/log/a\n".as_slice())
        );
        // A restart that never calls set_section still carries the section
        // into its own checkpoints.
        let mut second = second;
        second
            .ingest(&RawLog::new(SourceId(0), 34, line(33)))
            .unwrap();
        second.checkpoint_now().unwrap();
        drop(second);
        let (third, _) =
            DurableMoniLog::open(test_config(), durable, || panic!("must recover")).unwrap();
        assert!(third.recovered_section(SOURCES_SECTION).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_count_journal_and_checkpoint_activity() {
        let dir = tmp_dir("metrics");
        let (mut dm, _) =
            DurableMoniLog::open(test_config(), DurableConfig::new(&dir), || Ok(trained()))
                .unwrap();
        for i in 32..40u64 {
            dm.ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                .unwrap();
        }
        let (_, generation) = dm.checkpoint_now().unwrap();
        assert_eq!(generation, 1);
        let metrics = dm.pipeline().metrics();
        assert!(PipelineMetrics::get(&metrics.journal_bytes) > 0);
        assert_eq!(PipelineMetrics::get(&metrics.checkpoints_written), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `ingest` only commits when the *next* append finds the group-commit
    /// interval elapsed. If the stream goes quiet, the final burst would
    /// stay pending forever — unsynced and with its reports unsurfaced —
    /// unless the idle `tick` honors the deadline in wall-clock time.
    #[test]
    fn idle_tick_commits_the_pending_tail() {
        let dir = tmp_dir("tick");
        let durable = DurableConfig {
            checkpoint_interval_ms: u64::MAX,
            journal: JournalConfig {
                fsync_interval_ms: 30,
                ..JournalConfig::default()
            },
            ..DurableConfig::new(&dir)
        };
        let (mut dm, _) = DurableMoniLog::open(test_config(), durable, || Ok(trained())).unwrap();
        // The burst lands well inside the interval: every line stays
        // pending and no report surfaces, even for anomalous windows.
        let mut emitted = Vec::new();
        for i in 32..48u64 {
            emitted.extend(
                dm.ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                    .unwrap(),
            );
        }
        assert!(dm.wal_lag_bytes() > 0, "burst tail must be pending");
        // Quiet stream: once the interval elapses, the idle tick must
        // commit the tail — reports surface without another append.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            emitted.extend(dm.tick().unwrap());
            if dm.wal_lag_bytes() == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "tick never committed the tail");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            !emitted.is_empty(),
            "anomalies in the committed tail must surface from tick"
        );
        // A clean journal makes the tick a no-op.
        assert!(dm.tick().unwrap().is_empty());
        assert_eq!(dm.wal_lag_bytes(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
