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
//! The contract is *journal first, release second*: a raw line is
//! appended to the WAL before the pipeline sees it, and the pipeline may
//! run ahead of the fsync ([`DurableMoniLog::catch_up`]), but nothing
//! derived from a line — a report, a checkpoint, a cluster ack — leaves
//! the process before the group commit that covers it has fsynced. A
//! crash therefore loses only in-memory state whose effects never left
//! (it dies with the process); everything that did leave replays from the
//! journal suffix after the newest valid checkpoint. Replayed lines
//! regenerate the same anomaly reports deterministically (same event ids,
//! same report ids), and the `anomalies.jsonl` sink suppresses ids it has
//! already recorded — so across any number of kill/restart cycles every
//! report is emitted exactly once.
//!
//! Graceful drain ([`DurableMoniLog::drain`]) is the SIGTERM path: apply
//! what was pending, sync the journal, write a final checkpoint, and
//! stop — the next start replays zero lines. [`DurableMoniLog::finish`]
//! is the end-of-input path, which additionally flushes open windows.

use crate::{ClassifiedAnomaly, MoniLog, MoniLogConfig};
use monilog_classify::SeverityRouter;
use monilog_model::{CheckpointManifest, JournalPosition, RawLog, ReportLine, SourceId};
use monilog_stream::durable::{CheckpointStore, Journal, JournalConfig, RotatingLog};
use monilog_stream::ops::StoredReport;
use monilog_stream::sinks::{
    decode_positions, encode_positions, BufferedReport, DeliveryConfig, DeliveryPipeline,
    DeliveryWorker, RouteSpec,
};
use monilog_stream::{PipelineMetrics, ReportStore, Stage};
use std::collections::{HashMap, HashSet};
use std::fs::{self, OpenOptions};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Builds the routes (first match wins; last route is the fallback)
    /// from the pipeline's counters, once they exist: a route that writes
    /// a local file counts the bytes its rotation drops there.
    pub specs: RouteBuilder,
    /// Maps report criticality to a [`monilog_model::DeliveryClass`].
    pub router: SeverityRouter,
    /// Fallback wait of the background pump worker: it normally wakes on
    /// accept or when a retry falls due.
    pub worker_poll: Duration,
}

/// See [`DeliverySetup::specs`].
pub type RouteBuilder = Box<dyn FnOnce(&Arc<PipelineMetrics>) -> Result<Vec<RouteSpec>, String>>;

impl DeliverySetup {
    /// Delivery with default routing/poll and the routes `specs` builds.
    pub fn new(
        config: DeliveryConfig,
        specs: impl FnOnce(&Arc<PipelineMetrics>) -> Result<Vec<RouteSpec>, String> + 'static,
    ) -> DeliverySetup {
        DeliverySetup {
            config,
            specs: Box::new(specs),
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
    file: RotatingLog,
    ids: HashSet<u64>,
}

impl EmittedSink {
    fn open(path: &Path) -> Result<EmittedSink, String> {
        let file =
            RotatingLog::unrotated(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        // Created up front: the state directory holds the record even
        // before the first report. A damaged line costs only its own id.
        let bytes = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|_| fs::read(path))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let ids = bytes
            .split(|&b| b == b'\n')
            .filter_map(ReportLine::id_of)
            .collect();
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
        let mut buf = String::new();
        for json in rendered {
            buf.push_str(json);
            buf.push('\n');
        }
        self.file
            .append_text(&buf)
            .map_err(|e| format!("append anomaly sink: {e}"))
    }
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
    /// Per-source highest seq fed to the pipeline *and* fsynced
    /// (== checkpointable, ackable).
    applied: HashMap<u16, u64>,
    /// Per-source highest seq fed to the pipeline ahead of the fsync that
    /// covers it; promoted into `applied` by the next commit.
    unsynced: HashMap<u16, u64>,
    /// Per-source highest seq appended to the journal (>= applied).
    journaled: HashMap<u16, u64>,
    /// Appended but not yet fed to the pipeline.
    pending: Vec<RawLog>,
    /// Reports of lines fed ahead of their fsync, released by the commit.
    held: Vec<ClassifiedAnomaly>,
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
    ///
    /// With `delivery`, outbound anomaly delivery is attached: its buffers
    /// live under `<state-dir>/delivery/` and their cursors are recovered
    /// from the [`DELIVERY_SECTION`] of the checkpoint manifest, so reports
    /// accepted-but-undelivered before a SIGKILL are pumped again after
    /// restart.
    pub fn open(
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
                let specs = (setup.specs)(&pipeline.metrics())?;
                let pipe = DeliveryPipeline::open(
                    setup.config,
                    specs,
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
                durable,
                journal,
                store,
                sink,
                delivery,
                worker,
                router,
                report_store: None,
                applied,
                unsynced: HashMap::new(),
                journaled,
                pending: Vec::new(),
                held: Vec::new(),
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

    /// Journal a raw line and, on group-commit boundaries, commit the
    /// batch. Reports surface on those boundaries; an empty return does
    /// not mean the line was uninteresting, only that its batch has not
    /// committed yet. The line is not applied here: a caller with idle
    /// time applies it early with [`DurableMoniLog::catch_up`], otherwise
    /// the commit does.
    pub fn ingest(&mut self, raw: &RawLog) -> Result<Vec<ClassifiedAnomaly>, String> {
        let bytes = self
            .journal
            .append(raw)
            .map_err(|e| format!("journal append: {e}"))?;
        PipelineMetrics::add(&self.pipeline.metrics().journal_bytes, bytes);
        let entry = self.journaled.entry(raw.source.0).or_insert(0);
        *entry = (*entry).max(raw.seq);
        self.pending.push(raw.clone());

        let now = Instant::now();
        let checkpoint_due = now
            .saturating_duration_since(self.last_checkpoint)
            .as_millis() as u64
            >= self.durable.checkpoint_interval_ms;
        if !checkpoint_due && !self.journal.sync_due_at(now) {
            return Ok(Vec::new());
        }
        let out = self.commit_pending()?;
        if checkpoint_due {
            self.write_checkpoint()?;
        }
        Ok(out)
    }

    /// Apply every journaled line the pipeline has not seen yet, ahead of
    /// the fsync that will cover it. Nothing leaves: the reports are held
    /// and the lines' seqs stay out of [`DurableMoniLog::applied_marks`]
    /// until the next commit ([`DurableMoniLog::tick`],
    /// [`DurableMoniLog::sync_wal`], or an `ingest` on a commit boundary)
    /// releases them. A consumer calls this when its input runs dry, so
    /// the commit finds little left to apply.
    pub fn catch_up(&mut self) {
        for raw in self.pending.drain(..) {
            self.held.extend(self.pipeline.ingest(&raw));
            let entry = self.unsynced.entry(raw.source.0).or_insert(0);
            *entry = (*entry).max(raw.seq);
        }
    }

    /// Apply every pending line and fsync the WAL, without writing a
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
    /// indefinitely: unsynced (a kill loses it), its reports held or not
    /// yet produced. The monitor loops call this on idle so the
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

    /// Graceful drain — the SIGTERM path. Applies whatever was pending,
    /// syncs the journal, writes a final checkpoint, and consumes the
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

    /// The group commit, the one place anything derived from a line is
    /// released: apply what [`DurableMoniLog::catch_up`] has not, fsync the
    /// journal, promote the applied seqs to ackable, then emit the held
    /// reports of the whole batch at once — one durability point for the
    /// delivery buffers and one for `anomalies.jsonl` per group commit.
    fn commit_pending(&mut self) -> Result<Vec<ClassifiedAnomaly>, String> {
        self.catch_up();
        self.journal
            .sync()
            .map_err(|e| format!("journal sync: {e}"))?;
        for (source, seq) in self.unsynced.drain() {
            let entry = self.applied.entry(source).or_insert(0);
            *entry = (*entry).max(seq);
        }
        let (emitted, _) = emit(
            &mut self.sink,
            self.delivery.as_ref(),
            &self.router,
            self.report_store.as_deref(),
            std::mem::take(&mut self.held),
        )?;
        Ok(emitted)
    }

    /// Export full pipeline state and commit it as the next generation;
    /// callers must have committed first so the journal positions match
    /// the exported state exactly.
    fn write_checkpoint(&mut self) -> Result<u64, String> {
        debug_assert!(
            self.pending.is_empty() && self.unsynced.is_empty() && self.held.is_empty(),
            "checkpoint ahead of the commit"
        );
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
    /// excluded, caught up or not; publish right after
    /// [`DurableMoniLog::sync_wal`].
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
    /// journaled but not yet applied. Lines already caught up count as
    /// committed: their held reports and seqs are released by the next
    /// commit, the outcome of a commit that wins the race against the
    /// revoke. The WAL entries remain (history is append-only); a later
    /// recovery replays them into open windows again, and the
    /// re-handshake's revocation discards them again before they can
    /// close.
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

    /// Replace the severity router live (the settings apply path: the
    /// boot snapshot and every `page-at` reload). Applies to the next
    /// emitted batch.
    pub fn set_router(&mut self, router: SeverityRouter) {
        self.router = router;
    }

    /// Milliseconds since the last checkpoint (or open). The `/status`
    /// checkpoint-lag input.
    pub fn checkpoint_age_ms(&self) -> u64 {
        self.last_checkpoint.elapsed().as_millis() as u64
    }

    /// Bytes journaled, not yet durable: WAL frames appended since the
    /// last fsync, which a crash now could lose. The `/status` WAL-lag
    /// input.
    pub fn wal_lag_bytes(&self) -> u64 {
        self.journal.unsynced_bytes()
    }

    /// The wrapped pipeline (read-only: metrics, registry, tracer).
    pub fn pipeline(&self) -> &MoniLog {
        &self.pipeline
    }

    /// The current checkpoint generation (0 before the first one).
    pub fn generation(&self) -> u64 {
        self.generation
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
    use crate::DetectorChoice;
    use crate::WindowPolicy;
    use crate::{MoniLog, MoniLogConfig};
    use monilog_detect::DeepLogConfig;
    use monilog_model::HeaderFormat;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monilog-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Where a first life dies: before its commit, or where an armed
    /// `emit` dies, between its two durability points.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum CrashPoint {
        /// Batch caught up, its reports held; nothing fsynced or emitted.
        BeforeWalSync,
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
            sink.file.append_text(&torn).unwrap();
        }
        Err(format!("injected crash: {point:?}"))
    }

    fn test_config() -> MoniLogConfig {
        MoniLogConfig {
            header_format: HeaderFormat::Bare,
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

    /// Delivery of every report to a framed-TCP receiver at `addr`, with
    /// short retries so a dead endpoint keeps the reports buffered.
    fn framed_delivery(addr: std::net::SocketAddr) -> DeliverySetup {
        use monilog_stream::sinks::FramedTcpSink;

        let mut config = DeliveryConfig::new("ignored");
        config.retry.base_backoff = Duration::from_millis(1);
        config.retry.max_backoff = Duration::from_millis(20);
        DeliverySetup::new(config, move |_| {
            Ok(vec![RouteSpec {
                name: "all".into(),
                classes: monilog_model::DeliveryClass::ALL.to_vec(),
                sink: Box::new(
                    FramedTcpSink::new(addr.to_string())
                        .with_timeouts(Duration::from_millis(100), Duration::from_millis(300)),
                ),
            }])
        })
    }

    /// An address with nothing listening on it (yet).
    fn unused_addr() -> std::net::SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    /// No group commit or checkpoint on its own: commits are cut by hand.
    fn manual_commits(dir: &Path) -> DurableConfig {
        DurableConfig {
            checkpoint_interval_ms: u64::MAX,
            journal: JournalConfig {
                fsync_interval_ms: u64::MAX,
                ..JournalConfig::default()
            },
            ..DurableConfig::new(dir)
        }
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
            DurableMoniLog::open(test_config(), durable.clone(), || Ok(trained()), None).unwrap();
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
        let (mut second, stats) = DurableMoniLog::open(
            test_config(),
            durable,
            || panic!("must recover from checkpoint, not retrain"),
            None,
        )
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
            .map(|l| ReportLine::id_of(l.as_bytes()).unwrap())
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
            DurableMoniLog::open(test_config(), durable.clone(), || Ok(trained()), None).unwrap();
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

        let (mut second, stats) = DurableMoniLog::open(
            test_config(),
            durable,
            || panic!("drain must leave a checkpoint"),
            None,
        )
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
        let sink = EmittedSink::open(&path).unwrap();
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
        sink.file
            .append_text("{\"id\":9,\"kind\":\"y\"}\n")
            .unwrap();
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
        let addr = unused_addr();
        let durable = manual_commits(&dir);
        let setup = || framed_delivery(addr);
        // Ids of the whole (newline-terminated) lines in the sink file.
        let sink_ids = |dir: &Path| -> Vec<u64> {
            let bytes = fs::read(dir.join(ANOMALIES_FILE)).unwrap_or_default();
            let whole = bytes.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
            bytes[..whole]
                .split(|b| *b == b'\n')
                .filter_map(ReportLine::id_of)
                .collect()
        };

        // First life: sink endpoint down the whole time. Checkpoint, then
        // one commit batch holding the three anomalous windows (lines
        // 40..52), then the crash.
        let (mut first, _) = DurableMoniLog::open(
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
        if point == Some(CrashPoint::BeforeWalSync) {
            let buffered = first.delivery().unwrap().pending_bytes();
            first.catch_up();
            assert_eq!(sink_ids(&dir).len(), before_batch, "held, not emitted");
            assert_eq!(
                first.delivery().unwrap().pending_bytes(),
                buffered,
                "nothing is accepted before the fsync"
            );
        } else {
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
                Some(CrashPoint::BeforeWalSync) => unreachable!(),
            }
            assert!(
                first.delivery().unwrap().pending_bytes() > 0,
                "accept comes before commit: the batch is buffered at every crash point"
            );
        }
        drop(first); // SIGKILL stand-in

        // The endpoint comes back before the second life starts.
        let server =
            FlakySinkServer::spawn(&addr.to_string(), SinkProtocol::Framed, vec![]).unwrap();
        let (mut second, stats) = DurableMoniLog::open(
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
                Some(CrashPoint::BeforeWalSync | CrashPoint::BeforeSinkCommit) => (0, 3),
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

    /// A batch applied ahead of its fsync dies with the process: the
    /// restart replays it and emits each of its reports exactly once.
    #[test]
    fn delivery_survives_a_kill_after_catch_up_before_the_commit() {
        kill_and_restart_with_crash_at(Some(CrashPoint::BeforeWalSync), "delivery-caught-up");
    }

    /// Everything that leaves the process, as seen from outside it.
    #[derive(Debug, PartialEq)]
    struct Released {
        jsonl: Vec<u8>,
        pending_bytes: u64,
        marks: Vec<(SourceId, u64)>,
        store: Vec<StoredReport>,
    }

    fn released(dm: &DurableMoniLog, store: &ReportStore) -> Released {
        use monilog_stream::ops::ReportsQuery;

        Released {
            jsonl: fs::read(dm.anomalies_path()).unwrap(),
            pending_bytes: dm.delivery().unwrap().pending_bytes(),
            marks: dm.applied_marks(),
            store: store
                .query(&ReportsQuery::default())
                .1
                .iter()
                .map(|r| (**r).clone())
                .collect(),
        }
    }

    /// `catch_up` runs the pipeline ahead of the fsync, and nothing it
    /// produces leaves before the commit: `anomalies.jsonl`, the delivery
    /// buffers, the ackable marks and the `/reports` store are untouched
    /// until `tick`/`sync_wal`, and byte-identical afterwards to a run that
    /// never caught up.
    #[test]
    fn catch_up_releases_nothing_before_the_commit() {
        let addr = unused_addr();
        let run = |name: &str, catch_up: bool| {
            let dir = tmp_dir(name);
            let (mut dm, _) = DurableMoniLog::open(
                test_config(),
                manual_commits(&dir),
                || Ok(trained()),
                Some(framed_delivery(addr)),
            )
            .unwrap();
            let store = ReportStore::shared(64);
            dm.attach_report_store(Arc::clone(&store));
            for i in 32..64u64 {
                let surfaced = dm
                    .ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                    .unwrap();
                assert!(surfaced.is_empty(), "no commit falls due");
            }
            let before = released(&dm, &store);
            assert!(before.jsonl.is_empty() && before.marks.is_empty());
            if catch_up {
                dm.catch_up();
                assert_eq!(released(&dm, &store), before, "catch_up releases nothing");
                assert!(dm.wal_lag_bytes() > 0, "caught up, still not durable");
            }
            let ids: Vec<u64> = dm.sync_wal().unwrap().iter().map(|a| a.report.id).collect();
            let after = released(&dm, &store);
            drop(dm);
            fs::remove_dir_all(&dir).unwrap();
            (ids, after)
        };
        let (ids, after) = run("release-caught-up", true);
        assert!(ids.len() >= 3, "the corpus must produce reports");
        assert!(!after.jsonl.is_empty() && after.pending_bytes > 0);
        assert_eq!(after.marks, vec![(SourceId(0), 64)]);
        assert_eq!((ids, after), run("release-plain", false));
    }

    /// Cluster revocation after a catch-up: the revoked source's caught-up
    /// lines count as committed (their reports and seqs are released by
    /// the next commit) and its pending lines are dropped — the outcome of
    /// a commit that wins the race against the revoke. The ackable marks
    /// never show a seq the fsync has not covered.
    #[test]
    fn revoke_keeps_caught_up_lines_and_drops_pending_ones() {
        let src = SourceId(3);
        let run = |name: &str, commit_first: bool| {
            let dir = tmp_dir(name);
            let (mut dm, _) =
                DurableMoniLog::open(test_config(), manual_commits(&dir), || Ok(trained()), None)
                    .unwrap();
            let mut emitted = Vec::new();
            for seq in 1..=12u64 {
                emitted.extend(dm.ingest(&RawLog::new(src, seq, line(35 + seq))).unwrap());
            }
            if commit_first {
                emitted.extend(dm.sync_wal().unwrap());
            } else {
                dm.catch_up();
                assert!(dm.applied_marks().is_empty(), "caught up is not ackable");
            }
            for seq in 13..=20u64 {
                emitted.extend(dm.ingest(&RawLog::new(src, seq, line(35 + seq))).unwrap());
            }
            dm.discard_source(src);
            assert!(
                dm.applied_marks().iter().all(|&(_, seq)| seq <= 12),
                "an unsynced seq is never ackable"
            );
            emitted.extend(dm.sync_wal().unwrap());
            let marks = dm.applied_marks();
            assert_eq!(dm.next_seq(src), 21, "discarded lines stay journaled");
            drop(dm);
            fs::remove_dir_all(&dir).unwrap();
            (report_keys(&emitted), marks)
        };
        let (reports, marks) = run("revoke-caught-up", false);
        assert!(!reports.is_empty(), "caught-up reports are released");
        assert_eq!(marks, vec![(src, 12)], "caught-up lines count as committed");
        assert_eq!((reports, marks), run("revoke-committed", true));
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
                    sink: Box::new(
                        FileSink::open(
                            dir.join("out.jsonl"),
                            1 << 20,
                            1,
                            PipelineMetrics::shared(),
                        )
                        .unwrap(),
                    ),
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

    mod catch_up_anywhere {
        use super::*;
        use proptest::prelude::*;

        /// Report ids in emission order and the `anomalies.jsonl` bytes of
        /// the live stream, with `step[k]` after line `k`: 2 catches up, 3
        /// commits, anything else does neither.
        fn run(name: &str, steps: &[u8]) -> (Vec<u64>, Vec<u8>) {
            let dir = tmp_dir(name);
            let (mut dm, _) =
                DurableMoniLog::open(test_config(), manual_commits(&dir), || Ok(trained()), None)
                    .unwrap();
            let mut emitted = Vec::new();
            for (k, i) in (32..64u64).enumerate() {
                emitted.extend(
                    dm.ingest(&RawLog::new(SourceId(0), i + 1, line(i)))
                        .unwrap(),
                );
                match steps.get(k) {
                    Some(2) => dm.catch_up(),
                    Some(3) => emitted.extend(dm.sync_wal().unwrap()),
                    _ => {}
                }
            }
            emitted.extend(dm.finish().unwrap().0);
            let jsonl = fs::read(dir.join(ANOMALIES_FILE)).unwrap();
            fs::remove_dir_all(&dir).unwrap();
            (emitted.iter().map(|a| a.report.id).collect(), jsonl)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Catching up at any points, with commits cut at any others,
            /// emits what committing at the end alone does: same ids in the
            /// same order, same `anomalies.jsonl` bytes.
            #[test]
            fn emits_what_the_commit_alone_does(steps in proptest::collection::vec(0u8..4, 32)) {
                let reference = run("anywhere-reference", &[]);
                prop_assert!(reference.0.len() >= 3);
                prop_assert_eq!(run("anywhere-steps", &steps), reference);
            }
        }
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
            DurableMoniLog::open(test_config(), durable.clone(), || Ok(trained()), None).unwrap();
        assert!(first.recovered_section(SOURCES_SECTION).is_none());
        first.set_section(SOURCES_SECTION, b"0\t7\t128\t5\t/var/log/a\n".to_vec());
        first
            .ingest(&RawLog::new(SourceId(0), 33, line(32)))
            .unwrap();
        first.checkpoint_now().unwrap();
        drop(first);

        let (second, _) = DurableMoniLog::open(
            test_config(),
            durable.clone(),
            || panic!("must recover"),
            None,
        )
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
            DurableMoniLog::open(test_config(), durable, || panic!("must recover"), None).unwrap();
        assert!(third.recovered_section(SOURCES_SECTION).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_count_journal_and_checkpoint_activity() {
        let dir = tmp_dir("metrics");
        let (mut dm, _) = DurableMoniLog::open(
            test_config(),
            DurableConfig::new(&dir),
            || Ok(trained()),
            None,
        )
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
        let (mut dm, _) =
            DurableMoniLog::open(test_config(), durable, || Ok(trained()), None).unwrap();
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
        // Applying the burst early releases nothing: it is still not
        // durable, and its reports wait for the commit.
        dm.catch_up();
        assert!(dm.wal_lag_bytes() > 0, "caught up is not durable");
        assert!(
            fs::read(dm.anomalies_path()).unwrap().is_empty(),
            "no report surfaces before the tick"
        );
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
