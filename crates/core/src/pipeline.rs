//! The MoniLog pipeline facade.

use crate::windowing::{ClosedWindow, WindowAssembler, WindowPolicy};
use monilog_classify::{AnomalyClassifier, Assignment, PoolId};
use monilog_detect::{
    CoOccurrenceDetector, CoOccurrenceDetectorConfig, DeepLog, DeepLogConfig, Detector,
    InvariantDetector, InvariantDetectorConfig, LogAnomaly, LogAnomalyConfig, LogClusterDetector,
    LogClusterDetectorConfig, LogRobust, LogRobustConfig, PcaDetector, PcaDetectorConfig, TrainSet,
    Window,
};
use monilog_model::codec::{CodecError, Decoder, Encoder};
use monilog_model::{
    extract_structured, parse_header, AnomalyReport, Criticality, EventId, HeaderFormat, LogEvent,
    Provenance, RawLog, SessionKey, SourceId, TemplateStore, Timestamp, TraceId,
};
use monilog_parse::{Drain, DrainConfig, OnlineParser};
use monilog_stream::observe::{MetricsRegistry, Stage};
use monilog_stream::{
    BoundedReorderBuffer, DedupFilter, PipelineMetrics, SpanStage, TraceConfig, Tracer,
    DEFAULT_FLIGHT_CAPACITY, DEFAULT_SAMPLE_RATE,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Which detection model the pipeline runs (one per deployment; the
/// experiment harnesses compare them side by side).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DetectorChoice {
    DeepLog(DeepLogConfig),
    LogAnomaly(LogAnomalyConfig),
    LogRobust(LogRobustConfig),
    Pca(PcaDetectorConfig),
    InvariantMining(InvariantDetectorConfig),
    LogClustering(LogClusterDetectorConfig),
    CoOccurrence(CoOccurrenceDetectorConfig),
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoniLogConfig {
    /// Header layout of incoming lines (per-deployment; heterogeneous
    /// sources can be normalized upstream).
    pub header_format: HeaderFormatChoice,
    /// Extract embedded `{k=v}` / JSON payloads before template parsing
    /// (the Section IV recommendation; experiment P7 measures its effect).
    pub extract_payloads: bool,
    pub drain: DrainConfig,
    /// Reorder-buffer bound for transport disorder (ms).
    pub reorder_bound_ms: u64,
    /// Duplicate-suppression window (events).
    pub dedup_window: usize,
    pub window: WindowPolicy,
    pub detector: DetectorChoice,
    /// Knobs for the supervised streaming deployment shape
    /// ([`monilog_stream::SupervisedParseService`]); the sequential facade
    /// ignores them.
    pub fault_tolerance: FaultToleranceConfig,
    /// Metrics export (`--metrics-addr`, `--metrics-interval-ms`).
    pub observability: ObservabilityConfig,
    /// Router batch tuning for the sharded streaming deployment shape
    /// (`--batch-lines`, `--batch-deadline-ms`); the sequential facade
    /// ignores it.
    pub batch: monilog_stream::BatchConfig,
}

/// Where and how often to export metrics snapshots. `metrics_addr: None`
/// (the default) disables the endpoint; the in-process registry records
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservabilityConfig {
    /// Bind address of the HTTP metrics endpoint (`/metrics` Prometheus,
    /// `/metrics.json` JSON, `/trace/{id}`, `/flight`); `None` disables
    /// serving.
    pub metrics_addr: Option<std::net::SocketAddr>,
    /// Snapshot re-render cadence of the exporter thread, in milliseconds.
    pub metrics_interval_ms: u64,
    /// Trace one line in `trace_sample_rate` end-to-end (`--trace-sample-rate`;
    /// 0 disables span sampling).
    pub trace_sample_rate: u32,
    /// Span slots in the flight-recorder ring (`--flight-capacity`).
    pub flight_capacity: u32,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            metrics_addr: None,
            metrics_interval_ms: 1_000,
            trace_sample_rate: DEFAULT_SAMPLE_RATE,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Fault-tolerance knobs surfaced through the CLI (`--on-overload`,
/// `--max-retries`, `--heartbeat-ms`); everything else in
/// [`monilog_stream::SupervisorConfig`] keeps its default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultToleranceConfig {
    /// What `submit()` does when the pipeline is saturated.
    pub on_overload: monilog_stream::OverloadPolicy,
    /// Parse retries before a panicking line is quarantined.
    pub max_retries: u32,
    /// Worker heartbeat / supervisor poll interval, in milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        let defaults = monilog_stream::SupervisorConfig::default();
        FaultToleranceConfig {
            on_overload: defaults.overload,
            max_retries: defaults.retry.max_retries,
            heartbeat_ms: defaults.heartbeat_interval.as_millis() as u64,
        }
    }
}

/// `HeaderFormat` is not `Copy`; this mirror is, keeping the config plain
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeaderFormatChoice {
    DashSeparated,
    SyslogLike,
    Bare,
}

impl HeaderFormatChoice {
    fn as_format(self) -> HeaderFormat {
        match self {
            HeaderFormatChoice::DashSeparated => HeaderFormat::DashSeparated,
            HeaderFormatChoice::SyslogLike => HeaderFormat::SyslogLike,
            HeaderFormatChoice::Bare => HeaderFormat::Bare,
        }
    }
}

impl Default for MoniLogConfig {
    fn default() -> Self {
        MoniLogConfig {
            header_format: HeaderFormatChoice::DashSeparated,
            extract_payloads: true,
            drain: DrainConfig::default(),
            reorder_bound_ms: 1_000,
            dedup_window: 65_536,
            window: WindowPolicy::Session {
                idle_ms: 30_000,
                max_events: 256,
            },
            detector: DetectorChoice::DeepLog(DeepLogConfig::default()),
            fault_tolerance: FaultToleranceConfig::default(),
            observability: ObservabilityConfig::default(),
            batch: monilog_stream::BatchConfig::default(),
        }
    }
}

impl MoniLogConfig {
    /// The supervisor configuration this pipeline config implies: the
    /// entry point for deploying the parsing stage as a
    /// [`monilog_stream::SupervisedParseService`] instead of the inline
    /// sequential parser.
    pub fn supervisor_config(&self) -> monilog_stream::SupervisorConfig {
        let ft = self.fault_tolerance;
        monilog_stream::SupervisorConfig {
            drain: self.drain,
            overload: ft.on_overload,
            retry: monilog_stream::RetryPolicy {
                max_retries: ft.max_retries,
                ..monilog_stream::RetryPolicy::default()
            },
            heartbeat_interval: std::time::Duration::from_millis(ft.heartbeat_ms.max(1)),
            ..monilog_stream::SupervisorConfig::default()
        }
    }
}

/// A detected anomaly with its pool/criticality assignment — MoniLog's
/// aimed output: "a stream of classified anomalies with an assigned
/// criticality" (Section II).
#[derive(Debug, Clone)]
pub struct ClassifiedAnomaly {
    pub report: AnomalyReport,
    pub assignment: Assignment,
}

enum PipelineDetector {
    DeepLog(Box<DeepLog>),
    LogAnomaly(LogAnomaly),
    LogRobust(LogRobust),
    Pca(PcaDetector),
    InvariantMining(InvariantDetector),
    LogClustering(LogClusterDetector),
    CoOccurrence(CoOccurrenceDetector),
}

impl PipelineDetector {
    fn as_dyn(&self) -> &dyn Detector {
        match self {
            PipelineDetector::DeepLog(d) => d.as_ref(),
            PipelineDetector::LogAnomaly(d) => d,
            PipelineDetector::LogRobust(d) => d,
            PipelineDetector::Pca(d) => d,
            PipelineDetector::InvariantMining(d) => d,
            PipelineDetector::LogClustering(d) => d,
            PipelineDetector::CoOccurrence(d) => d,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn Detector {
        match self {
            PipelineDetector::DeepLog(d) => d.as_mut(),
            PipelineDetector::LogAnomaly(d) => d,
            PipelineDetector::LogRobust(d) => d,
            PipelineDetector::Pca(d) => d,
            PipelineDetector::InvariantMining(d) => d,
            PipelineDetector::LogClustering(d) => d,
            PipelineDetector::CoOccurrence(d) => d,
        }
    }
}

/// The assembled MoniLog system.
pub struct MoniLog {
    config: MoniLogConfig,
    dedup: DedupFilter,
    reorder: BoundedReorderBuffer<monilog_model::LogRecord>,
    parser: Drain,
    assembler: WindowAssembler,
    detector: PipelineDetector,
    classifier: AnomalyClassifier,
    registry: Arc<MetricsRegistry>,
    metrics: Arc<PipelineMetrics>,
    tracer: Arc<Tracer>,
    training_windows: Vec<Window>,
    trained: bool,
    next_event_id: u64,
    next_report_id: u64,
    /// Recycled release buffer for `reorder.push_into` — always empty
    /// between `advance` calls, so the steady state does one heap push and
    /// zero vector allocations per line.
    released_scratch: Vec<(Timestamp, monilog_model::LogRecord)>,
    /// Drain match-cache `(hits, misses)` already added to the metrics.
    cache_stats_published: (u64, u64),
    /// [`TemplateStore::revision`] the detector last refreshed its view at.
    templates_refreshed_at: Option<u64>,
}

#[cfg(test)]
thread_local! {
    /// `Detector::update_templates` calls made by this thread's pipelines.
    static TEMPLATE_REFRESHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl MoniLog {
    pub fn new(config: MoniLogConfig) -> Self {
        let detector = match config.detector {
            DetectorChoice::DeepLog(c) => PipelineDetector::DeepLog(Box::new(DeepLog::new(c))),
            DetectorChoice::LogAnomaly(c) => PipelineDetector::LogAnomaly(LogAnomaly::new(c)),
            DetectorChoice::LogRobust(c) => PipelineDetector::LogRobust(LogRobust::new(c)),
            DetectorChoice::Pca(c) => PipelineDetector::Pca(PcaDetector::new(c)),
            DetectorChoice::InvariantMining(c) => {
                PipelineDetector::InvariantMining(InvariantDetector::new(c))
            }
            DetectorChoice::LogClustering(c) => {
                PipelineDetector::LogClustering(LogClusterDetector::new(c))
            }
            DetectorChoice::CoOccurrence(c) => {
                PipelineDetector::CoOccurrence(CoOccurrenceDetector::new(c))
            }
        };
        let registry = MetricsRegistry::shared();
        let tracer = Tracer::shared(
            &TraceConfig {
                sample_rate: config.observability.trace_sample_rate,
                ring_capacity: config.observability.flight_capacity,
                dump_dir: None,
            },
            1,
        );
        MoniLog {
            dedup: DedupFilter::new(config.dedup_window),
            reorder: BoundedReorderBuffer::new(config.reorder_bound_ms),
            parser: Drain::new(config.drain),
            assembler: WindowAssembler::new(config.window),
            detector,
            classifier: AnomalyClassifier::new(),
            metrics: Arc::clone(registry.counters()),
            registry,
            tracer,
            training_windows: Vec::new(),
            trained: false,
            next_event_id: 0,
            next_report_id: 0,
            released_scratch: Vec::new(),
            cache_stats_published: (0, 0),
            templates_refreshed_at: None,
            config,
        }
    }

    /// Build a pipeline whose parser is warm-started from a persisted
    /// template store (`monilog.templates().encode()` from a previous
    /// process) — known log lines keep their template ids across restarts,
    /// so a checkpointed detector stays valid.
    pub fn with_warm_templates(config: MoniLogConfig, store: TemplateStore) -> Self {
        let mut pipeline = Self::new(config);
        pipeline.parser = Drain::warm_start(config.drain, store);
        pipeline
    }

    /// Pipeline metrics (shared snapshot).
    pub fn metrics(&self) -> Arc<PipelineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The full observability registry: the counters above plus per-stage
    /// latency histograms — what the metrics exporter serves.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The span tracer / flight recorder this pipeline records into — hand
    /// it to [`monilog_stream::MetricsExporter::spawn_with_tracer`] to serve
    /// `/trace/{id}` and `/flight`.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// The template store discovered so far.
    pub fn templates(&self) -> &TemplateStore {
        self.parser.store()
    }

    /// Adopt an encoded fleet [`TemplateStore`] (the cluster reconciliation
    /// broadcast): every template the local parser does not already hold is
    /// inserted via `Drain::adopt`, so this node groups lines the same way
    /// the rest of the fleet does. Idempotent; local template ids are
    /// preserved (adoption interns by rendered pattern). Returns the number
    /// of templates newly learned.
    pub fn adopt_templates(&mut self, snapshot: &[u8]) -> Result<usize, CodecError> {
        let incoming = TemplateStore::decode(snapshot)?;
        let before = self.parser.store().len();
        for t in incoming.iter() {
            self.parser.adopt(&t.tokens);
        }
        Ok(self.parser.store().len() - before)
    }

    /// Purge all in-flight state for `source`: open windows containing its
    /// events and its records still held in the reorder buffer. The cluster
    /// revocation path — after failover moved a source to another monitor,
    /// recovered half-windows here must never turn into reports (the new
    /// owner re-emits them from line one). Parsed templates are kept: they
    /// are global knowledge, not per-source state.
    pub fn discard_source(&mut self, source: SourceId) -> usize {
        self.reorder.retain(|record| record.source != source);
        self.assembler.discard_source(source)
    }

    /// The classifier (pool administration surface).
    pub fn classifier_mut(&mut self) -> &mut AnomalyClassifier {
        &mut self.classifier
    }

    pub fn is_trained(&self) -> bool {
        self.trained
    }

    // ----- ingestion ------------------------------------------------------

    /// Feed a training-phase line: it flows through dedup/reorder/parse and
    /// its windows are collected for [`MoniLog::train`].
    pub fn ingest_training(&mut self, raw: &RawLog) {
        for closed in self.advance(raw) {
            self.training_windows.push(closed.window);
        }
    }

    /// Fit the detector on everything collected so far. The training
    /// stream is assumed normal — the realistic regime the paper insists
    /// on ("creating a real-life dataset containing a lot of anomalies is
    /// complicated due to their rare nature").
    pub fn train(&mut self) {
        // Close any windows still open from the training stream.
        let mut remaining: Vec<Window> = Vec::new();
        for (_, record) in self.reorder.flush() {
            if let Some(event) = self.record_to_event(record) {
                let window_start = Instant::now();
                for closed in self.assembler.push(event) {
                    remaining.push(closed.window);
                }
                self.registry.record(Stage::WindowAssembly, window_start);
            }
        }
        for closed in self.assembler.flush() {
            remaining.push(closed.window);
        }
        self.training_windows.extend(remaining);
        assert!(
            !self.training_windows.is_empty(),
            "train() called with no ingested training data"
        );
        let train = TrainSet::unlabeled(std::mem::take(&mut self.training_windows))
            .with_templates(self.parser.store().clone());
        self.detector.as_dyn_mut().fit(&train);
        self.trained = true;
    }

    /// Feed a live line; returns classified anomalies for every window the
    /// line (transitively) closed.
    pub fn ingest(&mut self, raw: &RawLog) -> Vec<ClassifiedAnomaly> {
        assert!(self.trained, "call train() before live ingestion");
        let closed = self.advance(raw);
        self.detect_and_classify(closed)
    }

    /// End-of-stream: flush the reorder buffer and all open windows.
    pub fn flush(&mut self) -> Vec<ClassifiedAnomaly> {
        let mut closed = Vec::new();
        for (_, record) in self.reorder.flush() {
            if let Some(event) = self.record_to_event(record) {
                let window_start = Instant::now();
                closed.extend(self.assembler.push(event));
                self.registry.record(Stage::WindowAssembly, window_start);
            }
        }
        closed.extend(self.assembler.flush());
        if self.trained {
            self.detect_and_classify(closed)
        } else {
            for c in closed {
                self.training_windows.push(c.window);
            }
            Vec::new()
        }
    }

    // ----- persistence ------------------------------------------------------

    /// Checkpoint the trained pipeline: the discovered template store plus
    /// the fitted detector, in one restartable blob. Supported for the
    /// checkpointable detectors (DeepLog with Gaussian/None value model,
    /// LogAnomaly, LogRobust); other choices return an error — they
    /// retrain in seconds from their training windows, so re-ingest
    /// instead.
    pub fn checkpoint(&self) -> Result<Vec<u8>, String> {
        if !self.trained {
            return Err("checkpoint requires a trained pipeline".to_string());
        }
        let detector_bytes = match &self.detector {
            PipelineDetector::DeepLog(d) => d.save()?,
            PipelineDetector::LogRobust(d) => d.save()?,
            PipelineDetector::LogAnomaly(d) => d.save()?,
            other => {
                return Err(format!(
                    "detector {} is not checkpointable (it refits in seconds — retrain instead)",
                    other.as_dyn().name()
                ))
            }
        };
        let mut e = Encoder::with_header(*b"MLCP", 1);
        let store_bytes = self.parser.store().encode();
        e.put_len(store_bytes.len());
        for b in &store_bytes {
            e.put_u8(*b);
        }
        e.put_u8(match &self.detector {
            PipelineDetector::DeepLog(_) => 0,
            PipelineDetector::LogRobust(_) => 1,
            PipelineDetector::LogAnomaly(_) => 2,
            _ => unreachable!("rejected above"),
        });
        e.put_len(detector_bytes.len());
        for b in &detector_bytes {
            e.put_u8(*b);
        }
        Ok(e.finish())
    }

    /// Restore a pipeline from a [`MoniLog::checkpoint`] blob: the parser
    /// is warm-started with the persisted templates (known lines keep their
    /// ids) and the detector resumes fitted — live ingestion can start
    /// immediately, no retraining.
    pub fn restore(config: MoniLogConfig, bytes: &[u8]) -> Result<MoniLog, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"MLCP", 1)?;
        let n = d.get_len()?;
        let mut store_bytes = Vec::with_capacity(n);
        for _ in 0..n {
            store_bytes.push(d.get_u8()?);
        }
        let store = TemplateStore::decode(&store_bytes)?;
        let tag = d.get_u8()?;
        let n = d.get_len()?;
        let mut detector_bytes = Vec::with_capacity(n);
        for _ in 0..n {
            detector_bytes.push(d.get_u8()?);
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        let mut pipeline = MoniLog::with_warm_templates(config, store);
        pipeline.detector = match tag {
            0 => PipelineDetector::DeepLog(Box::new(DeepLog::load(&detector_bytes)?)),
            1 => PipelineDetector::LogRobust(LogRobust::load(&detector_bytes)?),
            2 => PipelineDetector::LogAnomaly(LogAnomaly::load(&detector_bytes)?),
            _ => return Err(CodecError::Corrupt("detector tag")),
        };
        pipeline.trained = true;
        Ok(pipeline)
    }

    /// Serialize the *entire* live pipeline for crash recovery: parser,
    /// fitted detector, open windows, in-flight reorder buffer, dedup
    /// history, and the id counters that make report emission
    /// deterministic. Unlike [`MoniLog::checkpoint`] (templates + model
    /// only), a pipeline imported from this blob continues mid-stream as if
    /// the process had never stopped — the contract the durable journal
    /// replay relies on for exactly-once reporting.
    pub fn export_durable_state(&self) -> Result<Vec<u8>, String> {
        if !self.trained {
            return Err("durable state requires a trained pipeline".to_string());
        }
        let tag = match &self.detector {
            PipelineDetector::DeepLog(_) => 0u8,
            PipelineDetector::LogRobust(_) => 1,
            PipelineDetector::LogAnomaly(_) => 2,
            PipelineDetector::Pca(_) => 3,
            PipelineDetector::InvariantMining(_) => 4,
            other => {
                return Err(format!(
                    "detector {} does not support durable checkpointing",
                    other.as_dyn().name()
                ))
            }
        };
        let detector_bytes = self.detector.as_dyn().save_state()?;
        let mut e = Encoder::with_header(*b"MLDS", 1);
        e.put_bytes(&self.parser.export_state());
        e.put_u8(tag);
        e.put_bytes(&detector_bytes);
        e.put_bytes(&self.assembler.export_state());
        // Reorder buffer: in-flight records in release order, plus the
        // watermark that gates future releases.
        let in_flight = self.reorder.snapshot();
        e.put_len(in_flight.len());
        for (ts, record) in &in_flight {
            e.put_u64(ts.as_millis());
            record.encode_into(&mut e);
        }
        e.put_u64(self.reorder.max_seen().as_millis());
        // Dedup history in insertion order (restore preserves eviction).
        e.put_len(self.dedup.keys().count());
        for (source, seq) in self.dedup.keys() {
            e.put_u16(source.0);
            e.put_u64(seq);
        }
        e.put_u64(self.next_event_id);
        e.put_u64(self.next_report_id);
        Ok(e.finish())
    }

    /// Rebuild a mid-stream pipeline from [`MoniLog::export_durable_state`].
    /// `config` must describe the same deployment (detector choice, window
    /// policy, drain knobs) the state was exported under.
    pub fn import_durable_state(config: MoniLogConfig, bytes: &[u8]) -> Result<MoniLog, String> {
        let err = |e: CodecError| e.to_string();
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"MLDS", 1).map_err(err)?;
        let parser_bytes = d.get_bytes().map_err(err)?;
        let tag = d.get_u8().map_err(err)?;
        let detector_bytes = d.get_bytes().map_err(err)?;
        let assembler_bytes = d.get_bytes().map_err(err)?;
        let n = d.get_len().map_err(err)?;
        let mut in_flight = Vec::with_capacity(n);
        for _ in 0..n {
            let ts = Timestamp::from_millis(d.get_u64().map_err(err)?);
            let record = monilog_model::LogRecord::decode_from(&mut d).map_err(err)?;
            in_flight.push((ts, record));
        }
        let max_seen = Timestamp::from_millis(d.get_u64().map_err(err)?);
        let n = d.get_len().map_err(err)?;
        let mut dedup_keys = Vec::with_capacity(n);
        for _ in 0..n {
            let source = monilog_model::SourceId(d.get_u16().map_err(err)?);
            dedup_keys.push((source, d.get_u64().map_err(err)?));
        }
        let next_event_id = d.get_u64().map_err(err)?;
        let next_report_id = d.get_u64().map_err(err)?;
        if !d.is_exhausted() {
            return Err("trailing bytes after durable state".to_string());
        }

        let mut pipeline = MoniLog::new(config);
        let expected = matches!(
            (&pipeline.detector, tag),
            (PipelineDetector::DeepLog(_), 0)
                | (PipelineDetector::LogRobust(_), 1)
                | (PipelineDetector::LogAnomaly(_), 2)
                | (PipelineDetector::Pca(_), 3)
                | (PipelineDetector::InvariantMining(_), 4)
        );
        if !expected {
            return Err(format!(
                "durable state was exported for a different detector (tag {tag}, config wants {})",
                pipeline.detector.as_dyn().name()
            ));
        }
        pipeline.parser = Drain::import_state(config.drain, &parser_bytes).map_err(err)?;
        pipeline.detector.as_dyn_mut().load_state(&detector_bytes)?;
        pipeline.assembler =
            WindowAssembler::import_state(config.window, &assembler_bytes).map_err(err)?;
        pipeline.reorder =
            BoundedReorderBuffer::restore(config.reorder_bound_ms, in_flight, max_seen);
        pipeline.dedup = DedupFilter::restore(config.dedup_window, dedup_keys);
        pipeline.next_event_id = next_event_id;
        pipeline.next_report_id = next_report_id;
        pipeline.trained = true;
        Ok(pipeline)
    }

    // ----- feedback (Section V) -------------------------------------------

    /// Administrator moved an anomaly to `pool` — passive training signal.
    pub fn feedback_move(&mut self, anomaly: &ClassifiedAnomaly, pool: PoolId) {
        self.classifier.observe_move(&anomaly.report, pool);
    }

    /// Administrator adjusted an anomaly's criticality.
    pub fn feedback_criticality(&mut self, anomaly: &ClassifiedAnomaly, level: Criticality) {
        self.classifier.observe_criticality(&anomaly.report, level);
    }

    // ----- internals -------------------------------------------------------

    /// Record a stage latency (with the trace as a p99 exemplar candidate)
    /// and, for sampled lines, the matching span.
    fn record_stage(&self, stage: Stage, span: SpanStage, start: Instant, trace: Option<TraceId>) {
        self.registry.record_traced(stage, start, trace);
        if let Some(t) = trace {
            self.tracer.record_since(t, span, 0, start, None, None);
        }
    }

    /// [`MoniLog::record_stage`] with an explicit end instant, so the
    /// per-line stage chain in `advance` reads the clock once per stage
    /// boundary instead of twice per stage.
    fn record_stage_between(
        &self,
        stage: Stage,
        span: SpanStage,
        start: Instant,
        end: Instant,
        trace: Option<TraceId>,
    ) {
        self.registry
            .record_between_traced(stage, start, end, trace);
        if let Some(t) = trace {
            self.tracer.record_since(t, span, 0, start, None, None);
        }
    }

    /// Dedup → header parse → reorder; returns windows closed by released
    /// records.
    fn advance(&mut self, raw: &RawLog) -> Vec<ClosedWindow> {
        let trace = self.tracer.trace_for(raw.seq);
        let ingest_start = Instant::now();
        PipelineMetrics::incr(&self.metrics.lines_ingested);
        if !self.dedup.admit(raw.source, raw.seq) {
            PipelineMetrics::incr(&self.metrics.duplicates_dropped);
            self.record_stage(Stage::Ingest, SpanStage::Ingest, ingest_start, trace);
            return Vec::new();
        }
        let record = match parse_header(
            raw,
            &self.config.header_format.as_format(),
            Timestamp::EPOCH,
        ) {
            Ok(r) => r,
            Err(_) => {
                PipelineMetrics::incr(&self.metrics.header_errors);
                self.record_stage(Stage::Ingest, SpanStage::Ingest, ingest_start, trace);
                return Vec::new();
            }
        };
        let merge_start = Instant::now();
        self.record_stage_between(
            Stage::Ingest,
            SpanStage::Ingest,
            ingest_start,
            merge_start,
            trace,
        );
        let ts = record.header.timestamp;
        let mut released = std::mem::take(&mut self.released_scratch);
        self.reorder.push_into(ts, record, &mut released);
        let merge_end = Instant::now();
        self.record_stage_between(
            Stage::MergeDedup,
            SpanStage::MergeDedup,
            merge_start,
            merge_end,
            trace,
        );
        let mut closed = Vec::new();
        for (_, record) in released.drain(..) {
            if let Some(event) = self.record_to_event(record) {
                let etrace = event.trace;
                let window_start = Instant::now();
                closed.extend(self.assembler.push(event));
                self.record_stage(
                    Stage::WindowAssembly,
                    SpanStage::Window,
                    window_start,
                    etrace,
                );
            }
        }
        self.released_scratch = released;
        closed
    }

    /// Payload extraction + template parsing + session derivation.
    fn record_to_event(&mut self, record: monilog_model::LogRecord) -> Option<LogEvent> {
        let trace = self.tracer.trace_for(record.seq);
        let parse_start = Instant::now();
        // Both arms borrow from the record's arrival buffer when they can:
        // extraction only materializes an owned String when a payload is
        // actually spliced out of the message.
        let (text, payload) = if self.config.extract_payloads {
            extract_structured(&record.message)
        } else {
            (
                std::borrow::Cow::Borrowed(record.message.as_str()),
                Default::default(),
            )
        };
        let before = self.parser.store().len();
        let outcome = self.parser.parse(&text);
        let discovered = self.parser.store().len() - before;
        self.registry
            .record_traced(Stage::Parse, parse_start, trace);
        if let Some(t) = trace {
            self.tracer.record_since(
                t,
                SpanStage::Parse,
                0,
                parse_start,
                Some(outcome.template.0),
                Some(self.parser.last_parse_cache_hit()),
            );
        }
        PipelineMetrics::add(&self.metrics.templates_discovered, discovered as u64);
        PipelineMetrics::incr(&self.metrics.lines_parsed);

        let mut variables = outcome.variables;
        for (_, value) in payload.fields {
            variables.push(value);
        }
        let session = derive_session(&variables);
        let event = LogEvent::new(
            EventId(self.next_event_id),
            record.header.timestamp,
            record.source,
            record.header.level,
            outcome.template,
            variables,
            session,
        )
        .with_trace(trace);
        self.next_event_id += 1;
        Some(event)
    }

    fn detect_and_classify(&mut self, closed: Vec<ClosedWindow>) -> Vec<ClassifiedAnomaly> {
        if closed.is_empty() {
            return Vec::new();
        }
        let (hits, misses) = self.parser.cache_stats();
        let (seen_hits, seen_misses) = self.cache_stats_published;
        PipelineMetrics::add(&self.metrics.cache_hits, hits - seen_hits);
        PipelineMetrics::add(&self.metrics.cache_misses, misses - seen_misses);
        self.cache_stats_published = (hits, misses);
        // Templates keep evolving; refresh the semantic detectors' view —
        // a walk of the whole store, so only when the store has changed
        // (the refresh is idempotent: skipping a repeat changes nothing).
        let revision = self.parser.store().revision();
        if self.templates_refreshed_at != Some(revision) {
            self.templates_refreshed_at = Some(revision);
            #[cfg(test)]
            TEMPLATE_REFRESHES.with(|n| n.set(n.get() + 1));
            self.detector
                .as_dyn_mut()
                .update_templates(self.parser.store());
        }
        let stats_before = self.detector.as_dyn().inference_stats();
        let mut out = Vec::new();
        for c in closed {
            // A window's trace is its first sampled event — detect/classify
            // spans and latency exemplars attach to it.
            let wtrace = c.events.iter().find_map(|e| e.trace);
            let detect_start = Instant::now();
            let detector = self.detector.as_dyn();
            // One scoring pass yields verdict, score, kind and breakdown.
            let Some(assessment) = detector.assess(&c.window) else {
                self.record_stage(Stage::Detect, SpanStage::Detect, detect_start, wtrace);
                continue;
            };
            let score = assessment.score;
            let provenance = Provenance {
                trace_ids: c.events.iter().filter_map(|e| e.trace).collect(),
                template_ids: {
                    let mut ids: Vec<u32> = c.events.iter().map(|e| e.template.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                },
                window: c
                    .events
                    .first()
                    .zip(c.events.last())
                    .map(|(a, b)| (a.timestamp, b.timestamp)),
                score_components: assessment.components,
            };
            self.record_stage(Stage::Detect, SpanStage::Detect, detect_start, wtrace);
            let report = AnomalyReport {
                id: self.next_report_id,
                kind: assessment.kind,
                score,
                detector: detector.name().to_string(),
                explanation: format!(
                    "{} flagged a {}-event window with score {score:.3}",
                    detector.name(),
                    c.events.len()
                ),
                events: c.events,
                provenance,
            };
            self.next_report_id += 1;
            PipelineMetrics::incr(&self.metrics.anomalies_reported);
            let classify_start = Instant::now();
            let assignment = self.classifier.classify(&report);
            self.record_stage(Stage::Classify, SpanStage::Classify, classify_start, wtrace);
            out.push(ClassifiedAnomaly { report, assignment });
        }
        let stats = self.detector.as_dyn().inference_stats();
        let m = &self.metrics;
        for (counter, now, before) in [
            (
                &m.detector_memo_hits,
                stats.memo_hits,
                stats_before.memo_hits,
            ),
            (
                &m.detector_memo_misses,
                stats.memo_misses,
                stats_before.memo_misses,
            ),
            (
                &m.detector_parallel_passes,
                stats.parallel_passes,
                stats_before.parallel_passes,
            ),
        ] {
            PipelineMetrics::add(counter, now - before);
        }
        out
    }
}

/// Heuristic session-key derivation: the first variable shaped like
/// `word_1234` (an id with a flow prefix and a counter) — the shape of
/// session keys across our workloads and of HDFS block ids
/// (`blk_<digits>`).
fn derive_session(variables: &[String]) -> Option<SessionKey> {
    variables
        .iter()
        .find(|v| match v.split_once('_') {
            Some((prefix, digits)) => {
                !prefix.is_empty()
                    && prefix.bytes().all(|b| b.is_ascii_alphanumeric())
                    && prefix.bytes().any(|b| b.is_ascii_alphabetic())
                    && !digits.is_empty()
                    && digits.bytes().all(|b| b.is_ascii_digit())
            }
            None => false,
        })
        .map(|v| SessionKey(v.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_session_recognizes_flow_keys() {
        let vars = vec![
            "10.0.0.1".to_string(),
            "blk_1234".to_string(),
            "42".to_string(),
        ];
        assert_eq!(derive_session(&vars), Some(SessionKey("blk_1234".into())));
        assert_eq!(derive_session(&["10.0.0.1".to_string()]), None);
        assert_eq!(derive_session(&["_123".to_string()]), None);
        assert_eq!(derive_session(&["user_id".to_string()]), None);
        assert_eq!(derive_session(&[]), None);
    }

    #[test]
    fn config_default_is_consistent() {
        let c = MoniLogConfig::default();
        assert!(c.extract_payloads);
        assert!(matches!(c.detector, DetectorChoice::DeepLog(_)));
        // The pipeline can be constructed from it.
        let m = MoniLog::new(c);
        assert!(!m.is_trained());
    }

    #[test]
    #[should_panic(expected = "call train() before live ingestion")]
    fn live_ingestion_requires_training() {
        let mut m = MoniLog::new(MoniLogConfig::default());
        m.ingest(&RawLog::new(monilog_model::SourceId(0), 0, "x"));
    }

    #[test]
    fn every_detector_choice_constructs() {
        use monilog_detect::{
            CoOccurrenceDetectorConfig, InvariantDetectorConfig, LogAnomalyConfig,
            LogClusterDetectorConfig, LogRobustConfig, PcaDetectorConfig,
        };
        for choice in [
            DetectorChoice::DeepLog(DeepLogConfig::default()),
            DetectorChoice::LogAnomaly(LogAnomalyConfig::default()),
            DetectorChoice::LogRobust(LogRobustConfig::default()),
            DetectorChoice::Pca(PcaDetectorConfig::default()),
            DetectorChoice::InvariantMining(InvariantDetectorConfig::default()),
            DetectorChoice::LogClustering(LogClusterDetectorConfig::default()),
            DetectorChoice::CoOccurrence(CoOccurrenceDetectorConfig::default()),
        ] {
            let m = MoniLog::new(MoniLogConfig {
                detector: choice,
                ..MoniLogConfig::default()
            });
            assert!(!m.is_trained());
        }
    }

    #[test]
    fn syslog_header_format_flows_through() {
        use monilog_model::SourceId;
        let mut m = MoniLog::new(MoniLogConfig {
            header_format: HeaderFormatChoice::SyslogLike,
            window: crate::windowing::WindowPolicy::Tumbling { size: 4 },
            detector: DetectorChoice::Pca(monilog_detect::PcaDetectorConfig::default()),
            ..MoniLogConfig::default()
        });
        // Syslog-like lines: `<ts> LEVEL component: message`.
        for i in 0..40u64 {
            let line = format!(
                "2021-06-01 10:00:{:02},000 INFO scheduler: job j{} scheduled on node n{}",
                i % 60,
                i,
                i % 4
            );
            m.ingest_training(&RawLog::new(SourceId(0), i, line));
        }
        m.train();
        assert!(m.is_trained());
        assert!(m.templates().len() >= 1);
        assert_eq!(
            PipelineMetrics::get(&m.metrics().header_errors),
            0,
            "syslog lines must parse"
        );
        // A dash-formatted line under the syslog config is a header error,
        // counted and skipped, not fatal.
        let out = m.ingest(&RawLog::new(
            SourceId(0),
            1_000,
            "2021-06-01 10:01:00,000 - scheduler - INFO - job j999 scheduled on node n1",
        ));
        assert!(out.is_empty());
        assert_eq!(PipelineMetrics::get(&m.metrics().header_errors), 1);
    }

    #[test]
    fn bare_header_format_uses_collector_time() {
        use monilog_model::SourceId;
        let mut m = MoniLog::new(MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: crate::windowing::WindowPolicy::Tumbling { size: 2 },
            detector: DetectorChoice::Pca(monilog_detect::PcaDetectorConfig::default()),
            ..MoniLogConfig::default()
        });
        for i in 0..20u64 {
            m.ingest_training(&RawLog::new(
                SourceId(0),
                i,
                format!("bare message number m{i}"),
            ));
        }
        m.train();
        assert!(m.is_trained());
        assert_eq!(PipelineMetrics::get(&m.metrics().header_errors), 0);
    }

    #[test]
    fn checkpoint_requires_training_and_supported_detector() {
        let m = MoniLog::new(MoniLogConfig::default());
        assert!(m.checkpoint().is_err(), "untrained pipeline");
        // PCA pipelines refuse (documented) even when trained.
        use monilog_model::SourceId;
        let mut m = MoniLog::new(MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: crate::windowing::WindowPolicy::Tumbling { size: 2 },
            detector: DetectorChoice::Pca(monilog_detect::PcaDetectorConfig::default()),
            ..MoniLogConfig::default()
        });
        for i in 0..10u64 {
            m.ingest_training(&RawLog::new(SourceId(0), i, format!("msg v{i}")));
        }
        m.train();
        let err = m.checkpoint().unwrap_err();
        assert!(err.contains("not checkpointable"), "{err}");
    }

    #[test]
    #[should_panic(expected = "no ingested training data")]
    fn training_requires_data() {
        MoniLog::new(MoniLogConfig::default()).train();
    }

    /// The crash-recovery contract: exporting mid-stream and importing must
    /// continue exactly where the original left off — same reports, same
    /// ids, same scores — or journal-replay dedup cannot be exactly-once.
    #[test]
    fn durable_state_continues_identically_mid_stream() {
        use monilog_model::SourceId;
        let config = MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: crate::windowing::WindowPolicy::Tumbling { size: 4 },
            detector: DetectorChoice::DeepLog(DeepLogConfig {
                history: 3,
                top_g: 1,
                ..DeepLogConfig::default()
            }),
            ..MoniLogConfig::default()
        };
        let line = |i: u64| {
            if (40..52).contains(&i) {
                format!("unseen failure mode f{i} exploding")
            } else {
                format!(
                    "step {} of job j{}",
                    ["a", "b", "c", "d"][i as usize % 4],
                    i / 4
                )
            }
        };
        let build = || {
            let mut m = MoniLog::new(config);
            for i in 0..32u64 {
                m.ingest_training(&RawLog::new(SourceId(0), i, line(i)));
            }
            m.train();
            m
        };

        // Shadow: uninterrupted run over the live stream.
        let mut shadow = build();
        let mut expected = Vec::new();
        for i in 32..64u64 {
            expected.extend(shadow.ingest(&RawLog::new(SourceId(0), i, line(i))));
        }
        expected.extend(shadow.flush());

        // Subject: stop mid-burst (windows open, ids advanced), export,
        // import, continue.
        let mut subject = build();
        let mut got = Vec::new();
        for i in 32..45u64 {
            got.extend(subject.ingest(&RawLog::new(SourceId(0), i, line(i))));
        }
        let state = subject.export_durable_state().unwrap();
        let mut resumed = MoniLog::import_durable_state(config, &state).unwrap();
        for i in 45..64u64 {
            got.extend(resumed.ingest(&RawLog::new(SourceId(0), i, line(i))));
        }
        got.extend(resumed.flush());

        assert!(!expected.is_empty(), "burst must be flagged");
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.report.id, e.report.id);
            assert_eq!(g.report.kind, e.report.kind);
            assert_eq!(g.report.score, e.report.score);
            let gids: Vec<u64> = g.report.events.iter().map(|ev| ev.id.0).collect();
            let eids: Vec<u64> = e.report.events.iter().map(|ev| ev.id.0).collect();
            assert_eq!(gids, eids, "event ids must survive the restart");
        }

        // Untrained pipelines refuse; truncations are typed errors.
        assert!(MoniLog::new(config).export_durable_state().is_err());
        for cut in [0, 4, 7, state.len() / 2, state.len() - 1] {
            assert!(MoniLog::import_durable_state(config, &state[..cut]).is_err());
        }
        // Config mismatch (different detector) is refused, not garbage.
        let other = MoniLogConfig {
            detector: DetectorChoice::Pca(monilog_detect::PcaDetectorConfig::default()),
            ..config
        };
        let err = match MoniLog::import_durable_state(other, &state) {
            Ok(_) => panic!("detector mismatch must be refused"),
            Err(e) => e,
        };
        assert!(err.contains("different detector"), "{err}");
    }

    #[test]
    fn stage_histograms_populate_end_to_end() {
        use monilog_model::SourceId;
        let mut m = MoniLog::new(MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: crate::windowing::WindowPolicy::Tumbling { size: 4 },
            detector: DetectorChoice::Pca(monilog_detect::PcaDetectorConfig::default()),
            ..MoniLogConfig::default()
        });
        for i in 0..40u64 {
            m.ingest_training(&RawLog::new(
                SourceId(0),
                i,
                format!("task t{} finished on host h{}", i, i % 3),
            ));
        }
        m.train();
        for i in 40..60u64 {
            m.ingest(&RawLog::new(
                SourceId(0),
                i,
                format!("task t{} finished on host h{}", i, i % 3),
            ));
        }
        m.flush();
        let snap = m.registry().snapshot();
        assert_eq!(snap.stage("ingest").unwrap().count, 60, "one per line");
        assert_eq!(snap.stage("merge_dedup").unwrap().count, 60);
        assert_eq!(snap.stage("parse_exec").unwrap().count, 60);
        assert_eq!(
            snap.stage("window").unwrap().count,
            60,
            "one assembly push per parsed event"
        );
        assert!(
            snap.stage("detect").unwrap().count >= 5,
            "one detect per closed window: {snap:?}"
        );
        // The typed snapshot carries the same counters the facade exposes.
        assert_eq!(snap.counter("lines_ingested"), Some(60));
        assert_eq!(snap.counter("lines_parsed"), Some(60));
    }

    /// Regression: only the sharded parse services published Drain's
    /// match-cache outcomes, so the inline pipeline `monilog monitor` runs
    /// showed `cache` 0/0 on `/status` forever. The detector's verdict memo
    /// is published on the same path.
    #[test]
    fn model_health_counters_reach_the_snapshot_and_status() {
        use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
        let hdfs = |n_sessions, seed, start_ms| {
            HdfsWorkload::new(HdfsWorkloadConfig {
                n_sessions,
                seed,
                start_ms,
                ..Default::default()
            })
            .generate()
        };
        let raw = |log: &monilog_loggen::GenLog, offset: u64| {
            RawLog::new(
                log.record.source,
                log.record.seq + offset,
                log.record.to_line(),
            )
        };
        let mut m = MoniLog::new(MoniLogConfig {
            detector: DetectorChoice::DeepLog(DeepLogConfig {
                epochs: 1,
                ..DeepLogConfig::default()
            }),
            ..MoniLogConfig::default()
        });
        for log in &hdfs(60, 5, 1_600_000_000_000) {
            m.ingest_training(&raw(log, 0));
        }
        m.train();
        for log in &hdfs(150, 6, 1_600_003_600_000) {
            m.ingest(&raw(log, 1_000_000));
        }
        m.flush();

        let snap = m.registry().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap();
        let (hits, misses) = m.parser.cache_stats();
        assert!(hits > 0);
        assert_eq!(counter("cache_hits"), hits);
        assert_eq!(counter("cache_misses"), misses);
        let stats = m.detector.as_dyn().inference_stats();
        assert!(stats.memo_hits > 0 && stats.memo_misses > 0, "{stats:?}");
        assert_eq!(counter("detector_memo_hits"), stats.memo_hits);
        assert_eq!(counter("detector_memo_misses"), stats.memo_misses);
        assert_eq!(counter("detector_parallel_passes"), 0, "sessions are short");

        let (_, status) = monilog_stream::ops::render_status(&snap, &Default::default(), 250, 0);
        let rate_after = |key: &str| -> f64 {
            let at = status
                .find(key)
                .unwrap_or_else(|| panic!("{key} in {status}"))
                + key.len();
            let end = status[at..].find([',', '}']).expect("value ends") + at;
            status[at..end].parse().expect("a number")
        };
        assert!(
            status.contains(&format!("\"cache\":{{\"hits\":{hits},")),
            "{status}"
        );
        assert!(rate_after("\"hit_rate\":") > 0.9, "{status}");
        assert!(rate_after("\"memo_hit_rate\":") > 0.5, "{status}");
    }

    /// The semantic detectors' refresh walks the whole template store (and
    /// LogAnomaly re-vectorizes every post-training template): it must run
    /// when the store changed and at no other window close.
    #[test]
    fn templates_are_refreshed_only_when_the_store_changed() {
        use monilog_model::SourceId;
        let refreshes = || TEMPLATE_REFRESHES.with(|n| n.get());
        let mut m = MoniLog::new(MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: crate::windowing::WindowPolicy::Tumbling { size: 4 },
            detector: DetectorChoice::LogAnomaly(LogAnomalyConfig {
                epochs: 1,
                ..LogAnomalyConfig::default()
            }),
            ..MoniLogConfig::default()
        });
        let line = |i: u64| {
            format!(
                "step {} of job j{}",
                ["a", "b", "c", "d"][i as usize % 4],
                i / 4
            )
        };
        for i in 0..80u64 {
            m.ingest_training(&RawLog::new(SourceId(0), i, line(i)));
        }
        m.train();
        let mut seq = 80u64;
        let mut feed = |m: &mut MoniLog, windows: u64, text: &dyn Fn(u64) -> String| {
            for _ in 0..windows * 4 {
                m.ingest(&RawLog::new(SourceId(0), seq, text(seq)));
                seq += 1;
            }
        };
        // The first close refreshes once (the pipeline has no view yet)...
        let start = refreshes();
        feed(&mut m, 1, &line);
        assert_eq!(refreshes() - start, 1);
        // ...and 1,000 closes on a stable store never do.
        let revision = m.templates().revision();
        feed(&mut m, 1_000, &line);
        assert_eq!(m.templates().revision(), revision, "store must be stable");
        assert_eq!(refreshes() - start, 1, "refreshed an unchanged store");
        // A new template is picked up at the next close, once.
        feed(&mut m, 3, &|i| format!("phase {} of task t{i}", i % 4));
        assert!(m.templates().revision() > revision);
        let after_change = refreshes() - start;
        assert!((2..=4).contains(&after_change), "{after_change}");
        feed(&mut m, 50, &|i| format!("phase {} of task t{i}", i % 4));
        assert_eq!(refreshes() - start, after_change);
    }

    #[test]
    fn observability_config_defaults_to_disabled() {
        let c = MoniLogConfig::default();
        assert_eq!(c.observability.metrics_addr, None);
        assert_eq!(c.observability.metrics_interval_ms, 1_000);
        assert_eq!(c.observability.trace_sample_rate, 1_024);
        assert_eq!(c.observability.flight_capacity, 4_096);
    }

    #[test]
    fn anomalies_carry_resolvable_provenance() {
        use monilog_model::SourceId;
        // Trace every line so the flagged window is fully attributable.
        let mut m = MoniLog::new(MoniLogConfig {
            header_format: HeaderFormatChoice::Bare,
            window: crate::windowing::WindowPolicy::Tumbling { size: 4 },
            detector: DetectorChoice::DeepLog(DeepLogConfig {
                history: 3,
                top_g: 1,
                ..DeepLogConfig::default()
            }),
            observability: ObservabilityConfig {
                trace_sample_rate: 1,
                ..ObservabilityConfig::default()
            },
            ..MoniLogConfig::default()
        });
        for i in 0..80u64 {
            m.ingest_training(&RawLog::new(
                SourceId(0),
                i,
                format!(
                    "step {} of job j{}",
                    ["a", "b", "c", "d"][i as usize % 4],
                    i / 4
                ),
            ));
        }
        m.train();
        // Live stream with an out-of-vocabulary burst: DeepLog must flag it.
        let mut anomalies = Vec::new();
        for i in 80..120u64 {
            anomalies.extend(m.ingest(&RawLog::new(
                SourceId(0),
                i,
                format!("totally unseen failure mode f{i} exploding"),
            )));
        }
        anomalies.extend(m.flush());
        assert!(!anomalies.is_empty(), "OOV burst must be flagged");
        let report = &anomalies[0].report;
        let prov = &report.provenance;
        assert!(!prov.is_empty());
        assert_eq!(
            prov.trace_ids.len(),
            report.events.len(),
            "sample rate 1 traces every event"
        );
        assert!(!prov.template_ids.is_empty());
        assert!(prov.window.is_some());
        assert!(prov
            .score_components
            .iter()
            .any(|c| c.name == "sequential_violations"));
        // Every trace id in the provenance resolves in the flight recorder.
        let tracer = m.tracer();
        for t in &prov.trace_ids {
            let json = tracer.trace_json(*t).expect("trace resolvable");
            assert!(json.contains("\"stage\":\"parse_exec\""), "{json}");
        }
        // And the report's JSON carries the provenance block.
        let json = report.to_json();
        assert!(json.contains("\"provenance\":{"), "{json}");
        assert!(json.contains("\"trace_ids\":["), "{json}");
    }
}
