//! # monilog-stream
//!
//! The distributed streaming substrate of MoniLog (Section II: "It is
//! important for MoniLog components to be distributable in order to ensure
//! scalability").
//!
//! - [`merge`] — k-way merging of per-source streams with a bounded
//!   reorder buffer, absorbing the transport noise of Section I ("logs can
//!   arrive in mixed order or sometimes be duplicated"): watermark-based
//!   release plus duplicate suppression by `(source, seq)`.
//! - [`supervisor`] — the off-path parse service (router, per-shard
//!   Drain workers, bounded queues) with per-line retry/quarantine,
//!   crashed-worker respawn that keeps template ids stable, crash-loop
//!   degradation, and configurable overload policies. The `monilog`
//!   binary parses inline instead; the fleet ([`cluster`]) is the
//!   distributed deployment.
//! - [`chaos`] — deterministic fault injection (worker kills, poison
//!   lines, transient faults) for testing the supervisor's guarantees.
//! - [`affinity`] — best-effort thread-per-core pinning (lives in
//!   `monilog-model`, where the detectors' forward-pass workers use it).
//! - [`config`] — typed configuration errors, the parse-retry schedule and
//!   the overload-policy vocabulary shared with the CLI.
//! - [`durable`] — the write-ahead ingest journal, atomic generational
//!   checkpoints, the persistent dead-letter log, and shutdown
//!   signalling: crash recovery across process restarts.
//! - [`metrics`] — cheap shared counters for pipeline observability.
//! - [`observe`] — stage latency histograms, shard gauges, and the typed
//!   [`observe::MetricsSnapshot`] with Prometheus/JSON renderings.
//! - [`export`] — the periodic exporter thread serving snapshots over a
//!   minimal blocking HTTP endpoint.
//! - [`ops`] — the live operations surface on the same listener: the
//!   queryable anomaly report store (`/reports`), the `/status` health
//!   rollup and `/readyz` gate, and hot config reload (`POST /config`,
//!   SIGHUP) through a versioned atomic-swap snapshot.
//! - [`sinks`] — at-least-once anomaly delivery: HTTP/TCP/file sinks
//!   behind a disk-buffered [`sinks::DeliveryPipeline`] with capped
//!   backoff, per-sink circuit breakers and spill-file degradation.
//! - [`net`] — the minimal epoll-based event loop shared by every network
//!   endpoint (ingest sources and the metrics exporter).
//! - [`sources`] — network ingestion: TCP/UDP syslog (RFC 3164/5424,
//!   LF and octet-counting framing), HTTP bulk ingest, and checkpointed
//!   file tailing, all with backpressure into the bounded ingest queue.

pub mod chaos;
pub mod cluster;
pub mod config;
pub mod durable;
pub mod export;
pub mod merge;
pub mod metrics;
pub mod net;
pub mod observe;
pub mod ops;
pub mod sinks;
pub mod sources;
pub mod supervisor;
pub mod trace;

pub use chaos::{
    FaultContext, FaultInjector, FaultPlan, FlakyLinkProxy, FlakySourceClient, SourceChaosStats,
    SourceFault, WorkerKill,
};
pub use cluster::{
    is_router_source, rendezvous_owner, ClusterMailbox, LinkSnapshot, LinkState, Router,
    RouterConfig, RouterLinkConfig, RouterStats, ROUTER_SOURCE_BASE,
};
pub use config::{ConfigError, OverloadPolicy, RetryPolicy};
pub use durable::{
    install_reload_handler, install_shutdown_handler, shutdown_requested, take_reload_request,
    CheckpointStore, DeadLetterLog, DurabilityError, Journal, JournalConfig, LoadedCheckpoint,
};
pub use export::MetricsExporter;
pub use merge::{BoundedReorderBuffer, DedupFilter};
pub use metrics::PipelineMetrics;
pub use monilog_model::affinity;
pub use net::{AsLoopFd, EventLoop, Handler, Interest, LoopCtx, Next};
pub use observe::{
    Exemplar, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot, RateSnapshot,
    ShardGauges, ShardSnapshot, SizeHistogram, SizeSnapshot, Stage, StageSnapshot,
};
pub use ops::{
    ConfigSnapshot, OpsState, ReloadableConfig, ReportStore, ReportsQuery, StatusBoard,
    StatusInputs, StatusLevel, StoredReport, DEFAULT_LATENCY_BUDGET_MS, DEFAULT_REPORT_CAPACITY,
    RELOADABLE_KEYS,
};
pub use sinks::{
    BreakerConfig, BreakerState, BufferPosition, BufferedReport, CircuitBreaker, DeliveryBuffer,
    DeliveryConfig, DeliveryPipeline, DeliveryWorker, FileSink, FramedTcpSink, RouteSpec, Sink,
    SinkError, WebhookSink,
};
pub use sources::{
    FrameDecoder, FrameError, GlobResume, MetricsEndpoint, SourceEvent, SourceQueue, SourcesConfig,
    SourcesServer, SyslogMessage, TailCursor, TailGlobSpec, TailSpec, HTTP_SOURCE,
    SYSLOG_TCP_SOURCE, SYSLOG_UDP_SOURCE, TAIL_SOURCE_BASE,
};
pub use trace::{
    SpanRecord, SpanStage, TraceConfig, Tracer, DEFAULT_FLIGHT_CAPACITY, DEFAULT_SAMPLE_RATE,
};

pub use supervisor::{
    DeadLetter, FailureReason, ParsedItem, ShardHealth, SubmitError, SubmitOutcome,
    SupervisedParseService, SupervisorConfig, CATCH_ALL_TEMPLATE_ID, SHARD_ID_STRIDE,
};
