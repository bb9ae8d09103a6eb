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
//! - [`partition`] — deterministic hash partitioning of a stream across
//!   workers.
//! - [`pipeline`] — parallel stages over crossbeam channels, including the
//!   multi-threaded sharded-Drain runner measured by experiment D1.
//! - [`service`] — the long-lived deployment shape: standing Drain workers
//!   behind bounded queues with end-to-end backpressure.
//! - [`supervisor`] — the fault-tolerant deployment shape: the service
//!   topology plus per-line retry/quarantine, crashed-worker respawn that
//!   keeps template ids stable, crash-loop degradation, and configurable
//!   overload policies.
//! - [`chaos`] — deterministic fault injection (worker kills, poison
//!   lines, transient faults) for testing the supervisor's guarantees.
//! - [`ring`] — single-producer/single-consumer rings with a batched
//!   doorbell, the router→shard transport inside [`service`].
//! - [`affinity`] — best-effort thread-per-core pinning for shard
//!   workers (lives in `monilog-model`, where the detectors reach it too).
//! - [`config`] — typed configuration errors, router batch tuning
//!   ([`config::BatchConfig`]), and the overload-policy vocabulary shared
//!   with the CLI.
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
pub mod partition;
pub mod pipeline;
pub mod ring;
pub mod service;
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
pub use config::{BatchConfig, ConfigError, OverloadPolicy, RetryPolicy};
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
pub use partition::HashPartitioner;
pub use pipeline::{parallel_map, ParallelShardedDrain};
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

// `service::SubmitError` stays module-scoped: the lib root re-exports the
// supervisor's richer `SubmitError` below, and the two must not collide.
pub use service::{
    Item, ParsedItem, ShardedParseService, TrySubmitError, BATCH_FLUSH_INTERVAL, MAX_BATCH,
    SHARD_ID_STRIDE,
};
pub use supervisor::{
    DeadLetter, FailureReason, ShardHealth, SubmitError, SubmitOutcome, SupervisedParseService,
    SupervisorConfig, CATCH_ALL_TEMPLATE_ID,
};
