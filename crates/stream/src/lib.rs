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
//! - [`cluster`] — the fleet: a router that places sources on monitor
//!   nodes by rendezvous hashing, and the links between them. The
//!   distributed deployment of the pipeline.
//! - [`supervisor`] — a plain sharded parse service (router thread,
//!   per-shard Drain workers, bounded queues) that only the benchmark's
//!   `service.submit_recv.*` rows use. The `monilog` binary parses inline.
//! - [`chaos`] — scripted faulty sink receivers, source clients and
//!   cluster links for the delivery, sources and fleet tests.
//! - [`affinity`] — best-effort thread-per-core pinning (lives in
//!   `monilog-model`, where the detectors' forward-pass workers use it).
//! - [`config`] — typed configuration errors, the delivery retry schedule
//!   and the sources' overload-policy vocabulary shared with the CLI.
//! - [`durable`] — the write-ahead ingest journal, atomic generational
//!   checkpoints, the persistent dead-letter log, and shutdown
//!   signalling: crash recovery across process restarts.
//! - [`metrics`] — cheap shared counters for pipeline observability.
//! - [`observe`] — stage latency histograms and the typed
//!   [`observe::MetricsSnapshot`] with Prometheus/JSON renderings.
//! - [`trace`] — sampled span tracing into the flight-recorder ring behind
//!   `/trace/{id}`, `/flight` and `--trace-out`.
//! - [`export`] — the metrics and ops endpoint, standalone on its own
//!   thread or mounted on the sources' event loop.
//! - [`ops`] — the live operations surface on the same listener: the
//!   queryable anomaly report store (`/reports`), the `/status` health
//!   rollup and `/readyz` gate, and hot config reload (`POST /config`,
//!   SIGHUP) through a versioned atomic-swap snapshot.
//! - [`sinks`] — at-least-once anomaly delivery: HTTP/TCP/file sinks
//!   behind a disk-buffered [`sinks::DeliveryPipeline`] with capped
//!   backoff, per-sink circuit breakers and spill-file degradation.
//! - [`net`] — the minimal epoll-based event loop shared by every network
//!   endpoint (ingest sources and the metrics exporter), and the one
//!   HTTP/1.1 layer both HTTP endpoints run on.
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

pub use chaos::{FlakyLinkProxy, FlakySourceClient, SourceChaosStats, SourceFault};
pub use cluster::{
    is_router_source, rendezvous_owner, ClusterMailbox, LinkSnapshot, LinkState, Router,
    RouterConfig, RouterLinkConfig, RouterStats, ROUTER_SOURCE_BASE,
};
pub use config::{ConfigError, OverloadPolicy, RetryPolicy};
pub use durable::{
    install_reload_handler, install_shutdown_handler, shutdown_requested, take_reload_request,
    CheckpointStore, DeadLetter, DeadLetterLog, DurabilityError, FailureReason, Journal,
    JournalConfig, LoadedCheckpoint,
};
pub use export::MetricsExporter;
pub use merge::{BoundedReorderBuffer, DedupFilter};
pub use metrics::PipelineMetrics;
pub use monilog_model::affinity;
pub use net::{AsLoopFd, EventLoop, Handler, Interest, LoopCtx, Next};
pub use observe::{
    Exemplar, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot, RateSnapshot,
    Stage, StageSnapshot,
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
    SourcesServer, SyslogMessage, TailCursor, TailGlobSpec, HTTP_SOURCE, SYSLOG_TCP_SOURCE,
    SYSLOG_UDP_SOURCE, TAIL_SOURCE_BASE,
};
pub use trace::{SpanRecord, Tracer, DEFAULT_FLIGHT_CAPACITY, DEFAULT_SAMPLE_RATE};

pub use supervisor::{
    ParsedItem, SubmitError, SupervisedParseService, SupervisorConfig, SHARD_ID_STRIDE,
};
