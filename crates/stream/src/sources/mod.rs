//! Network ingestion sources (MoniLog §III "collect": logs arrive from the
//! monitored infrastructure, not from files on the monitor's own disk).
//!
//! Four source kinds, all multiplexed on one [`crate::net::EventLoop`]
//! thread together with the `/metrics` endpoint:
//!
//! - **TCP syslog** — RFC 3164/5424 messages under RFC 6587 framing
//!   (LF-delimited or octet-counted, auto-detected per connection).
//! - **UDP syslog** — one message per datagram (RFC 5426).
//! - **HTTP bulk ingest** — `POST /ingest` with a newline-delimited body;
//!   413 for oversized bodies, 429 when the ingest queue cannot take the
//!   batch.
//! - **File tail** — follow a live log file with inode+offset cursors that
//!   the caller persists through the checkpoint manifest, so a restart
//!   resumes exactly where ingestion stopped.
//!
//! Every source feeds one bounded [`SourceQueue`]; the consumer (the CLI's
//! durable run loop, or [`crate::supervisor::SupervisedParseService`]
//! `submit_batch` in library use) drains it in batches. When the queue is
//! full the configured [`OverloadPolicy`] applies *at the source boundary*:
//!
//! - [`OverloadPolicy::Block`]: TCP connections and file tails stop
//!   reading (dropping read interest lets the kernel socket buffer fill and
//!   push backpressure to the sender); HTTP answers 429; UDP must drop.
//!   A paused connection asks the consumer for a wakeup, and
//!   [`SourceQueue::recv_batch`] wakes the loop once the queue is half
//!   empty, so it resumes while the consumer still has lines to work on.
//! - [`OverloadPolicy::ShedToCatchAll`]: the line is dropped and counted
//!   (`sources_lines_shed`) — the parse-stage catch-all accounting only
//!   exists once a line is *in* the pipeline, so at the boundary shedding
//!   is a counted drop.
//! - [`OverloadPolicy::DeadLetter`]: the raw line is appended to the
//!   dead-letter log with an overload marker for later replay.

pub mod framing;
mod http;
pub mod inflate;
pub mod syslog;
mod tail;

pub use framing::{FrameDecoder, FrameError};
pub use syslog::{parse_syslog, SyslogMessage};
pub use tail::{glob_match, GlobResume, TailCursor, TailGlobSpec, TailSpec, MAX_TAIL_SLOTS};

use crate::config::OverloadPolicy;
use crate::durable::DeadLetterLog;
use crate::export::{bind_reusable, register_metrics_listener, MetricsService};
use crate::metrics::PipelineMetrics;
use crate::net::{AsLoopFd, EventLoop, Handler, Interest, LoopCtx, LoopWaker, Next};
use crate::observe::MetricsRegistry;
use crate::supervisor::{DeadLetter, FailureReason};
use crate::trace::Tracer;
use monilog_model::ByteLine;
use monilog_model::SourceId;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Stable source ids: the merge layer dedups by `(source, seq)` and the
/// durable manifest tracks per-source positions, so ids must never be
/// reassigned. `SourceId(0)` stays the CLI's file-replay source.
pub const SYSLOG_TCP_SOURCE: SourceId = SourceId(2);
pub const SYSLOG_UDP_SOURCE: SourceId = SourceId(3);
pub const HTTP_SOURCE: SourceId = SourceId(4);
/// Tail source `i` ingests as `SourceId(TAIL_SOURCE_BASE + i)`.
pub const TAIL_SOURCE_BASE: u16 = 8;

/// Cap on bytes consumed from one connection per readiness round, for
/// fairness between connections and to bound the `pending` spill when the
/// queue back-pressures mid-round.
const READ_QUANTUM: usize = 256 * 1024;

/// One ingested line, queued for the consumer to journal and submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEvent {
    pub source: SourceId,
    /// The payload line (for syslog: the MSG field, so network-fed and
    /// file-fed ingestion of the same corpus are byte-identical).
    /// Arena-backed: the consumer journals and submits it without
    /// re-allocating; `String` materializes only at the dead-letter edge.
    pub line: ByteLine,
    /// For tail lines: `(tail index, cursor after this line)` — persist it
    /// alongside the journal seq to resume the tail after a restart.
    pub cursor: Option<(usize, TailCursor)>,
    /// For router-fed lines: the wire sequence number assigned by the
    /// router. The consumer journals under exactly this seq and dedups
    /// replays against it; local sources leave it `None`.
    pub seq: Option<u64>,
}

/// Configuration for [`SourcesServer::spawn`].
#[derive(Debug, Clone)]
pub struct SourcesConfig {
    pub syslog_tcp: Option<SocketAddr>,
    pub syslog_udp: Option<SocketAddr>,
    pub http: Option<SocketAddr>,
    pub tails: Vec<TailSpec>,
    /// Glob tails (`--tail 'dir/app-*.log'`): the directory is rescanned
    /// at runtime and every newly matching file gets its own tail slot.
    pub tail_globs: Vec<TailGlobSpec>,
    /// Bound on queued-but-not-consumed lines across all sources.
    pub queue_capacity: usize,
    /// Largest accepted syslog frame / tail line.
    pub max_frame_bytes: usize,
    /// Largest accepted HTTP ingest body.
    pub max_http_body_bytes: usize,
    /// TCP connections idle longer than this are closed (0 disables).
    pub idle_timeout: Duration,
    pub on_overload: OverloadPolicy,
    /// RFC 3164 timestamps carry no year; this fills it in.
    pub assumed_year: i32,
    /// When set, the server also maintains a client link to a cluster
    /// router (`monilog monitor --join`), feeding router-assigned sources
    /// through the same ingest queue.
    pub router: Option<crate::cluster::link::RouterLinkConfig>,
}

impl Default for SourcesConfig {
    fn default() -> Self {
        SourcesConfig {
            syslog_tcp: None,
            syslog_udp: None,
            http: None,
            tails: Vec::new(),
            tail_globs: Vec::new(),
            queue_capacity: 8192,
            max_frame_bytes: 1024 * 1024,
            max_http_body_bytes: 8 * 1024 * 1024,
            idle_timeout: Duration::from_secs(300),
            on_overload: OverloadPolicy::Block,
            assumed_year: current_year(),
            router: None,
        }
    }
}

/// Current UTC year derived from the system clock (no chrono dependency).
pub fn current_year() -> i32 {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // days-from-civil inverse, year part only.
    let days = (secs / 86_400) as i64 + 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (y + i64::from(m <= 2)) as i32
}

/// Consumer half of the bounded ingest queue.
pub struct SourceQueue {
    rx: Receiver<SourceEvent>,
    depth: Arc<AtomicUsize>,
    /// Depth at or below which a producer that asked for it is woken: half
    /// the capacity, so it refills while the consumer still has work.
    low_water: usize,
    needs_wake: Arc<AtomicBool>,
    waker: LoopWaker,
    /// Times `recv_batch` rang the waker, for the resume-delay test.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl SourceQueue {
    /// Wait up to `wait` for the first event, then drain up to `max` without
    /// blocking. Returns an empty vec on timeout.
    pub fn recv_batch(&self, max: usize, wait: Duration) -> Vec<SourceEvent> {
        let mut out = Vec::new();
        if let Ok(ev) = self.rx.recv_timeout(wait) {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            out.push(ev);
            while out.len() < max {
                match self.rx.try_recv() {
                    Ok(ev) => {
                        self.depth.fetch_sub(1, Ordering::SeqCst);
                        out.push(ev);
                    }
                    Err(_) => break,
                }
            }
        }
        if self.depth.load(Ordering::SeqCst) <= self.low_water
            && self.needs_wake.swap(false, Ordering::SeqCst)
        {
            self.waker.wake();
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
        out
    }

    /// Lines currently queued (approximate under concurrency).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }
}

/// Producer half, shared by every source handler (and the cluster link,
/// which feeds router-assigned sources through the same bounded queue).
#[derive(Clone)]
pub(crate) struct QueueTx {
    tx: SyncSender<SourceEvent>,
    depth: Arc<AtomicUsize>,
    capacity: usize,
    /// Set by a producer that holds lines back; swapped by the consumer,
    /// which then wakes the loop ([`Handler::wake`]).
    needs_wake: Arc<AtomicBool>,
}

impl QueueTx {
    pub(crate) fn try_push(&self, ev: SourceEvent) -> Result<(), SourceEvent> {
        match self.tx.try_send(ev) {
            Ok(()) => {
                self.depth.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            Err(TrySendError::Full(ev)) | Err(TrySendError::Disconnected(ev)) => Err(ev),
        }
    }

    /// [`QueueTx::try_push`] for a producer that will hold the line back on
    /// `Err` and wait for [`Handler::wake`]. The wake is requested *before*
    /// a second attempt: if that one fails too, the queue was full after
    /// the request, so a later `recv_batch` is bound to see it. Without the
    /// second attempt a consumer that emptied the queue between the failed
    /// push and the request would never look at the flag again.
    pub(crate) fn push_or_request_wake(&self, ev: SourceEvent) -> Result<(), SourceEvent> {
        let ev = match self.try_push(ev) {
            Ok(()) => return Ok(()),
            Err(ev) => ev,
        };
        self.needs_wake.store(true, Ordering::SeqCst);
        self.try_push(ev)
    }

    /// Free queue slots (approximate; used for the HTTP 429 admission check).
    fn free(&self) -> usize {
        self.capacity
            .saturating_sub(self.depth.load(Ordering::SeqCst))
    }
}

/// State shared by every handler on the sources loop.
struct Shared {
    tx: QueueTx,
    metrics: Arc<PipelineMetrics>,
    /// [`OverloadPolicy`] ordinal. Atomic so a hot config reload
    /// ([`SourcesServer::set_overload_policy`]) can flip it mid-stream
    /// without pausing the loop; each enqueue reads the current value.
    policy: AtomicU8,
    dlq: Option<Arc<DeadLetterLog>>,
    max_frame_bytes: usize,
    max_http_body_bytes: usize,
    idle_timeout: Duration,
    assumed_year: i32,
    /// Overload drops diverted to the dead-letter log carry a synthetic,
    /// monotonically decreasing-from-max seq — the real journal seq is
    /// assigned by the consumer, which these lines never reach.
    dlq_seq: AtomicUsize,
    /// Next free tail slot for glob-discovered files, seeded above every
    /// static tail and every slot recovered from the checkpoint manifest.
    next_tail_slot: AtomicUsize,
    /// Every live tail as `(slot, path)` — static and glob-discovered —
    /// so the consumer can persist path-keyed cursors for files it never
    /// saw in its configuration ([`SourcesServer::tail_paths`]).
    tail_registry: std::sync::Mutex<Vec<(usize, std::path::PathBuf)>>,
}

/// `OverloadPolicy` <-> atomic-cell ordinal (the enum itself cannot live
/// in an atomic).
fn policy_ordinal(p: OverloadPolicy) -> u8 {
    match p {
        OverloadPolicy::Block => 0,
        OverloadPolicy::ShedToCatchAll => 1,
        OverloadPolicy::DeadLetter => 2,
    }
}

fn policy_from_ordinal(v: u8) -> OverloadPolicy {
    match v {
        1 => OverloadPolicy::ShedToCatchAll,
        2 => OverloadPolicy::DeadLetter,
        _ => OverloadPolicy::Block,
    }
}

impl Shared {
    fn policy(&self) -> OverloadPolicy {
        policy_from_ordinal(self.policy.load(Ordering::Relaxed))
    }

    /// Enqueue a line; on a full queue apply the overload policy.
    /// `Err(event)` means the caller must hold the line and pause (Block
    /// policy on a pausable source); `Ok` means the line was consumed one
    /// way or another.
    fn push_or_apply_policy(&self, ev: SourceEvent, can_pause: bool) -> Result<(), SourceEvent> {
        let pushed = if can_pause && self.policy() == OverloadPolicy::Block {
            self.tx.push_or_request_wake(ev)
        } else {
            self.tx.try_push(ev)
        };
        match pushed {
            Ok(()) => {
                PipelineMetrics::add(&self.metrics.sources_lines, 1);
                Ok(())
            }
            Err(ev) => match self.policy() {
                OverloadPolicy::Block if can_pause => Err(ev),
                OverloadPolicy::Block | OverloadPolicy::ShedToCatchAll => {
                    PipelineMetrics::add(&self.metrics.sources_lines_shed, 1);
                    Ok(())
                }
                OverloadPolicy::DeadLetter => {
                    self.quarantine(ev.line);
                    Ok(())
                }
            },
        }
    }

    fn quarantine(&self, line: ByteLine) {
        PipelineMetrics::add(&self.metrics.sources_dead_lettered, 1);
        if let Some(dlq) = &self.dlq {
            let seq = self.dlq_seq.fetch_add(1, Ordering::SeqCst) as u64;
            let _ = dlq.append(&[DeadLetter {
                seq: u64::MAX - seq,
                shard: None,
                line: line.into_string(),
                reason: FailureReason::Overload,
                attempts: 0,
            }]);
        }
    }
}

/// Handle to the running sources server. Dropping stops the loop, closing
/// every listener and connection.
pub struct SourcesServer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    syslog_tcp_addr: Option<SocketAddr>,
    syslog_udp_addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
    metrics_addr: Option<SocketAddr>,
    mailbox: Option<Arc<crate::cluster::ClusterMailbox>>,
}

/// Optional `/metrics` endpoint mounted on the same loop as the sources.
/// With `ops` set, the live operations surface (`/reports`, `/status`,
/// `/readyz`, `/config`) is served from the same listener.
pub struct MetricsEndpoint {
    pub addr: SocketAddr,
    pub interval: Duration,
    pub tracer: Option<Arc<Tracer>>,
    pub ops: Option<Arc<crate::ops::OpsState>>,
}

impl SourcesServer {
    /// Bind every configured source, mount the optional metrics endpoint on
    /// the same event loop, and start serving on a dedicated thread.
    /// Returns the server handle plus the consumer end of the ingest queue.
    pub fn spawn(
        config: SourcesConfig,
        registry: Arc<MetricsRegistry>,
        dlq: Option<Arc<DeadLetterLog>>,
        metrics_endpoint: Option<MetricsEndpoint>,
    ) -> io::Result<(SourcesServer, SourceQueue)> {
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_capacity.max(1));
        let depth = Arc::new(AtomicUsize::new(0));
        let needs_wake = Arc::new(AtomicBool::new(false));
        let queue_tx = QueueTx {
            tx,
            depth: depth.clone(),
            capacity: config.queue_capacity.max(1),
            needs_wake: needs_wake.clone(),
        };
        // Glob slots start above every static tail and every slot a
        // previous life handed out (recovered through `known`), so a
        // restart never reassigns a slot to a different file.
        let mut next_tail_slot = config.tails.len();
        for glob in &config.tail_globs {
            for k in &glob.known {
                next_tail_slot = next_tail_slot.max(k.slot + 1);
            }
        }
        let static_tails: Vec<(usize, std::path::PathBuf)> = config
            .tails
            .iter()
            .enumerate()
            .map(|(i, spec)| (i, spec.path.clone()))
            .collect();
        let shared = Arc::new(Shared {
            tx: queue_tx,
            metrics: registry.counters().clone(),
            policy: AtomicU8::new(policy_ordinal(config.on_overload)),
            dlq,
            max_frame_bytes: config.max_frame_bytes,
            max_http_body_bytes: config.max_http_body_bytes,
            idle_timeout: config.idle_timeout,
            assumed_year: config.assumed_year,
            dlq_seq: AtomicUsize::new(0),
            next_tail_slot: AtomicUsize::new(next_tail_slot),
            tail_registry: std::sync::Mutex::new(static_tails),
        });

        let mut event_loop = EventLoop::new()?;
        let waker = event_loop.waker()?;
        let mut syslog_tcp_addr = None;
        let mut syslog_udp_addr = None;
        let mut http_addr = None;
        let mut metrics_addr = None;

        if let Some(addr) = config.syslog_tcp {
            let listener = bind_reusable(addr)?;
            syslog_tcp_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let fd = listener.loop_fd();
            event_loop.register(
                fd,
                Box::new(SyslogListener {
                    listener,
                    shared: shared.clone(),
                }),
            )?;
        }
        if let Some(addr) = config.syslog_udp {
            let socket = UdpSocket::bind(addr)?;
            syslog_udp_addr = Some(socket.local_addr()?);
            socket.set_nonblocking(true)?;
            let fd = socket.loop_fd();
            event_loop.register(
                fd,
                Box::new(SyslogUdp {
                    socket,
                    shared: shared.clone(),
                    buf: vec![0u8; 64 * 1024],
                }),
            )?;
        }
        if let Some(addr) = config.http {
            let listener = bind_reusable(addr)?;
            http_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let fd = listener.loop_fd();
            event_loop.register(
                fd,
                Box::new(http::IngestListener::new(listener, shared.clone())),
            )?;
        }
        for (index, spec) in config.tails.iter().enumerate() {
            event_loop.register_timer(Box::new(tail::FileTailHandler::new(
                spec.clone(),
                index,
                shared.clone(),
            )));
        }
        for glob in &config.tail_globs {
            event_loop.register_timer(Box::new(tail::GlobTailHandler::new(
                glob.clone(),
                shared.clone(),
            )));
        }
        if let Some(ep) = metrics_endpoint {
            let listener = bind_reusable(ep.addr)?;
            metrics_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let service = Arc::new(MetricsService::new(registry, ep.tracer, ep.ops));
            register_metrics_listener(&mut event_loop, listener, service, ep.interval)?;
        }
        let mut mailbox = None;
        if let Some(link_cfg) = config.router.clone() {
            let mb = crate::cluster::ClusterMailbox::new(link_cfg.node.clone());
            event_loop.register_timer(Box::new(crate::cluster::link::LinkSupervisor::new(
                link_cfg,
                shared.tx.clone(),
                mb.clone(),
            )));
            mailbox = Some(mb);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("monilog-sources".into())
            .spawn(move || event_loop.run(stop_flag))
            .expect("spawn sources thread");

        Ok((
            SourcesServer {
                stop,
                handle: Some(handle),
                shared,
                syslog_tcp_addr,
                syslog_udp_addr,
                http_addr,
                metrics_addr,
                mailbox,
            },
            SourceQueue {
                rx,
                depth,
                low_water: config.queue_capacity / 2,
                needs_wake,
                waker,
                #[cfg(test)]
                wakes: AtomicUsize::new(0),
            },
        ))
    }

    /// Swap the overload policy live (the `POST /config on-overload=...`
    /// path). Takes effect on the next enqueue; no lines in flight are
    /// dropped by the swap itself.
    pub fn set_overload_policy(&self, policy: OverloadPolicy) {
        self.shared
            .policy
            .store(policy_ordinal(policy), Ordering::Relaxed);
    }

    /// The overload policy currently in force.
    pub fn overload_policy(&self) -> OverloadPolicy {
        self.shared.policy()
    }

    pub fn syslog_tcp_addr(&self) -> Option<SocketAddr> {
        self.syslog_tcp_addr
    }
    pub fn syslog_udp_addr(&self) -> Option<SocketAddr> {
        self.syslog_udp_addr
    }
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The cluster link mailbox, when this server was spawned with a
    /// router link (`--join`). The consumer polls it each ingest round.
    pub fn cluster_mailbox(&self) -> Option<Arc<crate::cluster::ClusterMailbox>> {
        self.mailbox.clone()
    }

    /// Every live tail as `(slot, path)` — static tails plus files a glob
    /// discovered at runtime. The consumer resolves the path of a cursor
    /// index it has never seen here, so the persisted cursor stays
    /// path-keyed and survives restarts.
    pub fn tail_paths(&self) -> Vec<(usize, std::path::PathBuf)> {
        self.shared
            .tail_registry
            .lock()
            .map(|reg| reg.clone())
            .unwrap_or_default()
    }
}

impl Drop for SourcesServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Accepts TCP syslog connections.
struct SyslogListener {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Handler for SyslogListener {
    fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
        loop {
            match self.listener.accept() {
                Ok((conn, _peer)) => {
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    PipelineMetrics::add(&self.shared.metrics.sources_connections, 1);
                    let fd = conn.loop_fd();
                    ctx.register(fd, Box::new(SyslogConn::new(conn, self.shared.clone())));
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(_) => return Next::Keep,
            }
        }
    }
}

/// One TCP syslog connection: framing + parsing + backpressure.
struct SyslogConn {
    conn: TcpStream,
    shared: Arc<Shared>,
    buf: Vec<u8>,
    decoder: FrameDecoder,
    /// Lines decoded but not yet accepted by the queue (Block policy).
    pending: VecDeque<ByteLine>,
    last_activity: Instant,
    paused: bool,
    eof: bool,
}

impl SyslogConn {
    fn new(conn: TcpStream, shared: Arc<Shared>) -> Self {
        let max = shared.max_frame_bytes;
        SyslogConn {
            conn,
            shared,
            buf: Vec::new(),
            decoder: FrameDecoder::new(max),
            pending: VecDeque::new(),
            last_activity: Instant::now(),
            paused: false,
            eof: false,
        }
    }

    fn close(&self) -> Next {
        PipelineMetrics::add(&self.shared.metrics.sources_disconnects, 1);
        Next::Close
    }

    /// Try to move pending lines into the queue. Returns false while the
    /// queue still refuses lines.
    fn flush_pending(&mut self) -> bool {
        while let Some(line) = self.pending.pop_front() {
            // A held line can always pause again: it already survived one
            // full-queue round.
            let ev = SourceEvent {
                source: SYSLOG_TCP_SOURCE,
                line,
                cursor: None,
                seq: None,
            };
            if let Err(ev) = self.shared.push_or_apply_policy(ev, true) {
                self.pending.push_front(ev.line);
                return false;
            }
        }
        true
    }

    fn ingest_frames(&mut self, frames: Vec<String>) {
        for line in frames {
            let msg = ByteLine::from_string(parse_syslog(&line, self.shared.assumed_year).msg);
            if self.paused {
                self.pending.push_back(msg);
                continue;
            }
            let ev = SourceEvent {
                source: SYSLOG_TCP_SOURCE,
                line: msg,
                cursor: None,
                seq: None,
            };
            if let Err(ev) = self.shared.push_or_apply_policy(ev, true) {
                self.pending.push_back(ev.line);
                self.paused = true;
                PipelineMetrics::add(&self.shared.metrics.sources_paused, 1);
            }
        }
    }
}

impl Handler for SyslogConn {
    fn ready(&mut self, readable: bool, _writable: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        if !readable || self.paused || self.eof {
            return Next::Keep;
        }
        let mut consumed = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    let torn = self.decoder.finish(&mut self.buf);
                    if torn > 0 {
                        PipelineMetrics::add(&self.shared.metrics.sources_frame_errors, torn);
                    }
                    break;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                    consumed += n;
                    let mut frames = Vec::new();
                    if self.decoder.drain(&mut self.buf, &mut frames).is_err() {
                        // Octet-count desync is unrecoverable: drop the
                        // connection (RFC 6587 §3.4.1).
                        PipelineMetrics::add(&self.shared.metrics.sources_frame_errors, 1);
                        return self.close();
                    }
                    self.ingest_frames(frames);
                    if consumed >= READ_QUANTUM || self.paused {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(),
            }
        }
        // Oversized LF lines are dropped by the decoder; account them.
        let dropped = std::mem::take(&mut self.decoder.dropped);
        if dropped > 0 {
            PipelineMetrics::add(&self.shared.metrics.sources_frame_errors, dropped);
        }
        if self.eof && self.pending.is_empty() {
            return self.close();
        }
        Next::Keep
    }

    fn wake(&mut self, ctx: &mut LoopCtx<'_>) -> Next {
        if self.paused && self.flush_pending() {
            self.paused = false;
            self.last_activity = ctx.now;
        }
        if self.eof && self.pending.is_empty() {
            return self.close();
        }
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        if !self.shared.idle_timeout.is_zero()
            && self.pending.is_empty()
            && now.duration_since(self.last_activity) >= self.shared.idle_timeout
        {
            return self.close();
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest {
            read: !self.paused && !self.eof,
            write: false,
        }
    }
}

/// UDP syslog: one message per datagram. UDP cannot backpressure, so a full
/// queue always drops (counted; dead-lettered under that policy).
struct SyslogUdp {
    socket: UdpSocket,
    shared: Arc<Shared>,
    buf: Vec<u8>,
}

impl Handler for SyslogUdp {
    fn ready(&mut self, readable: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        if !readable {
            return Next::Keep;
        }
        let mut consumed = 0usize;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, _peer)) => {
                    consumed += n;
                    if n == self.buf.len() {
                        // recv() silently truncates datagrams larger than
                        // the buffer; a exactly-full read is the tell.
                        PipelineMetrics::add(&self.shared.metrics.sources_udp_truncated, 1);
                    }
                    let raw = String::from_utf8_lossy(&self.buf[..n]);
                    let trimmed = raw.trim_end_matches(['\r', '\n']);
                    if trimmed.is_empty() {
                        continue;
                    }
                    let msg = parse_syslog(trimmed, self.shared.assumed_year).msg;
                    let ev = SourceEvent {
                        source: SYSLOG_UDP_SOURCE,
                        line: msg.into(),
                        cursor: None,
                        seq: None,
                    };
                    // can_pause=false: dropping is UDP's only overload move.
                    let _ = self.shared.push_or_apply_policy(ev, false);
                    if consumed >= READ_QUANTUM {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        Next::Keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn test_config(queue: usize) -> SourcesConfig {
        SourcesConfig {
            syslog_tcp: Some("127.0.0.1:0".parse().unwrap()),
            syslog_udp: Some("127.0.0.1:0".parse().unwrap()),
            http: Some("127.0.0.1:0".parse().unwrap()),
            queue_capacity: queue,
            assumed_year: 2026,
            ..SourcesConfig::default()
        }
    }

    fn registry() -> Arc<MetricsRegistry> {
        MetricsRegistry::shared_with_shards(1)
    }

    fn drain_for(queue: &SourceQueue, want: usize, secs: u64) -> Vec<SourceEvent> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            got.extend(queue.recv_batch(256, Duration::from_millis(20)));
        }
        got
    }

    #[test]
    fn tcp_syslog_lf_and_octet_framing_end_to_end() {
        let reg = registry();
        let (server, queue) = SourcesServer::spawn(test_config(1024), reg, None, None).unwrap();
        let addr = server.syslog_tcp_addr().unwrap();

        // LF-framed connection.
        let mut lf = TcpStream::connect(addr).unwrap();
        lf.write_all(b"<14>1 2026-08-08T12:00:00Z h app - - - first line\n")
            .unwrap();
        lf.write_all(b"plain second line\n").unwrap();
        drop(lf);

        // Octet-counted connection.
        let mut oc = TcpStream::connect(addr).unwrap();
        let msg = "<14>1 2026-08-08T12:00:00Z h app - - - third line";
        oc.write_all(format!("{} {}", msg.len(), msg).as_bytes())
            .unwrap();
        drop(oc);

        let mut lines: Vec<String> = drain_for(&queue, 3, 5)
            .into_iter()
            .map(|e| e.line.into_string())
            .collect();
        lines.sort();
        assert_eq!(lines, vec!["first line", "plain second line", "third line"]);
    }

    #[test]
    fn udp_syslog_datagrams_arrive() {
        let reg = registry();
        let (server, queue) = SourcesServer::spawn(test_config(64), reg, None, None).unwrap();
        let addr = server.syslog_udp_addr().unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"<13>Feb  5 17:32:18 host app: datagram payload", addr)
            .unwrap();
        let got = drain_for(&queue, 1, 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, "datagram payload");
        assert_eq!(got[0].source, SYSLOG_UDP_SOURCE);
    }

    /// Idle connections the wakeup test may park on the loop: 1,000, or as
    /// many as the fd limit leaves room for (two fds each) without
    /// starving the tests running beside it.
    fn idle_crowd() -> usize {
        let soft = std::fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("Max open files"))?;
                line.split_whitespace().nth(3)?.parse::<usize>().ok()
            })
            .unwrap_or(1024);
        1000.min(soft.saturating_sub(512) / 2)
    }

    /// Block policy through repeated pause/resume cycles: nothing lost,
    /// nothing duplicated, order kept — and a paused connection refills the
    /// queue as soon as the consumer has drained it to the low-water mark,
    /// not on the next 50 ms tick. Returns the per-cycle resume delays.
    fn pause_resume_cycles(idle: usize) -> Vec<Duration> {
        let reg = registry();
        let capacity = 64usize;
        let mut cfg = test_config(capacity);
        cfg.on_overload = OverloadPolicy::Block;
        let (server, queue) = SourcesServer::spawn(cfg, reg.clone(), None, None).unwrap();
        let addr = server.syslog_tcp_addr().unwrap();
        let _crowd: Vec<TcpStream> = (0..idle)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();

        let total = capacity * 10;
        let mut conn = TcpStream::connect(addr).unwrap();
        for i in 0..total {
            conn.write_all(format!("line number {i}\n").as_bytes())
                .unwrap();
        }

        let deadline = Instant::now() + Duration::from_secs(30);
        let alive = |what: &str| assert!(Instant::now() < deadline, "stalled: {what}");
        let mut got: Vec<SourceEvent> = Vec::new();
        let mut delays = Vec::new();
        loop {
            // A slow consumer: it looks at the queue only once the
            // connection holds lines back (and has asked for a wake), or
            // once everything left already sits in the queue.
            let asked = || queue.needs_wake.load(Ordering::SeqCst);
            while !asked() && got.len() + queue.depth() < total {
                alive("waiting for the connection to pause");
                std::thread::yield_now();
            }
            if !asked() {
                break;
            }
            let wakes = queue.wakes.load(Ordering::SeqCst);
            while queue.wakes.load(Ordering::SeqCst) == wakes {
                alive("draining to the low-water mark");
                got.extend(queue.recv_batch(8, Duration::from_millis(20)));
            }
            // That call drained to the mark and rang the waker. Nobody
            // receives now, so only a resumed connection lifts the depth
            // back over the mark.
            let rang = Instant::now();
            while queue.depth() <= queue.low_water && got.len() + queue.depth() < total {
                alive("waiting for the connection to resume");
                std::thread::yield_now();
            }
            delays.push(rang.elapsed());
        }
        got.extend(drain_for(&queue, total - got.len(), 20));
        assert_eq!(got.len(), total, "Block policy must not lose lines");
        for (i, ev) in got.iter().enumerate() {
            assert_eq!(ev.line.as_str(), format!("line number {i}"), "order kept");
        }
        assert!(queue.recv_batch(8, Duration::from_millis(50)).is_empty());
        assert_eq!(reg.counters().sources_lines_shed.load(Ordering::SeqCst), 0);
        drop(conn);
        delays
    }

    fn assert_resumes_before_the_tick(mut delays: Vec<Duration>) {
        assert!(delays.len() >= 10, "only {} pause cycles", delays.len());
        delays.sort();
        let median = delays[delays.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "median resume delay {median:?} over {} cycles (TICK is {:?})",
            delays.len(),
            EventLoop::TICK
        );
    }

    #[test]
    fn block_policy_pauses_the_connection_and_loses_nothing() {
        assert_resumes_before_the_tick(pause_resume_cycles(0));
    }

    #[test]
    fn a_thousand_idle_connections_do_not_delay_the_resume() {
        assert_resumes_before_the_tick(pause_resume_cycles(idle_crowd()));
    }

    #[test]
    fn overload_policy_hot_swaps_without_losing_lines() {
        let reg = registry();
        let mut cfg = test_config(4); // tiny queue
        cfg.on_overload = OverloadPolicy::ShedToCatchAll;
        let (server, queue) = SourcesServer::spawn(cfg, reg.clone(), None, None).unwrap();
        assert_eq!(server.overload_policy(), OverloadPolicy::ShedToCatchAll);

        // Flip to Block before any traffic: the saturated queue must now
        // pause the connection instead of shedding — zero lines lost.
        server.set_overload_policy(OverloadPolicy::Block);
        assert_eq!(server.overload_policy(), OverloadPolicy::Block);

        let addr = server.syslog_tcp_addr().unwrap();
        let total = 200usize;
        let mut conn = TcpStream::connect(addr).unwrap();
        for i in 0..total {
            conn.write_all(format!("swap line {i}\n").as_bytes())
                .unwrap();
        }
        drop(conn);
        let got = drain_for(&queue, total, 20);
        assert_eq!(got.len(), total, "post-swap Block policy must not drop");
        assert_eq!(reg.counters().sources_lines_shed.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn shed_policy_drops_and_counts_when_saturated() {
        let reg = registry();
        let mut cfg = test_config(2);
        cfg.on_overload = OverloadPolicy::ShedToCatchAll;
        let (server, queue) = SourcesServer::spawn(cfg, reg.clone(), None, None).unwrap();
        let addr = server.syslog_tcp_addr().unwrap();

        let mut conn = TcpStream::connect(addr).unwrap();
        for i in 0..100 {
            conn.write_all(format!("flood {i}\n").as_bytes()).unwrap();
        }
        drop(conn);
        std::thread::sleep(Duration::from_millis(500));
        let got = drain_for(&queue, 100, 1);
        assert!(got.len() < 100, "tiny queue + shed must drop some lines");
        let shed = reg.counters().sources_lines_shed.load(Ordering::SeqCst);
        assert!(shed > 0, "sheds must be counted");
        assert_eq!(got.len() as u64 + shed, 100, "every line accounted for");
    }

    #[test]
    fn dead_letter_policy_diverts_to_the_dlq() {
        let dir = std::env::temp_dir().join(format!("monilog-src-dlq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dlq = Arc::new(DeadLetterLog::open(dir.join("dead_letter.jsonl"), 1 << 20).unwrap());
        let reg = registry();
        let mut cfg = test_config(2);
        cfg.on_overload = OverloadPolicy::DeadLetter;
        let (server, queue) =
            SourcesServer::spawn(cfg, reg.clone(), Some(dlq.clone()), None).unwrap();
        let addr = server.syslog_tcp_addr().unwrap();

        let mut conn = TcpStream::connect(addr).unwrap();
        for i in 0..50 {
            conn.write_all(format!("burst {i}\n").as_bytes()).unwrap();
        }
        drop(conn);
        std::thread::sleep(Duration::from_millis(500));
        let got = drain_for(&queue, 50, 1);
        let letters = dlq.load().unwrap();
        assert!(!letters.is_empty(), "overload must dead-letter lines");
        assert!(letters.iter().all(|l| l.reason == FailureReason::Overload));
        assert_eq!(got.len() + letters.len(), 50, "every line accounted for");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_endpoint_rides_the_same_loop() {
        let reg = registry();
        let (server, _queue) = SourcesServer::spawn(
            test_config(64),
            reg,
            None,
            Some(MetricsEndpoint {
                addr: "127.0.0.1:0".parse().unwrap(),
                interval: Duration::from_millis(100),
                tracer: None,
                ops: None,
            }),
        )
        .unwrap();
        let addr = server.metrics_addr().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("monilog_sources_lines_total"),
            "{response}"
        );
    }

    #[test]
    fn frame_desync_closes_the_connection_and_counts() {
        let reg = registry();
        let (server, queue) =
            SourcesServer::spawn(test_config(64), reg.clone(), None, None).unwrap();
        let addr = server.syslog_tcp_addr().unwrap();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"99999999999 never").unwrap(); // 11-digit header
        let mut buf = [0u8; 16];
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Server closes: read returns 0.
        assert_eq!(conn.read(&mut buf).unwrap_or(0), 0);
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
        assert!(reg.counters().sources_frame_errors.load(Ordering::SeqCst) >= 1);
    }
}
