//! The monitor side of the cluster wire: a resilient client link to the
//! router, riding the monitor's own sources event loop.
//!
//! The link is two handlers on the [`crate::net::EventLoop`] that
//! [`crate::sources::SourcesServer`] already runs:
//!
//! - [`LinkSupervisor`] — a timer handler owning the reconnect state
//!   machine (capped, jittered backoff; see
//!   [`super::backoff_delay_ms`]).
//! - [`LinkConn`] — the live connection: decodes frames, feeds batch
//!   entries into the same bounded ingest queue the local sources use
//!   (with *hold* semantics — router lines are never shed, the link
//!   pauses reading instead), and speaks the ack/heartbeat/reconcile
//!   protocol.
//!
//! Everything the consumer thread needs crosses through the
//! [`ClusterMailbox`]: revocations and template snapshots flow out of the
//! link; journaled high-water marks (the ack gate) and local template
//! snapshots flow in. A monitor that loses the router is **degraded, not
//! dead**: local sources keep flowing, the mailbox reports the reason for
//! `/readyz`, and the supervisor keeps dialing.

use super::wire::{encode_frame, FrameReader, Message};
use super::{backoff_delay_ms, ROUTER_SOURCE_BASE};
use crate::net::{AsLoopFd, Handler, Interest, LoopCtx, Next};
use crate::sources::{QueueTx, SourceEvent};
use monilog_model::{ByteLine, SourceId};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for the monitor→router link (`monilog monitor --join`).
#[derive(Debug, Clone)]
pub struct RouterLinkConfig {
    pub addr: SocketAddr,
    /// This monitor's stable node name; the router keys acked high-water
    /// marks and assignments by it, so it must survive restarts.
    pub node: String,
    pub reconnect_base_ms: u64,
    pub reconnect_cap_ms: u64,
}

impl RouterLinkConfig {
    pub fn new(addr: SocketAddr, node: String) -> Self {
        RouterLinkConfig {
            addr,
            node,
            reconnect_base_ms: 100,
            reconnect_cap_ms: 2_000,
        }
    }
}

/// Link health, surfaced in `/status` and the `/readyz` degraded reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Dialing or waiting for `Welcome`.
    Connecting,
    Connected,
    /// Connection lost; local sources still flow. Reconnecting.
    Degraded,
}

impl LinkState {
    pub fn as_str(self) -> &'static str {
        match self {
            LinkState::Connecting => "connecting",
            LinkState::Connected => "connected",
            LinkState::Degraded => "degraded",
        }
    }
}

/// Point-in-time view of the link for the ops surface.
#[derive(Debug, Clone)]
pub struct LinkSnapshot {
    pub state: LinkState,
    /// Machine-readable degradation reason (e.g. `router-link-lost`).
    pub reason: Option<String>,
    pub reconnects: u64,
    pub batches_received: u64,
    pub lines_received: u64,
    pub acks_sent: u64,
    pub unacked_batches: usize,
    pub assigned_sources: usize,
    pub reconcile_epoch: u64,
    pub fin: bool,
}

#[derive(Debug)]
struct InflightBatch {
    id: u64,
    maxima: Vec<(SourceId, u64)>,
}

#[derive(Debug)]
struct Inner {
    state: LinkState,
    reason: Option<String>,
    heartbeat_ms: u64,
    assigned: Vec<SourceId>,
    /// Latest template snapshot from `Welcome`/`Reconcile`, for the
    /// consumer to adopt. Replaced, never appended — adoption is
    /// idempotent and only the newest matters.
    templates_in: Option<Vec<u8>>,
    reconcile_epoch: u64,
    revoked: Vec<SourceId>,
    fin: bool,
    /// Batches received but not yet covered by the journal high-water.
    inflight: VecDeque<InflightBatch>,
    /// Per-source: highest seq the consumer has durably journaled.
    journaled_hw: HashMap<SourceId, u64>,
    /// Local template snapshot waiting to be shipped to the router.
    templates_out: Option<Vec<u8>>,
    /// Encoded frames queued toward the router.
    outbox: VecDeque<Vec<u8>>,
    reconnects: u64,
    batches_received: u64,
    lines_received: u64,
    acks_sent: u64,
}

/// The consumer-facing half of the link. All methods are cheap and lock
/// briefly; the consumer polls it once per ingest iteration.
pub struct ClusterMailbox {
    node: String,
    inner: Mutex<Inner>,
}

impl ClusterMailbox {
    pub fn new(node: String) -> Arc<ClusterMailbox> {
        Arc::new(ClusterMailbox {
            node,
            inner: Mutex::new(Inner {
                state: LinkState::Connecting,
                reason: None,
                heartbeat_ms: 250,
                assigned: Vec::new(),
                templates_in: None,
                reconcile_epoch: 0,
                revoked: Vec::new(),
                fin: false,
                inflight: VecDeque::new(),
                journaled_hw: HashMap::new(),
                templates_out: None,
                outbox: VecDeque::new(),
                reconnects: 0,
                batches_received: 0,
                lines_received: 0,
                acks_sent: 0,
            }),
        })
    }

    pub fn node(&self) -> &str {
        &self.node
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cluster mailbox poisoned")
    }

    pub fn snapshot(&self) -> LinkSnapshot {
        let g = self.lock();
        LinkSnapshot {
            state: g.state,
            reason: g.reason.clone(),
            reconnects: g.reconnects,
            batches_received: g.batches_received,
            lines_received: g.lines_received,
            acks_sent: g.acks_sent,
            unacked_batches: g.inflight.len(),
            assigned_sources: g.assigned.len(),
            reconcile_epoch: g.reconcile_epoch,
            fin: g.fin,
        }
    }

    /// Sources revoked since the last call. The consumer must discard any
    /// recovered open windows for them before ingesting further.
    pub fn take_revoked(&self) -> Vec<SourceId> {
        std::mem::take(&mut self.lock().revoked)
    }

    /// Latest fleet template snapshot, if one arrived since the last call.
    pub fn take_templates(&self) -> Option<Vec<u8>> {
        self.lock().templates_in.take()
    }

    /// The consumer's durability point moved: per-source journal
    /// high-water marks after an fsync. Unblocks acks on the next tick.
    pub fn publish_journaled(&self, marks: &[(SourceId, u64)]) {
        let mut g = self.lock();
        for &(source, seq) in marks {
            let hw = g.journaled_hw.entry(source).or_insert(0);
            *hw = (*hw).max(seq);
        }
    }

    /// Queue the local template store for the next reconciliation send.
    pub fn offer_templates(&self, snapshot: Vec<u8>) {
        self.lock().templates_out = Some(snapshot);
    }

    /// Router declared end of stream.
    pub fn fin_received(&self) -> bool {
        self.lock().fin
    }

    /// Batches received but not yet ackable (journal has not covered them).
    pub fn unacked_batches(&self) -> usize {
        self.lock().inflight.len()
    }
}

/// Timer handler that keeps one [`LinkConn`] alive, redialing with capped
/// jittered backoff after every loss.
pub struct LinkSupervisor {
    cfg: RouterLinkConfig,
    tx: QueueTx,
    mailbox: Arc<ClusterMailbox>,
    conn_alive: Arc<AtomicBool>,
    attempt: u32,
    next_attempt: Option<Instant>,
    jitter_seed: u64,
}

impl LinkSupervisor {
    pub(crate) fn new(
        cfg: RouterLinkConfig,
        tx: QueueTx,
        mailbox: Arc<ClusterMailbox>,
    ) -> LinkSupervisor {
        let jitter_seed = cfg.node.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        LinkSupervisor {
            cfg,
            tx,
            mailbox,
            conn_alive: Arc::new(AtomicBool::new(false)),
            attempt: 0,
            next_attempt: None,
            jitter_seed,
        }
    }
}

impl Handler for LinkSupervisor {
    fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep
    }

    fn tick(&mut self, now: Instant, ctx: &mut LoopCtx<'_>) -> Next {
        if self.conn_alive.load(Ordering::SeqCst) {
            // A healthy session resets the backoff ladder.
            if self.mailbox.lock().state == LinkState::Connected {
                self.attempt = 0;
            }
            return Next::Keep;
        }
        if self.next_attempt.is_some_and(|at| now < at) {
            return Next::Keep;
        }
        match TcpStream::connect_timeout(&self.cfg.addr, Duration::from_millis(100)) {
            Ok(conn) => {
                if conn.set_nonblocking(true).is_err() {
                    return Next::Keep;
                }
                let _ = conn.set_nodelay(true);
                {
                    let mut g = self.mailbox.lock();
                    g.state = LinkState::Connecting;
                    g.reason = None;
                    g.outbox.clear();
                    g.inflight.clear();
                    g.reconnects += 1;
                }
                self.conn_alive.store(true, Ordering::SeqCst);
                let hello = encode_frame(&Message::Hello {
                    node: self.cfg.node.clone(),
                    resume: true,
                });
                let fd = conn.loop_fd();
                ctx.register(
                    fd,
                    Box::new(LinkConn {
                        conn,
                        tx: self.tx.clone(),
                        mailbox: self.mailbox.clone(),
                        alive: self.conn_alive.clone(),
                        reader: FrameReader::new(),
                        wbuf: hello,
                        wpos: 0,
                        pending: VecDeque::new(),
                        last_rx: now,
                        last_hb_sent: now,
                    }),
                );
                self.next_attempt = None;
            }
            Err(e) => {
                self.attempt = self.attempt.saturating_add(1);
                let delay = backoff_delay_ms(
                    self.attempt,
                    self.cfg.reconnect_base_ms,
                    self.cfg.reconnect_cap_ms,
                    self.jitter_seed,
                );
                self.next_attempt = Some(now + Duration::from_millis(delay));
                let mut g = self.mailbox.lock();
                g.state = LinkState::Degraded;
                g.reason = Some(format!("router-unreachable: {e}"));
            }
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest::NONE
    }
}

/// Cap on batch entries held locally while the ingest queue is full; while
/// above it the link stops reading the socket (backpressure to the
/// router, never shedding).
const PENDING_HOLD_LIMIT: usize = 1;

/// One live router connection.
struct LinkConn {
    conn: TcpStream,
    tx: QueueTx,
    mailbox: Arc<ClusterMailbox>,
    alive: Arc<AtomicBool>,
    reader: FrameReader,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Batch entries accepted off the wire but still waiting for queue
    /// room. Never shed: acks gate on the journal, so dropping here would
    /// only stall, not lose — but holding is strictly better.
    pending: VecDeque<SourceEvent>,
    last_rx: Instant,
    last_hb_sent: Instant,
}

impl LinkConn {
    fn drop_link(&mut self, reason: &str) -> Next {
        self.alive.store(false, Ordering::SeqCst);
        let mut g = self.mailbox.lock();
        g.state = LinkState::Degraded;
        g.reason = Some(reason.to_string());
        g.outbox.clear();
        // Unacked batches die with the session; the router replays
        // everything past the acked mark and the journal dedups.
        g.inflight.clear();
        Next::Close
    }

    /// Move held entries into the ingest queue, asking the consumer for a
    /// wake when it refuses one.
    fn drain_pending(&mut self) {
        while let Some(ev) = self.pending.pop_front() {
            if let Err(ev) = self.tx.push_or_request_wake(ev) {
                self.pending.push_front(ev);
                return;
            }
        }
    }

    /// Decode frames already in the reader until the hold limit is hit.
    fn process_buffered(&mut self, now: Instant) -> Result<(), &'static str> {
        while self.pending.len() <= PENDING_HOLD_LIMIT {
            match self.reader.next_message() {
                Ok(Some(msg)) => self.handle_message(msg, now)?,
                Ok(None) => break,
                Err(_) => return Err("router-link-lost: corrupt frame"),
            }
        }
        Ok(())
    }

    fn handle_message(&mut self, msg: Message, now: Instant) -> Result<(), &'static str> {
        self.last_rx = now;
        match msg {
            Message::Welcome {
                heartbeat_ms,
                assigned,
                templates,
            } => {
                let mut g = self.mailbox.lock();
                g.state = LinkState::Connected;
                g.reason = None;
                g.heartbeat_ms = heartbeat_ms.max(50);
                g.assigned = assigned;
                if !templates.is_empty() {
                    g.templates_in = Some(templates);
                }
                Ok(())
            }
            Message::Batch { batch_id, entries } => {
                let mut maxima: Vec<(SourceId, u64)> = Vec::new();
                for e in &entries {
                    if e.source.0 < ROUTER_SOURCE_BASE {
                        return Err("batch entry below router source base");
                    }
                    match maxima.iter_mut().find(|(s, _)| *s == e.source) {
                        Some((_, m)) => *m = (*m).max(e.seq),
                        None => maxima.push((e.source, e.seq)),
                    }
                }
                {
                    let mut g = self.mailbox.lock();
                    g.batches_received += 1;
                    g.lines_received += entries.len() as u64;
                    g.inflight.push_back(InflightBatch {
                        id: batch_id,
                        maxima,
                    });
                }
                for e in entries {
                    self.pending.push_back(SourceEvent {
                        source: e.source,
                        line: ByteLine::from_string(String::from_utf8_lossy(&e.line).into_owned()),
                        cursor: None,
                        seq: Some(e.seq),
                    });
                }
                self.drain_pending();
                Ok(())
            }
            Message::Reconcile { epoch, snapshot } => {
                let mut g = self.mailbox.lock();
                if epoch > g.reconcile_epoch {
                    g.reconcile_epoch = epoch;
                    g.templates_in = Some(snapshot);
                }
                Ok(())
            }
            Message::Revoke { source } => {
                self.mailbox.lock().revoked.push(source);
                // Anything held for a revoked source will be discarded by
                // the consumer after ingest; keep the stream simple.
                Ok(())
            }
            Message::Heartbeat { .. } => Ok(()),
            Message::Fin => {
                self.mailbox.lock().fin = true;
                Ok(())
            }
            Message::Hello { .. } | Message::Ack { .. } | Message::Templates { .. } => {
                Err("router sent a monitor-only message")
            }
        }
    }

    /// Ack every inflight batch the journal now covers, send heartbeats
    /// and queued template snapshots. Called from tick.
    fn pump_protocol(&mut self, now: Instant) {
        let mut g = self.mailbox.lock();
        if g.state != LinkState::Connected {
            return;
        }
        loop {
            let ackable = g.inflight.front().is_some_and(|b| {
                b.maxima
                    .iter()
                    .all(|(s, max)| g.journaled_hw.get(s).copied().unwrap_or(0) >= *max)
            });
            if !ackable {
                break;
            }
            let batch = g.inflight.pop_front().expect("front checked");
            let frame = encode_frame(&Message::Ack { batch_id: batch.id });
            g.outbox.push_back(frame);
            g.acks_sent += 1;
        }
        if now - self.last_hb_sent >= Duration::from_millis(g.heartbeat_ms) {
            self.last_hb_sent = now;
            let depth = self.pending.len() as u32;
            g.outbox
                .push_back(encode_frame(&Message::Heartbeat { depth }));
        }
        if let Some(snapshot) = g.templates_out.take() {
            g.outbox
                .push_back(encode_frame(&Message::Templates { snapshot }));
        }
    }

    fn pump_out(&mut self) -> io::Result<()> {
        loop {
            if self.wpos >= self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
                match self.mailbox.lock().outbox.pop_front() {
                    Some(frame) => self.wbuf = frame,
                    None => return Ok(()),
                }
            }
            match self.conn.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    fn has_output(&self) -> bool {
        self.wpos < self.wbuf.len() || !self.mailbox.lock().outbox.is_empty()
    }
}

impl Handler for LinkConn {
    fn ready(&mut self, readable: bool, _writable: bool, ctx: &mut LoopCtx<'_>) -> Next {
        let now = ctx.now;
        if readable && self.pending.len() <= PENDING_HOLD_LIMIT {
            let mut buf = [0u8; 64 * 1024];
            loop {
                match self.conn.read(&mut buf) {
                    Ok(0) => return self.drop_link("router-link-lost: eof"),
                    Ok(n) => self.reader.extend(&buf[..n]),
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return self.drop_link("router-link-lost: read error"),
                }
            }
            if let Err(what) = self.process_buffered(now) {
                return self.drop_link(what);
            }
        }
        if self.pump_out().is_err() {
            return self.drop_link("router-link-lost: write error");
        }
        Next::Keep
    }

    fn wake(&mut self, ctx: &mut LoopCtx<'_>) -> Next {
        self.drain_pending();
        // Frames parked in the reader while we were holding.
        if let Err(what) = self.process_buffered(ctx.now) {
            return self.drop_link(what);
        }
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        self.pump_protocol(now);
        let silence_cap = {
            let g = self.mailbox.lock();
            Duration::from_millis(g.heartbeat_ms.saturating_mul(8).max(2_000))
        };
        if now - self.last_rx > silence_cap {
            return self.drop_link("router-link-lost: heartbeat silence");
        }
        if self.pump_out().is_err() {
            return self.drop_link("router-link-lost: write error");
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest {
            read: self.pending.len() <= PENDING_HOLD_LIMIT,
            write: self.has_output(),
        }
    }
}
