//! The router process: source partitioning, batch fan-out, failure
//! detection, and replay.
//!
//! One [`Router`] owns a TCP listener on the shared epoll loop
//! ([`crate::net::EventLoop`]) plus a registry of monitor nodes. The
//! driver thread (the CLI's `router` mode) feeds lines through
//! [`Router::route_line`]; the router assigns each new source an owner by
//! rendezvous hashing over the currently-connected fleet, journals every
//! sealed batch to its retention [`Journal`] (the WAL segment format, one
//! series per source), and ships it as a CRC-framed [`Message::Batch`].
//!
//! ## Failure model
//!
//! A node is *dead* when its connection drops or its heartbeats go silent
//! past the configured timeout. Death starts a grace clock with capped,
//! jittered backoff — a crashed process that restarts quickly rejoins and
//! receives a targeted replay (everything past its acked high-water mark)
//! instead of triggering a fleet-wide reshuffle. If the grace expires, the
//! dead node's sources are re-assigned to the survivors and **replayed in
//! full from the retention journal**: the new owner rebuilds every window
//! from line one, so the reports it emits are a deterministic superset of
//! whatever the dead node had already delivered — content-identical
//! duplicates, deduplicated downstream. Acked high-water marks, not
//! in-flight bookkeeping, are the single source of truth: on any
//! disconnect the outbox and in-flight queue are discarded and the next
//! session replays from the mark.

use super::wire::{encode_frame, BatchEntry, FrameReader, Message};
use super::{backoff_delay_ms, rendezvous_owner};
use crate::durable::{DurabilityError, Journal, JournalConfig};
use crate::net::{EventLoop, Handler, Interest, LoopCtx, Next};
use monilog_model::{RawLog, SourceId, TemplateStore};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Router tuning. Defaults are sized for the experiment harnesses: small
/// batches so a SIGKILL lands mid-stream, sub-second failure detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// TCP listen address for monitor nodes (`0` port picks a free one).
    pub listen: SocketAddr,
    /// Directory of the retention journal. A run deletes the segments a
    /// previous run left there: the router never recovers.
    pub buffer_dir: PathBuf,
    /// Lines per sealed batch.
    pub batch_lines: usize,
    /// Max sealed-but-unacked batches per node before the driver blocks.
    pub max_inflight: usize,
    /// Heartbeat send cadence.
    pub heartbeat_ms: u64,
    /// Silence (no frames, no heartbeats) after which a node is dead.
    pub dead_after_ms: u64,
    /// Base grace before a dead node's sources are re-assigned; doubles
    /// with each failed rebalance attempt (no survivors yet), capped.
    pub rebalance_grace_ms: u64,
    /// Cap on the rebalance backoff.
    pub rebalance_cap_ms: u64,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".parse().expect("static addr"),
            buffer_dir: std::env::temp_dir().join("monilog-router"),
            batch_lines: 64,
            max_inflight: 8,
            heartbeat_ms: 250,
            dead_after_ms: 1_500,
            rebalance_grace_ms: 500,
            rebalance_cap_ms: 4_000,
            jitter_seed: 0x4D6F_6E69,
        }
    }
}

/// Router failure.
#[derive(Debug)]
pub enum RouterError {
    Io(io::Error),
    Durability(DurabilityError),
    /// A blocking call (join wait, finish drain) exceeded its deadline.
    Timeout(&'static str),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "router i/o: {e}"),
            RouterError::Durability(e) => write!(f, "router buffer: {e}"),
            RouterError::Timeout(what) => write!(f, "router timed out waiting for {what}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

impl From<DurabilityError> for RouterError {
    fn from(e: DurabilityError) -> Self {
        RouterError::Durability(e)
    }
}

/// Counters for `/status`, the CLI summary line, and harness assertions.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    pub lines_routed: u64,
    pub batches_sent: u64,
    pub batches_acked: u64,
    pub lines_replayed: u64,
    pub rebalances: u64,
    pub rejoins: u64,
    pub template_epoch: u64,
    pub template_count: usize,
    /// `(node, connected, assigned_sources)` per known node.
    pub nodes: Vec<(String, bool, usize)>,
}

/// One sealed, sent, not-yet-acked batch.
#[derive(Debug, Clone)]
struct Inflight {
    id: u64,
    /// Per-source max seq in the batch; an ack folds these into the
    /// node's acked high-water marks.
    maxima: Vec<(SourceId, u64)>,
}

#[derive(Debug, Default)]
struct Node {
    connected: bool,
    /// Bumped on every (re)connect; stale connection handlers no-op.
    conn_gen: u64,
    last_seen: Option<Instant>,
    last_heartbeat_sent: Option<Instant>,
    /// Encoded frames awaiting the connection handler. Cleared on
    /// disconnect — replay-from-acked-high-water re-derives the content.
    outbox: VecDeque<Vec<u8>>,
    inflight: VecDeque<Inflight>,
    /// Per-source: highest seq this node has durably acked.
    acked_hw: HashMap<SourceId, u64>,
    /// Per-source: highest seq enqueued toward this node this session.
    sent_hw: HashMap<SourceId, u64>,
    /// Lines accumulated toward the next sealed batch.
    pending: Vec<BatchEntry>,
    dead_since: Option<Instant>,
    rebalance_at: Option<Instant>,
    rebalance_attempt: u32,
    fin_sent: bool,
}

impl Node {
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.inflight.is_empty() && self.outbox.is_empty()
    }
}

struct Core {
    cfg: RouterConfig,
    nodes: HashMap<String, Node>,
    /// source → owning node name. Sticky: only death moves an entry.
    assignments: HashMap<SourceId, String>,
    /// Every accepted line, journaled before send and never pruned while
    /// the run lasts — the full-replay substrate.
    retention: Journal,
    /// Per-source: highest seq accepted from the driver.
    source_seq: HashMap<SourceId, u64>,
    fleet_templates: TemplateStore,
    template_epoch: u64,
    next_batch_id: u64,
    finished: bool,
    stats: RouterStats,
    /// Fatal loop-side error surfaced to the driver.
    failure: Option<String>,
}

impl Core {
    fn connected_nodes(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.connected)
            .map(|(name, _)| name.clone())
            .collect();
        v.sort();
        v
    }

    /// Seal `node`'s pending lines into a batch: journal and fsync them to
    /// the retention journal first (durability point), then enqueue the
    /// frame.
    fn seal_pending(&mut self, name: &str) -> Result<(), DurabilityError> {
        let node = self.nodes.get_mut(name).expect("sealing unknown node");
        if node.pending.is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut node.pending);
        let mut maxima: Vec<(SourceId, u64)> = Vec::new();
        for e in &entries {
            let line = String::from_utf8_lossy(&e.line).into_owned();
            self.retention.append(&RawLog::new(e.source, e.seq, line))?;
            match maxima.iter_mut().find(|(s, _)| *s == e.source) {
                Some((_, m)) => *m = (*m).max(e.seq),
                None => maxima.push((e.source, e.seq)),
            }
        }
        self.retention.sync()?;
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        let frame = encode_frame(&Message::Batch {
            batch_id: id,
            entries,
        });
        let node = self.nodes.get_mut(name).expect("sealing unknown node");
        node.inflight.push_back(Inflight { id, maxima });
        node.outbox.push_back(frame);
        self.stats.batches_sent += 1;
        Ok(())
    }

    /// Queue a replay of `source` toward `name`, skipping everything at or
    /// below that node's acked high-water mark. Returns lines queued.
    fn replay_source(&mut self, source: SourceId, name: &str) -> Result<u64, DurabilityError> {
        let from = *self
            .nodes
            .get(name)
            .and_then(|n| n.acked_hw.get(&source))
            .unwrap_or(&0);
        let lines: Vec<BatchEntry> = Journal::replay_source(&self.cfg.buffer_dir, source, from)?
            .into_iter()
            .map(|r| BatchEntry {
                source,
                seq: r.seq,
                line: r.line.as_bytes().to_vec(),
            })
            .collect();
        let mut queued = 0u64;
        let batch_lines = self.cfg.batch_lines.max(1);
        for chunk in lines.chunks(batch_lines) {
            let id = self.next_batch_id;
            self.next_batch_id += 1;
            let max = chunk.last().expect("non-empty chunk").seq;
            let frame = encode_frame(&Message::Batch {
                batch_id: id,
                entries: chunk.to_vec(),
            });
            let node = self.nodes.get_mut(name).expect("replay to unknown node");
            node.inflight.push_back(Inflight {
                id,
                maxima: vec![(source, max)],
            });
            node.outbox.push_back(frame);
            node.sent_hw.insert(source, max);
            self.stats.batches_sent += 1;
            queued += chunk.len() as u64;
        }
        self.stats.lines_replayed += queued;
        Ok(queued)
    }

    /// Every accepted line is durably acked by its current owner.
    fn fully_acked(&self) -> bool {
        self.source_seq.iter().all(|(source, &high)| {
            self.assignments
                .get(source)
                .and_then(|owner| self.nodes.get(owner))
                .and_then(|n| n.acked_hw.get(source))
                .is_some_and(|&acked| acked >= high)
        })
    }

    fn mark_disconnected(&mut self, name: &str, gen: u64, now: Instant) {
        let grace = backoff_delay_ms(
            0,
            self.cfg.rebalance_grace_ms,
            self.cfg.rebalance_cap_ms,
            self.cfg.jitter_seed,
        );
        let Some(node) = self.nodes.get_mut(name) else {
            return;
        };
        if node.conn_gen != gen || !node.connected {
            return;
        }
        node.connected = false;
        node.dead_since = Some(now);
        node.rebalance_attempt = 0;
        node.rebalance_at = Some(now + Duration::from_millis(grace));
        node.outbox.clear();
        node.inflight.clear();
        node.sent_hw = node.acked_hw.clone();
        node.fin_sent = false;
    }

    /// Move every source owned by `dead` to a survivor and queue a full
    /// replay (from the new owner's acked mark, normally zero).
    fn rebalance_from(&mut self, dead: &str) -> Result<(), DurabilityError> {
        let survivors = self.connected_nodes();
        if survivors.is_empty() {
            return Ok(());
        }
        let moved: Vec<SourceId> = self
            .assignments
            .iter()
            .filter(|(_, owner)| owner.as_str() == dead)
            .map(|(s, _)| *s)
            .collect();
        for source in moved {
            let new_owner =
                survivors[rendezvous_owner(source, &survivors).expect("non-empty")].clone();
            self.assignments.insert(source, new_owner.clone());
            self.replay_source(source, &new_owner)?;
        }
        if let Some(node) = self.nodes.get_mut(dead) {
            node.dead_since = None;
            node.rebalance_at = None;
        }
        self.stats.rebalances += 1;
        Ok(())
    }

    fn snapshot_stats(&self) -> RouterStats {
        let mut s = self.stats.clone();
        s.template_epoch = self.template_epoch;
        s.template_count = self.fleet_templates.len();
        let mut names: Vec<&String> = self.nodes.keys().collect();
        names.sort();
        s.nodes = names
            .into_iter()
            .map(|name| {
                let assigned = self
                    .assignments
                    .values()
                    .filter(|o| o.as_str() == name)
                    .count();
                (name.clone(), self.nodes[name].connected, assigned)
            })
            .collect();
        s
    }
}

struct Shared {
    core: Mutex<Core>,
    cv: Condvar,
}

impl Shared {
    fn with<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        let mut core = self.core.lock().expect("router core poisoned");
        let r = f(&mut core);
        self.cv.notify_all();
        r
    }
}

/// The router handle owned by the driver thread.
pub struct Router {
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Bind the listener, start the event-loop thread, return the handle.
    pub fn spawn(cfg: RouterConfig) -> Result<Router, RouterError> {
        let retention = Journal::open_empty(&cfg.buffer_dir, JournalConfig::default())?;
        let listen = cfg.listen;

        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                cfg,
                nodes: HashMap::new(),
                assignments: HashMap::new(),
                retention,
                source_seq: HashMap::new(),
                fleet_templates: TemplateStore::new(),
                template_epoch: 0,
                next_batch_id: 1,
                finished: false,
                stats: RouterStats::default(),
                failure: None,
            }),
            cv: Condvar::new(),
        });

        let mut el = EventLoop::new()?;
        let accepting = shared.clone();
        let local_addr = el.listen(listen, move |conn| {
            let _ = conn.set_nodelay(true);
            Box::new(NodeConn {
                conn,
                shared: accepting.clone(),
                reader: FrameReader::new(),
                wbuf: Vec::new(),
                wpos: 0,
                node: None,
                gen: 0,
            })
        })?;
        el.register_timer(Box::new(FleetTimer {
            shared: shared.clone(),
        }));

        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = stop.clone();
        let thread = std::thread::Builder::new()
            .name("monilog-router".into())
            .spawn(move || el.run(loop_stop))?;

        Ok(Router {
            shared,
            stop,
            local_addr,
            thread: Some(thread),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Block until `n` distinct nodes are connected.
    pub fn wait_for_nodes(&self, n: usize, timeout: Duration) -> Result<(), RouterError> {
        let deadline = Instant::now() + timeout;
        let mut core = self.shared.core.lock().expect("router core poisoned");
        loop {
            if core.nodes.values().filter(|nd| nd.connected).count() >= n {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RouterError::Timeout("fleet join"));
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, deadline - now)
                .expect("router core poisoned");
            core = guard;
        }
    }

    /// Route one line: assign an owner for new sources, append to the
    /// owner's pending batch, seal when full. Blocks while the owner is at
    /// its in-flight cap (or dead and not yet rebalanced) — backpressure,
    /// never loss.
    pub fn route_line(&self, source: SourceId, line: &[u8]) -> Result<(), RouterError> {
        let mut core = self.shared.core.lock().expect("router core poisoned");
        loop {
            if let Some(err) = core.failure.take() {
                return Err(RouterError::Io(io::Error::other(err)));
            }
            if !core.assignments.contains_key(&source) {
                let nodes = core.connected_nodes();
                if let Some(i) = rendezvous_owner(source, &nodes) {
                    core.assignments.insert(source, nodes[i].clone());
                }
            }
            let ready = core
                .assignments
                .get(&source)
                .and_then(|owner| core.nodes.get(owner).map(|n| (owner.clone(), n)))
                .filter(|(_, n)| n.connected && n.inflight.len() < core.cfg.max_inflight)
                .map(|(owner, _)| owner);
            if let Some(owner) = ready {
                let seq = core.source_seq.get(&source).copied().unwrap_or(0) + 1;
                core.source_seq.insert(source, seq);
                core.stats.lines_routed += 1;
                let full = {
                    let node = core.nodes.get_mut(&owner).expect("owner exists");
                    node.pending.push(BatchEntry {
                        source,
                        seq,
                        line: line.to_vec(),
                    });
                    let hw = node.sent_hw.entry(source).or_insert(0);
                    *hw = (*hw).max(seq);
                    node.pending.len() >= core.cfg.batch_lines
                };
                if full {
                    core.seal_pending(&owner)?;
                    self.shared.cv.notify_all();
                }
                return Ok(());
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, Duration::from_millis(50))
                .expect("router core poisoned");
            core = guard;
        }
    }

    /// Seal every node's partial batch.
    pub fn flush(&self) -> Result<(), RouterError> {
        self.shared.with(|core| {
            let names: Vec<String> = core.nodes.keys().cloned().collect();
            for name in names {
                core.seal_pending(&name)?;
            }
            Ok(())
        })
    }

    /// Declare end of input, wait until every accepted line is durably
    /// acked by its current owner (riding out any failovers in between),
    /// then send `Fin` and let the fleet drain.
    pub fn finish(&self, timeout: Duration) -> Result<RouterStats, RouterError> {
        self.flush()?;
        self.shared.with(|core| core.finished = true);
        let deadline = Instant::now() + timeout;
        let mut core = self.shared.core.lock().expect("router core poisoned");
        loop {
            let settled = core.fully_acked()
                && core
                    .nodes
                    .values()
                    .all(|n| !n.connected || (n.drained() && n.fin_sent));
            if settled {
                return Ok(core.snapshot_stats());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RouterError::Timeout("fleet drain"));
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, Duration::from_millis(50))
                .expect("router core poisoned");
            core = guard;
        }
    }

    pub fn stats(&self) -> RouterStats {
        self.shared.with(|core| core.snapshot_stats())
    }

    /// Stop the event loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One monitor node's connection.
struct NodeConn {
    conn: TcpStream,
    shared: Arc<Shared>,
    reader: FrameReader,
    /// Frame currently being written (partial writes park here).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Node name, known after `Hello`.
    node: Option<String>,
    /// Connection generation; stale handlers must not touch node state.
    gen: u64,
}

impl NodeConn {
    fn disconnect(&mut self, now: Instant) {
        if let Some(name) = self.node.clone() {
            let gen = self.gen;
            self.shared
                .with(|core| core.mark_disconnected(&name, gen, now));
        }
    }

    fn handle_hello(&mut self, name: String, now: Instant) {
        let gen = self.shared.with(|core| {
            let heartbeat_ms = core.cfg.heartbeat_ms;
            let node = core.nodes.entry(name.clone()).or_default();
            let rejoin = node.conn_gen > 0;
            node.conn_gen += 1;
            let gen = node.conn_gen;
            node.connected = true;
            node.last_seen = Some(now);
            node.last_heartbeat_sent = Some(now);
            node.dead_since = None;
            node.rebalance_at = None;
            node.rebalance_attempt = 0;
            node.outbox.clear();
            node.inflight.clear();
            node.sent_hw = node.acked_hw.clone();
            node.fin_sent = false;
            if rejoin {
                core.stats.rejoins += 1;
            }

            let assigned: Vec<SourceId> = {
                let mut v: Vec<SourceId> = core
                    .assignments
                    .iter()
                    .filter(|(_, owner)| owner.as_str() == name)
                    .map(|(s, _)| *s)
                    .collect();
                v.sort_by_key(|s| s.0);
                v
            };
            let welcome = encode_frame(&Message::Welcome {
                heartbeat_ms,
                assigned: assigned.clone(),
                templates: core.fleet_templates.encode(),
            });
            core.nodes
                .get_mut(&name)
                .expect("entry")
                .outbox
                .push_back(welcome);

            // Revoke every known source this node does not own. Keying
            // this off the node's acked high-water marks is not enough: a
            // node killed mid-first-batch journaled lines (and will
            // resurrect open half-windows from that journal on restart)
            // without ever acking, so the router would hold no mark for
            // it. Over-revoking is free — discarding a source the monitor
            // never held is a no-op — while an unrevoked half-window
            // flushes as a bogus truncated-session anomaly at exit.
            let mut revoked: Vec<SourceId> = core
                .source_seq
                .keys()
                .filter(|s| core.assignments.get(s).map(String::as_str) != Some(name.as_str()))
                .copied()
                .collect();
            revoked.sort_by_key(|s| s.0);
            for source in revoked {
                let frame = encode_frame(&Message::Revoke { source });
                core.nodes
                    .get_mut(&name)
                    .expect("entry")
                    .outbox
                    .push_back(frame);
            }

            // Targeted replay: everything this node owns past its acked
            // high-water mark (zero for a cold join — nothing queued).
            for source in assigned {
                if core.source_seq.get(&source).copied().unwrap_or(0)
                    > core.nodes[&name]
                        .acked_hw
                        .get(&source)
                        .copied()
                        .unwrap_or(0)
                {
                    if let Err(e) = core.replay_source(source, &name) {
                        core.failure = Some(format!("replay of src{} failed: {e}", source.0));
                    }
                }
            }
            gen
        });
        self.gen = gen;
        self.node = Some(name);
    }

    fn handle_message(&mut self, msg: Message, now: Instant) -> Result<(), ()> {
        match msg {
            Message::Hello { node, .. } => {
                self.handle_hello(node, now);
                Ok(())
            }
            Message::Ack { batch_id } => {
                let Some(name) = self.node.clone() else {
                    return Err(());
                };
                let gen = self.gen;
                self.shared.with(|core| {
                    let Some(node) = core.nodes.get_mut(&name) else {
                        return;
                    };
                    if node.conn_gen != gen {
                        return;
                    }
                    node.last_seen = Some(now);
                    // Acks are cumulative per connection: draining up to and
                    // including `batch_id` is safe because the monitor
                    // journals in arrival order.
                    if let Some(pos) = node.inflight.iter().position(|b| b.id == batch_id) {
                        for done in node.inflight.drain(..=pos) {
                            for (source, max) in done.maxima {
                                let hw = node.acked_hw.entry(source).or_insert(0);
                                *hw = (*hw).max(max);
                            }
                            core.stats.batches_acked += 1;
                        }
                    }
                });
                Ok(())
            }
            Message::Heartbeat { .. } => {
                let Some(name) = self.node.clone() else {
                    return Err(());
                };
                let gen = self.gen;
                self.shared.with(|core| {
                    if let Some(node) = core.nodes.get_mut(&name) {
                        if node.conn_gen == gen {
                            node.last_seen = Some(now);
                        }
                    }
                });
                Ok(())
            }
            Message::Templates { snapshot } => {
                if self.node.is_none() {
                    return Err(());
                }
                let Ok(incoming) = TemplateStore::decode(&snapshot) else {
                    // A corrupt snapshot is a protocol error.
                    return Err(());
                };
                self.shared.with(|core| {
                    let changed = super::reconcile::merge_template_store(
                        &mut core.fleet_templates,
                        &incoming,
                    );
                    if changed > 0 {
                        core.template_epoch += 1;
                        let frame = encode_frame(&Message::Reconcile {
                            epoch: core.template_epoch,
                            snapshot: core.fleet_templates.encode(),
                        });
                        for node in core.nodes.values_mut().filter(|n| n.connected) {
                            node.outbox.push_back(frame.clone());
                        }
                    }
                });
                Ok(())
            }
            // Monitors never send these; receiving one is a protocol error.
            Message::Welcome { .. }
            | Message::Batch { .. }
            | Message::Reconcile { .. }
            | Message::Revoke { .. }
            | Message::Fin => Err(()),
        }
    }

    /// Write queued frames until the socket would block.
    fn pump_out(&mut self) -> io::Result<()> {
        loop {
            if self.wpos >= self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
                let next = match &self.node {
                    Some(name) => {
                        let gen = self.gen;
                        self.shared.with(|core| {
                            core.nodes.get_mut(name).and_then(|n| {
                                if n.conn_gen == gen {
                                    n.outbox.pop_front()
                                } else {
                                    None
                                }
                            })
                        })
                    }
                    None => None,
                };
                match next {
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
        if self.wpos < self.wbuf.len() {
            return true;
        }
        match &self.node {
            Some(name) => {
                let gen = self.gen;
                self.shared.with(|core| {
                    core.nodes
                        .get(name)
                        .is_some_and(|n| n.conn_gen == gen && !n.outbox.is_empty())
                })
            }
            None => false,
        }
    }
}

impl Handler for NodeConn {
    fn ready(&mut self, readable: bool, _writable: bool, ctx: &mut LoopCtx<'_>) -> Next {
        let now = ctx.now;
        if readable {
            let mut buf = [0u8; 64 * 1024];
            loop {
                match self.conn.read(&mut buf) {
                    Ok(0) => {
                        self.disconnect(now);
                        return Next::Close;
                    }
                    Ok(n) => self.reader.extend(&buf[..n]),
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        self.disconnect(now);
                        return Next::Close;
                    }
                }
            }
            loop {
                match self.reader.next_message() {
                    Ok(Some(msg)) => {
                        if self.handle_message(msg, now).is_err() {
                            self.disconnect(now);
                            return Next::Close;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Torn or corrupt frame: drop the connection; the
                        // monitor reconnects and replay covers the gap.
                        self.disconnect(now);
                        return Next::Close;
                    }
                }
            }
        }
        if self.pump_out().is_err() {
            self.disconnect(now);
            return Next::Close;
        }
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        if let Some(name) = self.node.clone() {
            let gen = self.gen;
            let alive = self.shared.with(|core| {
                let dead_after = Duration::from_millis(core.cfg.dead_after_ms);
                let heartbeat = Duration::from_millis(core.cfg.heartbeat_ms);
                let finished = core.finished;
                let Some(node) = core.nodes.get_mut(&name) else {
                    return false;
                };
                if node.conn_gen != gen {
                    return false;
                }
                if node.last_seen.is_some_and(|seen| now - seen > dead_after) {
                    core.mark_disconnected(&name, gen, now);
                    return false;
                }
                if node
                    .last_heartbeat_sent
                    .is_none_or(|sent| now - sent >= heartbeat)
                {
                    node.last_heartbeat_sent = Some(now);
                    node.outbox.push_back(encode_frame(&Message::Heartbeat {
                        depth: node.inflight.len() as u32,
                    }));
                }
                if finished && !node.fin_sent && node.pending.is_empty() && node.inflight.is_empty()
                {
                    node.outbox.push_back(encode_frame(&Message::Fin));
                    node.fin_sent = true;
                }
                true
            });
            if !alive {
                return Next::Close;
            }
        }
        if self.pump_out().is_err() {
            self.disconnect(now);
            return Next::Close;
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest {
            read: true,
            write: self.has_output(),
        }
    }
}

/// Fleet-level timer: drives the rebalance clock for dead nodes.
struct FleetTimer {
    shared: Arc<Shared>,
}

impl Handler for FleetTimer {
    fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        self.shared.with(|core| {
            let due: Vec<String> = core
                .nodes
                .iter()
                .filter(|(name, n)| {
                    !n.connected
                        && n.rebalance_at.is_some_and(|at| now >= at)
                        && core
                            .assignments
                            .values()
                            .any(|owner| owner.as_str() == name.as_str())
                })
                .map(|(name, _)| name.clone())
                .collect();
            for name in due {
                if core.connected_nodes().is_empty() {
                    // No survivors yet: back off (capped, jittered) and
                    // retry — a restarting fleet gets time to come back.
                    let node = core.nodes.get_mut(&name).expect("due node exists");
                    node.rebalance_attempt += 1;
                    let delay = backoff_delay_ms(
                        node.rebalance_attempt,
                        core.cfg.rebalance_grace_ms,
                        core.cfg.rebalance_cap_ms,
                        core.cfg.jitter_seed,
                    );
                    node.rebalance_at = Some(now + Duration::from_millis(delay));
                    continue;
                }
                if let Err(e) = core.rebalance_from(&name) {
                    core.failure = Some(format!("rebalance from {name} failed: {e}"));
                }
            }
        });
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FlakyLinkProxy;
    use crate::cluster::link::RouterLinkConfig;
    use crate::cluster::ClusterMailbox;
    use crate::observe::MetricsRegistry;
    use crate::sources::{SourceQueue, SourcesConfig, SourcesServer};
    use std::collections::{BTreeMap, HashMap};
    use std::sync::atomic::AtomicBool;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "monilog-cluster-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast_config(dir: &std::path::Path) -> RouterConfig {
        RouterConfig {
            listen: "127.0.0.1:0".parse().unwrap(),
            buffer_dir: dir.to_path_buf(),
            batch_lines: 4,
            max_inflight: 4,
            heartbeat_ms: 50,
            dead_after_ms: 400,
            rebalance_grace_ms: 100,
            rebalance_cap_ms: 400,
            jitter_seed: 7,
        }
    }

    /// Spawn a monitor node: a [`SourcesServer`] with only the router link,
    /// plus a consumer thread that mimics the CLI's journal loop — dedup by
    /// `(source, seq)` (the WAL contract), record the line, publish the
    /// journal high-water so acks flow. Returns the per-source line map on
    /// join.
    struct TestMonitor {
        _server: SourcesServer,
        mailbox: Arc<ClusterMailbox>,
        stop: Arc<AtomicBool>,
        revoked: Arc<std::sync::Mutex<Vec<SourceId>>>,
        handle: Option<std::thread::JoinHandle<HashMap<SourceId, BTreeMap<u64, String>>>>,
    }

    impl TestMonitor {
        fn spawn(node: &str, router_addr: SocketAddr) -> TestMonitor {
            let mut link = RouterLinkConfig::new(router_addr, node.to_string());
            link.reconnect_base_ms = 20;
            link.reconnect_cap_ms = 100;
            let config = SourcesConfig {
                router: Some(link),
                ..SourcesConfig::default()
            };
            let registry = MetricsRegistry::shared();
            let (server, queue) = SourcesServer::spawn(config, registry, None, None).unwrap();
            let mailbox = server.cluster_mailbox().expect("link configured");
            let stop = Arc::new(AtomicBool::new(false));
            let revoked = Arc::new(std::sync::Mutex::new(Vec::new()));
            let handle = std::thread::spawn({
                let mailbox = mailbox.clone();
                let stop = stop.clone();
                let revoked = revoked.clone();
                move || consume(queue, mailbox, stop, revoked)
            });
            TestMonitor {
                _server: server,
                mailbox,
                stop,
                revoked,
                handle: Some(handle),
            }
        }

        fn join(mut self) -> HashMap<SourceId, BTreeMap<u64, String>> {
            self.stop.store(true, Ordering::SeqCst);
            self.handle.take().unwrap().join().unwrap()
        }
    }

    fn consume(
        queue: SourceQueue,
        mailbox: Arc<ClusterMailbox>,
        stop: Arc<AtomicBool>,
        revoked_log: Arc<std::sync::Mutex<Vec<SourceId>>>,
    ) -> HashMap<SourceId, BTreeMap<u64, String>> {
        let mut seen: HashMap<SourceId, BTreeMap<u64, String>> = HashMap::new();
        loop {
            let batch = queue.recv_batch(256, Duration::from_millis(20));
            let mut marks: Vec<(SourceId, u64)> = Vec::new();
            for ev in batch {
                let seq = ev.seq.expect("router-fed events carry a wire seq");
                // The real consumer's WAL dedups replays; mirror that here.
                seen.entry(ev.source)
                    .or_default()
                    .entry(seq)
                    .or_insert_with(|| String::from_utf8_lossy(ev.line.as_bytes()).into_owned());
                match marks.iter_mut().find(|(s, _)| *s == ev.source) {
                    Some((_, m)) => *m = (*m).max(seq),
                    None => marks.push((ev.source, seq)),
                }
            }
            if !marks.is_empty() {
                // "fsync" is instantaneous for the in-memory mirror.
                mailbox.publish_journaled(&marks);
            }
            for source in mailbox.take_revoked() {
                seen.remove(&source);
                revoked_log.lock().unwrap().push(source);
            }
            if stop.load(Ordering::SeqCst)
                || (mailbox.fin_received() && queue.depth() == 0 && mailbox.unacked_batches() == 0)
            {
                return seen;
            }
        }
    }

    fn feed(router: &Router, sources: &[SourceId], lines: std::ops::RangeInclusive<usize>) {
        for i in lines {
            for &s in sources {
                router
                    .route_line(s, format!("src{} line {i}", s.0).as_bytes())
                    .unwrap();
            }
        }
    }

    fn assert_complete(
        merged: &HashMap<SourceId, BTreeMap<u64, String>>,
        sources: &[SourceId],
        lines_per_source: usize,
    ) {
        for &s in sources {
            let lines = merged
                .get(&s)
                .unwrap_or_else(|| panic!("src{} missing", s.0));
            assert_eq!(
                lines.len(),
                lines_per_source,
                "src{}: {} of {lines_per_source} lines",
                s.0,
                lines.len()
            );
            for (i, (seq, body)) in lines.iter().enumerate() {
                assert_eq!(*seq, (i + 1) as u64, "src{}: seq gap", s.0);
                assert_eq!(body, &format!("src{} line {}", s.0, i + 1));
            }
        }
    }

    #[test]
    fn fleet_routes_every_line_exactly_once() {
        let dir = tmp_dir("route");
        let router = Router::spawn(fast_config(&dir)).unwrap();
        let a = TestMonitor::spawn("mon-a", router.local_addr());
        let b = TestMonitor::spawn("mon-b", router.local_addr());
        router.wait_for_nodes(2, Duration::from_secs(5)).unwrap();

        let sources: Vec<SourceId> = (32..38).map(SourceId).collect();
        feed(&router, &sources, 1..=25);
        let stats = router.finish(Duration::from_secs(10)).unwrap();
        assert_eq!(stats.lines_routed, 150);
        assert_eq!(stats.batches_acked, stats.batches_sent);

        let mut merged = a.join();
        for (source, lines) in b.join() {
            assert!(
                merged.insert(source, lines).is_none(),
                "src{} served by both monitors",
                source.0
            );
        }
        assert_complete(&merged, &sources, 25);
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killing_a_monitor_rebalances_and_replays_in_full() {
        let dir = tmp_dir("kill");
        let router = Router::spawn(fast_config(&dir)).unwrap();
        let a = TestMonitor::spawn("mon-a", router.local_addr());
        let b = TestMonitor::spawn("mon-b", router.local_addr());
        router.wait_for_nodes(2, Duration::from_secs(5)).unwrap();

        let sources: Vec<SourceId> = (32..38).map(SourceId).collect();
        feed(&router, &sources, 1..=10);
        router.flush().unwrap();
        // SIGKILL stand-in: tearing down the TestMonitor drops its
        // SourcesServer, closing the link socket under the router. Its
        // stale partial map is deliberately ignored below.
        let _ = b.join();

        feed(&router, &sources, 11..=20); // while the fleet is degraded
        let stats = router.finish(Duration::from_secs(15)).unwrap();
        assert!(stats.rebalances >= 1, "dead node never rebalanced");
        assert!(stats.lines_replayed > 0, "no replay happened");

        // The survivor alone must hold the complete, gap-free set: the
        // dead node's sources were replayed to it from line one.
        let merged = a.join();
        assert_complete(&merged, &sources, 20);
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A source's retention outgrows any read window: a failover must
    /// still replay every line of it, not a prefix.
    #[test]
    fn failover_replays_a_long_source_in_full() {
        let dir = tmp_dir("long");
        let config = RouterConfig {
            batch_lines: 64,
            ..fast_config(&dir)
        };
        let router = Router::spawn(config).unwrap();
        let a = TestMonitor::spawn("mon-a", router.local_addr());
        let b = TestMonitor::spawn("mon-b", router.local_addr());
        router.wait_for_nodes(2, Duration::from_secs(5)).unwrap();

        let sources: Vec<SourceId> = (32..38).map(SourceId).collect();
        feed(&router, &sources, 1..=3_000);
        router.flush().unwrap();
        let _ = b.join(); // SIGKILL stand-in

        feed(&router, &sources, 3_001..=3_010);
        let stats = router.finish(Duration::from_secs(30)).unwrap();
        assert!(stats.rebalances >= 1, "dead node never rebalanced");
        assert_complete(&a.join(), &sources, 3_010);
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The router never recovers, so a second run in the same directory
    /// restarts every seq at 1: a failover in it must replay that run's
    /// lines only, never the lines the first run retained.
    #[test]
    fn a_rerun_replays_none_of_the_previous_runs_lines() {
        let dir = tmp_dir("rerun");
        let sources: Vec<SourceId> = (32..38).map(SourceId).collect();
        {
            let router = Router::spawn(fast_config(&dir)).unwrap();
            let a = TestMonitor::spawn("mon-a", router.local_addr());
            router.wait_for_nodes(1, Duration::from_secs(5)).unwrap();
            for i in 1..=40 {
                for &s in &sources {
                    router
                        .route_line(s, format!("previous run {i}").as_bytes())
                        .unwrap();
                }
            }
            router.finish(Duration::from_secs(10)).unwrap();
            let _ = a.join();
            router.shutdown();
        }

        let router = Router::spawn(fast_config(&dir)).unwrap();
        let a = TestMonitor::spawn("mon-a", router.local_addr());
        let b = TestMonitor::spawn("mon-b", router.local_addr());
        router.wait_for_nodes(2, Duration::from_secs(5)).unwrap();
        feed(&router, &sources, 1..=10);
        router.flush().unwrap();
        let _ = b.join(); // SIGKILL stand-in

        feed(&router, &sources, 11..=20);
        let stats = router.finish(Duration::from_secs(15)).unwrap();
        assert!(stats.rebalances >= 1, "dead node never rebalanced");
        assert_complete(&a.join(), &sources, 20);
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejoining_node_is_revoked_for_sources_it_lost() {
        let dir = tmp_dir("rejoin-revoke");
        let router = Router::spawn(fast_config(&dir)).unwrap();
        let a = TestMonitor::spawn("mon-a", router.local_addr());
        let b = TestMonitor::spawn("mon-b", router.local_addr());
        router.wait_for_nodes(2, Duration::from_secs(5)).unwrap();

        let sources: Vec<SourceId> = (32..38).map(SourceId).collect();
        feed(&router, &sources, 1..=10);
        router.flush().unwrap();
        // Let acks land so the router has a high-water mark for mon-b.
        let deadline = Instant::now() + Duration::from_secs(5);
        while router.stats().batches_acked < router.stats().batches_sent {
            assert!(Instant::now() < deadline, "acks never settled");
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = b.join(); // SIGKILL stand-in: the socket drops under the router

        // Wait for the failover to move mon-b's sources to the survivor.
        let deadline = Instant::now() + Duration::from_secs(10);
        while router.stats().rebalances == 0 {
            assert!(Instant::now() < deadline, "dead node never rebalanced");
            std::thread::sleep(Duration::from_millis(20));
        }

        // The node restarts under the same name, with no sources left. The
        // router must revoke everything it once acked so the monitor
        // discards recovered half-windows instead of flushing them as
        // bogus anomaly reports at exit.
        // Every known source now belongs to the survivor, so the rejoiner
        // must be revoked for all of them — including any it journaled
        // but never acked (a mid-batch kill leaves no ack high-water mark
        // at the router, yet the journal still resurrects half-windows).
        let b2 = TestMonitor::spawn("mon-b", router.local_addr());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let revoked = b2.revoked.lock().unwrap().clone();
            for source in &revoked {
                assert!(sources.contains(source), "revoked unknown src{}", source.0);
            }
            if revoked.len() == sources.len() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rejoining node saw revokes for only {} of {} lost sources",
                revoked.len(),
                sources.len()
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        feed(&router, &sources, 11..=20);
        let stats = router.finish(Duration::from_secs(15)).unwrap();
        assert!(stats.rejoins >= 1, "restart was not counted as a rejoin");

        let merged = a.join();
        assert_complete(&merged, &sources, 20);
        let _ = b2.join();
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_router_link_leaks_zero_lines() {
        let dir = tmp_dir("flaky");
        let router = Router::spawn(fast_config(&dir)).unwrap();
        // Session script: cut mid-frame early, cut almost immediately
        // (reconnect storm), one mid-stream cut, then run clean.
        let proxy = FlakyLinkProxy::spawn(router.local_addr(), vec![700, 40, 23, 1_500]).unwrap();
        let a = TestMonitor::spawn("mon-a", proxy.addr());
        router.wait_for_nodes(1, Duration::from_secs(5)).unwrap();

        let sources: Vec<SourceId> = (32..35).map(SourceId).collect();
        feed(&router, &sources, 1..=40);
        let stats = router.finish(Duration::from_secs(20)).unwrap();
        assert!(
            proxy.cuts() >= 2,
            "script never fired: {} cuts",
            proxy.cuts()
        );
        assert!(stats.rejoins >= 1, "monitor never re-handshook");

        let merged = a.join();
        assert_complete(&merged, &sources, 40);
        proxy.shutdown();
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn templates_reconcile_across_the_fleet() {
        use monilog_model::{Template, TemplateStore};
        let dir = tmp_dir("tpl");
        let router = Router::spawn(fast_config(&dir)).unwrap();
        let a = TestMonitor::spawn("mon-a", router.local_addr());
        let b = TestMonitor::spawn("mon-b", router.local_addr());
        router.wait_for_nodes(2, Duration::from_secs(5)).unwrap();

        let mut store_a = TemplateStore::new();
        store_a.intern(Template::from_pattern(Default::default(), "proc <*> started").tokens);
        a.mailbox.offer_templates(store_a.encode());

        // The merged fleet store must reach the *other* node.
        let deadline = Instant::now() + Duration::from_secs(5);
        let merged = loop {
            if let Some(bytes) = b.mailbox.take_templates() {
                let store = TemplateStore::decode(&bytes).unwrap();
                if store.find_by_pattern("proc <*> started").is_some() {
                    break store;
                }
            }
            assert!(
                Instant::now() < deadline,
                "reconcile broadcast never arrived"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(merged.len(), 1);
        assert!(router.stats().template_epoch >= 1);

        let stats = router.finish(Duration::from_secs(5)).unwrap();
        assert_eq!(stats.template_count, 1);
        let _ = a.join();
        let _ = b.join();
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
