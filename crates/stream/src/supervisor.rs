//! Supervised sharded parsing: a router thread, per-shard Drain workers
//! and bounded channels, hardened for faults.
//!
//! This is an off-path parse service: the `monilog` binary parses inline
//! in the `MoniLog` facade, and the fleet distributes Drain across
//! processes (`crate::cluster`). The service is kept for the benchmark's
//! `service.submit_recv.*` ledger rows and the fault-tolerance suite.
//!
//! A plain sharded service would assume workers never fail: one panicking
//! parse takes a shard down, its queue backs up, and backpressure freezes
//! the whole pipeline. [`SupervisedParseService`] layers four defenses on
//! top of that topology:
//!
//! 1. **Per-line containment.** Each parse attempt runs under
//!    `catch_unwind`. A panicking line is retried with exponential backoff
//!    and deterministic jitter ([`RetryPolicy`]); when the budget is
//!    exhausted the line is *quarantined* to a bounded dead-letter queue
//!    with its failure context, and the worker moves on.
//! 2. **Worker supervision.** Panics that escape line containment (see
//!    [`crate::chaos::WorkerKill`]) crash the worker thread. Every worker
//!    beats a per-shard heartbeat even when idle; a supervisor thread
//!    detects dead shards and respawns them *warm-started* from the
//!    shard's last template snapshot, so the replacement assigns the same
//!    template ids the original would have ([`Drain::warm_start`]). At
//!    most the in-flight line is lost — and it is not silently lost: it
//!    lands in the dead-letter queue tagged
//!    [`FailureReason::WorkerCrash`].
//! 3. **Degradation over crash-looping.** A shard that crashes
//!    [`SupervisorConfig::max_consecutive_crashes`] times without an
//!    intervening successful parse is degraded: its worker is replaced by
//!    a passthrough that attributes every line to the reserved
//!    [`CATCH_ALL_TEMPLATE_ID`]. Downstream volume detectors keep seeing
//!    the traffic; template-level fidelity is sacrificed for liveness.
//! 4. **Overload policies.** `submit()` behaviour under saturation is
//!    selectable ([`OverloadPolicy`]): `Block` preserves the historical
//!    backpressure contract (optionally bounded by a submit deadline),
//!    `ShedToCatchAll` drops to the catch-all counter, `DeadLetter`
//!    diverts to the quarantine queue for later replay.
//!
//! Stalled-but-alive shards (heartbeat older than
//! [`SupervisorConfig::heartbeat_timeout`]) are *reported* via
//! [`SupervisedParseService::shard_status`] but not killed: Rust threads
//! cannot be safely terminated from outside, and a slow consumer makes a
//! healthy worker look stalled — see DESIGN.md for the rationale.
//!
//! Template snapshots are re-encoded whenever a shard's store grows. Log
//! template counts plateau quickly (that is the premise of template
//! mining), so snapshot traffic decays to zero on a warmed-up stream.

use crate::chaos::{FaultContext, FaultInjector, WorkerKill};
use crate::config::{ConfigError, OverloadPolicy, RetryPolicy};
use crate::metrics::PipelineMetrics;
use crate::observe::{MetricsRegistry, ShardGauges, Stage};
use crate::trace::{SpanStage, Tracer};
use crossbeam::channel::{
    bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError,
};
use monilog_model::{ByteLine, TemplateId, TemplateStore, TraceId};
use monilog_parse::{BalancedRouter, Drain, DrainConfig, OnlineParser, ParseOutcome};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reserved template id for lines whose real template is unknown: shed
/// lines and everything flowing through a degraded shard. Outside every
/// shard's `shard * SHARD_ID_STRIDE + local` namespace.
pub const CATCH_ALL_TEMPLATE_ID: u32 = u32::MAX;

type Item = (u64, ByteLine);

/// A parsed item: the tag plus the shard-local outcome, with the shard
/// index so callers can interpret template ids (`shard * STRIDE + local`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedItem {
    pub seq: u64,
    pub shard: usize,
    pub outcome: ParseOutcome,
}

/// Stride separating each shard's template-id space in [`ParsedItem`].
pub const SHARD_ID_STRIDE: u32 = 1 << 20;

/// A batch admitted into the service, stamped at submit time. One input
/// queue slot per batch: `submit_batch` moves a whole chunk with a single
/// channel transfer.
#[derive(Debug)]
struct InBatch {
    submitted: Instant,
    items: Vec<Item>,
}

/// What flows through a shard queue: the admission stamp (for the
/// [`Stage::ParseQueueWait`] split) plus the item. Shard transport stays
/// per-line on purpose: the crash-containment contract ("at most the
/// in-flight line is lost") is priced per item, and batching the shard
/// queue would widen the blast radius of a worker crash to a whole batch.
type Queued = (Instant, Item);

/// Everything the supervisor needs to run a fault-tolerant service.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Number of Drain workers (template-id namespaces).
    pub n_shards: usize,
    /// Bound of every internal queue, in items.
    pub capacity: usize,
    pub drain: DrainConfig,
    /// What `submit()` does when the pipeline is saturated.
    pub overload: OverloadPolicy,
    /// Retry schedule for panicking parse attempts.
    pub retry: RetryPolicy,
    /// How often workers beat their heartbeat (also the supervisor's poll
    /// cadence and the worker's idle-wakeup interval).
    pub heartbeat_interval: Duration,
    /// Heartbeat age past which a live shard is reported as stalled.
    pub heartbeat_timeout: Duration,
    /// Worker crashes without an intervening successful parse before the
    /// shard degrades to catch-all passthrough instead of respawning.
    pub max_consecutive_crashes: u32,
    /// Dead-letter queue bound; oldest entries are evicted beyond it.
    pub dlq_capacity: usize,
    /// Upper bound on how long a `Block`-policy submit may wait.
    pub submit_deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            n_shards: 4,
            capacity: 256,
            drain: DrainConfig::default(),
            overload: OverloadPolicy::Block,
            retry: RetryPolicy::default(),
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(500),
            max_consecutive_crashes: 3,
            dlq_capacity: 1024,
            submit_deadline: None,
        }
    }
}

impl SupervisorConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.n_shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.capacity == 0 || self.dlq_capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        Ok(())
    }
}

/// Why a line ended up in the dead-letter queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Every parse attempt (original + retries) panicked.
    Panic,
    /// The pipeline was saturated under the `DeadLetter` overload policy.
    Overload,
    /// The line was in flight when its worker crashed.
    WorkerCrash,
}

/// A quarantined line with enough context to triage or replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    pub seq: u64,
    /// The shard that was handling the line; `None` when it never entered
    /// the pipeline (overload diversion happens before routing).
    pub shard: Option<usize>,
    /// Materialized from the arena-backed line at quarantine time: dead
    /// letters outlive arrival buffers (they are persisted and replayed),
    /// so they own their bytes.
    pub line: String,
    pub reason: FailureReason,
    /// Parse attempts made (0 when the line was never attempted).
    pub attempts: u32,
}

/// What happened to a submitted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued for parsing.
    Accepted,
    /// Dropped and accounted to the catch-all template (`ShedToCatchAll`).
    Shed,
    /// Diverted to the dead-letter queue (`DeadLetter` policy).
    DeadLettered,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// `close()` was already called on this handle.
    Closed,
    /// The service shut down (all workers gone).
    Stopped,
    /// `Block` policy with a submit deadline: the deadline elapsed.
    DeadlineExceeded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => f.write_str("service input already closed"),
            SubmitError::Stopped => f.write_str("service stopped"),
            SubmitError::DeadlineExceeded => f.write_str("submit deadline exceeded"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Point-in-time health of one shard, from [`SupervisedParseService::shard_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    pub shard: usize,
    /// False only in the window between a crash and its respawn.
    pub alive: bool,
    /// The shard exhausted its crash budget and now runs the catch-all
    /// passthrough.
    pub degraded: bool,
    /// The worker exited cleanly (service closing down).
    pub finished: bool,
    pub consecutive_crashes: u32,
    /// Age of the last heartbeat.
    pub heartbeat_age: Duration,
    /// Alive but heartbeat older than the configured timeout.
    pub stalled: bool,
}

/// Per-shard state shared between worker, supervisor, and handle.
struct ShardState {
    heartbeat_ms: AtomicU64,
    alive: AtomicBool,
    degraded: AtomicBool,
    finished: AtomicBool,
    consecutive_crashes: AtomicU32,
    /// Encoded `TemplateStore` as of the last template discovery; what a
    /// respawned worker warm-starts from.
    snapshot: Mutex<Option<Vec<u8>>>,
    /// The line currently being parsed; quarantined if the worker crashes.
    in_flight: Mutex<Option<Item>>,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            heartbeat_ms: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            consecutive_crashes: AtomicU32::new(0),
            snapshot: Mutex::new(None),
            in_flight: Mutex::new(None),
        }
    }

    fn beat(&self, epoch: Instant) {
        self.heartbeat_ms
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// State shared by the handle, the workers, and the supervisor thread.
struct Shared {
    registry: Arc<MetricsRegistry>,
    metrics: Arc<PipelineMetrics>,
    tracer: Arc<Tracer>,
    epoch: Instant,
    shards: Vec<ShardState>,
    dlq: Mutex<VecDeque<DeadLetter>>,
    dlq_capacity: usize,
    dlq_evicted: AtomicU64,
    catch_all_count: AtomicU64,
}

impl Shared {
    fn push_dead_letter(&self, letter: DeadLetter) {
        let mut q = self.dlq.lock();
        if q.len() >= self.dlq_capacity {
            q.pop_front();
            self.dlq_evicted.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(letter);
    }
}

/// Handle to a running supervised parse service. See the module docs for
/// the fault-tolerance contract.
pub struct SupervisedParseService {
    input: Option<Sender<InBatch>>,
    output: Receiver<ParsedItem>,
    router: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    config: SupervisorConfig,
}

impl SupervisedParseService {
    /// Spawn the service with no fault injection (production shape).
    pub fn spawn(config: SupervisorConfig) -> Result<Self, ConfigError> {
        Self::spawn_with_injector(config, None)
    }

    /// Spawn with a chaos injector (see [`crate::chaos::FaultPlan`]): the
    /// callback runs before every parse attempt and raises faults by
    /// panicking.
    pub fn spawn_with_injector(
        config: SupervisorConfig,
        injector: Option<FaultInjector>,
    ) -> Result<Self, ConfigError> {
        Self::spawn_with_tracer(config, injector, None)
    }

    /// Spawn with both a chaos injector and a span tracer. Sampled lines
    /// get queue-wait and parse spans; crash, quarantine and degradation
    /// events are marked in — and dump — the flight recorder.
    pub fn spawn_with_tracer(
        config: SupervisorConfig,
        injector: Option<FaultInjector>,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let n = config.n_shards;
        let (input_tx, input_rx) = bounded::<InBatch>(config.capacity);
        let (output_tx, output_rx) = bounded::<ParsedItem>(config.capacity);

        let registry = MetricsRegistry::shared_with_shards(n);
        let shared = Arc::new(Shared {
            metrics: Arc::clone(registry.counters()),
            registry,
            tracer: tracer.unwrap_or_else(Tracer::disabled),
            epoch: Instant::now(),
            shards: (0..n).map(|_| ShardState::new()).collect(),
            dlq: Mutex::new(VecDeque::new()),
            dlq_capacity: config.dlq_capacity,
            dlq_evicted: AtomicU64::new(0),
            catch_all_count: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));

        let mut shard_txs = Vec::with_capacity(n);
        let mut shard_rxs = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for shard in 0..n {
            let (tx, rx) = bounded::<Queued>(config.capacity);
            shard_txs.push(tx);
            shard_rxs.push(rx.clone());
            workers.push(spawn_worker(
                shard,
                rx,
                output_tx.clone(),
                Arc::clone(&shared),
                config,
                injector.clone(),
            ));
        }

        let router = std::thread::spawn(move || {
            let mut router = BalancedRouter::new(n);
            while let Ok(InBatch { submitted, items }) = input_rx.recv() {
                for (seq, line) in items {
                    let shard = router.route(&line);
                    if shard_txs[shard].send((submitted, (seq, line))).is_err() {
                        return;
                    }
                }
            }
            // Dropping shard_txs disconnects the shard queues: workers
            // drain what is left and exit.
        });

        let supervisor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                supervise(
                    workers, shard_rxs, output_tx, shared, stop, config, injector,
                )
            })
        };

        Ok(SupervisedParseService {
            input: Some(input_tx),
            output: output_rx,
            router: Some(router),
            supervisor: Some(supervisor),
            shared,
            stop,
            config,
        })
    }

    /// Submit a line; saturation behaviour follows the configured
    /// [`OverloadPolicy`].
    pub fn submit(
        &self,
        seq: u64,
        line: impl Into<ByteLine>,
    ) -> Result<SubmitOutcome, SubmitError> {
        self.submit_batch(vec![(seq, line.into())])
    }

    /// Submit a chunk of lines as one batch — one channel transfer, one
    /// queue slot. The outcome applies to the whole batch; overload
    /// accounting (shed counters, dead letters) is still per line, so a
    /// rejected batch of `n` lines shows up as `n` shed/quarantined lines,
    /// never a silently collapsed one. An empty batch is a no-op.
    pub fn submit_batch(&self, items: Vec<Item>) -> Result<SubmitOutcome, SubmitError> {
        if items.is_empty() {
            return Ok(SubmitOutcome::Accepted);
        }
        let tx = self.input.as_ref().ok_or(SubmitError::Closed)?;
        let len = items.len() as u64;
        let accepted = |shared: &Shared| {
            PipelineMetrics::add(&shared.metrics.lines_ingested, len);
            PipelineMetrics::incr(&shared.metrics.batches_submitted);
            shared.registry.batch_sizes().record(len);
            Ok(SubmitOutcome::Accepted)
        };
        let batch = InBatch {
            submitted: Instant::now(),
            items,
        };
        match self.config.overload {
            OverloadPolicy::Block => match self.config.submit_deadline {
                None => match tx.send(batch) {
                    Ok(()) => accepted(&self.shared),
                    Err(_) => Err(SubmitError::Stopped),
                },
                Some(deadline) => match tx.send_timeout(batch, deadline) {
                    Ok(()) => accepted(&self.shared),
                    Err(SendTimeoutError::Timeout(_)) => Err(SubmitError::DeadlineExceeded),
                    Err(SendTimeoutError::Disconnected(_)) => Err(SubmitError::Stopped),
                },
            },
            OverloadPolicy::ShedToCatchAll => match tx.try_send(batch) {
                Ok(()) => accepted(&self.shared),
                Err(TrySendError::Full(batch)) => {
                    let n = batch.items.len() as u64;
                    PipelineMetrics::add(&self.shared.metrics.lines_shed, n);
                    self.shared.catch_all_count.fetch_add(n, Ordering::Relaxed);
                    Ok(SubmitOutcome::Shed)
                }
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::Stopped),
            },
            OverloadPolicy::DeadLetter => match tx.try_send(batch) {
                Ok(()) => accepted(&self.shared),
                Err(TrySendError::Full(batch)) => {
                    let n = batch.items.len() as u64;
                    for (seq, line) in batch.items {
                        self.shared.push_dead_letter(DeadLetter {
                            seq,
                            shard: None,
                            line: line.into_string(),
                            reason: FailureReason::Overload,
                            attempts: 0,
                        });
                    }
                    PipelineMetrics::add(&self.shared.metrics.lines_quarantined, n);
                    Ok(SubmitOutcome::DeadLettered)
                }
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::Stopped),
            },
        }
    }

    /// Receive the next parsed item; `None` once the service is closed and
    /// fully drained.
    pub fn recv(&self) -> Option<ParsedItem> {
        self.output.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<ParsedItem> {
        self.output.try_recv().ok()
    }

    /// The service's shared metrics (restarts, quarantines, sheds, …).
    pub fn metrics(&self) -> Arc<PipelineMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The full observability registry: the counters above plus the
    /// [`Stage::Parse`] latency histogram and per-shard gauges (queue
    /// depth, templates, restarts).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Lines attributed to [`CATCH_ALL_TEMPLATE_ID`] (shed + degraded).
    pub fn catch_all_count(&self) -> u64 {
        self.shared.catch_all_count.load(Ordering::Relaxed)
    }

    /// Number of letters currently in the dead-letter queue.
    pub fn dead_letter_count(&self) -> usize {
        self.shared.dlq.lock().len()
    }

    /// Dead letters evicted because the queue hit its bound.
    pub fn dead_letters_evicted(&self) -> u64 {
        self.shared.dlq_evicted.load(Ordering::Relaxed)
    }

    /// Take every quarantined line (oldest first), emptying the queue —
    /// the replay/triage entry point.
    pub fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        self.shared.dlq.lock().drain(..).collect()
    }

    /// Point-in-time health of every shard. Stalled shards are reported,
    /// not killed — see the module docs.
    pub fn shard_status(&self) -> Vec<ShardHealth> {
        let now_ms = self.shared.epoch.elapsed().as_millis() as u64;
        self.shared
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let beat = s.heartbeat_ms.load(Ordering::Relaxed);
                let age = Duration::from_millis(now_ms.saturating_sub(beat));
                let alive = s.alive.load(Ordering::SeqCst);
                let finished = s.finished.load(Ordering::SeqCst);
                ShardHealth {
                    shard,
                    alive,
                    degraded: s.degraded.load(Ordering::SeqCst),
                    finished,
                    consecutive_crashes: s.consecutive_crashes.load(Ordering::SeqCst),
                    heartbeat_age: age,
                    stalled: alive && !finished && age > self.config.heartbeat_timeout,
                }
            })
            .collect()
    }

    /// Close the input: workers drain their queues and exit cleanly.
    pub fn close(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.input = None;
    }

    /// Close, drain, and join everything; returns the remaining parsed
    /// items and the final dead-letter queue.
    pub fn shutdown(mut self) -> (Vec<ParsedItem>, Vec<DeadLetter>) {
        self.close();
        let mut rest = Vec::new();
        while let Ok(item) = self.output.recv() {
            rest.push(item);
        }
        if let Some(router) = self.router.take() {
            router.join().expect("router thread panicked");
        }
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join().expect("supervisor thread panicked");
        }
        let letters = self.drain_dead_letters();
        (rest, letters)
    }
}

impl Drop for SupervisedParseService {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.input = None;
        // Blocking drain until disconnect, not a timed poll: a worker
        // blocked on a full output queue must be able to finish. The output
        // only disconnects once every worker and the supervisor's spare
        // sender are gone, which is exactly when the joins below cannot
        // deadlock.
        while self.output.recv().is_ok() {}
        if let Some(router) = self.router.take() {
            let _ = router.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

fn spawn_worker(
    shard: usize,
    rx: Receiver<Queued>,
    out: Sender<ParsedItem>,
    shared: Arc<Shared>,
    config: SupervisorConfig,
    injector: Option<FaultInjector>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("monilog-shard-{shard}"))
        .spawn(move || run_worker(shard, rx, out, shared, config, injector))
        .expect("spawn worker thread")
}

/// Worker thread body: the crash boundary. A panic escaping the parse loop
/// quarantines the in-flight line and flags the shard dead for respawn.
fn run_worker(
    shard: usize,
    rx: Receiver<Queued>,
    out: Sender<ParsedItem>,
    shared: Arc<Shared>,
    config: SupervisorConfig,
    injector: Option<FaultInjector>,
) {
    let state = &shared.shards[shard];
    state.alive.store(true, Ordering::SeqCst);
    state.beat(shared.epoch);
    let result = catch_unwind(AssertUnwindSafe(|| {
        worker_loop(shard, &rx, &out, &shared, &config, injector.as_deref())
    }));
    match result {
        Ok(()) => state.finished.store(true, Ordering::SeqCst),
        Err(_) => {
            if let Some((seq, line)) = state.in_flight.lock().take() {
                shared
                    .tracer
                    .mark(TraceId(seq + 1), SpanStage::Crash, shard as u16, None);
                shared.push_dead_letter(DeadLetter {
                    seq,
                    shard: Some(shard),
                    line: line.into_string(),
                    reason: FailureReason::WorkerCrash,
                    attempts: 0,
                });
                PipelineMetrics::incr(&shared.metrics.lines_quarantined);
            }
            // Dump before flagging dead: the flight recorder must hit disk
            // before a respawned worker starts overwriting ring slots.
            shared.tracer.dump("crash");
            // Flag last: once false, the supervisor may respawn, and the
            // replacement must see the dead letter already recorded.
            state.alive.store(false, Ordering::SeqCst);
        }
    }
}

fn worker_loop(
    shard: usize,
    rx: &Receiver<Queued>,
    out: &Sender<ParsedItem>,
    shared: &Shared,
    config: &SupervisorConfig,
    injector: Option<&(dyn Fn(&FaultContext<'_>) + Send + Sync)>,
) {
    let state = &shared.shards[shard];
    // Warm-start from the shard's last snapshot so template ids survive
    // respawns. A corrupt snapshot falls back to a cold parser: ids then
    // restart from 0 for this shard, which downstream consumers must treat
    // as template churn — strictly better than refusing to parse at all.
    let mut parser = match state.snapshot.lock().clone() {
        Some(bytes) => match TemplateStore::decode(&bytes) {
            Ok(store) => Drain::warm_start(config.drain, store),
            Err(_) => Drain::new(config.drain),
        },
        None => Drain::new(config.drain),
    };
    let mut known_templates = parser.store().len();
    let (mut seen_hits, mut seen_misses) = parser.cache_stats();

    loop {
        state.beat(shared.epoch);
        match rx.recv_timeout(config.heartbeat_interval) {
            Err(RecvTimeoutError::Timeout) => continue, // idle: keep beating
            Err(RecvTimeoutError::Disconnected) => break,
            Ok((enqueued, (seq, line))) => {
                let trace = shared.tracer.trace_for(seq);
                let wait_ns = enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                shared
                    .registry
                    .stage(Stage::ParseQueueWait)
                    .record_ns(wait_ns);
                if let Some(t) = trace {
                    shared.tracer.record_since(
                        t,
                        SpanStage::QueueWait,
                        shard as u16,
                        enqueued,
                        None,
                        None,
                    );
                }
                *state.in_flight.lock() = Some((seq, line.clone()));
                let parse_start = Instant::now();
                let parsed = parse_with_retries(&mut parser, seq, &line, config, injector, shared);
                shared.registry.record(Stage::Parse, parse_start);
                let (hits, misses) = parser.cache_stats();
                PipelineMetrics::add(&shared.metrics.cache_hits, hits - seen_hits);
                PipelineMetrics::add(&shared.metrics.cache_misses, misses - seen_misses);
                (seen_hits, seen_misses) = (hits, misses);
                let gauges = shared.registry.shard(shard);
                ShardGauges::set(&gauges.queue_depth, rx.len() as u64);
                match parsed {
                    Ok(mut outcome) => {
                        state.consecutive_crashes.store(0, Ordering::SeqCst);
                        if parser.store().len() > known_templates {
                            known_templates = parser.store().len();
                            *state.snapshot.lock() = Some(parser.store().encode());
                        }
                        ShardGauges::set(&gauges.templates, known_templates as u64);
                        outcome.template =
                            TemplateId(shard as u32 * SHARD_ID_STRIDE + outcome.template.0);
                        PipelineMetrics::incr(&shared.metrics.lines_parsed);
                        if let Some(t) = trace {
                            shared.tracer.record_since(
                                t,
                                SpanStage::Parse,
                                shard as u16,
                                parse_start,
                                Some(outcome.template.0),
                                Some(parser.last_parse_cache_hit()),
                            );
                        }
                        let item = ParsedItem {
                            seq,
                            shard,
                            outcome,
                        };
                        if out.send(item).is_err() {
                            state.in_flight.lock().take();
                            break; // consumer went away: stop quietly
                        }
                        state.in_flight.lock().take();
                    }
                    Err(attempts) => {
                        state.in_flight.lock().take();
                        shared.push_dead_letter(DeadLetter {
                            seq,
                            shard: Some(shard),
                            line: line.into_string(),
                            reason: FailureReason::Panic,
                            attempts,
                        });
                        PipelineMetrics::incr(&shared.metrics.lines_quarantined);
                        // Quarantine is forensic gold: mark it whether or
                        // not the line was sampled, and preserve the ring
                        // contents on disk while they still show the
                        // lead-up.
                        shared.tracer.mark(
                            TraceId(seq + 1),
                            SpanStage::Quarantine,
                            shard as u16,
                            None,
                        );
                        shared.tracer.dump("quarantine");
                    }
                }
            }
        }
    }
}

/// One line through the retry schedule. `Err(attempts)` = every attempt
/// panicked (quarantine). A [`WorkerKill`] payload is re-raised, escaping
/// to the worker boundary.
fn parse_with_retries(
    parser: &mut Drain,
    seq: u64,
    line: &str,
    config: &SupervisorConfig,
    injector: Option<&(dyn Fn(&FaultContext<'_>) + Send + Sync)>,
    shared: &Shared,
) -> Result<ParseOutcome, u32> {
    let mut attempt = 0u32;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inject) = injector {
                inject(&FaultContext { seq, attempt, line });
            }
            parser.parse(line)
        }));
        match result {
            Ok(outcome) => return Ok(outcome),
            Err(payload) => {
                if payload.is::<WorkerKill>() {
                    resume_unwind(payload);
                }
                if attempt >= config.retry.max_retries {
                    return Err(attempt + 1);
                }
                attempt += 1;
                PipelineMetrics::incr(&shared.metrics.retries_attempted);
                std::thread::sleep(config.retry.backoff(attempt, seq));
            }
        }
    }
}

/// Degraded passthrough: keeps the shard's queue moving by attributing
/// every line to the catch-all template instead of parsing.
fn run_degraded(
    shard: usize,
    rx: Receiver<Queued>,
    out: Sender<ParsedItem>,
    shared: Arc<Shared>,
    heartbeat_interval: Duration,
) {
    let state = &shared.shards[shard];
    state.alive.store(true, Ordering::SeqCst);
    loop {
        state.beat(shared.epoch);
        match rx.recv_timeout(heartbeat_interval) {
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
            Ok((_enqueued, (seq, _line))) => {
                shared.catch_all_count.fetch_add(1, Ordering::Relaxed);
                let outcome = ParseOutcome {
                    template: TemplateId(CATCH_ALL_TEMPLATE_ID),
                    is_new: false,
                    variables: Vec::new(),
                };
                if out
                    .send(ParsedItem {
                        seq,
                        shard,
                        outcome,
                    })
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    state.finished.store(true, Ordering::SeqCst);
}

/// Supervisor thread: polls shard liveness every heartbeat interval,
/// respawning crashed workers (warm) or degrading crash-looping shards.
///
/// Supervision continues *through* shutdown: if a shard is dead when stop
/// is requested, its queue would stay full, wedge the router mid-send, and
/// deadlock the whole teardown. Respawning until every shard finishes
/// keeps the queues draining; workers exit naturally once the router drops
/// the shard senders.
fn supervise(
    workers: Vec<JoinHandle<()>>,
    shard_rxs: Vec<Receiver<Queued>>,
    output_tx: Sender<ParsedItem>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    config: SupervisorConfig,
    injector: Option<FaultInjector>,
) {
    let mut workers: Vec<Option<JoinHandle<()>>> = workers.into_iter().map(Some).collect();
    loop {
        std::thread::sleep(config.heartbeat_interval);
        let stopping = stop.load(Ordering::SeqCst);
        let mut all_finished = true;
        for shard in 0..config.n_shards {
            let state = &shared.shards[shard];
            if state.finished.load(Ordering::SeqCst) {
                continue;
            }
            all_finished = false;
            if state.alive.load(Ordering::SeqCst) {
                continue;
            }
            // Dead worker: reap it, then respawn or degrade. Mark the
            // shard alive *before* spawning — the replacement thread may
            // not be scheduled before our next poll, and a second respawn
            // would reap a healthy worker.
            if let Some(old) = workers[shard].take() {
                let _ = old.join();
            }
            let crashes = state.consecutive_crashes.fetch_add(1, Ordering::SeqCst) + 1;
            PipelineMetrics::incr(&shared.metrics.worker_restarts);
            shared
                .registry
                .shard(shard)
                .restarts
                .fetch_add(1, Ordering::Relaxed);
            state.alive.store(true, Ordering::SeqCst);
            workers[shard] = Some(if crashes >= config.max_consecutive_crashes {
                state.degraded.store(true, Ordering::SeqCst);
                // TraceId 0 is never produced by sampling: degradation is a
                // shard-level event with no single line to attribute.
                shared
                    .tracer
                    .mark(TraceId(0), SpanStage::Degrade, shard as u16, None);
                shared.tracer.dump("degrade");
                let rx = shard_rxs[shard].clone();
                let out = output_tx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("monilog-shard-{shard}-degraded"))
                    .spawn(move || run_degraded(shard, rx, out, shared, config.heartbeat_interval))
                    .expect("spawn degraded worker")
            } else {
                spawn_worker(
                    shard,
                    shard_rxs[shard].clone(),
                    output_tx.clone(),
                    Arc::clone(&shared),
                    config,
                    injector.clone(),
                )
            });
        }
        if stopping && all_finished {
            break;
        }
    }
    // Every shard finished: join the threads, then drop the spare output
    // sender so the consumer's drain sees disconnect.
    for worker in workers.into_iter().flatten() {
        let _ = worker.join();
    }
    drop(output_tx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;

    fn test_config(n_shards: usize, capacity: usize) -> SupervisorConfig {
        SupervisorConfig {
            n_shards,
            capacity,
            heartbeat_interval: Duration::from_millis(5),
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(1),
            },
            ..SupervisorConfig::default()
        }
    }

    /// Feed `lines` while concurrently consuming; returns received items.
    fn pump(service: &SupervisedParseService, lines: &[String]) -> Vec<ParsedItem> {
        let mut received = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for (i, line) in lines.iter().enumerate() {
                    service.submit(i as u64, line.clone()).expect("submit");
                }
            });
            // The feeder eventually submits everything (Block policy), so
            // received-count convergence is guaranteed; quarantined lines
            // never arrive, hence the timeout-based stop.
            while let Ok(item) = service.output.recv_timeout(Duration::from_millis(500)) {
                received.push(item);
            }
        });
        received
    }

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("op {} on node node{}", ["read", "write"][i % 2], i % 7))
            .collect()
    }

    #[test]
    fn rejects_invalid_config() {
        let bad = SupervisorConfig {
            n_shards: 0,
            ..SupervisorConfig::default()
        };
        assert_eq!(
            SupervisedParseService::spawn(bad).err(),
            Some(ConfigError::ZeroShards)
        );
        let bad = SupervisorConfig {
            capacity: 0,
            ..SupervisorConfig::default()
        };
        assert_eq!(
            SupervisedParseService::spawn(bad).err(),
            Some(ConfigError::ZeroCapacity)
        );
    }

    #[test]
    fn fault_free_round_trip() {
        let service = SupervisedParseService::spawn(test_config(2, 32)).expect("spawn");
        let input = lines(40);
        let received = pump(&service, &input);
        assert_eq!(received.len(), 40);
        let m = service.metrics();
        assert_eq!(PipelineMetrics::get(&m.lines_parsed), 40);
        assert_eq!(PipelineMetrics::get(&m.worker_restarts), 0);
        assert_eq!(PipelineMetrics::get(&m.lines_quarantined), 0);
        let (rest, letters) = service.shutdown();
        assert!(rest.is_empty());
        assert!(letters.is_empty());
    }

    #[test]
    fn poison_lines_are_quarantined_not_fatal() {
        let plan = FaultPlan::new().poison([3, 11]);
        let service =
            SupervisedParseService::spawn_with_injector(test_config(2, 32), Some(plan.injector()))
                .expect("spawn");
        let input = lines(20);
        let received = pump(&service, &input);
        assert_eq!(received.len(), 18, "all but the 2 poison lines parse");
        let m = service.metrics();
        assert_eq!(PipelineMetrics::get(&m.lines_quarantined), 2);
        // max_retries=2 → 2 retry attempts per poison line.
        assert_eq!(PipelineMetrics::get(&m.retries_attempted), 4);
        assert_eq!(PipelineMetrics::get(&m.worker_restarts), 0);
        let (_, letters) = service.shutdown();
        let mut seqs: Vec<u64> = letters.iter().map(|l| l.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![3, 11]);
        assert!(letters
            .iter()
            .all(|l| l.reason == FailureReason::Panic && l.attempts == 3));
    }

    #[test]
    fn transient_faults_are_rescued_by_retry() {
        let plan = FaultPlan::new().transient([2, 5, 9]);
        let service =
            SupervisedParseService::spawn_with_injector(test_config(1, 32), Some(plan.injector()))
                .expect("spawn");
        let input = lines(12);
        let received = pump(&service, &input);
        assert_eq!(received.len(), 12, "transient faults lose nothing");
        let m = service.metrics();
        assert_eq!(PipelineMetrics::get(&m.retries_attempted), 3);
        assert_eq!(PipelineMetrics::get(&m.lines_quarantined), 0);
        let (_, letters) = service.shutdown();
        assert!(letters.is_empty());
    }

    #[test]
    fn worker_crash_respawns_and_loses_only_in_flight_line() {
        // Kill the worker on seq 11 (the only multiple-of-12 boundary in
        // range); single shard so the target is known.
        let plan = FaultPlan::new().crash_every(12);
        let service =
            SupervisedParseService::spawn_with_injector(test_config(1, 32), Some(plan.injector()))
                .expect("spawn");
        let input = lines(20);
        let received = pump(&service, &input);
        assert_eq!(received.len(), 19, "exactly the in-flight line is lost");
        let m = service.metrics();
        assert_eq!(PipelineMetrics::get(&m.worker_restarts), 1);
        assert_eq!(PipelineMetrics::get(&m.lines_quarantined), 1);
        let (_, letters) = service.shutdown();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].seq, 11);
        assert_eq!(letters[0].reason, FailureReason::WorkerCrash);
    }

    #[test]
    fn respawned_worker_keeps_template_ids_stable() {
        // Parse the same line set with and without a mid-stream crash; ids
        // must match exactly thanks to snapshot warm-start.
        let input = lines(30);

        let baseline = SupervisedParseService::spawn(test_config(1, 32)).expect("spawn");
        let mut expect: Vec<(u64, u32)> = pump(&baseline, &input)
            .iter()
            .map(|p| (p.seq, p.outcome.template.0))
            .collect();
        expect.sort_unstable();
        drop(baseline);

        let plan = FaultPlan::new().crash_every(15); // kills at seq 14, 29
        let service =
            SupervisedParseService::spawn_with_injector(test_config(1, 32), Some(plan.injector()))
                .expect("spawn");
        let mut got: Vec<(u64, u32)> = pump(&service, &input)
            .iter()
            .map(|p| (p.seq, p.outcome.template.0))
            .collect();
        got.sort_unstable();
        let m = service.metrics();
        assert_eq!(PipelineMetrics::get(&m.worker_restarts), 2);
        drop(service);

        let lost: Vec<u64> = vec![14, 29];
        let expect_minus_lost: Vec<(u64, u32)> = expect
            .into_iter()
            .filter(|(s, _)| !lost.contains(s))
            .collect();
        assert_eq!(got, expect_minus_lost, "ids survive respawn bit-for-bit");
    }

    #[test]
    fn crash_loop_degrades_to_catch_all() {
        // Every line kills the worker: after max_consecutive_crashes the
        // shard must degrade and flow lines through as catch-all.
        let plan = FaultPlan::new().crash_every(1);
        let mut config = test_config(1, 8);
        config.max_consecutive_crashes = 2;
        let service = SupervisedParseService::spawn_with_injector(config, Some(plan.injector()))
            .expect("spawn");
        let input = lines(10);
        let received = pump(&service, &input);
        assert!(
            received
                .iter()
                .all(|p| p.outcome.template.0 == CATCH_ALL_TEMPLATE_ID),
            "post-degradation output is catch-all"
        );
        assert!(!received.is_empty(), "degraded shard keeps flowing");
        let status = service.shard_status();
        assert!(status[0].degraded);
        let m = service.metrics();
        assert_eq!(
            PipelineMetrics::get(&m.worker_restarts),
            2,
            "restarts capped by degradation"
        );
        assert!(service.catch_all_count() >= received.len() as u64);
        drop(service);
    }

    #[test]
    fn shed_policy_drops_to_catch_all_when_saturated() {
        let mut config = test_config(1, 1);
        config.overload = OverloadPolicy::ShedToCatchAll;
        let service = SupervisedParseService::spawn(config).expect("spawn");
        // No consumer: the capacity-1 pipeline fills almost immediately.
        let mut shed = 0;
        for i in 0..200 {
            match service
                .submit(i, format!("line {i} payload"))
                .expect("never errors")
            {
                SubmitOutcome::Shed => shed += 1,
                SubmitOutcome::Accepted => {}
                SubmitOutcome::DeadLettered => unreachable!("wrong policy"),
            }
        }
        assert!(shed > 0, "saturation must shed");
        let m = service.metrics();
        assert_eq!(PipelineMetrics::get(&m.lines_shed), shed);
        assert_eq!(service.catch_all_count(), shed);
        drop(service);
    }

    #[test]
    fn dead_letter_policy_diverts_when_saturated() {
        let mut config = test_config(1, 1);
        config.overload = OverloadPolicy::DeadLetter;
        config.dlq_capacity = 4;
        let service = SupervisedParseService::spawn(config).expect("spawn");
        let mut diverted = 0;
        for i in 0..200 {
            if service
                .submit(i, format!("line {i} payload"))
                .expect("never errors")
                == SubmitOutcome::DeadLettered
            {
                diverted += 1;
            }
        }
        assert!(diverted > 4, "saturation must divert");
        assert_eq!(service.dead_letter_count(), 4, "DLQ bounded at capacity");
        assert_eq!(
            service.dead_letters_evicted(),
            diverted - 4,
            "eviction accounted"
        );
        let letters = service.drain_dead_letters();
        assert!(letters
            .iter()
            .all(|l| l.reason == FailureReason::Overload && l.shard.is_none()));
        drop(service);
    }

    #[test]
    fn block_policy_deadline_reports_timeout() {
        let mut config = test_config(1, 1);
        config.submit_deadline = Some(Duration::from_millis(10));
        let service = SupervisedParseService::spawn(config).expect("spawn");
        let mut deadline_hit = false;
        for i in 0..50 {
            match service.submit(i, format!("line {i} payload")) {
                Ok(_) => {}
                Err(SubmitError::DeadlineExceeded) => {
                    deadline_hit = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(deadline_hit, "full pipeline with deadline must time out");
        drop(service);
    }

    #[test]
    fn shard_status_reports_health() {
        let service = SupervisedParseService::spawn(test_config(3, 8)).expect("spawn");
        let status = service.shard_status();
        assert_eq!(status.len(), 3);
        assert!(status
            .iter()
            .all(|s| s.alive && !s.degraded && s.consecutive_crashes == 0));
        let (_, letters) = service.shutdown();
        assert!(letters.is_empty());
    }

    #[test]
    fn registry_records_parse_latency_and_restart_gauges() {
        let plan = FaultPlan::new().crash_every(12); // kills at seq 11
        let service =
            SupervisedParseService::spawn_with_injector(test_config(1, 32), Some(plan.injector()))
                .expect("spawn");
        let input = lines(20);
        let received = pump(&service, &input);
        assert_eq!(received.len(), 19);
        let snap = service.registry().snapshot();
        // One parse-latency sample per line that reached a worker: 19
        // successes + 1 crash-boundary line whose timer never completes.
        assert_eq!(snap.stage("parse_exec").expect("parse stage").count, 19);
        // Queue wait is recorded before the parse attempt, so the
        // crash-boundary line counts too.
        assert_eq!(
            snap.stage("parse_queue_wait").expect("queue wait").count,
            20
        );
        assert_eq!(snap.shards.len(), 1);
        assert_eq!(snap.shards[0].restarts, 1, "restart gauge tracks respawn");
        assert!(snap.shards[0].templates > 0, "template gauge populated");
        assert_eq!(
            snap.counter("worker_restarts"),
            Some(1),
            "registry counters are the service counters"
        );
        drop(service);
    }

    #[test]
    fn batched_submit_round_trips_and_accounts_batches() {
        let service = SupervisedParseService::spawn(test_config(2, 32)).expect("spawn");
        let input = lines(40);
        let mut received = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for (b, chunk) in input.chunks(9).enumerate() {
                    let items: Vec<Item> = chunk
                        .iter()
                        .enumerate()
                        .map(|(i, l)| ((b * 9 + i) as u64, l.clone().into()))
                        .collect();
                    assert_eq!(
                        service.submit_batch(items).expect("submit"),
                        SubmitOutcome::Accepted
                    );
                }
            });
            while let Ok(item) = service.output.recv_timeout(Duration::from_millis(500)) {
                received.push(item);
            }
        });
        assert_eq!(received.len(), 40);
        let snap = service.registry().snapshot();
        assert_eq!(snap.counter("batches_submitted"), Some(5), "ceil(40/9)");
        assert_eq!(snap.batch_sizes.count, 5);
        assert_eq!(snap.batch_sizes.sum, 40);
        assert_eq!(snap.batch_sizes.max, 9);
        let (rest, letters) = service.shutdown();
        assert!(rest.is_empty());
        assert!(letters.is_empty());
    }

    #[test]
    fn rejected_batch_accounts_every_line() {
        let mut config = test_config(1, 1);
        config.overload = OverloadPolicy::DeadLetter;
        let service = SupervisedParseService::spawn(config).expect("spawn");
        // Saturate with singles (no consumer), then divert one batch of 5.
        let mut i = 0u64;
        loop {
            match service
                .submit(i, format!("filler {i} payload"))
                .expect("ok")
            {
                SubmitOutcome::Accepted => i += 1,
                SubmitOutcome::DeadLettered => break,
                SubmitOutcome::Shed => unreachable!("wrong policy"),
            }
            assert!(i < 1_000, "never saturated");
        }
        let before = service.dead_letter_count();
        let batch: Vec<Item> = (0..5)
            .map(|j| (9_000 + j, format!("batched {j}").into()))
            .collect();
        assert_eq!(
            service.submit_batch(batch).expect("ok"),
            SubmitOutcome::DeadLettered
        );
        assert_eq!(
            service.dead_letter_count(),
            before + 5,
            "every line of the rejected batch is quarantined individually"
        );
        drop(service);
    }

    #[test]
    fn drop_mid_stream_does_not_hang() {
        let plan = FaultPlan::new().crash_every(5).poison([2]);
        let service =
            SupervisedParseService::spawn_with_injector(test_config(2, 4), Some(plan.injector()))
                .expect("spawn");
        for i in 0..8 {
            let _ = service.submit(i, format!("a b {i}"));
        }
        drop(service); // must join cleanly via Drop even with faults active
    }
}
