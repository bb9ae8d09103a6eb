//! The delivery pipeline: buffer-first acceptance, routed retried drains.
//!
//! Two call paths, deliberately decoupled:
//!
//! - **accept** (hot path, called once per pipeline commit batch): route
//!   each report by [`DeliveryClass`], append to the matching route's
//!   [`DeliveryBuffer`], fsync once per route, and ring the worker's
//!   doorbell. No network I/O ever happens here — a slow or dead sink
//!   cannot block ingest.
//! - **pump** (drain path, a background worker or an explicit call):
//!   per route, read a batch from the buffer, attempt delivery through
//!   the route's [`Sink`], and advance the cursor on success — repeated
//!   until the route makes no progress (drained, backing off, or breaker
//!   blocked). The worker then sleeps until the doorbell rings or the
//!   earliest retry/probe instant, whichever comes first. Failures
//!   back off exponentially with deterministic jitter (reusing
//!   [`RetryPolicy::backoff`]); repeated failures open the route's
//!   [`CircuitBreaker`]; a breaker open past its grace deadline degrades
//!   the route to its local **spill file** — reports keep landing on disk,
//!   never dropped, and the buffer cannot grow without bound.
//!
//! Buffer cursors ("positions") are exported for the durable checkpoint
//! manifest and honoured on reopen, so a SIGKILL replays only the
//! undelivered suffix. Replay can re-deliver (at-least-once); receivers
//! dedup by report id.

use super::breaker::{Admit, BreakerConfig, BreakerState, CircuitBreaker};
use super::buffer::{BufferPosition, BufferedReport, DeliveryBuffer};
use super::file::{FileSink, FILE_RETAIN, FILE_ROTATE_BYTES};
use super::{Sink, SinkError};
use crate::config::RetryPolicy;
use crate::durable::DurabilityError;
use crate::metrics::PipelineMetrics;
use crate::observe::{MetricsRegistry, Stage};
use monilog_model::DeliveryClass;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// A report handed to [`DeliveryPipeline::accept`]. Identical shape to
/// what the buffer stores.
pub type AcceptedReport = BufferedReport;

/// Delivery tuning knobs (`--sink-retry-max-ms`, `--sink-buffer-bytes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Directory holding per-route buffer and spill files.
    pub dir: PathBuf,
    /// Backoff policy between failed delivery attempts (`max_retries` is
    /// ignored: delivery never gives up on retryable errors — the breaker
    /// and spill grace handle persistent failure).
    pub retry: RetryPolicy,
    pub breaker: BreakerConfig,
    /// Reports per delivery attempt.
    pub batch_max: usize,
    /// A breaker continuously open for this long degrades the route to
    /// its spill file (pending + future reports until the sink recovers).
    pub spill_grace_ms: u64,
    /// Pending bytes per route above which the oldest buffered reports
    /// are spilled (bounds buffer growth while a sink is slow).
    pub buffer_spill_bytes: u64,
}

impl DeliveryConfig {
    pub fn new(dir: impl Into<PathBuf>) -> DeliveryConfig {
        DeliveryConfig {
            dir: dir.into(),
            retry: RetryPolicy {
                max_retries: u32::MAX,
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(5_000),
            },
            breaker: BreakerConfig::default(),
            batch_max: 64,
            spill_grace_ms: 60_000,
            buffer_spill_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A sink plus the delivery classes it serves. Routing picks the first
/// route whose `classes` contain a report's class, falling back to the
/// last route — by convention the file sink, which cannot refuse.
pub struct RouteSpec {
    pub name: String,
    pub classes: Vec<DeliveryClass>,
    pub sink: Box<dyn Sink>,
}

struct RouteState {
    buffer: DeliveryBuffer,
    breaker: CircuitBreaker,
    attempt: u32,
    next_attempt_at: Option<Instant>,
    /// When the breaker (continuously) opened; drives the spill grace.
    open_since: Option<Instant>,
    /// Breaker transition counts already mirrored into global metrics.
    mirrored_opened: u64,
    mirrored_half_open: u64,
}

struct Route {
    name: String,
    classes: Vec<DeliveryClass>,
    sink: Mutex<Box<dyn Sink>>,
    state: Mutex<RouteState>,
    spill: FileSink,
}

/// What one [`DeliveryPipeline::pump_once`] tick (or one
/// [`DeliveryPipeline::pump_until_idle`] drain) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    pub delivered: u64,
    pub retried: u64,
    pub spilled: u64,
    /// Bytes still waiting across all route buffers after the tick.
    pub pending_bytes: u64,
}

/// Wakes the pump worker when `accept` buffers reports. The flag stays
/// set until a waiter consumes it, so a ring during a pump is not lost.
#[derive(Default)]
struct Doorbell {
    rung: std::sync::Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    fn ring(&self) {
        // A poisoned lock still guards a valid bool.
        *self.rung.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Block until rung or `deadline`, then clear the ring.
    fn wait(&self, deadline: Instant) {
        let mut rung = self.rung.lock().unwrap_or_else(|e| e.into_inner());
        while !*rung {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            rung = self
                .cv
                .wait_timeout(rung, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *rung = false;
    }
}

struct Shared {
    routes: Vec<Arc<Route>>,
    config: DeliveryConfig,
    metrics: Arc<PipelineMetrics>,
    registry: Arc<MetricsRegistry>,
    /// The retry backoff cap in force, in milliseconds: opened at
    /// `config.retry.max_backoff`, then set by hot config reload
    /// (`sink-retry-max-ms`) so an operator can shorten retry stalls on a
    /// recovering sink without a restart.
    retry_max_ms: AtomicU64,
    /// Index of the route serving [`DeliveryClass::Page`]: opened at the
    /// route whose `RouteSpec.classes` claim it, then set by hot config
    /// reload (`route-critical`) so pages can be re-pointed at a
    /// healthier sink without a restart.
    page_route: AtomicUsize,
    /// Serialises drain ticks (worker vs explicit flush). Never taken by
    /// `accept`.
    pump_lock: Mutex<()>,
    doorbell: Doorbell,
}

impl Shared {
    /// The retry policy currently in force.
    fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_backoff: Duration::from_millis(self.retry_max_ms.load(Ordering::Relaxed)),
            ..self.config.retry
        }
    }
}

/// The first route whose `RouteSpec.classes` claim `class`, else the last
/// route (the fallback).
fn static_route(routes: &[Arc<Route>], class: DeliveryClass) -> usize {
    routes
        .iter()
        .position(|r| r.classes.contains(&class))
        .unwrap_or(routes.len() - 1)
}

/// Cloneable handle to the delivery pipeline.
#[derive(Clone)]
pub struct DeliveryPipeline {
    shared: Arc<Shared>,
}

impl DeliveryPipeline {
    /// Open the pipeline: one buffer file (`<dir>/<name>.buf`) and spill
    /// file (`<dir>/<name>.spill.jsonl`) per route. `positions` are the
    /// cursors recovered from the checkpoint manifest (unknown names are
    /// ignored; missing names start from the beginning — re-delivery over
    /// loss).
    pub fn open(
        config: DeliveryConfig,
        specs: Vec<RouteSpec>,
        positions: &[(String, BufferPosition)],
        registry: Arc<MetricsRegistry>,
    ) -> Result<DeliveryPipeline, DurabilityError> {
        assert!(
            !specs.is_empty(),
            "delivery pipeline needs at least one route"
        );
        std::fs::create_dir_all(&config.dir)?;
        let metrics = Arc::clone(registry.counters());
        let mut routes = Vec::with_capacity(specs.len());
        for spec in specs {
            let pos = positions
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map(|(_, p)| *p);
            let buffer = DeliveryBuffer::open(config.dir.join(format!("{}.buf", spec.name)), pos)?;
            let spill = FileSink::open(
                config.dir.join(format!("{}.spill.jsonl", spec.name)),
                FILE_ROTATE_BYTES,
                FILE_RETAIN,
                Arc::clone(&metrics),
            )?;
            routes.push(Arc::new(Route {
                name: spec.name,
                classes: spec.classes,
                sink: Mutex::new(spec.sink),
                state: Mutex::new(RouteState {
                    buffer,
                    breaker: CircuitBreaker::new(config.breaker),
                    attempt: 0,
                    next_attempt_at: None,
                    open_since: None,
                    mirrored_opened: 0,
                    mirrored_half_open: 0,
                }),
                spill,
            }));
        }
        let static_page_route = static_route(&routes, DeliveryClass::Page);
        Ok(DeliveryPipeline {
            shared: Arc::new(Shared {
                retry_max_ms: AtomicU64::new(config.retry.max_backoff.as_millis() as u64),
                page_route: AtomicUsize::new(static_page_route),
                routes,
                config,
                metrics,
                registry,
                pump_lock: Mutex::new(()),
                doorbell: Doorbell::default(),
            }),
        })
    }

    /// Index of the route serving `class`.
    fn route_index(&self, class: DeliveryClass) -> usize {
        match class {
            DeliveryClass::Page => self.shared.page_route.load(Ordering::Relaxed),
            _ => static_route(&self.shared.routes, class),
        }
    }

    /// Point [`DeliveryClass::Page`] at the named route (the hot
    /// `route-critical` reload). Returns false (and changes nothing) if no
    /// route has that name. Only affects reports accepted after the call —
    /// already-buffered reports drain through the route they were
    /// appended to.
    pub fn set_page_route(&self, name: &str) -> bool {
        match self.shared.routes.iter().position(|r| r.name == name) {
            Some(index) => {
                self.shared.page_route.store(index, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Durably accept reports: append to the matching route buffers and
    /// fsync, once per route however many reports the batch holds. After
    /// this returns, a SIGKILL cannot lose any of them. If a route's
    /// pending bytes exceed the cap, its oldest reports are spilled
    /// locally (bounded disk, nothing dropped).
    pub fn accept(&self, reports: Vec<AcceptedReport>) -> Result<(), DurabilityError> {
        let mut grouped: Vec<Vec<BufferedReport>> = vec![Vec::new(); self.shared.routes.len()];
        for r in reports {
            grouped[self.route_index(r.class)].push(r);
        }
        for (route, group) in self.shared.routes.iter().zip(grouped) {
            if group.is_empty() {
                continue;
            }
            {
                let mut st = route.state.lock();
                st.buffer.append(&group)?;
                PipelineMetrics::add(&self.shared.metrics.reports_accepted, group.len() as u64);
                while st.buffer.pending_bytes() > self.shared.config.buffer_spill_bytes {
                    let n = self.spill_batch(route, &mut st)?;
                    if n == 0 {
                        break;
                    }
                }
            }
            // Rung with the route lock released: the worker can take it.
            self.shared.doorbell.ring();
        }
        Ok(())
    }

    /// Move one batch from the buffer front to the spill file. Returns the
    /// number of reports spilled.
    fn spill_batch(&self, route: &Route, st: &mut RouteState) -> Result<u64, DurabilityError> {
        let (batch, next_off) = st.buffer.peek(self.shared.config.batch_max)?;
        if batch.is_empty() {
            return Ok(0);
        }
        route.spill.append(&batch)?;
        st.buffer.advance(next_off)?;
        PipelineMetrics::add(&self.shared.metrics.reports_spilled, batch.len() as u64);
        Ok(batch.len() as u64)
    }

    /// Mirror a route's breaker transition counts into the global metrics.
    fn sync_breaker_metrics(&self, st: &mut RouteState) {
        let (opened, half) = st.breaker.transition_counts();
        let m = &self.shared.metrics;
        if opened > st.mirrored_opened {
            PipelineMetrics::add(&m.breaker_opened, opened - st.mirrored_opened);
            st.mirrored_opened = opened;
        }
        if half > st.mirrored_half_open {
            PipelineMetrics::add(&m.breaker_half_open, half - st.mirrored_half_open);
            st.mirrored_half_open = half;
        }
    }

    /// One drain tick over every route. Serialised against concurrent
    /// pumps; never blocks `accept`.
    pub fn pump_once(&self, now: Instant) -> Result<PumpReport, DurabilityError> {
        let _pump = self.shared.pump_lock.lock();
        let mut out = PumpReport::default();
        for route in &self.shared.routes {
            self.pump_route(route, now, &mut out)?;
        }
        out.pending_bytes = self.pending_bytes();
        Ok(out)
    }

    fn pump_route(
        &self,
        route: &Arc<Route>,
        now: Instant,
        out: &mut PumpReport,
    ) -> Result<(), DurabilityError> {
        let config = &self.shared.config;

        let mut st = route.state.lock();
        if st.buffer.is_drained() {
            return Ok(());
        }
        if let Some(t) = st.next_attempt_at {
            if now < t {
                return Ok(());
            }
            st.next_attempt_at = None;
        }
        match st.breaker.admit(now) {
            Admit::Blocked => {
                self.sync_breaker_metrics(&mut st);
                // Degradation: a sink open past its grace deadline stops
                // holding reports hostage — they land in the spill file.
                let grace = Duration::from_millis(config.spill_grace_ms);
                if st
                    .open_since
                    .is_some_and(|t| now.duration_since(t) >= grace)
                {
                    loop {
                        let n = self.spill_batch(route, &mut st)?;
                        out.spilled += n;
                        if n == 0 {
                            break;
                        }
                    }
                    st.open_since = Some(now);
                }
                return Ok(());
            }
            Admit::Probe => {
                self.sync_breaker_metrics(&mut st);
                drop(st);
                let probe = route.sink.lock().healthcheck();
                let mut st = route.state.lock();
                match probe {
                    Ok(()) => {
                        st.breaker.on_success();
                        st.open_since = None;
                        // Fall through to a real delivery attempt below.
                    }
                    Err(_) => {
                        st.breaker.on_failure(now);
                        self.sync_breaker_metrics(&mut st);
                        return Ok(());
                    }
                }
                drop(st);
                return self.deliver_batch(route, now, out);
            }
            Admit::Deliver => {}
        }
        drop(st);
        self.deliver_batch(route, now, out)
    }

    /// Attempt one batch on a route whose breaker admitted delivery.
    fn deliver_batch(
        &self,
        route: &Arc<Route>,
        now: Instant,
        out: &mut PumpReport,
    ) -> Result<(), DurabilityError> {
        let config = &self.shared.config;
        let m = &self.shared.metrics;

        let mut st = route.state.lock();
        let (batch, next_off) = st.buffer.peek(config.batch_max)?;
        if batch.is_empty() {
            return Ok(());
        }
        drop(st);

        // Network I/O happens outside the state lock: accept() stays free.
        let start = Instant::now();
        let result = route.sink.lock().deliver(&batch);
        self.shared.registry.record(Stage::Deliver, start);

        let mut st = route.state.lock();
        match result {
            Ok(()) => {
                st.buffer.advance(next_off)?;
                st.attempt = 0;
                st.next_attempt_at = None;
                st.open_since = None;
                st.breaker.on_success();
                PipelineMetrics::add(&m.reports_delivered, batch.len() as u64);
                out.delivered += batch.len() as u64;
            }
            Err(SinkError::Retryable(_)) => {
                st.attempt = st.attempt.saturating_add(1);
                PipelineMetrics::incr(&m.delivery_retries);
                out.retried += 1;
                let backoff = self.shared.retry().backoff(st.attempt, batch[0].id);
                st.next_attempt_at = Some(now + backoff);
                if st.breaker.on_failure(now) && st.open_since.is_none() {
                    st.open_since = Some(now);
                }
                self.sync_breaker_metrics(&mut st);
            }
            Err(SinkError::Fatal(_)) => {
                // The sink judged the batch and said no. Spill it so the
                // operator has the bytes, and move on.
                route.spill.append(&batch)?;
                st.buffer.advance(next_off)?;
                PipelineMetrics::add(&m.delivery_failures, batch.len() as u64);
                PipelineMetrics::add(&m.reports_spilled, batch.len() as u64);
                out.spilled += batch.len() as u64;
            }
        }
        Ok(())
    }

    /// Pump every route until none makes progress: each is drained,
    /// waiting out a retry backoff, or blocked by its breaker. Returns
    /// what was done and the earliest instant a stalled route can be tried
    /// again (`None`: only a new `accept` gives the pump work).
    pub fn pump_until_idle(&self) -> Result<(PumpReport, Option<Instant>), DurabilityError> {
        let _pump = self.shared.pump_lock.lock();
        let mut out = PumpReport::default();
        let mut retry_at: Option<Instant> = None;
        for route in &self.shared.routes {
            loop {
                let before = out.delivered + out.spilled;
                self.pump_route(route, Instant::now(), &mut out)?;
                if out.delivered + out.spilled == before {
                    break;
                }
            }
            let at = self.route_retry_at(&route.state.lock());
            retry_at = retry_at.into_iter().chain(at).min();
        }
        out.pending_bytes = self.pending_bytes();
        Ok((out, retry_at))
    }

    /// When a route that stopped making progress is worth another attempt:
    /// its retry backoff, or its breaker's next probe / spill-grace
    /// deadline. `None` for a drained route.
    fn route_retry_at(&self, st: &RouteState) -> Option<Instant> {
        if st.buffer.is_drained() {
            return None;
        }
        if st.next_attempt_at.is_some() {
            return st.next_attempt_at;
        }
        let probe_at = st.breaker.open_until()?;
        let grace = Duration::from_millis(self.shared.config.spill_grace_ms);
        Some(st.open_since.map_or(probe_at, |t| probe_at.min(t + grace)))
    }

    /// Pump until every buffer drains or `timeout` elapses, sleeping only
    /// until the next retry is due. Returns the pending bytes left
    /// (0 = fully delivered). Stop the worker first: both wait on the
    /// same doorbell.
    pub fn flush(&self, timeout: Duration) -> Result<u64, DurabilityError> {
        let deadline = Instant::now() + timeout;
        loop {
            let (report, retry_at) = self.pump_until_idle()?;
            if report.pending_bytes == 0 || Instant::now() >= deadline {
                return Ok(report.pending_bytes);
            }
            self.shared
                .doorbell
                .wait(retry_at.map_or(deadline, |t| t.min(deadline)));
        }
    }

    /// Current buffer cursors, for the checkpoint manifest.
    pub fn positions(&self) -> Vec<(String, BufferPosition)> {
        self.shared
            .routes
            .iter()
            .map(|r| (r.name.clone(), r.state.lock().buffer.position()))
            .collect()
    }

    /// Bytes accepted but not yet delivered (or spilled), across routes.
    pub fn pending_bytes(&self) -> u64 {
        self.shared
            .routes
            .iter()
            .map(|r| r.state.lock().buffer.pending_bytes())
            .sum()
    }

    /// Cap every future retry backoff at `ms` milliseconds. The hot
    /// `sink-retry-max-ms` reload path.
    pub fn set_retry_max_ms(&self, ms: u64) {
        self.shared.retry_max_ms.store(ms, Ordering::Relaxed);
    }

    /// The retry policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.shared.retry()
    }

    /// Breaker state per route (for tests and status lines).
    pub fn breaker_states(&self) -> Vec<(String, BreakerState)> {
        self.shared
            .routes
            .iter()
            .map(|r| (r.name.clone(), r.state.lock().breaker.state()))
            .collect()
    }

    /// Spawn the background drain worker. It pumps until idle, then sleeps
    /// until `accept` rings the doorbell or the earliest retry is due;
    /// `poll` is only the fallback wait. Drop (or `stop()`) the handle to
    /// join it.
    pub fn spawn_worker(&self, poll: Duration) -> DeliveryWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let pipeline = self.clone();
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("monilog-delivery".into())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    let retry_at = pipeline.pump_until_idle().ok().and_then(|(_, at)| at);
                    let fallback = Instant::now() + poll;
                    pipeline
                        .shared
                        .doorbell
                        .wait(retry_at.map_or(fallback, |t| t.min(fallback)));
                }
            })
            .expect("spawn delivery worker");
        DeliveryWorker {
            stop,
            pipeline: self.clone(),
            handle: Some(handle),
        }
    }
}

/// Handle to the background drain thread; stops and joins on drop.
pub struct DeliveryWorker {
    stop: Arc<AtomicBool>,
    pipeline: DeliveryPipeline,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DeliveryWorker {
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.pipeline.shared.doorbell.ring();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DeliveryWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint-manifest encoding of buffer positions.
// ---------------------------------------------------------------------------

/// Encode route positions for the manifest's `delivery` section:
/// `[count u32][per entry: name_len u16, name bytes, epoch u64, offset u64]`.
pub fn encode_positions(positions: &[(String, BufferPosition)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(positions.len() as u32).to_le_bytes());
    for (name, pos) in positions {
        let name = name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&pos.epoch.to_le_bytes());
        out.extend_from_slice(&pos.offset.to_le_bytes());
    }
    out
}

/// Decode a `delivery` manifest section; `None` on any structural damage
/// (recovery then starts cursors from the beginning — re-delivery, not
/// loss).
pub fn decode_positions(bytes: &[u8]) -> Option<Vec<(String, BufferPosition)>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*pos..*pos + n)?;
        *pos += n;
        Some(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).ok()?;
        let epoch = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        out.push((name, BufferPosition { epoch, offset }));
    }
    if pos != bytes.len() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::fs;
    use std::sync::Mutex as StdMutex;

    /// Scripted in-memory sink: pops one result per deliver call, records
    /// what it acknowledged. An empty script means "succeed".
    struct ScriptSink {
        script: Arc<StdMutex<VecDeque<Result<(), SinkError>>>>,
        delivered: Arc<StdMutex<Vec<u64>>>,
        healthy: Arc<AtomicBool>,
        healthchecks: Arc<StdMutex<u64>>,
        deliver_calls: Arc<StdMutex<u64>>,
    }

    #[derive(Clone)]
    struct ScriptHandle {
        script: Arc<StdMutex<VecDeque<Result<(), SinkError>>>>,
        delivered: Arc<StdMutex<Vec<u64>>>,
        healthy: Arc<AtomicBool>,
        healthchecks: Arc<StdMutex<u64>>,
        deliver_calls: Arc<StdMutex<u64>>,
    }

    fn script_sink(outcomes: Vec<Result<(), SinkError>>) -> (Box<dyn Sink>, ScriptHandle) {
        let handle = ScriptHandle {
            script: Arc::new(StdMutex::new(outcomes.into_iter().collect())),
            delivered: Arc::new(StdMutex::new(Vec::new())),
            healthy: Arc::new(AtomicBool::new(true)),
            healthchecks: Arc::new(StdMutex::new(0)),
            deliver_calls: Arc::new(StdMutex::new(0)),
        };
        let sink = ScriptSink {
            script: Arc::clone(&handle.script),
            delivered: Arc::clone(&handle.delivered),
            healthy: Arc::clone(&handle.healthy),
            healthchecks: Arc::clone(&handle.healthchecks),
            deliver_calls: Arc::clone(&handle.deliver_calls),
        };
        (Box::new(sink), handle)
    }

    impl Sink for ScriptSink {
        fn kind(&self) -> &'static str {
            "script"
        }
        fn healthcheck(&mut self) -> Result<(), SinkError> {
            *self.healthchecks.lock().unwrap() += 1;
            if self.healthy.load(Ordering::Relaxed) {
                Ok(())
            } else {
                Err(SinkError::Retryable("unhealthy".into()))
            }
        }
        fn deliver(&mut self, batch: &[BufferedReport]) -> Result<(), SinkError> {
            *self.deliver_calls.lock().unwrap() += 1;
            let outcome = self.script.lock().unwrap().pop_front().unwrap_or(Ok(()));
            if outcome.is_ok() {
                self.delivered
                    .lock()
                    .unwrap()
                    .extend(batch.iter().map(|r| r.id));
            }
            outcome
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "monilog-delivery-pipeline-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn report(id: u64, class: DeliveryClass) -> BufferedReport {
        BufferedReport {
            id,
            class,
            body: format!("{{\"id\":{id}}}"),
        }
    }

    fn fast_config(dir: &std::path::Path) -> DeliveryConfig {
        let mut c = DeliveryConfig::new(dir);
        c.retry.base_backoff = Duration::from_millis(1);
        c.retry.max_backoff = Duration::from_millis(5);
        c.breaker = BreakerConfig {
            failure_threshold: 3,
            open_ms: 10,
            open_max_ms: 40,
        };
        c
    }

    #[test]
    fn accept_then_pump_delivers_in_order() {
        let dir = tmp_dir("order");
        let (sink, handle) = script_sink(vec![]);
        let registry = MetricsRegistry::shared();
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        p.accept(vec![
            report(1, DeliveryClass::Page),
            report(2, DeliveryClass::Log),
        ])
        .unwrap();
        p.accept(vec![report(3, DeliveryClass::Ticket)]).unwrap();
        let rep = p.pump_once(Instant::now()).unwrap();
        assert_eq!(rep.delivered, 3);
        assert_eq!(rep.pending_bytes, 0);
        assert_eq!(*handle.delivered.lock().unwrap(), vec![1, 2, 3]);
        let m = registry.counters();
        assert_eq!(PipelineMetrics::get(&m.reports_accepted), 3);
        assert_eq!(PipelineMetrics::get(&m.reports_delivered), 3);
        assert!(registry.stage(Stage::Deliver).count() >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn severity_routing_sends_classes_to_their_routes() {
        let dir = tmp_dir("routing");
        let (page_sink, page) = script_sink(vec![]);
        let (rest_sink, rest) = script_sink(vec![]);
        let registry = MetricsRegistry::shared();
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![
                RouteSpec {
                    name: "webhook".into(),
                    classes: vec![DeliveryClass::Page],
                    sink: page_sink,
                },
                RouteSpec {
                    name: "file".into(),
                    classes: vec![DeliveryClass::Ticket, DeliveryClass::Log],
                    sink: rest_sink,
                },
            ],
            &[],
            registry,
        )
        .unwrap();
        p.accept(vec![
            report(1, DeliveryClass::Page),
            report(2, DeliveryClass::Ticket),
            report(3, DeliveryClass::Log),
            report(4, DeliveryClass::Page),
        ])
        .unwrap();
        p.pump_once(Instant::now()).unwrap();
        assert_eq!(*page.delivered.lock().unwrap(), vec![1, 4]);
        assert_eq!(*rest.delivered.lock().unwrap(), vec![2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn page_route_override_repoints_pages_live() {
        let dir = tmp_dir("page-route");
        let (page_sink, page) = script_sink(vec![]);
        let (rest_sink, rest) = script_sink(vec![]);
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![
                RouteSpec {
                    name: "webhook".into(),
                    classes: vec![DeliveryClass::Page],
                    sink: page_sink,
                },
                RouteSpec {
                    name: "file".into(),
                    classes: vec![DeliveryClass::Ticket, DeliveryClass::Log],
                    sink: rest_sink,
                },
            ],
            &[],
            MetricsRegistry::shared(),
        )
        .unwrap();
        p.accept(vec![report(1, DeliveryClass::Page)]).unwrap();
        // Re-point pages at the file route; an unknown route is refused
        // and changes nothing.
        assert!(!p.set_page_route("nope"));
        assert!(p.set_page_route("file"));
        p.accept(vec![report(2, DeliveryClass::Page)]).unwrap();
        // Pointing pages back at the webhook route restores its routing.
        assert!(p.set_page_route("webhook"));
        p.accept(vec![report(3, DeliveryClass::Page)]).unwrap();
        p.pump_once(Instant::now()).unwrap();
        assert_eq!(*page.delivered.lock().unwrap(), vec![1, 3]);
        assert_eq!(*rest.delivered.lock().unwrap(), vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retryable_failure_backs_off_then_succeeds() {
        let dir = tmp_dir("retry");
        let (sink, handle) = script_sink(vec![
            Err(SinkError::Retryable("flaky".into())),
            Err(SinkError::Retryable("flaky".into())),
        ]);
        let registry = MetricsRegistry::shared();
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        p.accept(vec![report(7, DeliveryClass::Ticket)]).unwrap();
        let t0 = Instant::now();
        assert_eq!(p.pump_once(t0).unwrap().retried, 1);
        // Before the backoff elapses nothing happens.
        assert_eq!(p.pump_once(t0).unwrap().retried, 0);
        // Drive virtual time forward past each backoff.
        let rep = p.pump_once(t0 + Duration::from_millis(60)).unwrap();
        assert_eq!(rep.retried, 1);
        let rep = p.pump_once(t0 + Duration::from_millis(120)).unwrap();
        assert_eq!(rep.delivered, 1);
        assert_eq!(*handle.delivered.lock().unwrap(), vec![7]);
        let m = registry.counters();
        assert_eq!(PipelineMetrics::get(&m.delivery_retries), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_cap_override_shortens_backoff_live() {
        let dir = tmp_dir("retry-cap");
        let (sink, handle) = script_sink(vec![Err(SinkError::Retryable("flaky".into()))]);
        let registry = MetricsRegistry::shared();
        let mut config = fast_config(&dir);
        // Configured backoff is enormous: without the override the retry
        // would stall for 10 s of virtual time.
        config.retry.base_backoff = Duration::from_secs(10);
        config.retry.max_backoff = Duration::from_secs(10);
        let p = DeliveryPipeline::open(
            config,
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        p.set_retry_max_ms(20);
        assert_eq!(p.retry_policy().max_backoff, Duration::from_millis(20));
        p.accept(vec![report(9, DeliveryClass::Ticket)]).unwrap();
        let t0 = Instant::now();
        assert_eq!(p.pump_once(t0).unwrap().retried, 1);
        // Worst case with +50% jitter the capped backoff is 30 ms; at
        // +60 ms the retry must fire and deliver.
        let rep = p.pump_once(t0 + Duration::from_millis(60)).unwrap();
        assert_eq!(rep.delivered, 1);
        assert_eq!(*handle.delivered.lock().unwrap(), vec![9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn breaker_opens_probes_and_recovers() {
        let dir = tmp_dir("breaker");
        let (sink, handle) = script_sink(vec![
            Err(SinkError::Retryable("down".into())),
            Err(SinkError::Retryable("down".into())),
            Err(SinkError::Retryable("down".into())),
        ]);
        handle.healthy.store(false, Ordering::Relaxed);
        let registry = MetricsRegistry::shared();
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        p.accept(vec![report(1, DeliveryClass::Page)]).unwrap();
        let t0 = Instant::now();
        let mut now = t0;
        // Three failures open the breaker (each after its backoff).
        for _ in 0..3 {
            p.pump_once(now).unwrap();
            now += Duration::from_millis(20);
        }
        assert_eq!(p.breaker_states()[0].1, BreakerState::Open);
        let m = registry.counters();
        assert_eq!(PipelineMetrics::get(&m.breaker_opened), 1);
        // While open and unhealthy: probes fail, no deliveries happen.
        now += Duration::from_millis(50);
        p.pump_once(now).unwrap();
        assert!(PipelineMetrics::get(&m.breaker_half_open) >= 1);
        assert_eq!(*handle.delivered.lock().unwrap(), Vec::<u64>::new());
        assert!(*handle.healthchecks.lock().unwrap() >= 1);
        // Sink recovers: next probe closes the breaker and delivery flows.
        handle.healthy.store(true, Ordering::Relaxed);
        now += Duration::from_millis(200);
        let rep = p.pump_once(now).unwrap();
        assert_eq!(rep.delivered, 1);
        assert_eq!(p.breaker_states()[0].1, BreakerState::Closed);
        assert_eq!(*handle.delivered.lock().unwrap(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fatal_errors_divert_the_batch_to_the_spill_file() {
        let dir = tmp_dir("fatal");
        let (sink, handle) = script_sink(vec![Err(SinkError::Fatal("HTTP 400".into()))]);
        let registry = MetricsRegistry::shared();
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![RouteSpec {
                name: "webhook".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        p.accept(vec![report(5, DeliveryClass::Page)]).unwrap();
        let rep = p.pump_once(Instant::now()).unwrap();
        assert_eq!(rep.spilled, 1);
        assert_eq!(rep.pending_bytes, 0, "fatal batch left the buffer");
        assert!(handle.delivered.lock().unwrap().is_empty());
        let spill = fs::read_to_string(dir.join("webhook.spill.jsonl")).unwrap();
        assert!(spill.contains("\"id\":5"));
        let m = registry.counters();
        assert_eq!(PipelineMetrics::get(&m.delivery_failures), 1);
        assert_eq!(PipelineMetrics::get(&m.reports_spilled), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn breaker_open_past_grace_degrades_to_spill() {
        let dir = tmp_dir("grace");
        let (sink, handle) = script_sink(vec![
            Err(SinkError::Retryable("down".into())),
            Err(SinkError::Retryable("down".into())),
            Err(SinkError::Retryable("down".into())),
        ]);
        handle.healthy.store(false, Ordering::Relaxed);
        let registry = MetricsRegistry::shared();
        let mut config = fast_config(&dir);
        config.spill_grace_ms = 100;
        config.breaker.open_ms = 10_000; // stays open, probes far away
        config.breaker.open_max_ms = 10_000;
        let p = DeliveryPipeline::open(
            config,
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        p.accept(vec![
            report(1, DeliveryClass::Page),
            report(2, DeliveryClass::Page),
        ])
        .unwrap();
        let t0 = Instant::now();
        let mut now = t0;
        for _ in 0..3 {
            p.pump_once(now).unwrap();
            now += Duration::from_millis(20);
        }
        assert_eq!(p.breaker_states()[0].1, BreakerState::Open);
        // Grace not yet elapsed: reports stay buffered.
        let rep = p.pump_once(now).unwrap();
        assert_eq!(rep.spilled, 0);
        assert!(rep.pending_bytes > 0);
        // Past the grace deadline: everything pending spills.
        now += Duration::from_millis(200);
        let rep = p.pump_once(now).unwrap();
        assert_eq!(rep.spilled, 2);
        assert_eq!(rep.pending_bytes, 0);
        let spill = fs::read_to_string(dir.join("tcp.spill.jsonl")).unwrap();
        assert!(spill.contains("\"id\":1") && spill.contains("\"id\":2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn buffer_cap_spills_oldest_on_accept() {
        let dir = tmp_dir("cap");
        let (sink, _) = script_sink(vec![]);
        let registry = MetricsRegistry::shared();
        let mut config = fast_config(&dir);
        config.buffer_spill_bytes = 200;
        let p = DeliveryPipeline::open(
            config,
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            Arc::clone(&registry),
        )
        .unwrap();
        let reports: Vec<BufferedReport> = (0..50).map(|i| report(i, DeliveryClass::Log)).collect();
        p.accept(reports).unwrap();
        assert!(p.pending_bytes() <= 200 + 64, "buffer bounded by the cap");
        let m = registry.counters();
        assert!(PipelineMetrics::get(&m.reports_spilled) > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn positions_restart_resumes_where_delivery_stopped() {
        let dir = tmp_dir("positions");
        let registry = MetricsRegistry::shared();
        let (sink, handle) = script_sink(vec![]);
        let spec = |sink| {
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }]
        };
        let mut config = fast_config(&dir);
        config.batch_max = 2;
        let p =
            DeliveryPipeline::open(config.clone(), spec(sink), &[], Arc::clone(&registry)).unwrap();
        p.accept(vec![
            report(1, DeliveryClass::Log),
            report(2, DeliveryClass::Log),
            report(3, DeliveryClass::Log),
        ])
        .unwrap();
        p.pump_once(Instant::now()).unwrap(); // delivers 1, 2 (batch_max)
        assert_eq!(*handle.delivered.lock().unwrap(), vec![1, 2]);
        let positions = p.positions();
        let encoded = encode_positions(&positions);
        drop(p);
        // "Restart": decode the manifest section, reopen, only 3 remains.
        let decoded = decode_positions(&encoded).unwrap();
        assert_eq!(decoded, positions);
        let (sink2, handle2) = script_sink(vec![]);
        let p2 = DeliveryPipeline::open(config, spec(sink2), &decoded, registry).unwrap();
        p2.pump_once(Instant::now()).unwrap();
        assert_eq!(*handle2.delivered.lock().unwrap(), vec![3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn position_codec_rejects_damage() {
        let positions = vec![
            (
                "webhook".to_string(),
                BufferPosition {
                    epoch: 3,
                    offset: 1024,
                },
            ),
            ("file".to_string(), BufferPosition::default()),
        ];
        let bytes = encode_positions(&positions);
        assert_eq!(decode_positions(&bytes).unwrap(), positions);
        assert!(decode_positions(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_positions(&extra).is_none());
        assert!(decode_positions(&[]).is_none());
        assert_eq!(decode_positions(&0u32.to_le_bytes()).unwrap(), vec![]);
    }

    #[test]
    fn truncated_spill_file_recovers_and_keeps_appending() {
        // A crash mid-spill leaves a torn JSONL tail; reopening must not
        // panic and later spills must still land.
        let dir = tmp_dir("torn-spill");
        let registry = MetricsRegistry::shared();
        let make = |sink| {
            vec![RouteSpec {
                name: "webhook".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }]
        };
        let (sink, _) = script_sink(vec![Err(SinkError::Fatal("HTTP 400".into()))]);
        let p = DeliveryPipeline::open(fast_config(&dir), make(sink), &[], Arc::clone(&registry))
            .unwrap();
        p.accept(vec![report(1, DeliveryClass::Page)]).unwrap();
        p.pump_once(Instant::now()).unwrap(); // spills report 1
        drop(p);
        let spill_path = dir.join("webhook.spill.jsonl");
        let bytes = fs::read(&spill_path).unwrap();
        fs::write(&spill_path, &bytes[..bytes.len() / 2]).unwrap(); // torn tail
        let (sink2, _) = script_sink(vec![Err(SinkError::Fatal("HTTP 400".into()))]);
        let p2 = DeliveryPipeline::open(fast_config(&dir), make(sink2), &[], registry).unwrap();
        p2.accept(vec![report(2, DeliveryClass::Page)]).unwrap();
        p2.pump_once(Instant::now()).unwrap();
        let text = fs::read_to_string(&spill_path).unwrap();
        assert!(text.contains("\"id\":2"), "spill keeps working: {text}");
        fs::remove_dir_all(&dir).unwrap();
    }

    fn one_route(config: DeliveryConfig, sink: Box<dyn Sink>) -> DeliveryPipeline {
        DeliveryPipeline::open(
            config,
            vec![RouteSpec {
                name: "tcp".into(),
                classes: DeliveryClass::ALL.to_vec(),
                sink,
            }],
            &[],
            MetricsRegistry::shared(),
        )
        .unwrap()
    }

    fn wait_until(what: &str, limit: Duration, done: impl Fn() -> bool) {
        let deadline = Instant::now() + limit;
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The doorbell, not the poll, wakes the worker, and one wake drains
    /// the whole backlog: 16 batches in under a second with a 10 s poll.
    #[test]
    fn a_backlog_drains_in_one_wake_without_waiting_for_the_poll() {
        let dir = tmp_dir("one-wake");
        let (sink, handle) = script_sink(vec![]);
        let p = one_route(fast_config(&dir), sink);
        let mut worker = p.spawn_worker(Duration::from_secs(10));
        // Let the worker find nothing and go to sleep on the doorbell.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        p.accept((0..1000).map(|i| report(i, DeliveryClass::Log)).collect())
            .unwrap();
        wait_until("the backlog to drain", Duration::from_secs(1), || {
            p.pending_bytes() == 0
        });
        assert!(t0.elapsed() < Duration::from_secs(1));
        worker.stop();
        assert_eq!(
            *handle.delivered.lock().unwrap(),
            (0..1000).collect::<Vec<u64>>()
        );
        assert_eq!(*handle.deliver_calls.lock().unwrap(), 16, "1000 / 64");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retryable_failure_stops_the_drain_until_its_backoff() {
        let dir = tmp_dir("retry-stop");
        let (sink, handle) = script_sink(vec![Err(SinkError::Retryable("flaky".into()))]);
        let mut config = fast_config(&dir);
        config.retry.base_backoff = Duration::from_millis(100);
        config.retry.max_backoff = Duration::from_millis(100);
        let p = one_route(config, sink);
        p.accept((0..200).map(|i| report(i, DeliveryClass::Log)).collect())
            .unwrap();
        let t0 = Instant::now();
        let (rep, retry_at) = p.pump_until_idle().unwrap();
        assert_eq!((rep.retried, rep.delivered), (1, 0));
        let retry_at = retry_at.expect("a backing-off route names its next attempt");
        assert!(
            retry_at >= t0 + Duration::from_millis(100),
            "jitter only adds"
        );
        // Before the backoff elapses another drain does not touch the sink.
        let (rep, again) = p.pump_until_idle().unwrap();
        assert_eq!((rep.retried, rep.delivered), (0, 0));
        assert_eq!(again, Some(retry_at));
        assert_eq!(*handle.deliver_calls.lock().unwrap(), 1);
        std::thread::sleep(retry_at.saturating_duration_since(Instant::now()));
        let (rep, retry_at) = p.pump_until_idle().unwrap();
        assert_eq!((rep.delivered, rep.pending_bytes), (200, 0));
        assert_eq!(
            retry_at, None,
            "a drained route waits only for the doorbell"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_open_breaker_is_not_hammered() {
        let dir = tmp_dir("no-hammer");
        let (sink, handle) = script_sink(vec![Err(SinkError::Retryable("down".into())); 1000]);
        handle.healthy.store(false, Ordering::Relaxed);
        let mut config = fast_config(&dir);
        config.breaker.open_ms = 400;
        config.breaker.open_max_ms = 10_000;
        let p = one_route(config, sink);
        let mut worker = p.spawn_worker(Duration::from_secs(10));
        p.accept(vec![report(1, DeliveryClass::Page)]).unwrap();
        // Three failures (1–8 ms apart) open the breaker; until its 400 ms
        // dwell ends the worker must leave the sink alone.
        wait_until("the breaker to open", Duration::from_secs(5), || {
            p.breaker_states()[0].1 == BreakerState::Open
        });
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(*handle.deliver_calls.lock().unwrap(), 3);
        assert_eq!(*handle.healthchecks.lock().unwrap(), 0);
        // The worker wakes itself for the probe (no doorbell, 10 s poll);
        // the failed probe doubles the dwell, so one second sees one or
        // two probes and no delivery attempt.
        wait_until("the first probe", Duration::from_secs(5), || {
            *handle.healthchecks.lock().unwrap() >= 1
        });
        std::thread::sleep(Duration::from_millis(300));
        worker.stop();
        assert!(*handle.healthchecks.lock().unwrap() <= 2);
        assert_eq!(*handle.deliver_calls.lock().unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Sink that parks inside `deliver` until the test lets it go.
    struct GateSink {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl Sink for GateSink {
        fn kind(&self) -> &'static str {
            "gate"
        }
        fn healthcheck(&mut self) -> Result<(), SinkError> {
            Ok(())
        }
        fn deliver(&mut self, _batch: &[BufferedReport]) -> Result<(), SinkError> {
            self.entered.send(()).unwrap();
            self.release.recv().unwrap();
            Ok(())
        }
    }

    /// A ring while the worker is pumping — after it passed the route the
    /// report lands on — must survive until the worker next waits.
    #[test]
    fn an_accept_during_a_pump_is_not_a_missed_wakeup() {
        let dir = tmp_dir("missed-wakeup");
        let (first_sink, first) = script_sink(vec![]);
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let p = DeliveryPipeline::open(
            fast_config(&dir),
            vec![
                RouteSpec {
                    name: "first".into(),
                    classes: vec![DeliveryClass::Page],
                    sink: first_sink,
                },
                RouteSpec {
                    name: "gated".into(),
                    classes: vec![DeliveryClass::Ticket, DeliveryClass::Log],
                    sink: Box::new(GateSink {
                        entered: entered_tx,
                        release: release_rx,
                    }),
                },
            ],
            &[],
            MetricsRegistry::shared(),
        )
        .unwrap();
        let mut worker = p.spawn_worker(Duration::from_secs(10));
        p.accept(vec![report(1, DeliveryClass::Log)]).unwrap();
        // The worker is now inside the second route's deliver: this drain
        // pass is already past the first route.
        entered.recv_timeout(Duration::from_secs(5)).unwrap();
        p.accept(vec![report(2, DeliveryClass::Page)]).unwrap();
        release.send(()).unwrap();
        wait_until(
            "the report accepted mid-pump",
            Duration::from_secs(1),
            || *first.delivered.lock().unwrap() == vec![2],
        );
        worker.stop();
        assert_eq!(p.pending_bytes(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
