//! Per-sink circuit breaker: closed → open → half-open.
//!
//! A sink that keeps failing should not be hammered with full delivery
//! batches on every retry tick — it slows the drain loop for healthy
//! routes and can make a struggling endpoint worse. The breaker quarantines
//! it instead:
//!
//! ```text
//!        failures >= threshold               probe healthcheck fails
//!   Closed ───────────────────▶ Open ◀──────────────────────────── HalfOpen
//!     ▲                          │ open interval elapsed              │
//!     │                          ▼                                    │
//!     └──────── probe healthcheck succeeds ◀── HalfOpen ◀─────────────┘
//! ```
//!
//! While **open**, delivery attempts are blocked outright. Once the open
//! interval elapses the breaker goes **half-open** and admits exactly one
//! cheap probe (the sink's healthcheck, not a report batch). A successful
//! probe closes the breaker; a failed one re-opens it with a doubled
//! (capped) interval, so a dead sink converges to one probe per
//! `open_max_ms` instead of a retry storm.
//!
//! All methods take `now: Instant` explicitly — tests drive the state
//! machine with synthetic clocks and assert exact transitions.

use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive delivery failures (while closed) that open the breaker.
    pub failure_threshold: u32,
    /// First open interval; doubles on every failed probe.
    pub open_ms: u64,
    /// Cap on the open interval growth.
    pub open_max_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_ms: 1_000,
            open_max_ms: 30_000,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// What the drain loop is allowed to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Breaker closed: deliver normally.
    Deliver,
    /// Breaker just moved (or already was) half-open: run one probe
    /// healthcheck, then report its outcome.
    Probe,
    /// Breaker open: do nothing this tick.
    Blocked,
}

#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Option<Instant>,
    /// Current open interval (grows on failed probes).
    dwell: Duration,
    /// Transition counters for metrics: times opened / went half-open.
    opened: u64,
    half_opened: u64,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            dwell: Duration::from_millis(config.open_ms),
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: None,
            opened: 0,
            half_opened: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// When an open breaker admits its next probe; `None` unless open.
    pub fn open_until(&self) -> Option<Instant> {
        self.open_until
    }

    /// Times the breaker has transitioned into Open / HalfOpen (cumulative,
    /// mirrored into the `breaker_opened` / `breaker_half_open` counters).
    pub fn transition_counts(&self) -> (u64, u64) {
        (self.opened, self.half_opened)
    }

    /// What may happen at `now`. Open → HalfOpen transition occurs here
    /// when the open interval has elapsed.
    pub fn admit(&mut self, now: Instant) -> Admit {
        match self.state {
            BreakerState::Closed => Admit::Deliver,
            BreakerState::HalfOpen => Admit::Probe,
            BreakerState::Open => {
                if self.open_until.is_some_and(|t| now >= t) {
                    self.state = BreakerState::HalfOpen;
                    self.half_opened += 1;
                    Admit::Probe
                } else {
                    Admit::Blocked
                }
            }
        }
    }

    /// A delivery or probe succeeded: close and reset.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.open_until = None;
        self.dwell = Duration::from_millis(self.config.open_ms);
    }

    /// A delivery or probe failed. Returns `true` when this failure opened
    /// the breaker (for the `breaker_opened` counter).
    pub fn on_failure(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.open(now);
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                // Failed probe: back off harder.
                self.dwell = (self.dwell * 2).min(Duration::from_millis(self.config.open_max_ms));
                self.open(now);
                true
            }
            BreakerState::Open => false,
        }
    }

    fn open(&mut self, now: Instant) {
        self.state = BreakerState::Open;
        self.open_until = Some(now + self.dwell);
        self.opened += 1;
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_ms: 100,
            open_max_ms: 400,
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.admit(t0), Admit::Deliver);
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(t0), "third failure opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(t0), Admit::Blocked);
        assert_eq!(b.transition_counts(), (1, 0));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        b.on_failure(t0);
        b.on_failure(t0);
        b.on_success();
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(t0);
        }
        assert_eq!(b.admit(t0 + Duration::from_millis(50)), Admit::Blocked);
        assert_eq!(b.admit(t0 + Duration::from_millis(100)), Admit::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(t0 + Duration::from_millis(101)), Admit::Deliver);
        assert_eq!(b.transition_counts(), (1, 1));
    }

    #[test]
    fn failed_probe_doubles_the_open_interval_up_to_the_cap() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let mut now = t0;
        // Fail probes repeatedly: dwell 100 → 200 → 400 → 400 (capped).
        for expected_dwell in [200u64, 400, 400, 400] {
            now += Duration::from_millis(1_000); // way past any dwell
            assert_eq!(b.admit(now), Admit::Probe);
            assert!(b.on_failure(now), "failed probe re-opens");
            assert_eq!(
                b.admit(now + Duration::from_millis(expected_dwell - 1)),
                Admit::Blocked,
                "dwell {expected_dwell} not yet elapsed"
            );
            assert_eq!(
                b.admit(now + Duration::from_millis(expected_dwell)),
                Admit::Probe
            );
            // Re-block by failing again from HalfOpen at the same instant
            // is covered by the next loop iteration.
            b.state = BreakerState::Open;
            b.open_until = Some(now + Duration::from_millis(expected_dwell));
        }
        let (opened, half) = b.transition_counts();
        assert!(opened >= 5);
        assert!(half >= 4);
    }

    #[test]
    fn recovery_resets_dwell_growth() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(t0);
        }
        let now = t0 + Duration::from_millis(150);
        assert_eq!(b.admit(now), Admit::Probe);
        b.on_failure(now); // dwell now 200
        let now2 = now + Duration::from_millis(200);
        assert_eq!(b.admit(now2), Admit::Probe);
        b.on_success();
        // Next trip opens with the base interval again.
        for _ in 0..3 {
            b.on_failure(now2);
        }
        assert_eq!(b.admit(now2 + Duration::from_millis(99)), Admit::Blocked);
        assert_eq!(b.admit(now2 + Duration::from_millis(100)), Admit::Probe);
    }
}
