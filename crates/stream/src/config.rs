//! Shared configuration types for the streaming layer: typed construction
//! errors, the network sources' overload policy vocabulary (surfaced
//! through the `monilog` CLI) and the delivery retry schedule.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// A structurally invalid streaming configuration.
///
/// Construction-time validation errors: services return these instead of
/// panicking so deployments can reject bad configs at the edge (CLI flag
/// parsing, config files) with a message instead of a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A sharded component needs at least one shard.
    ZeroShards,
    /// Bounded queues need capacity for at least one item.
    ZeroCapacity,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => f.write_str("need at least one shard"),
            ConfigError::ZeroCapacity => f.write_str("queues need capacity for at least one item"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// What a network source does with a line when the ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OverloadPolicy {
    /// Pause reading until space frees up: end-to-end backpressure. UDP,
    /// which cannot pause, sheds instead.
    #[default]
    Block,
    /// Drop the line and count it in `sources_lines_shed`.
    ShedToCatchAll,
    /// Divert the line to the dead-letter log with an overload marker so
    /// it can be replayed once the pipeline catches up.
    DeadLetter,
}

impl OverloadPolicy {
    /// Parse a CLI-style policy name (`block` | `shed` | `dead-letter`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "shed" => Ok(OverloadPolicy::ShedToCatchAll),
            "dead-letter" => Ok(OverloadPolicy::DeadLetter),
            other => Err(format!(
                "unknown overload policy {other:?} (expected block, shed, or dead-letter)"
            )),
        }
    }

    /// The CLI-style name (inverse of [`OverloadPolicy::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedToCatchAll => "shed",
            OverloadPolicy::DeadLetter => "dead-letter",
        }
    }
}

impl fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Retry schedule for a failed delivery attempt: exponential backoff with
/// deterministic per-item jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts after the first failure before the item is given up on.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based) is `base * 2^(k-1)` plus jitter.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based), jittered by up to
    /// +50% keyed on `seq` so co-failing items don't retry in lockstep.
    pub fn backoff(&self, attempt: u32, seq: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        // SplitMix64-style scramble of (seq, attempt) → jitter fraction.
        let mut z = seq
            .wrapping_add(attempt as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter_num = (z >> 32) % 512; // 0..512 of 1024 → up to +50%
        capped + capped.mul_f64(jitter_num as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            OverloadPolicy::Block,
            OverloadPolicy::ShedToCatchAll,
            OverloadPolicy::DeadLetter,
        ] {
            assert_eq!(OverloadPolicy::parse(p.name()), Ok(p));
        }
        assert!(OverloadPolicy::parse("drop-everything").is_err());
    }

    #[test]
    fn config_errors_have_messages() {
        assert!(ConfigError::ZeroShards.to_string().contains("shard"));
        assert!(ConfigError::ZeroCapacity.to_string().contains("capacity"));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let r = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        };
        let b1 = r.backoff(1, 7);
        let b3 = r.backoff(3, 7);
        let b7 = r.backoff(7, 7);
        assert!(b1 >= Duration::from_millis(2));
        assert!(b1 <= Duration::from_millis(3));
        assert!(b3 >= Duration::from_millis(8));
        // Cap plus at most +50% jitter.
        assert!(b7 <= Duration::from_millis(30));
        // Deterministic per (attempt, seq).
        assert_eq!(r.backoff(2, 9), r.backoff(2, 9));
    }
}
