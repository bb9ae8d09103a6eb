//! Transport noise.
//!
//! "The spatial distance between log sources and the different storage
//! systems is variable. This configuration induces noise, as logs can
//! arrive in mixed order or sometimes be duplicated." (Section I)
//!
//! [`NoiseInjector`] perturbs the *arrival order* of a stream without
//! touching line contents: bounded reordering (each line may be delayed by
//! up to `max_delay_ms`), duplication, and loss. Unlike
//! [`crate::instability`], noise does not mark lines unstable — it models
//! the transport, not the code base.

use crate::truth::GenLog;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Transport-noise parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Each line's arrival is delayed by a uniform random amount up to this
    /// bound (milliseconds); 0 disables reordering.
    pub max_delay_ms: u64,
    /// Probability that a line arrives twice.
    pub duplicate_prob: f64,
    /// Probability that a line is lost in transit.
    pub drop_prob: f64,
    pub seed: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            max_delay_ms: 0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            seed: 0,
        }
    }
}

/// Applies transport noise to a time-ordered stream.
#[derive(Debug, Clone)]
pub struct NoiseInjector {
    config: NoiseConfig,
}

impl NoiseInjector {
    pub fn new(config: NoiseConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.duplicate_prob));
        assert!((0.0..=1.0).contains(&config.drop_prob));
        NoiseInjector { config }
    }

    /// Return the stream in *arrival order* (which may differ from emission
    /// order). Emission timestamps inside the records are left untouched —
    /// downstream mergers must cope with the disorder, exactly as in
    /// production.
    pub fn apply(&self, logs: &[GenLog]) -> Vec<GenLog> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut arrivals: Vec<(u64, usize, GenLog)> = Vec::with_capacity(logs.len());
        let mut tie = 0usize;
        for log in logs {
            if rng.random_bool(self.config.drop_prob) {
                continue;
            }
            let emitted = log.record.header.timestamp.as_millis();
            let delay = if self.config.max_delay_ms > 0 {
                rng.random_range(0..=self.config.max_delay_ms)
            } else {
                0
            };
            arrivals.push((emitted + delay, tie, log.clone()));
            tie += 1;
            if rng.random_bool(self.config.duplicate_prob) {
                let dup_delay = if self.config.max_delay_ms > 0 {
                    rng.random_range(0..=self.config.max_delay_ms)
                } else {
                    0
                };
                arrivals.push((emitted + dup_delay, tie, log.clone()));
                tie += 1;
            }
        }
        arrivals.sort_by_key(|(at, tie, _)| (*at, *tie));
        arrivals.into_iter().map(|(_, _, l)| l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdfs::{HdfsWorkload, HdfsWorkloadConfig};

    fn base() -> Vec<GenLog> {
        HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 100,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 2,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn no_noise_is_identity() {
        let logs = base();
        let out = NoiseInjector::new(NoiseConfig::default()).apply(&logs);
        assert_eq!(out, logs);
    }

    #[test]
    fn reordering_respects_delay_bound() {
        let logs = base();
        let cfg = NoiseConfig {
            max_delay_ms: 500,
            seed: 4,
            ..Default::default()
        };
        let out = NoiseInjector::new(cfg).apply(&logs);
        assert_eq!(out.len(), logs.len());
        // Arrival order differs from emission order...
        let emitted: Vec<u64> = out
            .iter()
            .map(|l| l.record.header.timestamp.as_millis())
            .collect();
        assert!(
            emitted.windows(2).any(|w| w[0] > w[1]),
            "nothing was reordered"
        );
        // ...but disorder is bounded: a line can only appear before lines
        // emitted at most max_delay_ms earlier.
        let mut max_seen = 0u64;
        for &e in &emitted {
            assert!(
                e + 500 >= max_seen,
                "disorder beyond bound: {e} after {max_seen}"
            );
            max_seen = max_seen.max(e);
        }
    }

    #[test]
    fn duplication_grows_and_drop_shrinks() {
        let logs = base();
        let dup = NoiseInjector::new(NoiseConfig {
            duplicate_prob: 0.2,
            seed: 5,
            ..Default::default()
        })
        .apply(&logs);
        assert!(dup.len() > logs.len());
        let dropped = NoiseInjector::new(NoiseConfig {
            drop_prob: 0.2,
            seed: 6,
            ..Default::default()
        })
        .apply(&logs);
        assert!(dropped.len() < logs.len());
        let rate = 1.0 - dropped.len() as f64 / logs.len() as f64;
        assert!((0.15..=0.25).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn contents_are_never_altered() {
        let logs = base();
        let out = NoiseInjector::new(NoiseConfig {
            max_delay_ms: 200,
            duplicate_prob: 0.1,
            drop_prob: 0.1,
            seed: 7,
        })
        .apply(&logs);
        // Every output line is byte-identical to some input line.
        use std::collections::HashSet;
        let inputs: HashSet<&str> = logs.iter().map(|l| l.record.message.as_str()).collect();
        for l in &out {
            assert!(inputs.contains(l.record.message.as_str()));
            assert!(!l.truth.unstable, "noise must not mark lines unstable");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let logs = base();
        let cfg = NoiseConfig {
            max_delay_ms: 100,
            duplicate_prob: 0.05,
            drop_prob: 0.05,
            seed: 9,
        };
        assert_eq!(
            NoiseInjector::new(cfg.clone()).apply(&logs),
            NoiseInjector::new(cfg).apply(&logs)
        );
    }
}
