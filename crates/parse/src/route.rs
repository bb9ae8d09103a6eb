//! Load-balanced routing for sharded parsing.
//!
//! The original router hashed the first stable token straight onto
//! `n_shards` buckets. That is template-stable but inherits the key
//! distribution of the corpus: on the D1 cloud corpus the heaviest
//! routing key carries 13.7% of all lines, which caps 16-shard balance at
//! `(1/16) / 0.137 ≈ 0.46` no matter how the keys are hashed — the
//! measured 0.31 is that ceiling plus collision bad luck.
//!
//! [`BalancedRouter`] keeps per-key stickiness but fixes both problems:
//!
//! 1. **Placement** — a new key is offered its top candidates in
//!    *rendezvous order* (highest-random-weight hashing: score every
//!    shard against the key, rank by score) and takes the least-loaded of
//!    the first [`BalancedRouterConfig::probe`] candidates
//!    (power-of-two-choices). This removes collision clumping.
//! 2. **Hot-key splitting** — a key whose line count exceeds its fair
//!    share of the stream grows a replica set, adopting the next shard in
//!    its rendezvous order; each line then goes to the least-loaded
//!    replica. This is the "partial key grouping" idea (Nasir et al.,
//!    ICDE 2015): split only the keys that need it, keep everything else
//!    sticky.
//!
//! Splitting sends lines of one heavy template to more than one Drain
//! shard. Grouping stays exact because the global template layer interns
//! by *rendered pattern*: the replicas re-discover the same masked
//! template and collapse onto one global id (see
//! `ShardedDrain::parse`). The stability contract is therefore on global
//! template ids — the thing downstream detectors key on — not on
//! physical shard placement.
//!
//! Everything is deterministic in the input sequence: no randomness, no
//! clocks. Two routers fed the same lines in the same order make
//! identical decisions, which is what lets the sequential reference
//! parser, the scoped-thread harness, and the streaming services be
//! compared line-for-line.

use monilog_model::hash::fnv1a;
use monilog_model::{CodecError, Decoder, Encoder};
use std::collections::HashMap;

/// Magic bytes of a serialized router state (see
/// [`BalancedRouter::export_state`]).
const ROUTER_MAGIC: [u8; 4] = *b"RTRS";
const ROUTER_VERSION: u16 = 1;

/// Tuning knobs for [`BalancedRouter`]. The defaults are what experiment
/// D1 runs with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancedRouterConfig {
    pub n_shards: usize,
    /// Candidates examined on first placement (power-of-two-choices).
    pub probe: usize,
    /// A key splits to an extra replica once its count exceeds
    /// `split_factor × fair_share × replicas`, where fair share is
    /// `total / n_shards`.
    pub split_factor: f64,
    /// Keys below this count never split (protects cold keys from
    /// splitting on startup noise, when `total / n_shards` is tiny).
    pub min_split_load: u64,
}

impl BalancedRouterConfig {
    pub fn new(n_shards: usize) -> Self {
        // probe/split_factor tuned on the D1 cloud corpus: 3-candidate
        // placement plus splitting at 0.7× fair share lifts 16-shard
        // balance from 0.66 to 0.89 (and 8-shard from 0.72 to 0.98) at
        // the cost of one extra split key — splits are cheap now that
        // they ship a template handoff (see `ShardedDrain::handoff`).
        BalancedRouterConfig {
            n_shards,
            probe: 3,
            split_factor: 0.7,
            min_split_load: 64,
        }
    }
}

/// A hot-key split decision made while routing a line: the key just grew
/// a replica. The caller that owns the shard state (e.g. `ShardedDrain`)
/// uses this to hand the key's templates from `source` to `added` so both
/// replicas group identically from the first line (see
/// `ShardedDrain::handoff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEvent {
    /// The key's rendezvous-primary replica — the handoff source.
    pub source: usize,
    /// The replica that was just added.
    pub added: usize,
}

#[derive(Debug)]
struct KeyState {
    /// All shards in rendezvous order for this key (best first).
    order: Box<[u32]>,
    /// Active replicas: a prefix-respecting subset of `order`, grown one
    /// shard at a time as the key proves hot.
    replicas: Vec<u32>,
    count: u64,
}

/// Sticky, deterministic, load-aware shard router. See the module docs.
#[derive(Debug)]
pub struct BalancedRouter {
    config: BalancedRouterConfig,
    loads: Vec<u64>,
    total: u64,
    keys: HashMap<u64, KeyState>,
}

impl BalancedRouter {
    pub fn new(n_shards: usize) -> Self {
        Self::with_config(BalancedRouterConfig::new(n_shards))
    }

    pub fn with_config(config: BalancedRouterConfig) -> Self {
        assert!(config.n_shards >= 1, "need at least one shard");
        assert!(config.probe >= 1, "need at least one placement candidate");
        BalancedRouter {
            loads: vec![0; config.n_shards],
            total: 0,
            keys: HashMap::new(),
            config,
        }
    }

    /// The routing key of a message: its first whitespace token, with
    /// digit-bearing tokens normalized to `<*>` — the same normalization
    /// Drain's own tree applies, so the key is constant across all lines
    /// of a template.
    pub fn key_hash(message: &str) -> u64 {
        fnv1a(Self::key_token(message).as_bytes())
    }

    /// The routing key itself (what [`BalancedRouter::key_hash`] hashes):
    /// the first whitespace token, or `<*>` for digit-bearing tokens.
    pub fn key_token(message: &str) -> &str {
        let first = message.split_whitespace().next().unwrap_or("");
        if first.bytes().any(|b| b.is_ascii_digit()) {
            "<*>"
        } else {
            first
        }
    }

    /// Route one message; updates key counts and shard loads.
    pub fn route(&mut self, message: &str) -> usize {
        self.route_detailed(message).0
    }

    /// [`BalancedRouter::route`], also reporting whether this line made
    /// its key split to a new replica.
    pub fn route_detailed(&mut self, message: &str) -> (usize, Option<SplitEvent>) {
        self.route_hash_detailed(Self::key_hash(message))
    }

    /// Route by precomputed key hash (callers that batch can hash once).
    pub fn route_hash(&mut self, h: u64) -> usize {
        self.route_hash_detailed(h).0
    }

    /// [`BalancedRouter::route_hash`] with the split event, if any.
    pub fn route_hash_detailed(&mut self, h: u64) -> (usize, Option<SplitEvent>) {
        let n = self.config.n_shards;
        self.total += 1;
        if n == 1 {
            self.loads[0] += 1;
            return (0, None);
        }
        let fair = ((self.total / n as u64) as f64 * self.config.split_factor) as u64;
        let fair = fair.max(self.config.min_split_load);

        let loads = &self.loads;
        let probe = self.config.probe.min(n);
        let ks = self.keys.entry(h).or_insert_with(|| {
            let order = rendezvous_order(h, n);
            let first = *order[..probe]
                .iter()
                .min_by_key(|&&s| loads[s as usize])
                .expect("probe >= 1");
            KeyState {
                order,
                replicas: vec![first],
                count: 0,
            }
        });
        ks.count += 1;
        let mut split = None;
        if ks.count > fair * ks.replicas.len() as u64 && ks.replicas.len() < n {
            if let Some(&next) = ks.order.iter().find(|s| !ks.replicas.contains(s)) {
                split = Some(SplitEvent {
                    source: ks.replicas[0] as usize,
                    added: next as usize,
                });
                ks.replicas.push(next);
            }
        }
        let shard = *ks
            .replicas
            .iter()
            .min_by_key(|&&s| loads[s as usize])
            .expect("replica set never empty") as usize;
        self.loads[shard] += 1;
        (shard, split)
    }

    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// Lines routed to each shard so far.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Total lines routed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct routing keys seen.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Keys that have grown past one replica (the hot keys).
    pub fn split_key_count(&self) -> usize {
        self.keys.values().filter(|k| k.replicas.len() > 1).count()
    }

    /// Serialize placement + split state for the durable checkpoint. The
    /// encoding is deterministic (keys sorted by hash) so two identical
    /// routers export identical bytes. Each key stores its hash, count,
    /// and replica set; the full rendezvous `order` is a pure function of
    /// the hash and shard count, so it is recomputed on import rather
    /// than stored.
    pub fn export_state(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(ROUTER_MAGIC, ROUTER_VERSION);
        e.put_u32(self.config.n_shards as u32);
        e.put_u64(self.total);
        e.put_len(self.loads.len());
        for &l in &self.loads {
            e.put_u64(l);
        }
        let mut hashes: Vec<u64> = self.keys.keys().copied().collect();
        hashes.sort_unstable();
        e.put_len(hashes.len());
        for h in hashes {
            let ks = &self.keys[&h];
            e.put_u64(h);
            e.put_u64(ks.count);
            e.put_len(ks.replicas.len());
            for &r in &ks.replicas {
                e.put_u32(r);
            }
        }
        e.finish()
    }

    /// Rebuild a router from [`BalancedRouter::export_state`] bytes. The
    /// restored router makes decisions identical to the original's from
    /// the next line on. `config.n_shards` must match the exporter's.
    pub fn import_state(
        config: BalancedRouterConfig,
        bytes: &[u8],
    ) -> Result<BalancedRouter, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(ROUTER_MAGIC, ROUTER_VERSION)?;
        let n = d.get_u32()? as usize;
        if n != config.n_shards {
            return Err(CodecError::Corrupt("router shard count mismatch"));
        }
        let total = d.get_u64()?;
        let n_loads = d.get_len()?;
        if n_loads != n {
            return Err(CodecError::Corrupt("router load vector length"));
        }
        let mut loads = Vec::with_capacity(n_loads);
        for _ in 0..n_loads {
            loads.push(d.get_u64()?);
        }
        let n_keys = d.get_len()?;
        let mut keys = HashMap::with_capacity(n_keys);
        for _ in 0..n_keys {
            let h = d.get_u64()?;
            let count = d.get_u64()?;
            let n_replicas = d.get_len()?;
            if n_replicas == 0 || n_replicas > n {
                return Err(CodecError::Corrupt("router replica set size"));
            }
            let mut replicas = Vec::with_capacity(n_replicas);
            for _ in 0..n_replicas {
                let r = d.get_u32()?;
                if r as usize >= n {
                    return Err(CodecError::Corrupt("router replica out of range"));
                }
                replicas.push(r);
            }
            keys.insert(
                h,
                KeyState {
                    order: rendezvous_order(h, n),
                    replicas,
                    count,
                },
            );
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after router state"));
        }
        Ok(BalancedRouter {
            config,
            loads,
            total,
            keys,
        })
    }
}

/// Rank every shard for a key by highest-random-weight score.
fn rendezvous_order(h: u64, n: usize) -> Box<[u32]> {
    let mut scored: Vec<(u64, u32)> = (0..n as u32)
        .map(|j| (mix64(h ^ mix64(j as u64 + 0x9E37_79B9_7F4A_7C15)), j))
        .collect();
    scored.sort_unstable_by(|a, b| b.cmp(a));
    scored.into_iter().map(|(_, j)| j).collect()
}

/// splitmix64 finalizer: cheap, well-distributed, stable across builds
/// (unlike `DefaultHasher`, whose algorithm is unspecified).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_sticky_before_splitting() {
        let mut r = BalancedRouter::new(8);
        let a = r.route("Sending 138 bytes src: 10.0.0.1");
        for _ in 0..50 {
            assert_eq!(r.route("Sending 999 bytes src: 10.9.9.9"), a);
        }
    }

    #[test]
    fn identical_input_sequences_route_identically() {
        let lines: Vec<String> = (0..500)
            .map(|i| format!("op{} payload {}", i % 17, i))
            .collect();
        let mut a = BalancedRouter::new(8);
        let mut b = BalancedRouter::new(8);
        for line in &lines {
            assert_eq!(a.route(line), b.route(line));
        }
    }

    /// A letter-only key (digit-bearing first tokens all collapse onto
    /// the shared `<*>` key, which would make "distinct cold keys" a lie).
    fn word_key(i: u64) -> String {
        let a = (b'a' + (i % 26) as u8) as char;
        let b = (b'a' + (i / 26 % 26) as u8) as char;
        format!("{a}{b}")
    }

    #[test]
    fn hot_key_splits_and_balance_recovers() {
        // One key carries half the stream: a sticky router is capped at
        // balance 2/n; splitting must do much better.
        let mut r = BalancedRouter::new(8);
        for i in 0..40_000u64 {
            if i % 2 == 0 {
                r.route("hotkey payload line");
            } else {
                r.route(&format!("{} payload line", word_key(i % 31)));
            }
        }
        assert!(r.split_key_count() >= 1, "the hot key must split");
        let max = *r.loads().iter().max().unwrap() as f64;
        let balance = (r.total() as f64 / 8.0) / max;
        assert!(
            balance > 0.7,
            "balance {balance:.2} with loads {:?}",
            r.loads()
        );
    }

    #[test]
    fn cold_keys_never_split() {
        let mut r = BalancedRouter::new(4);
        for i in 0..200u64 {
            r.route(&format!("{} x", word_key(i % 40)));
        }
        assert_eq!(
            r.split_key_count(),
            0,
            "5 lines/key is far below fair share"
        );
        assert_eq!(r.key_count(), 40);
    }

    #[test]
    fn single_shard_short_circuits() {
        let mut r = BalancedRouter::new(1);
        for _ in 0..100 {
            assert_eq!(r.route("anything at all"), 0);
        }
        assert_eq!(r.loads(), &[100]);
    }

    #[test]
    fn digit_bearing_first_tokens_share_a_key() {
        assert_eq!(
            BalancedRouter::key_hash("1234 items queued"),
            BalancedRouter::key_hash("98 items queued")
        );
        assert_ne!(
            BalancedRouter::key_hash("alpha items"),
            BalancedRouter::key_hash("beta items")
        );
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        BalancedRouter::new(0);
    }

    #[test]
    fn export_import_resumes_identically() {
        // Route a warm-up prefix with some hot keys, snapshot, and check
        // the restored router is indistinguishable from the original on
        // the continuation — placement, splits, loads, the lot.
        let mut original = BalancedRouter::new(8);
        for i in 0..2_000u64 {
            let key = if i % 3 == 0 {
                "hot".into()
            } else {
                word_key(i)
            };
            original.route(&format!("{key} payload {i}"));
        }
        let bytes = original.export_state();
        let mut restored =
            BalancedRouter::import_state(BalancedRouterConfig::new(8), &bytes).unwrap();
        assert_eq!(restored.loads(), original.loads());
        assert_eq!(restored.total(), original.total());
        assert_eq!(restored.key_count(), original.key_count());
        assert_eq!(restored.split_key_count(), original.split_key_count());
        for i in 2_000..3_000u64 {
            let key = if i % 3 == 0 {
                "hot".into()
            } else {
                word_key(i)
            };
            let line = format!("{key} payload {i}");
            assert_eq!(
                original.route_detailed(&line),
                restored.route_detailed(&line),
                "divergence at line {i}"
            );
        }
        // Determinism of the encoding itself.
        assert_eq!(original.export_state(), restored.export_state());
    }

    #[test]
    fn import_rejects_corrupt_state() {
        let mut r = BalancedRouter::new(4);
        for i in 0..200u64 {
            r.route(&format!("{} x {i}", word_key(i)));
        }
        let bytes = r.export_state();
        let config = BalancedRouterConfig::new(4);
        // Shard-count mismatch is a typed error, not a bad router.
        assert!(BalancedRouter::import_state(BalancedRouterConfig::new(8), &bytes).is_err());
        // Truncations never panic.
        for cut in 0..bytes.len() {
            assert!(
                BalancedRouter::import_state(config, &bytes[..cut]).is_err(),
                "prefix of {cut} bytes imported"
            );
        }
    }
}
