//! Distributed MoniLog: the router + monitor-fleet substrate.
//!
//! The paper positions MoniLog as a detector for infrastructures whose log
//! volume exceeds any single consumer (Section II: components "must be
//! distributable in order to ensure scalability"). This module is the
//! process-level answer: a lightweight **router** consistent-hash
//! partitions sources across N **monitor** processes — each already owning
//! its own write-ahead journal, checkpoints, delivery buffers and ops
//! surface — over a CRC-framed, versioned wire protocol ([`wire`]) riding
//! the existing epoll loop ([`crate::net`]).
//!
//! Robustness model, end to end:
//!
//! - **At-least-once over the wire.** Every line the router accepts is
//!   journaled and fsynced to its retention [`crate::durable::Journal`]
//!   (the monitors' WAL format, one segment series per source) *before*
//!   it is sent. A batch stays in flight until the owning monitor acks
//!   it — and a monitor acks only after its own journal fsync covers the
//!   batch.
//! - **Exactly-once end to end.** Batch entries carry per-source sequence
//!   numbers; a monitor drops any seq its write-ahead journal already
//!   holds, so replays and reconnect storms never double-ingest.
//! - **Failover.** Missed heartbeats mark a node dead. After a grace
//!   window with capped, jittered backoff (a restart gets a chance to
//!   rejoin cheaply), the dead node's sources are re-assigned to the
//!   survivors and **replayed in full from the retention journal** — the
//!   new owner rebuilds each source's windows from line one,
//!   deterministically reproducing the reports the dead node would have
//!   emitted.
//! - **Rejoin.** A restarted monitor re-handshakes over the control
//!   channel; the router replays from that node's acked high-water mark
//!   and hands it the fleet's merged template snapshot warm. Sources that
//!   were re-assigned while it was gone arrive as revocations, and the
//!   monitor discards any recovered half-windows for them.
//! - **Template reconciliation.** Monitors periodically ship their local
//!   template stores; the router merges them Logan-style ([`reconcile`])
//!   and broadcasts the fleet store, so node-local Drain trees converge
//!   instead of drifting.

pub mod link;
pub mod reconcile;
pub mod router;
pub mod wire;

use monilog_model::hash::{fnv1a, splitmix64};
use monilog_model::SourceId;

pub use link::{ClusterMailbox, LinkSnapshot, LinkState, RouterLinkConfig};
pub use reconcile::merge_template_store;
pub use router::{Router, RouterConfig, RouterError, RouterStats};
pub use wire::{
    encode_frame, BatchEntry, FrameReader, Message, WireError, CLUSTER_MAGIC,
    CLUSTER_PROTO_VERSION, MAX_WIRE_FRAME,
};

/// First [`SourceId`] the router hands out. Local sources on a monitor
/// (syslog 2/3, HTTP 4, tails 8..) stay below this, so a monitor can tell
/// router-owned sources apart — revocation and replay only ever apply to
/// ids at or above the base.
pub const ROUTER_SOURCE_BASE: u16 = 32;

/// True when `source` lives in the router-assigned id range.
pub fn is_router_source(source: SourceId) -> bool {
    source.0 >= ROUTER_SOURCE_BASE
}

/// Rendezvous (highest-random-weight) owner election: every node scores
/// the source independently and the highest score wins. Adding a node
/// steals only the sources it now wins; removing one moves only *its*
/// sources — exactly the minimal-disruption property consistent hashing
/// is for, without a ring to maintain.
///
/// Returns the index into `nodes` of the winner, or `None` when the node
/// list is empty.
pub fn rendezvous_owner(source: SourceId, nodes: &[String]) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            (
                splitmix64(
                    fnv1a(node.as_bytes()) ^ (source.0 as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                ),
                i,
            )
        })
        .max()
        .map(|(_, i)| i)
}

/// Capped exponential backoff with deterministic jitter: attempt 0 waits
/// `base_ms`, each retry doubles up to `cap_ms`, and up to half the delay
/// is jittered away by a hash of `(seed, attempt)` so a fleet of
/// reconnecting nodes does not stampede in lockstep. Deterministic on
/// purpose — the chaos tests replay exact schedules.
pub fn backoff_delay_ms(attempt: u32, base_ms: u64, cap_ms: u64, seed: u64) -> u64 {
    let exp = base_ms
        .saturating_mul(1u64 << attempt.min(16))
        .min(cap_ms.max(base_ms));
    let jitter_span = exp / 2;
    if jitter_span == 0 {
        return exp;
    }
    exp - splitmix64(seed ^ (attempt as u64) << 32 ^ 0x5EED) % jitter_span
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rendezvous_is_deterministic_and_total() {
        let ns = nodes(&["mon-a", "mon-b", "mon-c"]);
        for s in 0..200u16 {
            let a = rendezvous_owner(SourceId(s), &ns).unwrap();
            let b = rendezvous_owner(SourceId(s), &ns).unwrap();
            assert_eq!(a, b);
            assert!(a < ns.len());
        }
        assert_eq!(rendezvous_owner(SourceId(1), &[]), None);
    }

    /// Placement is part of the fleet's contract (a restarted router must
    /// hand every source back to the same node), so pin it: these tables
    /// were recorded before the node-name hash moved to `model::hash`.
    #[test]
    fn rendezvous_placement_is_pinned() {
        let place = |names: &[&str]| -> Vec<usize> {
            let ns = nodes(names);
            (ROUTER_SOURCE_BASE..ROUTER_SOURCE_BASE + 24)
                .map(|s| rendezvous_owner(SourceId(s), &ns).unwrap())
                .collect()
        };
        assert_eq!(
            place(&["mon-a", "mon-b", "mon-c"]),
            [2, 1, 0, 2, 2, 2, 2, 2, 1, 1, 2, 2, 2, 0, 2, 0, 2, 0, 2, 1, 0, 0, 0, 2]
        );
        assert_eq!(
            place(&["node-1", "node-2"]),
            [1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0]
        );
    }

    #[test]
    fn rendezvous_spreads_sources() {
        let ns = nodes(&["mon-a", "mon-b", "mon-c"]);
        let mut counts = [0usize; 3];
        for s in ROUTER_SOURCE_BASE..ROUTER_SOURCE_BASE + 300 {
            counts[rendezvous_owner(SourceId(s), &ns).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 40, "node {i} owns only {c}/300 sources");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_sources() {
        let full = nodes(&["mon-a", "mon-b", "mon-c"]);
        let survivors = nodes(&["mon-a", "mon-c"]);
        for s in 0..300u16 {
            let src = SourceId(s);
            let before = rendezvous_owner(src, &full).unwrap();
            let after = rendezvous_owner(src, &survivors).unwrap();
            if full[before] != "mon-b" {
                // Sources owned by a survivor must not move.
                assert_eq!(
                    survivors[after], full[before],
                    "source {s} moved needlessly"
                );
            }
        }
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_downward() {
        let base = 100;
        let cap = 2_000;
        let mut prev_max = 0;
        for attempt in 0..10 {
            let d = backoff_delay_ms(attempt, base, cap, 7);
            let exp = (base << attempt.min(16)).min(cap);
            assert!(d <= exp, "attempt {attempt}: {d} > {exp}");
            assert!(d > exp / 2, "attempt {attempt}: jitter took more than half");
            prev_max = prev_max.max(d);
        }
        assert!(prev_max <= cap);
        // Deterministic for a fixed seed, different across seeds (usually).
        assert_eq!(
            backoff_delay_ms(3, base, cap, 7),
            backoff_delay_ms(3, base, cap, 7)
        );
    }

    #[test]
    fn router_source_range_is_disjoint_from_local_sources() {
        use crate::sources::{HTTP_SOURCE, SYSLOG_TCP_SOURCE, SYSLOG_UDP_SOURCE, TAIL_SOURCE_BASE};
        for local in [SYSLOG_TCP_SOURCE, SYSLOG_UDP_SOURCE, HTTP_SOURCE] {
            assert!(!is_router_source(local));
        }
        // A generous tail fan-out still stays below the router base.
        assert!(!is_router_source(SourceId(TAIL_SOURCE_BASE + 23)));
        assert!(is_router_source(SourceId(ROUTER_SOURCE_BASE)));
    }
}
