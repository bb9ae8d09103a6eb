//! Stream reordering and deduplication.
//!
//! "The spatial distance between log sources and the different storage
//! systems is variable. This configuration induces noise, as logs can
//! arrive in mixed order or sometimes be duplicated." (Section I)
//!
//! [`BoundedReorderBuffer`] restores timestamp order for any input whose
//! disorder is bounded by `max_disorder_ms`: an item is released once the
//! watermark (max timestamp seen − bound) passes it. [`DedupFilter`]
//! suppresses transport duplicates by `(source, seq)` with a bounded
//! memory window.

use monilog_model::{SourceId, Timestamp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// Watermark-based reorder buffer over items carrying a timestamp.
#[derive(Debug)]
pub struct BoundedReorderBuffer<T> {
    bound_ms: u64,
    heap: BinaryHeap<Reverse<(Timestamp, u64, HeapItem<T>)>>,
    max_seen: Timestamp,
    tie: u64,
}

/// Wrapper so T doesn't need Ord; comparison never reaches the payload
/// because the `tie` counter is unique.
#[derive(Debug)]
struct HeapItem<T>(T);

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> BoundedReorderBuffer<T> {
    /// A buffer absorbing at most `bound_ms` of disorder.
    pub fn new(bound_ms: u64) -> Self {
        BoundedReorderBuffer {
            bound_ms,
            heap: BinaryHeap::new(),
            max_seen: Timestamp::EPOCH,
            tie: 0,
        }
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Push an item; returns every item whose release the new watermark
    /// allows, in timestamp order. Release is inclusive of the watermark:
    /// an item timestamped exactly `max_seen - bound` has fully elapsed
    /// the disorder bound, so it is released rather than held for the next
    /// watermark advance. (An equal-timestamp straggler arriving later is
    /// still emitted — output stays non-strictly sorted.)
    pub fn push(&mut self, ts: Timestamp, item: T) -> Vec<(Timestamp, T)> {
        let mut out = Vec::new();
        self.push_into(ts, item, &mut out);
        out
    }

    /// Allocation-free [`BoundedReorderBuffer::push`]: releases are
    /// appended to a caller-owned buffer, so the per-line release vector
    /// can be recycled by a streaming caller. `out` is not cleared.
    pub fn push_into(&mut self, ts: Timestamp, item: T, out: &mut Vec<(Timestamp, T)>) {
        self.max_seen = self.max_seen.max(ts);
        self.heap.push(Reverse((ts, self.tie, HeapItem(item))));
        self.tie += 1;
        let watermark =
            Timestamp::from_millis(self.max_seen.as_millis().saturating_sub(self.bound_ms));
        while let Some(Reverse((t, _, _))) = self.heap.peek() {
            if *t > watermark {
                break;
            }
            let Reverse((t, _, HeapItem(v))) = self.heap.pop().expect("peeked");
            out.push((t, v));
        }
    }

    /// Drain everything left (end of stream), in timestamp order.
    pub fn flush(&mut self) -> Vec<(Timestamp, T)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(Reverse((t, _, HeapItem(v)))) = self.heap.pop() {
            out.push((t, v));
        }
        out
    }

    /// The watermark anchor: the highest timestamp pushed so far.
    pub fn max_seen(&self) -> Timestamp {
        self.max_seen
    }

    /// Drop buffered items failing the predicate — the purge path when a
    /// cluster source is revoked mid-stream. The watermark anchor is
    /// untouched: revocation must not un-release anything.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let items = std::mem::take(&mut self.heap).into_vec();
        self.heap = items
            .into_iter()
            .filter(|Reverse((_, _, HeapItem(v)))| keep(v))
            .collect();
    }

    /// Rebuild a buffer from a [`BoundedReorderBuffer::snapshot`]: items
    /// are re-inserted (in the given order, which preserves arrival
    /// tie-breaks) without triggering any release, and the watermark
    /// anchor is restored so the first post-restore push behaves exactly
    /// as it would have in the original instance.
    pub fn restore(bound_ms: u64, items: Vec<(Timestamp, T)>, max_seen: Timestamp) -> Self {
        let mut b = Self::new(bound_ms);
        b.max_seen = max_seen;
        for (t, v) in items {
            b.heap.push(Reverse((t, b.tie, HeapItem(v))));
            b.tie += 1;
        }
        b
    }
}

impl<T: Clone> BoundedReorderBuffer<T> {
    /// Non-destructive snapshot of the buffered items in release order
    /// (timestamp, then arrival) — the durable checkpoint's view of
    /// in-flight records. Pair with [`BoundedReorderBuffer::max_seen`].
    pub fn snapshot(&self) -> Vec<(Timestamp, T)> {
        let mut items: Vec<(Timestamp, u64, T)> = self
            .heap
            .iter()
            .map(|Reverse((t, tie, HeapItem(v)))| (*t, *tie, v.clone()))
            .collect();
        items.sort_by_key(|&(t, tie, _)| (t, tie));
        items.into_iter().map(|(t, _, v)| (t, v)).collect()
    }
}

/// Multiply-xor hasher for the dedup key set. The keys are fixed-width
/// `(SourceId, u64)` pairs from trusted transport metadata, not
/// attacker-chosen strings, so SipHash's flooding resistance buys nothing
/// on this per-line probe.
#[derive(Debug, Default, Clone)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type KeyBuild = std::hash::BuildHasherDefault<KeyHasher>;

/// Sliding-window duplicate suppression by `(source, seq)`.
#[derive(Debug)]
pub struct DedupFilter {
    window: usize,
    seen: HashSet<(SourceId, u64), KeyBuild>,
    order: VecDeque<(SourceId, u64)>,
}

impl DedupFilter {
    /// Remembers the last `window` keys.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        DedupFilter {
            window,
            seen: HashSet::default(),
            order: VecDeque::new(),
        }
    }

    /// The remembered keys in insertion order — the durable checkpoint's
    /// view of the dedup window.
    pub fn keys(&self) -> impl Iterator<Item = (SourceId, u64)> + '_ {
        self.order.iter().copied()
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Rebuild a filter from [`DedupFilter::keys`] output (in the same
    /// order, so eviction resumes identically).
    pub fn restore(window: usize, keys: impl IntoIterator<Item = (SourceId, u64)>) -> Self {
        let mut d = Self::new(window);
        for (source, seq) in keys {
            d.admit(source, seq);
        }
        d
    }

    /// Returns `true` the first time a key is seen (keep the item),
    /// `false` for duplicates within the window.
    pub fn admit(&mut self, source: SourceId, seq: u64) -> bool {
        let key = (source, seq);
        if !self.seen.insert(key) {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > self.window {
            let evicted = self.order.pop_front().expect("non-empty");
            self.seen.remove(&evicted);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(buffer: &mut BoundedReorderBuffer<u32>, items: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for &(ts, v) in items {
            out.extend(
                buffer
                    .push(Timestamp::from_millis(ts), v)
                    .into_iter()
                    .map(|(t, v)| (t.as_millis(), v)),
            );
        }
        out.extend(buffer.flush().into_iter().map(|(t, v)| (t.as_millis(), v)));
        out
    }

    #[test]
    fn restores_order_within_bound() {
        let mut b = BoundedReorderBuffer::new(100);
        let scrambled = [
            (50u64, 1u32),
            (10, 0),
            (120, 3),
            (80, 2),
            (300, 5),
            (250, 4),
        ];
        let out = drain_all(&mut b, &scrambled);
        let times: Vec<u64> = out.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10, 50, 80, 120, 250, 300]);
        assert_eq!(
            out.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn releases_lazily_by_watermark() {
        let mut b = BoundedReorderBuffer::new(100);
        assert!(b.push(Timestamp::from_millis(1_000), 'a').is_empty());
        assert!(
            b.push(Timestamp::from_millis(1_050), 'b').is_empty(),
            "within bound: hold"
        );
        let released = b.push(Timestamp::from_millis(1_200), 'c');
        // watermark = 1100: releases 1000 and 1050.
        assert_eq!(released.len(), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn equal_timestamps_preserve_arrival_order() {
        let mut b = BoundedReorderBuffer::new(10);
        b.push(Timestamp::from_millis(5), "first");
        b.push(Timestamp::from_millis(5), "second");
        let out = b.flush();
        assert_eq!(out[0].1, "first");
        assert_eq!(out[1].1, "second");
    }

    #[test]
    fn zero_bound_is_passthrough_in_order() {
        // With a zero disorder bound, an item is at the watermark the
        // moment it arrives: release is immediate.
        let mut b = BoundedReorderBuffer::new(0);
        let out = b.push(Timestamp::from_millis(10), 1);
        assert_eq!(out.len(), 1, "zero bound releases immediately");
        let out = b.push(Timestamp::from_millis(11), 2);
        assert_eq!(out.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn releases_item_exactly_at_watermark() {
        // Regression: an item timestamped exactly `max_seen - bound` used
        // to be held until the *next* watermark advance even though the
        // bound had fully elapsed.
        let mut b = BoundedReorderBuffer::new(100);
        assert!(b.push(Timestamp::from_millis(1_000), 'a').is_empty());
        let released = b.push(Timestamp::from_millis(1_100), 'b');
        // watermark = 1000: 'a' has elapsed the full bound — release it.
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0.as_millis(), 1_000);
        assert_eq!(b.len(), 1, "'b' itself is above the watermark");
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Fill two buffers identically, snapshot/restore one, and check
        // the pair stays line-for-line identical on a continuation that
        // exercises held items, watermark releases, and ties.
        let feed = [(1_000u64, 'a'), (1_050, 'b'), (1_020, 'c'), (1_050, 'd')];
        let mut original = BoundedReorderBuffer::new(100);
        let mut shadow = BoundedReorderBuffer::new(100);
        for &(ts, v) in &feed {
            original.push(Timestamp::from_millis(ts), v);
            shadow.push(Timestamp::from_millis(ts), v);
        }
        let items = original.snapshot();
        assert_eq!(items.len(), original.len());
        let mut restored = BoundedReorderBuffer::restore(100, items, original.max_seen());
        assert_eq!(restored.len(), shadow.len());
        assert_eq!(restored.max_seen(), shadow.max_seen());
        for &(ts, v) in &[(1_120u64, 'e'), (1_050, 'f'), (1_400, 'g')] {
            assert_eq!(
                restored.push(Timestamp::from_millis(ts), v),
                shadow.push(Timestamp::from_millis(ts), v),
                "divergence at ts {ts}"
            );
        }
        assert_eq!(restored.flush(), shadow.flush());
    }

    #[test]
    fn dedup_restore_preserves_window_and_order() {
        let mut original = DedupFilter::new(3);
        for seq in [1u64, 2, 3, 4] {
            original.admit(SourceId(0), seq);
        }
        let keys: Vec<_> = original.keys().collect();
        assert_eq!(keys.len(), 3, "window caps remembered keys");
        let mut restored = DedupFilter::restore(original.window(), keys);
        // Same memory: 2..4 are duplicates, evicted 1 admits again, and
        // eviction order continues from the restored state.
        assert!(restored.admit(SourceId(0), 1));
        assert!(!restored.admit(SourceId(0), 4));
        assert!(!original.admit(SourceId(0), 4), "original agrees");
    }

    #[test]
    fn dedup_suppresses_duplicates() {
        let mut d = DedupFilter::new(100);
        assert!(d.admit(SourceId(0), 1));
        assert!(!d.admit(SourceId(0), 1));
        assert!(d.admit(SourceId(1), 1), "same seq, different source");
        assert!(d.admit(SourceId(0), 2));
    }

    #[test]
    fn dedup_window_evicts_old_keys() {
        let mut d = DedupFilter::new(2);
        assert!(d.admit(SourceId(0), 1));
        assert!(d.admit(SourceId(0), 2));
        assert!(d.admit(SourceId(0), 3)); // evicts key 1
        assert!(d.admit(SourceId(0), 1), "evicted key admitted again");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any input whose disorder is bounded by `bound`, the output
        /// is perfectly sorted and complete.
        #[test]
        fn sorts_any_bounded_disorder(base in proptest::collection::vec(0u64..10_000, 1..200),
                                      bound in 1u64..500) {
            // Build a bounded-disorder arrival sequence: sort, then jitter
            // each timestamp's *arrival position* within the bound.
            let mut emitted: Vec<u64> = base.clone();
            emitted.sort_unstable();
            let mut arrivals: Vec<(u64, u64)> = emitted
                .iter()
                .enumerate()
                .map(|(i, &t)| (t + (i as u64 * 7919) % bound, t))
                .collect();
            arrivals.sort_by_key(|(arrival, _)| *arrival);

            let mut buffer = BoundedReorderBuffer::new(bound);
            let mut out = Vec::new();
            for (_, emitted_ts) in &arrivals {
                out.extend(buffer.push(Timestamp::from_millis(*emitted_ts), ()));
            }
            out.extend(buffer.flush());
            prop_assert_eq!(out.len(), base.len(), "items lost or duplicated");
            for w in out.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "output out of order");
            }
        }

        /// Dedup + reorder as a noisy-transport front end: arrivals that
        /// are duplicated, displaced by up to *exactly* the bound, and
        /// replayed in a burst (transport reconnect) come out exactly-once
        /// and sorted. This is the Section I noise model end to end.
        #[test]
        fn exactly_once_in_order_under_transport_noise(
            n in 2usize..120,
            bound in 1u64..100,
            dup_every in 2usize..8,
            replay_len in 1usize..16,
        ) {
            // Ground truth: one event per seq, 1 ms apart. Arrival key
            // displaces each event by (seq*7919) mod (bound+1) — the
            // modulus is inclusive of `bound`, so some events land on the
            // exact edge of what the buffer guarantees to absorb.
            let mut arrivals: Vec<(u64, u64)> = (0..n as u64)
                .map(|seq| (seq + (seq * 7919) % (bound + 1), seq))
                .collect();
            // Transport duplication of every dup_every-th event...
            let dups: Vec<(u64, u64)> = arrivals
                .iter()
                .filter(|(_, seq)| (*seq as usize).is_multiple_of(dup_every))
                .copied()
                .collect();
            arrivals.extend(dups);
            // ...plus a reconnect that replays the most recent burst.
            let replay: Vec<(u64, u64)> =
                arrivals[arrivals.len().saturating_sub(replay_len)..].to_vec();
            arrivals.extend(replay);
            arrivals.sort_by_key(|&(arrival, seq)| (arrival, seq));

            let mut dedup = DedupFilter::new(n);
            let mut buffer = BoundedReorderBuffer::new(bound);
            let mut out: Vec<u64> = Vec::new();
            for &(_, seq) in &arrivals {
                if !dedup.admit(SourceId(0), seq) {
                    continue;
                }
                out.extend(
                    buffer
                        .push(Timestamp::from_millis(seq), seq)
                        .into_iter()
                        .map(|(t, _)| t.as_millis()),
                );
            }
            out.extend(buffer.flush().into_iter().map(|(t, _)| t.as_millis()));
            prop_assert_eq!(out.len(), n, "each event exactly once");
            for w in out.windows(2) {
                prop_assert!(w[0] <= w[1], "output out of order");
            }
        }

        /// Exact-boundary displacement: every event arrives displaced by
        /// *exactly* the bound (the worst case the buffer guarantees to
        /// absorb), and release at the watermark edge must still produce
        /// complete, sorted output.
        #[test]
        fn sorts_exact_boundary_displacement(
            n in 2usize..150,
            bound in 1u64..200,
        ) {
            // Events emitted 1 ms apart; each odd event arrives exactly
            // `bound` late, interleaving maximal disorder at the edge.
            let mut arrivals: Vec<(u64, u64)> = (0..n as u64)
                .map(|seq| {
                    let displacement = if seq % 2 == 1 { bound } else { 0 };
                    (seq + displacement, seq)
                })
                .collect();
            arrivals.sort_by_key(|&(arrival, seq)| (arrival, seq));

            let mut buffer = BoundedReorderBuffer::new(bound);
            let mut out: Vec<u64> = Vec::new();
            for &(_, seq) in &arrivals {
                out.extend(
                    buffer
                        .push(Timestamp::from_millis(seq), seq)
                        .into_iter()
                        .map(|(t, _)| t.as_millis()),
                );
            }
            out.extend(buffer.flush().into_iter().map(|(t, _)| t.as_millis()));
            prop_assert_eq!(out.len(), n, "items lost or duplicated");
            for w in out.windows(2) {
                prop_assert!(w[0] <= w[1], "output out of order at the boundary");
            }
        }

        /// DedupFilter with a large-enough window is an exact first-seen
        /// filter, whatever the key stream looks like.
        #[test]
        fn dedup_matches_first_seen_semantics(
            keys in proptest::collection::vec((0u16..4, 0u64..50), 1..300),
        ) {
            let mut dedup = DedupFilter::new(10_000);
            let mut seen = std::collections::HashSet::new();
            for (src, seq) in keys {
                let fresh = seen.insert((src, seq));
                prop_assert_eq!(dedup.admit(SourceId(src), seq), fresh);
            }
        }
    }
}
