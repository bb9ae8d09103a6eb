//! A plain sharded parse service: a router thread using [`BalancedRouter`]
//! (so the benchmark's `shard_skew` measures D1's assignment), one Drain
//! worker per shard minting ids in `shard * SHARD_ID_STRIDE + local`, and
//! three queues bounded by [`SupervisorConfig::capacity`].
//!
//! The `monilog` binary never runs it: it parses inline in the `MoniLog`
//! facade, and the fleet distributes Drain across processes
//! (`crate::cluster`). The service exists only for the benchmark's
//! `service.submit_recv.*` ledger rows and goes with them (ROADMAP item
//! 1(e)).

use crate::config::ConfigError;
use crossbeam::channel::{bounded, Receiver, Sender};
use monilog_model::{ByteLine, TemplateId};
use monilog_parse::{BalancedRouter, Drain, DrainConfig, OnlineParser, ParseOutcome};
use std::thread::JoinHandle;

type Item = (u64, ByteLine);

/// A parsed item: the tag plus the outcome, with the shard index so
/// callers can interpret template ids (`shard * STRIDE + local`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedItem {
    pub seq: u64,
    pub shard: usize,
    pub outcome: ParseOutcome,
}

/// Stride separating each shard's template-id space in [`ParsedItem`].
pub const SHARD_ID_STRIDE: u32 = 1 << 20;

/// Shape of a parse service.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Number of Drain workers (template-id namespaces).
    pub n_shards: usize,
    /// Bound of every internal queue: batches on the input queue, lines
    /// on the shard and output queues.
    pub capacity: usize,
    pub drain: DrainConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            n_shards: 4,
            capacity: 256,
            drain: DrainConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service shut down (its router is gone).
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("service stopped")
    }
}

impl std::error::Error for SubmitError {}

/// Handle to a running parse service.
pub struct SupervisedParseService {
    input: Option<Sender<Vec<Item>>>,
    output: Receiver<ParsedItem>,
    threads: Vec<JoinHandle<()>>,
}

impl SupervisedParseService {
    /// Start the router and one Drain worker per shard.
    pub fn spawn(config: SupervisorConfig) -> Result<Self, ConfigError> {
        if config.n_shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if config.capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        let n = config.n_shards;
        let (input_tx, input_rx) = bounded::<Vec<Item>>(config.capacity);
        let (output_tx, output_rx) = bounded::<ParsedItem>(config.capacity);
        let mut shard_txs = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n + 1);
        for shard in 0..n {
            let (tx, rx) = bounded::<Item>(config.capacity);
            shard_txs.push(tx);
            let (out, drain) = (output_tx.clone(), config.drain);
            threads.push(std::thread::spawn(move || {
                run_worker(shard, drain, rx, out)
            }));
        }
        threads.push(std::thread::spawn(move || {
            let mut router = BalancedRouter::new(n);
            for items in input_rx {
                for (seq, line) in items {
                    let shard = router.route(&line);
                    if shard_txs[shard].send((seq, line)).is_err() {
                        return;
                    }
                }
            }
            // Dropping shard_txs disconnects the shard queues: workers
            // drain what is left and exit.
        }));
        Ok(SupervisedParseService {
            input: Some(input_tx),
            output: output_rx,
            threads,
        })
    }

    /// Submit a chunk of lines as one batch: one channel transfer, one
    /// input-queue slot. Blocks while the input queue is full.
    pub fn submit_batch(&self, items: Vec<Item>) -> Result<(), SubmitError> {
        let tx = self.input.as_ref().ok_or(SubmitError::Stopped)?;
        tx.send(items).map_err(|_| SubmitError::Stopped)
    }

    /// Receive the next parsed item; `None` once the service is closed and
    /// fully drained.
    pub fn recv(&self) -> Option<ParsedItem> {
        self.output.recv().ok()
    }

    /// Close the input and drain; returns the parsed items not yet
    /// received. Dropping the handle then joins the (finished) threads.
    pub fn shutdown(mut self) -> Vec<ParsedItem> {
        self.input = None;
        self.output.iter().collect()
    }
}

impl Drop for SupervisedParseService {
    fn drop(&mut self) {
        self.input = None;
        // Drain until disconnect: a worker blocked on a full output queue
        // must be able to finish before the joins below.
        while self.output.recv().is_ok() {}
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn run_worker(shard: usize, drain: DrainConfig, rx: Receiver<Item>, out: Sender<ParsedItem>) {
    let mut parser = Drain::new(drain);
    for (seq, line) in rx {
        let mut outcome = parser.parse(&line);
        outcome.template = TemplateId(shard as u32 * SHARD_ID_STRIDE + outcome.template.0);
        if out
            .send(ParsedItem {
                seq,
                shard,
                outcome,
            })
            .is_err()
        {
            return; // consumer went away
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("op {} on node node{}", ["read", "write"][i % 2], i % 7))
            .collect()
    }

    fn spawn(n_shards: usize, capacity: usize) -> Result<SupervisedParseService, ConfigError> {
        SupervisedParseService::spawn(SupervisorConfig {
            n_shards,
            capacity,
            ..SupervisorConfig::default()
        })
    }

    /// Submit `input` as `batch`-line batches, seqs `0..input.len()`.
    fn submit(service: &SupervisedParseService, input: &[String], batch: usize) {
        for (b, chunk) in input.chunks(batch).enumerate() {
            let items = chunk
                .iter()
                .enumerate()
                .map(|(i, l)| ((b * batch + i) as u64, l.clone().into()))
                .collect();
            service.submit_batch(items).expect("submit");
        }
    }

    /// Every seq comes back once, from a shard in range, with a template
    /// id inside that shard's namespace.
    fn assert_complete(items: &[ParsedItem], n_lines: u64, n_shards: usize) {
        let seqs: BTreeSet<u64> = items.iter().map(|p| p.seq).collect();
        assert_eq!(items.len() as u64, n_lines, "no duplicates");
        assert_eq!(seqs, (0..n_lines).collect(), "every seq returned");
        for p in items {
            assert!(p.shard < n_shards);
            let base = p.shard as u32 * SHARD_ID_STRIDE;
            assert!((base..base + SHARD_ID_STRIDE).contains(&p.outcome.template.0));
        }
    }

    #[test]
    fn rejects_invalid_config() {
        assert_eq!(spawn(0, 256).err(), Some(ConfigError::ZeroShards));
        assert_eq!(spawn(4, 0).err(), Some(ConfigError::ZeroCapacity));
    }

    /// The benchmark's shape: a 1,024-line chunk submitted as 64-line
    /// batches before the first `recv`, so the default queues must buffer
    /// a whole chunk without deadlocking.
    #[test]
    fn fault_free_round_trip() {
        for n_shards in [1, 2] {
            let service = spawn(n_shards, SupervisorConfig::default().capacity).expect("spawn");
            submit(&service, &lines(1_024), 64);
            let received: Vec<ParsedItem> =
                (0..1_024).map(|_| service.recv().expect("item")).collect();
            assert_complete(&received, 1_024, n_shards);
            assert!(service.shutdown().is_empty());
        }
    }

    #[test]
    fn batched_submit_round_trips_and_accounts_batches() {
        let service = spawn(2, 32).expect("spawn");
        submit(&service, &lines(40), 9);
        // Nothing received yet: shutdown hands back every line of every
        // batch.
        assert_complete(&service.shutdown(), 40, 2);
    }

    #[test]
    fn drop_mid_stream_does_not_hang() {
        let service = spawn(2, 4).expect("spawn");
        submit(&service, &lines(8), 1);
        drop(service); // must join cleanly with items still queued
    }
}
