//! Deep-learning detection approaches (Section III): DeepLog, LogAnomaly
//! and LogRobust, built on the `monilog-nn` substrate.

pub mod deeplog;
pub mod loganomaly;
pub mod logrobust;

use monilog_model::affinity::pin_current_thread;
use std::ops::Range;
use std::sync::OnceLock;

/// Fewest rows of a batched forward pass worth a thread of their own:
/// ~0.8 ms of LSTM work at DeepLog's serving shape (26 µs a row), against
/// the 100–150 µs a split pass pays to spawn, pin and join its threads. At
/// two floors a pass still gains 1.3–1.4× on two cores
/// (`deeplog_infer/batched_cold_par` and `spawn_join` in
/// `results/BENCH_hotpath.json`); at half this floor it gained nothing.
pub(crate) const ROW_FLOOR: usize = 32;

/// Cores this process may run on, read once.
pub(crate) fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Chunks to cut `rows` into for `workers` cores: one per core as long as
/// each holds [`ROW_FLOOR`] rows, else fewer, down to one.
pub(crate) fn chunks(rows: usize, workers: usize) -> usize {
    workers.min(rows / ROW_FLOOR).max(1)
}

#[cfg(test)]
thread_local! {
    /// Threads [`fan_out`] spawned on behalf of this thread.
    pub(crate) static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `run` over `0..rows` cut into `chunks` contiguous ranges, results
/// concatenated in row order. One chunk runs on the caller, on `scratch`,
/// and spawns nothing. More run on one scoped thread each, every thread
/// pinned to a core of its own and given a fresh scratch, while the caller
/// waits: left unpinned, a thread this short-lived runs where its parent
/// does on hosts whose scheduler balances only periodically, and the pass
/// gains nothing (DESIGN.md, "row-parallel forward"). `run` must compute
/// each row from that row alone: the cut then decides which core computes
/// a row, never its value. A panic in any chunk is the caller's panic.
pub(crate) fn fan_out<S: Default, T: Send>(
    rows: usize,
    chunks: usize,
    scratch: &mut S,
    run: impl Fn(Range<usize>, &mut S) -> Vec<T> + Sync,
) -> Vec<T> {
    if chunks == 1 {
        return run(0..rows, scratch);
    }
    let cut = move |chunk: usize| chunk * rows / chunks;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..chunks)
            .map(|chunk| {
                let run = &run;
                #[cfg(test)]
                SPAWNED.with(|n| n.set(n.get() + 1));
                scope.spawn(move || {
                    pin_current_thread(chunk);
                    // Siblings still queued on the core this thread began on
                    // can only pin themselves away once they run: let them,
                    // before this chunk occupies the core.
                    for _ in 1..chunks {
                        std::thread::yield_now();
                    }
                    run(cut(chunk)..cut(chunk + 1), &mut S::default())
                })
            })
            .collect();
        let mut out = Vec::with_capacity(rows);
        for worker in spawned {
            out.extend(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_grant_a_core_per_floor_of_rows() {
        assert_eq!(chunks(0, 4), 1);
        assert_eq!(chunks(2 * ROW_FLOOR - 1, 4), 1);
        assert_eq!(chunks(2 * ROW_FLOOR, 4), 2);
        assert_eq!(chunks(3 * ROW_FLOOR + 5, 4), 3);
        assert_eq!(chunks(100 * ROW_FLOOR, 4), 4);
        assert_eq!(chunks(100 * ROW_FLOOR, 1), 1);
    }

    #[test]
    fn fan_out_tiles_the_rows_in_order() {
        for rows in [0, 1, 63, 64, 65, 257, 4097] {
            for workers in [1, 2, 3, 5, 64] {
                let n = chunks(rows, workers);
                let before = SPAWNED.with(|s| s.get());
                let ranges = fan_out(rows, n, &mut (), |range, _| vec![range]);
                let threads = if n == 1 { 0 } else { n };
                assert_eq!(SPAWNED.with(|s| s.get()) - before, threads);
                assert_eq!(ranges.len(), n);
                assert!(n == 1 || ranges.iter().all(|r| r.len() >= ROW_FLOOR));
                let tiled: Vec<usize> = ranges.into_iter().flatten().collect();
                assert!(
                    tiled.into_iter().eq(0..rows),
                    "{rows} rows, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn one_chunk_runs_on_the_callers_scratch_and_workers_bring_their_own() {
        let mut mine = 7usize;
        let bump = |range: Range<usize>, scratch: &mut usize| {
            *scratch += 1;
            vec![(range.start, *scratch)]
        };
        assert_eq!(fan_out(64, 1, &mut mine, bump), [(0, 8)]);
        assert_eq!(mine, 8);
        let seen = fan_out(64, 4, &mut mine, bump);
        assert_eq!(seen, [(0, 1), (16, 1), (32, 1), (48, 1)]);
        assert_eq!(mine, 8);
    }

    /// Scope semantics: the caller neither hangs nor returns a short list.
    #[test]
    #[should_panic(expected = "row 40 is broken")]
    fn a_worker_panic_is_the_callers_panic() {
        fan_out(64, 2, &mut (), |range, _| {
            assert!(!range.contains(&40), "row 40 is broken");
            range.collect()
        });
    }
}

/// Parsed corpora for the tape-vs-batched differential tests of the
/// sequence detectors.
#[cfg(test)]
pub(crate) mod testdata {
    use crate::api::{TrainSet, Window};
    use crate::window::{session_windows, tumbling_windows};
    use monilog_loggen::{
        CloudWorkload, CloudWorkloadConfig, GenLog, HdfsWorkload, HdfsWorkloadConfig,
        InstabilityConfig, InstabilityInjector,
    };
    use monilog_model::TemplateStore;
    use monilog_parse::{Drain, DrainConfig, OnlineParser};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The probes' events joined and re-cut into a few 200-event windows:
    /// the short probes never carry enough rows for a pass to be split
    /// across workers.
    pub(crate) fn long_windows(probes: &[Window]) -> Vec<Window> {
        let joined: Vec<u32> = probes.iter().flat_map(|w| w.sequence.clone()).collect();
        let long = joined.chunks(200).step_by(5);
        long.map(|ids| Window::from_ids(ids.to_vec())).collect()
    }

    /// A training set over HDFS sessions plus tumbling multi-source cloud
    /// windows, probe windows that stress the inference path, and the
    /// parser's final template store (templates the training set never saw
    /// included). Probes: anomalous HDFS sessions, instability-evolved
    /// cloud windows, event-shuffled copies of both, windows shorter than
    /// `history` (all-PAD histories, early EOS), and ids no model
    /// vocabulary has (UNK).
    pub(crate) fn corpus(history: usize) -> (TrainSet, Vec<Window>, TemplateStore) {
        fn sessions(parser: &mut Drain, logs: &[GenLog]) -> Vec<Window> {
            let events = logs.iter().map(|log| {
                let id = parser.parse(&log.record.message).template.0;
                (log.truth.session.clone().expect("session"), id, Vec::new())
            });
            session_windows(events)
                .into_iter()
                .map(|(_, w)| w)
                .collect()
        }
        fn tumbling(parser: &mut Drain, logs: &[GenLog]) -> Vec<Window> {
            let ids: Vec<u32> = logs
                .iter()
                .map(|log| parser.parse(&log.record.message).template.0)
                .collect();
            tumbling_windows(&ids, &vec![Vec::new(); ids.len()], 24)
        }
        let hdfs = |n_sessions, rate, seed| {
            HdfsWorkload::new(HdfsWorkloadConfig {
                n_sessions,
                sequential_anomaly_rate: rate,
                quantitative_anomaly_rate: 0.0,
                seed,
                ..Default::default()
            })
            .generate()
        };
        let cloud = |walks_per_source, seed| {
            CloudWorkload::new(CloudWorkloadConfig {
                n_sources: 4,
                walks_per_source,
                json_tail: false,
                seed,
                ..CloudWorkloadConfig::default()
            })
            .generate()
        };

        let mut parser = Drain::new(DrainConfig::default());
        let mut train = sessions(&mut parser, &hdfs(60, 0.0, 41));
        train.extend(tumbling(&mut parser, &cloud(25, 43)));
        let train = TrainSet::unlabeled(train).with_templates(parser.store().clone());

        let mut probes = sessions(&mut parser, &hdfs(25, 0.3, 42));
        let evolved =
            InstabilityInjector::new(InstabilityConfig::all_kinds(0.2, 45)).apply(&cloud(6, 44));
        probes.extend(tumbling(&mut parser, &evolved));
        let mut rng = StdRng::seed_from_u64(46);
        let shuffled: Vec<Window> = probes
            .iter()
            .step_by(3)
            .map(|w| {
                let mut ids = w.sequence.clone();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.random_range(0..=i));
                }
                Window::from_ids(ids)
            })
            .collect();
        probes.extend(shuffled);
        let unseen = parser.store().len() as u32 + 7;
        for len in 1..history + 2 {
            let ids: Vec<u32> = (0..len as u32).map(|k| (k * 5 + len as u32) % 9).collect();
            probes.push(Window::from_ids(ids.clone()));
            probes.push(Window::from_ids(
                ids.iter().map(|&id| id + (id % 2) * unseen).collect(),
            ));
        }
        (train, probes, parser.store().clone())
    }
}
