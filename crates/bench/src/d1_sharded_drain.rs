//! Experiment D1 (paper Section IV, planned contribution): the distributed
//! tree-based parser.
//!
//! "Drain method, which shows the best performances, is not distributable.
//! We plan to provide a distributed version of research tree-based log
//! parsing method as we already have some encouraging results."
//!
//! Sweep shard count 1–16 over the cloud corpus, measuring: parsing
//! agreement with plain Drain (grouping accuracy against ground truth),
//! shard load balance, and the modeled parallel speedup. Every column is a
//! deterministic function of the corpus, so the table is byte-stable.

use crate::{template_ids, truth_ids, Table};
use monilog_core::parse::eval::grouping_accuracy;
use monilog_core::parse::{Drain, DrainConfig, OnlineParser, ShardedDrain, ShardedDrainConfig};
use monilog_loggen::corpus;
use std::fmt;

pub struct D1 {
    pub lines: usize,
    pub true_templates: usize,
    /// Plain single-tree Drain's grouping accuracy, the baseline.
    pub plain: f64,
    /// Per shard count: grouping accuracy, load balance (mean shard load
    /// over the busiest shard's) and modeled speedup.
    ///
    /// The speedup models a perfect deployment, whose wall-clock is the
    /// *critical path* — the busiest shard — plus the (parallelizable)
    /// routing: the lines each shard really parses, `total / max_shard`.
    /// The deployed form is the router + monitor fleet (`stream::cluster`),
    /// one Drain per process, so the critical path is what bounds it; see
    /// DESIGN.md §3 (hardware substitution).
    pub rows: Vec<(usize, f64, f64, f64)>,
}

pub fn run() -> D1 {
    let corpus = corpus::cloud_mixed(400, 801);
    let messages: Vec<&str> = corpus.messages().collect();
    let truth = truth_ids(&corpus);
    let plain = Drain::new(DrainConfig::default()).parse_all(&messages);
    let plain = grouping_accuracy(&template_ids(&plain), &truth);
    let rows = [1, 2, 4, 8, 16].map(|n_shards| {
        let drain = DrainConfig::default();
        let mut sharded = ShardedDrain::new(ShardedDrainConfig { n_shards, drain });
        let ga = grouping_accuracy(&template_ids(&sharded.parse_all(&messages)), &truth);
        let loads = sharded.shard_loads();
        let max_load = loads.iter().copied().max().expect("shards exist").max(1) as f64;
        let balance = (messages.len() as f64 / n_shards as f64) / max_load;
        (n_shards, ga, balance, loads.iter().sum::<u64>() as f64 / max_load)
    });
    D1 {
        lines: messages.len(),
        true_templates: corpus.truth_template_count(),
        plain,
        rows: rows.to_vec(),
    }
}

impl fmt::Display for D1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new("shards|grouping acc|load balance|modeled speedup".split('|'));
        for &(shards, ga, balance, speedup) in &self.rows {
            let row = table.row().cell(shards).pct(ga);
            row.cell(format_args!("{balance:.2}")).cell(format_args!("{speedup:.2}x"));
        }
        writeln!(
            f,
            "# D1 — sharded (distributed) Drain: accuracy and scaling\n\n\
             corpus: {} lines, {} true templates\n\n\
             plain Drain: GA {:.1}%\n\n{table}\n\
             Shape check: accuracy stays at the plain-Drain level for every shard\n\
             count (routing is template-stable). The modeled speedup — total lines\n\
             over the busiest shard's lines, i.e. the measured critical path —\n\
             grows with shards until routing-key skew caps it.",
            self.lines,
            self.true_templates,
            self.plain * 100.0
        )
    }
}
