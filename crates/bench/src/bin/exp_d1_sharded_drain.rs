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
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d1_sharded_drain`

use monilog_bench::{pct, print_table};
use monilog_core::parse::eval::grouping_accuracy;
use monilog_core::parse::{Drain, DrainConfig, OnlineParser, ShardedDrain, ShardedDrainConfig};
use monilog_loggen::corpus;

/// Modeled parallel speedup of a sharded run: the wall-clock of a perfect
/// deployment is the *critical path* — the busiest shard — plus the
/// (parallelizable) routing. We count the lines each shard really parses
/// and report `total / max_shard`. The deployed form is the router + monitor
/// fleet (`stream::cluster`), one Drain per process, so the critical path
/// is what bounds it; see DESIGN.md §3 (hardware substitution).
fn modeled_speedup(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(1).max(1);
    total as f64 / max as f64
}

fn main() {
    println!("# D1 — sharded (distributed) Drain: accuracy and scaling\n");
    let corpus = corpus::cloud_mixed(400, 801);
    let messages: Vec<&str> = corpus.messages().collect();
    let truth: Vec<u32> = corpus.logs.iter().map(|l| l.truth.template.0).collect();
    println!(
        "corpus: {} lines, {} true templates\n",
        messages.len(),
        corpus.truth_template_count()
    );

    // Baseline: plain single-tree Drain.
    let mut plain = Drain::new(DrainConfig::default());
    let parsed: Vec<u32> = messages.iter().map(|m| plain.parse(m).template.0).collect();
    let plain_ga = grouping_accuracy(&parsed, &truth);
    println!("plain Drain: GA {:.1}%\n", plain_ga * 100.0);

    let mut rows = Vec::new();
    for n_shards in [1, 2, 4, 8, 16] {
        // Sequential sharded parser: accuracy + load balance.
        let mut sharded = ShardedDrain::new(ShardedDrainConfig {
            n_shards,
            drain: DrainConfig::default(),
        });
        let parsed: Vec<u32> = messages
            .iter()
            .map(|m| sharded.parse(m).template.0)
            .collect();
        let ga = grouping_accuracy(&parsed, &truth);
        let loads = sharded.shard_loads();
        let max_load = *loads.iter().max().expect("shards exist") as f64;
        let balance = (messages.len() as f64 / n_shards as f64) / max_load;

        rows.push(vec![
            format!("{n_shards}"),
            pct(ga),
            format!("{:.2}", balance),
            format!("{:.2}x", modeled_speedup(&loads)),
        ]);
    }
    print_table(
        &["shards", "grouping acc", "load balance", "modeled speedup"],
        &rows,
    );
    println!(
        "\nShape check: accuracy stays at the plain-Drain level for every shard\n\
         count (routing is template-stable). The modeled speedup — total lines\n\
         over the busiest shard's lines, i.e. the measured critical path —\n\
         grows with shards until routing-key skew caps it."
    );
}
