//! Zero-configuration deployment — the paper's Section IV vision, end to
//! end:
//!
//! "We can imagine a component deployed according to the following flow.
//! First, it acquires a fixed quantity of loglines within its environment.
//! Then it calibrates the value of its parameters by estimating its
//! performance using an unsupervised metric. Once it detects the supposed
//! optimal values, it starts parsing logs."
//!
//! This example drops the parser into an *unknown* system (a 24-source
//! cloud platform it has never seen), calibrates Drain on the first
//! thousand lines with the label-free quality score, then goes live with
//! the inline Drain parser the `monilog` binary runs — no human-provided
//! regexes, thresholds or depths anywhere.
//!
//! Run with: `cargo run --release -p monilog-core --example zero_config_deployment`

use monilog_core::parse::autotune::{autotune_drain, TuneGrid};
use monilog_core::parse::eval::grouping_accuracy;
use monilog_core::parse::{Drain, OnlineParser};
use monilog_loggen::{CloudWorkload, CloudWorkloadConfig};

fn main() {
    println!("=== Zero-config deployment (Section IV flow) ===\n");
    let logs = CloudWorkload::new(CloudWorkloadConfig {
        walks_per_source: 120,
        seed: 71,
        ..CloudWorkloadConfig::default()
    })
    .generate();
    println!(
        "environment: unknown 24-source platform, {} lines observed",
        logs.len()
    );

    // ── Step 1: acquire a fixed quantity of loglines ─────────────────────
    let calibration_size = 1_000.min(logs.len() / 4);
    let sample: Vec<&str> = logs[..calibration_size]
        .iter()
        .map(|l| l.record.message.as_str())
        .collect();
    println!("step 1: acquired {calibration_size} calibration lines");

    // ── Step 2: calibrate with the unsupervised metric ───────────────────
    let result = autotune_drain(&sample, &TuneGrid::default(), 1_500);
    let config = result.best.config;
    println!(
        "step 2: calibrated — depth={}, similarity={:.1}, masking={} \
         (quality {:.3} over {} grid points, no labels used)",
        config.depth,
        config.sim_threshold,
        if config.mask == monilog_core::parse::MaskConfig::NONE {
            "off"
        } else {
            "on"
        },
        result.best.report.quality,
        result.all.len(),
    );

    // ── Step 3: start parsing logs with the calibrated parser ────────────
    let live = &logs[calibration_size..];
    let mut drain = Drain::new(config);
    let parsed: Vec<u32> = live
        .iter()
        .map(|l| drain.parse(l.record.message.as_str()).template.0)
        .collect();
    println!(
        "step 3: parsed {} live lines inline ({} templates discovered)",
        live.len(),
        drain.store().len()
    );

    // ── The report card (ground truth known only to the generator) ───────
    let truth: Vec<u32> = live.iter().map(|l| l.truth.template.0).collect();
    let ga = grouping_accuracy(&parsed, &truth);
    println!(
        "\nreport card: grouping accuracy {:.1}% against the generator's hidden \
         ground truth — zero human configuration.",
        ga * 100.0
    );
}
