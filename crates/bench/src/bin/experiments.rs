//! Print the accuracy experiments named on the command line, each the
//! exact bytes of its committed `results/exp_<name>.txt`; without names,
//! list them, one per line. CI diffs every table against its file:
//! `for n in $(experiments); do experiments $n | diff results/exp_$n.txt -; done`
//!
//! Run: `cargo run --release -p monilog-bench --bin experiments -- p1_anomaly_free`

use monilog_bench::EXPERIMENTS;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &str| EXPERIMENTS.iter().find(|(known, _)| *known == name);
    if let Some(unknown) = names.iter().find(|name| find(name).is_none()) {
        eprintln!("unknown experiment {unknown:?}; run without arguments to list them");
        return ExitCode::from(2);
    }
    if names.is_empty() {
        EXPERIMENTS.iter().for_each(|(name, _)| println!("{name}"));
    }
    for name in &names {
        print!("{}", find(name).expect("checked above").1());
    }
    ExitCode::SUCCESS
}
