//! `benchmark`: end-to-end run of the real `monilog monitor` plus an
//! outside-in layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run     [--seed N] [--seconds S] [--workload W] [--reps R] [--out FILE] [--record]
//! benchmark layers  [--seed N] [--seconds S] [--workload W] [--out FILE] [--record]
//! benchmark compare <a.jsonl> <b.jsonl>
//! benchmark --workload W --seed N --seconds S --trace 0|1      (the BENCHMARK.json contract)
//! ```

mod collector;
mod compare;
mod e2e;
mod gzip;
mod host;
mod json;
mod layers;
mod monitor;
mod oracle;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Phases, Workload, DEFAULT_SEED, WORKLOADS};

/// Measuring time of one workload when `--seconds` is not given: 24 s
/// paced + 16 s saturate.
const DEFAULT_SECONDS: f64 = 40.0;

struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<String>,
    trace: Option<bool>,
    reps: usize,
    out: Option<String>,
    record: bool,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        workload: None,
        trace: None,
        reps: 1,
        out: None,
        record: false,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--workload" => a.workload = Some(value("--workload")?),
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--reps" => {
                a.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if a.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--out" => a.out = Some(value("--out")?),
            "--record" => a.record = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

fn selected(args: &Args) -> Result<Vec<&'static Workload>, String> {
    match &args.workload {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => workloads::by_name(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        }),
    }
}

fn append(path: &str, lines: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    for l in lines {
        writeln!(f, "{l}").map_err(|e| format!("write {path}: {e}"))?;
    }
    f.sync_all().map_err(|e| format!("sync {path}: {e}"))
}

/// One end-to-end run of one workload: generate, drive, check, print.
fn e2e_once(
    bin: &std::path::Path,
    w: &'static Workload,
    args: &Args,
    rep: usize,
) -> Result<(workloads::Corpus, e2e::Outcome, bool), String> {
    let phases = Phases::of(w, args.seconds);
    let corpus = workloads::generate(w, args.seed, phases.total());
    let run = e2e::Run {
        workload: w,
        seed: args.seed,
        phases,
        corpus: &corpus,
    };
    let outcome = e2e::run(bin, &run)?;
    let checks = report::property_failures(w, &corpus, &outcome);
    report::print_e2e(w, args.seed, rep, &phases, &corpus, &outcome, &checks);
    let correct = outcome.correct() && checks.is_empty();
    Ok((corpus, outcome, correct))
}

/// One traced run of one workload.
fn layers_once(
    w: &'static Workload,
    args: &Args,
) -> Result<(workloads::Corpus, layers::Ledger, bool), String> {
    let corpus = workloads::generate(w, args.seed, Phases::of(w, args.seconds).total());
    let ledger = layers::run(w, &corpus)?;
    let checks = report::ledger_property_failures(w, &ledger);
    report::print_layers(w, args.seed, &corpus, &ledger, &checks);
    let correct = ledger.correct() && checks.is_empty();
    Ok((corpus, ledger, correct))
}

/// End-to-end runs of the selected workloads. Returns whether every run
/// was correct.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let bin = monitor::build_monilog()?;
    let fingerprint = host::fingerprint_json(&monitor::state_root());
    let mut records = Vec::new();
    let mut all_correct = true;
    for rep in 0..args.reps {
        let mut templates = Vec::new();
        for w in selected(args)? {
            let (corpus, outcome, correct) = e2e_once(&bin, w, args, rep)?;
            all_correct &= correct;
            records.push(report::e2e_record(
                w,
                args.seed,
                args.seconds,
                &corpus,
                &outcome,
                &fingerprint,
            ));
            templates.push((w.name, outcome.templates));
        }
        all_correct &= report::print_cross_checks(&templates);
    }
    if let Some(path) = &args.out {
        append(path, &records)?;
    }
    if args.record {
        append("benchmark/BENCH_e2e.jsonl", &records)?;
    }
    Ok(all_correct)
}

/// Traced runs of the selected workloads.
fn cmd_layers(args: &Args) -> Result<bool, String> {
    let fingerprint = host::fingerprint_json(&monitor::state_root());
    let mut records = Vec::new();
    let mut all_correct = true;
    let mut ledgers = Vec::new();
    for w in selected(args)? {
        let (corpus, ledger, correct) = layers_once(w, args)?;
        all_correct &= correct;
        let trace_path = match &args.workload {
            Some(_) => "trace.json".to_string(),
            None => format!("trace-{}.json", w.name),
        };
        std::fs::write(&trace_path, &ledger.chrome_trace)
            .map_err(|e| format!("write {trace_path}: {e}"))?;
        println!(
            "trace: {trace_path} (Chrome trace-event JSON; open in chrome://tracing or Perfetto)"
        );
        records.push(report::layers_record(
            w,
            args.seed,
            args.seconds,
            &corpus,
            &ledger,
            &fingerprint,
        ));
        ledgers.push((w.name, ledger));
    }
    all_correct &= report::print_ledger_cross_checks(&ledgers);
    if let Some(path) = &args.out {
        append(path, &records)?;
    }
    if args.record {
        append("benchmark/BENCH_layers.jsonl", &records)?;
    }
    Ok(all_correct)
}

/// The `BENCHMARK.json` contract: one workload, one seed, one final JSON
/// line with `correct`, `attempted`, `failed`, `metrics`.
fn cmd_contract(args: &Args, trace: bool) -> Result<bool, String> {
    if args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    let w = selected(args)?[0];
    let (line, correct) = if trace {
        let (_, ledger, correct) = layers_once(w, args)?;
        (report::contract_line_layers(&ledger, correct), correct)
    } else {
        let bin = monitor::build_monilog()?;
        let (_, outcome, correct) = e2e_once(&bin, w, args, 0)?;
        (report::contract_line_e2e(&outcome, correct), correct)
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.positional.first().map(String::as_str), args.trace) {
        (Some("run"), _) => cmd_run(&args),
        (Some("layers"), _) => cmd_layers(&args),
        (Some("compare"), _) => match &args.positional[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare needs <a.jsonl> <b.jsonl>".into()),
        },
        (None, Some(trace)) => cmd_contract(&args, trace),
        _ => Err("usage: benchmark run|layers|compare ... (see benchmark/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
