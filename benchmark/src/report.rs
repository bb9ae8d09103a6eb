//! What a run prints and records: every metric by name with its unit,
//! the workload manifest, the property assertions, the JSONL trajectory
//! records and the final line of the `BENCHMARK.json` contract.

use crate::e2e::Outcome;
use crate::json::quote;
use crate::layers::{Ledger, LAYER_METRICS};
use crate::workloads::{Corpus, Phases, Workload};

/// The end-to-end metrics, in `BENCHMARK.json` order. `failed_share` is
/// not among them: it is 0 on every healthy run, and the contract wants
/// it as `failed` / `attempted` instead.
pub const E2E_METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("lines_per_s", "1/s"),
    ("report_latency_p50_ms", "ms"),
    ("report_latency_p99_ms", "ms"),
    ("cpu_us_per_line", "us"),
    ("disk_bytes_per_line", "bytes"),
    ("peak_rss_mb", "MB"),
];

fn e2e_value(o: &Outcome, name: &str) -> f64 {
    match name {
        "setup_s" => o.setup_s,
        "lines_per_s" => o.lines_per_s,
        "report_latency_p50_ms" => o.report_latency_p50_ms,
        "report_latency_p99_ms" => o.report_latency_p99_ms,
        "cpu_us_per_line" => o.cpu_us_per_line,
        "disk_bytes_per_line" => o.disk_bytes_per_line,
        "peak_rss_mb" => o.peak_rss_mb,
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

fn in_range<T: PartialOrd + std::fmt::Display>(
    what: &str,
    v: T,
    (lo, hi): (T, T),
) -> Option<String> {
    (v < lo || v > hi).then(|| format!("{what} {v} is outside [{lo}, {hi}]"))
}

/// The properties a workload was chosen for, checked on what this run
/// measured. An empty list means they hold.
pub fn property_failures(w: &Workload, corpus: &Corpus, o: &Outcome) -> Vec<String> {
    let per_kline = o.reports_expected as f64 * 1e3 / corpus.manifest.lines.max(1) as f64;
    [
        in_range("templates", o.templates, w.expect.templates),
        in_range(
            "reports per 1,000 lines",
            per_kline,
            w.expect.reports_per_kline,
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

pub fn ledger_property_failures(w: &Workload, l: &Ledger) -> Vec<String> {
    let per_kline = l.get("ledger.reports") * 1e3 / l.get("ledger.lines").max(1.0);
    let mut out: Vec<String> = [
        in_range(
            "templates",
            l.get("parse.drain.templates") as usize,
            w.expect.templates,
        ),
        in_range(
            "distinct-history share",
            l.get("detect.deeplog.distinct_history_share"),
            w.expect.distinct_history_share,
        ),
        in_range(
            "reports per 1,000 lines",
            per_kline,
            w.expect.reports_per_kline,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    out.extend(l.mismatches.iter().cloned());
    out
}

fn print_manifest(w: &Workload, seed: u64, corpus: &Corpus) {
    let m = &corpus.manifest;
    println!("== {} (seed {seed}) ==", w.name);
    println!("why: {}", w.why);
    println!(
        "manifest: sha256 {} | {} lines | {:.1} bytes/line | anomalous lines {:.4} | {} training lines",
        m.sha256,
        m.lines,
        m.bytes as f64 / m.lines.max(1) as f64,
        m.anomaly_share,
        corpus.train.len()
    );
}

fn print_checks(checks: &[String]) {
    for c in checks {
        println!("FAILED: {c}");
    }
}

pub fn print_e2e(
    w: &Workload,
    seed: u64,
    rep: usize,
    phases: &Phases,
    corpus: &Corpus,
    o: &Outcome,
    checks: &[String],
) {
    print_manifest(w, seed, corpus);
    println!(
        "run {rep}: warm-up {} lines, paced {} lines at {} lines/s (open loop), saturate {} lines (closed loop) | transport {:?}",
        phases.warmup, phases.paced, w.paced_rate, phases.saturate, w.transport
    );
    println!(
        "facts: {} templates | {} reports expected ({:.2} per 1,000 lines)",
        o.templates,
        o.reports_expected,
        o.reports_expected as f64 * 1e3 / corpus.manifest.lines.max(1) as f64
    );
    for (name, unit) in E2E_METRICS {
        println!("  {name:<24} {:>14.4} {unit}", e2e_value(o, name));
    }
    println!(
        "  {:<24} {:>14.6} share ({} failed of {} attempted: {} lines sent, {} ingested, {} reports expected, {} wrong)",
        "failed_share",
        o.failed_share(),
        o.failed(),
        o.attempted(),
        o.lines_sent,
        o.lines_ingested,
        o.reports_expected,
        o.reports_failed
    );
    println!(
        "  latency samples {} | generator lag p99 {:.3} ms | generator CPU share {:.3} | http 429 retries {} | disk from {}",
        o.latency_samples, o.generator_lag_p99_ms, o.generator_cpu_share, o.http_retries, o.disk_source
    );
    let steps: Vec<String> = o
        .timeline
        .iter()
        .map(|(s, t)| format!("{s} {t:.2}s"))
        .collect();
    println!("  timeline: {}", steps.join(", "));
    for why in &o.invalid {
        println!("INVALID: {why}");
    }
    print_checks(checks);
}

pub fn print_layers(w: &Workload, seed: u64, corpus: &Corpus, l: &Ledger, checks: &[String]) {
    print_manifest(w, seed, corpus);
    for (name, unit, _) in LAYER_METRICS {
        println!("  {name:<44} {:>16.4} {unit}", l.get(name));
    }
    if l.get("e2e.unattributed_share") > 0.15 {
        println!(
            "finding: e2e.unattributed_share {:.3} > 0.15: the consumer thread's known work does not explain the end-to-end time per line",
            l.get("e2e.unattributed_share")
        );
    }
    if l.get("trace.overhead_share") >= 0.03 {
        println!(
            "finding: trace.overhead_share {:.4} is not below 0.03",
            l.get("trace.overhead_share")
        );
    }
    print_checks(checks);
}

fn ratio_check(what: &str, big: f64, small: f64, at_least: f64) -> bool {
    let ok = big >= at_least * small;
    println!(
        "{}: {what}: {big:.4} vs {small:.4} = {:.1}x (need >= {at_least}x)",
        if ok { "ok" } else { "FAILED" },
        big / small.max(f64::MIN_POSITIVE)
    );
    ok
}

/// Cross-workload assertions of an end-to-end `run` over all workloads.
pub fn print_cross_checks(facts: &[(&str, usize)]) -> bool {
    let get = |name: &str| {
        facts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t as f64)
    };
    match (get("cloud_churn"), get("hdfs_sessions")) {
        (Some(cloud), Some(hdfs)) => {
            ratio_check("cloud_churn templates vs hdfs_sessions", cloud, hdfs, 10.0)
        }
        _ => true,
    }
}

/// Cross-workload predictions of a `layers` run over all workloads.
pub fn print_ledger_cross_checks(facts: &[(&str, Ledger)]) -> bool {
    let get = |name: &str| facts.iter().find(|(n, _)| *n == name).map(|(_, l)| l);
    let mut ok = true;
    if let (Some(cloud), Some(hdfs)) = (get("cloud_churn"), get("hdfs_sessions")) {
        for (what, metric, factor) in [
            ("templates", "parse.drain.templates", 10.0),
            (
                "distinct-history share",
                "detect.deeplog.distinct_history_share",
                10.0,
            ),
            (
                "detect.deeplog.ns_per_line",
                "detect.deeplog.ns_per_line",
                5.0,
            ),
        ] {
            ok &= ratio_check(
                &format!("cloud_churn {what} vs hdfs_sessions"),
                cloud.get(metric),
                hdfs.get(metric),
                factor,
            );
        }
    }
    if let (Some(storm), Some(hdfs)) = (get("anomaly_storm"), get("hdfs_sessions")) {
        let metric = "sinks.share_of_ingest_plus_egress";
        ok &= ratio_check(
            "anomaly_storm sinks share of core.ingest + egress vs hdfs_sessions",
            storm.get(metric),
            hdfs.get(metric),
            5.0,
        );
    }
    if let Some(http) = get("http_gzip_bulk") {
        let absent = http.get("sources.framing.calls") == 0.0;
        println!(
            "{}: sources.framing is absent from http_gzip_bulk",
            if absent { "ok" } else { "FAILED" }
        );
        ok &= absent;
    }
    ok
}

fn record_head(
    kind: &str,
    w: &Workload,
    seed: u64,
    seconds: f64,
    corpus: &Corpus,
    fp: &str,
) -> String {
    let m = &corpus.manifest;
    format!(
        "{{\"kind\":{},\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},{fp},\
         \"manifest\":{{\"sha256\":{},\"lines\":{},\"bytes\":{},\"anomaly_share\":{}}}",
        quote(kind),
        quote(w.name),
        quote(&m.sha256),
        m.lines,
        m.bytes,
        m.anomaly_share
    )
}

fn metrics_json<'a>(values: impl Iterator<Item = (&'a str, f64)>) -> String {
    let members: Vec<String> = values.map(|(n, v)| format!("{}:{v}", quote(n))).collect();
    format!("{{{}}}", members.join(","))
}

/// One JSONL record of an end-to-end run (trajectory and `compare` input).
pub fn e2e_record(
    w: &Workload,
    seed: u64,
    seconds: f64,
    corpus: &Corpus,
    o: &Outcome,
    fp: &str,
) -> String {
    format!(
        "{},\"templates\":{},\"reports_expected\":{},\"latency_samples\":{},\
         \"generator_lag_p99_ms\":{},\"generator_cpu_share\":{},\"http_retries\":{},\
         \"failed_share\":{},\"correct\":{},\"metrics\":{}}}",
        record_head("e2e", w, seed, seconds, corpus, fp),
        o.templates,
        o.reports_expected,
        o.latency_samples,
        o.generator_lag_p99_ms,
        o.generator_cpu_share,
        o.http_retries,
        o.failed_share(),
        o.correct(),
        metrics_json(E2E_METRICS.iter().map(|(n, _)| (*n, e2e_value(o, n))))
    )
}

pub fn layers_record(
    w: &Workload,
    seed: u64,
    seconds: f64,
    corpus: &Corpus,
    l: &Ledger,
    fp: &str,
) -> String {
    format!(
        "{},\"correct\":{},\"metrics\":{}}}",
        record_head("layers", w, seed, seconds, corpus, fp),
        l.correct(),
        metrics_json(LAYER_METRICS.iter().map(|(n, _, _)| (*n, l.get(n))))
    )
}

fn contract_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&str, f64, &str)>,
) -> String {
    let members: Vec<String> = metrics
        .into_iter()
        .map(|(n, v, u)| format!("{}:{{\"value\":{v},\"unit\":{}}}", quote(n), quote(u)))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        members.join(",")
    )
}

/// Final stdout line of a `--trace 0` run.
pub fn contract_line_e2e(o: &Outcome, correct: bool) -> String {
    contract_line(
        correct,
        o.attempted().max(1),
        o.failed(),
        E2E_METRICS
            .iter()
            .map(|(n, u)| (*n, e2e_value(o, n), *u))
            .collect(),
    )
}

/// Final stdout line of a `--trace 1` run: one attempt per line pushed
/// through the ledger, failed = checks that did not hold.
pub fn contract_line_layers(l: &Ledger, correct: bool) -> String {
    contract_line(
        correct,
        (l.get("ledger.lines") as usize).max(1),
        l.mismatches.len(),
        LAYER_METRICS
            .iter()
            .map(|(n, u, _)| (*n, l.get(n), *u))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            setup_s: 1.25,
            lines_per_s: 1e5,
            lines_sent: 10,
            lines_ingested: 9,
            reports_expected: 2,
            ..Outcome::default()
        };
        let line = contract_line_e2e(&o, o.correct());
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(12.0));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), E2E_METRICS.len());
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            metrics["setup_s"].get("value").unwrap().as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the package is being tested outside the repository
        };
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end array")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = E2E_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads array")
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
