//! `benchmark compare <a.jsonl> <b.jsonl>`: apply the bounds fixed in
//! `BENCHMARK.json` to two sets of end-to-end records (as `run --out`
//! writes them) and print one row per workload x metric.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The runs of one side spread wider than the bound: the data cannot
    /// tell "unchanged" from "changed".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side B against base A. `change` is B's median relative to A's,
/// signed so that positive means worse. A regression beyond the bound is
/// `Worse` whatever the spread; anything else needs both spreads within
/// the bound to be called `Better` or `WithinBound`.
pub fn judge(
    base_median: f64,
    new_median: f64,
    higher_is_better: bool,
    bound: f64,
    base_spread: f64,
    new_spread: f64,
) -> (f64, Verdict) {
    let raw = (new_median - base_median) / base_median.abs().max(f64::MIN_POSITIVE);
    let change = if higher_is_better { -raw } else { raw };
    let verdict = if change > bound {
        Verdict::Worse
    } else if base_spread > bound || new_spread > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (change, verdict)
}

/// workload -> metric -> values, from JSONL records of kind `e2e`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if rec.get("kind").and_then(Json::as_str) != Some("e2e") {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: record has no workload", n + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}:{}: record has no metrics", n + 1))?;
        let per_metric = out.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
        if let Some(v) = rec.get("failed_share").and_then(Json::as_f64) {
            per_metric.entry("failed_share".into()).or_default().push(v);
        }
    }
    Ok(out)
}

/// metric -> (higher is better, bound), from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// Returns whether no row is `worse` (and no run lost or damaged a line
/// or a report).
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "change",
        "bound",
        "spread A",
        "spread B"
    );
    for (workload, base) in &a {
        let Some(new) = b.get(workload) else {
            println!("{workload:<16} missing from {b_path}: unresolved");
            continue;
        };
        for (metric, higher, bound) in &bounds {
            let (Some(av), Some(bv)) = (base.get(metric), new.get(metric)) else {
                println!("{workload:<16} {metric:<24} missing on one side: unresolved");
                continue;
            };
            let (am, bm) = (
                stats::median(av).expect("non-empty"),
                stats::median(bv).expect("non-empty"),
            );
            let (sa, sb) = (stats::spread(av), stats::spread(bv));
            let (change, verdict) = judge(am, bm, *higher, *bound, sa, sb);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<16} {metric:<24} {am:>14.4} {bm:>14.4} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {} (base {am:.4}, n={}/{})",
                change * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0,
                verdict.label(),
                av.len(),
                bv.len()
            );
        }
        for (side, samples) in [(a_path, base), (b_path, new)] {
            let worst = samples
                .get("failed_share")
                .map_or(0.0, |v| v.iter().cloned().fold(0.0, f64::max));
            if worst > 0.0 {
                println!("{workload:<16} failed_share reached {worst} in {side}: worse");
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_logic() {
        // lines_per_s (higher is better), bound 10%.
        assert_eq!(
            judge(100.0, 95.0, true, 0.10, 0.01, 0.01).1,
            Verdict::WithinBound
        );
        assert_eq!(judge(100.0, 85.0, true, 0.10, 0.01, 0.01).1, Verdict::Worse);
        assert_eq!(
            judge(100.0, 120.0, true, 0.10, 0.01, 0.01).1,
            Verdict::Better
        );
        // latency (lower is better): the sign flips.
        assert_eq!(
            judge(100.0, 120.0, false, 0.10, 0.01, 0.01).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 80.0, false, 0.10, 0.01, 0.01).1,
            Verdict::Better
        );
        let (change, _) = judge(100.0, 120.0, false, 0.10, 0.0, 0.0);
        assert!((change - 0.20).abs() < 1e-12);
        // Spread wider than the bound: never "unchanged" or "better"...
        assert_eq!(
            judge(100.0, 101.0, true, 0.10, 0.15, 0.01).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 130.0, true, 0.10, 0.01, 0.15).1,
            Verdict::Unresolved
        );
        // ...but a regression beyond the bound is still a regression.
        assert_eq!(judge(100.0, 80.0, true, 0.10, 0.15, 0.15).1, Verdict::Worse);
        // Exactly on the bound is within it.
        assert_eq!(
            judge(100.0, 90.0, true, 0.10, 0.0, 0.0).1,
            Verdict::WithinBound
        );
    }
}
