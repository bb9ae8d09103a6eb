//! Order statistics used by the end-to-end metrics and the compare tool.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. `None` on an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile `p` of each of `slices` equal ranges of the positions
/// `[from, to)`, for the ranges that hold any sample.
pub fn slice_percentiles(
    samples: &[(usize, f64)],
    from: usize,
    to: usize,
    slices: usize,
    p: f64,
) -> Vec<f64> {
    let width = (to.saturating_sub(from)).max(1);
    let slices = slices.max(1);
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(pos, v) in samples.iter().filter(|(pos, _)| (from..to).contains(pos)) {
        per_slice[(pos - from) * slices / width].push(v);
    }
    per_slice
        .into_iter()
        .filter_map(|s| percentile(&sorted(s), p))
        .collect()
}

/// A percentile that one disturbance cannot own: the median of the
/// per-slice percentiles. A phase a few seconds long sees about one
/// filesystem journal commit or scheduler stall; pooled, that one event
/// decides the p99 of a few hundred samples, while here it moves one
/// slice out of `slices`.
pub fn sliced_percentile(
    samples: &[(usize, f64)],
    from: usize,
    to: usize,
    slices: usize,
    p: f64,
) -> Option<f64> {
    median(&slice_percentiles(samples, from, to, slices, p))
}

/// Sort a sample in place (NaN-free input) and return it.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    values
}

pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed here
/// is the spread the acceptance check computes. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, linearly interpolated
        // and clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// samples (no spread can be stated).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 1,100 samples leave eleven beyond the p99 rank.
        let s: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(1089.0));
    }

    #[test]
    fn sliced_percentile_shrugs_off_one_disturbed_slice() {
        // 500 samples at positions 100..600, all 10.0 except one burst of
        // 20 in the third fifth: 4% of the samples, so the pooled p99 is
        // the burst; the sliced one is not.
        let mut samples: Vec<(usize, f64)> = (100..600).map(|pos| (pos, 10.0)).collect();
        for s in &mut samples[210..230] {
            s.1 = 500.0;
        }
        let pooled: Vec<f64> = sorted(samples.iter().map(|s| s.1).collect());
        assert_eq!(percentile(&pooled, 99.0), Some(500.0));
        assert_eq!(sliced_percentile(&samples, 100, 600, 5, 99.0), Some(10.0));
        // Samples outside the range are ignored; empty slices are skipped.
        assert_eq!(
            sliced_percentile(&[(5, 1.0), (700, 9.0)], 100, 600, 5, 99.0),
            None
        );
        assert_eq!(
            sliced_percentile(&[(100, 3.0)], 100, 600, 5, 99.0),
            Some(3.0)
        );
        assert_eq!(
            sliced_percentile(&[(599, 4.0), (100, 2.0)], 100, 600, 5, 50.0),
            Some(3.0)
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), Some(5.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
