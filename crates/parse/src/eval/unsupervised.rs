//! Unsupervised parsing-quality estimation.
//!
//! "Unsupervised metrics open promising perspectives for auto-parametrizing
//! log parsers. We can imagine a component deployed according to the
//! following flow: first, it acquires a fixed quantity of loglines within
//! its environment; then it calibrates the value of its parameters by
//! estimating its performance using an unsupervised metric." (Section IV)
//!
//! The estimator reports four label-free signals — *coverage* (fraction of
//! lines in multi-member templates), *cohesion* (within-template token
//! similarity), *separation* (cross-template similarity) and the template
//! count — and a composite `quality = coverage − separation` used as the
//! auto-tuning objective. The composite was selected empirically by the
//! metric-pertinence study (experiment A2): it picks the best grid point
//! on every benchmark corpus, while cohesion-based composites mis-rank
//! because heavier masking *lowers* cohesion yet raises true accuracy.
//! Both degenerate parsings fail it: merge-everything has worst-case
//! separation (defined as 1 when no cross pairs exist); split-everything
//! has zero coverage. Sampling is deterministic (internal xorshift) so the
//! score is reproducible.

use std::collections::{BTreeMap, HashMap};

/// Label-free quality report for one parsing of a corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnsupervisedReport {
    /// Number of distinct templates produced.
    pub template_count: usize,
    /// Fraction of lines whose template has at least two members. A
    /// parsing that shatters the corpus into singletons "explains" nothing.
    pub coverage: f64,
    /// Mean token similarity of same-template line pairs (line-weighted).
    pub cohesion: f64,
    /// Mean token similarity of cross-template line pairs.
    pub separation: f64,
    /// The composite tuning objective `coverage − separation`.
    pub quality: f64,
}

/// Token-level similarity of two messages: positional equality ratio when
/// lengths match, otherwise a token-multiset Jaccard index.
fn line_similarity(a: &[&str], b: &[&str]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.len() == b.len() {
        let eq = a.iter().zip(b).filter(|(x, y)| x == y).count();
        return eq as f64 / a.len() as f64;
    }
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for t in a {
        *counts.entry(t).or_default() += 1;
    }
    let mut inter = 0i64;
    for t in b {
        let c = counts.entry(t).or_default();
        if *c > 0 {
            inter += 1;
            *c -= 1;
        }
    }
    let union = (a.len() + b.len()) as i64 - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Deterministic xorshift64* generator — no external RNG dependency in the
/// library; scores must be reproducible across runs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Estimate parsing quality without labels.
///
/// `messages[i]` was assigned template label `labels[i]`. `max_pairs`
/// bounds the sampled pair count per side (cohesion / separation); 2000 is
/// plenty for stable estimates.
pub fn unsupervised_quality(
    messages: &[&str],
    labels: &[u32],
    max_pairs: usize,
) -> UnsupervisedReport {
    assert_eq!(
        messages.len(),
        labels.len(),
        "labels must align with messages"
    );
    let tokenized: Vec<Vec<&str>> = messages
        .iter()
        .map(|m| m.split_whitespace().collect())
        .collect();
    // Label order, not hash order: the seeded sampler below indexes into
    // `covered_lines`, so its order must be the same in every process.
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, &l) in labels.iter().enumerate() {
        groups.entry(l).or_default().push(i);
    }
    let template_count = groups.len();
    // Lines living in multi-member groups, used both for coverage and for
    // line-weighted cohesion sampling (group-uniform sampling would let a
    // swarm of small, artificially-tight groups dominate the estimate).
    let covered_lines: Vec<usize> = groups
        .values()
        .filter(|g| g.len() >= 2)
        .flat_map(|g| g.iter().copied())
        .collect();
    let coverage = if messages.is_empty() {
        1.0
    } else {
        covered_lines.len() as f64 / messages.len() as f64
    };

    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);

    // Cohesion: pairs within a template, sampled line-first.
    let mut cohesion_sum = 0.0;
    let mut cohesion_n = 0usize;
    if !covered_lines.is_empty() {
        for _ in 0..max_pairs {
            let i = covered_lines[rng.below(covered_lines.len())];
            let g = &groups[&labels[i]];
            let mut j = g[rng.below(g.len())];
            if i == j {
                j = g[(g.iter().position(|&x| x == i).expect("member") + 1) % g.len()];
            }
            if i == j {
                continue;
            }
            cohesion_sum += line_similarity(&tokenized[i], &tokenized[j]);
            cohesion_n += 1;
        }
    }
    // A parsing with only singleton groups has undefined cohesion; treat it
    // as 0 so singleton-everything never wins the tuning search.
    let cohesion = if cohesion_n > 0 {
        cohesion_sum / cohesion_n as f64
    } else {
        0.0
    };

    // Separation: pairs across templates.
    let mut separation_sum = 0.0;
    let mut separation_n = 0usize;
    if template_count >= 2 && messages.len() >= 2 {
        for _ in 0..max_pairs {
            let i = rng.below(messages.len());
            let j = rng.below(messages.len());
            if labels[i] == labels[j] {
                continue;
            }
            separation_sum += line_similarity(&tokenized[i], &tokenized[j]);
            separation_n += 1;
        }
    }
    // One giant template has no cross pairs: call separation 1 (worst), so
    // merge-everything never wins either.
    let separation = if separation_n > 0 {
        separation_sum / separation_n as f64
    } else if template_count <= 1 && messages.len() > 1 {
        1.0
    } else {
        0.0
    };

    UnsupervisedReport {
        template_count,
        coverage,
        cohesion,
        separation,
        quality: coverage - separation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_similarity_positional() {
        assert_eq!(line_similarity(&["a", "b"], &["a", "b"]), 1.0);
        assert_eq!(line_similarity(&["a", "b"], &["a", "c"]), 0.5);
        assert_eq!(line_similarity(&[], &[]), 1.0);
    }

    #[test]
    fn line_similarity_jaccard_for_mixed_lengths() {
        // {a,b,c} vs {a,b}: intersection 2, union 3.
        assert!((line_similarity(&["a", "b", "c"], &["a", "b"]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn good_parsing_beats_degenerate_ones() {
        // Two obvious templates with variable middles.
        let messages: Vec<String> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    format!("open file f{i} ok")
                } else {
                    format!("send packet p{i} to host")
                }
            })
            .collect();
        let refs: Vec<&str> = messages.iter().map(String::as_str).collect();

        let good: Vec<u32> = (0..40).map(|i| (i % 2) as u32).collect();
        let merged = vec![0u32; 40];
        let singleton: Vec<u32> = (0..40).collect();

        let q_good = unsupervised_quality(&refs, &good, 2000).quality;
        let q_merged = unsupervised_quality(&refs, &merged, 2000).quality;
        let q_single = unsupervised_quality(&refs, &singleton, 2000).quality;

        assert!(q_good > q_merged, "good {q_good} vs merged {q_merged}");
        assert!(q_good > q_single, "good {q_good} vs singleton {q_single}");
    }

    #[test]
    fn report_fields_are_consistent() {
        let refs = vec!["a b", "a c", "x y", "x z"];
        let labels = vec![0, 0, 1, 1];
        let r = unsupervised_quality(&refs, &labels, 500);
        assert_eq!(r.template_count, 2);
        assert_eq!(r.coverage, 1.0);
        assert!((r.quality - (r.coverage - r.separation)).abs() < 1e-12);
        assert!(r.cohesion > r.separation);
    }

    #[test]
    fn deterministic() {
        // 24 groups of unequal size and inner similarity: sampling them in
        // another order (hash order differs between two maps) would move
        // cohesion.
        let messages: Vec<String> = (0..130)
            .map(|i| format!("op{} on item i{} took {} ms", i % 24, i * i % 7, i / 24 % 3))
            .collect();
        let refs: Vec<&str> = messages.iter().map(String::as_str).collect();
        let labels: Vec<u32> = (0..130).map(|i| i % 24).collect();
        let r1 = unsupervised_quality(&refs, &labels, 2000);
        let r2 = unsupervised_quality(&refs, &labels, 2000);
        assert_eq!(r1, r2);
    }

    #[test]
    fn coverage_punishes_singleton_explosions() {
        let messages: Vec<String> = (0..30).map(|i| format!("beat n{i} ok")).collect();
        let refs: Vec<&str> = messages.iter().map(String::as_str).collect();
        let grouped = vec![0u32; 30];
        let singles: Vec<u32> = (0..30).collect();
        let half: Vec<u32> = (0..30).map(|i| if i < 15 { 0 } else { i }).collect();
        let q_grouped = unsupervised_quality(&refs, &grouped, 1000);
        let q_half = unsupervised_quality(&refs, &half, 1000);
        let q_singles = unsupervised_quality(&refs, &singles, 1000);
        assert_eq!(q_grouped.coverage, 1.0);
        assert_eq!(q_half.coverage, 0.5);
        assert_eq!(q_singles.coverage, 0.0);
        assert!(q_grouped.quality > q_half.quality);
        assert!(q_half.quality > q_singles.quality || q_singles.quality <= 0.0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let r = unsupervised_quality(&[], &[], 100);
        assert_eq!(r.template_count, 0);
        let r = unsupervised_quality(&["solo line"], &[0], 100);
        assert_eq!(r.template_count, 1);
    }
}
