//! LogClass-style baseline (Meng et al., IWQoS 2018: "Device-agnostic log
//! anomaly classification with partial labels") — the one prior work the
//! paper cites for anomaly classification: "Meng & al. propose LogClass,
//! trained a classifier over log anomalies" (Section V).
//!
//! LogClass represents an anomaly by a bag-of-words over its raw log text,
//! weighted by **TF-ILF** (term frequency × inverse *location* frequency —
//! ILF replaces IDF: a word is informative when it appears at few token
//! positions, the behaviour of static keywords rather than values), and
//! trains a conventional classifier over those vectors.
//!
//! It is the *batch, text-feature* counterpoint to this crate's online
//! pool classifier: LogClass needs a labeled training corpus up front and
//! re-featurizes raw words; the MoniLog design learns online from passive
//! pool moves over structural features. Experiment D2b compares them under
//! equal feedback budgets.

use monilog_model::AnomalyReport;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// LogClass configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogClassConfig {
    /// Dimensionality of the hashed bag-of-words space.
    pub feature_dim: usize,
    /// Training passes of the internal perceptron.
    pub epochs: usize,
}

impl Default for LogClassConfig {
    fn default() -> Self {
        LogClassConfig {
            feature_dim: 256,
            epochs: 5,
        }
    }
}

/// The words of a report: normalized message tokens of its events.
fn report_words(report: &AnomalyReport) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for e in &report.events {
        // LogClass works on words, not parsed templates: reconstruct word
        // streams from template + variables. We use the template id and the
        // variables as word-position pairs.
        for (pos, v) in e.variables.iter().enumerate() {
            out.push((normalize(v), pos));
        }
        out.push((format!("tpl{}", e.template.0), 0));
        out.push((format!("lvl{}", e.level.rank()), 0));
    }
    out
}

fn normalize(word: &str) -> String {
    // Values with digits collapse to a shape class — LogClass's
    // device-agnostic preprocessing.
    if word.bytes().any(|b| b.is_ascii_digit()) {
        let shape: String = word
            .bytes()
            .map(|b| {
                if b.is_ascii_digit() {
                    b'#'
                } else {
                    b.to_ascii_lowercase()
                }
            })
            .map(char::from)
            .collect();
        let mut collapsed = String::new();
        let mut last = '\0';
        for c in shape.chars() {
            if c != '#' || last != '#' {
                collapsed.push(c);
            }
            last = c;
        }
        collapsed
    } else {
        word.to_ascii_lowercase()
    }
}

fn hash_word(word: &str, dim: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in word.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    (h % dim as u64) as usize
}

/// Batch TF-ILF classifier over anomaly reports.
#[derive(Debug, Clone)]
pub struct LogClass<C: Copy + Ord> {
    config: LogClassConfig,
    /// Inverse location frequency per hashed word.
    ilf: Vec<f64>,
    /// One weight vector per class, in class order: ties between equal
    /// scores (every score is 0 before the first update) break the same
    /// way in every process.
    weights: BTreeMap<C, Vec<f64>>,
    trained: bool,
}

impl<C: Copy + Ord> LogClass<C> {
    pub fn new(config: LogClassConfig) -> Self {
        assert!(config.feature_dim >= 8);
        LogClass {
            ilf: vec![1.0; config.feature_dim],
            config,
            weights: BTreeMap::new(),
            trained: false,
        }
    }

    pub fn is_trained(&self) -> bool {
        self.trained
    }

    fn featurize(&self, report: &AnomalyReport) -> Vec<f64> {
        let dim = self.config.feature_dim;
        let mut tf = vec![0.0; dim];
        let words = report_words(report);
        let n = words.len().max(1) as f64;
        for (w, _) in &words {
            tf[hash_word(w, dim)] += 1.0 / n;
        }
        // TF × ILF, L2-normalized.
        let mut x: Vec<f64> = tf.iter().zip(&self.ilf).map(|(t, l)| t * l).collect();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in &mut x {
                *v /= norm;
            }
        }
        x
    }

    /// Train on a labeled batch of reports. Unlike the online pool
    /// classifier, LogClass needs the corpus up front: ILF statistics are
    /// global.
    pub fn fit(&mut self, reports: &[&AnomalyReport], labels: &[C]) {
        assert_eq!(reports.len(), labels.len(), "one label per report");
        assert!(!reports.is_empty(), "LogClass needs a training corpus");
        let dim = self.config.feature_dim;

        // ILF: words appearing at many distinct token positions are
        // value-like (low weight); keyword-like words occupy few positions.
        let mut locations: Vec<HashSet<usize>> = vec![HashSet::new(); dim];
        let mut max_loc = 1usize;
        for r in reports {
            for (w, pos) in report_words(r) {
                locations[hash_word(&w, dim)].insert(pos);
                max_loc = max_loc.max(pos + 1);
            }
        }
        self.ilf = locations
            .iter()
            .map(|locs| ((max_loc as f64 + 1.0) / (locs.len() as f64 + 1.0)).ln() + 1.0)
            .collect();

        // Multi-class perceptron over TF-ILF vectors.
        let features: Vec<Vec<f64>> = reports.iter().map(|r| self.featurize(r)).collect();
        self.weights.clear();
        for &c in labels {
            self.weights.entry(c).or_insert_with(|| vec![0.0; dim]);
        }
        for _ in 0..self.config.epochs {
            for (x, &y) in features.iter().zip(labels) {
                let scores: Vec<(C, f64)> = self
                    .weights
                    .iter()
                    .map(|(&c, w)| (c, w.iter().zip(x).map(|(a, b)| a * b).sum()))
                    .collect();
                let truth_score = scores
                    .iter()
                    .find(|(c, _)| *c == y)
                    .map(|(_, s)| *s)
                    .expect("truth class registered");
                let rival = scores
                    .iter()
                    .filter(|(c, _)| *c != y)
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                    .copied();
                if let Some((rc, rs)) = rival {
                    if truth_score <= rs {
                        let wt = self.weights.get_mut(&y).expect("registered");
                        for (w, xi) in wt.iter_mut().zip(x) {
                            *w += xi;
                        }
                        let wr = self.weights.get_mut(&rc).expect("registered");
                        for (w, xi) in wr.iter_mut().zip(x) {
                            *w -= xi;
                        }
                    }
                }
            }
        }
        self.trained = true;
    }

    /// Classify a report; `None` before training or with no classes.
    pub fn classify(&self, report: &AnomalyReport) -> Option<C> {
        if !self.trained || self.weights.is_empty() {
            return None;
        }
        let x = self.featurize(report);
        self.weights
            .iter()
            .map(|(c, w)| (*c, w.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{
        AnomalyKind, EventId, LogEvent, Severity, SourceId, TemplateId, Timestamp,
    };

    fn report(templates: &[u32], var: &str) -> AnomalyReport {
        let events = templates
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                LogEvent::new(
                    EventId(i as u64),
                    Timestamp::from_millis(i as u64),
                    SourceId(0),
                    Severity::Warning,
                    TemplateId(t),
                    vec![var.to_string()],
                    None,
                )
            })
            .collect();
        AnomalyReport {
            id: 0,
            kind: AnomalyKind::Sequential,
            score: 1.0,
            detector: "t".into(),
            events,
            explanation: String::new(),
            provenance: Default::default(),
        }
    }

    #[test]
    fn word_normalization_collapses_values() {
        assert_eq!(normalize("blk_1234"), "blk_#");
        assert_eq!(normalize("10.250.11.53"), "#.#.#.#");
        assert_eq!(normalize("Timeout"), "timeout");
        assert_eq!(normalize("x92y17"), "x#y#");
    }

    #[test]
    fn learns_to_separate_report_families() {
        let net: Vec<AnomalyReport> = (0..20)
            .map(|i| report(&[1, 2, 3], &format!("eth{i}")))
            .collect();
        let disk: Vec<AnomalyReport> = (0..20)
            .map(|i| report(&[7, 8, 9], &format!("sda{i}")))
            .collect();
        let mut reports: Vec<&AnomalyReport> = Vec::new();
        let mut labels: Vec<u8> = Vec::new();
        for r in &net {
            reports.push(r);
            labels.push(0);
        }
        for r in &disk {
            reports.push(r);
            labels.push(1);
        }
        let mut lc = LogClass::new(LogClassConfig::default());
        lc.fit(&reports, &labels);
        assert_eq!(lc.classify(&report(&[1, 2, 3], "eth99")), Some(0));
        assert_eq!(lc.classify(&report(&[7, 8, 9], "sda42")), Some(1));
    }

    #[test]
    fn untrained_classifier_abstains() {
        let lc: LogClass<u8> = LogClass::new(LogClassConfig::default());
        assert_eq!(lc.classify(&report(&[1], "x")), None);
        assert!(!lc.is_trained());
    }

    #[test]
    fn device_agnostic_generalization() {
        // Train on devices eth0-eth4; classify eth999 correctly because
        // normalization collapses all of them to "eth#".
        let a: Vec<AnomalyReport> = (0..5).map(|i| report(&[1], &format!("eth{i}"))).collect();
        let b: Vec<AnomalyReport> = (0..5).map(|i| report(&[9], &format!("vol{i}"))).collect();
        let mut reports: Vec<&AnomalyReport> = Vec::new();
        let mut labels = Vec::new();
        for r in &a {
            reports.push(r);
            labels.push('n');
        }
        for r in &b {
            reports.push(r);
            labels.push('s');
        }
        let mut lc = LogClass::new(LogClassConfig::default());
        lc.fit(&reports, &labels);
        assert_eq!(lc.classify(&report(&[1], "eth999")), Some('n'));
        assert_eq!(lc.classify(&report(&[9], "vol77777")), Some('s'));
    }

    #[test]
    fn refits_are_identical() {
        // Eight classes whose reports share most words: every score starts
        // at 0, so the first updates hinge on how score ties are broken.
        let reports: Vec<AnomalyReport> = (0..48)
            .map(|i| report(&[i % 8, 9], &format!("node{}", i % 3)))
            .collect();
        let refs: Vec<&AnomalyReport> = reports.iter().collect();
        let labels: Vec<u32> = (0..48).map(|i| (i * 5) % 8).collect();
        let fit = || {
            let mut lc = LogClass::new(LogClassConfig::default());
            lc.fit(&refs, &labels);
            lc
        };
        let (a, b) = (fit(), fit());
        assert_eq!(a.weights, b.weights);
        for r in &reports {
            assert_eq!(a.classify(r), b.classify(r));
        }
    }

    #[test]
    #[should_panic(expected = "needs a training corpus")]
    fn empty_corpus_rejected() {
        let mut lc: LogClass<u8> = LogClass::new(LogClassConfig::default());
        lc.fit(&[], &[]);
    }
}
