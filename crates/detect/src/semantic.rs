//! Semantic template vectorization.
//!
//! LogRobust's *semantic vectorization* ("semantic relationships between
//! tokens are used to create fixed-length vectors [...] to vectorize a new
//! template without changing the vector length", Section III) originally
//! relies on pre-trained FastText embeddings. None are available offline,
//! so we substitute **random indexing + co-occurrence smoothing**:
//!
//! 1. Every word gets a deterministic pseudo-random unit vector derived
//!    from its hash — stable across runs and for never-seen words.
//! 2. A few smoothing iterations pull together words that co-occur inside
//!    the same templates (the distributional-semantics signal available
//!    without external data).
//! 3. A template's vector is the IDF-weighted mean of its word vectors,
//!    L2-normalized.
//!
//! This preserves the two properties the detectors need: templates sharing
//! words map to nearby vectors, and *any* new template gets a vector of
//! the same dimensionality without retraining. Substitution recorded in
//! `DESIGN.md`.

use monilog_model::codec::{CodecError, Decoder, Encoder};
use monilog_model::hash::splitmix64_seq;
use monilog_model::tokenize::{normalize_word, split_identifier_with};
use monilog_model::{Template, TemplateToken};
use std::collections::HashMap;

/// Turns templates into fixed-length semantic vectors.
#[derive(Debug, Clone)]
pub struct TemplateVectorizer {
    dim: usize,
    /// Smoothed vectors of corpus words.
    word_vectors: HashMap<String, Vec<f64>>,
    /// Document frequency of each word over the fitted templates.
    doc_freq: HashMap<String, usize>,
    n_templates: usize,
}

/// The words of a template's static tokens, normalized and split on
/// identifier boundaries.
fn template_words(template: &Template) -> Vec<String> {
    let mut words = Vec::new();
    for tok in &template.tokens {
        if let TemplateToken::Static(s) = tok {
            // `normalize_word` borrows unless the case changes, and the
            // splitter streams words through one reused scratch buffer —
            // no `Vec<String>` per token.
            let cleaned = normalize_word(s);
            if cleaned.is_empty() {
                continue;
            }
            split_identifier_with(&cleaned, |w| {
                if w.len() >= 2 {
                    words.push(w.to_string());
                }
            });
        }
    }
    words
}

/// Deterministic unit vector for a word (random indexing): the SplitMix64
/// sequence seeded with a hash of the word, mapped into [-1, 1].
///
/// The seed is an FNV-style fold whose multiplier is `0x1000_0000_01b3`,
/// sixteen times FNV-1a's prime, so it is not [`monilog_model::hash::fnv1a`].
/// Every trained LogAnomaly/LogRobust model and the pinned golden hashes
/// depend on these vectors, so the fold stays as it is.
fn base_vector(word: &str, dim: usize) -> Vec<f64> {
    let seed = word.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    let mut v: Vec<f64> = splitmix64_seq(seed)
        .take(dim)
        .map(|z| (z as f64 / u64::MAX as f64) * 2.0 - 1.0)
        .collect();
    normalize(&mut v);
    v
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

impl TemplateVectorizer {
    /// Build a vectorizer of dimension `dim`, fitted on `templates` with
    /// `smoothing_iters` co-occurrence smoothing rounds (2 is a good
    /// default; 0 disables smoothing).
    pub fn fit(templates: &[&Template], dim: usize, smoothing_iters: usize) -> Self {
        assert!(dim >= 2, "vector dimension too small");
        let word_lists: Vec<Vec<String>> = templates.iter().map(|t| template_words(t)).collect();

        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        for words in &word_lists {
            let mut seen: Vec<&String> = words.iter().collect();
            seen.sort();
            seen.dedup();
            for w in seen {
                *doc_freq.entry(w.clone()).or_default() += 1;
            }
        }

        let mut word_vectors: HashMap<String, Vec<f64>> = doc_freq
            .keys()
            .map(|w| (w.clone(), base_vector(w, dim)))
            .collect();

        // Smoothing: each word drifts toward the centroids of the templates
        // it appears in, pulling co-occurring words together.
        for _ in 0..smoothing_iters {
            // Template centroids under current vectors.
            let centroids: Vec<Vec<f64>> = word_lists
                .iter()
                .map(|words| {
                    let mut c = vec![0.0; dim];
                    for w in words {
                        if let Some(v) = word_vectors.get(w) {
                            for (ci, vi) in c.iter_mut().zip(v) {
                                *ci += vi;
                            }
                        }
                    }
                    normalize(&mut c);
                    c
                })
                .collect();
            // Pull each word toward the mean centroid of its templates.
            let mut pulls: HashMap<&String, (Vec<f64>, usize)> = HashMap::new();
            for (words, centroid) in word_lists.iter().zip(&centroids) {
                for w in words {
                    let entry = pulls.entry(w).or_insert_with(|| (vec![0.0; dim], 0));
                    for (pi, ci) in entry.0.iter_mut().zip(centroid) {
                        *pi += ci;
                    }
                    entry.1 += 1;
                }
            }
            let updates: Vec<(String, Vec<f64>)> = pulls
                .into_iter()
                .map(|(w, (sum, n))| {
                    let current = &word_vectors[w];
                    let mut blended: Vec<f64> = current
                        .iter()
                        .zip(&sum)
                        .map(|(c, s)| 0.6 * c + 0.4 * s / n as f64)
                        .collect();
                    normalize(&mut blended);
                    (w.clone(), blended)
                })
                .collect();
            for (w, v) in updates {
                word_vectors.insert(w, v);
            }
        }

        TemplateVectorizer {
            dim,
            word_vectors,
            doc_freq,
            n_templates: templates.len().max(1),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vectorize a template: IDF-weighted mean of its word vectors. Unknown
    /// words fall back to their deterministic base vector, so new templates
    /// (log instability!) get stable same-dimension vectors.
    pub fn vectorize(&self, template: &Template) -> Vec<f64> {
        let words = template_words(template);
        let mut out = vec![0.0; self.dim];
        if words.is_empty() {
            return out;
        }
        for w in &words {
            let idf = {
                let df = self.doc_freq.get(w).copied().unwrap_or(0);
                ((self.n_templates as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0
            };
            let base;
            let v = match self.word_vectors.get(w) {
                Some(v) => v,
                None => {
                    base = base_vector(w, self.dim);
                    &base
                }
            };
            for (o, vi) in out.iter_mut().zip(v) {
                *o += idf * vi;
            }
        }
        normalize(&mut out);
        out
    }

    /// Serialize the fitted vectorizer (word vectors + document
    /// frequencies) so checkpointed detectors keep their ability to
    /// vectorize templates discovered after a restart.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(*b"SVEC", 1);
        e.put_u32(self.dim as u32);
        e.put_u64(self.n_templates as u64);
        let mut words: Vec<(&String, &Vec<f64>)> = self.word_vectors.iter().collect();
        words.sort_by_key(|(w, _)| w.as_str());
        e.put_len(words.len());
        for (w, v) in words {
            e.put_str(w);
            e.put_f64_slice(v);
            e.put_u64(self.doc_freq.get(w).copied().unwrap_or(0) as u64);
        }
        e.finish()
    }

    /// Restore a vectorizer from [`TemplateVectorizer::encode`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<TemplateVectorizer, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"SVEC", 1)?;
        let dim = d.get_u32()? as usize;
        if dim < 2 {
            return Err(CodecError::Corrupt("vector dimension"));
        }
        let n_templates = d.get_u64()? as usize;
        let n = d.get_len()?;
        let mut word_vectors = HashMap::with_capacity(n);
        let mut doc_freq = HashMap::with_capacity(n);
        for _ in 0..n {
            let w = d.get_str()?;
            let v = d.get_f64_slice()?;
            if v.len() != dim {
                return Err(CodecError::Corrupt("word vector dimension"));
            }
            let df = d.get_u64()? as usize;
            doc_freq.insert(w.clone(), df);
            word_vectors.insert(w, v);
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(TemplateVectorizer {
            dim,
            word_vectors,
            doc_freq,
            n_templates: n_templates.max(1),
        })
    }

    /// Cosine similarity of two template vectors.
    pub fn similarity(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::TemplateId;

    fn t(pattern: &str) -> Template {
        Template::from_pattern(TemplateId(0), pattern)
    }

    fn fit(patterns: &[&str]) -> (TemplateVectorizer, Vec<Template>) {
        let templates: Vec<Template> = patterns.iter().map(|p| t(p)).collect();
        let refs: Vec<&Template> = templates.iter().collect();
        (TemplateVectorizer::fit(&refs, 16, 2), templates)
    }

    #[test]
    fn vectors_are_unit_norm_and_fixed_dim() {
        let (vz, templates) = fit(&[
            "Receiving block <*> src: <*>",
            "Verification succeeded for <*>",
        ]);
        for tpl in &templates {
            let v = vz.vectorize(tpl);
            assert_eq!(v.len(), 16);
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_words_mean_closer_vectors() {
        let (vz, _) = fit(&[
            "Receiving block <*> src: <*> dest: <*>",
            "Received block <*> of size <*>",
            "Authentication failed for user <*>",
        ]);
        let recv1 = vz.vectorize(&t("Receiving block <*> src: <*> dest: <*>"));
        let recv2 = vz.vectorize(&t("Received block <*> of size <*>"));
        let auth = vz.vectorize(&t("Authentication failed for user <*>"));
        let close = TemplateVectorizer::similarity(&recv1, &recv2);
        let far = TemplateVectorizer::similarity(&recv1, &auth);
        assert!(close > far, "block templates {close} vs auth {far}");
    }

    #[test]
    fn evolved_template_stays_near_its_origin() {
        // The instability case: a twisted statement keeps most words, so
        // its vector stays near the original — the property that makes
        // LogRobust robust.
        let (vz, _) = fit(&[
            "Request <*> completed status <*> in <*> ms",
            "Job <*> scheduled on node <*>",
        ]);
        let orig = vz.vectorize(&t("Request <*> completed status <*> in <*> ms"));
        let twisted = vz.vectorize(&t(
            "Request <*> successfully completed status <*> in <*> ms",
        ));
        let other = vz.vectorize(&t("Job <*> scheduled on node <*>"));
        assert!(
            TemplateVectorizer::similarity(&orig, &twisted)
                > TemplateVectorizer::similarity(&orig, &other)
        );
        assert!(TemplateVectorizer::similarity(&orig, &twisted) > 0.8);
    }

    #[test]
    fn unknown_words_are_deterministic() {
        let (vz, _) = fit(&["known words only"]);
        let a = vz.vectorize(&t("completely novel statement"));
        let b = vz.vectorize(&t("completely novel statement"));
        assert_eq!(a, b);
        assert!(a.iter().any(|x| *x != 0.0));
    }

    #[test]
    fn all_wildcard_template_is_zero_vector() {
        let (vz, _) = fit(&["some corpus line"]);
        let v = vz.vectorize(&t("<*> <*>"));
        assert!(v.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn vectorizer_persistence_round_trip() {
        let (vz, _) = fit(&[
            "Receiving block <*> src: <*>",
            "Request <*> completed in <*> ms",
        ]);
        let bytes = vz.encode();
        let restored = TemplateVectorizer::decode(&bytes).expect("round trip");
        // Identical vectors for known and novel templates alike.
        for pattern in [
            "Receiving block <*> src: <*>",
            "Request <*> successfully completed in <*> ms", // evolved, unseen
            "completely novel words",
        ] {
            let tpl = t(pattern);
            assert_eq!(vz.vectorize(&tpl), restored.vectorize(&tpl), "{pattern}");
        }
        assert!(TemplateVectorizer::decode(b"junk").is_err());
    }

    #[test]
    fn base_vectors_differ_across_words() {
        let a = base_vector("sending", 16);
        let b = base_vector("receiving", 16);
        assert_ne!(a, b);
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(
            dot.abs() < 0.9,
            "random base vectors should not be collinear"
        );
    }
}
