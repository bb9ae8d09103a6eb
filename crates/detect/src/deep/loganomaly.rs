//! LogAnomaly (Meng et al., IJCAI 2019: "Unsupervised detection of
//! sequential and quantitative anomalies in unstructured logs").
//!
//! Two ideas on top of DeepLog, both reproduced here:
//!
//! 1. **template2vec**: template ids are embedded by *semantic* vectors of
//!    their text, so the sequence model sees meaning rather than opaque
//!    ids. The paper's Section III: "the authors' intuition is that the
//!    majority of the new templates are just a minor variant of an
//!    existing one. [...] their system computes the similarity between a
//!    new template and the existing ones to find the best match." An
//!    unseen template is therefore **matched to its nearest known
//!    template** instead of being declared anomalous — the fix for the
//!    closed-world assumption.
//! 2. A **quantitative branch** over event-count patterns; we implement it
//!    as a per-template count z-score check over training windows (the
//!    full count-vector LSTM adds nothing at our window sizes; recorded as
//!    a simplification in `DESIGN.md`).

use crate::api::{violation_components, Assessment, Detector, TrainSet, Window};
use crate::deep;
use crate::semantic::TemplateVectorizer;
use crate::window::count_vector;
use monilog_model::codec::{CodecError, Decoder, Encoder};
use monilog_model::{Template, TemplateStore};
use monilog_nn::{Adam, Dense, Graph, Lstm, LstmScratch, Matrix, Optimizer, ParamSet, Var};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// LogAnomaly hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogAnomalyConfig {
    pub history: usize,
    pub top_g: usize,
    /// Dimension of the semantic template vectors.
    pub semantic_dim: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub batch_size: usize,
    pub max_samples: usize,
    /// Minimum cosine similarity for matching an unseen template to a
    /// known one; below this the event counts as a violation.
    pub match_threshold: f64,
    /// z-score bound of the quantitative (count) branch.
    pub count_tolerance: f64,
    pub seed: u64,
}

impl Default for LogAnomalyConfig {
    fn default() -> Self {
        LogAnomalyConfig {
            history: 10,
            top_g: 9,
            semantic_dim: 16,
            hidden: 32,
            epochs: 3,
            learning_rate: 0.01,
            batch_size: 64,
            max_samples: 20_000,
            match_threshold: 0.5,
            count_tolerance: 6.0,
            seed: 11,
        }
    }
}

/// The LogAnomaly detector.
#[derive(Debug)]
pub struct LogAnomaly {
    config: LogAnomalyConfig,
    vectorizer: Option<TemplateVectorizer>,
    /// Semantic vector per *known* (training) template id.
    known_vectors: HashMap<u32, Vec<f64>>,
    /// Vectors of templates seen only after training (instability);
    /// refreshed by [`Detector::update_templates`].
    extra_vectors: HashMap<u32, Vec<f64>>,
    train_vocab: Vec<u32>,
    /// Dense index of each known id in the softmax output.
    class_of: HashMap<u32, usize>,
    params: ParamSet,
    lstm: Option<Lstm>,
    head: Option<Dense>,
    /// Per-template count statistics (mean, std) over training windows.
    count_stats: Vec<(f64, f64)>,
    count_dim: usize,
    /// Cores a window's rows are spread over ([`deep::workers`]).
    workers: usize,
}

impl LogAnomaly {
    pub fn new(config: LogAnomalyConfig) -> Self {
        assert!(config.history >= 1);
        LogAnomaly {
            config,
            vectorizer: None,
            known_vectors: HashMap::new(),
            extra_vectors: HashMap::new(),
            train_vocab: Vec::new(),
            class_of: HashMap::new(),
            params: ParamSet::new(),
            lstm: None,
            head: None,
            count_stats: Vec::new(),
            count_dim: 2,
            workers: deep::workers(),
        }
    }

    /// The semantic vector of a template id (known or extra; `None` reads
    /// as the zero vector).
    fn vector_of(&self, id: u32) -> Option<&[f64]> {
        self.known_vectors
            .get(&id)
            .or_else(|| self.extra_vectors.get(&id))
            .map(Vec::as_slice)
    }

    /// template2vec matching: resolve an id to a *known* id, matching
    /// unseen templates to their most similar known template. `None` when
    /// nothing matches above the threshold.
    fn resolve(&self, id: u32) -> Option<u32> {
        if self.class_of.contains_key(&id) {
            return Some(id);
        }
        let v = self.extra_vectors.get(&id)?;
        let mut best: Option<(u32, f64)> = None;
        for (&kid, kv) in &self.known_vectors {
            let sim = TemplateVectorizer::similarity(v, kv);
            if sim >= self.config.match_threshold && best.is_none_or(|(_, bs)| sim > bs) {
                best = Some((kid, sim));
            }
        }
        best.map(|(kid, _)| kid)
    }

    /// Training samples: history of semantic vectors → next class.
    /// `resolve`-failures yield `None` targets (violations at test time).
    fn samples_of(&self, sequence: &[u32]) -> Vec<(Vec<Vec<f64>>, Option<usize>)> {
        let h = self.config.history;
        let mut out = Vec::new();
        for (i, &next) in sequence.iter().enumerate() {
            let mut hist = Vec::with_capacity(h);
            for k in 0..h {
                let pos = i as i64 - h as i64 + k as i64;
                let zero = || vec![0.0; self.config.semantic_dim]; // also PAD
                hist.push(if pos < 0 {
                    zero()
                } else {
                    let id = sequence[pos as usize];
                    let rid = self.resolve(id).unwrap_or(id);
                    self.vector_of(rid).map_or_else(zero, <[f64]>::to_vec)
                });
            }
            let target = self
                .resolve(next)
                .and_then(|rid| self.class_of.get(&rid).copied());
            out.push((hist, target));
        }
        out
    }

    /// Serialize a fitted detector: config, vectorizer, vocabulary,
    /// semantic vectors, network weights, count statistics. Unlike
    /// LogRobust, the vectorizer IS persisted, so a restored LogAnomaly
    /// keeps its headline ability: matching templates discovered *after*
    /// the restart to their nearest known neighbour.
    pub fn save(&self) -> Result<Vec<u8>, String> {
        let vectorizer = self
            .vectorizer
            .as_ref()
            .ok_or("cannot checkpoint an unfitted detector")?;
        if self.lstm.is_none() {
            return Err("cannot checkpoint an unfitted detector".to_string());
        }
        let c = &self.config;
        let mut e = Encoder::with_header(*b"LANM", 1);
        e.put_u32(c.history as u32);
        e.put_u32(c.top_g as u32);
        e.put_u32(c.semantic_dim as u32);
        e.put_u32(c.hidden as u32);
        e.put_u32(c.epochs as u32);
        e.put_f64(c.learning_rate);
        e.put_u32(c.batch_size as u32);
        e.put_u32(c.max_samples as u32);
        e.put_f64(c.match_threshold);
        e.put_f64(c.count_tolerance);
        e.put_u64(c.seed);
        let vz = vectorizer.encode();
        e.put_len(vz.len());
        for b in &vz {
            e.put_u8(*b);
        }
        e.put_len(self.train_vocab.len());
        for &id in &self.train_vocab {
            e.put_u32(id);
        }
        let mut known: Vec<(&u32, &Vec<f64>)> = self.known_vectors.iter().collect();
        known.sort_by_key(|(id, _)| **id);
        e.put_len(known.len());
        for (id, v) in known {
            e.put_u32(*id);
            e.put_f64_slice(v);
        }
        let matrices = self.params.export_matrices();
        e.put_len(matrices.len());
        for m in &matrices {
            let (rows, cols) = m.shape();
            e.put_u32(rows as u32);
            e.put_u32(cols as u32);
            e.put_f64_slice(m.data());
        }
        e.put_u32(self.count_dim as u32);
        e.put_len(self.count_stats.len());
        for (mean, std) in &self.count_stats {
            e.put_f64(*mean);
            e.put_f64(*std);
        }
        Ok(e.finish())
    }

    /// Restore from a [`LogAnomaly::save`] checkpoint; scores identically,
    /// and [`Detector::update_templates`] keeps working for new templates.
    pub fn load(bytes: &[u8]) -> Result<LogAnomaly, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"LANM", 1)?;
        let config = LogAnomalyConfig {
            history: d.get_u32()? as usize,
            top_g: d.get_u32()? as usize,
            semantic_dim: d.get_u32()? as usize,
            hidden: d.get_u32()? as usize,
            epochs: d.get_u32()? as usize,
            learning_rate: d.get_f64()?,
            batch_size: d.get_u32()? as usize,
            max_samples: d.get_u32()? as usize,
            match_threshold: d.get_f64()?,
            count_tolerance: d.get_f64()?,
            seed: d.get_u64()?,
        };
        if config.history == 0 {
            return Err(CodecError::Corrupt("history"));
        }
        let mut detector = LogAnomaly::new(config);
        let n = d.get_len()?;
        let mut vz_bytes = Vec::with_capacity(n);
        for _ in 0..n {
            vz_bytes.push(d.get_u8()?);
        }
        detector.vectorizer = Some(TemplateVectorizer::decode(&vz_bytes)?);
        let n = d.get_len()?;
        for _ in 0..n {
            detector.train_vocab.push(d.get_u32()?);
        }
        detector.class_of = detector
            .train_vocab
            .iter()
            .enumerate()
            .map(|(c, &id)| (id, c))
            .collect();
        let n = d.get_len()?;
        for _ in 0..n {
            let id = d.get_u32()?;
            let v = d.get_f64_slice()?;
            if v.len() != config.semantic_dim {
                return Err(CodecError::Corrupt("semantic vector dimension"));
            }
            detector.known_vectors.insert(id, v);
        }
        let (x, h, classes) = (
            config.semantic_dim as u64,
            config.hidden as u64,
            detector.train_vocab.len().max(2) as u64,
        );
        deep::weights_fit(
            &d,
            &[(x + h, 4 * h), (1, 4 * h), (h, classes), (1, classes)],
        )?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let lstm = Lstm::new(
            &mut detector.params,
            config.semantic_dim,
            config.hidden,
            &mut rng,
        );
        let head = Dense::new(
            &mut detector.params,
            config.hidden,
            detector.train_vocab.len().max(2),
            &mut rng,
        );
        let n = d.get_len()?;
        let mut matrices = Vec::with_capacity(n);
        for _ in 0..n {
            let rows = d.get_u32()? as usize;
            let cols = d.get_u32()? as usize;
            let data = d.get_f64_slice()?;
            if data.len() != rows * cols {
                return Err(CodecError::Corrupt("matrix shape vs data length"));
            }
            matrices.push(Matrix::from_vec(rows, cols, data));
        }
        detector
            .params
            .import_matrices(matrices)
            .map_err(|_| CodecError::Corrupt("parameter shapes vs config"))?;
        detector.lstm = Some(lstm);
        detector.head = Some(head);
        detector.count_dim = d.get_u32()? as usize;
        if detector.count_dim < 2 {
            return Err(CodecError::Corrupt("count dimension"));
        }
        let n = d.get_len()?;
        for _ in 0..n {
            let mean = d.get_f64()?;
            let std = d.get_f64()?;
            detector.count_stats.push((mean, std));
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(detector)
    }

    /// `(sequential, quantitative)` violation counts.
    pub fn violation_breakdown(&self, window: &Window) -> (usize, usize) {
        (
            self.sequence_violations(window),
            self.count_violations(window),
        )
    }

    /// Events whose (resolved) class is outside the model's top-g, plus
    /// events nothing known is even similar to. The whole window goes
    /// through one batched, tape-free forward pass, its rows split across
    /// the available cores when there are enough of them; every event's
    /// input projection is computed once and gathered per history position.
    fn sequence_violations(&self, window: &Window) -> usize {
        let (lstm, head) = (
            self.lstm.as_ref().expect("fitted"),
            self.head.as_ref().expect("fitted"),
        );
        let h = self.config.history;
        let g_top = self
            .config
            .top_g
            .min(self.train_vocab.len().saturating_sub(1))
            .max(1);
        let resolved: Vec<Option<u32>> =
            window.sequence.iter().map(|&id| self.resolve(id)).collect();
        // (position, class) of every event that resolves to a known class.
        let targets: Vec<(usize, usize)> = resolved
            .iter()
            .enumerate()
            .filter_map(|(i, rid)| Some((i, *self.class_of.get(&(*rid)?)?)))
            .collect();
        let violations = window.sequence.len() - targets.len();
        if targets.is_empty() {
            return violations;
        }

        let mut vectors = Matrix::zeros(window.sequence.len(), self.config.semantic_dim);
        for (i, (&id, rid)) in window.sequence.iter().zip(&resolved).enumerate() {
            if let Some(v) = self.vector_of(rid.unwrap_or(id)) {
                vectors.row_slice_mut(i).copy_from_slice(v);
            }
        }
        let mut projected = Matrix::default();
        lstm.project_input(&self.params, &vectors, &mut projected);
        // Per target row: is its class outside the top-g?
        let outside = deep::fan_out(
            targets.len(),
            deep::chunks(targets.len(), self.workers),
            &mut (LstmScratch::default(), Matrix::default()),
            |rows, (scratch, logits)| {
                let targets = &targets[rows];
                let hidden =
                    lstm.infer_last(&self.params, targets.len(), h, scratch, |t, gates| {
                        for (r, &(i, _)) in targets.iter().enumerate() {
                            // Positions before the window are PAD, the zero
                            // vector, whose projection is the zero row
                            // `gates` already holds.
                            if let Some(pos) = (i + t).checked_sub(h) {
                                gates
                                    .row_slice_mut(r)
                                    .copy_from_slice(projected.row_slice(pos));
                            }
                        }
                    });
                head.infer(&self.params, hidden, logits);
                targets
                    .iter()
                    .enumerate()
                    .map(|(r, &(_, class))| {
                        let row = logits.row_slice(r);
                        // Place of `class` in a stable descending sort of
                        // the logits.
                        let ahead = row
                            .iter()
                            .enumerate()
                            .filter(|&(c, &l)| l > row[class] || (l == row[class] && c < class))
                            .count();
                        ahead >= g_top
                    })
                    .collect()
            },
        );
        violations + outside.into_iter().filter(|&outside| outside).count()
    }

    fn count_violations(&self, window: &Window) -> usize {
        // Counts are taken over *resolved* template ids: an evolved variant
        // contributes to its origin's count, exactly as the sequential
        // branch treats it. Unresolvable ids fold into the unseen bucket.
        // Counted directly (no intermediate resolved Window — this runs
        // once per scored window on the live path).
        let mut counts = vec![0.0f64; self.count_dim];
        for &id in &window.sequence {
            let rid = self.resolve(id).unwrap_or(self.count_dim as u32 - 1) as usize;
            counts[rid.min(self.count_dim - 1)] += 1.0;
        }
        counts
            .iter()
            .zip(&self.count_stats)
            .filter(|(&c, &(mean, std))| {
                if std > 0.0 {
                    (c - mean).abs() > self.config.count_tolerance * std
                } else {
                    // Constant count in training (e.g. always 0): tolerate
                    // ±1 (sessions vary in length), flag larger jumps.
                    (c - mean).abs() > 1.0
                }
            })
            .count()
    }
}

impl Detector for LogAnomaly {
    fn name(&self) -> &'static str {
        "LogAnomaly"
    }

    fn save_state(&self) -> Result<Vec<u8>, String> {
        self.save()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = LogAnomaly::load(bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(!normal.is_empty(), "LogAnomaly needs training windows");
        let store = train
            .templates
            .as_ref()
            .expect("LogAnomaly requires TrainSet::templates (semantic vectors)");

        // Known vocabulary = ids occurring in training windows.
        let mut vocab: Vec<u32> = normal
            .iter()
            .flat_map(|w| w.sequence.iter().copied())
            .collect();
        vocab.sort_unstable();
        vocab.dedup();
        self.train_vocab = vocab;
        self.class_of = self
            .train_vocab
            .iter()
            .enumerate()
            .map(|(c, &id)| (id, c))
            .collect();

        // Fit the vectorizer on the known templates.
        let known_templates: Vec<&Template> = self
            .train_vocab
            .iter()
            .filter_map(|&id| store.get(monilog_model::TemplateId(id)))
            .collect();
        let vectorizer = TemplateVectorizer::fit(&known_templates, self.config.semantic_dim, 2);
        self.known_vectors = self
            .train_vocab
            .iter()
            .filter_map(|&id| {
                store
                    .get(monilog_model::TemplateId(id))
                    .map(|t| (id, vectorizer.vectorize(t)))
            })
            .collect();
        self.vectorizer = Some(vectorizer);
        self.extra_vectors.clear();
        self.update_templates(store);

        // Sequential model over semantic vectors.
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.params = ParamSet::new();
        let lstm = Lstm::new(
            &mut self.params,
            self.config.semantic_dim,
            self.config.hidden,
            &mut rng,
        );
        let head = Dense::new(
            &mut self.params,
            self.config.hidden,
            self.train_vocab.len().max(2),
            &mut rng,
        );

        let mut samples: Vec<(Vec<Vec<f64>>, usize)> = Vec::new();
        for w in &normal {
            for (hist, target) in self.samples_of(&w.sequence) {
                if let Some(t) = target {
                    samples.push((hist, t));
                }
            }
        }
        if samples.len() > self.config.max_samples {
            let stride = samples.len() as f64 / self.config.max_samples as f64;
            samples = (0..self.config.max_samples)
                .map(|k| samples[(k as f64 * stride) as usize].clone())
                .collect();
        }

        let mut opt = Adam::new(self.config.learning_rate);
        let h = self.config.history;
        for _ in 0..self.config.epochs {
            for i in (1..samples.len()).rev() {
                let j = rng.random_range(0..=i);
                samples.swap(i, j);
            }
            for batch in samples.chunks(self.config.batch_size) {
                self.params.zero_grads();
                let mut g = Graph::new();
                let xs: Vec<Var> = (0..h)
                    .map(|t| {
                        let mut m = Matrix::zeros(batch.len(), self.config.semantic_dim);
                        for (r, (hist, _)) in batch.iter().enumerate() {
                            for (c, &x) in hist[t].iter().enumerate() {
                                m.set(r, c, x);
                            }
                        }
                        g.input(m)
                    })
                    .collect();
                let states = lstm.run(&mut g, &self.params, &xs);
                let logits = head.forward(&mut g, &self.params, states.last().expect("h ≥ 1").h);
                let targets: Vec<usize> = batch.iter().map(|(_, t)| *t).collect();
                let loss = g.softmax_xent(logits, targets);
                g.backward(loss, &mut self.params);
                self.params.clip_grad_norm(5.0);
                opt.step(&mut self.params);
            }
        }
        self.lstm = Some(lstm);
        self.head = Some(head);

        // Quantitative branch: per-template count statistics.
        self.count_dim = train.max_template_id().map(|m| m as usize + 2).unwrap_or(2);
        let n = normal.len() as f64;
        let mut mean = vec![0.0; self.count_dim];
        let mut m2 = vec![0.0; self.count_dim];
        let vectors: Vec<Vec<f64>> = normal
            .iter()
            .map(|w| count_vector(w, self.count_dim))
            .collect();
        for v in &vectors {
            for (m, x) in mean.iter_mut().zip(v) {
                *m += x / n;
            }
        }
        for v in &vectors {
            for ((s, x), m) in m2.iter_mut().zip(v).zip(&mean) {
                *s += (x - m) * (x - m) / n;
            }
        }
        self.count_stats = mean
            .into_iter()
            .zip(m2.into_iter().map(f64::sqrt))
            .collect();
    }

    fn score(&self, window: &Window) -> f64 {
        (self.sequence_violations(window) + self.count_violations(window)) as f64
    }

    fn threshold(&self) -> f64 {
        0.0
    }

    fn score_components(&self, window: &Window) -> Vec<monilog_model::ScoreComponent> {
        let (seq, quant) = self.violation_breakdown(window);
        violation_components(seq, quant, self.threshold())
    }

    fn assess(&self, window: &Window) -> Option<Assessment> {
        let (seq, quant) = self.violation_breakdown(window);
        Assessment::of_violations(seq, quant, self.threshold())
    }

    /// Vectorize templates discovered after training so unseen ids can be
    /// semantically matched instead of flagged.
    fn update_templates(&mut self, templates: &TemplateStore) {
        let Some(vectorizer) = &self.vectorizer else {
            return;
        };
        for t in templates.iter() {
            let id = t.id.0;
            if !self.known_vectors.contains_key(&id) {
                self.extra_vectors.insert(id, vectorizer.vectorize(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{TemplateId, TemplateStore, TemplateToken};

    fn store_with(patterns: &[&str]) -> TemplateStore {
        let mut store = TemplateStore::new();
        for p in patterns {
            let tokens: Vec<TemplateToken> = Template::from_pattern(TemplateId(0), p).tokens;
            store.intern(tokens);
        }
        store
    }

    fn small_config() -> LogAnomalyConfig {
        LogAnomalyConfig {
            history: 4,
            top_g: 2,
            semantic_dim: 12,
            hidden: 16,
            epochs: 8,
            batch_size: 32,
            learning_rate: 0.02,
            ..Default::default()
        }
    }

    /// Flow over templates 0→1→2→3; template 4 (in store, never in
    /// training data) is a *variant* of template 1.
    fn fixture() -> (TrainSet, TemplateStore) {
        let store = store_with(&[
            "job <*> submitted to queue",
            "job <*> scheduled on node <*>",
            "job <*> finished with code <*>",
            "job <*> archived to store",
            // Template 4: evolved variant of "scheduled on node".
            "job <*> successfully scheduled on node <*>",
            // Template 5: semantically unrelated.
            "authentication token rejected hard",
        ]);
        let windows: Vec<Window> = (0..80)
            .map(|_| Window::from_ids(vec![0, 1, 2, 3]))
            .collect();
        let train = TrainSet::unlabeled(windows).with_templates(store.clone());
        (train, store)
    }

    #[test]
    fn learns_the_flow() {
        let (train, _) = fixture();
        let mut d = LogAnomaly::new(small_config());
        d.fit(&train);
        assert!(!d.predict(&Window::from_ids(vec![0, 1, 2, 3])));
    }

    #[test]
    fn wrong_order_is_flagged() {
        let (train, _) = fixture();
        let mut d = LogAnomaly::new(small_config());
        d.fit(&train);
        assert!(d.predict(&Window::from_ids(vec![0, 3, 1, 2])));
    }

    #[test]
    fn unseen_variant_template_is_matched_not_flagged() {
        // The LogAnomaly headline: template 4 ("successfully scheduled") is
        // unseen but semantically a variant of template 1 — it must resolve
        // to template 1 and keep the sequence normal.
        let (train, store) = fixture();
        let mut d = LogAnomaly::new(small_config());
        d.fit(&train);
        d.update_templates(&store);
        assert_eq!(d.resolve(4), Some(1), "variant not matched to its origin");
        let w = Window::from_ids(vec![0, 4, 2, 3]);
        assert_eq!(
            d.sequence_violations(&w),
            0,
            "matched variant still flagged"
        );
    }

    #[test]
    fn unrelated_unseen_template_is_flagged() {
        let (train, store) = fixture();
        let mut d = LogAnomaly::new(small_config());
        d.fit(&train);
        d.update_templates(&store);
        // Template 5 shares no vocabulary: no match above threshold.
        assert_eq!(d.resolve(5), None);
        let w = Window::from_ids(vec![0, 5, 2, 3]);
        assert!(d.predict(&w));
    }

    #[test]
    fn count_branch_catches_bursts() {
        let (train, _) = fixture();
        let mut d = LogAnomaly::new(small_config());
        d.fit(&train);
        // 12 repetitions of template 1: wildly off the count distribution
        // (every training window has exactly one).
        let w = Window::from_ids(vec![0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3]);
        assert!(d.count_violations(&w) > 0);
    }

    #[test]
    fn checkpoint_round_trip_keeps_semantic_matching() {
        let (train, store) = fixture();
        let mut d = LogAnomaly::new(small_config());
        d.fit(&train);
        let bytes = d.save().expect("fitted model checkpoints");
        let mut restored = LogAnomaly::load(&bytes).expect("valid checkpoint");

        // Identical scores on known windows.
        for w in [
            Window::from_ids(vec![0, 1, 2, 3]),
            Window::from_ids(vec![0, 3, 1, 2]),
        ] {
            assert_eq!(
                d.score(&w),
                restored.score(&w),
                "diverged on {:?}",
                w.sequence
            );
        }
        // The headline: a template discovered AFTER the restart (id 4, the
        // evolved variant) still resolves to its origin.
        restored.update_templates(&store);
        assert_eq!(
            restored.resolve(4),
            Some(1),
            "semantic matching lost across restart"
        );
        assert_eq!(
            restored.sequence_violations(&Window::from_ids(vec![0, 4, 2, 3])),
            0
        );
        // Corruption is rejected.
        let mut bad = bytes.clone();
        bad.truncate(bad.len() - 3);
        assert!(LogAnomaly::load(&bad).is_err());
        // A damaged header is an error, not a panic or a huge allocation:
        // `history` at byte 6, `hidden` at byte 18.
        for (at, value) in [(6, 0), (18, 1 << 31)] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&u32::to_le_bytes(value));
            assert!(
                matches!(LogAnomaly::load(&bad), Err(CodecError::Corrupt(_))),
                "field at byte {at} = {value} accepted"
            );
        }
        assert!(LogAnomaly::new(small_config()).save().is_err(), "unfitted");
    }

    /// Classes ranked by the tape forward pass for one history: the
    /// inference path before it went tape-free, kept as the oracle.
    fn predict_classes(d: &LogAnomaly, hist: &[Vec<f64>]) -> Vec<usize> {
        let (lstm, head) = (
            d.lstm.as_ref().expect("fitted"),
            d.head.as_ref().expect("fitted"),
        );
        let mut g = Graph::new();
        let xs: Vec<Var> = hist.iter().map(|v| g.input(Matrix::row(v))).collect();
        let states = lstm.run(&mut g, &d.params, &xs);
        let logits = head.forward(&mut g, &d.params, states.last().expect("h ≥ 1").h);
        let row = g.value(logits);
        let mut scored: Vec<(usize, f64)> = (0..row.cols).map(|c| (c, row.get(0, c))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        scored.into_iter().map(|(c, _)| c).collect()
    }

    /// The inference path before batching: every sample's history
    /// materialized, one tape forward per sample.
    fn oracle_sequence_violations(d: &LogAnomaly, window: &Window) -> usize {
        let g_top = d
            .config
            .top_g
            .min(d.train_vocab.len().saturating_sub(1))
            .max(1);
        d.samples_of(&window.sequence)
            .into_iter()
            .filter(|(hist, target)| {
                target.is_none_or(|class| !predict_classes(d, hist)[..g_top].contains(&class))
            })
            .count()
    }

    /// The batched tape-free path flags exactly the events the per-sample
    /// tape flags, on shuffled HDFS and cloud windows with evolved
    /// (semantically matched), unmatched and vectorless templates and
    /// windows shorter than `h`.
    #[test]
    fn batched_inference_equals_the_tape_oracle() {
        let config = LogAnomalyConfig {
            history: 6,
            top_g: 2,
            epochs: 1,
            max_samples: 1_500,
            ..Default::default()
        };
        let (train, mut probes, store) = crate::deep::testdata::corpus(config.history);
        let long = crate::deep::testdata::long_windows(&probes);
        probes.extend(long);
        let mut d = LogAnomaly::new(config);
        d.fit(&train);
        d.update_templates(&store);
        assert!(!d.extra_vectors.is_empty(), "no post-training template");
        let oracle: Vec<usize> = probes
            .iter()
            .map(|w| oracle_sequence_violations(&d, w))
            .collect();
        assert!(
            oracle.iter().sum::<usize>() > 0,
            "no probe violated the model"
        );
        for workers in [1, 2, 3, 5] {
            d.workers = workers;
            let before = crate::deep::SPAWNED.with(|n| n.get());
            for (w, expected) in probes.iter().zip(&oracle) {
                let got = d.sequence_violations(w);
                assert_eq!(got, *expected, "{workers} workers: {:?}", w.sequence);
            }
            let spawned = crate::deep::SPAWNED.with(|n| n.get()) - before;
            assert_eq!(
                spawned > 0,
                workers > 1,
                "{workers} workers: {spawned} spawns"
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires TrainSet::templates")]
    fn missing_template_store_panics() {
        let mut d = LogAnomaly::new(small_config());
        d.fit(&TrainSet::unlabeled(vec![Window::from_ids(vec![0])]));
    }
}
