//! LogRobust (Zhang et al., ESEC/FSE 2019: "Robust log-based anomaly
//! detection on unstable log data").
//!
//! Pipeline, as Section III describes: *semantic vectorization* turns each
//! template into a fixed-length vector ("this method is used to vectorize
//! a new template without changing the vector length"), a BiLSTM with
//! attention encodes the window, and a **supervised** classifier decides
//! normal/anomalous.
//!
//! Two properties matter for the experiments:
//! - robustness: evolved templates get vectors near their originals, so
//!   instability (P2/X1) degrades it least;
//! - supervision: "LogRobust is trained using a training set composed at
//!   50% by anomalous loglines" — under the paper's anomaly-free regime
//!   (P1) it has no positive class to learn and collapses to
//!   predict-normal, which is the finding P1 exists to show.

use crate::api::{Detector, TrainSet, Window};
use crate::deep;
use crate::semantic::TemplateVectorizer;
use monilog_model::codec::{CodecError, Decoder, Encoder};
use monilog_model::{Template, TemplateStore};
use monilog_nn::{Adam, Attention, BiLstm, Dense, Graph, Matrix, Optimizer, ParamSet, Var};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// LogRobust hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogRobustConfig {
    /// Dimension of the semantic template vectors.
    pub semantic_dim: usize,
    /// BiLSTM hidden size per direction.
    pub hidden: usize,
    /// Attention projection size.
    pub attention_dim: usize,
    /// Maximum window length fed to the encoder (longer windows truncate).
    pub max_len: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    /// Cap on training windows per epoch (balanced resampling).
    pub max_windows: usize,
    pub seed: u64,
}

impl Default for LogRobustConfig {
    fn default() -> Self {
        LogRobustConfig {
            semantic_dim: 16,
            hidden: 24,
            attention_dim: 16,
            max_len: 50,
            epochs: 4,
            learning_rate: 0.01,
            max_windows: 4_000,
            seed: 13,
        }
    }
}

/// The LogRobust detector.
#[derive(Debug)]
pub struct LogRobust {
    config: LogRobustConfig,
    vectorizer: Option<TemplateVectorizer>,
    vectors: HashMap<u32, Vec<f64>>,
    params: ParamSet,
    encoder: Option<BiLstm>,
    attention: Option<Attention>,
    head: Option<Dense>,
    /// True when training had no anomalous examples — the degenerate P1
    /// regime; the model then always predicts "normal".
    degraded: bool,
}

impl LogRobust {
    pub fn new(config: LogRobustConfig) -> Self {
        assert!(config.max_len >= 1);
        LogRobust {
            config,
            vectorizer: None,
            vectors: HashMap::new(),
            params: ParamSet::new(),
            encoder: None,
            attention: None,
            head: None,
            degraded: true,
        }
    }

    /// Whether the detector fell back to always-normal because training
    /// contained no anomalous windows (experiment P1's regime).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Serialize a fitted (non-degraded) classifier: config, per-template
    /// semantic vectors, and network weights.
    ///
    /// The word-level vectorizer is not persisted, so the checkpoint
    /// freezes the vector table: templates discovered *after* the
    /// checkpoint score as zero vectors until the model is refitted. For
    /// deployments under heavy log churn, refit (cheap) rather than
    /// restore.
    pub fn save(&self) -> Result<Vec<u8>, String> {
        if self.degraded || self.encoder.is_none() {
            return Err("cannot checkpoint a degraded/unfitted LogRobust".to_string());
        }
        let c = &self.config;
        let mut e = Encoder::with_header(*b"LRBT", 1);
        e.put_u32(c.semantic_dim as u32);
        e.put_u32(c.hidden as u32);
        e.put_u32(c.attention_dim as u32);
        e.put_u32(c.max_len as u32);
        e.put_u32(c.epochs as u32);
        e.put_f64(c.learning_rate);
        e.put_u32(c.max_windows as u32);
        e.put_u64(c.seed);
        let mut vectors: Vec<(&u32, &Vec<f64>)> = self.vectors.iter().collect();
        vectors.sort_by_key(|(id, _)| **id);
        e.put_len(vectors.len());
        for (id, v) in vectors {
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
        Ok(e.finish())
    }

    /// Restore from a [`LogRobust::save`] checkpoint; scores identically.
    pub fn load(bytes: &[u8]) -> Result<LogRobust, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"LRBT", 1)?;
        let config = LogRobustConfig {
            semantic_dim: d.get_u32()? as usize,
            hidden: d.get_u32()? as usize,
            attention_dim: d.get_u32()? as usize,
            max_len: d.get_u32()? as usize,
            epochs: d.get_u32()? as usize,
            learning_rate: d.get_f64()?,
            max_windows: d.get_u32()? as usize,
            seed: d.get_u64()?,
        };
        if config.max_len == 0 {
            return Err(CodecError::Corrupt("max length"));
        }
        let mut detector = LogRobust::new(config);
        let n = d.get_len()?;
        for _ in 0..n {
            let id = d.get_u32()?;
            let v = d.get_f64_slice()?;
            if v.len() != config.semantic_dim {
                return Err(CodecError::Corrupt("semantic vector dimension"));
            }
            detector.vectors.insert(id, v);
        }
        let (x, h, a) = (
            config.semantic_dim as u64,
            config.hidden as u64,
            config.attention_dim as u64,
        );
        // Both LSTM directions at once, then attention and head.
        deep::weights_fit(
            &d,
            &[
                (x + h, 8 * h),
                (1, 8 * h),
                (2 * h, a),
                (a, 1),
                (2 * h, 2),
                (1, 2),
            ],
        )?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = BiLstm::new(
            &mut detector.params,
            config.semantic_dim,
            config.hidden,
            &mut rng,
        );
        let attention = Attention::new(
            &mut detector.params,
            2 * config.hidden,
            config.attention_dim,
            &mut rng,
        );
        let head = Dense::new(&mut detector.params, 2 * config.hidden, 2, &mut rng);
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
        detector.encoder = Some(encoder);
        detector.attention = Some(attention);
        detector.head = Some(head);
        detector.degraded = false;
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(detector)
    }

    fn vector_of(&self, id: u32) -> Vec<f64> {
        self.vectors
            .get(&id)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.config.semantic_dim])
    }

    /// The T×d semantic matrix of a window (truncated to `max_len`).
    fn window_matrix(&self, window: &Window) -> Matrix {
        let take = window.sequence.len().min(self.config.max_len);
        let mut m = Matrix::zeros(take.max(1), self.config.semantic_dim);
        for (r, &id) in window.sequence.iter().take(take).enumerate() {
            for (c, x) in self.vector_of(id).into_iter().enumerate() {
                m.set(r, c, x);
            }
        }
        m
    }

    /// Forward pass: probability that the window is anomalous.
    fn probability(&self, window: &Window) -> f64 {
        let (encoder, attention, head) = match (&self.encoder, &self.attention, &self.head) {
            (Some(e), Some(a), Some(h)) => (e, a, h),
            _ => return 0.0,
        };
        let mut g = Graph::new();
        let steps_matrix = self.window_matrix(window);
        let t_len = steps_matrix.rows;
        let input = g.input(steps_matrix);
        let xs: Vec<Var> = (0..t_len).map(|t| g.select_row(input, t)).collect();
        let encoded = encoder.run(&mut g, &self.params, &xs);
        let stacked = stack_rows(&mut g, &encoded);
        let pooled = attention.forward(&mut g, &self.params, stacked);
        let logits = head.forward(&mut g, &self.params, pooled);
        let probs = g.row_softmax(logits);
        g.value(probs).get(0, 1)
    }
}

/// Stack 1×d step vectors into a T×d matrix (differentiably).
fn stack_rows(g: &mut Graph, rows: &[Var]) -> Var {
    let mut acc = rows[0];
    for &r in &rows[1..] {
        let at = g.transpose(acc);
        let rt = g.transpose(r);
        let cat = g.concat_cols(at, rt);
        acc = g.transpose(cat);
    }
    acc
}

impl Detector for LogRobust {
    fn name(&self) -> &'static str {
        "LogRobust"
    }

    fn save_state(&self) -> Result<Vec<u8>, String> {
        self.save()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = LogRobust::load(bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn fit(&mut self, train: &TrainSet) {
        assert!(
            !train.windows.is_empty(),
            "LogRobust needs training windows"
        );
        let store = train
            .templates
            .as_ref()
            .expect("LogRobust requires TrainSet::templates (semantic vectors)");

        // Vectorize every template currently known.
        let all_templates: Vec<&Template> = store.iter().collect();
        let vectorizer = TemplateVectorizer::fit(&all_templates, self.config.semantic_dim, 2);
        self.vectors = store
            .iter()
            .map(|t| (t.id.0, vectorizer.vectorize(t)))
            .collect();
        self.vectorizer = Some(vectorizer);

        // Supervision check.
        let labels = match &train.labels {
            Some(l) if l.iter().any(|&x| x) && l.iter().any(|&x| !x) => l.clone(),
            _ => {
                // Anomaly-free (or unlabeled) training: no positive class.
                self.degraded = true;
                self.encoder = None;
                self.attention = None;
                self.head = None;
                return;
            }
        };
        self.degraded = false;

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.params = ParamSet::new();
        let encoder = BiLstm::new(
            &mut self.params,
            self.config.semantic_dim,
            self.config.hidden,
            &mut rng,
        );
        let attention = Attention::new(
            &mut self.params,
            2 * self.config.hidden,
            self.config.attention_dim,
            &mut rng,
        );
        let head = Dense::new(&mut self.params, 2 * self.config.hidden, 2, &mut rng);
        self.encoder = Some(encoder);
        self.attention = Some(attention);
        self.head = Some(head);

        // Balanced training list: oversample the minority class.
        let anomalous: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
        let normal: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
        let per_class = normal
            .len()
            .max(anomalous.len())
            .min(self.config.max_windows / 2)
            .max(1);
        let mut order: Vec<usize> = (0..per_class)
            .flat_map(|k| [normal[k % normal.len()], anomalous[k % anomalous.len()]])
            .collect();

        let mut opt = Adam::new(self.config.learning_rate);
        for _ in 0..self.config.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &wi in &order {
                let window = &train.windows[wi];
                if window.is_empty() {
                    continue;
                }
                self.params.zero_grads();
                let mut g = Graph::new();
                let steps_matrix = self.window_matrix(window);
                let t_len = steps_matrix.rows;
                let input = g.input(steps_matrix);
                let xs: Vec<Var> = (0..t_len).map(|t| g.select_row(input, t)).collect();
                let encoded =
                    self.encoder
                        .as_ref()
                        .expect("set above")
                        .run(&mut g, &self.params, &xs);
                let stacked = stack_rows(&mut g, &encoded);
                let pooled = self.attention.as_ref().expect("set above").forward(
                    &mut g,
                    &self.params,
                    stacked,
                );
                let logits =
                    self.head
                        .as_ref()
                        .expect("set above")
                        .forward(&mut g, &self.params, pooled);
                let target = if labels[wi] { 1 } else { 0 };
                let loss = g.softmax_xent(logits, vec![target]);
                g.backward(loss, &mut self.params);
                self.params.clip_grad_norm(5.0);
                opt.step(&mut self.params);
            }
        }
    }

    fn score(&self, window: &Window) -> f64 {
        if self.degraded || window.is_empty() {
            return 0.0;
        }
        self.probability(window)
    }

    fn threshold(&self) -> f64 {
        0.5
    }

    /// Vectorize newly discovered templates so evolved statements keep
    /// scoring sensibly — LogRobust's whole point.
    fn update_templates(&mut self, templates: &TemplateStore) {
        let Some(vectorizer) = &self.vectorizer else {
            return;
        };
        for t in templates.iter() {
            self.vectors
                .entry(t.id.0)
                .or_insert_with(|| vectorizer.vectorize(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{TemplateId, TemplateStore};

    fn store_with(patterns: &[&str]) -> TemplateStore {
        let mut store = TemplateStore::new();
        for p in patterns {
            store.intern(Template::from_pattern(TemplateId(0), p).tokens);
        }
        store
    }

    fn small_config() -> LogRobustConfig {
        LogRobustConfig {
            semantic_dim: 12,
            hidden: 10,
            attention_dim: 8,
            epochs: 6,
            learning_rate: 0.02,
            ..Default::default()
        }
    }

    /// Normal flow 0,1,2,3; anomalous windows end early or jump around.
    fn fixture() -> TrainSet {
        let store = store_with(&[
            "volume <*> attach requested",
            "volume <*> attached to instance <*>",
            "volume <*> io check passed",
            "volume <*> detach completed",
            // An evolved variant of template 1, unseen in training.
            "volume <*> successfully attached to instance <*>",
        ]);
        let mut windows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            windows.push(Window::from_ids(vec![0, 1, 2, 3]));
            labels.push(false);
            let anomalous = match i % 3 {
                0 => vec![0, 3, 1],       // wrong order
                1 => vec![0, 1],          // truncated
                _ => vec![0, 2, 2, 2, 3], // skipped attach, repeated checks
            };
            windows.push(Window::from_ids(anomalous));
            labels.push(true);
        }
        TrainSet::labeled(windows, labels).with_templates(store)
    }

    #[test]
    fn learns_supervised_separation() {
        let train = fixture();
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        assert!(!d.is_degraded());
        assert!(!d.predict(&Window::from_ids(vec![0, 1, 2, 3])));
        assert!(d.predict(&Window::from_ids(vec![0, 3, 1])));
        assert!(d.predict(&Window::from_ids(vec![0, 1])));
    }

    #[test]
    fn evolved_template_keeps_normal_classification() {
        // Replace template 1 by its unseen evolved variant (id 4): the
        // semantic vector is close, so the window must stay normal.
        let train = fixture();
        let store = train.templates.clone().unwrap();
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        d.update_templates(&store);
        let evolved = Window::from_ids(vec![0, 4, 2, 3]);
        assert!(
            !d.predict(&evolved),
            "evolved-template window misclassified: p = {}",
            d.score(&evolved)
        );
    }

    #[test]
    fn anomaly_free_training_degrades_to_always_normal() {
        // Experiment P1's regime: all labels normal.
        let mut train = fixture();
        train.labels = Some(vec![false; train.windows.len()]);
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        assert!(d.is_degraded());
        // Recall collapses: even blatant anomalies pass.
        assert!(!d.predict(&Window::from_ids(vec![3, 3, 3, 3])));
    }

    #[test]
    fn unlabeled_training_also_degrades() {
        let mut train = fixture();
        train.labels = None;
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        assert!(d.is_degraded());
    }

    #[test]
    fn checkpoint_round_trip_scores_identically() {
        let train = fixture();
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        let bytes = d.save().expect("fitted model checkpoints");
        let restored = LogRobust::load(&bytes).expect("valid checkpoint");
        // A damaged header is an error, not a panic or a huge allocation:
        // `max_len` at byte 18, `hidden` at byte 10.
        for (at, value) in [(18, 0), (10, 1 << 31)] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&u32::to_le_bytes(value));
            assert!(
                matches!(LogRobust::load(&bad), Err(CodecError::Corrupt(_))),
                "field at byte {at} = {value} accepted"
            );
        }
        for w in [
            Window::from_ids(vec![0, 1, 2, 3]),
            Window::from_ids(vec![0, 3, 1]),
            Window::from_ids(vec![0, 4, 2, 3]),
        ] {
            assert_eq!(
                d.score(&w),
                restored.score(&w),
                "diverged on {:?}",
                w.sequence
            );
        }
    }

    #[test]
    fn degraded_model_refuses_checkpointing() {
        let mut train = fixture();
        train.labels = None;
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        assert!(d.save().is_err());
        assert!(LogRobust::load(b"junk").is_err());
    }

    #[test]
    fn scores_are_probabilities() {
        let train = fixture();
        let mut d = LogRobust::new(small_config());
        d.fit(&train);
        for w in &train.windows[..10] {
            let s = d.score(w);
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "requires TrainSet::templates")]
    fn missing_store_panics() {
        let mut d = LogRobust::new(small_config());
        d.fit(&TrainSet::labeled(
            vec![Window::from_ids(vec![0]), Window::from_ids(vec![1])],
            vec![false, true],
        ));
    }
}
