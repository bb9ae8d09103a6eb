//! DeepLog (Du et al., CCS 2017: "Anomaly detection and diagnosis from
//! system logs through deep learning").
//!
//! Two cooperating models, exactly as the paper describes in Section III:
//!
//! 1. **Execution-path model**: an LSTM over windows of the previous `h`
//!    template ids ("log keys") predicting the next id. An event is
//!    anomalous when the observed id is not among the model's top-`g`
//!    candidates.
//! 2. **Parameter-value model** ("DeepLog uses a second LSTM to detect
//!    quantitative anomalies. It uses the knowledge of seen values to
//!    define if a new one is in the expected range."): per
//!    `(template, variable-slot)` key, either an autoregressive LSTM whose
//!    prediction-error distribution calibrates a confidence interval
//!    ([`ValueModelKind::Lstm`]), or a Gaussian range check
//!    ([`ValueModelKind::Gaussian`], the fast default for large sweeps).
//!
//! DeepLog's known weakness — the paper's motivation for LogAnomaly /
//! LogRobust — is its **closed-world assumption**: an unseen template id
//! is always anomalous, so evolved log statements turn into false alarms.
//! The instability experiments (P2, X1) measure exactly that.

use crate::api::{violation_components, Assessment, Detector, InferenceStats, TrainSet, Window};
use crate::deep;
use monilog_model::codec::{CodecError, Decoder, Encoder};
use monilog_nn::{
    Adam, Dense, Embedding, Graph, Lstm, LstmScratch, Matrix, Optimizer, ParamSet, Var,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Which parameter-value model to use for quantitative anomalies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueModelKind {
    /// Per-key mean/std range check (fast; catches magnitude anomalies).
    Gaussian,
    /// Per-key autoregressive LSTM forecast with an error-based confidence
    /// interval — the construction of the original paper.
    Lstm,
    /// Disable the quantitative branch (sequence-only ablation).
    None,
}

/// DeepLog hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeepLogConfig {
    /// History window length `h`.
    pub history: usize,
    /// Top-`g` candidates considered normal.
    pub top_g: usize,
    pub embedding_dim: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub batch_size: usize,
    /// Cap on training samples (subsample above this, keeps sweeps fast).
    pub max_samples: usize,
    pub value_model: ValueModelKind,
    /// Gaussian z-score bound / LSTM error-interval multiplier.
    pub value_tolerance: f64,
    /// Model session ends with a virtual EOS event, so truncated sessions
    /// (the program died mid-flow) become detectable.
    pub use_eos: bool,
    /// An observed event is also a violation when the model assigns it
    /// less than this probability, even inside the top-g — catches
    /// count-structure breaks (a skipped pipeline step) that coarse top-g
    /// ranking forgives. 0 disables.
    pub min_prob: f64,
    pub seed: u64,
}

impl Default for DeepLogConfig {
    fn default() -> Self {
        DeepLogConfig {
            history: 10,
            top_g: 9,
            embedding_dim: 16,
            hidden: 32,
            epochs: 3,
            learning_rate: 0.01,
            batch_size: 64,
            max_samples: 20_000,
            value_model: ValueModelKind::Gaussian,
            value_tolerance: 6.0,
            use_eos: true,
            min_prob: 0.02,
            seed: 7,
        }
    }
}

/// Gaussian statistics of one `(template, slot)` value stream.
#[derive(Debug, Clone, Copy, Default)]
struct ValueStats {
    n: f64,
    mean: f64,
    m2: f64,
}

impl ValueStats {
    fn push(&mut self, x: f64) {
        self.n += 1.0;
        let d = x - self.mean;
        self.mean += d / self.n;
        self.m2 += d * (x - self.mean);
    }

    fn std(&self) -> f64 {
        if self.n < 2.0 {
            0.0
        } else {
            (self.m2 / (self.n - 1.0)).sqrt()
        }
    }
}

/// A trained per-key autoregressive value LSTM.
#[derive(Debug)]
struct ValueLstm {
    params: ParamSet,
    lstm: Lstm,
    head: Dense,
    /// Normalization of the raw values.
    mean: f64,
    std: f64,
    /// Std-dev of training prediction errors (confidence interval width).
    error_std: f64,
    context: usize,
}

/// The DeepLog detector.
#[derive(Debug)]
pub struct DeepLog {
    config: DeepLogConfig,
    vocab: usize,
    unk: u32,
    pad: u32,
    eos: u32,
    params: ParamSet,
    emb: Option<Embedding>,
    lstm: Option<Lstm>,
    head: Option<Dense>,
    value_stats: HashMap<(u32, usize), ValueStats>,
    value_lstms: HashMap<(u32, usize), ValueLstm>,
    /// `emb[id] · W[0..emb_dim, :]` per vocabulary id (`vocab × 4·hidden`):
    /// the input half of every LSTM step, fixed once the weights are.
    input_projection: Matrix,
    /// LSTM `(hidden, cell)` state after the first timestep per vocabulary
    /// id (`vocab × hidden` each): from the zero state it depends on
    /// nothing but that step's id.
    first_step: (Matrix, Matrix),
    /// Cores a window's memo misses are spread over ([`deep::workers`]).
    workers: usize,
    /// Verdict memo and forward-pass buffers of the inference path.
    inference: Mutex<Inference>,
}

/// What the execution-path model says about one observed
/// `(history, next)` sample — all a violation test needs, so a memo entry
/// is O(h) bytes whatever the vocabulary size.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdict {
    /// Classes the model rates strictly more probable than `next`.
    rank: u32,
    /// Probability the model gives `next`.
    prob: f64,
}

/// Memoized verdicts keyed by `history ++ [next]` in model vocabulary.
/// The weights are frozen between `fit`/`load` calls, so a sample always
/// yields the same verdict — and live log streams repeat a small set of
/// h-grams over and over, which makes the LSTM forward pass (the
/// live-monitoring bottleneck) cacheable. Cleared on refit.
///
/// Bounded by two generations: inserts go to `young`; when it holds
/// [`VerdictMemo::GENERATION`] entries it becomes `old` and the previous
/// `old` is dropped. A hit in `old` is copied forward, so keys still in
/// use survive and a stream that has seen any number of distinct
/// histories keeps memoizing the ones it sees now.
#[derive(Debug, Default)]
struct VerdictMemo {
    young: HashMap<Box<[u32]>, Verdict>,
    old: HashMap<Box<[u32]>, Verdict>,
}

impl VerdictMemo {
    /// Entries per generation; at most twice this many are held (~6 MB at
    /// `h` = 10).
    const GENERATION: usize = 1 << 15;

    fn get(&mut self, key: &[u32]) -> Option<Verdict> {
        if let Some(hit) = self.young.get(key) {
            return Some(*hit);
        }
        let hit = *self.old.get(key)?;
        self.insert(key, hit);
        Some(hit)
    }

    fn insert(&mut self, key: &[u32], verdict: Verdict) {
        if self.young.len() >= Self::GENERATION {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key.into(), verdict);
    }
}

#[derive(Debug, Default)]
struct Inference {
    memo: VerdictMemo,
    /// Forward-pass buffers of the passes that are not split.
    scratch: ForwardScratch,
    stats: InferenceStats,
}

/// Buffers of one thread's forward passes, reusable across batches.
#[derive(Debug, Default)]
struct ForwardScratch {
    lstm: LstmScratch,
    probs: Matrix,
}

impl DeepLog {
    pub fn new(config: DeepLogConfig) -> Self {
        assert!(config.history >= 1);
        assert!(config.top_g >= 1);
        DeepLog {
            config,
            vocab: 0,
            unk: 0,
            pad: 0,
            eos: 0,
            params: ParamSet::new(),
            emb: None,
            lstm: None,
            head: None,
            value_stats: HashMap::new(),
            value_lstms: HashMap::new(),
            input_projection: Matrix::default(),
            first_step: Default::default(),
            workers: deep::workers(),
            inference: Mutex::default(),
        }
    }

    /// Rows per batched forward pass: bounds each thread's scratch buffers
    /// whatever the window length (live windows close well below it).
    const MAX_BATCH: usize = 256;

    /// Freeze the fitted weights for inference: precompute the per-id
    /// input projection and drop verdicts of any earlier weights (they
    /// would be silently wrong).
    fn freeze(&mut self, emb: Embedding, lstm: Lstm, head: Dense) {
        lstm.project_input(
            &self.params,
            self.params.value(emb.table),
            &mut self.input_projection,
        );
        let mut scratch = LstmScratch::default();
        lstm.infer_last(&self.params, self.vocab, 1, &mut scratch, |_, gates| {
            gates.clone_from(&self.input_projection)
        });
        let (h, c) = scratch.state();
        self.first_step = (h.clone(), c.clone());
        self.emb = Some(emb);
        self.lstm = Some(lstm);
        self.head = Some(head);
        *self.inference.lock().expect("inference state poisoned") = Inference::default();
    }

    /// `sequence` in model vocabulary (unseen → UNK), left-padded with `h`
    /// PADs so the first events are predictable too and, with `use_eos`,
    /// closed by the virtual end-of-session event. Every run of `h + 1` ids
    /// is one `history ++ [next]` sample, for training and inference alike.
    fn padded(&self, sequence: &[u32]) -> Vec<u32> {
        if sequence.is_empty() {
            return Vec::new();
        }
        let mut ids = vec![self.pad; self.config.history];
        ids.extend(sequence.iter().map(|&id| id.min(self.unk)));
        if self.config.use_eos {
            ids.push(self.eos);
        }
        ids
    }

    /// Verdicts of `keys` (each `history ++ [next]`), in order, from
    /// batched tape-free forward passes of at most [`Self::MAX_BATCH`] rows:
    /// per timestep one product for all rows, with the input half gathered
    /// from the precomputed per-id projection. Each row's distribution
    /// equals the tape's (`tests::tape_probabilities`) bit for bit, and no
    /// step reads another row, so a verdict does not depend on which keys
    /// share its call.
    fn forward(&self, keys: &[&[u32]], scratch: &mut ForwardScratch) -> Vec<Verdict> {
        let (lstm, head) = (
            self.lstm.as_ref().expect("fitted"),
            self.head.as_ref().expect("fitted"),
        );
        let h = self.config.history;
        let mut verdicts = Vec::with_capacity(keys.len());
        for batch in keys.chunks(Self::MAX_BATCH) {
            let hidden = lstm.infer_from(
                &self.params,
                batch.len(),
                1..h,
                &mut scratch.lstm,
                |hidden, cell| {
                    for (r, key) in batch.iter().enumerate() {
                        let first = key[0] as usize;
                        hidden
                            .row_slice_mut(r)
                            .copy_from_slice(self.first_step.0.row_slice(first));
                        cell.row_slice_mut(r)
                            .copy_from_slice(self.first_step.1.row_slice(first));
                    }
                },
                |t, gates| {
                    for (r, key) in batch.iter().enumerate() {
                        gates
                            .row_slice_mut(r)
                            .copy_from_slice(self.input_projection.row_slice(key[t] as usize));
                    }
                },
            );
            head.infer(&self.params, hidden, &mut scratch.probs);
            scratch.probs.softmax_rows();
            verdicts.extend(batch.iter().enumerate().map(|(r, key)| {
                let probs = scratch.probs.row_slice(r);
                let prob = probs[key[h] as usize];
                let rank = probs.iter().filter(|&&p| p > prob).count() as u32;
                Verdict { rank, prob }
            }));
        }
        verdicts
    }

    /// [`DeepLog::forward`] over all of `keys`, cut into one contiguous
    /// chunk per core that [`deep::chunks`] grants them.
    fn forward_all(&self, keys: &[&[u32]], state: &mut Inference) -> Vec<Verdict> {
        let chunks = deep::chunks(keys.len(), self.workers);
        state.stats.memo_misses += keys.len() as u64;
        state.stats.parallel_passes += (chunks > 1) as u64;
        deep::fan_out(keys.len(), chunks, &mut state.scratch, |rows, scratch| {
            self.forward(&keys[rows], scratch)
        })
    }

    /// Serialize a fitted detector into a checkpoint: config, vocabulary,
    /// network weights and Gaussian value statistics.
    ///
    /// Per-key value-forecast LSTMs ([`ValueModelKind::Lstm`]) are not
    /// checkpointed (they are cheap to retrain and rarely deployed);
    /// attempting to save one returns an error.
    pub fn save(&self) -> Result<Vec<u8>, String> {
        if self.emb.is_none() {
            return Err("cannot checkpoint an unfitted detector".to_string());
        }
        if !self.value_lstms.is_empty() {
            return Err(
                "LSTM value models are not checkpointable; use ValueModelKind::Gaussian"
                    .to_string(),
            );
        }
        let c = &self.config;
        let mut e = Encoder::with_header(*b"DLOG", 1);
        e.put_u32(c.history as u32);
        e.put_u32(c.top_g as u32);
        e.put_u32(c.embedding_dim as u32);
        e.put_u32(c.hidden as u32);
        e.put_u32(c.epochs as u32);
        e.put_f64(c.learning_rate);
        e.put_u32(c.batch_size as u32);
        e.put_u32(c.max_samples as u32);
        e.put_u8(match c.value_model {
            ValueModelKind::Gaussian => 0,
            ValueModelKind::Lstm => 1,
            ValueModelKind::None => 2,
        });
        e.put_f64(c.value_tolerance);
        e.put_bool(c.use_eos);
        e.put_f64(c.min_prob);
        e.put_u64(c.seed);
        e.put_u32(self.unk);
        // Network weights (registration order is deterministic given the
        // config, so shapes reconstruct exactly on load).
        let matrices = self.params.export_matrices();
        e.put_len(matrices.len());
        for m in &matrices {
            let (rows, cols) = m.shape();
            e.put_u32(rows as u32);
            e.put_u32(cols as u32);
            e.put_f64_slice(m.data());
        }
        // Gaussian value statistics, sorted for determinism.
        let mut stats: Vec<(&(u32, usize), &ValueStats)> = self.value_stats.iter().collect();
        stats.sort_by_key(|(k, _)| **k);
        e.put_len(stats.len());
        for ((id, slot), st) in stats {
            e.put_u32(*id);
            e.put_u32(*slot as u32);
            e.put_f64(st.n);
            e.put_f64(st.mean);
            e.put_f64(st.m2);
        }
        Ok(e.finish())
    }

    /// Restore a detector from a [`DeepLog::save`] checkpoint. The restored
    /// instance scores identically to the saved one.
    pub fn load(bytes: &[u8]) -> Result<DeepLog, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"DLOG", 1)?;
        let config = DeepLogConfig {
            history: d.get_u32()? as usize,
            top_g: d.get_u32()? as usize,
            embedding_dim: d.get_u32()? as usize,
            hidden: d.get_u32()? as usize,
            epochs: d.get_u32()? as usize,
            learning_rate: d.get_f64()?,
            batch_size: d.get_u32()? as usize,
            max_samples: d.get_u32()? as usize,
            value_model: match d.get_u8()? {
                0 => ValueModelKind::Gaussian,
                1 => ValueModelKind::Lstm,
                2 => ValueModelKind::None,
                _ => return Err(CodecError::Corrupt("value model tag")),
            },
            value_tolerance: d.get_f64()?,
            use_eos: d.get_bool()?,
            min_prob: d.get_f64()?,
            seed: d.get_u64()?,
        };
        let unk = d.get_u32()?;
        let mut detector = DeepLog::new(config);
        detector.unk = unk;
        detector.pad = unk + 1;
        detector.eos = unk + 2;
        detector.vocab = detector.eos as usize + 1;

        // Rebuild the layer structure (deterministic registration order),
        // then overwrite the weights with the checkpoint.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let emb = Embedding::new(
            &mut detector.params,
            detector.vocab,
            config.embedding_dim,
            &mut rng,
        );
        let lstm = Lstm::new(
            &mut detector.params,
            config.embedding_dim,
            config.hidden,
            &mut rng,
        );
        let head = Dense::new(
            &mut detector.params,
            config.hidden,
            detector.vocab,
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
        detector.freeze(emb, lstm, head);

        let n = d.get_len()?;
        for _ in 0..n {
            let id = d.get_u32()?;
            let slot = d.get_u32()? as usize;
            let stats = ValueStats {
                n: d.get_f64()?,
                mean: d.get_f64()?,
                m2: d.get_f64()?,
            };
            detector.value_stats.insert((id, slot), stats);
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(detector)
    }

    /// `(sequential, quantitative)` violation counts — lets the pipeline
    /// label the anomaly kind of a report (Table I's two categories).
    pub fn violation_breakdown(&self, window: &Window) -> (usize, usize) {
        (
            self.sequence_violations(window),
            self.value_violations(window),
        )
    }

    /// Count of sequential violations (events outside top-g or below the
    /// probability floor) in a window. Samples the memo has not seen are
    /// deduplicated and scored in one batched forward pass, its rows split
    /// across the available cores when there are enough of them.
    fn sequence_violations(&self, window: &Window) -> usize {
        let h = self.config.history;
        let g_top = self.config.top_g.min(self.vocab.saturating_sub(1)).max(1) as u32;
        let violates = |v: Verdict| v.rank >= g_top || v.prob < self.config.min_prob;
        let padded = self.padded(&window.sequence);
        let mut guard = self.inference.lock().expect("inference state poisoned");
        let state = &mut *guard;
        let mut violations = 0;
        let mut missing: Vec<&[u32]> = Vec::new();
        for key in padded.windows(h + 1) {
            // The closed-world assumption: an UNK event can never be in the
            // candidate set of a model that has never seen it.
            if key[h] == self.unk {
                violations += 1;
            } else if let Some(verdict) = state.memo.get(key) {
                state.stats.memo_hits += 1;
                violations += violates(verdict) as usize;
            } else {
                missing.push(key);
            }
        }
        if !missing.is_empty() {
            // A sample occurring n times in the window is scored once.
            missing.sort_unstable();
            let repeats: Vec<&[&[u32]]> = missing.chunk_by(|a, b| a == b).collect();
            let distinct: Vec<&[u32]> = repeats.iter().map(|same| same[0]).collect();
            let verdicts = self.forward_all(&distinct, state);
            for (same, &verdict) in repeats.iter().zip(&verdicts) {
                state.memo.insert(same[0], verdict);
                violations += same.len() * violates(verdict) as usize;
            }
        }
        violations
    }

    /// Count of quantitative violations in a window.
    fn value_violations(&self, window: &Window) -> usize {
        match self.config.value_model {
            ValueModelKind::None => 0,
            ValueModelKind::Gaussian => {
                let mut v = 0;
                for (&id, nums) in window.sequence.iter().zip(&window.numerics) {
                    for (slot, &x) in nums.iter().enumerate() {
                        if let Some(stats) = self.value_stats.get(&(id, slot)) {
                            let std = stats.std();
                            if std > 0.0
                                && (x - stats.mean).abs() > self.config.value_tolerance * std
                            {
                                v += 1;
                            } else if std == 0.0 && stats.n >= 2.0 && x != stats.mean {
                                // A constant-valued slot changing at all is
                                // out of its (degenerate) expected range —
                                // but only grossly: tolerate small drift.
                                if (x - stats.mean).abs() > stats.mean.abs().max(1.0) {
                                    v += 1;
                                }
                            }
                        }
                    }
                }
                v
            }
            ValueModelKind::Lstm => {
                let mut v = 0;
                // Forecast each key's value from the preceding values of
                // the same key within the window.
                let mut history: HashMap<(u32, usize), Vec<f64>> = HashMap::new();
                for (&id, nums) in window.sequence.iter().zip(&window.numerics) {
                    for (slot, &x) in nums.iter().enumerate() {
                        let key = (id, slot);
                        if let Some(model) = self.value_lstms.get(&key) {
                            let past = history.entry(key).or_default();
                            if model.is_anomalous(past, x, self.config.value_tolerance) {
                                v += 1;
                            }
                            past.push(x);
                        } else if let Some(stats) = self.value_stats.get(&key) {
                            let std = stats.std();
                            if std > 0.0
                                && (x - stats.mean).abs() > self.config.value_tolerance * std
                            {
                                v += 1;
                            }
                        }
                    }
                }
                v
            }
        }
    }
}

impl ValueLstm {
    const MIN_TRAIN: usize = 12;

    fn train(values: &[f64], context: usize, seed: u64) -> Option<ValueLstm> {
        if values.len() < Self::MIN_TRAIN {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        let norm: Vec<f64> = values.iter().map(|x| (x - mean) / std).collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let lstm = Lstm::new(&mut params, 1, 8, &mut rng);
        let head = Dense::new(&mut params, 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);

        for _ in 0..30 {
            params.zero_grads();
            let mut g = Graph::new();
            let mut losses = Vec::new();
            for i in context..norm.len() {
                let xs: Vec<Var> = (i - context..i)
                    .map(|k| g.input(Matrix::from_vec(1, 1, vec![norm[k]])))
                    .collect();
                let states = lstm.run(&mut g, &params, &xs);
                let pred = head.forward(&mut g, &params, states.last().expect("context ≥ 1").h);
                losses.push(g.mse(pred, Matrix::from_vec(1, 1, vec![norm[i]])));
            }
            // Mean of per-step losses via repeated add + scale.
            let mut total = losses[0];
            for &l in &losses[1..] {
                total = g.add(total, l);
            }
            let loss = g.scale(total, 1.0 / losses.len() as f64);
            g.backward(loss, &mut params);
            params.clip_grad_norm(5.0);
            opt.step(&mut params);
        }

        let mut model = ValueLstm {
            params,
            lstm,
            head,
            mean,
            std,
            error_std: 0.0,
            context,
        };
        // Calibrate the prediction-error interval on the training stream.
        let mut errors = Vec::new();
        for i in context..norm.len() {
            let pred = model.forecast_norm(&norm[i - context..i]);
            errors.push(pred - norm[i]);
        }
        let e_mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let e_var = errors
            .iter()
            .map(|e| (e - e_mean) * (e - e_mean))
            .sum::<f64>()
            / errors.len() as f64;
        model.error_std = e_var.sqrt().max(0.05);
        Some(model)
    }

    fn forecast_norm(&self, context: &[f64]) -> f64 {
        let mut g = Graph::new();
        let xs: Vec<Var> = context
            .iter()
            .map(|&x| g.input(Matrix::from_vec(1, 1, vec![x])))
            .collect();
        let states = self.lstm.run(&mut g, &self.params, &xs);
        let pred = self.head.forward(
            &mut g,
            &self.params,
            states.last().expect("nonempty context").h,
        );
        g.value(pred).get(0, 0)
    }

    /// Is `x` outside the confidence interval of the forecast given the
    /// window-local `past` values of this key?
    fn is_anomalous(&self, past: &[f64], x: f64, tolerance: f64) -> bool {
        let x_norm = (x - self.mean) / self.std;
        // Values far outside the training distribution are anomalous even
        // without forecast context.
        if past.len() < self.context {
            return x_norm.abs() > tolerance.max(4.0);
        }
        let ctx: Vec<f64> = past[past.len() - self.context..]
            .iter()
            .map(|v| (v - self.mean) / self.std)
            .collect();
        let pred = self.forecast_norm(&ctx);
        (pred - x_norm).abs() > tolerance * self.error_std.max(0.05)
    }
}

impl Detector for DeepLog {
    fn name(&self) -> &'static str {
        "DeepLog"
    }

    fn save_state(&self) -> Result<Vec<u8>, String> {
        self.save()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = DeepLog::load(bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(!normal.is_empty(), "DeepLog needs training windows");
        let max_id = train.max_template_id().unwrap_or(0);
        self.unk = max_id + 1;
        self.pad = max_id + 2;
        self.eos = max_id + 3;
        self.vocab = self.eos as usize + 1;

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.params = ParamSet::new();
        let emb = Embedding::new(
            &mut self.params,
            self.vocab,
            self.config.embedding_dim,
            &mut rng,
        );
        let lstm = Lstm::new(
            &mut self.params,
            self.config.embedding_dim,
            self.config.hidden,
            &mut rng,
        );
        let head = Dense::new(&mut self.params, self.config.hidden, self.vocab, &mut rng);

        // Gather `history ++ [next]` samples from all normal sequences.
        let h = self.config.history;
        let mut samples: Vec<Vec<u32>> = Vec::new();
        for w in &normal {
            samples.extend(self.padded(&w.sequence).windows(h + 1).map(<[u32]>::to_vec));
        }
        if samples.len() > self.config.max_samples {
            // Deterministic subsample.
            let stride = samples.len() as f64 / self.config.max_samples as f64;
            samples = (0..self.config.max_samples)
                .map(|k| samples[(k as f64 * stride) as usize].clone())
                .collect();
        }

        let mut opt = Adam::new(self.config.learning_rate);
        for _ in 0..self.config.epochs {
            // Deterministic shuffle per epoch.
            for i in (1..samples.len()).rev() {
                let j = rng.random_range(0..=i);
                samples.swap(i, j);
            }
            for batch in samples.chunks(self.config.batch_size) {
                self.params.zero_grads();
                let mut g = Graph::new();
                // xs[t] = batch × emb matrix of the t-th history position.
                let xs: Vec<Var> = (0..h)
                    .map(|t| {
                        let ids: Vec<usize> = batch.iter().map(|s| s[t] as usize).collect();
                        emb.forward(&mut g, &self.params, &ids)
                    })
                    .collect();
                let states = lstm.run(&mut g, &self.params, &xs);
                let logits = head.forward(&mut g, &self.params, states.last().expect("h ≥ 1").h);
                let targets: Vec<usize> = batch.iter().map(|s| s[h] as usize).collect();
                let loss = g.softmax_xent(logits, targets);
                g.backward(loss, &mut self.params);
                self.params.clip_grad_norm(5.0);
                opt.step(&mut self.params);
            }
        }
        self.freeze(emb, lstm, head);

        // Parameter-value models.
        self.value_stats.clear();
        self.value_lstms.clear();
        if self.config.value_model != ValueModelKind::None {
            let mut streams: HashMap<(u32, usize), Vec<f64>> = HashMap::new();
            for w in &normal {
                for (&id, nums) in w.sequence.iter().zip(&w.numerics) {
                    for (slot, &x) in nums.iter().enumerate() {
                        streams.entry((id, slot)).or_default().push(x);
                        self.value_stats.entry((id, slot)).or_default().push(x);
                    }
                }
            }
            if self.config.value_model == ValueModelKind::Lstm {
                for (key, values) in streams {
                    if let Some(model) =
                        ValueLstm::train(&values, 3, self.config.seed ^ key.0 as u64)
                    {
                        self.value_lstms.insert(key, model);
                    }
                }
            }
        }
    }

    fn score(&self, window: &Window) -> f64 {
        (self.sequence_violations(window) + self.value_violations(window)) as f64
    }

    /// DeepLog flags a session on any violation.
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

    fn inference_stats(&self) -> InferenceStats {
        self.inference
            .lock()
            .expect("inference state poisoned")
            .stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DeepLogConfig {
        DeepLogConfig {
            history: 4,
            top_g: 2,
            embedding_dim: 8,
            hidden: 16,
            epochs: 8,
            batch_size: 32,
            learning_rate: 0.02,
            ..Default::default()
        }
    }

    /// Normal flow: 0 → 1 → 2 → 3 with an optional 1-loop.
    fn normal_window(loops: usize) -> Window {
        let mut ids = vec![0];
        ids.resize(1 + loops, 1);
        ids.extend([2, 3]);
        Window::from_ids(ids)
    }

    fn train_set() -> TrainSet {
        TrainSet::unlabeled((0..80).map(|i| normal_window(1 + i % 3)).collect())
    }

    #[test]
    fn learns_the_normal_flow() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        for loops in 1..=3 {
            let w = normal_window(loops);
            assert_eq!(
                d.sequence_violations(&w),
                0,
                "normal flow flagged at loops={loops}"
            );
        }
    }

    #[test]
    fn wrong_order_is_sequential_anomaly() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        // Table I's L1 → L4 shape: known events, impossible order.
        let w = Window::from_ids(vec![0, 3, 1, 2]);
        assert!(d.predict(&w), "violations: {}", d.score(&w));
        // The provenance breakdown must agree with the verdict: sequential
        // violations drive the score, the quantitative term stays zero.
        let comps = d.score_components(&w);
        let get = |name: &str| comps.iter().find(|c| c.name == name).unwrap().value;
        assert!(get("sequential_violations") > 0.0);
        assert_eq!(get("quantitative_violations"), 0.0);
        assert_eq!(
            get("score"),
            get("sequential_violations") + get("quantitative_violations")
        );
    }

    #[test]
    fn unseen_template_violates_closed_world() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        // Template 9 never existed at training time.
        let w = Window::from_ids(vec![0, 1, 9, 2, 3]);
        assert!(d.predict(&w));
    }

    #[test]
    fn quantitative_anomaly_detected_via_gaussian() {
        let mut windows = Vec::new();
        for i in 0..60 {
            let mut w = normal_window(1);
            // Event id 2 carries a byte count around 1000.
            w.numerics[2] = vec![1_000.0 + (i % 10) as f64];
            windows.push(w);
        }
        let mut d = DeepLog::new(small_config());
        d.fit(&TrainSet::unlabeled(windows));

        let mut normal = normal_window(1);
        normal.numerics[2] = vec![1_005.0];
        assert_eq!(d.value_violations(&normal), 0);

        // Table I, L3: same flow, absurd magnitude.
        let mut quant = normal_window(1);
        quant.numerics[2] = vec![745_675_869.0];
        assert!(d.value_violations(&quant) > 0);
        assert!(d.predict(&quant));
    }

    #[test]
    fn value_lstm_model_catches_magnitude_jumps() {
        let mut windows = Vec::new();
        for i in 0..30 {
            let mut w = normal_window(1);
            w.numerics[2] = vec![500.0 + (i % 7) as f64 * 3.0];
            windows.push(w);
        }
        let mut config = small_config();
        config.value_model = ValueModelKind::Lstm;
        config.epochs = 2; // value model is the subject here
        let mut d = DeepLog::new(config);
        d.fit(&TrainSet::unlabeled(windows));
        assert!(!d.value_lstms.is_empty(), "no value LSTM was trained");

        let mut quant = normal_window(1);
        quant.numerics[2] = vec![880_000.0];
        assert!(d.value_violations(&quant) > 0);
    }

    #[test]
    fn value_model_none_disables_quantitative_branch() {
        let mut config = small_config();
        config.value_model = ValueModelKind::None;
        config.epochs = 1;
        let mut d = DeepLog::new(config);
        let mut windows = Vec::new();
        for _ in 0..20 {
            let mut w = normal_window(1);
            w.numerics[2] = vec![100.0];
            windows.push(w);
        }
        d.fit(&TrainSet::unlabeled(windows));
        let mut quant = normal_window(1);
        quant.numerics[2] = vec![1e12];
        assert_eq!(d.value_violations(&quant), 0);
    }

    #[test]
    fn checkpoint_round_trip_scores_identically() {
        let mut d = DeepLog::new(small_config());
        let mut windows = Vec::new();
        for i in 0..60 {
            let mut w = normal_window(1 + i % 3);
            w.numerics[0] = vec![250.0 + (i % 5) as f64];
            windows.push(w);
        }
        d.fit(&TrainSet::unlabeled(windows.clone()));
        let bytes = d.save().expect("gaussian model checkpoints");
        let restored = DeepLog::load(&bytes).expect("valid checkpoint");

        let probes = [
            normal_window(2),
            Window::from_ids(vec![0, 3, 1, 2]),
            Window::from_ids(vec![0, 1, 9, 2, 3]),
            {
                let mut w = normal_window(1);
                w.numerics[0] = vec![9e9];
                w
            },
        ];
        for w in &probes {
            assert_eq!(
                d.score(w),
                restored.score(w),
                "scores diverged after restore"
            );
            assert_eq!(d.predict(w), restored.predict(w));
        }
    }

    #[test]
    fn unfitted_and_lstm_value_models_refuse_checkpointing() {
        let d = DeepLog::new(small_config());
        assert!(d.save().is_err(), "unfitted");

        let mut config = small_config();
        config.value_model = ValueModelKind::Lstm;
        config.epochs = 1;
        let mut d = DeepLog::new(config);
        let mut windows = Vec::new();
        for i in 0..30 {
            let mut w = normal_window(1);
            w.numerics[2] = vec![100.0 + i as f64];
            windows.push(w);
        }
        d.fit(&TrainSet::unlabeled(windows));
        assert!(
            d.save().is_err(),
            "lstm value models are not checkpointable"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        assert!(DeepLog::load(b"garbage").is_err());
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        let mut bytes = d.save().expect("checkpointable");
        bytes.truncate(bytes.len() / 2);
        assert!(DeepLog::load(&bytes).is_err());
    }

    /// `(history window, next id)` samples of one sequence as the per-sample
    /// path built them (kept apart from `DeepLog::padded` on purpose).
    fn samples_of(d: &DeepLog, sequence: &[u32]) -> Vec<(Vec<usize>, usize)> {
        let h = d.config.history;
        let lookup = |id: u32| if id < d.unk { id } else { d.unk } as usize;
        let mut mapped: Vec<usize> = sequence.iter().map(|&id| lookup(id)).collect();
        if d.config.use_eos && !mapped.is_empty() {
            mapped.push(d.eos as usize);
        }
        let mut out = Vec::new();
        for (i, &next) in mapped.iter().enumerate() {
            let mut window = Vec::with_capacity(h);
            for k in 0..h {
                let pos = i as i64 - h as i64 + k as i64;
                window.push(if pos < 0 {
                    d.pad as usize
                } else {
                    mapped[pos as usize]
                });
            }
            out.push((window, next));
        }
        out
    }

    /// The tape forward pass for one history window: the inference path
    /// before it went tape-free, kept as the oracle.
    fn tape_probabilities(d: &DeepLog, window: &[usize]) -> Vec<f64> {
        let (emb, lstm, head) = (
            d.emb.as_ref().expect("fitted"),
            d.lstm.as_ref().expect("fitted"),
            d.head.as_ref().expect("fitted"),
        );
        let mut g = Graph::new();
        let embedded = emb.forward(&mut g, &d.params, window);
        let xs: Vec<Var> = (0..window.len())
            .map(|t| g.select_row(embedded, t))
            .collect();
        let states = lstm.run(&mut g, &d.params, &xs);
        let logits = head.forward(&mut g, &d.params, states.last().expect("nonempty window").h);
        let probs = g.row_softmax(logits);
        g.value(probs).row_slice(0).to_vec()
    }

    /// The inference path before batching: one tape forward per sample.
    fn oracle_verdicts(d: &DeepLog, window: &Window) -> Vec<Option<Verdict>> {
        samples_of(d, &window.sequence)
            .into_iter()
            .map(|(hist, next)| {
                (next != d.unk as usize).then(|| {
                    let probs = tape_probabilities(d, &hist);
                    Verdict {
                        rank: probs.iter().filter(|&&p| p > probs[next]).count() as u32,
                        prob: probs[next],
                    }
                })
            })
            .collect()
    }

    fn oracle_sequence_violations(d: &DeepLog, window: &Window) -> usize {
        let g_top = d.config.top_g.min(d.vocab.saturating_sub(1)).max(1) as u32;
        oracle_verdicts(d, window)
            .into_iter()
            .filter(|v| v.is_none_or(|v| v.rank >= g_top || v.prob < d.config.min_prob))
            .count()
    }

    /// Sample rows `d` has sent through the LSTM since its last fit.
    fn forward_rows(d: &DeepLog) -> usize {
        d.inference_stats().memo_misses as usize
    }

    /// `d` as restored from its checkpoint (empty memo), on `workers` cores.
    fn reloaded(d: &DeepLog, workers: usize) -> DeepLog {
        let mut fresh = DeepLog::load(&d.save().expect("checkpointable")).expect("own checkpoint");
        fresh.workers = workers;
        fresh
    }

    #[test]
    fn memo_is_exact_and_cleared_on_refit() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        let w = Window::from_ids(vec![0, 1, 3, 2, 1, 3]);
        let before = forward_rows(&d);
        let first = d.sequence_violations(&w); // populates the memo
        let missed = forward_rows(&d) - before;
        assert!(missed > 0);
        assert_eq!(first, d.sequence_violations(&w), "memo hit diverged");
        assert_eq!(
            forward_rows(&d) - before,
            missed,
            "second pass ran the LSTM"
        );
        assert_eq!(first, oracle_sequence_violations(&d, &w), "memo is visible");

        // Retrain on a different flow: verdicts of the old weights must
        // not survive.
        let other = TrainSet::unlabeled((0..80).map(|_| Window::from_ids(vec![3, 2, 0])).collect());
        d.fit(&other);
        let before = forward_rows(&d);
        let refit = d.sequence_violations(&w);
        assert_eq!(
            forward_rows(&d) - before,
            missed,
            "stale memo served a refit"
        );
        assert_eq!(refit, oracle_sequence_violations(&d, &w));
    }

    /// Regression: the memo used to stop inserting for good once it held
    /// its cap, so a monitor that had seen 65k distinct histories ran the
    /// LSTM on every sample from then on.
    #[test]
    fn memo_keeps_memoizing_past_its_bound() {
        let mut d = DeepLog::new(DeepLogConfig {
            history: 8,
            embedding_dim: 2,
            hidden: 2,
            epochs: 1,
            ..DeepLogConfig::default()
        });
        d.fit(&TrainSet::unlabeled(vec![Window::from_ids(
            (0..40).map(|i| i % 5).collect(),
        )]));
        // More distinct samples than the memo may hold: 5 ids, 9 positions.
        let mut rng = StdRng::seed_from_u64(3);
        let flood = 2 * VerdictMemo::GENERATION + 5_000;
        let noise = Window::from_ids((0..flood).map(|_| rng.random_range(0..5)).collect());
        d.workers = 1;
        let before = forward_rows(&d);
        d.sequence_violations(&noise);
        assert!(forward_rows(&d) - before > 2 * VerdictMemo::GENERATION);
        // Rows computed on three cores reach the memo in the one-chunk
        // order: same entries, same generation, through both flips.
        let split = reloaded(&d, 3);
        split.sequence_violations(&noise);
        assert_eq!(split.inference_stats().parallel_passes, 1);
        {
            let state = d.inference.lock().unwrap();
            assert!(state.memo.young.len() <= VerdictMemo::GENERATION);
            assert!(state.memo.old.len() <= VerdictMemo::GENERATION);
            let split = split.inference.lock().unwrap();
            assert!(state.memo.young == split.memo.young, "young generation");
            assert!(state.memo.old == split.memo.old, "old generation");
        }

        let late = Window::from_ids(vec![4, 4, 4, 4, 0, 0, 0, 0, 3, 3, 3, 3]);
        let first = d.sequence_violations(&late);
        let after_first = forward_rows(&d);
        assert_eq!(first, d.sequence_violations(&late));
        assert_eq!(
            forward_rows(&d),
            after_first,
            "a history repeated after the memo filled ran the LSTM again"
        );
        assert_eq!(first, oracle_sequence_violations(&d, &late));
    }

    /// The batched tape-free path against the per-sample tape, to the bit:
    /// every verdict's probability compares `==`, on shuffled HDFS and
    /// cloud windows with UNK events, PAD-only histories, EOS samples and
    /// windows shorter than `h` — cold, and again from the memo.
    #[test]
    fn batched_inference_equals_the_tape_oracle() {
        let config = DeepLogConfig {
            history: 6,
            top_g: 2,
            epochs: 1,
            max_samples: 1_500,
            ..DeepLogConfig::default()
        };
        let (train, mut probes, _) = crate::deep::testdata::corpus(config.history);
        // Long windows go first, while the memo is cold and every sample
        // of theirs is a miss.
        let long = crate::deep::testdata::long_windows(&probes);
        probes.splice(0..0, long);
        let mut fitted = DeepLog::new(config);
        fitted.fit(&train);
        let oracle: Vec<(usize, Vec<Option<Verdict>>)> = probes
            .iter()
            .map(|w| {
                (
                    oracle_sequence_violations(&fitted, w),
                    oracle_verdicts(&fitted, w),
                )
            })
            .collect();
        let mut unk = 0;
        for workers in [1, 2, 3, 5] {
            let d = reloaded(&fitted, workers);
            for pass in ["cold", "memoized"] {
                for (w, (violations, verdicts)) in probes.iter().zip(&oracle) {
                    let got = d.sequence_violations(w);
                    assert_eq!(got, *violations, "{workers} {pass}: {:?}", w.sequence);
                    let mut state = d.inference.lock().unwrap();
                    for ((hist, next), expected) in
                        samples_of(&d, &w.sequence).into_iter().zip(verdicts)
                    {
                        let key: Vec<u32> =
                            hist.iter().chain([&next]).map(|&id| id as u32).collect();
                        match *expected {
                            Some(verdict) => {
                                assert_eq!(state.memo.get(&key), Some(verdict), "{workers} {pass}")
                            }
                            None => unk += 1,
                        }
                    }
                }
            }
            let split = d.inference_stats().parallel_passes;
            assert_eq!(
                split > 0,
                workers > 1,
                "{workers} workers: {split} split passes"
            );
        }
        assert!(unk > 0, "no probe exercised the UNK short-cut");
    }

    /// Every way of cutting a pass gives the tape's verdicts, to the bit:
    /// one to five workers over row counts around the floor and the batch
    /// bound, uneven tails included — and a pass under two floors of rows
    /// spawns no thread however many cores there are.
    #[test]
    fn every_cut_of_a_pass_equals_the_tape_oracle() {
        use crate::deep::{ROW_FLOOR, SPAWNED};
        let config = DeepLogConfig {
            history: 5,
            embedding_dim: 6,
            hidden: 7,
            epochs: 1,
            ..DeepLogConfig::default()
        };
        let mut d = DeepLog::new(config);
        d.fit(&TrainSet::unlabeled(vec![Window::from_ids(
            (0..60).map(|i| i * i % 11).collect(),
        )]));
        let mut rng = StdRng::seed_from_u64(5);
        let keys: Vec<Vec<u32>> = (0..DeepLog::MAX_BATCH + 1)
            .map(|_| {
                let mut key: Vec<u32> = (0..=config.history)
                    .map(|_| rng.random_range(0..d.vocab as u32))
                    .collect();
                key[config.history] %= d.unk; // `next` is never UNK or PAD here
                key
            })
            .collect();
        let oracle: Vec<Verdict> = keys
            .iter()
            .map(|key| {
                let hist: Vec<usize> = key[..config.history]
                    .iter()
                    .map(|&id| id as usize)
                    .collect();
                let probs = tape_probabilities(&d, &hist);
                let prob = probs[key[config.history] as usize];
                Verdict {
                    rank: probs.iter().filter(|&&p| p > prob).count() as u32,
                    prob,
                }
            })
            .collect();
        let keys: Vec<&[u32]> = keys.iter().map(Vec::as_slice).collect();
        let spawned = || SPAWNED.with(|n| n.get());
        for workers in [1, 2, 3, 5] {
            d.workers = workers;
            for rows in [
                0,
                1,
                ROW_FLOOR - 1,
                ROW_FLOOR,
                2 * ROW_FLOOR - 1,
                2 * ROW_FLOOR,
                2 * ROW_FLOOR + 1,
                5 * ROW_FLOOR + 3,
                DeepLog::MAX_BATCH + 1,
            ] {
                let mut state = d.inference.lock().unwrap();
                let (before, passes) = (spawned(), state.stats.parallel_passes);
                let verdicts = d.forward_all(&keys[..rows], &mut state);
                assert!(verdicts == oracle[..rows], "{workers} workers, {rows} rows");
                let chunks = workers.min(rows / ROW_FLOOR).max(1);
                let threads = if chunks == 1 { 0 } else { chunks };
                assert_eq!(
                    spawned() - before,
                    threads,
                    "{workers} workers, {rows} rows"
                );
                assert_eq!(state.stats.parallel_passes - passes, (chunks > 1) as u64);
            }
        }
    }

    /// HDFS sessions close with far fewer than two floors of distinct
    /// misses: on that traffic no pass is ever split, whatever the host.
    #[test]
    fn session_traffic_never_splits_a_pass() {
        use crate::window::session_windows;
        use monilog_loggen::{HdfsWorkload, HdfsWorkloadConfig};
        use monilog_parse::{Drain, DrainConfig, OnlineParser};
        let logs = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 120,
            sequential_anomaly_rate: 0.2,
            seed: 47,
            ..Default::default()
        })
        .generate();
        let mut parser = Drain::new(DrainConfig::default());
        let sessions = session_windows(logs.iter().map(|log| {
            let id = parser.parse(&log.record.message).template.0;
            (log.truth.session.clone().expect("session"), id, Vec::new())
        }));
        let windows: Vec<Window> = sessions.into_iter().map(|(_, w)| w).collect();
        let mut d = DeepLog::new(DeepLogConfig {
            epochs: 1,
            ..DeepLogConfig::default()
        });
        d.fit(&TrainSet::unlabeled(windows[..40].to_vec()));
        d.workers = 8;
        let before = crate::deep::SPAWNED.with(|n| n.get());
        for w in &windows {
            d.sequence_violations(w);
        }
        let stats = d.inference_stats();
        assert!(
            stats.memo_misses > 0 && stats.memo_hits > stats.memo_misses,
            "{stats:?}"
        );
        assert_eq!(stats.parallel_passes, 0);
        assert_eq!(crate::deep::SPAWNED.with(|n| n.get()), before);
    }

    #[test]
    fn empty_window_is_not_anomalous() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        assert!(!d.predict(&Window::default()));
    }
}
