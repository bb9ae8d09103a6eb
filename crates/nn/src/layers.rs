//! Neural layers composed from graph ops.
//!
//! Each layer owns [`crate::optim::ParamId`] handles into a shared
//! [`ParamSet`] and exposes a `forward` that extends a [`Graph`]. Because
//! layers build ordinary tape ops, backpropagation (including BPTT through
//! LSTM unrolling) needs no extra code.
//!
//! `Dense` and `Lstm` also have a tape-free `infer*` form for
//! serving a frozen model: plain matrices in, weights borrowed from the
//! [`ParamSet`], buffers owned by the caller, no node, clone or gradient
//! per op. It performs the tape's floating-point operations in the tape's
//! order (one product loop, [`Matrix::matmul_acc`], serves both), so its
//! outputs equal the tape's bit for bit whatever the batch size — pinned
//! by `infer_equals_tape` below.

use crate::graph::{sigmoid, Graph, Var};
use crate::matrix::Matrix;
use crate::optim::{ParamId, ParamSet};
use rand::Rng;

/// Fully-connected layer: `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Dense {
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = params.add(Matrix::xavier(in_dim, out_dim, rng));
        let b = params.add(Matrix::zeros(1, out_dim));
        Dense {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, g: &mut Graph, params: &ParamSet, x: Var) -> Var {
        let w = g.param(params, self.w);
        let b = g.param(params, self.b);
        let xw = g.matmul(x, w);
        g.add(xw, b)
    }

    /// Tape-free `out = x W + b`.
    pub fn infer(&self, params: &ParamSet, x: &Matrix, out: &mut Matrix) {
        out.reset(x.rows, self.out_dim);
        x.matmul_acc(params.value(self.w), 0, out);
        out.add_row(params.value(self.b));
    }
}

/// Embedding table: id → row vector. Lookup is a constant-input gather; the
/// table itself is trainable via a one-hot matmul path. Tape-free callers
/// gather rows of `params.value(table)` directly — row `id` is what
/// [`Embedding::forward`] yields for `id`.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: ParamId,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let table = params.add(Matrix::xavier(vocab, dim, rng));
        Embedding { table, vocab, dim }
    }

    /// Embed a sequence of ids into a `len × dim` matrix (trainable: the
    /// one-hot matrix is constant, the table is a parameter).
    pub fn forward(&self, g: &mut Graph, params: &ParamSet, ids: &[usize]) -> Var {
        let mut onehot = Matrix::zeros(ids.len(), self.vocab);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab, "id {id} out of vocabulary {}", self.vocab);
            onehot.set(r, id, 1.0);
        }
        let oh = g.input(onehot);
        let table = g.param(params, self.table);
        g.matmul(oh, table)
    }
}

/// Hidden/cell state pair of an LSTM.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    pub h: Var,
    pub c: Var,
}

/// Caller-owned buffers of [`Lstm::infer_last`], reusable across calls of
/// any batch size.
#[derive(Debug, Default)]
pub struct LstmScratch {
    gates: Matrix,
    h: Matrix,
    c: Matrix,
}

impl LstmScratch {
    /// Hidden and cell state the last run ended in.
    pub fn state(&self) -> (&Matrix, &Matrix) {
        (&self.h, &self.c)
    }
}

/// A single-layer LSTM.
///
/// Gates use the fused-weights formulation: `[i f o g] = [x, h] W + b`,
/// with the forget-gate bias initialized to 1 (standard practice to open
/// the memory path early in training).
#[derive(Debug, Clone)]
pub struct Lstm {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl Lstm {
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let w = params.add(Matrix::xavier(in_dim + hidden, 4 * hidden, rng));
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate
        }
        let b = params.add(bias);
        Lstm {
            w,
            b,
            in_dim,
            hidden,
        }
    }

    /// Zero initial state for a batch of `batch` sequences.
    pub fn zero_state(&self, g: &mut Graph, batch: usize) -> LstmState {
        LstmState {
            h: g.input(Matrix::zeros(batch, self.hidden)),
            c: g.input(Matrix::zeros(batch, self.hidden)),
        }
    }

    /// One timestep: consume `x` (batch × in_dim), return the next state.
    pub fn step(&self, g: &mut Graph, params: &ParamSet, x: Var, state: LstmState) -> LstmState {
        let z = g.concat_cols(x, state.h);
        let w = g.param(params, self.w);
        let b = g.param(params, self.b);
        let zw = g.matmul(z, w);
        let gates = g.add(zw, b);
        let h = self.hidden;
        let i_gate = g.slice_cols(gates, 0, h);
        let f_gate = g.slice_cols(gates, h, h);
        let o_gate = g.slice_cols(gates, 2 * h, h);
        let g_gate = g.slice_cols(gates, 3 * h, h);
        let i = g.sigmoid(i_gate);
        let f = g.sigmoid(f_gate);
        let o = g.sigmoid(o_gate);
        let cand = g.tanh(g_gate);
        let fc = g.hadamard(f, state.c);
        let ig = g.hadamard(i, cand);
        let c_new = g.add(fc, ig);
        let c_act = g.tanh(c_new);
        let h_new = g.hadamard(o, c_act);
        LstmState { h: h_new, c: c_new }
    }

    /// Run a full sequence (`xs[t]` is the input at step t); returns the
    /// hidden state after every step.
    pub fn run(&self, g: &mut Graph, params: &ParamSet, xs: &[Var]) -> Vec<LstmState> {
        let batch = xs.first().map(|x| g.value(*x).rows).unwrap_or(1);
        let mut state = self.zero_state(g, batch);
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            state = self.step(g, params, x, state);
            out.push(state);
        }
        out
    }
}

impl Lstm {
    /// Tape-free input half of the gate pre-activations,
    /// `out = x · W[0..in_dim, :]` — per batch row, or once per vocabulary
    /// id when `x` is an embedding table.
    pub fn project_input(&self, params: &ParamSet, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols, self.in_dim, "project_input: input width");
        out.reset(x.rows, 4 * self.hidden);
        x.matmul_acc(params.value(self.w), 0, out);
    }

    /// Tape-free run of `steps` timesteps over `batch` sequences from the
    /// zero state; returns the last hidden state (`batch × hidden`).
    ///
    /// `input_projection(t, gates)` fills the zeroed `batch × 4·hidden`
    /// `gates` with each row's [`Lstm::project_input`] at step `t`; the
    /// recurrent half, bias and activations are added here. One product
    /// per step for the whole batch, where the tape spends one per row.
    pub fn infer_last<'s>(
        &self,
        params: &ParamSet,
        batch: usize,
        steps: usize,
        scratch: &'s mut LstmScratch,
        input_projection: impl FnMut(usize, &mut Matrix),
    ) -> &'s Matrix {
        self.infer_from(
            params,
            batch,
            0..steps,
            scratch,
            |_, _| {},
            input_projection,
        )
    }

    /// [`Lstm::infer_last`] over timesteps `steps`, from the state
    /// `initial(h, c)` writes into the zeroed `batch × hidden` pair — a
    /// state an earlier call left in [`LstmScratch::state`], row for row.
    pub fn infer_from<'s>(
        &self,
        params: &ParamSet,
        batch: usize,
        steps: std::ops::Range<usize>,
        scratch: &'s mut LstmScratch,
        initial: impl FnOnce(&mut Matrix, &mut Matrix),
        mut input_projection: impl FnMut(usize, &mut Matrix),
    ) -> &'s Matrix {
        let (w, b, n) = (params.value(self.w), params.value(self.b), self.hidden);
        let LstmScratch { gates, h, c } = scratch;
        h.reset(batch, n);
        c.reset(batch, n);
        initial(h, c);
        for t in steps {
            gates.reset(batch, 4 * n);
            input_projection(t, gates);
            h.matmul_acc(w, self.in_dim, gates);
            gates.add_row(b);
            for r in 0..batch {
                let z = gates.row_slice(r);
                let (h_row, c_row) = (h.row_slice_mut(r), c.row_slice_mut(r));
                for k in 0..n {
                    let i = sigmoid(z[k]);
                    let f = sigmoid(z[n + k]);
                    let o = sigmoid(z[2 * n + k]);
                    let cand = z[3 * n + k].tanh();
                    let (fc, ig) = (f * c_row[k], i * cand);
                    c_row[k] = fc + ig;
                    h_row[k] = o * c_row[k].tanh();
                }
            }
        }
        h
    }
}

/// Bidirectional LSTM: one forward pass, one backward pass, hidden states
/// concatenated per timestep — the encoder LogRobust uses.
#[derive(Debug, Clone)]
pub struct BiLstm {
    pub fwd: Lstm,
    pub bwd: Lstm,
}

impl BiLstm {
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        BiLstm {
            fwd: Lstm::new(params, in_dim, hidden, rng),
            bwd: Lstm::new(params, in_dim, hidden, rng),
        }
    }

    /// Per-timestep concatenated states (batch × 2·hidden each).
    pub fn run(&self, g: &mut Graph, params: &ParamSet, xs: &[Var]) -> Vec<Var> {
        let fwd_states = self.fwd.run(g, params, xs);
        let rev: Vec<Var> = xs.iter().rev().copied().collect();
        let mut bwd_states = self.bwd.run(g, params, &rev);
        bwd_states.reverse();
        fwd_states
            .iter()
            .zip(&bwd_states)
            .map(|(f, b)| g.concat_cols(f.h, b.h))
            .collect()
    }
}

/// Additive attention over a sequence of (1 × d) step encodings: scores
/// each step with a small tanh MLP, softmax-normalizes, and returns the
/// weighted sum (1 × d) — LogRobust's attention head.
#[derive(Debug, Clone)]
pub struct Attention {
    pub w: ParamId,
    pub v: ParamId,
    pub dim: usize,
    pub attn_dim: usize,
}

impl Attention {
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        dim: usize,
        attn_dim: usize,
        rng: &mut R,
    ) -> Self {
        Attention {
            w: params.add(Matrix::xavier(dim, attn_dim, rng)),
            v: params.add(Matrix::xavier(attn_dim, 1, rng)),
            dim,
            attn_dim,
        }
    }

    /// `steps` is a T×d matrix (one row per timestep, batch 1). Returns the
    /// attention-pooled 1×d summary.
    pub fn forward(&self, g: &mut Graph, params: &ParamSet, steps: Var) -> Var {
        let w = g.param(params, self.w);
        let v = g.param(params, self.v);
        let proj = g.matmul(steps, w);
        let act = g.tanh(proj);
        let scores = g.matmul(act, v); // T × 1
        let scores_row = g.transpose(scores); // 1 × T
        let alpha = g.row_softmax(scores_row); // attention weights, 1 × T
        g.matmul(alpha, steps) // 1 × d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = ParamSet::new();
        let layer = Dense::new(&mut params, 3, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 3));
        let y = layer.forward(&mut g, &params, x);
        assert_eq!(g.value(y).shape(), (2, 5));
    }

    #[test]
    fn embedding_lookup_matches_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamSet::new();
        let emb = Embedding::new(&mut params, 10, 4, &mut rng);
        let mut g = Graph::new();
        let e = emb.forward(&mut g, &params, &[3, 7]);
        assert_eq!(g.value(e).shape(), (2, 4));
        for c in 0..4 {
            assert_eq!(g.value(e).get(0, c), params.value(emb.table).get(3, c));
            assert_eq!(g.value(e).get(1, c), params.value(emb.table).get(7, c));
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn embedding_checks_vocab() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamSet::new();
        let emb = Embedding::new(&mut params, 4, 2, &mut rng);
        let mut g = Graph::new();
        emb.forward(&mut g, &params, &[4]);
    }

    #[test]
    fn lstm_state_shapes_and_boundedness() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ParamSet::new();
        let lstm = Lstm::new(&mut params, 3, 8, &mut rng);
        let mut g = Graph::new();
        let xs: Vec<Var> = (0..5).map(|_| g.input(Matrix::full(2, 3, 0.5))).collect();
        let states = lstm.run(&mut g, &params, &xs);
        assert_eq!(states.len(), 5);
        for s in &states {
            assert_eq!(g.value(s.h).shape(), (2, 8));
            // h = o * tanh(c) is bounded in (-1, 1).
            assert!(g.value(s.h).data().iter().all(|x| x.abs() < 1.0));
        }
    }

    #[test]
    fn lstm_remembers_input_order() {
        // Hidden state after [a, b] differs from after [b, a]: the LSTM is
        // order-sensitive (unlike count vectors).
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ParamSet::new();
        let lstm = Lstm::new(&mut params, 2, 4, &mut rng);
        let mut g = Graph::new();
        let a = g.input(Matrix::row(&[1.0, 0.0]));
        let b = g.input(Matrix::row(&[0.0, 1.0]));
        let ab = lstm.run(&mut g, &params, &[a, b]);
        let ba = lstm.run(&mut g, &params, &[b, a]);
        let h_ab = g.value(ab.last().unwrap().h).clone();
        let h_ba = g.value(ba.last().unwrap().h).clone();
        assert_ne!(h_ab, h_ba);
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ParamSet::new();
        let bi = BiLstm::new(&mut params, 3, 6, &mut rng);
        let mut g = Graph::new();
        let xs: Vec<Var> = (0..4).map(|_| g.input(Matrix::full(1, 3, 0.1))).collect();
        let enc = bi.run(&mut g, &params, &xs);
        assert_eq!(enc.len(), 4);
        assert_eq!(g.value(enc[0]).shape(), (1, 12));
    }

    #[test]
    fn attention_weights_sum_to_one_effectively() {
        // Pooling constant rows must return that constant row (weights sum
        // to 1 regardless of scores).
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new();
        let attn = Attention::new(&mut params, 4, 3, &mut rng);
        let mut g = Graph::new();
        let steps = g.input(Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[1.0, 2.0, 3.0, 4.0],
            &[1.0, 2.0, 3.0, 4.0],
        ]));
        let pooled = attn.forward(&mut g, &params, steps);
        let out = g.value(pooled);
        assert_eq!(out.shape(), (1, 4));
        for (c, expect) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            assert!((out.get(0, c) - expect).abs() < 1e-9, "{out:?}");
        }
    }

    /// End-to-end learning check: an LSTM + Dense head learns to predict
    /// the next symbol of a deterministic cycle 0→1→2→0…
    #[test]
    fn lstm_learns_a_cycle() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = ParamSet::new();
        let emb = Embedding::new(&mut params, 3, 6, &mut rng);
        let lstm = Lstm::new(&mut params, 6, 12, &mut rng);
        let head = Dense::new(&mut params, 12, 3, &mut rng);
        let mut opt = Adam::new(0.02);

        let window = [0usize, 1, 2, 0, 1];
        let target = 2usize;
        let mut final_loss = f64::INFINITY;
        for _ in 0..150 {
            params.zero_grads();
            let mut g = Graph::new();
            let embedded = emb.forward(&mut g, &params, &window);
            let xs: Vec<Var> = (0..window.len())
                .map(|t| g.select_row(embedded, t))
                .collect();
            let states = lstm.run(&mut g, &params, &xs);
            let logits = head.forward(&mut g, &params, states.last().unwrap().h);
            let loss = g.softmax_xent(logits, vec![target]);
            final_loss = g.value(loss).get(0, 0);
            g.backward(loss, &mut params);
            params.clip_grad_norm(5.0);
            opt.step(&mut params);
        }
        assert!(final_loss < 0.05, "loss failed to drop: {final_loss}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Next-token distributions of an embedding → LSTM → dense → softmax
    /// model on the tape, one graph per sequence (the inference oracle).
    fn tape_rows(
        params: &ParamSet,
        (emb, lstm, head): (&Embedding, &Lstm, &Dense),
        seqs: &[Vec<usize>],
    ) -> Vec<Vec<f64>> {
        seqs.iter()
            .map(|ids| {
                let mut g = Graph::new();
                let embedded = emb.forward(&mut g, params, ids);
                let xs: Vec<Var> = (0..ids.len()).map(|t| g.select_row(embedded, t)).collect();
                let states = lstm.run(&mut g, params, &xs);
                let logits = head.forward(&mut g, params, states.last().unwrap().h);
                let probs = g.row_softmax(logits);
                g.value(probs).row_slice(0).to_vec()
            })
            .collect()
    }

    /// The same model tape-free, as one batch. `per_id` gathers rows of the
    /// input projection precomputed per vocabulary id; otherwise each
    /// step's embedded batch is projected on the spot.
    fn infer_rows(
        params: &ParamSet,
        (emb, lstm, head): (&Embedding, &Lstm, &Dense),
        seqs: &[Vec<usize>],
        per_id: bool,
    ) -> Vec<Vec<f64>> {
        let table = params.value(emb.table);
        let mut projected = Matrix::default();
        lstm.project_input(params, table, &mut projected);
        let mut scratch = LstmScratch::default();
        let mut x = Matrix::default();
        let h = lstm.infer_last(
            params,
            seqs.len(),
            seqs[0].len(),
            &mut scratch,
            |t, gates| {
                if per_id {
                    for (r, ids) in seqs.iter().enumerate() {
                        gates
                            .row_slice_mut(r)
                            .copy_from_slice(projected.row_slice(ids[t]));
                    }
                } else {
                    x.reset(seqs.len(), emb.dim);
                    for (r, ids) in seqs.iter().enumerate() {
                        x.row_slice_mut(r).copy_from_slice(table.row_slice(ids[t]));
                    }
                    lstm.project_input(params, &x, gates);
                }
            },
        );
        let mut probs = Matrix::default();
        head.infer(params, h, &mut probs);
        probs.softmax_rows();
        (0..seqs.len())
            .map(|r| probs.row_slice(r).to_vec())
            .collect()
    }

    /// [`infer_rows`] with the first timestep taken from a table computed
    /// once per vocabulary id, and every sequence resumed from its row.
    fn resumed_rows(
        params: &ParamSet,
        (emb, lstm, head): (&Embedding, &Lstm, &Dense),
        seqs: &[Vec<usize>],
    ) -> Vec<Vec<f64>> {
        let mut projected = Matrix::default();
        lstm.project_input(params, params.value(emb.table), &mut projected);
        let mut scratch = LstmScratch::default();
        lstm.infer_last(params, emb.vocab, 1, &mut scratch, |_, gates| {
            gates.clone_from(&projected)
        });
        let (h1, c1) = scratch.state();
        let (h1, c1) = (h1.clone(), c1.clone());
        let h = lstm.infer_from(
            params,
            seqs.len(),
            1..seqs[0].len(),
            &mut scratch,
            |h, c| {
                for (r, ids) in seqs.iter().enumerate() {
                    h.row_slice_mut(r).copy_from_slice(h1.row_slice(ids[0]));
                    c.row_slice_mut(r).copy_from_slice(c1.row_slice(ids[0]));
                }
            },
            |t, gates| {
                for (r, ids) in seqs.iter().enumerate() {
                    gates
                        .row_slice_mut(r)
                        .copy_from_slice(projected.row_slice(ids[t]));
                }
            },
        );
        let mut probs = Matrix::default();
        head.infer(params, h, &mut probs);
        probs.softmax_rows();
        (0..seqs.len())
            .map(|r| probs.row_slice(r).to_vec())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Tape-free inference equals the tape to the bit (`==` on `f64`,
        /// no tolerance), row by row, whether a sequence runs alone or in a
        /// batch of N, and with zeros (+0.0 and -0.0) in the embedding
        /// table so the product loop's zero-skip is on the path.
        #[test]
        fn infer_equals_tape(seed: u64,
                             vocab in 2usize..40,
                             emb_dim in 1usize..9,
                             hidden in 1usize..12,
                             history in 1usize..8,
                             batch in 1usize..9,
                             zeroed in 0usize..12) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut params = ParamSet::new();
            let emb = Embedding::new(&mut params, vocab, emb_dim, &mut r);
            let lstm = Lstm::new(&mut params, emb_dim, hidden, &mut r);
            let head = Dense::new(&mut params, hidden, vocab, &mut r);
            // A PAD-like all-zero row plus scattered signed zeros.
            let table = params.value_mut(emb.table);
            table.row_slice_mut(vocab - 1).fill(0.0);
            for i in 0..zeroed {
                let at = r.random_range(0..vocab * emb_dim);
                table.data_mut()[at] = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            let seqs: Vec<Vec<usize>> = (0..batch)
                .map(|_| (0..history).map(|_| r.random_range(0..vocab)).collect())
                .collect();
            let model = (&emb, &lstm, &head);

            let oracle = tape_rows(&params, model, &seqs);
            for per_id in [true, false] {
                let batched = infer_rows(&params, model, &seqs, per_id);
                prop_assert!(batched == oracle, "batch of {batch} differs (per_id {per_id})");
                for (row, seq) in seqs.iter().enumerate() {
                    let alone = infer_rows(&params, model, std::slice::from_ref(seq), per_id);
                    prop_assert!(alone[0] == batched[row], "row {row} alone differs");
                }
            }
            // A run resumed from a per-id table of first-step states.
            prop_assert!(resumed_rows(&params, model, &seqs) == oracle, "resumed run differs");
        }

        /// `softmax_rows` keeps the bits of the formula the tape's softmax
        /// op had before the two shared one loop (exps collected, then
        /// `Iterator::sum`).
        #[test]
        fn softmax_rows_keeps_the_collected_sum_bits(seed: u64, cols in 1usize..50) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut m = Matrix::xavier(3, cols, &mut r);
            for x in m.data_mut() {
                *x *= 40.0;
            }
            let expected: Vec<f64> = (0..3)
                .flat_map(|row| {
                    let row = m.row_slice(row);
                    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let exps: Vec<f64> = row.iter().map(|x| (x - max).exp()).collect();
                    let sum: f64 = exps.iter().sum();
                    exps.into_iter().map(move |e| e / sum)
                })
                .collect();
            m.softmax_rows();
            prop_assert!(m.data() == expected.as_slice());
        }
    }
}
