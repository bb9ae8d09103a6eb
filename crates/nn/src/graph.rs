//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a define-by-run tape: every op computes its value eagerly
//! and records how to push gradients back to its parents. Training code
//! builds a fresh graph per step (cheap — nodes are just matrices), calls
//! [`Graph::backward`] on the scalar loss, and the parameter gradients land
//! in the [`crate::optim::ParamSet`].
//!
//! Correctness of every backward rule is pinned by finite-difference checks
//! in [`crate::gradcheck`] tests.

use crate::matrix::Matrix;
use crate::optim::{ParamId, ParamSet};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Constant input (no gradient tracked beyond the node itself).
    Input,
    /// A parameter leaf, tied to a [`ParamSet`] slot.
    Param(ParamId),
    MatMul(Var, Var),
    /// Element-wise add; `b` may be a 1×n row broadcast over `a`'s rows.
    Add(Var, Var),
    Scale(Var, f64),
    Hadamard(Var, Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    /// `[a | b]` along columns (same row count).
    ConcatCols(Var, Var),
    /// Columns `[start, start+len)` of the parent.
    SliceCols(Var, usize, usize),
    /// Matrix transpose.
    Transpose(Var),
    /// Row-wise softmax.
    RowSoftmax(Var),
    /// 1×c mean of an r×c matrix's rows.
    MeanRows(Var),
    /// Mean softmax cross-entropy against one class index per row;
    /// produces a 1×1 scalar. Cached probabilities live in the node value
    /// of the associated softmax (recomputed in backward).
    SoftmaxXent {
        logits: Var,
        targets: Vec<usize>,
    },
    /// Mean squared error against a constant target; 1×1 scalar.
    Mse {
        pred: Var,
        target: Matrix,
    },
}

struct Node {
    op: Op,
    value: Matrix,
    /// Empty until [`Graph::backward`] sizes it: forward-only graphs never
    /// pay for a zeroed gradient per node.
    grad: Matrix,
}

/// A gradient tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node {
            op,
            value,
            grad: Matrix::default(),
        });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node (after [`Graph::backward`]).
    pub fn grad(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].grad
    }

    /// A constant input node.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Input, value)
    }

    /// A parameter node reading its value from `params`.
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        self.push(Op::Param(id), params.value(id).clone())
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), value)
    }

    /// `a + b`, where `b` is either the same shape or a 1×n row vector
    /// broadcast over `a`'s rows (the bias pattern).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let value = if av.shape() == bv.shape() {
            let mut out = av.clone();
            out.add_scaled(bv, 1.0);
            out
        } else {
            assert_eq!(bv.rows, 1, "add: rhs must match shape or be a row vector");
            let mut out = av.clone();
            out.add_row(bv);
            out
        };
        self.push(Op::Add(a, b), value)
    }

    pub fn scale(&mut self, a: Var, factor: f64) -> Var {
        let value = self.nodes[a.0].value.map(|x| x * factor);
        self.push(Op::Scale(a, factor), value)
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let nb = self.scale(b, -1.0);
        self.add(a, nb)
    }

    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.shape(), bv.shape(), "hadamard shape mismatch");
        let data: Vec<f64> = av
            .data()
            .iter()
            .zip(bv.data())
            .map(|(x, y)| x * y)
            .collect();
        let value = Matrix::from_vec(av.rows, av.cols, data);
        self.push(Op::Hadamard(a, b), value)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(sigmoid);
        self.push(Op::Sigmoid(a), value)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f64::tanh);
        self.push(Op::Tanh(a), value)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(Op::Relu(a), value)
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.rows, bv.rows, "concat_cols row mismatch");
        let mut value = Matrix::zeros(av.rows, av.cols + bv.cols);
        for r in 0..av.rows {
            for c in 0..av.cols {
                value.set(r, c, av.get(r, c));
            }
            for c in 0..bv.cols {
                value.set(r, av.cols + c, bv.get(r, c));
            }
        }
        self.push(Op::ConcatCols(a, b), value)
    }

    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert!(start + len <= av.cols, "slice_cols out of range");
        let mut value = Matrix::zeros(av.rows, len);
        for r in 0..av.rows {
            for c in 0..len {
                value.set(r, c, av.get(r, start + c));
            }
        }
        self.push(Op::SliceCols(a, start, len), value)
    }

    /// Row `r` of `a` as a 1×cols node, differentiable through a constant
    /// one-hot selector matmul (used to feed embedded sequences into LSTMs
    /// one timestep at a time).
    pub fn select_row(&mut self, a: Var, r: usize) -> Var {
        let rows = self.nodes[a.0].value.rows;
        assert!(r < rows, "select_row out of range");
        let mut sel = Matrix::zeros(1, rows);
        sel.set(0, r, 1.0);
        let sel = self.input(sel);
        self.matmul(sel, a)
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.transpose();
        self.push(Op::Transpose(a), value)
    }

    pub fn row_softmax(&mut self, a: Var) -> Var {
        let value = softmax_of(&self.nodes[a.0].value);
        self.push(Op::RowSoftmax(a), value)
    }

    pub fn mean_rows(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(1, av.cols);
        for r in 0..av.rows {
            for c in 0..av.cols {
                value.set(0, c, value.get(0, c) + av.get(r, c) / av.rows as f64);
            }
        }
        self.push(Op::MeanRows(a), value)
    }

    /// Mean softmax cross-entropy loss; one target class per logit row.
    pub fn softmax_xent(&mut self, logits: Var, targets: Vec<usize>) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.rows, targets.len(), "one target per row");
        let probs = softmax_of(lv);
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.cols, "target class out of range");
            loss -= probs.get(r, t).max(1e-300).ln();
        }
        loss /= targets.len() as f64;
        self.push(
            Op::SoftmaxXent { logits, targets },
            Matrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Mean squared error against a constant target.
    pub fn mse(&mut self, pred: Var, target: Matrix) -> Var {
        let pv = &self.nodes[pred.0].value;
        assert_eq!(pv.shape(), target.shape(), "mse shape mismatch");
        let n = pv.len().max(1) as f64;
        let loss: f64 = pv
            .data()
            .iter()
            .zip(target.data())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / n;
        self.push(Op::Mse { pred, target }, Matrix::from_vec(1, 1, vec![loss]))
    }

    /// Run backpropagation from `loss` (must be 1×1) and accumulate
    /// parameter gradients into `params`.
    pub fn backward(&mut self, loss: Var, params: &mut ParamSet) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for node in &mut self.nodes {
            node.grad.reset(node.value.rows, node.value.cols);
        }
        self.nodes[loss.0].grad.set(0, 0, 1.0);

        // Nodes are created parents-first, so reverse construction order is
        // a valid reverse-topological order.
        for idx in (0..self.nodes.len()).rev() {
            let grad = self.nodes[idx].grad.clone();
            if grad.norm() == 0.0 {
                continue;
            }
            match &self.nodes[idx].op {
                Op::Input => {}
                Op::Param(id) => params.grad_mut(*id).add_scaled(&grad, 1.0),
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let ga = grad.matmul(&self.nodes[b.0].value.transpose());
                    let gb = self.nodes[a.0].value.transpose().matmul(&grad);
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                    self.nodes[b.0].grad.add_scaled(&gb, 1.0);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.nodes[a.0].grad.add_scaled(&grad, 1.0);
                    let bshape = self.nodes[b.0].value.shape();
                    if bshape == grad.shape() {
                        self.nodes[b.0].grad.add_scaled(&grad, 1.0);
                    } else {
                        // Broadcast bias: sum gradient over rows.
                        let mut gb = Matrix::zeros(1, grad.cols);
                        for r in 0..grad.rows {
                            for c in 0..grad.cols {
                                gb.set(0, c, gb.get(0, c) + grad.get(r, c));
                            }
                        }
                        self.nodes[b.0].grad.add_scaled(&gb, 1.0);
                    }
                }
                Op::Scale(a, factor) => {
                    let (a, factor) = (*a, *factor);
                    self.nodes[a.0].grad.add_scaled(&grad, factor);
                }
                Op::Hadamard(a, b) => {
                    let (a, b) = (*a, *b);
                    let ga_data: Vec<f64> = grad
                        .data()
                        .iter()
                        .zip(self.nodes[b.0].value.data())
                        .map(|(g, y)| g * y)
                        .collect();
                    let gb_data: Vec<f64> = grad
                        .data()
                        .iter()
                        .zip(self.nodes[a.0].value.data())
                        .map(|(g, x)| g * x)
                        .collect();
                    let ga = Matrix::from_vec(grad.rows, grad.cols, ga_data);
                    let gb = Matrix::from_vec(grad.rows, grad.cols, gb_data);
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                    self.nodes[b.0].grad.add_scaled(&gb, 1.0);
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    let y = &self.nodes[idx].value;
                    let data: Vec<f64> = grad
                        .data()
                        .iter()
                        .zip(y.data())
                        .map(|(g, y)| g * y * (1.0 - y))
                        .collect();
                    let ga = Matrix::from_vec(grad.rows, grad.cols, data);
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    let y = &self.nodes[idx].value;
                    let data: Vec<f64> = grad
                        .data()
                        .iter()
                        .zip(y.data())
                        .map(|(g, y)| g * (1.0 - y * y))
                        .collect();
                    let ga = Matrix::from_vec(grad.rows, grad.cols, data);
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let x = &self.nodes[a.0].value;
                    let data: Vec<f64> = grad
                        .data()
                        .iter()
                        .zip(x.data())
                        .map(|(g, x)| if *x > 0.0 { *g } else { 0.0 })
                        .collect();
                    let ga = Matrix::from_vec(grad.rows, grad.cols, data);
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let a_cols = self.nodes[a.0].value.cols;
                    let b_cols = self.nodes[b.0].value.cols;
                    let mut ga = Matrix::zeros(grad.rows, a_cols);
                    let mut gb = Matrix::zeros(grad.rows, b_cols);
                    for r in 0..grad.rows {
                        for c in 0..a_cols {
                            ga.set(r, c, grad.get(r, c));
                        }
                        for c in 0..b_cols {
                            gb.set(r, c, grad.get(r, a_cols + c));
                        }
                    }
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                    self.nodes[b.0].grad.add_scaled(&gb, 1.0);
                }
                Op::SliceCols(a, start, len) => {
                    let (a, start, len) = (*a, *start, *len);
                    let parent_cols = self.nodes[a.0].value.cols;
                    let mut ga = Matrix::zeros(grad.rows, parent_cols);
                    for r in 0..grad.rows {
                        for c in 0..len {
                            ga.set(r, start + c, grad.get(r, c));
                        }
                    }
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::Transpose(a) => {
                    let a = *a;
                    let ga = grad.transpose();
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::RowSoftmax(a) => {
                    let a = *a;
                    let y = self.nodes[idx].value.clone();
                    let mut ga = Matrix::zeros(grad.rows, grad.cols);
                    for r in 0..grad.rows {
                        let dot: f64 = (0..grad.cols).map(|c| grad.get(r, c) * y.get(r, c)).sum();
                        for c in 0..grad.cols {
                            ga.set(r, c, y.get(r, c) * (grad.get(r, c) - dot));
                        }
                    }
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::MeanRows(a) => {
                    let a = *a;
                    let parent_rows = self.nodes[a.0].value.rows;
                    let mut ga = Matrix::zeros(parent_rows, grad.cols);
                    for r in 0..parent_rows {
                        for c in 0..grad.cols {
                            ga.set(r, c, grad.get(0, c) / parent_rows as f64);
                        }
                    }
                    self.nodes[a.0].grad.add_scaled(&ga, 1.0);
                }
                Op::SoftmaxXent { logits, targets } => {
                    let logits = *logits;
                    let targets = targets.clone();
                    let g_scalar = grad.get(0, 0);
                    let probs = softmax_of(&self.nodes[logits.0].value);
                    let batch = targets.len() as f64;
                    let mut ga = probs;
                    for (r, &t) in targets.iter().enumerate() {
                        ga.set(r, t, ga.get(r, t) - 1.0);
                    }
                    let ga = ga.map(|x| x * g_scalar / batch);
                    self.nodes[logits.0].grad.add_scaled(&ga, 1.0);
                }
                Op::Mse { pred, target } => {
                    let pred = *pred;
                    let target = target.clone();
                    let g_scalar = grad.get(0, 0);
                    let pv = &self.nodes[pred.0].value;
                    let n = pv.len().max(1) as f64;
                    let data: Vec<f64> = pv
                        .data()
                        .iter()
                        .zip(target.data())
                        .map(|(p, t)| 2.0 * (p - t) * g_scalar / n)
                        .collect();
                    let ga = Matrix::from_vec(pv.rows, pv.cols, data);
                    self.nodes[pred.0].grad.add_scaled(&ga, 1.0);
                }
            }
        }
    }
}

/// The logistic function (shared by the tape and the tape-free layers).
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Row-wise softmax of a matrix (shared by forward and backward).
fn softmax_of(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    out.softmax_rows();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = g.input(Matrix::from_rows(&[&[3.0], &[4.0]]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).get(0, 0), 11.0);
        let s = g.sigmoid(c);
        assert!((g.value(s).get(0, 0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn add_broadcasts_bias() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(Matrix::row(&[10.0, 20.0]));
        let y = g.add(x, b);
        assert_eq!(
            g.value(y),
            &Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
    }

    #[test]
    fn concat_and_slice_are_inverses() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = g.input(Matrix::from_rows(&[&[3.0]]));
        let cat = g.concat_cols(a, b);
        assert_eq!(g.value(cat), &Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let back = g.slice_cols(cat, 0, 2);
        assert_eq!(g.value(back), &Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]));
        let s = g.row_softmax(x);
        for r in 0..2 {
            let sum: f64 = (0..3).map(|c| g.value(s).get(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        // Uniform logits → uniform distribution.
        assert!((g.value(s).get(1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn xent_of_perfect_prediction_is_small() {
        let mut g = Graph::new();
        let logits = g.input(Matrix::from_rows(&[&[100.0, 0.0, 0.0]]));
        let loss = g.softmax_xent(logits, vec![0]);
        assert!(g.value(loss).get(0, 0) < 1e-6);
        let mut g = Graph::new();
        let logits = g.input(Matrix::from_rows(&[&[100.0, 0.0, 0.0]]));
        let loss = g.softmax_xent(logits, vec![1]);
        assert!(g.value(loss).get(0, 0) > 10.0);
    }

    #[test]
    fn simple_gradient_descends() {
        // minimize (w - 3)^2 via the tape: dw should be 2(w-3).
        let mut params = ParamSet::new();
        let w = params.add(Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..200 {
            params.zero_grads();
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let loss = g.mse(wv, Matrix::from_vec(1, 1, vec![3.0]));
            g.backward(loss, &mut params);
            let grad = params.grad(w).get(0, 0);
            let v = params.value(w).get(0, 0);
            params.value_mut(w).set(0, 0, v - 0.1 * grad);
        }
        assert!((params.value(w).get(0, 0) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn backward_accumulates_shared_nodes() {
        // loss = sum over two uses of x: grad must accumulate both paths.
        let mut params = ParamSet::new();
        let x = params.add(Matrix::from_vec(1, 1, vec![2.0]));
        let mut g = Graph::new();
        let xv = g.param(&params, x);
        let double_use = g.add(xv, xv); // 2x
        let loss = g.mse(double_use, Matrix::from_vec(1, 1, vec![0.0]));
        g.backward(loss, &mut params);
        // d/dx (2x)^2 = 8x = 16
        assert!((params.grad(x).get(0, 0) - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "backward requires a scalar loss")]
    fn non_scalar_loss_rejected() {
        let mut params = ParamSet::new();
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 2));
        g.backward(x, &mut params);
    }
}
