//! # monilog-nn
//!
//! A small, self-contained neural-network substrate.
//!
//! The deep log-anomaly detectors the paper surveys (DeepLog, LogAnomaly,
//! LogRobust) are LSTM models originally built on GPU frameworks. None of
//! that tooling is available here, and none of it is needed: the models are
//! tiny (hidden sizes ≤ 128, vocabularies of a few hundred templates), so a
//! plain CPU implementation with exact reverse-mode autodiff reproduces the
//! algorithms faithfully. Substitution documented in `DESIGN.md`.
//!
//! Design:
//! - [`matrix`] — a dense row-major `f64` matrix. `f64` keeps
//!   finite-difference gradient checks tight; these models are far from
//!   memory-bound at our scale.
//! - [`graph`] — tape-based reverse-mode autodiff over matrices. Each
//!   training step builds a fresh [`graph::Graph`] (define-by-run, like
//!   PyTorch), calls [`graph::Graph::backward`], and feeds parameter
//!   gradients to an optimizer.
//! - [`layers`] — Dense, Embedding, LSTM cell/sequence, BiLSTM, additive
//!   attention; composed from graph ops so BPTT falls out automatically.
//! - [`optim`] — SGD (with momentum) and Adam.
//! - [`gradcheck`] — finite-difference verification used by this crate's
//!   tests and property tests.

pub mod gradcheck;
pub mod graph;
pub mod layers;
pub mod matrix;
pub mod optim;

pub use graph::{Graph, Var};
pub use layers::{Attention, BiLstm, Dense, Embedding, Lstm, LstmScratch, LstmState};
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, ParamSet, Sgd};
