//! Criterion benchmark: neural-substrate primitives — matmul, DeepLog's
//! training products, LSTM step, full BPTT training step. These bound how
//! fast the deep detectors can train and score.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monilog_nn::{Adam, Dense, Embedding, Graph, Lstm, Matrix, Optimizer, ParamSet, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn nn_primitives(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);

    // Dense matmul at detector-typical sizes.
    let mut group = c.benchmark_group("nn");
    group.sample_size(20);
    for n in [32usize, 64, 128] {
        let a = Matrix::xavier(n, n, &mut rng);
        let b = Matrix::xavier(n, n, &mut rng);
        group.bench_function(BenchmarkId::new("matmul", n), |bencher| {
            bencher.iter(|| black_box(a.matmul(&b)))
        });
    }

    // One LSTM forward step (batch 64, the DeepLog training batch).
    let mut params = ParamSet::new();
    let lstm = Lstm::new(&mut params, 16, 32, &mut rng);
    group.bench_function("lstm_step_b64", |bencher| {
        bencher.iter(|| {
            let mut g = Graph::new();
            let x = g.input(Matrix::full(64, 16, 0.3));
            let state = lstm.zero_state(&mut g, 64);
            black_box(lstm.step(&mut g, &params, x, state));
        })
    });

    // DeepLog's training products at batch 64: `z · W` with `z = [x | h]`
    // (16 + 32 wide) and `W` 48 × 128 (four 32-wide gates), then the two
    // products of its backward — `grad · Wᵀ` through a reused transpose,
    // and `zᵀ · grad` read transposed in place.
    let z = Matrix::xavier(64, 48, &mut rng);
    let w = Matrix::xavier(48, 128, &mut rng);
    let grad = Matrix::xavier(64, 128, &mut rng);
    group.bench_function("deeplog_fwd_64x48x128", |bencher| {
        bencher.iter(|| black_box(z.matmul(&w)))
    });
    let (mut w_t, mut out) = (Matrix::default(), Matrix::default());
    group.bench_function("deeplog_grad_z_64x128x48", |bencher| {
        bencher.iter(|| {
            w.transpose_into(&mut w_t);
            out.reset(64, 48);
            grad.matmul_acc(&w_t, 0, &mut out);
            black_box(&out);
        })
    });
    group.bench_function("deeplog_grad_w_48x64x128", |bencher| {
        bencher.iter(|| {
            out.reset(48, 128);
            z.tr_matmul_acc(&grad, &mut out);
            black_box(&out);
        })
    });

    // A full DeepLog-shaped training step: embed → 6-step LSTM → head →
    // xent → backward → Adam.
    let mut params = ParamSet::new();
    let emb = Embedding::new(&mut params, 16, 16, &mut rng);
    let lstm = Lstm::new(&mut params, 16, 32, &mut rng);
    let head = Dense::new(&mut params, 32, 16, &mut rng);
    let mut opt = Adam::new(0.01);
    let windows: Vec<Vec<usize>> = (0..64)
        .map(|i| (0..6).map(|k| (i + k) % 16).collect())
        .collect();
    let targets: Vec<usize> = (0..64).map(|i| i % 16).collect();
    group.bench_function("deeplog_train_step_b64", |bencher| {
        bencher.iter(|| {
            params.zero_grads();
            let mut g = Graph::new();
            let xs: Vec<Var> = (0..6)
                .map(|t| {
                    let ids: Vec<usize> = windows.iter().map(|w| w[t]).collect();
                    emb.forward(&mut g, &params, &ids)
                })
                .collect();
            let states = lstm.run(&mut g, &params, &xs);
            let logits = head.forward(&mut g, &params, states.last().unwrap().h);
            let loss = g.softmax_xent(logits, targets.clone());
            g.backward(loss, &mut params);
            params.clip_grad_norm(5.0);
            opt.step(&mut params);
            black_box(());
        })
    });
    group.finish();
}

criterion_group!(benches, nn_primitives);
criterion_main!(benches);
