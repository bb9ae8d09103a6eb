//! Dense row-major matrices.

use crate::kernel::{self, Isa, Lhs};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Build from nested rows (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A 1×n row vector.
    pub fn row(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape to an all-zero `rows × cols`, keeping the allocation — the
    /// inference path's scratch buffers change batch size per call.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self @ other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_acc(other, 0, &mut out);
        out
    }

    /// `out += self @ other[row0 .. row0 + self.cols, :]`.
    ///
    /// The one product of this crate ([`crate::kernel`]): each `out[i][j]`
    /// takes its terms in increasing `k`, and a zero `self[i][k]`
    /// contributes nothing (not even a `+ 0.0`), on every instruction set.
    /// A product split over row blocks of `other` and accumulated block
    /// after block into the same `out` therefore equals the unsplit product
    /// bit for bit — what lets the inference path precompute the input half
    /// of `[x | h] · W` and still match the tape.
    pub fn matmul_acc(&self, other: &Matrix, row0: usize, out: &mut Matrix) {
        self.matmul_acc_on(Isa::widest(), other, row0, out);
    }

    fn matmul_acc_on(&self, isa: Isa, other: &Matrix, row0: usize, out: &mut Matrix) {
        assert!(
            row0 + self.cols <= other.rows && out.shape() == (self.rows, other.cols),
            "matmul_acc shape mismatch: {:?} @ {:?}[{row0}..] -> {:?}",
            self.shape(),
            other.shape(),
            out.shape()
        );
        let lhs = Lhs {
            data: &self.data,
            rows: self.rows,
            inner: self.cols,
            row_step: self.cols,
            col_step: 1,
        };
        let rhs = &other.data[row0 * other.cols..(row0 + self.cols) * other.cols];
        kernel::product(isa, lhs, rhs, other.cols, &mut out.data);
    }

    /// `out += selfᵀ @ other`, reading `self` transposed in place: equal
    /// bit for bit to `self.transpose().matmul_acc(other, 0, out)` (each
    /// output sums over the rows of `self` in increasing order) without
    /// building the transpose — the weight gradient of a product.
    pub fn tr_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        self.tr_matmul_acc_on(Isa::widest(), other, out);
    }

    fn tr_matmul_acc_on(&self, isa: Isa, other: &Matrix, out: &mut Matrix) {
        assert!(
            self.rows == other.rows && out.shape() == (self.cols, other.cols),
            "tr_matmul_acc shape mismatch: {:?}ᵀ @ {:?} -> {:?}",
            self.shape(),
            other.shape(),
            out.shape()
        );
        let lhs = Lhs {
            data: &self.data,
            rows: self.cols,
            inner: self.rows,
            row_step: 1,
            col_step: self.cols,
        };
        kernel::product(isa, lhs, &other.data, other.cols, &mut out.data);
    }

    /// `self[r][c] += bias[0][c]` for every row (the bias broadcast).
    pub fn add_row(&mut self, bias: &Matrix) {
        assert_eq!(bias.shape(), (1, self.cols), "add_row: bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (x, b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Row-wise softmax in place (max-shifted; the sum runs left to right).
    pub fn softmax_rows(&mut self) {
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into `out`, keeping its allocation.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                out.data[c * self.rows + r] = x;
            }
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self += other * scale` (shape-checked).
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Fill with zeros in place.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0 / 30.0f64).sqrt();
        assert!(m.data().iter().all(|x| x.abs() <= limit));
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn add_scaled_and_norm() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.get(0, 0), 6.0);
        assert_eq!(a.norm(), 10.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f64::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    /// The i-k-j loop every kernel copy must reproduce bit for bit.
    fn reference_acc(a: &Matrix, b: &Matrix, row0: usize, out: &mut Matrix) {
        for i in 0..a.rows {
            let out_row = out.row_slice_mut(i);
            for (k, &x) in a.row_slice(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out_row.iter_mut().zip(b.row_slice(row0 + k)) {
                    *o += x * y;
                }
            }
        }
    }

    /// A `rows × cols` matrix of ±0.0, subnormals, ±inf, NaN and values of
    /// wide magnitude; `zeros` is the share of exact zeros.
    fn awkward(rows: usize, cols: usize, zeros: f64, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.random_range(0.0..1.0) < zeros {
                    return if rng.random_range(0..2) == 0 {
                        0.0
                    } else {
                        -0.0
                    };
                }
                let sign = if rng.random_range(0..2) == 0 {
                    1.0
                } else {
                    -1.0
                };
                sign * match rng.random_range(0..40) {
                    0 => f64::INFINITY,
                    1 => f64::NAN,
                    2 => f64::from_bits(rng.random_range(1..1u64 << 52)),
                    3 => f64::MIN_POSITIVE,
                    4..=9 => 10f64.powi(rng.random_range(-300..300)),
                    _ => rng.random_range(-2.0..2.0),
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.data()
                .iter()
                .zip(y.data())
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    #[test]
    fn the_widest_supported_isa_is_dispatched() {
        let isas = Isa::supported();
        assert_eq!(isas.first().map(|isa| isa.name()), Some("portable"));
        assert_eq!(Some(&Isa::widest()), isas.last());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Every kernel copy this CPU runs equals the plain loop bit for
        /// bit, through both entries, at shapes that hit every row and
        /// column tail of every block width.
        #[test]
        fn kernels_equal_the_reference_loop(seed: u64,
                                             rows in 0usize..=70,
                                             inner in 0usize..=70,
                                             cols in 0usize..=140,
                                             row0 in 0usize..3,
                                             zeros_pick in 0usize..3) {
            static PRINTED: std::sync::Once = std::sync::Once::new();
            PRINTED.call_once(|| {
                let names: Vec<&str> = Isa::supported().iter().map(|isa| isa.name()).collect();
                println!("kernel paths checked: {names:?}");
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let zeros = [0.0, 0.1, 0.6][zeros_pick];
            let a = awkward(rows, inner, zeros, &mut rng);
            let b = awkward(row0 + inner + 1, cols, zeros, &mut rng);
            let out0 = awkward(rows, cols, 0.3, &mut rng);
            let mut expected = out0.clone();
            reference_acc(&a, &b, row0, &mut expected);

            let at = awkward(inner, rows, zeros, &mut rng);
            let bt = awkward(inner, cols, zeros, &mut rng);
            let mut expected_t = out0.clone();
            reference_acc(&at.transpose(), &bt, 0, &mut expected_t);

            for isa in Isa::supported() {
                let mut got = out0.clone();
                a.matmul_acc_on(isa, &b, row0, &mut got);
                prop_assert!(same_bits(&got, &expected),
                             "{}: matmul_acc {rows}x{inner}x{cols} row0 {row0}", isa.name());
                let mut got_t = out0.clone();
                at.tr_matmul_acc_on(isa, &bt, &mut got_t);
                prop_assert!(same_bits(&got_t, &expected_t),
                             "{}: tr_matmul_acc {rows}x{inner}x{cols}", isa.name());
            }
        }
    }
}
