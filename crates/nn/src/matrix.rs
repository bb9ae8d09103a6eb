//! Dense row-major matrices.

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
    /// The one product loop of this crate: each `out[i][j]` takes its terms
    /// in increasing `k`, and a zero `self[i][k]` contributes nothing (not
    /// even a `+ 0.0`). A product split over row blocks of `other` and
    /// accumulated block after block into the same `out` therefore equals
    /// the unsplit product bit for bit — what lets the inference path
    /// precompute the input half of `[x | h] · W` and still match the tape.
    pub fn matmul_acc(&self, other: &Matrix, row0: usize, out: &mut Matrix) {
        assert!(
            row0 + self.cols <= other.rows && out.shape() == (self.rows, other.cols),
            "matmul_acc shape mismatch: {:?} @ {:?}[{row0}..] -> {:?}",
            self.shape(),
            other.shape(),
            out.shape()
        );
        // i-k-j loop order: streams through `other` row-contiguously.
        for i in 0..self.rows {
            let out_row = out.row_slice_mut(i);
            for (k, &a) in self.row_slice(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(other.row_slice(row0 + k)) {
                    *o += a * b;
                }
            }
        }
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
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
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
}
