//! Small dense linear algebra for the PCA detector: a cyclic Jacobi
//! eigensolver for symmetric matrices. At count-vector dimensionalities
//! (tens to a few hundred templates) Jacobi is simple, robust and fast
//! enough; no external LAPACK needed.

/// Eigen-decomposition of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as rows, aligned with `values` (row k is the
    /// eigenvector of `values[k]`).
    pub vectors: Vec<Vec<f64>>,
}

/// Decompose the symmetric `n×n` matrix `a` (row-major) with the cyclic
/// Jacobi method.
///
/// # Panics
/// If `a` is not square or is asymmetric beyond `1e-9`.
#[allow(clippy::needless_range_loop)] // Jacobi rotations index rows and columns
pub fn sym_eigen(a: &[Vec<f64>]) -> SymEigen {
    let n = a.len();
    for row in a {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    for i in 0..n {
        for j in 0..i {
            assert!((a[i][j] - a[j][i]).abs() < 1e-9, "matrix must be symmetric");
        }
    }
    let mut m: Vec<Vec<f64>> = a.to_vec();
    // Accumulated rotations: v[r][k] = component r of eigenvector k.
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }

    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i][j] * m[i][j];
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if m[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of m.
                for k in 0..n {
                    let (mkp, mkq) = (m[k][p], m[k][q]);
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p][k], m[q][k]);
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for row in v.iter_mut() {
                    let (vp, vq) = (row[p], row[q]);
                    row[p] = c * vp - s * vq;
                    row[q] = s * vp + c * vq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[j][j].partial_cmp(&m[i][i]).expect("finite eigenvalues"));
    let values: Vec<f64> = order.iter().map(|&k| m[k][k]).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&k| (0..n).map(|r| v[r][k]).collect())
        .collect();
    SymEigen { values, vectors }
}

/// Dot product helper.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymEigen, n: usize) -> Vec<Vec<f64>> {
        // A = Σ λ_k v_k v_k^T
        let mut out = vec![vec![0.0; n]; n];
        for (lam, vec) in e.values.iter().zip(&e.vectors) {
            for i in 0..n {
                for j in 0..n {
                    out[i][j] += lam * vec[i] * vec[j];
                }
            }
        }
        out
    }

    #[test]
    fn diagonal_matrix() {
        let a = vec![vec![3.0, 0.0], vec![0.0, 1.0]];
        let e = sym_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-9);
        assert!((e.values[1] - 1.0).abs() < 1e-9);
        assert!(e.vectors[0][0].abs() > 0.99);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let e = sym_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-9);
        assert!((e.values[1] - 1.0).abs() < 1e-9);
        // Eigenvector of 3 is (1,1)/√2 up to sign.
        let v = &e.vectors[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((v[0] - v[1]).abs() < 1e-9, "components equal up to sign");
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        let a = vec![
            vec![4.0, 1.0, 0.5, 0.0],
            vec![1.0, 3.0, 0.2, 0.1],
            vec![0.5, 0.2, 2.0, 0.3],
            vec![0.0, 0.1, 0.3, 1.0],
        ];
        let e = sym_eigen(&a);
        // Eigenvalues descending.
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Orthonormal vectors.
        for i in 0..4 {
            for j in 0..4 {
                let d = dot(&e.vectors[i], &e.vectors[j]);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-9, "v{i}·v{j} = {d}");
            }
        }
        // Reconstruction.
        let r = reconstruct(&e, 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((r[i][j] - a[i][j]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matrix must be symmetric")]
    fn asymmetric_rejected() {
        sym_eigen(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
    }

    #[test]
    fn handles_1x1_and_empty() {
        let e = sym_eigen(&[vec![5.0]]);
        assert_eq!(e.values, vec![5.0]);
        let e = sym_eigen(&[]);
        assert!(e.values.is_empty());
    }
}

#[cfg(test)]
// Matrix identities read as index algebra (`a[i][j] == a[j][i]`).
#[allow(clippy::needless_range_loop)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random symmetric matrices: eigen-decomposition reconstructs the
        /// input and produces an orthonormal basis.
        #[test]
        fn random_symmetric_decompose(seed in proptest::collection::vec(-2.0f64..2.0, 10)) {
            // Build a 4x4 symmetric matrix from 10 free entries.
            let mut a = vec![vec![0.0; 4]; 4];
            let mut it = seed.into_iter();
            for i in 0..4 {
                for j in i..4 {
                    let v = it.next().expect("10 entries fill the upper triangle");
                    a[i][j] = v;
                    a[j][i] = v;
                }
            }
            let e = sym_eigen(&a);
            for i in 0..4 {
                for j in 0..4 {
                    let r: f64 = (0..4)
                        .map(|k| e.values[k] * e.vectors[k][i] * e.vectors[k][j])
                        .sum();
                    prop_assert!((r - a[i][j]).abs() < 1e-7);
                }
            }
        }
    }
}
