//! The one product kernel of this crate, behind [`Matrix::matmul_acc`] and
//! [`Matrix::tr_matmul_acc`].
//!
//! `out += a · b`, computed in blocks of `R` rows × `W` columns held in
//! registers while `k` runs over the inner dimension; rows left over at
//! the bottom take one-row blocks, columns left over at the right the
//! plain i-k-j loop. The blocking changes where partial sums live, not how
//! they are formed, so every ISA computes the same bits as that loop:
//!
//! - each `out[i][j]` takes its terms in increasing `k`, one rounded
//!   multiply and one rounded add per term (no `mul_add`, and Rust never
//!   contracts the two into an FMA);
//! - a zero `a[i][k]` contributes nothing, not even a `+ 0.0`: a `k` whose
//!   `R` left values are all nonzero takes the unbranched path, any other
//!   `k` tests each row.
//!
//! The body is compiled three times — portable, AVX2 and AVX-512F — and
//! [`Isa::widest`] picks the widest copy this CPU runs, once.
//!
//! [`Matrix::matmul_acc`]: crate::Matrix::matmul_acc
//! [`Matrix::tr_matmul_acc`]: crate::Matrix::tr_matmul_acc

use std::sync::OnceLock;

/// An instruction-set level of the kernel. Only [`Isa::supported`] makes
/// one, so holding an `Isa` means this CPU runs its copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Portable,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
}

impl Isa {
    /// Every level this CPU runs, narrowest first.
    pub(crate) fn supported() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut levels = vec![Isa(Level::Portable)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                levels.push(Isa(Level::Avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                levels.push(Isa(Level::Avx512));
            }
        }
        levels
    }

    /// The widest supported level, detected on first use.
    pub(crate) fn widest() -> Isa {
        static WIDEST: OnceLock<Isa> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            *Isa::supported()
                .last()
                .expect("the portable level is always supported")
        })
    }

    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Level::Portable => "portable",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Level::Avx2 => "avx2",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Level::Avx512 => "avx512f",
        }
    }
}

/// The left operand, `rows × inner`: element `(i, k)` is
/// `data[i * row_step + k * col_step]` — a row-major matrix, or one read
/// transposed in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub data: &'a [f64],
    pub rows: usize,
    pub inner: usize,
    pub row_step: usize,
    pub col_step: usize,
}

impl Lhs<'_> {
    #[inline(always)]
    fn at(&self, i: usize, k: usize) -> f64 {
        self.data[i * self.row_step + k * self.col_step]
    }
}

/// `out += a · b`, where `b` is row-major `a.inner × cols` and `out` is
/// row-major `a.rows × cols`, on the `isa` copy of the kernel.
pub(crate) fn product(isa: Isa, a: Lhs<'_>, b: &[f64], cols: usize, out: &mut [f64]) {
    assert!(b.len() >= a.inner * cols && out.len() >= a.rows * cols);
    match isa.0 {
        Level::Portable => portable(a, b, cols, out),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        level => {
            // SAFETY: `avx2` and `avx512` only require their target
            // features. An `Isa` comes only from `Isa::supported`, which
            // yields `Avx2` after `is_x86_feature_detected!("avx2")` and
            // `Avx512` after `is_x86_feature_detected!("avx512f")`.
            unsafe {
                if level == Level::Avx512 {
                    avx512(a, b, cols, out)
                } else {
                    avx2(a, b, cols, out)
                }
            }
        }
    }
}

/// Two SSE2/NEON registers of `f64` per block row.
fn portable(a: Lhs<'_>, b: &[f64], cols: usize, out: &mut [f64]) {
    blocked::<4>(a, b, cols, out)
}

/// Two 256-bit registers per block row.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn avx2(a: Lhs<'_>, b: &[f64], cols: usize, out: &mut [f64]) {
    blocked::<8>(a, b, cols, out)
}

/// Two 512-bit registers per block row.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn avx512(a: Lhs<'_>, b: &[f64], cols: usize, out: &mut [f64]) {
    blocked::<16>(a, b, cols, out)
}

/// Rows in blocks of four, then one at a time; `W` columns per block.
#[inline(always)]
fn blocked<const W: usize>(a: Lhs<'_>, b: &[f64], cols: usize, out: &mut [f64]) {
    if a.rows == 0 || a.inner == 0 || cols == 0 {
        return;
    }
    let quads = a.rows / 4 * 4;
    for i in (0..quads).step_by(4) {
        rows::<4, W>(a, i, b, cols, out);
    }
    for i in quads..a.rows {
        rows::<1, W>(a, i, b, cols, out);
    }
}

/// `out` rows `i .. i + R`: `R × W` register blocks across the columns,
/// then the plain loop over the columns left over.
#[inline(always)]
fn rows<const R: usize, const W: usize>(
    a: Lhs<'_>,
    i: usize,
    b: &[f64],
    cols: usize,
    out: &mut [f64],
) {
    let b = &b[..a.inner * cols];
    let blocks = cols / W * W;
    for j in (0..blocks).step_by(W) {
        let mut acc = [[0.0f64; W]; R];
        for (r, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(&out[(i + r) * cols + j..][..W]);
        }
        for (k, b_row) in b.chunks_exact(cols).enumerate() {
            let b_block: &[f64; W] = b_row[j..j + W].try_into().expect("W columns");
            let lhs: [f64; R] = std::array::from_fn(|r| a.at(i + r, k));
            if lhs.iter().all(|&x| x != 0.0) {
                for (acc, &x) in acc.iter_mut().zip(&lhs) {
                    for (o, &y) in acc.iter_mut().zip(b_block) {
                        *o += x * y;
                    }
                }
            } else {
                for (acc, &x) in acc.iter_mut().zip(&lhs) {
                    if x != 0.0 {
                        for (o, &y) in acc.iter_mut().zip(b_block) {
                            *o += x * y;
                        }
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out[(i + r) * cols + j..][..W].copy_from_slice(acc);
        }
    }
    if blocks < cols {
        for r in i..i + R {
            let out_row = &mut out[r * cols + blocks..(r + 1) * cols];
            for (k, b_row) in b.chunks_exact(cols).enumerate() {
                let x = a.at(r, k);
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out_row.iter_mut().zip(&b_row[blocks..]) {
                    *o += x * y;
                }
            }
        }
    }
}
