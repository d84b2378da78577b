use crate::kcount::{self, Kernel};
use crate::Tensor;

// Declared memory traffic is bytes read + written at f32 width; FLOP counts
// follow the usual dense-kernel conventions (multiply-add = 2 FLOPs).
fn n64(n: usize) -> u64 {
    n as u64
}

fn matmul_scope(m: usize, k: usize, n: usize) -> kcount::KScope {
    kcount::scope(
        Kernel::Matmul,
        2 * n64(m) * n64(n) * n64(k),
        4 * (n64(m) * n64(k) + n64(k) * n64(n) + n64(m) * n64(n)),
    )
}

/// Rows and columns of the accumulator tile [`gemm`] keeps in registers
/// across the whole `k` loop: 4 x 8 `f32` is eight SSE2 vectors.
const MR: usize = 4;
const NR: usize = 8;

/// `A x B -> [m, n]` for a row-major `b: [k, n]`. `a_tile(rows)` walks `A`
/// in ascending `k`, yielding `A[rows[r], p]` for the four rows of a tile.
///
/// What defines the bits: each output element is its own accumulator that
/// starts at `+0.0` and adds its `k` products in ascending `k`, each product
/// rounded once and each sum rounded once (no FMA, no reassociation). Any
/// loop nest with that per-element order gives the same bits, so tiling,
/// vectorizing across columns and reading `A` through a transpose are all
/// free; splitting the `k` loop is not.
fn gemm<I: Iterator<Item = [f32; MR]>>(
    m: usize,
    n: usize,
    b: &[f32],
    a_tile: impl Fn([usize; MR]) -> I,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if out.is_empty() {
        return out;
    }
    let brows = b.chunks_exact(n);
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        // A last panel narrower than NR is packed once with zero columns
        // appended, so one tile body serves every panel.
        let padded: Vec<[f32; NR]> = if nr < NR {
            let pad =
                |brow: &[f32]| std::array::from_fn(|c| if c < nr { brow[j0 + c] } else { 0.0 });
            brows.clone().map(pad).collect()
        } else {
            Vec::new()
        };
        for i0 in (0..m).step_by(MR) {
            // A tile hanging over the last row repeats it; the surplus rows
            // and the padded columns are computed and not stored.
            let a = a_tile(std::array::from_fn(|r| (i0 + r).min(m - 1)));
            let acc = if nr == NR {
                let full = |brow: &[f32]| brow[j0..j0 + NR].try_into().expect("NR columns");
                tile(a, brows.clone().map(full))
            } else {
                tile(a, padded.iter().copied())
            };
            for (r, acc_row) in acc.iter().enumerate().take(m - i0) {
                out[(i0 + r) * n + j0..][..nr].copy_from_slice(&acc_row[..nr]);
            }
        }
    }
    out
}

/// A GEMM left operand read in place from a flat buffer:
/// `A[q, t] = src[rows[q] + cols[t]]`. A convolution's im2col patch matrix
/// is this view of its zero-padded input (a row per output position, a
/// column per kernel tap), so no patch matrix is built.
///
/// The products are [`Tensor::matmul`]'s and [`Tensor::matmul_tn`]'s on the
/// materialized `A`, bit for bit: only the address each `A` element is
/// loaded from differs (see [`gemm`]).
pub struct Gather<'a> {
    /// The buffer every element of `A` is read from.
    pub src: &'a [f32],
    /// Offset in `src` of each row of `A`.
    pub rows: &'a [usize],
    /// Offset of each column of `A` from its row's offset.
    pub cols: &'a [usize],
}

impl Gather<'_> {
    /// `A x b -> [m, n]` for `A: [m, k]` and `b: [k, n]`.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        let (m, k) = (self.rows.len(), self.cols.len());
        let (k2, n) = (b.rows(), b.cols());
        assert_eq!(k, k2, "gathered matmul inner dimensions differ: {k} vs {k2}");
        let _k = matmul_scope(m, k, n);
        let Gather { src, rows, cols } = *self;
        let out = gemm(m, n, b.data(), |qs| {
            let bases = qs.map(|q| rows[q]);
            cols.iter().map(move |&col| bases.map(|base| src[base + col]))
        });
        Tensor::from_vec(vec![m, n], out)
    }

    /// `Aᵀ x b -> [k, n]` for `A: [m, k]` and `b: [m, n]`.
    pub fn matmul_tn(&self, b: &Tensor) -> Tensor {
        let (m, k) = (self.rows.len(), self.cols.len());
        let (m2, n) = (b.rows(), b.cols());
        assert_eq!(m, m2, "gathered matmul_tn inner dimensions differ: {m} vs {m2}");
        let _k = matmul_scope(k, m, n);
        let Gather { src, rows, cols } = *self;
        let out = gemm(k, n, b.data(), |ts| {
            let offsets = ts.map(|t| cols[t]);
            rows.iter().map(move |&base| offsets.map(|col| src[base + col]))
        });
        Tensor::from_vec(vec![k, n], out)
    }
}

/// One accumulator tile: `acc[r][c] += a[r] * b[c]` over the zipped `k` walk.
#[inline(always)]
fn tile(a: impl Iterator<Item = [f32; MR]>, b: impl Iterator<Item = [f32; NR]>) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in a.zip(b) {
        for (acc_row, &a) in acc.iter_mut().zip(&av) {
            for (o, &b) in acc_row.iter_mut().zip(&bv) {
                *o += a * b;
            }
        }
    }
    acc
}

impl Tensor {
    /// Elementwise addition; shapes must match.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// In-place elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 12 * n64(self.numel()));
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        let _k = kcount::scope(Kernel::Elementwise, 2 * n64(self.numel()), 12 * n64(self.numel()));
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 8 * n64(self.numel()));
        Tensor::from_vec(self.shape().to_vec(), self.data().iter().map(|x| x * scalar).collect())
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, scalar: f32) {
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 8 * n64(self.numel()));
        for x in self.data_mut() {
            *x *= scalar;
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 8 * n64(self.numel()));
        Tensor::from_vec(self.shape().to_vec(), self.data().iter().map(|&x| f(x)).collect())
    }

    /// Sets every element to zero, preserving the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// 2-D matrix multiply: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Every output element starts at `+0.0` and adds its `k` products in
    /// ascending `k`, one rounding per multiply and one per add (see
    /// [`gemm`]); non-finite operands propagate (`0 · NaN = NaN`).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape().len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let _k = matmul_scope(m, k, n);
        let a = self.data();
        let out = gemm(m, n, other.data(), |rows| {
            let rows = rows.map(|i| &a[i * k..][..k]);
            (0..k).map(move |p| rows.map(|row| row[p]))
        });
        Tensor::from_vec(vec![m, n], out)
    }

    /// `selfᵀ x other` without materializing the transpose:
    /// `[k, m]ᵀ x [k, n] -> [m, n]`, bit-identical to
    /// `self.transpose2().matmul(other)`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(other.shape().len(), 2, "matmul_tn rhs must be 2-D");
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn inner dimensions differ: {k} vs {k2}");
        let _k = matmul_scope(m, k, n);
        let a = self.data();
        let out = gemm(m, n, other.data(), |rows| {
            a.chunks_exact(m).map(move |arow| rows.map(|i| arow[i]))
        });
        Tensor::from_vec(vec![m, n], out)
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let _k = kcount::scope(Kernel::Transpose, 0, 8 * n64(m) * n64(n));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.at2(i, j);
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        let _k = kcount::scope(Kernel::Norm, 2 * n64(self.numel()), 4 * n64(self.numel()));
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum element (NaN-free input assumed).
    pub fn max(&self) -> f32 {
        self.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-free input assumed).
    pub fn min(&self) -> f32 {
        self.data().iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clip(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "invalid clip range");
        self.map(|x| x.clamp(lo, hi))
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in elementwise op");
        let _k = kcount::scope(Kernel::Elementwise, n64(self.numel()), 12 * n64(self.numel()));
        let data = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(self.shape().to_vec(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[3], &[1.0, 1.0, 1.0]);
        let b = t(&[3], &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let i = t(&[2, 2], &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    /// The loop `matmul` ran before it was tiled, zero skip included: the
    /// slow reference the tiled kernel and `matmul_tn` are held to, bit for
    /// bit.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        assert_eq!(k, b.rows());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &aip) in a.row(i).iter().enumerate() {
                if aip == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(b.row(p)) {
                    *o += aip * bv;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Random finite operands; the left one is salted with `+0.0` and `-0.0`
    /// (what ReLU, pooling and padding put there).
    fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Tensor::randn(&[m, k], 1.0, &mut rng);
        for x in a.data_mut() {
            match rng.random_range(0..6u32) {
                0 => *x = 0.0,
                1 => *x = -0.0,
                _ => {}
            }
        }
        (a, Tensor::randn(&[k, n], 1.0, &mut rng))
    }

    proptest! {
        /// Shapes cover every tile remainder: `m % 4`, `n % 8`, `n < 8` and
        /// `k` of 0 and 1.
        #[test]
        fn matmul_is_bit_identical_to_the_reference(
            m in 0usize..14, k in 0usize..11, n in 0usize..20, seed in any::<u64>()
        ) {
            let (a, b) = operands(m, k, n, seed);
            let fast = a.matmul(&b);
            prop_assert_eq!(fast.shape(), &[m, n]);
            prop_assert_eq!(bits(&fast), bits(&matmul_reference(&a, &b)));
        }

        #[test]
        fn matmul_tn_is_bit_identical_to_transpose_then_reference(
            m in 0usize..14, k in 0usize..11, n in 0usize..20, seed in any::<u64>()
        ) {
            let (a, b) = operands(m, k, n, seed);
            let at = a.transpose2(); // [k, m]: the operand `matmul_tn` reads.
            let fast = at.matmul_tn(&b);
            prop_assert_eq!(fast.shape(), &[m, n]);
            prop_assert_eq!(bits(&fast), bits(&matmul_reference(&a, &b)));
        }
    }

    /// `A` of a gathered operand, built element by element.
    fn materialize(g: &Gather) -> Tensor {
        let data = g.rows.iter().flat_map(|&row| g.cols.iter().map(move |&col| g.src[row + col]));
        Tensor::from_vec(vec![g.rows.len(), g.cols.len()], data.collect())
    }

    proptest! {
        /// Arbitrary (overlapping, repeated, unordered) offsets, empty
        /// operands and every tile remainder; the source is salted with
        /// zeros, NaN and infinities.
        #[test]
        fn gathered_products_are_bit_identical_to_the_materialized_ones(
            m in 0usize..14, k in 0usize..11, n in 0usize..20, seed in any::<u64>()
        ) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rows: Vec<usize> = (0..m).map(|_| rng.random_range(0..40)).collect();
            let cols: Vec<usize> = (0..k).map(|_| rng.random_range(0..40)).collect();
            let mut src = Tensor::randn(&[80], 1.0, &mut rng);
            for x in src.data_mut() {
                match rng.random_range(0..12u32) {
                    0 => *x = 0.0,
                    1 => *x = -0.0,
                    2 => *x = f32::NAN,
                    3 => *x = f32::INFINITY,
                    _ => {}
                }
            }
            let g = Gather { src: src.data(), rows: &rows, cols: &cols };
            let a = materialize(&g);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            prop_assert_eq!(bits(&g.matmul(&b)), bits(&a.matmul(&b)));
            let bt = Tensor::randn(&[m, n], 1.0, &mut rng);
            prop_assert_eq!(bits(&g.matmul_tn(&bt)), bits(&a.matmul_tn(&bt)));
        }
    }

    #[test]
    fn matmul_matches_the_reference_on_the_conv_shapes() {
        for (m, k, n) in [(2048, 75, 8), (512, 200, 16), (75, 2048, 8), (128, 128, 128)] {
            let (a, b) = operands(m, k, n, 5);
            let want = bits(&matmul_reference(&a, &b));
            assert_eq!(bits(&a.matmul(&b)), want, "matmul {m}x{k}x{n}");
            assert_eq!(bits(&a.transpose2().matmul_tn(&b)), want, "matmul_tn {m}x{k}x{n}");
        }
    }

    /// The one intended semantic change of dropping the zero skip: a zero in
    /// the left operand no longer hides a non-finite right operand.
    #[test]
    fn zero_times_nan_propagates() {
        let a = t(&[1, 2], &[0.0, 1.0]);
        let b = t(&[2, 2], &[f32::NAN, f32::INFINITY, 2.0, 3.0]);
        assert_eq!(matmul_reference(&a, &b).data(), &[2.0, 3.0]);
        assert!(a.matmul(&b).data().iter().all(|x| x.is_nan()));
        assert!(a.transpose2().matmul_tn(&b).data().iter().all(|x| x.is_nan()));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_bad_dims() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[2, 3], &[0.0; 6]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().at2(2, 1), 6.0);
    }

    #[test]
    fn min_max_clip_dot() {
        let a = t(&[4], &[-2.0, 0.5, 3.0, 1.0]);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.clip(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }
}
