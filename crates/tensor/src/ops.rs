use std::ops::Range;

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

/// Rows of the accumulator tile [`gemm`] keeps in registers across the
/// whole `k` loop. Its columns are the panel width `W` of the build: `NR`
/// (4 x 8 `f32` is four AVX2 vectors, or eight SSE2 vectors in the baseline
/// build) or `NR_WIDE` (four AVX-512 vectors).
const MR: usize = 4;
const NR: usize = 8;
const NR_WIDE: usize = 16;

/// `A x B -> [m, n]` for a row-major `b: [k, n]`. `a_tile(rows)` walks `A`
/// in ascending `k`, yielding `A[rows[r], p]` for the four rows of a tile;
/// `a` says where the same elements sit.
///
/// What defines the bits: each output element is its own accumulator that
/// starts at `+0.0` and adds its `k` products in ascending `k`, each product
/// rounded once and each sum rounded once (no FMA, no reassociation). Any
/// loop nest with that per-element order gives the same bits, so tiling,
/// vectorizing across columns or across rows and reading `A` through a
/// transpose are all free; splitting the `k` loop is not.
///
/// Four builds, which only widen the lanes (Rust never contracts
/// `a * b + c`, so no build fuses a multiply-add), so all give the same
/// bits, NaN payloads aside: where two NaNs with different payloads meet
/// in one product or sum, the result carries the payload of the operand
/// the instruction names first, and in the three panel builds LLVM's
/// register allocation picks that, tile row by tile row.
///
/// On a CPU with AVX-512F, the 16-column panels run in the AVX-512 build,
/// an 8-column rest (`n % 16 == 8`, conv1's `n = 8` included) in the
/// narrow AVX-512 build and any other rest in the AVX2 build; on a CPU
/// with AVX2 every panel runs in the AVX2 build; otherwise in the baseline
/// build. The AVX-512 build runs no 8-column panel: LLVM packs that tile
/// two rows per register there, several times slower; the narrow build
/// turns the panel on its side instead.
fn gemm<I: Iterator<Item = [f32; MR]>, L: Fn(usize) -> usize, K: Fn(usize) -> usize>(
    m: usize,
    n: usize,
    b: &[f32],
    a_tile: impl Fn([usize; MR]) -> I,
    a: &Offsets<'_, L, K>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if out.is_empty() {
        return out;
    }
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            done = n - n % NR_WIDE;
            if done > 0 {
                // SAFETY: the running CPU reports AVX-512F, the one feature
                // `gemm_avx512` is compiled with.
                unsafe { gemm_avx512(&mut out, n, 0..done, b, &a_tile) };
            }
            if n - done == NR {
                // SAFETY: as above, for `gemm_narrow`.
                unsafe { gemm_narrow(&mut out, n, done, b, a) };
                return out;
            }
        }
        if done < n && is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU reports AVX2, the one feature
            // `gemm_avx2` is compiled with.
            unsafe { gemm_avx2(&mut out, n, done..n, b, &a_tile) };
            return out;
        }
    }
    gemm_body::<NR, _>(&mut out, n, done..n, b, &a_tile);
    out
}

/// Where the elements of a GEMM's left operand `A: [m, k]` sit in a flat
/// buffer: `A[i, p] = src[long(i) + inner(p)]`. Every form of [`gemm`] is
/// this view of something (a row-major matrix, its transpose, a
/// [`Gather`] or its transpose), so [`gemm_narrow`] serves them all.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Offsets<'a, L, K> {
    src: &'a [f32],
    /// Offset of row `i` of `A`.
    long: L,
    /// Offset of column `p` of `A` from its row's.
    inner: K,
}

/// [`gemm_body`] compiled for AVX2 on 8-column panels; callable only on a
/// CPU that has it. The body is inlined here, not passed in as a closure: a
/// closure's body would keep the baseline build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<I: Iterator<Item = [f32; MR]>>(
    out: &mut [f32],
    n: usize,
    cols: Range<usize>,
    b: &[f32],
    a_tile: impl Fn([usize; MR]) -> I,
) {
    gemm_body::<NR, _>(out, n, cols, b, a_tile)
}

/// [`gemm_body`] compiled for AVX-512F on 16-column panels; callable only on
/// a CPU that has it, and only for whole panels (`cols` a multiple of 16
/// wide), so no padded panel is allocated here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512<I: Iterator<Item = [f32; MR]>>(
    out: &mut [f32],
    n: usize,
    cols: Range<usize>,
    b: &[f32],
    a_tile: impl Fn([usize; MR]) -> I,
) {
    debug_assert!(cols.len().is_multiple_of(NR_WIDE), "whole 16-column panels only");
    gemm_body::<NR_WIDE, _>(out, n, cols, b, a_tile)
}

/// [`gemm`]'s 8 columns `j0..j0 + 8` of `out: [m, n]` compiled for
/// AVX-512F, with the product transposed: each zmm holds 16 consecutive
/// rows of one output column. Per `k` step one gather fills a zmm with
/// `A[i0..i0 + 16, p]` and each of the 8 column accumulators adds that
/// times a broadcast of `b[p, j0 + c]`, so each element's sums run in the
/// other builds' order and give their bits. Every product names the
/// gathered operand first, as [`tile`]'s `a * b` does. The sum is written
/// product first: that is the machine order of [`tile`]'s `*o += a * b`
/// unoptimized (the backend folds the accumulator's load as the second
/// source), and optimized LLVM emits the accumulator first in this build
/// as in the panel builds. The tile is stored transposed. A tile hanging
/// over the last row repeats it, as in [`gemm_body`]. Callable only on a
/// CPU that has AVX-512F.
///
/// Panics, before the first gather, unless every `long(i) + inner(p)` is an
/// index of `src` that fits in `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_narrow<L: Fn(usize) -> usize, K: Fn(usize) -> usize>(
    out: &mut [f32],
    n: usize,
    j0: usize,
    b: &[f32],
    a: &Offsets<'_, L, K>,
) {
    use std::arch::x86_64::*;
    const LANES: usize = 16;
    let (m, k) = (out.len() / n, b.len() / n);
    if let (Some(long), Some(inner)) = ((0..m).map(&a.long).max(), (0..k).map(&a.inner).max()) {
        let reach = long.checked_add(inner);
        assert!(
            reach.is_some_and(|r| r < a.src.len() && i32::try_from(r).is_ok()),
            "gathered GEMM operand: an offset is out of bounds of its {}-element source",
            a.src.len()
        );
    }
    let perm: [[__m512i; 2]; 3] = std::array::from_fn(|round| {
        std::array::from_fn(|h| {
            let lanes = transpose_lanes(round, h);
            // SAFETY: `lanes` is 16 `i32`s, the 64 bytes an unaligned load reads.
            unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
        })
    });
    for i0 in (0..m).step_by(LANES) {
        let rows: [i32; LANES] = std::array::from_fn(|l| (a.long)((i0 + l).min(m - 1)) as i32);
        // SAFETY: `rows` is 16 `i32`s, the 64 bytes an unaligned load reads.
        let rows = unsafe { _mm512_loadu_si512(rows.as_ptr().cast()) };
        let mut acc = [_mm512_setzero_ps(); NR];
        for (p, brow) in b.chunks_exact(n).enumerate() {
            // SAFETY: every lane reads `src[long(i) + inner(p)]` for an
            // `i < m`, which the assert above holds in bounds.
            let av = unsafe { _mm512_i32gather_ps::<4>(rows, a.src.as_ptr().add((a.inner)(p))) };
            for (acc, &bv) in acc.iter_mut().zip(&brow[j0..j0 + NR]) {
                *acc = _mm512_add_ps(_mm512_mul_ps(av, _mm512_set1_ps(bv)), *acc);
            }
        }
        // Transposed in three rounds of two-source permutes, each pairing
        // the vectors of the columns that differ in one bit, into `tile`
        // row-major: row `r`, column `c` at `8r + c`.
        let x: [[__m512; 2]; 4] = std::array::from_fn(|a| {
            std::array::from_fn(|h| _mm512_permutex2var_ps(acc[2 * a], perm[0][h], acc[2 * a + 1]))
        });
        let y: [[[__m512; 2]; 2]; 2] = std::array::from_fn(|c2| {
            std::array::from_fn(|h3| {
                std::array::from_fn(|h2| {
                    _mm512_permutex2var_ps(x[2 * c2][h3], perm[1][h2], x[2 * c2 + 1][h3])
                })
            })
        });
        let mut tile = [0.0f32; LANES * NR];
        for (q, two_rows) in tile.chunks_exact_mut(LANES).enumerate() {
            let (h3, h2, h1) = (q >> 2, (q >> 1) & 1, q & 1);
            let v = _mm512_permutex2var_ps(y[0][h3][h2], perm[2][h1], y[1][h3][h2]);
            // SAFETY: `two_rows` is the 16 `f32`s an unaligned store writes.
            unsafe { _mm512_storeu_ps(two_rows.as_mut_ptr(), v) };
        }
        for (orow, row) in out[i0 * n..].chunks_mut(n).zip(tile.chunks_exact(NR)) {
            orow[j0..j0 + NR].copy_from_slice(row);
        }
    }
}

/// The permutes that transpose [`gemm_narrow`]'s tile: for round `round`
/// and output half `h`, the source of each output lane (16 and up: the
/// second operand). Round 0 pairs columns by bit 0 and splits rows by bit
/// 3, round 1 columns by bit 1 and rows by bit 2, round 2 columns by bit 2
/// and rows by bit 1, leaving row bit 0 and the column in each lane.
#[cfg(target_arch = "x86_64")]
fn transpose_lanes(round: usize, h: usize) -> [i32; 16] {
    std::array::from_fn(|l| {
        let lane = match round {
            0 => (l >> 3) * 16 + h * 8 + (l & 7),
            1 => (l >> 3) * 16 + ((l >> 2) & 1) * 8 + h * 4 + (l & 3),
            _ => ((l >> 2) & 1) * 16 + ((l >> 1) & 1) * 8 + (l & 1) * 4 + h * 2 + (l >> 3),
        };
        lane as i32
    })
}

/// The build [`gemm`] runs on this CPU: `"avx512 (16-column panels; an
/// 8-column rest transposed; avx2 other rests)"`, `"avx2"`, or the baseline
/// `"sse2"`.
pub fn gemm_build() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            return "avx512 (16-column panels; an 8-column rest transposed; avx2 other rests)";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    BASELINE_BUILD
}

/// What the baseline build of [`gemm`] vectorizes with.
const BASELINE_BUILD: &str = if cfg!(target_arch = "x86_64") { "sse2" } else { "portable" };

/// The source of every build of [`gemm`]: fills columns `cols` of
/// `out: [m, n]` in `W`-column panels.
#[inline(always)]
fn gemm_body<const W: usize, I: Iterator<Item = [f32; MR]>>(
    out: &mut [f32],
    n: usize,
    cols: Range<usize>,
    b: &[f32],
    a_tile: impl Fn([usize; MR]) -> I,
) {
    let m = out.len() / n;
    let brows = b.chunks_exact(n);
    for j0 in cols.clone().step_by(W) {
        let nr = W.min(cols.end - j0);
        // A last panel narrower than W is packed once with zero columns
        // appended, so one tile body serves every panel.
        let padded: Vec<[f32; W]> = if nr < W {
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
            let acc = if nr == W {
                let full = |brow: &[f32]| brow[j0..j0 + W].try_into().expect("W columns");
                tile(a, brows.clone().map(full))
            } else {
                tile(a, padded.iter().copied())
            };
            for (r, acc_row) in acc.iter().enumerate().take(m - i0) {
                out[(i0 + r) * n + j0..][..nr].copy_from_slice(&acc_row[..nr]);
            }
        }
    }
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
        let a = Offsets { src: self.src, long: |i| self.rows[i], inner: |p| self.cols[p] };
        Tensor::from_vec(vec![m, n], gemm(m, n, b.data(), |qs| self.rows_tile(qs), &a))
    }

    /// `Aᵀ x b -> [k, n]` for `A: [m, k]` and `b: [m, n]`.
    pub fn matmul_tn(&self, b: &Tensor) -> Tensor {
        let (m, k) = (self.rows.len(), self.cols.len());
        let (m2, n) = (b.rows(), b.cols());
        assert_eq!(m, m2, "gathered matmul_tn inner dimensions differ: {m} vs {m2}");
        let _k = matmul_scope(k, m, n);
        let a = Offsets { src: self.src, long: |t| self.cols[t], inner: |q| self.rows[q] };
        Tensor::from_vec(vec![k, n], gemm(k, n, b.data(), |ts| self.cols_tile(ts), &a))
    }

    /// A tile of `A` for [`gemm`]: rows `qs`, ascending columns.
    fn rows_tile(&self, qs: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
        let bases = qs.map(|q| self.rows[q]);
        self.cols.iter().map(move |&col| bases.map(|base| self.src[base + col]))
    }

    /// A tile of `Aᵀ` for [`gemm`]: columns `ts` of `A`, ascending rows.
    fn cols_tile(&self, ts: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
        let offsets = ts.map(|t| self.cols[t]);
        self.rows.iter().map(move |&base| offsets.map(|col| self.src[base + col]))
    }
}

/// A tile of a row-major `a: [_, k]` for [`gemm`]: rows `rows`, ascending
/// `k`.
fn row_major_tile(a: &[f32], k: usize, rows: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
    let rows = rows.map(|i| &a[i * k..][..k]);
    (0..k).map(move |p| rows.map(|row| row[p]))
}

/// A tile of `aᵀ` for a row-major `a: [_, m]` for [`gemm`]: columns `cols`
/// of `a`, ascending rows.
fn col_major_tile(a: &[f32], m: usize, cols: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
    a.chunks_exact(m).map(move |arow| cols.map(|i| arow[i]))
}

/// One accumulator tile: `acc[r][c] += a[r] * b[c]` over the zipped `k` walk.
#[inline(always)]
fn tile<const W: usize>(
    a: impl Iterator<Item = [f32; MR]>,
    b: impl Iterator<Item = [f32; W]>,
) -> [[f32; W]; MR] {
    let mut acc = [[0.0f32; W]; MR];
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
        let a = Offsets { src: self.data(), long: |i| i * k, inner: |p| p };
        Tensor::from_vec(
            vec![m, n],
            gemm(m, n, other.data(), |rows| row_major_tile(self.data(), k, rows), &a),
        )
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
        let a = Offsets { src: self.data(), long: |i| i, inner: |p| p * m };
        Tensor::from_vec(
            vec![m, n],
            gemm(m, n, other.data(), |rows| col_major_tile(self.data(), m, rows), &a),
        )
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

    /// Random values, a third of them `+0.0` or `-0.0`, and `nonfinite` of
    /// them (at random positions) NaN, `+∞` or `-∞` in turn.
    fn salted(shape: &[usize], nonfinite: usize, rng: &mut rand::rngs::StdRng) -> Tensor {
        use rand::Rng;
        let mut t = Tensor::randn(shape, 1.0, rng);
        for x in t.data_mut() {
            match rng.random_range(0..6u32) {
                0 => *x = 0.0,
                1 => *x = -0.0,
                _ => {}
            }
        }
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for i in 0..nonfinite {
            let at = rng.random_range(0..t.numel());
            t.data_mut()[at] = specials[i % 3];
        }
        t
    }

    /// `a · b`'s bits from each build of `gemm` this CPU can run, called
    /// directly, then from the dispatched `gemm`; the baseline build's come
    /// first. The AVX-512 build fills only whole 16-column panels and the
    /// narrow one only the last 8 columns, so the columns left over are the
    /// baseline's, and the rest start as a NaN no build makes.
    fn builds<I: Iterator<Item = [f32; MR]>, L: Fn(usize) -> usize, K: Fn(usize) -> usize>(
        m: usize,
        n: usize,
        b: &[f32],
        a_tile: impl Fn([usize; MR]) -> I,
        a: &Offsets<'_, L, K>,
    ) -> Vec<(&'static str, Vec<u32>)> {
        let fresh = || vec![f32::from_bits(0x7fa0_0001); m * n];
        let mut baseline = fresh();
        if n > 0 {
            gemm_body::<NR, _>(&mut baseline, n, 0..n, b, &a_tile);
        }
        let mut outs = vec![(BASELINE_BUILD, baseline.clone())];
        #[cfg(target_arch = "x86_64")]
        if n > 0 {
            // Columns `cols` of `out`, the rest from the baseline build.
            let rest_from_baseline = |mut out: Vec<f32>, cols: Range<usize>| {
                for (row, want) in out.chunks_exact_mut(n).zip(baseline.chunks_exact(n)) {
                    for j in (0..n).filter(|j| !cols.contains(j)) {
                        row[j] = want[j];
                    }
                }
                out
            };
            if is_x86_feature_detected!("avx2") {
                let mut out = fresh();
                // SAFETY: the running CPU reports AVX2.
                unsafe { gemm_avx2(&mut out, n, 0..n, b, &a_tile) };
                outs.push(("avx2", out));
            }
            if is_x86_feature_detected!("avx512f") {
                let wide = n - n % NR_WIDE;
                let mut out = fresh();
                // SAFETY: the running CPU reports AVX-512F.
                unsafe { gemm_avx512(&mut out, n, 0..wide, b, &a_tile) };
                outs.push(("avx512", rest_from_baseline(out, 0..wide)));
                if n >= NR {
                    outs.push((NARROW_BUILD, rest_from_baseline(narrow(m, n, b, a), n - NR..n)));
                }
            }
        }
        outs.push(("dispatched", gemm(m, n, b, &a_tile, a)));
        outs.into_iter()
            .map(|(build, out)| (build, out.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// The narrow build's last 8 columns of `A · b` (`n ≥ 8`); the others
    /// stay a NaN no build makes. Only on a CPU with AVX-512F.
    #[cfg(target_arch = "x86_64")]
    fn narrow<L: Fn(usize) -> usize, K: Fn(usize) -> usize>(
        m: usize,
        n: usize,
        b: &[f32],
        a: &Offsets<'_, L, K>,
    ) -> Vec<f32> {
        assert!(is_x86_feature_detected!("avx512f"));
        let mut out = vec![f32::from_bits(0x7fa0_0001); m * n];
        // SAFETY: the running CPU reports AVX-512F.
        unsafe { gemm_narrow(&mut out, n, n - NR, b, a) };
        out
    }

    /// Holds every build of one form of `gemm` to the baseline build: `a_tile`
    /// and `a` are two views of `a_mat`.
    fn assert_form_agrees<
        I: Iterator<Item = [f32; MR]>,
        L: Fn(usize) -> usize,
        K: Fn(usize) -> usize,
    >(
        form: &str,
        a_mat: &Tensor,
        b: &Tensor,
        a_tile: impl Fn([usize; MR]) -> I,
        a: &Offsets<'_, L, K>,
    ) {
        let (m, k, n) = (a_mat.rows(), a_mat.cols(), b.cols());
        let outs = builds(m, n, b.data(), a_tile, a);
        let (_, baseline) = &outs[0];
        for (build, out) in &outs[1..] {
            assert!(out == baseline, "{form} {m}x{k}x{n}: the {build} build differs");
        }
    }

    /// [`assert_form_agrees`] on every form that calls `gemm`: `a: [m, k]`
    /// times `b: [k, n]` read directly and through a transpose, and the
    /// gathered `g: [m, k]` times `b` and, transposed, times `bt: [m, n]`.
    fn assert_builds_agree(a: &Tensor, b: &Tensor, g: &Gather, bt: &Tensor) {
        let (m, k) = (a.rows(), a.cols());
        let at = a.transpose2();
        let ga = materialize(g);
        let row_major = &Offsets { src: a.data(), long: |i| i * k, inner: |p| p };
        assert_form_agrees("matmul", a, b, |rows| row_major_tile(a.data(), k, rows), row_major);
        let col_major = &Offsets { src: at.data(), long: |i| i, inner: |p| p * m };
        assert_form_agrees("matmul_tn", a, b, |rows| col_major_tile(at.data(), m, rows), col_major);
        let gathered = &Offsets { src: g.src, long: |i| g.rows[i], inner: |p| g.cols[p] };
        assert_form_agrees("Gather::matmul", &ga, b, |qs| g.rows_tile(qs), gathered);
        let gathered_t = &Offsets { src: g.src, long: |t| g.cols[t], inner: |q| g.rows[q] };
        assert_form_agrees(
            "Gather::matmul_tn",
            &ga.transpose2(),
            bt,
            |ts| g.cols_tile(ts),
            gathered_t,
        );
    }

    /// What the narrow AVX-512 build is called in the test log.
    const NARROW_BUILD: &str = "avx512-narrow";

    /// conv1's gathered operand at batch `batch` (3 channels, 8 x 8 images
    /// padded by 2, 5 x 5 taps, stride 1): the offsets `Conv2d` builds, over
    /// a salted NHWC source.
    fn conv1_gather(
        batch: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> (Tensor, Vec<usize>, Vec<usize>) {
        let (c, k, hw, wp) = (3, 5, 8, 12);
        let src = salted(&[batch * wp * wp * c], batch, rng);
        let rows = (0..batch * hw * hw)
            .map(|q| ((q / (hw * hw) * wp + q / hw % hw) * wp + q % hw) * c)
            .collect();
        let taps = (0..c * k * k).map(|t| (t / k % k * wp + t % k) * c + t / (k * k)).collect();
        (src, rows, taps)
    }

    /// Every shape the proptests above draw from (each tile remainder, every
    /// split of `n` into 16-column panels and what is left, `k` of 0 and 1),
    /// long sides on both sides of 16 for the narrow build, conv1's gathers
    /// at the batch sizes the dense and fleet runs train with, and the conv
    /// and dense GEMM shapes, with `±0.0`, two NaN payloads and `±∞` salted
    /// into both operands. Prints the builds it compared, so a CPU without
    /// AVX2 or AVX-512F says so instead of passing silently.
    #[test]
    fn gemm_builds_are_bit_identical() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let small = (0..14).flat_map(|m| (0..11).map(move |k| (m, k)));
        let long = [(16, 3), (17, 16), (3, 17), (31, 33), (33, 1), (1, 47), (48, 0), (0, 48)];
        for (m, k) in small.chain(long) {
            for n in (0..40).chain([200]) {
                let a = salted(&[m, k], m * k / 8, &mut rng);
                let b = salted(&[k, n], k * n / 8, &mut rng);
                let bt = salted(&[m, n], m * n / 8, &mut rng);
                let src = salted(&[80], 10, &mut rng);
                let rows: Vec<usize> = (0..m).map(|_| rng.random_range(0..40)).collect();
                let cols: Vec<usize> = (0..k).map(|_| rng.random_range(0..40)).collect();
                let g = Gather { src: src.data(), rows: &rows, cols: &cols };
                assert_builds_agree(&a, &b, &g, &bt);
            }
        }
        for batch in [1, 3, 8, 10, 32] {
            let (src, rows, taps) = conv1_gather(batch, &mut rng);
            let g = Gather { src: src.data(), rows: &rows, cols: &taps };
            let (m, k, n) = (rows.len(), taps.len(), 8);
            let a = salted(&[m, k], 6, &mut rng);
            let b = salted(&[k, n], 6, &mut rng);
            let bt = salted(&[m, n], 6, &mut rng);
            assert_builds_agree(&a, &b, &g, &bt);
        }
        let shapes = [
            (2048, 75, 8),
            (512, 200, 16),
            (75, 2048, 8),
            (200, 512, 16),
            (512, 16, 200),
            (32, 64, 64),
        ];
        for (m, k, n) in shapes {
            let a = salted(&[m, k], 6, &mut rng);
            let b = salted(&[k, n], 6, &mut rng);
            let bt = salted(&[m, n], 6, &mut rng);
            // The gathered form reads `a` itself, row by row.
            let rows: Vec<usize> = (0..m).map(|i| i * k).collect();
            let cols: Vec<usize> = (0..k).collect();
            let g = Gather { src: a.data(), rows: &rows, cols: &cols };
            assert_builds_agree(&a, &b, &g, &bt);
        }
        let mut compared = vec![BASELINE_BUILD];
        #[cfg(target_arch = "x86_64")]
        for (feature, build) in [
            (is_x86_feature_detected!("avx2"), "avx2"),
            (is_x86_feature_detected!("avx512f"), "avx512"),
            (is_x86_feature_detected!("avx512f"), NARROW_BUILD),
        ] {
            if feature {
                compared.push(build);
            } else {
                println!("this CPU has no {build}: its build was not run");
            }
        }
        println!("gemm builds compared: {}", compared.join(" vs "));
    }

    /// Where a NaN of `A` meets a NaN of `b` in a product, the narrow build
    /// keeps `A`'s payload: the operand `tile`'s `a * b` names first. With
    /// `k = 1` no sum meets two NaNs, so only the product's operand order
    /// shows. The panel builds are not held to this: in some tile rows their
    /// register allocation names `b` first.
    #[test]
    fn narrow_products_keep_the_gathered_nan_payload() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            let (from_a, from_b) = (0x7fc0_0a0a, 0x7fc0_0b0b);
            let src = vec![f32::from_bits(from_a); 40];
            for (m, n) in [(1, 8), (15, 8), (16, 24), (17, 8), (33, 200)] {
                let b = vec![f32::from_bits(from_b); n];
                let rows: Vec<usize> = (0..m).collect();
                let gathered = Offsets { src: &src, long: |i| rows[i], inner: |_| 3 };
                let row_major = Offsets { src: &src, long: |i| i, inner: |p| p };
                for out in [narrow(m, n, &b, &gathered), narrow(m, n, &b, &row_major)] {
                    for row in out.chunks_exact(n) {
                        assert!(row[n - NR..].iter().all(|x| x.to_bits() == from_a), "{m}x1x{n}");
                    }
                }
            }
            return;
        }
        println!("this CPU has no avx512f: the narrow build was not run");
    }

    /// A gathered operand whose offsets reach past its source panics on
    /// every build, the narrow one (which reads through `vgatherdps`)
    /// included, before it reads anything.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gathered_offsets_past_the_source_panic() {
        let src = [1.0f32; 20];
        let (rows, cols) = ([0, 4, 8, 12, 16], [0, 1, 2, 3, 4]);
        let g = Gather { src: &src, rows: &rows, cols: &cols };
        let _ = g.matmul(&Tensor::zeros(&[5, 8]));
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
