use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::{he_std, Gather, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dense::{accumulate_bias_grad, add_bias};
use crate::layer::{four, Cache};
use crate::Layer;

/// A 2-D convolution over NHWC `[B, H, W, C]` activations, as an implicit
/// GEMM.
///
/// Weights are stored as a `[C*KH*KW, OC]` matrix, rows in `(c, ky, kx)`
/// order, so both the forward pass and the weight gradient reduce to a
/// single matrix multiply whose left operand, the im2col patch matrix, is
/// read in place from the zero-padded input ([`Gather`]) and never built.
/// The forward product `[B*OH*OW, OC]` is the NHWC output itself, and the
/// output gradient is that product's gradient, so nothing is rearranged.
#[derive(Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// The patches of a training-mode forward, for the weight gradient.
    cached_patches: Cache<Option<Patches>>,
    cached_input_shape: [usize; 4],
}

/// The im2col patch matrix `[B*OH*OW, C*K*K]` of an input, held as the input
/// zero-padded and the offsets a [`Gather`] reads the matrix through: where
/// each row (output position `(bi, oy, ox)`) starts in the padded input and
/// where each column (tap `(ci, ky, kx)`) sits from there.
struct Patches {
    padded: Vec<f32>,
    rows: Vec<usize>,
    taps: Vec<usize>,
}

impl Patches {
    fn gather(&self) -> Gather<'_> {
        Gather { src: &self.padded, rows: &self.rows, cols: &self.taps }
    }
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let patch = in_channels * kernel * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Tensor::randn(&[patch, out_channels], he_std(patch), &mut rng),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[patch, out_channels]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_patches: Cache(None),
            cached_input_shape: [0; 4],
        }
    }

    /// Output spatial size for an input spatial size.
    ///
    /// # Panics
    /// Panics if the kernel is larger than the padded input.
    pub fn out_size(&self, in_size: usize) -> usize {
        let (k, p) = (self.kernel, self.padding);
        let padded = in_size + 2 * p;
        assert!(
            k <= padded,
            "Conv2d: a {k}x{k} kernel does not fit an input of size {in_size} padded to {padded}"
        );
        (padded - k) / self.stride + 1
    }

    /// The patches of an NHWC `input`, zero-padded by `padding` on every
    /// border to `[B, H+2p, W+2p, C]`.
    fn patches(&self, input: &Tensor) -> Patches {
        let [b, h, w, c] = four(input.shape());
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let _k = kcount::scope(Kernel::Im2col, 0, 4 * (input.numel() + b * hp * wp * c) as u64);
        let mut padded = vec![0.0f32; b * hp * wp * c];
        // Each image row is one `W·C` run, copied to its padded row.
        let line = w * c;
        if line > 0 {
            let images =
                padded.chunks_exact_mut(hp * wp * c).zip(input.data().chunks_exact(h * line));
            for (image, rows) in images {
                for (dst, src) in
                    image[p * wp * c..].chunks_exact_mut(wp * c).zip(rows.chunks_exact(line))
                {
                    dst[p * c..][..line].copy_from_slice(src);
                }
            }
        }
        let mut rows = Vec::with_capacity(b * oh * ow);
        for bi in 0..b {
            for oy in 0..oh {
                rows.extend((0..ow).map(|ox| ((bi * hp + oy * s) * wp + ox * s) * c));
            }
        }
        let taps = (0..c * k * k).map(|t| (t / k % k * wp + t % k) * c + t / (k * k));
        Patches { padded, rows, taps: taps.collect() }
    }

    /// `Wᵀ` with its columns in `(ky, kx, c)` order, `[OC, K*K*C]`: the
    /// right operand of the input-gradient GEMM `g · Wᵀ`, whose rows then
    /// hold each kernel row of a window channel-contiguous, as the NHWC
    /// input does. Every element is a weight, so the product's elements are
    /// the ones `g · W.transpose2()` gives, stored in another column.
    fn weight_t_channels_last(&self) -> Tensor {
        let (kk, c, oc) = (self.kernel * self.kernel, self.in_channels, self.out_channels);
        let _k = kcount::scope(Kernel::Col2im, 0, 8 * self.weight.numel() as u64);
        let mut out = vec![0.0f32; oc * kk * c];
        for (t, row) in self.weight.data().chunks_exact(oc).enumerate() {
            let j = t % kk * c + t / kk;
            for (co, &v) in row.iter().enumerate() {
                out[co * kk * c + j] = v;
            }
        }
        Tensor::from_vec(vec![oc, kk * c], out)
    }

    /// Adds the patch gradient `grad_cols` (`[B*OH*OW, K*K*C]`, columns in
    /// `(ky, kx, c)` order) back into an NHWC input gradient. Output
    /// positions are the outermost loop, in ascending order, so every input
    /// pixel receives its terms in the order the NCHW walk added them; the
    /// taps of one kernel row that land inside the image are one contiguous
    /// `kx_n·C` run on both sides (the rest is padding and is dropped).
    fn col2im(&self, grad_cols: &Tensor) -> Tensor {
        let shape = self.cached_input_shape;
        let [b, h, w, c] = shape;
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let _k = kcount::scope(
            Kernel::Col2im,
            grad_cols.numel() as u64,
            4 * (grad_cols.numel() + shape.iter().product::<usize>()) as u64,
        );
        // Taps `lo..hi` of the window starting at `start - p` inside `0..len`.
        let clip = |start: usize, len: usize| {
            let lo = p.saturating_sub(start);
            (lo, k.min((len + p).saturating_sub(start)).max(lo))
        };
        let mut out = Tensor::zeros(&shape);
        let image = out.data_mut();
        let mut windows = grad_cols.data().chunks_exact(k * k * c);
        for bi in 0..b {
            for oy in 0..oh {
                let (ky_lo, ky_hi) = clip(oy * s, h);
                for (ox, taps) in (0..ow).zip(&mut windows) {
                    let (kx_lo, kx_hi) = clip(ox * s, w);
                    let run = (kx_hi - kx_lo) * c;
                    if run == 0 {
                        continue;
                    }
                    for ky in ky_lo..ky_hi {
                        let pixel = (bi * h + oy * s + ky - p) * w + ox * s + kx_lo - p;
                        let src = &taps[(ky * k + kx_lo) * c..][..run];
                        for (d, &g) in image[pixel * c..][..run].iter_mut().zip(src) {
                            *d = add_keeping_new_nan(*d, g);
                        }
                    }
                }
            }
        }
        out
    }

    /// Accumulates `dW = patchesᵀ g` and `db = Σ_rows g` and returns `g`: the
    /// NHWC output gradient relabelled, in its own buffer, as the
    /// `[B*OH*OW, OC]` matrix it already is in memory.
    fn accumulate_param_grads(&mut self, grad_out: Tensor) -> Tensor {
        let patches = self
            .cached_patches
            .0
            .take()
            .expect("Conv2d::backward called before a training-mode forward");
        let [b, oh, ow, oc] = four(grad_out.shape());
        assert_eq!(oc, self.out_channels);
        let g2 = grad_out.into_shape(&[b * oh * ow, oc]);
        self.grad_weight.add_assign(&patches.gather().matmul_tn(&g2));
        accumulate_bias_grad(&mut self.grad_bias, &g2);
        g2
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let [b, h, w, c] = four(input.shape());
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let patches = self.patches(input);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let mut out = patches.gather().matmul(&self.weight); // [B*OH*OW, OC]
        add_bias(&mut out, &self.bias);
        // Only a training step reads the patches again; an evaluation must
        // not leave a batch of them resident in the model.
        self.cached_patches = Cache(train.then_some(patches));
        self.cached_input_shape = [b, h, w, c];
        Tensor::from_vec(vec![b, oh, ow, self.out_channels], out.into_data())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_owned(grad_out.clone())
    }

    fn backward_owned(&mut self, grad_out: Tensor) -> Tensor {
        let g2 = self.accumulate_param_grads(grad_out);
        let grad_cols = g2.matmul(&self.weight_t_channels_last());
        self.col2im(&grad_cols)
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.accumulate_param_grads(grad_out);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        self.cached_patches.0.is_some()
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// `acc + v`, with a NaN `v` returned as it is. When both are NaN, SSE
/// returns one operand's NaN and the compiler picks which: a vectorized
/// loop body and its scalar tail pick opposite ones. A scalar `+=` returns
/// the added term's NaN, as the NCHW walk's short runs did, and this keeps
/// that at every run length.
#[inline(always)]
fn add_keeping_new_nan(acc: f32, v: f32) -> f32 {
    if v.is_nan() {
        v
    } else {
        acc + v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{generated_nan, nchw_to_nhwc, nhwc_to_nchw, ConvGeom};

    #[test]
    fn output_shape_follows_conv_arithmetic() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        let x = Tensor::zeros(&[2, 8, 8, 3]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);

        let mut conv = Conv2d::new(1, 4, 5, 1, 0, 0);
        let x = Tensor::zeros(&[1, 8, 8, 1]);
        assert_eq!(conv.forward(&x, true).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "Conv2d: a 5x5 kernel does not fit an input of size 2 padded to 4")]
    fn a_kernel_larger_than_the_padded_input_is_rejected() {
        let mut conv = Conv2d::new(1, 1, 5, 1, 1, 0);
        conv.forward(&Tensor::zeros(&[1, 2, 2, 1]), false);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity on one channel.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        let mut first = true;
        conv.visit_params(&mut |p, _| {
            // Weight <- 1 (first visited), bias <- 0.
            let v = if first { 1.0 } else { 0.0 };
            first = false;
            p.data_mut().fill(v);
        });
        let x = Tensor::from_vec(vec![1, 2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn numerical_gradient_check_small_conv() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, 4, 4, 2], 1.0, &mut rng);
        let eps = 1e-2f32;

        let y = conv.forward(&x, true);
        conv.zero_grad();
        let gx = conv.backward(&Tensor::ones(y.shape()));

        // Input gradient spot-check on a handful of positions.
        for &i in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (conv.forward(&xp, true).sum() - conv.forward(&xm, true).sum()) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 5e-2,
                "input grad mismatch at {i}: {num} vs {}",
                gx.data()[i]
            );
        }

        // Weight gradient spot-check.
        let mut analytic = Vec::new();
        conv.visit_params(&mut |_, g| analytic.extend_from_slice(g.data()));
        fn bump(conv: &mut Conv2d, i: usize, delta: f32) {
            let mut first = true;
            conv.visit_params(&mut |p, _| {
                if first {
                    p.data_mut()[i] += delta;
                    first = false;
                }
            });
        }
        for &i in &[0usize, 7, 20] {
            bump(&mut conv, i, eps);
            let fp = conv.forward(&x, true).sum();
            bump(&mut conv, i, -2.0 * eps);
            let fm = conv.forward(&x, true).sum();
            bump(&mut conv, i, eps);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic[i]).abs() < 5e-2,
                "weight grad mismatch at {i}: {num} vs {}",
                analytic[i]
            );
        }
    }

    /// `y`, `dx`, `dW` and `db` of `conv` on the NCHW input `x` for the NCHW
    /// output gradient `g`, from the layer: inputs permuted to NHWC, outputs
    /// permuted back.
    fn layer_conv(conv: &mut Conv2d, x: &Tensor, g: &Tensor) -> [Tensor; 4] {
        let y = nhwc_to_nchw(&conv.forward(&nchw_to_nhwc(x), true));
        conv.zero_grad();
        let dx = nhwc_to_nchw(&conv.backward(&nchw_to_nhwc(g)));
        [y, dx, conv.grad_weight.clone(), conv.grad_bias.clone()]
    }

    /// Forward output, input gradient, weight gradient and bias gradient of
    /// `conv` by the definition of a convolution: seven nested loops over
    /// NCHW tensors, no im2col, no GEMM.
    fn direct_conv(conv: &Conv2d, x: &Tensor, g: &Tensor) -> [Vec<f32>; 4] {
        let [b, c, h, w] = four(x.shape());
        let [_, oc, oh, ow] = four(g.shape());
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding);
        let (wt, bias) = (conv.weight.data(), conv.bias.data());
        let mut y = vec![0.0f32; g.numel()];
        let mut dx = vec![0.0f32; x.numel()];
        let mut dw = vec![0.0f32; wt.len()];
        let mut db = vec![0.0f32; oc];
        for bi in 0..b {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let o = ((bi * oc + co) * oh + oy) * ow + ox;
                        y[o] = bias[co];
                        db[co] += g.data()[o];
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let (iy, ix) = (oy * s + ky, ox * s + kx);
                                    if iy < p || iy - p >= h || ix < p || ix - p >= w {
                                        continue;
                                    }
                                    let i = ((bi * c + ci) * h + iy - p) * w + ix - p;
                                    let wi = ((ci * k + ky) * k + kx) * oc + co;
                                    y[o] += x.data()[i] * wt[wi];
                                    dx[i] += g.data()[o] * wt[wi];
                                    dw[wi] += x.data()[i] * g.data()[o];
                                }
                            }
                        }
                    }
                }
            }
        }
        [y, dx, dw, db]
    }

    #[test]
    fn im2col_gemm_matches_the_direct_convolution() {
        // (kernel, stride, padding): the zoo's 5x5/pad 2 and 3x3/pad 1, plus
        // a strided, an unpadded and an over-padded (windows wholly in the
        // padding) one for the clipping.
        for (k, s, p) in [(5, 1, 2), (3, 1, 1), (3, 2, 1), (2, 2, 0), (2, 1, 3)] {
            let mut conv = Conv2d::new(3, 5, k, s, p, 17);
            let mut rng = StdRng::seed_from_u64(k as u64);
            conv.bias = Tensor::randn(&[5], 0.5, &mut rng);
            let x = Tensor::randn(&[2, 3, 6, 7], 0.5, &mut rng);
            let (oh, ow) = (conv.out_size(6), conv.out_size(7));
            let g = Tensor::randn(&[2, 5, oh, ow], 0.5, &mut rng);
            let got = layer_conv(&mut conv, &x, &g);
            let want = direct_conv(&conv, &x, &g);
            for (what, (got, want)) in ["y", "dx", "dw", "db"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(got.numel(), want.len());
                for (i, (a, b)) in got.data().iter().zip(want).enumerate() {
                    assert!((a - b).abs() < 1e-5, "{what}[{i}] k{k} s{s} p{p}: {a} vs {b}");
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn implicit_gemm_is_bit_identical_to_the_im2col_path() {
        // (channels, out channels, kernel, stride, padding, [b, h, w]): the
        // zoo's 5x5/pad 2 and 3x3/pad 1, stride 2, no padding, a 1x1 kernel
        // and padding wider than the kernel; every case has a row count
        // `b*oh*ow` that is not a multiple of 4, and between them more than 8
        // output channels and patches wider than 8.
        let cases = [
            (3, 11, 5, 1, 2, [3, 7, 6]),
            (4, 9, 3, 1, 1, [1, 5, 5]),
            (3, 5, 3, 2, 1, [1, 5, 5]),
            (2, 17, 2, 2, 0, [3, 5, 5]),
            (5, 3, 1, 1, 0, [1, 3, 3]),
            (2, 3, 2, 1, 3, [1, 4, 4]),
        ];
        for (c, oc, k, s, p, [b, h, w]) in cases {
            for salted in [false, true] {
                let mut conv = Conv2d::new(c, oc, k, s, p, 23);
                let mut rng = StdRng::seed_from_u64(k as u64);
                conv.bias = Tensor::randn(&[oc], 0.5, &mut rng);
                let mut x = Tensor::randn(&[b, c, h, w], 0.5, &mut rng);
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, generated_nan()];
                if salted {
                    // Non-finite values in the input and the weights must
                    // propagate the same way, `0 · NaN = NaN` included.
                    for (i, v) in specials.into_iter().enumerate() {
                        x.data_mut()[(7 * i + 3) % (b * c * h * w)] = v;
                        let n = conv.weight.numel();
                        conv.weight.data_mut()[(5 * i + 1) % n] = v;
                    }
                }
                let (oh, ow) = (conv.out_size(h), conv.out_size(w));
                let mut g = Tensor::randn(&[b, oc, oh, ow], 0.5, &mut rng);
                if salted {
                    // ... and so must those in the output gradient, through
                    // `dW`, `db` and `dx`.
                    for (i, v) in specials.into_iter().enumerate() {
                        let n = g.numel();
                        g.data_mut()[(11 * i + 2) % n] = v;
                    }
                }
                let [y, dx, dw, db] = layer_conv(&mut conv, &x, &g);
                let geom = ConvGeom { k, s, p };
                let (want_y, cols) = geom.forward(&x, &conv.weight, &conv.bias);
                let [want_dx, want_dw, want_db] =
                    geom.backward([b, c, h, w], &cols, &conv.weight, &g);
                let case = format!("c{c} oc{oc} k{k} s{s} p{p} {b}x{h}x{w} salted {salted}");
                assert_eq!(bits(y.data()), bits(want_y.data()), "y, {case}");
                assert_eq!(bits(dx.data()), bits(want_dx.data()), "dx, {case}");
                assert_eq!(bits(dw.data()), bits(want_dw.data()), "dW, {case}");
                assert_eq!(bits(db.data()), bits(want_db.data()), "db, {case}");
            }
        }
    }

    #[test]
    fn padding_zero_extends_borders() {
        // A 3x3 all-ones kernel on a 1x1 input with padding 1 just copies the
        // single input value to the single output location.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        conv.visit_params(&mut |p, _| {
            if p.numel() == 9 {
                p.data_mut().fill(1.0);
            }
        });
        let x = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.5]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 2.5);
    }
}
