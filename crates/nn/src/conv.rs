use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::{he_std, Gather, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dense::{accumulate_bias_grad, add_bias};
use crate::layer::Cache;
use crate::Layer;

/// A 2-D convolution over `[B, C, H, W]` inputs, as an implicit GEMM.
///
/// Weights are stored as a `[C*KH*KW, OC]` matrix so both the forward pass
/// and the weight gradient reduce to a single matrix multiply whose left
/// operand, the im2col patch matrix, is read in place from the zero-padded
/// input ([`Gather`]) and never built.
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
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Walks the im2col correspondence for a `[b, c, h, w]` image: calls
    /// `f(image_offset, cols_offset, len)` once per kernel row of every
    /// output position, with the row clipped to the taps that land inside
    /// the image (the rest is padding and stays zero).
    fn for_each_run(&self, [b, c, h, w]: [usize; 4], mut f: impl FnMut(usize, usize, usize)) {
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let patch = c * k * k;
        // Taps `lo..hi` of the window starting at `start - p` inside `0..len`.
        let clip = |start: usize, len: usize| {
            let lo = p.saturating_sub(start);
            (lo, k.min((len + p).saturating_sub(start)).max(lo))
        };
        for bi in 0..b {
            for oy in 0..oh {
                let (ky_lo, ky_hi) = clip(oy * s, h);
                for ox in 0..ow {
                    let (kx_lo, kx_hi) = clip(ox * s, w);
                    if kx_lo == kx_hi {
                        continue;
                    }
                    let row = ((bi * oh + oy) * ow + ox) * patch;
                    for ci in 0..c {
                        for ky in ky_lo..ky_hi {
                            let iy = oy * s + ky - p;
                            let image = ((bi * c + ci) * h + iy) * w + ox * s + kx_lo - p;
                            f(image, row + (ci * k + ky) * k + kx_lo, kx_hi - kx_lo);
                        }
                    }
                }
            }
        }
    }

    /// The patches of `input`, zero-padded by `padding` on every border to
    /// `[B, C, H+2p, W+2p]`.
    fn patches(&self, input: &Tensor) -> Patches {
        let [b, c, h, w] = four(input.shape());
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let _k = kcount::scope(Kernel::Im2col, 0, 4 * (input.numel() + b * c * hp * wp) as u64);
        let mut padded = vec![0.0f32; b * c * hp * wp];
        for (plane, image) in padded.chunks_exact_mut(hp * wp).zip(input.data().chunks_exact(h * w))
        {
            for (line, row) in plane[p * wp..].chunks_exact_mut(wp).zip(image.chunks_exact(w)) {
                line[p..p + w].copy_from_slice(row);
            }
        }
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let image = c * hp * wp;
        let rows =
            (0..b * oh * ow).map(|q| q / (oh * ow) * image + (q / ow % oh * wp + q % ow) * s);
        let taps = (0..c * k * k).map(|t| t / (k * k) * hp * wp + t / k % k * wp + t % k);
        Patches { padded, rows: rows.collect(), taps: taps.collect() }
    }

    fn col2im(&self, grad_cols: &Tensor) -> Tensor {
        let shape = self.cached_input_shape;
        let _k = kcount::scope(
            Kernel::Col2im,
            grad_cols.numel() as u64,
            4 * (grad_cols.numel() + shape.iter().product::<usize>()) as u64,
        );
        let mut out = Tensor::zeros(&shape);
        let image = out.data_mut();
        let g = grad_cols.data();
        self.for_each_run(shape, |dst, src, n| {
            for (d, &gv) in image[dst..dst + n].iter_mut().zip(&g[src..src + n]) {
                *d += gv;
            }
        });
        out
    }

    /// Accumulates `dW = patchesᵀ g` and `db = Σ_rows g` and returns `g`, the
    /// output gradient rearranged `[B, OC, OH, OW] -> [B*OH*OW, OC]`.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let patches = self
            .cached_patches
            .0
            .take()
            .expect("Conv2d::backward called before a training-mode forward");
        let [b, oc, oh, ow] = four(grad_out.shape());
        assert_eq!(oc, self.out_channels);
        let rearrange = kcount::scope(Kernel::Transpose, 0, 8 * (b * oh * ow * oc) as u64);
        let mut g2 = vec![0.0f32; b * oh * ow * oc];
        let src = grad_out.data();
        for bi in 0..b {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        g2[((bi * oh + oy) * ow + ox) * oc + co] =
                            src[((bi * oc + co) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        let g2 = Tensor::from_vec(vec![b * oh * ow, oc], g2);
        drop(rearrange);
        self.grad_weight.add_assign(&patches.gather().matmul_tn(&g2));
        accumulate_bias_grad(&mut self.grad_bias, &g2);
        g2
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let [b, c, h, w] = four(input.shape());
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let patches = self.patches(input);
        let mut out2 = patches.gather().matmul(&self.weight); // [B*OH*OW, OC]
        add_bias(&mut out2, &self.bias);
        // Only a training step reads the patches again; an evaluation must
        // not leave a batch of them resident in the model.
        self.cached_patches = Cache(train.then_some(patches));
        self.cached_input_shape = [b, c, h, w];
        // Rearrange [B*OH*OW, OC] -> [B, OC, OH, OW].
        let oc = self.out_channels;
        let _k = kcount::scope(Kernel::Transpose, 0, 8 * (b * oc * oh * ow) as u64);
        let mut out = vec![0.0f32; b * oc * oh * ow];
        let src = out2.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let r = ((bi * oh + oy) * ow + ox) * oc;
                    for co in 0..oc {
                        out[((bi * oc + co) * oh + oy) * ow + ox] = src[r + co];
                    }
                }
            }
        }
        Tensor::from_vec(vec![b, oc, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g2 = self.accumulate_param_grads(grad_out);
        let grad_cols = g2.matmul(&self.weight.transpose2());
        self.col2im(&grad_cols)
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        self.accumulate_param_grads(grad_out);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

fn four(shape: &[usize]) -> [usize; 4] {
    assert_eq!(shape.len(), 4, "expected a 4-D tensor, got shape {shape:?}");
    [shape[0], shape[1], shape[2], shape[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_follows_conv_arithmetic() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);

        let mut conv = Conv2d::new(1, 4, 5, 1, 0, 0);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x, true).shape(), &[1, 4, 4, 4]);
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
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn numerical_gradient_check_small_conv() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
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

    /// Forward output, input gradient, weight gradient and bias gradient of
    /// `conv` by the definition of a convolution: seven nested loops, no
    /// im2col, no GEMM.
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
            let y = conv.forward(&x, true);
            let g = Tensor::randn(y.shape(), 0.5, &mut rng);
            conv.zero_grad();
            let dx = conv.backward(&g);
            let [want_y, want_dx, want_dw, want_db] = direct_conv(&conv, &x, &g);
            let close = |got: &[f32], want: &[f32], what: &str| {
                assert_eq!(got.len(), want.len());
                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                    assert!((a - b).abs() < 1e-5, "{what}[{i}] k{k} s{s} p{p}: {a} vs {b}");
                }
            };
            close(y.data(), &want_y, "y");
            close(dx.data(), &want_dx, "dx");
            close(conv.grad_weight.data(), &want_dw, "dw");
            close(conv.grad_bias.data(), &want_db, "db");
        }
    }

    #[test]
    fn a_clone_and_an_evaluation_leave_no_cached_input() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 0);
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let y = conv.forward(&x, true);
        assert!(conv.cached_patches.0.is_some());
        // A clone is a layer value, not a step in flight.
        assert!(conv.clone().cached_patches.0.is_none());
        conv.backward(&y);
        assert!(conv.cached_patches.0.is_none(), "backward releases the patches");
        conv.forward(&x, true);
        conv.forward(&x, false);
        assert!(conv.cached_patches.0.is_none(), "an evaluation leaves nothing resident");
    }

    /// Calls `f(q, t, i)` for every entry `(q, t)` of the im2col patch
    /// matrix of a `[b, c, h, w]` input, in row-major order, with `i` the input
    /// element the entry copies (`None` in the padding): the order the old
    /// im2col wrote the matrix in and col2im added it back in.
    fn for_each_entry(
        conv: &Conv2d,
        [b, c, h, w]: [usize; 4],
        mut f: impl FnMut(usize, usize, Option<usize>),
    ) {
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding);
        let (oh, ow) = (conv.out_size(h), conv.out_size(w));
        for q in 0..b * oh * ow {
            let (bi, oy, ox) = (q / (oh * ow), q / ow % oh, q % ow);
            for t in 0..c * k * k {
                let (ci, ky, kx) = (t / (k * k), t / k % k, t % k);
                let at = |o: usize, kk: usize, len: usize| {
                    (o * s + kk).checked_sub(p).filter(|&i| i < len)
                };
                let i = at(oy, ky, h)
                    .zip(at(ox, kx, w))
                    .map(|(iy, ix)| ((bi * c + ci) * h + iy) * w + ix);
                f(q, t, i);
            }
        }
    }

    /// `y`, `dx`, `dW` and `db` of `conv` the way the layer computed them
    /// through a materialized patch matrix: im2col, `matmul`, `matmul_tn`,
    /// `g Wᵀ` and col2im.
    fn im2col_conv(conv: &Conv2d, x: &Tensor, g: &Tensor) -> [Vec<f32>; 4] {
        let [b, oc, oh, ow] = four(g.shape());
        let patch = conv.weight.rows();
        let mut cols = vec![0.0f32; b * oh * ow * patch];
        for_each_entry(conv, four(x.shape()), |q, t, i| {
            if let Some(i) = i {
                cols[q * patch + t] = x.data()[i];
            }
        });
        let cols = Tensor::from_vec(vec![b * oh * ow, patch], cols);
        let mut y2 = cols.matmul(&conv.weight);
        add_bias(&mut y2, &conv.bias);
        let plane = oh * ow;
        let nchw = |q: usize, co: usize| (q / plane * oc + co) * plane + q % plane;
        let (mut y, mut g2) = (vec![0.0f32; g.numel()], vec![0.0f32; g.numel()]);
        for q in 0..b * plane {
            for co in 0..oc {
                y[nchw(q, co)] = y2.data()[q * oc + co];
                g2[q * oc + co] = g.data()[nchw(q, co)];
            }
        }
        let g2 = Tensor::from_vec(vec![b * plane, oc], g2);
        let mut dw = Tensor::zeros(conv.weight.shape());
        dw.add_assign(&cols.matmul_tn(&g2));
        let mut db = Tensor::zeros(&[oc]);
        accumulate_bias_grad(&mut db, &g2);
        let grad_cols = g2.matmul(&conv.weight.transpose2());
        let mut dx = vec![0.0f32; x.numel()];
        for_each_entry(conv, four(x.shape()), |q, t, i| {
            if let Some(i) = i {
                dx[i] += grad_cols.data()[q * patch + t];
            }
        });
        [y, dx, dw.into_data(), db.into_data()]
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
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
                if salted {
                    // Non-finite values in the input and the weights must
                    // propagate the same way, `0 · NaN = NaN` included.
                    for (i, v) in specials.into_iter().enumerate() {
                        x.data_mut()[(7 * i + 3) % (b * c * h * w)] = v;
                        let n = conv.weight.numel();
                        conv.weight.data_mut()[(5 * i + 1) % n] = v;
                    }
                }
                let y = conv.forward(&x, true);
                let mut g = Tensor::randn(y.shape(), 0.5, &mut rng);
                if salted {
                    // ... and so must those in the output gradient, through
                    // `dW`, `db` and `dx`.
                    for (i, v) in specials.into_iter().enumerate() {
                        let n = g.numel();
                        g.data_mut()[(11 * i + 2) % n] = v;
                    }
                }
                conv.zero_grad();
                let dx = conv.backward(&g);
                let [want_y, want_dx, want_dw, want_db] = im2col_conv(&conv, &x, &g);
                let case = format!("c{c} oc{oc} k{k} s{s} p{p} {b}x{h}x{w} salted {salted}");
                assert_eq!(bits(y.data()), bits(&want_y), "y, {case}");
                assert_eq!(bits(dx.data()), bits(&want_dx), "dx, {case}");
                assert_eq!(bits(conv.grad_weight.data()), bits(&want_dw), "dW, {case}");
                assert_eq!(bits(conv.grad_bias.data()), bits(&want_db), "db, {case}");
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
