use std::cell::RefCell;

use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::{he_std, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dense::{accumulate_bias_grad, add_bias};
use crate::layer::Cache;
use crate::Layer;

thread_local! {
    /// Patch buffers `backward` is done with, kept for this thread's next
    /// `im2col`. The patch matrix is the one per-step allocation large enough
    /// for malloc to map and trim: allocated and freed every step, it makes
    /// the heap grow and shrink at a rate that depends on thread timing, and
    /// the same run takes 16k or 67k page faults. Reused, a worker maps one
    /// buffer per conv layer and the count is steady.
    static SPARE_PATCHES: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A step reuses one buffer per conv layer; the cap bounds what a thread
/// retains whatever order its callers run forwards and backwards in.
const MAX_SPARE_PATCHES: usize = 8;

/// A zeroed buffer of `len` floats, from this thread's spares if it has one.
fn zeroed_patches(len: usize) -> Vec<f32> {
    let mut buf = SPARE_PATCHES.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

fn recycle_patches(cols: Tensor) {
    SPARE_PATCHES.with(|s| {
        let mut spares = s.borrow_mut();
        if spares.len() < MAX_SPARE_PATCHES {
            spares.push(cols.into_data());
        }
    });
}

/// A 2-D convolution over `[B, C, H, W]` inputs, implemented with im2col.
///
/// Weights are stored as a `[C*KH*KW, OC]` matrix so both the forward pass
/// and the weight gradient reduce to a single matrix multiply.
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
    cached_cols: Cache<Option<Tensor>>,
    cached_input_shape: [usize; 4],
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
            cached_cols: Cache(None),
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

    fn im2col(&self, input: &Tensor) -> Tensor {
        let shape = four(input.shape());
        let [b, c, h, w] = shape;
        let rows = b * self.out_size(h) * self.out_size(w);
        let patch = c * self.kernel * self.kernel;
        let _k = kcount::scope(Kernel::Im2col, 0, 4 * (input.numel() + rows * patch) as u64);
        let mut cols = zeroed_patches(rows * patch);
        let data = input.data();
        self.for_each_run(shape, |src, dst, n| {
            cols[dst..dst + n].copy_from_slice(&data[src..src + n]);
        });
        Tensor::from_vec(vec![rows, patch], cols)
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

    /// Accumulates `dW = colsᵀ g` and `db = Σ_rows g` and returns `g`, the
    /// output gradient rearranged `[B, OC, OH, OW] -> [B*OH*OW, OC]`.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let cols = self
            .cached_cols
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
        self.grad_weight.add_assign(&cols.matmul_tn(&g2));
        accumulate_bias_grad(&mut self.grad_bias, &g2);
        recycle_patches(cols);
        g2
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let [b, c, h, w] = four(input.shape());
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let cols = self.im2col(input);
        let mut out2 = cols.matmul(&self.weight); // [B*OH*OW, OC]
        add_bias(&mut out2, &self.bias);
        // Only a training step reads the patches again; an evaluation must
        // not leave a batch of them resident in the model.
        self.cached_cols = Cache(train.then_some(cols));
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
    fn patches_are_cached_for_one_training_step_only() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 0);
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let y = conv.forward(&x, true);
        assert!(conv.cached_cols.0.is_some());
        // A clone is a layer value, not a step in flight.
        assert!(conv.clone().cached_cols.0.is_none());
        conv.backward(&y);
        assert!(conv.cached_cols.0.is_none(), "backward releases the patches");
        conv.forward(&x, true);
        conv.forward(&x, false);
        assert!(conv.cached_cols.0.is_none(), "an evaluation leaves nothing resident");
    }

    #[test]
    fn a_training_step_reuses_the_patch_buffer_of_the_one_before() {
        let spares = || SPARE_PATCHES.with(|s| s.borrow().len());
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 0);
        let x = Tensor::ones(&[2, 2, 4, 4]);
        assert_eq!(spares(), 0);
        let y = conv.forward(&x, true);
        let first = conv.cached_cols.0.as_ref().unwrap().data().as_ptr();
        conv.backward(&y);
        assert_eq!(spares(), 1, "backward hands the buffer back");
        // A smaller batch fits the same buffer; what it held is zeroed.
        let half = Tensor::ones(&[1, 2, 4, 4]);
        let mut fresh = conv.clone();
        let y_half = conv.forward(&half, true);
        assert_eq!(spares(), 0);
        assert_eq!(conv.cached_cols.0.as_ref().unwrap().data().as_ptr(), first);
        assert_eq!(y_half, fresh.forward(&half, true));
        // An evaluation frees its patches: nothing outlives it on the thread.
        conv.forward(&x, false);
        assert_eq!(spares(), 0);
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
