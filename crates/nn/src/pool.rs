use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::layer::{four, Cache};
use crate::Layer;

/// Max pooling over NHWC `[B, H, W, C]` inputs with a square window.
///
/// Each window is scanned in `(ky, kx)` order across all channels at once:
/// a channel's maximum starts at the window's first pixel and moves only to
/// a strictly greater value, so the first maximum wins and a NaN never
/// displaces one. A training-mode forward caches the flat index of each
/// maximum, so the backward pass routes gradients with no recomputation.
#[derive(Clone)]
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    argmax: Cache<Option<Vec<u32>>>,
    input_shape: [usize; 4],
}

impl MaxPool2d {
    /// Creates a pooling layer with `size`x`size` windows and the given stride.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(size > 0 && stride > 0, "pool size and stride must be positive");
        Self { size, stride, argmax: Cache(None), input_shape: [0; 4] }
    }

    fn out_size(&self, in_size: usize) -> usize {
        let k = self.size;
        assert!(
            k <= in_size,
            "MaxPool2d: a {k}x{k} window does not fit an input of size {in_size}"
        );
        (in_size - k) / self.stride + 1
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let [b, h, w, c] = four(input.shape());
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (k, s) = (self.size, self.stride);
        assert!(u32::try_from(input.numel()).is_ok(), "MaxPool2d input too large to index");
        let windows = (b * c * oh * ow) as u64;
        let _k =
            kcount::scope(Kernel::Pool, windows * (k * k) as u64, 4 * windows * (k * k + 1) as u64);
        let data = input.data();
        let mut out = vec![0.0f32; b * oh * ow * c];
        // An evaluation scans the same way and drops the argmax at the end.
        let mut argmax = vec![0u32; out.len()];
        let mut o = 0;
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    // The window's pixels, in `(ky, kx)` order; each is the
                    // `c` channel lanes starting at its offset.
                    let corner = ((bi * h + oy * s) * w + ox * s) * c;
                    let best = &mut out[o..][..c];
                    best.copy_from_slice(&data[corner..][..c]);
                    let arg = &mut argmax[o..][..c];
                    for (lane, a) in arg.iter_mut().enumerate() {
                        *a = (corner + lane) as u32;
                    }
                    let pixels =
                        (0..k).flat_map(|ky| (0..k).map(move |kx| corner + (ky * w + kx) * c));
                    for at in pixels {
                        let pixel = &data[at..][..c];
                        for lane in 0..c {
                            let v = pixel[lane];
                            // All ones where `v` wins, so the index update
                            // is a mask, not a branch.
                            let wins = u32::from(v > best[lane]).wrapping_neg();
                            best[lane] = if v > best[lane] { v } else { best[lane] };
                            arg[lane] ^= (arg[lane] ^ (at + lane) as u32) & wins;
                        }
                    }
                    o += c;
                }
            }
        }
        self.argmax = Cache(train.then_some(argmax));
        self.input_shape = [b, h, w, c];
        Tensor::from_vec(vec![b, oh, ow, c], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .0
            .take()
            .expect("MaxPool2d::backward called before a training-mode forward");
        assert_eq!(grad_out.numel(), argmax.len(), "MaxPool2d::backward grad shape mismatch");
        let _k = kcount::scope(Kernel::Pool, grad_out.numel() as u64, 12 * grad_out.numel() as u64);
        // Outputs in ascending order, so an input pixel two overlapping
        // windows share adds their gradients in window order.
        let mut grad_in = Tensor::zeros(&self.input_shape);
        let dst = grad_in.data_mut();
        for (&g, &i) in grad_out.data().iter().zip(&argmax) {
            dst[i as usize] += g;
        }
        grad_in
    }

    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        self.argmax.0.is_some()
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{nchw_to_nhwc, nhwc_to_nchw, pool_backward, pool_forward};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1, 4, 4, 1],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2, 2, 1]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 2, 2, 1], vec![1.0, 9.0, 3.0, 4.0]);
        let y = pool.forward(&x, true);
        let g = pool.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_planes_are_independent() {
        let mut pool = MaxPool2d::new(2, 2);
        // Channel 0 is 1, 2, 3, 4 and channel 1 is 40, 30, 20, 10.
        let x =
            Tensor::from_vec(vec![1, 2, 2, 2], vec![1.0, 40.0, 2.0, 30.0, 3.0, 20.0, 4.0, 10.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "MaxPool2d: a 3x3 window does not fit an input of size 2")]
    fn a_window_larger_than_the_input_is_rejected() {
        MaxPool2d::new(3, 1).forward(&Tensor::zeros(&[1, 2, 2, 1]), false);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Holds the layer to the plane-wise reference by `to_bits()`: the
    /// output in both modes, and the input gradient of `g`.
    fn assert_matches_reference(size: usize, stride: usize, x: &Tensor, g: &Tensor, case: &str) {
        let mut pool = MaxPool2d::new(size, stride);
        let (want_y, argmax) = pool_forward(x, size, stride);
        let want_dx = pool_backward(x.shape(), &argmax, g);
        let y = pool.forward(&nchw_to_nhwc(x), true);
        let dx = pool.backward(&nchw_to_nhwc(g));
        assert_eq!(bits(&nhwc_to_nchw(&y)), bits(&want_y), "y, {case}");
        assert_eq!(bits(&nhwc_to_nchw(&dx)), bits(&want_dx), "dx, {case}");
        let y = pool.forward(&nchw_to_nhwc(x), false);
        assert_eq!(bits(&nhwc_to_nchw(&y)), bits(&want_y), "evaluation y, {case}");
    }

    #[test]
    fn ties_and_nan_follow_the_plane_wise_reference() {
        // Two channels of one 4x4 image: ties within a window (the first
        // maximum wins, `-0.0` before `+0.0` keeps its sign), a NaN first in
        // its window (it stays the maximum) and a NaN later (it never
        // displaces one), infinities and a window of `-∞`.
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 2, 4, 4], vec![
            5.0, 5.0,  nan, 1.0,
            5.0, 2.0,  2.0, 3.0,
            -0.0, 0.0, -inf, -inf,
            0.0, -0.0, -inf, -inf,

            1.0, nan,  inf, 7.0,
            2.0, 0.5,  inf, nan,
            3.0, 3.0,  nan, nan,
            3.0, -1.0, nan, 4.0,
        ]);
        let g = Tensor::from_vec(vec![1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_matches_reference(2, 2, &x, &g, "ties and NaN");
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.forward(&nchw_to_nhwc(&x), false);
        assert!(y.data()[2].is_nan(), "a NaN first in its window is its maximum");
        assert_eq!(y.data()[1], 2.0, "a later NaN displaces nothing");
        assert_eq!(y.data()[4].to_bits(), (-0.0f32).to_bits(), "the first of tied zeros wins");
    }

    #[test]
    fn overlapping_windows_add_gradients_in_window_order() {
        // 3x3 windows at stride 2 share a row or column of inputs, and the
        // shared pixels that hold the maximum of several windows receive
        // several gradients, whose `+=` order the reference fixes; random
        // gradients make a different order visible in the bits.
        let mut rng = StdRng::seed_from_u64(31);
        for (b, c, h, w) in [(2, 3, 7, 7), (1, 16, 9, 5), (3, 1, 5, 8)] {
            let mut x = Tensor::randn(&[b, c, h, w], 1.0, &mut rng);
            // Plateaus of equal values make one pixel the maximum of every
            // window that contains it.
            for v in x.data_mut().iter_mut().step_by(5) {
                *v = 4.0;
            }
            let (oh, ow) = ((h - 3) / 2 + 1, (w - 3) / 2 + 1);
            let g = Tensor::randn(&[b, c, oh, ow], 1.0, &mut rng);
            assert_matches_reference(3, 2, &x, &g, &format!("{b}x{c}x{h}x{w}"));
        }
    }
}
