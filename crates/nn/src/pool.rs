use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::layer::Cache;
use crate::Layer;

/// Max pooling over `[B, C, H, W]` inputs with a square window.
///
/// The forward pass caches the flat index of each window maximum so the
/// backward pass can route gradients with no recomputation.
#[derive(Clone)]
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    argmax: Cache<Vec<usize>>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pooling layer with `size`x`size` windows and the given stride.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(size > 0 && stride > 0, "pool size and stride must be positive");
        Self { size, stride, argmax: Cache::default(), input_shape: Vec::new() }
    }

    fn out_size(&self, in_size: usize) -> usize {
        (in_size - self.size) / self.stride + 1
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [B, C, H, W]");
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let windows = (b * c * oh * ow) as u64;
        let _k = kcount::scope(
            Kernel::Pool,
            windows * (self.size * self.size) as u64,
            4 * windows * (self.size * self.size + 1) as u64,
        );
        let mut out = vec![0.0f32; b * c * oh * ow];
        self.argmax.0.clear();
        self.argmax.0.resize(out.len(), 0);
        let data = input.data();
        for bc in 0..b * c {
            let plane = bc * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = plane + (oy * self.stride) * w + ox * self.stride;
                    let mut best = data[best_idx];
                    for ky in 0..self.size {
                        let iy = oy * self.stride + ky;
                        for kx in 0..self.size {
                            let ix = ox * self.stride + kx;
                            let idx = plane + iy * w + ix;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = (bc * oh + oy) * ow + ox;
                    out[o] = best;
                    self.argmax.0[o] = best_idx;
                }
            }
        }
        self.input_shape = shape.to_vec();
        Tensor::from_vec(vec![b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.numel(),
            self.argmax.0.len(),
            "MaxPool2d::backward grad shape mismatch (forward not called?)"
        );
        let _k = kcount::scope(Kernel::Pool, grad_out.numel() as u64, 12 * grad_out.numel() as u64);
        let mut grad_in = Tensor::zeros(&self.input_shape);
        let dst = grad_in.data_mut();
        for (o, &g) in grad_out.data().iter().enumerate() {
            dst[self.argmax.0[o]] += g;
        }
        grad_in
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

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]);
        let y = pool.forward(&x, true);
        let g = pool.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_planes_are_independent() {
        let mut pool = MaxPool2d::new(2, 2);
        let x =
            Tensor::from_vec(vec![1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 40.0]);
    }
}
