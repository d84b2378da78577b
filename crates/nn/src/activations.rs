use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::layer::{four, transpose_images, Cache};
use crate::Layer;

/// Rectified linear unit. A training-mode forward caches the sign mask.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Cache<Option<Vec<bool>>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_owned(input.clone(), train)
    }

    fn forward_owned(&mut self, mut input: Tensor, train: bool) -> Tensor {
        self.mask = Cache(train.then(|| input.data().iter().map(|&x| x > 0.0).collect()));
        let n = input.numel() as u64;
        let _k = kcount::scope(Kernel::Elementwise, n, 8 * n);
        for x in input.data_mut() {
            *x = x.max(0.0);
        }
        input
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_owned(grad_out.clone())
    }

    fn backward_owned(&mut self, mut grad_out: Tensor) -> Tensor {
        let mask =
            self.mask.0.take().expect("Relu::backward called before a training-mode forward");
        assert_eq!(grad_out.numel(), mask.len(), "Relu::backward grad shape mismatch");
        // A select, not a branch on each lane: the mask is data, and a
        // mispredicted branch per element costs more than the store.
        for (g, &m) in grad_out.data_mut().iter_mut().zip(&mask) {
            *g = if m { *g } else { 0.0 };
        }
        grad_out
    }

    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        self.mask.0.is_some()
    }

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens an NHWC `[B, H, W, C]` activation to `[B, C*H*W]` features in
/// channel-major `(c, h, w)` order: the order an NCHW activation is stored
/// in, which the weights of the dense layer after it are laid out for.
#[derive(Clone, Default)]
pub struct Flatten {
    input_shape: [usize; 4],
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let [b, h, w, c] = four(input.shape());
        self.input_shape = [b, h, w, c];
        let features = transpose_images(input.data(), h * w * c, h * w, c);
        Tensor::from_vec(vec![b, c * h * w], features)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [b, h, w, c] = self.input_shape;
        assert_eq!(grad_out.shape(), [b, c * h * w], "Flatten::backward grad shape mismatch");
        Tensor::from_vec(
            self.input_shape.to_vec(),
            transpose_images(grad_out.data(), h * w * c, c, h * w),
        )
    }

    /// Only the input's shape is kept, never a batch.
    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::nchw_to_nhwc;

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn flatten_emits_the_nchw_order_and_inverts_it() {
        // Features of an NHWC activation are those of the same activation
        // stored NCHW; the backward pass is the inverse permutation.
        let nchw = Tensor::from_vec(vec![2, 3, 2, 5], (0..60).map(|v| v as f32).collect());
        let nhwc = nchw_to_nhwc(&nchw);
        let mut f = Flatten::new();
        let y = f.forward(&nhwc, true);
        assert_eq!(y.shape(), &[2, 30]);
        assert_eq!(y.data(), nchw.data());
        assert_eq!(f.backward(&y), nhwc);
    }
}
