use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

/// A differentiable network layer.
///
/// `forward` with `train == true` must cache whatever activations `backward`
/// needs; `backward` consumes the gradient w.r.t. the layer output and
/// returns the gradient w.r.t. the layer input while accumulating parameter
/// gradients internally. `backward` may release the cache, so it runs at
/// most once per training-mode `forward`; calling it otherwise is a
/// programming error and may panic.
///
/// Every 4-D activation a layer sees is NHWC, `[B, H, W, C]`: channels are
/// the contiguous axis. [`crate::Model`] takes NCHW batches and permutes
/// them once on entry; [`crate::Flatten`] emits channel-major features.
///
/// Layers are `Send` so the FL simulator can train clients on worker threads.
pub trait Layer: Send {
    /// Computes the layer output for `input`. `train` is true for a forward
    /// that a `backward` will follow, false for inference.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. the forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the forward input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::forward`] for a caller that is done with `input`: a layer that
    /// keeps its input for the backward pass, or only relabels it, takes the
    /// buffer instead of copying it.
    fn forward_owned(&mut self, input: Tensor, train: bool) -> Tensor {
        self.forward(&input, train)
    }

    /// [`Layer::backward`] for a caller that is done with `grad_out`: a layer
    /// that only masks or relabels it works in its buffer instead of
    /// copying it.
    fn backward_owned(&mut self, grad_out: Tensor) -> Tensor {
        self.backward(&grad_out)
    }

    /// [`Layer::backward_owned`] for a caller that will not read the input
    /// gradient (the first layer of a network): parameter gradients are
    /// accumulated bit-identically, and a layer may skip the work that only
    /// the input gradient needs.
    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.backward_owned(grad_out);
    }

    /// Visits every `(parameter, gradient)` pair, in a stable order.
    ///
    /// The default is a no-op for parameterless layers.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Resets all accumulated parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Total number of scalar parameters in this layer.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.numel());
        n
    }

    /// Whether the layer holds forward-pass state for a backward pass.
    #[cfg(test)]
    fn holds_cache(&self) -> bool;

    /// Human-readable layer name for debugging.
    fn name(&self) -> &'static str;

    /// Clones the layer behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// Forward-pass state a layer keeps for its backward pass. It belongs to one
/// forward/backward pair, not to the layer's value: a cloned layer starts
/// with an empty cache, so copying a model costs its parameters and not its
/// last batch's activations.
#[derive(Default)]
pub(crate) struct Cache<T>(pub(crate) T);

impl<T: Default> Clone for Cache<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The four axes of a 4-D shape.
pub(crate) fn four(shape: &[usize]) -> [usize; 4] {
    assert_eq!(shape.len(), 4, "expected a 4-D tensor, got shape {shape:?}");
    [shape[0], shape[1], shape[2], shape[3]]
}

/// Moves each `image`-long block of `src` from `[n, m]` to `[m, n]`: with
/// `(n, m) = (C, H*W)` from NCHW to NHWC, and with `(H*W, C)` back.
pub(crate) fn transpose_images(src: &[f32], image: usize, n: usize, m: usize) -> Vec<f32> {
    let _k = kcount::scope(Kernel::Transpose, 0, 8 * src.len() as u64);
    let mut out = vec![0.0f32; src.len()];
    if image > 0 {
        for (dst, src) in out.chunks_exact_mut(image).zip(src.chunks_exact(image)) {
            for (i, row) in src.chunks_exact(m).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    dst[j * n + i] = v;
                }
            }
        }
    }
    out
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Flatten, MaxPool2d, Relu, ResidualBlock, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The three ways to run a backward pass.
    #[derive(Clone, Copy, Debug)]
    enum Pass {
        Borrowed,
        Owned,
        ParamsOnly,
    }

    /// Parameter-gradient bits, then input-gradient bits (none for
    /// `ParamsOnly`), after one forward and one backward pass.
    fn grad_bits(layer: &mut dyn Layer, x: &Tensor, pass: Pass) -> Vec<u32> {
        let y = layer.forward(x, true);
        let g = Tensor::randn(y.shape(), 1.0, &mut StdRng::seed_from_u64(99));
        layer.zero_grad();
        let gx = match pass {
            Pass::Borrowed => Some(layer.backward(&g)),
            Pass::Owned => Some(layer.backward_owned(g)),
            Pass::ParamsOnly => {
                layer.backward_params_only(g);
                None
            }
        };
        let mut bits = Vec::new();
        layer.visit_params(&mut |_, grad| bits.extend(grad.data().iter().map(|v| v.to_bits())));
        bits.extend(gx.iter().flat_map(|gx| gx.data().iter().map(|v| v.to_bits())));
        bits
    }

    /// `backward_owned` leaves `backward`'s parameter and input gradients,
    /// and `backward_params_only` its parameter gradients, bit for bit.
    #[test]
    fn backward_params_only_leaves_the_same_parameter_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let image = Tensor::randn(&[3, 6, 6, 2], 1.0, &mut rng);
        let flat = Tensor::randn(&[5, 7], 1.0, &mut rng);
        let cnn = Sequential::new()
            .push(Conv2d::new(2, 4, 5, 1, 2, 1))
            .push(Relu::new())
            .push(MaxPool2d::new(2, 2))
            .push(ResidualBlock::new(4, 2))
            .push(Flatten::new())
            .push(Dense::new(36, 3, 3));
        let cases: Vec<(Box<dyn Layer>, &Tensor)> = vec![
            (Box::new(Conv2d::new(2, 3, 3, 2, 1, 5)), &image),
            (Box::new(Dense::new(7, 4, 6)), &flat),
            (Box::new(ResidualBlock::new(2, 7)), &image),
            (Box::new(Sequential::new().push(Dense::new(7, 4, 8))), &flat),
            (Box::new(cnn), &image),
        ];
        for (mut layer, x) in cases {
            let params = layer.param_count();
            let full = grad_bits(layer.as_mut(), x, Pass::Borrowed);
            assert!(full[..params].iter().any(|&b| b != 0), "{}: gradients flowed", layer.name());
            assert_eq!(grad_bits(layer.as_mut(), x, Pass::Owned), full, "{}", layer.name());
            let params_only = grad_bits(layer.as_mut(), x, Pass::ParamsOnly);
            assert_eq!(params_only, full[..params], "{}", layer.name());
        }
    }

    #[test]
    fn a_clone_and_an_evaluation_leave_no_cached_input() {
        let image = Tensor::ones(&[2, 4, 4, 2]);
        let flat = Tensor::ones(&[2, 5]);
        let cases: Vec<(Box<dyn Layer>, &Tensor)> = vec![
            (Box::new(Conv2d::new(2, 3, 3, 1, 1, 0)), &image),
            (Box::new(Dense::new(5, 3, 1)), &flat),
            (Box::new(Relu::new()), &image),
            (Box::new(MaxPool2d::new(2, 2)), &image),
            (Box::new(Flatten::new()), &image),
            (Box::new(ResidualBlock::new(2, 2)), &image),
            (Box::new(Sequential::new().push(Relu::new()).push(MaxPool2d::new(2, 2))), &image),
        ];
        for (mut layer, x) in cases {
            let name = layer.name();
            let trains = !matches!(name, "Flatten");
            let y = layer.forward(x, true);
            assert_eq!(layer.holds_cache(), trains, "{name}: a training forward caches");
            // A clone is a layer value, not a step in flight.
            assert!(!layer.clone().holds_cache(), "{name}: a clone starts empty");
            layer.backward(&y);
            assert!(!layer.holds_cache(), "{name}: backward releases the cache");
            layer.forward(x, true);
            layer.forward(x, false);
            assert!(!layer.holds_cache(), "{name}: an evaluation leaves nothing resident");
        }
    }
}
