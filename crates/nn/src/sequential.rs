use fedmigr_tensor::Tensor;

use crate::Layer;

/// An ordered stack of layers, itself a [`Layer`], so it can be nested (the
/// residual block uses a `Sequential` for its convolution path).
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

/// Backpropagates an owned gradient through a run of layers, last to first,
/// handing each layer the gradient the one after it returned.
fn backward_through(layers: &mut [Box<dyn Layer>], grad_out: Tensor) -> Tensor {
    layers.iter_mut().rev().fold(grad_out, |g, layer| layer.backward_owned(g))
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else { return input.clone() };
        rest.iter_mut().fold(first.forward(input, train), |x, layer| layer.forward_owned(x, train))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Some((last, rest)) = self.layers.split_last_mut() else { return grad_out.clone() };
        backward_through(rest, last.backward(grad_out))
    }

    fn backward_owned(&mut self, grad_out: Tensor) -> Tensor {
        backward_through(&mut self.layers, grad_out)
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        if let Some((first, rest)) = self.layers.split_first_mut() {
            first.backward_params_only(backward_through(rest, grad_out));
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    #[cfg(test)]
    fn holds_cache(&self) -> bool {
        self.layers.iter().any(|layer| layer.holds_cache())
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};

    #[test]
    fn forward_composes_layers() {
        let mut net =
            Sequential::new().push(Dense::new(4, 8, 0)).push(Relu::new()).push(Dense::new(8, 2, 1));
        let x = Tensor::ones(&[3, 4]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[3, 2]);
    }

    #[test]
    fn param_count_sums_over_layers() {
        let mut net = Sequential::new().push(Dense::new(4, 8, 0)).push(Dense::new(8, 2, 1));
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn backward_runs_in_reverse() {
        let mut net = Sequential::new().push(Dense::new(4, 4, 0)).push(Relu::new());
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x, true);
        let g = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), &[2, 4]);
    }
}
