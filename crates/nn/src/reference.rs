//! An NCHW reference network, written from the definitions of its layers
//! and not from the layers' own loops, that the NHWC layers are held to by
//! `to_bits()`.
//!
//! Every 4-D activation here is `[B, C, H, W]`. A convolution pads, builds
//! its im2col patch matrix `[B*OH*OW, C*K*K]` (columns in `(c, ky, kx)`
//! order), multiplies it by the weight with [`Tensor::matmul`] and
//! rearranges the rows back to planes; its backward pass rearranges the
//! gradient to rows, takes `dW` with [`Tensor::matmul_tn`], `g · Wᵀ` with
//! [`Tensor::matmul`] and adds the patch gradient back entry by entry
//! (col2im). Max-pooling scans one plane at a time and flattening only
//! relabels. This is the path the layers computed before activations were
//! NHWC, so equal bits here mean the layout moved no bit.

use fedmigr_tensor::Tensor;

use crate::layer::four;
use crate::{softmax_cross_entropy, zoo, Layer, Sgd};

/// `[B, C, H, W] -> [B, H, W, C]`.
pub(crate) fn nchw_to_nhwc(x: &Tensor) -> Tensor {
    let [b, c, h, w] = four(x.shape());
    let mut out = vec![0.0f32; x.numel()];
    for bi in 0..b {
        for ci in 0..c {
            for y in 0..h {
                for xx in 0..w {
                    out[((bi * h + y) * w + xx) * c + ci] =
                        x.data()[((bi * c + ci) * h + y) * w + xx];
                }
            }
        }
    }
    Tensor::from_vec(vec![b, h, w, c], out)
}

/// `[B, H, W, C] -> [B, C, H, W]`.
pub(crate) fn nhwc_to_nchw(x: &Tensor) -> Tensor {
    let [b, h, w, c] = four(x.shape());
    let mut out = vec![0.0f32; x.numel()];
    for bi in 0..b {
        for ci in 0..c {
            for y in 0..h {
                for xx in 0..w {
                    out[((bi * c + ci) * h + y) * w + xx] =
                        x.data()[((bi * h + y) * w + xx) * c + ci];
                }
            }
        }
    }
    Tensor::from_vec(vec![b, c, h, w], out)
}

/// The NaN this CPU's arithmetic generates (`∞ - ∞`, computed at run time):
/// on x86 a negative quiet NaN, where `f32::NAN` is positive. The tests salt
/// both, so a sum that meets two NaNs must pick the same one as the
/// reference does.
pub(crate) fn generated_nan() -> f32 {
    std::hint::black_box(f32::INFINITY) - f32::INFINITY
}

/// A convolution's geometry: kernel side, stride and padding.
#[derive(Clone, Copy)]
pub(crate) struct ConvGeom {
    pub(crate) k: usize,
    pub(crate) s: usize,
    pub(crate) p: usize,
}

impl ConvGeom {
    fn out_size(self, n: usize) -> usize {
        (n + 2 * self.p - self.k) / self.s + 1
    }

    /// Calls `f(q, t, i)` for every entry `(q, t)` of the im2col patch
    /// matrix of a `[b, c, h, w]` input, in row-major order, with `i` the
    /// input element the entry copies (`None` in the padding).
    fn for_each_entry(
        self,
        [b, c, h, w]: [usize; 4],
        mut f: impl FnMut(usize, usize, Option<usize>),
    ) {
        let (k, s, p) = (self.k, self.s, self.p);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
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

    /// The im2col patch matrix of an NCHW input.
    fn im2col(self, x: &Tensor, patch: usize) -> Tensor {
        let [b, _, h, w] = four(x.shape());
        let rows = b * self.out_size(h) * self.out_size(w);
        let mut cols = vec![0.0f32; rows * patch];
        self.for_each_entry(four(x.shape()), |q, t, i| {
            if let Some(i) = i {
                cols[q * patch + t] = x.data()[i];
            }
        });
        Tensor::from_vec(vec![rows, patch], cols)
    }

    /// `y = im2col(x) · W + b`, rearranged to `[B, OC, OH, OW]`; also
    /// returns the patch matrix for the backward pass.
    pub(crate) fn forward(self, x: &Tensor, weight: &Tensor, bias: &Tensor) -> (Tensor, Tensor) {
        let [b, _, h, w] = four(x.shape());
        let (oh, ow, oc) = (self.out_size(h), self.out_size(w), weight.cols());
        let cols = self.im2col(x, weight.rows());
        let y2 = cols.matmul(weight);
        let mut y = vec![0.0f32; y2.numel()];
        for q in 0..b * oh * ow {
            for co in 0..oc {
                let plane = (q / (oh * ow) * oc + co) * oh * ow;
                y[plane + q % (oh * ow)] = y2.data()[q * oc + co] + bias.data()[co];
            }
        }
        (Tensor::from_vec(vec![b, oc, oh, ow], y), cols)
    }

    /// `(dx, dW, db)` of a convolution of the input shape `x_shape` with
    /// patch matrix `cols`, for the output gradient `g: [B, OC, OH, OW]`.
    /// `dW` and `db` are accumulated onto `+0.0`, as onto a zeroed gradient.
    pub(crate) fn backward(
        self,
        x_shape: [usize; 4],
        cols: &Tensor,
        weight: &Tensor,
        g: &Tensor,
    ) -> [Tensor; 3] {
        let [b, oc, oh, ow] = four(g.shape());
        let plane = oh * ow;
        let mut g2 = vec![0.0f32; g.numel()];
        for q in 0..b * plane {
            for co in 0..oc {
                g2[q * oc + co] = g.data()[(q / plane * oc + co) * plane + q % plane];
            }
        }
        let g2 = Tensor::from_vec(vec![b * plane, oc], g2);
        let mut dw = Tensor::zeros(weight.shape());
        dw.add_assign(&cols.matmul_tn(&g2));
        let mut db = vec![0.0f32; oc];
        for row in g2.data().chunks_exact(oc) {
            for (d, &v) in db.iter_mut().zip(row) {
                *d += v;
            }
        }
        let grad_cols = g2.matmul(&weight.transpose2());
        let patch = weight.rows();
        let mut dx = vec![0.0f32; x_shape.iter().product()];
        self.for_each_entry(x_shape, |q, t, i| {
            if let Some(i) = i {
                dx[i] += grad_cols.data()[q * patch + t];
            }
        });
        [Tensor::from_vec(x_shape.to_vec(), dx), dw, Tensor::from_vec(vec![oc], db)]
    }
}

/// Max-pooling of an NCHW input, one plane at a time: each window's first
/// element, then every element that is strictly greater, in `(ky, kx)`
/// order. Returns the output and the flat input index of each maximum.
pub(crate) fn pool_forward(x: &Tensor, size: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let [b, c, h, w] = four(x.shape());
    let (oh, ow) = ((h - size) / stride + 1, (w - size) / stride + 1);
    let mut out = Vec::with_capacity(b * c * oh * ow);
    let mut argmax = Vec::with_capacity(out.capacity());
    for bc in 0..b * c {
        let plane = &x.data()[bc * h * w..][..h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = oy * stride * w + ox * stride;
                for ky in 0..size {
                    for kx in 0..size {
                        let i = (oy * stride + ky) * w + ox * stride + kx;
                        if plane[i] > plane[best] {
                            best = i;
                        }
                    }
                }
                out.push(plane[best]);
                argmax.push(bc * h * w + best);
            }
        }
    }
    (Tensor::from_vec(vec![b, c, oh, ow], out), argmax)
}

/// The input gradient of a max-pooling: output gradients added, in output
/// order, onto a zeroed input at their window's maximum.
pub(crate) fn pool_backward(x_shape: &[usize], argmax: &[usize], g: &Tensor) -> Tensor {
    let mut dx = Tensor::zeros(x_shape);
    for (&i, &v) in argmax.iter().zip(g.data()) {
        dx.data_mut()[i] += v;
    }
    dx
}

/// The layers of a reference network; `Conv` and `Dense` own the weight
/// and the bias that follow each other in the model's parameter vector.
enum Op {
    Conv(ConvGeom),
    Dense,
    Relu,
    Pool {
        size: usize,
        stride: usize,
    },
    Flatten,
    /// `relu(path(x) + x)`.
    Residual(Vec<Op>),
}

/// What a layer's forward pass leaves for its backward pass.
enum Saved {
    Patches([usize; 4], Tensor),
    Input(Tensor),
    Mask(Vec<bool>),
    Argmax(Vec<usize>, Vec<usize>),
    Shape(Vec<usize>),
}

/// A reference network: its layers, and its parameters with their
/// gradients, in the model's parameter order.
struct RefNet {
    ops: Vec<Op>,
    params: Vec<Tensor>,
    grads: Vec<Tensor>,
}

fn relu(x: &Tensor) -> (Tensor, Vec<bool>) {
    let mask = x.data().iter().map(|&v| v > 0.0).collect();
    (Tensor::from_vec(x.shape().to_vec(), x.data().iter().map(|&v| v.max(0.0)).collect()), mask)
}

fn relu_backward(mask: &[bool], g: &Tensor) -> Tensor {
    let data = g.data().iter().zip(mask).map(|(&v, &m)| if m { v } else { 0.0 }).collect();
    Tensor::from_vec(g.shape().to_vec(), data)
}

impl RefNet {
    /// The reference for one of the zoo's small CNNs on `in_channels`
    /// × `hw` × `hw` inputs, holding `params` (a model's parameter vector).
    /// `fc` is the number of hidden fully-connected layers (1 for C10-CNN,
    /// 2 for C100-CNN).
    fn cnn(in_channels: usize, hw: usize, fc: usize, classes: usize, params: &[f32]) -> Self {
        let conv5 = || Op::Conv(ConvGeom { k: 5, s: 1, p: 2 });
        let (c1, c2, width) = (8, 16, 64);
        let mut ops = vec![conv5(), Op::Relu, Op::Pool { size: 2, stride: 2 }];
        ops.extend([conv5(), Op::Relu, Op::Pool { size: 2, stride: 2 }, Op::Flatten]);
        let mut shapes = vec![[in_channels * 25, c1], [c1 * 25, c2]];
        let mut prev = c2 * (hw / 4) * (hw / 4);
        for _ in 0..fc {
            ops.extend([Op::Dense, Op::Relu]);
            shapes.push([prev, width]);
            prev = width;
        }
        ops.push(Op::Dense);
        shapes.push([prev, classes]);
        Self::new(ops, &shapes, params)
    }

    /// The reference for [`zoo::mini_resnet`] at small scale.
    fn mini_resnet(
        in_channels: usize,
        hw: usize,
        classes: usize,
        blocks: usize,
        params: &[f32],
    ) -> Self {
        let conv3 = || Op::Conv(ConvGeom { k: 3, s: 1, p: 1 });
        let width = 8;
        let mut ops = vec![conv3(), Op::Relu];
        let mut shapes = vec![[in_channels * 9, width]];
        for _ in 0..blocks {
            ops.push(Op::Residual(vec![conv3(), Op::Relu, conv3()]));
            shapes.extend([[width * 9, width], [width * 9, width]]);
        }
        ops.extend([Op::Pool { size: 2, stride: 2 }, Op::Flatten, Op::Dense]);
        shapes.push([width * (hw / 2) * (hw / 2), classes]);
        Self::new(ops, &shapes, params)
    }

    /// Cuts `params` into a weight `[rows, cols]` and a bias `[cols]` per
    /// shape, in order.
    fn new(ops: Vec<Op>, shapes: &[[usize; 2]], params: &[f32]) -> Self {
        let mut rest = params;
        let mut tensors = Vec::new();
        for &[rows, cols] in shapes {
            for shape in [vec![rows, cols], vec![cols]] {
                let (head, tail) = rest.split_at(shape.iter().product());
                tensors.push(Tensor::from_vec(shape, head.to_vec()));
                rest = tail;
            }
        }
        assert!(rest.is_empty(), "{} parameters left over", rest.len());
        let grads = tensors.iter().map(|t| Tensor::zeros(t.shape())).collect();
        Self { ops, params: tensors, grads }
    }

    /// The parameter vector, in the model's order.
    fn params(&self) -> Vec<f32> {
        self.params.iter().flat_map(|t| t.data().iter().copied()).collect()
    }

    /// Logits of an NCHW batch.
    fn forward(&self, x: &Tensor) -> Tensor {
        let mut next = 0;
        forward(&self.ops, &self.params, &mut next, x.clone(), &mut Vec::new())
    }

    /// One step of `opt`, as [`crate::Model::train_step`] takes it: the
    /// loss, and no update when it is not finite.
    fn train_step(&mut self, x: &Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
        let mut tape = Vec::new();
        let mut next = 0;
        let logits = forward(&self.ops, &self.params, &mut next, x.clone(), &mut tape);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        if !loss.is_finite() {
            return loss;
        }
        for g in &mut self.grads {
            g.fill_zero();
        }
        backward(&self.ops, &self.params, &mut self.grads, &mut next, grad, &mut tape);
        assert!(tape.is_empty() && next == 0);
        opt.step(self);
        loss
    }
}

/// Only so that [`Sgd`] can step the reference's parameters: the update is
/// elementwise and the same in any layout, and it must be the same compiled
/// loop, because which operand's sign `NaN + NaN` keeps is up to codegen.
impl Layer for RefNet {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        RefNet::forward(self, input)
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        unreachable!("the reference backpropagates in train_step")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for (p, g) in self.params.iter_mut().zip(&mut self.grads) {
            f(p, g);
        }
    }

    fn holds_cache(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "RefNet"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        unreachable!("the reference is not cloned")
    }
}

/// Runs `ops` on `x`; `next` is the index of the next layer's weight.
fn forward(
    ops: &[Op],
    params: &[Tensor],
    next: &mut usize,
    x: Tensor,
    tape: &mut Vec<Saved>,
) -> Tensor {
    ops.iter().fold(x, |x, op| match op {
        Op::Conv(geom) => {
            let (w, b) = (&params[*next], &params[*next + 1]);
            *next += 2;
            let (y, cols) = geom.forward(&x, w, b);
            tape.push(Saved::Patches(four(x.shape()), cols));
            y
        }
        Op::Dense => {
            let (w, b) = (&params[*next], &params[*next + 1]);
            *next += 2;
            let mut y = x.matmul(w);
            for row in y.data_mut().chunks_exact_mut(b.numel()) {
                for (v, &bv) in row.iter_mut().zip(b.data()) {
                    *v += bv;
                }
            }
            tape.push(Saved::Input(x));
            y
        }
        Op::Relu => {
            let (y, mask) = relu(&x);
            tape.push(Saved::Mask(mask));
            y
        }
        Op::Pool { size, stride } => {
            let (y, argmax) = pool_forward(&x, *size, *stride);
            tape.push(Saved::Argmax(x.shape().to_vec(), argmax));
            y
        }
        Op::Flatten => {
            tape.push(Saved::Shape(x.shape().to_vec()));
            let b = x.shape()[0];
            x.reshape(&[b, x.numel() / b])
        }
        Op::Residual(path) => {
            let f = forward(path, params, next, x.clone(), tape);
            let (y, mask) = relu(&f.add(&x));
            tape.push(Saved::Mask(mask));
            y
        }
    })
}

/// Backpropagates `g` through `ops`, last to first, accumulating parameter
/// gradients; `next` is one past the index of the last layer's bias.
fn backward(
    ops: &[Op],
    params: &[Tensor],
    grads: &mut [Tensor],
    next: &mut usize,
    g: Tensor,
    tape: &mut Vec<Saved>,
) -> Tensor {
    ops.iter().rev().fold(g, |g, op| match (op, tape.pop().expect("a saved forward")) {
        (Op::Conv(geom), Saved::Patches(x_shape, cols)) => {
            *next -= 2;
            let [dx, dw, db] = geom.backward(x_shape, &cols, &params[*next], &g);
            grads[*next].add_assign(&dw);
            grads[*next + 1].add_assign(&db);
            dx
        }
        (Op::Dense, Saved::Input(x)) => {
            *next -= 2;
            grads[*next].add_assign(&x.matmul_tn(&g));
            for row in g.data().chunks_exact(g.cols()) {
                for (d, &v) in grads[*next + 1].data_mut().iter_mut().zip(row) {
                    *d += v;
                }
            }
            g.matmul(&params[*next].transpose2())
        }
        (Op::Relu, Saved::Mask(mask)) => relu_backward(&mask, &g),
        (Op::Pool { .. }, Saved::Argmax(shape, argmax)) => pool_backward(&shape, &argmax, &g),
        (Op::Flatten, Saved::Shape(shape)) => g.reshape(&shape),
        (Op::Residual(path), Saved::Mask(mask)) => {
            let g_sum = relu_backward(&mask, &g);
            let g_path = backward(path, params, grads, next, g_sum.clone(), tape);
            g_path.add(&g_sum)
        }
        _ => unreachable!("the tape follows the layers"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Overwrites `n` random entries of `xs` with the first `kinds` of
    /// `f32::NAN`, the generated NaN, `-∞` and `+∞`, in turn.
    fn salt(xs: &mut [f32], n: usize, kinds: usize, rng: &mut StdRng) {
        let specials = [f32::NAN, generated_nan(), f32::NEG_INFINITY, f32::INFINITY];
        for i in 0..n {
            let at = rng.random_range(0..xs.len());
            xs[at] = specials[i % kinds];
        }
    }

    /// Holds `model` to the reference `build` makes from a parameter vector,
    /// by `to_bits()`, at batch 1, 8 and 32: evaluation logits, three
    /// training steps' losses, then every parameter and the logits again.
    /// Each batch runs clean, with `-0.0` in every seventh parameter and a
    /// third of the inputs and both NaN patterns in the inputs and the first
    /// layer's weights (ReLU absorbs them, so steps still train), and with
    /// `-∞` and `+∞` added (which can reach the loss; such steps are skipped).
    fn assert_bit_identical(model: &Model, build: impl Fn(&[f32]) -> RefNet) {
        let [c, h, w] = [model.input_shape()[0], model.input_shape()[1], model.input_shape()[2]];
        let classes = model.num_classes();
        let first_weight = build(&model.clone().params()).params[0].numel();
        let mut trained = 0;
        for batch in [1usize, 8, 32] {
            for kinds in [0, 2, 4] {
                let case = format!("{}, batch {batch}, {kinds} kinds of non-finite", model.name());
                let mut rng = StdRng::seed_from_u64(batch as u64);
                let mut m = model.clone();
                let mut x = Tensor::randn(&[batch, c, h, w], 1.0, &mut rng);
                if kinds > 0 {
                    let mut p = m.params();
                    p.iter_mut().step_by(7).for_each(|v| *v = -0.0);
                    salt(&mut p[..first_weight], 3, kinds, &mut rng);
                    m.set_params(&p);
                    x.data_mut().iter_mut().step_by(3).for_each(|v| *v = -0.0);
                    salt(x.data_mut(), 1 + batch / 4, kinds, &mut rng);
                }
                let mut r = build(&m.params());
                let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % classes).collect();
                let logits = |m: &mut Model| bits(m.forward(&x, false).data());
                assert_eq!(logits(&mut m), bits(r.forward(&x).data()), "logits, {case}");
                let mut opt = Sgd::new(0.05);
                for step in 0..3 {
                    let got = m.train_step(&x, &labels, &mut opt);
                    let want = r.train_step(&x, &labels, &mut opt);
                    assert_eq!(got.to_bits(), want.to_bits(), "loss at step {step}, {case}");
                    trained += usize::from(got.is_finite() && kinds > 0);
                }
                assert_eq!(bits(&m.params()), bits(&r.params()), "parameters, {case}");
                assert_eq!(logits(&mut m), bits(r.forward(&x).data()), "trained logits, {case}");
            }
        }
        assert!(trained > 0, "{}: no salted step trained", model.name());
    }

    #[test]
    fn whole_models_are_bit_identical_to_the_nchw_reference() {
        let small = zoo::NetScale::Small;
        let c10 = zoo::c10_cnn(3, 8, small, 11);
        assert_bit_identical(&c10, |p| RefNet::cnn(3, 8, 1, 10, p));
        let c100 = zoo::c100_cnn(3, 8, small, 12);
        assert_bit_identical(&c100, |p| RefNet::cnn(3, 8, 2, 100, p));
        let resnet = zoo::mini_resnet(3, 8, 10, 2, small, 13);
        assert_bit_identical(&resnet, |p| RefNet::mini_resnet(3, 8, 10, 2, p));
    }
}
