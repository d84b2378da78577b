use rand::Rng;

/// A dense, row-major `f32` tensor with a dynamic shape.
///
/// Invariant: `data.len() == shape.iter().product()`. A zero-dimensional
/// shape is not allowed; scalars are represented as `[1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if the data length does not match the shape product or the
    /// shape is empty.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} implies {numel} elements but data has {}",
            data.len()
        );
        Self { shape, data }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self::from_vec(shape.to_vec(), vec![0.0; numel])
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self::from_vec(shape.to_vec(), vec![value; numel])
    }

    /// A tensor with entries drawn from `N(0, std^2)` using `rng`.
    ///
    /// Sampling uses the Box–Muller transform so only a uniform source is
    /// needed; this keeps initialization reproducible across `rand`
    /// versions for a fixed seed.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = rng.random::<f32>().max(1e-7);
            let u2: f32 = rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        Self::from_vec(shape.to_vec(), data)
    }

    /// The shape of this tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing data (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape must preserve element count");
        Self::from_vec(shape.to_vec(), self.data.clone())
    }

    /// [`Tensor::reshape`] for an owner done with `self`: the data keeps its
    /// buffer, so nothing is copied.
    ///
    /// # Panics
    /// Panics if the element counts differ or the shape is empty.
    pub fn into_shape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape must preserve element count");
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self
    }

    /// Number of rows when interpreted as a 2-D matrix.
    ///
    /// # Panics
    /// Panics unless the tensor is 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns when interpreted as a 2-D matrix.
    ///
    /// # Panics
    /// Panics unless the tensor is 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element access for a 2-D tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for a 2-D tensor.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    /// Returns the `r`-th row of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.shape.len(), 2);
        let w = self.shape[1];
        &self.data[r * w..(r + 1) * w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_checks_shape() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "implies")]
    fn from_vec_rejects_mismatch() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 4]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[5]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[4, 4], 1.0, &mut r1);
        let b = Tensor::randn(&[4, 4], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_has_roughly_unit_std() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / t.numel() as f32;
        let var: f32 =
            t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        let buffer = t.data().as_ptr();
        let owned = t.into_shape(&[6]);
        assert_eq!((owned.shape(), owned.data()), (&[6][..], r.data()));
        assert_eq!(owned.data().as_ptr(), buffer, "into_shape keeps the buffer");
    }

    #[test]
    fn row_returns_expected_slice() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect());
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }
}
