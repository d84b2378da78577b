use fedmigr_tensor::Tensor;

/// An in-memory labelled dataset of fixed-shape samples.
///
/// Samples are stored contiguously (row-major, `[N, ...sample_shape]`) so a
/// mini-batch is a gather into a fresh [`Tensor`].
#[derive(Clone, Debug)]
pub struct Dataset {
    data: Vec<f32>,
    sample_shape: Vec<usize>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if the data length is not `labels.len() * prod(sample_shape)`
    /// or any label is out of range.
    pub fn new(
        data: Vec<f32>,
        sample_shape: Vec<usize>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let per: usize = sample_shape.iter().product();
        assert_eq!(data.len(), labels.len() * per, "data/label size mismatch");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Self { data, sample_shape, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample shape (no batch dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Gathers the samples at `indices` into a batch tensor and label list.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let per: usize = self.sample_shape.iter().product();
        let mut out = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            out.extend_from_slice(&self.data[i * per..(i + 1) * per]);
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.sample_shape);
        (Tensor::from_vec(shape, out), labels)
    }

    /// Gathers the whole dataset as one batch.
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.batch(&indices)
    }
}

#[cfg(test)]
impl Dataset {
    /// Per-class sample counts: the tally the crate's tests check layouts
    /// against.
    pub(crate) fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // 4 samples of shape [2], labels 0,1,0,1.
        Dataset::new(vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1, 3.0, 3.1], vec![2], vec![0, 1, 0, 1], 2)
    }

    #[test]
    fn batch_gathers_rows_and_labels() {
        let ds = tiny();
        let (x, y) = ds.batch(&[2, 0]);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.data(), &[2.0, 2.1, 0.0, 0.1]);
        assert_eq!(y, vec![0, 0]);
    }

    #[test]
    fn class_counts_tally_labels() {
        assert_eq!(tiny().class_counts(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn new_validates_lengths() {
        let _ = Dataset::new(vec![0.0; 5], vec![2], vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_validates_labels() {
        let _ = Dataset::new(vec![0.0; 4], vec![2], vec![0, 5], 2);
    }
}
