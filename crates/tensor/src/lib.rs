//! Row-major `f32` tensors and the numeric kernels used by every other
//! FedMigr substrate.
//!
//! The tensor type here is deliberately small: dense row-major storage, a
//! dynamic shape, and exactly the operations the neural-network substrate
//! needs (elementwise arithmetic, 2-D matrix multiply, reductions, stable
//! softmax). There is no autograd at this level — gradients are computed by
//! the layers in `fedmigr-nn`, which own both the forward caches and the
//! backward kernels.
//!
//! # Example
//!
//! ```
//! use fedmigr_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
//! let b = Tensor::ones(&[3, 2]);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data()[0], 6.0);
//! ```

mod init;
pub mod kcount;
mod norms;
mod ops;
mod stats;
mod tensor;

pub use init::{he_std, xavier_std};
pub use norms::{all_finite, l2_distance_slice, l2_norm_slice, pairwise_sq_distances};
pub use ops::Gather;
pub use stats::{argmax_slice, log_softmax_rows, softmax_rows};
pub use tensor::Tensor;
