//! From-scratch neural-network substrate for the FedMigr reproduction.
//!
//! The paper trains CNNs with PyTorch; Rust has no comparable deep-learning
//! stack, so this crate implements the required pieces directly on
//! [`fedmigr_tensor::Tensor`]:
//!
//! * a [`Layer`] trait where `forward` caches activations and `backward`
//!   produces parameter and input gradients (no general autograd — each
//!   layer owns its backward kernel),
//! * dense, convolution, pooling, activation and residual layers over NHWC
//!   activations (a [`Model`] takes NCHW batches and permutes them once),
//! * a [`Sequential`] container and a [`Model`] wrapper with the softmax
//!   cross-entropy training step used by every FL client,
//! * an [`Sgd`] optimizer with weight decay and the FedProx
//!   proximal-term hook,
//! * parameter flattening ([`params`]) — the representation that is
//!   aggregated (Eq. 7 of the paper) and *migrated* between clients,
//! * the paper's model zoo ([`zoo`]): C10-CNN, C100-CNN, a genuine residual
//!   network standing in for ResNet-152, and an AlexNet-lite for Fig. 3.
//!
//! # Example
//!
//! ```
//! use fedmigr_nn::{zoo, Sgd};
//! use fedmigr_tensor::Tensor;
//!
//! let mut model = zoo::mlp(8, &[16], 3, 0);
//! let mut opt = Sgd::new(0.1);
//! let x = Tensor::ones(&[4, 8]);
//! let labels = [0usize, 1, 2, 0];
//! let before = model.loss(&x, &labels);
//! for _ in 0..20 {
//!     model.train_step(&x, &labels, &mut opt);
//! }
//! assert!(model.loss(&x, &labels) < before);
//! ```

mod activations;
mod conv;
mod dense;
mod layer;
mod loss;
mod model;
mod optim;
pub mod params;
mod pool;
#[cfg(test)]
mod reference;
mod residual;
mod sequential;
pub mod zoo;

pub use activations::{Flatten, Relu};
pub use conv::Conv2d;
pub use dense::Dense;
pub use layer::Layer;
pub use loss::{accuracy, softmax_cross_entropy};
pub use model::Model;
pub use optim::Sgd;
pub use pool::MaxPool2d;
pub use residual::ResidualBlock;
pub use sequential::Sequential;
