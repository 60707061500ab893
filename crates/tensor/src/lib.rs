//! Dense `f32` math substrate for the AGSFL federated-learning simulator.
//!
//! The crates higher in the stack (`agsfl-ml`, `agsfl-fl`, …) need a few
//! dense products, a fused convolution and a cross-entropy, and nothing of
//! a general matrix library:
//!
//! * a row-major [`Matrix`] — the container for weights, activation batches
//!   and gradients, with the in-place element-wise updates the layers use
//!   and a reusable-buffer product ([`Matrix::matmul_into`]),
//! * the five matrix products the models need, over borrowed
//!   [`MatrixView`]s ([`product`]) — register-tiled kernels ([`dispatch`]
//!   picks their vector width from the CPU's features) that keep a
//!   documented per-element fold order bit for bit, with the scalar
//!   statement of that order in [`mod@reference`],
//! * the CNN's convolution layer as one fused kernel — 3x3 convolution,
//!   bias, ReLU and 2x2 average pooling in a single pass — and its
//!   backward as another, the weight and bias gradients in a single pass
//!   ([`conv`]), dispatched like the products and bit-identical to the
//!   im2col lowering they replaced,
//! * AXPY and arg-max over flat `f32` slices ([`vecops`]), for the SGD step
//!   and the accuracy count,
//! * deterministic random initialisation ([`init`]) for model weights and
//!   synthetic datasets,
//! * a numerically stable cross-entropy with logits and the ReLU
//!   ([`ops`]),
//! * an empirical CDF ([`stats`]) for the contribution distribution the
//!   experiment harness reports.
//!
//! There is no BLAS dependency, and outside the one [`dispatch`] module
//! (which wraps `core::arch` vector loads, stores, multiplies and adds)
//! everything is plain safe Rust, so the whole paper reproduction runs
//! offline on any machine.
//!
//! # Example
//!
//! ```
//! use agsfl_tensor::{vecops, Matrix};
//!
//! let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
//! let mut c = Matrix::default();
//! a.matmul_into(&b, &mut c);
//! assert_eq!(c.as_slice(), a.as_slice());
//! assert_eq!(vecops::argmax(c.row(1)), Some(1));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod matrix;

pub mod conv;
pub mod dispatch;
pub mod init;
pub mod ops;
pub mod product;
pub mod reference;
pub mod stats;
pub mod vecops;

pub use conv::{ConvLayer, ConvScratch, ConvShape};
pub use matrix::Matrix;
pub use product::{MatrixView, Product, Store};
