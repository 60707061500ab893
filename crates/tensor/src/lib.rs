//! Dense `f32` math substrate for the AGSFL federated-learning simulator.
//!
//! The crates higher in the stack (`agsfl-ml`, `agsfl-fl`, …) only need a
//! small, predictable set of dense linear-algebra primitives:
//!
//! * a row-major [`Matrix`] with matrix multiplication, transposition and
//!   element-wise arithmetic,
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
//! * free functions over flat `f32` slices ([`vecops`]) — dot products, AXPY,
//!   scaling, arg-max — used for flattened model parameter/gradient vectors,
//! * deterministic random initialisation ([`init`]) for model weights and
//!   synthetic datasets,
//! * numerically careful reductions ([`ops`]) such as soft-max and log-sum-exp,
//! * small statistics helpers ([`stats`]) used by the experiment harness
//!   (empirical CDFs, running means).
//!
//! There is no BLAS dependency, and outside the one [`dispatch`] module
//! (which wraps `core::arch` vector loads, stores, multiplies and adds)
//! everything is plain safe Rust, so the whole paper reproduction runs
//! offline on any machine.
//!
//! # Example
//!
//! ```
//! use agsfl_tensor::{Matrix, vecops};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! assert_eq!(vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
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
pub use error::ShapeError;
pub use matrix::Matrix;
pub use product::{MatrixView, Product, Store};
