//! Machine-learning substrate for the AGSFL paper reproduction.
//!
//! The adaptive gradient-sparsification algorithms of the paper operate on a
//! *flat* gradient vector of dimension `D`; they are agnostic to where that
//! gradient comes from. This crate provides everything needed to produce such
//! gradients and evaluate the resulting models:
//!
//! * [`model`] — the two neural-network models, [`model::Mlp`] (with no
//!   hidden layer, multinomial logistic regression) and [`model::SimpleCnn`],
//!   which store their parameters in a single flat `Vec<f32>` so the
//!   sparsification layer can treat the model as an opaque `D`-dimensional
//!   vector, exactly as the paper does,
//! * [`loss`] — cross-entropy loss over mini-batches,
//! * [`optim`] — plain SGD on flat parameter vectors (Eq. (1) of the paper),
//! * [`data`] — synthetic federated datasets reproducing the *structure* of
//!   FEMNIST (per-writer non-i.i.d. shards) and the one-class-per-client
//!   CIFAR-10 partition used in the paper's evaluation, plus generic
//!   partitioners and a mini-batch sampler,
//! * [`metrics`] — accuracy and loss evaluation helpers, both serial and
//!   executor-sharded (bit-identical) parallel sweeps,
//! * [`mod@reference`] — the seed scalar-loop CNN kernels kept as the executable
//!   specification for the CNN fast path.
//!
//! # Example
//!
//! ```
//! use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
//! use agsfl_ml::model::{Mlp, Model};
//! use agsfl_ml::optim::sgd_step;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let fed = SyntheticFemnist::new(SyntheticFemnistConfig {
//!     num_clients: 4,
//!     samples_per_client: 16,
//!     ..Default::default()
//! })
//! .generate(&mut rng);
//!
//! // Multinomial logistic regression: an MLP without a hidden layer.
//! let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
//! let mut params = model.init_params(&mut rng);
//! let shard = fed.client(0);
//! let (loss, grad) = model.loss_and_grad(&params, &shard.features, &shard.labels);
//! assert!(loss > 0.0);
//! sgd_step(&mut params, &grad, 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod reference;

pub use data::{ClientShard, FederatedDataset};
pub use model::Model;
