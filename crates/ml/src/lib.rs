//! Machine-learning substrate for the Appendix-K experiments.
//!
//! The paper trains LeNet on MNIST / Fashion-MNIST with distributed SGD
//! (D-SGD), `n = 10` agents, `f = 3` faulty, under label-flip and
//! gradient-reverse faults. Neither dataset nor a GPU is available offline,
//! so this crate substitutes synthetic data and a small MLP, which keep what
//! the filters see — non-convex, stochastic, softmax-loss gradients:
//!
//! * [`dataset`] — deterministic synthetic 10-class image generators:
//!   `synthetic_mnist` (well-separated class prototypes — easy, like MNIST)
//!   and `synthetic_fashion` (correlated prototypes + more noise — harder,
//!   like Fashion-MNIST);
//! * [`net`] — a from-scratch MLP with reverse-mode backprop (dense layers,
//!   ReLU, softmax cross-entropy) exposing a *flat* parameter/gradient
//!   vector so gradient filters can aggregate;
//! * [`svm`] — a linear multiclass SVM (hinge loss), the other model family
//!   Appendix K mentions;
//! * [`dsgd`] — the Byzantine-robust D-SGD loop: per-agent mini-batch
//!   gradients, fault injection (label-flip at the data level,
//!   gradient-reverse at the report level), filter aggregation, and
//!   accuracy/loss tracking.
//!
//! # Example
//!
//! ```
//! use abft_ml::dataset::DatasetSpec;
//!
//! let (train, test) = DatasetSpec::tiny().generate(7);
//! assert_eq!(train.classes(), 10);
//! assert!(train.len() > 0 && test.len() > 0);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod dataset;
pub mod dsgd;
pub mod error;
pub mod net;
pub mod svm;

pub use dataset::{Dataset, DatasetSpec};
pub use dsgd::{
    train_distributed, train_distributed_observed, DsgdConfig, DsgdFaults, DsgdOutcome, DsgdRecord,
    MlFault, Model,
};
pub use error::MlError;
pub use net::Mlp;
pub use svm::LinearSvm;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::dataset::{Dataset, DatasetSpec};
    pub use crate::dsgd::{
        train_distributed, train_distributed_observed, DsgdConfig, DsgdFaults, DsgdOutcome,
        DsgdRecord, MlFault, Model,
    };
    pub use crate::error::MlError;
    pub use crate::net::Mlp;
    pub use crate::svm::LinearSvm;
}
