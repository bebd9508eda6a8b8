//! Gradient filters (robust aggregation rules) for Byzantine fault-tolerant
//! distributed gradient descent.
//!
//! A *gradient filter* (Section 4 of the paper) maps the `n` gradients the
//! server receives — up to `f` of which may be arbitrary — to a single
//! descent direction. This crate implements:
//!
//! * the paper's two analyzed filters, **CGE** ([`Cge`], eq. 23) and
//!   **CWTM** ([`Cwtm`], eq. 24);
//! * the non-robust baseline, plain averaging ([`Mean`]);
//! * the related-work baselines the paper cites: coordinate-wise median,
//!   geometric median (Weiszfeld), geometric median-of-means, Krum,
//!   Multi-Krum, Bulyan, FABA, centered clipping, norm clipping, and
//!   sign-majority vote.
//!
//! All filters implement [`GradientFilter`] and are registered by name in
//! [`registry`] for the experiment grid.
//!
//! Aggregation is serial by default; attach an
//! [`abft_linalg::WorkerPool`] to the round's batch
//! ([`GradientBatch::set_worker_pool`](abft_linalg::GradientBatch::set_worker_pool))
//! and every filter shards its kernels — per-coordinate filters over
//! column tiles, distance-based filters over score rows — with output
//! **bit-identical** to serial at any thread count (fixed tile schedule,
//! fixed reduction order; pinned by the registry-wide
//! `parallel_equivalence` test).
//!
//! # Example
//!
//! ```
//! use abft_filters::{batch_of, Cge, GradientFilter};
//! use abft_linalg::Vector;
//!
//! # fn main() -> Result<(), abft_filters::FilterError> {
//! let honest = vec![
//!     Vector::from(vec![1.0, 0.0]),
//!     Vector::from(vec![0.9, 0.1]),
//!     Vector::from(vec![1.1, -0.1]),
//! ];
//! let mut received = honest.clone();
//! received.push(Vector::from(vec![-100.0, 100.0])); // Byzantine
//!
//! // One row per agent; the filter writes into a reusable output vector.
//! let batch = batch_of(&received)?;
//! let mut out = Vector::zeros(batch.dim());
//! Cge::new().aggregate_into(&batch, 1, &mut out)?;
//! // The huge faulty gradient is eliminated: CGE sums the 3 smallest norms.
//! assert!((out[0] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// The aggregation path must not panic on adversarial input: clippy rejects
// every panicking call outside tests, and `abft-lint`'s `panic-reach` adds
// the asserts and indexing a hot-path root reaches in any crate.
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

pub mod bulyan;
pub mod cge;
pub mod clipping;
pub mod cwtm;
pub mod error;
pub mod faba;
pub mod geomed;
pub mod krum;
pub mod mean;
pub(crate) mod par;
pub mod registry;
pub mod sign;
pub mod traits;

pub use bulyan::Bulyan;
pub use cge::Cge;
pub use clipping::{CenteredClipping, NormClipping};
pub use cwtm::{CoordinateWiseMedian, Cwtm};
pub use error::FilterError;
pub use faba::Faba;
pub use geomed::{GeometricMedian, GeometricMedianOfMeans};
pub use krum::{Krum, MultiKrum};
pub use mean::Mean;
pub use registry::{all_filters, by_name, filter_names};
pub use sign::SignMajority;
pub use traits::{batch_of, GradientFilter};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::error::FilterError;
    pub use crate::registry::{all_filters, by_name, filter_names};
    pub use crate::traits::GradientFilter;
    pub use crate::{Cge, CoordinateWiseMedian, Cwtm, GeometricMedian, Krum, Mean};
}
