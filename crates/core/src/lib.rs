//! # swdual-core — SWDUAL: hybrid CPU+GPU Smith-Waterman database search
//!
//! The public façade of the reproduction of *"Fast Biological Sequence
//! Comparison on Hybrid Platforms"* (Kedad-Sidhoum, Mendonça, Monna,
//! Mounié, Trystram — ICPP 2014). It ties the substrate crates into the
//! system the paper describes:
//!
//! * sequence handling and formats — re-exported from [`swdual_bio`],
//! * alignment kernels — re-exported from [`swdual_align`],
//! * the dual-approximation scheduler — re-exported from
//!   [`swdual_sched`],
//! * the master-slave runtime with CPU workers and simulated GPU
//!   workers — re-exported from [`swdual_runtime`],
//! * synthetic workload generation — re-exported from
//!   [`swdual_datagen`].
//!
//! ## Quickstart
//!
//! ```
//! use swdual_core::prelude::*;
//!
//! // A small synthetic database and two queries derived from it.
//! let database = swdual_core::datagen::synthetic_database(
//!     "demo", 64, swdual_core::datagen::LengthModel::Fixed(120), 7);
//! let queries = swdual_core::datagen::queries_from_database(
//!     &database, 2, 1, usize::MAX,
//!     &swdual_core::datagen::MutationProfile::homolog(), 8);
//!
//! let report = SearchBuilder::new()
//!     .database(database)
//!     .expect("generated ids fit the database image")
//!     .queries(queries)
//!     .workers(vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()])
//!     .top_k(5)
//!     .run();
//!
//! assert_eq!(report.hits().len(), 2);
//! assert!(report.modelled_gcups() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod live;
pub mod progress;
pub mod report;
pub mod whatif;

/// Re-export: alignment kernels.
pub use swdual_align as align;
/// Re-export: sequence substrate.
pub use swdual_bio as bio;
/// Re-export: workload generators.
pub use swdual_datagen as datagen;
/// Re-export: GPU device simulator.
pub use swdual_gpusim as gpusim;
/// Re-export: structured event recording and exporters.
pub use swdual_obs as obs;
/// Re-export: master-slave runtime.
pub use swdual_runtime as runtime;
/// Re-export: the dual-approximation scheduler.
pub use swdual_sched as sched;

pub use engine::SearchBuilder;
pub use live::{Follower, Sinks};
pub use report::SearchReport;

/// The common imports of a SWDUAL application.
pub mod prelude {
    pub use crate::engine::SearchBuilder;
    pub use crate::report::SearchReport;
    pub use swdual_bio::{Alphabet, Matrix, ScoringScheme, Sequence, SequenceSet};
    pub use swdual_obs::{Obs, Track};
    pub use swdual_runtime::{AllocationPolicy, RuntimeConfig, WorkerSpec};
    pub use swdual_sched::{PlatformSpec, TaskSet};
}
