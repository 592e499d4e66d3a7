//! Workspace root crate for the SWDUAL reproduction.
//!
//! This crate exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`. The actual library
//! surface lives in the `swdual-core` crate (re-exported here for
//! convenience).

pub use swdual_align as align;
pub use swdual_bio as bio;
pub use swdual_core as core;
pub use swdual_datagen as datagen;
pub use swdual_gpusim as gpusim;
pub use swdual_runtime as runtime;
pub use swdual_sched as sched;
