//! # swdual-runtime — the master-slave execution engine
//!
//! Implements the paper's Figure 6 with real OS threads: a **master**
//! that loads the sequences, builds the task list (one task = one query
//! against the whole database — or against a slice of it, when the
//! plan's divisible-tail pass cuts the critical task, see [`master`]),
//! allocates tasks to workers through a
//! pluggable policy, and merges results; and **workers** (slaves) that
//! register, receive tasks, execute them with their engine and stream
//! results back.
//!
//! Two worker species exist, matching the paper's platform:
//! * CPU workers run a `swdual-align` kernel (SWIPE-style by default)
//!   directly on their thread;
//! * GPU workers drive a `swdual-gpusim` device: results are computed
//!   exactly, and the device's *virtual clock* records what the kernel
//!   would have cost on the real board.
//!
//! Allocation policies: the SWDUAL **one-round dual-approximation**
//! (static schedule computed upfront from modelled task times, then
//! dispatched per worker) and dynamic **self-scheduling** (an idle
//! worker takes the next tasks from a pool the master holds — the
//! baseline the paper contrasts with).
//!
//! Timing is reported on two clocks: the real wall clock of this
//! process, and the *modelled* clock in which GPU workers run at Tesla
//! speed. The modelled clock is what corresponds to the paper's tables;
//! the wall clock is what proves the machinery actually works.

#![forbid(unsafe_code)]

//!
//! Faults are first-class: a [`FaultPlan`] injects deterministic worker
//! crashes, GPU device failures and straggler slowdowns; the master
//! detects deaths (explicitly or by deadline), re-plans what the dead
//! worker held — together with everything still queued — on the
//! survivors and, because alignment scores are a pure function of the
//! inputs, returns hits bit-identical to a fault-free run, or a typed
//! [`SearchError`]. See [`faults`] and [`master::try_run_search`].
//!
//! Online re-optimization ([`ReoptConfig`]) is the same re-plan pulled
//! by a different trigger: observed per-task modelled/estimate ratios
//! give each worker a species-relative slowdown factor, and when one
//! outgrows the plan it is executing, the still-queued remainder is
//! re-planned on the re-calibrated platform (`swdual-sched`'s weighted
//! remainder scheduler). Off by default; disabled runs reproduce the
//! static one-round planner bit for bit.
//!
//! The master is a **pure core** plus a **thin shell** (see [`master`]).
//! The core is a state machine — `step(input, now) -> actions` over
//! completions, death notices, failed sends and clock ticks — that owns
//! all run state and touches no thread, channel or clock; the shell
//! spawns the workers and moves messages between them and the core.
//! Workers are split the same way ([`worker`]). The deterministic
//! simulator (`src/master/core/sim.rs`, run by `cargo test`) drives the
//! master core and the real worker cores: it replays thousands of seeded
//! interleavings on a virtual clock and checks the invariants each step.

pub mod claims;
pub mod estimator;
pub mod faults;
pub mod master;
pub mod messages;
pub mod worker;

pub use estimator::{WorkerRateModel, COLD_HOST_CELLS_PER_SEC};
pub use faults::{FaultPlan, WorkerFault};
pub use master::{
    run_search, try_run_search, AllocationPolicy, ReoptConfig, RuntimeConfig, SearchError,
    SearchOutcome,
};
pub use messages::{FailureReason, Hit, QueryHits, WorkerFailure, WorkerMsg, WorkerStats};
pub use worker::{WorkerKind, WorkerSpec};
