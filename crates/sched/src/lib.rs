//! # swdual-sched — the SWDUAL dual-approximation scheduler
//!
//! This crate is the paper's primary algorithmic contribution (§III): an
//! allocator that decides which tasks run on GPUs and which on CPUs so
//! that the global completion time (makespan) is minimised, using the
//! *dual approximation* technique of Hochbaum & Shmoys \[15\].
//!
//! * [`task`] — the task model: every task `Tⱼ` has two processing
//!   times, `pⱼ` on a CPU and `p̄ⱼ` on a GPU.
//! * [`platform`] — how many CPUs (`m`) and GPUs (`k`) exist.
//! * [`schedule`] — assignments, schedules, Gantt charts, validity, and
//!   replaying a schedule under actual task times.
//! * [`knapsack`] — the greedy minimisation knapsack (Eqs. 5–7) that
//!   fills the GPUs with the best-accelerated tasks, and the dynamic
//!   programming variant used by the 3/2-approximation.
//! * [`dual`] — one dual-approximation step: given a guess `λ`, either
//!   build a schedule of makespan ≤ 2λ (Proposition 1) or answer NO.
//! * [`binsearch`] — the binary search over `λ` (§III, *Binary Search*).
//! * [`policies`] — the baseline allocation strategies the paper
//!   compares against: self-scheduling \[10\], equal-power \[11\],
//!   proportional-power \[12\], plus LPT and a HEFT-flavoured insertion
//!   heuristic.
//! * [`split`] — the divisible tail: after the static plan, cut the
//!   critical element's largest task along its divisible part when the
//!   rate models say the planned makespan strictly falls.
//! * [`plan`](mod@plan) — the one planning function a search calls, for its first
//!   plan and for every re-plan of its remainder: the species split by
//!   the binary search, list scheduling from each element's load at its
//!   factor, and the divisible tail.
//! * [`metrics`] — makespan, idle time, utilisation, lower bounds.
//!
//! Everything here is pure scheduling: processing times in, schedule
//! out. `swdual_runtime::estimator` maps sequence-comparison tasks onto
//! processing times; the `swdual-runtime` crate executes schedules with
//! real threads.

#![forbid(unsafe_code)]

pub mod binsearch;
pub mod dual;
pub mod exact;
pub mod knapsack;
pub mod metrics;
pub mod plan;
pub mod platform;
pub mod policies;
pub mod schedule;
pub mod split;
pub mod task;

pub use binsearch::{dual_approx_schedule, BinarySearchConfig, BinarySearchOutcome};
pub use dual::{dual_step, dual_step_observed, DualStepResult, KnapsackMethod};
pub use plan::{plan, Decision, Pool};
pub use platform::PlatformSpec;
pub use schedule::{Assignment, PeId, PeKind, PeState, Schedule};
pub use split::{split_tail, Part, SliceOverhead, SplitPlan};
pub use task::{Task, TaskSet};
