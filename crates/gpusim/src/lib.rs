//! # swdual-gpusim — a SIMT GPU device simulator
//!
//! The paper executes its GPU tasks with CUDASW++ 2.0 on Nvidia Tesla
//! C2050 boards. This environment has no CUDA devices, so the
//! reproduction substitutes a *device simulator* that preserves the two
//! properties the SWDUAL scheduler actually consumes:
//!
//! 1. **Correct results** — the simulated kernel really computes
//!    Smith-Waterman scores (via the `swdual-align` kernels), so the
//!    whole pipeline remains end-to-end verifiable.
//! 2. **Faithful timing structure** — task processing times on the
//!    device come from a calibrated performance model with the same
//!    shape as the real hardware: throughput that saturates with query
//!    length, warp-granular padding waste on unsorted batches, kernel
//!    launch latency, and PCIe transfer costs. These are exactly the
//!    effects that make `p̄ⱼ` differ across tasks and hence give the
//!    dual-approximation knapsack something to optimise.
//!
//! Module map:
//! * [`spec`] — device descriptions ([`spec::DeviceSpec::tesla_c2050`]
//!   is calibrated against the paper's own Table II/IV numbers).
//! * [`memory`] — global-memory allocation tracking and transfer
//!   timing.
//! * [`device`] — the simulated device: upload databases, launch
//!   batched SW kernels, read the virtual clock and counters.

#![forbid(unsafe_code)]

pub mod chunked;
pub mod device;
pub mod memory;
pub mod spec;

pub use device::{DeviceEvent, DeviceFault, DeviceStats, GpuDevice, KernelResult};
pub use spec::{DeviceClass, DeviceSpec};
