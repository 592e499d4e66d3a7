//! Task-time estimation for the allocator.
//!
//! The master must predict each task's processing time on both worker
//! species before any task has run (the paper's master does the same:
//! the dual approximation consumes `pⱼ` and `p̄ⱼ`, not measurements).
//! Estimates use a saturating-rate model; the defaults below describe
//! the paper's machine (SWIPE-class CPU worker, Tesla C2050-class GPU
//! worker), fitted to its Table II as `swdual_bench::paper` documents.
//! The paper's tables (`swdual_bench::tables`) are recomputed on these
//! same curves.

use serde::{Deserialize, Serialize};
use swdual_gpusim::{DeviceClass, DeviceSpec};

/// Conservative cold-host prior of an optimised build: 10 MCUPS (cells
/// per second). Until a search's first answer shows the host's own wall
/// rate, the master prices every silent-death deadline at this rate, so
/// no host is declared dead before it could plausibly have answered;
/// the first answer replaces it.
pub const COLD_HOST_CELLS_PER_SEC: f64 = 1.0e7;

/// How many times slower an unoptimised build's kernels may run than the
/// optimised prior promises. The lane-array backend unoptimised scores
/// 2–5 MCUPS alone on the 2-vCPU reference host, and less when the test
/// suite runs beside it; 0.5 MCUPS leaves it a margin.
const UNOPTIMISED_SLOWDOWN: f64 = 20.0;

/// The cold-host rate this build can promise: [`COLD_HOST_CELLS_PER_SEC`]
/// when optimised, [`UNOPTIMISED_SLOWDOWN`] times less when built with
/// debug assertions (an unoptimised build).
pub(crate) fn cold_host_cells_per_sec() -> f64 {
    if cfg!(debug_assertions) {
        COLD_HOST_CELLS_PER_SEC / UNOPTIMISED_SLOWDOWN
    } else {
        COLD_HOST_CELLS_PER_SEC
    }
}

/// Throughput model of one worker species.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerRateModel {
    /// Peak sustained GCUPS for long queries.
    pub peak_gcups: f64,
    /// Query length reaching half of peak.
    pub half_length: f64,
    /// Fixed per-task overhead in seconds (dispatch + merge).
    pub per_task_overhead: f64,
}

impl WorkerRateModel {
    /// SWIPE-class CPU worker (one core), from the Table II calibration.
    pub fn cpu_swipe() -> WorkerRateModel {
        WorkerRateModel {
            peak_gcups: 8.38,
            half_length: 25.0,
            per_task_overhead: 1.8,
        }
    }

    /// CUDASW++-class GPU worker (one Tesla C2050), from the Table II
    /// calibration.
    pub fn gpu_tesla() -> WorkerRateModel {
        WorkerRateModel {
            peak_gcups: 32.9,
            half_length: 280.0,
            per_task_overhead: 1.8,
        }
    }

    /// End-to-end rate model for a zoo device class (see
    /// `swdual_gpusim::DeviceClass::estimator_curve`). For
    /// [`DeviceClass::C2050`] this is exactly [`WorkerRateModel::gpu_tesla`].
    pub fn for_class(class: DeviceClass) -> WorkerRateModel {
        let (peak_gcups, half_length, per_task_overhead) = class.estimator_curve();
        WorkerRateModel {
            peak_gcups,
            half_length,
            per_task_overhead,
        }
    }

    /// Rate model for an arbitrary device spec: a recognised zoo spec
    /// uses its class calibration; a custom spec derives an end-to-end
    /// curve from its kernel fields (kernel peak scaled by the C2050's
    /// end-to-end/kernel ratio, same saturation shape, default
    /// overhead).
    pub fn for_device(spec: &DeviceSpec) -> WorkerRateModel {
        match DeviceClass::of_spec(spec) {
            Some(class) => WorkerRateModel::for_class(class),
            None => WorkerRateModel {
                peak_gcups: spec.peak_gcups * (32.9 / 27.5),
                half_length: spec.query_half_length,
                per_task_overhead: 1.8,
            },
        }
    }

    /// Sustained GCUPS for a query of `len` residues.
    pub fn rate_gcups(&self, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        self.peak_gcups * len as f64 / (len as f64 + self.half_length)
    }

    /// Estimated seconds for a task of `query_len` against
    /// `db_residues`.
    pub fn task_seconds(&self, query_len: usize, db_residues: u64) -> f64 {
        if query_len == 0 {
            return self.per_task_overhead.max(1e-9);
        }
        let cells = query_len as f64 * db_residues as f64;
        self.per_task_overhead + cells / (self.rate_gcups(query_len) * 1e9)
    }
}

/// How far the master stretches what a worker's obligation takes at its
/// observed wall rate before declaring it dead.
pub const JOB_TIMEOUT_SLACK: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unoptimised_build_promises_a_slower_cold_host() {
        let promised = cold_host_cells_per_sec();
        assert!(promised <= COLD_HOST_CELLS_PER_SEC);
        if cfg!(debug_assertions) {
            assert!(promised <= 5.0e5, "{promised}");
        } else {
            assert_eq!(promised, COLD_HOST_CELLS_PER_SEC);
        }
    }

    #[test]
    fn gpu_is_faster_on_long_queries() {
        let cpu = WorkerRateModel::cpu_swipe();
        let gpu = WorkerRateModel::gpu_tesla();
        let db = 10_000_000u64;
        assert!(gpu.task_seconds(5000, db) < cpu.task_seconds(5000, db));
        // Acceleration grows with query length.
        let accel_short = cpu.task_seconds(100, db) / gpu.task_seconds(100, db);
        let accel_long = cpu.task_seconds(5000, db) / gpu.task_seconds(5000, db);
        assert!(accel_long > accel_short);
    }

    #[test]
    fn c2050_class_model_is_the_tesla_calibration() {
        assert_eq!(
            WorkerRateModel::for_class(DeviceClass::C2050),
            WorkerRateModel::gpu_tesla()
        );
        assert_eq!(
            WorkerRateModel::for_device(&DeviceSpec::tesla_c2050()),
            WorkerRateModel::gpu_tesla()
        );
    }

    #[test]
    fn zoo_models_keep_their_class_shapes() {
        let db = 10_000_000u64;
        let cpu = WorkerRateModel::cpu_swipe();
        for class in DeviceClass::ALL {
            let m = WorkerRateModel::for_class(class);
            // Every zoo member beats the single-core CPU on long queries.
            assert!(
                m.task_seconds(5000, db) < cpu.task_seconds(5000, db),
                "{} should beat the CPU on long queries",
                class.name()
            );
        }
        // The near-flat classes reach most of peak at short lengths
        // where the C2050 is still ramping.
        let c2050 = WorkerRateModel::for_class(DeviceClass::C2050);
        let knl = WorkerRateModel::for_class(DeviceClass::Knl);
        let bioseal = WorkerRateModel::for_class(DeviceClass::Bioseal);
        assert!(knl.rate_gcups(64) / knl.peak_gcups > 0.6);
        assert!(bioseal.rate_gcups(64) / bioseal.peak_gcups > 0.85);
        assert!(c2050.rate_gcups(64) / c2050.peak_gcups < 0.25);
    }

    #[test]
    fn custom_spec_model_derives_from_kernel_fields() {
        let toy = DeviceSpec::toy(1 << 20);
        let m = WorkerRateModel::for_device(&toy);
        assert!((m.peak_gcups - toy.peak_gcups * (32.9 / 27.5)).abs() < 1e-12);
        assert_eq!(m.half_length, toy.query_half_length);
    }

    #[test]
    fn zero_length_task_is_overhead_only() {
        let cpu = WorkerRateModel::cpu_swipe();
        assert!((cpu.task_seconds(0, 1_000_000) - cpu.per_task_overhead).abs() < 1e-12);
        assert_eq!(cpu.rate_gcups(0), 0.0);
    }
}
