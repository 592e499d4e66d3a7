//! Platform description: `m` CPUs and `k` GPUs.

use serde::{Deserialize, Serialize};

/// The hybrid platform the scheduler targets (paper §III: set `C` of
/// CPUs, set `G` of GPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of CPU workers (`m`).
    pub cpus: usize,
    /// Number of GPU workers (`k`).
    pub gpus: usize,
}

impl PlatformSpec {
    /// Construct a platform with `m` CPUs and `k` GPUs.
    pub fn new(cpus: usize, gpus: usize) -> PlatformSpec {
        PlatformSpec { cpus, gpus }
    }

    /// Total number of processing elements.
    pub fn total(&self) -> usize {
        self.cpus + self.gpus
    }

    /// The worker mix SWDUAL used for `w` total workers in the paper's
    /// §V-A: GPUs are filled first ("the first four workers used on the
    /// SWDUAL execution were GPUs and the last four workers were CPUs"),
    /// and at least one CPU and one GPU are always present ("our
    /// implementation needs at least one CPU and one GPU to execute", so
    /// 3 workers = 2 GPUs + 1 CPU, 4 workers = 3 GPUs + 1 CPU).
    ///
    /// `max_gpus` caps the GPU side (4 in §V-A, 8 in §V-B).
    pub fn swdual_mix(workers: usize, max_gpus: usize) -> PlatformSpec {
        assert!(workers >= 2, "SWDUAL needs at least one CPU and one GPU");
        let gpus = (workers - 1).min(max_gpus);
        PlatformSpec {
            cpus: workers - gpus,
            gpus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        assert_eq!(PlatformSpec::new(4, 2).total(), 6);
        assert_eq!(PlatformSpec::new(8, 8).total(), 16);
    }

    #[test]
    fn swdual_mix_matches_paper_description() {
        // §V-A with up to 4 GPUs: 2 -> 1+1, 3 -> 2 GPUs + 1 CPU,
        // 4 -> 3 GPUs + 1 CPU, 8 -> 4 GPUs + 4 CPUs.
        assert_eq!(PlatformSpec::swdual_mix(2, 4), PlatformSpec::new(1, 1));
        assert_eq!(PlatformSpec::swdual_mix(3, 4), PlatformSpec::new(1, 2));
        assert_eq!(PlatformSpec::swdual_mix(4, 4), PlatformSpec::new(1, 3));
        assert_eq!(PlatformSpec::swdual_mix(5, 4), PlatformSpec::new(1, 4));
        assert_eq!(PlatformSpec::swdual_mix(6, 4), PlatformSpec::new(2, 4));
        assert_eq!(PlatformSpec::swdual_mix(8, 4), PlatformSpec::new(4, 4));
        // §V-B with up to 8 GPUs: 8 workers -> 7 GPUs + 1 CPU.
        assert_eq!(PlatformSpec::swdual_mix(8, 8), PlatformSpec::new(1, 7));
    }

    #[test]
    #[should_panic]
    fn swdual_mix_rejects_single_worker() {
        let _ = PlatformSpec::swdual_mix(1, 4);
    }
}
