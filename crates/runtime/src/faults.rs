//! Deterministic fault injection for the master–slave runtime.
//!
//! A [`FaultPlan`] maps worker ids to the single fault that worker will
//! exhibit. Plans are plain data: they can be built explicitly, derived
//! deterministically from a seed ([`FaultPlan::seeded`]) or parsed from
//! a compact CLI spec ([`FaultPlan::parse`]). The same plan always
//! produces the same fault *behaviour*; combined with the runtime's
//! dedup-and-redispatch recovery, the same plan therefore always
//! produces bit-identical top-k hits (alignment scores are a pure
//! function of the sequences and scoring scheme — faults can only
//! change *who* computes a score and *when*, never its value).
//!
//! Faults model the failure classes of the paper's hybrid platform:
//! worker processes dying before or during execution (with or without a
//! goodbye message), GPU boards failing mid-run, and stragglers — the
//! workers that keep answering but far slower than their declared rate
//! model.

use std::collections::BTreeMap;
use std::fmt;

/// The failure behaviour of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerFault {
    /// The worker dies before sending its registration message. The
    /// master proceeds with whoever did register.
    CrashBeforeRegistration,
    /// The worker dies when it picks up its `after_jobs`-th job
    /// (0-based: `after_jobs = 0` dies on its first job). With
    /// `notify`, a failure message reaches the master (a clean process
    /// exit); without, the worker simply vanishes and the master must
    /// detect the loss by deadline.
    Crash {
        /// Jobs completed before the crash.
        after_jobs: usize,
        /// Whether the master is told, or has to time the worker out.
        notify: bool,
    },
    /// The worker's simulated GPU device fails after `after_kernels`
    /// successful kernel launches; the worker reports the device error
    /// and exits. Ignored by CPU workers (they have no device).
    DeviceFault {
        /// Kernel launches that succeed before the device dies.
        after_kernels: u64,
    },
    /// The worker stays alive but stalls `delay_ms` of wall time before
    /// every job and reports modelled times inflated by `factor` — the
    /// mis-calibrated or contended worker of robustness §V.
    Straggler {
        /// Wall-clock sleep before each job, in milliseconds.
        delay_ms: u64,
        /// Multiplier applied to the worker's modelled task times.
        factor: f64,
    },
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFault::CrashBeforeRegistration => write!(f, "noreg"),
            WorkerFault::Crash {
                after_jobs,
                notify: true,
            } => write!(f, "crash@{after_jobs}"),
            WorkerFault::Crash {
                after_jobs,
                notify: false,
            } => write!(f, "vanish@{after_jobs}"),
            WorkerFault::DeviceFault { after_kernels } => write!(f, "device@{after_kernels}"),
            WorkerFault::Straggler { delay_ms, factor } => {
                write!(f, "straggle@{delay_ms}x{factor}")
            }
        }
    }
}

/// Which workers fail, and how. At most one fault per worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, WorkerFault>,
}

impl FaultPlan {
    /// The empty plan: every worker is healthy.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no worker has a fault.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faulted workers.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Assign `fault` to `worker_id` (builder style).
    pub fn with(mut self, worker_id: usize, fault: WorkerFault) -> FaultPlan {
        self.faults.insert(worker_id, fault);
        self
    }

    /// Assign `fault` to `worker_id`, replacing any previous one.
    pub fn insert(&mut self, worker_id: usize, fault: WorkerFault) {
        self.faults.insert(worker_id, fault);
    }

    /// The fault planned for `worker_id`, if any.
    pub fn get(&self, worker_id: usize) -> Option<WorkerFault> {
        self.faults.get(&worker_id).copied()
    }

    /// Iterate `(worker_id, fault)` pairs in worker-id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, WorkerFault)> + '_ {
        self.faults.iter().map(|(&w, &f)| (w, f))
    }

    /// Derive a plan from a seed, deterministically: the same
    /// `(seed, n_workers)` always yields the same plan. At least one
    /// worker (chosen by the seed) is guaranteed completely healthy, so
    /// a seeded plan can never kill the whole platform. With a single
    /// worker, the plan is empty.
    pub fn seeded(seed: u64, n_workers: usize) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if n_workers <= 1 {
            return plan;
        }
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let spared = next() as usize % n_workers;
        for worker_id in 0..n_workers {
            if worker_id == spared {
                continue;
            }
            let fault = match next() % 100 {
                0..=24 => Some(WorkerFault::Crash {
                    after_jobs: (next() % 3) as usize,
                    notify: true,
                }),
                25..=39 => Some(WorkerFault::Crash {
                    after_jobs: (next() % 3) as usize,
                    notify: false,
                }),
                40..=54 => Some(WorkerFault::DeviceFault {
                    after_kernels: next() % 4,
                }),
                55..=69 => Some(WorkerFault::Straggler {
                    delay_ms: 5 + next() % 30,
                    factor: 1.5 + (next() % 4) as f64,
                }),
                70..=79 => Some(WorkerFault::CrashBeforeRegistration),
                _ => None,
            };
            if let Some(fault) = fault {
                plan.insert(worker_id, fault);
            }
        }
        plan
    }

    /// Parse a compact plan spec: comma-separated `worker:fault`
    /// entries, where `fault` is one of
    ///
    /// * `noreg` — die before registering;
    /// * `crash@N` — die (with notification) when picking up the task
    ///   after completing `N`, wherever it falls in a run;
    /// * `vanish@N` — like `crash@N` but silent (timeout detection);
    /// * `device@K` — GPU device fails after `K` kernels;
    /// * `straggle@MSxF` — sleep `MS` ms per task, inflate modelled
    ///   times by factor `F`, from 1 to 1e30.
    ///
    /// Example: `"1:crash@2,2:device@0,0:straggle@50x3"`. The empty
    /// string parses to the empty plan. [`FaultPlan`]'s `Display`
    /// renders this same syntax, so plans round-trip.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (wid, fault) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{entry}` is not worker:fault"))?;
            let worker_id: usize = wid
                .parse()
                .map_err(|_| format!("bad worker id `{wid}` in `{entry}`"))?;
            let fault =
                Self::parse_fault(fault).map_err(|e| format!("bad fault in `{entry}`: {e}"))?;
            if plan.get(worker_id).is_some() {
                return Err(format!("worker {worker_id} has two faults"));
            }
            plan.insert(worker_id, fault);
        }
        Ok(plan)
    }

    fn parse_fault(text: &str) -> Result<WorkerFault, String> {
        if text == "noreg" {
            return Ok(WorkerFault::CrashBeforeRegistration);
        }
        let (kind, arg) = text
            .split_once('@')
            .ok_or_else(|| format!("`{text}` has no @argument"))?;
        match kind {
            "crash" | "vanish" => {
                let after_jobs = arg.parse().map_err(|_| format!("bad job count `{arg}`"))?;
                Ok(WorkerFault::Crash {
                    after_jobs,
                    notify: kind == "crash",
                })
            }
            "device" => {
                let after_kernels = arg
                    .parse()
                    .map_err(|_| format!("bad kernel count `{arg}`"))?;
                Ok(WorkerFault::DeviceFault { after_kernels })
            }
            "straggle" => {
                let (ms, factor) = arg
                    .split_once('x')
                    .ok_or_else(|| format!("straggle arg `{arg}` is not MSxF"))?;
                let delay_ms = ms.parse().map_err(|_| format!("bad delay `{ms}`"))?;
                let text = factor;
                let factor: f64 = text.parse().map_err(|_| format!("bad factor `{text}`"))?;
                // A factor past what a journal number may be (1e30)
                // inflates the modelled makespan past it too, or to
                // infinity, which no journal can carry.
                if !(1.0..=1e30).contains(&factor) {
                    return Err(format!(
                        "straggle factor {text} must be a finite number >= 1 and <= 1e30"
                    ));
                }
                Ok(WorkerFault::Straggler { delay_ms, factor })
            }
            other => Err(format!("unknown fault kind `{other}`")),
        }
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse(s)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (worker_id, fault) in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{worker_id}:{fault}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_roundtrip() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "");
    }

    #[test]
    fn parse_every_fault_kind() {
        let plan =
            FaultPlan::parse("0:noreg,1:crash@2,2:vanish@0,3:device@4,4:straggle@50x2.5").unwrap();
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.get(0), Some(WorkerFault::CrashBeforeRegistration));
        assert_eq!(
            plan.get(1),
            Some(WorkerFault::Crash {
                after_jobs: 2,
                notify: true
            })
        );
        assert_eq!(
            plan.get(2),
            Some(WorkerFault::Crash {
                after_jobs: 0,
                notify: false
            })
        );
        assert_eq!(
            plan.get(3),
            Some(WorkerFault::DeviceFault { after_kernels: 4 })
        );
        assert_eq!(
            plan.get(4),
            Some(WorkerFault::Straggler {
                delay_ms: 50,
                factor: 2.5
            })
        );
        assert_eq!(plan.get(5), None);
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let plan = FaultPlan::none()
            .with(
                1,
                WorkerFault::Crash {
                    after_jobs: 1,
                    notify: false,
                },
            )
            .with(
                3,
                WorkerFault::Straggler {
                    delay_ms: 20,
                    factor: 3.0,
                },
            )
            .with(0, WorkerFault::CrashBeforeRegistration);
        let text = plan.to_string();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("x:crash@1").is_err());
        assert!(FaultPlan::parse("0:crash").is_err());
        assert!(FaultPlan::parse("0:warp@3").is_err());
        assert!(FaultPlan::parse("0:straggle@10").is_err());
        assert!(FaultPlan::parse("0:straggle@10x0.5").is_err());
        assert!(FaultPlan::parse("0:crash@1,0:vanish@2").is_err());
    }

    #[test]
    fn parse_rejects_non_finite_straggle_factors() {
        for factor in [
            "inf",
            "-inf",
            "infinity",
            "NaN",
            "1e309",
            "1e308",
            "1.0000001e30",
        ] {
            let spec = format!("0:straggle@0x{factor}");
            let err = FaultPlan::parse(&spec).unwrap_err();
            assert!(
                err.contains("must be a finite number >= 1"),
                "{spec}: {err}"
            );
        }
        assert!(FaultPlan::parse("0:straggle@0x1e30").is_ok());
    }

    #[test]
    fn seeded_is_deterministic_and_spares_a_worker() {
        for seed in 0..50u64 {
            let n = 2 + (seed as usize % 4);
            let a = FaultPlan::seeded(seed, n);
            let b = FaultPlan::seeded(seed, n);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(a.len() < n, "seed {seed} faulted every worker");
        }
    }

    #[test]
    fn seeded_single_worker_is_healthy() {
        assert!(FaultPlan::seeded(42, 1).is_empty());
        assert!(FaultPlan::seeded(42, 0).is_empty());
    }

    #[test]
    fn seeds_vary_the_plan() {
        // Not all seeds may differ, but across a handful at least two
        // distinct plans must appear.
        let plans: Vec<String> = (0..10)
            .map(|s| FaultPlan::seeded(s, 4).to_string())
            .collect();
        assert!(plans.iter().any(|p| p != &plans[0]));
    }
}
