//! Property tests for the run differ.
//!
//! Two invariants `obs::diff` promises:
//!
//! 1. **Identity**: diffing any journal against itself is all-NEUTRAL
//!    with every delta exactly zero — the gate can never fire on a
//!    no-op change.
//! 2. **Antisymmetry**: swapping base and head negates every signed
//!    delta and swaps IMPROVED with REGRESSED, so "A regressed vs B"
//!    and "B improved vs A" are the same statement.

use proptest::prelude::*;
use swdual_obs::diff::{diff_models, DiffClass, DiffOptions, DiffReport};
use swdual_obs::{EventBody, Obs, RunModel, Track};

fn diff_obs(base: &Obs, head: &Obs, opts: &DiffOptions) -> DiffReport {
    diff_models(&RunModel::from_obs(base), &RunModel::from_obs(head), opts)
}

/// Build a synthetic run from generated job tuples:
/// `(worker, wall_start, wall_dur, virt_dur, cells)` plus λ and an
/// optional fault count.
fn build_obs(jobs: &[(usize, f64, f64, f64, f64)], lambda: f64, faults: usize) -> Obs {
    let obs = Obs::enabled();
    for w in jobs
        .iter()
        .map(|j| j.0)
        .collect::<std::collections::BTreeSet<_>>()
    {
        obs.instant(
            Track::Master,
            EventBody::WorkerRegistered {
                worker: w,
                is_gpu: w % 2 == 1,
            },
        );
    }
    obs.instant(
        Track::Scheduler,
        EventBody::BinsearchDone {
            iterations: 7,
            lower_bound: lambda / 2.0,
            upper_bound: lambda,
            makespan: lambda,
            lambda: Some(lambda),
            two_lambda_bound: Some(2.0 * lambda),
            decision: Some(0),
        },
    );
    let mut virt_clock: std::collections::BTreeMap<usize, f64> = Default::default();
    for (task, (w, wall_start, wall_dur, virt_dur, cells)) in jobs.iter().enumerate() {
        let vs = virt_clock.entry(*w).or_insert(0.0);
        obs.virtual_span(
            Track::Planned(*w),
            *vs,
            *virt_dur,
            EventBody::Placement {
                task,
                decision: Some(0),
            },
        );
        obs.span(
            Track::Worker(*w),
            *wall_start,
            *wall_dur,
            Some((*vs, *virt_dur)),
            EventBody::Job {
                task,
                cells: Some(*cells),
                seq: None,
                decision: None,
                queue_wait_wall: None,
                queue_wait_modelled: None,
            },
        );
        *vs += virt_dur;
    }
    for i in 0..faults {
        obs.instant(
            Track::Faults,
            EventBody::TaskRedispatch { task: i, retry: 1 },
        );
    }
    obs
}

fn job_strategy() -> impl Strategy<Value = Vec<(usize, f64, f64, f64, f64)>> {
    prop::collection::vec(
        (
            0usize..4,
            0.0..5.0f64,
            1e-4..2.0f64,
            1e-3..20.0f64,
            1e3..1e8f64,
        ),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn self_diff_is_all_neutral_with_zero_deltas(
        jobs in job_strategy(),
        lambda in 0.1..50.0f64,
        faults in 0usize..4,
    ) {
        let obs = build_obs(&jobs, lambda, faults);
        let report = diff_obs(&obs, &obs, &DiffOptions::default());
        prop_assert!(report.comparable);
        prop_assert_eq!(report.improved, 0);
        prop_assert_eq!(report.regressed, 0);
        prop_assert!(!report.metrics.is_empty());
        for m in &report.metrics {
            prop_assert_eq!(m.class, DiffClass::Neutral, "{} not neutral", m.name);
            prop_assert_eq!(m.delta, 0.0, "{} delta {}", m.name, m.delta);
            prop_assert_eq!(m.relative, 0.0, "{} relative {}", m.name, m.relative);
        }
        prop_assert!(!report.has_regressions(false));
        prop_assert!(report.regressions(true).is_empty());
    }

    #[test]
    fn swapping_base_and_head_negates_every_delta(
        jobs_a in job_strategy(),
        jobs_b in job_strategy(),
        lambda_a in 0.1..50.0f64,
        lambda_b in 0.1..50.0f64,
        faults_a in 0usize..4,
        faults_b in 0usize..4,
    ) {
        let a = build_obs(&jobs_a, lambda_a, faults_a);
        let b = build_obs(&jobs_b, lambda_b, faults_b);
        let opts = DiffOptions::default();
        let forward = diff_obs(&a, &b, &opts);
        let backward = diff_obs(&b, &a, &opts);
        prop_assert_eq!(forward.metrics.len(), backward.metrics.len());
        for (f, r) in forward.metrics.iter().zip(&backward.metrics) {
            prop_assert_eq!(&f.name, &r.name);
            prop_assert_eq!(f.base, r.head, "{}", f.name);
            prop_assert_eq!(f.head, r.base, "{}", f.name);
            // Deltas negate exactly: both are the same two floats
            // subtracted in opposite orders.
            prop_assert_eq!(f.delta, -r.delta, "{}", f.name);
            let swapped = match f.class {
                DiffClass::Improved => DiffClass::Regressed,
                DiffClass::Regressed => DiffClass::Improved,
                DiffClass::Neutral => DiffClass::Neutral,
            };
            prop_assert_eq!(r.class, swapped, "{}", f.name);
        }
        prop_assert_eq!(forward.improved, backward.regressed);
        prop_assert_eq!(forward.regressed, backward.improved);
    }

    #[test]
    fn scaling_the_modelled_clock_up_always_regresses_makespan(
        jobs in job_strategy(),
        lambda in 0.1..50.0f64,
        factor in 1.5..8.0f64,
    ) {
        let base = build_obs(&jobs, lambda, 0);
        let slowed: Vec<_> = jobs
            .iter()
            .map(|(w, ws, wd, vd, c)| (*w, *ws, *wd, vd * factor, *c))
            .collect();
        let head = build_obs(&slowed, lambda, 0);
        let report = diff_obs(&base, &head, &DiffOptions::default());
        let makespan = report
            .metrics
            .iter()
            .find(|m| m.name == "makespan.modelled")
            .unwrap();
        prop_assert_eq!(makespan.class, DiffClass::Regressed);
        prop_assert!(report.has_regressions(true));
    }
}
