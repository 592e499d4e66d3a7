//! Property tests for the live-metrics histogram and the run auditor.
//!
//! Two invariants the observability layer promises:
//!
//! 1. Log-bucketed histogram quantiles never under-report and are
//!    within one bucket's relative error (a factor of γ = 2^(1/4)) of
//!    the exact order statistic.
//! 2. The auditor's makespans equal the span-derived makespans computed
//!    straight from the recorder's events — analysis is a pure fold,
//!    not an estimate.

use proptest::prelude::*;
use swdual_obs::analysis::analyze;
use swdual_obs::metrics::{Metrics, HISTOGRAM_GAMMA};
use swdual_obs::{EventBody, Obs, RunModel, Track};

/// Exact order statistic with the same rank convention the histogram
/// uses: rank = ceil(q * n), 1-based.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_quantiles_are_within_one_bucket(
        values in prop::collection::vec(1e-8..1e4f64, 1..200),
        q in 0.01..1.0f64,
    ) {
        let metrics = Metrics::enabled();
        for (i, v) in values.iter().enumerate() {
            // Spread over shards: merging must not change the answer.
            metrics.for_shard(i).observe("lat", &[], *v);
        }
        let snap = metrics.snapshot();
        let hist = snap.histogram_summed("lat").unwrap();
        prop_assert_eq!(hist.count, values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [q, 0.50, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = hist.quantile(q).unwrap();
            // Bucket uppers over-estimate, never under-estimate, and by
            // at most one bucket's width (γ relative).
            prop_assert!(
                est >= exact * (1.0 - 1e-12),
                "q={} est={} < exact={}", q, est, exact
            );
            prop_assert!(
                est <= exact * HISTOGRAM_GAMMA * (1.0 + 1e-12),
                "q={} est={} > γ·exact={}", q, est, exact * HISTOGRAM_GAMMA
            );
        }
        // The top quantile is exact: it clamps to the recorded max.
        prop_assert_eq!(hist.quantile(1.0).unwrap(), *sorted.last().unwrap());
    }

    #[test]
    fn auditor_makespan_matches_recorder_spans(
        jobs in prop::collection::vec(
            (0.0..10.0f64, 0.001..5.0f64, 0.0..10.0f64, 0.001..5.0f64, 0..4usize),
            1..24,
        ),
    ) {
        let obs = Obs::enabled();
        for (i, (wall_start, wall_dur, virt_start, virt_dur, w)) in jobs.iter().enumerate() {
            obs.span(
                Track::Worker(*w),
                *wall_start,
                *wall_dur,
                Some((*virt_start, *virt_dur)),
                EventBody::Job {
                    task: i,
                    cells: None,
                    seq: None,
                    decision: None,
                    queue_wait_wall: None,
                    queue_wait_modelled: None,
                },
            );
        }
        let report = analyze(&RunModel::from_obs(&obs));

        // Same fold, straight from the events: the auditor must agree
        // bit-for-bit with the recorder's spans.
        let mut wall_lo = f64::INFINITY;
        let mut wall_hi = f64::NEG_INFINITY;
        let mut modelled = 0.0f64;
        for e in obs.events() {
            wall_lo = wall_lo.min(e.wall_start);
            wall_hi = wall_hi.max(e.wall_start + e.wall_dur);
            if let (Some(s), Some(d)) = (e.virt_start, e.virt_dur) {
                modelled = modelled.max(s + d);
            }
        }
        prop_assert_eq!(report.wall_makespan, wall_hi - wall_lo);
        prop_assert_eq!(report.modelled_makespan, modelled);
        prop_assert_eq!(report.tasks, jobs.len());

        // Worker busy time is additive over that worker's spans.
        for audit in &report.workers {
            let busy: f64 = jobs
                .iter()
                .filter(|(.., w)| *w == audit.worker)
                .map(|(_, wall_dur, ..)| *wall_dur)
                .sum();
            prop_assert!(
                (audit.busy_wall - busy).abs() < 1e-9,
                "worker {} busy {} != {}", audit.worker, audit.busy_wall, busy
            );
        }
    }
}
