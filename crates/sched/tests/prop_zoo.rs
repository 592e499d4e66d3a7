//! Cross-zoo property suite: random mixed device-zoo platforms and
//! workloads, scheduled with the dual approximation on a conservative
//! two-species view (every GPU priced as the slowest class in the mix),
//! then replayed on each device's true class curve and audited through
//! `swdual_obs::explain`.
//!
//! Properties:
//! * the 2λ guarantee HOLDS on the replayed (true-curve) makespan for
//!   every zoo composition;
//! * the greedy knapsack's acceleration-ratio ordering is respected
//!   perfectly — length-derived zoo tasks have ratios monotone in
//!   query length for every device class, so the GPU side is exactly
//!   the top of the ratio order;
//! * per-class acceleration ratios are themselves monotone in query
//!   length (the ordering invariant the knapsack's argument rests on);
//! * worker rows carry the device class the journal declared.

use proptest::prelude::*;
use swdual_gpusim::DeviceClass;
use swdual_obs::explain::explain;
use swdual_obs::{EventBody, Obs, RunModel, Track};
use swdual_sched::binsearch::{dual_approx_schedule, BinarySearchConfig};
use swdual_sched::schedule::PeKind;
use swdual_sched::{PlatformSpec, Task, TaskSet};

/// End-to-end seconds on a zoo class for `len` residues against `db`
/// database residues (the estimator curve shared with the runtime).
fn class_seconds(class: DeviceClass, len: usize, db: u64) -> f64 {
    let (peak, half, overhead) = class.estimator_curve();
    let rate = peak * len as f64 / (len as f64 + half);
    overhead + len as f64 * db as f64 / (rate * 1e9)
}

/// End-to-end seconds on the SWIPE-class CPU worker (Table II).
fn cpu_seconds(len: usize, db: u64) -> f64 {
    let rate = 8.38 * len as f64 / (len as f64 + 25.0);
    1.8 + len as f64 * db as f64 / (rate * 1e9)
}

/// A random zoo: 1–4 CPU workers, 1–4 GPU workers of random classes.
fn zoo() -> impl Strategy<Value = (usize, Vec<DeviceClass>)> {
    (
        1usize..5,
        prop::collection::vec(0usize..DeviceClass::ALL.len(), 1..5),
    )
        .prop_map(|(cpus, idx)| (cpus, idx.into_iter().map(|i| DeviceClass::ALL[i]).collect()))
}

/// Random workload: query lengths and a database size.
fn workload() -> impl Strategy<Value = (Vec<usize>, u64)> {
    (
        prop::collection::vec(16usize..5000, 2..32),
        100_000u64..1_000_000_000,
    )
}

/// Conservative two-species task set: GPU time is the slowest class in
/// the mix, so every replayed placement finishes no later than planned.
fn conservative_tasks(lens: &[usize], db: u64, mix: &[DeviceClass]) -> TaskSet {
    TaskSet::new(
        lens.iter()
            .enumerate()
            .map(|(id, &len)| {
                let p_gpu = mix
                    .iter()
                    .map(|&c| class_seconds(c, len, db))
                    .fold(f64::NEG_INFINITY, f64::max);
                Task::new(id, cpu_seconds(len, db), p_gpu)
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_acceleration_ratio_is_monotone_in_length(
        db in 100_000u64..2_000_000_000,
        a in 16usize..5000,
        b in 16usize..5000,
    ) {
        let (short, long) = if a <= b { (a, b) } else { (b, a) };
        for class in DeviceClass::ALL {
            let r_short = cpu_seconds(short, db) / class_seconds(class, short, db);
            let r_long = cpu_seconds(long, db) / class_seconds(class, long, db);
            prop_assert!(
                r_long >= r_short - 1e-12,
                "{class}: ratio {r_short} at len {short} > {r_long} at len {long} (db {db})"
            );
        }
    }

    #[test]
    fn zoo_journal_reports_two_lambda_holds_and_perfect_ordering(
        zoo_spec in zoo(),
        load in workload(),
    ) {
        let (cpus, mix) = zoo_spec;
        let (lens, db) = load;
        let tasks = conservative_tasks(&lens, db, &mix);
        let platform = PlatformSpec::new(cpus, mix.len());
        let outcome = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        outcome.schedule.validate(&tasks, &platform).expect("valid zoo schedule");

        // Synthesize the journal the runtime would have produced:
        // GPU workers are ids 0..k (one per class), CPUs follow.
        let k = mix.len();
        let obs = Obs::enabled();
        let classes = mix.iter().map(|c| c.name()).chain(std::iter::repeat_n("cpu", cpus));
        for (worker, class) in classes.enumerate() {
            obs.instant(Track::Master, EventBody::WorkerRegistered { worker, is_gpu: worker < k });
            obs.instant(
                Track::Master,
                EventBody::DeviceClass { worker, class: class.to_string() },
            );
        }
        for (t, task) in tasks.tasks().iter().enumerate() {
            obs.instant(
                Track::Master,
                EventBody::TaskModel {
                    task: t,
                    p_cpu: task.p_cpu,
                    p_gpu: task.p_gpu,
                    query_len: None,
                    cells: None,
                },
            );
        }
        obs.instant(
            Track::Scheduler,
            EventBody::BinsearchDone {
                iterations: outcome.iterations,
                lower_bound: outcome.lower_bound,
                upper_bound: outcome.upper_bound,
                makespan: outcome.schedule.makespan(),
                lambda: Some(outcome.upper_bound),
                two_lambda_bound: Some(2.0 * outcome.upper_bound),
                decision: None,
            },
        );
        // Planned spans at conservative times; actual spans replay each
        // GPU on its true class curve (≤ the conservative estimate).
        let mut clock = vec![0.0f64; k + cpus];
        for p in &outcome.schedule.placements {
            let (w, actual) = match p.pe.kind {
                PeKind::Gpu => (
                    p.pe.index,
                    class_seconds(mix[p.pe.index], lens[p.task], db),
                ),
                PeKind::Cpu => (k + p.pe.index, cpu_seconds(lens[p.task], db)),
            };
            obs.virtual_span(
                Track::Planned(w),
                p.start,
                p.end - p.start,
                EventBody::Placement { task: p.task, decision: None },
            );
            obs.span(
                Track::Worker(w),
                clock[w] * 1e-6,
                actual * 1e-6,
                Some((clock[w], actual)),
                EventBody::Job {
                    task: p.task,
                    cells: Some((lens[p.task] as u64 * db) as f64),
                    seq: None,
                    decision: None,
                    queue_wait_wall: None,
                    queue_wait_modelled: None,
                },
            );
            clock[w] += actual;
        }

        let report = explain(&RunModel::from_obs(&obs));
        prop_assert!(report.has_bound);
        prop_assert!(
            report.bound_holds,
            "2λ must HOLD on the replayed makespan: modelled {} vs 2λ {} (zoo {:?})",
            report.modelled_makespan,
            report.two_lambda_bound,
            mix
        );
        prop_assert!(
            report.gpu_ordering_quality > 1.0 - 1e-9,
            "ordering quality {} < 1 for zoo {:?}",
            report.gpu_ordering_quality,
            mix
        );
        // Replay can only come in at or under the conservative plan.
        prop_assert!(
            report.modelled_makespan <= outcome.schedule.makespan() + 1e-9,
            "replayed {} > planned {}",
            report.modelled_makespan,
            outcome.schedule.makespan()
        );
        // The rows name every worker's class.
        prop_assert_eq!(report.workers.len(), k + cpus);
        for audit in &report.workers {
            if audit.worker < k {
                prop_assert!(audit.is_gpu);
                prop_assert_eq!(&audit.device_class, mix[audit.worker].name());
            } else {
                prop_assert!(!audit.is_gpu);
                prop_assert_eq!(&audit.device_class, "cpu");
            }
        }
    }

    #[test]
    fn conservative_plan_places_every_task_exactly_once(
        zoo_spec in zoo(),
        load in workload(),
    ) {
        let (cpus, mix) = zoo_spec;
        let (lens, db) = load;
        let tasks = conservative_tasks(&lens, db, &mix);
        let platform = PlatformSpec::new(cpus, mix.len());
        let outcome = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        let mut placed: Vec<usize> = outcome.schedule.placements.iter().map(|p| p.task).collect();
        placed.sort_unstable();
        let expect: Vec<usize> = (0..tasks.len()).collect();
        prop_assert_eq!(placed, expect);
    }
}
