//! Online re-optimization properties.
//!
//! 1. For random workloads, zoo pools, seeded stragglers and deliberate
//!    prior miscalibration, a re-opt-enabled run returns top-k hits
//!    bit-identical to the static fault-free run — re-planning only
//!    moves work between workers, never changes what is computed.
//! 2. At the scheduler level, repeated re-plans of a shrinking remainder
//!    with [`plan`], under random observed factors and loads, place
//!    every remaining task — or the pieces it is cut into — exactly once,
//!    every time, and the pieces of a query tile it: the invariants the
//!    master's queue surgery relies on.

use proptest::prelude::*;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, SqbImage};
use swdual_obs::Obs;
use swdual_runtime::master::ReoptConfig;
use swdual_runtime::{run_search, FaultPlan, RuntimeConfig, WorkerFault, WorkerSpec};
use swdual_sched::binsearch::BinarySearchConfig;
use swdual_sched::{plan, Decision, Part, PeState, Pool, SliceOverhead, Task, TaskSet};

/// The set as the database image a search takes.
fn image(set: &SequenceSet) -> std::sync::Arc<SqbImage> {
    SqbImage::from_set(set).unwrap().into()
}

fn database(n: usize, len: usize, seed: u64) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    let mut state = seed | 1;
    for i in 0..n {
        let residues: Vec<u8> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 20) as u8
            })
            .collect();
        set.push(Sequence::from_codes(
            format!("d{i}"),
            Alphabet::Protein,
            residues,
        ))
        .unwrap();
    }
    set
}

fn queries_from(db: &SequenceSet, n_queries: usize, seed: u64) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    let mut state = seed | 1;
    for i in 0..n_queries {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = ((state >> 33) as usize) % db.len();
        let mut s = db.get(pick).unwrap().clone();
        s.id = format!("q{i}");
        set.push(s).unwrap();
    }
    set
}

/// A pool of `cpus` CPU workers and `gpus` GPU workers where
/// `miscal_seed` picks one worker to carry a wrong (2×) prior.
fn miscalibrated_pool(cpus: usize, gpus: usize, miscal_seed: u64) -> Vec<WorkerSpec> {
    let mut v = Vec::with_capacity(cpus + gpus);
    for _ in 0..cpus {
        v.push(WorkerSpec::cpu_default());
    }
    for _ in 0..gpus {
        v.push(WorkerSpec::gpu_default());
    }
    let victim = (miscal_seed as usize) % v.len();
    v[victim] = v[victim].clone().with_prior_scale(2.0);
    v
}

/// A seeded straggler plan that always spares worker 0 so the workload
/// can always finish even if every straggler were infinitely slow.
fn straggler_plan(seed: u64, n_workers: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut state = seed | 1;
    for w in 1..n_workers {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let roll = (state >> 33) % 100;
        if roll < 50 {
            let factor = 2.0 + (roll % 5) as f64;
            plan = plan.with(
                w,
                WorkerFault::Straggler {
                    delay_ms: 0,
                    factor,
                },
            );
        }
    }
    plan
}

proptest! {
    // Each case runs two full searches with real threads; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reopt_run_matches_static_fault_free_hits(
        db_n in 6usize..14,
        db_len in 30usize..80,
        n_queries in 2usize..8,
        cpus in 1usize..3,
        gpus in 1usize..3,
        data_seed in 1u64..10_000,
        fault_seed in 1u64..10_000,
    ) {
        let static_pool: Vec<WorkerSpec> = {
            let mut v = Vec::new();
            for _ in 0..cpus {
                v.push(WorkerSpec::cpu_default());
            }
            for _ in 0..gpus {
                v.push(WorkerSpec::gpu_default());
            }
            v
        };
        let db = database(db_n, db_len, data_seed);
        let queries = queries_from(&db, n_queries, data_seed ^ 0xABCD);

        // Static, fault-free, well-calibrated reference.
        let reference = run_search(
            image(&db),
            queries.clone(),
            &static_pool,
            RuntimeConfig::default(),
        );

        // Re-opt-enabled run on a miscalibrated pool with stragglers:
        // an aggressive threshold so re-planning actually triggers.
        let pool = miscalibrated_pool(cpus, gpus, fault_seed);
        let reopt = run_search(
            image(&db),
            queries,
            &pool,
            RuntimeConfig {
                faults: straggler_plan(fault_seed, pool.len()),
                reopt: ReoptConfig {
                    enabled: true,
                    threshold: 1.2,
                    min_remaining: 1,
                },
                ..RuntimeConfig::default()
            },
        );

        prop_assert_eq!(
            &reopt.hits, &reference.hits,
            "re-opt run diverged from static fault-free hits (fault seed {})",
            fault_seed
        );
        // Accounting still covers every task exactly once.
        let tasks: usize = reopt.worker_stats.iter().map(|s| s.tasks).sum();
        prop_assert_eq!(tasks, n_queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn repeated_weighted_replans_place_each_remaining_task_exactly_once(
        n_tasks in 1usize..40,
        cpus in 1usize..4,
        gpus in 1usize..4,
        rounds in 1usize..5,
        seed in 1u64..1_000_000,
    ) {
        let tasks = TaskSet::new(
            (0..n_tasks)
                .map(|id| {
                    let len = 16 + (id * 131) % 4000;
                    let p_cpu = 1.8 + len as f64 * 0.01;
                    let p_gpu = 0.5 + len as f64 * 0.001;
                    Task::new(id, p_cpu, p_gpu)
                })
                .collect(),
        );

        let mut state = seed | 1;
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1_000_000) as f64 / 1_000_000.0
        };

        // Simulate the master's life: after each round a random subset
        // of tasks completes, and the rest is re-planned on a freshly
        // re-calibrated, loaded pool; a piece cut off joins the remainder
        // as a task of its own.
        let overhead = SliceOverhead { cpu: 1.8, gpu: 0.5 };
        let obs = Obs::disabled();
        let mut remaining: Vec<Part> = (0..n_tasks).map(Part::whole).collect();
        let mut done: Vec<Part> = Vec::new();
        for round in 0..rounds {
            if remaining.is_empty() {
                break;
            }
            let mut pe = || PeState {
                factor: 1.0 + rand01() * 8.0,
                load: rand01() * 20.0,
            };
            let pool = Pool {
                cpus: (0..cpus).map(|_| pe()).collect(),
                gpus: (0..gpus).map(|_| pe()).collect(),
            };
            let decision = Decision {
                id: round as u64,
                config: BinarySearchConfig::default(),
                obs: &obs,
            };
            let planned = plan(&tasks, &remaining, &[], &pool, overhead, |f| f, decision);

            // Exactly-once: the re-plan places each task it returns once.
            let mut placed: Vec<usize> =
                planned.schedule.placements.iter().map(|p| p.task).collect();
            placed.sort_unstable();
            prop_assert_eq!(
                placed, (0..planned.tasks.len()).collect::<Vec<_>>(),
                "round {} re-plan lost or duplicated tasks", round
            );

            // Retire a random subset of the plan (what "completed"
            // before the next skew observation).
            remaining.clear();
            for p in &planned.schedule.placements {
                let part = planned.parts[p.task];
                match rand01() < 0.5 {
                    true => remaining.push(part),
                    false => done.push(part),
                }
            }
        }
        // Whatever ran and whatever is left tile every query exactly.
        done.extend(remaining);
        done.sort_by(|a, b| a.parent.cmp(&b.parent).then(a.lo.total_cmp(&b.lo)));
        for query in done.chunk_by(|a, b| a.parent == b.parent) {
            prop_assert_eq!(query[0].lo, 0.0);
            prop_assert_eq!(query[query.len() - 1].hi, 1.0);
            prop_assert!(query.windows(2).all(|w| w[0].hi == w[1].lo && w[0].lo < w[0].hi));
        }
        prop_assert_eq!(done.iter().map(|p| p.parent).max(), n_tasks.checked_sub(1));
    }
}
