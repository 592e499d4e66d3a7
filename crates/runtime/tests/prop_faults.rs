//! End-to-end fault tolerance on real threads: for fixed workloads,
//! worker pools and seeded fault plans (which always spare at least one
//! worker), the search terminates and returns top-k hits bit-identical
//! to the fault-free run.
//!
//! The invariant holds by construction — alignment scores are a pure
//! function of (query, database, scheme), so faults can only move work
//! around — but this test exercises the whole detection/recovery
//! machinery: notified and silent crashes, device faults, stragglers,
//! registration losses, re-planning, deduplication.

use std::time::Duration;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, SqbImage};
use swdual_gpusim::DeviceSpec;
use swdual_runtime::master::AllocationPolicy;
use swdual_runtime::{run_search, FaultPlan, RuntimeConfig, WorkerFault, WorkerSpec};

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

fn workers(cpus: usize, gpus: usize) -> Vec<WorkerSpec> {
    let mut v = Vec::with_capacity(cpus + gpus);
    for _ in 0..cpus {
        v.push(WorkerSpec::cpu_default());
    }
    for _ in 0..gpus {
        v.push(WorkerSpec::gpu_default());
    }
    v
}

/// A device too small for even one subject cannot stream the database.
/// Its worker must fail loudly (`WorkerMsg::Failed`, not a thread
/// panic the master waits a silent-death deadline for) and the master
/// must finish the search on the surviving CPU with identical hits.
#[test]
fn unchunkable_device_hands_its_work_to_the_survivors() {
    let db = database(12, 80, 41);
    let queries = queries_from(&db, 5, 42);
    let cpu_only = run_search(
        image(&db),
        queries.clone(),
        &workers(1, 0),
        RuntimeConfig::default(),
    );
    // 0.45 × 100 B per chunk < one 80-residue subject.
    let pool = vec![
        WorkerSpec::cpu_default(),
        WorkerSpec::gpu(DeviceSpec::toy(100)),
    ];
    let started = std::time::Instant::now();
    let hybrid = run_search(image(&db), queries, &pool, RuntimeConfig::default());
    assert_eq!(hybrid.hits, cpu_only.hits);
    assert_eq!(hybrid.worker_stats[1].tasks, 0, "the device served nothing");
    assert_eq!(hybrid.worker_stats[0].tasks, 5);
    // Recovery ran on the death notice, not on a silent-death timeout.
    assert!(started.elapsed() < RuntimeConfig::default().min_job_timeout);
}

/// On real threads, a few fixed workloads, pools and seeded fault plans
/// (which always spare at least one worker) end with the fault-free
/// hits, each task counted once. Between them the plans hold a notified
/// and a silent crash, a lost registration, a straggler and a device
/// fault, under both policies. The deterministic simulator
/// (`master::core::sim::any_schedule_keeps_the_invariants`) checks the
/// property over many more schedules.
#[test]
fn faulted_search_matches_fault_free_hits() {
    // (subjects, their length, queries, CPUs, GPUs, data seed, fault
    // seed, self-scheduling): plans `0:crash@0,1:vanish@1,3:noreg`,
    // `0:straggle@23x4.5,1:vanish@2,2:crash@0` and `2:device@0`.
    let cases = [
        (12, 60, 5, 2, 2, 17, 4, false),
        (10, 50, 4, 2, 2, 29, 3, true),
        (8, 70, 3, 1, 2, 5, 2, false),
    ];
    for (db_n, db_len, n_queries, cpus, gpus, data_seed, fault_seed, self_sched) in cases {
        let pool = workers(cpus, gpus);
        let db = database(db_n, db_len, data_seed);
        let queries = queries_from(&db, n_queries, data_seed ^ 0xABCD);
        let policy = if self_sched {
            AllocationPolicy::SelfScheduling
        } else {
            RuntimeConfig::default().policy
        };

        let healthy = run_search(
            image(&db),
            queries.clone(),
            &pool,
            RuntimeConfig {
                policy,
                ..RuntimeConfig::default()
            },
        );

        let plan = FaultPlan::seeded(fault_seed, pool.len());
        let faulted = run_search(
            image(&db),
            queries,
            &pool,
            RuntimeConfig {
                policy,
                faults: plan.clone(),
                // Fast silent-death detection; generous retry budget so
                // transient re-queues of straggler-held tasks never
                // exhaust it.
                min_job_timeout: Duration::from_millis(80),
                max_task_retries: 10,
                ..RuntimeConfig::default()
            },
        );

        assert_eq!(
            faulted.hits, healthy.hits,
            "hits diverged under plan `{plan}` (fault seed {fault_seed})"
        );
        // Accounting still covers every task exactly once.
        let tasks: usize = faulted.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, n_queries);
    }
}

/// What a faulted search's journal says lending did: tasks a helper
/// computed (`help` spans), and of those the ones re-planned after their
/// owner died, the ones that ended on their own helper, and the helpers
/// that crashed on a run of their own after helping.
#[derive(Debug, Default)]
struct Lending {
    helped: usize,
    owner_died: usize,
    on_own_helper: usize,
    helper_crashed: usize,
}

fn lending_of(obs: &swdual_obs::Obs) -> Lending {
    use swdual_obs::{EventBody, Track};
    let events = obs.events_since(0);
    let mut helper_of = std::collections::BTreeMap::new();
    let mut lending = Lending::default();
    for e in &events {
        match (e.track, &e.body) {
            (Track::Worker(w), EventBody::Help { task }) => {
                helper_of.insert(*task, (w, e.wall_start));
                lending.helped += 1;
            }
            (_, EventBody::TaskRedispatch { task, .. }) if helper_of.contains_key(task) => {
                lending.owner_died += 1;
            }
            (_, EventBody::WorkerCrash { worker, .. }) => {
                let helped_first = helper_of
                    .values()
                    .any(|&(w, at)| w == *worker && at < e.wall_start);
                lending.helper_crashed += usize::from(helped_first);
            }
            _ => {}
        }
    }
    let model = swdual_obs::RunModel::from_events(&events);
    for job in &model.jobs {
        if helper_of
            .get(&job.task)
            .is_some_and(|&(w, _)| w == job.worker)
        {
            lending.on_own_helper += 1;
        }
    }
    lending
}

/// Loans under faults, end to end: the device owns most of the queue
/// and dies on picking up a task, after the CPU workers ran dry and were
/// lent its tail; one of the CPUs crashes on the first run the re-plan
/// hands it. Lent tasks are re-planned like any orphan — some onto the
/// helper that already computed them, which takes its own result — and
/// the hits are the fault-free static run's every time. Which of these
/// happen on a given search is up to the threads; over the seeds below
/// each one does.
#[test]
fn loans_keep_the_hits_when_owners_and_helpers_die() {
    let mut seen = Lending::default();
    for seed in 1..=8u64 {
        let db = database(40, 60, seed);
        let queries = queries_from(&db, 12, seed ^ 0x1E4D);
        // Declared 8x faster than it is, the device is planned most of
        // the queue, so the CPU workers run dry early.
        let pool = vec![
            WorkerSpec::gpu_default().with_prior_scale(8.0),
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
        ];
        let healthy = run_search(image(&db), queries.clone(), &pool, RuntimeConfig::default());
        // Worker 1 dies on the first task past its own plan: one a
        // re-plan handed it, after it ran dry and helped.
        let crash = |after_jobs| WorkerFault::Crash {
            after_jobs,
            notify: true,
        };
        let plan = FaultPlan::none()
            .with(0, crash(healthy.worker_stats[0].tasks / 2))
            .with(1, crash(healthy.worker_stats[1].tasks));
        let obs = swdual_obs::Obs::enabled();
        let faulted = run_search(
            image(&db),
            queries,
            &pool,
            RuntimeConfig {
                obs: obs.clone(),
                faults: plan.clone(),
                min_job_timeout: Duration::from_millis(80),
                max_task_retries: 10,
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(faulted.hits, healthy.hits, "plan `{plan}`, seed {seed}");
        let lending = lending_of(&obs);
        seen.helped += lending.helped;
        seen.owner_died += lending.owner_died;
        seen.on_own_helper += lending.on_own_helper;
        seen.helper_crashed += lending.helper_crashed;
    }
    assert!(
        seen.owner_died > 0,
        "{seen:?}: no lent task outlived its owner"
    );
    assert!(
        seen.on_own_helper > 0,
        "{seen:?}: no lent task went back to its helper"
    );
    assert!(
        seen.helper_crashed > 0,
        "{seen:?}: no helper crashed on a run of its own"
    );
}
