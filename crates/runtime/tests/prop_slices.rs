//! A search whose plan cut a query's task along the database returns
//! the hits of the uncut search.
//!
//! With one to three queries on one to four workers the static plan's
//! loads differ by a whole task, so the divisible-tail pass cuts (any
//! database of more than one alignment block can be cut): workers of
//! both species score slices of the length order, report at most `top_k`
//! hits each, and the master folds them. Self-scheduling draws no plan
//! and never cuts; the scalar Gotoh oracle knows nothing of either.

use proptest::prelude::*;
use swdual_align::scalar::gotoh_score;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, ScoringScheme, SqbImage};
use swdual_runtime::master::AllocationPolicy;
use swdual_runtime::messages::top_k_hits;
use swdual_runtime::{run_search, FaultPlan, QueryHits, RuntimeConfig, WorkerFault, WorkerSpec};

/// Residues drawn from `alphabet` letters: one letter makes every score
/// of a length class tie.
fn sequences(n: usize, max_len: usize, alphabet: u64, seed: u64, tag: &str) -> SequenceSet {
    let mut set = SequenceSet::new(Alphabet::Protein);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in 0..n {
        let len = next() as usize % (max_len + 1);
        let residues: Vec<u8> = (0..len).map(|_| (next() % alphabet) as u8).collect();
        set.push(Sequence::from_codes(
            format!("{tag}{i}"),
            Alphabet::Protein,
            residues,
        ))
        .unwrap();
    }
    set
}

fn pool(cpus: usize, gpus: usize) -> Vec<WorkerSpec> {
    let cpus = std::iter::repeat_n(WorkerSpec::cpu_default(), cpus);
    cpus.chain(std::iter::repeat_n(WorkerSpec::gpu_default(), gpus))
        .collect()
}

/// Every subject scored by the scalar oracle, reduced as the search
/// reduces.
fn oracle(db: &SequenceSet, queries: &SequenceSet, top_k: usize) -> Vec<QueryHits> {
    let scheme = ScoringScheme::protein_default();
    let hits = queries.iter().enumerate().map(|(q, query)| {
        let scores: Vec<i32> = db
            .iter()
            .map(|d| gotoh_score(query.codes(), d.codes(), &scheme))
            .collect();
        top_k_hits(q, &scores, top_k)
    });
    hits.collect()
}

fn search(
    db: &SequenceSet,
    queries: &SequenceSet,
    workers: &[WorkerSpec],
    config: RuntimeConfig,
) -> (Vec<QueryHits>, usize) {
    let image = SqbImage::from_set(db).unwrap();
    let outcome = run_search(image.into(), queries.clone(), workers, config);
    let jobs = outcome.worker_stats.iter().map(|s| s.tasks).sum();
    (outcome.hits, jobs)
}

proptest! {
    // Each case runs two searches with real threads.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sliced_hits_equal_unsliced_hits(
        // More than one 128-subject block, so there is somewhere to cut.
        subjects in 130usize..420,
        // One letter: all subjects of a length tie, and the ties
        // straddle every slice boundary.
        alphabet in prop::sample::select(vec![1u64, 2, 20]),
        n_queries in 1usize..4,
        cpus in 0usize..4,
        gpus in 0usize..2,
        // None, fewer than a slice holds, and more than the database.
        top_k in prop::sample::select(vec![0usize, 1, 7, 1000]),
        seed in 1u64..10_000,
    ) {
        prop_assume!(cpus + gpus > 0);
        let db = sequences(subjects, 24, alphabet, seed, "d");
        let queries = sequences(n_queries, 30, alphabet, seed ^ 0x5EED, "q");
        let workers = pool(cpus, gpus);
        let with = |policy| RuntimeConfig { policy, top_k, ..RuntimeConfig::default() };

        let (planned, jobs) = search(&db, &queries, &workers, with(RuntimeConfig::default().policy));
        let (unsliced, whole_jobs) = search(&db, &queries, &workers, with(AllocationPolicy::SelfScheduling));
        prop_assert_eq!(whole_jobs, n_queries);
        prop_assert_eq!(&planned, &unsliced);
        prop_assert_eq!(&planned, &oracle(&db, &queries, top_k));
        // A lone query on several workers is always worth cutting: the
        // workers it was not given are idle.
        if n_queries == 1 && cpus + gpus > 1 && !queries.get(0).unwrap().is_empty() {
            prop_assert!(jobs > 1, "{} job(s) on {} workers", jobs, cpus + gpus);
        }
        prop_assert!(jobs >= n_queries);
    }
}

/// The acceptance scenario end to end, threads and all: one query, two
/// CPUs, the worker that was handed the piece cut off crashes on it.
/// The survivor scores both slices and the hits are the fault-free ones.
#[test]
fn a_crash_of_the_worker_holding_a_slice_keeps_the_hits() {
    let db = sequences(300, 40, 20, 77, "d");
    let queries = sequences(1, 30, 20, 78, "q");
    let workers = pool(2, 0);
    let (healthy, jobs) = search(&db, &queries, &workers, RuntimeConfig::default());
    assert_eq!(jobs, 2, "the query is cut in two");
    assert_eq!(
        healthy,
        oracle(&db, &queries, RuntimeConfig::default().top_k)
    );
    for victim in 0..2 {
        let crash = WorkerFault::Crash {
            after_jobs: 0,
            notify: true,
        };
        let config = RuntimeConfig {
            faults: FaultPlan::none().with(victim, crash),
            ..RuntimeConfig::default()
        };
        let image = SqbImage::from_set(&db).unwrap();
        let faulted = run_search(image.into(), queries.clone(), &workers, config);
        assert_eq!(faulted.hits, healthy, "worker {victim} crashed");
        assert_eq!(faulted.worker_stats[victim].tasks, 0);
        assert_eq!(faulted.worker_stats[1 - victim].tasks, 2);
        assert_eq!(faulted.total_cells, faulted.worker_stats[1 - victim].cells);
    }
}

/// A database with nothing in it, and one with nothing but empty
/// sequences, still plan and search: a task's time stays positive.
#[test]
fn empty_databases_stay_schedulable() {
    let queries = sequences(2, 30, 20, 9, "q");
    for db in [
        SequenceSet::new(Alphabet::Protein),
        sequences(200, 0, 20, 3, "d"),
    ] {
        for workers in [pool(2, 0), pool(1, 1)] {
            let (hits, jobs) = search(&db, &queries, &workers, RuntimeConfig::default());
            assert_eq!(jobs, 2);
            assert_eq!(hits, oracle(&db, &queries, RuntimeConfig::default().top_k));
        }
    }
}

/// Twelve queries on two CPU workers, and the same queries two at a
/// time on the same pool: a search of 300 subjects is cut, plans and
/// forms runs differently each way, and every job scores the image's
/// blocks in place. The hits agree query by query, and with the oracle.
#[test]
fn queries_searched_together_or_two_at_a_time_find_the_same_hits() {
    let db = sequences(300, 60, 20, 41, "d");
    let queries = sequences(12, 50, 20, 42, "q");
    let workers = pool(2, 0);
    let (together, _) = search(&db, &queries, &workers, RuntimeConfig::default());
    let mut in_pairs = Vec::new();
    for first in (0..queries.len()).step_by(2) {
        let mut two = SequenceSet::new(Alphabet::Protein);
        for q in first..first + 2 {
            two.push(queries.get(q).unwrap().clone()).unwrap();
        }
        let (hits, _) = search(&db, &two, &workers, RuntimeConfig::default());
        in_pairs.extend(hits.into_iter().map(|h| QueryHits {
            query_index: h.query_index + first,
            ..h
        }));
    }
    assert_eq!(together, in_pairs);
    assert_eq!(
        together,
        oracle(&db, &queries, RuntimeConfig::default().top_k)
    );
}

/// A lent slice: the device the plan queued a piece of a cut query on
/// straggles (50 ms of wall time before each task, its modelled clock
/// untouched), so the CPUs run dry and are lent that piece; the hits
/// are the oracle's. (What happens to a lent task when its owner or its
/// helper dies is `prop_faults.rs`'s, and the simulator's.)
#[test]
fn a_lent_slice_keeps_the_hits() {
    use swdual_obs::{EventBody, Track};
    let mut lent_slices = 0;
    for seed in 1..=4u64 {
        let db = sequences(300, 40, 20, seed, "d");
        let queries = sequences(4 + seed as usize % 4, 30, 20, seed ^ 0x1E4D, "q");
        let n_queries = queries.len();
        let workers = pool(2, 1);
        let device = 2;
        let top_k = RuntimeConfig::default().top_k;
        let image = || std::sync::Arc::new(SqbImage::from_set(&db).unwrap());
        let planned = swdual_obs::Obs::enabled();
        let config = RuntimeConfig {
            obs: planned.clone(),
            ..RuntimeConfig::default()
        };
        let healthy = run_search(image(), queries.clone(), &workers, config);
        assert_eq!(healthy.hits, oracle(&db, &queries, top_k));
        // A piece cut off (an id past the queries') queued behind
        // another task of the device.
        let queued_piece =
            planned
                .events_since(0)
                .into_iter()
                .find_map(|e| match (e.track, e.body) {
                    (Track::Planned(w), EventBody::Placement { task, .. })
                        if w == device
                            && task >= n_queries
                            && e.virt_start.is_some_and(|start| start > 0.0) =>
                    {
                        Some((w, task))
                    }
                    _ => None,
                });
        let Some((owner, piece)) = queued_piece else {
            continue;
        };
        let straggle = WorkerFault::Straggler {
            delay_ms: 50,
            factor: 1.0,
        };
        let obs = swdual_obs::Obs::enabled();
        let config = RuntimeConfig {
            obs: obs.clone(),
            faults: FaultPlan::none().with(owner, straggle),
            ..RuntimeConfig::default()
        };
        let lent = run_search(image(), queries, &workers, config);
        assert_eq!(lent.hits, healthy.hits, "seed {seed}");
        let helped = obs
            .events_since(0)
            .into_iter()
            .any(|e| matches!(e.body, EventBody::Help { task } if task == piece));
        lent_slices += usize::from(helped);
    }
    assert!(lent_slices > 0, "no piece of a cut query was lent");
}
