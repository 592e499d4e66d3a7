//! Cross-crate integration tests: the full SWDUAL pipeline from files
//! to ranked hits, across allocation policies and worker mixes.

use std::sync::Arc;
use swdual_repro::align::scalar::gotoh_score;
use swdual_repro::align::tiered::{score_database_with, ByteShape};
use swdual_repro::align::{Backend, Scratch, Subjects, TierStats};
use swdual_repro::bio::{fasta, sqb, Alphabet, ScoringScheme, SequenceSet, SqbImage};
use swdual_repro::core::SearchBuilder;
use swdual_repro::datagen::{
    queries_from_database, scaled_database, synthetic_database, LengthModel, MutationProfile,
};
use swdual_repro::runtime::{AllocationPolicy, WorkerSpec};
use swdual_repro::sched::dual::KnapsackMethod;

fn demo_database() -> SequenceSet {
    synthetic_database("db", 120, LengthModel::protein_database(250.0), 1001)
}

/// A `scale` slice of a synthetic UniProt (537 505 sequences of mean
/// length 362), the same slice as a shared image, and `queries`
/// homologs drawn from it.
fn uniprot_slice(
    scale: f64,
    queries: usize,
    seed: u64,
) -> (SequenceSet, Arc<SqbImage>, SequenceSet) {
    let database = scaled_database("uniprot", 537_505, 362.0, scale, seed);
    let queries = queries_from_database(
        &database,
        queries,
        30,
        5000,
        &MutationProfile::homolog(),
        seed + 1,
    );
    let image = SqbImage::from_set(&database).expect("datagen ids fit SQB's id field");
    (database, Arc::new(image), queries)
}

/// A dual-approximation search of `queries` against `image` on
/// `cpus` CPU and `gpus` simulated GPU workers.
fn hybrid_search(
    image: &Arc<SqbImage>,
    queries: &SequenceSet,
    cpus: usize,
    gpus: usize,
) -> SearchBuilder {
    SearchBuilder::new()
        .database_image(Arc::clone(image))
        .queries(queries.clone())
        .hybrid_workers(cpus, gpus)
        .policy(AllocationPolicy::DualApprox(KnapsackMethod::Greedy))
        .top_k(5)
}

#[test]
fn file_pipeline_fasta_sqb_search() {
    let dir = std::env::temp_dir().join("swdual_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let db_fasta = dir.join("e2e_db.fasta");
    let db_sqb = dir.join("e2e_db.sqb");
    let q_fasta = dir.join("e2e_q.fasta");

    let database = demo_database();
    let queries = queries_from_database(&database, 4, 50, 5000, &MutationProfile::homolog(), 1002);
    fasta::write_file(&database, &db_fasta).unwrap();
    sqb::write_file(&database, &db_sqb).unwrap();
    fasta::write_file(&queries, &q_fasta).unwrap();

    // FASTA-loaded and SQB-loaded searches must agree exactly.
    let via_fasta = SearchBuilder::new()
        .database_fasta(&db_fasta, Alphabet::Protein)
        .unwrap()
        .queries_fasta(&q_fasta, Alphabet::Protein)
        .unwrap()
        .top_k(5)
        .run();
    let via_sqb = SearchBuilder::new()
        .database_sqb(&db_sqb)
        .unwrap()
        .queries(queries.clone())
        .top_k(5)
        .run();
    assert_eq!(via_fasta.hits(), via_sqb.hits());

    // Planted homologs must rank their source first.
    for (qi, q) in queries.iter().enumerate() {
        let src = q.description.strip_prefix("derived from ").unwrap();
        let best = via_sqb.hits()[qi].hits[0];
        assert_eq!(via_sqb.database_id(best.db_index), src, "query {qi}");
    }

    for f in [&db_fasta, &db_sqb, &q_fasta] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn hits_invariant_across_policies_and_workers() {
    let database = demo_database();
    let queries = queries_from_database(&database, 3, 50, 5000, &MutationProfile::distant(), 7);
    let configs: Vec<(AllocationPolicy, Vec<WorkerSpec>)> = vec![
        (
            AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
            vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()],
        ),
        (
            AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
            vec![
                WorkerSpec::gpu_default(),
                WorkerSpec::gpu_default(),
                WorkerSpec::cpu_default(),
            ],
        ),
        (
            AllocationPolicy::SelfScheduling,
            vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()],
        ),
        (
            AllocationPolicy::SelfScheduling,
            vec![WorkerSpec::cpu_default()],
        ),
    ];
    let mut reference: Option<Vec<swdual_repro::runtime::QueryHits>> = None;
    for (policy, workers) in configs {
        let report = SearchBuilder::new()
            .database(database.clone())
            .unwrap()
            .queries(queries.clone())
            .workers(workers.clone())
            .policy(policy)
            .top_k(8)
            .run();
        match &reference {
            None => reference = Some(report.hits().to_vec()),
            Some(r) => assert_eq!(
                r.as_slice(),
                report.hits(),
                "hits changed under {policy:?} with {} workers",
                workers.len()
            ),
        }
    }
}

#[test]
fn scheme_changes_change_scores() {
    let database = demo_database();
    let queries = queries_from_database(&database, 2, 50, 5000, &MutationProfile::homolog(), 99);
    let default = SearchBuilder::new()
        .database(database.clone())
        .unwrap()
        .queries(queries.clone())
        .run();
    let harsher = SearchBuilder::new()
        .database(database)
        .unwrap()
        .queries(queries)
        .scheme(ScoringScheme::new(
            swdual_repro::bio::Matrix::blosum62().clone(),
            20,
            4,
        ))
        .run();
    // Top-hit identity is stable (exact homolog), but scores drop with
    // harsher gaps somewhere in the list.
    let d0 = &default.hits()[0];
    let h0 = &harsher.hits()[0];
    assert_eq!(d0.hits[0].db_index, h0.hits[0].db_index);
    let sum_default: i64 = d0.hits.iter().map(|h| h.score as i64).sum();
    let sum_harsh: i64 = h0.hits.iter().map(|h| h.score as i64).sum();
    assert!(sum_harsh <= sum_default);
}

#[test]
fn worker_accounting_adds_up() {
    let database = demo_database();
    let queries = queries_from_database(&database, 5, 50, 5000, &MutationProfile::homolog(), 13);
    let report = SearchBuilder::new()
        .database(database.clone())
        .unwrap()
        .queries(queries)
        .hybrid_workers(2, 2)
        .run();
    let tasks: usize = report.worker_stats().iter().map(|s| s.tasks).sum();
    assert_eq!(tasks, 5);
    let cells: u64 = report.worker_stats().iter().map(|s| s.cells).sum();
    assert_eq!(cells, report.total_cells());
    // The schedule exists and is valid for the platform.
    let schedule = report.schedule().expect("dual-approx produces a schedule");
    assert_eq!(schedule.placements.len(), 5);
}

#[test]
fn runtime_allocation_matches_scheduler_split() {
    // The runtime's task split (which workers got how many tasks) must
    // reflect the scheduler's assignment computed from the same rate
    // models.
    let database = synthetic_database("db", 150, LengthModel::protein_database(300.0), 31);
    let queries = queries_from_database(&database, 8, 50, 5000, &MutationProfile::homolog(), 32);
    let report = SearchBuilder::new()
        .database(database)
        .unwrap()
        .queries(queries)
        .hybrid_workers(2, 2)
        .run();
    let schedule = report.schedule().expect("static schedule");

    // Count per-kind tasks in the schedule and in the worker stats.
    let sched_gpu = schedule
        .placements
        .iter()
        .filter(|p| p.pe.kind == swdual_repro::sched::schedule::PeKind::Gpu)
        .count();
    let stats_gpu: usize = report
        .worker_stats()
        .iter()
        .filter(|s| s.description.starts_with("GPU"))
        .map(|s| s.tasks)
        .sum();
    assert_eq!(sched_gpu, stats_gpu);
    // GPUs are modelled ~4x faster, so they take the majority.
    assert!(stats_gpu >= 5, "GPUs got only {stats_gpu} of 8 tasks");
}

#[test]
fn reduced_execution_is_consistent() {
    let (database, image, queries) = uniprot_slice(0.0003, 3, 77);
    assert!(database.len() > 100);
    // Every byte-tier shape agrees with Gotoh on the first query against
    // the first 32 subjects.
    let scheme = ScoringScheme::protein_default();
    let query = queries.get(0).unwrap().codes();
    let subjects: Subjects = database.iter().take(32).map(|s| s.codes()).collect();
    let expected: Vec<i32> = (database.iter().take(32))
        .map(|d| gotoh_score(query, d.codes(), &scheme))
        .collect();
    for shape in [ByteShape::Auto, ByteShape::InterSeq, ByteShape::Striped] {
        let (scores, _) = score_database_with(
            Backend::active(),
            shape,
            query,
            &subjects,
            subjects.whole(),
            &scheme,
            &mut Scratch::default(),
            &mut TierStats::default(),
        );
        assert_eq!(subjects.in_database_order(&scores), expected, "{shape:?}");
    }
    // The real runtime returns the same hits under every worker mix.
    let mut reference = None;
    for (cpus, gpus) in [(1, 0), (0, 1), (1, 1), (2, 2)] {
        let report = hybrid_search(&image, &queries, cpus, gpus).run();
        assert!(report.total_cells() > 0);
        assert!(report.wall_seconds() > 0.0 && report.wall_gcups() > 0.0);
        match &reference {
            None => reference = Some(report.hits().to_vec()),
            Some(r) => assert_eq!(r.as_slice(), report.hits(), "{cpus} CPU + {gpus} GPU"),
        }
    }
}

#[test]
fn traced_execution_produces_events() {
    let (_, image, queries) = uniprot_slice(0.0002, 2, 5);
    let report = hybrid_search(&image, &queries, 1, 1).observe().run();
    assert!(report.obs().is_enabled());
    assert!(report.obs().event_count() > 0);
    assert!(report.timeline().contains("traceEvents"));
}

#[test]
fn fault_demo_hits_are_identical() {
    // Faults move work, never change scores: a seeded fault plan leaves
    // the hits bit-identical to the fault-free run's.
    let (_, image, queries) = uniprot_slice(0.0002, 3, 9);
    let healthy = hybrid_search(&image, &queries, 2, 2).run();
    let faulted = hybrid_search(&image, &queries, 2, 2)
        .fault_seed(7)
        .min_job_timeout(std::time::Duration::from_millis(250))
        .run();
    let plan = swdual_repro::runtime::FaultPlan::seeded(7, 4);
    assert_eq!(
        healthy.hits(),
        faulted.hits(),
        "plan `{plan}` changed the hits"
    );
    assert!(healthy.wall_seconds() > 0.0 && faulted.wall_seconds() > 0.0);
}
