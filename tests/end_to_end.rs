//! Cross-crate integration tests: the full SWDUAL pipeline from files
//! to ranked hits, across allocation policies and worker mixes.

use swdual_repro::bio::{fasta, sqb, Alphabet, ScoringScheme};
use swdual_repro::core::SearchBuilder;
use swdual_repro::datagen::{
    queries_from_database, synthetic_database, LengthModel, MutationProfile,
};
use swdual_repro::runtime::{AllocationPolicy, WorkerSpec};
use swdual_repro::sched::dual::KnapsackMethod;

fn demo_database() -> swdual_repro::bio::SequenceSet {
    synthetic_database("db", 120, LengthModel::protein_database(250.0), 1001)
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
