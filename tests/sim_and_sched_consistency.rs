//! Consistency between the layers: the platform simulator, the pure
//! scheduler and the runtime must tell one coherent story.

use swdual_repro::platform::calib::EngineModel;
use swdual_repro::platform::experiment::{run_hybrid, run_swdual, HybridPolicy};
use swdual_repro::platform::workload::{DatabaseSpec, Workload};
use swdual_repro::sched::binsearch::{dual_approx_schedule, BinarySearchConfig};
use swdual_repro::sched::PlatformSpec;

#[test]
fn experiment_time_is_serial_plus_schedule_makespan() {
    let workload = Workload::paper_queries(DatabaseSpec::uniprot());
    let cpu = EngineModel::swdual_cpu_worker();
    let gpu = EngineModel::swdual_gpu_worker();
    let platform = PlatformSpec::new(4, 4);
    let run = run_hybrid(&workload, &platform, HybridPolicy::DualGreedy, &cpu, &gpu);

    let tasks = workload.build_tasks(&cpu, &gpu);
    let sched = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
    let serial = cpu
        .serial_startup(workload.database.residues)
        .max(gpu.serial_startup(workload.database.residues));
    assert!(
        (run.seconds - (serial + sched.schedule.makespan())).abs() < 1e-6,
        "experiment {} != serial {} + makespan {}",
        run.seconds,
        serial,
        sched.schedule.makespan()
    );
}

#[test]
fn gcups_equals_cells_over_seconds_everywhere() {
    for db in DatabaseSpec::all_paper_databases() {
        let workload = Workload::paper_queries(db);
        let cells = workload.total_cells() as f64;
        for workers in [2usize, 8] {
            let r = run_swdual(&workload, workers, 4);
            let expected = cells / r.seconds / 1e9;
            assert!(
                (r.gcups - expected).abs() < 1e-9,
                "{}: {} vs {}",
                r.label,
                r.gcups,
                expected
            );
        }
    }
}

#[test]
fn swdual_dominates_its_own_components() {
    // The hybrid must beat both the CPU-only and GPU-only runs with the
    // same total worker count — the paper's core selling point.
    let workload = Workload::paper_queries(DatabaseSpec::uniprot());
    use swdual_repro::platform::experiment::run_single_kind;
    use swdual_repro::sched::schedule::PeKind;
    for workers in [2usize, 4] {
        let hybrid = run_swdual(&workload, workers, 4).seconds;
        let cpu_only =
            run_single_kind(&workload, &EngineModel::swipe(), workers, PeKind::Cpu).seconds;
        assert!(
            hybrid < cpu_only,
            "{workers} workers: {hybrid} vs CPU {cpu_only}"
        );
    }
    // At 2 workers the paper's own Table II has CUDASW++ (2 GPUs,
    // 445.6 s) beating SWDUAL (1 GPU + 1 CPU, 543.3 s) — SWDUAL trades
    // one GPU for a CPU. The hybrid takes the lead at 4 workers
    // (272 s vs 292 s). Check both relationships hold in the model.
    let gpu2 = run_single_kind(&workload, &EngineModel::cudasw(), 2, PeKind::Gpu).seconds;
    let hybrid2 = run_swdual(&workload, 2, 4).seconds;
    assert!(
        gpu2 < hybrid2,
        "2 workers: GPU-only {gpu2} vs hybrid {hybrid2}"
    );
    let gpu4 = run_single_kind(&workload, &EngineModel::cudasw(), 4, PeKind::Gpu).seconds;
    let hybrid4 = run_swdual(&workload, 4, 4).seconds;
    assert!(
        hybrid4 < gpu4,
        "4 workers: hybrid {hybrid4} vs GPU-only {gpu4}"
    );
}

#[test]
fn runtime_allocation_matches_scheduler_split() {
    // The runtime's task split (which workers got how many tasks) must
    // reflect the scheduler's assignment computed from the same rate
    // models.
    use swdual_repro::core::SearchBuilder;
    use swdual_repro::datagen::{
        queries_from_database, synthetic_database, LengthModel, MutationProfile,
    };

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
