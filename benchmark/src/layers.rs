//! The traced pass: searches with the benchmark's spans around each
//! crate boundary and the program's recorder on, then each layer's
//! public entry point called in isolation on the same inputs.

use crate::gate::TOP_K;
use crate::measure::{load_inputs, search, setup, task_set, Config, MIN_SEARCHES};
use crate::report::{median, Metric, Pass};
use crate::trace::Trace;
use std::hint::black_box;
use std::time::Instant;
use swdual_align::{EngineKind, PhaseTimings, ProfileCache, TierStats};
use swdual_bio::fasta::{self, ResiduePolicy};
use swdual_bio::{Alphabet, ScoringScheme};
use swdual_gpusim::{DeviceClass, GpuDevice};
use swdual_runtime::messages::top_k_hits;
use swdual_sched::{dual_approx_schedule, BinarySearchConfig};

const MAX_PAIRS: usize = 100;
/// Repetitions of the scheduler call, which takes microseconds.
const PLAN_REPEATS: usize = 5;

/// What one traced search contributes to the per-layer metrics.
struct TracedSearch {
    wall: f64,
    db_load: f64,
    query_load: f64,
    try_run: f64,
    render: f64,
    unattributed: f64,
    /// `SearchReport::wall_seconds()`: the runtime's own span.
    run: f64,
    busy_total: f64,
    busy_max: f64,
}

fn file_mb(path: &std::path::Path) -> Result<f64, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(meta.len() as f64 / 1e6)
}

pub fn per_layer(config: &Config) -> Result<Pass, String> {
    let prepared = setup(config, 1)?;
    let workload = &config.workload;
    let files = &prepared.files;
    let workers = (workload.cpus + workload.gpus) as f64;
    let cells = prepared.cells() as f64;
    let mut trace = Trace::on();
    let mut metrics = Vec::new();
    let mut put = |name, value| metrics.push(Metric::new(name, value));

    // Untraced and traced searches alternate, so that drift of the host
    // falls on both sides of `obs.overhead_frac` alike.
    let mut untraced_walls = Vec::new();
    let mut traced = Vec::new();
    let mut last_report = None;
    let mut failed = 0;
    let started = Instant::now();
    while traced.len() < MAX_PAIRS
        && (traced.len() < MIN_SEARCHES || started.elapsed().as_secs_f64() < config.seconds / 2.0)
    {
        let untraced = search(files, workload, false, &mut Trace::off(), 0)?;
        failed += usize::from(untraced.report.hits() != prepared.reference);
        untraced_walls.push(untraced.wall);
        drop(untraced);

        let searched = search(files, workload, true, &mut trace, traced.len())?;
        failed += usize::from(searched.report.hits() != prepared.reference);
        let busy: Vec<f64> = searched
            .report
            .worker_stats()
            .iter()
            .map(|s| s.busy_wall)
            .collect();
        traced.push(TracedSearch {
            wall: trace.seconds(searched.spans.root),
            db_load: trace.seconds(searched.spans.db_load),
            query_load: trace.seconds(searched.spans.query_load),
            try_run: trace.seconds(searched.spans.try_run),
            render: trace.seconds(searched.spans.render),
            unattributed: trace.self_seconds(searched.spans.root),
            run: searched.report.wall_seconds(),
            busy_total: busy.iter().sum(),
            busy_max: busy.iter().copied().fold(0.0, f64::max),
        });
        last_report = Some(searched.report);
    }
    let report = last_report.ok_or("no traced search ran")?;
    let attempted = 2 * traced.len();
    let total = |f: fn(&TracedSearch) -> f64| traced.iter().map(f).sum::<f64>();
    let mid = |f: fn(&TracedSearch) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let traced_wall = mid(|s| s.wall);
    let (database, queries) = load_inputs(files)?;
    let n_tasks = queries.len() as f64;

    // bio: the spans around the loaders, and the same database as FASTA.
    let db_load = mid(|s| s.db_load);
    put("bio.db_load_s", db_load);
    put("bio.db_load_mbps", file_mb(&files.database)? / db_load);
    put("bio.query_load_s", mid(|s| s.query_load));
    let fasta_db = prepared.dir.path().join("db.fasta");
    fasta::write_file(&database, &fasta_db).map_err(|e| format!("write FASTA database: {e}"))?;
    let span = trace.begin("isolated.bio.fasta_db_load", "bio", 0, None);
    let parsed = fasta::read_file(&fasta_db, Alphabet::Protein, ResiduePolicy::Lossy)
        .map_err(|e| format!("load FASTA database: {e}"))?;
    put(
        "bio.fasta_db_load_mbps",
        file_mb(&fasta_db)? / trace.end(span),
    );
    if parsed.total_residues() != database.total_residues() {
        return Err("the FASTA copy of the database lost residues".into());
    }
    drop(parsed);
    put(
        "bio.load_share",
        total(|s| s.db_load + s.query_load) / total(|s| s.wall),
    );

    // sched: the planner on this workload's task set.
    let (tasks, platform) = task_set(workload, &prepared.query_lens, prepared.db_residues);
    let mut plan_times = Vec::new();
    let mut outcome = None;
    for repeat in 0..PLAN_REPEATS {
        let span = trace.begin("isolated.sched.plan", "sched", repeat, None);
        outcome = Some(black_box(dual_approx_schedule(
            &tasks,
            &platform,
            BinarySearchConfig::default(),
        )));
        plan_times.push(trace.end(span));
    }
    let outcome = outcome.ok_or("the planner never ran")?;
    let plan = median(&plan_times);
    put("sched.plan_s", plan);
    put("sched.plan_us_per_task", plan / n_tasks * 1e6);
    put("sched.iterations", outcome.iterations as f64);
    put("sched.approx_ratio", outcome.approximation_ratio());
    put("sched.plan_share", plan / traced_wall);

    // align: the CPU worker's kernel, one thread, every query, with a
    // cache as fresh as a worker's.
    let scheme = ScoringScheme::protein_default();
    let engine = EngineKind::Striped.build();
    let cache = ProfileCache::default();
    let subjects: Vec<&[u8]> = database.iter().map(|s| s.codes()).collect();
    let mut phases = PhaseTimings::default();
    let mut tiers = TierStats::default();
    let mut scores = Vec::with_capacity(queries.len());
    let span = trace.begin("isolated.align.kernel", "align", 0, None);
    for query in &queries {
        let (s, t, tier) =
            engine.score_many_cached(query.codes(), &subjects, &scheme, Some(&cache));
        phases.profile_build += t.profile_build;
        phases.dp_inner += t.dp_inner;
        tiers.merge(&tier);
        scores.push(s);
    }
    trace.end(span);
    let kernel = phases.total();
    let kernel_gcups = cells / kernel / 1e9;
    put("align.kernel_s", kernel);
    put("align.kernel_gcups", kernel_gcups);
    put("align.profile_build_s", phases.profile_build);
    put("align.dp_inner_s", phases.dp_inner);
    put("align.profile_build_share", phases.profile_build / kernel);
    put(
        "align.byte_resolved_frac",
        tiers.byte_resolved as f64 / tiers.subjects as f64,
    );
    put("align.escalated_16", tiers.escalated_16 as f64);
    put("align.escalated_scalar", tiers.escalated_scalar as f64);

    // runtime's merge step on those score vectors; it must rebuild the
    // search's hits, or the isolated calls measure different work.
    let span = trace.begin("isolated.runtime.topk", "runtime", 0, None);
    let merged: Vec<_> = scores
        .iter()
        .enumerate()
        .map(|(q, s)| top_k_hits(q, s, TOP_K))
        .collect();
    let topk = trace.end(span);
    if merged != prepared.reference {
        return Err("the isolated kernel and merge disagree with the search's hits".into());
    }
    drop(scores);

    // gpusim: host seconds of the functional compute against the
    // simulated seconds it models. Zero where no device is in the pool.
    let mut gpu = [0.0; 6];
    if workload.gpus > 0 {
        let mut device = GpuDevice::new(DeviceClass::C2050.spec());
        let span = trace.begin("isolated.gpusim.upload", "gpusim", 0, None);
        let resident = device
            .upload(&database, true)
            .map_err(|e| format!("device upload: {e}"))?;
        let upload = trace.end(span);
        let span = trace.begin("isolated.gpusim.search", "gpusim", 0, None);
        let modelled: f64 = queries
            .iter()
            .map(|q| black_box(device.search(q.codes(), &resident, &scheme)).kernel_seconds)
            .sum();
        let host = trace.end(span);
        gpu = [
            host,
            cells / host / 1e6,
            modelled,
            host / modelled,
            upload,
            device.stats().warp_efficiency(),
        ];
    }
    put("gpusim.host_s", gpu[0]);
    put("gpusim.host_mcups", gpu[1]);
    put("gpusim.modelled_s", gpu[2]);
    put("gpusim.host_per_modelled", gpu[3]);
    put("gpusim.upload_host_s", gpu[4]);
    put("gpusim.warp_efficiency", gpu[5]);

    // runtime: the report's own accounting of the traced searches.
    let worker_gcups = cells * traced.len() as f64 / total(|s| s.busy_total) / 1e9;
    let overhead = mid(|s| s.run - s.busy_max);
    put("runtime.run_s", mid(|s| s.run));
    put("runtime.busy_max_s", mid(|s| s.busy_max));
    put("runtime.worker_gcups", worker_gcups);
    put("runtime.worker_over_kernel", worker_gcups / kernel_gcups);
    put(
        "runtime.utilisation",
        total(|s| s.busy_total) / (workers * total(|s| s.run)),
    );
    put(
        "runtime.imbalance",
        workers * mid(|s| s.busy_max / s.busy_total),
    );
    put("runtime.overhead_s", overhead);
    put("runtime.overhead_us_per_task", overhead / n_tasks * 1e6);
    put("runtime.topk_s", topk);

    // core: what the facade adds around the runtime.
    put("core.facade_s", mid(|s| s.try_run - s.run));
    put("core.render_s", mid(|s| s.render));
    put(
        "core.e2e_over_worker",
        cells / traced_wall / 1e9 / (workers * worker_gcups),
    );

    // obs: the recorder's cost on the search, and its folds.
    put("obs.traced_wall_s", traced_wall);
    put(
        "obs.overhead_frac",
        traced_wall / median(&untraced_walls) - 1.0,
    );
    put("obs.events", report.obs().event_count() as f64);
    let span = trace.begin("isolated.obs.journal", "obs", 0, None);
    let journal = black_box(report.journal());
    put("obs.journal_s", trace.end(span));
    put("obs.journal_mb", journal.len() as f64 / 1e6);
    drop(journal);
    let span = trace.begin("isolated.obs.analysis", "obs", 0, None);
    black_box(report.analysis());
    put("obs.analysis_s", trace.end(span));
    let span = trace.begin("isolated.obs.profile", "obs", 0, None);
    black_box(report.profile());
    put("obs.profile_s", trace.end(span));
    let span = trace.begin("isolated.obs.explain", "obs", 0, None);
    black_box(report.explain());
    put("obs.explain_s", trace.end(span));

    // The waterfall: where the traced search's wall time goes. Shares
    // of summed seconds, so they add up to one exactly.
    let wall = total(|s| s.wall);
    let planned = plan * traced.len() as f64;
    put("share.load", total(|s| s.db_load + s.query_load) / wall);
    put("share.plan", planned / wall);
    put("share.compute", total(|s| s.busy_max) / wall);
    put(
        "share.runtime_other",
        (total(|s| s.run - s.busy_max) - planned) / wall,
    );
    put("share.core", total(|s| s.try_run - s.run + s.render) / wall);
    put("share.unattributed", total(|s| s.unattributed) / wall);

    Ok(Pass {
        attempted,
        failed,
        metrics,
        trace: Some(trace),
    })
}
