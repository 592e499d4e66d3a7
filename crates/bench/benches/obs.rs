//! Observability overhead: the per-job instrumentation path, enabled
//! vs disabled, and the fold every view reads.
//!
//! The disabled recorder is the default for every search, so its cost
//! is the price *all* users pay; the enabled cost bounds what `--trace`
//! / `--progress` runs add per job. Besides the criterion-style console
//! report, a full run (`cargo bench -p swdual-bench --bench obs`)
//! records the medians to `BENCH_obs.json` at the workspace root so
//! later PRs can diff the overhead.
//!
//! A second section times a *realistic CPU job* (striped score_many
//! over a small database chunk) with the profiler off and on, and
//! records the wall-time overhead ratio to `BENCH_profile.json` — the
//! `--profile` acceptance budget is ≤ 2% over an unprofiled job.
//!
//! Every full run also appends one stamped entry per bench to the
//! `BENCH_trend.json` ledger at the workspace root, which
//! `swdual diff --bench` compares (last two entries per bench) and can
//! gate on.

use swdual_align::engine::{AlignEngine, LadderEngine, PhaseTimings};
use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_bio::ScoringScheme;
use swdual_datagen::{synthetic_database, LengthModel};
use swdual_obs::{EventBody, HostPhase, Obs, OptWorker, RunModel, Track};

/// A job span carrying the task id alone, as the worker's did before
/// lineage tagging — the shape every ledger point so far was taken on.
fn bare_job(task: usize) -> EventBody {
    EventBody::Job {
        task,
        cells: None,
        seq: None,
        decision: None,
        queue_wait_wall: None,
        queue_wait_modelled: None,
    }
}

/// Mirror of the worker's per-job instrumentation: one span. The
/// allocation guard test drives the same sequence.
fn per_job(obs: &Obs, worker_id: usize, task_id: usize) {
    // Opaque, as a worker's recorder is: or the disabled loop folds away.
    let obs = std::hint::black_box(obs);
    let wall_start = obs.now();
    let wall_end = obs.now();
    if obs.is_enabled() {
        obs.span(
            Track::Worker(worker_id),
            wall_start,
            wall_end - wall_start,
            Some((0.0, 1.0)),
            bare_job(task_id),
        );
    }
}

/// Mirror of the CPU worker's per-job path with profiling hooks (see
/// `swdual_runtime::worker`): phased scoring when the profiler is on,
/// the task span, then the phase spans that subdivide it.
fn profiled_job(
    obs: &Obs,
    engine: &LadderEngine,
    query: &[u8],
    subjects: &[&[u8]],
    scheme: &ScoringScheme,
    task_id: usize,
) -> i32 {
    let wall_start = obs.now();
    let (scores, timings) = if obs.is_profiling() {
        let (scores, timings, _) = engine.score_many_cached(query, subjects, scheme, None);
        (scores, Some(timings))
    } else {
        (engine.score_many(query, subjects, scheme), None)
    };
    let wall_end = obs.now();
    if obs.is_enabled() {
        obs.span(
            Track::Worker(0),
            wall_start,
            wall_end - wall_start,
            Some((0.0, 1.0)),
            bare_job(task_id),
        );
    }
    if let Some(PhaseTimings {
        profile_build,
        dp_inner,
    }) = timings
    {
        let mut at = wall_start;
        for (phase, dur) in [
            (HostPhase::ProfileBuild, profile_build),
            (HostPhase::DpInner, dp_inner),
        ] {
            if dur <= 0.0 {
                continue;
            }
            obs.span(
                Track::Worker(0),
                at,
                dur,
                Some((at, dur)),
                EventBody::Phase {
                    phase,
                    task: task_id,
                },
            );
            at += dur;
        }
    }
    scores.into_iter().max().unwrap_or(0)
}

fn main() {
    // `cargo bench -- --test` (CI smoke) only checks the benches run.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (samples, iters) = if test_mode { (1, 10) } else { (21, 20_000) };

    let mut results: Vec<(&str, f64)> = Vec::new();
    let mut bench = |name: &'static str, ns: f64| {
        println!("obs_overhead/{name}  median {ns:.1} ns/op");
        results.push((name, ns));
    };

    let disabled = Obs::disabled();
    let mut task = 0usize;
    bench(
        "per_job_disabled",
        measure(samples, iters, || {
            task = task.wrapping_add(1);
            per_job(&disabled, task % 4, task);
        }),
    );

    let enabled = Obs::enabled();
    bench(
        "per_job_enabled",
        measure(samples, iters, || {
            task = task.wrapping_add(1);
            per_job(&enabled, task % 4, task);
        }),
    );

    // ---- explain fold cost ----
    //
    // The `swdual explain` analysis path: fold a populated run — plan
    // models, dispatch instants and lineage-stamped execution spans —
    // into the causal blame report. Priced per fold so later PRs can
    // diff the analysis cost, not just the recording cost.
    let lineage = {
        let obs = Obs::enabled();
        let workers = 4usize;
        let mut virt = vec![0.0f64; workers];
        for t in 0..256usize {
            let w = t % workers;
            obs.instant(
                Track::Master,
                EventBody::TaskModel {
                    task: t,
                    p_cpu: 1.0,
                    p_gpu: 0.25,
                    query_len: Some(120),
                    cells: Some(120_000.0),
                },
            );
            obs.instant(
                Track::Master,
                EventBody::TaskDispatch {
                    task: t,
                    worker: OptWorker(Some(w)),
                    seq: t as u64,
                    decision: 0,
                    virt: virt[w],
                },
            );
            obs.span(
                Track::Worker(w),
                virt[w] * 1e-6,
                1e-6,
                Some((virt[w], 1.0)),
                EventBody::Job {
                    task: t,
                    cells: Some(120_000.0),
                    seq: Some(t as u64),
                    decision: Some(0),
                    queue_wait_wall: Some(0.0),
                    queue_wait_modelled: Some(0.0),
                },
            );
            virt[w] += 1.0;
        }
        obs
    };
    bench(
        "explain_fold_256_tasks",
        measure(samples.min(11), iters / 1000 + 1, || {
            let model = RunModel::from_obs(&lineage);
            std::hint::black_box(swdual_obs::explain::explain(&model));
        }),
    );

    // ---- profiler overhead on a realistic job ----
    //
    // A striped score_many over a 32-sequence chunk, the shape of one
    // CPU worker job. Three configurations: no observability at all,
    // tracing without the profiler, and tracing with the profiler.
    // The acceptance budget is profiling ≤ 2% over the unprofiled job.
    let (job_samples, job_iters) = if test_mode { (1, 2) } else { (15, 200) };
    let db = synthetic_database("bench", 32, LengthModel::Fixed(80), 1);
    let chunk: Vec<&[u8]> = db.iter().map(|s| s.residues.as_slice()).collect();
    let query = db.get(0).expect("non-empty db").residues.clone();
    let scheme = ScoringScheme::protein_default();
    let engine = LadderEngine::AUTO;

    let mut profile_results: Vec<(&str, f64)> = Vec::new();
    let mut job_bench = |name: &'static str, obs: Obs, profiling: bool| {
        obs.set_profiling(profiling);
        let mut task = 0usize;
        let ns = measure(job_samples, job_iters, || {
            task = task.wrapping_add(1);
            std::hint::black_box(profiled_job(&obs, &engine, &query, &chunk, &scheme, task));
        });
        println!("profile_overhead/{name}  median {ns:.1} ns/op");
        profile_results.push((name, ns));
    };
    job_bench("job_baseline", Obs::disabled(), false);
    job_bench("job_profiling_disabled", Obs::enabled(), false);
    job_bench("job_profiling_enabled", Obs::enabled(), true);

    if test_mode {
        return;
    }

    // Record the profiler overhead for the acceptance check and later
    // PRs to diff against.
    let median_of = |name: &str| -> f64 {
        profile_results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .unwrap_or(0.0)
    };
    let baseline = median_of("job_baseline");
    let traced = median_of("job_profiling_disabled");
    let profiled = median_of("job_profiling_enabled");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut json =
        String::from("{\n  \"bench\": \"profile_overhead\",\n  \"unit\": \"ns_per_op\",\n");
    json.push_str("  \"medians\": {\n");
    for (i, (name, ns)) in profile_results.iter().enumerate() {
        let comma = if i + 1 < profile_results.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"profiling_over_traced\": {:.4},\n",
        ratio(profiled, traced)
    ));
    json.push_str(&format!(
        "  \"profiling_over_baseline\": {:.4},\n",
        ratio(profiled, baseline)
    ));
    json.push_str("  \"budget_profiling_over_traced\": 1.02\n}\n");
    write_report("profile", &json);

    // Record medians for later PRs to diff against.
    let ratio = results
        .iter()
        .find(|(n, _)| *n == "per_job_enabled")
        .map(|(_, e)| *e)
        .zip(
            results
                .iter()
                .find(|(n, _)| *n == "per_job_disabled")
                .map(|(_, d)| *d),
        )
        .map(|(e, d)| if d > 0.0 { e / d } else { 0.0 })
        .unwrap_or(0.0);
    let mut json = String::from("{\n  \"bench\": \"obs_overhead\",\n  \"unit\": \"ns_per_op\",\n");
    json.push_str("  \"medians\": {\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"enabled_over_disabled_per_job\": {ratio:.2}\n}}\n"
    ));
    write_report("obs", &json);

    // Append both benches to the trend ledger for `swdual diff --bench`.
    for (bench_name, metrics) in [
        ("obs_overhead", &results),
        ("profile_overhead", &profile_results),
    ] {
        let pairs: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (*n, *v)).collect();
        append_trend(bench_name, "ns_per_op", &pairs);
    }
}
