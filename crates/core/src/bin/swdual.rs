//! `swdual` — command-line interface to the hybrid search engine.
//!
//! Mirrors the paper's tool shape (Table I shows each baseline's CLI):
//!
//! ```text
//! swdual search   --db DB.(fasta|sqb) --queries Q.fasta
//!                 [--cpus N] [--gpus N] [--device-class SPEC]
//!                 [--prior-scale W:F[,W:F...]]
//!                 [--reopt] [--reopt-threshold F] [--reopt-min-remaining N]
//!                 [--policy dual|dual-dp|self]
//!                 [--top K] [--gap-open N] [--gap-extend N] [--evalues]
//!                 [--trace-out TRACE.json] [--metrics-out METRICS.prom]
//!                 [--journal-out EVENTS.jsonl] [--progress] [--profile]
//!                 [--watchdog] [--live-socket PATH]
//!                 [--fault-plan SPEC | --fault-seed N]
//!                 [--job-timeout-slack F] [--min-job-timeout-ms MS]
//! swdual analyze  EVENTS.jsonl [--json|--text] [-o FILE]
//! swdual explain  EVENTS.jsonl [--what-if SPEC] [--json|--text] [-o FILE]
//! swdual profile  EVENTS.jsonl [--flame OUT.folded] [--speedscope OUT.json]
//!                 [--roofline] [--json] [-o FILE]
//! swdual top      SOCKET|EVENTS.jsonl [--refresh-ms MS]
//! swdual tail     EVENTS.jsonl [--follow] [--alerts-only]
//! swdual diff     BASE.jsonl HEAD.jsonl [--profile] [--json|--text]
//!                 [--threshold PCT] [--fail-on-regression] [--exact-only]
//!                 [-o FILE]
//! swdual diff     --bench [LEDGER.json] [--bench-name NAME] ...
//! swdual convert  --input DB.fasta --output DB.sqb
//! swdual generate --sequences N --mean-len L --output DB.fasta [--seed S]
//! swdual info     --db DB.(fasta|sqb)
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use swdual_bio::karlin;
use swdual_bio::stats::LengthStats;
use swdual_bio::{fasta, sqb, Alphabet, Matrix, ScoringScheme, SequenceSet, SqbImage};
use swdual_core::{ProgressReporter, SearchBuilder};
use swdual_datagen::{synthetic_database, LengthModel};
use swdual_gpusim::DeviceClass;
use swdual_runtime::{AllocationPolicy, FaultPlan, ReoptConfig, WorkerSpec};
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::knapsack::DpConfig;

/// Print to stdout, exiting quietly when the reader has gone away
/// (`swdual info db | head` must not panic on the broken pipe).
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn usage() -> &'static str {
    "swdual — hybrid CPU+GPU Smith-Waterman database search (SWDUAL reproduction)

USAGE:
  swdual search   --db FILE --queries FILE [--cpus N] [--gpus N]
                  [--device-class SPEC] [--prior-scale W:F[,W:F...]]
                  [--reopt] [--reopt-threshold F] [--reopt-min-remaining N]
                  [--policy dual|dual-dp|self] [--top K]
                  [--gap-open N] [--gap-extend N] [--evalues]
                  [--trace-out TRACE.json] [--metrics-out METRICS.prom]
                  [--journal-out EVENTS.jsonl] [--progress] [--profile]
                  [--watchdog] [--live-socket PATH]
                  [--fault-plan SPEC | --fault-seed N]
                  [--job-timeout-slack F] [--min-job-timeout-ms MS]
  swdual analyze  EVENTS.jsonl [--json|--text] [-o FILE]
  swdual explain  EVENTS.jsonl [--what-if SPEC] [--json|--text] [-o FILE]
  swdual profile  EVENTS.jsonl [--flame OUT.folded] [--speedscope OUT.json]
                  [--roofline] [--json] [-o FILE]
  swdual top      SOCKET|EVENTS.jsonl [--refresh-ms MS]
  swdual tail     EVENTS.jsonl [--follow] [--alerts-only]
  swdual diff     BASE.jsonl HEAD.jsonl [--profile] [--json|--text]
                  [--threshold PCT] [--fail-on-regression] [--exact-only]
                  [-o FILE]
  swdual diff     --bench [LEDGER.json] [--bench-name NAME] ...
  swdual convert  --input FILE.fasta --output FILE.sqb
  swdual generate --sequences N --mean-len L --output FILE [--seed S]
  swdual info     --db FILE

Database/query files may be FASTA (.fasta/.fa) or SQB (.sqb). The
journal readers (`analyze`, `explain`, `tail`) accept `-` to read the
journal from stdin.

Watching a run live:
  --watchdog           run the incremental anomaly watchdog during the
                       search: straggler / bound-at-risk / worker-dead
                       / queue-stall / re-opt alerts are journaled as
                       alert_* fault instants, counted in
                       swdual_alerts_total{kind=...}, and echoed to
                       stderr as they fire
  --live-socket PATH   stream the growing journal over a Unix domain
                       socket; `swdual top PATH` renders it as a live
                       dashboard, `nc -U PATH` taps the raw JSONL
  swdual top SRC       live per-worker dashboard (utilization bars,
                       queue depths, observed/estimate ratio, ETA,
                       active alerts) from a live socket or a recorded
                       journal file
  swdual tail SRC      follow a journal file (or stdin) line by line;
                       --alerts-only prints just the watchdog alerts

A search with observability enabled also arms the flight recorder: on
a panic, the last events are dumped to CRASH-<pid>.jsonl (next to
--journal-out, else the working directory; $SWDUAL_CRASH_DIR
overrides) — `swdual explain CRASH-<pid>.jsonl` folds the fragment.

`swdual analyze` audits a `--journal-out` journal: achieved makespan
vs the dual-approximation λ and its 2λ guarantee, per-worker
utilization, load imbalance, latency quantiles and plan skew.

`swdual explain` reconstructs a run's causal lineage from a v2
journal: the true critical path (planned → dispatched → executed, on
both clocks) and a blame decomposition that attributes 100% of the
modelled makespan to compute / transfer / queue-wait / straggle /
re-plan / recovery / imbalance, per run, per worker and per
query-length bucket. `--what-if SPEC` replays the recorded schedule on
the modelled clock under a counterfactual premise and reports the
predicted makespan against the 2λ guarantee:
  drop-worker:N        remove worker N from the platform
  perfect-calibration  plan with the speeds the run actually observed
  zero-transfer        GPU workers pay no host↔device transfer
  plus-gpu:CLASS       add one GPU of a device class (c2050|phi|knl|bioseal)
  no-faults            faulted workers run at their species' best speed

`swdual profile` folds a journal (ideally recorded with `search
--profile` for phase-level detail) into a profile: `--flame` writes
collapsed stacks for flamegraph.pl / inferno, `--speedscope` writes a
speedscope.app document with one profile per clock, and `--roofline`
(the default) prints the per-device roofline report — achieved vs
attainable GCUPS and a transfer- vs compute-bound verdict per
query-length bucket.

`swdual diff` compares two journals (base, then head): makespans on
both clocks, the λ/2λ bound margin, per-worker utilization, latency
quantiles, throughput and fault counts — each delta classified
IMPROVED / REGRESSED / neutral. Modelled-clock metrics are judged
exactly; wall-clock metrics get `--threshold PCT` slack (default 5%);
histogram quantiles additionally honor the one-bucket relative error.
`--profile` folds in per-phase self-times, per-device busy time and
roofline-verdict flips. `--fail-on-regression` exits non-zero when
anything regressed (`--exact-only` restricts the gate to the
deterministic modelled-clock lane, the CI setting). `--bench` diffs
the last two entries per bench in the `BENCH_trend.json` ledger
instead of journals.

Device zoo (simulated accelerator classes; scores never change):
  --device-class SPEC  GPU worker device class(es): a name (c2050 | phi
                       | knl | bioseal), a comma list (one GPU per
                       entry), or \"mixed\" (one of each class). A single
                       name is replicated across --gpus workers.
  --prior-scale W:F    skew worker W's *declared* rate model by factor
                       F (comma-separable) — deliberate miscalibration
                       for re-optimization experiments.

Online re-optimization (off by default; hits never change):
  --reopt                   enable re-planning of undispatched tasks
                            when observed per-worker slowdown skew
                            exceeds the threshold
  --reopt-threshold F       skew ratio that triggers a re-plan
                            (default 1.5; implies --reopt)
  --reopt-min-remaining N   minimum undispatched tasks worth
                            re-planning (default 2; implies --reopt)

Fault injection (deterministic; hits are identical to a fault-free run
as long as one worker survives):
  --fault-plan SPEC    explicit plan, e.g. \"1:crash@2,2:device@0\"
                       (noreg | crash@N | vanish@N | device@K | straggle@MSxF)
  --fault-seed N       derive a pseudo-random plan from seed N
                       (always spares at least one worker)"
}

/// Parse `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        // Boolean flags.
        if matches!(
            key,
            "evalues" | "progress" | "json" | "text" | "profile" | "reopt" | "watchdog"
        ) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

/// Read a journal argument: `-` means stdin, anything else is a file.
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// Read a journal argument and fold it into the model every report
/// is a view of.
fn read_model(path: &str) -> Result<swdual_obs::RunModel, String> {
    swdual_obs::RunModel::from_journal(&read_input(path)?).map_err(|e| format!("{path}: {e}"))
}

fn load_set(path: &str) -> Result<SequenceSet, String> {
    if path.ends_with(".sqb") {
        let mut file = sqb::SqbFile::open(path).map_err(|e| format!("{path}: {e}"))?;
        file.read_all().map_err(|e| format!("{path}: {e}"))
    } else {
        fasta::read_file(path, Alphabet::Protein, fasta::ResiduePolicy::Lossy)
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// The database of a search: an `.sqb` file is read into its image as
/// it is, anything else is parsed as FASTA and encoded to one.
fn load_database(path: &str) -> Result<SqbImage, String> {
    if path.ends_with(".sqb") {
        SqbImage::open(path)
    } else {
        fasta::read_image(path, Alphabet::Protein, fasta::ResiduePolicy::Lossy)
    }
    .map_err(|e| format!("{path}: {e}"))
}

fn cmd_search(flags: HashMap<String, String>) -> Result<(), String> {
    let db_path = flags.get("db").ok_or("--db is required")?;
    let q_path = flags.get("queries").ok_or("--queries is required")?;
    let cpus: usize = flags
        .get("cpus")
        .map_or(Ok(1), |v| v.parse().map_err(|_| "--cpus"))?;
    let gpus: usize = flags
        .get("gpus")
        .map_or(Ok(1), |v| v.parse().map_err(|_| "--gpus"))?;
    let top: usize = flags
        .get("top")
        .map_or(Ok(10), |v| v.parse().map_err(|_| "--top"))?;
    let gap_open: i32 = flags
        .get("gap-open")
        .map_or(Ok(10), |v| v.parse().map_err(|_| "--gap-open"))?;
    let gap_extend: i32 = flags
        .get("gap-extend")
        .map_or(Ok(2), |v| v.parse().map_err(|_| "--gap-extend"))?;
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("dual") {
        "dual" => AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
        "dual-dp" => AllocationPolicy::DualApprox(KnapsackMethod::Dp(DpConfig::default())),
        "self" => AllocationPolicy::SelfScheduling,
        other => return Err(format!("unknown policy {other:?} (dual|dual-dp|self)")),
    };
    // Device zoo: which class each simulated GPU worker belongs to.
    let gpu_classes: Vec<DeviceClass> = match flags.get("device-class").map(String::as_str) {
        None => vec![DeviceClass::C2050; gpus],
        Some("mixed") => DeviceClass::ALL.to_vec(),
        Some(spec) => {
            let list: Vec<DeviceClass> = spec
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<_, _>>()?;
            if list.len() == 1 {
                vec![list[0]; gpus.max(1)]
            } else {
                if flags.contains_key("gpus") && gpus != list.len() {
                    return Err(format!(
                        "--gpus {} conflicts with the {}-entry --device-class list",
                        gpus,
                        list.len()
                    ));
                }
                list
            }
        }
    };
    let gpus = gpu_classes.len();
    if cpus + gpus == 0 {
        return Err("need at least one worker (--cpus/--gpus)".into());
    }

    let database = load_database(db_path)?;
    let queries = load_set(q_path)?;
    let db_residues = database.total_residues();
    let zoo_label = if gpus == 0 {
        "none".to_string()
    } else {
        gpu_classes
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join("+")
    };
    eprintln!(
        "database: {} sequences / {} residues; queries: {}; workers: {cpus} CPU + {gpus} GPU(sim: {zoo_label})",
        database.len(),
        db_residues,
        queries.len()
    );

    let mut workers = Vec::new();
    for &class in &gpu_classes {
        workers.push(WorkerSpec::device_class(class));
    }
    for _ in 0..cpus {
        workers.push(WorkerSpec::cpu_default());
    }
    if let Some(spec) = flags.get("prior-scale") {
        for part in spec.split(',') {
            let (w, f) = part
                .split_once(':')
                .ok_or_else(|| format!("--prior-scale entry {part:?} is not W:F"))?;
            let w: usize = w
                .trim()
                .parse()
                .map_err(|_| format!("--prior-scale worker {w:?}"))?;
            let f: f64 = f
                .trim()
                .parse()
                .map_err(|_| format!("--prior-scale factor {f:?}"))?;
            let spec = workers
                .get_mut(w)
                .ok_or_else(|| format!("--prior-scale worker {w} out of range"))?;
            *spec = spec.clone().with_prior_scale(f);
            eprintln!("prior: worker {w} declared rate model skewed x{f}");
        }
    }
    let scheme = ScoringScheme::new(Matrix::blosum62().clone(), gap_open, gap_extend);
    let query_lens: Vec<usize> = queries.iter().map(|s| s.len()).collect();
    let trace_out = flags.get("trace-out");
    let metrics_out = flags.get("metrics-out");
    let journal_out = flags.get("journal-out");
    let progress = flags.contains_key("progress");
    let profile = flags.contains_key("profile");
    let watchdog = flags.contains_key("watchdog");
    let live_socket = flags.get("live-socket");
    let observe = trace_out.is_some()
        || metrics_out.is_some()
        || journal_out.is_some()
        || progress
        || profile
        || watchdog
        || live_socket.is_some();
    let obs = if observe {
        swdual_obs::Obs::enabled()
    } else {
        swdual_obs::Obs::disabled()
    };
    // Phase/kernel-level detail spans; the journal then feeds
    // `swdual profile`.
    obs.set_profiling(profile);
    // Crash-surviving flight recorder: the last events are dumped to
    // CRASH-<pid>.jsonl if the process panics mid-search.
    if observe {
        let flight = swdual_obs::FlightRecorder::new(swdual_obs::flight::DEFAULT_FLIGHT_CAPACITY);
        obs.attach_flight(&flight);
        let crash_dir = journal_out
            .and_then(|p| std::path::Path::new(p).parent())
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(
                || std::path::PathBuf::from("."),
                std::path::Path::to_path_buf,
            );
        flight.install_panic_hook(&crash_dir);
    }
    let mut builder = SearchBuilder::new()
        .database_image(database)
        .queries(queries)
        .workers(workers)
        .scheme(scheme)
        .policy(policy)
        .top_k(top)
        .observability(obs.clone());
    match (flags.get("fault-plan"), flags.get("fault-seed")) {
        (Some(_), Some(_)) => {
            return Err("--fault-plan and --fault-seed are mutually exclusive".into())
        }
        (Some(spec), None) => {
            let plan = FaultPlan::parse(spec)?;
            eprintln!("faults: injecting plan `{plan}`");
            builder = builder.fault_plan(plan);
        }
        (None, Some(seed)) => {
            let seed: u64 = seed.parse().map_err(|_| "--fault-seed")?;
            let plan = FaultPlan::seeded(seed, cpus + gpus);
            eprintln!("faults: seed {seed} -> plan `{plan}`");
            builder = builder.fault_seed(seed);
        }
        (None, None) => {}
    }
    if let Some(slack) = flags.get("job-timeout-slack") {
        let slack: f64 = slack.parse().map_err(|_| "--job-timeout-slack")?;
        builder = builder.job_timeout_slack(slack);
    }
    if let Some(ms) = flags.get("min-job-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--min-job-timeout-ms")?;
        builder = builder.min_job_timeout(std::time::Duration::from_millis(ms));
    }
    if flags.contains_key("reopt")
        || flags.contains_key("reopt-threshold")
        || flags.contains_key("reopt-min-remaining")
    {
        let mut reopt = ReoptConfig::enabled();
        if let Some(v) = flags.get("reopt-threshold") {
            reopt.threshold = v
                .parse::<f64>()
                .ok()
                .filter(|t| *t >= 1.0)
                .ok_or("--reopt-threshold must be a number >= 1")?;
        }
        if let Some(v) = flags.get("reopt-min-remaining") {
            reopt.min_remaining = v.parse().map_err(|_| "--reopt-min-remaining")?;
        }
        eprintln!(
            "reopt: on (threshold x{}, min remaining {})",
            reopt.threshold, reopt.min_remaining
        );
        builder = builder.reopt(reopt);
    }
    if watchdog {
        let cfg = swdual_obs::watch::WatchConfig::default();
        eprintln!(
            "watchdog: on (straggler x{}, bound risk at {}x2\u{3bb})",
            cfg.straggler_ratio, cfg.bound_risk_fraction
        );
        builder = builder.watchdog(cfg);
    }
    if let Some(path) = live_socket {
        eprintln!("live: streaming journal on {path}");
        builder = builder.live(path.clone());
    }
    let reporter =
        progress.then(|| ProgressReporter::start(&obs, std::time::Duration::from_millis(250)));
    let result = builder.try_run();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => return Err(format!("search failed: {e}")),
    };

    if let Some(path) = trace_out {
        std::fs::write(path, report.timeline()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: wrote Chrome-trace JSON to {path}");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, report.metrics()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics: wrote Prometheus text to {path}");
    }
    if let Some(path) = journal_out {
        std::fs::write(path, report.journal()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("journal: wrote JSON-lines events to {path}");
    }

    let evalues = flags.contains_key("evalues");
    let stats = karlin::gapped_params(gap_open, gap_extend);
    if evalues && stats.is_none() {
        eprintln!(
            "note: no fitted gapped statistics for open {gap_open} / extend {gap_extend}; \
             E-values omitted"
        );
    }
    for qh in report.hits() {
        outln!("Query {}:", report.query_id(qh.query_index));
        for hit in &qh.hits {
            match (evalues, stats) {
                (true, Some(p)) => {
                    outln!(
                        "  {:<24} score {:>6}  bits {:>7.1}  E {:.2e}",
                        report.database_id(hit.db_index),
                        hit.score,
                        p.bit_score(hit.score),
                        p.evalue(hit.score, query_lens[qh.query_index], db_residues)
                    );
                }
                _ => outln!(
                    "  {:<24} score {:>6}",
                    report.database_id(hit.db_index),
                    hit.score
                ),
            }
        }
    }
    eprintln!();
    eprint!("{}", report.render_workers());
    eprintln!(
        "wall: {:.2} s ({:.3} GCUPS on this host)",
        report.wall_seconds(),
        report.wall_gcups()
    );
    Ok(())
}

/// Deliver a rendered report: to `out` when given, stdout otherwise.
fn emit(rendered: &str, out: Option<&str>, what: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{what}: wrote report to {path}");
        }
        None => outln!("{rendered}"),
    }
    Ok(())
}

/// `swdual analyze EVENTS.jsonl [--json|--text] [-o FILE]` — audit a
/// recorded journal against the scheduler's promises. Takes one
/// positional path, so it parses its own arguments.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut text = false;
    let mut out: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--text" => text = true,
            "-o" | "--out" => {
                out = Some(
                    args.get(i + 1)
                        .ok_or_else(|| format!("flag {} needs a value", args[i]))?,
                );
                i += 1;
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!(
                    "unknown analyze flag {other:?} (--json|--text|-o FILE)"
                ))
            }
            other => {
                if path.is_some() {
                    return Err("analyze takes exactly one journal path".into());
                }
                path = Some(other);
            }
        }
        i += 1;
    }
    let path = path.ok_or("usage: swdual analyze EVENTS.jsonl|- [--json|--text] [-o FILE]")?;
    if json && text {
        return Err("--json and --text are mutually exclusive".into());
    }
    let report = swdual_obs::analysis::analyze(&read_model(path)?);
    let rendered = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    emit(&rendered, out, "analyze")
}

/// `swdual explain EVENTS.jsonl [--what-if SPEC] [--json|--text]
/// [-o FILE]` — reconstruct a run's causal lineage: critical path,
/// blame attribution over the modelled makespan, and (with
/// `--what-if`) a counterfactual replay of the recorded schedule.
/// Takes one positional path, so it parses its own arguments (like
/// `analyze`).
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut premise: Option<&str> = None;
    let mut json = false;
    let mut text = false;
    let mut out: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--text" => text = true,
            "--what-if" | "-o" | "--out" => {
                let key = args[i].clone();
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {key} needs a value"))?;
                if key == "--what-if" {
                    premise = Some(value);
                } else {
                    out = Some(value);
                }
                i += 1;
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!(
                    "unknown explain flag {other:?} (--what-if SPEC|--json|--text|-o FILE)"
                ))
            }
            other => {
                if path.is_some() {
                    return Err("explain takes exactly one journal path".into());
                }
                path = Some(other);
            }
        }
        i += 1;
    }
    let path = path
        .ok_or("usage: swdual explain EVENTS.jsonl|- [--what-if SPEC] [--json|--text] [-o FILE]")?;
    if json && text {
        return Err("--json and --text are mutually exclusive".into());
    }
    let report = swdual_obs::explain::explain(&read_model(path)?);
    let rendered = match premise {
        Some(spec) => {
            let spec = swdual_core::whatif::WhatIf::parse(spec)?;
            let answer = swdual_core::whatif::what_if(&report.replay, &spec)?;
            if json {
                answer.to_json()
            } else {
                answer.to_text()
            }
        }
        None => {
            if json {
                report.to_json()
            } else {
                report.to_text()
            }
        }
    };
    emit(&rendered, out, "explain")
}

/// `swdual profile EVENTS.jsonl [--flame OUT] [--speedscope OUT]
/// [--roofline] [--json] [-o FILE]` — fold a journal into flamegraph /
/// speedscope / roofline views. Takes one positional path, so it
/// parses its own arguments (like `analyze`).
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut flame: Option<&str> = None;
    let mut speedscope: Option<&str> = None;
    let mut roofline = false;
    let mut json = false;
    let mut out: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--roofline" => roofline = true,
            "--json" => json = true,
            "--flame" | "--speedscope" | "-o" | "--out" => {
                let key = args[i].clone();
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {key} needs a value"))?;
                match key.as_str() {
                    "--flame" => flame = Some(value),
                    "--speedscope" => speedscope = Some(value),
                    _ => out = Some(value),
                }
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown profile flag {other:?} \
                     (--flame|--speedscope|--roofline|--json|-o FILE)"
                ))
            }
            other => {
                if path.is_some() {
                    return Err("profile takes exactly one journal path".into());
                }
                path = Some(other);
            }
        }
        i += 1;
    }
    let path = path.ok_or(
        "usage: swdual profile EVENTS.jsonl [--flame OUT.folded] [--speedscope OUT.json] \
         [--roofline] [--json] [-o FILE]",
    )?;
    let profile = swdual_obs::profile::Profile::from_model(&read_model(path)?);
    if let Some(out) = flame {
        let folded = swdual_obs::export::flamegraph_folded(
            &profile,
            swdual_obs::profile::ProfileClock::Modelled,
        );
        std::fs::write(out, folded).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("flame: wrote collapsed stacks (modelled clock) to {out}");
    }
    if let Some(out) = speedscope {
        let doc = swdual_obs::export::speedscope_json(&profile);
        std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("speedscope: wrote profile document to {out}");
    }
    // The roofline report is the default view when no export was
    // requested, and can always be asked for explicitly.
    if roofline || json || out.is_some() || (flame.is_none() && speedscope.is_none()) {
        let report = profile.roofline();
        let rendered = if json {
            report.to_json()
        } else {
            report.to_text()
        };
        emit(&rendered, out, "profile")?;
    }
    Ok(())
}

/// Print the dashboard for the watchdog's current model. On a TTY the
/// screen is cleared so `top` redraws in place; piped output gets the
/// frames sequentially, separated by a blank line.
fn draw_dashboard(dog: &swdual_obs::watch::Watchdog) {
    use std::io::IsTerminal;
    if std::io::stdout().is_terminal() {
        print!("\x1b[2J\x1b[H");
        outln!("{}", swdual_core::live::render_dashboard(dog));
    } else {
        outln!("{}\n", swdual_core::live::render_dashboard(dog));
    }
}

/// Connect to a live socket, retrying briefly so `swdual top` can be
/// launched in the same breath as (or just before) the search that
/// binds it.
#[cfg(unix)]
fn connect_live(path: &str) -> Result<std::os::unix::net::UnixStream, String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!(
                        "{path}: {e} (is the search running with --live-socket?)"
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// Follow a live socket: fold each streamed journal line through the
/// watchdog, redraw every `refresh`, final frame on EOF.
#[cfg(unix)]
fn top_follow_socket(
    stream: std::os::unix::net::UnixStream,
    refresh: std::time::Duration,
) -> Result<(), String> {
    use std::io::BufRead;

    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(50)))
        .map_err(|e| format!("live stream: {e}"))?;
    let mut reader = std::io::BufReader::new(stream);
    let mut dog = swdual_obs::watch::Watchdog::new(swdual_obs::watch::WatchConfig::default());
    let mut line = String::new();
    let mut header_seen = false;
    let mut dirty = true;
    let mut last_draw: Option<std::time::Instant> = None;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break, // clean EOF: the run ended and we caught up
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    if header_seen {
                        if let Ok(event) = swdual_obs::journal::parse_event_line(trimmed) {
                            dog.observe(&event);
                            dirty = true;
                        }
                    } else {
                        swdual_obs::journal::journal_schema(trimmed)
                            .map_err(|e| format!("live stream: {e}"))?;
                        header_seen = true;
                    }
                }
                line.clear();
            }
            // Timeout slice with no new events (a partial line, if
            // any, stays buffered in `line` and completes next read).
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("live stream: {e}")),
        }
        if dirty && last_draw.is_none_or(|t| t.elapsed() >= refresh) {
            draw_dashboard(&dog);
            dirty = false;
            last_draw = Some(std::time::Instant::now());
        }
    }
    draw_dashboard(&dog);
    eprintln!("top: stream ended");
    Ok(())
}

/// `swdual top SOCKET|EVENTS.jsonl [--refresh-ms MS]` — live
/// per-worker dashboard. A Unix-socket source (a `--live-socket`
/// search) is followed until the run ends; a journal file (or `-`)
/// renders the run's final state once.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut source: Option<&str> = None;
    let mut refresh_ms: u64 = 250;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--refresh-ms" => {
                refresh_ms = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--refresh-ms needs a millisecond count")?;
                i += 1;
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown top flag {other:?} (--refresh-ms MS)"));
            }
            other => {
                if source.is_some() {
                    return Err("top takes exactly one source".into());
                }
                source = Some(other);
            }
        }
        i += 1;
    }
    let source = source.ok_or("usage: swdual top SOCKET|EVENTS.jsonl [--refresh-ms MS]")?;

    // A regular file (or stdin) is a recorded journal: fold it whole
    // and render the end-of-run dashboard.
    if source == "-" || std::path::Path::new(source).is_file() {
        let contents = read_input(source)?;
        let mut dog = swdual_obs::watch::Watchdog::new(swdual_obs::watch::WatchConfig::default());
        swdual_obs::journal::read_journal(&contents, |event| {
            dog.observe(&event);
        })
        .map_err(|e| format!("{source}: {e}"))?;
        draw_dashboard(&dog);
        return Ok(());
    }

    #[cfg(unix)]
    {
        let stream = connect_live(source)?;
        top_follow_socket(stream, std::time::Duration::from_millis(refresh_ms.max(1)))
    }
    #[cfg(not(unix))]
    {
        let _ = refresh_ms;
        Err(format!(
            "{source}: live sockets need a Unix platform; pass a journal file instead"
        ))
    }
}

/// One compact `swdual tail` line per journal event.
fn render_event_line(event: &swdual_obs::Event) -> String {
    match event.kind {
        swdual_obs::EventKind::Span => format!(
            "{:9.3}s  {:<14} {} (+{:.3}s)",
            event.wall_start,
            event.track.label(),
            event.name(),
            event.wall_dur
        ),
        swdual_obs::EventKind::Instant => format!(
            "{:9.3}s  {:<14} {}",
            event.wall_start,
            event.track.label(),
            event.name()
        ),
    }
}

/// Print one tailed journal line (shared by the file and stdin
/// paths): alerts always, other events unless `--alerts-only`.
fn tail_emit(trimmed: &str, alerts_only: bool) {
    let Ok(event) = swdual_obs::journal::parse_event_line(trimmed) else {
        return; // tolerate torn writes while following
    };
    if let Some(alert) = swdual_obs::watch::Alert::from_event(&event) {
        outln!("{}", swdual_core::live::render_alert_line(&alert));
    } else if !alerts_only {
        outln!("{}", render_event_line(&event));
    }
}

/// `swdual tail EVENTS.jsonl [--follow] [--alerts-only]` — stream a
/// journal (or stdin with `-`) line by line; `--follow` keeps reading
/// as the file grows, `--alerts-only` filters to watchdog alerts.
fn cmd_tail(args: &[String]) -> Result<(), String> {
    use std::io::BufRead;

    let mut source: Option<&str> = None;
    let mut follow = false;
    let mut alerts_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--follow" => follow = true,
            "--alerts-only" => alerts_only = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(format!(
                    "unknown tail flag {other:?} (--follow|--alerts-only)"
                ));
            }
            other => {
                if source.is_some() {
                    return Err("tail takes exactly one journal path".into());
                }
                source = Some(other);
            }
        }
        i += 1;
    }
    let source = source.ok_or("usage: swdual tail EVENTS.jsonl|- [--follow] [--alerts-only]")?;

    let mut header_seen = false;
    let mut handle_line = |trimmed: &str| -> Result<(), String> {
        if trimmed.is_empty() {
            return Ok(());
        }
        if header_seen {
            tail_emit(trimmed, alerts_only);
        } else {
            swdual_obs::journal::journal_schema(trimmed).map_err(|e| format!("{source}: {e}"))?;
            header_seen = true;
        }
        Ok(())
    };

    if source == "-" {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("stdin: {e}"))?;
            handle_line(line.trim())?;
        }
        return Ok(());
    }

    let file = std::fs::File::open(source).map_err(|e| format!("{source}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                if !follow {
                    return Ok(());
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            Ok(_) => {
                if follow && !line.ends_with('\n') {
                    // Torn tail while the writer is mid-line: back off
                    // until the newline lands, then re-read the line.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    reader
                        .seek_relative(-(line.len() as i64))
                        .map_err(|e| format!("{source}: {e}"))?;
                    continue;
                }
                handle_line(line.trim())?;
            }
            Err(e) => return Err(format!("{source}: {e}")),
        }
    }
}

/// `swdual diff BASE.jsonl HEAD.jsonl [...]` / `swdual diff --bench
/// [LEDGER.json]` — compare two runs (or the last two entries of each
/// bench in the trend ledger) and optionally gate on regressions.
/// Returns the process exit code so `--fail-on-regression` can fail
/// the build after still printing the full report.
fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut bench = false;
    let mut bench_name: Option<&str> = None;
    let mut profile = false;
    let mut json = false;
    let mut text = false;
    let mut out: Option<&str> = None;
    let mut fail_on_regression = false;
    let mut exact_only = false;
    let mut threshold: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = true,
            "--profile" => profile = true,
            "--json" => json = true,
            "--text" => text = true,
            "--fail-on-regression" => fail_on_regression = true,
            "--exact-only" => exact_only = true,
            "--bench-name" | "--threshold" | "-o" | "--out" => {
                let key = args[i].clone();
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {key} needs a value"))?;
                match key.as_str() {
                    "--bench-name" => bench_name = Some(value.as_str()),
                    "--threshold" => {
                        threshold = Some(
                            value
                                .parse()
                                .map_err(|_| "--threshold must be a percentage")?,
                        )
                    }
                    _ => out = Some(value.as_str()),
                }
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown diff flag {other:?} (--bench|--bench-name NAME|--profile|\
                     --json|--text|--threshold PCT|--fail-on-regression|--exact-only|-o FILE)"
                ))
            }
            other => paths.push(other),
        }
        i += 1;
    }
    if json && text {
        return Err("--json and --text are mutually exclusive".into());
    }
    let mut opts = swdual_obs::diff::DiffOptions {
        include_profile: profile,
        ..Default::default()
    };
    if let Some(pct) = threshold {
        if !(0.0..=100.0).contains(&pct) {
            return Err("--threshold must be a percentage in [0, 100]".into());
        }
        opts.wall_tolerance = pct / 100.0;
    }
    let report = if bench {
        if paths.len() > 1 {
            return Err("diff --bench takes at most one ledger path".into());
        }
        let ledger_path = paths.first().copied().unwrap_or("BENCH_trend.json");
        let ledger = swdual_obs::trend::TrendLedger::load(std::path::Path::new(ledger_path))?;
        swdual_obs::trend::diff_trend(&ledger, bench_name, &opts)?
    } else {
        if bench_name.is_some() {
            return Err("--bench-name only applies with --bench".into());
        }
        let (base_path, head_path) = match paths.as_slice() {
            [base, head] => (*base, *head),
            _ => {
                return Err(
                    "usage: swdual diff BASE.jsonl HEAD.jsonl [--profile] [--json|--text] \
                     [--threshold PCT] [--fail-on-regression] [--exact-only] [-o FILE]"
                        .into(),
                )
            }
        };
        swdual_obs::diff::diff_models(&read_model(base_path)?, &read_model(head_path)?, &opts)
    };
    let rendered = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    emit(&rendered, out, "diff")?;
    if fail_on_regression {
        let regressed = report.regressions(exact_only);
        if !regressed.is_empty() {
            eprintln!(
                "diff: FAIL — {} regressed metric(s): {}",
                regressed.len(),
                regressed.join(", ")
            );
            return Ok(ExitCode::FAILURE);
        }
        let lane = if exact_only {
            "modelled-clock lane clean"
        } else {
            "no regressions"
        };
        eprintln!("diff: PASS — {lane}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_convert(flags: HashMap<String, String>) -> Result<(), String> {
    let input = flags.get("input").ok_or("--input is required")?;
    let output = flags.get("output").ok_or("--output is required")?;
    let set = load_set(input)?;
    if output.ends_with(".sqb") {
        sqb::write_file(&set, output).map_err(|e| e.to_string())?;
    } else {
        fasta::write_file(&set, output).map_err(|e| e.to_string())?;
    }
    outln!(
        "converted {} sequences ({} residues): {input} -> {output}",
        set.len(),
        set.total_residues()
    );
    Ok(())
}

fn cmd_generate(flags: HashMap<String, String>) -> Result<(), String> {
    let n: usize = flags
        .get("sequences")
        .ok_or("--sequences is required")?
        .parse()
        .map_err(|_| "--sequences must be a number")?;
    let mean: f64 = flags
        .get("mean-len")
        .ok_or("--mean-len is required")?
        .parse()
        .map_err(|_| "--mean-len must be a number")?;
    let output = flags.get("output").ok_or("--output is required")?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(2014), |v| v.parse().map_err(|_| "--seed"))?;
    let set = synthetic_database("synth", n, LengthModel::protein_database(mean), seed);
    if output.ends_with(".sqb") {
        sqb::write_file(&set, output).map_err(|e| e.to_string())?;
    } else {
        fasta::write_file(&set, output).map_err(|e| e.to_string())?;
    }
    outln!(
        "generated {} sequences ({} residues) -> {output}",
        set.len(),
        set.total_residues()
    );
    Ok(())
}

fn cmd_info(flags: HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("db").ok_or("--db is required")?;
    let set = load_set(path)?;
    outln!("file:      {path}");
    outln!("alphabet:  {:?}", set.alphabet);
    outln!("sequences: {}", set.len());
    outln!("residues:  {}", set.total_residues());
    if let Some(stats) = LengthStats::of_set(&set) {
        outln!(
            "lengths:   min {} / median {} / mean {:.1} / max {} (sd {:.1})",
            stats.min,
            stats.median,
            stats.mean,
            stats.max,
            stats.std_dev
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // `analyze`, `explain`, `profile`, `diff`, `top` and `tail` take
    // positional journal paths and parse their own arguments; every other command
    // uses `--key value` flags. `diff` picks its own exit code so
    // `--fail-on-regression` can fail the build after printing the
    // report.
    if matches!(
        cmd.as_str(),
        "analyze" | "explain" | "profile" | "diff" | "top" | "tail"
    ) {
        let result = match cmd.as_str() {
            "analyze" => cmd_analyze(&args[1..]).map(|()| ExitCode::SUCCESS),
            "explain" => cmd_explain(&args[1..]).map(|()| ExitCode::SUCCESS),
            "profile" => cmd_profile(&args[1..]).map(|()| ExitCode::SUCCESS),
            "top" => cmd_top(&args[1..]).map(|()| ExitCode::SUCCESS),
            "tail" => cmd_tail(&args[1..]).map(|()| ExitCode::SUCCESS),
            _ => cmd_diff(&args[1..]),
        };
        return match result {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "search" => cmd_search(flags),
        "convert" => cmd_convert(flags),
        "generate" => cmd_generate(flags),
        "info" => cmd_info(flags),
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
