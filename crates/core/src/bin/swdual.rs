//! `swdual` — command-line interface to the hybrid search engine.
//!
//! Mirrors the paper's tool shape (Table I shows each baseline's CLI).
//! [`SUBCOMMANDS`] is the one list of subcommands and of what each
//! accepts; `swdual help` prints it.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::ExitCode;
use swdual_bio::karlin;
use swdual_bio::stats::LengthStats;
use swdual_bio::{fasta, sqb, Alphabet, Matrix, ScoringScheme, SequenceSet, SqbImage};
use swdual_core::SearchBuilder;
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

/// One subcommand: what it accepts after its name, and what runs it.
struct Subcommand {
    /// The subcommand's lines of the `USAGE` block, after `swdual `.
    /// These declare its name and its flags ([`Subcommand::flags`]).
    synopsis: &'static str,
    /// How many positional arguments.
    positionals: std::ops::RangeInclusive<usize>,
    /// Whether `-` (stdin) is a positional argument.
    dash: bool,
    run: fn(&Args) -> Result<(), String>,
}

/// The name of a flag as written: `--name` without its dashes, and
/// `-o` for `out`.
fn flag_name(written: &str) -> Option<&str> {
    match written {
        "-o" => Some("out"),
        _ => written.strip_prefix("--"),
    }
}

impl Subcommand {
    fn name(&self) -> &'static str {
        self.synopsis.split_whitespace().next().unwrap_or_default()
    }

    /// Every flag the synopsis names and whether it takes a value: one
    /// does when the synopsis follows it with a word, not with `]`, `|`
    /// or a bracketed positional.
    fn flags(&self) -> Vec<(&'static str, bool)> {
        let words: Vec<&str> = self.synopsis.split_whitespace().collect();
        let mut flags = Vec::new();
        for (i, word) in words.iter().enumerate() {
            for flag in word.split(['[', ']', '|']) {
                let Some(name) = flag_name(flag) else {
                    continue;
                };
                let valued = word.ends_with(flag)
                    && words
                        .get(i + 1)
                        .is_some_and(|next| !next.starts_with(['[', '|', '-', '.']));
                flags.push((name, valued));
            }
        }
        flags
    }
}

static SUBCOMMANDS: [Subcommand; 8] = [
    Subcommand {
        synopsis: "search   --db FILE --queries FILE [--cpus N] [--gpus N]
                  [--device-class SPEC] [--prior-scale W:F[,W:F...]]
                  [--reopt] [--reopt-threshold F] [--reopt-min-remaining N]
                  [--policy dual|dual-dp|self] [--top K]
                  [--gap-open N] [--gap-extend N] [--evalues]
                  [--trace-out TRACE.json] [--metrics-out METRICS.prom]
                  [--journal-out EVENTS.jsonl] [--progress] [--profile]
                  [--watchdog]
                  [--fault-plan SPEC | --fault-seed N]
                  [--job-timeout-slack F] [--min-job-timeout-ms MS]",
        positionals: 0..=0,
        dash: false,
        run: cmd_search,
    },
    Subcommand {
        synopsis: "explain  EVENTS.jsonl [--what-if SPEC] [--json|--text] [-o FILE]",
        positionals: 1..=1,
        dash: true,
        run: cmd_explain,
    },
    Subcommand {
        synopsis: "top      EVENTS.jsonl [--refresh-ms MS]",
        positionals: 1..=1,
        dash: true,
        run: cmd_top,
    },
    Subcommand {
        synopsis: "tail     EVENTS.jsonl [--follow] [--alerts-only]",
        positionals: 1..=1,
        dash: true,
        run: cmd_tail,
    },
    Subcommand {
        synopsis: "diff     BASE.jsonl HEAD.jsonl [--profile] [--json|--text]
                  [--threshold PCT] [--fail-on-regression] [--exact-only]
                  [-o FILE]
  swdual diff     --bench [LEDGER.json] [--bench-name NAME] ...",
        positionals: 0..=2,
        dash: false,
        run: cmd_diff,
    },
    Subcommand {
        synopsis: "convert  --input FILE.fasta --output FILE.sqb",
        positionals: 0..=0,
        dash: false,
        run: cmd_convert,
    },
    Subcommand {
        synopsis: "generate --sequences N --mean-len L --output FILE [--seed S]",
        positionals: 0..=0,
        dash: false,
        run: cmd_generate,
    },
    Subcommand {
        synopsis: "info     --db FILE",
        positionals: 0..=0,
        dash: false,
        run: cmd_info,
    },
];

fn usage() -> String {
    let mut text = String::from(
        "swdual — hybrid CPU+GPU Smith-Waterman database search (SWDUAL reproduction)\n\nUSAGE:\n",
    );
    for subcommand in &SUBCOMMANDS {
        text.push_str(&format!("  swdual {}\n", subcommand.synopsis));
    }
    text.push_str(
        "
Database/query files may be FASTA (.fasta/.fa) or SQB (.sqb). The
journal readers (`explain`, `top`, `tail`) accept `-` to read the
journal from stdin.

Watching a run live:
  --journal-out FILE   write the journal as the search runs: whole lines,
                       flushed every 10 ms, so a run that panics or is
                       killed leaves a file every journal reader accepts
  --watchdog           run the incremental anomaly watchdog during the
                       search: straggler / bound-at-risk / worker-dead
                       / queue-stall / re-opt alerts are journaled as
                       alert_* fault instants, counted in
                       swdual_alerts_total{kind=...}, and echoed to
                       stderr as they fire
  --progress           print a progress line on stderr as the run goes
  swdual top FILE      live per-worker dashboard (utilization bars,
                       queue depths, observed/estimate ratio, ETA,
                       active alerts) of a journal file, followed as it
                       grows until the run's merge; a finished journal
                       renders once
  swdual tail FILE     print a journal file (or stdin) line by line;
                       --follow keeps reading as it grows,
                       --alerts-only prints just the watchdog alerts

`swdual explain` is the one report on a `--journal-out` journal
(`--json` for one document): the modelled and wall makespans against
the dual approximation's λ and its 2λ guarantee, latency quantiles,
plan skew and fault counts; the run's causal lineage (v2 journals) —
the true critical path, planned → dispatched → executed, on both
clocks, and a blame decomposition that attributes 100% of the modelled
makespan to compute / transfer / queue-wait / straggle / re-plan /
recovery / imbalance, per run, per worker and per query-length bucket;
one row per worker (utilization, MCUPS, queue wait, and self-times per
host phase when the search ran with `--profile`); and one roofline per
simulated device — achieved vs attainable GCUPS and a transfer- vs
compute-bound verdict per query-length bucket. For a timeline, run the
search with `--trace-out`: Perfetto and speedscope both open that
Chrome trace. `--what-if SPEC` replays the recorded schedule on the
modelled clock under a counterfactual premise and reports the
predicted makespan against the 2λ guarantee:
  drop-worker:N        remove worker N from the platform
  perfect-calibration  plan with the speeds the run actually observed
  zero-transfer        GPU workers pay no host↔device transfer
  plus-gpu:CLASS       add one GPU of a device class (c2050|phi|knl|bioseal)
  no-faults            faulted workers run at their species' best speed

`swdual diff` compares two journals' `explain` reports (base, then
head): makespans on both clocks, the λ/2λ bound margin, per-worker
utilization, latency quantiles, throughput and fault counts — each
delta classified
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
                       (always spares at least one worker)",
    );
    text
}

/// An argument list outside what a [`Subcommand`] accepts.
struct ArgError<'a> {
    subcommand: &'static Subcommand,
    problem: ArgProblem<'a>,
}

enum ArgProblem<'a> {
    UnknownFlag(&'a str),
    MissingValue(&'a str),
    Positionals(usize),
}

impl From<ArgError<'_>> for String {
    fn from(e: ArgError<'_>) -> String {
        let problem = match e.problem {
            ArgProblem::UnknownFlag(flag) => format!("unknown flag {flag:?}"),
            ArgProblem::MissingValue(flag) => format!("flag {flag} needs a value"),
            ArgProblem::Positionals(n) => format!("{n} positional argument(s) given"),
        };
        format!("{problem}\nusage: swdual {}", e.subcommand.synopsis)
    }
}

/// The arguments of one subcommand, checked against what it accepts.
struct Args<'a> {
    subcommand: &'static Subcommand,
    /// Flag name (without the dashes) to its value; `""` for a switch.
    flags: HashMap<&'static str, &'a str>,
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Check `args` against what `subcommand` accepts. A flag given
    /// twice keeps its last value.
    fn parse(args: &'a [String], subcommand: &'static Subcommand) -> Result<Self, ArgError<'a>> {
        let fail = |problem| {
            Err(ArgError {
                subcommand,
                problem,
            })
        };
        let flags = subcommand.flags();
        let mut parsed = Args {
            subcommand,
            flags: HashMap::new(),
            positionals: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') || (arg == "-" && subcommand.dash) {
                parsed.positionals.push(arg);
                continue;
            }
            let name = flag_name(arg);
            match flags.iter().find(|(known, _)| Some(*known) == name) {
                Some(&(switch, false)) => parsed.flags.insert(switch, ""),
                Some(&(flag, true)) => match rest.next() {
                    Some(value) => parsed.flags.insert(flag, value),
                    None => return fail(ArgProblem::MissingValue(arg)),
                },
                None => return fail(ArgProblem::UnknownFlag(arg)),
            };
        }
        if !subcommand.positionals.contains(&parsed.positionals.len()) {
            return fail(ArgProblem::Positionals(parsed.positionals.len()));
        }
        Ok(parsed)
    }

    /// Was this flag given?
    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The value of a valued flag, if given.
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.flags.get(flag).copied()
    }

    /// The value of a flag the subcommand cannot run without.
    fn required(&self, flag: &str) -> Result<&'a str, String> {
        self.get(flag)
            .ok_or_else(|| format!("--{flag} is required"))
    }

    /// The value of a numeric flag, if given.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{flag} needs a number, got {v:?}"))
            })
            .transpose()
    }
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

/// Write a set in the format its file name asks for.
fn write_set(set: &SequenceSet, path: &str) -> Result<(), String> {
    if path.ends_with(".sqb") {
        sqb::write_file(set, path)
    } else {
        fasta::write_file(set, path)
    }
    .map_err(|e| e.to_string())
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

fn cmd_search(flags: &Args) -> Result<(), String> {
    let db_path = flags.required("db")?;
    let q_path = flags.required("queries")?;
    let cpus: usize = flags.number("cpus")?.unwrap_or(1);
    let gpus: usize = flags.number("gpus")?.unwrap_or(1);
    let top: usize = flags.number("top")?.unwrap_or(10);
    if top == 0 {
        return Err(format!("--top must be >= 1, got {top}"));
    }
    let gap_open: i32 = flags.number("gap-open")?.unwrap_or(10);
    let gap_extend: i32 = flags.number("gap-extend")?.unwrap_or(2);
    for (flag, penalty) in [("gap-open", gap_open), ("gap-extend", gap_extend)] {
        if penalty < 0 {
            return Err(format!(
                "--{flag} is a penalty and must be >= 0, got {penalty}"
            ));
        }
    }
    let policy = match flags.get("policy").unwrap_or("dual") {
        "dual" => AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
        "dual-dp" => AllocationPolicy::DualApprox(KnapsackMethod::Dp(DpConfig::default())),
        "self" => AllocationPolicy::SelfScheduling,
        other => return Err(format!("unknown policy {other:?} (dual|dual-dp|self)")),
    };
    // Device zoo: which class each simulated GPU worker belongs to.
    let gpu_classes: Vec<DeviceClass> = match flags.get("device-class") {
        None => vec![DeviceClass::C2050; gpus],
        Some("mixed") => DeviceClass::ALL.to_vec(),
        Some(spec) => {
            let list = DeviceClass::parse_list(spec)?;
            if list.len() == 1 {
                vec![list[0]; gpus.max(1)]
            } else {
                if flags.has("gpus") && gpus != list.len() {
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
    let mut builder = SearchBuilder::new()
        .database_image(database)
        .queries(queries)
        .workers(workers)
        .scheme(scheme)
        .policy(policy)
        .top_k(top);
    if trace_out.is_some() || metrics_out.is_some() {
        builder = builder.observe();
    }
    // Phase/kernel-level detail spans; the journal then feeds
    // `swdual profile`.
    builder = builder
        .profile(flags.has("profile"))
        .progress(flags.has("progress"));
    match (flags.get("fault-plan"), flags.number::<u64>("fault-seed")?) {
        (Some(_), Some(_)) => {
            return Err("--fault-plan and --fault-seed are mutually exclusive".into())
        }
        (Some(spec), None) => {
            let plan = FaultPlan::parse(spec)?;
            eprintln!("faults: injecting plan `{plan}`");
            builder = builder.fault_plan(plan);
        }
        (None, Some(seed)) => {
            let plan = FaultPlan::seeded(seed, cpus + gpus);
            eprintln!("faults: seed {seed} -> plan `{plan}`");
            builder = builder.fault_seed(seed);
        }
        (None, None) => {}
    }
    if let Some(slack) = flags.number("job-timeout-slack")? {
        builder = builder.job_timeout_slack(slack);
    }
    if let Some(ms) = flags.number("min-job-timeout-ms")? {
        builder = builder.min_job_timeout(std::time::Duration::from_millis(ms));
    }
    if flags.has("reopt") || flags.has("reopt-threshold") || flags.has("reopt-min-remaining") {
        let mut reopt = ReoptConfig::enabled();
        if let Some(threshold) = flags.number::<f64>("reopt-threshold")? {
            if threshold.is_nan() || threshold < 1.0 {
                return Err("--reopt-threshold must be a number >= 1".into());
            }
            reopt.threshold = threshold;
        }
        if let Some(n) = flags.number("reopt-min-remaining")? {
            reopt.min_remaining = n;
        }
        eprintln!(
            "reopt: on (threshold x{}, min remaining {})",
            reopt.threshold, reopt.min_remaining
        );
        builder = builder.reopt(reopt);
    }
    if flags.has("watchdog") {
        let cfg = swdual_obs::watch::WatchConfig::default();
        eprintln!(
            "watchdog: on (straggler x{}, bound risk at {}x2\u{3bb})",
            cfg.straggler_ratio, cfg.bound_risk_fraction
        );
        builder = builder.watchdog(cfg);
    }
    if let Some(path) = journal_out {
        builder = builder
            .journal_out(path)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let report = builder
        .try_run()
        .map_err(|e| format!("search failed: {e}"))?;

    if let Some(path) = trace_out {
        std::fs::write(path, report.timeline()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: wrote Chrome-trace JSON to {path}");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, report.metrics()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics: wrote Prometheus text to {path}");
    }
    if let Some(path) = journal_out {
        eprintln!("journal: wrote JSON-lines events to {path}");
    }

    let evalues = flags.has("evalues");
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

/// Whether a report renders as JSON; `--json` and `--text` exclude
/// each other.
fn json_not_text(args: &Args) -> Result<bool, String> {
    if args.has("json") && args.has("text") {
        return Err("--json and --text are mutually exclusive".into());
    }
    Ok(args.has("json"))
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

/// `swdual explain EVENTS.jsonl [--what-if SPEC] [--json|--text]
/// [-o FILE]` — the one report on a recorded run, or (with
/// `--what-if`) a counterfactual replay of its schedule.
fn cmd_explain(args: &Args) -> Result<(), String> {
    let json = json_not_text(args)?;
    let model = read_model(args.positionals[0])?;
    let rendered = match args.get("what-if") {
        Some(spec) => {
            let spec = swdual_core::whatif::WhatIf::parse(spec)?;
            let answer = swdual_core::whatif::what_if(&model, &spec)?;
            if json {
                answer.to_json()
            } else {
                answer.to_text()
            }
        }
        None => {
            let report = swdual_obs::explain::explain(&model);
            if json {
                report.to_json()
            } else {
                report.to_text()
            }
        }
    };
    emit(&rendered, args.get("out"), "explain")
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

/// How often a follower of a growing journal file looks for more.
const FOLLOW_POLL: std::time::Duration = std::time::Duration::from_millis(50);

/// A journal file read line by line as it grows (`tail --follow`'s
/// reader, shared by `swdual tail` and `swdual top`). A line counts once
/// its newline is written; until then its start waits in `pending`.
struct Tail {
    source: String,
    reader: std::io::BufReader<std::fs::File>,
    pending: Vec<u8>,
}

impl Tail {
    fn open(source: &str) -> Result<Tail, String> {
        let file = std::fs::File::open(source).map_err(|e| format!("{source}: {e}"))?;
        Ok(Tail {
            source: source.to_string(),
            reader: std::io::BufReader::new(file),
            pending: Vec::new(),
        })
    }

    /// The next whole line, or `None` at the end of what is written so
    /// far.
    fn next_line(&mut self) -> Result<Option<String>, String> {
        use std::io::BufRead;
        self.reader
            .read_until(b'\n', &mut self.pending)
            .map_err(|e| format!("{}: {e}", self.source))?;
        if self.pending.last() != Some(&b'\n') {
            return Ok(None);
        }
        let line = String::from_utf8_lossy(&self.pending).into_owned();
        self.pending.clear();
        Ok(Some(line))
    }

    /// What follows the last newline: a line its writer has not
    /// finished, or a file's last line that has no newline.
    fn rest(&self) -> String {
        String::from_utf8_lossy(&self.pending).into_owned()
    }
}

/// `swdual top EVENTS.jsonl [--refresh-ms MS]` — live per-worker
/// dashboard. A journal file is followed as it grows, redrawn at most
/// every `--refresh-ms`, until the run's `search_end` — which every run
/// records, whichever way it ends (a journal written before it existed:
/// the master's `merge` span) — and what was written with it; a
/// finished journal therefore renders once. Stdin (`-`) is read to its
/// end and rendered once.
fn cmd_top(args: &Args) -> Result<(), String> {
    let source = args.positionals[0];
    let refresh_ms: u64 = args.number("refresh-ms")?.unwrap_or(250);
    let refresh = std::time::Duration::from_millis(refresh_ms.max(1));
    let mut dog = swdual_obs::watch::Watchdog::new(swdual_obs::watch::WatchConfig::default());
    if source == "-" {
        swdual_obs::journal::read_journal(&read_input(source)?, |event| {
            dog.observe(&event);
        })
        .map_err(|e| format!("{source}: {e}"))?;
        draw_dashboard(&dog);
        return Ok(());
    }

    let mut tail = Tail::open(source)?;
    let (mut header_seen, mut ended, mut dirty) = (false, false, false);
    let mut drawn: Option<std::time::Instant> = None;
    loop {
        let Some(line) = tail.next_line()? else {
            if ended {
                break;
            }
            if dirty && drawn.is_none_or(|t| t.elapsed() >= refresh) {
                draw_dashboard(&dog);
                dirty = false;
                drawn = Some(std::time::Instant::now());
            }
            std::thread::sleep(FOLLOW_POLL.min(refresh));
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !header_seen {
            swdual_obs::journal::journal_schema(line).map_err(|e| format!("{source}: {e}"))?;
            header_seen = true;
            continue;
        }
        let event =
            swdual_obs::journal::parse_event_line(line).map_err(|e| format!("{source}: {e}"))?;
        use swdual_obs::EventBody::{Merge, SearchEnd};
        ended |= matches!(event.body, Merge { .. } | SearchEnd { .. });
        dog.observe(&event);
        dirty = true;
    }
    draw_dashboard(&dog);
    Ok(())
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
        return; // a file's torn last line, cut short by a killed writer
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
fn cmd_tail(args: &Args) -> Result<(), String> {
    use std::io::BufRead;

    let source = args.positionals[0];
    let (follow, alerts_only) = (args.has("follow"), args.has("alerts-only"));

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

    let mut tail = Tail::open(source)?;
    loop {
        match tail.next_line()? {
            Some(line) => handle_line(line.trim())?,
            None if follow => std::thread::sleep(FOLLOW_POLL),
            None => return handle_line(tail.rest().trim()),
        }
    }
}

/// `swdual diff BASE.jsonl HEAD.jsonl [...]` / `swdual diff --bench
/// [LEDGER.json]` — compare two runs (or the last two entries of each
/// bench in the trend ledger) and optionally gate on regressions.
/// `--fail-on-regression` fails the build with an error after the full
/// report has been printed.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let paths = &args.positionals;
    let json = json_not_text(args)?;
    let threshold: Option<f64> = args.number("threshold")?;
    let mut opts = swdual_obs::diff::DiffOptions {
        include_profile: args.has("profile"),
        ..Default::default()
    };
    if let Some(pct) = threshold {
        if !(0.0..=100.0).contains(&pct) {
            return Err("--threshold must be a percentage in [0, 100]".into());
        }
        opts.wall_tolerance = pct / 100.0;
    }
    let bench_name = args.get("bench-name");
    let report = if args.has("bench") {
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
                return Err(String::from(ArgError {
                    subcommand: args.subcommand,
                    problem: ArgProblem::Positionals(paths.len()),
                }))
            }
        };
        swdual_obs::diff::diff_models(&read_model(base_path)?, &read_model(head_path)?, &opts)
    };
    let rendered = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    emit(&rendered, args.get("out"), "diff")?;
    if args.has("fail-on-regression") {
        let exact_only = args.has("exact-only");
        let regressed = report.regressions(exact_only);
        if !regressed.is_empty() {
            return Err(format!(
                "diff: FAIL — {} regressed metric(s): {}",
                regressed.len(),
                regressed.join(", ")
            ));
        }
        let lane = if exact_only {
            "modelled-clock lane clean"
        } else {
            "no regressions"
        };
        eprintln!("diff: PASS — {lane}");
    }
    Ok(())
}

fn cmd_convert(flags: &Args) -> Result<(), String> {
    let input = flags.required("input")?;
    let output = flags.required("output")?;
    let set = load_set(input)?;
    write_set(&set, output)?;
    outln!(
        "converted {} sequences ({} residues): {input} -> {output}",
        set.len(),
        set.total_residues()
    );
    Ok(())
}

fn cmd_generate(flags: &Args) -> Result<(), String> {
    let n: usize = flags
        .number("sequences")?
        .ok_or("--sequences is required")?;
    let mean: f64 = flags.number("mean-len")?.ok_or("--mean-len is required")?;
    if !(mean.is_finite() && mean > 0.0) {
        return Err(format!(
            "--mean-len must be a positive finite number, got {mean}"
        ));
    }
    let output = flags.required("output")?;
    let seed: u64 = flags.number("seed")?.unwrap_or(2014);
    let set = synthetic_database("synth", n, LengthModel::protein_database(mean), seed);
    write_set(&set, output)?;
    outln!(
        "generated {} sequences ({} residues) -> {output}",
        set.len(),
        set.total_residues()
    );
    Ok(())
}

fn cmd_info(flags: &Args) -> Result<(), String> {
    let path = flags.required("db")?;
    // FASTA is described as the SQB image a search encodes it to.
    let image = load_database(path)?;
    let header = image.header();
    outln!("file:      {path}");
    outln!("alphabet:  {:?}", image.alphabet());
    outln!("sequences: {}", image.len());
    outln!("residues:  {}", image.total_residues());
    let lengths = image.placements().map(|p| p.len as usize);
    if let Some(stats) = LengthStats::of_lengths(lengths) {
        outln!(
            "lengths:   min {} / median {} / mean {:.1} / max {} (sd {:.1})",
            stats.min,
            stats.median,
            stats.mean,
            stats.max,
            stats.std_dev
        );
    }
    outln!(
        "layout:    SQB v{}, {} blocks of up to {} records on {} lanes, padding {:.2} % of residues, {} bytes",
        header.version,
        header.n_blocks(),
        swdual_bio::lanes::BLOCK_RECORDS,
        swdual_bio::lanes::LANES,
        100.0 * header.padding(),
        image.as_bytes().len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        outln!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match SUBCOMMANDS.iter().find(|c| c.name() == name) {
        Some(subcommand) => Args::parse(&args[1..], subcommand)
            .map_err(String::from)
            .and_then(|args| (subcommand.run)(&args)),
        None => Err(format!("unknown command {name:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(name: &str) -> &'static Subcommand {
        SUBCOMMANDS.iter().find(|c| c.name() == name).unwrap()
    }

    /// The flags a synopsis declares, split into (switches, valued).
    fn declared(name: &str) -> (Vec<&str>, Vec<&str>) {
        let (valued, switches): (Vec<_>, Vec<_>) = sub(name).flags().into_iter().partition(|f| f.1);
        let names = |list: Vec<(&'static str, bool)>| list.into_iter().map(|f| f.0).collect();
        (names(switches), names(valued))
    }

    #[test]
    fn every_synopsis_declares_exactly_its_flags() {
        let (switches, valued) = declared("search");
        assert_eq!(
            switches,
            ["reopt", "evalues", "progress", "profile", "watchdog"]
        );
        assert_eq!(
            valued,
            [
                "db",
                "queries",
                "cpus",
                "gpus",
                "device-class",
                "prior-scale",
                "reopt-threshold",
                "reopt-min-remaining",
                "policy",
                "top",
                "gap-open",
                "gap-extend",
                "trace-out",
                "metrics-out",
                "journal-out",
                "fault-plan",
                "fault-seed",
                "job-timeout-slack",
                "min-job-timeout-ms",
            ]
        );
        let expect = |name, switches: &[&str], valued: &[&str]| {
            assert_eq!(declared(name), (switches.to_vec(), valued.to_vec()));
        };
        expect("explain", &["json", "text"], &["what-if", "out"]);
        expect("top", &[], &["refresh-ms"]);
        expect("tail", &["follow", "alerts-only"], &[]);
        expect(
            "diff",
            &[
                "profile",
                "json",
                "text",
                "fail-on-regression",
                "exact-only",
                "bench",
            ],
            &["threshold", "out", "bench-name"],
        );
        expect("convert", &[], &["input", "output"]);
        expect(
            "generate",
            &[],
            &["sequences", "mean-len", "output", "seed"],
        );
        expect("info", &[], &["db"]);
    }

    #[test]
    fn arguments_outside_the_vocabulary_are_typed_errors() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let problem = |list: &[&str], name| match Args::parse(&args(list), sub(name)) {
            Ok(_) => "accepted".to_string(),
            Err(e) => String::from(e),
        };
        assert!(problem(&["--bogus", "1"], "info")
            .starts_with("unknown flag \"--bogus\"\nusage: swdual info"));
        assert!(problem(&["--cpu", "8"], "search").starts_with("unknown flag \"--cpu\""));
        assert!(problem(&["-"], "diff").starts_with("unknown flag \"-\""));
        assert!(problem(&["a", "-o"], "explain").starts_with("flag -o needs a value"));
        assert!(problem(&[], "tail").starts_with("0 positional argument(s) given"));
        assert!(problem(&["a", "b", "c"], "diff").starts_with("3 positional argument(s) given"));

        let list = args(&["-", "--out", "x", "--json", "-o", "y"]);
        let parsed =
            Args::parse(&list, sub("explain")).unwrap_or_else(|e| panic!("{}", String::from(e)));
        assert_eq!(parsed.positionals, ["-"]);
        assert!(parsed.has("json") && !parsed.has("text"));
        assert_eq!(parsed.get("out"), Some("y"), "the last value wins");
    }
}
