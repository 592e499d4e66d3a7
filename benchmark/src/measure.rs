//! The measured operation (one file -> hits search), the set-up that
//! precedes it, and the untraced end-to-end pass.

use crate::gate::{self, TOP_K};
use crate::report::{median, Metric, Pass};
use crate::trace::Trace;
use crate::workloads::{Files, Workload};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use swdual_bio::fasta::{self, ResiduePolicy};
use swdual_bio::sqb::SqbFile;
use swdual_bio::{Alphabet, SequenceSet};
use swdual_core::{SearchBuilder, SearchReport};
use swdual_runtime::{QueryHits, WorkerSpec};
use swdual_sched::{PlatformSpec, Task, TaskSet};

/// Every pass measures at least this many searches.
pub const MIN_SEARCHES: usize = 3;
const MAX_SEARCHES: usize = 200;
/// Set-up is repeated and its median reported, so `setup_s` is steady.
const SETUP_CYCLES: usize = 3;

/// One run of one workload.
pub struct Config {
    /// From [`Workload::named`] with this `smoke`.
    pub workload: Workload,
    pub smoke: bool,
    pub seed: u64,
    /// Time box of the measured loop.
    pub seconds: f64,
    /// The benchmark binary, run as a separate process to generate the
    /// inputs so that generation never counts towards `peak_rss_mb`.
    pub exe: PathBuf,
}

/// A directory for generated inputs, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    /// A fresh directory under `benchmark/.data/`.
    pub fn create(label: &str) -> Result<DataDir, String> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let unique = format!(
            "{label}-{}-{}",
            std::process::id(),
            CREATED.fetch_add(1, Ordering::Relaxed)
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".data")
            .join(unique);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Span ids of one traced search (meaningless when the trace is off).
pub struct SearchSpans {
    pub root: usize,
    pub db_load: usize,
    pub query_load: usize,
    pub try_run: usize,
    pub render: usize,
}

pub struct Searched {
    pub report: SearchReport,
    pub wall: f64,
    pub spans: SearchSpans,
}

/// The measured operation: load the database from `.sqb` and the
/// queries from `.fasta`, search, and render the hits and the worker
/// table. `profile` switches the program's own recorder on.
pub fn search(
    files: &Files,
    workload: &Workload,
    profile: bool,
    trace: &mut Trace,
    iteration: usize,
) -> Result<Searched, String> {
    let started = Instant::now();
    let root = trace.begin("search", "bench", iteration, None);

    let db_load = trace.begin("bio.db_load", "bio", iteration, Some(root));
    let builder = SearchBuilder::new()
        .database_sqb(&files.database)
        .map_err(|e| format!("load database: {e}"))?;
    trace.end(db_load);

    let query_load = trace.begin("bio.query_load", "bio", iteration, Some(root));
    let builder = builder
        .queries_fasta(&files.queries, Alphabet::Protein)
        .map_err(|e| format!("load queries: {e}"))?;
    trace.end(query_load);

    let try_run = trace.begin("core.try_run", "core", iteration, Some(root));
    let builder = builder.hybrid_workers(workload.cpus, workload.gpus);
    let builder = if profile {
        builder.profile(true)
    } else {
        builder
    };
    let report = builder.try_run().map_err(|e| format!("search: {e}"))?;
    trace.end(try_run);

    let render = trace.begin("core.render", "core", iteration, Some(root));
    let mut rendered = report.render_hits(TOP_K);
    rendered.push_str(&report.render_workers());
    black_box(&rendered);
    trace.end(render);

    trace.end(root);
    Ok(Searched {
        report,
        wall: started.elapsed().as_secs_f64(),
        spans: SearchSpans {
            root,
            db_load,
            query_load,
            try_run,
            render,
        },
    })
}

pub fn load_inputs(files: &Files) -> Result<(SequenceSet, SequenceSet), String> {
    let database = SqbFile::open(&files.database)
        .and_then(|mut f| f.read_all())
        .map_err(|e| format!("load database: {e}"))?;
    let queries = fasta::read_file(&files.queries, Alphabet::Protein, ResiduePolicy::Lossy)
        .map_err(|e| format!("load queries: {e}"))?;
    Ok((database, queries))
}

/// The scheduler's instance of a workload, built as the master builds
/// it: task times from the rate models the workers declare.
pub fn task_set(
    workload: &Workload,
    query_lens: &[usize],
    db_residues: u64,
) -> (TaskSet, PlatformSpec) {
    // The master prices a species nobody registered at this multiple of
    // the present one, so the knapsack never chooses it.
    const ABSENT_SPECIES_PENALTY: f64 = 1.0e6;
    let cpu = WorkerSpec::cpu_default().rate_model();
    let gpu = (workload.gpus > 0).then(|| WorkerSpec::gpu_default().rate_model());
    let tasks = query_lens
        .iter()
        .enumerate()
        .map(|(id, &len)| {
            let p_cpu = cpu.task_seconds(len, db_residues);
            let p_gpu = gpu.map_or(p_cpu * ABSENT_SPECIES_PENALTY, |g| {
                g.task_seconds(len, db_residues)
            });
            Task::new(id, p_cpu, p_gpu)
        })
        .collect();
    (
        TaskSet::new(tasks),
        PlatformSpec::new(workload.cpus, workload.gpus),
    )
}

/// What set-up leaves behind for the measured loop.
pub struct Prepared {
    pub dir: DataDir,
    pub files: Files,
    /// The warm-up search's hits, accepted by the correctness gate.
    pub reference: Vec<QueryHits>,
    pub setup_s: f64,
    pub query_lens: Vec<usize>,
    pub db_residues: u64,
}

impl Prepared {
    pub fn cells(&self) -> u64 {
        self.query_lens.iter().sum::<usize>() as u64 * self.db_residues
    }
}

/// Set up `cycles` times and report the median duration. One cycle is
/// everything that precedes measurement: generate the inputs and write
/// the files (in another process), run the warm-up search, and pass its
/// hits through the correctness gate.
pub fn setup(config: &Config, cycles: usize) -> Result<Prepared, String> {
    let workload = &config.workload;
    let dir = DataDir::create(workload.name)?;
    let files = Files::in_dir(dir.path());
    let mut durations = Vec::new();
    let mut last = None;
    for _ in 0..cycles {
        let started = Instant::now();
        let generated = Command::new(&config.exe)
            .arg("--generate")
            .args(["--workload", workload.name])
            .args(["--seed", &config.seed.to_string()])
            .args(config.smoke.then_some("--smoke"))
            .arg("--dir")
            .arg(dir.path())
            .status()
            .map_err(|e| format!("{}: {e}", config.exe.display()))?;
        if !generated.success() {
            return Err(format!("input generation failed: {generated}"));
        }

        let reference = search(&files, workload, false, &mut Trace::off(), 0)?
            .report
            .hits()
            .to_vec();
        if workload.gpus > 0 {
            // Hits do not depend on the worker mix.
            let cpu_only = Workload {
                cpus: workload.cpus + workload.gpus,
                gpus: 0,
                ..*workload
            };
            let searched = search(&files, &cpu_only, false, &mut Trace::off(), 0)?;
            if searched.report.hits() != reference {
                return Err("hybrid hits differ from a CPU-only search of the same files".into());
            }
        }
        let (database, queries) = load_inputs(&files)?;
        gate::check_hits(&reference, &database, &queries, config.seed)
            .map_err(|e| format!("correctness gate: {e}"))?;
        durations.push(started.elapsed().as_secs_f64());
        last = Some((
            reference,
            queries.iter().map(|q| q.len()).collect(),
            database.total_residues(),
        ));
    }
    let (reference, query_lens, db_residues) = last.ok_or("no set-up cycle ran")?;
    Ok(Prepared {
        dir,
        files,
        reference,
        setup_s: median(&durations),
        query_lens,
        db_residues,
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The untraced timed pass: searches back to back until the time box
/// is spent, every one checked against the gated reference hits.
pub fn end_to_end(config: &Config) -> Result<Pass, String> {
    let prepared = setup(config, SETUP_CYCLES)?;
    let workload = &config.workload;
    let mut walls = Vec::new();
    let mut makespans = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let started = Instant::now();
    while attempted < MAX_SEARCHES
        && (attempted < MIN_SEARCHES || started.elapsed().as_secs_f64() < config.seconds)
    {
        attempted += 1;
        match search(
            &prepared.files,
            workload,
            false,
            &mut Trace::off(),
            attempted,
        ) {
            Ok(searched) => {
                if searched.report.hits() != prepared.reference {
                    eprintln!("search {attempted}: hits differ from the gated reference");
                    failed += 1;
                }
                walls.push(searched.wall);
                makespans.push(searched.report.modelled_makespan());
            }
            Err(e) => {
                eprintln!("search {attempted}: {e}");
                failed += 1;
            }
        }
    }
    if walls.is_empty() {
        return Err("every search failed".into());
    }

    let search_wall = Metric::median_of("search_wall_s", &walls);
    let modelled_makespan = median(&makespans);
    let (tasks, platform) = task_set(workload, &prepared.query_lens, prepared.db_residues);
    let lower_bound = swdual_sched::binsearch::lower_bound(&tasks, &platform);
    let metrics = vec![
        Metric::new("setup_s", prepared.setup_s),
        Metric::new(
            "wall_gcups",
            prepared.cells() as f64 / search_wall.value / 1e9,
        ),
        search_wall,
        Metric::new("modelled_makespan_s", modelled_makespan),
        Metric::new("makespan_over_lb", modelled_makespan / lower_bound),
        Metric::new("peak_rss_mb", peak_rss_mb()?),
    ];
    Ok(Pass {
        attempted,
        failed,
        metrics,
        trace: None,
    })
}
