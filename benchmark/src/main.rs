use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use swdual_benchmark::compare::compare;
use swdual_benchmark::measure::Config;
use swdual_benchmark::report::{self, Contract};
use swdual_benchmark::workloads::{self, Workload};
use swdual_benchmark::{layers, measure};

const USAGE: &str = "usage:
  run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  run.sh --all [--seed N] [--seconds S] [--out FILE]
  run.sh --compare BASE.json HEAD.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: write the workload's input files into `dir` and exit.
    generate: bool,
    dir: Option<PathBuf>,
    /// Smoke-test sizes (see `Workload::named`).
    smoke: bool,
}

fn parse(args: Vec<String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: bad value {text:?}"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = Some(number(&flag, value()?)?),
            "--seconds" => parsed.seconds = Some(number(&flag, value()?)?),
            "--trace" => parsed.trace = number::<u8>(&flag, value()?)? != 0,
            "--out" => parsed.out = Some(value()?.into()),
            "--all" => parsed.all = true,
            "--compare" => parsed.compare = Some((value()?.into(), value()?.into())),
            "--generate" => parsed.generate = true,
            "--dir" => parsed.dir = Some(value()?.into()),
            "--smoke" => parsed.smoke = true,
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Where a run's results (and, for a traced run, its spans) are
/// written unless `--out` says otherwise.
fn default_out(label: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{label}-seed{seed}.json")))
}

/// Run every workload, both passes, each in a process of its own so
/// that `peak_rss_mb` belongs to one workload, and merge the results.
fn run_all(contract: &Contract, args: &Args, seed: u64, exe: &Path) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut ok = true;
    for name in &contract.workloads {
        for trace in ["0", "1"] {
            let part = default_out(&format!("{name}-trace{trace}"), seed)?;
            let mut run = Command::new(exe);
            run.args([
                "--workload",
                name,
                "--trace",
                trace,
                "--seed",
                &seed.to_string(),
            ]);
            run.arg("--out").arg(&part);
            if let Some(seconds) = args.seconds {
                run.args(["--seconds", &seconds.to_string()]);
            }
            ok &= run
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?
                .success();
            files.push(report::read_json(&part)?);
        }
    }
    let out = match &args.out {
        Some(out) => out.clone(),
        None => default_out("all", seed)?,
    };
    report::write_json(&out, &report::merge(files)?)?;
    println!("results written to {}", out.display());
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args = parse(std::env::args().skip(1).collect())?;
    let workload = || Workload::named(args.workload.as_deref().ok_or(USAGE)?, args.smoke);
    if args.generate {
        let workload = workload()?;
        let dir = args.dir.as_deref().ok_or("--generate needs --dir")?;
        let seed = args.seed.ok_or("--generate needs --seed")?;
        workloads::write_inputs(&workload, seed, dir)?;
        return Ok(true);
    }
    let contract = Contract::load()?;
    if let Some((base, head)) = &args.compare {
        let regressed = compare(
            &contract,
            &report::read_json(base)?,
            &report::read_json(head)?,
        )?;
        return Ok(!regressed);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let seed = args.seed.unwrap_or(2014);
    if args.all {
        return run_all(&contract, &args, seed, &exe);
    }

    let config = Config {
        workload: workload()?,
        smoke: args.smoke,
        seed,
        seconds: args.seconds.unwrap_or(10.0),
        exe,
    };
    let pass = if args.trace {
        layers::per_layer(&config)?
    } else {
        measure::end_to_end(&config)?
    };
    let name = config.workload.name;
    let out = match args.out {
        Some(out) => out,
        None => default_out(&format!("{name}-trace{}", u8::from(args.trace)), seed)?,
    };
    let meta = report::meta(seed, config.seconds, config.smoke);
    println!(
        "{}",
        serde_json::to_string(&meta).map_err(|e| e.to_string())?
    );
    report::write_json(&out, &report::result_file(&contract, meta, name, &pass)?)?;
    report::print_pass(&contract, name, &pass)?;
    Ok(pass.failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("swdual-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
