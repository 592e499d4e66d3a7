//! The paper's tables recomputed in virtual time: Tables I–V, the §VI
//! conclusion and ablations A1–A4, rendered as the Markdown block of
//! EXPERIMENTS.md that `tests/paper_tables.rs` checks byte for byte.
//!
//! | artifact | function | workload |
//! |---|---|---|
//! | Table I | [`table1`] | inventory (no simulation) |
//! | Table II + Figure 7 | [`table2`] | UniProt, baselines 1–4 workers, SWDUAL 2–8 |
//! | Table III | [`table3`] | database inventory |
//! | Table IV + Figure 8 | [`table4`] | SWDUAL on the 5 databases, 2/4/8 workers |
//! | Table V + Figure 9 | [`table5`] | homogeneous vs heterogeneous sets |
//! | §VI | [`conclusion`] | UniProt on the full machine |
//! | A1–A4 | [`ablation_policy`] … [`ablation_robustness`] | UniProt |
//!
//! A cell is a schedule's makespan: each task takes the seconds of a
//! [`WorkerRateModel`] — for SWDUAL the curves the master plans with —
//! and the schedule comes from `swdual-sched`, so load imbalance and
//! idle time emerge rather than being painted on.

use crate::paper::{self, Baseline, Workload, BASELINES, DATABASES, UNIPROT};
use swdual_gpusim::DeviceClass;
use swdual_runtime::estimator::WorkerRateModel;
use swdual_sched::binsearch::{dual_approx_schedule, BinarySearchConfig};
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::knapsack::DpConfig;
use swdual_sched::{policies, PeKind, PlatformSpec, Schedule, Task, TaskSet};

/// Allocation policy of a hybrid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridPolicy {
    /// SWDUAL: dual approximation with the greedy knapsack (the paper's
    /// implementation).
    DualGreedy,
    /// Dual approximation with the DP knapsack (the 3/2 refinement).
    DualDp,
    /// Self-scheduling, one task at a time to the next free worker \[10\].
    SelfScheduling,
    /// Static proportional-power split \[12\].
    Proportional,
    /// Static equal-power split \[11\].
    EqualPower,
    /// Earliest-finish-time insertion.
    HeftLite,
}

impl HybridPolicy {
    /// All policies, in ablation A1's order.
    pub const ALL: [HybridPolicy; 6] = [
        HybridPolicy::DualGreedy,
        HybridPolicy::DualDp,
        HybridPolicy::SelfScheduling,
        HybridPolicy::Proportional,
        HybridPolicy::EqualPower,
        HybridPolicy::HeftLite,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            HybridPolicy::DualGreedy => "SWDUAL(greedy)",
            HybridPolicy::DualDp => "SWDUAL(dp)",
            HybridPolicy::SelfScheduling => "self-scheduling",
            HybridPolicy::Proportional => "proportional",
            HybridPolicy::EqualPower => "equal-power",
            HybridPolicy::HeftLite => "heft-lite",
        }
    }

    /// Produce a schedule for `tasks` on `platform`.
    pub fn schedule(self, tasks: &TaskSet, platform: &PlatformSpec) -> Schedule {
        let dual = |method| {
            let config = BinarySearchConfig {
                method,
                ..BinarySearchConfig::default()
            };
            dual_approx_schedule(tasks, platform, config).schedule
        };
        match self {
            HybridPolicy::DualGreedy => dual(KnapsackMethod::Greedy),
            HybridPolicy::DualDp => dual(KnapsackMethod::Dp(DpConfig::default())),
            HybridPolicy::SelfScheduling => policies::self_scheduling(tasks, platform),
            HybridPolicy::Proportional => policies::proportional_split(tasks, platform),
            HybridPolicy::EqualPower => policies::equal_power_split(tasks, platform),
            HybridPolicy::HeftLite => policies::heft_lite(tasks, platform),
        }
    }
}

/// SWDUAL's task set: each query's seconds on the master's CPU and GPU
/// planning curves.
pub fn swdual_tasks(workload: &Workload) -> TaskSet {
    workload.tasks(&WorkerRateModel::cpu_swipe(), &WorkerRateModel::gpu_tesla())
}

/// Seconds of a Table II baseline on `workers` workers: its serial
/// startup plus the makespan of self-scheduling, which is what these
/// tools do with a query list.
pub fn run_single_kind(workload: &Workload, baseline: &Baseline, workers: usize) -> f64 {
    let platform = match baseline.kind {
        PeKind::Cpu => PlatformSpec::new(workers, 0),
        PeKind::Gpu => PlatformSpec::new(0, workers),
    };
    let tasks = workload.tasks(&baseline.curve, &baseline.curve);
    let schedule = policies::self_scheduling(&tasks, &platform);
    schedule
        .validate(&tasks, &platform)
        .expect("baseline schedule must be valid");
    baseline.serial_startup(workload.database.residues) + schedule.makespan()
}

/// SWDUAL's task set scheduled by `policy` on `platform`. SWDUAL has no
/// serial part, so its seconds are the schedule's makespan.
pub fn run_hybrid(workload: &Workload, platform: &PlatformSpec, policy: HybridPolicy) -> Schedule {
    let tasks = swdual_tasks(workload);
    let schedule = policy.schedule(&tasks, platform);
    schedule
        .validate(&tasks, platform)
        .expect("hybrid schedule must be valid");
    schedule
}

/// Seconds of SWDUAL on `workers` workers, GPUs first up to `max_gpus`
/// (the paper's mix).
pub fn run_swdual(workload: &Workload, workers: usize, max_gpus: usize) -> f64 {
    let platform = PlatformSpec::swdual_mix(workers, max_gpus);
    run_hybrid(workload, &platform, HybridPolicy::DualGreedy).makespan()
}

/// GCUPS of `workload` done in `seconds`.
pub fn gcups(workload: &Workload, seconds: f64) -> f64 {
    workload.total_cells() as f64 / seconds / 1e9
}

/// A mixed-zoo run: the 2λ certificate of the conservative plan and the
/// makespan replayed on each device's own curve.
#[derive(Debug, Clone)]
pub struct ZooOutcome {
    /// The dual-approximation guarantee of the plan: 2λ.
    pub two_lambda_bound: f64,
    /// Makespan of the conservative plan (every GPU priced as the
    /// slowest class in the mix).
    pub planned_makespan: f64,
    /// Makespan after replaying each GPU's placements on its own class
    /// curve — never worse than `planned_makespan`.
    pub realized_makespan: f64,
    /// Tasks placed on GPUs.
    pub gpu_tasks: usize,
    /// Throughput over the realized makespan in GCUPS.
    pub gcups: f64,
}

impl ZooOutcome {
    /// `realized_makespan ≤ two_lambda_bound`.
    pub fn bound_holds(&self) -> bool {
        self.realized_makespan <= self.two_lambda_bound * (1.0 + 1e-9) + 1e-12
    }
}

/// Run the SWDUAL dual approximation on a mixed device zoo: `cpus` CPU
/// workers plus one GPU worker per entry of `gpu_classes`.
///
/// The two-species scheduler sees one conservative GPU time per task —
/// the *slowest* class in the mix — so the 2λ certificate it emits is a
/// genuine upper bound: replaying each GPU's placements on its own
/// (faster or equal) curve can only finish earlier. The gap between
/// `planned_makespan` and `realized_makespan` is the price of planning
/// a heterogeneous zoo with a two-species model.
pub fn run_zoo(workload: &Workload, cpus: usize, gpu_classes: &[DeviceClass]) -> ZooOutcome {
    assert!(
        cpus + gpu_classes.len() > 0,
        "zoo needs at least one worker"
    );
    let cpu = WorkerRateModel::cpu_swipe();
    let classes: Vec<WorkerRateModel> = gpu_classes
        .iter()
        .map(|&c| WorkerRateModel::for_class(c))
        .collect();
    let db = workload.database.residues;
    // Conservative per-task GPU time: slowest class in the mix. With no
    // GPUs at all, reuse the CPU time so the task set stays two-species
    // shaped (the scheduler will not place on absent GPUs anyway).
    let tasks = TaskSet::new(
        workload
            .query_lengths
            .iter()
            .enumerate()
            .map(|(id, &len)| {
                let p_cpu = cpu.task_seconds(len, db);
                let p_gpu = classes
                    .iter()
                    .map(|m| m.task_seconds(len, db))
                    .fold(f64::NEG_INFINITY, f64::max);
                Task::new(id, p_cpu, if p_gpu.is_finite() { p_gpu } else { p_cpu })
            })
            .collect(),
    );
    let platform = PlatformSpec::new(cpus, gpu_classes.len());
    let outcome = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
    outcome
        .schedule
        .validate(&tasks, &platform)
        .expect("zoo schedule must be valid");
    // Replay: sequential per-PE execution, each GPU on its true curve.
    let mut cpu_time = vec![0.0f64; cpus];
    let mut gpu_time = vec![0.0f64; gpu_classes.len()];
    let mut gpu_tasks = 0usize;
    for p in &outcome.schedule.placements {
        let len = workload.query_lengths[p.task];
        match p.pe.kind {
            PeKind::Cpu => cpu_time[p.pe.index] += cpu.task_seconds(len, db),
            PeKind::Gpu => {
                gpu_tasks += 1;
                gpu_time[p.pe.index] += classes[p.pe.index].task_seconds(len, db);
            }
        }
    }
    let realized_makespan = cpu_time
        .iter()
        .chain(gpu_time.iter())
        .fold(0.0f64, |a, &b| a.max(b));
    ZooOutcome {
        two_lambda_bound: 2.0 * outcome.upper_bound,
        planned_makespan: outcome.schedule.makespan(),
        realized_makespan,
        gpu_tasks,
        gcups: if realized_makespan > 0.0 {
            gcups(workload, realized_makespan)
        } else {
            0.0
        },
    }
}

/// One cell of a table, beside the paper's when it reports one.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label ("SWIPE", "SWDUAL(greedy)", database name…).
    pub label: String,
    /// Worker count (A3: binary-search iterations).
    pub workers: usize,
    /// Simulated seconds.
    pub seconds: f64,
    /// Simulated GCUPS (A2–A4: a ratio, as the table's title says).
    pub gcups: f64,
    /// The paper's seconds for the same cell.
    pub paper_seconds: Option<f64>,
    /// The paper's GCUPS for the same cell.
    pub paper_gcups: Option<f64>,
}

impl Row {
    fn new(label: impl Into<String>, workers: usize, seconds: f64, gcups: f64) -> Row {
        Row {
            label: label.into(),
            workers,
            seconds,
            gcups,
            paper_seconds: None,
            paper_gcups: None,
        }
    }

    fn paper(self, paper_seconds: Option<f64>, paper_gcups: Option<f64>) -> Row {
        Row {
            paper_seconds,
            paper_gcups,
            ..self
        }
    }

    /// Simulated over the paper's seconds (1.0 = exact).
    pub fn seconds_ratio(&self) -> Option<f64> {
        self.paper_seconds.map(|p| self.seconds / p)
    }
}

/// A titled group of rows: one table or one ablation.
#[derive(Debug, Clone)]
pub struct Table {
    /// "id — description".
    pub title: &'static str,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// The row labelled `label` at `workers`.
    pub fn row(&self, label: &str, workers: usize) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.label == label && r.workers == workers)
    }

    /// The table as a Markdown section.
    pub fn markdown(&self) -> String {
        let cell = |v: Option<f64>, unit: &str| v.map_or("—".into(), |v| format!("{v:.2}{unit}"));
        let mut out = format!("### {}\n\n", self.title);
        out.push_str("| label | workers | seconds | GCUPS | paper s | paper GCUPS | ratio |\n");
        out.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {} | {} | {} |\n",
                r.label,
                r.workers,
                r.seconds,
                r.gcups,
                cell(r.paper_seconds, ""),
                cell(r.paper_gcups, ""),
                cell(r.seconds_ratio(), "×"),
            ));
        }
        out.push('\n');
        out
    }
}

/// Table I: the compared applications (inventory; mirrors the paper).
pub fn table1() -> String {
    let mut out = String::from("== Table I — applications included in the comparison ==\n");
    out.push_str(&format!(
        "{:<10} {:<10} {}\n",
        "app", "version", "command line"
    ));
    for (app, version, cmd) in paper::TABLE1 {
        out.push_str(&format!("{app:<10} {version:<10} {cmd}\n"));
    }
    out.push_str("SWDUAL     (this)     reproduced in Rust: swdual-core::SearchBuilder\n");
    out
}

/// Table II / Figure 7: execution time vs worker count on UniProt.
pub fn table2() -> Table {
    let workload = Workload::paper_queries(UNIPROT);
    let mut rows = Vec::new();
    for (baseline, (_, paper_row)) in BASELINES.iter().zip(paper::TABLE2_BASELINES) {
        for workers in 1..=4usize {
            let seconds = run_single_kind(&workload, baseline, workers);
            let row = Row::new(baseline.name, workers, seconds, gcups(&workload, seconds));
            rows.push(row.paper(paper_row[workers - 1], None));
        }
    }
    for &(workers, paper_seconds) in paper::TABLE2_SWDUAL {
        let seconds = run_swdual(&workload, workers, 4);
        let row = Row::new("SWDUAL", workers, seconds, gcups(&workload, seconds));
        rows.push(row.paper(Some(paper_seconds), None));
    }
    Table {
        title:
            "Table II / Figure 7 — execution time vs workers, UniProt, 40 queries (virtual time)",
        rows,
    }
}

/// Table III: the databases.
pub fn table3() -> String {
    let mut out = String::from("== Table III — genomic databases used on the tests ==\n");
    out.push_str(&format!(
        "{:<22} {:>10} {:>12} {:>10}\n",
        "database", "sequences", "residues", "mean len"
    ));
    for db in DATABASES {
        out.push_str(&format!(
            "{:<22} {:>10} {:>12} {:>10.0}\n",
            db.name,
            db.sequences,
            db.residues,
            db.mean_length()
        ));
    }
    out.push_str("(sequence counts from Table III; residues derived from Table IV cells)\n");
    out
}

/// SWDUAL rows of a per-database table, beside the paper's cells.
fn swdual_rows(label: &str, workload: &Workload, paper_rows: &paper::WorkerRows) -> Vec<Row> {
    paper_rows
        .iter()
        .map(|&(workers, paper_s, paper_g)| {
            let seconds = run_swdual(workload, workers, 4);
            Row::new(label, workers, seconds, gcups(workload, seconds))
                .paper(Some(paper_s), Some(paper_g))
        })
        .collect()
}

/// Table IV / Figure 8: SWDUAL on the five databases at 2/4/8 workers.
pub fn table4() -> Table {
    let rows = paper::TABLE4.iter().flat_map(|(name, paper_rows)| {
        let db = DATABASES.into_iter().find(|d| d.name == *name);
        let db = db.unwrap_or_else(|| panic!("unknown database {name}"));
        swdual_rows(name, &Workload::paper_queries(db), paper_rows)
    });
    Table {
        title: "Table IV / Figure 8 — SWDUAL on 5 databases, 2/4/8 workers (virtual time)",
        rows: rows.collect(),
    }
}

/// Table V / Figure 9: homogeneous vs heterogeneous query sets.
pub fn table5() -> Table {
    let rows = paper::TABLE5.iter().flat_map(|(set, paper_rows)| {
        let workload = match *set {
            "Heterogeneous" => Workload::heterogeneous_queries(UNIPROT),
            _ => Workload::homogeneous_queries(UNIPROT),
        };
        swdual_rows(set, &workload, paper_rows)
    });
    Table {
        title:
            "Table V / Figure 9 — homogeneous vs heterogeneous query sets on UniProt (virtual time)",
        rows: rows.collect(),
    }
}

/// §VI conclusion claim: "reducing the execution time from 543 seconds
/// to 86 seconds" on "eight CPUs and eight GPUs" at "225 GCUPS". The
/// §V tables cap GPUs at 4; this run opens the full Idgraf machine.
pub fn conclusion() -> Table {
    let workload = Workload::paper_queries(UNIPROT);
    let rows = [
        ("SWDUAL 1C+1G", 2, 543.28, 35.81),
        ("SWDUAL 8C+8G", 16, 86.0, 225.0),
    ]
    .map(|(label, workers, paper_s, paper_g)| {
        let seconds = run_swdual(&workload, workers, 8);
        Row::new(label, workers, seconds, gcups(&workload, seconds))
            .paper(Some(paper_s), Some(paper_g))
    });
    Table {
        title: "Conclusion (§VI) — full Idgraf machine: 543 s -> 86 s / 225 GCUPS claim",
        rows: rows.to_vec(),
    }
}

/// Ablation A1 — SWDUAL's dual approximation vs the literature's
/// policies (\[10\], \[11\], \[12\]) on the UniProt workload: the paper's
/// claim that the scheduling, not just the hybrid hardware, delivers
/// the speed-up.
pub fn ablation_policy() -> Table {
    let workload = Workload::paper_queries(UNIPROT);
    let mut rows = Vec::new();
    for workers in [2usize, 4, 8] {
        let platform = PlatformSpec::swdual_mix(workers, 4);
        for policy in HybridPolicy::ALL {
            let seconds = run_hybrid(&workload, &platform, policy).makespan();
            rows.push(Row::new(
                policy.name(),
                workers,
                seconds,
                gcups(&workload, seconds),
            ));
        }
    }
    Table {
        title: "Ablation A1 — allocation policies on the UniProt workload (virtual time)",
        rows,
    }
}

/// Ablation A2 — greedy (2-approx) vs DP (3/2-approx) knapsack inside
/// the dual step: makespan and ratio to the lower bound across instance
/// sizes. What each costs to plan is `BENCH_sched.json`'s
/// `knapsack_greedy_40` / `knapsack_dp512_40`.
pub fn ablation_knapsack() -> Table {
    let base = Workload::paper_queries(UNIPROT);
    let platform = PlatformSpec::new(4, 4);
    let mut rows = Vec::new();
    for n_queries in [10usize, 40, 160] {
        // The paper workload's lengths, repeated or cut to n queries.
        let workload = Workload {
            query_lengths: base
                .query_lengths
                .iter()
                .copied()
                .cycle()
                .take(n_queries)
                .collect(),
            database: UNIPROT,
        };
        let tasks = swdual_tasks(&workload);
        for (label, method) in [
            ("greedy-2approx", KnapsackMethod::Greedy),
            (
                "dp-3/2approx",
                KnapsackMethod::Dp(DpConfig { resolution: 512 }),
            ),
        ] {
            let config = BinarySearchConfig {
                method,
                ..BinarySearchConfig::default()
            };
            let out = dual_approx_schedule(&tasks, &platform, config);
            rows.push(Row::new(
                format!("{label} (n={n_queries})"),
                8,
                out.schedule.makespan(),
                out.approximation_ratio(),
            ));
        }
    }
    Table {
        title:
            "Ablation A2 — greedy vs DP knapsack: makespan (seconds) and ratio-to-LB (GCUPS column)",
        rows,
    }
}

/// Ablation A3 — binary-search iteration count vs precision, checking
/// the paper's `log(Bmax − Bmin)` bound.
pub fn ablation_binsearch() -> Table {
    let tasks = swdual_tasks(&Workload::paper_queries(UNIPROT));
    let platform = PlatformSpec::new(4, 4);
    let rows = [1e-1, 1e-2, 1e-4, 1e-6].map(|precision| {
        let config = BinarySearchConfig {
            relative_precision: precision,
            max_iterations: 128,
            ..BinarySearchConfig::default()
        };
        let out = dual_approx_schedule(&tasks, &platform, config);
        Row::new(
            format!("precision {precision:e} ({} iterations)", out.iterations),
            out.iterations,
            out.schedule.makespan(),
            out.approximation_ratio(),
        )
    });
    Table {
        title: "Ablation A3 — binary-search precision vs iterations (workers column = iterations)",
        rows: rows.to_vec(),
    }
}

/// `tasks` as they actually run: every time scaled by a factor drawn
/// uniformly from `[1 − amplitude, 1 + amplitude]` by one LCG seeded
/// with `seed`, every task's CPU factor first, then every GPU factor.
fn with_noise(tasks: &TaskSet, amplitude: f64, seed: u64) -> TaskSet {
    let mut state = seed | 1;
    let mut factor = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((state >> 33) as f64) / (u32::MAX as f64);
        1.0 - amplitude + 2.0 * amplitude * u
    };
    let p_cpu: Vec<f64> = tasks.iter().map(|t| t.p_cpu * factor()).collect();
    let p_gpu: Vec<f64> = tasks.iter().map(|t| t.p_gpu * factor()).collect();
    let times: Vec<(f64, f64)> = p_cpu.into_iter().zip(p_gpu).collect();
    TaskSet::from_times(&times)
}

/// Ablation A4 — robustness of the one-round static schedule to task
/// time estimation error (±amplitude multiplicative noise): the plan
/// replayed under the actual times, against dynamic self-scheduling of
/// the *same* actual times, which it reacts to: the paper's §IV choice
/// of a one-round allocation.
pub fn ablation_robustness() -> Table {
    let tasks = swdual_tasks(&Workload::paper_queries(UNIPROT));
    let platform = PlatformSpec::new(4, 4);
    let planned = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default()).schedule;
    // Averaged over seeds so a single draw does not dominate.
    const SEEDS: u64 = 8;
    let mut rows = Vec::new();
    for percent in [0u32, 10, 20, 40] {
        let amplitude = f64::from(percent) / 100.0;
        let mut static_total = 0.0;
        let mut dynamic_total = 0.0;
        for seed in 0..SEEDS {
            let actual = if percent == 0 {
                tasks.clone()
            } else {
                with_noise(&tasks, amplitude, 1000 + seed)
            };
            static_total += planned.replay(&actual).makespan();
            dynamic_total += policies::self_scheduling(&actual, &platform).makespan();
        }
        for (label, total) in [
            ("SWDUAL static", static_total),
            ("self-sched dyn", dynamic_total),
        ] {
            let mean = total / SEEDS as f64;
            rows.push(Row::new(
                format!("{label}, noise {percent}%"),
                8,
                mean,
                mean / planned.makespan(),
            ));
        }
    }
    Table {
        title: "Ablation A4 — estimation-noise robustness: realised makespan, mean of 8 draws (GCUPS column = ratio to the noise-free plan)",
        rows,
    }
}

/// The paper-table block of EXPERIMENTS.md: every table above, then the
/// shape criteria, whose numbers come from Table II.
pub fn render() -> String {
    let t2 = table2();
    let mut out = String::from("## Table I — applications\n\n```text\n");
    out.push_str(&table1());
    out.push_str("```\n\n");
    out.push_str(&t2.markdown());
    out.push_str("## Table III — databases\n\n```text\n");
    out.push_str(&table3());
    out.push_str("```\n\n");
    for table in [
        table4(),
        table5(),
        conclusion(),
        ablation_policy(),
        ablation_knapsack(),
        ablation_binsearch(),
        ablation_robustness(),
    ] {
        out.push_str(&table.markdown());
    }
    let ratio = |label: &str, workers: usize| {
        t2.row(label, workers)
            .and_then(Row::seconds_ratio)
            .unwrap_or(f64::NAN)
    };
    let mid: Vec<f64> = (3..=7).map(|w| ratio("SWDUAL", w)).collect();
    let (fastest, slowest) = mid.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    out.push_str(&format!(
        "## Shape criteria (see DESIGN.md §5)\n\n\
         * Ordering at 3 and 4 workers: SWDUAL < CUDASW++ < SWIPE < STRIPED < SWPS3 — holds.\n\
         At 2 workers CUDASW++ on two GPUs beats SWDUAL on one GPU and one CPU, as in the paper.\n\
         * SWDUAL scaling monotone 2→8 workers — holds.\n\
         * Small databases GCUPS-capped by per-task overhead (Table IV) — holds.\n\
         * Heterogeneous ≈ 3.6× homogeneous total time, same scaling — holds.\n\
         * Known deviation: the paper's STRIPED scales *superlinearly*\n\
         (7190→1027 s on 1→4 workers); no work-conserving model reproduces\n\
         that, so our STRIPED scales linearly and its 3- and 4-worker cells are\n\
         {:.2}× and {:.2}× the paper's.\n\
         * Known deviation: our SWDUAL runs faster than the paper from 3 to 7\n\
         workers ({fastest:.2}–{slowest:.2}×) because the simulated\n\
         dual-approximation schedule is near-optimally balanced, while the\n\
         real system pays master-side contention the model does not include.\n",
        ratio("STRIPED", 3),
        ratio("STRIPED", 4),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_apps() {
        let t = table1();
        for app in ["SWIPE", "STRIPED", "SWPS3", "CUDASW++", "SWDUAL"] {
            assert!(t.contains(app), "missing {app}");
        }
    }

    #[test]
    fn table2_shape_matches_paper() {
        let t2 = table2();
        // 4 baselines x 4 workers + SWDUAL x 7.
        assert_eq!(t2.rows.len(), 4 * 4 + 7);
        // Single-worker baselines within 3% of the paper (calibration).
        for b in BASELINES {
            let ratio = t2.row(b.name, 1).and_then(Row::seconds_ratio).unwrap();
            assert!((ratio - 1.0).abs() < 0.03, "{}: ratio {ratio}", b.name);
        }
    }

    #[test]
    fn table2_single_worker_cells_reproduced() {
        let w = Workload::paper_queries(UNIPROT);
        for (b, paper) in BASELINES.iter().zip([69_208.2, 7_190.0, 2_367.24, 785.26]) {
            let seconds = run_single_kind(&w, b, 1);
            assert!(
                (seconds - paper).abs() / paper < 0.03,
                "{}: {seconds} vs paper {paper}",
                b.name
            );
        }
    }

    #[test]
    fn table2_four_worker_ordering_holds() {
        // The paper's ranking at 4 workers:
        // SWPS3 > STRIPED > SWIPE > CUDASW++ > SWDUAL.
        let w = Workload::paper_queries(UNIPROT);
        let mut times: Vec<f64> = BASELINES
            .iter()
            .map(|b| run_single_kind(&w, b, 4))
            .collect();
        times.push(run_swdual(&w, 4, 4));
        for pair in times.windows(2) {
            assert!(pair[0] > pair[1], "{times:?}");
        }
    }

    #[test]
    fn swdual_two_workers_near_paper_time() {
        // Table II/IV: 543.28 s at 2 workers (1 GPU + 1 CPU).
        let seconds = run_swdual(&Workload::paper_queries(UNIPROT), 2, 4);
        assert!(
            (seconds - 543.28).abs() / 543.28 < 0.10,
            "simulated {seconds} vs paper 543.28"
        );
    }

    #[test]
    fn swdual_eight_workers_near_paper_time() {
        // Table II/IV: 142.98 s at 8 workers (4 GPUs + 4 CPUs).
        let seconds = run_swdual(&Workload::paper_queries(UNIPROT), 8, 4);
        assert!(
            (seconds - 142.98).abs() / 142.98 < 0.20,
            "simulated {seconds} vs paper 142.98"
        );
    }

    #[test]
    fn swdual_dominates_its_own_components() {
        // The hybrid must beat the CPU-only run with the same worker
        // count — the paper's core selling point.
        let w = Workload::paper_queries(UNIPROT);
        let (swipe, cudasw) = (&BASELINES[2], &BASELINES[3]);
        for workers in [2usize, 4] {
            let hybrid = run_swdual(&w, workers, 4);
            let cpu_only = run_single_kind(&w, swipe, workers);
            assert!(
                hybrid < cpu_only,
                "{workers} workers: {hybrid} vs CPU {cpu_only}"
            );
        }
        // At 2 workers the paper's own Table II has CUDASW++ (2 GPUs,
        // 445.6 s) beating SWDUAL (1 GPU + 1 CPU, 543.3 s); the hybrid
        // takes the lead at 4 workers (272 s vs 292 s).
        let (gpu2, hybrid2) = (run_single_kind(&w, cudasw, 2), run_swdual(&w, 2, 4));
        assert!(
            gpu2 < hybrid2,
            "2 workers: GPU-only {gpu2} vs hybrid {hybrid2}"
        );
        let (gpu4, hybrid4) = (run_single_kind(&w, cudasw, 4), run_swdual(&w, 4, 4));
        assert!(
            hybrid4 < gpu4,
            "4 workers: hybrid {hybrid4} vs GPU-only {gpu4}"
        );
    }

    #[test]
    fn swdual_beats_all_baseline_policies() {
        let w = Workload::paper_queries(UNIPROT);
        let platform = PlatformSpec::new(4, 4);
        let dual = run_hybrid(&w, &platform, HybridPolicy::DualGreedy).makespan();
        for policy in [
            HybridPolicy::SelfScheduling,
            HybridPolicy::Proportional,
            HybridPolicy::EqualPower,
        ] {
            let other = run_hybrid(&w, &platform, policy).makespan();
            assert!(
                dual <= other * 1.001,
                "{}: {other} vs SWDUAL {dual}",
                policy.name()
            );
        }
    }

    #[test]
    fn small_database_gcups_capped_by_overhead() {
        // Table IV: Ensembl Dog reaches only ~19 GCUPS at 2 workers.
        let w = Workload::paper_queries(DATABASES[0]);
        let seconds = run_swdual(&w, 2, 4);
        let g = gcups(&w, seconds);
        assert!(
            (15.0..25.0).contains(&g),
            "Dog GCUPS {g} out of the paper's range"
        );
        // And the run is tens of seconds, not hundreds (paper: 78.36 s).
        assert!((seconds - 78.36).abs() / 78.36 < 0.3, "{seconds}");
    }

    #[test]
    fn figure_data_blocks_are_nonempty() {
        // Figures 7–9 plot the rows of Tables II, IV and V.
        assert!(table2().rows.len() > 10);
        assert!(table4().rows.len() > 10);
        assert!(table5().rows.len() > 5);
    }

    /// Two rows, one with the paper's cells and one without.
    fn demo() -> Table {
        Table {
            title: "Table X — demo",
            rows: vec![
                Row::new("A", 2, 100.0, 5.0).paper(Some(90.0), Some(5.5)),
                Row::new("B", 4, 50.0, 10.0),
            ],
        }
    }

    #[test]
    fn ratio_computation() {
        let t = demo();
        assert!((t.rows[0].seconds_ratio().unwrap() - 100.0 / 90.0).abs() < 1e-12);
        assert!(t.rows[1].seconds_ratio().is_none());
    }

    #[test]
    fn markdown_rendering_contains_everything() {
        let md = demo().markdown();
        assert!(md.contains("Table X"));
        assert!(md.contains("100.00"));
        assert!(md.contains("1.11×"));
        assert!(md.contains("5.50"));
    }

    #[test]
    fn markdown_rendering_is_a_table() {
        let md = demo().markdown();
        assert!(md.starts_with("### Table X"));
        assert!(md.contains("|---"));
        assert!(md.contains("| A | 2 |"));
        assert!(md.contains("—")); // missing paper cells
    }

    #[test]
    fn markdown_has_one_line_per_row() {
        let md = demo().markdown();
        let body = md
            .lines()
            .filter(|l| l.starts_with("| ") && !l.starts_with("| label"));
        assert_eq!(body.count(), 2);
    }

    #[test]
    fn table4_reproduces_database_ordering() {
        let t4 = table4();
        assert_eq!(t4.rows.len(), 15);
        // UniProt is the slow one; all small databases are 20-100s at
        // any worker count.
        for r in &t4.rows {
            if r.label == "UniProt" {
                assert!(r.seconds > 100.0);
            } else {
                assert!(r.seconds < 120.0, "{}: {}", r.label, r.seconds);
            }
            // Within 2x of the paper everywhere (shape criterion).
            let ratio = r.seconds_ratio().unwrap();
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}@{}: ratio {ratio}",
                r.label,
                r.workers
            );
        }
    }

    #[test]
    fn table5_hetero_costs_more_than_homo() {
        let t5 = table5();
        let het2 = t5.row("Heterogeneous", 2).unwrap().seconds;
        let hom2 = t5.row("Homogeneous", 2).unwrap().seconds;
        let ratio = het2 / hom2;
        assert!(
            (2.0..5.5).contains(&ratio),
            "hetero/homo {ratio}, paper 3.56"
        );
    }

    #[test]
    fn conclusion_claim_shape_holds() {
        let report = conclusion();
        let start = &report.rows[0];
        let end = &report.rows[1];
        // 543 -> 86 s is a 6.3x reduction; the model must land in the
        // same regime (within 40% of the 86 s point; the 2-worker point
        // is calibrated to a few percent).
        assert!((start.seconds_ratio().unwrap() - 1.0).abs() < 0.05);
        let r = end.seconds_ratio().unwrap();
        assert!((0.6..1.4).contains(&r), "16-worker ratio {r}");
        // GCUPS in the 225 ballpark.
        assert!((150.0..320.0).contains(&end.gcups), "{}", end.gcups);
    }

    #[test]
    fn gcups_equals_cells_over_seconds_everywhere() {
        let t4 = table4();
        for db in DATABASES {
            let cells = Workload::paper_queries(db).total_cells() as f64;
            for r in t4.rows.iter().filter(|r| r.label == db.name) {
                assert_eq!(r.gcups, cells / r.seconds / 1e9, "{}", r.label);
            }
        }
    }

    #[test]
    fn hybrid_time_is_the_dual_schedule_makespan() {
        let workload = Workload::paper_queries(UNIPROT);
        let platform = PlatformSpec::new(4, 4);
        let run = run_hybrid(&workload, &platform, HybridPolicy::DualGreedy);
        let tasks = swdual_tasks(&workload);
        let plan = dual_approx_schedule(&tasks, &platform, BinarySearchConfig::default());
        assert_eq!(run.makespan(), plan.schedule.makespan());
        assert_eq!(run_swdual(&workload, 8, 4), plan.schedule.makespan());
    }

    #[test]
    fn swdual_has_low_idle_time() {
        // §V-A: "the execution on each of the processing elements
        // finished with almost no idle time".
        let platform = PlatformSpec::swdual_mix(8, 4);
        let workload = Workload::paper_queries(UNIPROT);
        let schedule = run_hybrid(&workload, &platform, HybridPolicy::DualGreedy);
        let utilisation = schedule.utilisation(&platform);
        assert!(utilisation > 0.85, "utilisation {utilisation}");
    }

    #[test]
    fn gcups_scales_with_workers_table4_shape() {
        // Table IV: GCUPS roughly doubles 2→4→8 workers on UniProt.
        let w = Workload::paper_queries(UNIPROT);
        let g = |workers| gcups(&w, run_swdual(&w, workers, 4));
        let (g2, g4, g8) = (g(2), g(4), g(8));
        assert!(g4 / g2 > 1.5, "2->4 scaling {}", g4 / g2);
        // 4->8 adds only CPUs (the GPU side is already maxed at 4), so
        // scaling is weaker.
        assert!(g8 / g4 > 1.3, "4->8 scaling {}", g8 / g4);
        // Near the paper's 35.81 at 2 workers and 136.06 at 8.
        assert!((g2 - 35.81).abs() / 35.81 < 0.15, "g2 = {g2}");
        assert!((g8 - 136.06).abs() / 136.06 < 0.25, "g8 = {g8}");
    }

    #[test]
    fn zoo_single_class_runs_hold_the_bound() {
        let w = Workload::paper_queries(UNIPROT);
        for class in DeviceClass::ALL {
            let z = run_zoo(&w, 4, &[class, class]);
            assert!(z.bound_holds(), "{class}: {z:?}");
            // Homogeneous zoo: replay is exactly the plan.
            assert!((z.realized_makespan - z.planned_makespan).abs() < 1e-9);
            assert!(z.gpu_tasks > 0, "{class} should attract work");
        }
    }

    #[test]
    fn zoo_mixed_replay_never_exceeds_the_conservative_plan() {
        let z = run_zoo(&Workload::paper_queries(UNIPROT), 4, &DeviceClass::ALL);
        assert!(z.bound_holds(), "{z:?}");
        // The faster classes buy time back in the replay.
        assert!(z.realized_makespan < z.planned_makespan);
    }

    #[test]
    fn zoo_faster_classes_finish_sooner() {
        let w = Workload::paper_queries(UNIPROT);
        let slow = run_zoo(&w, 2, &[DeviceClass::C2050]);
        let fast = run_zoo(&w, 2, &[DeviceClass::Bioseal]);
        assert!(
            fast.realized_makespan < slow.realized_makespan,
            "bioseal {} vs c2050 {}",
            fast.realized_makespan,
            slow.realized_makespan
        );
    }

    #[test]
    fn policy_ablation_shows_dual_wins() {
        let report = ablation_policy();
        for workers in [2usize, 4, 8] {
            let at = |label| report.row(label, workers).unwrap().seconds;
            let dual = at("SWDUAL(greedy)");
            // SWDUAL must beat the baselines the paper compares against
            // ([10] self-scheduling, [11] equal-power, [12]
            // proportional). HEFT-lite is *our* extra strong baseline
            // and is allowed to be competitive (it occasionally edges
            // out the greedy dual by a few percent).
            for label in ["self-scheduling", "proportional", "equal-power"] {
                let other = at(label);
                assert!(
                    dual <= other * 1.01,
                    "{label} beats SWDUAL at {workers} workers: {other} vs {dual}"
                );
            }
            // The DP refinement may only improve on greedy, and
            // HEFT-lite stays within a few percent either way.
            let dp = at("SWDUAL(dp)");
            assert!(dp <= dual * 1.05, "dp {dp} much worse than greedy {dual}");
            let heft = at("heft-lite");
            assert!(
                (dual - heft).abs() <= dual * 0.10,
                "heft {heft} vs dual {dual} diverge beyond 10%"
            );
        }
    }

    #[test]
    fn knapsack_ablation_dp_not_worse() {
        let report = ablation_knapsack();
        // Pair rows (greedy, dp) per instance size.
        for pair in report.rows.chunks(2) {
            let (greedy, dp) = (&pair[0], &pair[1]);
            assert!(
                dp.seconds <= greedy.seconds * 1.10,
                "dp {} much worse than greedy {}",
                dp.seconds,
                greedy.seconds
            );
            // Within the greedy step's guarantee (ratio-to-LB <= 2).
            assert!(greedy.gcups <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let tasks = TaskSet::from_times(&[(3.0, 1.0), (8.0, 2.0), (1.5, 0.5), (9.0, 0.25)]);
        let a = with_noise(&tasks, 0.2, 9);
        assert_eq!(a, with_noise(&tasks, 0.2, 9));
        assert_ne!(a, with_noise(&tasks, 0.2, 10));
        for (t, n) in tasks.iter().zip(a.iter()) {
            assert_eq!(t.id, n.id);
            assert!(n.p_cpu >= t.p_cpu * 0.8 - 1e-12 && n.p_cpu <= t.p_cpu * 1.2 + 1e-12);
            assert!(n.p_gpu >= t.p_gpu * 0.8 - 1e-12 && n.p_gpu <= t.p_gpu * 1.2 + 1e-12);
        }
    }

    #[test]
    fn robustness_ablation_static_beats_dynamic_at_moderate_noise() {
        let report = ablation_robustness();
        assert_eq!(report.rows.len(), 8);
        // At every noise level (up to 40%), the static dual schedule's
        // realised makespan stays below dynamic self-scheduling's.
        for pair in report.rows.chunks(2) {
            let (stat, dyn_) = (&pair[0], &pair[1]);
            assert!(
                stat.seconds <= dyn_.seconds * 1.02,
                "{} ({}) vs {} ({})",
                stat.label,
                stat.seconds,
                dyn_.label,
                dyn_.seconds
            );
        }
        // Degradation at 20% noise stays under 1.2x.
        let d20 = report
            .rows
            .iter()
            .find(|r| r.label.contains("static, noise 20%"))
            .unwrap();
        assert!(d20.gcups <= 1.2 + 1e-9, "degradation {}", d20.gcups);
    }

    #[test]
    fn binsearch_ablation_iterations_grow_with_precision() {
        let report = ablation_binsearch();
        let iters: Vec<usize> = report.rows.iter().map(|r| r.workers).collect();
        assert!(iters.windows(2).all(|w| w[0] <= w[1]), "{iters:?}");
        // Makespan never degrades with more precision.
        let spans: Vec<f64> = report.rows.iter().map(|r| r.seconds).collect();
        assert!(spans.windows(2).all(|w| w[1] <= w[0] * 1.001), "{spans:?}");
        // log2 bound: even 1e-6 needs < 64 steps.
        assert!(*iters.last().unwrap() < 64);
    }
}
