//! The paper's evaluation (ICPP 2014, §V): its workloads, the rate
//! curves fitted to its machine, and the numbers it reports.
//!
//! The paper ran on *Idgraf* (2× quad-core Xeon, 8× Tesla C2050)
//! against multi-gigacell workloads — ≈ 2·10¹³ DP cells for the
//! UniProt runs — so [`crate::tables`] recomputes its tables in virtual
//! time: a task takes the seconds a [`WorkerRateModel`] gives it, and
//! the schedules come from `swdual-sched`.
//!
//! ## The fit
//!
//! The UniProt workload totals `T ≈ 1.9455e13` DP cells (Table IV:
//! 543.28 s × 35.81 GCUPS at 2 workers; identical products at 4 and 8
//! workers confirm the figure). Table II's single-worker times then fix
//! each baseline's sustained rate, and its multi-worker rows expose each
//! baseline's serial (Amdahl) component:
//!
//! | engine   | T(1 w) s | fitted serial s | kernel GCUPS/worker |
//! |----------|---------:|----------------:|--------------------:|
//! | SWPS3    | 69 208.2 |           2 136 | 0.290               |
//! | STRIPED  |  7 190   |  0 (see note)   | 2.72                |
//! | SWIPE    |  2 367.2 |              24 | 8.30                |
//! | CUDASW++ |    785.3 |             128 | 29.6                |
//!
//! Fit check (Amdahl `T(w) = serial + parallel/w`): CUDASW++ predicts
//! 456/347/292 s at 2/3/4 workers vs the paper's 445.6/350.1/292.2;
//! SWIPE predicts 1195/805/610 vs 1199.5/816.6/610.2; SWPS3 predicts
//! 35 672/24 493/18 904 vs 36 174/25 207/18 904. STRIPED's published
//! scaling is *superlinear* (7 190 → 1 027 s on 4 workers, 7.0×) —
//! unreproducible with any work-conserving model; its serial part is a
//! nominal 40 s and the discrepancy is a known deviation in
//! EXPERIMENTS.md.
//!
//! SWDUAL's own workers are the master's planning curves,
//! [`WorkerRateModel::cpu_swipe`] and [`WorkerRateModel::gpu_tesla`]:
//! the SWIPE and CUDASW++ kernel rates above (its workers embed those
//! tools), no serial part (the binary database format removes it), and
//! a **per-task overhead** of 1.8 s (dispatch, worker query load, result
//! merge). That constant reproduces the database-size dependence of
//! Table IV: small databases (Ensembl Dog, ~1.5e12 cells) reach only
//! ~19 GCUPS at 2 workers while UniProt reaches ~36, because 40 × 1.8 s
//! of overhead dwarfs ~1 s of per-task compute on a small database.
//!
//! Rates depend on query length through the saturation curve
//! `rate(len) = peak · len / (len + half_length)`: GPU kernels need long
//! queries to fill their pipelines (CUDASW++ 2.0 reports exactly this),
//! CPU SIMD kernels saturate almost immediately. This length dependence
//! is what differentiates the per-task acceleration ratios the SWDUAL
//! knapsack sorts on.

use swdual_runtime::estimator::WorkerRateModel;
use swdual_sched::{PeKind, Task, TaskSet};

/// Total residues of the synthetic UniProt database (537 505 sequences,
/// mean length ≈ 362; product chosen so the §V workload reproduces the
/// paper's ≈ 1.9455e13 cells with the 40-query mean of 2 500 aa).
pub const UNIPROT_RESIDUES: u64 = 194_550_000;

/// A database by its aggregate shape. Sequence counts are Table III's;
/// residues are derived from Table IV (`cells = GCUPS × seconds` at 2
/// workers, divided by the query set's 1e5 residues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseSpec {
    /// Name as in Table IV.
    pub name: &'static str,
    /// Number of sequences.
    pub sequences: u64,
    /// Total residues.
    pub residues: u64,
}

impl DatabaseSpec {
    /// Mean sequence length.
    pub fn mean_length(&self) -> f64 {
        self.residues as f64 / self.sequences as f64
    }
}

/// The five databases of Table III, in its order: Ensembl Dog (78.36 s
/// × 18.91 GCUPS ⇒ 1.482e12 cells), Ensembl Rat (75.85 × 22.97 ⇒
/// 1.742e12), RefSeq Human (95.09 × 20.70 ⇒ 1.968e12), RefSeq Mouse
/// (84.40 × 18.99 ⇒ 1.603e12) and UniProt.
pub const DATABASES: [DatabaseSpec; 5] = [
    DatabaseSpec {
        name: "Ensembl Dog",
        sequences: 25_160,
        residues: 14_820_000,
    },
    DatabaseSpec {
        name: "Ensembl Rat",
        sequences: 32_971,
        residues: 17_420_000,
    },
    DatabaseSpec {
        name: "RefSeq Human",
        sequences: 34_705,
        residues: 19_680_000,
    },
    DatabaseSpec {
        name: "RefSeq Mouse",
        sequences: 29_437,
        residues: 16_030_000,
    },
    UNIPROT,
];

/// UniProt, the database of Tables II and V.
pub const UNIPROT: DatabaseSpec = DatabaseSpec {
    name: "UniProt",
    sequences: 537_505,
    residues: UNIPROT_RESIDUES,
};

/// Deterministic uniform sampler (splitmix-style), so the query sets
/// are reproducible without threading an RNG through.
fn det_uniform(seed: u64, i: u64, lo: usize, hi: usize) -> usize {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    lo + (z % (hi - lo + 1) as u64) as usize
}

/// A query set, by its lengths, against a database: one task per query
/// (paper §II-C: "each task is equivalent to the comparison of one
/// \[query\] to the whole database").
///
/// ```
/// use swdual_bench::paper::{Workload, UNIPROT};
/// let w = Workload::paper_queries(UNIPROT);
/// assert_eq!(w.query_lengths.len(), 40);
/// // ≈ 1.95e13 DP cells, the paper's UniProt workload.
/// assert!((w.total_cells() as f64 - 1.9455e13).abs() / 1.9455e13 < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Query lengths in task order.
    pub query_lengths: Vec<usize>,
    /// The database searched.
    pub database: DatabaseSpec,
}

impl Workload {
    /// The paper's standard query set: 40 sequences, lengths uniform in
    /// 100–5000 ("40 real query sequences of minimum size 100 and
    /// maximum size 5,000 amino acids"), seeded, then nudged so the
    /// total is exactly 1e5 residues (mean 2500), matching the Table IV
    /// cell-count derivation.
    pub fn paper_queries(database: DatabaseSpec) -> Workload {
        let mut lengths: Vec<usize> = (0..40)
            .map(|i| det_uniform(0x5EED_2014, i, 100, 5000))
            .collect();
        let total: usize = lengths.iter().sum();
        let target = 100_000usize;
        for l in &mut lengths {
            *l = ((*l as f64) * target as f64 / total as f64)
                .round()
                .max(100.0) as usize;
        }
        // The rounding's remainder goes to the longest query.
        let diff = target as i64 - lengths.iter().sum::<usize>() as i64;
        if let Some(longest) = lengths.iter_mut().max() {
            *longest = (*longest as i64 + diff).max(100) as usize;
        }
        Workload {
            query_lengths: lengths,
            database,
        }
    }

    /// §V-C homogeneous set: 40 sequences of 4500–5000 aa.
    pub fn homogeneous_queries(database: DatabaseSpec) -> Workload {
        Workload {
            query_lengths: (0..40)
                .map(|i| det_uniform(0x5EED_4500, i, 4500, 5000))
                .collect(),
            database,
        }
    }

    /// §V-C heterogeneous set: 40 sequences of 4–35 213 aa (the
    /// smallest and largest sequences in UniProt).
    pub fn heterogeneous_queries(database: DatabaseSpec) -> Workload {
        Workload {
            query_lengths: (0..40)
                .map(|i| det_uniform(0x5EED_3521, i, 4, 35_213))
                .collect(),
            database,
        }
    }

    /// Total DP cells.
    pub fn total_cells(&self) -> u64 {
        self.query_lengths.iter().map(|&l| l as u64).sum::<u64>() * self.database.residues
    }

    /// The scheduler's instance: each task's seconds on a `cpu` and on a
    /// `gpu` worker.
    pub fn tasks(&self, cpu: &WorkerRateModel, gpu: &WorkerRateModel) -> TaskSet {
        let db = self.database.residues;
        TaskSet::new(
            self.query_lengths
                .iter()
                .enumerate()
                .map(|(id, &len)| {
                    Task::new(id, cpu.task_seconds(len, db), gpu.task_seconds(len, db))
                })
                .collect(),
        )
    }
}

/// A standalone tool of Table II: its kernel's curve, with no per-task
/// overhead, and the serial startup it pays once per search.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Name as in Table II.
    pub name: &'static str,
    /// Which processing elements it runs on.
    pub kind: PeKind,
    /// One worker's rate curve.
    pub curve: WorkerRateModel,
    /// Serial startup on UniProt, in seconds (database load, sort,
    /// result handling).
    pub serial_uniprot: f64,
}

impl Baseline {
    /// Serial startup on a database of `residues`, scaled linearly from
    /// the UniProt fit.
    pub fn serial_startup(&self, residues: u64) -> f64 {
        self.serial_uniprot * residues as f64 / UNIPROT_RESIDUES as f64
    }
}

const fn curve(peak_gcups: f64, half_length: f64) -> WorkerRateModel {
    WorkerRateModel {
        peak_gcups,
        half_length,
        per_task_overhead: 0.0,
    }
}

/// The four baselines of Table II, in its order. SWPS3 is fitted to
/// 69 208.2 s at 1 worker and 18 904.3 s at 4; STRIPED to 7 190 s at 1;
/// SWIPE to 2 367.2 s at 1 and 610.2 s at 4; CUDASW++ 2.0 to 785.3 s at
/// 1 (kernel rate 29.6 GCUPS at the mean query length of 2 500 aa).
pub const BASELINES: [Baseline; 4] = [
    Baseline {
        name: "SWPS3",
        kind: PeKind::Cpu,
        curve: curve(0.293, 25.0),
        serial_uniprot: 2136.0,
    },
    Baseline {
        name: "STRIPED",
        kind: PeKind::Cpu,
        curve: curve(2.73, 25.0),
        serial_uniprot: 40.0,
    },
    Baseline {
        name: "SWIPE",
        kind: PeKind::Cpu,
        curve: curve(8.38, 25.0),
        serial_uniprot: 24.0,
    },
    Baseline {
        name: "CUDASW++",
        kind: PeKind::Gpu,
        curve: curve(32.9, 280.0),
        serial_uniprot: 128.0,
    },
];

/// Table I: the baseline applications and their command lines.
pub const TABLE1: &[(&str, &str, &str)] = &[
    ("SWIPE", "1.0", "./swipe -a $T -i $Q -d $D"),
    ("STRIPED", "-", "./striped -T $T $Q $D"),
    ("SWPS3", "20080605", "./swps3 -j $T $Q $D"),
    ("CUDASW++", "2.0", "./cudasw -use_gpus $T -query $Q -db $D"),
];

/// Table II: execution times (s) for 1–4 workers on UniProt, 40
/// queries. `None` marks cells the paper leaves empty.
pub const TABLE2_BASELINES: &[(&str, [Option<f64>; 4])] = &[
    (
        "SWPS3",
        [
            Some(69208.2),
            Some(36174.09),
            Some(25206.563),
            Some(18904.31),
        ],
    ),
    (
        "STRIPED",
        [Some(7190.0), Some(3615.38), Some(1369.33), Some(1027.28)],
    ),
    (
        "SWIPE",
        [Some(2367.24), Some(1199.47), Some(816.61), Some(610.23)],
    ),
    (
        "CUDASW++",
        [Some(785.26), Some(445.611), Some(350.09), Some(292.157)],
    ),
];

/// Table II, SWDUAL block: times (s) for 2–8 workers (GPU-first mix,
/// max 4 GPUs). The paper's row reads 543.28, 472.84, 271.98, 266.69,
/// 239.04, 183.12, 142.98 for 2–8 workers.
pub const TABLE2_SWDUAL: &[(usize, f64)] = &[
    (2, 543.28),
    (3, 472.84),
    (4, 271.98),
    (5, 266.69),
    (6, 239.04),
    (7, 183.12),
    (8, 142.98),
];

/// Rows of a per-database table: `(workers, seconds, gcups)` triples.
pub type WorkerRows = [(usize, f64, f64); 3];

/// Table IV: SWDUAL on the five databases — (database, rows).
pub const TABLE4: &[(&str, WorkerRows)] = &[
    (
        "Ensembl Dog",
        [(2, 78.36, 18.91), (4, 39.63, 37.39), (8, 20.45, 72.45)],
    ),
    (
        "Ensembl Rat",
        [(2, 75.85, 22.97), (4, 37.97, 45.89), (8, 20.17, 86.38)],
    ),
    (
        "RefSeq Mouse",
        [(2, 84.40, 18.99), (4, 46.25, 34.66), (8, 23.59, 67.95)],
    ),
    (
        "RefSeq Human",
        [(2, 95.09, 20.70), (4, 48.01, 41.00), (8, 24.82, 79.31)],
    ),
    (
        "UniProt",
        [(2, 543.28, 35.81), (4, 271.98, 71.53), (8, 142.98, 136.06)],
    ),
];

/// Table V: §V-C query sets on UniProt — (set, rows).
pub const TABLE5: &[(&str, WorkerRows)] = &[
    (
        "Heterogeneous",
        [
            (2, 3554.36, 37.55),
            (4, 1785.73, 74.74),
            (8, 908.45, 146.92),
        ],
    ),
    (
        "Homogeneous",
        [(2, 998.27, 36.3), (4, 484.74, 74.76), (8, 249.69, 145.14)],
    ),
];

/// §V-A headline claims: reduction of SWDUAL vs each baseline at 2 and
/// 4 workers (percent).
pub const HEADLINE_REDUCTIONS: &[(&str, usize, f64)] = &[
    ("SWIPE", 2, 54.7),
    ("STRIPED", 2, 85.0),
    ("SWPS3", 2, 98.0),
    ("SWIPE", 4, 55.3),
    ("STRIPED", 4, 73.5),
    ("SWPS3", 4, 98.6),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_times_decrease_with_workers() {
        for (name, times) in TABLE2_BASELINES {
            let t: Vec<f64> = times.iter().flatten().copied().collect();
            for w in t.windows(2) {
                assert!(w[0] > w[1], "{name}: {} !> {}", w[0], w[1]);
            }
        }
        for w in TABLE2_SWDUAL.windows(2) {
            assert!(w[0].1 > w[1].1);
        }
    }

    #[test]
    fn table4_products_are_consistent_cells() {
        // time × GCUPS must be (nearly) constant per database — the
        // workload's cell count.
        for (db, rows) in TABLE4 {
            let cells: Vec<f64> = rows.iter().map(|&(_, t, g)| t * g).collect();
            for c in &cells[1..] {
                assert!(
                    (c - cells[0]).abs() / cells[0] < 0.06,
                    "{db}: inconsistent cells {cells:?}"
                );
            }
        }
    }

    #[test]
    fn headline_reductions_match_table2() {
        // e.g. SWIPE at 2 workers: 1199.47 -> SWDUAL 543.28 = 54.7%.
        for &(app, workers, pct) in HEADLINE_REDUCTIONS {
            let baseline =
                TABLE2_BASELINES.iter().find(|(n, _)| *n == app).unwrap().1[workers - 1].unwrap();
            let swdual = TABLE2_SWDUAL
                .iter()
                .find(|&&(w, _)| w == workers)
                .unwrap()
                .1;
            let computed = (1.0 - swdual / baseline) * 100.0;
            assert!(
                (computed - pct).abs() < 1.5,
                "{app}@{workers}: computed {computed:.1}% vs stated {pct}%"
            );
        }
    }

    /// One worker's seconds for the §V query set: serial startup plus
    /// 40 tasks of the mean length.
    fn one_worker_time(b: &Baseline) -> f64 {
        b.serial_startup(UNIPROT_RESIDUES) + 40.0 * b.curve.task_seconds(2500, UNIPROT_RESIDUES)
    }

    #[test]
    fn swps3_matches_table2_single_worker() {
        let t = one_worker_time(&BASELINES[0]);
        assert!((t - 69_208.2).abs() / 69_208.2 < 0.02, "got {t}");
    }

    #[test]
    fn striped_matches_table2_single_worker() {
        let t = one_worker_time(&BASELINES[1]);
        assert!((t - 7190.0).abs() / 7190.0 < 0.02, "got {t}");
    }

    #[test]
    fn swipe_matches_table2_single_worker() {
        let t = one_worker_time(&BASELINES[2]);
        assert!((t - 2367.24).abs() / 2367.24 < 0.02, "got {t}");
    }

    #[test]
    fn cudasw_matches_table2_single_worker() {
        let t = one_worker_time(&BASELINES[3]);
        assert!((t - 785.26).abs() / 785.26 < 0.03, "got {t}");
    }

    #[test]
    fn amdahl_fit_predicts_four_worker_rows() {
        // serial + parallel/4 must land near the Table II 4-worker cells.
        for (b, t4_paper, tol) in [
            (BASELINES[0], 18_904.31, 0.03),
            (BASELINES[2], 610.23, 0.04),
            (BASELINES[3], 292.157, 0.08),
        ] {
            let serial = b.serial_startup(UNIPROT_RESIDUES);
            let t4 = serial + (one_worker_time(&b) - serial) / 4.0;
            assert!(
                (t4 - t4_paper).abs() / t4_paper < tol,
                "{}: predicted {t4}, paper {t4_paper}",
                b.name
            );
        }
    }

    #[test]
    fn serial_scales_with_database() {
        let cudasw = BASELINES[3];
        assert_eq!(cudasw.serial_startup(UNIPROT_RESIDUES), 128.0);
        assert!((cudasw.serial_startup(UNIPROT_RESIDUES / 2) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn device_class_models_match_their_curves() {
        use swdual_gpusim::DeviceClass;
        // The C2050 class is the curve SWDUAL's GPU workers plan with.
        let c2050 = WorkerRateModel::for_class(DeviceClass::C2050);
        assert_eq!(c2050, WorkerRateModel::gpu_tesla());
        // Distinct classes give distinct acceleration profiles for the
        // same query — that is the point of the zoo.
        let knl = WorkerRateModel::for_class(DeviceClass::Knl);
        let bioseal = WorkerRateModel::for_class(DeviceClass::Bioseal);
        let db = UNIPROT_RESIDUES;
        assert!(bioseal.task_seconds(2500, db) < knl.task_seconds(2500, db));
        assert!(knl.task_seconds(2500, db) < c2050.task_seconds(2500, db));
    }

    #[test]
    fn gpu_rate_depends_on_query_length_more_than_cpu() {
        let gpu = BASELINES[3].curve;
        let cpu = BASELINES[2].curve;
        let gpu_drop = gpu.rate_gcups(100) / gpu.rate_gcups(5000);
        let cpu_drop = cpu.rate_gcups(100) / cpu.rate_gcups(5000);
        assert!(
            gpu_drop < 0.35,
            "GPU keeps {gpu_drop} of its rate at len 100"
        );
        assert!(cpu_drop > 0.75, "CPU keeps only {cpu_drop} at len 100");
    }

    #[test]
    fn acceleration_ratio_varies_with_length() {
        // The heterogeneity the knapsack exploits: long queries are far
        // better accelerated than short ones.
        let gpu = WorkerRateModel::gpu_tesla();
        let cpu = WorkerRateModel::cpu_swipe();
        let db = UNIPROT_RESIDUES;
        let accel = |len: usize| cpu.task_seconds(len, db) / gpu.task_seconds(len, db);
        assert!(accel(5000) > accel(100) * 1.5);
    }

    #[test]
    fn per_task_overhead_dominates_small_databases() {
        // Ensembl-Dog-sized database: overhead ≈ compute, which is what
        // caps Table IV's small-database GCUPS.
        let gpu = WorkerRateModel::gpu_tesla();
        let t = gpu.task_seconds(2500, DATABASES[0].residues);
        let compute = t - gpu.per_task_overhead;
        assert!(
            gpu.per_task_overhead > compute * 0.5,
            "overhead {} compute {}",
            gpu.per_task_overhead,
            compute
        );
    }

    #[test]
    fn zero_length_query_is_cheap_but_positive() {
        // A baseline curve has no per-task overhead, yet an empty query
        // still costs a positive time, so no schedule divides by zero.
        let curve = BASELINES[2].curve;
        assert!(curve.task_seconds(0, 1000) > 0.0);
        assert_eq!(curve.rate_gcups(0), 0.0);
    }

    #[test]
    fn database_mean_lengths_are_plausible_proteins() {
        for db in DATABASES {
            let mean = db.mean_length();
            assert!((300.0..700.0).contains(&mean), "{}: mean {mean}", db.name);
        }
    }

    #[test]
    fn table3_counts_match_paper() {
        let counts = DATABASES.map(|db| db.sequences);
        assert_eq!(counts, [25_160, 32_971, 34_705, 29_437, 537_505]);
    }

    #[test]
    fn deterministic_workloads() {
        for make in [
            Workload::paper_queries,
            Workload::homogeneous_queries,
            Workload::heterogeneous_queries,
        ] {
            assert_eq!(make(UNIPROT), make(UNIPROT));
        }
    }

    #[test]
    fn paper_queries_match_derived_totals() {
        let w = Workload::paper_queries(UNIPROT);
        assert_eq!(w.query_lengths.len(), 40);
        assert_eq!(w.query_lengths.iter().sum::<usize>(), 100_000);
        assert!(w.query_lengths.iter().all(|&l| (100..=5100).contains(&l)));
        // Total cells ≈ the paper's 1.9455e13.
        let cells = w.total_cells() as f64;
        assert!((cells - 1.9455e13).abs() / 1.9455e13 < 0.001, "{cells}");
    }

    #[test]
    fn homogeneous_set_is_tight() {
        let w = Workload::homogeneous_queries(UNIPROT);
        assert!(w.query_lengths.iter().all(|&l| (4500..=5000).contains(&l)));
        // Total cells near the paper's 3.62e13 (998.27 s × 36.3 GCUPS).
        let cells = w.total_cells() as f64;
        assert!((cells - 3.62e13).abs() / 3.62e13 < 0.05, "{cells}");
    }

    #[test]
    fn heterogeneous_set_spans_uniprot_extremes() {
        let w = Workload::heterogeneous_queries(UNIPROT);
        assert!(w.query_lengths.iter().all(|&l| (4..=35_213).contains(&l)));
        assert!(w.query_lengths.iter().any(|&l| l < 2000));
        assert!(w.query_lengths.iter().any(|&l| l > 25_000));
        // Total cells near the paper's 1.335e14 (3554.36 s × 37.55).
        let cells = w.total_cells() as f64;
        assert!((cells - 1.335e14).abs() / 1.335e14 < 0.2, "{cells}");
    }

    #[test]
    fn tasks_inherit_length_heterogeneity() {
        let w = Workload::paper_queries(UNIPROT);
        let tasks = w.tasks(&WorkerRateModel::cpu_swipe(), &WorkerRateModel::gpu_tesla());
        assert_eq!(tasks.len(), 40);
        assert!(tasks.all_accelerated());
        // Acceleration varies: the knapsack has real choices to make.
        let accels: Vec<f64> = tasks.iter().map(|t| t.acceleration()).collect();
        let min = accels.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = accels.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.2, "accel range {min}..{max} too flat");
    }
}
