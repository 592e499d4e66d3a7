//! Reduced-scale *real* execution.
//!
//! The virtual-time tables prove the scheduling story at paper scale;
//! this module proves the machinery: it generates a scaled-down
//! synthetic UniProt, runs the actual master-slave runtime with real
//! kernels (CPU workers) and the simulated device (GPU workers), checks
//! that every engine agrees on every score, and reports real wall-clock
//! GCUPS for this host.

use crate::render::{Report, Row};
use std::sync::Arc;
use swdual_align::engine::EngineKind;
use swdual_align::scalar::gotoh_score;
use swdual_bio::{ScoringScheme, SequenceSet, SqbImage};
use swdual_core::SearchBuilder;
use swdual_datagen::{queries_from_database, scaled_database, MutationProfile};
use swdual_runtime::AllocationPolicy;
use swdual_sched::dual::KnapsackMethod;

/// Configuration of the reduced-scale run.
#[derive(Debug, Clone, Copy)]
pub struct ExecuteConfig {
    /// Fraction of UniProt's sequence count to generate (e.g. 0.002 →
    /// ~1075 sequences).
    pub db_scale: f64,
    /// Number of queries.
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExecuteConfig {
    fn default() -> Self {
        ExecuteConfig {
            db_scale: 0.002,
            queries: 8,
            seed: 2014,
        }
    }
}

/// Outcome of the reduced-scale execution.
#[derive(Debug, Clone)]
pub struct ExecuteOutcome {
    /// One row per worker configuration.
    pub report: Report,
    /// Whether every engine agreed on every score.
    pub scores_agree: bool,
    /// Database sequences generated.
    pub db_sequences: usize,
    /// Total cells per full search.
    pub cells: u64,
}

/// The generated database as the image the searches share.
fn database_image(database: &SequenceSet) -> Arc<SqbImage> {
    Arc::new(SqbImage::from_set(database).expect("datagen ids fit SQB's 65 535-byte field"))
}

/// Run the reduced-scale end-to-end experiment.
pub fn execute_reduced(config: ExecuteConfig) -> ExecuteOutcome {
    // Synthetic UniProt slice with paper-like length distribution.
    let database = scaled_database("uniprot", 537_505, 362.0, config.db_scale, config.seed);
    let queries = queries_from_database(
        &database,
        config.queries,
        30,
        5000,
        &MutationProfile::homolog(),
        config.seed + 1,
    );
    let scheme = ScoringScheme::protein_default();
    let cells = queries.total_residues() * database.total_residues();

    // Cross-engine agreement on a sample of pairs (all engines on the
    // first query vs first 32 database sequences).
    let mut scores_agree = true;
    if let Some(q) = queries.get(0) {
        let expected: Vec<i32> = database
            .iter()
            .take(32)
            .map(|d| gotoh_score(q.codes(), d.codes(), &scheme))
            .collect();
        for kind in EngineKind::ALL {
            let engine = kind.build();
            let refs: Vec<&[u8]> = database.iter().take(32).map(|s| s.codes()).collect();
            let got = engine.score_many(q.codes(), &refs, &scheme);
            if got != expected {
                scores_agree = false;
            }
        }
    }

    // Real runtime across worker mixes, all on one database image.
    let image = database_image(&database);
    let mut rows = Vec::new();
    let mut reference_hits = None;
    for (label, cpus, gpus) in [
        ("1 CPU", 1usize, 0usize),
        ("1 GPU(sim)", 0, 1),
        ("1 CPU + 1 GPU", 1, 1),
        ("2 CPU + 2 GPU", 2, 2),
    ] {
        let report = SearchBuilder::new()
            .database_image(Arc::clone(&image))
            .queries(queries.clone())
            .hybrid_workers(cpus, gpus)
            .policy(AllocationPolicy::DualApprox(KnapsackMethod::Greedy))
            .top_k(5)
            .run();
        // Hits must be identical regardless of worker mix.
        match &reference_hits {
            None => reference_hits = Some(report.hits().to_vec()),
            Some(reference) => {
                if reference.as_slice() != report.hits() {
                    scores_agree = false;
                }
            }
        }
        rows.push(Row {
            label: label.to_string(),
            workers: cpus + gpus,
            seconds: report.wall_seconds(),
            gcups: report.wall_gcups(),
            paper_seconds: None,
            paper_gcups: None,
        });
    }

    ExecuteOutcome {
        report: Report {
            id: "Execute".into(),
            description: format!(
                "real end-to-end runtime, synthetic UniProt slice ({} seqs, {} queries, wall clock)",
                database.len(),
                queries.len()
            ),
            rows,
        },
        scores_agree,
        db_sequences: database.len(),
        cells,
    }
}

/// Run one observed hybrid search (1 CPU + 1 GPU) on the reduced-scale
/// dataset and return its report, from which callers export the
/// Chrome-trace timeline, metrics and journal (`repro execute
/// --trace-out ...`).
pub fn execute_traced(config: ExecuteConfig) -> swdual_core::SearchReport {
    let database = scaled_database("uniprot", 537_505, 362.0, config.db_scale, config.seed);
    let queries = queries_from_database(
        &database,
        config.queries,
        30,
        5000,
        &MutationProfile::homolog(),
        config.seed + 1,
    );
    SearchBuilder::new()
        .database_image(database_image(&database))
        .queries(queries)
        .hybrid_workers(1, 1)
        .policy(AllocationPolicy::DualApprox(KnapsackMethod::Greedy))
        .top_k(5)
        .observe()
        .run()
}

/// Outcome of the fault-injection demonstration.
#[derive(Debug, Clone)]
pub struct FaultDemoOutcome {
    /// The injected plan, rendered in CLI syntax.
    pub plan: String,
    /// Whether the faulted run's hits were bit-identical to the
    /// fault-free run's.
    pub hits_identical: bool,
    /// Fault-free wall seconds.
    pub healthy_seconds: f64,
    /// Faulted (detect + re-plan + re-execute) wall seconds.
    pub faulted_seconds: f64,
}

/// Run the reduced-scale hybrid search twice — fault-free, then under
/// the deterministic fault plan derived from `fault_seed` — and check
/// the hits are bit-identical (the runtime's core fault-tolerance
/// guarantee: faults move work, never change scores).
pub fn execute_fault_demo(config: ExecuteConfig, fault_seed: u64) -> FaultDemoOutcome {
    let database = scaled_database("uniprot", 537_505, 362.0, config.db_scale, config.seed);
    let queries = queries_from_database(
        &database,
        config.queries,
        30,
        5000,
        &MutationProfile::homolog(),
        config.seed + 1,
    );
    let image = database_image(&database);
    let build = || {
        SearchBuilder::new()
            .database_image(Arc::clone(&image))
            .queries(queries.clone())
            .hybrid_workers(2, 2)
            .policy(AllocationPolicy::DualApprox(KnapsackMethod::Greedy))
            .top_k(5)
    };
    let healthy = build().run();
    let plan = swdual_runtime::FaultPlan::seeded(fault_seed, 4);
    let faulted = build()
        .fault_seed(fault_seed)
        .min_job_timeout(std::time::Duration::from_millis(250))
        .run();
    FaultDemoOutcome {
        plan: plan.to_string(),
        hits_identical: healthy.hits() == faulted.hits(),
        healthy_seconds: healthy.wall_seconds(),
        faulted_seconds: faulted.wall_seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_demo_hits_are_identical() {
        let out = execute_fault_demo(
            ExecuteConfig {
                db_scale: 0.0002,
                queries: 3,
                seed: 9,
            },
            7,
        );
        assert!(out.hits_identical, "plan `{}` changed the hits", out.plan);
        assert!(out.healthy_seconds > 0.0 && out.faulted_seconds > 0.0);
    }

    #[test]
    fn traced_execution_produces_events() {
        let report = execute_traced(ExecuteConfig {
            db_scale: 0.0002,
            queries: 2,
            seed: 5,
        });
        assert!(report.obs().is_enabled());
        assert!(report.obs().event_count() > 0);
        assert!(report.timeline().contains("traceEvents"));
    }

    #[test]
    fn reduced_execution_is_consistent() {
        let out = execute_reduced(ExecuteConfig {
            db_scale: 0.0003, // ~161 sequences: fast enough for a test
            queries: 3,
            seed: 77,
        });
        assert!(out.scores_agree, "engines disagreed on scores");
        assert_eq!(out.report.rows.len(), 4);
        assert!(out.db_sequences > 100);
        assert!(out.cells > 0);
        for row in &out.report.rows {
            assert!(row.seconds > 0.0);
            assert!(row.gcups > 0.0);
        }
    }
}
