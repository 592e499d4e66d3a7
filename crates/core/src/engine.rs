//! The search builder: configure and launch a hybrid database search.
//!
//! A search with a sink — [`SearchBuilder::journal_out`],
//! [`SearchBuilder::watchdog`], [`SearchBuilder::progress`] — runs one
//! journal follower thread beside it ([`crate::live`]); one without runs
//! none.

use crate::live::{Follower, Sinks};
use crate::report::SearchReport;
use std::sync::Arc;
use swdual_bio::error::BioError;
use swdual_bio::fasta::ResiduePolicy;
use swdual_bio::seq::SequenceSet;
use swdual_bio::{Alphabet, ScoringScheme, SqbImage};
use swdual_obs::Obs;
use swdual_runtime::{
    try_run_search, AllocationPolicy, FaultPlan, ReoptConfig, RuntimeConfig, SearchError,
    WorkerSpec,
};

/// Builder for one database search — the programmatic equivalent of the
/// paper's command line ("Receive parameters" in Figure 6).
pub struct SearchBuilder {
    database: Option<Arc<SqbImage>>,
    queries: Option<SequenceSet>,
    scheme: ScoringScheme,
    workers: Vec<WorkerSpec>,
    policy: AllocationPolicy,
    top_k: usize,
    obs: Obs,
    faults: FaultPlan,
    min_job_timeout: Option<std::time::Duration>,
    reopt: Option<ReoptConfig>,
    sinks: Sinks,
}

impl Default for SearchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchBuilder {
    /// A builder with the paper's defaults: BLOSUM62 with gap 10/2, one
    /// CPU + one GPU worker (the smallest configuration SWDUAL
    /// supports), dual-approximation allocation, top-10 hits.
    pub fn new() -> SearchBuilder {
        SearchBuilder {
            database: None,
            queries: None,
            scheme: ScoringScheme::protein_default(),
            workers: vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()],
            policy: AllocationPolicy::DualApprox,
            top_k: 10,
            obs: Obs::disabled(),
            faults: FaultPlan::none(),
            min_job_timeout: None,
            reopt: None,
            sinks: Sinks::default(),
        }
    }

    /// Set the database to search: a checked SQB image, which the
    /// workers score in place and the report resolves ids from. Every
    /// other way of naming a database comes through here.
    pub fn database_image(mut self, database: impl Into<Arc<SqbImage>>) -> Self {
        self.database = Some(database.into());
        self
    }

    /// Set the database from an in-memory set, encoded to an image.
    /// Fails on a record SQB cannot hold (an id over 65 535 bytes).
    pub fn database(self, database: SequenceSet) -> Result<Self, BioError> {
        Ok(self.database_image(SqbImage::from_set(&database)?))
    }

    /// Load the database from a FASTA file (lossy residue handling,
    /// like production tools), encoded record by record to an image.
    pub fn database_fasta(
        self,
        path: impl AsRef<std::path::Path>,
        alphabet: Alphabet,
    ) -> Result<Self, BioError> {
        let image = swdual_bio::fasta::read_image(path, alphabet, ResiduePolicy::Lossy)?;
        Ok(self.database_image(image))
    }

    /// Load the database from an SQB binary file (the paper's format):
    /// one read, one check, nothing decoded.
    pub fn database_sqb(self, path: impl AsRef<std::path::Path>) -> Result<Self, BioError> {
        Ok(self.database_image(SqbImage::open(path)?))
    }

    /// Set the query set.
    pub fn queries(mut self, queries: SequenceSet) -> Self {
        self.queries = Some(queries);
        self
    }

    /// Load queries from a FASTA file.
    pub fn queries_fasta(
        mut self,
        path: impl AsRef<std::path::Path>,
        alphabet: Alphabet,
    ) -> Result<Self, BioError> {
        self.queries = Some(swdual_bio::fasta::read_file(
            path,
            alphabet,
            ResiduePolicy::Lossy,
        )?);
        Ok(self)
    }

    /// Override the scoring scheme.
    pub fn scheme(mut self, scheme: ScoringScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Set the worker pool.
    pub fn workers(mut self, workers: Vec<WorkerSpec>) -> Self {
        self.workers = workers;
        self
    }

    /// Convenience: `cpus` CPU workers plus `gpus` GPU workers with the
    /// default engines.
    pub fn hybrid_workers(mut self, cpus: usize, gpus: usize) -> Self {
        let mut workers = Vec::with_capacity(cpus + gpus);
        for _ in 0..gpus {
            workers.push(WorkerSpec::gpu_default());
        }
        for _ in 0..cpus {
            workers.push(WorkerSpec::cpu_default());
        }
        self.workers = workers;
        self
    }

    /// Configure online re-optimization (off by default). See
    /// [`ReoptConfig`]: when observed per-worker slowdown skew exceeds
    /// the threshold, the master re-plans undispatched tasks on the
    /// re-calibrated platform.
    pub fn reopt(mut self, reopt: ReoptConfig) -> Self {
        self.reopt = Some(reopt);
        self
    }

    /// Override the allocation policy.
    pub fn policy(mut self, policy: AllocationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Hits kept per query.
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// Enable structured tracing: master phases, scheduler decisions,
    /// per-job worker spans and simulated-device activity are recorded
    /// into the report, from which [`SearchReport::timeline`],
    /// [`SearchReport::metrics`] and [`SearchReport::journal`] export.
    /// Off by default; the disabled recorder costs one branch per
    /// would-be event in the hot path.
    pub fn observe(mut self) -> Self {
        self.obs = Obs::enabled();
        self
    }

    /// Use a caller-supplied recorder (e.g. one shared with other
    /// subsystems). Pass [`Obs::enabled`] to record, [`Obs::disabled`]
    /// to switch tracing back off.
    pub fn observability(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Watch the run with the incremental anomaly watchdog
    /// ([`swdual_obs::watch`]): the journal follower folds the growing
    /// journal and journals typed `alert_*` events (straggler,
    /// bound-at-risk, worker-dead, queue-stall, reopt-fired) the
    /// moment they trip. Implies an enabled recorder; read the results
    /// live via [`Obs::events_since`] or post-hoc via
    /// [`SearchReport::alerts`](crate::report::SearchReport::alerts).
    pub fn watchdog(mut self, on: bool) -> Self {
        self.sinks.watchdog = on;
        self
    }

    /// Write the journal to `path` as the search runs: a header, then
    /// whole event lines, flushed every 10 ms, so a run that panics or
    /// is killed leaves a file every journal reader accepts. After the
    /// run the file holds exactly [`SearchReport::journal`]. Implies an
    /// enabled recorder. The file is created here, so a bad path fails
    /// before any work.
    pub fn journal_out(mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        self.sinks.journal = Some(std::fs::File::create(path)?);
        Ok(self)
    }

    /// Print a progress line on stderr while the search runs: tasks
    /// done, queue depth, live workers and job latency quantiles.
    /// Implies an enabled recorder.
    pub fn progress(mut self, on: bool) -> Self {
        self.sinks.progress = on;
        self
    }

    /// Switch CUPTI-style phase profiling on or off. Profiling implies
    /// tracing (phase spans ride the same event buffer), so enabling it
    /// on a builder without a recorder turns one on; disabling it keeps
    /// tracing as configured. When off (the default) the per-job hot
    /// path stays allocation-free — phase hooks cost one relaxed atomic
    /// load. The collected profile is read back through
    /// [`SearchReport::profile`].
    pub fn profile(mut self, on: bool) -> Self {
        if on && !self.obs.is_enabled() {
            self.obs = Obs::enabled();
        }
        self.obs.set_profiling(on);
        self
    }

    /// Inject an explicit fault plan (worker crashes, device failures,
    /// stragglers). Faults change who computes what and when — never
    /// the hits, as long as one worker survives.
    pub fn fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Inject the deterministic pseudo-random fault plan derived from
    /// `seed` (see [`FaultPlan::seeded`]): same seed and worker count,
    /// same faults, every run. The plan depends on the worker count, so
    /// configure the worker pool *before* calling this.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        let n = self.workers.len();
        self.faults = FaultPlan::seeded(seed, n);
        self
    }

    /// Floor of the per-worker job deadline — silent deaths cannot be
    /// detected faster than this. Mostly useful to speed up tests and
    /// fault demos.
    pub fn min_job_timeout(mut self, floor: std::time::Duration) -> Self {
        self.min_job_timeout = Some(floor);
        self
    }

    fn into_config_and_sets(self) -> (Arc<SqbImage>, SequenceSet, Vec<WorkerSpec>, RuntimeConfig) {
        let database = self.database.expect("database not set");
        let queries = self.queries.expect("queries not set");
        let mut config = RuntimeConfig {
            scheme: self.scheme,
            policy: self.policy,
            top_k: self.top_k,
            obs: self.obs,
            faults: self.faults,
            ..RuntimeConfig::default()
        };
        if let Some(floor) = self.min_job_timeout {
            config.min_job_timeout = floor;
        }
        if let Some(reopt) = self.reopt {
            config.reopt = reopt;
        }
        (database, queries, self.workers, config)
    }

    /// Launch the search, returning a typed error instead of panicking
    /// when the platform is lost (all workers dead, nobody registered,
    /// retry budget exhausted).
    ///
    /// # Panics
    /// Still panics when the database or query set was never set —
    /// those are caller bugs, not runtime conditions.
    pub fn try_run(mut self) -> Result<SearchReport, SearchError> {
        // The follower pages a recorder; switch one on if the caller
        // asked for a sink but left observability off.
        let sinks = std::mem::take(&mut self.sinks);
        if !sinks.is_empty() && !self.obs.is_enabled() {
            self.obs = Obs::enabled();
        }
        let (database, queries, workers, config) = self.into_config_and_sets();
        let obs = config.obs.clone();
        let query_meta: Vec<String> = queries.iter().map(|s| s.id.clone()).collect();
        // Finished whether the run succeeded or not — a failed run is
        // exactly when its journal matters most — and dropped, with the
        // same final pages, if the search panics.
        let follower = Follower::start(&obs, sinks);
        let outcome = try_run_search(Arc::clone(&database), queries, &workers, config);
        if let Some(follower) = follower {
            follower.finish();
        }
        let outcome = outcome?;
        Ok(SearchReport::new(outcome, database, query_meta).with_obs(obs))
    }

    /// Launch the search.
    ///
    /// # Panics
    /// Panics when the database or query set is missing, or when the
    /// worker pool is empty or entirely lost mid-run.
    pub fn run(self) -> SearchReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("search failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_datagen::{queries_from_database, synthetic_database, LengthModel, MutationProfile};
    use swdual_gpusim::DeviceClass;

    fn demo_sets() -> (SequenceSet, SequenceSet) {
        let db = synthetic_database("db", 20, LengthModel::Fixed(80), 21);
        let q = queries_from_database(&db, 3, 1, usize::MAX, &MutationProfile::homolog(), 22);
        (db, q)
    }

    #[test]
    fn builder_end_to_end() {
        let (db, q) = demo_sets();
        let report = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .hybrid_workers(1, 1)
            .top_k(3)
            .run();
        assert_eq!(report.hits().len(), 3);
        for h in report.hits() {
            assert!(h.hits.len() <= 3);
        }
        assert!(report.total_cells() > 0);
    }

    #[test]
    fn self_scheduling_policy_through_builder() {
        let (db, q) = demo_sets();
        let report = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .policy(AllocationPolicy::SelfScheduling)
            .run();
        assert!(report.schedule().is_none());
    }

    #[test]
    #[should_panic]
    fn missing_database_panics() {
        let (_, q) = demo_sets();
        let _ = SearchBuilder::new().queries(q).run();
    }

    #[test]
    fn fault_plan_through_builder_preserves_hits() {
        let (db, q) = demo_sets();
        let healthy = SearchBuilder::new()
            .database(db.clone())
            .unwrap()
            .queries(q.clone())
            .hybrid_workers(1, 1)
            .run();
        let faulted = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .hybrid_workers(1, 1)
            .fault_plan("0:device@1".parse().unwrap())
            .min_job_timeout(std::time::Duration::from_millis(60))
            .run();
        assert_eq!(healthy.hits(), faulted.hits());
    }

    #[test]
    fn fault_seed_is_deterministic_through_builder() {
        let (db, q) = demo_sets();
        let run = |seed| {
            SearchBuilder::new()
                .database(db.clone())
                .unwrap()
                .queries(q.clone())
                .hybrid_workers(2, 1)
                .fault_seed(seed)
                .min_job_timeout(std::time::Duration::from_millis(60))
                .run()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.hits(), b.hits());
        // Same-seed runs inject the same faults, so per-worker task
        // counts also match.
        let tasks =
            |r: &SearchReport| -> Vec<usize> { r.worker_stats().iter().map(|s| s.tasks).collect() };
        assert_eq!(tasks(&a), tasks(&b));
    }

    #[test]
    fn zoo_workers_and_reopt_through_builder() {
        let (db, q) = demo_sets();
        let baseline = SearchBuilder::new()
            .database(db.clone())
            .unwrap()
            .queries(q.clone())
            .hybrid_workers(1, 1)
            .run();
        for class in DeviceClass::ALL {
            let report = SearchBuilder::new()
                .database(db.clone())
                .unwrap()
                .queries(q.clone())
                .workers(vec![
                    WorkerSpec::device_class(class),
                    WorkerSpec::cpu_default(),
                ])
                .run();
            assert_eq!(
                report.hits(),
                baseline.hits(),
                "{class}: scores are device-independent"
            );
        }
        // Mixed zoo + re-opt + deliberate miscalibration still returns
        // identical hits.
        let mixed = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .workers(vec![
                WorkerSpec::device_class(DeviceClass::Knl),
                WorkerSpec::device_class(DeviceClass::Bioseal),
                WorkerSpec::cpu_default().with_prior_scale(2.0),
                WorkerSpec::cpu_default(),
            ])
            .reopt(ReoptConfig::enabled())
            .run();
        assert_eq!(mixed.hits(), baseline.hits());
    }

    #[test]
    fn try_run_surfaces_platform_loss() {
        let (db, q) = demo_sets();
        let err = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .workers(vec![WorkerSpec::cpu_default()])
            .fault_plan("0:crash@0".parse().unwrap())
            .try_run()
            .unwrap_err();
        assert!(matches!(err, SearchError::AllWorkersDead { .. }));
    }

    #[test]
    fn fasta_and_sqb_loading() {
        let (db, q) = demo_sets();
        let dir = std::env::temp_dir().join("swdual_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let fasta_path = dir.join("db.fasta");
        let sqb_path = dir.join("db.sqb");
        let q_path = dir.join("q.fasta");
        swdual_bio::fasta::write_file(&db, &fasta_path).unwrap();
        swdual_bio::sqb::write_file(&db, &sqb_path).unwrap();
        swdual_bio::fasta::write_file(&q, &q_path).unwrap();

        // Three ways to name the same database, one image behind each:
        // hits, ids, rendered report and the modelled clock agree on a
        // CPU + simulated-GPU pool.
        let report_fasta = SearchBuilder::new()
            .database_fasta(&fasta_path, Alphabet::Protein)
            .unwrap()
            .queries_fasta(&q_path, Alphabet::Protein)
            .unwrap()
            .hybrid_workers(1, 1)
            .run();
        let report_sqb = SearchBuilder::new()
            .database_sqb(&sqb_path)
            .unwrap()
            .queries(q.clone())
            .hybrid_workers(1, 1)
            .run();
        let report_set = SearchBuilder::new()
            .database(db.clone())
            .unwrap()
            .queries(q)
            .hybrid_workers(1, 1)
            .run();
        assert!(!report_set.hits().is_empty());
        for other in [&report_fasta, &report_sqb] {
            assert_eq!(other.database(), report_set.database());
            assert_eq!(other.hits(), report_set.hits());
            assert_eq!(other.render_hits(10), report_set.render_hits(10));
            assert_eq!(other.modelled_makespan(), report_set.modelled_makespan());
        }
        for (i, seq) in db.iter().enumerate() {
            assert_eq!(report_sqb.database_id(i), seq.id);
        }
        std::fs::remove_file(&fasta_path).ok();
        std::fs::remove_file(&sqb_path).ok();
        std::fs::remove_file(&q_path).ok();
    }
}
