//! Search reports: results plus accounting, with human-readable
//! rendering ("present them to the user", paper Figure 6).

use std::sync::{Arc, OnceLock};
use swdual_bio::SqbImage;
use swdual_obs::{Obs, RunModel};
use swdual_runtime::{QueryHits, SearchOutcome, WorkerStats};
use swdual_sched::schedule::Schedule;

/// The outcome of one search with the metadata needed to present it.
#[derive(Debug, Clone)]
pub struct SearchReport {
    outcome: SearchOutcome,
    /// The database the search ran on; ids are read from it when a hit
    /// is rendered, never copied out.
    database: Arc<SqbImage>,
    query_ids: Vec<String>,
    obs: Obs,
    /// The recorder's events folded once, on first use; every view
    /// below reads it.
    model: OnceLock<RunModel>,
}

impl SearchReport {
    /// Wrap a runtime outcome with the database it searched and the
    /// query ids.
    pub fn new(
        outcome: SearchOutcome,
        database: Arc<SqbImage>,
        query_ids: Vec<String>,
    ) -> SearchReport {
        SearchReport {
            outcome,
            database,
            query_ids,
            obs: Obs::disabled(),
            model: OnceLock::new(),
        }
    }

    /// Attach the recorder the search ran with, so the exporters below
    /// have events to draw from.
    pub fn with_obs(mut self, obs: Obs) -> SearchReport {
        self.obs = obs;
        self.model = OnceLock::new();
        self
    }

    /// The run model every view below derives from: the recorder's
    /// events as they stood at the first call, folded in place (the
    /// search is over by the time a report exists). Empty when tracing
    /// was off.
    pub fn model(&self) -> &RunModel {
        self.model.get_or_init(|| RunModel::from_obs(&self.obs))
    }

    /// Ranked hits per query.
    pub fn hits(&self) -> &[QueryHits] {
        &self.outcome.hits
    }

    /// Per-worker accounting.
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.outcome.worker_stats
    }

    /// The static schedule when the dual-approximation allocator ran.
    pub fn schedule(&self) -> Option<&Schedule> {
        self.outcome.schedule.as_ref()
    }

    /// Real elapsed seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.outcome.wall_seconds
    }

    /// Modelled makespan (the paper-comparable clock).
    pub fn modelled_makespan(&self) -> f64 {
        self.outcome.modelled_makespan
    }

    /// Total DP cells computed.
    pub fn total_cells(&self) -> u64 {
        self.outcome.total_cells
    }

    /// Modelled throughput in GCUPS.
    pub fn modelled_gcups(&self) -> f64 {
        self.outcome.modelled_gcups()
    }

    /// Real throughput in GCUPS.
    pub fn wall_gcups(&self) -> f64 {
        self.outcome.wall_gcups()
    }

    /// The database the search ran on.
    pub fn database(&self) -> &SqbImage {
        &self.database
    }

    /// Id of a database sequence.
    ///
    /// # Panics
    /// When `index` is not a record of the database, as an out-of-range
    /// slice index does.
    pub fn database_id(&self, index: usize) -> &str {
        match self.database.get(index) {
            Some(record) => record.id(),
            None => panic!(
                "database index {index} out of range for {} records",
                self.database.len()
            ),
        }
    }

    /// Id of a query.
    pub fn query_id(&self, index: usize) -> &str {
        &self.query_ids[index]
    }

    /// Annotate one query's hits with Karlin–Altschul statistics: each
    /// hit becomes `(db_index, raw score, bit score, E-value)`.
    /// `query_len`/`db_residues` define the search space; `params`
    /// usually comes from [`swdual_bio::karlin::gapped_params`].
    pub fn hits_with_statistics(
        &self,
        query_index: usize,
        query_len: usize,
        db_residues: u64,
        params: &swdual_bio::karlin::KarlinParams,
    ) -> Vec<(usize, i32, f64, f64)> {
        self.outcome.hits[query_index]
            .hits
            .iter()
            .map(|h| {
                (
                    h.db_index,
                    h.score,
                    params.bit_score(h.score),
                    params.evalue(h.score, query_len, db_residues),
                )
            })
            .collect()
    }

    /// The event recorder the search ran with. Empty (disabled) unless
    /// the search was built with `SearchBuilder::observe`.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Chrome-trace (Perfetto-loadable) JSON of the run: wall-clock
    /// spans, modelled execution per worker and the planned schedule on
    /// separate process tracks. Valid-but-empty when tracing was off.
    pub fn timeline(&self) -> String {
        swdual_obs::export::chrome_trace(&self.obs)
    }

    /// Prometheus-style text metrics: a view of the run's folded
    /// journal, so `metrics_text` of the written journal is this text.
    pub fn metrics(&self) -> String {
        swdual_obs::export::metrics_text(self.model())
    }

    /// JSON-lines journal: a schema header line followed by one event
    /// object per line, in recording order.
    pub fn journal(&self) -> String {
        swdual_obs::export::journal_jsonl(&self.obs)
    }

    /// Audit the run against the scheduler's promises: achieved
    /// makespan vs λ and the 2λ bound, per-worker utilization, load
    /// imbalance, latency quantiles, planned-vs-actual skew, GPU
    /// ordering quality. Empty report when tracing was off.
    pub fn analysis(&self) -> swdual_obs::analysis::RunReport {
        swdual_obs::analysis::analyze(self.model())
    }

    /// Fold the recorded events into the unified [`Profile`]: collapsed
    /// stacks (worker task/phase frames, device kernel/transfer frames)
    /// with dual wall/modelled weights, plus the per-device roofline
    /// accumulators. Task-level stacks are available from any traced
    /// run; phase-level frames appear when the search was built with
    /// [`SearchBuilder::profile`](crate::SearchBuilder::profile)`(true)`.
    /// Empty when tracing was off.
    ///
    /// [`Profile`]: swdual_obs::profile::Profile
    pub fn profile(&self) -> swdual_obs::profile::Profile {
        swdual_obs::profile::Profile::from_model(self.model())
    }

    /// Explain the run causally: the true critical path on both
    /// clocks, blame attribution of the whole modelled makespan
    /// (compute / transfer / queue wait / straggle / recovery /
    /// re-plan / imbalance) per run, worker and query-length bucket.
    /// Quiet when tracing was off. [`whatif::what_if`](crate::whatif::what_if)
    /// replays counterfactuals from the same [`RunModel`].
    ///
    /// [`RunModel`]: swdual_obs::RunModel
    pub fn explain(&self) -> swdual_obs::explain::ExplainReport {
        swdual_obs::explain::explain(self.model())
    }

    /// The watchdog alerts journaled during the run, in firing order
    /// (see [`Alert`](swdual_obs::watch::Alert)). Empty
    /// when the run was not watched — enable with
    /// [`SearchBuilder::watchdog`](crate::engine::SearchBuilder::watchdog)
    /// — or when nothing tripped.
    pub fn alerts(&self) -> Vec<swdual_obs::watch::Alert> {
        self.model().alerts.clone()
    }

    /// Compare this run against a baseline run: every audited metric
    /// (makespans on both clocks, bound margin, per-worker utilization,
    /// latency quantiles, throughput, fault counts) plus the profile
    /// fold (per-phase self-times, per-device busy time, roofline
    /// verdict flips) classified IMPROVED / REGRESSED / neutral under
    /// the default tolerances. `self` is the head, `baseline` the base:
    /// a positive delta means this run's value is higher.
    pub fn diff(&self, baseline: &SearchReport) -> swdual_obs::diff::DiffReport {
        let opts = swdual_obs::diff::DiffOptions {
            include_profile: true,
            ..Default::default()
        };
        swdual_obs::diff::diff_models(baseline.model(), self.model(), &opts)
    }

    /// Render the hit lists like a classic search tool report.
    pub fn render_hits(&self, per_query: usize) -> String {
        let mut out = String::new();
        for qh in &self.outcome.hits {
            out.push_str(&format!("Query {}:\n", self.query_ids[qh.query_index]));
            for hit in qh.hits.iter().take(per_query) {
                out.push_str(&format!(
                    "  {:>8}  score {}\n",
                    self.database_id(hit.db_index),
                    hit.score
                ));
            }
        }
        out
    }

    /// Render the per-worker summary table.
    pub fn render_workers(&self) -> String {
        let mut out =
            String::from("worker  engine                     tasks  modelled-busy(s)  GCUPS\n");
        for s in &self.outcome.worker_stats {
            out.push_str(&format!(
                "{:>6}  {:<25} {:>6}  {:>16.3}  {:>5.2}\n",
                s.worker_id,
                s.description,
                s.tasks,
                s.busy_modelled,
                s.modelled_gcups()
            ));
        }
        out.push_str(&format!(
            "modelled makespan {:.3} s, {:.2} GCUPS ({} cells)\n",
            self.modelled_makespan(),
            self.modelled_gcups(),
            self.total_cells()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchBuilder;
    use swdual_datagen::{queries_from_database, synthetic_database, LengthModel, MutationProfile};

    fn report() -> SearchReport {
        let db = synthetic_database("db", 12, LengthModel::Fixed(60), 5);
        let q = queries_from_database(&db, 2, 1, usize::MAX, &MutationProfile::homolog(), 6);
        SearchBuilder::new().database(db).unwrap().queries(q).run()
    }

    #[test]
    fn render_hits_names_queries_and_subjects() {
        let r = report();
        let text = r.render_hits(3);
        assert!(text.contains("Query query_0:"));
        assert!(text.contains("score"));
        assert!(text.contains("db_"));
    }

    #[test]
    fn render_workers_includes_totals() {
        let r = report();
        let text = r.render_workers();
        assert!(text.contains("modelled makespan"));
        assert!(text.contains("GCUPS"));
        assert!(text.contains("CPU(") || text.contains("GPU("));
    }

    #[test]
    fn statistics_annotation_is_monotone() {
        let r = report();
        let params = swdual_bio::karlin::gapped_params(10, 2).unwrap();
        let annotated = r.hits_with_statistics(0, 60, 720, &params);
        assert!(!annotated.is_empty());
        for w in annotated.windows(2) {
            // Hits are score-sorted, so bit scores fall and E-values rise.
            assert!(w[0].2 >= w[1].2);
            assert!(w[0].3 <= w[1].3);
        }
        // The top hit is the (near-)identical source: tiny E-value.
        assert!(annotated[0].3 < 1e-6, "E = {}", annotated[0].3);
    }

    #[test]
    fn observed_report_exports_nonempty_timeline_and_metrics() {
        let db = synthetic_database("db", 12, LengthModel::Fixed(60), 5);
        let q = queries_from_database(&db, 2, 1, usize::MAX, &MutationProfile::homolog(), 6);
        let r = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .observe()
            .run();
        assert!(r.obs().is_enabled());
        assert!(r.obs().event_count() > 0);

        let trace = r.timeline();
        let parsed = serde_json::from_str::<serde_json::Value>(&trace).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());

        let metrics = r.metrics();
        assert!(metrics.contains("swdual_events_total"));
        assert!(metrics.contains("swdual_track_busy_modelled_seconds"));

        let journal = r.journal();
        // Header line plus one line per event.
        assert_eq!(journal.lines().count(), r.obs().event_count() + 1);

        let audit = r.analysis();
        let jobs = format!(
            "swdual_counter{{name=\"jobs_completed\"}} {}\n",
            audit.tasks
        );
        assert!(metrics.contains(&jobs), "{metrics}");
        let replayed = RunModel::from_journal(&journal).unwrap();
        assert_eq!(swdual_obs::export::metrics_text(&replayed), metrics);
        assert!(audit.modelled_makespan > 0.0);
        assert!(audit.has_bound);
        assert!(audit.bound_holds, "2λ bound must hold on a healthy run");
    }

    #[test]
    fn unobserved_report_exports_are_valid_but_empty() {
        let r = report();
        assert!(!r.obs().is_enabled());
        let parsed = serde_json::from_str::<serde_json::Value>(&r.timeline()).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        // Only the fixed process-name metadata records, no spans.
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
        assert!(r.journal().is_empty());
    }

    #[test]
    fn profiled_report_reconciles_with_analysis() {
        use swdual_obs::profile::ProfileClock;
        let db = synthetic_database("db", 12, LengthModel::Fixed(60), 5);
        let q = queries_from_database(&db, 2, 1, usize::MAX, &MutationProfile::homolog(), 6);
        let r = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .profile(true)
            .run();
        assert!(r.obs().is_profiling());
        let profile = r.profile();
        assert!(!profile.stacks.is_empty());
        // Phase frames present: at least the DP inner loop on a CPU
        // worker or kernel phases on the device.
        assert!(profile
            .stacks
            .iter()
            .any(|s| s.frames.iter().any(|f| f == "dp_inner" || f == "compute")));
        // Per-worker root totals equal the auditor's busy times — the
        // reconciliation the CI smoke test asserts end to end.
        let audit = r.analysis();
        for w in &audit.workers {
            let root = format!("worker:{}", w.worker);
            let wall = profile.root_total(&root, ProfileClock::Wall);
            let modelled = profile.root_total(&root, ProfileClock::Modelled);
            assert!(
                (wall - w.busy_wall).abs() <= 1e-9 + 0.01 * w.busy_wall.abs(),
                "worker {} wall {} vs audit {}",
                w.worker,
                wall,
                w.busy_wall
            );
            assert!(
                (modelled - w.busy_modelled).abs() <= 1e-9 + 0.01 * w.busy_modelled.abs(),
                "worker {} modelled {} vs audit {}",
                w.worker,
                modelled,
                w.busy_modelled
            );
        }
        assert!((profile.modelled_makespan - audit.modelled_makespan).abs() < 1e-9);
        // Exporters produce valid output over the same profile.
        let folded = swdual_obs::export::flamegraph_folded(&profile, ProfileClock::Modelled);
        assert!(folded.lines().count() > 0);
        let speedscope = swdual_obs::export::speedscope_json(&profile);
        serde_json::from_str::<serde_json::Value>(&speedscope).expect("speedscope parses");
        // The roofline sees the GPU device and never prints NaN.
        let roofline = profile.roofline();
        assert!(!roofline.devices.is_empty());
        let text = roofline.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn unprofiled_run_has_task_level_profile_only() {
        let db = synthetic_database("db", 12, LengthModel::Fixed(60), 5);
        let q = queries_from_database(&db, 2, 1, usize::MAX, &MutationProfile::homolog(), 6);
        let r = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .observe()
            .run();
        assert!(!r.obs().is_profiling());
        let profile = r.profile();
        assert!(!profile.stacks.is_empty(), "task stacks from tracing alone");
        assert!(
            profile
                .stacks
                .iter()
                .all(|s| s.frames.iter().all(|f| f != "dp_inner")),
            "no phase frames without profile(true)"
        );
    }

    #[test]
    fn explained_report_blames_the_whole_makespan() {
        let db = synthetic_database("db", 12, LengthModel::Fixed(60), 5);
        let q = queries_from_database(&db, 3, 1, usize::MAX, &MutationProfile::homolog(), 6);
        let r = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .observe()
            .run();
        let e = r.explain();
        assert!(!e.degraded, "live runs carry full lineage");
        assert!(e.modelled_makespan > 0.0);
        let total = e.blame.total();
        assert!(
            (total - e.modelled_makespan).abs() < 0.01 * e.modelled_makespan,
            "blame {total} vs makespan {}",
            e.modelled_makespan
        );
        assert!(!e.critical_path.is_empty());
        // The run's model feeds the what-if engine end to end.
        let wi = crate::whatif::what_if(r.model(), &crate::whatif::WhatIf::PerfectCalibration)
            .expect("replay from a live run");
        assert!(wi.counterfactual_makespan > 0.0);
    }

    #[test]
    fn metadata_accessors() {
        let r = report();
        assert_eq!(r.query_id(0), "query_0");
        assert!(r.database_id(0).starts_with("db_"));
        assert!(r.wall_seconds() > 0.0);
        assert!(r.wall_gcups() >= 0.0);
    }
}
