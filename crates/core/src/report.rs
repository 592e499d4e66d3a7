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

    /// [`SearchReport::explain`], for `benchmark/src/layers.rs`, which
    /// times this fold under its old name.
    #[doc(hidden)]
    pub fn analysis(&self) -> swdual_obs::explain::ExplainReport {
        self.explain()
    }

    /// [`SearchReport::explain`], for `benchmark/src/layers.rs`, which
    /// times this fold under its old name.
    #[doc(hidden)]
    pub fn profile(&self) -> swdual_obs::explain::ExplainReport {
        self.explain()
    }

    /// The one report on the run: makespans against λ and the 2λ
    /// bound, the audit (latency quantiles, plan skew, GPU ordering,
    /// faults), the true critical path on both clocks, blame
    /// attribution of the whole modelled makespan per run, worker and
    /// query-length bucket, each worker's self-times (host phases
    /// appear when the search was built with
    /// [`SearchBuilder::profile`](crate::SearchBuilder::profile)`(true)`)
    /// and each device's roofline. Quiet when tracing was off.
    /// [`whatif::what_if`](crate::whatif::what_if) replays
    /// counterfactuals from the same [`RunModel`].
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

    /// Compare this run against a baseline run: every metric of both
    /// runs' [`explain`](Self::explain) reports (makespans on both
    /// clocks, bound margin, per-worker utilization, latency quantiles,
    /// throughput, fault counts, per-phase self-times, per-device busy
    /// time, roofline verdict flips) classified IMPROVED / REGRESSED /
    /// neutral under the default tolerances. `self` is the head,
    /// `baseline` the base: a positive delta means this run's value is
    /// higher.
    pub fn diff(&self, baseline: &SearchReport) -> swdual_obs::diff::DiffReport {
        let opts = swdual_obs::diff::DiffOptions {
            include_profile: true,
            ..Default::default()
        };
        swdual_obs::diff::diff_models(baseline.model(), self.model(), &opts)
    }

    /// Render the hit lists like a classic search tool report.
    pub fn render_hits(&self, per_query: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for qh in &self.outcome.hits {
            // Writing to a `String` cannot fail.
            let _ = writeln!(out, "Query {}:", self.query_ids[qh.query_index]);
            for hit in qh.hits.iter().take(per_query) {
                let id = self.database_id(hit.db_index);
                let _ = writeln!(out, "  {id:>8}  score {}", hit.score);
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
        // The bytes of a fixed report, pinned.
        let r = report();
        let three = "\
Query query_0:
      db_1  score 189
      db_2  score 24
      db_3  score 22
Query query_1:
     db_10  score 186
      db_9  score 34
      db_7  score 25
";
        assert_eq!(r.render_hits(3), three);
        let one = "Query query_0:\n      db_1  score 189\nQuery query_1:\n     db_10  score 186\n";
        assert_eq!(r.render_hits(1), one);
        assert_eq!(r.render_hits(0), "Query query_0:\nQuery query_1:\n");
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
        // What `swdual search --evalues` prints beside each hit.
        let params = swdual_bio::karlin::gapped_params(10, 2).unwrap();
        let annotated: Vec<(f64, f64)> = (r.hits()[0].hits.iter())
            .map(|h| (params.bit_score(h.score), params.evalue(h.score, 60, 720)))
            .collect();
        assert!(!annotated.is_empty());
        for w in annotated.windows(2) {
            // Hits are score-sorted, so bit scores fall and E-values rise.
            assert!(w[0].0 >= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        // The top hit is the (near-)identical source: tiny E-value.
        assert!(annotated[0].1 < 1e-6, "E = {}", annotated[0].1);
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

        let audit = r.explain();
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
        let db = synthetic_database("db", 12, LengthModel::Fixed(60), 5);
        let q = queries_from_database(&db, 2, 1, usize::MAX, &MutationProfile::homolog(), 6);
        let r = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(q)
            .profile(true)
            .run();
        assert!(r.obs().is_profiling());
        let e = r.explain();
        // Phase detail present: the DP inner loop on a CPU worker or
        // kernel time on the device, whichever ran the tasks.
        let mut phases = e.workers.iter().flat_map(|w| &w.phases);
        let kernels = e.devices.iter().any(|d| d.kernel_seconds > 0.0);
        assert!(phases.any(|p| p.name == "dp_inner") || kernels);
        assert!(!e.devices.is_empty(), "the GPU worker drives a device");
        // Each worker's self-times add up to its busy time.
        for w in &e.workers {
            let phased: f64 = w.phases.iter().map(|p| p.modelled).sum();
            let modelled = phased + w.task_self.modelled;
            assert!(
                (modelled - w.busy_modelled).abs() <= 1e-9 * w.busy_modelled.max(1.0),
                "worker {} modelled {modelled} vs busy {}",
                w.worker,
                w.busy_modelled
            );
        }
        let text = e.to_text();
        assert!(text.contains("roofline"), "{text}");
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
        let e = r.explain();
        assert!(
            e.workers.iter().any(|w| w.task_self.modelled > 0.0),
            "task self-times from tracing alone"
        );
        assert!(
            e.workers.iter().all(|w| w.phases.is_empty()),
            "no phases without profile(true)"
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
