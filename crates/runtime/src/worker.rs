//! Worker (slave) threads.
//!
//! A worker registers with the master, acquires the shared sequences
//! (paper Fig. 6: "Acquire sequences"), then loops: receive a run of
//! tasks, execute it with its engine, send the run's results back in
//! one message, one result per task in run order. CPU
//! workers run an alignment kernel in-thread — a run of more than one
//! task as one transposed pass, as the master decided when it formed
//! the run; GPU workers drive a simulated device whose virtual clock
//! supplies the modelled task time, one task at a time.
//!
//! Like the master, a worker is a **core** (`WorkerCore`: one
//! [`Order`] in, the [`WorkerMsg`]s it answers with out; a species
//! differs only in how it scores and charges a task) and a thin
//! **shell** (`worker_loop`) that waits for orders and sends answers.
//! The master's deterministic simulator drives the same core.
//!
//! An idle worker may also be lent a task queued on a device worker
//! ([`Order::Help`]): it claims the task in the search's claim table,
//! scores it with the tier ladder every worker runs, leaves the hits
//! and tier counts there, and tells the master it is free again. Owners
//! settle every lent task of theirs through the same table (see
//! [`crate::claims`]).
//!
//! Workers honour an optional [`WorkerFault`] from the run's
//! [`FaultPlan`](crate::faults::FaultPlan): crashing before
//! registration, crashing on a given job (silently or with a
//! [`WorkerMsg::Failed`] goodbye), failing their simulated GPU device,
//! or straggling. Fault checks sit outside the per-job compute path and
//! cost one `Option` match when no fault is planned.

use crate::claims::{Claims, Lent};
use crate::estimator::WorkerRateModel;
use crate::faults::WorkerFault;
use crate::messages::{
    top_k, FailureReason, Hit, Job, JobResult, Order, Registration, WorkerFailure, WorkerMsg,
};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swdual_align::tiered::{score_database, score_run_with, PhaseTimings};
use swdual_align::{Backend, Scratch, Subjects, TierStats};
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::ScoringScheme;
use swdual_gpusim::chunked::overlapped_search;
use swdual_gpusim::device::ResidentDb;
use swdual_gpusim::{DeviceClass, DeviceSpec, GpuDevice};
use swdual_obs::{EventBody, HostPhase, Obs, Track};

/// Worker species: which engine a worker actually runs.
#[derive(Debug, Clone)]
pub enum WorkerKind {
    /// A CPU worker: a SWIPE-class vector kernel on one thread — the
    /// tier ladder (byte lanes → 16-bit lanes → scalar) on the fastest
    /// SIMD backend the host supports, the byte tier inter-sequence over
    /// the image's blocks at every query length, striped only for the
    /// blocks its fill rule sends there
    /// (`swdual_align::tiered::score_database`).
    Cpu,
    /// A GPU worker driving a simulated device.
    Gpu {
        /// Device description (calibrated Tesla C2050 by default).
        device: DeviceSpec,
    },
}

/// Worker species plus its estimator calibration.
///
/// `prior_scale` skews the rate model the worker *declares* at
/// registration (the master's planning prior) without touching what the
/// worker actually computes or how its true modelled time is derived —
/// `2.0` means "registers as twice as fast as it really is". It exists
/// to inject deliberate miscalibration for testing online
/// re-optimization; the default `1.0` is the honest calibration.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Species and engine configuration.
    pub kind: WorkerKind,
    /// Declared-speed multiplier on the registered rate model (1.0 =
    /// honest).
    pub prior_scale: f64,
}

impl WorkerSpec {
    /// A GPU worker driving the given simulated device.
    pub fn gpu(device: DeviceSpec) -> WorkerSpec {
        WorkerSpec {
            kind: WorkerKind::Gpu { device },
            prior_scale: 1.0,
        }
    }

    /// The paper's CPU worker ([`WorkerKind::Cpu`]).
    pub fn cpu_default() -> WorkerSpec {
        WorkerSpec {
            kind: WorkerKind::Cpu,
            prior_scale: 1.0,
        }
    }

    /// The paper's GPU worker: a CUDASW++-class device.
    pub fn gpu_default() -> WorkerSpec {
        WorkerSpec::device_class(DeviceClass::C2050)
    }

    /// An accelerator worker from the device zoo.
    pub fn device_class(class: DeviceClass) -> WorkerSpec {
        WorkerSpec::gpu(class.spec())
    }

    /// Builder: declare this worker `scale`× faster than its honest
    /// calibration (deliberate estimator miscalibration).
    pub fn with_prior_scale(mut self, scale: f64) -> WorkerSpec {
        self.prior_scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            1.0
        };
        self
    }

    /// Human-readable description for stats.
    pub fn description(&self) -> String {
        match &self.kind {
            WorkerKind::Cpu => "CPU".to_string(),
            WorkerKind::Gpu { device } => format!("GPU({})", device.name),
        }
    }

    /// Is this a GPU worker?
    pub fn is_gpu(&self) -> bool {
        matches!(self.kind, WorkerKind::Gpu { .. })
    }

    /// The zoo class of this worker's device, when it has one.
    pub fn device_class_of(&self) -> Option<DeviceClass> {
        match &self.kind {
            WorkerKind::Cpu => None,
            WorkerKind::Gpu { device } => DeviceClass::of_spec(device),
        }
    }

    /// The rate model the master uses to estimate this worker's task
    /// times: the species' honest end-to-end calibration (per device
    /// class for GPUs), skewed by `prior_scale` — peak up, per-task
    /// overhead down, so a scaled worker looks uniformly faster.
    pub fn rate_model(&self) -> WorkerRateModel {
        let honest = match &self.kind {
            WorkerKind::Cpu => WorkerRateModel::cpu_swipe(),
            WorkerKind::Gpu { device } => WorkerRateModel::for_device(device),
        };
        WorkerRateModel {
            peak_gcups: honest.peak_gcups * self.prior_scale,
            half_length: honest.half_length,
            per_task_overhead: honest.per_task_overhead / self.prior_scale,
        }
    }
}

/// Everything a worker needs to execute tasks, beside the search's
/// claim table.
pub(crate) struct WorkerContext<'a> {
    /// Worker id assigned at registration.
    pub(crate) worker_id: usize,
    /// The database: the blocks of one checked image, scored in place,
    /// with its length order and that order's residue prefix sums, read
    /// once per search and borrowed by every worker.
    pub(crate) database: &'a Subjects<'a>,
    /// The query set (shared).
    pub(crate) queries: Arc<SequenceSet>,
    /// Scoring parameters.
    pub(crate) scheme: ScoringScheme,
    /// Hits a job reports: the best this many of its slice.
    pub(crate) top_k: usize,
    /// Event recorder; disabled by default. When disabled, the per-job
    /// hot path below records nothing, takes no locks and allocates
    /// nothing for tracing.
    pub(crate) obs: Obs,
    /// Injected fault behaviour, if this worker is in the fault plan.
    pub(crate) fault: Option<WorkerFault>,
}

/// What a worker hands back for one task of a run: its hits, where its
/// own wall time lies, its modelled seconds before any straggling, and
/// the task's phases when profiled — measured by a helper when `lent`.
struct Answer {
    hits: Vec<Hit>,
    wall_start: f64,
    wall: f64,
    modelled: f64,
    timings: Option<PhaseTimings>,
    lent: bool,
}

impl Answer {
    /// Record the answered `job` as a dual-clock span on the worker's
    /// track, and its host phases (profile build, DP inner loop) under
    /// it when profiled.
    ///
    /// `virt` is the job's modelled start — the worker's cumulative
    /// modelled busy time before it, the clock all planned placements
    /// are stated in — and its modelled seconds. The span echoes the
    /// job's lineage (dispatch sequence, plan decision) and its queue
    /// wait on both clocks, so the journal's causal chain closes without
    /// consumers re-deriving it. A job waits from `ready` to its start:
    /// `ready` is the later of its dispatch and the end of its run's
    /// previous task, so no task is charged for its run mates' compute.
    /// The wall wait is real master→worker hand-off latency; the
    /// modelled wait is ~0 by construction (a worker's virtual clock only
    /// advances while it computes) except when a re-plan hands a task to
    /// a worker whose modelled clock already ran past the dispatch stamp.
    ///
    /// Phase spans tile the job sequentially on both clocks. Wall
    /// durations are the measured [`PhaseTimings`]; modelled durations
    /// split the job's modelled time in the same proportions (the rate
    /// model prices whole tasks, not phases). When the job ran too fast
    /// to measure, everything modelled is attributed to the DP inner
    /// loop. Phases a helper measured keep their modelled split and take
    /// no wall time here: that was the helper's.
    fn record(
        &self,
        obs: &Obs,
        track: Track,
        job: &Job,
        ready: (f64, f64),
        (virt_start, modelled): (f64, f64),
        cells: u64,
    ) {
        if !obs.is_enabled() {
            return;
        }
        obs.span(
            track,
            self.wall_start,
            self.wall,
            Some((virt_start, modelled)),
            EventBody::Job {
                task: job.task_id,
                cells: Some(cells as f64),
                seq: Some(job.dispatch_seq),
                decision: Some(job.decision),
                queue_wait_wall: Some((self.wall_start - ready.0).max(0.0)),
                queue_wait_modelled: Some((virt_start - ready.1).max(0.0)),
            },
        );
        let Some(timings) = &self.timings else {
            return;
        };
        let wall_total = timings.total();
        let phases = [
            (HostPhase::ProfileBuild, timings.profile_build),
            (HostPhase::DpInner, timings.dp_inner),
        ];
        let (mut wall_at, mut virt_at) = (self.wall_start, virt_start);
        for (phase, measured) in phases {
            let virt_dur = if wall_total > 0.0 {
                modelled * measured / wall_total
            } else if phase == HostPhase::DpInner {
                modelled
            } else {
                0.0
            };
            let wall_dur = if self.lent { 0.0 } else { measured };
            if wall_dur <= 0.0 && virt_dur <= 0.0 {
                continue;
            }
            let task = job.task_id;
            let span = Some((virt_at, virt_dur));
            obs.span(
                track,
                wall_at,
                wall_dur,
                span,
                EventBody::Phase { phase, task },
            );
            wall_at += wall_dur;
            virt_at += virt_dur;
        }
    }
}

/// What a task failed with: its id and the reason the worker dies of.
type Failure = (usize, FailureReason);

/// How a species scores and charges a task.
enum Species<'a> {
    /// The tier ladder on the host, charged by the CPU rate model.
    Cpu {
        model: WorkerRateModel,
        /// What this worker's kernels did in total.
        tiers: TierStats,
    },
    /// A simulated device: scores from the same tiered host kernel the
    /// CPU runs (host time), task time from the device's clock alone.
    /// Databases that fit stay resident across tasks (the CUDASW++
    /// pattern), borrowing the search's length order; oversized ones
    /// stay on the host and fall back to the chunked streaming path per
    /// kernel, re-streaming the job's subjects for every task as the
    /// real tools must.
    Gpu {
        device: Box<GpuDevice>,
        residency: Option<ResidentDb<'a>>,
    },
}

/// One worker between two orders, whoever drives it: the thread shell
/// ([`worker_loop`]) or the master's deterministic simulator.
pub(crate) struct WorkerCore<'a> {
    ctx: WorkerContext<'a>,
    species: Species<'a>,
    /// The kernels' working memory, prepared once per worker.
    scratch: Scratch,
    jobs_done: usize,
    /// Modelled seconds of the tasks answered so far.
    virt_clock: f64,
}

/// The worker's hello (paper Figure 6: "Register with master"), or —
/// journaling the crash — `None` when its fault kills it first.
pub(crate) fn hello(spec: &WorkerSpec, ctx: &WorkerContext<'_>) -> Option<Registration> {
    if matches!(ctx.fault, Some(WorkerFault::CrashBeforeRegistration)) {
        let worker = ctx.worker_id;
        let crash = EventBody::WorkerCrashBeforeRegistration { worker };
        ctx.obs.instant(Track::Faults, crash);
        return None;
    }
    Some(Registration {
        worker_id: ctx.worker_id,
        description: spec.description(),
        is_gpu: spec.is_gpu(),
        rate_model: spec.rate_model(),
    })
}

/// The queries of `run` and the positions of the length order its jobs
/// name, one slice for all of them, or the task of the first job that
/// does not fit. A job from a confused or hostile master must not index
/// out of bounds.
fn inputs_of<'q>(
    queries: &'q SequenceSet,
    database: &Subjects<'_>,
    run: &[Job],
) -> Result<(Vec<&'q Sequence>, Range<usize>), usize> {
    let mut found = Vec::with_capacity(run.len());
    let mut slice: Option<Range<usize>> = None;
    for job in run {
        let query = queries.get(job.query_index);
        let own = job.slice.checked(database.len());
        let own = own.filter(|own| slice.as_ref().is_none_or(|run| run == own));
        let (query, own) = query.zip(own).ok_or(job.task_id)?;
        slice = Some(own);
        found.push(query);
    }
    Ok((found, slice.unwrap_or_default()))
}

/// The ranked hits a job reports for `scores` of `slice`, which are in
/// the slice's order.
fn hits_of(database: &Subjects<'_>, k: usize, slice: Range<usize>, scores: &[i32]) -> Vec<Hit> {
    let subjects = database.order()[slice].iter();
    let candidates = subjects.zip(scores).map(|(&subject, &score)| Hit {
        db_index: subject as usize,
        score,
    });
    top_k(candidates, k)
}

impl<'a> WorkerCore<'a> {
    /// The worker after registration, its device (if any) brought up
    /// with the database resident when it fits.
    pub(crate) fn new(spec: WorkerSpec, ctx: WorkerContext<'a>) -> WorkerCore<'a> {
        let species = match spec.kind {
            WorkerKind::Cpu => Species::Cpu {
                model: WorkerRateModel::cpu_swipe(),
                tiers: TierStats::default(),
            },
            WorkerKind::Gpu { device } => {
                let mut device = Box::new(GpuDevice::new(device));
                device.attach_obs(ctx.obs.clone(), ctx.worker_id);
                if let Some(WorkerFault::DeviceFault { after_kernels }) = ctx.fault {
                    device.inject_fault_after_kernels(after_kernels);
                }
                let residency = device.upload_shared(ctx.database).ok();
                Species::Gpu { device, residency }
            }
        };
        WorkerCore {
            ctx,
            species,
            scratch: Scratch::default(),
            jobs_done: 0,
            virt_clock: 0.0,
        }
    }

    /// Split `run`, whose first task is the worker's `jobs_done`-th, into
    /// the tasks it executes and, from the task it dies on picking up,
    /// the rest: `crash@N` dies on the worker's `N`-th task, wherever it
    /// falls in a run.
    fn split<'r>(&self, run: &'r [Job]) -> (&'r [Job], &'r [Job]) {
        let live = match self.ctx.fault {
            Some(WorkerFault::Crash { after_jobs: n, .. }) if n >= self.jobs_done => {
                (n - self.jobs_done).min(run.len())
            }
            _ => run.len(),
        };
        run.split_at(live)
    }

    /// A straggler's wall delay per task, in milliseconds, and the factor
    /// on its modelled times.
    fn straggle(&self) -> (u64, f64) {
        match self.ctx.fault {
            Some(WorkerFault::Straggler { delay_ms, factor }) => (delay_ms, factor),
            _ => (0, 1.0),
        }
    }

    /// The wall time a straggler stalls before executing `order`: the
    /// shell sleeps it, the simulator adds it to its clock.
    pub(crate) fn delay(&self, order: &Order) -> Duration {
        let Order::Run(run) = order else {
            return Duration::ZERO;
        };
        let live = self.split(run).0.len() as u64;
        Duration::from_millis(self.straggle().0 * live)
    }

    /// Execute `order`, pushing its answers onto `out` in the order they
    /// are sent; lent tasks settle through `claims`. False once the
    /// worker is dead.
    pub(crate) fn answer(
        &mut self,
        order: Order,
        claims: &Claims,
        out: &mut Vec<WorkerMsg>,
    ) -> bool {
        let run = match order {
            Order::Run(run) => run,
            Order::Help(job) => {
                out.push(self.help(&job, claims));
                return true;
            }
        };
        let (live, doomed) = self.split(&run);
        let (task, reason, notify) = match (self.run(live, claims, out), doomed.first()) {
            (Err((task, reason)), _) => (task, reason, true),
            (Ok(()), None) => return true,
            // Die on picking up `job`, telling the master which task was
            // in hand when the plan says so.
            (Ok(()), Some(job)) => {
                let notified = matches!(
                    self.ctx.fault,
                    Some(WorkerFault::Crash { notify: true, .. })
                );
                let (worker, task) = (self.ctx.worker_id, job.task_id);
                let crash = EventBody::WorkerCrash {
                    worker,
                    task,
                    notified,
                };
                self.ctx.obs.instant(Track::Faults, crash);
                (task, FailureReason::Crash, notified)
            }
        };
        if notify {
            let (worker_id, in_flight) = (self.ctx.worker_id, Some(task));
            out.push(WorkerMsg::Failed(WorkerFailure {
                worker_id,
                reason,
                in_flight,
            }));
        }
        false
    }

    /// The queue closed: journal what this worker's kernels did in total.
    pub(crate) fn close(self) {
        if let Species::Cpu { tiers, .. } = self.species {
            self.ctx.obs.instant(
                Track::Worker(self.ctx.worker_id),
                EventBody::WorkerTotals {
                    subjects: tiers.subjects,
                    byte_resolved: tiers.byte_resolved,
                    escalated_16: tiers.escalated_16,
                    escalated_scalar: tiers.escalated_scalar,
                },
            );
        }
    }

    /// Execute the tasks of a run this worker lives to execute, and
    /// answer them in one message: a slice is charged for its own
    /// residues, each task its own modelled seconds, whoever computed it.
    fn run(
        &mut self,
        run: &[Job],
        claims: &Claims,
        out: &mut Vec<WorkerMsg>,
    ) -> Result<(), Failure> {
        if run.is_empty() {
            return Ok(());
        }
        let queries = Arc::clone(&self.ctx.queries);
        let (queries, slice) = inputs_of(&queries, self.ctx.database, run)
            .map_err(|task| (task, FailureReason::InvalidJob))?;
        // The unlent tasks first, transposed when they form a run: a
        // helper still at a lent one has that long to finish it. Then
        // each lent task: the helper's hits, or — when no helper
        // started it — scored alone. A device streaming the database
        // scores every task itself.
        let mut answers: Vec<Option<Answer>> = run.iter().map(|_| None).collect();
        let (lent, own): (Vec<usize>, Vec<usize>) = (0..run.len()).partition(|&i| run[i].lent);
        self.score(&own, run, &queries, &slice, &mut answers)?;
        for i in lent {
            match self.take(claims, &run[i], queries[i], &slice)? {
                Some(answer) => answers[i] = Some(answer),
                None => self.score(&[i], run, &queries, &slice, &mut answers)?,
            }
        }
        let residues = self.ctx.database.residues_in(slice);
        let track = Track::Worker(self.ctx.worker_id);
        let mut results = Vec::with_capacity(run.len());
        // Where the run's previous task ended, on both clocks.
        let mut previous = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for ((job, query), answer) in run.iter().zip(&queries).zip(answers.into_iter().flatten()) {
            let cells = query.len() as u64 * residues;
            let modelled = answer.modelled * self.straggle().1;
            let ready = (
                job.dispatch_wall.max(previous.0),
                job.dispatch_virt.max(previous.1),
            );
            let virt = (self.virt_clock, modelled);
            answer.record(&self.ctx.obs, track, job, ready, virt, cells);
            self.virt_clock += modelled;
            previous = (answer.wall_start + answer.wall, self.virt_clock);
            self.jobs_done += 1;
            results.push(JobResult {
                task_id: job.task_id,
                worker_id: self.ctx.worker_id,
                hits: answer.hits,
                wall_seconds: answer.wall,
                modelled_seconds: modelled,
                cells,
            });
        }
        out.push(WorkerMsg::Completed(results));
        Ok(())
    }

    /// Score the tasks of `run` at `which` into `answers`.
    fn score(
        &mut self,
        which: &[usize],
        run: &[Job],
        queries: &[&Sequence],
        slice: &Range<usize>,
        answers: &mut [Option<Answer>],
    ) -> Result<(), Failure> {
        let ctx = &self.ctx;
        let hits = |scores: &[i32]| hits_of(ctx.database, ctx.top_k, slice.clone(), scores);
        match &mut self.species {
            // As one run, scored transposed; a run of one task is a
            // one-query job. Both score and escalate alike. The run's
            // wall time and phases are shared out by query length, its
            // job spans tiling the run's wall span.
            Species::Cpu { model, tiers } if !which.is_empty() => {
                let wall_start = ctx.obs.now();
                let start = Instant::now();
                let codes: Vec<&[u8]> = which.iter().map(|&i| queries[i].codes()).collect();
                let (db, scheme) = (ctx.database, &ctx.scheme);
                let scratch = &mut self.scratch;
                let (scores, timings) = match codes[..] {
                    [query] => {
                        let (scores, timings) =
                            score_database(query, db, slice.clone(), scheme, scratch, tiers);
                        (vec![scores], timings)
                    }
                    _ => {
                        let backend = Backend::active();
                        let slice = slice.clone();
                        score_run_with(backend, &codes, db, slice, scheme, scratch, tiers)
                    }
                };
                let wall = start.elapsed().as_secs_f64();
                let residues = ctx.database.residues_in(slice.clone());
                let weight = |i: usize| queries[i].len().max(1) as f64;
                let total_weight: f64 = which.iter().map(|&i| weight(i)).sum();
                let mut wall_at = wall_start;
                for (&i, scores) in which.iter().zip(scores) {
                    let share = weight(i) / total_weight;
                    let timings = ctx.obs.is_profiling().then_some(PhaseTimings {
                        profile_build: timings.profile_build * share,
                        dp_inner: timings.dp_inner * share,
                    });
                    answers[i] = Some(Answer {
                        hits: hits(&scores),
                        wall_start: wall_at,
                        wall: wall * share,
                        modelled: model.task_seconds(queries[i].len(), residues),
                        timings,
                        lent: false,
                    });
                    wall_at += wall * share;
                }
            }
            Species::Cpu { .. } => {}
            // One kernel per task. Each tags the device's stage spans
            // (H2D/kernel/D2H) with the task they serve: the causal link
            // from dispatch into device activity.
            Species::Gpu { device, residency } => {
                for &i in which {
                    let (task, query) = (run[i].task_id, queries[i]);
                    let (wall_start, start) = (ctx.obs.now(), Instant::now());
                    device.set_lineage(Some(task));
                    device.check_fault().map_err(|f| (task, f.into()))?;
                    let (scores, seconds) = match residency {
                        Some(db) => {
                            let r =
                                device.search_slice(query.codes(), db, slice.clone(), &ctx.scheme);
                            (r.scores, r.kernel_seconds)
                        }
                        None => {
                            let gathered: Vec<Vec<u8>> =
                                slice.clone().map(|p| ctx.database.residues(p)).collect();
                            let on_host: Vec<&[u8]> = gathered.iter().map(Vec::as_slice).collect();
                            let codes = query.codes();
                            let r = overlapped_search(device, &on_host, codes, &ctx.scheme, true)
                                .map_err(|e| (task, e.into()))?;
                            (r.scores, r.seconds)
                        }
                    };
                    device.set_lineage(None);
                    answers[i] = Some(Answer {
                        hits: hits(&scores),
                        wall_start,
                        wall: start.elapsed().as_secs_f64(),
                        modelled: seconds,
                        timings: None,
                        lent: false,
                    });
                }
            }
        }
        Ok(())
    }

    /// Answer a lent task with what its helper computed, when one did
    /// (`None`: the task is this worker's to score): a CPU takes its tier
    /// counts; a device charges the kernel it would launch, on its
    /// clock. A device streaming the database scores every task itself.
    fn take(
        &mut self,
        claims: &Claims,
        job: &Job,
        query: &Sequence,
        slice: &Range<usize>,
    ) -> Result<Option<Answer>, Failure> {
        // The owner's time on a lent task starts once it is settled.
        let settle = || {
            let lent = claims.settle(job.task_id)?;
            Some((lent, self.ctx.obs.now(), Instant::now()))
        };
        let (lent, wall_start, modelled, wall, timings) = match &mut self.species {
            Species::Gpu {
                residency: None, ..
            } => return Ok(None),
            Species::Cpu { model, tiers } => {
                let Some((lent, wall_start, _)) = settle() else {
                    return Ok(None);
                };
                tiers.merge(&lent.tiers);
                let residues = self.ctx.database.residues_in(slice.clone());
                let modelled = model.task_seconds(query.len(), residues);
                let timings = self.ctx.obs.is_profiling().then_some(lent.timings);
                (lent, wall_start, modelled, 0.0, timings)
            }
            Species::Gpu {
                device,
                residency: Some(db),
            } => {
                let Some((lent, wall_start, start)) = settle() else {
                    return Ok(None);
                };
                device.set_lineage(Some(job.task_id));
                let charged = device.charge_slice(query.len(), db, slice.clone());
                device.set_lineage(None);
                let seconds = charged.map_err(|f| (job.task_id, f.into()))?;
                let wall = start.elapsed().as_secs_f64();
                (lent, wall_start, seconds, wall, None)
            }
        };
        Ok(Some(Answer {
            hits: lent.hits,
            wall_start,
            wall,
            modelled,
            timings,
            lent: true,
        }))
    }

    /// Score `job`, which another worker owns, for it: claim the task,
    /// score it, leave the hits and tier counts in the claim table and
    /// record a `help` span. A task its owner kept, or that names
    /// nothing this worker has, is handed back unscored. Either way the
    /// master hears that this worker is free again.
    fn help(&mut self, job: &Job, claims: &Claims) -> WorkerMsg {
        let ctx = &self.ctx;
        let query = ctx.queries.get(job.query_index);
        let slice = job.slice.checked(ctx.database.len());
        let claim = query
            .zip(slice)
            .and_then(|inputs| Some((inputs, claims.claim(job.task_id)?)));
        let mut wall_seconds = 0.0;
        if let Some(((query, slice), claim)) = claim {
            let wall_start = ctx.obs.now();
            let start = Instant::now();
            let mut tiers = TierStats::default();
            let (scores, timings) = score_database(
                query.codes(),
                ctx.database,
                slice.clone(),
                &ctx.scheme,
                &mut self.scratch,
                &mut tiers,
            );
            let hits = hits_of(ctx.database, ctx.top_k, slice, &scores);
            wall_seconds = start.elapsed().as_secs_f64();
            claim.fulfil(Lent {
                hits,
                tiers,
                timings,
            });
            let help = EventBody::Help { task: job.task_id };
            let track = Track::Worker(ctx.worker_id);
            ctx.obs.span(track, wall_start, wall_seconds, None, help);
        }
        WorkerMsg::Helped {
            worker_id: ctx.worker_id,
            wall_seconds,
        }
    }
}

/// How long a worker polls its job queue before it parks on it.
///
/// The master feeds one run at a time, so between two runs a worker
/// waits for the master to settle its answer — one message per run —
/// and send the next run: on `tiny_tasks` (2 vCPUs, AVX2) 9–320 µs a
/// hand-over on average over a search, the longest 0.1–3 ms (see
/// EXPERIMENTS.md, "One answer per run"). Parking for that idles the
/// CPU, and how long an idle CPU takes to wake is the host's business:
/// on the reference VM it moved `tiny_tasks` searches between 0.41 and
/// 0.64 s from one run to the next. Polling across the gap keeps the
/// hand-over inside the process; a queue that stays empty this long is
/// a real wait, and the worker parks as before.
const POLL_BEFORE_PARK: Duration = Duration::from_micros(100);

/// The next order, or `None` once the master has closed the queue.
fn next_order(orders: &Receiver<Order>) -> Option<Order> {
    let start = Instant::now();
    loop {
        match orders.try_recv() {
            Ok(order) => return Some(order),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < POLL_BEFORE_PARK => {
                std::hint::spin_loop()
            }
            Err(TryRecvError::Empty) => return orders.recv().ok(),
        }
    }
}

/// The body of each worker thread: register with the master, then
/// answer orders until the queue closes, the worker dies or the master
/// has gone.
pub(crate) fn worker_loop(
    spec: WorkerSpec,
    ctx: WorkerContext<'_>,
    claims: &Claims,
    registration: Sender<Registration>,
    orders: Receiver<Order>,
    results: Sender<WorkerMsg>,
) {
    let Some(hello) = hello(&spec, &ctx) else {
        return; // dies without saying hello
    };
    if registration.send(hello).is_err() {
        return; // master went away before registration
    }
    let mut core = WorkerCore::new(spec, ctx);
    let mut answers = Vec::new();
    while let Some(order) = next_order(&orders) {
        std::thread::sleep(core.delay(&order));
        let lives = core.answer(order, claims, &mut answers);
        let master_gone = answers.drain(..).any(|msg| results.send(msg).is_err());
        if !lives {
            return;
        }
        if master_gone {
            break;
        }
    }
    core.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{top_k_hits, DbSlice};
    use crossbeam::channel;
    use swdual_align::scalar::gotoh_score;
    use swdual_align::tiered::{score_database_with, ByteShape};
    use swdual_bio::seq::Sequence;
    use swdual_bio::{Alphabet, SqbImage};
    use swdual_gpusim::memory::MemoryError;
    use swdual_obs::model::KernelTotals;

    fn tiny_db() -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, t) in ["MKVLATGGAR", "GGARMKVLAT", "WWWWWWW", "MKV"]
            .iter()
            .enumerate()
        {
            set.push(
                Sequence::from_text(format!("d{i}"), Alphabet::Protein, t.as_bytes()).unwrap(),
            )
            .unwrap();
        }
        set
    }

    fn tiny_queries() -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, t) in ["MKVLAT", "WWWW"].iter().enumerate() {
            set.push(
                Sequence::from_text(format!("q{i}"), Alphabet::Protein, t.as_bytes()).unwrap(),
            )
            .unwrap();
        }
        set
    }

    /// More than `tiny_db` holds: a job's hits are all its scores.
    const TOP_K: usize = 10;
    /// Every position of `tiny_db`'s length order.
    const WHOLE: DbSlice = DbSlice { start: 0, end: 4 };

    /// Run worker `worker_id` over `jobs` against `tiny_db`.
    fn run_jobs(
        spec: WorkerSpec,
        worker_id: usize,
        fault: Option<WorkerFault>,
        obs: &Obs,
        jobs: &[Job],
    ) -> Vec<WorkerMsg> {
        let orders = jobs.iter().map(|&job| Order::Run(vec![job])).collect();
        let claims = Claims::default();
        run_orders(spec, worker_id, fault, obs, &claims, orders)
    }

    /// Run worker `worker_id` over `orders` against `tiny_db`, lent tasks
    /// settling through `claims`.
    fn run_orders(
        spec: WorkerSpec,
        worker_id: usize,
        fault: Option<WorkerFault>,
        obs: &Obs,
        claims: &Claims,
        orders: Vec<Order>,
    ) -> Vec<WorkerMsg> {
        let (job_tx, job_rx) = channel::unbounded();
        let (res_tx, res_rx) = channel::unbounded();
        let (reg_tx, _reg_rx) = channel::unbounded();
        let image = SqbImage::from_set(&tiny_db()).unwrap();
        let subjects = Subjects::from(&image);
        let ctx = context(worker_id, &subjects, fault, obs);
        for order in orders {
            job_tx.send(order).unwrap();
        }
        drop(job_tx);
        worker_loop(spec, ctx, claims, reg_tx, job_rx, res_tx);
        res_rx.iter().collect()
    }

    /// What worker `worker_id` knows of a search over `tiny_db`.
    fn context<'a>(
        worker_id: usize,
        database: &'a Subjects<'a>,
        fault: Option<WorkerFault>,
        obs: &Obs,
    ) -> WorkerContext<'a> {
        WorkerContext {
            worker_id,
            database,
            queries: Arc::new(tiny_queries()),
            scheme: ScoringScheme::protein_default(),
            top_k: TOP_K,
            obs: obs.clone(),
            fault,
        }
    }

    /// What [`WorkerCore::answer`] says to `orders` against `tiny_db`,
    /// driven straight, without a thread or a channel.
    fn core_answers(
        spec: WorkerSpec,
        fault: Option<WorkerFault>,
        claims: &Claims,
        orders: Vec<Order>,
    ) -> Vec<WorkerMsg> {
        let image = SqbImage::from_set(&tiny_db()).unwrap();
        let subjects = Subjects::from(&image);
        let ctx = context(3, &subjects, fault, &Obs::disabled());
        let mut out = Vec::new();
        if hello(&spec, &ctx).is_none() {
            return out;
        }
        let mut core = WorkerCore::new(spec, ctx);
        for order in orders {
            if !core.answer(order, claims, &mut out) {
                break;
            }
        }
        out
    }

    fn run_msgs(spec: WorkerSpec, fault: Option<WorkerFault>) -> Vec<WorkerMsg> {
        let jobs = [Job::new(0, 0, WHOLE), Job::new(1, 1, WHOLE)];
        run_jobs(spec, 3, fault, &Obs::disabled(), &jobs)
    }

    fn run_one(spec: WorkerSpec) -> Vec<JobResult> {
        run_msgs(spec, None)
            .into_iter()
            .flat_map(|m| match m {
                WorkerMsg::Completed(results) => results,
                other => panic!("unexpected message: {other:?}"),
            })
            .collect()
    }

    /// The one result a message answering a one-task run carries.
    fn only(msg: &WorkerMsg) -> &JobResult {
        match msg {
            WorkerMsg::Completed(results) if results.len() == 1 => &results[0],
            other => panic!("expected one completion, got {other:?}"),
        }
    }

    /// Every subject of `tiny_db` with its Gotoh score, ranked.
    fn expected_hits(query_index: usize) -> Vec<Hit> {
        let db = tiny_db();
        let q = tiny_queries();
        let scheme = ScoringScheme::protein_default();
        let scores: Vec<i32> = db
            .iter()
            .map(|d| gotoh_score(q.get(query_index).unwrap().codes(), d.codes(), &scheme))
            .collect();
        top_k_hits(query_index, &scores, TOP_K).hits
    }

    /// A lent copy of `job`.
    fn lent(mut job: Job) -> Job {
        job.lent = true;
        job
    }

    /// The completions among `msgs`.
    fn completed(msgs: &[WorkerMsg]) -> Vec<&JobResult> {
        let done = msgs.iter().flat_map(|m| match m {
            WorkerMsg::Completed(results) => &results[..],
            _ => &[],
        });
        done.collect()
    }

    /// The thread shell is a loop of receive → core → send: for either
    /// species and under every fault, it answers an order sequence —
    /// single tasks, a run, a loan and its settling — with the same
    /// tasks, hits, modelled seconds, cells and failures as the core
    /// driven straight.
    #[test]
    fn the_shell_answers_as_its_core_does() {
        let head = DbSlice { start: 0, end: 2 };
        let jobs = [
            Job::new(0, 0, WHOLE),
            Job::new(1, 1, head),
            Job::new(2, 0, head),
            Job::new(3, 1, WHOLE),
        ];
        let orders = || {
            vec![
                Order::Run(vec![jobs[0]]),
                Order::Help(lent(jobs[3])),
                Order::Run(vec![jobs[1], jobs[2]]),
                Order::Run(vec![lent(jobs[3])]),
            ]
        };
        let faults = [
            None,
            Some(WorkerFault::CrashBeforeRegistration),
            Some(WorkerFault::Crash {
                after_jobs: 2,
                notify: true,
            }),
            Some(WorkerFault::Crash {
                after_jobs: 1,
                notify: false,
            }),
            Some(WorkerFault::DeviceFault { after_kernels: 2 }),
            Some(WorkerFault::Straggler {
                delay_ms: 1,
                factor: 3.0,
            }),
        ];
        // What each message says, its wall time aside.
        let said = |msgs: Vec<WorkerMsg>| -> Vec<String> {
            let said = msgs.into_iter().map(|msg| match msg {
                WorkerMsg::Completed(results) => {
                    let said = results.into_iter().map(|r| {
                        let (hits, modelled) = (r.hits, r.modelled_seconds);
                        format!("{} {hits:?} {modelled:?} {}", r.task_id, r.cells)
                    });
                    said.collect::<Vec<_>>().join("; ")
                }
                WorkerMsg::Failed(f) => format!("{f:?}"),
                WorkerMsg::Helped { worker_id, .. } => format!("helped {worker_id}"),
            });
            said.collect()
        };
        for spec in [WorkerSpec::cpu_default(), WorkerSpec::gpu_default()] {
            for fault in faults {
                let (obs, claims) = (Obs::disabled(), Claims::default());
                let shell = run_orders(spec.clone(), 3, fault, &obs, &claims, orders());
                let core = core_answers(spec.clone(), fault, &Claims::default(), orders());
                let what = format!("{} under {fault:?}", spec.description());
                assert!(!core.is_empty() || fault.is_some(), "{what}");
                assert_eq!(said(shell), said(core), "{what}");
            }
        }
    }

    /// A run is answered in one message, its results in run order; a
    /// worker that dies inside a run first answers the tasks before the
    /// one it dies on, in one message, and sends no empty answer.
    #[test]
    fn a_run_is_answered_in_one_message() {
        let run: Vec<Job> = (0..3).map(|t| Job::new(t, t % 2, WHOLE)).collect();
        let answers = |fault: Option<WorkerFault>| {
            let orders = vec![Order::Run(run.clone())];
            core_answers(WorkerSpec::cpu_default(), fault, &Claims::default(), orders)
        };
        let said = |msgs: &[WorkerMsg]| -> Vec<String> {
            let said = msgs.iter().map(|msg| match msg {
                WorkerMsg::Completed(results) => {
                    let tasks = results.iter().map(|r| r.task_id.to_string());
                    tasks.collect::<Vec<_>>().join(",")
                }
                WorkerMsg::Failed(f) => format!("failed {:?}", f.in_flight),
                WorkerMsg::Helped { .. } => "helped".into(),
            });
            said.collect()
        };
        let crash = |after_jobs| {
            let notify = true;
            Some(WorkerFault::Crash { after_jobs, notify })
        };
        let healthy = answers(None);
        assert_eq!(said(&healthy), ["0,1,2"]);
        for r in completed(&healthy) {
            assert_eq!(r.hits, expected_hits(r.task_id % 2));
        }
        assert_eq!(said(&answers(crash(2))), ["0,1", "failed Some(2)"]);
        assert_eq!(said(&answers(crash(0))), ["failed Some(0)"]);
    }

    /// The tasks of a run wait for their dispatch, not for each other:
    /// each is ready when the run's previous task ends, so the run's
    /// summed wall wait is at most its wall span, and its later tasks
    /// wait no modelled time.
    #[test]
    fn run_mates_charge_each_other_no_queue_wait() {
        let image = SqbImage::from_set(&tiny_db()).unwrap();
        let subjects = Subjects::from(&image);
        let obs = Obs::enabled();
        let mut core =
            WorkerCore::new(WorkerSpec::cpu_default(), context(3, &subjects, None, &obs));
        let dispatch_wall = obs.now();
        let run: Vec<Job> = (0..6)
            .map(|t| Job {
                dispatch_wall,
                ..Job::new(t, t % 2, WHOLE)
            })
            .collect();
        let mut out = Vec::new();
        assert!(core.answer(Order::Run(run), &Claims::default(), &mut out));
        let events = obs.events_since(0);
        let jobs: Vec<(f64, f64, f64)> = (events.iter())
            .filter_map(|e| match e.body {
                EventBody::Job {
                    queue_wait_wall: Some(wall),
                    queue_wait_modelled: Some(modelled),
                    ..
                } => Some((e.wall_start + e.wall_dur, wall, modelled)),
                _ => None,
            })
            .collect();
        assert_eq!(jobs.len(), 6);
        let span = jobs.iter().map(|j| j.0).fold(0.0, f64::max) - dispatch_wall;
        let waited: f64 = jobs.iter().map(|j| j.1).sum();
        assert!(waited <= span, "waited {waited} s in a {span}-s run");
        let later: Vec<f64> = jobs[1..].iter().map(|j| j.2).collect();
        assert_eq!(later, [0.0; 5]);
    }

    #[test]
    fn a_lent_task_is_scored_by_its_helper_and_answered_by_its_owner() {
        for owner in [WorkerSpec::cpu_default(), WorkerSpec::gpu_default()] {
            let jobs = [Job::new(0, 0, WHOLE), Job::new(1, 1, WHOLE)];
            let unlent = run_jobs(owner.clone(), 3, None, &Obs::enabled(), &jobs);
            // Worker 5 helps with task 1, then worker 3 runs both.
            let (claims, obs) = (Claims::default(), Obs::enabled());
            let help = Order::Help(lent(jobs[1]));
            let helper = WorkerSpec::cpu_default();
            let said = run_orders(helper, 5, None, &obs, &claims, vec![help]);
            assert!(matches!(
                said[..],
                [WorkerMsg::Helped { worker_id: 5, wall_seconds }] if wall_seconds > 0.0
            ));
            let orders = vec![Order::Run(vec![jobs[0]]), Order::Run(vec![lent(jobs[1])])];
            let msgs = run_orders(owner.clone(), 3, None, &obs, &claims, orders);
            let (got, want) = (completed(&msgs), completed(&unlent));
            assert_eq!(got.len(), 2);
            for (got, want) in got.iter().zip(&want) {
                assert_eq!(got.hits, want.hits, "{}", owner.description());
                assert_eq!(got.modelled_seconds, want.modelled_seconds);
                assert_eq!(
                    (got.task_id, got.worker_id, got.cells),
                    (want.task_id, 3, want.cells)
                );
            }
            // One help span, on the helper's track; the job spans and the
            // tier counts stay the owner's.
            let model = swdual_obs::RunModel::from_obs(&obs);
            let spans = |w: usize, help: bool| {
                obs.events_since(0)
                    .iter()
                    .filter(|e| e.track == Track::Worker(w))
                    .filter(|e| matches!(e.body, EventBody::Help { .. }) == help)
                    .filter(|e| matches!(e.body, EventBody::Help { .. } | EventBody::Job { .. }))
                    .count()
            };
            assert_eq!((spans(5, true), spans(5, false)), (1, 0));
            assert_eq!((spans(3, true), spans(3, false)), (0, 2));
            let tiers = |m: &swdual_obs::RunModel| m.workers.get(&3).and_then(|w| w.kernels);
            if !owner.is_gpu() {
                let before = swdual_obs::RunModel::from_obs(&{
                    let obs = Obs::enabled();
                    run_jobs(owner.clone(), 3, None, &obs, &jobs);
                    obs
                });
                let (a, b) = (tiers(&model).unwrap(), tiers(&before).unwrap());
                let counts = |k: KernelTotals| {
                    (
                        k.subjects,
                        k.byte_resolved,
                        k.escalated_16,
                        k.escalated_scalar,
                    )
                };
                assert_eq!(counts(a), counts(b), "the owner merges the helper's tiers");
            }
        }
    }

    #[test]
    fn a_lent_task_no_helper_reached_is_scored_by_its_owner() {
        for owner in [WorkerSpec::cpu_default(), WorkerSpec::gpu_default()] {
            let claims = Claims::default();
            let job = Job::new(0, 0, WHOLE);
            let msgs = run_orders(
                owner.clone(),
                3,
                None,
                &Obs::disabled(),
                &claims,
                vec![Order::Run(vec![lent(job)])],
            );
            assert_eq!(completed(&msgs)[0].hits, expected_hits(0));
            // The helper arrives late and hands the task back unscored.
            let obs = Obs::enabled();
            let help = Order::Help(lent(job));
            let said = run_orders(
                WorkerSpec::cpu_default(),
                5,
                None,
                &obs,
                &claims,
                vec![help],
            );
            assert!(matches!(
                said[..],
                [WorkerMsg::Helped { worker_id: 5, wall_seconds }] if wall_seconds == 0.0
            ));
            assert!(!obs
                .events_since(0)
                .iter()
                .any(|e| matches!(e.body, EventBody::Help { .. })));
        }
    }

    #[test]
    fn a_streaming_device_scores_a_lent_task_itself() {
        // 25 bytes of device memory: nothing stays resident, so there is
        // no kernel to charge a helper's scores to, and the owner leaves
        // the claim table alone.
        let (claims, obs, job) = (Claims::default(), Obs::disabled(), Job::new(0, 0, WHOLE));
        let help = vec![Order::Help(lent(job))];
        run_orders(WorkerSpec::cpu_default(), 5, None, &obs, &claims, help);
        let owner = WorkerSpec::gpu(DeviceSpec::toy(25));
        let run = vec![Order::Run(vec![lent(job)])];
        let msgs = run_orders(owner, 3, None, &obs, &claims, run);
        assert_eq!(completed(&msgs)[0].hits, expected_hits(0));
        assert!(
            claims.settle(0).is_some(),
            "the helper's scores are untaken"
        );
    }

    #[test]
    fn cpu_worker_computes_exact_scores() {
        let results = run_one(WorkerSpec::cpu_default());
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.worker_id, 3);
            assert_eq!(r.hits, expected_hits(r.task_id));
            assert!(r.cells > 0);
            assert!(r.modelled_seconds > 0.0);
        }
    }

    #[test]
    fn cpu_worker_hits_match_every_engine() {
        // A CPU worker's byte tier picks its shape per block; its hits
        // are what every shape ranks.
        let db = tiny_db();
        let subjects = Subjects::from(&db);
        let queries = tiny_queries();
        let scheme = ScoringScheme::protein_default();
        let results = run_one(WorkerSpec::cpu_default());
        assert_eq!(results.len(), 2);
        for shape in [ByteShape::Auto, ByteShape::InterSeq, ByteShape::Striped] {
            for r in &results {
                let query = queries.get(r.task_id).unwrap().codes();
                let (scores, _) = score_database_with(
                    Backend::active(),
                    shape,
                    query,
                    &subjects,
                    subjects.whole(),
                    &scheme,
                    &mut Scratch::default(),
                    &mut TierStats::default(),
                );
                let scores = subjects.in_database_order(&scores);
                let want = top_k_hits(r.task_id, &scores, TOP_K).hits;
                assert_eq!(r.hits, want, "{shape:?}");
            }
        }
    }

    #[test]
    fn gpu_worker_computes_exact_scores() {
        let results = run_one(WorkerSpec::gpu_default());
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.hits, expected_hits(r.task_id));
            // Virtual kernel time is tiny but positive.
            assert!(r.modelled_seconds > 0.0);
        }
    }

    #[test]
    fn gpu_is_modelled_faster_than_cpu_for_long_queries() {
        let spec_descr = WorkerSpec::gpu_default().description();
        assert!(spec_descr.contains("GPU"));
        let cpu = WorkerSpec::cpu_default().rate_model();
        let gpu = WorkerSpec::gpu_default().rate_model();
        assert!(gpu.task_seconds(5000, 1_000_000) < cpu.task_seconds(5000, 1_000_000));
    }

    #[test]
    fn every_zoo_class_worker_computes_exact_scores() {
        for class in DeviceClass::ALL {
            let spec = WorkerSpec::device_class(class);
            assert!(spec.is_gpu());
            assert_eq!(spec.device_class_of(), Some(class));
            let results = run_one(spec);
            assert_eq!(results.len(), 2, "class {class}");
            for r in &results {
                assert_eq!(r.hits, expected_hits(r.task_id), "class {class}");
                assert!(r.modelled_seconds > 0.0);
            }
        }
        assert_eq!(WorkerSpec::cpu_default().device_class_of(), None);
    }

    #[test]
    fn prior_scale_skews_declared_model_not_results() {
        let honest = WorkerSpec::cpu_default();
        let bragger = WorkerSpec::cpu_default().with_prior_scale(2.0);
        let t_honest = honest.rate_model().task_seconds(500, 10_000_000);
        let t_bragger = bragger.rate_model().task_seconds(500, 10_000_000);
        assert!(
            (t_bragger - t_honest / 2.0).abs() < 1e-12 * t_honest,
            "2x prior scale must halve every estimate: {t_bragger} vs {t_honest}"
        );
        // Results and true modelled times are untouched.
        let h = run_one(honest);
        let b = run_one(bragger);
        assert_eq!(h.len(), b.len());
        for (x, y) in h.iter().zip(&b) {
            assert_eq!(x.hits, y.hits);
            assert_eq!(x.modelled_seconds, y.modelled_seconds);
        }
        // Degenerate scales fall back to honest.
        assert_eq!(
            WorkerSpec::cpu_default().with_prior_scale(0.0).prior_scale,
            1.0
        );
        assert_eq!(
            WorkerSpec::cpu_default()
                .with_prior_scale(f64::NAN)
                .prior_scale,
            1.0
        );
    }

    #[test]
    fn gpu_worker_falls_back_to_chunked_search_when_db_oversized() {
        // A device with 25 bytes of memory cannot hold the 30-residue
        // tiny_db; the worker must stream it in chunks and still return
        // exact scores.
        let spec = WorkerSpec::gpu(DeviceSpec::toy(25));
        let results = run_one(spec);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.hits, expected_hits(r.task_id));
            assert!(r.modelled_seconds > 0.0);
        }
    }

    #[test]
    fn gpu_worker_reports_an_unchunkable_database_instead_of_panicking() {
        // 5 bytes of device memory: the 10-residue subjects exceed a
        // chunk (0.45 × capacity), so not even streaming can serve the
        // task. The worker must say so and name the task it held.
        let msgs = run_msgs(WorkerSpec::gpu(DeviceSpec::toy(5)), None);
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            WorkerMsg::Failed(f) => {
                assert_eq!(f.worker_id, 3);
                assert_eq!(
                    f.reason,
                    FailureReason::DeviceMemory(MemoryError::OutOfMemory {
                        requested: 10,
                        free: 2
                    })
                );
                assert_eq!(f.in_flight, Some(0));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn notified_crash_reports_its_in_flight_task() {
        let msgs = run_msgs(
            WorkerSpec::cpu_default(),
            Some(WorkerFault::Crash {
                after_jobs: 1,
                notify: true,
            }),
        );
        assert_eq!(msgs.len(), 2);
        assert_eq!(only(&msgs[0]).task_id, 0);
        match &msgs[1] {
            WorkerMsg::Failed(f) => {
                assert_eq!(f.worker_id, 3);
                assert_eq!(f.reason, FailureReason::Crash);
                assert_eq!(f.in_flight, Some(1));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn silent_crash_just_stops() {
        let msgs = run_msgs(
            WorkerSpec::cpu_default(),
            Some(WorkerFault::Crash {
                after_jobs: 0,
                notify: false,
            }),
        );
        assert!(msgs.is_empty());
    }

    #[test]
    fn device_fault_reports_and_stops() {
        let msgs = run_msgs(
            WorkerSpec::gpu_default(),
            Some(WorkerFault::DeviceFault { after_kernels: 1 }),
        );
        assert_eq!(msgs.len(), 2);
        assert_eq!(only(&msgs[0]).task_id, 0);
        match &msgs[1] {
            WorkerMsg::Failed(f) => {
                assert_eq!(f.reason, FailureReason::DeviceFault { after_kernels: 1 });
                assert_eq!(f.in_flight, Some(1));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn device_fault_is_ignored_by_cpu_workers() {
        let msgs = run_msgs(
            WorkerSpec::cpu_default(),
            Some(WorkerFault::DeviceFault { after_kernels: 0 }),
        );
        assert_eq!(msgs.len(), 2, "CPU worker has no device to fail");
    }

    #[test]
    fn straggler_computes_correct_scores_with_inflated_model_times() {
        let healthy = run_one(WorkerSpec::cpu_default());
        let msgs = run_msgs(
            WorkerSpec::cpu_default(),
            Some(WorkerFault::Straggler {
                delay_ms: 1,
                factor: 3.0,
            }),
        );
        assert_eq!(msgs.len(), 2);
        for (m, h) in msgs.iter().zip(&healthy) {
            let r = only(m);
            assert_eq!(r.hits, h.hits, "straggling must not change hits");
            assert!(
                (r.modelled_seconds - 3.0 * h.modelled_seconds).abs() <= 1e-9 * h.modelled_seconds
            );
        }
    }

    #[test]
    fn profiled_cpu_worker_emits_phase_spans_that_tile_the_task() {
        let obs = Obs::enabled();
        obs.set_profiling(true);
        let spec = WorkerSpec::cpu_default();
        let results = run_jobs(spec, 0, None, &obs, &[Job::new(0, 0, WHOLE)]);
        assert_eq!(results.len(), 1);

        let events = obs.events_since(0);
        let task = events
            .iter()
            .find(|e| matches!(e.body, EventBody::Job { task: 0, .. }))
            .expect("task");
        let phases: Vec<_> = events
            .iter()
            .filter(|e| e.body.is_profile_detail())
            .collect();
        assert!(!phases.is_empty(), "profiling on must emit phase spans");
        let dp_inner = EventBody::Phase {
            phase: HostPhase::DpInner,
            task: 0,
        };
        assert!(phases.iter().any(|e| e.body == dp_inner));
        // Phase modelled durations tile the task's modelled time.
        let phase_virt: f64 = phases.iter().filter_map(|e| e.virt_dur).sum();
        assert!(
            (phase_virt - task.virt_dur.unwrap()).abs() <= 1e-9 * task.virt_dur.unwrap(),
            "phases {phase_virt} vs task {:?}",
            task.virt_dur
        );
        // And each phase names its task.
        for p in &phases {
            assert!(matches!(p.body, EventBody::Phase { task: 0, .. }));
        }
    }

    #[test]
    fn unprofiled_worker_emits_no_phase_spans() {
        let obs = Obs::enabled(); // tracing on, profiling off
        let spec = WorkerSpec::cpu_default();
        run_jobs(spec, 0, None, &obs, &[Job::new(0, 0, WHOLE)]);
        assert!(obs
            .events_since(0)
            .iter()
            .all(|e| !e.body.is_profile_detail()));
    }

    #[test]
    fn repeated_queries_export_tier_metrics() {
        let obs = Obs::enabled();
        let jobs = [0, 1, 2].map(|task_id| Job::new(task_id, 0, WHOLE));
        let results = run_jobs(WorkerSpec::cpu_default(), 7, None, &obs, &jobs);
        assert_eq!(results.len(), 3);
        for m in &results {
            assert_eq!(only(m).hits, expected_hits(0));
        }
        let model = swdual_obs::RunModel::from_obs(&obs);
        let totals = model.workers[&7].kernels.expect("totals at queue close");
        assert_eq!(totals.subjects, (3 * tiny_db().len()) as u64);
        assert_eq!(
            totals.byte_resolved + totals.escalated_16 + totals.escalated_scalar,
            totals.subjects,
            "tiers partition subjects"
        );
        // One instant per worker, after its last job.
        let last = obs.events_since(0).pop().expect("events");
        assert!(matches!(last.body, EventBody::WorkerTotals { .. }));
    }

    #[test]
    fn crash_before_registration_sends_nothing() {
        let msgs = run_msgs(
            WorkerSpec::cpu_default(),
            Some(WorkerFault::CrashBeforeRegistration),
        );
        assert!(msgs.is_empty());
    }

    #[test]
    fn slices_are_scored_alone_and_charged_for_their_own_residues() {
        // tiny_db's length order is d0, d1 (10 residues), d2 (7), d3 (3):
        // cut it after the two long ones.
        let head = DbSlice { start: 0, end: 2 };
        let tail = DbSlice { start: 2, end: 4 };
        let empty = DbSlice { start: 2, end: 2 };
        for spec in [WorkerSpec::cpu_default(), WorkerSpec::gpu_default()] {
            let whole = &run_one(spec.clone())[0];
            let jobs = [
                Job::new(0, 0, head),
                Job::new(5, 0, tail),
                Job::new(6, 0, empty),
            ];
            let msgs = run_jobs(spec.clone(), 3, None, &Obs::disabled(), &jobs);
            let parts: Vec<&JobResult> = msgs.iter().map(only).collect();
            let ids = |r: &JobResult| r.hits.iter().map(|h| h.db_index).collect::<Vec<_>>();
            assert_eq!(ids(parts[0]).len(), 2);
            assert!(ids(parts[0]).iter().all(|&i| i < 2), "the head is d0, d1");
            assert!(ids(parts[1]).iter().all(|&i| i >= 2), "the tail is d2, d3");
            let merged = top_k(parts.iter().flat_map(|r| r.hits.clone()), TOP_K);
            assert_eq!(merged, whole.hits, "{}", spec.description());
            assert_eq!(parts[0].cells, 6 * 20);
            assert_eq!(parts[1].cells, 6 * 10);
            assert_eq!(parts[0].cells + parts[1].cells, whole.cells);
            // An empty slice is a job like any other: no hits, no cells,
            // the fixed part of the modelled time.
            assert!(parts[2].hits.is_empty());
            assert_eq!(parts[2].cells, 0);
            assert!(parts[2].modelled_seconds > 0.0);
            for part in &parts[..2] {
                assert!(part.modelled_seconds < whole.modelled_seconds);
                assert!(part.modelled_seconds > parts[2].modelled_seconds);
            }
        }
    }

    #[test]
    fn a_job_out_of_range_fails_the_job_without_panicking() {
        let beyond = DbSlice { start: 2, end: 9 };
        let backwards = DbSlice { start: 3, end: 1 };
        for spec in [WorkerSpec::cpu_default(), WorkerSpec::gpu_default()] {
            for bad in [
                Job::new(4, 0, beyond),
                Job::new(4, 0, backwards),
                Job::new(4, 2, WHOLE), // there are two queries
            ] {
                let jobs = [Job::new(0, 0, WHOLE), bad, Job::new(1, 1, WHOLE)];
                let msgs = run_jobs(spec.clone(), 3, None, &Obs::disabled(), &jobs);
                assert_eq!(msgs.len(), 2, "{bad:?}: the worker gives up at the bad job");
                assert_eq!(only(&msgs[0]).task_id, 0);
                match &msgs[1] {
                    WorkerMsg::Failed(f) => {
                        assert_eq!(f.reason, FailureReason::InvalidJob);
                        assert_eq!((f.worker_id, f.in_flight), (3, Some(4)));
                    }
                    other => panic!("expected failure, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_slice_streams_through_an_oversized_device_too() {
        // 25 bytes of device memory: the worker streams the job's
        // subjects in chunks, slice or whole.
        let spec = WorkerSpec::gpu(DeviceSpec::toy(25));
        let jobs = [
            Job::new(0, 0, DbSlice { start: 0, end: 2 }),
            Job::new(1, 0, DbSlice { start: 2, end: 4 }),
        ];
        let msgs = run_jobs(spec, 3, None, &Obs::disabled(), &jobs);
        let hits = msgs.iter().flat_map(|m| only(m).hits.clone());
        assert_eq!(top_k(hits, TOP_K), expected_hits(0));
    }
}
