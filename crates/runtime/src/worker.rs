//! Worker (slave) threads.
//!
//! A worker registers with the master, acquires the shared sequences
//! (paper Fig. 6: "Acquire sequences"), then loops: receive a run of
//! tasks, execute it with its engine, send one result per task. CPU
//! workers run an alignment kernel in-thread — a run of more than one
//! task as one transposed pass, as the master decided when it formed
//! the run; GPU workers drive a simulated device whose virtual clock
//! supplies the modelled task time, one task at a time.
//!
//! An idle worker may also be lent a task queued on a device worker
//! ([`Order::Help`]): it claims the task in the search's [`Claims`],
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
use crate::messages::{top_k, FailureReason, Hit, Job, JobResult, Order, WorkerFailure, WorkerMsg};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swdual_align::engine::{AlignEngine, LadderEngine, PhaseTimings};
use swdual_align::{ProfileCache, Scratch, SharedStreams, Subjects, TierStats};
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::ScoringScheme;
use swdual_gpusim::{DeviceClass, DeviceSpec, GpuDevice};
use swdual_obs::{EventBody, HostPhase, Obs, Track};

/// Worker species: which engine a worker actually runs.
#[derive(Debug, Clone)]
pub enum WorkerKind {
    /// A CPU worker: a SWIPE-class vector kernel on one thread — the
    /// tier ladder (byte lanes → 16-bit lanes → scalar) on the fastest
    /// SIMD backend the host supports, the byte tier inter-sequence at
    /// every query length, striped only for the subjects its fill rule
    /// peels (`swdual_align::tiered::score_database`).
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
            WorkerKind::Cpu => "CPU(striped)".to_string(),
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

/// Everything a worker needs to execute tasks.
pub struct WorkerContext<'a> {
    /// Worker id assigned at registration.
    pub worker_id: usize,
    /// The database: the residues of one checked image, its length
    /// order and that order's residue prefix sums, built once per search
    /// and borrowed by every worker.
    pub database: &'a Subjects<'a>,
    /// The inter-sequence streams of the slices the search shares, lent
    /// to every CPU worker.
    pub streams: &'a SharedStreams,
    /// The query set (shared).
    pub queries: Arc<SequenceSet>,
    /// Scoring parameters.
    pub scheme: ScoringScheme,
    /// Hits a job reports: the best this many of its slice.
    pub top_k: usize,
    /// Event recorder; disabled by default. When disabled, the per-job
    /// hot path below records nothing, takes no locks and allocates
    /// nothing for tracing.
    pub obs: Obs,
    /// Injected fault behaviour, if this worker is in the fault plan.
    pub fault: Option<WorkerFault>,
    /// The search's lent tasks.
    pub claims: &'a Claims,
}

/// Record one finished job as a dual-clock span on the worker's track.
///
/// `virt_start` is the worker's cumulative modelled busy time before
/// this job — the modelled clock all planned placements are stated in.
///
/// The span echoes the job's lineage (dispatch sequence, plan decision)
/// and the dispatch→exec-start queue-wait gap on both clocks, so the
/// journal's causal chain closes without consumers re-deriving it. The
/// wall gap is real master→worker hand-off latency; the modelled gap is
/// ~0 by construction (a worker's virtual clock only advances while it
/// computes) except when a re-plan hands a task to a worker whose
/// modelled clock already ran past the dispatch stamp.
#[allow(clippy::too_many_arguments)]
fn record_job_span(
    obs: &Obs,
    worker_id: usize,
    job: &Job,
    wall_start: f64,
    wall_dur: f64,
    virt_start: f64,
    modelled: f64,
    cells: u64,
) {
    if !obs.is_enabled() {
        return;
    }
    let task_id = job.task_id;
    let queue_wait_wall = (wall_start - job.dispatch_wall).max(0.0);
    let queue_wait_modelled = (virt_start - job.dispatch_virt).max(0.0);
    obs.span(
        Track::Worker(worker_id),
        wall_start,
        wall_dur,
        Some((virt_start, modelled)),
        EventBody::Job {
            task: task_id,
            cells: Some(cells as f64),
            seq: Some(job.dispatch_seq),
            decision: Some(job.decision),
            queue_wait_wall: Some(queue_wait_wall),
            queue_wait_modelled: Some(queue_wait_modelled),
        },
    );
}

/// Record the host phase spans of one CPU job (profile build, DP inner
/// loop) under its task span.
///
/// Attribution rules: phase spans tile the job sequentially on both
/// clocks. Wall durations are the measured [`PhaseTimings`]; modelled
/// durations split the job's modelled time in the same proportions as
/// the measured wall phases (the rate model prices whole tasks, not
/// phases). When the job ran too fast to measure (wall total ≈ 0),
/// everything modelled is attributed to the DP inner loop. Phases a
/// helper measured (`lent`) keep their modelled split and take no wall
/// time here: that was the helper's.
#[allow(clippy::too_many_arguments)]
fn record_phase_spans(
    obs: &Obs,
    worker_id: usize,
    task_id: usize,
    wall_start: f64,
    virt_start: f64,
    modelled: f64,
    timings: &PhaseTimings,
    lent: bool,
) {
    let wall_total = timings.total();
    let phases = [
        (HostPhase::ProfileBuild, timings.profile_build),
        (HostPhase::DpInner, timings.dp_inner),
    ];
    let mut wall_at = wall_start;
    let mut virt_at = virt_start;
    for (phase, measured) in phases {
        let virt_dur = if wall_total > 0.0 {
            modelled * measured / wall_total
        } else if phase == HostPhase::DpInner {
            modelled
        } else {
            0.0
        };
        let wall_dur = if lent { 0.0 } else { measured };
        if wall_dur <= 0.0 && virt_dur <= 0.0 {
            continue;
        }
        obs.span(
            Track::Worker(worker_id),
            wall_at,
            wall_dur,
            Some((virt_at, virt_dur)),
            EventBody::Phase {
                phase,
                task: task_id,
            },
        );
        wall_at += wall_dur;
        virt_at += virt_dur;
    }
}

/// The crash/straggler knobs a worker consults per run, pre-split from
/// the fault enum so the healthy path pays a single `None` check. Both
/// count tasks: `crash@N` dies on picking up the worker's `N`-th task,
/// wherever it falls in a run, and the straggler's delay is paid per
/// task.
struct FaultKnobs {
    crash_after: Option<usize>,
    crash_notify: bool,
    straggle_ms: u64,
    straggle_factor: f64,
}

impl FaultKnobs {
    fn from(fault: Option<WorkerFault>) -> FaultKnobs {
        let mut knobs = FaultKnobs {
            crash_after: None,
            crash_notify: false,
            straggle_ms: 0,
            straggle_factor: 1.0,
        };
        match fault {
            Some(WorkerFault::Crash { after_jobs, notify }) => {
                knobs.crash_after = Some(after_jobs);
                knobs.crash_notify = notify;
            }
            Some(WorkerFault::Straggler { delay_ms, factor }) => {
                knobs.straggle_ms = delay_ms;
                knobs.straggle_factor = factor;
            }
            _ => {}
        }
        knobs
    }

    /// Split `run`, whose first task is the worker's `jobs_done`-th, into
    /// the tasks it executes and, from the task it dies on picking up,
    /// the rest; then pay the straggler's delay for the tasks it
    /// executes.
    fn pre_run<'r>(&self, jobs_done: usize, run: &'r [Job]) -> (&'r [Job], &'r [Job]) {
        let live = match self.crash_after {
            Some(n) if n >= jobs_done => (n - jobs_done).min(run.len()),
            _ => run.len(),
        };
        if self.straggle_ms > 0 && live > 0 {
            std::thread::sleep(Duration::from_millis(self.straggle_ms * live as u64));
        }
        run.split_at(live)
    }

    /// Die on picking up `job`: journal the crash and, when the plan
    /// says so, tell the master which task was in hand.
    fn crash(&self, job: &Job, worker_id: usize, obs: &Obs, results: &Sender<WorkerMsg>) {
        obs.instant(
            Track::Faults,
            EventBody::WorkerCrash {
                worker: worker_id,
                task: job.task_id,
                notified: self.crash_notify,
            },
        );
        if self.crash_notify {
            let _ = results.send(WorkerMsg::Failed(WorkerFailure {
                worker_id,
                reason: FailureReason::Crash,
                in_flight: Some(job.task_id),
            }));
        }
    }
}

impl WorkerContext<'_> {
    /// The queries of `run` and the positions of the length order its
    /// jobs name, one slice for all of them, or — having told the master
    /// this worker gives up on the first job that does not fit — `None`.
    /// A job from a confused or hostile master must not index out of
    /// bounds.
    fn inputs_of(
        &self,
        run: &[Job],
        results: &Sender<WorkerMsg>,
    ) -> Option<(Vec<&Sequence>, Range<usize>)> {
        let mut queries = Vec::with_capacity(run.len());
        let mut slice: Option<Range<usize>> = None;
        for job in run {
            let query = self.queries.get(job.query_index);
            let own = job.slice.checked(self.database.len());
            let own = own.filter(|own| slice.as_ref().is_none_or(|run| run == own));
            let Some((query, own)) = query.zip(own) else {
                let _ = results.send(WorkerMsg::Failed(WorkerFailure {
                    worker_id: self.worker_id,
                    reason: FailureReason::InvalidJob,
                    in_flight: Some(job.task_id),
                }));
                return None;
            };
            slice = Some(own);
            queries.push(query);
        }
        Some((queries, slice.unwrap_or_default()))
    }

    /// The ranked hits a job reports for `scores` of `slice`, which are
    /// in the slice's order.
    fn hits_of(&self, slice: Range<usize>, scores: &[i32]) -> Vec<Hit> {
        let subjects = self.database.order()[slice].iter();
        let candidates = subjects.zip(scores).map(|(&subject, &score)| Hit {
            db_index: subject as usize,
            score,
        });
        top_k(candidates, self.top_k)
    }
    /// Score `job`, which another worker owns, for it: claim the task,
    /// score it, leave the hits and tier counts in the claim table,
    /// record a `help` span and tell the master. A task its owner kept,
    /// or that names nothing this worker has, is handed back unscored.
    /// Returns false once the master has gone.
    fn help(
        &self,
        job: &Job,
        cache: &ProfileCache,
        scratch: &mut Scratch,
        results: &Sender<WorkerMsg>,
    ) -> bool {
        let query = self.queries.get(job.query_index);
        let slice = job.slice.checked(self.database.len());
        let claim = query
            .zip(slice)
            .and_then(|inputs| Some((inputs, self.claims.claim(job.task_id)?)));
        let mut wall_seconds = 0.0;
        if let Some(((query, slice), claim)) = claim {
            let wall_start = self.obs.now();
            let start = Instant::now();
            let (scores, timings, tiers) = LadderEngine::AUTO.score_database(
                query.codes(),
                self.database,
                slice.clone(),
                &self.scheme,
                Some(cache),
                Some(self.streams),
                scratch,
            );
            let hits = self.hits_of(slice, &scores);
            wall_seconds = start.elapsed().as_secs_f64();
            claim.fulfil(Lent {
                hits,
                tiers,
                timings,
            });
            self.obs.span(
                Track::Worker(self.worker_id),
                wall_start,
                wall_seconds,
                None,
                EventBody::Help { task: job.task_id },
            );
        }
        let helped = WorkerMsg::Helped {
            worker_id: self.worker_id,
            wall_seconds,
        };
        results.send(helped).is_ok()
    }
}

/// Run a worker loop until the job channel closes, registering with the
/// master first when a registration channel is supplied (the paper's
/// Figure 6 "Register with master" step). This is the body of each
/// worker thread; it is public so tests can drive workers synchronously.
pub fn worker_loop_registered(
    spec: WorkerSpec,
    ctx: WorkerContext<'_>,
    registration: Option<Sender<crate::messages::Registration>>,
    jobs: Receiver<Order>,
    results: Sender<WorkerMsg>,
) {
    if matches!(ctx.fault, Some(WorkerFault::CrashBeforeRegistration)) {
        ctx.obs.instant(
            Track::Faults,
            EventBody::WorkerCrashBeforeRegistration {
                worker: ctx.worker_id,
            },
        );
        return; // dies without saying hello
    }
    if let Some(reg) = registration {
        let hello = crate::messages::Registration {
            worker_id: ctx.worker_id,
            description: spec.description(),
            is_gpu: spec.is_gpu(),
            rate_model: spec.rate_model(),
        };
        if reg.send(hello).is_err() {
            return; // master went away before registration
        }
    }
    worker_loop(spec, ctx, jobs, results)
}

/// How long a worker polls its job queue before it parks on it.
///
/// The master feeds one run at a time, so between two runs a worker
/// waits for the master to merge its results and send the next one — a
/// few microseconds. Parking for that idles the CPU, and how long an
/// idle CPU takes to wake is the host's business: on the reference VM it
/// moved `tiny_tasks` searches between 0.41 and 0.64 s from one run to
/// the next. Polling across the gap keeps the hand-over inside the
/// process; a queue that stays empty this long is a real wait, and the
/// worker parks as before.
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

/// What a CPU worker hands back for one task of a run: its hits, where
/// its own wall time lies, and the task's phases when profiled —
/// measured by a helper when `lent`.
struct Answer {
    hits: Vec<Hit>,
    wall_start: f64,
    wall: f64,
    timings: Option<PhaseTimings>,
    lent: bool,
}

/// Run a worker loop until the job channel closes (no registration
/// step; used by tests that drive workers directly).
pub fn worker_loop(
    spec: WorkerSpec,
    ctx: WorkerContext<'_>,
    jobs: Receiver<Order>,
    results: Sender<WorkerMsg>,
) {
    if matches!(ctx.fault, Some(WorkerFault::CrashBeforeRegistration)) {
        return;
    }
    let knobs = FaultKnobs::from(ctx.fault);
    let mut jobs_done = 0usize;
    match spec.kind {
        WorkerKind::Cpu => {
            // Prepared once per worker, not per job: the kernels' working
            // memory.
            let mut scratch = Scratch::default();
            let model = WorkerRateModel::cpu_swipe();
            // Per-worker profile cache: jobs that share a query (chunked
            // databases, repeated searches) reuse the built profiles, so
            // profile_build collapses to a lookup after the first job.
            let profile_cache = ProfileCache::default();
            let mut tiers = TierStats::default();
            let mut virt_clock = 0.0;
            'runs: while let Some(order) = next_order(&jobs) {
                let run = match order {
                    Order::Run(run) => run,
                    Order::Help(job) => {
                        if !ctx.help(&job, &profile_cache, &mut scratch, &results) {
                            break 'runs;
                        }
                        continue;
                    }
                };
                let (live, doomed) = knobs.pre_run(jobs_done, &run);
                if !live.is_empty() {
                    let Some((queries, slice)) = ctx.inputs_of(live, &results) else {
                        return;
                    };
                    let mut answers: Vec<Option<Answer>> = live.iter().map(|_| None).collect();
                    // Score the run's tasks at `which` as one run. Scores
                    // are identical to `score_many`; a run of one task is
                    // a one-query job. The run's wall time and phases are
                    // shared out by query length, its job spans tiling
                    // the run's wall span.
                    let mut score = |which: &[usize], answers: &mut [Option<Answer>]| {
                        let wall_start = ctx.obs.now();
                        let start = Instant::now();
                        let codes: Vec<&[u8]> = which.iter().map(|&i| queries[i].codes()).collect();
                        let (scores, timings, tier_stats) = LadderEngine::AUTO.score_run(
                            &codes,
                            ctx.database,
                            slice.clone(),
                            &ctx.scheme,
                            Some(&profile_cache),
                            Some(ctx.streams),
                            &mut scratch,
                        );
                        let wall = start.elapsed().as_secs_f64();
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
                                hits: ctx.hits_of(slice.clone(), &scores),
                                wall_start: wall_at,
                                wall: wall * share,
                                timings,
                                lent: false,
                            });
                            wall_at += wall * share;
                        }
                        tier_stats
                    };
                    // The unlent tasks first, transposed when they form a
                    // run: a helper still at a lent one has that long to
                    // finish it. Then each lent task: the helper's hits
                    // and tier counts, or — when no helper started it —
                    // scored alone.
                    let (lent, own): (Vec<usize>, Vec<usize>) =
                        (0..live.len()).partition(|&i| live[i].lent);
                    if !own.is_empty() {
                        tiers.merge(&score(&own, &mut answers));
                    }
                    for i in lent {
                        match ctx.claims.settle(live[i].task_id) {
                            Some(lent) => {
                                tiers.merge(&lent.tiers);
                                answers[i] = Some(Answer {
                                    hits: lent.hits,
                                    wall_start: ctx.obs.now(),
                                    wall: 0.0,
                                    timings: ctx.obs.is_profiling().then_some(lent.timings),
                                    lent: true,
                                });
                            }
                            None => tiers.merge(&score(&[i], &mut answers)),
                        }
                    }
                    // A slice is charged for its own residues, each task
                    // its own modelled seconds, whoever computed it.
                    let residues = ctx.database.residues_in(slice);
                    for ((job, query), answer) in live.iter().zip(&queries).zip(answers) {
                        let Some(answer) = answer else { continue };
                        let cells = query.len() as u64 * residues;
                        let modelled =
                            model.task_seconds(query.len(), residues) * knobs.straggle_factor;
                        record_job_span(
                            &ctx.obs,
                            ctx.worker_id,
                            job,
                            answer.wall_start,
                            answer.wall,
                            virt_clock,
                            modelled,
                            cells,
                        );
                        if let Some(timings) = &answer.timings {
                            record_phase_spans(
                                &ctx.obs,
                                ctx.worker_id,
                                job.task_id,
                                answer.wall_start,
                                virt_clock,
                                modelled,
                                timings,
                                answer.lent,
                            );
                        }
                        virt_clock += modelled;
                        jobs_done += 1;
                        let send = results.send(WorkerMsg::Completed(JobResult {
                            task_id: job.task_id,
                            worker_id: ctx.worker_id,
                            hits: answer.hits,
                            wall_seconds: answer.wall,
                            modelled_seconds: modelled,
                            cells,
                        }));
                        if send.is_err() {
                            break 'runs; // master went away
                        }
                    }
                }
                if let Some(job) = doomed.first() {
                    knobs.crash(job, ctx.worker_id, &ctx.obs, &results);
                    return;
                }
            }
            // The queue closed: what this worker's kernels did in total.
            ctx.obs.instant(
                Track::Worker(ctx.worker_id),
                EventBody::WorkerTotals {
                    subjects: tiers.subjects,
                    byte_resolved: tiers.byte_resolved,
                    escalated_16: tiers.escalated_16,
                    escalated_scalar: tiers.escalated_scalar,
                    profile_cache_hits: profile_cache.hits(),
                    profile_cache_misses: profile_cache.misses(),
                },
            );
        }
        WorkerKind::Gpu { device } => {
            let mut device = GpuDevice::new(device);
            device.attach_obs(ctx.obs.clone(), ctx.worker_id);
            if let Some(WorkerFault::DeviceFault { after_kernels }) = ctx.fault {
                device.inject_fault_after_kernels(after_kernels);
            }
            // What helping needs beside the device, made on first use.
            let mut helping: Option<(ProfileCache, Scratch)> = None;
            let mut virt_clock = 0.0;
            // The device is a timing model plus a functional scorer: its
            // scores come from the same tiered host kernel the CPU arm
            // runs (host time), its task time from the device's simulated
            // clock alone. Databases that fit stay resident across tasks
            // (the CUDASW++ pattern), borrowing the search's length
            // order; oversized ones stay on the host and fall back to
            // the chunked streaming path per kernel, re-streaming the
            // job's subjects for every task as the real tools must.
            let residency = device.upload_shared(ctx.database, true).ok();
            'runs: while let Some(order) = next_order(&jobs) {
                let run = match order {
                    Order::Run(run) => run,
                    Order::Help(job) => {
                        let (cache, scratch) = helping.get_or_insert_with(Default::default);
                        if !ctx.help(&job, cache, scratch, &results) {
                            break 'runs;
                        }
                        continue;
                    }
                };
                let (live, doomed) = knobs.pre_run(jobs_done, &run);
                for job in live {
                    let Some((queries, slice)) = ctx.inputs_of(std::slice::from_ref(job), &results)
                    else {
                        return;
                    };
                    let query = queries[0];
                    // A lent task a helper scored is only charged: the
                    // kernel the device would launch, on its clock. The
                    // streaming path scores every task itself.
                    let lent = residency
                        .as_ref()
                        .filter(|_| job.lent)
                        .and_then(|_| ctx.claims.settle(job.task_id));
                    let wall_start = ctx.obs.now();
                    let start = Instant::now();
                    // Tag the device's stage spans (H2D/kernel/D2H) with the
                    // task they serve: the causal link from dispatch into
                    // device activity.
                    device.set_lineage(Some(job.task_id));
                    let computed = (|| -> Result<(Vec<Hit>, f64), FailureReason> {
                        match (&residency, lent) {
                            (Some(db), Some(lent)) => {
                                let seconds =
                                    device.charge_slice(query.len(), db, slice.clone())?;
                                Ok((lent.hits, seconds))
                            }
                            (Some(db), None) => {
                                device.check_fault()?;
                                let r = device.search_slice(
                                    query.codes(),
                                    db,
                                    slice.clone(),
                                    &ctx.scheme,
                                );
                                Ok((ctx.hits_of(slice.clone(), &r.scores), r.kernel_seconds))
                            }
                            (None, _) => {
                                device.check_fault()?;
                                let on_host: Vec<&[u8]> =
                                    ctx.database.in_order(slice.clone()).collect();
                                let r = swdual_gpusim::chunked::overlapped_search(
                                    &mut device,
                                    &on_host,
                                    query.codes(),
                                    &ctx.scheme,
                                    true,
                                )?;
                                Ok((ctx.hits_of(slice.clone(), &r.scores), r.seconds))
                            }
                        }
                    })();
                    let (hits, modelled) = match computed {
                        Ok((hits, modelled)) => (hits, modelled * knobs.straggle_factor),
                        Err(reason) => {
                            // The board died under us, or cannot hold even
                            // one chunk of this database: report and exit so
                            // the master re-plans onto the survivors. (A
                            // fault was already logged by the device itself.)
                            let _ = results.send(WorkerMsg::Failed(WorkerFailure {
                                worker_id: ctx.worker_id,
                                reason,
                                in_flight: Some(job.task_id),
                            }));
                            return;
                        }
                    };
                    device.set_lineage(None);
                    let wall = start.elapsed().as_secs_f64();
                    let cells = query.len() as u64 * ctx.database.residues_in(slice);
                    record_job_span(
                        &ctx.obs,
                        ctx.worker_id,
                        job,
                        wall_start,
                        wall,
                        virt_clock,
                        modelled,
                        cells,
                    );
                    virt_clock += modelled;
                    jobs_done += 1;
                    let send = results.send(WorkerMsg::Completed(JobResult {
                        task_id: job.task_id,
                        worker_id: ctx.worker_id,
                        hits,
                        wall_seconds: wall,
                        modelled_seconds: modelled,
                        cells,
                    }));
                    if send.is_err() {
                        break 'runs;
                    }
                }
                if let Some(job) = doomed.first() {
                    knobs.crash(job, ctx.worker_id, &ctx.obs, &results);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{top_k_hits, DbSlice};
    use crossbeam::channel;
    use swdual_align::scalar::gotoh_score;
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
        let image = SqbImage::from_set(&tiny_db()).unwrap();
        let ctx = WorkerContext {
            worker_id,
            database: &Subjects::from(&image),
            streams: &SharedStreams::default(),
            queries: Arc::new(tiny_queries()),
            scheme: ScoringScheme::protein_default(),
            top_k: TOP_K,
            obs: obs.clone(),
            fault,
            claims,
        };
        for order in orders {
            job_tx.send(order).unwrap();
        }
        drop(job_tx);
        worker_loop(spec, ctx, job_rx, res_tx);
        res_rx.iter().collect()
    }

    fn run_msgs(spec: WorkerSpec, fault: Option<WorkerFault>) -> Vec<WorkerMsg> {
        let jobs = [Job::new(0, 0, WHOLE), Job::new(1, 1, WHOLE)];
        run_jobs(spec, 3, fault, &Obs::disabled(), &jobs)
    }

    fn run_one(spec: WorkerSpec) -> Vec<JobResult> {
        run_msgs(spec, None)
            .into_iter()
            .map(|m| match m {
                WorkerMsg::Completed(r) => r,
                other => panic!("unexpected message: {other:?}"),
            })
            .collect()
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
        let done = msgs.iter().filter_map(|m| match m {
            WorkerMsg::Completed(r) => Some(r),
            _ => None,
        });
        done.collect()
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
        // A CPU worker scores with one ladder engine; its hits are what
        // every engine of the zoo ranks.
        let db = tiny_db();
        let subjects: Vec<&[u8]> = db.iter().map(|d| d.codes()).collect();
        let queries = tiny_queries();
        let scheme = ScoringScheme::protein_default();
        let results = run_one(WorkerSpec::cpu_default());
        assert_eq!(results.len(), 2);
        for kind in swdual_align::engine::EngineKind::ALL {
            let engine = kind.build();
            for r in &results {
                let query = queries.get(r.task_id).unwrap().codes();
                let scores = engine.score_many(query, &subjects, &scheme);
                assert_eq!(r.hits, top_k_hits(r.task_id, &scores, TOP_K).hits, "{kind}");
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
        assert!(matches!(&msgs[0], WorkerMsg::Completed(r) if r.task_id == 0));
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
        assert!(matches!(&msgs[0], WorkerMsg::Completed(r) if r.task_id == 0));
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
            match m {
                WorkerMsg::Completed(r) => {
                    assert_eq!(r.hits, h.hits, "straggling must not change hits");
                    assert!(
                        (r.modelled_seconds - 3.0 * h.modelled_seconds).abs()
                            <= 1e-9 * h.modelled_seconds
                    );
                }
                other => panic!("expected completion, got {other:?}"),
            }
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
    fn repeated_queries_hit_the_profile_cache_and_export_tier_metrics() {
        let obs = Obs::enabled();
        // Three jobs for the same query: the second and third lookups of
        // query 0's profiles must be cache hits.
        let jobs = [0, 1, 2].map(|task_id| Job::new(task_id, 0, WHOLE));
        let results = run_jobs(WorkerSpec::cpu_default(), 7, None, &obs, &jobs);
        assert_eq!(results.len(), 3);
        for m in &results {
            match m {
                WorkerMsg::Completed(r) => assert_eq!(r.hits, expected_hits(0)),
                other => panic!("expected completion, got {other:?}"),
            }
        }
        let model = swdual_obs::RunModel::from_obs(&obs);
        let totals = model.workers[&7].kernels.expect("totals at queue close");
        assert_eq!(totals.subjects, (3 * tiny_db().len()) as u64);
        assert_eq!(
            totals.byte_resolved + totals.escalated_16 + totals.escalated_scalar,
            totals.subjects,
            "tiers partition subjects"
        );
        assert!(
            totals.profile_cache_hits >= 2,
            "jobs 2 and 3 reuse job 1's profiles"
        );
        assert_eq!(totals.profile_cache_misses, 1);
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
            let parts: Vec<&JobResult> = msgs
                .iter()
                .map(|m| match m {
                    WorkerMsg::Completed(r) => r,
                    other => panic!("expected completion, got {other:?}"),
                })
                .collect();
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
                assert!(matches!(&msgs[0], WorkerMsg::Completed(r) if r.task_id == 0));
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
        let hits = msgs.iter().flat_map(|m| match m {
            WorkerMsg::Completed(r) => r.hits.clone(),
            other => panic!("expected completion, got {other:?}"),
        });
        assert_eq!(top_k(hits, TOP_K), expected_hits(0));
    }
}
