//! Deterministic simulation of the master core: no threads, a virtual
//! clock, and a seeded event heap whose ties are shuffled.
//!
//! The run's tasks are what the shell's allocator would hand the core:
//! the policy's plan with its divisible tail cut, so a task may be a
//! slice of a query's database pass — to the core, just another id.
//! Virtual workers have a species, a true slowdown factor and a fate.
//! Tasks may be offered to runs ([`Sim::with_runs`]); a CPU worker then
//! picks up a run's tasks in order and answers each as it finishes.
//! Every loan the core makes is checked and, with [`Sim::answering`],
//! answered at a random virtual time drawn from a stream of its own —
//! the virtual workers' timing ignores loans, so a loan answered and a
//! loan dropped must leave the rest of the core's actions alike.
//! [`Sim::advance`] mirrors the shell's loop — wait for the next worker
//! message, but no longer than one tick nor past the next deadline;
//! `step`; perform the actions, feeding failed sends back — and checks
//! the core's invariants after every step. This is where concurrency
//! bugs in the master are hunted: thousands of interleavings of
//! completions, notified and silent deaths, failed sends and deadline
//! ticks run per second, and every failure replays from its seed.

use super::super::initial_plan;
use super::*;
use crate::messages::{FailureReason, JobResult, WorkerFailure};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::time::Duration;
use swdual_align::Backend;
use swdual_sched::binsearch::dual_approx_schedule;
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::{Part, PlatformSpec, SliceOverhead, Task};

/// Virtual wall seconds per modelled second of work.
const WALL_PER_MODELLED: f64 = 1e-3;
/// `min_job_timeout` of every simulated run.
const FLOOR: Duration = Duration::from_millis(60);
/// The indivisible seconds of every task of [`workload`], per species.
const OVERHEAD: SliceOverhead = SliceOverhead { cpu: 1.8, gpu: 0.5 };

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Healthy,
    /// Dies on picking up its `n`-th job (0-based) and says so.
    Crash(usize),
    /// Dies on picking up its `n`-th job and says nothing.
    Vanish(usize),
    /// Registered, then exited: the first send to it fails.
    DeadAtSend,
    NeverRegistered,
}

#[derive(Debug, Clone, Copy)]
struct VirtualWorker {
    is_gpu: bool,
    /// Multiplies both its modelled and its wall time per task.
    slowdown: f64,
    fate: Fate,
}

fn cpu(slowdown: f64, fate: Fate) -> VirtualWorker {
    VirtualWorker {
        is_gpu: false,
        slowdown,
        fate,
    }
}

fn gpu(slowdown: f64, fate: Fate) -> VirtualWorker {
    VirtualWorker {
        is_gpu: true,
        slowdown,
        fate,
    }
}

/// A worker → master message in flight.
struct Event {
    at: f64,
    tie: u64,
    msg: Input,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        self.at.total_cmp(&other.at).then(self.tie.cmp(&other.tie))
    }
}

struct Sim {
    state: MasterState,
    /// The initial plan (none under self-scheduling) and what each of
    /// its tasks stands for.
    schedule: Option<Schedule>,
    parts: Vec<Part>,
    obs: Obs,
    workers: Vec<VirtualWorker>,
    /// Ground truth: the worker's thread has exited.
    gone: Vec<bool>,
    /// Ground truth: the tasks of its run the worker has not answered.
    busy: Vec<Vec<usize>>,
    picked_up: Vec<usize>,
    shared: VecDeque<Job>,
    /// Runs of more than one task dispatched so far.
    runs_formed: usize,
    /// Every dispatch: worker, then per job its task and lineage.
    dispatches: Vec<Dispatched>,
    /// Every loan: `(task, helper, owner)`.
    lends: Vec<(usize, usize, usize)>,
    /// Each lent task's owner, as `check_lends` found it on the state
    /// the core lent it from.
    owners: HashMap<usize, usize>,
    /// Draws the virtual time at which each loan is answered; `None`
    /// drops every loan.
    answers: Option<TestRng>,
    heap: BinaryHeap<Reverse<Event>>,
    rng: TestRng,
    now: f64,
    tick: f64,
    /// Virtual seconds the master spends per step. When messages
    /// arrive faster than this, a backlog builds and the shell's
    /// receive never times out.
    step_cost: f64,
    steps: usize,
    // What the invariants remember between steps.
    last_seq: Option<u64>,
    journal_cursor: usize,
    duplicates_delivered: usize,
    /// When each worker was declared dead, and the deadline it had.
    death_at: Vec<Option<(f64, f64)>>,
}

impl Sim {
    fn new(
        tasks: TaskSet,
        workers: Vec<VirtualWorker>,
        policy: AllocationPolicy,
        reopt: ReoptConfig,
        seed: u64,
    ) -> Sim {
        let obs = Obs::enabled();
        let config = RuntimeConfig {
            policy,
            reopt,
            obs: obs.clone(),
            min_job_timeout: FLOOR,
            ..RuntimeConfig::default()
        };
        let registered = |w: &VirtualWorker| w.fate != Fate::NeverRegistered;
        let pool = workers.iter().filter(|w| registered(w));
        let gpus = pool.clone().filter(|w| w.is_gpu).count();
        let platform = PlatformSpec::new(pool.count() - gpus, gpus);
        // What the shell would draw for the registered pool; any
        // fraction of a task can be cut.
        let plan = initial_plan(&tasks, &platform, policy, OVERHEAD, |f| f, &Obs::disabled());
        let (tasks, parts, schedule) = match plan {
            Some(plan) => (plan.tasks, plan.parts, Some(plan.schedule)),
            None => {
                let whole = (0..tasks.len()).map(Part::whole).collect();
                (tasks, whole, None)
            }
        };
        // Cells sized so the cold-host floor stays below FLOOR until the
        // run calibrates itself; a part's share of a million positions.
        let position = |fraction: f64| (fraction * 1e6) as usize;
        let unit_of = |(task, part): (&Task, &Part)| Unit {
            query_index: part.parent,
            slice: (position(part.lo)..position(part.hi)).into(),
            cells: task.p_cpu * 1e4,
            joins: None,
        };
        let units = tasks.iter().zip(&parts).map(unit_of).collect();
        let n = workers.len();
        let mut state = MasterState::new(
            tasks,
            units,
            workers.iter().map(|w| w.is_gpu).collect(),
            workers.iter().map(registered).collect(),
            Backend::Scalar,
            &config,
        );
        // Virtual workers are as fast in every build: the optimised
        // prior, so a schedule replays alike wherever it is run.
        state.secs_per_cell = 1.0 / crate::estimator::COLD_HOST_CELLS_PER_SEC;
        Sim {
            state,
            schedule,
            parts,
            obs,
            gone: workers
                .iter()
                .map(|w| matches!(w.fate, Fate::NeverRegistered | Fate::DeadAtSend))
                .collect(),
            workers,
            busy: vec![Vec::new(); n],
            picked_up: vec![0; n],
            shared: VecDeque::new(),
            runs_formed: 0,
            dispatches: Vec::new(),
            lends: Vec::new(),
            owners: HashMap::new(),
            answers: None,
            heap: BinaryHeap::new(),
            rng: TestRng::seed_from_u64(seed),
            now: 0.0,
            tick: (FLOOR / 8).as_secs_f64(),
            step_cost: 0.0,
            steps: 0,
            last_seq: None,
            journal_cursor: 0,
            duplicates_delivered: 0,
            death_at: vec![None; n],
        }
    }

    /// Offer every task to runs, its slice's own stream filling
    /// `slice_fill`: 0 lets any two tasks on one slice that fit the
    /// backend's bound form a run, above 1 none. Query lengths of 10–259
    /// residues are made up per query.
    fn with_runs(mut self, slice_fill: f64) -> Sim {
        for (unit, part) in self.state.units.iter_mut().zip(&self.parts) {
            unit.joins = Some(Joins {
                query_len: 10 + part.parent * 37 % 250,
                slice_fill,
            });
        }
        self
    }

    /// Answer each loan after a random 0–5 ms, drawn from `seed`.
    fn answering(mut self, seed: u64) -> Sim {
        self.answers = Some(TestRng::seed_from_u64(seed));
        self
    }

    /// Dispatch the initial plan.
    fn start(&mut self) -> Verdict {
        let actions = self.state.start(self.schedule.as_ref(), self.now);
        self.check_lends(&actions);
        let verdict = self.perform(actions);
        self.check_invariants(None, &verdict);
        verdict
    }

    /// Run from `verdict` (as left by `start` or `advance`) to the end.
    fn finish(&mut self, mut verdict: Verdict) -> Result<(), SearchError> {
        loop {
            if let Some(verdict) = verdict {
                return verdict;
            }
            verdict = self.advance();
        }
    }

    fn run(&mut self) -> Result<(), SearchError> {
        let verdict = self.start();
        self.finish(verdict)
    }

    /// One turn of the shell's loop on the virtual clock.
    fn advance(&mut self) -> Verdict {
        self.steps += 1;
        assert!(self.steps < 50_000, "the run does not terminate");
        let until_deadline = (self.state.next_deadline() - self.now).max(0.0);
        let wake = self.now + self.tick.min(until_deadline);
        if self.gone.iter().all(|&g| g) {
            // The channel has disconnected: an answered loan in it says
            // nothing the master can act on.
            self.heap
                .retain(|Reverse(event)| !matches!(event.msg, Input::Helped { .. }));
        }
        let input = match self.heap.pop() {
            Some(Reverse(event)) if event.at <= wake => {
                self.now = self.now.max(event.at);
                event.msg
            }
            // Every worker thread has exited: the channel disconnects.
            None if self.gone.iter().all(|&g| g) => {
                return Some(Err(self.state.all_workers_dead()));
            }
            later => {
                self.heap.extend(later);
                self.now = wake;
                Input::Tick
            }
        };
        let before = self.deliver(&input);
        let actions = self.state.step(input, self.now);
        self.check_lends(&actions);
        let verdict = self.perform(actions);
        self.check_invariants(Some(before), &verdict);
        self.now += self.step_cost;
        verdict
    }

    /// Mirror of the shell's `perform`, against virtual workers.
    fn perform(&mut self, actions: Vec<Action>) -> Verdict {
        let mut pending = VecDeque::from(actions);
        while let Some(action) = pending.pop_front() {
            match action {
                Action::Dispatch { worker, run } => {
                    for job in &run {
                        assert!(
                            self.last_seq.is_none_or(|s| job.dispatch_seq > s),
                            "dispatch seq must strictly increase"
                        );
                        self.last_seq = Some(job.dispatch_seq);
                        assert!(job.decision <= self.state.decision);
                        // A job names what its task stands for.
                        let unit = self.state.units[job.task_id];
                        assert_eq!((job.query_index, job.slice), (unit.query_index, unit.slice));
                        let lent = self.lends.iter().any(|&(t, ..)| t == job.task_id);
                        assert_eq!(job.lent, lent, "a job says whether its task was lent");
                    }
                    let lineage = run
                        .iter()
                        .map(|j| (j.task_id, j.dispatch_seq, j.decision, j.dispatch_virt));
                    self.dispatches.push((worker, lineage.collect()));
                    let delivered = match worker {
                        Some(w) => {
                            assert!(self.state.alive[w], "dispatch to a dead worker");
                            let tasks: Vec<usize> = run.iter().map(|j| j.task_id).collect();
                            assert_eq!(self.state.in_flight[w], tasks);
                            self.check_run(w, &tasks);
                            !self.gone[w] && {
                                assert!(self.busy[w].is_empty(), "window of one run");
                                self.pick_up(w, run);
                                true
                            }
                        }
                        None => {
                            assert_eq!(run.len(), 1, "the shared queue takes one task a run");
                            self.shared.extend(run);
                            let anyone = self.gone.iter().any(|&g| !g);
                            self.pump_shared();
                            anyone
                        }
                    };
                    if !delivered {
                        let actions = self.state.step(Input::SendFailed(worker), self.now);
                        self.check_lends(&actions);
                        pending.extend(actions);
                    }
                }
                Action::Lend { job, helper } => self.lend(job, helper),
                Action::CloseQueue(w) => {
                    assert!(!self.state.alive[w]);
                    // A real worker finishes its current job, finds its
                    // queue closed and exits.
                    if self.busy[w].is_empty() {
                        self.gone[w] = true;
                    }
                }
                Action::Finish => return Some(Ok(())),
                Action::Abort(e) => return Some(Err(e)),
            }
        }
        None
    }

    /// Check the loans among `actions` against the rule, on the state
    /// the core made them from: one idle live helper each, the last
    /// unlent queued task of the busiest device queue, no task twice.
    fn check_lends(&mut self, actions: &[Action]) {
        let s = &self.state;
        let mut helpers = Vec::new();
        let mut owners = Vec::new();
        for action in actions {
            let Action::Lend { job, helper } = *action else {
                continue;
            };
            let t = job.task_id;
            let owner = (0..s.alive.len())
                .find(|&w| s.queue[w].contains(&t))
                .expect("a loan of a task no queue holds");
            owners.push((t, owner));
            assert!(!s.shared_queue, "a loan from the shared queue");
            assert!(s.alive[helper], "a loan to dead worker {helper}");
            assert!(
                s.in_flight[helper].is_empty() && s.queue[helper].iter().all(|&q| s.done[q]),
                "a loan to busy worker {helper}"
            );
            assert_eq!(s.helping[helper], Some(t));
            assert!(!helpers.contains(&helper), "two loans to worker {helper}");
            helpers.push(helper);
            assert!(
                !self.lends.iter().any(|&(lent, ..)| lent == t),
                "task {t} lent twice"
            );
            assert!(s.is_gpu[owner], "a loan from CPU worker {owner}'s queue");
            assert!(s.alive[owner] && s.queue[owner].contains(&t) && !s.done[t]);
            assert!(
                s.in_flight.iter().all(|run| !run.contains(&t)),
                "an in-flight task lent"
            );
            assert_eq!(
                (job.query_index, job.slice),
                (s.units[t].query_index, s.units[t].slice)
            );
        }
        // The busiest device queue, by what was still unlent before these
        // loans.
        let lent_now: Vec<usize> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Lend { job, .. } => Some(job.task_id),
                _ => None,
            })
            .collect();
        for (k, &t) in lent_now.iter().enumerate() {
            let unlent = |w: usize| -> Vec<usize> {
                let queued = s.queue[w].iter().copied().filter(|&q| !s.done[q]);
                let still = |q: usize| !s.lent[q] || lent_now[k..].contains(&q);
                queued.filter(|&q| still(q)).collect()
            };
            let owed = |w: usize| unlent(w).iter().map(|&q| s.units[q].cells).sum::<f64>();
            let owner = (0..s.alive.len())
                .find(|&w| s.queue[w].contains(&t))
                .unwrap();
            let mut devices = (0..s.alive.len()).filter(|&w| s.is_gpu[w]);
            assert!(devices.all(|w| owed(w) <= owed(owner)));
            assert_eq!(unlent(owner).last(), Some(&t), "not the last of its queue");
        }
        self.owners.extend(owners);
    }

    /// Record a loan, and answer it when the sim answers loans and the
    /// helper's thread is still there.
    fn lend(&mut self, job: Job, helper: usize) {
        let owner = self.owners[&job.task_id];
        self.lends.push((job.task_id, helper, owner));
        if let (Some(answers), false) = (&mut self.answers, self.gone[helper]) {
            let at = self.now + answers.unit_f64() * 5e-3;
            let tie = answers.next_u64();
            let msg = Input::Helped {
                worker: helper,
                wall: at - self.now,
            };
            self.heap.push(Reverse(Event { at, tie, msg }));
        }
    }

    /// Idle live workers drain the shared queue in a shuffled order.
    fn pump_shared(&mut self) {
        let mut idle: Vec<usize> = (0..self.workers.len())
            .filter(|&w| !self.gone[w] && self.busy[w].is_empty())
            .collect();
        while !idle.is_empty() && !self.shared.is_empty() {
            let w = idle.swap_remove(self.rng.next_u64() as usize % idle.len());
            if let Some(job) = self.shared.pop_front() {
                self.pick_up(w, vec![job]);
            }
        }
    }

    /// A run of more than one task goes to a CPU worker, holds tasks
    /// offered to runs on one slice within the backend's residue bound,
    /// and beats its slice's fill.
    fn check_run(&mut self, w: usize, tasks: &[usize]) {
        if tasks.len() < 2 {
            return;
        }
        self.runs_formed += 1;
        assert!(!self.state.is_gpu[w], "a run on GPU worker {w}");
        let units = &self.state.units;
        let head = units[tasks[0]];
        let lens: Vec<usize> = tasks
            .iter()
            .map(|&t| {
                assert_eq!(units[t].slice, head.slice, "a run spans two slices");
                units[t]
                    .joins
                    .expect("every task of a run joins runs")
                    .query_len
            })
            .collect();
        assert!(lens.iter().sum::<usize>() <= Backend::Scalar.run_residues());
        assert!(head.joins.unwrap().slice_fill < 1.0);
    }

    /// Worker `w` takes `run` off its queue, then its tasks in order,
    /// each meeting the worker's fate; it answers each task as it
    /// finishes.
    fn pick_up(&mut self, w: usize, run: Vec<Job>) {
        let worker = self.workers[w];
        let latency = self.rng.unit_f64() * 2e-4;
        let mut at = self.now;
        for job in run {
            let nth = self.picked_up[w];
            self.picked_up[w] += 1;
            let tie = self.rng.next_u64();
            let msg = match worker.fate {
                Fate::Vanish(n) if n == nth => {
                    self.gone[w] = true;
                    return;
                }
                Fate::Crash(n) if n == nth => {
                    self.gone[w] = true;
                    let failure = WorkerFailure {
                        worker_id: w,
                        reason: FailureReason::Crash,
                        in_flight: Some(job.task_id),
                    };
                    let at = at + latency;
                    let msg = Input::Failed(failure);
                    self.heap.push(Reverse(Event { at, tie, msg }));
                    return;
                }
                _ => {
                    self.busy[w].push(job.task_id);
                    let modelled = self.state.estimate(w, job.task_id) * worker.slowdown;
                    let wall = modelled * WALL_PER_MODELLED;
                    at += wall;
                    Input::Completed(JobResult {
                        task_id: job.task_id,
                        worker_id: w,
                        hits: Vec::new(),
                        wall_seconds: wall,
                        modelled_seconds: modelled,
                        cells: 0,
                    })
                }
            };
            let at = at + latency;
            self.heap.push(Reverse(Event { at, tie, msg }));
        }
    }

    /// The worker-side effects of `input` leaving its worker, and what
    /// the invariants need to remember of the state before the step.
    fn deliver(&mut self, input: &Input) -> Snapshot {
        let completes = match input {
            Input::Completed(r) => {
                self.busy[r.worker_id].retain(|&t| t != r.task_id);
                if self.state.done[r.task_id] {
                    self.duplicates_delivered += 1;
                }
                if !self.state.alive[r.worker_id] {
                    self.gone[r.worker_id] = true; // its queue is closed
                }
                Some((r.worker_id, r.task_id))
            }
            _ => None,
        };
        if completes.is_some() && self.state.shared_queue {
            self.pump_shared();
        }
        Snapshot {
            completes,
            alive: self.state.alive.clone(),
            in_flight: self.state.in_flight.clone(),
            deadline: self.state.deadline.clone(),
            decision: self.state.decision,
        }
    }

    /// Everything that must hold between steps. After an abort the
    /// state is whatever the failing transition left, so only live runs
    /// are checked.
    fn check_invariants(&mut self, before: Option<Snapshot>, verdict: &Verdict) {
        if matches!(verdict, Some(Err(_))) {
            return;
        }
        let s = &self.state;
        let (n, workers) = (s.total(), s.alive.len());

        // Every unfinished task is in exactly one place; the dead hold
        // nothing; no task blew its retry budget and lived.
        if !s.shared_queue {
            let mut places = vec![0usize; n];
            for w in 0..workers {
                let held = s.in_flight[w].iter().chain(&s.queue[w]);
                for &t in held {
                    assert!(s.alive[w], "dead worker {w} still holds task {t}");
                    places[t] += 1;
                }
            }
            for (t, &count) in places.iter().enumerate() {
                assert!(
                    s.done[t] || count == 1,
                    "unfinished task {t} is in {count} places"
                );
            }
        }
        assert!(s.retries.iter().all(|&r| r <= s.max_retries + 1));
        assert_eq!(s.completed(), s.done.iter().filter(|&&d| d).count());

        // No silent death outlives its deadline by a step.
        for w in 0..workers {
            assert!(
                s.deadline[w] > self.now,
                "worker {w} is past its deadline {} at {}",
                s.deadline[w],
                self.now
            );
            assert_eq!(
                s.deadline[w].is_finite(),
                s.alive[w] && !s.in_flight[w].is_empty() && !s.shared_queue
            );
        }

        let events = self.obs.events_since(self.journal_cursor);
        self.journal_cursor += events.len();
        let count =
            |is: fn(&EventBody) -> bool| events.iter().filter(|e| is(&e.body)).count() as u64;
        let replanned = count(|b| matches!(b, EventBody::ReoptReplan { .. }));
        let Some(before) = before else { return };

        for w in 0..workers {
            // An in-flight task is never revoked: it leaves only by
            // completing or with its worker.
            for &t in &before.in_flight[w] {
                assert!(
                    s.in_flight[w].contains(&t) || !s.alive[w] || before.completes == Some((w, t)),
                    "task {t} was revoked from live worker {w}"
                );
            }
            if before.alive[w] && !s.alive[w] {
                self.death_at[w] = Some((self.now, before.deadline[w]));
            }
            assert!(before.alive[w] || !s.alive[w], "the dead stay dead");
        }

        // `decision` grows by exactly one per re-plan, and a re-plan
        // needs a trigger: a death, a skew observation or a stall.
        let replans = s.decision - before.decision;
        let triggers = count(|b| matches!(b, EventBody::WorkerDeath { .. }))
            + replanned
            + count(|b| matches!(b, EventBody::StallRedispatch { .. }));
        assert!(
            replans <= triggers,
            "{replans} re-plans, {triggers} triggers"
        );
        if count(|b| matches!(b, EventBody::TaskRedispatch { .. })) + replanned > 0 {
            assert!(replans >= 1, "a re-plan must open a new decision");
        }
        if !s.shared_queue {
            let mut placed: Vec<u64> = events
                .iter()
                .filter(|e| matches!(e.track, Track::Recovered(_)))
                .filter_map(decision_of)
                .collect();
            placed.dedup();
            let expect: Vec<u64> = (before.decision + 1..=s.decision).collect();
            assert_eq!(placed, expect, "one recovered plan per decision");
        }
    }

    /// Checks that hold once the run has reached `verdict`.
    fn check_verdict(&self, verdict: &Result<(), SearchError>) {
        let s = &self.state;
        match *verdict {
            Ok(()) => {
                let mut merged: Vec<usize> = s.results.iter().map(|r| r.task_id).collect();
                merged.sort_unstable();
                let all: Vec<usize> = (0..s.total()).collect();
                assert_eq!(merged, all, "every task merged exactly once");
                // ... and the tasks of a query are its database pass,
                // cut or not, exactly once.
                let mut shares: Vec<&Part> = self.parts.iter().collect();
                shares.sort_by(|a, b| a.parent.cmp(&b.parent).then(a.lo.total_cmp(&b.lo)));
                for query in shares.chunk_by(|a, b| a.parent == b.parent) {
                    assert_eq!(query[0].lo, 0.0);
                    assert_eq!(query[query.len() - 1].hi, 1.0);
                    assert!(query
                        .windows(2)
                        .all(|w| w[0].hi == w[1].lo && w[0].lo < w[0].hi));
                }
                let journaled = swdual_obs::RunModel::from_obs(&self.obs).faults;
                let counted = journaled.get("duplicate_result").copied().unwrap_or(0);
                assert_eq!(counted, self.duplicates_delivered);
            }
            Err(SearchError::AllWorkersDead { completed, total }) => {
                assert_eq!((completed, total), (s.completed(), s.total()));
                assert!(completed < total);
                for w in 0..s.alive.len() {
                    assert!(
                        !s.alive[w] || self.gone[w],
                        "worker {w} is alive and well, yet AllWorkersDead"
                    );
                }
            }
            Err(SearchError::RetriesExhausted { task_id, retries }) => {
                assert_eq!(s.retries[task_id], retries);
                assert!(retries > s.max_retries);
            }
            Err(e) => panic!("the core cannot fail with {e:?}"),
        }
    }

    /// Modelled busy seconds of the busiest worker.
    fn modelled_makespan(&self) -> f64 {
        let mut busy = vec![0.0f64; self.workers.len()];
        for r in &self.state.results {
            busy[r.worker_id] += r.modelled_seconds;
        }
        busy.into_iter().fold(0.0, f64::max)
    }
}

/// The plan decision a journaled span belongs to.
fn decision_of(event: &swdual_obs::Event) -> Option<u64> {
    match event.body {
        EventBody::Placement { decision, .. } => decision,
        _ => None,
    }
}

/// `None` while the run is live.
type Verdict = Option<Result<(), SearchError>>;

/// A dispatch as the core stamped it: the worker (`None`: the shared
/// queue), then each job's task, `dispatch_seq`, `decision` and
/// `dispatch_virt`.
type Dispatched = (Option<usize>, Vec<(usize, u64, u64, f64)>);

struct Snapshot {
    /// `(worker, task)` when the step's input is a completion.
    completes: Option<(usize, usize)>,
    alive: Vec<bool>,
    in_flight: Vec<Vec<usize>>,
    deadline: Vec<f64>,
    decision: u64,
}

/// `n` tasks with query-length-like spread: CPU seconds 2–40, GPU
/// seconds 0.5–4.5 (acceleration grows with length).
fn workload(n: usize, rng: &mut TestRng) -> TaskSet {
    TaskSet::new(
        (0..n)
            .map(|id| {
                let len = 16.0 + rng.unit_f64() * 4000.0;
                Task::new(id, 1.8 + len * 0.01, 0.5 + len * 0.001)
            })
            .collect(),
    )
}

fn policy_of(pick: usize) -> AllocationPolicy {
    match pick % 3 {
        0 => AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
        1 => AllocationPolicy::MultiRound { rounds: 2 },
        _ => AllocationPolicy::SelfScheduling,
    }
}

/// No runs, runs wherever two tasks fit the bound, or none beating
/// their slice's fill.
fn with_runs_of(sim: Sim, pick: usize) -> Sim {
    match pick % 3 {
        0 => sim,
        1 => sim.with_runs(0.0),
        _ => sim.with_runs(1.5),
    }
}

fn reopt_of(enabled: bool) -> ReoptConfig {
    ReoptConfig {
        enabled,
        threshold: 1.2,
        min_remaining: 1,
    }
}

/// A random pool of 1–5 workers with random slowdowns and fates.
fn pool(rng: &mut TestRng, faulty: bool) -> Vec<VirtualWorker> {
    let n = 1 + rng.next_u64() as usize % 5;
    (0..n)
        .map(|_| {
            let is_gpu = rng.next_u64().is_multiple_of(3);
            if !faulty {
                return VirtualWorker {
                    is_gpu,
                    slowdown: 1.0,
                    fate: Fate::Healthy,
                };
            }
            // 20× is slow enough to be (wrongly) timed out and answer
            // late, which is how duplicates arise.
            let slowdown = [1.0, 1.0, 1.0, 2.0, 4.0, 20.0][rng.next_u64() as usize % 6];
            let after = rng.next_u64() as usize % 4;
            let fate = match rng.next_u64() % 10 {
                0 => Fate::Crash(after),
                1 => Fate::Vanish(after),
                2 => Fate::DeadAtSend,
                3 => Fate::NeverRegistered,
                _ => Fate::Healthy,
            };
            VirtualWorker {
                is_gpu,
                slowdown,
                fate,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// Whatever the policy, pool, fault plan and interleaving, the core
    /// keeps its invariants after every step and ends in `Finish` with
    /// every task merged once, or in a truthful typed error.
    #[test]
    fn any_schedule_keeps_the_invariants(
        seed in any::<u64>(),
        n_tasks in 0usize..24,
        policy in 0usize..3,
        reopt in any::<bool>(),
        runs in 0usize..3,
    ) {
        let mut rng = TestRng::seed_from_u64(seed);
        let workers = pool(&mut rng, true);
        prop_assume!(workers.iter().any(|w| w.fate != Fate::NeverRegistered));
        let policy = policy_of(policy);
        let sim = Sim::new(workload(n_tasks, &mut rng), workers, policy, reopt_of(reopt), seed);
        let mut sim = with_runs_of(sim, runs);
        if seed % 2 == 0 {
            sim = sim.answering(seed / 2);
        }
        sim.step_cost = [0.0, 5e-4, 3e-3][rng.next_u64() as usize % 3];
        let verdict = sim.run();
        sim.check_verdict(&verdict);
    }

    /// Loans move nothing: whether each is answered at a random virtual
    /// time or dropped, the core dispatches the same jobs to the same
    /// workers with the same lineage, merges the same modelled seconds
    /// and reaches the same verdict, under any policy, pool, fault plan
    /// and re-optimization.
    #[test]
    fn an_answered_loan_and_a_dropped_one_dispatch_alike(
        seed in any::<u64>(),
        n_tasks in 0usize..24,
        policy in 0usize..3,
        reopt in any::<bool>(),
        runs in 0usize..3,
    ) {
        let sim = |answer: bool| {
            let mut rng = TestRng::seed_from_u64(seed);
            let workers = pool(&mut rng, true);
            let tasks = workload(n_tasks, &mut rng);
            let sim = Sim::new(tasks, workers, policy_of(policy), reopt_of(reopt), seed);
            let sim = with_runs_of(sim, runs);
            if answer { sim.answering(!seed) } else { sim }
        };
        let mut rng = TestRng::seed_from_u64(seed);
        prop_assume!(pool(&mut rng, true).iter().any(|w| w.fate != Fate::NeverRegistered));
        let (mut dropped, mut answered) = (sim(false), sim(true));
        let verdict = dropped.run();
        prop_assert_eq!(answered.run(), verdict);
        prop_assert_eq!(&answered.dispatches, &dropped.dispatches);
        let merged = |sim: &Sim| -> Vec<(usize, usize, f64)> {
            let results = sim.state.results.iter();
            results.map(|r| (r.task_id, r.worker_id, r.modelled_seconds)).collect()
        };
        prop_assert_eq!(merged(&answered), merged(&dropped));
        prop_assert_eq!(answered.modelled_makespan(), dropped.modelled_makespan());
        prop_assert!(answered.lends.len() >= dropped.lends.len());
    }

    /// A calibrated, fault-free pool executes the plan it was given: no
    /// re-plan fires (re-optimization on or off) and the realised
    /// modelled makespan is the planned one, within 2λ.
    #[test]
    fn fault_free_calibrated_pools_never_replan(
        seed in any::<u64>(),
        n_tasks in 1usize..24,
        multi_round in any::<bool>(),
        reopt in any::<bool>(),
        runs in 0usize..3,
    ) {
        let mut rng = TestRng::seed_from_u64(seed);
        let workers = pool(&mut rng, false);
        let tasks = workload(n_tasks, &mut rng);
        let (gpus, n) = (workers.iter().filter(|w| w.is_gpu).count(), workers.len());
        let first = dual_approx_schedule(
            &tasks,
            &PlatformSpec::new(n - gpus, gpus),
            BinarySearchConfig::default(),
        );
        let policy = policy_of(multi_round as usize);
        let sim = Sim::new(tasks, workers, policy, reopt_of(reopt), seed);
        let mut sim = with_runs_of(sim, runs);
        prop_assert_eq!(sim.run(), Ok(()));
        let schedule = sim.schedule.as_ref().unwrap();
        prop_assert_eq!(sim.state.decision, 0);
        prop_assert!(sim.state.alive.iter().all(|&a| a));
        let realised = sim.modelled_makespan();
        prop_assert!(realised <= schedule.makespan() * (1.0 + 1e-12));
        if !multi_round {
            // Cutting the tail never costs the plan anything.
            prop_assert!(schedule.makespan() <= first.schedule.makespan());
            prop_assert!(realised <= 2.0 * first.upper_bound);
        }
    }
}

/// Satellite regression: deadlines used to be examined only after a
/// whole tick without any message, so survivors busy with sub-tick
/// tasks hid a silent death until they ran dry. Here two healthy
/// workers complete 2 ms tasks as fast as a master needing 1.5 ms per
/// message can feed them — its receive never times out — while the
/// third vanishes on its second job.
#[test]
fn a_silent_death_is_noticed_within_a_tick_of_its_deadline() {
    let tasks = TaskSet::new((0..600).map(|id| Task::new(id, 2.0, 2.0)).collect());
    let workers = vec![
        cpu(1.0, Fate::Healthy),
        cpu(1.0, Fate::Healthy),
        cpu(1.0, Fate::Vanish(1)),
    ];
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let mut sim = Sim::new(tasks, workers, policy, ReoptConfig::default(), 7);
    sim.step_cost = 1.5e-3;
    assert_eq!(sim.run(), Ok(()));
    let (died, deadline) = sim.death_at[2].expect("the vanished worker is declared dead");
    assert!(
        died <= deadline + sim.tick,
        "declared dead at {died}, deadline was {deadline}"
    );
    // Long before the survivors ran their own 200-task queues dry,
    // which is when the old quiet-tick check first got a look.
    assert!(
        died < 0.1 && sim.now > 0.4,
        "died {died}, ended {}",
        sim.now
    );
}

/// Satellite regression: a fault re-plan used to spread the orphans
/// uniformly and leave `planned_factor` stale, forgetting what
/// re-optimization had learned. Observe a 4× CPU straggler, then kill
/// another CPU: the straggler's share of the re-planned base seconds
/// must be strictly below the healthy CPU's.
#[test]
fn a_fault_replan_remembers_the_calibration() {
    let tasks = TaskSet::new((0..60).map(|id| Task::new(id, 2.0, 2.0)).collect());
    let workers = vec![
        cpu(1.0, Fate::Healthy),
        cpu(4.0, Fate::Healthy),
        cpu(1.0, Fate::Crash(6)),
    ];
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let mut sim = Sim::new(tasks, workers, policy, ReoptConfig::enabled(), 11);
    let mut verdict = sim.start();
    while verdict.is_none() && sim.state.alive[2] {
        verdict = sim.advance();
    }
    assert!(verdict.is_none() && !sim.state.alive[2]);
    assert_eq!(
        sim.state.planned_factor[1], 4.0,
        "the skew was observed first"
    );
    // Base seconds the death's re-plan placed on worker `w`.
    let replanned = |w: usize| -> f64 {
        let events = sim.obs.events_since(0);
        let last_plan = events.iter().filter(|e| {
            e.track == Track::Recovered(w) && decision_of(e) == Some(sim.state.decision)
        });
        last_plan.map(|e| e.virt_dur.unwrap_or(0.0)).sum::<f64>() / sim.state.planned_factor[w]
    };
    assert!(
        2.0 * replanned(1) < replanned(0),
        "straggler got {} base seconds, healthy CPU {}",
        replanned(1),
        replanned(0)
    );
    assert_eq!(sim.finish(verdict), Ok(()));
}

/// To the fault path a slice is one more task id. Three equal tasks on
/// two CPUs: the plan cuts one and queues the piece cut off (task 3)
/// behind the whole task of the less loaded worker — which crashes
/// picking the piece up. The survivor runs it, and every share of every
/// query is still merged exactly once.
#[test]
fn the_death_of_the_worker_holding_a_slice_redispatches_the_slice() {
    let tasks = || TaskSet::new((0..3).map(|id| Task::new(id, 11.8, 5.0)).collect());
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let healthy = vec![cpu(1.0, Fate::Healthy); 2];
    let planned = Sim::new(tasks(), healthy.clone(), policy, ReoptConfig::default(), 5);
    assert_eq!(planned.state.total(), 4, "one task is cut in two");
    let cut_off = planned.parts[3];
    assert!(cut_off.lo > 0.0 && cut_off.hi == 1.0);
    let schedule = planned.schedule.as_ref().unwrap();
    let holder = schedule
        .placements
        .iter()
        .find(|p| p.task == 3)
        .unwrap()
        .pe
        .index;

    let mut workers = healthy;
    workers[holder].fate = Fate::Crash(1);
    let mut sim = Sim::new(tasks(), workers, policy, ReoptConfig::default(), 5);
    let verdict = sim.run();
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
    assert!(!sim.state.alive[holder]);
    let events = sim.obs.events_since(0);
    let redispatched = |e: &swdual_obs::Event| match e.body {
        EventBody::TaskRedispatch { task, .. } => Some(task),
        _ => None,
    };
    let redispatched: Vec<usize> = events.iter().filter_map(redispatched).collect();
    assert_eq!(redispatched, vec![3], "only the slice lost its worker");
    let slice = sim.state.results.iter().find(|r| r.task_id == 3).unwrap();
    assert_eq!(slice.worker_id, 1 - holder, "the survivor ran the slice");
    // The survivor's realised load: its own share of the plan plus the
    // slice, which costs it what the plan said it would cost the dead.
    let survivor = schedule.pe_finish(swdual_sched::PeId::cpu(1 - holder));
    let expected = survivor + sim.state.estimate(1 - holder, 3);
    assert!((sim.modelled_makespan() - expected).abs() < 1e-9);
}

/// Runs form where the pick takes them, and a death orphans at most one
/// run. Forty short tasks on one slice and two CPUs: each worker's queue
/// goes out in runs. The second worker crashes picking up its third
/// task, inside its first run: the two tasks before it are answered,
/// and exactly what it held — the rest of that run and its queue — is
/// re-dispatched to the survivor.
#[test]
fn a_crash_inside_a_run_orphans_that_run_and_the_queue_behind_it() {
    let tasks = || TaskSet::new((0..40).map(|id| Task::new(id, 1.9, 1.0)).collect());
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let healthy = vec![cpu(1.0, Fate::Healthy); 2];
    let mut sim = Sim::new(tasks(), healthy.clone(), policy, ReoptConfig::default(), 3);
    let mut sim_runs = Sim::new(tasks(), healthy, policy, ReoptConfig::default(), 3).with_runs(0.0);
    assert_eq!(sim.run(), Ok(()));
    assert_eq!(sim_runs.run(), Ok(()));
    assert_eq!(sim.runs_formed, 0, "no task is offered to runs");
    assert!(
        sim_runs.runs_formed >= 2,
        "each worker's queue goes out in runs"
    );
    // Each task is charged its own estimate, run or not.
    assert_eq!(sim_runs.modelled_makespan(), sim.modelled_makespan());

    let workers = vec![cpu(1.0, Fate::Healthy), cpu(1.0, Fate::Crash(2))];
    let mut sim = Sim::new(tasks(), workers, policy, ReoptConfig::default(), 3).with_runs(0.0);
    let mut verdict = sim.start();
    let (first_run, queued) = (sim.state.in_flight[1].clone(), sim.state.queue[1].clone());
    assert!(first_run.len() > 3, "the crash falls inside the first run");
    while verdict.is_none() && sim.state.alive[1] {
        verdict = sim.advance();
    }
    assert!(!sim.state.alive[1]);
    let verdict = sim.finish(verdict);
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
    let redispatched = |e: &swdual_obs::Event| match e.body {
        EventBody::TaskRedispatch { task, .. } => Some(task),
        _ => None,
    };
    let mut redispatched: Vec<usize> = sim
        .obs
        .events_since(0)
        .iter()
        .filter_map(redispatched)
        .collect();
    redispatched.sort_unstable();
    let mut orphans: Vec<usize> = first_run[2..].iter().chain(&queued).copied().collect();
    orphans.sort_unstable();
    assert_eq!(redispatched, orphans);
    for t in &first_run[..2] {
        let answered = sim.state.results.iter().find(|r| r.task_id == *t).unwrap();
        assert_eq!(
            answered.worker_id, 1,
            "task {t} was answered before the crash"
        );
    }
}

/// GPU workers keep one task per job whatever the pick would take.
#[test]
fn gpu_workers_take_one_task_a_run() {
    let tasks = TaskSet::new((0..30).map(|id| Task::new(id, 1.9, 0.6)).collect());
    let pool = vec![gpu(1.0, Fate::Healthy); 2];
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let mut sim = Sim::new(tasks, pool, policy, ReoptConfig::default(), 9).with_runs(0.0);
    assert_eq!(sim.run(), Ok(()));
    assert_eq!(sim.runs_formed, 0);
}

/// An idle worker is lent the busiest device queue's tasks from the
/// back, one loan at a time, each as the last is answered; no task
/// twice. Twelve equal tasks on a device three times slower than planned
/// and a CPU: once the CPU's share is done, it takes the device's queue
/// from the tail.
#[test]
fn an_idle_worker_is_lent_the_busiest_queue_from_its_tail() {
    let tasks = TaskSet::new((0..12).map(|id| Task::new(id, 1.9, 1.0)).collect());
    let workers = vec![gpu(3.0, Fate::Healthy), cpu(1.0, Fate::Healthy)];
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let mut sim = Sim::new(tasks, workers, policy, ReoptConfig::default(), 4).answering(1);
    let queued = |sim: &Sim, w: usize| sim.state.queue[w].iter().copied().collect::<Vec<_>>();
    let mut verdict = sim.start();
    let planned: Vec<usize> = sim.state.in_flight[0]
        .iter()
        .chain(&sim.state.queue[0])
        .copied()
        .collect();
    let (mut tail, mut lends_seen) = (Vec::new(), 0);
    while verdict.is_none() {
        let idle = sim.state.in_flight[1].is_empty() && sim.state.queue[1].is_empty();
        if idle && tail.is_empty() {
            tail = queued(&sim, 0);
        }
        verdict = sim.advance();
        lends_seen = lends_seen.max(sim.lends.len());
    }
    assert_eq!(verdict, Some(Ok(())));
    assert!(
        !tail.is_empty() && lends_seen >= 2,
        "{tail:?}: {:?}",
        sim.lends
    );
    for (k, &(task, helper, owner)) in sim.lends.iter().enumerate() {
        assert_eq!((helper, owner), (1, 0));
        // From the back of the queue the helper first found idle.
        assert_eq!(Some(&task), tail.iter().rev().nth(k), "loan {k}");
    }
    // Whoever computed them, worker 0 answered every task planned for it.
    for t in planned {
        let answered = sim.state.results.iter().find(|r| r.task_id == t).unwrap();
        assert_eq!(answered.worker_id, 0, "task {t}");
    }
}

/// Nothing is lent under self-scheduling, to a worker with work, or to
/// the dead, and nothing from a CPU's queue: `Sim::check_lends` holds on
/// every loan of these pools, and the shared queue and a CPU-only pool
/// make no loan at all.
#[test]
fn nothing_is_lent_to_a_dead_busy_or_shared_queue_worker() {
    let tasks = || TaskSet::new((0..30).map(|id| Task::new(id, 1.9, 0.6)).collect());
    let healthy = Fate::Healthy;
    let shared = AllocationPolicy::SelfScheduling;
    let pool = vec![gpu(4.0, healthy), cpu(1.0, healthy), cpu(1.0, healthy)];
    let mut sim = Sim::new(tasks(), pool, shared, ReoptConfig::default(), 2).answering(3);
    assert_eq!(sim.run(), Ok(()));
    assert!(sim.lends.is_empty(), "the shared queue lends nothing");

    // A CPU straggles four times slower than planned: its peers run dry,
    // but a CPU's queue is never lent.
    let policy = AllocationPolicy::DualApprox(KnapsackMethod::Greedy);
    let pool = vec![cpu(1.0, healthy), cpu(4.0, healthy), cpu(1.0, healthy)];
    let mut sim = Sim::new(tasks(), pool, policy, ReoptConfig::default(), 4).answering(7);
    assert_eq!(sim.run(), Ok(()));
    assert!(sim.lends.is_empty(), "a CPU-only pool lends nothing");

    // Worker 2 dies early and the device straggles: the survivor that
    // runs dry is lent work, the dead one never is.
    let workers = vec![
        cpu(1.0, Fate::Healthy),
        gpu(4.0, Fate::Healthy),
        cpu(1.0, Fate::Crash(1)),
    ];
    let mut sim = Sim::new(tasks(), workers, policy, ReoptConfig::default(), 6).answering(5);
    assert_eq!(sim.run(), Ok(()));
    assert!(!sim.lends.is_empty());
    assert!(sim.lends.iter().all(|&(_, helper, _)| helper != 2));
    let mut lent: Vec<usize> = sim.lends.iter().map(|&(t, ..)| t).collect();
    let n = lent.len();
    lent.sort_unstable();
    lent.dedup();
    assert_eq!(lent.len(), n, "no task lent twice");
}
