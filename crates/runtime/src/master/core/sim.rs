//! Deterministic simulation of the master and its workers: no threads,
//! a virtual clock, and a seeded event heap whose ties are shuffled.
//!
//! The master core meets the real workers: each simulated worker is a
//! [`WorkerCore`] scoring a tiny real database ([`database`]), so every
//! run's hits are checked against Gotoh, and lent tasks settle through
//! the search's real [`Claims`]. A worker's fault is the [`WorkerFault`]
//! its core honours; only a thread gone before the first send reaches
//! it ([`Member::dead_at_send`]) belongs to the sim's transport.
//!
//! The core prices and plans the run itself, as under the shell: each
//! member declares what its core charges for a task — a CPU the rate
//! model its spec declares, a device the timing model of the sim's
//! [`device`], whose kernel time is linear in the residues it covers —
//! and any record boundary may cut the database, so a task may be a
//! slice of a query's database pass: to the core, just another id. A worker's core executes
//! an order at once, and its answer — one message per run, as the
//! thread shell sends it — reaches the master after the virtual wall
//! time the run's modelled seconds take (`WALL_PER_MODELLED`), a
//! straggler's delay included. Tasks may be offered to runs
//! ([`Sim::with_runs`]). Every loan the core makes is checked and, with
//! [`Sim::answering`], reaches its helper's core at a random virtual
//! time drawn from a stream of its own: the helper scores the task into
//! the claim table, or finds its owner kept it. An owner's answers are
//! paced by its modelled clock whoever scored its task, so a loan
//! answered and a loan dropped must leave the rest of the core's actions
//! alike. [`Sim::advance`] mirrors the shell's loop — wait for the next
//! worker message, but no longer than one tick nor past the next
//! deadline; `step`; perform the actions, feeding failed sends back —
//! and checks the core's invariants after every step. This is where
//! concurrency bugs in the master and its workers are hunted: thousands
//! of interleavings of completions, notified and silent deaths, device
//! faults, failed sends, loans and deadline ticks run per second, and
//! every failure replays from its seed.

use super::*;
use crate::claims::Claims;
use crate::estimator::WorkerRateModel;
use crate::faults::WorkerFault;
use crate::messages::{top_k, top_k_hits, Hit, Order, WorkerMsg};
use crate::worker::{hello, WorkerContext, WorkerCore, WorkerSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use swdual_align::{gotoh_score, Subjects};
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, ScoringScheme};
use swdual_gpusim::DeviceSpec;
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::knapsack::DpConfig;

/// Virtual wall seconds per modelled second of work.
const WALL_PER_MODELLED: f64 = 1e-3;
/// `min_job_timeout` of every simulated run.
const FLOOR: Duration = Duration::from_millis(60);

/// `lens.len()` protein sequences of the given lengths, their residues
/// drawn from `seed`.
fn sequences(prefix: &str, lens: &[usize], seed: u64) -> SequenceSet {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut set = SequenceSet::new(Alphabet::Protein);
    for (i, &len) in lens.iter().enumerate() {
        let codes = (0..len).map(|_| (rng.next_u64() % 20) as u8).collect();
        let sequence = Sequence::from_codes(format!("{prefix}{i}"), Alphabet::Protein, codes);
        set.push(sequence).unwrap();
    }
    set
}

/// Query `i` of `len` residues: one of three fixed sequences of that
/// length, so its Gotoh scores against [`database_set`] are computed
/// once per process.
fn query(len: usize, i: usize) -> (Sequence, Arc<Vec<i32>>) {
    type Known = HashMap<(usize, usize), (Sequence, Arc<Vec<i32>>)>;
    static KNOWN: OnceLock<std::sync::Mutex<Known>> = OnceLock::new();
    let key = (len, i % 3);
    let mut known = KNOWN.get_or_init(Default::default).lock().unwrap();
    let (query, scores) = known.entry(key).or_insert_with(|| {
        let query = sequences("q", &[len], (len * 3 + key.1) as u64)
            .get(0)
            .unwrap()
            .clone();
        let scheme = ScoringScheme::protein_default();
        let db = database_set().iter();
        let scores = db
            .map(|d| gotoh_score(query.codes(), d.codes(), &scheme))
            .collect();
        (query, Arc::new(scores))
    });
    (query.clone(), Arc::clone(scores))
}

/// The database every simulated search scores: twelve subjects of 3–13
/// residues, 91 in all.
fn database_set() -> &'static SequenceSet {
    static SET: OnceLock<SequenceSet> = OnceLock::new();
    let lens: Vec<usize> = (0..12).map(|i| 3 + i * 5 % 11).collect();
    SET.get_or_init(|| sequences("d", &lens, 0x5EED))
}

/// [`database_set`] as the workers score it.
fn database() -> &'static Subjects<'static> {
    static SUBJECTS: OnceLock<Subjects<'static>> = OnceLock::new();
    SUBJECTS.get_or_init(|| Subjects::from(database_set()))
}

/// The sim's device: one lane a warp, so a kernel's time is linear in
/// the residues it covers; 0.5 s a launch, then about a second per 13
/// query residues against the whole database — against a CPU task's
/// 1.8 s, cheaper for short queries and dearer for long ones.
fn device() -> DeviceSpec {
    DeviceSpec {
        name: "SimGPU".into(),
        sm_count: 1,
        cores_per_sm: 1,
        clock_ghz: 1.0,
        warp_size: 1,
        global_memory: 1 << 20,
        pcie_bytes_per_sec: 1e9,
        kernel_launch_latency: 0.5,
        peak_gcups: 1.2e-6,
        query_half_length: 0.0,
    }
}

/// [`device`]'s timing model as a rate model: bit for bit what its
/// worker charges a task.
fn device_model() -> WorkerRateModel {
    let spec = device();
    WorkerRateModel {
        peak_gcups: spec.peak_gcups,
        half_length: spec.query_half_length,
        per_task_overhead: spec.kernel_launch_latency,
    }
}

/// A simulated worker: the spec its core runs, the fault it honours,
/// and whether its thread is gone before the first send reaches it.
#[derive(Debug, Clone)]
struct Member {
    spec: WorkerSpec,
    fault: Option<WorkerFault>,
    /// Registered, then exited: the first send to it fails.
    dead_at_send: bool,
}

fn cpu(fault: Option<WorkerFault>) -> Member {
    Member {
        spec: WorkerSpec::cpu_default(),
        fault,
        dead_at_send: false,
    }
}

fn gpu(fault: Option<WorkerFault>) -> Member {
    Member {
        spec: WorkerSpec::gpu(device()),
        fault,
        dead_at_send: false,
    }
}

/// Modelled, and so virtual wall, times `factor` times the honest ones.
fn slow(factor: f64) -> Option<WorkerFault> {
    let delay_ms = 0;
    Some(WorkerFault::Straggler { delay_ms, factor })
}

/// Dies on picking up its `n`-th job (0-based) and says so.
fn crash(n: usize) -> Option<WorkerFault> {
    let (after_jobs, notify) = (n, true);
    Some(WorkerFault::Crash { after_jobs, notify })
}

/// Dies on picking up its `n`-th job and says nothing.
fn vanish(n: usize) -> Option<WorkerFault> {
    let (after_jobs, notify) = (n, false);
    Some(WorkerFault::Crash { after_jobs, notify })
}

/// What the heap holds: a worker → master message in flight, or a loan
/// on its way to its helper, sent at `sent`.
enum Post {
    Master(Input),
    Loan { helper: usize, job: Job, sent: f64 },
}

struct Event {
    at: f64,
    tie: u64,
    post: Post,
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
    state: MasterState<'static>,
    queries: Arc<SequenceSet>,
    obs: Obs,
    /// Each worker's core; `None` when it never registered.
    cores: Vec<Option<WorkerCore<'static>>>,
    claims: Claims,
    /// Ground truth: the worker's thread has exited.
    gone: Vec<bool>,
    /// Ground truth: the tasks of its run the worker has not answered.
    busy: Vec<Vec<usize>>,
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
    /// One [`query`] of each of `lens` residues against [`database`], on
    /// `members`; `seed` draws the interleaving.
    fn new(
        lens: &[usize],
        members: Vec<Member>,
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
        let db = database();
        let mut queries = SequenceSet::new(Alphabet::Protein);
        for (i, &len) in lens.iter().enumerate() {
            queries.push(query(len, i).0).unwrap();
        }
        let queries = Arc::new(queries);
        let cores: Vec<Option<WorkerCore>> = (members.iter().enumerate())
            .map(|(worker_id, member)| {
                let ctx = WorkerContext {
                    worker_id,
                    database: db,
                    queries: Arc::clone(&queries),
                    scheme: config.scheme.clone(),
                    top_k: config.top_k,
                    obs: obs.clone(),
                    fault: member.fault,
                };
                hello(&member.spec, &ctx)?;
                Some(WorkerCore::new(member.spec.clone(), ctx))
            })
            .collect();
        let registered = |w: &usize| cores[*w].is_some();
        let n = members.len();
        // What a member registers as: a device declares the timing model
        // its core charges.
        let declared = |m: &Member| match m.spec.is_gpu() {
            true => device_model(),
            false => m.spec.rate_model(),
        };
        let search = Search {
            models: (0..n)
                .map(|w| registered(&w).then(|| declared(&members[w])))
                .collect(),
            is_gpu: members.iter().map(|m| m.spec.is_gpu()).collect(),
            queries: (queries.iter())
                .map(|q| Query {
                    len: q.len(),
                    joins_runs: false,
                })
                .collect(),
            database: db,
            align: 1,
        };
        let mut state = MasterState::new(search, Backend::Scalar, &config).unwrap();
        // The cold-host floor of the optimised build, so a schedule
        // replays alike wherever it is run.
        state.secs_per_cell = 1.0 / crate::estimator::COLD_HOST_CELLS_PER_SEC;
        Sim {
            state,
            queries,
            obs,
            gone: (0..n)
                .map(|w| !registered(&w) || members[w].dead_at_send)
                .collect(),
            cores,
            claims: Claims::default(),
            busy: vec![Vec::new(); n],
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
    /// backend's bound form a run, above 1 none.
    fn with_runs(mut self, slice_fill: f64) -> Sim {
        for unit in &mut self.state.units {
            unit.fill = Some(slice_fill);
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
        let actions = self.state.start(self.now);
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
            // nothing the master can act on, and no helper is left.
            let dropped = |post: &Post| {
                !matches!(post, Post::Master(Input::Helped { .. }) | Post::Loan { .. })
            };
            self.heap.retain(|Reverse(event)| dropped(&event.post));
        }
        let input = loop {
            match self.heap.pop() {
                Some(Reverse(event)) if event.at <= wake => {
                    self.now = self.now.max(event.at);
                    match event.post {
                        Post::Master(input) => break input,
                        Post::Loan { helper, job, sent } => self.help(helper, job, sent),
                    }
                }
                // Every worker thread has exited: the channel disconnects.
                None if self.gone.iter().all(|&g| g) => {
                    return Some(Err(self.state.all_workers_dead()));
                }
                later => {
                    self.heap.extend(later);
                    self.now = wake;
                    break Input::Tick;
                }
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

    /// Mirror of the shell's `perform`, against the workers' cores.
    fn perform(&mut self, actions: Vec<Action>) -> Verdict {
        let mut pending = VecDeque::from(actions);
        while let Some(action) = pending.pop_front() {
            match action {
                Action::Dispatch { worker: w, run } => {
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
                    self.dispatches.push((w, lineage.collect()));
                    assert!(self.state.alive[w], "dispatch to a dead worker");
                    let tasks: Vec<usize> = run.iter().map(|j| j.task_id).collect();
                    assert_eq!(self.state.in_flight[w], tasks);
                    self.check_run(w, &tasks);
                    if self.gone[w] {
                        let actions = self.state.step(Input::SendFailed(w), self.now);
                        self.check_lends(&actions);
                        pending.extend(actions);
                    } else {
                        assert!(self.busy[w].is_empty(), "window of one run");
                        self.hand(w, Order::Run(run));
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

    /// Record a loan and, when the sim answers loans, post it to its
    /// helper, which receives it after a random 0–5 ms.
    fn lend(&mut self, job: Job, helper: usize) {
        let owner = self.owners[&job.task_id];
        self.lends.push((job.task_id, helper, owner));
        if let Some(answers) = &mut self.answers {
            let (at, tie) = (self.now + answers.unit_f64() * 5e-3, answers.next_u64());
            let sent = self.now;
            let post = Post::Loan { helper, job, sent };
            self.heap.push(Reverse(Event { at, tie, post }));
        }
    }

    /// A loan reaches its helper: if its thread is still there, its core
    /// scores the task into the claim table — unless the owner kept it
    /// first — and says it is free again.
    fn help(&mut self, helper: usize, job: Job, sent: f64) {
        if self.gone[helper] {
            return;
        }
        let core = self.cores[helper].as_mut().expect("a helper registered");
        let mut said = Vec::new();
        assert!(core.answer(Order::Help(job), &self.claims, &mut said));
        assert!(matches!(said[..], [WorkerMsg::Helped { worker_id, .. }] if worker_id == helper));
        let answers = self
            .answers
            .as_mut()
            .expect("only an answering sim posts loans");
        let (at, tie) = (self.now, answers.next_u64());
        let post = Post::Master(Input::Helped {
            worker: helper,
            wall: self.now - sent,
        });
        self.heap.push(Reverse(Event { at, tie, post }));
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
                assert!(units[t].fill.is_some(), "every task of a run joins runs");
                units[t].query_len
            })
            .collect();
        assert!(lens.iter().sum::<usize>() <= Backend::Scalar.run_residues());
        assert!(head.fill.unwrap() < 1.0);
    }

    /// Worker `w`'s core executes `order` at once. Its answer reaches
    /// the master at the run's end — after the straggler's delay and the
    /// virtual wall time of the run's modelled seconds — plus a random
    /// latency; a core that dies leaves its thread gone.
    fn hand(&mut self, w: usize, order: Order) {
        let core = self.cores[w].as_mut().expect("a registered worker");
        let mut at = self.now + core.delay(&order).as_secs_f64();
        let mut answers = Vec::new();
        if !core.answer(order, &self.claims, &mut answers) {
            self.gone[w] = true;
        }
        let latency = self.rng.unit_f64() * 2e-4;
        // One channel: the master reads a worker's answers in the order
        // they were sent, even at one virtual time.
        let mut ties: Vec<u64> = answers.iter().map(|_| self.rng.next_u64()).collect();
        ties.sort_unstable();
        for (answer, tie) in answers.into_iter().zip(ties) {
            let msg = match answer {
                WorkerMsg::Completed(mut results) => {
                    assert!(!results.is_empty(), "an empty answer");
                    for r in &mut results {
                        r.wall_seconds = r.modelled_seconds * WALL_PER_MODELLED;
                        at += r.wall_seconds;
                        self.busy[w].push(r.task_id);
                    }
                    Input::Completed(results)
                }
                WorkerMsg::Failed(f) => Input::Failed(f),
                WorkerMsg::Helped { .. } => unreachable!("a run is answered by its results"),
            };
            let (at, post) = (at + latency, Post::Master(msg));
            self.heap.push(Reverse(Event { at, tie, post }));
        }
    }

    /// The worker-side effects of `input` leaving its worker, and what
    /// the invariants need to remember of the state before the step.
    fn deliver(&mut self, input: &Input) -> Snapshot {
        let completes = match input {
            Input::Completed(results) => {
                let w = results[0].worker_id;
                let tasks: Vec<usize> = results.iter().map(|r| r.task_id).collect();
                assert!(results.iter().all(|r| r.worker_id == w), "one worker's run");
                self.busy[w].retain(|t| !tasks.contains(t));
                let duplicates = tasks.iter().filter(|&&t| self.state.done[t]).count();
                self.duplicates_delivered += duplicates;
                if !self.state.alive[w] {
                    self.gone[w] = true; // its queue is closed
                }
                Some((w, tasks))
            }
            _ => None,
        };
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

        // Every unfinished task is in exactly one place, the pool
        // counting as one; the dead hold nothing; no task blew its retry
        // budget and lived.
        let mut places = vec![0usize; n];
        for w in 0..workers {
            let held = s.in_flight[w].iter().chain(&s.queue[w]);
            for &t in held {
                assert!(s.alive[w], "dead worker {w} still holds task {t}");
                places[t] += 1;
            }
        }
        for &t in &s.pool {
            assert!(s.search.is_none(), "task {t} pooled under a plan");
            places[t] += 1;
        }
        for (t, &count) in places.iter().enumerate() {
            assert!(
                s.done[t] || count == 1,
                "unfinished task {t} is in {count} places"
            );
        }
        // No live worker is idle while the pool holds an unfinished task.
        if s.pool.iter().any(|&t| !s.done[t]) {
            for w in (0..workers).filter(|&w| s.alive[w]) {
                assert!(!s.in_flight[w].is_empty(), "worker {w} idles by the pool");
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
                s.alive[w] && !s.in_flight[w].is_empty()
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
                let answered = before
                    .completes
                    .as_ref()
                    .is_some_and(|(v, tasks)| *v == w && tasks.contains(&t));
                assert!(
                    s.in_flight[w].contains(&t) || !s.alive[w] || answered,
                    "task {t} was revoked from live worker {w}"
                );
            }
            if before.alive[w] && !s.alive[w] {
                self.death_at[w] = Some((self.now, before.deadline[w]));
            }
            assert!(before.alive[w] || !s.alive[w], "the dead stay dead");
        }

        // `decision` grows by exactly one per re-plan, and a re-plan
        // needs a trigger: a death or a skew observation.
        let replans = s.decision - before.decision;
        let triggers = count(|b| matches!(b, EventBody::WorkerDeath { .. })) + replanned;
        assert!(
            replans <= triggers,
            "{replans} re-plans, {triggers} triggers"
        );
        if count(|b| matches!(b, EventBody::TaskRedispatch { .. })) + replanned > 0 {
            assert!(replans >= 1, "a re-plan must open a new decision");
        }
        if s.search.is_some() {
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
                let mut shares: Vec<&Part> = s.parts.iter().collect();
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
                // The hits are the fault-free ones: Gotoh's.
                let mut found: Vec<Vec<Hit>> = vec![Vec::new(); self.queries.len()];
                for r in &s.results {
                    found[s.units[r.task_id].query_index].extend(&r.hits);
                }
                let k = RuntimeConfig::default().top_k;
                for (q, (sequence, found)) in self.queries.iter().zip(found).enumerate() {
                    let scores = query(sequence.len(), q).1;
                    assert_eq!(top_k(found, k), top_k_hits(q, &scores, k).hits, "query {q}");
                }
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
        let mut busy = vec![0.0f64; self.cores.len()];
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

/// A dispatch as the core stamped it: the worker, then each job's task,
/// `dispatch_seq`, `decision` and `dispatch_virt`.
type Dispatched = (usize, Vec<(usize, u64, u64, f64)>);

struct Snapshot {
    /// The worker and the tasks it answered when the step's input is a
    /// completion.
    completes: Option<(usize, Vec<usize>)>,
    alive: Vec<bool>,
    in_flight: Vec<Vec<usize>>,
    deadline: Vec<f64>,
    decision: u64,
}

/// `n` query lengths of 4–35 residues: on [`device`], from half a CPU
/// task's price to twice it.
fn workload(n: usize, rng: &mut TestRng) -> Vec<usize> {
    (0..n).map(|_| 4 + rng.next_u64() as usize % 32).collect()
}

fn policy_of(pick: usize) -> AllocationPolicy {
    match pick % 3 {
        0 => AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
        1 => AllocationPolicy::DualApprox(KnapsackMethod::Dp(DpConfig { resolution: 64 })),
        _ => AllocationPolicy::SelfScheduling,
    }
}

fn greedy() -> AllocationPolicy {
    policy_of(0)
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

/// A random pool of 1–5 workers, each healthy, slow or given a fault.
fn pool(rng: &mut TestRng, faulty: bool) -> Vec<Member> {
    let n = 1 + rng.next_u64() as usize % 5;
    (0..n)
        .map(|_| {
            let is_gpu = rng.next_u64().is_multiple_of(3);
            let member = if is_gpu { gpu } else { cpu };
            if !faulty {
                return member(None);
            }
            // 20× is slow enough to be (wrongly) timed out and answer
            // late, which is how duplicates arise.
            let factor = [1.0, 1.0, 1.0, 2.0, 4.0, 20.0][rng.next_u64() as usize % 6];
            let after = rng.next_u64() as usize % 4;
            let fault = match rng.next_u64() % 11 {
                0 => crash(after),
                1 => vanish(after),
                2 => {
                    let mut dead = member(None);
                    dead.dead_at_send = true;
                    return dead;
                }
                3 => Some(WorkerFault::CrashBeforeRegistration),
                4 => Some(WorkerFault::DeviceFault {
                    after_kernels: after as u64,
                }),
                _ if factor > 1.0 => slow(factor),
                _ => None,
            };
            member(fault)
        })
        .collect()
}

/// Whether any member of `pool` registers.
fn registers(pool: &[Member]) -> bool {
    let noreg = Some(WorkerFault::CrashBeforeRegistration);
    pool.iter().any(|m| m.fault != noreg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// Whatever the policy, pool, fault plan and interleaving, the core
    /// keeps its invariants after every step and ends in `Finish` with
    /// every task merged once and Gotoh's hits, or in a truthful typed
    /// error.
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
        prop_assume!(registers(&workers));
        let lens = workload(n_tasks, &mut rng);
        let sim = Sim::new(&lens, workers, policy_of(policy), reopt_of(reopt), seed);
        let mut sim = with_runs_of(sim, runs);
        if seed % 2 == 0 {
            sim = sim.answering(seed / 2);
        }
        sim.step_cost = [0.0, 5e-4, 3e-3][rng.next_u64() as usize % 3];
        let verdict = sim.run();
        sim.check_verdict(&verdict);
    }

    /// Loans move nothing: whether each is scored by its helper and
    /// answered at a random virtual time or dropped, the core dispatches
    /// the same jobs to the same workers with the same lineage, merges
    /// the same modelled seconds and reaches the same verdict, under any
    /// policy, pool, fault plan and re-optimization.
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
            let lens = workload(n_tasks, &mut rng);
            let sim = Sim::new(&lens, workers, policy_of(policy), reopt_of(reopt), seed);
            let sim = with_runs_of(sim, runs);
            if answer { sim.answering(!seed) } else { sim }
        };
        let mut rng = TestRng::seed_from_u64(seed);
        prop_assume!(registers(&pool(&mut rng, true)));
        let (mut dropped, mut answered) = (sim(false), sim(true));
        let verdict = dropped.run();
        prop_assert_eq!(answered.run(), verdict);
        prop_assert_eq!(&answered.dispatches, &dropped.dispatches);
        let merged = |sim: &Sim| -> Vec<(usize, usize, f64, Vec<Hit>)> {
            let results = sim.state.results.iter();
            results.map(|r| (r.task_id, r.worker_id, r.modelled_seconds, r.hits.clone())).collect()
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
        reopt in any::<bool>(),
        runs in 0usize..3,
    ) {
        let mut rng = TestRng::seed_from_u64(seed);
        let workers = pool(&mut rng, false);
        let lens = workload(n_tasks, &mut rng);
        let sim = Sim::new(&lens, workers, greedy(), reopt_of(reopt), seed);
        let mut sim = with_runs_of(sim, runs);
        let schedule = sim.state.initial.clone().unwrap();
        prop_assert_eq!(sim.run(), Ok(()));
        sim.check_verdict(&Ok(()));
        let (searched, lambda) = first_search(&sim);
        prop_assert_eq!(sim.state.decision, 0);
        prop_assert!(sim.state.alive.iter().all(|&a| a));
        let realised = sim.modelled_makespan();
        prop_assert!(realised <= schedule.makespan() * (1.0 + 1e-12));
        // Cutting the tail never costs the plan anything.
        prop_assert!(schedule.makespan() <= searched);
        prop_assert!(realised <= 2.0 * lambda);
    }
}

/// The makespan and λ of the binary search behind the first plan, as
/// journaled.
fn first_search(sim: &Sim) -> (f64, f64) {
    let events = sim.obs.events_since(0);
    let found = events.iter().find_map(|e| match e.body {
        EventBody::BinsearchDone {
            makespan,
            lambda,
            decision: Some(0),
            ..
        } => Some((makespan, lambda.unwrap())),
        _ => None,
    });
    found.expect("the first plan's binary search is journaled")
}

/// The results each worker answered, by worker id.
fn answered(sim: &Sim) -> Vec<usize> {
    let mut tasks = vec![0; sim.cores.len()];
    for r in &sim.state.results {
        tasks[r.worker_id] += 1;
    }
    tasks
}

/// Whether the journal holds an event `is` picks.
fn journaled(sim: &Sim, is: impl Fn(&swdual_obs::Event) -> bool) -> bool {
    sim.obs.events_since(0).iter().any(is)
}

/// Satellite regression: deadlines used to be examined only after a
/// whole tick without any message, so survivors busy with sub-tick
/// tasks hid a silent death until they ran dry. Here two healthy
/// workers complete 1.8 ms tasks about as fast as a master needing
/// 1.5 ms per message can feed them — its receive never times out —
/// while the third vanishes on its second job.
#[test]
fn a_silent_death_is_noticed_within_a_tick_of_its_deadline() {
    let workers = vec![cpu(None), cpu(None), cpu(vanish(1))];
    let mut sim = Sim::new(&[5; 600], workers, greedy(), ReoptConfig::default(), 7);
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

/// Under self-scheduling a worker's silent death is caught by its own
/// deadline too, not once the whole platform falls quiet: one CPU
/// vanishes on its second task while its peer keeps taking 1.8-ms tasks
/// from the pool about as fast as the master can answer them. The hits
/// are the fault-free run's.
#[test]
fn a_self_scheduled_silent_death_is_noticed_within_a_tick_of_its_deadline() {
    let pooled = AllocationPolicy::SelfScheduling;
    let run = |workers: Vec<Member>| {
        let mut sim = Sim::new(&[5; 600], workers, pooled, ReoptConfig::default(), 7);
        sim.step_cost = 1.5e-3;
        assert_eq!(sim.run(), Ok(()));
        sim.check_verdict(&Ok(()));
        sim
    };
    let sim = run(vec![cpu(None), cpu(vanish(1))]);
    let (died, deadline) = sim.death_at[1].expect("the vanished worker is declared dead");
    assert!(
        died <= deadline + sim.tick,
        "declared dead at {died}, deadline was {deadline}"
    );
    assert!(
        died < 0.1 && sim.now > 0.4,
        "died {died}, ended {}",
        sim.now
    );
    let hits = |sim: &Sim| {
        let mut hits: Vec<(usize, Vec<Hit>)> = (sim.state.results.iter())
            .map(|r| (r.task_id, r.hits.clone()))
            .collect();
        hits.sort_by_key(|&(t, _)| t);
        hits
    };
    assert_eq!(hits(&sim), hits(&run(vec![cpu(None), cpu(None)])));
}

/// A self-scheduled job waits for nothing on the modelled clock: each is
/// stamped with its worker's modelled clock, as under a plan, so every
/// job's modelled queue wait — and each worker's total in `explain` — is
/// 0, and every worker takes a task.
#[test]
fn self_scheduled_jobs_wait_for_nothing_on_the_modelled_clock() {
    let mut rng = TestRng::seed_from_u64(9);
    let lens = workload(24, &mut rng);
    let workers = vec![cpu(None), gpu(None), cpu(None)];
    let pooled = AllocationPolicy::SelfScheduling;
    let mut sim = Sim::new(&lens, workers, pooled, ReoptConfig::default(), 9);
    assert_eq!(sim.run(), Ok(()));
    sim.check_verdict(&Ok(()));
    assert!(
        answered(&sim).iter().all(|&n| n > 0),
        "{:?}",
        answered(&sim)
    );
    let events = sim.obs.events_since(0);
    let waits = events.iter().filter_map(|e| match e.body {
        EventBody::Job {
            queue_wait_modelled,
            ..
        } => Some(queue_wait_modelled),
        _ => None,
    });
    let waits: Vec<Option<f64>> = waits.collect();
    assert_eq!(waits.len(), 24);
    assert!(waits.iter().all(|&w| w == Some(0.0)), "{waits:?}");
    let report = swdual_obs::explain::explain(&swdual_obs::RunModel::from_obs(&sim.obs));
    for worker in &report.workers {
        assert_eq!(worker.queue_wait_modelled, 0.0, "worker {}", worker.worker);
    }
}

/// Satellite regression: a fault re-plan used to spread the orphans
/// uniformly and leave `planned_factor` stale, forgetting what
/// re-optimization had learned. Observe a 4× CPU straggler, then kill
/// another CPU: the straggler's share of the re-planned base seconds
/// must be strictly below the healthy CPU's.
#[test]
fn a_fault_replan_remembers_the_calibration() {
    let workers = vec![cpu(None), cpu(slow(4.0)), cpu(crash(6))];
    let mut sim = Sim::new(&[5; 60], workers, greedy(), ReoptConfig::enabled(), 11);
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
    // The re-plan starts each survivor where its modelled clock stands,
    // its run in flight included, not at zero.
    for w in [0, 1] {
        let events = sim.obs.events_since(0);
        let last_plan = events.iter().filter(|e| {
            e.track == Track::Recovered(w) && decision_of(e) == Some(sim.state.decision)
        });
        let first = last_plan
            .filter_map(|e| e.virt_start)
            .fold(f64::INFINITY, f64::min);
        let in_flight = sim.state.in_flight[w]
            .iter()
            .map(|&t| sim.state.estimate(w, t));
        let clock = sim.state.virt_done[w] + in_flight.sum::<f64>() * sim.state.planned_factor[w];
        assert!(
            clock > 0.0 && (first - clock).abs() < 1e-9,
            "worker {w}: {first} vs {clock}"
        );
    }
    let verdict = sim.finish(verdict);
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
}

/// To the fault path a slice is one more task id. Three equal tasks on
/// two devices: the plan cuts one and queues the piece cut off (task 3)
/// behind the whole task of the less loaded device — which crashes
/// picking the piece up. The survivor runs it, and every share of every
/// query is still merged exactly once, with Gotoh's hits.
#[test]
fn the_death_of_the_worker_holding_a_slice_redispatches_the_slice() {
    let lens = [40; 3];
    let healthy = vec![gpu(None); 2];
    let planned = Sim::new(&lens, healthy.clone(), greedy(), ReoptConfig::default(), 5);
    assert_eq!(planned.state.total(), 4, "one task is cut in two");
    let cut_off = planned.state.parts[3];
    assert!(cut_off.lo > 0.0 && cut_off.hi == 1.0);
    let schedule = planned.state.initial.as_ref().unwrap();
    let holder = schedule
        .placements
        .iter()
        .find(|p| p.task == 3)
        .unwrap()
        .pe
        .index;

    let mut workers = healthy;
    workers[holder].fault = crash(1);
    let mut sim = Sim::new(&lens, workers, greedy(), ReoptConfig::default(), 5);
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
    let survivor = schedule.pe_finish(swdual_sched::PeId::gpu(1 - holder));
    let expected = survivor + sim.state.estimate(1 - holder, 3);
    assert!((sim.modelled_makespan() - expected).abs() < 1e-9);
}

/// Runs form where the pick takes them, and a death orphans at most one
/// run. Forty short tasks on one slice and two CPUs: each worker's queue
/// goes out in runs. The second worker crashes picking up its `n`-th
/// task, inside its first run: it answers the `n` tasks before it in one
/// message, then its death, and exactly what it held — the rest of that
/// run and its queue — is re-dispatched to the survivor. The hits are
/// the fault-free run's.
#[test]
fn a_crash_inside_a_run_orphans_that_run_and_the_queue_behind_it() {
    let lens = [6; 40];
    let healthy = vec![cpu(None); 2];
    let mut sim = Sim::new(&lens, healthy.clone(), greedy(), ReoptConfig::default(), 3);
    let mut sim_runs = Sim::new(&lens, healthy, greedy(), ReoptConfig::default(), 3).with_runs(0.0);
    assert_eq!(sim.run(), Ok(()));
    assert_eq!(sim_runs.run(), Ok(()));
    sim_runs.check_verdict(&Ok(()));
    assert_eq!(sim.runs_formed, 0, "no task is offered to runs");
    assert!(
        sim_runs.runs_formed >= 2,
        "each worker's queue goes out in runs"
    );
    // Each task is charged its own estimate, run or not.
    assert_eq!(sim_runs.modelled_makespan(), sim.modelled_makespan());
    let hits = |sim: &Sim| {
        let results = sim.state.results.iter();
        let mut hits: Vec<(usize, Vec<Hit>)> =
            results.map(|r| (r.task_id, r.hits.clone())).collect();
        hits.sort_by_key(|&(t, _)| t);
        hits
    };

    for n in [1, 2, 3] {
        let workers = vec![cpu(None), cpu(crash(n))];
        let mut sim = Sim::new(&lens, workers, greedy(), ReoptConfig::default(), 3).with_runs(0.0);
        let mut verdict = sim.start();
        let (first_run, queued) = (sim.state.in_flight[1].clone(), sim.state.queue[1].clone());
        assert!(first_run.len() > n, "the crash falls inside the first run");
        let answer = (vec![first_run[..n].to_vec()], vec![Some(first_run[n])]);
        assert_eq!(posted(&sim, 1), answer, "crash@{n}");
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
        let mut orphans: Vec<usize> = first_run[n..].iter().chain(&queued).copied().collect();
        orphans.sort_unstable();
        assert_eq!(redispatched, orphans, "crash@{n}");
        for t in &first_run[..n] {
            let answered = sim.state.results.iter().find(|r| r.task_id == *t).unwrap();
            assert_eq!(
                answered.worker_id, 1,
                "task {t} was answered before the crash"
            );
        }
        assert_eq!(hits(&sim), hits(&sim_runs), "crash@{n}");
    }
}

/// Worker `w`'s answers waiting in the heap: the tasks of each
/// completion, and each failure's in-flight task.
fn posted(sim: &Sim, w: usize) -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
    let (mut completions, mut failures) = (Vec::new(), Vec::new());
    let mut events: Vec<&Event> = sim.heap.iter().map(|Reverse(e)| e).collect();
    events.sort();
    for event in events {
        match &event.post {
            Post::Master(Input::Completed(results)) if results[0].worker_id == w => {
                completions.push(results.iter().map(|r| r.task_id).collect());
            }
            Post::Master(Input::Failed(f)) if f.worker_id == w => failures.push(f.in_flight),
            _ => {}
        }
    }
    (completions, failures)
}

/// One answer settles a whole run: a CPU worker's run of several tasks
/// comes back as one `Completed`, and that one step dispatches exactly
/// the worker's next run — the head of its queue and the tasks the run
/// pick takes behind it — with a finite deadline while it is in flight.
#[test]
fn one_answer_settles_a_run_and_dispatches_the_next() {
    let workers = vec![cpu(None); 2];
    let mut sim = Sim::new(&[60; 300], workers, greedy(), ReoptConfig::default(), 3).with_runs(0.0);
    assert_eq!(sim.start(), None);
    let run = sim.state.in_flight[0].clone();
    assert!(run.len() > 1, "the first run holds several tasks");
    assert_eq!(posted(&sim, 0), (vec![run.clone()], vec![]));
    // Deliver worker 0's answer, and only that.
    let mut others = Vec::new();
    let input = loop {
        let Reverse(event) = sim.heap.pop().expect("worker 0 answers");
        match event.post {
            Post::Master(Input::Completed(results)) if results[0].worker_id == 0 => {
                sim.now = event.at;
                break Input::Completed(results);
            }
            _ => others.push(Reverse(event)),
        }
    };
    sim.heap.extend(others);
    let queued: Vec<usize> = sim.state.queue[0].iter().copied().collect();
    let before = sim.deliver(&input);
    let actions = sim.state.step(input, sim.now);
    let dispatched: Vec<(usize, Vec<usize>)> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Dispatch { worker, run } => {
                Some((*worker, run.iter().map(|j| j.task_id).collect()))
            }
            _ => None,
        })
        .collect();
    let next = sim.state.in_flight[0].clone();
    assert!(next.len() > 1, "the next run holds several tasks");
    assert_eq!(dispatched, vec![(0, next.clone())]);
    assert_eq!(next[..], queued[..next.len()], "the head of the queue");
    assert!(run.iter().all(|&t| sim.state.done[t]), "the run is merged");
    let deadline = sim.state.deadline[0];
    assert!(deadline.is_finite() && deadline > sim.now);
    let verdict = sim.perform(actions);
    sim.check_invariants(Some(before), &verdict);
    let verdict = sim.finish(verdict);
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
}

/// GPU workers keep one task per job whatever the pick would take.
#[test]
fn gpu_workers_take_one_task_a_run() {
    let pool = vec![gpu(None); 2];
    let mut sim = Sim::new(&[6; 30], pool, greedy(), ReoptConfig::default(), 9).with_runs(0.0);
    assert_eq!(sim.run(), Ok(()));
    assert_eq!(sim.runs_formed, 0);
}

/// An idle worker is lent the busiest device queue's tasks from the
/// back, one loan at a time, each as the last is answered; no task
/// twice. Twelve equal tasks on a device three times slower than planned
/// and a CPU: once the CPU's share is done, it takes the device's queue
/// from the tail, and the device takes the CPU's scores from the claim
/// table.
#[test]
fn an_idle_worker_is_lent_the_busiest_queue_from_its_tail() {
    let workers = vec![gpu(slow(3.0)), cpu(None)];
    let policy = greedy();
    let mut sim = Sim::new(&[21; 12], workers, policy, ReoptConfig::default(), 4).answering(1);
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
    sim.check_verdict(&Ok(()));
    assert!(
        !tail.is_empty() && lends_seen >= 2,
        "{tail:?}: {:?}",
        sim.lends
    );
    let helped = |e: &swdual_obs::Event| matches!(e.body, EventBody::Help { .. });
    assert!(journaled(&sim, helped), "the CPU scored a lent task");
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
/// every loan of these pools, and self-scheduling's pool and a CPU-only
/// pool make no loan at all.
#[test]
fn nothing_is_lent_to_a_dead_busy_or_self_scheduled_worker() {
    let lens = [8; 30];
    let pooled = AllocationPolicy::SelfScheduling;
    let pool = vec![gpu(slow(4.0)), cpu(None), cpu(None)];
    let mut sim = Sim::new(&lens, pool, pooled, ReoptConfig::default(), 2).answering(3);
    assert_eq!(sim.run(), Ok(()));
    assert!(sim.lends.is_empty(), "self-scheduling lends nothing");

    // A CPU straggles four times slower than planned: its peers run dry,
    // but a CPU's queue is never lent.
    let pool = vec![cpu(None), cpu(slow(4.0)), cpu(None)];
    let mut sim = Sim::new(&lens, pool, greedy(), ReoptConfig::default(), 4).answering(7);
    assert_eq!(sim.run(), Ok(()));
    assert!(sim.lends.is_empty(), "a CPU-only pool lends nothing");

    // Worker 2 dies early and the device straggles: the survivor that
    // runs dry is lent work, the dead one never is.
    let workers = vec![cpu(None), gpu(slow(4.0)), cpu(crash(1))];
    let mut sim = Sim::new(&lens, workers, greedy(), ReoptConfig::default(), 6).answering(5);
    assert_eq!(sim.run(), Ok(()));
    sim.check_verdict(&Ok(()));
    assert!(!sim.lends.is_empty());
    assert!(sim.lends.iter().all(|&(_, helper, _)| helper != 2));
    let mut lent: Vec<usize> = sim.lends.iter().map(|&(t, ..)| t).collect();
    let n = lent.len();
    lent.sort_unstable();
    lent.dedup();
    assert_eq!(lent.len(), n, "no task lent twice");
}

/// The simulated twin of `master::tests::straggler_is_timed_out_and_work_rerouted`:
/// a CPU that stalls 250 ms before each task is declared dead at its
/// 60-ms deadline, its work re-routed to the other; its late answers
/// are duplicates, and the hits are Gotoh's.
#[test]
fn straggler_is_timed_out_and_work_rerouted() {
    let straggle = Some(WorkerFault::Straggler {
        delay_ms: 250,
        factor: 2.0,
    });
    let workers = vec![cpu(straggle), cpu(None)];
    let mut sim = Sim::new(&[30, 45, 12], workers, greedy(), ReoptConfig::default(), 1);
    let verdict = sim.run();
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
    assert!(journaled(&sim, |e| matches!(
        e.body,
        EventBody::WorkerDeath { worker: 0, reason } if reason == DEATH_TIMEOUT
    )));
    assert_eq!(answered(&sim)[0], 0, "the survivor answered every task");
}

/// The simulated twin of `master::tests::silent_crash_is_detected_by_deadline`.
#[test]
fn silent_crash_is_detected_by_deadline() {
    let workers = vec![cpu(None), cpu(vanish(0))];
    let mut sim = Sim::new(
        &[30, 45, 12, 60],
        workers,
        greedy(),
        ReoptConfig::default(),
        2,
    );
    let verdict = sim.run();
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
    assert_eq!(answered(&sim)[1], 0);
    // The death was found by deadline, not notification.
    assert!(journaled(&sim, |e| matches!(
        e.body,
        EventBody::WorkerDeath { worker: 1, reason } if reason == DEATH_TIMEOUT
    )));
}

/// The simulated twin of
/// `master::tests::gpu_device_fault_mid_run_recovers_with_identical_hits`:
/// the device dies after its first kernel, its orphans are re-planned on
/// the CPU, and the hits are Gotoh's. Death, re-dispatches and the
/// recovery plan are journaled.
#[test]
fn gpu_device_fault_mid_run_recovers_with_identical_hits() {
    let fault = Some(WorkerFault::DeviceFault { after_kernels: 1 });
    let workers = vec![cpu(None), gpu(fault)];
    let mut sim = Sim::new(
        &[8, 10, 6, 12, 9],
        workers,
        greedy(),
        ReoptConfig::default(),
        3,
    );
    let verdict = sim.run();
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
    let total = sim.state.total();
    assert_eq!(
        answered(&sim),
        [total - 1, 1],
        "the device answered its one kernel"
    );
    assert!(journaled(&sim, |e| matches!(
        e.body,
        EventBody::WorkerDeath { worker: 1, .. }
    )));
    assert!(journaled(&sim, |e| matches!(
        e.body,
        EventBody::TaskRedispatch { .. }
    )));
    assert!(journaled(&sim, |e| e.track == Track::Recovered(0)));
}

/// The simulated twin of
/// `master::tests::reopt_improves_modelled_makespan_on_miscalibrated_straggler`,
/// with no wall-clock premise: CPU worker 1 declares itself twice as
/// fast as it is and straggles three times slower than honest.
/// Re-optimization improves the modelled makespan by at least 15 %.
#[test]
fn reopt_improves_modelled_makespan_on_miscalibrated_straggler() {
    let mut bragger = cpu(slow(3.0));
    bragger.spec = bragger.spec.with_prior_scale(2.0);
    let workers = vec![gpu(None), bragger, cpu(None)];
    let lens = [20, 26, 33, 18, 41, 24, 30, 22, 37, 28, 19, 35];
    let makespan = |reopt: ReoptConfig| {
        let mut sim = Sim::new(&lens, workers.clone(), greedy(), reopt, 8);
        let verdict = sim.run();
        assert_eq!(verdict, Ok(()));
        sim.check_verdict(&verdict);
        sim.modelled_makespan()
    };
    let (static_plan, reopt) = (
        makespan(ReoptConfig::default()),
        makespan(ReoptConfig::enabled()),
    );
    let improvement = 1.0 - reopt / static_plan;
    assert!(
        improvement >= 0.15,
        "static {static_plan:.3} s, re-optimized {reopt:.3} s ({:.1} %)",
        improvement * 100.0
    );
}

/// A re-plan cuts too, and a piece it cuts off is a task like any other.
/// Seven long queries on a CPU and two devices: the CPU dies on its first
/// job, and the re-plan of its queue, from the devices' modelled clocks,
/// cuts one orphan (task 6) and queues the piece cut off (task 7, which
/// inherits task 6's retry) on worker 2. Worker 2 dies picking it up;
/// the survivor runs it, and every share of every query is merged once,
/// with Gotoh's hits. The re-plans journal their binary searches under
/// their own decisions, and the 2λ audit still reads the first plan's.
#[test]
fn a_crash_of_the_worker_holding_a_piece_cut_at_a_re_plan_keeps_the_hits() {
    let lens = [35; 7];
    let run = |holder: Option<WorkerFault>| {
        let workers = vec![cpu(crash(0)), gpu(None), gpu(holder)];
        let mut sim = Sim::new(&lens, workers, greedy(), ReoptConfig::default(), 5);
        let verdict = sim.run();
        assert_eq!(verdict, Ok(()));
        sim.check_verdict(&verdict);
        sim
    };
    let cut = run(None);
    assert_eq!(cut.state.total(), 8, "the re-plan cut one orphan in two");
    let (piece, cut_from) = (cut.state.parts[7], cut.state.parts[6]);
    assert_eq!((piece.parent, piece.lo, piece.hi), (6, cut_from.hi, 1.0));
    let jobs: Vec<(usize, u64)> = (cut.dispatches.iter())
        .filter(|(w, _)| *w == 2)
        .flat_map(|(_, run)| run.iter().map(|&(task, _, decision, _)| (task, decision)))
        .collect();
    assert_eq!(jobs.last(), Some(&(7, 1)), "worker 2 runs the piece last");

    let sim = run(crash(jobs.len() - 1));
    assert!(!sim.state.alive[2]);
    assert_eq!(
        sim.state.retries[7], 2,
        "the piece inherits its parent's retry"
    );
    let answered = sim.state.results.iter().find(|r| r.task_id == 7).unwrap();
    assert_eq!(answered.worker_id, 1, "the survivor ran the piece");
    let decisions: Vec<Option<u64>> = (sim.obs.events_since(0).iter())
        .filter_map(|e| match e.body {
            EventBody::BinsearchDone { decision, .. } => Some(decision),
            _ => None,
        })
        .collect();
    assert_eq!(decisions, [Some(0), Some(1), Some(2)]);
    let model = swdual_obs::RunModel::from_obs(&sim.obs);
    assert_eq!(model.lambda, first_search(&sim).1);
}

/// Each worker is priced at the model it declared, against its species'
/// fastest: CPU worker 1 declares itself twice as fast as it is, and only
/// it pays for the lie. The honest CPU (worker 2) realises exactly what
/// the static plan gave it; the bragger realises twice its share.
#[test]
fn a_bragging_cpu_prices_only_itself() {
    let mut bragger = cpu(None);
    bragger.spec = bragger.spec.with_prior_scale(2.0);
    let workers = vec![gpu(None), bragger, cpu(None)];
    let lens = [20, 26, 33, 18, 41, 24, 30, 22, 37, 28, 19, 35];
    let mut sim = Sim::new(&lens, workers, greedy(), ReoptConfig::default(), 8);
    assert_eq!(
        sim.state.price[1], 1.0,
        "the bragger is the CPUs' reference"
    );
    assert!((sim.state.price[2] - 2.0).abs() < 1e-9);
    let schedule = sim.state.initial.clone().unwrap();
    let verdict = sim.run();
    assert_eq!(verdict, Ok(()));
    sim.check_verdict(&verdict);
    let mut busy = [0.0f64; 3];
    for r in &sim.state.results {
        busy[r.worker_id] += r.modelled_seconds;
    }
    let planned = |cpu: usize| schedule.pe_finish(swdual_sched::PeId::cpu(cpu));
    assert!(planned(1) > 0.0 && planned(0) > 0.0);
    assert!(
        (busy[2] - planned(1)).abs() <= 1e-9 * planned(1),
        "{busy:?}"
    );
    assert!(
        (busy[1] - 2.0 * planned(0)).abs() <= 1e-6 * planned(0),
        "{busy:?}"
    );
}
