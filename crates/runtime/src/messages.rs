//! Message types of the master-slave protocol (paper Figure 6).

use serde::{Deserialize, Serialize};
use swdual_gpusim::memory::MemoryError;
use swdual_gpusim::DeviceFault;

/// One hit in a query's result list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hit {
    /// Index of the database sequence.
    pub db_index: usize,
    /// Local-alignment score.
    pub score: i32,
}

/// Ranked hits of one query against the database.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryHits {
    /// Index of the query in the query set.
    pub query_index: usize,
    /// Hits sorted by descending score (ties by ascending db index),
    /// truncated to the configured `top_k`.
    pub hits: Vec<Hit>,
}

/// A worker's registration message — the paper's Figure 6 "Register
/// with master" step. The master builds its task-time estimates from
/// the rate models the workers *declare*, not from static assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// Worker id assigned at spawn.
    pub worker_id: usize,
    /// Human-readable engine description.
    pub description: String,
    /// Whether this worker is a GPU.
    pub is_gpu: bool,
    /// Declared throughput model for task-time estimation.
    pub rate_model: crate::estimator::WorkerRateModel,
}

/// A contiguous run of positions of the database's length order
/// (longest subject first): the part of the database one task covers.
/// The whole order for an uncut task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbSlice {
    /// First position covered.
    pub start: usize,
    /// One past the last position covered.
    pub end: usize,
}

impl From<std::ops::Range<usize>> for DbSlice {
    fn from(positions: std::ops::Range<usize>) -> DbSlice {
        DbSlice {
            start: positions.start,
            end: positions.end,
        }
    }
}

impl DbSlice {
    /// The positions as a range, when they are one of an order of
    /// `subjects` positions.
    pub fn checked(self, subjects: usize) -> Option<std::ops::Range<usize>> {
        (self.start <= self.end && self.end <= subjects).then_some(self.start..self.end)
    }
}

/// A task sent from master to a worker: compare query `query_index`
/// against `slice` of the database. A worker receives its jobs in
/// *runs* (`Vec<Job>`): one job, or — on a CPU worker — the next few
/// tasks on one slice that the master's run pick decided to score as
/// one transposed pass.
///
/// Carries its causal lineage: which plan decision placed it, when the
/// master handed it over (both clocks), and a global dispatch sequence
/// number. Workers echo these onto their execution spans so the
/// journal's dispatch → queue-wait → exec chain is reconstructible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Task id (the query index, unless the plan cut the query's task:
    /// then the pieces cut off carry ids past the last query).
    pub task_id: usize,
    /// Query to compare.
    pub query_index: usize,
    /// The subjects to compare it with.
    pub slice: DbSlice,
    /// Global dispatch order (0-based across all workers).
    pub dispatch_seq: u64,
    /// Plan decision that placed this dispatch: 0 is the initial
    /// schedule, each re-plan (re-optimization round or fault
    /// re-dispatch) increments it.
    pub decision: u64,
    /// Master's wall clock at hand-off (seconds since the Obs epoch).
    pub dispatch_wall: f64,
    /// Worker's modelled clock at hand-off (the virtual time the
    /// master has seen the worker complete so far).
    pub dispatch_virt: f64,
    /// The task was lent to an idle worker: its scores may wait in the
    /// search's claim table.
    pub lent: bool,
}

impl Job {
    /// A job with empty lineage (decision 0, dispatched at time zero) —
    /// the form tests and self-contained drivers use.
    pub fn new(task_id: usize, query_index: usize, slice: DbSlice) -> Self {
        Job {
            task_id,
            query_index,
            slice,
            dispatch_seq: 0,
            decision: 0,
            dispatch_wall: 0.0,
            dispatch_virt: 0.0,
            lent: false,
        }
    }
}

/// What the master sends a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Order {
    /// Score a run of the worker's own tasks and answer each.
    Run(Vec<Job>),
    /// Score another worker's queued task into the claim table, and say
    /// when done. The job carries no lineage: it is not dispatched.
    Help(Job),
}

/// A completed task reported back to the master.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Task id of the finished job.
    pub task_id: usize,
    /// Worker that executed it.
    pub worker_id: usize,
    /// The best `top_k` hits among the subjects of the job's slice,
    /// ranked.
    pub hits: Vec<Hit>,
    /// Real seconds the worker spent computing.
    pub wall_seconds: f64,
    /// Modelled seconds (virtual device time for GPU workers, modelled
    /// kernel time for CPU workers).
    pub modelled_seconds: f64,
    /// DP cells computed.
    pub cells: u64,
}

/// Why a worker stopped serving jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The worker process died (injected crash with notification).
    Crash,
    /// The worker's GPU device failed after this many kernel launches.
    DeviceFault {
        /// Kernels the device completed before failing.
        after_kernels: u64,
    },
    /// The worker's GPU device cannot hold the database even in chunks
    /// (one sequence is larger than a chunk of device memory).
    DeviceMemory(MemoryError),
    /// The worker was handed a job that names a query or a database
    /// slice it does not have.
    InvalidJob,
}

impl From<DeviceFault> for FailureReason {
    fn from(fault: DeviceFault) -> Self {
        FailureReason::DeviceFault {
            after_kernels: fault.after_kernels,
        }
    }
}

impl From<MemoryError> for FailureReason {
    fn from(error: MemoryError) -> Self {
        FailureReason::DeviceMemory(error)
    }
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::Crash => write!(f, "crash"),
            FailureReason::DeviceFault { after_kernels } => {
                write!(f, "device fault after {after_kernels} kernel(s)")
            }
            FailureReason::DeviceMemory(error) => write!(f, "{error}"),
            FailureReason::InvalidJob => write!(f, "job names a query or slice out of range"),
        }
    }
}

/// A worker's explicit death notification: the clean-exit path of the
/// fault model. Silent deaths send nothing and are detected by the
/// master's per-worker deadlines instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The dying worker.
    pub worker_id: usize,
    /// Why it died.
    pub reason: FailureReason,
    /// The task it was holding when it died, if any — the master
    /// re-dispatches this (and, for static policies, everything else
    /// still queued on the worker).
    pub in_flight: Option<usize>,
}

/// What flows from workers back to the master.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// A finished task.
    Completed(JobResult),
    /// The worker is dead; its in-flight task needs a new home.
    Failed(WorkerFailure),
    /// The worker is done with the task it was lent.
    Helped {
        /// The helper.
        worker_id: usize,
        /// Seconds it spent computing the task (0 when the task's owner
        /// had taken it back first).
        wall_seconds: f64,
    },
}

/// Per-worker accounting the master reports at the end of a search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id (registration order).
    pub worker_id: usize,
    /// Human-readable description ("CPU", "GPU(Tesla ...)").
    pub description: String,
    /// Tasks executed.
    pub tasks: usize,
    /// Real busy seconds.
    pub busy_wall: f64,
    /// Modelled busy seconds.
    pub busy_modelled: f64,
    /// DP cells computed.
    pub cells: u64,
}

impl WorkerStats {
    /// Modelled GCUPS of this worker over its busy time.
    pub fn modelled_gcups(&self) -> f64 {
        if self.busy_modelled <= 0.0 {
            0.0
        } else {
            self.cells as f64 / self.busy_modelled / 1e9
        }
    }
}

/// Rank order of hits: descending score, ties by ascending db index.
/// Total over distinct db indices, so any selection by it is unique.
fn by_rank(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index))
}

/// The best `k` of `candidates` (distinct db indices, in any order),
/// ranked, in one pass: at most `2k` are held, cut back to the best `k`
/// by selection whenever they fill up, and only the final `k` are
/// sorted. Workers reduce a slice's scores with it and the master folds
/// the slices of one query with it; the best `k` of a union are among
/// the best `k` of its parts, so both give the hits of the whole.
pub fn top_k(candidates: impl IntoIterator<Item = Hit>, k: usize) -> Vec<Hit> {
    let candidates = candidates.into_iter();
    let room = k.saturating_mul(2);
    let mut hits: Vec<Hit> = Vec::with_capacity(room.min(candidates.size_hint().0));
    let keep_best = |hits: &mut Vec<Hit>| {
        if (1..hits.len()).contains(&k) {
            hits.select_nth_unstable_by(k - 1, by_rank);
        }
        hits.truncate(k);
    };
    // Once `k` hits are held, the worst of them: a later candidate must
    // rank before it to matter.
    let mut floor: Option<Hit> = None;
    for hit in candidates {
        if floor.is_some_and(|floor| by_rank(&hit, &floor).is_ge()) {
            continue;
        }
        hits.push(hit);
        if hits.len() >= room {
            keep_best(&mut hits);
            floor = hits.last().copied();
        }
    }
    keep_best(&mut hits);
    hits.sort_unstable_by(by_rank);
    hits
}

/// Reduce a full score vector, in database order, to the top-`k` hits.
pub fn top_k_hits(query_index: usize, scores: &[i32], k: usize) -> QueryHits {
    let candidates = scores.iter().enumerate();
    let candidates = candidates.map(|(db_index, &score)| Hit { db_index, score });
    QueryHits {
        query_index,
        hits: top_k(candidates, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_sorts_and_truncates() {
        let scores = vec![5, 9, 1, 9, 3];
        let h = top_k_hits(7, &scores, 3);
        assert_eq!(h.query_index, 7);
        assert_eq!(h.hits.len(), 3);
        // Ties (9 at indices 1 and 3) break by db index.
        assert_eq!(
            h.hits[0],
            Hit {
                db_index: 1,
                score: 9
            }
        );
        assert_eq!(
            h.hits[1],
            Hit {
                db_index: 3,
                score: 9
            }
        );
        assert_eq!(
            h.hits[2],
            Hit {
                db_index: 0,
                score: 5
            }
        );
    }

    #[test]
    fn top_k_larger_than_list() {
        let h = top_k_hits(0, &[1, 2], 10);
        assert_eq!(h.hits.len(), 2);
        assert_eq!(h.hits[0].score, 2);
    }

    #[test]
    fn top_k_zero_keeps_nothing() {
        let h = top_k_hits(2, &[9, 3, 7], 0);
        assert_eq!(h.query_index, 2);
        assert!(h.hits.is_empty());
    }

    #[test]
    fn top_k_of_empty_scores_is_empty() {
        let h = top_k_hits(0, &[], 5);
        assert!(h.hits.is_empty());
    }

    #[test]
    fn ties_at_the_cutoff_keep_lowest_db_indices() {
        // Four sequences tie at score 5; k=2 must keep the two with the
        // lowest db indices, deterministically.
        let scores = vec![5, 5, 5, 5];
        let h = top_k_hits(0, &scores, 2);
        assert_eq!(
            h.hits,
            vec![
                Hit {
                    db_index: 0,
                    score: 5
                },
                Hit {
                    db_index: 1,
                    score: 5
                },
            ]
        );
        // And the selection is stable across repeated reductions.
        assert_eq!(top_k_hits(0, &scores, 2), h);
    }

    fn hit(db_index: usize, score: i32) -> Hit {
        Hit { db_index, score }
    }

    #[test]
    fn a_tie_visited_out_of_index_order_still_breaks_by_index() {
        // A length-ordered slice visits db indices in any order. Once
        // k = 1 hits are held (two candidates fill the room), the floor
        // is (7, 5); (2, 5) ties on score, arrives later and outranks it.
        // The parent's early-out dropped every later equal score.
        let visited = [hit(7, 5), hit(9, 1), hit(2, 5), hit(4, 5)];
        assert_eq!(top_k(visited, 1), vec![hit(2, 5)]);
        assert_eq!(top_k(visited, 2), vec![hit(2, 5), hit(4, 5)]);
    }

    #[test]
    fn a_tie_straddling_a_slice_boundary_merges_like_the_whole() {
        // Indices 0..6 all tie but one; the length order visits
        // 3, 5, 0 in the first slice and 4, 1, 2 in the second.
        let first = [hit(3, 8), hit(5, 8), hit(0, 8)];
        let second = [hit(4, 8), hit(1, 9), hit(2, 8)];
        let whole = top_k(first.into_iter().chain(second), 3);
        assert_eq!(whole, vec![hit(1, 9), hit(0, 8), hit(2, 8)]);
        for k in 0..7 {
            let merged = top_k(top_k(first, k).into_iter().chain(top_k(second, k)), k);
            assert_eq!(merged, top_k(first.into_iter().chain(second), k), "k={k}");
        }
    }

    #[test]
    fn a_slice_is_a_range_of_the_order_or_nothing() {
        assert_eq!(DbSlice { start: 2, end: 5 }.checked(5), Some(2..5));
        assert_eq!(DbSlice { start: 0, end: 0 }.checked(0), Some(0..0));
        assert_eq!(DbSlice { start: 2, end: 6 }.checked(5), None);
        assert_eq!(DbSlice { start: 4, end: 3 }.checked(5), None);
    }

    proptest::proptest! {
        #[test]
        fn selection_agrees_with_a_full_sort_in_any_visiting_order(
            // Few distinct scores, so ties straddle every cut-off.
            scores in proptest::prop::collection::vec(-2i32..3, 0..60),
            rotate in 0usize..60,
            reverse in proptest::prelude::any::<bool>(),
        ) {
            let mut visited: Vec<Hit> = scores
                .iter()
                .enumerate()
                .map(|(db_index, &score)| Hit { db_index, score })
                .collect();
            let mut sorted = visited.clone();
            sorted.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
            visited.rotate_left(rotate % scores.len().max(1));
            if reverse {
                visited.reverse();
            }
            for k in [0, 1, 2, scores.len() / 2, scores.len() + 3] {
                proptest::prop_assert_eq!(
                    &top_k(visited.iter().copied(), k)[..],
                    &sorted[..k.min(scores.len())],
                    "k={}", k
                );
            }
        }

        #[test]
        fn selection_agrees_with_a_full_sort(
            // Few distinct scores, so ties straddle every cut-off.
            scores in proptest::prop::collection::vec(-2i32..3, 0..60),
        ) {
            let n = scores.len();
            let mut sorted: Vec<Hit> = scores
                .iter()
                .enumerate()
                .map(|(db_index, &score)| Hit { db_index, score })
                .collect();
            sorted.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
            for k in [0, 1, n.saturating_sub(1), n, n + 3] {
                proptest::prop_assert_eq!(
                    &top_k_hits(0, &scores, k).hits[..],
                    &sorted[..k.min(n)],
                    "n={} k={}", n, k
                );
            }
        }
    }

    #[test]
    fn all_negative_scores_still_rank() {
        let scores = vec![-7, -2, -9, -2];
        let h = top_k_hits(1, &scores, 3);
        let ranked: Vec<(usize, i32)> = h.hits.iter().map(|h| (h.db_index, h.score)).collect();
        assert_eq!(ranked, vec![(1, -2), (3, -2), (0, -7)]);
    }

    #[test]
    fn stats_and_hits_roundtrip_through_json() {
        let stats = WorkerStats {
            worker_id: 2,
            description: "GPU(Tesla C2050)".into(),
            tasks: 7,
            busy_wall: 0.25,
            busy_modelled: 1.5,
            cells: 123_456,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: WorkerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);

        let hits = QueryHits {
            query_index: 4,
            hits: vec![
                Hit {
                    db_index: 9,
                    score: 42,
                },
                Hit {
                    db_index: 1,
                    score: 7,
                },
            ],
        };
        let json = serde_json::to_string(&hits).unwrap();
        let back: QueryHits = serde_json::from_str(&json).unwrap();
        assert_eq!(back, hits);
    }

    #[test]
    fn worker_stats_gcups() {
        let s = WorkerStats {
            worker_id: 0,
            description: "x".into(),
            tasks: 1,
            busy_wall: 1.0,
            busy_modelled: 2.0,
            cells: 4_000_000_000,
        };
        assert!((s.modelled_gcups() - 2.0).abs() < 1e-12);
    }
}
