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

/// A task sent from master to a worker: compare query `query_index`
/// against the whole database.
///
/// Carries its causal lineage: which plan decision placed it, when the
/// master handed it over (both clocks), and a global dispatch sequence
/// number. Workers echo these onto their execution spans so the
/// journal's dispatch → queue-wait → exec chain is reconstructible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Task id (equals the query index in SWDUAL).
    pub task_id: usize,
    /// Query to compare.
    pub query_index: usize,
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
}

impl Job {
    /// A job with empty lineage (decision 0, dispatched at time zero) —
    /// the form tests and self-contained drivers use.
    pub fn new(task_id: usize, query_index: usize) -> Self {
        Job {
            task_id,
            query_index,
            dispatch_seq: 0,
            decision: 0,
            dispatch_wall: 0.0,
            dispatch_virt: 0.0,
        }
    }
}

/// A completed task reported back to the master.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Task id of the finished job.
    pub task_id: usize,
    /// Worker that executed it.
    pub worker_id: usize,
    /// Scores against every database sequence, in database order.
    pub scores: Vec<i32>,
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
}

/// Per-worker accounting the master reports at the end of a search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id (registration order).
    pub worker_id: usize,
    /// Human-readable description ("CPU(striped)", "GPU(Tesla ...)").
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

/// Reduce a full score vector to the top-`k` hits in one pass: at most
/// `2k` candidates are held, cut back to the best `k` by selection
/// whenever they fill up, and only the final `k` are sorted.
pub fn top_k_hits(query_index: usize, scores: &[i32], k: usize) -> QueryHits {
    let room = k.saturating_mul(2);
    let mut hits: Vec<Hit> = Vec::with_capacity(room.min(scores.len()));
    let keep_best = |hits: &mut Vec<Hit>| {
        if (1..hits.len()).contains(&k) {
            hits.select_nth_unstable_by(k - 1, by_rank);
        }
        hits.truncate(k);
    };
    // Once `k` hits are held, the score a later one must beat: the scan
    // is in database order, so an equal score ranks after all of them.
    let mut floor = None;
    for (db_index, &score) in scores.iter().enumerate() {
        if floor.is_some_and(|floor| score <= floor) {
            continue;
        }
        hits.push(Hit { db_index, score });
        if hits.len() >= room {
            keep_best(&mut hits);
            floor = hits.last().map(|worst| worst.score);
        }
    }
    keep_best(&mut hits);
    hits.sort_unstable_by(by_rank);
    QueryHits { query_index, hits }
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

    proptest::proptest! {
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
