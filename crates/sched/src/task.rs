//! The task model of the paper (§III).
//!
//! A task `Tⱼ` is one unit of allocatable work — in SWDUAL, the
//! comparison of one query sequence against the whole database (§II-C).
//! Each task carries **two** processing times: `pⱼ` when executed on a
//! CPU and `p̄ⱼ` when executed on a GPU. The ratio `pⱼ / p̄ⱼ` is the
//! task's *acceleration factor*; the greedy knapsack prioritises tasks
//! by it.

use serde::{Deserialize, Serialize};

/// One schedulable task with heterogeneous processing times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Stable identifier (index into the query set in SWDUAL).
    pub id: usize,
    /// Processing time on a CPU (`pⱼ`), seconds.
    pub p_cpu: f64,
    /// Processing time on a GPU (`p̄ⱼ`), seconds.
    pub p_gpu: f64,
}

impl Task {
    /// Construct a task, validating both times are finite and positive.
    ///
    /// # Panics
    /// Panics on non-finite or non-positive processing times — tasks of
    /// zero length are not schedulable work.
    pub fn new(id: usize, p_cpu: f64, p_gpu: f64) -> Task {
        assert!(
            p_cpu.is_finite() && p_cpu > 0.0,
            "p_cpu must be finite and > 0, got {p_cpu}"
        );
        assert!(
            p_gpu.is_finite() && p_gpu > 0.0,
            "p_gpu must be finite and > 0, got {p_gpu}"
        );
        Task { id, p_cpu, p_gpu }
    }

    /// Acceleration factor `pⱼ / p̄ⱼ` — how many times faster this task
    /// runs on a GPU. Greater than 1 means the GPU accelerates it (the
    /// paper's "special instance" assumes this holds for every task).
    #[inline]
    pub fn acceleration(&self) -> f64 {
        self.p_cpu / self.p_gpu
    }

    /// Smaller of the two processing times — the fastest any single PE
    /// can finish this task; used for lower bounds.
    #[inline]
    pub fn min_time(&self) -> f64 {
        self.p_cpu.min(self.p_gpu)
    }
}

/// An instance of the scheduling problem: the full set of tasks.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Create from a task vector.
    pub fn new(tasks: Vec<Task>) -> TaskSet {
        TaskSet { tasks }
    }

    /// Build from `(p_cpu, p_gpu)` pairs, ids assigned in order.
    pub fn from_times(times: &[(f64, f64)]) -> TaskSet {
        TaskSet {
            tasks: times
                .iter()
                .enumerate()
                .map(|(id, &(c, g))| Task::new(id, c, g))
                .collect(),
        }
    }

    /// Number of tasks `n`.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterate over tasks.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Sum of CPU processing times (the area if everything ran on CPUs).
    pub fn total_cpu_area(&self) -> f64 {
        self.tasks.iter().map(|t| t.p_cpu).sum()
    }

    /// Sum of GPU processing times (the area if everything ran on GPUs).
    pub fn total_gpu_area(&self) -> f64 {
        self.tasks.iter().map(|t| t.p_gpu).sum()
    }

    /// True when every task is accelerated by the GPU (`p̄ⱼ ≤ pⱼ`) —
    /// the paper's "special instance", which holds for sequence
    /// comparison and lowers the 3/2 variant's complexity.
    pub fn all_accelerated(&self) -> bool {
        self.tasks.iter().all(|t| t.p_gpu <= t.p_cpu)
    }

    /// Fetch a task by id (ids are dense indices).
    pub fn get(&self, id: usize) -> Option<&Task> {
        self.tasks.get(id)
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceleration_and_min_time() {
        let t = Task::new(0, 10.0, 2.0);
        assert!((t.acceleration() - 5.0).abs() < 1e-12);
        assert_eq!(t.min_time(), 2.0);
        let slow_gpu = Task::new(1, 1.0, 4.0);
        assert!((slow_gpu.acceleration() - 0.25).abs() < 1e-12);
        assert_eq!(slow_gpu.min_time(), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_cpu_time_panics() {
        let _ = Task::new(0, 0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn nan_gpu_time_panics() {
        let _ = Task::new(0, 1.0, f64::NAN);
    }

    #[test]
    fn areas_and_bounds() {
        let set = TaskSet::from_times(&[(10.0, 2.0), (6.0, 3.0), (4.0, 8.0)]);
        assert_eq!(set.len(), 3);
        assert!((set.total_cpu_area() - 20.0).abs() < 1e-12);
        assert!((set.total_gpu_area() - 13.0).abs() < 1e-12);
        assert!(!set.all_accelerated());
    }

    #[test]
    fn all_accelerated_detection() {
        let set = TaskSet::from_times(&[(10.0, 2.0), (6.0, 6.0)]);
        assert!(set.all_accelerated());
    }

    #[test]
    fn empty_set_behaviour() {
        let set = TaskSet::default();
        assert!(set.is_empty());
        assert_eq!(set.total_cpu_area(), 0.0);
        assert!(set.all_accelerated());
    }
}
