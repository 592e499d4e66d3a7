//! The minimisation knapsack of §III (Eqs. 5–7) and its DP refinement.
//!
//! Given a guess `λ`, the assignment problem is: minimise the CPU
//! workload `W_C = Σ pⱼ xⱼ` subject to the GPU computational area
//! `Σ p̄ⱼ (1 - xⱼ) ≤ kλ`. Two solvers are provided:
//!
//! * [`greedy_knapsack`] — the paper's greedy: tasks sorted by
//!   decreasing acceleration ratio `pⱼ/p̄ⱼ`, packed onto the GPUs until
//!   the area reaches `kλ` (the final task `j_last` is allowed to
//!   overflow, Figure 4). This is what gives the 2-approximation.
//! * [`dp_knapsack`] — the dynamic-programming variant the paper
//!   attributes to \[13\] for the 3/2-approximation: GPU areas are
//!   discretised onto a grid and a DP additionally bounds the number of
//!   *big* tasks (processing time > λ/2) per resource class, which is
//!   what allows the tighter `3λ/2` packing argument. The grid makes it
//!   a `(1+ε)`-relaxation of the exact DP — the exact dynamic program
//!   of \[13\] runs on integral processing times, which real (fractional)
//!   sequence-comparison timings do not have.

use crate::task::TaskSet;

/// Output of a knapsack solver: the proposed split plus bookkeeping the
/// dual step needs for its guarantee argument.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackSolution {
    /// Task ids sent to the GPUs, in packing order.
    pub gpu_ids: Vec<usize>,
    /// Task ids left to the CPUs.
    pub cpu_ids: Vec<usize>,
    /// The overflowing final GPU task (`j_last`), if the greedy filled
    /// past `kλ`. Always the last element of `gpu_ids` when present.
    pub j_last: Option<usize>,
    /// Resulting GPU computational area.
    pub gpu_area: f64,
    /// Resulting CPU workload `W_C`.
    pub cpu_area: f64,
}

/// The paper's greedy minimisation knapsack over the *free* tasks
/// (tasks not force-assigned by λ-feasibility; the caller handles forced
/// ones). `gpu_budget` is the remaining GPU area budget (`kλ` minus the
/// area of any forced GPU tasks).
///
/// Packing stops as soon as the accumulated area reaches `gpu_budget`;
/// the task that crosses the boundary stays on the GPUs (Figure 4:
/// "the greedy knapsack fills the GPUs with tasks up to getting a
/// computational area larger than kλ").
pub fn greedy_knapsack(tasks: &TaskSet, free_ids: &[usize], gpu_budget: f64) -> KnapsackSolution {
    // Sort free tasks by decreasing acceleration ratio.
    let mut order: Vec<usize> = free_ids.to_vec();
    order.sort_by(|&a, &b| {
        let ra = tasks.tasks()[a].acceleration();
        let rb = tasks.tasks()[b].acceleration();
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut gpu_ids = Vec::new();
    let mut cpu_ids = Vec::new();
    let mut gpu_area = 0.0f64;
    let mut cpu_area = 0.0f64;
    let mut j_last = None;
    let mut filled = gpu_area >= gpu_budget; // true immediately if budget <= 0

    for &id in &order {
        if filled {
            cpu_ids.push(id);
            cpu_area += tasks.tasks()[id].p_cpu;
        } else {
            gpu_area += tasks.tasks()[id].p_gpu;
            gpu_ids.push(id);
            if gpu_area >= gpu_budget {
                filled = true;
                j_last = Some(id);
            }
        }
    }
    KnapsackSolution {
        gpu_ids,
        cpu_ids,
        j_last,
        gpu_area,
        cpu_area,
    }
}

/// Configuration of the DP knapsack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpConfig {
    /// Number of grid cells the GPU budget is discretised into. Larger
    /// values tighten the `(1+ε)` relaxation (`ε ≈ n / resolution`) at
    /// linear cost in time and memory.
    pub resolution: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig { resolution: 512 }
    }
}

/// DP minimisation knapsack with big-task count constraints.
///
/// Solves: minimise `W_C` subject to
/// * GPU area ≤ `gpu_budget` (discretised, conservative rounding),
/// * at most `max_big_gpu` GPU tasks with `p̄ⱼ > λ/2`,
/// * at most `max_big_cpu` CPU tasks with `pⱼ > λ/2`.
///
/// The big-task bounds come from the structure of an optimal schedule of
/// length `λ`: no PE can run two tasks longer than `λ/2`, so at most one
/// per machine exists (\[13\]). They are what lets the caller place big
/// tasks one-per-machine and list-schedule the small ones within
/// `3λ/2`.
///
/// Returns `None` when no assignment satisfies the constraints.
pub fn dp_knapsack(
    tasks: &TaskSet,
    free_ids: &[usize],
    gpu_budget: f64,
    lambda: f64,
    max_big_gpu: usize,
    max_big_cpu: usize,
    config: DpConfig,
) -> Option<KnapsackSolution> {
    let res = config.resolution.max(1);
    // Grid unit; a task of GPU time t occupies ceil(t/unit) cells
    // (conservative: the real area of a selected set never exceeds the
    // budget implied by its cell count + n rounding slack).
    let unit = if gpu_budget > 0.0 {
        gpu_budget / res as f64
    } else {
        f64::INFINITY
    };
    let cells = |t: f64| -> usize {
        if t <= 0.0 {
            0
        } else if unit.is_infinite() {
            res + 1 // cannot fit anything in a zero budget
        } else {
            (t / unit).ceil() as usize
        }
    };

    const INF: f64 = f64::INFINITY;
    let n_states = (res + 1) * (max_big_gpu + 1);
    // dp[w * (max_big_gpu+1) + b] = (min CPU area, big CPU count at that min).
    let mut dp: Vec<(f64, usize)> = vec![(INF, usize::MAX); n_states];
    let mut choice: Vec<Vec<bool>> = Vec::with_capacity(free_ids.len()); // true = GPU
    dp[0] = (0.0, 0);

    let idx = |w: usize, b: usize| w * (max_big_gpu + 1) + b;

    for &id in free_ids {
        let task = &tasks.tasks()[id];
        let w_gpu = cells(task.p_gpu);
        let big_gpu = task.p_gpu > lambda / 2.0;
        let big_cpu = task.p_cpu > lambda / 2.0;
        let mut next: Vec<(f64, usize)> = vec![(INF, usize::MAX); n_states];
        let mut pick: Vec<bool> = vec![false; n_states];
        for w in 0..=res {
            for b in 0..=max_big_gpu {
                let (area, bigs) = dp[idx(w, b)];
                if area.is_infinite() {
                    continue;
                }
                // Option 1: task on CPU.
                let cpu_state = (area + task.p_cpu, bigs + usize::from(big_cpu));
                let tgt = &mut next[idx(w, b)];
                if cpu_state.0 < tgt.0 || (cpu_state.0 == tgt.0 && cpu_state.1 < tgt.1) {
                    *tgt = cpu_state;
                    pick[idx(w, b)] = false;
                }
                // Option 2: task on GPU (if it fits the grid and the big
                // budget).
                let nw = w + w_gpu;
                let nb = b + usize::from(big_gpu);
                if nw <= res && nb <= max_big_gpu {
                    let tgt = &mut next[idx(nw, nb)];
                    if area < tgt.0 || (area == tgt.0 && bigs < tgt.1) {
                        *tgt = (area, bigs);
                        pick[idx(nw, nb)] = true;
                    }
                }
            }
        }
        dp = next;
        choice.push(pick);
    }

    // Best feasible terminal state: min CPU area with big-CPU count ≤ cap.
    let mut best: Option<(usize, usize)> = None; // (w, b)
    let mut best_area = INF;
    for w in 0..=res {
        for b in 0..=max_big_gpu {
            let (area, bigs) = dp[idx(w, b)];
            if area < best_area && bigs <= max_big_cpu {
                best_area = area;
                best = Some((w, b));
            }
        }
    }
    let (mut w, mut b) = best?;

    // Reconstruct choices backwards.
    let mut on_gpu = vec![false; free_ids.len()];
    for (step, &id) in free_ids.iter().enumerate().rev() {
        let task = &tasks.tasks()[id];
        let picked_gpu = choice[step][idx(w, b)];
        on_gpu[step] = picked_gpu;
        if picked_gpu {
            w -= cells(task.p_gpu);
            b -= usize::from(task.p_gpu > lambda / 2.0);
        }
    }

    let mut gpu_ids = Vec::new();
    let mut cpu_ids = Vec::new();
    let mut gpu_area = 0.0;
    let mut cpu_area = 0.0;
    for (step, &id) in free_ids.iter().enumerate() {
        if on_gpu[step] {
            gpu_ids.push(id);
            gpu_area += tasks.tasks()[id].p_gpu;
        } else {
            cpu_ids.push(id);
            cpu_area += tasks.tasks()[id].p_cpu;
        }
    }
    Some(KnapsackSolution {
        gpu_ids,
        cpu_ids,
        j_last: None,
        gpu_area,
        cpu_area,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_prioritises_by_acceleration() {
        // Ratios: t0 = 5, t1 = 2, t2 = 1. Budget fits t0 then overflows
        // with t1 (j_last).
        let tasks = TaskSet::from_times(&[(10.0, 2.0), (6.0, 3.0), (4.0, 4.0)]);
        let ids: Vec<usize> = (0..3).collect();
        let sol = greedy_knapsack(&tasks, &ids, 4.0);
        assert_eq!(sol.gpu_ids, vec![0, 1]);
        assert_eq!(sol.j_last, Some(1));
        assert_eq!(sol.cpu_ids, vec![2]);
        assert!((sol.gpu_area - 5.0).abs() < 1e-12);
        assert!((sol.cpu_area - 4.0).abs() < 1e-12);
    }

    #[test]
    fn acceleration_order_is_descending_with_stable_ties() {
        let set = TaskSet::from_times(&[
            (4.0, 4.0),  // ratio 1.0
            (10.0, 2.0), // ratio 5.0
            (6.0, 3.0),  // ratio 2.0
            (8.0, 8.0),  // ratio 1.0 (ties with task 0 -> id order)
        ]);
        // An unbounded budget takes every task, in priority order.
        let all = greedy_knapsack(&set, &[0, 1, 2, 3], f64::INFINITY);
        assert_eq!(all.gpu_ids, vec![1, 2, 0, 3]);
        let none = greedy_knapsack(&TaskSet::default(), &[], f64::INFINITY);
        assert!(none.gpu_ids.is_empty());
    }

    #[test]
    fn greedy_overflow_invariant() {
        // Area without j_last is always < budget; with it, >= budget.
        let tasks = TaskSet::from_times(&[(8.0, 4.0), (9.0, 3.0), (10.0, 5.0), (2.0, 1.0)]);
        let ids: Vec<usize> = (0..4).collect();
        let budget = 6.0;
        let sol = greedy_knapsack(&tasks, &ids, budget);
        let last = sol.j_last.expect("budget is exceeded");
        let area_without: f64 = sol
            .gpu_ids
            .iter()
            .filter(|&&id| id != last)
            .map(|&id| tasks.tasks()[id].p_gpu)
            .sum();
        assert!(area_without < budget);
        assert!(sol.gpu_area >= budget);
        assert_eq!(*sol.gpu_ids.last().unwrap(), last);
    }

    #[test]
    fn greedy_zero_budget_sends_all_to_cpu() {
        let tasks = TaskSet::from_times(&[(4.0, 1.0), (2.0, 1.0)]);
        let sol = greedy_knapsack(&tasks, &[0, 1], 0.0);
        assert!(sol.gpu_ids.is_empty());
        assert_eq!(sol.j_last, None);
        assert_eq!(sol.cpu_ids.len(), 2);
        assert!((sol.cpu_area - 6.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_huge_budget_takes_everything() {
        let tasks = TaskSet::from_times(&[(4.0, 1.0), (2.0, 1.0)]);
        let sol = greedy_knapsack(&tasks, &[0, 1], 1e9);
        assert_eq!(sol.gpu_ids.len(), 2);
        assert!(sol.cpu_ids.is_empty());
        assert_eq!(sol.j_last, None);
    }

    #[test]
    fn dp_respects_gpu_budget() {
        let tasks = TaskSet::from_times(&[(10.0, 4.0), (9.0, 4.0), (8.0, 4.0)]);
        let ids: Vec<usize> = (0..3).collect();
        // Budget 8: at most two of the 4.0-area tasks fit.
        let sol =
            dp_knapsack(&tasks, &ids, 8.0, 10.0, 3, 3, DpConfig::default()).expect("feasible");
        assert!(sol.gpu_area <= 8.0 + 1e-9);
        assert_eq!(sol.gpu_ids.len(), 2);
        // DP keeps the highest-CPU-cost tasks off the CPUs: CPU gets the
        // cheapest (8.0).
        assert!((sol.cpu_area - 8.0).abs() < 1e-9);
    }

    #[test]
    fn dp_big_task_constraint_is_enforced() {
        // λ = 10 -> tasks with p_gpu > 5 are big. Three big GPU tasks but
        // max_big_gpu = 1: only one may go to the GPUs.
        let tasks = TaskSet::from_times(&[(20.0, 6.0), (20.0, 6.0), (20.0, 6.0)]);
        let ids: Vec<usize> = (0..3).collect();
        let sol =
            dp_knapsack(&tasks, &ids, 100.0, 10.0, 1, 3, DpConfig::default()).expect("feasible");
        assert_eq!(sol.gpu_ids.len(), 1);
        assert_eq!(sol.cpu_ids.len(), 2);
    }

    #[test]
    fn dp_infeasible_big_cpu_returns_none() {
        // Every split leaves >= 2 big CPU tasks but only 1 is allowed,
        // and the GPU cannot take them (budget too small).
        let tasks = TaskSet::from_times(&[(8.0, 9.0), (8.0, 9.0), (8.0, 9.0)]);
        let ids: Vec<usize> = (0..3).collect();
        let sol = dp_knapsack(&tasks, &ids, 1.0, 10.0, 3, 1, DpConfig::default());
        assert!(sol.is_none());
    }

    #[test]
    fn dp_matches_greedy_on_easy_instance() {
        // Clear-cut instance: both should put the highly-accelerated
        // tasks on GPUs.
        let tasks = TaskSet::from_times(&[(100.0, 1.0), (90.0, 1.0), (1.0, 0.9), (1.0, 0.95)]);
        let ids: Vec<usize> = (0..4).collect();
        let greedy = greedy_knapsack(&tasks, &ids, 2.5);
        let dp =
            dp_knapsack(&tasks, &ids, 2.5, 200.0, 4, 4, DpConfig::default()).expect("feasible");
        let mut g = greedy.gpu_ids.clone();
        g.sort_unstable();
        let mut d = dp.gpu_ids.clone();
        d.sort_unstable();
        // Greedy overflows past the budget with j_last; DP stays within.
        assert!(dp.gpu_area <= 2.5 + 1e-9);
        assert!(g.contains(&0) && g.contains(&1));
        assert!(d.contains(&0) && d.contains(&1));
    }

    #[test]
    fn dp_is_near_optimal_vs_brute_force() {
        // DP (unlike the overflowing greedy) must match the best
        // *within-budget* assignment up to the grid relaxation: its cell
        // rounding may reject sets whose true area squeaks under the
        // budget, but it can never pick a worse CPU area than the best
        // set that fits even after rounding.
        let tasks = TaskSet::from_times(&[
            (10.0, 1.0),
            (30.0, 3.9),
            (30.0, 3.9),
            (5.0, 2.1),
            (12.0, 2.9),
        ]);
        let ids: Vec<usize> = (0..5).collect();
        let budget = 8.0;
        let config = DpConfig { resolution: 4096 };
        let unit = budget / config.resolution as f64;
        let dp = dp_knapsack(&tasks, &ids, budget, 1000.0, 5, 5, config).expect("feasible");
        assert!(dp.gpu_area <= budget + 1e-9);

        // Brute force over all 2^5 subsets, using the same conservative
        // cell rounding the DP applies.
        let mut best = f64::INFINITY;
        for mask in 0u32..32 {
            let mut gpu_cells = 0usize;
            let mut cpu = 0.0;
            for (bit, &id) in ids.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    gpu_cells += (tasks.tasks()[id].p_gpu / unit).ceil() as usize;
                } else {
                    cpu += tasks.tasks()[id].p_cpu;
                }
            }
            if gpu_cells <= config.resolution {
                best = best.min(cpu);
            }
        }
        assert!(
            (dp.cpu_area - best).abs() < 1e-9,
            "dp {} vs brute force {}",
            dp.cpu_area,
            best
        );
    }

    #[test]
    fn dp_empty_input() {
        let tasks = TaskSet::default();
        let sol = dp_knapsack(&tasks, &[], 10.0, 10.0, 2, 2, DpConfig::default()).unwrap();
        assert!(sol.gpu_ids.is_empty());
        assert!(sol.cpu_ids.is_empty());
        assert_eq!(sol.cpu_area, 0.0);
    }
}
