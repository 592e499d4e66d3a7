//! Hot-path guard: a *disabled* recorder must cost the per-job path
//! nothing — no heap allocation, and (transitively) no lock, since the
//! only locks live behind the allocation-free early return.
//!
//! This file holds a single test so the counting allocator observes a
//! quiet process: no sibling tests run concurrently in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use swdual_obs::{EventBody, HostPhase, Obs, Track};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The shape of the worker's per-job instrumentation (see
/// `swdual_runtime::worker`): clock reads bracketing the compute, then
/// a guarded span. With a disabled recorder this entire sequence must
/// not allocate.
fn per_job_hot_path(obs: &Obs, worker_id: usize, task_id: usize) {
    let wall_start = obs.now();
    // The profiler gate the worker consults before choosing the phased
    // scoring path; a disabled recorder must answer without allocating.
    let phased = obs.is_profiling();
    let wall_end = obs.now();
    if obs.is_enabled() {
        obs.span(
            Track::Worker(worker_id),
            wall_start,
            wall_end - wall_start,
            Some((0.0, 1.0)),
            EventBody::Job {
                task: task_id,
                cells: Some(1000.0),
                seq: Some(0),
                decision: Some(0),
                queue_wait_wall: Some(0.0),
                queue_wait_modelled: Some(0.0),
            },
        );
    }
    if phased {
        // Phase spans mirroring `record_phase_spans`; never reached on
        // the disabled path, but kept so the guard measures the same
        // instruction sequence the worker runs.
        for phase in HostPhase::ALL {
            obs.span(
                Track::Worker(worker_id),
                wall_start,
                wall_end - wall_start,
                Some((0.0, 0.5)),
                EventBody::Phase {
                    phase,
                    task: task_id,
                },
            );
        }
    }
}

#[test]
fn disabled_obs_hot_path_allocates_nothing() {
    let disabled = Obs::disabled();
    // Warm up any lazy initialisation outside the measured window.
    per_job_hot_path(&disabled, 0, 0);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for task in 0..10_000usize {
        per_job_hot_path(&disabled, task % 4, task);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled tracing must be allocation-free in the per-job path"
    );

    // Following a disabled recorder is equally free: what the progress
    // line, the watchdog and the live socket do each poll — page the
    // journal from a cursor — finds nothing and allocates nothing.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for task in 0..1_000usize {
        per_job_hot_path(&disabled, task % 4, task);
        assert!(disabled.events_since(0).is_empty());
        assert!(disabled.events_since(task).is_empty());
    }
    assert_eq!(disabled.event_count(), 0);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "polling a disabled recorder's journal must be allocation-free"
    );

    // A disabled recorder also refuses to turn profiling on — the
    // whole profiled branch stays unreachable and allocation-free.
    disabled.set_profiling(true);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for task in 0..1_000usize {
        per_job_hot_path(&disabled, task % 4, task);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "set_profiling on a disabled recorder must stay allocation-free"
    );

    // Sanity: the same path with an enabled recorder does record (and
    // therefore allocates), so the guard above is measuring the right
    // thing.
    let enabled = Obs::enabled();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    per_job_hot_path(&enabled, 0, 42);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(after > before, "enabled recorder must actually record");
    assert_eq!(enabled.event_count(), 1);

    // And with the profiler on, the phase spans land too.
    let profiled = Obs::enabled();
    profiled.set_profiling(true);
    per_job_hot_path(&profiled, 0, 7);
    assert_eq!(
        profiled.event_count(),
        1 + HostPhase::ALL.len(),
        "task span + one span per phase when profiling"
    );
}
