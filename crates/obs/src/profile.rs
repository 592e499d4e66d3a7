//! CUPTI-style profiling: fold a recorded event stream into a unified
//! [`Profile`].
//!
//! The journal answers *when* things ran; `metrics_text` answers *how
//! often and how long on average*. This
//! module answers *where the time went inside a task*: per-job host
//! phases (profile build, DP inner loop) and per-kernel
//! device phases (launch latency, compute, H2D/D2H transfer), folded
//! into collapsed stacks with **two weights per stack** — wall-clock
//! seconds and modelled-clock seconds — so one profile serves both the
//! "what did this host really do" and the "what does the paper's
//! platform model say" questions.
//!
//! ## Stack taxonomy
//!
//! ```text
//! worker:W;task-T                      ← self = task minus its phases
//! worker:W;task-T;profile_build        ← striped query-profile setup
//! worker:W;task-T;dp_inner             ← the DP loop proper
//! worker:W;help;task-T                 ← another worker's lent task,
//!                                        wall only (its owner's job
//!                                        span carries the modelled time)
//! device:D;h2d_transfer                ← PCIe uploads
//! device:D;d2h_transfer                ← score readback (overlapped,
//!                                        not on the device clock)
//! device:D;kernel                      ← self = kernel minus phases
//! device:D;kernel;launch               ← fixed dispatch latency
//! device:D;kernel;compute              ← warp-padded DP compute
//! ```
//!
//! Leaf weights are *self* times: a parent's self time is its span
//! minus its children (clamped at zero), so summing every stack that
//! starts with `worker:W` reproduces worker W's busy time exactly —
//! the same number [`analysis::analyze`](crate::analysis::analyze)
//! reports as `busy_wall` / `busy_modelled`. That identity is what lets
//! `crates/core/tests/cli_profile.rs` reconcile `swdual profile`
//! against `swdual analyze` within 1%.
//!
//! Device rows are a second *view* of the same execution (a GPU
//! worker's task time is its kernels' time), so device stacks are kept
//! under their own roots and are deliberately **not** added to the
//! worker totals.
//!
//! The roofline side ([`RooflineReport`]) folds the device events into
//! achieved-vs-modelled GCUPS per device plus a transfer-bound vs
//! compute-bound verdict per query-length bucket, in the style of the
//! SWAPHI / Knights-Landing SW papers the ISSUE cites.

use crate::event::{task_name, D2H_TRANSFER, H2D_TRANSFER, KERNEL};
use crate::model::{ratio_or, Clocked, RunModel};
use crate::HostPhase;
use serde::Serialize;
use std::collections::BTreeMap;

/// Which clock a flamegraph export should weight stacks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileClock {
    /// Real elapsed seconds on this host.
    Wall,
    /// Virtual seconds from the platform's rate models.
    Modelled,
}

/// One collapsed stack with dual weights (self time, seconds).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StackWeight {
    /// Frames from root to leaf, e.g. `["worker:0", "task-3", "dp_inner"]`.
    pub frames: Vec<String>,
    /// Self seconds on the wall clock.
    pub wall: f64,
    /// Self seconds on the modelled clock.
    pub modelled: f64,
}

impl StackWeight {
    fn new(root: String, frames: &[&str], self_time: Clocked) -> StackWeight {
        let frames = frames.iter().map(|frame| frame.to_string());
        StackWeight {
            frames: std::iter::once(root).chain(frames).collect(),
            wall: self_time.wall,
            modelled: self_time.modelled,
        }
    }

    /// Self seconds on `clock`.
    pub fn weight(&self, clock: ProfileClock) -> f64 {
        match clock {
            ProfileClock::Wall => self.wall,
            ProfileClock::Modelled => self.modelled,
        }
    }
}

/// Per-phase totals inside one worker.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseTotal {
    /// Phase name (`profile_build`, `dp_inner`, or `task` for
    /// unattributed self time).
    pub name: String,
    /// Wall seconds across all of the worker's jobs.
    pub wall: f64,
    /// Modelled seconds across all of the worker's jobs.
    pub modelled: f64,
}

/// One worker's profile totals. `wall_total`/`modelled_total` equal the
/// auditor's `busy_wall`/`busy_modelled` for the same journal.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkerProfile {
    /// Worker id.
    pub worker: usize,
    /// Jobs profiled.
    pub tasks: usize,
    /// Total wall seconds attributed to this worker's stacks.
    pub wall_total: f64,
    /// Total modelled seconds attributed to this worker's stacks.
    pub modelled_total: f64,
    /// Phase totals, sorted by name.
    pub phases: Vec<PhaseTotal>,
}

/// One busy/idle segment on a device's virtual clock.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimelineSegment {
    /// Segment start, seconds on the device clock.
    pub start: f64,
    /// Segment end, seconds on the device clock.
    pub end: f64,
    /// True when the device was executing a kernel or a transfer.
    pub busy: bool,
}

/// Per-query-length-bucket kernel accounting and its verdict.
#[derive(Debug, Clone, Serialize)]
pub struct LengthBucket {
    /// Inclusive lower query length of the bucket.
    pub min_len: usize,
    /// Exclusive upper query length (`usize::MAX` for the last bucket).
    pub max_len: usize,
    /// Kernels that fell in this bucket.
    pub kernels: usize,
    /// Mean modelled compute seconds per kernel (launch excluded).
    pub mean_compute_seconds: f64,
    /// Mean transfer seconds amortized over every kernel of the device.
    pub amortized_transfer_seconds: f64,
    /// Achieved GCUPS over useful cells in this bucket.
    pub achieved_gcups: f64,
    /// `transfer-bound` when the amortized transfer share exceeds the
    /// mean compute time, else `compute-bound`.
    pub verdict: String,
}

/// Bytes-moved vs cells-computed roofline accumulator for one device.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceProfile {
    /// Device id (the worker id that drives it).
    pub device: usize,
    /// Kernels profiled.
    pub kernels: usize,
    /// H2D transfers profiled.
    pub transfers: usize,
    /// Modelled kernel seconds (launch + compute).
    pub kernel_seconds: f64,
    /// Modelled launch-latency seconds (part of `kernel_seconds`).
    pub launch_seconds: f64,
    /// Modelled H2D transfer seconds.
    pub transfer_seconds: f64,
    /// Kernel + transfer seconds — the device's busy time.
    pub busy_seconds: f64,
    /// Idle seconds inside the device's active window (gaps between
    /// spans on its virtual clock).
    pub idle_seconds: f64,
    /// Bytes moved host→device.
    pub bytes_h2d: f64,
    /// Bytes moved device→host (score readback; overlapped).
    pub bytes_d2h: f64,
    /// Query×subject cells actually compared.
    pub useful_cells: f64,
    /// Cells charged including warp padding.
    pub padded_cells: f64,
    /// Peak GCUPS from the `device_spec` instant (0 when the journal
    /// predates spec instants).
    pub peak_gcups: f64,
    /// PCIe bandwidth from the `device_spec` instant (0 when unknown).
    pub pcie_bytes_per_sec: f64,
    /// Busy/idle segments on the device clock, in time order.
    pub segments: Vec<TimelineSegment>,
    /// Kernel accounting per query-length bucket.
    pub buckets: Vec<LengthBucket>,
}

impl DeviceProfile {
    /// Fraction of charged cells that were useful.
    pub fn warp_efficiency(&self) -> f64 {
        ratio_or(1.0, self.useful_cells, self.padded_cells)
    }

    /// Achieved throughput over useful cells, GCUPS on the modelled
    /// clock (0 when no kernel time).
    pub fn achieved_gcups(&self) -> f64 {
        ratio_or(0.0, self.useful_cells, self.kernel_seconds) / 1e9
    }

    /// Modelled throughput over *charged* (padded) cells — what the
    /// rate model says the silicon sustained.
    pub fn modelled_gcups(&self) -> f64 {
        ratio_or(0.0, self.padded_cells, self.kernel_seconds) / 1e9
    }

    /// Arithmetic intensity: useful cells per byte moved over PCIe.
    pub fn cells_per_byte(&self) -> f64 {
        ratio_or(0.0, self.useful_cells, self.bytes_h2d + self.bytes_d2h)
    }

    /// Roofline attainable GCUPS: `min(peak, intensity · bandwidth)`.
    /// 0 when the journal carries no device spec.
    pub fn attainable_gcups(&self) -> f64 {
        if self.peak_gcups <= 0.0 {
            return 0.0;
        }
        if self.pcie_bytes_per_sec <= 0.0 {
            return self.peak_gcups;
        }
        let bandwidth_roof = self.cells_per_byte() * self.pcie_bytes_per_sec / 1e9;
        self.peak_gcups.min(bandwidth_roof)
    }

    /// Device-level verdict: which roof the device sits under.
    pub fn verdict(&self) -> &'static str {
        if self.peak_gcups <= 0.0 {
            "unknown (no device_spec in journal)"
        } else if self.attainable_gcups() < self.peak_gcups {
            "transfer-bound"
        } else {
            "compute-bound"
        }
    }
}

/// The unified profile: collapsed stacks plus worker and device folds.
#[derive(Debug, Clone, Serialize)]
pub struct Profile {
    /// Every distinct stack with its dual self weights, sorted by
    /// frames for stable output.
    pub stacks: Vec<StackWeight>,
    /// Per-worker totals, ascending by worker id.
    pub workers: Vec<WorkerProfile>,
    /// Per-device roofline accumulators, ascending by device id.
    pub devices: Vec<DeviceProfile>,
    /// Sum of worker wall totals (the attributed wall busy time).
    pub wall_total: f64,
    /// Sum of worker modelled totals.
    pub modelled_total: f64,
    /// Latest modelled job completion over all workers — the same
    /// number `analysis` reports as `modelled_makespan`.
    pub modelled_makespan: f64,
}

/// Merge span intervals into alternating busy/idle segments.
fn fold_segments(mut intervals: Vec<(f64, f64)>) -> (Vec<TimelineSegment>, f64) {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut segments: Vec<TimelineSegment> = Vec::new();
    let mut idle = 0.0;
    for (start, end) in intervals {
        match segments.last_mut() {
            Some(last) if start <= last.end + 1e-12 && last.busy => {
                last.end = last.end.max(end);
            }
            Some(last) => {
                let gap_start = last.end;
                if start > gap_start {
                    idle += start - gap_start;
                    segments.push(TimelineSegment {
                        start: gap_start,
                        end: start,
                        busy: false,
                    });
                }
                segments.push(TimelineSegment {
                    start: start.max(gap_start),
                    end,
                    busy: true,
                });
            }
            None => segments.push(TimelineSegment {
                start,
                end,
                busy: true,
            }),
        }
    }
    (segments, idle)
}

impl Profile {
    /// Stack a run's jobs, phases and device spans.
    pub fn from_model(model: &RunModel) -> Profile {
        // (worker, task) → its jobs' time on both clocks
        let mut tasks: BTreeMap<(usize, usize), Clocked> = BTreeMap::new();
        for e in &model.jobs {
            let modelled = e.virt.map_or(0.0, |(_, dur)| dur);
            let wall = e.wall_dur;
            tasks
                .entry((e.worker, e.task))
                .or_default()
                .add(Clocked { wall, modelled });
        }
        let phases = &model.phases;

        // Build stacks. Worker: task self = task − Σ its phases.
        let mut stacks: Vec<StackWeight> = Vec::new();
        let mut worker_fold: BTreeMap<usize, WorkerProfile> = BTreeMap::new();
        for (&(w, task), &span) in &tasks {
            let root = || format!("worker:{w}");
            let task_frame = task_name(task);
            let mut children = Clocked::default();
            for phase in HostPhase::ALL {
                if let Some(&spent) = phases.get(&(w, task, phase)) {
                    children.add(spent);
                    let frames = [task_frame.as_str(), phase.label()];
                    stacks.push(StackWeight::new(root(), &frames, spent));
                }
            }
            // Phases may slightly over- or under-shoot the parent from
            // separate clock reads; the parent keeps the (clamped)
            // remainder so root totals always equal the span sums.
            stacks.push(StackWeight::new(
                root(),
                &[&task_frame],
                span.minus(children),
            ));
            let (child_wall, child_virt) = (children.wall, children.modelled);
            let wp = worker_fold.entry(w).or_insert(WorkerProfile {
                worker: w,
                ..WorkerProfile::default()
            });
            wp.tasks += 1;
            wp.wall_total += span.wall.max(child_wall);
            wp.modelled_total += span.modelled.max(child_virt);
        }
        // Help: the helper's wall time, a stack of its own.
        for (&(w, task), &wall) in &model.helped {
            let spent = Clocked {
                wall,
                modelled: 0.0,
            };
            let task_frame = task_name(task);
            stacks.push(StackWeight::new(
                format!("worker:{w}"),
                &["help", &task_frame],
                spent,
            ));
            let wp = worker_fold.entry(w).or_insert(WorkerProfile {
                worker: w,
                ..WorkerProfile::default()
            });
            wp.wall_total += wall;
        }
        // Per-worker phase totals.
        for (&(w, _, phase), spent) in phases {
            if let Some(wp) = worker_fold.get_mut(&w) {
                match wp.phases.iter_mut().find(|p| p.name == phase.label()) {
                    Some(p) => {
                        p.wall += spent.wall;
                        p.modelled += spent.modelled;
                    }
                    None => wp.phases.push(PhaseTotal {
                        name: phase.label().to_string(),
                        wall: spent.wall,
                        modelled: spent.modelled,
                    }),
                }
            }
        }
        for wp in worker_fold.values_mut() {
            wp.phases.sort_by(|a, b| a.name.cmp(&b.name));
        }

        // Device stacks + roofline fold.
        let mut device_fold: Vec<DeviceProfile> = Vec::new();
        for (&d, a) in &model.devices {
            // Zero-weight stacks are dropped below, so a device that
            // never transferred or launched contributes no frames.
            let mut stack = |frames: &[&str], self_time: Clocked| {
                stacks.push(StackWeight::new(format!("device:{d}"), frames, self_time));
            };
            let mut kernel_phases = a.launch;
            kernel_phases.add(a.compute);
            stack(&[H2D_TRANSFER], a.h2d);
            stack(&[D2H_TRANSFER], a.d2h);
            stack(&[KERNEL, "launch"], a.launch);
            stack(&[KERNEL, "compute"], a.compute);
            stack(&[KERNEL], a.kernel.minus(kernel_phases));

            let (segments, idle_seconds) = fold_segments(a.intervals.clone());
            let amortized_transfer = ratio_or(0.0, a.h2d.modelled, a.kernels as f64);
            // Power-of-two query-length buckets: 0–127, 128–255, … .
            let mut buckets: BTreeMap<usize, (usize, f64, f64)> = BTreeMap::new();
            for &(len, secs, cells) in &a.by_len {
                let lo = if len < 128 { 0 } else { 1 << len.ilog2() };
                let b = buckets.entry(lo).or_insert((0, 0.0, 0.0));
                b.0 += 1;
                b.1 += secs;
                b.2 += cells;
            }
            let launch_per_kernel = ratio_or(0.0, a.launch.modelled, a.kernels as f64);
            let buckets: Vec<LengthBucket> = buckets
                .iter()
                .map(|(&lo, &(n, secs, cells))| {
                    let mean_compute = (secs / n as f64 - launch_per_kernel).max(0.0);
                    LengthBucket {
                        min_len: lo,
                        max_len: if lo == 0 { 128 } else { lo * 2 },
                        kernels: n,
                        mean_compute_seconds: mean_compute,
                        amortized_transfer_seconds: amortized_transfer,
                        achieved_gcups: ratio_or(0.0, cells, secs) / 1e9,
                        verdict: if amortized_transfer > mean_compute {
                            "transfer-bound".to_string()
                        } else {
                            "compute-bound".to_string()
                        },
                    }
                })
                .collect();

            device_fold.push(DeviceProfile {
                device: d,
                kernels: a.kernels,
                transfers: a.transfers,
                kernel_seconds: a.kernel.modelled,
                launch_seconds: a.launch.modelled,
                transfer_seconds: a.h2d.modelled,
                busy_seconds: a.kernel.modelled + a.h2d.modelled,
                idle_seconds,
                bytes_h2d: a.bytes_h2d,
                bytes_d2h: a.bytes_d2h,
                useful_cells: a.useful_cells,
                padded_cells: a.padded_cells,
                peak_gcups: a.peak_gcups,
                pcie_bytes_per_sec: a.pcie_bytes_per_sec,
                segments,
                buckets,
            });
        }

        stacks.retain(|s| s.wall > 0.0 || s.modelled > 0.0);
        stacks.sort_by(|a, b| a.frames.cmp(&b.frames));

        let workers: Vec<WorkerProfile> = worker_fold.into_values().collect();
        let wall_total = workers.iter().map(|w| w.wall_total).sum();
        let modelled_total = workers.iter().map(|w| w.modelled_total).sum();
        Profile {
            stacks,
            workers,
            devices: device_fold,
            wall_total,
            modelled_total,
            modelled_makespan: model.makespan,
        }
    }

    /// Total self-weight of every stack rooted at `frame`, on `clock`.
    /// `profile.root_total("worker:0", Wall)` equals the auditor's
    /// `busy_wall` for worker 0.
    pub fn root_total(&self, frame: &str, clock: ProfileClock) -> f64 {
        self.stacks
            .iter()
            .filter(|s| s.frames.first().map(String::as_str) == Some(frame))
            .map(|s| s.weight(clock))
            .sum()
    }

    /// The roofline view of this profile.
    pub fn roofline(&self) -> RooflineReport {
        RooflineReport {
            devices: self.devices.clone(),
            modelled_makespan: self.modelled_makespan,
            wall_busy_total: self.wall_total,
            modelled_busy_total: self.modelled_total,
        }
    }

    /// Pretty-printed JSON of the whole profile.
    pub fn to_json(&self) -> String {
        crate::json(self, true)
    }
}

/// Achieved vs modelled GCUPS per device with bound verdicts,
/// reconciled against the makespan the auditor reports.
#[derive(Debug, Clone, Serialize)]
pub struct RooflineReport {
    /// Per-device accumulators (shared with [`Profile::devices`]).
    pub devices: Vec<DeviceProfile>,
    /// Modelled makespan derived from the same events (for
    /// reconciliation against `swdual analyze`).
    pub modelled_makespan: f64,
    /// Total attributed wall busy time over workers.
    pub wall_busy_total: f64,
    /// Total attributed modelled busy time over workers.
    pub modelled_busy_total: f64,
}

impl RooflineReport {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        crate::json(self, true)
    }

    /// Human-readable rendering for terminals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line("roofline report".to_string());
        line(format!(
            "  attributed busy time   {:.6} s wall · {:.6} s modelled · makespan {:.6} s modelled",
            self.wall_busy_total, self.modelled_busy_total, self.modelled_makespan
        ));
        if self.devices.is_empty() {
            line("  no device activity in this journal (CPU-only run?)".to_string());
            return out;
        }
        for d in &self.devices {
            line(format!("  device {}:", d.device));
            line(format!(
                "    kernels              {} ({:.6} s, of which launch {:.6} s)",
                d.kernels, d.kernel_seconds, d.launch_seconds
            ));
            line(format!(
                "    transfers            {} h2d ({:.6} s, {:.0} bytes) · {:.0} bytes d2h",
                d.transfers, d.transfer_seconds, d.bytes_h2d, d.bytes_d2h
            ));
            line(format!(
                "    busy / idle          {:.6} s busy · {:.6} s idle ({} segments)",
                d.busy_seconds,
                d.idle_seconds,
                d.segments.len()
            ));
            line(format!(
                "    throughput           achieved {:.3} GCUPS · modelled {:.3} GCUPS \
                 · peak {:.3} GCUPS",
                d.achieved_gcups(),
                d.modelled_gcups(),
                d.peak_gcups
            ));
            line(format!(
                "    roofline             {:.3} cells/byte · attainable {:.3} GCUPS · {} \
                 · warp efficiency {:.1}%",
                d.cells_per_byte(),
                d.attainable_gcups(),
                d.verdict(),
                100.0 * d.warp_efficiency()
            ));
            for b in &d.buckets {
                line(format!(
                    "    query len [{:>5}, {:>5})  {:>4} kernels · compute {:.6} s \
                     · amortized transfer {:.6} s · {:.3} GCUPS · {}",
                    b.min_len,
                    b.max_len,
                    b.kernels,
                    b.mean_compute_seconds,
                    b.amortized_transfer_seconds,
                    b.achieved_gcups,
                    b.verdict
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, RunReport};
    use crate::testkit::job;
    use crate::{Event, EventBody, Obs, Track};

    fn profile(events: &[Event]) -> Profile {
        Profile::from_model(&RunModel::from_events(events))
    }

    fn audit(events: &[Event]) -> RunReport {
        analyze(&RunModel::from_events(events))
    }

    /// A hand-built profiled run: one CPU worker with phase spans, one
    /// device with kernel phases, transfers and a spec instant.
    fn sample_events() -> Vec<Event> {
        let obs = Obs::enabled();
        obs.set_profiling(true);
        // Worker 0, task 0: 1.0 s wall / 2.0 s modelled, split into
        // phases 0.25/0.7 wall (self 0.05) and 0.5/1.4 modelled.
        let cpu = Track::Worker(0);
        let phase = |phase| EventBody::Phase { phase, task: 0 };
        obs.span(cpu, 0.0, 1.0, Some((0.0, 2.0)), job(0, Some(1e6)));
        obs.span(
            cpu,
            0.0,
            0.25,
            Some((0.0, 0.5)),
            phase(HostPhase::ProfileBuild),
        );
        obs.span(cpu, 0.25, 0.7, Some((0.5, 1.4)), phase(HostPhase::DpInner));
        // Device 1: spec, one transfer, one kernel split into phases.
        let device = Track::Device(1);
        obs.instant(
            device,
            EventBody::DeviceSpec {
                peak_gcups: 10.0,
                pcie_bytes_per_sec: 1.0e9,
                kernel_launch_latency: 0.1,
                warp_size: 32,
            },
        );
        obs.span(
            device,
            0.0,
            0.01,
            Some((0.0, 0.5)),
            EventBody::H2d {
                bytes: 5.0e8,
                task: None,
            },
        );
        obs.span(
            device,
            0.01,
            0.02,
            Some((0.5, 1.0)),
            EventBody::Kernel {
                useful_cells: 4.0e9,
                padded_cells: 5.0e9,
                query_len: 300,
                task: None,
            },
        );
        obs.span(
            device,
            0.01,
            0.0,
            Some((0.5, 0.1)),
            EventBody::KernelLaunch { task: None },
        );
        obs.span(
            device,
            0.01,
            0.02,
            Some((0.6, 0.9)),
            EventBody::KernelCompute { task: None },
        );
        // GPU worker's own task span (device work seen as a job).
        obs.span(Track::Worker(1), 0.0, 0.03, Some((0.0, 1.5)), job(1, None));
        obs.events_since(0)
    }

    #[test]
    fn worker_root_totals_equal_task_spans() {
        let p = profile(&sample_events());
        assert!((p.root_total("worker:0", ProfileClock::Wall) - 1.0).abs() < 1e-12);
        assert!((p.root_total("worker:0", ProfileClock::Modelled) - 2.0).abs() < 1e-12);
        assert!((p.root_total("worker:1", ProfileClock::Modelled) - 1.5).abs() < 1e-12);
        // Root totals agree with the auditor on the same events.
        let audit = audit(&sample_events());
        for w in &audit.workers {
            let worker = format!("worker:{}", w.worker);
            assert!((p.root_total(&worker, ProfileClock::Wall) - w.busy_wall).abs() < 1e-9);
            assert!((p.root_total(&worker, ProfileClock::Modelled) - w.busy_modelled).abs() < 1e-9);
        }
        assert!((p.modelled_makespan - audit.modelled_makespan).abs() < 1e-9);
    }

    #[test]
    fn a_help_span_is_its_helpers_wall_busy_and_nobodys_modelled() {
        let mut events = sample_events();
        // Worker 1 spends 0.4 s computing worker 0's lent task 0.
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(1),
            0.05,
            0.4,
            None,
            EventBody::Help { task: 0 },
        );
        events.extend(obs.events_since(0));
        let p = profile(&events);
        let help = p
            .stacks
            .iter()
            .find(|s| s.frames == ["worker:1", "help", "task-0"]);
        assert_eq!(help.map(|s| (s.wall, s.modelled)), Some((0.4, 0.0)));
        assert!((p.root_total("worker:1", ProfileClock::Wall) - 0.43).abs() < 1e-12);
        assert!((p.root_total("worker:1", ProfileClock::Modelled) - 1.5).abs() < 1e-12);
        let audit = audit(&events);
        for w in &audit.workers {
            let worker = format!("worker:{}", w.worker);
            assert!((p.root_total(&worker, ProfileClock::Wall) - w.busy_wall).abs() < 1e-9);
        }
        // The task is still one job, its owner's.
        let model = RunModel::from_events(&events);
        assert_eq!((model.workers[&1].jobs, model.jobs.len()), (1, 2));
    }

    #[test]
    fn phase_stacks_carry_self_times() {
        let p = profile(&sample_events());
        let stack = |frames: &[&str]| {
            p.stacks
                .iter()
                .find(|s| s.frames == frames)
                .unwrap_or_else(|| panic!("stack {frames:?} missing"))
        };
        assert!((stack(&["worker:0", "task-0", "dp_inner"]).wall - 0.7).abs() < 1e-12);
        assert!((stack(&["worker:0", "task-0", "profile_build"]).modelled - 0.5).abs() < 1e-12);
        // Parent self = span − children.
        let parent = stack(&["worker:0", "task-0"]);
        assert!((parent.wall - 0.05).abs() < 1e-12);
        assert!((parent.modelled - 0.1).abs() < 1e-12);
        // Device kernel self = kernel − (launch + compute) = 0 here,
        // and zero-weight stacks are dropped from the fold.
        assert!(
            p.stacks.iter().all(|s| s.frames != ["device:1", "kernel"]),
            "zero-self kernel stack must be dropped"
        );
        assert!((stack(&["device:1", "kernel", "launch"]).modelled - 0.1).abs() < 1e-12);
        assert!((stack(&["device:1", "kernel", "compute"]).modelled - 0.9).abs() < 1e-12);
    }

    #[test]
    fn roofline_folds_bytes_and_cells() {
        let p = profile(&sample_events());
        assert_eq!(p.devices.len(), 1);
        let d = &p.devices[0];
        assert_eq!(d.kernels, 1);
        assert_eq!(d.transfers, 1);
        assert!((d.bytes_h2d - 5.0e8).abs() < 1.0);
        assert!((d.useful_cells - 4.0e9).abs() < 1.0);
        assert!((d.warp_efficiency() - 0.8).abs() < 1e-12);
        // 4e9 cells / 1.0 s = 4 GCUPS achieved.
        assert!((d.achieved_gcups() - 4.0).abs() < 1e-9);
        assert_eq!(d.peak_gcups, 10.0);
        // 8 cells/byte · 1e9 B/s = 8 GCUPS < 10 peak → transfer-bound.
        assert!((d.cells_per_byte() - 8.0).abs() < 1e-9);
        assert!((d.attainable_gcups() - 8.0).abs() < 1e-9);
        assert_eq!(d.verdict(), "transfer-bound");
        // Length bucket 256..512 holds the 300-residue kernel.
        assert_eq!(d.buckets.len(), 1);
        assert_eq!(d.buckets[0].min_len, 256);
        assert_eq!(d.buckets[0].max_len, 512);
        assert_eq!(d.buckets[0].kernels, 1);
    }

    #[test]
    fn segments_alternate_busy_idle() {
        let (segments, idle) = fold_segments(vec![(0.0, 1.0), (1.5, 2.0), (0.5, 1.2)]);
        assert_eq!(segments.len(), 3);
        assert!(segments[0].busy && !segments[1].busy && segments[2].busy);
        assert!((segments[0].end - 1.2).abs() < 1e-12);
        assert!((idle - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_events_yield_an_empty_profile() {
        let p = profile(&[]);
        assert!(p.stacks.is_empty());
        assert!(p.workers.is_empty());
        assert!(p.devices.is_empty());
        assert_eq!(p.modelled_makespan, 0.0);
        let text = p.roofline().to_text();
        assert!(text.contains("no device activity"));
        assert!(!text.contains("NaN") && !text.contains("inf"));
        assert!(p.to_json().contains("\"stacks\""));
    }

    #[test]
    fn unprofiled_journal_still_folds_task_level_stacks() {
        // Without phase spans (profiling off), tasks become leaves.
        let obs = Obs::enabled();
        obs.span(Track::Worker(2), 0.0, 0.5, Some((0.0, 1.0)), job(7, None));
        let p = profile(&obs.events_since(0));
        assert_eq!(p.stacks.len(), 1);
        assert_eq!(p.stacks[0].frames, vec!["worker:2", "task-7"]);
        assert!((p.root_total("worker:2", ProfileClock::Modelled) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn roofline_text_never_prints_nan() {
        let p = profile(&sample_events());
        let text = p.roofline().to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        assert!(text.contains("transfer-bound"));
        assert!(text.contains("device 1:"));
    }
}
