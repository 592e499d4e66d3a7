//! The simulated GPU device: database residency, batched SW kernels,
//! virtual clock and counters.
//!
//! Two independent halves: a **timing model** that advances the
//! *simulated* clock and a **functional scorer** that produces the
//! scores in *host* time. Neither reads the other.
//!
//! Timing model (one kernel = one query against a resident database
//! chunk, the CUDASW++ task shape):
//!
//! * Subjects are processed in **warps** of `warp_size` lanes running in
//!   lock-step; a warp occupies the pipeline until its *longest* subject
//!   finishes, so the cost of a warp is `query_len · warp_size ·
//!   max_subject_len` cells — shorter lanes are padding waste. Sorting
//!   the database by length (which [`GpuDevice::upload`] can do, like
//!   CUDASW++'s pre-sorted database) recovers most of that waste.
//! * Padded cells are charged at the query-length-dependent effective
//!   rate of [`DeviceSpec::effective_gcups`], plus a fixed kernel launch
//!   latency, by one function shared by prediction and execution over
//!   two residue totals: of the whole residency, or of the slice of its
//!   length order a kernel covers (a difference of prefix sums either
//!   way).
//!
//! Functional scorer: the host's fastest exact kernel — `swdual-align`'s
//! runtime-dispatched tier ladder, the call a CPU worker makes — over
//! the caller's sequences in place.

use crate::memory::{Allocation, DeviceMemory, MemoryError};
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;
use swdual_align::{score_database, Scratch, Subjects, TierStats};
use swdual_bio::ScoringScheme;
use swdual_obs::{EventBody, Obs, Track};

/// Error surfaced when an injected device fault fires: the board is
/// gone and every subsequent kernel or transfer fails. Mirrors what a
/// real accelerator runtime reports when a device drops off the bus
/// mid-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// Kernels the device completed before failing.
    pub after_kernels: u64,
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulated GPU device failed after {} kernel(s)",
            self.after_kernels
        )
    }
}

impl std::error::Error for DeviceFault {}

/// Counters accumulated over the device's lifetime, each transfer,
/// kernel and fault added as it happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Useful DP cells (query × subject residues actually compared).
    pub useful_cells: u64,
    /// Cells charged including warp padding.
    pub padded_cells: u64,
    /// Bytes moved host→device.
    pub bytes_h2d: u64,
    /// Seconds of simulated busy time (kernels + transfers).
    pub busy_seconds: f64,
    /// Device failures recorded (0 or 1: a failed device stays failed).
    pub faults: u64,
}

impl DeviceStats {
    /// Fraction of charged cells that were useful (1.0 = no padding
    /// waste).
    pub fn warp_efficiency(&self) -> f64 {
        if self.padded_cells == 0 {
            1.0
        } else {
            self.useful_cells as f64 / self.padded_cells as f64
        }
    }
}

/// Result of one simulated kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Exact local-alignment score per sequence: in database order from
    /// [`GpuDevice::search`], in the slice's order from
    /// [`GpuDevice::search_slice`].
    pub scores: Vec<i32>,
    /// Simulated execution time of the kernel in seconds (not the host
    /// time the scores took to compute).
    pub kernel_seconds: f64,
}

/// A database resident in device memory: what the timing model needs of
/// the device layout (sorted or not) and the host sequences, owned or
/// borrowed from the search, for the functional scorer.
#[derive(Debug)]
pub struct ResidentDb<'a> {
    allocation: Allocation,
    /// The uploaded sequences, scored in place, with the length order
    /// and its residue prefix sums.
    subjects: Cow<'a, Subjects<'a>>,
    /// The device layout is the length order (else the order given).
    sorted: bool,
    /// Lanes of a warp of the device it is resident on.
    warp_size: usize,
    /// `padded_before[w]`: lanes × longest lane summed over the first
    /// `w` warps of the device layout.
    padded_before: Vec<u64>,
}

impl ResidentDb<'_> {
    /// Number of resident sequences.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// True when no sequences are resident.
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// What a kernel over `slice` of the length order is charged for.
    /// The whole residency, and any slice of a sorted one that starts
    /// and ends on warp boundaries, is a difference of prefix sums; any
    /// other slice packs its own warps from its first subject.
    fn footprint(&self, slice: Range<usize>) -> Footprint {
        let (n, warp_size) = (self.subjects.len(), self.warp_size);
        let on_warps = slice.start.is_multiple_of(warp_size)
            && (slice.end.is_multiple_of(warp_size) || slice.end == n);
        if slice == (0..n) || (self.sorted && on_warps) {
            let warps = slice.start / warp_size..slice.end.div_ceil(warp_size);
            Footprint {
                total_residues: self.subjects.residues_in(slice),
                padded_residues: self.padded_before[warps.end] - self.padded_before[warps.start],
            }
        } else {
            Footprint::of(self.subjects.lengths(slice), warp_size).0
        }
    }
}

/// What the timing model charges a kernel for: two residue totals of
/// the subjects it covers.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    /// Σ subject lengths.
    total_residues: u64,
    /// Σ over warps of lanes × longest lane.
    padded_residues: u64,
}

impl Footprint {
    /// The footprint of subjects packed `warp_size` to a warp in the
    /// order given, and the padded residues before each warp boundary
    /// (a leading zero, then one running total per warp).
    fn of(
        lengths_in_device_order: impl IntoIterator<Item = usize>,
        warp_size: usize,
    ) -> (Footprint, Vec<u64>) {
        let mut footprint = Footprint {
            total_residues: 0,
            padded_residues: 0,
        };
        let mut padded_before = vec![0];
        // The warp being filled: its lanes and its longest lane.
        let (mut lanes, mut longest) = (0, 0);
        for len in lengths_in_device_order {
            footprint.total_residues += len as u64;
            lanes += 1;
            longest = longest.max(len);
            if lanes == warp_size {
                footprint.padded_residues += (longest * lanes) as u64;
                padded_before.push(footprint.padded_residues);
                (lanes, longest) = (0, 0);
            }
        }
        if lanes > 0 {
            footprint.padded_residues += (longest * lanes) as u64;
            padded_before.push(footprint.padded_residues);
        }
        (footprint, padded_before)
    }

    /// The timing model of one kernel launch: `(useful_cells,
    /// padded_cells, simulated seconds)` for a query of `query_len`.
    /// The only place kernel time is computed, so prediction and
    /// execution cannot disagree.
    fn kernel_cost(&self, spec: &DeviceSpec, query_len: usize) -> (u64, u64, f64) {
        let useful_cells = self.total_residues * query_len as u64;
        let padded_cells = self.padded_residues * query_len as u64;
        let seconds = if query_len == 0 {
            spec.kernel_launch_latency
        } else {
            let rate = spec.effective_gcups(query_len) * 1e9;
            spec.kernel_launch_latency + padded_cells as f64 / rate
        };
        (useful_cells, padded_cells, seconds)
    }
}

/// One simulated GPU.
///
/// ```
/// use swdual_gpusim::{DeviceSpec, GpuDevice};
/// use swdual_bio::{Alphabet, ScoringScheme, Sequence, SequenceSet};
///
/// let mut db = SequenceSet::new(Alphabet::Protein);
/// db.push(Sequence::from_text("d0", Alphabet::Protein, b"MKWVTFISLL").unwrap()).unwrap();
///
/// let mut device = GpuDevice::new(DeviceSpec::tesla_c2050());
/// let resident = device.upload(&db, true).unwrap();
/// let query = Alphabet::Protein.encode(b"MKWVTF").unwrap();
/// let result = device.search(&query, &resident, &ScoringScheme::protein_default());
/// assert_eq!(result.scores.len(), 1);
/// assert!(device.clock() > 0.0); // transfers + kernel on the virtual clock
/// ```
#[derive(Debug)]
pub struct GpuDevice {
    spec: DeviceSpec,
    memory: DeviceMemory,
    clock: f64,
    stats: DeviceStats,
    obs: Obs,
    obs_device_id: usize,
    /// Injected fault: the device dies once this many kernels have
    /// completed. `None` = healthy forever.
    fail_after_kernels: Option<u64>,
    /// Task currently being served, stamped onto every stage span
    /// (H2D / kernel / D2H) as causal lineage. `None` outside a task
    /// (e.g. the resident-database upload shared by all tasks).
    lineage_task: Option<usize>,
    /// The functional scorer's kernel working memory.
    scratch: Scratch,
}

impl GpuDevice {
    /// Bring up a device of the given spec with an empty memory and a
    /// zeroed clock.
    pub fn new(spec: DeviceSpec) -> GpuDevice {
        let memory = DeviceMemory::new(spec.global_memory);
        GpuDevice {
            spec,
            memory,
            clock: 0.0,
            stats: DeviceStats::default(),
            obs: Obs::disabled(),
            obs_device_id: 0,
            fail_after_kernels: None,
            lineage_task: None,
            scratch: Scratch::default(),
        }
    }

    /// Set (or clear) the task whose work the device is about to do.
    /// Subsequent stage spans carry a `task` arg linking them into the
    /// journal's dispatch → H2D → kernel → D2H causal chain.
    pub fn set_lineage(&mut self, task: Option<usize>) {
        self.lineage_task = task;
    }

    /// Inject a deterministic fault: the device fails once `n` kernels
    /// have completed (`n = 0` means it fails on first use). The fault
    /// surfaces through [`GpuDevice::check_fault`] /
    /// [`GpuDevice::try_search`] as a [`DeviceFault`].
    pub fn inject_fault_after_kernels(&mut self, n: u64) {
        self.fail_after_kernels = Some(n);
    }

    /// Poll the injected fault. The first failing call counts the
    /// fault in [`GpuDevice::stats`] and records an obs instant; every
    /// later call keeps failing without counting it again.
    pub fn check_fault(&mut self) -> Result<(), DeviceFault> {
        let after_kernels = self.stats.kernels;
        let fault = DeviceFault { after_kernels };
        if self.stats.faults > 0 {
            return Err(fault);
        }
        match self.fail_after_kernels {
            Some(n) if after_kernels >= n => {
                self.stats.faults += 1;
                self.obs.instant(
                    Track::Device(self.obs_device_id),
                    EventBody::DeviceFault { after_kernels },
                );
                Err(fault)
            }
            _ => Ok(()),
        }
    }

    /// Route this device's kernel/transfer events to `obs` as spans on
    /// [`Track::Device`]`(device_id)`.
    /// Announces the spec (peak rate, PCIe bandwidth, launch latency)
    /// as a `device_spec` instant so post-hoc profilers can draw the
    /// roofline for this device from the journal alone.
    pub fn attach_obs(&mut self, obs: Obs, device_id: usize) {
        self.obs = obs;
        self.obs_device_id = device_id;
        self.obs.instant(
            Track::Device(device_id),
            EventBody::DeviceSpec {
                peak_gcups: self.spec.peak_gcups,
                pcie_bytes_per_sec: self.spec.pcie_bytes_per_sec,
                kernel_launch_latency: self.spec.kernel_launch_latency,
                warp_size: self.spec.warp_size,
            },
        );
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current virtual time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Device memory state.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Upload a database to the device, charging the PCIe transfer to
    /// the clock. `sort_by_length` mimics CUDASW++'s pre-sorted database
    /// layout, which minimises warp padding. The residency borrows the
    /// residues `database` borrows — an [`SqbImage`](swdual_bio::SqbImage),
    /// a [`SequenceSet`](swdual_bio::SequenceSet) or one chunk of either —
    /// and takes every length from their slices; nothing is copied on
    /// the host. It owns the [`Subjects`] built here: a search that has
    /// them already hands them to [`GpuDevice::upload_shared`].
    pub fn upload<'a>(
        &mut self,
        database: impl Into<Subjects<'a>>,
        sort_by_length: bool,
    ) -> Result<ResidentDb<'a>, MemoryError> {
        self.make_resident(Cow::Owned(database.into()), sort_by_length)
    }

    /// [`GpuDevice::upload`] of subjects the caller keeps — a search's,
    /// borrowed from its image: the residency borrows them, in their
    /// length order, and lays nothing out.
    pub fn upload_shared<'a>(
        &mut self,
        subjects: &'a Subjects<'a>,
    ) -> Result<ResidentDb<'a>, MemoryError> {
        self.make_resident(Cow::Borrowed(subjects), true)
    }

    fn make_resident<'a>(
        &mut self,
        subjects: Cow<'a, Subjects<'a>>,
        sort_by_length: bool,
    ) -> Result<ResidentDb<'a>, MemoryError> {
        let wall_start = self.obs.now();
        let warp_size = self.spec.warp_size.max(1);
        let (footprint, padded_before) = if sort_by_length {
            // Descending length: warps see near-equal neighbours. The
            // order is the one the host kernel batches in.
            Footprint::of(subjects.lengths(subjects.whole()), warp_size)
        } else {
            Footprint::of(subjects.lengths_in_database_order(), warp_size)
        };
        let bytes = footprint.total_residues;
        let allocation = self.memory.alloc(bytes)?;

        let t = self.spec.transfer_time(bytes);
        let start = self.clock;
        self.clock += t;
        self.stats.bytes_h2d += bytes;
        self.stats.busy_seconds += t;
        self.obs.span(
            Track::Device(self.obs_device_id),
            wall_start,
            self.obs.now() - wall_start,
            Some((start, t)),
            EventBody::H2d {
                bytes: bytes as f64,
                task: self.lineage_task,
            },
        );
        Ok(ResidentDb {
            allocation,
            subjects,
            sorted: sort_by_length,
            warp_size,
            padded_before,
        })
    }

    /// Release a resident database.
    pub fn release(&mut self, db: ResidentDb) -> Result<(), MemoryError> {
        self.memory.release(db.allocation)
    }

    /// Fault-aware kernel launch: polls the injected fault first, then
    /// runs [`GpuDevice::search`]. Workers drive the device through this
    /// entry point so an injected device failure surfaces as an error
    /// instead of silently returning scores from a dead board.
    pub fn try_search(
        &mut self,
        query: &[u8],
        db: &ResidentDb,
        scheme: &ScoringScheme,
    ) -> Result<KernelResult, DeviceFault> {
        self.check_fault()?;
        Ok(self.search(query, db, scheme))
    }

    /// Launch one search kernel: `query` against the whole resident
    /// database. Returns exact scores (in the database's *original*
    /// order) and advances the virtual clock by the modelled kernel
    /// time, whatever the host took to produce them.
    pub fn search(
        &mut self,
        query: &[u8],
        db: &ResidentDb,
        scheme: &ScoringScheme,
    ) -> KernelResult {
        let mut result = self.search_slice(query, db, db.subjects.whole(), scheme);
        result.scores = db.subjects.in_database_order(&result.scores);
        result
    }

    /// Launch one search kernel over `slice` of the resident database's
    /// length order — the unit a runtime job covers. Scores come back in
    /// the slice's order; the clock advances by the modelled time of a
    /// kernel over just those subjects.
    ///
    /// # Panics
    /// When `slice` is not a range of positions of the length order.
    pub fn search_slice(
        &mut self,
        query: &[u8],
        db: &ResidentDb,
        slice: Range<usize>,
        scheme: &ScoringScheme,
    ) -> KernelResult {
        let wall_start = self.obs.now();
        // Functional scorer: host time, the CPU worker's call.
        let (scores, _) = score_database(
            query,
            &db.subjects,
            slice.clone(),
            scheme,
            &mut self.scratch,
            &mut TierStats::default(),
        );
        let kernel_seconds = self.launch(query.len(), db, slice, wall_start);
        KernelResult {
            scores,
            kernel_seconds,
        }
    }

    /// The kernel [`GpuDevice::search_slice`] would launch for a query of
    /// `query_len` over `slice`, without scoring it — the scores were
    /// computed elsewhere. Polls the injected fault first, then advances
    /// the clock and the kernel count exactly as the search would, and
    /// returns the kernel's modelled seconds.
    ///
    /// # Panics
    /// When `slice` is not a range of positions of the length order.
    pub fn charge_slice(
        &mut self,
        query_len: usize,
        db: &ResidentDb,
        slice: Range<usize>,
    ) -> Result<f64, DeviceFault> {
        self.check_fault()?;
        let wall_start = self.obs.now();
        Ok(self.launch(query_len, db, slice, wall_start))
    }

    /// The timing model's half of a kernel over `slice`, whose host work
    /// began at `wall_start`: advance the clock, count the launch,
    /// journal its spans. Returns the modelled seconds.
    fn launch(
        &mut self,
        query_len: usize,
        db: &ResidentDb,
        slice: Range<usize>,
        wall_start: f64,
    ) -> f64 {
        let subjects = slice.len();
        // Timing model: simulated time, from lengths alone.
        let footprint = db.footprint(slice);
        let (useful, padded, kernel_seconds) = footprint.kernel_cost(&self.spec, query_len);
        let start = self.clock;
        self.clock += kernel_seconds;
        self.stats.kernels += 1;
        self.stats.useful_cells += useful;
        self.stats.padded_cells += padded;
        self.stats.busy_seconds += kernel_seconds;
        let wall_dur = self.obs.now() - wall_start;
        let task = self.lineage_task;
        self.obs.span(
            Track::Device(self.obs_device_id),
            wall_start,
            wall_dur,
            Some((start, kernel_seconds)),
            EventBody::Kernel {
                useful_cells: useful as f64,
                padded_cells: padded as f64,
                query_len,
                task,
            },
        );
        if self.obs.is_profiling() {
            // CUPTI-style phase attribution: the modelled kernel time
            // splits into the fixed dispatch latency and the warp-padded
            // compute that follows it; the measured wall time is carved
            // up in the same proportions. These spans subdivide the
            // `kernel` span above — they never advance the clock.
            let launch = self.spec.kernel_launch_latency.min(kernel_seconds);
            let compute = kernel_seconds - launch;
            let launch_frac = if kernel_seconds > 0.0 {
                launch / kernel_seconds
            } else {
                0.0
            };
            let track = Track::Device(self.obs_device_id);
            self.obs.span(
                track,
                wall_start,
                wall_dur * launch_frac,
                Some((start, launch)),
                EventBody::KernelLaunch { task },
            );
            self.obs.span(
                track,
                wall_start + wall_dur * launch_frac,
                wall_dur * (1.0 - launch_frac),
                Some((start + launch, compute)),
                EventBody::KernelCompute { task },
            );
            // Score readback. The simulator models it as overlapped
            // async readback from pinned memory, so it is recorded for
            // the roofline's byte accounting but does NOT advance the
            // device clock — profiling must never perturb the modelled
            // timing the scheduler's bounds are checked against.
            let d2h_bytes = 4.0 * subjects as f64;
            self.obs.span(
                track,
                wall_start + wall_dur,
                0.0,
                Some((
                    start + kernel_seconds,
                    self.spec.transfer_time(d2h_bytes as u64),
                )),
                EventBody::D2h {
                    bytes: d2h_bytes,
                    task,
                },
            );
        }
        kernel_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_align::scalar::gotoh_score;
    use swdual_bio::seq::{Sequence, SequenceSet};
    use swdual_bio::Alphabet;

    fn db(texts: &[&str]) -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, t) in texts.iter().enumerate() {
            set.push(
                Sequence::from_text(format!("d{i}"), Alphabet::Protein, t.as_bytes()).unwrap(),
            )
            .unwrap();
        }
        set
    }

    fn scheme() -> ScoringScheme {
        ScoringScheme::protein_default()
    }

    #[test]
    fn upload_charges_transfer_and_memory() {
        let mut dev = GpuDevice::new(DeviceSpec::toy(1000));
        let database = db(&["MKVLAT", "GGAR"]);
        let resident = dev.upload(&database, false).unwrap();
        assert_eq!(resident.len(), 2);
        assert_eq!(dev.memory().used(), 10);
        assert!(dev.clock() > 0.0);
        assert_eq!(dev.stats().bytes_h2d, 10);
        dev.release(resident).unwrap();
        assert_eq!(dev.memory().used(), 0);
    }

    #[test]
    fn oversized_database_is_rejected() {
        let mut dev = GpuDevice::new(DeviceSpec::toy(5));
        let database = db(&["MKVLAT", "GGAR"]); // 10 residues
        assert!(dev.upload(&database, false).is_err());
        // Clock must not advance on a failed upload.
        assert_eq!(dev.clock(), 0.0);
    }

    #[test]
    fn kernel_scores_are_exact_in_original_order() {
        let mut dev = GpuDevice::new(GpuDevice::new(DeviceSpec::toy(10_000)).spec.clone());
        let database = db(&["MKVLATGGAR", "MK", "GGARMKVLAT", "WWWW"]);
        let resident = dev.upload(&database, true).unwrap(); // sorted residency
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
        let result = dev.search(&query, &resident, &scheme());
        for (i, seq) in database.iter().enumerate() {
            assert_eq!(
                result.scores[i],
                gotoh_score(&query, seq.codes(), &scheme()),
                "db sequence {i}"
            );
        }
        assert!(result.kernel_seconds > 0.0);
        assert_eq!(dev.stats().kernels, 1);
    }

    #[test]
    fn sorted_residency_improves_warp_efficiency() {
        // Wildly mixed lengths: unsorted warps pay heavy padding.
        let texts: Vec<String> = (0..32)
            .map(|i| {
                if i % 2 == 0 {
                    "M".repeat(400)
                } else {
                    "M".repeat(10)
                }
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let database = db(&refs);
        let query = Alphabet::Protein.encode(&[b'K'; 200]).unwrap();

        let mut unsorted_dev = GpuDevice::new(DeviceSpec::toy(100_000));
        let r = unsorted_dev.upload(&database, false).unwrap();
        unsorted_dev.search(&query, &r, &scheme());

        let mut sorted_dev = GpuDevice::new(DeviceSpec::toy(100_000));
        let r = sorted_dev.upload(&database, true).unwrap();
        sorted_dev.search(&query, &r, &scheme());

        assert!(
            sorted_dev.stats().warp_efficiency() > unsorted_dev.stats().warp_efficiency(),
            "sorted {} <= unsorted {}",
            sorted_dev.stats().warp_efficiency(),
            unsorted_dev.stats().warp_efficiency()
        );
        // Sorted is also faster on the clock.
        assert!(sorted_dev.clock() < unsorted_dev.clock());
    }

    #[test]
    fn injected_fault_fires_after_threshold_and_is_logged_once() {
        let (mut dev, obs) = journaled(DeviceSpec::toy(10_000));
        dev.inject_fault_after_kernels(2);
        let database = db(&["MKVLAT", "GGAR"]);
        let resident = dev.upload(&database, false).unwrap();
        let query = Alphabet::Protein.encode(b"MKVL").unwrap();
        // Two kernels succeed.
        assert!(dev.try_search(&query, &resident, &scheme()).is_ok());
        assert!(dev.try_search(&query, &resident, &scheme()).is_ok());
        // The third fails — and keeps failing.
        let err = dev.try_search(&query, &resident, &scheme()).unwrap_err();
        assert_eq!(err.after_kernels, 2);
        assert!(dev.check_fault().is_err());
        assert!(dev.try_search(&query, &resident, &scheme()).is_err());
        // Exactly one fault journaled, and counted in the stats.
        let faults = (obs.events_since(0).iter())
            .filter(|e| matches!(e.body, EventBody::DeviceFault { .. }))
            .count();
        assert_eq!(faults, 1);
        assert_eq!(dev.stats().faults, 1);
        assert_eq!(dev.stats().kernels, 2);
        assert!(err.to_string().contains("after 2"));
    }

    #[test]
    fn healthy_device_try_search_matches_search() {
        let mut a = GpuDevice::new(DeviceSpec::toy(10_000));
        let mut b = GpuDevice::new(DeviceSpec::toy(10_000));
        let database = db(&["MKVLATGGAR", "WWWW"]);
        let ra = a.upload(&database, true).unwrap();
        let rb = b.upload(&database, true).unwrap();
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
        let via_try = a.try_search(&query, &ra, &scheme()).unwrap();
        let via_plain = b.search(&query, &rb, &scheme());
        assert_eq!(via_try, via_plain);
    }

    #[test]
    fn fault_at_zero_kernels_fails_first_use() {
        let mut dev = GpuDevice::new(DeviceSpec::toy(10_000));
        dev.inject_fault_after_kernels(0);
        let database = db(&["MKVL"]);
        let resident = dev.upload(&database, false).unwrap();
        let query = Alphabet::Protein.encode(b"MK").unwrap();
        assert!(dev.try_search(&query, &resident, &scheme()).is_err());
        assert_eq!(dev.stats().kernels, 0);
    }

    #[test]
    fn empty_query_costs_only_launch_latency() {
        let mut dev = GpuDevice::new(DeviceSpec::toy(1000));
        let database = db(&["MKVL"]);
        let resident = dev.upload(&database, false).unwrap();
        let result = dev.search(&[], &resident, &scheme());
        assert_eq!(result.scores, vec![0]);
        assert!((result.kernel_seconds - dev.spec().kernel_launch_latency).abs() < 1e-12);
    }

    #[test]
    fn profiling_emits_phase_spans_without_perturbing_the_clock() {
        let database = db(&["MKVLATGGAR", "MKVL", "GGARMKVLATAAAA"]);
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();

        let run = |profiling: bool| {
            let obs = Obs::enabled();
            obs.set_profiling(profiling);
            let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
            dev.attach_obs(obs.clone(), 0);
            let resident = dev.upload(&database, true).unwrap();
            dev.search(&query, &resident, &ScoringScheme::protein_default());
            (dev.clock(), obs.events_since(0))
        };
        let (clock_off, events_off) = run(false);
        let (clock_on, events_on) = run(true);

        // Profiling must not change the modelled timeline.
        assert_eq!(clock_off, clock_on);

        // Unprofiled runs carry no phase detail.
        assert!(events_off.iter().all(|e| !e.body.is_profile_detail()));
        // Profiled runs carry launch, compute and the overlapped D2H;
        // launch + compute tile the kernel span exactly.
        let virt = |is: fn(&EventBody) -> bool| {
            let span = events_on.iter().find(|e| is(&e.body));
            span.and_then(|e| e.virt_dur).expect("span is journaled")
        };
        let launch = virt(|b| matches!(b, EventBody::KernelLaunch { .. }));
        let compute = virt(|b| matches!(b, EventBody::KernelCompute { .. }));
        let kernel = virt(|b| matches!(b, EventBody::Kernel { .. }));
        assert!((launch + compute - kernel).abs() < 1e-15);
        virt(|b| matches!(b, EventBody::D2h { .. }));
        // The spec instant announces the roofline parameters, and the
        // kernel span names its query length.
        let spec = DeviceSpec::tesla_c2050();
        assert!(events_on.iter().any(|e| matches!(
            e.body,
            EventBody::DeviceSpec { peak_gcups, .. } if peak_gcups == spec.peak_gcups
        )));
        assert!(events_on.iter().any(|e| matches!(
            e.body,
            EventBody::Kernel { query_len, .. } if query_len == query.len()
        )));
    }

    #[test]
    fn device_activity_reaches_a_live_follower() {
        // The device records through the shared `Obs`, so a follower
        // whose cursor was taken before the kernel ran must see the
        // Device-track spans, in journal order.
        let obs = Obs::enabled();
        obs.instant(Track::Master, EventBody::other("before"));
        let cursor = obs.event_count();
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        dev.attach_obs(obs.clone(), 3);
        let database = db(&["MKVLATGGAR", "MKVL", "GGARMKVLATAAAA"]);
        let resident = dev.upload(&database, true).unwrap();
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
        dev.search(&query, &resident, &scheme());

        let live = obs.events_since(cursor);
        let on_device = || live.iter().filter(|e| e.track == Track::Device(3));
        assert!(on_device().any(|e| matches!(e.body, EventBody::H2d { .. })));
        assert!(on_device().any(|e| matches!(e.body, EventBody::Kernel { .. })));
        // The live feed is the journal from the cursor on.
        assert_eq!(live, obs.events_since(0)[cursor..]);
    }

    #[test]
    fn longer_queries_run_at_higher_gcups() {
        // Same database; query 10x longer must take < 10x+launch time
        // (rate improves with length).
        let database_texts: Vec<String> = (0..64).map(|_| "M".repeat(300)).collect();
        let refs: Vec<&str> = database_texts.iter().map(|s| s.as_str()).collect();
        let database = db(&refs);
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let resident = dev.upload(&database, true).unwrap();
        let mut seconds = |len| {
            dev.search(&vec![4u8; len], &resident, &scheme())
                .kernel_seconds
        };
        let (short, long) = (seconds(100), seconds(1000));
        let launch = dev.spec().kernel_launch_latency;
        assert!(long - launch < 10.0 * (short - launch));
    }

    /// The kernels a device journaled to `obs`: `(useful, padded)` cells.
    fn kernel_cells(obs: &Obs) -> Vec<(u64, u64)> {
        let cells = |e: &swdual_obs::Event| match e.body {
            EventBody::Kernel {
                useful_cells,
                padded_cells,
                ..
            } => Some((useful_cells as u64, padded_cells as u64)),
            _ => None,
        };
        obs.events_since(0).iter().filter_map(cells).collect()
    }

    /// What a device journaled to `obs` on the modelled clock: each
    /// event's modelled start and duration and its body.
    fn modelled(obs: &Obs) -> Vec<(Option<f64>, Option<f64>, EventBody)> {
        let events = obs.events_since(0).into_iter();
        events.map(|e| (e.virt_start, e.virt_dur, e.body)).collect()
    }

    /// A device journaling to an enabled recorder of its own.
    fn journaled(spec: DeviceSpec) -> (GpuDevice, Obs) {
        let (mut dev, obs) = (GpuDevice::new(spec), Obs::enabled());
        dev.attach_obs(obs.clone(), 0);
        (dev, obs)
    }

    #[test]
    fn a_sliced_kernel_scores_and_charges_its_own_subjects() {
        // Ten subjects of lengths 12, 11, … 3 on a 4-lane device: warps
        // of the length order are [12 11 10 9] [8 7 6 5] [4 3].
        let texts: Vec<String> = (3..13)
            .map(|len| "MKVLATGGARND"[..len].to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let database = db(&refs);
        let subjects = Subjects::from(&database);
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
        let (mut dev, obs) = journaled(DeviceSpec::toy(10_000));
        let resident = dev.upload_shared(&subjects).unwrap();
        let whole = dev.search_slice(&query, &resident, 0..10, &scheme());
        assert_eq!(
            subjects.in_database_order(&whole.scores),
            dev.search(&query, &resident, &scheme()).scores
        );

        // Cut on warp boundaries, the slices are the whole: scores,
        // useful and padded cells, and all but a launch of the time.
        let head = dev.search_slice(&query, &resident, 0..4, &scheme());
        let tail = dev.search_slice(&query, &resident, 4..10, &scheme());
        assert_eq!([&head.scores[..], &tail.scores[..]].concat(), whole.scores);
        let cells = kernel_cells(&obs);
        assert_eq!(cells[0], (6 * 75, 6 * (48 + 32 + 8)));
        assert_eq!(cells[2], (6 * 42, 6 * 48));
        assert_eq!(cells[3], (6 * 33, 6 * (32 + 8)));
        let launch = dev.spec().kernel_launch_latency;
        let sliced = head.kernel_seconds + tail.kernel_seconds;
        assert!((sliced - launch - whole.kernel_seconds).abs() < 1e-15);

        // Cut anywhere else, a slice packs its own warps from its first
        // subject: [11 10 9 8] [7 6].
        let ragged = dev.search_slice(&query, &resident, 1..7, &scheme());
        assert_eq!(ragged.scores, whole.scores[1..7]);
        assert_eq!(kernel_cells(&obs)[4], (6 * 51, 6 * (44 + 14)));
        // And an empty slice is a launch and nothing else.
        let empty = dev.search_slice(&query, &resident, 4..4, &scheme());
        assert!(empty.scores.is_empty());
        assert_eq!(empty.kernel_seconds, launch);
    }

    #[test]
    fn a_charged_kernel_is_the_searched_kernel_without_its_scores() {
        let database = db(&["MKVLATGGAR", "MK", "GGARMKVLAT", "WWWW", "MKVLA"]);
        let subjects = Subjects::from(&database);
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
        let (mut searched, searched_obs) = journaled(DeviceSpec::toy(10_000));
        let (mut charged, charged_obs) = journaled(DeviceSpec::toy(10_000));
        for device in [&mut searched, &mut charged] {
            device.inject_fault_after_kernels(2);
        }
        let a = searched.upload_shared(&subjects).unwrap();
        let b = charged.upload_shared(&subjects).unwrap();
        for slice in [0..5, 1..3] {
            searched.check_fault().unwrap();
            let kernel = searched.search_slice(&query, &a, slice.clone(), &scheme());
            let seconds = charged.charge_slice(query.len(), &b, slice).unwrap();
            assert_eq!(seconds, kernel.kernel_seconds);
        }
        assert_eq!(modelled(&searched_obs), modelled(&charged_obs));
        assert_eq!(searched.stats(), charged.stats());
        // The same fault fires at the same kernel count.
        assert_eq!(
            charged.charge_slice(query.len(), &b, 0..5),
            searched.check_fault().map(|()| 0.0)
        );
        assert_eq!(modelled(&searched_obs), modelled(&charged_obs));
        assert_eq!(searched.stats(), charged.stats());
    }

    #[test]
    fn a_shared_order_gives_the_residency_an_owned_one_gives() {
        let database = db(&["MKVLATGGAR", "MK", "GGARMKVLAT", "WWWW", "MKVLA"]);
        let subjects = Subjects::from(&database);
        let query = Alphabet::Protein.encode(b"MKVLAT").unwrap();
        let (mut owned, owned_obs) = journaled(DeviceSpec::toy(10_000));
        let (mut shared, shared_obs) = journaled(DeviceSpec::toy(10_000));
        let a = owned.upload(&database, true).unwrap();
        let b = shared.upload_shared(&subjects).unwrap();
        assert_eq!(
            owned.search(&query, &a, &scheme()),
            shared.search(&query, &b, &scheme())
        );
        assert_eq!(modelled(&owned_obs), modelled(&shared_obs));
        assert_eq!(owned.stats(), shared.stats());
    }
}
