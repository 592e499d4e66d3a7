//! SWIPE-style tiered scoring pipeline: byte lanes first, 16-bit lanes
//! on saturation, scalar `i32` Gotoh as the last resort.
//!
//! SWIPE \[9\] scores every subject with saturated byte arithmetic and
//! only re-scores the (rare, high-scoring) sequences whose score could
//! have clamped. The byte kernel does twice the cells per vector of the
//! 16-bit kernel, and for a typical database >99% of subjects resolve
//! in bytes, so the pipeline's throughput is essentially byte-kernel
//! throughput with an escalation tax proportional to the hit rate.
//!
//! [`score_database`] is the one database-level entry point — the CPU
//! worker and the simulated device's functional scorer both score a
//! query against a database, or a slice of its length order,
//! through it. The database's [`Subjects`] are the blocks of an SQB
//! version-3 image, each a refilled inter-sequence stream
//! ([`crate::interseq`], many subjects per vector) scored where it lies.
//! The byte tier's *shape* is picked once per block: a block whose
//! stream fills too few of its cells for the query's length
//! ([`Backend::interseq_min_fill`], measured) goes through Farrar's
//! striped kernel subject by subject instead, each subject gathered
//! from its lane. Both shapes
//! share one bias and one saturation limit, so they escalate exactly the
//! same subjects and [`TierStats`] does not depend on the pick.
//! Escalations run the striped 16-bit kernel from a [`QueryProfiles`]
//! bundle that is built only when first needed, at most once per call:
//! every task is one query against the database or a slice of it, so
//! no worker scores the same query twice.
//!
//! [`score_run_with`] is the entry point for a CPU worker's *run*: its
//! next tasks on one slice, scored transposed — the queries as the
//! stream, each subject down the rows — when they fill the lanes better
//! than the slice's subjects do. The master forms runs with one pure
//! pick, [`Backend::run_length`], from [`Backend::joins_runs`],
//! [`Backend::slice_fill`] and the [`transposes`] check on the scheme;
//! the worker never re-decides. Each pair escalates on the same byte
//! maximum, through its query's striped ladder, so scores and
//! [`TierStats`] are those of one-query jobs.
//!
//! [`TierStats`] counts how many subjects each tier resolved; each
//! runtime worker journals its totals when its queue closes, so the
//! escalation rate can be read back from a journal.

use crate::dispatch::{Backend, QueryProfiles};
use crate::interseq::{byte_scheme, StreamRef, Tables};
use crate::scalar::gotoh_score;
use crate::scratch::Scratch;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::ops::Range;
use std::time::Instant;
use swdual_bio::lanes::{self, Start, Stream, BLOCK_RECORDS, LANES};
use swdual_bio::{ScoringScheme, Sequence, SequenceSet, SqbImage};

/// Where each subject of a job was resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Subjects scored in total.
    pub subjects: u64,
    /// Resolved by the saturated byte kernel.
    pub byte_resolved: u64,
    /// Escalated to (and resolved by) the 16-bit kernel.
    pub escalated_16: u64,
    /// Escalated all the way to the scalar `i32` kernel.
    pub escalated_scalar: u64,
}

impl TierStats {
    /// Merge another job's counts into this one.
    pub fn merge(&mut self, other: &TierStats) {
        self.subjects += other.subjects;
        self.byte_resolved += other.byte_resolved;
        self.escalated_16 += other.escalated_16;
        self.escalated_scalar += other.escalated_scalar;
    }
}

/// Wall-clock seconds a scoring call spent in each host phase.
/// The profiler's phase taxonomy for CPU workers: query-profile setup
/// and the DP inner loop (the search is score-only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Seconds of per-query setup: the inter-sequence score tables and
    /// any striped profile build.
    pub profile_build: f64,
    /// Seconds in the DP recurrences: laying out the inter-sequence
    /// stream, every tier's kernel, escalations.
    pub dp_inner: f64,
}

impl PhaseTimings {
    /// Total seconds across all phases.
    pub fn total(&self) -> f64 {
        self.profile_build + self.dp_inner
    }
}

/// Score one subject through the striped tier ladder. Always returns
/// the exact Gotoh local-alignment score; `stats` records which tier
/// resolved it.
#[inline]
pub fn tiered_score(
    profiles: &QueryProfiles,
    subject: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut Scratch,
    stats: &mut TierStats,
) -> i32 {
    stats.subjects += 1;
    if let Some(score) = profiles.score8(subject, scheme, scratch) {
        stats.byte_resolved += 1;
        return score;
    }
    escalate(profiles, subject, scheme, scratch, stats)
}

/// The ladder above the byte tier: 16-bit lanes, then scalar.
fn escalate(
    profiles: &QueryProfiles,
    subject: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut Scratch,
    stats: &mut TierStats,
) -> i32 {
    if let Some(score) = profiles.score16(subject, scheme, scratch) {
        stats.escalated_16 += 1;
        return score;
    }
    stats.escalated_scalar += 1;
    gotoh_score(profiles.query(), subject, scheme)
}

/// A database as the search scores it: its records in length order
/// (longest first, ties in database order), laid out as one
/// [`swdual_bio::lanes`] stream per block of [`BLOCK_RECORDS`] of them,
/// with each record's database index, length and start, and the
/// residues that precede each position of the order. Borrowed from an
/// [`SqbImage`] — whose file holds exactly this layout, so nothing is
/// sorted or laid out per search — or laid out here from plain slices.
/// Built once per search and borrowed by every worker and device
/// residency; a *slice* — the unit a job scores — is a range of
/// positions of the length order, and one cut on multiples of
/// [`BLOCK_RECORDS`] is a range of whole blocks.
#[derive(Debug, Clone, Default)]
pub struct Subjects<'a> {
    /// Every block's stream, one after the other, [`LANES`] cells a
    /// column.
    columns: Cow<'a, [u8]>,
    /// Per block: its first column and its width.
    blocks: Vec<(usize, usize)>,
    /// Per position: where its block's stream starts the record.
    starts: Vec<Start>,
    /// Per position: the record's residues.
    lens: Vec<u32>,
    /// Per position: the record's database index.
    by_length: Vec<u32>,
    /// `residues_before[p]`: residues of the first `p` subjects of the
    /// length order (one entry more than there are subjects).
    residues_before: Vec<u64>,
}

impl<'a> Subjects<'a> {
    /// Lay `seqs` out as an SQB version-3 file would: sort their indices
    /// by length and deal each block of the order out to its stream.
    ///
    /// # Panics
    /// On more than `u32::MAX` subjects, or a block too long for its
    /// starts. No input file reaches either: an SQB header declaring
    /// more records is refused as malformed, the SQB writer refuses to
    /// write either, and FASTA reaches a search through that writer.
    pub fn new(seqs: Vec<&[u8]>) -> Subjects<'a> {
        let count = u32::try_from(seqs.len()).expect("at most u32::MAX subjects");
        let mut by_length: Vec<u32> = (0..count).collect();
        by_length.sort_by_key(|&i| Reverse(seqs[i as usize].len()));
        let mut columns = Vec::new();
        let mut blocks = Vec::with_capacity(by_length.len().div_ceil(BLOCK_RECORDS));
        let mut starts = Vec::with_capacity(by_length.len());
        for block in by_length.chunks(BLOCK_RECORDS) {
            let stream = Stream::lay_out(block.iter().map(|&i| seqs[i as usize]));
            blocks.push((columns.len() / LANES, stream.columns.len() / LANES));
            columns.extend_from_slice(&stream.columns);
            starts.extend(stream.starts);
        }
        let lens = by_length.iter().map(|&i| seqs[i as usize].len() as u32);
        Subjects::assemble(
            Cow::Owned(columns),
            blocks,
            starts,
            lens.collect(),
            by_length,
        )
    }

    fn assemble(
        columns: Cow<'a, [u8]>,
        blocks: Vec<(usize, usize)>,
        starts: Vec<Start>,
        lens: Vec<u32>,
        by_length: Vec<u32>,
    ) -> Subjects<'a> {
        let mut residues_before = Vec::with_capacity(lens.len() + 1);
        let mut held = 0u64;
        residues_before.push(held);
        for &len in &lens {
            held += u64::from(len);
            residues_before.push(held);
        }
        Subjects {
            columns,
            blocks,
            starts,
            lens,
            by_length,
            residues_before,
        }
    }

    /// Number of subjects.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when there is nothing to score.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The length order: database indices, longest subject first, ties
    /// in database order.
    pub fn order(&self) -> &[u32] {
        &self.by_length
    }

    /// The slice that is the whole database.
    pub fn whole(&self) -> Range<usize> {
        0..self.len()
    }

    /// Residues of all subjects.
    pub fn total_residues(&self) -> u64 {
        self.residues_before[self.len()]
    }

    /// Residues of the subjects of `slice`: a difference of two prefix
    /// sums.
    ///
    /// # Panics
    /// When `slice` is not a range of positions of the length order.
    pub fn residues_in(&self, slice: Range<usize>) -> u64 {
        self.residues_before[slice.end] - self.residues_before[slice.start]
    }

    /// The lengths of the subjects of `slice`, in the length order.
    ///
    /// # Panics
    /// When `slice` is not a range of positions of the length order.
    pub fn lengths(&self, slice: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        self.lens[slice].iter().map(|&len| len as usize)
    }

    /// Every subject's length, in database order.
    pub fn lengths_in_database_order(&self) -> Vec<usize> {
        let mut lengths = vec![0; self.len()];
        for (&i, &len) in self.by_length.iter().zip(&self.lens) {
            lengths[i as usize] = len as usize;
        }
        lengths
    }

    /// Gather the residues of the subject at `position` of the length
    /// order from its lane into `out`.
    ///
    /// # Panics
    /// When `position` is past the end.
    pub fn gather(&self, position: usize, out: &mut Vec<u8>) {
        let (first, width) = self.blocks[position / BLOCK_RECORDS];
        let columns = &self.columns[first * LANES..(first + width) * LANES];
        lanes::gather(
            columns,
            self.starts[position],
            self.lens[position] as usize,
            out,
        );
    }

    /// The residues of the subject at `position`, gathered.
    ///
    /// # Panics
    /// When `position` is past the end.
    pub fn residues(&self, position: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.gather(position, &mut out);
        out
    }

    /// The blocks that hold the positions of `slice`.
    fn blocks_of(&self, slice: &Range<usize>) -> Range<usize> {
        if slice.is_empty() {
            return 0..0;
        }
        slice.start / BLOCK_RECORDS..slice.end.div_ceil(BLOCK_RECORDS)
    }

    /// The positions block `block` holds.
    fn positions(&self, block: usize) -> Range<usize> {
        block * BLOCK_RECORDS..((block + 1) * BLOCK_RECORDS).min(self.len())
    }

    /// Block `block`'s stream.
    pub(crate) fn stream(&self, block: usize) -> StreamRef<'_> {
        let (first, width) = self.blocks[block];
        StreamRef {
            columns: self.columns[first * LANES..(first + width) * LANES]
                .as_chunks::<LANES>()
                .0,
            starts: &self.starts[self.positions(block)],
        }
    }

    /// The residues of block `block` over its cells.
    fn block_fill(&self, block: usize) -> f64 {
        fill(
            self.residues_in(self.positions(block)) as usize,
            self.blocks[block].1,
        )
    }

    /// The position, a multiple of `align` or the end of the order, whose
    /// preceding residues come closest to `fraction` of the total: where
    /// a slice boundary falls. Zero maps to the first position and one
    /// to the end whatever the lengths.
    pub fn cut_at(&self, fraction: f64, align: usize) -> usize {
        let n = self.len();
        if fraction <= 0.0 {
            return 0;
        }
        if fraction >= 1.0 {
            return n;
        }
        let align = align.max(1);
        let target = fraction * self.total_residues() as f64;
        let after = self
            .residues_before
            .partition_point(|&r| (r as f64) < target);
        let below = after.saturating_sub(1) / align * align;
        let above = (below + align).min(n);
        let miss = |p: usize| (self.residues_before[p] as f64 - target).abs();
        if miss(above) < miss(below) {
            above
        } else {
            below
        }
    }

    /// The share of all residues that precedes `position` of the length
    /// order — the inverse of [`Subjects::cut_at`] on its own results.
    pub fn fraction_before(&self, position: usize) -> f64 {
        match self.total_residues() {
            0 => 0.0,
            total => self.residues_before[position] as f64 / total as f64,
        }
    }

    /// Scores of the whole database in the length order, put back in
    /// the order the subjects were given.
    ///
    /// # Panics
    /// When `in_length_order` is not one score per subject.
    pub fn in_database_order(&self, in_length_order: &[i32]) -> Vec<i32> {
        assert_eq!(in_length_order.len(), self.len());
        let mut scores = vec![0i32; in_length_order.len()];
        for (&i, &score) in self.by_length.iter().zip(in_length_order) {
            scores[i as usize] = score;
        }
        scores
    }
}

impl<'a> FromIterator<&'a [u8]> for Subjects<'a> {
    fn from_iter<I: IntoIterator<Item = &'a [u8]>>(iter: I) -> Self {
        Subjects::new(iter.into_iter().collect())
    }
}

/// The database image as it lies: its blocks' columns borrowed in
/// place, its index read once.
impl<'a> From<&'a SqbImage> for Subjects<'a> {
    fn from(database: &'a SqbImage) -> Self {
        let blocks = database
            .blocks()
            .map(|block| (block.first_column as usize, block.columns as usize));
        let n = database.len();
        let (mut starts, mut lens, mut by_length) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for placement in database.placements() {
            starts.push(placement.start);
            lens.push(placement.len);
            by_length.push(placement.original);
        }
        Subjects::assemble(
            Cow::Borrowed(database.columns()),
            blocks.collect(),
            starts,
            lens,
            by_length,
        )
    }
}

impl<'a> From<&'a SequenceSet> for Subjects<'a> {
    fn from(database: &'a SequenceSet) -> Self {
        database.iter().map(Sequence::codes).collect()
    }
}

/// Which shape the byte tier runs. Production callers always pass
/// `Auto`; the forced shapes exist for the `kernels` bench's sweep and
/// the tests that check every shape against Gotoh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteShape {
    /// Once per block of the database: a block whose stream fills fewer
    /// of its cells than [`Backend::interseq_min_fill`] asks goes through
    /// the striped ladder subject by subject instead. One rule covers
    /// long outliers at the head of the length order, blocks too small
    /// to fill the lanes, and longer queries, for which only fuller
    /// streams pay.
    Auto,
    /// Farrar's striped kernel for every subject.
    Striped,
    /// The inter-sequence stream for every subject, however ragged.
    InterSeq,
}

/// Columns a transposed run's stream may span: it is walked whole once
/// per subject, so it stays in L1 beside the DP state (8 KB of
/// residues).
pub const RUN_COLUMNS: usize = 256;

impl Backend {
    /// The pick rule of [`ByteShape::Auto`]: the smallest *fill* — real
    /// residues over `lanes × columns` cells — at which a stream is
    /// cheaper inter-sequence than through the striped kernel, for a
    /// query of `query_len`.
    ///
    /// The inter-sequence kernel's rate per cell barely depends on the
    /// query; the striped kernel's climbs with it (fewer padding lanes,
    /// lazy-F amortised over more segments). So the break-even fill
    /// rises with query length: measured on the reference AVX2 host it
    /// is 0.30 at 30 residues and grows by 0.075 per doubling (0.45 at
    /// 120, 0.68 at 1000, 0.85 at 5000 — EXPERIMENTS.md, "Byte-tier
    /// shape"). The rule holds at every length: since the kernel scores
    /// four columns per pass, a filled stream runs ahead of the striped
    /// kernel up to 5000 residues (EXPERIMENTS.md, "Inter-sequence at
    /// every length"; the `sweep` section of `BENCH_kernels.json` checks
    /// the pick against both forced shapes at every point). The lane
    /// arrays take a flat 0.45, which their sweep no longer supports:
    /// it puts striped ahead on the small database at every length.
    pub fn interseq_min_fill(self, query_len: usize) -> f64 {
        match self {
            Backend::Avx2 => {
                let doublings = (query_len.max(30) as f64 / 30.0).log2();
                0.30 + 0.075 * doublings
            }
            Backend::Scalar => 0.45,
        }
    }

    /// Query residues one transposed run may hold: [`RUN_COLUMNS`]
    /// columns of lanes.
    pub fn run_residues(self) -> usize {
        RUN_COLUMNS * LANES
    }

    /// Whether `query` may join a transposed run under a scheme that
    /// [`transposes`]: its residues are in the matrix's alphabet, so
    /// [`Tables::build`] accepts it.
    pub fn joins_runs(self, query: &[u8], scheme: &ScoringScheme) -> bool {
        in_alphabet(query, scheme)
    }

    /// The fill of the streams `slice` of `db` is scored from: its
    /// residues over the cells of the blocks that hold it, 0 for none.
    pub fn slice_fill(self, db: &Subjects<'_>, slice: Range<usize>) -> f64 {
        let columns = db.blocks_of(&slice).map(|b| db.blocks[b].1).sum();
        fill(db.residues_in(slice) as usize, columns)
    }

    /// The run pick: how many of a worker's next tasks on one slice, given
    /// as their queries' lengths, head first, each accepted by
    /// [`Backend::joins_runs`], form one transposed run — the longest
    /// prefix whose residues stay within [`Backend::run_residues`], when
    /// its queries, longest first, fill more of their stream's cells than
    /// the slice's own streams do (`slice_fill`, from
    /// [`Backend::slice_fill`]); otherwise the head alone. Only a
    /// symmetric scoring matrix may be scored transposed: the caller
    /// checks that.
    pub fn run_length(self, slice_fill: f64, query_lens: impl IntoIterator<Item = usize>) -> usize {
        let mut lens = Vec::new();
        let mut residues = 0;
        for len in query_lens {
            if !lens.is_empty() && residues + len > self.run_residues() {
                break;
            }
            residues += len;
            lens.push(len);
        }
        if lens.len() < 2 {
            return lens.len();
        }
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let (_, columns) = lanes::deal(lens.iter().copied());
        if fill(residues, columns) > slice_fill {
            lens.len()
        } else {
            1
        }
    }
}

/// Whether `scheme` lets a run be scored transposed at all: its matrix
/// is symmetric, so the local score of (q, s) is that of (s, q), and the
/// inter-sequence tables can be built for it. Check once per search.
pub fn transposes(scheme: &ScoringScheme) -> bool {
    scheme.matrix.is_symmetric() && byte_scheme(scheme).is_some()
}

/// Whether every residue of `query` is in `scheme`'s alphabet.
fn in_alphabet(query: &[u8], scheme: &ScoringScheme) -> bool {
    query.iter().all(|&q| (q as usize) < scheme.matrix.size())
}

/// Residues over the cells of a stream of `columns` columns; 0 for an
/// empty stream.
fn fill(residues: usize, columns: usize) -> f64 {
    match columns * LANES {
        0 => 0.0,
        cells => residues as f64 / cells as f64,
    }
}

/// The query's striped profiles, built on first use: a job the
/// inter-sequence byte tier resolves completely never pays for them.
struct LazyProfiles<'a> {
    backend: Backend,
    query: &'a [u8],
    scheme: &'a ScoringScheme,
    built: Option<QueryProfiles>,
    seconds: f64,
}

impl<'a> LazyProfiles<'a> {
    fn new(backend: Backend, query: &'a [u8], scheme: &'a ScoringScheme) -> Self {
        LazyProfiles {
            backend,
            query,
            scheme,
            built: None,
            seconds: 0.0,
        }
    }

    fn get(&mut self) -> &QueryProfiles {
        let LazyProfiles {
            backend,
            query,
            scheme,
            built,
            seconds,
        } = self;
        built.get_or_insert_with(|| {
            let start = Instant::now();
            let profiles = QueryProfiles::build_for(*backend, query, &scheme.matrix);
            *seconds += start.elapsed().as_secs_f64();
            profiles
        })
    }
}

/// Score `query` against the subjects of `slice` — a range of positions
/// of `db`'s length order, [`Subjects::whole`] for all of it — on the
/// active backend, the byte-tier shape picked automatically. Scores are
/// exact and in the slice's order: `scores[j]` belongs to subject
/// `db.order()[slice.start + j]`. `stats` gains one count per subject.
/// `profile_build` covers the inter-sequence tables and any striped
/// profile build, `dp_inner` everything else.
///
/// # Panics
/// When `slice` is not a range of positions of the length order.
pub fn score_database(
    query: &[u8],
    db: &Subjects<'_>,
    slice: Range<usize>,
    scheme: &ScoringScheme,
    scratch: &mut Scratch,
    stats: &mut TierStats,
) -> (Vec<i32>, PhaseTimings) {
    score_database_with(
        Backend::active(),
        ByteShape::Auto,
        query,
        db,
        slice,
        scheme,
        scratch,
        stats,
    )
}

/// [`score_database`] over a plain list of subjects, each scored
/// whole: `scores[i]` belongs to `subjects[i]`. Lays out a throwaway
/// [`Subjects`] and [`Scratch`] per call, so it suits callers that
/// score a list once — tests and benches; a worker scores the search's
/// own [`Subjects`] with its own [`Scratch`].
pub fn score_subjects(
    query: &[u8],
    subjects: &[&[u8]],
    scheme: &ScoringScheme,
) -> (Vec<i32>, PhaseTimings, TierStats) {
    let db = Subjects::new(subjects.to_vec());
    let mut stats = TierStats::default();
    let scratch = &mut Scratch::default();
    let (scores, timings) = score_database(query, &db, db.whole(), scheme, scratch, &mut stats);
    (db.in_database_order(&scores), timings, stats)
}

/// [`score_database`] on an explicit backend with an explicit byte-tier
/// shape. Each block of the database that holds part of `slice` is
/// scored where it lies: its stream through the inter-sequence kernel,
/// or its subjects, gathered from their lanes, through the striped
/// ladder. A block the slice only partly covers is scored whole and
/// read for the slice's subjects.
#[allow(clippy::too_many_arguments)]
pub fn score_database_with(
    backend: Backend,
    shape: ByteShape,
    query: &[u8],
    db: &Subjects<'_>,
    slice: Range<usize>,
    scheme: &ScoringScheme,
    scratch: &mut Scratch,
    stats: &mut TierStats,
) -> (Vec<i32>, PhaseTimings) {
    let start = Instant::now();
    let min_fill = match shape {
        ByteShape::Striped => None,
        ByteShape::InterSeq => Some(0.0),
        ByteShape::Auto => Some(backend.interseq_min_fill(query.len())),
    };
    let inter_sequence =
        min_fill.and_then(|fill| Tables::build(query, scheme).map(|tables| (tables, fill)));
    let tables_seconds = start.elapsed().as_secs_f64();
    let mut profiles = LazyProfiles::new(backend, query, scheme);

    let mut scores = vec![0i32; slice.len()];
    let mut maxima = Vec::new();
    let mut subject = std::mem::take(&mut scratch.subject);
    for block in db.blocks_of(&slice) {
        let held = db.positions(block);
        let wanted = held.start.max(slice.start)..held.end.min(slice.end);
        let scores = &mut scores[wanted.start - slice.start..wanted.end - slice.start];
        let tables = inter_sequence
            .as_ref()
            .filter(|(_, min_fill)| db.block_fill(block) >= *min_fill);
        let Some((tables, _)) = tables else {
            for (score, position) in scores.iter_mut().zip(wanted) {
                db.gather(position, &mut subject);
                *score = tiered_score(profiles.get(), &subject, scheme, scratch, stats);
            }
            continue;
        };
        maxima.clear();
        maxima.resize(held.len(), 0);
        backend.interseq8(query, tables, db.stream(block), scratch, &mut maxima);
        for (score, position) in scores.iter_mut().zip(wanted) {
            stats.subjects += 1;
            let best = maxima[position - held.start];
            *score = if best < tables.limit {
                stats.byte_resolved += 1;
                best as i32
            } else {
                db.gather(position, &mut subject);
                escalate(profiles.get(), &subject, scheme, scratch, stats)
            };
        }
    }
    scratch.subject = subject;

    let profile_build = tables_seconds + profiles.seconds;
    let timings = PhaseTimings {
        profile_build,
        dp_inner: (start.elapsed().as_secs_f64() - profile_build).max(0.0),
    };
    (scores, timings)
}

/// Score a transposed *run*: each of `queries` against the subjects of
/// `slice` of `db`, with scores for each query exactly as
/// [`score_database_with`] gives them (`scores[k][j]` belongs to query
/// `k` and subject `db.order()[slice.start + j]`) and `stats` gaining
/// one count per pair, as one-query jobs would.
///
/// The local score of (q, s) equals that of (s, q) under a symmetric
/// matrix, so a run of short queries can fill the lanes that a few
/// subjects leave empty. The queries, longest first, are laid out once
/// as one refilled stream; each subject, gathered from its lane and with
/// its own [`Tables`], runs down the rows of the unchanged
/// inter-sequence kernel against it. Subject and query tables share one
/// bias and one saturation limit, so a pair whose byte maximum reaches
/// that limit is exactly a pair the query's own pass would escalate, and
/// it escalates through that query's striped ladder in the original
/// orientation, as does every pair of a subject whose residues the
/// tables refuse. A query the tables refuse, or every query of a scheme
/// that does not [`transposes`], is scored through its own
/// [`ByteShape::Auto`] pass.
#[allow(clippy::too_many_arguments)]
pub fn score_run_with(
    backend: Backend,
    queries: &[&[u8]],
    db: &Subjects<'_>,
    slice: Range<usize>,
    scheme: &ScoringScheme,
    scratch: &mut Scratch,
    stats: &mut TierStats,
) -> (Vec<Vec<i32>>, PhaseTimings) {
    let start = Instant::now();
    let transposed = transposes(scheme);
    let (mut in_stream, alone): (Vec<u32>, Vec<u32>) = (0..queries.len() as u32)
        .partition(|&k| transposed && in_alphabet(queries[k as usize], scheme));
    in_stream.sort_by_key(|&k| Reverse(queries[k as usize].len()));
    let stream = Stream::lay_out(in_stream.iter().map(|&k| queries[k as usize]));
    let mut profiles: Vec<LazyProfiles> = queries
        .iter()
        .map(|query| LazyProfiles::new(backend, query, scheme))
        .collect();
    let mut profile_build = 0.0;

    let mut scores = vec![vec![0i32; slice.len()]; queries.len()];
    let mut maxima = vec![0u8; in_stream.len()];
    let mut subject = std::mem::take(&mut scratch.subject);
    for (j, position) in slice.clone().enumerate() {
        db.gather(position, &mut subject);
        let built = Instant::now();
        let tables = Tables::build(&subject, scheme);
        profile_build += built.elapsed().as_secs_f64();
        let Some(tables) = tables else {
            for &k in &in_stream {
                let profiles = profiles[k as usize].get();
                scores[k as usize][j] = tiered_score(profiles, &subject, scheme, scratch, stats);
            }
            continue;
        };
        maxima.fill(0);
        backend.interseq8(
            &subject,
            &tables,
            StreamRef::of(&stream),
            scratch,
            &mut maxima,
        );
        for (&k, &best) in in_stream.iter().zip(&maxima) {
            stats.subjects += 1;
            scores[k as usize][j] = if best < tables.limit {
                stats.byte_resolved += 1;
                best as i32
            } else {
                escalate(profiles[k as usize].get(), &subject, scheme, scratch, stats)
            };
        }
    }
    scratch.subject = subject;
    profile_build += profiles.iter().map(|p| p.seconds).sum::<f64>();

    for k in alone.into_iter().map(|k| k as usize) {
        let (own, timings) = score_database_with(
            backend,
            ByteShape::Auto,
            queries[k],
            db,
            slice.clone(),
            scheme,
            scratch,
            stats,
        );
        scores[k] = own;
        profile_build += timings.profile_build;
    }
    let timings = PhaseTimings {
        profile_build,
        dp_inner: (start.elapsed().as_secs_f64() - profile_build).max(0.0),
    };
    (scores, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Backend;
    use proptest::prelude::*;
    use swdual_bio::{Alphabet, Matrix};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    #[test]
    fn typical_subjects_resolve_in_bytes() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRR");
        let s = prot(b"MKWVTFISLLLLFSSAYSRGVFRR");
        let p = QueryProfiles::build(&q, &scheme.matrix);
        let mut stats = TierStats::default();
        let got = tiered_score(&p, &s, &scheme, &mut Scratch::default(), &mut stats);
        assert_eq!(got, gotoh_score(&q, &s, &scheme));
        assert_eq!(stats.subjects, 1);
        assert_eq!(stats.byte_resolved, 1);
        assert_eq!(stats.escalated_16, 0);
        assert_eq!(stats.escalated_scalar, 0);
    }

    #[test]
    fn saturating_identity_escalates_to_16_bit() {
        // 400 identical W's: score 400·11 = 4400 overflows a byte but
        // not an i16, so exactly one escalation to the 16-bit tier.
        let scheme = ScoringScheme::protein_default();
        let q = prot(&vec![b'W'; 400]);
        let p = QueryProfiles::build(&q, &scheme.matrix);
        let mut stats = TierStats::default();
        let got = tiered_score(&p, &q, &scheme, &mut Scratch::default(), &mut stats);
        assert_eq!(got, 4400);
        assert_eq!(stats.escalated_16, 1);
        assert_eq!(stats.escalated_scalar, 0);
    }

    #[test]
    fn i16_saturation_falls_through_to_scalar() {
        // 3100 W's: 34_100 > i16::MAX, so both vector tiers bail and the
        // scalar kernel answers.
        let scheme = ScoringScheme::protein_default();
        let q = prot(&vec![b'W'; 3100]);
        let p = QueryProfiles::build(&q, &scheme.matrix);
        let mut stats = TierStats::default();
        let got = tiered_score(&p, &q, &scheme, &mut Scratch::default(), &mut stats);
        assert_eq!(got, 3100 * 11);
        assert_eq!(stats.escalated_scalar, 1);
        assert_eq!(stats.byte_resolved, 0);
        assert_eq!(stats.escalated_16, 0);
    }

    #[test]
    fn unbiasable_matrix_starts_at_16_bit_tier() {
        // A matrix with |min| > 120 cannot build a byte profile at all;
        // the ladder must start at the 16-bit tier, not crash.
        let m = Matrix::match_mismatch(Alphabet::Dna, 5, -200);
        let scheme = ScoringScheme::new(m, 10, 2);
        let q: Vec<u8> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let p = QueryProfiles::build(&q, &scheme.matrix);
        assert_eq!(p.score8(&q, &scheme, &mut Scratch::default()), None);
        let mut stats = TierStats::default();
        let got = tiered_score(&p, &q, &scheme, &mut Scratch::default(), &mut stats);
        assert_eq!(got, gotoh_score(&q, &q, &scheme));
        assert_eq!(stats.escalated_16, 1);
    }

    #[test]
    fn stats_merge_adds_counts() {
        let mut a = TierStats {
            subjects: 3,
            byte_resolved: 2,
            escalated_16: 1,
            escalated_scalar: 0,
        };
        let b = TierStats {
            subjects: 2,
            byte_resolved: 1,
            escalated_16: 0,
            escalated_scalar: 1,
        };
        a.merge(&b);
        assert_eq!(a.subjects, 5);
        assert_eq!(a.byte_resolved, 3);
        assert_eq!(a.escalated_16, 1);
        assert_eq!(a.escalated_scalar, 1);
    }

    #[test]
    fn tier_ladder_is_exact_on_every_backend() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"GATTACAWWLKMQRST");
        let subjects = [
            prot(b"GATTACAWWLKMQRST"),
            prot(b"TTTTTTTT"),
            prot(&vec![b'W'; 300]),
        ];
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &scheme.matrix);
            let mut stats = TierStats::default();
            for s in &subjects {
                assert_eq!(
                    tiered_score(&p, s, &scheme, &mut Scratch::default(), &mut stats),
                    gotoh_score(&q, s, &scheme),
                    "backend {backend}"
                );
            }
            assert_eq!(stats.subjects, subjects.len() as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn subjects_lay_out_and_read_back_as_the_image_does(
            lengths in prop::collection::vec(0usize..300, 0..300),
        ) {
            // Laid out from slices and borrowed from an image, the same
            // database gives the same order, starts, blocks and columns,
            // and every subject gathers back whole.
            let seqs: Vec<Vec<u8>> = lengths
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|k| ((i + k) % 20) as u8).collect())
                .collect();
            let db: Subjects = seqs.iter().map(Vec::as_slice).collect();
            let set = SequenceSet::from_sequences(
                Alphabet::Protein,
                seqs.iter()
                    .enumerate()
                    .map(|(i, s)| Sequence::from_codes(format!("s{i}"), Alphabet::Protein, s.clone()))
                    .collect(),
            )
            .unwrap();
            let image = SqbImage::from_set(&set).unwrap();
            let borrowed = Subjects::from(&image);
            prop_assert_eq!(borrowed.order(), db.order());
            prop_assert_eq!(&borrowed.starts, &db.starts);
            prop_assert_eq!(&borrowed.blocks, &db.blocks);
            prop_assert_eq!(&borrowed.columns[..], &db.columns[..]);
            prop_assert_eq!(borrowed.columns.as_ptr(), image.columns().as_ptr());
            for (p, &i) in db.order().iter().enumerate() {
                prop_assert_eq!(db.residues(p), seqs[i as usize].clone());
            }
            prop_assert_eq!(db.lengths_in_database_order(), lengths);
        }
    }

    #[test]
    fn a_slice_is_a_range_of_the_image_blocks() {
        let seqs: Vec<Vec<u8>> = (0..300).map(|i| vec![1; 40 + i % 7]).collect();
        let db: Subjects = seqs.iter().map(Vec::as_slice).collect();
        assert_eq!(db.blocks_of(&db.whole()), 0..3);
        assert_eq!(db.blocks_of(&(128..256)), 1..2);
        assert_eq!(db.blocks_of(&(100..130)), 0..2);
        assert_eq!(db.blocks_of(&(256..300)), 2..3);
        assert_eq!(db.blocks_of(&(7..7)), 0..0);
        assert_eq!(db.positions(2), 256..300);
        // A cut on the block size lands on a block boundary or the end.
        for fraction in [0.1, 0.33, 0.5, 0.9] {
            let cut = db.cut_at(fraction, BLOCK_RECORDS);
            assert!(cut.is_multiple_of(BLOCK_RECORDS) || cut == db.len());
        }
        // Each block's fill is its residues over its stream's cells.
        for block in 0..3 {
            let (_, width) = db.blocks[block];
            let residues = db.residues_in(db.positions(block));
            assert_eq!(
                db.block_fill(block),
                residues as f64 / (width * LANES) as f64
            );
        }
        // Neighbours in the length order have near-equal lengths, so a
        // full block pads little; the last one, 44 records on 32 lanes,
        // leaves 20 lanes half empty.
        assert!(db.block_fill(0) > 0.85 && db.block_fill(1) > 0.85);
        assert!(db.block_fill(2) < 0.7);
    }
}
