//! SWIPE-style tiered scoring pipeline: byte lanes first, 16-bit lanes
//! on saturation, scalar `i32` Gotoh as the last resort.
//!
//! SWIPE [9] scores every subject with saturated byte arithmetic and
//! only re-scores the (rare, high-scoring) sequences whose score could
//! have clamped. The byte kernel does twice the cells per vector of the
//! 16-bit kernel, and for a typical database >99% of subjects resolve
//! in bytes, so the pipeline's throughput is essentially byte-kernel
//! throughput with an escalation tax proportional to the hit rate.
//!
//! [`score_database`] is the one database-level entry point — the CPU
//! worker, the simulated device's functional scorer and the engines all
//! score a query against a database, or a slice of its length order,
//! through it. It picks the byte tier's *shape* once per job, at the
//! head of the slice: the slice is one refilled inter-sequence stream
//! ([`crate::interseq`], many subjects per vector), except that head
//! subjects go through Farrar's striped kernel one by one for as long as
//! the stream of the rest would fill too few of its cells for the
//! query's length ([`Backend::interseq_min_fill`], measured). Both shapes
//! share one bias and one saturation limit, so they escalate exactly the
//! same subjects and [`TierStats`] does not depend on the pick.
//! Escalations run the striped 16-bit kernel from a [`QueryProfiles`]
//! bundle that is built (or fetched from the [`ProfileCache`]) only when
//! first needed.
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
use crate::engine::PhaseTimings;
use crate::interseq::{stream_columns, Lineup, SharedStreams, Tables, BLOCK, GROUP, PAD};
use crate::profile_cache::ProfileCache;
use crate::scalar::gotoh_score;
use crate::scratch::Scratch;
use crate::striped8::byte_range;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
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
    gotoh_score(&profiles.query, subject, scheme)
}

/// A database as the search scores it: the borrowed subjects, the order
/// the inter-sequence kernel deals them to its lanes in (longest first,
/// so the lanes of a stream end close together) and the residues that
/// precede each position of that order. Built once per search and borrowed by every worker and
/// device residency; a *slice* — the unit a job scores — is a range of
/// positions of the length order.
#[derive(Debug, Clone, Default)]
pub struct Subjects<'a> {
    seqs: Vec<&'a [u8]>,
    by_length: Vec<u32>,
    /// `residues_before[p]`: residues of the first `p` subjects of the
    /// length order (one entry more than there are subjects).
    residues_before: Vec<u64>,
}

impl<'a> Subjects<'a> {
    /// Take `seqs`, sort their indices by length and sum the lengths
    /// along that order.
    ///
    /// # Panics
    /// On more than `u32::MAX` subjects. No input file reaches that: an
    /// SQB header declaring more records is refused as malformed, the
    /// SQB writer refuses to write more, and FASTA reaches a search
    /// through that writer.
    pub fn new(seqs: Vec<&'a [u8]>) -> Subjects<'a> {
        let count = u32::try_from(seqs.len()).expect("at most u32::MAX subjects");
        let mut by_length: Vec<u32> = (0..count).collect();
        by_length.sort_by_key(|&i| std::cmp::Reverse(seqs[i as usize].len()));
        let mut residues_before = Vec::with_capacity(seqs.len() + 1);
        let mut held = 0u64;
        residues_before.push(held);
        for &i in &by_length {
            held += seqs[i as usize].len() as u64;
            residues_before.push(held);
        }
        Subjects {
            seqs,
            by_length,
            residues_before,
        }
    }

    /// The subjects, in the order they were given.
    pub fn seqs(&self) -> &[&'a [u8]] {
        &self.seqs
    }

    /// Number of subjects.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when there is nothing to score.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The length order: database indices, longest subject first, ties
    /// in database order.
    pub fn order(&self) -> &[u32] {
        &self.by_length
    }

    /// The slice that is the whole database.
    pub fn whole(&self) -> Range<usize> {
        0..self.seqs.len()
    }

    /// Residues of all subjects.
    pub fn total_residues(&self) -> u64 {
        self.residues_before[self.seqs.len()]
    }

    /// Residues of the subjects of `slice`: a difference of two prefix
    /// sums.
    ///
    /// # Panics
    /// When `slice` is not a range of positions of the length order.
    pub fn residues_in(&self, slice: Range<usize>) -> u64 {
        self.residues_before[slice.end] - self.residues_before[slice.start]
    }

    /// The subjects of `slice`, in the length order.
    ///
    /// # Panics
    /// When `slice` is not a range of positions of the length order.
    pub fn in_order(&self, slice: Range<usize>) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.by_length[slice].iter().map(|&i| self.seqs[i as usize])
    }

    /// The position, a multiple of `align` or the end of the order, whose
    /// preceding residues come closest to `fraction` of the total: where
    /// a slice boundary falls. Zero maps to the first position and one
    /// to the end whatever the lengths.
    pub fn cut_at(&self, fraction: f64, align: usize) -> usize {
        let n = self.seqs.len();
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
        assert_eq!(in_length_order.len(), self.seqs.len());
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

/// The residues of a database image, borrowed in place.
impl<'a> From<&'a SqbImage> for Subjects<'a> {
    fn from(database: &'a SqbImage) -> Self {
        database.records().map(|record| record.residues()).collect()
    }
}

impl<'a> From<&'a SequenceSet> for Subjects<'a> {
    fn from(database: &'a SequenceSet) -> Self {
        database.iter().map(Sequence::codes).collect()
    }
}

/// Which shape the byte tier runs. Production callers always pass
/// `Auto`; the forced shapes exist for the `kernels` bench's sweep, the
/// property tests and the `EngineKind::InterSeq` ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteShape {
    /// Once per job, at the head of the stream: while the stream would
    /// fill fewer of its cells than [`Backend::interseq_min_fill`] asks,
    /// its head subject goes through the striped ladder instead. One rule
    /// covers long outliers at the head of the length order, slices too
    /// small to fill the lanes, and longer queries, for which only
    /// fuller streams pay.
    Auto,
    /// Farrar's striped kernel for every subject.
    Striped,
    /// The inter-sequence stream for every subject, however ragged.
    InterSeq,
}

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
    /// the pick against both forced shapes at every point). The
    /// lane-array kernels break even at 0.45 whatever the query.
    pub fn interseq_min_fill(self, query_len: usize) -> f64 {
        match self {
            Backend::Avx2 => {
                let doublings = (query_len.max(30) as f64 / 30.0).log2();
                0.30 + 0.075 * doublings
            }
            Backend::Scalar => 0.45,
        }
    }

    /// Query residues one transposed run may hold: one [`BLOCK`] of
    /// lanes. A run's stream is walked whole once per subject, so it
    /// stays in L1 like one block of a slice's stream does.
    pub fn run_residues(self) -> usize {
        BLOCK * self.interseq_lanes()
    }

    /// Whether `query` may join a transposed run under a scheme that
    /// [`transposes`]: its residues are in the matrix's alphabet, so
    /// [`Tables::build`] accepts it.
    pub fn joins_runs(self, query: &[u8], scheme: &ScoringScheme) -> bool {
        in_alphabet(query, scheme)
    }

    /// The fill of the stream of `slice` of `db` on this backend's lanes:
    /// residues over `lanes × columns` cells, 0 for an empty stream.
    pub fn slice_fill(self, db: &Subjects<'_>, slice: Range<usize>) -> f64 {
        let lineup = Lineup {
            seqs: db.seqs(),
            order: &db.order()[slice.clone()],
        };
        fill(
            db.residues_in(slice) as usize,
            lineup.columns(self.interseq_lanes()),
            self,
        )
    }

    /// The run pick: how many of a worker's next tasks on one slice, given
    /// as their queries' lengths, head first, each accepted by
    /// [`Backend::joins_runs`], form one transposed run — the longest
    /// prefix whose residues stay within [`Backend::run_residues`], when
    /// its queries, longest first, fill more of their stream's cells than
    /// the slice's own stream does (`slice_fill`, from
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
        let columns = stream_columns(lens.iter().copied(), self.interseq_lanes());
        if fill(residues, columns, self) > slice_fill {
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
    let matrix = &scheme.matrix;
    matrix.is_symmetric() && byte_range(matrix).is_some() && matrix.size() <= PAD as usize
}

/// Whether every residue of `query` is in `scheme`'s alphabet.
fn in_alphabet(query: &[u8], scheme: &ScoringScheme) -> bool {
    query.iter().all(|&q| (q as usize) < scheme.matrix.size())
}

/// Residues over the cells of a stream of `columns` columns on
/// `backend`'s lanes; 0 for an empty stream.
fn fill(residues: usize, columns: usize, backend: Backend) -> f64 {
    match columns * backend.interseq_lanes() {
        0 => 0.0,
        cells => residues as f64 / cells as f64,
    }
}

/// The query's striped profiles, built (or fetched from the cache) on
/// first use: a job the inter-sequence byte tier resolves completely
/// never pays for them.
struct LazyProfiles<'a> {
    backend: Backend,
    query: &'a [u8],
    scheme: &'a ScoringScheme,
    cache: Option<&'a ProfileCache>,
    built: Option<Arc<QueryProfiles>>,
    seconds: f64,
}

impl<'a> LazyProfiles<'a> {
    fn new(
        backend: Backend,
        query: &'a [u8],
        scheme: &'a ScoringScheme,
        cache: Option<&'a ProfileCache>,
    ) -> Self {
        LazyProfiles {
            backend,
            query,
            scheme,
            cache,
            built: None,
            seconds: 0.0,
        }
    }

    fn get(&mut self) -> &QueryProfiles {
        let LazyProfiles {
            backend,
            query,
            scheme,
            cache,
            built,
            seconds,
        } = self;
        built.get_or_insert_with(|| {
            let start = Instant::now();
            let profiles = match cache {
                Some(cache) => cache.get_or_build_for(*backend, query, &scheme.matrix),
                None => Arc::new(QueryProfiles::build_for(*backend, query, &scheme.matrix)),
            };
            *seconds += start.elapsed().as_secs_f64();
            profiles
        })
    }
}

/// Whether the stream of the subjects at `positions` of `db`'s length
/// order, dealt to `lanes` lanes, fills at least `min_fill` of its cells
/// with residues. A stream is at least as long as its longest subject
/// and as `residues / lanes`, and at most their sum (Graham's bound for
/// list scheduling) once each subject is counted with the pad columns
/// up to its lane's next group boundary; those settle most slices
/// without dealing any out.
fn fills(db: &Subjects<'_>, positions: Range<usize>, lanes: usize, min_fill: f64) -> bool {
    let residues = db.residues_in(positions.clone()) as f64;
    let longest = db.in_order(positions.clone()).next().map_or(0, <[u8]>::len) as f64;
    let per_lane = residues / lanes as f64;
    let fills = |columns: f64| residues >= min_fill * lanes as f64 * columns;
    let pad = (GROUP - 1) as f64;
    if fills(per_lane + pad * positions.len() as f64 / lanes as f64 + longest + pad) {
        return true;
    }
    if !fills(per_lane.max(longest)) {
        return false;
    }
    let lineup = Lineup {
        seqs: db.seqs(),
        order: &db.order()[positions],
    };
    fills(lineup.columns(lanes) as f64)
}

/// Score `query` against the subjects of `slice` — a range of positions
/// of `db`'s length order, [`Subjects::whole`] for all of it — on the
/// active backend, the byte-tier shape picked automatically. Scores are
/// exact and in the slice's order: `scores[j]` belongs to subject
/// `db.order()[slice.start + j]`. `stats` gains one count per subject.
/// `profile_build` covers the inter-sequence tables and any striped
/// profile build or cache lookup, `dp_inner` everything else. The
/// inter-sequence stream is laid out for this job alone.
///
/// # Panics
/// When `slice` is not a range of positions of the length order.
pub fn score_database(
    query: &[u8],
    db: &Subjects<'_>,
    slice: Range<usize>,
    scheme: &ScoringScheme,
    cache: Option<&ProfileCache>,
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
        cache,
        None,
        scratch,
        stats,
    )
}

/// [`score_database`] on an explicit backend with an explicit byte-tier
/// shape, taking the inter-sequence stream from `streams` when they
/// share the slice's and no head subject was peeled striped.
#[allow(clippy::too_many_arguments)]
pub fn score_database_with(
    backend: Backend,
    shape: ByteShape,
    query: &[u8],
    db: &Subjects<'_>,
    slice: Range<usize>,
    scheme: &ScoringScheme,
    cache: Option<&ProfileCache>,
    streams: Option<&SharedStreams>,
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
    let mut profiles = LazyProfiles::new(backend, query, scheme, cache);

    let seqs = db.seqs();
    let order = &db.by_length[slice.clone()];
    let mut scores = vec![0i32; order.len()];
    match inter_sequence {
        None => {
            let profiles = profiles.get();
            for (score, &i) in scores.iter_mut().zip(order) {
                *score = tiered_score(profiles, seqs[i as usize], scheme, scratch, stats);
            }
        }
        Some((tables, min_fill)) => {
            let lanes = backend.interseq_lanes();
            let mut peeled = 0;
            while peeled < order.len()
                && !fills(db, slice.start + peeled..slice.end, lanes, min_fill)
            {
                let subject = seqs[order[peeled] as usize];
                scores[peeled] = tiered_score(profiles.get(), subject, scheme, scratch, stats);
                peeled += 1;
            }
            let order = &order[peeled..];
            let lineup = Lineup { seqs, order };
            // A shared stream holds the whole slice.
            let shared = streams
                .filter(|_| peeled == 0)
                .and_then(|s| s.get(&slice, lanes));
            let mut maxima = vec![0u8; order.len()];
            backend.interseq8(query, &tables, lineup, shared, scratch, &mut maxima);
            for ((score, &i), &best) in scores[peeled..].iter_mut().zip(order).zip(&maxima) {
                stats.subjects += 1;
                *score = if best < tables.limit {
                    stats.byte_resolved += 1;
                    best as i32
                } else {
                    escalate(profiles.get(), seqs[i as usize], scheme, scratch, stats)
                };
            }
        }
    }

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
/// as one refilled stream; each subject, with its own [`Tables`], runs
/// down the rows of the unchanged inter-sequence kernel against it.
/// Subject and query tables share one bias and one saturation limit, so
/// a pair whose byte maximum reaches that limit is exactly a pair the
/// query's own pass would escalate, and it escalates through that
/// query's striped ladder in the original orientation, as does every
/// pair of a subject whose residues the tables refuse. A query the
/// tables refuse, or every query of a scheme that does not
/// [`transposes`], is scored through its own [`ByteShape::Auto`] pass.
#[allow(clippy::too_many_arguments)]
pub fn score_run_with(
    backend: Backend,
    queries: &[&[u8]],
    db: &Subjects<'_>,
    slice: Range<usize>,
    scheme: &ScoringScheme,
    cache: Option<&ProfileCache>,
    scratch: &mut Scratch,
    stats: &mut TierStats,
) -> (Vec<Vec<i32>>, PhaseTimings) {
    let start = Instant::now();
    let transposed = transposes(scheme);
    let (mut in_stream, alone): (Vec<u32>, Vec<u32>) = (0..queries.len() as u32)
        .partition(|&k| transposed && in_alphabet(queries[k as usize], scheme));
    in_stream.sort_by_key(|&k| std::cmp::Reverse(queries[k as usize].len()));
    let lineup = Lineup {
        seqs: queries,
        order: &in_stream,
    };
    let stream = backend.interseq_stream(lineup);
    let mut profiles: Vec<LazyProfiles> = queries
        .iter()
        .map(|query| LazyProfiles::new(backend, query, scheme, cache))
        .collect();
    let mut profile_build = 0.0;

    let seqs = db.seqs();
    let order = &db.by_length[slice.clone()];
    let mut scores = vec![vec![0i32; order.len()]; queries.len()];
    let mut maxima = vec![0u8; in_stream.len()];
    for (j, &i) in order.iter().enumerate() {
        let subject = seqs[i as usize];
        let built = Instant::now();
        let tables = Tables::build(subject, scheme);
        profile_build += built.elapsed().as_secs_f64();
        let Some(tables) = tables else {
            for &k in &in_stream {
                let profiles = profiles[k as usize].get();
                scores[k as usize][j] = tiered_score(profiles, subject, scheme, scratch, stats);
            }
            continue;
        };
        maxima.fill(0);
        backend.interseq8(
            subject,
            &tables,
            lineup,
            Some(&stream),
            scratch,
            &mut maxima,
        );
        for (&k, &best) in in_stream.iter().zip(&maxima) {
            stats.subjects += 1;
            scores[k as usize][j] = if best < tables.limit {
                stats.byte_resolved += 1;
                best as i32
            } else {
                escalate(profiles[k as usize].get(), subject, scheme, scratch, stats)
            };
        }
    }
    profile_build += profiles.iter().map(|p| p.seconds).sum::<f64>();

    for k in alone.into_iter().map(|k| k as usize) {
        let (own, timings) = score_database_with(
            backend,
            ByteShape::Auto,
            queries[k],
            db,
            slice.clone(),
            scheme,
            cache,
            None,
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
        assert!(p.byte.is_none());
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
        fn the_fill_bounds_decide_as_the_dealt_stream(
            lengths in prop::collection::vec(0usize..300, 0..120),
            // Often a few residues at most, where a group pads most.
            longest in (0usize..2, 1usize..8).prop_map(|(kind, n)| if kind == 0 { n } else { 300 }),
            min_fill in 0.0f64..1.0,
        ) {
            let seqs: Vec<Vec<u8>> = lengths.iter().map(|&n| vec![1; n % longest]).collect();
            let db: Subjects = seqs.iter().map(Vec::as_slice).collect();
            for lanes in [16, 32] {
                let lineup = Lineup { seqs: db.seqs(), order: db.order() };
                let cells = (lanes * lineup.columns(lanes)) as f64;
                let dealt = db.residues_in(db.whole()) as f64 >= min_fill * cells;
                prop_assert_eq!(fills(&db, db.whole(), lanes, min_fill), dealt);
            }
        }
    }
}
