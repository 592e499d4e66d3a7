//! Inter-sequence byte kernel (`interseq8`) — Rognes' SWIPE scheme \[9\],
//! with its lanes refilled.
//!
//! Where Farrar's kernel vectorises *within* one comparison (lanes =
//! query positions), SWIPE vectorises *across* comparisons: lane `l` of
//! every vector scores one subject while the other lanes score others.
//! All lanes run the plain Gotoh recurrences independently — no lazy-F
//! loop, no padding of the query to a lane multiple, no striped query
//! profile — which is what makes it the faster shape on short queries.
//!
//! **The database is the stream.** The kernel scores a *stream* of
//! residue columns, one vector of lanes per column, laid out by
//! [`swdual_bio::lanes`]: subjects dealt out longest first, the lane
//! that frees first — the lowest such lane on a tie — taking the next
//! subject on the first [`GROUP`] boundary at or past the column where
//! its last one ended. Each hand-over is a [`Start`]: before scoring
//! that column the kernel harvests the lane's maximum for the subject it
//! finished, zeroes the lane's running maximum, and clears the lane in a
//! mask that the next pass applies to its `H`/`E` loads, so the lane's
//! column reads as zero and is stored back clean without a write of its
//! own; then it carries on with the same recurrences. The stream's first
//! pass reads every lane as zero, so nothing zeroes the DP state up
//! front either. An SQB version-3 file stores its database as such
//! streams, one per block of 128 records of its length order, so a job
//! scores the file's own columns in place: nothing is laid out per job
//! or per search.
//!
//! **Four columns per pass.** SWIPE scores several database residues
//! per pass down the query, and so does this kernel: [`GROUP`] stream
//! columns at a time. Each query row loads its `H` and `E` once, scores
//! the group's four cells per lane in registers — `E` running along the
//! row, each column's `F` and the row above's `H` carried from row to
//! row in registers — and stores once: two loads and two stores per
//! four cell vectors instead of eight and eight. Hand-overs fall on
//! group boundaries only, so no lane changes subjects inside a pass;
//! the pad columns between a subject's end and the boundary score
//! [`PAD`]'s −128 and, like a pad lane, can only decay, so no maximum
//! moves.
//!
//! **Every stream has 32 lanes.** A kernel of `L` lanes reads each
//! column as `32 / L` windows of `L` cells and scores the stream once
//! per window, each window an independent stream of its own lanes, up
//! to its own last residue: the AVX2 instantiation reads it whole, the
//! 16-lane arrays as two halves.
//!
//! **Either side can be the stream.** Under a symmetric matrix the
//! local score of (q, s) is that of (s, q), so the kernel does not care
//! which side plays the query: a worker's *run* of short queries on one
//! slice lays the queries out as the stream, longest first, and runs
//! each subject down the rows with the subject's own [`Tables`]
//! ([`crate::tiered::score_run_with`]). The run's stream is laid out
//! like a block of the database and walked whole once per subject, so
//! its queries stay within [`crate::tiered::RUN_COLUMNS`] columns.
//!
//! **Score profile.** The substitution scores a column needs depend on
//! the stream's residues at that position, so the profile is built per
//! group: for each *distinct* query residue `a` and each column `c` of
//! the group, one vector `dprof[a][c][l]`, the entry of `score(a,
//! column_c[l])`, looked up from the kernel's 32-entry row for `a` (two
//! 16-entry `pshufb` tables on AVX2). Residue code [`PAD`] fills the
//! lanes and columns that have no subject; its score is −128, below
//! every matrix score, so such a cell can only decay.
//!
//! **Two representations, one limit.** The kernel body is written once
//! over `ByteLanes`, and each lane type holds the recurrences' cells in
//! its own form: the AVX2 instantiation (32 lanes per vector) as `H −
//! 128` in signed bytes, added to true scores; the lane arrays (16
//! lanes, what every host without AVX2 runs) as unsigned bytes, added
//! to scores biased by the matrix's `bias` and the bias subtracted
//! again, as the striped byte kernel does. The score rows, a handed-over
//! lane's cleared state and the harvest's conversion back to a score
//! follow the lane type; [`Tables`] is the same for both.
//!
//! **Same escalations as the striped byte kernel.** Both
//! representations saturate only at the top, and an add reaches the top
//! only when its `H` input is already ≥ `limit`, the striped kernel's
//! guard (`crate::striped::byte_range`: 255 minus the largest score and
//! the bias). So while every cell is below `limit` each representation
//! computes exact values, and the first cell to reach it is computed
//! exactly by both. A subject's maximum is therefore ≥ `limit` under
//! either iff the striped kernel's is, and below it the maximum is the
//! Gotoh score: every shape and every lane type escalates the same
//! subjects, whatever lane or column a subject lands on.

use crate::dispatch::Backend;
use crate::lanes::{ByteLanes, ARRAY_LANES, AVX2_LANES};
use crate::scratch::{InterseqBuffers, Scratch};
use crate::striped::byte_range;
use swdual_bio::lanes::{Start, GROUP, LANES, PAD};
use swdual_bio::ScoringScheme;

/// The largest gap penalty the kernel takes: one signed-byte subtract
/// takes at most 127.
const MAX_GAP: i32 = i8::MAX as i32;

/// What the kernel needs of one (query, scheme) pair. Built per job:
/// a few hundred table reads, not worth caching.
#[derive(Debug, Clone)]
pub struct Tables {
    /// `rows[a][b]` = score of query residue `a` against subject
    /// residue `b`; [`i8::MIN`] for `b` outside the alphabet, [`PAD`]
    /// included. Each lane type writes its own copy as entries
    /// (`ByteLanes::entry`).
    rows: [[i8; 32]; 32],
    /// The distinct residue codes of the query.
    present: Vec<u8>,
    bias: u8,
    /// A lane whose maximum reaches this may have saturated.
    pub limit: u8,
    open: u8,
    ext: u8,
}

impl Tables {
    /// Tables for `query` under `scheme`; `None` when the byte tier
    /// cannot run inter-sequence — the scheme fails `byte_scheme`'s
    /// checks — or the query holds a code outside the alphabet.
    pub fn build(query: &[u8], scheme: &ScoringScheme) -> Option<Tables> {
        let matrix = &scheme.matrix;
        let size = matrix.size();
        let (bias, limit) = byte_scheme(scheme)?;
        let mut seen = [false; 32];
        for &q in query {
            if q as usize >= size {
                return None;
            }
            seen[q as usize] = true;
        }
        let present: Vec<u8> = (0..size as u8).filter(|&a| seen[a as usize]).collect();
        let mut rows = [[i8::MIN; 32]; 32];
        for &a in &present {
            for (b, &s) in matrix.row(a).iter().enumerate() {
                // `byte_range` bounds every score to −120..=120.
                rows[a as usize][b] = s as i8;
            }
        }
        Some(Tables {
            rows,
            present,
            bias,
            limit,
            // `byte_scheme` bounds both by `MAX_GAP`, and `gap_extend`
            // is at most `gap_first`.
            open: scheme.gap_first() as u8,
            ext: scheme.gap_extend as u8,
        })
    }
}

/// The striped byte kernel's `(bias, limit)` for `scheme`
/// ([`byte_range`]), when the inter-sequence kernel can score under it:
/// the matrix fits a biased byte (otherwise the striped ladder starts at
/// 16 bits too), the alphabet leaves [`PAD`] free, and both gap
/// penalties are at most 127, which one signed-byte subtract takes. A
/// scheme that fails is scored by the striped ladder alone.
pub(crate) fn byte_scheme(scheme: &ScoringScheme) -> Option<(u8, u8)> {
    let fits = scheme.matrix.size() <= PAD as usize && scheme.gap_first() <= MAX_GAP;
    byte_range(&scheme.matrix).filter(|_| fits)
}

/// A stream as the kernel scores it: columns of [`LANES`] cells and
/// each subject's start, in the order dealt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamRef<'a> {
    pub columns: &'a [[u8; LANES]],
    pub starts: &'a [Start],
}

impl<'a> StreamRef<'a> {
    /// A stream laid out by [`swdual_bio::lanes`].
    pub fn of(stream: &'a swdual_bio::lanes::Stream) -> StreamRef<'a> {
        StreamRef {
            columns: stream.columns.as_chunks::<LANES>().0,
            starts: &stream.starts,
        }
    }
}

/// What one kernel call scores: window `window` of a stream's columns,
/// lanes `window * L..(window + 1) * L`.
pub(crate) struct Window<'a, const L: usize> {
    pub stream: StreamRef<'a>,
    pub window: usize,
}

/// What the kernel carries along the stream besides the DP state: each
/// lane's running maximum, as a cell of the lane type whose `ZERO` is
/// `zero`, the subject it holds, and which lanes keep their `H`/`E`
/// state into the next group.
struct Harvest<const L: usize> {
    zero: u8,
    best: [u8; L],
    holds: [Option<usize>; L],
    /// All-ones on a lane whose state the next group reads as stored,
    /// zero on one handed over since then. All clear at the stream's
    /// start, so its first group, which always holds starts (the first
    /// subject dealt starts at column 0), reads every row as the cell 0.
    keep: [u8; L],
}

impl<const L: usize> Harvest<L> {
    fn new(zero: u8) -> Self {
        Harvest {
            zero,
            best: [zero; L],
            holds: [None; L],
            keep: [0; L],
        }
    }

    /// Record the maximum `lane` holds for `subject`, converted back to
    /// a score.
    fn record(&self, lane: usize, subject: usize, maxima: &mut [u8]) {
        maxima[subject] = self.best[lane].wrapping_sub(self.zero);
    }

    /// Hand `lane` over to `subject`: record the maximum of the subject
    /// it held, clear its maximum, and mark its `H`/`E` state to be read
    /// as the cell 0 by the next group, which clears it as it passes.
    #[inline]
    fn start(&mut self, lane: usize, subject: usize, maxima: &mut [u8]) {
        if let Some(held) = self.holds[lane] {
            self.record(lane, held, maxima);
        }
        self.best[lane] = self.zero;
        self.holds[lane] = Some(subject);
        self.keep[lane] = 0;
    }

    /// The stream has ended: record what every lane still holds.
    fn finish(self, maxima: &mut [u8]) {
        for (lane, held) in self.holds.iter().enumerate() {
            if let Some(held) = *held {
                self.record(lane, held, maxima);
            }
        }
    }
}

/// One window of a stream: `query` against lanes of `block`'s columns,
/// in `V`'s cell representation, whatever `buffers` held on entry. A
/// start hands its lane over before its column is scored; each
/// subject's maximum `H` goes to `maxima[subject]`, `subject` the
/// start's position in the stream. Starts of other windows' lanes are
/// passed over.
///
/// The stream is scored [`GROUP`] columns per pass down the query: each
/// row loads its `H` and `E` once, scores the group's columns in
/// registers — `E` running along the row, each column's `F` and the
/// row above's `H` carried down in registers — and stores once. Starts
/// fall on group boundaries only, so no lane changes hands inside a
/// pass. Those two loads are the only reads of the previous group's
/// state, so a lane is cleared for its new subject there: a pass that
/// holds starts masks them with the harvest's `keep` mask, all-ones but
/// on the lanes handed over at this group, and every other pass with
/// all-ones. Whatever the DP state held before, each subject thus
/// starts from a column of cell 0s; a lane that never holds one scores
/// only pads, whose values no maximum reads.
///
/// # Safety
/// `V`'s instruction set must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn refill_body<V: ByteLanes<L>, const L: usize>(
    query: &[u8],
    tables: &Tables,
    block: Window<'_, L>,
    buffers: InterseqBuffers<'_, L>,
    maxima: &mut [u8],
) {
    let InterseqBuffers {
        profile: dprof,
        state,
        rows,
    } = buffers;
    debug_assert_eq!(state.len(), query.len());
    for &a in &tables.present {
        let (row, scores) = (&mut rows[a as usize & 31], &tables.rows[a as usize & 31]);
        for (entry, &score) in row.iter_mut().zip(scores) {
            *entry = V::entry(score, tables.bias);
        }
    }
    let (groups, rest) = block.stream.columns.as_chunks::<GROUP>();
    debug_assert!(rest.is_empty());
    let (window, first_lane) = (block.window, block.window * L);
    let mut harvest = Harvest::<L>::new(V::ZERO);
    // SAFETY (every `V` operation below): the caller guarantees `V`'s
    // instruction set; the operations touch only the references passed.
    let zero = V::splat(V::ZERO);
    let ones = V::splat(u8::MAX);
    let bias = V::splat(tables.bias);
    let open = V::splat(tables.open);
    let ext = V::splat(tables.ext);
    let mut lane_best = V::load(&harvest.best);
    let mut starts = block.stream.starts.iter().enumerate().peekable();
    let starts_at = |at: usize| move |&(_, start): &(usize, &Start)| start.column as usize == at;
    for (at, group) in (0..).step_by(GROUP).zip(groups) {
        let mut keep = ones;
        if starts.peek().is_some_and(starts_at(at)) {
            lane_best.store(&mut harvest.best);
            while let Some((subject, start)) = starts.next_if(starts_at(at)) {
                let lane = (start.lane as usize).wrapping_sub(first_lane);
                if lane < L {
                    harvest.start(lane, subject, maxima);
                }
            }
            lane_best = V::load(&harvest.best);
            keep = V::load(&harvest.keep);
            harvest.keep = [u8::MAX; L];
        }
        debug_assert!(starts
            .peek()
            .is_none_or(|(_, start)| start.column as usize >= at + GROUP));
        let residues = group
            .each_ref()
            .map(|column| V::load(&column.as_chunks::<L>().0[window]));
        for &a in &tables.present {
            let (row, prof) = (&rows[a as usize & 31], &mut dprof[a as usize & 31]);
            for (slot, &residues) in prof.iter_mut().zip(&residues) {
                V::lookup32(row, residues).store(slot);
            }
        }
        // Down the group: `diag` is H[i-1][j0-1] for the group's first
        // column j0, `up` H[i-1] of its first three columns, `f` each
        // column's vertical gap state; all start from the boundary row
        // of cell 0s.
        let mut diag = zero;
        let mut up = [zero; GROUP - 1];
        let mut f = [zero; GROUP];
        for (he, &q) in state.iter_mut().zip(query) {
            let [h_slot, e_slot] = he;
            let score = &dprof[q as usize & 31];
            let left = V::load(h_slot).kept(keep);
            let mut e = V::load(e_slot).kept(keep);
            let mut h = [zero; GROUP];
            for c in 0..GROUP {
                let diag = if c == 0 { diag } else { up[c - 1] };
                // H = max(diag + score, F, E); the add's floor is the
                // 0 clamp. `E` comes last: it is the chain along the row.
                let score = V::load(&score[c]);
                h[c] = diag.add_score(score, bias).max_cell(f[c]).max_cell(e);
                let h_open = h[c].sub_gap(open);
                e = e.sub_gap(ext).max_cell(h_open);
                f[c] = f[c].sub_gap(ext).max_cell(h_open);
            }
            let group_best = h.into_iter().reduce(|a, b| a.max_cell(b));
            lane_best = lane_best.max_cell(group_best.unwrap_or(zero));
            h[GROUP - 1].store(h_slot);
            e.store(e_slot);
            diag = left;
            up.copy_from_slice(&h[..GROUP - 1]);
        }
    }
    lane_best.store(&mut harvest.best);
    harvest.finish(maxima);
}

/// [`refill_body`] instantiated for one backend.
type RefillFn<const L: usize> =
    unsafe fn(&[u8], &Tables, Window<'_, L>, InterseqBuffers<'_, L>, &mut [u8]);

fn refill_array(
    query: &[u8],
    tables: &Tables,
    block: Window<'_, ARRAY_LANES>,
    buffers: InterseqBuffers<'_, ARRAY_LANES>,
    maxima: &mut [u8],
) {
    // SAFETY: the lane arrays need no instruction set beyond the
    // target's baseline.
    unsafe { refill_body::<[u8; ARRAY_LANES], ARRAY_LANES>(query, tables, block, buffers, maxima) }
}

/// Score `stream` through `kernel`, one window of `L` lanes at a time,
/// each up to its own last residue.
///
/// # Safety
/// `kernel`'s instruction set must be available on the running CPU.
unsafe fn score_stream<const L: usize>(
    kernel: RefillFn<L>,
    query: &[u8],
    tables: &Tables,
    stream: StreamRef<'_>,
    scratch: &mut Scratch,
    maxima: &mut [u8],
) {
    for window in 0..LANES / L {
        // Past a window's last residue every cell is a pad, which moves
        // no maximum: a window ends at the group that holds it.
        let holds_residues = |column: &[u8; LANES]| {
            column.as_chunks::<L>().0[window]
                .iter()
                .any(|&cell| cell != PAD)
        };
        let width = (stream.columns.iter())
            .rposition(holds_residues)
            .map_or(0, |last| (last + 1).next_multiple_of(GROUP));
        let stream = StreamRef {
            columns: &stream.columns[..width],
            ..stream
        };
        let buffers = scratch.interseq::<L>(query.len());
        let block = Window { stream, window };
        // SAFETY: the caller guarantees `kernel`'s instruction set.
        kernel(query, tables, block, buffers, maxima);
    }
}

impl Backend {
    /// Lanes per vector of this backend's inter-sequence kernel on this
    /// host.
    pub fn interseq_lanes(self) -> usize {
        match self {
            Backend::Avx2 if self.is_available() => AVX2_LANES,
            _ => ARRAY_LANES,
        }
    }

    /// The inter-sequence byte kernel: `query` against `stream`, with the
    /// `tables` built for that query. Writes each subject's maximum `H`
    /// to `maxima[subject]`, `subject` its position among the stream's
    /// starts; a value ≥ [`Tables::limit`] may have saturated and must
    /// escalate, anything below is the exact score. A subject the stream
    /// never reaches (an empty one dealt where it ends) is left alone.
    pub(crate) fn interseq8(
        self,
        query: &[u8],
        tables: &Tables,
        stream: StreamRef<'_>,
        scratch: &mut Scratch,
        maxima: &mut [u8],
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if self.is_available() => {
                let kernel = crate::simd_avx2::refill_avx2;
                // SAFETY: the guard just detected AVX2 on this CPU.
                unsafe { score_stream(kernel, query, tables, stream, scratch, maxima) }
            }
            // Every other host runs the lane arrays.
            _ => {
                // SAFETY: as in `refill_array`.
                unsafe { score_stream(refill_array, query, tables, stream, scratch, maxima) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gotoh_score;
    use crate::tiered::{score_database_with, ByteShape, Subjects, TierStats};
    use swdual_bio::lanes::Stream;
    use swdual_bio::{Alphabet, Matrix};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    /// Each subject's raw maximum, before any escalation, with the
    /// subjects dealt out to one stream in the order given.
    fn lane_maxima(
        backend: Backend,
        q: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
    ) -> Vec<u8> {
        maxima_in(&mut Scratch::default(), backend, q, subjects, scheme)
    }

    /// [`lane_maxima`] in the working memory `scratch`.
    fn maxima_in(
        scratch: &mut Scratch,
        backend: Backend,
        q: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
    ) -> Vec<u8> {
        let tables = Tables::build(q, scheme).unwrap();
        let stream = Stream::lay_out(subjects.iter().copied());
        let mut maxima = vec![0u8; subjects.len()];
        backend.interseq8(q, &tables, StreamRef::of(&stream), scratch, &mut maxima);
        maxima
    }

    /// Every backend's raw stream must equal Gotoh (all scores here fit
    /// a byte).
    fn assert_batch_exact(q: &[u8], subjects: &[Vec<u8>], scheme: &ScoringScheme) {
        let refs: Vec<&[u8]> = subjects.iter().map(|s| s.as_slice()).collect();
        let want: Vec<u8> = refs
            .iter()
            .map(|s| gotoh_score(q, s, scheme) as u8)
            .collect();
        for backend in Backend::available() {
            assert_eq!(lane_maxima(backend, q, &refs, scheme), want, "{backend}");
        }
    }

    /// `n` rotations of `q`, 4 to 20 residues long.
    fn rotations(q: &[u8], n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut s = q.to_vec();
                s.rotate_left(i % q.len());
                s.truncate(4 + i % 17);
                s
            })
            .collect()
    }

    #[test]
    fn full_batch_agrees_with_scalar() {
        // Every lane of each backend's vector in use, then refilled.
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRG");
        assert_batch_exact(&q, &rotations(&q, LANES), &scheme);
        assert_batch_exact(&q, &rotations(&q, 3 * LANES + 5), &scheme);
    }

    #[test]
    fn partial_batch_and_empty_subjects() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLAT");
        assert_batch_exact(&q, &[q.clone(), vec![], prot(b"W")], &scheme);
        // Empty subjects amid and after the others, and nothing else.
        assert_batch_exact(&q, &[vec![], q.clone(), vec![], vec![]], &scheme);
        assert_batch_exact(&q, &[vec![], vec![]], &scheme);
        assert_batch_exact(&q, &[], &scheme);
    }

    #[test]
    fn unequal_lengths_expire_lanes_correctly() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLATGGARND");
        let subjects = [
            prot(b"M"),
            prot(b"MKVLATGGARNDMKVLATGGARNDMKVLATGGARND"),
            prot(b"GGAR"),
            prot(b"NDMKVLAT"),
            prot(b"ARNDCQEGHILKMFPSTWYVBZX*"),
        ];
        assert_batch_exact(&q, &subjects, &scheme);
        // Lane 0 ends after 4 columns with a perfect score; lane 1 runs
        // 300 more. Pad columns must not move lane 0's maximum.
        let w4 = prot(b"WWWW");
        assert_batch_exact(&w4, &[w4.clone(), prot(&[b'A'; 304])], &scheme);
        // One long subject keeps lane 0 busy while the rest end by
        // column 16: the lanes' upper half ends there, and so does the
        // 16-lane kernels' pass over it; empty subjects follow.
        let mut ragged = vec![prot(&[b'W'; 300])];
        ragged.extend(rotations(&q, 39).into_iter().map(|mut s| {
            s.truncate(8);
            s
        }));
        ragged.extend([vec![], vec![], vec![]]);
        assert_batch_exact(&q, &ragged, &scheme);
    }

    #[test]
    fn refilled_lanes_start_from_a_clean_column() {
        // A perfect match hands its lane to a subject that only scores
        // if it does not inherit the match's `H`/`E` state or maximum:
        // 600 columns, 40 lanes' worth of subjects, in both halves of a
        // 32-lane column.
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"WWWWCCCC");
        let mut subjects = vec![prot(&[b'A'; 600])];
        for i in 0..40 {
            subjects.push(if i % 2 == 0 {
                q.clone()
            } else {
                prot(b"AAAAAAW")
            });
            subjects.push(prot(&vec![b'G'; 200 + 13 * i]));
        }
        subjects.sort_by_key(|s| std::cmp::Reverse(s.len()));
        assert_batch_exact(&q, &subjects, &scheme);
    }

    #[test]
    fn a_reused_scratch_scores_as_a_fresh_one() {
        // Nothing zeroes the DP state between calls: 300 W's against
        // themselves in every lane leave `H`/`E` bytes at the ceiling
        // in every row, and a shorter query against another stream then
        // reads those rows first. Its first pass must clear them.
        let scheme = ScoringScheme::protein_default();
        let long = prot(&[b'W'; 300]);
        let q = prot(b"MKWVTFISLLFLFSSAYSRG");
        let subjects = rotations(&q, 2 * LANES + 5);
        let refs: Vec<&[u8]> = subjects.iter().map(|s| s.as_slice()).collect();
        let want: Vec<u8> = refs
            .iter()
            .map(|s| gotoh_score(&q, s, &scheme) as u8)
            .collect();
        let limit = Tables::build(&long, &scheme).unwrap().limit;
        for backend in Backend::available() {
            let scratch = &mut Scratch::default();
            let saturated = maxima_in(scratch, backend, &long, &[long.as_slice(); LANES], &scheme);
            assert!(saturated.iter().all(|&m| m >= limit), "{backend}");
            let reused = maxima_in(scratch, backend, &q, &refs, &scheme);
            assert_eq!(
                reused,
                lane_maxima(backend, &q, &refs, &scheme),
                "{backend}"
            );
            assert_eq!(reused, want, "{backend}");
        }
    }

    /// Each subject's raw maximum in both cell representations — the
    /// lane arrays' biased unsigned bytes and, where the host has AVX2,
    /// its offset signed ones — pinned against each other and against
    /// Gotoh: below [`Tables::limit`] on one iff on the other, and
    /// there the Gotoh score on both; at or above it only when the
    /// Gotoh score is.
    fn assert_representations_agree(q: &[u8], subjects: &[Vec<u8>], scheme: &ScoringScheme) {
        let refs: Vec<&[u8]> = subjects.iter().map(|s| s.as_slice()).collect();
        let limit = Tables::build(q, scheme).unwrap().limit;
        // `None`: at or above the limit, so the subject escalates.
        let exact = |m: u8| (m < limit).then_some(m as i32);
        let arrays = lane_maxima(Backend::Scalar, q, &refs, scheme);
        let avx2 =
            (Backend::Avx2.is_available()).then(|| lane_maxima(Backend::Avx2, q, &refs, scheme));
        for (i, s) in refs.iter().enumerate() {
            let gotoh = gotoh_score(q, s, scheme);
            let want = (gotoh < limit as i32).then_some(gotoh);
            assert_eq!(exact(arrays[i]), want, "lane arrays, subject {i}");
            if let Some(avx2) = &avx2 {
                assert_eq!(exact(avx2[i]), exact(arrays[i]), "AVX2, subject {i}");
            }
        }
    }

    /// `len` residues below `below`, from a fixed seed.
    fn pseudo_random(len: usize, below: u8, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % below as u64) as u8
            })
            .collect()
    }

    #[test]
    fn both_representations_agree_on_raw_maxima() {
        let blosum = |open, ext| ScoringScheme::new(Matrix::blosum62().clone(), open, ext);
        let scheme = blosum(10, 2);
        let w = |n: usize| prot(&vec![b'W'; n]);
        // C W21 H: its C W21 scores 240 = the limit, its W21 H 239.
        let q = [prot(b"C"), w(21), prot(b"H")].concat();
        assert_eq!(Tables::build(&q, &scheme).unwrap().limit, 240);
        let at_limit = [prot(b"C"), w(21)].concat();
        let below = [w(21), prot(b"H")].concat();
        assert_eq!(gotoh_score(&q, &at_limit, &scheme), 240);
        assert_eq!(gotoh_score(&q, &below, &scheme), 239);
        // Every lane at the limit, below it or past it, then handed over
        // to short unrelated subjects that score 0 (W against D, E, G,
        // N, P is negative), some ending mid-group: pad columns. A
        // subject that inherited the saturated state would read high.
        let mismatch = prot(b"DEGNPDEGNP");
        let mut subjects = Vec::new();
        for i in 0..LANES {
            subjects.push(match i % 4 {
                0 => at_limit.clone(),
                1 => below.clone(),
                2 => [q.clone(), w(30)].concat(),
                _ => q.clone(),
            });
        }
        subjects.extend((1..=2 * LANES).map(|n| mismatch[..1 + n % 10].to_vec()));
        assert_representations_agree(&q, &subjects, &scheme);
        // Three subjects: 29 lanes that only ever hold pads.
        assert_representations_agree(&q, &[below, at_limit, mismatch], &scheme);
        // Random streams, with the query's own stretches among them, under
        // gaps up to the largest the kernel takes — 127, which a cell at
        // 239 can still afford — and a matrix at the edge of the byte
        // range (bias 120, limit 15).
        let dna_edge = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, 120, -120), 0, 0);
        let cases = [
            (scheme.clone(), 24),
            (blosum(126, 1), 24),
            (blosum(0, 127), 24),
            (blosum(1, 0), 24),
            (dna_edge, 5),
        ];
        for (seed, (scheme, letters)) in cases.into_iter().enumerate() {
            let seed = seed as u64;
            let q = pseudo_random(40, letters, seed);
            let mut subjects: Vec<Vec<u8>> = (0..90)
                .map(|i| pseudo_random(i * 7 % 61, letters, seed * 1000 + i as u64))
                .collect();
            subjects.extend(rotations(&q, 40));
            subjects.extend((0..8).map(|k| [q.repeat(k), q[..k * 3].to_vec()].concat()));
            assert_representations_agree(&q, &subjects, &scheme);
        }
    }

    #[test]
    fn gaps_past_127_leave_the_kernel_and_score_exactly() {
        // One signed-byte subtract takes at most 127; a dearer first or
        // extending gap — 128, 255, or `i32::MAX` from the saturating
        // sum — builds no tables, and the striped ladder scores the
        // query under every shape, resolving and escalating alike.
        let q = prot(b"MKWVTFISLLFLFSSAYSRGWWWWWWWWWWWWWWWWWWWWWWWW");
        let subjects: Vec<&[u8]> = vec![&q, &q[3..30], &q[20..], b"", &q[..5]];
        let db = Subjects::new(subjects.clone());
        for (open, ext) in [
            (127, 1),
            (0, 128),
            (128, 127),
            (0, 255),
            (i32::MAX, 0),
            (i32::MAX, i32::MAX),
        ] {
            let scheme = ScoringScheme::new(Matrix::blosum62().clone(), open, ext);
            assert!(scheme.gap_first() > MAX_GAP);
            assert!(Tables::build(&q, &scheme).is_none(), "{open}/{ext}");
            let want: Vec<i32> = subjects
                .iter()
                .map(|s| gotoh_score(&q, s, &scheme))
                .collect();
            for backend in Backend::available() {
                let mut tiers = Vec::new();
                for shape in [ByteShape::InterSeq, ByteShape::Striped] {
                    let mut stats = TierStats::default();
                    let (got, _) = score_database_with(
                        backend,
                        shape,
                        &q,
                        &db,
                        db.whole(),
                        &scheme,
                        None,
                        &mut Scratch::default(),
                        &mut stats,
                    );
                    assert_eq!(db.in_database_order(&got), want, "{open}/{ext} {backend}");
                    tiers.push(stats);
                }
                assert_eq!(tiers[0], tiers[1], "{open}/{ext} {backend}");
            }
        }
        // At 127 both gaps still run inter-sequence.
        for (open, ext) in [(126, 1), (0, 127)] {
            let scheme = ScoringScheme::new(Matrix::blosum62().clone(), open, ext);
            assert!(Tables::build(&q, &scheme).is_some(), "{open}/{ext}");
        }
    }

    #[test]
    fn empty_query_scores_all_zero() {
        let scheme = ScoringScheme::protein_default();
        assert_batch_exact(&[], &[prot(b"MKVLAT")], &scheme);
    }

    #[test]
    fn overflow_lane_flagged_and_exact_recovers() {
        let scheme = ScoringScheme::protein_default();
        let w = prot(&[b'W'; 60]);
        let tables = Tables::build(&w, &scheme).unwrap();
        assert_eq!(tables.limit, 240); // 255 − (11 + 4), as the striped byte kernel
        let subjects: [&[u8]; 4] = [&w, &w[..21], &w[..22], &prot(b"MKV")];
        for backend in Backend::available() {
            let got = lane_maxima(backend, &w, &subjects, &scheme);
            assert!(got[0] >= tables.limit, "{backend}");
            assert_eq!(got[1], 231, "{backend}: last trustworthy rung");
            assert!(got[2] >= tables.limit, "{backend}: 242 must escalate");
            assert_eq!(got[3], 0, "{backend}");
            // The ladder above recovers the flagged subjects exactly.
            let mut stats = TierStats::default();
            let db = Subjects::new(subjects.to_vec());
            let (exact, _) = score_database_with(
                backend,
                ByteShape::InterSeq,
                &w,
                &db,
                db.whole(),
                &scheme,
                None,
                &mut Scratch::default(),
                &mut stats,
            );
            assert_eq!(
                db.in_database_order(&exact),
                [660, 231, 242, 0],
                "{backend}"
            );
            assert_eq!((stats.byte_resolved, stats.escalated_16), (2, 2));
        }
    }

    #[test]
    fn search_batches_whole_database() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLATGGARND");
        // 300 subjects: three blocks, each refilling every lane.
        let subjects: Vec<Vec<u8>> = (0..300)
            .map(|i| {
                let mut v = q.clone();
                v.rotate_left(i % 12);
                v.truncate(3 + i % 10);
                v
            })
            .collect();
        let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
        let want: Vec<i32> = subjects
            .iter()
            .map(|s| gotoh_score(&q, s, &scheme))
            .collect();
        for backend in Backend::available() {
            let (got, _) = score_database_with(
                backend,
                ByteShape::InterSeq,
                &q,
                &db,
                db.whole(),
                &scheme,
                None,
                &mut Scratch::default(),
                &mut TierStats::default(),
            );
            assert_eq!(db.in_database_order(&got), want, "{backend}");
        }
    }

    #[test]
    fn cheap_gap_scheme_agrees() {
        let m = Matrix::match_mismatch(Alphabet::Dna, 2, -100);
        let scheme = ScoringScheme::new(m, 1, 0);
        let q = Alphabet::Dna.encode(b"AATTAACCGGAATTACGACGT").unwrap();
        let subjects = [
            Alphabet::Dna.encode(b"AAGGAACCTTAATTGCATCGA").unwrap(),
            Alphabet::Dna.encode(b"TTTTAAAACCCCGGGG").unwrap(),
        ];
        assert_batch_exact(&q, &subjects, &scheme);
    }

    #[test]
    fn tables_refuse_what_the_byte_tier_cannot_hold() {
        let q = [0u8, 1, 2, 3];
        let unbiasable = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, 5, -200), 10, 2);
        assert!(Tables::build(&q, &unbiasable).is_none());
        let dna = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, 5, -4), 10, 2);
        assert!(Tables::build(&q, &dna).is_some());
        // Code 5 is outside the 5-letter DNA alphabet.
        assert!(Tables::build(&[0, 5], &dna).is_none());
    }

    #[test]
    fn no_count_of_subjects_makes_a_stream_panic() {
        // Streams of none, of empty subjects only, of one lane's worth
        // refilled many times, and of subjects filling both halves of
        // every column: exact on every backend.
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLATGG");
        for lengths in [
            vec![],
            vec![0; 5],
            vec![0; 100],
            vec![3; 100],
            vec![256; 33],
        ] {
            let subjects: Vec<Vec<u8>> = lengths
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|k| ((i + k) % 20) as u8).collect())
                .collect();
            assert_batch_exact(&q, &subjects, &scheme);
        }
    }
}
