//! Inter-sequence byte kernel (`interseq8`) — Rognes' SWIPE scheme [9].
//!
//! Where Farrar's kernel vectorises *within* one comparison (lanes =
//! query positions), SWIPE vectorises *across* comparisons: lane `l` of
//! every vector belongs to subject `l` of the current batch. All lanes
//! run the plain Gotoh recurrences independently — no lazy-F loop, no
//! padding of the query to a lane multiple, no striped query profile —
//! which is what makes it the faster shape on short queries.
//!
//! **Score profile.** The substitution scores a column needs depend on
//! the batch's residues at that position, so the profile is built per
//! column: for each *distinct* query residue `a`, one vector
//! `dprof[a][l] = score(a, column[l]) + bias`, looked up from the
//! 32-entry row [`Tables::rows`]`[a]` (two 16-entry `pshufb` tables on
//! AVX2). Residue code [`PAD`] fills the lanes of subjects that have
//! already ended; its table entry is biased 0, i.e. a true score of
//! `−bias`, so a finished lane can only decay.
//!
//! **Same escalations as the striped byte kernel.** Arithmetic is the
//! striped kernel's: unsigned, biased, saturating, with the same `bias`
//! and the same guard `limit` ([`crate::striped8::byte_range`]). An add
//! can only saturate when its `H` input is already ≥ `limit`, so while
//! every cell is below `limit` both kernels compute exact values, and
//! the first cell to reach it is computed exactly by both. A lane's
//! maximum is therefore ≥ `limit` here iff the striped kernel's is:
//! the two shapes escalate the same subjects, whatever the order they
//! visit cells in.
//!
//! The kernel body is written once over [`ByteLanes`]; the AVX2
//! instantiation runs 32 subjects per vector, the lane-array one (the
//! oracle, and what every backend without an instantiation of its own
//! runs) 16.

use crate::dispatch::Backend;
use crate::scratch::{InterseqBuffers, Scratch};
use crate::striped8::byte_range;
use swdual_bio::ScoringScheme;

/// Residue code of an exhausted lane. Alphabets must leave it free
/// (size ≤ 31).
pub const PAD: u8 = 31;

/// Most lanes any backend runs.
pub const MAX_LANES: usize = 32;

/// What the kernel needs of one (query, scheme) pair. Built per job:
/// a few hundred table reads, not worth caching.
#[derive(Debug, Clone)]
pub struct Tables {
    /// `rows[a][b]` = biased score of query residue `a` against subject
    /// residue `b`; 0 (true score `−bias`) for `b` outside the alphabet,
    /// [`PAD`] included.
    rows: [[u8; 32]; 32],
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
    /// cannot run inter-sequence — the matrix does not fit a biased
    /// byte (the striped ladder then starts at 16 bits too), the
    /// alphabet leaves no pad code, or the query holds a code outside
    /// the alphabet.
    pub fn build(query: &[u8], scheme: &ScoringScheme) -> Option<Tables> {
        let matrix = &scheme.matrix;
        let size = matrix.size();
        let (bias, limit) = byte_range(matrix)?;
        if size > PAD as usize {
            return None;
        }
        let mut seen = [false; 32];
        for &q in query {
            if q as usize >= size {
                return None;
            }
            seen[q as usize] = true;
        }
        let present: Vec<u8> = (0..size as u8).filter(|&a| seen[a as usize]).collect();
        let mut rows = [[0u8; 32]; 32];
        for &a in &present {
            for (b, &s) in matrix.row(a).iter().enumerate() {
                rows[a as usize][b] = (s + bias as i32) as u8;
            }
        }
        Some(Tables {
            rows,
            present,
            bias,
            limit,
            open: (scheme.gap_open + scheme.gap_extend).min(255) as u8,
            ext: scheme.gap_extend.min(255) as u8,
        })
    }
}

/// The vector operations the kernel body is written over: `L` unsigned
/// byte lanes.
///
/// # Safety
/// Every method requires the implementing backend's instruction set on
/// the running CPU.
pub(crate) trait ByteLanes<const L: usize>: Copy {
    unsafe fn splat(x: u8) -> Self;
    unsafe fn load(src: &[u8; L]) -> Self;
    unsafe fn store(self, dst: &mut [u8; L]);
    /// Lane-wise saturating add.
    unsafe fn adds(self, other: Self) -> Self;
    /// Lane-wise saturating subtract.
    unsafe fn subs(self, other: Self) -> Self;
    unsafe fn max(self, other: Self) -> Self;
    /// `row[idx[l]]` per lane; every lane of `idx` is below 32.
    unsafe fn lookup32(row: &[u8; 32], idx: Self) -> Self;
}

/// Lanes of the lane-array instantiation.
pub(crate) const ARRAY_LANES: usize = 16;

/// The portable lane-array instantiation (autovectorised).
impl ByteLanes<ARRAY_LANES> for [u8; ARRAY_LANES] {
    #[inline(always)]
    unsafe fn splat(x: u8) -> Self {
        [x; ARRAY_LANES]
    }
    #[inline(always)]
    unsafe fn load(src: &[u8; ARRAY_LANES]) -> Self {
        *src
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [u8; ARRAY_LANES]) {
        *dst = self;
    }
    #[inline(always)]
    unsafe fn adds(self, other: Self) -> Self {
        std::array::from_fn(|l| self[l].saturating_add(other[l]))
    }
    #[inline(always)]
    unsafe fn subs(self, other: Self) -> Self {
        std::array::from_fn(|l| self[l].saturating_sub(other[l]))
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        std::array::from_fn(|l| self[l].max(other[l]))
    }
    #[inline(always)]
    unsafe fn lookup32(row: &[u8; 32], idx: Self) -> Self {
        std::array::from_fn(|l| row[idx[l] as usize & 31])
    }
}

/// One block of a batch's columns: `query` against the `L` subjects laid
/// out in `buffers.columns` (lane `l` of `columns[j]` = residue `j` of
/// subject `l`, or [`PAD`]), scored from `buffers.rows`, continuing from
/// the DP state the previous block left. Returns each lane's maximum
/// `H` so far, given the maxima `best` before this block.
///
/// # Safety
/// `V`'s instruction set must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn batch_body<V: ByteLanes<L>, const L: usize>(
    query: &[u8],
    tables: &Tables,
    buffers: InterseqBuffers<'_, L>,
    mut best: [u8; L],
) -> [u8; L] {
    let InterseqBuffers {
        columns,
        profile: dprof,
        state,
        rows,
    } = buffers;
    debug_assert_eq!(state.len(), query.len());
    let zero = V::splat(0);
    let bias = V::splat(tables.bias);
    let open = V::splat(tables.open);
    let ext = V::splat(tables.ext);
    let mut lane_best = V::load(&best);
    for column in columns.iter() {
        let residues = V::load(column);
        for &a in &tables.present {
            V::lookup32(&rows[a as usize & 31], residues).store(&mut dprof[a as usize & 31]);
        }
        // Down the column: `diag` is H[i-1][j-1], `f` the vertical gap
        // state; both start from the all-zero boundary row.
        let mut diag = zero;
        let mut f = zero;
        for (he, &q) in state.iter_mut().zip(query) {
            let [h_slot, e_slot] = he;
            let e = V::load(e_slot);
            // H = max(diag + score, E, F); unsigned floor is the 0 clamp.
            let score = V::load(&dprof[q as usize & 31]);
            let h = diag.adds(score).subs(bias).max(e).max(f);
            lane_best = lane_best.max(h);
            diag = V::load(h_slot);
            h.store(h_slot);
            let h_open = h.subs(open);
            e.subs(ext).max(h_open).store(e_slot);
            f = f.subs(ext).max(h_open);
        }
    }
    lane_best.store(&mut best);
    best
}

/// Columns transposed and scored at a time: 8 KB of residues at 32
/// lanes, so the block stays in L1 beside the DP state and the scratch
/// does not grow with the longest subject.
const BLOCK: usize = 256;

/// Lay positions `start..` of `subjects` (at most `L`) out as residue
/// columns, one vector per position: [`PAD`] where a subject has ended
/// or a lane is unused.
fn transpose<const L: usize>(subjects: &[&[u8]], start: usize, columns: &mut [[u8; L]]) {
    columns.fill([PAD; L]);
    let flat = columns.as_flattened_mut();
    for (lane, subject) in subjects.iter().enumerate() {
        let residues = subject.get(start..).unwrap_or_default();
        for (slot, &residue) in flat.iter_mut().skip(lane).step_by(L).zip(residues) {
            *slot = residue;
        }
    }
}

/// [`batch_body`] instantiated for one backend.
type BatchFn<const L: usize> =
    unsafe fn(&[u8], &Tables, InterseqBuffers<'_, L>, [u8; L]) -> [u8; L];

fn batch_lanes<const L: usize>(
    run: BatchFn<L>,
    query: &[u8],
    tables: &Tables,
    subjects: &[&[u8]],
    scratch: &mut Scratch,
    best: &mut [u8; MAX_LANES],
) {
    let longest = subjects.iter().map(|s| s.len()).max().unwrap_or(0);
    let buffers = scratch.interseq::<L>(longest.min(BLOCK), query.len());
    buffers.state.fill([[0; L]; 2]);
    *buffers.rows = tables.rows;
    let mut lanes = [0u8; L];
    for start in (0..longest).step_by(BLOCK) {
        let buffers = scratch.interseq::<L>((longest - start).min(BLOCK), query.len());
        transpose(subjects, start, buffers.columns);
        // SAFETY: `run` is `batch_body` instantiated for the backend
        // `interseq8` matched on, after asserting that backend
        // available — for AVX2, detected on this CPU.
        lanes = unsafe { run(query, tables, buffers, lanes) };
    }
    best[..L].copy_from_slice(&lanes);
}

fn batch_array(
    query: &[u8],
    tables: &Tables,
    buffers: InterseqBuffers<'_, ARRAY_LANES>,
    best: [u8; ARRAY_LANES],
) -> [u8; ARRAY_LANES] {
    // SAFETY: the lane-array operations are plain Rust; they need no
    // instruction set.
    unsafe { batch_body::<[u8; ARRAY_LANES], ARRAY_LANES>(query, tables, buffers, best) }
}

impl Backend {
    /// Subjects per vector of this backend's [`interseq8`].
    pub fn interseq_lanes(self) -> usize {
        match self {
            Backend::Avx2 => crate::wide::LANES8W,
            _ => ARRAY_LANES,
        }
    }

    /// The inter-sequence byte kernel: `query` against at most
    /// [`Backend::interseq_lanes`] subjects at once, with the `tables`
    /// built for that query. Writes each subject's maximum `H` to
    /// `best[lane]`; a value ≥ [`Tables::limit`] may have saturated and
    /// must escalate, anything below is the exact score.
    ///
    /// # Panics
    /// On more subjects than lanes, or a backend this host lacks.
    pub fn interseq8(
        self,
        query: &[u8],
        tables: &Tables,
        subjects: &[&[u8]],
        scratch: &mut Scratch,
        best: &mut [u8; MAX_LANES],
    ) {
        assert!(self.is_available(), "backend {self} is not available");
        assert!(subjects.len() <= self.interseq_lanes());
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => batch_lanes::<{ crate::wide::LANES8W }>(
                crate::simd_avx2::interseq8_batch_avx2,
                query,
                tables,
                subjects,
                scratch,
                best,
            ),
            // NEON and `std::simd` have no instantiation yet (none could
            // be measured on this host); they run the lane arrays.
            _ => batch_lanes::<ARRAY_LANES>(batch_array, query, tables, subjects, scratch, best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gotoh_score;
    use crate::tiered::{score_database_with, ByteShape, Subjects, TierStats};
    use swdual_bio::{Alphabet, Matrix};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    /// One raw batch: each lane's maximum, before any escalation.
    fn lane_maxima(
        backend: Backend,
        q: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
    ) -> Vec<u8> {
        let tables = Tables::build(q, scheme).unwrap();
        let mut best = [0u8; MAX_LANES];
        backend.interseq8(q, &tables, subjects, &mut Scratch::default(), &mut best);
        best[..subjects.len()].to_vec()
    }

    /// Every backend's raw batch must equal Gotoh (all scores here fit
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

    #[test]
    fn full_batch_agrees_with_scalar() {
        // Every lane of each backend's vector in use.
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRG");
        let subjects: Vec<Vec<u8>> = (0..MAX_LANES)
            .map(|i| {
                let mut s = q.clone();
                s.rotate_left(i % q.len());
                s.truncate(4 + i % 17);
                s
            })
            .collect();
        let refs: Vec<&[u8]> = subjects.iter().map(|s| s.as_slice()).collect();
        for backend in Backend::available() {
            let batch = &refs[..backend.interseq_lanes()];
            let want: Vec<u8> = batch
                .iter()
                .map(|s| gotoh_score(&q, s, &scheme) as u8)
                .collect();
            assert_eq!(lane_maxima(backend, &q, batch, &scheme), want, "{backend}");
        }
    }

    #[test]
    fn partial_batch_and_empty_subjects() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLAT");
        assert_batch_exact(&q, &[q.clone(), vec![], prot(b"W")], &scheme);
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
    }

    #[test]
    fn empty_query_scores_all_zero() {
        let scheme = ScoringScheme::protein_default();
        assert_batch_exact(&[], &[prot(b"MKVLAT")], &scheme);
    }

    #[test]
    #[should_panic]
    fn oversized_batch_panics() {
        let scheme = ScoringScheme::protein_default();
        let s = prot(b"M");
        let refs: Vec<&[u8]> = vec![&s; MAX_LANES + 1];
        lane_maxima(Backend::active(), &s, &refs, &scheme);
    }

    #[test]
    fn overflow_lane_flagged_and_exact_recovers() {
        let scheme = ScoringScheme::protein_default();
        let w = prot(&[b'W'; 60]);
        let tables = Tables::build(&w, &scheme).unwrap();
        assert_eq!(tables.limit, 240); // 255 − (11 + 4), as striped8
        let subjects: [&[u8]; 4] = [&w, &w[..21], &w[..22], &prot(b"MKV")];
        for backend in Backend::available() {
            let got = lane_maxima(backend, &w, &subjects, &scheme);
            assert!(got[0] >= tables.limit, "{backend}");
            assert_eq!(got[1], 231, "{backend}: last trustworthy rung");
            assert!(got[2] >= tables.limit, "{backend}: 242 must escalate");
            assert_eq!(got[3], 0, "{backend}");
            // The ladder above recovers the flagged lanes exactly.
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
        // 70 subjects: 3 AVX2 batches (32+32+6), 5 lane-array ones.
        let subjects: Vec<Vec<u8>> = (0..70)
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
}
