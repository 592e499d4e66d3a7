//! Inter-sequence byte kernel (`interseq8`) — Rognes' SWIPE scheme [9],
//! with its lanes refilled.
//!
//! Where Farrar's kernel vectorises *within* one comparison (lanes =
//! query positions), SWIPE vectorises *across* comparisons: lane `l` of
//! every vector scores one subject while the other lanes score others.
//! All lanes run the plain Gotoh recurrences independently — no lazy-F
//! loop, no padding of the query to a lane multiple, no striped query
//! profile — which is what makes it the faster shape on short queries.
//!
//! **One stream per job, lanes refilled.** A job scores the subjects of
//! its slice as one *stream* of residue columns, one vector of lanes per
//! column. The subjects are dealt out in the length order, longest
//! first: the lane that frees first — the lowest such lane on a tie —
//! takes the next subject on the first [`GROUP`] boundary at or past
//! the column where its last one ended. Each hand-over is a [`Start`]:
//! before scoring that column the kernel harvests the lane's maximum
//! for the subject it finished, zeroes the lane's running maximum and
//! its `H`/`E` column, and carries on with the same recurrences. A lane
//! pads at most three columns per subject, and no lane idles longer
//! until the lineup runs dry.
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
//! `−bias` and, like a pad lane, can only decay, so no maximum moves.
//! The per-job cursors, the shared streams, [`Lineup::columns`] and
//! everything that sizes a stream from it (the byte tier's fill, the
//! run pick) see that one padded layout.
//!
//! **Two sources, one kernel.** Per job, [`Cursors`] lay the next
//! [`BLOCK`] columns out in the worker's [`Scratch`] as the kernel
//! reaches them. A [`Stream`] holds all columns and starts of a slice at
//! once, laid out by the same cursors as one block that spans the whole
//! stream, so the two sources agree byte for byte. [`SharedStreams`]
//! builds one per slice that more jobs of short queries score than
//! there are workers, before the jobs run, and lends it to every job
//! that scores the slice whole, so such a slice is laid out once per
//! search instead of once per job.
//!
//! **Either side can be the stream.** Under a symmetric matrix the
//! local score of (q, s) is that of (s, q), so the kernel does not care
//! which side plays the query: a worker's *run* of short queries on one
//! slice lays the queries out as the stream, longest first, and runs
//! each subject down the rows with the subject's own [`Tables`]
//! ([`crate::tiered::score_run_with`]). The run's residues stay within
//! one [`BLOCK`] of lanes, since that stream is walked whole once per
//! subject.
//!
//! **Score profile.** The substitution scores a column needs depend on
//! the stream's residues at that position, so the profile is built per
//! group: for each *distinct* query residue `a` and each column `c` of
//! the group, one vector `dprof[a][c][l] = score(a, column_c[l]) +
//! bias`, looked up from the 32-entry row [`Tables::rows`]`[a]` (two
//! 16-entry `pshufb` tables on AVX2). Residue code [`PAD`] fills the
//! lanes and columns that have no subject; its table entry is biased 0,
//! i.e. a true score of `−bias`, so such a cell can only decay.
//!
//! **Same escalations as the striped byte kernel.** Arithmetic is the
//! striped kernel's: unsigned, biased, saturating, with the same `bias`
//! and the same guard `limit` ([`crate::striped8::byte_range`]). An add
//! can only saturate when its `H` input is already ≥ `limit`, so while
//! every cell is below `limit` both kernels compute exact values, and
//! the first cell to reach it is computed exactly by both. A subject's
//! maximum is therefore ≥ `limit` here iff the striped kernel's is: the
//! two shapes escalate the same subjects, whatever lane or column a
//! subject lands on.
//!
//! The kernel body is written once over [`ByteLanes`]; the AVX2
//! instantiation runs 32 lanes per vector, the lane-array one (the
//! oracle, and what every backend without an instantiation of its own
//! runs) 16.

use crate::dispatch::Backend;
use crate::scratch::{InterseqBuffers, Scratch};
use crate::striped8::byte_range;
use crate::tiered::Subjects;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::OnceLock;
use swdual_bio::ScoringScheme;

/// Residue code of a lane with no subject. Alphabets must leave it free
/// (size ≤ 31).
pub const PAD: u8 = 31;

/// Stream columns the kernel scores per pass down the query. Lanes
/// change subjects only on multiples of it.
pub(crate) const GROUP: usize = 4;

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
            open: scheme.gap_first().min(255) as u8,
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

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m128i;

/// `op` on two lane arrays as the SSE2 vectors they are the size of.
///
/// Written over arrays, the four-column body's dozen loop-carried lane
/// vectors are split into single bytes and only partly put back
/// together, which ran the lane arrays 3.3× slower at 500 residues.
/// SSE2 is part of the x86-64 baseline, so every x86-64 host has it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn sse2(
    a: [u8; ARRAY_LANES],
    b: [u8; ARRAY_LANES],
    op: impl Fn(__m128i, __m128i) -> __m128i,
) -> [u8; ARRAY_LANES] {
    use std::mem::transmute;
    type Lanes = [u8; ARRAY_LANES];
    // SAFETY: `[u8; 16]` and `__m128i` are both 16 plain bytes, and any
    // 16 bytes are a valid value of either.
    unsafe {
        let (a, b) = (
            transmute::<Lanes, __m128i>(a),
            transmute::<Lanes, __m128i>(b),
        );
        transmute::<__m128i, Lanes>(op(a, b))
    }
}

/// The portable lane-array instantiation: plain Rust, autovectorised,
/// but for its three arithmetic operations on x86-64 (see [`sse2`]).
// SAFETY: every method is safe Rust or, on x86-64, SSE2, which every
// x86-64 CPU has; the trait's contract asks nothing more of these.
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
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| std::arch::x86_64::_mm_adds_epu8(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].saturating_add(other[l]))
    }
    #[inline(always)]
    unsafe fn subs(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| std::arch::x86_64::_mm_subs_epu8(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].saturating_sub(other[l]))
    }
    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        return sse2(self, other, |a, b| std::arch::x86_64::_mm_max_epu8(a, b));
        #[cfg(not(target_arch = "x86_64"))]
        std::array::from_fn(|l| self[l].max(other[l]))
    }
    #[inline(always)]
    unsafe fn lookup32(row: &[u8; 32], idx: Self) -> Self {
        std::array::from_fn(|l| row[idx[l] as usize & 31])
    }
}

/// Where a lane takes its next subject: before column `column` of the
/// stream is scored, lane `lane` gives up the subject it held and starts
/// subject `subject` (a position of the stream's lineup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Start {
    pub column: usize,
    pub lane: usize,
    pub subject: usize,
}

/// The subjects a stream deals out, in the order it deals them: `order`
/// indexes `seqs`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lineup<'s> {
    pub seqs: &'s [&'s [u8]],
    pub order: &'s [u32],
}

impl<'s> Lineup<'s> {
    fn get(&self, subject: usize) -> Option<&'s [u8]> {
        let &i = self.order.get(subject)?;
        self.seqs.get(i as usize).copied()
    }

    /// The number of columns of the lineup's stream on `lanes` lanes.
    pub fn columns(&self, lanes: usize) -> usize {
        let lengths = (0..).map_while(|subject| self.get(subject).map(<[u8]>::len));
        stream_columns(lengths, lanes)
    }
}

/// The number of columns of a stream on `lanes` lanes that deals out
/// subjects of `lengths`, in that order: where the lane that frees last
/// frees, each subject going to the lane that frees first, and a lane
/// freeing on the [`GROUP`] boundary after its subject's last column.
pub(crate) fn stream_columns(lengths: impl IntoIterator<Item = usize>, lanes: usize) -> usize {
    let mut free_at: BinaryHeap<Reverse<usize>> = (0..lanes).map(|_| Reverse(0)).collect();
    let mut end = 0;
    for len in lengths {
        let Some(mut lane) = free_at.peek_mut() else {
            break;
        };
        lane.0 = frees_at(lane.0, len);
        end = end.max(lane.0);
    }
    end
}

/// The column where a lane that takes a subject of `len` residues at
/// `column` frees: the first [`GROUP`] boundary at or past the
/// subject's end.
fn frees_at(column: usize, len: usize) -> usize {
    (column + len).next_multiple_of(GROUP)
}

/// Deals a lineup out to lanes: the lane that frees first — the lowest
/// such lane on a tie — takes the next subject, always on a [`GROUP`]
/// boundary.
#[derive(Debug)]
struct Dealer {
    /// `(column, lane)`: where each lane's current subject ends.
    free_at: BinaryHeap<Reverse<(usize, usize)>>,
    /// The next subject of the lineup.
    next: usize,
    /// The column where the last lane to free frees.
    end: usize,
}

impl Dealer {
    fn new(lanes: usize) -> Dealer {
        Dealer {
            free_at: (0..lanes).map(|lane| Reverse((0, lane))).collect(),
            next: 0,
            end: 0,
        }
    }

    /// The next start, unless the lineup is dealt out or it would fall
    /// on or after column `before`.
    fn deal_before(&mut self, lineup: &Lineup<'_>, before: usize) -> Option<Start> {
        let len = lineup.get(self.next)?.len();
        let mut lane_free = self.free_at.peek_mut()?;
        let Reverse((column, lane)) = *lane_free;
        if column >= before {
            return None;
        }
        let free = frees_at(column, len);
        *lane_free = Reverse((free, lane));
        self.end = self.end.max(free);
        let start = Start {
            column,
            lane,
            subject: self.next,
        };
        self.next += 1;
        Some(start)
    }
}

/// Columns laid out and scored at a time per job: 8 KB of residues at
/// 32 lanes, so the block stays in L1 beside the DP state and the
/// scratch does not grow with the stream. A transposed run's stream is
/// walked whole once per subject, so its queries hold at most one block.
/// A whole number of [`GROUP`]s, so blocks split no group.
pub(crate) const BLOCK: usize = 256;
const _: () = assert!(BLOCK.is_multiple_of(GROUP));

/// The per-job source: lane cursors that lay a lineup's stream out one
/// block of columns at a time.
struct Cursors<'s, const L: usize> {
    lineup: Lineup<'s>,
    dealer: Dealer,
    /// The subject each lane holds and the column it started at.
    holds: [Option<(usize, usize)>; L],
    /// The starts of the next block, dealt ahead.
    ahead: Vec<Start>,
    /// The first column of the next block.
    first: usize,
}

impl<'s, const L: usize> Cursors<'s, L> {
    fn new(lineup: Lineup<'s>) -> Self {
        Cursors {
            lineup,
            dealer: Dealer::new(L),
            holds: [None; L],
            ahead: Vec::new(),
            first: 0,
        }
    }

    /// Lay the next block out in `columns` (at most that many columns)
    /// and its starts in `starts`; returns the block's first column and
    /// its width, which is 0 once the stream has ended. The block after
    /// it is dealt ahead, and the residues its starts load are asked for.
    fn next_block(&mut self, columns: &mut [[u8; L]], starts: &mut Vec<Start>) -> (usize, usize) {
        let first = self.first;
        let next = first + columns.len();
        starts.clear();
        starts.append(&mut self.ahead);
        while let Some(start) = self.dealer.deal_before(&self.lineup, next) {
            starts.push(start);
        }
        while let Some(start) = self.dealer.deal_before(&self.lineup, next + columns.len()) {
            prefetch(self.lineup.get(start.subject).unwrap_or_default());
            self.ahead.push(start);
        }
        // Whatever was dealt ahead starts past this block, so its lane
        // runs on to the block's last column either way.
        let width = self.dealer.end.saturating_sub(first).min(columns.len());
        let columns = &mut columns[..width];
        columns.fill([PAD; L]);
        // What lanes still hold from earlier blocks, then what starts in
        // this one: a lane's next subject begins where the last ended.
        for (lane, held) in self.holds.iter().enumerate() {
            if let &Some((subject, column)) = held {
                let residues = self.lineup.get(subject).unwrap_or_default();
                place(
                    columns,
                    0,
                    lane,
                    residues.get(first - column..).unwrap_or_default(),
                );
            }
        }
        for start in starts.iter() {
            let residues = self.lineup.get(start.subject).unwrap_or_default();
            place(columns, start.column - first, start.lane, residues);
            self.holds[start.lane] = Some((start.subject, start.column));
        }
        self.first += width;
        (first, width)
    }
}

/// Ask for `subject`'s cache lines a block before the kernel reads them.
///
/// The length order scatters a stream's subjects over the database, so
/// a block's starts open cold streams, and on a database that outgrows
/// L2 their misses cost a fifth of a short query's time — more when the
/// memory system is busy. Requested a block ahead, the lines arrive
/// while the current block computes. A hint only: backends without one
/// skip it.
#[inline]
fn prefetch(subject: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    for line in subject.chunks(64) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        // SAFETY: a prefetch cannot fault and changes no architectural
        // state; SSE is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T1>(line.as_ptr() as *const i8) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = subject;
}

/// Write `residues` into lane `lane` of `columns` from column `at` on,
/// as far as the block reaches.
fn place<const L: usize>(columns: &mut [[u8; L]], at: usize, lane: usize, residues: &[u8]) {
    let columns = columns.get_mut(at..).unwrap_or_default();
    for (column, &residue) in columns.iter_mut().zip(residues) {
        column[lane] = residue;
    }
}

/// The shared source: every column and start of a lineup's stream.
#[derive(Debug)]
pub(crate) struct Stream {
    lanes: usize,
    /// One vector of lanes per column, flattened.
    columns: Vec<u8>,
    starts: Vec<Start>,
}

impl Stream {
    /// Lay `lineup`'s stream on `L` lanes out whole: the per-job
    /// cursors' layout, as one block.
    fn build<const L: usize>(lineup: Lineup<'_>) -> Stream {
        let mut columns = vec![[PAD; L]; lineup.columns(L)];
        let mut starts = Vec::new();
        Cursors::<L>::new(lineup).next_block(&mut columns, &mut starts);
        Stream {
            lanes: L,
            columns: columns.into_flattened(),
            starts,
        }
    }
}

/// Queries this long or longer do not count toward sharing a slice's
/// stream: a per-job layout costs about `1/Q` of a job's kernel time for
/// a query of `Q` residues, so for them a shared stream costs memory and
/// buys no speed (`shared_mcups` in `BENCH_kernels.json`'s sweep).
const SHARE_BELOW: usize = 1024;

/// The streams of the slices many jobs of one search score, each laid
/// out once and lent to every job that scores its slice whole.
#[derive(Debug, Default)]
pub struct SharedStreams {
    /// By slice start and end; set once, by [`Self::share`].
    streams: OnceLock<HashMap<(usize, usize), Stream>>,
}

impl SharedStreams {
    /// Lay out the stream of each slice of `db` that more jobs of
    /// queries shorter than [`SHARE_BELOW`] score than there are
    /// `workers` to score them: some worker would otherwise lay the same
    /// stream out twice. `jobs` are the search's `(query length, slice)`
    /// pairs. Only the first call counts.
    ///
    /// The streams are built here, on the caller's thread, before any
    /// job runs: built by whichever worker came first they would land in
    /// that thread's allocator arena, and over a run of searches each
    /// worker's arena would keep a freed copy.
    pub fn share(
        &self,
        backend: Backend,
        db: &Subjects<'_>,
        jobs: impl IntoIterator<Item = (usize, Range<usize>)>,
        workers: usize,
    ) {
        let mut jobs_on: HashMap<(usize, usize), usize> = HashMap::new();
        for (query_len, slice) in jobs {
            if query_len < SHARE_BELOW {
                *jobs_on.entry((slice.start, slice.end)).or_default() += 1;
            }
        }
        let shared = jobs_on.into_iter().filter(|&(_, jobs)| jobs > workers);
        let streams = shared.filter_map(|((start, end), _)| {
            let lineup = Lineup {
                seqs: db.seqs(),
                order: db.order().get(start..end)?,
            };
            Some(((start, end), backend.interseq_stream(lineup)))
        });
        let _ = self.streams.set(streams.collect());
    }

    /// The stream of all of `slice` on `lanes` lanes, if it is shared.
    pub(crate) fn get(&self, slice: &Range<usize>, lanes: usize) -> Option<&Stream> {
        let stream = self.streams.get()?.get(&(slice.start, slice.end))?;
        (stream.lanes == lanes).then_some(stream)
    }
}

/// A block of a stream as the kernel scores it: `columns` are columns
/// `first..` of the stream, `starts` the starts that fall among them.
pub(crate) struct Block<'a, const L: usize> {
    pub first: usize,
    pub columns: &'a [[u8; L]],
    pub starts: &'a [Start],
}

/// What the kernel carries from block to block besides the DP state:
/// each lane's running maximum and the subject it holds.
pub(crate) struct Harvest<const L: usize> {
    best: [u8; L],
    holds: [Option<usize>; L],
}

impl<const L: usize> Harvest<L> {
    fn new() -> Self {
        Harvest {
            best: [0; L],
            holds: [None; L],
        }
    }

    /// Hand `start.lane` over: record the maximum of the subject it held,
    /// and clear its maximum and its `H`/`E` column for the next.
    #[inline]
    fn start(&mut self, start: &Start, state: &mut [[[u8; L]; 2]], maxima: &mut [u8]) {
        let lane = start.lane;
        if let Some(held) = self.holds[lane] {
            maxima[held] = self.best[lane];
        }
        self.best[lane] = 0;
        self.holds[lane] = Some(start.subject);
        for [h, e] in state {
            h[lane] = 0;
            e[lane] = 0;
        }
    }

    /// The stream has ended: record what every lane still holds.
    fn finish(self, maxima: &mut [u8]) {
        for (held, best) in self.holds.into_iter().zip(self.best) {
            if let Some(held) = held {
                maxima[held] = best;
            }
        }
    }
}

/// One block of a stream: `query` against `block.columns`, scored from
/// `buffers.rows`, continuing from the DP state and the `harvest` the
/// previous block left. A start hands its lane over before its column
/// is scored; each finished subject's maximum `H` goes to
/// `maxima[subject]`.
///
/// The block is scored [`GROUP`] columns per pass down the query: each
/// row loads its `H` and `E` once, scores the group's columns in
/// registers — `E` running along the row, each column's `F` and the
/// row above's `H` carried down in registers — and stores once. Starts
/// fall on group boundaries only, so no lane changes hands inside a
/// pass.
///
/// # Safety
/// `V`'s instruction set must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn refill_body<V: ByteLanes<L>, const L: usize>(
    query: &[u8],
    tables: &Tables,
    block: Block<'_, L>,
    buffers: InterseqBuffers<'_, L>,
    harvest: &mut Harvest<L>,
    maxima: &mut [u8],
) {
    let InterseqBuffers {
        profile: dprof,
        state,
        rows,
    } = buffers;
    debug_assert_eq!(state.len(), query.len());
    let (groups, rest) = block.columns.as_chunks::<GROUP>();
    debug_assert!(rest.is_empty() && block.first.is_multiple_of(GROUP));
    // SAFETY (every `V` operation below): the caller guarantees `V`'s
    // instruction set; the operations touch only the references passed.
    let zero = V::splat(0);
    let bias = V::splat(tables.bias);
    let open = V::splat(tables.open);
    let ext = V::splat(tables.ext);
    let mut lane_best = V::load(&harvest.best);
    let mut starts = block.starts.iter().peekable();
    for (at, group) in (block.first..).step_by(GROUP).zip(groups) {
        if starts.peek().is_some_and(|start| start.column == at) {
            lane_best.store(&mut harvest.best);
            while let Some(start) = starts.next_if(|start| start.column == at) {
                harvest.start(start, state, maxima);
            }
            lane_best = V::load(&harvest.best);
        }
        debug_assert!(starts.peek().is_none_or(|start| start.column >= at + GROUP));
        let residues = group.each_ref().map(|column| V::load(column));
        for &a in &tables.present {
            let (row, prof) = (&rows[a as usize & 31], &mut dprof[a as usize & 31]);
            for (slot, &residues) in prof.iter_mut().zip(&residues) {
                V::lookup32(row, residues).store(slot);
            }
        }
        // Down the group: `diag` is H[i-1][j0-1] for the group's first
        // column j0, `up` H[i-1] of its first three columns, `f` each
        // column's vertical gap state; all start from the all-zero
        // boundary row.
        let mut diag = zero;
        let mut up = [zero; GROUP - 1];
        let mut f = [zero; GROUP];
        for (he, &q) in state.iter_mut().zip(query) {
            let [h_slot, e_slot] = he;
            let score = &dprof[q as usize & 31];
            let left = V::load(h_slot);
            let mut e = V::load(e_slot);
            let mut h = [zero; GROUP];
            for c in 0..GROUP {
                let diag = if c == 0 { diag } else { up[c - 1] };
                // H = max(diag + score, F, E); unsigned floor is the 0
                // clamp. `E` comes last: it is the chain along the row.
                h[c] = diag.adds(V::load(&score[c])).subs(bias).max(f[c]).max(e);
                let h_open = h[c].subs(open);
                e = e.subs(ext).max(h_open);
                f[c] = f[c].subs(ext).max(h_open);
            }
            lane_best = lane_best.max(h.into_iter().reduce(|a, b| a.max(b)).unwrap_or(zero));
            h[GROUP - 1].store(h_slot);
            e.store(e_slot);
            diag = left;
            up.copy_from_slice(&h[..GROUP - 1]);
        }
    }
    lane_best.store(&mut harvest.best);
}

/// [`refill_body`] instantiated for one backend.
type RefillFn<const L: usize> =
    unsafe fn(&[u8], &Tables, Block<'_, L>, InterseqBuffers<'_, L>, &mut Harvest<L>, &mut [u8]);

fn refill_array(
    query: &[u8],
    tables: &Tables,
    block: Block<'_, ARRAY_LANES>,
    buffers: InterseqBuffers<'_, ARRAY_LANES>,
    harvest: &mut Harvest<ARRAY_LANES>,
    maxima: &mut [u8],
) {
    // SAFETY: the lane-array operations are plain Rust; they need no
    // instruction set.
    unsafe {
        refill_body::<[u8; ARRAY_LANES], ARRAY_LANES>(
            query, tables, block, buffers, harvest, maxima,
        )
    }
}

/// Score the stream of `lineup` through `kernel`: the `shared` one, or
/// else one laid out block by block in `scratch`.
///
/// # Safety
/// `kernel`'s instruction set must be available on the running CPU.
unsafe fn score_stream<const L: usize>(
    kernel: RefillFn<L>,
    query: &[u8],
    tables: &Tables,
    lineup: Lineup<'_>,
    shared: Option<&Stream>,
    scratch: &mut Scratch,
    maxima: &mut [u8],
) {
    let mut harvest = Harvest::<L>::new();
    let (_, buffers) = scratch.interseq::<L>(0, query.len());
    buffers.state.fill([[0; L]; 2]);
    *buffers.rows = tables.rows;
    if let Some(stream) = shared {
        let block = Block {
            first: 0,
            columns: stream.columns.as_chunks::<L>().0,
            starts: &stream.starts,
        };
        // SAFETY: the caller guarantees `kernel`'s instruction set.
        kernel(query, tables, block, buffers, &mut harvest, maxima);
    } else {
        let mut cursors = Cursors::<L>::new(lineup);
        let mut starts = Vec::new();
        loop {
            let (columns, buffers) = scratch.interseq::<L>(BLOCK, query.len());
            let (first, width) = cursors.next_block(columns, &mut starts);
            if width == 0 {
                break;
            }
            let block = Block {
                first,
                columns: &columns[..width],
                starts: &starts,
            };
            // SAFETY: as above.
            kernel(query, tables, block, buffers, &mut harvest, maxima);
        }
    }
    harvest.finish(maxima);
}

impl Backend {
    /// Lanes per vector of this backend's inter-sequence kernel on this
    /// host.
    pub fn interseq_lanes(self) -> usize {
        match self {
            Backend::Avx2 if self.is_available() => crate::wide::LANES8W,
            _ => ARRAY_LANES,
        }
    }

    /// The stream of `lineup` laid out whole on
    /// [`Backend::interseq_lanes`] lanes.
    pub(crate) fn interseq_stream(self, lineup: Lineup<'_>) -> Stream {
        match self {
            Backend::Avx2 if self.is_available() => {
                Stream::build::<{ crate::wide::LANES8W }>(lineup)
            }
            _ => Stream::build::<ARRAY_LANES>(lineup),
        }
    }

    /// The inter-sequence byte kernel: `query` against the stream of
    /// `lineup` on [`Backend::interseq_lanes`] lanes, with the `tables`
    /// built for that query — the `shared` stream when there is one.
    /// Writes each subject's maximum `H` to `maxima[subject]`; a value ≥
    /// [`Tables::limit`] may have saturated and must escalate, anything
    /// below is the exact score.
    pub(crate) fn interseq8(
        self,
        query: &[u8],
        tables: &Tables,
        lineup: Lineup<'_>,
        shared: Option<&Stream>,
        scratch: &mut Scratch,
        maxima: &mut [u8],
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if self.is_available() => {
                let kernel = crate::simd_avx2::refill_avx2;
                // SAFETY: the guard just detected AVX2 on this CPU.
                unsafe { score_stream(kernel, query, tables, lineup, shared, scratch, maxima) }
            }
            // Every other host runs the lane arrays.
            _ => {
                // SAFETY: the lane arrays need no instruction set.
                unsafe {
                    score_stream(refill_array, query, tables, lineup, shared, scratch, maxima)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gotoh_score;
    use crate::tiered::{score_database_with, ByteShape, TierStats};
    use proptest::prelude::*;
    use swdual_bio::{Alphabet, Matrix};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    /// Each subject's raw maximum, before any escalation, with the
    /// subjects dealt out in the order given — from both sources, which
    /// must agree.
    fn lane_maxima(
        backend: Backend,
        q: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
    ) -> Vec<u8> {
        let tables = Tables::build(q, scheme).unwrap();
        let order: Vec<u32> = (0..subjects.len() as u32).collect();
        let lineup = Lineup {
            seqs: subjects,
            order: &order,
        };
        let mut per_job = vec![0u8; subjects.len()];
        let scratch = &mut Scratch::default();
        backend.interseq8(q, &tables, lineup, None, scratch, &mut per_job);
        let mut shared = vec![0u8; subjects.len()];
        let stream = backend.interseq_stream(lineup);
        backend.interseq8(q, &tables, lineup, Some(&stream), scratch, &mut shared);
        assert_eq!(per_job, shared, "{backend}: the two sources disagree");
        per_job
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
        assert_batch_exact(&q, &rotations(&q, crate::wide::LANES8W), &scheme);
        assert_batch_exact(&q, &rotations(&q, 3 * crate::wide::LANES8W + 5), &scheme);
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
    }

    #[test]
    fn refilled_lanes_start_from_a_clean_column() {
        // A perfect match hands its lane to a subject that only scores
        // if it does not inherit the match's `H`/`E` state or maximum —
        // on block edges too: 600 columns, 40 lanes' worth of subjects.
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
    fn empty_query_scores_all_zero() {
        let scheme = ScoringScheme::protein_default();
        assert_batch_exact(&[], &[prot(b"MKVLAT")], &scheme);
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
        // 70 subjects: two refills of every AVX2 lane, four of every
        // lane-array one.
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

    /// The per-job cursors' blocks, end to end.
    fn laid_out_by_cursors<const L: usize>(lineup: Lineup<'_>) -> (Vec<u8>, Vec<Start>) {
        let mut cursors = Cursors::<L>::new(lineup);
        let (mut columns, mut starts) = (Vec::new(), Vec::new());
        let mut block = [[0u8; L]; BLOCK];
        let mut block_starts = Vec::new();
        loop {
            let (first, width) = cursors.next_block(&mut block, &mut block_starts);
            if width == 0 {
                break;
            }
            assert_eq!(first * L, columns.len(), "blocks are contiguous");
            columns.extend(block[..width].as_flattened());
            assert!(block_starts.iter().all(|s| s.column < first + width));
            starts.extend(&block_starts);
        }
        (columns, starts)
    }

    fn assert_sources_lay_out_alike<const L: usize>(lengths: &[usize]) {
        let seqs: Vec<Vec<u8>> = lengths
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|k| ((i + k) % 20) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
        let db = Subjects::new(refs);
        let lineup = Lineup {
            seqs: db.seqs(),
            order: db.order(),
        };
        let stream = Stream::build::<L>(lineup);
        let (columns, starts) = laid_out_by_cursors::<L>(lineup);
        assert_eq!(columns, stream.columns, "{L} lanes: columns");
        assert_eq!(starts, stream.starts, "{L} lanes: starts");
        assert_eq!(lineup.columns(L) * L, columns.len());
        // The oracle: each subject in the length order goes to the lane
        // that frees first, the lowest on a tie, and is written down that
        // lane from there; the lane frees on the next multiple of four
        // columns, pad until then. Empty subjects at the very end start
        // where the stream ends: the kernel never reaches them, and they
        // keep 0.
        let mut free_at = [0usize; L];
        let mut want = vec![PAD; columns.len()];
        let mut want_starts = Vec::new();
        for subject in 0..lengths.len() {
            let lane = (0..L).min_by_key(|&l| (free_at[l], l)).unwrap();
            let column = free_at[lane];
            let residues = lineup.get(subject).unwrap();
            for (k, &r) in residues.iter().enumerate() {
                want[(column + k) * L + lane] = r;
            }
            if column * L < columns.len() {
                want_starts.push(Start {
                    column,
                    lane,
                    subject,
                });
            }
            free_at[lane] = (column + residues.len()).next_multiple_of(4);
        }
        assert_eq!(columns.len() % (4 * L), 0, "whole groups of columns");
        assert_eq!(columns, want, "{L} lanes: columns against the oracle");
        assert_eq!(starts, want_starts, "{L} lanes: starts against the oracle");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cursors_and_builder_lay_out_the_same_stream(
            lengths in prop::collection::vec(
                // Empty, short, and long enough to cross block edges.
                (0u8..4, 0usize..700).prop_map(|(kind, n)| match kind {
                    0 => 0,
                    1 | 2 => n % 40,
                    _ => n,
                }),
                0..90,
            ),
        ) {
            assert_sources_lay_out_alike::<16>(&lengths);
            assert_sources_lay_out_alike::<32>(&lengths);
        }
    }

    #[test]
    fn no_count_of_subjects_makes_a_stream_panic() {
        for lengths in [
            vec![],
            vec![0; 5],
            vec![0; 100],
            vec![3; 100],
            vec![BLOCK; 33],
        ] {
            assert_sources_lay_out_alike::<16>(&lengths);
            assert_sources_lay_out_alike::<32>(&lengths);
        }
    }

    #[test]
    fn a_slice_is_shared_when_more_jobs_score_it_than_there_are_workers() {
        let backend = Backend::Scalar;
        let seqs: Vec<Vec<u8>> = (0..20).map(|i| vec![1; i]).collect();
        let db: Subjects = seqs.iter().map(Vec::as_slice).collect();
        let streams = SharedStreams::default();
        assert!(
            streams.get(&(0..10), 16).is_none(),
            "nothing is shared before the rule ran"
        );
        let jobs = [
            (30, 0..10),
            (30, 0..10),
            (40, 0..10),
            (30, 10..20),
            (30, 10..20),
        ];
        streams.share(backend, &db, jobs, 2);
        let stream = streams.get(&(0..10), 16).unwrap();
        let order = &db.order()[0..10];
        let lineup = Lineup {
            seqs: db.seqs(),
            order,
        };
        assert_eq!(stream.columns.len(), lineup.columns(16) * 16);
        assert!(
            streams.get(&(0..10), 32).is_none(),
            "laid out on other lanes"
        );
        assert!(
            streams.get(&(10..20), 16).is_none(),
            "two jobs on two workers"
        );
        assert!(streams.get(&(0..20), 16).is_none());
        // Only the first call counts, and a slice outside the database
        // is never shared.
        streams.share(backend, &db, vec![(30, 10..20); 3], 1);
        assert!(streams.get(&(10..20), 16).is_none());
        let streams = SharedStreams::default();
        streams.share(backend, &db, vec![(30, 15..40); 3], 1);
        assert!(streams.get(&(15..40), 16).is_none());
        // Queries at or above the share bound do not count; one just
        // below it does.
        for backend in Backend::available() {
            let lanes = backend.interseq_lanes();
            let streams = SharedStreams::default();
            let long = [(SHARE_BELOW, 0..10), (2000, 0..10)];
            streams.share(backend, &db, long, 1);
            assert!(streams.get(&(0..10), lanes).is_none());
            let streams = SharedStreams::default();
            let below = [(SHARE_BELOW - 1, 0..10), (SHARE_BELOW - 1, 0..10)];
            streams.share(backend, &db, below, 1);
            assert!(streams.get(&(0..10), lanes).is_some());
        }
    }
}
