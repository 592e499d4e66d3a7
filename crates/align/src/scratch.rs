//! Reusable kernel working memory.
//!
//! A database pass scores one query against thousands of subjects; the
//! DP state of every kernel (`H`/`E` rows, a subject gathered from its
//! lane) has the same shape for each of them. A
//! worker owns one [`Scratch`] for its whole life and hands it to every
//! call, so no kernel allocates per subject and the buffers stay warm
//! in cache across blocks and jobs.

use crate::lanes::ARRAY_LANES;
use swdual_bio::lanes::GROUP;

/// Cache-line size the byte buffers are aligned to, so a vector load
/// never straddles two lines.
const ALIGN: usize = 64;

/// Per-worker kernel working memory. Buffers grow to the largest query
/// and subject seen and are never shrunk; a buffer no kernel of the
/// active backend uses stays unallocated.
#[derive(Debug, Default)]
pub struct Scratch {
    /// A subject gathered from its lane of the database's stream, for
    /// the kernels that take it whole: the striped ladder and the rows
    /// of a transposed run.
    pub(crate) subject: Vec<u8>,
    /// Inter-sequence kernel: the column group's score profile, then
    /// `H` and `E` per query position, then the score rows.
    state: Vec<u8>,
    /// Striped rows of the lane-array byte kernel.
    pub(crate) rows8: Vec<[u8; ARRAY_LANES]>,
    /// Striped rows of the lane-array 16-bit kernel.
    pub(crate) rows16: Vec<[i16; ARRAY_LANES / 2]>,
    /// Striped rows of both AVX2 kernels.
    #[cfg(target_arch = "x86_64")]
    pub(crate) rows_avx2: Vec<std::arch::x86_64::__m256i>,
}

/// The inter-sequence kernel's DP working memory, `L` lanes wide.
/// Contents are whatever the last call left behind.
pub(crate) struct InterseqBuffers<'a, const L: usize> {
    /// The current column group's score profile: per residue code, one
    /// vector per column of the group.
    pub profile: &'a mut [[[u8; L]; GROUP]; 32],
    /// `[H, E]` per query position.
    pub state: &'a mut [[[u8; L]; 2]],
    /// The kernel's copy of the query's 32-entry score rows.
    pub rows: &'a mut [[u8; 32]; 32],
}

impl Scratch {
    /// The DP buffers for `query_len` query positions.
    ///
    /// Profile, state and score rows share one allocation, in that
    /// order, on purpose. At the top of every column group the kernel
    /// loads the score rows just after storing the last `H`/`E` rows,
    /// then stores the profile just before loading the first ones; when
    /// such a store and load agree in address bits 0–11 the CPU replays
    /// the load ("4K aliasing"). With the three wherever the allocator
    /// and the stack put them, that cost 30–40 % on the reference host
    /// in an unlucky process and nothing in a lucky one. Laid out like
    /// this, the rows sit just past the stores that precede their loads,
    /// whatever the query length. The profile is 4 KB at 32 lanes, so
    /// the state cannot simply follow it: a gap ([`profile_gap`]) puts the
    /// state's first rows at the 4K offsets of the profile entries of
    /// codes [`UNSTORED`]`..32`, which no protein or DNA query holds and
    /// the kernel therefore never stores.
    pub(crate) fn interseq<const L: usize>(&mut self, query_len: usize) -> InterseqBuffers<'_, L> {
        let profile_len = 32 * GROUP * L;
        let gap = profile_gap(L);
        let len = profile_len + gap + query_len * 2 * L + 32 * 32;
        let (profile, rest) = aligned(&mut self.state, len).split_at_mut(profile_len);
        let (state, rows) = rest[gap..].split_at_mut(query_len * 2 * L);
        // `profile` is the first `32 * GROUP * L` bytes and `rows` the
        // last `32 * 32`, so both conversions below see exactly 32
        // chunks: neither `expect` can fire.
        InterseqBuffers {
            profile: profile
                .as_chunks_mut::<L>()
                .0
                .as_chunks_mut::<GROUP>()
                .0
                .try_into()
                .expect("32 groups of vectors were split off"),
            state: state.as_chunks_mut::<L>().0.as_chunks_mut::<2>().0,
            rows: rows
                .as_chunks_mut::<32>()
                .0
                .try_into()
                .expect("32 rows remain"),
        }
    }
}

/// The first residue code past the protein alphabet (24 codes) and the
/// DNA one: the kernel never stores the profile entries of this code
/// or any above it.
const UNSTORED: usize = 24;

/// Bytes between the inter-sequence profile of `lanes` lanes and the
/// `H`/`E` state: enough that the state starts at the 4K offset of the
/// profile entry of code [`UNSTORED`].
fn profile_gap(lanes: usize) -> usize {
    let entry = GROUP * lanes;
    (UNSTORED * entry + 4096 - 32 * entry % 4096) % 4096
}

/// A cache-line-aligned `len`-byte window of `buf`, growing it if
/// needed.
fn aligned(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len + ALIGN {
        buf.resize(len + ALIGN, 0);
    }
    let skip = buf.as_ptr().align_offset(ALIGN);
    &mut buf[skip..skip + len]
}

/// The three striped rows (`h_store`, `h_load`, `e`) of `segments`
/// vectors each, carved from one reusable buffer and initialised to
/// `h0`, `h0` and `e0`.
pub(crate) fn striped_rows<V: Copy>(
    buf: &mut Vec<V>,
    segments: usize,
    h0: V,
    e0: V,
) -> (&mut [V], &mut [V], &mut [V]) {
    buf.clear();
    buf.resize(2 * segments, h0);
    buf.resize(3 * segments, e0);
    let (h_store, rest) = buf.split_at_mut(segments);
    let (h_load, e) = rest.split_at_mut(segments);
    (h_store, h_load, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interseq_buffers_are_aligned_sized_and_reused() {
        let mut scratch = Scratch::default();
        let buffers = scratch.interseq::<32>(45);
        assert_eq!(buffers.state.len(), 45);
        assert_eq!(buffers.profile.as_ptr() as usize % ALIGN, 0);
        assert_eq!(
            buffers.rows.as_ptr() as usize,
            buffers.state.as_ptr() as usize + 45 * 64,
            "score rows directly after the last state row"
        );
        // The profile is 4 KB, so every state row shares its 4K offset
        // with some profile entry; the first 16 rows share it only with
        // the entries of codes 24..32, which no protein or DNA query
        // stores.
        assert_eq!(std::mem::size_of_val(buffers.profile), 4096);
        let offset = (buffers.state.as_ptr() as usize - buffers.profile.as_ptr() as usize) % 4096;
        assert_eq!(offset, UNSTORED * GROUP * 32);
        assert_eq!(offset + 16 * 64, 4096);
        let grown = scratch.state.len();
        // A shorter query fits in place.
        let buffers = scratch.interseq::<16>(3);
        assert_eq!(buffers.state.len(), 3);
        let offset = (buffers.state.as_ptr() as usize - buffers.profile.as_ptr() as usize) % 4096;
        assert_eq!(offset, UNSTORED * GROUP * 16, "so on 16 lanes too");
        assert_eq!(scratch.state.len(), grown);
    }

    #[test]
    fn striped_rows_are_initialised_per_call() {
        let mut buf: Vec<i16> = Vec::new();
        {
            let (h_store, h_load, e) = striped_rows(&mut buf, 3, 0, -7);
            assert_eq!((h_store.len(), h_load.len(), e.len()), (3, 3, 3));
            h_store[0] = 9;
            e[2] = 9;
        }
        let (h_store, h_load, e) = striped_rows(&mut buf, 2, 0, -7);
        assert_eq!(h_store, [0, 0]);
        assert_eq!(h_load, [0, 0]);
        assert_eq!(e, [-7, -7]);
    }
}
