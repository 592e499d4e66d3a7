//! Chunked search for databases larger than device memory, with
//! optional copy/compute overlap.
//!
//! When a database does not fit in global memory, CUDASW++-class tools
//! stream it through the device in chunks, and overlap the PCIe upload
//! of chunk `i+1` with the kernel of chunk `i` using two CUDA streams
//! and double buffering. The simulator reproduces both modes:
//!
//! * [`chunked_search`] — serial: upload, compute, upload, compute…
//! * [`overlapped_search`] — double-buffered: the device is busy
//!   `t₀ + Σ max(kernelᵢ, transferᵢ₊₁) + kernel_last`, the classic
//!   pipeline formula.
//!
//! Both take the sequences to stream as a list — a whole database in
//! its own order, or the subjects of one slice of its length order — and
//! return exact scores in the list's order (every chunk is really
//! searched, in place: chunks are runs of the borrowed residue slices,
//! and each chunk builds the query's profiles anew if its subjects need
//! them) and the modelled time, so tests can quantify the overlap win.

use crate::device::GpuDevice;
use crate::memory::MemoryError;
use swdual_align::Subjects;
use swdual_bio::ScoringScheme;

/// Result of a chunked search.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedResult {
    /// Exact scores in the order of the sequences given.
    pub scores: Vec<i32>,
    /// Modelled total seconds (transfers + kernels, with or without
    /// overlap).
    pub seconds: f64,
    /// Number of chunks the database was split into.
    pub chunks: usize,
}

/// Split `all` into consecutive runs whose residue totals fit
/// `chunk_bytes`. Sequences are never split; a single sequence larger
/// than the chunk is an error. The runs borrow the list.
pub fn split_into_chunks<'s, 'a>(
    all: &'s [&'a [u8]],
    chunk_bytes: u64,
) -> Result<Vec<&'s [&'a [u8]]>, MemoryError> {
    let mut chunks = Vec::new();
    let (mut start, mut held) = (0, 0u64);
    for (i, seq) in all.iter().enumerate() {
        let bytes = seq.len() as u64;
        if bytes > chunk_bytes {
            return Err(MemoryError::OutOfMemory {
                requested: bytes,
                free: chunk_bytes,
            });
        }
        if held + bytes > chunk_bytes && i > start {
            chunks.push(&all[start..i]);
            (start, held) = (i, 0);
        }
        held += bytes;
    }
    if start < all.len() {
        chunks.push(&all[start..]);
    }
    Ok(chunks)
}

/// Scores, and each chunk's modelled `(transfer, kernel)` seconds.
type Streamed = (Vec<i32>, Vec<(f64, f64)>);

/// Stream `database` through the device in chunks of `share` of its
/// memory.
fn stream(
    device: &mut GpuDevice,
    database: &[&[u8]],
    query: &[u8],
    scheme: &ScoringScheme,
    sort_chunks: bool,
    share: f64,
) -> Result<Streamed, MemoryError> {
    let chunk_bytes = (device.memory().capacity() as f64 * share) as u64;
    let mut scores = Vec::with_capacity(database.len());
    let mut stages = Vec::new();
    for chunk in split_into_chunks(database, chunk_bytes.max(1))? {
        let before = device.clock();
        let resident = device.upload(chunk.iter().copied().collect::<Subjects>(), sort_chunks)?;
        let transfer = device.clock() - before;
        let result = device.search(query, &resident, scheme);
        scores.extend(result.scores);
        stages.push((transfer, result.kernel_seconds));
        device.release(resident)?;
    }
    Ok((scores, stages))
}

/// Serial chunked search: transfers and kernels strictly alternate.
pub fn chunked_search(
    device: &mut GpuDevice,
    database: &[&[u8]],
    query: &[u8],
    scheme: &ScoringScheme,
    sort_chunks: bool,
) -> Result<ChunkedResult, MemoryError> {
    // Leave a little headroom like a real allocator would.
    let (scores, stages) = stream(device, database, query, scheme, sort_chunks, 0.9)?;
    let kernels: f64 = stages.iter().map(|&(_, kernel)| kernel).sum();
    let transfers: f64 = stages.iter().map(|&(transfer, _)| transfer).sum();
    Ok(ChunkedResult {
        scores,
        seconds: kernels + transfers,
        chunks: stages.len(),
    })
}

/// Double-buffered chunked search: chunk `i+1` uploads while chunk `i`
/// computes (requires room for two chunks; the chunk size is halved
/// accordingly). The modelled time is the pipeline formula; scores are
/// identical to the serial mode.
///
/// Note on clocks: the returned [`ChunkedResult::seconds`] is the
/// *pipelined* wall time; the device's own [`GpuDevice::clock`] and
/// busy counters still accumulate the serial component sums (transfers
/// are work the copy engine performs even when hidden). Consumers must
/// pick one clock — the runtime reports `seconds`.
pub fn overlapped_search(
    device: &mut GpuDevice,
    database: &[&[u8]],
    query: &[u8],
    scheme: &ScoringScheme,
    sort_chunks: bool,
) -> Result<ChunkedResult, MemoryError> {
    let (scores, stages) = stream(device, database, query, scheme, sort_chunks, 0.45)?;
    // Pipeline: first transfer exposed, then each kernel hides the next
    // transfer (or vice versa), final kernel exposed.
    let mut seconds = stages.first().map_or(0.0, |&(transfer, _)| transfer);
    for (i, &(_, kernel)) in stages.iter().enumerate() {
        let next_transfer = stages.get(i + 1).map_or(0.0, |&(transfer, _)| transfer);
        seconds += kernel.max(next_transfer);
    }
    Ok(ChunkedResult {
        scores,
        seconds,
        chunks: stages.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;
    use swdual_align::scalar::gotoh_score;
    use swdual_bio::seq::{Sequence, SequenceSet};
    use swdual_bio::Alphabet;

    fn scheme() -> ScoringScheme {
        ScoringScheme::protein_default()
    }

    /// The residues of every record of `db`, in order.
    fn codes(db: &SequenceSet) -> Vec<&[u8]> {
        db.iter().map(Sequence::codes).collect()
    }

    /// A toy database of `n` sequences of `len` residues.
    fn uniform_database(n: usize, len: usize, alphabet: Alphabet) -> SequenceSet {
        let mut set = SequenceSet::new(alphabet);
        let mut state = 0x5EEDu64;
        for i in 0..n {
            let residues: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 20.min(alphabet.size() as u64 - 1)) as u8
                })
                .collect();
            set.push(Sequence::from_codes(format!("u{i}"), alphabet, residues))
                .expect("alphabet matches");
        }
        set
    }

    #[test]
    fn splitting_respects_chunk_size_and_order() {
        let db = uniform_database(20, 50, Alphabet::Protein);
        let subjects = codes(&db);
        let chunks = split_into_chunks(&subjects, 200).unwrap();
        // 50 residues each, 200-residue chunks -> 4 sequences per chunk.
        assert_eq!(chunks.len(), 5);
        for c in &chunks {
            assert!(c.iter().map(|s| s.len()).sum::<usize>() <= 200);
        }
        // The runs are the database's own slices, in its order.
        let rejoined: Vec<*const u8> = chunks.concat().iter().map(|s| s.as_ptr()).collect();
        let expected: Vec<*const u8> = db.iter().map(|s| s.codes().as_ptr()).collect();
        assert_eq!(rejoined, expected);
    }

    #[test]
    fn oversized_single_sequence_is_an_error() {
        let db = uniform_database(1, 500, Alphabet::Protein);
        assert!(split_into_chunks(&codes(&db), 100).is_err());
    }

    #[test]
    fn chunked_scores_are_exact() {
        let db = uniform_database(24, 40, Alphabet::Protein);
        // Device memory fits only ~6 sequences at a time.
        let mut device = GpuDevice::new(DeviceSpec::toy(260));
        let query = uniform_database(1, 80, Alphabet::Protein);
        let query = query.get(0).unwrap().codes().to_vec();
        let result = chunked_search(&mut device, &codes(&db), &query, &scheme(), true).unwrap();
        assert!(result.chunks > 1, "database must not fit in one chunk");
        assert_eq!(result.scores.len(), 24);
        for (i, seq) in db.iter().enumerate() {
            assert_eq!(
                result.scores[i],
                gotoh_score(&query, seq.codes(), &scheme()),
                "sequence {i}"
            );
        }
    }

    #[test]
    fn overlap_never_slower_at_equal_chunking() {
        // Slow PCIe makes transfers comparable to kernels, the regime
        // double buffering exists for. The overlap device gets twice the
        // memory so both runs use the same chunk size (0.45 · 2000 =
        // 0.9 · 1000) and the comparison isolates the pipeline effect.
        let mut spec = DeviceSpec::toy(1000);
        spec.pcie_bytes_per_sec = 2.0e6;
        let db = uniform_database(64, 60, Alphabet::Protein);
        let query = uniform_database(1, 100, Alphabet::Protein);
        let query = query.get(0).unwrap().codes().to_vec();

        let mut serial_dev = GpuDevice::new(spec.clone());
        let serial = chunked_search(&mut serial_dev, &codes(&db), &query, &scheme(), true).unwrap();
        let mut big = spec.clone();
        big.global_memory = 2000;
        let mut overlap_dev = GpuDevice::new(big);
        let overlap =
            overlapped_search(&mut overlap_dev, &codes(&db), &query, &scheme(), true).unwrap();

        assert_eq!(serial.scores, overlap.scores);
        assert_eq!(serial.chunks, overlap.chunks);
        // Pipeline hides all but one stage per step: strictly faster
        // when both stages are nonzero.
        assert!(
            overlap.seconds < serial.seconds,
            "overlap {} >= serial {}",
            overlap.seconds,
            serial.seconds
        );
        // And the win is substantial in this balanced regime (> 15%).
        assert!(overlap.seconds < serial.seconds * 0.85);
    }

    #[test]
    fn single_chunk_degenerates_cleanly() {
        let db = uniform_database(4, 20, Alphabet::Protein);
        let mut device = GpuDevice::new(DeviceSpec::toy(10_000));
        let query = vec![0u8; 30];
        let result = chunked_search(&mut device, &codes(&db), &query, &scheme(), false).unwrap();
        assert_eq!(result.chunks, 1);
        assert_eq!(result.scores.len(), 4);
    }

    #[test]
    fn device_memory_is_released_between_chunks() {
        let db = uniform_database(30, 40, Alphabet::Protein);
        let mut device = GpuDevice::new(DeviceSpec::toy(300));
        let query = vec![1u8; 50];
        chunked_search(&mut device, &codes(&db), &query, &scheme(), true).unwrap();
        assert_eq!(device.memory().used(), 0);
        // Peak usage stayed within one chunk (90% of capacity).
        assert!(device.memory().peak() <= 270);
    }
}
