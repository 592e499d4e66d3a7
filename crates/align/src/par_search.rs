//! Thread-parallel database passes.
//!
//! The CPU baselines of the paper's Table I all take a thread count
//! (`swipe -a $T`, `striped -T $T`, `swps3 -j $T`): one process spreads
//! a database pass over several cores. This module reproduces that mode
//! on rayon: subjects are scored in parallel chunks, with a per-chunk
//! profile reuse so the parallel pass does not rebuild query profiles
//! per subject. Inside SWDUAL, a *worker* is a single core (the paper
//! pins one worker per processor), so the runtime does not use this —
//! it exists to reproduce the standalone baselines faithfully and to
//! serve as the library's fast path for plain multi-threaded search.

use crate::engine::EngineKind;
use crate::profile::StripedProfile;
use crate::scalar::gotoh_score;
use crate::striped::striped_score_profile;
use rayon::prelude::*;
use swdual_bio::ScoringScheme;

/// Number of subjects per parallel work item: large enough to amortise
/// task overhead, small enough to balance tail chunks.
const CHUNK: usize = 16;

/// Score one query against every subject in parallel on the global
/// rayon pool, using `kind`'s kernel.
pub fn par_score_many(
    query: &[u8],
    subjects: &[&[u8]],
    scheme: &ScoringScheme,
    kind: EngineKind,
) -> Vec<i32> {
    match kind {
        // The striped engine benefits from sharing one profile across
        // the whole pass; build it once, read-only across threads.
        EngineKind::Striped => {
            let profile = StripedProfile::build(query, &scheme.matrix);
            subjects
                .par_chunks(CHUNK)
                .flat_map_iter(|chunk| {
                    let mut rows = Vec::new();
                    chunk
                        .iter()
                        .map(|s| {
                            striped_score_profile(&profile, s, scheme, &mut rows)
                                .unwrap_or_else(|| gotoh_score(query, s, scheme))
                        })
                        .collect::<Vec<i32>>()
                })
                .collect()
        }
        // Batched engines keep their own batching inside each chunk.
        _ => {
            let engine = kind.build();
            subjects
                .par_chunks(CHUNK)
                .flat_map_iter(|chunk| engine.score_many(query, chunk, scheme))
                .collect()
        }
    }
}

/// Score many queries against many subjects in parallel (queries outer,
/// subjects inner) — the full matrix a standalone tool computes.
/// Returns `scores[q][s]`.
pub fn par_all_vs_all(
    queries: &[&[u8]],
    subjects: &[&[u8]],
    scheme: &ScoringScheme,
    kind: EngineKind,
) -> Vec<Vec<i32>> {
    queries
        .par_iter()
        .map(|q| par_score_many(q, subjects, scheme, kind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % 20) as u8
            })
            .collect()
    }

    fn subjects(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| pseudo_random(30 + (i * 7) % 120, i as u64 + 1))
            .collect()
    }

    #[test]
    fn parallel_pass_matches_serial_for_every_engine() {
        let scheme = ScoringScheme::protein_default();
        let q = pseudo_random(150, 99);
        let subs = subjects(70);
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let expected: Vec<i32> = refs.iter().map(|s| gotoh_score(&q, s, &scheme)).collect();
        for kind in EngineKind::ALL {
            let got = par_score_many(&q, &refs, &scheme, kind);
            assert_eq!(got, expected, "engine {kind}");
        }
    }

    #[test]
    fn all_vs_all_shape_and_values() {
        let scheme = ScoringScheme::protein_default();
        let qs = subjects(5);
        let ss = subjects(20);
        let q_refs: Vec<&[u8]> = qs.iter().map(|s| s.as_slice()).collect();
        let s_refs: Vec<&[u8]> = ss.iter().map(|s| s.as_slice()).collect();
        let table = par_all_vs_all(&q_refs, &s_refs, &scheme, EngineKind::InterSeq);
        assert_eq!(table.len(), 5);
        for (qi, row) in table.iter().enumerate() {
            assert_eq!(row.len(), 20);
            for (si, &score) in row.iter().enumerate() {
                assert_eq!(
                    score,
                    gotoh_score(q_refs[qi], s_refs[si], &scheme),
                    "({qi},{si})"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let scheme = ScoringScheme::protein_default();
        let q = pseudo_random(20, 1);
        assert!(par_score_many(&q, &[], &scheme, EngineKind::Striped).is_empty());
        let empty_q: Vec<&[u8]> = vec![];
        assert!(par_all_vs_all(&empty_q, &[], &scheme, EngineKind::Scalar).is_empty());
    }

    #[test]
    fn order_is_preserved_across_chunks() {
        // More subjects than one chunk; results must stay in input order.
        let scheme = ScoringScheme::protein_default();
        let q = pseudo_random(40, 5);
        let subs = subjects(3 * CHUNK + 5);
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let par = par_score_many(&q, &refs, &scheme, EngineKind::InterSeq);
        let serial: Vec<i32> = refs.iter().map(|s| gotoh_score(&q, s, &scheme)).collect();
        assert_eq!(par, serial);
    }
}
