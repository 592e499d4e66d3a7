//! A shim for `benchmark/`, which builds its scorer as
//! `EngineKind::Striped.build()`. Workers call [`crate::tiered`]
//! directly. It goes with the next change that may edit `benchmark/`,
//! which then calls [`crate::tiered::score_subjects`] itself.

use crate::profile_cache::ProfileCache;
use crate::tiered::{score_subjects, PhaseTimings, TierStats};
use swdual_bio::ScoringScheme;

/// The one scorer `benchmark/` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The tier ladder every worker runs
    /// ([`crate::tiered::score_database`]).
    Striped,
}

impl EngineKind {
    /// The scorer of this name.
    pub fn build(self) -> Ladder {
        Ladder
    }
}

/// The tier ladder over a plain list of subjects.
#[derive(Debug, Clone, Copy)]
pub struct Ladder;

impl Ladder {
    /// [`score_subjects`]: scores in `subjects`' order, with the call's
    /// phases and tier counts.
    pub fn score_many_cached(
        &self,
        query: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
        cache: Option<&ProfileCache>,
    ) -> (Vec<i32>, PhaseTimings, TierStats) {
        score_subjects(query, subjects, scheme, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::gotoh_score;
    use swdual_bio::Alphabet;

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    fn subjects() -> Vec<Vec<u8>> {
        vec![
            prot(b"MKWVTFISLLFLFSSAYSRG"),
            prot(b"GRSYASSFLF"),
            prot(b"MKWVTFISLL"),
            prot(b"AAAAAAAAAA"),
            prot(b"WWWW"),
            prot(b""),
            prot(b"MKWVTFISLLFLFSSAYSRGMKWVTFISLLFLFSSAYSRG"),
        ]
    }

    #[test]
    fn all_engines_agree_with_scalar() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRR");
        let subs = subjects();
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let expected: Vec<i32> = refs.iter().map(|s| gotoh_score(&q, s, &scheme)).collect();
        let engine = EngineKind::Striped.build();
        let (got, _, _) = engine.score_many_cached(&q, &refs, &scheme, None);
        assert_eq!(got, expected);
    }

    #[test]
    fn cached_scoring_matches_and_hits_on_reuse() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRR");
        let subs = subjects();
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let engine = EngineKind::Striped.build();
        let (plain, _, _) = engine.score_many_cached(&q, &refs, &scheme, None);
        let cache = ProfileCache::default();
        let (first, _, stats) = engine.score_many_cached(&q, &refs, &scheme, Some(&cache));
        assert_eq!(first, plain);
        assert_eq!(stats.subjects, refs.len() as u64);
        assert_eq!(
            stats.byte_resolved + stats.escalated_16 + stats.escalated_scalar,
            stats.subjects
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // A second job with the same query reuses the profiles.
        let (second, timings, _) = engine.score_many_cached(&q, &refs, &scheme, Some(&cache));
        assert_eq!(second, plain);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(timings.profile_build >= 0.0);
    }
}
