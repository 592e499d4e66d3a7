//! A shim for `benchmark/`, which builds its scorer as
//! `EngineKind::Striped.build()` and hands it a [`ProfileCache`].
//! Workers call [`crate::tiered`] directly. It goes with the next
//! change that may edit `benchmark/`, which then calls
//! [`crate::tiered::score_subjects`] itself.

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

/// A placeholder for the cache `benchmark/` builds and passes to
/// [`Ladder::score_many_cached`]. It holds nothing: every call builds
/// its query's profiles at most once, where they are used.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileCache;

/// The tier ladder over a plain list of subjects.
#[derive(Debug, Clone, Copy)]
pub struct Ladder;

impl Ladder {
    /// [`score_subjects`]: scores in `subjects`' order, with the call's
    /// phases and tier counts. The placeholder cache is ignored.
    pub fn score_many_cached(
        &self,
        query: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
        _cache: Option<&ProfileCache>,
    ) -> (Vec<i32>, PhaseTimings, TierStats) {
        score_subjects(query, subjects, scheme)
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
    fn the_placeholder_cache_changes_nothing() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRR");
        let subs = subjects();
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let engine = EngineKind::Striped.build();
        let (plain, _, plain_stats) = engine.score_many_cached(&q, &refs, &scheme, None);
        let cache = ProfileCache;
        let (cached, _, stats) = engine.score_many_cached(&q, &refs, &scheme, Some(&cache));
        assert_eq!(cached, plain);
        assert_eq!(stats, plain_stats);
        assert_eq!(stats.subjects, refs.len() as u64);
        assert_eq!(
            stats.byte_resolved + stats.escalated_16 + stats.escalated_scalar,
            stats.subjects
        );
    }
}
