//! Alignment engines: a uniform interface over the kernels.
//!
//! The paper's workers each wrap a concrete implementation (SWIPE on
//! CPUs, CUDASW++ on GPUs); this module gives the Rust reproduction the
//! same shape. An [`AlignEngine`] scores one query against one subject
//! or against a whole subject list. Every worker runs
//! [`LadderEngine::AUTO`]. [`EngineKind`] names it (`benchmark/` builds
//! it by that name) beside the scalar and forced inter-sequence variants
//! the tests compare.

use crate::dispatch::Backend;
use crate::profile_cache::ProfileCache;
use crate::scalar::gotoh_score;
use crate::scratch::Scratch;
use crate::tiered::{score_database_with, score_run_with, ByteShape, Subjects, TierStats};
use std::ops::Range;
use swdual_bio::ScoringScheme;

/// Which kernel an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Scalar Gotoh reference kernel (also the SWPS3-class baseline:
    /// straightforward per-thread vector code, one comparison at a time).
    Scalar,
    /// The tier-ladder engine the workers run: byte lanes → 16-bit
    /// lanes → scalar, the byte tier inter-sequence (SWIPE) on each block
    /// whose stream fills its lanes well enough for the query's length
    /// and Farrar-striped (STRIPED baseline) on the others — see
    /// [`crate::tiered::score_database`].
    Striped,
    /// The same ladder with the byte tier forced inter-sequence at
    /// every query length (the SWIPE ablation of Table II).
    InterSeq,
}

impl EngineKind {
    /// All kinds, for exhaustive testing/benching.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Scalar,
        EngineKind::Striped,
        EngineKind::InterSeq,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Scalar => "scalar",
            EngineKind::Striped => "striped",
            EngineKind::InterSeq => "interseq",
        }
    }

    /// Build the engine.
    pub fn build(self) -> Box<dyn AlignEngine> {
        match self {
            EngineKind::Scalar => Box::new(ScalarEngine),
            EngineKind::Striped => Box::new(LadderEngine::AUTO),
            EngineKind::InterSeq => Box::new(LadderEngine::INTER_SEQ),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock seconds a `score_many` call spent in each host phase.
/// The profiler's phase taxonomy for CPU workers: query-profile setup
/// and the DP inner loop (the search is score-only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Seconds of per-query setup: the inter-sequence score tables and
    /// any striped profile build or cache lookup.
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

/// A local-alignment scoring engine. All engines are *exact*: they must
/// return the same score as the scalar Gotoh reference.
pub trait AlignEngine: Send + Sync {
    /// Which kernel this engine wraps.
    fn kind(&self) -> EngineKind;

    /// Score one pairwise comparison.
    fn score(&self, query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> i32;

    /// Score one query against many subjects. The default loops over
    /// [`AlignEngine::score`]; batched engines override this.
    fn score_many(&self, query: &[u8], subjects: &[&[u8]], scheme: &ScoringScheme) -> Vec<i32> {
        subjects
            .iter()
            .map(|s| self.score(query, s, scheme))
            .collect()
    }

    /// Like [`AlignEngine::score_many`] but also reports where the wall
    /// time went and how many subjects each tier resolved; profile
    /// setup may be served from `cache`. The default, for engines with
    /// neither cacheable setup nor a tier ladder, puts all time in the
    /// DP inner loop and every subject in the scalar tier. Scores MUST
    /// equal `score_many`'s — profiling never changes results.
    fn score_many_cached(
        &self,
        query: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
        _cache: Option<&ProfileCache>,
    ) -> (Vec<i32>, PhaseTimings, TierStats) {
        let start = std::time::Instant::now();
        let scores = self.score_many(query, subjects, scheme);
        let timings = PhaseTimings {
            dp_inner: start.elapsed().as_secs_f64(),
            ..PhaseTimings::default()
        };
        let stats = TierStats {
            subjects: subjects.len() as u64,
            escalated_scalar: subjects.len() as u64,
            ..TierStats::default()
        };
        (scores, timings, stats)
    }

    /// [`AlignEngine::score_many_cached`] for a caller that scores many
    /// queries against one database — a worker: `db` carries what was
    /// prepared once per database, `slice` the positions of its length
    /// order this job covers, `scratch` the kernels' reusable working
    /// memory. Scores come back in the slice's order. Engines that need
    /// none of it gather the slice's subjects and delegate.
    #[allow(clippy::too_many_arguments)]
    fn score_database(
        &self,
        query: &[u8],
        db: &Subjects<'_>,
        slice: Range<usize>,
        scheme: &ScoringScheme,
        cache: Option<&ProfileCache>,
        _scratch: &mut Scratch,
    ) -> (Vec<i32>, PhaseTimings, TierStats) {
        let gathered: Vec<Vec<u8>> = slice.map(|p| db.residues(p)).collect();
        let subjects: Vec<&[u8]> = gathered.iter().map(Vec::as_slice).collect();
        self.score_many_cached(query, &subjects, scheme, cache)
    }

    /// [`AlignEngine::score_database`] for a worker's *run*: each of
    /// `queries` against the same `slice`, scores per query in the
    /// slice's order, one [`PhaseTimings`] and one [`TierStats`] for the
    /// run. The default scores the queries one by one.
    #[allow(clippy::too_many_arguments)]
    fn score_run(
        &self,
        queries: &[&[u8]],
        db: &Subjects<'_>,
        slice: Range<usize>,
        scheme: &ScoringScheme,
        cache: Option<&ProfileCache>,
        scratch: &mut Scratch,
    ) -> (Vec<Vec<i32>>, PhaseTimings, TierStats) {
        let mut timings = PhaseTimings::default();
        let mut stats = TierStats::default();
        let scores = queries.iter().map(|query| {
            let (scores, own, tiers) =
                self.score_database(query, db, slice.clone(), scheme, cache, scratch);
            timings.profile_build += own.profile_build;
            timings.dp_inner += own.dp_inner;
            stats.merge(&tiers);
            scores
        });
        (scores.collect(), timings, stats)
    }
}

/// Scalar Gotoh engine.
pub struct ScalarEngine;

impl AlignEngine for ScalarEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Scalar
    }
    fn score(&self, query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> i32 {
        gotoh_score(query, subject, scheme)
    }
}

/// The tier-ladder engine: byte lanes first, 16-bit lanes on
/// saturation, scalar Gotoh last, on the runtime-dispatched SIMD
/// backend ([`crate::tiered::score_database`]). Striped profiles are
/// built only when a subject needs them — and once per *process* when a
/// [`ProfileCache`] is passed. The slice-based entry points prepare a
/// throwaway [`Subjects`] and [`Scratch`] per call.
pub struct LadderEngine {
    shape: ByteShape,
}

impl LadderEngine {
    /// [`EngineKind::Striped`]: the byte-tier shape picked by fill
    /// ([`crate::tiered::ByteShape::Auto`]).
    pub const AUTO: LadderEngine = LadderEngine {
        shape: ByteShape::Auto,
    };
    /// [`EngineKind::InterSeq`]: the byte tier always inter-sequence.
    pub const INTER_SEQ: LadderEngine = LadderEngine {
        shape: ByteShape::InterSeq,
    };
}

impl AlignEngine for LadderEngine {
    fn kind(&self) -> EngineKind {
        match self.shape {
            ByteShape::InterSeq => EngineKind::InterSeq,
            ByteShape::Auto | ByteShape::Striped => EngineKind::Striped,
        }
    }
    fn score(&self, query: &[u8], subject: &[u8], scheme: &ScoringScheme) -> i32 {
        self.score_many(query, &[subject], scheme)[0]
    }
    fn score_many(&self, query: &[u8], subjects: &[&[u8]], scheme: &ScoringScheme) -> Vec<i32> {
        self.score_many_cached(query, subjects, scheme, None).0
    }
    fn score_many_cached(
        &self,
        query: &[u8],
        subjects: &[&[u8]],
        scheme: &ScoringScheme,
        cache: Option<&ProfileCache>,
    ) -> (Vec<i32>, PhaseTimings, TierStats) {
        let db = Subjects::new(subjects.to_vec());
        let (scores, timings, stats) = self.score_database(
            query,
            &db,
            db.whole(),
            scheme,
            cache,
            &mut Scratch::default(),
        );
        (db.in_database_order(&scores), timings, stats)
    }
    fn score_database(
        &self,
        query: &[u8],
        db: &Subjects<'_>,
        slice: Range<usize>,
        scheme: &ScoringScheme,
        cache: Option<&ProfileCache>,
        scratch: &mut Scratch,
    ) -> (Vec<i32>, PhaseTimings, TierStats) {
        let mut stats = TierStats::default();
        let (scores, timings) = score_database_with(
            Backend::active(),
            self.shape,
            query,
            db,
            slice,
            scheme,
            cache,
            scratch,
            &mut stats,
        );
        (scores, timings, stats)
    }
    /// A run of one task is a one-query job; a longer one is scored
    /// transposed ([`score_run_with`]), whichever shape the engine gives
    /// one-query jobs: both shapes score and escalate alike.
    fn score_run(
        &self,
        queries: &[&[u8]],
        db: &Subjects<'_>,
        slice: Range<usize>,
        scheme: &ScoringScheme,
        cache: Option<&ProfileCache>,
        scratch: &mut Scratch,
    ) -> (Vec<Vec<i32>>, PhaseTimings, TierStats) {
        if let [query] = queries {
            let (scores, timings, stats) =
                self.score_database(query, db, slice, scheme, cache, scratch);
            return (vec![scores], timings, stats);
        }
        let mut stats = TierStats::default();
        let (scores, timings) = score_run_with(
            Backend::active(),
            queries,
            db,
            slice,
            scheme,
            cache,
            scratch,
            &mut stats,
        );
        (scores, timings, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for kind in EngineKind::ALL {
            let engine = kind.build();
            assert_eq!(engine.kind(), kind);
            let got = engine.score_many(&q, &refs, &scheme);
            assert_eq!(got, expected, "engine {kind}");
            // Single-pair path too.
            assert_eq!(engine.score(&q, refs[0], &scheme), expected[0]);
        }
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(EngineKind::Scalar.name(), "scalar");
        assert_eq!(EngineKind::Striped.to_string(), "striped");
        assert_eq!(EngineKind::InterSeq.name(), "interseq");
    }

    #[test]
    fn phased_scoring_matches_unphased_for_all_engines() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRR");
        let subs = subjects();
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        for kind in EngineKind::ALL {
            let engine = kind.build();
            let plain = engine.score_many(&q, &refs, &scheme);
            let (phased, timings, _) = engine.score_many_cached(&q, &refs, &scheme, None);
            assert_eq!(phased, plain, "engine {kind}: profiling changed scores");
            assert!(timings.profile_build >= 0.0);
            assert!(timings.dp_inner >= 0.0);
            assert!(timings.total() >= timings.dp_inner);
        }
        // The striped engine is the one that actually splits out a
        // profile-build phase; the default lumps everything in dp_inner.
        let (_, scalar, _) = ScalarEngine.score_many_cached(&q, &refs, &scheme, None);
        assert_eq!(scalar.profile_build, 0.0);
    }

    #[test]
    fn cached_scoring_matches_and_hits_on_reuse() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRR");
        let subs = subjects();
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let cache = ProfileCache::default();
        let engine = LadderEngine::AUTO;
        let plain = engine.score_many(&q, &refs, &scheme);
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

    #[test]
    fn default_cached_path_reports_scalar_resolution() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLAT");
        let subs = subjects();
        let refs: Vec<&[u8]> = subs.iter().map(|s| s.as_slice()).collect();
        let (scores, _, stats) = ScalarEngine.score_many_cached(&q, &refs, &scheme, None);
        assert_eq!(scores, ScalarEngine.score_many(&q, &refs, &scheme));
        assert_eq!(stats.subjects, refs.len() as u64);
        assert_eq!(stats.escalated_scalar, refs.len() as u64);
    }

    #[test]
    fn default_score_many_loops_score() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLAT");
        let s = subjects();
        let refs: Vec<&[u8]> = s.iter().map(|x| x.as_slice()).collect();
        let engine = ScalarEngine;
        let many = engine.score_many(&q, &refs, &scheme);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(many[i], engine.score(&q, r, &scheme));
        }
    }
}
