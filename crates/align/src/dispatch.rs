//! Runtime kernel dispatch: detect the host's vector ISA once, then
//! route every score through the fastest bit-exact backend.
//!
//! The ladder, fastest first. The byte tier has two shapes — Farrar's
//! striped kernel (lanes = query positions) and the inter-sequence
//! kernel of [`crate::interseq`] (lanes = subjects); [`crate::tiered`]
//! picks between them per block, by the block's stored fill against
//! [`Backend::interseq_min_fill`] of the query's length:
//!
//! | backend   | ISA        | striped byte     | inter-sequence byte   | word kernel       |
//! |-----------|------------|------------------|-----------------------|-------------------|
//! | `avx2`    | x86-64 AVX2| 32 × u8 (256-bit)| 32 subjects × u8      | 16 × i16 (256-bit)|
//! | `scalar`  | any        | 16 × u8 arrays   | 16 subjects × u8 arrays| 8 × i16 arrays   |
//!
//! Both backends run the same kernel bodies, written once over the lane
//! operations of `crate::lanes`: `scalar` instantiates them on
//! 128-bit lane arrays (SSE2, the x86-64 baseline, on x86-64; plain
//! Rust elsewhere), `avx2` on `__m256i`. `scalar` is always available,
//! the oracle the property tests pin every other backend against, and
//! what every host without AVX2 (aarch64 included) runs. Detection runs
//! once per process ([`Backend::active`], a `OnceLock`); the env var
//! `SWDUAL_KERNEL_BACKEND=scalar|avx2` overrides it, which CI uses to
//! force the fallback path on hosts that would dispatch wide.
//!
//! All backends return bit-identical `Option<i32>` results. In the
//! striped kernels the interleave changes which DP cells share a
//! register, never the per-cell arithmetic, and the saturation guards
//! compare the same final maximum against the same limit. The
//! inter-sequence kernel holds its cells in each backend's own
//! representation (signed on AVX2, biased unsigned on the lane arrays);
//! both are exact below the same limit, so they escalate the same
//! subjects and agree on every score.

use crate::lanes::ARRAY_LANES;
#[cfg(target_arch = "x86_64")]
use crate::lanes::AVX2_LANES;
use crate::scratch::Scratch;
use crate::striped::{byte_array, word_array, ByteProfile, StripedProfile};
use std::sync::OnceLock;
use swdual_bio::matrix::Matrix;
use swdual_bio::ScoringScheme;

/// A vector instruction set the striped kernels can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable saturating lane arrays (always available; the oracle).
    Scalar,
    /// 256-bit AVX2 intrinsics (x86-64, runtime-detected).
    Avx2,
}

impl Backend {
    /// Stable display name (the `SWDUAL_KERNEL_BACKEND` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parse a backend name (the env-var grammar).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// Is this backend usable on the running host?
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }

    /// Every backend usable on this host, fastest first, `Scalar` last.
    pub fn available() -> Vec<Backend> {
        [Backend::Avx2, Backend::Scalar]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    /// Resolve the backend an override string (usually the
    /// `SWDUAL_KERNEL_BACKEND` env var) and the host support pick.
    /// Unknown or unavailable overrides fall back to detection rather
    /// than erroring: a forced-ISA crash would be strictly worse than a
    /// slower exact answer.
    pub fn resolve(overridden: Option<&str>) -> Backend {
        if let Some(name) = overridden {
            if let Some(b) = Backend::from_name(name) {
                if b.is_available() {
                    return b;
                }
            }
        }
        Backend::available()[0]
    }

    /// The process-wide active backend: env override if valid, else the
    /// fastest ISA the host supports. Resolved once, then cached.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            Backend::resolve(std::env::var("SWDUAL_KERNEL_BACKEND").ok().as_deref())
        })
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The striped profiles one backend scores a query with: the 16-bit
/// layout and, when the matrix can be biased into a byte, the byte
/// layout, each in the lane width of that backend's kernels. Without a
/// byte layout every subject starts at the 16-bit tier.
///
/// Only [`QueryProfiles::build_for`] makes one: its availability check
/// is what `score8`/`score16` rely on.
#[derive(Debug, Clone)]
pub struct QueryProfiles {
    /// The query itself (the scalar-fallback tier and cache-key
    /// verification both need the original residues).
    query: Vec<u8>,
    layouts: Layouts,
}

/// One backend's profile layouts.
#[derive(Debug, Clone)]
enum Layouts {
    #[cfg(target_arch = "x86_64")]
    Avx2 {
        word: StripedProfile<i16, { AVX2_LANES / 2 }>,
        byte: Option<ByteProfile<AVX2_LANES>>,
    },
    Arrays {
        word: StripedProfile<i16, { ARRAY_LANES / 2 }>,
        byte: Option<ByteProfile<ARRAY_LANES>>,
    },
}

impl QueryProfiles {
    /// Build the layouts the active backend needs.
    pub fn build(query: &[u8], matrix: &Matrix) -> QueryProfiles {
        QueryProfiles::build_for(Backend::active(), query, matrix)
    }

    /// Build for an explicit backend (tests and benches iterate these).
    ///
    /// # Panics
    /// When `backend` is not available on this host: the layouts built
    /// for it are what license the ISA-specific kernels.
    pub fn build_for(backend: Backend, query: &[u8], matrix: &Matrix) -> QueryProfiles {
        assert!(backend.is_available(), "backend {backend} is not available");
        let layouts = match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => Layouts::Avx2 {
                word: StripedProfile::word(query, matrix),
                byte: ByteProfile::build(query, matrix),
            },
            _ => Layouts::Arrays {
                word: StripedProfile::word(query, matrix),
                byte: ByteProfile::build(query, matrix),
            },
        };
        QueryProfiles {
            query: query.to_vec(),
            layouts,
        }
    }

    /// The query these profiles were built from.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// Striped byte-tier score via this bundle's backend. `None` = the
    /// byte range is unusable (unbiasable matrix or saturation):
    /// escalate. The kernel keeps its `H`/`E` rows in `scratch`.
    #[inline]
    pub fn score8(
        &self,
        subject: &[u8],
        scheme: &ScoringScheme,
        scratch: &mut Scratch,
    ) -> Option<i32> {
        match &self.layouts {
            #[cfg(target_arch = "x86_64")]
            Layouts::Avx2 { byte, .. } => {
                let byte = byte.as_ref()?;
                let rows = &mut scratch.rows_avx2;
                // SAFETY: `build_for` builds AVX2 layouts only once AVX2
                // was detected.
                unsafe { crate::simd_avx2::byte_avx2(byte, subject, scheme, rows) }
            }
            Layouts::Arrays { byte, .. } => {
                byte_array(byte.as_ref()?, subject, scheme, &mut scratch.rows8)
            }
        }
    }

    /// 16-bit-tier score via this bundle's backend. `None` = possible
    /// `i16` saturation: escalate to the scalar kernel.
    #[inline]
    pub fn score16(
        &self,
        subject: &[u8],
        scheme: &ScoringScheme,
        scratch: &mut Scratch,
    ) -> Option<i32> {
        match &self.layouts {
            #[cfg(target_arch = "x86_64")]
            Layouts::Avx2 { word, .. } => {
                let rows = &mut scratch.rows_avx2;
                // SAFETY: as in `score8`.
                unsafe { crate::simd_avx2::word_avx2(word, subject, scheme, rows) }
            }
            Layouts::Arrays { word, .. } => word_array(word, subject, scheme, &mut scratch.rows16),
        }
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

    #[test]
    fn scalar_is_always_available_and_last() {
        let avail = Backend::available();
        assert!(!avail.is_empty());
        assert_eq!(*avail.last().unwrap(), Backend::Scalar);
        assert!(avail.iter().all(|b| b.is_available()));
    }

    #[test]
    fn names_round_trip() {
        for b in [Backend::Scalar, Backend::Avx2] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(Backend::from_name(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::from_name("sse9"), None);
    }

    #[test]
    fn resolve_honours_valid_overrides_and_ignores_bad_ones() {
        assert_eq!(Backend::resolve(Some("scalar")), Backend::Scalar);
        // Unknown or unavailable names fall back to detection.
        let detected = Backend::resolve(None);
        assert_eq!(Backend::resolve(Some("not-an-isa")), detected);
        // Names retired from the vocabulary behave like any unknown one.
        for retired in ["portable", "neon"] {
            assert_eq!(Backend::from_name(retired), None);
            assert_eq!(Backend::resolve(Some(retired)), detected);
        }
        assert!(detected.is_available());
    }

    #[test]
    fn every_available_backend_scores_exactly() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEE");
        let s = prot(b"MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEE");
        let want = gotoh_score(&q, &s, &scheme);
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &scheme.matrix);
            let scratch = &mut Scratch::default();
            assert_eq!(
                p.score8(&s, &scheme, scratch),
                Some(want),
                "byte tier on {backend}"
            );
            assert_eq!(
                p.score16(&s, &scheme, scratch),
                Some(want),
                "word tier on {backend}"
            );
        }
    }

    #[test]
    fn wide_profiles_only_built_when_wanted() {
        // Each backend builds its own layouts and no other's.
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKVLAT");
        let scalar = QueryProfiles::build_for(Backend::Scalar, &q, &scheme.matrix);
        assert!(matches!(
            scalar.layouts,
            Layouts::Arrays { byte: Some(_), .. }
        ));
        #[cfg(target_arch = "x86_64")]
        if Backend::Avx2.is_available() {
            let wide = QueryProfiles::build_for(Backend::Avx2, &q, &scheme.matrix);
            assert!(matches!(wide.layouts, Layouts::Avx2 { byte: Some(_), .. }));
        }
    }

    #[test]
    fn active_backend_is_stable_and_available() {
        let a = Backend::active();
        assert!(a.is_available());
        assert_eq!(a, Backend::active());
    }
}
