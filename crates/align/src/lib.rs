//! # swdual-align — Smith-Waterman / Gotoh alignment kernels
//!
//! Implements the comparison algorithms of the paper (§II) and the
//! algorithmic cores of every baseline it measures against (§V, Table I):
//!
//! * [`scalar`] — reference implementations: linear-gap Smith-Waterman
//!   (paper Eq. 1) and the Gotoh affine-gap recurrences (Eqs. 2–4).
//!   Every other kernel is property-tested against these.
//! * [`profile`] — query profiles: the substitution matrix re-indexed by
//!   query position, the layout trick shared by STRIPED, SWIPE and
//!   CUDASW++.
//! * [`striped`] / [`striped8`] — Farrar's striped vertical SIMD kernel
//!   [18] (the STRIPED baseline) in saturating 16-bit and biased byte
//!   lanes, with escalation on overflow.
//! * [`interseq`] — Rognes' inter-sequence SIMD kernel [9] (the SWIPE
//!   baseline): one query against a vector's worth of database
//!   sequences at once, each lane taking the next sequence as soon as
//!   its own ends, in the same biased byte arithmetic — over the 32-lane
//!   blocks an SQB version-3 file stores, in place.
//! * [`engine`] — a common [`engine::AlignEngine`] trait plus the
//!   database-search drivers the workers run.
//!
//! The search is coarse-grained and score-only, as in the paper (§II-C):
//! Figure 2's fine-grained scheme and alignment output are not built.
//!
//! All kernels consume residues already encoded by `swdual-bio` and score
//! with a [`swdual_bio::ScoringScheme`]. Scores are `i32` end-to-end;
//! vectorised kernels use narrower saturating lanes internally and fall
//! back to the scalar kernel when a score would overflow the lane type —
//! exactly how SWIPE and STRIPED handle the same problem.
//!
//! On top of the kernels sits a runtime [`dispatch`] layer (detect the
//! host ISA once, route through AVX2 or scalar lane-array backends), a
//! [`profile_cache`] that reuses built query profiles across jobs,
//! per-worker kernel working memory ([`scratch`]), and the [`tiered`]
//! SWIPE-style pipeline that is the default database scoring path:
//!
//! | tier   | kernel                                   | lanes (AVX2, scalar)                   |
//! |--------|------------------------------------------|----------------------------------------|
//! | byte   | inter-sequence [`interseq`] stream *or* striped [`striped8`], picked per block by fill and query length | 32 lanes or 32 × u8 / 16 × u8 (inter-sequence on lane arrays, two per 32-lane column) |
//! | 16-bit | striped [`striped`]                      | 16 × i16 / 8 × i16                     |
//! | scalar | Gotoh [`scalar`]                         | —                                      |
//!
//! [`tiered::score_database`] is the one database-level entry point;
//! both byte-tier shapes escalate exactly the same subjects.

pub mod dispatch;
pub mod engine;
pub mod interseq;
pub mod profile;
pub mod profile_cache;
pub mod scalar;
pub mod scratch;
pub mod simd_avx2;
pub mod striped;
pub mod striped8;
pub mod tiered;
pub mod wide;

pub use dispatch::{Backend, QueryProfiles};
pub use engine::{AlignEngine, EngineKind, PhaseTimings};
pub use profile_cache::ProfileCache;
pub use scalar::{gotoh_score, sw_linear_score};
pub use scratch::Scratch;
pub use tiered::{score_database, tiered_score, Subjects, TierStats};
