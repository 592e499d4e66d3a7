//! # swdual-align — Smith-Waterman / Gotoh alignment kernels
//!
//! Implements the comparison algorithms of the paper (§II) and the
//! algorithmic cores of every baseline it measures against (§V, Table I):
//!
//! * [`scalar`] — reference implementations: linear-gap Smith-Waterman
//!   (paper Eq. 1) and the Gotoh affine-gap recurrences (Eqs. 2–4).
//!   Every other kernel is property-tested against these.
//! * `striped` — Farrar's striped vertical SIMD kernel \[18\] (the
//!   STRIPED baseline) over query profiles — the substitution matrix
//!   re-indexed by query position, the layout trick shared by STRIPED,
//!   SWIPE and CUDASW++ — in biased byte and saturating 16-bit lanes,
//!   with escalation on overflow.
//! * [`interseq`] — Rognes' inter-sequence SIMD kernel \[9\] (the SWIPE
//!   baseline): one query against a vector's worth of database
//!   sequences at once, each lane taking the next sequence as soon as
//!   its own ends, in the same biased byte arithmetic — over the 32-lane
//!   blocks an SQB version-3 file stores, in place.
//! * [`engine`] — a shim: the name the end-to-end benchmark builds the
//!   workers' scorer by.
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
//! Each SIMD kernel is one body written over the lane operations of a
//! private `lanes` module; the runtime [`dispatch`] layer detects the
//! host ISA once and routes through its AVX2 instantiation or its
//! lane-array one (the `scalar` backend). Beside them sit per-worker
//! kernel working memory ([`scratch`]) and the [`tiered`] SWIPE-style
//! pipeline that is the default database scoring path:
//!
//! | tier   | kernel                                   | lanes (AVX2, scalar)                   |
//! |--------|------------------------------------------|----------------------------------------|
//! | byte   | inter-sequence [`interseq`] stream *or* striped byte kernel, picked per block by fill and query length | 32 × u8 / 16 × u8 (inter-sequence on lane arrays, two per 32-lane column) |
//! | 16-bit | striped 16-bit kernel                    | 16 × i16 / 8 × i16                     |
//! | scalar | Gotoh [`scalar`]                         | —                                      |
//!
//! [`tiered::score_database`] is the one database-level entry point;
//! both byte-tier shapes escalate exactly the same subjects.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod dispatch;
pub mod engine;
pub mod interseq;
mod lanes;
pub mod scalar;
pub mod scratch;
mod simd_avx2;
mod striped;
pub mod tiered;

pub use dispatch::{Backend, QueryProfiles};
pub use engine::{EngineKind, ProfileCache};
pub use scalar::{gotoh_score, sw_linear_score};
pub use scratch::Scratch;
pub use tiered::{score_database, tiered_score, PhaseTimings, Subjects, TierStats};
