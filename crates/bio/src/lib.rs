//! # swdual-bio — biological sequence substrate
//!
//! This crate provides every sequence-handling primitive the SWDUAL
//! reproduction needs (paper §II and §IV):
//!
//! * [`alphabet`] — DNA / RNA / protein alphabets and residue encoding,
//! * [`seq`] — the owned [`Sequence`] record type and borrowed views,
//! * [`fasta`] — a streaming FASTA reader/writer (\[17\] in the paper),
//! * [`sqb`] — the paper's custom *binary database format* with an index
//!   allowing random access to any sequence (paper §IV, last paragraphs);
//!   version 3 stores the records in length order, their residues as the
//!   32-lane streams the inter-sequence kernel scores in place, and
//!   [`SqbImage`] is the checked view the search runs on,
//! * [`lanes`] — that lane layout: how a run of sequences is dealt out to
//!   the lanes of one stream, shared by the writer and the kernels,
//! * [`matrix`] — substitution matrices (BLOSUM / PAM families plus simple
//!   match/mismatch scoring as in the paper's Figure 1 example),
//! * [`stats`] — residue-composition and sequence-length statistics.
//!
//! Everything downstream (`swdual-align`, `swdual-gpusim`, the runtime)
//! consumes sequences already *encoded* as small integers so that
//! substitution-matrix lookups are simple array indexing in the hot loops.

#![forbid(unsafe_code)]

pub mod alphabet;
pub mod error;
pub mod fasta;
pub mod karlin;
pub mod lanes;
pub mod matrix;
pub mod seq;
pub mod sqb;
pub mod stats;

pub use alphabet::Alphabet;
pub use error::BioError;
pub use matrix::{Matrix, ScoringScheme};
pub use seq::{Sequence, SequenceSet};
pub use sqb::SqbImage;
