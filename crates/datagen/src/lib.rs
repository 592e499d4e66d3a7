//! # swdual-datagen — synthetic genomic databases and query sets
//!
//! The paper searches five public protein databases (UniProt, Ensembl
//! Dog/Rat, RefSeq Human/Mouse — Table III) with query sets drawn from
//! them. Those exact snapshots are not redistributable or fetchable
//! here, so this crate generates **synthetic equivalents**: databases
//! with the same sequence counts and realistic length distributions
//! (gamma-shaped, as protein length distributions are), residues drawn
//! from the Robinson–Robinson amino-acid background frequencies, and
//! query sets matching each experiment's length ranges (§V: 100–5000;
//! §V-C: homogeneous 4500–5000 and heterogeneous 4–35213).
//!
//! Everything is seeded and deterministic. For end-to-end searches that
//! must find biologically-plausible hits, [`mutate`] derives queries
//! from database sequences with point substitutions and indels — the
//! paper likewise took its queries from the database.

#![forbid(unsafe_code)]

pub mod generator;
pub mod queries;

pub use generator::{scaled_database, synthetic_database, LengthModel, ProteinSampler};
pub use queries::{mutate, queries_from_database, random_queries, MutationProfile};
