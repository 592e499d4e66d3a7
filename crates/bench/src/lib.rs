//! # swdual-bench — the paper's tables and the ledger benches
//!
//! * [`paper`] — the paper's workloads, the rate curves fitted to its
//!   machine, and the numbers its Tables I–V report.
//! * [`tables`] — Tables I–V, the §VI conclusion and ablations A1–A4
//!   recomputed in virtual time and rendered as the block of
//!   EXPERIMENTS.md that `tests/paper_tables.rs` checks byte for byte.
//! * [`ledger`] — the timing loop and `BENCH_*.json` / trend-ledger
//!   writers shared by the benches under `benches/`.

#![forbid(unsafe_code)]

pub mod ledger;
pub mod paper;
pub mod tables;
