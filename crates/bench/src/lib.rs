//! # swdual-bench — benchmark harness and paper-reproduction driver
//!
//! * [`paper`] — the reference numbers transcribed from the paper's
//!   Tables I–V (what we compare against).
//! * [`tables`] — regenerates every evaluation table and figure of the
//!   paper on the calibrated virtual-time platform model.
//! * [`execute`] — reduced-scale *real* execution: the master-slave
//!   runtime with real kernels on a synthetic database, checking score
//!   agreement across engines and reporting real GCUPS.
//! * [`ablation`] — ablation studies for the design choices: greedy vs
//!   DP knapsack, allocation-policy comparison, binary-search iteration
//!   count.
//! * [`render`] — plain-text and Markdown rendering of result rows.
//! * [`ledger`] — the timing loop and `BENCH_*.json` / trend-ledger
//!   writers shared by the benches.
//!
//! The `repro` binary exposes all of it:
//! `cargo run --release -p swdual-bench --bin repro -- all`.

pub mod ablation;
pub mod execute;
pub mod ledger;
pub mod paper;
pub mod render;
pub mod tables;
