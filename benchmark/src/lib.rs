//! The SWDUAL benchmark: five seeded workloads through the public path
//! *SQB/FASTA file -> `SearchBuilder` -> rendered hits*, measured from
//! outside the program. See `README.md`.

pub mod compare;
pub mod gate;
pub mod layers;
pub mod measure;
pub mod report;
pub mod trace;
pub mod workloads;
