//! The five seeded workloads and their input files.
//!
//! Sizes are pinned so that a workload does the same amount of work on
//! every seed: the database is drawn from `datagen`'s UniProt length
//! model until it holds a fixed number of residues, homolog queries
//! mutate sequences planted at fixed lengths, and random queries take
//! one length per equal-width stratum of their range. The seed drives
//! residue content, background lengths, mutations and the draw inside
//! each stratum, so totals move by about a percent between seeds while
//! `search_wall_s`, `modelled_makespan_s` and `peak_rss_mb` stay
//! comparable.

use rand::prelude::*;
use std::path::{Path, PathBuf};
use swdual_bio::{fasta, sqb, Alphabet, Sequence, SequenceSet};
use swdual_datagen::{mutate, LengthModel, MutationProfile, ProteinSampler};

/// Mean sequence length of the paper's UniProt database (Table III).
const MEAN_LEN: f64 = 362.0;
/// Residues of the paper's UniProt database (537 505 sequences).
const UNIPROT_RESIDUES: f64 = 537_505.0 * MEAN_LEN;

/// A geometric ladder of sequence lengths planted at the head of a
/// database, from which homolog queries are derived.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub count: usize,
    pub min_len: usize,
    pub max_len: usize,
}

impl Ladder {
    const NONE: Ladder = Ladder {
        count: 0,
        min_len: 0,
        max_len: 0,
    };

    fn lengths(self) -> impl Iterator<Item = usize> {
        let ratio = self.max_len as f64 / self.min_len.max(1) as f64;
        let steps = self.count.saturating_sub(1).max(1) as f64;
        (0..self.count)
            .map(move |i| (self.min_len as f64 * ratio.powf(i as f64 / steps)).round() as usize)
    }
}

/// Where a workload's queries come from.
#[derive(Debug, Clone, Copy)]
pub enum Queries {
    /// One ~80 %-identity homolog of every planted sequence.
    Homologs,
    /// Random residues, one length per stratum of `[min_len, max_len]`.
    Random {
        count: usize,
        min_len: usize,
        max_len: usize,
    },
}

/// One benchmark workload. `name` is the key in `BENCHMARK.json`, which
/// also records why the workload exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub cpus: usize,
    pub gpus: usize,
    /// The database is filled until it holds at least this many residues.
    pub db_residues: u64,
    pub planted: Ladder,
    pub queries: Queries,
}

const LONG_LADDER: Ladder = Ladder {
    count: 8,
    min_len: 1000,
    max_len: 5000,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cpu_long",
        cpus: 2,
        gpus: 0,
        db_residues: (UNIPROT_RESIDUES * 0.01) as u64,
        planted: LONG_LADDER,
        queries: Queries::Homologs,
    },
    // Same database parameters as `cpu_long`, so the two differ only in
    // query length.
    Workload {
        name: "cpu_short",
        cpus: 2,
        gpus: 0,
        db_residues: (UNIPROT_RESIDUES * 0.01) as u64,
        planted: LONG_LADDER,
        queries: Queries::Random {
            count: 64,
            min_len: 30,
            max_len: 120,
        },
    },
    // Sized for today's ~0.07-GCUPS simulated-device path.
    Workload {
        name: "hybrid_mixed",
        cpus: 1,
        gpus: 1,
        db_residues: (UNIPROT_RESIDUES * 0.00025) as u64,
        planted: Ladder {
            count: 16,
            min_len: 30,
            max_len: 500,
        },
        queries: Queries::Homologs,
    },
    Workload {
        name: "tiny_tasks",
        cpus: 2,
        gpus: 0,
        db_residues: 64 * MEAN_LEN as u64,
        planted: Ladder::NONE,
        queries: Queries::Random {
            count: 4096,
            min_len: 30,
            max_len: 60,
        },
    },
    Workload {
        name: "cold_file",
        cpus: 2,
        gpus: 0,
        db_residues: (UNIPROT_RESIDUES * 0.1) as u64,
        planted: Ladder::NONE,
        queries: Queries::Random {
            count: 3,
            min_len: 24,
            max_len: 32,
        },
    },
];

impl Workload {
    /// The workload `name`; with `smoke`, a copy of about 1/250 of the
    /// cells for the smoke test: a fiftieth of the database residues
    /// and random queries, a fifth of the planted lengths.
    pub fn named(name: &str, smoke: bool) -> Result<Workload, String> {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        if !smoke {
            return Ok(*workload);
        }
        let fifth = |len: usize| (len / 5).max(10);
        Ok(Workload {
            db_residues: workload.db_residues / 50,
            planted: Ladder {
                min_len: fifth(workload.planted.min_len),
                max_len: fifth(workload.planted.max_len),
                ..workload.planted
            },
            queries: match workload.queries {
                Queries::Random {
                    count,
                    min_len,
                    max_len,
                } => Queries::Random {
                    count: (count / 50).max(3),
                    min_len,
                    max_len,
                },
                Queries::Homologs => Queries::Homologs,
            },
            ..*workload
        })
    }
}

fn push(set: &mut SequenceSet, id: String, residues: Vec<u8>) {
    set.push(Sequence::from_codes(id, Alphabet::Protein, residues))
        .expect("protein alphabet");
}

/// Generate the database and query set of `workload` from `seed`.
pub fn generate(workload: &Workload, seed: u64) -> (SequenceSet, SequenceSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ProteinSampler::new();
    let lengths = LengthModel::protein_database(MEAN_LEN);

    let mut db_lens: Vec<usize> = workload.planted.lengths().collect();
    let mut residues: u64 = db_lens.iter().map(|&len| len as u64).sum();
    while residues < workload.db_residues {
        let len = lengths.sample(&mut rng);
        db_lens.push(len);
        residues += len as u64;
    }
    let mut database = SequenceSet::new(Alphabet::Protein);
    for (i, len) in db_lens.into_iter().enumerate() {
        push(
            &mut database,
            format!("db_{i}"),
            sampler.sample_sequence(len, &mut rng),
        );
    }

    let mut queries = SequenceSet::new(Alphabet::Protein);
    match workload.queries {
        Queries::Homologs => {
            for i in 0..workload.planted.count {
                let source = database.get(i).expect("planted sequence").codes();
                let homolog = mutate(source, &MutationProfile::homolog(), &mut rng);
                push(&mut queries, format!("query_{i}"), homolog);
            }
        }
        Queries::Random {
            count,
            min_len,
            max_len,
        } => {
            let span = (max_len - min_len + 1) as f64;
            for i in 0..count {
                let offset = (i as f64 + rng.gen::<f64>()) * span / count as f64;
                let len = min_len + offset as usize;
                push(
                    &mut queries,
                    format!("query_{i}"),
                    sampler.sample_sequence(len, &mut rng),
                );
            }
        }
    }
    (database, queries)
}

/// The input files of one run: what the program under test receives.
#[derive(Debug, Clone)]
pub struct Files {
    pub database: PathBuf,
    pub queries: PathBuf,
}

impl Files {
    pub fn in_dir(dir: &Path) -> Files {
        Files {
            database: dir.join("db.sqb"),
            queries: dir.join("queries.fasta"),
        }
    }
}

/// Generate `workload`'s inputs and write them into `dir`.
pub fn write_inputs(workload: &Workload, seed: u64, dir: &Path) -> Result<Files, String> {
    let (database, queries) = generate(workload, seed);
    let files = Files::in_dir(dir);
    sqb::write_file(&database, &files.database).map_err(|e| format!("write database: {e}"))?;
    fasta::write_file(&queries, &files.queries).map_err(|e| format!("write queries: {e}"))?;
    Ok(files)
}
