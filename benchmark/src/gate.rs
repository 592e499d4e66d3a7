//! The correctness gate: a hit list is accepted only if it agrees with
//! the scalar Gotoh oracle.
//!
//! It runs once per setup on the warm-up search's hits; every timed
//! search must then return exactly those hits, so each one passes or
//! fails the same gate.

use rand::prelude::*;
use swdual_align::gotoh_score;
use swdual_bio::{ScoringScheme, SequenceSet};
use swdual_runtime::{Hit, QueryHits};

/// Hits kept and rendered per query (the `SearchBuilder` default).
pub const TOP_K: usize = 10;
/// At most this many queries are oracle-checked per workload.
const MAX_QUERIES: usize = 64;
/// With more cells than this to check, subjects are sampled too.
const FULL_ORACLE_CELLS: u64 = 500_000_000;
/// Subjects checked per query, beside its hits, when sampling.
const SUBJECT_SAMPLE: usize = 16;

/// `count` distinct indices below `n` (all of them when `count >= n`).
fn sample(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    if count >= n {
        return indices;
    }
    for i in 0..count {
        let j = rng.gen_range(i..n);
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices
}

fn outranks(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.db_index < b.db_index)
}

/// Check one query's hit list against the oracle on `subjects` and on
/// the subjects it lists.
fn check_query(
    list: &QueryHits,
    query: &[u8],
    database: &SequenceSet,
    mut subjects: Vec<usize>,
    scheme: &ScoringScheme,
) -> Result<(), String> {
    if list.hits.len() != TOP_K.min(database.len()) {
        return Err(format!("{} hits listed", list.hits.len()));
    }
    if !list.hits.windows(2).all(|w| outranks(&w[0], &w[1])) {
        return Err("hits are not ranked".into());
    }
    subjects.extend(list.hits.iter().map(|h| h.db_index));
    subjects.sort_unstable();
    subjects.dedup();
    for db_index in subjects {
        let subject = database
            .get(db_index)
            .ok_or_else(|| format!("hit on missing subject {db_index}"))?;
        let oracle = Hit {
            db_index,
            score: gotoh_score(query, subject.codes(), scheme),
        };
        match list.hits.iter().find(|h| h.db_index == db_index) {
            Some(hit) if hit.score != oracle.score => {
                return Err(format!(
                    "subject {db_index} scores {} but the oracle says {}",
                    hit.score, oracle.score
                ));
            }
            Some(_) => {}
            None if list.hits.last().is_some_and(|last| outranks(&oracle, last)) => {
                return Err(format!(
                    "unlisted subject {db_index} scores {} and outranks the last hit",
                    oracle.score
                ));
            }
            None => {}
        }
    }
    Ok(())
}

/// Check `hits` against the oracle: every listed score equals
/// `gotoh_score`, every list is ranked and complete, and no checked
/// subject outside a list outranks its last hit. All subjects are
/// checked when that costs at most [`FULL_ORACLE_CELLS`], otherwise a
/// seeded sample of [`SUBJECT_SAMPLE`] per query.
pub fn check_hits(
    hits: &[QueryHits],
    database: &SequenceSet,
    queries: &SequenceSet,
    seed: u64,
) -> Result<(), String> {
    if hits.len() != queries.len()
        || hits
            .iter()
            .enumerate()
            .any(|(q, list)| list.query_index != q)
    {
        return Err(format!(
            "{} hit lists for {} queries",
            hits.len(),
            queries.len()
        ));
    }
    let scheme = ScoringScheme::protein_default();
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = queries.as_slice();
    let checked: Vec<usize> = sample(&mut rng, queries.len(), MAX_QUERIES);
    let query_residues: u64 = checked.iter().map(|&q| queries[q].len() as u64).sum();
    let full = query_residues * database.total_residues() <= FULL_ORACLE_CELLS;
    let subjects = if full { database.len() } else { SUBJECT_SAMPLE };
    let jobs: Vec<(usize, Vec<usize>)> = checked
        .into_iter()
        .map(|q| (q, sample(&mut rng, database.len(), subjects)))
        .collect();

    // The scalar oracle is the slow part of set-up: spread the queries
    // over the cores.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let worker = || -> Result<(), String> {
        loop {
            let job = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some((q, subjects)) = jobs.get(job) else {
                return Ok(());
            };
            check_query(
                &hits[*q],
                queries[*q].codes(),
                database,
                subjects.clone(),
                &scheme,
            )
            .map_err(|e| format!("query {q}: {e}"))?;
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "oracle thread panicked".to_owned())?)
    })
}
