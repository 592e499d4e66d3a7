//! Dispatch and exactness per backend: `SWDUAL_KERNEL_BACKEND` picks the
//! backend every kernel call dispatches to, and on every backend this
//! host runs, the tier ladder, the inter-sequence byte kernel and the
//! transposed run path score the shapes of the `kernels` bench — its
//! smoke and timed shapes and its sweep's longest queries — exactly as
//! scalar Gotoh does.

use rand::prelude::*;
use std::process::Command;
use swdual_align::dispatch::{Backend, QueryProfiles};
use swdual_align::scalar::gotoh_score;
use swdual_align::tiered::{
    score_database_with, score_run_with, tiered_score, ByteShape, Subjects, TierStats,
};
use swdual_align::Scratch;
use swdual_bio::ScoringScheme;
use swdual_datagen::{synthetic_database, LengthModel};

/// Set only in the child processes of the test below: the name
/// [`Backend::active`] must return there.
const EXPECT: &str = "SWDUAL_EXPECT_BACKEND";

/// [`Backend::active`] resolves once per process, so each setting runs
/// this test again in a child process of its own.
#[test]
fn the_env_var_picks_the_dispatched_backend() {
    if let Ok(want) = std::env::var(EXPECT) {
        assert_eq!(Backend::active().name(), want);
        return;
    }
    let detected = Backend::available()[0];
    let forced = [Backend::Avx2, Backend::Scalar]
        .map(|b| (b.name(), if b.is_available() { b } else { detected }));
    let exe = std::env::current_exe().expect("the test binary's path");
    for (name, want) in forced.into_iter().chain([("bogus", detected)]) {
        let test = "the_env_var_picks_the_dispatched_backend";
        let child = Command::new(&exe)
            .args(["--exact", test, "--test-threads", "1"])
            .env("SWDUAL_KERNEL_BACKEND", name)
            .env(EXPECT, want.name())
            .output()
            .expect("the test binary runs");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains(&format!("test {test} ... ok")),
            "SWDUAL_KERNEL_BACKEND={name} must dispatch {want}:\n{stdout}"
        );
    }
}

fn random_protein(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0u8..20)).collect()
}

#[test]
fn every_backend_scores_the_bench_shapes_as_gotoh() {
    let scheme = ScoringScheme::protein_default();
    let mut rng = StdRng::seed_from_u64(11);
    // The bench's smoke shape and, optimised (unoptimised it takes half
    // a minute), its timed one: `(subjects, subject length, query
    // length)`, and a run of 24 queries of 30–60 residues.
    let timed = (!cfg!(debug_assertions)).then_some((128, 300, 400));
    for (n, subject_len, query_len) in [(8, 60, 80)].into_iter().chain(timed) {
        let query = random_protein(&mut rng, query_len);
        let mut subjects: Vec<Vec<u8>> = (0..n)
            .map(|_| random_protein(&mut rng, subject_len))
            .collect();
        // One subject that saturates bytes, so the ladder climbs.
        subjects.push(query.clone());
        let run: Vec<Vec<u8>> = (0..24)
            .map(|_| {
                let len = rng.gen_range(30..61);
                random_protein(&mut rng, len)
            })
            .collect();
        let db: Subjects = subjects.iter().map(Vec::as_slice).collect();
        let want: Vec<i32> = subjects
            .iter()
            .map(|s| gotoh_score(&query, s, &scheme))
            .collect();
        let scratch = &mut Scratch::default();
        for backend in Backend::available() {
            let profiles = QueryProfiles::build_for(backend, &query, &scheme.matrix);
            let mut ladder = TierStats::default();
            let got: Vec<i32> = subjects
                .iter()
                .map(|s| tiered_score(&profiles, s, &scheme, scratch, &mut ladder))
                .collect();
            assert_eq!(got, want, "the tier ladder on {backend}");
            assert_eq!(ladder.escalated_16, 1, "{backend}: {ladder:?}");

            let mut stats = TierStats::default();
            let (got, _) = score_database_with(
                backend,
                ByteShape::InterSeq,
                &query,
                &db,
                db.whole(),
                &scheme,
                None,
                scratch,
                &mut stats,
            );
            assert_eq!(db.in_database_order(&got), want, "interseq8 on {backend}");
            assert_eq!(stats, ladder, "interseq8 on {backend} escalates alike");

            let queries: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
            let mut stats = TierStats::default();
            let (got, _) = score_run_with(
                backend,
                &queries,
                &db,
                db.whole(),
                &scheme,
                None,
                scratch,
                &mut stats,
            );
            for (q, scores) in queries.iter().zip(&got) {
                let want: Vec<i32> = subjects
                    .iter()
                    .map(|s| gotoh_score(q, s, &scheme))
                    .collect();
                assert_eq!(db.in_database_order(scores), want, "the run on {backend}");
            }
            assert_eq!(stats.subjects, (queries.len() * subjects.len()) as u64);
        }
    }
}

/// The `kernels` sweep's longest points, which its `--test` smoke skips:
/// queries of 2 000 and 5 000 residues against its 64-subject set,
/// `Auto` (which on AVX2 scores the set's one block striped) and forced
/// inter-sequence, on every backend.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "162 M cells of Gotoh and eight kernel passes: half a minute unoptimised"
)]
fn every_backend_scores_the_sweeps_long_points_as_gotoh() {
    let scheme = ScoringScheme::protein_default();
    let set = synthetic_database("sweep", 64, LengthModel::protein_database(362.0), 13);
    let db: Subjects = set.iter().map(|s| s.codes()).collect();
    let scratch = &mut Scratch::default();
    for query_len in [2000, 5000] {
        let qset = synthetic_database("q", 1, LengthModel::Fixed(query_len), 14);
        let query = qset.get(0).expect("query generated").codes();
        let want: Vec<i32> = set
            .iter()
            .map(|s| gotoh_score(query, s.codes(), &scheme))
            .collect();
        for backend in Backend::available() {
            let stats = [ByteShape::Auto, ByteShape::InterSeq].map(|shape| {
                let mut stats = TierStats::default();
                let (got, _) = score_database_with(
                    backend,
                    shape,
                    query,
                    &db,
                    db.whole(),
                    &scheme,
                    None,
                    scratch,
                    &mut stats,
                );
                let name = format!("{shape:?} on {backend} at {query_len}");
                assert_eq!(db.in_database_order(&got), want, "{name}");
                stats
            });
            assert_eq!(stats[0], stats[1], "{backend} at {query_len}: tiers");
        }
    }
}
