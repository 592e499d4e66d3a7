//! Property tests: every kernel must agree exactly with the scalar Gotoh
//! reference on arbitrary sequences and arbitrary scoring schemes.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::Range;
use swdual_align::dispatch::{Backend, QueryProfiles};
use swdual_align::engine::EngineKind;
use swdual_align::scalar::{gotoh_score, sw_linear_score};
use swdual_align::tiered::{
    score_database_with, score_run_with, tiered_score, transposes, ByteShape, Subjects, TierStats,
};
use swdual_align::Scratch;
use swdual_bio::lanes::{deal, BLOCK_RECORDS, LANES};
use swdual_bio::{Alphabet, Matrix, ScoringScheme};

/// Random protein residues (codes 0..20, the unambiguous amino acids).
fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..max_len)
}

/// Random DNA residues (codes 0..4).
fn dna_residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..max_len)
}

/// Random scoring scheme: random match/mismatch matrix and random gap
/// penalties, including degenerate (zero) penalties.
fn scheme() -> impl Strategy<Value = ScoringScheme> {
    (1i32..12, -12i32..0, 0i32..12, 0i32..6).prop_map(|(ma, mi, gs, ge)| {
        ScoringScheme::new(Matrix::match_mismatch(Alphabet::Protein, ma, mi), gs, ge)
    })
}

/// Random *biological* scheme: BLOSUM62 with random affine penalties.
fn blosum_scheme() -> impl Strategy<Value = ScoringScheme> {
    (1i32..16, 1i32..5).prop_map(|(gs, ge)| ScoringScheme::new(Matrix::blosum62().clone(), gs, ge))
}

/// Adversarial high-score schemes: match rewards spanning the byte
/// profile's bias-rejection boundary (|min| or max past 120, spread
/// past 250), so some draws force the 16-bit tier from the start while
/// others saturate bytes mid-run.
fn adversarial_scheme() -> impl Strategy<Value = ScoringScheme> {
    (60i32..160, -160i32..-60, 0i32..14, 0i32..6).prop_map(|(ma, mi, gs, ge)| {
        ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, ma, mi), gs, ge)
    })
}

/// The 16-bit tier, and the scalar kernel where it saturates, score
/// Gotoh on every backend.
fn assert_word_ladder(
    q: &[u8],
    s: &[u8],
    sch: &ScoringScheme,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let want = gotoh_score(q, s, sch);
    for backend in Backend::available() {
        let p = QueryProfiles::build_for(backend, q, &sch.matrix);
        let got = p.score16(s, sch, &mut Scratch::default());
        prop_assert_eq!(got.unwrap_or(want), want, "backend {}", backend);
    }
    Ok(())
}

/// The whole ladder from the byte tier up scores Gotoh on every backend.
fn assert_tier_ladder(
    q: &[u8],
    s: &[u8],
    sch: &ScoringScheme,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let want = gotoh_score(q, s, sch);
    for backend in Backend::available() {
        let p = QueryProfiles::build_for(backend, q, &sch.matrix);
        let stats = &mut TierStats::default();
        let got = tiered_score(&p, s, sch, &mut Scratch::default(), stats);
        prop_assert_eq!(got, want, "backend {}", backend);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn striped_agrees_with_scalar(q in residues(120), s in residues(160), sch in scheme()) {
        assert_word_ladder(&q, &s, &sch)?;
    }

    #[test]
    fn striped_agrees_on_blosum(q in residues(120), s in residues(160), sch in blosum_scheme()) {
        assert_word_ladder(&q, &s, &sch)?;
    }

    #[test]
    fn interseq_agrees_with_scalar(
        q in residues(80),
        subjects in prop::collection::vec(residues(120), 0..8),
        sch in scheme(),
    ) {
        let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
        for backend in Backend::available() {
            let (got, _) = score_database_with(
                backend,
                ByteShape::InterSeq,
                &q,
                &db,
                db.whole(),
                &sch,
                None,
                &mut Scratch::default(),
                &mut TierStats::default(),
            );
            let got = db.in_database_order(&got);
            for (l, s) in subjects.iter().enumerate() {
                prop_assert_eq!(got[l], gotoh_score(&q, s, &sch), "{} lane {}", backend, l);
            }
        }
    }

    #[test]
    fn all_engines_agree(q in residues(60), s in residues(90), sch in blosum_scheme()) {
        let expected = gotoh_score(&q, &s, &sch);
        for kind in EngineKind::ALL {
            let engine = kind.build();
            prop_assert_eq!(engine.score(&q, &s, &sch), expected, "engine {}", kind);
        }
    }

    #[test]
    fn byte_kernel_pipeline_agrees_with_scalar(
        q in residues(100),
        s in residues(140),
        sch in scheme(),
    ) {
        assert_tier_ladder(&q, &s, &sch)?;
    }

    #[test]
    fn byte_kernel_on_blosum(q in residues(100), s in residues(140), sch in blosum_scheme()) {
        assert_tier_ladder(&q, &s, &sch)?;
    }

    #[test]
    fn linear_gap_equals_gotoh_with_zero_open(
        q in residues(90),
        s in residues(90),
        gap in 0i32..8,
        ma in 1i32..8,
        mi in -8i32..0,
    ) {
        let m = Matrix::match_mismatch(Alphabet::Protein, ma, mi);
        let sch = ScoringScheme::new(m.clone(), 0, gap);
        prop_assert_eq!(
            sw_linear_score(&q, &s, &m, gap),
            gotoh_score(&q, &s, &sch)
        );
    }

    #[test]
    fn score_invariants(q in residues(60), s in residues(60), sch in blosum_scheme()) {
        let score = gotoh_score(&q, &s, &sch);
        // Local scores are non-negative.
        prop_assert!(score >= 0);
        // Symmetry (BLOSUM62 is symmetric).
        prop_assert_eq!(score, gotoh_score(&s, &q, &sch));
        // Self-comparison upper-bounds cross-comparison scores
        // (q vs q contains the perfect diagonal).
        let self_q = gotoh_score(&q, &q, &sch);
        prop_assert!(self_q >= score);
    }

    #[test]
    fn appending_residues_never_decreases_score(
        q in residues(40),
        s in residues(40),
        extra in residues(10),
        sch in blosum_scheme(),
    ) {
        // Local alignment over a superstring can only be at least as good.
        let base = gotoh_score(&q, &s, &sch);
        let mut s_ext = s.clone();
        s_ext.extend_from_slice(&extra);
        prop_assert!(gotoh_score(&q, &s_ext, &sch) >= base);
    }

    // ---- dispatched-backend bit-exactness -------------------------------
    //
    // Every SIMD backend reachable on this host must return results that
    // are bit-identical to the scalar lane-array oracle on BOTH kernel
    // tiers, including the `None` saturation signal — an AVX2 build that
    // escalates on different subjects than the scalar build would make
    // results host-dependent.

    #[test]
    fn backends_bit_exact_on_protein(
        q in residues(120),
        s in residues(160),
        sch in scheme(),
    ) {
        let scratch = &mut Scratch::default();
        let oracle = QueryProfiles::build_for(Backend::Scalar, &q, &sch.matrix);
        let want8 = oracle.score8(&s, &sch, scratch);
        let want16 = oracle.score16(&s, &sch, scratch);
        // The oracle's word tier itself must match the Gotoh reference
        // whenever it does not saturate.
        if let Some(w) = want16 {
            prop_assert_eq!(w, gotoh_score(&q, &s, &sch));
        }
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            prop_assert_eq!(p.score8(&s, &sch, scratch), want8, "byte tier, backend {}", backend);
            prop_assert_eq!(p.score16(&s, &sch, scratch), want16, "word tier, backend {}", backend);
        }
    }

    #[test]
    fn backends_bit_exact_on_blosum(
        q in residues(120),
        s in residues(160),
        sch in blosum_scheme(),
    ) {
        let scratch = &mut Scratch::default();
        let oracle = QueryProfiles::build_for(Backend::Scalar, &q, &sch.matrix);
        let want8 = oracle.score8(&s, &sch, scratch);
        let want16 = oracle.score16(&s, &sch, scratch);
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            prop_assert_eq!(p.score8(&s, &sch, scratch), want8, "byte tier, backend {}", backend);
            prop_assert_eq!(p.score16(&s, &sch, scratch), want16, "word tier, backend {}", backend);
        }
    }

    #[test]
    fn backends_bit_exact_on_adversarial_dna(
        q in dna_residues(100),
        s in dna_residues(140),
        sch in adversarial_scheme(),
    ) {
        // High-magnitude scores: byte profiles are often rejected
        // outright and 16-bit saturation is reachable; the saturation
        // *signal* must also agree across backends.
        let scratch = &mut Scratch::default();
        let oracle = QueryProfiles::build_for(Backend::Scalar, &q, &sch.matrix);
        let want8 = oracle.score8(&s, &sch, scratch);
        let want16 = oracle.score16(&s, &sch, scratch);
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            prop_assert_eq!(p.score8(&s, &sch, scratch), want8, "byte tier, backend {}", backend);
            prop_assert_eq!(p.score16(&s, &sch, scratch), want16, "word tier, backend {}", backend);
        }
    }

    #[test]
    fn tiered_pipeline_exact_on_every_backend(
        q in residues(90),
        subjects in prop::collection::vec(residues(120), 0..6),
        sch in blosum_scheme(),
    ) {
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            let mut stats = TierStats::default();
            for s in &subjects {
                prop_assert_eq!(
                    tiered_score(&p, s, &sch, &mut Scratch::default(), &mut stats),
                    gotoh_score(&q, s, &sch),
                    "backend {}", backend
                );
            }
            prop_assert_eq!(stats.subjects, subjects.len() as u64);
            prop_assert_eq!(
                stats.byte_resolved + stats.escalated_16 + stats.escalated_scalar,
                stats.subjects
            );
        }
    }
}

// ---- database-level scoring: `score_database` -------------------------
//
// The one entry point the workers and the simulated device score a
// database through must return the Gotoh score of every subject *and*
// resolve each in the tier the per-subject striped ladder would have —
// whichever shape the byte tier runs, whichever source its stream comes
// from, on every backend. Escalation counts are journaled and
// benchmark-gated, so "same scores" is not enough.

/// Residues over the whole protein alphabet: ambiguity codes and `*`
/// (code `size − 1`) included.
fn any_residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..24, 0..max_len)
}

/// 0…70 subjects — none, one lane, fewer than the lanes and several
/// refills of each on every backend — of wildly uneven lengths: a
/// quarter empty, a quarter a few residues, the rest up to 60 or,
/// repeated, 240. (Sizes are kept small: tier-1 runs these
/// unoptimised.)
fn uneven_subjects() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let subject = (0u8..8, any_residues(60)).prop_map(|(kind, s)| match kind {
        0 | 1 => Vec::new(),
        2 | 3 => s[..s.len().min(5)].to_vec(),
        4 => s.repeat(4),
        _ => s,
    });
    prop::collection::vec(subject, 0..71)
}

/// What the per-subject striped ladder returns and counts.
fn striped_ladder(
    backend: Backend,
    q: &[u8],
    subjects: &[Vec<u8>],
    sch: &ScoringScheme,
) -> (Vec<i32>, TierStats) {
    let p = QueryProfiles::build_for(backend, q, &sch.matrix);
    let mut stats = TierStats::default();
    let scratch = &mut Scratch::default();
    let scores = subjects
        .iter()
        .map(|s| tiered_score(&p, s, sch, scratch, &mut stats))
        .collect();
    (scores, stats)
}

/// Every backend × every byte-tier shape against Gotoh and the
/// per-subject ladder, on the whole database and cut in two at 40 % of
/// its residues — anywhere, which splits a block, and on a block
/// boundary, which a search's cuts keep to.
fn assert_database_exact(
    q: &[u8],
    subjects: &[Vec<u8>],
    sch: &ScoringScheme,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let want: Vec<i32> = subjects.iter().map(|s| gotoh_score(q, s, sch)).collect();
    let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
    let cuts = [db.cut_at(0.4, 1), db.cut_at(0.4, BLOCK_RECORDS)];
    // One scratch across every call: leftovers of one block, shape or
    // lane width must never leak into the next.
    let scratch = &mut Scratch::default();
    for backend in Backend::available() {
        let (ladder, ladder_stats) = striped_ladder(backend, q, subjects, sch);
        prop_assert_eq!(&ladder, &want, "striped ladder on {}", backend);
        for shape in [ByteShape::Auto, ByteShape::Striped, ByteShape::InterSeq] {
            let mut score = |slice: Range<usize>, stats: &mut TierStats| {
                score_database_with(backend, shape, q, &db, slice, sch, None, scratch, stats).0
            };
            let mut stats = TierStats::default();
            let whole = score(db.whole(), &mut stats);
            prop_assert_eq!(
                &db.in_database_order(&whole),
                &want,
                "{:?} on {}",
                shape,
                backend
            );
            prop_assert_eq!(stats, ladder_stats, "tiers of {:?} on {}", shape, backend);
            // Cut anywhere, the slices score and resolve as the whole.
            for cut in cuts {
                let mut stats = TierStats::default();
                let mut sliced = score(0..cut, &mut stats);
                sliced.extend(score(cut..db.len(), &mut stats));
                prop_assert_eq!(
                    &sliced,
                    &whole,
                    "{:?} on {}, cut at {}",
                    shape,
                    backend,
                    cut
                );
                prop_assert_eq!(
                    stats,
                    ladder_stats,
                    "sliced tiers of {:?} on {}",
                    shape,
                    backend
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn score_database_exact_on_blosum(
        q in any_residues(90),
        subjects in uneven_subjects(),
        sch in blosum_scheme(),
    ) {
        assert_database_exact(&q, &subjects, &sch)?;
    }

    #[test]
    fn score_database_exact_on_arbitrary_schemes(
        q in residues(90),
        subjects in uneven_subjects(),
        sch in scheme(),
    ) {
        assert_database_exact(&q, &subjects, &sch)?;
    }

    #[test]
    fn score_database_exact_when_bytes_saturate(
        q in dna_residues(60),
        subjects in prop::collection::vec(dna_residues(80), 0..40),
        sch in adversarial_scheme(),
    ) {
        // Rewards of 60–160: many matrices cannot be biased into a byte
        // at all (the inter-sequence tier must stand aside), the rest
        // saturate within a few matches.
        assert_database_exact(&q, &subjects, &sch)?;
    }

    #[test]
    fn score_database_exact_over_several_blocks(
        q in residues(40),
        subjects in prop::collection::vec(any_residues(30), 129..300),
        sch in blosum_scheme(),
    ) {
        // Two or three blocks: the cuts fall on a block boundary and
        // inside a block.
        assert_database_exact(&q, &subjects, &sch)?;
    }
}

/// Gap penalties over the whole range a scheme accepts, weighted
/// towards where the kernels clamp them (the byte tiers at 255, the
/// 16-bit tiers at 16 384), where the old 16-bit cast wrapped
/// (32 767, 65 536) and where `Gs + Ge` leaves `i32`.
fn any_penalty() -> impl Strategy<Value = i32> {
    // `(first, width)` of each band; a draw picks a band, then a point.
    const BANDS: [(i32, u32); 7] = [
        (0, 16),
        (250, 10),
        (16_380, 10),
        (32_760, 20),
        (65_530, 30),
        (i32::MAX - 4, 5),
        (0, i32::MAX as u32),
    ];
    (0..BANDS.len(), any::<u32>()).prop_map(|(band, x)| {
        let (first, width) = BANDS[band];
        first + (x % width) as i32
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tiers_exact_over_the_whole_penalty_range(
        motif in dna_residues(40),
        repeats in 1usize..7,
        cuts in prop::collection::vec((0usize..240, 0usize..240), 0..12),
        rewards in (3i32..160, -160i32..0),
        gs in any_penalty(),
        ge in any_penalty(),
    ) {
        // Subjects are stretches of the query: exact matches up to 240
        // residues long saturate the byte tier, and at high rewards or
        // clamped penalties the 16-bit one too.
        let q = motif.repeat(repeats);
        let at = |k: usize| k.min(q.len());
        let subjects: Vec<Vec<u8>> = cuts
            .iter()
            .map(|&(a, b)| q[at(a.min(b))..at(a.max(b))].to_vec())
            .collect();
        let matrix = Matrix::match_mismatch(Alphabet::Dna, rewards.0, rewards.1);
        assert_database_exact(&q, &subjects, &ScoringScheme::new(matrix, gs, ge))?;
    }
}

#[test]
fn clamped_gap_penalties_score_as_gotoh() {
    // W30 A5 W30 against W60: the best alignment spans the five A's with
    // a gap only while the gap costs less than 11 W's would add.
    let sch = |gs| ScoringScheme::new(Matrix::blosum62().clone(), gs, 2);
    let w = |n| vec![Alphabet::Protein.encode(b"W").unwrap()[0]; n];
    let q = [w(30), Alphabet::Protein.encode(b"AAAAA").unwrap(), w(30)].concat();
    let subjects = [w(60)];
    for gs in [100, 65_546, 1_000_000, i32::MAX] {
        assert_eq!(gotoh_score(&q, &subjects[0], &sch(gs)), 590, "Gs = {gs}");
        assert_database_exact(&q, &subjects, &sch(gs)).unwrap();
    }
    let huge = ScoringScheme::new(Matrix::blosum62().clone(), i32::MAX, i32::MAX);
    assert_eq!(huge.gap_first(), i32::MAX);
    assert_eq!(gotoh_score(&q, &subjects[0], &huge), 590);
    assert_database_exact(&q, &subjects, &huge).unwrap();
    // Past the 16-bit clamp (16 384) a gap at the clamped price would
    // join two runs of 120 matches (2 × 18 000 − 16 392): a best score
    // that high must escalate. Mismatches cost too much to cross.
    let dna = ScoringScheme::new(
        Matrix::match_mismatch(Alphabet::Dna, 150, -20_000),
        1_000_000,
        2,
    );
    let q = [vec![0u8; 120], vec![1; 5], vec![0; 120]].concat();
    let subjects = [vec![0u8; 240]];
    assert_eq!(gotoh_score(&q, &subjects[0], &dna), 18_000);
    assert_database_exact(&q, &subjects, &dna).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partial_blocks_exact_on_a_slice_that_starts_mid_order(
        q in residues(60),
        subjects in uneven_subjects(),
        bounds in (0usize..71, 0usize..71),
        sch in blosum_scheme(),
    ) {
        let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
        let (a, b) = (bounds.0.min(db.len()), bounds.1.min(db.len()));
        let slice = a.min(b)..a.max(b);
        let in_slice: Vec<Vec<u8>> = slice.clone().map(|p| db.residues(p)).collect();
        let want: Vec<i32> = in_slice.iter().map(|s| gotoh_score(&q, s, &sch)).collect();
        for backend in Backend::available() {
            let (_, ladder_stats) = striped_ladder(backend, &q, &in_slice, &sch);
            let mut stats = TierStats::default();
            let (got, _) = score_database_with(
                backend,
                ByteShape::InterSeq,
                &q,
                &db,
                slice.clone(),
                &sch,
                None,
                &mut Scratch::default(),
                &mut stats,
            );
            prop_assert_eq!(&got, &want, "{} {:?}", backend, slice);
            prop_assert_eq!(stats, ladder_stats, "tiers on {}", backend);
        }
    }
}

#[test]
fn refills_land_on_block_edges() {
    // Every lane but the first refills at column 256, and the
    // 600-residue head runs on past two more such refills; a third of
    // the subjects score exactly at the byte limit (+5/−5: 49 matches =
    // 245) and must escalate.
    let sch = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Protein, 5, -5), 10, 2);
    let q = vec![2u8; 60];
    let mut subjects = vec![vec![3u8; 600]];
    for n in 0..70usize {
        let mut s = vec![(n % 20) as u8; 256];
        if n % 3 == 0 {
            s[100..149].fill(2);
        }
        subjects.push(s);
    }
    subjects.extend((0..40).map(|n| vec![2u8; n]));
    assert_database_exact(&q, &subjects, &sch).unwrap();
    let (_, stats) = striped_ladder(Backend::active(), &q, &subjects, &sch);
    assert!(stats.escalated_16 >= 24, "{stats:?}");
}

/// Subjects at the edges of the inter-sequence kernel's four-column
/// groups (a lane takes its next subject only on a multiple of four
/// columns, pad until then), around the 12-residue `q`: lengths ≡ 0, 1,
/// 2 and 3 (mod 4); `q` as the last residues of subjects of each
/// residue class, so the maximum falls in the last residue and pad
/// columns follow; perfect matches of `q` (12 ≡ 0) handing their lanes,
/// on a group boundary, to weak subjects that only score as Gotoh does
/// if they start clean; and empty subjects.
fn group_edge_subjects(q: &[u8]) -> Vec<Vec<u8>> {
    let g = |n| vec![7u8; n];
    let mut subjects: Vec<Vec<u8>> = (0..5).map(|i| g(200 + 13 * i)).collect();
    for len in 20..24 {
        let mut s = q.repeat(2);
        s.rotate_left(len % q.len());
        s.truncate(len);
        subjects.push(s);
    }
    subjects.extend((1..5).map(|k| [g(k), q.to_vec()].concat()));
    for _ in 0..20 {
        subjects.push(q.to_vec());
        subjects.push(q[q.len() - 2..].to_vec());
    }
    subjects.extend([vec![], vec![], vec![]]);
    subjects
}

#[test]
fn column_groups_lose_nothing_at_their_edges() {
    let sch = ScoringScheme::protein_default();
    let q = Alphabet::Protein.encode(b"MKWVTFISLLWC").unwrap();
    let subjects = group_edge_subjects(&q);
    // Every backend and shape.
    assert_database_exact(&q, &subjects, &sch).unwrap();
    // Transposed: the same sequences as a run's queries, the stream.
    assert_run_exact(&subjects, &[q.clone(), q[..5].to_vec()], &sch).unwrap();
    for s in &subjects {
        assert_database_exact(s, &[q.clone(), q[..5].to_vec()], &sch).unwrap();
    }
}

#[test]
fn score_database_handles_empty_query_and_empty_database() {
    let sch = ScoringScheme::protein_default();
    let subjects = vec![vec![3u8; 40], vec![], vec![7u8; 9]];
    assert_database_exact(&[], &subjects, &sch).unwrap();
    assert_database_exact(&[3u8; 20], &[], &sch).unwrap();
    assert_database_exact(&[3u8; 20], &[vec![], vec![]], &sch).unwrap();
}

#[test]
fn score_database_exact_on_long_queries() {
    // Queries up to 5 000 residues (one of 300 unoptimised) against a
    // database whose head block, long outliers among ordinary subjects,
    // `Auto` scores striped while the next stays inter-sequence, with a
    // planted homolog that escalates to 16 bits.
    let sch = ScoringScheme::protein_default();
    let mut rng = StdRng::seed_from_u64(21);
    let mut random = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..20)).collect() };
    let (lens, background, head): (&[usize], usize, usize) = if cfg!(debug_assertions) {
        (&[300], 256, 600)
    } else {
        (&[500, 1024, 2000, 5000], 300, 2500)
    };
    for &len in lens {
        let q = random(len);
        let mut subjects: Vec<Vec<u8>> = (0..background).map(|n| random(20 + n % 41)).collect();
        let mut homolog = q[len / 2..len / 2 + 80].to_vec();
        for r in homolog.iter_mut().step_by(10) {
            *r = (*r + 1) % 20;
        }
        subjects.push(homolog);
        subjects.push(vec![]);
        subjects.push(random(head));
        let db: Subjects = subjects.iter().map(Vec::as_slice).collect();
        for backend in Backend::available() {
            let min_fill = backend.interseq_min_fill(len);
            assert!(
                backend.slice_fill(&db, 0..BLOCK_RECORDS) < min_fill,
                "{backend}: head block striped"
            );
            assert!(
                backend.slice_fill(&db, BLOCK_RECORDS..2 * BLOCK_RECORDS) >= min_fill,
                "{backend}: next block inter-sequence"
            );
        }
        let (_, stats) = striped_ladder(Backend::active(), &q, &subjects, &sch);
        assert_eq!((stats.escalated_16, stats.escalated_scalar), (1, 0));
        assert_database_exact(&q, &subjects, &sch).unwrap();
    }
}

/// A run of `mid` identical residues scores past a byte but inside 16
/// bits, a run of `long` past 16 bits. Among 34 ordinary subjects
/// exactly those two must escalate, to exactly those tiers, and no
/// lane beside them — under every shape on every backend.
fn assert_saturating_lanes_escalate_alone(
    sch: &ScoringScheme,
    residue: u8,
    mid: usize,
    long: usize,
) {
    let q = vec![residue; long];
    let mut subjects: Vec<Vec<u8>> = (0..34usize)
        .map(|n| (0..10 + 2 * n).map(|i| ((i * 11 + n) % 17) as u8).collect())
        .collect();
    subjects.insert(13, vec![residue; mid]);
    subjects.insert(30, vec![residue; long]);
    assert_database_exact(&q, &subjects, sch).unwrap();
    let (scores, stats) = striped_ladder(Backend::active(), &q, &subjects, sch);
    let per_match = sch.matrix.score(residue, residue) as usize;
    assert_eq!(scores[13] as usize, mid * per_match);
    assert_eq!(scores[30] as usize, long * per_match);
    assert_eq!(
        (
            stats.byte_resolved,
            stats.escalated_16,
            stats.escalated_scalar
        ),
        (34, 1, 1)
    );
}

#[test]
fn saturating_lanes_escalate_alone() {
    // +100 per match: 30 matches = 3 000, 340 = 34 000 > i16::MAX.
    let sch = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Protein, 100, -4), 10, 2);
    assert_saturating_lanes_escalate_alone(&sch, 17, 30, 340);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "3100 × 3100 cells per tier, backend and shape: a minute unoptimised"
)]
fn w400_and_w3100_escalate_alone_on_blosum() {
    // BLOSUM62 W–W = 11: 400 W = 4 400, 3 100 W = 34 100 > i16::MAX.
    let w = Alphabet::Protein.encode_byte(b'W').unwrap();
    assert_saturating_lanes_escalate_alone(&ScoringScheme::protein_default(), w, 400, 3100);
}

#[test]
fn unbiasable_matrix_takes_the_sixteen_bit_path() {
    // |min| > 120 cannot be biased into a byte: no inter-sequence
    // tables, no byte profile, every subject starts at 16 bits — under
    // every shape, without panicking. (An alphabet of more than 31
    // letters is refused by the same `Tables::build` check, but no
    // `Alphabet` that large exists to build a matrix over.)
    let m = Matrix::match_mismatch(Alphabet::Dna, 5, -200);
    let sch = ScoringScheme::new(m, 10, 2);
    let q: Vec<u8> = (0..40).map(|i| (i % 4) as u8).collect();
    let subjects: Vec<Vec<u8>> = (0..35)
        .map(|n| (0..n * 3).map(|i| ((i + n) % 5) as u8).collect())
        .collect();
    assert_database_exact(&q, &subjects, &sch).unwrap();
    let (_, stats) = striped_ladder(Backend::active(), &q, &subjects, &sch);
    assert_eq!(stats.byte_resolved, 0);
}

#[test]
fn a_score_exactly_at_the_limit_escalates_under_every_shape() {
    // +5/−5: bias 5, limit 255 − (5 + 5) = 245 = 49 matches. 48
    // matches resolve in bytes, 49 sit exactly on the guard and must
    // escalate — in the inter-sequence kernel as in the striped one.
    let sch = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Protein, 5, -5), 10, 2);
    let q = vec![2u8; 60];
    let subjects: Vec<Vec<u8>> = (46..53).map(|len| vec![2u8; len]).collect();
    assert_database_exact(&q, &subjects, &sch).unwrap();
    let (scores, stats) = striped_ladder(Backend::active(), &q, &subjects, &sch);
    assert_eq!(scores, [230, 235, 240, 245, 250, 255, 260]);
    assert_eq!((stats.byte_resolved, stats.escalated_16), (3, 4));
}

// ---- transposed runs ------------------------------------------------------
// A CPU worker scores a run of queries on one slice transposed: the
// queries become the stream and each subject runs down the rows. Every
// query must get exactly what its own one-query job gives it, and every
// pair must resolve in the tier the job resolves it in.

/// Every backend, the whole database and both sides of a cut at 40 % of
/// its residues: the run against one-query jobs, which the tests above
/// hold to Gotoh and the striped ladder.
fn assert_run_exact(
    queries: &[Vec<u8>],
    subjects: &[Vec<u8>],
    sch: &ScoringScheme,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let cut = db.cut_at(0.4, 1);
    // One scratch across every call, as a worker keeps one.
    let scratch = &mut Scratch::default();
    for backend in Backend::available() {
        for slice in [db.whole(), 0..cut, cut..db.len()] {
            let mut job_stats = TierStats::default();
            let jobs: Vec<Vec<i32>> = refs
                .iter()
                .map(|q| {
                    let (scores, _) = score_database_with(
                        backend,
                        ByteShape::Auto,
                        q,
                        &db,
                        slice.clone(),
                        sch,
                        None,
                        scratch,
                        &mut job_stats,
                    );
                    scores
                })
                .collect();
            let mut run_stats = TierStats::default();
            let (run, _) = score_run_with(
                backend,
                &refs,
                &db,
                slice.clone(),
                sch,
                None,
                scratch,
                &mut run_stats,
            );
            prop_assert_eq!(&run, &jobs, "run on {} over {:?}", backend, slice);
            prop_assert_eq!(run_stats, job_stats, "tiers of the run on {}", backend);
        }
    }
    Ok(())
}

/// 0–16 queries, a few of them empty.
fn run_queries(residues: impl Strategy<Value = Vec<u8>>) -> impl Strategy<Value = Vec<Vec<u8>>> {
    let query = (0u8..10, residues).prop_map(|(kind, q)| if kind == 0 { Vec::new() } else { q });
    prop::collection::vec(query, 0..16)
}

/// 0…40 subjects of uneven lengths, as [`uneven_subjects`] but fewer:
/// each is scored once per query, twice (run and jobs).
fn run_subjects() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let subject = (0u8..8, any_residues(50)).prop_map(|(kind, s)| match kind {
        0 => Vec::new(),
        1 | 2 => s[..s.len().min(5)].to_vec(),
        3 => s.repeat(3),
        _ => s,
    });
    prop::collection::vec(subject, 0..41)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_run_scores_as_one_query_jobs_on_blosum(
        queries in run_queries(any_residues(50)),
        subjects in run_subjects(),
        sch in blosum_scheme(),
    ) {
        assert_run_exact(&queries, &subjects, &sch)?;
    }

    #[test]
    fn a_run_scores_as_one_query_jobs_on_arbitrary_schemes(
        queries in run_queries(residues(50)),
        subjects in run_subjects(),
        sch in scheme(),
    ) {
        assert_run_exact(&queries, &subjects, &sch)?;
    }

    #[test]
    fn a_run_scores_as_one_query_jobs_when_bytes_saturate(
        queries in run_queries(dna_residues(60)),
        subjects in prop::collection::vec(dna_residues(80), 0..30),
        sch in adversarial_scheme(),
    ) {
        // Some matrices cannot be biased into a byte (no run is scored
        // transposed), the rest saturate within a few matches: those
        // pairs escalate through their query's striped ladder.
        assert_run_exact(&queries, &subjects, &sch)?;
    }

    #[test]
    fn a_run_under_an_asymmetric_matrix_scores_each_query_alone(
        queries in run_queries(dna_residues(40)),
        subjects in prop::collection::vec(dna_residues(60), 0..30),
        scores in prop::collection::vec(-6i32..7, 25..26),
        gaps in (0i32..10, 0i32..4),
    ) {
        let m = Matrix::from_scores("asymmetric", Alphabet::Dna, scores);
        let sch = ScoringScheme::new(m, gaps.0, gaps.1);
        prop_assert_eq!(transposes(&sch), sch.matrix.is_symmetric());
        assert_run_exact(&queries, &subjects, &sch)?;
    }
}

#[test]
fn a_run_escalates_exactly_the_pairs_its_jobs_escalate() {
    // BLOSUM62 W–W = 11 with a limit of 240: 22 W's against 22 or more
    // saturate a byte, 21 against 21 do not. Queries and subjects of 15–
    // 34 W's, among ordinary residues, put both kinds of pair in one
    // run on both sides of the limit.
    let sch = ScoringScheme::protein_default();
    let w = Alphabet::Protein.encode_byte(b'W').unwrap();
    let mixed = |n: usize| -> Vec<u8> { (0..n).map(|i| ((i * 7 + n) % 20) as u8).collect() };
    let queries: Vec<Vec<u8>> = (15..35)
        .map(|n| if n % 3 == 0 { mixed(n) } else { vec![w; n] })
        .collect();
    let subjects: Vec<Vec<u8>> = (0..40)
        .map(|n| {
            if n % 4 == 0 {
                vec![w; 10 + n]
            } else {
                mixed(20 + n)
            }
        })
        .collect();
    assert_run_exact(&queries, &subjects, &sch).unwrap();
    let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let mut stats = TierStats::default();
    let scratch = &mut Scratch::default();
    score_run_with(
        Backend::active(),
        &refs,
        &db,
        db.whole(),
        &sch,
        None,
        scratch,
        &mut stats,
    );
    assert!(
        stats.escalated_16 > 0 && stats.byte_resolved > 0,
        "{stats:?}"
    );
    assert_eq!(stats.subjects, (queries.len() * subjects.len()) as u64);

    // +5/−5: limit 245 = 49 matches. Pairs of 46–52 identical residues
    // score 5 × the shorter one, so some sit exactly on the guard and
    // must escalate in the run as in their jobs.
    let sch = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Protein, 5, -5), 10, 2);
    let queries: Vec<Vec<u8>> = (46..53).map(|len| vec![2u8; len]).collect();
    let subjects: Vec<Vec<u8>> = (40..60).map(|len| vec![2u8; len]).collect();
    assert_run_exact(&queries, &subjects, &sch).unwrap();
}

#[test]
fn a_run_down_long_subjects_hands_its_lanes_over_clean() {
    // The transposed twin of the kernel's clean-column test, with rows
    // past L1: subjects of 1 300 and 1 200 residues (81 and 75 KB of
    // `H`/`E` at 32 lanes) run down a stream of 1–60-residue queries.
    // Twelve perfect matches of pieces of the first subject are the
    // longest queries, so each starts at column 0 and hands its lane,
    // with bytes at or near the limit in every row, to a shorter query
    // that scores as Gotoh only if the lane starts clean. The last
    // hundred queries hold 1–4 residues, so lanes change hands in
    // consecutive groups; one query is empty. The second subject's
    // column-0 hand-overs read the rows the first one left behind.
    let sch = ScoringScheme::protein_default();
    let mut rng = StdRng::seed_from_u64(41);
    let mut random = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..20)).collect() };
    let subjects = vec![random(1300), random(1200)];
    let mut queries: Vec<Vec<u8>> = (0..12)
        .map(|k| subjects[0][100 * k..100 * k + 50 + k].to_vec())
        .collect();
    queries.extend((0..60).map(|n| random(5 + n % 35)));
    queries.extend((0..100).map(|n| random(1 + n % 4)));
    queries.push(vec![]);
    assert_run_exact(&queries, &subjects, &sch).unwrap();

    let db: Subjects = subjects.iter().map(|s| s.as_slice()).collect();
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let want: Vec<Vec<i32>> = refs
        .iter()
        .map(|q| {
            db.order()
                .iter()
                .map(|&i| gotoh_score(q, &subjects[i as usize], &sch))
                .collect()
        })
        .collect();
    assert!(want[..12]
        .iter()
        .all(|scores| scores.iter().max() > Some(&200)));
    for backend in Backend::available() {
        let mut stats = TierStats::default();
        let (got, _) = score_run_with(
            backend,
            &refs,
            &db,
            db.whole(),
            &sch,
            None,
            &mut Scratch::default(),
            &mut stats,
        );
        assert_eq!(got, want, "run on {backend}");
        assert!(
            stats.escalated_16 > 0 && stats.byte_resolved > 0,
            "{backend}: {stats:?}"
        );
    }
}

#[test]
fn the_run_pick_takes_runs_that_fill_better_than_their_slice() {
    for backend in Backend::available() {
        // Every stream has 32 lanes, whatever the backend reads at once.
        let lanes = LANES;
        let bound = backend.run_residues();
        assert_eq!(bound, 256 * lanes);
        // Enough 40-residue queries fill every lane; against a slice
        // that fills more, or fills fully, the head goes alone.
        let lens = vec![40; 4 * lanes];
        assert_eq!(backend.run_length(0.5, lens.clone()), lens.len());
        assert_eq!(backend.run_length(1.0, lens.clone()), 1);
        // The bound holds a block of lanes, whatever follows.
        let many = vec![40; 2 * bound / 40];
        assert_eq!(backend.run_length(0.0, many), bound / 40);
        // One short query per lane but one long one fills poorly.
        let ragged: Vec<usize> = std::iter::once(1000).chain(vec![10; lanes]).collect();
        assert_eq!(backend.run_length(0.2, ragged), 1);
        // A head alone, or longer than the bound, is its own run.
        assert_eq!(backend.run_length(0.0, [30]), 1);
        assert_eq!(backend.run_length(0.0, [bound + 1, 30]), 1);
        assert_eq!(backend.run_length(0.0, std::iter::empty()), 0);
    }
}

#[test]
fn a_slice_fill_is_its_residues_over_its_stream_cells() {
    // 200 subjects: a full block and one of 72.
    let seqs: Vec<Vec<u8>> = (0..200).map(|i| vec![1u8; 10 + i % 40]).collect();
    let db: Subjects = seqs.iter().map(Vec::as_slice).collect();
    let width = |positions: std::ops::Range<usize>| {
        let mut lengths: Vec<usize> = positions.map(|p| db.residues(p).len()).collect();
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        deal(lengths).1
    };
    let (first, second) = (width(0..128), width(128..200));
    for backend in Backend::available() {
        let fill = backend.slice_fill(&db, db.whole());
        let residues = db.residues_in(db.whole()) as f64;
        assert_eq!(fill, residues / ((first + second) * LANES) as f64);
        assert!(fill > 0.0 && fill <= 1.0, "{fill}");
        // A slice is scored from the blocks that hold it: one subject
        // of the first block counts that block's every cell.
        let one = backend.slice_fill(&db, 0..1);
        assert_eq!(one, db.residues_in(0..1) as f64 / (first * LANES) as f64);
        let tail = backend.slice_fill(&db, 128..200);
        assert_eq!(
            tail,
            db.residues_in(128..200) as f64 / (second * LANES) as f64
        );
        assert_eq!(backend.slice_fill(&db, 3..3), 0.0);
    }
}

#[test]
fn only_queries_of_the_byte_tier_join_runs() {
    let sch = ScoringScheme::protein_default();
    assert!(transposes(&sch));
    for backend in Backend::available() {
        assert!(backend.joins_runs(&[3; 40], &sch));
        assert!(backend.joins_runs(&[], &sch));
        assert!(backend.joins_runs(&[3; 5000], &sch), "at every length");
        assert!(
            !backend.joins_runs(&[3, 24], &sch),
            "code 24 is outside the alphabet"
        );
    }
    let unbiasable = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, 5, -200), 10, 2);
    assert!(!transposes(&unbiasable));
}
