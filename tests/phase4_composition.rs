//! Phase 4 never re-matches a grown regex set: it composes the set's
//! evaluation from its members' single-regex evaluations. On every
//! learnable suffix, each NC `build_sets` forms must evaluate exactly as
//! a fresh `eval_nc` does — metrics, per-host extractions and outcomes,
//! and which member matched.

use hoiho::eval::eval_nc;
use hoiho::pipeline::MIN_TAGGED;
use hoiho::sets::build_sets;
use hoiho::train::build_training_sets;
use hoiho::{EvalContext, Hoiho, NamingConvention};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::ConsistencyPolicy;

/// Check every NC phase 4 forms on `corpus`; returns (NCs checked,
/// NCs with more than one regex).
fn check_corpus(db: &GeoDb, psl: &PublicSuffixList, corpus: &Corpus) -> (usize, usize) {
    let hoiho = Hoiho::new(db, psl);
    let policy = ConsistencyPolicy::STRICT;
    let sets = build_training_sets(db, psl, corpus, &policy);
    let table = BestCaseTable::new(&corpus.vps, &policy, db.coords(), &[]);
    let (mut checked, mut grown) = (0, 0);
    for set in sets.iter().filter(|s| s.tagged() >= MIN_TAGGED) {
        let ctx = EvalContext::new(db, &set.suffix, &set.hosts, &table);
        let ranked = hoiho.rank_candidates(&ctx);
        for (members, composed) in build_sets(&ctx, &ranked) {
            let nc = NamingConvention {
                suffix: set.suffix.clone(),
                regexes: members.iter().map(|&i| ranked[i].0.clone()).collect(),
            };
            let fresh = eval_nc(&ctx, &nc, None);
            assert_eq!(composed.metrics, fresh.metrics, "{nc}");
            assert_eq!(composed.per_host, fresh.per_host, "{nc}");
            checked += 1;
            if nc.regexes.len() > 1 {
                grown += 1;
            }
        }
    }
    (checked, grown)
}

#[test]
fn composed_sets_equal_fresh_evaluation_on_gt_suite() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let (checked, _) = check_corpus(&db, &psl, &hoiho_bench::gt::corpus(&db).corpus);
    assert!(checked > 0);
}

/// The ground-truth operators each keep one convention, so their sets
/// never grow; a seeded ITDK-shaped corpus has operators whose
/// hostnames need two regexes.
#[test]
fn composed_sets_equal_fresh_evaluation_on_grown_sets() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(
        &db,
        &CorpusSpec {
            seed: 7,
            ..CorpusSpec::ipv4_aug2020(20_000)
        },
    );
    let (checked, grown) = check_corpus(&db, &psl, &g.corpus);
    assert!(
        grown > 0,
        "no multi-regex set formed ({checked} NCs checked)"
    );
}
