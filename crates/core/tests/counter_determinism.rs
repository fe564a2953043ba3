//! Counters are part of a learn's output: the same corpus must produce
//! the same counter values, and the same artifact bytes, whatever the
//! thread count and however often it is learned. This binary owns the
//! process-wide registry, so no other test's counting can leak into the
//! comparison.

use hoiho::artifact::write_artifacts;
use hoiho::{Geolocator, Hoiho, HoihoOptions};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use std::collections::BTreeMap;

#[test]
fn counters_are_identical_across_thread_counts_and_runs() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(&db, &CorpusSpec::ipv4_aug2020(4000));
    let obs = hoiho_obs::global();
    obs.set_enabled(true);
    let learn = |threads: usize| -> (BTreeMap<String, u64>, String) {
        obs.reset();
        let opts = HoihoOptions {
            threads,
            ..Default::default()
        };
        let r = Hoiho::with_options(&db, &psl, opts).learn_corpus(&g.corpus);
        let artifact = write_artifacts(&Geolocator::from_report(&r), &db);
        (obs.snapshot().counters, artifact)
    };
    let (counters, artifact) = learn(1);
    assert!(
        counters.get("eval.evaluations").is_some_and(|&n| n > 0),
        "learning counted nothing: {counters:?}"
    );
    for (label, run) in [("8 threads", learn(8)), ("1 thread again", learn(1))] {
        assert_eq!(run.0, counters, "{label}: counters");
        assert!(run.1 == artifact, "{label}: artifact bytes differ");
    }
}
