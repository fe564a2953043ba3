//! Counters are part of a learn's output: the same corpus must produce
//! the same counter values whatever the thread count and however often
//! it is learned. This binary owns the process-wide registry, so no
//! other test's counting can leak into the comparison.

use hoiho::{Hoiho, HoihoOptions};
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
    let counters = |threads: usize| -> BTreeMap<String, u64> {
        obs.reset();
        let opts = HoihoOptions {
            threads,
            ..Default::default()
        };
        Hoiho::with_options(&db, &psl, opts).learn_corpus(&g.corpus);
        obs.snapshot().counters
    };
    let first = counters(1);
    assert!(
        first.get("eval.evaluations").is_some_and(|&n| n > 0),
        "learning counted nothing: {first:?}"
    );
    for (label, run) in [("8 threads", counters(8)), ("1 thread again", counters(1))] {
        assert_eq!(run, first, "{label}");
    }
}
