//! `hoiho apply` (through `Geolocator::geolocate`) and `hoiho serve`
//! (through `LookupIndex::lookup`) share one lookup path,
//! `Geolocator::lookup`, so they answer every hostname the same way.

use hoiho::apply::GeoInference;
use hoiho::artifact::{parse_artifacts, write_artifacts};
use hoiho::{Geolocator, Hoiho, HoihoOptions};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::LookupIndex;
use std::sync::Arc;

/// The apply path as it was before the two front ends shared one:
/// lowercase without trimming, route with the allocating
/// `registerable_suffix`. Kept as the reference the one path must
/// match on well-formed hostnames.
fn reference(
    geo: &Geolocator,
    db: &GeoDb,
    psl: &PublicSuffixList,
    hostname: &str,
) -> Option<GeoInference> {
    let hostname = hostname.to_ascii_lowercase();
    let suffix = psl.registerable_suffix(&hostname)?;
    geo.suffix(&suffix)?.geolocate(db, &hostname)
}

/// Learn `corpus` at one thread and check every hostname in it through
/// both front ends and the reference; returns (hostnames, hits).
fn check_corpus(corpus: &Corpus) -> (usize, usize) {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let opts = HoihoOptions {
        threads: 1,
        ..HoihoOptions::default()
    };
    let report = Hoiho::with_options(&db, &psl, opts).learn_corpus(corpus);
    let geo = Geolocator::from_report(&report);
    let text = write_artifacts(&geo, &db);
    let index = LookupIndex::from_artifacts(Arc::clone(&db), Arc::clone(&psl), &text)
        .expect("written artifacts parse");
    let mut scratch = String::new();
    let (mut hosts, mut hits) = (0, 0);
    for h in corpus.routers.iter().flat_map(|r| r.hostnames()) {
        let applied = geo.geolocate(&db, &psl, h);
        assert_eq!(applied, index.lookup(h, &mut scratch), "{h}");
        assert_eq!(applied, reference(&geo, &db, &psl, h), "{h}");
        hosts += 1;
        hits += usize::from(applied.is_some());
    }
    (hosts, hits)
}

#[test]
fn front_ends_agree_on_the_gt_suite() {
    let db = GeoDb::builtin();
    let (hosts, hits) = check_corpus(&hoiho_bench::gt::corpus(&db).corpus);
    assert!(hits > 0 && hits < hosts, "{hits} of {hosts} resolved");
}

#[test]
fn front_ends_agree_on_an_itdk_corpus() {
    let db = GeoDb::builtin();
    let g = hoiho_itdk::generate(
        &db,
        &CorpusSpec {
            seed: 7,
            ..CorpusSpec::ipv4_aug2020(20_000)
        },
    );
    let (hosts, hits) = check_corpus(&g.corpus);
    assert!(hits > 0 && hits < hosts, "{hits} of {hosts} resolved");
}

/// Both front ends over one hand-written `gtt.net` convention.
fn gtt_front_ends() -> (Arc<GeoDb>, Arc<PublicSuffixList>, Geolocator, LookupIndex) {
    let text = "hoiho-artifacts-v1\n\
                suffix gtt.net good\n\
                regex iata ^.+\\.([a-z]{3})\\d+\\.gtt\\.net$\n";
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let geo = parse_artifacts(text, &db).expect("parse");
    let index =
        LookupIndex::from_artifacts(Arc::clone(&db), Arc::clone(&psl), text).expect("parse");
    (db, psl, geo, index)
}

/// The answer the one path gives for hostnames the two front ends used
/// to route differently: trimmed, lowercased, and routed by the
/// learner's key.
#[test]
fn edge_cases_answer_the_same_through_both_front_ends() {
    let (db, psl, geo, index) = gtt_front_ends();
    let many_labels = format!("{}lhr1.gtt.net", "a.".repeat(39));
    assert_eq!(many_labels.split('.').count(), 42);
    let huge = long_host();
    // DNS's 253-byte limit: a name at it is answered, and one byte or
    // one label more is no hostname.
    let at_limit = format!("{}lhr12.gtt.net", "a.".repeat(120));
    let byte_over = format!("a{at_limit}");
    let label_over = format!("a.{at_limit}");
    assert_eq!(
        (at_limit.len(), byte_over.len(), label_over.len()),
        (253, 254, 255)
    );
    let table: [(&str, Option<&str>); 14] = [
        // An empty label left of the suffix.
        ("x..lhr1.gtt.net", Some("London")),
        (&many_labels, Some("London")),
        (&huge, None),
        (&at_limit, Some("London")),
        (&byte_over, None),
        (&label_over, None),
        // An empty label inside the suffix: no tail is registerable.
        ("r1.gtt..net", None),
        ("x..net", None),
        (" x.lhr1.gtt.net ", Some("London")),
        (".x.lhr1.gtt.net", Some("London")),
        // Routes to gtt.net, but the learned regex ends at `net`.
        ("x.lhr1.gtt.net.", None),
        ("X.LHR1.GTT.NET", Some("London")),
        ("", None),
        ("com", None),
    ];
    let mut scratch = String::new();
    for (host, want) in table {
        let name = |inf: Option<GeoInference>| inf.map(|i| db.location(i.location).name.clone());
        assert_eq!(
            name(geo.geolocate(&db, &psl, host)).as_deref(),
            want,
            "apply: {host:?}"
        );
        assert_eq!(
            name(index.lookup(host, &mut scratch)).as_deref(),
            want,
            "serve: {host:?}"
        );
    }
}

/// A 64 003-byte, 32 000-label name under `gtt.net`.
fn long_host() -> String {
    let host = "a.".repeat(31_998) + "gtt.net";
    assert_eq!((host.len(), host.split('.').count()), (64_003, 32_000));
    host
}

/// A name past DNS's 253-byte limit is refused by the length bound
/// before routing or regex matching, so tens of thousands of labels
/// cost next to nothing through either front end. The PSL walk's own
/// bound is covered by psl's
/// `walk_reads_at_most_one_label_past_the_longest_rule`.
#[test]
fn a_long_hostname_is_answered_quickly() {
    let (db, psl, geo, index) = gtt_front_ends();
    let host = long_host();
    let start = std::time::Instant::now();
    assert_eq!(geo.geolocate(&db, &psl, &host), None);
    let apply = start.elapsed();
    let start = std::time::Instant::now();
    assert_eq!(index.lookup(&host, &mut String::new()), None);
    let serve = start.elapsed();
    assert!(
        apply.as_secs_f64() < 1.0 && serve.as_secs_f64() < 1.0,
        "apply {apply:?}, serve {serve:?}"
    );
}
