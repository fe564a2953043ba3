//! §5.1.4: spoofing vantage points poison RTT constraints unless they
//! are filtered. The paper discarded seven such VPs by hand; the
//! pipeline automates the filter, and this test measures its effect
//! end to end.

use hoiho::artifact::write_artifacts;
use hoiho::stale::detect_stale;
use hoiho::{Geolocator, Hoiho, HoihoOptions, TrainingView};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::fault::{inject_spoofing, strip_vps};
use hoiho_rtt::rng::StdRng;
use hoiho_rtt::VpId;

fn poisoned_corpus(db: &GeoDb) -> hoiho_itdk::Corpus {
    let spec = CorpusSpec {
        label: "spoof-test".into(),
        seed: 0x5100F,
        operators: 8,
        routers: 600,
        geo_operator_fraction: 1.0,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.9,
        rtt_response_rate: 0.95,
        vps: 30,
        custom_hint_operator_fraction: 0.0,
        custom_hint_rate: 0.0,
        stale_fraction: 0.0,
        provider_side_fraction: 0.0,
        ipv6: false,
    };
    let mut g = hoiho_itdk::generate(db, &spec);
    // Three access routers spoof TCP resets: every probe from these VPs
    // comes back in 1–2 ms regardless of target distance.
    let bad = vec![VpId(3), VpId(11), VpId(19)];
    let mut rng = StdRng::seed_from_u64(7);
    for r in &mut g.corpus.routers {
        if !r.rtts.is_empty() {
            inject_spoofing(&mut r.rtts, &bad, &mut rng);
        }
    }
    g.corpus
}

#[test]
fn filter_recovers_learning_from_spoofed_campaign() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = poisoned_corpus(&db);

    let unfiltered = unfiltered(&db, &psl).learn_corpus(&corpus);
    let filtered = Hoiho::new(&db, &psl).learn_corpus(&corpus); // filter on by default

    // The filter identifies exactly the poisoned VPs.
    let mut found = filtered.spoofed_vps.clone();
    found.sort();
    assert_eq!(found, vec![VpId(3), VpId(11), VpId(19)]);
    assert!(unfiltered.spoofed_vps.is_empty());

    // Spoofed 1–2 ms RTTs make every true geohint RTT-infeasible, so
    // unfiltered learning collapses; filtering restores it.
    assert!(
        filtered.routers_geolocated > 2 * unfiltered.routers_geolocated.max(1),
        "filtered {} vs unfiltered {}",
        filtered.routers_geolocated,
        unfiltered.routers_geolocated
    );
    assert!(filtered.usable().count() >= unfiltered.usable().count());
}

fn unfiltered<'a>(db: &'a GeoDb, psl: &'a PublicSuffixList) -> Hoiho<'a> {
    Hoiho::with_options(
        db,
        psl,
        HoihoOptions {
            filter_spoofed_vps: false,
            ..Default::default()
        },
    )
}

/// Ignoring the flagged VPs' samples is the same as learning a corpus
/// from which they were stripped: the artifacts are byte-identical.
#[test]
fn ignoring_spoofed_vps_equals_stripping_them() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = poisoned_corpus(&db);
    let filtered = Hoiho::new(&db, &psl).learn_corpus(&corpus);
    assert!(!filtered.spoofed_vps.is_empty());

    let mut stripped = corpus.clone();
    for r in &mut stripped.routers {
        r.rtts = strip_vps(&r.rtts, &filtered.spoofed_vps);
    }
    let plain = unfiltered(&db, &psl).learn_corpus(&stripped);

    let artifact = |report| write_artifacts(&Geolocator::from_report(report), &db);
    assert!(filtered.usable().count() > 0);
    assert_eq!(artifact(&filtered), artifact(&plain));
    assert_eq!(filtered.routers_with_apparent, plain.routers_with_apparent);
}

/// The stale-hostname scan ignores the VPs the learner ignores: on the
/// poisoned campaign it flags as few hostnames as on a clean one (the
/// bound `clean_corpus_yields_few_flags` holds), where counting the
/// spoofed 1–2 ms samples would make nearly every hint infeasible.
#[test]
fn stale_scan_ignores_spoofed_vps() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = poisoned_corpus(&db);
    let report = Hoiho::new(&db, &psl).learn_corpus(&corpus);
    let geo = Geolocator::from_report(&report);
    let view = TrainingView::from_corpus(&corpus, db.len());
    let findings = detect_stale(&db, &psl, &geo, &view);
    let located: usize = corpus.routers.iter().map(|r| r.hostnames().count()).sum();
    assert!(
        findings.len() * 50 < located.max(1),
        "{} flags over {} hostnames",
        findings.len(),
        located
    );
}

#[test]
fn filter_is_inert_on_clean_measurements() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec {
        label: "clean".into(),
        seed: 0xC1EA2,
        operators: 6,
        routers: 400,
        geo_operator_fraction: 0.8,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.85,
        rtt_response_rate: 0.9,
        vps: 25,
        custom_hint_operator_fraction: 0.3,
        custom_hint_rate: 0.2,
        stale_fraction: 0.005,
        provider_side_fraction: 0.0,
        ipv6: false,
    };
    let corpus = hoiho_itdk::generate(&db, &spec).corpus;
    let on = Hoiho::new(&db, &psl).learn_corpus(&corpus);
    let off = unfiltered(&db, &psl).learn_corpus(&corpus);
    assert!(on.spoofed_vps.is_empty(), "no false flags on clean data");
    assert_eq!(on.routers_geolocated, off.routers_geolocated);
}
