//! End-to-end integration: generate → serialize → reload → learn →
//! apply, across every crate boundary.

use hoiho::{Geolocator, Hoiho};
use hoiho_geodb::GeoDb;
use hoiho_itdk::format::{parse_corpus, write_corpus};
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;

fn spec() -> CorpusSpec {
    CorpusSpec {
        label: "e2e".into(),
        seed: 0xE2E,
        operators: 8,
        routers: 500,
        geo_operator_fraction: 0.75,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.85,
        rtt_response_rate: 0.9,
        vps: 24,
        custom_hint_operator_fraction: 0.4,
        custom_hint_rate: 0.25,
        stale_fraction: 0.005,
        provider_side_fraction: 0.01,
        ipv6: false,
    }
}

#[test]
fn learn_after_disk_roundtrip_matches_direct_learning() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(&db, &spec());

    // Serialize to the native format, write to disk, read back.
    let path = std::env::temp_dir().join("hoiho-e2e-corpus.txt");
    std::fs::write(&path, write_corpus(&g.corpus)).expect("write corpus");
    let text = std::fs::read_to_string(&path).expect("read corpus");
    let reloaded = parse_corpus(&text).expect("parse corpus");
    std::fs::remove_file(&path).ok();

    let hoiho = Hoiho::new(&db, &psl);
    let direct = hoiho.learn_corpus(&g.corpus);
    let roundtrip = hoiho.learn_corpus(&reloaded);

    assert_eq!(direct.total_routers, roundtrip.total_routers);
    assert_eq!(
        direct.routers_with_apparent,
        roundtrip.routers_with_apparent
    );
    assert_eq!(direct.routers_geolocated, roundtrip.routers_geolocated);
    assert_eq!(direct.results.len(), roundtrip.results.len());
    for (a, b) in direct.results.iter().zip(roundtrip.results.iter()) {
        assert_eq!(a.suffix, b.suffix);
        assert_eq!(a.class, b.class);
        assert_eq!(
            a.nc.as_ref().map(|n| n.regexes.len()),
            b.nc.as_ref().map(|n| n.regexes.len())
        );
    }
}

#[test]
fn learned_regexes_are_portable_pattern_strings() {
    // The paper releases its regexes for others to use: every learned
    // pattern must round-trip through plain text and be accepted by the
    // mainstream regex dialect (no possessives in emitted NCs).
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(&db, &spec());
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
    let mut checked = 0;
    for r in report.usable() {
        for rx in &r.nc.as_ref().expect("usable NCs exist").regexes {
            let pat = rx.regex.as_pattern();
            let reparsed = hoiho_regex::Regex::parse(pat).expect("round-trips");
            assert_eq!(reparsed.as_pattern(), pat);
            checked += 1;
        }
    }
    assert!(checked >= 3, "expected several learned regexes");
}

#[test]
fn geolocator_handles_garbage_gracefully() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(&db, &spec());
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
    let geo = Geolocator::from_report(&report);
    for junk in [
        "",
        ".",
        "...",
        "com",
        "🦀.example.net",
        &"x".repeat(500),
        "a.b.c.d.e.f.g.h.unknown-suffix.zz",
    ] {
        // Must not panic; returning None is fine.
        let _ = geo.geolocate(&db, &psl, junk);
    }
}

#[test]
fn deterministic_end_to_end() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let a = Hoiho::new(&db, &psl).learn_corpus(&hoiho_itdk::generate(&db, &spec()).corpus);
    let b = Hoiho::new(&db, &psl).learn_corpus(&hoiho_itdk::generate(&db, &spec()).corpus);
    assert_eq!(a.routers_geolocated, b.routers_geolocated);
    let ncs_a: Vec<&str> = a
        .usable()
        .flat_map(|r| {
            r.nc.as_ref()
                .expect("usable NCs exist")
                .regexes
                .iter()
                .map(|x| x.regex.as_pattern())
                .collect::<Vec<_>>()
        })
        .collect();
    let ncs_b: Vec<&str> = b
        .usable()
        .flat_map(|r| {
            r.nc.as_ref()
                .expect("usable NCs exist")
                .regexes
                .iter()
                .map(|x| x.regex.as_pattern())
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(ncs_a, ncs_b);
}

#[test]
fn published_artifacts_reproduce_geolocation_behaviour() {
    // The paper's release scenario: learn, publish the regexes + learned
    // hints as text, and let a third party geolocate with them — results
    // must match the in-memory geolocator exactly.
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(&db, &spec());
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
    let geo = Geolocator::from_report(&report);

    let text = hoiho::artifact::write_artifacts(&geo, &db);
    let third_party = hoiho::artifact::parse_artifacts(&text, &db).expect("parse");

    let mut compared = 0usize;
    for r in &g.corpus.routers {
        for h in r.hostnames() {
            let a = geo.geolocate(&db, &psl, h).map(|i| i.location);
            let b = third_party.geolocate(&db, &psl, h).map(|i| i.location);
            assert_eq!(a, b, "{h}");
            compared += 1;
        }
    }
    assert!(compared > 200, "compared only {compared} hostnames");
}

/// A fully qualified hostname (trailing dot, as `dig -x` prints it)
/// teaches exactly what the bare name does: the artifact is the same
/// byte for byte, and it answers the dotted names too.
#[test]
fn trailing_dots_learn_the_same_artifact() {
    use hoiho::artifact::write_artifacts;
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let g = hoiho_itdk::generate(&db, &spec());
    let mut dotted = g.corpus.clone();
    for r in &mut dotted.routers {
        for name in r.interfaces.iter_mut().filter_map(|i| i.hostname.as_mut()) {
            name.push('.');
        }
    }
    let hoiho = Hoiho::new(&db, &psl);
    let bare = Geolocator::from_report(&hoiho.learn_corpus(&g.corpus));
    let fqdn = Geolocator::from_report(&hoiho.learn_corpus(&dotted));
    assert!(bare.iter().next().is_some(), "nothing learned");
    assert_eq!(write_artifacts(&fqdn, &db), write_artifacts(&bare, &db));
    let (mut hits, mut checked) = (0, 0);
    for r in &g.corpus.routers {
        for name in r.hostnames() {
            let want = bare.geolocate(&db, &psl, name).map(|i| i.location);
            let got = bare
                .geolocate(&db, &psl, &format!("{name}."))
                .map(|i| i.location);
            assert_eq!(got, want, "{name}.");
            hits += usize::from(want.is_some());
            checked += 1;
        }
    }
    assert!(hits * 10 > checked, "{hits} of {checked} names answered");
}
