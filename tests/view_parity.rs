//! `hoiho learn` streams a corpus file into a training view; the library
//! learns a parsed corpus. Both must learn the same thing: the same
//! artifact bytes, the same report totals and the same counters, parse
//! counters included. This binary owns the process-wide registry, so no
//! other test's counting can leak into the comparison; its tests take
//! [`REGISTRY`] so they do not count into each other's.
//!
//! The generator can also fill a view directly, and that view must be
//! the one replaying the generated corpus gives.

use hoiho::artifact::write_artifacts;
use hoiho::{Geolocator, Hoiho, HoihoOptions, LearnReport, TrainingView};
use hoiho_geodb::GeoDb;
use hoiho_itdk::format::{parse_corpus, write_corpus};
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::fault::inject_spoofing;
use hoiho_rtt::rng::StdRng;
use hoiho_rtt::VpId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Held by each test here while it counts into the global registry.
static REGISTRY: Mutex<()> = Mutex::new(());

/// A seeded corpus whose VPs 3, 11 and 19 spoof every answer, as text.
fn spoofed_corpus_text(db: &GeoDb, seed: u64) -> String {
    let mut spec = CorpusSpec::ipv4_aug2020(1500);
    spec.seed = seed;
    let mut g = hoiho_itdk::generate(db, &spec);
    let mut rng = StdRng::seed_from_u64(seed);
    for r in &mut g.corpus.routers {
        if !r.rtts.is_empty() {
            inject_spoofing(&mut r.rtts, &[VpId(3), VpId(11), VpId(19)], &mut rng);
        }
    }
    write_corpus(&g.corpus)
}

/// `text` with every tenth `rtt` line naming its first VP again, with a
/// smaller RTT, so the minimum per VP decides what is kept.
fn with_repeated_vps(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.lines().enumerate() {
        out.push_str(line);
        if let Some(first) = line.strip_prefix("rtt ").and_then(|r| r.split(' ').next()) {
            let (vp, us) = first.split_once(':').expect("vp:us");
            if i % 10 == 0 {
                let us: u32 = us.parse().expect("us");
                let _ = write!(out, " {vp}:{}", us / 2);
            }
        }
        out.push('\n');
    }
    out
}

/// `text` with blank and comment lines between its records.
fn with_blank_and_comment_lines(text: &str) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        match i % 7 {
            1 => out.push('\n'),
            3 => out.push_str("# a comment\n  \t\n"),
            _ => {}
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// What one learn produced: artifact bytes, report totals, counters.
type Learned = (String, String, BTreeMap<String, u64>);

fn totals(r: &LearnReport) -> String {
    format!(
        "{} routers={} hostnamed={} apparent={} geolocated={} extrapolated={} spoofed={:?}",
        r.label,
        r.total_routers,
        r.routers_with_hostname,
        r.routers_with_apparent,
        r.routers_geolocated,
        r.routers_extrapolated,
        r.spoofed_vps
    )
}

#[test]
fn learning_the_streamed_view_matches_learning_the_parsed_corpus() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let hoiho = Hoiho::with_options(
        &db,
        &psl,
        HoihoOptions {
            threads: 2,
            ..Default::default()
        },
    );
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let obs = hoiho_obs::global();
    obs.set_enabled(true);
    let learned = |report: LearnReport| -> Learned {
        let artifact = write_artifacts(&Geolocator::from_report(&report), &db);
        (artifact, totals(&report), obs.snapshot().counters)
    };
    let via_corpus = |text: &str| -> Learned {
        obs.reset();
        let corpus = parse_corpus(text).expect("parse");
        learned(hoiho.learn_corpus(&corpus))
    };
    let via_view = |text: &str| -> Learned {
        obs.reset();
        let view = TrainingView::read(text.as_bytes(), db.len()).expect("parse");
        learned(hoiho.learn_view(&view))
    };

    let lf = spoofed_corpus_text(&db, 7);
    let corpus = parse_corpus(&lf).expect("parse");
    assert!(
        corpus
            .routers
            .iter()
            .any(|r| !r.has_hostname() && !r.rtts.is_empty()),
        "the corpus has hostname-less routers with RTTs"
    );
    let variants = [
        ("LF", lf.clone()),
        ("CRLF", lf.replace('\n', "\r\n")),
        ("no final newline", lf.trim_end().to_string()),
        ("blank and comment lines", with_blank_and_comment_lines(&lf)),
        ("repeated VPs", with_repeated_vps(&lf)),
        ("another seed", spoofed_corpus_text(&db, 8)),
    ];
    let reference = via_corpus(&lf);
    assert!(
        reference
            .1
            .ends_with("spoofed=[VpId(3), VpId(11), VpId(19)]"),
        "{}",
        reference.1
    );
    for key in ["itdk.parse.rtt_samples", "rtt.spoof.vps_flagged"] {
        assert!(reference.2.contains_key(key), "no {key} counter");
    }
    for (label, text) in &variants {
        let want = via_corpus(text);
        let got = via_view(text);
        assert!(got.0 == want.0, "{label}: artifact bytes differ");
        assert_eq!(got.1, want.1, "{label}: report totals");
        assert_eq!(got.2, want.2, "{label}: counters");
    }
    // Line endings and comments change nothing that is learned.
    for (label, text) in &variants[..4] {
        assert!(via_view(text) == reference, "{label}: differs from LF");
    }
}

/// A view the generator fills directly is the view of the corpus
/// `generate` keeps. The oracle replays that corpus rather than parsing
/// its text, which prints VP coordinates to 6 decimals.
#[test]
fn a_view_generated_directly_is_the_generated_corpus_view() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let db = GeoDb::builtin();
    for spec in [
        CorpusSpec::ipv4_aug2020(1500),
        CorpusSpec::ipv6_nov2020(1500),
    ] {
        let mut direct = TrainingView::new(db.len());
        hoiho_itdk::generate::generate_into(&db, &spec, &mut direct);
        let corpus = hoiho_itdk::generate(&db, &spec).corpus;
        let oracle = TrainingView::from_corpus(&corpus, db.len());
        let summary = |v: &TrainingView| {
            let routers: Vec<_> = v
                .routers()
                .map(|r| (r.index, r.hostnames().collect::<Vec<_>>(), r.rtts))
                .collect();
            let counts = (
                v.total_routers(),
                v.routers_with_hostname(),
                v.routers_with_rtt(),
            );
            format!("{} {counts:?} {routers:?}", v.label())
        };
        assert!(summary(&direct) == summary(&oracle), "{}", spec.label);
        assert!(oracle.routers_with_hostname() > 0, "{}", spec.label);
        assert_eq!(
            direct.spoofing_vps(),
            oracle.spoofing_vps(),
            "{}",
            spec.label
        );
    }
}
