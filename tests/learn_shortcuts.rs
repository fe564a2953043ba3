//! Each shortcut the learner takes answers as the long way does, on the
//! seeded corpora the learner is measured on: the ground-truth suite and
//! the seed-7 100k-router corpus (`hoiho generate --routers 100000 --seed
//! 7`).
//!
//! - Phase 1 counts base regexes by their pattern text and builds only
//!   the ones it keeps. The text it counts for a variant is the pattern of
//!   the regex that variant builds, so two keys are equal exactly when
//!   their built patterns are, and the kept candidates are the ones that
//!   building every base regex and deduplicating by pattern keeps.
//! - Stage 4 finds the cities a token abbreviates through an index of
//!   city names bucketed by first letter. It finds exactly the cities a
//!   scan of every city with `is_abbreviation` finds.

use hoiho::builder::{base_candidates, base_regex, base_regexes_for_host, BasePatterns};
use hoiho::eval::eval_nc;
use hoiho::learned::candidate_locations;
use hoiho::pipeline::MIN_TAGGED;
use hoiho::train::{build_training_sets, SuffixSet};
use hoiho::{EvalContext, GeoRegex, Hoiho};
use hoiho_geodb::builder::clli_region;
use hoiho_geodb::{is_abbreviation, GeoDb};
use hoiho_geotypes::{GeohintType, LocationId, LocationKind};
use hoiho_itdk::spec::CorpusSpec;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::ConsistencyPolicy;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

const POLICY: ConsistencyPolicy = ConsistencyPolicy::STRICT;

/// The dictionary and the two seeded corpora, built once for every test.
fn world() -> &'static (GeoDb, PublicSuffixList, [Corpus; 2]) {
    static WORLD: OnceLock<(GeoDb, PublicSuffixList, [Corpus; 2])> = OnceLock::new();
    WORLD.get_or_init(|| {
        let db = GeoDb::builtin();
        let gt = hoiho_bench::gt::corpus(&db).corpus;
        let spec = CorpusSpec {
            seed: 7,
            ..CorpusSpec::ipv4_aug2020(100_000)
        };
        let itdk = hoiho_itdk::generate(&db, &spec).corpus;
        (db, PublicSuffixList::builtin(), [gt, itdk])
    })
}

fn training_sets<'c>(db: &GeoDb, psl: &PublicSuffixList, corpus: &'c Corpus) -> Vec<SuffixSet<'c>> {
    build_training_sets(db, psl, corpus, &POLICY)
}

#[test]
fn phase1_keys_are_the_built_patterns() {
    let (db, psl, corpora) = world();
    for corpus in corpora {
        let mut patterns = BasePatterns::default();
        let mut keys = 0;
        for set in training_sets(db, psl, corpus) {
            for h in set.hosts.iter().filter(|h| h.is_tagged()) {
                patterns.render(h.prefix(), &h.tags, &set.suffix);
                for (key, variant) in patterns.iter() {
                    let built = base_regex(h.prefix(), &h.tags, &set.suffix, variant);
                    assert_eq!(key, built.regex.as_pattern(), "{}", h.hostname());
                    keys += 1;
                }
            }
        }
        assert!(keys > 1_000, "{}: {keys} keys", corpus.label);
    }
}

/// Phase 1 as it was before it counted text: build every base regex of
/// every tagged hostname, keep the first regex of each pattern, count
/// the hostnames that generated it, rank and cut.
fn reference_candidates(set: &SuffixSet<'_>, keep: usize) -> Vec<(GeoRegex, usize)> {
    let mut counts: HashMap<String, (GeoRegex, usize)> = HashMap::new();
    for h in set.hosts.iter().filter(|h| h.is_tagged()) {
        for r in base_regexes_for_host(h.prefix(), &h.tags, &set.suffix) {
            counts
                .entry(r.regex.as_pattern().to_owned())
                .or_insert((r, 0))
                .1 += 1;
        }
    }
    let mut cands: Vec<(GeoRegex, usize)> = counts.into_values().collect();
    cands.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| a.0.regex.as_pattern().cmp(b.0.regex.as_pattern()))
    });
    cands.truncate(keep);
    cands
}

#[test]
fn phase1_keeps_what_building_every_regex_keeps() {
    let (db, psl, corpora) = world();
    for corpus in corpora {
        let mut suffixes = 0;
        for set in training_sets(db, psl, corpus) {
            if set.tagged() < MIN_TAGGED {
                continue;
            }
            // A small cut too, so ties at the cut are exercised.
            for keep in [5, 300] {
                let got = base_candidates(&set.hosts, &set.suffix, keep);
                let want = reference_candidates(&set, keep);
                let show = |c: &[(GeoRegex, usize)]| {
                    c.iter()
                        .map(|(r, n)| (r.regex.as_pattern().to_owned(), r.plan.clone(), *n))
                        .collect::<Vec<_>>()
                };
                assert_eq!(show(&got), show(&want), "{} keep {keep}", set.suffix);
                assert!(got.iter().zip(&want).all(|(a, b)| a.0 == b.0));
            }
            suffixes += 1;
        }
        assert!(suffixes > 10, "{}: {suffixes} suffixes", corpus.label);
    }
}

/// Stage 4's candidate search as it was before the index: every city,
/// tested with `is_abbreviation`.
fn scan_every_city(db: &GeoDb, token: &str, ty: GeohintType) -> Vec<LocationId> {
    let cities = || db.iter().filter(|(_, l)| l.kind == LocationKind::City);
    let loose = Default::default();
    match ty {
        GeohintType::Iata | GeohintType::Icao | GeohintType::CityName => {
            let opts = hoiho_geodb::AbbrevOptions {
                require_contiguous: if ty == GeohintType::CityName { 4 } else { 0 },
            };
            cities()
                .filter(|(_, l)| {
                    is_abbreviation(token, &l.name, &opts)
                        || l.state.is_some_and(|st| {
                            is_abbreviation(token, &format!("{} {}", l.name, st.as_str()), &opts)
                        })
                })
                .map(|(id, _)| id)
                .collect()
        }
        GeohintType::Clli if token.len() == 6 => cities()
            .filter(|(_, l)| is_abbreviation(&token[..4], &l.name, &loose))
            .filter(|(_, l)| clli_region(l) == token[4..6])
            .map(|(id, _)| id)
            .collect(),
        GeohintType::Locode if token.len() == 5 => cities()
            .filter(|(_, l)| l.country.matches_token(&token[..2]))
            .filter(|(_, l)| is_abbreviation(&token[2..], &l.name, &loose))
            .map(|(id, _)| id)
            .collect(),
        _ => Vec::new(),
    }
}

/// Every token an NC learned on a seeded corpus extracts, with its type:
/// a superset of the FP and UNK extractions stage 4 looks up.
fn extracted_tokens(
    db: &GeoDb,
    psl: &PublicSuffixList,
    corpus: &Corpus,
) -> BTreeSet<(String, GeohintType)> {
    let report = Hoiho::new(db, psl).learn_corpus(corpus);
    let ncs: HashMap<&str, _> = report
        .results
        .iter()
        .filter_map(|r| Some((r.suffix.as_str(), r.nc.as_ref()?)))
        .collect();
    let table = BestCaseTable::new(&corpus.vps, &POLICY, db.coords(), &[]);
    let mut tokens = BTreeSet::new();
    for set in training_sets(db, psl, corpus) {
        let Some(nc) = ncs.get(set.suffix.as_str()) else {
            continue;
        };
        let ctx = EvalContext::new(db, &set.suffix, &set.hosts, &table);
        for (e, _, _) in eval_nc(&ctx, nc, None).per_host {
            tokens.extend(e.map(|e| (e.hint, e.ty)));
        }
    }
    tokens
}

#[test]
fn indexed_abbreviations_equal_a_scan_on_seeded_corpora() {
    let (db, psl, corpora) = world();
    for corpus in corpora {
        let tokens = extracted_tokens(db, psl, corpus);
        let mut found = 0;
        for (token, ty) in &tokens {
            let got = candidate_locations(db, token, *ty);
            assert_eq!(got, scan_every_city(db, token, *ty), "{token} as {ty:?}");
            found += usize::from(!got.is_empty());
        }
        assert!(
            found > 10,
            "{}: {found} of {} tokens",
            corpus.label,
            tokens.len()
        );
    }
}

/// Every token of up to four symbols over letters that start many city
/// names, an uppercase letter, a digit and punctuation, as each hint
/// type looks it up; CLLI and LOCODE tokens get a region or a country
/// around their four or three symbols.
#[test]
fn indexed_abbreviations_equal_a_scan_on_short_tokens() {
    let db = &world().0;
    let alphabet = ["a", "n", "o", "S", "3", "-"];
    let mut tokens = vec![String::new()];
    let mut checked = 0;
    for len in 1..=4 {
        tokens = tokens
            .iter()
            .flat_map(|t| alphabet.map(|s| format!("{t}{s}")))
            .collect();
        for t in &tokens {
            let mut asks = vec![
                (t.clone(), GeohintType::Iata),
                (t.clone(), GeohintType::CityName),
            ];
            if len == 4 {
                asks.extend(["ny", "ca", "en"].map(|r| (format!("{t}{r}"), GeohintType::Clli)));
            }
            if len == 3 {
                asks.extend(["us", "gb"].map(|cc| (format!("{cc}{t}"), GeohintType::Locode)));
            }
            for (token, ty) in asks {
                let got = candidate_locations(db, &token, ty);
                assert_eq!(got, scan_every_city(db, &token, ty), "{token} as {ty:?}");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 1554 + 3 * 1296 + 2 * 216);
}
