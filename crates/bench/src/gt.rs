//! The ground-truth operator suite (§6.1, figure 9, table 6).
//!
//! Fourteen operators modelled on the validation networks of the paper,
//! each with the behaviours the paper attributes to it:
//!
//! - `gtt.net`, `zayo.com`, `as8218.net` — IATA conventions; zayo and
//!   as8218 with custom hints the operators confirmed;
//! - `he.net` — IATA with the famous `ash` → Ashburn repurposing;
//! - `ntt.net` — CLLI + country code, with invented CLLIs (`mlanit`);
//! - `geant.net` — 3-letter custom city abbreviations across Europe;
//! - `retn.net` — many custom hints, some unlearnable (`msk` has no
//!   in-order match in "Moscow"), capping learnable accuracy like the
//!   paper's 25/34;
//! - `tfbnw.net` — data centers in small towns whose codes collide with
//!   bigger cities, so learned hints go wrong (paper: 2/14);
//! - `seabone.net` — custom 3-letter codes;
//! - `aorta.net`, `above.net` — inconsistent conventions → FNs;
//! - `nwnet.net` — abbreviated spelled city names;
//! - `windstream.net` — split CLLI;
//! - `xo.net` — city + state + country;
//! - `nysernet.net` — regional city names.

use hoiho_geodb::GeoDb;
use hoiho_geotypes::{GeohintType, LocationId};
use hoiho_itdk::generate::{generate_with_operators, Generated};
use hoiho_itdk::spec::{CorpusSpec, DigitMode, Layout, NamingStyle, OperatorSpec, Pop, Seg, Sep};

/// Resolve a city by name (and optionally country), preferring the most
/// populous match.
pub fn city(db: &GeoDb, name: &str, cc: Option<&str>) -> LocationId {
    db.lookup(&name.to_ascii_lowercase().replace(' ', ""))
        .into_iter()
        .filter(|h| h.hint_type == GeohintType::CityName)
        .filter(|h| cc.is_none_or(|c| db.location(h.location).country.matches_token(c)))
        .max_by_key(|h| db.location(h.location).population)
        .unwrap_or_else(|| panic!("city {name} ({cc:?}) not in dictionary"))
        .location
}

/// Resolve the *smallest* city with this name — for tfbnw-style tiny
/// data-center towns whose name collides with a big city.
pub fn small_city(db: &GeoDb, name: &str, cc: Option<&str>) -> LocationId {
    db.lookup(&name.to_ascii_lowercase().replace(' ', ""))
        .into_iter()
        .filter(|h| h.hint_type == GeohintType::CityName)
        .filter(|h| cc.is_none_or(|c| db.location(h.location).country.matches_token(c)))
        .min_by_key(|h| db.location(h.location).population)
        .unwrap_or_else(|| panic!("city {name} not in dictionary"))
        .location
}

fn pop(db: &GeoDb, name: &str, cc: Option<&str>, hint: &str, custom: bool) -> Pop {
    Pop {
        location: city(db, name, cc),
        hint: hint.to_string(),
        custom,
    }
}

fn op(
    suffix: &str,
    style: NamingStyle,
    layout: Layout,
    pops: Vec<Pop>,
    routers: usize,
    inconsistent: f64,
) -> OperatorSpec {
    OperatorSpec {
        suffix: suffix.to_string(),
        style,
        layout,
        pops,
        router_count: routers,
        hostname_rate: 0.9,
        stale_fraction: 0.005,
        inconsistent_fraction: inconsistent,
    }
}

fn layout(segs: Vec<(Seg, Sep)>) -> Layout {
    Layout { segs }
}

/// Build the full suite against a dictionary.
pub fn suite(db: &GeoDb) -> Vec<OperatorSpec> {
    use DigitMode::*;
    use Seg::*;
    use Sep::*;
    let iata_plain = layout(vec![
        (Iface, Dot),
        (Role, Dot),
        (Hint, Glue),
        (HintDigits(Always), Dot),
    ]);
    let iata_cc = layout(vec![
        (FreeWord, Dot),
        (Role, Dot),
        (Hint, Glue),
        (HintDigits(Always), Dot),
        (Cc, Dot),
        (Static("zip".into()), Dot),
    ]);
    let iata_soft = layout(vec![
        (Iface, Dot),
        (Role, Dot),
        (Hint, Glue),
        (HintDigits(Sometimes), Dot),
    ]);
    let hint_cc = layout(vec![
        (Role, Dot),
        (Hint, Glue),
        (HintDigits(Always), Dot),
        (Cc, Dot),
    ]);
    let clli_cc = layout(vec![
        (Iface, Dot),
        (Role, Dot),
        (Hint, Glue),
        (HintDigits(Always), Dot),
        (Cc, Dot),
        (Vocab(vec!["bb".into(), "ce".into(), "ra".into()]), Dot),
    ]);
    let clli_split = layout(vec![
        (Iface, Dot),
        (Role, Dash),
        (Hint, Glue),
        (HintDigits(Always), Dash),
        (SplitState, Dot),
    ]);
    let city_plain = layout(vec![
        (Iface, Dot),
        (Role, Dot),
        (Hint, Glue),
        (HintDigits(Sometimes), Dot),
    ]);
    let city_state_cc = layout(vec![(Role, Dot), (Hint, Dot), (State, Dot), (Cc, Dot)]);
    let locode_plain = layout(vec![
        (Iface, Dot),
        (Role, Dot),
        (Hint, Dot),
        (Static("ip".into()), Dot),
    ]);

    vec![
        op(
            "gtt.net",
            NamingStyle::Iata,
            iata_plain.clone(),
            vec![
                pop(db, "London", Some("gb"), "lhr", false),
                pop(db, "Frankfurt am Main", None, "fra", false),
                pop(db, "Amsterdam", None, "ams", false),
                pop(db, "Prague", None, "prg", false),
                pop(db, "Madrid", None, "mad", false),
                pop(db, "Vienna", None, "vie", false),
                pop(db, "New York", None, "jfk", false),
                pop(db, "Chicago", None, "ord", false),
                pop(db, "Seattle", None, "sea", false),
                pop(db, "Los Angeles", None, "lax", false),
                pop(db, "Dallas", None, "dfw", false),
                pop(db, "Miami", None, "mia", false),
            ],
            160,
            0.05,
        ),
        op(
            "zayo.com",
            NamingStyle::Iata,
            iata_cc,
            vec![
                pop(db, "London", Some("gb"), "lhr", false),
                // Customs sit at busy hub PoPs (operator-confirmed,
                // 4/4 in table 6).
                pop(db, "Toronto", None, "tor", true),
                pop(db, "Paris", None, "cdg", false),
                pop(db, "Washington", Some("us"), "wdc", true),
                pop(db, "Frankfurt am Main", None, "fra", false),
                pop(db, "Tokyo", None, "tok", true),
                pop(db, "Amsterdam", None, "ams", false),
                pop(db, "Zurich", None, "zur", true),
                pop(db, "Stockholm", None, "arn", false),
                pop(db, "Denver", None, "den", false),
                pop(db, "Atlanta", None, "atl", false),
                pop(db, "Boston", None, "bos", false),
            ],
            150,
            0.05,
        ),
        op(
            "he.net",
            NamingStyle::Iata,
            iata_soft.clone(),
            vec![
                // The famous repurposing sits at the biggest PoP
                // (4/4 in table 6).
                pop(db, "Ashburn", Some("us"), "ash", true),
                pop(db, "Seattle", None, "sea", false),
                pop(db, "Toronto", None, "tor", true),
                pop(db, "San Jose", None, "sjc", false),
                pop(db, "Paris", None, "par", true),
                pop(db, "Chicago", None, "ord", false),
                pop(db, "Stockholm", None, "sto", true),
                pop(db, "Denver", None, "den", false),
                pop(db, "Miami", None, "mia", false),
                pop(db, "New York", None, "jfk", false),
                pop(db, "Los Angeles", None, "lax", false),
                pop(db, "Phoenix", None, "phx", false),
            ],
            150,
            0.04,
        ),
        op(
            "ntt.net",
            NamingStyle::Clli,
            clli_cc,
            vec![
                pop(db, "San Jose", None, "snjsca", false),
                pop(db, "New York", None, "nycmny", false),
                pop(db, "Washington", Some("us"), "washdc", false),
                pop(db, "Ashburn", Some("us"), "asbnva", false),
                pop(db, "London", Some("gb"), "londen", false),
                pop(db, "Houston", None, "hstntx", false),
                pop(db, "Dallas", None, "dllstx", false),
                pop(db, "Seattle", None, "sttlwa", false),
                pop(db, "Kuala Selangor", None, "kslrml", false),
                pop(db, "Chicago", None, "chcgil", false),
                // Invented CLLIs (fig 8b and friends).
                pop(db, "Milan", None, "mlanit", true),
                pop(db, "Tokyo", None, "tokyjp", true),
                pop(db, "Osaka", None, "osakjp", true),
                pop(db, "Singapore", None, "sngpsg", true),
                pop(db, "Hong Kong", None, "hknghk", true),
                pop(db, "Taipei", None, "taiptw", true),
                pop(db, "Madrid", None, "madres", true),
                pop(db, "Amsterdam", None, "amstnl", true),
            ],
            200,
            0.04,
        ),
        op(
            "geant.net",
            NamingStyle::Iata,
            iata_plain.clone(),
            vec![
                pop(db, "London", Some("gb"), "lon", false),
                pop(db, "Frankfurt am Main", None, "fra", false),
                pop(db, "Amsterdam", None, "ams", false),
                pop(db, "Vienna", None, "vie", false),
                pop(db, "Budapest", None, "bud", false),
                pop(db, "Sofia", None, "sof", false),
                // Custom European abbreviations (8/8 in table 6).
                pop(db, "Bucharest", None, "buc", true),
                pop(db, "Kyiv", None, "kyi", true),
                pop(db, "Moscow", None, "mos", true),
                pop(db, "Riga", None, "rig", true),
                pop(db, "Vilnius", None, "vil", true),
                pop(db, "Tallinn", None, "tal", true),
                pop(db, "Belgrade", None, "bel", true),
                pop(db, "Zagreb", None, "zgb", true),
            ],
            140,
            0.05,
        ),
        op(
            "retn.net",
            NamingStyle::Iata,
            hint_cc.clone(),
            vec![
                pop(db, "London", Some("gb"), "lon", false),
                pop(db, "Amsterdam", None, "ams", false),
                pop(db, "Stockholm", None, "sto", true),
                pop(db, "Warsaw", None, "war", true),
                pop(db, "Kyiv", None, "kyi", true),
                pop(db, "Riga", None, "rga", true),
                pop(db, "Milan", None, "mln", true),
                pop(db, "Madrid", None, "mdr", true),
                pop(db, "Bucharest", None, "bch", true),
                pop(db, "Helsinki", None, "hel", false),
                // Custom with a repurposed code for Frankfurt.
                pop(db, "Frankfurt am Main", None, "fkt", true),
                // Unlearnable: "msk" is not an in-order abbreviation of
                // "Moscow" (there is no k), like the codes the paper
                // could not interpret for retn.
                pop(db, "Moscow", None, "msk", true),
                pop(db, "St Petersburg", None, "spb", true),
            ],
            150,
            0.06,
        ),
        op(
            "tfbnw.net",
            NamingStyle::Iata,
            iata_plain.clone(),
            vec![
                // Backbone: traditional IATA codes.
                pop(db, "Seattle", None, "sea", false),
                pop(db, "Chicago", None, "ord", false),
                pop(db, "Dallas", None, "dfw", false),
                pop(db, "Atlanta", None, "atl", false),
                pop(db, "Denver", None, "den", false),
                pop(db, "San Jose", None, "sjc", false),
                pop(db, "Phoenix", None, "phx", false),
                pop(db, "Minneapolis", None, "msp", false),
                pop(db, "Portland", None, "pdx", false),
                pop(db, "Boston", None, "bos", false),
                pop(db, "Miami", None, "mia", false),
                pop(db, "Salt Lake City", None, "slc", false),
                // Data centers in small towns whose codes better match
                // big cities — the learner resolves them wrongly
                // (paper: 2/14 correct for tfbnw).
                Pop {
                    location: small_city(db, "Ashburn", Some("us")), // Ashburn GA
                    hint: "asb".into(),
                    custom: true,
                },
                Pop {
                    location: small_city(db, "Washington", Some("us")),
                    hint: "wsh".into(),
                    custom: true,
                },
                Pop {
                    location: city(db, "Richardson", Some("us")),
                    hint: "rch".into(), // also abbreviates Richmond VA
                    custom: true,
                },
                Pop {
                    location: city(db, "Brecksville", Some("us")),
                    hint: "brk".into(),
                    custom: true,
                },
                // Remote data centers whose codes match a feasible
                // bigger namesake: the learner picks the metropolis.
                Pop {
                    location: city(db, "Tokuyama", Some("jp")),
                    hint: "tky".into(), // also abbreviates Tokyo, 800 km away
                    custom: true,
                },
                Pop {
                    location: city(db, "Campeche", Some("mx")),
                    hint: "cmp".into(),
                    custom: true,
                },
            ],
            150,
            0.05,
        ),
        op(
            "seabone.net",
            NamingStyle::Iata,
            hint_cc,
            vec![
                pop(db, "Milan", None, "mil", true),
                pop(db, "Athens", None, "ate", true),
                pop(db, "Geneva", None, "gen", true),
                pop(db, "Barcelona", None, "bar", true),
                pop(db, "Istanbul", None, "ist", false),
                pop(db, "Madrid", None, "mad", false),
                pop(db, "Lisbon", None, "lis", false),
                pop(db, "Marseille", None, "mar", true),
                pop(db, "Turin", None, "tur", true),
                pop(db, "Rome", None, "rom", true),
                pop(db, "Sao Paulo", None, "sao", true),
                pop(db, "Buenos Aires", None, "bue", true),
                pop(db, "Santiago", None, "san", true),
                pop(db, "Lima", None, "lim", false),
                pop(db, "Bogota", None, "bog", false),
            ],
            150,
            0.05,
        ),
        op(
            "aorta.net",
            NamingStyle::Iata,
            iata_soft.clone(),
            vec![
                pop(db, "Amsterdam", None, "ams", false),
                pop(db, "Vienna", None, "vie", false),
                pop(db, "Zurich", None, "zrh", false),
                pop(db, "Warsaw", None, "waw", false),
                pop(db, "Budapest", None, "bud", false),
                pop(db, "Dublin", None, "dub", false),
                pop(db, "Prague", None, "prg", false),
                pop(db, "Bucharest", None, "buh", true),
                pop(db, "Hamburg", None, "hbg", true),
                pop(db, "Munich", None, "mnc", true),
                pop(db, "Cologne", None, "cgn", false),
            ],
            90,
            // Inconsistent naming: the figure-9 FNs for aorta.
            0.35,
        ),
        op(
            "above.net",
            NamingStyle::Iata,
            iata_plain.clone(),
            vec![
                pop(db, "San Jose", None, "sjc", false),
                pop(db, "Seattle", None, "sea", false),
                pop(db, "Boston", None, "bos", false),
                pop(db, "Austin", None, "aus", false),
                pop(db, "Portland", None, "pdx", false),
            ],
            70,
            0.40,
        ),
        op(
            "as8218.net",
            NamingStyle::Iata,
            iata_plain,
            vec![
                pop(db, "Paris", None, "cdg", false),
                pop(db, "Marseille", None, "mrs", false),
                pop(db, "Lyon", None, "lys", false),
                pop(db, "Brussels", None, "bsl", true),
                pop(db, "Geneva", None, "gnv", true),
                pop(db, "Milan", None, "mla", true),
            ],
            80,
            0.05,
        ),
        op(
            "nwnet.net",
            NamingStyle::CityName,
            city_plain.clone(),
            vec![
                pop(db, "Seattle", None, "seattle", false),
                pop(db, "Spokane", None, "spokane", false),
                pop(db, "Portland", None, "portland", false),
                pop(db, "Boise", None, "boise", false),
                // Abbreviated spelled names (2/2 in table 6).
                pop(db, "Fort Collins", None, "ftcollins", true),
                pop(db, "Salt Lake City", None, "saltlake", true),
            ],
            70,
            0.05,
        ),
        op(
            "windstream.net",
            NamingStyle::ClliSplit,
            clli_split,
            vec![
                pop(db, "Montgomery", None, "mtgmal", false),
                pop(db, "Birmingham", Some("us"), "brhmal", false),
                pop(db, "Charlotte", None, "chrlnc", false),
                pop(db, "Raleigh", None, "rlghnc", false),
                pop(db, "Jacksonville", None, "jcvlfl", false),
                pop(db, "Nashville", None, "nshvtn", false),
                pop(db, "Richmond", Some("us"), "rcmdva", false),
                pop(db, "Cleveland", None, "clevoh", false),
            ],
            110,
            0.05,
        ),
        op(
            "xo.net",
            NamingStyle::CityName,
            city_state_cc,
            vec![
                pop(db, "Washington", Some("us"), "washington", false),
                pop(db, "Ashburn", Some("us"), "ashburn", false),
                pop(db, "Chicago", None, "chicago", false),
                pop(db, "Dallas", None, "dallas", false),
                pop(db, "Denver", None, "denver", false),
                pop(db, "Atlanta", None, "atlanta", false),
                pop(db, "Sacramento", None, "sacramento", false),
            ],
            100,
            0.05,
        ),
        op(
            "nysernet.net",
            NamingStyle::CityName,
            city_plain,
            vec![
                pop(db, "Buffalo", None, "buffalo", false),
                pop(db, "Albany", None, "albany", false),
                pop(db, "Syracuse", None, "syracuse", false),
                pop(db, "Rochester", None, "rochester", false),
                pop(db, "New York", None, "newyork", false),
            ],
            60,
            0.08,
        ),
        op(
            "i3d.net",
            NamingStyle::Locode,
            locode_plain,
            vec![
                pop(db, "Ashburn", Some("us"), "usqas", false),
                pop(db, "Amsterdam", None, "nlams", false),
                pop(db, "Tokyo", None, "jptyo", false),
                pop(db, "Frankfurt am Main", None, "defra", false),
                pop(db, "Sao Paulo", None, "brgru", false),
                pop(db, "Singapore", None, "sgsin", false),
                // A custom LOCODE tail for a city the list spells
                // unhelpfully.
                pop(db, "Hong Kong", None, "hkhon", true),
            ],
            90,
            0.05,
        ),
        // Noise operators without geographic content keep the learner
        // honest.
        op(
            "cdn-noise.net",
            NamingStyle::NoGeo,
            Layout::variants(NamingStyle::NoGeo)[0].clone(),
            vec![Pop {
                location: city(db, "Denver", None),
                hint: String::new(),
                custom: false,
            }],
            80,
            0.0,
        ),
        op(
            "isp-noise.net",
            NamingStyle::NoGeo,
            Layout::variants(NamingStyle::NoGeo)[1].clone(),
            vec![Pop {
                location: city(db, "Madrid", None),
                hint: String::new(),
                custom: false,
            }],
            80,
            0.0,
        ),
    ]
}

/// Generate the ground-truth corpus (deterministic).
pub fn corpus(db: &GeoDb) -> Generated {
    let spec = CorpusSpec {
        label: "ground-truth".into(),
        seed: 0x6E0_7007,
        operators: 0, // unused: operators are explicit
        routers: 0,
        geo_operator_fraction: 1.0,
        sloppy_operator_fraction: 0.0,
        hostname_rate: 0.9,
        rtt_response_rate: 0.88,
        vps: 64,
        custom_hint_operator_fraction: 0.0,
        custom_hint_rate: 0.0,
        stale_fraction: 0.005,
        provider_side_fraction: 0.01,
        ipv6: false,
    };
    generate_with_operators(db, &spec, suite(db))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_against_builtin_db() {
        let db = GeoDb::builtin();
        let ops = suite(&db);
        assert_eq!(ops.len(), 18);
        // Hints unique within each operator.
        for op in &ops {
            let mut seen = std::collections::HashSet::new();
            for p in &op.pops {
                if !p.hint.is_empty() {
                    assert!(seen.insert(&p.hint), "{} duplicates {}", op.suffix, p.hint);
                }
            }
        }
    }

    #[test]
    fn custom_hints_are_learnable_where_intended() {
        // Every custom hint except the deliberately-unlearnable ones
        // must be an abbreviation of its city (or its state-qualified
        // name) so stage 4 has a chance.
        let db = GeoDb::builtin();
        let unlearnable = ["msk"];
        for op in suite(&db) {
            if matches!(op.style, NamingStyle::Clli | NamingStyle::ClliSplit) {
                continue; // CLLI hints validated by their own rule
            }
            for p in op.custom_hints() {
                if unlearnable.contains(&p.hint.as_str()) {
                    continue;
                }
                let l = db.location(p.location);
                // LOCODE customs carry a country prefix; the
                // abbreviation rule applies to the 3-letter tail.
                let token = if op.style == NamingStyle::Locode && p.hint.len() == 5 {
                    &p.hint[2..]
                } else {
                    p.hint.as_str()
                };
                let name_ok = hoiho_geodb::is_abbreviation(token, &l.name, &Default::default());
                let state_ok = l.state.is_some_and(|st| {
                    hoiho_geodb::is_abbreviation(
                        token,
                        &format!("{} {}", l.name, st.as_str()),
                        &Default::default(),
                    )
                });
                assert!(
                    name_ok || state_ok,
                    "{}: {} does not abbreviate {}",
                    op.suffix,
                    token,
                    l.name
                );
            }
        }
    }

    #[test]
    fn corpus_generates_deterministically() {
        let db = GeoDb::builtin();
        let a = corpus(&db);
        let b = corpus(&db);
        assert_eq!(a.corpus.len(), b.corpus.len());
        assert!(a.corpus.len() > 1000, "got {}", a.corpus.len());
        assert_eq!(a.corpus.vps.len(), 64);
    }
}
