//! Full corpus generation: operators → routers → hostnames → RTTs.
//!
//! The generator is deterministic in the [`CorpusSpec`] seed. It records
//! per-hostname ground truth so the evaluation harness can compute true
//! accuracy (something no real ITDK allows), and returns the operator
//! specs themselves — the "operator survey responses" of §6.1.

use crate::format::CorpusSink;
use crate::namegen::{render_inconsistent, render_prefix, NameCtx};
use crate::spec::{custom_hint_for, CorpusSpec, Layout, NamingStyle, OperatorSpec, Pop};
use crate::{Corpus, HostnameTruth};
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, LocationId, LocationKind};
use hoiho_rtt::rng::{Rng, StdRng};
use hoiho_rtt::{model::RttModel, observe::ObservationModel, RouterRtts, VpSet};
use std::collections::{HashMap, HashSet};

/// Everything the generator produced: the corpus plus the operator
/// ground truth.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The training corpus.
    pub corpus: Corpus,
    /// Per-operator ground truth (naming style, hint tables, custom
    /// hints).
    pub operators: Vec<OperatorSpec>,
}

/// Generate a corpus per `spec` against the dictionary `db`.
pub fn generate(db: &GeoDb, spec: &CorpusSpec) -> Generated {
    let mut corpus = Corpus::default();
    let operators = generate_into(db, spec, &mut corpus);
    Generated { corpus, operators }
}

/// Generate the corpus [`generate`] would, handing each record to `sink`
/// as it is drawn, so no router is held. Stops before the next router
/// once the sink says it has [stopped](CorpusSink::stopped). Returns the
/// operator ground truth.
pub fn generate_into(
    db: &GeoDb,
    spec: &CorpusSpec,
    sink: &mut impl CorpusSink,
) -> Vec<OperatorSpec> {
    let (mut rng, cities, vps) = prologue(db, spec);
    let operators = make_operators(db, &cities, spec, &mut rng);
    populate(db, spec, &operators, &vps, rng, sink);
    operators
}

/// Generate a corpus for an explicit operator list (ground-truth suites
/// mimicking specific real networks) instead of synthesised operators.
pub fn generate_with_operators(
    db: &GeoDb,
    spec: &CorpusSpec,
    operators: Vec<OperatorSpec>,
) -> Generated {
    let (rng, _, vps) = prologue(db, spec);
    let mut corpus = Corpus::default();
    populate(db, spec, &operators, &vps, rng, &mut corpus);
    Generated { corpus, operators }
}

/// What every corpus starts from: the seeded RNG, the ranked cities and
/// the VPs.
fn prologue(db: &GeoDb, spec: &CorpusSpec) -> (StdRng, Vec<LocationId>, VpSet) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let cities = city_pool(db);
    let vps = make_vps(db, &cities, spec.vps, &mut rng);
    (rng, cities, vps)
}

fn populate(
    db: &GeoDb,
    spec: &CorpusSpec,
    operators: &[OperatorSpec],
    vps: &VpSet,
    mut rng: StdRng,
    sink: &mut impl CorpusSink,
) {
    let ping = RttModel::default();
    let tracer = ObservationModel::default();
    sink.header(&spec.label);
    for (_, vp) in vps.iter() {
        sink.vp(&vp.name, vp.coords);
    }

    // Transit operators for provider-side interconnection hostnames:
    // the largest geo-hinting operators.
    let mut transit: Vec<usize> = operators
        .iter()
        .enumerate()
        .filter(|(_, o)| o.style != NamingStyle::NoGeo && o.pops.len() >= 5)
        .map(|(i, _)| i)
        .collect();
    transit.truncate(5);

    let mut addr = AddrAlloc::new(spec.ipv6);
    for (oi, op) in operators.iter().enumerate() {
        let ctx = NameCtx::draw(&mut rng);
        for _ in 0..op.router_count {
            if op.pops.is_empty() {
                break;
            }
            if sink.stopped() {
                return;
            }
            // Zipf-ish PoP choice: PoP 0 is the operator's biggest site.
            let pi = (rng.random::<f64>().powi(2) * op.pops.len() as f64) as usize;
            let pop = &op.pops[pi.min(op.pops.len() - 1)];
            let city = db.location(pop.location).coords;
            // Routers sit within ~15 km of the city centroid.
            let coords = jitter(city, 0.15, &mut rng);
            sink.node(pop.location);

            let n_ifaces = 1 + (rng.random::<f64>().powi(3) * 3.0) as usize;
            // Hostname presence is a router-level property in real
            // ITDKs (an operator populates PTR records for a device or
            // not), so the per-router rate matches the table-1 targets.
            let router_named = rng.random::<f64>() < op.hostname_rate;
            for _ in 0..n_ifaces {
                if router_named && rng.random::<f64>() < 0.9 {
                    let (hostname, truth) = make_hostname(db, op, pop, &ctx, &mut rng);
                    sink.iface(&addr.next(), Some(&hostname));
                    sink.truth(truth);
                } else {
                    sink.iface(&addr.next(), None);
                }
            }

            // Provider-side interconnection interface (fig 3b): an
            // address out of a transit provider's space whose hostname
            // names the *provider's* PoP.
            if !transit.is_empty() && rng.random::<f64>() < spec.provider_side_fraction {
                let ti = transit[rng.random_range(0..transit.len())];
                if ti != oi {
                    let top = &operators[ti];
                    if let Some(tpop) = nearest_pop(db, top, &coords) {
                        let tctx = NameCtx::draw(&mut rng);
                        let prefix = render_prefix(&top.layout, &tctx, db, tpop, None, &mut rng);
                        sink.iface(&addr.next(), Some(&format!("{}.{}", prefix, top.suffix)));
                        sink.truth(HostnameTruth {
                            hint: Some(tpop.hint.clone()),
                            hint_location: Some(tpop.location),
                            stale: false,
                            provider_side: true,
                        });
                    }
                }
            }

            // Hostname presence and ping-responsiveness correlate:
            // managed infrastructure both answers probes and has PTR
            // records. Rates are solved so the aggregate stays at
            // `spec.rtt_response_rate`.
            let named_rate = (spec.rtt_response_rate + 0.35).min(0.97);
            let unnamed_rate = ((spec.rtt_response_rate - spec.hostname_rate * named_rate)
                / (1.0 - spec.hostname_rate).max(1e-6))
            .clamp(0.0, 1.0);
            let responsive = rng.random::<f64>()
                < if router_named {
                    named_rate
                } else {
                    unnamed_rate
                };
            let mut rtts = if responsive {
                ping.probe_from_all(vps, &coords, &mut rng)
            } else {
                RouterRtts::new()
            };
            let mut traceroute_rtts = tracer.observe(vps, &ping, &coords, &mut rng);
            sink.end_router(&mut rtts, &mut traceroute_rtts);
        }
    }
}

/// One hostname plus its ground truth for a router at `pop`.
fn make_hostname(
    db: &GeoDb,
    op: &OperatorSpec,
    pop: &Pop,
    ctx: &NameCtx,
    rng: &mut StdRng,
) -> (String, HostnameTruth) {
    if op.style == NamingStyle::NoGeo || rng.random::<f64>() < op.inconsistent_fraction {
        let prefix = if op.style == NamingStyle::NoGeo {
            render_prefix(&op.layout, ctx, db, pop, None, rng)
        } else {
            render_inconsistent(ctx, rng)
        };
        return (format!("{}.{}", prefix, op.suffix), HostnameTruth::none());
    }
    // Stale hostname: the hint names some *other* PoP of this operator.
    if op.pops.len() > 1 && rng.random::<f64>() < op.stale_fraction {
        let other = loop {
            let i = rng.random_range(0..op.pops.len());
            if op.pops[i].location != pop.location {
                break &op.pops[i];
            }
        };
        let prefix = render_prefix(&op.layout, ctx, db, pop, Some(&other.hint), rng);
        return (
            format!("{}.{}", prefix, op.suffix),
            HostnameTruth {
                hint: Some(other.hint.clone()),
                hint_location: Some(other.location),
                stale: true,
                provider_side: false,
            },
        );
    }
    let prefix = render_prefix(&op.layout, ctx, db, pop, None, rng);
    (
        format!("{}.{}", prefix, op.suffix),
        HostnameTruth {
            hint: Some(pop.hint.clone()),
            hint_location: Some(pop.location),
            stale: false,
            provider_side: false,
        },
    )
}

/// Cities sorted by population (descending) for weighted sampling.
fn city_pool(db: &GeoDb) -> Vec<LocationId> {
    let mut cities: Vec<(LocationId, u64)> = db
        .iter()
        .filter(|(_, l)| l.kind == LocationKind::City)
        .map(|(id, l)| (id, l.population))
        .collect();
    cities.sort_by_key(|(_, p)| std::cmp::Reverse(*p));
    cities.into_iter().map(|(id, _)| id).collect()
}

/// Population-biased city sample: squaring the uniform variate favours
/// the head of the ranked list (router deployment tracks population).
fn sample_city(cities: &[LocationId], rng: &mut StdRng) -> LocationId {
    let i = (rng.random::<f64>().powi(2) * cities.len() as f64) as usize;
    cities[i.min(cities.len() - 1)]
}

/// Countries where measurement infrastructure is dense. Ark/Atlas VPs
/// cluster in North America, Europe and a few Pacific-rim countries,
/// while routers are everywhere — the root cause of the paper's
/// figure-5 observation that the closest VP is often 1,000+ km away.
const VP_COUNTRIES: &[&str] = &[
    "us", "ca", "gb", "ie", "de", "nl", "be", "fr", "ch", "at", "se", "no", "fi", "dk", "es", "pt",
    "it", "gr", "pl", "cz", "hu", "tr", "jp", "kr", "sg", "hk", "au", "nz", "za", "ke", "br", "ar",
    "cl", "mx",
];

fn make_vps(db: &GeoDb, cities: &[LocationId], n: usize, rng: &mut StdRng) -> VpSet {
    let eligible: Vec<LocationId> = cities
        .iter()
        .copied()
        .filter(|&c| VP_COUNTRIES.contains(&db.location(c).country.as_str()))
        .collect();
    let cities: &[LocationId] = if eligible.is_empty() {
        cities
    } else {
        &eligible
    };
    let mut vps = VpSet::new();
    let mut used = HashSet::new();
    let mut guard = 0;
    while vps.len() < n.min(cities.len()) && guard < 10 * n + 100 {
        guard += 1;
        // VPs sit wherever volunteers host them — uniform over the
        // VP-hosting countries' cities, not population-weighted like
        // router deployment.
        let id = cities[rng.random_range(0..cities.len())];
        if !used.insert(id) {
            continue;
        }
        let l = db.location(id);
        let name = format!(
            "{}-{}",
            &l.hostname_form()[..l.hostname_form().len().min(3)],
            l.country.as_str()
        );
        vps.add(name, l.coords);
    }
    vps
}

const NAME_A: &[&str] = &[
    "swift", "nova", "terra", "omni", "alto", "border", "apex", "prime", "metro", "quanta",
    "vertex", "pulse", "strata", "helio", "aero", "cobalt", "zenith", "delta", "ion", "flux",
];
const NAME_B: &[&str] = &[
    "net", "link", "wave", "fiber", "path", "light", "core", "connect", "band", "grid",
];
const TLDS: &[(&str, f64)] = &[
    ("net", 0.45),
    ("com", 0.20),
    ("de", 0.07),
    ("fr", 0.05),
    ("co.uk", 0.06),
    ("net.au", 0.05),
    ("co.jp", 0.04),
    ("nl", 0.04),
    ("it", 0.04),
];

fn make_suffix(i: usize, rng: &mut StdRng) -> String {
    let a = NAME_A[rng.random_range(0..NAME_A.len())];
    let b = NAME_B[rng.random_range(0..NAME_B.len())];
    let mut u = rng.random::<f64>();
    let mut tld = "net";
    for (t, w) in TLDS {
        if u < *w {
            tld = t;
            break;
        }
        u -= w;
    }
    format!("{a}{b}{i}.{tld}")
}

fn style_for_geo_operator(rng: &mut StdRng) -> NamingStyle {
    // Mix tuned to the paper's table 4 (IATA 51.7%, city 38.9%,
    // CLLI 12.1%, LOCODE 1.3%, facility 0.3% of *good* NCs; the input
    // mix is similar with CLLI split as a rare variant).
    let u = rng.random::<f64>();
    if u < 0.50 {
        NamingStyle::Iata
    } else if u < 0.80 {
        NamingStyle::CityName
    } else if u < 0.90 {
        NamingStyle::Clli
    } else if u < 0.93 {
        NamingStyle::ClliSplit
    } else if u < 0.98 {
        NamingStyle::Locode
    } else {
        NamingStyle::Facility
    }
}

/// `(code, locations)` pairs sorted by code. The `GeoDb` maps iterate
/// in an order that differs between processes, and the reverse maps
/// below keep the first code they see, so they must see codes in a
/// fixed order.
fn in_code_order<'a>(
    pairs: impl Iterator<Item = (&'a str, &'a [LocationId])>,
) -> Vec<(&'a str, &'a [LocationId])> {
    let mut pairs: Vec<_> = pairs.collect();
    pairs.sort_unstable_by_key(|&(code, _)| code);
    pairs
}

fn make_operators(
    db: &GeoDb,
    cities: &[LocationId],
    spec: &CorpusSpec,
    rng: &mut StdRng,
) -> Vec<OperatorSpec> {
    // Zipf router budget across operators.
    // A flatter Zipf keeps any single suffix from dominating the
    // corpus-level statistics.
    let weights: Vec<f64> = (0..spec.operators)
        .map(|i| 1.0 / (i as f64 + 1.0).powf(0.72))
        .collect();
    let total_w: f64 = weights.iter().sum();

    // Map city → IATA code of the airport serving it (if any).
    let mut iata_for: HashMap<LocationId, String> = HashMap::new();
    {
        let mut per_city: HashMap<(String, String), String> = HashMap::new();
        for (code, ids) in in_code_order(db.iata_codes()) {
            for id in ids {
                let l = db.location(*id);
                per_city
                    .entry((l.name.to_ascii_lowercase(), l.country.as_str().to_string()))
                    .or_insert_with(|| code.to_string());
            }
        }
        for &city in cities {
            let l = db.location(city);
            if let Some(code) =
                per_city.get(&(l.name.to_ascii_lowercase(), l.country.as_str().to_string()))
            {
                iata_for.insert(city, code.clone());
            }
        }
    }
    // Reverse CLLI / LOCODE maps.
    let mut clli_for: HashMap<LocationId, String> = HashMap::new();
    for (code, ids) in in_code_order(db.clli_prefixes()) {
        for id in ids {
            clli_for.entry(*id).or_insert_with(|| code.to_string());
        }
    }
    let mut locode_for: HashMap<LocationId, String> = HashMap::new();
    for (code, ids) in in_code_order(db.locodes()) {
        for id in ids {
            locode_for.entry(*id).or_insert_with(|| code.to_string());
        }
    }
    let facility_cities: Vec<LocationId> = cities
        .iter()
        .copied()
        .filter(|c| !db.facility_tokens_in_city(*c).is_empty())
        .collect();

    let mut out = Vec::with_capacity(spec.operators);
    for (i, &weight) in weights.iter().enumerate().take(spec.operators) {
        let router_count = ((weight / total_w) * spec.routers as f64).round().max(1.0) as usize;
        let geo = rng.random::<f64>() < spec.geo_operator_fraction;
        let style = if geo {
            style_for_geo_operator(rng)
        } else {
            NamingStyle::NoGeo
        };
        let variants = Layout::variants(style);
        let layout = variants[rng.random_range(0..variants.len())].clone();

        let n_pops = (router_count / 6).clamp(1, 50).min(cities.len());
        let uses_custom = rng.random::<f64>() < spec.custom_hint_operator_fraction;
        // §5.4 intuition (1): the custom fraction of an operator's hint
        // dictionary is small.
        let custom_cap = (n_pops / 4).max(1);
        let mut customs = 0usize;
        let mut pops = Vec::new();
        let mut used_cities = HashSet::new();
        let mut used_hints = HashSet::new();
        let mut tries = 0;
        while pops.len() < n_pops && tries < n_pops * 20 + 40 {
            tries += 1;
            let city = if style == NamingStyle::Facility {
                if facility_cities.is_empty() {
                    break;
                }
                facility_cities[rng.random_range(0..facility_cities.len())]
            } else {
                sample_city(cities, rng)
            };
            if !used_cities.insert(city) {
                continue;
            }
            let (hint, custom) = match style {
                NamingStyle::Iata => {
                    let dict = iata_for.get(&city).cloned();
                    // §2: operators invent their own code mostly where
                    // the airport code has no obvious relation to the
                    // city name ("yyz", "iad", "nrt") — that is why the
                    // same custom hints ("tor", "ash", "tok") recur
                    // across many suffixes (table 5).
                    let nonmnemonic = dict
                        .as_ref()
                        .map(|d| {
                            !hoiho_geodb::is_abbreviation(
                                d,
                                &db.location(city).name,
                                &Default::default(),
                            )
                        })
                        .unwrap_or(true);
                    let p = if nonmnemonic {
                        (spec.custom_hint_rate * 3.0).min(0.6)
                    } else {
                        spec.custom_hint_rate * 0.2
                    };
                    let want_custom =
                        uses_custom && customs < custom_cap && rng.random::<f64>() < p;
                    match (dict, want_custom) {
                        (Some(code), false) => (Some(code), false),
                        (None, false) => (None, false), // PoPs follow airports
                        (dict, true) => {
                            let c = custom_hint_for(db, style, city, rng);
                            // A "custom" hint identical to the dictionary
                            // code is not custom at all.
                            match (c, dict) {
                                (Some(c), Some(d)) if c == d => (Some(d), false),
                                (Some(c), _) => (Some(c), true),
                                (None, d) => (d, false),
                            }
                        }
                    }
                }
                NamingStyle::Clli | NamingStyle::ClliSplit => {
                    let dict = clli_for.get(&city).cloned();
                    let want_custom = uses_custom
                        && customs < custom_cap
                        && rng.random::<f64>() < spec.custom_hint_rate;
                    match (dict, want_custom) {
                        (Some(code), false) => (Some(code), false),
                        (dict, _) => match (custom_hint_for(db, style, city, rng), dict) {
                            (Some(c), Some(d)) if c == d => (Some(d), false),
                            (Some(c), _) => (Some(c), true),
                            (None, d) => (d, false),
                        },
                    }
                }
                NamingStyle::Locode => {
                    let dict = locode_for.get(&city).cloned();
                    let want_custom = uses_custom
                        && customs < custom_cap
                        && rng.random::<f64>() < spec.custom_hint_rate;
                    match (dict, want_custom) {
                        (Some(code), false) => (Some(code), false),
                        (dict, _) => match (custom_hint_for(db, style, city, rng), dict) {
                            (Some(c), Some(d)) if c == d => (Some(d), false),
                            (Some(c), _) => (Some(c), true),
                            (None, d) => (d, false),
                        },
                    }
                }
                NamingStyle::CityName => {
                    let form = db.location(city).hostname_form();
                    let want_custom = uses_custom
                        && customs < custom_cap
                        && rng.random::<f64>() < spec.custom_hint_rate;
                    if want_custom {
                        match custom_hint_for(db, style, city, rng) {
                            Some(c) if c != form => (Some(c), true),
                            _ => (Some(form), false),
                        }
                    } else {
                        (Some(form), false)
                    }
                }
                NamingStyle::Facility => {
                    let toks = db.facility_tokens_in_city(city);
                    if toks.is_empty() {
                        (None, false)
                    } else {
                        (Some(toks[rng.random_range(0..toks.len())].0.clone()), false)
                    }
                }
                NamingStyle::NoGeo => (Some(String::new()), false),
            };
            let Some(hint) = hint else { continue };
            if style != NamingStyle::NoGeo && (hint.is_empty() || !used_hints.insert(hint.clone()))
            {
                continue;
            }
            customs += custom as usize;
            pops.push(Pop {
                location: city,
                hint,
                custom,
            });
        }

        // A third of operators are sloppy: legacy names, acquisitions,
        // half-migrated conventions. Their suffixes show apparent
        // geohints but rarely yield a usable NC — the paper's ~50%
        // "poor" mass (table 3).
        let inconsistent_fraction = if rng.random::<f64>() < spec.sloppy_operator_fraction {
            0.55 + rng.random::<f64>() * 0.40
        } else {
            0.05 + rng.random::<f64>() * 0.10
        };
        out.push(OperatorSpec {
            suffix: make_suffix(i, rng),
            style,
            layout,
            pops,
            router_count,
            hostname_rate: spec.hostname_rate,
            stale_fraction: spec.stale_fraction,
            inconsistent_fraction,
        });
    }
    out
}

fn nearest_pop<'a>(db: &GeoDb, op: &'a OperatorSpec, coords: &Coordinates) -> Option<&'a Pop> {
    op.pops.iter().min_by(|a, b| {
        let da = db.location(a.location).coords.distance_km(coords);
        let db_ = db.location(b.location).coords.distance_km(coords);
        da.total_cmp(&db_)
    })
}

fn jitter(c: Coordinates, deg: f64, rng: &mut StdRng) -> Coordinates {
    Coordinates::new(
        c.lat() + (rng.random::<f64>() - 0.5) * deg,
        c.lon() + (rng.random::<f64>() - 0.5) * deg,
    )
}

/// Sequential address allocator (documentation-range addresses).
struct AddrAlloc {
    ipv6: bool,
    n: u64,
}

impl AddrAlloc {
    fn new(ipv6: bool) -> AddrAlloc {
        AddrAlloc { ipv6, n: 0 }
    }

    fn next(&mut self) -> String {
        self.n += 1;
        if self.ipv6 {
            format!(
                "2001:db8:{:x}:{:x}::1",
                (self.n >> 16) & 0xffff,
                self.n & 0xffff
            )
        } else {
            format!(
                "10.{}.{}.{}",
                (self.n >> 16) & 0xff,
                (self.n >> 8) & 0xff,
                self.n & 0xff
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{write_corpus, CorpusWriter};

    fn small_spec() -> CorpusSpec {
        CorpusSpec {
            label: "test".into(),
            seed: 42,
            operators: 12,
            routers: 600,
            geo_operator_fraction: 0.6,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.8,
            rtt_response_rate: 0.85,
            vps: 20,
            custom_hint_operator_fraction: 0.4,
            custom_hint_rate: 0.2,
            stale_fraction: 0.01,
            provider_side_fraction: 0.01,
            ipv6: false,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        // Two dictionaries built in one process hash their maps with
        // different keys, so this also catches output that follows
        // `HashMap` iteration order.
        let a = generate(&GeoDb::builtin(), &small_spec());
        let b = generate(&GeoDb::builtin(), &small_spec());
        assert!(write_corpus(&a.corpus) == write_corpus(&b.corpus));
    }

    /// Generating into the text writer writes, and counts, the corpus
    /// `generate` keeps.
    #[test]
    fn generating_into_the_writer_writes_the_generated_corpus() {
        let db = GeoDb::builtin();
        let mut v6 = small_spec();
        v6.ipv6 = true;
        v6.hostname_rate = 0.15;
        for spec in [small_spec(), v6] {
            let g = generate(&db, &spec);
            let mut writer = CorpusWriter::new(Vec::new());
            let operators = generate_into(&db, &spec, &mut writer);
            let ops = |o: &[OperatorSpec]| format!("{o:?}");
            assert!(ops(&operators) == ops(&g.operators), "ipv6={}", spec.ipv6);
            let named = g.corpus.routers.iter().filter(|r| r.has_hostname());
            assert_eq!(
                (
                    writer.routers(),
                    writer.routers_with_hostname(),
                    writer.vps()
                ),
                (g.corpus.len(), named.count(), g.corpus.vps.len())
            );
            let text = writer.finish().expect("a Vec takes every write");
            assert!(
                text == write_corpus(&g.corpus).into_bytes(),
                "ipv6={}",
                spec.ipv6
            );
        }
    }

    /// Once the writer's output fails, the generator stops at the next
    /// router instead of drawing the rest of the corpus.
    #[test]
    fn generation_stops_once_the_writer_fails() {
        /// Takes `room` bytes, then fails every write.
        struct Full(usize);
        impl std::io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("device full"));
                }
                let n = buf.len().min(self.0);
                self.0 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let db = GeoDb::builtin();
        let spec = small_spec();
        let whole = generate(&db, &spec).corpus.len();
        let mut writer = CorpusWriter::new(Full(4096));
        generate_into(&db, &spec, &mut writer);
        let routers = writer.routers();
        assert!(writer.finish().is_err());
        assert!(
            (1..whole / 20).contains(&routers),
            "{routers} of {whole} node records"
        );
    }

    #[test]
    fn corpus_has_roughly_requested_size() {
        let db = GeoDb::builtin();
        let g = generate(&db, &small_spec());
        let n = g.corpus.len();
        assert!((500..800).contains(&n), "got {n}");
        assert_eq!(g.corpus.vps.len(), 20);
    }

    #[test]
    fn hostnames_end_with_operator_suffixes() {
        let db = GeoDb::builtin();
        let g = generate(&db, &small_spec());
        let suffixes: HashSet<&str> = g.operators.iter().map(|o| o.suffix.as_str()).collect();
        let mut seen = 0;
        for r in &g.corpus.routers {
            for h in r.hostnames() {
                assert!(
                    suffixes.iter().any(|s| h.ends_with(&format!(".{s}"))),
                    "{h} has unknown suffix"
                );
                seen += 1;
            }
        }
        assert!(seen > 100);
    }

    #[test]
    fn truth_hints_appear_in_hostnames() {
        let db = GeoDb::builtin();
        let g = generate(&db, &small_spec());
        let mut checked = 0;
        for r in &g.corpus.routers {
            for i in &r.interfaces {
                if let (Some(h), Some(t)) = (&i.hostname, &i.truth) {
                    if let Some(hint) = &t.hint {
                        // Split CLLI hostnames carry the hint in two
                        // pieces; all others verbatim.
                        let four = &hint[..hint.len().min(4)];
                        assert!(h.contains(four), "{h} should contain {hint}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn responsive_routers_have_ping_rtts() {
        let db = GeoDb::builtin();
        let g = generate(&db, &small_spec());
        let with_rtt = g
            .corpus
            .routers
            .iter()
            .filter(|r| !r.rtts.is_empty())
            .count();
        let frac = with_rtt as f64 / g.corpus.len() as f64;
        assert!((0.7..0.95).contains(&frac), "rtt fraction {frac}");
        // Every router was discovered by traceroute.
        assert!(g
            .corpus
            .routers
            .iter()
            .all(|r| !r.traceroute_rtts.is_empty()));
    }

    #[test]
    fn some_operators_have_custom_hints() {
        let db = GeoDb::builtin();
        let g = generate(&db, &small_spec());
        let custom: usize = g.operators.iter().map(|o| o.custom_hints().len()).sum();
        assert!(custom > 0, "expected custom hints in the ground truth");
    }

    #[test]
    fn ipv6_spec_generates_ipv6_addresses() {
        let db = GeoDb::builtin();
        let mut spec = small_spec();
        spec.ipv6 = true;
        spec.hostname_rate = 0.15;
        let g = generate(&db, &spec);
        assert!(g.corpus.routers[0].interfaces[0]
            .addr
            .starts_with("2001:db8:"));
    }

    #[test]
    fn stale_truth_points_at_another_pop() {
        let db = GeoDb::builtin();
        let mut spec = small_spec();
        spec.stale_fraction = 0.2; // exaggerate to observe
        let g = generate(&db, &spec);
        let mut stale = 0;
        for r in &g.corpus.routers {
            for i in &r.interfaces {
                if let Some(t) = &i.truth {
                    if t.stale {
                        assert_ne!(t.hint_location, Some(r.location));
                        stale += 1;
                    }
                }
            }
        }
        assert!(stale > 0);
    }
}
