//! Cross-crate property-based tests, driven by a seeded internal PRNG
//! (the offline build has no property-testing framework; each test
//! enumerates a few hundred deterministic random cases instead).

use hoiho::apparent::tag_prefix;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::rtt::max_distance_km;
use hoiho_geotypes::{Coordinates, LocationId, Rtt};
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::rng::{Rng, StdRng};
use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};

fn vpset() -> VpSet {
    let mut vps = VpSet::new();
    vps.add("dca-us", Coordinates::new(38.9, -77.0));
    vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
    vps.add("nrt-jp", Coordinates::new(35.77, 140.39));
    vps
}

/// 1–4 dot-joined labels over `[a-z0-9-]{1,12}`.
fn hostname_prefix(rng: &mut StdRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let labels = rng.random_range(1..5usize);
    let mut out = String::new();
    for i in 0..labels {
        if i > 0 {
            out.push('.');
        }
        let len = rng.random_range(1..13usize);
        for _ in 0..len {
            out.push(CHARS[rng.random_range(0..CHARS.len())] as char);
        }
    }
    out
}

/// Stage-2 tagging never panics and every tag's span points at its
/// text, for arbitrary hostname prefixes.
#[test]
fn tagging_is_total_and_spans_are_valid() {
    let db = GeoDb::builtin();
    let vps = vpset();
    let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
    let mut rng = StdRng::seed_from_u64(0x7A61);
    for _ in 0..128 {
        let prefix = hostname_prefix(&mut rng);
        let rtt_ms = 0.5 + rng.random::<f64>() * 199.5;
        let vp = rng.random_range(0..3u16);
        let mut rtts = RouterRtts::new();
        rtts.record(VpId(vp), Rtt::from_ms(rtt_ms));
        let tags = tag_prefix(&db, rtts.samples(), &prefix, &table);
        for t in &tags {
            assert!(t.start < t.end, "{prefix}: empty span");
            assert!(t.end <= prefix.len(), "{prefix}: span out of range");
            // For unsplit tags the text is the literal span (CLLI heads
            // truncate to six characters).
            if t.split.is_none() {
                assert!(
                    prefix[t.start..t.end].starts_with(t.text.chars().next().unwrap_or('?')),
                    "{prefix}: tag text {} not at span",
                    t.text
                );
            }
            // Tagged locations were RTT-feasible: within the measuring
            // VP's speed-of-light radius.
            let radius = max_distance_km(Rtt::from_ms(rtt_ms));
            for loc in &t.locations {
                let d = vps
                    .get(VpId(vp))
                    .coords
                    .distance_km(&db.location(*loc).coords);
                assert!(d <= radius, "{prefix}: {} is {d} km out", t.text);
            }
        }
    }
}

/// The public suffix list produces suffixes that are suffixes.
#[test]
fn registerable_suffix_is_a_suffix() {
    const TLDS: &[&str] = &["com", "net", "org", "de", "net.au", "co.uk"];
    let psl = PublicSuffixList::builtin();
    let mut rng = StdRng::seed_from_u64(0x9511);
    for _ in 0..128 {
        let prefix = hostname_prefix(&mut rng);
        let tld = TLDS[rng.random_range(0..TLDS.len())];
        let host = format!("{prefix}.example.{tld}");
        let sfx = psl.registerable_suffix(&host);
        assert!(sfx.is_some(), "no suffix for {host}");
        let sfx = sfx.unwrap();
        assert!(host.ends_with(&sfx), "{sfx} not a suffix of {host}");
        assert!(sfx.starts_with("example."), "unexpected suffix {sfx}");
    }
}

/// Base regexes built from any tagged hostname match that hostname.
#[test]
fn base_regexes_match_their_source() {
    const ROLES: &[&str] = &["cr", "gw", "core"];
    const CODES: &[&str] = &["lhr", "sea", "ams", "fra", "prg"];
    let db = GeoDb::builtin();
    let vps = vpset();
    let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    for _ in 0..128 {
        let role = format!(
            "{}{}",
            ROLES[rng.random_range(0..ROLES.len())],
            rng.random_range(0..10u8)
        );
        let code = CODES[rng.random_range(0..CODES.len())];
        let n = rng.random_range(1..99u8);
        let prefix = format!("{role}.{code}{n}");
        let mut rtts = RouterRtts::new();
        // Loose constraint: everything feasible, so the hint is tagged.
        rtts.record(VpId(0), Rtt::from_ms(500.0));
        let tags = tag_prefix(&db, rtts.samples(), &prefix, &table);
        assert!(!tags.is_empty(), "nothing tagged in {prefix}");
        let hostname = format!("{prefix}.example.net");
        let regexes = hoiho::builder::base_regexes_for_host(&prefix, &tags, "example.net");
        assert!(!regexes.is_empty(), "no regexes for {prefix}");
        let mut matched_any = false;
        for r in &regexes {
            if let Some(e) = r.extract(&hostname) {
                matched_any = true;
                // The extraction is a substring of the hostname.
                assert!(hostname.contains(&e.hint));
            }
        }
        assert!(matched_any, "no base regex matched {hostname}");
    }
}

/// RTT consistency is monotone in the measurement: a larger RTT never
/// makes a feasible location infeasible.
#[test]
fn consistency_monotone_in_rtt() {
    let vps = vpset();
    let mut rng = StdRng::seed_from_u64(0x0113);
    for _ in 0..256 {
        let lat = -60.0 + rng.random::<f64>() * 120.0;
        let lon = -180.0 + rng.random::<f64>() * 360.0;
        let ms = 1.0 + rng.random::<f64>() * 299.0;
        let extra = rng.random::<f64>() * 100.0;
        let cand = Coordinates::new(lat, lon);
        let mut small = RouterRtts::new();
        small.record(VpId(0), Rtt::from_ms(ms));
        let mut large = RouterRtts::new();
        large.record(VpId(0), Rtt::from_ms(ms + extra));
        let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, [cand], &[]);
        if table.feasibility(small.samples(), LocationId(0)) {
            assert!(
                table.feasibility(large.samples(), LocationId(0)),
                "({lat},{lon}) feasible at {ms}ms but not {}ms",
                ms + extra
            );
        }
    }
}
