//! Integration tests reproducing the paper's worked examples
//! (figures 1, 3, 6 and 8) across crate boundaries.

use hoiho::apparent::tag_prefix;
use hoiho::train::{SuffixSet, TrainHost};
use hoiho::Hoiho;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, GeohintType, Rtt};
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};

fn world() -> (GeoDb, PublicSuffixList, VpSet) {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let mut vps = VpSet::new();
    vps.add("dca-us", Coordinates::new(38.9, -77.0)); // 0: near Ashburn
    vps.add("lcy-gb", Coordinates::new(51.5, 0.05)); // 1: London
    vps.add("zrh-ch", Coordinates::new(47.38, 8.54)); // 2: Zurich
    (db, psl, vps)
}

/// A `(router, hostname, vp, ms)` row: one sample per router.
type Row<'r> = (u32, &'r str, u16, f64);

/// The RTTs of each row.
fn measure(rows: &[Row]) -> Vec<RouterRtts> {
    rows.iter()
        .map(|&(_, _, vp, ms)| {
            let mut rtts = RouterRtts::new();
            rtts.record(VpId(vp), Rtt::from_ms(ms));
            rtts
        })
        .collect()
}

/// The training hosts of `rows` under `suffix`, each borrowing its
/// row's RTTs from `rtts` (as [`measure`] built them).
fn hosts<'a>(
    db: &GeoDb,
    vps: &VpSet,
    suffix: &str,
    rows: &[Row],
    rtts: &'a [RouterRtts],
) -> Vec<TrainHost<'a>> {
    let table = BestCaseTable::new(vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
    rows.iter()
        .zip(rtts)
        .map(|(&(router, hostname, _, _), rtts)| {
            let prefix = hostname
                .strip_suffix(&format!(".{suffix}"))
                .expect("suffix matches");
            TrainHost::new(
                db,
                &table,
                hostname.to_string(),
                prefix.len(),
                router,
                rtts.samples(),
            )
        })
        .collect()
}

/// Figure 1: six different operator conventions all place routers in
/// Ashburn VA; the conventions are learnable and the colliding "ash"
/// IATA code is reinterpreted.
#[test]
fn figure1_ashburn_conventions() {
    let (db, psl, vps) = world();
    // he.net-style with the colliding custom "ash" plus support cities.
    let rows = [
        (0, "100ge1-2.core1.ash1.example.net", 0, 3.0),
        (1, "100ge10-1.core2.ash1.example.net", 0, 3.0),
        (2, "ve401.core2.ash2.example.net", 0, 5.0),
        (3, "ge0-1.core1.lhr1.example.net", 1, 2.0),
        (4, "ge0-2.core3.zrh1.example.net", 2, 2.0),
        (5, "ge0-3.core1.fra2.example.net", 2, 5.0),
    ];
    let rtts = measure(&rows);
    let hosts = hosts(&db, &vps, "example.net", &rows, &rtts);

    let hoiho = Hoiho::new(&db, &psl);
    let result = hoiho.learn_suffix(
        &vps,
        &SuffixSet {
            suffix: "example.net".into(),
            hosts,
        },
    );
    assert!(result.class.usable(), "class was {}", result.class);
    let ash = result
        .learned
        .get("ash", GeohintType::Iata)
        .expect("ash learned");
    let l = db.location(ash);
    assert_eq!(l.name, "Ashburn");
    assert_eq!(l.state.expect("VA").as_str(), "va");
}

/// Figure 3a: a stale hostname (lvs on an Ashburn router) must not
/// poison the convention — it scores FP and the NC survives.
#[test]
fn figure3a_stale_hostname_tolerated() {
    let (db, psl, vps) = world();
    let rows = [
        (1, "xe-0-0.iad1-bcr1.bb.example.com", 0, 3.0),
        (1, "xe-0-1.iad1-bcr1.bb.example.com", 0, 3.0),
        (1, "xe-0-2.iad1-bcr1.bb.example.com", 0, 3.0),
        // Stale: the router is in Ashburn (3ms from DC) but the name
        // says Las Vegas.
        (1, "xe-0-3.las1-bcr2.bb.example.com", 0, 3.0),
        (2, "xe-1-0.bwi1-bcr1.bb.example.com", 0, 2.0),
        (3, "xe-2-0.ric2-bcr1.bb.example.com", 0, 4.0),
    ];
    let rtts = measure(&rows);
    let hosts = hosts(&db, &vps, "bb.example.com", &rows, &rtts);
    let hoiho = Hoiho::new(&db, &psl);
    let result = hoiho.learn_suffix(
        &vps,
        &SuffixSet {
            suffix: "bb.example.com".into(),
            hosts,
        },
    );
    let m = result.metrics.expect("metrics");
    assert!(m.tp >= 5, "tp={}", m.tp);
    assert_eq!(m.fp, 1, "the stale hostname is the one FP");
    assert!(result.class.usable());
}

/// Figure 6 forms: each of the paper's six hostname shapes is tagged
/// with the right hint type by stage 2.
#[test]
fn figure6_tagging_shapes() {
    let (db, _psl, vps) = world();
    let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
    let tag_types = |prefix: &str, vp: u16, ms: f64| -> Vec<GeohintType> {
        let mut rtts = RouterRtts::new();
        rtts.record(VpId(vp), Rtt::from_ms(ms));
        tag_prefix(&db, rtts.samples(), prefix, &table)
            .into_iter()
            .map(|t| t.ty)
            .collect()
    };
    assert!(tag_types("zayo-ntt.mpr1.lhr15.uk.zip", 1, 2.0).contains(&GeohintType::Iata));
    assert!(tag_types("ae-2-52.edge4.brussels1", 1, 6.0).contains(&GeohintType::CityName));
    assert!(tag_types("xe-0-0-28-0.a02.snjsca04.us.bb", 0, 70.0).contains(&GeohintType::Clli));
    assert!(tag_types("ae2-0.agr02-mtgm01-al", 0, 15.0).contains(&GeohintType::Clli));
    assert!(tag_types("0.af0.rcmdva83-mse01-a-ie1", 0, 4.0).contains(&GeohintType::Clli));
    assert!(tag_types("be-232.1118thave.ny", 0, 4.0).contains(&GeohintType::Facility));
}

/// Figure 8b end-to-end through the public pipeline API: the invented
/// CLLI "mlanit, it" is learned from one congruent router because the
/// regex extracts a country code.
#[test]
fn figure8b_invented_clli_via_pipeline() {
    let (db, psl, vps) = world();
    let rows = [
        (1, "ae-7.r02.mlanit01.it.bb.gin.example.net", 2, 6.0),
        (2, "ae-3.r21.mlanit02.it.bb.gin.example.net", 2, 6.0),
        (3, "x0.r01.zrchzh01.ch.bb.gin.example.net", 2, 1.0),
        (4, "x1.r01.gnvege01.ch.bb.gin.example.net", 2, 4.0),
        (5, "x2.r01.mnchby01.de.bb.gin.example.net", 2, 4.5),
        (6, "x3.r02.londen02.gb.bb.gin.example.net", 1, 1.5),
    ];
    let rtts = measure(&rows);
    let hosts = hosts(&db, &vps, "gin.example.net", &rows, &rtts);
    let hoiho = Hoiho::new(&db, &psl);
    let result = hoiho.learn_suffix(
        &vps,
        &SuffixSet {
            suffix: "gin.example.net".into(),
            hosts,
        },
    );
    let loc = result
        .learned
        .get("mlanit", GeohintType::Clli)
        .expect("mlanit learned");
    assert_eq!(db.location(loc).name, "Milan");
    let m = result.metrics.expect("metrics");
    assert_eq!(m.fp, 0);
    assert_eq!(m.unk, 0, "mlanit resolved after learning");
}

/// §4 challenge 5: chance IATA collisions ("eth0", "gig1") in hostnames
/// without geographic intent must not yield a usable NC.
#[test]
fn chance_collisions_do_not_fool_learner() {
    let (db, psl, vps) = world();
    // "eth"/"gig" are IATA codes (Eilat, Rio) but these routers are all
    // near Washington DC: the hints are never RTT-consistent.
    let rows = [
        (1, "eth0.cust100.noise.example.org", 0, 2.0),
        (2, "eth1.cust101.noise.example.org", 0, 3.0),
        (3, "gig1-2.cust102.noise.example.org", 0, 2.5),
        (4, "gig2-2.cust103.noise.example.org", 0, 1.5),
        (5, "eth2.cust104.noise.example.org", 0, 2.2),
    ];
    let rtts = measure(&rows);
    let hosts = hosts(&db, &vps, "noise.example.org", &rows, &rtts);
    let hoiho = Hoiho::new(&db, &psl);
    let result = hoiho.learn_suffix(
        &vps,
        &SuffixSet {
            suffix: "noise.example.org".into(),
            hosts,
        },
    );
    assert!(
        !result.class.usable(),
        "noise suffix must not produce a usable NC (got {})",
        result.class
    );
}
