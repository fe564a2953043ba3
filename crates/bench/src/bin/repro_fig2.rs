//! Figure 2: DRoP's rigid rules match only a subset of a suffix's
//! hostnames, while Hoiho's learned regexes cover all of them.
//!
//! Paper shape: DRoP's 360.net rule matches 3 of 7 hostnames (it
//! expects a fixed segment count and no digit sequences); Hoiho's
//! learned NC matches all 7.

use hoiho::train::{SuffixSet, TrainHost};
use hoiho::Hoiho;
use hoiho_baselines::drop::{Drop, DropForm, DropRule};
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, Rtt};
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};

fn main() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let mut vps = VpSet::new();
    let lcy = vps.add("lcy-gb", Coordinates::new(51.5, 0.05));

    // Seven hostnames in the style of the paper's 360.net example:
    // same convention, varying front structure and counter widths, all
    // on European routers seen from a London VP.
    let hosts: Vec<(&str, f64)> = vec![
        ("cr1.lon1.threesixty.net", 1.0),
        ("cr2.vie1.threesixty.net", 14.0),
        ("cr1.fra2.threesixty.net", 10.0),
        ("xe-0-0-0.cr1.ams15.threesixty.net", 6.0),
        ("ae1.cr3.lhr101.threesixty.net", 1.0),
        ("xe-1-2-3.cr2.mad3.threesixty.net", 14.0),
        ("gig1.cr1.prg12.threesixty.net", 13.0),
    ];

    let rtts: Vec<RouterRtts> = hosts
        .iter()
        .map(|&(_, ms)| {
            let mut rtts = RouterRtts::new();
            rtts.record(VpId(lcy.0), Rtt::from_ms(ms));
            rtts
        })
        .collect();
    let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
    let train: Vec<TrainHost> = hosts
        .iter()
        .zip(&rtts)
        .enumerate()
        .map(|(i, ((h, _), rtts))| {
            let prefix = h.strip_suffix(".threesixty.net").expect("suffix");
            let rtts = rtts.samples();
            TrainHost::new(&db, &table, h.to_string(), prefix.len(), i as u32, rtts)
        })
        .collect();

    // Hoiho learns the suffix's convention from these hostnames.
    let hoiho = Hoiho::new(&db, &psl);
    let set = SuffixSet {
        suffix: "threesixty.net".into(),
        hosts: train,
    };
    let result = hoiho.learn_suffix(&vps, &set);
    let nc = result.nc.expect("an NC was learned");

    // DRoP's rule for the same suffix: hint in the last prefix label of
    // a two-label hostname, at most short counters.
    let mut drop = Drop::default();
    drop.insert_rule(
        "threesixty.net",
        DropRule {
            labels: 2,
            from_end: 0,
            form: DropForm::Iata,
        },
    );

    println!("\n# Figure 2 — rule coverage on threesixty.net (360.net-style)\n");
    println!("hoiho NC:");
    for r in &nc.regexes {
        println!("  {r}");
    }
    println!("\ndrop rule: 2 labels, hint at last label, ≤2-digit counter\n");

    let mut hoiho_hits = 0;
    let mut drop_hits = 0;
    for (h, _) in &hosts {
        let hoiho_ok = nc.extract(h).is_some();
        let drop_ok = drop.geolocate(&db, &psl, h).is_some();
        hoiho_hits += hoiho_ok as usize;
        drop_hits += drop_ok as usize;
        println!(
            "  {:38} hoiho={} drop={}",
            h,
            if hoiho_ok { "✓" } else { "✗" },
            if drop_ok { "✓" } else { "✗" }
        );
    }
    println!("\nhoiho matches {hoiho_hits}/7, drop matches {drop_hits}/7 (paper: 7/7 vs 3/7)");
    assert!(hoiho_hits > drop_hits, "Hoiho must out-cover DRoP");
}
