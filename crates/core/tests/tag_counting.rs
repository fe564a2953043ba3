//! Every feasibility probe counts toward `rtt.consistency.*`, including
//! those of a standalone `tag_prefix` call outside a learn. This binary
//! owns the process-wide registry, so no other test's counting can leak
//! into the comparison.

use hoiho::apparent::tag_prefix;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, Rtt};
use hoiho_rtt::{consistency::BestCaseTable, ConsistencyPolicy, RouterRtts, VpId, VpSet};

#[test]
fn standalone_tagging_counts_its_probes() {
    let db = GeoDb::builtin();
    let mut vps = VpSet::new();
    vps.add("dca-us", Coordinates::new(38.9, -77.0));
    vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
    // A London router: 2 ms from the London VP, 75 ms from DC.
    let mut rtts = RouterRtts::new();
    rtts.record(VpId(0), Rtt::from_ms(75.0));
    rtts.record(VpId(1), Rtt::from_ms(2.0));

    let obs = hoiho_obs::global();
    obs.set_enabled(true);
    obs.reset();
    let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
    let tags = tag_prefix(&db, rtts.samples(), "zayo-ntt.mpr1.lhr15.uk", &table);
    let counters = obs.snapshot().counters;
    assert!(tags.iter().any(|t| t.text == "lhr"), "{tags:?}");
    let accepts = counters.get("rtt.consistency.accept").copied();
    assert!(
        accepts.is_some_and(|n| n > 0),
        "accepted probes went uncounted: {counters:?}"
    );
}
