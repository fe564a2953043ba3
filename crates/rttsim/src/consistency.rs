//! The RTT-consistency predicate (§5.2).
//!
//! *"For each router-VP pair, our method calculates the theoretical
//! best-case RTT between the candidate geohint's location and the VP's
//! location according to the speed of light in a fiber optic cable. If
//! the theoretical best-case RTT is smaller than the measured RTT for
//! all VPs, then the measured RTT is RTT-consistent."*
//!
//! The same test, read as distance against
//! [`max_distance_km`](hoiho_geotypes::rtt::max_distance_km), is the
//! constraint-based geolocation (CBG) feasibility test the §3.3 audit
//! applies: a point is feasible when it lies inside every VP's disk.
//! [`BestCaseTable`] answers both.

use crate::{VpId, VpSet};
use hoiho_geotypes::{rtt::best_case_rtt_ms, Coordinates, LocationId, Rtt};
use std::sync::OnceLock;

/// Tunables for the feasibility test.
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyPolicy {
    /// Additive slack in milliseconds granted to the measured RTT before
    /// comparison. 0 reproduces the paper's strict test; DRoP-style
    /// continent-scale constraints use a large value.
    pub slack_ms: f64,
}

impl Default for ConsistencyPolicy {
    fn default() -> Self {
        ConsistencyPolicy { slack_ms: 0.0 }
    }
}

impl ConsistencyPolicy {
    /// The strict test used by Hoiho.
    pub const STRICT: ConsistencyPolicy = ConsistencyPolicy { slack_ms: 0.0 };

    /// A deliberately coarse, continent-scale test approximating DRoP's
    /// traceroute-RTT-only constraints (§3.3: "their RTT measurements
    /// roughly constrained locations to within a continent").
    pub const CONTINENT: ConsistencyPolicy = ConsistencyPolicy { slack_ms: 35.0 };
}

/// The feasibility test over a fixed set of candidate locations.
///
/// Location `loc` is feasible for a router when, for every sample the
/// table counts, `best_case_rtt_ms(vp, loc) <= measured + slack_ms`. A
/// router with no counted samples is vacuously feasible everywhere;
/// callers ask [`BestCaseTable::constrains`] when that case matters.
///
/// The left-hand side is precomputed: one row per candidate location
/// holding the best case from every VP of one [`VpSet`], so a probe is
/// one compare per sample instead of one great-circle distance per
/// sample. The table owns the candidates' coordinates, so a probe names
/// only the location id.
///
/// The table is also the one place that decides which samples count.
/// The VPs it is built to ignore (the spoofing VPs of §5.1.4) hold
/// `f64::NEG_INFINITY` in every row, so their samples pass every
/// compare: a probe answers as if
/// [`strip_vps`](crate::fault::strip_vps)`(samples, ignored)` had
/// removed them, with no stripped copy made.
///
/// Rows are filled on first use and never change, so one table can be
/// shared by every thread of a learn.
#[derive(Debug)]
pub struct BestCaseTable {
    vps: Vec<Coordinates>,
    ignored: Vec<bool>,
    policy: ConsistencyPolicy,
    rows: Vec<(Coordinates, OnceLock<Box<[f64]>>)>,
}

impl BestCaseTable {
    /// An empty table for `vps` under `policy` whose location id `i` is
    /// the `i`-th of `locations`, and that ignores every sample taken by
    /// a VP in `ignored` (pass `&[]` to count them all).
    pub fn new(
        vps: &VpSet,
        policy: &ConsistencyPolicy,
        locations: impl IntoIterator<Item = Coordinates>,
        ignored: &[VpId],
    ) -> BestCaseTable {
        BestCaseTable {
            vps: vps.iter().map(|(_, vp)| vp.coords).collect(),
            ignored: vps.iter().map(|(id, _)| ignored.contains(&id)).collect(),
            policy: *policy,
            rows: locations
                .into_iter()
                .map(|c| (c, OnceLock::new()))
                .collect(),
        }
    }

    /// Whether any of a router's samples comes from a VP the table does
    /// not ignore: a router it does not constrain is feasible anywhere.
    pub fn constrains(&self, samples: &[(VpId, Rtt)]) -> bool {
        samples
            .iter()
            .any(|(vp, _)| self.ignored.get(vp.0 as usize) != Some(&true))
    }

    /// Whether location `loc` is feasible for a router's samples,
    /// skipping the ignored VPs'. Counts the answer toward
    /// `rtt.consistency.{accept,reject}`; the test runs in the innermost
    /// learner loops, so even a cached atomic add is only paid when
    /// observability is on.
    ///
    /// # Panics
    /// Panics when `loc` is outside the table or a sample names a VP
    /// outside the table's set.
    pub fn feasibility(&self, samples: &[(VpId, Rtt)], loc: LocationId) -> bool {
        let (candidate, row) = &self.rows[loc.0 as usize];
        let row = row.get_or_init(|| {
            self.vps
                .iter()
                .zip(&self.ignored)
                .map(|(vp, &ignored)| {
                    if ignored {
                        f64::NEG_INFINITY
                    } else {
                        best_case_rtt_ms(vp, candidate)
                    }
                })
                .collect()
        });
        let ok = samples
            .iter()
            .all(|(vp, measured)| row[vp.0 as usize] <= measured.as_ms() + self.policy.slack_ms);
        if hoiho_obs::enabled() {
            if ok {
                hoiho_obs::counter!("rtt.consistency.accept").inc();
            } else {
                hoiho_obs::counter!("rtt.consistency.reject").inc();
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouterRtts;
    use hoiho_geotypes::rtt::max_distance_km;

    /// The paper's predicate written out directly, with no table: the
    /// oracle [`BestCaseTable::feasibility`] is checked against.
    fn feasibility(
        vps: &VpSet,
        samples: &RouterRtts,
        candidate: &Coordinates,
        policy: &ConsistencyPolicy,
    ) -> bool {
        samples.samples().iter().all(|(vp, measured)| {
            let best = best_case_rtt_ms(&vps.get(*vp).coords, candidate);
            best <= measured.as_ms() + policy.slack_ms
        })
    }

    /// One probe of a table over the single location `candidate`.
    fn consistent(
        vps: &VpSet,
        samples: &RouterRtts,
        candidate: Coordinates,
        policy: &ConsistencyPolicy,
    ) -> bool {
        BestCaseTable::new(vps, policy, [candidate], &[])
            .feasibility(samples.samples(), LocationId(0))
    }

    fn world() -> (VpSet, Coordinates, Coordinates) {
        let mut vps = VpSet::new();
        vps.add("dca-us", Coordinates::new(38.9, -77.0));
        let ashburn = Coordinates::new(39.04, -77.49);
        let london = Coordinates::new(51.5, -0.1);
        (vps, ashburn, london)
    }

    #[test]
    fn nearby_hint_is_consistent_with_small_rtt() {
        let (vps, ashburn, _) = world();
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(3.0));
        assert!(consistent(&vps, &s, ashburn, &ConsistencyPolicy::STRICT));
    }

    #[test]
    fn faraway_hint_is_inconsistent_with_small_rtt() {
        // Figure 3a: 3ms from a VP near College Park MD rules out Las
        // Vegas; here 3ms rules out London.
        let (vps, _, london) = world();
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(3.0));
        assert!(!consistent(&vps, &s, london, &ConsistencyPolicy::STRICT));
    }

    #[test]
    fn any_single_violating_vp_rejects() {
        let (mut vps, ashburn, _) = world();
        let ams = vps.add("ams-nl", Coordinates::new(52.4, 4.9));
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(500.0)); // loose
        s.record(ams, Rtt::from_ms(2.0)); // impossible from Amsterdam
        assert!(!consistent(&vps, &s, ashburn, &ConsistencyPolicy::STRICT));
    }

    #[test]
    fn no_samples_is_vacuously_consistent() {
        let (vps, ashburn, _) = world();
        assert!(consistent(
            &vps,
            &RouterRtts::new(),
            ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn continent_policy_is_looser() {
        let (vps, _, london) = world();
        let mut s = RouterRtts::new();
        // 45ms from DC: strictly rules out London (best case ~59ms) but
        // the continent-scale policy lets it through.
        s.record(VpId(0), Rtt::from_ms(45.0));
        assert!(!consistent(&vps, &s, london, &ConsistencyPolicy::STRICT));
        assert!(consistent(&vps, &s, london, &ConsistencyPolicy::CONTINENT));
    }

    /// The strict test is CBG's: a point is feasible exactly when it is
    /// within `max_distance_km(rtt)` of the VP.
    #[test]
    fn feasible_matches_constraint_maths() {
        let (vps, ashburn, london) = world();
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(10.0)); // ≤ ~1000 km from DC
        let dca = vps.get(VpId(0)).coords;
        for (point, want) in [(ashburn, true), (london, false)] {
            let within = dca.distance_km(&point) <= max_distance_km(Rtt::from_ms(10.0));
            assert_eq!(within, want);
            assert_eq!(
                consistent(&vps, &s, point, &ConsistencyPolicy::STRICT),
                want
            );
        }
    }

    #[test]
    fn contradictory_constraints_are_infeasible_everywhere() {
        // Spoofed RTTs: 1 ms from both coasts is physically impossible.
        let mut vps = VpSet::new();
        vps.add("dca", Coordinates::new(38.9, -77.0));
        vps.add("sfo", Coordinates::new(37.77, -122.42));
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(1.0));
        s.record(VpId(1), Rtt::from_ms(1.0));
        for (_, vp) in vps.iter() {
            assert!(!consistent(&vps, &s, vp.coords, &ConsistencyPolicy::STRICT));
        }
    }

    /// The table answers exactly what the pure predicate answers over
    /// the samples left once its ignored VPs are stripped, for random
    /// samples, locations and ignored subsets, under both named policies
    /// and one with its own slack, from cold and filled rows alike; and
    /// it constrains a router exactly when that stripped copy is
    /// non-empty.
    #[test]
    fn best_case_table_matches_feasibility() {
        use crate::fault::strip_vps;
        use crate::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xB357);
        let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.random::<f64>();
        let mut place = || Coordinates::new(uniform(-60.0, 70.0), uniform(-180.0, 180.0));
        let mut vps = VpSet::new();
        for i in 0..40 {
            vps.add(format!("vp{i}"), place());
        }
        let locations: Vec<Coordinates> = (0..300).map(|_| place()).collect();
        let slack = ConsistencyPolicy { slack_ms: 2.0 };
        for policy in [
            ConsistencyPolicy::STRICT,
            ConsistencyPolicy::CONTINENT,
            slack,
        ] {
            for round in 0..3 {
                // No VP ignored first, then random subsets of them.
                let ignored: Vec<VpId> = vps
                    .iter()
                    .map(|(id, _)| id)
                    .filter(|_| round > 0 && rng.random_range(0..4u32) == 0)
                    .collect();
                let table = BestCaseTable::new(&vps, &policy, locations.iter().copied(), &ignored);
                let (mut yes, mut no, mut unconstrained) = (0, 0, 0);
                for _ in 0..3000 {
                    let mut s = RouterRtts::new();
                    for _ in 0..rng.random_range(0..6usize) {
                        let vp = VpId(rng.random_range(0..vps.len()) as u16);
                        s.record(vp, Rtt::from_ms(300.0 * rng.random::<f64>()));
                    }
                    let stripped = strip_vps(&s, &ignored);
                    let i = rng.random_range(0..locations.len());
                    let want = feasibility(&vps, &stripped, &locations[i], &policy);
                    let got = table.feasibility(s.samples(), LocationId(i as u32));
                    assert_eq!(
                        got,
                        want,
                        "location {i}, samples {:?}, ignored {ignored:?}",
                        s.samples()
                    );
                    assert_eq!(table.constrains(s.samples()), !stripped.is_empty());
                    unconstrained += usize::from(!table.constrains(s.samples()));
                    if want {
                        yes += 1;
                    } else {
                        no += 1;
                    }
                }
                assert!(yes > 100 && no > 100, "both answers exercised: {yes}/{no}");
                assert!(unconstrained > 100, "unconstrained routers exercised");
            }
        }
    }
}
