//! The RTT-consistency predicate (§5.2).
//!
//! *"For each router-VP pair, our method calculates the theoretical
//! best-case RTT between the candidate geohint's location and the VP's
//! location according to the speed of light in a fiber optic cable. If
//! the theoretical best-case RTT is smaller than the measured RTT for
//! all VPs, then the measured RTT is RTT-consistent."*

use crate::{RouterRtts, VpSet};
use hoiho_geotypes::{rtt::best_case_rtt_ms, Coordinates, LocationId};
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

/// The pure feasibility predicate: whether `candidate` is feasible for
/// a router given all of its RTT samples. A router with no samples is
/// vacuously consistent (the paper can only tag hints on routers with
/// constraints; callers decide how to treat the unconstrained case).
///
/// This is a pure function of `(samples, candidate, policy)` with no
/// observability side effects. The learner asks a [`BestCaseTable`]
/// instead, which answers exactly what this function would.
pub fn feasibility(
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

/// The left-hand side of [`feasibility`]'s comparison, precomputed:
/// one row per candidate location holding
/// `best_case_rtt_ms(vp, location)` for every VP of one [`VpSet`]. The
/// policy's slack is added to the measurement at each compare.
///
/// Rows are filled on first use and never change, so one table can be
/// shared by every thread of a learn. A feasibility test is then one
/// compare per sample instead of one great-circle distance per sample,
/// and because the row holds exactly the expression [`feasibility`]
/// computes, the answers are bit-identical.
#[derive(Debug)]
pub struct BestCaseTable {
    vps: Vec<Coordinates>,
    policy: ConsistencyPolicy,
    rows: Vec<OnceLock<Box<[f64]>>>,
}

impl BestCaseTable {
    /// An empty table for `vps` under `policy`, with room for location
    /// ids `0..locations`.
    pub fn new(vps: &VpSet, policy: &ConsistencyPolicy, locations: usize) -> BestCaseTable {
        BestCaseTable {
            vps: vps.iter().map(|(_, vp)| vp.coords).collect(),
            policy: *policy,
            rows: (0..locations).map(|_| OnceLock::new()).collect(),
        }
    }

    /// [`feasibility`] of location `loc`, whose coordinates are
    /// `candidate`, for a router's samples. The coordinates are read only
    /// when `loc`'s row is first filled. Counts the answer toward
    /// `rtt.consistency.{accept,reject}`, as [`rtt_consistent`] does.
    ///
    /// # Panics
    /// Panics when `loc` is outside the table or a sample names a VP
    /// outside the table's set.
    pub fn feasibility(
        &self,
        samples: &RouterRtts,
        loc: LocationId,
        candidate: &Coordinates,
    ) -> bool {
        let row = self.rows[loc.0 as usize].get_or_init(|| {
            self.vps
                .iter()
                .map(|vp| best_case_rtt_ms(vp, candidate))
                .collect()
        });
        let ok = samples
            .samples()
            .iter()
            .all(|(vp, measured)| row[vp.0 as usize] <= measured.as_ms() + self.policy.slack_ms);
        count(ok);
        ok
    }
}

/// [`feasibility`] plus accept/reject observability counters, for
/// callers without a [`BestCaseTable`].
pub fn rtt_consistent(
    vps: &VpSet,
    samples: &RouterRtts,
    candidate: &Coordinates,
    policy: &ConsistencyPolicy,
) -> bool {
    let ok = feasibility(vps, samples, candidate, policy);
    count(ok);
    ok
}

/// Count one feasibility answer toward `rtt.consistency.{accept,reject}`.
/// The predicate runs in the innermost learner loops, so even a cached
/// atomic add is only paid when observability is on.
fn count(ok: bool) {
    if hoiho_obs::enabled() {
        if ok {
            hoiho_obs::counter!("rtt.consistency.accept").inc();
        } else {
            hoiho_obs::counter!("rtt.consistency.reject").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VpSet;
    use hoiho_geotypes::Rtt;

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
        s.record(crate::VpId(0), Rtt::from_ms(3.0));
        assert!(rtt_consistent(
            &vps,
            &s,
            &ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn faraway_hint_is_inconsistent_with_small_rtt() {
        // Figure 3a: 3ms from a VP near College Park MD rules out Las
        // Vegas; here 3ms rules out London.
        let (vps, _, london) = world();
        let mut s = RouterRtts::new();
        s.record(crate::VpId(0), Rtt::from_ms(3.0));
        assert!(!rtt_consistent(
            &vps,
            &s,
            &london,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn any_single_violating_vp_rejects() {
        let (mut vps, ashburn, _) = world();
        let ams = vps.add("ams-nl", Coordinates::new(52.4, 4.9));
        let mut s = RouterRtts::new();
        s.record(crate::VpId(0), Rtt::from_ms(500.0)); // loose
        s.record(ams, Rtt::from_ms(2.0)); // impossible from Amsterdam
        assert!(!rtt_consistent(
            &vps,
            &s,
            &ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn no_samples_is_vacuously_consistent() {
        let (vps, ashburn, _) = world();
        assert!(rtt_consistent(
            &vps,
            &RouterRtts::new(),
            &ashburn,
            &ConsistencyPolicy::STRICT
        ));
    }

    #[test]
    fn continent_policy_is_looser() {
        let (vps, _, london) = world();
        let mut s = RouterRtts::new();
        // 45ms from DC: strictly rules out London (best case ~59ms) but
        // the continent-scale policy lets it through.
        s.record(crate::VpId(0), Rtt::from_ms(45.0));
        assert!(!rtt_consistent(
            &vps,
            &s,
            &london,
            &ConsistencyPolicy::STRICT
        ));
        assert!(rtt_consistent(
            &vps,
            &s,
            &london,
            &ConsistencyPolicy::CONTINENT
        ));
    }

    /// The table answers exactly what the pure predicate answers, for
    /// random samples and locations under both named policies and one
    /// with its own slack, from cold and filled rows alike.
    #[test]
    fn best_case_table_matches_feasibility() {
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
            let table = BestCaseTable::new(&vps, &policy, locations.len());
            let (mut yes, mut no) = (0, 0);
            for _ in 0..3000 {
                let mut s = RouterRtts::new();
                for _ in 0..rng.random_range(0..6usize) {
                    let vp = crate::VpId(rng.random_range(0..vps.len()) as u16);
                    s.record(vp, Rtt::from_ms(300.0 * rng.random::<f64>()));
                }
                let i = rng.random_range(0..locations.len());
                let want = feasibility(&vps, &s, &locations[i], &policy);
                let got = table.feasibility(&s, LocationId(i as u32), &locations[i]);
                assert_eq!(got, want, "location {i}, samples {:?}", s.samples());
                if want {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
            assert!(yes > 100 && no > 100, "both answers exercised: {yes}/{no}");
        }
    }
}
