//! The CBG feasibility test (§3.3).
//!
//! Constraint-based geolocation (CBG, Gueye et al. 2004/2006) converts
//! each VP's measured RTT into a distance disk around the VP (speed of
//! light in fiber); the target lies in the intersection of all disks.
//! Prior work (Cai 2015, Scheitle et al. 2017) audited DRoP's inferences
//! by testing whether each one falls inside that intersection, which
//! `repro_cbg_audit` reproduces with [`feasible`].

use crate::{RouterRtts, VpSet};
use hoiho_geotypes::rtt::max_distance_km;
use hoiho_geotypes::Coordinates;

/// Whether a point satisfies every distance constraint.
pub fn feasible(vps: &VpSet, samples: &RouterRtts, point: &Coordinates) -> bool {
    samples
        .samples()
        .iter()
        .all(|(vp, rtt)| vps.get(*vp).coords.distance_km(point) <= max_distance_km(*rtt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VpId;
    use hoiho_geotypes::Rtt;

    #[test]
    fn feasible_matches_constraint_maths() {
        let mut vps = VpSet::new();
        vps.add("dca", Coordinates::new(38.9, -77.0));
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(10.0)); // ≤ ~1000 km from DC
        assert!(feasible(&vps, &s, &Coordinates::new(39.0, -77.5)));
        assert!(!feasible(&vps, &s, &Coordinates::new(51.5, -0.1)));
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
        for point in [vps.get(VpId(0)).coords, vps.get(VpId(1)).coords] {
            assert!(!feasible(&vps, &s, &point));
        }
    }
}
