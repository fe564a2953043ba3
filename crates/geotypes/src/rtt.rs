//! Speed-of-light-in-fiber round-trip-time model.
//!
//! The paper's *RTT-consistency* test (§5.2) compares a measured RTT against
//! the theoretical best-case RTT between two locations assuming propagation
//! at the speed of light in fiber (≈ 2/3 of c in vacuum). A candidate
//! geohint is feasible only if, for **every** vantage point with a measured
//! RTT, the theoretical best case is no larger than the measurement.

use crate::coords::Coordinates;
use std::cmp::Ordering;
use std::fmt;

/// Speed of light in vacuum, km per millisecond.
pub const C_VACUUM_KM_PER_MS: f64 = 299.792458;

/// Speed of light in a fiber optic cable, km per millisecond (≈ 2/3 c).
pub const C_FIBER_KM_PER_MS: f64 = C_VACUUM_KM_PER_MS * 2.0 / 3.0;

/// A round-trip time in milliseconds.
///
/// Stored as microseconds internally so the type is `Ord`/`Eq` and safe to
/// use as a map key or in sorted structures; construction from `f64`
/// milliseconds saturates at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rtt(u64);

impl Rtt {
    /// Zero RTT (useful as an identity for `min` folds).
    pub const ZERO: Rtt = Rtt(0);

    /// Construct from milliseconds; negative inputs clamp to zero.
    pub fn from_ms(ms: f64) -> Self {
        Rtt((ms.max(0.0) * 1000.0).round() as u64)
    }

    /// Construct from whole microseconds.
    pub fn from_us(us: u64) -> Self {
        Rtt(us)
    }

    /// Value in milliseconds.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Value in whole microseconds.
    pub fn as_us(&self) -> u64 {
        self.0
    }
}

impl PartialOrd for Rtt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rtt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for Rtt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

/// Theoretical best-case RTT in milliseconds between two points, assuming
/// great-circle fiber at 2/3 c, out and back.
pub fn best_case_rtt_ms(a: &Coordinates, b: &Coordinates) -> f64 {
    2.0 * a.distance_km(b) / C_FIBER_KM_PER_MS
}

/// The maximum great-circle distance (km) a target can be from a vantage
/// point given a measured RTT: the constraint radius of the CBG
/// feasibility test and of the paper's feasibility figures (e.g. fig. 5's
/// "16ms places the router within 1,600km").
pub fn max_distance_km(rtt: Rtt) -> f64 {
    rtt.as_ms() / 2.0 * C_FIBER_KM_PER_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_speed_is_two_thirds_c() {
        assert!((C_FIBER_KM_PER_MS - 199.86163866666666).abs() < 1e-6);
    }

    #[test]
    fn rtt_roundtrip_ms() {
        let r = Rtt::from_ms(16.0);
        assert_eq!(r.as_us(), 16_000);
        assert!((r.as_ms() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_negative_clamps() {
        assert_eq!(Rtt::from_ms(-3.0), Rtt::ZERO);
    }

    #[test]
    fn rtt_ordering() {
        assert!(Rtt::from_ms(1.0) < Rtt::from_ms(2.0));
        assert_eq!(Rtt::from_ms(5.0).min(Rtt::from_ms(3.0)), Rtt::from_ms(3.0));
    }

    #[test]
    fn paper_rule_of_thumb_16ms_is_about_1600km() {
        // Figure 5 of the paper: a 16ms RTT places the router within
        // ~1,600km (1,000 miles) of the VP.
        let d = max_distance_km(Rtt::from_ms(16.0));
        assert!((d - 1598.9).abs() < 2.0, "got {d}");
    }

    #[test]
    fn same_place_always_feasible() {
        let c = Coordinates::new(40.0, -75.0);
        assert!(best_case_rtt_ms(&c, &c) <= 0.1);
    }

    #[test]
    fn transatlantic_infeasible_at_3ms() {
        let dc = Coordinates::new(38.9, -77.0);
        let lon = Coordinates::new(51.5, -0.1);
        let best = best_case_rtt_ms(&dc, &lon);
        assert!(best > 3.0 && best <= 80.0, "{best}");
    }

    #[test]
    fn best_case_is_symmetric() {
        let a = Coordinates::new(35.0, 139.0);
        let b = Coordinates::new(-33.0, 151.0);
        assert!((best_case_rtt_ms(&a, &b) - best_case_rtt_ms(&b, &a)).abs() < 1e-9);
    }
}
