//! Property tests on the geographic primitives: the RTT-consistency
//! machinery is only sound if the underlying geometry is. Cases are
//! enumerated from a seeded local PRNG (the offline build has no
//! property-testing framework).

use hoiho_geotypes::rtt::{best_case_rtt_ms, max_distance_km};
use hoiho_geotypes::{Coordinates, Rtt};

/// Minimal SplitMix64 — `hoiho-geotypes` is the root of the dependency
/// graph, so the shared generator in `hoiho-rtt` is not reachable here.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn coord(&mut self) -> Coordinates {
        Coordinates::new(self.range(-89.9, 89.9), self.range(-179.9, 179.9))
    }
}

const CASES: usize = 512;

/// The per-sample comparison of the RTT-consistency test: the best case
/// must not exceed the measurement.
fn feasible(vp: &Coordinates, candidate: &Coordinates, measured: Rtt) -> bool {
    best_case_rtt_ms(vp, candidate) <= measured.as_ms()
}

/// Distance is symmetric and non-negative, and zero iff same point.
#[test]
fn distance_symmetry() {
    let mut rng = Mix(1);
    for _ in 0..CASES {
        let (a, b) = (rng.coord(), rng.coord());
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        assert!(d1 >= 0.0);
        assert!((d1 - d2).abs() < 1e-6);
        assert!((a.distance_km(&a)).abs() < 1e-6);
    }
}

/// The triangle inequality holds on the sphere.
#[test]
fn triangle_inequality() {
    let mut rng = Mix(2);
    for _ in 0..CASES {
        let (a, b, c) = (rng.coord(), rng.coord(), rng.coord());
        let ab = a.distance_km(&b);
        let bc = b.distance_km(&c);
        let ac = a.distance_km(&c);
        assert!(ac <= ab + bc + 1e-6, "{ac} > {ab} + {bc}");
    }
}

/// No two points are further apart than half the circumference.
#[test]
fn distance_bounded_by_antipode() {
    let mut rng = Mix(3);
    let half = std::f64::consts::PI * hoiho_geotypes::coords::EARTH_RADIUS_KM;
    for _ in 0..CASES {
        let (a, b) = (rng.coord(), rng.coord());
        assert!(a.distance_km(&b) <= half + 1e-6);
    }
}

/// best-case RTT and the constraint radius are inverses.
#[test]
fn rtt_distance_inverse() {
    let mut rng = Mix(4);
    for _ in 0..CASES {
        let ms = rng.range(0.1, 400.0);
        let rtt = Rtt::from_ms(ms);
        let d = max_distance_km(rtt);
        // A point exactly at the constraint radius is feasible; one
        // comfortably outside is not.
        let vp = Coordinates::new(0.0, 0.0);
        let at_edge = Coordinates::new(0.0, d / 111.19);
        assert!(feasible(&vp, &at_edge, Rtt::from_ms(ms + 0.1)));
        let beyond = Coordinates::new(0.0, (d * 1.3) / 111.19);
        if d * 1.3 < 19_900.0 {
            assert!(!feasible(&vp, &beyond, rtt));
        }
    }
}

/// Feasibility is monotone: a longer measured RTT never shrinks the
/// feasible set.
#[test]
fn feasibility_monotone() {
    let mut rng = Mix(5);
    for _ in 0..CASES {
        let (vp, target) = (rng.coord(), rng.coord());
        let ms = rng.range(0.1, 300.0);
        let extra = rng.range(0.0, 200.0);
        if feasible(&vp, &target, Rtt::from_ms(ms)) {
            assert!(feasible(&vp, &target, Rtt::from_ms(ms + extra)));
        }
    }
}

/// best_case_rtt_ms scales linearly with distance.
#[test]
fn best_case_proportional_to_distance() {
    let mut rng = Mix(6);
    for _ in 0..CASES {
        let (a, b) = (rng.coord(), rng.coord());
        let d = a.distance_km(&b);
        let rtt = best_case_rtt_ms(&a, &b);
        assert!((rtt - 2.0 * d / hoiho_geotypes::rtt::C_FIBER_KM_PER_MS).abs() < 1e-9);
    }
}

/// Rtt round-trips through microseconds and orders like f64 ms.
#[test]
fn rtt_roundtrip_and_order() {
    let mut rng = Mix(7);
    for _ in 0..CASES {
        let a = rng.range(0.0, 10_000.0);
        let b = rng.range(0.0, 10_000.0);
        let ra = Rtt::from_ms(a);
        let rb = Rtt::from_ms(b);
        assert!((ra.as_ms() - a).abs() < 0.001);
        if (a - b).abs() > 0.002 {
            assert_eq!(ra < rb, a < b);
        }
    }
}
