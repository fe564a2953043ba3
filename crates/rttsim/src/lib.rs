#![warn(missing_docs)]

//! Vantage points, RTT measurement, and RTT-consistency (§5.1.4, §5.2).
//!
//! The paper constrains every candidate geohint with round-trip-time
//! measurements from CAIDA Ark vantage points: a location is feasible
//! only if, from **every** VP with a measurement, the theoretical
//! speed-of-light-in-fiber best case does not exceed the measured RTT.
//!
//! Since we cannot probe the real Internet, [`model`] provides a
//! physically-grounded simulator (propagation at 2/3 c along a stretched
//! great-circle path, plus queueing noise), [`observe`] reproduces the
//! paper's traceroute-vs-ping observation asymmetry (figure 5), and
//! [`fault`] injects the TCP-spoofing pathology the paper had to filter.
//! [`consistency`] holds the paper's feasibility test, which is also the
//! CBG test of the §3.3 audit.

pub mod consistency;
pub mod fault;
pub mod model;
pub mod observe;
pub mod rng;

pub use consistency::ConsistencyPolicy;
pub use model::RttModel;

use hoiho_geotypes::{Coordinates, Rtt};

/// Dense identifier of a vantage point within a [`VpSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VpId(pub u16);

/// A measurement vantage point with a known location.
#[derive(Debug, Clone, PartialEq)]
pub struct VantagePoint {
    /// Short label in the paper's `iata, cc` style (e.g. `sjc-us`).
    pub name: String,
    /// Where the VP is.
    pub coords: Coordinates,
}

/// An ordered collection of vantage points.
#[derive(Debug, Clone, Default)]
pub struct VpSet {
    vps: Vec<VantagePoint>,
}

impl VpSet {
    /// An empty set.
    pub fn new() -> VpSet {
        VpSet::default()
    }

    /// Add a VP, returning its id.
    pub fn add(&mut self, name: impl Into<String>, coords: Coordinates) -> VpId {
        let id = VpId(self.vps.len() as u16);
        self.vps.push(VantagePoint {
            name: name.into(),
            coords,
        });
        id
    }

    /// Resolve an id.
    ///
    /// # Panics
    /// Panics when the id is not from this set.
    pub fn get(&self, id: VpId) -> &VantagePoint {
        &self.vps[id.0 as usize]
    }

    /// Number of VPs.
    pub fn len(&self) -> usize {
        self.vps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vps.is_empty()
    }

    /// Iterate `(id, vp)`.
    pub fn iter(&self) -> impl Iterator<Item = (VpId, &VantagePoint)> {
        self.vps
            .iter()
            .enumerate()
            .map(|(i, v)| (VpId(i as u16), v))
    }

    /// The VP geographically closest to `target`.
    pub fn closest_to(&self, target: &Coordinates) -> Option<(VpId, f64)> {
        self.iter()
            .map(|(id, vp)| (id, vp.coords.distance_km(target)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The minimum-RTT samples one router accumulated, one per VP that
/// obtained a response. Stored sorted by VP id; at most one sample per VP
/// (the paper takes the minimum of three probes per VP).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterRtts {
    samples: Vec<(VpId, Rtt)>,
}

// Samples are most of a loaded corpus's memory: keep each at 8 bytes.
const _: () = assert!(size_of::<(VpId, Rtt)>() == 8);

impl RouterRtts {
    /// Empty sample set (router unresponsive).
    pub fn new() -> RouterRtts {
        RouterRtts::default()
    }

    /// Record a sample, keeping the minimum per VP. Samples arriving in
    /// ascending VP order (as the corpus writer emits them) append;
    /// repeated or out-of-order VPs fall back to a sorted insert.
    #[inline]
    pub fn record(&mut self, vp: VpId, rtt: Rtt) {
        if self.samples.last().is_none_or(|&(last, _)| last < vp) {
            self.samples.push((vp, rtt));
            return;
        }
        match self.samples.binary_search_by_key(&vp, |(v, _)| *v) {
            Ok(i) => {
                if rtt < self.samples[i].1 {
                    self.samples[i].1 = rtt;
                }
            }
            Err(i) => self.samples.insert(i, (vp, rtt)),
        }
    }

    /// Drop every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Reserve room for `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// All `(vp, min RTT)` samples.
    pub fn samples(&self) -> &[(VpId, Rtt)] {
        &self.samples
    }

    /// Number of VPs with a sample.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the router never responded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The smallest RTT across VPs, with its VP.
    pub fn min_sample(&self) -> Option<(VpId, Rtt)> {
        self.samples.iter().copied().min_by_key(|(_, r)| *r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpset_basics() {
        let mut s = VpSet::new();
        assert!(s.is_empty());
        let a = s.add("dca-us", Coordinates::new(38.9, -77.0));
        let b = s.add("ams-nl", Coordinates::new(52.4, 4.9));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).name, "dca-us");
        assert_eq!(s.get(b).name, "ams-nl");
        let near_dc = Coordinates::new(39.0, -77.5);
        assert_eq!(s.closest_to(&near_dc).unwrap().0, a);
    }

    #[test]
    fn router_rtts_keep_minimum_per_vp() {
        let mut r = RouterRtts::new();
        r.record(VpId(3), Rtt::from_ms(9.0));
        r.record(VpId(1), Rtt::from_ms(5.0));
        r.record(VpId(3), Rtt::from_ms(7.0));
        r.record(VpId(3), Rtt::from_ms(8.0));
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.samples(),
            &[(VpId(1), Rtt::from_ms(5.0)), (VpId(3), Rtt::from_ms(7.0))]
        );
        assert_eq!(r.min_sample(), Some((VpId(1), Rtt::from_ms(5.0))));
    }

    #[test]
    fn empty_router_rtts() {
        let r = RouterRtts::new();
        assert!(r.is_empty());
        assert_eq!(r.min_sample(), None);
    }
}
