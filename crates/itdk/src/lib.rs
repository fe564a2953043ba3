#![warn(missing_docs)]

//! Router-level topology corpora in the style of CAIDA's ITDK (§5.1.3).
//!
//! The paper trains on Internet Topology Data Kits: inferred routers,
//! each with interface addresses, PTR hostnames for some interfaces, and
//! RTT measurements from Ark vantage points. Real ITDKs give no ground
//! truth; this crate *generates* corpora from parameterized operator
//! models ([`spec`], [`generate`](mod@generate)) so that the true
//! location of every router — and the intent behind every hostname — is
//! known by construction. It has one corpus text format, `corpus-v1`
//! ([`format`](mod@format)).
//! Readers for CAIDA's `.nodes`/`.dns-names` files can come back with
//! real ITDK files and a caller.

pub mod format;
pub mod generate;
pub mod namegen;
pub mod spec;

pub use generate::generate;
pub use spec::{CorpusSpec, NamingStyle, OperatorSpec};

use hoiho_geotypes::LocationId;
use hoiho_rtt::{RouterRtts, VpSet};

/// Dense identifier of a router within a [`Corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

/// Ground truth recorded by the generator for one hostname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostnameTruth {
    /// The geohint string embedded in the hostname, if any.
    pub hint: Option<String>,
    /// The location the operator *means* by that hint.
    pub hint_location: Option<LocationId>,
    /// True when the hostname is stale: the hint names a location the
    /// router is no longer at (figure 3a).
    pub stale: bool,
    /// True when the hostname belongs to a provider's addressing and
    /// names the provider's router location, not this router's
    /// (figure 3b).
    pub provider_side: bool,
}

impl HostnameTruth {
    /// A hostname carrying no geographic information.
    pub fn none() -> HostnameTruth {
        HostnameTruth {
            hint: None,
            hint_location: None,
            stale: false,
            provider_side: false,
        }
    }
}

/// One interface of a router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// Interface address, rendered (IPv4 dotted quad or IPv6).
    pub addr: String,
    /// PTR hostname, when the operator populated one.
    pub hostname: Option<String>,
    /// Generator ground truth for the hostname (absent for parsed
    /// real-world corpora).
    pub truth: Option<HostnameTruth>,
}

/// A router: a set of aliased interfaces with a single true location.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    /// True location (city) of the router.
    pub location: LocationId,
    /// Interfaces (≥ 1).
    pub interfaces: Vec<Interface>,
    /// Minimum ping RTTs per VP from the follow-up campaign; empty when
    /// the router is unresponsive.
    pub rtts: RouterRtts,
    /// RTTs observed in the traceroutes that discovered the router (the
    /// only constraints DRoP used).
    pub traceroute_rtts: RouterRtts,
}

impl Router {
    /// Hostnames present on this router's interfaces.
    pub fn hostnames(&self) -> impl Iterator<Item = &str> {
        self.interfaces.iter().filter_map(|i| i.hostname.as_deref())
    }

    /// Whether any interface has a hostname.
    pub fn has_hostname(&self) -> bool {
        self.interfaces.iter().any(|i| i.hostname.is_some())
    }
}

/// A full training corpus: routers plus the vantage points that measured
/// them.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// All routers.
    pub routers: Vec<Router>,
    /// The vantage points RTTs refer to.
    pub vps: VpSet,
    /// Label for reports (e.g. `ipv4-aug2020`).
    pub label: String,
}

impl Corpus {
    /// Routers count.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// Whether there are no routers.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// Resolve an id.
    ///
    /// # Panics
    /// Panics when the id is not from this corpus.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0 as usize]
    }

    /// Iterate `(id, router)`.
    pub fn iter(&self) -> impl Iterator<Item = (RouterId, &Router)> {
        self.routers
            .iter()
            .enumerate()
            .map(|(i, r)| (RouterId(i as u32), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_hostname_helpers() {
        let r = Router {
            location: LocationId(0),
            interfaces: vec![
                Interface {
                    addr: "10.0.0.1".into(),
                    hostname: Some("a.example.net".into()),
                    truth: None,
                },
                Interface {
                    addr: "10.0.0.2".into(),
                    hostname: None,
                    truth: None,
                },
            ],
            rtts: RouterRtts::new(),
            traceroute_rtts: RouterRtts::new(),
        };
        assert!(r.has_hostname());
        assert_eq!(r.hostnames().collect::<Vec<_>>(), vec!["a.example.net"]);
    }

    #[test]
    fn corpus_indexing() {
        let mut c = Corpus::default();
        assert!(c.is_empty());
        c.routers.push(Router {
            location: LocationId(7),
            interfaces: vec![],
            rtts: RouterRtts::new(),
            traceroute_rtts: RouterRtts::new(),
        });
        assert_eq!(c.len(), 1);
        assert_eq!(c.router(RouterId(0)).location, LocationId(7));
        assert_eq!(c.iter().count(), 1);
    }
}
