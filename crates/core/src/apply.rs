//! Applying learned conventions: the downstream-user API.
//!
//! A [`Geolocator`] holds the usable naming conventions from a learning
//! run (or loaded regexes) and geolocates arbitrary hostnames — the
//! paper's headline use case: regexes are portable and work without
//! access to measurement infrastructure.
//!
//! [`Geolocator::lookup`] is the one lookup path: `hoiho apply` and
//! the `hoiho-serve` index both answer through it.

use crate::convention::NamingConvention;
use crate::eval::decode;
use crate::learned::LearnedHints;
use crate::pipeline::LearnReport;
use crate::rank::NcClass;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{Coordinates, GeohintType, LocationId};
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

/// The longest name DNS allows, in bytes, without a trailing dot.
const MAX_HOSTNAME_LEN: usize = 253;

/// One suffix's deployable artifacts.
#[derive(Debug, Clone)]
pub struct SuffixGeo {
    /// The naming convention.
    pub nc: NamingConvention,
    /// Suffix-specific learned geohints.
    pub learned: LearnedHints,
    /// The quality class at training time.
    pub class: NcClass,
}

impl SuffixGeo {
    /// The borrowable apply path: extract, decode, and disambiguate a
    /// hostname that has already been routed to this suffix's artifacts.
    ///
    /// `hostname` must be lowercase (regexes are learned over lowercase
    /// names) and should group under [`NamingConvention::suffix`]:
    /// [`Geolocator::lookup`] trims, lowercases and routes it in a
    /// reusable scratch buffer, so a non-matching query allocates
    /// nothing.
    pub fn geolocate(&self, db: &GeoDb, hostname: &str) -> Option<GeoInference> {
        let obs = hoiho_obs::enabled();
        let e = self.nc.extract(hostname)?;
        if obs {
            hoiho_obs::counter!("apply.matched").inc();
        }
        let learned_hint = self.learned.get(&e.hint, e.ty).is_some();
        let mut locs = decode(db, Some(&self.learned), &e);
        if locs.is_empty() {
            return None;
        }
        // Country/state tokens narrow ambiguous hints.
        if !e.cc_tokens.is_empty() {
            let narrowed: Vec<LocationId> = locs
                .iter()
                .copied()
                .filter(|id| {
                    e.cc_tokens
                        .iter()
                        .all(|t| db.location(*id).matches_cc_or_state(t))
                })
                .collect();
            if !narrowed.is_empty() {
                locs = narrowed;
            }
        }
        locs.sort_by(|a, b| {
            db.has_facility(*b)
                .cmp(&db.has_facility(*a))
                .then_with(|| db.location(*b).population.cmp(&db.location(*a).population))
        });
        let location = locs[0];
        if obs {
            hoiho_obs::counter!("apply.resolved").inc();
            if learned_hint {
                hoiho_obs::counter!("apply.resolved_learned_hint").inc();
            }
        }
        Some(GeoInference {
            location,
            coords: db.location(location).coords,
            hint: e.hint,
            ty: e.ty,
            learned_hint,
            suffix: self.nc.suffix.clone(),
        })
    }
}

/// A geolocation inference for one hostname.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoInference {
    /// The inferred location.
    pub location: LocationId,
    /// Its coordinates.
    pub coords: Coordinates,
    /// The extracted hint string.
    pub hint: String,
    /// The dictionary that decoded it.
    pub ty: GeohintType,
    /// Whether the hint was a suffix-specific learned geohint.
    pub learned_hint: bool,
    /// The suffix whose NC produced the inference.
    pub suffix: String,
}

/// Applies learned conventions to hostnames.
#[derive(Debug, Clone, Default)]
pub struct Geolocator {
    map: HashMap<String, SuffixGeo>,
}

impl Geolocator {
    /// Empty geolocator.
    pub fn new() -> Geolocator {
        Geolocator::default()
    }

    /// Collect the usable NCs from a learning report.
    pub fn from_report(report: &LearnReport) -> Geolocator {
        let mut g = Geolocator::new();
        for r in report.usable() {
            if let Some(nc) = &r.nc {
                g.insert(SuffixGeo {
                    nc: nc.clone(),
                    learned: r.learned.clone(),
                    class: r.class,
                });
            }
        }
        g
    }

    /// Register one suffix's artifacts.
    pub fn insert(&mut self, geo: SuffixGeo) {
        self.map.insert(geo.nc.suffix.clone(), geo);
    }

    /// Number of suffixes covered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no suffixes are covered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The artifacts for one suffix.
    pub fn suffix(&self, suffix: &str) -> Option<&SuffixGeo> {
        self.map.get(suffix)
    }

    /// Iterate all artifacts.
    pub fn iter(&self) -> impl Iterator<Item = &SuffixGeo> {
        self.map.values()
    }

    /// Geolocate a hostname: find its suffix's NC, extract, decode, and
    /// disambiguate (facility first, then population — the stage-4
    /// ranking). Allocates a fresh buffer for [`Geolocator::lookup`].
    pub fn geolocate(
        &self,
        db: &GeoDb,
        psl: &PublicSuffixList,
        hostname: &str,
    ) -> Option<GeoInference> {
        self.lookup(db, psl, hostname, &mut String::new())
    }

    /// The one lookup path: trim `hostname` and lowercase it into
    /// `scratch`, route it with the borrowing `registerable_suffix_of`
    /// (the learner's key, found by the same bounded PSL walk), and
    /// apply the owning [`SuffixGeo`]. A name longer than DNS's 253
    /// bytes after trimming is no hostname and has no answer; the bound
    /// also keeps each learned regex's backtracking as short as
    /// `hoiho_regex::exec::DEFAULT_STEP_BUDGET` assumes.
    pub fn lookup(
        &self,
        db: &GeoDb,
        psl: &PublicSuffixList,
        hostname: &str,
        scratch: &mut String,
    ) -> Option<GeoInference> {
        if hoiho_obs::enabled() {
            hoiho_obs::counter!("apply.lookups").inc();
        }
        let hostname = hostname.trim();
        if hostname.len() > MAX_HOSTNAME_LEN {
            return None;
        }
        scratch.clear();
        scratch.push_str(hostname);
        scratch.make_ascii_lowercase();
        let suffix = psl.registerable_suffix_of(scratch)?;
        self.map.get(suffix)?.geolocate(db, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convention::{CaptureRole, GeoRegex, Plan};
    use crate::learned::LearnedHint;
    use hoiho_regex::Regex;

    fn geolocator(db: &GeoDb) -> Geolocator {
        let mut learned = LearnedHints::new();
        // Simulate a stage-4 result: ash → Ashburn VA.
        let ash = db
            .lookup("ashburn")
            .into_iter()
            .find(|h| {
                h.hint_type == GeohintType::CityName && db.location(h.location).population > 10_000
            })
            .unwrap()
            .location;
        learned_insert(&mut learned, "ash", GeohintType::Iata, ash);
        let mut g = Geolocator::new();
        g.insert(SuffixGeo {
            nc: NamingConvention {
                suffix: "example.net".into(),
                regexes: vec![GeoRegex {
                    regex: Regex::parse(r"^.+\.core\d+\.([a-z]{3})\d+\.he\.example\.net$").unwrap(),
                    plan: Plan {
                        roles: vec![CaptureRole::Hint(GeohintType::Iata)],
                    },
                }],
            },
            learned,
            class: NcClass::Good,
        });
        g
    }

    fn learned_insert(l: &mut LearnedHints, token: &str, ty: GeohintType, loc: LocationId) {
        // Test helper: go through the public shape.
        let mut tmp = LearnedHints::new();
        std::mem::swap(l, &mut tmp);
        let mut hints = tmp.hints;
        hints.push(LearnedHint {
            token: token.into(),
            ty,
            location: loc,
            tp: 3,
            fp: 0,
            existing_tp: 0,
        });
        *l = LearnedHints::from_hints(hints);
    }

    #[test]
    fn geolocates_with_learned_hint() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        let inf = g
            .geolocate(&db, &psl, "10ge1-2.core1.ash1.he.example.net")
            .expect("geolocated");
        assert_eq!(db.location(inf.location).name, "Ashburn");
        assert!(inf.learned_hint);
        assert_eq!(inf.ty, GeohintType::Iata);
    }

    #[test]
    fn dictionary_hint_used_when_not_learned() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        let inf = g
            .geolocate(&db, &psl, "x.core1.lhr1.he.example.net")
            .expect("geolocated");
        assert_eq!(db.location(inf.location).name, "London");
        assert!(!inf.learned_hint);
    }

    #[test]
    fn unknown_suffix_or_shape_returns_none() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        assert!(g.geolocate(&db, &psl, "x.core1.lhr1.other.net").is_none());
        assert!(g
            .geolocate(&db, &psl, "weird-shape.he.example.net")
            .is_none());
    }

    #[test]
    fn case_insensitive_application() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = geolocator(&db);
        assert!(g
            .geolocate(&db, &psl, "X.CORE1.LHR1.HE.EXAMPLE.NET")
            .is_some());
    }
}
