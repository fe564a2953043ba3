#![warn(missing_docs)]

//! The reference location dictionary (§5.1.1 of the paper).
//!
//! Hoiho's learner is *informed* by a dictionary mapping geographic codes
//! to locations annotated with lat/longs:
//!
//! - IATA and ICAO airport codes (OurAirports in the paper);
//! - city and town names with populations (GeoNames);
//! - UN/LOCODEs;
//! - CLLI prefixes (iconectiv);
//! - colocation facilities with street addresses (PeeringDB);
//! - ISO-3166 country and state codes.
//!
//! Because the originals are proprietary or large, this crate embeds a
//! curated real-world dataset ([`GeoDb::builtin`]) that preserves the
//! collisions and ambiguities the paper's method must handle (e.g. the
//! IATA code `ash` belongs to Nashua NH while operators use it for
//! Ashburn VA; the city name `london` collides with the CLLI prefix for
//! London, Ontario), plus a deterministic synthetic expander ([`synth`])
//! for scale experiments. Loaders for the real files can come back with
//! the files themselves and a caller.

pub mod abbrev;
pub mod builder;
pub mod data;
pub mod synth;

pub use abbrev::{is_abbreviation, AbbrevOptions};
pub use builder::GeoDbBuilder;

use hoiho_geotypes::{GeohintType, Location, LocationId};
use std::collections::{HashMap, HashSet};

/// One dictionary hit: a token interpreted as a geohint of some type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HintMatch {
    /// The dictionary that interpreted the token.
    pub hint_type: GeohintType,
    /// The location the token decodes to.
    pub location: LocationId,
}

/// The assembled dictionary with per-type lookup indexes.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    pub(crate) locations: Vec<Location>,
    pub(crate) iata: HashMap<String, Vec<LocationId>>,
    pub(crate) icao: HashMap<String, Vec<LocationId>>,
    pub(crate) locode: HashMap<String, Vec<LocationId>>,
    pub(crate) clli: HashMap<String, Vec<LocationId>>,
    pub(crate) city: HashMap<String, Vec<LocationId>>,
    pub(crate) facility_token: HashMap<String, Vec<LocationId>>,
    /// Cities known to host at least one colocation facility, for the
    /// stage-4 ranking ("first by those known to have a facility").
    pub(crate) facility_cities: HashSet<LocationId>,
    /// City → facility street tokens located there (used by corpus
    /// generators to emit facility-style hostnames).
    pub(crate) facility_by_city: HashMap<LocationId, Vec<(String, LocationId)>>,
}

impl GeoDb {
    /// The embedded curated dictionary.
    pub fn builtin() -> GeoDb {
        builder::GeoDbBuilder::with_builtin_data().build()
    }

    /// Resolve a [`LocationId`] to its record.
    ///
    /// # Panics
    /// Panics if the id did not come from this dictionary.
    pub fn location(&self, id: LocationId) -> &Location {
        &self.locations[id.0 as usize]
    }

    /// Number of location records.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Iterate over all `(id, location)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, &Location)> {
        self.locations
            .iter()
            .enumerate()
            .map(|(i, l)| (LocationId(i as u32), l))
    }

    /// All interpretations of `token` as a geohint, across every
    /// dictionary whose code shape fits. This is the stage-2 primitive:
    /// a 3-letter token is looked up as an IATA code *and* as a city
    /// name, a 6-letter token as a CLLI prefix *and* a city name, etc.
    pub fn lookup(&self, token: &str) -> Vec<HintMatch> {
        let t = token.to_ascii_lowercase();
        let mut out = Vec::new();
        match t.len() {
            3 => self.push_all(&mut out, GeohintType::Iata, self.iata.get(&t)),
            4 => self.push_all(&mut out, GeohintType::Icao, self.icao.get(&t)),
            5 => self.push_all(&mut out, GeohintType::Locode, self.locode.get(&t)),
            6 => self.push_all(&mut out, GeohintType::Clli, self.clli.get(&t)),
            _ => {}
        }
        self.push_all(&mut out, GeohintType::CityName, self.city.get(&t));
        self.push_all(&mut out, GeohintType::Facility, self.facility_token.get(&t));
        out
    }

    /// Interpretations of a token of 7–11 characters whose *first six*
    /// characters may be a CLLI prefix (fig. 6d: alter.net embeds the
    /// first 8 letters of a CLLI code).
    pub fn lookup_clli_head(&self, token: &str) -> Vec<HintMatch> {
        let t = token.to_ascii_lowercase();
        if !(7..=11).contains(&t.len()) {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.push_all(&mut out, GeohintType::Clli, self.clli.get(&t[..6]));
        out
    }

    /// Interpretations of adjacent 4- and 2-letter components as a split
    /// CLLI prefix (fig. 6e: windstream's `mtgm01-al`).
    pub fn lookup_clli_split(&self, four: &str, two: &str) -> Vec<HintMatch> {
        if four.len() != 4 || two.len() != 2 {
            return Vec::new();
        }
        let joined = format!("{}{}", four.to_ascii_lowercase(), two.to_ascii_lowercase());
        let mut out = Vec::new();
        self.push_all(&mut out, GeohintType::Clli, self.clli.get(&joined));
        out
    }

    /// Exact-type lookup (used by decoders once a regex's plan names the
    /// dictionary).
    pub fn lookup_typed(&self, token: &str, ty: GeohintType) -> Vec<LocationId> {
        let t = token.to_ascii_lowercase();
        let map = match ty {
            GeohintType::Iata => &self.iata,
            GeohintType::Icao => &self.icao,
            GeohintType::Locode => &self.locode,
            GeohintType::Clli => &self.clli,
            GeohintType::CityName => &self.city,
            GeohintType::Facility => &self.facility_token,
        };
        map.get(&t).cloned().unwrap_or_default()
    }

    /// Whether the city hosts a known colocation facility (stage-4
    /// candidate ranking).
    pub fn has_facility(&self, id: LocationId) -> bool {
        self.facility_cities.contains(&id)
    }

    /// All city locations whose name could plausibly be abbreviated by
    /// `token` under the §5.4 heuristics. `for_city_regex` selects the
    /// stricter ≥4-contiguous-characters rule the paper applies when the
    /// regex plan extracts city names.
    pub fn abbreviation_candidates(&self, token: &str, for_city_regex: bool) -> Vec<LocationId> {
        let opts = AbbrevOptions {
            require_contiguous: if for_city_regex { 4 } else { 0 },
        };
        let mut out = Vec::new();
        for (id, loc) in self.iter() {
            if loc.kind != hoiho_geotypes::LocationKind::City {
                continue;
            }
            // Match against the bare name and, like "wdc" → Washington DC,
            // against the state-qualified place name.
            let hit = is_abbreviation(token, &loc.name, &opts)
                || loc.state.is_some_and(|st| {
                    is_abbreviation(token, &format!("{} {}", loc.name, st.as_str()), &opts)
                });
            if hit {
                out.push(id);
            }
        }
        out
    }

    /// Iterate `(IATA code, airport locations)` pairs.
    pub fn iata_codes(&self) -> impl Iterator<Item = (&str, &[LocationId])> {
        self.iata.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Iterate `(CLLI prefix, locations)` pairs.
    pub fn clli_prefixes(&self) -> impl Iterator<Item = (&str, &[LocationId])> {
        self.clli.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Iterate `(LOCODE, locations)` pairs.
    pub fn locodes(&self) -> impl Iterator<Item = (&str, &[LocationId])> {
        self.locode.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// The facility street tokens located in a city, with the facility
    /// location ids.
    pub fn facility_tokens_in_city(&self, city: LocationId) -> &[(String, LocationId)] {
        self.facility_by_city
            .get(&city)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn push_all(
        &self,
        out: &mut Vec<HintMatch>,
        hint_type: GeohintType,
        ids: Option<&Vec<LocationId>>,
    ) {
        if let Some(ids) = ids {
            out.extend(ids.iter().map(|&location| HintMatch {
                hint_type,
                location,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_loads() {
        let db = GeoDb::builtin();
        assert!(db.len() > 150, "got {}", db.len());
    }

    #[test]
    fn iata_lookup_lhr_is_london() {
        let db = GeoDb::builtin();
        let hits = db.lookup("lhr");
        let hit = hits
            .iter()
            .find(|h| h.hint_type == GeohintType::Iata)
            .expect("lhr is an IATA code");
        assert_eq!(db.location(hit.location).name, "London");
    }

    #[test]
    fn ash_is_nashua_not_ashburn() {
        // The paper's central collision: the IATA dictionary maps "ash"
        // to Nashua, NH even though operators use it for Ashburn, VA.
        let db = GeoDb::builtin();
        let hits = db.lookup("ash");
        let iata: Vec<_> = hits
            .iter()
            .filter(|h| h.hint_type == GeohintType::Iata)
            .collect();
        assert!(!iata.is_empty());
        assert_eq!(db.location(iata[0].location).name, "Nashua");
    }

    #[test]
    fn london_city_name_and_clli_collide() {
        // "london" is both a city name (London, GB among others) and the
        // CLLI prefix for London, Ontario ("lond" + "on").
        let db = GeoDb::builtin();
        let hits = db.lookup("london");
        assert!(hits.iter().any(|h| h.hint_type == GeohintType::CityName
            && db.location(h.location).country.as_str() == "gb"));
        assert!(hits.iter().any(|h| h.hint_type == GeohintType::Clli
            && db.location(h.location).country.as_str() == "ca"));
    }

    #[test]
    fn locode_usqas_is_ashburn() {
        let db = GeoDb::builtin();
        let hits = db.lookup("usqas");
        let hit = hits
            .iter()
            .find(|h| h.hint_type == GeohintType::Locode)
            .expect("usqas defined");
        assert_eq!(db.location(hit.location).name, "Ashburn");
    }

    #[test]
    fn clli_head_and_split() {
        let db = GeoDb::builtin();
        // asbnva + extra chars: first 6 decode (fig 6d).
        let hits = db.lookup_clli_head("asbnva83");
        assert!(!hits.is_empty());
        assert_eq!(db.location(hits[0].location).name, "Ashburn");
        // split 4+2 (fig 6e).
        let hits = db.lookup_clli_split("asbn", "va");
        assert!(!hits.is_empty());
        assert_eq!(db.location(hits[0].location).name, "Ashburn");
        // wrong shapes
        assert!(db.lookup_clli_split("asb", "va").is_empty());
        assert!(db.lookup_clli_head("asbnva").is_empty());
    }

    #[test]
    fn multiple_washingtons_exist() {
        let db = GeoDb::builtin();
        let hits = db.lookup("washington");
        let cities: Vec<_> = hits
            .iter()
            .filter(|h| h.hint_type == GeohintType::CityName)
            .collect();
        assert!(cities.len() >= 3, "want ambiguity, got {}", cities.len());
    }

    #[test]
    fn facility_street_address() {
        let db = GeoDb::builtin();
        let hits = db.lookup("1118thave");
        assert!(hits.iter().any(|h| h.hint_type == GeohintType::Facility));
    }

    #[test]
    fn chance_collision_codes_present() {
        // gig/eth/cpe are real IATA codes that operators also use for
        // gigabit-ethernet / ethernet / CPE (§4 challenge 5).
        let db = GeoDb::builtin();
        for code in ["gig", "eth", "cpe"] {
            assert!(
                db.lookup(code)
                    .iter()
                    .any(|h| h.hint_type == GeohintType::Iata),
                "{code} should be an IATA code"
            );
        }
    }

    #[test]
    fn facility_cities_marked() {
        let db = GeoDb::builtin();
        let ash = db.lookup("ashburn");
        let id = ash
            .iter()
            .find(|h| h.hint_type == GeohintType::CityName)
            .unwrap()
            .location;
        assert!(db.has_facility(id), "Ashburn hosts Equinix DC");
    }

    #[test]
    fn expanded_regions_are_reachable() {
        // The dictionary covers the VP-sparse regions the paper's
        // figure-5 asymmetry depends on.
        let db = GeoDb::builtin();
        for (city, iata) in [
            ("cairo", "cai"),
            ("karachi", "khi"),
            ("lagos", "los"),
            ("tashkent", "tas"),
            ("brasilia", "bsb"),
            ("doha", "doh"),
            ("minsk", "msq"),
        ] {
            assert!(
                db.lookup(city)
                    .iter()
                    .any(|h| h.hint_type == GeohintType::CityName),
                "{city} missing"
            );
            assert!(
                db.lookup(iata)
                    .iter()
                    .any(|h| h.hint_type == GeohintType::Iata),
                "{iata} missing"
            );
        }
    }

    #[test]
    fn tokyo_tokuyama_locode_collision() {
        let db = GeoDb::builtin();
        let hits = db.lookup("jptky");
        let hit = hits
            .iter()
            .find(|h| h.hint_type == GeohintType::Locode)
            .expect("jptky defined");
        assert_eq!(db.location(hit.location).name, "Tokuyama");
    }
}
