//! undns: Rocketfuel's manually-assembled rule database (Spring et al.,
//! 2002), as §3.2 and §6.1 characterise it in 2021:
//!
//! - rules were written and location codes interpreted *by hand*, so
//!   where a rule exists it is almost always right (PPV 98.3% in the
//!   paper, with a single mis-interpreted code in their validation);
//! - the database is frozen (last updated 2014) and covers only a
//!   subset of suffixes and, within a suffix, a subset of the location
//!   codes the operator actually uses — everything else is a silent
//!   false negative.
//!
//! We simulate the curation process: for the suffixes a hypothetical
//! curator looked at, a deterministic fraction of the operator's true
//! hint table is transcribed (correctly, minus a small error rate).

use hoiho_geodb::GeoDb;
use hoiho_geotypes::{LocationId, LocationKind};
use hoiho_itdk::spec::OperatorSpec;
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

/// The frozen manual database.
#[derive(Debug, Clone, Default)]
pub struct Undns {
    /// suffix → (hint token → location).
    rules: HashMap<String, HashMap<String, LocationId>>,
}

/// Deterministic pseudo-random stream for curation choices.
fn mix(seed: u64, s: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

impl Undns {
    /// Simulate manual curation from operator ground truth.
    ///
    /// `coverage` is the fraction of each operator's hint codes the
    /// curator transcribed; `error_rate` the fraction they
    /// mis-interpreted (mapped to a nearby-name wrong city, like the
    /// paper's `kslrml` → Kuala Lumpur mistake).
    pub fn curate(
        db: &GeoDb,
        operators: &[OperatorSpec],
        coverage: f64,
        error_rate: f64,
        seed: u64,
    ) -> Undns {
        let cities: Vec<LocationId> = db
            .iter()
            .filter(|(_, l)| l.kind == LocationKind::City)
            .map(|(id, _)| id)
            .collect();
        let mut rules = HashMap::new();
        for op in operators {
            let mut table = HashMap::new();
            for pop in &op.pops {
                if pop.hint.is_empty() {
                    continue;
                }
                let roll = mix(seed, &format!("{}/{}", op.suffix, pop.hint));
                if (roll % 10_000) as f64 / 10_000.0 >= coverage {
                    continue;
                }
                let err = mix(seed ^ 1, &format!("{}/{}", op.suffix, pop.hint));
                let loc = if ((err % 10_000) as f64 / 10_000.0) < error_rate {
                    // A wrong-but-plausible interpretation.
                    cities[(err as usize / 10_000) % cities.len()]
                } else {
                    pop.location
                };
                table.insert(pop.hint.clone(), loc);
            }
            if !table.is_empty() {
                rules.insert(op.suffix.clone(), table);
            }
        }
        Undns { rules }
    }

    /// Number of suffixes covered.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Apply the frozen rules: find a transcribed code as a token of the
    /// hostname.
    pub fn geolocate(&self, psl: &PublicSuffixList, hostname: &str) -> Option<LocationId> {
        let hostname = hostname.to_ascii_lowercase();
        let (prefix, suffix) = psl.split_at_suffix(&hostname)?;
        let table = self.rules.get(&suffix)?;
        for label in prefix.split('.') {
            for run in label.split(|c: char| !c.is_ascii_lowercase()) {
                if run.is_empty() {
                    continue;
                }
                if let Some(loc) = table.get(run) {
                    return Some(*loc);
                }
                // Codes glued to digits (`lhr15`) still resolve: undns
                // regexes matched the code portion explicitly.
                for (code, loc) in table {
                    if run.starts_with(code.as_str()) && run.len() <= code.len() + 2 {
                        return Some(*loc);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_itdk::spec::{Layout, NamingStyle, Pop};

    fn op(db: &GeoDb) -> OperatorSpec {
        let lon = db
            .lookup("london")
            .into_iter()
            .filter(|h| db.location(h.location).country.as_str() == "gb")
            .max_by_key(|h| db.location(h.location).population)
            .unwrap()
            .location;
        let fra = db
            .lookup("frankfurt")
            .into_iter()
            .max_by_key(|h| db.location(h.location).population)
            .unwrap()
            .location;
        OperatorSpec {
            suffix: "legacy.net".into(),
            style: NamingStyle::Iata,
            layout: Layout::variants(NamingStyle::Iata)[0].clone(),
            pops: vec![
                Pop {
                    location: lon,
                    hint: "lhr".into(),
                    custom: false,
                },
                Pop {
                    location: fra,
                    hint: "fra".into(),
                    custom: false,
                },
            ],
            router_count: 10,
            hostname_rate: 1.0,
            stale_fraction: 0.0,
            inconsistent_fraction: 0.0,
        }
    }

    #[test]
    fn full_coverage_zero_error_is_exact() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let u = Undns::curate(&db, &[op(&db)], 1.0, 0.0, 7);
        assert_eq!(u.len(), 1);
        let loc = u
            .geolocate(&psl, "xe-0.cr1.lhr15.legacy.net")
            .expect("found");
        assert_eq!(db.location(loc).name, "London");
    }

    #[test]
    fn partial_coverage_leaves_gaps() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        // With coverage 0 the database is empty.
        let u = Undns::curate(&db, &[op(&db)], 0.0, 0.0, 7);
        assert!(u.is_empty());
        assert!(u.geolocate(&psl, "cr1.lhr15.legacy.net").is_none());
    }

    #[test]
    fn unknown_suffix_is_silent() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let u = Undns::curate(&db, &[op(&db)], 1.0, 0.0, 7);
        assert!(u.geolocate(&psl, "cr1.lhr15.other.net").is_none());
    }

    #[test]
    fn curation_is_deterministic() {
        let db = GeoDb::builtin();
        let a = Undns::curate(&db, &[op(&db)], 0.5, 0.0, 9);
        let b = Undns::curate(&db, &[op(&db)], 0.5, 0.0, 9);
        assert_eq!(a.len(), b.len());
    }
}
