//! Deterministic synthetic dictionary expansion for scale experiments.
//!
//! The paper's dictionary holds 444k cities and 9k airports; the embedded
//! curated set holds a few hundred. For benchmarks that need dictionary
//! pressure (lookup fan-out, abbreviation-candidate scans) this module
//! grows a [`GeoDbBuilder`] with plausibly-named synthetic towns spread
//! around existing cities, using a deterministic generator so every run
//! of an experiment sees the same world.

use crate::builder::GeoDbBuilder;
use crate::GeoDb;
use hoiho_geotypes::Coordinates;

/// A tiny deterministic PRNG (splitmix64); we keep it local so dictionary
/// expansion does not depend on `rand` and is stable across rand versions.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    /// Next raw value.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform f64 in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SYLLABLES: &[&str] = &[
    "ash", "bel", "bran", "cas", "dor", "el", "fair", "glen", "hart", "iver", "james", "kirk",
    "lake", "mill", "nor", "oak", "pine", "quin", "ross", "stan", "thorn", "upton", "vale", "wood",
    "york", "berg", "field", "ford", "ham", "hurst", "ley", "mont", "port", "ridge", "side", "ton",
    "ville", "wick", "worth", "burn",
];

/// Generate a plausible town name from the PRNG.
fn synth_town_name(rng: &mut SplitMix64) -> String {
    let n = 2 + rng.below(2) as usize;
    let mut name = String::new();
    for _ in 0..n {
        name.push_str(SYLLABLES[rng.below(SYLLABLES.len() as u64) as usize]);
    }
    // Capitalise for a city-name record.
    let mut c = name.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => name,
    }
}

/// Add `count` synthetic towns scattered within ~300 km of the existing
/// cities of `base` (so they remain RTT-plausible neighbours), with
/// Zipf-ish populations. Returns the expanded builder.
pub fn expand_with_towns(
    mut builder: GeoDbBuilder,
    base: &GeoDb,
    count: usize,
    seed: u64,
) -> GeoDbBuilder {
    let mut rng = SplitMix64(seed ^ 0xC0FFEE);
    let cities: Vec<_> = base
        .iter()
        .filter(|(_, l)| l.kind == hoiho_geotypes::LocationKind::City)
        .map(|(_, l)| l.clone())
        .collect();
    if cities.is_empty() {
        return builder;
    }
    let mut used: std::collections::HashSet<String> =
        cities.iter().map(|c| c.name.to_ascii_lowercase()).collect();
    for _ in 0..count {
        let anchor = &cities[rng.below(cities.len() as u64) as usize];
        // Names must be purely alphabetic (they appear inside
        // hostnames); resolve collisions by growing the name instead of
        // appending digits.
        let mut name = synth_town_name(&mut rng);
        while !used.insert(name.to_ascii_lowercase()) {
            name.push_str(SYLLABLES[rng.below(SYLLABLES.len() as u64) as usize]);
        }
        let dlat = (rng.unit() - 0.5) * 5.0;
        let dlon = (rng.unit() - 0.5) * 5.0;
        let pop = 1_000 + (1_000_000.0 * rng.unit().powi(3)) as u64;
        let state = anchor
            .state
            .map(|s| s.as_str().to_string())
            .unwrap_or_default();
        builder.add_city(
            &name,
            anchor.country.as_str(),
            &state,
            Coordinates::new(anchor.coords.lat() + dlat, anchor.coords.lon() + dlon),
            pop,
        );
    }
    builder.derive_missing_codes();
    builder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = SplitMix64(7);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn names_are_nonempty_and_capitalised() {
        let mut r = SplitMix64(1);
        for _ in 0..50 {
            let n = synth_town_name(&mut r);
            assert!(!n.is_empty());
            assert!(n.chars().next().unwrap().is_ascii_uppercase());
        }
    }

    #[test]
    fn expansion_grows_dictionary_deterministically() {
        let base = GeoDb::builtin();
        let a = expand_with_towns(GeoDbBuilder::with_builtin_data(), &base, 500, 9).build();
        let b = expand_with_towns(GeoDbBuilder::with_builtin_data(), &base, 500, 9).build();
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= base.len() + 500);
    }
}
