//! The §5.4 abbreviation heuristics.
//!
//! When an operator invents a geohint ("ash" for Ashburn, "mlan" for
//! Milan), the paper accepts the string as a candidate abbreviation of a
//! place name if:
//!
//! 1. every character of the extraction appears in the place name, in
//!    order;
//! 2. the first character matches the first character of the place name;
//! 3. for multi-word names ("New York"), characters may only be drawn
//!    from a word once that word's first letter has been matched —
//!    allowing `nyk` but rejecting `nwk`;
//! 4. when the regex plan extracts full *city names*, the abbreviation
//!    must additionally match at least four contiguous characters of the
//!    place name (allowing `ftcollins` for "Fort Collins").
//!
//! The matcher is a small backtracking search over (abbrev position,
//! name position) pairs so it is complete, not merely greedy.

use hoiho_geotypes::{Location, LocationId, LocationKind};
use std::collections::HashMap;

/// Options controlling [`is_abbreviation`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AbbrevOptions {
    /// Minimum length of a contiguous run of name characters that must
    /// be matched by contiguous abbreviation characters (0 disables the
    /// requirement). The paper uses 4 for city-name regex plans.
    pub require_contiguous: usize,
}

/// The characters of an abbreviation the heuristics read: its ASCII
/// letters and digits, lowercased.
fn letters(abbrev: &str) -> Vec<u8> {
    abbrev
        .bytes()
        .filter(u8::is_ascii_alphanumeric)
        .map(|b| b.to_ascii_lowercase())
        .collect()
}

/// The words of a place name: its runs of ASCII letters and digits,
/// lowercased.
fn words(name: &str) -> Vec<Box<[u8]>> {
    name.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.bytes().map(|b| b.to_ascii_lowercase()).collect())
        .collect()
}

/// Whether `abbrev` is an acceptable abbreviation of `place_name` under
/// the paper's heuristics. [`GeoDb::abbreviated_cities`](crate::GeoDb::abbreviated_cities)
/// answers the same question for every city at once.
pub fn is_abbreviation(abbrev: &str, place_name: &str, opts: &AbbrevOptions) -> bool {
    abbreviates(&letters(abbrev), &words(place_name), opts)
}

/// [`is_abbreviation`] over an abbreviation's [`letters`] and a name's
/// [`words`].
fn abbreviates(a: &[u8], ws: &[Box<[u8]>], opts: &AbbrevOptions) -> bool {
    // Rule 2: first character matches the name's first character.
    if a.is_empty() || ws.first().is_none_or(|w| a[0] != w[0]) {
        return false;
    }
    // Trivial case: the abbreviation is longer than the name can supply.
    let total: usize = ws.iter().map(|w| w.len()).sum();
    if a.len() > total {
        return false;
    }
    search(a, ws, 0, 0, 0, false, 0, opts.require_contiguous, &mut 0u32)
}

/// The city names stage 4 matches abbreviations against, split into
/// [`words`] once and bucketed by their first character. A query walks
/// only the bucket of its first letter, since rule 2 rejects every other
/// name, and allocates nothing per name.
#[derive(Debug, Clone, Default)]
pub(crate) struct AbbrevIndex {
    buckets: HashMap<u8, Vec<IndexedName>>,
}

/// One name of a city in an [`AbbrevIndex`] bucket.
#[derive(Debug, Clone)]
struct IndexedName {
    city: LocationId,
    /// Whether this is the state-qualified name ("Washington DC").
    qualified: bool,
    words: Box<[Box<[u8]>]>,
}

impl AbbrevIndex {
    /// Index the cities among `locations`, whose ids are their
    /// positions: each one's name and, when it has a state, its
    /// state-qualified name.
    pub(crate) fn new(locations: &[Location]) -> AbbrevIndex {
        let mut buckets: HashMap<u8, Vec<IndexedName>> = HashMap::new();
        for (i, l) in locations.iter().enumerate() {
            if l.kind != LocationKind::City {
                continue;
            }
            let bare = words(&l.name);
            let qualified = l.state.map(|st| {
                let mut ws = bare.clone();
                ws.extend(words(st.as_str()));
                ws
            });
            let names = std::iter::once((false, bare)).chain(qualified.map(|ws| (true, ws)));
            for (qualified, ws) in names {
                if let Some(first) = ws.first() {
                    buckets.entry(first[0]).or_default().push(IndexedName {
                        city: LocationId(i as u32),
                        qualified,
                        words: ws.into(),
                    });
                }
            }
        }
        AbbrevIndex { buckets }
    }

    /// The cities whose name `abbrev` abbreviates under `opts`, in id
    /// order; with `state_qualified`, also those whose state-qualified
    /// name it abbreviates. The answer is what [`is_abbreviation`] gives
    /// city by city.
    pub(crate) fn cities<'a>(
        &'a self,
        abbrev: &str,
        opts: &AbbrevOptions,
        state_qualified: bool,
    ) -> impl Iterator<Item = LocationId> + 'a {
        let a = letters(abbrev);
        let opts = *opts;
        let bucket = a.first().and_then(|c| self.buckets.get(c));
        // A city's two names sit side by side in one bucket: skip the
        // second once the first matched.
        let mut last = None;
        bucket
            .into_iter()
            .flatten()
            .filter(move |n| state_qualified || !n.qualified)
            .filter_map(move |n| {
                let hit = last != Some(n.city) && abbreviates(&a, &n.words, &opts);
                hit.then(|| *last.insert(n.city))
            })
    }
}

/// Backtracking search.
///
/// `ai` — next abbreviation char to place; `wi`/`ci` — current position
/// in the name (word index / char index); `word_started` — whether word
/// `wi`'s first letter has been consumed; `run` — length of the current
/// contiguous matched run; returns true if the remaining abbreviation can
/// be embedded.
#[allow(clippy::too_many_arguments)]
fn search(
    a: &[u8],
    ws: &[Box<[u8]>],
    ai: usize,
    wi: usize,
    ci: usize,
    word_started: bool,
    run: usize,
    need_contig: usize,
    fuel: &mut u32,
) -> bool {
    // The search space is tiny (hostname tokens × city names), but guard
    // against quadratic blowup on degenerate repeated-letter names.
    if *fuel > 100_000 {
        return false;
    }
    *fuel += 1;

    if ai == a.len() {
        return need_contig == 0 || run >= need_contig;
    }
    if wi == ws.len() {
        return false;
    }
    let word = &ws[wi];
    if ci >= word.len() {
        // Move to the next word; its first letter not yet consumed.
        return search(a, ws, ai, wi + 1, 0, false, 0, need_contig, fuel);
    }
    let c = word[ci];
    let may_take = ci == 0 || word_started;
    if may_take && c == a[ai] {
        let new_run = run + 1;
        // Take this character. If the contiguity requirement is already
        // satisfied by this run, clear it for the rest of the search.
        let remaining = if new_run >= need_contig {
            0
        } else {
            need_contig
        };
        if search(a, ws, ai + 1, wi, ci + 1, true, new_run, remaining, fuel) {
            return true;
        }
    }
    // Skip this character (breaks the contiguous run). Note that
    // `word_started` is *not* set by skipping: only actually matching a
    // word's first letter licenses later characters of that word.
    search(a, ws, ai, wi, ci + 1, word_started, 0, need_contig, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOSE: AbbrevOptions = AbbrevOptions {
        require_contiguous: 0,
    };
    const CITY: AbbrevOptions = AbbrevOptions {
        require_contiguous: 4,
    };

    #[test]
    fn paper_positive_examples() {
        assert!(is_abbreviation("ash", "Ashburn", &LOOSE));
        assert!(is_abbreviation("mlan", "Milan", &LOOSE));
        assert!(is_abbreviation("nyk", "New York", &LOOSE));
        assert!(is_abbreviation("tor", "Toronto", &LOOSE));
        // "wdc" abbreviates the state-qualified place name (table 5).
        assert!(is_abbreviation("wdc", "Washington DC", &LOOSE));
        assert!(!is_abbreviation("wdc", "Washington", &LOOSE));
    }

    #[test]
    fn paper_negative_examples() {
        // "nwk" draws 'k' from "york" without matching 'y' first.
        assert!(!is_abbreviation("nwk", "New York", &LOOSE));
        // First character must match.
        assert!(!is_abbreviation("shb", "Ashburn", &LOOSE));
        // Characters must appear in order.
        assert!(!is_abbreviation("ahs", "Ashburn", &LOOSE));
    }

    #[test]
    fn contiguous_rule_for_city_plans() {
        assert!(is_abbreviation("ftcollins", "Fort Collins", &CITY));
        assert!(is_abbreviation("frankfurt", "Frankfurt am Main", &CITY));
        // "fkt" matches in order but has no 4-char contiguous run.
        assert!(!is_abbreviation("fkt", "Frankfurt am Main", &CITY));
        // ... though it is fine under the loose rule.
        assert!(is_abbreviation("fkt", "Frankfurt am Main", &LOOSE));
    }

    #[test]
    fn multiword_first_letters() {
        assert!(is_abbreviation("slc", "Salt Lake City", &LOOSE));
        assert!(is_abbreviation("kl", "Kuala Lumpur", &LOOSE));
        assert!(is_abbreviation("ksl", "Kuala Selangor", &LOOSE));
    }

    #[test]
    fn case_and_punctuation_insensitive() {
        assert!(is_abbreviation("STL", "St Louis", &LOOSE));
        assert!(is_abbreviation("hlm", "Haarlem", &LOOSE));
        assert!(is_abbreviation("hlm", "Helmond", &LOOSE));
        assert!(is_abbreviation("hlm", "Hilversum", &LOOSE));
    }

    #[test]
    fn empty_and_degenerate() {
        assert!(!is_abbreviation("", "Ashburn", &LOOSE));
        assert!(!is_abbreviation("ash", "", &LOOSE));
        assert!(!is_abbreviation("aaaa", "aaa", &LOOSE));
        assert!(is_abbreviation("aaa", "aaa", &LOOSE));
    }

    #[test]
    fn abbreviation_longer_than_name_rejected() {
        assert!(!is_abbreviation("london", "Lon", &LOOSE));
    }
}
