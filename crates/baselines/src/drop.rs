//! DRoP: DNS-based Router Positioning (Huffaker et al., 2014),
//! reimplemented with the limitations §3.3 documents:
//!
//! - the rule engine assumes the geohint sits at a fixed dot-label
//!   position **relative to the end** of the hostname and that the
//!   hostname has a fixed number of labels;
//! - rules carry no `\d+` component: a hint label may end in at most
//!   one digit, so `lhr15` never matches (figure 2);
//! - hints are interpreted with the dictionary **verbatim** — custom
//!   operator hints like `ash` geolocate to Nashua NH;
//! - feasibility uses only RTTs observed in the traceroutes that built
//!   the corpus, which constrain locations roughly to a continent;
//! - a rule is adopted when a simple majority (>50%) of its extractions
//!   are consistent.

use hoiho_geodb::GeoDb;
use hoiho_geotypes::{GeohintType, LocationId};
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::{consistency::BestCaseTable, ConsistencyPolicy};
use std::cmp::Reverse;
use std::collections::HashMap;

/// The hint shape a DRoP rule expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropForm {
    /// 3-letter token → IATA.
    Iata,
    /// 4-letter token → ICAO.
    Icao,
    /// 5-letter token → LOCODE.
    Locode,
    /// 6-letter token → CLLI prefix.
    Clli,
    /// ≥4-letter token → city name.
    City,
}

impl DropForm {
    fn hint_type(&self) -> GeohintType {
        match self {
            DropForm::Iata => GeohintType::Iata,
            DropForm::Icao => GeohintType::Icao,
            DropForm::Locode => GeohintType::Locode,
            DropForm::Clli => GeohintType::Clli,
            DropForm::City => GeohintType::CityName,
        }
    }

    fn accepts(&self, token: &str) -> bool {
        match self {
            DropForm::Iata => token.len() == 3,
            DropForm::Icao => token.len() == 4,
            DropForm::Locode => token.len() == 5,
            DropForm::Clli => token.len() == 6,
            DropForm::City => token.len() >= 4,
        }
    }
}

/// One learned DRoP rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DropRule {
    /// Expected number of labels in the hostname prefix.
    pub labels: usize,
    /// Hint label position counted from the end of the prefix (0 = the
    /// label adjacent to the suffix).
    pub from_end: usize,
    /// Expected hint shape.
    pub form: DropForm,
}

/// The trained DRoP model: one rule per suffix.
#[derive(Debug, Clone, Default)]
pub struct Drop {
    rules: HashMap<String, DropRule>,
}

/// Strip up to two trailing digits (DRoP rules enumerate the digit
/// positions they saw rather than emitting `\d+`, so longer counters —
/// and any digits elsewhere in the label — do not match).
fn strip_one_digit(label: &str) -> Option<&str> {
    let mut core = label;
    for _ in 0..2 {
        core = core
            .strip_suffix(|c: char| c.is_ascii_digit())
            .unwrap_or(core);
    }
    if core.is_empty() || !core.bytes().all(|b| b.is_ascii_lowercase()) {
        None
    } else {
        Some(core)
    }
}

impl Drop {
    /// Learn one rule per suffix from a corpus.
    pub fn train(db: &GeoDb, psl: &PublicSuffixList, corpus: &Corpus) -> Drop {
        // The coarse continent-scale feasibility DRoP's traceroute RTTs
        // give.
        let coarse =
            BestCaseTable::new(&corpus.vps, &ConsistencyPolicy::CONTINENT, db.coords(), &[]);
        // Candidate tallies per (suffix, rule): (hits, consistent).
        let mut tallies: HashMap<(String, DropRule), (usize, usize)> = HashMap::new();
        for (_, router) in corpus.iter() {
            for h in router.hostnames() {
                let Some((prefix, suffix)) = psl.split_at_suffix(h) else {
                    continue;
                };
                let prefix = prefix.to_ascii_lowercase();
                let labels: Vec<&str> = prefix.split('.').collect();
                for (i, label) in labels.iter().enumerate() {
                    let Some(token) = strip_one_digit(label) else {
                        continue;
                    };
                    for form in [
                        DropForm::Iata,
                        DropForm::Icao,
                        DropForm::Locode,
                        DropForm::Clli,
                        DropForm::City,
                    ] {
                        if !form.accepts(token) {
                            continue;
                        }
                        let locs = db.lookup_typed(token, form.hint_type());
                        if locs.is_empty() {
                            continue;
                        }
                        let rule = DropRule {
                            labels: labels.len(),
                            from_end: labels.len() - 1 - i,
                            form,
                        };
                        let consistent = locs
                            .iter()
                            .any(|&l| coarse.feasibility(router.traceroute_rtts.samples(), l));
                        let t = tallies.entry((suffix.clone(), rule)).or_insert((0, 0));
                        t.0 += 1;
                        if consistent {
                            t.1 += 1;
                        }
                    }
                }
            }
        }
        // Per suffix: the rule with most hits that clears the majority
        // bar; equal hits go to the rule nearest the suffix, then the
        // smaller form and label count, whatever order the tallies
        // iterate in.
        let rank = |r: &DropRule, hits| (hits, Reverse((r.from_end, r.form, r.labels)));
        let mut best: HashMap<String, (DropRule, usize)> = HashMap::new();
        for ((suffix, rule), (hits, consistent)) in tallies {
            if hits < 3 || consistent * 2 <= hits {
                continue;
            }
            match best.get(&suffix) {
                Some((r, h)) if rank(r, *h) >= rank(&rule, hits) => {}
                _ => {
                    best.insert(suffix, (rule, hits));
                }
            }
        }
        Drop {
            rules: best.into_iter().map(|(s, (r, _))| (s, r)).collect(),
        }
    }

    /// Number of suffixes with rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules were learned.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule learned for a suffix.
    pub fn rule(&self, suffix: &str) -> Option<&DropRule> {
        self.rules.get(suffix)
    }

    /// Install a rule directly (loading a published ruleset, demos).
    pub fn insert_rule(&mut self, suffix: &str, rule: DropRule) {
        self.rules.insert(suffix.to_string(), rule);
    }

    /// Keep only the rules whose suffix satisfies the predicate — used
    /// to model the *staleness* of DRoP's published 2013 ruleset, which
    /// simply has no rules for networks that appeared or renamed since.
    pub fn retain_suffixes<F: FnMut(&str) -> bool>(&mut self, mut pred: F) {
        self.rules.retain(|s, _| pred(s));
    }

    /// Apply the trained rules to one hostname.
    pub fn geolocate(
        &self,
        db: &GeoDb,
        psl: &PublicSuffixList,
        hostname: &str,
    ) -> Option<LocationId> {
        let hostname = hostname.to_ascii_lowercase();
        let (prefix, suffix) = psl.split_at_suffix(&hostname)?;
        let rule = self.rules.get(&suffix)?;
        let labels: Vec<&str> = prefix.split('.').collect();
        // Rigid structure: exact label count (figure 2's failure mode).
        if labels.len() != rule.labels {
            return None;
        }
        let idx = labels.len().checked_sub(1 + rule.from_end)?;
        let token = strip_one_digit(labels[idx])?;
        if !rule.form.accepts(token) {
            return None;
        }
        let locs = db.lookup_typed(token, rule.form.hint_type());
        // Verbatim dictionary, population-ranked disambiguation.
        locs.into_iter().max_by_key(|&l| db.location(l).population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_itdk::spec::CorpusSpec;

    fn generated() -> hoiho_itdk::generate::Generated {
        let db = GeoDb::builtin();
        let spec = CorpusSpec {
            label: "drop-test".into(),
            seed: 31,
            operators: 6,
            routers: 400,
            geo_operator_fraction: 1.0,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.9,
            rtt_response_rate: 0.9,
            vps: 20,
            custom_hint_operator_fraction: 0.3,
            custom_hint_rate: 0.2,
            stale_fraction: 0.0,
            provider_side_fraction: 0.0,
            ipv6: false,
        };
        hoiho_itdk::generate(&db, &spec)
    }

    #[test]
    fn strip_one_digit_rules() {
        assert_eq!(strip_one_digit("sea1"), Some("sea"));
        assert_eq!(strip_one_digit("sea"), Some("sea"));
        assert_eq!(strip_one_digit("lhr15"), Some("lhr"));
        // Three digits exceed what the enumerated rules covered.
        assert_eq!(strip_one_digit("lhr150"), None);
        assert_eq!(strip_one_digit("123"), None);
        assert_eq!(strip_one_digit(""), None);
        assert_eq!(strip_one_digit("a-b"), None);
    }

    #[test]
    fn trains_rules_on_corpus() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = generated();
        let model = Drop::train(&db, &psl, &g.corpus);
        assert!(!model.is_empty(), "DRoP should learn some rules");
    }

    #[test]
    fn equal_hits_pick_one_rule() {
        // `lhr1` and `ams2` both decode as IATA codes on every hostname,
        // and with no traceroute RTTs both rules are consistent: a tie.
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let router = hoiho_itdk::Router {
            location: hoiho_geotypes::LocationId(0),
            interfaces: vec![hoiho_itdk::Interface {
                addr: "192.0.2.1".into(),
                hostname: Some("lhr1.ams2.example.net".into()),
                truth: None,
            }],
            rtts: Default::default(),
            traceroute_rtts: Default::default(),
        };
        let corpus = Corpus {
            routers: vec![router; 4],
            ..Default::default()
        };
        for _ in 0..32 {
            let model = Drop::train(&db, &psl, &corpus);
            let want = DropRule {
                labels: 2,
                from_end: 0,
                form: DropForm::Iata,
            };
            assert_eq!(model.rule("example.net"), Some(&want));
        }
    }

    #[test]
    fn rigid_structure_misses_variants() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let mut model = Drop::default();
        model.rules.insert(
            "example.net".into(),
            DropRule {
                labels: 2,
                from_end: 0,
                form: DropForm::Iata,
            },
        );
        // Matches the exact shape (with short digit counters)...
        assert!(model.geolocate(&db, &psl, "cr1.sea1.example.net").is_some());
        assert!(model
            .geolocate(&db, &psl, "cr1.sea15.example.net")
            .is_some());
        // ...but not an extra label or a long counter.
        assert!(model
            .geolocate(&db, &psl, "xe-0.cr1.sea1.example.net")
            .is_none());
        assert!(model
            .geolocate(&db, &psl, "cr1.sea123.example.net")
            .is_none());
    }

    #[test]
    fn verbatim_dictionary_misinterprets_custom_hints() {
        // The flagship failure: "ash" decodes to Nashua NH.
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let mut model = Drop::default();
        model.rules.insert(
            "example.net".into(),
            DropRule {
                labels: 2,
                from_end: 0,
                form: DropForm::Iata,
            },
        );
        let loc = model
            .geolocate(&db, &psl, "core1.ash1.example.net")
            .expect("matches");
        assert_eq!(db.location(loc).name, "Nashua");
    }
}
