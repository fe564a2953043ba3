//! Stale-hostname detection (§7, after Zhang et al. 2006).
//!
//! A hostname is *stale* when its geohint names a location the router
//! no longer occupies (figure 3a: three `ash1` interfaces and one
//! leftover `lvs1` on the same Ashburn router). The paper lists
//! automatic detection as a mitigation; this module implements the two
//! signals Zhang et al. describe, adapted to learned conventions:
//!
//! 1. **RTT contradiction** — the extracted location violates the
//!    router's own delay constraints while the convention is otherwise
//!    reliable;
//! 2. **Sibling disagreement** — other hostnames on the same router
//!    agree on a different, RTT-consistent location.

use crate::apply::Geolocator;
use crate::pipeline::POLICY;
use crate::view::TrainingView;
use hoiho_geodb::GeoDb;
use hoiho_itdk::{Corpus, RouterId};
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use std::collections::HashMap;

/// One flagged hostname.
#[derive(Debug, Clone, PartialEq)]
pub struct StaleFinding {
    /// The router carrying the hostname.
    pub router: RouterId,
    /// The suspicious hostname.
    pub hostname: String,
    /// Where its hint points.
    pub hinted: hoiho_geotypes::LocationId,
    /// Where the router's other evidence points, when siblings agree.
    pub consensus: Option<hoiho_geotypes::LocationId>,
}

/// Scan a corpus's training view for hostnames whose geohints
/// contradict their router.
///
/// Only routers with RTT measurements can be audited; a hostname is
/// flagged when its inferred location is RTT-infeasible while at least
/// one sibling hostname on the same router resolves to a feasible
/// location (or the router has no other geolocated hostname but the
/// contradiction is unambiguous). Feasibility is the learner's test:
/// its policy, and the samples of the spoofing VPs it ignores are
/// ignored here too, so a router measured only by them is not audited.
pub fn detect_stale(
    db: &GeoDb,
    psl: &PublicSuffixList,
    geo: &Geolocator,
    view: &TrainingView,
) -> Vec<StaleFinding> {
    let mut out = Vec::new();
    let table = BestCaseTable::new(view.vps(), &POLICY, db.coords(), &view.spoofing_vps());
    for router in view.routers() {
        if !table.constrains(router.rtts) {
            continue;
        }
        // Geolocate every hostname of this router.
        let mut located: Vec<(String, hoiho_geotypes::LocationId, bool)> = Vec::new();
        for h in router.hostnames() {
            if let Some(inf) = geo.geolocate(db, psl, h) {
                let ok = table.feasibility(router.rtts, inf.location);
                located.push((h.to_string(), inf.location, ok));
            }
        }
        if located.is_empty() {
            continue;
        }
        // Consensus: the most common feasible location among siblings.
        let mut counts: HashMap<hoiho_geotypes::LocationId, usize> = HashMap::new();
        for (_, loc, ok) in &located {
            if *ok {
                *counts.entry(*loc).or_default() += 1;
            }
        }
        let consensus = counts
            .iter()
            .max_by_key(|(loc, n)| (**n, loc.0))
            .map(|(loc, _)| *loc);
        for (hostname, hinted, ok) in located {
            if !ok {
                out.push(StaleFinding {
                    router: RouterId(router.index),
                    hostname,
                    hinted,
                    consensus,
                });
            }
        }
    }
    out
}

/// Precision/recall of stale detection against generator ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleScore {
    /// Flagged hostnames that really were stale or provider-side.
    pub true_flags: usize,
    /// Flagged hostnames that were fine.
    pub false_flags: usize,
    /// Stale hostnames the scan missed.
    pub missed: usize,
}

impl StaleScore {
    /// Precision of the flags.
    pub fn precision(&self) -> f64 {
        if self.true_flags + self.false_flags == 0 {
            0.0
        } else {
            self.true_flags as f64 / (self.true_flags + self.false_flags) as f64
        }
    }

    /// Recall over truly-stale hostnames.
    pub fn recall(&self) -> f64 {
        if self.true_flags + self.missed == 0 {
            0.0
        } else {
            self.true_flags as f64 / (self.true_flags + self.missed) as f64
        }
    }
}

/// Score findings against the generator's truth records. A hostname
/// counts as truly stale when the generator marked it stale or
/// provider-side (its hint deliberately names another location).
pub fn score_against_truth(corpus: &Corpus, findings: &[StaleFinding]) -> StaleScore {
    use std::collections::HashSet;
    let flagged: HashSet<(u32, &str)> = findings
        .iter()
        .map(|f| (f.router.0, f.hostname.as_str()))
        .collect();
    let mut score = StaleScore {
        true_flags: 0,
        false_flags: 0,
        missed: 0,
    };
    for (id, router) in corpus.iter() {
        if router.rtts.is_empty() {
            continue;
        }
        for iface in &router.interfaces {
            let (Some(h), Some(t)) = (&iface.hostname, &iface.truth) else {
                continue;
            };
            let truly = t.stale || t.provider_side;
            let was_flagged = flagged.contains(&(id.0, h.as_str()));
            match (truly, was_flagged) {
                (true, true) => score.true_flags += 1,
                (false, true) => score.false_flags += 1,
                (true, false) => score.missed += 1,
                (false, false) => {}
            }
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hoiho;
    use hoiho_itdk::spec::CorpusSpec;

    #[test]
    fn detects_injected_stale_hostnames() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let spec = CorpusSpec {
            label: "stale-test".into(),
            seed: 0x57a1e,
            operators: 6,
            routers: 500,
            geo_operator_fraction: 1.0,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.9,
            rtt_response_rate: 0.95,
            vps: 30,
            custom_hint_operator_fraction: 0.0,
            custom_hint_rate: 0.0,
            stale_fraction: 0.08, // exaggerated so the test has signal
            provider_side_fraction: 0.0,
            ipv6: false,
        };
        let g = hoiho_itdk::generate(&db, &spec);
        let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
        let geo = Geolocator::from_report(&report);
        let view = TrainingView::from_corpus(&g.corpus, db.len());
        let findings = detect_stale(&db, &psl, &geo, &view);
        assert!(!findings.is_empty(), "expected stale findings");
        let score = score_against_truth(&g.corpus, &findings);
        assert!(
            score.precision() > 0.7,
            "precision {:.2} ({} true, {} false)",
            score.precision(),
            score.true_flags,
            score.false_flags
        );
        assert!(
            score.recall() > 0.3,
            "recall {:.2} ({} missed)",
            score.recall(),
            score.missed
        );
    }

    #[test]
    fn clean_corpus_yields_few_flags() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let spec = CorpusSpec {
            label: "clean-test".into(),
            seed: 0xC1EA,
            operators: 6,
            routers: 400,
            geo_operator_fraction: 1.0,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.9,
            rtt_response_rate: 0.95,
            vps: 30,
            custom_hint_operator_fraction: 0.0,
            custom_hint_rate: 0.0,
            stale_fraction: 0.0,
            provider_side_fraction: 0.0,
            ipv6: false,
        };
        let g = hoiho_itdk::generate(&db, &spec);
        let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
        let geo = Geolocator::from_report(&report);
        let view = TrainingView::from_corpus(&g.corpus, db.len());
        let findings = detect_stale(&db, &psl, &geo, &view);
        let located: usize = g.corpus.routers.iter().map(|r| r.hostnames().count()).sum();
        assert!(
            findings.len() * 50 < located.max(1),
            "{} flags over {} hostnames",
            findings.len(),
            located
        );
    }
}
