//! Evaluating regexes and naming conventions against training data
//! (§5.3).
//!
//! Per-hostname classifications:
//!
//! - **TP** — extracted geohint is RTT-plausible and every tagged
//!   country/state code was also extracted;
//! - **FP** — extracted geohint is not RTT-consistent;
//! - **FN** — nothing extracted although stage 2 tagged a hint, or a
//!   tagged country/state code was dropped;
//! - **UNK** — extraction not in the dictionary;
//!
//! and the ranking metrics ATP = TP − (FP + FN + UNK) and
//! PPV = TP / (TP + FP).
//!
//! All evaluation goes through a per-suffix [`EvalContext`], which
//! memoizes hint decoding and RTT feasibility across the hundreds of
//! candidate regexes a suffix is evaluated with.

use crate::convention::{Extraction, GeoRegex, NamingConvention};
use crate::evalctx::{EvalContext, HintId};
use crate::learned::LearnedHints;
use crate::train::TrainHost;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::LocationId;
use std::collections::HashSet;

/// Per-hostname outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Plausible extraction with required codes.
    Tp,
    /// Extraction violates RTT constraints.
    Fp,
    /// Missed a tagged hint or its codes.
    Fn,
    /// Extraction unknown to the dictionary.
    Unk,
    /// Untagged hostname with no extraction: no contribution.
    Ignore,
}

/// Aggregated counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// Unknown extractions.
    pub unk: usize,
    /// Distinct TP hints, as canonical interned ids (deduped by hint
    /// text).
    pub unique_hints: HashSet<HintId>,
}

impl Metrics {
    /// Absolute true positives: `TP − (FP + FN + UNK)`.
    pub fn atp(&self) -> i64 {
        self.tp as i64 - (self.fp + self.fn_ + self.unk) as i64
    }

    /// Positive predictive value: `TP / (TP + FP)`; 0 when undefined.
    pub fn ppv(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    fn add(&mut self, outcome: Outcome, hint: Option<HintId>) {
        match outcome {
            Outcome::Tp => {
                self.tp += 1;
                if let Some(h) = hint {
                    self.unique_hints.insert(h);
                }
            }
            Outcome::Fp => self.fp += 1,
            Outcome::Fn => self.fn_ += 1,
            Outcome::Unk => self.unk += 1,
            Outcome::Ignore => {}
        }
    }
}

/// Evaluation of one NC (or single regex) over a suffix's hosts.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Aggregate counts.
    pub metrics: Metrics,
    /// Per-host extraction and outcome, index-aligned with the host
    /// list, plus the index of the NC regex that matched.
    pub per_host: Vec<(Option<Extraction>, Outcome, Option<usize>)>,
}

/// Decode a hint string through the suffix-specific learned dictionary
/// first, then the reference dictionary. This is the uncached entry
/// point used when applying published artifacts; the learn path decodes
/// through [`EvalContext`] instead.
pub fn decode(
    db: &GeoDb,
    learned: Option<&LearnedHints>,
    extraction: &Extraction,
) -> Vec<LocationId> {
    if let Some(l) = learned {
        if let Some(loc) = l.get(&extraction.hint, extraction.ty) {
            return vec![loc];
        }
    }
    db.lookup_typed(&extraction.hint, extraction.ty)
}

/// Classify one host's extraction, decoding and testing feasibility
/// through the context's memos.
pub fn classify_host(
    ctx: &EvalContext<'_>,
    host: &TrainHost,
    extraction: Option<&Extraction>,
    learned: Option<&LearnedHints>,
) -> Outcome {
    classify(ctx, host, extraction, learned).0
}

/// [`classify_host`] plus, for a TP, the canonical id of its hint — the
/// id [`Metrics::unique_hints`] stores. The hint is interned once.
fn classify(
    ctx: &EvalContext<'_>,
    host: &TrainHost,
    extraction: Option<&Extraction>,
    learned: Option<&LearnedHints>,
) -> (Outcome, Option<HintId>) {
    let Some(e) = extraction else {
        let outcome = if host.is_tagged() {
            Outcome::Fn
        } else {
            Outcome::Ignore
        };
        return (outcome, None);
    };
    // Learned hints are a delta over the base decode: a hit bypasses
    // the memo (one location), a miss falls through to it — so stage 4
    // never invalidates anything.
    if let Some(loc) = learned.and_then(|l| l.get(&e.hint, e.ty)) {
        let outcome = classify_decoded(ctx, host, e, std::slice::from_ref(&loc));
        let hint = (outcome == Outcome::Tp).then(|| ctx.canonical(ctx.intern(&e.hint, e.ty)));
        return (outcome, hint);
    }
    let id = ctx.intern(&e.hint, e.ty);
    let outcome = classify_decoded(ctx, host, e, &ctx.base_decode(id));
    (outcome, (outcome == Outcome::Tp).then(|| ctx.canonical(id)))
}

/// The classification rules, given the decoded locations of the
/// extraction.
fn classify_decoded(
    ctx: &EvalContext<'_>,
    host: &TrainHost,
    e: &Extraction,
    locs: &[LocationId],
) -> Outcome {
    if locs.is_empty() {
        return Outcome::Unk;
    }
    // RTT feasibility (vacuously true for unmeasured routers — regexes
    // generalise to routers delay measurements cannot reach).
    if !locs.iter().any(|id| ctx.feasible(host, *id)) {
        return Outcome::Fp;
    }
    // Extracted country/state tokens must describe the location.
    if !e.cc_tokens.is_empty() {
        let cc_ok = locs.iter().filter(|id| ctx.feasible(host, **id)).any(|id| {
            e.cc_tokens
                .iter()
                .all(|t| ctx.db.location(*id).matches_cc_or_state(t))
        });
        if !cc_ok {
            return Outcome::Fp;
        }
    }
    // The apparent-geohint tag for this string dictates which codes the
    // regex had to extract (fig 6a: extracting "lhr" without "uk" is FN).
    // Tags are matched on (text, type) — a same-text tag of a different
    // dictionary says nothing about this extraction — and ties between
    // multiple (text, type) tags break to the first in the (start, end)
    // sort order stage 2 produces.
    if let Some(tag) = host.tags.iter().find(|t| t.text == e.hint && t.ty == e.ty) {
        let all_extracted = tag
            .cc_texts
            .iter()
            .all(|c| e.cc_tokens.iter().any(|t| t == c));
        if !all_extracted {
            return Outcome::Fn;
        }
    }
    Outcome::Tp
}

/// Evaluate a borrowed regex list over the context's hosts: the first
/// matching regex provides the extraction. This is the shared engine
/// behind [`eval_nc`] and [`eval_regex`] — no suffix or regex cloning
/// per candidate.
fn eval_regexes(
    ctx: &EvalContext<'_>,
    regexes: &[GeoRegex],
    learned: Option<&LearnedHints>,
) -> EvalResult {
    let mut metrics = Metrics::default();
    let mut per_host = Vec::with_capacity(ctx.hosts.len());
    for host in ctx.hosts {
        let mut ext = None;
        let mut which = None;
        for (i, r) in regexes.iter().enumerate() {
            if let Some(e) = r.extract(host.hostname()) {
                ext = Some(e);
                which = Some(i);
                break;
            }
        }
        let (outcome, hint) = classify(ctx, host, ext.as_ref(), learned);
        metrics.add(outcome, hint);
        per_host.push((ext, outcome, which));
    }
    let result = EvalResult { metrics, per_host };
    count_evaluation(ctx, &result);
    result
}

/// The evaluation [`eval_nc`] returns for an NC, with no learned hints,
/// composed from its members' single-regex evaluations: `singles[i]`
/// must be [`eval_regex`]`(ctx, regex i, None)`. A host's extraction
/// under the NC is the first member's that is `Some`, and with no
/// learned hints its outcome is the one that member's evaluation already
/// found, so only hosts no member matched are classified here. The
/// result and the `eval.*` counters equal [`eval_nc`]'s.
pub(crate) fn compose_nc(ctx: &EvalContext<'_>, singles: &[&EvalResult]) -> EvalResult {
    let mut metrics = Metrics::default();
    let mut per_host = Vec::with_capacity(ctx.hosts.len());
    for (i, host) in ctx.hosts.iter().enumerate() {
        let first = singles.iter().enumerate().find_map(|(which, single)| {
            let (ext, outcome, _) = &single.per_host[i];
            ext.as_ref().map(|e| (e, *outcome, which))
        });
        let entry = match first {
            Some((e, outcome, which)) => (Some(e.clone()), outcome, Some(which)),
            None => (None, classify_host(ctx, host, None, None), None),
        };
        let hint = match &entry {
            (Some(e), Outcome::Tp, _) => Some(ctx.canonical(ctx.intern(&e.hint, e.ty))),
            _ => None,
        };
        metrics.add(entry.1, hint);
        per_host.push(entry);
    }
    let result = EvalResult { metrics, per_host };
    count_evaluation(ctx, &result);
    result
}

/// One batch of `eval.*` counter updates per evaluation, not per host:
/// this runs once per candidate regex, so per-host counting would
/// dominate.
fn count_evaluation(ctx: &EvalContext<'_>, result: &EvalResult) {
    if hoiho_obs::enabled() {
        let metrics = &result.metrics;
        let matches = result
            .per_host
            .iter()
            .filter(|(e, _, _)| e.is_some())
            .count();
        hoiho_obs::counter!("eval.evaluations").inc();
        hoiho_obs::counter!("eval.hosts").add(ctx.hosts.len() as u64);
        hoiho_obs::counter!("eval.matches").add(matches as u64);
        hoiho_obs::counter!("eval.tp").add(metrics.tp as u64);
        hoiho_obs::counter!("eval.fp").add(metrics.fp as u64);
        hoiho_obs::counter!("eval.fn").add(metrics.fn_ as u64);
        hoiho_obs::counter!("eval.unk").add(metrics.unk as u64);
    }
}

/// Evaluate a full NC against the context's hosts.
pub fn eval_nc(
    ctx: &EvalContext<'_>,
    nc: &NamingConvention,
    learned: Option<&LearnedHints>,
) -> EvalResult {
    eval_regexes(ctx, &nc.regexes, learned)
}

/// Evaluate a single regex, borrowed — no throwaway one-regex NC.
pub fn eval_regex(
    ctx: &EvalContext<'_>,
    regex: &GeoRegex,
    learned: Option<&LearnedHints>,
) -> EvalResult {
    eval_regexes(ctx, std::slice::from_ref(regex), learned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apparent::Tag;
    use crate::convention::{CaptureRole, Plan};
    use hoiho_geotypes::{Coordinates, GeohintType, Rtt};
    use hoiho_regex::Regex;
    use hoiho_rtt::{consistency::BestCaseTable, ConsistencyPolicy, RouterRtts, VpId, VpSet};

    const POLICY: ConsistencyPolicy = ConsistencyPolicy::STRICT;

    fn world() -> (GeoDb, VpSet) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("dca-us", Coordinates::new(38.9, -77.0));
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
        (db, vps)
    }

    /// One router's RTTs: `(vp, ms)` pairs.
    fn rtts(pairs: &[(u16, f64)]) -> RouterRtts {
        let mut rtts = RouterRtts::new();
        for (vp, ms) in pairs {
            rtts.record(VpId(*vp), Rtt::from_ms(*ms));
        }
        rtts
    }

    fn host<'a>(db: &GeoDb, vps: &VpSet, hostname: &str, rtts: &'a RouterRtts) -> TrainHost<'a> {
        // For tests assume suffix is the final two labels.
        let prefix_len = hostname.rmatch_indices('.').nth(1).unwrap().0;
        let table = BestCaseTable::new(vps, &POLICY, db.coords(), &[]);
        TrainHost::new(
            db,
            &table,
            hostname.to_string(),
            prefix_len,
            0,
            rtts.samples(),
        )
    }

    /// Classify one host through a fresh single-host context.
    fn classify_one(
        db: &GeoDb,
        vps: &VpSet,
        h: &TrainHost,
        e: Option<&Extraction>,
        learned: Option<&LearnedHints>,
    ) -> Outcome {
        let hosts = std::slice::from_ref(h);
        let table = BestCaseTable::new(vps, &POLICY, db.coords(), &[]);
        let ctx = EvalContext::new(db, "example.net", hosts, &table);
        classify_host(&ctx, h, e, learned)
    }

    fn iata_regex() -> GeoRegex {
        GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.([a-z]{3})\d+\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata)],
            },
        }
    }

    #[test]
    fn tp_when_consistent() {
        let (db, vps) = world();
        let samples = rtts(&[(1, 2.0)]);
        let h = host(&db, &vps, "cr1.lhr1.example.net", &samples);
        let e = iata_regex().extract(h.hostname());
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Tp);
    }

    #[test]
    fn fp_when_inconsistent() {
        let (db, vps) = world();
        // 2ms from DC rules out London.
        let samples = rtts(&[(0, 2.0)]);
        let h = host(&db, &vps, "cr1.lhr1.example.net", &samples);
        let e = iata_regex().extract(h.hostname());
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Fp);
    }

    #[test]
    fn unk_when_not_in_dictionary() {
        let (db, vps) = world();
        let samples = rtts(&[(0, 2.0)]);
        let h = host(&db, &vps, "cr1.qqq1.example.net", &samples);
        let e = iata_regex().extract(h.hostname());
        assert!(e.is_some());
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Unk);
    }

    #[test]
    fn fn_when_tagged_but_unmatched() {
        let (db, vps) = world();
        // Tagged (lhr feasible from London VP) but the regex shape
        // doesn't match the hostname (extra label).
        let samples = rtts(&[(1, 2.0)]);
        let h = host(&db, &vps, "a.b.cr1.lhr1x.example.net", &samples);
        assert!(h.is_tagged());
        assert_eq!(classify_one(&db, &vps, &h, None, None), Outcome::Fn);
    }

    #[test]
    fn ignore_when_untagged_and_unmatched() {
        let (db, vps) = world();
        let samples = rtts(&[(0, 5.0)]);
        let h = host(&db, &vps, "static-1-2.example.net", &samples);
        assert!(!h.is_tagged());
        assert_eq!(classify_one(&db, &vps, &h, None, None), Outcome::Ignore);
    }

    #[test]
    fn fn_when_cc_dropped() {
        let (db, vps) = world();
        // The hostname carries lhr + uk; a regex that extracts only lhr
        // must be penalised FN.
        let samples = rtts(&[(1, 2.0)]);
        let h = host(&db, &vps, "x.mpr1.lhr15.uk.zip.example.net", &samples);
        let r = GeoRegex {
            regex: Regex::parse(r"^.+\.([a-z]{3})\d+\.[a-z]{2}\.[a-z]{3}\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata)],
            },
        };
        let e = r.extract(h.hostname());
        assert!(e.is_some());
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Fn);
    }

    #[test]
    fn tp_when_cc_extracted() {
        let (db, vps) = world();
        let samples = rtts(&[(1, 2.0)]);
        let h = host(&db, &vps, "x.mpr1.lhr15.uk.zip.example.net", &samples);
        let r = GeoRegex {
            regex: Regex::parse(r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.example\.net$")
                .unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata), CaptureRole::CcOrState],
            },
        };
        let e = r.extract(h.hostname());
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Tp);
    }

    /// A same-text tag of a *different* dictionary must not impose its
    /// country codes on the extraction: tag matching is strict on
    /// (text, type).
    #[test]
    fn tag_match_requires_same_type() {
        let (db, vps) = world();
        let samples = rtts(&[(1, 2.0)]);
        let mut h = host(&db, &vps, "cr1.lhr1.example.net", &samples);
        // Replace the real tags with a single CityName tag of the same
        // text carrying a cc requirement the regex cannot satisfy.
        h.tags = vec![Tag {
            start: 4,
            end: 7,
            text: "lhr".into(),
            ty: GeohintType::CityName,
            locations: db.lookup_typed("lhr", GeohintType::Iata),
            cc_texts: vec!["uk".into()],
            split: None,
        }];
        let e = iata_regex().extract(h.hostname());
        assert_eq!(e.as_ref().unwrap().ty, GeohintType::Iata);
        // The old text-only fallback would demand "uk" and score FN;
        // strict (text, type) matching scores TP.
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Tp);
    }

    /// With several tags of the same (text, type), the first in the
    /// (start, end) sort order stage 2 emits decides the required codes.
    #[test]
    fn tag_tie_breaks_to_first_span() {
        let (db, vps) = world();
        let samples = rtts(&[(1, 2.0)]);
        let mut h = host(&db, &vps, "cr1.lhr1.example.net", &samples);
        let locations = db.lookup_typed("lhr", GeohintType::Iata);
        h.tags = vec![
            Tag {
                start: 4,
                end: 7,
                text: "lhr".into(),
                ty: GeohintType::Iata,
                locations: locations.clone(),
                cc_texts: vec!["uk".into()],
                split: None,
            },
            Tag {
                start: 9,
                end: 12,
                text: "lhr".into(),
                ty: GeohintType::Iata,
                locations,
                cc_texts: Vec::new(),
                split: None,
            },
        ];
        let e = iata_regex().extract(h.hostname());
        // The first tag's "uk" requirement wins over the later tag
        // without one, so the plain extraction is FN.
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Fn);
    }

    #[test]
    fn metrics_math() {
        let mut m = Metrics::default();
        m.add(Outcome::Tp, Some(HintId(0)));
        m.add(Outcome::Tp, Some(HintId(0)));
        m.add(Outcome::Tp, Some(HintId(1)));
        m.add(Outcome::Fp, None);
        m.add(Outcome::Fn, None);
        m.add(Outcome::Unk, None);
        m.add(Outcome::Ignore, None);
        assert_eq!(m.tp, 3);
        assert_eq!(m.atp(), 3 - 3);
        assert!((m.ppv() - 0.75).abs() < 1e-9);
        assert_eq!(m.unique_hints.len(), 2);
    }

    #[test]
    fn unmeasured_router_extraction_is_tp_if_in_dict() {
        let (db, vps) = world();
        let samples = rtts(&[]);
        let h = host(&db, &vps, "cr1.lhr1.example.net", &samples);
        assert!(!h.is_tagged()); // no RTTs → no tags
        let e = iata_regex().extract(h.hostname());
        assert_eq!(classify_one(&db, &vps, &h, e.as_ref(), None), Outcome::Tp);
    }

    /// Memoized classification must equal a cold single-host context on
    /// randomized hosts — the cache changes cost, never outcomes.
    #[test]
    fn cached_outcomes_match_fresh_context_on_random_hosts() {
        use hoiho_rtt::rng::{Rng, StdRng};
        let (db, vps) = world();
        let mut rng = StdRng::seed_from_u64(0xE7A1C);
        let hints = [
            "lhr", "cdg", "fra", "ams", "iad", "qqq", "zzz", "xyz", "lon", "par",
        ];
        let ms_choices = [2.0, 8.0, 25.0, 60.0, 120.0];
        let rows: Vec<(String, RouterRtts)> = (0..160)
            .map(|i| {
                let hint = hints[rng.random_range(0..hints.len())];
                let name = format!("cr{}.{hint}{}.example.net", i % 7, i % 4);
                let mut pairs = Vec::new();
                for vp in 0..2u16 {
                    if rng.random_range(0..4u32) > 0 {
                        pairs.push((vp, ms_choices[rng.random_range(0..ms_choices.len())]));
                    }
                }
                (name, rtts(&pairs))
            })
            .collect();
        let hosts: Vec<TrainHost> = rows
            .iter()
            .map(|(name, rtts)| host(&db, &vps, name, rtts))
            .collect();
        // A learned overlay for one junk token, to exercise the delta
        // path as well.
        let lhr = db.lookup_typed("lhr", GeohintType::Iata)[0];
        let learned = LearnedHints::from_hints(vec![crate::learned::LearnedHint {
            token: "qqq".into(),
            ty: GeohintType::Iata,
            location: lhr,
            tp: 3,
            fp: 0,
            existing_tp: 0,
        }]);
        let regex = iata_regex();
        let table = BestCaseTable::new(&vps, &POLICY, db.coords(), &[]);
        let shared = EvalContext::new(&db, "example.net", &hosts, &table);
        for learned in [None, Some(&learned)] {
            // Two passes: the second runs fully hot against the memos.
            for _pass in 0..2 {
                for h in &hosts {
                    let e = regex.extract(h.hostname());
                    let warm = classify_host(&shared, h, e.as_ref(), learned);
                    let cold = classify_one(&db, &vps, h, e.as_ref(), learned);
                    assert_eq!(warm, cold, "host {}", h.hostname());
                }
            }
        }
        // And the aggregated view agrees with itself when re-evaluated.
        let nc = NamingConvention {
            suffix: "example.net".into(),
            regexes: vec![regex],
        };
        let a = eval_nc(&shared, &nc, Some(&learned));
        let b = eval_nc(&shared, &nc, Some(&learned));
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.per_host, b.per_host);
    }
}
