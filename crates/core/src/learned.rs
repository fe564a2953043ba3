//! Stage 4: learn operator geohints not in the reference dictionary
//! (§5.4).
//!
//! For NCs that confidently extract geohints (≥3 unique RTT-consistent
//! hints, PPV > 40%), the FP and UNK extractions are candidate
//! *operator-specific* hints. Each is matched against place names with
//! the abbreviation heuristics, candidates are ranked by facility
//! presence, then population, then RTT-consistent router count, and the
//! winner is adopted when it clears the PPV and congruence bars.

use crate::convention::NamingConvention;
use crate::eval::EvalResult;
use crate::evalctx::EvalContext;
use hoiho_geodb::{builder::clli_region, AbbrevOptions, GeoDb};
use hoiho_geotypes::{GeohintType, LocationId};
use std::collections::{HashMap, HashSet};

/// One learned suffix-specific geohint with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedHint {
    /// The hint token (`ash`, `mlanit`).
    pub token: String,
    /// The dictionary slot it overrides or extends.
    pub ty: GeohintType,
    /// The learned meaning.
    pub location: LocationId,
    /// Distinct routers RTT-consistent with the learned location.
    pub tp: usize,
    /// Distinct routers that contradict it.
    pub fp: usize,
    /// The best TP count the *existing* dictionary meaning achieved
    /// (0 when the token was unknown).
    pub existing_tp: usize,
}

/// A suffix-specific dictionary of learned hints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LearnedHints {
    /// Dictionary slot → token → learned meaning, so a lookup by `&str`
    /// allocates nothing.
    map: HashMap<GeohintType, HashMap<String, LocationId>>,
    /// Full evidence records.
    pub hints: Vec<LearnedHint>,
}

impl LearnedHints {
    /// Empty dictionary.
    pub fn new() -> LearnedHints {
        LearnedHints::default()
    }

    /// Look up a learned meaning.
    pub fn get(&self, token: &str, ty: GeohintType) -> Option<LocationId> {
        self.map.get(&ty)?.get(token).copied()
    }

    /// Number of learned hints.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Whether nothing was learned.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }

    fn insert(&mut self, hint: LearnedHint) {
        self.map
            .entry(hint.ty)
            .or_default()
            .insert(hint.token.clone(), hint.location);
        self.hints.push(hint);
    }

    /// Rebuild a dictionary from hint records (used when loading
    /// published regex/hint artifacts).
    pub fn from_hints(hints: Vec<LearnedHint>) -> LearnedHints {
        let mut out = LearnedHints::new();
        for h in hints {
            out.insert(h);
        }
        out
    }
}

/// How stage 4 ranks candidate locations for an unknown hint (§5.4:
/// "first by those known to have a facility, then by population, then by
/// TPs"). The alternatives exist for the ablation DESIGN.md calls out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankOrder {
    /// The paper's order: facility presence, then population, then TPs.
    FacilityPopulationTp,
    /// Skip the facility signal: population, then TPs.
    PopulationTp,
    /// Pure evidence: TPs, then population.
    TpPopulation,
}

/// Thresholds of §5.4.
#[derive(Debug, Clone, Copy)]
pub struct LearnPolicy {
    /// Minimum PPV for the learned location (paper: 0.8).
    pub min_ppv: f64,
    /// Congruent routers required when the regex extracts no
    /// country/state code (paper: 3).
    pub congruent_without_cc: usize,
    /// Congruent routers required when it does (paper: 1).
    pub congruent_with_cc: usize,
    /// Candidate ranking order.
    pub rank: RankOrder,
}

impl Default for LearnPolicy {
    fn default() -> Self {
        LearnPolicy {
            min_ppv: 0.8,
            congruent_without_cc: 3,
            congruent_with_cc: 1,
            rank: RankOrder::FacilityPopulationTp,
        }
    }
}

/// Learn suffix-specific geohints from an NC's FP and UNK extractions.
/// Candidate scoring shares the context's RTT-feasibility memo with the
/// rest of the evaluation layer.
pub fn learn_hints(
    ctx: &EvalContext<'_>,
    learn: &LearnPolicy,
    nc: &NamingConvention,
    eval: &EvalResult,
) -> LearnedHints {
    use crate::eval::Outcome;
    let db = ctx.db;

    // Group FP/UNK extractions by token.
    struct Group {
        ty: GeohintType,
        host_idx: Vec<usize>,
        extracts_cc: bool,
        cc_tokens: Vec<Vec<String>>,
    }
    let mut groups: HashMap<String, Group> = HashMap::new();
    for (i, (ext, outcome, which)) in eval.per_host.iter().enumerate() {
        if !matches!(outcome, Outcome::Fp | Outcome::Unk) {
            continue;
        }
        let Some(e) = ext else { continue };
        let extracts_cc = which
            .and_then(|w| nc.regexes.get(w))
            .map(|r| r.plan.extracts_cc())
            .unwrap_or(false);
        let g = groups.entry(e.hint.clone()).or_insert(Group {
            ty: e.ty,
            host_idx: Vec::new(),
            extracts_cc,
            cc_tokens: Vec::new(),
        });
        g.host_idx.push(i);
        if !e.cc_tokens.is_empty() {
            g.cc_tokens.push(e.cc_tokens.clone());
        }
    }

    let mut out = LearnedHints::new();
    // Stable order: hash-map iteration must not influence results.
    let mut groups: Vec<(String, Group)> = groups.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    hoiho_obs::add("learned.candidate_tokens", groups.len() as u64);
    for (token, g) in groups {
        let candidates = candidate_locations(db, &token, g.ty);
        if candidates.is_empty() {
            continue;
        }
        // Candidates must agree with every extracted country/state code.
        let candidates: Vec<LocationId> = candidates
            .into_iter()
            .filter(|id| {
                g.cc_tokens.iter().all(|tokens| {
                    tokens
                        .iter()
                        .all(|t| db.location(*id).matches_cc_or_state(t))
                })
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }

        // Score each candidate over the distinct routers of the group.
        let mut scored: Vec<(LocationId, usize, usize)> = candidates
            .iter()
            .map(|&loc| {
                let (tp, fp) = score(ctx, &g.host_idx, loc);
                (loc, tp, fp)
            })
            .collect();
        // Rank per policy (the paper: facility, then population, then
        // TPs).
        scored.sort_by(|a, b| {
            let pop = |x: &(LocationId, usize, usize)| db.location(x.0).population;
            match learn.rank {
                RankOrder::FacilityPopulationTp => {
                    let fa = db.has_facility(a.0);
                    let fb = db.has_facility(b.0);
                    fb.cmp(&fa)
                        .then_with(|| pop(b).cmp(&pop(a)))
                        .then_with(|| b.1.cmp(&a.1))
                }
                RankOrder::PopulationTp => pop(b).cmp(&pop(a)).then_with(|| b.1.cmp(&a.1)),
                RankOrder::TpPopulation => b.1.cmp(&a.1).then_with(|| pop(b).cmp(&pop(a))),
            }
        });
        let (loc, tp, fp) = scored[0];

        // The existing dictionary meaning's best score.
        let existing = db.lookup_typed(&token, g.ty);
        let existing_tp = existing
            .iter()
            .map(|&l| score(ctx, &g.host_idx, l).0)
            .max()
            .unwrap_or(0);

        let ppv = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        if ppv < learn.min_ppv {
            continue;
        }
        if !existing.is_empty() && tp <= existing_tp + 1 {
            continue;
        }
        let need = if g.extracts_cc {
            learn.congruent_with_cc
        } else {
            learn.congruent_without_cc
        };
        if tp < need {
            continue;
        }
        out.insert(LearnedHint {
            token,
            ty: g.ty,
            location: loc,
            tp,
            fp,
            existing_tp,
        });
    }
    hoiho_obs::add("learned.hints_accepted", out.len() as u64);
    out
}

/// Count distinct routers RTT-consistent (TP) / inconsistent (FP) with a
/// candidate location, through the context's feasibility memo. Routers
/// the context's table does not constrain contribute nothing.
fn score(ctx: &EvalContext<'_>, host_idx: &[usize], loc: LocationId) -> (usize, usize) {
    let mut tp_routers = HashSet::new();
    let mut fp_routers = HashSet::new();
    for &i in host_idx {
        let h = &ctx.hosts[i];
        if !ctx.constrained(h) {
            continue;
        }
        if ctx.feasible(h, loc) {
            tp_routers.insert(h.router);
        } else {
            fp_routers.insert(h.router);
        }
    }
    // A router that is consistent via one hostname and inconsistent via
    // another counts on both sides only once each.
    (tp_routers.len(), fp_routers.len())
}

/// Candidate locations a token could abbreviate, per hint type (§5.4).
pub fn candidate_locations(db: &GeoDb, token: &str, ty: GeohintType) -> Vec<LocationId> {
    match ty {
        GeohintType::Iata | GeohintType::Icao => db.abbreviation_candidates(token, false),
        GeohintType::CityName => db.abbreviation_candidates(token, true),
        GeohintType::Clli => {
            if token.len() != 6 {
                return Vec::new();
            }
            let four = &token[..4];
            let region = &token[4..6];
            db.abbreviated_cities(four, &AbbrevOptions::default(), false)
                .filter(|&id| clli_region(db.location(id)) == region)
                .collect()
        }
        GeohintType::Locode => {
            if token.len() != 5 {
                return Vec::new();
            }
            let cc = &token[..2];
            let tail = &token[2..];
            db.abbreviated_cities(tail, &AbbrevOptions::default(), false)
                .filter(|&id| db.location(id).country.matches_token(cc))
                .collect()
        }
        GeohintType::Facility => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convention::{CaptureRole, GeoRegex, Plan};
    use crate::eval::eval_nc;
    use crate::train::TrainHost;
    use hoiho_geotypes::{Coordinates, Rtt};
    use hoiho_regex::Regex;
    use hoiho_rtt::{consistency::BestCaseTable, ConsistencyPolicy, RouterRtts, VpId, VpSet};

    const POLICY: ConsistencyPolicy = ConsistencyPolicy::STRICT;

    fn world() -> (GeoDb, VpSet) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("cgs-us", Coordinates::new(38.98, -76.94)); // College Park MD
        vps.add("zrh-ch", Coordinates::new(47.38, 8.54)); // Zurich
        (db, vps)
    }

    /// A `(router, hostname, vp, ms)` row: one sample per router.
    type Row<'r> = (u32, &'r str, u16, f64);

    /// The RTTs of each row.
    fn measure(rows: &[Row]) -> Vec<RouterRtts> {
        rows.iter()
            .map(|&(_, _, vp, ms)| {
                let mut rtts = RouterRtts::new();
                rtts.record(VpId(vp), Rtt::from_ms(ms));
                rtts
            })
            .collect()
    }

    /// The training hosts of `rows`, each borrowing its row's RTTs from
    /// `rtts` (as [`measure`] built them). The suffix is the last two
    /// labels.
    fn hosts<'a>(
        db: &GeoDb,
        vps: &VpSet,
        rows: &[Row],
        rtts: &'a [RouterRtts],
    ) -> Vec<TrainHost<'a>> {
        let table = BestCaseTable::new(vps, &POLICY, db.coords(), &[]);
        rows.iter()
            .zip(rtts)
            .map(|(&(router, hostname, _, _), rtts)| {
                let prefix_len = hostname.rmatch_indices('.').nth(1).unwrap().0;
                TrainHost::new(
                    db,
                    &table,
                    hostname.to_string(),
                    prefix_len,
                    router,
                    rtts.samples(),
                )
            })
            .collect()
    }

    /// Reproduce figure 8a: he.net-style hostnames using "ash" for
    /// Ashburn VA while the IATA dictionary says Nashua NH.
    #[test]
    fn learns_ash_is_ashburn() {
        let (db, vps) = world();
        let nc = NamingConvention {
            suffix: "example.net".into(),
            regexes: vec![GeoRegex {
                regex: Regex::parse(r"^.+\.core\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
                plan: Plan {
                    roles: vec![CaptureRole::Hint(GeohintType::Iata)],
                },
            }],
        };
        // Four Ashburn routers (3–9 ms from College Park) plus three
        // legitimate Zurich routers so the NC itself is confident.
        let rows = [
            (1, "gcr.core1.ash1.example.net", 0, 9.0),
            (2, "ge1-2.core1.ash1.example.net", 0, 3.0),
            (3, "ge10-1.core2.ash1.example.net", 0, 3.0),
            (4, "ve401.core2.ash1.example.net", 0, 5.0),
            (5, "a.core1.zrh1.example.net", 1, 2.0),
            (6, "b.core1.zrh2.example.net", 1, 2.0),
        ];
        let rtts = measure(&rows);
        let hosts = hosts(&db, &vps, &rows, &rtts);
        let table = BestCaseTable::new(&vps, &POLICY, db.coords(), &[]);
        let ctx = EvalContext::new(&db, "example.net", &hosts, &table);
        let eval = eval_nc(&ctx, &nc, None);
        // "ash" decodes to Nashua which is ~700km away: FPs.
        assert!(eval.metrics.fp >= 3, "fp = {}", eval.metrics.fp);
        let learned = learn_hints(&ctx, &LearnPolicy::default(), &nc, &eval);
        let loc = learned.get("ash", GeohintType::Iata).expect("ash learned");
        let l = db.location(loc);
        assert_eq!(l.name, "Ashburn");
        assert_eq!(l.state.unwrap().as_str(), "va");
        // Re-evaluation with the learned hint turns the FPs into TPs.
        let eval2 = eval_nc(&ctx, &nc, Some(&learned));
        assert!(eval2.metrics.tp > eval.metrics.tp);
        assert_eq!(eval2.metrics.fp, 0);
    }

    /// Reproduce figure 8b: an invented CLLI "mlanit" with a country
    /// code needs only one congruent router.
    #[test]
    fn learns_invented_clli_with_cc() {
        let (db, vps) = world();
        let nc = NamingConvention {
            suffix: "example.net".into(),
            regexes: vec![GeoRegex {
                regex: Regex::parse(r"^.+\.r\d+\.([a-z]{6})\d+\.([a-z]{2})\.bb\.example\.net$")
                    .unwrap(),
                plan: Plan {
                    roles: vec![CaptureRole::Hint(GeohintType::Clli), CaptureRole::CcOrState],
                },
            }],
        };
        // Milan is ~220km from the Zurich VP. Include enough real CLLI
        // extractions for NC confidence.
        let rows = [
            (1, "ae-7.r02.mlanit01.it.bb.example.net", 1, 6.0),
            (2, "ae-3.r21.mlanit02.it.bb.example.net", 1, 6.0),
            (3, "x.r01.zrchzh01.ch.bb.example.net", 1, 1.0),
            (4, "x.r01.gnvege01.ch.bb.example.net", 1, 4.0),
            (5, "x.r01.mnchby01.de.bb.example.net", 1, 4.5),
        ];
        let rtts = measure(&rows);
        let hosts = hosts(&db, &vps, &rows, &rtts);
        // The supporting hostnames use the derived dictionary CLLI
        // prefixes for Zurich/Geneva/Munich so the NC itself looks sane.
        let table = BestCaseTable::new(&vps, &POLICY, db.coords(), &[]);
        let ctx = EvalContext::new(&db, "example.net", &hosts, &table);
        let eval = eval_nc(&ctx, &nc, None);
        let learned = learn_hints(&ctx, &LearnPolicy::default(), &nc, &eval);
        let loc = learned
            .get("mlanit", GeohintType::Clli)
            .expect("mlanit learned");
        assert_eq!(db.location(loc).name, "Milan");
    }

    #[test]
    fn does_not_learn_from_single_router_without_cc() {
        let (db, vps) = world();
        let nc = NamingConvention {
            suffix: "example.net".into(),
            regexes: vec![GeoRegex {
                regex: Regex::parse(r"^.+\.core\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
                plan: Plan {
                    roles: vec![CaptureRole::Hint(GeohintType::Iata)],
                },
            }],
        };
        // Only one Ashburn router: below the 3-congruent-router bar.
        let rows = [(1, "gcr.core1.ash1.example.net", 0, 5.0)];
        let rtts = measure(&rows);
        let hosts = hosts(&db, &vps, &rows, &rtts);
        let table = BestCaseTable::new(&vps, &POLICY, db.coords(), &[]);
        let ctx = EvalContext::new(&db, "example.net", &hosts, &table);
        let eval = eval_nc(&ctx, &nc, None);
        let learned = learn_hints(&ctx, &LearnPolicy::default(), &nc, &eval);
        assert!(learned.get("ash", GeohintType::Iata).is_none());
    }

    #[test]
    fn candidate_locations_by_type() {
        let (db, _) = world();
        // IATA-style: loose abbreviation.
        let c = candidate_locations(&db, "ash", GeohintType::Iata);
        assert!(c.iter().any(|&id| db.location(id).name == "Ashburn"));
        assert!(c.iter().any(|&id| db.location(id).name == "Ashland"));
        // CLLI: 4-letter abbreviation + matching region.
        let c = candidate_locations(&db, "mlanit", GeohintType::Clli);
        assert!(c.iter().any(|&id| db.location(id).name == "Milan"));
        assert!(c.iter().all(|&id| db.location(id).country.as_str() == "it"));
        // LOCODE: country prefix enforced.
        let c = candidate_locations(&db, "jptky", GeohintType::Locode);
        assert!(c.iter().all(|&id| db.location(id).country.as_str() == "jp"));
        // Wrong widths are rejected.
        assert!(candidate_locations(&db, "mlan", GeohintType::Clli).is_empty());
        assert!(candidate_locations(&db, "tky", GeohintType::Locode).is_empty());
        // Facilities are never learned.
        assert!(candidate_locations(&db, "x", GeohintType::Facility).is_empty());
    }

    #[test]
    fn population_breaks_ties_toward_big_city() {
        // fig 8a: Ashburn VA beats Ashland VA/NJ via facility+population.
        let (db, _) = world();
        let cands = candidate_locations(&db, "ash", GeohintType::Iata);
        let ashburn = cands
            .iter()
            .find(|&&id| db.location(id).name == "Ashburn" && db.location(id).population > 10_000)
            .unwrap();
        assert!(db.has_facility(*ashburn));
    }
}
