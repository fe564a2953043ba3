//! Stage 3, phase 4: building regex sets (appendix A).
//!
//! Ranks candidate regexes by descending ATP and greedily combines them
//! into multi-regex naming conventions when the combination raises ATP,
//! every member regex keeps at least three unique geohints, and PPV does
//! not drop more than 10 points below the starting regex's.
//!
//! A grown set is never re-matched: its evaluation is composed from the
//! members' single-regex evaluations (the crate-private
//! `eval::compose_nc`), which equals evaluating the set afresh.

use crate::convention::{GeoRegex, NamingConvention};
use crate::eval::{compose_nc, EvalResult, Outcome};
use crate::evalctx::EvalContext;
use std::collections::HashSet;

/// How many top-ranked regexes participate in set building (bounds the
/// quadratic combination search).
pub const MAX_COMBINE: usize = 24;

/// Minimum unique geohints each member regex must contribute.
pub const MIN_UNIQUE_PER_REGEX: usize = 3;

/// Build candidate NCs from ranked single regexes. `ranked` must be
/// sorted by descending ATP, and each evaluation must be its regex's
/// [`eval_regex`](crate::eval::eval_regex) over `ctx` with no learned
/// hints. Returns all singles plus improved combinations, each with its
/// evaluation.
pub fn build_sets(
    ctx: &EvalContext<'_>,
    ranked: &[(GeoRegex, EvalResult)],
) -> Vec<(NamingConvention, EvalResult)> {
    let mut out: Vec<(NamingConvention, EvalResult)> = ranked
        .iter()
        .take(MAX_COMBINE)
        .map(|(r, e)| {
            (
                NamingConvention {
                    suffix: ctx.suffix.to_string(),
                    regexes: vec![r.clone()],
                },
                e.clone(),
            )
        })
        .collect();
    if out.is_empty() {
        return out;
    }

    // Greedy expansion from the top-ranked regex.
    let start_ppv = out[0].1.metrics.ppv();
    let mut current = out[0].clone();
    // Indices into `ranked` of the current set's regexes, in set order.
    let mut members = vec![0];
    let mut grew = true;
    while grew {
        grew = false;
        for (i, (cand, _)) in ranked.iter().enumerate().take(MAX_COMBINE) {
            if current
                .0
                .regexes
                .iter()
                .any(|r| r.regex.as_pattern() == cand.regex.as_pattern())
            {
                continue;
            }
            let singles: Vec<&EvalResult> =
                members.iter().chain([&i]).map(|&m| &ranked[m].1).collect();
            let eval = compose_nc(ctx, &singles);
            if eval.metrics.atp() <= current.1.metrics.atp() {
                continue;
            }
            if eval.metrics.ppv() + 1e-9 < start_ppv - 0.10 {
                continue;
            }
            if !members_have_unique_hints(singles.len(), &eval) {
                continue;
            }
            let mut nc = current.0.clone();
            nc.regexes.push(cand.clone());
            members.push(i);
            current = (nc, eval);
            out.push(current.clone());
            grew = true;
            break;
        }
    }
    out
}

/// Each of the NC's `members` regexes must extract ≥3 unique geohints
/// among its TPs.
fn members_have_unique_hints(members: usize, eval: &EvalResult) -> bool {
    let mut uniq: Vec<HashSet<&str>> = vec![HashSet::new(); members];
    for (ext, outcome, which) in &eval.per_host {
        if let (Some(e), Outcome::Tp, Some(w)) = (ext, outcome, which) {
            uniq[*w].insert(e.hint.as_str());
        }
    }
    uniq.iter().all(|u| u.len() >= MIN_UNIQUE_PER_REGEX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convention::{CaptureRole, Plan};
    use crate::eval::eval_regex;
    use crate::train::TrainHost;
    use hoiho_geodb::GeoDb;
    use hoiho_geotypes::{Coordinates, GeohintType, Rtt};
    use hoiho_regex::Regex;
    use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};
    use std::sync::Arc;

    fn world() -> (GeoDb, VpSet) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
        (db, vps)
    }

    fn host(db: &GeoDb, vps: &VpSet, router: u32, hostname: &str, ms: f64) -> TrainHost {
        let mut rtts = RouterRtts::new();
        rtts.record(VpId(0), Rtt::from_ms(ms));
        let rtts = Arc::new(rtts);
        let parts: Vec<&str> = hostname.split('.').collect();
        let prefix = parts[..parts.len() - 2].join(".");
        let tags = crate::apparent::tag_prefix(db, vps, &rtts, &prefix, &ConsistencyPolicy::STRICT);
        TrainHost {
            hostname: hostname.into(),
            prefix,
            router,
            rtts,
            tags,
        }
    }

    /// Two naming forms within one suffix (IATA and city); phase 4 must
    /// combine both regexes into one NC with higher ATP.
    #[test]
    fn combines_two_forms() {
        let (db, vps) = world();
        // IATA-form hosts (European cities feasible from a London VP).
        let mut hosts = vec![
            host(&db, &vps, 1, "a.cr1.lhr1.example.net", 2.0),
            host(&db, &vps, 2, "b.cr1.cdg2.example.net", 5.0),
            host(&db, &vps, 3, "c.cr2.fra1.example.net", 9.0),
            host(&db, &vps, 4, "d.cr2.ams3.example.net", 6.0),
        ];
        // City-form hosts.
        hosts.extend([
            host(&db, &vps, 5, "e.gw1.brussels.example.net", 6.0),
            host(&db, &vps, 6, "f.gw2.dresden.example.net", 14.0),
            host(&db, &vps, 7, "g.gw1.prague.example.net", 13.0),
            host(&db, &vps, 8, "h.gw3.madrid.example.net", 14.0),
        ]);
        let iata = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.cr\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata)],
            },
        };
        let city = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.gw\d+\.([a-z]+)\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::CityName)],
            },
        };
        let policy = ConsistencyPolicy::STRICT;
        let ctx = EvalContext::new(&db, &vps, &policy, "example.net", &hosts);
        let ranked: Vec<(GeoRegex, EvalResult)> = [iata, city]
            .into_iter()
            .map(|r| {
                let e = eval_regex(&ctx, &r, None);
                (r, e)
            })
            .collect();
        let sets = build_sets(&ctx, &ranked);
        let best = sets
            .iter()
            .max_by_key(|(_, e)| e.metrics.atp())
            .expect("candidates");
        assert_eq!(best.0.regexes.len(), 2, "both forms combined");
        assert_eq!(best.1.metrics.tp, 8);
        assert_eq!(best.1.metrics.fn_, 0);
    }

    /// Composition must equal a fresh evaluation for every set phase 4
    /// can try, not only the ones it keeps: all ordered pairs and
    /// triples of each suffix's leading candidates on a seeded corpus.
    #[test]
    fn composition_equals_fresh_evaluation_for_tried_sets() {
        use crate::eval::{compose_nc, eval_nc};
        use crate::pipeline::Hoiho;
        use hoiho_itdk::spec::CorpusSpec;
        let db = GeoDb::builtin();
        let psl = hoiho_psl::PublicSuffixList::builtin();
        let g = hoiho_itdk::generate(&db, &CorpusSpec::ipv4_aug2020(3000));
        let hoiho = Hoiho::new(&db, &psl);
        let policy = hoiho_rtt::ConsistencyPolicy::STRICT;
        let sets = crate::train::build_training_sets(&db, &psl, &g.corpus, &policy);
        let mut tried = 0;
        for set in sets.iter().filter(|s| s.tagged() >= 3).take(12) {
            let ctx = EvalContext::new(&db, &g.corpus.vps, &policy, &set.suffix, &set.hosts);
            let ranked = hoiho.rank_candidates(&ctx);
            let top = ranked.len().min(5);
            let mut combos: Vec<Vec<usize>> = Vec::new();
            for a in 0..top {
                for b in (0..top).filter(|&b| b != a) {
                    combos.push(vec![a, b]);
                    for c in (0..top).filter(|&c| c != a && c != b) {
                        combos.push(vec![a, b, c]);
                    }
                }
            }
            for members in combos {
                let singles: Vec<&EvalResult> = members.iter().map(|&m| &ranked[m].1).collect();
                let nc = NamingConvention {
                    suffix: set.suffix.clone(),
                    regexes: members.iter().map(|&m| ranked[m].0.clone()).collect(),
                };
                let composed = compose_nc(&ctx, &singles);
                let fresh = eval_nc(&ctx, &nc, None);
                assert_eq!(composed.metrics, fresh.metrics, "{nc}");
                assert_eq!(composed.per_host, fresh.per_host, "{nc}");
                tried += 1;
            }
        }
        assert!(tried > 100, "only {tried} sets tried");
    }

    /// A junk regex whose TPs span fewer than three unique hints must
    /// not join the set.
    #[test]
    fn rejects_low_diversity_member() {
        let (db, vps) = world();
        let hosts = vec![
            host(&db, &vps, 1, "a.cr1.lhr1.example.net", 2.0),
            host(&db, &vps, 2, "b.cr1.cdg2.example.net", 5.0),
            host(&db, &vps, 3, "c.cr2.fra1.example.net", 9.0),
            host(&db, &vps, 4, "d.gw1.brussels.example.net", 6.0),
        ];
        let iata = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.cr\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata)],
            },
        };
        // Only one unique hint achievable for the city regex here.
        let city = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.gw\d+\.([a-z]+)\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::CityName)],
            },
        };
        let policy = ConsistencyPolicy::STRICT;
        let ctx = EvalContext::new(&db, &vps, &policy, "example.net", &hosts);
        let ranked: Vec<(GeoRegex, EvalResult)> = [iata, city]
            .into_iter()
            .map(|r| {
                let e = eval_regex(&ctx, &r, None);
                (r, e)
            })
            .collect();
        let sets = build_sets(&ctx, &ranked);
        for (nc, _) in &sets {
            assert_eq!(nc.regexes.len(), 1, "no combination should form");
        }
    }
}
