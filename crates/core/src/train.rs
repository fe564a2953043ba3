//! Per-suffix training sets assembled from a corpus.

use crate::apparent::{tag_prefix_cached, Tag};
use crate::evalctx::FeasibilityCache;
use hoiho_geodb::GeoDb;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::fault::strip_vps;
use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};
use std::collections::HashMap;
use std::sync::Arc;

/// One hostname with its stage-2 tags and the RTT samples of its router.
#[derive(Debug, Clone)]
pub struct TrainHost {
    /// Full hostname.
    pub hostname: String,
    /// The part before the registerable suffix.
    pub prefix: String,
    /// Index of the router in the source corpus.
    pub router: u32,
    /// Minimum ping RTTs of the router (shared across its hostnames).
    pub rtts: Arc<RouterRtts>,
    /// Apparent geohints (stage 2).
    pub tags: Vec<Tag>,
}

impl TrainHost {
    /// Whether stage 2 tagged an apparent geohint.
    pub fn is_tagged(&self) -> bool {
        !self.tags.is_empty()
    }
}

/// All hostnames of one suffix.
#[derive(Debug, Clone)]
pub struct SuffixSet {
    /// The registerable suffix.
    pub suffix: String,
    /// Training hostnames.
    pub hosts: Vec<TrainHost>,
}

impl SuffixSet {
    /// Number of tagged hostnames.
    pub fn tagged(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_tagged()).count()
    }
}

/// Group a corpus into per-suffix training sets, running stage 2 tagging
/// on every hostname. Returns sets sorted by descending size.
pub fn build_training_sets(
    db: &GeoDb,
    psl: &PublicSuffixList,
    corpus: &Corpus,
    policy: &ConsistencyPolicy,
) -> Vec<SuffixSet> {
    build_training_sets_stripped(db, psl, corpus, policy, &[])
}

/// [`build_training_sets`] with the samples of the `spoofed` VPs removed
/// from every training router's ping RTTs (§5.1.4). Only routers that
/// contribute a hostname get an RTT copy, and stripping happens at that
/// copy, so the corpus itself is never cloned.
pub(crate) fn build_training_sets_stripped(
    db: &GeoDb,
    psl: &PublicSuffixList,
    corpus: &Corpus,
    policy: &ConsistencyPolicy,
    spoofed: &[VpId],
) -> Vec<SuffixSet> {
    let vps: &VpSet = &corpus.vps;
    // One corpus-wide feasibility cache, keyed by router id: every
    // hostname of a router probes the same candidate locations against
    // the same RTT samples.
    let feas = FeasibilityCache::new();
    let mut by_suffix: HashMap<String, Vec<TrainHost>> = HashMap::new();
    for (id, r) in corpus.iter() {
        let mut rtts: Option<Arc<RouterRtts>> = None;
        for h in r.hostnames() {
            let Some(suffix) = psl.registerable_suffix(h) else {
                continue;
            };
            let Some(prefix) = psl.prefix_of(h) else {
                continue;
            };
            let rtts = rtts.get_or_insert_with(|| {
                Arc::new(if spoofed.is_empty() {
                    r.rtts.clone()
                } else {
                    strip_vps(&r.rtts, spoofed)
                })
            });
            let prefix = prefix.to_ascii_lowercase();
            let tags = tag_prefix_cached(db, vps, rtts, &prefix, policy, &feas, id.0 as u64);
            by_suffix.entry(suffix).or_default().push(TrainHost {
                hostname: h.to_ascii_lowercase(),
                prefix,
                router: id.0,
                rtts: Arc::clone(rtts),
                tags,
            });
        }
    }
    feas.flush_obs();
    let mut sets: Vec<SuffixSet> = by_suffix
        .into_iter()
        .map(|(suffix, hosts)| SuffixSet { suffix, hosts })
        .collect();
    sets.sort_by(|a, b| {
        b.hosts
            .len()
            .cmp(&a.hosts.len())
            .then(a.suffix.cmp(&b.suffix))
    });
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_itdk::spec::CorpusSpec;

    #[test]
    fn training_sets_group_by_suffix() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let spec = CorpusSpec {
            label: "train-test".into(),
            seed: 11,
            operators: 6,
            routers: 200,
            geo_operator_fraction: 1.0,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.9,
            rtt_response_rate: 0.95,
            vps: 15,
            custom_hint_operator_fraction: 0.0,
            custom_hint_rate: 0.0,
            stale_fraction: 0.0,
            provider_side_fraction: 0.0,
            ipv6: false,
        };
        let g = hoiho_itdk::generate(&db, &spec);
        let sets = build_training_sets(&db, &psl, &g.corpus, &ConsistencyPolicy::STRICT);
        assert_eq!(sets.len(), 6);
        // Sorted by size.
        for w in sets.windows(2) {
            assert!(w[0].hosts.len() >= w[1].hosts.len());
        }
        // Most hostnames of geo operators should carry tags.
        let total: usize = sets.iter().map(|s| s.hosts.len()).sum();
        let tagged: usize = sets.iter().map(|s| s.tagged()).sum();
        assert!(
            tagged * 2 > total,
            "expected most hosts tagged: {tagged}/{total}"
        );
        // Prefixes must not contain the suffix.
        for s in &sets {
            for h in &s.hosts {
                assert!(!h.prefix.ends_with(&s.suffix));
                assert_eq!(h.hostname, format!("{}.{}", h.prefix, s.suffix));
            }
        }
    }
}
