//! Per-suffix training sets assembled from a corpus.

use crate::apparent::{tag_prefix, Tag};
use hoiho_geodb::GeoDb;
use hoiho_geotypes::Rtt;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::{ConsistencyPolicy, VpId};
use std::collections::HashMap;

/// One hostname with its stage-2 tags and the RTT samples of its router,
/// borrowed from the training view, the corpus, or whatever else owns
/// them.
#[derive(Debug, Clone)]
pub struct TrainHost<'a> {
    /// Full hostname; private, so `prefix_len` stays a cut of it.
    hostname: String,
    /// Length of [`TrainHost::prefix`] within `hostname`.
    prefix_len: usize,
    /// Index of the router in the source corpus.
    pub router: u32,
    /// Minimum ping RTTs of the router (shared across its hostnames),
    /// sorted by VP with one sample per VP. The samples of VPs the learn
    /// ignores are still here; the [`BestCaseTable`] that tests them
    /// skips them.
    pub rtts: &'a [(VpId, Rtt)],
    /// Apparent geohints (stage 2).
    pub tags: Vec<Tag>,
}

impl<'a> TrainHost<'a> {
    /// A training host for `hostname`, whose first `prefix_len` bytes are
    /// the part before its registerable suffix, tagged by stage 2 with
    /// the interpretations `table` finds feasible for `rtts`.
    ///
    /// # Panics
    /// Panics when `prefix_len` is not a char boundary of `hostname`.
    pub fn new(
        db: &GeoDb,
        table: &BestCaseTable,
        hostname: String,
        prefix_len: usize,
        router: u32,
        rtts: &'a [(VpId, Rtt)],
    ) -> TrainHost<'a> {
        let tags = tag_prefix(db, rtts, &hostname[..prefix_len], table);
        TrainHost {
            hostname,
            prefix_len,
            router,
            rtts,
            tags,
        }
    }

    /// The full hostname.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// The part of the hostname before the registerable suffix.
    pub fn prefix(&self) -> &str {
        &self.hostname[..self.prefix_len]
    }

    /// Whether stage 2 tagged an apparent geohint.
    pub fn is_tagged(&self) -> bool {
        !self.tags.is_empty()
    }
}

/// All hostnames of one suffix.
#[derive(Debug, Clone)]
pub struct SuffixSet<'a> {
    /// The registerable suffix.
    pub suffix: String,
    /// Training hostnames.
    pub hosts: Vec<TrainHost<'a>>,
}

impl SuffixSet<'_> {
    /// Number of tagged hostnames.
    pub fn tagged(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_tagged()).count()
    }
}

/// Group a corpus into per-suffix training sets, running stage 2 tagging
/// on every hostname. Returns sets sorted by descending size.
pub fn build_training_sets<'c>(
    db: &GeoDb,
    psl: &PublicSuffixList,
    corpus: &'c Corpus,
    policy: &ConsistencyPolicy,
) -> Vec<SuffixSet<'c>> {
    let table = BestCaseTable::new(&corpus.vps, policy, db.coords(), &[]);
    let routers = corpus
        .iter()
        .map(|(id, r)| (id.0, r.hostnames(), r.rtts.samples()));
    build_training_sets_with(db, psl, routers, &table)
}

/// [`build_training_sets`] over `(corpus index, hostnames, ping samples)`
/// per router, testing feasibility through `table`, built for the
/// corpus's VPs, the learn's policy and the VPs it ignores. Each host
/// borrows its router's samples.
pub(crate) fn build_training_sets_with<'c, H: Iterator<Item = &'c str>>(
    db: &GeoDb,
    psl: &PublicSuffixList,
    routers: impl Iterator<Item = (u32, H, &'c [(VpId, Rtt)])>,
    table: &BestCaseTable,
) -> Vec<SuffixSet<'c>> {
    let mut by_suffix: HashMap<String, Vec<TrainHost<'c>>> = HashMap::new();
    for (id, hostnames, rtts) in routers {
        for h in hostnames {
            let Some((prefix, suffix)) = psl.split_at_suffix(h) else {
                continue;
            };
            // The name as lookups see it: a fully qualified name's
            // trailing dots dropped, as the split already drops them.
            let host = TrainHost::new(
                db,
                table,
                h.trim_end_matches('.').to_ascii_lowercase(),
                prefix.len(),
                id,
                rtts,
            );
            by_suffix.entry(suffix).or_default().push(host);
        }
    }
    let mut sets: Vec<SuffixSet<'c>> = by_suffix
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
                assert!(!h.prefix().ends_with(&s.suffix));
                assert_eq!(h.hostname(), format!("{}.{}", h.prefix(), s.suffix));
            }
        }
    }
}
