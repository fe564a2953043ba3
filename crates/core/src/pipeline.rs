//! End-to-end orchestration of the five stages (figure 4).

use crate::builder::{base_regexes_for_host, embed_character_classes, merge_digit_optional};
use crate::convention::{GeoRegex, NamingConvention};
use crate::eval::{eval_nc, eval_regex, EvalResult, Metrics, Outcome};
use crate::evalctx::EvalContext;
use crate::learned::{learn_hints, LearnPolicy, LearnedHints};
use crate::rank::{classify_nc, select_nc, NcClass};
use crate::train::{build_training_sets_stripped, SuffixSet};
use hoiho_geodb::GeoDb;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::{ConsistencyPolicy, VpSet};
use std::collections::{HashMap, HashSet};

/// Tunables of the learner.
#[derive(Debug, Clone)]
pub struct HoihoOptions {
    /// RTT feasibility policy (STRICT reproduces the paper).
    pub policy: ConsistencyPolicy,
    /// Stage-4 thresholds.
    pub learn: LearnPolicy,
    /// Stage-4 master switch (the §6.1 ablation sets this false).
    pub learn_custom_hints: bool,
    /// Cap on deduplicated phase-1 candidates per suffix.
    pub max_candidates: usize,
    /// How many top-ranked candidates phase 3 refines.
    pub refine_top: usize,
    /// Minimum tagged hostnames for a suffix to be worth learning.
    pub min_tagged: usize,
    /// Automatically detect and discard vantage points whose access
    /// routers spoof probe responses (§5.1.4: the paper discarded seven
    /// such VPs by hand and sketches this automation as future work).
    pub filter_spoofed_vps: bool,
    /// Worker threads for per-suffix learning (suffixes are
    /// independent). 0 means "use available parallelism".
    pub threads: usize,
}

impl Default for HoihoOptions {
    fn default() -> Self {
        HoihoOptions {
            policy: ConsistencyPolicy::STRICT,
            learn: LearnPolicy::default(),
            learn_custom_hints: true,
            max_candidates: 300,
            refine_top: 40,
            min_tagged: 3,
            filter_spoofed_vps: true,
            threads: 0,
        }
    }
}

impl HoihoOptions {
    /// The worker-thread count actually used: `threads`, or the
    /// machine's available parallelism when it is 0 (auto-detect).
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// The outcome for one suffix.
#[derive(Debug, Clone)]
pub struct SuffixResult {
    /// The registerable suffix.
    pub suffix: String,
    /// Hostnames in the training set.
    pub hosts: usize,
    /// Hostnames stage 2 tagged with an apparent geohint.
    pub tagged_hosts: usize,
    /// The selected naming convention, if any regex survived.
    pub nc: Option<NamingConvention>,
    /// Final evaluation (with learned hints applied).
    pub metrics: Option<Metrics>,
    /// Quality class.
    pub class: NcClass,
    /// The distinct TP hint texts behind `metrics.unique_hints`,
    /// sorted — interned ids resolved back to strings at this report
    /// boundary.
    pub unique_hints: Vec<String>,
    /// Suffix-specific learned geohints.
    pub learned: LearnedHints,
    /// Routers with apparent geohints whose hostnames this NC
    /// geolocated (TP extractions on tagged hostnames) — the paper's
    /// table-2 "geolocated" population.
    pub geolocated_routers: HashSet<u32>,
    /// Routers *without* RTT constraints that the NC nevertheless
    /// geolocated — the paper's point that regexes generalise past the
    /// measurement infrastructure.
    pub extrapolated_routers: HashSet<u32>,
}

/// Corpus-level report: table-2-style coverage plus all per-suffix
/// results.
#[derive(Debug, Clone)]
pub struct LearnReport {
    /// Corpus label.
    pub label: String,
    /// Per-suffix outcomes, largest suffix first.
    pub results: Vec<SuffixResult>,
    /// Routers in the corpus.
    pub total_routers: usize,
    /// Routers with a hostname.
    pub routers_with_hostname: usize,
    /// Routers with an apparent geohint (stage 2).
    pub routers_with_apparent: usize,
    /// Tagged routers geolocated by usable NCs.
    pub routers_geolocated: usize,
    /// Unmeasured routers additionally geolocated by usable NCs.
    pub routers_extrapolated: usize,
    /// Vantage points discarded as spoofing before learning.
    pub spoofed_vps: Vec<hoiho_rtt::VpId>,
}

impl LearnReport {
    /// Results with usable (good or promising) NCs.
    pub fn usable(&self) -> impl Iterator<Item = &SuffixResult> {
        self.results.iter().filter(|r| r.class.usable())
    }

    /// Count of suffixes per class.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut good = 0;
        let mut promising = 0;
        let mut poor = 0;
        for r in &self.results {
            match r.class {
                NcClass::Good => good += 1,
                NcClass::Promising => promising += 1,
                NcClass::Poor => poor += 1,
            }
        }
        (good, promising, poor)
    }
}

/// The learner: dictionary + suffix list + options.
#[derive(Debug)]
pub struct Hoiho<'a> {
    db: &'a GeoDb,
    psl: &'a PublicSuffixList,
    opts: HoihoOptions,
}

impl<'a> Hoiho<'a> {
    /// A learner with default options.
    pub fn new(db: &'a GeoDb, psl: &'a PublicSuffixList) -> Hoiho<'a> {
        Hoiho {
            db,
            psl,
            opts: HoihoOptions::default(),
        }
    }

    /// A learner with explicit options.
    pub fn with_options(db: &'a GeoDb, psl: &'a PublicSuffixList, opts: HoihoOptions) -> Hoiho<'a> {
        Hoiho { db, psl, opts }
    }

    /// The options in force.
    pub fn options(&self) -> &HoihoOptions {
        &self.opts
    }

    /// Run all five stages over a corpus.
    pub fn learn_corpus(&self, corpus: &Corpus) -> LearnReport {
        let _learn_span = hoiho_obs::span("learn");
        // Measurement hygiene first: find VPs whose RTTs are physically
        // implausible across the whole campaign (spoofing middleboxes).
        let spoofed_vps = if self.opts.filter_spoofed_vps {
            let _span = hoiho_obs::span("learn.filter_vps");
            let refs: Vec<&hoiho_rtt::RouterRtts> =
                corpus.routers.iter().map(|r| &r.rtts).collect();
            hoiho_rtt::fault::detect_spoofing_vps_blind(&corpus.vps, &refs, 5.0, 5.0, 20)
        } else {
            Vec::new()
        };
        if hoiho_obs::enabled() && !spoofed_vps.is_empty() {
            hoiho_obs::progress(format!(
                "discarded {} spoofing vantage point(s)",
                spoofed_vps.len()
            ));
        }
        // Stage 2 strips the spoofed samples as it copies each training
        // router's RTTs; nothing later reads the corpus's own RTTs.
        let sets = {
            let _span = hoiho_obs::span("learn.train");
            build_training_sets_stripped(self.db, self.psl, corpus, &self.opts.policy, &spoofed_vps)
        };

        let mut routers_with_apparent: HashSet<u32> = HashSet::new();
        for s in &sets {
            for h in &s.hosts {
                if h.is_tagged() {
                    routers_with_apparent.insert(h.router);
                }
            }
        }

        let results = self.learn_all(&corpus.vps, &sets);
        let mut geolocated: HashSet<u32> = HashSet::new();
        let mut extrapolated: HashSet<u32> = HashSet::new();
        for r in &results {
            if r.class.usable() {
                geolocated.extend(r.geolocated_routers.iter().copied());
                extrapolated.extend(r.extrapolated_routers.iter().copied());
            }
        }

        LearnReport {
            label: corpus.label.clone(),
            results,
            total_routers: corpus.len(),
            routers_with_hostname: corpus.routers.iter().filter(|r| r.has_hostname()).count(),
            routers_with_apparent: routers_with_apparent.len(),
            routers_geolocated: geolocated.len(),
            routers_extrapolated: extrapolated.len(),
            spoofed_vps,
        }
    }

    /// Learn every suffix, fanning work across worker threads: suffixes
    /// are independent, so results are identical to the sequential
    /// order-preserving loop.
    fn learn_all(&self, vps: &VpSet, sets: &[SuffixSet]) -> Vec<SuffixResult> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let threads = self.opts.resolved_threads().min(sets.len().max(1));
        let done = AtomicUsize::new(0);
        let report = |result: &SuffixResult, done: &AtomicUsize| {
            if hoiho_obs::enabled() {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                hoiho_obs::progress(format!(
                    "suffix {}/{}: {} ({} hosts, {} tagged, {:?})",
                    n,
                    sets.len(),
                    result.suffix,
                    result.hosts,
                    result.tagged_hosts,
                    result.class
                ));
            }
        };
        if threads <= 1 || sets.len() < 4 {
            return sets
                .iter()
                .map(|s| {
                    let r = self.learn_suffix(vps, s);
                    report(&r, &done);
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, SuffixResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let done = &done;
                    let report = &report;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= sets.len() {
                                break;
                            }
                            let r = self.learn_suffix(vps, &sets[i]);
                            report(&r, done);
                            local.push((i, r));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Run stages 3–5 for one suffix (stage 2 tags are already on the
    /// training set).
    pub fn learn_suffix(&self, vps: &VpSet, set: &SuffixSet) -> SuffixResult {
        let hosts = &set.hosts;
        let tagged = set.tagged();
        let empty = |class| SuffixResult {
            suffix: set.suffix.clone(),
            hosts: hosts.len(),
            tagged_hosts: tagged,
            nc: None,
            metrics: None,
            class,
            unique_hints: Vec::new(),
            learned: LearnedHints::new(),
            geolocated_routers: HashSet::new(),
            extrapolated_routers: HashSet::new(),
        };
        if tagged < self.opts.min_tagged {
            return empty(NcClass::Poor);
        }
        let _suffix_span = hoiho_obs::span_detail("learn.suffix", set.suffix.clone());
        // One evaluation context for the whole suffix: every candidate
        // below shares its decode and feasibility memos.
        let ctx = EvalContext::new(self.db, vps, &self.opts.policy, &set.suffix, hosts);

        // Phase 1: base regexes, deduplicated, most-generated first.
        let phase1 = hoiho_obs::span("learn.suffix.phase1");
        let mut counts: HashMap<String, (GeoRegex, usize)> = HashMap::new();
        for h in hosts {
            if !h.is_tagged() {
                continue;
            }
            for r in base_regexes_for_host(&h.prefix, &h.tags, &set.suffix) {
                counts.entry(r.regex.as_pattern()).or_insert((r, 0)).1 += 1;
            }
        }
        let mut cands: Vec<(GeoRegex, usize)> = counts.into_values().collect();
        if hoiho_obs::enabled() {
            hoiho_obs::counter!("learn.candidates_generated")
                .add(cands.iter().map(|(_, c)| *c as u64).sum());
            hoiho_obs::counter!("learn.candidates_deduped").add(cands.len() as u64);
        }
        // Tie-break by pattern text so results do not depend on hash
        // iteration order.
        cands.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.regex.as_pattern().cmp(&b.0.regex.as_pattern()))
        });
        cands.truncate(self.opts.max_candidates);

        // Evaluate singles.
        let mut evals: Vec<(GeoRegex, EvalResult)> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for (r, _) in &cands {
            let e = eval_regex(&ctx, r, None);
            if e.metrics.tp > 0 {
                seen.insert(r.regex.as_pattern());
                evals.push((r.clone(), e));
            }
        }
        drop(phase1);
        if evals.is_empty() {
            return empty(NcClass::Poor);
        }

        // Phase 2: digit-optional merges.
        let phase2 = hoiho_obs::span("learn.suffix.phase2");
        let singles: Vec<GeoRegex> = evals.iter().map(|(r, _)| r.clone()).collect();
        for m in merge_digit_optional(&singles) {
            if seen.insert(m.regex.as_pattern()) {
                let e = eval_regex(&ctx, &m, None);
                if e.metrics.tp > 0 {
                    evals.push((m, e));
                }
            }
        }
        drop(phase2);

        evals.sort_by(|a, b| {
            b.1.metrics
                .atp()
                .cmp(&a.1.metrics.atp())
                .then_with(|| a.0.regex.as_pattern().cmp(&b.0.regex.as_pattern()))
        });

        // Phase 3: refine the leaders.
        let phase3 = hoiho_obs::span("learn.suffix.phase3");
        let mut refined = Vec::new();
        for (r, _) in evals.iter().take(self.opts.refine_top) {
            if let Some(n) = embed_character_classes(hosts, r) {
                if seen.insert(n.regex.as_pattern()) {
                    let e = eval_regex(&ctx, &n, None);
                    if e.metrics.tp > 0 {
                        refined.push((n, e));
                    }
                }
            }
        }
        hoiho_obs::add("learn.candidates_refined", refined.len() as u64);
        evals.extend(refined);
        drop(phase3);
        evals.sort_by(|a, b| {
            b.1.metrics
                .atp()
                .cmp(&a.1.metrics.atp())
                .then_with(|| a.0.regex.as_pattern().cmp(&b.0.regex.as_pattern()))
        });

        // Phase 4 + stage 5.
        let phase4 = hoiho_obs::span("learn.suffix.phase4");
        let ncs = crate::sets::build_sets(&ctx, &evals);
        let selected = select_nc(ncs);
        drop(phase4);
        let Some((nc, mut eval)) = selected else {
            return empty(NcClass::Poor);
        };

        // Stage 4: learned geohints, then re-evaluate. The learned
        // overlay rides on top of the context's decode memo, so nothing
        // is invalidated here.
        let mut learned = LearnedHints::new();
        if self.opts.learn_custom_hints
            && eval.metrics.unique_hints.len() >= 3
            && eval.metrics.ppv() > 0.40
        {
            let _hints_span = hoiho_obs::span("learn.suffix.hints");
            learned = learn_hints(&ctx, &self.opts.learn, &nc, &eval);
            if !learned.is_empty() {
                eval = eval_nc(&ctx, &nc, Some(&learned));
            }
        }

        let class = classify_nc(&eval.metrics);
        let unique_hints = ctx.resolve_hints(&eval.metrics.unique_hints);
        let mut geolocated_routers = HashSet::new();
        let mut extrapolated_routers = HashSet::new();
        for (h, (_, outcome, _)) in hosts.iter().zip(eval.per_host.iter()) {
            if *outcome == Outcome::Tp {
                if h.is_tagged() {
                    geolocated_routers.insert(h.router);
                } else {
                    extrapolated_routers.insert(h.router);
                }
            }
        }
        SuffixResult {
            suffix: set.suffix.clone(),
            hosts: hosts.len(),
            tagged_hosts: tagged,
            nc: Some(nc),
            metrics: Some(eval.metrics),
            class,
            unique_hints,
            learned,
            geolocated_routers,
            extrapolated_routers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_itdk::spec::CorpusSpec;

    fn spec() -> CorpusSpec {
        CorpusSpec {
            label: "pipeline-test".into(),
            seed: 21,
            operators: 8,
            routers: 500,
            geo_operator_fraction: 0.75,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.9,
            rtt_response_rate: 0.9,
            vps: 25,
            custom_hint_operator_fraction: 0.4,
            custom_hint_rate: 0.25,
            stale_fraction: 0.005,
            provider_side_fraction: 0.0,
            ipv6: false,
        }
    }

    #[test]
    fn learns_usable_ncs_on_synthetic_corpus() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = hoiho_itdk::generate(&db, &spec());
        let hoiho = Hoiho::new(&db, &psl);
        let report = hoiho.learn_corpus(&g.corpus);

        assert_eq!(report.total_routers, g.corpus.len());
        assert!(report.routers_with_hostname > 0);
        assert!(report.routers_with_apparent > 0);

        let usable: Vec<_> = report.usable().collect();
        assert!(
            !usable.is_empty(),
            "no usable NCs learned; classes: {:?}",
            report
                .results
                .iter()
                .map(|r| (r.suffix.clone(), r.class, r.tagged_hosts))
                .collect::<Vec<_>>()
        );
        // Usable NCs should cover a decent share of tagged routers.
        assert!(
            report.routers_geolocated * 2 >= report.routers_with_apparent,
            "geolocated {} of {} apparent",
            report.routers_geolocated,
            report.routers_with_apparent
        );

        // Learned NCs correspond to geo operators and achieve high PPV.
        for r in usable {
            let m = r.metrics.as_ref().unwrap();
            assert!(m.ppv() >= 0.8, "{}: ppv {}", r.suffix, m.ppv());
            assert!(m.unique_hints.len() >= 3);
        }
    }

    /// The per-suffix EvalContext makes each suffix's evaluation
    /// self-contained, so the thread count must not change anything:
    /// same classes, same metrics, same patterns, same learned hints.
    #[test]
    fn thread_count_does_not_change_results() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let g = hoiho_itdk::generate(&db, &spec());
        let run = |threads: usize| {
            Hoiho::with_options(
                &db,
                &psl,
                HoihoOptions {
                    threads,
                    ..Default::default()
                },
            )
            .learn_corpus(&g.corpus)
        };
        let one = run(1);
        let eight = run(8);

        assert_eq!(one.total_routers, eight.total_routers);
        assert_eq!(one.routers_with_hostname, eight.routers_with_hostname);
        assert_eq!(one.routers_with_apparent, eight.routers_with_apparent);
        assert_eq!(one.routers_geolocated, eight.routers_geolocated);
        assert_eq!(one.results.len(), eight.results.len());
        for (a, b) in one.results.iter().zip(eight.results.iter()) {
            assert_eq!(a.suffix, b.suffix);
            assert_eq!(a.hosts, b.hosts);
            assert_eq!(a.tagged_hosts, b.tagged_hosts);
            assert_eq!(a.class, b.class, "{}", a.suffix);
            assert_eq!(a.metrics, b.metrics, "{}", a.suffix);
            assert_eq!(a.unique_hints, b.unique_hints, "{}", a.suffix);
            assert_eq!(a.learned, b.learned, "{}", a.suffix);
            let patterns = |r: &SuffixResult| {
                r.nc.as_ref().map(|nc| {
                    nc.regexes
                        .iter()
                        .map(|g| g.regex.as_pattern())
                        .collect::<Vec<_>>()
                })
            };
            assert_eq!(patterns(a), patterns(b), "{}", a.suffix);
            assert_eq!(a.geolocated_routers, b.geolocated_routers, "{}", a.suffix);
            assert_eq!(
                a.extrapolated_routers, b.extrapolated_routers,
                "{}",
                a.suffix
            );
        }
    }

    #[test]
    fn ablation_learn_toggle_changes_results() {
        let db = GeoDb::builtin();
        let psl = PublicSuffixList::builtin();
        let mut s = spec();
        s.custom_hint_operator_fraction = 1.0;
        s.custom_hint_rate = 0.5;
        let g = hoiho_itdk::generate(&db, &s);

        let with = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
        let without = Hoiho::with_options(
            &db,
            &psl,
            HoihoOptions {
                learn_custom_hints: false,
                ..Default::default()
            },
        )
        .learn_corpus(&g.corpus);

        let learned_with: usize = with.results.iter().map(|r| r.learned.len()).sum();
        let learned_without: usize = without.results.iter().map(|r| r.learned.len()).sum();
        assert!(learned_with > 0, "expected learned hints");
        assert_eq!(learned_without, 0);
        // Learned hints can only help coverage.
        assert!(with.routers_geolocated >= without.routers_geolocated);
    }
}
