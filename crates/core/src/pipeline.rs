//! End-to-end orchestration of the five stages (figure 4).

use crate::builder::{base_candidates, embed_character_classes, merge_digit_optional};
use crate::convention::{GeoRegex, NamingConvention};
use crate::eval::{eval_nc, eval_regex, EvalResult, Metrics, Outcome};
use crate::evalctx::EvalContext;
use crate::learned::{learn_hints, LearnPolicy, LearnedHints};
use crate::rank::{classify_nc, select_nc, NcClass};
use crate::train::{build_training_sets_with, SuffixSet};
use crate::view::TrainingView;
use hoiho_geodb::GeoDb;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::consistency::BestCaseTable;
use hoiho_rtt::{ConsistencyPolicy, VpId, VpSet};
use std::collections::HashSet;

/// Cap on deduplicated phase-1 candidates per suffix.
const MAX_CANDIDATES: usize = 300;
/// How many top-ranked candidates phase 3 refines.
const REFINE_TOP: usize = 40;
/// Minimum tagged hostnames for a suffix to be worth learning.
pub const MIN_TAGGED: usize = 3;
/// RTT feasibility policy (STRICT reproduces the paper).
pub(crate) const POLICY: ConsistencyPolicy = ConsistencyPolicy::STRICT;

/// Tunables of the learner.
#[derive(Debug, Clone)]
pub struct HoihoOptions {
    /// Stage-4 thresholds.
    pub learn: LearnPolicy,
    /// Stage-4 master switch (the §6.1 ablation sets this false).
    pub learn_custom_hints: bool,
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
            learn: LearnPolicy::default(),
            learn_custom_hints: true,
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
    pub spoofed_vps: Vec<VpId>,
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

    /// Run all five stages over a corpus: [`Hoiho::learn_view`] of the
    /// corpus's [`TrainingView`].
    pub fn learn_corpus(&self, corpus: &Corpus) -> LearnReport {
        self.learn_view(&TrainingView::from_corpus(corpus, self.db.len()))
    }

    /// Run all five stages over a corpus's training view.
    pub fn learn_view(&self, view: &TrainingView) -> LearnReport {
        let _learn_span = hoiho_obs::span("learn");
        // Measurement hygiene first: find VPs whose RTTs are physically
        // implausible across the whole campaign (spoofing middleboxes).
        // The view folded every router's samples as it was built.
        let spoofed_vps = if self.opts.filter_spoofed_vps {
            let _span = hoiho_obs::span("learn.filter_vps");
            view.spoofing_vps()
        } else {
            Vec::new()
        };
        if hoiho_obs::enabled() && !spoofed_vps.is_empty() {
            hoiho_obs::progress(format!(
                "discarded {} spoofing vantage point(s)",
                spoofed_vps.len()
            ));
        }
        // One best-case RTT table for the whole learn, ignoring the
        // spoofed VPs: stage 2 and every suffix's evaluation context
        // answer feasibility probes from it, over the view's own RTTs.
        let table = BestCaseTable::new(view.vps(), &POLICY, self.db.coords(), &spoofed_vps);
        let sets = {
            let _span = hoiho_obs::span("learn.train");
            let routers = view.routers().map(|r| (r.index, r.hostnames(), r.rtts));
            build_training_sets_with(self.db, self.psl, routers, &table)
        };

        let mut routers_with_apparent: HashSet<u32> = HashSet::new();
        for s in &sets {
            for h in &s.hosts {
                if h.is_tagged() {
                    routers_with_apparent.insert(h.router);
                }
            }
        }

        let results = self.learn_all(&sets, &table);
        let mut geolocated: HashSet<u32> = HashSet::new();
        let mut extrapolated: HashSet<u32> = HashSet::new();
        for r in &results {
            if r.class.usable() {
                geolocated.extend(r.geolocated_routers.iter().copied());
                extrapolated.extend(r.extrapolated_routers.iter().copied());
            }
        }

        LearnReport {
            label: view.label().to_string(),
            results,
            total_routers: view.total_routers(),
            routers_with_hostname: view.routers_with_hostname(),
            routers_with_apparent: routers_with_apparent.len(),
            routers_geolocated: geolocated.len(),
            routers_extrapolated: extrapolated.len(),
            spoofed_vps,
        }
    }

    /// Learn every suffix on `threads.min(sets.len())` scoped workers
    /// pulling from one shared counter, at every thread count: suffixes
    /// are independent and results are returned in `sets` order, so they
    /// do not depend on the thread count.
    fn learn_all(&self, sets: &[SuffixSet], table: &BestCaseTable) -> Vec<SuffixResult> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let threads = self.opts.resolved_threads().min(sets.len());
        let (next, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let report = |result: &SuffixResult| {
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
        let work = || {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= sets.len() {
                    break;
                }
                let r = self.learn_suffix_with(&sets[i], table);
                report(&r);
                local.push((i, r));
            }
            local
        };
        // Each worker's spans nest under the caller's (`learn`).
        let open = hoiho_obs::open_spans();
        let mut indexed: Vec<(usize, SuffixResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| hoiho_obs::with_open_spans(&open, work)))
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
        let table = BestCaseTable::new(vps, &POLICY, self.db.coords(), &[]);
        self.learn_suffix_with(set, &table)
    }

    /// [`Hoiho::learn_suffix`] answering feasibility probes from a
    /// best-case table shared across suffixes.
    fn learn_suffix_with(&self, set: &SuffixSet, table: &BestCaseTable) -> SuffixResult {
        let hosts = &set.hosts;
        let tagged = set.tagged();
        let empty = |class| SuffixResult {
            suffix: set.suffix.clone(),
            hosts: hosts.len(),
            tagged_hosts: tagged,
            nc: None,
            metrics: None,
            class,
            learned: LearnedHints::new(),
            geolocated_routers: HashSet::new(),
            extrapolated_routers: HashSet::new(),
        };
        if tagged < MIN_TAGGED {
            return empty(NcClass::Poor);
        }
        let _suffix_span = hoiho_obs::span_detail("learn.suffix", set.suffix.clone());
        // One evaluation context for the whole suffix: every candidate
        // below shares its decode memo and the learn's best-case table.
        let ctx = EvalContext::new(self.db, &set.suffix, hosts, table);

        let ranked = self.rank_candidates(&ctx);
        if ranked.is_empty() {
            return empty(NcClass::Poor);
        }

        // Phase 4 + stage 5. A non-empty ranking always yields a set.
        let phase4 = hoiho_obs::span("learn.suffix.phase4");
        let (members, mut eval) = select_nc(crate::sets::build_sets(&ctx, &ranked))
            .expect("a non-empty ranking yields a regex set");
        drop(phase4);
        let nc = NamingConvention {
            suffix: set.suffix.clone(),
            regexes: members.iter().map(|&i| ranked[i].0.clone()).collect(),
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
            learned,
            geolocated_routers,
            extrapolated_routers,
        }
    }

    /// Stage 3, phases 1–3, for the context's suffix: generate base
    /// regexes from the tagged hostnames (phase 1), add digit-optional
    /// merges (phase 2) and character-class refinements of the leaders
    /// (phase 3). Returns every candidate with a TP, each with its
    /// single-regex evaluation (no learned hints), sorted by descending
    /// ATP then pattern — the input phase 4 builds sets from.
    pub fn rank_candidates(&self, ctx: &EvalContext<'_>) -> Vec<(GeoRegex, EvalResult)> {
        let hosts = ctx.hosts;
        // Every candidate of every phase passes one admit step: a pattern
        // is evaluated at most once, and kept when it has a TP.
        let mut seen: HashSet<String> = HashSet::new();
        let mut admit = |evals: &mut Vec<(GeoRegex, EvalResult)>, r: GeoRegex| {
            if seen.insert(r.regex.as_pattern().to_owned()) {
                let e = eval_regex(ctx, &r, None);
                if e.metrics.tp > 0 {
                    evals.push((r, e));
                }
            }
        };
        // Descending ATP, then pattern text, so results do not depend on
        // hash iteration order.
        let by_rank = |a: &(GeoRegex, EvalResult), b: &(GeoRegex, EvalResult)| {
            b.1.metrics
                .atp()
                .cmp(&a.1.metrics.atp())
                .then_with(|| a.0.regex.as_pattern().cmp(b.0.regex.as_pattern()))
        };

        // Phase 1: base regexes, deduplicated, most-generated first.
        let phase1 = hoiho_obs::span("learn.suffix.phase1");
        let mut evals: Vec<(GeoRegex, EvalResult)> = Vec::new();
        for (r, _) in base_candidates(hosts, ctx.suffix, MAX_CANDIDATES) {
            admit(&mut evals, r);
        }
        drop(phase1);
        if evals.is_empty() {
            return evals;
        }

        // Phase 2: digit-optional merges.
        let phase2 = hoiho_obs::span("learn.suffix.phase2");
        let singles: Vec<&GeoRegex> = evals.iter().map(|(r, _)| r).collect();
        for m in merge_digit_optional(&singles) {
            admit(&mut evals, m);
        }
        drop(phase2);
        evals.sort_by(by_rank);

        // Phase 3: refine the leaders.
        let phase3 = hoiho_obs::span("learn.suffix.phase3");
        let refinements: Vec<GeoRegex> = evals
            .iter()
            .take(REFINE_TOP)
            .filter_map(|(r, _)| embed_character_classes(hosts, r))
            .collect();
        let before = evals.len();
        for n in refinements {
            admit(&mut evals, n);
        }
        hoiho_obs::add("learn.candidates_refined", (evals.len() - before) as u64);
        drop(phase3);
        evals.sort_by(by_rank);
        evals
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
            assert_eq!(a.learned, b.learned, "{}", a.suffix);
            let patterns = |r: &SuffixResult| {
                r.nc.as_ref().map(|nc| {
                    nc.regexes
                        .iter()
                        .map(|g| g.regex.as_pattern().to_owned())
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
