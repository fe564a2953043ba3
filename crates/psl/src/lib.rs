#![warn(missing_docs)]

//! Public-suffix-list handling (§5.1.2 of the paper).
//!
//! Hoiho groups router hostnames by the *registerable suffix*: the domain
//! an operator registers under an effective TLD (`ntt.net` under `net`,
//! `ccnw.net.au` under `net.au`). This crate parses the Mozilla public
//! suffix list format — comments, wildcard rules (`*.ck`) and exception
//! rules (`!www.ck`) — and answers "what suffix does this hostname group
//! under".
//!
//! [`PublicSuffixList::registerable_suffix`],
//! [`PublicSuffixList::registerable_suffix_of`] and
//! [`PublicSuffixList::split_at_suffix`] share one walk. It scans the
//! hostname from the right and probes only as many labels as the longest
//! rule has, so a name's cost does not grow with the labels left of its
//! suffix. A name with an empty label inside its registerable suffix
//! (`r1.gtt..net`) has none: no tail of it is a registerable domain.
//!
//! A built-in list covering the effective TLDs that appear in router
//! hostname corpora is embedded via [`PublicSuffixList::builtin`]; the
//! full Mozilla list can be loaded with [`PublicSuffixList::parse`].

mod list;

pub use list::BUILTIN_RULES;

use std::collections::HashMap;

/// One rule from the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// A normal rule: the labels themselves are a public suffix.
    Normal,
    /// A wildcard rule `*.<labels>`: any single label under this is a
    /// public suffix.
    Wildcard,
    /// An exception `!<labels>`: this exact domain is *not* a public
    /// suffix even though a wildcard covers it.
    Exception,
}

/// A parsed public suffix list.
#[derive(Debug, Clone)]
pub struct PublicSuffixList {
    /// Keyed by the rule's labels joined with dots (without `*.`/`!`).
    rules: HashMap<String, Rule>,
    /// Labels in the longest rule as written (`*.ck` has two). A
    /// registerable suffix has at most one label more, so the walk never
    /// looks further left.
    max_rule_labels: usize,
}

impl PublicSuffixList {
    /// Parse the Mozilla file format: one rule per line, `//` comments,
    /// blank lines ignored. Later duplicate rules overwrite earlier ones.
    pub fn parse(text: &str) -> PublicSuffixList {
        let mut rules = HashMap::new();
        let mut max_rule_labels = 0;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            // The official list terminates rules at whitespace.
            let token = line.split_whitespace().next().expect("nonempty line");
            let token = token.to_ascii_lowercase();
            let (key, rule) = if let Some(rest) = token.strip_prefix('!') {
                (rest, Rule::Exception)
            } else if let Some(rest) = token.strip_prefix("*.") {
                (rest, Rule::Wildcard)
            } else {
                (token.as_str(), Rule::Normal)
            };
            let labels = key.split('.').count() + usize::from(rule == Rule::Wildcard);
            max_rule_labels = max_rule_labels.max(labels);
            rules.insert(key.to_string(), rule);
        }
        PublicSuffixList {
            rules,
            max_rule_labels,
        }
    }

    /// The embedded list of effective TLDs.
    pub fn builtin() -> PublicSuffixList {
        PublicSuffixList::parse(BUILTIN_RULES)
    }

    /// Number of rules loaded.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The PSL walk behind every public method: the byte offset in
    /// `host` (lowercase, no leading or trailing dot) where its
    /// registerable suffix starts. `None` when `host` is itself a public
    /// suffix, or when an empty label falls inside the registerable
    /// suffix, which would then not be a tail of the name.
    ///
    /// It probes only the last `max_rule_labels` tails as rule keys and
    /// reads one label more, so its cost does not grow with the number
    /// of labels left of the suffix.
    fn suffix_start(&self, host: &str) -> Option<usize> {
        // Byte offset of the last 1, 2, 3, … labels.
        let tails = || host.rmatch_indices('.').map(|(dot, _)| dot + 1).chain([0]);
        let mut public = 1; // prevailing default rule: "*"
        let mut exception = None;
        for (labels, start) in (1..=self.max_rule_labels).zip(tails()) {
            match self.rules.get(&host[start..]) {
                Some(Rule::Normal) => public = public.max(labels),
                // The wildcard extends one label further left.
                Some(Rule::Wildcard) if start > 0 => public = public.max(labels + 1),
                // The longest exception wins over every other rule: the
                // public suffix is the rule minus its leftmost label.
                Some(Rule::Exception) => exception = Some(labels - 1),
                _ => {}
            }
        }
        let start = tails().nth(exception.unwrap_or(public))?;
        (!host[start..].split('.').any(str::is_empty)).then_some(start)
    }

    /// The *registerable suffix* (public suffix + one label) of a
    /// hostname, lowercased — the grouping key Hoiho learns conventions
    /// per. Returns `None` when the hostname is itself a public suffix,
    /// is empty, or has an empty label inside that suffix.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.registerable_suffix("r1.lon.gtt.net"), Some("gtt.net".to_string()));
    /// assert_eq!(psl.registerable_suffix("core.ccnw.net.au"), Some("ccnw.net.au".to_string()));
    /// assert_eq!(psl.registerable_suffix("com"), None);
    /// ```
    pub fn registerable_suffix(&self, hostname: &str) -> Option<String> {
        let lower = hostname.to_ascii_lowercase();
        self.registerable_suffix_of(&lower).map(str::to_string)
    }

    /// Allocation-free variant of [`PublicSuffixList::registerable_suffix`]
    /// for hot paths (the `hoiho-serve` lookup index): returns the
    /// registerable suffix as a slice borrowed from `hostname`.
    ///
    /// The caller must pass an **already-lowercased** hostname (e.g. via
    /// [`str::make_ascii_lowercase`] into a reusable buffer); a hostname
    /// containing ASCII uppercase returns `None` rather than a
    /// wrong-cased grouping key.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.registerable_suffix_of("r1.lon.gtt.net"), Some("gtt.net"));
    /// assert_eq!(psl.registerable_suffix_of("com"), None);
    /// ```
    pub fn registerable_suffix_of<'h>(&self, hostname: &'h str) -> Option<&'h str> {
        if hostname.bytes().any(|b| b.is_ascii_uppercase()) {
            return None;
        }
        let host = hostname.trim_matches('.');
        Some(&host[self.suffix_start(host)?..])
    }

    /// Split a hostname at its registerable suffix: the part before it
    /// (original case, without the joining dot) and the suffix as
    /// [`PublicSuffixList::registerable_suffix`] returns it. The prefix
    /// is empty when the hostname *is* the registerable suffix; `None`
    /// when there is no registerable suffix at all.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.split_at_suffix("r1.lon.gtt.net"), Some(("r1.lon", "gtt.net".to_string())));
    /// assert_eq!(psl.split_at_suffix("gtt.net"), Some(("", "gtt.net".to_string())));
    /// assert_eq!(psl.split_at_suffix("net"), None);
    /// ```
    pub fn split_at_suffix<'h>(&self, hostname: &'h str) -> Option<(&'h str, String)> {
        let host = hostname.trim_end_matches('.');
        let lower = host.to_ascii_lowercase();
        let trimmed = lower.trim_start_matches('.');
        let at = lower.len() - trimmed.len() + self.suffix_start(trimmed)?;
        Some((&host[..at.saturating_sub(1)], lower[at..].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_rtt::rng::{Rng, StdRng};

    /// The allocating walk the crate used before the bounded one: drop
    /// empty labels, then join and look up one candidate key per label.
    /// Kept as the reference [`PublicSuffixList::suffix_start`] must
    /// match.
    fn reference_suffix(psl: &PublicSuffixList, hostname: &str) -> Option<String> {
        let lower = hostname.trim_end_matches('.').to_ascii_lowercase();
        let labels: Vec<&str> = lower.split('.').filter(|l| !l.is_empty()).collect();
        let n = labels.len();
        let mut ps = 1; // prevailing default rule: "*"
        for start in 0..n {
            match psl.rules.get(&labels[start..].join(".")) {
                Some(Rule::Normal) => ps = ps.max(n - start),
                Some(Rule::Wildcard) if start > 0 => ps = ps.max(n - start + 1),
                Some(Rule::Exception) => {
                    ps = n - start - 1;
                    break;
                }
                _ => {}
            }
        }
        (n > ps).then(|| labels[n - ps - 1..].join("."))
    }

    /// What the bounded walk must answer: the reference suffix, or `None`
    /// where an empty label falls among the hostname's last labels that
    /// suffix covers (the reference skipped it, so its key is not a tail
    /// of the name).
    fn expected(psl: &PublicSuffixList, hostname: &str) -> Option<String> {
        let suffix = reference_suffix(psl, hostname)?;
        let host = hostname.trim_matches('.');
        let mut covered = host.rsplit('.').take(suffix.split('.').count());
        (!covered.any(str::is_empty)).then_some(suffix)
    }

    /// Every public wrapper against [`expected`]; the split's prefix is
    /// the name before the suffix and its joining dot.
    fn check(psl: &PublicSuffixList, hostname: &str) {
        let want = expected(psl, hostname);
        assert_eq!(psl.registerable_suffix(hostname), want, "{hostname:?}");
        let lower = hostname.to_ascii_lowercase();
        assert_eq!(
            psl.registerable_suffix_of(&lower),
            want.as_deref(),
            "{hostname:?}"
        );
        let host = hostname.trim_end_matches('.');
        let split = want.map(|s| (&host[..(host.len() - s.len()).saturating_sub(1)], s));
        assert_eq!(psl.split_at_suffix(hostname), split, "{hostname:?}");
    }

    fn ck() -> PublicSuffixList {
        PublicSuffixList::parse("*.ck\n!www.ck\n")
    }

    #[test]
    fn simple_tld() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("foo.bar.example.com"),
            Some("example.com".to_string())
        );
    }

    #[test]
    fn two_level_etld() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("core1.syd.ccnw.net.au"),
            Some("ccnw.net.au".to_string())
        );
        assert_eq!(
            psl.registerable_suffix("r.x.isp.co.uk"),
            Some("isp.co.uk".to_string())
        );
    }

    #[test]
    fn bare_public_suffix_is_none() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(psl.registerable_suffix("com"), None);
        assert_eq!(psl.registerable_suffix("net.au"), None);
        assert_eq!(psl.registerable_suffix(""), None);
    }

    #[test]
    fn unknown_tld_uses_default_rule() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("a.b.frobnicate"),
            Some("b.frobnicate".to_string())
        );
    }

    #[test]
    fn wildcard_and_exception() {
        let psl = ck();
        // Anything one label under .ck is a public suffix...
        assert_eq!(
            psl.registerable_suffix("host.shop.example.ck"),
            Some("shop.example.ck".to_string())
        );
        // ...except www.ck, which is registerable itself.
        assert_eq!(
            psl.registerable_suffix("host.www.ck"),
            Some("www.ck".to_string())
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let psl = PublicSuffixList::parse("// comment\n\ncom\n");
        assert_eq!(psl.len(), 1);
        assert!(!psl.is_empty());
    }

    #[test]
    fn case_and_trailing_dot_normalised() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.registerable_suffix("R1.LON.GTT.NET."),
            Some("gtt.net".to_string())
        );
    }

    #[test]
    fn walk_reads_at_most_one_label_past_the_longest_rule() {
        assert_eq!(PublicSuffixList::builtin().max_rule_labels, 2);
        assert_eq!(ck().max_rule_labels, 2);
        assert_eq!(PublicSuffixList::parse("*.ck\n").max_rule_labels, 2);
        assert_eq!(PublicSuffixList::parse("a.b.c\n").max_rule_labels, 3);
        assert_eq!(PublicSuffixList::parse("").max_rule_labels, 0);
        // With no rules the default "*" still applies.
        let empty = PublicSuffixList::parse("");
        assert_eq!(empty.registerable_suffix_of("x.b.c"), Some("b.c"));
        let three = PublicSuffixList::parse("a.b.c\n");
        assert_eq!(three.registerable_suffix_of("x.y.a.b.c"), Some("y.a.b.c"));
        // Labels left of the longest rule are never split into keys: a
        // long name costs what a short one does.
        let psl = PublicSuffixList::builtin();
        let long = "a.".repeat(31_998) + "gtt.net";
        assert_eq!(long.len(), 64_003);
        assert_eq!(psl.registerable_suffix_of(&long), Some("gtt.net"));
        assert_eq!(psl.registerable_suffix(&long), Some("gtt.net".to_string()));
        let prefix = &long[..long.len() - "gtt.net".len() - 1];
        assert_eq!(
            psl.split_at_suffix(&long),
            Some((prefix, "gtt.net".to_string()))
        );
    }

    #[test]
    fn split_at_suffix_cuts_before_the_suffix() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            psl.split_at_suffix("r1.lon.gtt.net"),
            Some(("r1.lon", "gtt.net".to_string()))
        );
        assert_eq!(
            psl.split_at_suffix("gtt.net"),
            Some(("", "gtt.net".to_string()))
        );
        assert_eq!(psl.split_at_suffix("net"), None);
        assert_eq!(
            psl.split_at_suffix("R1.LON.GTT.NET."),
            Some(("R1.LON", "gtt.net".to_string()))
        );
        assert_eq!(
            psl.split_at_suffix("a..b.gtt.net"),
            Some(("a..b", "gtt.net".to_string()))
        );
        // An empty label left of the suffix stays in the prefix.
        assert_eq!(
            psl.split_at_suffix("r1..gtt.net"),
            Some(("r1.", "gtt.net".to_string()))
        );
        // One inside it: no tail of the name is registerable.
        assert_eq!(psl.split_at_suffix("r1.gtt..net"), None);
        assert_eq!(psl.split_at_suffix("x..net"), None);
    }

    #[test]
    fn walk_matches_reference_on_psl_cases() {
        let psl = PublicSuffixList::builtin();
        let ck = ck();
        // A wildcard needs a label under it: `b.c` itself falls back to `c`.
        let nested = PublicSuffixList::parse("c\n*.b.c\n");
        for (l, host) in [
            (&nested, "b.c"),
            (&nested, "x.b.c"),
            (&nested, "y.x.b.c"),
            (&psl, "foo.bar.example.com"),
            (&psl, "core1.syd.ccnw.net.au"),
            (&psl, "r.x.isp.co.uk"),
            (&psl, "a.b.frobnicate"),
            (&psl, "com"),
            (&psl, "net.au"),
            (&psl, ""),
            (&psl, "."),
            (&psl, "..."),
            (&psl, "R1.LON.GTT.NET."),
            (&psl, "r1.lon.gtt.net.."),
            (&psl, "gtt.net."),
            (&psl, ".leading.gtt.net"),
            (&psl, "..gtt.net"),
            (&psl, "a..b.gtt.net"),
            (&psl, "r1..gtt.net"),
            (&psl, "gtt.net"),
            (&psl, "ccnw.net.au"),
            (&psl, "net"),
            (&ck, "host.shop.example.ck"),
            (&ck, "host.www.ck"),
            (&ck, "www.ck"),
            (&ck, "example.ck"),
            (&ck, "ck"),
            (&ck, "a.b.www.ck"),
            (&ck, "x..www.ck"),
        ] {
            check(l, host);
        }
    }

    #[test]
    fn walk_is_none_where_an_empty_label_falls_inside_the_suffix() {
        let psl = PublicSuffixList::builtin();
        let ck = ck();
        for (l, host) in [
            (&psl, "r1.gtt..net"),
            (&psl, "x..net"),
            (&psl, "a.ccnw.net..au"),
            (&psl, "a.ccnw..net.au"),
            (&ck, "host.shop..ck"),
            (&ck, "host..shop.ck"),
            (&ck, "host.www..ck"),
        ] {
            assert!(reference_suffix(l, host).is_some(), "{host}");
            assert_eq!(l.registerable_suffix(host), None, "{host}");
            assert_eq!(l.registerable_suffix_of(host), None, "{host}");
            assert_eq!(l.split_at_suffix(host), None, "{host}");
            check(l, host);
        }
    }

    #[test]
    fn walk_matches_reference_on_seeded_corpus_hostnames() {
        let db = hoiho_geodb::GeoDb::builtin();
        let spec = hoiho_itdk::spec::CorpusSpec {
            seed: 7,
            ..hoiho_itdk::spec::CorpusSpec::ipv4_aug2020(3_000)
        };
        let g = hoiho_itdk::generate(&db, &spec);
        let psl = PublicSuffixList::builtin();
        let mut hosts = 0;
        for h in g.corpus.routers.iter().flat_map(|r| r.hostnames()) {
            assert!(psl.registerable_suffix(h).is_some(), "{h}");
            check(&psl, h);
            hosts += 1;
        }
        assert!(hosts > 1_000, "{hosts} hostnames");
    }

    #[test]
    fn walk_matches_reference_on_seeded_label_soup() {
        // Names stitched from rule labels, router-style labels, empty
        // labels, upper case and stray dots.
        let psl = PublicSuffixList::builtin();
        let ck = ck();
        let mut words: Vec<&str> = BUILTIN_RULES
            .lines()
            .filter(|l| !l.starts_with("//"))
            .flat_map(|l| l.split('.'))
            .filter(|w| !w.is_empty())
            .collect();
        words.extend(["", "", "gtt", "ck", "www", "shop", "r1", "LHR1", "ae-0"]);
        let mut rng = StdRng::seed_from_u64(0x951);
        for _ in 0..20_000 {
            let n = rng.random_range(0..7usize);
            let mut host = (0..n)
                .map(|_| words[rng.random_range(0..words.len())])
                .collect::<Vec<_>>()
                .join(".");
            match rng.random_range(0..4u8) {
                0 => host.push('.'),
                1 => host.insert(0, '.'),
                _ => {}
            }
            check(&psl, &host);
            check(&ck, &host);
        }
    }

    #[test]
    fn builtin_is_nontrivial() {
        assert!(PublicSuffixList::builtin().len() > 50);
    }

    #[test]
    fn borrowed_variant_rejects_unsupported_inputs() {
        let psl = PublicSuffixList::builtin();
        // Uppercase: would produce a wrong-cased grouping key.
        assert_eq!(psl.registerable_suffix_of("R1.LON.GTT.NET"), None);
        assert_eq!(psl.registerable_suffix_of(""), None);
        assert_eq!(psl.registerable_suffix_of("..."), None);
    }

    #[test]
    fn borrowed_suffix_is_a_tail_of_the_input() {
        let psl = PublicSuffixList::builtin();
        let host = "r1.lon.gtt.net";
        let suffix = psl.registerable_suffix_of(host).unwrap();
        // Borrowed from the same buffer: usable for zero-copy routing.
        let host_ptr = host.as_ptr() as usize;
        let sfx_ptr = suffix.as_ptr() as usize;
        assert_eq!(sfx_ptr + suffix.len(), host_ptr + host.len());
    }
}
