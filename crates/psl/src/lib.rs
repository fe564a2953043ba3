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

/// Most labels a hostname may have and still be answered by the
/// borrowed fast path [`PublicSuffixList::registerable_suffix_of`].
pub const MAX_BORROWED_LABELS: usize = 32;

/// A parsed public suffix list.
#[derive(Debug, Clone)]
pub struct PublicSuffixList {
    /// Keyed by the rule's labels joined with dots (without `*.`/`!`).
    rules: HashMap<String, Rule>,
}

impl PublicSuffixList {
    /// Parse the Mozilla file format: one rule per line, `//` comments,
    /// blank lines ignored. Later duplicate rules overwrite earlier ones.
    pub fn parse(text: &str) -> PublicSuffixList {
        let mut rules = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            // The official list terminates rules at whitespace.
            let token = line.split_whitespace().next().expect("nonempty line");
            let token = token.to_ascii_lowercase();
            if let Some(rest) = token.strip_prefix('!') {
                rules.insert(rest.to_string(), Rule::Exception);
            } else if let Some(rest) = token.strip_prefix("*.") {
                rules.insert(rest.to_string(), Rule::Wildcard);
            } else {
                rules.insert(token, Rule::Normal);
            }
        }
        PublicSuffixList { rules }
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

    /// The length in labels of the public suffix of `labels`, per the PSL
    /// algorithm (an unlisted TLD is a public suffix of one label).
    fn public_suffix_labels(&self, labels: &[&str]) -> usize {
        let mut best = 1; // prevailing default rule: "*"
        for start in 0..labels.len() {
            let key = labels[start..].join(".");
            match self.rules.get(&key) {
                Some(Rule::Normal) => best = best.max(labels.len() - start),
                // The wildcard extends one label further left.
                Some(Rule::Wildcard) if start > 0 => {
                    best = best.max(labels.len() - start + 1);
                }
                Some(Rule::Exception) => {
                    // Exception: the public suffix is the rule minus its
                    // leftmost label.
                    return labels.len() - start - 1;
                }
                _ => {}
            }
        }
        best
    }

    /// The *registerable suffix* (public suffix + one label) of a
    /// hostname, lowercased — the grouping key Hoiho learns conventions
    /// per. Returns `None` when the hostname is itself a public suffix or
    /// empty.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.registerable_suffix("r1.lon.gtt.net"), Some("gtt.net".to_string()));
    /// assert_eq!(psl.registerable_suffix("core.ccnw.net.au"), Some("ccnw.net.au".to_string()));
    /// assert_eq!(psl.registerable_suffix("com"), None);
    /// ```
    pub fn registerable_suffix(&self, hostname: &str) -> Option<String> {
        let lower = hostname.trim_end_matches('.').to_ascii_lowercase();
        let labels: Vec<&str> = lower.split('.').filter(|l| !l.is_empty()).collect();
        if labels.is_empty() {
            return None;
        }
        let ps = self.public_suffix_labels(&labels);
        if labels.len() <= ps {
            return None;
        }
        Some(labels[labels.len() - ps - 1..].join("."))
    }

    /// Allocation-free variant of [`PublicSuffixList::registerable_suffix`]
    /// for hot paths (the `hoiho-serve` lookup index): returns the
    /// registerable suffix as a slice borrowed from `hostname`.
    ///
    /// The caller must pass an **already-lowercased** hostname (e.g. via
    /// [`str::make_ascii_lowercase`] into a reusable buffer); a hostname
    /// containing ASCII uppercase returns `None` rather than a
    /// wrong-cased grouping key. Hostnames with empty interior labels
    /// (`a..b.com`) or more than [`MAX_BORROWED_LABELS`] labels are not
    /// handled by this fast path and also return `None` — use the
    /// allocating [`PublicSuffixList::registerable_suffix`] for those.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.registerable_suffix_of("r1.lon.gtt.net"), Some("gtt.net"));
    /// assert_eq!(psl.registerable_suffix_of("com"), None);
    /// ```
    pub fn registerable_suffix_of<'h>(&self, hostname: &'h str) -> Option<&'h str> {
        let host = hostname.trim_matches('.');
        if host.is_empty() {
            return None;
        }
        // One pass: collect label start offsets on the stack, reject
        // inputs the borrowed path cannot answer correctly.
        let mut starts = [0usize; MAX_BORROWED_LABELS];
        let mut n = 1;
        let bytes = host.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b.is_ascii_uppercase() {
                return None;
            }
            if b == b'.' {
                if bytes[i + 1] == b'.' {
                    return None; // empty interior label
                }
                if n == MAX_BORROWED_LABELS {
                    return None;
                }
                starts[n] = i + 1;
                n += 1;
            }
        }
        // The PSL walk of `public_suffix_labels`, but each candidate key
        // is a suffix slice of `host` instead of a joined allocation.
        let reg_at = |ps: usize| (n > ps).then(|| &host[starts[n - ps - 1]..]);
        let mut best = 1; // prevailing default rule: "*"
        for idx in 0..n {
            match self.rules.get(&host[starts[idx]..]) {
                Some(Rule::Normal) => best = best.max(n - idx),
                // The wildcard extends one label further left.
                Some(Rule::Wildcard) if idx > 0 => best = best.max(n - idx + 1),
                Some(Rule::Exception) => return reg_at(n - idx - 1),
                _ => {}
            }
        }
        reg_at(best)
    }

    /// Split a hostname at its registerable suffix with one PSL walk:
    /// the part before it (original case, without the joining dot) and
    /// the suffix as [`PublicSuffixList::registerable_suffix`] returns
    /// it. The prefix is empty when the hostname *is* the registerable
    /// suffix; `None` when there is no registerable suffix at all.
    ///
    /// ```
    /// let psl = hoiho_psl::PublicSuffixList::builtin();
    /// assert_eq!(psl.split_at_suffix("r1.lon.gtt.net"), Some(("r1.lon", "gtt.net".to_string())));
    /// assert_eq!(psl.split_at_suffix("gtt.net"), Some(("", "gtt.net".to_string())));
    /// assert_eq!(psl.split_at_suffix("net"), None);
    /// ```
    pub fn split_at_suffix<'h>(&self, hostname: &'h str) -> Option<(&'h str, String)> {
        let suffix = self.registerable_suffix(hostname)?;
        let host = hostname.trim_end_matches('.');
        let prefix = if host.len() == suffix.len() {
            ""
        } else {
            &host[..host.len() - suffix.len() - 1]
        };
        Some((prefix, suffix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let psl = PublicSuffixList::parse("*.ck\n!www.ck\n");
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
    fn split_at_suffix_matches_two_walks() {
        // The split as it was computed before: the suffix from one walk,
        // then a second walk to slice the prefix off the hostname.
        fn two_walks<'h>(psl: &PublicSuffixList, hostname: &'h str) -> Option<(&'h str, String)> {
            let suffix = psl.registerable_suffix(hostname)?;
            let prefix = {
                let suffix = psl.registerable_suffix(hostname)?;
                let host = hostname.trim_end_matches('.');
                if host.len() == suffix.len() {
                    ""
                } else {
                    &host[..host.len() - suffix.len() - 1]
                }
            };
            Some((prefix, suffix))
        }
        let psl = PublicSuffixList::builtin();
        let ck = PublicSuffixList::parse("*.ck\n!www.ck\n");
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
        for (l, host) in [
            (&psl, "foo.bar.example.com"),
            (&psl, "core1.syd.ccnw.net.au"),
            (&psl, "r.x.isp.co.uk"),
            (&psl, "a.b.frobnicate"),
            (&psl, "com"),
            (&psl, "net.au"),
            (&psl, ""),
            (&psl, "."),
            (&psl, "R1.LON.GTT.NET."),
            (&psl, "r1.lon.gtt.net.."),
            (&psl, "a..b.gtt.net"),
            (&psl, "gtt.net"),
            (&psl, "ccnw.net.au"),
            (&psl, "net"),
            (&ck, "host.shop.example.ck"),
            (&ck, "host.www.ck"),
            (&ck, "www.ck"),
            (&ck, "example.ck"),
        ] {
            assert_eq!(l.split_at_suffix(host), two_walks(l, host), "{host}");
        }
    }

    #[test]
    fn builtin_is_nontrivial() {
        assert!(PublicSuffixList::builtin().len() > 50);
    }

    #[test]
    fn borrowed_variant_matches_allocating_path() {
        let psl = PublicSuffixList::builtin();
        let ck = PublicSuffixList::parse("*.ck\n!www.ck\n");
        for (l, host) in [
            (&psl, "foo.bar.example.com"),
            (&psl, "core1.syd.ccnw.net.au"),
            (&psl, "r.x.isp.co.uk"),
            (&psl, "a.b.frobnicate"),
            (&psl, "com"),
            (&psl, "net.au"),
            (&psl, "gtt.net."),
            (&psl, ".leading.gtt.net"),
            (&ck, "host.shop.example.ck"),
            (&ck, "host.www.ck"),
            (&ck, "www.ck"),
        ] {
            assert_eq!(
                l.registerable_suffix_of(host),
                l.registerable_suffix(host).as_deref(),
                "{host}"
            );
        }
    }

    #[test]
    fn borrowed_variant_rejects_unsupported_inputs() {
        let psl = PublicSuffixList::builtin();
        // Uppercase: would produce a wrong-cased grouping key.
        assert_eq!(psl.registerable_suffix_of("R1.LON.GTT.NET"), None);
        // Empty interior label: the suffix is not a contiguous tail.
        assert_eq!(psl.registerable_suffix_of("a..b.gtt.net"), None);
        assert_eq!(psl.registerable_suffix_of(""), None);
        assert_eq!(psl.registerable_suffix_of("..."), None);
        // Too many labels for the stack-allocated offsets.
        let long = "x.".repeat(MAX_BORROWED_LABELS + 1) + "gtt.net";
        assert_eq!(psl.registerable_suffix_of(&long), None);
        // The allocating path still answers all of these.
        assert_eq!(
            psl.registerable_suffix("a..b.gtt.net"),
            Some("gtt.net".to_string())
        );
        assert_eq!(psl.registerable_suffix(&long), Some("gtt.net".to_string()));
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
