#![warn(missing_docs)]

//! A from-scratch regular-expression engine for the *Hoiho dialect*.
//!
//! The Hoiho system (appendix A of the paper) generates regexes drawn from a
//! small, well-defined dialect:
//!
//! - anchors `^` and `$` (generated regexes are always fully anchored);
//! - literal text with escapes (`\.` for the dots in `\.alter\.net`);
//! - character classes `[a-z]`, `\d`, `[a-z\d]`, negated punctuation
//!   exclusions `[^\.]`, `[^-]`, and the wildcard `.`;
//! - quantifiers `{n}`, `{n,m}`, `+`, `*`, `?`, and the **possessive** `++`
//!   (e.g. `[^-]++` in the paper's figure 13) which never gives back
//!   characters on backtracking;
//! - capture groups `(...)` that extract the geohint and any country/state
//!   code.
//!
//! The engine has two entry points: a [`parse`](Regex::parse) front end for
//! regexes written as strings, and a public [`ast`] so the learner can
//! compose regexes structurally and render them back to portable strings.
//! The crate's `tests/` check the engine against two independent oracles
//! on the emitted dialect: a naive exponential backtracker written from
//! the grammar (`differential.rs`), and the flattened-program matcher the
//! AST walker replaced (`walker_equivalence.rs`).
//!
//! Matching walks the AST in place, with no compiled program, by
//! backtracking with a step budget: hostnames are short
//! (≤ 253 bytes), so the budget is never hit by learned patterns, but it
//! turns pathological inputs into a clean [`MatchError::BudgetExhausted`]
//! instead of runaway CPU.

pub mod ast;
pub mod class;
pub mod exec;
pub mod parse;

pub use ast::{Ast, Quant};
pub use class::CharClass;
pub use exec::{Captures, MatchError};
pub use parse::ParseError;
use std::sync::OnceLock;

/// A compiled regular expression in the Hoiho dialect.
///
/// ```
/// use hoiho_regex::Regex;
/// let re = Regex::parse(r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$").unwrap();
/// let caps = re.captures("zayo-ntt.mpr1.lhr15.uk.zip.zayo.com").unwrap().unwrap();
/// assert_eq!(caps.get(1), Some("lhr"));
/// assert_eq!(caps.get(2), Some("uk"));
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    ast: Ast,
    /// Whether the pattern began with `^`.
    anchored_start: bool,
    /// Whether the pattern ended with `$`.
    anchored_end: bool,
    /// The portable pattern text, rendered from the fields above on
    /// first use.
    pattern: OnceLock<Box<str>>,
}

impl Regex {
    /// Parse a pattern string.
    pub fn parse(pattern: &str) -> Result<Regex, ParseError> {
        parse::parse(pattern)
    }

    /// Build from an already-constructed AST; generated regexes are always
    /// fully anchored, matching the paper's output.
    pub fn from_ast(ast: Ast) -> Regex {
        Regex::new(ast, true, true)
    }

    /// Assemble a regex; its pattern text is rendered on first use.
    pub(crate) fn new(ast: Ast, anchored_start: bool, anchored_end: bool) -> Regex {
        Regex {
            ast,
            anchored_start,
            anchored_end,
            pattern: OnceLock::new(),
        }
    }

    /// The underlying AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// Number of capture groups in the pattern.
    pub fn capture_count(&self) -> usize {
        self.ast.capture_count()
    }

    /// Whether the whole pattern matches `text` (honouring anchors).
    pub fn is_match(&self, text: &str) -> bool {
        matches!(self.captures(text), Ok(Some(_)))
    }

    /// Run the matcher and return capture spans, or `None` on no match.
    pub fn captures<'t>(&self, text: &'t str) -> Result<Option<Captures<'t>>, MatchError> {
        exec::find(
            &self.ast,
            text,
            self.anchored_start,
            self.anchored_end,
            exec::DEFAULT_STEP_BUDGET,
        )
    }

    /// The portable pattern string, round-trippable through
    /// [`Regex::parse`] and accepted by mainstream engines. It is rendered
    /// at most once, on first use, so it is a regex's cheap identity, and
    /// a regex that is only matched (a served artifact's) never stores it.
    pub fn as_pattern(&self) -> &str {
        self.pattern.get_or_init(|| {
            let mut s = String::new();
            if self.anchored_start {
                s.push('^');
            }
            self.ast.render(&mut s);
            if self.anchored_end {
                s.push('$');
            }
            s.into()
        })
    }
}

impl PartialEq for Regex {
    fn eq(&self, other: &Regex) -> bool {
        (&self.ast, self.anchored_start, self.anchored_end)
            == (&other.ast, other.anchored_start, other.anchored_end)
    }
}

impl Eq for Regex {}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_pattern())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure7_regexes_parse_and_match() {
        // Regexes from figure 7 of the paper, with hostnames from figure 6.
        let cases: &[(&str, &str, &[&str])] = &[
            (
                r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$",
                "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com",
                &["lhr", "uk"],
            ),
            (
                r"^.+\.([a-z]+)\d*\.level3\.net$",
                "ae-2-52.edge4.brussels1.level3.net",
                &["brussels"],
            ),
            (
                r"^.+\.([a-z]{6})\d+\.([a-z]{2})\.[a-z]{2}\.gin\.ntt\.net$",
                "xe-0-0-28-0.a02.snjsca04.us.ce.gin.ntt.net",
                &["snjsca", "us"],
            ),
            (
                r"^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+-[a-z]+\d+-[^\.]+\.alter\.net$",
                "0.af0.rcmdva83-mse01-a-ie1.alter.net",
                &["rcmdva"],
            ),
        ];
        for (pat, host, want) in cases {
            let re = Regex::parse(pat).unwrap_or_else(|e| panic!("{pat}: {e}"));
            let caps = re
                .captures(host)
                .unwrap()
                .unwrap_or_else(|| panic!("{pat} should match {host}"));
            for (i, w) in want.iter().enumerate() {
                assert_eq!(caps.get(i + 1), Some(*w), "{pat} on {host}");
            }
        }
    }

    #[test]
    fn display_roundtrip() {
        let pat = r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$";
        let re = Regex::parse(pat).unwrap();
        assert_eq!(re.as_pattern(), pat);
        let re2 = Regex::parse(re.as_pattern()).unwrap();
        assert_eq!(re, re2);
    }

    #[test]
    fn capture_count() {
        let re = Regex::parse(r"^([a-z]+)\.([a-z]{2})\.x$").unwrap();
        assert_eq!(re.capture_count(), 2);
    }

    #[test]
    fn non_matching_hostname_rejected() {
        let re = Regex::parse(r"^.+\.([a-z]{3})\d+\.alter\.net$").unwrap();
        assert!(!re.is_match("dca-edge-01.inet.qwest.net"));
        assert!(re.is_match("0.xe-10-0-0.gw1.sfo16.alter.net"));
    }
}
