//! Backtracking matcher with capture extraction and a step budget.
//!
//! Matching walks the [`Ast`] in place: a depth-first search where each
//! `Literal`, `Class` and capture boundary is one step, and what remains
//! to match after a nested sequence or group is a continuation frame on
//! the call stack (`Cont`). Nothing is compiled per call; the one
//! allocation is the capture spans returned in [`Captures`]. Possessive
//! quantifiers are honoured: once a `++`-quantified class consumes
//! characters, the matcher never re-enters it to give characters back.

use crate::ast::{Ast, Quant};
use crate::class::CharClass;
use std::fmt;

/// Default number of matcher steps allowed per attempt. Hostnames are at
/// most 253 bytes, and learned patterns contain at most one `.+`, so real
/// workloads use a few thousand steps; the budget only exists to bound
/// adversarial patterns.
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// Matching failed structurally (not "no match": an execution error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// The step budget was exhausted; the pattern is pathological for this
    /// input.
    BudgetExhausted,
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::BudgetExhausted => write!(f, "regex step budget exhausted"),
        }
    }
}

impl std::error::Error for MatchError {}

type Span = Option<(usize, usize)>;

/// Capture spans for a successful match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures<'t> {
    text: &'t str,
    /// `spans[0]` is the whole match; group *i* is `spans[i]`.
    spans: Vec<Span>,
}

impl<'t> Captures<'t> {
    /// Text of group `i` (0 = whole match), or `None` if it did not
    /// participate.
    pub fn get(&self, i: usize) -> Option<&'t str> {
        let (s, e) = (*self.spans.get(i)?)?;
        Some(&self.text[s..e])
    }

    /// Byte span of group `i`.
    pub fn span(&self, i: usize) -> Option<(usize, usize)> {
        *self.spans.get(i)?
    }

    /// Number of groups, including group 0.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if there are no explicit capture groups.
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 1
    }

    /// All explicit group texts in order (group 1..n); unmatched groups are
    /// skipped.
    pub fn groups(&self) -> Vec<&'t str> {
        (1..self.spans.len()).filter_map(|i| self.get(i)).collect()
    }
}

/// What remains to match once the nodes in hand are done: a linked list
/// of frames, each living on the stack of the walk that pushed it.
enum Cont<'c> {
    /// The end of the pattern.
    End,
    /// Match these sibling nodes, then the rest.
    Seq(&'c [Ast], &'c Cont<'c>),
    /// Close capture group `group`, opened at byte `start`, then the rest.
    Close {
        group: usize,
        start: usize,
        next: &'c Cont<'c>,
    },
}

struct Walker<'t, 's> {
    text: &'t [u8],
    anchored_end: bool,
    budget: u64,
    spans: &'s mut [Span],
}

impl Walker<'_, '_> {
    /// One matcher step: every literal, class, group boundary and the
    /// final end-of-pattern check costs one.
    fn step(&mut self) -> Result<(), MatchError> {
        if self.budget == 0 {
            return Err(MatchError::BudgetExhausted);
        }
        self.budget -= 1;
        Ok(())
    }

    /// Match `nodes` from `pos`, then the continuation `k`; returns the
    /// end position of the whole match on success. `opened` counts the
    /// capture groups opened before `nodes[0]`: the pattern has no
    /// alternation and no quantified groups, so every path meets the
    /// groups in the same (pre)order and the count is the group number.
    fn walk(
        &mut self,
        nodes: &[Ast],
        pos: usize,
        opened: usize,
        k: &Cont<'_>,
    ) -> Result<Option<usize>, MatchError> {
        let Some((node, rest)) = nodes.split_first() else {
            return self.resume(pos, opened, k);
        };
        match node {
            Ast::Seq(items) => {
                let after = Cont::Seq(rest, k);
                let k = if rest.is_empty() { k } else { &after };
                self.walk(items, pos, opened, k)
            }
            Ast::Literal(lit) => {
                self.step()?;
                if self.text[pos..].starts_with(lit.as_bytes()) {
                    self.walk(rest, pos + lit.len(), opened, k)
                } else {
                    Ok(None)
                }
            }
            Ast::Class(class, q) => {
                self.step()?;
                self.repeat(class, q, rest, pos, opened, k)
            }
            Ast::Capture(inner) => {
                self.step()?;
                let after = Cont::Seq(rest, k);
                let close = Cont::Close {
                    group: opened + 1,
                    start: pos,
                    next: if rest.is_empty() { k } else { &after },
                };
                self.walk(std::slice::from_ref(&**inner), pos, opened + 1, &close)
            }
        }
    }

    /// Match `min..=max` repetitions of `class` (greedy, longest first,
    /// or committed to the longest when possessive), then `rest`.
    fn repeat(
        &mut self,
        class: &CharClass,
        q: &Quant,
        rest: &[Ast],
        pos: usize,
        opened: usize,
        k: &Cont<'_>,
    ) -> Result<Option<usize>, MatchError> {
        let limit = q.max.map_or(usize::MAX, |m| m as usize);
        let n = self.text[pos..]
            .iter()
            .take(limit)
            .take_while(|&&b| class.matches(b))
            .count();
        let min = q.min as usize;
        if n < min {
            return Ok(None);
        }
        if q.possessive {
            return self.walk(rest, pos + n, opened, k);
        }
        for take in (min..=n).rev() {
            if let Some(end) = self.walk(rest, pos + take, opened, k)? {
                return Ok(Some(end));
            }
        }
        Ok(None)
    }

    /// Continue with the frame `k` at `pos`.
    fn resume(
        &mut self,
        pos: usize,
        opened: usize,
        k: &Cont<'_>,
    ) -> Result<Option<usize>, MatchError> {
        match k {
            Cont::End => {
                self.step()?;
                Ok((!self.anchored_end || pos == self.text.len()).then_some(pos))
            }
            Cont::Seq(nodes, next) => self.walk(nodes, pos, opened, next),
            Cont::Close { group, start, next } => {
                self.step()?;
                let prev = self.spans[*group];
                self.spans[*group] = Some((*start, pos));
                let r = self.resume(pos, opened, next)?;
                if r.is_none() {
                    self.spans[*group] = prev;
                }
                Ok(r)
            }
        }
    }
}

/// Match `ast` against `text`, honouring the anchor flags, and return the
/// captures of the leftmost match. `budget` bounds the steps of each
/// start position's attempt.
pub fn find<'t>(
    ast: &Ast,
    text: &'t str,
    anchored_start: bool,
    anchored_end: bool,
    budget: u64,
) -> Result<Option<Captures<'t>>, MatchError> {
    let mut spans = vec![None; ast.capture_count() + 1];
    let last_start = if anchored_start { 0 } else { text.len() };
    for start in 0..=last_start {
        let mut w = Walker {
            text: text.as_bytes(),
            anchored_end,
            budget,
            spans: &mut spans,
        };
        if let Some(end) = w.walk(std::slice::from_ref(ast), start, 0, &Cont::End)? {
            spans[0] = Some((start, end));
            return Ok(Some(Captures { text, spans }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regex;

    fn caps(pat: &str, text: &str) -> Option<Vec<String>> {
        let re = Regex::parse(pat).unwrap();
        re.captures(text)
            .unwrap()
            .map(|c| c.groups().iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn simple_literal() {
        assert!(Regex::parse("^abc$").unwrap().is_match("abc"));
        assert!(!Regex::parse("^abc$").unwrap().is_match("abcd"));
        assert!(!Regex::parse("^abc$").unwrap().is_match("xabc"));
    }

    #[test]
    fn greedy_backtracks() {
        // .+ must give back characters so the literal can match.
        let got = caps(r"^.+\.([a-z]{3})\d+\.x$", "a.b.sfo16.x").unwrap();
        assert_eq!(got, vec!["sfo"]);
    }

    #[test]
    fn possessive_does_not_backtrack() {
        // [a-z]++ swallows all letters and never gives any back, so a
        // following letter literal cannot match.
        let re = Regex::parse(r"^[a-z]++z$").unwrap();
        assert!(!re.is_match("aaaz"));
        // ...but a following digit is fine.
        let re = Regex::parse(r"^[a-z]++\d$").unwrap();
        assert!(re.is_match("abc7"));
    }

    #[test]
    fn bounded_repetition() {
        let re = Regex::parse(r"^[a-z]{3}$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("ab"));
        assert!(!re.is_match("abcd"));
        let re = Regex::parse(r"^[a-z]{2,4}$").unwrap();
        assert!(!re.is_match("a"));
        assert!(re.is_match("ab"));
        assert!(re.is_match("abcd"));
        assert!(!re.is_match("abcde"));
    }

    #[test]
    fn star_and_opt() {
        let re = Regex::parse(r"^a\d*b$").unwrap();
        assert!(re.is_match("ab"));
        assert!(re.is_match("a123b"));
        let re = Regex::parse(r"^a\d?b$").unwrap();
        assert!(re.is_match("ab"));
        assert!(re.is_match("a1b"));
        assert!(!re.is_match("a12b"));
    }

    #[test]
    fn capture_spans() {
        let re = Regex::parse(r"^([a-z]+)-(\d+)$").unwrap();
        let c = re.captures("core-42").unwrap().unwrap();
        assert_eq!(c.get(0), Some("core-42"));
        assert_eq!(c.get(1), Some("core"));
        assert_eq!(c.get(2), Some("42"));
        assert_eq!(c.span(1), Some((0, 4)));
        assert_eq!(c.span(2), Some((5, 7)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn unanchored_search_finds_leftmost() {
        let re = Regex::parse(r"([a-z]{3})\d").unwrap();
        let c = re.captures("x9.abc1.def2").unwrap().unwrap();
        assert_eq!(c.get(1), Some("abc"));
    }

    #[test]
    fn backtracking_across_multiple_variable_components() {
        let got = caps(
            r"^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$",
            "a.frankfurt.de.alter.net",
        )
        .unwrap();
        assert_eq!(got, vec!["frankfurt", "de"]);
    }

    #[test]
    fn budget_error_on_pathological_pattern() {
        // Massive nested ambiguity via many unbounded overlapping classes.
        let pat = format!("^{}z$", "[^-]+".repeat(24));
        let re = Regex::parse(&pat).unwrap();
        let long = "a".repeat(200);
        match re.captures(&long) {
            Err(MatchError::BudgetExhausted) => {}
            Ok(None) => {} // acceptable: finished within budget, no match
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let re = Regex::parse("^$").unwrap();
        assert!(re.is_match(""));
        assert!(!re.is_match("a"));
    }

    #[test]
    fn group_not_set_on_failed_branch() {
        // Group participates only if the overall match succeeds through it.
        let re = Regex::parse(r"^([a-z]+)\d$").unwrap();
        assert!(re.captures("abc").unwrap().is_none());
    }
}
