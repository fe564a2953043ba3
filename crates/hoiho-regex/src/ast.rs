//! The regex AST that the Hoiho learner composes.
//!
//! The learner never manipulates pattern strings directly: stage 3 builds
//! [`Ast`] values element by element (a captured `[a-z]{3}` here, a literal
//! `\.` there), the merge and character-class-embedding phases rewrite them
//! structurally, and only the final naming convention is rendered to a
//! string for publication.

use crate::class::CharClass;
use std::fmt::{self, Write as _};

/// A quantifier attached to a character class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quant {
    /// Minimum repetitions.
    pub min: u32,
    /// Maximum repetitions, `None` for unbounded.
    pub max: Option<u32>,
    /// Possessive quantifiers (`++`) never release characters to
    /// backtracking.
    pub possessive: bool,
}

impl Quant {
    /// Exactly `n` — renders as `{n}` (or nothing when `n == 1`).
    pub const fn exactly(n: u32) -> Quant {
        Quant {
            min: n,
            max: Some(n),
            possessive: false,
        }
    }

    /// One or more — `+`.
    pub const PLUS: Quant = Quant {
        min: 1,
        max: None,
        possessive: false,
    };

    /// Zero or more — `*`.
    pub const STAR: Quant = Quant {
        min: 0,
        max: None,
        possessive: false,
    };

    /// Zero or one — `?`.
    pub const OPT: Quant = Quant {
        min: 0,
        max: Some(1),
        possessive: false,
    };

    /// One or more, possessive — `++`.
    pub const PLUS_POSSESSIVE: Quant = Quant {
        min: 1,
        max: None,
        possessive: true,
    };

    fn render(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match (self.min, self.max) {
            (1, Some(1)) => Ok(()),
            (1, None) => out.write_char('+'),
            (0, None) => out.write_char('*'),
            (0, Some(1)) => out.write_char('?'),
            (n, Some(m)) if n == m => write!(out, "{{{n}}}"),
            (n, Some(m)) => write!(out, "{{{n},{m}}}"),
            (n, None) => write!(out, "{{{n},}}"),
        };
        if self.possessive {
            out.push('+');
        }
    }
}

/// A node of the Hoiho regex AST.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ast {
    /// A sequence of elements matched in order.
    Seq(Vec<Ast>),
    /// Literal text (unescaped form; rendering re-escapes metacharacters).
    Literal(String),
    /// A quantified character class, e.g. `[a-z]{3}` or `[^\.]+`.
    Class(CharClass, Quant),
    /// A capture group around a sub-AST.
    Capture(Box<Ast>),
}

impl Ast {
    /// Convenience: a sequence node (flattens nested sequences).
    pub fn seq(items: Vec<Ast>) -> Ast {
        let mut flat = Vec::with_capacity(items.len());
        for it in items {
            match it {
                Ast::Seq(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Ast::Seq(flat)
    }

    /// Convenience: literal text.
    pub fn lit(s: impl Into<String>) -> Ast {
        Ast::Literal(s.into())
    }

    /// Convenience: a quantified class.
    pub fn class(c: CharClass, q: Quant) -> Ast {
        Ast::Class(c, q)
    }

    /// Convenience: a capture around a single class.
    pub fn capture(inner: Ast) -> Ast {
        Ast::Capture(Box::new(inner))
    }

    /// Number of capture groups in this subtree.
    pub fn capture_count(&self) -> usize {
        match self {
            Ast::Seq(items) => items.iter().map(Ast::capture_count).sum(),
            Ast::Literal(_) | Ast::Class(..) => 0,
            Ast::Capture(inner) => 1 + inner.capture_count(),
        }
    }

    /// Whether the subtree contains a `.+` (the builder allows at most one
    /// per regex, following prior Hoiho work).
    pub fn contains_dot_plus(&self) -> bool {
        match self {
            Ast::Seq(items) => items.iter().any(Ast::contains_dot_plus),
            Ast::Class(CharClass::Any, q) => q.max.is_none(),
            Ast::Class(..) | Ast::Literal(_) => false,
            Ast::Capture(inner) => inner.contains_dot_plus(),
        }
    }

    /// Render to pattern text (no anchors), escaping literal
    /// metacharacters.
    pub fn render(&self, out: &mut String) {
        match self {
            Ast::Seq(items) => {
                for it in items {
                    it.render(out);
                }
            }
            Ast::Literal(s) => escape_literal(s, out),
            Ast::Class(c, q) => {
                c.render(out);
                q.render(out);
            }
            Ast::Capture(inner) => {
                out.push('(');
                inner.render(out);
                out.push(')');
            }
        }
    }
}

/// Append `text` to `out` as pattern text that matches it literally:
/// each metacharacter gets a backslash. [`Ast::render`] renders every
/// [`Ast::Literal`] through it.
pub fn escape_literal(text: &str, out: &mut String) {
    for c in text.chars() {
        if matches!(
            c,
            '.' | '\\' | '+' | '*' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '^' | '$' | '|'
        ) {
            out.push('\\');
        }
        out.push(c);
    }
}

impl fmt::Display for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_rendering() {
        let mut s = String::new();
        Quant::exactly(3).render(&mut s);
        assert_eq!(s, "{3}");
        s.clear();
        Quant::exactly(1).render(&mut s);
        assert_eq!(s, "");
        s.clear();
        Quant::PLUS.render(&mut s);
        assert_eq!(s, "+");
        s.clear();
        Quant::STAR.render(&mut s);
        assert_eq!(s, "*");
        s.clear();
        Quant::OPT.render(&mut s);
        assert_eq!(s, "?");
        s.clear();
        Quant::PLUS_POSSESSIVE.render(&mut s);
        assert_eq!(s, "++");
        s.clear();
        Quant {
            min: 2,
            max: Some(4),
            possessive: false,
        }
        .render(&mut s);
        assert_eq!(s, "{2,4}");
    }

    #[test]
    fn literal_escaping() {
        let ast = Ast::lit(".alter.net");
        assert_eq!(ast.to_string(), r"\.alter\.net");
    }

    #[test]
    fn seq_flattens() {
        let ast = Ast::seq(vec![
            Ast::seq(vec![Ast::lit("a"), Ast::lit("b")]),
            Ast::lit("c"),
        ]);
        match &ast {
            Ast::Seq(items) => assert_eq!(items.len(), 3),
            _ => panic!(),
        }
    }

    #[test]
    fn capture_count_nested() {
        let ast = Ast::seq(vec![
            Ast::capture(Ast::class(CharClass::Alpha, Quant::exactly(3))),
            Ast::lit("."),
            Ast::capture(Ast::class(CharClass::Alpha, Quant::exactly(2))),
        ]);
        assert_eq!(ast.capture_count(), 2);
    }

    #[test]
    fn dot_plus_detection() {
        let with = Ast::seq(vec![Ast::class(CharClass::Any, Quant::PLUS), Ast::lit(".")]);
        assert!(with.contains_dot_plus());
        let without = Ast::class(CharClass::NotDot, Quant::PLUS);
        assert!(!without.contains_dot_plus());
    }

    #[test]
    fn render_full_pattern() {
        // ^.+\.([a-z]{3})\d+\.alter\.net$ without the anchors
        let ast = Ast::seq(vec![
            Ast::class(CharClass::Any, Quant::PLUS),
            Ast::lit("."),
            Ast::capture(Ast::class(CharClass::Alpha, Quant::exactly(3))),
            Ast::class(CharClass::Digit, Quant::PLUS),
            Ast::lit(".alter.net"),
        ]);
        assert_eq!(ast.to_string(), r".+\.([a-z]{3})\d+\.alter\.net");
    }
}
