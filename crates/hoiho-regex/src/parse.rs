//! Parser for the Hoiho regex dialect.
//!
//! Grammar (informal):
//!
//! ```text
//! pattern  := '^'? element* '$'?
//! element  := atom quant?
//! atom     := literal-char | escape | class | '.' | '(' element* ')'
//! escape   := '\.' | '\d' | '\-' | '\\' | '\$' | '\^' | ...
//! class    := '[' '^'? member+ ']'
//! member   := char '-' char | escape | char
//! quant    := '+' '+'? | '*' | '?' | '{' n (',' m?)? '}'
//! ```
//!
//! Named classes (`[a-z]`, `[^\.]`, …) are recognised and mapped to their
//! [`CharClass`] variants so the AST rendering reproduces the canonical
//! spelling; any other class becomes [`CharClass::Custom`].

use crate::ast::{Ast, Quant};
use crate::class::{AsciiSet, CharClass};
use std::fmt;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the pattern.
    pub at: usize,
    /// Human-readable problem.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parse a sequence of elements until `)` or end of input.
    fn seq(&mut self, in_group: bool) -> Result<Vec<Ast>, ParseError> {
        let mut items: Vec<Ast> = Vec::new();
        loop {
            match self.peek() {
                None => {
                    if in_group {
                        return self.err("unclosed group");
                    }
                    break;
                }
                Some(b')') => {
                    if in_group {
                        break;
                    }
                    return self.err("unmatched ')'");
                }
                Some(b'$') if !in_group && self.pos + 1 == self.src.len() => break,
                _ => {}
            }
            let atom = self.atom()?;
            let atom = self.apply_quant(atom)?;
            // Fuse adjacent literals for a compact AST.
            if let (Some(Ast::Literal(prev)), Ast::Literal(cur)) = (items.last_mut(), &atom) {
                prev.push_str(cur);
            } else {
                items.push(atom);
            }
        }
        Ok(items)
    }

    fn atom(&mut self) -> Result<Ast, ParseError> {
        match self.bump() {
            None => self.err("unexpected end of pattern"),
            Some(b'(') => {
                let inner = self.seq(true)?;
                if !self.eat(b')') {
                    return self.err("expected ')'");
                }
                Ok(Ast::Capture(Box::new(Ast::seq(inner))))
            }
            Some(b'[') => self.class(),
            Some(b'.') => Ok(Ast::Class(CharClass::Any, Quant::exactly(1))),
            Some(b'\\') => match self.bump() {
                Some(b'd') => Ok(Ast::Class(CharClass::Digit, Quant::exactly(1))),
                Some(
                    c @ (b'.' | b'\\' | b'+' | b'*' | b'?' | b'(' | b')' | b'[' | b']' | b'{'
                    | b'}' | b'^' | b'$' | b'|' | b'-'),
                ) => Ok(Ast::Literal((c as char).to_string())),
                Some(c) => self.err(format!("unsupported escape '\\{}'", c as char)),
                None => self.err("dangling escape"),
            },
            Some(c @ (b'+' | b'*' | b'?' | b'{' | b'}' | b']' | b'|' | b'^' | b'$')) => {
                self.err(format!("unexpected metacharacter '{}'", c as char))
            }
            Some(c) => Ok(Ast::Literal((c as char).to_string())),
        }
    }

    /// Parse a `[...]` class body (the `[` is already consumed).
    fn class(&mut self) -> Result<Ast, ParseError> {
        let start = self.pos - 1;
        let negated = self.eat(b'^');
        let mut set = AsciiSet::EMPTY;
        let mut any = false;
        loop {
            match self.bump() {
                None => return self.err("unclosed character class"),
                Some(b']') if any => break,
                Some(b']') => return self.err("empty character class"),
                Some(b'\\') => match self.bump() {
                    Some(b'd') => {
                        set.insert_range(b'0', b'9');
                        any = true;
                    }
                    Some(c @ (b'.' | b'-' | b'\\' | b']' | b'^')) => {
                        set.insert(c);
                        any = true;
                    }
                    Some(c) => {
                        return self.err(format!("unsupported class escape '\\{}'", c as char))
                    }
                    None => return self.err("dangling escape in class"),
                },
                Some(lo) => {
                    // Range like a-z (only when '-' is followed by a plain
                    // char, not ']').
                    if self.peek() == Some(b'-')
                        && self.src.get(self.pos + 1).is_some_and(|&b| b != b']')
                    {
                        self.bump(); // '-'
                        let hi = self.bump().expect("checked above");
                        let hi = if hi == b'\\' {
                            match self.bump() {
                                Some(c) => c,
                                None => return self.err("dangling escape in class range"),
                            }
                        } else {
                            hi
                        };
                        if lo > hi {
                            return self.err("reversed class range");
                        }
                        set.insert_range(lo, hi);
                    } else {
                        set.insert(lo);
                    }
                    any = true;
                }
            }
        }
        let src_text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("pattern is str")
            .to_string();
        let class = canonical_class(negated, &set, &src_text);
        Ok(Ast::Class(class, Quant::exactly(1)))
    }

    fn apply_quant(&mut self, atom: Ast) -> Result<Ast, ParseError> {
        let q = match self.peek() {
            Some(b'+') => {
                self.bump();
                if self.eat(b'+') {
                    Quant::PLUS_POSSESSIVE
                } else {
                    Quant::PLUS
                }
            }
            Some(b'*') => {
                self.bump();
                Quant::STAR
            }
            Some(b'?') => {
                self.bump();
                Quant::OPT
            }
            Some(b'{') => {
                self.bump();
                let min = self.number()?;
                let max = if self.eat(b',') {
                    if self.peek() == Some(b'}') {
                        None
                    } else {
                        Some(self.number()?)
                    }
                } else {
                    Some(min)
                };
                if !self.eat(b'}') {
                    return self.err("expected '}'");
                }
                if let Some(m) = max {
                    if m < min {
                        return self.err("quantifier max below min");
                    }
                }
                Quant {
                    min,
                    max,
                    possessive: false,
                }
            }
            _ => return Ok(atom),
        };
        match atom {
            Ast::Class(c, old) if old == Quant::exactly(1) => Ok(Ast::Class(c, q)),
            Ast::Literal(s) if s.chars().count() == 1 => {
                // A quantified single literal char: model as a custom class.
                let ch = s.as_bytes()[0];
                let mut set = AsciiSet::EMPTY;
                set.insert(ch);
                let mut src = String::new();
                if matches!(
                    ch,
                    b'.' | b'\\'
                        | b'+'
                        | b'*'
                        | b'?'
                        | b'('
                        | b')'
                        | b'['
                        | b']'
                        | b'{'
                        | b'}'
                        | b'^'
                        | b'$'
                        | b'|'
                ) {
                    src.push('\\');
                }
                src.push(ch as char);
                Ok(Ast::Class(CharClass::Custom(set, src), q))
            }
            Ast::Literal(s) => {
                // Quantifier binds to the last char of a fused literal.
                let mut chars: Vec<char> = s.chars().collect();
                let last = chars.pop().expect("nonempty literal");
                let prefix: String = chars.into_iter().collect();
                let quantified = self.requantify_char(last, q);
                if prefix.is_empty() {
                    Ok(quantified)
                } else {
                    Ok(Ast::seq(vec![Ast::Literal(prefix), quantified]))
                }
            }
            Ast::Capture(_) | Ast::Seq(_) => self.err("quantified groups are not supported"),
            Ast::Class(..) => self.err("double quantifier"),
        }
    }

    fn requantify_char(&self, ch: char, q: Quant) -> Ast {
        let mut set = AsciiSet::EMPTY;
        set.insert(ch as u8);
        let mut src = String::new();
        if matches!(
            ch,
            '.' | '\\' | '+' | '*' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '^' | '$' | '|'
        ) {
            src.push('\\');
        }
        src.push(ch);
        Ast::Class(CharClass::Custom(set, src), q)
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return self.err("expected number");
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .expect("digits")
            .parse()
            .map_err(|_| ParseError {
                at: start,
                msg: "number too large".into(),
            })
    }
}

/// Map a parsed class to the canonical named variant when its member set
/// matches one, preserving the paper's spellings on render.
fn canonical_class(negated: bool, set: &AsciiSet, src: &str) -> CharClass {
    let effective = if negated { set.negated() } else { *set };
    let named = [
        CharClass::Alpha,
        CharClass::Digit,
        CharClass::AlphaNum,
        CharClass::NotDot,
        CharClass::NotHyphen,
        CharClass::NotDotHyphen,
    ];
    for cand in named {
        if (0u8..128).all(|b| cand.matches(b) == effective.contains(b)) {
            return cand;
        }
    }
    CharClass::Custom(effective, src.to_string())
}

/// Parse a full pattern, returning the compiled [`crate::Regex`].
pub fn parse(pattern: &str) -> Result<crate::Regex, ParseError> {
    if !pattern.is_ascii() {
        return Err(ParseError {
            at: 0,
            msg: "pattern must be ASCII".into(),
        });
    }
    let mut p = Parser {
        src: pattern.as_bytes(),
        pos: 0,
    };
    let anchored_start = p.eat(b'^');
    let items = p.seq(false)?;
    let anchored_end = p.eat(b'$');
    if p.pos != p.src.len() {
        return p.err("trailing input after '$'");
    }
    Ok(crate::Regex::new(
        Ast::seq(items),
        anchored_start,
        anchored_end,
    ))
}

#[cfg(test)]
mod tests {
    use crate::Regex;

    #[test]
    fn named_classes_canonicalised() {
        let re = Regex::parse(r"^[a-z]+[0-9]+[^\.]+$").unwrap();
        // [0-9] canonicalises to the \d spelling.
        assert_eq!(re.as_pattern(), r"^[a-z]+\d+[^\.]+$");
    }

    #[test]
    fn custom_class_kept_verbatim() {
        let re = Regex::parse(r"^[abc]+$").unwrap();
        assert_eq!(re.as_pattern(), "^[abc]+$");
        assert!(re.is_match("cab"));
        assert!(!re.is_match("cad"));
    }

    #[test]
    fn negated_custom_class() {
        let re = Regex::parse(r"^[^abc]+$").unwrap();
        assert!(re.is_match("xyz"));
        assert!(!re.is_match("xay"));
    }

    #[test]
    fn quantified_literal_char() {
        let re = Regex::parse(r"^ab+c$").unwrap();
        assert!(re.is_match("abc"));
        assert!(re.is_match("abbbc"));
        assert!(!re.is_match("ac"));
    }

    #[test]
    fn quantified_escaped_dot() {
        let re = Regex::parse(r"^a\.+b$").unwrap();
        assert!(re.is_match("a...b"));
        assert!(!re.is_match("axb"));
    }

    #[test]
    fn errors() {
        assert!(Regex::parse(r"^(ab$").is_err());
        assert!(Regex::parse(r"^ab)$").is_err());
        assert!(Regex::parse(r"^[ab$").is_err());
        assert!(Regex::parse(r"^a{3$").is_err());
        assert!(Regex::parse(r"^a{4,2}$").is_err());
        assert!(Regex::parse(r"^a\q$").is_err());
        assert!(Regex::parse(r"^+a$").is_err());
        assert!(
            Regex::parse(r"^([a-z])+$").is_err(),
            "quantified groups unsupported"
        );
        assert!(Regex::parse(r"^[]$").is_err());
        assert!(Regex::parse(r"^[z-a]$").is_err());
    }

    #[test]
    fn dollar_mid_pattern_is_error() {
        assert!(Regex::parse(r"^a$b$").is_err());
    }

    #[test]
    fn unanchored_pattern_allowed() {
        let re = Regex::parse(r"[a-z]{3}\d").unwrap();
        assert!(re.is_match("xx.abc1.yy"));
    }

    #[test]
    fn brace_quant_range_and_open() {
        let re = Regex::parse(r"^[a-z]{2,}$").unwrap();
        assert!(!re.is_match("a"));
        assert!(re.is_match("abcd"));
        assert_eq!(re.as_pattern(), "^[a-z]{2,}$");
    }

    #[test]
    fn possessive_plus_parses_and_renders() {
        let re = Regex::parse(r"^[^-]++x$").unwrap();
        assert_eq!(re.as_pattern(), "^[^-]++x$");
    }

    #[test]
    fn non_ascii_rejected() {
        assert!(Regex::parse("^é$").is_err());
    }
}
