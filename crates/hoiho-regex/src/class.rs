//! Character classes over ASCII.
//!
//! Hostnames are ASCII by construction (DNS labels), so classes are bitsets
//! over the 128 ASCII code points. The named constructors cover every class
//! the Hoiho learner emits; [`CharClass::Custom`] keeps parser completeness
//! for hand-written patterns.

use std::fmt;

/// A set of ASCII characters, as two 64-bit halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsciiSet {
    lo: u64,
    hi: u64,
}

impl AsciiSet {
    /// The empty set.
    pub const EMPTY: AsciiSet = AsciiSet { lo: 0, hi: 0 };

    /// Add one ASCII byte.
    pub fn insert(&mut self, b: u8) {
        debug_assert!(b < 128);
        if b < 64 {
            self.lo |= 1u64 << b;
        } else {
            self.hi |= 1u64 << (b - 64);
        }
    }

    /// Add an inclusive byte range.
    pub fn insert_range(&mut self, from: u8, to: u8) {
        for b in from..=to {
            self.insert(b);
        }
    }

    /// Membership test. Non-ASCII bytes are never members.
    pub fn contains(&self, b: u8) -> bool {
        if b >= 128 {
            false
        } else if b < 64 {
            self.lo & (1u64 << b) != 0
        } else {
            self.hi & (1u64 << (b - 64)) != 0
        }
    }

    /// Complement within ASCII.
    pub fn negated(&self) -> AsciiSet {
        AsciiSet {
            lo: !self.lo,
            hi: !self.hi,
        }
    }

    /// Set union.
    pub fn union(&self, other: &AsciiSet) -> AsciiSet {
        AsciiSet {
            lo: self.lo | other.lo,
            hi: self.hi | other.hi,
        }
    }
}

/// A character class as it appears in a Hoiho-dialect regex.
///
/// The enum keeps the *name* of the class, not just its member set, so that
/// rendering reproduces the exact spelling the paper uses (`[^\.]`, not an
/// equivalent enumerated set).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CharClass {
    /// `[a-z]` — lowercase letters.
    Alpha,
    /// `\d` — ASCII digits.
    Digit,
    /// `[a-z\d]` — letters or digits.
    AlphaNum,
    /// `[^\.]` — anything but a dot.
    NotDot,
    /// `[^-]` — anything but a hyphen.
    NotHyphen,
    /// `[^\.-]` — anything but a dot or hyphen.
    NotDotHyphen,
    /// `.` — any character.
    Any,
    /// A hand-written class kept with its source text for faithful display.
    Custom(AsciiSet, String),
}

impl CharClass {
    /// Membership test against one byte of the subject.
    pub fn matches(&self, b: u8) -> bool {
        match self {
            CharClass::Alpha => b.is_ascii_lowercase(),
            CharClass::Digit => b.is_ascii_digit(),
            CharClass::AlphaNum => b.is_ascii_lowercase() || b.is_ascii_digit(),
            CharClass::NotDot => b != b'.',
            CharClass::NotHyphen => b != b'-',
            CharClass::NotDotHyphen => b != b'.' && b != b'-',
            CharClass::Any => true,
            CharClass::Custom(set, _) => set.contains(b),
        }
    }

    /// The exact source spelling.
    pub fn render(&self, out: &mut String) {
        match self {
            CharClass::Alpha => out.push_str("[a-z]"),
            CharClass::Digit => out.push_str(r"\d"),
            CharClass::AlphaNum => out.push_str(r"[a-z\d]"),
            CharClass::NotDot => out.push_str(r"[^\.]"),
            CharClass::NotHyphen => out.push_str("[^-]"),
            CharClass::NotDotHyphen => out.push_str(r"[^\.-]"),
            CharClass::Any => out.push('.'),
            CharClass::Custom(_, src) => out.push_str(src),
        }
    }
}

impl fmt::Display for CharClass {
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
    fn alpha_matches_lowercase_only() {
        assert!(CharClass::Alpha.matches(b'a'));
        assert!(CharClass::Alpha.matches(b'z'));
        assert!(!CharClass::Alpha.matches(b'A'));
        assert!(!CharClass::Alpha.matches(b'0'));
        assert!(!CharClass::Alpha.matches(b'.'));
    }

    #[test]
    fn digit_and_alphanum() {
        assert!(CharClass::Digit.matches(b'0'));
        assert!(!CharClass::Digit.matches(b'a'));
        assert!(CharClass::AlphaNum.matches(b'a'));
        assert!(CharClass::AlphaNum.matches(b'7'));
        assert!(!CharClass::AlphaNum.matches(b'-'));
    }

    #[test]
    fn negated_punctuation() {
        assert!(CharClass::NotDot.matches(b'-'));
        assert!(!CharClass::NotDot.matches(b'.'));
        assert!(CharClass::NotHyphen.matches(b'.'));
        assert!(!CharClass::NotHyphen.matches(b'-'));
        assert!(!CharClass::NotDotHyphen.matches(b'.'));
        assert!(!CharClass::NotDotHyphen.matches(b'-'));
        assert!(CharClass::NotDotHyphen.matches(b'x'));
    }

    #[test]
    fn any_matches_everything_ascii() {
        for b in 0u8..128 {
            assert!(CharClass::Any.matches(b));
        }
    }

    #[test]
    fn ascii_set_ops() {
        let mut s = AsciiSet::EMPTY;
        s.insert_range(b'a', b'c');
        assert!(s.contains(b'a') && s.contains(b'c') && !s.contains(b'd'));
        let n = s.negated();
        assert!(!n.contains(b'b') && n.contains(b'z'));
        assert!(!s.contains(200));
        let mut t = AsciiSet::EMPTY;
        t.insert(b'z');
        let u = s.union(&t);
        assert!(u.contains(b'a') && u.contains(b'z'));
    }

    #[test]
    fn render_spellings() {
        assert_eq!(CharClass::Alpha.to_string(), "[a-z]");
        assert_eq!(CharClass::Digit.to_string(), r"\d");
        assert_eq!(CharClass::AlphaNum.to_string(), r"[a-z\d]");
        assert_eq!(CharClass::NotDot.to_string(), r"[^\.]");
        assert_eq!(CharClass::NotHyphen.to_string(), "[^-]");
        assert_eq!(CharClass::Any.to_string(), ".");
    }
}
