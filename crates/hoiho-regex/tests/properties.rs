//! Property tests on regex-engine semantics, driven by a seeded local
//! PRNG (no property-testing framework in the offline build).

use hoiho_regex::Regex;

/// Minimal SplitMix64 generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    fn string(&mut self, charset: &[u8], min: usize, max: usize) -> String {
        let len = min + self.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| charset[self.below(charset.len() as u64) as usize] as char)
            .collect()
    }

    /// Arbitrary subject over the hostname alphabet, length 0–40.
    fn subject(&mut self) -> String {
        self.string(b"abcdefghijklmnopqrstuvwxyz0123456789.-", 0, 40)
    }
}

const CASES: usize = 256;

/// The parser never panics on arbitrary ASCII input — it returns Ok or
/// a located error.
#[test]
fn parser_is_total_on_ascii() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let mut rng = Mix(0x11);
    for _ in 0..CASES {
        let pattern = rng.string(&printable, 0, 48);
        let _ = Regex::parse(&pattern);
    }
}

/// `{n}` repetition is equivalent to writing the class n times.
#[test]
fn bounded_repeat_equals_concatenation() {
    let mut rng = Mix(0x22);
    for _ in 0..CASES {
        let n = 1 + rng.below(5) as usize;
        let s = rng.subject();
        let braced = Regex::parse(&format!("^[a-z]{{{n}}}$")).unwrap();
        let spelled = Regex::parse(&format!("^{}$", "[a-z]".repeat(n))).unwrap();
        assert_eq!(braced.is_match(&s), spelled.is_match(&s), "subject {s:?}");
    }
}

/// A possessive quantifier accepts a subset of what the greedy one
/// accepts.
#[test]
fn possessive_accepts_subset_of_greedy() {
    let greedy = Regex::parse(r"^[^\.]+-[a-z]+$").unwrap();
    let poss = Regex::parse(r"^[^\.]++-[a-z]+$").unwrap();
    let mut rng = Mix(0x33);
    for _ in 0..CASES {
        let s = rng.subject();
        if poss.is_match(&s) {
            assert!(
                greedy.is_match(&s),
                "possessive matched {s:?} but greedy did not"
            );
        }
    }
}

/// `X?` is equivalent to `X{0,1}`.
#[test]
fn optional_equals_zero_or_one() {
    let q = Regex::parse(r"^[a-z]+\d?$").unwrap();
    let braced = Regex::parse(r"^[a-z]+\d{0,1}$").unwrap();
    let mut rng = Mix(0x44);
    for _ in 0..CASES {
        let s = rng.subject();
        assert_eq!(q.is_match(&s), braced.is_match(&s), "subject {s:?}");
    }
}

/// `X*` accepts exactly `X+` plus the empty contribution.
#[test]
fn star_is_plus_or_empty() {
    let star = Regex::parse(r"^a\d*b$").unwrap();
    let plus = Regex::parse(r"^a\d+b$").unwrap();
    let none = Regex::parse(r"^ab$").unwrap();
    let mut rng = Mix(0x55);
    for _ in 0..CASES {
        let s = rng.subject();
        assert_eq!(
            star.is_match(&s),
            plus.is_match(&s) || none.is_match(&s),
            "subject {s:?}"
        );
    }
}

/// Parse → render → parse is a fixed point.
#[test]
fn render_is_fixed_point() {
    // Patterns of the shape the proptest strategy generated:
    // ^<literal>([a-z]{n})?(\d quantified)?$
    let mut rng = Mix(0x66);
    for _ in 0..CASES {
        let mut pattern = String::from("^");
        pattern.push_str(&rng.string(b"abcdefghijklmnopqrstuvwxyz.", 0, 6));
        if rng.below(2) == 1 {
            pattern.push_str(&format!("[a-z]{{{}}}", 1 + rng.below(5)));
        }
        if rng.below(2) == 1 {
            pattern.push_str(r"\d");
            match rng.below(4) {
                0 => pattern.push('+'),
                1 => pattern.push('*'),
                2 => pattern.push('?'),
                _ => {}
            }
        }
        pattern.push('$');
        if let Ok(re) = Regex::parse(&pattern) {
            let rendered = re.as_pattern();
            let re2 = Regex::parse(rendered).unwrap();
            assert_eq!(rendered, re2.as_pattern());
        }
    }
}

/// Anchored match implies the whole string is consumed: group 0 spans
/// the entire subject.
#[test]
fn anchored_match_spans_subject() {
    let re = Regex::parse(r"^[^\.]+\.([a-z]{3})\d*$").unwrap();
    let mut rng = Mix(0x77);
    for _ in 0..CASES {
        let s = rng.subject();
        if let Ok(Some(caps)) = re.captures(&s) {
            assert_eq!(caps.span(0), Some((0, s.len())));
            // Captured groups lie within the subject.
            if let Some((a, b)) = caps.span(1) {
                assert!(a <= b && b <= s.len());
                assert_eq!(b - a, 3);
            }
        }
    }
}

/// Matching never errors (budget untouched) on learner-shaped patterns
/// over short subjects.
#[test]
fn no_budget_exhaustion_on_learner_patterns() {
    let patterns = [
        r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$",
        r"^[^\.]+\.[^\.]+\.([a-z]+)\d*\.example\.net$",
        r"^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+-[a-z]+\d+-[^\.]+\.alter\.net$",
    ]
    .map(|p| Regex::parse(p).unwrap());
    let mut rng = Mix(0x88);
    for _ in 0..CASES {
        let s = rng.subject();
        for re in &patterns {
            assert!(re.captures(&s).is_ok());
        }
    }
}
