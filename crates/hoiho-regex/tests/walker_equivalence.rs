//! The matcher walks the AST in place. These tests pin it to a copy of
//! the engine it replaced, which first flattened the AST into a linear
//! program of ops and then searched that program: capture spans, match
//! failures and step-budget exhaustion must all agree, on the generated
//! dialect, the paper's regexes, nested and numerous groups, unanchored
//! search, and budgets small enough to run out.

use hoiho_regex::ast::{Ast, Quant};
use hoiho_regex::exec::{find, MatchError, DEFAULT_STEP_BUDGET};
use hoiho_regex::{CharClass, Regex};

// ---------------------------------------------------------------------------
// Reference: the flattened-program matcher, kept here only as an oracle.
// ---------------------------------------------------------------------------

enum Op {
    Lit(Vec<u8>),
    Rep { class: CharClass, q: Quant },
    Open(usize),
    Close(usize),
}

fn flatten(ast: &Ast, out: &mut Vec<Op>, next_group: &mut usize) {
    match ast {
        Ast::Seq(items) => {
            for it in items {
                flatten(it, out, next_group);
            }
        }
        Ast::Literal(s) => out.push(Op::Lit(s.as_bytes().to_vec())),
        Ast::Class(c, q) => out.push(Op::Rep {
            class: c.clone(),
            q: *q,
        }),
        Ast::Capture(inner) => {
            *next_group += 1;
            let idx = *next_group;
            out.push(Op::Open(idx));
            flatten(inner, out, next_group);
            out.push(Op::Close(idx));
        }
    }
}

struct Machine<'p, 't> {
    prog: &'p [Op],
    text: &'t [u8],
    anchored_end: bool,
    budget: u64,
    caps: Vec<Option<(usize, usize)>>,
    open_at: Vec<usize>,
}

impl Machine<'_, '_> {
    fn run(&mut self, pc: usize, pos: usize) -> Result<Option<usize>, MatchError> {
        if self.budget == 0 {
            return Err(MatchError::BudgetExhausted);
        }
        self.budget -= 1;
        let Some(op) = self.prog.get(pc) else {
            return Ok(if !self.anchored_end || pos == self.text.len() {
                Some(pos)
            } else {
                None
            });
        };
        match op {
            Op::Lit(bytes) => {
                if self.text.len() - pos >= bytes.len()
                    && &self.text[pos..pos + bytes.len()] == bytes.as_slice()
                {
                    self.run(pc + 1, pos + bytes.len())
                } else {
                    Ok(None)
                }
            }
            Op::Open(idx) => {
                let prev = self.open_at[*idx];
                self.open_at[*idx] = pos;
                let r = self.run(pc + 1, pos)?;
                if r.is_none() {
                    self.open_at[*idx] = prev;
                }
                Ok(r)
            }
            Op::Close(idx) => {
                let prev = self.caps[*idx];
                self.caps[*idx] = Some((self.open_at[*idx], pos));
                let r = self.run(pc + 1, pos)?;
                if r.is_none() {
                    self.caps[*idx] = prev;
                }
                Ok(r)
            }
            Op::Rep { class, q } => {
                let mut n = 0usize;
                let limit = q.max.map(|m| m as usize).unwrap_or(usize::MAX);
                while n < limit && pos + n < self.text.len() && class.matches(self.text[pos + n]) {
                    n += 1;
                }
                if n < q.min as usize {
                    return Ok(None);
                }
                if q.possessive {
                    return self.run(pc + 1, pos + n);
                }
                let mut take = n;
                loop {
                    if let Some(end) = self.run(pc + 1, pos + take)? {
                        return Ok(Some(end));
                    }
                    if take == q.min as usize {
                        return Ok(None);
                    }
                    take -= 1;
                }
            }
        }
    }
}

type Spans = Vec<Option<(usize, usize)>>;

fn reference(
    ast: &Ast,
    text: &str,
    anchored_start: bool,
    anchored_end: bool,
    budget: u64,
) -> Result<Option<Spans>, MatchError> {
    let mut prog = Vec::new();
    let mut groups = 0usize;
    flatten(ast, &mut prog, &mut groups);
    let bytes = text.as_bytes();
    let last = if anchored_start { 0 } else { bytes.len() };
    for start in 0..=last {
        let mut m = Machine {
            prog: &prog,
            text: bytes,
            anchored_end,
            budget,
            caps: vec![None; groups + 1],
            open_at: vec![0; groups + 1],
        };
        if let Some(end) = m.run(0, start)? {
            let mut spans = m.caps;
            spans[0] = Some((start, end));
            return Ok(Some(spans));
        }
    }
    Ok(None)
}

/// The engine's answer in the reference's shape.
fn walked(
    ast: &Ast,
    text: &str,
    anchored_start: bool,
    anchored_end: bool,
    budget: u64,
) -> Result<Option<Spans>, MatchError> {
    find(ast, text, anchored_start, anchored_end, budget)
        .map(|m| m.map(|c| (0..c.len()).map(|i| c.span(i)).collect()))
}

fn assert_agree(ast: &Ast, text: &str, anchored_start: bool, anchored_end: bool, budget: u64) {
    let want = reference(ast, text, anchored_start, anchored_end, budget);
    let got = walked(ast, text, anchored_start, anchored_end, budget);
    assert_eq!(
        got, want,
        "pattern {ast} on {text:?} (anchors {anchored_start}/{anchored_end}, budget {budget})"
    );
}

/// Check a parsed pattern under its own anchors and under every other
/// anchoring, at the default budget.
fn assert_agree_all_anchors(pattern: &str, text: &str) {
    let re = Regex::parse(pattern).unwrap_or_else(|e| panic!("{pattern}: {e}"));
    for (s, e) in [(true, true), (true, false), (false, true), (false, false)] {
        assert_agree(re.ast(), text, s, e, DEFAULT_STEP_BUDGET);
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

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

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    fn string(&mut self, charset: &[u8], max: usize) -> String {
        let len = self.below(max as u64 + 1) as usize;
        (0..len).map(|_| *self.pick(charset) as char).collect()
    }

    /// A subject over a small hostname alphabet, so literals and
    /// classes collide often.
    fn subject(&mut self) -> String {
        self.string(b"abcxyz019.-", 24)
    }

    fn quant(&mut self) -> Quant {
        match self.below(7) {
            0 => Quant::exactly(1),
            1 => Quant::exactly(1 + self.below(3) as u32),
            2 => Quant::PLUS,
            3 => Quant::STAR,
            4 => Quant::OPT,
            5 => Quant::PLUS_POSSESSIVE,
            _ => {
                let min = self.below(3) as u32;
                Quant {
                    min,
                    max: Some(min + self.below(3) as u32),
                    possessive: false,
                }
            }
        }
    }

    /// A random AST: sequences, literals, quantified classes and
    /// captures nested up to `depth` deep (empty sequences included).
    fn ast(&mut self, depth: u32) -> Ast {
        let classes = [
            CharClass::Alpha,
            CharClass::Digit,
            CharClass::AlphaNum,
            CharClass::NotDot,
            CharClass::NotHyphen,
            CharClass::NotDotHyphen,
            CharClass::Any,
        ];
        match self.below(if depth == 0 { 2 } else { 4 }) {
            0 => Ast::lit(self.string(b"abx0.-", 3)),
            1 => Ast::class(self.pick(&classes).clone(), self.quant()),
            2 => Ast::capture(self.ast(depth - 1)),
            _ => {
                let n = self.below(4) as usize;
                Ast::Seq((0..n).map(|_| self.ast(depth - 1)).collect())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn random_asts_agree_with_flattened_matcher() {
    let mut rng = Mix(0xA57);
    for _ in 0..3000 {
        let ast = rng.ast(4);
        for _ in 0..6 {
            let text = rng.subject();
            let (s, e) = (rng.below(2) == 0, rng.below(2) == 0);
            assert_agree(&ast, &text, s, e, DEFAULT_STEP_BUDGET);
        }
    }
}

/// The learner's dialect: dot-separated labels of classes and captured
/// hints, ending in a literal suffix, against hostname-shaped subjects.
#[test]
fn generated_dialect_agrees() {
    let mut rng = Mix(0xD1A);
    let label_parts = [
        Ast::class(CharClass::Any, Quant::PLUS),
        Ast::class(CharClass::NotDot, Quant::PLUS),
        Ast::class(CharClass::NotHyphen, Quant::PLUS_POSSESSIVE),
        Ast::class(CharClass::Digit, Quant::PLUS),
        Ast::class(CharClass::Digit, Quant::STAR),
        Ast::class(CharClass::Alpha, Quant::PLUS),
        Ast::class(CharClass::AlphaNum, Quant::PLUS),
        Ast::capture(Ast::class(CharClass::Alpha, Quant::exactly(3))),
        Ast::capture(Ast::class(CharClass::Alpha, Quant::exactly(2))),
        Ast::capture(Ast::class(CharClass::Alpha, Quant::PLUS)),
        Ast::lit("-"),
        Ast::lit("cr"),
    ];
    for _ in 0..2000 {
        let mut items = Vec::new();
        for label in 0..1 + rng.below(4) {
            if label > 0 {
                items.push(Ast::lit("."));
            }
            for _ in 0..1 + rng.below(3) {
                items.push(rng.pick(&label_parts).clone());
            }
        }
        items.push(Ast::lit(".example.net"));
        let ast = Ast::seq(items);
        for _ in 0..8 {
            let mut host = String::new();
            for _ in 0..1 + rng.below(4) {
                host.push_str(&rng.string(b"abcdlhrfa0123-", 8));
                host.push('.');
            }
            host.push_str("example.net");
            assert_agree(&ast, &host, true, true, DEFAULT_STEP_BUDGET);
        }
    }
}

#[test]
fn paper_regexes_agree() {
    let cases: &[(&str, &[&str])] = &[
        (
            r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$",
            &[
                "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com",
                "a.b.lhr15.uk.zip.zayo.com",
                "mpr1.lhr.uk.zip.zayo.com",
            ],
        ),
        (
            r"^.+\.([a-z]+)\d*\.level3\.net$",
            &[
                "ae-2-52.edge4.brussels1.level3.net",
                "x.brussels.level3.net",
            ],
        ),
        (
            r"^.+\.([a-z]{6})\d+\.([a-z]{2})\.[a-z]{2}\.gin\.ntt\.net$",
            &["xe-0-0-28-0.a02.snjsca04.us.ce.gin.ntt.net"],
        ),
        (
            r"^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+-[a-z]+\d+-[^\.]+\.alter\.net$",
            &[
                "0.af0.rcmdva83-mse01-a-ie1.alter.net",
                "0.xe-10-0-0.gw1.sfo16.alter.net",
            ],
        ),
        (
            r"^[^-]++-([a-z]+)\d+\.he\.net$",
            &[
                "core1-ash1.he.net",
                "10ge-ash1.he.net",
                "core-1-ash1.he.net",
            ],
        ),
    ];
    for (pattern, hosts) in cases {
        for host in *hosts {
            assert_agree_all_anchors(pattern, host);
        }
    }
}

#[test]
fn nested_groups_agree() {
    assert_agree_all_anchors(r"^((a)\d)(b)$", "a1b");
    assert_agree_all_anchors(r"^((a)\d)(b)$", "a1c");
    assert_agree_all_anchors(r"^(([a-z]+)(\d*))\.(([a-z]{2}))$", "lhr15.uk");
    assert_agree_all_anchors(r"^(((x)))$", "x");
    let c = Regex::parse(r"^((a)\d)(b)$")
        .unwrap()
        .captures("a1b")
        .unwrap()
        .unwrap();
    assert_eq!(
        (c.get(1), c.get(2), c.get(3)),
        (Some("a1"), Some("a"), Some("b"))
    );
}

/// A dozen groups: the walker numbers groups by counting, not from a
/// fixed table.
#[test]
fn many_groups_agree() {
    let n = 12;
    let pattern = format!("^{}$", r"([a-z])\.".repeat(n));
    let text: String = (0..n)
        .map(|i| format!("{}.", (b'a' + i as u8) as char))
        .collect();
    assert_agree_all_anchors(&pattern, &text);
    let c = Regex::parse(&pattern)
        .unwrap()
        .captures(&text)
        .unwrap()
        .unwrap();
    assert_eq!(c.len(), n + 1);
    assert_eq!(c.get(n), Some(&text[2 * (n - 1)..2 * n - 1]));
}

#[test]
fn unanchored_search_agrees() {
    for (pattern, text) in [
        (r"([a-z]{3})\d", "x9.abc1.def2"),
        (r"\d+", "abc"),
        (r"", "abc"),
        (r"(b*)", "abc"),
        (r"([a-z]+)\.net", "a.b.example.net"),
    ] {
        assert_agree_all_anchors(pattern, text);
    }
}

/// Both engines charge the same steps, so a budget runs out at the same
/// point: sweep budgets from zero up past what each case needs.
#[test]
fn step_budget_runs_out_at_the_same_point() {
    let cases = [
        (
            r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$",
            "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com",
        ),
        (r"^((a)\d)(b)$", "a1b"),
        (r"^[^-]+[^-]+[^-]+z$", "aaaaaaaaaaaa"),
        (r"([a-z]{3})\d", "x9.abc1.def2"),
    ];
    for (pattern, text) in cases {
        let re = Regex::parse(pattern).unwrap();
        let (s, e) = (pattern.starts_with('^'), pattern.ends_with('$'));
        for budget in 0..400 {
            assert_agree(re.ast(), text, s, e, budget);
        }
    }
    // The pathological case exhausts the default budget in both.
    let pat = format!("^{}z$", "[^-]+".repeat(24));
    let re = Regex::parse(&pat).unwrap();
    let long = "a".repeat(200);
    assert_eq!(
        walked(re.ast(), &long, true, true, DEFAULT_STEP_BUDGET),
        Err(MatchError::BudgetExhausted)
    );
    assert_agree(re.ast(), &long, true, true, DEFAULT_STEP_BUDGET);
}
