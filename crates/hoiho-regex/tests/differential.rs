//! Differential tests: our engine must agree with an independent
//! reference implementation on the dialect Hoiho emits. The offline
//! build has no mainstream `regex` crate, so the reference is a naive
//! exponential backtracking matcher written from the grammar — slow and
//! obviously correct, sharing no code with the real engine. Possessive
//! `++` is excluded (possessiveness can only *reject* strings greedy
//! matching accepts), as the original comparison against the `regex`
//! crate also did.

use hoiho_regex::Regex as Hoiho;

// ---------------------------------------------------------------------------
// Reference matcher: parse into elements, match by brute-force recursion.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Elem {
    /// A literal byte.
    Lit(u8),
    /// A character class: `allowed(b)` decided by (set, negated). `.`
    /// is the class "not newline".
    Class {
        set: Vec<(u8, u8)>,
        negated: bool,
    },
    /// Group open/close markers (transparent to matching).
    Open,
    Close,
}

#[derive(Debug, Clone)]
struct Piece {
    elem: Elem,
    min: u32,
    max: Option<u32>,
}

/// Parse the anchored learner dialect: literals, `\.`/`\d` escapes,
/// `[...]` classes, `.`, groups, and `+ * ? {n} {n,m}` quantifiers.
fn ref_parse(pattern: &str) -> Vec<Piece> {
    let b = pattern.as_bytes();
    assert!(
        b.first() == Some(&b'^') && b.last() == Some(&b'$'),
        "reference matcher only handles anchored patterns: {pattern}"
    );
    let mut i = 1;
    let end = b.len() - 1;
    let mut out: Vec<Piece> = Vec::new();
    while i < end {
        let elem = match b[i] {
            b'(' => {
                i += 1;
                out.push(Piece {
                    elem: Elem::Open,
                    min: 1,
                    max: Some(1),
                });
                continue;
            }
            b')' => {
                i += 1;
                out.push(Piece {
                    elem: Elem::Close,
                    min: 1,
                    max: Some(1),
                });
                continue;
            }
            b'\\' => {
                i += 1;
                let e = match b[i] {
                    b'd' => Elem::Class {
                        set: vec![(b'0', b'9')],
                        negated: false,
                    },
                    c => Elem::Lit(c),
                };
                i += 1;
                e
            }
            b'[' => {
                i += 1;
                let negated = b[i] == b'^';
                if negated {
                    i += 1;
                }
                let mut set = Vec::new();
                while b[i] != b']' {
                    let lo = if b[i] == b'\\' {
                        i += 1;
                        match b[i] {
                            b'd' => {
                                set.push((b'0', b'9'));
                                i += 1;
                                continue;
                            }
                            c => c,
                        }
                    } else {
                        b[i]
                    };
                    if b.get(i + 1) == Some(&b'-') && b.get(i + 2) != Some(&b']') {
                        set.push((lo, b[i + 2]));
                        i += 3;
                    } else {
                        set.push((lo, lo));
                        i += 1;
                    }
                }
                i += 1; // ']'
                Elem::Class { set, negated }
            }
            b'.' => {
                i += 1;
                Elem::Class {
                    set: vec![(b'\n', b'\n')],
                    negated: true,
                }
            }
            c => {
                i += 1;
                Elem::Lit(c)
            }
        };
        // Quantifier.
        let (min, max) = match b.get(i) {
            Some(b'+') => {
                i += 1;
                (1, None)
            }
            Some(b'*') => {
                i += 1;
                (0, None)
            }
            Some(b'?') => {
                i += 1;
                (0, Some(1))
            }
            Some(b'{') => {
                let close = i + b[i..].iter().position(|&c| c == b'}').expect("closing }");
                let body = std::str::from_utf8(&b[i + 1..close]).unwrap();
                i = close + 1;
                match body.split_once(',') {
                    None => {
                        let n: u32 = body.parse().unwrap();
                        (n, Some(n))
                    }
                    Some((lo, "")) => (lo.parse().unwrap(), None),
                    Some((lo, hi)) => (lo.parse().unwrap(), Some(hi.parse().unwrap())),
                }
            }
            _ => (1, Some(1)),
        };
        out.push(Piece { elem, min, max });
    }
    out
}

fn elem_accepts(elem: &Elem, c: u8) -> bool {
    match elem {
        Elem::Lit(l) => *l == c,
        Elem::Class { set, negated } => {
            let inside = set.iter().any(|&(lo, hi)| (lo..=hi).contains(&c));
            inside != *negated
        }
        Elem::Open | Elem::Close => unreachable!("markers consume no input"),
    }
}

/// Try every split: does `pieces[pi..]` match exactly `s[si..]`?
fn ref_match(pieces: &[Piece], pi: usize, s: &[u8], si: usize) -> bool {
    let Some(piece) = pieces.get(pi) else {
        return si == s.len();
    };
    if matches!(piece.elem, Elem::Open | Elem::Close) {
        return ref_match(pieces, pi + 1, s, si);
    }
    // Consume between min and max repetitions, trying all counts.
    let mut here = si;
    let mut n = 0u32;
    // First consume the mandatory minimum.
    while n < piece.min {
        if here >= s.len() || !elem_accepts(&piece.elem, s[here]) {
            return false;
        }
        here += 1;
        n += 1;
    }
    loop {
        if ref_match(pieces, pi + 1, s, here) {
            return true;
        }
        if piece.max.is_some_and(|m| n >= m) {
            return false;
        }
        if here >= s.len() || !elem_accepts(&piece.elem, s[here]) {
            return false;
        }
        here += 1;
        n += 1;
    }
}

fn ref_is_match(pattern: &str, subject: &str) -> bool {
    ref_match(&ref_parse(pattern), 0, subject.as_bytes(), 0)
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

/// Compare match outcome on one (pattern, subject) pair, and sanity-check
/// capture spans when a match exists.
fn agree(pattern: &str, subject: &str) {
    let ours = Hoiho::parse(pattern).expect("our parse");
    let want = ref_is_match(pattern, subject);
    assert_eq!(
        ours.is_match(subject),
        want,
        "match disagreement for {pattern} on {subject}"
    );
    let caps = ours.captures(subject).expect("budget");
    assert_eq!(caps.is_some(), want, "captures/is_match disagree");
    if let Some(caps) = caps {
        assert_eq!(
            caps.span(0),
            Some((0, subject.len())),
            "anchored group 0 must span {subject:?}"
        );
        for i in 1..caps.len() {
            if let Some((a, b)) = caps.span(i) {
                assert!(a <= b && b <= subject.len());
                assert_eq!(caps.get(i), Some(&subject[a..b]));
            }
        }
    }
}

#[test]
fn paper_regexes_agree_on_paper_hostnames() {
    let patterns = [
        r"^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$",
        r"^.+\.([a-z]+)\d*\.level3\.net$",
        r"^.+\.([a-z]{6})\d+\.([a-z]{2})\.[a-z]{2}\.gin\.ntt\.net$",
        r"^.+\.([a-z]{4})\d+-([a-z]{2})\.([a-z]{2})\.windstream\.net$",
        r"^[^\.]+\.(\d+[a-z]+)\.([a-z]{2})\.[a-z]+\.comcast\.net$",
        r"^.+\.([a-z]{3})\d+\.alter\.net$",
        r"^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$",
        r"^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]+-[a-z]+\d+-[^\.]+\.alter\.net$",
    ];
    let subjects = [
        "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com",
        "ae-2-52.edge4.brussels1.level3.net",
        "xe-0-0-28-0.a02.snjsca04.us.ce.gin.ntt.net",
        "0.xe-10-0-0.gw1.sfo16.alter.net",
        "0.ae1.br2.ams3.alter.net",
        "0.af0.rcmdva83-mse01-a-ie1.alter.net",
        "gsdr-disy-2.frankfurt.de.alter.net",
        "be-232-rar01.chicago.il.chicago.comcast.net",
        "completely-unrelated.example.org",
        "",
        "a.b.c.d.e.f.g",
    ];
    for p in patterns {
        for s in subjects {
            agree(p, s);
        }
    }
}

// ---------------------------------------------------------------------------
// Generated dialect, from the same component vocabulary the learner uses.
// ---------------------------------------------------------------------------

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
}

fn component(rng: &mut Mix) -> String {
    const FIXED: &[&str] = &[
        r"[a-z]+",
        r"[a-z]{2}",
        r"[a-z]{3}",
        r"[a-z]{6}",
        r"\d+",
        r"\d*",
        r"[^\.]+",
        r"[a-z\d]+",
        r"([a-z]{3})",
        r"([a-z]+)",
        r"([a-z]{2})",
    ];
    let k = rng.below(FIXED.len() as u64 + 1) as usize;
    if k < FIXED.len() {
        FIXED[k].to_string()
    } else {
        // Literal label text, 1–4 chars.
        let len = 1 + rng.below(4) as usize;
        (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect()
    }
}

fn gen_pattern(rng: &mut Mix) -> String {
    let n = 1 + rng.below(5) as usize;
    let comps: Vec<String> = (0..n).map(|_| component(rng)).collect();
    let mut p = String::from("^");
    if rng.below(2) == 1 {
        p.push_str(r".+\.");
    }
    p.push_str(&comps.join(r"\."));
    p.push_str(r"\.example\.net$");
    p
}

fn gen_hostname(rng: &mut Mix) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let n = 1 + rng.below(5) as usize;
    let mut labels = Vec::new();
    for _ in 0..n {
        let len = 1 + rng.below(8) as usize;
        labels.push(
            (0..len)
                .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char)
                .collect::<String>(),
        );
    }
    let mut h = labels.join(".");
    h.push_str(".example.net");
    h
}

#[test]
fn differential_on_generated_dialect() {
    let mut rng = Mix(0xD1FF);
    for _ in 0..512 {
        let p = gen_pattern(&mut rng);
        let h = gen_hostname(&mut rng);
        agree(&p, &h);
    }
}

#[test]
fn roundtrip_parse_render() {
    let mut rng = Mix(0x1207);
    for _ in 0..512 {
        let p = gen_pattern(&mut rng);
        let re = Hoiho::parse(&p).unwrap();
        let rendered = re.as_pattern();
        let re2 = Hoiho::parse(rendered).unwrap();
        assert_eq!(re, re2);
    }
}

#[test]
fn reference_matcher_self_check() {
    // Spot-check the reference engine itself so disagreements clearly
    // implicate one side.
    assert!(ref_is_match(r"^a\d+b$", "a123b"));
    assert!(!ref_is_match(r"^a\d+b$", "ab"));
    assert!(ref_is_match(r"^[^\.]+\.[a-z]{2}$", "host.uk"));
    assert!(!ref_is_match(r"^[^\.]+\.[a-z]{2}$", "ho.st.uk"));
    assert!(ref_is_match(r"^.+\.([a-z]{3})\d+\.com$", "x.lhr15.com"));
    assert!(ref_is_match(r"^a{2,4}$", "aaa"));
    assert!(!ref_is_match(r"^a{2,4}$", "aaaaa"));
}
