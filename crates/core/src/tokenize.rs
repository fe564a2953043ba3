//! Hostname tokenization.
//!
//! Stage 2 considers "alphabetic strings prior to the hostname's suffix"
//! and stage 3 builds regexes around the punctuation structure, so both
//! need the hostname prefix broken into *labels* (dot-separated) and
//! *runs* (maximal alphabetic, numeric, or punctuation spans).

/// The character class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Lowercase-alphabetic run.
    Alpha,
    /// Digit run.
    Digit,
    /// A single punctuation character (`.`, `-`, `_`).
    Punct,
}

/// One run of a hostname prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The text of the run.
    pub text: &'a str,
    /// Byte offset of the run start within the prefix.
    pub start: usize,
    /// Byte offset one past the run end.
    pub end: usize,
    /// Run class.
    pub kind: TokenKind,
    /// Index of the dot-separated label this run belongs to.
    pub label: usize,
}

/// Split a hostname prefix (text before the registerable suffix, already
/// lowercased) into runs.
pub fn tokenize(prefix: &str) -> Vec<Token<'_>> {
    let bytes = prefix.as_bytes();
    let mut out = Vec::new();
    let mut label = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        let kind = classify(b);
        match kind {
            TokenKind::Punct => {
                out.push(Token {
                    text: &prefix[i..i + 1],
                    start: i,
                    end: i + 1,
                    kind,
                    label,
                });
                if b == b'.' {
                    label += 1;
                }
                i += 1;
            }
            _ => {
                let start = i;
                while i < bytes.len() && classify(bytes[i]) == kind {
                    i += 1;
                }
                out.push(Token {
                    text: &prefix[start..i],
                    start,
                    end: i,
                    kind,
                    label,
                });
            }
        }
    }
    out
}

fn classify(b: u8) -> TokenKind {
    if b.is_ascii_alphabetic() {
        TokenKind::Alpha
    } else if b.is_ascii_digit() {
        TokenKind::Digit
    } else {
        TokenKind::Punct
    }
}

/// The byte ranges of the dot-separated labels of a prefix.
pub fn labels(prefix: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, b) in prefix.bytes().enumerate() {
        if b == b'.' {
            out.push((start, i));
            start = i + 1;
        }
    }
    out.push((start, prefix.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zayo_example_tokens() {
        // figure 6a prefix
        let toks = tokenize("zayo-ntt.mpr1.lhr15.uk.zip");
        let alphas: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Alpha)
            .map(|t| t.text)
            .collect();
        assert_eq!(alphas, vec!["zayo", "ntt", "mpr", "lhr", "uk", "zip"]);
    }

    #[test]
    fn runs_have_correct_spans_and_labels() {
        let p = "ae2.cr1.lhr15";
        let toks = tokenize(p);
        for t in &toks {
            assert_eq!(&p[t.start..t.end], t.text);
        }
        let lhr = toks.iter().find(|t| t.text == "lhr").unwrap();
        assert_eq!(lhr.label, 2);
        let ae = toks.iter().find(|t| t.text == "ae").unwrap();
        assert_eq!(ae.label, 0);
    }

    #[test]
    fn digit_and_punct_runs() {
        let toks = tokenize("xe-0-0-28-0.a02");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(toks[0].text, "xe");
        assert_eq!(toks[1].text, "-");
        assert!(kinds.contains(&TokenKind::Digit));
        let digit_runs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Digit)
            .map(|t| t.text)
            .collect();
        assert_eq!(digit_runs, vec!["0", "0", "28", "0", "02"]);
    }

    #[test]
    fn labels_split_on_dots() {
        assert_eq!(labels("a.bc.def"), vec![(0, 1), (2, 4), (5, 8)]);
        assert_eq!(labels("abc"), vec![(0, 3)]);
        assert_eq!(labels(""), vec![(0, 0)]);
    }

    #[test]
    fn empty_prefix_has_no_tokens() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn mixed_label_splits_alpha_digit() {
        let toks = tokenize("1118thave");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["1118", "thave"]);
    }
}
