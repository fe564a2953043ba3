//! Text formats for corpora.
//!
//! Two families:
//!
//! - **Interop** writers for the real ITDK file shapes: a `.nodes` file
//!   (`node N1:  10.0.0.1 10.0.0.2`) and a `.dns-names` file
//!   (`<ip> <hostname>`), so downstream tools expecting CAIDA's layout
//!   can consume generated corpora.
//! - A **native** single-file format (`corpus-v1`) that round-trips
//!   everything including RTT samples and generator ground truth.
//!
//! In `corpus-v1`, every `vp` record comes before the first `rtt`/`trtt`
//! record that names it, as [`write_corpus`] emits them: a sample whose
//! VP id has no earlier `vp` record is a parse error. The `vp:us` tokens
//! of an `rtt`/`trtt` record are separated by ASCII whitespace only (the
//! other records accept any Unicode whitespace); each number is unsigned
//! decimal with an optional leading `+`, as `str::parse` accepts.

use crate::{Corpus, HostnameTruth, Interface, Router};
use hoiho_geotypes::{Coordinates, LocationId, Rtt};
use hoiho_rtt::{RouterRtts, VpId, VpSet};
use std::fmt::Write as _;

/// Error from the native-format parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub msg: String,
}

impl std::fmt::Display for CorpusParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corpus parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CorpusParseError {}

/// Render the ITDK-style `.nodes` file: one line per router listing its
/// interface addresses.
pub fn write_nodes(corpus: &Corpus) -> String {
    let mut out = String::new();
    for (id, r) in corpus.iter() {
        let addrs: Vec<&str> = r.interfaces.iter().map(|i| i.addr.as_str()).collect();
        let _ = writeln!(out, "node N{}:  {}", id.0 + 1, addrs.join(" "));
    }
    out
}

/// Render the ITDK-style `.dns-names` file: `<address> <hostname>` for
/// every interface that has one.
pub fn write_dns_names(corpus: &Corpus) -> String {
    let mut out = String::new();
    for (_, r) in corpus.iter() {
        for i in &r.interfaces {
            if let Some(h) = &i.hostname {
                let _ = writeln!(out, "{} {}", i.addr, h);
            }
        }
    }
    out
}

/// Parse a `.nodes` file into per-router address lists.
pub fn parse_nodes(text: &str) -> Result<Vec<Vec<String>>, CorpusParseError> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rest = line.strip_prefix("node ").ok_or(CorpusParseError {
            line: ln + 1,
            msg: "expected 'node N<id>: ...'".into(),
        })?;
        let (_, addrs) = rest.split_once(':').ok_or(CorpusParseError {
            line: ln + 1,
            msg: "missing ':'".into(),
        })?;
        out.push(addrs.split_whitespace().map(String::from).collect());
    }
    Ok(out)
}

/// Parse a `.dns-names` file into `(address, hostname)` pairs.
pub fn parse_dns_names(text: &str) -> Result<Vec<(String, String)>, CorpusParseError> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(addr), Some(host)) = (it.next(), it.next()) else {
            return Err(CorpusParseError {
                line: ln + 1,
                msg: "expected '<addr> <hostname>'".into(),
            });
        };
        out.push((addr.to_string(), host.to_string()));
    }
    Ok(out)
}

/// Serialize a corpus (with ground truth) to the native `corpus-v1`
/// format.
pub fn write_corpus(corpus: &Corpus) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "corpus-v1 {}", corpus.label);
    for (_, vp) in corpus.vps.iter() {
        let _ = writeln!(
            out,
            "vp {} {:.6} {:.6}",
            vp.name,
            vp.coords.lat(),
            vp.coords.lon()
        );
    }
    for (id, r) in corpus.iter() {
        let _ = writeln!(out, "node N{} loc={}", id.0, r.location.0);
        for i in &r.interfaces {
            match &i.hostname {
                Some(h) => {
                    let _ = writeln!(out, "iface {} {}", i.addr, h);
                }
                None => {
                    let _ = writeln!(out, "iface {}", i.addr);
                }
            }
            if let Some(t) = &i.truth {
                let hint = t.hint.as_deref().unwrap_or("-");
                let loc = t
                    .hint_location
                    .map(|l| l.0.to_string())
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "truth {} {} {} {}",
                    hint,
                    loc,
                    if t.stale { "stale" } else { "fresh" },
                    if t.provider_side { "provider" } else { "own" }
                );
            }
        }
        let _ = write_rtts(&mut out, "rtt", &r.rtts);
        let _ = write_rtts(&mut out, "trtt", &r.traceroute_rtts);
    }
    out
}

fn write_rtts(out: &mut String, tag: &str, rtts: &RouterRtts) -> std::fmt::Result {
    if rtts.is_empty() {
        return Ok(());
    }
    write!(out, "{tag}")?;
    for (vp, rtt) in rtts.samples() {
        write!(out, " {}:{}", vp.0, rtt.as_us())?;
    }
    writeln!(out)
}

/// Parse the native `corpus-v1` format.
pub fn parse_corpus(text: &str) -> Result<Corpus, CorpusParseError> {
    let _span = hoiho_obs::span("itdk.parse_corpus");
    let err = |line: usize, msg: &str| CorpusParseError {
        line,
        msg: msg.to_string(),
    };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    let label = header
        .strip_prefix("corpus-v1")
        .ok_or_else(|| err(1, "missing corpus-v1 header"))?
        .trim()
        .to_string();

    let mut corpus = Corpus {
        routers: Vec::new(),
        vps: VpSet::new(),
        label,
    };

    for (ln0, line) in lines {
        let ln = ln0 + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = line.trim_start();
        let (tag, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let mut parts = rest.split_whitespace();
        match tag {
            "vp" => {
                let name = parts.next().ok_or_else(|| err(ln, "vp: missing name"))?;
                let lat: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "vp: bad latitude"))?;
                let lon: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, "vp: bad longitude"))?;
                corpus.vps.add(name, Coordinates::new(lat, lon));
            }
            "node" => {
                let _id = parts.next().ok_or_else(|| err(ln, "node: missing id"))?;
                let loc = parts
                    .next()
                    .and_then(|s| s.strip_prefix("loc="))
                    .and_then(|s| s.parse::<u32>().ok())
                    .ok_or_else(|| err(ln, "node: bad loc="))?;
                corpus.routers.push(Router {
                    location: LocationId(loc),
                    interfaces: Vec::new(),
                    rtts: RouterRtts::new(),
                    traceroute_rtts: RouterRtts::new(),
                });
            }
            "iface" => {
                let r = corpus
                    .routers
                    .last_mut()
                    .ok_or_else(|| err(ln, "iface before node"))?;
                let addr = parts.next().ok_or_else(|| err(ln, "iface: missing addr"))?;
                let hostname = parts.next().map(String::from);
                r.interfaces.push(Interface {
                    addr: addr.to_string(),
                    hostname,
                    truth: None,
                });
            }
            "truth" => {
                let r = corpus
                    .routers
                    .last_mut()
                    .ok_or_else(|| err(ln, "truth before node"))?;
                let i = r
                    .interfaces
                    .last_mut()
                    .ok_or_else(|| err(ln, "truth before iface"))?;
                let hint = parts.next().ok_or_else(|| err(ln, "truth: missing hint"))?;
                let loc = parts.next().ok_or_else(|| err(ln, "truth: missing loc"))?;
                let stale = parts
                    .next()
                    .ok_or_else(|| err(ln, "truth: missing stale"))?;
                let prov = parts
                    .next()
                    .ok_or_else(|| err(ln, "truth: missing provider"))?;
                i.truth = Some(HostnameTruth {
                    hint: (hint != "-").then(|| hint.to_string()),
                    hint_location: if loc == "-" {
                        None
                    } else {
                        Some(LocationId(
                            loc.parse().map_err(|_| err(ln, "truth: bad location id"))?,
                        ))
                    },
                    stale: stale == "stale",
                    provider_side: prov == "provider",
                });
            }
            tag @ ("rtt" | "trtt") => {
                let r = corpus
                    .routers
                    .last_mut()
                    .ok_or_else(|| err(ln, "rtt before node"))?;
                let target = if tag == "rtt" {
                    &mut r.rtts
                } else {
                    &mut r.traceroute_rtts
                };
                parse_rtt_samples(rest.as_bytes(), corpus.vps.len(), target)
                    .map_err(|msg| CorpusParseError { line: ln, msg })?;
            }
            other => return Err(err(ln, &format!("unknown record '{other}'"))),
        }
    }
    hoiho_obs::add("itdk.parse.vps", corpus.vps.len() as u64);
    hoiho_obs::add("itdk.parse.routers", corpus.routers.len() as u64);
    hoiho_obs::add(
        "itdk.parse.interfaces",
        corpus
            .routers
            .iter()
            .map(|r| r.interfaces.len() as u64)
            .sum(),
    );
    hoiho_obs::add(
        "itdk.parse.hostnames",
        corpus
            .routers
            .iter()
            .flat_map(|r| &r.interfaces)
            .filter(|i| i.hostname.is_some())
            .count() as u64,
    );
    hoiho_obs::add(
        "itdk.parse.rtt_samples",
        corpus
            .routers
            .iter()
            .map(|r| (r.rtts.len() + r.traceroute_rtts.len()) as u64)
            .sum(),
    );
    Ok(corpus)
}

/// Parse the `vp:us` tokens of one `rtt`/`trtt` record into `target` in
/// one pass over the bytes. `known_vps` is the number of `vp` records
/// read so far. The first bad token decides the error, and within a
/// token the checks run in the order `str`-based parsing would make
/// them: missing colon, VP id, microseconds, then unknown VP.
fn parse_rtt_samples(rest: &[u8], known_vps: usize, target: &mut RouterRtts) -> Result<(), String> {
    target.reserve(rest.iter().map(|&b| usize::from(b == b':')).sum());
    let mut i = 0;
    loop {
        while rest.get(i).is_some_and(|&b| is_ascii_space(b)) {
            i += 1;
        }
        if i == rest.len() {
            return Ok(());
        }
        let (vp, at) = scan_decimal(rest, i);
        match rest.get(at) {
            Some(b':') => {}
            Some(&b) if !is_ascii_space(b) => {
                // A stray byte in the VP part: the error depends on
                // whether the token has a colon at all.
                let token = rest[at..].split(|&b| is_ascii_space(b)).next();
                return Err(if token.is_some_and(|t| t.contains(&b':')) {
                    "rtt: bad vp".into()
                } else {
                    "rtt: expected vp:us".into()
                });
            }
            _ => return Err("rtt: expected vp:us".into()),
        }
        let vp = vp
            .and_then(|v| u16::try_from(v).ok())
            .ok_or("rtt: bad vp")?;
        let (us, end) = scan_decimal(rest, at + 1);
        let us = us
            .filter(|_| rest.get(end).is_none_or(|&b| is_ascii_space(b)))
            .ok_or("rtt: bad us")?;
        if usize::from(vp) >= known_vps {
            return Err(format!("rtt: vp {vp} has no earlier vp record"));
        }
        target.record(VpId(vp), Rtt::from_us(us));
        i = end;
    }
}

/// The whitespace `str::split_whitespace` splits on, restricted to ASCII:
/// space, `\t`, `\n`, vertical tab, form feed and `\r`.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// Scan an unsigned decimal with an optional leading `+` from `bytes[i..]`,
/// as `u64::from_str` reads one. Returns its value, `None` when there are
/// no digits or it overflows, and the index of the first byte after it.
fn scan_decimal(bytes: &[u8], mut i: usize) -> (Option<u64>, usize) {
    if bytes.get(i) == Some(&b'+') {
        i += 1;
    }
    let start = i;
    let mut n = Some(0u64);
    while let Some(d) = bytes
        .get(i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(d)));
        i += 1;
    }
    (n.filter(|_| i > start), i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;
    use hoiho_geodb::GeoDb;

    fn sample() -> Corpus {
        let db = GeoDb::builtin();
        let spec = CorpusSpec {
            label: "fmt-test".into(),
            seed: 5,
            operators: 6,
            routers: 120,
            geo_operator_fraction: 0.7,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.8,
            rtt_response_rate: 0.9,
            vps: 8,
            custom_hint_operator_fraction: 0.5,
            custom_hint_rate: 0.25,
            stale_fraction: 0.02,
            provider_side_fraction: 0.02,
            ipv6: false,
        };
        crate::generate(&db, &spec).corpus
    }

    #[test]
    fn native_roundtrip_preserves_everything() {
        let c = sample();
        let text = write_corpus(&c);
        let back = parse_corpus(&text).expect("parse");
        assert_eq!(back.label, c.label);
        assert_eq!(back.len(), c.len());
        assert_eq!(back.vps.len(), c.vps.len());
        for (a, b) in c.routers.iter().zip(back.routers.iter()) {
            assert_eq!(a.location, b.location);
            assert_eq!(a.rtts, b.rtts);
            assert_eq!(a.traceroute_rtts, b.traceroute_rtts);
            assert_eq!(a.interfaces.len(), b.interfaces.len());
            for (ia, ib) in a.interfaces.iter().zip(b.interfaces.iter()) {
                assert_eq!(ia.addr, ib.addr);
                assert_eq!(ia.hostname, ib.hostname);
                assert_eq!(ia.truth, ib.truth);
            }
        }
    }

    #[test]
    fn itdk_nodes_roundtrip() {
        let c = sample();
        let text = write_nodes(&c);
        let nodes = parse_nodes(&text).expect("parse");
        assert_eq!(nodes.len(), c.len());
        assert_eq!(nodes[0].len(), c.routers[0].interfaces.len());
    }

    #[test]
    fn itdk_dns_names_roundtrip() {
        let c = sample();
        let text = write_dns_names(&c);
        let pairs = parse_dns_names(&text).expect("parse");
        let expected: usize = c.routers.iter().map(|r| r.hostnames().count()).sum();
        assert_eq!(pairs.len(), expected);
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        assert!(parse_corpus("").is_err());
        assert!(parse_corpus("bogus-header\n").is_err());
        let e = parse_corpus("corpus-v1 x\niface 1.2.3.4\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_corpus("corpus-v1 x\nnode N0 loc=zzz\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_corpus("corpus-v1 x\nwhatisthis\n").unwrap_err();
        assert!(e.msg.contains("unknown record"));

        // RTT records, after a four-line preamble with VPs 0 and 1:
        // `Ok(samples)` of the router, or `Err((line, msg))`. Every case
        // answers as `split_whitespace` + `str::parse` did, except the
        // last: non-ASCII whitespace does not separate `vp:us` tokens.
        let head = "corpus-v1 x\nvp a 1.0 2.0\nvp b 3.0 4.0\nnode N0 loc=1\n";
        let bad = |line: usize, msg: &'static str| Err((line, msg));
        type Want = Result<&'static [(u16, u64)], (usize, &'static str)>;
        let cases: &[(&str, Want)] = &[
            ("rtt +1:+20\n", Ok(&[(1, 20)])),
            ("rtt 0:007 1:0\n", Ok(&[(0, 7), (1, 0)])),
            ("rtt 1:18446744073709551615\n", Ok(&[(1, u64::MAX)])),
            ("rtt 1:5 0:9 1:3 1:4\n", Ok(&[(0, 9), (1, 3)])),
            ("rtt\t0:1\t\t1:2\t\n", Ok(&[(0, 1), (1, 2)])),
            ("rtt   0:1     1:2   \n", Ok(&[(0, 1), (1, 2)])),
            ("rtt 0:1\x0b1:2\x0c\n", Ok(&[(0, 1), (1, 2)])),
            ("rtt 0:1 1:2\r\ntrtt 0:3\r\n", Ok(&[(0, 1), (1, 2)])),
            ("rtt\n", Ok(&[])),
            ("rtt 65536:5\n", bad(5, "rtt: bad vp")),
            ("rtt 1:18446744073709551616\n", bad(5, "rtt: bad us")),
            ("rtt 0:1 1\n", bad(5, "rtt: expected vp:us")),
            ("rtt 1:\n", bad(5, "rtt: bad us")),
            ("rtt :5\n", bad(5, "rtt: bad vp")),
            ("rtt +:5\n", bad(5, "rtt: bad vp")),
            ("rtt ++1:5\n", bad(5, "rtt: bad vp")),
            ("rtt -1:5\n", bad(5, "rtt: bad vp")),
            ("rtt 1:-5\n", bad(5, "rtt: bad us")),
            ("rtt 1:2:3\n", bad(5, "rtt: bad us")),
            ("rtt 1x2\n", bad(5, "rtt: expected vp:us")),
            ("rtt 1x:2\n", bad(5, "rtt: bad vp")),
            ("rtt 0:1 1:2\u{e9}\n", bad(5, "rtt: bad us")),
            ("rtt 0\u{e9}:1\n", bad(5, "rtt: bad vp")),
            ("rtt 0:1 \u{e9}\n", bad(5, "rtt: expected vp:us")),
            ("rtt 0:1\r\ntrtt 1:x\r\n", bad(6, "rtt: bad us")),
            ("rtt 0:1\u{a0}1:2\n", bad(5, "rtt: bad us")),
        ];
        for (body, want) in cases {
            let got = parse_corpus(&format!("{head}{body}"))
                .map(|c| {
                    let samples = c.routers[0].rtts.samples();
                    samples
                        .iter()
                        .map(|(v, r)| (v.0, r.as_us()))
                        .collect::<Vec<_>>()
                })
                .map_err(|e| (e.line, e.msg));
            let want = want
                .map(<[_]>::to_vec)
                .map_err(|(line, msg)| (line, msg.to_string()));
            assert_eq!(got, want, "{body:?}");
        }
    }

    #[test]
    fn rtt_samples_need_an_earlier_vp_record() {
        let mut text = String::from("corpus-v1 x\nvp a 1.0 2.0\n");
        for i in 0..30 {
            let _ = writeln!(
                text,
                "node N{i} loc=1\niface 10.0.0.{i}\nrtt 0:1000 900:2000"
            );
        }
        let e = parse_corpus(&text).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(e.msg, "rtt: vp 900 has no earlier vp record");
        // A `vp` record after the sample does not help.
        let e = parse_corpus("corpus-v1 x\nnode N0 loc=1\ntrtt 0:5\nvp a 1.0 2.0\n").unwrap_err();
        assert_eq!(
            (e.line, e.msg.as_str()),
            (3, "rtt: vp 0 has no earlier vp record")
        );
    }

    /// The `str`-based tokenizer the byte scan replaced, kept as the
    /// reference for what each `rtt` token list should give.
    fn reference_rtt_samples(rest: &str, known_vps: usize) -> Result<RouterRtts, String> {
        let mut out = RouterRtts::new();
        for tok in rest.split_whitespace() {
            let (vp, us) = tok.split_once(':').ok_or("rtt: expected vp:us")?;
            let vp: u16 = vp.parse().map_err(|_| "rtt: bad vp")?;
            let us: u64 = us.parse().map_err(|_| "rtt: bad us")?;
            if usize::from(vp) >= known_vps {
                return Err(format!("rtt: vp {vp} has no earlier vp record"));
            }
            out.record(VpId(vp), Rtt::from_us(us));
        }
        Ok(out)
    }

    #[test]
    fn byte_scan_matches_reference_tokenizer() {
        // Every string of up to five symbols over an alphabet that
        // exercises signs, colons, ASCII whitespace, stray and non-ASCII
        // bytes, unknown VPs and min-merging.
        let alphabet = ["0", "1", "7", ":", "+", "-", " ", "\t", "x", "\u{e9}"];
        let mut rest = vec![String::new()];
        let mut checked = 0;
        for _ in 0..5 {
            let mut next = Vec::new();
            for prefix in &rest {
                for sym in alphabet {
                    let s = format!("{prefix}{sym}");
                    let mut got = RouterRtts::new();
                    let got = parse_rtt_samples(s.as_bytes(), 8, &mut got).map(|()| got);
                    assert_eq!(got, reference_rtt_samples(&s, 8), "{s:?}");
                    checked += 1;
                    next.push(s);
                }
            }
            rest = next;
        }
        assert_eq!(checked, 111_110);
    }

    #[test]
    fn nodes_parser_rejects_garbage() {
        assert!(parse_nodes("nonsense line\n").is_err());
        assert!(parse_nodes("node N1  10.0.0.1\n").is_err()); // missing ':'
        assert_eq!(parse_nodes("# comment\n\n").unwrap().len(), 0);
    }
}
