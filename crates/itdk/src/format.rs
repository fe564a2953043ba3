//! The corpus text format, `corpus-v1`: one file that round-trips
//! everything, RTT samples and generator ground truth included.
//!
//! In `corpus-v1`, every `vp` record comes before the first `rtt`/`trtt`
//! record that names it, as [`write_corpus`] emits them: a sample whose
//! VP id has no earlier `vp` record is a parse error. The `vp:us` tokens
//! of an `rtt`/`trtt` record are separated by ASCII whitespace only (the
//! other records accept any Unicode whitespace); each number is unsigned
//! decimal with an optional leading `+`, as `str::parse` accepts, and the
//! microseconds must fit in a `u32` (about 71 minutes).
//!
//! One parser, any sink: [`parse_corpus_into`] reads the format from any
//! [`BufRead`] one line at a time, so a file is parsed without holding
//! its text, and hands each record to a [`CorpusSink`]. The parser alone
//! decides every error, so a sink that drops records (the learner's
//! training view keeps only hostnamed routers' names and ping samples)
//! reports the same errors as one that keeps them all. [`Corpus`] is the
//! sink that keeps everything: [`parse_corpus_from`] builds one, and
//! [`parse_corpus`] parses a string through it. [`replay`] feeds a parsed
//! corpus to another sink. [`CorpusWriter`] is the sink that writes the
//! text to any [`Write`], and [`write_corpus`] renders a string through
//! it.

use crate::{Corpus, HostnameTruth, Interface, Router};
use hoiho_geotypes::{Coordinates, LocationId, Rtt};
use hoiho_rtt::{RouterRtts, VpId};
use std::io::{BufRead, Write};

/// Error from the `corpus-v1` parser.
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

/// Serialize a corpus (with ground truth) to `corpus-v1`: [`replay`]
/// into a [`CorpusWriter`].
pub fn write_corpus(corpus: &Corpus) -> String {
    let mut writer = CorpusWriter::new(Vec::new());
    replay(corpus, &mut writer);
    let out = writer.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("corpus-v1 is UTF-8")
}

/// The sink that writes `corpus-v1`: it renders each record as it
/// arrives, so a corpus is written without being held. Wrap a file in a
/// [`std::io::BufWriter`]. The first write error is kept and every later
/// record is dropped; [`CorpusWriter::finish`] returns it, and
/// [`CorpusSink::stopped`] tells a source to stop. The counts cover
/// every record, written or dropped.
#[derive(Debug)]
pub struct CorpusWriter<W: Write> {
    out: W,
    error: Option<std::io::Error>,
    vps: usize,
    /// Routers so far; the next `node` record's id.
    routers: usize,
    routers_with_hostname: usize,
    /// Whether the current router has a hostname.
    named: bool,
}

impl<W: Write> CorpusWriter<W> {
    /// A writer that renders records into `out`.
    pub fn new(out: W) -> CorpusWriter<W> {
        CorpusWriter {
            out,
            error: None,
            vps: 0,
            routers: 0,
            routers_with_hostname: 0,
            named: false,
        }
    }

    /// `vp` records so far.
    pub fn vps(&self) -> usize {
        self.vps
    }

    /// Routers so far.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// Routers so far with at least one hostname.
    pub fn routers_with_hostname(&self) -> usize {
        self.routers_with_hostname
    }

    /// The first write error, or else `out` once flushed.
    pub fn finish(mut self) -> std::io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => self.out.flush().map(|()| self.out),
        }
    }

    /// Run `write` unless an earlier write failed, keeping its error.
    fn put(&mut self, write: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.error.is_none() {
            self.error = write(&mut self.out).err();
        }
    }
}

impl<W: Write> CorpusSink for CorpusWriter<W> {
    fn header(&mut self, label: &str) {
        self.put(|out| writeln!(out, "corpus-v1 {label}"));
    }

    fn vp(&mut self, name: &str, coords: Coordinates) {
        self.vps += 1;
        self.put(|out| writeln!(out, "vp {name} {:.6} {:.6}", coords.lat(), coords.lon()));
    }

    fn node(&mut self, location: LocationId) {
        let id = self.routers;
        self.routers += 1;
        self.named = false;
        self.put(|out| writeln!(out, "node N{id} loc={}", location.0));
    }

    fn iface(&mut self, addr: &str, hostname: Option<&str>) {
        self.named |= hostname.is_some();
        self.put(|out| match hostname {
            Some(h) => writeln!(out, "iface {addr} {h}"),
            None => writeln!(out, "iface {addr}"),
        });
    }

    fn truth(&mut self, truth: HostnameTruth) {
        let hint = truth.hint.as_deref().unwrap_or("-");
        let loc = truth.hint_location.map_or("-".into(), |l| l.0.to_string());
        let stale = if truth.stale { "stale" } else { "fresh" };
        let side = if truth.provider_side {
            "provider"
        } else {
            "own"
        };
        self.put(|out| writeln!(out, "truth {hint} {loc} {stale} {side}"));
    }

    fn end_router(&mut self, rtts: &mut RouterRtts, traceroute_rtts: &mut RouterRtts) {
        self.routers_with_hostname += usize::from(self.named);
        self.put(|out| {
            write_rtts(&mut *out, "rtt", rtts)?;
            write_rtts(out, "trtt", traceroute_rtts)
        });
    }

    /// Once a write has failed: every later record would be dropped.
    fn stopped(&self) -> bool {
        self.error.is_some()
    }
}

fn write_rtts(mut out: impl Write, tag: &str, rtts: &RouterRtts) -> std::io::Result<()> {
    if rtts.is_empty() {
        return Ok(());
    }
    write!(out, "{tag}")?;
    for (vp, rtt) in rtts.samples() {
        write!(out, " {}:{}", vp.0, rtt.as_us())?;
    }
    writeln!(out)
}

/// Where [`parse_corpus_into`] hands each record, in file order, once
/// the record has parsed. The parser checks the order the format
/// requires before it calls a sink: `node` comes before any `iface` or
/// sample of its router, and `iface` before its `truth`. It calls
/// [`CorpusSink::end_router`] once per router, after the router's last
/// record, so a sink sees each router's samples complete.
///
/// The parser, the generator ([`crate::generate::generate_into`]) and
/// [`replay`] are the record sources. [`Corpus`] is the sink that keeps
/// every record, and [`CorpusWriter`] the one that writes them as text.
pub trait CorpusSink {
    /// The header's label.
    fn header(&mut self, label: &str);
    /// A `vp` record. The parser numbers VPs in record order from 0.
    fn vp(&mut self, name: &str, coords: Coordinates);
    /// A `node` record: a new router at `location`.
    fn node(&mut self, location: LocationId);
    /// An `iface` record of the current router.
    fn iface(&mut self, addr: &str, hostname: Option<&str>);
    /// A `truth` record for the current router's last interface.
    fn truth(&mut self, truth: HostnameTruth);
    /// The current router's ping and traceroute samples, every `rtt` and
    /// `trtt` record of it folded through [`RouterRtts::record`]. The
    /// sink may take them; whatever it leaves is cleared.
    fn end_router(&mut self, rtts: &mut RouterRtts, traceroute_rtts: &mut RouterRtts);
    /// Whether the sink wants no more records, as a writer whose output
    /// failed does. A source may then stop between routers; the
    /// generator does. Never, unless a sink says otherwise.
    fn stopped(&self) -> bool {
        false
    }
}

/// The sink that keeps every record: [`parse_corpus_from`] builds a
/// corpus through it.
impl CorpusSink for Corpus {
    fn header(&mut self, label: &str) {
        self.label = label.to_string();
    }

    fn vp(&mut self, name: &str, coords: Coordinates) {
        self.vps.add(name, coords);
    }

    fn node(&mut self, location: LocationId) {
        self.routers.push(Router {
            location,
            interfaces: Vec::new(),
            rtts: RouterRtts::new(),
            traceroute_rtts: RouterRtts::new(),
        });
    }

    fn iface(&mut self, addr: &str, hostname: Option<&str>) {
        let r = self.routers.last_mut().expect("iface after node");
        r.interfaces.push(Interface {
            addr: addr.to_string(),
            hostname: hostname.map(String::from),
            truth: None,
        });
    }

    fn truth(&mut self, truth: HostnameTruth) {
        let r = self.routers.last_mut().expect("truth after node");
        r.interfaces.last_mut().expect("truth after iface").truth = Some(truth);
    }

    fn end_router(&mut self, rtts: &mut RouterRtts, traceroute_rtts: &mut RouterRtts) {
        let r = self.routers.last_mut().expect("router after node");
        r.rtts = std::mem::take(rtts);
        r.traceroute_rtts = std::mem::take(traceroute_rtts);
    }
}

/// Feed `corpus` to `sink` record by record, as [`parse_corpus_into`]
/// would feed the corpus's `corpus-v1` text.
pub fn replay(corpus: &Corpus, sink: &mut impl CorpusSink) {
    sink.header(&corpus.label);
    for (_, vp) in corpus.vps.iter() {
        sink.vp(&vp.name, vp.coords);
    }
    for r in &corpus.routers {
        sink.node(r.location);
        for i in &r.interfaces {
            sink.iface(&i.addr, i.hostname.as_deref());
            if let Some(t) = &i.truth {
                sink.truth(t.clone());
            }
        }
        let (mut rtts, mut traceroute_rtts) = (r.rtts.clone(), r.traceroute_rtts.clone());
        sink.end_router(&mut rtts, &mut traceroute_rtts);
    }
}

/// Parse the native `corpus-v1` format from a string.
pub fn parse_corpus(text: &str) -> Result<Corpus, CorpusParseError> {
    parse_corpus_from(text.as_bytes())
}

/// Parse the native `corpus-v1` format from a reader into a [`Corpus`],
/// through [`parse_corpus_into`].
pub fn parse_corpus_from(input: impl BufRead) -> Result<Corpus, CorpusParseError> {
    let mut corpus = Corpus::default();
    parse_corpus_into(input, &mut corpus)?;
    Ok(corpus)
}

/// Parse the native `corpus-v1` format from a reader, one line at a time,
/// splitting lines at `\n` as [`str::lines`] does, and hand each record
/// to `sink`. A read error or a line that is not UTF-8 is reported on
/// the line where it happens.
///
/// Adds the `itdk.parse.*` counters once the whole input has parsed:
/// records of each kind, interfaces with a hostname, and RTT samples
/// (ping and traceroute) as [`CorpusSink::end_router`] sees them.
pub fn parse_corpus_into(
    mut input: impl BufRead,
    sink: &mut impl CorpusSink,
) -> Result<(), CorpusParseError> {
    let _span = hoiho_obs::span("itdk.parse_corpus");
    let err = |line: usize, msg: &str| CorpusParseError {
        line,
        msg: msg.to_string(),
    };
    // One buffer for every line. A line keeps its `\n` or `\r\n`; the
    // trims below drop it with any other trailing whitespace.
    let mut buf = String::new();
    let mut next_line = |buf: &mut String, ln: usize| {
        buf.clear();
        match input.read_line(buf) {
            Ok(n) => Ok(n > 0),
            Err(e) => Err(err(ln, &e.to_string())),
        }
    };
    if !next_line(&mut buf, 1)? {
        return Err(err(1, "empty input"));
    }
    let label = buf
        .strip_prefix("corpus-v1")
        .ok_or_else(|| err(1, "missing corpus-v1 header"))?
        .trim();
    sink.header(label);

    // The current router's samples, handed to the sink when it ends.
    let (mut rtts, mut traceroute_rtts) = (RouterRtts::new(), RouterRtts::new());
    // Records so far, and interfaces of the current router.
    let (mut vps, mut routers, mut ifaces) = (0usize, 0u64, 0usize);
    let (mut interfaces, mut hostnames, mut samples) = (0u64, 0u64, 0u64);
    let mut end_router = |sink: &mut _, rtts: &mut RouterRtts, traceroute_rtts: &mut RouterRtts| {
        samples += (rtts.len() + traceroute_rtts.len()) as u64;
        CorpusSink::end_router(sink, rtts, traceroute_rtts);
        rtts.clear();
        traceroute_rtts.clear();
    };
    for ln in 2.. {
        if !next_line(&mut buf, ln)? {
            break;
        }
        let line = buf.trim_end();
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
                sink.vp(name, Coordinates::new(lat, lon));
                vps += 1;
            }
            "node" => {
                let _id = parts.next().ok_or_else(|| err(ln, "node: missing id"))?;
                let loc = parts
                    .next()
                    .and_then(|s| s.strip_prefix("loc="))
                    .and_then(|s| s.parse::<u32>().ok())
                    .ok_or_else(|| err(ln, "node: bad loc="))?;
                if routers > 0 {
                    end_router(sink, &mut rtts, &mut traceroute_rtts);
                }
                sink.node(LocationId(loc));
                routers += 1;
                ifaces = 0;
            }
            "iface" => {
                if routers == 0 {
                    return Err(err(ln, "iface before node"));
                }
                let addr = parts.next().ok_or_else(|| err(ln, "iface: missing addr"))?;
                let hostname = parts.next();
                sink.iface(addr, hostname);
                ifaces += 1;
                interfaces += 1;
                hostnames += u64::from(hostname.is_some());
            }
            "truth" => {
                if routers == 0 {
                    return Err(err(ln, "truth before node"));
                }
                if ifaces == 0 {
                    return Err(err(ln, "truth before iface"));
                }
                let hint = parts.next().ok_or_else(|| err(ln, "truth: missing hint"))?;
                let loc = parts.next().ok_or_else(|| err(ln, "truth: missing loc"))?;
                let stale = parts
                    .next()
                    .ok_or_else(|| err(ln, "truth: missing stale"))?;
                let prov = parts
                    .next()
                    .ok_or_else(|| err(ln, "truth: missing provider"))?;
                sink.truth(HostnameTruth {
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
                if routers == 0 {
                    return Err(err(ln, "rtt before node"));
                }
                let target = if tag == "rtt" {
                    &mut rtts
                } else {
                    &mut traceroute_rtts
                };
                parse_rtt_samples(rest.as_bytes(), vps, target)
                    .map_err(|msg| CorpusParseError { line: ln, msg })?;
            }
            other => return Err(err(ln, &format!("unknown record '{other}'"))),
        }
    }
    if routers > 0 {
        end_router(sink, &mut rtts, &mut traceroute_rtts);
    }
    hoiho_obs::add("itdk.parse.vps", vps as u64);
    hoiho_obs::add("itdk.parse.routers", routers);
    hoiho_obs::add("itdk.parse.interfaces", interfaces);
    hoiho_obs::add("itdk.parse.hostnames", hostnames);
    hoiho_obs::add("itdk.parse.rtt_samples", samples);
    Ok(())
}

/// Parse the `vp:us` tokens of one `rtt`/`trtt` record into `target` in
/// one pass over the bytes. `known_vps` is the number of `vp` records
/// read so far. The first bad token decides the error, and within a
/// token the checks run in the order `str`-based parsing would make
/// them: missing colon, VP id, microseconds, then unknown VP.
///
/// Each number accumulates in a fixed-width integer that saturates one
/// past the range it must fit (a `u32` for the `u16` VP id, a `u64` for
/// the `u32` µs), so digits of any count, leading zeros included, cost
/// one multiply-add each and overflow is one compare at the end. The
/// common token, `digits:digits` and a separator, takes no other branch;
/// a `+` sign or an error is the rare case.
fn parse_rtt_samples(rest: &[u8], known_vps: usize, target: &mut RouterRtts) -> Result<(), String> {
    const VP_OVER: u32 = 1 << 16;
    const US_OVER: u64 = 1 << 32;
    let n = rest.len();
    let mut i = 0;
    loop {
        while i < n && is_ascii_space(rest[i]) {
            i += 1;
        }
        if i == n {
            return Ok(());
        }
        if rest[i] == b'+' {
            i += 1;
        }
        let from = i;
        let mut vp = 0u32;
        while i < n && rest[i].is_ascii_digit() {
            vp = (vp * 10 + u32::from(rest[i] - b'0')).min(VP_OVER);
            i += 1;
        }
        if i == n || rest[i] != b':' {
            // A stray byte, or the token's end, before any colon: the
            // error depends on whether the token has a colon at all.
            let token = rest[i..].split(|&b| is_ascii_space(b)).next();
            return Err(if token.is_some_and(|t| t.contains(&b':')) {
                "rtt: bad vp".into()
            } else {
                "rtt: expected vp:us".into()
            });
        }
        let vp = match u16::try_from(vp) {
            Ok(vp) if i > from => vp,
            _ => return Err("rtt: bad vp".into()),
        };
        i += 1;
        if i < n && rest[i] == b'+' {
            i += 1;
        }
        let from = i;
        let mut us = 0u64;
        while i < n && rest[i].is_ascii_digit() {
            us = (us * 10 + u64::from(rest[i] - b'0')).min(US_OVER);
            i += 1;
        }
        let us = match u32::try_from(us) {
            Ok(us) if i > from && (i == n || is_ascii_space(rest[i])) => us,
            _ => return Err("rtt: bad us".into()),
        };
        if usize::from(vp) >= known_vps {
            return Err(format!("rtt: vp {vp} has no earlier vp record"));
        }
        target.record(VpId(vp), Rtt::from_us(us));
    }
}

/// The whitespace `str::split_whitespace` splits on, restricted to ASCII:
/// space, `\t`, `\n`, vertical tab, form feed and `\r`.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

#[cfg(test)]
mod cases;

#[cfg(test)]
mod tests {
    use super::cases::{RECORD_CASES, RTT_CASES, RTT_HEAD};
    use super::*;
    use crate::spec::CorpusSpec;
    use hoiho_geodb::GeoDb;
    use std::fmt::Write as _;
    use std::io::{BufReader, Read};

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

    /// The writer keeps the first write error, drops every later record,
    /// and still counts them; `finish` returns the error.
    #[test]
    fn writer_keeps_the_first_write_error() {
        /// Takes `room` bytes, then fails every write.
        struct Full {
            room: usize,
            failed: usize,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.room == 0 {
                    self.failed += 1;
                    return Err(std::io::Error::other("device full"));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let c = sample();
        let len = write_corpus(&c).len();
        for room in [0, 10, len / 2, len - 1, len] {
            let mut full = Full { room, failed: 0 };
            let mut writer = CorpusWriter::new(&mut full);
            replay(&c, &mut writer);
            assert_eq!((writer.routers(), writer.vps()), (c.len(), c.vps.len()));
            let got = writer.finish().map(drop).map_err(|e| e.to_string());
            let want = if room < len {
                Err("device full".to_string())
            } else {
                Ok(())
            };
            assert_eq!(got, want, "room {room}");
            assert_eq!(full.failed, usize::from(room < len), "room {room}");
        }
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        for (text, want) in RECORD_CASES {
            let got = parse_corpus(text).map(drop).map_err(|e| (e.line, e.msg));
            let want = want.map_err(|(line, msg)| (line, msg.to_string()));
            assert_eq!(got, want, "{text:?}");
        }
        for (body, want) in RTT_CASES {
            let got = parse_corpus(&format!("{RTT_HEAD}{body}"))
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

    /// `parse_corpus_from` answers as `parse_corpus` does on the same
    /// text, whatever the size of its read buffer.
    #[test]
    fn streaming_parse_matches_string_parse() {
        let lf = write_corpus(&sample());
        let crlf = lf.replace('\n', "\r\n");
        let unterminated = lf.trim_end().to_string();
        // Line endings do not change the corpus.
        for text in [&crlf, &unterminated] {
            assert_eq!(parse_corpus(text).map(|c| write_corpus(&c)), Ok(lf.clone()));
        }
        let mut texts = vec![
            lf.clone(),
            crlf,
            unterminated,
            "corpus-v1 x\r\n\r\n# note\r\n\n  \t\nvp a 1.0 2.0\n#\nnode N0 loc=1\r\nrtt 0:5".into(),
            "corpus-v1 x\r".into(),
        ];
        texts.extend(RECORD_CASES.iter().map(|(text, _)| text.to_string()));
        texts.extend(
            RTT_CASES
                .iter()
                .map(|(body, _)| format!("{RTT_HEAD}{body}")),
        );
        for text in &texts {
            let want = parse_corpus(text).map(|c| write_corpus(&c));
            for capacity in [1, 3, 64 << 10] {
                let input = BufReader::with_capacity(capacity, text.as_bytes());
                let got = parse_corpus_from(input).map(|c| write_corpus(&c));
                assert_eq!(got, want, "capacity {capacity}: {text:?}");
            }
        }
    }

    /// A line that is not UTF-8, or a read that fails, is an error on
    /// the line where it happens.
    #[test]
    fn read_errors_name_their_line() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let text: &[u8] = b"corpus-v1 x\nvp a 1.0 2.0\nnode N0 loc=1\niface 10.0.0.1 a\xffb.net\n";
        for capacity in [1, 3, 64 << 10] {
            let e = parse_corpus_from(BufReader::with_capacity(capacity, text)).unwrap_err();
            assert_eq!(e.line, 4);
            assert!(e.msg.contains("UTF-8"), "{}", e.msg);
            let input = BufReader::with_capacity(capacity, text[..30].chain(Broken));
            let e = parse_corpus_from(input).unwrap_err();
            assert_eq!((e.line, e.msg.as_str()), (3, "disk on fire"));
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
            let us: u32 = us.parse().map_err(|_| "rtt: bad us")?;
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
}
