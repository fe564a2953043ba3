//! The parser's case tables: each input with the answer every
//! [`CorpusSink`](super::CorpusSink) must see for it. The format's unit
//! tests read them, and so does the test that runs them through the
//! training view's sink.

/// What a parse of `RTT_HEAD` plus an RTT case gives: `Ok(samples)` of
/// its one router, or `Err((line, msg))`.
pub type Want = Result<&'static [(u16, u32)], (usize, &'static str)>;

const fn bad(line: usize, msg: &'static str) -> Want {
    Err((line, msg))
}

/// The four-line preamble, with VPs 0 and 1, that every RTT case follows.
pub const RTT_HEAD: &str = "corpus-v1 x\nvp a 1.0 2.0\nvp b 3.0 4.0\nnode N0 loc=1\n";

/// RTT records after [`RTT_HEAD`]. Every case answers as
/// `split_whitespace` + `str::parse` (µs as `u32`) do, except the last:
/// non-ASCII whitespace does not separate `vp:us` tokens.
pub const RTT_CASES: &[(&str, Want)] = &[
    ("rtt +1:+20\n", Ok(&[(1, 20)])),
    ("rtt 0:007 1:0\n", Ok(&[(0, 7), (1, 0)])),
    ("rtt 1:4294967295\n", Ok(&[(1, u32::MAX)])),
    ("rtt 1:4294967296\n", bad(5, "rtt: bad us")),
    ("rtt 1:5 0:9 1:3 1:4\n", Ok(&[(0, 9), (1, 3)])),
    ("rtt\t0:1\t\t1:2\t\n", Ok(&[(0, 1), (1, 2)])),
    ("rtt   0:1     1:2   \n", Ok(&[(0, 1), (1, 2)])),
    ("rtt 0:1\x0b1:2\x0c\n", Ok(&[(0, 1), (1, 2)])),
    ("rtt 0:1 1:2\r\ntrtt 0:3\r\n", Ok(&[(0, 1), (1, 2)])),
    // The scanner's limits: the last `u16` VP id and the first past it,
    // µs of ten and eleven digits, leading zeros past either width,
    // signs, every ASCII separator and trailing whitespace.
    (
        "rtt 65535:5\n",
        bad(5, "rtt: vp 65535 has no earlier vp record"),
    ),
    ("rtt 99999:5\n", bad(5, "rtt: bad vp")),
    (
        "rtt 0000065535:1\n",
        bad(5, "rtt: vp 65535 has no earlier vp record"),
    ),
    ("rtt 0000065536:1\n", bad(5, "rtt: bad vp")),
    ("rtt 1:1000000000\n", Ok(&[(1, 1_000_000_000)])),
    ("rtt 1:10000000000\n", bad(5, "rtt: bad us")),
    ("rtt 1:04294967295\n", Ok(&[(1, u32::MAX)])),
    (
        "rtt 000000000001:000000000000000000000000009\n",
        Ok(&[(1, 9)]),
    ),
    ("rtt +0:5 1:+6\n", Ok(&[(0, 5), (1, 6)])),
    ("rtt 1:++5\n", bad(5, "rtt: bad us")),
    ("rtt 1+:5\n", bad(5, "rtt: bad vp")),
    ("rtt +\n", bad(5, "rtt: expected vp:us")),
    ("rtt 0:1\r1:2\t\x0b\x0c 0:3\n", Ok(&[(0, 1), (1, 2)])),
    ("rtt 0:1 \t \x0b\x0c\r\n", Ok(&[(0, 1)])),
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

/// What a parse of a whole input gives: `Ok(())`, or the first error's
/// `(line, msg)`.
pub type Parsed = Result<(), (usize, &'static str)>;

/// Whole inputs with what they parse to. Every message the record
/// parser gives appears at least once, several on records a sink may
/// drop (`truth`, `trtt`, an `iface` without a hostname) and after
/// routers without hostnames.
pub const RECORD_CASES: &[(&str, Parsed)] = &[
    ("", Err((1, "empty input"))),
    ("\n", Err((1, "missing corpus-v1 header"))),
    ("bogus-header\n", Err((1, "missing corpus-v1 header"))),
    ("corpus-v1 x", Ok(())),
    (
        "corpus-v1 x\nwhatisthis\n",
        Err((2, "unknown record 'whatisthis'")),
    ),
    ("corpus-v1 x\nvp\n", Err((2, "vp: missing name"))),
    ("corpus-v1 x\nvp a\n", Err((2, "vp: bad latitude"))),
    ("corpus-v1 x\nvp a 1.0\n", Err((2, "vp: bad longitude"))),
    ("corpus-v1 x\nvp a x 2.0\n", Err((2, "vp: bad latitude"))),
    ("corpus-v1 x\nvp a 1.0 y\n", Err((2, "vp: bad longitude"))),
    ("corpus-v1 x\nnode\n", Err((2, "node: missing id"))),
    ("corpus-v1 x\nnode N0\n", Err((2, "node: bad loc="))),
    ("corpus-v1 x\nnode N0 loc=zzz\n", Err((2, "node: bad loc="))),
    ("corpus-v1 x\nnode N0 at=1\n", Err((2, "node: bad loc="))),
    (
        "corpus-v1 x\niface 1.2.3.4\n",
        Err((2, "iface before node")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface\n",
        Err((3, "iface: missing addr")),
    ),
    (
        "corpus-v1 x\ntruth - - fresh own\n",
        Err((2, "truth before node")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\ntruth - - fresh own\n",
        Err((3, "truth before iface")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1 a.x.net\nnode N1 loc=2\ntruth - - fresh own\n",
        Err((5, "truth before iface")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1\ntruth\n",
        Err((4, "truth: missing hint")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1\ntruth ash\n",
        Err((4, "truth: missing loc")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1\ntruth ash 3\n",
        Err((4, "truth: missing stale")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1\ntruth ash 3 fresh\n",
        Err((4, "truth: missing provider")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1 a.x.net\ntruth ash x fresh own\n",
        Err((4, "truth: bad location id")),
    ),
    (
        "corpus-v1 x\nnode N0 loc=1\niface 10.0.0.1\ntruth ash 3 stale provider\n",
        Ok(()),
    ),
    (
        "corpus-v1 x\nvp a 1.0 2.0\nrtt 0:5\n",
        Err((3, "rtt before node")),
    ),
    (
        "corpus-v1 x\nvp a 1.0 2.0\ntrtt 0:5\n",
        Err((3, "rtt before node")),
    ),
    (
        "corpus-v1 x\nvp a 1.0 2.0\nnode N0 loc=1\niface 10.0.0.1\ntrtt 0:5 3:7\n",
        Err((5, "rtt: vp 3 has no earlier vp record")),
    ),
    (
        "corpus-v1 x\nvp a 1.0 2.0\nnode N0 loc=1\niface 10.0.0.1\nrtt 0:5\ntrtt 0:x\n",
        Err((6, "rtt: bad us")),
    ),
    (
        "corpus-v1 x\nvp a 1.0 2.0\nnode N0 loc=1\niface 10.0.0.1\nrtt 0:5 0:4\n\
         node N1 loc=2\niface 10.0.0.2 b.x.net\nrtt 0:x\n",
        Err((8, "rtt: bad us")),
    ),
    (
        "corpus-v1 x\r\n\r\n# note\r\nvp a 1.0 2.0\r\nnode N0 loc=1\r\n\
         iface 10.0.0.1\r\nrtt 0:5\r\nbogus\r\n",
        Err((8, "unknown record 'bogus'")),
    ),
];
