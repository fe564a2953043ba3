//! Per-connection robustness limits, and the one request reader that
//! enforces them for both wire protocols.
//!
//! The server's threat model is a faulty or hostile peer, not a fast
//! one: a client that connects and never speaks, trickles one byte per
//! poll interval (slowloris), sends a gigabyte-long "line", or declares
//! a `Content-Length` it never delivers. Plain `BufReader::read_line`
//! defends against none of these — every byte resets `SO_RCVTIMEO` and
//! the buffer grows without bound. A request is instead read in three
//! parts:
//!
//! - **[`Framer::frame`]** — reads only the bytes received so far: no
//!   socket, no clock. It says whether the front of the connection's
//!   buffer holds a whole line request, a whole HTTP request (request
//!   line, headers, and a `Content-Length` body), not enough bytes
//!   yet, or a [`Refusal`]. The size caps and the header checks live
//!   here.
//! - **[`Conn::read_request`]** — the one read loop, which feeds the
//!   buffer until `frame` answers:
//!   - *idle window* — before a request's first byte, the connection
//!     (or a keep-alive gap between requests) may be silent for at
//!     most [`ConnLimits::idle_timeout`] before it is reaped;
//!   - *completion deadline* — from a request's first byte to its last
//!     at most [`ConnLimits::read_timeout`] may pass, however steadily
//!     bytes trickle in. An HTTP request's line, headers and body share
//!     that one clock, so a peer cannot reset it per header line;
//!   - *byte-rate floor* — after a short grace period, a request that
//!     has arrived slower than [`ConnLimits::min_bytes_per_sec`],
//!     counted over all of its bytes so far, is cut off early.
//! - **[`Refusal::verdict`]** — the one table from each way a request
//!   can fail to the `serve.*` counter it bumps and the response
//!   (`400`/`408`/`413`, or a line-protocol error) the peer gets.
//!
//! A connection therefore always resolves by *serve*, *reject*, or
//! *timeout*.

use crate::proto::{self, HttpRequest};
use std::io::Read;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a slow transfer runs before the byte-rate floor applies.
const RATE_GRACE: Duration = Duration::from_millis(500);

/// Upper bound on one blocking wait, so rate-floor checks happen even
/// while bytes keep (slowly) arriving.
const READ_TICK: Duration = Duration::from_millis(100);

/// Per-connection robustness limits (deadlines, size caps, budget).
#[derive(Debug, Clone)]
pub struct ConnLimits {
    /// Completion deadline for one request once its first byte arrived.
    pub read_timeout: Duration,
    /// How long a connection may sit silent before being reaped —
    /// before its first request, or between keep-alive requests.
    pub idle_timeout: Duration,
    /// `SO_SNDTIMEO`: a peer that stops draining its receive window
    /// fails the write instead of pinning the worker.
    pub write_timeout: Duration,
    /// Cap on one protocol line (request line, header line, or
    /// line-protocol request).
    pub max_line_bytes: usize,
    /// Cap on an HTTP request's cumulative header block.
    pub max_header_bytes: usize,
    /// Cap on an HTTP request body (`Content-Length` beyond it → 413).
    pub max_body_bytes: usize,
    /// Requests served on one connection before it is closed (a
    /// keep-alive budget; well-behaved clients just reconnect).
    pub max_requests: u64,
    /// Byte-rate floor for an in-flight request after a grace period;
    /// 0 disables the check.
    pub min_bytes_per_sec: u64,
}

impl Default for ConnLimits {
    fn default() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            max_line_bytes: 64 * 1024,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1 << 20,
            max_requests: 100_000,
            min_bytes_per_sec: 256,
        }
    }
}

/// A whole request at the front of a connection's buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A line-protocol request: the first `n` bytes, newline included.
    Line(usize),
    /// An HTTP request and where its body lies in the buffer (empty
    /// unless it is a `POST /batch`).
    Http {
        /// The parsed request line.
        req: HttpRequest,
        /// The body's bytes; the request ends where they do.
        body: Range<usize>,
    },
}

/// Every way a request can fail to arrive whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Clean close before the request's first byte.
    Closed,
    /// A non-timeout I/O error before any HTTP body.
    Failed,
    /// No first byte within the idle window.
    Idle,
    /// The peer closed mid-request, or reset the connection mid-body.
    Truncated,
    /// The request arrived slower than the byte-rate floor.
    TooSlow,
    /// The deadline fired before a request line was complete, or after
    /// one that was not HTTP.
    TimedOut,
    /// The deadline fired while an HTTP request's headers arrived.
    HeaderTimedOut,
    /// The deadline fired while an HTTP request's body arrived.
    BodyTimedOut,
    /// A request line over the line cap; `http` when its first bytes
    /// read as an HTTP request line, which picks the error's dialect.
    LineTooLong {
        /// Whether to answer in HTTP.
        http: bool,
    },
    /// An HTTP header line over the line cap.
    HeaderLineTooLong,
    /// An HTTP header block over its cap.
    HeaderBlockTooLarge,
    /// A `Content-Length` that is not a number.
    BadContentLength,
    /// A `POST /batch` body declared over the body cap.
    BodyTooLarge,
}

impl Refusal {
    /// The `serve.*` counter a refusal bumps, if any, and the response
    /// the peer gets, if any, before the connection closes.
    pub(crate) fn verdict(self) -> (Option<&'static str>, Option<Vec<u8>>) {
        const OVERSIZE: &str = "serve.reject.oversize";
        let http = |status, msg| Some(proto::error_response(status, msg));
        let bad = |msg| http("400 Bad Request", msg);
        match self {
            Refusal::Closed | Refusal::Failed => (None, None),
            Refusal::Idle => (Some("serve.conn.reaped"), None),
            Refusal::Truncated => (Some("serve.reject.truncated"), None),
            Refusal::TooSlow => (Some("serve.reject.slow"), None),
            Refusal::TimedOut => (Some("serve.timeout.read"), None),
            Refusal::HeaderTimedOut => (
                Some("serve.timeout.read"),
                http("408 Request Timeout", "request timed out"),
            ),
            Refusal::BodyTimedOut => (
                Some("serve.timeout.read"),
                http("408 Request Timeout", "body timed out"),
            ),
            Refusal::LineTooLong { http: true } => (Some(OVERSIZE), bad("request line too long")),
            Refusal::LineTooLong { http: false } => (
                Some(OVERSIZE),
                Some(format!("{}\n", proto::render_error("request too large")).into_bytes()),
            ),
            Refusal::HeaderLineTooLong => (Some(OVERSIZE), bad("header line too long")),
            Refusal::HeaderBlockTooLarge => (Some(OVERSIZE), bad("header block too large")),
            Refusal::BadContentLength => {
                (Some("serve.reject.malformed"), bad("bad content-length"))
            }
            Refusal::BodyTooLarge => (
                Some(OVERSIZE),
                http("413 Payload Too Large", "body exceeds limit"),
            ),
        }
    }
}

/// How far [`Framer::frame`] has read into the request at the front of
/// the buffer. No byte is searched for `\n` twice, so a long line
/// trickled in small chunks still costs linear time.
#[derive(Default)]
pub(crate) struct Framer {
    /// Bytes before this offset hold no `\n` that is still to be read.
    scanned: usize,
    /// Where the line being assembled starts.
    line: usize,
    /// The request line, once it read as HTTP.
    http: Option<HttpRequest>,
    /// Where the HTTP headers start.
    headers: usize,
    /// The last `Content-Length` seen.
    content_length: usize,
    /// Where the HTTP head ends (after its blank line), once it has.
    head: Option<usize>,
}

impl Framer {
    /// Frame the request at the front of `buf`: `Ok(None)` until its
    /// last byte has arrived. `first_request` is whether it is the
    /// connection's first, the only one that may speak HTTP. Call it
    /// again as bytes are appended to `buf`; once it returns a frame or
    /// a refusal, [`Conn::consume`] starts the next request.
    pub(crate) fn frame(
        &mut self,
        buf: &[u8],
        first_request: bool,
        limits: &ConnLimits,
    ) -> Result<Option<Frame>, Refusal> {
        loop {
            if let (Some(req), Some(head)) = (&self.http, self.head) {
                let body = head..head + self.content_length;
                return Ok((buf.len() >= body.end).then(|| Frame::Http {
                    req: req.clone(),
                    body,
                }));
            }
            let Some(nl) = buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = buf.len();
                if buf.len() - self.line > limits.max_line_bytes {
                    return Err(self.too_long(buf));
                }
                return Ok(None);
            };
            let end = self.scanned + nl + 1;
            let start = std::mem::replace(&mut self.line, end);
            self.scanned = end;
            if end - start > limits.max_line_bytes {
                return Err(self.too_long(buf));
            }
            let Some(req) = &self.http else {
                // The request line: HTTP only as a connection's first.
                let text = first_request.then(|| String::from_utf8_lossy(&buf[..end]));
                match text.as_deref().map(str::trim_end) {
                    Some(line) if proto::looks_like_http(line) => {
                        self.http = Some(proto::parse_http_request(line));
                        self.headers = end;
                        continue;
                    }
                    _ => return Ok(Some(Frame::Line(end))),
                }
            };
            if end - self.headers > limits.max_header_bytes {
                return Err(Refusal::HeaderBlockTooLarge);
            }
            let text = String::from_utf8_lossy(&buf[start..end]);
            let header = text.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                // Only `POST /batch` reads a body.
                if req.method != "POST" || req.path != "/batch" {
                    self.content_length = 0;
                } else if self.content_length > limits.max_body_bytes {
                    return Err(Refusal::BodyTooLarge);
                }
                self.head = Some(end);
            } else if let Some(v) = header.strip_prefix("content-length:") {
                self.content_length = v.trim().parse().map_err(|_| Refusal::BadContentLength)?;
            }
        }
    }

    /// The refusal for a line over the cap: the request line's own
    /// first bytes pick its dialect.
    fn too_long(&self, buf: &[u8]) -> Refusal {
        if self.http.is_some() {
            return Refusal::HeaderLineTooLong;
        }
        let prefix = String::from_utf8_lossy(&buf[..buf.len().min(80)]);
        Refusal::LineTooLong {
            http: proto::looks_like_http_prefix(&prefix),
        }
    }

    /// The refusal for a missed deadline at the current framing stage.
    fn timed_out(&self) -> Refusal {
        match (&self.http, self.head) {
            (None, _) => Refusal::TimedOut,
            (Some(_), None) => Refusal::HeaderTimedOut,
            (Some(_), Some(_)) => Refusal::BodyTimedOut,
        }
    }
}

/// The read side of one connection: its buffer, the framing state of
/// the request at the buffer's front, and the read loop that fills it.
/// Leftover bytes stay buffered, so pipelined requests written in one
/// burst are framed one by one.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes received and not yet consumed; a request starts at 0.
    buf: Vec<u8>,
    /// How far the request at the front of `buf` is framed.
    framer: Framer,
}

impl Conn {
    /// Wrap a stream. Timeouts are set per read; the stream needs no
    /// prior configuration.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            framer: Framer::default(),
        }
    }

    /// Read until the front of [`Conn::buf`] holds a whole request, or
    /// the request is refused. The idle window runs until its first
    /// byte, then the completion deadline and the byte-rate floor run
    /// over the whole request. Once `draining` is set, a connection
    /// still waiting for a request's first byte is reaped at the next
    /// read tick, as if its idle window had run out.
    pub(crate) fn read_request(
        &mut self,
        first_request: bool,
        limits: &ConnLimits,
        draining: &AtomicBool,
    ) -> Result<Frame, Refusal> {
        let opened = Instant::now();
        // Bytes left over from a pipelined burst start the request now.
        let mut first_byte = (!self.buf.is_empty()).then_some(opened);
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(frame) = self.framer.frame(&self.buf, first_request, limits)? {
                return Ok(frame);
            }
            let now = Instant::now();
            let deadline = match first_byte {
                None => opened + limits.idle_timeout,
                Some(fb) => fb + limits.read_timeout,
            };
            if now >= deadline {
                return Err(match first_byte {
                    None => Refusal::Idle,
                    Some(_) => self.framer.timed_out(),
                });
            }
            if let Some(fb) = first_byte {
                let elapsed = now - fb;
                let floor = limits.min_bytes_per_sec as f64 * elapsed.as_secs_f64();
                if elapsed >= RATE_GRACE && (self.buf.len() as f64) < floor {
                    return Err(Refusal::TooSlow);
                }
            }
            // One bounded wait, never zero (`SO_RCVTIMEO` of zero means
            // "block forever"), so the checks above re-run every tick.
            let wait = (deadline - now)
                .min(READ_TICK)
                .max(Duration::from_millis(1));
            let _ = self.stream.set_read_timeout(Some(wait));
            match self.stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Err(Refusal::Closed),
                Ok(0) => return Err(Refusal::Truncated),
                Ok(n) => {
                    first_byte.get_or_insert_with(Instant::now);
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if first_byte.is_none() && draining.load(Ordering::SeqCst) {
                        return Err(Refusal::Idle);
                    }
                }
                // A reset mid-body cuts the body short, as an EOF does.
                Err(_) if self.framer.head.is_some() => return Err(Refusal::Truncated),
                Err(_) => return Err(Refusal::Failed),
            }
        }
    }

    /// The bytes received and not yet consumed; the request being read
    /// starts at 0.
    pub(crate) fn buf(&self) -> &[u8] {
        &self.buf
    }

    /// Whether the request being read opened with an HTTP request line.
    pub(crate) fn is_http(&self) -> bool {
        self.framer.http.is_some()
    }

    /// Drop the first `n` bytes, a request just served, and start
    /// framing the next one.
    pub(crate) fn consume(&mut self, n: usize) {
        self.buf.drain(..n);
        self.framer = Framer::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// A drain flag that is never set.
    static CALM: AtomicBool = AtomicBool::new(false);

    /// What `frame` answers.
    type Framed = Result<Option<Frame>, Refusal>;

    /// A connected (client, server-side connection) pair on loopback.
    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, Conn::new(server))
    }

    fn fast() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_millis(200),
            idle_timeout: Duration::from_millis(120),
            max_line_bytes: 64,
            max_header_bytes: 96,
            max_body_bytes: 128,
            min_bytes_per_sec: 0,
            ..ConnLimits::default()
        }
    }

    /// Frame `chunks` as they would arrive, one `frame` call after each,
    /// and return the first answer that is not "need more bytes".
    fn frame_chunks(chunks: &[&[u8]], first: bool) -> Framed {
        let limits = fast();
        let mut framer = Framer::default();
        let mut buf = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            if let answer @ (Ok(Some(_)) | Err(_)) = framer.frame(&buf, first, &limits) {
                return answer;
            }
        }
        Ok(None)
    }

    fn http(method: &str, path: &str, body: Range<usize>) -> Framed {
        Ok(Some(Frame::Http {
            req: HttpRequest {
                method: method.into(),
                path: path.into(),
                query: String::new(),
            },
            body,
        }))
    }

    #[test]
    fn frame_table() {
        let long = "x".repeat(100);
        let get_long = format!("GET /{long}");
        let pad = format!("X-Pad: {}\r\n", "p".repeat(40));
        let cases: Vec<(&str, Vec<&[u8]>, bool, Framed)> = vec![
            ("one line", vec![b"a.net\n"], true, Ok(Some(Frame::Line(6)))),
            (
                "pipelined: the first line only",
                vec![b"a.net\nb.net\n"],
                true,
                Ok(Some(Frame::Line(6))),
            ),
            (
                "CRLF line",
                vec![b"a.net\r\n"],
                true,
                Ok(Some(Frame::Line(7))),
            ),
            (
                "line split across reads",
                vec![b"a.n", b"et\nb"],
                true,
                Ok(Some(Frame::Line(6))),
            ),
            ("unterminated tail", vec![b"a.net"], true, Ok(None)),
            (
                "HTTP line on a later request",
                vec![b"GET / HTTP/1.1\r\n"],
                false,
                Ok(Some(Frame::Line(16))),
            ),
            (
                "GET",
                vec![b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"],
                true,
                http("GET", "/healthz", 34..34),
            ),
            (
                "GET without its blank line",
                vec![b"GET /healthz HTTP/1.1\r\nHost: x\r\n"],
                true,
                Ok(None),
            ),
            (
                "GET ignores a Content-Length",
                vec![b"GET /healthz HTTP/1.1\r\nContent-Length: 9\r\n\r\n"],
                true,
                http("GET", "/healthz", 44..44),
            ),
            (
                "POST with its body split across reads",
                vec![
                    b"POST /batch HTTP/1.1\r\nContent-",
                    b"Length: 6\r\n\r\na.n",
                    b"et\n",
                ],
                true,
                http("POST", "/batch", 43..49),
            ),
            (
                "POST short of its body",
                vec![b"POST /batch HTTP/1.1\r\nContent-Length: 6\r\n\r\na.n"],
                true,
                Ok(None),
            ),
            (
                "oversize line, HTTP prefix",
                vec![get_long.as_bytes()],
                true,
                Err(Refusal::LineTooLong { http: true }),
            ),
            (
                "oversize line, line prefix",
                vec![long.as_bytes(), b"\n"],
                true,
                Err(Refusal::LineTooLong { http: false }),
            ),
            (
                "oversize header line",
                vec![b"GET / HTTP/1.1\r\n", long.as_bytes()],
                true,
                Err(Refusal::HeaderLineTooLong),
            ),
            (
                "oversize header block",
                vec![b"GET / HTTP/1.1\r\n", pad.as_bytes(), pad.as_bytes()],
                true,
                Err(Refusal::HeaderBlockTooLarge),
            ),
            (
                "bad Content-Length",
                vec![b"POST /batch HTTP/1.1\r\nContent-Length: ten\r\n"],
                true,
                Err(Refusal::BadContentLength),
            ),
            (
                "body over the cap",
                vec![b"POST /batch HTTP/1.1\r\nContent-Length: 129\r\n\r\n"],
                true,
                Err(Refusal::BodyTooLarge),
            ),
        ];
        for (name, chunks, first, want) in cases {
            assert_eq!(frame_chunks(&chunks, first), want, "{name}");
        }
    }

    #[test]
    fn refusals_map_to_their_counter_and_response() {
        let status = |r: Refusal| {
            let (counter, response) = r.verdict();
            let response = response.map(|b| String::from_utf8(b).expect("utf-8"));
            (
                counter,
                response.map(|r| r.lines().next().unwrap_or("").to_string()),
            )
        };
        let oversize = Some("serve.reject.oversize");
        assert_eq!(status(Refusal::Idle), (Some("serve.conn.reaped"), None));
        assert_eq!(
            status(Refusal::TimedOut),
            (Some("serve.timeout.read"), None)
        );
        let (_, h408) = status(Refusal::HeaderTimedOut);
        assert_eq!(h408.as_deref(), Some("HTTP/1.1 408 Request Timeout"));
        assert_eq!(
            status(Refusal::BodyTooLarge).1.as_deref(),
            Some("HTTP/1.1 413 Payload Too Large")
        );
        assert_eq!(status(Refusal::LineTooLong { http: true }).0, oversize);
        let (counter, json) = status(Refusal::LineTooLong { http: false });
        assert_eq!(
            (counter, json.as_deref()),
            (oversize, Some("{\"error\":\"request too large\"}"))
        );
        let (counter, resp) = Refusal::BadContentLength.verdict();
        assert_eq!(counter, Some("serve.reject.malformed"));
        let resp = String::from_utf8(resp.expect("a response")).expect("utf-8");
        assert!(
            resp.starts_with("HTTP/1.1 400") && resp.contains("bad content-length"),
            "{resp}"
        );
    }

    #[test]
    fn a_trickled_line_is_searched_once() {
        let limits = ConnLimits {
            max_line_bytes: 64 * 1024,
            ..fast()
        };
        let mut framer = Framer::default();
        let mut buf = Vec::new();
        for _ in 0..64 {
            buf.extend_from_slice(&[b'x'; 1000]);
            assert_eq!(framer.frame(&buf, true, &limits), Ok(None));
            assert_eq!(
                framer.scanned,
                buf.len(),
                "a later call starts where this one stopped"
            );
        }
        buf.push(b'\n');
        assert_eq!(
            framer.frame(&buf, true, &limits),
            Ok(Some(Frame::Line(64_001)))
        );
    }

    #[test]
    fn pipelined_lines_come_back_one_by_one() {
        let (mut client, mut conn) = pair();
        client.write_all(b"one\ntwo\nthree\n").expect("write");
        let limits = fast();
        for want in ["one\n", "two\n", "three\n"] {
            let Ok(Frame::Line(n)) = conn.read_request(false, &limits, &CALM) else {
                panic!("no line for {want:?}");
            };
            assert_eq!(&conn.buf()[..n], want.as_bytes());
            conn.consume(n);
        }
    }

    #[test]
    fn idle_and_timeout_are_distinguished() {
        let (mut client, mut conn) = pair();
        let limits = fast();
        // Nothing sent: the idle window reaps it.
        assert_eq!(conn.read_request(true, &limits, &CALM), Err(Refusal::Idle));
        // A keep-alive gap after a served request is idleness too.
        client.write_all(b"one\n").expect("write");
        assert_eq!(conn.read_request(true, &limits, &CALM), Ok(Frame::Line(4)));
        conn.consume(4);
        assert_eq!(conn.read_request(false, &limits, &CALM), Err(Refusal::Idle));
        // A partial line then silence: the completion deadline fires.
        client.write_all(b"partial").expect("write");
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::TimedOut)
        );
    }

    #[test]
    fn a_drain_reaps_only_a_connection_between_requests() {
        let (mut client, mut conn) = pair();
        let limits = ConnLimits {
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            ..fast()
        };
        let draining = AtomicBool::new(true);
        // A request whose bytes have arrived is still read.
        client.write_all(b"one\ntw").expect("write");
        assert_eq!(
            conn.read_request(false, &limits, &draining),
            Ok(Frame::Line(4))
        );
        conn.consume(4);
        // So is one whose first bytes are in when the drain begins.
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            client.write_all(b"o\n").expect("write");
            client
        });
        assert_eq!(
            conn.read_request(false, &limits, &draining),
            Ok(Frame::Line(4))
        );
        conn.consume(4);
        let _client = writer.join().expect("writer");
        // Between requests, it is reaped at the next read tick, not at
        // the end of its idle window.
        let started = Instant::now();
        assert_eq!(
            conn.read_request(false, &limits, &draining),
            Err(Refusal::Idle)
        );
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn oversized_line_is_cut_off_with_a_sniffable_prefix() {
        let (mut client, mut conn) = pair();
        let limits = fast();
        client.write_all("x".repeat(300).as_bytes()).expect("write");
        client.write_all(b"\n").expect("write");
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::LineTooLong { http: false })
        );
        let (mut client, mut conn) = pair();
        let line = format!("POST /{} HTTP/1.1\r\n", "y".repeat(300));
        client.write_all(line.as_bytes()).expect("write");
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::LineTooLong { http: true })
        );
    }

    #[test]
    fn truncated_line_and_clean_eof() {
        let (mut client, mut conn) = pair();
        let limits = fast();
        client.write_all(b"no newline").expect("write");
        drop(client);
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::Truncated)
        );
        let (client, mut conn) = pair();
        drop(client);
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::Closed)
        );
    }

    #[test]
    fn body_short_read_is_truncated_and_full_read_completes() {
        let (mut client, mut conn) = pair();
        let limits = fast();
        client
            .write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdef")
            .expect("write");
        let Ok(Frame::Http { body, .. }) = conn.read_request(true, &limits, &CALM) else {
            panic!("no request framed");
        };
        assert_eq!(&conn.buf()[body], b"abcd");
        // Ten bytes promised, two delivered, then EOF.
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 10\r\n\r\nab")
            .expect("write");
        drop(client);
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::Truncated)
        );
    }

    #[test]
    fn rate_floor_cuts_a_trickling_writer() {
        let (mut client, mut conn) = pair();
        let limits = ConnLimits {
            read_timeout: Duration::from_secs(10),
            min_bytes_per_sec: 10_000,
            ..fast()
        };
        let writer = std::thread::spawn(move || {
            // One byte every 40 ms can never hit 10 kB/s.
            for _ in 0..100 {
                if client.write_all(b"y").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let started = Instant::now();
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::TooSlow)
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "rate floor fired early, not at the deadline"
        );
        drop(conn);
        writer.join().expect("writer");
    }

    #[test]
    fn hard_deadline_bounds_even_idle_waits() {
        // Once an HTTP request line is in, silence is no longer idling:
        // the request's one deadline fires, however long the idle
        // window is.
        let (mut client, mut conn) = pair();
        let limits = ConnLimits {
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_millis(80),
            ..fast()
        };
        client
            .write_all(b"GET /healthz HTTP/1.1\r\n")
            .expect("write");
        let started = Instant::now();
        assert_eq!(
            conn.read_request(true, &limits, &CALM),
            Err(Refusal::HeaderTimedOut)
        );
        assert!(started.elapsed() < Duration::from_secs(2));
        assert!(conn.is_http());
    }
}
