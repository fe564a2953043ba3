//! The wire protocols: line-delimited JSON and an HTTP/1.1-lite front
//! end, sharing one response vocabulary.
//!
//! ## Line protocol (one JSON object per line, one response line each)
//!
//! ```text
//! request  := '{' "lookup" ':' string '}'
//!           | '{' "batch"  ':' '[' string (',' string)* ']' '}'
//!           | '{' "cmd"    ':' ( "shutdown" | "ping" ) '}'
//!           | bare-hostname            ; any line not starting with '{'
//! response := result | '{' "results" ':' '[' result* ']' '}'
//!           | '{' "ok" ':' bool ... '}' | '{' "error" ':' string '}'
//! result   := '{' "host":s, "ok":bool [, "location":s, "lat":n,
//!              "lon":n, "hint":s, "type":s, "learned":bool,
//!              "suffix":s ] '}'
//! ```
//!
//! ## HTTP front end (sniffed when the first line is a request line)
//!
//! `GET /lookup?h=HOST`, `POST /batch` (newline-separated hostnames in
//! the body), `GET /metrics`, `GET /healthz`, `POST /shutdown`. One
//! request per connection (`Connection: close`).
//!
//! An overloaded server answers with [`SHED_RESPONSE`] before the
//! protocol is known; line-protocol clients must treat a first byte
//! other than `{` as load shedding.

use hoiho::apply::GeoInference;
use hoiho_geodb::GeoDb;
/// The workspace's one JSON string escaper.
pub use hoiho_obs::json_escape;
use std::fmt::Write as _;

/// The static load-shedding payload, written by the accept thread when
/// the connection queue is full. It is a valid HTTP 503 whose body is
/// the line-protocol error object, so both client families can
/// recognise it.
pub const SHED_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
Content-Type: application/json\r\n\
Content-Length: 23\r\n\
Connection: close\r\n\
\r\n\
{\"error\":\"overloaded\"}\n";

/// One parsed line-protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Geolocate one hostname.
    Lookup(String),
    /// Geolocate a batch, answering with one `results` array.
    Batch(Vec<String>),
    /// Begin a graceful drain.
    Shutdown,
    /// Liveness probe.
    Ping,
    /// Anything else; the payload is the error message to report.
    Malformed(String),
}

/// Parse one request line. A line not starting with `{` is a bare
/// hostname lookup (the `printf | nc` path).
pub fn parse_request(line: &str) -> Request {
    let line = line.trim();
    if line.is_empty() {
        return Request::Malformed("empty request".to_string());
    }
    if !line.starts_with('{') {
        return Request::Lookup(line.to_string());
    }
    match parse_json_request(line) {
        Ok(r) => r,
        Err(e) => Request::Malformed(e),
    }
}

fn parse_json_request(line: &str) -> Result<Request, String> {
    let mut p = Json::new(line);
    p.expect('{')?;
    let key = p.string()?;
    p.expect(':')?;
    let req = match key.as_str() {
        "lookup" => Request::Lookup(p.string()?),
        "batch" => Request::Batch(p.string_array()?),
        "cmd" => match p.string()?.as_str() {
            "shutdown" => Request::Shutdown,
            "ping" => Request::Ping,
            other => return Err(format!("unknown cmd '{other}'")),
        },
        other => return Err(format!("unknown request key '{other}'")),
    };
    p.expect('}')?;
    p.end()?;
    Ok(req)
}

/// A minimal JSON reader covering exactly the request grammar: one
/// object, string values, arrays of strings.
struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn new(s: &'a str) -> Json<'a> {
        Json {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c as u8) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{c}' at byte {}", self.pos))
        }
    }

    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Copy the raw UTF-8 byte run; hostnames are ASCII
                    // but the parser must not corrupt other input.
                    let start = self.pos - 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn string_array(&mut self) -> Result<Vec<String>, String> {
        self.expect('[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.string()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

/// Append one lookup result object (no trailing newline) to `out`.
pub fn render_result(db: &GeoDb, host: &str, inference: Option<&GeoInference>, out: &mut String) {
    match inference {
        Some(inf) => {
            let l = db.location(inf.location);
            let _ = write!(
                out,
                "{{\"host\":\"{}\",\"ok\":true,\"location\":\"{}\",\"lat\":{:.4},\"lon\":{:.4},\
                 \"hint\":\"{}\",\"type\":\"{}\",\"learned\":{},\"suffix\":\"{}\"}}",
                json_escape(host),
                json_escape(&l.display_name()),
                l.coords.lat(),
                l.coords.lon(),
                json_escape(&inf.hint),
                inf.ty,
                inf.learned_hint,
                json_escape(&inf.suffix),
            );
        }
        None => {
            let _ = write!(out, "{{\"host\":\"{}\",\"ok\":false}}", json_escape(host));
        }
    }
}

/// Render an error object line.
pub fn render_error(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(msg))
}

/// A parsed HTTP-lite request line plus whatever the handler needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// The raw query string (no `?`), empty if absent.
    pub query: String,
}

/// The HTTP methods whose request lines the server recognises.
const HTTP_METHODS: [&str; 6] = ["GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS"];

/// Whether a first line looks like an HTTP request line (method token,
/// path, `HTTP/` version marker).
pub fn looks_like_http(line: &str) -> bool {
    let mut f = line.split(' ');
    f.next().is_some_and(|m| HTTP_METHODS.contains(&m))
        && f.next().is_some_and(|p| p.starts_with('/'))
        && f.next().is_some_and(|v| v.starts_with("HTTP/"))
}

/// Whether a *partial* first line (e.g. the sniffable prefix of an
/// oversized request) already reads as HTTP: a known method token
/// followed by a space. Used to pick the error dialect when the full
/// line never arrived.
pub fn looks_like_http_prefix(partial: &str) -> bool {
    HTTP_METHODS
        .iter()
        .any(|m| partial.strip_prefix(m).is_some_and(|r| r.starts_with(' ')))
}

/// A full HTTP error response whose body is the line-protocol error
/// object — the rejection vocabulary both client families understand.
pub fn error_response(status: &str, msg: &str) -> Vec<u8> {
    http_response(
        status,
        "application/json",
        &format!("{}\n", render_error(msg)),
    )
}

/// Parse a request line; [`looks_like_http`] must have accepted it.
pub fn parse_http_request(line: &str) -> HttpRequest {
    let mut f = line.split(' ');
    let method = f.next().unwrap_or("").to_string();
    let target = f.next().unwrap_or("/");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    HttpRequest {
        method,
        path,
        query,
    }
}

/// The value of one query-string parameter, percent-decoded (`+` is a
/// space).
pub fn query_param(query: &str, key: &str) -> Option<String> {
    for pair in query.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == key {
            return Some(percent_decode(v));
        }
    }
    None
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Serialize a full HTTP response with the standard headers.
pub fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_grammar() {
        assert_eq!(
            parse_request(r#"{"lookup":"r1.lhr.gtt.net"}"#),
            Request::Lookup("r1.lhr.gtt.net".to_string())
        );
        assert_eq!(
            parse_request(r#"{ "batch" : [ "a.gtt.net" , "b.gtt.net" ] }"#),
            Request::Batch(vec!["a.gtt.net".to_string(), "b.gtt.net".to_string()])
        );
        assert_eq!(parse_request(r#"{"batch":[]}"#), Request::Batch(vec![]));
        assert_eq!(parse_request(r#"{"cmd":"shutdown"}"#), Request::Shutdown);
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#), Request::Ping);
        // Bare hostname: the printf|nc path.
        assert_eq!(
            parse_request("r1.lhr.gtt.net\n"),
            Request::Lookup("r1.lhr.gtt.net".to_string())
        );
    }

    #[test]
    fn malformed_requests_are_reported_not_fatal() {
        for bad in [
            "{",
            "{}",
            r#"{"lookup":}"#,
            r#"{"lookup":"x""#,
            r#"{"frob":"x"}"#,
            r#"{"cmd":"frob"}"#,
            r#"{"lookup":"x"} extra"#,
            r#"{"batch":["a",]}"#,
            "",
        ] {
            assert!(
                matches!(parse_request(bad), Request::Malformed(_)),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        assert_eq!(
            parse_request("{\"lookup\":\"a\\\"b\\\\c\\u0041\"}"),
            Request::Lookup("a\"b\\cA".to_string())
        );
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn http_sniffing_and_query_params() {
        assert!(looks_like_http("GET /lookup?h=x HTTP/1.1"));
        assert!(looks_like_http("POST /batch HTTP/1.0"));
        assert!(!looks_like_http(r#"{"lookup":"x"}"#));
        assert!(!looks_like_http("hostname.gtt.net"));
        let r = parse_http_request("GET /lookup?h=r1.lhr.gtt.net&x=1 HTTP/1.1");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/lookup");
        assert_eq!(
            query_param(&r.query, "h").as_deref(),
            Some("r1.lhr.gtt.net")
        );
        assert_eq!(query_param(&r.query, "x").as_deref(), Some("1"));
        assert_eq!(query_param(&r.query, "nope"), None);
        assert_eq!(query_param("h=a%2Eb+c", "h").as_deref(), Some("a.b c"));
    }

    #[test]
    fn truncated_request_lines_parse_as_malformed_not_panic() {
        // Prefixes of every valid request shape: the parser must return
        // Malformed (or a bare-hostname Lookup) without panicking.
        for full in [
            r#"{"lookup":"r1.lhr.gtt.net"}"#,
            r#"{"batch":["a.gtt.net","b.gtt.net"]}"#,
            r#"{"cmd":"shutdown"}"#,
            "GET /lookup?h=x HTTP/1.1",
        ] {
            for cut in 1..full.len() {
                let _ = parse_request(&full[..cut]);
            }
        }
        assert!(matches!(
            parse_request(r#"{"batch":["a.gtt.net""#),
            Request::Malformed(_)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shut"#),
            Request::Malformed(_)
        ));
    }

    #[test]
    fn http_prefix_sniffing_on_partial_lines() {
        assert!(looks_like_http_prefix("GET /a-very-long-path-that-was-cut"));
        assert!(looks_like_http_prefix("POST /batch HTTP"));
        assert!(!looks_like_http_prefix("GETTY sburg"));
        assert!(!looks_like_http_prefix(r#"{"lookup":"GET "#));
        assert!(!looks_like_http_prefix("r1.lhr.gtt.net"));
        // A truncated request line is NOT full HTTP — the sniffer for
        // complete lines must still reject it.
        assert!(!looks_like_http("GET /lookup?h=x"));
    }

    #[test]
    fn error_response_is_well_formed() {
        let r = error_response("413 Payload Too Large", "body exceeds limit");
        let text = std::str::from_utf8(&r).unwrap();
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert_eq!(body, "{\"error\":\"body exceeds limit\"}\n");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        assert!(head.contains("Connection: close"));
    }

    #[test]
    fn shed_response_is_valid_http_with_json_body() {
        let text = std::str::from_utf8(SHED_RESPONSE).unwrap();
        assert!(text.starts_with("HTTP/1.1 503"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body, "{\"error\":\"overloaded\"}\n");
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }
}
