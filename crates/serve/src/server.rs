//! The TCP server: accept thread, bounded connection queue, fixed
//! worker pool, reload watcher, and graceful drain.
//!
//! Threading model (all `std`):
//!
//! - **accept thread** — blocking `accept()`; pushes connections onto a
//!   bounded queue or, when the queue is full, writes the static
//!   [`SHED_RESPONSE`](crate::proto::SHED_RESPONSE) and closes. It
//!   never parses requests, so overload cannot stall the listener.
//! - **N workers** — pop connections, speak either protocol until the
//!   peer closes, a limit fires, or a drain begins. One lowercase
//!   scratch buffer per worker keeps the lookup path allocation-free.
//! - **watcher** (optional) — polls the artifact file's `(mtime, len)`
//!   against the stamp the serving index was read under; on change
//!   parses off to the side and epoch-swaps the shared index.
//!   A corrupt file increments `serve.reload.err` and keeps the old
//!   index serving.
//!
//! ## Robustness
//!
//! Every request, in either protocol, is read by one loop under
//! [`ConnLimits`] (`crate::limits`): the connection's bytes are framed
//! from its buffer, under an idle window before the request's first
//! byte, one completion deadline from its first byte to its last, a
//! slow-client byte-rate floor over the whole request, and caps on
//! line/header/body sizes. A hostile peer therefore always resolves —
//! served, rejected with an explicit response (`400`/`408`/`413`), or
//! cut by a deadline — and every refusal maps, through one table, into
//! one counter family:
//!
//! - `serve.timeout.read` / `serve.timeout.write` — deadlines fired
//! - `serve.conn.reaped` — idle keep-alive connections closed
//! - `serve.conn.budget` — per-connection request budget exhausted
//! - `serve.reject.oversize` / `.truncated` / `.slow` / `.malformed`
//! - `serve.shed.queue_full` / `serve.shed.draining` — refused before
//!   a worker ever saw the stream
//!
//! All counters are pre-registered at [`Server::start`], so `/metrics`
//! accounts for every refused byte stream even when the count is 0.
//!
//! Shutdown (`{"cmd":"shutdown"}`, `POST /shutdown`, or
//! [`Server::shutdown`]) is a drain: the accept thread stops accepting
//! (woken by a self-connection), and workers answer every request whose
//! bytes have arrived, queued connections' included. A connection
//! waiting for its next request's first byte (an idle keep-alive peer)
//! is reaped within one 100 ms read tick and counted in
//! `serve.conn.reaped`, so no idle peer holds the drain for its idle
//! window. `Server::wait` then joins everything.

use crate::index::{stamp, LookupIndex, SharedIndex};
use crate::limits::{Conn, ConnLimits, Frame};
use crate::proto::{self, Request};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hot-reload settings: which file to watch and how often.
#[derive(Debug, Clone)]
pub struct ReloadConfig {
    /// The artifact file to poll.
    pub path: PathBuf,
    /// Poll period.
    pub every: Duration,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `HOST:PORT`; port 0 binds an ephemeral port (read
    /// it back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker thread count.
    pub threads: usize,
    /// Bounded accept-queue depth; connections beyond it are shed.
    pub queue_cap: usize,
    /// Per-connection robustness limits (deadlines, size caps, request
    /// budget, byte-rate floor).
    pub limits: ConnLimits,
    /// Artifact hot-reload, if any.
    pub reload: Option<ReloadConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_cap: 128,
            limits: ConnLimits::default(),
            reload: None,
        }
    }
}

/// Counter families pre-registered at startup so `/metrics` exposes the
/// full vocabulary from the first scrape, zeros included.
const COUNTERS: &[&str] = &[
    "serve.conn.accepted",
    "serve.conn.reaped",
    "serve.conn.budget",
    "serve.timeout.read",
    "serve.timeout.write",
    "serve.reject.oversize",
    "serve.reject.truncated",
    "serve.reject.slow",
    "serve.reject.malformed",
    "serve.shed.queue_full",
    "serve.shed.draining",
    "serve.reload.ok",
    "serve.reload.err",
    "serve.requests",
    "serve.requests.batch",
    "serve.requests.http",
    "serve.lookups",
    "serve.hits",
];

struct Shared {
    index: Arc<SharedIndex>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cap: usize,
    cv: Condvar,
    shutdown: AtomicBool,
    limits: ConnLimits,
    local_addr: SocketAddr,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.cv.notify_all();
        // Wake the accept thread out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running lookup service. Dropping the handle without calling
/// [`Server::shutdown`] or [`Server::wait`] detaches the threads.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `index` per `cfg`.
    pub fn start(index: Arc<SharedIndex>, cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        for name in COUNTERS {
            let _ = hoiho_obs::global().counter(name);
        }
        let shared = Arc::new(Shared {
            index,
            queue: Mutex::new(VecDeque::new()),
            queue_cap: cfg.queue_cap.max(1),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            limits: cfg.limits.clone(),
            local_addr,
        });
        let mut threads = Vec::with_capacity(cfg.threads + 2);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || accept_loop(&shared, listener))?,
            );
        }
        for i in 0..cfg.threads.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        if let Some(reload) = cfg.reload.clone() {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-watcher".to_string())
                    .spawn(move || watcher_loop(&shared, &reload))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The index handle this server reads through.
    pub fn index(&self) -> Arc<SharedIndex> {
        Arc::clone(&self.shared.index)
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Block until the server drains (a protocol shutdown, or a prior
    /// [`Server::shutdown`] from another handle).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Begin a graceful drain and block until every thread exits.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
        };
        if shared.draining() {
            // The wake-up self-connection (or a late client) during
            // drain: refuse politely.
            hoiho_obs::counter!("serve.shed.draining").inc();
            shed(stream);
            return;
        }
        hoiho_obs::counter!("serve.conn.accepted").inc();
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if queue.len() >= shared.queue_cap {
            drop(queue);
            hoiho_obs::counter!("serve.shed.queue_full").inc();
            shed(stream);
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.cv.notify_one();
    }
}

/// Write the static 503 payload without letting a slow client stall the
/// caller.
fn shed(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    let _ = stream.write_all(proto::SHED_RESPONSE);
}

fn worker_loop(shared: &Shared) {
    let mut scratch = String::new();
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.draining() {
                    break None;
                }
                let (q, _) = shared
                    .cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue poisoned");
                queue = q;
            }
        };
        match conn {
            Some(stream) => handle_connection(shared, stream, &mut scratch),
            None => return,
        }
    }
}

/// Whether a write error means the send deadline fired (as opposed to a
/// peer reset).
fn write_timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Send `bytes`, counting a fired write deadline.
fn send(out: &mut TcpStream, bytes: &[u8]) -> bool {
    match out.write_all(bytes).and_then(|()| out.flush()) {
        Ok(()) => true,
        Err(e) => {
            if write_timed_out(&e) {
                hoiho_obs::counter!("serve.timeout.write").inc();
            }
            false
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, scratch: &mut String) {
    let limits = &shared.limits;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut conn = Conn::new(read_half);
    let mut write_half = stream;
    let mut served: u64 = 0;
    loop {
        let framed = conn.read_request(served == 0, limits, &shared.shutdown);
        // An HTTP request counts once its request line is in, whether
        // it is then served or refused.
        if conn.is_http() {
            hoiho_obs::counter!("serve.requests.http").inc();
        }
        let len = match framed {
            Ok(Frame::Line(len)) => len,
            Ok(Frame::Http { req, body }) => {
                handle_http(shared, &req, &conn.buf()[body], &mut write_half, scratch);
                return;
            }
            Err(refusal) => {
                let (counter, response) = refusal.verdict();
                if let Some(name) = counter {
                    hoiho_obs::add(name, 1);
                }
                if let Some(response) = response {
                    let _ = send(&mut write_half, &response);
                }
                return;
            }
        };
        // Line protocol: keep answering until EOF, a limit fires, or a
        // drain begins.
        let line = String::from_utf8_lossy(&conn.buf()[..len]);
        let response = respond_line(shared, line.trim_end(), scratch);
        conn.consume(len);
        served += 1;
        let draining = shared.draining();
        if !send(&mut write_half, response.as_bytes()) {
            return;
        }
        if draining {
            return;
        }
        if served >= limits.max_requests {
            hoiho_obs::counter!("serve.conn.budget").inc();
            return;
        }
    }
}

/// Answer one line-protocol request, returning the newline-terminated
/// response.
fn respond_line(shared: &Shared, line: &str, scratch: &mut String) -> String {
    let start = Instant::now();
    let mut out = String::new();
    match proto::parse_request(line) {
        Request::Lookup(host) => lookup_one(shared, &host, scratch, &mut out),
        Request::Batch(hosts) => lookup_batch(shared, &hosts, scratch, &mut out),
        Request::Ping => out.push_str(&status(shared)),
        Request::Shutdown => {
            out.push_str("{\"ok\":true,\"draining\":true}");
            shared.begin_shutdown();
        }
        Request::Malformed(msg) => {
            hoiho_obs::counter!("serve.reject.malformed").inc();
            out.push_str(&proto::render_error(&msg));
        }
    }
    out.push('\n');
    record_request(start);
    out
}

/// Look up one hostname and render its result object into `out`.
fn lookup_one(shared: &Shared, host: &str, scratch: &mut String, out: &mut String) {
    hoiho_obs::counter!("serve.requests").inc();
    hoiho_obs::counter!("serve.lookups").inc();
    answer(&shared.index.load(), host, scratch, out);
}

/// Look up a batch against one index snapshot and render
/// `{"results":[…]}` into `out`.
fn lookup_batch(
    shared: &Shared,
    hosts: &[impl AsRef<str>],
    scratch: &mut String,
    out: &mut String,
) {
    hoiho_obs::counter!("serve.requests.batch").inc();
    hoiho_obs::counter!("serve.lookups").add(hosts.len() as u64);
    let index = shared.index.load();
    out.push_str("{\"results\":[");
    for (i, host) in hosts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        answer(&index, host.as_ref(), scratch, out);
    }
    out.push_str("]}");
}

/// The one lookup → hit count → render step every request kind shares.
fn answer(index: &LookupIndex, host: &str, scratch: &mut String, out: &mut String) {
    let inf = index.lookup(host, scratch);
    if inf.is_some() {
        hoiho_obs::counter!("serve.hits").inc();
    }
    proto::render_result(index.db(), host, inf.as_ref(), out);
}

/// The `{"ok":true,"epoch":…,"shards":…}` status object (line `ping`
/// and `/healthz`); `shards` counts the suffixes the index covers.
fn status(shared: &Shared) -> String {
    format!(
        "{{\"ok\":true,\"epoch\":{},\"shards\":{}}}",
        shared.index.epoch(),
        shared.index.load().len()
    )
}

/// Record a served request's latency into `serve.request_us`.
fn record_request(start: Instant) {
    hoiho_obs::histogram!("serve.request_us").record(start.elapsed().as_micros() as u64);
}

/// Serve one framed HTTP-lite request (`Connection: close`); `body` is
/// empty unless it is a `POST /batch`.
fn handle_http(
    shared: &Shared,
    req: &proto::HttpRequest,
    body: &[u8],
    out: &mut TcpStream,
    scratch: &mut String,
) {
    let start = Instant::now();
    let mut drain = false;
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/lookup") => match proto::query_param(&req.query, "h") {
            Some(host) => {
                let mut body = String::new();
                lookup_one(shared, &host, scratch, &mut body);
                body.push('\n');
                proto::http_response("200 OK", "application/json", &body)
            }
            None => proto::error_response("400 Bad Request", "missing h parameter"),
        },
        ("POST", "/batch") => {
            let body = String::from_utf8_lossy(body);
            let hosts: Vec<&str> = body
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .collect();
            let mut out_body = String::new();
            lookup_batch(shared, &hosts, scratch, &mut out_body);
            out_body.push('\n');
            proto::http_response("200 OK", "application/json", &out_body)
        }
        ("GET", "/metrics") => {
            let mut body = hoiho_obs::global().snapshot().render_prometheus();
            let _ = std::fmt::Write::write_fmt(
                &mut body,
                format_args!(
                    "# TYPE hoiho_serve_epoch gauge\nhoiho_serve_epoch {}\n\
                     # TYPE hoiho_serve_shards gauge\nhoiho_serve_shards {}\n",
                    shared.index.epoch(),
                    shared.index.load().len()
                ),
            );
            proto::http_response("200 OK", "text/plain; version=0.0.4", &body)
        }
        ("GET", "/healthz") => {
            proto::http_response("200 OK", "application/json", &(status(shared) + "\n"))
        }
        ("POST", "/shutdown") => {
            drain = true;
            let body = "{\"ok\":true,\"draining\":true}\n";
            proto::http_response("200 OK", "application/json", body)
        }
        _ => proto::error_response("404 Not Found", "not found"),
    };
    let _ = send(out, &response);
    // Drain only once the client has its answer.
    if drain {
        shared.begin_shutdown();
    }
    record_request(start);
}

/// Poll the artifact file and swap in a fresh index whenever its stamp
/// differs from the one the serving index was read under. An index
/// built from text in memory has no stamp, so the file is loaded on
/// the first poll.
fn watcher_loop(shared: &Shared, cfg: &ReloadConfig) {
    let mut last = shared.index.load().stamp;
    loop {
        // Sleep in small steps so a drain is not held up by the poll
        // period.
        let mut slept = Duration::ZERO;
        while slept < cfg.every {
            if shared.draining() {
                return;
            }
            let step = Duration::from_millis(25).min(cfg.every - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let now = stamp(&cfg.path);
        if now.is_none() || now == last {
            continue;
        }
        match shared.index.load().reload(&cfg.path) {
            Ok(index) => {
                last = index.stamp;
                let suffixes = index.len();
                let epoch = shared.index.swap(index);
                hoiho_obs::counter!("serve.reload.ok").inc();
                hoiho_obs::progress(format!(
                    "reloaded {} (epoch {epoch}, {suffixes} suffixes)",
                    cfg.path.display()
                ));
            }
            Err(e) => {
                last = now;
                hoiho_obs::counter!("serve.reload.err").inc();
                eprintln!(
                    "serve: reload of {} failed, keeping old index: {e}",
                    cfg.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_geodb::GeoDb;
    use hoiho_psl::PublicSuffixList;
    use std::io::{BufRead, BufReader, Read};

    fn test_index() -> LookupIndex {
        let db = Arc::new(GeoDb::builtin());
        let psl = Arc::new(PublicSuffixList::builtin());
        let text = "hoiho-artifacts-v1\n\
                    suffix gtt.net good\n\
                    regex iata ^.+\\.([a-z]{3})\\d+\\.gtt\\.net$\n";
        LookupIndex::from_artifacts(db, psl, text).expect("parse")
    }

    fn boot(limits: ConnLimits) -> Server {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue_cap: 16,
            limits,
            reload: None,
        };
        Server::start(Arc::new(SharedIndex::new(test_index())), &cfg).expect("start")
    }

    fn tight() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(300),
            max_line_bytes: 256,
            max_header_bytes: 512,
            max_body_bytes: 1024,
            max_requests: 3,
            min_bytes_per_sec: 0,
        }
    }

    fn connect(server: &Server) -> TcpStream {
        let s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("rt");
        s
    }

    /// Read to EOF, returning everything the server sent.
    fn slurp(s: &mut TcpStream) -> String {
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
                Err(_) => break,
            }
        }
        out
    }

    #[test]
    fn truncated_request_line_closes_without_response() {
        let server = boot(tight());
        let mut s = connect(&server);
        s.write_all(b"GET /look").expect("write");
        // Half-close: the server sees EOF mid-line and must drop the
        // connection (no partial parse, no hang).
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        assert_eq!(slurp(&mut s), "");
        server.shutdown();
    }

    #[test]
    fn oversized_header_block_is_rejected_with_400() {
        let server = boot(tight());
        let mut s = connect(&server);
        s.write_all(b"GET /healthz HTTP/1.1\r\n").expect("write");
        // Individually-small header lines whose sum blows the block cap.
        for i in 0..16 {
            s.write_all(format!("X-Pad-{i}: {}\r\n", "y".repeat(60)).as_bytes())
                .expect("write");
        }
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("header block too large"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn oversized_content_length_is_rejected_with_413() {
        let server = boot(tight());
        let mut s = connect(&server);
        s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
            .expect("write");
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn content_length_mismatch_closes_without_a_200() {
        let server = boot(tight());
        let mut s = connect(&server);
        // Promise 100 bytes, deliver 9, half-close.
        s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort.net")
            .expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let resp = slurp(&mut s);
        assert!(!resp.contains("200 OK"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn pipelined_line_requests_each_get_a_response() {
        let server = boot(ConnLimits {
            max_requests: 10,
            ..tight()
        });
        let mut s = connect(&server);
        s.write_all(b"ae1.lhr2.gtt.net\n{\"cmd\":\"ping\"}\nae9.par1.gtt.net\n")
            .expect("write");
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            lines.push(line);
        }
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[1].contains("\"epoch\":1"), "{}", lines[1]);
        assert!(
            lines[2].contains("\"host\":\"ae9.par1.gtt.net\""),
            "{}",
            lines[2]
        );
        server.shutdown();
    }

    #[test]
    fn request_budget_closes_the_connection_after_max_requests() {
        let server = boot(tight()); // max_requests: 3
        let mut s = connect(&server);
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        for _ in 0..3 {
            s.write_all(b"ae1.lhr2.gtt.net\n").expect("write");
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
        }
        // Fourth request: the budget has closed the stream.
        let _ = s.write_all(b"ae1.lhr2.gtt.net\n");
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line}");
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_reaped() {
        let server = boot(tight()); // idle_timeout: 200ms
        let mut s = connect(&server);
        let started = Instant::now();
        assert_eq!(slurp(&mut s), "", "reap closes silently");
        assert!(started.elapsed() < Duration::from_secs(3));
        server.shutdown();
    }

    #[test]
    fn one_deadline_covers_an_http_request_from_its_first_byte() {
        let server = boot(ConnLimits {
            read_timeout: Duration::from_secs(1),
            idle_timeout: Duration::from_secs(5),
            ..tight()
        });
        let mut s = connect(&server);
        let before = hoiho_obs::global().counter("serve.timeout.read").get();
        // Wait `d` for the server's answer, keeping what it sends.
        let mut resp = String::new();
        let mut wait = |s: &mut TcpStream, d: Duration| {
            s.set_read_timeout(Some(d)).expect("rt");
            let mut buf = [0u8; 4096];
            if let Ok(n) = s.read(&mut buf) {
                resp.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
        };
        let started = Instant::now();
        s.write_all(b"GET /hea").expect("write");
        wait(&mut s, Duration::from_millis(800));
        s.write_all(b"lthz HTTP/1.1\r\n").expect("write");
        wait(&mut s, Duration::from_millis(800));
        let answered = started.elapsed();
        let _ = s.write_all(b"Host: x\r\n\r\n");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("rt");
        resp.push_str(&slurp(&mut s));
        assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");
        assert!(resp.contains("request timed out"), "{resp}");
        assert!(answered < Duration::from_millis(1500), "{answered:?}");
        assert!(hoiho_obs::global().counter("serve.timeout.read").get() > before);
        server.shutdown();
    }

    #[test]
    fn oversized_line_gets_a_protocol_appropriate_error() {
        let server = boot(tight()); // max_line_bytes: 256
                                    // Line protocol: JSON error object.
        let mut s = connect(&server);
        s.write_all("x".repeat(400).as_bytes()).expect("write");
        s.write_all(b"\n").expect("write");
        let resp = slurp(&mut s);
        assert!(resp.contains("request too large"), "{resp}");
        // HTTP: a 400 status line.
        let mut s = connect(&server);
        s.write_all(format!("GET /{} HTTP/1.1\r\n", "y".repeat(400)).as_bytes())
            .expect("write");
        let resp = slurp(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        server.shutdown();
    }
}
