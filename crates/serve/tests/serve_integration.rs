//! End-to-end service tests: a real listener on an ephemeral port,
//! both protocols, load shedding, artifact hot reload (including a
//! corrupt reload), and graceful drain.

use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{ConnLimits, LookupIndex, ReloadConfig, ServeConfig, Server, SharedIndex};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn artifacts(suffixes: &[&str]) -> String {
    let mut text = String::from("hoiho-artifacts-v1\n");
    for s in suffixes {
        text.push_str(&format!(
            "suffix {s} good\nregex iata ^.+\\.([a-z]{{3}})\\d+\\.{}$\n",
            s.replace('.', "\\.")
        ));
    }
    text
}

fn index_for(suffixes: &[&str]) -> LookupIndex {
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    LookupIndex::from_artifacts(db, psl, &artifacts(suffixes)).expect("artifacts parse")
}

/// Write `suffixes`' artifacts to `path` and open them the way `hoiho
/// serve` does: stamped, then read.
fn open_file(path: &Path, suffixes: &[&str]) -> LookupIndex {
    std::fs::write(path, artifacts(suffixes)).unwrap();
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    LookupIndex::open(db, psl, path).expect("artifacts load")
}

fn reload_cfg(path: &Path) -> ServeConfig {
    ServeConfig {
        reload: Some(ReloadConfig {
            path: path.to_path_buf(),
            every: Duration::from_millis(50),
        }),
        ..ServeConfig::default()
    }
}

/// Wait until the server's index reaches `epoch`.
fn await_epoch(server: &Server, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.index().epoch() < epoch {
        assert!(Instant::now() < deadline, "reload never happened");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn start(cfg: &ServeConfig, suffixes: &[&str]) -> Server {
    Server::start(Arc::new(SharedIndex::new(index_for(suffixes))), cfg).expect("bind")
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Send one line, read one line back.
fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    out
}

/// One-shot HTTP request; returns (status line, body).
fn http(server: &Server, request: &str) -> (String, String) {
    let mut stream = connect(server);
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hoiho-serve-test-{}-{name}", std::process::id()))
}

#[test]
fn line_protocol_single_batch_malformed() {
    let server = start(&ServeConfig::default(), &["gtt.net", "zayo.com"]);
    let mut conn = connect(&server);

    // Single lookup, JSON form.
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.gtt.net"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains("London"), "{r}");
    assert!(r.contains(r#""suffix":"gtt.net""#), "{r}");

    // Bare-hostname form on the same connection (persistent).
    let r = roundtrip(&mut conn, "ae1.lhr2.zayo.com");
    assert!(r.contains(r#""ok":true"#), "{r}");

    // Unknown suffix and non-matching shape miss, not error.
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.unknown.org"}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");

    // Batch: one line back, results in order.
    let r = roundtrip(
        &mut conn,
        r#"{"batch":["ae1.lhr2.gtt.net","nomatch.gtt.net","ae1.sfo3.gtt.net"]}"#,
    );
    assert!(r.starts_with(r#"{"results":["#), "{r}");
    assert_eq!(r.matches("\"host\"").count(), 3, "{r}");
    assert_eq!(r.matches(r#""ok":true"#).count(), 2, "{r}");

    // Malformed JSON answers an error object and keeps the connection.
    let r = roundtrip(&mut conn, r#"{"lookup":}"#);
    assert!(r.starts_with(r#"{"error":"#), "{r}");
    let r = roundtrip(&mut conn, r#"{"cmd":"ping"}"#);
    assert!(r.contains(r#""epoch":1"#), "{r}");

    drop(conn);
    server.shutdown();
}

#[test]
fn http_front_end() {
    let server = start(&ServeConfig::default(), &["gtt.net"]);

    let (status, body) = http(
        &server,
        "GET /lookup?h=ae1.lhr2.gtt.net HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("London"), "{body}");

    let (status, body) = http(&server, "GET /lookup HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("missing h parameter"), "{body}");

    let payload = "ae1.lhr2.gtt.net\nnomatch.gtt.net\n";
    let (status, body) = http(
        &server,
        &format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        ),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body.matches("\"host\"").count(), 2, "{body}");

    let (status, body) = http(&server, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains(r#""epoch":1"#), "{body}");

    let (status, body) = http(&server, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("hoiho_serve_epoch 1"), "{body}");
    assert!(body.contains("hoiho_serve_shards 1"), "{body}");

    let (status, _) = http(&server, "GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    server.shutdown();
}

#[test]
fn overload_sheds_with_503() {
    // One worker, queue of one. Jam the worker with a connection that
    // sends nothing; the next connection fills the queue; further ones
    // must be shed explicitly rather than queued or stalled.
    let cfg = ServeConfig {
        threads: 1,
        queue_cap: 1,
        limits: ConnLimits {
            idle_timeout: Duration::from_secs(2),
            ..ConnLimits::default()
        },
        ..ServeConfig::default()
    };
    let server = start(&cfg, &["gtt.net"]);

    let jam = connect(&server);
    std::thread::sleep(Duration::from_millis(200)); // worker picks jam up
    let queued = connect(&server);
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = connect(&server);
    let mut got = String::new();
    shed.read_to_string(&mut got).expect("read shed response");
    assert!(got.starts_with("HTTP/1.1 503"), "{got}");
    assert!(got.contains(r#"{"error":"overloaded"}"#), "{got}");

    // The jammed and queued connections still work once the worker
    // frees up.
    drop(jam);
    let mut queued = queued;
    let r = roundtrip(&mut queued, r#"{"lookup":"ae1.lhr2.gtt.net"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    drop(queued);
    server.shutdown();
}

#[test]
fn hot_reload_swaps_epoch_and_survives_corruption() {
    let path = tmp("reload-artifacts.txt");
    let index = open_file(&path, &["gtt.net"]);
    let server =
        Server::start(Arc::new(SharedIndex::new(index)), &reload_cfg(&path)).expect("bind");
    let mut conn = connect(&server);

    // Not served yet: zayo.com is not in epoch 1.
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");

    // Rewrite the artifact file; the watcher must swap it in.
    std::fs::write(&path, artifacts(&["gtt.net", "zayo.com"])).unwrap();
    await_epoch(&server, 2);
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    // Corrupt the file: a truncated block must fail loudly in the
    // watcher and keep the old index serving.
    std::fs::write(&path, "hoiho-artifacts-v1\nsuffix broken.net good\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = http(&server, "GET /metrics HTTP/1.1\r\n\r\n");
        if body.contains("hoiho_serve_reload_err 1") {
            break;
        }
        assert!(Instant::now() < deadline, "corrupt reload never reported");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.index().epoch(), 2, "corrupt file must not swap");
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":true"#), "old index keeps serving: {r}");

    drop(conn);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A rewrite between reading the initial index and starting the
/// watcher is not lost: the watcher starts from the stamp taken before
/// the read, not from the file as it finds it.
#[test]
fn rewrite_before_the_watcher_starts_is_reloaded() {
    let path = tmp("early-rewrite-artifacts.txt");
    let index = open_file(&path, &["gtt.net"]);
    // A different length, so the stamp differs whatever the mtime
    // granularity.
    std::fs::write(&path, artifacts(&["gtt.net", "zayo.com"])).unwrap();
    let server =
        Server::start(Arc::new(SharedIndex::new(index)), &reload_cfg(&path)).expect("bind");
    await_epoch(&server, 2);
    let mut conn = connect(&server);
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.zayo.com"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    drop(conn);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A same-length rewrite by rename whose mtime is pinned to the old
/// file's is reloaded: the new file's inode differs. (An in-place
/// same-length rewrite inside one mtime tick is not detected.)
#[cfg(unix)]
#[test]
fn same_length_rename_with_the_same_mtime_is_reloaded() {
    let path = tmp("rename-artifacts.txt");
    let next = tmp("rename-artifacts.txt.next");
    let index = open_file(&path, &["gtt.net"]);
    let server =
        Server::start(Arc::new(SharedIndex::new(index)), &reload_cfg(&path)).expect("bind");
    let before = std::fs::metadata(&path).unwrap();
    std::fs::write(&next, artifacts(&["ntt.net"])).unwrap();
    let file = std::fs::File::options().write(true).open(&next).unwrap();
    file.set_modified(before.modified().unwrap()).unwrap();
    drop(file);
    std::fs::rename(&next, &path).unwrap();
    let after = std::fs::metadata(&path).unwrap();
    assert_eq!(after.len(), before.len());
    assert_eq!(after.modified().unwrap(), before.modified().unwrap());

    await_epoch(&server, 2);
    let mut conn = connect(&server);
    let r = roundtrip(&mut conn, r#"{"lookup":"ae1.lhr2.ntt.net"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    drop(conn);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn protocol_shutdown_drains_gracefully() {
    let cfg = ServeConfig {
        limits: ConnLimits {
            read_timeout: Duration::from_secs(1),
            ..ConnLimits::default()
        },
        ..ServeConfig::default()
    };
    let server = start(&cfg, &["gtt.net"]);
    let addr = server.local_addr();

    let mut conn = connect(&server);
    let r = roundtrip(&mut conn, r#"{"cmd":"shutdown"}"#);
    assert!(r.contains(r#""draining":true"#), "{r}");
    drop(conn);

    // wait() returns: every thread exited.
    server.wait();

    // The listener is gone — a fresh connect must fail (or be reset
    // immediately), not hang.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = String::new();
            // Closed or shed immediately; never a successful lookup.
            let _ = s.write_all(b"{\"cmd\":\"ping\"}\n");
            let n = s.read_to_string(&mut buf).unwrap_or(0);
            assert!(n == 0 || buf.starts_with("HTTP/1.1 503"), "{buf}");
        }
    }
}

/// A worker blocked on an idle keep-alive connection does not hold the
/// drain for the connection's idle window (30 s by default).
#[test]
fn drain_does_not_wait_for_an_idle_keep_alive_connection() {
    let server = start(&ServeConfig::default(), &["gtt.net"]);
    let mut idle = connect(&server);
    let r = roundtrip(&mut idle, r#"{"lookup":"ae1.lhr2.gtt.net"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");

    let mut conn = connect(&server);
    let r = roundtrip(&mut conn, r#"{"cmd":"shutdown"}"#);
    assert!(r.contains(r#""draining":true"#), "{r}");
    let started = Instant::now();
    server.wait();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drain took {:?}",
        started.elapsed()
    );
    // The idle connection was closed, not answered.
    let mut rest = String::new();
    assert_eq!(idle.read_to_string(&mut rest).expect("read"), 0, "{rest}");
}
