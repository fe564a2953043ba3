//! Deterministic chaos/soak harness for the `hoiho serve` robustness
//! layer.
//!
//! Boots a real server (corpus → learn → artifacts → index) under
//! deliberately tight [`ConnLimits`], then runs a fixed-duration soak
//! with a seeded (xoshiro) adversarial client mix *alongside*
//! well-behaved clients:
//!
//! - **stall** — connect and never speak (idle reap)
//! - **slow_writer** — one byte every few ms, no newline (byte-rate floor)
//! - **half_close** — a partial request line, then `shutdown(Write)`
//! - **trickle_http** — HTTP header lines fast enough for the byte-rate
//!   floor, for longer than the request deadline (408)
//! - **garbage** — random non-protocol bytes
//! - **trunc_http** — `Content-Length` larger than the delivered body
//! - **oversize_line** — a line far beyond the line cap
//! - **oversize_body** — a declared body beyond the body cap (413)
//! - **pipeline** — several requests written in one burst
//!
//! while a corruptor thread rewrites the artifact file good/corrupt in
//! a loop, so hot reloads (and rejected reloads) happen mid-flight.
//!
//! Before any of that starts, the well-behaved clients run alone
//! against the same server for a fixed calm window; that window's p99
//! is the run's own latency baseline.
//!
//! Every adversarial connection must *resolve* — answered, rejected,
//! or cut by a deadline — within a generous client-side deadline;
//! anything else counts as hung and fails the run. Well-behaved
//! requests must see zero errors, and their p99 while chaos runs must
//! stay within 5× the calm window's p99. Results land in one JSON
//! object (stdout, plus `--out FILE`).
//!
//! ```text
//! serve_chaos [--routers N] [--seed S] [--secs N] [--threads N]
//!             [--well-clients N] [--out FILE]
//! ```

use hoiho::artifact::write_artifacts;
use hoiho::{Geolocator, Hoiho, HoihoOptions};
use hoiho_bench::{generate_view, quantile};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::rng::{Rng, StdRng};
use hoiho_serve::{ConnLimits, LookupIndex, ReloadConfig, ServeConfig, Server, SharedIndex};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side patience: a connection the server has not resolved
/// (response, reject, or close) within this window counts as hung.
const CLIENT_DEADLINE: Duration = Duration::from_secs(5);

/// How long the well-behaved clients run alone before chaos starts;
/// their p99 over this window is the baseline the chaos p99 is held to.
const CALM_WINDOW: Duration = Duration::from_secs(2);

/// The chaos-phase p99 may be at most this multiple of the calm p99.
const P99_LIMIT: f64 = 5.0;

struct Args {
    routers: usize,
    seed: u64,
    secs: u64,
    threads: usize,
    well_clients: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let num = |flag: &str, default: usize| -> usize {
        value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} must be a number, got {v}"))
        })
    };
    Args {
        routers: num("--routers", 1500),
        seed: num("--seed", 7) as u64,
        secs: num("--secs", 10).max(1) as u64,
        threads: num("--threads", 8),
        well_clients: num("--well-clients", 2).max(1),
        out: value("--out"),
    }
}

/// The deliberately tight limits the soak runs under: short enough that
/// every defense fires many times in a ten-second run.
fn chaos_limits() -> ConnLimits {
    ConnLimits {
        read_timeout: Duration::from_secs(2),
        idle_timeout: Duration::from_millis(800),
        write_timeout: Duration::from_millis(500),
        max_line_bytes: 4096,
        max_header_bytes: 2048,
        max_body_bytes: 16 * 1024,
        max_requests: 2048,
        min_bytes_per_sec: 256,
    }
}

/// One adversary kind's tally.
#[derive(Default, Clone)]
struct KindStats {
    attempted: u64,
    resolved: u64,
    hung: u64,
}

/// Well-behaved clients' tally.
#[derive(Default)]
struct WellStats {
    /// Request latencies before chaos started.
    calm_us: Vec<f64>,
    /// Request latencies while chaos ran.
    latency_us: Vec<f64>,
    requests: u64,
    lookups: u64,
    hits: u64,
    errors: u64,
    reconnects: u64,
}

fn main() {
    let args = parse_args();
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());

    eprintln!("generating {}-router corpus…", args.routers);
    let mut spec = CorpusSpec::ipv4_aug2020(args.routers);
    spec.seed = args.seed;
    let view = generate_view(&db, &spec);
    let hosts: Vec<String> = view
        .routers()
        .flat_map(|r| r.hostnames())
        .map(str::to_ascii_lowercase)
        .collect();
    assert!(!hosts.is_empty(), "corpus generated no hostnames");

    eprintln!("learning artifacts…");
    let hoiho = Hoiho::with_options(&db, &psl, HoihoOptions::default());
    let report = hoiho.learn_view(&view);
    let geo = Geolocator::from_report(&report);
    let text = write_artifacts(&geo, &db);
    let path = std::env::temp_dir().join(format!(
        "hoiho-serve-chaos-{}-{}.artifacts",
        std::process::id(),
        args.seed
    ));
    std::fs::write(&path, &text).expect("write artifacts");
    let index =
        LookupIndex::open(Arc::clone(&db), Arc::clone(&psl), &path).expect("fresh artifacts parse");
    eprintln!("index: {} suffixes", index.len());

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: args.threads,
        queue_cap: 256,
        limits: chaos_limits(),
        reload: Some(ReloadConfig {
            path: path.clone(),
            every: Duration::from_millis(30),
        }),
    };
    let server = Server::start(Arc::new(SharedIndex::new(index)), &cfg).expect("bind");
    let addr = server.local_addr().to_string();
    eprintln!(
        "calm window: {}s, then chaos soak: {}s against {addr} ({} workers)…",
        CALM_WINDOW.as_secs(),
        args.secs,
        args.threads
    );

    let stop = Arc::new(AtomicBool::new(false));
    let chaos = Arc::new(AtomicBool::new(false));
    let hosts = Arc::new(hosts);

    // Well-behaved clients: persistent line-JSON batch connections that
    // must see zero failures while chaos runs around them.
    let mut well_threads = Vec::new();
    for c in 0..args.well_clients {
        let addr = addr.clone();
        let hosts = Arc::clone(&hosts);
        let chaos = Arc::clone(&chaos);
        let stop = Arc::clone(&stop);
        let seed = args.seed ^ (0x3E11 + c as u64);
        well_threads.push(
            std::thread::Builder::new()
                .name(format!("chaos-well-{c}"))
                .spawn(move || well_loop(&addr, &hosts, seed, &chaos, &stop))
                .expect("spawn well client"),
        );
    }
    std::thread::sleep(CALM_WINDOW);
    chaos.store(true, Ordering::Relaxed);
    let started = Instant::now();

    // Adversaries: the long-running kinds (each attack pins a worker
    // for hundreds of ms) on one thread, the quick kinds on another,
    // so total client-side concurrency stays bounded and deterministic.
    let slow_kinds: &[&str] = &["stall", "slow_writer", "half_close", "trickle_http"];
    let fast_kinds: &[&str] = &[
        "garbage",
        "trunc_http",
        "oversize_line",
        "oversize_body",
        "pipeline",
    ];
    let mut adversary_threads = Vec::new();
    for (i, kinds) in [slow_kinds, fast_kinds].into_iter().enumerate() {
        let addr = addr.clone();
        let hosts = Arc::clone(&hosts);
        let stop = Arc::clone(&stop);
        let seed = args.seed ^ (0xADE5_0000 + i as u64);
        adversary_threads.push(
            std::thread::Builder::new()
                .name(format!("chaos-adversary-{i}"))
                .spawn(move || adversary_loop(&addr, kinds, &hosts, seed, &stop))
                .expect("spawn adversary"),
        );
    }

    // The corruptor: alternates corrupt and good artifact rewrites so
    // hot reloads land (and are rejected) while requests are in flight.
    let corruptor = {
        let path = path.clone();
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("chaos-corruptor".to_string())
            .spawn(move || {
                let mut corrupt = true;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(250));
                    let payload = if corrupt {
                        "hoiho-artifacts-v1\nsuffix broken.net\n".to_string()
                    } else {
                        // Semantically identical but byte-distinct, so
                        // (mtime, len) changes and the watcher reloads.
                        format!("{text}\n")
                    };
                    let _ = std::fs::write(&path, payload);
                    corrupt = !corrupt;
                }
                // Leave the file good so the final state is servable.
                let _ = std::fs::write(&path, &text);
            })
            .expect("spawn corruptor")
    };

    std::thread::sleep(Duration::from_secs(args.secs));
    stop.store(true, Ordering::Relaxed);

    let mut panicked = 0u64;
    let mut well = WellStats::default();
    for t in well_threads {
        match t.join() {
            Ok(s) => {
                well.calm_us.extend_from_slice(&s.calm_us);
                well.latency_us.extend_from_slice(&s.latency_us);
                well.requests += s.requests;
                well.lookups += s.lookups;
                well.hits += s.hits;
                well.errors += s.errors;
                well.reconnects += s.reconnects;
            }
            Err(_) => panicked += 1,
        }
    }
    let mut kinds: BTreeMap<String, KindStats> = BTreeMap::new();
    for t in adversary_threads {
        match t.join() {
            Ok(map) => {
                for (k, v) in map {
                    let e = kinds.entry(k).or_default();
                    e.attempted += v.attempted;
                    e.resolved += v.resolved;
                    e.hung += v.hung;
                }
            }
            Err(_) => panicked += 1,
        }
    }
    if corruptor.join().is_err() {
        panicked += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    let counters = hoiho_obs::global().snapshot().counters;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let epoch = server.index().epoch();
    server.shutdown();
    std::fs::remove_file(&path).ok();

    let attempted: u64 = kinds.values().map(|k| k.attempted).sum();
    let resolved: u64 = kinds.values().map(|k| k.resolved).sum();
    let hung: u64 = kinds.values().map(|k| k.hung).sum();
    let ms = |q| quantile(&well.latency_us, q) / 1e3;
    let p99_ms = ms(0.99);
    let calm_p99_ms = quantile(&well.calm_us, 0.99) / 1e3;
    let p99_ratio = p99_ms / calm_p99_ms;

    let mut kinds_json = String::new();
    for (i, (k, s)) in kinds.iter().enumerate() {
        if i > 0 {
            kinds_json.push(',');
        }
        kinds_json.push_str(&format!(
            "\"{k}\":{{\"attempted\":{},\"resolved\":{},\"hung\":{}}}",
            s.attempted, s.resolved, s.hung
        ));
    }
    let record = format!(
        "{{\"bench\":\"serve_chaos\",\"seed\":{},\"routers\":{},\"secs\":{:.1},\
         \"server_threads\":{},\"well_clients\":{},\
         \"adversaries\":{{\"attempted\":{attempted},\"resolved\":{resolved},\"hung\":{hung},\
         \"kinds\":{{{kinds_json}}}}},\
         \"well\":{{\"requests\":{},\"lookups\":{},\"hits\":{},\"errors\":{},\
         \"reconnects\":{},\"latency_ms\":{{\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3},\"max\":{:.3}}}}},\
         \"server\":{{\"accepted\":{},\"reaped\":{},\"budget\":{},\"timeout_read\":{},\
         \"timeout_write\":{},\"reject_oversize\":{},\"reject_truncated\":{},\"reject_slow\":{},\
         \"reject_malformed\":{},\"shed_queue_full\":{},\"shed_draining\":{},\
         \"reload_ok\":{},\"reload_err\":{},\"epoch\":{epoch}}},\
         \"calm\":{{\"requests\":{},\"p99_ms\":{calm_p99_ms:.3}}},\"p99_ratio\":{p99_ratio:.2},\
         \"panicked\":{panicked}}}",
        args.seed,
        args.routers,
        elapsed,
        args.threads,
        args.well_clients,
        well.requests,
        well.lookups,
        well.hits,
        well.errors,
        well.reconnects,
        ms(0.5),
        ms(0.9),
        p99_ms,
        ms(1.0),
        c("serve.conn.accepted"),
        c("serve.conn.reaped"),
        c("serve.conn.budget"),
        c("serve.timeout.read"),
        c("serve.timeout.write"),
        c("serve.reject.oversize"),
        c("serve.reject.truncated"),
        c("serve.reject.slow"),
        c("serve.reject.malformed"),
        c("serve.shed.queue_full"),
        c("serve.shed.draining"),
        c("serve.reload.ok"),
        c("serve.reload.err"),
        well.calm_us.len(),
    );
    println!("{record}");
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{record}\n")).expect("write --out");
        eprintln!("wrote {out}");
    }

    // Hard checks: the robustness layer's contract.
    let mut failed = Vec::new();
    if panicked > 0 {
        failed.push(format!("{panicked} threads panicked"));
    }
    if hung > 0 {
        failed.push(format!("{hung} adversarial connections hung unresolved"));
    }
    for (k, s) in &kinds {
        if s.attempted == 0 {
            failed.push(format!("adversary kind '{k}' never ran"));
        } else if s.resolved != s.attempted {
            failed.push(format!(
                "kind '{k}': {}/{} connections unresolved",
                s.attempted - s.resolved,
                s.attempted
            ));
        }
    }
    if well.calm_us.is_empty() || well.latency_us.is_empty() {
        failed.push(format!(
            "well-behaved clients issued {} calm and {} chaos requests (need both)",
            well.calm_us.len(),
            well.latency_us.len()
        ));
    }
    if well.errors > 0 {
        failed.push(format!("{} well-behaved requests failed", well.errors));
    }
    if c("serve.reload.ok") < 1 || c("serve.reload.err") < 1 {
        failed.push(format!(
            "reload churn incomplete (ok {}, err {})",
            c("serve.reload.ok"),
            c("serve.reload.err")
        ));
    }
    if c("serve.timeout.read") + c("serve.conn.reaped") + c("serve.reject.slow") == 0 {
        failed.push("no deadline ever fired — limits are not engaged".to_string());
    }
    if p99_ratio > P99_LIMIT {
        failed.push(format!(
            "well-behaved p99 {p99_ms:.3}ms is {p99_ratio:.1}× the calm p99 \
             {calm_p99_ms:.3}ms (limit {P99_LIMIT}×)"
        ));
    }
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "chaos OK: {attempted} adversarial connections all resolved, \
         {} well-behaved requests (0 errors), p99 {p99_ms:.3}ms \
         ({p99_ratio:.2}× the calm p99 {calm_p99_ms:.3}ms)",
        well.requests
    );
}

/// One well-behaved client: persistent batch lookups, reconnecting on
/// a clean close (the request-budget path) without counting an error.
fn well_loop(
    addr: &str,
    hosts: &[String],
    seed: u64,
    chaos: &AtomicBool,
    stop: &AtomicBool,
) -> WellStats {
    const BATCH: usize = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = WellStats::default();
    let connect = |stats: &mut WellStats| -> Option<(TcpStream, BufReader<TcpStream>)> {
        for _ in 0..50 {
            if let Ok(s) = TcpStream::connect(addr) {
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(CLIENT_DEADLINE)).ok();
                let reader = BufReader::new(s.try_clone().ok()?);
                return Some((s, reader));
            }
            stats.reconnects += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    };
    let Some((mut writer, mut reader)) = connect(&mut stats) else {
        stats.errors += 1;
        return stats;
    };
    let mut req = String::new();
    let mut resp = String::new();
    while !stop.load(Ordering::Relaxed) {
        req.clear();
        req.push_str("{\"batch\":[");
        for b in 0..BATCH {
            if b > 0 {
                req.push(',');
            }
            req.push('"');
            req.push_str(&hosts[rng.random_range(0..hosts.len())]);
            req.push('"');
        }
        req.push_str("]}\n");
        let calm = !chaos.load(Ordering::Relaxed);
        let t = Instant::now();
        resp.clear();
        let mut ok = writer.write_all(req.as_bytes()).is_ok()
            && reader.read_line(&mut resp).is_ok_and(|r| r > 0);
        if !ok {
            // A clean budget close: reconnect once and retry the same
            // request before declaring an error.
            stats.reconnects += 1;
            let Some((w, r)) = connect(&mut stats) else {
                stats.errors += 1;
                break;
            };
            writer = w;
            reader = r;
            resp.clear();
            ok = writer.write_all(req.as_bytes()).is_ok()
                && reader.read_line(&mut resp).is_ok_and(|n| n > 0);
        }
        if !ok {
            stats.errors += 1;
            break;
        }
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        if calm {
            stats.calm_us.push(us);
        } else {
            stats.latency_us.push(us);
        }
        stats.requests += 1;
        stats.lookups += BATCH as u64;
        stats.hits += resp.matches("\"ok\":true").count() as u64;
    }
    stats
}

/// Cycle through `kinds`, one attack per iteration, until the soak
/// ends. Returns per-kind stats.
fn adversary_loop(
    addr: &str,
    kinds: &[&str],
    hosts: &[String],
    seed: u64,
    stop: &AtomicBool,
) -> BTreeMap<String, KindStats> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats: BTreeMap<String, KindStats> = BTreeMap::new();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let kind = kinds[i % kinds.len()];
        i += 1;
        let Ok(stream) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(CLIENT_DEADLINE)).ok();
        stream.set_write_timeout(Some(CLIENT_DEADLINE)).ok();
        let entry = stats.entry(kind.to_string()).or_default();
        entry.attempted += 1;
        let resolved = attack(kind, stream, hosts, &mut rng, stop);
        if resolved {
            entry.resolved += 1;
        } else {
            entry.hung += 1;
        }
        // Seeded jitter so attacks interleave differently each cycle
        // but identically across runs with the same seed.
        std::thread::sleep(Duration::from_millis(5 + rng.random_range(0..20)));
    }
    stats
}

/// Run one attack; `true` means the server resolved the connection
/// (response, reject, or close) within [`CLIENT_DEADLINE`].
fn attack(
    kind: &str,
    mut s: TcpStream,
    hosts: &[String],
    rng: &mut StdRng,
    stop: &AtomicBool,
) -> bool {
    match kind {
        // Connect and never speak: the idle reaper must close us.
        "stall" => drain(&mut s).is_some(),
        // One byte at a time, never a newline: the byte-rate floor (or
        // the completion deadline) must cut us off.
        "slow_writer" => {
            for _ in 0..80 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if s.write_all(b"x").is_err() {
                    return true; // server closed on us mid-trickle
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            drain(&mut s).is_some()
        }
        // A partial request line, then FIN: truncated, no response.
        "half_close" => {
            let _ = s.write_all(b"{\"look");
            if s.shutdown(Shutdown::Write).is_err() {
                return true;
            }
            drain(&mut s).is_some()
        }
        // A 64-byte header line every 100 ms is well above the byte-rate
        // floor, but the request's one deadline must still cut it.
        "trickle_http" => {
            let mut got = String::new();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n");
            s.set_read_timeout(Some(Duration::from_millis(100))).ok();
            let mut buf = [0u8; 4096];
            for i in 0..40 {
                // Wait for an answer before each line, so one that came
                // is read before a later write could reset the socket.
                match s.read(&mut buf) {
                    Ok(n) => {
                        got.push_str(&String::from_utf8_lossy(&buf[..n]));
                        break;
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
                let line = format!("X-Trickle-{i:02}: {}\r\n", "t".repeat(48));
                if stop.load(Ordering::Relaxed) || s.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            s.set_read_timeout(Some(CLIENT_DEADLINE)).ok();
            match drain(&mut s) {
                Some(rest) => !(got + &rest).contains("200 OK"),
                None => false,
            }
        }
        // Random non-protocol bytes: an error (or a bare-hostname miss)
        // must come back, never a hang.
        "garbage" => {
            let n = 8 + rng.random_range(0..64usize);
            let mut junk: Vec<u8> = (0..n)
                .map(|_| {
                    let b = rng.random_range(0..255u8);
                    if b == b'\n' || b == b'\r' {
                        b'#'
                    } else {
                        b
                    }
                })
                .collect();
            junk.push(b'\n');
            if s.write_all(&junk).is_err() {
                return true;
            }
            let _ = s.shutdown(Shutdown::Write);
            drain(&mut s).is_some()
        }
        // Content-Length promises more than we deliver.
        "trunc_http" => {
            let _ = s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 2048\r\n\r\ntoo-short");
            let _ = s.shutdown(Shutdown::Write);
            match drain(&mut s) {
                Some(resp) => !resp.contains("200 OK"),
                None => false,
            }
        }
        // A single line far beyond the line cap: explicit reject.
        "oversize_line" => {
            let long = "z".repeat(8 * 1024);
            let _ = s.write_all(long.as_bytes());
            let _ = s.write_all(b"\n");
            drain(&mut s).is_some()
        }
        // A declared body beyond the cap: 413 without reading it.
        "oversize_body" => {
            if s.write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 32768\r\n\r\n")
                .is_err()
            {
                return true;
            }
            match drain(&mut s) {
                Some(resp) => resp.contains("413") || resp.contains("503"),
                None => false,
            }
        }
        // Several requests in one burst: each must get a response.
        "pipeline" => {
            let mut burst = String::new();
            for _ in 0..4 {
                burst.push_str(&hosts[rng.random_range(0..hosts.len())]);
                burst.push('\n');
            }
            if s.write_all(burst.as_bytes()).is_err() {
                return true;
            }
            let mut reader = BufReader::new(s);
            let mut got = 0;
            let mut line = String::new();
            for _ in 0..4 {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break, // shed/close resolves the rest
                    Ok(_) => got += 1,
                    Err(_) => return false,
                }
            }
            got >= 1
        }
        other => unreachable!("unknown adversary kind {other}"),
    }
}

/// Read until the server closes (or resets) the connection. `Some` is
/// resolution (with whatever was received); `None` means the client
/// deadline expired with the connection still open — a hang.
fn drain(s: &mut TcpStream) -> Option<String> {
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return Some(out),
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return None
            }
            Err(_) => return Some(out), // reset = resolved
        }
    }
}
