//! Deterministic load generator for the `hoiho serve` lookup service.
//!
//! Boots an in-process server (corpus → learn → artifacts → index),
//! hammers it over real TCP connections with the line-JSON batch
//! protocol, and records client-observed throughput and latency
//! quantiles as one JSON object (stdout, plus `--out FILE` — the
//! `BENCH_serve.json` baseline comes from here).
//!
//! Mid-run the artifact file is rewritten (forcing a hot reload) and
//! then corrupted (forcing a rejected reload); both must complete with
//! **zero** failed client requests, which is the point of the epoch-swap
//! design. The workload is deterministic: hostname selection uses the
//! workspace xoshiro PRNG with a fixed seed, so two runs issue the same
//! request stream (timings, of course, differ).
//!
//! ```text
//! serve_load [--routers N] [--seed S] [--clients N] [--threads N]
//!            [--batch N] [--requests N] [--no-reload] [--out FILE]
//!            [--addr HOST:PORT]
//! ```
//!
//! `--addr` targets an already-running server instead of booting one
//! (the reload exercise is skipped — the file is not ours to touch).

use hoiho::artifact::write_artifacts;
use hoiho::{Geolocator, Hoiho, HoihoOptions};
use hoiho_bench::quantile;
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::rng::{Rng, StdRng};
use hoiho_serve::{ConnLimits, LookupIndex, ReloadConfig, ServeConfig, Server, SharedIndex};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    routers: usize,
    seed: u64,
    clients: usize,
    threads: usize,
    batch: usize,
    requests: usize,
    reload: bool,
    out: Option<String>,
    addr: Option<String>,
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
        routers: num("--routers", 4000),
        seed: num("--seed", 7) as u64,
        clients: num("--clients", 4),
        threads: num("--threads", 4),
        batch: num("--batch", 8).max(1),
        requests: num("--requests", 20_000),
        reload: !argv.iter().any(|a| a == "--no-reload"),
        out: value("--out"),
        addr: value("--addr"),
    }
}

/// One client's tally.
#[derive(Default)]
struct ClientStats {
    latency_us: Vec<f64>,
    hits: u64,
    lookups: u64,
    errors: u64,
}

fn main() {
    let args = parse_args();
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());

    // Corpus: the hostname pool the clients draw from (and, when we run
    // the server ourselves, the training set for its artifacts).
    eprintln!("generating {}-router corpus…", args.routers);
    let mut spec = CorpusSpec::ipv4_aug2020(args.routers);
    spec.seed = args.seed;
    let g = hoiho_itdk::generate(&db, &spec);
    let hosts: Vec<String> = g
        .corpus
        .routers
        .iter()
        .flat_map(|r| r.interfaces.iter())
        .filter_map(|i| i.hostname.as_ref())
        .map(|h| h.to_ascii_lowercase())
        .collect();
    assert!(!hosts.is_empty(), "corpus generated no hostnames");

    // Either boot an in-process server on an ephemeral port or target
    // an external one.
    let mut server = None;
    let mut artifact_path = None;
    let reload = args.reload && args.addr.is_none();
    let addr = match &args.addr {
        Some(a) => a.clone(),
        None => {
            eprintln!("learning artifacts…");
            let hoiho = Hoiho::with_options(&db, &psl, HoihoOptions::default());
            let report = hoiho.learn_corpus(&g.corpus);
            let geo = Geolocator::from_report(&report);
            let text = write_artifacts(&geo, &db);
            let path = std::env::temp_dir().join(format!(
                "hoiho-serve-load-{}-{}.artifacts",
                std::process::id(),
                args.seed
            ));
            std::fs::write(&path, &text).expect("write artifacts");
            let index = LookupIndex::from_artifacts(Arc::clone(&db), Arc::clone(&psl), &text)
                .expect("fresh artifacts parse");
            eprintln!("index: {} suffixes", index.len());
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: args.threads,
                queue_cap: 128,
                limits: ConnLimits {
                    read_timeout: Duration::from_secs(10),
                    idle_timeout: Duration::from_secs(10),
                    ..ConnLimits::default()
                },
                reload: reload.then(|| ReloadConfig {
                    path: path.clone(),
                    every: Duration::from_millis(30),
                }),
            };
            let s = Server::start(Arc::new(SharedIndex::new(index)), &cfg).expect("bind");
            let a = s.local_addr().to_string();
            server = Some(s);
            artifact_path = Some((path, text));
            a
        }
    };

    // Fixed total request count, spread over the clients; hostname
    // selection is seeded per client, so the request stream is
    // reproducible run to run.
    let done = Arc::new(AtomicUsize::new(0));
    let hosts = Arc::new(hosts);
    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..args.clients {
        let n = args.requests / args.clients
            + if c < args.requests % args.clients {
                1
            } else {
                0
            };
        let hosts = Arc::clone(&hosts);
        let done = Arc::clone(&done);
        let addr = addr.clone();
        let batch = args.batch;
        let seed = args.seed ^ (0xC11E57 + c as u64);
        workers.push(
            std::thread::Builder::new()
                .name(format!("load-client-{c}"))
                .spawn(move || client_loop(&addr, &hosts, seed, n, batch, &done))
                .expect("spawn client"),
        );
    }

    // The reload exercise: a benign rewrite at ~1/3 of the run (epoch
    // must advance), a corrupt rewrite at ~2/3 (epoch must NOT advance,
    // the old index keeps serving). Zero client errors either way.
    if reload {
        let (path, text) = artifact_path.as_ref().expect("in-process mode");
        let shared = server.as_ref().expect("in-process mode").index();
        let wait_until = |target: usize| {
            while done.load(Ordering::Relaxed) < target {
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        wait_until(args.requests / 3);
        std::fs::write(path, text).expect("rewrite artifacts");
        // Let the good reload land before corrupting the file —
        // otherwise a fast run overwrites it within one poll period and
        // the watcher only ever sees the corrupt version.
        let deadline = Instant::now() + Duration::from_secs(3);
        while shared.epoch() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_until(args.requests * 2 / 3);
        std::fs::write(path, "hoiho-artifacts-v1\nsuffix broken.net\n").expect("corrupt artifacts");
    }

    let mut total = ClientStats::default();
    for w in workers {
        let s = w.join().expect("client thread");
        total.latency_us.extend_from_slice(&s.latency_us);
        total.hits += s.hits;
        total.lookups += s.lookups;
        total.errors += s.errors;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Settle and verify the reload outcome before tearing down.
    let (mut reload_ok, mut reload_err, mut epoch) = (0, 0, 0);
    if let Some(s) = server {
        if reload {
            let deadline = Instant::now() + Duration::from_secs(3);
            while Instant::now() < deadline {
                let c = hoiho_obs::global().snapshot().counters;
                if c.get("serve.reload.err").copied().unwrap_or(0) >= 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let counters = hoiho_obs::global().snapshot().counters;
        reload_ok = counters.get("serve.reload.ok").copied().unwrap_or(0);
        reload_err = counters.get("serve.reload.err").copied().unwrap_or(0);
        epoch = s.index().epoch();
        s.shutdown();
    }
    if let Some((path, _)) = &artifact_path {
        std::fs::remove_file(path).ok();
    }

    let ms = |q| quantile(&total.latency_us, q) / 1e3;
    let record = format!(
        "{{\"bench\":\"serve_load\",\"seed\":{},\"routers\":{},\"clients\":{},\
         \"server_threads\":{},\"batch\":{},\"requests\":{},\"lookups\":{},\
         \"hits\":{},\"errors\":{},\"elapsed_s\":{:.3},\"lookups_per_sec\":{:.1},\
         \"latency_ms\":{{\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3},\"max\":{:.3}}},\
         \"reload\":{{\"exercised\":{},\"ok\":{},\"err\":{},\"epoch\":{}}}}}",
        args.seed,
        args.routers,
        args.clients,
        args.threads,
        args.batch,
        args.requests,
        total.lookups,
        total.hits,
        total.errors,
        elapsed,
        total.lookups as f64 / elapsed,
        ms(0.5),
        ms(0.9),
        ms(0.99),
        ms(1.0),
        reload,
        reload_ok,
        reload_err,
        epoch,
    );
    println!("{record}");
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{record}\n")).expect("write --out");
        eprintln!("wrote {out}");
    }

    // Hard checks: the epoch-swap design promises no failed requests
    // across both reloads, and the corrupt file must have been rejected
    // while the good one swapped in.
    let mut failed = Vec::new();
    if total.errors > 0 {
        failed.push(format!("{} client requests failed", total.errors));
    }
    if reload {
        if epoch < 2 || reload_ok < 1 {
            failed.push(format!("hot reload never landed (epoch {epoch})"));
        }
        if reload_err < 1 {
            failed.push("corrupt reload was not rejected".to_string());
        }
    }
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Drive one persistent connection: `n` batch requests of `batch`
/// hostnames each, drawn deterministically from `hosts`.
fn client_loop(
    addr: &str,
    hosts: &[String],
    seed: u64,
    n: usize,
    batch: usize,
    done: &AtomicUsize,
) -> ClientStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = ClientStats::default();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            stats.errors = n as u64;
            return stats;
        }
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut req = String::new();
    let mut resp = String::new();
    stats.latency_us.reserve(n);
    for _ in 0..n {
        req.clear();
        if batch == 1 {
            // A bare hostname line is the cheapest lookup form.
            req.push_str(&hosts[rng.random_range(0..hosts.len())]);
        } else {
            req.push_str("{\"batch\":[");
            for b in 0..batch {
                if b > 0 {
                    req.push(',');
                }
                req.push('"');
                req.push_str(&hosts[rng.random_range(0..hosts.len())]);
                req.push('"');
            }
            req.push_str("]}");
        }
        req.push('\n');
        let t = Instant::now();
        resp.clear();
        let ok = writer.write_all(req.as_bytes()).is_ok()
            && reader.read_line(&mut resp).is_ok_and(|r| r > 0);
        if !ok {
            stats.errors += 1;
            break;
        }
        stats.latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        stats.lookups += batch as u64;
        stats.hits += resp.matches("\"ok\":true").count() as u64;
        done.fetch_add(1, Ordering::Relaxed);
    }
    stats
}
