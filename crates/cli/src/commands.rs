//! Subcommand implementations.

use crate::args::Options;
use crate::{read_stdin_lines, write_file};
use hoiho::artifact::{parse_artifacts, write_artifacts};
use hoiho::stale::detect_stale;
use hoiho::{Geolocator, Hoiho, HoihoOptions};
use hoiho_geodb::GeoDb;
use hoiho_itdk::format::{parse_corpus, write_corpus};
use hoiho_itdk::spec::CorpusSpec;
use hoiho_itdk::stats::CorpusStats;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::ConsistencyPolicy;
use hoiho_serve::{ConnLimits, LookupIndex, ReloadConfig, ServeConfig, Server, SharedIndex};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Attach observability sinks per the `--metrics`, `--progress`, and
/// `-v/--trace` flags. Returns a guard whose `Drop` finishes the run:
/// sinks flush their summary and `--trace` prints the span tree.
fn setup_obs(opts: &Options) -> Result<ObsGuard, String> {
    let reg = hoiho_obs::global();
    if let Some(path) = opts.get("metrics") {
        let sink =
            hoiho_obs::JsonlSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        reg.add_sink(std::sync::Arc::new(sink));
    }
    if opts.has("--progress") {
        reg.add_sink(std::sync::Arc::new(hoiho_obs::StderrProgressSink));
    }
    let trace = opts.has("--trace");
    if trace {
        reg.set_enabled(true);
    }
    Ok(ObsGuard { trace })
}

struct ObsGuard {
    trace: bool,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let reg = hoiho_obs::global();
        if !reg.enabled() {
            return;
        }
        let snap = reg.finish();
        if self.trace {
            eprint!("{}", snap.render_span_tree());
            eprint!("{}", snap.render_summary());
        }
    }
}

fn load_corpus(opts: &Options, db_len: usize) -> Result<hoiho_itdk::Corpus, String> {
    let path = opts.require("corpus")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let corpus = parse_corpus(&text).map_err(|e| e.to_string())?;
    // Sanity: the corpus references dictionary ids; a corpus generated
    // against a larger dictionary cannot be interpreted by this one.
    for r in &corpus.routers {
        if r.location.0 as usize >= db_len {
            return Err(format!(
                "corpus references location {} but the builtin dictionary has {} entries; \
                 the corpus was generated against another dictionary",
                r.location.0, db_len
            ));
        }
    }
    Ok(corpus)
}

/// `hoiho generate`
pub fn generate(opts: &Options) -> Result<(), String> {
    let db = GeoDb::builtin();
    let routers = opts.num("routers", 2000)? as usize;
    let seed = opts.num("seed", 1)?;
    let ipv6 = opts.has("--ipv6");
    let mut spec = if ipv6 {
        CorpusSpec::ipv6_nov2020(routers)
    } else {
        CorpusSpec::ipv4_aug2020(routers)
    };
    spec.seed = seed;
    if let Some(ops) = opts.get("operators") {
        spec.operators = ops
            .parse()
            .map_err(|_| "--operators must be a number".to_string())?;
    }
    let g = hoiho_itdk::generate(&db, &spec);
    let out = opts.require("out")?;
    write_file(out, &write_corpus(&g.corpus))?;
    eprintln!(
        "wrote {} routers ({} with hostnames), {} VPs to {out}",
        g.corpus.len(),
        g.corpus.routers.iter().filter(|r| r.has_hostname()).count(),
        g.corpus.vps.len()
    );
    Ok(())
}

/// `hoiho learn`
pub fn learn(opts: &Options) -> Result<(), String> {
    let _obs = setup_obs(opts)?;
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = load_corpus(opts, db.len())?;
    let hoiho_opts = HoihoOptions {
        learn_custom_hints: !opts.has("--no-learned-hints"),
        threads: opts.num("threads", 0)? as usize,
        ..Default::default()
    };
    if opts.has("--trace") {
        eprintln!("using {} worker threads", hoiho_opts.resolved_threads());
    }
    let hoiho = Hoiho::with_options(&db, &psl, hoiho_opts);
    let report = hoiho.learn_corpus(&corpus);
    let geo = Geolocator::from_report(&report);
    let out = opts.require("out")?;
    write_file(out, &write_artifacts(&geo, &db))?;
    let (good, promising, poor) = report.class_counts();
    eprintln!(
        "learned {} usable conventions (good {good}, promising {promising}, poor {poor}); \
         {} learned hints; wrote {out}",
        geo.len(),
        report
            .results
            .iter()
            .map(|r| r.learned.len())
            .sum::<usize>(),
    );
    Ok(())
}

/// `hoiho apply`
pub fn apply(opts: &Options) -> Result<(), String> {
    let _obs = setup_obs(opts)?;
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let path = opts.require("artifacts")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let geo = parse_artifacts(&text, &db).map_err(|e| e.to_string())?;
    let hostnames = if opts.positional.is_empty() {
        read_stdin_lines()
    } else {
        opts.positional.clone()
    };
    // Buffered, since stdout alone writes once per line: about a third
    // of apply's time at 1M hostnames. Tolerate a closed pipe
    // (`hoiho apply … | head`).
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for h in &hostnames {
        let line = match geo.geolocate(&db, &psl, h) {
            Some(inf) => {
                let l = db.location(inf.location);
                format!(
                    "{h}\t{}\t{:.4},{:.4}\t{}\t{}{}",
                    l.display_name(),
                    l.coords.lat(),
                    l.coords.lon(),
                    inf.ty,
                    inf.hint,
                    if inf.learned_hint { " (learned)" } else { "" }
                )
            }
            None => format!("{h}\t-"),
        };
        if writeln!(out, "{line}").is_err() {
            return Ok(());
        }
    }
    let _ = out.flush();
    Ok(())
}

/// `hoiho serve`
pub fn serve(opts: &Options) -> Result<(), String> {
    let _obs = setup_obs(opts)?;
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());
    let path = opts.require("artifacts")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let index = LookupIndex::from_artifacts(db, psl, &text).map_err(|e| e.to_string())?;
    if index.is_empty() {
        return Err(format!("{path} holds no usable conventions"));
    }
    let reload_ms = opts.num("reload-ms", 1000)?;
    // 0 = auto-detect, the same convention HoihoOptions uses for learn.
    let threads = match opts.num("threads", 0)? as usize {
        0 => HoihoOptions::default().resolved_threads(),
        n => n,
    };
    let defaults = ConnLimits::default();
    let limits = ConnLimits {
        read_timeout: Duration::from_millis(
            opts.num("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?
                .max(1),
        ),
        idle_timeout: Duration::from_millis(
            opts.num("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?
                .max(1),
        ),
        max_body_bytes: opts.num("max-body-bytes", defaults.max_body_bytes as u64)? as usize,
        ..defaults
    };
    let cfg = ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:3845").to_string(),
        threads,
        queue_cap: opts.num("queue", ServeConfig::default().queue_cap as u64)? as usize,
        limits,
        reload: (reload_ms > 0).then(|| ReloadConfig {
            path: path.into(),
            every: Duration::from_millis(reload_ms),
        }),
    };
    let suffixes = index.len();
    let server = Server::start(Arc::new(SharedIndex::new(index)), &cfg)
        .map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = server.local_addr();
    // The --port-file handshake: scripts bind port 0 and read the real
    // port back once the file appears.
    if let Some(port_file) = opts.get("port-file") {
        write_file(port_file, &format!("{}\n", addr.port()))?;
    }
    eprintln!(
        "serving {suffixes} suffixes on {addr} ({} workers, queue {}, reload {})",
        cfg.threads,
        cfg.queue_cap,
        if reload_ms > 0 {
            format!("every {reload_ms}ms")
        } else {
            "off".to_string()
        }
    );
    eprintln!("stop with: POST /shutdown or the line request {{\"cmd\":\"shutdown\"}}");
    server.wait();
    eprintln!("drained; bye");
    Ok(())
}

/// `hoiho stats`
pub fn stats(opts: &Options) -> Result<(), String> {
    let db = GeoDb::builtin();
    let corpus = load_corpus(opts, db.len())?;
    let s = CorpusStats::of(&corpus);
    println!("label:         {}", s.label);
    println!("routers:       {}", s.routers);
    println!(
        "with hostname: {} ({:.1}%)",
        s.with_hostname,
        s.hostname_pct()
    );
    println!("with RTT:      {} ({:.1}%)", s.with_rtt, s.rtt_pct());
    println!("vantage pts:   {}", s.vps);
    Ok(())
}

/// `hoiho stale`
pub fn stale(opts: &Options) -> Result<(), String> {
    let _obs = setup_obs(opts)?;
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let corpus = load_corpus(opts, db.len())?;
    let path = opts.require("artifacts")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let geo = parse_artifacts(&text, &db).map_err(|e| e.to_string())?;
    let findings = detect_stale(&db, &psl, &geo, &corpus, &ConsistencyPolicy::STRICT);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for f in &findings {
        let hinted = db.location(f.hinted).display_name();
        let consensus = f
            .consensus
            .map(|c| db.location(c).display_name())
            .unwrap_or_else(|| "-".to_string());
        if writeln!(
            out,
            "{}\thints {}\tsiblings say {}",
            f.hostname, hinted, consensus
        )
        .is_err()
        {
            return Ok(());
        }
    }
    eprintln!("{} suspicious hostnames", findings.len());
    Ok(())
}
