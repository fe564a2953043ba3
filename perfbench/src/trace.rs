//! The traced run: the benchmark's inputs pushed through each layer's
//! public functions, single-threaded and in the order
//! `Hoiho::learn_corpus` calls them, each call timed from here.
//!
//! Spans are kept in memory and printed to stderr as the run ends; the
//! result line carries the per-layer metrics.

use crate::child::{self, Server};
use crate::inputs::{self, fnv1a};
use crate::load;
use crate::stats::{median, percentile};
use crate::workload::{self, check_pin, Expected, Outcome, Rewriter, WorkDir};
use hoiho::artifact::{parse_artifacts, write_artifacts};
use hoiho::{Geolocator, Hoiho, HoihoOptions, LearnReport, NcClass};
use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::ConsistencyPolicy;
use hoiho_serve::{proto, LookupIndex};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds of the per-hostname timings. Each round makes one pass of
/// every timed function over the lookup stream, one function after the
/// other, and each function reports the median of its rounds: a slow
/// spell of the shared box then lands on one round of every function
/// instead of on all passes of one.
const ROUNDS: usize = 9;
/// Open-loop rate and length of the traced TCP session.
const SESSION_RATE: f64 = 20_000.0;
const SESSION: Duration = Duration::from_secs(2);

struct Spans {
    origin: Instant,
    spans: Vec<(&'static str, Duration, Duration)>,
}

impl Spans {
    /// Run `f` as one span and return its result and duration.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let took = start.elapsed();
        self.spans.push((name, start - self.origin, took));
        (value, took)
    }

    fn print(&self) {
        eprintln!("-- spans (start, duration) --");
        for (name, start, took) in &self.spans {
            eprintln!("  {:>10.3} ms {:>12.3} ms  {name}", ms(*start), ms(*took));
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds per item of one pass of `f` over `items`.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_nanos() as f64 / items.len() as f64
}

/// Run the traced pass and report every per-layer metric. Both
/// workloads share their inputs, so their traced runs are the same.
pub fn run(seed: u64, hoiho: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = WorkDir::new()?;
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };

    // itdk: the corpus file as `hoiho learn` reads it.
    let corpus_path = work.join("corpus.txt");
    let text = inputs::corpus_text();
    check_pin(
        &mut out,
        "corpus",
        fnv1a(text.as_bytes()),
        workload::PINNED_CORPUS,
    );
    std::fs::write(&corpus_path, &text).map_err(|e| e.to_string())?;
    drop(text);
    let (text, read) = spans.time("itdk.read", || std::fs::read_to_string(&corpus_path));
    let text = text.map_err(|e| e.to_string())?;
    let (corpus, parse) = spans.time("itdk.parse_corpus", || {
        hoiho_itdk::format::parse_corpus(&text)
    });
    let corpus = corpus.map_err(|e| e.to_string())?;
    out.metric("itdk.read_ms", ms(read), "ms");
    out.metric("itdk.parse_corpus_ms", ms(parse), "ms");
    out.metric("itdk.corpus_mb", text.len() as f64 / 1e6, "MB");
    let samples: usize = corpus
        .routers
        .iter()
        .map(|r| r.rtts.len() + r.traceroute_rtts.len())
        .sum();
    out.metric("itdk.rtt_samples", samples as f64, "count");
    drop(text);

    // rttsim: the spoofed-VP filter, then the clean copy the learner
    // builds when it found any.
    let (spoofed, filter) = spans.time("rttsim.detect_spoofing_vps_blind", || {
        let refs: Vec<&hoiho_rtt::RouterRtts> = corpus.routers.iter().map(|r| &r.rtts).collect();
        hoiho_rtt::fault::detect_spoofing_vps_blind(&corpus.vps, &refs, 5.0, 5.0, 20)
    });
    out.metric("rttsim.filter_vps_ms", ms(filter), "ms");
    out.metric("rttsim.spoofed_vps", spoofed.len() as f64, "count");
    let want = inputs::SPOOFERS;
    out.check(1, u64::from(spoofed.len() != want), || {
        format!("{} spoofing VPs detected, {want} injected", spoofed.len())
    });
    let (clean, strip) = spans.time("rttsim.strip_vps", || {
        (!spoofed.is_empty()).then(|| {
            let mut clean = corpus.clone();
            for r in &mut clean.routers {
                r.rtts = hoiho_rtt::fault::strip_vps(&r.rtts, &spoofed);
                r.traceroute_rtts = hoiho_rtt::fault::strip_vps(&r.traceroute_rtts, &spoofed);
            }
            clean
        })
    });
    out.metric("rttsim.strip_vps_ms", ms(strip), "ms");
    let stream = inputs::zipf_stream(&inputs::hostnames(&corpus), inputs::STREAM_LEN, seed);
    let corpus = clean.unwrap_or(corpus);

    // core, stage 2.
    let (sets, train) = spans.time("core.build_training_sets", || {
        hoiho::train::build_training_sets(&db, &psl, &corpus, &ConsistencyPolicy::STRICT)
    });
    out.metric("core.train_ms", ms(train), "ms");
    let hosts: usize = sets.iter().map(|s| s.hosts.len()).sum();
    let tagged: usize = sets.iter().map(|s| s.tagged()).sum();
    out.metric(
        "core.tagged_share",
        tagged as f64 / hosts.max(1) as f64,
        "ratio",
    );

    // core, stages 3-5, one suffix at a time.
    let learner = Hoiho::with_options(
        &db,
        &psl,
        HoihoOptions {
            threads: 1,
            ..HoihoOptions::default()
        },
    );
    let (mut total, mut slowest, mut poor) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut results = Vec::with_capacity(sets.len());
    let learn_start = Instant::now();
    for set in &sets {
        let start = Instant::now();
        let r = learner.learn_suffix(&corpus.vps, set);
        let took = start.elapsed();
        total += took;
        slowest = slowest.max(took);
        if r.class == NcClass::Poor {
            poor += took;
        }
        results.push(r);
    }
    spans
        .spans
        .push(("core.learn_suffix (all)", learn_start - spans.origin, total));
    out.metric("core.learn_suffix_ms", ms(total), "ms");
    out.metric("core.learn_suffix_max_ms", ms(slowest), "ms");
    out.metric("core.learn_suffix_poor_ms", ms(poor), "ms");
    let usable = results.iter().filter(|r| r.class.usable()).count();
    out.metric(
        "core.usable_share",
        usable as f64 / results.len().max(1) as f64,
        "ratio",
    );
    let report = LearnReport {
        label: corpus.label.clone(),
        results,
        total_routers: corpus.len(),
        routers_with_hostname: 0,
        routers_with_apparent: 0,
        routers_geolocated: 0,
        routers_extrapolated: 0,
        spoofed_vps: spoofed,
    };
    drop(sets);
    drop(corpus);

    // core, artifact and apply.
    let (artifacts, write) = spans.time("core.write_artifacts", || {
        write_artifacts(&Geolocator::from_report(&report), &db)
    });
    out.metric("core.write_artifacts_ms", ms(write), "ms");
    // The in-process learn must write what the CLI writes.
    check_pin(
        &mut out,
        "artifact",
        fnv1a(artifacts.as_bytes()),
        workload::PINNED_ARTIFACT,
    );
    let (geo, parse) = spans.time("core.parse_artifacts", || parse_artifacts(&artifacts, &db));
    let geo = geo.map_err(|e| e.to_string())?;
    out.metric("core.parse_artifacts_ms", ms(parse), "ms");
    let tcp_stream = &stream[..workload::TCP_STREAM];

    // serve, in process.
    let (index, build) = spans.time("serve.LookupIndex::from_artifacts", || {
        LookupIndex::from_artifacts(
            Arc::new(GeoDb::builtin()),
            Arc::new(PublicSuffixList::builtin()),
            &artifacts,
        )
    });
    let index = index.map_err(|e| e.to_string())?;
    out.metric("serve.index_build_ms", ms(build), "ms");
    let mut scratch = String::new();
    let answers: Vec<_> = tcp_stream
        .iter()
        .map(|h| (h, index.lookup(h, &mut scratch)))
        .collect();
    let hits = answers.iter().filter(|(_, inf)| inf.is_some()).count();
    out.metric(
        "serve.hit_share",
        hits as f64 / tcp_stream.len() as f64,
        "ratio",
    );

    // Per-hostname calls of core, psl and serve, in interleaved rounds.
    let lower: Vec<String> = tcp_stream.iter().map(|h| h.to_ascii_lowercase()).collect();
    let lines: Vec<String> = tcp_stream
        .iter()
        .map(|h| format!("{{\"lookup\":\"{}\"}}", proto::json_escape(h)))
        .collect();
    let mut rendered = String::new();
    let mut rounds: [Vec<f64>; 5] = Default::default();
    spans.time("per-hostname calls (interleaved)", || {
        for _ in 0..ROUNDS {
            rounds[0].push(ns_per(tcp_stream, |h| {
                black_box(geo.geolocate(&db, &psl, black_box(h)));
            }));
            rounds[1].push(ns_per(&lower, |h| {
                black_box(psl.registerable_suffix_of(black_box(h)));
            }));
            rounds[2].push(ns_per(tcp_stream, |h| {
                black_box(index.lookup(black_box(h), &mut scratch));
            }));
            rounds[3].push(ns_per(&lines, |l| {
                black_box(proto::parse_request(black_box(l)));
            }));
            rounds[4].push(ns_per(&answers, |(h, inf)| {
                rendered.clear();
                proto::render_result(index.db(), h, inf.as_ref(), &mut rendered);
                black_box(&rendered);
            }));
        }
    });
    let [geolocate, route, lookup, parse_ns, render_ns] = rounds.map(|r| median(&r));
    out.metric("core.geolocate_ns", geolocate, "ns");
    out.metric("psl.route_ns", route, "ns");
    out.metric("serve.lookup_ns", lookup, "ns");
    out.metric("serve.proto_parse_ns", parse_ns, "ns");
    out.metric("serve.proto_render_ns", render_ns, "ns");

    // serve, over TCP: a short open loop of single lookups against a
    // `hoiho serve` child while the artifact is rewritten.
    let served = work.join("served.txt");
    std::fs::write(&served, &artifacts).map_err(|e| e.to_string())?;
    let expected = Expected::new(&artifacts)?;
    let script = workload::single_script(tcp_stream, &[&expected]);
    let (session, metrics) = spans
        .time("serve over TCP", || -> Result<_, String> {
            let server = Server::start(hoiho, &served, workload::RELOAD_MS, work.path())?;
            let rewriter = Rewriter::new(&served, [&artifacts, &artifacts]);
            let session = rewriter.during(|| {
                load::open_loop(
                    &server.addr,
                    &script,
                    2,
                    0,
                    SESSION_RATE,
                    SESSION,
                    Duration::from_secs(5),
                )
            })?;
            rewriter.verify(&server, &mut out)?;
            let metrics = server.metrics()?;
            server.stop()?;
            Ok((session, metrics))
        })
        .0?;
    out.check(session.requests, session.failed, || {
        "TCP answers differ".into()
    });
    let p50 = percentile(&session.latencies_ms, 0.5).ok_or("too few TCP samples")?;
    out.metric(
        "serve.wire_us",
        p50 * 1e3 - (parse_ns + lookup + render_ns) / 1e3,
        "us",
    );
    let p99 = percentile(&session.latencies_ms, 0.99).ok_or("too few TCP samples for p99")?;
    out.metric("serve.tcp_p99_ms", p99, "ms");
    out.metric("serve.shed", workload::refused(&metrics) as f64, "count");
    let reloads = child::prom_counter(&metrics, "hoiho_serve_reload_ok").unwrap_or(0);
    out.metric("serve.reload_ok", reloads as f64, "count");
    out.metric("serve.metrics_bytes", metrics.len() as f64, "bytes");
    let late = percentile(&session.late_ms, 0.99).ok_or("too few sends for p99")?;
    out.metric("loadgen.late_ms_p99", late, "ms");
    spans.print();
    Ok(out)
}
