//! Deterministic timing harness for the stage-3–5 learn path.
//!
//! Generates a seeded corpus (workspace xoshiro PRNG, so the corpus —
//! and therefore the learner's work — is identical run to run), times
//! `learn_corpus` on it, and writes one JSON record (stdout, plus
//! `--out FILE` — the `BENCH_learn.json` baseline comes from here) with
//! wall time, suffixes/s, hosts/s, and the EvalContext cache hit rates
//! read back from the global `hoiho-obs` counters.
//!
//! ```text
//! learn_bench [--routers N] [--seed S] [--threads N] [--repeat N]
//!             [--out FILE]
//! ```
//!
//! `--threads 1` (the default) times the single-threaded learn path —
//! the number the EvalContext refactor is benchmarked on; `--repeat`
//! reports the fastest of N runs to damp scheduler noise. Every repeat
//! must write the same artifacts as the first; a mismatch exits 1.

use hoiho::artifact::write_artifacts;
use hoiho::{Geolocator, Hoiho, HoihoOptions, LearnReport};
use hoiho_geodb::GeoDb;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use std::time::Instant;

struct Args {
    routers: usize,
    seed: u64,
    threads: usize,
    repeat: usize,
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
        routers: num("--routers", 2000),
        seed: num("--seed", 7) as u64,
        threads: num("--threads", 1),
        repeat: num("--repeat", 1).max(1),
        out: value("--out"),
    }
}

/// Counter value from the global registry (0 when never touched).
fn counter(name: &str) -> u64 {
    hoiho_obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn hit_rate(hit: u64, miss: u64) -> f64 {
    if hit + miss == 0 {
        0.0
    } else {
        hit as f64 / (hit + miss) as f64
    }
}

fn main() {
    let args = parse_args();
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();

    eprintln!("generating {}-router corpus…", args.routers);
    let mut spec = CorpusSpec::ipv4_aug2020(args.routers);
    spec.seed = args.seed;
    let g = hoiho_itdk::generate(&db, &spec);
    let hosts: usize = g.corpus.routers.iter().map(|r| r.hostnames().count()).sum();

    let opts = HoihoOptions {
        threads: args.threads,
        ..HoihoOptions::default()
    };
    let hoiho = Hoiho::with_options(&db, &psl, opts);

    let mut best_s = f64::INFINITY;
    let mut first: Option<(LearnReport, String)> = None;
    let (mut dh, mut dm, mut fh, mut fm) = (0, 0, 0, 0);
    for i in 0..args.repeat {
        let before = (
            counter("evalctx.decode.hit"),
            counter("evalctx.decode.miss"),
            counter("evalctx.feas.hit"),
            counter("evalctx.feas.miss"),
        );
        let t = Instant::now();
        let r = hoiho.learn_corpus(&g.corpus);
        let s = t.elapsed().as_secs_f64();
        eprintln!("run {}/{}: {:.3}s", i + 1, args.repeat, s);
        if s < best_s {
            best_s = s;
            dh = counter("evalctx.decode.hit") - before.0;
            dm = counter("evalctx.decode.miss") - before.1;
            fh = counter("evalctx.feas.hit") - before.2;
            fm = counter("evalctx.feas.miss") - before.3;
        }
        // The learner is deterministic: every repeat must write the
        // first one's artifacts. Keep the first for the summary fields.
        let artifacts = write_artifacts(&Geolocator::from_report(&r), &db);
        let (_, want) = first.get_or_insert_with(|| (r, artifacts.clone()));
        if *want != artifacts {
            eprintln!("run {}/{}: artifacts differ from run 1", i + 1, args.repeat);
            std::process::exit(1);
        }
    }
    let (report, _) = first.expect("at least one run");

    let suffixes = report.results.len();
    let (good, promising, poor) = report.class_counts();
    let record = format!(
        "{{\"bench\":\"learn_bench\",\"seed\":{},\"routers\":{},\"hosts\":{},\
         \"threads\":{},\"repeat\":{},\"suffixes\":{},\
         \"classes\":{{\"good\":{good},\"promising\":{promising},\"poor\":{poor}}},\
         \"geolocated\":{},\"elapsed_s\":{:.3},\"suffixes_per_sec\":{:.2},\
         \"hosts_per_sec\":{:.1},\
         \"cache\":{{\"decode_hit\":{dh},\"decode_miss\":{dm},\"decode_hit_rate\":{:.4},\
         \"feas_hit\":{fh},\"feas_miss\":{fm},\"feas_hit_rate\":{:.4}}}}}",
        args.seed,
        args.routers,
        hosts,
        args.threads,
        args.repeat,
        suffixes,
        report.routers_geolocated,
        best_s,
        suffixes as f64 / best_s,
        hosts as f64 / best_s,
        hit_rate(dh, dm),
        hit_rate(fh, fm),
    );
    println!("{record}");
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{record}\n")).expect("write --out");
        eprintln!("wrote {out}");
    }
}
