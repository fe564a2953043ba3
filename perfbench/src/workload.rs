//! The two workloads and their end-to-end run.
//!
//! Every workload drives the whole user path on its own inputs: the
//! operator's `hoiho learn`, a `hoiho serve` child under the workload's
//! traffic, and the consumer's batch `hoiho apply`. Workloads differ in
//! the server traffic and in where the measured time goes (see NOTES.md
//! for why each exists and which layer it stresses).

use crate::child::{self, Server, Usage};
use crate::inputs::{self, fnv1a, Written};
use crate::load::{self, LoadResult, Script};
use crate::stats::{median, percentile};
use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{proto, LookupIndex};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed of a run without `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a of the corpus file and of the artifact file learned from it;
/// the corpus does not follow `--seed`. A change to either means the
/// generator or the learner changed its output.
pub const PINNED_CORPUS: u64 = 0xc7c2_2a1c_4285_d7f6;
pub const PINNED_ARTIFACT: u64 = 0xc4b4_9319_baf4_abbf;
/// The same for the artifact learned with `--no-learned-hints`.
const PINNED_NO_STAGE4: u64 = 0xa491_65ea_d865_1e70;

/// The prefix of the lookup stream that TCP traffic cycles through.
pub const TCP_STREAM: usize = 1 << 16;
/// Hostnames per `{"batch":[…]}` request.
const BATCH: usize = 32;
/// Load connections (the box has two cores).
const CONNS: usize = 2;
/// Single lookups each connection keeps in flight when measuring
/// capacity, so workers stay busy instead of waking per request.
const WINDOW: usize = 16;
/// Open-loop request rate, per second over both connections.
const OPEN_RATE: f64 = 20_000.0;
/// Artifact rewrite period and server poll period under reload.
const REWRITE_EVERY: Duration = Duration::from_millis(250);
pub const RELOAD_MS: u64 = 50;
/// Serve-phase slice lengths, and the open loop's wait for its last
/// replies. A slice under rewrites spans a whole number of rewrite
/// periods.
const BATCH_SLICE: Duration = Duration::from_millis(250);
const RELOAD_SLICE: Duration = Duration::from_secs(1);
const DRAIN: Duration = Duration::from_secs(5);
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `hoiho apply` runs over the whole lookup stream, in every workload.
const APPLIES: usize = 10;
/// `hoiho learn --threads`. One thread leaves the other core to the
/// rest of the box: on the shared two-core host, a two-thread learn's
/// wall time also measured how busy the second core was.
const LEARN_THREADS: &str = "1";

/// How a workload loads the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Closed loop of 32-hostname batches.
    Batch,
    /// Single lookups while the artifact alternates: a closed loop with
    /// 16 in flight per connection for capacity, and an open loop at a
    /// fixed rate for latency and server cost.
    OpenReload,
}

/// One workload: how its measured window is split.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// `hoiho learn` runs per window.
    pub learns: usize,
    /// Server traffic.
    pub traffic: Traffic,
    /// Share of `--seconds` spent on server traffic.
    pub traffic_share: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "learn_itdk",
        learns: 5,
        traffic: Traffic::Batch,
        traffic_share: 0.25,
    },
    Workload {
        name: "lookup_open_reload",
        learns: 3,
        traffic: Traffic::OpenReload,
        traffic_share: 0.5,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line's contents.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why each failure was counted, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count `attempted` operations of which `failed` went wrong.
    pub fn check(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed}/{attempted} failed: {}", what()));
        }
    }
}

/// A private scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Compare a hash with its pinned value.
pub fn check_pin(out: &mut Outcome, what: &str, got: u64, want: u64) {
    out.check(1, u64::from(got != want), || {
        format!("{what} hash {got:016x}, pinned {want:016x}")
    });
}

/// Expected replies of the in-process index for the lookup stream.
pub struct Expected {
    index: LookupIndex,
}

impl Expected {
    pub fn new(artifacts: &str) -> Result<Expected, String> {
        let db = Arc::new(GeoDb::builtin());
        let psl = Arc::new(PublicSuffixList::builtin());
        let index = LookupIndex::from_artifacts(db, psl, artifacts).map_err(|e| e.to_string())?;
        Ok(Expected { index })
    }

    /// The reply object `render_result` gives for `host`.
    pub fn reply(&self, host: &str, scratch: &mut String) -> String {
        let inf = self.index.lookup(host, scratch);
        let mut out = String::new();
        proto::render_result(self.index.db(), host, inf.as_ref(), &mut out);
        out
    }

    /// The `hoiho apply` line prefix for `host`: `host\tplace\t` for a
    /// hit, the whole line `host\t-` for a miss.
    pub fn apply_prefix(&self, host: &str, scratch: &mut String) -> (String, bool) {
        match self.index.lookup(host, scratch) {
            Some(inf) => {
                let place = self.index.db().location(inf.location).display_name();
                (format!("{host}\t{place}\t"), true)
            }
            None => (format!("{host}\t-"), false),
        }
    }
}

/// Single-lookup requests over the TCP stream, accepting the reply of
/// any of `expected` (the artifacts the server may hold).
pub fn single_script(stream: &[String], expected: &[&Expected]) -> Script {
    let mut scratch = String::new();
    let mut requests = Vec::with_capacity(stream.len());
    let mut replies = Vec::with_capacity(stream.len());
    for host in stream {
        requests.push(format!("{{\"lookup\":\"{}\"}}\n", proto::json_escape(host)));
        let mut ok: Vec<String> = expected
            .iter()
            .map(|e| e.reply(host, &mut scratch))
            .collect();
        ok.dedup();
        replies.push(ok);
    }
    Script {
        requests,
        replies,
        lookups_per_request: 1,
    }
}

/// 32-hostname batch requests over the TCP stream.
fn batch_script(stream: &[String], expected: &Expected) -> Script {
    let mut scratch = String::new();
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    for chunk in stream.chunks_exact(BATCH) {
        let hosts: Vec<String> = chunk
            .iter()
            .map(|h| format!("\"{}\"", proto::json_escape(h)))
            .collect();
        requests.push(format!("{{\"batch\":[{}]}}\n", hosts.join(",")));
        let results: Vec<String> = chunk
            .iter()
            .map(|h| expected.reply(h, &mut scratch))
            .collect();
        replies.push(vec![format!("{{\"results\":[{}]}}", results.join(","))]);
    }
    Script {
        requests,
        replies,
        lookups_per_request: BATCH as u64,
    }
}

/// Rewrites the served artifact file every [`REWRITE_EVERY`] while a
/// piece of traffic runs, alternating between two versions; the server
/// starts on the first.
pub struct Rewriter<'a> {
    path: &'a Path,
    versions: [&'a str; 2],
    stop: AtomicBool,
    rewrites: AtomicU64,
}

impl<'a> Rewriter<'a> {
    pub fn new(path: &'a Path, versions: [&'a str; 2]) -> Rewriter<'a> {
        Rewriter {
            path,
            versions,
            stop: AtomicBool::new(false),
            rewrites: AtomicU64::new(0),
        }
    }

    /// Run `traffic` while rewriting, and return its result once the
    /// server has had time to take the last rewrite, so its rebuild does
    /// not land in whatever is timed next.
    pub fn during<T>(&self, traffic: impl FnOnce() -> T) -> Result<T, String> {
        /// Stops the rewriter even if the traffic panics, so the scope
        /// can join it and the panic propagate.
        struct Stop<'s>(&'s AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        self.stop.store(false, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| self.rewrite_until_stopped());
            let result = {
                let _stop = Stop(&self.stop);
                traffic()
            };
            let written = writer.join().expect("rewriter panicked");
            std::thread::sleep(Duration::from_millis(4 * RELOAD_MS));
            written.map(|()| result)
        })
    }

    /// Each rewrite lands by rename, so the server never reads a
    /// half-written file. Rewrites fall half a period into each period,
    /// so a slice of whole periods always holds the same number.
    fn rewrite_until_stopped(&self) -> Result<(), String> {
        let tmp = self.path.with_extension("tmp");
        let mut next = Instant::now() + REWRITE_EVERY / 2;
        while !self.stop.load(Ordering::SeqCst) {
            if Instant::now() < next {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let k = self.rewrites.load(Ordering::SeqCst) as usize + 1;
            std::fs::write(&tmp, self.versions[k % 2]).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, self.path).map_err(|e| e.to_string())?;
            self.rewrites.fetch_add(1, Ordering::SeqCst);
            next += REWRITE_EVERY;
        }
        Ok(())
    }

    /// Check that the server took every rewrite exactly once.
    pub fn verify(&self, server: &Server, out: &mut Outcome) -> Result<(), String> {
        let rewrites = self.rewrites.load(Ordering::SeqCst);
        let epoch = server.ping()?;
        let metrics = server.metrics()?;
        let ok = child::prom_counter(&metrics, "hoiho_serve_reload_ok").unwrap_or(0);
        let err = child::prom_counter(&metrics, "hoiho_serve_reload_err").unwrap_or(0);
        let missed = (epoch - 1).abs_diff(rewrites) + ok.abs_diff(rewrites) + err;
        out.check(rewrites, missed, || {
            format!("{rewrites} rewrites, epoch {epoch}, reload ok {ok} err {err}")
        });
        Ok(())
    }
}

/// Requests the server refused (shed) or rejected, from `/metrics`.
pub fn refused(metrics: &str) -> u64 {
    [
        "hoiho_serve_shed_queue_full",
        "hoiho_serve_shed_draining",
        "hoiho_serve_reject_malformed",
        "hoiho_serve_timeout_read",
        "hoiho_serve_timeout_write",
    ]
    .iter()
    .map(|c| child::prom_counter(metrics, c).unwrap_or(0))
    .sum()
}

fn learn_cmd(hoiho: &Path, corpus: &Path, out: &Path, stage4: bool) -> Command {
    let mut cmd = Command::new(hoiho);
    cmd.arg("learn")
        .arg("--corpus")
        .arg(corpus)
        .arg("--out")
        .arg(out)
        .args(["--threads", LEARN_THREADS]);
    if !stage4 {
        cmd.arg("--no-learned-hints");
    }
    cmd
}

/// Generate the inputs in a child process (`perfbench gen`) and return
/// what it reports.
fn generate_in_child(seed: u64, corpus: &Path, stream: &Path) -> Result<Written, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["gen", &seed.to_string()])
        .arg(corpus)
        .arg(stream)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the generator: {e}"))?;
    if !output.status.success() {
        return Err(format!("generator failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    parse_written(&text).ok_or_else(|| format!("bad generator output {text:?}"))
}

/// The generator's `HASH SPOOFERS GEN_S` line.
fn parse_written(text: &str) -> Option<Written> {
    let mut fields = text.split_whitespace();
    let written = Written {
        hash: u64::from_str_radix(fields.next()?, 16).ok()?,
        spoofers: fields.next()?.parse().ok()?,
        gen_s: fields.next()?.parse().ok()?,
    };
    fields.next().is_none().then_some(written)
}

/// How many of `count` items, spread evenly over `rounds`, fall in
/// round `r`. Item 0 is always in round 0.
fn in_round(count: usize, rounds: usize, r: usize) -> usize {
    (0..count).filter(|k| k * rounds / count == r).count()
}

/// Run one workload end to end and report every end-to-end metric.
///
/// After set-up, the learns, traffic slices and applies are interleaved
/// in rounds, so each metric's samples span the whole run: on a shared
/// box a slow spell then moves a few samples of every metric instead of
/// every sample of one.
pub fn run(w: &Workload, seed: u64, seconds: f64, hoiho: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = WorkDir::new()?;

    // Set-up: generate the inputs in fresh processes; every repeat must
    // write the same bytes.
    let corpus = work.join("corpus.txt");
    let hosts = work.join("hosts.txt");
    let mut setup_s = Vec::new();
    let mut written = Vec::new();
    for _ in 0..SETUP_REPS {
        let g = generate_in_child(seed, &corpus, &hosts)?;
        setup_s.push(g.gen_s);
        written.push(g);
    }
    let on_disk = fnv1a(&std::fs::read(&corpus).map_err(|e| e.to_string())?);
    let differing = written.iter().filter(|g| g.hash != on_disk).count() as u64;
    out.check(SETUP_REPS as u64, differing, || {
        format!("corpus hashes differ across processes: {written:x?}, file {on_disk:016x}")
    });
    check_pin(&mut out, "corpus", on_disk, PINNED_CORPUS);
    let want = inputs::SPOOFERS;
    let wrong = written.iter().filter(|g| g.spoofers != want).count() as u64;
    out.check(SETUP_REPS as u64, wrong, || {
        format!("spoofing VPs detected {written:?}, {want} injected")
    });
    eprintln!("[{}] corpus {on_disk:016x}", w.name);
    let stream_text = std::fs::read_to_string(&hosts).map_err(|e| e.to_string())?;
    let stream: Vec<String> = stream_text.lines().map(str::to_string).collect();
    drop(stream_text);

    // The first learn writes the artifact everything after it serves.
    let artifacts = work.join("artifacts.txt");
    let learn_log = work.join("learn.log");
    let learn = || {
        child::run_measured(
            learn_cmd(hoiho, &corpus, &artifacts, true),
            None,
            &learn_log,
        )
    };
    let mut learns = vec![learn()?];
    let a_text = std::fs::read_to_string(&artifacts).map_err(|e| e.to_string())?;
    let a_hash = fnv1a(a_text.as_bytes());
    check_pin(&mut out, "artifact", a_hash, PINNED_ARTIFACT);
    eprintln!("[{}] artifact {a_hash:016x}", w.name);
    let expected = Expected::new(&a_text)?;
    let tcp_stream = &stream[..TCP_STREAM];
    let apply_lines = apply_expectations(&stream, &expected);

    // The served file, its traffic and, under rewrites, its alternate.
    let served = work.join("served.txt");
    std::fs::write(&served, &a_text).map_err(|e| e.to_string())?;
    let traffic = Duration::from_secs_f64(seconds * w.traffic_share);
    let slices = |d: Duration, slice: Duration| {
        (d.as_secs_f64() / slice.as_secs_f64()).round().max(1.0) as usize
    };
    let mut b_text = None;
    let (script, closed_slice, closed_slices, window, open_slices, reload_ms) = match w.traffic {
        Traffic::Batch => (
            batch_script(tcp_stream, &expected),
            BATCH_SLICE,
            slices(traffic, BATCH_SLICE),
            1,
            0,
            0,
        ),
        Traffic::OpenReload => {
            let b_path = work.join("artifacts-no-stage4.txt");
            child::run_measured(learn_cmd(hoiho, &corpus, &b_path, false), None, &learn_log)?;
            let b = std::fs::read_to_string(&b_path).map_err(|e| e.to_string())?;
            check_pin(
                &mut out,
                "artifact without stage 4",
                fnv1a(b.as_bytes()),
                PINNED_NO_STAGE4,
            );
            let b_expected = Expected::new(&b)?;
            b_text = Some(b);
            let script = single_script(tcp_stream, &[&expected, &b_expected]);
            (
                script,
                RELOAD_SLICE,
                slices(traffic / 4, RELOAD_SLICE),
                WINDOW,
                slices(traffic * 3 / 4, RELOAD_SLICE),
                RELOAD_MS,
            )
        }
    };
    let server = Server::start(hoiho, &served, reload_ms, work.path())?;
    let rewriter = b_text
        .as_deref()
        .map(|b| Rewriter::new(&served, [&a_text, b]));

    let mut closed = Slices::default();
    let mut open = Slices::default();
    let mut applies = Vec::new();
    let mut first_request = 0;
    let rounds = [w.learns, closed_slices, open_slices, APPLIES]
        .into_iter()
        .max()
        .unwrap_or(1);
    for r in 0..rounds {
        // Round 0's learn was the one above.
        for _ in 0..in_round(w.learns, rounds, r) - usize::from(r == 0) {
            learns.push(learn()?);
            let again = std::fs::read(&artifacts).map_err(|e| e.to_string())?;
            out.check(1, u64::from(fnv1a(&again) != a_hash), || {
                "a repeated learn wrote a different artifact".into()
            });
        }
        for _ in 0..in_round(closed_slices, rounds, r) {
            let sample = slice(&server, rewriter.as_ref(), || {
                let t = Instant::now();
                let load = load::closed_loop(
                    &server.addr,
                    &script,
                    CONNS,
                    window,
                    first_request,
                    closed_slice,
                );
                (load, t.elapsed())
            })?;
            first_request += sample.requests;
            closed.add(&mut out, sample, &script);
        }
        for _ in 0..in_round(open_slices, rounds, r) {
            let sample = slice(&server, rewriter.as_ref(), || {
                let t = Instant::now();
                let load = load::open_loop(
                    &server.addr,
                    &script,
                    CONNS,
                    first_request,
                    OPEN_RATE,
                    RELOAD_SLICE,
                    DRAIN,
                );
                (load, t.elapsed())
            })?;
            first_request += sample.requests;
            open.add(&mut out, sample, &script);
        }
        for _ in 0..in_round(APPLIES, rounds, r) {
            applies.push(apply(
                hoiho,
                &artifacts,
                &hosts,
                &work,
                &apply_lines,
                &mut out,
            )?);
        }
    }

    out.metric("setup_s", median(&setup_s), "s");
    let learn_median = |f: fn(&Usage) -> f64| median(&learns.iter().map(f).collect::<Vec<_>>());
    out.metric("learn_s", learn_median(|u| u.wall_s), "s");
    out.metric("learn_cpu_s", learn_median(|u| u.cpu_s), "s");
    out.metric("learn_peak_rss_mb", learn_median(|u| u.peak_rss_mb), "MB");
    out.metric("lookups_per_s", closed.lookups_per_s(), "1/s");
    // Latency and server cost come from the open loop where there is
    // one: a fixed offered rate, timed from each request's due time.
    let timed = if w.traffic == Traffic::OpenReload {
        &open
    } else {
        &closed
    };
    out.metric("latency_p50_ms", timed.p50_ms()?, "ms");
    out.metric("server_cpu_us_per_lookup", timed.cpu_us_per_lookup(), "us");
    out.metric("server_rss_mb", child::peak_rss_mb(server.pid())?, "MB");
    let refused = refused(&server.metrics()?);
    out.check(1, refused, || format!("server refused {refused} requests"));
    if let Some(rw) = &rewriter {
        rw.verify(&server, &mut out)?;
    }
    server.stop()?;
    // The median run: an apply is one short process, and a slow spell
    // of the box stretches one run by half, which a total would keep.
    out.metric(
        "apply_hosts_per_s",
        stream.len() as f64 / median(&applies),
        "1/s",
    );
    Ok(out)
}

/// One traffic slice: what the load saw and what the server spent.
struct Sample {
    load: LoadResult,
    requests: usize,
    elapsed_s: f64,
    cpu_ns: u64,
}

/// Run `drive` once, under `rewriter` if there is one, and measure the
/// server's CPU around it. Under rewrites the CPU is read after the
/// server has taken the last rewrite, so every slice is charged for all
/// of its index rebuilds and no other.
fn slice(
    server: &Server,
    rewriter: Option<&Rewriter>,
    drive: impl FnOnce() -> (LoadResult, Duration),
) -> Result<Sample, String> {
    let cpu0 = child::cpu_ns(server.pid())?;
    let (load, elapsed) = match rewriter {
        Some(rw) => rw.during(drive)?,
        None => drive(),
    };
    let cpu_ns = child::cpu_ns(server.pid())? - cpu0;
    Ok(Sample {
        requests: load.requests as usize,
        load,
        elapsed_s: elapsed.as_secs_f64(),
        cpu_ns,
    })
}

/// Totals over all slices of one kind of traffic.
///
/// Throughput, server cost and the median latency are taken over all
/// slices together, not as medians of per-slice values: on the shared
/// box a slice's speed depends on which of two differently loaded cores
/// it lands on, and a median of a few such two-mode samples flips
/// between the modes.
#[derive(Default)]
struct Slices {
    lookups: u64,
    elapsed_s: f64,
    cpu_ns: u64,
    latencies_ms: Vec<f64>,
}

impl Slices {
    /// Check a slice's answers and keep its counts and latencies.
    ///
    /// No tail percentile is kept: on a shared two-core box the p99 of
    /// identical runs moves by more than any bound a gate could use (see
    /// NOTES.md); the traced run reports it as `serve.tcp_p99_ms`.
    fn add(&mut self, out: &mut Outcome, s: Sample, script: &Script) {
        let r = s.load;
        let lookups = r.requests * script.lookups_per_request;
        out.check(lookups, r.failed * script.lookups_per_request, || {
            "TCP answers differ from the in-process index".into()
        });
        self.lookups += lookups;
        self.elapsed_s += s.elapsed_s;
        self.cpu_ns += s.cpu_ns;
        self.latencies_ms.extend(r.latencies_ms);
    }

    fn lookups_per_s(&self) -> f64 {
        self.lookups as f64 / self.elapsed_s
    }

    fn cpu_us_per_lookup(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.lookups.max(1) as f64
    }

    fn p50_ms(&self) -> Result<f64, String> {
        let n = self.latencies_ms.len();
        percentile(&self.latencies_ms, 0.5).ok_or(format!("{n} latencies are too few"))
    }
}

/// Per stream hostname, the `hoiho apply` line prefix the in-process
/// index predicts: `host\tplace\t` for a hit, the whole `host\t-` line
/// for a miss.
fn apply_expectations(stream: &[String], expected: &Expected) -> Vec<(String, bool)> {
    let mut memo: HashMap<&str, (String, bool)> = HashMap::new();
    let mut scratch = String::new();
    stream
        .iter()
        .map(|h| {
            memo.entry(h.as_str())
                .or_insert_with(|| expected.apply_prefix(h, &mut scratch))
                .clone()
        })
        .collect()
}

/// One `hoiho apply < stream > out` run: its wall time, after checking
/// every line against the in-process index.
fn apply(
    hoiho: &Path,
    artifacts: &Path,
    hosts: &Path,
    work: &WorkDir,
    want: &[(String, bool)],
    out: &mut Outcome,
) -> Result<f64, String> {
    let applied = work.join("applied.txt");
    let mut cmd = Command::new(hoiho);
    cmd.arg("apply").arg("--artifacts").arg(artifacts);
    cmd.stdin(std::fs::File::open(hosts).map_err(|e| e.to_string())?);
    let usage = child::run_measured(cmd, Some(&applied), &work.join("apply.log"))?;
    let text = std::fs::read_to_string(&applied).map_err(|e| e.to_string())?;
    let mut lines = text.lines();
    let mut bad = 0u64;
    for (prefix, hit) in want {
        let ok = lines.next().is_some_and(|l| {
            if *hit {
                l.starts_with(prefix.as_str())
            } else {
                l == prefix
            }
        });
        bad += u64::from(!ok);
    }
    bad += lines.count() as u64;
    out.check(want.len() as u64, bad, || {
        "hoiho apply lines differ from the in-process index".into()
    });
    Ok(usage.wall_s)
}
