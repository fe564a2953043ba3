#![warn(missing_docs)]

//! Observability for the hoiho pipeline: nested timing spans, atomic
//! counters, fixed-bucket histograms, and pluggable output sinks.
//!
//! The crate is hand-rolled on `std` (atomics, [`Instant`], [`Mutex`])
//! because the build environment is offline — it must stay
//! zero-dependency. Design goals, in order:
//!
//! 1. **Near-zero cost when idle.** The default configuration has no
//!    sinks and span recording disabled; an un-enabled [`span`] is one
//!    relaxed atomic load, and counters are single atomic read-modify-
//!    write operations on pre-registered cells.
//! 2. **Aggregate, don't stream, in hot paths.** Instrumented code adds
//!    batch counts (e.g. "this host produced 12 candidate regexes")
//!    rather than emitting one event per item.
//! 3. **Stable machine output.** The JSON-lines sink emits one object
//!    per line with a fixed field order, so snapshots diff cleanly.
//!
//! Naming scheme (see DESIGN.md § Observability): dot-separated,
//! `<crate>.<unit>.<what>` for counters (`core.eval.tp`,
//! `rtt.consistency.reject`) and stage-style names for spans
//! (`learn`, `learn.train`, `learn.suffix`, `learn.suffix.phase1`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter that saturates at
/// `u64::MAX` instead of wrapping.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (test/benchmark support).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A fixed-bucket histogram of `u64` samples (typically microseconds).
///
/// Buckets are defined by ascending *upper-inclusive* bounds; one
/// implicit overflow bucket catches everything above the last bound.
/// Recording is lock-free (one atomic add per sample); quantile readout
/// walks the bucket array and returns the upper bound of the bucket in
/// which the requested rank falls, clamped to the largest sample: a
/// conservative (never under-reported) estimate that never exceeds max.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with explicit upper-inclusive bucket bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The default layout for durations: exponential microsecond buckets
    /// from 1µs to ~17min (2^0 .. 2^30), two per octave.
    pub fn exponential() -> Histogram {
        let mut bounds = Vec::new();
        let mut b = 1u64;
        while b <= 1 << 30 {
            bounds.push(b);
            let mid = b + b / 2;
            if b > 1 && mid < b * 2 {
                bounds.push(mid);
            }
            b *= 2;
        }
        bounds.sort_unstable();
        bounds.dedup();
        Histogram::with_bounds(bounds)
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The quantile `q` in `[0, 1]`: the rank-`ceil(q*count)` sample,
    /// estimated by linear interpolation by rank inside its bucket,
    /// between the previous bound (or 0) and the bucket's own bound, then
    /// clamped to [`Histogram::max`] (no sample exceeds it). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let max = self.max();
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if seen + n >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(max);
                let step =
                    u128::from(hi.saturating_sub(lo)) * u128::from(rank - seen) / u128::from(n);
                return (lo + step as u64).min(max);
            }
            seen += n;
        }
        max
    }

    /// Forget every sample.
    pub fn reset(&self) {
        let totals = [&self.count, &self.sum, &self.max];
        for c in self.buckets.iter().chain(totals) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Events and sinks
// ---------------------------------------------------------------------------

/// A single observability event routed to sinks as it happens.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span closed. `path` is the `/`-joined chain of span names on
    /// the closing thread; `detail` carries dynamic context (e.g. the
    /// suffix being learned) kept out of the aggregation key.
    SpanEnd {
        /// Nested span path, e.g. `learn/learn.suffix/learn.suffix.phase1`.
        path: String,
        /// Leaf span name.
        name: String,
        /// Dynamic context, if the span carried any.
        detail: Option<String>,
        /// Wall-clock duration in microseconds.
        us: u64,
    },
    /// A human-oriented progress line (e.g. one per learned suffix).
    Progress {
        /// The message.
        msg: String,
    },
}

/// Where events and the final snapshot go. Implementations must be
/// cheap for events they ignore.
pub trait Sink: Send + Sync {
    /// Handle one live event.
    fn event(&self, event: &Event);
    /// Handle the end-of-run snapshot (counters, histograms, span
    /// aggregates). Called once by [`Registry::finish`].
    fn finish(&self, snapshot: &Snapshot) {
        let _ = snapshot;
    }
}

/// Human-readable live progress on stderr: prints [`Event::Progress`]
/// lines, ignores span events, and renders a counter/timing summary at
/// finish.
#[derive(Debug, Default)]
pub struct StderrProgressSink;

impl Sink for StderrProgressSink {
    fn event(&self, event: &Event) {
        if let Event::Progress { msg } = event {
            eprintln!("[hoiho] {msg}");
        }
    }

    fn finish(&self, snapshot: &Snapshot) {
        eprint!("{}", snapshot.render_summary());
    }
}

/// JSON-lines file sink: one JSON object per event, then one per
/// counter/histogram/span-aggregate at finish. Field order is fixed so
/// output is byte-stable for a given run.
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(Box::new(std::io::BufWriter::new(f))),
        })
    }

    /// A sink writing to an arbitrary writer (test support).
    pub fn to_writer(w: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink { out: Mutex::new(w) }
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let _ = writeln!(out, "{line}");
    }
}

impl Sink for JsonlSink {
    fn event(&self, event: &Event) {
        match event {
            Event::SpanEnd {
                path,
                name,
                detail,
                us,
            } => {
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"type\":\"span\",\"path\":\"{}\",\"name\":\"{}\"",
                    json_escape(path),
                    json_escape(name)
                );
                if let Some(d) = detail {
                    let _ = write!(line, ",\"detail\":\"{}\"", json_escape(d));
                }
                let _ = write!(line, ",\"us\":{us}}}");
                self.write_line(&line);
            }
            Event::Progress { msg } => {
                self.write_line(&format!(
                    "{{\"type\":\"progress\",\"msg\":\"{}\"}}",
                    json_escape(msg)
                ));
            }
        }
    }

    fn finish(&self, snapshot: &Snapshot) {
        for (name, value) in &snapshot.counters {
            self.write_line(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(name),
                value
            ));
        }
        for (name, h) in &snapshot.histograms {
            self.write_line(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                json_escape(name),
                h.count, h.sum, h.p50, h.p90, h.p99, h.max
            ));
        }
        for agg in &snapshot.spans {
            self.write_line(&format!(
                "{{\"type\":\"span_total\",\"path\":\"{}\",\"count\":{},\"total_us\":{}}}",
                json_escape(&agg.path),
                agg.count,
                agg.total_us
            ));
        }
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let _ = out.flush();
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`Registry::span`]; the span closes (and its
/// duration is recorded) when the guard drops.
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: &'static str,
    detail: Option<String>,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let us = start.elapsed().as_micros() as u64;
        let path = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join("/");
            s.pop();
            path
        });
        self.registry
            .close_span(path, self.name, self.detail.take(), us);
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of samples (µs for duration histograms).
    pub sum: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// Aggregate of all closed spans sharing one nesting path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAggregate {
    /// The `/`-joined span path.
    pub path: String,
    /// How many spans closed on this path.
    pub count: u64,
    /// Total wall-clock microseconds across them.
    pub total_us: u64,
}

/// Everything the registry knows, frozen for output. Maps are ordered
/// so renderings are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span aggregates sorted by path.
    pub spans: Vec<SpanAggregate>,
}

impl Snapshot {
    /// Human-readable counter/timing summary (used by
    /// [`StderrProgressSink`] at finish).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("-- counters --\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("-- timings (us) --\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  n={} p50={} p90={} p99={} max={}",
                    h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        out
    }

    /// Render counters and histograms in the Prometheus text exposition
    /// format (counters as `counter`, histogram summaries as per-stat
    /// `gauge`s) — the payload behind `hoiho-serve`'s `GET /metrics`.
    /// Metric names are the dot-separated registry names with dots and
    /// other non-identifier characters mapped to `_` and a `hoiho_`
    /// prefix.
    pub fn render_prometheus(&self) -> String {
        fn metric_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("hoiho_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c.to_ascii_lowercase());
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} counter");
            let _ = writeln!(out, "{m} {value}");
        }
        for (name, h) in &self.histograms {
            let m = metric_name(name);
            for (stat, v) in [
                ("count", h.count),
                ("sum_us", h.sum),
                ("p50_us", h.p50),
                ("p90_us", h.p90),
                ("p99_us", h.p99),
                ("max_us", h.max),
            ] {
                let _ = writeln!(out, "# TYPE {m}_{stat} gauge");
                let _ = writeln!(out, "{m}_{stat} {v}");
            }
        }
        out
    }

    /// Render closed spans as an indented tree with counts and total
    /// durations — the `--trace` output.
    pub fn render_span_tree(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            return out;
        }
        out.push_str("-- span tree --\n");
        // Order by path component, not by the joined string: `.` sorts
        // before `/`, so `learn.suffix` would land between `learn` and
        // `learn/learn.train` and look like their parent.
        let mut spans: Vec<&SpanAggregate> = self.spans.iter().collect();
        spans.sort_by(|a, b| a.path.split('/').cmp(b.path.split('/')));
        for agg in spans {
            let depth = agg.path.matches('/').count();
            let leaf = agg.path.rsplit('/').next().unwrap_or(&agg.path);
            let indent = "  ".repeat(depth + 1);
            let ms = agg.total_us as f64 / 1_000.0;
            let mean_ms = ms / agg.count.max(1) as f64;
            let _ = writeln!(
                out,
                "{indent}{leaf}  n={} total={ms:.1}ms mean={mean_ms:.2}ms",
                agg.count
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The hub holding counters, histograms, span records, and sinks.
///
/// Usually accessed through the process-wide [`global`] instance and the
/// free functions ([`add`], [`span`], [`progress`], …), but tests can
/// build private registries.
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Span path → (count, total µs), aggregated as each span closes, so
    /// memory grows with the number of distinct paths, not of spans.
    spans: Mutex<BTreeMap<String, (u64, u64)>>,
    sinks: Mutex<Vec<Arc<dyn Sink>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh registry: counters active, spans/sinks disabled.
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            sinks: Mutex::new(Vec::new()),
        }
    }

    /// Whether span recording and event routing are on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn span recording and event routing on or off. Counters count
    /// regardless — they are cheap and always wanted in snapshots.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Attach a sink (several may be attached; all receive every event).
    /// Implies [`Registry::set_enabled`]`(true)`.
    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        self.sinks.lock().expect("sinks poisoned").push(sink);
        self.set_enabled(true);
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counters poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Add `n` to the counter `name`, registering it even when `n` is 0
    /// so a snapshot tells "counted nothing" from "never counted".
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// The histogram registered under `name` (exponential µs buckets),
    /// creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histograms poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::exponential());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Record a duration sample (µs) into histogram `name`.
    pub fn record(&self, name: &str, us: u64) {
        self.histogram(name).record(us);
    }

    /// Open a span. Near-free when the registry is disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_inner(name, None)
    }

    /// Open a span carrying dynamic detail (e.g. the suffix being
    /// learned). The detail rides along in sink events but stays out of
    /// the aggregation path, so per-item spans still aggregate.
    pub fn span_detail(&self, name: &'static str, detail: String) -> SpanGuard<'_> {
        self.span_inner(name, Some(detail))
    }

    fn span_inner(&self, name: &'static str, detail: Option<String>) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                registry: self,
                name,
                detail: None,
                start: None,
            };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            registry: self,
            name,
            detail,
            start: Some(Instant::now()),
        }
    }

    fn close_span(&self, path: String, name: &str, detail: Option<String>, us: u64) {
        self.record(&format!("span.{name}"), us);
        let mut spans = self.spans.lock().expect("spans poisoned");
        match spans.get_mut(&path) {
            Some((count, total_us)) => {
                *count += 1;
                *total_us += us;
            }
            None => {
                spans.insert(path.clone(), (1, us));
            }
        }
        drop(spans);
        self.emit(&Event::SpanEnd {
            path,
            name: name.to_string(),
            detail,
            us,
        });
    }

    /// Emit a progress event (no-op when disabled).
    pub fn progress(&self, msg: String) {
        if self.enabled() {
            self.emit(&Event::Progress { msg });
        }
    }

    fn emit(&self, event: &Event) {
        let sinks = self.sinks.lock().expect("sinks poisoned");
        for sink in sinks.iter() {
            sink.event(event);
        }
    }

    /// Freeze current state into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("counters poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histograms poisoned")
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.quantile(0.50),
                        p90: h.quantile(0.90),
                        p99: h.quantile(0.99),
                        max: h.max(),
                    },
                )
            })
            .collect();
        let spans = self
            .spans
            .lock()
            .expect("spans poisoned")
            .iter()
            .map(|(path, &(count, total_us))| SpanAggregate {
                path: path.clone(),
                count,
                total_us,
            })
            .collect();
        Snapshot {
            counters,
            histograms,
            spans,
        }
    }

    /// Take a snapshot and hand it to every sink's
    /// [`Sink::finish`]. Call once at the end of a run.
    pub fn finish(&self) -> Snapshot {
        let snap = self.snapshot();
        let sinks = self.sinks.lock().expect("sinks poisoned");
        for sink in sinks.iter() {
            sink.finish(&snap);
        }
        snap
    }

    /// Reset counters, histograms, and recorded spans (sinks stay).
    /// Counters and histograms are zeroed in place rather than dropped:
    /// [`counter!`] and [`histogram!`] call sites hold on to theirs, and
    /// must keep recording into the one snapshots read.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counters poisoned").values() {
            c.reset();
        }
        let histograms = self.histograms.lock().expect("histograms poisoned");
        histograms.values().for_each(|h| h.reset());
        drop(histograms);
        self.spans.lock().expect("spans poisoned").clear();
    }
}

// ---------------------------------------------------------------------------
// Global instance and free-function facade
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry used by instrumented library code.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether the global registry routes spans and events. Hot loops use
/// this to skip even counter updates when nobody is listening.
pub fn enabled() -> bool {
    global().enabled()
}

/// A call-site-cached handle to a global counter: the registry map is
/// consulted once per call site, after which each hit is a single atomic
/// add. Use this instead of [`add`]/[`inc`] in per-item loops.
///
/// ```
/// hoiho_obs::counter!("demo.items").add(3);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A call-site-cached handle to a global histogram, the [`counter!`]
/// of histograms: each sample after the first is one bucket search and
/// a few atomic adds, with no registry lock.
///
/// ```
/// hoiho_obs::histogram!("demo.request_us").record(42);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Add `n` to the global counter `name`.
pub fn add(name: &str, n: u64) {
    global().add(name, n);
}

/// Increment the global counter `name`.
pub fn inc(name: &str) {
    global().add(name, 1);
}

/// Open a span on the global registry.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Open a detailed span on the global registry.
pub fn span_detail(name: &'static str, detail: String) -> SpanGuard<'static> {
    global().span_detail(name, detail)
}

/// The spans open on this thread, outermost first (none when the global
/// registry is disabled), for [`with_open_spans`] on a worker thread.
pub fn open_spans() -> Vec<&'static str> {
    if enabled() {
        SPAN_STACK.with_borrow(Vec::clone)
    } else {
        Vec::new()
    }
}

/// Run `f` with `open`, from [`open_spans`] on another thread, as the
/// spans open around it, so its spans nest under them; then restore this
/// thread's own.
pub fn with_open_spans<R>(open: &[&'static str], f: impl FnOnce() -> R) -> R {
    let own = SPAN_STACK.replace(open.to_vec());
    let r = f();
    SPAN_STACK.set(own);
    r
}

/// Emit a progress event on the global registry.
pub fn progress(msg: String) {
    global().progress(msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_saturates() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        c.add(u64::MAX - 3);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    /// Serializes the tests that reset the global registry.
    static GLOBAL_RESET: Mutex<()> = Mutex::new(());

    /// A `counter!` call site keeps its counter across a reset, so the
    /// reset must zero that counter rather than orphan it.
    #[test]
    fn reset_keeps_call_site_counters_registered() {
        let _serial = GLOBAL_RESET.lock().unwrap_or_else(|e| e.into_inner());
        fn bump() {
            crate::counter!("test.reset.site").inc();
        }
        bump();
        global().reset();
        bump();
        assert_eq!(
            global().snapshot().counters.get("test.reset.site"),
            Some(&1)
        );
    }

    /// Likewise a `histogram!` call site keeps its histogram.
    #[test]
    fn reset_keeps_call_site_histograms_registered() {
        let _serial = GLOBAL_RESET.lock().unwrap_or_else(|e| e.into_inner());
        fn sample(us: u64) {
            crate::histogram!("test.reset.hist").record(us);
        }
        sample(7);
        global().reset();
        sample(3);
        let snap = global().snapshot();
        let h = &snap.histograms["test.reset.hist"];
        assert_eq!((h.count, h.sum, h.max), (1, 3, 3));
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [1, 5, 10, 50, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.5), 10); // 3rd of 5 samples ≤ 10
        assert_eq!(h.quantile(0.9), 200); // 5th sample is in bucket ≤1000, max 200
        assert_eq!(h.max(), 200);
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        let h = Histogram::with_bounds(vec![100, 200]);
        for v in 101..=200 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!(100 < p50 && p50 < 200, "p50={p50}");
        assert_eq!(p50, 150);
        assert_eq!(h.quantile(1.0), 200);
    }

    #[test]
    fn one_sample_quantiles_are_the_sample() {
        let h = Histogram::exponential();
        h.record(990_420);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 990_420, "q={q}");
        }
    }

    #[test]
    fn disabled_span_records_nothing() {
        let r = Registry::new();
        {
            let _g = r.span("idle");
        }
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn adding_zero_registers_the_counter() {
        let r = Registry::new();
        r.add("x", 0);
        assert_eq!(r.snapshot().counters.get("x"), Some(&0));
    }

    #[test]
    fn prometheus_rendering_is_sanitised_and_typed() {
        let r = Registry::new();
        r.add("serve.requests", 7);
        r.record("serve.request_us", 42);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE hoiho_serve_requests counter"));
        assert!(text.contains("hoiho_serve_requests 7"));
        assert!(text.contains("hoiho_serve_request_us_count 1"));
        assert!(text.contains("hoiho_serve_request_us_max_us 42"));
    }

    #[test]
    fn enabled_spans_nest() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _outer = r.span("outer");
            let _inner = r.span("inner");
        }
        let snap = r.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
    }

    #[test]
    fn handed_spans_nest_a_worker_and_are_put_back() {
        let r = Registry::new();
        r.set_enabled(true);
        let _outer = r.span("outer");
        std::thread::scope(|s| {
            s.spawn(|| with_open_spans(&["learn"], || drop(r.span("learn.suffix"))));
        });
        with_open_spans(&["elsewhere"], || ());
        drop(r.span("inner"));
        let snap = r.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["learn/learn.suffix", "outer/inner"]);
    }

    #[test]
    fn span_tree_nests_children_under_their_parent() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _learn = r.span("learn");
            let _train = r.span("learn.train");
        }
        drop(r.span("learn.suffix"));
        let tree = r.snapshot().render_span_tree();
        let leaves: Vec<&str> = tree
            .lines()
            .skip(1)
            .map(|l| l.split("  n=").next().unwrap())
            .collect();
        assert_eq!(
            leaves,
            vec!["  learn", "    learn.train", "  learn.suffix"],
            "{tree}"
        );
    }

    #[test]
    fn spans_aggregate_on_close() {
        let r = Registry::new();
        r.set_enabled(true);
        for _ in 0..10_000 {
            let _g = r.span("hot");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].path, "hot");
        assert_eq!(snap.spans[0].count, 10_000);
        assert_eq!(r.spans.lock().unwrap().len(), 1);
        r.reset();
        assert!(r.snapshot().spans.is_empty());
    }
}
