//! Flow-wide instrumentation for the SynDCIM compiler: RAII timing
//! spans, atomic counters and gauges, fixed-bucket duration histograms,
//! and deterministic run reports ([`Report`]) that the implementation
//! flow serializes as a `FlowReport`.
//!
//! The crate is **dependency-free by design** — the same offline
//! constraint that produced the `rand`/`criterion` shims rules out
//! `tracing` — and built around three rules:
//!
//! 1. **Near-zero cost when disabled.** Every instrumentation site is
//!    gated on one relaxed atomic load ([`enabled`]). Disabled spans
//!    allocate nothing, take no locks and read no clocks; disabled
//!    counters are a single load-and-branch. The engine bench guard
//!    (`cargo bench -p syndcim-bench --bench engine`) pins the
//!    disabled-mode overhead on the vector-throughput hot loop.
//! 2. **Deterministic aggregation.** The span collector merges spans by
//!    `(parent, name)` — a site entered 12 times (or by 12 worker
//!    threads) is *one* tree node with `count == 12` — and counters are
//!    commutative atomic sums, so the report's structure, names and
//!    counts are identical regardless of thread count or interleaving.
//!    Only the duration fields vary run to run, and consumers are
//!    expected not to assert on them (see [`SpanSnapshot::signature`]).
//!    One counter depends on the host by design: an engine measurement
//!    builds a 1-lane template plus one executor per worker thread, so
//!    `engine.executors` is the only engine counter that varies with
//!    the worker count. The engine's activity-driven passes add
//!    `engine.ops_executed` (ops a settle evaluated) and
//!    `engine.ops_skipped` (ops it skipped because none of their nets
//!    changed) once per settle, so the two sum to `engine.settles` ×
//!    the program's op count, and `engine.captures_skipped` (state
//!    elements a clock edge did not recapture) once per edge.
//! 3. **Thread-aware nesting.** The current span is thread-local;
//!    `syndcim_ir::parallel_map` captures the caller's span with
//!    [`current_span`] and adopts it in every worker via [`adopt`], so
//!    work fanned across threads lands under the span that spawned it.
//!
//! Collection is controlled by the `SYNDCIM_TRACE` environment
//! variable — `off` (default), `summary` or `json` — read once on
//! first use; tests and binaries can override it with [`set_mode`].
//! The distinction between `summary` and `json` is an *emission*
//! policy for the binary that owns the run (human tree vs
//! `FlowReport.json`); collection itself is identical in both.
//!
//! ```
//! use syndcim_telemetry as telemetry;
//!
//! telemetry::set_mode(telemetry::Mode::Summary);
//! telemetry::reset();
//! {
//!     telemetry::span!("compile");
//!     telemetry::counter("ops_emitted").add(42);
//! }
//! let report = telemetry::snapshot();
//! assert_eq!(report.root.children[0].name, "compile");
//! assert_eq!(report.counter("ops_emitted"), Some(42));
//! telemetry::set_mode(telemetry::Mode::Off);
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// Mode and the global enable gate
// ---------------------------------------------------------------------

/// Collection/emission mode, from `SYNDCIM_TRACE` or [`set_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No collection. Every site costs one relaxed atomic load.
    Off,
    /// Collect; owners of the run emit a human-readable summary tree.
    Summary,
    /// Collect; owners of the run emit deterministic-schema JSON.
    Json,
}

const MODE_UNINIT: u8 = 0xFF;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[cold]
fn init_mode_from_env() -> u8 {
    let m = match std::env::var("SYNDCIM_TRACE").ok().as_deref() {
        Some("summary") => Mode::Summary,
        Some("json") => Mode::Json,
        _ => Mode::Off,
    } as u8;
    // Racing first calls agree (the env var is stable), so a plain
    // store is fine; `set_mode` wins over the env either way.
    MODE.store(m, Ordering::Relaxed);
    m
}

#[inline]
fn mode_byte() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m == MODE_UNINIT {
        init_mode_from_env()
    } else {
        m
    }
}

/// The active [`Mode`].
pub fn mode() -> Mode {
    match mode_byte() {
        1 => Mode::Summary,
        2 => Mode::Json,
        _ => Mode::Off,
    }
}

/// Override the mode (takes precedence over `SYNDCIM_TRACE`). Used by
/// tests and by binaries that force collection on.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// Whether collection is active. **One relaxed atomic load** — this is
/// the whole cost every instrumentation site pays when telemetry is
/// off, and the bound the engine bench guard pins.
#[inline]
pub fn enabled() -> bool {
    mode_byte() > Mode::Off as u8
}

// ---------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------

/// Number of log₂(ns) histogram buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds `0 ns`), so bucket 39 already
/// covers ~9 minutes.
pub const HIST_BUCKETS: usize = 40;

enum Metric {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    // Boxed so the enum stays one word + tag; the cell is leaked once at
    // registration anyway, so the extra indirection is off the hot path.
    Histogram(Box<[AtomicU64; HIST_BUCKETS]>),
}

/// Name → leaked metric cell. Metrics are interned forever (the set of
/// instrumentation sites is small and static); handles returned to
/// callers are `&'static`, so hot sites resolve their name once and
/// then pay only the atomic op.
static METRICS: Mutex<BTreeMap<&'static str, &'static Metric>> = Mutex::new(BTreeMap::new());

fn metric(name: &'static str, make: fn() -> Metric) -> &'static Metric {
    let mut map = METRICS.lock().expect("telemetry registry poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::new(make())))
}

/// A named monotonically-increasing counter. Obtain with [`counter`];
/// cheap to copy and cacheable in `'static` struct fields.
#[derive(Clone, Copy)]
pub struct Counter(&'static Metric);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Find or create the counter `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter(metric(name, || Metric::Counter(AtomicU64::new(0))))
}

impl Counter {
    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            if let Metric::Counter(c) = self.0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Add 1 (no-op while disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 while nothing recorded).
    pub fn get(&self) -> u64 {
        match self.0 {
            Metric::Counter(c) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }
}

/// A named last-write-wins gauge (e.g. retained bytes of a compiled
/// artifact). Obtain with [`gauge`].
#[derive(Clone, Copy)]
pub struct Gauge(&'static Metric);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Find or create the gauge `name`.
pub fn gauge(name: &'static str) -> Gauge {
    Gauge(metric(name, || Metric::Gauge(AtomicU64::new(0))))
}

impl Gauge {
    /// Set the gauge (no-op while disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            if let Metric::Gauge(g) = self.0 {
                g.store(v, Ordering::Relaxed);
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        match self.0 {
            Metric::Gauge(g) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }
}

/// A named fixed-bucket (log₂ ns) duration histogram. Obtain with
/// [`histogram`].
#[derive(Clone, Copy)]
pub struct Histogram(&'static Metric);

/// Find or create the histogram `name`.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram(metric(name, || Metric::Histogram(Box::new(std::array::from_fn(|_| AtomicU64::new(0))))))
}

impl Histogram {
    /// Record a duration in nanoseconds (no-op while disabled).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if enabled() {
            if let Metric::Histogram(buckets) = self.0 {
                let b = (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1);
                buckets[b].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record an elapsed [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct SpanNode {
    name: &'static str,
    count: u64,
    total_ns: u64,
    children: Vec<u32>,
}

/// Node 0 is the implicit root; it never accumulates time itself.
static TREE: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost open span on this thread (tree node id).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

fn with_tree<R>(f: impl FnOnce(&mut Vec<SpanNode>) -> R) -> R {
    let mut tree = TREE.lock().expect("telemetry span tree poisoned");
    if tree.is_empty() {
        tree.push(SpanNode { name: "root", count: 0, total_ns: 0, children: Vec::new() });
    }
    f(&mut tree)
}

/// Opaque handle to an open span, used to parent work that hops
/// threads (see [`current_span`] / [`adopt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The innermost open span on the calling thread (the root if none).
pub fn current_span() -> SpanId {
    SpanId(CURRENT.with(|c| c.get()))
}

/// Make `parent` the calling thread's current span until the returned
/// guard drops. `parallel_map` wraps every worker invocation in one of
/// these so worker spans nest under the span that spawned the fan-out.
pub fn adopt(parent: SpanId) -> AdoptGuard {
    let prev = CURRENT.with(|c| c.replace(parent.0));
    AdoptGuard { prev }
}

/// RAII guard restoring the thread's previous current span. See
/// [`adopt`].
pub struct AdoptGuard {
    prev: u32,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// RAII guard for one span entry; created by [`span()`] (usually via the
/// [`span!`] macro). Entry bumps the merged `(parent, name)` tree
/// node's count (so a snapshot taken inside an open span still sees
/// it); drop adds the elapsed time. Inert (and allocation-free) when
/// telemetry is disabled.
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

struct SpanGuardInner {
    node: u32,
    prev: u32,
    start: Instant,
}

/// Enter the span `name` under the thread's current span, merging with
/// any previous entry of the same name at the same position.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let parent = CURRENT.with(|c| c.get());
    let node = with_tree(|tree| {
        let id = if let Some(&id) =
            tree[parent as usize].children.iter().find(|&&c| tree[c as usize].name == name)
        {
            id
        } else {
            let id = tree.len() as u32;
            tree.push(SpanNode { name, count: 0, total_ns: 0, children: Vec::new() });
            tree[parent as usize].children.push(id);
            id
        };
        tree[id as usize].count += 1;
        id
    });
    CURRENT.with(|c| c.set(node));
    SpanGuard { inner: Some(SpanGuardInner { node, prev: parent, start: Instant::now() }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_tree(|tree| tree[inner.node as usize].total_ns += ns);
            CURRENT.with(|c| c.set(inner.prev));
        }
    }
}

/// Open a span for the rest of the enclosing scope:
/// `telemetry::span!("engine.compile");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _syndcim_span_guard = $crate::span($name);
    };
}

// ---------------------------------------------------------------------
// Snapshots and reports
// ---------------------------------------------------------------------

/// One merged span node in a [`Report`]: every entry of the same name
/// at the same tree position, from any thread, aggregated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total time spent inside (including children), in nanoseconds.
    /// Wall-clock: **never assert on this field** — compare
    /// [`SpanSnapshot::signature`]s instead.
    pub total_ns: u64,
    /// Child spans, sorted by name (deterministic regardless of the
    /// thread interleaving that created them).
    pub children: Vec<SpanSnapshot>,
}

impl SpanSnapshot {
    /// A copy with every `total_ns` zeroed — the deterministic part of
    /// the tree (names, nesting, counts), safe to assert equality on.
    pub fn signature(&self) -> SpanSnapshot {
        SpanSnapshot {
            name: self.name.clone(),
            count: self.count,
            total_ns: 0,
            children: self.children.iter().map(SpanSnapshot::signature).collect(),
        }
    }
}

/// A point-in-time copy of everything the collector holds. The
/// implementation flow attaches one to each `ImplementedMacro` as its
/// `FlowReport`; [`Report::to_json`] serializes it with a deterministic
/// schema and key order so runs can be diffed.
#[derive(Debug, Clone)]
pub struct Report {
    /// The merged span tree (the root's `count`/`total_ns` are 0).
    pub root: SpanSnapshot,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, sorted by name; each as sparse
    /// `(bucket, count)` pairs where bucket `i` covers
    /// `[2^(i-1), 2^i)` ns.
    pub histograms: Vec<(String, Vec<(u32, u64)>)>,
}

fn snapshot_node(tree: &[SpanNode], id: u32) -> SpanSnapshot {
    let n = &tree[id as usize];
    let mut children: Vec<SpanSnapshot> = n.children.iter().map(|&c| snapshot_node(tree, c)).collect();
    children.sort_by(|a, b| a.name.cmp(&b.name));
    SpanSnapshot { name: n.name.to_string(), count: n.count, total_ns: n.total_ns, children }
}

/// Snapshot the collector (span tree + counters + gauges + histograms).
/// Cheap relative to any instrumented workload; safe to call with
/// spans still open (open spans have not yet added their time).
pub fn snapshot() -> Report {
    let root = with_tree(|tree| snapshot_node(tree, 0));
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (&name, m) in METRICS.lock().expect("telemetry registry poisoned").iter() {
        match m {
            Metric::Counter(c) => counters.push((name.to_string(), c.load(Ordering::Relaxed))),
            Metric::Gauge(g) => gauges.push((name.to_string(), g.load(Ordering::Relaxed))),
            Metric::Histogram(buckets) => {
                let sparse: Vec<(u32, u64)> = buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let v = b.load(Ordering::Relaxed);
                        (v > 0).then_some((i as u32, v))
                    })
                    .collect();
                histograms.push((name.to_string(), sparse));
            }
        }
    }
    Report { root, counters, gauges, histograms }
}

/// Clear the span tree and zero every counter, gauge and histogram
/// (registrations and cached handles stay valid). Call at the start of
/// a run whose report should not include earlier activity.
pub fn reset() {
    with_tree(|tree| {
        tree.clear();
        tree.push(SpanNode { name: "root", count: 0, total_ns: 0, children: Vec::new() });
    });
    for m in METRICS.lock().expect("telemetry registry poisoned").values() {
        match m {
            Metric::Counter(c) => c.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.store(0, Ordering::Relaxed),
            Metric::Histogram(buckets) => {
                for b in buckets.iter() {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_span(s: &SpanSnapshot, out: &mut String) {
    out.push_str("{\"name\":");
    json_escape(&s.name, out);
    out.push_str(&format!(",\"count\":{},\"total_ns\":{},\"children\":[", s.count, s.total_ns));
    for (i, c) in s.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_span(c, out);
    }
    out.push_str("]}");
}

impl Report {
    /// Value of counter `name` in this snapshot, if it was registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of gauge `name` in this snapshot, if it was registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serialize with a deterministic schema: fixed top-level key
    /// order (`schema`, `spans`, `counters`, `gauges`, `histograms`),
    /// counters/gauges/histograms sorted by name, span children sorted
    /// by name. The only fields that vary between identical runs are
    /// the `total_ns` durations and the histogram bucket placements —
    /// diff tooling asserts on everything else.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"syndcim-flow-report-v1\",\"spans\":");
        json_span(&self.root, &mut out);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape(name, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape(name, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, sparse)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape(name, &mut out);
            out.push_str(":[");
            for (j, (bucket, count)) in sparse.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bucket},{count}]"));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// Human-readable summary: indented span tree with times, then the
    /// counter and gauge tables.
    pub fn render(&self) -> String {
        fn walk(s: &SpanSnapshot, depth: usize, out: &mut String) {
            let ms = s.total_ns as f64 / 1e6;
            out.push_str(&format!(
                "{:indent$}{:<32} {:>10.2} ms  x{}\n",
                "",
                s.name,
                ms,
                s.count,
                indent = depth * 2
            ));
            for c in &s.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::from("spans:\n");
        for c in &self.root.children {
            walk(c, 1, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global telemetry state is shared across tests in this binary;
    /// serialize the ones that reset it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_record_nothing() {
        let _l = LOCK.lock().unwrap();
        set_mode(Mode::Off);
        reset();
        {
            span!("ghost");
            counter("ghost.count").incr();
            gauge("ghost.gauge").set(7);
            histogram("ghost.hist").record_ns(100);
        }
        let r = snapshot();
        assert!(r.root.children.is_empty(), "no spans recorded while off");
        assert_eq!(r.counter("ghost.count"), Some(0));
        assert_eq!(r.gauge("ghost.gauge"), Some(0));
    }

    #[test]
    fn spans_merge_by_parent_and_name() {
        let _l = LOCK.lock().unwrap();
        set_mode(Mode::Summary);
        reset();
        for _ in 0..3 {
            span!("outer");
            span!("inner");
        }
        let r = snapshot();
        set_mode(Mode::Off);
        assert_eq!(r.root.children.len(), 1);
        let outer = &r.root.children[0];
        assert_eq!((outer.name.as_str(), outer.count), ("outer", 3));
        assert_eq!(outer.children.len(), 1);
        assert_eq!((outer.children[0].name.as_str(), outer.children[0].count), ("inner", 3));
    }

    #[test]
    fn adopt_parents_cross_thread_spans() {
        let _l = LOCK.lock().unwrap();
        set_mode(Mode::Summary);
        reset();
        {
            let g = span("parent");
            let here = current_span();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _a = adopt(here);
                        span!("worker");
                    });
                }
            });
            drop(g);
        }
        let r = snapshot();
        set_mode(Mode::Off);
        let parent = &r.root.children[0];
        assert_eq!(parent.name, "parent");
        assert_eq!(parent.children.len(), 1, "4 worker entries merge into one node");
        assert_eq!(parent.children[0].count, 4);
    }

    #[test]
    fn json_schema_is_stable() {
        let _l = LOCK.lock().unwrap();
        set_mode(Mode::Json);
        reset();
        {
            span!("a");
            counter("z.counter").add(2);
            counter("a.counter").add(1);
        }
        let r = snapshot();
        set_mode(Mode::Off);
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"syndcim-flow-report-v1\""));
        let az = json.find("\"a.counter\"").zip(json.find("\"z.counter\""));
        let (a, z) = az.expect("both counters serialized");
        assert!(a < z, "counters sorted by name");
        let sig = r.root.signature();
        assert_eq!(sig.children[0].total_ns, 0);
    }
}
