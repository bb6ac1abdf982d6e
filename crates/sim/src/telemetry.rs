//! Hierarchical metrics registry and span tracing.
//!
//! The paper's flow (Fig. 1) leans on trace artifacts — FSDB waveforms,
//! per-unit activity reports — to close the loop between simulation and
//! physical design. This module is the reproduction's equivalent
//! observability layer:
//!
//! * a **metrics registry** of counters, gauges, latency histograms and
//!   polled probes, registered under dot-separated component paths
//!   (`soc.hub`, `soc.pe3`, `noc.l11p3->15`) and snapshotable at any
//!   cycle;
//! * **span tracing** for command lifetimes (hub dispatch → NoC
//!   traversal → PE execution → Done), cycle-stamped and ring-buffered
//!   with a configurable cap;
//! * JSON export of a [`TelemetrySnapshot`] without any external
//!   dependency (the shapes are serde-ready should one appear).
//!
//! Telemetry is strictly **observation-only**: attaching it to a model
//! must not change simulated cycles, results, or charged gates. The
//! intended wiring is `Option<Telemetry>` per component, so the
//! disabled path is a single `None` check.
//!
//! ```
//! use craft_sim::telemetry::Telemetry;
//! let tel = Telemetry::new();
//! let c = tel.counter("soc.hub.dispatched");
//! c.incr();
//! c.add(2);
//! let id = tel.span_begin("cmd.pe3", 10);
//! tel.span_end(id, "retire", 42);
//! let snap = tel.snapshot(100);
//! assert_eq!(snap.metrics[0].value, 3);
//! assert!(snap.to_json().starts_with('{'));
//! ```

use crate::stats::Histogram;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

/// Default span ring-buffer capacity (events, not spans).
pub const DEFAULT_SPAN_CAP: usize = 4096;

/// A registered counter handle. Cheap to clone; all clones share the
/// same cell, and the owning [`Telemetry`] reads it at snapshot time.
#[derive(Debug, Clone)]
pub struct TelCounter(Rc<Cell<u64>>);

impl TelCounter {
    /// Adds one.
    pub fn incr(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A registered gauge handle (last-write-wins sampled value).
#[derive(Debug, Clone)]
pub struct TelGauge(Rc<Cell<u64>>);

impl TelGauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Lane-indexed counter array for batched lockstep runs: one shared
/// `Vec<u64>` (struct-of-arrays — the per-lane values live contiguously)
/// registered under `path.lane<i>` probe rows plus a `path.merged` row
/// that sums the lanes at snapshot time. Writers index by lane; the
/// registry polls lazily, so the hot loop touches one array slot.
#[derive(Debug, Clone)]
pub struct TelLaneCounters(Rc<RefCell<Vec<u64>>>);

impl TelLaneCounters {
    /// Adds `n` to lane `lane`'s counter.
    pub fn add(&self, lane: usize, n: u64) {
        self.0.borrow_mut()[lane] += n;
    }

    /// Overwrites lane `lane`'s counter (for end-of-run publication of
    /// externally accumulated per-lane totals).
    pub fn set(&self, lane: usize, n: u64) {
        self.0.borrow_mut()[lane] = n;
    }

    /// Lane `lane`'s current value.
    pub fn get(&self, lane: usize) -> u64 {
        self.0.borrow()[lane]
    }

    /// Sum over all lanes — the merged view the `path.merged` probe
    /// reports.
    pub fn merged(&self) -> u64 {
        self.0.borrow().iter().sum()
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.0.borrow().len()
    }
}

/// A registered latency-histogram handle (see [`Histogram`]).
#[derive(Debug, Clone)]
pub struct TelHistogram(Rc<RefCell<Histogram>>);

impl TelHistogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Total samples recorded so far.
    pub fn total(&self) -> u64 {
        self.0.borrow().total()
    }
}

/// What kind of event a [`SpanEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Span opened.
    Begin,
    /// Intermediate cycle-stamped point inside a span.
    Point,
    /// Span closed.
    End,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Begin => "begin",
            SpanKind::Point => "point",
            SpanKind::End => "end",
        }
    }
}

/// One cycle-stamped event in the span ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span correlation id (shared by Begin/Point/End of one span).
    pub span: u64,
    /// Event kind.
    pub kind: SpanKind,
    /// Human-readable label (`"cmd.pe3"`, `"retire"`, ...).
    pub label: String,
    /// Cycle stamp on the recording component's clock.
    pub cycle: u64,
}

/// Metric kinds as reported in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event counter.
    Counter,
    /// Sampled last-write-wins value.
    Gauge,
    /// Lazily polled value (closure evaluated at snapshot time).
    Probe,
    /// Latency histogram (value = total samples).
    Histogram,
}

impl MetricKind {
    /// Snapshot/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Probe => "probe",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric row in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Dot-separated registry path.
    pub path: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Value (for histograms: total samples).
    pub value: u64,
    /// Bucket-granular p50 upper bound (histograms only).
    pub p50: Option<u64>,
    /// Bucket-granular p99 upper bound (histograms only).
    pub p99: Option<u64>,
}

/// Wall-clock attribution for one component's `tick()` calls, produced
/// by the kernel's tick-profiling hook
/// ([`crate::Simulator::set_tick_profiling`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickProfile {
    /// Component name.
    pub name: String,
    /// Owning clock name.
    pub clock: String,
    /// Ticks delivered to this component while profiling was on.
    pub ticks: u64,
    /// Total wall-clock nanoseconds spent inside `tick()`.
    pub nanos: u64,
}

enum Metric {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<u64>>),
    Histogram(Rc<RefCell<Histogram>>),
    Probe(Box<dyn Fn() -> u64>),
}

impl std::fmt::Debug for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Counter(c) => write!(f, "Counter({})", c.get()),
            Metric::Gauge(g) => write!(f, "Gauge({})", g.get()),
            Metric::Histogram(_) => write!(f, "Histogram"),
            Metric::Probe(_) => write!(f, "Probe"),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Vec<(String, Metric)>,
    spans: VecDeque<SpanEvent>,
    span_cap: usize,
    spans_dropped: u64,
    spans_recorded: u64,
    next_span: u64,
    profiling: bool,
}

/// Shared telemetry handle: a hierarchical metrics registry plus a
/// span-event ring buffer. Clones share state (`Rc`), so one handle can
/// be threaded through hub, PEs, routers and the harness.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<Inner>>,
}

impl Telemetry {
    /// A fresh registry with the default span cap
    /// ([`DEFAULT_SPAN_CAP`] events).
    pub fn new() -> Self {
        Self::with_span_cap(DEFAULT_SPAN_CAP)
    }

    /// A fresh registry retaining at most `cap` span events; older
    /// events are dropped (and counted) once the ring is full.
    pub fn with_span_cap(cap: usize) -> Self {
        Telemetry {
            inner: Rc::new(RefCell::new(Inner {
                span_cap: cap,
                ..Inner::default()
            })),
        }
    }

    /// Registers (or re-fetches) a counter at `path`.
    pub fn counter(&self, path: impl Into<String>) -> TelCounter {
        let path = path.into();
        let mut inner = self.inner.borrow_mut();
        for (p, m) in &inner.metrics {
            if *p == path {
                if let Metric::Counter(c) = m {
                    return TelCounter(Rc::clone(c));
                }
            }
        }
        let cell = Rc::new(Cell::new(0));
        inner
            .metrics
            .push((path, Metric::Counter(Rc::clone(&cell))));
        TelCounter(cell)
    }

    /// Registers (or re-fetches) a gauge at `path`.
    pub fn gauge(&self, path: impl Into<String>) -> TelGauge {
        let path = path.into();
        let mut inner = self.inner.borrow_mut();
        for (p, m) in &inner.metrics {
            if *p == path {
                if let Metric::Gauge(g) = m {
                    return TelGauge(Rc::clone(g));
                }
            }
        }
        let cell = Rc::new(Cell::new(0));
        inner.metrics.push((path, Metric::Gauge(Rc::clone(&cell))));
        TelGauge(cell)
    }

    /// Registers a latency histogram at `path` with `n_buckets` buckets
    /// of `bucket_width` each (see [`Histogram::new`]).
    pub fn histogram(
        &self,
        path: impl Into<String>,
        bucket_width: u64,
        n_buckets: usize,
    ) -> TelHistogram {
        let h = Rc::new(RefCell::new(Histogram::new(bucket_width, n_buckets)));
        self.inner
            .borrow_mut()
            .metrics
            .push((path.into(), Metric::Histogram(Rc::clone(&h))));
        TelHistogram(h)
    }

    /// Registers a lane-indexed counter array at `path`: `lanes`
    /// per-lane probe rows (`path.lane<i>`) over one contiguous shared
    /// vector, plus a `path.merged` row summing them at snapshot time.
    /// The batched lockstep backend publishes per-lane fault/token
    /// counters through this.
    pub fn lane_counters(&self, path: impl Into<String>, lanes: usize) -> TelLaneCounters {
        let path = path.into();
        let store = Rc::new(RefCell::new(vec![0u64; lanes]));
        for lane in 0..lanes {
            let s = Rc::clone(&store);
            self.probe(format!("{path}.lane{lane}"), move || s.borrow()[lane]);
        }
        let s = Rc::clone(&store);
        self.probe(format!("{path}.merged"), move || s.borrow().iter().sum());
        TelLaneCounters(store)
    }

    /// Registers a polled probe at `path`: `f` is evaluated only at
    /// snapshot time, so probes cost nothing while the model runs.
    pub fn probe(&self, path: impl Into<String>, f: impl Fn() -> u64 + 'static) {
        self.inner
            .borrow_mut()
            .metrics
            .push((path.into(), Metric::Probe(Box::new(f))));
    }

    /// Registers an existing shared histogram (e.g. a component's
    /// internal latency histogram) for snapshot export.
    pub fn adopt_histogram(&self, path: impl Into<String>, h: Rc<RefCell<Histogram>>) {
        self.inner
            .borrow_mut()
            .metrics
            .push((path.into(), Metric::Histogram(h)));
    }

    /// Opens a span, recording a cycle-stamped `Begin` event, and
    /// returns its correlation id.
    pub fn span_begin(&self, label: impl Into<String>, cycle: u64) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_span;
        inner.next_span += 1;
        push_span(
            &mut inner,
            SpanEvent {
                span: id,
                kind: SpanKind::Begin,
                label: label.into(),
                cycle,
            },
        );
        id
    }

    /// Records an intermediate cycle-stamped point inside span `span`.
    pub fn span_point(&self, span: u64, label: impl Into<String>, cycle: u64) {
        push_span(
            &mut self.inner.borrow_mut(),
            SpanEvent {
                span,
                kind: SpanKind::Point,
                label: label.into(),
                cycle,
            },
        );
    }

    /// Closes span `span` with a cycle-stamped `End` event.
    pub fn span_end(&self, span: u64, label: impl Into<String>, cycle: u64) {
        push_span(
            &mut self.inner.borrow_mut(),
            SpanEvent {
                span,
                kind: SpanKind::End,
                label: label.into(),
                cycle,
            },
        );
    }

    /// Total span events recorded (including any later dropped).
    pub fn spans_recorded(&self) -> u64 {
        self.inner.borrow().spans_recorded
    }

    /// Span events evicted from the ring buffer.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.borrow().spans_dropped
    }

    /// Requests per-component wall-clock tick profiling. The flag is
    /// read when the telemetry handle is attached to a simulator (e.g.
    /// by `Soc::build_with_telemetry`); it does not retroactively
    /// enable profiling on an already-built model.
    pub fn set_profiling(&self, on: bool) {
        self.inner.borrow_mut().profiling = on;
    }

    /// Whether tick profiling was requested.
    pub fn profiling(&self) -> bool {
        self.inner.borrow().profiling
    }

    /// Number of registered metrics.
    pub fn metric_count(&self) -> usize {
        self.inner.borrow().metrics.len()
    }

    /// Captures every metric, the span ring and (optionally) a tick
    /// profile into an exportable snapshot stamped with `cycle`.
    pub fn snapshot(&self, cycle: u64) -> TelemetrySnapshot {
        self.snapshot_with_profile(cycle, Vec::new())
    }

    /// Like [`Telemetry::snapshot`] but attaches a tick-time profile
    /// (from [`crate::Simulator::tick_profile`]).
    pub fn snapshot_with_profile(
        &self,
        cycle: u64,
        profile: Vec<TickProfile>,
    ) -> TelemetrySnapshot {
        let inner = self.inner.borrow();
        let mut metrics = Vec::with_capacity(inner.metrics.len());
        for (path, m) in &inner.metrics {
            let row = match m {
                Metric::Counter(c) => MetricRow {
                    path: path.clone(),
                    kind: MetricKind::Counter,
                    value: c.get(),
                    p50: None,
                    p99: None,
                },
                Metric::Gauge(g) => MetricRow {
                    path: path.clone(),
                    kind: MetricKind::Gauge,
                    value: g.get(),
                    p50: None,
                    p99: None,
                },
                Metric::Probe(f) => MetricRow {
                    path: path.clone(),
                    kind: MetricKind::Probe,
                    value: f(),
                    p50: None,
                    p99: None,
                },
                Metric::Histogram(h) => {
                    let h = h.borrow();
                    MetricRow {
                        path: path.clone(),
                        kind: MetricKind::Histogram,
                        value: h.total(),
                        p50: Some(h.quantile_upper_bound(0.5)),
                        p99: Some(h.quantile_upper_bound(0.99)),
                    }
                }
            };
            metrics.push(row);
        }
        TelemetrySnapshot {
            cycle,
            metrics,
            spans: inner.spans.iter().cloned().collect(),
            spans_recorded: inner.spans_recorded,
            spans_dropped: inner.spans_dropped,
            profile,
        }
    }
}

fn push_span(inner: &mut Inner, ev: SpanEvent) {
    inner.spans_recorded += 1;
    if inner.span_cap == 0 {
        inner.spans_dropped += 1;
        return;
    }
    if inner.spans.len() == inner.span_cap {
        inner.spans.pop_front();
        inner.spans_dropped += 1;
    }
    inner.spans.push_back(ev);
}

/// A point-in-time export of everything a [`Telemetry`] holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Cycle at which the snapshot was taken (caller-defined clock).
    pub cycle: u64,
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricRow>,
    /// Retained span events, oldest first.
    pub spans: Vec<SpanEvent>,
    /// Total span events ever recorded.
    pub spans_recorded: u64,
    /// Span events evicted by the ring cap.
    pub spans_dropped: u64,
    /// Per-component wall-clock tick attribution (empty unless
    /// profiling was enabled).
    pub profile: Vec<TickProfile>,
}

impl TelemetrySnapshot {
    /// Renders the snapshot as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"cycle\": {},", self.cycle);
        s.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            let mut extra = String::new();
            if let (Some(p50), Some(p99)) = (m.p50, m.p99) {
                let _ = write!(extra, ", \"p50\": {p50}, \"p99\": {p99}");
            }
            let _ = writeln!(
                s,
                "    {{\"path\": \"{}\", \"kind\": \"{}\", \"value\": {}{}}}{}",
                json_escape(&m.path),
                m.kind.label(),
                m.value,
                extra,
                comma
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"spans_recorded\": {},", self.spans_recorded);
        let _ = writeln!(s, "  \"spans_dropped\": {},", self.spans_dropped);
        s.push_str("  \"spans\": [\n");
        for (i, ev) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"span\": {}, \"kind\": \"{}\", \"label\": \"{}\", \"cycle\": {}}}{}",
                ev.span,
                ev.kind.label(),
                json_escape(&ev.label),
                ev.cycle,
                comma
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"tick_profile\": [\n");
        for (i, p) in self.profile.iter().enumerate() {
            let comma = if i + 1 == self.profile.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"component\": \"{}\", \"clock\": \"{}\", \"ticks\": {}, \"nanos\": {}}}{}",
                json_escape(&p.name),
                json_escape(&p.clock),
                p.ticks,
                p.nanos,
                comma
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Metric value at `path`, if registered.
    pub fn metric(&self, path: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.path == path)
            .map(|m| m.value)
    }
}

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes and control characters. The one escaper every JSON
/// emitter in the workspace shares.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let tel = Telemetry::new();
        let c = tel.counter("soc.hub.dispatched");
        c.incr();
        c.add(4);
        let g = tel.gauge("soc.hub.doorbell");
        g.set(7);
        g.set(3);
        let snap = tel.snapshot(99);
        assert_eq!(snap.cycle, 99);
        assert_eq!(snap.metric("soc.hub.dispatched"), Some(5));
        assert_eq!(snap.metric("soc.hub.doorbell"), Some(3));
        assert_eq!(snap.metric("missing"), None);
    }

    #[test]
    fn counter_reregistration_shares_state() {
        let tel = Telemetry::new();
        let a = tel.counter("x");
        let b = tel.counter("x");
        a.incr();
        b.incr();
        assert_eq!(a.get(), 2);
        assert_eq!(tel.metric_count(), 1, "same path registers once");
    }

    #[test]
    fn probes_poll_lazily() {
        let tel = Telemetry::new();
        let src = Rc::new(Cell::new(0u64));
        let src2 = Rc::clone(&src);
        tel.probe("noc.l0.occupancy", move || src2.get());
        src.set(41);
        assert_eq!(tel.snapshot(0).metric("noc.l0.occupancy"), Some(41));
        src.set(17);
        assert_eq!(tel.snapshot(1).metric("noc.l0.occupancy"), Some(17));
    }

    #[test]
    fn histogram_reports_quantiles() {
        let tel = Telemetry::new();
        let h = tel.histogram("soc.hub.latency", 10, 10);
        for v in [1, 5, 12, 95] {
            h.record(v);
        }
        let snap = tel.snapshot(0);
        let row = snap
            .metrics
            .iter()
            .find(|m| m.path == "soc.hub.latency")
            .unwrap();
        assert_eq!(row.kind, MetricKind::Histogram);
        assert_eq!(row.value, 4);
        assert_eq!(row.p50, Some(10));
        assert_eq!(row.p99, Some(100));
    }

    #[test]
    fn span_ring_caps_and_counts_drops() {
        let tel = Telemetry::with_span_cap(3);
        let id = tel.span_begin("cmd", 0);
        tel.span_point(id, "hop", 1);
        tel.span_point(id, "hop", 2);
        tel.span_end(id, "retire", 3);
        assert_eq!(tel.spans_recorded(), 4);
        assert_eq!(tel.spans_dropped(), 1);
        let snap = tel.snapshot(3);
        assert_eq!(snap.spans.len(), 3);
        // Oldest (the Begin) was evicted.
        assert_eq!(snap.spans[0].kind, SpanKind::Point);
        assert_eq!(snap.spans[2].kind, SpanKind::End);
    }

    #[test]
    fn span_ids_are_unique() {
        let tel = Telemetry::new();
        let a = tel.span_begin("a", 0);
        let b = tel.span_begin("b", 0);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_cap_drops_everything() {
        let tel = Telemetry::with_span_cap(0);
        let id = tel.span_begin("x", 0);
        tel.span_end(id, "y", 1);
        assert_eq!(tel.spans_recorded(), 2);
        assert_eq!(tel.spans_dropped(), 2);
        assert!(tel.snapshot(0).spans.is_empty());
    }

    #[test]
    fn lane_counters_expose_per_lane_and_merged_rows() {
        let tel = Telemetry::new();
        let lanes = tel.lane_counters("sim.batch.injected", 4);
        lanes.add(0, 3);
        lanes.add(2, 5);
        lanes.set(3, 1);
        assert_eq!((lanes.lanes(), lanes.get(1), lanes.merged()), (4, 0, 9));
        let snap = tel.snapshot(0);
        assert_eq!(snap.metric("sim.batch.injected.lane0"), Some(3));
        assert_eq!(snap.metric("sim.batch.injected.lane1"), Some(0));
        assert_eq!(snap.metric("sim.batch.injected.lane2"), Some(5));
        assert_eq!(snap.metric("sim.batch.injected.merged"), Some(9));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("l11p3->15"), "l11p3->15");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn snapshot_json_has_expected_fields() {
        let tel = Telemetry::new();
        tel.counter("soc.pe3.commands").add(2);
        let id = tel.span_begin("cmd.pe3", 5);
        tel.span_end(id, "retire", 9);
        let snap = tel.snapshot_with_profile(
            12,
            vec![TickProfile {
                name: "hub".into(),
                clock: "hub_clk".into(),
                ticks: 12,
                nanos: 3400,
            }],
        );
        let js = snap.to_json();
        assert!(js.contains("\"cycle\": 12"));
        assert!(js.contains("\"path\": \"soc.pe3.commands\""));
        assert!(js.contains("\"kind\": \"counter\""));
        assert!(js.contains("\"label\": \"retire\""));
        assert!(js.contains("\"component\": \"hub\""));
        assert!(js.contains("\"nanos\": 3400"));
    }
}
