#![warn(missing_docs)]

//! # sgcr-obs
//!
//! Zero-overhead-when-off telemetry for the smart grid cyber range: the
//! measurement layer the paper's evaluation (§IV) is built on. A
//! [`Telemetry`] handle carries a metric registry (monotonic [`Counter`]s,
//! [`Gauge`]s, fixed-bucket [`Histogram`]s) and a bounded ring-buffer
//! [`Event`] journal; it is threaded through the network emulator, the
//! power-flow solver, and the co-simulation loop.
//!
//! Two states, one API:
//!
//! * [`Telemetry::new`] — instruments record, the journal retains events,
//!   and snapshots/exports are available.
//! * [`Telemetry::disabled`] — every handed-out instrument is a detached
//!   no-op and [`Telemetry::record`] returns before even *constructing* the
//!   event (the closure is never called). No allocation, no formatting, no
//!   locking on the hot path: a disabled range behaves byte-identically to
//!   an un-instrumented one.
//!
//! # Examples
//!
//! ```
//! use sgcr_obs::{buckets, Event, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! let delivered = telemetry.counter("net.frames_delivered");
//! let solve = telemetry.histogram("powerflow.solve_seconds", &buckets::LATENCY_SECONDS);
//! delivered.inc();
//! solve.observe(0.0004);
//! telemetry.record(1_000_000, || Event::SolveCompleted { iters: 3, seconds: 0.0004 });
//!
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counter("net.frames_delivered"), Some(1));
//! assert_eq!(snap.histogram("powerflow.solve_seconds").map(|h| h.count), Some(1));
//! assert_eq!(telemetry.events().len(), 1);
//! ```

pub mod agg;
mod journal;
pub mod json;
mod metric;
pub mod prom;
mod snapshot;
mod trace;

pub use agg::FarmAggregator;
pub use journal::{Event, EventRecord, Name};
pub use metric::{buckets, Counter, Gauge, Histogram};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use trace::{OpenSpan, Plane, SpanRecord, TimeNs, TraceCtx, Tracer, DEFAULT_SPAN_CAPACITY};

use journal::Journal;
use metric::HistogramCore;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default journal capacity: enough for minutes of event-dense simulation
/// without unbounded growth.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

struct Inner {
    instruments: Mutex<BTreeMap<String, Instrument>>,
    journal: Journal,
    tracer: Tracer,
}

/// The telemetry handle: a cheaply cloneable registry + journal, or a
/// no-op shell when [disabled](Telemetry::disabled).
///
/// Cloning shares the underlying state, so a handle can be given to every
/// subsystem of a range and observed from the outside.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled registry with the [default journal capacity](DEFAULT_JOURNAL_CAPACITY).
    /// Tracing stays off; use [`Telemetry::with_tracing`] to record spans.
    pub fn new() -> Telemetry {
        Telemetry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled registry whose journal retains at most `capacity` events
    /// (oldest evicted first).
    pub fn with_journal_capacity(capacity: usize) -> Telemetry {
        Telemetry::with_capacities(capacity, None)
    }

    /// An enabled registry that also records causal [spans](SpanRecord):
    /// [`tracer`](Telemetry::tracer) hands out a live [`Tracer`] with the
    /// [default span capacity](DEFAULT_SPAN_CAPACITY).
    pub fn with_tracing() -> Telemetry {
        Telemetry::with_capacities(DEFAULT_JOURNAL_CAPACITY, Some(DEFAULT_SPAN_CAPACITY))
    }

    /// An enabled registry with explicit journal and span-buffer capacities
    /// (`span_capacity: None` leaves tracing off).
    pub fn with_capacities(journal_capacity: usize, span_capacity: Option<usize>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                instruments: Mutex::new(BTreeMap::new()),
                journal: Journal::new(journal_capacity),
                tracer: match span_capacity {
                    Some(capacity) => Tracer::with_capacity(capacity),
                    None => Tracer::disabled(),
                },
            })),
        }
    }

    /// The no-op handle. Identical to `Telemetry::default()`.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The tracer behind this handle: live after
    /// [`Telemetry::with_tracing`], otherwise the disabled no-op tracer.
    /// Cheap to clone; subsystems keep their own copy.
    pub fn tracer(&self) -> Tracer {
        self.inner
            .as_ref()
            .map(|i| i.tracer.clone())
            .unwrap_or_default()
    }

    /// Whether spans are being recorded.
    pub fn is_tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.tracer.is_enabled())
    }

    /// All buffered spans, in completion order (empty unless tracing).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer().spans()
    }

    /// How many spans were evicted by the span-buffer bound.
    pub fn spans_dropped(&self) -> u64 {
        self.tracer().spans_dropped()
    }

    /// Gets or creates the counter `name`.
    ///
    /// Disabled telemetry returns a detached no-op counter. If `name` is
    /// already registered as a different instrument kind, a detached
    /// (unexported) counter is returned rather than panicking.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::disabled();
        };
        let mut instruments = inner.instruments.lock();
        match instruments.get(name) {
            Some(Instrument::Counter(cell)) => Counter(Some(cell.clone())),
            Some(_) => Counter(Some(Arc::new(AtomicU64::new(0)))),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                instruments.insert(name.to_string(), Instrument::Counter(cell.clone()));
                Counter(Some(cell))
            }
        }
    }

    /// Gets or creates the gauge `name` (same conventions as [`counter`](Telemetry::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::disabled();
        };
        let mut instruments = inner.instruments.lock();
        match instruments.get(name) {
            Some(Instrument::Gauge(cell)) => Gauge(Some(cell.clone())),
            Some(_) => Gauge(Some(Arc::new(AtomicU64::new(0f64.to_bits())))),
            None => {
                let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
                instruments.insert(name.to_string(), Instrument::Gauge(cell.clone()));
                Gauge(Some(cell))
            }
        }
    }

    /// Gets or creates the histogram `name` with the given finite bucket
    /// bounds (an overflow `+Inf` bucket is implicit). A histogram that
    /// already exists keeps its original bounds; `bounds` is then ignored.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::disabled();
        };
        let mut instruments = inner.instruments.lock();
        match instruments.get(name) {
            Some(Instrument::Histogram(core)) => Histogram(Some(core.clone())),
            Some(_) => Histogram(Some(Arc::new(HistogramCore::new(bounds)))),
            None => {
                let core = Arc::new(HistogramCore::new(bounds));
                instruments.insert(name.to_string(), Instrument::Histogram(core.clone()));
                Histogram(Some(core))
            }
        }
    }

    /// Appends an event to the journal at simulation time `t` (anything
    /// convertible to [`TimeNs`]: raw `u64` nanoseconds, or an explicit
    /// [`TimeNs::from_millis`] at millisecond call sites).
    ///
    /// The event is built by the closure, which is **not called** when
    /// telemetry is disabled — callers can format strings inside it without
    /// paying anything on the disabled path.
    #[inline]
    pub fn record<T: Into<TimeNs>, F: FnOnce() -> Event>(&self, t: T, make: F) {
        if let Some(inner) = &self.inner {
            inner.journal.push(t.into().as_nanos(), make());
        }
    }

    /// A snapshot of the journal, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner
            .as_ref()
            .map(|i| i.journal.records())
            .unwrap_or_default()
    }

    /// How many journal records have been evicted by the ring-buffer bound.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.journal.dropped())
    }

    /// The journal rendered as JSON Lines (one [`EventRecord`] object per
    /// line) — the `--journal` file format of the CLI. The records are
    /// written straight from the journal into one buffer.
    pub fn journal_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map(|i| i.journal.jsonl())
            .unwrap_or_default()
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let instruments = inner.instruments.lock();
        let mut snap = MetricsSnapshot {
            journal_dropped: inner.journal.dropped(),
            spans_dropped: inner.tracer.spans_dropped(),
            ..MetricsSnapshot::default()
        };
        for (name, instrument) in instruments.iter() {
            match instrument {
                Instrument::Counter(cell) => snap
                    .counters
                    .push((name.clone(), cell.load(Ordering::Relaxed))),
                Instrument::Gauge(cell) => snap
                    .gauges
                    .push((name.clone(), f64::from_bits(cell.load(Ordering::Relaxed)))),
                Instrument::Histogram(core) => {
                    let mut buckets: Vec<(f64, u64)> = core
                        .bounds
                        .iter()
                        .zip(core.buckets.iter())
                        .map(|(b, c)| (*b, c.load(Ordering::Relaxed)))
                        .collect();
                    buckets.push((
                        f64::INFINITY,
                        core.buckets[core.bounds.len()].load(Ordering::Relaxed),
                    ));
                    snap.histograms.push((
                        name.clone(),
                        HistogramSnapshot {
                            count: core.count.load(Ordering::Relaxed),
                            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
                            buckets,
                        },
                    ));
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_share() {
        let t = Telemetry::new();
        let a = t.counter("x");
        let b = t.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(t.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn disabled_is_a_noop_everywhere() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("c");
        c.inc();
        assert_eq!(c.get(), 0);
        t.gauge("g").set(5.0);
        t.histogram("h", &buckets::LATENCY_SECONDS).observe(1.0);
        let mut called = false;
        t.record(0, || {
            called = true;
            Event::GooseSent { ied: "x".into() }
        });
        assert!(!called, "disabled record must not build the event");
        assert!(t.events().is_empty());
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn histogram_buckets_fill_and_sum() {
        let t = Telemetry::new();
        let h = t.histogram("lat", &[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(0.05);
        h.observe(5.0); // overflow
        assert_eq!(h.count(), 4);
        let snap = t.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(
            hs.buckets.iter().map(|(_, c)| c).sum::<u64>(),
            hs.count,
            "bucket counts sum to total"
        );
        assert_eq!(hs.buckets.last().unwrap().1, 1, "+Inf bucket holds 5.0");
        assert!((hs.sum - 5.0555).abs() < 1e-9);
    }

    #[test]
    fn journal_is_bounded_and_counts_evictions() {
        // The records that outlive the bound: each takes a different path
        // through the journal's slots.
        let escaped = "I\"E\\D\u{1}";
        let retained = [
            // Boxed.
            Event::ProtectionTrip {
                ied: "TIED2".into(),
                detail: "PTOC1 tripped CB2".into(),
            },
            // Too large for an inline slot: boxed without loss.
            Event::PacketSent {
                host: "h1".into(),
                bytes: u64::from(u32::MAX) + 1,
            },
            // Inline, with a name that needs JSON escapes.
            Event::GooseSent {
                ied: escaped.into(),
            },
        ];
        let t = Telemetry::with_journal_capacity(3);
        for i in 0..2u64 {
            t.record(i, || Event::GooseSent {
                ied: format!("ied{i}").into(),
            });
        }
        for (i, event) in (2u64..).zip(&retained) {
            t.record(i, || event.clone());
        }
        let events = t.events();
        let seqs: Vec<u64> = events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [2, 3, 4], "oldest two evicted");
        let kept: Vec<&Event> = events.iter().map(|r| &r.event).collect();
        assert_eq!(kept, retained.iter().collect::<Vec<_>>());
        assert_eq!(t.events_dropped(), 2);
        assert_eq!(t.snapshot().journal_dropped, 2);

        let lines: String = events.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(t.journal_jsonl(), lines);
        assert!(lines.contains(",\"bytes\":4294967296}"));
        // As `json::quote` has always escaped it.
        let quoted = r#","ied":"I\"E\\D\u0001"}"#;
        assert!(lines.contains(quoted), "{quoted} in {lines}");
    }

    #[test]
    fn kind_mismatch_returns_detached_instrument() {
        let t = Telemetry::new();
        let _c = t.counter("name");
        let g = t.gauge("name"); // same name, different kind
        g.set(3.0);
        // The gauge works but is not exported; the counter keeps the name.
        assert!((g.get() - 3.0).abs() < f64::EPSILON);
        assert_eq!(t.snapshot().counter("name"), Some(0));
        assert!(t.snapshot().gauge("name").is_none());
    }

    #[test]
    fn snapshot_json_shape() {
        let t = Telemetry::new();
        t.counter("net.frames_delivered").add(7);
        t.gauge("range.step_overrun_ratio").set(0.25);
        t.histogram("powerflow.solve_seconds", &[0.001])
            .observe(0.0004);
        let json = t.snapshot().to_json();
        assert!(json.contains("\"net.frames_delivered\": 7"));
        assert!(json.contains("\"range.step_overrun_ratio\": 0.25"));
        assert!(json.contains("\"powerflow.solve_seconds\""));
        assert!(json.contains("\"le\": \"+Inf\""));
        assert!(json.contains("\"journal_dropped\": 0"));
    }

    #[test]
    fn journal_jsonl_lines_are_typed() {
        let t = Telemetry::new();
        t.record(1_500_000, || Event::ProtectionTrip {
            ied: "TIED2".into(),
            detail: "PTOC1 tripped CB2".into(),
        });
        t.record(2_000_000, || Event::SolveCompleted {
            iters: 4,
            seconds: 0.001,
        });
        let jsonl = t.journal_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"ProtectionTrip\""));
        assert!(lines[0].contains("\"t_ns\":1500000"));
        assert!(lines[1].contains("\"type\":\"SolveCompleted\""));
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let json = Telemetry::new().snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
