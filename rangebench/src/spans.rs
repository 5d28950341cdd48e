//! The benchmark's own span recorder: one span around each call the
//! benchmark makes into a crate's public API, kept in memory and written out
//! as JSON Lines when the traced run ends. Nothing inside the program is
//! instrumented by it.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

struct Record {
    name: &'static str,
    parent: Option<usize>,
    trace: usize,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// Records nested spans on the benchmark's main thread. Disabled recorders
/// (the untraced end-to-end runs) record nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    records: Vec<Record>,
    open: Vec<usize>,
    traces: usize,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
            traces: 0,
        }
    }

    /// Opens a span as a child of the innermost open span; a span with no
    /// open parent starts a new trace.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.records[p].trace,
            None => {
                self.traces += 1;
                self.traces
            }
        };
        self.records.push(Record {
            name,
            parent,
            trace,
            start_ns: self.now_ns(),
            end_ns: None,
        });
        let id = self.records.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any still-open children of it).
    pub fn close(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.records[top].end_ns = Some(now);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of closed spans.
    pub fn len(&self) -> usize {
        self.records.iter().filter(|r| r.end_ns.is_some()).count()
    }

    /// The closed spans as JSON Lines, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, r) in self.records.iter().enumerate() {
            let Some(end_ns) = r.end_ns else { continue };
            let parent = r.parent.map_or("null".to_string(), |p| (p + 1).to_string());
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end_ns}}}",
                r.trace,
                id + 1,
                r.name,
                r.start_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_trace_and_parent_links() {
        let mut spans = Spans::new(true);
        let root = spans.open("root");
        spans.time("child", || ());
        spans.close(root);
        spans.time("second-root", || ());
        let lines: Vec<String> = spans.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"trace_id\":1,\"span_id\":1,\"parent_span_id\":null"));
        assert!(lines[1].contains("\"trace_id\":1,\"span_id\":2,\"parent_span_id\":1"));
        assert!(lines[2].contains("\"trace_id\":2,\"span_id\":3,\"parent_span_id\":null"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let s = spans.open("x");
        spans.close(s);
        assert_eq!(spans.len(), 0);
        assert!(spans.to_jsonl().is_empty());
    }
}
