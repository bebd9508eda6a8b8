//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's code, around each call into a
//! layer — never from inside the program. They stay in memory until the
//! run ends, then become the per-layer self-time table and a Chrome
//! trace-event file. A disabled tracer reads no clock, so the untraced run
//! that produces the end-to-end metrics pays nothing for it.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run; later spans are counted but not stored, so a long
/// traced loop cannot grow without bound.
const SPAN_CAPACITY: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `scenario.build`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The scenario (cell index) this span belongs to; spans of one
    /// scenario share it.
    pub scenario: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle returned by [`Tracer::begin`] and consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer whose time base starts now.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, scenario: u32) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(None);
        };
        if self.spans.len() >= SPAN_CAPACITY {
            self.dropped += 1;
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = Self::now_ns(epoch);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            scenario,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span. Spans close innermost-first; closing an outer span
    /// also abandons any span still open inside it.
    pub fn end(&mut self, id: SpanId) {
        let (Some(index), Some(epoch)) = (id.0, self.epoch) else {
            return;
        };
        let end_ns = Self::now_ns(epoch);
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
        while let Some(top) = self.open.pop() {
            if top == index {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span name: call count, total duration, and self time — the
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let row = table.entry(span.name).or_default();
            row.count += 1;
            row.total_ns += span.dur_ns();
            row.self_ns += span.dur_ns().saturating_sub(children);
        }
        table
    }

    /// The spans in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): one complete (`"ph": "X"`) event per span, microsecond
    /// timestamps, the scenario id as the thread lane.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            json::write_str(&mut out, span.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"index\":{i},\"parent\":",
                span.scenario,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"droppedSpans\":{}}}\n",
            self.dropped
        );
        out
    }
}

/// One row of [`Tracer::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("a.b", 0);
        t.end(id);
        assert!(t.spans().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::enabled();
        let outer = t.begin("outer.op", 7);
        let inner = t.begin("inner.op", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let sibling = t.begin("outer.op", 8);
        t.end(sibling);

        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        let table = t.self_times();
        let outer = table["outer.op"];
        let inner = table["inner.op"];
        assert_eq!(outer.count, 2);
        assert!(inner.self_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::enabled();
        for (name, scenario) in [("layer.call", 3), ("layer.\"quoted\"", 4)] {
            let id = t.begin(name, scenario);
            t.end(id);
        }
        let doc = json::parse(&t.chrome_trace()).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("tid").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("layer.\"quoted\"")
        );
    }

    #[test]
    fn an_empty_trace_is_still_valid_json() {
        let doc = json::parse(&Tracer::enabled().chrome_trace()).unwrap();
        assert!(doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
}
