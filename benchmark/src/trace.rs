//! Spans around the calls into each layer.
//!
//! The benchmark records spans from its own files only: one around each
//! call into a layer's public function, plus child spans for the phases
//! a callee reports about itself (`Run.phases`). Spans stay in memory
//! until the run ends. A span's *self time* is its duration minus the
//! part its children cover; per-layer host seconds are sums of self
//! time, so they add up to the traced pass.
//!
//! With tracing off every method is a no-op that takes no timestamp, so
//! the untraced run that produces the end-to-end metrics pays nothing.

use crate::json::{Json, Metrics};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`simt.engine.sim`); spans of one name sum
    /// into the per-layer metric `<name>_s`.
    pub name: &'static str,
    /// What the call was working on (`Fiji/RF-AN/Synthetic`).
    pub op: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Collects spans while tracing is on.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between passes (the traced run
    /// alternates traced and untraced passes to price the tracing).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: op.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans must nest");
        self.spans[index].end_ns = self.now_ns();
    }

    /// A span around one call that records no spans itself.
    pub fn call<T>(&mut self, name: &'static str, op: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Like [`Recorder::call`], then lays the phases the callee reported
    /// about itself (`name`, seconds) end to end from the call's start as
    /// child spans. What the phases do not cover stays the call's own
    /// self time. Phases are clamped into the call, so self times still
    /// add up when the callee's clock and ours disagree by a few ns.
    pub fn call_with_phases<T>(
        &mut self,
        name: &'static str,
        op: &str,
        f: impl FnOnce() -> T,
        phases: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        if let Some(parent) = id.0 {
            let (mut cursor, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
            for (phase, seconds) in phases(&out) {
                let stop = (cursor + (seconds.max(0.0) * 1e9) as u64).min(end);
                self.spans.push(Span {
                    name: phase,
                    op: op.to_owned(),
                    start_ns: cursor,
                    end_ns: stop,
                    parent: Some(parent),
                });
                cursor = stop;
            }
        }
        out
    }

    /// Takes the spans recorded so far, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "took spans inside a span");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Seconds per span name: `(self time, total duration)` sums.
pub fn seconds_by_name(spans: &[Span]) -> (Metrics, Metrics) {
    let own = self_times_ns(spans);
    let (mut self_s, mut total_s) = (Metrics::new(), Metrics::new());
    for (span, own_ns) in spans.iter().zip(own) {
        *self_s.entry(span.name.to_owned()).or_default() += own_ns as f64 / 1e9;
        *total_s.entry(span.name.to_owned()).or_default() += span.duration_ns() as f64 / 1e9;
    }
    (self_s, total_s)
}

/// One JSON line per span, for `out/trace_<workload>.jsonl`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, span) in spans.iter().enumerate() {
        let line = Json::object([
            ("id", Json::Num(id as f64)),
            ("name", Json::Str(span.name.to_owned())),
            ("op", Json::Str(span.op.clone())),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_ns", Json::Num(span.start_ns as f64)),
            ("end_ns", Json::Num(span.end_ns as f64)),
        ]);
        out.push_str(&line.encode());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass [0,100) > call [10,90) > {setup [10,30), sim [30,80)}; oracle [90,100)
        let spans = vec![
            span("pass", 0, 100, None),
            span("call", 10, 90, Some(0)),
            span("setup", 10, 30, Some(1)),
            span("sim", 30, 80, Some(1)),
            span("oracle", 90, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 10, 20, 50, 10]);
        // Self times of a tree always add up to its root.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let (self_s, total_s) = seconds_by_name(&spans);
        assert_eq!(self_s["call"], 10e-9);
        assert_eq!(total_s["call"], 80e-9);
    }

    #[test]
    fn reported_phases_become_clamped_children() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("pass", "");
        // The callee claims more time than the call took: the second
        // phase is cut at the call's end, the third gets nothing.
        let value = rec.call_with_phases(
            "call",
            "op",
            || 7,
            |_| vec![("a", 0.0), ("b", 3600.0), ("c", 1.0)],
        );
        rec.exit(root);
        assert_eq!(value, 7);
        let spans = rec.take();
        assert_eq!(spans.len(), 5);
        let call = &spans[1];
        assert_eq!(
            (spans[3].start_ns, spans[3].end_ns),
            (call.start_ns, call.end_ns)
        );
        assert_eq!(spans[4].duration_ns(), 0);
        assert!(spans[2..]
            .iter()
            .all(|s| s.parent == Some(1) && s.op == "op"));
        let own = self_times_ns(&spans);
        assert_eq!(own[1], 0);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("pass", "");
        assert_eq!(rec.call("x", "", || 1), 1);
        assert_eq!(rec.call_with_phases("y", "", || 2, |_| vec![("p", 1.0)]), 2);
        rec.exit(id);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let text = to_jsonl(&[span("pass", 0, 5, None), span("call", 1, 2, Some(0))]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
