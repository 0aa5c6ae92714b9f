//! In-memory span recorder for the layer probes.
//!
//! A span is one call into a library layer: name, start, end, the span
//! that caused it, and the request it belongs to. Spans stay in memory
//! until the probe ends and are then written out as one JSON file. A
//! layer's *self time* is its span's duration minus what its child spans
//! cover, so nested calls are not counted twice.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; nesting follows the call structure of [`Recorder::span`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    recording: bool,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            recording: true,
        }
    }

    /// While off, `span` and `retimed_child` just run their closure: the
    /// probe replays every request of a stream but records only a sample.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn begin_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Times `f` as a span named `name`, child of the span currently open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        self.spans[index].start_ns = start.as_nanos() as u64;
        self.spans[index].end_ns = end.as_nanos() as u64;
        out
    }

    /// Times `f` and books it as a child of the span most recently closed
    /// under the current parent. For library calls that happen *inside*
    /// an opaque parent call (`compile` parses its lowered SDL, `validate`
    /// freezes the graph): the probe cannot open a span in there, so it
    /// repeats the inner call on the same input right after and charges
    /// it to the parent, which keeps the parent's self time honest.
    pub fn retimed_child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording {
            return f();
        }
        let parent = self
            .spans
            .iter()
            .rposition(|s| s.parent == self.open.last().copied())
            .expect("retimed_child follows the span it is charged to");
        self.open.push(parent);
        let out = self.span(name, |_| f());
        self.open.pop();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Median self time of the spans called `name`, in microseconds;
    /// `None` when the probe never made that call.
    pub fn self_p50_us(&self, name: &str) -> Option<f64> {
        let own = self.self_times_ns();
        let mut of_name: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1000.0)
            .collect();
        (!of_name.is_empty()).then(|| stats::median(&mut of_name))
    }

    /// Median, over the spans called `root`, of the time their direct
    /// children cover — what the recorded layers explain of one request.
    pub fn covered_p50_us(&self, root: &str) -> Option<f64> {
        let mut covered: Vec<f64> = Vec::new();
        let mut slot = vec![usize::MAX; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == root {
                slot[i] = covered.len();
                covered.push(0.0);
            } else if let Some(at) = span.parent.map(|p| slot[p]).filter(|&s| s != usize::MAX) {
                covered[at] += span.duration_ns() as f64 / 1000.0;
            }
        }
        (!covered.is_empty()).then(|| stats::median(&mut covered))
    }

    /// The whole trace as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own_ns}}}{}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: Vec<Span>) -> Recorder {
        Recorder {
            spans,
            ..Recorder::new()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let rec = recorder_with(vec![
            span("request", 0, 100, None),
            span("compile", 10, 60, Some(0)),
            span("parse", 15, 35, Some(1)),
            span("validate", 60, 90, Some(0)),
        ]);
        // request: 100 − 50 − 30; compile: 50 − 20; grandchild not re-subtracted.
        assert_eq!(rec.self_times_ns(), vec![20, 30, 20, 30]);
        assert_eq!(rec.self_p50_us("compile"), Some(0.03));
        assert_eq!(rec.self_p50_us("absent"), None);
        // compile + validate, not the grandchild.
        assert_eq!(rec.covered_p50_us("request"), Some(0.08));
    }

    #[test]
    fn spans_nest_by_call_structure_and_retimed_children_charge_the_parent() {
        let mut rec = Recorder::new();
        rec.begin_request(7);
        rec.span("request", |rec| {
            rec.span("compile", |_| std::hint::black_box(1 + 1));
            rec.retimed_child("parse", || std::hint::black_box(2 + 2));
            rec.span("validate", |_| ());
        });
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("request", None),
                ("compile", Some(0)),
                ("parse", Some(1)),
                ("validate", Some(0)),
            ]
        );
        assert!(rec.spans().iter().all(|s| s.request == 7));
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(rec
            .to_json()
            .contains("\"name\": \"parse\", \"request\": 7, \"parent\": 1"));
        rec.set_recording(false);
        assert_eq!(rec.span("unrecorded", |_| 5), 5);
        assert_eq!(rec.spans().len(), 4);
    }
}
