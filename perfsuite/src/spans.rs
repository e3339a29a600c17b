//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every call it makes into a simulator
//! layer; spans nest by call structure, carry the run's identifier, and are
//! written out once, when the run ends. A disabled recorder (every timed
//! repetition) costs one branch per call into a layer — a handful per
//! repetition.

use crate::json::Value;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-call name, e.g. `sim.run.slice`.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Engine events dispatched inside (0 where the call dispatches none).
    pub events: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    t0: Instant,
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            t0: Instant::now(),
            run_id: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A live recorder; every span it records belongs to `run_id`.
    pub fn on(run_id: impl Into<String>) -> Spans {
        Spans {
            enabled: true,
            run_id: run_id.into(),
            ..Spans::off()
        }
    }

    /// Run `f` inside a span called `name`; the span's parent is whichever
    /// span is open when it starts.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            events: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Attribute `n` engine events to the innermost open span.
    pub fn add_events(&mut self, n: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].events += n;
        }
    }

    /// The recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: one object per span with its self time.
    pub fn to_json(&self) -> Value {
        let self_ns = self_times(&self.spans);
        Value::obj([
            ("schema", Value::str("rocc-perfsuite-trace/v1")),
            ("run_id", Value::str(&self.run_id)),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .zip(self_ns)
                        .enumerate()
                        .map(|(id, (s, self_ns))| {
                            Value::obj([
                                ("id", Value::Num(id as f64)),
                                ("name", Value::str(&s.name)),
                                ("start_ns", Value::Num(s.start_ns as f64)),
                                ("end_ns", Value::Num(s.end_ns as f64)),
                                ("self_ns", Value::Num(self_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                                ("events", Value::Num(s.events as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover (children of one parent never overlap: the harness is
/// single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            events: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("rep", 0, 100, None),
            span("sim.run", 10, 90, Some(0)),
            span("sim.run.slice", 10, 40, Some(1)),
            span("sim.run.slice", 40, 85, Some(1)),
            span("gen", 90, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 5, 30, 45, 5]);
    }

    #[test]
    fn scopes_nest_and_disabled_recorder_records_nothing() {
        let mut s = Spans::on("run-1");
        s.scope("outer", |s| {
            s.scope("inner", |s| s.add_events(7));
            s.add_events(1);
        });
        let got = s.spans();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].parent, got[1].parent), (None, Some(0)));
        assert_eq!((got[0].events, got[1].events), (1, 7));
        assert!(got[0].start_ns <= got[1].start_ns && got[1].end_ns <= got[0].end_ns);
        assert!(crate::json::parse(&s.to_json().render()).is_ok());

        let mut off = Spans::off();
        assert_eq!(off.scope("x", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
