//! In-memory spans recorded by the benchmark around its own calls into
//! the crates' public functions, written out as Chrome trace-event JSON
//! when the run ends. Nothing here reaches inside the program: a span
//! covers one call (or one replay loop) as seen from the caller.
//!
//! A span's layer is its name up to the first space, so
//! `"sim.run fdrt"` belongs to layer `sim.run`. Spans nest by time on
//! one lane; a layer's self time is its spans' duration minus the part
//! covered by spans nested inside them.

use ctcp_telemetry::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, in microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Label; the layer is the text before the first space.
    pub name: String,
    /// Lane (Chrome `tid`): one per benchmark thread.
    pub lane: u64,
    /// Start offset.
    pub start_us: f64,
    /// Duration.
    pub dur_us: f64,
}

impl Span {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }

    /// The span's layer name.
    pub fn layer(&self) -> &str {
        self.name.split(' ').next().unwrap_or(&self.name)
    }
}

/// Span recorder; when off, [`Tracer::span`] is a plain call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Microseconds since the tracer started.
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Records an already-measured interval.
    pub fn record(&self, name: impl Into<String>, lane: u64, start_us: f64, end_us: f64) {
        if self.on {
            self.spans
                .lock()
                .expect("no span writer panics")
                .push(Span {
                    name: name.into(),
                    lane,
                    start_us,
                    dur_us: (end_us - start_us).max(0.0),
                });
        }
    }

    /// Runs `f` inside a span named `name` on `lane`.
    pub fn span<T>(&self, name: &str, lane: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now_us();
        let out = f();
        self.record(name, lane, start, self.now_us());
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }
}

/// Total and self time per layer, in milliseconds, with span counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Spans of this layer.
    pub count: u64,
    /// Summed span durations.
    pub total_ms: f64,
    /// Summed durations minus the time nested spans cover.
    pub self_ms: f64,
}

/// Self time per layer: each span's duration minus the union of the
/// spans directly nested in it on the same lane.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut by_lane: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_lane.entry(s.lane).or_default().push(s);
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (_, mut lane) in by_lane {
        // Parents before children: earlier start first, longer first.
        lane.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        // Stack of (span, covered-by-children µs, end of last child).
        let mut stack: Vec<(&Span, f64, f64)> = Vec::new();
        let close = |(s, covered, _): (&Span, f64, f64), out: &mut BTreeMap<String, LayerTime>| {
            let e = out.entry(s.layer().to_string()).or_default();
            e.count += 1;
            e.total_ms += s.dur_us / 1e3;
            e.self_ms += (s.dur_us - covered).max(0.0) / 1e3;
        };
        for s in lane {
            while stack
                .last()
                .is_some_and(|(p, _, _)| p.end_us() <= s.start_us)
            {
                let top = stack.pop().expect("non-empty");
                close(top, &mut out);
            }
            if let Some((p, covered, last_end)) = stack.last_mut() {
                // Count only the part of the child inside the parent
                // and not already covered by an earlier sibling.
                let from = s.start_us.max(*last_end);
                let to = s.end_us().min(p.end_us());
                if to > from {
                    *covered += to - from;
                    *last_end = to;
                }
            }
            stack.push((s, 0.0, s.start_us));
        }
        while let Some(top) = stack.pop() {
            close(top, &mut out);
        }
    }
    out
}

/// Renders spans as a Chrome trace-event document (`about://tracing`,
/// Perfetto): thread-name metadata per lane, then one `"X"` event per
/// span.
pub fn chrome_trace(spans: &[Span], lane_names: &[(u64, String)]) -> String {
    let mut events: Vec<Value> = lane_names
        .iter()
        .map(|(lane, name)| {
            Value::Obj(vec![
                ("name".into(), Value::str("thread_name")),
                ("ph".into(), Value::str("M")),
                ("pid".into(), Value::u64(1)),
                ("tid".into(), Value::u64(*lane)),
                (
                    "args".into(),
                    Value::Obj(vec![("name".into(), Value::str(name))]),
                ),
            ])
        })
        .collect();
    for s in spans {
        events.push(Value::Obj(vec![
            ("name".into(), Value::str(&s.name)),
            ("cat".into(), Value::str(s.layer())),
            ("ph".into(), Value::str("X")),
            ("pid".into(), Value::u64(1)),
            ("tid".into(), Value::u64(s.lane)),
            ("ts".into(), Value::f64(s.start_us)),
            ("dur".into(), Value::f64(s.dur_us)),
        ]));
    }
    Value::Obj(vec![("traceEvents".into(), Value::Arr(events))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, dur: f64) -> Span {
        Span {
            name: name.into(),
            lane: 0,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("outer", 0.0, 1000.0),
            span("inner a", 100.0, 300.0),
            span("inner b", 400.0, 200.0),
            span("leaf", 150.0, 50.0), // nested in a
            span("after", 2000.0, 10.0),
        ];
        let t = self_times(&spans);
        assert!((t["outer"].self_ms - 0.5).abs() < 1e-9);
        assert!((t["inner"].total_ms - 0.5).abs() < 1e-9);
        assert!((t["inner"].self_ms - 0.45).abs() < 1e-9);
        assert_eq!(t["after"].count, 1);
    }

    #[test]
    fn chrome_trace_parses() {
        let doc = chrome_trace(&[span("x y", 1.0, 2.0)], &[(0, "main".into())]);
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
