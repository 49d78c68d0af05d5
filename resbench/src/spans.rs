//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer of the program: its name, the
//! operation it belongs to, and its start and end on the run's clock.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. Layer counters (spikes, windows, rounds, ...) are recorded
//! next to the spans so ratios come from the same calls. The untraced
//! run uses [`Spans::off`], which only calls through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Operation index, or `None` for calls made during set-up.
    op: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records spans and counters when on; a pass-through when off.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    op: Option<usize>,
    spans: Vec<Span>,
    /// Derived per-call durations (a layer's self time computed from
    /// spans), keyed by layer name.
    derived: BTreeMap<&'static str, Vec<Duration>>,
    /// Counter name -> (sum, samples).
    counters: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    pub fn on() -> Self {
        Self::new(true)
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            op: None,
            spans: Vec::new(),
            derived: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attributes the following spans to operation `op` (spans recorded
    /// before the first call belong to set-up).
    pub fn set_op(&mut self, op: usize) {
        self.op = Some(op);
    }

    /// Runs `f` as one call into layer `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            start,
            end,
        });
        out
    }

    /// Total duration of the current operation's spans named `name`.
    pub fn op_total(&self, name: &'static str) -> Duration {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.op == self.op)
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Records a per-call duration for `name` computed from other spans.
    pub fn derive(&mut self, name: &'static str, duration: Duration) {
        if self.on {
            self.derived.entry(name).or_default().push(duration);
        }
    }

    /// Adds one sample of counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            let slot = self.counters.entry(name).or_insert((0.0, 0));
            slot.0 += value;
            slot.1 += 1;
        }
    }

    /// Per-call durations of layer `name`: its spans, or its derived
    /// durations when the layer has no span of its own.
    pub fn calls(&self, name: &'static str) -> Vec<Duration> {
        match self.derived.get(name) {
            Some(d) => d.clone(),
            None => self
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration)
                .collect(),
        }
    }

    /// Sum of counter `name` and its sample count.
    pub fn counter(&self, name: &'static str) -> (f64, u64) {
        self.counters.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{op},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        for (name, durations) in &self.derived {
            for d in durations {
                let _ = writeln!(
                    out,
                    "{{\"name\":\"{name}\",\"derived\":true,\"duration_ns\":{}}}",
                    d.as_nanos()
                );
            }
        }
        out
    }
}
