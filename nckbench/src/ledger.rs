//! The per-layer ledger: spans recorded around each layer's public call,
//! their self times, and the Chrome trace they export to.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children. Children may overlap each other (the
//! checker records accumulated per-check costs as backdated spans), so
//! coverage is the length of the union of the children's intervals,
//! clipped to the parent — never the plain sum.

use nck_obs::{PipelineTrace, SpanNode};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`dexfile.parse`, `store.insert`, ...); spans folded in
    /// from the program's own phase tree carry their path under the
    /// span that held them (`checks.run/checkers/find_sites`).
    pub name: String,
    /// The request the span belongs to: spans sharing it form one
    /// request.
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Item count (from the program's phase tree; 0 for own spans).
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Records spans in memory; written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The time origin every span (own or folded) is measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (for untimed warm-up requests).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, request: usize) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            items: 0,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span; returns its index.
    pub fn close(&mut self) -> Option<usize> {
        let idx = self.stack.pop()?;
        self.spans[idx].end_ns = self.now_ns();
        Some(idx)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, request: usize, f: impl FnOnce() -> T) -> T {
        self.open(name, request);
        let out = f();
        self.close();
        out
    }

    /// Attaches a phase tree the program recorded (on a tracer sharing
    /// this recorder's epoch) under span `parent`.
    pub fn fold(&mut self, parent: usize, trace: &PipelineTrace) {
        fn walk(rec: &mut Recorder, parent: usize, prefix: &str, nodes: &[SpanNode]) {
            for n in nodes {
                let idx = rec.spans.len();
                let name = format!("{prefix}/{}", n.name);
                rec.spans.push(Span {
                    name: name.clone(),
                    request: rec.spans[parent].request,
                    start_ns: n.start_ns,
                    end_ns: n.end_ns(),
                    parent: Some(parent),
                    items: n.items,
                });
                walk(rec, idx, &name, &n.children);
            }
        }
        if self.enabled {
            let prefix = self.spans[parent].name.clone();
            walk(self, parent, &prefix, &trace.roots);
        }
    }
}

/// One layer's line in the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    /// Inclusive time, summed over calls.
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
}

impl Layer {
    /// Mean inclusive microseconds per call (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Spans folded by name, plus the reconciliation against the requests'
/// wall time.
#[derive(Debug, Default)]
pub struct Ledger {
    pub layers: BTreeMap<String, Layer>,
    /// Summed duration of the request roots.
    pub wall_ns: u64,
    /// Self time of the roots themselves: time inside a request that no
    /// layer span covers.
    pub unattributed_ns: u64,
}

impl Ledger {
    /// Builds the ledger. Spans without a parent are request roots: their
    /// durations make up the wall time, and their own self time is the
    /// unattributed remainder.
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let selfs = self_times(spans);
        let mut ledger = Ledger::default();
        for (s, &own) in spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                ledger.wall_ns += s.dur_ns();
                ledger.unattributed_ns += own;
                continue;
            }
            let layer = ledger.layers.entry(s.name.clone()).or_default();
            layer.calls += 1;
            layer.total_ns += s.dur_ns();
            layer.self_ns += own;
            layer.items += s.items;
        }
        ledger
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Share of the wall time no layer accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Share of the wall time spent in `name`'s own code.
    pub fn self_frac(&self, name: &str) -> f64 {
        self.layer(name).self_ns as f64 / self.wall_ns.max(1) as f64
    }

    pub fn to_json(&self) -> Value {
        let layers: BTreeMap<String, Value> = self
            .layers
            .iter()
            .map(|(name, l)| {
                (
                    name.clone(),
                    serde_json::json!({
                        "calls": l.calls,
                        "total_us": l.total_ns as f64 / 1e3,
                        "self_us": l.self_ns as f64 / 1e3,
                        "mean_us": l.mean_us(),
                        "self_frac": self.self_frac(name),
                        "items": l.items,
                    }),
                )
            })
            .collect();
        serde_json::json!({
            "wall_us": self.wall_ns as f64 / 1e3,
            "unattributed_us": self.unattributed_ns as f64 / 1e3,
            "unattributed_frac": self.unattributed_frac(),
            "layers": Value::Object(layers),
        })
    }
}

/// The spans as a Chrome Trace Event document (complete `"X"` events on
/// one lane; open it in Perfetto or chrome://tracing).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name.as_str(),
                "cat": s.name.split(['/', '.']).next().unwrap_or("app"),
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "pid": 1,
                "tid": 1,
                "args": { "request": s.request, "items": s.items },
            })
        })
        .collect();
    serde_json::to_string(&serde_json::json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ms",
    }))
    .expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            request: 0,
            start_ns: start,
            end_ns: end,
            parent,
            items: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // app [0,100) > parse [10,30), lift [30,70) > intern [40,50)
        let spans = vec![
            span("app", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("lift", 30, 70, Some(0)),
            span("lift/intern", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let ledger = Ledger::from_spans(&spans);
        assert_eq!(ledger.wall_ns, 100);
        assert_eq!(ledger.unattributed_ns, 40);
        assert_eq!(ledger.layer("lift").total_ns, 40);
        assert_eq!(ledger.layer("lift").self_ns, 30);
        let attributed: u64 = ledger.layers.values().map(|l| l.self_ns).sum();
        assert_eq!(attributed + ledger.unattributed_ns, ledger.wall_ns);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two backdated children overlap on [20,30); coverage is the
        // union [10,40) = 30, not 20 + 20.
        let spans = vec![
            span("checks", 0, 50, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A child recorded as starting before its parent (clock skew
        // between tracers) only covers the shared part.
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
        let mut iv = vec![(0, 5), (30, 40)];
        assert_eq!(
            covered(&mut iv, 10, 20),
            0,
            "disjoint children cover nothing"
        );
    }

    #[test]
    fn contained_and_repeated_children() {
        let mut iv = vec![(10, 40), (15, 20), (10, 40), (38, 45)];
        assert_eq!(covered(&mut iv, 0, 100), 35);
        assert_eq!(covered(&mut [], 0, 100), 0);
    }

    #[test]
    fn the_recorder_nests_and_folds() {
        let mut rec = Recorder::new(true);
        rec.open("app", 7);
        rec.time("parse", 7, || ());
        rec.open("checks.run", 7);
        let checks = rec.close().expect("open span");
        let trace = PipelineTrace {
            roots: vec![SpanNode {
                name: "checkers".to_owned(),
                start_ns: rec.spans[checks].start_ns,
                nanos: 0,
                items: 3,
                children: Vec::new(),
            }],
        };
        rec.fold(checks, &trace);
        rec.close();
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["app", "parse", "checks.run", "checks.run/checkers"]);
        assert!(rec.spans.iter().all(|s| s.request == 7));
        assert_eq!(rec.spans[3].parent, Some(2));
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(Recorder::new(false).time("x", 0, || true));
    }
}
