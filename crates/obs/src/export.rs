//! Machine-readable telemetry export: JSONL sinks and Chrome Trace
//! Event output.
//!
//! Records are written through [`serde_json::Writer`], the one JSON
//! encoder of the workspace, so their keys come out sorted.
//!
//! [`chrome_trace`] turns per-app [`PipelineTrace`]s into the Chrome
//! Trace Event Format (the `{"traceEvents": [...]}` JSON loaded by
//! Perfetto and chrome://tracing). Worker identity is not plumbed
//! through the pipeline; instead lanes are reconstructed by greedy
//! interval partitioning over app start/end times, which yields exactly
//! the worker count lanes for a saturated pool and never overlaps two
//! apps on one lane.

use crate::trace::{PipelineTrace, SpanNode};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

enum SinkTarget {
    Writer(Box<dyn Write + Send>),
    Capture(Arc<Mutex<Vec<u8>>>),
}

/// A shared, line-oriented JSON sink: each [`JsonlSink::emit`] call
/// appends one JSON object and a newline. Cloning shares the
/// destination; writes are serialized by an internal lock, so parallel
/// workers never interleave within a line.
#[derive(Clone)]
pub struct JsonlSink {
    inner: Arc<Mutex<SinkTarget>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// A sink writing to `path` (created or truncated).
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            inner: Arc::new(Mutex::new(SinkTarget::Writer(Box::new(BufWriter::new(
                file,
            ))))),
        })
    }

    /// An in-memory sink plus the buffer it writes to, for tests.
    pub fn capture() -> (JsonlSink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink {
            inner: Arc::new(Mutex::new(SinkTarget::Capture(Arc::clone(&buf)))),
        };
        (sink, buf)
    }

    /// Appends one record (serialized JSON object, no trailing newline)
    /// as a line. I/O errors are swallowed: telemetry must never fail
    /// the pipeline.
    pub fn emit(&self, record: &str) {
        let mut target = self.inner.lock().expect("jsonl sink lock");
        match &mut *target {
            SinkTarget::Writer(w) => {
                let _ = writeln!(w, "{record}");
            }
            SinkTarget::Capture(buf) => {
                let mut buf = buf.lock().expect("jsonl capture lock");
                buf.extend_from_slice(record.as_bytes());
                buf.push(b'\n');
            }
        }
    }

    /// Flushes buffered lines to the destination.
    pub fn flush(&self) {
        if let SinkTarget::Writer(w) = &mut *self.inner.lock().expect("jsonl sink lock") {
            let _ = w.flush();
        }
    }
}

/// Assigns each trace to the first lane free at its start time (greedy
/// interval partitioning over `[start_ns, end_ns)`). Returns one lane
/// index per input trace; empty traces get lane 0.
fn assign_lanes(traces: &[(String, PipelineTrace)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..traces.len()).collect();
    order.sort_by_key(|&i| (traces[i].1.start_ns(), traces[i].1.end_ns()));
    let mut lanes: Vec<usize> = vec![0; traces.len()];
    let mut lane_end: Vec<u64> = Vec::new();
    for i in order {
        let (start, end) = (traces[i].1.start_ns(), traces[i].1.end_ns());
        match lane_end.iter().position(|&e| e <= start) {
            Some(l) => {
                lanes[i] = l;
                lane_end[l] = end;
            }
            None => {
                lanes[i] = lane_end.len();
                lane_end.push(end);
            }
        }
    }
    lanes
}

/// One `"X"` event: a span, labelled with its app when it is a root.
struct SpanEvent<'a> {
    node: &'a SpanNode,
    app: Option<&'a str>,
}

fn push_span_events<'a>(node: &'a SpanNode, app: Option<&'a str>, out: &mut Vec<SpanEvent<'a>>) {
    out.push(SpanEvent { node, app });
    for c in &node.children {
        push_span_events(c, None, out);
    }
}

/// A `"M"` metadata event naming the process or a worker lane.
fn write_meta(w: &mut serde_json::Writer, event: &str, tid: usize, name: &str) {
    w.begin_object();
    w.key("args");
    w.begin_object();
    w.key("name");
    w.str(name);
    w.end_object();
    w.key("name");
    w.str(event);
    w.key("ph");
    w.str("M");
    w.key("pid");
    w.int(1);
    w.key("tid");
    w.int(tid as i64);
    w.end_object();
}

fn write_span(w: &mut serde_json::Writer, ev: &SpanEvent<'_>, tid: usize) {
    w.begin_object();
    w.key("args");
    w.begin_object();
    if let Some(app) = ev.app {
        w.key("app");
        w.str(app);
    }
    w.key("items");
    w.int(ev.node.items as i64);
    w.end_object();
    w.key("cat");
    w.str("nchecker");
    w.key("dur");
    w.float(ev.node.nanos as f64 / 1e3);
    w.key("name");
    w.str(&ev.node.name);
    w.key("ph");
    w.str("X");
    w.key("pid");
    w.int(1);
    w.key("tid");
    w.int(tid as i64);
    w.key("ts");
    w.float(ev.node.start_ns as f64 / 1e3);
    w.end_object();
}

/// Renders `(app label, trace)` pairs as a Chrome Trace Event Format
/// document. Each reconstructed worker lane becomes one `tid`; within a
/// lane events are sorted by start time (longer spans first on ties, so
/// parents precede children). Root spans carry the app label in their
/// `args`.
pub fn chrome_trace(traces: &[(String, PipelineTrace)]) -> String {
    let lanes = assign_lanes(traces);
    let lane_count = lanes.iter().copied().max().map_or(0, |m| m + 1);
    let mut w = serde_json::Writer::compact();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    write_meta(&mut w, "process_name", 0, "nchecker");
    for lane in 0..lane_count {
        write_meta(&mut w, "thread_name", lane, &format!("worker {lane}"));
    }
    // Collect per lane so each lane's events come out ts-sorted.
    for lane in 0..lane_count {
        let mut lane_events = Vec::new();
        for (i, (app, trace)) in traces.iter().enumerate() {
            if lanes[i] != lane {
                continue;
            }
            for root in &trace.roots {
                push_span_events(root, Some(app), &mut lane_events);
            }
        }
        lane_events.sort_by_key(|e| (e.node.start_ns, u64::MAX - e.node.nanos));
        for ev in &lane_events {
            write_span(&mut w, ev, lane);
        }
    }
    w.end_array();
    w.end_object();
    let mut out = w.into_string();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use std::time::{Duration, Instant};

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        // An app label with quotes, a backslash and control characters
        // comes back intact from the trace's JSON.
        let label = "a\"b\\c\nd\te\u{1}";
        let epoch = Instant::now();
        let out = chrome_trace(&[(label.to_owned(), trace_with_window(epoch, 0, 2, "app"))]);
        assert!(out.contains(r#""app":"a\"b\\c\nd\te\u0001""#), "{out}");
        let v: serde_json::Value = serde_json::from_str(&out).expect("trace is JSON");
        let events = v["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["args"]["app"] == label));
    }

    #[test]
    fn jsonl_sink_capture_collects_lines() {
        let (sink, buf) = JsonlSink::capture();
        sink.emit("{\"a\":1}");
        sink.clone().emit("{\"b\":2}");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
    }

    fn trace_with_window(epoch: Instant, start_ms: u64, dur_ms: u64, name: &str) -> PipelineTrace {
        // Synthesize a trace occupying [start_ms, start_ms+dur_ms) on
        // the epoch timeline via record()'s backdating.
        let t = Tracer::enabled_with_epoch(
            epoch
                .checked_sub(Duration::from_millis(start_ms + dur_ms))
                .unwrap_or(epoch),
        );
        t.record(name, Duration::from_millis(dur_ms), 1);
        t.finish()
    }

    #[test]
    fn lanes_partition_overlapping_intervals() {
        let epoch = Instant::now();
        // a: [0, 10), b: [2, 6) overlaps a, c: [12, 14) reuses a's lane.
        let traces = vec![
            ("a".to_owned(), trace_with_window(epoch, 0, 10, "app")),
            ("b".to_owned(), trace_with_window(epoch, 2, 4, "app")),
            ("c".to_owned(), trace_with_window(epoch, 12, 2, "app")),
        ];
        let lanes = assign_lanes(&traces);
        assert_eq!(lanes[0], 0);
        assert_eq!(lanes[1], 1, "overlap forces a second lane");
        assert_eq!(lanes[2], 0, "free lane is reused");
    }

    #[test]
    fn chrome_trace_emits_sorted_events_with_metadata() {
        let epoch = Instant::now();
        let traces = vec![
            ("late.app".to_owned(), trace_with_window(epoch, 5, 2, "app")),
            (
                "early.app".to_owned(),
                trace_with_window(epoch, 0, 2, "app"),
            ),
        ];
        let out = chrome_trace(&traces);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("\"worker 0\""));
        assert!(out.contains("\"app\":\"early.app\""));
        let early = out.find("early.app").unwrap();
        let late = out.find("late.app").unwrap();
        assert!(early < late, "lane events ordered by start time");
    }
}
