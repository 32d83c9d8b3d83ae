//! Leveled diagnostics on stderr, optionally mirrored to a JSONL sink.
//!
//! Replaces ad hoc `eprintln!` scattered through the drivers: every
//! human-facing diagnostic goes through an [`Events`] handle whose
//! verbosity the CLI sets from `--quiet`/`-v`/`-vv`. Machine output
//! (stdout, JSON) never goes through here, so raising or silencing
//! verbosity cannot corrupt it.
//!
//! Stderr lines carry an elapsed-time prefix (`[+1.042s]`) measured
//! from the handle's construction, so interleaved `-v` output from
//! parallel workers can be ordered after the fact. When a
//! [`JsonlSink`] is attached, every event is also written there as a
//! `{"level":...,"ms":...,"msg":...,"t":"event"}` record — at *all*
//! levels, regardless of the stderr ceiling, so `--log-json` captures
//! the full stream even under `--quiet`.

use crate::export::JsonlSink;
use std::io::Write;
use std::time::Instant;

/// Diagnostic severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures the user must see (still suppressed by `--quiet`).
    Error,
    /// Suspicious but non-fatal conditions (the default ceiling).
    Warn,
    /// Per-app progress (`-v`).
    Info,
    /// Per-phase detail (`-vv`).
    Debug,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        })
    }
}

/// A verbosity-gated stderr stream with an optional JSONL mirror.
#[derive(Clone, Debug)]
pub struct Events {
    ceiling: Option<Level>,
    epoch: Instant,
    sink: Option<JsonlSink>,
}

impl Default for Events {
    fn default() -> Events {
        Events::at(Level::Warn)
    }
}

impl Events {
    /// Emits everything up to and including `ceiling`.
    pub fn at(ceiling: Level) -> Events {
        Events {
            ceiling: Some(ceiling),
            epoch: Instant::now(),
            sink: None,
        }
    }

    /// Emits nothing at all on stderr (`--quiet`). An attached sink
    /// still receives every event.
    pub fn silent() -> Events {
        Events {
            ceiling: None,
            epoch: Instant::now(),
            sink: None,
        }
    }

    /// Attaches a JSONL sink that receives every event regardless of
    /// the stderr ceiling.
    pub fn with_sink(mut self, sink: JsonlSink) -> Events {
        self.sink = Some(sink);
        self
    }

    /// The attached JSONL sink, if any.
    pub fn sink(&self) -> Option<&JsonlSink> {
        self.sink.as_ref()
    }

    /// Whether a message at `level` would be written to stderr.
    pub fn would_log(&self, level: Level) -> bool {
        self.ceiling.is_some_and(|c| level <= c)
    }

    /// Writes `msg` to stderr when `level` clears the ceiling, prefixed
    /// with the elapsed time since construction. Errors print without a
    /// level tag (they are the primary channel content); lower levels
    /// carry a `level:` tag. An attached sink receives the event
    /// unconditionally.
    pub fn emit(&self, level: Level, msg: &str) {
        let elapsed = self.epoch.elapsed();
        if let Some(sink) = &self.sink {
            let mut w = serde_json::Writer::compact();
            w.begin_object();
            w.key("level");
            w.display(&level);
            w.key("ms");
            w.int(elapsed.as_millis() as i64);
            w.key("msg");
            w.str(msg);
            w.key("t");
            w.str("event");
            w.end_object();
            sink.emit(&w.into_string());
        }
        if !self.would_log(level) {
            return;
        }
        let stamp = format!("[+{:.3}s]", elapsed.as_secs_f64());
        let mut err = std::io::stderr().lock();
        let _ = match level {
            Level::Error => writeln!(err, "{stamp} {msg}"),
            _ => writeln!(err, "{stamp} {level}: {msg}"),
        };
    }

    /// [`Events::emit`] at [`Level::Error`].
    pub fn error(&self, msg: &str) {
        self.emit(Level::Error, msg);
    }

    /// [`Events::emit`] at [`Level::Warn`].
    pub fn warn(&self, msg: &str) {
        self.emit(Level::Warn, msg);
    }

    /// [`Events::emit`] at [`Level::Info`].
    pub fn info(&self, msg: &str) {
        self.emit(Level::Info, msg);
    }

    /// [`Events::emit`] at [`Level::Debug`].
    pub fn debug(&self, msg: &str) {
        self.emit(Level::Debug, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ceiling_admits_errors_and_warnings_only() {
        let e = Events::default();
        assert!(e.would_log(Level::Error));
        assert!(e.would_log(Level::Warn));
        assert!(!e.would_log(Level::Info));
        assert!(!e.would_log(Level::Debug));
    }

    #[test]
    fn verbose_ceilings_widen_monotonically() {
        let v = Events::at(Level::Info);
        assert!(v.would_log(Level::Info));
        assert!(!v.would_log(Level::Debug));
        let vv = Events::at(Level::Debug);
        assert!(vv.would_log(Level::Debug));
    }

    #[test]
    fn silent_suppresses_everything_including_errors() {
        let q = Events::silent();
        assert!(!q.would_log(Level::Error));
        q.error("never shown"); // must not panic
    }

    #[test]
    fn sink_receives_events_below_the_stderr_ceiling() {
        let (sink, buf) = JsonlSink::capture();
        let e = Events::silent().with_sink(sink);
        e.debug("invisible on stderr");
        e.error("also captured");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"t\":\"event\""));
        assert!(lines[0].contains("\"level\":\"debug\""));
        assert!(lines[0].contains("\"msg\":\"invisible on stderr\""));
        assert!(lines[1].contains("\"level\":\"error\""));
    }
}
