//! The daemon's wire protocol: line-delimited JSON over a Unix socket
//! or stdin/stdout.
//!
//! Every request is one line holding one JSON object with a `"verb"`
//! field; every reply is one line holding one JSON object with an
//! `"ok"` field. Multi-line payloads (reports, doctor snapshots) ride
//! *inside* the reply as JSON strings — the serializer escapes every
//! newline, so the framing survives and the client recovers the exact
//! bytes by unescaping one string field. That is what makes `report`
//! replies byte-identical to one-shot `--json` output without giving
//! up one-line framing.
//!
//! Verbs:
//!
//! | verb       | fields            | reply                                   |
//! |------------|-------------------|-----------------------------------------|
//! | `submit`   | `path`, `key`?    | `id`, `pending`                         |
//! | `status`   | `id`?             | queue counters, or one job's state      |
//! | `report`   | `id`, `wait`?     | `report` (exact `--json` bytes)         |
//! | `doctor`   | —                 | `doctor` (exact `--doctor` bytes + queue)|
//! | `shutdown` | —                 | `pending`; daemon drains and exits      |
//!
//! A plain `report` never blocks: an unfinished job answers `not-ready`.
//! With `"wait": true` the reply is held until the job finishes, so a
//! client can pipeline its fetches behind its submits instead of
//! polling. A wait for an unknown id answers `not-found` at once, and a
//! pending wait is answered when shutdown drains the job.
//!
//! Errors are typed: `{"ok": false, "error": {"code": ..., "message":
//! ...}}`. Malformed lines, unknown verbs, and oversized requests get
//! an error reply and the connection stays line-synced (oversized
//! physical lines are drained to their newline); a protocol error never
//! takes the daemon down.

use serde_json::{json, Value};
use std::io::{self, BufRead, Read};

/// Hard cap on one request line, newline included. A line longer than
/// this is drained and answered with [`ErrorCode::Oversized`] — the
/// connection survives, the request does not.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue the bundle at `path`; `key` is the app's stable identity
    /// across versions (defaults to the path itself, which is what
    /// makes re-submitting an updated file hit the incremental ladder).
    Submit {
        /// Bundle file to read and analyze.
        path: String,
        /// Cache identity override.
        key: Option<String>,
    },
    /// Queue counters, or one job's state when `id` is given.
    Status {
        /// Job to inspect (`None` = whole-queue view).
        id: Option<u64>,
    },
    /// Fetch a finished job's report.
    Report {
        /// Job to fetch.
        id: u64,
        /// Hold the reply until the job finishes instead of answering
        /// `not-ready`.
        wait: bool,
    },
    /// The canonical health snapshot plus the queue section.
    Doctor,
    /// Stop accepting, drain in-flight work, flush the cache, exit.
    Shutdown,
}

/// Typed protocol error codes (the `error.code` reply field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a JSON object of the expected shape.
    Malformed,
    /// The `verb` field names no known verb.
    UnknownVerb,
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    Oversized,
    /// Admission control rejected the submit: queue at capacity.
    QueueFull,
    /// Submit after shutdown began.
    ShuttingDown,
    /// No such job id (or it aged out of retention).
    NotFound,
    /// The job exists but has not finished yet.
    NotReady,
    /// The job finished with an analysis error.
    AnalysisFailed,
    /// The bundle file could not be read at submit time.
    ReadFailed,
}

impl ErrorCode {
    /// The stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::Oversized => "oversized",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::NotFound => "not-found",
            ErrorCode::NotReady => "not-ready",
            ErrorCode::AnalysisFailed => "analysis-failed",
            ErrorCode::ReadFailed => "read-failed",
        }
    }
}

/// A protocol-level failure: code plus human-readable detail.
pub type ProtocolError = (ErrorCode, String);

fn malformed(msg: &str) -> ProtocolError {
    (ErrorCode::Malformed, msg.to_owned())
}

fn id_of(m: &std::collections::BTreeMap<String, Value>) -> Result<Option<u64>, ProtocolError> {
    match m.get("id") {
        None => Ok(None),
        Some(v) => v
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| malformed("field \"id\" must be a non-negative integer")),
    }
}

fn str_field(
    m: &std::collections::BTreeMap<String, Value>,
    key: &str,
) -> Result<Option<String>, ProtocolError> {
    match m.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(malformed(&format!("field {key:?} must be a string"))),
    }
}

/// Parses one request line. The error carries the typed code the reply
/// should use.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v = serde_json::from_str(line.trim_end_matches(['\r', '\n']))
        .map_err(|_| malformed("request is not valid JSON"))?;
    let Value::Object(m) = &v else {
        return Err(malformed("request must be a JSON object"));
    };
    let Some(Value::String(verb)) = m.get("verb") else {
        return Err(malformed("missing string field \"verb\""));
    };
    match verb.as_str() {
        "submit" => {
            let Some(path) = str_field(m, "path")? else {
                return Err(malformed("submit requires a string field \"path\""));
            };
            Ok(Request::Submit {
                path,
                key: str_field(m, "key")?,
            })
        }
        "status" => Ok(Request::Status { id: id_of(m)? }),
        "report" => match (id_of(m)?, m.get("wait")) {
            (None, _) => Err(malformed("report requires an integer field \"id\"")),
            (Some(id), None) => Ok(Request::Report { id, wait: false }),
            (Some(id), Some(Value::Bool(wait))) => Ok(Request::Report { id, wait: *wait }),
            (Some(_), Some(_)) => Err(malformed("field \"wait\" must be a boolean")),
        },
        "doctor" => Ok(Request::Doctor),
        "shutdown" => Ok(Request::Shutdown),
        other => Err((ErrorCode::UnknownVerb, format!("unknown verb {other:?}"))),
    }
}

/// Serializes a reply value to its one-line wire form.
pub fn render_reply(v: &Value) -> String {
    let mut line = serde_json::to_string(v).expect("reply serializes");
    line.push('\n');
    line
}

/// The one-line error reply for `code`.
pub fn error_line(code: ErrorCode, message: &str) -> String {
    render_reply(&json!({
        "ok": false,
        "error": { "code": code.tag(), "message": message },
    }))
}

/// One framed read off the request stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// Stream closed cleanly.
    Eof,
    /// The physical line exceeded [`MAX_REQUEST_LINE`]; it has been
    /// drained to its newline, so the next read starts on the next
    /// request.
    Oversized,
    /// One request line (newline stripped by the parser, not here).
    Text(String),
}

/// Reads one request line, enforcing [`MAX_REQUEST_LINE`]. Invalid
/// UTF-8 is passed through lossily — it fails JSON parsing and earns a
/// `malformed` reply rather than an I/O error.
pub fn read_request_line<R: BufRead>(reader: &mut R) -> io::Result<Line> {
    let mut buf = Vec::new();
    let n = reader
        .take(MAX_REQUEST_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() != Some(&b'\n') && n > MAX_REQUEST_LINE {
        drain_line(reader)?;
        return Ok(Line::Oversized);
    }
    Ok(Line::Text(String::from_utf8_lossy(&buf).into_owned()))
}

/// Consumes the stream up to and including the next newline (or EOF)
/// without buffering it — the tail of an oversized line.
fn drain_line<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let (done, used) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                return Ok(());
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (true, i + 1),
                None => (false, chunk.len()),
            }
        };
        reader.consume(used);
        if done {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn verbs_parse() {
        assert_eq!(
            parse_request(r#"{"verb": "submit", "path": "a.apk"}"#).unwrap(),
            Request::Submit {
                path: "a.apk".to_owned(),
                key: None
            }
        );
        assert_eq!(
            parse_request(r#"{"verb": "submit", "path": "a.apk", "key": "app-1"}"#).unwrap(),
            Request::Submit {
                path: "a.apk".to_owned(),
                key: Some("app-1".to_owned())
            }
        );
        assert_eq!(
            parse_request(r#"{"verb": "status"}"#).unwrap(),
            Request::Status { id: None }
        );
        assert_eq!(
            parse_request("{\"verb\": \"status\", \"id\": 7}\n").unwrap(),
            Request::Status { id: Some(7) }
        );
        assert_eq!(
            parse_request(r#"{"verb": "report", "id": 1}"#).unwrap(),
            Request::Report { id: 1, wait: false }
        );
        assert_eq!(
            parse_request(r#"{"verb": "report", "id": 1, "wait": true}"#).unwrap(),
            Request::Report { id: 1, wait: true }
        );
        assert_eq!(
            parse_request(r#"{"verb": "doctor"}"#).unwrap(),
            Request::Doctor
        );
        assert_eq!(
            parse_request(r#"{"verb": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_typed() {
        for line in [
            "not json",
            "[1, 2]",
            r#"{"path": "a.apk"}"#,
            r#"{"verb": 7}"#,
            r#"{"verb": "submit"}"#,
            r#"{"verb": "submit", "path": 3}"#,
            r#"{"verb": "report"}"#,
            r#"{"verb": "report", "id": -1}"#,
            r#"{"verb": "report", "id": 1, "wait": 1}"#,
            r#"{"verb": "status", "id": "x"}"#,
        ] {
            let (code, _) = parse_request(line).unwrap_err();
            assert_eq!(code, ErrorCode::Malformed, "line {line:?}");
        }
        let (code, msg) = parse_request(r#"{"verb": "frobnicate"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::UnknownVerb);
        assert!(msg.contains("frobnicate"));
    }

    #[test]
    fn oversized_lines_are_drained_to_stay_line_synced() {
        let mut input = vec![b'x'; MAX_REQUEST_LINE + 100];
        input.push(b'\n');
        input.extend_from_slice(b"{\"verb\": \"doctor\"}\n");
        let mut r = Cursor::new(input);
        assert_eq!(read_request_line(&mut r).unwrap(), Line::Oversized);
        match read_request_line(&mut r).unwrap() {
            Line::Text(t) => assert_eq!(parse_request(&t).unwrap(), Request::Doctor),
            other => panic!("expected the next request, got {other:?}"),
        }
        assert_eq!(read_request_line(&mut r).unwrap(), Line::Eof);
    }

    #[test]
    fn unterminated_final_line_is_still_served() {
        let mut r = Cursor::new(b"{\"verb\": \"status\"}".to_vec());
        match read_request_line(&mut r).unwrap() {
            Line::Text(t) => assert_eq!(parse_request(&t).unwrap(), Request::Status { id: None }),
            other => panic!("expected text, got {other:?}"),
        }
        assert_eq!(read_request_line(&mut r).unwrap(), Line::Eof);
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_accepted() {
        // Content + newline == MAX_REQUEST_LINE: legal.
        let mut input = vec![b' '; MAX_REQUEST_LINE - 1];
        input.push(b'\n');
        let mut r = Cursor::new(input);
        assert!(matches!(read_request_line(&mut r).unwrap(), Line::Text(_)));
    }

    #[test]
    fn error_lines_are_one_line_json() {
        let line = error_line(ErrorCode::QueueFull, "queue at capacity (4)");
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v["ok"], false);
        assert_eq!(v["error"]["code"].as_str().unwrap(), "queue-full");
    }

    #[test]
    fn embedded_multiline_payloads_stay_one_line() {
        let reply = render_reply(&json!({"ok": true, "report": "{\n  \"a\": 1\n}\n"}));
        assert_eq!(reply.matches('\n').count(), 1);
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["report"].as_str().unwrap(), "{\n  \"a\": 1\n}\n");
    }
}
