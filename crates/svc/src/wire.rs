//! Faithful JSON round-trip of [`AppReport`] for the on-disk cache tier.
//!
//! The CLI's `--json` export ([`nchecker::json`]) is a *rendering*: it
//! flattens evidence to display strings and merges defect parameters
//! into the kind id, which is right for consumers but lossy for a
//! cache. This module is the opposite trade: every field of the report
//! survives the round trip bit-for-bit, so a disk hit returns a report
//! indistinguishable from re-running the analysis. Traces and metrics
//! are deliberately *not* carried — cache entries hold unsealed reports
//! (observability is per-run, not per-content).
//!
//! The encoder streams the report through [`serde_json::Writer`]
//! (compact, keys ascending); the decoder reads a parsed [`Value`] and
//! defines the format. Unknown schema versions and malformed payloads
//! decode to `None`; the caller treats that as a cache miss, never an
//! error.

use nchecker::checker::{AnalysisSkip, AppReport, AppStats, SkipCause};
use nchecker::report::{DefectKind, Evidence, Location, OverRetryContext, Report};
use nck_netlibs::library::Library;
use serde_json::{Value, Writer};

/// Schema version of the disk format; bump on any shape change so old
/// files miss instead of misparse.
pub const WIRE_SCHEMA: u64 = 1;

fn write_kind(w: &mut Writer, kind: DefectKind) {
    let id = match kind {
        DefectKind::MissedConnectivityCheck => "missed-connectivity-check",
        DefectKind::MissedTimeout => "missed-timeout",
        DefectKind::MissedRetry => "missed-retry",
        DefectKind::NoRetryInActivity => "no-retry-in-activity",
        DefectKind::OverRetry { .. } => "over-retry",
        DefectKind::MissedFailureNotification => "missed-failure-notification",
        DefectKind::NoErrorTypeCheck => "no-error-type-check",
        DefectKind::MissedResponseCheck => "missed-response-check",
    };
    w.begin_object();
    if let DefectKind::OverRetry {
        context,
        default_caused,
    } = kind
    {
        w.key("context");
        w.str(match context {
            OverRetryContext::Service => "service",
            OverRetryContext::Post => "post",
        });
        w.key("default_caused");
        w.bool(default_caused);
    }
    w.key("id");
    w.str(id);
    w.end_object();
}

fn kind_from_json(v: &Value) -> Option<DefectKind> {
    Some(match v.get("id")?.as_str()? {
        "missed-connectivity-check" => DefectKind::MissedConnectivityCheck,
        "missed-timeout" => DefectKind::MissedTimeout,
        "missed-retry" => DefectKind::MissedRetry,
        "no-retry-in-activity" => DefectKind::NoRetryInActivity,
        "over-retry" => DefectKind::OverRetry {
            context: match v.get("context")?.as_str()? {
                "service" => OverRetryContext::Service,
                "post" => OverRetryContext::Post,
                _ => return None,
            },
            default_caused: v.get("default_caused")?.as_bool()?,
        },
        "missed-failure-notification" => DefectKind::MissedFailureNotification,
        "no-error-type-check" => DefectKind::NoErrorTypeCheck,
        "missed-response-check" => DefectKind::MissedResponseCheck,
        _ => return None,
    })
}

fn library_tag(l: Library) -> &'static str {
    match l {
        Library::HttpUrlConnection => "huc",
        Library::ApacheHttpClient => "apache",
        Library::Volley => "volley",
        Library::OkHttp => "okhttp",
        Library::AndroidAsyncHttp => "aah",
        Library::BasicHttpClient => "basic",
    }
}

fn library_from_tag(s: &str) -> Option<Library> {
    Some(match s {
        "huc" => Library::HttpUrlConnection,
        "apache" => Library::ApacheHttpClient,
        "volley" => Library::Volley,
        "okhttp" => Library::OkHttp,
        "aah" => Library::AndroidAsyncHttp,
        "basic" => Library::BasicHttpClient,
        _ => return None,
    })
}

/// Writes `key: value` string members, in the order given.
fn str_members(w: &mut Writer, members: &[(&str, &str)]) {
    for &(k, v) in members {
        w.key(k);
        w.str(v);
    }
}

fn write_evidence(w: &mut Writer, e: &Evidence) {
    w.begin_object();
    match e {
        Evidence::Request { method, stmt, api } => {
            str_members(w, &[("api", api), ("method", method)]);
            w.key("stmt");
            w.int(i64::from(*stmt));
            str_members(w, &[("t", "request")]);
        }
        Evidence::CallEdge {
            caller,
            callee,
            stmt,
        } => {
            str_members(w, &[("callee", callee), ("caller", caller)]);
            w.key("stmt");
            w.int(i64::from(*stmt));
            str_members(w, &[("t", "call-edge")]);
        }
        Evidence::IrFact { method, stmt, what } => {
            str_members(w, &[("method", method)]);
            w.key("stmt");
            w.int(i64::from(*stmt));
            str_members(w, &[("t", "ir-fact"), ("what", what)]);
        }
        Evidence::SummaryFact { method, what } => {
            str_members(
                w,
                &[("method", method), ("t", "summary-fact"), ("what", what)],
            );
        }
        Evidence::Absence { what, scanned } => {
            w.key("scanned");
            w.int(*scanned as i64);
            str_members(w, &[("t", "absence"), ("what", what)]);
        }
    }
    w.end_object();
}

fn str_of(v: &Value, key: &str) -> Option<String> {
    Some(v.get(key)?.as_str()?.to_owned())
}

fn u32_of(v: &Value, key: &str) -> Option<u32> {
    u32::try_from(v.get(key)?.as_i64()?).ok()
}

fn usize_of(v: &Value, key: &str) -> Option<usize> {
    usize::try_from(v.get(key)?.as_i64()?).ok()
}

fn evidence_from_json(v: &Value) -> Option<Evidence> {
    Some(match v.get("t")?.as_str()? {
        "request" => Evidence::Request {
            method: str_of(v, "method")?,
            stmt: u32_of(v, "stmt")?,
            api: str_of(v, "api")?,
        },
        "call-edge" => Evidence::CallEdge {
            caller: str_of(v, "caller")?,
            callee: str_of(v, "callee")?,
            stmt: u32_of(v, "stmt")?,
        },
        "ir-fact" => Evidence::IrFact {
            method: str_of(v, "method")?,
            stmt: u32_of(v, "stmt")?,
            what: str_of(v, "what")?,
        },
        "summary-fact" => Evidence::SummaryFact {
            method: str_of(v, "method")?,
            what: str_of(v, "what")?,
        },
        "absence" => Evidence::Absence {
            what: str_of(v, "what")?,
            scanned: usize_of(v, "scanned")?,
        },
        _ => return None,
    })
}

fn write_defect(w: &mut Writer, r: &Report) {
    w.begin_object();
    w.key("call_stack");
    w.begin_array();
    for frame in &r.call_stack {
        w.str(frame);
    }
    w.end_array();
    str_members(w, &[("context", &r.context), ("fix", &r.fix)]);
    w.key("kind");
    write_kind(w, r.kind);
    str_members(w, &[("library", library_tag(r.library))]);
    w.key("location");
    w.begin_object();
    str_members(
        w,
        &[("class", &r.location.class), ("method", &r.location.method)],
    );
    w.key("stmt");
    w.int(i64::from(r.location.stmt));
    w.end_object();
    str_members(w, &[("message", &r.message)]);
    w.key("provenance");
    w.begin_array();
    for e in &r.provenance {
        write_evidence(w, e);
    }
    w.end_array();
    w.end_object();
}

fn defect_from_json(v: &Value) -> Option<Report> {
    let loc = v.get("location")?;
    Some(Report {
        kind: kind_from_json(v.get("kind")?)?,
        library: library_from_tag(v.get("library")?.as_str()?)?,
        location: Location {
            class: str_of(loc, "class")?,
            method: str_of(loc, "method")?,
            stmt: u32_of(loc, "stmt")?,
        },
        message: str_of(v, "message")?,
        context: str_of(v, "context")?,
        call_stack: v
            .get("call_stack")?
            .as_array()?
            .iter()
            .map(|s| s.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?,
        fix: str_of(v, "fix")?,
        provenance: v
            .get("provenance")?
            .as_array()?
            .iter()
            .map(evidence_from_json)
            .collect::<Option<Vec<_>>>()?,
    })
}

/// Every numeric [`AppStats`] field, so serialization and
/// deserialization cannot drift apart. Names are in ascending order and
/// split in three runs around the `libraries` and `package` keys, which
/// is the order the streamed object must be written in.
macro_rules! stats_fields {
    ($m:ident) => {
        $m!(
            [custom_retry_loops],
            [
                no_retry_activity,
                over_retry_post,
                over_retry_post_default,
                over_retry_service,
                over_retry_service_default
            ],
            [
                requests,
                requests_missing_conn,
                requests_missing_retry,
                requests_missing_timeout,
                responses,
                responses_missing_check,
                retry_capable_requests,
                summary_const_returns,
                summary_field_consts,
                summary_hits,
                summary_largest_scc,
                summary_methods,
                summary_sccs,
                typed_error_callbacks,
                typed_error_callbacks_checked,
                user_requests,
                user_requests_explicit_cb,
                user_requests_explicit_cb_notified,
                user_requests_implicit_cb,
                user_requests_implicit_cb_notified,
                user_requests_missing_notification
            ]
        )
    };
}

fn write_stats(w: &mut Writer, s: &AppStats) {
    macro_rules! ints {
        ($($field:ident),*) => {
            $( w.key(stringify!($field)); w.int(s.$field as i64); )*
        };
    }
    macro_rules! put {
        ([$($a:ident),*], [$($b:ident),*], [$($c:ident),*]) => {
            ints!($($a),*);
            w.key("libraries");
            w.begin_array();
            for l in &s.libraries {
                w.str(library_tag(*l));
            }
            w.end_array();
            ints!($($b),*);
            w.key("package");
            w.str(&s.package);
            ints!($($c),*);
        };
    }
    w.begin_object();
    stats_fields!(put);
    w.end_object();
}

fn stats_from_json(v: &Value) -> Option<AppStats> {
    let mut s = AppStats {
        package: str_of(v, "package")?,
        ..AppStats::default()
    };
    for l in v.get("libraries")?.as_array()? {
        s.libraries.insert(library_from_tag(l.as_str()?)?);
    }
    macro_rules! take {
        ($([$($field:ident),*]),*) => {
            $($( s.$field = usize_of(v, stringify!($field))?; )*)*
        };
    }
    stats_fields!(take);
    Some(s)
}

/// Encodes an unsealed report (traces and metrics are dropped) as
/// compact wire-format text, streamed with keys ascending. Disk
/// entries store this text as their wire section.
pub fn encode(r: &AppReport) -> String {
    let mut w = Writer::compact();
    w.begin_object();
    w.key("defects");
    w.begin_array();
    for d in &r.defects {
        write_defect(&mut w, d);
    }
    w.end_array();
    w.key("schema");
    w.int(WIRE_SCHEMA as i64);
    w.key("skipped_methods");
    w.begin_array();
    for skip in &r.skipped_methods {
        w.begin_object();
        w.key("cause");
        w.str(match skip.cause {
            SkipCause::Verify => "verify",
            SkipCause::Lift => "lift",
        });
        str_members(
            &mut w,
            &[("detail", &skip.detail), ("method", &skip.method)],
        );
        w.end_object();
    }
    w.end_array();
    w.key("stats");
    write_stats(&mut w, &r.stats);
    w.end_object();
    w.into_string()
}

/// The wire form as a [`Value`] tree: [`encode`]'s text, parsed. For
/// callers that inspect or edit the form; the disk tier writes the
/// text directly.
pub fn report_to_wire(r: &AppReport) -> Value {
    serde_json::from_str(&encode(r)).expect("the wire encoder writes valid JSON")
}

/// Decodes a report; `None` on any schema or shape mismatch.
pub fn report_from_wire(v: &Value) -> Option<AppReport> {
    if v.get("schema")?.as_i64()? != WIRE_SCHEMA as i64 {
        return None;
    }
    Some(AppReport {
        stats: stats_from_json(v.get("stats")?)?,
        defects: v
            .get("defects")?
            .as_array()?
            .iter()
            .map(defect_from_json)
            .collect::<Option<Vec<_>>>()?,
        skipped_methods: v
            .get("skipped_methods")?
            .as_array()?
            .iter()
            .map(|s| {
                Some(AnalysisSkip {
                    method: str_of(s, "method")?,
                    cause: match s.get("cause")?.as_str()? {
                        "verify" => SkipCause::Verify,
                        "lift" => SkipCause::Lift,
                        _ => return None,
                    },
                    detail: str_of(s, "detail")?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        trace: None,
        metrics: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_report() -> AppReport {
        let mut r = AppReport::default();
        r.stats.package = "com.example.app".into();
        r.stats.libraries.insert(Library::Volley);
        r.stats.libraries.insert(Library::OkHttp);
        r.stats.requests = 5;
        r.stats.requests_missing_conn = 2;
        r.stats.summary_hits = 11;
        r.defects.push(Report {
            kind: DefectKind::OverRetry {
                context: OverRetryContext::Post,
                default_caused: true,
            },
            library: Library::Volley,
            location: Location {
                class: "com.example.Main".into(),
                method: "onCreate".into(),
                stmt: 12,
            },
            message: "POST retried".into(),
            context: "user".into(),
            call_stack: vec!["a".into(), "b".into()],
            fix: "disable retries".into(),
            provenance: vec![
                Evidence::Request {
                    method: "Lcom/example/Main;.onCreate".into(),
                    stmt: 12,
                    api: "RequestQueue.add".into(),
                },
                Evidence::CallEdge {
                    caller: "x".into(),
                    callee: "y".into(),
                    stmt: 3,
                },
                Evidence::IrFact {
                    method: "m".into(),
                    stmt: 4,
                    what: "const".into(),
                },
                Evidence::SummaryFact {
                    method: "m".into(),
                    what: "returns true".into(),
                },
                Evidence::Absence {
                    what: "retry limit".into(),
                    scanned: 2,
                },
            ],
        });
        r.defects.push(Report {
            kind: DefectKind::MissedConnectivityCheck,
            library: Library::HttpUrlConnection,
            location: Location {
                class: "c".into(),
                method: "m".into(),
                stmt: 0,
            },
            message: String::new(),
            context: String::new(),
            call_stack: Vec::new(),
            fix: String::new(),
            provenance: Vec::new(),
        });
        r.skipped_methods.push(AnalysisSkip {
            method: "Lcom/example/Main;.broken".into(),
            cause: SkipCause::Verify,
            detail: "register out of frame".into(),
        });
        r
    }

    #[test]
    fn wire_roundtrip_is_faithful() {
        let r = busy_report();
        let text = encode(&r);
        let back = report_from_wire(&serde_json::from_str(&text).unwrap()).unwrap();
        // AppReport has no PartialEq; the rendered JSON of both runs is
        // the comparison surface the rest of the system already uses.
        assert_eq!(
            serde_json::to_string(&nchecker::json::app_report_to_json(&r)).unwrap(),
            serde_json::to_string(&nchecker::json::app_report_to_json(&back)).unwrap()
        );
        // And field-level spot checks on what the render flattens.
        assert_eq!(back.defects[0].provenance, r.defects[0].provenance);
        assert_eq!(back.defects[0].kind, r.defects[0].kind);
        assert_eq!(back.stats.libraries, r.stats.libraries);
        assert_eq!(back.skipped_methods, r.skipped_methods);
    }

    #[test]
    fn wrong_schema_is_a_miss() {
        let mut v = report_to_wire(&busy_report());
        if let Value::Object(m) = &mut v {
            m.insert("schema".to_owned(), serde_json::json!(999));
        }
        assert!(report_from_wire(&v).is_none());
    }

    #[test]
    fn malformed_payload_is_a_miss_not_a_panic() {
        for text in [
            "{}",
            "[]",
            "null",
            r#"{"schema": 1}"#,
            r#"{"schema": 1, "stats": {}, "defects": [{}], "skipped_methods": []}"#,
        ] {
            let v: Value = serde_json::from_str(text).unwrap();
            assert!(report_from_wire(&v).is_none(), "payload {text:?}");
        }
    }
}
