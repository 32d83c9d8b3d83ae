//! Machine-readable (JSON) export of analysis results, for CI
//! integration and the CLI's `--json` mode.

use crate::checker::{AppReport, AppStats};
use crate::report::{DefectKind, Evidence, OverRetryContext, Report};
use nck_obs::MetricsSnapshot;
use serde_json::{json, Value, Writer};
use std::collections::BTreeMap;

/// A stable machine-readable identifier for a defect kind.
pub fn kind_id(kind: DefectKind) -> &'static str {
    match kind {
        DefectKind::MissedConnectivityCheck => "missed-connectivity-check",
        DefectKind::MissedTimeout => "missed-timeout",
        DefectKind::MissedRetry => "missed-retry",
        DefectKind::NoRetryInActivity => "no-retry-in-activity",
        DefectKind::OverRetry {
            context: OverRetryContext::Service,
            ..
        } => "over-retry-in-service",
        DefectKind::OverRetry {
            context: OverRetryContext::Post,
            ..
        } => "over-retry-in-post",
        DefectKind::MissedFailureNotification => "missed-failure-notification",
        DefectKind::NoErrorTypeCheck => "no-error-type-check",
        DefectKind::MissedResponseCheck => "missed-response-check",
    }
}

/// A stable machine-readable identifier for an evidence variant.
fn evidence_kind(e: &Evidence) -> &'static str {
    match e {
        Evidence::Request { .. } => "request",
        Evidence::CallEdge { .. } => "call-edge",
        Evidence::IrFact { .. } => "ir-fact",
        Evidence::SummaryFact { .. } => "summary-fact",
        Evidence::Absence { .. } => "absence",
    }
}

/// Serializes one evidence item of a defect's provenance chain.
pub fn evidence_to_json(e: &Evidence) -> Value {
    json!({
        "kind": evidence_kind(e),
        "method": e.method().map(str::to_owned),
        "detail": e.render(),
    })
}

/// Serializes one warning report.
pub fn report_to_json(r: &Report) -> Value {
    let default_caused = match r.kind {
        DefectKind::OverRetry { default_caused, .. } => Some(default_caused),
        _ => None,
    };
    json!({
        "kind": kind_id(r.kind),
        "library": r.library.name(),
        "impact": r.kind.impact(),
        "location": {
            "class": r.location.class,
            "method": r.location.method,
            "stmt": r.location.stmt,
        },
        "message": r.message,
        "context": r.context,
        "call_stack": r.call_stack,
        "fix": r.fix,
        "default_caused": default_caused,
        "provenance": r.provenance.iter().map(evidence_to_json).collect::<Vec<_>>(),
    })
}

/// Serializes per-app statistics.
///
/// Only *semantic* per-app facts appear here. Engine-internal workload
/// numbers (the `summary_*` cache counters) live under the optional
/// `"metrics"` key instead: they describe how much work the engine did,
/// which legitimately differs between cold and cache-reusing runs even
/// when the findings are identical, so keeping them out of `stats`
/// keeps the default report byte-comparable across cache tiers.
pub fn stats_to_json(s: &AppStats) -> Value {
    json!({
        "package": s.package,
        "libraries": s.libraries.iter().map(|l| l.name()).collect::<Vec<_>>(),
        "requests": s.requests,
        "requests_missing_conn": s.requests_missing_conn,
        "requests_missing_timeout": s.requests_missing_timeout,
        "retry_capable_requests": s.retry_capable_requests,
        "requests_missing_retry": s.requests_missing_retry,
        "user_requests": s.user_requests,
        "user_requests_missing_notification": s.user_requests_missing_notification,
        "responses": s.responses,
        "responses_missing_check": s.responses_missing_check,
        "custom_retry_loops": s.custom_retry_loops,
        "no_retry_activity": s.no_retry_activity,
        "over_retry_service": s.over_retry_service,
        "over_retry_post": s.over_retry_post,
    })
}

/// Serializes the observability payload placed under the `"metrics"`
/// key of an app report. The key itself is only emitted when the run
/// recorded a metrics snapshot (see [`app_report_to_json`]).
///
/// Schema (version 1):
///
/// ```text
/// {
///   "schema": 1,
///   "summary_cache": { "methods", "sccs", "largest_scc",
///                      "const_returns", "field_consts", "hits" },
///   "counters":   { "<name>": u64, ... },
///   "gauges":     { "<name>": i64, ... },
///   "histograms": { "<name>": { "bounds": [u64], "counts": [u64],
///                               "sum": u64, "count": u64 }, ... }
/// }
/// ```
pub fn metrics_to_json(r: &AppReport) -> Value {
    let s = &r.stats;
    let mut obj = match json!({
        "schema": 1,
        "summary_cache": {
            "methods": s.summary_methods,
            "sccs": s.summary_sccs,
            "largest_scc": s.summary_largest_scc,
            "const_returns": s.summary_const_returns,
            "field_consts": s.summary_field_consts,
            "hits": s.summary_hits,
        },
    }) {
        Value::Object(m) => m,
        _ => unreachable!(),
    };
    if let Some(snap) = &r.metrics {
        obj.insert(
            "counters".to_owned(),
            Value::Object(
                snap.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), json!(v)))
                    .collect::<BTreeMap<_, _>>(),
            ),
        );
        obj.insert(
            "gauges".to_owned(),
            Value::Object(
                snap.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), json!(*v)))
                    .collect::<BTreeMap<_, _>>(),
            ),
        );
        obj.insert(
            "histograms".to_owned(),
            Value::Object(
                snap.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            json!({
                                "bounds": h.bounds,
                                "counts": h.counts,
                                "sum": h.sum,
                                "count": h.count,
                            }),
                        )
                    })
                    .collect::<BTreeMap<_, _>>(),
            ),
        );
    }
    Value::Object(obj)
}

/// Serializes a full app report.
///
/// The `"metrics"` key appears only when the run recorded a snapshot
/// (`r.metrics` is set): engine workload numbers are cache-dependent,
/// so a default (metrics-off) report stays byte-identical between cold
/// and cache-served analysis.
pub fn app_report_to_json(r: &AppReport) -> Value {
    let mut obj = match json!({
        "stats": stats_to_json(&r.stats),
        "defects": r.defects.iter().map(report_to_json).collect::<Vec<_>>(),
        "degraded": r.degraded(),
        "skipped_methods": r
            .skipped_methods
            .iter()
            .map(|s| {
                json!({
                    "method": s.method,
                    "cause": s.cause.to_string(),
                    "detail": s.detail,
                })
            })
            .collect::<Vec<_>>(),
    }) {
        Value::Object(m) => m,
        _ => unreachable!(),
    };
    if r.metrics.is_some() {
        obj.insert("metrics".to_owned(), metrics_to_json(r));
    }
    Value::Object(obj)
}

/// Streams a full app report into `w`: the canonical `--json` document,
/// byte-identical to writing [`app_report_to_json`]'s tree through the
/// same writer, but without building the tree. Keys are written in the
/// sorted order the tree's `BTreeMap`s print in (the writer asserts it
/// in debug builds). [`app_report_to_json`] stays the independent
/// reference the differential tests compare this against.
pub fn write_app_report(w: &mut Writer, r: &AppReport) {
    w.begin_object();
    w.key("defects");
    w.begin_array();
    for d in &r.defects {
        write_report(w, d);
    }
    w.end_array();
    w.key("degraded");
    w.bool(r.degraded());
    if let Some(snap) = &r.metrics {
        w.key("metrics");
        write_metrics(w, &r.stats, snap);
    }
    w.key("skipped_methods");
    w.begin_array();
    for s in &r.skipped_methods {
        w.begin_object();
        w.key("cause");
        w.display(&s.cause);
        w.key("detail");
        w.str(&s.detail);
        w.key("method");
        w.str(&s.method);
        w.end_object();
    }
    w.end_array();
    w.key("stats");
    write_stats(w, &r.stats);
    w.end_object();
}

fn write_report(w: &mut Writer, r: &Report) {
    w.begin_object();
    w.key("call_stack");
    w.begin_array();
    for frame in &r.call_stack {
        w.str(frame);
    }
    w.end_array();
    w.key("context");
    w.str(&r.context);
    w.key("default_caused");
    match r.kind {
        DefectKind::OverRetry { default_caused, .. } => w.bool(default_caused),
        _ => w.null(),
    }
    w.key("fix");
    w.str(&r.fix);
    w.key("impact");
    w.str(r.kind.impact());
    w.key("kind");
    w.str(kind_id(r.kind));
    w.key("library");
    w.str(r.library.name());
    w.key("location");
    w.begin_object();
    w.key("class");
    w.str(&r.location.class);
    w.key("method");
    w.str(&r.location.method);
    w.key("stmt");
    w.int(i64::from(r.location.stmt));
    w.end_object();
    w.key("message");
    w.str(&r.message);
    w.key("provenance");
    w.begin_array();
    for e in &r.provenance {
        w.begin_object();
        w.key("detail");
        w.display(e);
        w.key("kind");
        w.str(evidence_kind(e));
        w.key("method");
        match e.method() {
            Some(m) => w.str(m),
            None => w.null(),
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// Counts print as `json!` prints them: cast to `i64`.
fn int_members(w: &mut Writer, members: &[(&str, usize)]) {
    for &(k, v) in members {
        w.key(k);
        w.int(v as i64);
    }
}

fn write_stats(w: &mut Writer, s: &AppStats) {
    w.begin_object();
    int_members(w, &[("custom_retry_loops", s.custom_retry_loops)]);
    w.key("libraries");
    w.begin_array();
    for l in &s.libraries {
        w.str(l.name());
    }
    w.end_array();
    int_members(
        w,
        &[
            ("no_retry_activity", s.no_retry_activity),
            ("over_retry_post", s.over_retry_post),
            ("over_retry_service", s.over_retry_service),
        ],
    );
    w.key("package");
    w.str(&s.package);
    int_members(
        w,
        &[
            ("requests", s.requests),
            ("requests_missing_conn", s.requests_missing_conn),
            ("requests_missing_retry", s.requests_missing_retry),
            ("requests_missing_timeout", s.requests_missing_timeout),
            ("responses", s.responses),
            ("responses_missing_check", s.responses_missing_check),
            ("retry_capable_requests", s.retry_capable_requests),
            ("user_requests", s.user_requests),
            (
                "user_requests_missing_notification",
                s.user_requests_missing_notification,
            ),
        ],
    );
    w.end_object();
}

fn write_metrics(w: &mut Writer, s: &AppStats, snap: &MetricsSnapshot) {
    let ints = |w: &mut Writer, xs: &[u64]| {
        w.begin_array();
        for &x in xs {
            w.int(x as i64);
        }
        w.end_array();
    };
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (k, v) in &snap.counters {
        w.key(k);
        w.int(*v as i64);
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (k, g) in &snap.gauges {
        w.key(k);
        w.int(*g);
    }
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (k, h) in &snap.histograms {
        w.key(k);
        w.begin_object();
        w.key("bounds");
        ints(w, &h.bounds);
        w.key("count");
        w.int(h.count as i64);
        w.key("counts");
        ints(w, &h.counts);
        w.key("sum");
        w.int(h.sum as i64);
        w.end_object();
    }
    w.end_object();
    w.key("schema");
    w.int(1);
    w.key("summary_cache");
    w.begin_object();
    int_members(
        w,
        &[
            ("const_returns", s.summary_const_returns),
            ("field_consts", s.summary_field_consts),
            ("hits", s.summary_hits),
            ("largest_scc", s.summary_largest_scc),
            ("methods", s.summary_methods),
            ("sccs", s.summary_sccs),
        ],
    );
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Location;
    use nck_netlibs::library::Library;

    fn sample_report() -> Report {
        Report {
            kind: DefectKind::OverRetry {
                context: OverRetryContext::Post,
                default_caused: true,
            },
            library: Library::Volley,
            location: Location {
                class: "com.app.Main".into(),
                method: "onCreate".into(),
                stmt: 12,
            },
            message: "POST retried".into(),
            context: "user".into(),
            call_stack: vec!["a".into(), "b".into()],
            fix: "disable".into(),
            provenance: vec![
                Evidence::Request {
                    method: "Lcom/app/Main;.onCreate".into(),
                    stmt: 12,
                    api: "RequestQueue.add".into(),
                },
                Evidence::Absence {
                    what: "retry limit".into(),
                    scanned: 2,
                },
            ],
        }
    }

    #[test]
    fn report_json_has_stable_ids() {
        let v = report_to_json(&sample_report());
        assert_eq!(v["kind"], "over-retry-in-post");
        assert_eq!(v["default_caused"], true);
        assert_eq!(v["location"]["stmt"], 12);
        assert_eq!(v["library"], "Volley");
    }

    #[test]
    fn report_json_carries_provenance() {
        let v = report_to_json(&sample_report());
        let prov = v["provenance"].as_array().unwrap();
        assert_eq!(prov.len(), 2);
        assert_eq!(prov[0]["kind"], "request");
        assert_eq!(prov[0]["method"], "Lcom/app/Main;.onCreate");
        assert_eq!(prov[1]["kind"], "absence");
        assert_eq!(prov[1]["method"], Value::Null);
    }

    #[test]
    fn app_report_json_metrics_key_tracks_snapshot() {
        let mut report = AppReport::default();
        report.stats.summary_methods = 7;
        report.stats.summary_hits = 3;
        // Without a snapshot: no metrics key, and no workload counters
        // anywhere in the stats (they are engine-internal).
        let v = app_report_to_json(&report);
        assert!(
            v.get("metrics").is_none(),
            "metrics absent without snapshot"
        );
        assert!(v["stats"].get("summary_methods").is_none());
        // With a snapshot: schema, summary_cache, counters, gauges, and
        // histograms all appear.
        let m = nck_obs::Metrics::enabled();
        m.inc("parse.classes", 4);
        m.gauge("summary.largest_scc", 2);
        m.observe("summary.scc_size", 2);
        report.metrics = Some(m.snapshot());
        let v = app_report_to_json(&report);
        assert_eq!(v["metrics"]["schema"], 1);
        assert_eq!(v["metrics"]["summary_cache"]["methods"], 7);
        assert_eq!(v["metrics"]["summary_cache"]["hits"], 3);
        assert_eq!(v["metrics"]["counters"]["parse.classes"], 4);
        assert_eq!(v["metrics"]["gauges"]["summary.largest_scc"], 2);
        assert_eq!(v["metrics"]["histograms"]["summary.scc_size"]["count"], 1);
    }

    #[test]
    fn app_report_json_carries_degradation() {
        use crate::checker::{AnalysisSkip, SkipCause};
        let mut report = AppReport::default();
        let v = app_report_to_json(&report);
        assert_eq!(v["degraded"], false);
        assert_eq!(v["skipped_methods"].as_array().unwrap().len(), 0);
        report.skipped_methods.push(AnalysisSkip {
            method: "Lapp/Main;.broken".into(),
            cause: SkipCause::Verify,
            detail: "register out of frame".into(),
        });
        let v = app_report_to_json(&report);
        assert_eq!(v["degraded"], true);
        assert_eq!(v["skipped_methods"][0]["method"], "Lapp/Main;.broken");
        assert_eq!(v["skipped_methods"][0]["cause"], "verify");
        assert_eq!(v["skipped_methods"][0]["detail"], "register out of frame");
    }

    #[test]
    fn kind_ids_are_distinct() {
        use std::collections::BTreeSet;
        let all = [
            DefectKind::MissedConnectivityCheck,
            DefectKind::MissedTimeout,
            DefectKind::MissedRetry,
            DefectKind::NoRetryInActivity,
            DefectKind::OverRetry {
                context: OverRetryContext::Service,
                default_caused: false,
            },
            DefectKind::OverRetry {
                context: OverRetryContext::Post,
                default_caused: false,
            },
            DefectKind::MissedFailureNotification,
            DefectKind::NoErrorTypeCheck,
            DefectKind::MissedResponseCheck,
        ];
        let ids: BTreeSet<_> = all.iter().map(|&k| kind_id(k)).collect();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn app_report_roundtrips_through_serde() {
        let mut report = AppReport::default();
        report.stats.package = "com.x".into();
        report.defects.push(sample_report());
        let v = app_report_to_json(&report);
        let text = serde_json::to_string(&v).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["stats"]["package"], "com.x");
        assert_eq!(back["defects"].as_array().unwrap().len(), 1);
    }
}
