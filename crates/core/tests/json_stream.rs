//! Differential tests for the streamed report serializer: for every
//! report, [`nchecker::write_app_report`] must write exactly the bytes of
//! the `Value`-tree reference, `app_report_to_json` rendered by
//! `serde_json`, in both pretty (`--json`) and compact layouts.

use nchecker::report::Location;
use nchecker::{
    app_report_to_json, write_app_report, AnalysisSkip, AppReport, CheckerConfig, DefectKind,
    Evidence, NChecker, OverRetryContext, Report,
};
use nck_appgen::{generate, interproc_suite, profile, CorpusStream};
use nck_netlibs::library::ALL_LIBRARIES;
use nck_obs::{Metrics, Obs};
use proptest::prelude::*;
use serde_json::Writer;

/// Asserts the streamed bytes equal the reference tree's, both layouts.
fn assert_stream_matches(r: &AppReport, what: &str) {
    let tree = app_report_to_json(r);
    let mut pretty = Writer::pretty();
    write_app_report(&mut pretty, r);
    assert_eq!(
        pretty.into_string(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty stream diverged from the reference"
    );
    let mut compact = Writer::compact();
    write_app_report(&mut compact, r);
    assert_eq!(
        compact.into_string(),
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact stream diverged from the reference"
    );
}

/// Characters that stress escaping: quotes, backslashes, control bytes,
/// DEL, and multi-byte text.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '.', '/', ';', '$', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}',
    '\u{1f}', '\u{7f}', 'é', 'ü', '—', '日', '🚀',
];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_kind() -> impl Strategy<Value = DefectKind> {
    (0usize..9, any::<bool>()).prop_map(|(k, default_caused)| match k {
        0 => DefectKind::MissedConnectivityCheck,
        1 => DefectKind::MissedTimeout,
        2 => DefectKind::MissedRetry,
        3 => DefectKind::NoRetryInActivity,
        4 => DefectKind::OverRetry {
            context: OverRetryContext::Service,
            default_caused,
        },
        5 => DefectKind::OverRetry {
            context: OverRetryContext::Post,
            default_caused,
        },
        6 => DefectKind::MissedFailureNotification,
        7 => DefectKind::NoErrorTypeCheck,
        _ => DefectKind::MissedResponseCheck,
    })
}

fn arb_evidence() -> impl Strategy<Value = Evidence> {
    (0usize..5, arb_text(), arb_text(), arb_text(), any::<u32>()).prop_map(
        |(k, a, b, c, n)| match k {
            0 => Evidence::Request {
                method: a,
                stmt: n,
                api: b,
            },
            1 => Evidence::CallEdge {
                caller: a,
                callee: b,
                stmt: n,
            },
            2 => Evidence::IrFact {
                method: a,
                stmt: n,
                what: c,
            },
            3 => Evidence::SummaryFact { method: a, what: c },
            _ => Evidence::Absence {
                what: c,
                scanned: n as usize,
            },
        },
    )
}

prop_compose! {
    fn arb_defect()(
        kind in arb_kind(),
        lib in 0usize..ALL_LIBRARIES.len(),
        class in arb_text(),
        method in arb_text(),
        stmt in any::<u32>(),
        message in arb_text(),
        context in arb_text(),
        call_stack in prop::collection::vec(arb_text(), 0..4),
        fix in arb_text(),
        provenance in prop::collection::vec(arb_evidence(), 0..6),
    ) -> Report {
        Report {
            kind,
            library: ALL_LIBRARIES[lib],
            location: Location { class, method, stmt },
            message,
            context,
            call_stack,
            fix,
            provenance,
        }
    }
}

prop_compose! {
    fn arb_skip()(method in arb_text(), detail in arb_text()) -> AnalysisSkip {
        AnalysisSkip { method, detail }
    }
}

/// A metrics snapshot with counters, gauges and histograms under
/// arbitrary names (or none at all).
fn arb_metrics() -> impl Strategy<Value = Option<nck_obs::MetricsSnapshot>> {
    (
        any::<bool>(),
        prop::collection::vec((arb_text(), any::<u64>()), 0..4),
        prop::collection::vec((arb_text(), any::<i64>()), 0..4),
        prop::collection::vec((arb_text(), 0u64..100_000), 0..6),
    )
        .prop_map(|(on, counters, gauges, observations)| {
            on.then(|| {
                let m = Metrics::enabled();
                for (name, v) in &counters {
                    m.inc(name, *v);
                }
                for (name, v) in &gauges {
                    m.gauge(name, *v);
                }
                for (name, v) in &observations {
                    m.observe(name, *v);
                }
                m.snapshot()
            })
        })
}

prop_compose! {
    fn arb_report()(
        package in arb_text(),
        libs in prop::collection::vec(0usize..ALL_LIBRARIES.len(), 0..4),
        counts in prop::collection::vec(any::<usize>(), 20),
        defects in prop::collection::vec(arb_defect(), 0..4),
        skipped in prop::collection::vec(arb_skip(), 0..3),
        metrics in arb_metrics(),
    ) -> AppReport {
        let mut r = AppReport::default();
        let s = &mut r.stats;
        s.package = package;
        s.libraries = libs.into_iter().map(|i| ALL_LIBRARIES[i]).collect();
        for (field, v) in [
            &mut s.requests,
            &mut s.requests_missing_conn,
            &mut s.requests_missing_timeout,
            &mut s.retry_capable_requests,
            &mut s.requests_missing_retry,
            &mut s.user_requests,
            &mut s.user_requests_missing_notification,
            &mut s.responses,
            &mut s.responses_missing_check,
            &mut s.custom_retry_loops,
            &mut s.no_retry_activity,
            &mut s.over_retry_service,
            &mut s.over_retry_post,
            &mut s.summary_methods,
            &mut s.summary_sccs,
            &mut s.summary_const_returns,
            &mut s.summary_largest_scc,
            &mut s.summary_field_consts,
            &mut s.summary_hits,
        ]
        .into_iter()
        .zip(counts)
        {
            *field = v;
        }
        r.defects = defects;
        r.skipped_methods = skipped;
        r.metrics = metrics;
        r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_reports_match_the_value_tree(r in arb_report()) {
        assert_stream_matches(&r, "random report");
    }
}

/// Every real report shape: the 285-app evaluation corpus (every
/// seventh app with metrics sealed in), the 16-app interprocedural
/// suite, and a 2,000-app store mix.
#[test]
fn streamed_reports_match_on_generated_corpora() {
    let plain = NChecker::with_config(CheckerConfig::default());
    let mut metered = NChecker::with_config(CheckerConfig::default());
    metered.obs = Obs {
        tracer: nck_obs::Tracer::disabled(),
        ..Obs::enabled()
    };
    let check = |checker: &NChecker, spec: &nck_appgen::AppSpec| {
        let report = checker
            .analyze_bytes_checked(&generate(spec).to_bytes())
            .unwrap_or_else(|e| panic!("{}: {e:?}", spec.package));
        assert_stream_matches(&report, &spec.package);
        report.metrics.is_some()
    };

    let mut with_metrics = 0;
    for (i, spec) in profile::corpus(7).iter().enumerate() {
        let checker = if i % 7 == 0 { &metered } else { &plain };
        with_metrics += usize::from(check(checker, spec));
    }
    assert!(
        with_metrics >= 40,
        "metrics reports covered: {with_metrics}"
    );
    for spec in interproc_suite::interproc_apps() {
        check(&plain, &spec);
    }
    let stream = CorpusStream::new(7, 2_000);
    let specs: Vec<_> = stream.map(|(_, spec)| spec).collect();
    std::thread::scope(|s| {
        for half in specs.chunks(specs.len().div_ceil(2)) {
            let plain = &plain;
            s.spawn(move || {
                for spec in half {
                    check(plain, spec);
                }
            });
        }
    });
}
