//! The disk tier's wire section: the streamed encoder must round-trip
//! every report through the decoder, and sections written by the
//! previous `json!`-tree encoder must still hit and decode.

use nchecker::report::Location;
use nchecker::{
    AnalysisSkip, AppReport, CheckerConfig, DefectKind, Evidence, OverRetryContext, Report,
    SkipCause,
};
use nck_netlibs::library::ALL_LIBRARIES;
use nck_obs::Obs;
use nck_svc::wire::{encode, report_from_wire, report_to_wire};
use nck_svc::AnalysisStore;
use proptest::prelude::*;

/// Decodes wire text; `None` on any parse or shape failure.
fn decode(text: &str) -> Option<AppReport> {
    report_from_wire(&serde_json::from_str(text).ok()?)
}

/// `AppReport` has no `PartialEq`; its `Debug` text covers every field.
fn same(a: &AppReport, b: &AppReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Characters that stress escaping: quotes, backslashes, control bytes,
/// DEL, and multi-byte text.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '.', '/', ';', '$', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}',
    '\u{1f}', '\u{7f}', 'é', '—', '日', '🚀',
];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Wire integers are JSON `i64`s, so counts range over `0..=i64::MAX`.
fn arb_count() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..1_000, Just(i64::MAX as usize)]
}

/// Every kind, with both `OverRetry` contexts × `default_caused`.
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
    (
        0usize..5,
        arb_text(),
        arb_text(),
        arb_text(),
        any::<u32>(),
        arb_count(),
    )
        .prop_map(|(k, a, b, c, stmt, scanned)| match k {
            0 => Evidence::Request {
                method: a,
                stmt,
                api: b,
            },
            1 => Evidence::CallEdge {
                caller: a,
                callee: b,
                stmt,
            },
            2 => Evidence::IrFact {
                method: a,
                stmt,
                what: c,
            },
            3 => Evidence::SummaryFact { method: a, what: c },
            _ => Evidence::Absence { what: c, scanned },
        })
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
        provenance in prop::collection::vec(arb_evidence(), 0..7),
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
    fn arb_skip()(method in arb_text(), verify in any::<bool>(), detail in arb_text()) -> AnalysisSkip {
        AnalysisSkip {
            method,
            cause: if verify { SkipCause::Verify } else { SkipCause::Lift },
            detail,
        }
    }
}

prop_compose! {
    fn arb_report()(
        package in arb_text(),
        libs in prop::collection::vec(0usize..ALL_LIBRARIES.len(), 0..4),
        counts in prop::collection::vec(arb_count(), 27),
        defects in prop::collection::vec(arb_defect(), 0..4),
        skipped in prop::collection::vec(arb_skip(), 0..3),
    ) -> AppReport {
        let mut r = AppReport::default();
        let s = &mut r.stats;
        s.package = package;
        s.libraries = libs.into_iter().map(|i| ALL_LIBRARIES[i]).collect();
        let fields = [
            &mut s.requests,
            &mut s.requests_missing_conn,
            &mut s.requests_missing_timeout,
            &mut s.retry_capable_requests,
            &mut s.requests_missing_retry,
            &mut s.user_requests,
            &mut s.user_requests_missing_notification,
            &mut s.user_requests_explicit_cb,
            &mut s.user_requests_explicit_cb_notified,
            &mut s.user_requests_implicit_cb,
            &mut s.user_requests_implicit_cb_notified,
            &mut s.typed_error_callbacks,
            &mut s.typed_error_callbacks_checked,
            &mut s.responses,
            &mut s.responses_missing_check,
            &mut s.custom_retry_loops,
            &mut s.no_retry_activity,
            &mut s.over_retry_service,
            &mut s.over_retry_service_default,
            &mut s.over_retry_post,
            &mut s.over_retry_post_default,
            &mut s.summary_methods,
            &mut s.summary_sccs,
            &mut s.summary_const_returns,
            &mut s.summary_largest_scc,
            &mut s.summary_field_consts,
            &mut s.summary_hits,
        ];
        assert_eq!(fields.len(), counts.len());
        for (field, v) in fields.into_iter().zip(counts) {
            *field = v;
        }
        r.defects = defects;
        r.skipped_methods = skipped;
        r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_wire_round_trips(r in arb_report()) {
        let text = encode(&r);
        let back = decode(&text).expect("streamed wire decodes");
        prop_assert!(same(&back, &r), "round trip changed the report:\n{text}");
        // The `Value` form is the same document, printed in the same
        // (sorted-key) order.
        prop_assert_eq!(serde_json::to_string(&report_to_wire(&r)).unwrap(), text);
    }
}

/// The disk record checksum (documented in `nck_svc::store`), restated
/// here so the fixture test pins the on-disk format: a multiply-xor over
/// each part's 8-byte little-endian words, then its tail bytes, then
/// the total length.
fn record_checksum(parts: &[&[u8]]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len = 0u64;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().unwrap());
            h = (h ^ w).wrapping_mul(K).rotate_left(31);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(31);
        }
        len += part.len() as u64;
    }
    (h ^ len).wrapping_mul(K)
}

/// The schema-2 entry file the previous `json!`-tree encoder wrote for
/// app 20 of the 285-app corpus (seed 2016) under key `fixture.app` and
/// the default configuration of analysis version 1, with its JSON and
/// wire sections re-wrapped in a schema-3 record of a segment. Version 2
/// moved the configuration fingerprint (the `summary_*` report counters
/// became 0 when nothing asks for a summary), so the entry misses under
/// today's default. Its wire schema is current, so under its own
/// fingerprint the old encoder's bytes must still hit, serve the bytes a
/// fresh analysis renders, and decode to the report a fresh analysis
/// produces, apart from those counters.
#[test]
fn a_schema_2_entry_from_the_json_tree_encoder_still_hits() {
    const NAME: &str = "e7cc8cce14c42327-f4a43abc1f3c442e.json";
    let dir = std::env::temp_dir().join(format!("nck-svc-wire-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let old = std::fs::read(format!("{fixture}{NAME}")).unwrap();
    let nl = old.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&old[..nl]).unwrap();
    let [magic, schema, wire_schema, bundle_fp, config_fp, defects, json_len, wire_len, _sum] =
        header.split(' ').collect::<Vec<_>>()[..]
    else {
        panic!("schema-2 header: {header}");
    };
    assert_eq!((magic, schema), ("nck-entry", "2"));
    let body = &old[nl + 1..];
    let key = nck_dex::wire::fnv1a(b"fixture.app");
    let prefix = format!(
        "nck-entry 3 {wire_schema} {key:016x} {:016x} {bundle_fp} {config_fp} {defects} {json_len} {wire_len} ",
        1
    );
    let mut record = prefix.clone().into_bytes();
    let sum = record_checksum(&[prefix.as_bytes(), body]);
    record.extend_from_slice(format!("{sum:016x}\n").as_bytes());
    record.extend_from_slice(body);
    std::fs::write(dir.join("0000000000000001-1.seg"), record).unwrap();

    let spec = &nck_appgen::profile::corpus(2016)[20];
    let bytes = nck_appgen::generate(spec).to_bytes();
    let fresh = nchecker::NChecker::new().analyze_bytes(&bytes).unwrap();

    let store = AnalysisStore::with_options(Some(dir.clone()));
    let today = nchecker::config_fingerprint(&CheckerConfig::default());
    assert_eq!(config_fp, "f4a43abc1f3c442e");
    assert_ne!(format!("{today:016x}"), config_fp);
    assert!(store
        .lookup_disk_entry("fixture.app", today, &Obs::disabled())
        .is_none());
    let config_fp = u64::from_str_radix(config_fp, 16).unwrap();
    let entry = store
        .lookup_disk_entry("fixture.app", config_fp, &Obs::disabled())
        .expect("the fixture entry hits under its own fingerprint");
    assert_eq!(entry.bundle_fp, nck_dex::wire::fnv1a(&bytes));
    assert_eq!(*entry.json, nck_svc::store::render_json(&fresh));
    let mut decoded = entry.decode();
    let s = &mut decoded.stats;
    let stored = [
        &mut s.summary_methods,
        &mut s.summary_sccs,
        &mut s.summary_const_returns,
        &mut s.summary_largest_scc,
        &mut s.summary_field_consts,
        &mut s.summary_hits,
    ];
    // Version 1 solved every method; a fresh run solves nothing here.
    assert_eq!(stored.each_ref().map(|v| **v), [10, 10, 1, 1, 0, 10]);
    for v in stored {
        *v = 0;
    }
    assert!(
        same(&decoded, &fresh),
        "decoded report differs from a fresh run"
    );
    // And the streamed encoder reads it back to the same text.
    assert_eq!(
        decode(&encode(&decoded)).as_ref().map(|r| same(r, &fresh)),
        Some(true)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
