//! Differential property test: for every constrained random request
//! spec, the generator's oracle (plus its designed FP/FN deviations)
//! must equal the checker's report on the generated binary.
//!
//! This is the strongest whole-pipeline invariant in the repository: it
//! exercises the binary writer/parser, the lifter, the call graph, and
//! all four analyses against an independent model of what they should
//! find.

use nchecker::NChecker;
use nck_appgen::spec::{
    AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck, RetryShape,
};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::Library;
use proptest::prelude::*;

fn arb_library() -> impl Strategy<Value = Library> {
    prop_oneof![
        Just(Library::HttpUrlConnection),
        Just(Library::ApacheHttpClient),
        Just(Library::Volley),
        Just(Library::OkHttp),
        Just(Library::AndroidAsyncHttp),
        Just(Library::BasicHttpClient),
    ]
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::UserClick),
        Just(Origin::ActivityLifecycle),
        Just(Origin::Service),
    ]
}

fn arb_conn() -> impl Strategy<Value = ConnCheck> {
    prop_oneof![
        Just(ConnCheck::Missing),
        Just(ConnCheck::Guarding),
        Just(ConnCheck::GuardingViaHelper),
        Just(ConnCheck::UnusedResult),
        Just(ConnCheck::InterComponent),
    ]
}

fn arb_notification() -> impl Strategy<Value = Notification> {
    prop_oneof![
        Just(Notification::Missing),
        Just(Notification::Alert),
        Just(Notification::InterComponent),
    ]
}

fn arb_retry_shape() -> impl Strategy<Value = Option<RetryShape>> {
    prop_oneof![
        Just(None),
        Just(Some(RetryShape::SuccessExit)),
        Just(Some(RetryShape::CatchCondition)),
        Just(Some(RetryShape::InterprocCatchCondition)),
    ]
}

prop_compose! {
    /// A request spec respecting the generator's structural constraints:
    /// Volley couples timeout/retry; custom retry wraps sync libraries
    /// only; POST and response settings only where meaningful.
    fn arb_request()(
        library in arb_library(),
        origin in arb_origin(),
        conn_check in arb_conn(),
        set_timeout in any::<bool>(),
        retries in prop_oneof![Just(None), (0u32..4).prop_map(Some)],
        notification in arb_notification(),
        check_error_types in any::<bool>(),
        unchecked_resp in any::<bool>(),
        resp_via_helper in any::<bool>(),
        retry_via_helper in any::<bool>(),
        post in any::<bool>(),
        custom in arb_retry_shape(),
    ) -> RequestSpec {
        let mut r = RequestSpec::new(library, origin);
        r.conn_check = conn_check;
        r.notification = notification;
        // Retry APIs only exist for retry-capable libraries. The count may
        // flow through a helper getter (the summary engine resolves it).
        r.set_retries = if library.has_retry_api() { retries } else { None };
        r.retries_via_helper = retry_via_helper && r.set_retries.is_some();
        // Volley couples the two through DefaultRetryPolicy.
        r.set_timeout = if library == Library::Volley {
            r.set_retries.is_some()
        } else {
            set_timeout
        };
        r.check_error_types = check_error_types;
        // Response handling only for response-capable libraries; the
        // check itself may live in a helper validator.
        r.response = if library.has_response_check_api() {
            if unchecked_resp {
                RespCheck::Unchecked
            } else if resp_via_helper {
                RespCheck::CheckedViaHelper
            } else {
                RespCheck::Checked
            }
        } else {
            RespCheck::NotUsed
        };
        // POST via constructor constants / request objects / config APIs,
        // where the generator supports it (not OkHttp's opaque Request).
        r.http_method = if post && library != Library::OkHttp {
            HttpMethod::Post
        } else {
            HttpMethod::Get
        };
        // Custom retry loops wrap synchronous cores.
        r.custom_retry = match library {
            Library::BasicHttpClient
            | Library::OkHttp
            | Library::ApacheHttpClient
            | Library::HttpUrlConnection => custom,
            _ => None,
        };
        r
    }
}

fn sorted_kinds(kinds: Vec<nchecker::DefectKind>) -> Vec<String> {
    let mut v: Vec<String> = kinds.into_iter().map(|k| format!("{k:?}")).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checker_matches_oracle_on_random_specs(
        requests in proptest::collection::vec(arb_request(), 1..4)
    ) {
        let spec = AppSpec::new("com.prop.app", requests);
        let apk = nck_appgen::generate(&spec);
        let report = NChecker::new().analyze_apk(&apk).expect("analyzable");
        let got = sorted_kinds(report.defects.iter().map(|d| d.kind).collect());
        let want = sorted_kinds(spec.expected_tool_report());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn generated_binaries_always_verify_and_roundtrip(
        requests in proptest::collection::vec(arb_request(), 1..4)
    ) {
        let spec = AppSpec::new("com.prop.bin", requests);
        let apk = nck_appgen::generate(&spec);
        prop_assert!(nck_dex::verify::verify(&apk.adx).is_ok_and(|v| v.is_clean()));
        let bytes = apk.to_bytes();
        let loaded = nck_android::Apk::from_bytes(&bytes).expect("roundtrip");
        prop_assert_eq!(loaded.manifest, apk.manifest);
        prop_assert_eq!(loaded.adx.insn_count(), apk.adx.insn_count());
    }
}
