//! Tests of the future-work extensions: ICC analysis and strict
//! (path-sensitive) connectivity checking.

use nchecker::{CheckerConfig, DefectKind, NChecker};
use nck_appgen::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec};
use nck_netlibs::library::Library;

fn icc_checker() -> NChecker {
    NChecker::with_config(CheckerConfig {
        icc: true,
        ..CheckerConfig::default()
    })
}

fn strict_checker() -> NChecker {
    NChecker::with_config(CheckerConfig {
        strict_connectivity: true,
        ..CheckerConfig::default()
    })
}

#[test]
fn icc_clears_the_intercomponent_connectivity_fp() {
    let mut r = RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick);
    r.conn_check = ConnCheck::InterComponent;
    r.notification = Notification::Alert;
    let spec = AppSpec::new("com.ext.iccconn", vec![r]);
    let apk = nck_appgen::generate(&spec);

    // Paper-default: false positive.
    let default = NChecker::new().analyze_apk(&apk).unwrap();
    assert!(default.has(DefectKind::MissedConnectivityCheck));

    // ICC-aware: the guard in the launching receiver is seen.
    let icc = icc_checker().analyze_apk(&apk).unwrap();
    assert!(!icc.has(DefectKind::MissedConnectivityCheck));
}

#[test]
fn icc_clears_the_broadcast_notification_fp() {
    let mut r = RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick);
    r.conn_check = ConnCheck::Guarding;
    r.notification = Notification::InterComponent;
    let spec = AppSpec::new("com.ext.iccnotif", vec![r]);
    let apk = nck_appgen::generate(&spec);

    let default = NChecker::new().analyze_apk(&apk).unwrap();
    assert!(default.has(DefectKind::MissedFailureNotification));

    let icc = icc_checker().analyze_apk(&apk).unwrap();
    assert!(!icc.has(DefectKind::MissedFailureNotification));
}

#[test]
fn icc_does_not_excuse_genuinely_missing_checks() {
    // A truly unguarded request stays flagged even with ICC on.
    let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
    r.conn_check = ConnCheck::Missing;
    let spec = AppSpec::new("com.ext.iccmiss", vec![r]);
    let apk = nck_appgen::generate(&spec);
    let icc = icc_checker().analyze_apk(&apk).unwrap();
    assert!(icc.has(DefectKind::MissedConnectivityCheck));
}

#[test]
fn strict_mode_catches_the_unused_result_fn() {
    let mut r = RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick);
    r.conn_check = ConnCheck::UnusedResult;
    r.notification = Notification::Alert;
    let spec = AppSpec::new("com.ext.strictfn", vec![r]);
    let apk = nck_appgen::generate(&spec);

    // Paper-default: the check's mere presence silences the warning (FN).
    let default = NChecker::new().analyze_apk(&apk).unwrap();
    assert!(!default.has(DefectKind::MissedConnectivityCheck));

    // Strict: the result must be a control condition of the request.
    let strict = strict_checker().analyze_apk(&apk).unwrap();
    assert!(strict.has(DefectKind::MissedConnectivityCheck));
}

#[test]
fn strict_mode_still_accepts_real_guards() {
    let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
    r.conn_check = ConnCheck::Guarding;
    r.notification = Notification::Alert;
    r.set_timeout = true;
    r.set_retries = Some(2);
    let spec = AppSpec::new("com.ext.strictok", vec![r]);
    let apk = nck_appgen::generate(&spec);
    let strict = strict_checker().analyze_apk(&apk).unwrap();
    assert!(!strict.has(DefectKind::MissedConnectivityCheck));
}

#[test]
fn strict_guard_in_caller_is_recognized() {
    // Guard in onClick; the request in a native task's doInBackground:
    // the guarded branch dominates the execute() call one level up.
    let mut r = RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick);
    r.conn_check = ConnCheck::Guarding;
    r.notification = Notification::Alert;
    let spec = AppSpec::new("com.ext.strictcaller", vec![r]);
    let apk = nck_appgen::generate(&spec);
    let strict = strict_checker().analyze_apk(&apk).unwrap();
    assert!(!strict.has(DefectKind::MissedConnectivityCheck));
}

#[test]
fn both_extensions_reach_perfect_table9_accuracy() {
    let table = nck_appgen::opensource::evaluate_accuracy(CheckerConfig {
        icc: true,
        strict_connectivity: true,
        ..CheckerConfig::default()
    });
    let (c, f, n) =
        nck_appgen::opensource::Table9Row::ALL
            .iter()
            .fold((0, 0, 0), |(c, f, n), row| {
                let a = table[row];
                (c + a.correct, f + a.fp, n + a.known_fn)
            });
    assert_eq!((c, f, n), (135, 0, 0));
}
