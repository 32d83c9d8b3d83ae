//! Differential suite for the prescan fast path: a verify-clean bundle
//! whose constant pool names no relevant API is answered with the empty
//! report, without lifting. Every entry point takes that path, so each
//! result here is compared against a reference built from the public
//! phase calls with no fast path at all (parse → verify → lenient lift →
//! `AnalyzedApp::new` → `NChecker::analyze`): the rendered report bytes
//! and, for rejected bundles, the error class must agree.

use nchecker::{
    app_report_to_json, AnalysisSkip, AnalyzeError, AnalyzedApp, AppReport, NChecker, SkipCause,
};
use nck_android::apk::Apk;
use nck_appgen::mutate::mutate;
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_appgen::{generate, interproc_suite, profile, CorpusStream};
use nck_dex::verify::{verify, VerifyScope};
use nck_netlibs::api::Registry;
use nck_netlibs::library::Library;
use std::collections::BTreeMap;

/// The whole-app pipeline spelled out phase by phase, with no prescan.
fn reference(bytes: &[u8]) -> Result<AppReport, AnalyzeError> {
    let apk = Apk::from_bytes(bytes).map_err(AnalyzeError::Apk)?;
    let errors = verify(&apk.adx);
    let wide: Vec<_> = errors
        .iter()
        .filter(|e| e.scope != VerifyScope::Method)
        .cloned()
        .collect();
    if !wide.is_empty() {
        return Err(AnalyzeError::Verify(wide));
    }
    let mut bad: BTreeMap<String, String> = BTreeMap::new();
    for e in &errors {
        bad.entry(e.method.clone()).or_insert_with(|| e.to_string());
    }
    let (program, skips) = nck_ir::lift_file_lenient(&apk.adx, &|m| bad.get(m).cloned());
    let registry = Registry::standard();
    let app = AnalyzedApp::new(apk.manifest.clone(), program, &registry);
    let mut report = NChecker::new().analyze(&app);
    report.skipped_methods = skips
        .into_iter()
        .map(|s| AnalysisSkip {
            cause: if bad.contains_key(&s.method) {
                SkipCause::Verify
            } else {
                SkipCause::Lift
            },
            method: s.method,
            detail: s.reason,
        })
        .collect();
    Ok(report)
}

/// The comparison surface: `--json` bytes, or the error's class.
fn outcome(r: &Result<AppReport, AnalyzeError>) -> String {
    match r {
        Ok(report) => serde_json::to_string(&app_report_to_json(report)).expect("renders"),
        Err(AnalyzeError::Apk(_)) => "error: apk".into(),
        Err(AnalyzeError::Lift(_)) => "error: lift".into(),
        Err(AnalyzeError::Verify(_)) => "error: verify".into(),
        Err(AnalyzeError::Panic(msg)) => format!("error: panic {msg}"),
    }
}

fn pool_clean(bytes: &[u8]) -> bool {
    let registry = Registry::standard();
    Apk::from_bytes(bytes)
        .is_ok_and(|apk| !nck_dex::pool_touches(&apk.adx, &|c, n| registry.is_relevant_api(c, n)))
}

/// The pipeline against the reference; returns whether the bundle was
/// pool-clean (so callers can show the path was taken).
fn assert_agrees(bytes: &[u8], what: &str) -> bool {
    let want = outcome(&reference(bytes));
    let mut checker = NChecker::new();
    // Degraded mutants would warn on stderr for every run.
    checker.obs.events = nck_obs::Events::silent();
    assert_eq!(
        outcome(&checker.analyze_bytes_checked(bytes)),
        want,
        "{what}: analyze_bytes diverges from the reference"
    );
    pool_clean(bytes)
}

/// Checks `specs` on two threads; returns how many were pool-clean.
fn check_specs(specs: &[AppSpec]) -> usize {
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .chunks(specs.len().div_ceil(2).max(1))
            .map(|half| {
                s.spawn(move || {
                    half.iter()
                        .filter(|spec| assert_agrees(&generate(spec).to_bytes(), &spec.package))
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn fast_path_matches_the_reference_over_store_mixes() {
    for seed in [7, 1501] {
        let specs: Vec<AppSpec> = CorpusStream::new(seed, 2_000).map(|(_, s)| s).collect();
        let clean = check_specs(&specs);
        // Roughly half of a store mix references no network API; the
        // path under test must actually be exercised.
        assert!(clean > 800, "seed {seed}: only {clean} pool-clean apps");
    }
}

#[test]
fn fast_path_matches_the_reference_over_corpus_and_suite() {
    let corpus = profile::corpus(2016);
    assert_eq!(corpus.len(), 285);
    check_specs(&corpus);
    let suite = interproc_suite::interproc_apps();
    assert_eq!(suite.len(), 16);
    check_specs(&suite);
}

/// The `fuzz_smoke` binary's three base apps over the in-tree smoke
/// test's 500 seeds, plus two network-free bases so that mutations land
/// in pool-clean bundles. Every pool-clean mutant
/// must agree with the reference. By `mutate`'s ground truth (the
/// damage is always rejected or degrades the analysis) none of them
/// verifies clean, so what this holds is the fast path's gate: verify
/// damage keeps it closed, and the degraded or rejected outcome is
/// exactly the reference's. A mutant that verified clean but that the
/// lifter still rejected would fail here as a degraded reference report
/// against an empty fast-path one.
#[test]
fn fast_path_matches_the_reference_on_pool_clean_mutations() {
    let mut helper = RequestSpec::new(Library::Volley, Origin::Service);
    helper.set_timeout = true;
    helper.set_retries = Some(3);
    helper.retries_via_helper = true;
    let bases = [
        AppSpec::new(
            "com.fuzz.single",
            vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
        ),
        AppSpec::new(
            "com.fuzz.multi",
            vec![
                RequestSpec::new(Library::Volley, Origin::ActivityLifecycle),
                RequestSpec::new(Library::ApacheHttpClient, Origin::Service),
                RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick),
            ],
        ),
        AppSpec::new("com.fuzz.helper", vec![helper]),
        profile::no_network_app(0, 4),
        profile::no_network_app(1, 16),
    ];
    let mut pool_clean_mutants = 0;
    for base in &bases {
        let apk = generate(base);
        for seed in 0..500 {
            let (bytes, m) = mutate(&apk, seed);
            if pool_clean(&bytes) {
                pool_clean_mutants += 1;
                assert_agrees(
                    &bytes,
                    &format!("{} seed {seed} ({})", base.package, m.detail),
                );
            }
        }
    }
    assert!(
        pool_clean_mutants > 300,
        "only {pool_clean_mutants} pool-clean mutants"
    );
}

/// Analyzes `spec` with metrics on and returns the run's counters.
fn counters(spec: &AppSpec) -> (AppReport, BTreeMap<String, u64>) {
    let mut checker = NChecker::new();
    checker.obs.metrics = nck_obs::Metrics::enabled();
    let report = checker
        .analyze_bytes_checked(&generate(spec).to_bytes())
        .expect("analyzes");
    let counters = report
        .metrics
        .as_ref()
        .expect("metered run")
        .counters
        .clone();
    (report, counters)
}

/// A pool-clean app ends at the prescan: the skip is counted and not a
/// single class or method reaches the lifter.
#[test]
fn pool_clean_app_lifts_nothing() {
    let (report, counters) = counters(&profile::no_network_app(0, 16));
    assert!(report.defects.is_empty());
    assert!(!report.degraded());
    assert_eq!(counters.get("prescan.skipped"), Some(&1), "app was skipped");
    let lifted: Vec<&String> = counters.keys().filter(|k| k.starts_with("lift.")).collect();
    assert!(lifted.is_empty(), "skipped app was lifted: {lifted:?}");
}

/// The prescan skips exactly the no-network apps of a clean-heavy mix:
/// every one of them, and none of the network apps beside them.
#[test]
fn prescan_skips_exactly_the_no_network_apps_of_a_mix() {
    let specs = profile::clean_corpus(7, 100, 0.7);
    let no_network = specs.iter().filter(|s| s.requests.is_empty()).count();
    assert_eq!(no_network, 70, "the mix's no-network share");
    let skipped: u64 = specs
        .iter()
        .map(|s| counters(s).1.get("prescan.skipped").copied().unwrap_or(0))
        .sum();
    assert_eq!(skipped, 70);
}
