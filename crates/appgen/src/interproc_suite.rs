//! The extended 16-app accuracy suite for the summary-engine ablation.
//!
//! Every good practice here is mediated by an app-level helper method:
//! connectivity guards behind `isOnline()` wrappers, retry counts behind
//! `getRetryCount()` getters, and response checks behind
//! `isValidResponse()` validators. The ground truth is the specs'
//! oracles; the method-local analysis (interproc off) misreads the
//! helper-mediated apps in both directions — false positives on
//! helper-guarded requests and false negatives on helper-disabled
//! retries — while the summary engine matches the oracle exactly. A
//! third of the suite uses no helpers at all, pinning the two
//! configurations to identical output on baseline apps.

use crate::opensource::{tally_accuracy, Accuracy, Table9Row};
use crate::profile::{corpus, CORPUS_SIZE};
use crate::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck};
use nck_netlibs::library::Library;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A fully well-configured request: guarded, timed out, bounded retries,
/// alerting, response-checked. The starting point each app perturbs.
fn clean(library: Library, origin: Origin) -> RequestSpec {
    let mut r = RequestSpec::new(library, origin);
    r.conn_check = ConnCheck::Guarding;
    r.set_timeout = true;
    if library.has_retry_api() {
        // Bounded retries for user requests; none for services (retries
        // there would be the over-retry defect itself).
        r.set_retries = Some(if origin == Origin::Service { 0 } else { 2 });
    }
    if library == Library::Volley {
        // Volley couples timeout and retry in one policy object.
        r.set_timeout = r.set_retries.is_some();
        r.check_error_types = true;
    }
    r.notification = Notification::Alert;
    if library.has_response_check_api() {
        r.response = RespCheck::Checked;
    }
    r
}

/// Does the spec rely on any helper-mediated idiom (the ones only the
/// summary engine resolves)?
pub fn uses_helper_idioms(spec: &AppSpec) -> bool {
    spec.requests.iter().any(|r| {
        r.conn_check == ConnCheck::GuardingViaHelper
            || r.retries_via_helper
            || r.response == RespCheck::CheckedViaHelper
    })
}

/// Builds the 16 apps of the extended suite.
pub fn interproc_apps() -> Vec<AppSpec> {
    let mut apps = Vec::new();

    // 1-5: guard wrappers across libraries and origins. Oracle: clean.
    // Method-local analysis: one connectivity FP each.
    for (pkg, lib, origin) in [
        (
            "com.ip.guardbasic",
            Library::BasicHttpClient,
            Origin::UserClick,
        ),
        ("com.ip.guardok", Library::OkHttp, Origin::ActivityLifecycle),
        (
            "com.ip.guardnative",
            Library::HttpUrlConnection,
            Origin::UserClick,
        ),
        ("com.ip.guardvolley", Library::Volley, Origin::UserClick),
        (
            "com.ip.guardsvc",
            Library::AndroidAsyncHttp,
            Origin::Service,
        ),
    ] {
        let mut r = clean(lib, origin);
        r.conn_check = ConnCheck::GuardingViaHelper;
        apps.push(AppSpec::new(pkg, vec![r]));
    }

    // 6-7: retries disabled through a getter in user-facing requests.
    // Oracle: NoRetryInActivity. Method-local analysis: FN (it cannot
    // prove the count is zero).
    for (pkg, lib) in [
        ("com.ip.retryzero", Library::BasicHttpClient),
        ("com.ip.retryzerovolley", Library::Volley),
    ] {
        let mut r = clean(lib, Origin::UserClick);
        r.set_retries = Some(0);
        r.retries_via_helper = true;
        apps.push(AppSpec::new(pkg, vec![r]));
    }

    // 8: retries disabled through a getter in a service. Oracle: clean.
    // Method-local analysis: an over-retry FP (unknown count counts as
    // retries-enabled).
    {
        let mut r = clean(Library::AndroidAsyncHttp, Origin::Service);
        r.retries_via_helper = true;
        apps.push(AppSpec::new("com.ip.retrysvc", vec![r]));
    }

    // 9-10: response validity checked through a helper. Oracle: clean.
    // Method-local analysis: one response FP each.
    for (pkg, lib) in [
        ("com.ip.respok", Library::OkHttp),
        ("com.ip.respapache", Library::ApacheHttpClient),
    ] {
        let mut r = clean(lib, Origin::UserClick);
        r.response = RespCheck::CheckedViaHelper;
        apps.push(AppSpec::new(pkg, vec![r]));
    }

    // 11: every helper idiom at once.
    {
        let mut r = clean(Library::OkHttp, Origin::UserClick);
        r.conn_check = ConnCheck::GuardingViaHelper;
        r.response = RespCheck::CheckedViaHelper;
        apps.push(AppSpec::new("com.ip.combo", vec![r]));
    }

    // 12-16: baseline apps with no helper idioms — defective and clean —
    // on which both configurations must agree exactly.
    apps.push(AppSpec::new(
        "com.ip.plaindefect",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    ));
    apps.push(AppSpec::new(
        "com.ip.plainclean",
        vec![clean(Library::OkHttp, Origin::UserClick)],
    ));
    apps.push(AppSpec::new(
        "com.ip.plainsvc",
        vec![RequestSpec::new(Library::AndroidAsyncHttp, Origin::Service)],
    ));
    {
        let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
        r.check_error_types = true;
        apps.push(AppSpec::new("com.ip.plainvolley", vec![r]));
    }
    apps.push(AppSpec::new(
        "com.ip.mixed",
        vec![clean(Library::BasicHttpClient, Origin::UserClick), {
            let mut r = clean(Library::HttpUrlConnection, Origin::ActivityLifecycle);
            r.conn_check = ConnCheck::GuardingViaHelper;
            r
        }],
    ));

    apps
}

/// Apps in a [`helper_mix`] as `genapp helpermix:SEED:IDX` writes it.
pub const HELPER_MIX_SIZE: usize = 60;

/// A seeded mix of `size` corpus-like apps that spread the suite's
/// helper idioms: each is a [`corpus`] app (seeded order, re-packaged as
/// `com.hm.appNNN`) whose connectivity guards, configured retry counts
/// and checked responses move behind app helpers with probability 0.7
/// each, and whose helpers are [chained](RequestSpec::chained_helpers)
/// with probability 0.5 per app, so recursive components and field
/// constants occur. The oracle is the corpus app's: helpers change how
/// a practice is written, never whether it is applied. Deterministic in
/// `(seed, size)`; the calibrated corpus itself is left as it is.
pub fn helper_mix(seed: u64, size: usize) -> Vec<AppSpec> {
    let base = corpus(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4e17_9e12);
    let mut order: Vec<usize> = (0..CORPUS_SIZE).collect();
    order.shuffle(&mut rng);
    (0..size)
        .map(|i| {
            let mut spec = base[order[i % CORPUS_SIZE]].clone();
            spec.package = format!("com.hm.app{i:03}");
            let chained = rng.gen::<f64>() < 0.5;
            for r in &mut spec.requests {
                if r.conn_check == ConnCheck::Guarding && rng.gen::<f64>() < 0.7 {
                    r.conn_check = ConnCheck::GuardingViaHelper;
                }
                if r.set_retries.is_some() && rng.gen::<f64>() < 0.7 {
                    r.retries_via_helper = true;
                }
                if r.response == RespCheck::Checked && rng.gen::<f64>() < 0.7 {
                    r.response = RespCheck::CheckedViaHelper;
                }
                r.chained_helpers = chained;
            }
            spec
        })
        .collect()
}

/// Runs the checker over the extended suite under `config` and tallies
/// per-row accuracy against the oracles.
pub fn evaluate_interproc_with(config: nchecker::CheckerConfig) -> BTreeMap<Table9Row, Accuracy> {
    tally_accuracy(&interproc_apps(), config)
}

/// The defect kinds reported for one spec under `config` (per-app raw
/// material for the ablation comparison).
pub fn report_kinds_with(
    spec: &AppSpec,
    config: nchecker::CheckerConfig,
) -> Vec<nchecker::DefectKind> {
    let apk = crate::gen::generate(spec);
    let report = nchecker::NChecker::with_config(config)
        .analyze_apk(&apk)
        .expect("analyzable app");
    report.defects.iter().map(|d| d.kind).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nchecker::CheckerConfig;

    fn totals(table: &BTreeMap<Table9Row, Accuracy>) -> (usize, usize, usize) {
        table.values().fold((0, 0, 0), |(c, f, n), a| {
            (c + a.correct, f + a.fp, n + a.known_fn)
        })
    }

    #[test]
    fn helper_mix_reports_match_the_oracle() {
        let mix = helper_mix(2016, HELPER_MIX_SIZE);
        assert_eq!(mix, helper_mix(2016, HELPER_MIX_SIZE), "deterministic");
        let chained = |spec: &AppSpec| spec.requests.iter().any(|r| r.chained_helpers);
        assert!(mix.iter().any(|s| uses_helper_idioms(s) && chained(s)));
        assert!(mix.iter().any(|s| uses_helper_idioms(s) && !chained(s)));
        for spec in &mix {
            let mut got = report_kinds_with(spec, CheckerConfig::default());
            let mut want = spec.expected_tool_report();
            got.sort_by_key(|k| format!("{k:?}"));
            want.sort_by_key(|k| format!("{k:?}"));
            assert_eq!(got, want, "app {}", spec.package);
        }
    }

    #[test]
    fn sixteen_apps() {
        assert_eq!(interproc_apps().len(), 16);
    }

    #[test]
    fn summary_engine_matches_the_oracle_exactly() {
        let table = evaluate_interproc_with(CheckerConfig::default());
        let (_, fp, known_fn) = totals(&table);
        assert_eq!(fp, 0, "engine on: no false positives: {table:?}");
        assert_eq!(known_fn, 0, "engine on: no false negatives: {table:?}");
    }

    #[test]
    fn ablation_strictly_worse_without_the_engine() {
        let on = totals(&evaluate_interproc_with(CheckerConfig::default()));
        let off = totals(&evaluate_interproc_with(CheckerConfig {
            interproc: false,
            ..CheckerConfig::default()
        }));
        assert!(
            off.2 > on.2,
            "engine off must miss seeded defects: {off:?} vs {on:?}"
        );
        assert!(
            off.1 > on.1,
            "engine off must raise false alarms: {off:?} vs {on:?}"
        );
    }

    #[test]
    fn baseline_apps_agree_between_configurations() {
        let off = CheckerConfig {
            interproc: false,
            ..CheckerConfig::default()
        };
        let mut baseline = 0;
        for spec in interproc_apps() {
            if uses_helper_idioms(&spec) {
                continue;
            }
            baseline += 1;
            let mut a = report_kinds_with(&spec, CheckerConfig::default());
            let mut b = report_kinds_with(&spec, off);
            a.sort_by_key(|k| format!("{k:?}"));
            b.sort_by_key(|k| format!("{k:?}"));
            assert_eq!(a, b, "baseline app {} must not shift", spec.package);
        }
        assert!(baseline >= 4, "suite keeps a baseline cohort");
    }
}
