//! Cold/warm differential tests: the cache must be *invisible* in the
//! output. Whatever the cache did — whole-report reuse, a fresh analysis
//! of an app update under a known key, disk-tier restore — the rendered
//! report must be byte-identical to a cold analysis of the same bytes.

use nchecker::app_report_to_json;
use nchecker::AppReport;
use nck_appgen::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck};
use nck_appgen::{evolve, generate_with_bulk, profile};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::{Library, ALL_LIBRARIES};
use nck_obs::Obs;
use nck_svc::{AnalysisService, ServiceOptions};
use proptest::prelude::*;

/// The byte-identity comparison surface: the same JSON rendering the
/// CLI emits under `--json` (observability disabled, so no volatile
/// timing fields).
fn render(r: &AppReport) -> String {
    serde_json::to_string(&app_report_to_json(r)).expect("report renders")
}

fn service() -> AnalysisService {
    AnalysisService::new(ServiceOptions::default(), Obs::disabled())
}

fn suite(n: usize, bulk: usize, seed: u64) -> (Vec<AppSpec>, Vec<(String, Vec<u8>)>) {
    let specs: Vec<AppSpec> = profile::corpus(seed).into_iter().take(n).collect();
    let items = specs
        .iter()
        .map(|s| (s.package.clone(), generate_with_bulk(s, bulk).to_bytes()))
        .collect();
    (specs, items)
}

#[test]
fn identical_bundles_hit_whole_report_and_match_cold() {
    let (_, items) = suite(16, 2, 2016);
    let svc = service();
    let cold = svc.analyze_batch(&items);
    let warm = svc.analyze_batch(&items);
    for ((c, w), (key, _)) in cold.iter().zip(&warm).zip(&items) {
        let c = c.report.as_ref().expect("cold analyzes");
        let w = w.report.as_ref().expect("warm analyzes");
        assert_eq!(render(c), render(w), "{key}: warm must equal cold");
    }
    let stats = AnalysisService::batch_stats(&warm);
    assert_eq!(stats.hits, 16, "every re-analysis is a whole-report hit");
    assert_eq!(stats.misses, 0);
}

/// An update under a known key is analyzed afresh: its report matches
/// a cold service's, and its delta is the diff of the two versions'
/// cold reports.
#[test]
fn updated_bundles_match_cold_and_diff_against_their_predecessor() {
    let (specs, v1) = suite(16, 8, 2016);
    let v2: Vec<(String, Vec<u8>)> = specs
        .iter()
        .map(|s| {
            let e = evolve(s, 0.10, 7);
            (s.package.clone(), generate_with_bulk(&e.spec, 8).to_bytes())
        })
        .collect();

    // Warm: analyze v1 to populate the cache, then the updates.
    let warm_svc = service();
    let before = warm_svc.analyze_batch(&v1);
    let warm = warm_svc.analyze_batch(&v2);
    // Cold: a fresh service sees v2 first.
    let cold = service().analyze_batch(&v2);

    for (((w, c), b), ((key, old), (_, new))) in
        warm.iter().zip(&cold).zip(&before).zip(v1.iter().zip(&v2))
    {
        let wr = w.report.as_ref().expect("warm analyzes");
        let cr = c.report.as_ref().expect("cold analyzes");
        assert_eq!(render(cr), render(wr), "{key}: update must match cold");
        assert!(
            !w.hit,
            "{key}: an updated bundle cannot be a whole-report hit"
        );
        let want = nck_svc::diff_reports(
            key,
            nck_dex::wire::fnv1a(old),
            nck_dex::wire::fnv1a(new),
            b.report.as_ref().unwrap(),
            cr,
        );
        assert_eq!(w.delta.as_ref(), Some(&want), "{key}: delta");
    }
}

#[test]
fn disk_tier_serves_identical_bundles_across_restarts() {
    let dir = std::env::temp_dir().join(format!("nck-svc-disk-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, items) = suite(4, 1, 99);
    let opts = || ServiceOptions {
        cache_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    };

    let first = AnalysisService::new(opts(), Obs::disabled());
    let cold = first.analyze_batch(&items);
    drop(first);

    // A fresh service (fresh memory tier) must restore from disk.
    let second = AnalysisService::new(opts(), Obs::disabled());
    let warm = second.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&warm);
    assert_eq!(stats.hits, 4, "all served from the disk tier");
    for ((c, w), (key, _)) in cold.iter().zip(&warm).zip(&items) {
        assert_eq!(
            render(c.report.as_ref().unwrap()),
            render(w.report.as_ref().unwrap()),
            "{key}: disk restore must be faithful"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_mode_stores_nothing_and_matches_cached_output() {
    let (_, items) = suite(4, 1, 7);
    let plain = AnalysisService::new(
        ServiceOptions {
            no_cache: true,
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let cached = service();
    let a = plain.analyze_batch(&items);
    let b = cached.analyze_batch(&items);
    for ((x, y), (key, _)) in a.iter().zip(&b).zip(&items) {
        assert_eq!(
            render(x.report.as_ref().unwrap()),
            render(y.report.as_ref().unwrap()),
            "{key}: cache must not change output"
        );
    }
    assert!(plain.store().is_empty(), "no-cache mode must not store");
    assert_eq!(cached.store().len(), 4);
}

/// Worker-count independence: the batch pool, the intra-app parallel
/// method-analysis phase, and the parallel SCC summary levels must all
/// be invisible in the output. Four runs at different `--jobs` settings
/// (fresh service each time, cache off, so nothing is reused between
/// runs) must render byte-identical reports for every app.
#[test]
fn reports_are_byte_identical_across_jobs() {
    let (_, items) = suite(16, 2, 2016);
    let run = |jobs: usize| -> Vec<String> {
        let svc = AnalysisService::new(
            ServiceOptions {
                jobs: Some(jobs),
                no_cache: true,
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        svc.analyze_batch(&items)
            .iter()
            .map(|o| render(o.report.as_ref().expect("app analyzes")))
            .collect()
    };
    let baseline = run(1);
    for jobs in [2usize, 4, 8] {
        let got = run(jobs);
        for ((b, g), (key, _)) in baseline.iter().zip(&got).zip(&items) {
            assert_eq!(b, g, "{key}: --jobs {jobs} diverged from --jobs 1");
        }
    }
}

/// Degraded apps (any skipped method) must analyze deterministically
/// but never populate the cache: a skipped method is unknown behaviour,
/// not cacheable truth.
#[test]
fn degraded_apps_bypass_the_cache_write_path() {
    let spec = AppSpec::new(
        "com.svc.broken",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    );
    let mut apk = nck_appgen::generate(&spec);
    // Graft a method whose body touches a register outside its frame:
    // method-scoped verify damage, so analysis degrades instead of
    // failing.
    let adx = &mut apk.adx;
    let class_ty = adx.classes[0].ty;
    let void = adx.pools.type_("V");
    let proto = adx.pools.proto(void, vec![]);
    let name = adx.pools.string("broken");
    let method = adx.pools.method(class_ty, proto, name);
    adx.classes[0].methods.push(nck_dex::MethodDef {
        method,
        flags: nck_dex::AccessFlags::PUBLIC,
        code: Some(nck_dex::CodeItem {
            registers: 1,
            ins: 0,
            insns: vec![
                nck_dex::Insn::Move {
                    dst: nck_dex::Reg(9),
                    src: nck_dex::Reg(0),
                },
                nck_dex::Insn::Return { src: None },
            ],
            tries: vec![],
        }),
    });
    let bytes = apk.to_bytes();

    let svc = service();
    let first = svc.analyze_one("com.svc.broken", &bytes);
    let r1 = first.report.as_ref().expect("degrades, not fails");
    assert!(r1.degraded());
    let stats = AnalysisService::batch_stats(std::slice::from_ref(&first));
    assert_eq!((stats.misses, stats.degraded), (1, 1));
    assert!(svc.store().is_empty(), "degraded app must not be cached");

    let second = svc.analyze_one("com.svc.broken", &bytes);
    let r2 = second.report.as_ref().expect("degrades, not fails");
    assert!(!second.hit, "nothing cached to hit");
    assert_eq!(render(r1), render(r2), "degraded analysis is deterministic");
    assert!(svc.store().is_empty());
}

/// Configuration isolation: a report computed under one checker
/// configuration must never be served to a run under another, on either
/// cache tier. The config fingerprint keeps their entries apart in the
/// same cache directory.
#[test]
fn differently_configured_runs_never_share_cache_entries() {
    use nchecker::CheckerConfig;
    let dir = std::env::temp_dir().join(format!("nck-svc-mode-isolation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, items) = suite(4, 1, 41);
    let opts = |interproc: bool| ServiceOptions {
        config: CheckerConfig {
            interproc,
            ..CheckerConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    };

    // The default configuration populates both tiers.
    let full = AnalysisService::new(opts(true), Obs::disabled());
    let cold_full = full.analyze_batch(&items);
    drop(full);

    // An ablated service over the same disk tier must miss everything:
    // the default entries carry a different config fingerprint.
    let ablated = AnalysisService::new(opts(false), Obs::disabled());
    let cold_ablated = ablated.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&cold_ablated);
    assert_eq!(stats.hits, 0, "default-config cache must not serve ablated");
    assert_eq!(stats.misses, 4);
    drop(ablated);

    // Ablated entries were written under their own key: a fresh ablated
    // service hits, and a fresh default service hits its own entries.
    let ablated2 = AnalysisService::new(opts(false), Obs::disabled());
    let warm_ablated = ablated2.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&warm_ablated);
    assert_eq!(stats.hits, 4, "ablated entries serve ablated runs");
    let full2 = AnalysisService::new(opts(true), Obs::disabled());
    let warm_full = full2.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&warm_full);
    assert_eq!(stats.hits, 4, "default entries survive alongside ablated");

    // Each configuration's warm run renders its own cold report.
    for (((cf, wf), (ca, wa)), (key, _)) in cold_full
        .iter()
        .zip(&warm_full)
        .zip(cold_ablated.iter().zip(&warm_ablated))
        .zip(&items)
    {
        let (cf, ca) = (
            render(cf.report.as_ref().unwrap()),
            render(ca.report.as_ref().unwrap()),
        );
        assert_eq!(
            cf,
            render(wf.report.as_ref().unwrap()),
            "{key}: default warm agrees"
        );
        assert_eq!(
            ca,
            render(wa.report.as_ref().unwrap()),
            "{key}: ablated warm agrees"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn arb_library() -> impl Strategy<Value = Library> {
    (0usize..ALL_LIBRARIES.len()).prop_map(|i| ALL_LIBRARIES[i])
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
        Just(ConnCheck::UnusedResult),
        Just(ConnCheck::InterComponent),
        Just(ConnCheck::GuardingViaHelper),
    ]
}

fn arb_notification() -> impl Strategy<Value = Notification> {
    prop_oneof![
        Just(Notification::Missing),
        Just(Notification::Alert),
        Just(Notification::InterComponent),
    ]
}

prop_compose! {
    fn arb_request()(
        library in arb_library(),
        origin in arb_origin(),
        post in any::<bool>(),
        conn_check in arb_conn(),
        set_timeout in any::<bool>(),
        set_retries in prop_oneof![Just(None), Just(Some(0u32)), Just(Some(2u32))],
        notification in arb_notification(),
        check_error_types in any::<bool>(),
        resp in 0u8..3,
    ) -> RequestSpec {
        let mut r = RequestSpec::new(library, origin);
        r.http_method = if post { HttpMethod::Post } else { HttpMethod::Get };
        r.conn_check = conn_check;
        r.set_timeout = set_timeout;
        r.set_retries = set_retries;
        r.notification = notification;
        r.check_error_types = check_error_types;
        if library.has_response_check_api() {
            r.response = match resp {
                0 => RespCheck::NotUsed,
                1 => RespCheck::Checked,
                _ => RespCheck::Unchecked,
            };
        }
        // Volley couples timeout and retry in one policy object.
        if library == Library::Volley {
            r.set_timeout = r.set_retries.is_some();
        }
        r
    }
}

prop_compose! {
    fn arb_spec()(
        requests in prop::collection::vec(arb_request(), 1..3),
        tag in 0u32..1_000_000,
    ) -> AppSpec {
        AppSpec::new(&format!("com.prop.app{tag}"), requests)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary specs and arbitrary updates: analyzing v1 then v2
    /// through one cached service yields byte-identical v2 output to a
    /// fresh cold service.
    #[test]
    fn warm_reanalysis_of_an_update_matches_cold(
        spec in arb_spec(),
        bulk in 0usize..4,
        evolve_seed in any::<u64>(),
    ) {
        let v1 = generate_with_bulk(&spec, bulk).to_bytes();
        let e = evolve(&spec, 0.34, evolve_seed);
        let v2 = generate_with_bulk(&e.spec, bulk).to_bytes();

        let warm_svc = service();
        let _ = warm_svc.analyze_one(&spec.package, &v1);
        let warm = warm_svc.analyze_one(&spec.package, &v2);
        let cold = service().analyze_one(&spec.package, &v2);

        prop_assert_eq!(
            render(cold.report.as_ref().expect("cold analyzes")),
            render(warm.report.as_ref().expect("warm analyzes"))
        );
    }
}

/// A network-free app takes the prescan fast path on a miss and is
/// cached like any other: memory and disk hits serve its cold bytes. A
/// next version that gains network code runs cold, like every miss, and
/// gets the right delta against the clean version, from either tier.
#[test]
fn pool_clean_apps_hit_both_tiers_and_their_network_successor_runs_cold() {
    let dir = std::env::temp_dir().join(format!("nck-svc-pool-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clean = profile::no_network_app(3, 8);
    let mut network = clean.clone();
    network.requests = vec![
        RequestSpec::new(Library::Volley, Origin::UserClick),
        RequestSpec::new(Library::OkHttp, Origin::Service),
    ];
    let key = clean.package.clone();
    let v1 = generate_with_bulk(&clean, 8).to_bytes();
    let v2 = generate_with_bulk(&network, 8).to_bytes();
    let cold = |bytes: &[u8]| nchecker::NChecker::new().analyze_bytes(bytes).unwrap();
    let (cold1, cold2) = (cold(&v1), cold(&v2));
    assert!(cold1.defects.is_empty() && !cold2.defects.is_empty());
    let want_delta = nck_svc::diff_reports(
        &key,
        nck_dex::wire::fnv1a(&v1),
        nck_dex::wire::fnv1a(&v2),
        &cold1,
        &cold2,
    );
    let opts = || ServiceOptions {
        cache_dir: Some(dir.clone()),
        ..ServiceOptions::default()
    };

    let svc = AnalysisService::new(opts(), Obs::disabled());
    let miss = svc.analyze_one(&key, &v1);
    assert!(!miss.hit);
    assert_eq!(render(miss.report.as_ref().unwrap()), render(&cold1));
    let mem_hit = svc.analyze_one(&key, &v1);
    assert!(mem_hit.hit, "memory-tier hit");
    assert_eq!(render(mem_hit.report.as_ref().unwrap()), render(&cold1));

    // Memory tier: the next version finds the report-only entry and
    // diffs against it.
    let next = svc.analyze_one(&key, &v2);
    assert!(!next.hit);
    assert_eq!(render(next.report.as_ref().unwrap()), render(&cold2));
    assert_eq!(next.delta, Some(want_delta.clone()));
    drop(svc);

    // Disk tier, across a restart: record v1 afresh, then a new service
    // serves it as a stored hit, and the next version diffs against the
    // stored entry.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = AnalysisService::new(opts(), Obs::disabled()).analyze_one(&key, &v1);
    let svc = AnalysisService::new(opts(), Obs::disabled());
    let disk_hit = svc.analyze_one(&key, &v1);
    let served = disk_hit.report.as_ref().unwrap();
    assert!(disk_hit.hit && !served.is_decoded(), "disk-tier hit");
    assert_eq!(*served.json(), nck_svc::store::render_json(&cold1));
    let svc = AnalysisService::new(opts(), Obs::disabled());
    let next = svc.analyze_one(&key, &v2);
    assert!(!next.hit);
    assert_eq!(render(next.report.as_ref().unwrap()), render(&cold2));
    assert_eq!(next.delta, Some(want_delta));
    let _ = std::fs::remove_dir_all(&dir);
}
