//! Analyses on demand: a context solves the interprocedural summaries
//! only when a checker asks for a dataflow fact, builds a method's CFG
//! only when a checker reads it, and `calls_source` comes from the call
//! graph. Every report must render to the same `--json` bytes as a
//! reference run of the same code that solves the summaries and builds
//! every CFG and loop nest up front, on every input family and
//! configuration.

use nchecker::{AnalyzedApp, AppReport, CheckerConfig, NChecker};
use nck_appgen::interproc_suite::{helper_mix, interproc_apps, HELPER_MIX_SIZE};
use nck_appgen::opensource::open_source_apps;
use nck_appgen::{profile, studyapps, AppSpec, CorpusStream};
use nck_netlibs::api::Registry;
use nck_svc::store::render_json;
use nck_svc::{AnalysisService, ServiceOptions};

fn configs() -> [(&'static str, CheckerConfig); 4] {
    let default = CheckerConfig::default();
    [
        ("default", default),
        (
            "--strict",
            CheckerConfig {
                strict_connectivity: true,
                ..default
            },
        ),
        (
            "--icc",
            CheckerConfig {
                icc: true,
                ..default
            },
        ),
        (
            "--no-interproc",
            CheckerConfig {
                interproc: false,
                ..default
            },
        ),
    ]
}

/// The on-demand default-config side of a [`differential`] run.
struct OnDemand {
    reports: Vec<AppReport>,
    /// CFGs the on-demand contexts built, summed over the apps.
    cfgs_built: usize,
    /// Method bodies, summed over the apps.
    bodies: usize,
    /// The configurations under which at least one app's `--json`
    /// bytes differ from its default-config report.
    differs_from_default: Vec<&'static str>,
}

/// Analyzes `specs` under every configuration, on demand and with the
/// summaries solved and every CFG and loop nest built first; asserts
/// equal `--json` bytes and returns the on-demand default-config side.
fn differential(family: &str, specs: &[AppSpec]) -> OnDemand {
    let registry = Registry::standard();
    let mut out = OnDemand {
        reports: Vec::new(),
        cfgs_built: 0,
        bodies: 0,
        differs_from_default: Vec::new(),
    };
    for spec in specs {
        let apk = nck_appgen::generate(spec);
        let program = nck_ir::lift_file(&apk.adx).expect("generated apps lift");
        let mut default_json = String::new();
        for (name, config) in configs() {
            let checker = NChecker::with_config(config);
            let lazy = AnalyzedApp::new(apk.manifest.clone(), program.clone(), &registry);
            let on_demand = checker.analyze(&lazy);
            let eager = AnalyzedApp::new(apk.manifest.clone(), program.clone(), &registry);
            for ma in eager.analyses_arc().values() {
                let _ = (ma.cfg(), ma.loops());
            }
            let _ = eager.summaries();
            let reference = checker.analyze(&eager);
            let json = render_json(&on_demand);
            assert_eq!(
                json,
                render_json(&reference),
                "{family} app {} under {name}",
                spec.package
            );
            if !config.interproc {
                assert!(
                    lazy.solved_summaries().is_none(),
                    "{name} asks for no summary"
                );
            }
            if name == "default" {
                default_json = json;
                out.reports.push(on_demand);
                out.cfgs_built += lazy.cfgs_built();
                out.bodies += lazy.analyses_arc().len();
            } else if json != default_json && !out.differs_from_default.contains(&name) {
                out.differs_from_default.push(name);
            }
        }
    }
    out
}

#[test]
fn on_demand_reports_match_eager_ones_on_the_helper_mix() {
    let reports = differential("helper-mix", &helper_mix(2016, HELPER_MIX_SIZE)).reports;
    // Not vacuous: the mix makes checkers solve, and the solves reach
    // recursive components and field constants.
    assert!(reports.iter().any(|r| r.stats.summary_methods > 0));
    assert!(reports.iter().any(|r| r.stats.summary_largest_scc > 1));
    assert!(reports.iter().any(|r| r.stats.summary_field_consts > 0));
    assert!(
        reports.iter().any(|r| r.stats.summary_methods == 0),
        "guard wrappers alone need no solve"
    );
}

#[test]
fn on_demand_reports_match_eager_ones_on_the_suite_and_gpslogger() {
    let mut specs = interproc_apps();
    specs.push(studyapps::gpslogger());
    let reports = differential("suite", &specs).reports;
    assert!(reports.iter().any(|r| r.stats.summary_methods > 0));
}

#[test]
fn on_demand_reports_match_eager_ones_on_the_corpus() {
    let reports = differential("corpus", &profile::corpus(2016)).reports;
    // No corpus check needs a dataflow fact under the default config.
    assert!(reports.iter().all(|r| r.stats.summary_methods == 0));
}

/// The Table 9 accuracy suite is the family on which the modes change
/// reports: ICC analysis clears its false positives and strict mode
/// recovers its known false negatives (`ablation_icc`). The helper mix,
/// the corpus, the store mix, the suite and gpslogger all render the
/// default's bytes under `--strict` and `--icc`, so without this family
/// a change that broke either mode would still pass.
#[test]
fn on_demand_reports_match_eager_ones_on_the_table9_suite() {
    let differs = differential("table9", &open_source_apps()).differs_from_default;
    for mode in ["--strict", "--icc"] {
        assert!(
            differs.contains(&mode),
            "no Table 9 app reports differently under {mode}"
        );
    }
}

/// The traffic store-cold vets: every 7th app of the seed-7 2,000-app
/// store mix, network-free apps and ballast classes included.
#[test]
fn on_demand_reports_match_eager_ones_on_the_store_mix() {
    let stream = CorpusStream::new(7, 2_000);
    let specs: Vec<AppSpec> = (0..stream.len())
        .step_by(7)
        .map(|i| stream.spec_at(i))
        .collect();
    assert!(specs.iter().any(|s| s.requests.is_empty()));
    assert!(specs.iter().all(|s| s.bulk > 0));
    let on_demand = differential("store-mix", &specs);
    // Not vacuous: the lazy side leaves some CFGs unbuilt.
    assert!(on_demand.cfgs_built > 0);
    assert!(
        on_demand.cfgs_built < on_demand.bodies,
        "{} CFGs built for {} bodies",
        on_demand.cfgs_built,
        on_demand.bodies
    );
}

/// The path `serve` runs keeps a memory tier of report-only entries;
/// recording one must not force a solve. A corpus app's entry holds
/// the report and no analysis state, and with metrics on its run
/// records no `summary.method_passes`. A helper-mix app that does solve,
/// then an edit of it under the same key, store the bytes a fresh
/// one-shot run renders, and the edit yields a delta.
#[test]
fn a_serve_entry_build_solves_nothing_it_does_not_need() {
    let corpus_app = nck_appgen::generate(&profile::corpus(2016)[20]).to_bytes();
    let daemon = nck_svc::Daemon::new(nck_svc::DaemonOptions::default(), nck_obs::Events::silent());
    daemon
        .submit_bytes("corpus".into(), corpus_app.clone())
        .unwrap();
    daemon.drain_now();
    let quiet = nck_obs::Obs::disabled();
    let entry = daemon.service().store().lookup("corpus", &quiet).unwrap();
    assert!(!entry.report.defects.is_empty());
    assert!(
        entry.analyses.is_empty()
            && entry.class_fps.is_empty()
            && entry.callee_fps.is_empty()
            && entry.lift_seed.common_prefix(&[0]) == 0,
        "a report-only entry"
    );

    let service = AnalysisService::new(ServiceOptions::default(), nck_obs::Obs::enabled());
    let report = service.analyze_one("corpus", &corpus_app).report.unwrap();
    let counters = &report.metrics.as_ref().unwrap().counters;
    assert!(counters.contains_key("lift.stmts"));
    assert!(!counters.contains_key("summary.method_passes"));

    // A helper-mix app whose checkers ask for summaries, then an edit.
    let mix = helper_mix(2016, HELPER_MIX_SIZE);
    let solving = mix
        .iter()
        .find(|s| {
            let bytes = nck_appgen::generate(s).to_bytes();
            NChecker::new()
                .analyze_bytes(&bytes)
                .unwrap()
                .stats
                .summary_methods
                > 0
        })
        .unwrap();
    for (version, spec) in [
        (0, solving.clone()),
        (1, nck_appgen::evolve(solving, 0.5, 3).spec),
    ] {
        let bytes = nck_appgen::generate_with_bulk(&spec, 8).to_bytes();
        daemon.submit_bytes("mix".into(), bytes.clone()).unwrap();
        daemon.drain_now();
        let entry = daemon.service().store().lookup("mix", &quiet).unwrap();
        let fresh = NChecker::new().analyze_bytes(&bytes).unwrap();
        assert_eq!(
            render_json(&entry.report),
            render_json(&fresh),
            "version {version}"
        );
        assert!(fresh.stats.summary_methods > 0, "version {version} solves");
        assert!(
            entry.analyses.is_empty(),
            "version {version} is report-only"
        );
    }
    let snap = daemon.service().store().metrics().snapshot();
    assert_eq!(snap.counters.get("svc.cache.deltas"), Some(&1));
    assert_eq!(snap.counters.get("svc.cache.replay_apps"), None);
}

/// `context.cfgs_built` of one metrics-enabled run.
fn cfgs_built(report: &AppReport) -> u64 {
    report.metrics.as_ref().unwrap().counters["context.cfgs_built"]
}

/// `context.cfgs_built` counts the CFGs a run built. It reads the same
/// whether the service caches nothing, keeps a memory tier, or keeps
/// none, and an edit under a known key counts what a fresh run of the
/// new version builds.
#[test]
fn cfgs_built_counts_only_the_runs_own_work() {
    let mut checker = NChecker::new();
    checker.obs = nck_obs::Obs::enabled();
    let service = |no_cache: bool, mem_budget: Option<usize>| {
        let options = ServiceOptions {
            no_cache,
            mem_budget,
            ..ServiceOptions::default()
        };
        AnalysisService::new(options, nck_obs::Obs::enabled())
    };
    let services = [
        ("--no-cache", service(true, None)),
        ("memory tier", service(false, None)),
        ("no memory tier", service(false, Some(0))),
    ];
    for spec in profile::corpus(2016).iter().step_by(40) {
        let bytes = nck_appgen::generate(spec).to_bytes();
        let uncached = cfgs_built(&checker.analyze_bytes(&bytes).unwrap());
        assert!(uncached > 0, "{}", spec.package);
        for (what, service) in &services {
            let report = service.analyze_one(&spec.package, &bytes).report.unwrap();
            assert_eq!(cfgs_built(&report), uncached, "{} {what}", spec.package);
        }
    }

    let spec = &profile::corpus(2016)[20];
    let v0 = nck_appgen::generate_with_bulk(spec, 8).to_bytes();
    let v1 = nck_appgen::generate_with_bulk(&nck_appgen::evolve(spec, 0.5, 3).spec, 8).to_bytes();
    let cold = cfgs_built(&checker.analyze_bytes(&v1).unwrap());
    let (_, memory) = &services[1];
    memory.analyze_one("edited", &v0).report.unwrap();
    let edited = memory.analyze_one("edited", &v1);
    assert!(edited.delta.is_some(), "an edit of a known key");
    assert_eq!(cfgs_built(&edited.report.unwrap()), cold);
}
