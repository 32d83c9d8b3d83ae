//! Corpus-level integration tests: a sampled slice of the 285-app corpus
//! goes through the full binary pipeline, and per-app results must match
//! each spec's oracle; the whole corpus's work counters are pinned exactly.

use nchecker::{CheckerConfig, CorpusStats, NChecker};
use nck_appgen::profile::{corpus, CORPUS_SIZE};
use nck_obs::Obs;

fn sorted_kinds(kinds: Vec<nchecker::DefectKind>) -> Vec<String> {
    let mut v: Vec<String> = kinds.into_iter().map(|k| format!("{k:?}")).collect();
    v.sort();
    v
}

#[test]
fn sampled_corpus_apps_match_their_oracles() {
    let specs = corpus(2016);
    let checker = NChecker::new();
    // Every 12th app covers all the library/flag zones without the cost
    // of the full run (the bench harness covers all 285).
    for spec in specs.iter().step_by(12) {
        let apk = nck_appgen::generate(spec);
        let report = checker
            .analyze_bytes(&apk.to_bytes())
            .expect("corpus app analyzes");
        let got = sorted_kinds(report.defects.iter().map(|d| d.kind).collect());
        let want = sorted_kinds(spec.expected_tool_report());
        assert_eq!(got, want, "app {}", spec.package);
    }
}

#[test]
fn corpus_statistics_land_on_the_paper_rates() {
    // Aggregate a prefix slice large enough to cover the retry zone and
    // check the never-X invariants hold exactly within it.
    let specs = corpus(2016);
    assert_eq!(specs.len(), CORPUS_SIZE);
    let checker = NChecker::new();
    let mut stats = CorpusStats::new();
    for spec in specs.iter().take(95) {
        let report = checker
            .analyze_apk(&nck_appgen::generate(spec))
            .expect("analyzable");
        stats.add(report.stats);
    }
    // All 91 retry-zone apps are inside this prefix.
    let t8 = stats.table8();
    assert_eq!(t8[0].population, 91);
    // Table 8 absolute app counts are exact by construction.
    assert_eq!(t8[0].apps, 7, "no-retry-in-activity apps");
    assert_eq!(t8[1].apps, 29, "over-retry-service apps");
    assert_eq!(t8[2].apps, 23, "over-retry-post apps");
}

#[test]
fn corpus_analysis_is_deterministic() {
    let specs = corpus(2016);
    let checker = NChecker::new();
    let spec = &specs[40];
    let a = checker.analyze_apk(&nck_appgen::generate(spec)).unwrap();
    let b = checker.analyze_apk(&nck_appgen::generate(spec)).unwrap();
    assert_eq!(a.defects.len(), b.defects.len());
    for (x, y) in a.defects.iter().zip(&b.defects) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.location, y.location);
    }

    // The whole corpus does an exact, known amount of work. These are
    // the counters `run_all` records in `BENCH_pipeline.json`, taken
    // through the same metrics-enabled path. A failure means the
    // pipeline did more (or less) work than before, not that the host
    // was slow; changing a number here needs a CHANGES.md line saying
    // why the work changed.
    let reports =
        nck_bench::run_specs(&specs, CheckerConfig::default(), &Obs::enabled()).expect_all();
    let (_, metrics) = nck_bench::collect_obs(&reports);
    for (name, want) in [
        ("parse.bytes", 1_010_011),
        ("lift.stmts", 42_114),
        // CFGs are built on demand: the checkers ask for them in only
        // some of the bodies.
        ("context.methods_analyzed", 4_845),
        ("context.cfgs_built", 2_631),
        // CHA reads each key's subtype list from the class-hierarchy
        // index instead of scanning every program class per key.
        ("context.cha_keys", 2_259),
        ("context.cha_candidates", 905),
        // No corpus check asks for a dataflow fact, so the summary
        // engine never runs (an absent counter reads 0).
        ("summary.method_passes", 0),
        ("check.sites", 1_735),
        ("check.defects", 4_437),
    ] {
        let got = metrics.counters.get(name).copied().unwrap_or(0);
        assert_eq!(got, want, "counter {name}");
    }
}
