//! Corpus-level fault tolerance: one corrupt or adversarial app must
//! never block the rest of a corpus run.

use nchecker::{AnalyzeError, CheckerConfig};
use nck_appgen::mutate::mutate;
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_bench::{run_bundles, run_specs};
use nck_netlibs::library::Library;
use nck_obs::Obs;

fn spec(package: &str) -> AppSpec {
    AppSpec::new(
        package,
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    )
}

#[test]
fn corrupt_bundle_does_not_block_the_corpus() {
    let apks: Vec<_> = (0..4)
        .map(|i| nck_appgen::generate(&spec(&format!("com.corpus.app{i}"))))
        .collect();
    let mut bundles: Vec<Vec<u8>> = apks.iter().map(|a| a.to_bytes()).collect();
    // Replace app 1 with a seed-0 corruption of itself and app 2 with
    // outright garbage.
    bundles[1] = mutate(&apks[1], 0).0;
    bundles[2] = b"not an apk at all".to_vec();

    let outcome = run_bundles(&bundles, CheckerConfig::default(), &Obs::disabled());

    assert_eq!(outcome.reports.len(), 4);
    // The healthy apps analyzed and reported their defects.
    for i in [0usize, 3] {
        let report = outcome.reports[i].as_ref().unwrap_or_else(|| {
            panic!("healthy app {i} lost to a neighbour's corruption");
        });
        assert!(!report.defects.is_empty());
    }
    // The garbage bundle failed with a typed error, never a panic.
    let garbage = outcome
        .failures
        .iter()
        .find(|f| f.index == 2)
        .expect("garbage bundle recorded as failed");
    assert!(!matches!(garbage.error, AnalyzeError::Panic(_)));
    // The mutated bundle either failed typed or analyzed degraded.
    match &outcome.reports[1] {
        Some(report) => assert!(report.degraded()),
        None => {
            let f = outcome.failures.iter().find(|f| f.index == 1).unwrap();
            assert!(!matches!(f.error, AnalyzeError::Panic(_)));
        }
    }
}

#[test]
fn healthy_specs_yield_no_failures() {
    let specs: Vec<_> = (0..3).map(|i| spec(&format!("com.ok.app{i}"))).collect();
    let outcome = run_specs(&specs, CheckerConfig::default(), &Obs::disabled());
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.succeeded().len(), 3);
    assert_eq!(outcome.degraded_count(), 0);
    // Reports come back in spec order.
    for (i, r) in outcome.reports.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap().stats.package, format!("com.ok.app{i}"));
    }
}
