//! Report-delta correctness against appgen ground truth: version-churn
//! deltas must reconcile the two versions' defect multisets exactly,
//! survive a process boundary through the disk cache, and stay silent
//! on identical resubmission.

use nck_appgen::CorpusStream;
use nck_obs::Obs;
use nck_svc::{defect_id, AnalysisService, ServiceOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-delta-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn multiset(ids: impl IntoIterator<Item = String>) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for id in ids {
        *out.entry(id).or_insert(0) += 1;
    }
    out
}

fn report_ids(report: &nchecker::AppReport) -> BTreeMap<String, usize> {
    multiset(report.defects.iter().map(defect_id))
}

/// Version-churn deltas over a streamed corpus: for every app, the
/// delta must satisfy `ids(v0) - fixed + added == ids(v1)` with the
/// right `unchanged` count, and the defect *kinds* of v0 must match
/// the generator's expected tool report.
#[test]
fn churn_deltas_reconcile_the_ground_truth_multisets() {
    let stream = CorpusStream::new(31, 24);
    let svc = AnalysisService::new(ServiceOptions::default(), Obs::disabled());

    let mut deltas = 0usize;
    for i in 0..stream.len() {
        let v0 = stream.spec_at(i);
        let v1 = stream.version_at(i, 1);
        let key = v0.package.clone();

        let out0 = svc.analyze_one(&key, &nck_appgen::generate(&v0).to_bytes());
        let r0 = out0.report.as_ref().expect("v0 analyzes");
        assert!(out0.delta.is_none(), "first submission has no delta");

        // Ground truth: the generator knows what the tool reports.
        let mut expected_kinds: Vec<String> = v0
            .expected_tool_report()
            .iter()
            .map(|k| nchecker::kind_id(*k).to_owned())
            .collect();
        expected_kinds.sort();
        let mut got_kinds: Vec<String> = r0
            .defects
            .iter()
            .map(|d| nchecker::kind_id(d.kind).to_owned())
            .collect();
        got_kinds.sort();
        assert_eq!(got_kinds, expected_kinds, "app {i} v0 kinds");

        let bytes0 = nck_appgen::generate(&v0).to_bytes();
        let bytes1 = nck_appgen::generate(&v1).to_bytes();
        let out1 = svc.analyze_one(&key, &bytes1);
        let r1 = out1.report.as_ref().expect("v1 analyzes");
        let delta = match out1.delta {
            Some(delta) => delta,
            None => {
                // Churn may leave an app untouched; only *identical*
                // bytes excuse a missing delta.
                assert_eq!(bytes0, bytes1, "app {i}: changed bytes need a delta");
                continue;
            }
        };
        deltas += 1;

        let ids0 = report_ids(r0);
        let ids1 = report_ids(r1);
        assert_eq!(
            delta.unchanged + delta.added.len(),
            ids1.values().sum::<usize>(),
            "app {i}: unchanged + added covers v1"
        );
        assert_eq!(
            delta.unchanged + delta.fixed.len(),
            ids0.values().sum::<usize>(),
            "app {i}: unchanged + fixed covers v0"
        );
        // ids(v0) - fixed + added == ids(v1), as multisets.
        let mut reconstructed = ids0.clone();
        for id in &delta.fixed {
            let n = reconstructed
                .get_mut(id)
                .unwrap_or_else(|| panic!("app {i}: fixed id {id} not in v0"));
            *n -= 1;
        }
        reconstructed.retain(|_, n| *n > 0);
        for id in &delta.added {
            *reconstructed.entry(id.clone()).or_insert(0) += 1;
        }
        assert_eq!(reconstructed, ids1, "app {i}: delta reconciles v0 -> v1");
    }
    assert!(deltas > 0);
}

/// The delta base survives a process boundary: a fresh service over the
/// same cache directory diffs the new version against the *stored*
/// report, and its delta matches the single-process one.
#[test]
fn deltas_survive_a_process_boundary_through_the_disk_cache() {
    let cache = temp_dir("xproc");
    let stream = CorpusStream::new(37, 8);
    let options = || ServiceOptions {
        cache_dir: Some(cache.clone()),
        ..ServiceOptions::default()
    };

    // "Process" 1: analyze v0, populating the disk tier. A second
    // single-process service computes the reference deltas in-memory.
    let first = AnalysisService::new(options(), Obs::disabled());
    let reference = AnalysisService::new(ServiceOptions::default(), Obs::disabled());
    for i in 0..stream.len() {
        let key = stream.spec_at(i).package;
        let bytes = nck_appgen::generate(&stream.spec_at(i)).to_bytes();
        assert!(first.analyze_one(&key, &bytes).report.is_ok());
        assert!(reference.analyze_one(&key, &bytes).report.is_ok());
    }
    drop(first);

    // "Process" 2: a fresh service, empty memory tier, same disk dir.
    let second = AnalysisService::new(options(), Obs::disabled());
    let mut cross_process_deltas = 0usize;
    for i in 0..stream.len() {
        let key = stream.spec_at(i).package;
        let bytes = nck_appgen::generate(&stream.version_at(i, 1)).to_bytes();
        let expected = reference.analyze_one(&key, &bytes).delta;
        let got = second.analyze_one(&key, &bytes).delta;
        match (got, expected) {
            (Some(got), Some(expected)) => {
                assert_eq!(got.added, expected.added, "app {i}");
                assert_eq!(got.fixed, expected.fixed, "app {i}");
                assert_eq!(got.unchanged, expected.unchanged, "app {i}");
                cross_process_deltas += 1;
            }
            (None, None) => {} // version 1 kept identical bytes
            (got, expected) => panic!("app {i}: {got:?} vs {expected:?}"),
        }
    }
    assert!(cross_process_deltas > 0, "churn must produce deltas");
}

/// Identical resubmission is a whole-report cache hit: no delta, and
/// the JSON wire form keeps its shape.
#[test]
fn identical_resubmission_produces_no_delta_and_json_keeps_its_shape() {
    let stream = CorpusStream::new(41, 2);
    let svc = AnalysisService::new(ServiceOptions::default(), Obs::disabled());
    let spec = stream.spec_at(0);
    let bytes = nck_appgen::generate(&spec).to_bytes();
    assert!(svc.analyze_one(&spec.package, &bytes).delta.is_none());
    assert!(
        svc.analyze_one(&spec.package, &bytes).delta.is_none(),
        "identical resubmit must not fabricate a delta"
    );

    // And a real churn delta serializes with the documented shape.
    let evolved = nck_appgen::generate(&stream.version_at(0, 1)).to_bytes();
    let delta = svc
        .analyze_one(&spec.package, &evolved)
        .delta
        .expect("churn delta");
    let v = delta.to_json();
    assert_eq!(v["t"], "delta");
    assert_eq!(v["key"], spec.package.as_str());
    for field in ["prev_fp", "new_fp"] {
        assert_eq!(v[field].as_str().expect("hex fp").len(), 16);
    }
    assert!(v["added"].as_array().is_some());
    assert!(v["fixed"].as_array().is_some());
    assert!(v["unchanged"].as_i64().is_some());
}

/// Store re-vetting keeps an exact invariant across waves. One service
/// with a disk tier takes a cold wave, then two churn waves that resubmit
/// every app after a fixed set ships a new version. In each warm wave the
/// apps whose bytes did not change are whole-report hits, every app whose
/// bytes changed is a miss with a delta, GC never runs under a budget the
/// cache stays far below, and every served report is byte-identical to a
/// cache-disabled analysis of the same bytes.
#[test]
fn churn_waves_hit_every_unchanged_app_and_delta_every_changed_one() {
    const APPS: usize = 200;
    let stream = CorpusStream::new(2016, APPS);
    let cache = temp_dir("churn");
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(cache.clone()),
            cache_budget: Some(2 << 30),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let reference = AnalysisService::new(
        ServiceOptions {
            no_cache: true,
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let wave_items = |versions: &[u32]| -> Vec<(String, Vec<u8>)> {
        versions
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let spec = stream.version_at(i, v);
                (spec.package.clone(), nck_appgen::generate(&spec).to_bytes())
            })
            .collect()
    };

    let mut versions = vec![0u32; APPS];
    let mut previous = wave_items(&versions);
    let cold = svc.analyze_batch(&previous);
    assert_eq!(AnalysisService::batch_stats(&cold).hits, 0, "cold wave");
    assert!(cold.iter().all(|o| o.delta.is_none()), "cold wave deltas");

    for wave in 1..=2 {
        // Fixed churn set: every tenth app ships in both waves (a second
        // version over a churned base), plus one more tenth per wave.
        for (i, v) in versions.iter_mut().enumerate() {
            if i % 10 == 0 || i % 10 == wave {
                *v += 1;
            }
        }
        let items = wave_items(&versions);
        let changed: Vec<bool> = items
            .iter()
            .zip(&previous)
            .map(|((_, new), (_, old))| new != old)
            .collect();
        let n_changed = changed.iter().filter(|&&c| c).count();
        assert!(n_changed > 0, "wave {wave}: churn changed no bytes");

        let outcomes = svc.analyze_batch(&items);
        let stats = AnalysisService::batch_stats(&outcomes);
        assert_eq!(stats.hits, APPS - n_changed, "wave {wave}: hits");
        let deltas = outcomes.iter().filter(|o| o.delta.is_some()).count();
        assert_eq!(deltas, n_changed, "wave {wave}: deltas");
        for (i, ((key, bytes), outcome)) in items.iter().zip(&outcomes).enumerate() {
            assert_eq!(outcome.hit, !changed[i], "wave {wave} app {i}");
            let served = outcome.report.as_ref().expect("churned app analyzes");
            let cold = reference.analyze_one(key, bytes);
            let cold = cold.report.as_ref().expect("reference analyzes");
            assert_eq!(served.json(), cold.json(), "wave {wave} app {i}: bytes");
        }
        previous = items;
    }

    let counters = svc.store().metrics().snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("svc.cache.gc_runs"), 0, "GC ran");
    assert_eq!(counter("svc.cache.gc_skipped"), 3, "one GC check per batch");
    let _ = std::fs::remove_dir_all(&cache);
}
