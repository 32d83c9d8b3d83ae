//! Disk-cache GC correctness: quarantined (damaged) records stay dead,
//! an interrupted compaction's output is swept once its writer is gone,
//! compaction under concurrent readers is full-or-miss, and a post-GC
//! warm run reproduces the cold run byte for byte.

use nck_appgen::CorpusStream;
use nck_obs::Obs;
use nck_svc::{AnalysisService, AnalysisStore, ServiceOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-gc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn service(cache_dir: &Path) -> AnalysisService {
    AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    )
}

/// The one-shot `--json` byte form of a report.
fn render(report: &nchecker::AppReport) -> String {
    let mut text = serde_json::to_string_pretty(&nchecker::app_report_to_json(report))
        .expect("report serializes");
    text.push('\n');
    text
}

fn corpus_bundles(seed: u64, n: usize) -> Vec<(String, Vec<u8>)> {
    let stream = CorpusStream::new(seed, n);
    (0..n)
        .map(|i| {
            let spec = stream.spec_at(i);
            (spec.package.clone(), nck_appgen::generate(&spec).to_bytes())
        })
        .collect()
}

/// A damaged record is quarantined on first read — dropped from the
/// index, recomputed, and superseded by the new record. GC never counts
/// it as live or copies it forward, a `.quarantine` file an older build
/// left stays for the operator, and a later run serves the recomputed
/// bytes, never the poisoned ones.
#[test]
fn quarantined_entries_are_invisible_to_gc_and_stay_dead() {
    let cache = temp_dir("quarantine");
    let bundles = corpus_bundles(11, 1);

    let cold = service(&cache).analyze_one(&bundles[0].0, &bundles[0].1);
    let cold_report = render(cold.report.as_ref().expect("analyzes"));

    // Poison the single record's JSON section, beside a quarantined
    // entry of the one-file-per-entry layout.
    let segment = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("one segment");
    let mut bytes = std::fs::read(&segment).unwrap();
    let json = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[json + 40] ^= 1;
    std::fs::write(&segment, bytes).unwrap();
    let quarantined = cache.join("0123456789abcdef-0123456789abcdef.quarantine");
    std::fs::write(&quarantined, b"{ not json").unwrap();

    // A fresh service (empty memory tier) reads the damaged record,
    // drops it, and re-analyzes to the same bytes.
    let svc = service(&cache);
    let warm = svc.analyze_one(&bundles[0].0, &bundles[0].1);
    assert_eq!(
        render(warm.report.as_ref().expect("re-analyzes")),
        cold_report
    );
    let corrupt = |store: &AnalysisStore| {
        let counters = store.metrics().snapshot().counters;
        counters
            .get("svc.cache.corrupt_evict")
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(corrupt(svc.store()), 1);
    drop(svc);

    // GC with an unlimited budget: only the rewritten record is live.
    let store = AnalysisStore::with_options(Some(cache.clone()));
    let full = store.gc_disk(u64::MAX, &Obs::disabled());
    assert_eq!((full.entries, full.evicted), (1, 0), "one live record");

    // A compaction just under the occupancy keeps the live record and
    // reclaims the damaged one; it never comes back.
    let stats = store.gc_disk(full.bytes - 1, &Obs::disabled());
    assert_eq!((stats.kept(), stats.evicted), (1, 0));
    assert_eq!(
        store.disk_stats().dead_bytes,
        0,
        "the damaged record is gone"
    );
    let svc = service(&cache);
    let again = svc.analyze_one(&bundles[0].0, &bundles[0].1);
    assert!(again.hit, "the recomputed record hits");
    assert_eq!(render(again.report.as_ref().unwrap()), cold_report);
    assert_eq!(corrupt(svc.store()), 0);
    drop(svc);

    // GC to zero drops the live record but leaves the quarantine file
    // for the operator.
    let stats = store.gc_disk(0, &Obs::disabled());
    assert_eq!(stats.evicted, 1);
    assert!(quarantined.exists(), "quarantine survives GC");
    assert_eq!(store.disk_stats().entries, 0, "nothing resurrected");
    assert_eq!(corrupt(&store), 0, "GC copied nothing damaged");
}

/// A compaction killed between its tmp write and its rename leaves
/// `{stamp}-{pid}.seg.tmp`. GC sweeps one whose writer is gone and counts
/// its bytes as freed; a live writer's (maybe mid-write) stays.
#[test]
fn gc_sweeps_the_tmp_output_of_a_dead_compaction_only() {
    let cache = temp_dir("orphan");
    let bundles = corpus_bundles(11, 1);
    service(&cache).analyze_one(&bundles[0].0, &bundles[0].1);

    let mut child = std::process::Command::new("true").spawn().unwrap();
    let dead_pid = child.id();
    child.wait().unwrap();
    let dead = cache.join(format!("{:016x}-{dead_pid}.seg.tmp", 1));
    let live = cache.join(format!("{:016x}-{}.seg.tmp", 2, std::process::id()));
    std::fs::write(&dead, [7u8; 100]).unwrap();
    std::fs::write(&live, [7u8; 30]).unwrap();

    // Under budget: nothing is compacted, so the sweep is all it frees.
    let store = AnalysisStore::with_options(Some(cache.clone()));
    let stats = store.gc_disk(u64::MAX, &Obs::disabled());
    assert!(!dead.exists(), "a dead writer's tmp is swept");
    assert!(live.exists(), "a running writer's tmp stays");
    assert_eq!((stats.entries, stats.evicted), (1, 0));
    assert_eq!(stats.freed_bytes, 100);
    assert_eq!(stats.live_bytes(), store.disk_occupancy());
    let again = store.gc_disk(u64::MAX, &Obs::disabled());
    assert_eq!(again.freed_bytes, 0, "nothing left to sweep");
    assert!(live.exists());
    let _ = std::fs::remove_dir_all(&cache);
}

/// Readers racing a GC pass must see full entries or clean misses —
/// never a torn read surfaced as a corruption eviction.
#[test]
fn gc_under_concurrent_readers_is_full_or_miss() {
    let cache = temp_dir("race");
    let bundles = corpus_bundles(13, 12);
    let svc = service(&cache);
    let outcomes = svc.analyze_batch(&bundles);
    let config_fp = nchecker::cache::config_fingerprint(&nchecker::CheckerConfig::default());
    let expected: Vec<(String, String)> = bundles
        .iter()
        .zip(&outcomes)
        .map(|((key, _), o)| (key.clone(), render(o.report.as_ref().unwrap())))
        .collect();

    let store = AnalysisStore::with_options(Some(cache.clone()));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let obs = Obs::disabled();
                while !stop.load(Ordering::Relaxed) {
                    for (key, report) in &expected {
                        // An evicted entry is a clean miss (None);
                        // anything found must be whole.
                        if let Some((_, found)) = store.lookup_disk_any(key, config_fp, &obs) {
                            assert_eq!(render(&found), *report, "torn entry for {key}");
                        }
                    }
                }
            });
        }
        // Shrink the budget stepwise while the readers hammer the dir.
        let obs = Obs::disabled();
        let full = store.gc_disk(u64::MAX, &obs).bytes;
        for step in (0..=4).rev() {
            store.gc_disk(full * step / 4, &obs);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let counters = store.metrics().snapshot();
    assert_eq!(
        counters
            .counters
            .get("svc.cache.corrupt_evict")
            .copied()
            .unwrap_or(0),
        0,
        "no torn read was ever mistaken for corruption"
    );
    assert_eq!(store.disk_stats().entries, 0, "budget 0 emptied the tier");
}

/// After GC evicts part of the cache, a warm run over the whole corpus
/// reproduces the cold run's bytes exactly: evicted apps re-analyze,
/// surviving apps hit, and neither path changes the report.
#[test]
fn post_gc_warm_run_is_byte_identical_to_cold() {
    let cache = temp_dir("warm");
    let bundles = corpus_bundles(17, 8);

    let cold: Vec<String> = service(&cache)
        .analyze_batch(&bundles)
        .iter()
        .map(|o| render(o.report.as_ref().expect("analyzes")))
        .collect();

    // Evict roughly half the tier.
    let store = AnalysisStore::with_options(Some(cache.clone()));
    let full = store.gc_disk(u64::MAX, &Obs::disabled()).bytes;
    let stats = store.gc_disk(full / 2, &Obs::disabled());
    assert!(stats.evicted > 0, "GC must evict something for this test");
    assert!(store.disk_stats().entries > 0, "and keep something");

    let warm: Vec<String> = service(&cache)
        .analyze_batch(&bundles)
        .iter()
        .map(|o| render(o.report.as_ref().expect("analyzes")))
        .collect();
    assert_eq!(warm, cold);
}
