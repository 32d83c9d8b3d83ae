//! The log-structured disk tier's public contract: a torn segment tail
//! serves every earlier record and misses the cut one, records another
//! store appends are visible as hits and as delta bases, concurrent
//! appends from two stores all read back whole, and a cold batch creates
//! one file and appends one record per clean app.

use nchecker::cache::AppCacheEntry;
use nchecker::AppReport;
use nck_appgen::profile;
use nck_obs::Obs;
use nck_svc::store::render_json;
use nck_svc::{AnalysisService, AnalysisStore, ServiceOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

const CONFIG_FP: u64 = 42;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-segments-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

/// A cache entry whose report is told apart by its package name.
fn entry(bundle_fp: u64, package: &str) -> AppCacheEntry {
    let mut report = AppReport::default();
    report.stats.package = package.to_owned();
    report.stats.requests = bundle_fp as usize;
    AppCacheEntry {
        bundle_fp,
        config_fp: CONFIG_FP,
        report,
        ..AppCacheEntry::default()
    }
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

fn counter(store: &AnalysisStore, name: &str) -> u64 {
    let counters = store.metrics().snapshot().counters;
    counters.get(name).copied().unwrap_or(0)
}

/// The one-shot `--json` bytes of a report.
fn render(report: &AppReport) -> String {
    let mut text = serde_json::to_string_pretty(&nchecker::app_report_to_json(report))
        .expect("report serializes");
    text.push('\n');
    text
}

/// A writer killed mid-append leaves a torn tail. Cut the segment at
/// every byte offset inside its last record: each reopened store serves
/// the earlier records byte for byte, misses the cut one without
/// counting it corrupt, and a later insert of that key is served again.
#[test]
fn a_torn_tail_at_every_offset_serves_earlier_records_and_misses_the_cut_one() {
    let dir = temp_dir("torn");
    let keys = ["app.first", "app.second", "app.cut"];
    let entries: Vec<AppCacheEntry> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| entry(i as u64 + 1, key))
        .collect();
    let (before_last, whole) = {
        let store = AnalysisStore::with_options(Some(dir.clone()));
        for (key, e) in keys.iter().zip(&entries).take(2) {
            store.insert(key, e.clone(), &Obs::disabled());
        }
        let before_last = std::fs::metadata(&segments(&dir)[0]).unwrap().len() as usize;
        store.insert(keys[2], entries[2].clone(), &Obs::disabled());
        (before_last, std::fs::read(&segments(&dir)[0]).unwrap())
    };
    let segment = segments(&dir).remove(0);
    assert!(whole.len() > before_last + 100, "a record of some size");

    for cut in before_last..whole.len() {
        std::fs::write(&segment, &whole[..cut]).unwrap();
        let store = AnalysisStore::with_options(Some(dir.clone()));
        let obs = Obs::disabled();
        for (key, e) in keys.iter().zip(&entries).take(2) {
            let got = store.lookup_disk_entry(key, CONFIG_FP, &obs);
            let got = got.unwrap_or_else(|| panic!("cut at {cut}: {key} missing"));
            assert_eq!(got.bundle_fp, e.bundle_fp);
            assert_eq!(*got.json, render_json(&e.report), "cut at {cut}: {key}");
        }
        assert!(
            store.lookup_disk_entry(keys[2], CONFIG_FP, &obs).is_none(),
            "cut at {cut}: the torn record was served"
        );
        assert_eq!(
            counter(&store, "svc.cache.corrupt_evict"),
            0,
            "cut at {cut}"
        );
        assert_eq!(store.disk_stats().entries, 2, "cut at {cut}");
    }

    // The recomputed record lands in a new segment and serves the next
    // store; the torn tail stays behind it, harmless.
    let store = AnalysisStore::with_options(Some(dir.clone()));
    store.insert(keys[2], entries[2].clone(), &Obs::disabled());
    drop(store);
    let store = AnalysisStore::with_options(Some(dir.clone()));
    let got = store.lookup_disk_entry(keys[2], CONFIG_FP, &Obs::disabled());
    assert_eq!(*got.unwrap().json, render_json(&entries[2].report));
    assert_eq!(segments(&dir).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store B opens its index, then store A appends. B's next lookup of
/// that key walks A's new tail and hits; once the app changes, A's
/// record is B's delta base.
#[test]
fn a_record_another_store_appends_is_a_hit_and_a_delta_base() {
    let dir = temp_dir("crossproc");
    let specs = profile::corpus(2016);
    let bundle = |i: usize| nck_appgen::generate(&specs[i]).to_bytes();
    let (v1, v2, other) = (bundle(3), bundle(4), bundle(5));
    let a = service(&dir);
    let b = service(&dir);

    // B's index is open (it looked up, missed, and wrote a record).
    assert!(!b.analyze_one("app.other", &other).hit);
    assert_eq!(b.store().disk_stats().entries, 1);
    let cold = a.analyze_one("app.k", &v1);
    assert!(!cold.hit);
    let want = render(cold.report.as_ref().unwrap());

    // B has no memory entry for the key: the disk record A appended hits.
    let hit = b.analyze_one("app.k", &v1);
    assert!(hit.hit, "B sees A's record");
    assert_eq!(*hit.report.as_ref().unwrap().json(), want);

    // A new version: A's record is the stale one B diffs against.
    let next = b.analyze_one("app.k", &v2);
    assert!(!next.hit);
    let delta = next.delta.expect("a delta against A's record");
    assert_eq!(delta.prev_fp, nck_dex::wire::fnv1a(&v1));
    assert_eq!(delta.new_fp, nck_dex::wire::fnv1a(&v2));
    assert_eq!(counter(b.store(), "svc.cache.corrupt_evict"), 0);
    drop((a, b));

    // A third store sees B's newer record as the live one.
    let c = service(&dir);
    let again = c.analyze_one("app.k", &v2);
    assert!(again.hit);
    assert_eq!(c.store().disk_stats().entries, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two stores append from two threads each while a third store reads
/// the directory: every record found in flight is whole, and afterwards
/// every record reads back byte for byte.
#[test]
fn concurrent_appends_from_two_stores_read_back_whole() {
    let dir = temp_dir("concurrent");
    let writers = [
        AnalysisStore::with_options(Some(dir.clone())),
        AnalysisStore::with_options(Some(dir.clone())),
    ];
    let reader = AnalysisStore::with_options(Some(dir.clone()));
    let key = |w: usize, t: usize, i: usize| format!("app.w{w}.t{t}.i{i}");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for (w, store) in writers.iter().enumerate() {
            for t in 0..2 {
                scope.spawn(move || {
                    for i in 0..60 {
                        let k = key(w, t, i);
                        store.insert(&k, entry(i as u64, &k), &Obs::disabled());
                    }
                });
            }
        }
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                for i in 0..60 {
                    let k = key(i % 2, i % 3 % 2, i);
                    let found = reader.lookup_disk_entry(&k, CONFIG_FP, &Obs::disabled());
                    if let Some(found) = found {
                        assert_eq!(*found.json, render_json(&entry(i as u64, &k).report));
                    }
                }
            }
        });
        // The writer threads finish before the scope ends; stop the
        // reader once every record is on disk.
        while writers
            .iter()
            .map(|s| counter(s, "svc.cache.disk_records_appended"))
            .sum::<u64>()
            < 240
        {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(counter(&reader, "svc.cache.corrupt_evict"), 0);

    let store = AnalysisStore::with_options(Some(dir.clone()));
    for w in 0..2 {
        for t in 0..2 {
            for i in 0..60 {
                let k = key(w, t, i);
                let found = store.lookup_disk_entry(&k, CONFIG_FP, &Obs::disabled());
                let found = found.unwrap_or_else(|| panic!("{k} missing"));
                assert_eq!(*found.json, render_json(&entry(i as u64, &k).report));
            }
        }
    }
    let stats = store.disk_stats();
    assert_eq!(
        (stats.entries, stats.segments, stats.dead_bytes),
        (240, 2, 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk tier's work counters for a cold batch over the 285-app
/// corpus: one file created, and one record appended per app that was
/// neither degraded nor failed (the one-file-per-entry layout created a
/// file for each of those).
#[test]
fn a_cold_corpus_batch_creates_one_file_and_appends_one_record_per_clean_app() {
    let dir = temp_dir("counters");
    let items: Vec<(String, Vec<u8>)> = profile::corpus(2016)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (
                format!("corpus{i:03}"),
                nck_appgen::generate(spec).to_bytes(),
            )
        })
        .collect();
    let svc = service(&dir);
    let outcomes = svc.analyze_batch(&items);
    let clean = outcomes
        .iter()
        .filter(|o| o.report.as_ref().is_ok_and(|r| !r.degraded()))
        .count();
    assert_eq!((items.len(), clean), (285, 285));
    let store = svc.store();
    assert_eq!(counter(store, "svc.cache.disk_files_created"), 1);
    assert_eq!(counter(store, "svc.cache.disk_records_appended"), 285);
    let stats = store.disk_stats();
    assert_eq!(
        (stats.entries, stats.segments, stats.dead_bytes),
        (285, 1, 0)
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
