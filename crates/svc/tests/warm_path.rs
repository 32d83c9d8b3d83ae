//! Warm-path byte-identity suite: every warm surface (memory hit, disk
//! hit served as stored bytes, memoized report rendering) must be
//! byte-identical to a cold analysis of the same bytes — including
//! after a crash-restart that loses the unflushed read journal, where
//! GC ranks those records by their write stamps and must never drop
//! *wrongly*, after a disk format upgrade, and when a record's bytes
//! are damaged.

use nck_appgen::generate_with_bulk;
use nck_appgen::profile;
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;
use nck_obs::{Events, Obs};
use nck_svc::{AnalysisService, Daemon, DaemonOptions, Request, ServiceOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The exact byte surface the one-shot CLI prints under `--json`:
/// pretty JSON plus the trailing newline (what the daemon `report`
/// verb and `vet` stdout both promise).
fn render(r: &nchecker::AppReport) -> String {
    let mut text =
        serde_json::to_string_pretty(&nchecker::app_report_to_json(r)).expect("report serializes");
    text.push('\n');
    text
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-warmpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn suite(n: usize, seed: u64) -> Vec<(String, Vec<u8>)> {
    profile::corpus(seed)
        .into_iter()
        .take(n)
        .map(|s| {
            let bytes = generate_with_bulk(&s, 2).to_bytes();
            (s.package.clone(), bytes)
        })
        .collect()
}

fn cold_renders(items: &[(String, Vec<u8>)]) -> Vec<String> {
    let reference = AnalysisService::new(
        ServiceOptions {
            no_cache: true,
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    reference
        .analyze_batch(items)
        .iter()
        .map(|o| render(o.report.as_ref().expect("cold analyzes")))
        .collect()
}

/// Checks the bytes each outcome serves (what the daemon replies and
/// `vet` prints) against the cold renderings.
fn assert_matches_cold(
    outcomes: &[nck_svc::AppOutcome],
    cold: &[String],
    items: &[(String, Vec<u8>)],
    label: &str,
) {
    for ((o, c), (key, _)) in outcomes.iter().zip(cold).zip(items) {
        let got = o.report.as_ref().expect("warm analyzes").json();
        assert_eq!(got.as_str(), c, "{key}: {label} output must equal cold");
    }
}

fn disk_service(dir: &Path) -> AnalysisService {
    AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    )
}

fn counter(svc: &AnalysisService, name: &str) -> u64 {
    svc.store()
        .metrics()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Every file under `dir` with its length, in name order.
fn dir_files(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let len = e.metadata().unwrap().len();
            (e.file_name().to_string_lossy().into_owned(), len)
        })
        .collect();
    files.sort();
    files
}

/// The disk tier's segment files, in name (creation stamp) order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    dir_files(dir)
        .into_iter()
        .filter(|(name, _)| name.ends_with(".seg"))
        .map(|(name, _)| dir.join(name))
        .collect()
}

/// Length of one touch record in the directory's `touch.log`.
const TOUCH_LEN: u64 = 80;

#[test]
fn memory_and_disk_warm_paths_are_byte_identical_to_cold() {
    let dir = tmpdir("tiers");
    let items = suite(6, 2016);
    let cold = cold_renders(&items);

    // Process 1: populate both tiers, then hit the memory tier.
    let svc = disk_service(&dir);
    assert_matches_cold(&svc.analyze_batch(&items), &cold, &items, "populate");
    let mem_warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&mem_warm).hits, items.len());
    assert_matches_cold(&mem_warm, &cold, &items, "memory-warm");
    drop(svc); // clean shutdown: flushes the (empty) journal
    let written = dir_files(&dir);
    assert_eq!(written.len(), 1, "one segment, no touch log: {written:?}");

    // Process 2: every app is a disk hit, served from the record's
    // stored bytes. The hit path journals the reads (no recency I/O
    // inline), decodes nothing, and promotes nothing.
    let svc = disk_service(&dir);
    let disk_warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&disk_warm).hits, items.len());
    assert_matches_cold(&disk_warm, &cold, &items, "disk-warm");
    assert_eq!(
        svc.store().journaled_touches(),
        items.len(),
        "disk hits land in the journal"
    );
    assert_eq!(dir_files(&dir), written, "nothing written inline");
    assert_eq!(svc.store().len(), 0, "disk hits are not promoted");
    assert_eq!(counter(&svc, "svc.cache.disk_decode"), 0);

    // Asking for the structured report decodes it — to the same bytes.
    for (o, c) in disk_warm.iter().zip(&cold) {
        let served = o.report.as_ref().unwrap();
        assert!(!served.is_decoded());
        assert_eq!(&render(served), c, "the decoded report renders identically");
        assert!(served.is_decoded());
    }
    assert_eq!(counter(&svc, "svc.cache.disk_decode"), items.len() as u64);

    // Round 3 in the same process: disk hits again, same bytes.
    let again = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&again).hits, items.len());
    assert_matches_cold(&again, &cold, &items, "disk-warm again");
    // A clean shutdown appends one touch record per read key to the
    // touch log, and leaves the segment as it was.
    drop(svc);
    let mut flushed = written.clone();
    flushed.push(("touch.log".to_owned(), items.len() as u64 * TOUCH_LEN));
    flushed.sort();
    assert_eq!(dir_files(&dir), flushed, "the journaled reads were flushed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_metrics_off_disk_hit_decodes_and_renders_nothing() {
    let dir = tmpdir("nodecode");
    let items = suite(4, 2016);
    let cold = cold_renders(&items);
    let _ = disk_service(&dir).analyze_batch(&items);

    // A warm daemon round: every reply is a disk hit's stored bytes.
    let daemon = Arc::new(Daemon::new(
        DaemonOptions {
            service: ServiceOptions {
                cache_dir: Some(dir.clone()),
                ..ServiceOptions::default()
            },
            ..DaemonOptions::default()
        },
        Events::silent(),
    ));
    let dispatcher = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || d.run_dispatcher())
    };
    let ids: Vec<u64> = items
        .iter()
        .map(|(key, bytes)| daemon.submit_bytes(key.clone(), bytes.clone()).unwrap().0)
        .collect();
    for (id, want) in ids.into_iter().zip(&cold) {
        let reply = daemon.handle_request(Request::Report { id, wait: true });
        let v: serde_json::Value = serde_json::from_str(&reply.line).unwrap();
        assert_eq!(v["report"].as_str(), Some(want.as_str()));
    }
    daemon.begin_shutdown();
    dispatcher.join().unwrap();
    let store = daemon.service().store();
    let counters = store.metrics().snapshot().counters;
    assert_eq!(counters["svc.cache.hit"], items.len() as u64);
    assert!(
        !counters.contains_key("svc.cache.disk_decode"),
        "no disk hit was decoded (and so none re-rendered)"
    );

    // With per-app metrics on, the hit decodes and renders the report
    // with its run metrics, as a cold run would.
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::enabled(),
    );
    let metered = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&metered).hits, items.len());
    assert_eq!(counter(&svc, "svc.cache.disk_decode"), items.len() as u64);
    for o in &metered {
        let json = o.report.as_ref().unwrap().json();
        assert!(json.contains("\"metrics\""), "metered bytes carry metrics");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_schema_1_cache_dir_misses_without_quarantine_and_is_rewritten() {
    let dir = tmpdir("schema1");
    let items = suite(4, 2016);
    let cold = cold_renders(&items);

    // Build the cache, then replace it with a directory of the
    // one-file-per-entry layout: schema-1 entries (one JSON object
    // holding the fingerprints and the wire report) under their
    // `{key hash}-{config}.json` names, beside a `.tmp` and an `.atime`
    // leftover.
    let svc = disk_service(&dir);
    let _ = svc.analyze_batch(&items);
    let config_fp = nchecker::cache::config_fingerprint(&nchecker::CheckerConfig::default());
    let legacy: Vec<(String, String)> = items
        .iter()
        .map(|(key, bytes)| {
            let (bundle_fp, report) = svc
                .store()
                .lookup_disk_any(key, config_fp, &Obs::disabled())
                .expect("record written");
            assert_eq!(bundle_fp, nck_dex::wire::fnv1a(bytes));
            let entry = serde_json::json!({
                "schema": 1,
                "bundle_fp": bundle_fp.to_string(),
                "config_fp": config_fp.to_string(),
                "report": nck_svc::wire::report_to_wire(&report),
            });
            let stem = format!(
                "{:016x}-{config_fp:016x}",
                nck_dex::wire::fnv1a(key.as_bytes())
            );
            (stem, serde_json::to_string(&entry).unwrap())
        })
        .collect();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (stem, text) in &legacy {
        std::fs::write(dir.join(format!("{stem}.json")), text).unwrap();
    }
    std::fs::write(dir.join(format!("{}.tmp", legacy[0].0)), "partial").unwrap();
    std::fs::write(dir.join(format!("{}.atime", legacy[1].0)), "").unwrap();
    let old_files = dir_files(&dir);

    // The new build: every lookup misses, nothing counts as corrupt,
    // the records are written in the current layout, output is
    // unchanged.
    let svc = disk_service(&dir);
    let upgraded = svc.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&upgraded);
    assert_eq!((stats.hits, stats.misses), (0, items.len()));
    assert_matches_cold(&upgraded, &cold, &items, "upgrade");
    assert_eq!(counter(&svc, "svc.cache.corrupt_evict"), 0);
    assert_eq!(svc.store().disk_stats().entries, items.len() as u64);
    drop(svc);

    // The rewritten records serve the next process, and its GC sweeps
    // every file of the old layout.
    let svc = disk_service(&dir);
    let warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&warm).hits, items.len());
    assert_matches_cold(&warm, &cold, &items, "after upgrade");
    let gc = svc.store().gc_disk(u64::MAX, &Obs::disabled());
    assert_eq!((gc.kept(), gc.evicted), (items.len() as u64, 0));
    assert_eq!(
        gc.freed_bytes,
        old_files.iter().map(|(_, len)| len).sum::<u64>()
    );
    let left = dir_files(&dir);
    assert!(
        left.iter()
            .all(|(name, _)| name.ends_with(".seg") || name == "touch.log"),
        "legacy files swept: {left:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage one section of one record per round: the next store never
/// serves it — the lookup drops it from the index (its quarantine),
/// counts `svc.cache.corrupt_evict`, recomputes, and appends a record
/// that supersedes it — and a third store hits the new record with no
/// corrupt count.
#[test]
fn a_flipped_byte_in_either_section_quarantines_and_recomputes() {
    let dir = tmpdir("flip");
    let items = suite(2, 2016);
    let cold = cold_renders(&items);
    let _ = disk_service(&dir).analyze_batch(&items);
    let first = segments(&dir).remove(0);

    for section in ["json", "wire"] {
        // The first segment holds both original records. The JSON
        // section follows the first header line; the wire section ends
        // the segment.
        let mut bytes = std::fs::read(&first).unwrap();
        let i = match section {
            "json" => bytes.iter().position(|&b| b == b'\n').unwrap() + 40,
            _ => bytes.len() - 40,
        };
        bytes[i] ^= 0x01;
        std::fs::write(&first, bytes).unwrap();

        let svc = disk_service(&dir);
        let outcomes = svc.analyze_batch(&items);
        let stats = AnalysisService::batch_stats(&outcomes);
        assert_eq!(
            (stats.hits, stats.misses),
            (items.len() - 1, 1),
            "{section}: the damaged record recomputes"
        );
        assert_matches_cold(&outcomes, &cold, &items, section);
        assert_eq!(counter(&svc, "svc.cache.corrupt_evict"), 1, "{section}");
        assert_eq!(counter(&svc, "svc.cache.disk_records_appended"), 1);
        drop(svc);

        let svc = disk_service(&dir);
        let outcomes = svc.analyze_batch(&items);
        assert_eq!(
            AnalysisService::batch_stats(&outcomes).hits,
            items.len(),
            "{section}: the recomputed record supersedes the damaged one"
        );
        assert_matches_cold(&outcomes, &cold, &items, section);
        assert_eq!(counter(&svc, "svc.cache.corrupt_evict"), 0, "{section}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_restart_with_unflushed_journal_degrades_to_mtime_without_wrong_evictions() {
    let dir = tmpdir("crash");
    let items = suite(3, 2016);
    let cold = cold_renders(&items);

    // Populate, then restart and read everything — the reads sit in
    // the journal only. `mem::forget` simulates the crash: Drop never
    // runs, the journal is lost, no touch record was ever written.
    {
        let svc = AnalysisService::new(
            ServiceOptions {
                cache_dir: Some(dir.clone()),
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        let _ = svc.analyze_batch(&items);
    }
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let written = dir_files(&dir);
    let warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&warm).hits, items.len());
    assert_eq!(svc.store().journaled_touches(), items.len());
    std::mem::forget(svc);
    assert_eq!(
        dir_files(&dir),
        written,
        "the crash lost every journaled read"
    );

    // Restart after the crash: GC ranks by the write stamps alone — it
    // drops records *by budget*, never corrupts, and every surviving
    // record still serves bytes identical to cold.
    let svc = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(dir.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let obs = Obs::disabled();
    let before = svc.store().disk_stats();
    assert_eq!(before.entries, 3);
    let per_entry = before.bytes / before.entries;
    let stats = svc.store().gc_disk(per_entry * 2 + per_entry / 2, &obs);
    assert_eq!(stats.evicted, 1, "budget for two records drops exactly one");
    assert_eq!(svc.store().disk_stats().entries, 2);

    // The post-crash warm run: survivors hit, the dropped app
    // recomputes — and everything is still byte-identical to cold.
    let after = svc.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&after);
    assert_eq!(stats.hits, 2, "survivors still decode and hit");
    assert_eq!(stats.misses, 1, "the dropped app recomputes");
    assert_matches_cold(&after, &cold, &items, "post-crash warm");
    assert_eq!(counter(&svc, "svc.cache.corrupt_evict"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_report_verb_serves_identical_bytes_through_the_render_cell() {
    let spec = AppSpec::new(
        "com.warmpath.daemon",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let bytes = nck_appgen::generate(&spec).to_bytes();
    let one_shot = {
        let svc = AnalysisService::new(
            ServiceOptions {
                no_cache: true,
                ..ServiceOptions::default()
            },
            Obs::disabled(),
        );
        render(svc.analyze_one("k", &bytes).report.as_ref().unwrap())
    };

    let daemon = Daemon::new(DaemonOptions::default(), Events::silent());
    let report_of = |id: u64| {
        let reply = daemon.handle_request(Request::Report { id, wait: false });
        let v: serde_json::Value = serde_json::from_str(&reply.line).unwrap();
        assert_eq!(v["ok"], true, "{v:?}");
        v["report"].as_str().expect("report payload").to_owned()
    };

    // Miss (renders and fills the cell), then a hit (serves the cell).
    let (id1, _) = daemon
        .submit_bytes("app.cell".to_owned(), bytes.clone())
        .unwrap();
    daemon.drain_now();
    let first = report_of(id1);
    daemon.retire_key("app.cell");
    let (id2, _) = daemon.submit_bytes("app.cell".to_owned(), bytes).unwrap();
    daemon.drain_now();
    let second = report_of(id2);

    assert_eq!(first, one_shot, "daemon miss matches one-shot --json");
    assert_eq!(second, one_shot, "daemon hit serves the same bytes");
}
