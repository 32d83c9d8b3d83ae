//! Warm-path byte-identity suite: every warm surface (memory hit, disk
//! hit served as stored bytes, memoized report rendering, warm worker
//! fleets) must be byte-identical to a cold analysis of the same bytes —
//! including after a crash-restart that loses the unflushed atime
//! journal, where GC degrades to the entry-mtime fallback and must
//! never evict *wrongly* (only rank by an older stamp), after a disk
//! format upgrade, and when an entry's bytes are damaged.

use nck_appgen::generate_with_bulk;
use nck_appgen::profile;
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;
use nck_obs::{Events, Obs};
use nck_svc::{
    AnalysisService, Daemon, DaemonOptions, OrchestratorOptions, Request, ServiceOptions,
    WorkerFleet,
};
use std::path::PathBuf;
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

fn disk_service(dir: &std::path::Path) -> AnalysisService {
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

fn entry_files(dir: &std::path::Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    files.sort();
    files
}

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

    // Process 2: every app is a disk hit, served from the entry's
    // stored bytes. The hit path journals the reads (no sidecar I/O
    // inline), decodes nothing, and promotes nothing.
    let svc = disk_service(&dir);
    let disk_warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&disk_warm).hits, items.len());
    assert_matches_cold(&disk_warm, &cold, &items, "disk-warm");
    assert_eq!(
        svc.store().journaled_atimes(),
        items.len(),
        "disk hits land in the journal, not in sidecar files"
    );
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

    // Build the cache, then turn every entry into the schema-1 layout:
    // one JSON object holding the fingerprints and the wire report.
    let svc = disk_service(&dir);
    let _ = svc.analyze_batch(&items);
    let config_fp = nchecker::cache::config_fingerprint(&nchecker::CheckerConfig::default());
    for (key, bytes) in &items {
        let (bundle_fp, report) = svc
            .store()
            .lookup_disk_any(key, config_fp, &Obs::disabled())
            .expect("entry written");
        assert_eq!(bundle_fp, nck_dex::wire::fnv1a(bytes));
        let legacy = serde_json::json!({
            "schema": 1,
            "bundle_fp": bundle_fp.to_string(),
            "config_fp": config_fp.to_string(),
            "report": nck_svc::wire::report_to_wire(&report),
        });
        let path = entry_files(&dir, "json")
            .into_iter()
            .find(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                name.starts_with(&format!("{:016x}", nck_dex::wire::fnv1a(key.as_bytes())))
            })
            .expect("entry file for the key");
        std::fs::write(&path, serde_json::to_string(&legacy).unwrap()).unwrap();
    }
    drop(svc);

    // The new build: every lookup misses, nothing is quarantined, the
    // entries are rewritten in the current layout, output is unchanged.
    let svc = disk_service(&dir);
    let upgraded = svc.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&upgraded);
    assert_eq!((stats.hits, stats.misses), (0, items.len()));
    assert_matches_cold(&upgraded, &cold, &items, "upgrade");
    assert!(
        entry_files(&dir, "quarantine").is_empty(),
        "nothing quarantined"
    );
    assert_eq!(counter(&svc, "svc.cache.corrupt_evict"), 0);
    let entries = entry_files(&dir, "json");
    assert_eq!(entries.len(), items.len(), "rewritten in place, not beside");
    for path in &entries {
        assert!(std::fs::read(path).unwrap().starts_with(b"nck-entry 2 "));
    }
    drop(svc);

    // And the rewritten entries serve the next process.
    let svc = disk_service(&dir);
    let warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&warm).hits, items.len());
    assert_matches_cold(&warm, &cold, &items, "after upgrade");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_in_either_section_quarantines_and_recomputes() {
    let dir = tmpdir("flip");
    let items = suite(2, 2016);
    let cold = cold_renders(&items);
    let _ = disk_service(&dir).analyze_batch(&items);

    // Damage one section of one entry per round, then re-vet everything.
    for (round, section) in ["json", "wire"].into_iter().enumerate() {
        let path = entry_files(&dir, "json").remove(round);
        let mut bytes = std::fs::read(&path).unwrap();
        // The JSON section follows the header line; the wire section
        // ends the file.
        let i = match section {
            "json" => bytes.iter().position(|&b| b == b'\n').unwrap() + 40,
            _ => bytes.len() - 40,
        };
        bytes[i] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();

        let svc = disk_service(&dir);
        let outcomes = svc.analyze_batch(&items);
        let stats = AnalysisService::batch_stats(&outcomes);
        assert_eq!(
            (stats.hits, stats.misses),
            (items.len() - 1, 1),
            "{section}: the damaged entry recomputes"
        );
        assert_matches_cold(&outcomes, &cold, &items, section);
        assert_eq!(counter(&svc, "svc.cache.corrupt_evict"), 1, "{section}");
        assert_eq!(
            entry_files(&dir, "quarantine").len(),
            round + 1,
            "{section}"
        );
        assert_eq!(
            entry_files(&dir, "json").len(),
            items.len(),
            "{section}: rewritten"
        );
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
    // runs, the journal is lost, no sidecar was ever written.
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
    let warm = svc.analyze_batch(&items);
    assert_eq!(AnalysisService::batch_stats(&warm).hits, items.len());
    assert_eq!(svc.store().journaled_atimes(), items.len());
    std::mem::forget(svc);
    let sidecars = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "atime"))
        .count();
    assert_eq!(sidecars, 0, "the crash lost every journaled read");

    // Restart after the crash: GC must degrade to the mtime fallback —
    // it evicts *by budget*, never corrupts, and every surviving entry
    // still serves bytes identical to cold.
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
    assert_eq!(
        stats.evicted, 1,
        "budget for two entries evicts exactly one"
    );
    assert_eq!(svc.store().disk_stats().entries, 2);

    // The post-crash warm run: survivors hit, the evicted app
    // recomputes — and everything is still byte-identical to cold.
    let after = svc.analyze_batch(&items);
    let stats = AnalysisService::batch_stats(&after);
    assert_eq!(stats.hits, 2, "survivors still decode and hit");
    assert_eq!(stats.misses, 1, "the evicted app recomputes");
    assert_matches_cold(&after, &cold, &items, "post-crash warm");
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

#[test]
fn a_warm_fleet_serves_a_second_round_without_spawning_and_byte_identically() {
    let dir = tmpdir("fleet");
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = suite(4, 2016)
        .into_iter()
        .enumerate()
        .map(|(i, (_, bytes))| {
            let p = dir.join(format!("app{i}.apk"));
            std::fs::write(&p, bytes).unwrap();
            p.to_str().unwrap().to_owned()
        })
        .collect();

    let mut fleet = WorkerFleet::new(OrchestratorOptions {
        workers: 2,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_nchecker").to_owned(),
            "serve".to_owned(),
            "--stdio".to_owned(),
            "--quiet".to_owned(),
            "--queue-capacity".to_owned(),
            "64".to_owned(),
        ],
        ..OrchestratorOptions::default()
    });

    let round1 = fleet.vet(&paths);
    assert_eq!(round1.completed(), paths.len());
    assert!(round1.worker_spawns >= 1, "cold fleet spawns its workers");
    assert_eq!(round1.workers_reused, 0);
    let spawned = round1.worker_spawns;
    assert_eq!(fleet.warm_workers(), spawned, "workers stay alive");

    let round2 = fleet.vet(&paths);
    assert_eq!(round2.completed(), paths.len());
    assert_eq!(round2.worker_spawns, 0, "warm round spawns nothing");
    assert_eq!(round2.workers_reused, spawned, "every shard reuses warm");
    assert_eq!(
        round2.shards.iter().map(|s| s.restarts).sum::<usize>(),
        0,
        "no respawns on the clean path"
    );
    assert_eq!(
        round1.reports, round2.reports,
        "warm-fleet output is byte-identical to the cold round"
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
