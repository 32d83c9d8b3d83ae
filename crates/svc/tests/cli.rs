//! Tests of the `nchecker` command-line binary.

use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nck-cli-{name}-{}", std::process::id()))
}

#[test]
fn summary_mode_prints_one_line_per_app() {
    let spec = AppSpec::new(
        "com.test.cli",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    );
    let path = temp_path("ok.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("com.test.cli"), "{stdout}");
    assert!(stdout.contains("defects"), "{stdout}");
}

#[test]
fn full_mode_prints_reports() {
    let spec = AppSpec::new(
        "com.test.cli2",
        vec![RequestSpec::new(Library::Volley, Origin::UserClick)],
    );
    let path = temp_path("full.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fix Suggestion"), "{stdout}");
}

#[test]
fn bad_file_fails() {
    let path = temp_path("bad.apk");
    std::fs::write(&path, b"not an apk").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
}

#[test]
fn no_arguments_shows_usage() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .output()
        .expect("cli runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Retired flags are unknown flags: `--targeted` to the one-shot check,
/// `serve` and `vet` alike, and the worker-fleet tuning flags to `vet`.
#[test]
fn retired_mode_flag_shows_usage_everywhere() {
    for args in [
        &["--targeted", "x.apk"][..],
        &["serve", "--targeted"],
        &["vet", "--targeted", "x.apk"],
        &["vet", "--window", "8", "x.apk"],
        &["vet", "--worker-exe", "nchecker", "x.apk"],
        // vet rejects a zero count wherever it appears, not only last.
        &["vet", "--workers", "0", "--workers", "2", "x.apk"],
        &["vet", "--jobs", "0", "--jobs", "2", "x.apk"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(args)
            .output()
            .expect("cli runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{args:?}"
        );
    }
}

#[test]
fn json_mode_emits_valid_json() {
    let spec = AppSpec::new(
        "com.test.json",
        vec![RequestSpec::new(
            Library::BasicHttpClient,
            Origin::UserClick,
        )],
    );
    let path = temp_path("json.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--json")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"kind\""), "{stdout}");
    assert!(stdout.contains("missed-connectivity-check"), "{stdout}");
    assert!(
        stdout.contains("\"package\": \"com.test.json\""),
        "{stdout}"
    );
}

#[test]
fn cache_dir_persists_entries_and_reports_hits() {
    let spec = AppSpec::new(
        "com.test.cached",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let path = temp_path("cached.apk");
    let cache = temp_path("cache-dir");
    let _ = std::fs::remove_dir_all(&cache);
    nck_appgen::generate(&spec).save(&path).unwrap();

    let run = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .arg("--summary")
            .arg("--cache-dir")
            .arg(&cache)
            .arg(&path)
            .output()
            .expect("cli runs")
    };
    let first = run();
    assert!(first.status.success());
    let files = || {
        let mut names: Vec<String> = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let written = files();
    assert_eq!(written.len(), 1, "one segment: {written:?}");
    assert!(written[0].ends_with(".seg"), "{written:?}");
    assert!(
        String::from_utf8_lossy(&first.stdout).contains("cache: 0 hit(s), 1 miss(es)"),
        "{}",
        String::from_utf8_lossy(&first.stdout)
    );

    // A second process restores the report from disk.
    let second = run();
    assert!(second.status.success());
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(stdout.contains("cache: 1 hit(s), 0 miss(es)"), "{stdout}");
    // The hit wrote no segment; its read went to the touch log.
    assert_eq!(files(), [written[0].clone(), "touch.log".to_owned()]);

    std::fs::remove_file(&path).ok();
    let _ = std::fs::remove_dir_all(&cache);
}

/// One path given twice to one batch: with no memory tier, the repeat
/// is recomputed, or served from the disk index once the first record
/// is in it. Either way stdout is the `--no-cache` bytes.
#[test]
fn a_path_repeated_in_one_batch_prints_the_uncached_bytes() {
    let spec = AppSpec::new(
        "com.test.repeat",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let path = temp_path("repeat.apk");
    let cache = temp_path("repeat-cache");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let cache_dir = cache.to_str().unwrap();
    // Each run starts from an empty cache directory.
    let run = |extra: &[&str]| {
        let _ = std::fs::remove_dir_all(&cache);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .arg("--json")
            .args(extra)
            .arg(&path)
            .arg(&path)
            .output()
            .expect("cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (out.stdout, stderr)
    };
    let (want, _) = run(&["--no-cache"]);
    assert!(!want.is_empty());
    // On one thread the hit counts are exact: the repeat misses without
    // a disk tier, and hits the record the first analysis appended with
    // one. On the default pool the repeat may race that record.
    for (args, line) in [
        (&["--jobs", "1"][..], Some("cache: 0 hit(s), 2 miss(es)")),
        (&[], Some("cache: 0 hit(s), 2 miss(es)")),
        (
            &["--jobs", "1", "--cache-dir", cache_dir],
            Some("cache: 1 hit(s), 1 miss(es)"),
        ),
        (&["--cache-dir", cache_dir], None),
    ] {
        let (stdout, stderr) = run(args);
        assert_eq!(stdout, want, "{args:?}");
        if let Some(line) = line {
            assert!(stderr.contains(line), "{args:?}: {stderr}");
        }
    }

    std::fs::remove_file(&path).ok();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn no_cache_silences_the_cache_summary() {
    let spec = AppSpec::new(
        "com.test.nocache",
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    let path = temp_path("nocache.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--no-cache")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("cache:"), "{stdout}");
}

/// Runs the CLI with `args` on the bundle at `path`: stdout and exit
/// code.
fn run_on(args: &[&str], path: &std::path::Path) -> (Vec<u8>, Option<i32>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(args)
        .arg(path)
        .output()
        .expect("cli runs");
    (out.stdout, out.status.code())
}

/// The `"metrics"` object of a one-app `--json --metrics` report with
/// every service-level (`svc.*`) series dropped: what is left describes
/// the analysis alone.
fn analysis_metrics(stdout: &[u8]) -> serde_json::Value {
    let doc = serde_json::from_str(std::str::from_utf8(stdout).expect("utf-8")).expect("json");
    let mut metrics = doc.get("metrics").expect("metered report").clone();
    if let serde_json::Value::Object(m) = &mut metrics {
        for series in ["counters", "gauges", "histograms"] {
            if let Some(serde_json::Value::Object(s)) = m.get_mut(series) {
                s.retain(|name, _| !name.starts_with("svc."));
            }
        }
    }
    metrics
}

/// The default (cached) path and `--no-cache` run one pipeline, so a
/// cache miss records exactly the cold run's parse, verify, lift,
/// context, summary and checker metrics, and renders the same bytes.
/// Covered: a network app, a pool-clean app (the prescan fast path) and
/// a degraded mutant (the lenient-lift branch).
#[test]
fn cached_and_uncached_runs_record_the_same_analysis_metrics() {
    let network = nck_appgen::generate(&AppSpec::new(
        "com.test.parity",
        vec![RequestSpec::new(Library::Volley, Origin::UserClick)],
    ));
    let clean = nck_appgen::generate(&nck_appgen::profile::no_network_app(0, 8));
    let checker = nck_appgen::mutate::quiet_checker();
    let degraded = (0..)
        .map(|seed| nck_appgen::mutate::mutate(&network, seed).0)
        .find(|bytes| checker.analyze_bytes(bytes).is_ok_and(|r| r.degraded()))
        .expect("some mutant degrades");
    let cases = [
        ("network", network.to_bytes(), Some(0)),
        ("clean", clean.to_bytes(), Some(0)),
        ("degraded", degraded, Some(3)),
    ];
    for (name, bytes, want_code) in cases {
        let path = temp_path(&format!("parity-{name}.apk"));
        std::fs::write(&path, &bytes).unwrap();
        let (cached, code) = run_on(&["--json", "--metrics"], &path);
        let (cold, cold_code) = run_on(&["--json", "--metrics", "--no-cache"], &path);
        let (json, _) = run_on(&["--json"], &path);
        let (json_cold, _) = run_on(&["--json", "--no-cache"], &path);
        std::fs::remove_file(&path).ok();
        assert_eq!(
            (code, cold_code),
            (want_code, want_code),
            "{name}: exit codes"
        );

        let metrics = analysis_metrics(&cached);
        let counters = metrics["counters"].as_object().expect("counters");
        assert!(
            counters.contains_key("verify.errors"),
            "{name}: {counters:?}"
        );
        // The prescan answers the pool-clean app without lifting.
        for lifted in ["lift.stmts", "context.cfgs_built"] {
            assert_eq!(
                counters.contains_key(lifted),
                name != "clean",
                "{name}: {counters:?}"
            );
        }
        assert_eq!(metrics, analysis_metrics(&cold), "{name}: metrics differ");
        assert!(json == json_cold, "{name}: --json bytes differ");
    }
}

fn make_apps(prefix: &str, n: usize) -> Vec<std::path::PathBuf> {
    (0..n)
        .map(|i| {
            let spec = AppSpec::new(
                &format!("com.test.{prefix}{i}"),
                vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
            );
            let path = temp_path(&format!("{prefix}{i}.apk"));
            nck_appgen::generate(&spec).save(&path).unwrap();
            path
        })
        .collect()
}

/// A one-batch process keeps no memory tier: its snapshot shows no
/// resident entry, no resident byte and no eviction, cold or warm.
fn assert_no_memory_tier(doc: &serde_json::Value) {
    let cache = &doc["cache"];
    assert_eq!(cache["mem"]["entries"], 0, "{cache:?}");
    assert_eq!(cache["mem"]["bytes"], 0, "{cache:?}");
    assert_eq!(cache["evict"], 0, "{cache:?}");
}

#[test]
fn doctor_snapshot_is_byte_identical_across_runs_and_jobs() {
    let apps = make_apps("doctor", 4);
    let cache = temp_path("doctor-cache");
    let trace_file = temp_path("doctor-trace.json");
    let _ = std::fs::remove_dir_all(&cache);

    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .arg("--doctor")
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--jobs")
            .arg(jobs)
            .arg("--trace-out")
            .arg(&trace_file)
            .args(&apps)
            .output()
            .expect("cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    // Warm the cache, then compare warm snapshots: the disk tier is
    // unchanged from here on (reads go to the touch log only).
    let cold = run("2");
    let cold: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&cold).unwrap()).expect("doctor emits JSON");
    assert_no_memory_tier(&cold);
    // The cold batch lifted every app and fingerprinted no class.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
    let span_count = |name: &str| {
        let events = trace["traceEvents"].as_array().expect("traceEvents array");
        events
            .iter()
            .filter(|e| e["ph"] == "X" && e["name"] == name)
            .count()
    };
    assert_eq!(span_count("lift"), 4, "{trace:?}");
    assert_eq!(span_count("class_fps"), 0, "{trace:?}");
    let disk = &cold["cache"]["disk"];
    assert_eq!(disk["files_created"], 1, "one segment: {disk:?}");
    assert_eq!(disk["records_appended"], 4, "{disk:?}");
    assert_eq!(disk["segments"], 1, "{disk:?}");
    assert_eq!(disk["dead_bytes"], 0, "{disk:?}");
    let warm1 = run("1");
    let warm8 = run("8");
    let warm1b = run("1");
    assert_eq!(warm1, warm1b, "repeated runs must be byte-identical");
    assert_eq!(warm1, warm8, "--jobs must not change the snapshot");

    let v: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&warm1).unwrap()).expect("doctor emits JSON");
    assert_eq!(v["schema"], 4);
    for gone in ["replay_apps", "replay_classes"] {
        assert!(v["cache"].get(gone).is_none(), "{gone} is gone: {v:?}");
    }
    for tier in ["mem", "disk"] {
        assert!(v["cache"][tier].get("shards").is_none(), "{tier}: {v:?}");
    }
    assert_no_memory_tier(&v);
    assert_eq!(v["cache"]["hit"], 4, "warm run hits all apps");
    assert_eq!(v["cache"]["disk"]["entries"], 4);
    assert_eq!(v["cache"]["disk"]["bytes"], disk["bytes"]);
    assert_eq!(
        v["cache"]["disk"]["files_created"], 0,
        "a warm run writes no record"
    );
    assert_eq!(v["last_run"]["apps"], 4);
    for key in ["build", "config", "funnel"] {
        assert!(v.get(key).is_some(), "missing {key}");
    }

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&trace_file).ok();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn doctor_works_without_bundles() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--doctor")
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("doctor emits JSON");
    assert_eq!(v["last_run"]["apps"], 0);
    assert_eq!(v["cache"]["disk"]["configured"], false);
}

#[test]
fn trace_out_writes_a_chrome_trace() {
    let apps = make_apps("traceout", 3);
    let trace_file = temp_path("trace.json");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--trace-out")
        .arg(&trace_file)
        .args(&apps)
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The stderr span tree stays opt-in (--trace): recording for the
    // exporter must not spam the terminal.
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("--- trace:"),
        "no stderr tree without --trace"
    );

    let text = std::fs::read_to_string(&trace_file).expect("trace file written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("trace is JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let spans: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
    assert!(spans.len() >= 3, "one root span per app at least");
    assert!(
        events.iter().any(|e| e["ph"] == "M"),
        "lane metadata present"
    );
    // Monotonic ts within each lane.
    let mut last_ts: std::collections::BTreeMap<i64, f64> = Default::default();
    for s in &spans {
        let tid = s["tid"].as_i64().unwrap();
        let ts = s["ts"].as_f64().unwrap();
        assert!(
            ts >= last_ts.get(&tid).copied().unwrap_or(f64::MIN),
            "ts not monotonic in lane {tid}"
        );
        last_ts.insert(tid, ts);
    }
    // Every app label appears on some root span.
    for i in 0..3 {
        let pkg = format!("com.test.traceout{i}");
        assert!(
            spans.iter().any(|s| s["args"]["app"] == pkg.as_str()),
            "missing app {pkg}"
        );
    }

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&trace_file).ok();
}

#[test]
fn log_json_writes_typed_records() {
    let apps = make_apps("logjson", 2);
    let log_file = temp_path("log.jsonl");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--quiet")
        .arg("--log-json")
        .arg(&log_file)
        .args(&apps)
        .output()
        .expect("cli runs");
    assert!(out.status.success());

    let text = std::fs::read_to_string(&log_file).expect("log file written");
    let mut types = std::collections::BTreeSet::new();
    let mut app_records = 0;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("every line is JSON");
        let t = v["t"].as_str().expect("every record is typed").to_owned();
        if t == "app" {
            app_records += 1;
            assert!(v["wall_us"].as_i64().unwrap() > 0, "wall time recorded");
            assert!(v["phases"]["app"]["count"].as_i64().unwrap() >= 1);
        }
        if t == "run" {
            assert_eq!(v["apps"], 2);
            assert!(v["wall_us_p50"].as_i64().unwrap() > 0);
            assert!(v["wall_us_p99"].as_i64().unwrap() >= v["wall_us_p50"].as_i64().unwrap());
        }
        types.insert(t);
    }
    assert_eq!(app_records, 2, "one app record per bundle");
    for t in ["app", "cache", "funnel", "run"] {
        assert!(types.contains(t), "missing record type {t} in:\n{text}");
    }

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&log_file).ok();
}

#[test]
fn jobs_flag_accepts_a_worker_count_and_rejects_zero() {
    let spec = AppSpec::new(
        "com.test.jobs",
        vec![RequestSpec::new(Library::Volley, Origin::UserClick)],
    );
    let path = temp_path("jobs.apk");
    nck_appgen::generate(&spec).save(&path).unwrap();

    let ok = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--summary")
        .arg("--jobs")
        .arg("2")
        .arg(&path)
        .output()
        .expect("cli runs");
    assert!(ok.status.success());

    let zero = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--jobs")
        .arg("0")
        .arg(&path)
        .output()
        .expect("cli runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(zero.status.code(), Some(2), "--jobs 0 is a usage error");
}

/// The `--log-json` records of type `t`, in file order.
fn log_records(path: &std::path::Path, t: &str) -> Vec<serde_json::Value> {
    std::fs::read_to_string(path)
        .expect("log file written")
        .lines()
        .map(|line| -> serde_json::Value {
            serde_json::from_str(line).expect("every line is JSON")
        })
        .filter(|v| v["t"] == t)
        .collect()
}

/// An unreadable path is one app that failed, in every count: the
/// `--doctor` snapshot, the JSONL `run` record, an `app` record of its
/// own, and `vet`'s summary line.
#[test]
fn an_unreadable_path_is_one_failed_app_everywhere() {
    let mut paths = make_apps("unreadable", 2);
    let missing = temp_path("unreadable-missing.apk");
    paths.insert(1, missing.clone());
    let log_file = temp_path("unreadable.jsonl");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(["--keep-going", "--quiet", "--doctor", "--log-json"])
        .arg(&log_file)
        .args(&paths)
        .output()
        .expect("cli runs");
    assert_eq!(out.status.code(), Some(1), "a failed app fails the run");
    let doctor: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("doctor emits JSON");
    assert_eq!(doctor["last_run"]["apps"], 3, "{doctor:?}");
    assert_eq!(doctor["last_run"]["failed"], 1, "{doctor:?}");
    let run = &log_records(&log_file, "run")[0];
    assert_eq!(run["apps"], 3, "{run:?}");
    assert_eq!(run["failed"], 1, "{run:?}");
    let apps = log_records(&log_file, "app");
    assert_eq!(apps.len(), 3, "one app record per path: {apps:?}");
    assert_eq!(apps[1]["app"], missing.to_str().unwrap());
    assert!(apps[1]["error"].as_str().is_some(), "{apps:?}");

    let vet = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(["vet", "--summary", "--no-interproc"])
        .args(&paths)
        .output()
        .expect("vet runs");
    assert_eq!(vet.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&vet.stderr);
    assert!(stderr.contains("vet: 3 app(s)"), "{stderr}");
    assert!(stderr.contains("2 completed, 1 failed"), "{stderr}");

    for p in &paths {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&log_file).ok();
}

/// Without `--keep-going`, a batch stops at its first failure: the
/// reports before it print, the failure is logged, the run exits 1, and
/// no app after it is analyzed — an unreadable path as a failed
/// analysis.
#[test]
fn fail_fast_prints_the_prefix_and_analyzes_nothing_after_the_failure() {
    let apps = make_apps("failfast", 2);
    let missing = temp_path("failfast-missing.apk");
    let log_file = temp_path("failfast.jsonl");
    let paths = [&apps[0], &missing, &apps[1]];

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(["--json", "--no-cache", "--jobs", "1", "--log-json"])
        .arg(&log_file)
        .args(paths)
        .output()
        .expect("cli runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = std::str::from_utf8(&out.stdout).unwrap();
    let report: serde_json::Value = serde_json::from_str(stdout).expect("one JSON report");
    assert_eq!(report["stats"]["package"], "com.test.failfast0", "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{}: ", missing.display())),
        "{stderr}"
    );
    let analyzed: Vec<serde_json::Value> = log_records(&log_file, "app")
        .into_iter()
        .map(|v| v["app"].clone())
        .collect();
    assert_eq!(
        analyzed,
        [apps[0].to_str().unwrap(), missing.to_str().unwrap()],
        "the third app is never analyzed"
    );

    for p in &apps {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&log_file).ok();
}
