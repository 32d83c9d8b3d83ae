//! Tests of the `nchecker serve` daemon: wire-protocol round trips,
//! report byte-identity with the one-shot CLI, doctor equivalence
//! modulo the queue section, admission control, protocol error paths,
//! the socket transport, and watch-mode incrementality.

use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_appgen::{evolve, generate_with_bulk, profile};
use nck_netlibs::library::Library;
use nck_obs::{Events, Obs};
use nck_svc::daemon::{self, Reply};
use nck_svc::protocol::{ErrorCode, Line, MAX_REQUEST_LINE};
use nck_svc::{AnalysisService, Daemon, DaemonOptions, ServiceOptions, Watcher};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nck-daemon-{name}-{}", std::process::id()))
}

fn quiet_daemon(options: DaemonOptions) -> Daemon {
    Daemon::new(options, Events::silent())
}

fn default_daemon() -> Daemon {
    quiet_daemon(DaemonOptions::default())
}

/// Parses a one-line reply.
fn parse(reply: &Reply) -> Value {
    assert!(reply.line.ends_with('\n'), "replies are newline-terminated");
    assert_eq!(
        reply.line.matches('\n').count(),
        1,
        "replies are exactly one line: {}",
        reply.line
    );
    serde_json::from_str(&reply.line).expect("replies are JSON")
}

fn request(daemon: &Daemon, line: &str) -> Reply {
    daemon
        .handle_line(&Line::Text(line.to_owned()))
        .expect("text lines always get a reply")
}

fn error_code(v: &Value) -> String {
    assert_eq!(v["ok"], false, "expected an error reply: {v:?}");
    v["error"]["code"].as_str().expect("typed code").to_owned()
}

/// What the one-shot CLI prints to stdout under `--json`: the pretty
/// rendering plus the `println!` newline.
fn one_shot_json(bytes: &[u8]) -> String {
    let svc = AnalysisService::new(ServiceOptions::default(), Obs::disabled());
    let outcome = svc.analyze_one("oneshot", bytes);
    let report = outcome.report.expect("analyzes");
    let mut text = serde_json::to_string_pretty(&nchecker::app_report_to_json(&report))
        .expect("report serializes");
    text.push('\n');
    text
}

fn sample_app(pkg: &str) -> Vec<u8> {
    let spec = AppSpec::new(
        pkg,
        vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
    );
    nck_appgen::generate(&spec).to_bytes()
}

#[test]
fn submit_report_round_trip_is_byte_identical_to_one_shot_json() {
    let bytes = sample_app("com.daemon.roundtrip");
    let path = temp_path("roundtrip.apk");
    std::fs::write(&path, &bytes).unwrap();

    let daemon = default_daemon();
    let v = parse(&request(
        &daemon,
        &format!(
            r#"{{"verb": "submit", "path": {:?}}}"#,
            path.to_str().unwrap()
        ),
    ));
    assert_eq!(v["ok"], true);
    let id = v["id"].as_i64().expect("job id");
    assert_eq!(v["pending"], 1);

    // Not dispatched yet: report is typed not-ready, status is queued.
    let nr = parse(&request(
        &daemon,
        &format!(r#"{{"verb": "report", "id": {id}}}"#),
    ));
    assert_eq!(error_code(&nr), "not-ready");
    let st = parse(&request(
        &daemon,
        &format!(r#"{{"verb": "status", "id": {id}}}"#),
    ));
    assert_eq!(st["state"].as_str().unwrap(), "queued");

    daemon.drain_now();

    let st = parse(&request(
        &daemon,
        &format!(r#"{{"verb": "status", "id": {id}}}"#),
    ));
    assert_eq!(st["state"].as_str().unwrap(), "done");
    let r = parse(&request(
        &daemon,
        &format!(r#"{{"verb": "report", "id": {id}}}"#),
    ));
    assert_eq!(r["ok"], true);
    assert_eq!(r["degraded"], false);
    assert_eq!(
        r["report"].as_str().expect("report payload"),
        one_shot_json(&bytes),
        "daemon report must be byte-identical to one-shot --json output"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn daemon_doctor_matches_cli_doctor_modulo_the_queue_section() {
    let cache = temp_path("doctor-cache");
    let _ = std::fs::remove_dir_all(&cache);

    // Warm the disk tier so the snapshot has something to report on.
    let specs: Vec<AppSpec> = profile::corpus(11).into_iter().take(3).collect();
    let items: Vec<(String, Vec<u8>)> = specs
        .iter()
        .map(|s| (s.package.clone(), generate_with_bulk(s, 1).to_bytes()))
        .collect();
    let warm = AnalysisService::new(
        ServiceOptions {
            cache_dir: Some(cache.clone()),
            ..ServiceOptions::default()
        },
        Obs::disabled(),
    );
    let _ = warm.analyze_batch(&items);
    drop(warm);

    // The one-shot CLI over the same cache dir, no bundles.
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--doctor")
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("cli runs");
    assert!(cli.status.success());
    let cli_doc = String::from_utf8(cli.stdout).expect("doctor is UTF-8");

    // A fresh daemon over the same cache dir.
    let daemon = quiet_daemon(DaemonOptions {
        service: ServiceOptions {
            cache_dir: Some(cache.clone()),
            ..ServiceOptions::default()
        },
        queue_capacity: None,
    });
    let reply = parse(&request(&daemon, r#"{"verb": "doctor"}"#));
    let daemon_doc = reply["doctor"].as_str().expect("doctor payload").to_owned();
    assert_eq!(daemon_doc, daemon.doctor_string());

    // Strip the daemon-only "queue" object; everything else must be
    // byte-identical to the CLI document.
    let mut v = serde_json::from_str(&daemon_doc).expect("daemon doctor is JSON");
    let queue = if let Value::Object(m) = &mut v {
        m.remove("queue")
            .expect("daemon doctor has a queue section")
    } else {
        panic!("doctor document is an object");
    };
    let mut stripped = serde_json::to_string_pretty(&v).unwrap();
    stripped.push('\n');
    assert_eq!(
        stripped, cli_doc,
        "daemon doctor must equal `nchecker --doctor` modulo the queue section"
    );

    // And the queue section carries the admission-control gauges.
    for key in [
        "capacity",
        "depth",
        "inflight",
        "accepting",
        "submitted",
        "rejected",
        "wait_us",
    ] {
        assert!(queue.get(key).is_some(), "queue section missing {key}");
    }

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn malformed_and_unknown_requests_get_typed_errors() {
    let daemon = default_daemon();
    for (line, want) in [
        ("not json at all", "malformed"),
        ("[1, 2, 3]", "malformed"),
        (r#"{"path": "x.apk"}"#, "malformed"),
        (r#"{"verb": "submit"}"#, "malformed"),
        (r#"{"verb": "report"}"#, "malformed"),
        (r#"{"verb": "frobnicate"}"#, "unknown-verb"),
    ] {
        let v = parse(&request(&daemon, line));
        assert_eq!(error_code(&v), want, "line {line:?}");
    }
    // Oversized frames are typed too, and Eof yields no reply.
    let v = parse(&daemon.handle_line(&Line::Oversized).unwrap());
    assert_eq!(error_code(&v), "oversized");
    assert!(daemon.handle_line(&Line::Eof).is_none());
}

#[test]
fn unreadable_and_unknown_ids_get_typed_errors() {
    let daemon = default_daemon();
    let v = parse(&request(
        &daemon,
        r#"{"verb": "submit", "path": "/nonexistent/nope.apk"}"#,
    ));
    assert_eq!(error_code(&v), "read-failed");
    let v = parse(&request(&daemon, r#"{"verb": "report", "id": 42}"#));
    assert_eq!(error_code(&v), "not-found");
    let v = parse(&request(&daemon, r#"{"verb": "status", "id": 42}"#));
    assert_eq!(error_code(&v), "not-found");
}

/// A daemon with its dispatcher running on a background thread.
fn dispatched_daemon() -> (Arc<Daemon>, std::thread::JoinHandle<()>) {
    let daemon = Arc::new(default_daemon());
    let d = Arc::clone(&daemon);
    (daemon, std::thread::spawn(move || d.run_dispatcher()))
}

fn report_line(id: u64, wait: bool) -> String {
    format!(r#"{{"verb": "report", "id": {id}, "wait": {wait}}}"#)
}

#[test]
fn a_waiting_report_returns_the_bytes_a_polled_one_does() {
    let bytes = sample_app("com.daemon.wait");
    let (daemon, dispatcher) = dispatched_daemon();
    let (id, _) = daemon.submit_bytes("k".into(), bytes.clone()).unwrap();
    let waited = request(&daemon, &report_line(id, true)).line;
    let polled = request(&daemon, &report_line(id, false)).line;
    assert_eq!(
        waited, polled,
        "wait changes when the reply comes, not what"
    );
    assert_eq!(
        parse(&request(&daemon, &report_line(id, true)))["report"].as_str(),
        Some(one_shot_json(&bytes).as_str())
    );
    daemon.begin_shutdown();
    dispatcher.join().unwrap();
}

#[test]
fn a_waiting_report_for_an_unknown_or_failed_job_answers_with_its_error() {
    let (daemon, dispatcher) = dispatched_daemon();
    // Unknown id: answered at once, not held.
    let v = parse(&request(&daemon, &report_line(42, true)));
    assert_eq!(error_code(&v), "not-found");
    // A bundle that does not parse fails its analysis.
    let (id, _) = daemon
        .submit_bytes("junk".into(), b"not a bundle".to_vec())
        .unwrap();
    let v = parse(&request(&daemon, &report_line(id, true)));
    assert_eq!(error_code(&v), "analysis-failed");
    daemon.begin_shutdown();
    dispatcher.join().unwrap();
}

#[test]
fn shutdown_with_a_waiter_pending_drains_it_without_hanging() {
    let bytes = sample_app("com.daemon.waitdrain");
    let daemon = Arc::new(default_daemon());
    let (id, _) = daemon.submit_bytes("k".into(), bytes.clone()).unwrap();
    // No dispatcher yet, so the waiter blocks on a queued job.
    let waiter = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || request(&d, &report_line(id, true)).line)
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    let v = parse(&request(&daemon, r#"{"verb": "shutdown"}"#));
    assert_eq!(v["pending"], 1);
    let d = Arc::clone(&daemon);
    let dispatcher = std::thread::spawn(move || d.run_dispatcher());
    daemon.await_drained();
    let v: Value = serde_json::from_str(&waiter.join().unwrap()).unwrap();
    assert_eq!(v["report"].as_str(), Some(one_shot_json(&bytes).as_str()));
    dispatcher.join().unwrap();
}

#[test]
fn admission_control_rejects_on_full_queue_and_after_shutdown() {
    let daemon = quiet_daemon(DaemonOptions {
        service: ServiceOptions::default(),
        queue_capacity: Some(2),
    });
    let bytes = sample_app("com.daemon.full");
    // No dispatcher running: the queue fills.
    assert!(daemon.submit_bytes("a".into(), bytes.clone()).is_ok());
    assert!(daemon.submit_bytes("b".into(), bytes.clone()).is_ok());
    let (code, msg) = daemon.submit_bytes("c".into(), bytes.clone()).unwrap_err();
    assert_eq!(code, ErrorCode::QueueFull);
    assert!(msg.contains("capacity"), "{msg}");

    // The rejection is counted for doctor.
    let snap = daemon.metrics().snapshot();
    assert_eq!(snap.counters.get("svc.queue.rejected"), Some(&1));
    assert_eq!(snap.counters.get("svc.queue.submitted"), Some(&2));

    // Draining frees capacity again.
    daemon.drain_now();
    assert!(daemon.submit_bytes("c".into(), bytes.clone()).is_ok());

    // After shutdown begins, submits are rejected with shutting-down.
    let v = parse(&request(&daemon, r#"{"verb": "shutdown"}"#));
    assert_eq!(v["ok"], true);
    assert_eq!(v["pending"], 1);
    let (code, _) = daemon.submit_bytes("d".into(), bytes).unwrap_err();
    assert_eq!(code, ErrorCode::ShuttingDown);
    // Status still answers while draining.
    let st = parse(&request(&daemon, r#"{"verb": "status"}"#));
    assert_eq!(st["accepting"], false);
}

/// Full socket transport exercise: submit/status/report/doctor over a
/// Unix socket, an oversized request that must stay line-synced, a
/// client that disconnects mid-exchange without wedging the daemon,
/// and a clean shutdown that drains in-flight work.
#[test]
fn socket_transport_serves_and_survives_rude_clients() {
    let bytes = sample_app("com.daemon.socket");
    let app = temp_path("socket.apk");
    std::fs::write(&app, &bytes).unwrap();
    let sock = temp_path("sock");
    let _ = std::fs::remove_file(&sock);

    let daemon = Arc::new(default_daemon());
    let dispatcher = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || d.run_dispatcher())
    };
    let acceptor = {
        let d = Arc::clone(&daemon);
        let path = sock.clone();
        std::thread::spawn(move || daemon::serve_socket(&d, &path))
    };
    // Wait for the listener to bind.
    let mut conn = None;
    for _ in 0..200 {
        match UnixStream::connect(&sock) {
            Ok(c) => {
                conn = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let conn = conn.expect("daemon socket comes up");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut exchange = |line: String| -> Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).expect("reply is JSON")
    };

    // A rude client first: disconnects right after sending a request.
    {
        let mut rude = UnixStream::connect(&sock).unwrap();
        rude.write_all(br#"{"verb": "doctor"}"#).unwrap();
        // Dropped here, mid-response at best.
    }

    // An oversized line: typed error, and the connection stays usable.
    let huge = format!(
        r#"{{"verb": "submit", "path": "{}"}}"#,
        "x".repeat(MAX_REQUEST_LINE)
    );
    let v = exchange(huge);
    assert_eq!(error_code(&v), "oversized");

    let v = exchange(format!(
        r#"{{"verb": "submit", "path": {:?}}}"#,
        app.to_str().unwrap()
    ));
    assert_eq!(v["ok"], true, "{v:?}");
    let id = v["id"].as_i64().unwrap();

    // Poll until the dispatcher finishes the job.
    let mut state = String::new();
    for _ in 0..500 {
        let v = exchange(format!(r#"{{"verb": "status", "id": {id}}}"#));
        state = v["state"].as_str().unwrap().to_owned();
        if state == "done" || state == "failed" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(state, "done");

    let v = exchange(format!(r#"{{"verb": "report", "id": {id}}}"#));
    assert_eq!(
        v["report"].as_str().unwrap(),
        one_shot_json(&bytes),
        "socket-served report must match one-shot --json bytes"
    );

    let v = exchange(r#"{"verb": "doctor"}"#.to_owned());
    let doc = serde_json::from_str(v["doctor"].as_str().unwrap()).expect("doctor payload is JSON");
    assert_eq!(doc["queue"]["completed"], 1);

    let v = exchange(r#"{"verb": "shutdown"}"#.to_owned());
    assert_eq!(v["ok"], true);

    daemon.await_drained();
    dispatcher.join().unwrap();
    acceptor.join().unwrap().expect("socket loop exits cleanly");
    assert!(!sock.exists(), "socket file is removed on exit");
    std::fs::remove_file(&app).ok();
}

/// Watch mode's contract with the incremental ladder: editing a small
/// fraction of an app and re-submitting it under the same key (the
/// file path) must land on rung 2 — class-prefix replay — visible in
/// the store's lifetime `svc.cache.replay_*` counters.
#[test]
fn watch_resubmission_hits_the_replay_rung() {
    let dir = temp_path("watchdir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let spec = profile::corpus(23).into_iter().next().expect("corpus app");
    let bundle = dir.join("app.apk");
    std::fs::write(&bundle, generate_with_bulk(&spec, 8).to_bytes()).unwrap();

    let daemon = default_daemon();
    let mut watcher = Watcher::new(&dir);
    let submit_changed = |watcher: &mut Watcher| {
        let changed = watcher.poll().unwrap().changed;
        let n = changed.len();
        for (key, bytes) in changed {
            daemon.submit_bytes(key, bytes).unwrap();
        }
        daemon.drain_now();
        n
    };

    assert_eq!(submit_changed(&mut watcher), 1, "backlog analyzed");
    assert_eq!(submit_changed(&mut watcher), 0, "steady state");

    // A 1-class-scale edit: same key, mostly-unchanged class list.
    let evolved = evolve(&spec, 0.10, 5);
    std::fs::write(&bundle, generate_with_bulk(&evolved.spec, 8).to_bytes()).unwrap();
    assert_eq!(submit_changed(&mut watcher), 1, "edit detected");

    let snap = daemon.service().store().metrics().snapshot();
    let replay_apps = snap
        .counters
        .get("svc.cache.replay_apps")
        .copied()
        .unwrap_or(0);
    let replay_classes = snap
        .counters
        .get("svc.cache.replay_classes")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        replay_apps, 1,
        "the edit must replay, not run cold: {snap:?}"
    );
    assert!(
        replay_classes >= 8,
        "the unchanged ballast prefix must be replayed, got {replay_classes}"
    );
    // And the first run was a plain miss, not a replay.
    assert_eq!(snap.counters.get("svc.cache.miss").copied(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end over the actual binary in `--stdio` mode: submit, poll,
/// fetch the report, compare against the same binary's one-shot
/// `--json` stdout, then shut down cleanly.
#[test]
fn stdio_binary_round_trip_matches_one_shot_json() {
    let bytes = sample_app("com.daemon.stdio");
    let app = temp_path("stdio.apk");
    std::fs::write(&app, &bytes).unwrap();

    let one_shot = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("--json")
        .arg("--no-cache")
        .arg(&app)
        .output()
        .expect("one-shot runs");
    assert!(one_shot.status.success());

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .arg("serve")
        .arg("--stdio")
        .arg("--quiet")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut exchange = |line: String| -> Value {
        stdin.write_all(line.as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.flush().unwrap();
        let mut reply = String::new();
        stdout.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).expect("reply is JSON")
    };

    let v = exchange(format!(
        r#"{{"verb": "submit", "path": {:?}}}"#,
        app.to_str().unwrap()
    ));
    assert_eq!(v["ok"], true, "{v:?}");
    let id = v["id"].as_i64().unwrap();

    let mut state = String::new();
    for _ in 0..500 {
        let v = exchange(format!(r#"{{"verb": "status", "id": {id}}}"#));
        state = v["state"].as_str().unwrap().to_owned();
        if state == "done" || state == "failed" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(state, "done");

    let v = exchange(format!(r#"{{"verb": "report", "id": {id}}}"#));
    assert_eq!(
        v["report"].as_str().unwrap().as_bytes(),
        &one_shot.stdout[..],
        "stdio-served report must match the binary's one-shot --json stdout"
    );

    let v = exchange(r#"{"verb": "shutdown"}"#.to_owned());
    assert_eq!(v["ok"], true);
    drop(stdin);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown exits 0");
    std::fs::remove_file(&app).ok();
}

/// `serve` keeps the memory tier and the replay rung that one-batch
/// front ends drop: over the real binary, an identical resubmission is a
/// whole-report hit from memory, and an edited one replays its class
/// prefix.
#[test]
fn serve_keeps_its_memory_tier_and_replay() {
    let spec = profile::corpus(23).into_iter().next().expect("corpus app");
    let app = temp_path("serve-mem.apk");
    std::fs::write(&app, generate_with_bulk(&spec, 8).to_bytes()).unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(["serve", "--stdio", "--quiet"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut exchange = |line: String| -> Value {
        stdin.write_all(line.as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.flush().unwrap();
        let mut reply = String::new();
        stdout.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).expect("reply is JSON")
    };
    let mut analyze = || {
        let v = exchange(format!(
            r#"{{"verb": "submit", "path": {:?}}}"#,
            app.to_str().unwrap()
        ));
        assert_eq!(v["ok"], true, "{v:?}");
        let id = v["id"].as_i64().unwrap() as u64;
        let v = exchange(report_line(id, true));
        assert_eq!(v["ok"], true, "{v:?}");
        let doctor = exchange(r#"{"verb": "doctor"}"#.to_owned());
        let snap: Value = serde_json::from_str(doctor["doctor"].as_str().unwrap()).unwrap();
        snap["cache"].clone()
    };

    let cold = analyze();
    assert_eq!(cold["hit"], 0, "{cold:?}");
    assert_eq!(cold["miss"], 1, "{cold:?}");
    assert_eq!(cold["mem"]["entries"], 1, "{cold:?}");
    let hit = analyze();
    assert_eq!(
        hit["hit"], 1,
        "identical bytes are a whole-report hit: {hit:?}"
    );
    assert_eq!(
        hit["disk"]["configured"], false,
        "so the hit came from memory"
    );
    std::fs::write(
        &app,
        generate_with_bulk(&evolve(&spec, 0.10, 5).spec, 8).to_bytes(),
    )
    .unwrap();
    let edited = analyze();
    assert_eq!(edited["miss"], 2, "{edited:?}");
    assert_eq!(edited["replay_apps"], 1, "{edited:?}");
    assert!(
        edited["replay_classes"].as_i64().unwrap() > 0,
        "the edit must reuse classes: {edited:?}"
    );

    let v = exchange(r#"{"verb": "shutdown"}"#.to_owned());
    assert_eq!(v["ok"], true);
    drop(stdin);
    assert!(child.wait().expect("daemon exits").success());
    std::fs::remove_file(&app).ok();
}

/// Retiring a key (the watch loop's response to a deleted bundle)
/// drops its finished jobs, surfaces in the queue counters, and makes
/// a later `report` a clean not-found.
#[test]
fn retiring_a_key_drops_its_jobs_and_counts() {
    let daemon = default_daemon();
    let spec = profile::corpus(23).into_iter().next().expect("corpus app");
    let bytes = generate_with_bulk(&spec, 4).to_bytes();
    let (id, _) = daemon
        .submit_bytes("watched.apk".to_owned(), bytes.clone())
        .unwrap();
    daemon.drain_now();
    let v = parse(&request(
        &daemon,
        &format!(r#"{{"verb": "report", "id": {id}}}"#),
    ));
    assert_eq!(v["ok"], true);

    // Resubmitting the same key after churn attaches a delta to the
    // report reply; the first report carried null.
    assert_eq!(v["delta"], Value::Null, "first submission: no delta");
    let evolved = evolve(&spec, 0.10, 5);
    let (id2, _) = daemon
        .submit_bytes(
            "watched.apk".to_owned(),
            generate_with_bulk(&evolved.spec, 4).to_bytes(),
        )
        .unwrap();
    daemon.drain_now();
    let v = parse(&request(
        &daemon,
        &format!(r#"{{"verb": "report", "id": {id2}}}"#),
    ));
    assert_eq!(v["ok"], true);
    assert_eq!(v["delta"]["t"], "delta", "churned resubmit carries a delta");

    assert_eq!(daemon.retire_key("watched.apk"), 2, "both jobs dropped");
    for id in [id, id2] {
        let v = parse(&request(
            &daemon,
            &format!(r#"{{"verb": "report", "id": {id}}}"#),
        ));
        assert_eq!(error_code(&v), "not-found");
    }
    let st = parse(&request(&daemon, r#"{"verb": "status"}"#));
    assert_eq!(st["retired"].as_i64(), Some(1), "{st:?}");
    assert_eq!(
        daemon
            .metrics()
            .snapshot()
            .counters
            .get("svc.watch.retired")
            .copied(),
        Some(1)
    );

    // Retiring an unknown key is a no-op, not an error.
    assert_eq!(daemon.retire_key("never-seen.apk"), 0);
}
