//! Tests of the `nchecker serve` daemon: wire-protocol round trips,
//! report byte-identity with the one-shot CLI, doctor equivalence
//! modulo the queue section, admission control, protocol error paths
//! and a seeded protocol fuzz, the socket transport, and the edit loop
//! (resubmissions under a known key, in watch mode and over the real
//! binary).

use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_appgen::{evolve, generate_with_bulk, profile};
use nck_netlibs::library::Library;
use nck_obs::{Events, Obs};
use nck_svc::daemon::{self, Reply};
use nck_svc::protocol::{self, ErrorCode, Line, Request, MAX_REQUEST_LINE};
use nck_svc::{AnalysisService, Daemon, DaemonOptions, ServiceOptions, Watcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Write};
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

/// A job is done, and its waiting `report` answered, as soon as its own
/// analysis ends: with one worker and 100 jobs queued before the
/// dispatcher starts, the first report comes back while most of the
/// queue is still ahead of the worker.
#[test]
fn each_job_completes_as_soon_as_its_own_analysis_ends() {
    let daemon = Arc::new(quiet_daemon(DaemonOptions {
        service: ServiceOptions {
            jobs: Some(1),
            ..ServiceOptions::default()
        },
        queue_capacity: Some(128),
    }));
    let stream = nck_appgen::CorpusStream::new(7, 100);
    let mut ids = Vec::new();
    for i in 0..100 {
        let bytes = nck_appgen::generate(&stream.spec_at(i)).to_bytes();
        ids.push(daemon.submit_bytes(format!("app{i}"), bytes).unwrap().0);
    }
    let d = Arc::clone(&daemon);
    let dispatcher = std::thread::spawn(move || d.run_dispatcher());
    let first = parse(&request(&daemon, &report_line(ids[0], true)));
    assert_eq!(first["ok"], true, "{first:?}");
    let status = parse(&request(&daemon, r#"{"verb": "status"}"#));
    let completed = status["completed"].as_i64().expect("completed count");
    assert!(
        completed < 100,
        "job 1 was reported only after all 100 finished: {status:?}"
    );
    // The rest drain in order, each reported once it is done.
    for &id in &ids[1..] {
        let v = parse(&request(&daemon, &report_line(id, true)));
        assert_eq!(v["ok"], true, "{v:?}");
    }
    daemon.begin_shutdown();
    dispatcher.join().unwrap();
    let status = parse(&request(&daemon, r#"{"verb": "status"}"#));
    assert_eq!(status["completed"], 100);
    assert_eq!(status["inflight"], 0);
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

/// Defect ids (`kind@class.method`, as `nck_svc::defect_id` forms
/// them) of a `--json` report, as a multiset.
fn defect_ids(report_json: &str) -> BTreeMap<String, usize> {
    let v: Value = serde_json::from_str(report_json).expect("report is JSON");
    let mut ids = BTreeMap::new();
    for d in v["defects"].as_array().expect("defects array") {
        let id = format!(
            "{}@{}.{}",
            d["kind"].as_str().unwrap(),
            d["location"]["class"].as_str().unwrap(),
            d["location"]["method"].as_str().unwrap()
        );
        *ids.entry(id).or_insert(0) += 1;
    }
    ids
}

/// Asserts that `delta` (the wire form) is the multiset difference of
/// two consecutive reports' defect ids, between bundles `prev` and
/// `new`.
fn assert_delta(delta: &Value, prev: (&[u8], &str), new: (&[u8], &str)) {
    let (before, after) = (defect_ids(prev.1), defect_ids(new.1));
    let mut added = Vec::new();
    let mut fixed = Vec::new();
    let mut unchanged = 0;
    for (id, &n) in &after {
        let p = before.get(id).copied().unwrap_or(0);
        unchanged += p.min(n);
        added.extend(std::iter::repeat_n(id.clone(), n.saturating_sub(p)));
    }
    for (id, &p) in &before {
        let n = after.get(id).copied().unwrap_or(0);
        fixed.extend(std::iter::repeat_n(id.clone(), p.saturating_sub(n)));
    }
    let fp = |bytes: &[u8]| format!("{:016x}", nck_dex::wire::fnv1a(bytes));
    assert_eq!(delta["prev_fp"], fp(prev.0), "{delta:?}");
    assert_eq!(delta["new_fp"], fp(new.0), "{delta:?}");
    assert_eq!(delta["added"], serde_json::json!(added), "{delta:?}");
    assert_eq!(delta["fixed"], serde_json::json!(fixed), "{delta:?}");
    assert_eq!(delta["unchanged"], unchanged, "{delta:?}");
}

/// Watch mode's edit loop: editing an app and re-submitting it under
/// the same key (the file path) analyzes the new bytes afresh, serves
/// one-shot `--json` bytes, and carries the defect delta against the
/// previous version.
#[test]
fn watch_resubmission_is_analyzed_afresh_with_a_delta() {
    let dir = temp_path("watchdir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let spec = profile::corpus(23).into_iter().next().expect("corpus app");
    let bundle = dir.join("app.apk");
    let v1 = generate_with_bulk(&spec, 8).to_bytes();
    std::fs::write(&bundle, &v1).unwrap();

    let daemon = default_daemon();
    let mut watcher = Watcher::new(&dir);
    let submit_changed = |watcher: &mut Watcher| {
        let changed = watcher.poll().unwrap().changed;
        let ids: Vec<u64> = changed
            .into_iter()
            .map(|(key, bytes)| daemon.submit_bytes(key, bytes).unwrap().0)
            .collect();
        daemon.drain_now();
        ids
    };

    let first = submit_changed(&mut watcher);
    assert_eq!(first.len(), 1, "backlog analyzed");
    assert!(submit_changed(&mut watcher).is_empty(), "steady state");
    let first = parse(&request(&daemon, &report_line(first[0], false)));
    assert_eq!(first["delta"], Value::Null, "a new key has no delta");

    let evolved = evolve(&spec, 0.10, 5);
    let v2 = generate_with_bulk(&evolved.spec, 8).to_bytes();
    assert_ne!(v1, v2);
    std::fs::write(&bundle, &v2).unwrap();
    let edit = submit_changed(&mut watcher);
    assert_eq!(edit.len(), 1, "edit detected");
    let edited = parse(&request(&daemon, &report_line(edit[0], false)));
    let (json1, json2) = (one_shot_json(&v1), one_shot_json(&v2));
    assert_eq!(first["report"].as_str(), Some(json1.as_str()));
    assert_eq!(edited["report"].as_str(), Some(json2.as_str()));
    assert_delta(&edited["delta"], (&v1, &json1), (&v2, &json2));

    let snap = daemon.service().store().metrics().snapshot();
    assert_eq!(snap.counters.get("svc.cache.miss").copied(), Some(2));
    assert_eq!(snap.counters.get("svc.cache.deltas").copied(), Some(1));
    assert_eq!(snap.counters.get("svc.cache.replay_apps"), None);

    let _ = std::fs::remove_dir_all(&dir);
}

/// One `nchecker serve --stdio --quiet` child and its pipes.
struct StdioServe {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl StdioServe {
    fn spawn() -> StdioServe {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(["serve", "--stdio", "--quiet"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("daemon starts");
        StdioServe {
            stdin: child.stdin.take().unwrap(),
            stdout: BufReader::new(child.stdout.take().unwrap()),
            child,
        }
    }

    /// Writes `bytes` plus a newline and reads `replies` reply lines,
    /// each parsed as JSON.
    fn send(&mut self, bytes: &[u8], replies: usize) -> Vec<Value> {
        self.stdin.write_all(bytes).unwrap();
        self.stdin.write_all(b"\n").unwrap();
        self.stdin.flush().unwrap();
        (0..replies)
            .map(|_| {
                let mut reply = String::new();
                self.stdout.read_line(&mut reply).unwrap();
                serde_json::from_str(&reply).expect("reply is JSON")
            })
            .collect()
    }

    fn exchange(&mut self, line: &str) -> Value {
        self.send(line.as_bytes(), 1).pop().unwrap()
    }

    /// Submits `path` and fetches its report with `"wait": true`.
    fn analyze(&mut self, path: &std::path::Path) -> Value {
        let v = self.exchange(&format!(
            r#"{{"verb": "submit", "path": {:?}}}"#,
            path.to_str().unwrap()
        ));
        assert_eq!(v["ok"], true, "{v:?}");
        let v = self.exchange(&report_line(v["id"].as_i64().unwrap() as u64, true));
        assert_eq!(v["ok"], true, "{v:?}");
        v
    }

    /// The `cache` section of the daemon's doctor document.
    fn cache_doctor(&mut self) -> Value {
        let doctor = self.exchange(r#"{"verb": "doctor"}"#);
        let snap: Value = serde_json::from_str(doctor["doctor"].as_str().unwrap()).unwrap();
        snap["cache"].clone()
    }

    /// `shutdown`, then requires a clean exit 0.
    fn shutdown(mut self) {
        let v = self.exchange(r#"{"verb": "shutdown"}"#);
        assert_eq!(v["ok"], true, "{v:?}");
        drop(self.stdin);
        assert!(
            self.child.wait().expect("daemon exits").success(),
            "clean shutdown exits 0"
        );
    }
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

/// `serve`'s edit loop over the real binary: four versions of one
/// corpus app under one key. Every miss runs the uncached pipeline, so
/// each report is byte-identical to one-shot `--json --no-cache` of its
/// version, and each delta is the defect-id multiset difference of
/// consecutive reports. An identical resubmission is a whole-report hit
/// from the memory tier.
#[test]
fn serve_edit_loop_matches_one_shot_reports_and_deltas() {
    let mut spec = profile::corpus(23).into_iter().next().expect("corpus app");
    let app = temp_path("serve-edit.apk");
    let mut serve = StdioServe::spawn();
    let mut prev: Option<(Vec<u8>, String)> = None;
    for version in 0..4u64 {
        if version > 0 {
            spec = evolve(&spec, 0.3, version).spec;
        }
        let bytes = generate_with_bulk(&spec, 8).to_bytes();
        std::fs::write(&app, &bytes).unwrap();
        let one_shot = std::process::Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(["--json", "--no-cache"])
            .arg(&app)
            .output()
            .expect("one-shot runs");
        assert!(one_shot.status.success());
        let one_shot = String::from_utf8(one_shot.stdout).unwrap();

        let reply = serve.analyze(&app);
        assert_eq!(
            reply["report"].as_str(),
            Some(one_shot.as_str()),
            "version {version}"
        );
        match &prev {
            None => assert_eq!(reply["delta"], Value::Null),
            Some((old, old_json)) => {
                assert_ne!(old, &bytes, "version {version} is an edit");
                assert_delta(&reply["delta"], (old, old_json), (&bytes, &one_shot));
            }
        }
        prev = Some((bytes, one_shot));
    }

    let again = serve.analyze(&app);
    let (_, last_json) = prev.unwrap();
    assert_eq!(again["report"].as_str(), Some(last_json.as_str()));
    assert_eq!(again["delta"], Value::Null, "identical bytes: no delta");
    let cache = serve.cache_doctor();
    assert_eq!(cache["hit"], 1, "the resubmission is a hit: {cache:?}");
    assert_eq!(cache["miss"], 4, "{cache:?}");
    assert_eq!(cache["deltas"], 3, "{cache:?}");
    assert_eq!(cache["mem"]["entries"], 1, "{cache:?}");
    assert_eq!(
        cache["disk"]["configured"], false,
        "so the hit came from memory"
    );
    assert!(cache.get("replay_apps").is_none(), "{cache:?}");
    serve.shutdown();
    std::fs::remove_file(&app).ok();
}

/// Every `error.code` tag a reply may carry.
const ERROR_TAGS: [ErrorCode; 9] = [
    ErrorCode::Malformed,
    ErrorCode::UnknownVerb,
    ErrorCode::Oversized,
    ErrorCode::QueueFull,
    ErrorCode::ShuttingDown,
    ErrorCode::NotFound,
    ErrorCode::NotReady,
    ErrorCode::AnalysisFailed,
    ErrorCode::ReadFailed,
];

/// A reply must be one JSON line: `ok: true`, or `ok: false` with a
/// typed `error.code`. Returns `"ok"` or the code.
fn assert_typed(reply: &Value, what: &str) -> &'static str {
    if reply["ok"] == true {
        return "ok";
    }
    assert_eq!(reply["ok"], false, "{what}: {reply:?}");
    let code = reply["error"]["code"].as_str();
    match ERROR_TAGS.iter().find(|c| Some(c.tag()) == code) {
        Some(c) => c.tag(),
        None => panic!("{what}: untyped error {reply:?}"),
    }
}

/// `n` nested arrays: one short line that recursed once per `[` in an
/// unbounded parser.
fn deep_line(n: usize) -> Vec<u8> {
    "[".repeat(n).into_bytes()
}

/// One seeded mutation of a request line.
fn mutate_line(line: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = line.to_vec();
    let pos = |rng: &mut StdRng, len: usize| rng.gen_range(0..len.max(1));
    match rng.gen_range(0..7u32) {
        // Byte flip.
        0 if !out.is_empty() => {
            let i = pos(rng, out.len());
            out[i] ^= 1 << rng.gen_range(0..8u32);
        }
        // Truncation.
        1 => out.truncate(pos(rng, out.len())),
        // A duplicated run of bytes.
        2 if !out.is_empty() => {
            let start = pos(rng, out.len());
            let end = rng.gen_range(start..out.len().min(start + 16) + 1);
            let run = out[start..end].to_vec();
            let at = pos(rng, out.len());
            out.splice(at..at, run);
        }
        // Nesting wraps, now and then deep enough to have overflowed
        // the parser's stack.
        3 => {
            let depth = match rng.gen_range(0..20u32) {
                0 => 100_000,
                1 => 129,
                _ => rng.gen_range(1..130usize),
            };
            let (open, close): (&[u8], &[u8]) = if rng.gen_range(0..2u32) == 0 {
                (b"[", b"]")
            } else {
                (b"{\"x\":", b"}")
            };
            let mut wrapped = open.repeat(depth);
            wrapped.extend_from_slice(&out);
            wrapped.extend_from_slice(&close.repeat(depth));
            out = wrapped;
        }
        // Huge and odd integers for the id.
        4 => {
            const NUMBERS: [&str; 8] = [
                "18446744073709551616",
                "99999999999999999999999999",
                "9223372036854775807",
                "-9223372036854775808",
                "-1",
                "1e999",
                "0.5",
                "-0",
            ];
            let n = NUMBERS[pos(rng, NUMBERS.len())];
            out = override_field(&out, "id", n);
        }
        // A wrong-typed field: later keys win, so it overrides.
        5 => {
            const WRONG: [(&str, &str); 8] = [
                ("id", r#""1""#),
                ("id", "true"),
                ("wait", "1"),
                ("wait", r#""yes""#),
                ("path", "7"),
                ("path", "[]"),
                ("verb", "null"),
                ("key", "{}"),
            ];
            let (field, value) = WRONG[pos(rng, WRONG.len())];
            out = override_field(&out, field, value);
        }
        // Non-UTF-8 bytes.
        _ => {
            for _ in 0..rng.gen_range(1..4u32) {
                let at = pos(rng, out.len());
                out.insert(at, rng.gen_range(0x80..0x100u32) as u8);
            }
        }
    }
    out
}

/// `line` with `"field": value` spliced in before its last `}`.
fn override_field(line: &[u8], field: &str, value: &str) -> Vec<u8> {
    let Some(end) = line.iter().rposition(|&b| b == b'}') else {
        return line.to_vec();
    };
    let mut out = line[..end].to_vec();
    out.extend_from_slice(format!(r#", "{field}": {value}"#).as_bytes());
    out.extend_from_slice(&line[end..]);
    out
}

/// Whether any line of `mutant` parses to `shutdown`.
fn asks_shutdown(mutant: &[u8]) -> bool {
    mutant.split(|&b| b == b'\n').any(|line| {
        protocol::parse_request(&String::from_utf8_lossy(line)) == Ok(Request::Shutdown)
    })
}

/// Seeded protocol fuzz: mutants of valid `submit`, `status`, `report`
/// (with and without `wait`) and `doctor` lines, framed as the
/// transports frame them, through [`Daemon::handle_line`]. Every reply
/// is JSON with `ok: true` or a typed `error.code`, and nothing panics.
/// A sample, the deepest line included, then goes through the real
/// `serve --stdio`, which must still shut down cleanly.
#[test]
fn protocol_fuzz_gets_typed_replies_and_never_panics() {
    let app = temp_path("fuzz.apk");
    std::fs::write(&app, sample_app("com.daemon.fuzz")).unwrap();
    let path = format!("{:?}", app.to_str().unwrap());
    let seeds = [
        format!(r#"{{"verb": "submit", "path": {path}}}"#),
        format!(r#"{{"verb": "submit", "path": {path}, "key": "fuzz"}}"#),
        r#"{"verb": "status"}"#.to_owned(),
        r#"{"verb": "status", "id": 1}"#.to_owned(),
        r#"{"verb": "report", "id": 1}"#.to_owned(),
        report_line(1, true),
        report_line(2, false),
        r#"{"verb": "doctor"}"#.to_owned(),
    ];
    let (daemon, dispatcher) = dispatched_daemon();
    let mut rng = StdRng::seed_from_u64(0x6e63_6b66);
    let mut sample = Vec::new();
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut mutants = 0;
    while mutants < 2_000 {
        let mut mutant = seeds[rng.gen_range(0..seeds.len())].clone().into_bytes();
        for _ in 0..rng.gen_range(1..4u32) {
            mutant = mutate_line(&mutant, &mut rng);
        }
        if asks_shutdown(&mutant) {
            continue;
        }
        mutant.push(b'\n');
        let mut reader = Cursor::new(&mutant);
        loop {
            let line = protocol::read_request_line(&mut reader).unwrap();
            let Some(reply) = daemon.handle_line(&line) else {
                break;
            };
            let outcome = assert_typed(&parse(&reply), &String::from_utf8_lossy(&mutant));
            *outcomes.entry(outcome).or_insert(0) += 1;
        }
        mutant.pop();
        if mutants % 40 == 0 {
            sample.push(mutant);
        }
        mutants += 1;
    }
    // The mutants reach both sides of the parser.
    for outcome in ["ok", "malformed", "read-failed"] {
        assert!(outcomes.contains_key(outcome), "{outcomes:?}");
    }
    // The daemon still answers, then drains.
    let v = parse(&request(&daemon, r#"{"verb": "status"}"#));
    assert_eq!(v["ok"], true, "{v:?}");
    daemon.begin_shutdown();
    dispatcher.join().unwrap();

    sample.push(deep_line(100_000));
    let mut serve = StdioServe::spawn();
    for mutant in &sample {
        let lines = mutant.iter().filter(|&&b| b == b'\n').count() + 1;
        for reply in serve.send(mutant, lines) {
            assert_typed(&reply, &String::from_utf8_lossy(mutant));
        }
    }
    let v = serve.exchange(r#"{"verb": "status"}"#);
    assert_eq!(v["ok"], true, "{v:?}");
    serve.shutdown();
    std::fs::remove_file(&app).ok();
}

/// One 100,000-deep line (100 KB, under [`MAX_REQUEST_LINE`]) is a
/// `malformed` request, not a stack overflow, and the next request is
/// answered.
#[test]
fn a_deeply_nested_line_is_malformed_and_the_daemon_answers_the_next() {
    let daemon = default_daemon();
    let deep = deep_line(100_000);
    assert!(deep.len() < MAX_REQUEST_LINE);
    let line = protocol::read_request_line(&mut Cursor::new(deep)).unwrap();
    let v = parse(&daemon.handle_line(&line).unwrap());
    assert_eq!(error_code(&v), "malformed");
    let v = parse(&request(&daemon, r#"{"verb": "status"}"#));
    assert_eq!(v["ok"], true, "{v:?}");
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
