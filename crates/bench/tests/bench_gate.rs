//! End-to-end tests of the `bench_gate` binary: it must stay green on
//! the committed `BENCH_pipeline.json` / `BENCH_baseline.json` pair and
//! go red on a doctored document with an out-of-tolerance throughput
//! drop.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nck-gate-{name}-{}", std::process::id()))
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the bench documents live at
    // the workspace root two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bench_gate runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn committed_pipeline() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCH_pipeline.json"))
        .expect("committed BENCH_pipeline.json");
    serde_json::from_str(&text).expect("bench doc parses")
}

#[test]
fn committed_documents_pass_the_gate() {
    let out = gate(&[]);
    assert!(
        out.status.success(),
        "gate failed on committed documents:\n{}\n{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("bench gate OK"));
}

#[test]
fn doctored_throughput_drop_fails_the_gate() {
    let mut doc = committed_pipeline();

    // Halve the hotpath throughput — far beyond the 30% tolerance.
    let measured = doc["hotpath"]["apps_per_sec"]
        .as_f64()
        .expect("hotpath.apps_per_sec recorded");
    let Value::Object(map) = &mut doc else {
        panic!("bench doc is an object");
    };
    let Some(Value::Object(hotpath)) = map.get_mut("hotpath") else {
        panic!("hotpath section is an object");
    };
    hotpath.insert("apps_per_sec".to_owned(), json!(measured * 0.5));

    let doctored = temp_path("doctored.json");
    std::fs::write(&doctored, serde_json::to_string_pretty(&doc).unwrap()).unwrap();

    let out = gate(&["--current", doctored.to_str().unwrap()]);
    std::fs::remove_file(&doctored).ok();
    assert!(!out.status.success(), "gate passed a 50% throughput drop");
    assert_eq!(out.status.code(), Some(1), "tolerance failure exits 1");
    let text = stdout(&out);
    assert!(
        text.contains("hotpath.apps_per_sec") && text.contains("FAIL"),
        "report names the broken metric:\n{text}"
    );
}

#[test]
fn smoke_mode_tolerates_missing_sections_but_not_bad_values() {
    // A document with only the hotpath section: strict mode fails on
    // the absent pipeline and store_scale metrics, --smoke skips them.
    let doc = committed_pipeline();
    let partial = json!({ "schema": 1, "hotpath": doc["hotpath"] });
    let partial_path = temp_path("partial.json");
    std::fs::write(
        &partial_path,
        serde_json::to_string_pretty(&partial).unwrap(),
    )
    .unwrap();

    let strict = gate(&["--current", partial_path.to_str().unwrap()]);
    let smoke = gate(&["--current", partial_path.to_str().unwrap(), "--smoke"]);
    std::fs::remove_file(&partial_path).ok();
    assert!(!strict.status.success(), "strict mode must flag the gap");
    assert!(
        smoke.status.success(),
        "--smoke tolerates unmeasured sections:\n{}\n{}",
        stdout(&smoke),
        String::from_utf8_lossy(&smoke.stderr)
    );
}

#[test]
fn unreadable_inputs_exit_with_a_usage_error() {
    let out = gate(&["--current", "/nonexistent/bench.json"]);
    assert_eq!(out.status.code(), Some(2));
}
