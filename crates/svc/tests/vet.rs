//! `nchecker vet` end to end: its stdout and `--delta-out` are the
//! one-shot bytes on cold, warm, damaged-entry and churned runs, and no
//! input, however damaged, takes the process down.

use nck_appgen::{mutate, profile, CorpusStream};
use nck_obs::{Events, Obs};
use nck_svc::{AnalysisService, ServiceOptions};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nck-vet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("corpus")).unwrap();
    dir
}

/// Writes one bundle into the corpus under `dir`, returning its path.
fn write_bundle(dir: &Path, name: &str, bytes: &[u8]) -> String {
    let path = dir.join("corpus").join(name);
    std::fs::write(&path, bytes).unwrap();
    path.to_string_lossy().into_owned()
}

/// Runs the one-shot CLI (`args` first) or `vet` (`args` starting with
/// `"vet"`) to completion.
fn nchecker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(args)
        .output()
        .expect("nchecker runs")
}

/// The one-shot `--json` bytes of one bundle from a cache-less analysis
/// in this process, or the error that analysis ends in.
fn one_shot(path: &str) -> Result<String, String> {
    let svc = AnalysisService::new(
        ServiceOptions {
            no_cache: true,
            ..ServiceOptions::default()
        },
        Obs {
            events: Events::silent(),
            ..Obs::disabled()
        },
    );
    let bytes = std::fs::read(path).unwrap();
    match svc.analyze_one(path, &bytes).report {
        Ok(report) => {
            let mut text = serde_json::to_string_pretty(&nchecker::app_report_to_json(&report))
                .expect("report serializes");
            text.push('\n');
            Ok(text)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn reference(paths: &[String]) -> String {
    paths
        .iter()
        .map(|p| one_shot(p).expect("analyzes"))
        .collect()
}

/// Splits concatenated pretty `--json` reports: each ends with a `}`
/// line at column 0, which nested objects never have.
fn split_reports(stdout: &str) -> Vec<&str> {
    let mut reports = Vec::new();
    let mut start = 0;
    for (at, _) in stdout.match_indices("\n}\n") {
        reports.push(&stdout[start..at + 3]);
        start = at + 3;
    }
    assert_eq!(start, stdout.len(), "trailing bytes after the last report");
    reports
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

/// The acceptance differential over the full evaluation corpus (plus
/// streamed store apps for key-shape variety): `vet`'s stdout is the
/// one-shot bytes cold, warm, and with a damaged cache entry, and after
/// a version churn its stdout and `--delta-out` equal a one-shot run's
/// over the same cache state.
#[test]
fn vet_across_workers_matches_the_single_process_bytes() {
    let dir = temp_dir("diff");
    // The full 285-app evaluation corpus, generated through the same
    // profile the CLI's `corpus:SEED:IDX` spec uses.
    let mut paths: Vec<String> = profile::corpus(42)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let bytes = nck_appgen::generate(spec).to_bytes();
            write_bundle(&dir, &format!("corpus{i:06}.apk"), &bytes)
        })
        .collect();
    let stream = CorpusStream::new(7, 16);
    for i in 0..16 {
        let bytes = nck_appgen::generate(&stream.spec_at(i)).to_bytes();
        paths.push(write_bundle(&dir, &format!("app{i:06}.apk"), &bytes));
    }
    // `vet` reads a corpus tree in sorted path order.
    paths.sort();
    let mut want = reference(&paths);

    let corpus = dir.join("corpus");
    let cache = dir.join("cache");
    let vet = |extra: &[&str]| {
        let mut args = vec!["vet", "--workers", "3", "--quiet"];
        args.extend(["--cache-dir", cache.to_str().unwrap()]);
        args.extend(["--corpus-dir", corpus.to_str().unwrap()]);
        args.extend(extra);
        nchecker(&args)
    };
    for round in ["cold", "warm"] {
        let out = vet(&[]);
        assert_eq!(out.status.code(), Some(0), "{round}: {}", text(&out.stderr));
        assert!(
            text(&out.stdout) == want,
            "{round}: vet output diverged from one-shot"
        );
    }

    // Damage the JSON section of one record: the next run drops it and
    // recomputes instead of serving it, and a third run hits every app,
    // the recomputed record included — the damaged one is not read
    // again.
    let segment = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("a cache segment");
    let mut bytes = std::fs::read(&segment).unwrap();
    let body = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[body + 40] ^= 1;
    std::fs::write(&segment, bytes).unwrap();
    let out = vet(&[]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout) == want, "a damaged record was served");
    let out = nchecker(&[
        "vet",
        "--workers",
        "3",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--corpus-dir",
        corpus.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout) == want, "after the damage: vet diverged");
    let hits = format!("0 delta(s), {} cache hit(s)", paths.len());
    assert!(text(&out.stderr).contains(&hits), "{}", text(&out.stderr));

    // Churn: every 37th app ships a new version. A one-shot run over a
    // copy of the cache sees the same history as `vet`.
    let twin = dir.join("cache-one-shot");
    std::fs::create_dir_all(&twin).unwrap();
    for e in std::fs::read_dir(&cache).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), twin.join(e.file_name())).unwrap();
    }
    let fresh = profile::corpus(43);
    for (k, path) in paths.iter().step_by(37).enumerate() {
        std::fs::write(path, nck_appgen::generate(&fresh[k]).to_bytes()).unwrap();
    }
    want = reference(&paths);
    let vet_deltas = dir.join("vet.deltas");
    let out = vet(&["--delta-out", vet_deltas.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout) == want, "churned: vet output diverged");

    let one_shot_deltas = dir.join("one-shot.deltas");
    let mut args = vec!["--json", "--quiet", "--keep-going"];
    args.extend(["--cache-dir", twin.to_str().unwrap()]);
    args.extend(["--delta-out", one_shot_deltas.to_str().unwrap()]);
    args.extend(paths.iter().map(String::as_str));
    let out = nchecker(&args);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout) == want,
        "churned: one-shot output diverged"
    );
    let deltas = std::fs::read_to_string(&vet_deltas).unwrap();
    assert_eq!(deltas.lines().count(), paths.iter().step_by(37).count());
    assert_eq!(
        deltas,
        std::fs::read_to_string(&one_shot_deltas).unwrap(),
        "vet --delta-out differs from one-shot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded abort test: 300 corrupted bundles beside intact ones through
/// one `vet` process. The process exits with a code, every bundle that
/// analyzes prints its one-shot bytes in input order, and every bundle
/// that fails logs exactly its one typed error.
#[test]
fn no_damaged_input_takes_vet_down() {
    let dir = temp_dir("abort");
    let mut paths = Vec::new();
    let mut intact = Vec::new();
    for spec in mutate::base_apps() {
        let apk = nck_appgen::generate(&spec);
        let pkg = &spec.package;
        intact.push(write_bundle(
            &dir,
            &format!("{pkg}-intact.apk"),
            &apk.to_bytes(),
        ));
        for seed in 0..100 {
            let (bytes, _) = mutate::mutate(&apk, seed);
            paths.push(write_bundle(&dir, &format!("{pkg}-{seed:03}.apk"), &bytes));
        }
    }
    for (i, spec) in profile::corpus(2016).iter().take(20).enumerate() {
        let bytes = nck_appgen::generate(spec).to_bytes();
        intact.push(write_bundle(&dir, &format!("corpus{i:03}.apk"), &bytes));
    }
    paths.extend(intact.iter().cloned());
    paths.sort();

    let corpus = dir.join("corpus");
    let cache = dir.join("cache");
    let out = nchecker(&[
        "vet",
        "--workers",
        "2",
        "--jobs",
        "1",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--corpus-dir",
        corpus.to_str().unwrap(),
    ]);
    let code = out
        .status
        .code()
        .expect("vet exits with a code, not a signal");
    assert!(code == 1 || code == 3, "exit code {code}");

    // Error lines are `[+<secs>s] <path>: <error>`.
    let stderr = text(&out.stderr);
    let errors: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.split_once("s] ").map(|(_, msg)| msg))
        .collect();
    let mut reports = split_reports(text(&out.stdout)).into_iter();
    let (mut analyzed, mut failed) = (0, 0);
    for path in &paths {
        let logged: Vec<&str> = errors
            .iter()
            .copied()
            .filter(|m| m.starts_with(&format!("{path}: ")))
            .collect();
        match one_shot(path) {
            Ok(want) => {
                assert!(logged.is_empty(), "{path}: {logged:?}");
                assert_eq!(reports.next(), Some(want.as_str()), "{path}");
                analyzed += 1;
            }
            Err(e) => {
                assert!(!intact.contains(path), "{path}: intact input failed: {e}");
                assert!(!e.starts_with("panic"), "{path}: {e}");
                let line = format!("{path}: {e}");
                assert_eq!(logged, [line.as_str()], "one typed error logged");
                failed += 1;
            }
        }
    }
    assert_eq!(reports.next(), None, "more reports than analyzed inputs");
    // Both damage outcomes occur; `mutate` is seeded, so the split is
    // exact (the 23 intact inputs among the analyzed).
    assert_eq!((analyzed, failed, intact.len()), (146, 177, 23));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--corpus-dir` descends only into real directories: a link back to
/// an ancestor is not followed (the walk would loop until path
/// resolution failed), while a symlinked bundle file is vetted like any
/// other.
#[test]
fn corpus_dir_walk_skips_symlinked_directories() {
    let dir = temp_dir("symlinks");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(corpus.join("a")).unwrap();
    let spec = &profile::corpus(2016)[0];
    let bundle = write_bundle(&dir, "a/app.apk", &nck_appgen::generate(spec).to_bytes());
    std::os::unix::fs::symlink("..", corpus.join("a").join("up")).unwrap();
    std::os::unix::fs::symlink("a/app.apk", corpus.join("b.apk")).unwrap();
    let linked = corpus.join("b.apk").to_string_lossy().into_owned();

    let out = nchecker(&["vet", "--corpus-dir", corpus.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert_eq!(
        text(&out.stdout),
        reference(&[bundle, linked]),
        "the bundle and its file link, once each"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded kills: `vet --cache-dir` is SIGKILLed at a seeded point of
/// its run, then rerun over the same cache. Whatever the kill left —
/// a torn segment tail, an unflushed read journal — the rerun's stdout
/// is byte-identical to a cold `--no-cache` run.
#[test]
fn a_killed_vet_leaves_a_cache_the_rerun_serves_byte_identically() {
    let dir = temp_dir("kill");
    let stream = CorpusStream::new(21, 600);
    let mut paths: Vec<String> = (0..600)
        .map(|i| {
            let bytes = nck_appgen::generate(&stream.spec_at(i)).to_bytes();
            write_bundle(&dir, &format!("app{i:06}.apk"), &bytes)
        })
        .collect();
    paths.sort();
    let mut args = vec!["--json", "--quiet", "--keep-going", "--no-cache"];
    args.extend(paths.iter().map(String::as_str));
    let cold = nchecker(&args);
    assert_eq!(cold.status.code(), Some(0), "{}", text(&cold.stderr));

    let corpus = dir.join("corpus");
    let vet_args = |cache: &Path| -> Vec<String> {
        ["vet", "--workers", "2", "--quiet", "--cache-dir"]
            .iter()
            .map(|s| s.to_string())
            .chain([cache.to_string_lossy().into_owned()])
            .chain([
                "--corpus-dir".to_owned(),
                corpus.to_string_lossy().into_owned(),
            ])
            .collect()
    };
    // The length of one full run, to spread the kills across it.
    let t = std::time::Instant::now();
    let full = Command::new(env!("CARGO_BIN_EXE_nchecker"))
        .args(vet_args(&dir.join("cache-full")))
        .output()
        .unwrap();
    assert!(full.stdout == cold.stdout, "an unkilled vet diverged");
    let run_ms = t.elapsed().as_millis() as u64;

    let mut killed = 0;
    for seed in 0..4u64 {
        let cache = dir.join(format!("cache-{seed}"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(vet_args(&cache))
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        // A seeded point between 20% and 95% of a full run.
        let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let at = run_ms * (20 + mix % 76) / 100;
        std::thread::sleep(std::time::Duration::from_millis(at));
        let _ = child.kill();
        let status = child.wait().unwrap();
        killed += usize::from(status.code().is_none());

        let rerun = Command::new(env!("CARGO_BIN_EXE_nchecker"))
            .args(vet_args(&cache))
            .output()
            .unwrap();
        assert_eq!(rerun.status.code(), Some(0), "{}", text(&rerun.stderr));
        assert!(
            rerun.stdout == cold.stdout,
            "seed {seed}: the rerun after a kill at {at} ms diverged"
        );
    }
    assert!(killed > 0, "no run was killed mid-way ({run_ms} ms runs)");
    let _ = std::fs::remove_dir_all(&dir);
}
