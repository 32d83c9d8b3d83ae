//! The `nchecker` command-line tool: analyze APK bundles and print the
//! warning reports (§4.6, Figure 7), batched through the analysis
//! service — worker pool plus content-addressed cache.
//!
//! ```text
//! nchecker [--summary|--json] [--strict] [--no-interproc] [--icc]
//!          [--keep-going] [--trace] [--metrics] [--quiet|-v|-vv]
//!          [--trace-out FILE] [--log-json FILE] [--doctor]
//!          [--jobs N] [--cache-dir DIR] [--no-cache] [--cache-budget BYTES]
//!          [--delta-out FILE] <app.apk>...
//! nchecker serve (--stdio | --socket PATH) [--watch DIR] [--poll-ms N]
//!          [--queue-capacity N] [checker and cache flags]
//! nchecker vet --workers N [--corpus-dir DIR | <app.apk>...]
//!          [--delta-out FILE] [--summary] [checker and cache flags]
//! nchecker cache-gc --cache-dir DIR --cache-budget BYTES
//! ```
//!
//! `vet` is the store-scale front end: it shards the corpus across N
//! worker *processes* (each an `nchecker serve --stdio` child) and
//! prints the reports in input order — byte-identical to what a single
//! `nchecker --json` run over the same paths would print.
//!
//! Exit codes: `0` all apps analyzed cleanly, `1` at least one app failed
//! to analyze, `2` usage error, `3` every app analyzed but at least one
//! was degraded (some methods skipped as unanalyzable).

use nchecker::CheckerConfig;
use nck_obs::{Events, JsonObj, JsonlSink, Level, Metrics, Obs, PhaseTotals, Series, Tracer};
use nck_svc::{
    daemon, doctor, AnalysisService, AnalysisStore, Daemon, DaemonOptions, OrchestratorOptions,
    ServiceOptions, Watcher,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nchecker [--summary|--json] [--strict] [--no-interproc] \
         [--icc] [--keep-going] [--trace] [--metrics] [--quiet|-v|-vv] [--trace-out FILE] \
         [--log-json FILE] [--doctor] [--jobs N] [--cache-dir DIR] \
         [--no-cache] <app.apk>...\n\
         \x20      nchecker serve (--stdio | --socket PATH) [--watch DIR] [--poll-ms N] \
         [--queue-capacity N] [checker and cache flags]\n\
         \x20      nchecker vet --workers N [--corpus-dir DIR | <app.apk>...] \
         [--delta-out FILE] [--summary] [checker and cache flags]\n\
         \x20      nchecker cache-gc --cache-dir DIR --cache-budget BYTES"
    );
    eprintln!();
    eprintln!("Statically analyzes ADX app bundles for network programming defects.");
    eprintln!("  --summary       print one line per app instead of full reports");
    eprintln!("  --json          print one JSON document per app");
    eprintln!("  --strict        require connectivity checks to be control conditions");
    eprintln!("  --interproc     enable the summary engine (the default)");
    eprintln!("  --no-interproc  ablate the interprocedural summary engine");
    eprintln!("  --icc           model inter-component communication (launch chains)");
    eprintln!("  --keep-going, -k  continue analyzing remaining apps after a failure");
    eprintln!("  --trace         record per-phase spans; tree printed to stderr");
    eprintln!("  --metrics       record pipeline metrics (embedded in --json output)");
    eprintln!("  --trace-out FILE  write a Chrome Trace Event JSON of the whole run");
    eprintln!("                  (load in Perfetto or chrome://tracing)");
    eprintln!("  --log-json FILE write structured JSONL telemetry: events, per-app");
    eprintln!("                  phase totals, cache and prescan-funnel records");
    eprintln!("  --doctor        print one canonical JSON health snapshot instead of");
    eprintln!("                  reports (byte-deterministic; apps optional)");
    eprintln!("  --jobs N        analyze up to N apps in parallel (default: CPU count)");
    eprintln!("  --cache-dir DIR persist the analysis cache under DIR across runs");
    eprintln!("  --no-cache      disable the analysis cache entirely");
    eprintln!("  --cache-budget BYTES  GC the disk cache down to BYTES after each run");
    eprintln!("                  (suffixes K/M/G, base 1024); see also `cache-gc`");
    eprintln!("  --delta-out FILE  write one JSONL defect-delta record per resubmitted");
    eprintln!("                  app whose bundle changed (added/fixed/unchanged)");
    eprintln!("  --quiet, -q     suppress all diagnostics on stderr");
    eprintln!("  -v, -vv         raise diagnostic verbosity to info / debug");
    eprintln!();
    eprintln!("serve mode (persistent daemon; line-delimited JSON protocol):");
    eprintln!("  --stdio         speak the protocol on stdin/stdout");
    eprintln!("  --socket PATH   listen on a Unix socket at PATH");
    eprintln!("  --watch DIR     re-analyze bundles in DIR when their content changes");
    eprintln!("  --poll-ms N     watch poll interval in milliseconds (default: 500)");
    eprintln!("  --queue-capacity N  bound the request queue (default: 64); submits");
    eprintln!("                  beyond it are rejected with a queue-full reply");
    eprintln!();
    eprintln!("vet mode (multi-process store-scale vetting):");
    eprintln!("  --workers N     worker processes (default: 2); the corpus is");
    eprintln!("                  partitioned across them by key hash");
    eprintln!("  --corpus-dir DIR  vet every *.apk/*.adx under DIR (recursive),");
    eprintln!("                  sorted; positional paths also accepted");
    eprintln!("  --summary       per-shard accounting only; skip report output");
    eprintln!("  stdout is the workers' reports in input order, byte-identical");
    eprintln!("  to one-shot --json output over the same paths");
    eprintln!();
    eprintln!("exit codes: 0 clean, 1 analysis failure, 2 usage, 3 degraded");
    ExitCode::from(2)
}

const FLAGS: &[&str] = &[
    "--summary",
    "--json",
    "--strict",
    "--interproc",
    "--no-interproc",
    "--icc",
    "--keep-going",
    "-k",
    "--trace",
    "--metrics",
    "--doctor",
    "--no-cache",
    "--quiet",
    "-q",
    "-v",
    "-vv",
];

const EXIT_FAILED: u8 = 1;
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("vet") => return vet_main(&args[1..]),
        Some("cache-gc") => return gc_main(&args[1..]),
        _ => {}
    }
    let summary = args.iter().any(|a| a == "--summary");
    let json = args.iter().any(|a| a == "--json");
    let strict = args.iter().any(|a| a == "--strict");
    let icc = args.iter().any(|a| a == "--icc");
    let keep_going = args.iter().any(|a| a == "--keep-going" || a == "-k");
    let trace = args.iter().any(|a| a == "--trace");
    let metrics = args.iter().any(|a| a == "--metrics");
    let doctor_mode = args.iter().any(|a| a == "--doctor");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let quiet = args.iter().any(|a| a == "--quiet" || a == "-q");
    let verbose = args.iter().any(|a| a == "-v");
    let very_verbose = args.iter().any(|a| a == "-vv");
    // Last occurrence wins when both interproc flags are given.
    let interproc = !matches!(
        args.iter()
            .rev()
            .find(|a| *a == "--interproc" || *a == "--no-interproc"),
        Some(a) if a == "--no-interproc"
    );

    // Value-taking flags and positionals.
    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_budget: Option<u64> = None;
    let mut delta_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut log_json: Option<PathBuf> = None;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                jobs = Some(n);
            }
            "--cache-dir" => {
                let Some(dir) = it.next() else {
                    return usage();
                };
                cache_dir = Some(PathBuf::from(dir));
            }
            "--cache-budget" => {
                let Some(n) = it.next().and_then(|v| parse_bytes(v)) else {
                    return usage();
                };
                cache_budget = Some(n);
            }
            "--delta-out" => {
                let Some(file) = it.next() else {
                    return usage();
                };
                delta_out = Some(PathBuf::from(file));
            }
            "--trace-out" => {
                let Some(file) = it.next() else {
                    return usage();
                };
                trace_out = Some(PathBuf::from(file));
            }
            "--log-json" => {
                let Some(file) = it.next() else {
                    return usage();
                };
                log_json = Some(PathBuf::from(file));
            }
            s if s.starts_with('-') => {
                if !FLAGS.contains(&s) {
                    return usage();
                }
            }
            _ => paths.push(a),
        }
    }
    // `--doctor` reports on the cache dir and config alone; everything
    // else needs at least one bundle.
    if paths.is_empty() && !doctor_mode {
        return usage();
    }
    if let Some(0) = jobs {
        return usage();
    }

    let sink = match &log_json {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::from(EXIT_FAILED);
            }
        },
        None => None,
    };
    let mut events = if quiet {
        Events::silent()
    } else if very_verbose {
        Events::at(Level::Debug)
    } else if verbose {
        Events::at(Level::Info)
    } else {
        Events::default()
    };
    if let Some(sink) = &sink {
        events = events.with_sink(sink.clone());
    }
    let config = CheckerConfig {
        strict_connectivity: strict,
        interproc,
        icc,
        ..CheckerConfig::default()
    };
    // The exporters need spans and counters even when the stderr views
    // (--trace/--metrics) are off: recording is silent unless a flag
    // asks for the stderr rendering.
    let want_tracer = trace || trace_out.is_some() || log_json.is_some() || doctor_mode;
    let want_metrics = metrics || trace || want_tracer;
    let obs = Obs {
        tracer: if want_tracer {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
        metrics: if want_metrics {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        },
        events: events.clone(),
    };

    // Read everything up front; the batch then runs on the pool.
    let mut items: Vec<(String, Vec<u8>)> = Vec::new();
    let mut failures = 0usize;
    for path in &paths {
        match std::fs::read(path) {
            Ok(bytes) => {
                events.debug(&format!("{path}: read {} bytes", bytes.len()));
                items.push(((*path).clone(), bytes));
            }
            Err(e) => {
                events.error(&format!("{path}: {e}"));
                failures += 1;
                if !keep_going {
                    return ExitCode::from(EXIT_FAILED);
                }
            }
        }
    }

    let service = AnalysisService::new(
        ServiceOptions {
            config,
            jobs,
            cache_dir,
            no_cache,
            mem_budget: None,
            cache_budget,
        },
        obs,
    );
    let outcomes = service.analyze_batch(&items);
    let cache_stats = AnalysisService::batch_stats(&outcomes);

    let mut degraded = 0usize;
    for ((path, _), outcome) in items.iter().zip(&outcomes) {
        match &outcome.report {
            Ok(report) => {
                // Reading the structured report decodes a disk hit's
                // stored entry; `--json` alone never needs to.
                if events.would_log(Level::Info) || events.sink().is_some() {
                    events.info(&format!(
                        "{path}: {} requests, {} defects",
                        report.stats.requests,
                        report.defects.len()
                    ));
                }
                if report.degraded() {
                    degraded += 1;
                    events.warn(&format!(
                        "{path}: degraded analysis, {} method(s) skipped",
                        report.skipped_methods.len()
                    ));
                    for s in &report.skipped_methods {
                        events.debug(&format!(
                            "{path}: skipped {} [{}]: {}",
                            s.method, s.cause, s.detail
                        ));
                    }
                }
                if doctor_mode {
                    // The snapshot is the only stdout content.
                } else if json {
                    print!("{}", report.json());
                } else if summary {
                    println!(
                        "{path}: {} ({} requests, {} defects{})",
                        report.stats.package,
                        report.stats.requests,
                        report.defects.len(),
                        if report.degraded() { ", degraded" } else { "" }
                    );
                } else {
                    println!(
                        "=== {} ({} defects) ===",
                        report.stats.package,
                        report.defects.len()
                    );
                    for d in &report.defects {
                        println!("{}", d.render());
                    }
                }
                // Observability output goes to stderr so stdout stays
                // machine-parseable under --json. The stderr renderings
                // stay opt-in even when an exporter enabled recording.
                if trace {
                    if let Some(t) = &report.trace {
                        eprintln!("--- trace: {} ---", report.stats.package);
                        eprint!("{}", t.render());
                    }
                }
                if metrics && !json {
                    if let Some(m) = &report.metrics {
                        eprintln!("--- metrics: {} ---", report.stats.package);
                        eprint!("{}", m.render());
                    }
                }
            }
            Err(e) => {
                events.error(&format!("{path}: {e}"));
                failures += 1;
                if !keep_going {
                    return ExitCode::from(EXIT_FAILED);
                }
            }
        }
    }

    // Corpus-level aggregation over the attached per-app telemetry.
    let mut merged = nck_obs::MetricsSnapshot::default();
    let mut phases = PhaseTotals::new();
    let mut latency = Series::new();
    // A disk hit's undecoded stored report carries no telemetry.
    for outcome in &outcomes {
        if let Some(report) = outcome.report.as_ref().ok().filter(|r| r.is_decoded()) {
            if let Some(m) = &report.metrics {
                merged.merge(m);
            }
            if let Some(t) = &report.trace {
                phases.absorb(t);
                latency.push(t.wall_nanos() / 1_000);
            }
        }
    }
    // The per-app snapshots cannot see the store; the batch end is the
    // only point where its occupancy is final.
    let store_metrics = Metrics::enabled();
    service.store().record_gauges(&store_metrics);
    merged.merge(&store_metrics.snapshot());
    let analysis_failures = failures;

    // Defect deltas, one JSONL record per resubmitted-and-changed app,
    // in input order (apps without a delta contribute no line).
    if let Some(path) = &delta_out {
        let mut text = String::new();
        for outcome in &outcomes {
            if let Some(delta) = &outcome.delta {
                text.push_str(&serde_json::to_string(&delta.to_json()).expect("delta serializes"));
                text.push('\n');
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            events.error(&format!("{}: {e}", path.display()));
            failures += 1;
        } else {
            events.info(&format!("wrote {}", path.display()));
        }
    }

    if let Some(path) = &trace_out {
        let traces: Vec<(String, nck_obs::PipelineTrace)> = items
            .iter()
            .zip(&outcomes)
            .filter_map(|((path, _), outcome)| match &outcome.report {
                Ok(report) if report.is_decoded() => report.trace.clone().map(|t| {
                    let label = if report.stats.package.is_empty() {
                        path.clone()
                    } else {
                        report.stats.package.clone()
                    };
                    (label, t)
                }),
                _ => None,
            })
            .collect();
        if let Err(e) = std::fs::write(path, nck_obs::chrome_trace(&traces)) {
            events.error(&format!("{}: {e}", path.display()));
            failures += 1;
        } else {
            events.info(&format!(
                "wrote {} ({} app traces)",
                path.display(),
                traces.len()
            ));
        }
    }

    if let Some(sink) = &sink {
        emit_jsonl(sink, &items, &outcomes, &cache_stats, &merged, &mut latency);
        sink.flush();
    }

    if doctor_mode {
        let report = doctor::DoctorReport {
            config: &config,
            store: service.store(),
            metrics: &merged,
            phases: &phases,
            apps: items.len(),
            failed: analysis_failures,
            degraded,
        };
        print!("{}", doctor::render(&report));
    } else if !no_cache && !items.is_empty() {
        // Cache accounting, part of the end-of-run report. Stderr under
        // --json so stdout stays one JSON document per app.
        let mut line = format!(
            "cache: {} hit(s), {} miss(es) ({:.0}% whole-report), classes reused {}/{}",
            cache_stats.hits,
            cache_stats.misses,
            cache_stats.hit_rate() * 100.0,
            cache_stats.classes_reused,
            cache_stats.classes_total,
        );
        if let (Some(p50), Some(p90), Some(p99)) = (
            latency.percentile(50.0),
            latency.percentile(90.0),
            latency.percentile(99.0),
        ) {
            line.push_str(&format!(
                "\nlatency: p50 {p50} µs, p90 {p90} µs, p99 {p99} µs per app"
            ));
        }
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    if failures > 0 {
        ExitCode::from(EXIT_FAILED)
    } else if degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// Flags `nchecker serve` accepts without a value.
const SERVE_FLAGS: &[&str] = &[
    "--stdio",
    "--strict",
    "--interproc",
    "--no-interproc",
    "--icc",
    "--no-cache",
    "--quiet",
    "-q",
    "-v",
    "-vv",
];

/// The `nchecker serve` entry point: builds the daemon, spawns the
/// dispatcher (and the watcher when `--watch` is given), then serves
/// the protocol on stdio or a Unix socket until shutdown, draining
/// in-flight work before exiting.
fn serve_main(args: &[String]) -> ExitCode {
    let strict = args.iter().any(|a| a == "--strict");
    let icc = args.iter().any(|a| a == "--icc");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let stdio = args.iter().any(|a| a == "--stdio");
    let quiet = args.iter().any(|a| a == "--quiet" || a == "-q");
    let verbose = args.iter().any(|a| a == "-v");
    let very_verbose = args.iter().any(|a| a == "-vv");
    let interproc = !matches!(
        args.iter()
            .rev()
            .find(|a| *a == "--interproc" || *a == "--no-interproc"),
        Some(a) if a == "--no-interproc"
    );

    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_budget: Option<u64> = None;
    let mut socket: Option<PathBuf> = None;
    let mut watch: Option<PathBuf> = None;
    let mut poll_ms: u64 = 500;
    let mut queue_capacity: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                jobs = Some(n);
            }
            "--cache-dir" => {
                let Some(dir) = it.next() else {
                    return usage();
                };
                cache_dir = Some(PathBuf::from(dir));
            }
            "--cache-budget" => {
                let Some(n) = it.next().and_then(|v| parse_bytes(v)) else {
                    return usage();
                };
                cache_budget = Some(n);
            }
            "--socket" => {
                let Some(path) = it.next() else {
                    return usage();
                };
                socket = Some(PathBuf::from(path));
            }
            "--watch" => {
                let Some(dir) = it.next() else {
                    return usage();
                };
                watch = Some(PathBuf::from(dir));
            }
            "--poll-ms" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                poll_ms = n;
            }
            "--queue-capacity" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                queue_capacity = Some(n);
            }
            s if s.starts_with('-') => {
                if !SERVE_FLAGS.contains(&s) {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }
    // Exactly one transport.
    if stdio == socket.is_some() {
        return usage();
    }
    if let (Some(0), _) | (_, Some(0)) = (jobs, queue_capacity) {
        return usage();
    }

    let events = if quiet {
        Events::silent()
    } else if very_verbose {
        Events::at(Level::Debug)
    } else if verbose {
        Events::at(Level::Info)
    } else {
        Events::default()
    };
    let config = CheckerConfig {
        strict_connectivity: strict,
        interproc,
        icc,
        ..CheckerConfig::default()
    };
    let daemon = Arc::new(Daemon::new(
        DaemonOptions {
            service: ServiceOptions {
                config,
                jobs,
                cache_dir,
                no_cache,
                mem_budget: None,
                cache_budget,
            },
            queue_capacity,
        },
        events.clone(),
    ));

    let dispatcher = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || d.run_dispatcher())
    };
    let watcher = watch.map(|dir| {
        let d = Arc::clone(&daemon);
        let ev = events.clone();
        std::thread::spawn(move || watch_loop(&d, &dir, poll_ms, &ev))
    });

    let served = if stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        daemon::serve_lines(&daemon, &mut stdin.lock(), &mut stdout.lock())
    } else {
        let path = socket.expect("socket transport selected");
        events.info(&format!("serve: listening on {}", path.display()));
        daemon::serve_socket(&daemon, &path)
    };

    // Graceful exit: no new admissions, drain what is queued and
    // in flight (the dispatcher flushes the disk cache), then reap the
    // helper threads.
    daemon.begin_shutdown();
    daemon.await_drained();
    let _ = dispatcher.join();
    if let Some(w) = watcher {
        let _ = w.join();
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            events.error(&format!("serve: {e}"));
            ExitCode::from(EXIT_FAILED)
        }
    }
}

/// Parses a byte-size argument: plain digits, or a K/M/G suffix
/// (base 1024, case-insensitive).
fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, shift) = match s.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&s[..i], 10),
        (i, 'm') | (i, 'M') => (&s[..i], 20),
        (i, 'g') | (i, 'G') => (&s[..i], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_shl(shift)
}

/// Collects every `*.apk` / `*.adx` under `dir`, recursively, sorted by
/// path — the fixed input order a sharded corpus tree is vetted in.
fn collect_corpus_dir(dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e == "apk" || e == "adx")
            {
                out.push(path.to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    Ok(())
}

/// Flags `nchecker vet` accepts without a value.
const VET_FLAGS: &[&str] = &[
    "--summary",
    "--strict",
    "--interproc",
    "--no-interproc",
    "--icc",
    "--quiet",
    "-q",
    "-v",
];

/// The `nchecker vet` entry point: shard the corpus across worker
/// processes and merge reports back in input order.
fn vet_main(args: &[String]) -> ExitCode {
    let summary = args.iter().any(|a| a == "--summary");
    let strict = args.iter().any(|a| a == "--strict");
    let icc = args.iter().any(|a| a == "--icc");
    let quiet = args.iter().any(|a| a == "--quiet" || a == "-q");
    let verbose = args.iter().any(|a| a == "-v");
    let interproc = !matches!(
        args.iter()
            .rev()
            .find(|a| *a == "--interproc" || *a == "--no-interproc"),
        Some(a) if a == "--no-interproc"
    );

    let mut workers = 2usize;
    let mut window = 32usize;
    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut cache_budget: Option<u64> = None;
    let mut delta_out: Option<PathBuf> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut worker_exe: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return usage(),
            },
            "--window" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => window = n,
                _ => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(dir.clone()),
                None => return usage(),
            },
            "--cache-budget" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) => cache_budget = Some(n),
                None => return usage(),
            },
            "--delta-out" => match it.next() {
                Some(f) => delta_out = Some(PathBuf::from(f)),
                None => return usage(),
            },
            "--corpus-dir" => match it.next() {
                Some(d) => corpus_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            // Testing hook: run THIS program as the worker instead of
            // current_exe (lets harnesses interpose a crashing wrapper).
            "--worker-exe" => match it.next() {
                Some(exe) => worker_exe = Some(exe.clone()),
                None => return usage(),
            },
            s if s.starts_with('-') => {
                if !VET_FLAGS.contains(&s) {
                    return usage();
                }
            }
            _ => paths.push(a.clone()),
        }
    }

    let events = if quiet {
        Events::silent()
    } else if verbose {
        Events::at(Level::Info)
    } else {
        Events::default()
    };
    if let Some(dir) = &corpus_dir {
        if let Err(e) = collect_corpus_dir(dir, &mut paths) {
            events.error(&format!("{}: {e}", dir.display()));
            return ExitCode::from(EXIT_FAILED);
        }
    }
    if paths.is_empty() {
        return usage();
    }

    // The worker command: this very binary in serve --stdio mode, with
    // the checker and cache configuration forwarded. Queue capacity is
    // pinned to two submit windows — the orchestrator keeps one window
    // queued behind the one in flight — so pipelined submits are never
    // admission-rejected.
    let exe = match worker_exe {
        Some(exe) => exe,
        None => match std::env::current_exe() {
            Ok(p) => p.to_string_lossy().into_owned(),
            Err(e) => {
                events.error(&format!("cannot resolve own executable: {e}"));
                return ExitCode::from(EXIT_FAILED);
            }
        },
    };
    let mut worker_cmd = vec![
        exe,
        "serve".to_owned(),
        "--stdio".to_owned(),
        "--quiet".to_owned(),
        "--queue-capacity".to_owned(),
        (2 * window).to_string(),
    ];
    if strict {
        worker_cmd.push("--strict".to_owned());
    }
    if icc {
        worker_cmd.push("--icc".to_owned());
    }
    if !interproc {
        worker_cmd.push("--no-interproc".to_owned());
    }
    if let Some(j) = jobs {
        worker_cmd.push("--jobs".to_owned());
        worker_cmd.push(j.to_string());
    }
    if let Some(dir) = &cache_dir {
        worker_cmd.push("--cache-dir".to_owned());
        worker_cmd.push(dir.clone());
    }
    if let Some(b) = cache_budget {
        worker_cmd.push("--cache-budget".to_owned());
        worker_cmd.push(b.to_string());
    }

    let options = OrchestratorOptions {
        workers,
        worker_cmd,
        window,
        ..OrchestratorOptions::default()
    };
    let outcome = nck_svc::vet(&options, &paths);

    // stdout: the workers' reports in input order — the same bytes a
    // single-process `nchecker --json` run over these paths prints.
    if !summary {
        let mut stdout = std::io::stdout().lock();
        use std::io::Write;
        for report in outcome.reports.iter().flatten() {
            if stdout.write_all(report.as_bytes()).is_err() {
                return ExitCode::from(EXIT_FAILED);
            }
        }
    }

    let mut failures = 0usize;
    for (idx, msg) in &outcome.errors {
        events.error(&format!("{}: {msg}", paths[*idx]));
        failures += 1;
    }
    if let Some(path) = &delta_out {
        let mut text = String::new();
        for delta in outcome.deltas.iter().flatten() {
            text.push_str(&serde_json::to_string(delta).expect("delta serializes"));
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            events.error(&format!("{}: {e}", path.display()));
            failures += 1;
        }
    }

    for s in &outcome.shards {
        events.info(&format!(
            "vet: shard {}: {} assigned, {} completed, {} failed, {} restart(s), {} ms",
            s.shard, s.assigned, s.completed, s.failed, s.restarts, s.wall_ms
        ));
    }
    for shard in &outcome.stragglers {
        events.warn(&format!("vet: shard {shard} straggled"));
    }
    let restarts: usize = outcome.shards.iter().map(|s| s.restarts).sum();
    let deltas = outcome.deltas.iter().flatten().count();
    events.warn(&format!(
        "vet: {} app(s) over {} worker(s): {} completed, {} failed, {} degraded, \
         {} delta(s), {} restart(s), {} spawned, {} reused",
        paths.len(),
        workers,
        outcome.completed(),
        failures,
        outcome.degraded,
        deltas,
        restarts,
        outcome.worker_spawns,
        outcome.workers_reused,
    ));

    if failures > 0 {
        ExitCode::from(EXIT_FAILED)
    } else if outcome.degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// The `nchecker cache-gc` entry point: one explicit GC pass over a
/// disk cache directory.
fn gc_main(args: &[String]) -> ExitCode {
    let mut cache_dir: Option<PathBuf> = None;
    let mut budget: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--cache-budget" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) => budget = Some(n),
                None => return usage(),
            },
            "--quiet" | "-q" => {}
            _ => return usage(),
        }
    }
    let (Some(dir), Some(budget)) = (cache_dir, budget) else {
        return usage();
    };
    let store = AnalysisStore::with_options(1, Some(dir));
    let stats = store.gc_disk(budget, &Obs::disabled());
    println!(
        "cache-gc: {} entries ({} bytes) -> evicted {}, freed {} bytes, {} bytes live",
        stats.entries,
        stats.bytes,
        stats.evicted,
        stats.freed_bytes,
        stats.live_bytes(),
    );
    ExitCode::SUCCESS
}

/// The `--watch` loop: polls the directory and submits changed
/// bundles under their path as the cache key, so an edited bundle
/// rides the incremental ladder instead of a cold run. Bundles whose
/// file disappears have their finished daemon state retired — a watch
/// session over a churning directory must not accumulate state for
/// files that no longer exist.
fn watch_loop(daemon: &Daemon, dir: &Path, poll_ms: u64, events: &Events) {
    let mut watcher = Watcher::new(dir);
    while !daemon.shutting_down() {
        match watcher.poll() {
            Ok(poll) => {
                for key in poll.removed {
                    let dropped = daemon.retire_key(&key);
                    events.info(&format!("watch: {key} deleted, {dropped} job(s) retired"));
                }
                for (key, bytes) in poll.changed {
                    match daemon.submit_bytes(key.clone(), bytes) {
                        Ok((id, _)) => events.info(&format!("watch: {key} submitted as job {id}")),
                        Err((_, msg)) => events.warn(&format!("watch: {key}: {msg}")),
                    }
                }
            }
            Err(e) => events.warn(&format!("watch: {}: {e}", dir.display())),
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(10)));
    }
}

/// Writes the structured JSONL records for the batch: one `app` record
/// per analyzed bundle (phase totals and cache outcome), one `cache`
/// record, one `funnel` record (prescan counters), and one `run`
/// summary record with the latency percentiles.
fn emit_jsonl(
    sink: &JsonlSink,
    items: &[(String, Vec<u8>)],
    outcomes: &[nck_svc::AppOutcome],
    cache_stats: &nck_svc::BatchCacheStats,
    merged: &nck_obs::MetricsSnapshot,
    latency: &mut Series,
) {
    for ((path, _), outcome) in items.iter().zip(outcomes) {
        match &outcome.report {
            Ok(report) => {
                let mut rec = JsonObj::new()
                    .str("t", "app")
                    .str("app", path)
                    .str("package", &report.stats.package)
                    .u64("defects", report.defects.len() as u64)
                    .bool("degraded", report.degraded())
                    .bool("cache_hit", outcome.reuse.whole_report);
                if let Some(t) = &report.trace {
                    rec = rec.u64("wall_us", t.wall_nanos() / 1_000);
                    let mut per_app = PhaseTotals::new();
                    per_app.absorb(t);
                    let mut phases_obj = JsonObj::new();
                    for (phase_path, total) in per_app.iter() {
                        phases_obj = phases_obj.raw(
                            phase_path,
                            &JsonObj::new()
                                .u64("us", total.nanos / 1_000)
                                .u64("items", total.items)
                                .u64("count", total.count)
                                .finish(),
                        );
                    }
                    rec = rec.raw("phases", &phases_obj.finish());
                }
                sink.emit(&rec.finish());
            }
            Err(e) => {
                sink.emit(
                    &JsonObj::new()
                        .str("t", "app")
                        .str("app", path)
                        .str("error", &e.to_string())
                        .finish(),
                );
            }
        }
    }
    sink.emit(
        &JsonObj::new()
            .str("t", "cache")
            .u64("hits", cache_stats.hits as u64)
            .u64("misses", cache_stats.misses as u64)
            .u64("classes_reused", cache_stats.classes_reused as u64)
            .u64("classes_total", cache_stats.classes_total as u64)
            .u64("degraded", cache_stats.degraded as u64)
            .u64("evictions", counter(merged, "svc.cache.evict"))
            .finish(),
    );
    sink.emit(
        &JsonObj::new()
            .str("t", "funnel")
            .u64("prescan_skipped", counter(merged, "prescan.skipped"))
            .finish(),
    );
    let mut run = JsonObj::new()
        .str("t", "run")
        .u64("apps", items.len() as u64)
        .u64(
            "failed",
            outcomes.iter().filter(|o| o.report.is_err()).count() as u64,
        )
        .i64(
            "cache_mem_entries",
            merged
                .gauges
                .get("svc.cache.mem_entries")
                .map_or(0, |g| g.value),
        );
    if let (Some(p50), Some(p90), Some(p99)) = (
        latency.percentile(50.0),
        latency.percentile(90.0),
        latency.percentile(99.0),
    ) {
        run = run
            .u64("wall_us_p50", p50)
            .u64("wall_us_p90", p90)
            .u64("wall_us_p99", p99)
            .u64("wall_us_max", latency.max().unwrap_or(0));
    }
    sink.emit(&run.finish());
}

fn counter(snap: &nck_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}
