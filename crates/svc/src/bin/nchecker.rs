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
//! nchecker vet [--workers N] [--corpus-dir DIR | <app.apk>...]
//!          [--delta-out FILE] [--summary] [checker and cache flags]
//! nchecker cache-gc --cache-dir DIR --cache-budget BYTES
//! ```
//!
//! `vet` is the store-scale front end over the same in-process batch
//! (`run_batch`): it collects a corpus tree, keeps going past failures,
//! and prints the reports in input order — byte-identical to what
//! `nchecker --json --keep-going` over the same paths prints. Its pool
//! has the one-shot default size, or `--workers` × `--jobs` threads when
//! `--jobs` is given. Every mode parses the checker toggles, cache
//! flags and verbosity through one `CommandLine` parser.
//!
//! Exit codes: `0` all apps analyzed cleanly, `1` at least one app failed
//! to analyze, `2` usage error, `3` every app analyzed but at least one
//! was degraded (some methods skipped as unanalyzable).

use nchecker::CheckerConfig;
use nck_obs::{Events, JsonlSink, Level, Metrics, Obs, PhaseTotals, Series, Tracer};
use nck_svc::{
    daemon, doctor, AnalysisService, AnalysisStore, Daemon, DaemonOptions, ServiceOptions, Watcher,
};
use serde_json::{json, Value};
use std::io::Write;
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
         \x20      nchecker vet [--workers N] [--corpus-dir DIR | <app.apk>...] \
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
    eprintln!("vet mode (store-scale vetting; keeps going past failures):");
    eprintln!("  --workers N     with --jobs J, the pool runs N x J threads (default");
    eprintln!("                  N: 2); without --jobs it has the --jobs default");
    eprintln!("  --corpus-dir DIR  vet every *.apk/*.adx under DIR (recursive,");
    eprintln!("                  symlinked directories not followed), sorted;");
    eprintln!("                  positional paths also accepted");
    eprintln!("  --summary       counts only; skip report output");
    eprintln!("  stdout is the reports in input order, byte-identical to");
    eprintln!("  one-shot --json output over the same paths");
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

/// One mode's command line, parsed once. The flags every mode shares —
/// checker toggles, cache flags and verbosity — land in `service` and
/// `events`; the mode reads its own flags back by name.
struct CommandLine {
    service: ServiceOptions,
    events: Events,
    /// Every valueless flag given, in order.
    switches: Vec<String>,
    /// Every occurrence of `--jobs` and the mode's own value flags, in
    /// order.
    values: Vec<(String, String)>,
    paths: Vec<String>,
}

impl CommandLine {
    /// Parses `args` for a mode that accepts the valueless flags in
    /// `accepted` (shared ones included) and its own value flags in
    /// `valued`, besides the shared `--jobs`, `--cache-dir` and
    /// `--cache-budget`. `None` is a usage error: an unknown flag, a
    /// value flag without its value, a malformed number or size, or a
    /// last `--jobs` of 0.
    fn parse(args: &[String], accepted: &[&str], valued: &[&str]) -> Option<CommandLine> {
        let mut service = ServiceOptions::default();
        let mut switches: Vec<String> = Vec::new();
        let mut values = Vec::new();
        let mut paths = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--jobs" => {
                    let v = it.next()?;
                    service.jobs = Some(v.parse().ok()?);
                    values.push((a.clone(), v.clone()));
                }
                "--cache-dir" => service.cache_dir = Some(PathBuf::from(it.next()?)),
                "--cache-budget" => service.cache_budget = Some(parse_bytes(it.next()?)?),
                s if valued.contains(&s) => values.push((a.clone(), it.next()?.clone())),
                s if s.starts_with('-') => {
                    if !accepted.contains(&s) {
                        return None;
                    }
                    switches.push(a.clone());
                }
                _ => paths.push(a.clone()),
            }
        }
        if service.jobs == Some(0) {
            return None;
        }
        let has = |flag: &str| switches.iter().any(|f| f == flag);
        service.config = CheckerConfig {
            strict_connectivity: has("--strict"),
            // Last occurrence wins when both interproc flags are given.
            interproc: switches
                .iter()
                .rev()
                .find(|f| *f == "--interproc" || *f == "--no-interproc")
                .is_none_or(|f| f == "--interproc"),
            icc: has("--icc"),
            ..CheckerConfig::default()
        };
        service.no_cache = has("--no-cache");
        let events = if has("--quiet") || has("-q") {
            Events::silent()
        } else if has("-vv") {
            Events::at(Level::Debug)
        } else if has("-v") {
            Events::at(Level::Info)
        } else {
            Events::default()
        };
        Some(CommandLine {
            service,
            events,
            switches,
            values,
            paths,
        })
    }

    /// Whether the valueless flag `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|f| f == flag)
    }

    /// The last value given for the mode's flag `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value of `flag` as a number: `Ok(None)` when it is
    /// absent, `Err` (a usage error) when any value given for it is not
    /// a number of at least `min`.
    fn number<T: std::str::FromStr + PartialOrd>(
        &self,
        flag: &str,
        min: T,
    ) -> Result<Option<T>, ()> {
        let mut last = None;
        for (f, v) in &self.values {
            if f == flag {
                let n: T = v.parse().map_err(|_| ())?;
                if n < min {
                    return Err(());
                }
                last = Some(n);
            }
        }
        Ok(last)
    }
}

/// What a batch prints on stdout for each analyzed app.
#[derive(Clone, Copy, PartialEq)]
enum Print {
    /// The Figure-7 text report.
    Reports,
    /// One line per app.
    Summary,
    /// One JSON document per app.
    Json,
    Nothing,
}

/// How a batch reports its outcomes.
struct View {
    print: Print,
    keep_going: bool,
    /// Print each app's span tree on stderr.
    trace: bool,
    /// Print each app's counters on stderr (never under `Print::Json`,
    /// whose documents embed them).
    metrics: bool,
}

/// One finished batch: the bundles read and their outcomes, both in
/// input order, and the service that ran them.
struct Batch {
    service: AnalysisService,
    items: Vec<(String, Vec<u8>)>,
    outcomes: Vec<nck_svc::AppOutcome>,
    /// Unreadable bundles plus failed analyses.
    failures: usize,
    degraded: usize,
}

/// The batch path `nchecker` and `nchecker vet` share: reads every
/// bundle up front, analyzes them on the service's pool, and reports
/// each outcome in input order — the report on stdout, a failure as
/// one logged `<path>: <error>` line. `Err` is the exit code of a batch
/// that stopped at its first failure (without `keep_going`) or could
/// not write stdout.
fn run_batch(
    options: ServiceOptions,
    obs: Obs,
    paths: &[String],
    view: &View,
) -> Result<Batch, ExitCode> {
    let events = obs.events.clone();
    let mut items = Vec::with_capacity(paths.len());
    let mut failures = 0usize;
    for path in paths {
        match std::fs::read(path) {
            Ok(bytes) => {
                events.debug(&format!("{path}: read {} bytes", bytes.len()));
                items.push((path.clone(), bytes));
            }
            Err(e) => {
                events.error(&format!("{path}: {e}"));
                failures += 1;
                if !view.keep_going {
                    return Err(ExitCode::from(EXIT_FAILED));
                }
            }
        }
    }
    // This batch is the process's only one and its keys rarely repeat
    // (the disk tier, when given, still serves a repeat), so nothing
    // would ever read a memory entry: keep none.
    let options = ServiceOptions {
        mem_budget: Some(0),
        ..options
    };
    let service = AnalysisService::new(options, obs);
    let outcomes = service.analyze_batch(&items);

    let failed_write = |_| ExitCode::from(EXIT_FAILED);
    let mut out = std::io::stdout().lock();
    let mut degraded = 0usize;
    for ((path, _), outcome) in items.iter().zip(&outcomes) {
        let report = match &outcome.report {
            Ok(report) => report,
            Err(e) => {
                events.error(&format!("{path}: {e}"));
                failures += 1;
                if !view.keep_going {
                    return Err(ExitCode::from(EXIT_FAILED));
                }
                continue;
            }
        };
        // Reading the structured report decodes a disk hit's stored
        // entry; `--json` alone never needs to.
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
        match view.print {
            Print::Nothing => {}
            Print::Json => out
                .write_all(report.json().as_bytes())
                .map_err(failed_write)?,
            Print::Summary => writeln!(
                out,
                "{path}: {} ({} requests, {} defects{})",
                report.stats.package,
                report.stats.requests,
                report.defects.len(),
                if report.degraded() { ", degraded" } else { "" }
            )
            .map_err(failed_write)?,
            Print::Reports => {
                writeln!(
                    out,
                    "=== {} ({} defects) ===",
                    report.stats.package,
                    report.defects.len()
                )
                .map_err(failed_write)?;
                for d in &report.defects {
                    writeln!(out, "{}", d.render()).map_err(failed_write)?;
                }
            }
        }
        // Observability output goes to stderr so stdout stays
        // machine-parseable under --json. The stderr renderings stay
        // opt-in even when an exporter enabled recording.
        if view.trace {
            if let Some(t) = &report.trace {
                eprintln!("--- trace: {} ---", report.stats.package);
                eprint!("{}", t.render());
            }
        }
        if view.metrics && view.print != Print::Json {
            if let Some(m) = &report.metrics {
                eprintln!("--- metrics: {} ---", report.stats.package);
                eprint!("{}", m.render());
            }
        }
    }
    out.flush().map_err(failed_write)?;
    Ok(Batch {
        service,
        items,
        outcomes,
        failures,
        degraded,
    })
}

/// Writes the defect deltas to `path`: one JSONL record per
/// resubmitted-and-changed app, in input order (apps without a delta
/// contribute no line). Returns whether the write succeeded; a failure
/// is logged.
fn write_deltas(path: &Path, outcomes: &[nck_svc::AppOutcome], events: &Events) -> bool {
    let mut text = String::new();
    for delta in outcomes.iter().filter_map(|o| o.delta.as_ref()) {
        text.push_str(&serde_json::to_string(&delta.to_json()).expect("delta serializes"));
        text.push('\n');
    }
    match std::fs::write(path, text) {
        Ok(()) => {
            events.info(&format!("wrote {}", path.display()));
            true
        }
        Err(e) => {
            events.error(&format!("{}: {e}", path.display()));
            false
        }
    }
}

/// The run's exit code: failures first, then degraded analyses.
fn exit_code(failures: usize, degraded: usize) -> ExitCode {
    if failures > 0 {
        ExitCode::from(EXIT_FAILED)
    } else if degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("vet") => return vet_main(&args[1..]),
        Some("cache-gc") => return gc_main(&args[1..]),
        _ => {}
    }
    let Some(cl) = CommandLine::parse(&args, FLAGS, &["--delta-out", "--trace-out", "--log-json"])
    else {
        return usage();
    };
    let summary = cl.has("--summary");
    let json = cl.has("--json");
    let keep_going = cl.has("--keep-going") || cl.has("-k");
    let trace = cl.has("--trace");
    let metrics = cl.has("--metrics");
    let doctor_mode = cl.has("--doctor");
    let no_cache = cl.service.no_cache;
    let config = cl.service.config;
    let delta_out = cl.value("--delta-out").map(PathBuf::from);
    let trace_out = cl.value("--trace-out").map(PathBuf::from);
    let log_json = cl.value("--log-json").map(PathBuf::from);
    // `--doctor` reports on the cache dir and config alone; everything
    // else needs at least one bundle.
    if cl.paths.is_empty() && !doctor_mode {
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
    let mut events = cl.events;
    if let Some(sink) = &sink {
        events = events.with_sink(sink.clone());
    }
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

    let view = View {
        print: if doctor_mode {
            // The snapshot is the only stdout content.
            Print::Nothing
        } else if json {
            Print::Json
        } else if summary {
            Print::Summary
        } else {
            Print::Reports
        },
        keep_going,
        trace,
        metrics,
    };
    let Batch {
        service,
        items,
        outcomes,
        mut failures,
        degraded,
    } = match run_batch(cl.service, obs, &cl.paths, &view) {
        Ok(batch) => batch,
        Err(code) => return code,
    };
    let cache_stats = AnalysisService::batch_stats(&outcomes);

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
        failures += usize::from(!write_deltas(path, &outcomes, &events));
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
            "cache: {} hit(s), {} miss(es) ({:.0}% whole-report)",
            cache_stats.hits,
            cache_stats.misses,
            cache_stats.hit_rate() * 100.0,
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

    exit_code(failures, degraded)
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
    let Some(cl) = CommandLine::parse(
        args,
        SERVE_FLAGS,
        &["--socket", "--watch", "--poll-ms", "--queue-capacity"],
    ) else {
        return usage();
    };
    let stdio = cl.has("--stdio");
    let socket = cl.value("--socket").map(PathBuf::from);
    let watch = cl.value("--watch").map(PathBuf::from);
    let (Ok(poll_ms), Ok(queue_capacity)) = (
        cl.number::<u64>("--poll-ms", 0),
        cl.number::<usize>("--queue-capacity", 0),
    ) else {
        return usage();
    };
    // Exactly one transport, and no positional arguments.
    if stdio == socket.is_some() || queue_capacity == Some(0) || !cl.paths.is_empty() {
        return usage();
    }

    let events = cl.events;
    let daemon = Arc::new(Daemon::new(
        DaemonOptions {
            service: cl.service,
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
        std::thread::spawn(move || watch_loop(&d, &dir, poll_ms.unwrap_or(500), &ev))
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
/// path — the fixed input order a sharded corpus tree is vetted in. The
/// walk descends only into real directories: a symlinked directory is
/// not followed (a link to an ancestor would loop), while a symlinked
/// bundle file is collected like any other.
fn collect_corpus_dir(dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
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

/// The `nchecker vet` entry point: the one-shot batch over a corpus,
/// kept going past failures, with every report printed in input order
/// as `nchecker --json` prints it.
fn vet_main(args: &[String]) -> ExitCode {
    let Some(mut cl) = CommandLine::parse(
        args,
        VET_FLAGS,
        &["--workers", "--delta-out", "--corpus-dir"],
    ) else {
        return usage();
    };
    let (Ok(workers), Ok(jobs)) = (
        cl.number::<usize>("--workers", 1),
        cl.number::<usize>("--jobs", 1),
    ) else {
        return usage();
    };
    // `--workers N --jobs J` runs N × J pool threads, the analysis
    // threads of N processes with J each. Without `--jobs` the pool has
    // the one-shot default, which already fills every core.
    cl.service.jobs = jobs.map(|j| workers.unwrap_or(2).saturating_mul(j));
    let threads = cl.service.jobs.unwrap_or_else(nck_svc::default_workers);
    let summary = cl.has("--summary");
    let delta_out = cl.value("--delta-out").map(PathBuf::from);
    let events = cl.events.clone();
    let mut paths = std::mem::take(&mut cl.paths);
    if let Some(dir) = cl.value("--corpus-dir") {
        if let Err(e) = collect_corpus_dir(Path::new(dir), &mut paths) {
            events.error(&format!("{dir}: {e}"));
            return ExitCode::from(EXIT_FAILED);
        }
    }
    if paths.is_empty() {
        return usage();
    }

    let view = View {
        print: if summary { Print::Nothing } else { Print::Json },
        keep_going: true,
        trace: false,
        metrics: false,
    };
    let obs = Obs {
        events: events.clone(),
        ..Obs::disabled()
    };
    let Batch {
        outcomes,
        mut failures,
        degraded,
        ..
    } = match run_batch(cl.service, obs, &paths, &view) {
        Ok(batch) => batch,
        Err(code) => return code,
    };
    if let Some(path) = &delta_out {
        failures += usize::from(!write_deltas(path, &outcomes, &events));
    }
    events.warn(&format!(
        "vet: {} app(s) on {threads} thread(s): {} completed, {failures} failed, \
         {degraded} degraded, {} delta(s), {} cache hit(s)",
        paths.len(),
        outcomes.iter().filter(|o| o.report.is_ok()).count(),
        outcomes.iter().filter(|o| o.delta.is_some()).count(),
        AnalysisService::batch_stats(&outcomes).hits,
    ));
    exit_code(failures, degraded)
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
    let store = AnalysisStore::with_budgets(0, 0, Some(dir));
    let stats = store.gc_disk(budget, &Obs::disabled());
    println!(
        "cache-gc: {} records ({} bytes) -> kept {}, dropped {}, freed {} bytes, {} bytes live",
        stats.entries,
        stats.bytes,
        stats.kept(),
        stats.evicted,
        stats.freed_bytes,
        stats.live_bytes(),
    );
    ExitCode::SUCCESS
}

/// The `--watch` loop: polls the directory and submits changed
/// bundles under their path as the cache key, so an edited bundle's
/// reply carries a defect delta against its previous version. Bundles whose
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
/// summary record with the latency percentiles. Keys are sorted.
fn emit_jsonl(
    sink: &JsonlSink,
    items: &[(String, Vec<u8>)],
    outcomes: &[nck_svc::AppOutcome],
    cache_stats: &nck_svc::BatchCacheStats,
    merged: &nck_obs::MetricsSnapshot,
    latency: &mut Series,
) {
    let emit = |record: Value| sink.emit(&serde_json::to_string(&record).expect("record encodes"));
    for ((path, _), outcome) in items.iter().zip(outcomes) {
        let report = match &outcome.report {
            Ok(report) => report,
            Err(e) => {
                emit(json!({ "t": "app", "app": path, "error": e.to_string() }));
                continue;
            }
        };
        let mut rec = json!({
            "t": "app",
            "app": path,
            "package": report.stats.package,
            "defects": report.defects.len(),
            "degraded": report.degraded(),
            "cache_hit": outcome.hit,
        });
        if let (Some(t), Value::Object(fields)) = (&report.trace, &mut rec) {
            let mut per_app = PhaseTotals::new();
            per_app.absorb(t);
            let phases = per_app.iter().map(|(phase_path, total)| {
                let total = json!({
                    "us": total.nanos / 1_000,
                    "items": total.items,
                    "count": total.count,
                });
                (phase_path.to_owned(), total)
            });
            fields.insert("wall_us".to_owned(), json!(t.wall_nanos() / 1_000));
            fields.insert("phases".to_owned(), Value::Object(phases.collect()));
        }
        emit(rec);
    }
    emit(json!({
        "t": "cache",
        "hits": cache_stats.hits,
        "misses": cache_stats.misses,
        "degraded": cache_stats.degraded,
        "evictions": counter(merged, "svc.cache.evict"),
    }));
    emit(json!({
        "t": "funnel",
        "prescan_skipped": counter(merged, "prescan.skipped"),
    }));
    let mut run = json!({
        "t": "run",
        "apps": items.len(),
        "failed": outcomes.iter().filter(|o| o.report.is_err()).count(),
        "cache_mem_entries": merged.gauges.get("svc.cache.mem_entries").copied().unwrap_or(0),
    });
    if let (Some(p50), Some(p90), Some(p99), Value::Object(fields)) = (
        latency.percentile(50.0),
        latency.percentile(90.0),
        latency.percentile(99.0),
        &mut run,
    ) {
        for (key, us) in [
            ("wall_us_p50", p50),
            ("wall_us_p90", p90),
            ("wall_us_p99", p99),
            ("wall_us_max", latency.max().unwrap_or(0)),
        ] {
            fields.insert(key.to_owned(), json!(us));
        }
    }
    emit(run);
}

fn counter(snap: &nck_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}
