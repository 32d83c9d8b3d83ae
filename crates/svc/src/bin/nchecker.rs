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
use nck_obs::{
    Events, JsonlSink, Level, Metrics, MetricsSnapshot, Obs, PhaseTotals, PipelineTrace, Series,
    Tracer,
};
use nck_svc::{
    daemon, doctor, AnalysisService, AnalysisStore, AppOutcome, BatchCacheStats, Daemon,
    DaemonOptions, ServiceOptions, Watcher,
};
use serde_json::{json, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::ControlFlow;
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
    /// Keep each app's trace for `--trace-out`.
    keep_traces: bool,
}

/// What a batch adds up as it folds each app in, in input order. An
/// unreadable bundle and a failed analysis are each one failed app.
#[derive(Default)]
struct Tally {
    /// Unreadable bundles plus failed analyses.
    failures: usize,
    /// Hits, misses and degraded analyses of the apps that finished.
    cache: BatchCacheStats,
    deltas: usize,
    merged: MetricsSnapshot,
    phases: PhaseTotals,
    latency: Series,
    /// `(label, trace)` per app, kept only for `--trace-out`.
    traces: Vec<(String, PipelineTrace)>,
    /// The `--delta-out` file, or the error that creating or writing it
    /// hit.
    delta_file: Option<std::io::Result<BufWriter<File>>>,
    /// Output files (`--delta-out`, `--trace-out`) that could not be
    /// written.
    write_failures: usize,
}

impl Tally {
    /// Counts a failed app: one logged `<path>: <error>` line and its
    /// `app` record. It prints nothing, so it cannot fail.
    fn fail(
        &mut self,
        path: &str,
        error: &dyn std::fmt::Display,
        events: &Events,
    ) -> std::io::Result<()> {
        let error = error.to_string();
        events.error(&format!("{path}: {error}"));
        self.failures += 1;
        if let Some(sink) = events.sink() {
            emit_record(sink, json!({ "t": "app", "app": path, "error": error }));
        }
        Ok(())
    }

    /// Folds one app in: prints it, logs it, and adds it to every
    /// count. `Err` is a failed stdout write.
    fn add(
        &mut self,
        path: &str,
        loaded: std::io::Result<AppOutcome>,
        view: &View,
        events: &Events,
    ) -> std::io::Result<()> {
        let outcome = match loaded {
            Ok(outcome) => outcome,
            Err(e) => return self.fail(path, &e, events),
        };
        let report = match &outcome.report {
            Ok(report) => report,
            Err(e) => return self.fail(path, e, events),
        };
        self.cache.count(&outcome);
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
        let mut out = std::io::stdout().lock();
        match view.print {
            Print::Nothing => {}
            Print::Json => out.write_all(report.json().as_bytes())?,
            Print::Summary => writeln!(
                out,
                "{path}: {} ({} requests, {} defects{})",
                report.stats.package,
                report.stats.requests,
                report.defects.len(),
                if report.degraded() { ", degraded" } else { "" }
            )?,
            Print::Reports => {
                writeln!(
                    out,
                    "=== {} ({} defects) ===",
                    report.stats.package,
                    report.defects.len()
                )?;
                for d in &report.defects {
                    writeln!(out, "{}", d.render())?;
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
        // A disk hit's undecoded stored report carries no telemetry.
        if report.is_decoded() {
            if let Some(m) = &report.metrics {
                self.merged.merge(m);
            }
            if let Some(t) = &report.trace {
                self.phases.absorb(t);
                self.latency.push(t.wall_nanos() / 1_000);
                if view.keep_traces {
                    let label = match report.stats.package.as_str() {
                        "" => path,
                        package => package,
                    };
                    self.traces.push((label.to_owned(), t.clone()));
                }
            }
        }
        if let Some(sink) = events.sink() {
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
            emit_record(sink, rec);
        }
        if let Some(delta) = &outcome.delta {
            self.deltas += 1;
            if let Some(Ok(file)) = &mut self.delta_file {
                let line = serde_json::to_string(&delta.to_json()).expect("delta serializes");
                if let Err(e) = writeln!(file, "{line}") {
                    self.delta_file = Some(Err(e));
                }
            }
        }
        Ok(())
    }
}

/// The batch path `nchecker` and `nchecker vet` share, one pass over
/// the service's pool: a worker reads each bundle when it claims it and
/// drops it once analyzed, and each outcome is folded into the
/// [`Tally`] in input order — the report on stdout, a failure as one
/// logged `<path>: <error>` line, the deltas into `delta_out`. `Err` is
/// the exit code of a batch that stopped at its first failure (without
/// `keep_going`, claiming nothing after it) or could not write stdout.
fn run_batch(
    options: ServiceOptions,
    obs: Obs,
    paths: &[String],
    view: &View,
    delta_out: Option<&Path>,
) -> Result<(AnalysisService, Tally), ExitCode> {
    let events = obs.events.clone();
    // This batch is the process's only one and its keys rarely repeat
    // (the disk tier, when given, still serves a repeat), so nothing
    // would ever read a memory entry: keep none.
    let options = ServiceOptions {
        mem_budget: Some(0),
        ..options
    };
    let service = AnalysisService::new(options, obs);
    let mut tally = Tally {
        delta_file: delta_out.map(|path| File::create(path).map(BufWriter::new)),
        ..Tally::default()
    };
    let mut stdout_failed = false;
    service.analyze_each(
        paths.len(),
        |i| {
            let bytes = std::fs::read(&paths[i])?;
            events.debug(&format!("{}: read {} bytes", paths[i], bytes.len()));
            Ok((paths[i].as_str(), bytes))
        },
        !view.keep_going,
        |i, loaded| match tally.add(&paths[i], loaded, view, &events) {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => {
                stdout_failed = true;
                ControlFlow::Break(())
            }
        },
    );
    if stdout_failed
        || std::io::stdout().flush().is_err()
        || (tally.failures > 0 && !view.keep_going)
    {
        return Err(ExitCode::from(EXIT_FAILED));
    }
    if let (Some(path), Some(file)) = (delta_out, tally.delta_file.take()) {
        match file.and_then(|mut file| file.flush()) {
            Ok(()) => events.info(&format!("wrote {}", path.display())),
            Err(e) => {
                events.error(&format!("{}: {e}", path.display()));
                tally.write_failures += 1;
            }
        }
    }
    Ok((service, tally))
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
        keep_traces: trace_out.is_some(),
    };
    let (service, mut tally) =
        match run_batch(cl.service, obs, &cl.paths, &view, delta_out.as_deref()) {
            Ok(batch) => batch,
            Err(code) => return code,
        };
    // The per-app snapshots cannot see the store; the batch end is the
    // only point where its occupancy is final.
    let store_metrics = Metrics::enabled();
    service.store().record_gauges(&store_metrics);
    tally.merged.merge(&store_metrics.snapshot());

    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, nck_obs::chrome_trace(&tally.traces)) {
            events.error(&format!("{}: {e}", path.display()));
            tally.write_failures += 1;
        } else {
            events.info(&format!(
                "wrote {} ({} app traces)",
                path.display(),
                tally.traces.len()
            ));
        }
    }

    if let Some(sink) = &sink {
        emit_run_records(sink, cl.paths.len(), &mut tally);
        sink.flush();
    }

    if doctor_mode {
        let report = doctor::DoctorReport {
            config: &config,
            store: service.store(),
            metrics: &tally.merged,
            phases: &tally.phases,
            apps: cl.paths.len(),
            failed: tally.failures,
            degraded: tally.cache.degraded,
        };
        print!("{}", doctor::render(&report));
    } else if !no_cache && !cl.paths.is_empty() {
        // Cache accounting, part of the end-of-run report. Stderr under
        // --json so stdout stays one JSON document per app.
        let mut line = format!(
            "cache: {} hit(s), {} miss(es) ({:.0}% whole-report)",
            tally.cache.hits,
            tally.cache.misses,
            tally.cache.hit_rate() * 100.0,
        );
        if let (Some(p50), Some(p90), Some(p99)) = (
            tally.latency.percentile(50.0),
            tally.latency.percentile(90.0),
            tally.latency.percentile(99.0),
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

    exit_code(tally.failures + tally.write_failures, tally.cache.degraded)
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
        keep_traces: false,
    };
    let obs = Obs {
        events: events.clone(),
        ..Obs::disabled()
    };
    let tally = match run_batch(cl.service, obs, &paths, &view, delta_out.as_deref()) {
        Ok((_, tally)) => tally,
        Err(code) => return code,
    };
    let failures = tally.failures + tally.write_failures;
    let cache = tally.cache;
    events.warn(&format!(
        "vet: {} app(s) on {threads} thread(s): {} completed, {failures} failed, \
         {} degraded, {} delta(s), {} cache hit(s)",
        paths.len(),
        cache.hits + cache.misses,
        cache.degraded,
        tally.deltas,
        cache.hits,
    ));
    exit_code(failures, cache.degraded)
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

/// One batch record on the `--log-json` sink, keys sorted.
fn emit_record(sink: &JsonlSink, record: Value) {
    sink.emit(&serde_json::to_string(&record).expect("record encodes"));
}

/// Writes the batch's closing JSONL records, after the per-app `app`
/// records: one `cache` record, one `funnel` record (prescan counters),
/// and one `run` summary record with the latency percentiles.
fn emit_run_records(sink: &JsonlSink, apps: usize, tally: &mut Tally) {
    let (merged, latency) = (&tally.merged, &mut tally.latency);
    let mut run = json!({
        "t": "run",
        "apps": apps,
        "failed": tally.failures,
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
    let cache = json!({
        "t": "cache",
        "hits": tally.cache.hits,
        "misses": tally.cache.misses,
        "degraded": tally.cache.degraded,
        "evictions": counter(merged, "svc.cache.evict"),
    });
    let funnel = json!({
        "t": "funnel",
        "prescan_skipped": counter(merged, "prescan.skipped"),
    });
    for record in [cache, funnel, run] {
        emit_record(sink, record);
    }
}

fn counter(snap: &nck_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}
