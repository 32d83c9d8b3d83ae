//! Runs the full evaluation once and prints every corpus-derived table
//! and figure (6, 7, 8, 9 + the Section 5.2 headline numbers), reusing a
//! single corpus pass. The pass runs with tracing and metrics enabled
//! and writes the per-phase wall-time breakdown and corpus throughput to
//! `BENCH_pipeline.json`.

use nchecker::{CheckerConfig, CorpusStats};
use nck_bench::{aggregate, collect_obs, downsample, latency_series, run_specs, SEED};
use nck_obs::{MetricsSnapshot, Obs, PhaseTotals, Series};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Serializes the corpus-level pipeline observations: throughput,
/// per-app latency percentiles, per-phase totals with their share of
/// the root phase, and the merged metrics snapshot.
fn pipeline_json(
    apps: usize,
    elapsed: std::time::Duration,
    phases: &PhaseTotals,
    metrics: &MetricsSnapshot,
    latency: &mut Series,
) -> Value {
    let wall_ms = elapsed.as_secs_f64() * 1e3;
    // Per-phase share of total per-app time, denominated in the "app"
    // root phase (every other path nests under it).
    let app_nanos = phases
        .iter()
        .find(|(path, _)| *path == "app")
        .map_or(0, |(_, t)| t.nanos);
    let phase_obj: BTreeMap<String, Value> = phases
        .iter()
        .map(|(path, t)| {
            (
                path.to_owned(),
                json!({
                    "total_ms": t.millis(),
                    "items": t.items,
                    "count": t.count,
                    "share": if app_nanos > 0 {
                        t.nanos as f64 / app_nanos as f64
                    } else {
                        0.0
                    },
                }),
            )
        })
        .collect();
    let counters: BTreeMap<String, Value> = metrics
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), json!(v)))
        .collect();
    let gauges: BTreeMap<String, Value> = metrics
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), json!(*v)))
        .collect();
    let histograms: BTreeMap<String, Value> = metrics
        .histograms
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                json!({
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean(),
                }),
            )
        })
        .collect();
    json!({
        "schema": 1,
        "seed": SEED,
        "apps": apps,
        "wall_ms": wall_ms,
        "ms_per_app": wall_ms / apps.max(1) as f64,
        "apps_per_sec": apps as f64 / elapsed.as_secs_f64().max(1e-9),
        "latency_us": {
            "count": latency.count(),
            "mean": latency.mean(),
            "p50": latency.percentile(50.0).unwrap_or(0),
            "p90": latency.percentile(90.0).unwrap_or(0),
            "p99": latency.percentile(99.0).unwrap_or(0),
            "max": latency.max().unwrap_or(0),
        },
        "phases": Value::Object(phase_obj),
        "metrics": {
            "counters": Value::Object(counters),
            "gauges": Value::Object(gauges),
            "histograms": Value::Object(histograms),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let passes: usize = args
        .iter()
        .position(|a| a == "--passes")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);

    let specs = nck_appgen::profile::corpus(SEED);
    // The recorded throughput is the best of `passes` full corpus runs:
    // the number of interest is the pipeline's capability, not the noise
    // floor of a shared host. Reports and phase observations come from
    // the fastest pass (every pass produces identical reports — the
    // determinism suite enforces that).
    let mut best = None;
    for _ in 0..passes {
        let start = std::time::Instant::now();
        let outcome = run_specs(&specs, CheckerConfig::default(), &Obs::enabled());
        let elapsed = start.elapsed();
        if best
            .as_ref()
            .is_none_or(|(prev, _): &(std::time::Duration, _)| elapsed < *prev)
        {
            best = Some((elapsed, outcome));
        }
    }
    let (elapsed, outcome) = best.expect("at least one pass");
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    let failed = outcome.failures.len();
    let degraded = outcome.degraded_count();
    let reports = outcome.into_succeeded();
    let stats = aggregate(&reports);
    let (phases, metrics) = collect_obs(&reports);

    println!("=== NChecker full evaluation (seed {SEED}) ===");
    println!(
        "analyzed {} apps in {:.2?} ({:.0} ms/app, best of {passes} passes)",
        stats.len(),
        elapsed,
        elapsed.as_millis() as f64 / stats.len() as f64
    );
    println!("faults: {failed} apps failed, {degraded} analyzed degraded\n");

    println!(
        "Headline (Section 5.2): {} NPDs in {} of {} apps",
        stats.total_defects(),
        stats.buggy_apps(),
        stats.len()
    );
    println!();

    println!("--- Table 6 ---");
    for row in stats.table6() {
        println!(
            "{:<30} {:>6}/{:<6} ({:.0}%)",
            row.cause,
            row.buggy,
            row.evaluated,
            row.percent()
        );
    }
    println!();

    println!("--- Table 8 ---");
    for row in stats.table8() {
        println!(
            "{:<30} {:>4.0}%   (default-caused {:.0}%)",
            row.behaviour,
            row.apps as f64 / row.population.max(1) as f64 * 100.0,
            row.default_caused_percent
        );
    }
    println!();

    println!("--- Figure 8 (10-quantile summary) ---");
    let conn = CorpusStats::cdf(&stats.conn_miss_ratios());
    let to = CorpusStats::cdf(&stats.timeout_miss_ratios());
    println!(
        "conn:    {:?}",
        downsample(&conn, 10)
            .iter()
            .map(|(x, _)| format!("{x:.2}"))
            .collect::<Vec<_>>()
    );
    println!(
        "timeout: {:?}",
        downsample(&to, 10)
            .iter()
            .map(|(x, _)| format!("{x:.2}"))
            .collect::<Vec<_>>()
    );
    println!();

    println!("--- Figure 9 (10-quantile summary) ---");
    let nf = CorpusStats::cdf(&stats.notification_miss_ratios());
    println!(
        "notif:   {:?}",
        downsample(&nf, 10)
            .iter()
            .map(|(x, _)| format!("{x:.2}"))
            .collect::<Vec<_>>()
    );
    println!();

    println!("--- Section 5.2 extras ---");
    println!(
        "custom retry apps: {:.0}%   error types ignored: {:.0}%   responses unchecked: {:.0}%",
        stats.custom_retry_rate() * 100.0,
        stats.error_type_ignored_rate() * 100.0,
        stats.response_miss_rate() * 100.0
    );
    let (e, i) = stats.notification_by_callback_kind();
    println!(
        "notified requests: explicit callbacks {:.0}% vs implicit {:.0}%",
        e * 100.0,
        i * 100.0
    );
    println!();

    println!("--- Pipeline phases (corpus totals) ---");
    for (path, t) in phases.iter() {
        println!(
            "{path:<40} {:>10.3} ms  ({} spans, {} items)",
            t.millis(),
            t.count,
            t.items
        );
    }
    let mut latency = latency_series(&reports);
    if let (Some(p50), Some(p90), Some(p99)) = (
        latency.percentile(50.0),
        latency.percentile(90.0),
        latency.percentile(99.0),
    ) {
        println!("\nper-app latency: p50 {p50} µs, p90 {p90} µs, p99 {p99} µs");
    }

    let mut doc = pipeline_json(reports.len(), elapsed, &phases, &metrics, &mut latency);
    // Merge-preserve every section another tool owns: run_all replaces
    // only the top-level keys it writes.
    let recorded: Option<Value> = std::fs::read_to_string("BENCH_pipeline.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    if let (Some(Value::Object(old)), Value::Object(new)) = (recorded, &mut doc) {
        for (key, section) in old {
            new.entry(key).or_insert(section);
        }
    }
    let out = serde_json::to_string_pretty(&doc).expect("pipeline doc serializes");
    std::fs::write("BENCH_pipeline.json", out).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
    if failed > 0 {
        std::process::exit(1);
    }
}
