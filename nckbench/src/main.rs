//! `nckbench`: the end-to-end benchmark of `nchecker vet` (the store
//! path) and `nchecker serve` (the developer path), with a per-layer
//! ledger from an in-process traced twin.
//!
//! ```text
//! nckbench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! nckbench --smoke [--seed N] [--out DIR]
//! nckbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed` into a run directory, then
//! drives the `nchecker` binary that sits beside this executable. With
//! tracing off it prints every end-to-end metric; with `--trace` it
//! replays one batch through each layer's public calls in process and
//! prints the per-layer metrics, writing `<out>/<workload>.trace.json`
//! and `<out>/<workload>.ledger.json`. Either way the last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. Each
//! run also appends its full record to `<out>/results.jsonl`, which
//! `compare` reads. See README.md.

mod check;
mod compare;
mod dev;
mod gen;
mod ledger;
mod stats;
mod store;
mod sys;
mod trace;
mod twin;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarizes (reps, waves, rounds or requests).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// App verdicts requested in the measured phase.
    pub attempted: usize,
    /// Verdicts missing or failed.
    pub failed: usize,
    pub verdicts: check::Verdicts,
    /// The metrics of the result line: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Reported alongside, outside the result line.
    pub extra: Vec<Metric>,
    /// Raw per-batch samples behind the medians (set-up walls, per-rep,
    /// per-wave or per-round values), kept in the results file.
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StoreCold,
    StoreChurn,
    DevCold,
    DevEdit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StoreCold,
        Workload::StoreChurn,
        Workload::DevCold,
        Workload::DevEdit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreCold => "store-cold",
            Workload::StoreChurn => "store-churn",
            Workload::DevCold => "dev-cold",
            Workload::DevEdit => "dev-edit",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes of a run. They scale with `--seconds` at fixed quotas
/// (not with elapsed time), so two builds under comparison always do
/// identical work.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Apps in the store tree.
    pub store_apps: usize,
    /// `store-cold` one-shot vets.
    pub reps: usize,
    /// `store-churn` waves.
    pub waves: usize,
    /// `dev-*` version rounds (versions `v1..=rounds` of 285 apps).
    pub rounds: usize,
    /// Set-up repetitions behind `setup_s`.
    pub setups: usize,
    /// `dev-*` rounds the traced twin replays.
    pub trace_rounds: usize,
}

impl Sizes {
    pub fn for_seconds(seconds: u64) -> Sizes {
        let s = seconds.max(1) as usize;
        Sizes {
            store_apps: 2_000,
            reps: (s / 2).max(2),
            waves: (s * 3 / 2).max(2),
            rounds: (s * 2).max(2),
            setups: 21,
            trace_rounds: 3,
        }
    }

    /// Toy sizes: every workload and check, in seconds.
    pub fn smoke() -> Sizes {
        Sizes {
            store_apps: 500,
            reps: 1,
            waves: 2,
            rounds: 3,
            setups: 3,
            trace_rounds: 2,
        }
    }

    fn to_json(self) -> Value {
        json!({
            "store_apps": self.store_apps,
            "reps": self.reps,
            "waves": self.waves,
            "rounds": self.rounds,
            "dev_apps": nck_appgen::profile::CORPUS_SIZE,
            "setups": self.setups,
            "trace_rounds": self.trace_rounds,
            "churn_pct": store::CHURN_PCT,
            "vet_workers": store::WORKERS,
        })
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("nckbench: {msg}");
    eprintln!(
        "usage: nckbench --workload {{store-cold|store-churn|dev-cold|dev-edit}} [--seed N] \
         [--seconds S] [--trace [0|1]] [--out DIR]\n\
         \x20      nckbench --smoke [--seed N] [--out DIR]\n\
         \x20      nckbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2016,
        seconds: 10,
        trace: false,
        smoke: false,
        out: PathBuf::from(".nckbench"),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes an integer")?
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.smoke {
        return Err("--workload or --smoke is required".to_owned());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let exe = match sys::nchecker_exe() {
        Ok(exe) => exe,
        Err(msg) => {
            eprintln!("nckbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("nckbench: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let (workloads, sizes) = match args.workload {
        Some(w) if !args.smoke => (vec![w], Sizes::for_seconds(args.seconds)),
        Some(w) => (vec![w], Sizes::smoke()),
        None => (Workload::ALL.to_vec(), Sizes::smoke()),
    };

    let mut outcomes = Vec::new();
    for workload in workloads {
        let outcome = match run_one(&exe, workload, &args, &sizes) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("nckbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        print_human(workload, &outcome);
        let record = record_json(workload, &args, &sizes, &outcome);
        if let Err(e) = append_line(&args.out.join("results.jsonl"), &record) {
            eprintln!("nckbench: results: {e}");
            return ExitCode::FAILURE;
        }
        outcomes.push(outcome);
    }
    let all_correct = outcomes.iter().all(|o| o.verdicts.mismatches.is_empty());
    // One workload: its result. Several (smoke): the totals, no metrics.
    let line = match outcomes.as_slice() {
        [one] => result_line(one),
        many => serde_json::to_string(&json!({
            "correct": all_correct,
            "attempted": many.iter().map(|o| o.attempted).sum::<usize>(),
            "failed": many.iter().map(|o| o.failed).sum::<usize>(),
            "metrics": {},
        }))
        .expect("result serializes"),
    };
    println!("{line}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh run directory (removed afterwards).
fn run_one(exe: &Path, workload: Workload, args: &Args, sizes: &Sizes) -> std::io::Result<Outcome> {
    let run_dir = args
        .out
        .join(format!("run-{}-{}", workload.name(), std::process::id()));
    let run_dir = store::fresh_dir(&run_dir)?;
    let run_dir = run_dir.canonicalize()?;
    let result = if args.trace {
        trace::run(exe, workload, &run_dir, &args.out, args.seed, sizes)
    } else {
        match workload {
            Workload::StoreCold => store::cold(exe, &run_dir, args.seed, sizes),
            Workload::StoreChurn => store::churn(exe, &run_dir, args.seed, sizes),
            Workload::DevCold => dev::run(exe, &run_dir, args.seed, sizes, false),
            Workload::DevEdit => dev::run(exe, &run_dir, args.seed, sizes, true),
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn print_human(workload: Workload, outcome: &Outcome) {
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!(
            "{} {:<38} {:>14.4} {:<7} (n={})",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
    println!(
        "{} attempted={} failed={} verified={}",
        workload.name(),
        outcome.attempted,
        outcome.failed,
        outcome.verdicts.verified
    );
    for m in &outcome.verdicts.mismatches {
        eprintln!("{}: MISMATCH: {m}", workload.name());
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
    let map: BTreeMap<String, Value> = metrics
        .iter()
        .map(|m| {
            let v = if with_samples {
                json!({"value": m.value, "unit": m.unit, "samples": m.samples})
            } else {
                json!({"value": m.value, "unit": m.unit})
            };
            (m.name.clone(), v)
        })
        .collect();
    Value::Object(map)
}

/// The result: the last stdout line of a run.
fn result_line(outcome: &Outcome) -> String {
    serde_json::to_string(&json!({
        "correct": outcome.verdicts.mismatches.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics_json(&outcome.metrics, false),
    }))
    .expect("result serializes")
}

/// The full record appended to `results.jsonl`: the result plus what
/// makes runs comparable (host, filesystem, revision, sizes).
fn record_json(workload: Workload, args: &Args, sizes: &Sizes, outcome: &Outcome) -> Value {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    json!({
        "workload": workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": sys::nproc(),
        "run_fs": sys::fs_type(&args.out),
        "git_rev": sys::git_rev(&cwd),
        "sizes": sizes.to_json(),
        "correct": outcome.verdicts.mismatches.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "verified": outcome.verdicts.verified,
        "metrics": metrics_json(&outcome.metrics, true),
        "extra": metrics_json(&outcome.extra, true),
        "series": Value::Object(
            outcome
                .series
                .iter()
                .map(|(name, v)| (name.to_string(), json!(v)))
                .collect(),
        ),
    })
}

fn append_line(path: &Path, record: &Value) -> std::io::Result<()> {
    use std::io::Write;
    let mut line = serde_json::to_string(record).expect("record serializes");
    line.push('\n');
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}
