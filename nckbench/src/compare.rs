//! `nckbench compare A.jsonl B.jsonl`: does set B hold set A's numbers?
//!
//! For every end-to-end metric of `BENCHMARK.json` and every workload
//! present in both files, prints each side's median and quartiles over
//! its (untraced) runs, the change of B's median against A's, and a
//! verdict: `ok` when B is no worse than A by more than the metric's
//! bound, `WORSE` otherwise. Exits non-zero on any `WORSE` or on a
//! metric one side lacks.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `setup_s` also gets this absolute allowance, in seconds: a process
/// spawn is a few milliseconds, so a relative bound alone would flag
/// scheduler noise.
const SETUP_FLOOR_S: f64 = 0.005;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end metric specs from a `BENCHMARK.json` document.
pub fn specs(doc: &Value) -> Result<Vec<Spec>, String> {
    doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_owned(),
                unit: m["unit"].as_str().unwrap_or("").to_owned(),
                higher_is_better: m["better"].as_str() == Some("higher"),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Values of each `(workload, metric)` over the untraced, full-size runs
/// of a results file (one JSON record per line).
pub fn load(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record["trace"].as_bool() == Some(true) || record["smoke"].as_bool() == Some(true) {
            continue;
        }
        let workload = record["workload"].as_str().unwrap_or("?").to_owned();
        for (name, m) in record["metrics"].as_object().into_iter().flatten() {
            if let Some(v) = m["value"].as_f64() {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The verdict on one metric × workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Relative change of B's median against A's, signed so that
    /// positive is worse.
    pub worse_by: f64,
    pub ok: bool,
}

/// Judges B against A. `floor` is an absolute allowance in the metric's
/// unit, added to the relative bound.
pub fn judge(spec: &Spec, floor: f64, a: &[f64], b: &[f64]) -> Option<Judgement> {
    let (ma, mb) = (median(a)?, median(b)?);
    let delta = if spec.higher_is_better {
        ma - mb
    } else {
        mb - ma
    };
    Some(Judgement {
        worse_by: delta / ma.abs().max(f64::MIN_POSITIVE),
        ok: delta <= spec.bound * ma.abs() + floor,
    })
}

fn describe(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:>11.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        _ => "—".to_owned(),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(path) => benchmark = path.clone(),
                None => return fail("--benchmark needs a path"),
            }
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return fail("usage: nckbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]");
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = (|| -> Result<_, String> {
        let doc =
            serde_json::from_str(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
        Ok((specs(&doc)?, load(&read(a_path)?)?, load(&read(b_path)?)?))
    })();
    let (specs, a, b) = match loaded {
        Ok(l) => l,
        Err(msg) => return fail(&msg),
    };
    let workloads: std::collections::BTreeSet<&String> =
        a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    let mut misses = 0;
    for workload in workloads {
        for spec in &specs {
            let key = (workload.clone(), spec.name.clone());
            let (va, vb) = (a.get(&key), b.get(&key));
            let floor = if spec.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = match (va, vb) {
                (Some(va), Some(vb)) => judge(spec, floor, va, vb),
                _ => None,
            };
            let (change, word) = match &verdict {
                Some(j) => (
                    format!("{:+.1}%", j.worse_by * 100.0),
                    if j.ok { "ok" } else { "WORSE" },
                ),
                None => ("—".to_owned(), "MISSING"),
            };
            if !matches!(verdict, Some(Judgement { ok: true, .. })) {
                misses += 1;
            }
            println!(
                "{workload:<12} {:<15} {:<7} A {}  B {}  worse by {change:>7} (bound {:.0}%)  {word}",
                spec.name,
                spec.unit,
                describe(va.map_or(&[], Vec::as_slice)),
                describe(vb.map_or(&[], Vec::as_slice)),
                spec.bound * 100.0,
            );
        }
    }
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("nckbench compare: {misses} metric(s) out of bound or missing");
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("nckbench compare: {msg}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> Spec {
        Spec {
            name: "m".to_owned(),
            unit: "ms".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn lower_is_better_within_and_beyond_the_bound() {
        let a = [10.0, 10.2, 9.8];
        let within = judge(&spec(false, 0.1), 0.0, &a, &[10.9, 11.0, 10.8]).unwrap();
        assert!(within.ok);
        assert!((within.worse_by - 0.09).abs() < 1e-9);
        let beyond = judge(&spec(false, 0.1), 0.0, &a, &[11.5, 11.2, 11.3]).unwrap();
        assert!(!beyond.ok);
        let better = judge(&spec(false, 0.1), 0.0, &a, &[5.0]).unwrap();
        assert!(better.ok && better.worse_by < 0.0);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let a = [1000.0, 1010.0, 990.0];
        assert!(judge(&spec(true, 0.1), 0.0, &a, &[1200.0]).unwrap().ok);
        let drop = judge(&spec(true, 0.1), 0.0, &a, &[850.0]).unwrap();
        assert!(!drop.ok);
        assert!((drop.worse_by - 0.15).abs() < 1e-9);
    }

    #[test]
    fn the_absolute_floor_widens_small_metrics() {
        let a = [0.010];
        // 0.010 → 0.014 s is +40%: beyond a 25% bound alone, within
        // bound + 5 ms.
        assert!(!judge(&spec(false, 0.25), 0.0, &a, &[0.014]).unwrap().ok);
        assert!(
            judge(&spec(false, 0.25), SETUP_FLOOR_S, &a, &[0.014])
                .unwrap()
                .ok
        );
        assert!(judge(&spec(false, 0.25), 0.0, &[], &[1.0]).is_none());
    }

    #[test]
    fn results_files_skip_traced_and_smoke_runs() {
        let text = r#"{"workload": "dev-edit", "trace": false, "smoke": false, "metrics": {"latency_p50_ms": {"value": 1.5, "unit": "ms"}}}
{"workload": "dev-edit", "trace": true, "smoke": false, "metrics": {"ir.lift_us": {"value": 9.0, "unit": "us"}}}
{"workload": "dev-edit", "trace": false, "smoke": true, "metrics": {"latency_p50_ms": {"value": 99.0, "unit": "ms"}}}

{"workload": "dev-edit", "trace": false, "smoke": false, "metrics": {"latency_p50_ms": {"value": 1.7, "unit": "ms"}}}
"#;
        let loaded = load(text).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded[&("dev-edit".to_owned(), "latency_p50_ms".to_owned())],
            vec![1.5, 1.7]
        );
        assert!(load("not json").is_err());
    }

    #[test]
    fn specs_come_from_the_benchmark_document() {
        let doc = serde_json::from_str(
            r#"{"end_to_end": [{"name": "apps_per_s", "unit": "apps/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let got = specs(&doc).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got[0].higher_is_better);
        assert!(!got[1].higher_is_better);
        assert_eq!(got[1].bound, 0.25);
        assert!(specs(&serde_json::from_str("{}").unwrap()).is_err());
    }
}
