//! The bench-regression gate: one declarative comparison of measured
//! `BENCH_pipeline.json` numbers against the committed
//! `BENCH_baseline.json`, replacing the ad-hoc `--smoke` floors the
//! individual benches used to carry.
//!
//! The baseline document has a `"metrics"` object whose keys are dotted
//! paths into the measured document (`"hotpath.apps_per_sec"`,
//! `"store_scale.warm_speedup"`, …) and whose values record the baseline number
//! plus the tolerance that turns host noise into a verdict:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "metrics": {
//!     "hotpath.apps_per_sec": { "value": 950.0, "min_ratio": 0.70 },
//!     "store_scale.gc.runs":       { "value": 0,    "max": 2 },
//!     "store_scale.warm_speedup":  { "value": 5.24, "min": 2.0 }
//!   }
//! }
//! ```
//!
//! Tolerances compose (every present bound must hold):
//!
//! - `min_ratio` / `max_ratio` — current ÷ baseline must stay within
//!   the ratio band (throughput floors: `min_ratio: 0.70` tolerates a
//!   30% regression, matching the old smoke floors);
//! - `min` / `max` — absolute bounds on the current value (structural
//!   invariants like "a warm store run is at least 2x a cold one");
//! - `optional: true` — a missing current value passes instead of
//!   failing (for sections a partial bench run did not regenerate).
//!
//! A metric missing from the measured document is otherwise a failure:
//! a gate that silently skips absent numbers rots into a no-op.

use serde_json::Value;

/// One declarative check parsed from the baseline's `"metrics"` map.
#[derive(Debug, Clone)]
pub struct Check {
    /// Dotted path into the measured document.
    pub metric: String,
    /// The recorded baseline value.
    pub baseline: f64,
    /// Floor on `current / baseline`.
    pub min_ratio: Option<f64>,
    /// Ceiling on `current / baseline`.
    pub max_ratio: Option<f64>,
    /// Absolute floor on the current value.
    pub min: Option<f64>,
    /// Absolute ceiling on the current value.
    pub max: Option<f64>,
    /// When set, a missing current value passes.
    pub optional: bool,
}

/// The verdict for one metric.
#[derive(Debug, PartialEq)]
pub enum Status {
    /// Within tolerance.
    Pass,
    /// Absent from the measured document, tolerated (`optional` or
    /// `allow_missing`).
    SkippedMissing,
    /// Absent from the measured document and required.
    Missing,
    /// Out of tolerance; the string says which bound broke.
    Fail(String),
}

/// One metric's evaluation: the check, the measured value (if any), and
/// the verdict.
#[derive(Debug)]
pub struct Outcome {
    /// Dotted path of the metric.
    pub metric: String,
    /// Baseline value it was compared against.
    pub baseline: f64,
    /// Measured value, when present.
    pub current: Option<f64>,
    /// The verdict.
    pub status: Status,
}

impl Outcome {
    /// Whether this outcome should fail the gate.
    pub fn failed(&self) -> bool {
        matches!(self.status, Status::Missing | Status::Fail(_))
    }
}

/// Resolves a dotted path (`"hotpath.apps_per_sec"`) to a number in
/// `doc`. Integers coerce to `f64`.
pub fn lookup(doc: &Value, path: &str) -> Option<f64> {
    let mut node = doc;
    for seg in path.split('.') {
        node = node.get(seg)?;
    }
    node.as_f64().or_else(|| node.as_i64().map(|n| n as f64))
}

/// Parses the baseline document's `"metrics"` map into checks, sorted
/// by metric path so reports are stable.
pub fn parse_baseline(doc: &Value) -> Result<Vec<Check>, String> {
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| "baseline has no \"metrics\" object".to_owned())?;
    let mut checks = Vec::with_capacity(metrics.len());
    for (metric, spec) in metrics {
        let num = |k: &str| {
            spec.get(k)
                .and_then(|v| v.as_f64().or_else(|| v.as_i64().map(|n| n as f64)))
        };
        let baseline = num("value").ok_or_else(|| format!("{metric}: missing \"value\""))?;
        let check = Check {
            metric: metric.clone(),
            baseline,
            min_ratio: num("min_ratio"),
            max_ratio: num("max_ratio"),
            min: num("min"),
            max: num("max"),
            optional: spec
                .get("optional")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        };
        if check.min_ratio.is_none()
            && check.max_ratio.is_none()
            && check.min.is_none()
            && check.max.is_none()
        {
            return Err(format!("{metric}: no tolerance bound set"));
        }
        checks.push(check);
    }
    Ok(checks)
}

/// Evaluates one check against the measured document. `allow_missing`
/// downgrades absent metrics to [`Status::SkippedMissing`] for partial
/// runs (`--smoke` regenerates only some sections).
pub fn evaluate(check: &Check, current_doc: &Value, allow_missing: bool) -> Outcome {
    let Some(current) = lookup(current_doc, &check.metric) else {
        let status = if check.optional || allow_missing {
            Status::SkippedMissing
        } else {
            Status::Missing
        };
        return Outcome {
            metric: check.metric.clone(),
            baseline: check.baseline,
            current: None,
            status,
        };
    };
    let mut fail: Option<String> = None;
    if check.min_ratio.is_some() || check.max_ratio.is_some() {
        if check.baseline == 0.0 {
            fail = Some("ratio bound against a zero baseline".to_owned());
        } else {
            let ratio = current / check.baseline;
            if let Some(floor) = check.min_ratio {
                if ratio.is_nan() || ratio < floor {
                    fail = Some(format!("ratio {ratio:.3} < min_ratio {floor:.3}"));
                }
            }
            if fail.is_none() {
                if let Some(ceil) = check.max_ratio {
                    if ratio.is_nan() || ratio > ceil {
                        fail = Some(format!("ratio {ratio:.3} > max_ratio {ceil:.3}"));
                    }
                }
            }
        }
    }
    if fail.is_none() {
        if let Some(floor) = check.min {
            if current < floor {
                fail = Some(format!("value {current:.4} < min {floor:.4}"));
            }
        }
    }
    if fail.is_none() {
        if let Some(ceil) = check.max {
            if current > ceil {
                fail = Some(format!("value {current:.4} > max {ceil:.4}"));
            }
        }
    }
    Outcome {
        metric: check.metric.clone(),
        baseline: check.baseline,
        current: Some(current),
        status: match fail {
            Some(reason) => Status::Fail(reason),
            None => Status::Pass,
        },
    }
}

/// Runs every baseline check against the measured document.
pub fn run(baseline: &Value, current: &Value, allow_missing: bool) -> Result<Vec<Outcome>, String> {
    let checks = parse_baseline(baseline)?;
    Ok(checks
        .iter()
        .map(|c| evaluate(c, current, allow_missing))
        .collect())
}

/// Renders one outcome as a fixed-width report line.
pub fn render_line(o: &Outcome) -> String {
    let current = match o.current {
        Some(v) => format!("{v:.4}"),
        None => "-".to_owned(),
    };
    let verdict = match &o.status {
        Status::Pass => "ok".to_owned(),
        Status::SkippedMissing => "skipped (not measured)".to_owned(),
        Status::Missing => "FAIL: metric not measured".to_owned(),
        Status::Fail(reason) => format!("FAIL: {reason}"),
    };
    format!(
        "{:<32} baseline {:>12.4}  current {:>12}  {}",
        o.metric, o.baseline, current, verdict
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn baseline() -> Value {
        json!({
            "schema": 1,
            "metrics": {
                "hotpath.apps_per_sec": { "value": 1000.0, "min_ratio": 0.7 },
                "store_scale.gc.runs": { "value": 0.0, "max": 2.0 },
                "store_scale.warm_speedup": { "value": 5.2, "min_ratio": 0.8, "min": 2.0 },
                "extra.section": { "value": 5.0, "min_ratio": 0.5, "optional": true },
            }
        })
    }

    #[test]
    fn lookup_walks_dotted_paths() {
        let doc = json!({ "a": { "b": { "c": 7 } } });
        assert_eq!(lookup(&doc, "a.b.c"), Some(7.0));
        assert_eq!(lookup(&doc, "a.b.missing"), None);
        assert_eq!(lookup(&doc, "a"), None, "objects are not numbers");
    }

    #[test]
    fn in_tolerance_document_passes() {
        let current = json!({
            "hotpath": { "apps_per_sec": 900.0 },
            "store_scale": { "gc": { "runs": 0.0 }, "warm_speedup": 5.0 },
        });
        let outcomes = run(&baseline(), &current, false).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(
            outcomes.iter().all(|o| !o.failed()),
            "{:?}",
            outcomes.iter().map(render_line).collect::<Vec<_>>()
        );
    }

    #[test]
    fn throughput_drop_beyond_min_ratio_fails() {
        let current = json!({
            "hotpath": { "apps_per_sec": 600.0 },
            "store_scale": { "gc": { "runs": 0.0 }, "warm_speedup": 5.0 },
        });
        let outcomes = run(&baseline(), &current, false).unwrap();
        let hot = outcomes
            .iter()
            .find(|o| o.metric == "hotpath.apps_per_sec")
            .unwrap();
        assert!(matches!(hot.status, Status::Fail(_)), "{:?}", hot.status);
        assert_eq!(outcomes.iter().filter(|o| o.failed()).count(), 1);
    }

    #[test]
    fn absolute_bounds_catch_structural_breaks() {
        let current = json!({
            "hotpath": { "apps_per_sec": 1000.0 },
            // Over the GC-run ceiling; speedup under the 2x floor.
            "store_scale": { "gc": { "runs": 3.0 }, "warm_speedup": 1.9 },
        });
        let outcomes = run(&baseline(), &current, false).unwrap();
        assert_eq!(outcomes.iter().filter(|o| o.failed()).count(), 2);
    }

    #[test]
    fn missing_metric_fails_unless_tolerated() {
        let current = json!({ "store_scale": { "gc": { "runs": 0.0 }, "warm_speedup": 5.0 } });
        let strict = run(&baseline(), &current, false).unwrap();
        let hot = strict
            .iter()
            .find(|o| o.metric == "hotpath.apps_per_sec")
            .unwrap();
        assert_eq!(hot.status, Status::Missing);
        // "extra.section" is optional: missing but not a failure.
        let extra = strict.iter().find(|o| o.metric == "extra.section").unwrap();
        assert_eq!(extra.status, Status::SkippedMissing);

        let relaxed = run(&baseline(), &current, true).unwrap();
        assert!(relaxed.iter().all(|o| !o.failed()));
    }

    #[test]
    fn baseline_without_bounds_is_rejected() {
        let bad = json!({ "metrics": { "x": { "value": 1.0 } } });
        assert!(parse_baseline(&bad).is_err());
        let no_metrics = json!({ "schema": 1 });
        assert!(parse_baseline(&no_metrics).is_err());
    }
}
