//! Shared harness for the experiment binaries: corpus runner and text
//! rendering helpers.

use nchecker::{AnalyzeError, AppReport, CheckerConfig, CorpusStats, NChecker};
use nck_appgen::spec::AppSpec;
use nck_obs::{MetricsSnapshot, Obs, PhaseTotals, Series};

/// The seed all experiment binaries use, so every table is reproducible.
pub const SEED: u64 = 2016;

/// One app of a corpus run that could not be analyzed.
#[derive(Debug)]
pub struct AppFailure {
    /// Index of the app in the spec list.
    pub index: usize,
    /// Package name from the spec (available even when generation or
    /// parsing failed).
    pub package: String,
    /// What went wrong.
    pub error: AnalyzeError,
}

impl std::fmt::Display for AppFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app #{} ({}): {}", self.index, self.package, self.error)
    }
}

/// The result of a fault-tolerant corpus run: per-slot reports (`None`
/// where the app failed) plus the failure records.
#[derive(Debug, Default)]
pub struct CorpusOutcome {
    /// One slot per input, in order.
    pub reports: Vec<Option<AppReport>>,
    /// Apps that failed to generate or analyze, in index order.
    pub failures: Vec<AppFailure>,
}

impl CorpusOutcome {
    /// The successfully analyzed reports, in input order.
    pub fn succeeded(&self) -> Vec<&AppReport> {
        self.reports.iter().flatten().collect()
    }

    /// Consumes the outcome, keeping only the successful reports (in
    /// input order).
    pub fn into_succeeded(self) -> Vec<AppReport> {
        self.reports.into_iter().flatten().collect()
    }

    /// Every report of a trusted corpus, in input order. Any failure is
    /// a harness bug, so this panics listing every failed app.
    pub fn expect_all(self) -> Vec<AppReport> {
        if !self.failures.is_empty() {
            let lines: Vec<String> = self.failures.iter().map(|f| f.to_string()).collect();
            panic!(
                "{} of {} corpus apps failed to analyze:\n  {}",
                self.failures.len(),
                self.reports.len(),
                lines.join("\n  ")
            );
        }
        self.into_succeeded()
    }

    /// Number of successful apps whose analysis was degraded (some
    /// methods skipped as unanalyzable).
    pub fn degraded_count(&self) -> usize {
        self.reports
            .iter()
            .flatten()
            .filter(|r| r.degraded())
            .count()
    }
}

/// Generates, serializes and analyzes every spec in parallel under
/// `config`. The serialize/parse round trip is deliberate: the checker
/// must consume *binaries*, as in the paper. Each worker derives fresh
/// sinks from `obs` (see [`Obs::fresh`]), so traces and metrics land
/// per-app on the reports; aggregate them with [`collect_obs`].
///
/// The pool contains a panic in generation or analysis, so one
/// adversarial or bug-triggering app cannot abort the run or take other
/// workers down with it. Failed apps leave a `None` in their slot and an
/// [`AppFailure`] record; [`CorpusOutcome::expect_all`] is the trusted
/// corpus's view.
pub fn run_specs(specs: &[AppSpec], config: CheckerConfig, obs: &Obs) -> CorpusOutcome {
    run_fault_tolerant(
        specs.len(),
        config,
        obs,
        |checker, i| checker.analyze_bytes(&nck_appgen::generate(&specs[i]).to_bytes()),
        |i| specs[i].package.clone(),
    )
}

/// [`run_specs`] over serialized bundles (binaries on disk or mutated
/// in memory) instead of specs.
pub fn run_bundles(bundles: &[Vec<u8>], config: CheckerConfig, obs: &Obs) -> CorpusOutcome {
    run_fault_tolerant(
        bundles.len(),
        config,
        obs,
        |checker, i| checker.analyze_bytes(&bundles[i]),
        |_| "<unparsed>".to_owned(),
    )
}

/// The shared worker pool behind the fault-tolerant runners: `task`
/// produces app `i`'s result, `name` labels a failed app. The pool
/// ([`nck_svc::pool`]) contains panics and hands each result over in
/// input order, folded straight into a [`CorpusOutcome`].
fn run_fault_tolerant(
    n: usize,
    config: CheckerConfig,
    obs: &Obs,
    task: impl Fn(&NChecker, usize) -> Result<AppReport, AnalyzeError> + Sync,
    name: impl Fn(usize) -> String + Sync,
) -> CorpusOutcome {
    let mut outcome = CorpusOutcome::default();
    nck_svc::run_in_order(
        n,
        None,
        || {
            let mut checker = NChecker::with_config(config);
            checker.obs = obs.fresh();
            checker
        },
        |checker, i| task(checker, i),
        |_| false,
        |i, result| {
            match result
                .map_err(AnalyzeError::Panic)
                .and_then(|result| result)
            {
                Ok(report) => outcome.reports.push(Some(report)),
                Err(error) => {
                    outcome.reports.push(None);
                    outcome.failures.push(AppFailure {
                        index: i,
                        package: name(i),
                        error,
                    });
                }
            }
            std::ops::ControlFlow::Continue(())
        },
    );
    outcome
}

/// Folds the per-app traces and metrics of `reports` into corpus-level
/// phase totals and one merged metrics snapshot.
pub fn collect_obs(reports: &[AppReport]) -> (PhaseTotals, MetricsSnapshot) {
    let mut phases = PhaseTotals::new();
    let mut metrics = MetricsSnapshot::default();
    for r in reports {
        if let Some(t) = &r.trace {
            phases.absorb(t);
        }
        if let Some(m) = &r.metrics {
            metrics.merge(m);
        }
    }
    (phases, metrics)
}

/// Collects per-app wall times (µs, from each report's attached trace)
/// into an exact-sample [`Series`] for corpus latency percentiles.
pub fn latency_series(reports: &[AppReport]) -> Series {
    let mut s = Series::new();
    for r in reports {
        if let Some(t) = &r.trace {
            s.push(t.wall_nanos() / 1_000);
        }
    }
    s
}

/// Folds per-app reports into corpus statistics.
pub fn aggregate(reports: &[AppReport]) -> CorpusStats {
    let mut stats = CorpusStats::new();
    for r in reports {
        stats.add(r.stats.clone());
    }
    stats
}

/// Renders an ASCII bar of `frac` (0..=1) scaled to `width` characters.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Prints a `(x, y)` series as a fixed-width two-column table.
pub fn print_series(header: (&str, &str), series: &[(f64, f64)]) {
    println!("{:>12} {:>12}", header.0, header.1);
    for (x, y) in series {
        println!("{x:>12.3} {y:>12.3}");
    }
}

/// Downsamples a CDF to `points` evenly spaced quantiles for printing.
pub fn downsample(series: &[(f64, f64)], points: usize) -> Vec<(f64, f64)> {
    if series.len() <= points {
        return series.to_vec();
    }
    (0..points)
        .map(|i| {
            let idx = i * (series.len() - 1) / (points - 1);
            series[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
    }

    #[test]
    fn downsample_keeps_ends() {
        let series: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let ds = downsample(&series, 5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds[0], (0.0, 0.0));
        assert_eq!(ds[4], (99.0, 99.0));
    }

    #[test]
    fn small_spec_run_roundtrips() {
        let specs = vec![nck_appgen::studyapps::gpslogger()];
        let reports = run_specs(&specs, CheckerConfig::default(), &Obs::disabled()).expect_all();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].defects.is_empty());
        let stats = aggregate(&reports);
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn obs_template_yields_per_app_traces_and_corpus_totals() {
        let specs = vec![
            nck_appgen::studyapps::gpslogger(),
            nck_appgen::studyapps::gpslogger(),
        ];
        let reports = run_specs(&specs, CheckerConfig::default(), &Obs::enabled()).expect_all();
        for r in &reports {
            let trace = r.trace.as_ref().expect("trace attached");
            assert!(trace.find("context").is_some());
            assert!(trace.find("checkers").is_some());
            assert!(r.metrics.is_some());
        }
        let (phases, metrics) = collect_obs(&reports);
        assert!(!phases.is_empty());
        // Two apps absorbed: the root phase was seen twice.
        let app = phases
            .iter()
            .find(|(path, _)| *path == "app")
            .expect("app phase")
            .1;
        assert_eq!(app.count, 2);
        assert!(metrics.counters.contains_key("parse.classes"));
        let mut lat = latency_series(&reports);
        assert_eq!(lat.count(), 2);
        assert!(lat.percentile(50.0).unwrap() > 0, "wall time measured");
    }
}
