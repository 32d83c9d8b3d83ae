//! Ablation: the interprocedural summary engine, measured on the
//! extended 16-app helper-idiom suite.
//!
//! The suite seeds connectivity guards behind `isOnline()` wrappers,
//! retry counts behind `getRetryCount()` getters, and response checks
//! behind `isValidResponse()` validators — idioms a method-local
//! analysis structurally cannot resolve. This binary reruns the
//! accuracy evaluation with the engine on (the default) and off (the
//! bounded method-local fallback), reports the per-row precision delta,
//! and prints the summary-cache statistics of the default run.

use nchecker::{CheckerConfig, NChecker};
use nck_appgen::interproc_suite::{
    evaluate_interproc, interproc_apps, report_kinds, uses_helper_idioms,
};
use nck_appgen::opensource::Table9Row;

/// The method-local configuration: summaries off, caller walk bounded to
/// the old depth-3 recursion.
fn local_config() -> CheckerConfig {
    CheckerConfig {
        interproc: false,
        strict_caller_depth: Some(3),
        ..CheckerConfig::default()
    }
}

fn totals(config: CheckerConfig) -> (usize, usize, usize) {
    let table = evaluate_interproc(config);
    Table9Row::ALL.iter().fold((0, 0, 0), |(c, f, n), row| {
        let a = table[row];
        (c + a.correct, f + a.fp, n + a.known_fn)
    })
}

fn main() {
    let on = CheckerConfig::default();
    let off = local_config();

    println!("Ablation: summary engine on the helper-idiom suite (16 apps)");
    println!("{:-<72}", "");
    println!(
        "{:<28} {:>8} {:>6} {:>6} {:>10}",
        "configuration", "correct", "FP", "FN", "accuracy"
    );
    let mut results = Vec::new();
    for (name, config) in [("summaries (default)", on), ("method-local", off)] {
        let (c, f, n) = totals(config);
        println!(
            "{:<28} {:>8} {:>6} {:>6} {:>9.1}%",
            name,
            c,
            f,
            n,
            c as f64 / (c + f).max(1) as f64 * 100.0
        );
        results.push((c, f, n));
    }
    let (on_t, off_t) = (results[0], results[1]);
    assert!(
        on_t.2 < off_t.2,
        "engine must recover seeded defects the local analysis misses"
    );
    assert!(
        on_t.1 <= off_t.1,
        "engine must not introduce false positives"
    );

    println!("\nPer-row delta (engine on vs off):");
    let ton = evaluate_interproc(on);
    let toff = evaluate_interproc(off);
    for row in Table9Row::ALL {
        let (a, b) = (ton[&row], toff[&row]);
        if a != b {
            println!(
                "  {:<30} FP {:>2} -> {:<2}  FN {:>2} -> {:<2}",
                row.label(),
                b.fp,
                a.fp,
                b.known_fn,
                a.known_fn
            );
        }
    }

    // Baseline apps (no helper idioms) must be untouched by the engine.
    let mut baseline_ok = 0;
    for spec in interproc_apps() {
        if uses_helper_idioms(&spec) {
            continue;
        }
        let mut a = report_kinds(&spec, on);
        let mut b = report_kinds(&spec, off);
        a.sort_by_key(|k| format!("{k:?}"));
        b.sort_by_key(|k| format!("{k:?}"));
        assert_eq!(a, b, "baseline app {} shifted", spec.package);
        baseline_ok += 1;
    }
    println!("\nBaseline agreement: {baseline_ok} helper-free apps identical under both configs.");

    // Summary-cache statistics over the suite's default-config runs.
    let checker = NChecker::new();
    let (mut methods, mut sccs, mut consts, mut hits) = (0, 0, 0, 0);
    for spec in interproc_apps() {
        let apk = nck_appgen::generate(&spec);
        let report = checker.analyze_apk(&apk).expect("analyzable app");
        methods += report.stats.summary_methods;
        sccs += report.stats.summary_sccs;
        consts += report.stats.summary_const_returns;
        hits += report.stats.summary_hits;
    }
    println!(
        "Summary cache: {methods} methods in {sccs} SCCs, {consts} constant returns, \
         {hits} lookups served."
    );
}
