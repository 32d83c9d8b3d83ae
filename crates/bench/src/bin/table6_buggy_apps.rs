//! Regenerates Table 6: percentage of buggy apps detected by NChecker,
//! categorized by NPD cause, over the full 285-app corpus.

use nchecker::CheckerConfig;
use nck_appgen::profile::corpus;
use nck_bench::{aggregate, run_specs, SEED};
use nck_obs::Obs;

fn main() {
    let reports = run_specs(&corpus(SEED), CheckerConfig::default(), &Obs::disabled()).expect_all();
    let stats = aggregate(&reports);
    println!("Table 6: Percent of buggy apps detected by NChecker by NPD cause");
    println!("{:-<100}", "");
    println!(
        "{:<30} {:<38} {:>10} {:>16}",
        "NPD cause", "Eval. condition", "# Eval.", "# Buggy (%)"
    );
    for row in stats.table6() {
        println!(
            "{:<30} {:<38} {:>10} {:>10} ({:.0}%)",
            row.cause,
            row.condition,
            row.evaluated,
            row.buggy,
            row.percent()
        );
    }
    println!();
    println!(
        "Headline: {} NPDs detected in {} of {} apps ({} custom-retry apps: {:.0}%)",
        stats.total_defects(),
        stats.buggy_apps(),
        stats.len(),
        (stats.custom_retry_rate() * stats.len() as f64).round(),
        stats.custom_retry_rate() * 100.0
    );
    println!(
        "Error callbacks ignoring typed errors: {:.0}%  |  responses missing checks: {:.0}%",
        stats.error_type_ignored_rate() * 100.0,
        stats.response_miss_rate() * 100.0
    );
    let (explicit, implicit) = stats.notification_by_callback_kind();
    println!(
        "Failure notifications: {:.0}% of requests with explicit error callbacks vs {:.0}% without",
        explicit * 100.0,
        implicit * 100.0
    );
}
