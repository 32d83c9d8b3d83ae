//! Regenerates Table 8: ratio of apps with inappropriate retry
//! behaviours among those using retry-capable libraries.

use nchecker::CheckerConfig;
use nck_appgen::profile::corpus;
use nck_bench::{aggregate, run_specs, SEED};
use nck_obs::Obs;

fn main() {
    let reports = run_specs(&corpus(SEED), CheckerConfig::default(), &Obs::disabled()).expect_all();
    let stats = aggregate(&reports);
    println!("Table 8: Apps with inappropriate retry behaviours");
    println!("{:-<72}", "");
    println!(
        "{:<30} {:>10} {:>24}",
        "NPD cause", "Apps (%)", "Default behavior (%)"
    );
    for row in stats.table8() {
        println!(
            "{:<30} {:>9.0}% {:>23.0}%",
            row.behaviour,
            row.apps as f64 / row.population.max(1) as f64 * 100.0,
            row.default_caused_percent
        );
    }
    let pop = stats.table8()[0].population;
    println!("\n(total evaluated apps with retry APIs: {pop})");
}
