//! Regenerates Figure 9: CDF over apps of the ratio of user requests
//! missing failure notifications, among apps that notify at least once.

use nchecker::{CheckerConfig, CorpusStats};
use nck_appgen::profile::corpus;
use nck_bench::{aggregate, downsample, print_series, run_specs, SEED};
use nck_obs::Obs;

fn main() {
    let reports = run_specs(&corpus(SEED), CheckerConfig::default(), &Obs::disabled()).expect_all();
    let stats = aggregate(&reports);
    let cdf = CorpusStats::cdf(&stats.notification_miss_ratios());
    println!("Figure 9: CDF of per-app failure-notification miss ratios");
    println!("({} partially-notifying apps)", cdf.len());
    println!("{:-<40}", "");
    print_series(("miss ratio", "cum. frac"), &downsample(&cdf, 12));
}
