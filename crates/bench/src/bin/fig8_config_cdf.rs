//! Regenerates Figure 8: CDF over apps of the ratio of requests missing
//! connectivity checks (red) and timeouts (blue), among apps that set
//! the API at least once but not everywhere.

use nchecker::{CheckerConfig, CorpusStats};
use nck_appgen::profile::corpus;
use nck_bench::{aggregate, downsample, print_series, run_specs, SEED};
use nck_obs::Obs;

fn main() {
    let reports = run_specs(&corpus(SEED), CheckerConfig::default(), &Obs::disabled()).expect_all();
    let stats = aggregate(&reports);

    let conn = CorpusStats::cdf(&stats.conn_miss_ratios());
    let timeout = CorpusStats::cdf(&stats.timeout_miss_ratios());

    println!("Figure 8: CDF of per-app miss ratios (partial-config apps)");
    println!("{:-<40}", "");
    println!("conn. check API ({} apps):", conn.len());
    print_series(("miss ratio", "cum. frac"), &downsample(&conn, 12));
    println!();
    println!("timeout API ({} apps):", timeout.len());
    print_series(("miss ratio", "cum. frac"), &downsample(&timeout, 12));

    let over_half = |series: &[(f64, f64)]| {
        let total = series.len().max(1);
        series.iter().filter(|(x, _)| *x > 0.5).count() as f64 / total as f64
    };
    println!();
    println!(
        "Apps missing in over half their requests: conn {:.0}%, timeout {:.0}% \
         (paper: 62% and 58%)",
        over_half(&conn) * 100.0,
        over_half(&timeout) * 100.0
    );
}
