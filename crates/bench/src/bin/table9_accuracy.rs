//! Regenerates Table 9: NChecker's accuracy on the 16 open-source apps
//! (correct warnings, false positives, known false negatives).

use nck_appgen::opensource::{evaluate_accuracy, Table9Row};

fn main() {
    let table = evaluate_accuracy(nchecker::CheckerConfig::default());
    println!("Table 9: NChecker results on the 16 open-source apps");
    println!("{:-<72}", "");
    println!(
        "{:<32} {:>16} {:>8} {:>12}",
        "NPD cause", "# Correct warning", "# FP", "# Known FN"
    );
    let mut totals = (0usize, 0usize, 0usize);
    for row in Table9Row::ALL {
        let acc = table[&row];
        println!(
            "{:<32} {:>16} {:>8} {:>12}",
            row.label(),
            acc.correct,
            acc.fp,
            acc.known_fn
        );
        totals.0 += acc.correct;
        totals.1 += acc.fp;
        totals.2 += acc.known_fn;
    }
    println!("{:-<72}", "");
    println!(
        "{:<32} {:>16} {:>8} {:>12}",
        "Total", totals.0, totals.1, totals.2
    );
    println!(
        "\nAccuracy: {:.1}% (paper reports 94+%)",
        totals.0 as f64 / (totals.0 + totals.1) as f64 * 100.0
    );
}
