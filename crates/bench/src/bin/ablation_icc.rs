//! Ablation: the paper's future-work extensions, measured on the Table 9
//! accuracy suite.
//!
//! The paper attributes all 9 false positives to missing inter-component
//! analysis (§4.7 plans an IccTA integration) and all 5 known false
//! negatives to path-insensitive connectivity checking (§5.3). This
//! reproduction implements both; this binary reruns the 16-app accuracy
//! evaluation under each configuration.

use nchecker::CheckerConfig;
use nck_appgen::opensource::{evaluate_accuracy, Table9Row};

fn totals(config: CheckerConfig) -> (usize, usize, usize) {
    let table = evaluate_accuracy(config);
    Table9Row::ALL.iter().fold((0, 0, 0), |(c, f, n), row| {
        let a = table[row];
        (c + a.correct, f + a.fp, n + a.known_fn)
    })
}

fn main() {
    let configs = [
        ("paper default", CheckerConfig::default()),
        (
            "+ ICC analysis",
            CheckerConfig {
                icc: true,
                ..CheckerConfig::default()
            },
        ),
        (
            "+ strict connectivity",
            CheckerConfig {
                strict_connectivity: true,
                ..CheckerConfig::default()
            },
        ),
        (
            "+ both",
            CheckerConfig {
                icc: true,
                strict_connectivity: true,
                ..CheckerConfig::default()
            },
        ),
    ];

    println!("Ablation: future-work extensions on the Table 9 suite (16 apps)");
    println!("{:-<72}", "");
    println!(
        "{:<24} {:>10} {:>8} {:>10} {:>10}",
        "configuration", "correct", "FP", "known FN", "accuracy"
    );
    for (name, config) in configs {
        let (c, f, n) = totals(config);
        println!(
            "{:<24} {:>10} {:>8} {:>10} {:>9.1}%",
            name,
            c,
            f,
            n,
            c as f64 / (c + f) as f64 * 100.0
        );
    }
    println!(
        "\nICC analysis resolves explicit Intent targets, so a connectivity check\n\
         guarding a startActivity() clears the launched component's requests, and a\n\
         broadcast-then-display error path counts as a notification. Strict mode\n\
         additionally requires the check to be a control condition of the request."
    );
}
