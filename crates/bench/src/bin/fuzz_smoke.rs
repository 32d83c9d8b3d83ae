//! Seeded corruption fuzz harness: drives mutated APK bundles through
//! the whole pipeline and fails on any panic or silent acceptance.
//!
//! ```text
//! fuzz_smoke [N]    # N seeds per base app, default 1000
//! ```
//!
//! Each of a handful of structurally different generated apps is damaged
//! with every seed in `0..N` ([`nck_appgen::mutate()`]), then analyzed
//! with panics contained. The ground truth attached to each mutation
//! (raw damage must be rejected at parse; structural damage must be
//! rejected or analyzed degraded) is checked per run; the harness prints
//! a per-class outcome histogram and exits non-zero listing every
//! violating seed, which reproduces the exact damage.

use nck_appgen::mutate::{check, mutate, quiet_checker, Outcome};
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;
use std::collections::BTreeMap;

/// Structurally different base apps, so mutations land in single- and
/// multi-request bodies, user and background contexts, helper-mediated
/// retries, and every supported library.
fn base_apps() -> Vec<AppSpec> {
    let mut helper = RequestSpec::new(Library::Volley, Origin::Service);
    // Volley couples timeout and retry in one DefaultRetryPolicy object.
    helper.set_timeout = true;
    helper.set_retries = Some(3);
    helper.retries_via_helper = true;
    vec![
        AppSpec::new(
            "com.fuzz.single",
            vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
        ),
        AppSpec::new(
            "com.fuzz.multi",
            vec![
                RequestSpec::new(Library::Volley, Origin::ActivityLifecycle),
                RequestSpec::new(Library::ApacheHttpClient, Origin::Service),
                RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick),
            ],
        ),
        AppSpec::new("com.fuzz.helper", vec![helper]),
    ]
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed count is a number"))
        .unwrap_or(1000);

    let checker = quiet_checker();
    let apps: Vec<_> = base_apps()
        .iter()
        .map(|spec| (spec.package.clone(), nck_appgen::generate(spec)))
        .collect();

    let mut histogram: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut violations = Vec::new();
    let mut runs = 0u64;
    for (package, apk) in &apps {
        for seed in 0..n {
            let (bytes, m) = mutate(apk, seed);
            runs += 1;
            match check(&checker, &bytes, &m) {
                Ok(outcome) => {
                    let label = match outcome {
                        Outcome::Rejected => "rejected",
                        Outcome::Degraded => "degraded",
                        // check() never passes these through, but keep
                        // the histogram total honest if it ever does.
                        Outcome::Clean => "clean",
                        Outcome::Panicked => "panicked",
                    };
                    *histogram.entry((m.kind.name(), label)).or_insert(0) += 1;
                }
                Err(violation) => violations.push(format!("{package}: {violation}")),
            }
        }
    }

    println!(
        "=== fuzz smoke: {runs} mutated bundles ({n} seeds x {} apps) ===",
        apps.len()
    );
    let mut last = "";
    for ((kind, label), count) in &histogram {
        if *kind != last {
            println!("{kind}:");
            last = kind;
        }
        println!("    {label:>10} {count}");
    }

    if violations.is_empty() {
        println!("no panics, no silent acceptance");
    } else {
        eprintln!("{} violations:", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
