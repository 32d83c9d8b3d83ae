//! Seeded corruption smoke test: ≥1000 mutated bundles through the
//! whole pipeline, asserting zero panics and zero silent acceptance.
//!
//! This is the in-tree twin of the `fuzz_smoke` bench binary (which CI
//! runs with more seeds against the release build). Every mutation
//! carries ground truth: raw byte damage inside the ADX region must be
//! rejected at parse (the payload checksum guarantees it), structural
//! damage must be rejected or analyzed degraded with the damage
//! recorded. A violating seed reproduces the exact corruption.

use nck_appgen::mutate::{check, mutate, quiet_checker, Expectation, Outcome};
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::library::Library;

fn base_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::new(
            "com.fuzz.one",
            vec![RequestSpec::new(Library::OkHttp, Origin::UserClick)],
        ),
        AppSpec::new(
            "com.fuzz.two",
            vec![
                RequestSpec::new(Library::Volley, Origin::ActivityLifecycle),
                RequestSpec::new(Library::ApacheHttpClient, Origin::Service),
            ],
        ),
    ]
}

#[test]
fn a_thousand_mutations_never_panic_or_pass() {
    const SEEDS: u64 = 500; // x2 base apps = 1000 mutated bundles

    let checker = quiet_checker();
    let mut runs = 0u64;
    let mut rejected = 0u64;
    let mut degraded = 0u64;
    for spec in base_apps() {
        let apk = nck_appgen::generate(&spec);
        for seed in 0..SEEDS {
            let (bytes, m) = mutate(&apk, seed);
            match check(&checker, &bytes, &m) {
                Ok(Outcome::Rejected) => rejected += 1,
                Ok(Outcome::Degraded) => {
                    // check() enforces this, but state the invariant
                    // where it is load-bearing: only structural damage
                    // may be analyzed at all.
                    assert_eq!(m.expectation, Expectation::MustErrorOrDegrade);
                    degraded += 1;
                }
                Ok(other) => panic!("check passed a {other:?} outcome"),
                Err(violation) => panic!("{}: {violation}", spec.package),
            }
            runs += 1;
        }
    }
    assert_eq!(runs, 1000);
    // Both recovery paths must actually be exercised, or the corpus has
    // gone stale and the test proves less than it claims. `mutate` is
    // seeded, so the split is exact.
    assert_eq!((rejected, degraded), (558, 442));
}
