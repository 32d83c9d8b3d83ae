//! The prescan's precondition, stated as a differential test: a bundle
//! whose damage the verifier scopes to methods lifts whole once those
//! methods are skipped. The lifter's own rejections are then a backstop
//! that never fires, so a bundle that verifies clean is one the lifter
//! lifts without a skip, and the prescan may answer it unlifted.
//!
//! Inputs: every seeded `mutate` corpus the fuzz harnesses use — the
//! `fuzz_smoke` binary's and `vet`'s base apps at the CI seed count, the
//! in-tree smoke test's two bases, and two network-free bases so that
//! damage also lands in pool-clean bundles.

use nck_android::apk::Apk;
use nck_appgen::mutate::{base_apps, mutate};
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_appgen::{generate, profile};
use nck_dex::verify::{verify, VerifyScope};
use nck_ir::{lift_skipping, SkipReason};
use nck_netlibs::library::Library;
use std::collections::BTreeSet;

/// Lifts `bytes` with the verifier's flagged methods skipped. Returns
/// `None` when the bundle does not reach the lifter (parse failure or
/// class-wide damage), else whether the verifier flagged anything.
fn lift_after_verify(bytes: &[u8], what: &str) -> Option<bool> {
    let apk = Apk::from_bytes(bytes).ok()?;
    let errors = verify(&apk.adx);
    if errors.iter().any(|e| e.scope != VerifyScope::Method) {
        return None;
    }
    let flagged: BTreeSet<&str> = errors.iter().map(|e| e.method.as_str()).collect();
    let policy = |m: &str| flagged.contains(m).then(|| "flagged".to_owned());
    let (_, skips) = lift_skipping(&apk.adx, (!flagged.is_empty()).then_some(&policy));
    for skip in &skips {
        assert!(
            matches!(skip.reason, SkipReason::Policy(_)),
            "{what}: the verifier passed {}, which the lifter rejects: {}",
            skip.method,
            skip.reason
        );
    }
    Some(!flagged.is_empty())
}

/// Mutates every base with seeds `0..seeds` on two threads; returns how
/// many mutants reached the lifter with a flagged method.
fn check(bases: &[AppSpec], seeds: u64) -> usize {
    std::thread::scope(|s| {
        let handles: Vec<_> = bases
            .iter()
            .map(|spec| {
                s.spawn(move || {
                    let apk = generate(spec);
                    (0..seeds)
                        .filter(|&seed| {
                            let (bytes, m) = mutate(&apk, seed);
                            let what = format!("{} seed {seed} ({})", spec.package, m.detail);
                            lift_after_verify(&bytes, &what) == Some(true)
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn the_verifier_flags_every_method_the_lifter_rejects_in_the_fuzz_corpora() {
    // `fuzz_smoke` (CI runs 2,000 seeds) and `vet.rs` share these bases.
    let flagged = check(&base_apps(), 2_000);
    assert!(flagged > 1_000, "only {flagged} mutants reached the lifter");
    // The in-tree smoke test's bases, and network-free ones.
    let smoke = [
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
        profile::no_network_app(0, 4),
        profile::no_network_app(1, 16),
    ];
    assert!(check(&smoke, 500) > 0);
}
