//! The prescan's precondition, stated as a differential test: every
//! bundle that reaches the lifter (the verifier scoped its damage to
//! methods) lifts without panicking, with a body for exactly the
//! concrete methods the verifier did not flag. So a bundle that verifies
//! clean lifts whole, and the prescan may answer it unlifted.
//!
//! Inputs: every seeded `mutate` corpus the fuzz harnesses use — the
//! `fuzz_smoke` binary's and `vet`'s base apps at the CI seed count, the
//! in-tree smoke test's two bases, and two network-free bases so that
//! damage also lands in pool-clean bundles.

use nck_android::apk::Apk;
use nck_appgen::mutate::{base_apps, mutate};
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_appgen::{generate, profile};
use nck_dex::verify::verify;
use nck_dex::AccessFlags;
use nck_ir::lift;
use nck_netlibs::library::Library;
use std::collections::BTreeSet;

/// Verifies and lifts `bytes`. Returns `None` when the bundle does not
/// reach the lifter (parse failure or class-wide damage), else whether
/// the verifier flagged anything.
fn lift_after_verify(bytes: &[u8], what: &str) -> Option<bool> {
    let apk = Apk::from_bytes(bytes).ok()?;
    let verified = verify(&apk.adx).ok()?;
    let program = lift(&verified);
    let flagged: BTreeSet<(usize, usize)> = verified.flagged().map(|(c, m, _)| (c, m)).collect();
    assert_eq!(program.classes.len(), apk.adx.classes.len(), "{what}");
    for (ci, (class, lifted)) in apk.adx.classes.iter().zip(&program.classes).enumerate() {
        assert_eq!(class.methods.len(), lifted.methods.len(), "{what}");
        for (mi, (m, &id)) in class.methods.iter().zip(&lifted.methods).enumerate() {
            let concrete = !m.flags.contains(AccessFlags::ABSTRACT);
            assert_eq!(
                program.method(id).body.is_some(),
                concrete && !flagged.contains(&(ci, mi)),
                "{what}: class {ci} method {mi}"
            );
        }
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
    // `mutate` is seeded, so the counts are exact.
    assert_eq!(
        check(&base_apps(), 2_000),
        2_691,
        "mutants lifted with a flag"
    );
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
    assert_eq!(check(&smoke, 500), 884, "mutants lifted with a flag");
}
