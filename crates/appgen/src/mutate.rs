//! Seeded corruption of serialized APK bundles, with ground truth.
//!
//! The fault-tolerance claim of the pipeline is *panic-free analysis of
//! adversarial binaries*: every input either parses and analyzes, is
//! rejected with a typed error, or analyzes in degraded mode with the
//! damage recorded. This module manufactures the adversarial inputs.
//! Given a healthy generated bundle and a seed, [`mutate`] injects one
//! classed corruption and returns the damaged bytes together with a
//! [`Mutation`] record stating what was done and what the pipeline is
//! allowed to do with it. Harnesses ([`check`]) then drive the damaged
//! bytes through the full pipeline and flag any outcome outside the
//! ground-truth envelope — a panic, or silent clean acceptance.
//!
//! Mutations are deterministic in `(bundle, seed)`, so a failing seed
//! reported by the fuzz harness reproduces exactly.
//!
//! Two corruption families exist, distinguished by *where* the damage
//! lands:
//!
//! - **Raw** mutations damage serialized bytes directly (truncation,
//!   header damage, payload bit flips). The ADX container carries an
//!   FNV-1a checksum over its payload, so any raw byte damage inside the
//!   ADX region is guaranteed to be rejected at parse:
//!   [`Expectation::MustError`].
//! - **Structural** mutations patch the parsed [`AdxFile`] in memory and
//!   re-serialize, producing a well-formed container (valid checksum)
//!   whose *content* lies: out-of-frame registers, frame-size lies,
//!   branch targets past the end of a method, dangling pool references.
//!   These reach the verifier and lifter; the pipeline may reject them
//!   outright or degrade per-method, but must not accept them cleanly:
//!   [`Expectation::MustErrorOrDegrade`].

use crate::spec::{AppSpec, Origin, RequestSpec};
use nchecker::{AnalyzeError, AppReport, NChecker};
use nck_android::apk::Apk;
use nck_dex::{write_adx, AdxFile, Insn, Reg, TypeIdx};
use nck_netlibs::library::Library;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Byte length of the ADX container header (magic + version + reserved +
/// payload length + checksum) preceding the checksummed payload.
const ADX_HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8;

/// The corruption classes the fuzz harness draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MutationKind {
    /// Raw: cut bytes off the end of the serialized bundle.
    TruncateBytes,
    /// Raw: flip a byte inside the ADX header (magic, version, declared
    /// payload length, or checksum).
    CorruptHeader,
    /// Raw: flip a byte inside the checksummed ADX payload.
    FlipPayloadByte,
    /// Structural: point an in-code string reference past the pool.
    BadPoolIndex,
    /// Structural: declare more parameter registers than the frame holds.
    FrameLie,
    /// Structural: aim a branch past the end of the instruction stream.
    BranchOutOfRange,
    /// Structural: make an instruction touch a register outside its
    /// method's frame.
    RegisterOutOfFrame,
    /// Structural: point a class's superclass reference past the type
    /// pool.
    DanglingSuperclass,
}

/// Every class, for harnesses that iterate or build histograms.
pub const ALL_KINDS: &[MutationKind] = &[
    MutationKind::TruncateBytes,
    MutationKind::CorruptHeader,
    MutationKind::FlipPayloadByte,
    MutationKind::BadPoolIndex,
    MutationKind::FrameLie,
    MutationKind::BranchOutOfRange,
    MutationKind::RegisterOutOfFrame,
    MutationKind::DanglingSuperclass,
];

impl MutationKind {
    /// A stable lower-case name for logs and histograms.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::TruncateBytes => "truncate-bytes",
            MutationKind::CorruptHeader => "corrupt-header",
            MutationKind::FlipPayloadByte => "flip-payload-byte",
            MutationKind::BadPoolIndex => "bad-pool-index",
            MutationKind::FrameLie => "frame-lie",
            MutationKind::BranchOutOfRange => "branch-out-of-range",
            MutationKind::RegisterOutOfFrame => "register-out-of-frame",
            MutationKind::DanglingSuperclass => "dangling-superclass",
        }
    }
}

impl std::fmt::Display for MutationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the pipeline is allowed to do with a mutated bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The bundle must be rejected with a typed error at parse. Raw
    /// damage inside the ADX region lands here: the payload checksum
    /// (or the header checks in front of it) guarantees detection.
    MustError,
    /// The bundle must be rejected with a typed error *or* analyzed in
    /// degraded mode with the damaged methods recorded as skipped.
    /// Structural damage lands here: the parser may catch it (pool
    /// references are range-checked on read), and what the parser lets
    /// through the verifier and lifter must contain.
    MustErrorOrDegrade,
}

/// A record of one injected corruption: the ground truth the fuzz
/// harness checks pipeline behaviour against.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The corruption class.
    pub kind: MutationKind,
    /// The seed that produced it (reproduces the exact damage).
    pub seed: u64,
    /// Human-readable description of the exact damage.
    pub detail: String,
    /// The allowed pipeline outcomes.
    pub expectation: Expectation,
}

/// How the pipeline actually handled a mutated bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Rejected with a typed error.
    Rejected,
    /// Analyzed, with at least one method skipped as unanalyzable.
    Degraded,
    /// Analyzed cleanly as if nothing were wrong.
    Clean,
    /// The analysis panicked (contained by `analyze_bytes_checked`).
    Panicked,
}

/// Injects one seeded corruption into `apk` and returns the damaged
/// serialized bundle plus its ground-truth [`Mutation`] record.
///
/// Deterministic: the same `(apk, seed)` pair always yields the same
/// bytes and record. The mutation class is drawn from the seed; classes
/// that need a code-bearing method fall back to a raw payload flip when
/// the app has none.
pub fn mutate(apk: &Apk, seed: u64) -> (Vec<u8>, Mutation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = ALL_KINDS[rng.gen_range(0..ALL_KINDS.len())];
    let (bytes, detail, kind) = apply(apk, kind, &mut rng);
    let expectation = match kind {
        MutationKind::TruncateBytes
        | MutationKind::CorruptHeader
        | MutationKind::FlipPayloadByte => Expectation::MustError,
        _ => Expectation::MustErrorOrDegrade,
    };
    (
        bytes,
        Mutation {
            kind,
            seed,
            detail,
            expectation,
        },
    )
}

/// Applies `kind` to the bundle; returns the bytes, a description, and
/// the kind actually applied (structural kinds degrade to a raw payload
/// flip when no suitable target exists).
fn apply(apk: &Apk, kind: MutationKind, rng: &mut StdRng) -> (Vec<u8>, String, MutationKind) {
    match kind {
        MutationKind::TruncateBytes => {
            let bytes = apk.to_bytes();
            // Keep at least one byte gone and at most the whole ADX
            // region, so the damage is always inside checksummed (or
            // length-checked) territory.
            let adx_len = write_adx(&apk.adx).len();
            let cut = rng.gen_range(1..=adx_len);
            let keep = bytes.len() - cut;
            (
                bytes[..keep].to_vec(),
                format!("truncated {cut} of {} bytes", bytes.len()),
                kind,
            )
        }
        MutationKind::CorruptHeader => {
            let mut bytes = apk.to_bytes();
            let adx_start = bytes.len() - write_adx(&apk.adx).len();
            let at = adx_start + rng.gen_range(0..ADX_HEADER_LEN);
            let bit = rng.gen_range(0..8u32);
            bytes[at] ^= 1 << bit;
            (
                bytes,
                format!("flipped bit {bit} of ADX header byte {}", at - adx_start),
                kind,
            )
        }
        MutationKind::FlipPayloadByte => flip_payload(apk, rng),
        MutationKind::BadPoolIndex => {
            structural(apk, rng, kind, |adx, rng, class, method, insn| {
                let n = adx.pools.strings().len() as u32;
                adx.classes[class].methods[method]
                    .code
                    .as_mut()
                    .unwrap()
                    .insns[insn] = Insn::ConstString {
                    dst: Reg(0),
                    idx: nck_dex::StringIdx(n + rng.gen_range(1..100u32)),
                };
                format!("string reference past the {n}-entry pool")
            })
        }
        MutationKind::FrameLie => structural(apk, rng, kind, |adx, rng, class, method, _| {
            let code = adx.classes[class].methods[method].code.as_mut().unwrap();
            let lie = code.registers + rng.gen_range(1..16u16);
            code.ins = lie;
            format!("ins={lie} exceeds registers={}", code.registers)
        }),
        MutationKind::BranchOutOfRange => {
            structural(apk, rng, kind, |adx, rng, class, method, insn| {
                let code = adx.classes[class].methods[method].code.as_mut().unwrap();
                let target = code.insns.len() as u32 + rng.gen_range(1..100u32);
                code.insns[insn] = Insn::Goto { target };
                format!("branch to {target} past {}-insn method", code.insns.len())
            })
        }
        MutationKind::RegisterOutOfFrame => {
            structural(apk, rng, kind, |adx, _, class, method, insn| {
                let code = adx.classes[class].methods[method].code.as_mut().unwrap();
                let bad = Reg(code.registers);
                code.insns[insn] = Insn::Move { dst: bad, src: bad };
                format!("register {} in a {}-register frame", bad.0, code.registers)
            })
        }
        MutationKind::DanglingSuperclass => {
            let mut adx = apk.adx.clone();
            if adx.classes.is_empty() {
                return flip_payload(apk, rng);
            }
            let n = adx.pools.types().len() as u32;
            let class = rng.gen_range(0..adx.classes.len());
            adx.classes[class].superclass = Some(TypeIdx(n + rng.gen_range(1..100u32)));
            let detail = format!("class {class} superclass past the {n}-entry type pool");
            (rebundle(apk, adx), detail, kind)
        }
    }
}

/// Raw fallback: flips one byte inside the checksummed ADX payload.
fn flip_payload(apk: &Apk, rng: &mut StdRng) -> (Vec<u8>, String, MutationKind) {
    let mut bytes = apk.to_bytes();
    let adx = write_adx(&apk.adx);
    let adx_start = bytes.len() - adx.len();
    // Generated bundles always carry a non-empty payload (pools at
    // minimum), so this range is never empty.
    let at = adx_start + ADX_HEADER_LEN + rng.gen_range(0..adx.len() - ADX_HEADER_LEN);
    let bit = rng.gen_range(0..8u32);
    bytes[at] ^= 1 << bit;
    (
        bytes,
        format!("flipped bit {bit} of ADX payload byte {}", at - adx_start),
        MutationKind::FlipPayloadByte,
    )
}

/// Runs a structural patch against a randomly chosen code-bearing method,
/// falling back to a raw payload flip when the app has none.
fn structural(
    apk: &Apk,
    rng: &mut StdRng,
    kind: MutationKind,
    patch: impl FnOnce(&mut AdxFile, &mut StdRng, usize, usize, usize) -> String,
) -> (Vec<u8>, String, MutationKind) {
    let mut targets = Vec::new();
    for (ci, c) in apk.adx.classes.iter().enumerate() {
        for (mi, m) in c.methods.iter().enumerate() {
            if let Some(code) = &m.code {
                if !code.insns.is_empty() {
                    targets.push((ci, mi, code.insns.len()));
                }
            }
        }
    }
    let Some(&(class, method, len)) = targets.get(rng.gen_range(0..targets.len().max(1))) else {
        return flip_payload(apk, rng);
    };
    let insn = rng.gen_range(0..len);
    let mut adx = apk.adx.clone();
    let what = patch(&mut adx, rng, class, method, insn);
    let detail = format!("{what} (class {class}, method {method}, insn {insn})");
    (rebundle(apk, adx), detail, kind)
}

/// Re-serializes a patched ADX under the original manifest. The writer
/// recomputes length and checksum, so the container itself is valid —
/// only its content lies.
fn rebundle(apk: &Apk, adx: AdxFile) -> Vec<u8> {
    Apk::new(apk.manifest.clone(), adx).to_bytes()
}

/// The fuzz harnesses' base apps: structurally different, so mutations
/// land in single- and multi-request bodies, user and background
/// contexts, helper-mediated retries, and every supported library.
pub fn base_apps() -> Vec<AppSpec> {
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

/// A checker with all diagnostics silenced, for fuzz harnesses that
/// drive thousands of deliberately damaged bundles and only care about
/// expectation violations.
pub fn quiet_checker() -> NChecker {
    let mut checker = NChecker::new();
    checker.obs.events = nck_obs::Events::silent();
    checker
}

/// Classifies a pipeline result for comparison against an expectation.
pub fn classify(result: &Result<AppReport, AnalyzeError>) -> Outcome {
    match result {
        Err(AnalyzeError::Panic(_)) => Outcome::Panicked,
        Err(_) => Outcome::Rejected,
        Ok(report) if report.degraded() => Outcome::Degraded,
        Ok(_) => Outcome::Clean,
    }
}

/// Drives mutated `bytes` through the full pipeline (parse → verify →
/// lift → checkers, panics contained) and checks the outcome against the
/// mutation's ground truth.
///
/// Returns the observed [`Outcome`] on success and a violation
/// description naming the seed, class, and damage on failure. Violations
/// are exactly: a panic (any class), or acceptance outside the
/// expectation envelope — a clean report for any mutation, or a merely
/// degraded report for a [`Expectation::MustError`] class.
pub fn check(checker: &NChecker, bytes: &[u8], m: &Mutation) -> Result<Outcome, String> {
    let outcome = classify(&checker.analyze_bytes_checked(bytes));
    let violation = |what: &str| Err(format!("seed {}: {} ({}) {what}", m.seed, m.kind, m.detail));
    match (outcome, m.expectation) {
        (Outcome::Panicked, _) => violation("panicked"),
        (Outcome::Clean, _) => violation("was accepted cleanly"),
        (Outcome::Degraded, Expectation::MustError) => {
            violation("was only degraded but raw damage must be rejected at parse")
        }
        _ => Ok(outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> Apk {
        crate::generate(&AppSpec::new(
            "com.mutate.test",
            vec![
                RequestSpec::new(Library::Volley, Origin::UserClick),
                RequestSpec::new(Library::OkHttp, Origin::Service),
            ],
        ))
    }

    #[test]
    fn mutation_is_deterministic() {
        let apk = healthy();
        for seed in 0..32 {
            let (a, ma) = mutate(&apk, seed);
            let (b, mb) = mutate(&apk, seed);
            assert_eq!(a, b, "seed {seed} bytes differ");
            assert_eq!(ma.kind, mb.kind);
            assert_eq!(ma.detail, mb.detail);
        }
    }

    #[test]
    fn mutation_always_changes_the_bytes() {
        let apk = healthy();
        let clean = apk.to_bytes();
        for seed in 0..64 {
            let (bytes, m) = mutate(&apk, seed);
            assert_ne!(bytes, clean, "seed {seed} ({}) left bundle intact", m.kind);
        }
    }

    #[test]
    fn seeds_cover_every_class() {
        let apk = healthy();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..256 {
            seen.insert(mutate(&apk, seed).1.kind);
        }
        for &kind in ALL_KINDS {
            assert!(seen.contains(&kind), "no seed in 0..256 produced {kind}");
        }
    }

    #[test]
    fn raw_damage_is_rejected_at_parse() {
        let apk = healthy();
        for seed in 0..128 {
            let (bytes, m) = mutate(&apk, seed);
            if m.expectation != Expectation::MustError {
                continue;
            }
            assert!(
                Apk::from_bytes(&bytes).is_err(),
                "seed {seed} ({}: {}) parsed despite raw damage",
                m.kind,
                m.detail
            );
        }
    }

    #[test]
    fn every_mutation_in_a_small_sweep_is_handled() {
        let apk = healthy();
        let checker = quiet_checker();
        for seed in 0..64 {
            let (bytes, m) = mutate(&apk, seed);
            if let Err(violation) = check(&checker, &bytes, &m) {
                panic!("{violation}");
            }
        }
    }
}
