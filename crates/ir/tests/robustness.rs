//! Robustness properties of the parse → verify → lift front half: no
//! input, however damaged, may panic it.
//!
//! Three layers of adversarial input, matching how damage can reach the
//! pipeline:
//!
//! 1. arbitrary bytes handed to the parser,
//! 2. valid serialized files with raw byte damage (the checksum must
//!    catch every flip; truncation must be a typed error), and
//! 3. well-formed containers whose *parsed content* lies (the verifier
//!    must flag them, `lift_file` must return `Err` not panic, and
//!    `lift_skipping` must stay total).

use nck_dex::builder::AdxBuilder;
use nck_dex::{read_adx, write_adx, AccessFlags, AdxFile, Insn, Reg, VerifyScope};
use nck_ir::SkipReason;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A small but non-trivial file: two classes, a call, a branch.
fn sample_file() -> AdxFile {
    let mut b = AdxBuilder::new();
    b.class("Lrob/Helper;", |c| {
        c.super_class("Ljava/lang/Object;");
        c.method(
            "answer",
            "()I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            2,
            |m| {
                m.const_int(m.reg(0), 42);
                m.ret(Some(m.reg(0)));
            },
        );
    });
    b.class("Lrob/Main;", |c| {
        c.super_class("Ljava/lang/Object;");
        c.method(
            "go",
            "()I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            3,
            |m| {
                m.invoke_static("Lrob/Helper;", "answer", "()I", &[]);
                m.move_result(m.reg(0));
                let done = m.new_label();
                m.ifz(nck_dex::CondOp::Eq, m.reg(0), done);
                m.const_int(m.reg(1), 1);
                m.bind(done);
                m.ret(Some(m.reg(0)));
            },
        );
    });
    b.finish().unwrap()
}

/// Runs the whole front half on a parsed file; every step must return,
/// never panic.
fn front_half_is_total(file: &AdxFile) {
    let errors = nck_dex::verify::verify(file);
    match nck_ir::lift_file(file) {
        Ok(_) | Err(_) => {}
    }
    let (program, skips) = nck_ir::lift_skipping(file, None);
    // Skipped methods stay bodiless rather than dropped, so resolution
    // stays intact for the others.
    assert!(program.methods.iter().filter(|m| m.body.is_none()).count() >= skips.len());
    // The prescan's precondition: once the methods the verifier flags
    // are skipped, the lifter rejects nothing more.
    if errors.iter().all(|e| e.scope == VerifyScope::Method) {
        let flagged: BTreeSet<&str> = errors.iter().map(|e| e.method.as_str()).collect();
        let policy = |m: &str| flagged.contains(m).then(|| "flagged".to_owned());
        let (_, skips) = nck_ir::lift_skipping(file, (!flagged.is_empty()).then_some(&policy));
        for skip in skips {
            assert!(
                matches!(skip.reason, SkipReason::Policy(_)),
                "the verifier missed {}: {}",
                skip.method,
                skip.reason
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Random bytes essentially never carry a valid checksum; any
        // result is fine, panicking is not.
        let _ = read_adx(&bytes);
    }

    #[test]
    fn truncation_of_a_valid_file_is_a_typed_error(cut in 1usize..200) {
        let bytes = write_adx(&sample_file());
        let keep = bytes.len().saturating_sub(cut);
        prop_assert!(read_adx(&bytes[..keep]).is_err());
    }

    #[test]
    fn byte_flips_in_a_valid_file_are_rejected(at in 0usize..1024, bit in 0u8..8) {
        let mut bytes = write_adx(&sample_file());
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        // The header is length- and checksum-guarded, the payload is
        // checksummed: every single-bit flip must be detected.
        prop_assert!(read_adx(&bytes).is_err(), "flip at {at} bit {bit} accepted");
    }

    #[test]
    fn damaged_parsed_files_never_panic_verify_or_lift(
        reg in 0u16..64,
        target in 0u32..64,
        ins_lie in 0u16..64,
        which in 0usize..3,
    ) {
        let mut file = sample_file();
        // Damage the parsed model directly, bypassing the parser's own
        // range checks — the strongest adversary verify/lift can face.
        let code = file.classes[1].methods[0].code.as_mut().unwrap();
        match which {
            0 => code.insns[0] = Insn::Move { dst: Reg(reg), src: Reg(reg) },
            1 => code.insns[0] = Insn::Goto { target },
            _ => code.ins = ins_lie,
        }
        front_half_is_total(&file);
    }

    #[test]
    fn lenient_lift_honours_arbitrary_skip_policies(skip_mask in 0u32..8) {
        let file = sample_file();
        let (program, skips) = nck_ir::lift_skipping(&file, Some(&|name| {
            let h = name.len() as u32 % 8;
            (h & skip_mask != 0).then(|| "policy".to_owned())
        }));
        // Skipped methods stay resolvable (declared, bodiless).
        for skip in &skips {
            assert!(
                program.iter_methods().any(|(_, m)| {
                    program.symbols.resolve(m.key.name) == skip.method
                        || skip.method.contains(program.symbols.resolve(m.key.name))
                }),
                "skipped {} vanished from the program",
                skip.method
            );
        }
    }
}
