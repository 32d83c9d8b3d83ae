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
//!    `lift` must take whatever the verifier passes).

use nck_dex::builder::AdxBuilder;
use nck_dex::{
    read_adx, write_adx, AccessFlags, AdxFile, FieldDef, FieldIdx, Insn, MethodIdx, Reg, TypeIdx,
};
use nck_ir::Program;
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

/// Whether `program` holds a body for exactly the concrete methods of
/// `file` outside `flagged` (class index, method index).
fn bodies_match(file: &AdxFile, program: &Program, flagged: &BTreeSet<(usize, usize)>) -> bool {
    file.classes
        .iter()
        .zip(&program.classes)
        .enumerate()
        .all(|(ci, (class, lifted))| {
            class.methods.len() == lifted.methods.len()
                && class
                    .methods
                    .iter()
                    .zip(&lifted.methods)
                    .enumerate()
                    .all(|(mi, (m, &id))| {
                        let concrete = !m.flags.contains(AccessFlags::ABSTRACT);
                        program.method(id).body.is_some()
                            == (concrete && !flagged.contains(&(ci, mi)))
                    })
        })
}

/// Runs the whole front half on a parsed file; every step must return,
/// never panic. A file that reaches the lifter lifts every method,
/// with bodies for exactly the concrete ones the verifier did not flag.
fn front_half_is_total(file: &AdxFile) {
    let _ = nck_ir::lift_file(file);
    if let Ok(verified) = nck_dex::verify::verify(file) {
        let program = nck_ir::lift(&verified);
        assert_eq!(program.classes.len(), file.classes.len());
        let flagged = verified.flagged().map(|(c, m, _)| (c, m)).collect();
        assert!(
            bodies_match(file, &program, &flagged),
            "{:?}",
            verified.errors()
        );
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
        which in 0usize..7,
    ) {
        let mut file = sample_file();
        // Damage the parsed model directly, bypassing the parser's own
        // range checks — the strongest adversary verify/lift can face.
        // `target` doubles as a pool index, in range or past the pool.
        let class = &mut file.classes[1];
        let code = class.methods[0].code.as_mut().unwrap();
        match which {
            0 => code.insns[0] = Insn::Move { dst: Reg(reg), src: Reg(reg) },
            1 => code.insns[0] = Insn::Goto { target },
            2 => code.ins = ins_lie,
            3 => class.ty = TypeIdx(target),
            4 => class.interfaces.push(TypeIdx(target)),
            5 => class.fields.push(FieldDef { field: FieldIdx(target), flags: AccessFlags::PUBLIC }),
            _ => class.methods[0].method = MethodIdx(target),
        }
        front_half_is_total(&file);
    }

    #[test]
    fn lift_honours_arbitrary_flagged_sets(damage_mask in 0u32..4) {
        let mut file = sample_file();
        // Method `i` (one per class) gets an out-of-frame register when
        // bit `i` is set.
        let mut damaged = BTreeSet::new();
        for (ci, class) in file.classes.iter_mut().enumerate() {
            if damage_mask & (1 << ci) != 0 {
                let code = class.methods[0].code.as_mut().unwrap();
                code.insns.insert(0, Insn::Move { dst: Reg(99), src: Reg(99) });
                damaged.insert((ci, 0));
            }
        }
        let verified = nck_dex::verify::verify(&file).expect("method-scoped damage only");
        let flagged: BTreeSet<(usize, usize)> = verified.flagged().map(|(c, m, _)| (c, m)).collect();
        prop_assert_eq!(&flagged, &damaged);
        // Flagged methods stay declared, bodiless; the rest lift whole.
        let program = nck_ir::lift(&verified);
        prop_assert_eq!(program.methods.len(), 2);
        prop_assert!(bodies_match(&file, &program, &flagged));
    }
}
