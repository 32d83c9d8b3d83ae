//! Property-based tests: `write_adx` ∘ `read_adx` is the identity on the
//! in-memory model, and the parser never panics on corrupted inputs.

use nck_dex::builder::AdxBuilder;
use nck_dex::{read_adx, write_adx, AccessFlags, AdxFile, BinOp, CondOp, Insn, Reg, UnOp};
use proptest::prelude::*;

const REGS: u16 = 8;

/// Strategy producing a single non-branching instruction valid for a frame
/// of `REGS` registers and the pools built by `file_from_insns`.
fn arb_straightline_insn() -> impl Strategy<Value = Insn> {
    let reg = || (0..REGS).prop_map(Reg);
    prop_oneof![
        Just(Insn::Nop),
        (reg(), reg()).prop_map(|(dst, src)| Insn::Move { dst, src }),
        (reg(), any::<i64>()).prop_map(|(dst, value)| Insn::ConstInt { dst, value }),
        reg().prop_map(|dst| Insn::ConstNull { dst }),
        (reg(), reg()).prop_map(|(dst, arr)| Insn::ArrayLength { dst, arr }),
        (reg(), reg(), reg()).prop_map(|(dst, arr, idx)| Insn::Aget { dst, arr, idx }),
        (reg(), reg(), reg()).prop_map(|(src, arr, idx)| Insn::Aput { src, arr, idx }),
        (arb_binop(), reg(), reg(), reg()).prop_map(|(op, dst, a, b)| Insn::BinOp {
            op,
            dst,
            a,
            b
        }),
        (arb_binop(), reg(), reg(), any::<i32>()).prop_map(|(op, dst, a, lit)| Insn::BinOpLit {
            op,
            dst,
            a,
            lit
        }),
        (arb_unop(), reg(), reg()).prop_map(|(op, dst, src)| Insn::UnOp { op, dst, src }),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)]
}

/// Builds a one-class file whose single method body is `insns` followed by
/// a `return-void`, plus a conditional branch over the body so branches are
/// exercised too.
fn file_from_insns(insns: Vec<Insn>, strings: Vec<String>) -> AdxFile {
    let mut b = AdxBuilder::new();
    for s in &strings {
        b.string(s);
    }
    b.class("Lgen/C;", |c| {
        c.method("m", "(I)V", AccessFlags::PUBLIC, REGS, |m| {
            let end = m.new_label();
            m.ifz(CondOp::Eq, m.param(1).unwrap(), end);
            for insn in &insns {
                // Re-emit through the raw path: the builder has no generic
                // "emit", so map each variant onto its emit method.
                match insn.clone() {
                    Insn::Nop => m.nop(),
                    Insn::Move { dst, src } => m.mov(dst, src),
                    Insn::ConstInt { dst, value } => m.const_int(dst, value),
                    Insn::ConstNull { dst } => m.const_null(dst),
                    Insn::ArrayLength { dst, arr } => m.array_length(dst, arr),
                    Insn::Aget { dst, arr, idx } => m.aget(dst, arr, idx),
                    Insn::Aput { src, arr, idx } => m.aput(src, arr, idx),
                    Insn::BinOp { op, dst, a, b } => m.binop(op, dst, a, b),
                    Insn::BinOpLit { op, dst, a, lit } => m.binop_lit(op, dst, a, lit),
                    Insn::UnOp { op, dst, src } => m.unop(op, dst, src),
                    other => panic!("strategy produced unexpected insn {other:?}"),
                }
            }
            m.bind(end);
            m.ret(None);
        });
    });
    b.finish().expect("all labels bound")
}

proptest! {
    #[test]
    fn write_read_roundtrip(
        insns in proptest::collection::vec(arb_straightline_insn(), 0..64),
        strings in proptest::collection::vec("[a-zA-Z0-9/;$_.()-]{0,24}", 0..8),
    ) {
        let file = file_from_insns(insns, strings);
        let bytes = write_adx(&file);
        let parsed = read_adx(&bytes).expect("roundtrip parse");
        prop_assert_eq!(file.classes.len(), parsed.classes.len());
        prop_assert_eq!(file.pools.strings(), parsed.pools.strings());
        prop_assert_eq!(file.pools.types().len(), parsed.pools.types().len());
        let a = &file.classes[0].methods[0];
        let b = &parsed.classes[0].methods[0];
        prop_assert_eq!(a, b);
        // A second roundtrip must be byte-identical (canonical encoding).
        prop_assert_eq!(bytes.clone(), write_adx(&parsed));
        // The roundtripped file still verifies clean.
        prop_assert!(nck_dex::verify::verify(&parsed).is_ok_and(|v| v.is_clean()));
    }

    #[test]
    fn parser_never_panics_on_corruption(
        insns in proptest::collection::vec(arb_straightline_insn(), 0..16),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..255), 1..8),
    ) {
        let file = file_from_insns(insns, vec![]);
        let mut bytes = write_adx(&file);
        for (at, xor) in flips {
            let i = at.index(bytes.len());
            bytes[i] ^= xor;
        }
        // Must either parse or error — never panic. Checksum catches most.
        let _ = read_adx(&bytes);
    }

    #[test]
    fn parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_adx(&bytes);
    }

    #[test]
    fn truncation_always_errors(
        insns in proptest::collection::vec(arb_straightline_insn(), 1..16),
        cut in 1usize..100,
    ) {
        let file = file_from_insns(insns, vec![]);
        let bytes = write_adx(&file);
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(read_adx(&bytes[..bytes.len() - cut]).is_err());
    }
}
