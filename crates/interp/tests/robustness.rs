//! Robustness: the interpreter must never panic on any verifier-clean
//! program, terminating with a result, a crash outcome, or the step
//! limit.

use nck_dex::builder::AdxBuilder;
use nck_dex::{AccessFlags, BinOp, CondOp};
use nck_interp::{Machine, NopEnv, Value};
use proptest::prelude::*;

/// A little structured-program generator: nested blocks of arithmetic,
/// branches, loops, try/catch, and calls to a sibling method.
#[derive(Debug, Clone)]
enum Block {
    Arith { dst: u16, a: u16, b: u16, op: BinOp },
    Branch { cond_reg: u16, then_len: u8 },
    Loop { counter: u16, bound: i8 },
    TryDiv { a: u16, b: u16 },
    CallSibling,
}

fn arb_block() -> impl Strategy<Value = Block> {
    let reg = || 0..6u16;
    prop_oneof![
        (
            reg(),
            reg(),
            reg(),
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Div),
                Just(BinOp::Rem),
                Just(BinOp::Xor),
            ]
        )
            .prop_map(|(dst, a, b, op)| Block::Arith { dst, a, b, op }),
        (reg(), 0u8..4).prop_map(|(cond_reg, then_len)| Block::Branch { cond_reg, then_len }),
        (reg(), -3i8..6).prop_map(|(counter, bound)| Block::Loop { counter, bound }),
        (reg(), reg()).prop_map(|(a, b)| Block::TryDiv { a, b }),
        Just(Block::CallSibling),
    ]
}

fn build(blocks: &[Block]) -> nck_ir::Program {
    let mut b = AdxBuilder::new();
    b.class("Lr/R;", |c| {
        c.method(
            "sib",
            "()I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            2,
            |m| {
                m.const_int(m.reg(0), 7);
                m.ret(Some(m.reg(0)));
            },
        );
        c.method(
            "f",
            "(I)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            8,
            |m| {
                for r in 0..6 {
                    m.const_int(m.reg(r), i64::from(r) + 1);
                }
                for block in blocks {
                    match *block {
                        Block::Arith { dst, a, b, op } => {
                            m.binop(op, m.reg(dst), m.reg(a), m.reg(b))
                        }
                        Block::Branch { cond_reg, then_len } => {
                            let skip = m.new_label();
                            m.ifz(CondOp::Eq, m.reg(cond_reg), skip);
                            for k in 0..then_len {
                                m.binop_lit(
                                    BinOp::Add,
                                    m.reg(u16::from(k % 6)),
                                    m.reg(cond_reg),
                                    1,
                                );
                            }
                            m.bind(skip);
                        }
                        Block::Loop { counter, bound } => {
                            let head = m.new_label();
                            let done = m.new_label();
                            let lim = m.reg(6);
                            m.const_int(m.reg(counter), 0);
                            m.const_int(lim, i64::from(bound));
                            m.bind(head);
                            m.if_(CondOp::Ge, m.reg(counter), lim, done);
                            m.binop_lit(BinOp::Add, m.reg(counter), m.reg(counter), 1);
                            m.goto(head);
                            m.bind(done);
                        }
                        Block::TryDiv { a, b } => {
                            let handler = m.new_label();
                            let out = m.new_label();
                            let t = m.begin_try();
                            m.binop(BinOp::Div, m.reg(a), m.reg(a), m.reg(b));
                            m.end_try(t, &[(Some("Ljava/lang/ArithmeticException;"), handler)]);
                            m.goto(out);
                            m.bind(handler);
                            m.move_exception(m.reg(7));
                            m.const_int(m.reg(a), 0);
                            m.bind(out);
                        }
                        Block::CallSibling => {
                            m.invoke_static("Lr/R;", "sib", "()I", &[]);
                            m.move_result(m.reg(5));
                        }
                    }
                }
                m.ret(Some(m.reg(0)));
            },
        );
    });
    let file = b.finish().expect("labels bound");
    assert!(nck_dex::verify::verify(&file).is_ok_and(|v| v.is_clean()));
    nck_ir::lift_file(&file).expect("liftable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interpreter_never_panics(
        blocks in proptest::collection::vec(arb_block(), 0..16),
        arg in any::<i32>(),
    ) {
        let program = build(&blocks);
        let f = program
            .iter_methods()
            .find(|(_, m)| program.symbols.resolve(m.key.name) == "f")
            .map(|(id, _)| id)
            .unwrap();
        let mut machine = Machine::new(&program, NopEnv).with_step_limit(20_000);
        // Any of Ok(Returned/Threw) or Err(StepLimit) is acceptable;
        // panicking or BadState is not.
        match machine.call(f, vec![Value::Int(i64::from(arg))]) {
            Ok(_) => {}
            Err(nck_interp::ExecError::StepLimit) => {}
            Err(e) => prop_assert!(false, "unexpected interpreter error: {e:?}"),
        }
    }

    #[test]
    fn interpreter_is_deterministic(
        blocks in proptest::collection::vec(arb_block(), 0..12),
        arg in any::<i16>(),
    ) {
        let program = build(&blocks);
        let f = program
            .iter_methods()
            .find(|(_, m)| program.symbols.resolve(m.key.name) == "f")
            .map(|(id, _)| id)
            .unwrap();
        let run = || {
            let mut machine = Machine::new(&program, NopEnv).with_step_limit(20_000);
            machine.call(f, vec![Value::Int(i64::from(arg))])
        };
        prop_assert_eq!(run(), run());
    }
}
