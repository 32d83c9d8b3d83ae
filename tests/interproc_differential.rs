//! Differential proptest: constant-return summaries vs concrete execution.
//!
//! Generates random acyclic call chains of static `()I` methods — leaves
//! return literals, inner methods forward, offset, scale, or negate their
//! callee's result — computes interprocedural summaries over the lifted
//! program, and executes every method under `nck-interp`. Wherever the
//! summary engine claims a constant return, the machine must produce
//! exactly that value; and on these fully resolvable chains the engine
//! must claim a constant for every method (no lost precision).

use nck_dataflow::interproc::{CallKind, MethodInput, Summaries};
use nck_dataflow::CVal;
use nck_dex::builder::AdxBuilder;
use nck_dex::{AccessFlags, BinOp, UnOp};
use nck_interp::{Machine, NopEnv, Outcome, Value};
use nck_ir::cfg::Cfg;
use nck_ir::{lift_file, Program};
use nck_obs::Obs;
use proptest::prelude::*;

/// What one chain method does with the next method's result.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `return c`
    Const(i64),
    /// `return f{i+1}()`
    Forward,
    /// `return f{i+1}() + c`
    Offset(i64),
    /// `return f{i+1}() * c`
    Scale(i64),
    /// `return -f{i+1}()`
    Negate,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    // Constants stay small so chains of multiplies cannot overflow i64.
    prop_oneof![
        (-100i64..=100).prop_map(Shape::Const),
        Just(Shape::Forward),
        (-100i64..=100).prop_map(Shape::Offset),
        (-100i64..=100).prop_map(Shape::Scale),
        Just(Shape::Negate),
    ]
}

/// Builds `f0..f{n-1}` on one class, each shaped by `shapes[i]` and
/// calling `f{i+1}`; the last method is forced to a literal so the chain
/// terminates.
fn build_chain(shapes: &[Shape]) -> Program {
    let mut b = AdxBuilder::new();
    b.class("Lgen/Chain;", |c| {
        for (i, &shape) in shapes.iter().enumerate() {
            let shape = if i + 1 == shapes.len() {
                match shape {
                    Shape::Const(v) | Shape::Offset(v) | Shape::Scale(v) => Shape::Const(v),
                    Shape::Forward | Shape::Negate => Shape::Const(7),
                }
            } else {
                shape
            };
            let name = format!("f{i}");
            let callee = format!("f{}", i + 1);
            c.method(
                &name,
                "()I",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                4,
                |m| {
                    let (r0, r1) = (m.reg(0), m.reg(1));
                    match shape {
                        Shape::Const(v) => m.const_int(r0, v),
                        Shape::Forward => {
                            m.invoke_static("Lgen/Chain;", &callee, "()I", &[]);
                            m.move_result(r0);
                        }
                        Shape::Offset(v) => {
                            m.invoke_static("Lgen/Chain;", &callee, "()I", &[]);
                            m.move_result(r0);
                            m.const_int(r1, v);
                            m.binop(BinOp::Add, r0, r0, r1);
                        }
                        Shape::Scale(v) => {
                            m.invoke_static("Lgen/Chain;", &callee, "()I", &[]);
                            m.move_result(r0);
                            m.const_int(r1, v);
                            m.binop(BinOp::Mul, r0, r0, r1);
                        }
                        Shape::Negate => {
                            m.invoke_static("Lgen/Chain;", &callee, "()I", &[]);
                            m.move_result(r0);
                            m.unop(UnOp::Neg, r0, r0);
                        }
                    }
                    m.ret(Some(r0));
                },
            );
        }
    });
    lift_file(&b.finish().unwrap()).expect("generated chain lifts")
}

/// Summaries over `p`, resolving every call the program itself can
/// resolve and leaving the rest opaque (no registry in play here).
fn summaries_of(p: &Program) -> Summaries {
    let inputs: Vec<MethodInput<'_>> = p
        .methods
        .iter()
        .map(|m| MethodInput {
            body: m.body.as_deref(),
            is_static: m.flags.contains(AccessFlags::STATIC),
        })
        .collect();
    let cfgs_owned: Vec<Option<Cfg>> = inputs.iter().map(|i| i.body.map(Cfg::build)).collect();
    let cfgs: Vec<Option<&Cfg>> = cfgs_owned.iter().map(Option::as_ref).collect();
    Summaries::compute(
        &inputs,
        &cfgs,
        |_, _, inv| match p.lookup_method(inv.callee) {
            Some(id) => CallKind::Callees(vec![id.0 as usize]),
            None => CallKind::Opaque,
        },
        &Obs::disabled(),
    )
}

/// Checks every method of `p`: the summary's constant return must match
/// what the interpreter actually computes. Returns how many methods were
/// proven constant.
fn check_program(p: &Program) -> usize {
    let summaries = summaries_of(p);
    let mut proven = 0;
    for (id, method) in p.iter_methods() {
        if method.body.is_none() {
            continue;
        }
        if let CVal::Int(claimed) = summaries.summary(id.0 as usize).const_return {
            proven += 1;
            let mut machine = Machine::new(p, NopEnv).with_step_limit(100_000);
            let outcome = machine.call(id, vec![]).expect("chain method executes");
            assert_eq!(
                outcome,
                Outcome::Returned(Some(Value::Int(claimed))),
                "summary claims {} returns {claimed}",
                p.display_method_key(method.key),
            );
        }
    }
    proven
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random chains of depth 1-6: the engine proves every method
    /// constant, and each proven value matches concrete execution.
    #[test]
    fn const_return_summaries_match_execution(
        shapes in proptest::collection::vec(arb_shape(), 1..=6),
    ) {
        let p = build_chain(&shapes);
        let proven = check_program(&p);
        prop_assert_eq!(proven, shapes.len(), "all chain methods fold to constants");
    }
}

/// A fixed depth-5 chain exercising every shape at once:
/// `f0 = -f1()`, `f1 = f2() * 3`, `f2 = f3() + 10`, `f3 = f4()`,
/// `f4 = 5` — so `f0 = -((5 + 10) * 3) = -45`.
#[test]
fn deep_mixed_chain_folds_to_the_expected_constant() {
    let shapes = [
        Shape::Negate,
        Shape::Scale(3),
        Shape::Offset(10),
        Shape::Forward,
        Shape::Const(5),
    ];
    let p = build_chain(&shapes);
    assert_eq!(check_program(&p), 5);
    let summaries = summaries_of(&p);
    let f0 = p
        .iter_methods()
        .find(|(_, m)| p.symbols.resolve(m.key.name) == "f0")
        .map(|(id, _)| id)
        .unwrap();
    assert_eq!(
        summaries.summary(f0.0 as usize).const_return,
        CVal::Int(-45)
    );
}

/// An unresolvable callee keeps the caller honest: the engine must not
/// claim a constant it cannot prove.
#[test]
fn opaque_calls_stay_nonconstant() {
    let mut b = AdxBuilder::new();
    b.class("Lgen/Chain;", |c| {
        c.method(
            "f0",
            "()I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            4,
            |m| {
                m.invoke_static("Lext/Lib;", "mystery", "()I", &[]);
                m.move_result(m.reg(0));
                m.ret(Some(m.reg(0)));
            },
        );
    });
    let p = lift_file(&b.finish().unwrap()).unwrap();
    let summaries = summaries_of(&p);
    assert!(
        !matches!(summaries.summary(0).const_return, CVal::Int(_)),
        "an opaque call must not fold"
    );
}
