//! Lifting edge cases: switches, super calls, nested traps, static
//! methods, and whole-file roundtrips through binary and IR.

use nck_dex::builder::AdxBuilder;
use nck_dex::{read_adx, write_adx, AccessFlags, BinOp, CondOp};
use nck_ir::{lift_file, Stmt, StmtId};

#[test]
fn switch_arms_remap_to_statements() {
    let mut b = AdxBuilder::new();
    b.class("Le/S;", |c| {
        c.method(
            "f",
            "(I)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            4,
            |m| {
                let x = m.param(0).unwrap();
                let one = m.new_label();
                let two = m.new_label();
                let out = m.new_label();
                m.switch(x, &[(1, one), (2, two)]);
                m.const_int(m.reg(0), 0);
                m.goto(out);
                m.bind(one);
                m.const_int(m.reg(0), 10);
                m.goto(out);
                m.bind(two);
                m.const_int(m.reg(0), 20);
                m.bind(out);
                m.ret(Some(m.reg(0)));
            },
        );
    });
    let p = lift_file(&b.finish().unwrap()).unwrap();
    let body = p.methods[0].body.as_ref().unwrap();
    let switch = body
        .iter()
        .find_map(|(_, s)| match s {
            Stmt::Switch { arms, .. } => Some(arms.clone()),
            _ => None,
        })
        .expect("switch lifted");
    assert_eq!(switch.len(), 2);
    // Each arm must land on a constant assignment.
    for (_, target) in switch {
        assert!(
            matches!(body.stmt(target), Stmt::Assign { .. }),
            "{target:?}"
        );
    }
}

#[test]
fn super_calls_resolve_in_the_call_graph_sense() {
    let mut b = AdxBuilder::new();
    b.class("Le/Base;", |c| {
        c.method("g", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
    });
    b.class("Le/Derived;", |c| {
        c.super_class("Le/Base;");
        c.method("g", "()V", AccessFlags::PUBLIC, 2, |m| {
            m.invoke_super("Le/Base;", "g", "()V", &[m.param(0).unwrap()]);
            m.ret(None);
        });
    });
    let p = lift_file(&b.finish().unwrap()).unwrap();
    // The derived override's body calls the base implementation.
    let derived_g = p
        .iter_methods()
        .find(|(_, m)| {
            p.symbols.resolve(m.key.class) == "Le/Derived;" && p.symbols.resolve(m.key.name) == "g"
        })
        .map(|(id, _)| id)
        .unwrap();
    let body = p.method(derived_g).body.as_ref().unwrap();
    let call = body
        .iter()
        .find_map(|(_, s)| s.invoke_expr())
        .expect("super call lifted");
    assert_eq!(call.kind, nck_dex::InvokeKind::Super);
    assert_eq!(p.symbols.resolve(call.callee.class), "Le/Base;");
}

#[test]
fn nested_traps_preserve_order_and_coverage() {
    let mut b = AdxBuilder::new();
    b.class("Le/T;", |c| {
        c.method("f", "()V", AccessFlags::PUBLIC, 6, |m| {
            let h_inner = m.new_label();
            let h_outer = m.new_label();
            let done = m.new_label();
            let outer = m.begin_try();
            let inner = m.begin_try();
            m.invoke_virtual("Le/T;", "g", "()V", &[m.param(0).unwrap()]);
            m.end_try(inner, &[(Some("Ljava/io/IOException;"), h_inner)]);
            m.invoke_virtual("Le/T;", "h", "()V", &[m.param(0).unwrap()]);
            m.end_try(outer, &[(None, h_outer)]);
            m.goto(done);
            m.bind(h_inner);
            m.move_exception(m.reg(0));
            m.goto(done);
            m.bind(h_outer);
            m.move_exception(m.reg(1));
            m.bind(done);
            m.ret(None);
        });
        c.method("g", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        c.method("h", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
    });
    let file = b.finish().unwrap();
    assert!(nck_dex::verify::verify(&file).is_ok_and(|v| v.is_clean()));
    let p = lift_file(&file).unwrap();
    let body = p.methods[0].body.as_ref().unwrap();
    assert_eq!(body.traps.len(), 2);
    // The first call is covered by both traps, innermost first.
    let call_site = body
        .iter()
        .find(|(_, s)| s.invoke_expr().is_some())
        .map(|(id, _)| id)
        .unwrap();
    let traps: Vec<_> = body.traps_at(call_site).collect();
    assert_eq!(traps.len(), 2);
    assert!(traps[0].exception.is_some(), "inner (typed) trap first");
    assert!(traps[1].exception.is_none());
}

#[test]
fn binary_ir_binary_is_stable() {
    // write → read → lift → (no mutation) → write must be byte-identical.
    let mut b = AdxBuilder::new();
    b.class("Le/R;", |c| {
        c.method(
            "f",
            "(II)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            6,
            |m| {
                let a = m.param(0).unwrap();
                let bb = m.param(1).unwrap();
                let out = m.new_label();
                m.if_(CondOp::Le, a, bb, out);
                m.binop(BinOp::Sub, a, a, bb);
                m.bind(out);
                m.ret(Some(a));
            },
        );
    });
    let file = b.finish().unwrap();
    let bytes1 = write_adx(&file);
    let parsed = read_adx(&bytes1).unwrap();
    let bytes2 = write_adx(&parsed);
    assert_eq!(bytes1, bytes2);
    // And the lift is identical from both.
    let p1 = lift_file(&file).unwrap();
    let p2 = lift_file(&parsed).unwrap();
    assert_eq!(
        p1.methods[0].body.as_ref().unwrap().stmts,
        p2.methods[0].body.as_ref().unwrap().stmts
    );
}

#[test]
fn goto_only_method_lifts_with_correct_targets() {
    let mut b = AdxBuilder::new();
    b.class("Le/G;", |c| {
        c.method(
            "f",
            "()V",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            2,
            |m| {
                let a = m.new_label();
                let bb = m.new_label();
                m.goto(a);
                m.bind(bb);
                m.ret(None);
                m.bind(a);
                m.goto(bb);
            },
        );
    });
    let p = lift_file(&b.finish().unwrap()).unwrap();
    let body = p.methods[0].body.as_ref().unwrap();
    // goto(2), return, goto(1) — static method, no identity preamble.
    assert_eq!(body.stmts.len(), 3);
    assert_eq!(body.stmts[0], Stmt::Goto { target: StmtId(2) });
    assert_eq!(body.stmts[2], Stmt::Goto { target: StmtId(1) });
}
