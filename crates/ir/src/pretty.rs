//! Jimple-style pretty printing of IR bodies, for reports and debugging.

use crate::body::{Body, IdentityKind, InvokeExpr, LocalId, Operand, Program, Rvalue, Stmt};
use std::fmt::Write as _;

/// The name of local `l`: `this` for the receiver the identity preamble
/// binds, otherwise its register `vN` (`v?N` past the declared frame).
fn local_name(body: &Body, l: LocalId) -> String {
    let is_this =
        |s: &Stmt| matches!(s, Stmt::Identity { local, kind: IdentityKind::This } if *local == l);
    if l.0 as usize >= body.locals.len() {
        format!("v?{}", l.0)
    } else if body
        .stmts
        .iter()
        .take_while(|s| matches!(s, Stmt::Identity { .. }))
        .any(is_this)
    {
        "this".to_owned()
    } else {
        format!("v{}", l.0)
    }
}

fn fmt_operand(p: &Program, body: &Body, op: Operand) -> String {
    match op {
        Operand::Local(l) => local_name(body, l),
        Operand::IntConst(v) => v.to_string(),
        Operand::StrConst(s) => format!("{:?}", p.symbols.resolve(s)),
        Operand::Null => "null".to_owned(),
        Operand::ClassConst(s) => format!("class {}", p.symbols.resolve(s)),
    }
}

fn fmt_invoke(p: &Program, body: &Body, i: &InvokeExpr) -> String {
    let args = i
        .args
        .iter()
        .map(|&a| fmt_operand(p, body, a))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{}.{}{}({args})",
        p.symbols.resolve(i.callee.class),
        p.symbols.resolve(i.callee.name),
        p.symbols.resolve(i.callee.sig)
    )
}

fn fmt_rvalue(p: &Program, body: &Body, rv: &Rvalue) -> String {
    match rv {
        Rvalue::Use(o) => fmt_operand(p, body, *o),
        Rvalue::BinOp { op, a, b } => format!(
            "{} {op:?} {}",
            fmt_operand(p, body, *a),
            fmt_operand(p, body, *b)
        ),
        Rvalue::UnOp { op, a } => format!("{op:?} {}", fmt_operand(p, body, *a)),
        Rvalue::Cast { ty, op } => {
            format!("({}) {}", p.symbols.resolve(*ty), fmt_operand(p, body, *op))
        }
        Rvalue::InstanceOf { ty, op } => format!(
            "{} instanceof {}",
            fmt_operand(p, body, *op),
            p.symbols.resolve(*ty)
        ),
        Rvalue::New { ty } => format!("new {}", p.symbols.resolve(*ty)),
        Rvalue::NewArray { ty, len } => format!(
            "new {}[{}]",
            p.symbols.resolve(*ty),
            fmt_operand(p, body, *len)
        ),
        Rvalue::InstanceField { base, field } => format!(
            "{}.{}",
            fmt_operand(p, body, *base),
            p.symbols.resolve(field.name)
        ),
        Rvalue::StaticField { field } => format!(
            "{}.{}",
            p.symbols.resolve(field.class),
            p.symbols.resolve(field.name)
        ),
        Rvalue::ArrayElem { array, index } => format!(
            "{}[{}]",
            fmt_operand(p, body, *array),
            fmt_operand(p, body, *index)
        ),
        Rvalue::ArrayLength { array } => format!("lengthof {}", fmt_operand(p, body, *array)),
        Rvalue::Invoke(i) => fmt_invoke(p, body, i),
    }
}

/// Renders one statement.
pub fn fmt_stmt(p: &Program, body: &Body, stmt: &Stmt) -> String {
    match stmt {
        Stmt::Identity { local, kind } => {
            let name = local_name(body, *local);
            let src = match kind {
                IdentityKind::This => "@this".to_owned(),
                IdentityKind::Param(i) => format!("@param{i}"),
                IdentityKind::CaughtException => "@caughtexception".to_owned(),
            };
            format!("{name} := {src}")
        }
        Stmt::Assign { local, rvalue } => format!(
            "{} = {}",
            local_name(body, *local),
            fmt_rvalue(p, body, rvalue)
        ),
        Stmt::Invoke(i) => fmt_invoke(p, body, i),
        Stmt::StoreInstanceField { base, field, value } => format!(
            "{}.{} = {}",
            fmt_operand(p, body, *base),
            p.symbols.resolve(field.name),
            fmt_operand(p, body, *value)
        ),
        Stmt::StoreStaticField { field, value } => format!(
            "{}.{} = {}",
            p.symbols.resolve(field.class),
            p.symbols.resolve(field.name),
            fmt_operand(p, body, *value)
        ),
        Stmt::StoreArrayElem {
            array,
            index,
            value,
        } => format!(
            "{}[{}] = {}",
            fmt_operand(p, body, *array),
            fmt_operand(p, body, *index),
            fmt_operand(p, body, *value)
        ),
        Stmt::If { cond, a, b, target } => format!(
            "if {} {cond:?} {} goto @{}",
            fmt_operand(p, body, *a),
            fmt_operand(p, body, *b),
            target.0
        ),
        Stmt::Goto { target } => format!("goto @{}", target.0),
        Stmt::Switch { key, arms } => {
            let arms = arms
                .iter()
                .map(|(k, t)| format!("{k}=>@{}", t.0))
                .collect::<Vec<_>>()
                .join(", ");
            format!("switch {} {{{arms}}}", fmt_operand(p, body, *key))
        }
        Stmt::Return { value: None } => "return".to_owned(),
        Stmt::Return { value: Some(v) } => format!("return {}", fmt_operand(p, body, *v)),
        Stmt::Throw { value } => format!("throw {}", fmt_operand(p, body, *value)),
        Stmt::Nop => "nop".to_owned(),
    }
}

/// Renders a whole body with statement numbers and trap annotations.
pub fn fmt_body(p: &Program, body: &Body) -> String {
    let mut out = String::new();
    for (id, stmt) in body.iter() {
        let _ = writeln!(out, "  {:4}: {}", id.0, fmt_stmt(p, body, stmt));
    }
    for t in &body.traps {
        let ty = t
            .exception
            .map(|e| p.symbols.resolve(e).to_owned())
            .unwrap_or_else(|| "<any>".to_owned());
        let _ = writeln!(
            out,
            "  catch {ty} from @{} to @{} handler @{}",
            t.start.0, t.end.0, t.handler.0
        );
    }
    out
}

/// Renders a whole program.
pub fn fmt_program(p: &Program) -> String {
    let mut out = String::new();
    for class in &p.classes {
        let _ = writeln!(out, "class {} {{", p.symbols.resolve(class.name));
        for &mid in &class.methods {
            let m = p.method(mid);
            let _ = writeln!(
                out,
                " method {}{} {{",
                p.symbols.resolve(m.key.name),
                p.symbols.resolve(m.key.sig)
            );
            if let Some(body) = &m.body {
                out.push_str(&fmt_body(p, body));
            }
            let _ = writeln!(out, " }}");
        }
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lift::lift_file;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::AccessFlags;

    #[test]
    fn pretty_output_is_readable() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("f", "(I)V", AccessFlags::PUBLIC, 4, |m| {
                m.const_str(m.reg(0), "http://x");
                m.invoke_virtual("Lnet/Client;", "get", "(Ljava/lang/String;)V", &[m.reg(0)]);
                m.ret(None);
            });
        });
        let p = lift_file(&b.finish().unwrap()).unwrap();
        let text = super::fmt_program(&p);
        assert!(text.contains("class Lapp/T;"));
        assert!(text.contains("this := @this"));
        assert!(text.contains("v3 := @param0"));
        assert!(text.contains("Lnet/Client;.get(Ljava/lang/String;)V(v0)"));
        assert!(text.contains("return"));
    }

    #[test]
    fn locals_are_named_this_or_by_register() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("f", "(I)V", AccessFlags::PUBLIC, 3, |m| {
                m.mov(m.reg(0), m.param(0).unwrap());
                m.ret(None);
            });
            c.method(
                "g",
                "(I)V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                2,
                |m| {
                    m.mov(m.reg(0), m.param(0).unwrap());
                    m.ret(None);
                },
            );
        });
        let p = lift_file(&b.finish().unwrap()).unwrap();
        let text = super::fmt_program(&p);
        assert!(text.contains("this := @this"), "{text}");
        assert!(text.contains("v2 := @param0"), "{text}");
        assert!(text.contains("v0 = this"), "{text}");
        // A static method has no receiver: its first in-register is v1.
        assert!(text.contains("v1 := @param0"), "{text}");
        assert!(text.contains("v0 = v1"), "{text}");
        assert_eq!(text.matches("this").count(), 3, "only f names its receiver");
    }
}
