//! Structural verification of parsed or constructed [`AdxFile`]s.
//!
//! The parser ([`read_adx`](crate::read::read_adx)) only checks what it
//! needs to decode safely; this module performs the deeper, whole-file
//! checks a DEX verifier would: branch targets in range, registers within
//! the declared frame, `move-result` placement, try-range sanity, and
//! pool-reference validity inside instruction operands.

use crate::insn::Insn;
use crate::model::{AccessFlags, AdxFile, CodeItem};
use crate::pool::MethodIdx;

/// How much of the file a verification failure poisons.
///
/// Consumers use this to degrade gracefully: a [`VerifyScope::Method`]
/// failure invalidates only that method's body (the rest of the app can
/// still be analyzed), while class- and file-scoped failures leave no
/// sound way to interpret the surrounding structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyScope {
    /// The whole file is suspect (reserved for cross-class problems).
    File,
    /// One class definition is malformed (duplicate definition, bad
    /// superclass reference).
    Class,
    /// One method body is malformed; sibling methods are unaffected.
    Method,
}

/// A single verification failure, locatable to a method and instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Blast radius of the failure (see [`VerifyScope`]).
    pub scope: VerifyScope,
    /// Rendered `class.name(sig)` of the offending method, or the class
    /// name for class-level problems.
    pub method: String,
    /// Instruction index within the method, when applicable.
    pub pc: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "{} @{}: {}", self.method, pc, self.message),
            None => write!(f, "{}: {}", self.method, self.message),
        }
    }
}

/// Checks one method body. The method's display name is rendered only
/// when an error needs it.
fn check_code(file: &AdxFile, method: MethodIdx, code: &CodeItem, errors: &mut Vec<VerifyError>) {
    let len = code.insns.len() as u32;
    let n_strings = file.pools.strings().len() as u32;
    let n_types = file.pools.types().len() as u32;
    let n_fields = file.pools.fields().len() as u32;
    let n_methods = file.pools.methods().len() as u32;
    let mut err = |pc: Option<u32>, message: String| {
        errors.push(VerifyError {
            scope: VerifyScope::Method,
            method: file.pools.display_method(method),
            pc,
            message,
        });
    };

    if code.insns.is_empty() {
        err(None, "empty instruction stream".to_owned());
        return;
    }
    if let Some(last) = code.insns.last() {
        if !last.is_terminator() {
            err(
                Some(len - 1),
                "control can fall off the end of the method".to_owned(),
            );
        }
    }

    for (i, insn) in code.insns.iter().enumerate() {
        let pc = i as u32;
        if let Some(d) = insn.def() {
            if d.0 >= code.registers {
                err(Some(pc), format!("defined register {d} out of frame"));
            }
        }
        for u in insn.uses() {
            if u.0 >= code.registers {
                err(Some(pc), format!("used register {u} out of frame"));
            }
        }
        for t in insn.branch_targets() {
            if t >= len {
                err(Some(pc), format!("branch target {t} out of range"));
            }
        }
        match insn {
            Insn::ConstString { idx, .. } if idx.0 >= n_strings => {
                err(Some(pc), format!("string index {idx} out of range"));
            }
            Insn::ConstClass { ty, .. }
            | Insn::NewInstance { ty, .. }
            | Insn::NewArray { ty, .. }
            | Insn::CheckCast { ty, .. }
            | Insn::InstanceOf { ty, .. }
                if ty.0 >= n_types =>
            {
                err(Some(pc), format!("type index {ty} out of range"));
            }
            Insn::Iget { field, .. }
            | Insn::Iput { field, .. }
            | Insn::Sget { field, .. }
            | Insn::Sput { field, .. }
                if field.0 >= n_fields =>
            {
                err(Some(pc), format!("field index {field} out of range"));
            }
            Insn::Invoke { method: m, .. } if m.0 >= n_methods => {
                err(Some(pc), format!("method index {m} out of range"));
            }
            Insn::MoveResult { .. } => {
                let prev = i.checked_sub(1).map(|j| &code.insns[j]);
                if !matches!(prev, Some(Insn::Invoke { .. })) {
                    err(
                        Some(pc),
                        "move-result not immediately after an invoke".to_owned(),
                    );
                }
            }
            _ => {}
        }
    }

    for (ti, t) in code.tries.iter().enumerate() {
        if t.start >= t.end || t.end > len {
            err(
                None,
                format!("try range {ti} [{}, {}) invalid", t.start, t.end),
            );
        }
        if t.handlers.is_empty() {
            err(None, format!("try range {ti} has no handlers"));
        }
        for h in &t.handlers {
            if h.target >= len {
                err(
                    None,
                    format!("try range {ti} handler target {} out of range", h.target),
                );
            }
            if let Some(ty) = h.exception {
                if ty.0 >= n_types {
                    err(
                        None,
                        format!("try range {ti} handler type {ty} out of range"),
                    );
                }
            }
        }
    }
}

/// Verifies `file`, returning every failure found (empty means valid).
pub fn verify(file: &AdxFile) -> Vec<VerifyError> {
    verify_with_skip(file, &[])
}

/// Like [`verify`], but skips the per-class checks for every class index
/// where `skip` is `true` — the incremental path's lever for classes a
/// previous run already verified clean (by content fingerprint). The
/// cross-class duplicate-definition check still covers *all* classes:
/// it is the one file-scoped property a per-class cache cannot carry.
/// Indices beyond `skip.len()` are verified normally.
pub fn verify_with_skip(file: &AdxFile, skip: &[bool]) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let n_types = file.pools.types().len() as u32;

    let mut seen = std::collections::HashSet::new();
    for (ci, class) in file.classes.iter().enumerate() {
        let class_name = || {
            file.pools
                .get_type(class.ty)
                .unwrap_or("<bad type>")
                .to_owned()
        };
        if !seen.insert(class.ty) {
            errors.push(VerifyError {
                scope: VerifyScope::Class,
                method: class_name(),
                pc: None,
                message: "duplicate class definition".to_owned(),
            });
        }
        if skip.get(ci).copied().unwrap_or(false) {
            continue;
        }
        if let Some(s) = class.superclass {
            if s.0 >= n_types {
                errors.push(VerifyError {
                    scope: VerifyScope::Class,
                    method: class_name(),
                    pc: None,
                    message: format!("superclass index {s} out of range"),
                });
            }
        }
        for m in &class.methods {
            let method_error = |message: &str| VerifyError {
                scope: VerifyScope::Method,
                method: file.pools.display_method(m.method),
                pc: None,
                message: message.to_owned(),
            };
            let is_abstract = m.flags.contains(AccessFlags::ABSTRACT);
            match (&m.code, is_abstract) {
                (Some(_), true) => errors.push(method_error("abstract method has code")),
                (None, false) => errors.push(method_error("concrete method missing code")),
                _ => {}
            }
            if let Some(code) = &m.code {
                if code.ins > code.registers {
                    errors.push(method_error("ins exceeds registers"));
                    continue;
                }
                check_code(file, m.method, code, &mut errors);
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AdxBuilder;
    use crate::insn::{CondOp, Insn, Reg};
    use crate::model::AccessFlags;

    fn valid_file() -> AdxFile {
        let mut b = AdxBuilder::new();
        b.class("Lcom/app/A;", |c| {
            c.method("f", "(I)V", AccessFlags::PUBLIC, 4, |m| {
                let p = m.param(1).unwrap();
                let end = m.new_label();
                m.ifz(CondOp::Eq, p, end);
                m.invoke_virtual("Lcom/app/A;", "g", "()V", &[m.param(0).unwrap()]);
                m.bind(end);
                m.ret(None);
            });
            c.method("g", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
        });
        b.finish().unwrap()
    }

    #[test]
    fn valid_file_verifies_clean() {
        assert!(verify(&valid_file()).is_empty());
    }

    #[test]
    fn out_of_frame_register_is_flagged() {
        let mut f = valid_file();
        f.classes[0].methods[0].code.as_mut().unwrap().insns.insert(
            0,
            Insn::ConstInt {
                dst: Reg(99),
                value: 0,
            },
        );
        let errs = verify(&f);
        assert!(errs.iter().any(|e| e.message.contains("out of frame")));
    }

    #[test]
    fn branch_out_of_range_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[0].code.as_mut().unwrap();
        code.insns[0] = Insn::Goto { target: 1000 };
        let errs = verify(&f);
        assert!(errs.iter().any(|e| e.message.contains("out of range")));
    }

    #[test]
    fn fall_off_end_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[1].code.as_mut().unwrap();
        code.insns = vec![Insn::Nop];
        let errs = verify(&f);
        assert!(errs.iter().any(|e| e.message.contains("fall off")));
    }

    #[test]
    fn stray_move_result_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[1].code.as_mut().unwrap();
        code.insns = vec![Insn::MoveResult { dst: Reg(0) }, Insn::Return { src: None }];
        let errs = verify(&f);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("move-result not immediately")));
    }

    #[test]
    fn empty_try_range_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[0].code.as_mut().unwrap();
        code.tries.push(crate::model::TryBlock {
            start: 3,
            end: 3,
            handlers: vec![],
        });
        let errs = verify(&f);
        assert!(errs.iter().any(|e| e.message.contains("invalid")));
        assert!(errs.iter().any(|e| e.message.contains("no handlers")));
    }

    #[test]
    fn duplicate_class_is_flagged() {
        let mut f = valid_file();
        let dup = f.classes[0].clone();
        f.classes.push(dup);
        let errs = verify(&f);
        assert!(errs.iter().any(|e| e.message.contains("duplicate class")));
    }

    #[test]
    fn method_failures_are_method_scoped() {
        let mut f = valid_file();
        let code = f.classes[0].methods[0].code.as_mut().unwrap();
        code.insns[0] = Insn::Goto { target: 1000 };
        let errs = verify(&f);
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|e| e.scope == VerifyScope::Method));
        // The sibling method is untouched: no error names it.
        assert!(errs.iter().all(|e| !e.method.contains(".g(")));
    }

    #[test]
    fn class_failures_are_class_scoped() {
        let mut f = valid_file();
        let dup = f.classes[0].clone();
        f.classes.push(dup);
        let errs = verify(&f);
        assert!(errs
            .iter()
            .any(|e| e.scope == VerifyScope::Class && e.message.contains("duplicate class")));
    }

    #[test]
    fn bad_pool_reference_inside_code_is_flagged() {
        // The parser only checks pool refs it decodes structurally;
        // instruction operands like a string index are verify's job.
        let mut f = valid_file();
        let n = f.pools.strings().len() as u32;
        let code = f.classes[0].methods[0].code.as_mut().unwrap();
        code.insns.insert(
            0,
            Insn::ConstString {
                dst: Reg(0),
                idx: crate::pool::StringIdx(n + 7),
            },
        );
        let errs = verify(&f);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("string index") && e.scope == VerifyScope::Method));
    }
}
