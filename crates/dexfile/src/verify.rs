//! Structural verification of parsed or constructed [`AdxFile`]s.
//!
//! The parser ([`read_adx`](crate::read::read_adx)) only checks what it
//! needs to decode safely; this module performs the deeper, whole-file
//! checks a DEX verifier would: branch targets in range, registers within
//! the declared frame, parameter frames that match the prototype,
//! `move-result` placement, try-range sanity, and pool-reference validity
//! inside instruction operands and class definitions. It returns a
//! [`Verified`] witness, the lifter's only input: each method definition
//! either carries the parameter split it lifts with or is flagged and
//! lifts bodiless.

use crate::insn::Insn;
use crate::model::{AccessFlags, AdxFile, CodeItem, MethodDef};
use crate::pool::{MethodIdx, ParamTypes};

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

/// A file the verifier passed on to the lifter: every class-level pool
/// index resolves, and each method definition either lifts whole or is
/// flagged. [`verify`] is the only way to make one, and the lifter
/// (`nck_ir::lift`) takes nothing else.
#[derive(Debug)]
pub struct Verified<'a> {
    file: &'a AdxFile,
    errors: Vec<VerifyError>,
    /// Flagged definitions as (class index, method index, index of the
    /// method's first error in `errors`), in declaration order.
    flagged: Vec<(usize, usize, usize)>,
    /// What [`Verified::params`] returns.
    params: Vec<Option<ParamTypes<'a>>>,
}

impl<'a> Verified<'a> {
    /// The verified file.
    pub fn file(&self) -> &'a AdxFile {
        self.file
    }

    /// Every method-scoped failure found, in declaration order.
    pub fn errors(&self) -> &[VerifyError] {
        &self.errors
    }

    /// Whether no method was flagged, so the whole file lifts.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// The flagged method definitions in declaration order, as (class
    /// index, method index, first error). The lifter keeps them
    /// bodiless.
    pub fn flagged(&self) -> impl Iterator<Item = (usize, usize, &VerifyError)> + '_ {
        self.flagged
            .iter()
            .map(|&(class, method, first)| (class, method, &self.errors[first]))
    }

    /// One entry per method definition, class by class in declaration
    /// order: the parameter split of each method that lifts with a body,
    /// `None` for a flagged or bodiless one.
    pub fn params(&self) -> &[Option<ParamTypes<'a>>] {
        &self.params
    }
}

/// Verifies `file`. `Ok` holds the witness the lifter consumes, with
/// every method-scoped failure (none on a clean file); `Err` holds every
/// failure found when any of them is class- or file-scoped, which leaves
/// nothing the lifter may take.
pub fn verify(file: &AdxFile) -> Result<Verified<'_>, Vec<VerifyError>> {
    let pools = &file.pools;
    let n_types = pools.types().len() as u32;
    let n_fields = pools.fields().len() as u32;
    let n_methods = pools.methods().len() as u32;
    let mut errors = Vec::new();
    let mut flagged = Vec::new();
    let mut params = Vec::with_capacity(file.classes.iter().map(|c| c.methods.len()).sum());

    let mut seen = std::collections::HashSet::new();
    for (ci, class) in file.classes.iter().enumerate() {
        let class_name = || pools.get_type(class.ty).unwrap_or("<bad type>").to_owned();
        let class_error = |message: String| VerifyError {
            scope: VerifyScope::Class,
            method: class_name(),
            pc: None,
            message,
        };
        // The parser range-checks these indices on read; an in-memory
        // model gets the same checks here.
        if class.ty.0 >= n_types {
            errors.push(class_error(format!(
                "class type index {} out of range",
                class.ty
            )));
        }
        if !seen.insert(class.ty) {
            errors.push(class_error("duplicate class definition".to_owned()));
        }
        if let Some(s) = class.superclass {
            if s.0 >= n_types {
                errors.push(class_error(format!("superclass index {s} out of range")));
            }
        }
        for &i in &class.interfaces {
            if i.0 >= n_types {
                errors.push(class_error(format!("interface index {i} out of range")));
            }
        }
        for f in &class.fields {
            if f.field.0 >= n_fields {
                errors.push(class_error(format!(
                    "field definition index {} out of range",
                    f.field
                )));
            }
        }
        for (mi, m) in class.methods.iter().enumerate() {
            if m.method.0 >= n_methods {
                errors.push(class_error(format!(
                    "method definition index {} out of range",
                    m.method
                )));
                params.push(None);
                continue;
            }
            let first = errors.len();
            let split = check_method(file, m, &mut errors);
            if errors.len() > first {
                flagged.push((ci, mi, first));
                params.push(None);
            } else {
                params.push(split);
            }
        }
    }
    if errors.iter().any(|e| e.scope != VerifyScope::Method) {
        return Err(errors);
    }
    Ok(Verified {
        file,
        errors,
        flagged,
        params,
    })
}

/// Checks one method definition, returning its parameter split when it
/// has code. The lifter binds one in-register per parameter, plus the
/// receiver of an instance method, so the frame must hold exactly that.
fn check_method<'a>(
    file: &'a AdxFile,
    m: &MethodDef,
    errors: &mut Vec<VerifyError>,
) -> Option<ParamTypes<'a>> {
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
    let code = m.code.as_ref()?;
    if code.ins > code.registers {
        errors.push(method_error("ins exceeds registers"));
        return None;
    }
    let receiver = usize::from(!m.flags.contains(AccessFlags::STATIC));
    let params = file.pools.method_params(m.method);
    match &params {
        None => errors.push(method_error("prototype signature does not parse")),
        Some(params) if usize::from(code.ins) != params.len() + receiver => {
            errors.push(method_error(&format!(
                "ins={} but the prototype binds {} parameter register(s)",
                code.ins,
                params.len() + receiver
            )));
        }
        Some(_) => {}
    }
    check_code(file, m.method, code, errors);
    params
}

/// Every failure [`verify`] finds, whatever its scope. `skip` is
/// ignored: it remains for nckbench's traced twin, which passes an
/// all-false mask.
pub fn verify_with_skip(file: &AdxFile, _skip: &[bool]) -> Vec<VerifyError> {
    match verify(file) {
        Ok(verified) => verified.errors,
        Err(errors) => errors,
    }
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

    /// Every failure found, whatever its scope.
    fn errors(f: &AdxFile) -> Vec<VerifyError> {
        match verify(f) {
            Ok(verified) => verified.errors,
            Err(errors) => errors,
        }
    }

    #[test]
    fn valid_file_verifies_clean() {
        assert!(verify(&valid_file()).is_ok_and(|v| v.is_clean()));
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
        let errs = errors(&f);
        assert!(errs.iter().any(|e| e.message.contains("out of frame")));
    }

    #[test]
    fn branch_out_of_range_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[0].code.as_mut().unwrap();
        code.insns[0] = Insn::Goto { target: 1000 };
        let errs = errors(&f);
        assert!(errs.iter().any(|e| e.message.contains("out of range")));
    }

    #[test]
    fn fall_off_end_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[1].code.as_mut().unwrap();
        code.insns = vec![Insn::Nop];
        let errs = errors(&f);
        assert!(errs.iter().any(|e| e.message.contains("fall off")));
    }

    #[test]
    fn stray_move_result_is_flagged() {
        let mut f = valid_file();
        let code = f.classes[0].methods[1].code.as_mut().unwrap();
        code.insns = vec![Insn::MoveResult { dst: Reg(0) }, Insn::Return { src: None }];
        let errs = errors(&f);
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
        let errs = errors(&f);
        assert!(errs.iter().any(|e| e.message.contains("invalid")));
        assert!(errs.iter().any(|e| e.message.contains("no handlers")));
    }

    #[test]
    fn duplicate_class_is_flagged() {
        let mut f = valid_file();
        let dup = f.classes[0].clone();
        f.classes.push(dup);
        let errs = errors(&f);
        assert!(errs.iter().any(|e| e.message.contains("duplicate class")));
    }

    #[test]
    fn method_failures_are_method_scoped() {
        let mut f = valid_file();
        let code = f.classes[0].methods[0].code.as_mut().unwrap();
        code.insns[0] = Insn::Goto { target: 1000 };
        let errs = errors(&f);
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|e| e.scope == VerifyScope::Method));
        // The sibling method is untouched: no error names it.
        assert!(errs.iter().all(|e| !e.method.contains(".g(")));
    }

    #[test]
    fn frame_that_disagrees_with_the_prototype_is_method_scoped() {
        // `f(I)V` is an instance method: two in-registers, receiver and
        // parameter. Declaring one is a lie the lifter rejects.
        let mut f = valid_file();
        f.classes[0].methods[0].code.as_mut().unwrap().ins = 1;
        let errs = errors(&f);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].scope, VerifyScope::Method);
        assert_eq!(errs[0].method, "Lcom/app/A;.f(I)V");
        assert!(errs[0].message.contains("ins=1"), "{}", errs[0]);
        // A static method has no receiver.
        let mut f = valid_file();
        let g = &mut f.classes[0].methods[1];
        g.flags = g.flags | AccessFlags::STATIC;
        let errs = errors(&f);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].method.contains(".g("));
    }

    #[test]
    fn class_failures_are_class_scoped() {
        let mut f = valid_file();
        let dup = f.classes[0].clone();
        f.classes.push(dup);
        let errs = errors(&f);
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
        let errs = errors(&f);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("string index") && e.scope == VerifyScope::Method));
    }

    #[test]
    fn witness_flags_by_definition_and_splits_the_rest() {
        let mut f = valid_file();
        f.classes[0].methods[0].code.as_mut().unwrap().insns[0] = Insn::Goto { target: 1000 };
        let verified = verify(&f).expect("method-scoped damage only");
        assert!(!verified.is_clean());
        let flagged: Vec<_> = verified.flagged().collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!((flagged[0].0, flagged[0].1), (0, 0));
        assert_eq!(flagged[0].2, &verified.errors()[0]);
        // The flagged method carries no split; its sibling's is `()V`.
        assert!(verified.params()[0].is_none());
        assert_eq!(verified.params()[1].as_ref().map(ParamTypes::len), Some(0));
    }

    #[test]
    fn class_level_indices_of_an_in_memory_model_are_class_scoped() {
        let damage: [fn(&mut AdxFile); 4] = [
            |f| f.classes[0].ty = crate::pool::TypeIdx(900),
            |f| f.classes[0].interfaces.push(crate::pool::TypeIdx(900)),
            |f| {
                f.classes[0].fields.push(crate::model::FieldDef {
                    field: crate::pool::FieldIdx(900),
                    flags: AccessFlags::PUBLIC,
                })
            },
            |f| f.classes[0].methods[1].method = MethodIdx(900),
        ];
        for (i, damage) in damage.into_iter().enumerate() {
            let mut f = valid_file();
            damage(&mut f);
            let errs = verify(&f).expect_err("class-scoped damage");
            assert!(
                errs.iter()
                    .any(|e| e.scope == VerifyScope::Class && e.message.contains("#900")),
                "damage {i}: {errs:?}"
            );
        }
    }
}
