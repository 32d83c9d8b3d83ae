//! Lifting ADX bytecode into the IR (the Dexpler role).
//!
//! Registers become locals (`v0`..`vN`), parameters get identity
//! statements, `invoke`/`move-result` pairs fuse into assigning calls, and
//! branch targets are remapped from instruction indices to statement ids.

use crate::body::{
    Body, Class, FieldKey, IdentityKind, InvokeExpr, LocalDecl, LocalId, Method, MethodId,
    MethodKey, Operand, Program, Rvalue, Stmt, StmtId, Trap,
};
use crate::symbols::Symbol;
use nck_dex::{
    AccessFlags, AdxFile, CodeItem, Insn, MethodIdx, ParamTypes, ProtoIdx, Reg, StringIdx, TypeIdx,
};
use std::sync::Arc;

/// Errors produced during lifting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftError {
    /// A pool reference inside an instruction was unresolvable.
    BadPoolRef {
        /// Rendered method identity.
        method: String,
        /// Instruction index.
        pc: u32,
        /// Which pool failed.
        what: &'static str,
    },
    /// A branch target fell outside the method.
    BadTarget {
        /// Rendered method identity.
        method: String,
        /// Instruction index of the branch.
        pc: u32,
        /// The bad target.
        target: u32,
    },
    /// The method's declared signature disagrees with its frame.
    BadFrame {
        /// Rendered method identity.
        method: String,
    },
    /// An instruction referenced a register outside the declared frame.
    ///
    /// Verified binaries never trip this, but the lifter must stay
    /// memory-safe on *unverified* ones: downstream consumers index
    /// `Body::locals` by register number, so an out-of-frame register
    /// must be rejected here rather than panicking later.
    BadRegister {
        /// Rendered method identity.
        method: String,
        /// Instruction index.
        pc: u32,
        /// The out-of-frame register.
        reg: u16,
        /// The declared frame size.
        frame: u16,
    },
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiftError::BadPoolRef { method, pc, what } => {
                write!(f, "{method} @{pc}: unresolvable {what} reference")
            }
            LiftError::BadTarget { method, pc, target } => {
                write!(f, "{method} @{pc}: branch target {target} out of range")
            }
            LiftError::BadFrame { method } => write!(f, "{method}: bad parameter frame"),
            LiftError::BadRegister {
                method,
                pc,
                reg,
                frame,
            } => write!(
                f,
                "{method} @{pc}: register v{reg} outside the {frame}-register frame"
            ),
        }
    }
}

impl std::error::Error for LiftError {}

/// Convenience alias for lifting results.
pub type Result<T> = std::result::Result<T, LiftError>;

struct Lifter<'a> {
    file: &'a AdxFile,
    program: Program,
    /// Pool index → interned symbol or key, filled on first use (`None`
    /// until then). A memo only skips repeat interns, so the
    /// first-encounter interning order, which every symbol depends on,
    /// is unchanged.
    strings: Vec<Option<Symbol>>,
    protos: Vec<Option<Symbol>>,
    fields: Vec<Option<FieldKey>>,
    methods: Vec<Option<MethodKey>>,
}

impl<'a> Lifter<'a> {
    fn new(file: &'a AdxFile) -> Lifter<'a> {
        let pools = &file.pools;
        Lifter {
            file,
            program: Program::new(),
            strings: vec![None; pools.strings().len()],
            protos: vec![None; pools.protos().len()],
            fields: vec![None; pools.fields().len()],
            methods: vec![None; pools.methods().len()],
        }
    }

    fn local(reg: Reg) -> LocalId {
        LocalId(u32::from(reg.0))
    }

    fn op(reg: Reg) -> Operand {
        Operand::Local(Self::local(reg))
    }

    /// Renders method `idx` for a diagnostic.
    fn display(&self, idx: MethodIdx) -> String {
        self.file.pools.display_method(idx)
    }

    fn string_sym(&mut self, idx: StringIdx) -> Option<Symbol> {
        if let Some(&Some(sym)) = self.strings.get(idx.index()) {
            return Some(sym);
        }
        let sym = self
            .program
            .symbols
            .intern(self.file.pools.get_string(idx)?);
        self.strings[idx.index()] = Some(sym);
        Some(sym)
    }

    fn type_sym(&mut self, idx: TypeIdx) -> Option<Symbol> {
        let s = *self.file.pools.types().get(idx.index())?;
        self.string_sym(s)
    }

    fn proto_sym(&mut self, idx: ProtoIdx) -> Symbol {
        if let Some(&Some(sym)) = self.protos.get(idx.index()) {
            return sym;
        }
        let sym = self
            .program
            .symbols
            .intern(&self.file.pools.display_proto(idx));
        if let Some(slot) = self.protos.get_mut(idx.index()) {
            *slot = Some(sym);
        }
        sym
    }

    fn method_key(&mut self, idx: MethodIdx) -> Option<MethodKey> {
        if let Some(&Some(key)) = self.methods.get(idx.index()) {
            return Some(key);
        }
        let pools = &self.file.pools;
        let m = *pools.get_method(idx)?;
        // Resolve both names before interning either, as a failed
        // reference must intern nothing.
        pools.get_type(m.class)?;
        pools.get_string(m.name)?;
        let key = MethodKey {
            class: self.type_sym(m.class)?,
            name: self.string_sym(m.name)?,
            sig: self.proto_sym(m.proto),
        };
        self.methods[idx.index()] = Some(key);
        Some(key)
    }

    fn field_key(&mut self, idx: nck_dex::FieldIdx) -> Option<FieldKey> {
        if let Some(&Some(key)) = self.fields.get(idx.index()) {
            return Some(key);
        }
        let pools = &self.file.pools;
        let f = *pools.get_field(idx)?;
        pools.get_type(f.class)?;
        pools.get_string(f.name)?;
        pools.get_type(f.ty)?;
        let key = FieldKey {
            class: self.type_sym(f.class)?,
            name: self.string_sym(f.name)?,
            ty: self.type_sym(f.ty)?,
        };
        self.fields[idx.index()] = Some(key);
        Some(key)
    }

    fn lift_code(
        &mut self,
        method: MethodIdx,
        code: &CodeItem,
        is_static: bool,
        params: &ParamTypes<'_>,
    ) -> Result<Body> {
        let file = self.file;
        let bad = |pc: u32, what: &'static str| LiftError::BadPoolRef {
            method: file.pools.display_method(method),
            pc,
            what,
        };

        // Reject out-of-frame registers up front: every statement emitted
        // below carries `LocalId(reg)` and downstream consumers (pretty
        // printer, interpreter, dataflow) index `locals` by it.
        for (i, insn) in code.insns.iter().enumerate() {
            let oob = insn
                .def()
                .into_iter()
                .chain(insn.uses())
                .find(|r| r.0 >= code.registers);
            if let Some(r) = oob {
                return Err(LiftError::BadRegister {
                    method: self.display(method),
                    pc: i as u32,
                    reg: r.0,
                    frame: code.registers,
                });
            }
        }

        let mut locals = vec![LocalDecl { ty: None }; usize::from(code.registers)];

        let receiver = usize::from(!is_static);
        if usize::from(code.ins) != params.len() + receiver {
            return Err(LiftError::BadFrame {
                method: self.display(method),
            });
        }

        let mut stmts: Vec<Stmt> = Vec::with_capacity(code.insns.len() + usize::from(code.ins));
        // Identity preamble: bind parameter registers.
        for i in 0..code.ins {
            let reg = code.param_reg(i).ok_or_else(|| LiftError::BadFrame {
                method: self.display(method),
            })?;
            let kind = if !is_static && i == 0 {
                IdentityKind::This
            } else {
                IdentityKind::Param(i - receiver as u16)
            };
            if let IdentityKind::Param(p) = kind {
                let sym = match params {
                    ParamTypes::Pool(types) => self
                        .type_sym(types[p as usize])
                        .expect("method_params resolved every parameter type"),
                    ParamTypes::Parsed(descs) => self.program.symbols.intern(&descs[p as usize]),
                };
                locals[reg.0 as usize].ty = Some(sym);
            }
            stmts.push(Stmt::Identity {
                local: Self::local(reg),
                kind,
            });
        }

        // Fusion map: instruction index -> statement index.
        let mut map: Vec<u32> = Vec::with_capacity(code.insns.len());
        let mut i = 0usize;
        while i < code.insns.len() {
            let pc = i as u32;
            let stmt_idx = stmts.len() as u32;
            match &code.insns[i] {
                Insn::Invoke { kind, method, args } => {
                    let callee = self.method_key(*method).ok_or_else(|| bad(pc, "method"))?;
                    let expr = InvokeExpr {
                        kind: *kind,
                        callee,
                        args: args.iter().map(|&r| Self::op(r)).collect(),
                    };
                    // Fuse a following move-result into an assigning call.
                    if let Some(Insn::MoveResult { dst }) = code.insns.get(i + 1) {
                        stmts.push(Stmt::Assign {
                            local: Self::local(*dst),
                            rvalue: Rvalue::Invoke(expr),
                        });
                        map.push(stmt_idx);
                        map.push(stmt_idx);
                        i += 2;
                        continue;
                    }
                    stmts.push(Stmt::Invoke(expr));
                }
                Insn::MoveResult { dst } => {
                    // Unfused move-result (verifier rejects these, but the
                    // lifter stays total): treat as an opaque definition.
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::Use(Operand::Null),
                    });
                }
                Insn::Nop => stmts.push(Stmt::Nop),
                Insn::Move { dst, src } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::Use(Self::op(*src)),
                }),
                Insn::ConstInt { dst, value } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::Use(Operand::IntConst(*value)),
                }),
                Insn::ConstString { dst, idx } => {
                    let sym = self.string_sym(*idx).ok_or_else(|| bad(pc, "string"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::Use(Operand::StrConst(sym)),
                    });
                }
                Insn::ConstNull { dst } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::Use(Operand::Null),
                }),
                Insn::ConstClass { dst, ty } => {
                    let sym = self.type_sym(*ty).ok_or_else(|| bad(pc, "type"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::Use(Operand::ClassConst(sym)),
                    });
                }
                Insn::NewInstance { dst, ty } => {
                    let sym = self.type_sym(*ty).ok_or_else(|| bad(pc, "type"))?;
                    locals[dst.0 as usize].ty = Some(sym);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::New { ty: sym },
                    });
                }
                Insn::NewArray { dst, len, ty } => {
                    let sym = self.type_sym(*ty).ok_or_else(|| bad(pc, "type"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::NewArray {
                            ty: sym,
                            len: Self::op(*len),
                        },
                    });
                }
                Insn::CheckCast { reg, ty } => {
                    let sym = self.type_sym(*ty).ok_or_else(|| bad(pc, "type"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*reg),
                        rvalue: Rvalue::Cast {
                            ty: sym,
                            op: Self::op(*reg),
                        },
                    });
                }
                Insn::InstanceOf { dst, src, ty } => {
                    let sym = self.type_sym(*ty).ok_or_else(|| bad(pc, "type"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::InstanceOf {
                            ty: sym,
                            op: Self::op(*src),
                        },
                    });
                }
                Insn::ArrayLength { dst, arr } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::ArrayLength {
                        array: Self::op(*arr),
                    },
                }),
                Insn::Aget { dst, arr, idx } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::ArrayElem {
                        array: Self::op(*arr),
                        index: Self::op(*idx),
                    },
                }),
                Insn::Aput { src, arr, idx } => stmts.push(Stmt::StoreArrayElem {
                    array: Self::op(*arr),
                    index: Self::op(*idx),
                    value: Self::op(*src),
                }),
                Insn::Iget { dst, obj, field } => {
                    let field = self.field_key(*field).ok_or_else(|| bad(pc, "field"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::InstanceField {
                            base: Self::op(*obj),
                            field,
                        },
                    });
                }
                Insn::Iput { src, obj, field } => {
                    let field = self.field_key(*field).ok_or_else(|| bad(pc, "field"))?;
                    stmts.push(Stmt::StoreInstanceField {
                        base: Self::op(*obj),
                        field,
                        value: Self::op(*src),
                    });
                }
                Insn::Sget { dst, field } => {
                    let field = self.field_key(*field).ok_or_else(|| bad(pc, "field"))?;
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::StaticField { field },
                    });
                }
                Insn::Sput { src, field } => {
                    let field = self.field_key(*field).ok_or_else(|| bad(pc, "field"))?;
                    stmts.push(Stmt::StoreStaticField {
                        field,
                        value: Self::op(*src),
                    });
                }
                Insn::MoveException { dst } => stmts.push(Stmt::Identity {
                    local: Self::local(*dst),
                    kind: IdentityKind::CaughtException,
                }),
                Insn::Return { src } => stmts.push(Stmt::Return {
                    value: src.map(Self::op),
                }),
                Insn::Throw { src } => stmts.push(Stmt::Throw {
                    value: Self::op(*src),
                }),
                Insn::Goto { target } => stmts.push(Stmt::Goto {
                    target: StmtId(*target),
                }),
                Insn::If { cond, a, b, target } => stmts.push(Stmt::If {
                    cond: *cond,
                    a: Self::op(*a),
                    b: Self::op(*b),
                    target: StmtId(*target),
                }),
                Insn::IfZ { cond, a, target } => stmts.push(Stmt::If {
                    cond: *cond,
                    a: Self::op(*a),
                    b: Operand::IntConst(0),
                    target: StmtId(*target),
                }),
                Insn::BinOp { op, dst, a, b } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::BinOp {
                        op: *op,
                        a: Self::op(*a),
                        b: Self::op(*b),
                    },
                }),
                Insn::BinOpLit { op, dst, a, lit } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::BinOp {
                        op: *op,
                        a: Self::op(*a),
                        b: Operand::IntConst(i64::from(*lit)),
                    },
                }),
                Insn::UnOp { op, dst, src } => stmts.push(Stmt::Assign {
                    local: Self::local(*dst),
                    rvalue: Rvalue::UnOp {
                        op: *op,
                        a: Self::op(*src),
                    },
                }),
                Insn::Switch { src, targets } => stmts.push(Stmt::Switch {
                    key: Self::op(*src),
                    arms: targets.iter().map(|&(k, t)| (k, StmtId(t))).collect(),
                }),
            }
            map.push(stmt_idx);
            i += 1;
        }

        // Remap branch targets from instruction indices to statement ids.
        let remap = |pc: u32, target: StmtId| -> Result<StmtId> {
            map.get(target.index())
                .map(|&s| StmtId(s))
                .ok_or_else(|| LiftError::BadTarget {
                    method: file.pools.display_method(method),
                    pc,
                    target: target.0,
                })
        };
        for (idx, stmt) in stmts.iter_mut().enumerate() {
            let pc = idx as u32;
            match stmt {
                Stmt::Goto { target } | Stmt::If { target, .. } => *target = remap(pc, *target)?,
                Stmt::Switch { arms, .. } => {
                    for (_, t) in arms.iter_mut() {
                        *t = remap(pc, *t)?;
                    }
                }
                _ => {}
            }
        }

        // Lift traps: one per catch clause.
        let end_map = |insn_idx: u32| -> StmtId {
            if insn_idx as usize >= map.len() {
                StmtId(stmts.len() as u32)
            } else {
                StmtId(map[insn_idx as usize])
            }
        };
        let mut traps = Vec::new();
        for t in &code.tries {
            let start = end_map(t.start);
            // NOTE: a try range ending exactly between a fused invoke and
            // its move-result collapses onto the call statement; the fused
            // statement then counts as covered, which errs on the side of
            // more exceptional edges (sound for the checkers).
            let end = end_map(t.end);
            for h in &t.handlers {
                let exception = match h.exception {
                    Some(ty) => Some(
                        self.type_sym(ty)
                            .ok_or_else(|| bad(t.start, "exception type"))?,
                    ),
                    None => None,
                };
                traps.push(Trap {
                    start,
                    end,
                    exception,
                    handler: end_map(h.target),
                });
            }
        }

        Ok(Body {
            locals,
            stmts,
            traps,
        })
    }
}

/// Why a method's body was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The skip policy named the method, with this reason.
    Policy(String),
    /// The body failed to lift.
    Lift(LiftError),
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipReason::Policy(reason) => f.write_str(reason),
            SkipReason::Lift(err) => err.fmt(f),
        }
    }
}

/// Record of one method whose body was dropped during lifting.
///
/// The method still exists in the lifted [`Program`] (bodiless, so call
/// graph edges into it resolve) unless even its identity was
/// unrecoverable; only its behaviour is unknown to the analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSkip {
    /// Rendered `class.name(sig)` identity.
    pub method: String,
    /// Why the body was dropped.
    pub reason: SkipReason,
}

/// Skip policy for [`lift_skipping`]: maps a rendered method identity
/// to `Some(reason)` when its body must not be lifted (e.g. it failed
/// structural verification).
pub type SkipPolicy<'p> = &'p dyn Fn(&str) -> Option<String>;

impl<'a> Lifter<'a> {
    /// Lifts one class definition: interns its names, lifts every method
    /// body, and returns the class record (with `methods` left empty —
    /// the caller assigns ids via [`Program::add_method`]) plus the
    /// lifted methods in declaration order. A method the policy names,
    /// or whose body fails to lift, is recorded in `skips` and kept
    /// bodiless. The caller-visible effect on the program is confined
    /// to the interner.
    fn lift_class(
        &mut self,
        class: &nck_dex::ClassDef,
        policy: Option<SkipPolicy<'_>>,
        skips: &mut Vec<MethodSkip>,
    ) -> (Class, Vec<Method>) {
        let name = match self.type_sym(class.ty) {
            Some(name) => name,
            None => self.program.symbols.intern("<bad>"),
        };
        let superclass = class.superclass.and_then(|s| self.type_sym(s));
        let interfaces = class
            .interfaces
            .iter()
            .filter_map(|&i| self.type_sym(i))
            .collect();
        let fields = class
            .fields
            .iter()
            .filter_map(|f| self.field_key(f.field))
            .collect();

        let mut methods = Vec::new();
        for m in &class.methods {
            let Some(key) = self.method_key(m.method) else {
                // Without a resolvable identity the method cannot even be
                // declared; drop it entirely.
                let err = LiftError::BadPoolRef {
                    method: self.display(m.method),
                    pc: 0,
                    what: "method definition",
                };
                skips.push(MethodSkip {
                    method: self.display(m.method),
                    reason: SkipReason::Lift(err),
                });
                continue;
            };
            // The skip policy is keyed by display name, so only a lift
            // with a policy renders one per method.
            let body = match (policy.and_then(|p| p(&self.display(m.method))), &m.code) {
                (Some(reason), _) => Err(SkipReason::Policy(reason)),
                (None, Some(code)) => {
                    let is_static = m.flags.contains(AccessFlags::STATIC);
                    let file = self.file;
                    match file.pools.method_params(m.method) {
                        Some(params) => self.lift_code(m.method, code, is_static, &params),
                        None => Err(LiftError::BadFrame {
                            method: self.display(m.method),
                        }),
                    }
                    .map(Some)
                    .map_err(SkipReason::Lift)
                }
                (None, None) => Ok(None),
            };
            let body = body.unwrap_or_else(|reason| {
                skips.push(MethodSkip {
                    method: self.display(m.method),
                    reason,
                });
                None
            });
            methods.push(Method {
                key,
                flags: m.flags,
                body: body.map(Arc::new),
            });
        }

        (
            Class {
                name,
                superclass,
                interfaces,
                flags: class.flags,
                fields,
                methods: Vec::new(),
            },
            methods,
        )
    }
}

/// Lifts a whole ADX file into an IR [`Program`], degrading per method
/// instead of failing.
///
/// Methods `policy` names (the caller's structural verification
/// verdicts) and methods whose bodies fail to lift are kept *bodiless*
/// and recorded in the returned skip list, in declaration order; every
/// other method lifts normally. This function never fails: the worst
/// adversarial input yields an empty program plus a skip per method.
pub fn lift_skipping(file: &AdxFile, policy: Option<SkipPolicy<'_>>) -> (Program, Vec<MethodSkip>) {
    let mut lifter = Lifter::new(file);
    let mut skips = Vec::new();
    for class in &file.classes {
        let (mut c, methods) = lifter.lift_class(class, policy, &mut skips);
        let program = &mut lifter.program;
        c.methods = methods.into_iter().map(|m| program.add_method(m)).collect();
        program.add_class(c);
    }
    (lifter.program, skips)
}

/// An empty lift seed. Exists only for nckbench's traced twin.
#[derive(Debug, Clone, Default)]
pub struct LiftSeed {}

impl LiftSeed {
    /// Always 0: nothing is replayed.
    pub fn common_prefix(&self, _fingerprints: &[u64]) -> usize {
        0
    }
}

/// [`lift_file`]'s program with an empty seed. Exists only for
/// nckbench's traced twin.
#[derive(Debug)]
pub struct SeededLift {
    /// The lifted program.
    pub program: Program,
    /// Always empty.
    pub seed: LiftSeed,
    /// Always 0.
    pub reused_classes: usize,
    /// Always empty.
    pub reused_methods: Vec<MethodId>,
}

/// [`lift_file`] plus an empty seed. Exists only for nckbench's traced
/// twin.
pub fn lift_file_seeded(
    file: &AdxFile,
    _fingerprints: &[u64],
    _seed: Option<&LiftSeed>,
) -> Result<SeededLift> {
    Ok(SeededLift {
        program: lift_file(file)?,
        seed: LiftSeed::default(),
        reused_classes: 0,
        reused_methods: Vec::new(),
    })
}

/// Lifts a whole ADX file into an IR [`Program`]: [`lift_skipping`]
/// without a policy, with the first method that fails to lift as the
/// error.
pub fn lift_file(file: &AdxFile) -> Result<Program> {
    let (program, skips) = lift_skipping(file, None);
    match skips.into_iter().next() {
        Some(MethodSkip {
            reason: SkipReason::Lift(err),
            ..
        }) => Err(err),
        _ => Ok(program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::builder::AdxBuilder;
    use nck_dex::CondOp;

    fn lift_one(build: impl FnOnce(&mut nck_dex::builder::ClassBuilder<'_>)) -> Program {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", build);
        let file = b.finish().unwrap();
        lift_file(&file).unwrap()
    }

    #[test]
    fn identity_preamble_for_instance_method() {
        let p = lift_one(|c| {
            c.method("f", "(I)V", AccessFlags::PUBLIC, 4, |m| m.ret(None));
        });
        let body = p.methods[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(
            body.stmts[0],
            Stmt::Identity {
                kind: IdentityKind::This,
                ..
            }
        ));
        assert!(matches!(
            body.stmts[1],
            Stmt::Identity {
                kind: IdentityKind::Param(0),
                ..
            }
        ));
        // Parameter type hint recorded on the local.
        let this_local = match body.stmts[0] {
            Stmt::Identity { local, .. } => local,
            _ => unreachable!(),
        };
        assert_eq!(
            this_local,
            LocalId(2),
            "the receiver is the first in-register"
        );
    }

    #[test]
    fn invoke_move_result_fuses() {
        let p = lift_one(|c| {
            c.method("f", "()I", AccessFlags::PUBLIC, 4, |m| {
                let this = m.param(0).unwrap();
                m.invoke_virtual("Lapp/T;", "g", "()I", &[this]);
                m.move_result(m.reg(0));
                m.ret(Some(m.reg(0)));
            });
        });
        let body = p.methods[0].body.as_ref().unwrap();
        // this-identity, fused call, return.
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(
            &body.stmts[1],
            Stmt::Assign {
                rvalue: Rvalue::Invoke(_),
                ..
            }
        ));
    }

    #[test]
    fn branch_targets_remap_over_preamble_and_fusion() {
        let p = lift_one(|c| {
            c.method("f", "(I)V", AccessFlags::PUBLIC, 4, |m| {
                let x = m.param(1).unwrap();
                let end = m.new_label();
                // insn 0: ifz -> end
                m.ifz(CondOp::Eq, x, end);
                // insns 1-2: fused pair
                m.invoke_virtual("Lapp/T;", "g", "()I", &[m.param(0).unwrap()]);
                m.move_result(m.reg(0));
                // insn 3: target
                m.bind(end);
                m.ret(None);
            });
        });
        let body = p.methods[0].body.as_ref().unwrap();
        // Stmts: this(0), param(1), if(2), fused(3), return(4).
        assert_eq!(body.stmts.len(), 5);
        match &body.stmts[2] {
            Stmt::If { target, .. } => assert_eq!(*target, StmtId(4)),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn ifz_becomes_compare_with_zero() {
        let p = lift_one(|c| {
            c.method("f", "(I)V", AccessFlags::PUBLIC, 4, |m| {
                let x = m.param(1).unwrap();
                let end = m.new_label();
                m.ifz(CondOp::Ne, x, end);
                m.bind(end);
                m.ret(None);
            });
        });
        let body = p.methods[0].body.as_ref().unwrap();
        match &body.stmts[2] {
            Stmt::If { b, .. } => assert_eq!(*b, Operand::IntConst(0)),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn traps_lift_per_handler() {
        let p = lift_one(|c| {
            c.method("f", "()V", AccessFlags::PUBLIC, 4, |m| {
                let h1 = m.new_label();
                let h2 = m.new_label();
                let done = m.new_label();
                let t = m.begin_try();
                m.invoke_virtual("Lapp/T;", "g", "()V", &[m.param(0).unwrap()]);
                m.end_try(t, &[(Some("Ljava/io/IOException;"), h1), (None, h2)]);
                m.goto(done);
                m.bind(h1);
                m.move_exception(m.reg(0));
                m.goto(done);
                m.bind(h2);
                m.move_exception(m.reg(1));
                m.bind(done);
                m.ret(None);
            });
        });
        let body = p.methods[0].body.as_ref().unwrap();
        assert_eq!(body.traps.len(), 2);
        assert!(body.traps[0].exception.is_some());
        assert!(body.traps[1].exception.is_none());
        // Handlers begin with caught-exception identities.
        assert!(matches!(
            body.stmt(body.traps[0].handler),
            Stmt::Identity {
                kind: IdentityKind::CaughtException,
                ..
            }
        ));
    }

    #[test]
    fn string_constants_are_interned() {
        let p = lift_one(|c| {
            c.method("f", "()V", AccessFlags::PUBLIC, 2, |m| {
                m.const_str(m.reg(0), "http://example.com");
                m.ret(None);
            });
        });
        let body = p.methods[0].body.as_ref().unwrap();
        match &body.stmts[1] {
            Stmt::Assign {
                rvalue: Rvalue::Use(Operand::StrConst(s)),
                ..
            } => {
                assert_eq!(p.symbols.resolve(*s), "http://example.com");
            }
            other => panic!("expected string const, got {other:?}"),
        }
    }

    #[test]
    fn out_of_frame_register_is_a_typed_error() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("f", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        });
        let mut file = b.finish().unwrap();
        // Shrink the frame below the registers the preamble binds.
        let code = file.classes[0].methods[0].code.as_mut().unwrap();
        code.insns.insert(
            0,
            nck_dex::Insn::ConstInt {
                dst: Reg(40),
                value: 1,
            },
        );
        match lift_file(&file) {
            Err(LiftError::BadRegister {
                reg: 40, frame: 2, ..
            }) => {}
            other => panic!("expected BadRegister, got {other:?}"),
        }
    }

    #[test]
    fn lenient_lift_skips_bad_methods_and_keeps_good_ones() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("bad", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
            c.method("good", "()I", AccessFlags::PUBLIC, 2, |m| {
                m.const_int(m.reg(0), 7);
                m.ret(Some(m.reg(0)));
            });
        });
        let mut file = b.finish().unwrap();
        let code = file.classes[0].methods[0].code.as_mut().unwrap();
        code.insns.insert(
            0,
            nck_dex::Insn::ConstInt {
                dst: Reg(99),
                value: 0,
            },
        );
        assert!(lift_file(&file).is_err());
        let (p, skips) = lift_skipping(&file, None);
        assert_eq!(skips.len(), 1);
        assert!(skips[0].method.contains("bad"));
        assert!(matches!(
            skips[0].reason,
            SkipReason::Lift(LiftError::BadRegister { reg: 99, .. })
        ));
        // Both methods exist; only the bad one is bodiless.
        assert_eq!(p.methods.len(), 2);
        assert!(p.methods[0].body.is_none());
        assert!(p.methods[1].body.is_some());
    }

    #[test]
    fn lenient_lift_honours_the_skip_policy() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("f", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
            c.method("g", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        });
        let file = b.finish().unwrap();
        let (p, skips) = lift_skipping(
            &file,
            Some(&|name| {
                name.contains(".f(")
                    .then(|| "failed verification".to_owned())
            }),
        );
        assert_eq!(skips.len(), 1);
        assert_eq!(
            skips[0].reason,
            SkipReason::Policy("failed verification".to_owned())
        );
        assert!(p.methods[0].body.is_none());
        assert!(p.methods[1].body.is_some());
    }

    #[test]
    fn diagnostics_name_methods_as_display_method() {
        // Names are rendered only for diagnostics; each must still be
        // the pool's `display_method` rendering.
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            for name in ["reg", "str", "target", "ok"] {
                c.method(
                    name,
                    "(I[Ljava/lang/String;)V",
                    AccessFlags::PUBLIC,
                    4,
                    |m| m.ret(None),
                );
            }
        });
        let mut file = b.finish().unwrap();
        let n_strings = file.pools.strings().len() as u32;
        let methods = &mut file.classes[0].methods;
        let broken = [
            nck_dex::Insn::ConstInt {
                dst: Reg(40),
                value: 1,
            },
            nck_dex::Insn::ConstString {
                dst: Reg(0),
                idx: nck_dex::StringIdx(n_strings + 3),
            },
            nck_dex::Insn::Goto { target: 99 },
        ];
        for (m, insn) in methods.iter_mut().zip(broken) {
            m.code.as_mut().unwrap().insns.insert(0, insn);
        }
        let display: Vec<String> = file.classes[0]
            .methods
            .iter()
            .map(|m| file.pools.display_method(m.method))
            .collect();
        assert_eq!(display[3], "Lapp/T;.ok(I[Ljava/lang/String;)V");

        let errors = nck_dex::verify::verify(&file);
        assert!(!errors.is_empty());
        assert!(errors.iter().all(|e| display[..3].contains(&e.method)));
        for name in &display[..3] {
            assert!(errors.iter().any(|e| &e.method == name), "{name}");
        }

        match lift_file(&file) {
            Err(LiftError::BadRegister { method, .. }) => assert_eq!(method, display[0]),
            other => panic!("expected BadRegister, got {other:?}"),
        }
        let (_, skips) = lift_skipping(&file, None);
        let skipped: Vec<&str> = skips.iter().map(|s| s.method.as_str()).collect();
        assert_eq!(skipped, [&display[0], &display[1], &display[2]]);
        assert!(skips[1].reason.to_string().contains("unresolvable string"));
        assert!(skips[2].reason.to_string().contains("branch target 99"));
        let (p, skips) = lift_skipping(
            &file,
            Some(&|name| (name == display[3]).then(|| "by policy".to_owned())),
        );
        assert_eq!(skips.last().unwrap().method, display[3]);
        assert!(p.methods[3].body.is_none());
    }

    #[test]
    fn classes_and_hierarchy_lift() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.super_class("Landroid/app/Activity;");
            c.interface("Landroid/view/View$OnClickListener;");
            c.method("f", "()V", AccessFlags::PUBLIC, 1, |m| m.ret(None));
        });
        let file = b.finish().unwrap();
        let p = lift_file(&file).unwrap();
        assert_eq!(p.classes.len(), 1);
        let a = p.symbols.get("Lapp/A;").unwrap();
        let chain = p.hierarchy(a);
        assert_eq!(chain.len(), 2);
        assert_eq!(p.symbols.resolve(chain[1]), "Landroid/app/Activity;");
        assert_eq!(p.all_interfaces(a).len(), 1);
    }

    #[test]
    fn seeded_lift_without_seed_matches_plain_lift() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method("f", "()I", AccessFlags::PUBLIC, 4, |m| {
                m.const_str(m.reg(1), "stable");
                m.const_int(m.reg(0), 7);
                m.ret(Some(m.reg(0)));
            });
        });
        let file = b.finish().unwrap();
        let fps = nck_dex::class_fingerprints(&file);
        let cold = lift_file(&file).unwrap();
        let seeded = lift_file_seeded(&file, &fps, None).unwrap();
        assert_eq!(seeded.reused_classes, 0);
        assert!(seeded.reused_methods.is_empty());
        assert_eq!(seeded.seed.common_prefix(&fps), 0);
        let strings = |p: &Program| -> Vec<String> {
            (0..p.symbols.len() as u32)
                .map(|i| p.symbols.resolve(Symbol(i)).to_owned())
                .collect()
        };
        assert_eq!(strings(&cold), strings(&seeded.program));
        assert_eq!(
            format!("{:?}", cold.classes),
            format!("{:?}", seeded.program.classes)
        );
        assert_eq!(
            format!("{:?}", cold.methods),
            format!("{:?}", seeded.program.methods)
        );
    }
}
