//! Lifting ADX bytecode into the IR (the Dexpler role).
//!
//! Registers become locals (`v0`..`vN`), parameters get identity
//! statements, `invoke`/`move-result` pairs fuse into assigning calls, and
//! branch targets are remapped from instruction indices to statement ids.
//!
//! The lifter takes only what the verifier passed: a
//! [`Verified`] witness, in which every register, branch target and pool
//! reference is in range and each frame matches its prototype. So
//! [`lift`] has no error path; the methods the verifier flagged stay
//! bodiless.

use crate::body::{
    Body, Class, FieldKey, IdentityKind, InvokeExpr, LocalDecl, LocalId, Method, MethodId,
    MethodKey, Operand, Program, Rvalue, Stmt, StmtId, Trap,
};
use crate::symbols::Symbol;
use nck_dex::{
    AccessFlags, AdxFile, CodeItem, Insn, MethodIdx, ParamTypes, ProtoIdx, Reg, StringIdx, TypeIdx,
    Verified, VerifyError,
};
use std::sync::Arc;

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

    fn string_sym(&mut self, idx: StringIdx) -> Symbol {
        if let Some(sym) = self.strings[idx.index()] {
            return sym;
        }
        let sym = self
            .program
            .symbols
            .intern(&self.file.pools.strings()[idx.index()]);
        self.strings[idx.index()] = Some(sym);
        sym
    }

    fn type_sym(&mut self, idx: TypeIdx) -> Symbol {
        let s = self.file.pools.types()[idx.index()];
        self.string_sym(s)
    }

    fn proto_sym(&mut self, idx: ProtoIdx) -> Symbol {
        if let Some(sym) = self.protos[idx.index()] {
            return sym;
        }
        let sym = self
            .program
            .symbols
            .intern(&self.file.pools.display_proto(idx));
        self.protos[idx.index()] = Some(sym);
        sym
    }

    fn method_key(&mut self, idx: MethodIdx) -> MethodKey {
        if let Some(key) = self.methods[idx.index()] {
            return key;
        }
        let m = self.file.pools.methods()[idx.index()];
        let key = MethodKey {
            class: self.type_sym(m.class),
            name: self.string_sym(m.name),
            sig: self.proto_sym(m.proto),
        };
        self.methods[idx.index()] = Some(key);
        key
    }

    fn field_key(&mut self, idx: nck_dex::FieldIdx) -> FieldKey {
        if let Some(key) = self.fields[idx.index()] {
            return key;
        }
        let f = self.file.pools.fields()[idx.index()];
        let key = FieldKey {
            class: self.type_sym(f.class),
            name: self.string_sym(f.name),
            ty: self.type_sym(f.ty),
        };
        self.fields[idx.index()] = Some(key);
        key
    }

    fn lift_code(&mut self, code: &CodeItem, is_static: bool, params: &ParamTypes<'_>) -> Body {
        let mut locals = vec![LocalDecl { ty: None }; usize::from(code.registers)];
        let receiver = u16::from(!is_static);
        // The in-registers are the frame's last `ins`.
        let first_param = code.registers - code.ins;

        let mut stmts: Vec<Stmt> = Vec::with_capacity(code.insns.len() + usize::from(code.ins));
        // Identity preamble: bind parameter registers.
        for i in 0..code.ins {
            let reg = Reg(first_param + i);
            let kind = if !is_static && i == 0 {
                IdentityKind::This
            } else {
                IdentityKind::Param(i - receiver)
            };
            if let IdentityKind::Param(p) = kind {
                let sym = match params {
                    ParamTypes::Pool(types) => self.type_sym(types[p as usize]),
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
            let stmt_idx = stmts.len() as u32;
            match &code.insns[i] {
                Insn::Invoke { kind, method, args } => {
                    let callee = self.method_key(*method);
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
                    // Unfused move-result (the verifier flags these, but
                    // the lifter stays total): an opaque definition.
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
                    let sym = self.string_sym(*idx);
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
                    let sym = self.type_sym(*ty);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::Use(Operand::ClassConst(sym)),
                    });
                }
                Insn::NewInstance { dst, ty } => {
                    let sym = self.type_sym(*ty);
                    locals[dst.0 as usize].ty = Some(sym);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::New { ty: sym },
                    });
                }
                Insn::NewArray { dst, len, ty } => {
                    let sym = self.type_sym(*ty);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::NewArray {
                            ty: sym,
                            len: Self::op(*len),
                        },
                    });
                }
                Insn::CheckCast { reg, ty } => {
                    let sym = self.type_sym(*ty);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*reg),
                        rvalue: Rvalue::Cast {
                            ty: sym,
                            op: Self::op(*reg),
                        },
                    });
                }
                Insn::InstanceOf { dst, src, ty } => {
                    let sym = self.type_sym(*ty);
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
                    let field = self.field_key(*field);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::InstanceField {
                            base: Self::op(*obj),
                            field,
                        },
                    });
                }
                Insn::Iput { src, obj, field } => {
                    let field = self.field_key(*field);
                    stmts.push(Stmt::StoreInstanceField {
                        base: Self::op(*obj),
                        field,
                        value: Self::op(*src),
                    });
                }
                Insn::Sget { dst, field } => {
                    let field = self.field_key(*field);
                    stmts.push(Stmt::Assign {
                        local: Self::local(*dst),
                        rvalue: Rvalue::StaticField { field },
                    });
                }
                Insn::Sput { src, field } => {
                    let field = self.field_key(*field);
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
        let remap = |target: &mut StmtId| *target = StmtId(map[target.index()]);
        for stmt in &mut stmts {
            match stmt {
                Stmt::Goto { target } | Stmt::If { target, .. } => remap(target),
                Stmt::Switch { arms, .. } => arms.iter_mut().for_each(|(_, t)| remap(t)),
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
                let exception = h.exception.map(|ty| self.type_sym(ty));
                traps.push(Trap {
                    start,
                    end,
                    exception,
                    handler: end_map(h.target),
                });
            }
        }

        Body {
            locals,
            stmts,
            traps,
        }
    }

    /// Lifts one class definition: interns its names, lifts every method
    /// body that `params` (this class's slice of the witness) splits, and
    /// returns the class record (with `methods` left empty — the caller
    /// assigns ids via [`Program::add_method`]) plus the lifted methods
    /// in declaration order. A flagged method is kept bodiless. The
    /// caller-visible effect on the program is confined to the interner.
    fn lift_class(
        &mut self,
        class: &nck_dex::ClassDef,
        params: &[Option<ParamTypes<'_>>],
    ) -> (Class, Vec<Method>) {
        let name = self.type_sym(class.ty);
        let superclass = class.superclass.map(|s| self.type_sym(s));
        let interfaces = class.interfaces.iter().map(|&i| self.type_sym(i)).collect();
        let fields = class
            .fields
            .iter()
            .map(|f| self.field_key(f.field))
            .collect();
        let methods = class
            .methods
            .iter()
            .zip(params)
            .map(|(m, params)| {
                let key = self.method_key(m.method);
                let is_static = m.flags.contains(AccessFlags::STATIC);
                let body = match (&m.code, params) {
                    (Some(code), Some(params)) => {
                        Some(Arc::new(self.lift_code(code, is_static, params)))
                    }
                    _ => None,
                };
                Method {
                    key,
                    flags: m.flags,
                    body,
                }
            })
            .collect();
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

/// Lifts a verified file into an IR [`Program`]. The methods the
/// verifier flagged ([`Verified::flagged`]) are kept bodiless, so call
/// edges into them still resolve; every other method lifts whole.
pub fn lift(verified: &Verified<'_>) -> Program {
    let file = verified.file();
    let mut lifter = Lifter::new(file);
    let mut params = verified.params();
    for class in &file.classes {
        let (mine, rest) = params.split_at(class.methods.len());
        params = rest;
        let (mut c, methods) = lifter.lift_class(class, mine);
        let program = &mut lifter.program;
        c.methods = methods.into_iter().map(|m| program.add_method(m)).collect();
        program.add_class(c);
    }
    lifter.program
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

/// [`lift_file`] (verify, then lift) plus an empty seed. Exists only for
/// nckbench's traced twin.
pub fn lift_file_seeded(
    file: &AdxFile,
    _fingerprints: &[u64],
    _seed: Option<&LiftSeed>,
) -> Result<SeededLift, VerifyError> {
    Ok(SeededLift {
        program: lift_file(file)?,
        seed: LiftSeed::default(),
        reused_classes: 0,
        reused_methods: Vec::new(),
    })
}

/// Verifies `file` and lifts it whole, with the first verify error as
/// the error: the all-or-nothing convenience for tests and tools.
pub fn lift_file(file: &AdxFile) -> Result<Program, VerifyError> {
    let verified = nck_dex::verify::verify(file).map_err(|mut errors| errors.swap_remove(0))?;
    match verified.errors().first() {
        Some(e) => Err(e.clone()),
        None => Ok(lift(&verified)),
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
        let code = file.classes[0].methods[0].code.as_mut().unwrap();
        code.insns.insert(
            0,
            nck_dex::Insn::ConstInt {
                dst: Reg(40),
                value: 1,
            },
        );
        let err = lift_file(&file).expect_err("out-of-frame register");
        assert_eq!(err.scope, nck_dex::VerifyScope::Method);
        assert_eq!(err.pc, Some(0));
        assert!(err.message.contains("v40"), "{err}");
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
        let verified = nck_dex::verify::verify(&file).expect("method-scoped damage");
        let flagged: Vec<_> = verified.flagged().collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!((flagged[0].0, flagged[0].1), (0, 0));
        assert!(flagged[0].2.method.contains("bad"));
        // Both methods exist; only the bad one is bodiless.
        let p = lift(&verified);
        assert_eq!(p.methods.len(), 2);
        assert!(p.methods[0].body.is_none());
        assert!(p.methods[1].body.is_some());
    }

    /// The verifier alone decides what lifts: a method it flags for
    /// damage the lifter could translate (control falling off the end)
    /// stays bodiless too.
    #[test]
    fn lift_honours_the_verifiers_flags() {
        let mut b = AdxBuilder::new();
        b.class("Lapp/T;", |c| {
            c.method("f", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
            c.method("g", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        });
        let mut file = b.finish().unwrap();
        file.classes[0].methods[0].code.as_mut().unwrap().insns = vec![nck_dex::Insn::Nop];
        let verified = nck_dex::verify::verify(&file).expect("method-scoped damage");
        assert!(verified.errors()[0].message.contains("fall off"));
        let p = lift(&verified);
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

        let verified = nck_dex::verify::verify(&file).expect("method-scoped damage");
        let errors = verified.errors();
        assert!(!errors.is_empty());
        assert!(errors.iter().all(|e| display[..3].contains(&e.method)));
        let flagged: Vec<&str> = verified
            .flagged()
            .map(|(_, _, e)| e.method.as_str())
            .collect();
        assert_eq!(flagged, [&display[0], &display[1], &display[2]]);
        let details: Vec<String> = verified.flagged().map(|(_, _, e)| e.to_string()).collect();
        assert!(details[1].contains("string index"), "{}", details[1]);
        assert!(details[2].contains("branch target 99"), "{}", details[2]);
        assert_eq!(lift_file(&file).expect_err("damaged").method, display[0]);
        let p = lift(&verified);
        assert_eq!(
            p.methods
                .iter()
                .map(|m| m.body.is_some())
                .collect::<Vec<_>>(),
            [false, false, false, true]
        );
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
