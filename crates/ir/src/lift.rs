//! Lifting ADX bytecode into the IR (the Dexpler role).
//!
//! Registers become locals (`v0`..`vN`), parameters get identity
//! statements, `invoke`/`move-result` pairs fuse into assigning calls, and
//! branch targets are remapped from instruction indices to statement ids.

use crate::body::{
    Body, Class, FieldKey, IdentityKind, InvokeExpr, LocalDecl, LocalId, Method, MethodId,
    MethodKey, Operand, Program, Rvalue, Stmt, StmtId, Trap,
};
use nck_dex::{AccessFlags, AdxFile, CodeItem, Insn, Reg};
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
}

impl<'a> Lifter<'a> {
    fn local(reg: Reg) -> LocalId {
        LocalId(u32::from(reg.0))
    }

    fn op(reg: Reg) -> Operand {
        Operand::Local(Self::local(reg))
    }

    fn method_key(&mut self, idx: nck_dex::MethodIdx) -> Option<MethodKey> {
        let m = self.file.pools.get_method(idx)?;
        let class = self.file.pools.get_type(m.class)?;
        let name = self.file.pools.get_string(m.name)?;
        let sig = self.file.pools.display_proto(m.proto);
        Some(MethodKey {
            class: self.program.symbols.intern(class),
            name: self.program.symbols.intern(name),
            sig: self.program.symbols.intern(&sig),
        })
    }

    fn field_key(&mut self, idx: nck_dex::FieldIdx) -> Option<FieldKey> {
        let f = self.file.pools.get_field(idx)?;
        let class = self.file.pools.get_type(f.class)?;
        let name = self.file.pools.get_string(f.name)?;
        let ty = self.file.pools.get_type(f.ty)?;
        Some(FieldKey {
            class: self.program.symbols.intern(class),
            name: self.program.symbols.intern(name),
            ty: self.program.symbols.intern(ty),
        })
    }

    fn type_sym(&mut self, idx: nck_dex::TypeIdx) -> Option<crate::symbols::Symbol> {
        let t = self.file.pools.get_type(idx)?;
        Some(self.program.symbols.intern(t))
    }

    fn lift_code(
        &mut self,
        method_name: &str,
        code: &CodeItem,
        is_static: bool,
        param_descriptors: &[String],
    ) -> Result<Body> {
        let bad = |pc: u32, what: &'static str| LiftError::BadPoolRef {
            method: method_name.to_owned(),
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
                    method: method_name.to_owned(),
                    pc: i as u32,
                    reg: r.0,
                    frame: code.registers,
                });
            }
        }

        let mut locals: Vec<LocalDecl> = (0..code.registers)
            .map(|r| LocalDecl {
                name: format!("v{r}"),
                ty: None,
            })
            .collect();

        let receiver = usize::from(!is_static);
        if usize::from(code.ins) != param_descriptors.len() + receiver {
            return Err(LiftError::BadFrame {
                method: method_name.to_owned(),
            });
        }

        let mut stmts: Vec<Stmt> = Vec::with_capacity(code.insns.len() + usize::from(code.ins));
        // Identity preamble: bind parameter registers.
        for i in 0..code.ins {
            let reg = code.param_reg(i).ok_or_else(|| LiftError::BadFrame {
                method: method_name.to_owned(),
            })?;
            let kind = if !is_static && i == 0 {
                locals[reg.0 as usize].name = "this".to_owned();
                IdentityKind::This
            } else {
                IdentityKind::Param(i - receiver as u16)
            };
            if let IdentityKind::Param(p) = kind {
                let desc = &param_descriptors[p as usize];
                let sym = self.program.symbols.intern(desc);
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
                    let s = self
                        .file
                        .pools
                        .get_string(*idx)
                        .ok_or_else(|| bad(pc, "string"))?
                        .to_owned();
                    let sym = self.program.symbols.intern(&s);
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
        let remap = |method: &str, pc: u32, target: StmtId| -> Result<StmtId> {
            map.get(target.index())
                .map(|&s| StmtId(s))
                .ok_or(LiftError::BadTarget {
                    method: method.to_owned(),
                    pc,
                    target: target.0,
                })
        };
        for (idx, stmt) in stmts.iter_mut().enumerate() {
            let pc = idx as u32;
            match stmt {
                Stmt::Goto { target } => *target = remap(method_name, pc, *target)?,
                Stmt::If { target, .. } => *target = remap(method_name, pc, *target)?,
                Stmt::Switch { arms, .. } => {
                    let mut new_arms = Vec::with_capacity(arms.len());
                    for &(k, t) in arms.iter() {
                        new_arms.push((k, remap(method_name, pc, t)?));
                    }
                    *arms = new_arms;
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

/// Record of one method whose body was dropped during lenient lifting.
///
/// The method still exists in the lifted [`Program`] (bodiless, so call
/// graph edges into it resolve) unless even its identity was
/// unrecoverable; only its behaviour is unknown to the analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSkip {
    /// Rendered `class.name(sig)` identity.
    pub method: String,
    /// Why the body was dropped.
    pub reason: String,
}

/// Skip policy for [`lift_file_lenient`]: maps a rendered method identity
/// to `Some(reason)` when its body must not be lifted (e.g. it failed
/// structural verification).
pub type SkipPolicy<'p> = &'p dyn Fn(&str) -> Option<String>;

impl<'a> Lifter<'a> {
    /// Lifts one class definition: interns its names, lifts every method
    /// body, and returns the class record (with `methods` left empty —
    /// the caller assigns ids via [`Program::add_method`]) plus the
    /// lifted methods in declaration order. The caller-visible effect on
    /// the program is confined to the interner, which makes the
    /// per-class intern delta recordable and replayable.
    fn lift_class(
        &mut self,
        class: &nck_dex::ClassDef,
        lenient: Option<SkipPolicy<'_>>,
        skips: &mut Vec<MethodSkip>,
    ) -> Result<(Class, Vec<Method>)> {
        let file = self.file;
        let name_str = file.pools.get_type(class.ty).unwrap_or("<bad>").to_owned();
        let name = self.program.symbols.intern(&name_str);
        let superclass = class
            .superclass
            .and_then(|s| file.pools.get_type(s))
            .map(|s| s.to_owned())
            .map(|s| self.program.symbols.intern(&s));
        let interfaces = class
            .interfaces
            .iter()
            .filter_map(|&i| file.pools.get_type(i))
            .map(|s| s.to_owned())
            .collect::<Vec<_>>()
            .iter()
            .map(|s| self.program.symbols.intern(s))
            .collect();
        let fields = class
            .fields
            .iter()
            .filter_map(|f| self.field_key(f.field))
            .collect();

        let mut methods = Vec::new();
        for m in &class.methods {
            let display = file.pools.display_method(m.method);
            let key = match self.method_key(m.method) {
                Some(key) => key,
                None => {
                    let err = LiftError::BadPoolRef {
                        method: display.clone(),
                        pc: 0,
                        what: "method definition",
                    };
                    if lenient.is_some() {
                        // Without a resolvable identity the method cannot
                        // even be declared; drop it entirely.
                        skips.push(MethodSkip {
                            method: display,
                            reason: err.to_string(),
                        });
                        continue;
                    }
                    return Err(err);
                }
            };
            let policy_skip = lenient.and_then(|skip| skip(&display));
            let body = if let Some(reason) = policy_skip {
                skips.push(MethodSkip {
                    method: display.clone(),
                    reason,
                });
                None
            } else {
                match &m.code {
                    Some(code) => {
                        let is_static = m.flags.contains(AccessFlags::STATIC);
                        let sig_str = self.program.symbols.resolve(key.sig).to_owned();
                        let lifted = nck_dex::parse_signature(&sig_str)
                            .map_err(|_| LiftError::BadFrame {
                                method: display.clone(),
                            })
                            .and_then(|(params, _)| {
                                self.lift_code(&display, code, is_static, &params)
                            });
                        match lifted {
                            Ok(body) => Some(body),
                            Err(err) if lenient.is_some() => {
                                skips.push(MethodSkip {
                                    method: display.clone(),
                                    reason: err.to_string(),
                                });
                                None
                            }
                            Err(err) => return Err(err),
                        }
                    }
                    None => None,
                }
            };
            methods.push(Method {
                key,
                flags: m.flags,
                body: body.map(Arc::new),
            });
        }

        Ok((
            Class {
                name,
                superclass,
                interfaces,
                flags: class.flags,
                fields,
                methods: Vec::new(),
            },
            methods,
        ))
    }
}

/// Registers a lifted class: assigns method ids and records the class.
fn register_class(program: &mut Program, mut class: Class, methods: Vec<Method>) -> Vec<MethodId> {
    let ids: Vec<MethodId> = methods.into_iter().map(|m| program.add_method(m)).collect();
    class.methods = ids.clone();
    program.add_class(class);
    ids
}

fn lift_file_impl(
    file: &AdxFile,
    lenient: Option<SkipPolicy<'_>>,
) -> Result<(Program, Vec<MethodSkip>)> {
    let mut lifter = Lifter {
        file,
        program: Program::new(),
    };
    let mut skips = Vec::new();

    for class in &file.classes {
        let (c, methods) = lifter.lift_class(class, lenient, &mut skips)?;
        register_class(&mut lifter.program, c, methods);
    }

    Ok((lifter.program, skips))
}

/// Replay data for one lifted class: the interner delta plus the lifted
/// records, sufficient to reproduce the cold lift of this class *given
/// an identical program state before it* — which holds exactly when
/// every earlier class matched its fingerprint too, hence the prefix
/// rule in [`lift_file_seeded`].
#[derive(Debug, Clone)]
pub struct ClassSeed {
    /// Canonical content fingerprint of the source class
    /// ([`nck_dex::class_fingerprints`]).
    pub fingerprint: u64,
    /// Strings first interned while lifting this class, in order.
    new_strings: Vec<String>,
    /// The lifted class record (method ids as assigned by the run that
    /// recorded it — replay reproduces them).
    class: Class,
    /// The lifted methods, in declaration order.
    methods: Vec<Method>,
}

/// Replay data for a whole file, one entry per class in file order.
///
/// Entries are `Arc`-shared with the seed of the run that recorded them:
/// replaying a class must not deep-copy its method bodies a second time
/// just to hand the next run a seed.
#[derive(Debug, Clone, Default)]
pub struct LiftSeed {
    /// Per-class records.
    pub classes: Vec<Arc<ClassSeed>>,
}

impl LiftSeed {
    /// Length of the longest prefix of `fingerprints` this seed can
    /// replay.
    pub fn common_prefix(&self, fingerprints: &[u64]) -> usize {
        self.classes
            .iter()
            .zip(fingerprints)
            .take_while(|(c, &fp)| c.fingerprint == fp)
            .count()
    }
}

/// A seeded lift: the program plus everything the next run needs.
#[derive(Debug)]
pub struct SeededLift {
    /// The lifted program, byte-identical to what [`lift_file`] returns.
    pub program: Program,
    /// Replay data for the next run over an updated file.
    pub seed: LiftSeed,
    /// How many leading classes were replayed from the seed.
    pub reused_classes: usize,
    /// Method ids of every replayed (unchanged) method. Their bodies are
    /// clones of the previous run's, so per-body artifacts (CFGs,
    /// dataflow, summaries) keyed by these ids remain valid.
    pub reused_methods: Vec<MethodId>,
}

/// Lifts `file`, replaying the longest unchanged class prefix from
/// `seed` and lifting the rest cold.
///
/// `fingerprints` are the canonical per-class fingerprints of `file`
/// (computed by the caller, who also needs them for verify reuse). The
/// prefix rule is what makes replay sound without any symbol remapping:
/// interning is first-encounter order, so a class's lifted symbols are a
/// pure function of the resolved file content *up to and including* that
/// class. Equal fingerprints for every class before `i` therefore imply
/// the interner, method ids, and class ids reach class `i` in exactly
/// the state of the recording run. The first fingerprint mismatch ends
/// replay; everything after lifts cold (and is re-recorded).
pub fn lift_file_seeded(
    file: &AdxFile,
    fingerprints: &[u64],
    seed: Option<&LiftSeed>,
) -> Result<SeededLift> {
    assert_eq!(
        fingerprints.len(),
        file.classes.len(),
        "one fingerprint per class"
    );
    let prefix = seed.map_or(0, |s| s.common_prefix(fingerprints));

    let mut lifter = Lifter {
        file,
        program: Program::new(),
    };
    let mut out = LiftSeed::default();
    let mut reused_methods = Vec::new();

    for (i, class) in file.classes.iter().enumerate() {
        if i < prefix {
            let cs = &seed.expect("prefix implies seed").classes[i];
            for s in &cs.new_strings {
                lifter.program.symbols.intern(s);
            }
            let ids = register_class(&mut lifter.program, cs.class.clone(), cs.methods.clone());
            debug_assert_eq!(ids, cs.class.methods, "replay reproduces method ids");
            reused_methods.extend(ids);
            out.classes.push(Arc::clone(cs));
            continue;
        }
        let mark = lifter.program.symbols.len();
        let mut skips = Vec::new();
        let (c, methods) = lifter.lift_class(class, None, &mut skips)?;
        let new_strings = lifter.program.symbols.strings_from(mark).to_vec();
        let methods_copy = methods.clone();
        let ids = register_class(&mut lifter.program, c, methods);
        let mut class_rec = lifter.program.classes.last().expect("just added").clone();
        class_rec.methods = ids;
        out.classes.push(Arc::new(ClassSeed {
            fingerprint: fingerprints[i],
            new_strings,
            class: class_rec,
            methods: methods_copy,
        }));
    }

    Ok(SeededLift {
        program: lifter.program,
        seed: out,
        reused_classes: prefix,
        reused_methods,
    })
}

/// Lifts a whole ADX file into an IR [`Program`], failing on the first
/// unliftable method.
pub fn lift_file(file: &AdxFile) -> Result<Program> {
    lift_file_impl(file, None).map(|(p, _)| p)
}

/// Lifts a whole ADX file, degrading per-method instead of failing.
///
/// Methods for which `skip` returns a reason (the caller's structural
/// verification verdicts) and methods whose bodies fail to lift are kept
/// *bodiless* and recorded in the returned skip list; every other method
/// lifts normally. This function never fails: the worst adversarial
/// input yields an empty program plus a skip per method.
pub fn lift_file_lenient(file: &AdxFile, skip: SkipPolicy<'_>) -> (Program, Vec<MethodSkip>) {
    lift_file_impl(file, Some(skip)).expect("lenient lifting is total")
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
        assert_eq!(body.locals[this_local.0 as usize].name, "this");
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
        let (p, skips) = lift_file_lenient(&file, &|_| None);
        assert_eq!(skips.len(), 1);
        assert!(skips[0].method.contains("bad"));
        assert!(skips[0].reason.contains("v99"));
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
        let (p, skips) = lift_file_lenient(&file, &|name| {
            name.contains(".f(")
                .then(|| "failed verification".to_owned())
        });
        assert_eq!(skips.len(), 1);
        assert_eq!(skips[0].reason, "failed verification");
        assert!(p.methods[0].body.is_none());
        assert!(p.methods[1].body.is_some());
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

    /// Two-class file whose second class's behaviour is parameterized, so
    /// tests can produce an "updated version" with an unchanged prefix.
    fn versioned_file(retval: i64) -> AdxFile {
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method("f", "()I", AccessFlags::PUBLIC, 4, |m| {
                m.const_str(m.reg(1), "stable");
                m.const_int(m.reg(0), 7);
                m.ret(Some(m.reg(0)));
            });
            c.method("h", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        });
        b.class("Lapp/B;", |c| {
            c.method("g", "()I", AccessFlags::PUBLIC, 4, |m| {
                m.const_str(m.reg(1), "volatile");
                m.const_int(m.reg(0), retval);
                m.ret(Some(m.reg(0)));
            });
        });
        b.finish().unwrap()
    }

    fn programs_equal(a: &Program, b: &Program) {
        assert_eq!(a.symbols.strings_from(0), b.symbols.strings_from(0));
        assert_eq!(format!("{:?}", a.classes), format!("{:?}", b.classes));
        assert_eq!(format!("{:?}", a.methods), format!("{:?}", b.methods));
    }

    #[test]
    fn seeded_lift_without_seed_matches_plain_lift() {
        let file = versioned_file(1);
        let fps = nck_dex::class_fingerprints(&file);
        let cold = lift_file(&file).unwrap();
        let seeded = lift_file_seeded(&file, &fps, None).unwrap();
        assert_eq!(seeded.reused_classes, 0);
        assert!(seeded.reused_methods.is_empty());
        assert_eq!(seeded.seed.classes.len(), 2);
        programs_equal(&cold, &seeded.program);
    }

    #[test]
    fn replay_reproduces_program_exactly_after_tail_change() {
        let v1 = versioned_file(1);
        let fps1 = nck_dex::class_fingerprints(&v1);
        let recorded = lift_file_seeded(&v1, &fps1, None).unwrap();

        let v2 = versioned_file(2);
        let fps2 = nck_dex::class_fingerprints(&v2);
        let warm = lift_file_seeded(&v2, &fps2, Some(&recorded.seed)).unwrap();
        assert_eq!(warm.reused_classes, 1, "only the unchanged prefix replays");
        // Both of A's methods come back with their original ids.
        assert_eq!(warm.reused_methods.len(), 2);
        assert_eq!(warm.reused_methods, warm.program.classes[0].methods);

        let cold = lift_file(&v2).unwrap();
        programs_equal(&cold, &warm.program);
    }

    #[test]
    fn replay_of_identical_file_reuses_everything() {
        let v1 = versioned_file(3);
        let fps = nck_dex::class_fingerprints(&v1);
        let recorded = lift_file_seeded(&v1, &fps, None).unwrap();
        let warm = lift_file_seeded(&v1, &fps, Some(&recorded.seed)).unwrap();
        assert_eq!(warm.reused_classes, 2);
        assert_eq!(warm.reused_methods.len(), 3);
        programs_equal(&recorded.program, &warm.program);
    }

    #[test]
    fn prefix_change_ends_replay_immediately() {
        // Change the FIRST class: nothing may be replayed, because every
        // later class's symbols depend on the interner state the first
        // class left behind.
        let mut b = AdxBuilder::new();
        b.class("Lapp/A;", |c| {
            c.method("f", "()I", AccessFlags::PUBLIC, 4, |m| {
                m.const_int(m.reg(0), 99);
                m.ret(Some(m.reg(0)));
            });
            c.method("h", "()V", AccessFlags::PUBLIC, 2, |m| m.ret(None));
        });
        b.class("Lapp/B;", |c| {
            c.method("g", "()I", AccessFlags::PUBLIC, 4, |m| {
                m.const_str(m.reg(1), "volatile");
                m.const_int(m.reg(0), 1);
                m.ret(Some(m.reg(0)));
            });
        });
        let v2 = b.finish().unwrap();

        let v1 = versioned_file(1);
        let recorded = lift_file_seeded(&v1, &nck_dex::class_fingerprints(&v1), None).unwrap();
        let fps2 = nck_dex::class_fingerprints(&v2);
        let warm = lift_file_seeded(&v2, &fps2, Some(&recorded.seed)).unwrap();
        assert_eq!(warm.reused_classes, 0);
        programs_equal(&lift_file(&v2).unwrap(), &warm.program);
    }
}
