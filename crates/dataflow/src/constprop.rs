//! Flat-lattice constant propagation.
//!
//! NChecker uses constant propagation to recover the arguments of config
//! API calls — e.g. the `5` in `setMaxRetries(5)` even when the constant
//! travels through copies and arithmetic before the call (§4.4.2).

use crate::solver::{solve, Analysis, Direction, Solution};
use nck_ir::body::{Body, LocalId, Operand, Rvalue, Stmt, StmtId};
use nck_ir::cfg::Cfg;
use nck_ir::symbols::Symbol;

/// A compile-time value on the flat lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CVal {
    /// No definition seen yet (⊥).
    Undef,
    /// A known integer constant.
    Int(i64),
    /// A known string constant.
    Str(Symbol),
    /// The known `null` reference.
    Null,
    /// More than one value possible (⊤).
    NonConst,
}

impl CVal {
    /// Flat-lattice join: `Undef` is the identity, equal values keep,
    /// anything else goes to `NonConst`. Shared with the interprocedural
    /// summary engine so both fold constants identically.
    pub fn join(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Undef, x) | (x, CVal::Undef) => x,
            (a, b) if a == b => a,
            _ => CVal::NonConst,
        }
    }

    /// Returns the integer if this is a known integer constant.
    pub fn as_int(self) -> Option<i64> {
        match self {
            CVal::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string symbol if this is a known string constant.
    pub fn as_str(self) -> Option<Symbol> {
        match self {
            CVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct CpAnalysis {
    n_locals: usize,
}

type Env = Vec<CVal>;

fn eval_operand(env: &Env, op: Operand) -> CVal {
    match op {
        Operand::Local(l) => env.get(l.0 as usize).copied().unwrap_or(CVal::NonConst),
        Operand::IntConst(v) => CVal::Int(v),
        Operand::StrConst(s) => CVal::Str(s),
        Operand::Null => CVal::Null,
        Operand::ClassConst(_) => CVal::NonConst,
    }
}

impl Analysis for CpAnalysis {
    type Fact = Env;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> Env {
        vec![CVal::Undef; self.n_locals]
    }

    fn join(&self, fact: &mut Env, other: &Env) -> bool {
        let mut changed = false;
        for (a, &b) in fact.iter_mut().zip(other) {
            let new = a.join(b);
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    fn transfer(&self, _id: StmtId, stmt: &Stmt, fact: &mut Env) {
        match stmt {
            Stmt::Assign { local, rvalue } => {
                let v = match rvalue {
                    Rvalue::Use(op) => eval_operand(fact, *op),
                    Rvalue::BinOp { op, a, b } => {
                        match (eval_operand(fact, *a), eval_operand(fact, *b)) {
                            (CVal::Int(x), CVal::Int(y)) => {
                                op.eval(x, y).map(CVal::Int).unwrap_or(CVal::NonConst)
                            }
                            _ => CVal::NonConst,
                        }
                    }
                    Rvalue::UnOp { op, a } => match eval_operand(fact, *a) {
                        CVal::Int(x) => CVal::Int(match op {
                            nck_dex::UnOp::Neg => x.wrapping_neg(),
                            nck_dex::UnOp::Not => !x,
                        }),
                        _ => CVal::NonConst,
                    },
                    Rvalue::Cast { op, .. } => eval_operand(fact, *op),
                    _ => CVal::NonConst,
                };
                if let Some(slot) = fact.get_mut(local.0 as usize) {
                    *slot = v;
                }
            }
            Stmt::Identity { local, .. } => {
                if let Some(slot) = fact.get_mut(local.0 as usize) {
                    *slot = CVal::NonConst;
                }
            }
            _ => {}
        }
    }
}

/// The constant-propagation solution of one body.
#[derive(Debug, Clone)]
pub struct ConstProp {
    solution: Solution<Env>,
}

impl ConstProp {
    /// Computes constant propagation for `body`.
    pub fn compute(body: &Body, cfg: &Cfg) -> ConstProp {
        let analysis = CpAnalysis {
            n_locals: body.locals.len(),
        };
        ConstProp {
            solution: solve(body, cfg, &analysis),
        }
    }

    /// Returns the value of `local` just before `at`.
    pub fn value_before(&self, at: StmtId, local: LocalId) -> CVal {
        self.solution
            .before(at)
            .get(local.0 as usize)
            .copied()
            .unwrap_or(CVal::NonConst)
    }

    /// Evaluates an operand at the point just before `at`.
    pub fn operand_value(&self, at: StmtId, op: Operand) -> CVal {
        eval_operand(self.solution.before(at), op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_ir::body::LocalDecl;

    fn locals(n: usize) -> Vec<LocalDecl> {
        vec![LocalDecl { ty: None }; n]
    }

    #[test]
    fn constants_flow_through_copies_and_arith() {
        // 0: v0 = 2
        // 1: v1 = v0
        // 2: v2 = v1 + 3
        // 3: return v2
        let body = Body {
            locals: locals(3),
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(2)),
                },
                Stmt::Assign {
                    local: LocalId(1),
                    rvalue: Rvalue::Use(Operand::Local(LocalId(0))),
                },
                Stmt::Assign {
                    local: LocalId(2),
                    rvalue: Rvalue::BinOp {
                        op: nck_dex::BinOp::Add,
                        a: Operand::Local(LocalId(1)),
                        b: Operand::IntConst(3),
                    },
                },
                Stmt::Return {
                    value: Some(Operand::Local(LocalId(2))),
                },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let cp = ConstProp::compute(&body, &cfg);
        assert_eq!(cp.value_before(StmtId(3), LocalId(2)), CVal::Int(5));
    }

    #[test]
    fn conflicting_paths_are_nonconst() {
        // 0: if -> 2
        // 1: v0 = 1 (fallthrough arm)
        // 2: v0 = 2 (target arm overwrites on one path only when coming via 0)
        // 3: return v0
        // Path A: 0->1->2->3 (v0=2), path B: 0->2->3 (v0=2)... make a real
        // conflict: 0:if->3 means skip def at 2.
        let body = Body {
            locals: locals(1),
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(1)),
                },
                Stmt::If {
                    cond: nck_dex::CondOp::Eq,
                    a: Operand::Local(LocalId(0)),
                    b: Operand::IntConst(0),
                    target: StmtId(3),
                },
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(2)),
                },
                Stmt::Return {
                    value: Some(Operand::Local(LocalId(0))),
                },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let cp = ConstProp::compute(&body, &cfg);
        assert_eq!(cp.value_before(StmtId(3), LocalId(0)), CVal::NonConst);
        assert_eq!(cp.value_before(StmtId(2), LocalId(0)), CVal::Int(1));
    }

    #[test]
    fn division_by_zero_is_nonconst() {
        let body = Body {
            locals: locals(1),
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::BinOp {
                        op: nck_dex::BinOp::Div,
                        a: Operand::IntConst(1),
                        b: Operand::IntConst(0),
                    },
                },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let cp = ConstProp::compute(&body, &cfg);
        assert_eq!(cp.value_before(StmtId(1), LocalId(0)), CVal::NonConst);
    }

    #[test]
    fn identity_parameters_are_nonconst() {
        let body = Body {
            locals: locals(1),
            stmts: vec![
                Stmt::Identity {
                    local: LocalId(0),
                    kind: nck_ir::body::IdentityKind::Param(0),
                },
                Stmt::Return {
                    value: Some(Operand::Local(LocalId(0))),
                },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let cp = ConstProp::compute(&body, &cfg);
        assert_eq!(cp.value_before(StmtId(1), LocalId(0)), CVal::NonConst);
    }
}
