//! Classic backward live-variable analysis.

use crate::bitset::BitSet;
use crate::solver::{solve, Analysis, Direction, Solution};
use nck_ir::body::{Body, LocalId, Stmt, StmtId};
use nck_ir::cfg::Cfg;

struct LiveAnalysis {
    n_locals: usize,
}

impl Analysis for LiveAnalysis {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.n_locals)
    }

    fn join(&self, fact: &mut BitSet, other: &BitSet) -> bool {
        fact.union_with(other)
    }

    fn transfer(&self, _id: StmtId, stmt: &Stmt, fact: &mut BitSet) {
        if let Some(d) = stmt.def() {
            fact.remove(d.0 as usize);
        }
        stmt.for_each_use(|u| {
            fact.insert(u.0 as usize);
        });
    }
}

/// The liveness solution of one body.
#[derive(Debug, Clone)]
pub struct Liveness {
    solution: Solution<BitSet>,
}

impl Liveness {
    /// Computes live variables for `body`.
    pub fn compute(body: &Body, cfg: &Cfg) -> Liveness {
        let analysis = LiveAnalysis {
            n_locals: body.locals.len(),
        };
        Liveness {
            solution: solve(body, cfg, &analysis),
        }
    }

    /// Returns `true` when `local` is live just before `at`.
    pub fn live_before(&self, at: StmtId, local: LocalId) -> bool {
        self.solution.before(at).contains(local.0 as usize)
    }

    /// Returns `true` when `local` is live just after `at`.
    pub fn live_after(&self, at: StmtId, local: LocalId) -> bool {
        self.solution.after(at).contains(local.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_ir::body::{LocalDecl, Operand, Rvalue};

    #[test]
    fn dead_store_is_not_live() {
        // 0: v0 = 1   (dead: overwritten before use)
        // 1: v0 = 2
        // 2: return v0
        let body = Body {
            locals: vec![LocalDecl { ty: None }],
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(1)),
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
        let live = Liveness::compute(&body, &cfg);
        assert!(!live.live_before(StmtId(1), LocalId(0)));
        assert!(live.live_after(StmtId(1), LocalId(0)));
        assert!(live.live_before(StmtId(2), LocalId(0)));
    }

    #[test]
    fn loop_carried_liveness() {
        // 0: v0 = 0
        // 1: v1 = v0 + 1
        // 2: if -> 1
        // 3: return v1
        let body = Body {
            locals: vec![LocalDecl { ty: None }, LocalDecl { ty: None }],
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(0)),
                },
                Stmt::Assign {
                    local: LocalId(1),
                    rvalue: Rvalue::BinOp {
                        op: nck_dex::BinOp::Add,
                        a: Operand::Local(LocalId(0)),
                        b: Operand::IntConst(1),
                    },
                },
                Stmt::If {
                    cond: nck_dex::CondOp::Eq,
                    a: Operand::Local(LocalId(1)),
                    b: Operand::IntConst(0),
                    target: StmtId(1),
                },
                Stmt::Return {
                    value: Some(Operand::Local(LocalId(1))),
                },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let live = Liveness::compute(&body, &cfg);
        // v0 stays live around the loop back edge.
        assert!(live.live_before(StmtId(1), LocalId(0)));
        assert!(live.live_after(StmtId(2), LocalId(0)));
    }
}
