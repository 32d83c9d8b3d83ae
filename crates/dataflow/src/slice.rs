//! Intra-procedural backward slicing over data and control dependences.
//!
//! NChecker uses backward slices to decide whether a loop-exit condition
//! depends (directly or transitively) on statements inside a catch block
//! (§4.5, Figure 6(c)/(d)).

use crate::ctrldep::ControlDeps;
use crate::reachdefs::ReachingDefs;
use nck_ir::body::{Body, Stmt, StmtId};
use std::collections::BTreeSet;

/// What the slice follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// Data dependences only.
    Data,
    /// Data and control dependences.
    Full,
}

/// Computes the backward slice of `criterion` within one body.
///
/// The returned set contains the criterion itself plus every statement it
/// transitively depends on.
pub fn backward_slice(
    body: &Body,
    rd: &ReachingDefs,
    cd: &ControlDeps,
    criterion: StmtId,
    kind: SliceKind,
) -> BTreeSet<StmtId> {
    let mut slice = BTreeSet::new();
    let mut work = vec![criterion];
    while let Some(s) = work.pop() {
        if !slice.insert(s) {
            continue;
        }
        // Data dependences: the reaching definitions of every used local.
        for local in body.stmt(s).uses() {
            for def in rd.reaching(s, local) {
                if !slice.contains(&def) {
                    work.push(def);
                }
            }
        }
        // For a definition coming from a caught exception or parameter
        // there is nothing further intra-procedurally.
        if kind == SliceKind::Full {
            for &dep in cd.deps_of(s) {
                if !slice.contains(&dep) {
                    work.push(dep);
                }
            }
        }
    }
    slice
}

/// Returns `true` when the backward slice of `criterion` intersects
/// `region` (typically the statements of a catch block).
pub fn slice_reaches(
    body: &Body,
    rd: &ReachingDefs,
    cd: &ControlDeps,
    criterion: StmtId,
    region: &BTreeSet<StmtId>,
    kind: SliceKind,
) -> bool {
    // Early exit during the walk instead of materializing the whole slice.
    let mut seen = BTreeSet::new();
    let mut work = vec![criterion];
    while let Some(s) = work.pop() {
        if !seen.insert(s) {
            continue;
        }
        if s != criterion && region.contains(&s) {
            return true;
        }
        for local in body.stmt(s).uses() {
            for def in rd.reaching(s, local) {
                if !seen.contains(&def) {
                    work.push(def);
                }
            }
        }
        if kind == SliceKind::Full {
            for &dep in cd.deps_of(s) {
                if !seen.contains(&dep) {
                    work.push(dep);
                }
            }
        }
    }
    false
}

/// Returns the statements of `body` that are [`Stmt::Identity`] caught-
/// exception bindings — handler entries, useful as slice regions.
pub fn handler_entries(body: &Body) -> Vec<StmtId> {
    body.iter()
        .filter(|(_, s)| {
            matches!(
                s,
                Stmt::Identity {
                    kind: nck_ir::body::IdentityKind::CaughtException,
                    ..
                }
            )
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrldep::ControlDeps;
    use crate::reachdefs::ReachingDefs;
    use nck_dex::CondOp;
    use nck_ir::body::{LocalDecl, LocalId, Operand, Rvalue};
    use nck_ir::cfg::Cfg;
    use nck_ir::dom::post_dominators;

    fn analyze(body: &Body) -> (Cfg, ReachingDefs, ControlDeps) {
        let cfg = Cfg::build(body);
        let rd = ReachingDefs::compute(body, &cfg);
        let pdom = post_dominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pdom);
        (cfg, rd, cd)
    }

    #[test]
    fn data_slice_follows_def_chains() {
        // 0: v0 = 1
        // 1: v1 = v0 + 2
        // 2: v2 = 9        (irrelevant)
        // 3: return v1
        let body = Body {
            locals: vec![LocalDecl { ty: None }; 3],
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(1)),
                },
                Stmt::Assign {
                    local: LocalId(1),
                    rvalue: Rvalue::BinOp {
                        op: nck_dex::BinOp::Add,
                        a: Operand::Local(LocalId(0)),
                        b: Operand::IntConst(2),
                    },
                },
                Stmt::Assign {
                    local: LocalId(2),
                    rvalue: Rvalue::Use(Operand::IntConst(9)),
                },
                Stmt::Return {
                    value: Some(Operand::Local(LocalId(1))),
                },
            ],
            traps: vec![],
        };
        let (_, rd, cd) = analyze(&body);
        let slice = backward_slice(&body, &rd, &cd, StmtId(3), SliceKind::Data);
        assert!(slice.contains(&StmtId(0)));
        assert!(slice.contains(&StmtId(1)));
        assert!(!slice.contains(&StmtId(2)));
    }

    #[test]
    fn full_slice_includes_controlling_branches() {
        // 0: v0 = 1
        // 1: if v0 -> 3
        // 2: v1 = 5        (controlled by 1)
        // 3: return
        let body = Body {
            locals: vec![LocalDecl { ty: None }; 2],
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(1)),
                },
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::Local(LocalId(0)),
                    b: Operand::IntConst(0),
                    target: StmtId(3),
                },
                Stmt::Assign {
                    local: LocalId(1),
                    rvalue: Rvalue::Use(Operand::IntConst(5)),
                },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let (_, rd, cd) = analyze(&body);
        let data = backward_slice(&body, &rd, &cd, StmtId(2), SliceKind::Data);
        assert!(!data.contains(&StmtId(1)));
        let full = backward_slice(&body, &rd, &cd, StmtId(2), SliceKind::Full);
        assert!(full.contains(&StmtId(1)));
        assert!(full.contains(&StmtId(0))); // Via the branch's use of v0.
    }

    #[test]
    fn slice_reaches_detects_catch_dependency() {
        // Models: retry = shouldRetry() in catch; while cond uses retry.
        // 0: v0 = 1                (retry = true)
        // 1: if v0 == 0 -> 5       (loop exit condition)
        // 2: invoke send (try, handler 3)
        // 3: v0 = 0                ("catch": retry = false)
        // 4: goto 1
        // 5: return
        let mut p = nck_ir::Program::new();
        let key = nck_ir::MethodKey {
            class: p.symbols.intern("La/B;"),
            name: p.symbols.intern("send"),
            sig: p.symbols.intern("()V"),
        };
        let body = Body {
            locals: vec![LocalDecl { ty: None }],
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(1)),
                },
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::Local(LocalId(0)),
                    b: Operand::IntConst(0),
                    target: StmtId(5),
                },
                Stmt::Invoke(nck_ir::InvokeExpr {
                    kind: nck_dex::InvokeKind::Static,
                    callee: key,
                    args: vec![],
                }),
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(0)),
                },
                Stmt::Goto { target: StmtId(1) },
                Stmt::Return { value: None },
            ],
            traps: vec![nck_ir::Trap {
                start: StmtId(2),
                end: StmtId(3),
                exception: None,
                handler: StmtId(3),
            }],
        };
        let (_, rd, cd) = analyze(&body);
        let catch_region: BTreeSet<StmtId> = [StmtId(3)].into();
        assert!(slice_reaches(
            &body,
            &rd,
            &cd,
            StmtId(1),
            &catch_region,
            SliceKind::Data
        ));
        // A criterion with no connection to the catch does not reach it.
        let unrelated: BTreeSet<StmtId> = [StmtId(0)].into();
        assert!(!slice_reaches(
            &body,
            &rd,
            &cd,
            StmtId(0),
            &unrelated,
            SliceKind::Data
        ));
    }
}
