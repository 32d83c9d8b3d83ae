//! Control dependence via post-dominators (Ferrante–Ottenstein–Warren).
//!
//! Statement `s` is control-dependent on `b` when `b` has a successor
//! from which `s` is always reached (s post-dominates it) and another from
//! which it can be avoided. Exceptional edges participate, so catch-block
//! statements come out control-dependent on the statements that can throw
//! into them — which is exactly what the retry-loop rules of §4.5 need.

use nck_ir::body::StmtId;
use nck_ir::cfg::Cfg;
use nck_ir::dom::DomTree;

/// Control-dependence relation: `deps[s]` lists the statements `s` is
/// control-dependent on.
#[derive(Debug, Clone)]
pub struct ControlDeps {
    deps: Vec<Vec<StmtId>>,
}

impl ControlDeps {
    /// Computes control dependences of every statement in `cfg` given its
    /// post-dominator tree.
    pub fn compute(cfg: &Cfg, pdom: &DomTree) -> ControlDeps {
        let mut deps: Vec<Vec<StmtId>> = vec![Vec::new(); cfg.len];

        for i in 0..cfg.len {
            let a = StmtId(i as u32);
            if !pdom.is_reachable(a) {
                continue;
            }
            let ipdom_a = pdom.idom(a);
            // succ_iter may yield a target twice (on both the normal and
            // exceptional lists); the walk just repeats and the final
            // sort+dedup absorbs it.
            for b in cfg.succ_iter(a) {
                if Some(b) == ipdom_a {
                    continue;
                }
                // Walk b up the post-dominator tree to (but excluding)
                // ipdom(a); every node on the way is control-dependent
                // on a.
                let mut v = b;
                loop {
                    if Some(v) == ipdom_a || !pdom.is_reachable(v) {
                        break;
                    }
                    if v.index() < cfg.len {
                        deps[v.index()].push(a);
                    }
                    match pdom.idom(v) {
                        Some(next) => v = next,
                        None => break,
                    }
                }
            }
        }

        for d in &mut deps {
            d.sort_unstable();
            d.dedup();
        }
        ControlDeps { deps }
    }

    /// Returns the statements `s` is control-dependent on.
    pub fn deps_of(&self, s: StmtId) -> &[StmtId] {
        &self.deps[s.index()]
    }

    /// Returns `true` when `s` is (directly) control-dependent on `on`.
    pub fn depends_on(&self, s: StmtId, on: StmtId) -> bool {
        self.deps[s.index()].contains(&on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::CondOp;
    use nck_ir::body::{Body, InvokeExpr, Operand, Program, Stmt, Trap};
    use nck_ir::dom::post_dominators;

    #[test]
    fn branch_arms_depend_on_the_branch() {
        // 0: if -> 2
        // 1: nop (then arm)
        // 2: nop (join)
        // 3: return
        let body = Body {
            locals: vec![],
            stmts: vec![
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(2),
                },
                Stmt::Nop,
                Stmt::Nop,
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let pdom = post_dominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pdom);
        assert!(cd.depends_on(StmtId(1), StmtId(0)));
        assert!(!cd.depends_on(StmtId(2), StmtId(0)));
        assert!(!cd.depends_on(StmtId(3), StmtId(0)));
    }

    #[test]
    fn catch_block_depends_on_throwing_call() {
        // 0: invoke (try, handler 2)
        // 1: return
        // 2: identity caught (handler)
        // 3: return
        let mut p = Program::new();
        let key = nck_ir::MethodKey {
            class: p.symbols.intern("La/B;"),
            name: p.symbols.intern("send"),
            sig: p.symbols.intern("()V"),
        };
        let body = Body {
            locals: vec![nck_ir::LocalDecl { ty: None }],
            stmts: vec![
                Stmt::Invoke(InvokeExpr {
                    kind: nck_dex::InvokeKind::Static,
                    callee: key,
                    args: vec![],
                }),
                Stmt::Return { value: None },
                Stmt::Identity {
                    local: nck_ir::LocalId(0),
                    kind: nck_ir::IdentityKind::CaughtException,
                },
                Stmt::Return { value: None },
            ],
            traps: vec![Trap {
                start: StmtId(0),
                end: StmtId(1),
                exception: None,
                handler: StmtId(2),
            }],
        };
        let cfg = Cfg::build(&body);
        let pdom = post_dominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pdom);
        assert!(cd.depends_on(StmtId(2), StmtId(0)));
        assert!(cd.depends_on(StmtId(3), StmtId(0)));
        assert!(cd.depends_on(StmtId(1), StmtId(0)));
    }

    #[test]
    fn loop_body_depends_on_loop_condition() {
        // 0: nop header
        // 1: if -> 4 (exit)
        // 2: nop body
        // 3: goto 0
        // 4: return
        let body = Body {
            locals: vec![],
            stmts: vec![
                Stmt::Nop,
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(4),
                },
                Stmt::Nop,
                Stmt::Goto { target: StmtId(0) },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let pdom = post_dominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pdom);
        assert!(cd.depends_on(StmtId(2), StmtId(1)));
        // The header itself re-executes only if the branch falls through.
        assert!(cd.depends_on(StmtId(0), StmtId(1)));
        assert!(!cd.depends_on(StmtId(4), StmtId(1)));
    }
}
