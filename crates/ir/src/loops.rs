//! Natural loop detection, the substrate of NChecker's customized-retry
//! identification (§4.5 of the paper).
//!
//! A back edge is an edge `u → h` where `h` dominates `u`; the natural
//! loop of `h` is everything that can reach `u` without passing through
//! `h`. Loops sharing a header are merged. Exceptional edges participate:
//! a retry loop's body includes its catch handler, which rejoins the
//! header via a normal edge.

use crate::body::{Body, Stmt, StmtId};
use crate::cfg::Cfg;
use crate::dom::DomTree;
use std::collections::BTreeSet;

/// One exit edge of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopExit {
    /// The in-loop statement the edge leaves from.
    pub from: StmtId,
    /// The out-of-loop target; `None` means the method exit (a `return` or
    /// uncaught `throw` inside the loop).
    pub to: Option<StmtId>,
    /// `true` when `from` is a conditional branch (`if`/`switch`), `false`
    /// for unconditional exits (`return`, `throw`, `goto` out).
    pub conditional: bool,
}

/// A natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: StmtId,
    /// All statements in the loop, including the header.
    pub body: BTreeSet<StmtId>,
    /// Sources of the back edges into the header.
    pub back_edges: Vec<StmtId>,
}

impl NaturalLoop {
    /// Returns `true` when `s` belongs to the loop.
    pub fn contains(&self, s: StmtId) -> bool {
        self.body.contains(&s)
    }

    /// Computes the exit edges of this loop.
    pub fn exits(&self, body: &Body, cfg: &Cfg) -> Vec<LoopExit> {
        let mut out = Vec::new();
        for &s in &self.body {
            let stmt = body.stmt(s);
            let conditional = matches!(stmt, Stmt::If { .. } | Stmt::Switch { .. });
            for t in cfg.succs(s, true) {
                if t == cfg.exit() {
                    out.push(LoopExit {
                        from: s,
                        to: None,
                        conditional,
                    });
                } else if !self.contains(t) {
                    out.push(LoopExit {
                        from: s,
                        to: Some(t),
                        conditional,
                    });
                }
            }
        }
        out.sort_by_key(|e| (e.from, e.to.map(|t| t.0)));
        out.dedup();
        out
    }
}

/// Finds all natural loops of `body`, merging loops that share a header.
///
/// Loops are returned in ascending header order.
pub fn natural_loops(cfg: &Cfg, doms: &DomTree) -> Vec<NaturalLoop> {
    use std::collections::BTreeMap;
    let mut by_header: BTreeMap<StmtId, NaturalLoop> = BTreeMap::new();

    for i in 0..cfg.len {
        let u = StmtId(i as u32);
        if !doms.is_reachable(u) {
            continue;
        }
        for h in cfg.succs(u, false) {
            if !doms.dominates(h, u) {
                continue;
            }
            // Back edge u -> h: collect the natural loop.
            let entry = by_header.entry(h).or_insert_with(|| NaturalLoop {
                header: h,
                body: BTreeSet::from([h]),
                back_edges: Vec::new(),
            });
            entry.back_edges.push(u);
            let mut stack = vec![u];
            while let Some(s) = stack.pop() {
                if entry.body.insert(s) {
                    for &p in &cfg.preds[s.index()] {
                        if !entry.body.contains(&p) {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }

    by_header
        .into_values()
        .map(|mut l| {
            l.back_edges.sort_unstable();
            l.back_edges.dedup();
            l
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{Body, Operand, Stmt};
    use crate::dom::dominators;
    use nck_dex::CondOp;

    fn simple_loop() -> Body {
        // 0: nop (header)
        // 1: if -> 3 (conditional exit)
        // 2: goto 0 (latch)
        // 3: return
        Body {
            locals: vec![],
            stmts: vec![
                Stmt::Nop,
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(3),
                },
                Stmt::Goto { target: StmtId(0) },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        }
    }

    #[test]
    fn finds_single_loop() {
        let b = simple_loop();
        let cfg = Cfg::build(&b);
        let doms = dominators(&cfg);
        let loops = natural_loops(&cfg, &doms);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, StmtId(0));
        assert_eq!(
            l.body.iter().copied().collect::<Vec<_>>(),
            vec![StmtId(0), StmtId(1), StmtId(2)]
        );
        assert_eq!(l.back_edges, vec![StmtId(2)]);
    }

    #[test]
    fn loop_exits_are_classified() {
        let b = simple_loop();
        let cfg = Cfg::build(&b);
        let doms = dominators(&cfg);
        let loops = natural_loops(&cfg, &doms);
        let exits = loops[0].exits(&b, &cfg);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].from, StmtId(1));
        assert_eq!(exits[0].to, Some(StmtId(3)));
        assert!(exits[0].conditional);
    }

    #[test]
    fn return_inside_loop_is_unconditional_exit() {
        // 0: header nop
        // 1: if -> 3
        // 2: goto 0
        // 3: return   <- target of exit, but also:
        // Replace 2 with a return to model exit-by-return in the loop.
        let b = Body {
            locals: vec![],
            stmts: vec![
                Stmt::Nop,
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(0),
                },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&b);
        let doms = dominators(&cfg);
        let loops = natural_loops(&cfg, &doms);
        assert_eq!(loops.len(), 1);
        let exits = loops[0].exits(&b, &cfg);
        // Exit via fallthrough of the if to stmt 2 (outside the loop).
        assert!(exits
            .iter()
            .any(|e| e.from == StmtId(1) && e.to == Some(StmtId(2))));
    }

    #[test]
    fn nested_loops_share_nothing() {
        // Outer: 0..5, inner 1..3.
        // 0: nop (outer header)
        // 1: nop (inner header)
        // 2: if -> 1 (inner latch, conditional)
        // 3: if -> 0 (outer latch, conditional)
        // 4: return
        let b = Body {
            locals: vec![],
            stmts: vec![
                Stmt::Nop,
                Stmt::Nop,
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(1),
                },
                Stmt::If {
                    cond: CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(0),
                },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&b);
        let doms = dominators(&cfg);
        let loops = natural_loops(&cfg, &doms);
        assert_eq!(loops.len(), 2);
        let outer = loops.iter().find(|l| l.header == StmtId(0)).unwrap();
        let inner = loops.iter().find(|l| l.header == StmtId(1)).unwrap();
        assert!(outer.body.len() > inner.body.len());
        assert!(inner.body.iter().all(|s| outer.contains(*s)));
    }

    #[test]
    fn loop_through_catch_handler_is_detected() {
        // Models: while(true) { try { call(); return; } catch { } }
        // 0: invoke (in try, handler=2)
        // 1: return
        // 2: identity caught
        // 3: goto 0
        let mut p = crate::body::Program::new();
        let key = crate::body::MethodKey {
            class: p.symbols.intern("La/B;"),
            name: p.symbols.intern("send"),
            sig: p.symbols.intern("()V"),
        };
        let b = Body {
            locals: vec![crate::body::LocalDecl { ty: None }],
            stmts: vec![
                Stmt::Invoke(crate::body::InvokeExpr {
                    kind: nck_dex::InvokeKind::Static,
                    callee: key,
                    args: vec![],
                }),
                Stmt::Return { value: None },
                Stmt::Identity {
                    local: crate::body::LocalId(0),
                    kind: crate::body::IdentityKind::CaughtException,
                },
                Stmt::Goto { target: StmtId(0) },
            ],
            traps: vec![crate::body::Trap {
                start: StmtId(0),
                end: StmtId(1),
                exception: None,
                handler: StmtId(2),
            }],
        };
        let cfg = Cfg::build(&b);
        let doms = dominators(&cfg);
        let loops = natural_loops(&cfg, &doms);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, StmtId(0));
        // The catch handler is part of the loop body.
        assert!(l.contains(StmtId(2)));
        assert!(l.contains(StmtId(3)));
        // The loop is left unconditionally via the call's normal successor
        // (the return statement), which only executes when `send` does not
        // throw — the "unconditional exit depends on request success" shape
        // of Figure 6(b).
        let exits = l.exits(&b, &cfg);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].from, StmtId(0));
        assert_eq!(exits[0].to, Some(StmtId(1)));
        assert!(!exits[0].conditional);
    }
}
