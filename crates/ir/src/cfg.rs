//! Statement-level control-flow graphs with explicit exceptional edges.
//!
//! CFG nodes are statement ids; an extra *virtual exit* node (index
//! `body.len()`) is the target of every return and uncaught throw so that
//! post-dominance is well defined.

use crate::body::{Body, Stmt, StmtId};
use std::sync::OnceLock;

/// A statement-level CFG.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Normal successors per statement.
    pub normal_succs: Vec<Vec<StmtId>>,
    /// Exceptional successors (handler entries) per statement.
    pub exc_succs: Vec<Vec<StmtId>>,
    /// Predecessors per node (statements plus the virtual exit), combined
    /// over both edge kinds.
    pub preds: Vec<Vec<StmtId>>,
    /// Number of real statements (the virtual exit is node `len`).
    pub len: usize,
    /// Cached reverse-postorder enumeration of reachable statements,
    /// computed once at construction (the solver consults it on every
    /// `solve`, several times per method).
    rpo: Vec<StmtId>,
    /// Lazily cached solver priority (see [`Cfg::solve_priority`]).
    priority: OnceLock<(Vec<u32>, Vec<u32>)>,
}

impl Cfg {
    /// The virtual exit node id.
    pub fn exit(&self) -> StmtId {
        StmtId(self.len as u32)
    }

    /// Builds the CFG of `body`.
    pub fn build(body: &Body) -> Cfg {
        let n = body.len();
        let mut normal_succs: Vec<Vec<StmtId>> = vec![Vec::new(); n];
        let mut exc_succs: Vec<Vec<StmtId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<StmtId>> = vec![Vec::new(); n + 1];

        for (id, stmt) in body.iter() {
            let i = id.index();
            match stmt {
                Stmt::Goto { target } => normal_succs[i].push(*target),
                Stmt::If { target, .. } => {
                    if i + 1 < n {
                        normal_succs[i].push(StmtId((i + 1) as u32));
                    }
                    normal_succs[i].push(*target);
                }
                Stmt::Switch { arms, .. } => {
                    if i + 1 < n {
                        normal_succs[i].push(StmtId((i + 1) as u32));
                    }
                    for &(_, t) in arms {
                        normal_succs[i].push(t);
                    }
                }
                Stmt::Return { .. } => normal_succs[i].push(StmtId(n as u32)),
                Stmt::Throw { .. } => {
                    // Handled below via the exceptional machinery; a throw
                    // with no covering trap goes straight to the exit.
                }
                _ => {
                    if i + 1 < n {
                        normal_succs[i].push(StmtId((i + 1) as u32));
                    }
                }
            }

            if stmt.can_throw() {
                // All matching handlers are possible targets: exception
                // types are not statically known, so every covering
                // clause gets an edge (sound over-approximation).
                let mut catch_all = false;
                for t in body.traps_at(id) {
                    exc_succs[i].push(t.handler);
                    catch_all |= t.exception.is_none();
                }
                // The exception may also be of a type no clause catches
                // (or there is no covering trap at all), unless some
                // clause is a catch-all.
                if !catch_all {
                    exc_succs[i].push(StmtId(n as u32));
                }
            }

            // Dedup successor lists (switch arms may repeat targets).
            normal_succs[i].sort_unstable();
            normal_succs[i].dedup();
            exc_succs[i].sort_unstable();
            exc_succs[i].dedup();
        }

        for i in 0..n {
            let from = StmtId(i as u32);
            for &t in normal_succs[i].iter().chain(exc_succs[i].iter()) {
                preds[t.index()].push(from);
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }

        let rpo = compute_rpo(&normal_succs, &exc_succs, n);
        Cfg {
            normal_succs,
            exc_succs,
            preds,
            len: n,
            rpo,
            priority: OnceLock::new(),
        }
    }

    /// Returns a copy of this CFG with the exceptional edges removed —
    /// the graph on which "is X a control condition of Y" questions make
    /// sense (every possibly-throwing call otherwise controls everything
    /// after it).
    pub fn normal_only(&self) -> Cfg {
        let mut preds: Vec<Vec<StmtId>> = vec![Vec::new(); self.len + 1];
        for (i, succs) in self.normal_succs.iter().enumerate() {
            for &t in succs {
                preds[t.index()].push(StmtId(i as u32));
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        let exc_succs = vec![Vec::new(); self.len];
        let rpo = compute_rpo(&self.normal_succs, &exc_succs, self.len);
        Cfg {
            normal_succs: self.normal_succs.clone(),
            exc_succs,
            preds,
            len: self.len,
            rpo,
            priority: OnceLock::new(),
        }
    }

    /// Iterates all successors (normal then exceptional) of `s`, excluding
    /// the virtual exit when `include_exit` is false.
    pub fn succs(&self, s: StmtId, include_exit: bool) -> Vec<StmtId> {
        let mut out: Vec<StmtId> = self.normal_succs[s.index()]
            .iter()
            .chain(self.exc_succs[s.index()].iter())
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        if !include_exit {
            out.retain(|t| t.index() < self.len);
        }
        out
    }

    /// Iterates all successors of `s` (normal then exceptional, virtual
    /// exit included) without allocating. Unlike [`Cfg::succs`] the two
    /// per-kind lists are chained rather than merged, so a target on both
    /// lists appears twice; callers that care must tolerate duplicates.
    pub fn succ_iter(&self, s: StmtId) -> impl Iterator<Item = StmtId> + '_ {
        self.normal_succs[s.index()]
            .iter()
            .chain(self.exc_succs[s.index()].iter())
            .copied()
    }

    /// Returns the statements reachable from the entry over all edges.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len];
        if self.len == 0 {
            return seen;
        }
        let mut stack = vec![StmtId(0)];
        seen[0] = true;
        while let Some(s) = stack.pop() {
            for t in self.succ_iter(s) {
                if t.index() < self.len && !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// Returns the reverse-postorder enumeration of reachable statements
    /// (over all edges, ignoring the virtual exit), cached at build time.
    pub fn reverse_postorder(&self) -> &[StmtId] {
        &self.rpo
    }

    /// Solver visit priority: `order` lists statement indices in visit
    /// order (reverse-postorder, with unreachable statements appended in
    /// index order), and `rank` is the inverse permutation (statement
    /// index → position in `order`). Computed on first use and cached for
    /// the lifetime of the CFG, so repeated solves over the same method
    /// pay nothing.
    pub fn solve_priority(&self) -> (&[u32], &[u32]) {
        let (order, rank) = self.priority.get_or_init(|| {
            let n = self.len;
            let mut order: Vec<u32> = Vec::with_capacity(n);
            order.extend(self.rpo.iter().map(|s| s.0));
            let mut rank = vec![u32::MAX; n];
            for (r, &s) in order.iter().enumerate() {
                rank[s as usize] = r as u32;
            }
            // Unreachable statements go last, in index order, so every
            // statement still gets visited (their facts stay bottom but
            // downstream code may index them).
            for i in 0..n as u32 {
                if rank[i as usize] == u32::MAX {
                    rank[i as usize] = order.len() as u32;
                    order.push(i);
                }
            }
            (order, rank)
        });
        (order, rank)
    }

    /// Returns `true` when some edge points backwards (or self-loops) in
    /// statement-index order. A CFG without such an edge is a DAG, so it
    /// cannot contain loops of any kind — the cheap pre-filter natural
    /// loop detection uses to skip dominator computation entirely.
    pub fn has_backward_edge(&self) -> bool {
        (0..self.len).any(|i| {
            self.succ_iter(StmtId(i as u32))
                .any(|t| t.index() <= i && t.index() < self.len)
        })
    }
}

/// Reverse-postorder DFS over the given edge lists. Each frame walks the
/// statement's normal list then its exceptional list by index, so no
/// successor vector is ever materialized.
fn compute_rpo(normal_succs: &[Vec<StmtId>], exc_succs: &[Vec<StmtId>], len: usize) -> Vec<StmtId> {
    let mut visited = vec![false; len];
    let mut order = Vec::with_capacity(len);
    if len == 0 {
        return order;
    }
    let mut stack: Vec<(StmtId, usize)> = vec![(StmtId(0), 0)];
    visited[0] = true;
    while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
        let normal = &normal_succs[node.index()];
        let exc = &exc_succs[node.index()];
        let next = if *idx < normal.len() {
            Some(normal[*idx])
        } else {
            exc.get(*idx - normal.len()).copied()
        };
        match next {
            Some(next) => {
                *idx += 1;
                if next.index() < len && !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            }
            None => {
                order.push(node);
                stack.pop();
            }
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{Operand, Stmt, Trap};

    fn body_of(stmts: Vec<Stmt>, traps: Vec<Trap>) -> Body {
        Body {
            locals: vec![],
            stmts,
            traps,
        }
    }

    #[test]
    fn straightline_chains() {
        let b = body_of(
            vec![Stmt::Nop, Stmt::Nop, Stmt::Return { value: None }],
            vec![],
        );
        let cfg = Cfg::build(&b);
        assert_eq!(cfg.normal_succs[0], vec![StmtId(1)]);
        assert_eq!(cfg.normal_succs[1], vec![StmtId(2)]);
        assert_eq!(cfg.normal_succs[2], vec![cfg.exit()]);
        assert_eq!(cfg.preds[1], vec![StmtId(0)]);
    }

    #[test]
    fn if_has_two_successors() {
        let b = body_of(
            vec![
                Stmt::If {
                    cond: nck_dex::CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(2),
                },
                Stmt::Nop,
                Stmt::Return { value: None },
            ],
            vec![],
        );
        let cfg = Cfg::build(&b);
        assert_eq!(cfg.normal_succs[0], vec![StmtId(1), StmtId(2)]);
    }

    #[test]
    fn uncaught_throw_goes_to_exit() {
        let b = body_of(
            vec![Stmt::Throw {
                value: Operand::Null,
            }],
            vec![],
        );
        let cfg = Cfg::build(&b);
        assert!(cfg.normal_succs[0].is_empty());
        assert_eq!(cfg.exc_succs[0], vec![cfg.exit()]);
    }

    #[test]
    fn trapped_call_gets_handler_edge_and_escape_edge() {
        let mut p = crate::body::Program::new();
        let key = crate::body::MethodKey {
            class: p.symbols.intern("La/B;"),
            name: p.symbols.intern("f"),
            sig: p.symbols.intern("()V"),
        };
        let io = p.symbols.intern("Ljava/io/IOException;");
        let b = body_of(
            vec![
                Stmt::Invoke(crate::body::InvokeExpr {
                    kind: nck_dex::InvokeKind::Static,
                    callee: key,
                    args: vec![],
                }),
                Stmt::Return { value: None },
                Stmt::Nop,
                Stmt::Return { value: None },
            ],
            vec![Trap {
                start: StmtId(0),
                end: StmtId(1),
                exception: Some(io),
                handler: StmtId(2),
            }],
        );
        let cfg = Cfg::build(&b);
        // Typed handler: edge to handler plus escape edge to exit.
        assert_eq!(cfg.exc_succs[0], vec![StmtId(2), cfg.exit()]);
        assert_eq!(cfg.normal_succs[0], vec![StmtId(1)]);
    }

    #[test]
    fn catch_all_suppresses_escape_edge() {
        let mut p = crate::body::Program::new();
        let key = crate::body::MethodKey {
            class: p.symbols.intern("La/B;"),
            name: p.symbols.intern("f"),
            sig: p.symbols.intern("()V"),
        };
        let b = body_of(
            vec![
                Stmt::Invoke(crate::body::InvokeExpr {
                    kind: nck_dex::InvokeKind::Static,
                    callee: key,
                    args: vec![],
                }),
                Stmt::Return { value: None },
                Stmt::Return { value: None },
            ],
            vec![Trap {
                start: StmtId(0),
                end: StmtId(1),
                exception: None,
                handler: StmtId(2),
            }],
        );
        let cfg = Cfg::build(&b);
        assert_eq!(cfg.exc_succs[0], vec![StmtId(2)]);
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let b = body_of(
            vec![
                Stmt::If {
                    cond: nck_dex::CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: StmtId(3),
                },
                Stmt::Nop,
                Stmt::Goto { target: StmtId(4) },
                Stmt::Nop,
                Stmt::Return { value: None },
            ],
            vec![],
        );
        let cfg = Cfg::build(&b);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], StmtId(0));
        assert_eq!(rpo.len(), 5);
    }

    #[test]
    fn unreachable_code_is_detected() {
        let b = body_of(
            vec![
                Stmt::Return { value: None },
                Stmt::Nop, // Dead.
                Stmt::Return { value: None },
            ],
            vec![],
        );
        let cfg = Cfg::build(&b);
        let reach = cfg.reachable();
        assert_eq!(reach, vec![true, false, false]);
    }
}
