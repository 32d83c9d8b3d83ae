//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy).
//!
//! Node space: statement ids `0..len` plus the virtual exit at index
//! `len`. Dominators are rooted at the entry statement; post-dominators at
//! the virtual exit.

use crate::body::StmtId;
use crate::cfg::Cfg;

/// An immediate-dominator tree over CFG nodes.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<u32>>,
    root: u32,
}

impl DomTree {
    /// The tree root (entry for dominators, virtual exit for
    /// post-dominators).
    pub fn root(&self) -> StmtId {
        StmtId(self.root)
    }

    /// Returns the immediate dominator of `node`, `None` for the root and
    /// for unreachable nodes.
    pub fn idom(&self, node: StmtId) -> Option<StmtId> {
        if node.0 == self.root {
            return None;
        }
        self.idom.get(node.index()).copied().flatten().map(StmtId)
    }

    /// Returns `true` when `node` is reachable from the root (and hence has
    /// dominator information).
    pub fn is_reachable(&self, node: StmtId) -> bool {
        node.0 == self.root || self.idom.get(node.index()).copied().flatten().is_some()
    }

    /// Returns `true` when `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: StmtId, b: StmtId) -> bool {
        if !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }
}

/// Computes immediate dominators of a graph given by successor lists.
fn compute_idoms(n: usize, root: usize, succs: &[Vec<usize>]) -> Vec<Option<u32>> {
    // Reverse postorder from the root.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    visited[root] = true;
    while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
        if *idx < succs[node].len() {
            let next = succs[node][*idx];
            *idx += 1;
            if !visited[next] {
                visited[next] = true;
                stack.push((next, 0));
            }
        } else {
            order.push(node);
            stack.pop();
        }
    }
    order.reverse();

    let mut rpo_num = vec![usize::MAX; n];
    for (i, &node) in order.iter().enumerate() {
        rpo_num[node] = i;
    }

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, ss) in succs.iter().enumerate() {
        if !visited[u] {
            continue;
        }
        for &v in ss {
            preds[v].push(u);
        }
    }

    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[root] = Some(root);

    let intersect = |idom: &[Option<usize>], rpo_num: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_num[a] > rpo_num[b] {
                a = idom[a].expect("processed node has idom");
            }
            while rpo_num[b] > rpo_num[a] {
                b = idom[b].expect("processed node has idom");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &node in order.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[node] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_num, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[node] != Some(ni) {
                    idom[node] = Some(ni);
                    changed = true;
                }
            }
        }
    }

    idom.iter()
        .enumerate()
        .map(|(i, &d)| if i == root { None } else { d.map(|x| x as u32) })
        .collect()
}

/// Computes the dominator tree of `cfg`, rooted at the entry statement.
pub fn dominators(cfg: &Cfg) -> DomTree {
    let n = cfg.len + 1; // Include the virtual exit.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, slot) in succs.iter_mut().enumerate().take(cfg.len) {
        slot.extend(cfg.succ_iter(StmtId(i as u32)).map(|t| t.index()));
        // A target on both the normal and exceptional lists appears twice;
        // the CHK fixpoint tolerates duplicate edges, so no dedup needed.
    }
    let idom = if cfg.len == 0 {
        vec![None; n]
    } else {
        compute_idoms(n, 0, &succs)
    };
    DomTree { idom, root: 0 }
}

/// Computes the post-dominator tree of `cfg`, rooted at the virtual exit.
pub fn post_dominators(cfg: &Cfg) -> DomTree {
    let n = cfg.len + 1;
    // Reverse graph: successors of v are the predecessors of v.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, ps) in cfg.preds.iter().enumerate() {
        succs[v] = ps.iter().map(|p| p.index()).collect();
    }
    let root = cfg.len;
    let idom = compute_idoms(n, root, &succs);
    DomTree {
        idom,
        root: root as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{Body, Operand, Stmt};
    use nck_dex::CondOp;

    fn diamond() -> Body {
        // 0: if -> 2
        // 1: nop (then)
        // 2: nop (join / else target)  -- simplified diamond
        // 3: return
        Body {
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
        }
    }

    #[test]
    fn dominators_of_diamond() {
        let b = diamond();
        let cfg = Cfg::build(&b);
        let dom = dominators(&cfg);
        assert!(dom.dominates(StmtId(0), StmtId(3)));
        assert!(dom.dominates(StmtId(0), StmtId(1)));
        assert!(!dom.dominates(StmtId(1), StmtId(2)));
        assert_eq!(dom.idom(StmtId(2)), Some(StmtId(0)));
        assert_eq!(dom.idom(StmtId(0)), None);
    }

    #[test]
    fn post_dominators_of_diamond() {
        let b = diamond();
        let cfg = Cfg::build(&b);
        let pdom = post_dominators(&cfg);
        // The join (2) post-dominates both branch arms and the branch.
        assert!(pdom.dominates(StmtId(2), StmtId(0)));
        assert!(pdom.dominates(StmtId(2), StmtId(1)));
        assert!(pdom.dominates(StmtId(3), StmtId(0)));
        // The then-arm does not post-dominate the branch.
        assert!(!pdom.dominates(StmtId(1), StmtId(0)));
    }

    #[test]
    fn unreachable_nodes_have_no_dominators() {
        let b = Body {
            locals: vec![],
            stmts: vec![
                Stmt::Return { value: None },
                Stmt::Nop, // Unreachable.
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&b);
        let dom = dominators(&cfg);
        assert!(!dom.is_reachable(StmtId(1)));
        assert!(!dom.dominates(StmtId(0), StmtId(1)));
    }

    #[test]
    fn infinite_loop_nodes_lack_postdominators() {
        let b = Body {
            locals: vec![],
            stmts: vec![Stmt::Goto { target: StmtId(0) }],
            traps: vec![],
        };
        let cfg = Cfg::build(&b);
        let pdom = post_dominators(&cfg);
        assert!(!pdom.is_reachable(StmtId(0)));
    }

    #[test]
    fn loop_header_dominates_body() {
        // 0: nop (header)
        // 1: if -> 3 (exit)
        // 2: goto 0 (latch)
        // 3: return
        let b = Body {
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
        };
        let cfg = Cfg::build(&b);
        let dom = dominators(&cfg);
        assert!(dom.dominates(StmtId(0), StmtId(2)));
        assert!(dom.dominates(StmtId(1), StmtId(2)));
        assert!(!dom.dominates(StmtId(2), StmtId(1)));
    }
}
