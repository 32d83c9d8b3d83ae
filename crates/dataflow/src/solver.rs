//! The generic worklist solver every concrete analysis plugs into.
//!
//! Analyses are defined at statement granularity over an
//! [`nck_ir::cfg::Cfg`]: provide a fact lattice (`bottom` + `join`) and a
//! transfer function, and [`solve`] computes the fixpoint, returning the
//! fact holding *before* and *after* every statement.

use nck_ir::body::{Body, Stmt, StmtId};
use nck_ir::cfg::Cfg;

/// A forward dataflow analysis over statement-level CFGs: facts flow
/// from predecessors to successors, starting from `bottom` at the entry.
pub trait Analysis {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// The least element, used to initialize all program points.
    fn bottom(&self) -> Self::Fact;

    /// Joins `other` into `fact`, returning `true` when `fact` changed.
    fn join(&self, fact: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Applies the effect of `stmt` to `fact`.
    fn transfer(&self, id: StmtId, stmt: &Stmt, fact: &mut Self::Fact);
}

/// The fixpoint result: facts before and after every statement.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact holding immediately before each statement, in program order.
    pub before: Vec<F>,
    /// Fact holding immediately after each statement.
    pub after: Vec<F>,
}

impl<F> Solution<F> {
    /// The fact before statement `id`.
    pub fn before(&self, id: StmtId) -> &F {
        &self.before[id.index()]
    }

    /// The fact after statement `id`.
    pub fn after(&self, id: StmtId) -> &F {
        &self.after[id.index()]
    }
}

/// Runs `analysis` to fixpoint over `body`/`cfg`.
///
/// Exceptional edges participate in the propagation exactly like normal
/// edges, which matches how Soot's `ExceptionalUnitGraph` drives
/// FlowDroid-style analyses.
///
/// The worklist is a reverse-postorder priority queue: statements are
/// visited in ascending RPO rank, so each pass sweeps the CFG in
/// propagation direction and loop bodies stabilize in near-minimal
/// visits. Because every lattice used here has a commutative, associative,
/// idempotent join and monotone transfer, the visit order affects only
/// convergence speed — the unique least fixpoint (and hence every report
/// derived from it) is identical to the old LIFO solver's.
pub fn solve<A: Analysis>(body: &Body, cfg: &Cfg, analysis: &A) -> Solution<A::Fact> {
    let n = body.len();
    let mut before: Vec<A::Fact> = vec![analysis.bottom(); n];
    let mut after: Vec<A::Fact> = vec![analysis.bottom(); n];
    if n == 0 {
        return Solution { before, after };
    }
    let bottom = analysis.bottom();

    // Priority order: RPO of the reachable statements, with statements
    // unreachable from the entry appended in index order so every
    // statement is still visited at least once, as the old exhaustive
    // seeding guaranteed. Both arrays are cached on the CFG, so repeated
    // solves pay nothing.
    let (order, rank) = cfg.solve_priority();

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // The heap only ever holds re-queues against the sweep direction
    // (nodes whose rank precedes the current position): phase one below
    // visits every statement once in priority order directly from
    // `order`, so acyclic regions never touch the heap at all.
    let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    // `on_work` keeps at most one pending visit per statement live.
    let mut on_work = vec![true; n];
    // All joins land in one scratch buffer that is swapped into the
    // solution on change, so the steady state allocates nothing.
    let mut scratch = analysis.bottom();

    let visit = |idx: usize,
                 on_work: &mut [bool],
                 heap: &mut BinaryHeap<Reverse<u32>>,
                 before: &mut [A::Fact],
                 after: &mut [A::Fact],
                 scratch: &mut A::Fact| {
        on_work[idx] = false;
        let id = StmtId(idx as u32);
        // in = join of preds' out.
        scratch.clone_from(&bottom);
        for &p in &cfg.preds[idx] {
            analysis.join(scratch, &after[p.index()]);
        }
        before[idx].clone_from(scratch);
        analysis.transfer(id, body.stmt(id), scratch);
        if *scratch != after[idx] {
            std::mem::swap(&mut after[idx], scratch);
            for s in cfg.succ_iter(id) {
                let si = s.index();
                if si < n && !on_work[si] {
                    on_work[si] = true;
                    heap.push(Reverse(rank[si]));
                }
            }
        }
    };

    // Phase one: a single sweep in priority order covers every statement.
    // A re-queue pushed during the sweep always targets a node *behind*
    // the cursor (nodes ahead still have `on_work` set from seeding), so
    // the heap accumulates exactly the back-edge work.
    for &idx in order {
        visit(
            idx as usize,
            &mut on_work,
            &mut heap,
            &mut before,
            &mut after,
            &mut scratch,
        );
    }
    // Phase two: drain back-edge re-queues to the fixpoint.
    while let Some(Reverse(r)) = heap.pop() {
        visit(
            order[r as usize] as usize,
            &mut on_work,
            &mut heap,
            &mut before,
            &mut after,
            &mut scratch,
        );
    }

    Solution { before, after }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_ir::body::{LocalDecl, LocalId, Operand, Rvalue};

    /// A toy forward "statement counting" analysis: fact = max number of
    /// assignments seen on any path.
    struct CountAssigns;

    impl Analysis for CountAssigns {
        type Fact = u32;

        fn bottom(&self) -> u32 {
            0
        }

        fn join(&self, fact: &mut u32, other: &u32) -> bool {
            if *other > *fact {
                *fact = *other;
                true
            } else {
                false
            }
        }

        fn transfer(&self, _id: StmtId, stmt: &Stmt, fact: &mut u32) {
            if matches!(stmt, Stmt::Assign { .. }) {
                *fact += 1;
            }
        }
    }

    #[test]
    fn forward_fixpoint_on_straight_line() {
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
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        let sol = solve(&body, &cfg, &CountAssigns);
        assert_eq!(sol.before[2], 2);
        assert_eq!(sol.after[1], 2);
        assert_eq!(sol.before[0], 0);
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // 0: assign
        // 1: if -> 0 (loop back)
        // 2: return
        let body = Body {
            locals: vec![LocalDecl { ty: None }],
            stmts: vec![
                Stmt::Assign {
                    local: LocalId(0),
                    rvalue: Rvalue::Use(Operand::IntConst(1)),
                },
                Stmt::If {
                    cond: nck_dex::CondOp::Eq,
                    a: Operand::IntConst(0),
                    b: Operand::IntConst(0),
                    target: nck_ir::StmtId(0),
                },
                Stmt::Return { value: None },
            ],
            traps: vec![],
        };
        let cfg = Cfg::build(&body);
        // A max-lattice with unbounded growth would diverge; cap it via a
        // saturating count to prove termination behavior of the solver.
        struct Saturating;
        impl Analysis for Saturating {
            type Fact = u32;
            fn bottom(&self) -> u32 {
                0
            }
            fn join(&self, fact: &mut u32, other: &u32) -> bool {
                if *other > *fact {
                    *fact = *other;
                    true
                } else {
                    false
                }
            }
            fn transfer(&self, _id: StmtId, stmt: &Stmt, fact: &mut u32) {
                if matches!(stmt, Stmt::Assign { .. }) {
                    *fact = (*fact + 1).min(5);
                }
            }
        }
        let sol = solve(&body, &cfg, &Saturating);
        assert_eq!(sol.before[2], 5);
    }
}
