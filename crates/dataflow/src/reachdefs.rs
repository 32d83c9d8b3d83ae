//! Reaching definitions and the def-use chains derived from them.

use crate::bitset::BitSet;
use crate::solver::{solve, Analysis, Solution};
use nck_ir::body::{Body, LocalId, Stmt, StmtId};
use nck_ir::cfg::Cfg;

/// Sentinel for "this statement defines nothing".
const NO_DEF: u32 = u32::MAX;

struct RdAnalysis<'a> {
    n_defs: usize,
    /// Dense def index per statement (`NO_DEF` for non-defining stmts).
    def_at: &'a [u32],
    /// Per-local kill mask: every def index of that local (including the
    /// defining statement's own, which is re-inserted after the subtract).
    kills: &'a [BitSet],
}

impl Analysis for RdAnalysis<'_> {
    type Fact = BitSet;

    fn bottom(&self) -> BitSet {
        BitSet::new(self.n_defs)
    }

    fn join(&self, fact: &mut BitSet, other: &BitSet) -> bool {
        fact.union_with(other)
    }

    fn transfer(&self, id: StmtId, stmt: &Stmt, fact: &mut BitSet) {
        if let Some(local) = stmt.def() {
            fact.subtract(&self.kills[local.0 as usize]);
            let d = self.def_at[id.index()];
            if d != NO_DEF {
                fact.insert(d as usize);
            }
        }
    }
}

/// The reaching-definitions solution of one body.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    solution: Solution<BitSet>,
    /// Definition sites in discovery order: `(stmt, defined local)`.
    pub def_sites: Vec<(StmtId, LocalId)>,
    def_at: Vec<u32>,
}

impl ReachingDefs {
    /// Computes reaching definitions for `body`.
    pub fn compute(body: &Body, cfg: &Cfg) -> ReachingDefs {
        let mut def_sites = Vec::new();
        let mut def_at = vec![NO_DEF; body.len()];
        for (id, stmt) in body.iter() {
            if let Some(local) = stmt.def() {
                def_at[id.index()] = def_sites.len() as u32;
                def_sites.push((id, local));
            }
        }
        let mut kills: Vec<BitSet> = vec![BitSet::new(def_sites.len()); body.locals.len()];
        for (d, &(_, local)) in def_sites.iter().enumerate() {
            kills[local.0 as usize].insert(d);
        }
        let analysis = RdAnalysis {
            n_defs: def_sites.len(),
            def_at: &def_at,
            kills: &kills,
        };
        let solution = solve(body, cfg, &analysis);
        ReachingDefs {
            solution,
            def_sites,
            def_at,
        }
    }

    /// Returns the definition statements of `local` that reach the point
    /// just before `at`.
    pub fn reaching(&self, at: StmtId, local: LocalId) -> Vec<StmtId> {
        self.solution
            .before(at)
            .iter()
            .filter_map(|d| {
                let (stmt, l) = self.def_sites[d];
                (l == local).then_some(stmt)
            })
            .collect()
    }

    /// Returns every use statement reached by the definition at `def`.
    pub fn uses_of(&self, body: &Body, def: StmtId) -> Vec<StmtId> {
        let d = match self.def_at.get(def.index()) {
            Some(&d) if d != NO_DEF => d as usize,
            _ => return vec![],
        };
        let (_, local) = self.def_sites[d];
        body.iter()
            .filter(|(id, stmt)| {
                let mut uses_local = false;
                stmt.for_each_use(|u| uses_local |= u == local);
                uses_local && self.solution.before(*id).contains(d)
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_dex::CondOp;
    use nck_ir::body::{LocalDecl, Operand, Rvalue};

    fn two_defs_one_use() -> Body {
        // 0: v0 = 1
        // 1: if ... -> 3
        // 2: v0 = 2
        // 3: return v0
        Body {
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
        }
    }

    #[test]
    fn both_definitions_reach_the_join() {
        let body = two_defs_one_use();
        let cfg = Cfg::build(&body);
        let rd = ReachingDefs::compute(&body, &cfg);
        let defs = rd.reaching(StmtId(3), LocalId(0));
        assert_eq!(defs, vec![StmtId(0), StmtId(2)]);
    }

    #[test]
    fn redefinition_kills() {
        let body = two_defs_one_use();
        let cfg = Cfg::build(&body);
        let rd = ReachingDefs::compute(&body, &cfg);
        // Just after stmt 2 (i.e. before 3 along that path) only def 2
        // should reach — but before stmt 2, def 0 reaches.
        let defs_before_2 = rd.reaching(StmtId(2), LocalId(0));
        assert_eq!(defs_before_2, vec![StmtId(0)]);
    }

    #[test]
    fn uses_of_def_found() {
        let body = two_defs_one_use();
        let cfg = Cfg::build(&body);
        let rd = ReachingDefs::compute(&body, &cfg);
        let uses = rd.uses_of(&body, StmtId(0));
        assert_eq!(uses, vec![StmtId(1), StmtId(3)]);
        let uses2 = rd.uses_of(&body, StmtId(2));
        assert_eq!(uses2, vec![StmtId(3)]);
    }
}
