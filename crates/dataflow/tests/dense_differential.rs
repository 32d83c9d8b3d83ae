//! Differential suite for the dense hot path: the bitset-domain analyses
//! driven by the RPO-priority solver against naive reference
//! implementations (chaotic iteration over `BTreeSet` facts, whole-body
//! rescan for object flow) on randomized bodies with branches, loops,
//! traps, and field traffic. Any divergence between the optimized engine
//! and the obviously-correct one is a bug in the optimization.

use nck_dataflow::{object_flow, FlowOptions, ObjectFlow, ReachingDefs};
use nck_dex::builder::AdxBuilder;
use nck_dex::{AccessFlags, BinOp, CondOp};
use nck_ir::body::{Body, FieldKey, LocalId, Operand, Rvalue, Stmt, StmtId};
use nck_ir::cfg::Cfg;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------- Random body generation ----------

/// One structural region of a generated method body.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// A few straight-line arithmetic statements.
    Straight,
    /// An if/else diamond.
    Diamond,
    /// A counted back-edge loop.
    Loop,
    /// A call covered by a typed trap handler (exceptional edges).
    Trapped,
}

fn arb_blocks() -> impl Strategy<Value = Vec<Block>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Block::Straight),
            Just(Block::Diamond),
            Just(Block::Loop),
            Just(Block::Trapped),
        ],
        1..8,
    )
}

/// Lifts a method made of `blocks` over four registers, seeded with
/// `consts`.
fn random_body(blocks: &[Block], consts: &[i32]) -> Body {
    let mut b = AdxBuilder::new();
    b.class("Lp/D;", |c| {
        c.method(
            "f",
            "(I)I",
            AccessFlags::PUBLIC | AccessFlags::STATIC,
            4,
            |m| {
                let p = m.param(0).unwrap();
                for (i, &v) in consts.iter().take(3).enumerate() {
                    m.const_int(m.reg(i as u16), i64::from(v));
                }
                for (i, block) in blocks.iter().enumerate() {
                    match block {
                        Block::Straight => {
                            m.binop(BinOp::Add, m.reg(0), m.reg(0), m.reg(1));
                            m.binop(BinOp::Xor, m.reg(1), m.reg(1), m.reg(2));
                        }
                        Block::Diamond => {
                            let alt = m.new_label();
                            let join = m.new_label();
                            m.ifz(CondOp::Eq, p, alt);
                            m.binop(BinOp::Add, m.reg(0), m.reg(0), m.reg(1));
                            m.goto(join);
                            m.bind(alt);
                            m.binop(
                                if i % 2 == 0 { BinOp::Mul } else { BinOp::Sub },
                                m.reg(1),
                                m.reg(1),
                                m.reg(2),
                            );
                            m.bind(join);
                        }
                        Block::Loop => {
                            let head = m.new_label();
                            let done = m.new_label();
                            m.const_int(m.reg(2), 0);
                            m.bind(head);
                            m.if_(CondOp::Ge, m.reg(2), p, done);
                            m.binop(BinOp::Add, m.reg(0), m.reg(0), m.reg(2));
                            m.binop_lit(BinOp::Add, m.reg(2), m.reg(2), 1);
                            m.goto(head);
                            m.bind(done);
                        }
                        Block::Trapped => {
                            let handler = m.new_label();
                            let after = m.new_label();
                            let scope = m.begin_try();
                            m.invoke_static("Lp/Ext;", "io", "(I)I", &[m.reg(0)]);
                            m.move_result(m.reg(0));
                            m.end_try(scope, &[(Some("Ljava/io/IOException;"), handler)]);
                            m.goto(after);
                            m.bind(handler);
                            m.move_exception(m.reg(3));
                            m.binop(BinOp::Or, m.reg(1), m.reg(1), m.reg(2));
                            m.bind(after);
                        }
                    }
                }
                m.ret(Some(m.reg(0)));
            },
        );
    });
    let program = nck_ir::lift_file(&b.finish().unwrap()).unwrap();
    program.methods[0].body.as_deref().unwrap().clone()
}

// ---------- Reference engines (chaotic iteration over BTreeSet) ----------

/// Reaching definitions by chaotic iteration: sweep all statements in
/// index order until nothing changes. Facts are plain `BTreeSet<StmtId>`
/// of defining statements.
fn ref_reaching_before(body: &Body, cfg: &Cfg) -> Vec<BTreeSet<StmtId>> {
    let n = body.len();
    let mut before: Vec<BTreeSet<StmtId>> = vec![BTreeSet::new(); n];
    let mut after: Vec<BTreeSet<StmtId>> = vec![BTreeSet::new(); n];
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut inset = BTreeSet::new();
            for p in &cfg.preds[i] {
                inset.extend(after[p.index()].iter().copied());
            }
            let mut outset = inset.clone();
            if let Some(local) = body.stmt(StmtId(i as u32)).def() {
                outset.retain(|d| body.stmt(*d).def() != Some(local));
                outset.insert(StmtId(i as u32));
            }
            changed |= inset != before[i] || outset != after[i];
            before[i] = inset;
            after[i] = outset;
        }
        if !changed {
            return before;
        }
    }
}

/// Object flow by the pre-union-find algorithm: rescan the whole body,
/// applying every bidirectional propagation rule, until the tainted sets
/// stop growing; then read the derived facts off the closure.
fn ref_object_flow(body: &Body, seed: LocalId, opts: FlowOptions) -> ObjectFlow {
    let mut locals: BTreeSet<LocalId> = BTreeSet::new();
    let mut fields: BTreeSet<FieldKey> = BTreeSet::new();
    locals.insert(seed);
    loop {
        let before = (locals.len(), fields.len());
        for (_, stmt) in body.iter() {
            match stmt {
                Stmt::Assign { local, rvalue } => match rvalue {
                    Rvalue::Use(Operand::Local(src))
                    | Rvalue::Cast {
                        op: Operand::Local(src),
                        ..
                    } if locals.contains(local) || locals.contains(src) => {
                        locals.insert(*local);
                        locals.insert(*src);
                    }
                    Rvalue::InstanceField { field, .. } | Rvalue::StaticField { field }
                        if opts.through_fields
                            && (locals.contains(local) || fields.contains(field)) =>
                    {
                        locals.insert(*local);
                        fields.insert(*field);
                    }
                    Rvalue::Invoke(inv) if opts.fluent_returns => {
                        if let Some(Operand::Local(recv)) = inv.receiver() {
                            if locals.contains(local) || locals.contains(&recv) {
                                locals.insert(*local);
                                locals.insert(recv);
                            }
                        }
                    }
                    _ => {}
                },
                Stmt::StoreInstanceField { field, value, .. }
                | Stmt::StoreStaticField { field, value }
                    if opts.through_fields =>
                {
                    if let Operand::Local(v) = value {
                        if locals.contains(v) || fields.contains(field) {
                            locals.insert(*v);
                            fields.insert(*field);
                        }
                    }
                }
                _ => {}
            }
        }
        if (locals.len(), fields.len()) == before {
            break;
        }
    }

    let mut flow = ObjectFlow {
        locals,
        fields,
        ..ObjectFlow::default()
    };
    for (id, stmt) in body.iter() {
        if let Stmt::Assign { local, rvalue } = stmt {
            if flow.locals.contains(local) {
                match rvalue {
                    Rvalue::New { .. } | Rvalue::NewArray { .. } => flow.alloc_sites.push(id),
                    Rvalue::Invoke(inv) => {
                        let self_returning = matches!(
                            inv.receiver(),
                            Some(Operand::Local(r)) if flow.locals.contains(&r)
                        );
                        if !self_returning {
                            flow.alloc_sites.push(id);
                        }
                    }
                    _ => {}
                }
            }
        }
        if let Some(inv) = stmt.invoke_expr() {
            if let Some(Operand::Local(recv)) = inv.receiver() {
                if flow.locals.contains(&recv) {
                    flow.invoked_on.push(id);
                }
            }
        }
    }
    flow
}

/// A body exercising the object-flow rules: a builder object threaded
/// through moves, fluent calls, and a field round-trip, with an unrelated
/// second object as a negative control.
fn flow_body(chain: usize, via_field: bool) -> Body {
    let mut b = AdxBuilder::new();
    b.class("Lp/F;", |c| {
        c.method("g", "()V", AccessFlags::PUBLIC, 6, |m| {
            let cur = m.reg(0);
            let next = m.reg(1);
            let other = m.reg(2);
            m.new_instance(cur, "Lnet/Builder;");
            m.invoke_direct("Lnet/Builder;", "<init>", "()V", &[cur]);
            m.new_instance(other, "Lnet/Other;");
            m.invoke_direct("Lnet/Other;", "<init>", "()V", &[other]);
            for _ in 0..chain {
                m.invoke_virtual(
                    "Lnet/Builder;",
                    "timeout",
                    "(I)Lnet/Builder;",
                    &[cur, m.reg(3)],
                );
                m.move_result(next);
                m.mov(cur, next);
            }
            if via_field {
                m.sput(cur, "Lp/F;", "shared", "Lnet/Builder;");
                m.sget(m.reg(4), "Lp/F;", "shared", "Lnet/Builder;");
                m.invoke_virtual("Lnet/Builder;", "build", "()V", &[m.reg(4)]);
            }
            m.invoke_virtual("Lnet/Other;", "poke", "()V", &[other]);
            m.ret(None);
        });
    });
    let program = nck_ir::lift_file(&b.finish().unwrap()).unwrap();
    program.methods[0].body.as_deref().unwrap().clone()
}

// ---------- The differentials ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense reaching-definitions engine agrees with chaotic
    /// iteration over `BTreeSet` facts at every (statement, local) pair.
    #[test]
    fn reaching_defs_matches_reference(
        blocks in arb_blocks(),
        consts in proptest::collection::vec(any::<i32>(), 3),
    ) {
        let body = random_body(&blocks, &consts);
        let cfg = Cfg::build(&body);
        let rd = ReachingDefs::compute(&body, &cfg);
        let reference = ref_reaching_before(&body, &cfg);
        for (id, _) in body.iter() {
            for l in 0..body.locals.len() {
                let local = LocalId(l as u32);
                let fast = rd.reaching(id, local);
                let slow: Vec<StmtId> = reference[id.index()]
                    .iter()
                    .copied()
                    .filter(|d| body.stmt(*d).def() == Some(local))
                    .collect();
                prop_assert_eq!(&fast, &slow, "reaching({:?}, {:?}) diverged", id, local);
            }
        }
    }

    /// The union-find object-flow closure agrees with the whole-body
    /// rescan fixpoint it replaced, on every output field.
    #[test]
    fn object_flow_matches_reference(
        chain in 0usize..6,
        via_field in any::<bool>(),
        fluent in any::<bool>(),
        through_fields in any::<bool>(),
    ) {
        let body = flow_body(chain, via_field);
        let opts = FlowOptions { fluent_returns: fluent, through_fields };
        let seed = LocalId(0);
        let fast = object_flow(&body, seed, opts);
        let slow = ref_object_flow(&body, seed, opts);
        prop_assert_eq!(&fast.locals, &slow.locals);
        prop_assert_eq!(&fast.fields, &slow.fields);
        prop_assert_eq!(&fast.alloc_sites, &slow.alloc_sites);
        prop_assert_eq!(&fast.invoked_on, &slow.invoked_on);
    }

    /// Solving the same body twice (and through a rebuilt CFG) yields
    /// identical answers: the priority caches on the CFG must not leak
    /// state between solves.
    #[test]
    fn repeated_solves_are_stable(
        blocks in arb_blocks(),
        consts in proptest::collection::vec(any::<i32>(), 3),
    ) {
        let body = random_body(&blocks, &consts);
        let cfg = Cfg::build(&body);
        let rd1 = ReachingDefs::compute(&body, &cfg);
        let rd2 = ReachingDefs::compute(&body, &cfg);
        let fresh = ReachingDefs::compute(&body, &Cfg::build(&body));
        for (id, _) in body.iter() {
            for l in 0..body.locals.len() {
                let local = LocalId(l as u32);
                let a = rd1.reaching(id, local);
                prop_assert_eq!(&a, &rd2.reaching(id, local));
                prop_assert_eq!(&a, &fresh.reaching(id, local));
            }
        }
    }
}
